//! Property tests for the IL's arithmetic semantics: folding a constant
//! expression must agree with direct evaluation, and expressions round-trip
//! through the wire encoding. Random trees come from a small deterministic
//! generator (fixed-seed xorshift) so the suite needs no external crates
//! and every run checks the same cases.

use titanc_il::fold::{const_value, eval_binop, eval_cast, eval_unop, fold_expr, normalize, Value};
use titanc_il::pretty::pretty_expr_in;
use titanc_il::{
    decode_proc, encode_proc, BinOp, Expr, ExprId, ExprPool, Procedure, ScalarType, StmtKind, Type,
    UnOp,
};

const CASES: u64 = 512;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

const BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Min,
    BinOp::Max,
];

const INT_KINDS: [ScalarType; 3] = [ScalarType::Char, ScalarType::Int, ScalarType::Ptr];

/// A random constant integer expression tree of the given maximum depth,
/// allocated into `pool`.
fn const_int_expr(rng: &mut Rng, depth: u32, pool: &mut ExprPool) -> ExprId {
    if depth == 0 || rng.below(3) == 0 {
        return pool.int(rng.range(-100, 100));
    }
    let op = BINOPS[rng.below(BINOPS.len() as u64) as usize];
    let ty = INT_KINDS[rng.below(INT_KINDS.len() as u64) as usize];
    let lhs = const_int_expr(rng, depth - 1, pool);
    let rhs = const_int_expr(rng, depth - 1, pool);
    pool.binary(op, ty, lhs, rhs)
}

/// Reference evaluator: evaluate the tree directly with the shared
/// operator semantics. Returns None when any subexpression traps.
fn reference_eval(pool: &ExprPool, id: ExprId) -> Option<Value> {
    match pool[id] {
        Expr::IntConst(v) => Some(Value::Int(v)),
        Expr::FloatConst(f, ty) => Some(normalize(Value::Float(f), ty)),
        Expr::Binary { op, ty, lhs, rhs } => {
            let a = reference_eval(pool, lhs)?;
            let b = reference_eval(pool, rhs)?;
            eval_binop(op, ty, a, b)
        }
        Expr::Unary { op, ty, arg } => Some(eval_unop(op, ty, reference_eval(pool, arg)?)),
        Expr::Cast { to, from, arg } => Some(eval_cast(to, from, reference_eval(pool, arg)?)),
        _ => None,
    }
}

/// Folding a fully-constant tree yields exactly the reference value
/// (or leaves a trapping subtree alone).
#[test]
fn fold_agrees_with_reference() {
    let mut rng = Rng::new(0xF01D);
    for _ in 0..CASES {
        let mut pool = ExprPool::new();
        let e = const_int_expr(&mut rng, 4, &mut pool);
        let shown = pretty_expr_in(&pool, e);
        let reference = reference_eval(&pool, e);
        let mut folded = pool.clone();
        fold_expr(&mut folded, e);
        match reference {
            Some(v) => {
                let got = const_value(&folded[e]);
                assert_eq!(got, Some(v), "tree: {shown}");
            }
            None => {
                // a division by zero somewhere: fold must not produce a
                // constant for the whole tree out of thin air
                assert!(
                    const_value(&folded[e]).is_none() || reference_eval(&folded, e).is_some(),
                    "tree: {shown}"
                );
            }
        }
    }
}

/// Folding is idempotent.
#[test]
fn fold_is_idempotent() {
    let mut rng = Rng::new(0x1DE0);
    for _ in 0..CASES {
        let mut pool = ExprPool::new();
        let e = const_int_expr(&mut rng, 4, &mut pool);
        let shown = pretty_expr_in(&pool, e);
        let mut once = pool.clone();
        fold_expr(&mut once, e);
        let mut twice = once.clone();
        fold_expr(&mut twice, e);
        assert!(once.expr_eq(e, &twice, e), "tree: {shown}");
    }
}

/// Expressions survive a wire round-trip, as what a procedure returns.
#[test]
fn expr_wire_roundtrip() {
    let mut rng = Rng::new(0x105E);
    for _ in 0..CASES {
        let mut p = Procedure::new("f", Type::Int);
        let e = const_int_expr(&mut rng, 3, &mut p.exprs);
        p.push(StmtKind::Return(Some(e)));
        let bytes = encode_proc(&p);
        let q = decode_proc(&bytes).expect("decodes");
        assert_eq!(q, p, "{}", pretty_expr_in(&p.exprs, e));
        let StmtKind::Return(Some(back)) = q.stmts[q.body[0]] else {
            panic!("the body is one return")
        };
        assert!(p.exprs.expr_eq(e, &q.exprs, back));
        assert_eq!(encode_proc(&q), bytes, "re-encoding is the identity");
    }
}

/// Folding never changes the size class upward (no expression growth).
#[test]
fn fold_never_grows() {
    let mut rng = Rng::new(0x6064);
    for _ in 0..CASES {
        let mut pool = ExprPool::new();
        let e = const_int_expr(&mut rng, 4, &mut pool);
        let shown = pretty_expr_in(&pool, e);
        let before = pool.size(e);
        let mut folded = pool.clone();
        fold_expr(&mut folded, e);
        assert!(folded.size(e) <= before, "tree: {shown}");
        // in-place folding never allocates new slots either
        assert_eq!(folded.len(), pool.len(), "tree: {shown}");
    }
}

/// Int kinds stay in range after normalization.
#[test]
fn normalization_ranges() {
    let mut rng = Rng::new(0x4046);
    for _ in 0..CASES {
        let v = rng.next() as i64;
        match normalize(Value::Int(v), ScalarType::Char) {
            Value::Int(c) => assert!((-128..=127).contains(&c)),
            _ => unreachable!("char normalization produced a float"),
        }
        match normalize(Value::Int(v), ScalarType::Int) {
            Value::Int(c) => assert!((i32::MIN as i64..=i32::MAX as i64).contains(&c)),
            _ => unreachable!("int normalization produced a float"),
        }
        match normalize(Value::Int(v), ScalarType::Ptr) {
            Value::Int(c) => assert!((0..=u32::MAX as i64).contains(&c)),
            _ => unreachable!("ptr normalization produced a float"),
        }
    }
}

/// `UnOp::Not` is an involution on truthiness.
#[test]
fn not_not_is_truthiness() {
    let mut rng = Rng::new(0x0707);
    for _ in 0..CASES {
        let v = rng.next() as i64;
        let once = eval_unop(UnOp::Not, ScalarType::Int, Value::Int(v));
        let twice = eval_unop(UnOp::Not, ScalarType::Int, once);
        assert_eq!(twice, Value::Int(i64::from(v != 0)));
    }
}
