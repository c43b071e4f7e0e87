//! Constant evaluation and folding.
//!
//! These are the *single source of truth* for IL arithmetic semantics: the
//! constant propagator (`titanc-opt`) and the Titan simulator
//! (`titanc-titan`) both evaluate operators through this module, so folding
//! can never disagree with execution.
//!
//! Integer kinds wrap to their C width on a 32-bit Titan: `char` is a
//! signed 8-bit byte, `int` a signed 32-bit word, pointers an unsigned
//! 32-bit word. `float` rounds through IEEE single precision.

use crate::expr::{BinOp, Expr, ExprPool, UnOp};
use crate::ids::{ExprId, VarId};
use crate::types::ScalarType;

/// A runtime (or compile-time) scalar value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// An integral value (char/int/ptr), already normalized to its width.
    Int(i64),
    /// A floating value (float values are kept rounded to f32 precision).
    Float(f64),
}

impl Value {
    /// The value as an i64, converting floats by truncation.
    #[inline(always)]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(f) => float_to_int(f),
        }
    }

    /// The value as an f64.
    #[inline(always)]
    pub fn as_float(self) -> f64 {
        match self {
            Value::Int(v) => int_to_float(v),
            Value::Float(f) => f,
        }
    }

    /// C truthiness: nonzero is true.
    #[inline(always)]
    pub fn is_truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(f) => f != 0.0,
        }
    }
}

/// The cross-kind halves of [`Value::as_int`] and [`Value::as_float`]. An
/// operand almost always has its operator's kind, so these stay out of
/// line and the same-kind read is one predicted branch. Casts convert
/// inline instead: there, crossing kinds is the point.
#[cold]
#[inline(never)]
fn float_to_int(f: f64) -> i64 {
    f as i64
}

#[cold]
#[inline(never)]
fn int_to_float(v: i64) -> f64 {
    v as f64
}

/// Normalizes a raw value to the representation of `ty` (wrapping integers,
/// rounding floats).
#[inline(always)]
pub fn normalize(v: Value, ty: ScalarType) -> Value {
    match ty {
        ScalarType::Char => Value::Int((v.as_int() as i8) as i64),
        ScalarType::Int => Value::Int((v.as_int() as i32) as i64),
        ScalarType::Ptr => Value::Int((v.as_int() as u32) as i64),
        ScalarType::Float => Value::Float(v.as_float() as f32 as f64),
        ScalarType::Double => Value::Float(v.as_float()),
    }
}

/// Evaluates a cast.
#[inline(always)]
pub fn eval_cast(to: ScalarType, _from: ScalarType, v: Value) -> Value {
    if to.is_float() {
        let f = match v {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
        };
        normalize(Value::Float(f), to)
    } else {
        let i = match v {
            Value::Int(i) => i,
            Value::Float(f) => f as i64,
        };
        normalize(Value::Int(i), to)
    }
}

/// Evaluates a unary operator on an operand of kind `ty`.
#[inline(always)]
pub fn eval_unop(op: UnOp, ty: ScalarType, v: Value) -> Value {
    match op {
        UnOp::Neg => {
            if ty.is_float() {
                normalize(Value::Float(-v.as_float()), ty)
            } else {
                normalize(Value::Int(v.as_int().wrapping_neg()), ty)
            }
        }
        UnOp::Not => Value::Int(i64::from(!v.is_truthy())),
        UnOp::BitNot => normalize(Value::Int(!v.as_int()), ty),
    }
}

/// Evaluates a binary operator on operands of kind `ty`.
///
/// Returns `None` for division/remainder by zero (the fold must leave the
/// expression alone and let the simulator trap at run time).
#[inline(always)]
pub fn eval_binop(op: BinOp, ty: ScalarType, a: Value, b: Value) -> Option<Value> {
    if ty.is_float() {
        let (x, y) = (a.as_float(), b.as_float());
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::Eq => return Some(Value::Int(i64::from(x == y))),
            BinOp::Ne => return Some(Value::Int(i64::from(x != y))),
            BinOp::Lt => return Some(Value::Int(i64::from(x < y))),
            BinOp::Le => return Some(Value::Int(i64::from(x <= y))),
            BinOp::Gt => return Some(Value::Int(i64::from(x > y))),
            BinOp::Ge => return Some(Value::Int(i64::from(x >= y))),
            BinOp::Rem | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr => {
                return None
            } // ill-typed on floats
        };
        Some(normalize(Value::Float(r), ty))
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return None;
                }
                x.wrapping_div(y)
            }
            BinOp::Rem => {
                if y == 0 {
                    return None;
                }
                x.wrapping_rem(y)
            }
            BinOp::Eq => i64::from(x == y),
            BinOp::Ne => i64::from(x != y),
            BinOp::Lt => i64::from(x < y),
            BinOp::Le => i64::from(x <= y),
            BinOp::Gt => i64::from(x > y),
            BinOp::Ge => i64::from(x >= y),
            BinOp::BitAnd => x & y,
            BinOp::BitOr => x | y,
            BinOp::BitXor => x ^ y,
            BinOp::Shl => x.wrapping_shl((y & 31) as u32),
            BinOp::Shr => x.wrapping_shr((y & 31) as u32),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
        };
        let result_ty = if op.is_comparison() {
            ScalarType::Int
        } else {
            ty
        };
        Some(normalize(Value::Int(r), result_ty))
    }
}

/// Converts a constant expression node to a [`Value`], if it is one.
pub fn const_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::IntConst(v) => Some(Value::Int(*v)),
        Expr::FloatConst(f, ty) => Some(normalize(Value::Float(*f), *ty)),
        _ => None,
    }
}

/// Converts a [`Value`] of kind `ty` back to a literal expression node.
pub fn value_to_expr(v: Value, ty: ScalarType) -> Expr {
    match normalize(v, ty) {
        Value::Int(i) => Expr::IntConst(i),
        Value::Float(f) => Expr::FloatConst(f, ty),
    }
}

/// Folds constant subtrees under `root` bottom-up, in place, and applies
/// safe algebraic identities (`x+0`, `x*1`, `x-0`, `x/1`, `0*x` when `x` is
/// volatile-free). The root slot id stays valid.
///
/// Folding never changes observable behaviour: volatile loads are preserved
/// and division by a constant zero is left in place. Returns whether any
/// node was rewritten.
pub fn fold_expr(pool: &mut ExprPool, root: ExprId) -> bool {
    let mut rewrote = false;
    crate::visit::rewrite_expr(pool, root, &mut |pool, id| {
        if let Some(node) = fold_node(pool, id) {
            pool[id] = node;
            rewrote = true;
        }
    });
    rewrote
}

/// What the node at `id` folds to, when it folds.
fn fold_node(pool: &ExprPool, id: ExprId) -> Option<Expr> {
    match pool[id] {
        Expr::Unary { op, ty, arg } => {
            let v = const_value(&pool[arg])?;
            let result_ty = if op == UnOp::Not { ScalarType::Int } else { ty };
            Some(value_to_expr(eval_unop(op, ty, v), result_ty))
        }
        Expr::Cast { to, from, arg } => {
            let v = const_value(&pool[arg])?;
            Some(value_to_expr(eval_cast(to, from, v), to))
        }
        Expr::Binary { op, ty, lhs, rhs } => {
            let lhs_c = const_value(&pool[lhs]);
            let rhs_c = const_value(&pool[rhs]);
            if let (Some(a), Some(b)) = (lhs_c, rhs_c) {
                if let Some(v) = eval_binop(op, ty, a, b) {
                    let result_ty = if op.is_comparison() {
                        ScalarType::Int
                    } else {
                        ty
                    };
                    return Some(value_to_expr(v, result_ty));
                }
            }
            // Algebraic identities, applied by hoisting the surviving
            // child's *node* into this slot (children keep their ids, so
            // no copying). Integer-exact only, except x+0.0/x*1.0 which
            // are exact in IEEE for non-trapping code except for
            // signed-zero subtleties we accept (the 1988 compiler did too).
            let is_zero = |v: Value| match v {
                Value::Int(0) => true,
                Value::Float(f) => f == 0.0,
                _ => false,
            };
            let is_one = |v: Value| match v {
                Value::Int(1) => true,
                Value::Float(f) => f == 1.0,
                _ => false,
            };
            match op {
                BinOp::Add if rhs_c.is_some_and(is_zero) => Some(pool[lhs]),
                BinOp::Add if lhs_c.is_some_and(is_zero) => Some(pool[rhs]),
                BinOp::Sub if rhs_c.is_some_and(is_zero) => Some(pool[lhs]),
                BinOp::Mul if rhs_c.is_some_and(is_one) => Some(pool[lhs]),
                BinOp::Mul if lhs_c.is_some_and(is_one) => Some(pool[rhs]),
                // 0*x -> 0 only when x has no volatile reads
                BinOp::Mul
                    if !ty.is_float()
                        && ((rhs_c.is_some_and(is_zero)
                            && !pool.any(lhs, Expr::is_volatile_load))
                            || (lhs_c.is_some_and(is_zero)
                                && !pool.any(rhs, Expr::is_volatile_load))) =>
                {
                    Some(Expr::IntConst(0))
                }
                BinOp::Div if rhs_c.is_some_and(is_one) => Some(pool[lhs]),
                _ => None,
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// §6 operation reduction
// ---------------------------------------------------------------------
//
// The node rewrites of the `-O2` strength sweep. [`fold_expr`] does not
// call them, so constant propagation (`-O1`) prints what it always did.
// Each is exact under the wrapping arithmetic of [`eval_binop`]:
// normalizing to an integer kind is reduction modulo its width, which
// commutes with wrapping addition, multiplication and left shift. An
// operand of kind `ty` holds a value already normalized to `ty`, as
// `fold_node`'s `x + 0 → x` assumes too.

/// Rewrites an integer `(e + c1) + c2`, both `Add`s of one kind, to
/// `e + c`, where `c` is `c1 + c2` normalized to that kind, or to `e` when
/// `c` is 0. Float kinds stay: their addition does not reassociate. Its
/// input is a struct member at a constant subscript: `pool[1023].next`
/// reaches `-O2`'s sweep as `((&pool + 12276) + 8)`, the element's address
/// plus the member's offset, which `constprop` leaves apart. Returns
/// whether the node at `id` was rewritten.
pub fn reassociate_offset(pool: &mut ExprPool, id: ExprId) -> bool {
    let Expr::Binary {
        op: BinOp::Add,
        ty,
        lhs,
        rhs,
    } = pool[id]
    else {
        return false;
    };
    let Some(c2) = pool.as_int(rhs).filter(|_| !ty.is_float()) else {
        return false;
    };
    let Expr::Binary {
        op: BinOp::Add,
        ty: inner,
        lhs: e,
        rhs: c1,
    } = pool[lhs]
    else {
        return false;
    };
    let Some(c1) = pool.as_int(c1).filter(|_| inner == ty) else {
        return false;
    };
    let sum = eval_binop(BinOp::Add, ty, Value::Int(c1), Value::Int(c2));
    let c = sum.expect("addition is total").as_int();
    pool[id] = if c == 0 {
        pool[e]
    } else {
        let c = pool.int(c);
        Expr::Binary {
            op: BinOp::Add,
            ty,
            lhs: e,
            rhs: c,
        }
    };
    true
}

/// Rewrites an integer `x * c` or `c * x` to `x << k` when `c = 2^k` with
/// 1 ≤ k ≤ 30, and — when `c < 2^30` has exactly two set bits `h > l` and
/// `x` is a variable `in_register` accepts — to `(x << h) + (x << l)`, or
/// `(x << h) + x` when `l = 0`. Only a register read is duplicated: a
/// second read of memory would be a second load. Negative and other
/// constants, and float kinds, stay. Returns whether the node at `id` was
/// rewritten.
pub fn reduce_multiply(
    pool: &mut ExprPool,
    id: ExprId,
    in_register: &dyn Fn(VarId) -> bool,
) -> bool {
    let Expr::Binary {
        op: BinOp::Mul,
        ty,
        lhs,
        rhs,
    } = pool[id]
    else {
        return false;
    };
    if ty.is_float() {
        return false;
    }
    let (x, c) = match (pool.as_int(lhs), pool.as_int(rhs)) {
        (None, Some(c)) => (lhs, c),
        (Some(c), None) => (rhs, c),
        _ => return false,
    };
    if !(2..1 << 31).contains(&c) {
        return false;
    }
    let (h, l) = (63 - c.leading_zeros(), c.trailing_zeros());
    let shl = |pool: &mut ExprPool, x: ExprId, k: u32| {
        let k = pool.int(i64::from(k));
        Expr::Binary {
            op: BinOp::Shl,
            ty,
            lhs: x,
            rhs: k,
        }
    };
    pool[id] = match (c.count_ones(), pool[x]) {
        (1, _) if h <= 30 => shl(pool, x, h),
        (2, Expr::Var(v)) if h < 30 && in_register(v) => {
            let high = shl(pool, x, h);
            let high = pool.alloc(high);
            let mut low = pool.var(v);
            if l > 0 {
                let shifted = shl(pool, low, l);
                low = pool.alloc(shifted);
            }
            Expr::Binary {
                op: BinOp::Add,
                ty,
                lhs: high,
                rhs: low,
            }
        }
        _ => return false,
    };
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_wraps_to_32_bits() {
        let v = eval_binop(
            BinOp::Add,
            ScalarType::Int,
            Value::Int(i32::MAX as i64),
            Value::Int(1),
        )
        .unwrap();
        assert_eq!(v, Value::Int(i32::MIN as i64));
    }

    #[test]
    fn pointer_arithmetic_is_unsigned_32() {
        let v = eval_binop(
            BinOp::Add,
            ScalarType::Ptr,
            Value::Int(u32::MAX as i64),
            Value::Int(1),
        )
        .unwrap();
        assert_eq!(v, Value::Int(0));
    }

    #[test]
    fn float_rounds_through_f32() {
        let v = normalize(Value::Float(0.1), ScalarType::Float);
        assert_eq!(v, Value::Float(0.1f32 as f64));
        let d = normalize(Value::Float(0.1), ScalarType::Double);
        assert_eq!(d, Value::Float(0.1));
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        assert_eq!(
            eval_binop(BinOp::Div, ScalarType::Int, Value::Int(1), Value::Int(0)),
            None
        );
        let mut p = ExprPool::new();
        let one = p.int(1);
        let zero = p.int(0);
        let e = p.ibinary(BinOp::Div, one, zero);
        fold_expr(&mut p, e);
        assert!(matches!(p[e], Expr::Binary { .. }));
    }

    #[test]
    fn folds_nested_arithmetic() {
        let mut p = ExprPool::new();
        let two = p.int(2);
        let three = p.int(3);
        let add = p.ibinary(BinOp::Add, two, three);
        let four = p.int(4);
        let e = p.ibinary(BinOp::Mul, add, four);
        fold_expr(&mut p, e);
        assert_eq!(p.as_int(e), Some(20));
    }

    #[test]
    fn comparisons_yield_int() {
        let mut p = ExprPool::new();
        let one = p.double(1.0);
        let two = p.double(2.0);
        let e = p.binary(BinOp::Lt, ScalarType::Double, one, two);
        fold_expr(&mut p, e);
        assert_eq!(p[e], Expr::IntConst(1));
    }

    #[test]
    fn identity_add_zero() {
        let mut p = ExprPool::new();
        let x = p.var(VarId(0));
        let zero = p.int(0);
        let e = p.ibinary(BinOp::Add, x, zero);
        fold_expr(&mut p, e);
        assert_eq!(p[e], Expr::Var(VarId(0)));
    }

    #[test]
    fn identity_mul_zero_respects_volatile() {
        let mut p = ExprPool::new();
        let addr = p.addr_of(VarId(0));
        let vl = p.alloc(Expr::Load {
            addr,
            ty: ScalarType::Int,
            volatile: true,
        });
        let zero = p.int(0);
        let e = p.ibinary(BinOp::Mul, vl, zero);
        fold_expr(&mut p, e);
        assert!(
            p.any(e, Expr::is_volatile_load),
            "volatile read must not be deleted"
        );

        let y = p.var(VarId(1));
        let zero2 = p.int(0);
        let pure = p.ibinary(BinOp::Mul, y, zero2);
        fold_expr(&mut p, pure);
        assert_eq!(p.as_int(pure), Some(0));
    }

    #[test]
    fn float_mul_zero_is_not_folded() {
        // 0.0 * x is NOT 0.0 when x is NaN/inf; the fold must not apply.
        let mut p = ExprPool::new();
        let x = p.var(VarId(0));
        let zero = p.double(0.0);
        let e = p.binary(BinOp::Mul, ScalarType::Double, x, zero);
        fold_expr(&mut p, e);
        assert!(matches!(p[e], Expr::Binary { .. }));
    }

    #[test]
    fn unop_eval() {
        assert_eq!(
            eval_unop(UnOp::Not, ScalarType::Int, Value::Int(0)),
            Value::Int(1)
        );
        assert_eq!(
            eval_unop(UnOp::Neg, ScalarType::Float, Value::Float(2.0)),
            Value::Float(-2.0)
        );
        assert_eq!(
            eval_unop(UnOp::BitNot, ScalarType::Int, Value::Int(0)),
            Value::Int(-1)
        );
    }

    #[test]
    fn char_wraps_to_8_bits() {
        let v = eval_binop(BinOp::Add, ScalarType::Char, Value::Int(127), Value::Int(1)).unwrap();
        assert_eq!(v, Value::Int(-128));
    }

    #[test]
    fn min_max_intrinsics() {
        assert_eq!(
            eval_binop(BinOp::Min, ScalarType::Int, Value::Int(3), Value::Int(5)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_binop(BinOp::Max, ScalarType::Int, Value::Int(3), Value::Int(5)).unwrap(),
            Value::Int(5)
        );
    }

    /// Evaluates a tree of integer constants, `VarId(0)` (bound to `x`)
    /// and binary nodes through [`eval_binop`].
    fn eval(p: &ExprPool, id: ExprId, x: Value) -> Value {
        match p[id] {
            Expr::IntConst(v) => Value::Int(v),
            Expr::Var(_) => x,
            Expr::Binary { op, ty, lhs, rhs } => {
                eval_binop(op, ty, eval(p, lhs, x), eval(p, rhs, x)).expect("total")
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    const INT_KINDS: [ScalarType; 3] = [ScalarType::Char, ScalarType::Int, ScalarType::Ptr];

    /// Operand values, normalized to each kind before use: an operand of
    /// kind `ty` holds a value of that kind.
    const OPERANDS: [i64; 9] = [
        0,
        1,
        -1,
        7,
        i8::MIN as i64,
        i8::MAX as i64,
        i32::MIN as i64,
        i32::MAX as i64,
        u32::MAX as i64,
    ];

    fn register(_: VarId) -> bool {
        true
    }

    #[test]
    fn reduced_multiplies_equal_mul_on_every_integer_kind() {
        let consts = [2, 4, 16, 1 << 30, 3, 5, 6, 12, 40, (1 << 29) + 1];
        for ty in INT_KINDS {
            for c in consts {
                for x in OPERANDS {
                    for c_first in [false, true] {
                        let x = normalize(Value::Int(x), ty);
                        let mut p = ExprPool::new();
                        let (v, k) = (p.var(VarId(0)), p.int(c));
                        let (lhs, rhs) = if c_first { (k, v) } else { (v, k) };
                        let e = p.binary(BinOp::Mul, ty, lhs, rhs);
                        let want = eval(&p, e, x);
                        let what = format!("{ty:?} {x:?} * {c}");
                        assert!(!fold_expr(&mut p, e), "{what}: fold_expr left it alone");
                        assert!(reduce_multiply(&mut p, e, &register), "{what}");
                        let mul = |n: &Expr| matches!(n, Expr::Binary { op: BinOp::Mul, .. });
                        assert!(!p.any(e, mul), "{what}: no multiply is left");
                        assert_eq!(eval(&p, e, x), want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn reassociated_offsets_equal_the_two_adds_including_wraparound() {
        let pairs = [
            (5, -5),
            (-32768, 32768),
            (7, 12),
            (1, i32::MAX as i64),
            (i32::MIN as i64, -1),
            (127, 1),
            (-128, -1),
            (u32::MAX as i64, 1),
            (u32::MAX as i64, u32::MAX as i64),
            (200, 56),
        ];
        for ty in INT_KINDS {
            for (c1, c2) in pairs {
                for x in OPERANDS {
                    let x = normalize(Value::Int(x), ty);
                    let mut p = ExprPool::new();
                    let (v, k1, k2) = (p.var(VarId(0)), p.int(c1), p.int(c2));
                    let inner = p.binary(BinOp::Add, ty, v, k1);
                    let e = p.binary(BinOp::Add, ty, inner, k2);
                    let want = eval(&p, e, x);
                    let what = format!("{ty:?} ({x:?} + {c1}) + {c2}");
                    assert!(reassociate_offset(&mut p, e), "{what}");
                    assert_eq!(eval(&p, e, x), want, "{what}");
                    let c = normalize(Value::Int(c1 + c2), ty).as_int();
                    match p[e] {
                        Expr::Binary { rhs, .. } => assert_eq!(p.as_int(rhs), Some(c), "{what}"),
                        _ => assert_eq!((p[e], c), (Expr::Var(VarId(0)), 0), "{what}"),
                    }
                }
            }
        }
    }

    /// Rewrites that must not fire: each case leaves the node as it was.
    #[test]
    fn floats_memory_and_other_constants_are_left_alone() {
        let mut p = ExprPool::new();
        let mut cases = Vec::new();
        for ty in [ScalarType::Float, ScalarType::Double] {
            let (v, four) = (p.var(VarId(0)), p.float(4.0));
            cases.push(p.binary(BinOp::Mul, ty, v, four));
            let (v, four) = (p.var(VarId(0)), p.int(4));
            cases.push(p.binary(BinOp::Mul, ty, v, four));
        }
        for ty in [ScalarType::Int, ScalarType::Ptr] {
            for c in [-4, 1 << 31, 1, 0, 7, 1 << 30 | 1] {
                let (v, k) = (p.var(VarId(0)), p.int(c));
                cases.push(p.binary(BinOp::Mul, ty, v, k));
            }
        }
        // a second read of memory or of a volatile would be a second load
        for volatile in [false, true] {
            let addr = p.addr_of(VarId(1));
            let x = p.alloc(Expr::Load {
                addr,
                ty: ScalarType::Int,
                volatile,
            });
            let five = p.int(5);
            cases.push(p.ibinary(BinOp::Mul, x, five));
        }
        let muls = cases.len();
        for ty in [ScalarType::Float, ScalarType::Double] {
            let (v, c1, c2) = (p.var(VarId(0)), p.float(0.5), p.float(-0.5));
            let inner = p.binary(BinOp::Add, ty, v, c1);
            cases.push(p.binary(BinOp::Add, ty, inner, c2));
        }
        let (v, c1, c2) = (p.var(VarId(0)), p.int(4), p.int(-4));
        let inner = p.binary(BinOp::Add, ScalarType::Int, v, c1);
        cases.push(p.binary(BinOp::Add, ScalarType::Ptr, inner, c2));
        for (i, e) in cases.into_iter().enumerate() {
            let before = p[e];
            let rewrote = if i < muls {
                reduce_multiply(&mut p, e, &register)
            } else {
                reassociate_offset(&mut p, e)
            };
            assert!(!rewrote, "case {i}: {before:?}");
            assert_eq!(p[e], before, "case {i}");
        }
        // a variable outside a register is read once, so only a power of
        // two reduces
        let (v, five) = (p.var(VarId(0)), p.int(5));
        let e = p.ibinary(BinOp::Mul, v, five);
        assert!(!reduce_multiply(&mut p, e, &|_| false));
        let (v, four) = (p.var(VarId(0)), p.int(4));
        let e = p.ibinary(BinOp::Mul, v, four);
        assert!(reduce_multiply(&mut p, e, &|_| false));
    }

    #[test]
    fn cast_float_to_int_truncates() {
        assert_eq!(
            eval_cast(ScalarType::Int, ScalarType::Double, Value::Float(3.9)),
            Value::Int(3)
        );
        assert_eq!(
            eval_cast(ScalarType::Int, ScalarType::Double, Value::Float(-3.9)),
            Value::Int(-3)
        );
    }
}
