//! The binary operator table, checked pair by pair: for every ordered pair
//! of C's 18 binary operators, `a op1 b op2 c` must parse to the tree that
//! C's precedence levels and left associativity predict. The table below
//! is written out from the C standard, independently of the parser's.
//! Unary, cast and postfix operators bind tighter than any of them, and
//! `?:` and assignment nest to the right.

use titanc_cfront::ast::{CBinOp, CType, CUnOp, Expr, ExprKind};
use titanc_cfront::{parse_expr, Span};

/// Spelling, operator and precedence (higher binds tighter).
const BINARY: [(&str, CBinOp, u8); 18] = [
    ("*", CBinOp::Mul, 10),
    ("/", CBinOp::Div, 10),
    ("%", CBinOp::Rem, 10),
    ("+", CBinOp::Add, 9),
    ("-", CBinOp::Sub, 9),
    ("<<", CBinOp::Shl, 8),
    (">>", CBinOp::Shr, 8),
    ("<", CBinOp::Lt, 7),
    (">", CBinOp::Gt, 7),
    ("<=", CBinOp::Le, 7),
    (">=", CBinOp::Ge, 7),
    ("==", CBinOp::Eq, 6),
    ("!=", CBinOp::Ne, 6),
    ("&", CBinOp::BitAnd, 5),
    ("^", CBinOp::BitXor, 4),
    ("|", CBinOp::BitOr, 3),
    ("&&", CBinOp::LogAnd, 2),
    ("||", CBinOp::LogOr, 1),
];

fn spelling(op: CBinOp) -> &'static str {
    BINARY
        .iter()
        .find(|(_, o, _)| *o == op)
        .map_or("?", |b| b.0)
}

/// The tree, fully parenthesized, with binary operators spelled as in C.
fn shape(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Ident(name) => name.clone(),
        ExprKind::IntLit(v) => v.to_string(),
        ExprKind::Binary(op, l, r) => format!("({} {} {})", shape(l), spelling(*op), shape(r)),
        ExprKind::Unary(op, a) => format!("({op:?} {})", shape(a)),
        ExprKind::Cast(ty, a) => match &ty.ty {
            CType::Float => format!("((float) {})", shape(a)),
            other => format!("(({other:?}) {})", shape(a)),
        },
        ExprKind::SizeofExpr(a) => format!("(sizeof {})", shape(a)),
        ExprKind::Index(a, i) => format!("({}[{}])", shape(a), shape(i)),
        ExprKind::Member { base, field, arrow } => {
            format!(
                "({}{}{field})",
                shape(base),
                if *arrow { "->" } else { "." }
            )
        }
        ExprKind::IncDec { inc, prefix, arg } => {
            let op = if *inc { "++" } else { "--" };
            if *prefix {
                format!("({op}{})", shape(arg))
            } else {
                format!("({}{op})", shape(arg))
            }
        }
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => format!("({} ? {} : {})", shape(cond), shape(then_e), shape(else_e)),
        ExprKind::Assign { op, lhs, rhs } => {
            let op = op.map_or(String::new(), |o| spelling(o).to_string());
            format!("({} {op}= {})", shape(lhs), shape(rhs))
        }
        other => panic!("no shape for {other:?}"),
    }
}

/// The span of the leftmost token under `e`.
fn leftmost(e: &Expr) -> Span {
    match &e.kind {
        ExprKind::Binary(_, l, _) => leftmost(l),
        _ => e.span,
    }
}

/// Every binary node is spanned at its leftmost operand.
fn assert_spans(e: &Expr, src: &str) {
    if let ExprKind::Binary(_, l, r) = &e.kind {
        assert_eq!(e.span, leftmost(e), "`{src}`: span of {}", shape(e));
        assert_spans(l, src);
        assert_spans(r, src);
    }
}

#[test]
fn every_pair_of_binary_operators_nests_by_precedence_then_left_to_right() {
    let mut checked = 0;
    for (s1, _, p1) in BINARY {
        for (s2, _, p2) in BINARY {
            let src = format!("a {s1} b {s2} c");
            let expected = if p1 >= p2 {
                format!("((a {s1} b) {s2} c)")
            } else {
                format!("(a {s1} (b {s2} c))")
            };
            let e = parse_expr(&src).unwrap_or_else(|d| panic!("`{src}`: {d}"));
            assert_eq!(shape(&e), expected, "`{src}`");
            assert_eq!(e.span, Span { line: 1, col: 1 }, "`{src}`");
            assert_spans(&e, &src);
            checked += 1;
        }
    }
    assert_eq!(checked, 18 * 18);
}

#[test]
fn long_chains_fold_left_within_a_level_and_climb_across_levels() {
    for (src, expected) in [
        ("a - b - c - d", "(((a - b) - c) - d)"),
        ("a / b % c * d", "(((a / b) % c) * d)"),
        (
            "a || b && c | d ^ e & f == g < h << i + j * k",
            "(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))))",
        ),
        (
            "a * b + c << d < e == f & g ^ h | i && j || k",
            "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)",
        ),
        ("a + b * c - d", "((a + (b * c)) - d)"),
    ] {
        let e = parse_expr(src).unwrap();
        assert_eq!(shape(&e), expected, "`{src}`");
        assert_spans(&e, src);
    }
    // a parenthesized operand is spanned at its `(`
    let e = parse_expr("(a + b) * c").unwrap();
    assert_eq!(shape(&e), "((a + b) * c)");
    assert_eq!(e.span, Span { line: 1, col: 1 });
}

#[test]
fn unary_cast_and_postfix_bind_tighter_than_multiplication() {
    for (src, expected) in [
        ("-a * b", "((Neg a) * b)"),
        ("+a * b", "((Plus a) * b)"),
        ("!a * b", "((Not a) * b)"),
        ("~a * b", "((BitNot a) * b)"),
        ("*p * b", "((Deref p) * b)"),
        ("&a * b", "((AddrOf a) * b)"),
        ("a * -b", "(a * (Neg b))"),
        ("a * *p", "(a * (Deref p))"),
        ("++a * b", "((++a) * b)"),
        ("sizeof a * b", "((sizeof a) * b)"),
        ("(float)a * b", "(((float) a) * b)"),
        ("a * (float)b", "(a * ((float) b))"),
        ("(float)-a * b", "(((float) (Neg a)) * b)"),
        ("(float)*p * b", "(((float) (Deref p)) * b)"),
        ("(float)(float)a++ * b", "(((float) ((float) (a++))) * b)"),
        ("a * b[i]", "(a * (b[i]))"),
        ("a[i] * b", "((a[i]) * b)"),
        ("a * b++", "(a * (b++))"),
        ("a-- * b", "((a--) * b)"),
        ("a * s.f", "(a * (s.f))"),
        ("p->f * b", "((p->f) * b)"),
        ("-a[i]", "(Neg (a[i]))"),
        ("*p++", "(Deref (p++))"),
        ("-a->f.g[i]++", "(Neg ((((a->f).g)[i])++))"),
    ] {
        let e = parse_expr(src).unwrap_or_else(|d| panic!("`{src}`: {d}"));
        assert_eq!(shape(&e), expected, "`{src}`");
    }
    // the operand of a unary operator is a unary expression, never a product
    match parse_expr("-a * b").unwrap().kind {
        ExprKind::Binary(CBinOp::Mul, l, _) => {
            assert!(matches!(l.kind, ExprKind::Unary(CUnOp::Neg, _)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn prefix_operators_nest() {
    // C's operand of a prefix operator is itself a unary expression
    for (src, expected) in [
        ("-*p", "(Neg (Deref p))"),
        ("**pp", "(Deref (Deref pp))"),
        ("!!x", "(Not (Not x))"),
        ("- -x", "(Neg (Neg x))"),
        ("~-x", "(BitNot (Neg x))"),
        ("&*p", "(AddrOf (Deref p))"),
        ("!-x", "(Not (Neg x))"),
        ("-(float)*p", "(Neg ((float) (Deref p)))"),
        ("-++a", "(Neg (++a))"),
        ("*-*p * b", "((Deref (Neg (Deref p))) * b)"),
        ("sizeof -x", "(sizeof (Neg x))"),
        ("- - -x[i]++", "(Neg (Neg (Neg ((x[i])++))))"),
    ] {
        let e = parse_expr(src).unwrap_or_else(|d| panic!("`{src}`: {d}"));
        assert_eq!(shape(&e), expected, "`{src}`");
    }
}

#[test]
fn conditional_and_assignment_chains_nest_to_the_right() {
    for (src, expected) in [
        ("a ? b : c ? d : e", "(a ? b : (c ? d : e))"),
        ("a || b ? c + d : e && f", "((a || b) ? (c + d) : (e && f))"),
        ("a ? b = c : d", "(a ? (b = c) : d)"),
        (
            "x = y += a ? b : c ? d : e",
            "(x = (y += (a ? b : (c ? d : e))))",
        ),
        ("x *= y -= z <<= 2", "(x *= (y -= (z <<= 2)))"),
        ("x = a < b ? a : b", "(x = ((a < b) ? a : b))"),
    ] {
        let e = parse_expr(src).unwrap_or_else(|d| panic!("`{src}`: {d}"));
        assert_eq!(shape(&e), expected, "`{src}`");
    }
}
