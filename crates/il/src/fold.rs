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
use crate::ids::ExprId;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VarId;

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
