//! Affine decomposition of address expressions.
//!
//! A vectorizer "lives or dies by its ability to analyze loops and
//! subscripts" (§3). After while→DO conversion, induction-variable
//! substitution and forward substitution, every analyzable address has the
//! shape *invariant-base + coefficient·loop-var + constant*; this module
//! recovers that shape, including through the `*(p + 4*i)` star
//! expressions C produces instead of explicit subscripts (§9's "implicit
//! representation of subscripts as star operations … required some special
//! tuning").
//!
//! Symbolic terms hold [`ExprId`]s into the procedure's arena (shared
//! reads); [`Affine::materialize`] deep-copies them into fresh slots.

use titanc_il::{pretty_expr_in, BinOp, Expr, ExprId, ExprPool, Procedure, StmtId, UnOp, VarId};
use titanc_opt::util::invariant_in;

/// An address decomposed as `Σ mult·term + coeff·lv + offset` where every
/// `term` is loop-invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct Affine {
    /// Invariant symbolic terms with integer multipliers, canonically
    /// keyed by their printed form.
    pub terms: Vec<(String, ExprId, i64)>,
    /// Bytes per unit of the loop variable.
    pub coeff: i64,
    /// Constant byte offset.
    pub offset: i64,
}

impl Affine {
    fn constant(offset: i64) -> Affine {
        Affine {
            terms: Vec::new(),
            coeff: 0,
            offset,
        }
    }

    fn var_term(exprs: &ExprPool, e: ExprId) -> Affine {
        Affine {
            terms: vec![(pretty_expr_in(exprs, e), e, 1)],
            coeff: 0,
            offset: 0,
        }
    }

    fn add(mut self, other: Affine) -> Affine {
        self.coeff += other.coeff;
        self.offset += other.offset;
        for (k, e, m) in other.terms {
            match self.terms.iter_mut().find(|(k2, _, _)| *k2 == k) {
                Some((_, _, m2)) => *m2 += m,
                None => self.terms.push((k, e, m)),
            }
        }
        self.terms.retain(|(_, _, m)| *m != 0);
        self
    }

    fn scale(mut self, c: i64) -> Affine {
        self.coeff *= c;
        self.offset *= c;
        for t in &mut self.terms {
            t.2 *= c;
        }
        self.terms.retain(|(_, _, m)| *m != 0);
        self
    }

    fn neg(self) -> Affine {
        self.scale(-1)
    }

    /// Sorted canonical keys of the symbolic part — two references have
    /// comparable subscripts only when these agree.
    pub fn base_key(&self) -> Vec<(String, i64)> {
        let mut v: Vec<(String, i64)> =
            self.terms.iter().map(|(k, _, m)| (k.clone(), *m)).collect();
        v.sort();
        v
    }

    /// True when the symbolic bases coincide, making the ZIV/SIV tests
    /// applicable.
    pub fn same_base(&self, other: &Affine) -> bool {
        self.base_key() == other.base_key()
    }

    /// Rebuilds the address expression with the loop variable fixed to
    /// `lv_value` (used by vector code generation for the strip origin).
    /// Every symbolic term is deep-copied into fresh slots; `lv_value` is
    /// consumed (referenced at most once).
    pub fn materialize(&self, exprs: &mut ExprPool, lv_value: ExprId) -> ExprId {
        let mut acc: Option<ExprId> = None;
        fn push(exprs: &mut ExprPool, acc: &mut Option<ExprId>, e: ExprId) {
            *acc = Some(match acc.take() {
                None => e,
                Some(a) => exprs.binary(BinOp::Add, titanc_il::ScalarType::Ptr, a, e),
            });
        }
        for (_, e, m) in &self.terms {
            let copied = exprs.copy(*e);
            let scaled = if *m == 1 {
                copied
            } else {
                let mult = exprs.int(*m);
                exprs.ibinary(BinOp::Mul, copied, mult)
            };
            push(exprs, &mut acc, scaled);
        }
        if self.coeff != 0 {
            let c = exprs.int(self.coeff);
            let scaled = exprs.ibinary(BinOp::Mul, lv_value, c);
            push(exprs, &mut acc, scaled);
        }
        if self.offset != 0 || acc.is_none() {
            let off = exprs.int(self.offset);
            push(exprs, &mut acc, off);
        }
        let e = acc.expect("materialize produced a term");
        titanc_il::fold_expr(exprs, e);
        e
    }

    /// The unique `&array` root among the symbolic terms, if exactly one
    /// term is an `AddrOf` with multiplier 1 (other terms may be loop
    /// bounds or outer-loop offsets). Addresses rooted in *different*
    /// named arrays can never collide.
    pub fn array_root(&self, exprs: &ExprPool) -> Option<VarId> {
        let mut roots = self.terms.iter().filter_map(|(_, e, m)| match exprs[*e] {
            Expr::AddrOf(v) if *m == 1 => Some(v),
            _ => None,
        });
        let first = roots.next()?;
        if roots.next().is_some() {
            return None;
        }
        // no non-unit AddrOf terms allowed either
        let weird = self
            .terms
            .iter()
            .any(|(_, e, m)| matches!(exprs[*e], Expr::AddrOf(_)) && *m != 1);
        (!weird).then_some(first)
    }
}

/// Decomposes `e` as an affine function of `lv`, with everything else
/// required to be invariant in `body`. Returns `None` for non-affine
/// addresses (the reference is then unanalyzable and pessimized).
pub fn decompose(proc: &Procedure, body: &[StmtId], lv: VarId, e: ExprId) -> Option<Affine> {
    match proc.exprs[e] {
        Expr::IntConst(v) => Some(Affine::constant(v)),
        Expr::Var(v) if v == lv => Some(Affine {
            terms: Vec::new(),
            coeff: 1,
            offset: 0,
        }),
        Expr::Binary { op, lhs, rhs, .. } => match op {
            BinOp::Add => {
                let a = decompose(proc, body, lv, lhs)?;
                let b = decompose(proc, body, lv, rhs)?;
                Some(a.add(b))
            }
            BinOp::Sub => {
                let a = decompose(proc, body, lv, lhs)?;
                let b = decompose(proc, body, lv, rhs)?;
                Some(a.add(b.neg()))
            }
            BinOp::Mul => {
                let a = decompose(proc, body, lv, lhs)?;
                let b = decompose(proc, body, lv, rhs)?;
                // one side must be a pure constant
                if a.terms.is_empty() && a.coeff == 0 {
                    Some(b.scale(a.offset))
                } else if b.terms.is_empty() && b.coeff == 0 {
                    Some(a.scale(b.offset))
                } else {
                    None
                }
            }
            _ => invariant_term(proc, body, lv, e),
        },
        Expr::Unary {
            op: UnOp::Neg, arg, ..
        } => Some(decompose(proc, body, lv, arg)?.neg()),
        Expr::Cast { arg, .. } => decompose(proc, body, lv, arg),
        _ => invariant_term(proc, body, lv, e),
    }
}

fn invariant_term(proc: &Procedure, body: &[StmtId], lv: VarId, e: ExprId) -> Option<Affine> {
    if proc.exprs.any(e, |n| *n == Expr::Var(lv)) {
        return None;
    }
    if invariant_in(proc, body, e) {
        Some(Affine::var_term(&proc.exprs, e))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::{ProcBuilder, ScalarType, Type};

    fn setup() -> (Procedure, VarId, VarId, VarId) {
        let mut b = ProcBuilder::new("t", Type::Void);
        let lv = b.local("i", Type::Int);
        let arr = b.local("x", Type::array_of(Type::Float, 100));
        let p = b.param("p", Type::ptr_to(Type::Float));
        (b.finish(), lv, arr, p)
    }

    #[test]
    fn decomposes_subscript_form() {
        let (mut proc, lv, arr, _p) = setup();
        // &x + (i * 4) + 8
        let x = proc.exprs.addr_of(arr);
        let i = proc.exprs.var(lv);
        let four = proc.exprs.int(4);
        let mul = proc.exprs.ibinary(BinOp::Mul, i, four);
        let sum = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, x, mul);
        let eight = proc.exprs.int(8);
        let e = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, sum, eight);
        let a = decompose(&proc, &[], lv, e).unwrap();
        assert_eq!(a.coeff, 4);
        assert_eq!(a.offset, 8);
        assert_eq!(a.array_root(&proc.exprs), Some(arr));
    }

    #[test]
    fn decomposes_reversed_induction() {
        let (mut proc, lv, _arr, p) = setup();
        // p + (50 - i) * 4
        let pv = proc.exprs.var(p);
        let fifty = proc.exprs.int(50);
        let i = proc.exprs.var(lv);
        let sub = proc.exprs.ibinary(BinOp::Sub, fifty, i);
        let four = proc.exprs.int(4);
        let mul = proc.exprs.ibinary(BinOp::Mul, sub, four);
        let e = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, pv, mul);
        let a = decompose(&proc, &[], lv, e).unwrap();
        assert_eq!(a.coeff, -4);
        assert_eq!(a.offset, 200);
    }

    #[test]
    fn symbolic_invariant_terms_scale() {
        let (mut proc, lv, _arr, p) = setup();
        // p + (p + i): the symbolic term p appears twice
        let p1 = proc.exprs.var(p);
        let p2 = proc.exprs.var(p);
        let i = proc.exprs.var(lv);
        let inner = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, p2, i);
        let e = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, p1, inner);
        let a = decompose(&proc, &[], lv, e).unwrap();
        assert_eq!(a.coeff, 1);
        assert_eq!(a.terms.len(), 1);
        assert_eq!(a.terms[0].2, 2);
    }

    #[test]
    fn same_base_comparison() {
        let (mut proc, lv, arr, p) = setup();
        let mk = |proc: &mut Procedure, base: ExprId, off: i64| {
            let i = proc.exprs.var(lv);
            let four = proc.exprs.int(4);
            let mul = proc.exprs.ibinary(BinOp::Mul, i, four);
            let o = proc.exprs.int(off);
            let sum = proc.exprs.ibinary(BinOp::Add, mul, o);
            let e = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, base, sum);
            decompose(proc, &[], lv, e).unwrap()
        };
        let b1 = proc.exprs.addr_of(arr);
        let a1 = mk(&mut proc, b1, 0);
        let b2 = proc.exprs.addr_of(arr);
        let a2 = mk(&mut proc, b2, 4);
        let b3 = proc.exprs.var(p);
        let a3 = mk(&mut proc, b3, 0);
        assert!(a1.same_base(&a2));
        assert!(!a1.same_base(&a3));
    }

    #[test]
    fn non_affine_rejected() {
        let (mut proc, lv, _arr, p) = setup();
        // p + i*i is not affine
        let pv = proc.exprs.var(p);
        let i1 = proc.exprs.var(lv);
        let i2 = proc.exprs.var(lv);
        let sq = proc.exprs.ibinary(BinOp::Mul, i1, i2);
        let e = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, pv, sq);
        assert!(decompose(&proc, &[], lv, e).is_none());
        // loads are not invariant
        let pv2 = proc.exprs.var(p);
        let e2 = proc.exprs.load(pv2, ScalarType::Ptr);
        assert!(decompose(&proc, &[], lv, e2).is_none());
    }

    #[test]
    fn materialize_round_trips() {
        let (mut proc, lv, arr, _p) = setup();
        let base = proc.exprs.addr_of(arr);
        let i = proc.exprs.var(lv);
        let four = proc.exprs.int(4);
        let mul = proc.exprs.ibinary(BinOp::Mul, i, four);
        let e = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, base, mul);
        let a = decompose(&proc, &[], lv, e).unwrap();
        let zero = proc.exprs.int(0);
        let at_zero = a.materialize(&mut proc.exprs, zero);
        let plain = proc.exprs.addr_of(arr);
        assert_eq!(
            pretty_expr_in(&proc.exprs, at_zero),
            pretty_expr_in(&proc.exprs, plain)
        );
        let five = proc.exprs.int(5);
        let at_five = a.materialize(&mut proc.exprs, five);
        let aff2 = decompose(&proc, &[], lv, at_five).unwrap();
        assert_eq!(aff2.offset, 20);
    }

    #[test]
    fn varying_term_rejected() {
        // an address built from a variable defined in the body is not
        // invariant
        let mut b = ProcBuilder::new("t", Type::Void);
        let lv = b.local("i", Type::Int);
        let q = b.local("q", Type::ptr_to(Type::Float));
        let zero = b.int(0);
        b.assign_var(q, zero); // q defined in body
        let mut proc = b.finish();
        let body = proc.body.clone();
        let qv = proc.exprs.var(q);
        let i = proc.exprs.var(lv);
        let e = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, qv, i);
        assert!(decompose(&proc, &body, lv, e).is_none());
    }
}
