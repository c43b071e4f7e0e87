//! The affine form of addresses, loop bounds and trip counts.
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
//! reads) and compare structurally ([`ExprPool::expr_eq`]), so two
//! decompositions of equal trees agree whatever their slots.
//! [`Affine::emit_at`] is the one place the loop passes build an address
//! from a form: it substitutes the loop's start into the form, collecting
//! terms, and deep-copies what is left into fresh slots. The DO-loop
//! arithmetic goes through the same form: while→DO's upper bound, and
//! [`DoHeader::trips_expression`] (ivsub's finalization and the
//! vectorizer's strips). [`DoHeader`] is the one reading of a DO loop's
//! header that every loop pass and the dependence graph share.

use crate::util::invariant_in;
use titanc_il::{
    fold_expr, BinOp, Expr, ExprId, ExprPool, Procedure, ScalarType, StmtId, StmtKind, UnOp, VarId,
};

/// The header of a DO loop whose step is a nonzero constant: the one
/// place a loop pass reads `lv = lo, hi, step` from.
#[derive(Clone, Copy, Debug)]
pub struct DoHeader {
    /// The loop variable.
    pub lv: VarId,
    /// The header's lower bound (the loop's own slot, read shared).
    pub lo: ExprId,
    /// The header's upper bound (the loop's own slot, read shared).
    pub hi: ExprId,
    /// The constant step, never 0.
    pub step: i64,
}

impl DoHeader {
    /// The header of a `DoLoop` or `DoParallel` whose step is a nonzero
    /// constant; `None` for any other statement.
    pub fn of(kind: &StmtKind, exprs: &ExprPool) -> Option<DoHeader> {
        let (StmtKind::DoLoop {
            var, lo, hi, step, ..
        }
        | StmtKind::DoParallel {
            var, lo, hi, step, ..
        }) = *kind
        else {
            return None;
        };
        Some(DoHeader {
            lv: var,
            lo,
            hi,
            step: exprs.as_int(step).filter(|&st| st != 0)?,
        })
    }

    /// The constant trip count, when the bounds fold.
    pub fn const_trip_count(&self, exprs: &ExprPool) -> Option<i64> {
        let (l, h, s) = (exprs.as_int(self.lo)?, exprs.as_int(self.hi)?, self.step);
        Some(((h - l + s) / s).max(0))
    }

    /// The trip count as a fresh tree: for a unit step over invariant
    /// affine bounds `max(0, ±(hi − lo) + 1)`, collected through [`Affine`]
    /// and without a divide, otherwise `max(0, (hi − lo + step) / step)`.
    pub fn trips_expression(&self, proc: &mut Procedure, body: &[StmtId]) -> ExprId {
        let DoHeader { lv, lo, hi, step } = *self;
        let bound = |e| decompose(proc, body, lv, e).filter(|a| a.coeff == 0);
        let span = match (step, bound(lo), bound(hi)) {
            (1 | -1, Some(lo), Some(hi)) => {
                let (first, last) = if step == 1 { (lo, hi) } else { (hi, lo) };
                let mut span = last.add(&proc.exprs, first.scale(-1));
                span.offset += 1;
                span.emit(&mut proc.exprs, ScalarType::Int, None)
            }
            _ => {
                let exprs = &mut proc.exprs;
                let (hi, lo) = (exprs.copy(hi), exprs.copy(lo));
                let diff = exprs.ibinary(BinOp::Sub, hi, lo);
                let step_c = exprs.int(step);
                let span = exprs.ibinary(BinOp::Add, diff, step_c);
                let step_c = exprs.int(step);
                exprs.ibinary(BinOp::Div, span, step_c)
            }
        };
        let zero = proc.exprs.int(0);
        let e = proc.exprs.ibinary(BinOp::Max, zero, span);
        fold_expr(&mut proc.exprs, e);
        e
    }
}

/// An address decomposed as `Σ mult·term + coeff·lv + offset` where every
/// `term` is loop-invariant.
#[derive(Clone, Debug)]
pub struct Affine {
    /// Invariant symbolic terms with their nonzero integer multipliers, no
    /// two structurally equal.
    pub terms: Vec<(ExprId, i64)>,
    /// Bytes per unit of the loop variable.
    pub coeff: i64,
    /// Constant byte offset.
    pub offset: i64,
}

impl Affine {
    /// The form `Σ mult·term + coeff·lv + offset`.
    pub fn new(terms: Vec<(ExprId, i64)>, coeff: i64, offset: i64) -> Affine {
        Affine {
            terms,
            coeff,
            offset,
        }
    }

    pub(crate) fn add(mut self, exprs: &ExprPool, other: Affine) -> Affine {
        self.coeff += other.coeff;
        self.offset += other.offset;
        for (e, m) in other.terms {
            let at = (self.terms.iter()).position(|&(t, _)| exprs.expr_eq(t, exprs, e));
            match at {
                Some(i) => self.terms[i].1 += m,
                None => self.terms.push((e, m)),
            }
        }
        self.terms.retain(|&(_, m)| m != 0);
        self
    }

    pub(crate) fn scale(mut self, c: i64) -> Affine {
        self.coeff *= c;
        self.offset *= c;
        for t in &mut self.terms {
            t.1 *= c;
        }
        self.terms.retain(|&(_, m)| m != 0);
        self
    }

    /// True when the symbolic parts coincide term for term, whatever the
    /// terms' slots, making the ZIV/SIV tests applicable.
    pub fn same_base(&self, other: &Affine, exprs: &ExprPool) -> bool {
        self.terms.len() == other.terms.len()
            && self.terms.iter().all(|&(e, m)| {
                (other.terms.iter()).any(|&(f, n)| m == n && exprs.expr_eq(e, exprs, f))
            })
    }

    /// True when both forms denote the same address: the same base,
    /// coefficient and offset.
    pub fn same(&self, other: &Affine, exprs: &ExprPool) -> bool {
        self.coeff == other.coeff && self.offset == other.offset && self.same_base(other, exprs)
    }

    /// The form with the loop variable replaced by `v`, whose own `coeff`
    /// counts a new loop variable: `lv := Σ v.terms + v.coeff·k + v.offset`.
    /// Equal terms of the two forms collect, so they can cancel.
    pub fn substitute(&self, exprs: &ExprPool, v: &Affine) -> Affine {
        let base = Affine {
            coeff: 0,
            ..self.clone()
        };
        base.add(exprs, v.clone().scale(self.coeff))
    }

    /// Emits, as a fresh tree, the address of iteration `k` of the loop
    /// `head`: the form at `lv := lo + step·k`, with `k` the tree `origin`
    /// (deep-copied), or 0 when that is `None`. An invariant affine `lo`
    /// has its terms collected into the form's before anything is
    /// emitted; any other `lo` stays one opaque term.
    pub fn emit_at(
        &self,
        proc: &mut Procedure,
        body: &[StmtId],
        head: &DoHeader,
        origin: Option<ExprId>,
    ) -> ExprId {
        let DoHeader { lv, lo, step, .. } = *head;
        let start = match decompose(proc, body, lv, lo) {
            Some(a) if a.coeff == 0 => Affine::new(a.terms, step, a.offset),
            _ => Affine::new(vec![(lo, 1)], step, 0),
        };
        let at = self.substitute(&proc.exprs, &start);
        at.emit(&mut proc.exprs, ScalarType::Ptr, origin)
    }

    /// The form as a fresh tree, `Σ mult·term + offset + coeff·k` in that
    /// order, summed as `ty` with constants wrapped to 32 bits; the
    /// `coeff·k` part is left out when `k` is `None`. A negative part is
    /// subtracted, never multiplied by a negative constant, and a form
    /// whose first part is a negative term starts from its offset.
    pub fn emit(&self, exprs: &mut ExprPool, ty: ScalarType, k: Option<ExprId>) -> ExprId {
        let wrap = |v: i64| i64::from(v as i32);
        let k = k.filter(|_| self.coeff != 0);
        let first = match self.terms.first() {
            Some(&(_, m)) => m,
            None if self.offset == 0 && k.is_some() => self.coeff,
            None => 0,
        };
        let offset_first = wrap(first) < 0;
        let mut acc = offset_first.then(|| exprs.int(wrap(self.offset)));
        // `part` is `None` for the offset, a constant
        let mut push = |exprs: &mut ExprPool, part: Option<ExprId>, m: i64| {
            // `-i32::MIN` wraps to itself: that multiplier is added
            let negative = acc.is_some() && m < 0 && m != i64::from(i32::MIN);
            let m = if negative { -m } else { m };
            let scaled = match part.map(|e| exprs.copy(e)) {
                None => exprs.int(m),
                Some(e) if m == 1 => e,
                Some(e) => {
                    let mult = exprs.int(m);
                    exprs.ibinary(BinOp::Mul, e, mult)
                }
            };
            let op = if negative { BinOp::Sub } else { BinOp::Add };
            acc = Some(match acc {
                None => scaled,
                Some(a) => exprs.binary(op, ty, a, scaled),
            });
        };
        for &(e, m) in &self.terms {
            push(exprs, Some(e), wrap(m));
        }
        if !offset_first && (self.offset != 0 || (self.terms.is_empty() && k.is_none())) {
            push(exprs, None, wrap(self.offset));
        }
        if let Some(k) = k {
            push(exprs, Some(k), wrap(self.coeff));
        }
        let e = acc.expect("emit produced a term");
        fold_expr(exprs, e);
        e
    }

    /// The unique `&array` root among the symbolic terms, if exactly one
    /// term is an `AddrOf` with multiplier 1 (other terms may be loop
    /// bounds or outer-loop offsets). Addresses rooted in *different*
    /// named arrays can never collide.
    pub fn array_root(&self, exprs: &ExprPool) -> Option<VarId> {
        let mut roots = self.terms.iter().filter_map(|&(e, m)| match exprs[e] {
            Expr::AddrOf(v) if m == 1 => Some(v),
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
            .any(|&(e, m)| matches!(exprs[e], Expr::AddrOf(_)) && m != 1);
        (!weird).then_some(first)
    }
}

/// Decomposes `e` as an affine function of `lv`, with everything else
/// required to be invariant in `body`. Returns `None` for non-affine
/// addresses (the reference is then unanalyzable and pessimized).
pub fn decompose(proc: &Procedure, body: &[StmtId], lv: VarId, e: ExprId) -> Option<Affine> {
    let exprs = &proc.exprs;
    match exprs[e] {
        Expr::IntConst(v) => Some(Affine::new(Vec::new(), 0, v)),
        Expr::Var(v) if v == lv => Some(Affine::new(Vec::new(), 1, 0)),
        Expr::Binary {
            op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul),
            lhs,
            rhs,
            ..
        } => {
            let a = decompose(proc, body, lv, lhs)?;
            let b = decompose(proc, body, lv, rhs)?;
            let constant = |f: &Affine| f.terms.is_empty() && f.coeff == 0;
            match op {
                BinOp::Add => Some(a.add(exprs, b)),
                BinOp::Sub => Some(a.add(exprs, b.scale(-1))),
                // one side of a product must be a pure constant
                _ if constant(&a) => Some(b.scale(a.offset)),
                _ if constant(&b) => Some(a.scale(b.offset)),
                _ => None,
            }
        }
        Expr::Unary {
            op: UnOp::Neg, arg, ..
        } => Some(decompose(proc, body, lv, arg)?.scale(-1)),
        // a cast that keeps the value (Int↔Ptr, widening a char) is looked
        // through; one that truncates or converts a float stays opaque
        Expr::Cast { to, from, arg }
            if !to.is_float() && !from.is_float() && to.size() >= from.size() =>
        {
            decompose(proc, body, lv, arg)
        }
        _ => invariant_term(proc, body, lv, e),
    }
}

fn invariant_term(proc: &Procedure, body: &[StmtId], lv: VarId, e: ExprId) -> Option<Affine> {
    if proc.exprs.any(e, |n| *n == Expr::Var(lv)) {
        return None;
    }
    invariant_in(proc, body, e).then(|| Affine::new(vec![(e, 1)], 0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::fold::{eval_binop, eval_cast, eval_unop, Value};
    use titanc_il::{ProcBuilder, Type};

    /// A procedure declaring `i`, `x[100]` and `p` (returned), then
    /// the ints `n` and `ks`, the float `y` and the global int `g`.
    fn setup() -> (Procedure, VarId, VarId, VarId) {
        let mut b = ProcBuilder::new("t", Type::Void);
        let lv = b.local("i", Type::Int);
        let arr = b.local("x", Type::array_of(Type::Float, 100));
        let p = b.param("p", Type::ptr_to(Type::Float));
        b.local("n", Type::Int);
        b.local("ks", Type::Int);
        b.local("y", Type::Float);
        b.global("g", Type::Int);
        (b.finish(), lv, arr, p)
    }

    fn named(proc: &Procedure, name: &str) -> VarId {
        VarId::from_index(proc.vars.iter().position(|v| v.name == name).unwrap())
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
        assert_eq!(a.terms[0].1, 2);
    }

    /// Bases compare by structure: equal trees in different slots agree,
    /// and a `-0.0f` constant is not `0.0f`.
    #[test]
    fn same_base_comparison() {
        let (mut proc, lv, arr, p) = setup();
        let y = named(&proc, "y");
        let mk = |proc: &mut Procedure, base: ExprId, off: i64| {
            let i = proc.exprs.var(lv);
            let four = proc.exprs.int(4);
            let mul = proc.exprs.ibinary(BinOp::Mul, i, four);
            let o = proc.exprs.int(off);
            let sum = proc.exprs.ibinary(BinOp::Add, mul, o);
            let e = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, base, sum);
            decompose(proc, &[], lv, e).unwrap()
        };
        // (y * z) / 2.0f, one term however it is decomposed
        let scaled = |proc: &mut Procedure, z: f64| {
            let (yv, zc) = (proc.exprs.var(y), proc.exprs.float(z));
            let mul = proc.exprs.binary(BinOp::Mul, ScalarType::Float, yv, zc);
            let two = proc.exprs.float(2.0);
            let div = proc.exprs.binary(BinOp::Div, ScalarType::Float, mul, two);
            let pv = proc.exprs.var(p);
            proc.exprs.binary(BinOp::Add, ScalarType::Ptr, pv, div)
        };
        let b1 = proc.exprs.addr_of(arr);
        let a1 = mk(&mut proc, b1, 0);
        let b2 = proc.exprs.addr_of(arr);
        let a2 = mk(&mut proc, b2, 4);
        let b3 = proc.exprs.var(p);
        let a3 = mk(&mut proc, b3, 0);
        assert!(a1.same_base(&a2, &proc.exprs));
        assert!(!a1.same(&a2, &proc.exprs));
        assert!(!a1.same_base(&a3, &proc.exprs));
        let b4 = proc.exprs.addr_of(arr);
        assert!(a1.same(&mk(&mut proc, b4, 0), &proc.exprs));
        let (z1, z2, z3) = (
            scaled(&mut proc, 0.0),
            scaled(&mut proc, 0.0),
            scaled(&mut proc, -0.0),
        );
        let t1 = mk(&mut proc, z1, 0);
        let t2 = mk(&mut proc, z2, 0);
        let t3 = mk(&mut proc, z3, 0);
        assert_ne!(t1.terms[1].0, t2.terms[1].0, "different slots");
        assert!(t1.same(&t2, &proc.exprs));
        assert!(!t1.same_base(&t3, &proc.exprs));
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
        // a truncating cast of the loop variable is not affine in it
        let i3 = proc.exprs.var(lv);
        let c = proc.exprs.cast(ScalarType::Char, ScalarType::Int, i3);
        assert!(decompose(&proc, &[], lv, c).is_none());
    }

    /// Casts that keep the value are looked through; `(char)n` and
    /// `(int)y` stay one opaque term each, so a bound built from the form
    /// keeps them.
    #[test]
    fn value_changing_casts_stay_opaque() {
        let (mut proc, lv, _arr, p) = setup();
        let (n, y) = (named(&proc, "n"), named(&proc, "y"));
        let e = &mut proc.exprs;
        let nv = e.var(n);
        let narrow = e.cast(ScalarType::Char, ScalarType::Int, nv);
        let widened = e.cast(ScalarType::Int, ScalarType::Char, narrow);
        let yv = e.var(y);
        let truncated = e.cast(ScalarType::Int, ScalarType::Float, yv);
        let pv = e.var(p);
        let as_int = e.cast(ScalarType::Int, ScalarType::Ptr, pv);
        let a = decompose(&proc, &[], lv, widened).unwrap();
        assert_eq!((a.terms.len(), a.terms[0].0), (1, narrow));
        let a = decompose(&proc, &[], lv, truncated).unwrap();
        assert_eq!((a.terms.len(), a.terms[0].0), (1, truncated));
        let a = decompose(&proc, &[], lv, as_int).unwrap();
        assert_eq!((a.terms.len(), a.terms[0].0), (1, pv));
    }

    /// Evaluates a load-free tree through `fold`, every variable read as
    /// `value(var)`.
    fn eval(exprs: &ExprPool, e: ExprId, value: &dyn Fn(VarId) -> i64) -> i64 {
        let v = |e| Value::Int(eval(exprs, e, value));
        match exprs[e] {
            Expr::IntConst(c) => c,
            Expr::Var(x) | Expr::AddrOf(x) => value(x),
            Expr::Binary { op, ty, lhs, rhs } => {
                eval_binop(op, ty, v(lhs), v(rhs)).unwrap().as_int()
            }
            Expr::Unary { op, ty, arg } => eval_unop(op, ty, v(arg)).as_int(),
            Expr::Cast { to, from, arg } => eval_cast(to, from, v(arg)).as_int(),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The address trees the loop passes built before `emit_at`: the
    /// terms, then `lo · coeff`, then the offset, and `origin ·
    /// (coeff·step)` added last.
    fn old_address(
        exprs: &mut ExprPool,
        a: &Affine,
        lo: ExprId,
        step: i64,
        origin: ExprId,
    ) -> ExprId {
        let mut acc = exprs.int(a.offset);
        for &(t, m) in &a.terms {
            let (t, m) = (exprs.copy(t), exprs.int(m));
            let scaled = exprs.ibinary(BinOp::Mul, t, m);
            acc = exprs.binary(BinOp::Add, ScalarType::Ptr, acc, scaled);
        }
        let (lo, c) = (exprs.copy(lo), exprs.int(a.coeff));
        let at_lo = exprs.ibinary(BinOp::Mul, lo, c);
        acc = exprs.binary(BinOp::Add, ScalarType::Ptr, acc, at_lo);
        let (k, d) = (exprs.copy(origin), exprs.int(a.coeff * step));
        let at_k = exprs.ibinary(BinOp::Mul, k, d);
        exprs.binary(BinOp::Add, ScalarType::Ptr, acc, at_k)
    }

    /// `p + (n - i)·4` at `lv = n` is `p`; a countdown's trip count does
    /// not divide; and every emitted tree — start addresses, strip
    /// addresses and trip counts over symbolic and opaque bounds — is
    /// worth what the trees built before the form was were, over the 32-bit
    /// edge values, and multiplies by no negative constant.
    #[test]
    fn emit_at_round_trips() {
        let (mut proc, lv, arr, p) = setup();
        let (n, ks, g) = (named(&proc, "n"), named(&proc, "ks"), named(&proc, "g"));
        let e = &mut proc.exprs;
        let (pv, nv, i) = (e.var(p), e.var(n), e.var(lv));
        let back = e.ibinary(BinOp::Sub, nv, i);
        let four = e.int(4);
        let scaled = e.ibinary(BinOp::Mul, back, four);
        let walk = e.binary(BinOp::Add, ScalarType::Ptr, pv, scaled);
        let (x, i, eight) = (e.addr_of(arr), e.var(lv), e.int(8));
        let sub = e.ibinary(BinOp::Add, i, eight);
        let mul = e.ibinary(BinOp::Mul, sub, four);
        let fwd = e.binary(BinOp::Add, ScalarType::Ptr, x, mul);
        let (n_lo, one) = (e.var(n), e.int(1));
        let n_minus_1 = e.ibinary(BinOp::Sub, n_lo, one);
        let (n2, gv, zero) = (e.var(n), e.var(g), e.int(0));
        let opaque = e.ibinary(BinOp::Add, n2, gv); // a global: not invariant
        let minus_3 = e.int(-3);
        let (origin, at_zero) = (e.var(ks), e.int(0));
        let walk_aff = decompose(&proc, &[], lv, walk).unwrap();
        let fwd_aff = decompose(&proc, &[], lv, fwd).unwrap();

        let head = |lo, hi, step| DoHeader { lv, lo, hi, step };
        let at_n = walk_aff.emit_at(&mut proc, &[], &head(n_lo, one, -1), None);
        assert!(
            proc.exprs.expr_eq(at_n, &proc.exprs, pv),
            "p + (n - i)·4 at i = n is p"
        );
        let trips = head(n_lo, one, -1).trips_expression(&mut proc, &[]);
        let div = |x: &Expr| matches!(x, Expr::Binary { op: BinOp::Div, .. });
        assert!(
            !proc.exprs.any(trips, div),
            "a countdown's trip count divides"
        );

        let edges = [0, 1, -1, i64::from(i32::MIN), i64::from(i32::MAX)];
        for aff in [&walk_aff, &fwd_aff] {
            for lo in [n_lo, n_minus_1, zero, minus_3, opaque] {
                for (step, k) in [(1, origin), (-1, origin), (2, at_zero), (-1, at_zero)] {
                    let new = aff.emit_at(&mut proc, &[], &head(lo, lo, step), Some(k));
                    let old = old_address(&mut proc.exprs, aff, lo, step, k);
                    for hi in [n_lo, one, opaque, minus_3] {
                        let new_trips = head(lo, hi, step).trips_expression(&mut proc, &[]);
                        let (h, l, st) = (
                            proc.exprs.copy(hi),
                            proc.exprs.copy(lo),
                            proc.exprs.int(step),
                        );
                        let diff = proc.exprs.ibinary(BinOp::Sub, h, l);
                        let span = proc.exprs.ibinary(BinOp::Add, diff, st);
                        let st = proc.exprs.int(step);
                        let quot = proc.exprs.ibinary(BinOp::Div, span, st);
                        let z = proc.exprs.int(0);
                        let old_trips = proc.exprs.ibinary(BinOp::Max, z, quot);
                        for e in [new, new_trips] {
                            let what = format!("lo {lo:?} hi {hi:?} step {step}");
                            let neg_mul = |x: &Expr| match *x {
                                Expr::Binary {
                                    op: BinOp::Mul,
                                    lhs,
                                    rhs,
                                    ..
                                } => [lhs, rhs]
                                    .iter()
                                    .any(|&c| proc.exprs.as_int(c).is_some_and(|c| c < 0)),
                                _ => false,
                            };
                            assert!(!proc.exprs.any(e, neg_mul), "negative multiplier: {what}");
                        }
                        for (pn, gk) in edges.iter().flat_map(|&a| edges.map(|b| (a, b))) {
                            let value = |v: VarId| if v == n || v == ks { gk } else { pn };
                            let what = format!("lo {lo:?} hi {hi:?} step {step} at {pn}, {gk}");
                            let (a, b) = (
                                eval(&proc.exprs, new, &value),
                                eval(&proc.exprs, old, &value),
                            );
                            assert_eq!(a as u32, b as u32, "address: {what}");
                            let (a, b) = (
                                eval(&proc.exprs, new_trips, &value),
                                eval(&proc.exprs, old_trips, &value),
                            );
                            assert_eq!(a, b, "trips: {what}");
                        }
                    }
                }
            }
        }
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
