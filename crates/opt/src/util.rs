//! Shared helpers for the scalar passes: loop-invariance, copy-chain
//! resolution, position-aware use replacement, and the one recogniser of
//! a loop's induction step — [`sole_def`] finds a variable's only
//! definition in a body and `step_of` matches it as `v = v ± c`, which
//! is what while→DO, induction-variable substitution, list spreading and
//! strength's hoisting all ask.

use titanc_il::{
    BinOp, Expr, ExprId, ExprPool, LValue, Procedure, Reject, StmtId, StmtKind, StmtPool, VarId,
};

/// True when some statement in `block` (recursively) defines `v`.
pub fn defined_in(pool: &StmtPool, block: &[StmtId], v: VarId) -> bool {
    block.iter().any(|&s| {
        pool[s].defined_var() == Some(v) || pool[s].blocks().iter().any(|b| defined_in(pool, b, v))
    })
}

/// True when `e` is invariant with respect to `body`: it reads no memory,
/// and every variable it reads is a register candidate with no definition
/// inside `body`.
pub fn invariant_in(proc: &Procedure, body: &[StmtId], e: ExprId) -> bool {
    let reads_memory = |n: &Expr| matches!(n, Expr::Load { .. } | Expr::Section { .. });
    if proc.exprs.any(e, reads_memory) {
        return false;
    }
    proc.exprs
        .vars_read(e)
        .iter()
        .all(|&v| proc.var(v).is_register_candidate() && !defined_in(&proc.stmts, body, v))
}

/// Resolves `w` backwards through top-level copies to an "origin" variable,
/// looking at statements `body[..pos]` in reverse: a copy `w = u` passes
/// the search to `u` provided neither `w` nor `u` is redefined in between.
/// Returns the origin (possibly `w` itself).
pub fn resolve_copy(proc: &Procedure, body: &[StmtId], pos: usize, w: VarId) -> VarId {
    if !proc.var(w).is_register_candidate() {
        return w;
    }
    let pool = &proc.stmts;
    let mut target = w;
    let mut limit = pos;
    // walk backwards looking for the most recent def of `target`
    'outer: loop {
        for i in (0..limit).rev() {
            let s = body[i];
            // a nested def anywhere kills resolution (conditional def)
            if pool[s].blocks().iter().any(|b| defined_in(pool, b, target)) {
                return target;
            }
            if pool[s].defined_var() == Some(target) {
                if let StmtKind::Assign { rhs, .. } = &pool[s] {
                    if let Expr::Var(u) = proc.exprs[*rhs] {
                        if u != target && proc.var(u).is_register_candidate() {
                            // ensure u not redefined between i+1..pos
                            let redefined = body[i + 1..pos].iter().any(|&t| {
                                pool[t].defined_var() == Some(u)
                                    || pool[t].blocks().iter().any(|b| defined_in(pool, b, u))
                            });
                            if !redefined {
                                target = u;
                                limit = i;
                                continue 'outer;
                            }
                        }
                    }
                }
                return target;
            }
        }
        return target;
    }
}

/// The position in `body` of `v`'s only definition, which must be a
/// top-level statement: [`Reject::NoStep`] when nothing defines `v`,
/// [`Reject::MultipleSteps`] for a second definition or a nested
/// (conditional) one.
pub fn sole_def(pool: &StmtPool, body: &[StmtId], v: VarId) -> Result<usize, Reject> {
    let nested = |s: &StmtId| pool[*s].blocks().iter().any(|b| defined_in(pool, b, v));
    if body.iter().any(nested) {
        return Err(Reject::MultipleSteps);
    }
    let mut defs = (0..body.len()).filter(|&i| pool[body[i]].defined_var() == Some(v));
    match (defs.next(), defs.next()) {
        (None, _) => Err(Reject::NoStep),
        (Some(pos), None) => Ok(pos),
        (Some(_), Some(_)) => Err(Reject::MultipleSteps),
    }
}

/// A variable's once-per-iteration step, found by [`step_of`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Step {
    /// The position of the step statement in the body.
    pub pos: usize,
    /// `v = o + c` or `v = c + o` (true), or `v = o - c` (false).
    pub positive: bool,
    /// The amount `c`: a subtree of the step statement.
    pub c: ExprId,
}

/// `v`'s [`sole_def`] matched as `v = o + c`, `v = c + o` or `v = o - c`,
/// where the origin `o` is `v` itself or a copy of it ([`resolve_copy`]).
/// Any other definition is [`Reject::NoStep`]. Whether `c` is invariant
/// is each caller's own rule.
pub(crate) fn step_of(proc: &Procedure, body: &[StmtId], v: VarId) -> Result<Step, Reject> {
    let pos = sole_def(&proc.stmts, body, v)?;
    let StmtKind::Assign {
        lhs: LValue::Var(_),
        rhs,
    } = proc.stmts[body[pos]]
    else {
        return Err(Reject::NoStep);
    };
    let Expr::Binary { op, lhs, rhs, .. } = proc.exprs[rhs] else {
        return Err(Reject::NoStep);
    };
    let is_v =
        |e: ExprId| matches!(proc.exprs[e], Expr::Var(w) if resolve_copy(proc, body, pos, w) == v);
    let (positive, c) = match op {
        BinOp::Add if is_v(lhs) => (true, rhs),
        BinOp::Add if is_v(rhs) => (true, lhs),
        BinOp::Sub if is_v(lhs) => (false, rhs),
        _ => return Err(Reject::NoStep),
    };
    Ok(Step { pos, positive, c })
}

/// Replaces every read of `v` in the statement tree at `s` (including
/// nested blocks) with a deep copy of the subtree at `replacement`;
/// returns replacements made.
pub fn replace_reads(
    stmts: &StmtPool,
    exprs: &mut ExprPool,
    s: StmtId,
    v: VarId,
    replacement: ExprId,
) -> usize {
    replace_reads_with(stmts, exprs, s, &|w| (w == v).then_some(replacement))
}

/// [`replace_reads`] for several variables at once: every read of a
/// variable `replacement_of` maps is replaced, in one walk of the tree
/// ([`ExprPool::substitute_vars`]).
pub fn replace_reads_with(
    stmts: &StmtPool,
    exprs: &mut ExprPool,
    s: StmtId,
    replacement_of: &impl Fn(VarId) -> Option<ExprId>,
) -> usize {
    let mut n = 0;
    for e in stmts[s].exprs() {
        n += exprs.substitute_vars(e, replacement_of);
    }
    for b in stmts[s].blocks() {
        for &inner in b {
            n += replace_reads_with(stmts, exprs, inner, replacement_of);
        }
    }
    n
}

/// Counts reads of `v` in a statement tree.
pub fn count_reads(stmts: &StmtPool, exprs: &ExprPool, s: StmtId, v: VarId) -> usize {
    let mut n = 0;
    for e in stmts[s].exprs() {
        n += exprs.vars_read(e).iter().filter(|&&w| w == v).count();
    }
    for b in stmts[s].blocks() {
        for &inner in b {
            n += count_reads(stmts, exprs, inner, v);
        }
    }
    n
}

/// Counts reads of `v` across a block.
pub fn count_reads_block(stmts: &StmtPool, exprs: &ExprPool, block: &[StmtId], v: VarId) -> usize {
    block.iter().map(|&s| count_reads(stmts, exprs, s, v)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::{BinOp, LValue, ProcBuilder, Type};

    #[test]
    fn invariance_basic() {
        let mut b = ProcBuilder::new("t", Type::Void);
        let x = b.local("x", Type::Int);
        let y = b.local("y", Type::Int);
        let zero = b.int(0);
        b.assign_var(y, zero);
        let mut p = b.finish();
        // probe expressions allocated after the body exists
        let ex = p.exprs.var(x);
        let ey = p.exprs.var(y);
        let ax = p.exprs.var(x);
        let eload = p.exprs.load(ax, titanc_il::ScalarType::Int);
        let body = p.body.clone(); // contains def of y only
        assert!(invariant_in(&p, &body, ex));
        assert!(!invariant_in(&p, &body, ey));
        assert!(!invariant_in(&p, &body, eload));
    }

    #[test]
    fn resolve_through_single_copy() {
        // temp = i; i2 = temp - 1  — resolving temp at pos 1 yields i
        let mut b = ProcBuilder::new("t", Type::Void);
        let i = b.local("i", Type::Int);
        let temp = b.local("temp", Type::Int);
        let ei = b.var(i);
        b.assign_var(temp, ei);
        let et = b.var(temp);
        let one = b.int(1);
        let sub = b.ibinary(BinOp::Sub, et, one);
        b.assign_var(i, sub);
        let p = b.finish();
        assert_eq!(resolve_copy(&p, &p.body, 1, temp), i);
    }

    #[test]
    fn resolution_stops_at_interleaved_redefinition() {
        // temp = i; i = 0; use temp at pos 2 — the copy source i was
        // redefined between, so resolution must stop at temp.
        let mut b = ProcBuilder::new("t", Type::Void);
        let i = b.local("i", Type::Int);
        let temp = b.local("temp", Type::Int);
        let ei = b.var(i);
        b.assign_var(temp, ei);
        let zero = b.int(0);
        b.assign_var(i, zero);
        let et = b.var(temp);
        b.assign_var(i, et);
        let p = b.finish();
        assert_eq!(resolve_copy(&p, &p.body, 2, temp), temp);
    }

    #[test]
    fn replace_reads_descends_blocks() {
        let mut b = ProcBuilder::new("t", Type::Void);
        let x = b.local("x", Type::Int);
        let y = b.local("y", Type::Int);
        let body = {
            let mut lb = b.block();
            let ex = lb.var(x);
            lb.assign_var(y, ex);
            lb.stmts()
        };
        let cond = b.var(x);
        b.if_(cond, body, vec![]);
        let mut p = b.finish();
        let s = p.body[0];
        let three = p.exprs.int(3);
        let n = replace_reads(&p.stmts, &mut p.exprs, s, x, three);
        assert_eq!(n, 2, "cond + nested rhs");
    }

    #[test]
    fn count_reads_counts_duplicates() {
        let mut b = ProcBuilder::new("t", Type::Void);
        let x = b.local("x", Type::Int);
        let x1 = b.var(x);
        let x2 = b.var(x);
        let add = b.ibinary(BinOp::Add, x1, x2);
        b.assign_var(x, add);
        let p = b.finish();
        assert_eq!(count_reads_block(&p.stmts, &p.exprs, &p.body, x), 2);
    }

    /// A procedure with the int locals `v`, `t`, `u` and `c`, whose body
    /// `build` writes.
    fn body_of(build: impl FnOnce(&mut ProcBuilder, [VarId; 4])) -> (Procedure, [VarId; 4]) {
        let mut b = ProcBuilder::new("t", Type::Void);
        let vars = ["v", "t", "u", "c"].map(|n| b.local(n, Type::Int));
        build(&mut b, vars);
        (b.finish(), vars)
    }

    #[test]
    fn sole_def_rejects_none_two_and_nested() {
        let (p, [v, ..]) = body_of(|_, _| {});
        assert_eq!(sole_def(&p.stmts, &p.body, v), Err(Reject::NoStep));
        let (p, [v, ..]) = body_of(|b, [v, ..]| {
            for k in [1, 2] {
                let e = b.int(k);
                b.assign_var(v, e);
            }
        });
        assert_eq!(sole_def(&p.stmts, &p.body, v), Err(Reject::MultipleSteps));
        let (p, [v, _, _, c]) = body_of(|b, [v, _, _, c]| {
            let inner = {
                let mut lb = b.block();
                let one = lb.int(1);
                lb.assign_var(v, one);
                lb.stmts()
            };
            let cond = b.var(c);
            b.if_(cond, inner, vec![]);
        });
        assert_eq!(sole_def(&p.stmts, &p.body, v), Err(Reject::MultipleSteps));
        assert_eq!(sole_def(&p.stmts, &p.body, c), Err(Reject::NoStep));
    }

    #[test]
    fn step_of_needs_a_binary_assignment() {
        let (p, [v, ..]) = body_of(|b, [v, ..]| b.call(Some(LValue::Var(v)), "next", vec![]));
        assert_eq!(step_of(&p, &p.body, v), Err(Reject::NoStep));
        let (p, [v, ..]) = body_of(|b, [v, _, _, c]| {
            let e = b.var(c);
            b.assign_var(v, e);
        });
        assert_eq!(step_of(&p, &p.body, v), Err(Reject::NoStep));
    }

    #[test]
    fn step_of_reads_both_directions() {
        // v = 4 + v
        let (p, [v, ..]) = body_of(|b, [v, ..]| {
            let (four, ev) = (b.int(4), b.var(v));
            let sum = b.ibinary(BinOp::Add, four, ev);
            b.assign_var(v, sum);
        });
        let step = step_of(&p, &p.body, v).unwrap();
        assert_eq!((step.pos, step.positive), (0, true));
        assert_eq!(p.exprs.as_int(step.c), Some(4));
        // t = v; v = t - c: a negative step through the copy
        let (p, [v, _, _, c]) = body_of(|b, [v, t, _, c]| {
            let ev = b.var(v);
            b.assign_var(t, ev);
            let (et, ec) = (b.var(t), b.var(c));
            let diff = b.ibinary(BinOp::Sub, et, ec);
            b.assign_var(v, diff);
        });
        let step = step_of(&p, &p.body, v).unwrap();
        assert_eq!((step.pos, step.positive), (1, false));
        assert_eq!(p.exprs[step.c], Expr::Var(c));
    }

    #[test]
    fn step_of_stops_at_a_redefined_copy_source() {
        // u = v; t = u; [u = 0;] v = t + 1 — with `u = 0` the copy `t = u`
        // no longer carries v, so there is no step
        let build = |redefine: bool| {
            body_of(move |b, [v, t, u, _]| {
                let ev = b.var(v);
                b.assign_var(u, ev);
                let eu = b.var(u);
                b.assign_var(t, eu);
                if redefine {
                    let zero = b.int(0);
                    b.assign_var(u, zero);
                }
                let (et, one) = (b.var(t), b.int(1));
                let sum = b.ibinary(BinOp::Add, et, one);
                b.assign_var(v, sum);
            })
        };
        let (p, [v, ..]) = build(false);
        assert!(step_of(&p, &p.body, v).is_ok_and(|s| s.positive));
        let (p, [v, ..]) = build(true);
        assert_eq!(step_of(&p, &p.body, v), Err(Reject::NoStep));
    }

    #[test]
    fn defined_in_sees_nested() {
        let mut b = ProcBuilder::new("t", Type::Void);
        let x = b.local("x", Type::Int);
        let inner = {
            let mut lb = b.block();
            let one = lb.int(1);
            lb.assign_var(x, one);
            lb.stmts()
        };
        let cond = b.int(1);
        b.while_(cond, inner);
        let p = b.finish();
        assert!(defined_in(&p.stmts, &p.body, x));
        let _ = LValue::Var(x);
    }
}
