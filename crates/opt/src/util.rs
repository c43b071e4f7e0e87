//! Shared helpers for the scalar passes: loop-invariance, copy-chain
//! resolution, and position-aware use replacement.

use titanc_il::{Expr, ExprId, ExprPool, Procedure, StmtId, StmtKind, StmtPool, VarId};

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
