//! The dead-code elimination `dce.rs` replaced, kept as the *test
//! reference* it is diffed against: every round — the confirming one
//! included — rebuilds the CFG and liveness, and the faint-variable
//! closure runs over hash sets and per-statement vectors. It is compiled
//! only into tests, through `#[path]` —
//! `crates/opt/tests/reference_differential.rs` and
//! `crates/bench/tests/scalar_differential.rs` — and depends on nothing
//! but `titanc_il` and `titanc_analysis`.

use titanc_analysis::{Liveness, ProcAnalyses};
use titanc_il::visit::edit_blocks;
use titanc_il::{Expr, LValue, Procedure, StmtId, StmtKind, Storage, VarId};

const MAX_ROUNDS: usize = 32;

/// The fields of `DceReport`.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    pub removed: usize,
    pub rounds: usize,
    pub budget_exhausted: bool,
}

fn register_candidate(proc: &Procedure, v: VarId) -> bool {
    let info = proc.var(v);
    info.ty.scalar().is_some()
        && !info.addressed
        && !info.volatile
        && matches!(info.storage, Storage::Auto | Storage::Param | Storage::Temp)
}

/// Runs the reference elimination to a fixpoint.
pub fn eliminate_dead_code(proc: &mut Procedure) -> Report {
    let analyses = &mut ProcAnalyses::new();
    let mut report = Report::default();
    loop {
        report.rounds += 1;
        let mut removed = 0;

        // liveness-driven dead stores
        let live = analyses.liveness(proc);
        kill_dead_stores(&live, proc, &mut removed);

        // faint variables: dead self-feeding counters (`waste = waste+1`)
        removed += eliminate_faint(proc);

        // structural cleanups
        removed += sweep(proc);

        report.removed += removed;
        if removed > 0 {
            proc.bump_generation();
            analyses.invalidate();
        }
        if removed == 0 {
            break;
        }
        if report.rounds >= MAX_ROUNDS {
            report.budget_exhausted = true;
            break;
        }
    }
    report
}

fn kill_dead_stores(live: &Liveness, proc: &mut Procedure, removed: &mut usize) {
    // decide first (shared walk), rewrite after: slot rewrites to Nop
    let mut dead: Vec<StmtId> = Vec::new();
    proc.for_each_stmt(&mut |s, kind| {
        if let StmtKind::Assign {
            lhs: LValue::Var(v),
            rhs,
        } = kind
        {
            if !proc.exprs.any(*rhs, Expr::is_volatile_load) && !live.live_after(s, *v) {
                dead.push(s);
            }
        }
    });
    for s in dead {
        proc.stmts[s] = StmtKind::Nop;
        *removed += 1;
    }
}

/// Faint-variable elimination: a register candidate is *needed* when some
/// statement other than an assignment to a (transitively) unneeded
/// candidate reads it. Assignments to unneeded candidates are removed —
/// this kills self-sustaining dead counters (`waste = waste + 1`) that
/// flow-sensitive liveness cannot, which matters after inlining and
/// induction-variable substitution leave orphaned updates behind.
fn eliminate_faint(proc: &mut Procedure) -> usize {
    use std::collections::HashSet;

    // contributes[v] = vars read by assignments defining v
    let mut contributes: Vec<(VarId, Vec<VarId>)> = Vec::new();
    let mut needed: HashSet<VarId> = HashSet::new();
    proc.for_each_stmt(&mut |_, kind| match kind {
        StmtKind::Assign {
            lhs: LValue::Var(v),
            rhs,
        } if register_candidate(proc, *v) && !proc.exprs.any(*rhs, Expr::is_volatile_load) => {
            contributes.push((*v, proc.exprs.vars_read(*rhs)));
        }
        StmtKind::DoLoop { var, .. } | StmtKind::DoParallel { var, .. } => {
            // the loop's own counter drives iteration
            needed.insert(*var);
            for e in kind.exprs() {
                needed.extend(proc.exprs.vars_read(e));
            }
        }
        _ => {
            for e in kind.exprs() {
                needed.extend(proc.exprs.vars_read(e));
            }
            if let StmtKind::Call {
                dst: Some(LValue::Var(v)),
                ..
            } = kind
            {
                // a call result must stay receivable
                needed.insert(*v);
            }
        }
    });
    // close over contributions
    let mut changed = true;
    while changed {
        changed = false;
        for (v, reads) in &contributes {
            if needed.contains(v) {
                for r in reads {
                    if needed.insert(*r) {
                        changed = true;
                    }
                }
            }
        }
    }
    // remove assignments to unneeded candidates
    let mut dead: Vec<StmtId> = Vec::new();
    proc.for_each_stmt(&mut |s, kind| {
        if let StmtKind::Assign {
            lhs: LValue::Var(v),
            rhs,
        } = kind
        {
            if register_candidate(proc, *v)
                && !needed.contains(v)
                && !proc.exprs.any(*rhs, Expr::is_volatile_load)
            {
                dead.push(s);
            }
        }
    });
    let removed = dead.len();
    for s in dead {
        proc.stmts[s] = StmtKind::Nop;
    }
    removed
}

/// Structural cleanups: `Nop` sweep, unreferenced labels, `If`s whose
/// branches are empty, DO loops with empty bodies and pure bounds.
/// Returns the number of statements removed.
fn sweep(proc: &mut Procedure) -> usize {
    // collect referenced labels
    let mut referenced = vec![false; proc.num_labels as usize];
    proc.for_each_stmt(&mut |_, kind| match kind {
        StmtKind::Goto(l) | StmtKind::IfGoto { target: l, .. } => {
            // verified IL keeps labels below `num_labels`; stay total anyway
            if l.index() >= referenced.len() {
                referenced.resize(l.index() + 1, false);
            }
            referenced[l.index()] = true;
        }
        _ => {}
    });
    let mut removed = 0;
    edit_blocks(proc, &mut |proc, block| {
        for &s in block.iter() {
            let kill = match &proc.stmts[s] {
                StmtKind::Label(l) => !referenced.get(l.index()).copied().unwrap_or(false),
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    then_blk.is_empty()
                        && else_blk.is_empty()
                        && !proc.exprs.any(*cond, Expr::is_volatile_load)
                }
                StmtKind::DoLoop {
                    body, lo, hi, step, ..
                } => {
                    body.is_empty()
                        && !proc.exprs.any(*lo, Expr::is_volatile_load)
                        && !proc.exprs.any(*hi, Expr::is_volatile_load)
                        && !proc.exprs.any(*step, Expr::is_volatile_load)
                }
                _ => false,
            };
            if kill {
                proc.stmts[s] = StmtKind::Nop;
                removed += 1;
            }
        }
        // Nops already counted when created by this pass; count only the
        // pre-existing ones swept here.
        let before = block.len();
        block.retain(|&s| !matches!(proc.stmts[s], StmtKind::Nop));
        removed += before - block.len();
    });
    removed
}
