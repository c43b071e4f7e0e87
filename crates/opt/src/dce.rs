//! Dead-code elimination.
//!
//! Inlining makes dead code common where hand-written programs have none
//! (§8): parameter-binding temporaries, substituted induction variables,
//! and branches specialized away by constant propagation all leave dead
//! stores behind. This pass removes assignments to register candidates
//! whose values are never subsequently read (liveness-driven), sweeps
//! `Nop`s, unreferenced labels, and empty branches, and iterates to a
//! fixpoint.

use titanc_analysis::{Liveness, ProcAnalyses};
use titanc_il::visit::edit_blocks;
use titanc_il::{Count, Expr, LValue, Procedure, Report, StmtId, StmtKind, VarId, VarInfo};

/// Resource budget: maximum fixpoint rounds per procedure. Hitting the cap
/// is sound (every completed round leaves verified IL) but is reported so
/// the driver can emit a remark.
pub const MAX_ROUNDS: usize = 32;

/// Runs dead-code elimination to a fixpoint.
pub fn eliminate_dead_code(proc: &mut Procedure) -> Report {
    eliminate_dead_code_cached(proc, &mut ProcAnalyses::new())
}

/// Cache-aware dead-code elimination.
///
/// Liveness comes from the analysis cache, re-solved each round over
/// *one* CFG: everything a round removes — a dead store, an unreferenced
/// label, an `if` or DO loop left empty — is a node control only passes
/// through, so with the statement gone from the walk that collects uses
/// and definitions its node is transparent and the solution at every
/// surviving statement is the one a rebuilt graph would give
/// ([`ProcAnalyses::keep_cfg`]). That graph is no use to a later pass, so
/// an invocation that removed anything leaves the slot empty.
pub fn eliminate_dead_code_cached(proc: &mut Procedure, analyses: &mut ProcAnalyses) -> Report {
    let mut report = Report::default();
    loop {
        report.add(Count::DceRounds, 1);
        let mut removed = 0;

        // liveness-driven dead stores
        let live = analyses.liveness(proc);
        kill_dead_stores(&live, proc, &mut removed);

        // faint variables: dead self-feeding counters (`waste = waste+1`)
        removed += eliminate_faint(proc);

        // structural cleanups
        removed += sweep(proc);

        report.add(Count::DceRemoved, removed);
        if removed == 0 {
            break;
        }
        proc.bump_generation();
        analyses.keep_cfg(proc);
        if report.get(Count::DceRounds) >= MAX_ROUNDS {
            report.add(Count::DceBudgetHit, 1);
            break;
        }
    }
    if report.get(Count::DceRemoved) > 0 {
        analyses.invalidate();
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
    let candidate: Vec<bool> = proc
        .vars
        .iter()
        .map(VarInfo::is_register_candidate)
        .collect();
    // the candidate a removable assignment defines
    let removable = |kind: &StmtKind| match kind {
        StmtKind::Assign {
            lhs: LValue::Var(v),
            rhs,
        } if candidate[v.index()] && !proc.exprs.any(*rhs, Expr::is_volatile_load) => Some(*v),
        _ => None,
    };
    let mut contributes: Vec<(VarId, usize, usize)> = Vec::new();
    let mut reads: Vec<VarId> = Vec::new();
    let mut needed = vec![false; proc.vars.len()];
    proc.for_each_stmt(&mut |_, kind| {
        let from = reads.len();
        for e in kind.exprs() {
            proc.exprs.collect_vars_read(e, &mut reads);
        }
        if let Some(v) = removable(kind) {
            contributes.push((v, from, reads.len()));
            return;
        }
        // read by a statement that stays; a loop's own counter drives
        // iteration, and a call result must stay receivable
        for r in reads.drain(from..) {
            needed[r.index()] = true;
        }
        if let StmtKind::DoLoop { var: v, .. }
        | StmtKind::DoParallel { var: v, .. }
        | StmtKind::Call {
            dst: Some(LValue::Var(v)),
            ..
        } = kind
        {
            needed[v.index()] = true;
        }
    });
    // close over contributions
    let mut changed = true;
    while changed {
        changed = false;
        for &(v, from, to) in &contributes {
            if needed[v.index()] {
                for r in &reads[from..to] {
                    changed |= !std::mem::replace(&mut needed[r.index()], true);
                }
            }
        }
    }
    // remove assignments to unneeded candidates
    let mut dead: Vec<StmtId> = Vec::new();
    proc.for_each_stmt(&mut |s, kind| {
        if removable(kind).is_some_and(|v| !needed[v.index()]) {
            dead.push(s);
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
pub fn sweep(proc: &mut Procedure) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::pretty_proc;
    use titanc_lower::compile_to_il;

    fn dce(src: &str) -> Procedure {
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        eliminate_dead_code(&mut proc);
        proc
    }

    #[test]
    fn removes_dead_store() {
        let proc = dce("int f(void) { int x, y; x = 1; x = 2; y = x; return y; }");
        let text = pretty_proc(&proc);
        assert!(!text.contains("x = 1"), "{text}");
        assert!(text.contains("x = 2"), "{text}");
    }

    #[test]
    fn removes_transitively_dead_chains() {
        // u feeds only t, t feeds nothing: both die (needs two rounds)
        let proc = dce("int f(int a) { int t, u; u = a * 3; t = u + 1; return a; }");
        let text = pretty_proc(&proc);
        assert!(!text.contains("u ="), "{text}");
        assert!(!text.contains("t ="), "{text}");
    }

    #[test]
    fn keeps_volatile_reads() {
        let proc = dce("volatile int s; int f(void) { int t; t = s; return 0; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("volatile"), "volatile read survives: {text}");
    }

    #[test]
    fn keeps_memory_stores() {
        let proc = dce("void f(int *p) { *p = 3; }");
        assert_eq!(proc.body.len(), 1);
    }

    #[test]
    fn removes_unreferenced_labels() {
        // break lowers to goto+label; after simplification the label
        // remains referenced — build an unreferenced one via dead branch
        let src = "void f(int n) { while (n) { n--; } }";
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        // add an unreferenced label at the end
        let l = proc.fresh_label();
        proc.push(StmtKind::Label(l));
        eliminate_dead_code(&mut proc);
        let has_label = proc.any_stmt(|_, k| matches!(k, StmtKind::Label(_)));
        assert!(!has_label);
    }

    #[test]
    fn removes_empty_if() {
        let proc = dce("void f(int c) { int t; if (c) { t = 1; } }");
        assert!(proc.body.is_empty(), "{}", pretty_proc(&proc));
    }

    #[test]
    fn keeps_live_loop_updates() {
        let proc =
            dce("int f(int n) { int s; s = 0; while (n) { s = s + n; n = n - 1; } return s; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("s = (s + n)"), "{text}");
        assert!(text.contains("n = (n - 1)"), "{text}");
    }

    #[test]
    fn dead_loop_counter_removed_but_loop_kept_if_it_stores() {
        let src = r#"
void f(float *a, int n)
{
    int i, waste;
    waste = 0;
    for (i = 0; i < n; i++) {
        waste = waste + 1;
        a[i] = 0;
    }
}
"#;
        let proc = dce(src);
        let text = pretty_proc(&proc);
        assert!(!text.contains("waste"), "{text}");
        assert!(text.contains("while ("), "{text}");
    }

    #[test]
    fn equivalence_on_simulator() {
        let src = r#"
int out_g[1];
int main(void)
{
    int a, dead1, dead2;
    a = 5;
    dead1 = a * 100;
    dead2 = dead1 + 3;
    out_g[0] = a;
    return a + 1;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut opt = prog.clone();
        eliminate_dead_code(&mut opt.procs[0]);
        assert!(opt.procs[0].len() < prog.procs[0].len());
        let g = [("out_g", titanc_il::ScalarType::Int, 1)];
        let cfg = titanc_titan::MachineConfig::default;
        let (b, _) = titanc_titan::observe(&prog, cfg(), "main", &g).unwrap();
        let (a, _) = titanc_titan::observe(&opt, cfg(), "main", &g).unwrap();
        assert_eq!(b, a);
    }
}
