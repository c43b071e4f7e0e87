//! Constant propagation with unreachable-code elimination (§8).
//!
//! "Inlining tailors a procedure designed to handle many cases to a
//! specific invocation; as a result, large amounts of dead and unreachable
//! code result." The paper rejects IF-conversion, basic-block
//! reconstruction and Wegman–Zadeck in favour of a heuristic: propagate
//! constants off the use–def chains, simplify branches whose conditions
//! fold to constants, and — when a definition is eliminated as unreachable
//! — re-seed the propagation worklist from the statements that definition
//! reached. This module implements that heuristic as a round-based
//! fixpoint (a round is seeded by the definitions the last one made
//! constant; a structural simplification re-seeds with everything), the
//! §8 *postpass* for code trapped behind always-taken branches, and the
//! rejected "rebuild basic blocks" strategy as a measurable baseline.

use titanc_analysis::{Cfg, ProcAnalyses, UseDef};
use titanc_il::fold::{const_value, fold_expr, value_to_expr, Value};
use titanc_il::visit::{edit_blocks, edit_tree, Order};
use titanc_il::{
    Block, Count, Expr, LValue, Procedure, Report, ScalarType, StmtId, StmtKind, VarId,
};

/// Resource budget: maximum fixpoint rounds per procedure. Hitting the cap
/// is sound (each round leaves verified IL) but is reported so the driver
/// can emit a remark.
pub const MAX_ROUNDS: usize = 32;

/// Constant propagation with the §8 unreachable-code heuristic. The
/// report's replaced, removed and rounds counts are what EXP4 compares
/// across strategies.
pub fn constant_propagation(proc: &mut Procedure) -> Report {
    run(proc, true, &mut ProcAnalyses::new())
}

/// Constant propagation alone (no branch simplification) — one half of the
/// "rebuild basic blocks" baseline.
pub fn constant_propagation_no_unreachable(proc: &mut Procedure) -> Report {
    run(proc, false, &mut ProcAnalyses::new())
}

/// Cache-aware constant propagation.
///
/// Each propagation round asks the cache for use–def chains instead of
/// rebuilding them. Rounds that only *replace reads and fold expressions*
/// preserve the statement set, definition sites, and control-flow edges,
/// so the chains are repaired in place — when the round rewrote anything
/// (a fold alone included), the generation is bumped and the cache
/// rekeyed ([`ProcAnalyses::rekey`], the §5.2 discipline) — and the
/// next round is §8's re-seeding: it revisits only the statements reached
/// by the definitions the last round made constant. Rounds that
/// structurally simplify branches invalidate instead, and the round after
/// one sweeps the procedure over rebuilt chains, as the first does.
pub fn constant_propagation_cached(proc: &mut Procedure, analyses: &mut ProcAnalyses) -> Report {
    run(proc, true, analyses)
}

/// The literal each defining statement assigns, by `StmtId` index.
type ConstDefs = Vec<Option<(VarId, Value, ScalarType)>>;

fn run(proc: &mut Procedure, simplify_branches: bool, analyses: &mut ProcAnalyses) -> Report {
    let mut report = Report::default();
    let mut const_defs: ConstDefs = Vec::new();
    // the definitions the last round made constant, which seed this one;
    // `None` when the chains are new and the whole procedure is swept
    let mut seeds: Option<Vec<StmtId>> = None;
    loop {
        report.add(Count::ConstpropRounds, 1);

        // 1. propagate constants along use-def chains, 2. fold what that
        // rewrote (slot rewrite: ids in statements stay valid)
        let (replaced, folded, newly_const) =
            propagate_once(proc, analyses, seeds, &mut const_defs, &mut report);
        let mut changed = replaced;
        seeds = Some(newly_const);

        if replaced > 0 || folded {
            // pure expression rewrites: repair the chains instead of
            // invalidating them (§5.2) — the next round hits the cache
            proc.bump_generation();
            analyses.rekey(proc);
        }

        // 3. simplify constant branches (the unreachable-code elimination)
        if simplify_branches {
            let removed = simplify_constant_branches(proc);
            report.add(Count::ConstpropRemoved, removed);
            changed += removed;
            if removed > 0 {
                // structural edit: statements vanished, edges moved — a
                // read can now be constant without any new literal
                proc.bump_generation();
                analyses.invalidate();
                seeds = None;
            }
        }

        if changed == 0 {
            break;
        }
        if report.get(Count::ConstpropRounds) >= MAX_ROUNDS {
            report.add(Count::ConstpropBudgetHit, 1);
            break;
        }
    }
    report
}

/// The literal a statement assigns to a tracked scalar, if it does.
fn literal_def(proc: &Procedure, ud: &UseDef, s: StmtId) -> Option<(VarId, Value, ScalarType)> {
    match proc.stmts[s] {
        StmtKind::Assign {
            lhs: LValue::Var(v),
            rhs,
        } if ud.tracked(v) => Some((v, const_value(&proc.exprs[rhs])?, proc.var_scalar(v))),
        _ => None,
    }
}

/// One propagation round: replaces reads whose reaching definitions all
/// assign the same literal, then folds. Without `seeds` every statement
/// is examined and every root folded; with them only the statements they
/// reach and the roots rewritten — with the statement set and the chains
/// unchanged, a read becomes replaceable only when one of its reaching
/// definitions becomes a literal. Returns the (statement, variable) pairs
/// replaced, whether folding rewrote a node, and the definitions folding
/// made constant.
fn propagate_once(
    proc: &mut Procedure,
    analyses: &mut ProcAnalyses,
    seeds: Option<Vec<StmtId>>,
    const_defs: &mut ConstDefs,
    report: &mut Report,
) -> (usize, bool, Vec<StmtId>) {
    let ud = analyses.usedef(proc);
    let sweep = seeds.is_none();

    // the statements to examine
    let mut visit: Vec<StmtId> = Vec::new();
    match seeds {
        None => {
            proc.for_each_stmt(&mut |s, _| visit.push(s));
            const_defs.clear();
            const_defs.resize(proc.stmts.len(), None);
            for &s in &visit {
                const_defs[s.index()] = literal_def(proc, &ud, s);
            }
        }
        Some(defs) => {
            for d in defs {
                let (v, ..) = const_defs[d.index()].expect("a seed assigns a literal");
                visit.extend(ud.uses_of_def(d, v));
            }
            visit.sort_unstable();
            visit.dedup();
        }
    }
    let lookup = |def: StmtId, var: VarId| -> Option<(Value, ScalarType)> {
        match const_defs[def.index()] {
            Some((v, val, k)) if v == var => Some((val, k)),
            _ => None,
        }
    };

    // decide the replacement per (stmt, var), a statement's variables in
    // first-read order
    let mut plan: Vec<(StmtId, VarId, Value, ScalarType)> = Vec::new();
    let mut reads: Vec<VarId> = Vec::new();
    for &s in &visit {
        reads.clear();
        for e in proc.stmts[s].exprs() {
            proc.exprs.collect_vars_read(e, &mut reads);
        }
        for (i, &v) in reads.iter().enumerate() {
            if reads[..i].contains(&v) || !ud.tracked(v) {
                continue;
            }
            // every reaching def a statement (no entry def: that is a
            // parameter or uninitialized) assigning the first one's literal
            let mut first = None;
            let agree = ud.reaching_defs(s, v).all(|d| {
                d.and_then(|d| lookup(d, v))
                    .is_some_and(|c| c.0 == first.get_or_insert(c).0)
            });
            if let (true, Some((val, kind))) = (agree, first) {
                plan.push((s, v, val, kind));
            }
        }
    }
    for &(s, v, val, scalar) in &plan {
        let rep = proc.exprs.alloc(value_to_expr(val, scalar));
        for e in proc.stmts[s].exprs() {
            report.add(
                Count::ConstpropReplaced,
                proc.exprs.substitute_var(e, v, rep),
            );
        }
    }

    // fold what was rewritten (on a sweep, every root) and collect the
    // assignments that made literals
    let mut rewritten = if sweep {
        visit
    } else {
        plan.iter().map(|p| p.0).collect()
    };
    rewritten.dedup();
    let mut folded = false;
    rewritten.retain(|&s| {
        for e in proc.stmts[s].exprs() {
            folded |= fold_expr(&mut proc.exprs, e);
        }
        const_defs[s.index()].is_none() && {
            const_defs[s.index()] = literal_def(proc, &ud, s);
            const_defs[s.index()].is_some()
        }
    });
    (plan.len(), folded, rewritten)
}

/// Replaces branches with constant conditions by the taken path; removes
/// zero-trip loops. Returns statements eliminated.
fn simplify_constant_branches(proc: &mut Procedure) -> usize {
    let mut removed = 0usize;
    edit_tree(proc, Order::Post, &mut |proc, block, i| {
        simplify_stmt(proc, block, i, &mut removed)
    });
    // the quick §8 postpass
    removed + postpass(proc)
}

/// Simplifies `block[i]`, its nested blocks already done; returns the
/// index behind whatever replaced it.
fn simplify_stmt(proc: &mut Procedure, block: &mut Block, i: usize, removed: &mut usize) -> usize {
    let s = block[i];
    let replace: Option<Block> = match &proc.stmts[s] {
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => match const_value(&proc.exprs[*cond]) {
            Some(v) if !proc.exprs.any(*cond, Expr::is_volatile_load) => {
                let (taken, dead) = if v.is_truthy() {
                    (then_blk.clone(), else_blk)
                } else {
                    (else_blk.clone(), then_blk)
                };
                *removed += 1 + titanc_il::block_len(&proc.stmts, dead);
                Some(taken)
            }
            _ => None,
        },
        StmtKind::While { cond, body, .. } => match const_value(&proc.exprs[*cond]) {
            Some(v) if !v.is_truthy() && !proc.exprs.any(*cond, Expr::is_volatile_load) => {
                *removed += 1 + titanc_il::block_len(&proc.stmts, body);
                Some(Vec::new())
            }
            _ => None,
        },
        StmtKind::DoLoop {
            lo, hi, step, body, ..
        } => {
            let consts = (
                const_value(&proc.exprs[*lo]),
                const_value(&proc.exprs[*hi]),
                const_value(&proc.exprs[*step]),
            );
            match consts {
                (Some(l), Some(h), Some(st)) => {
                    let (l, h, st) = (l.as_int(), h.as_int(), st.as_int());
                    let zero_trip = st != 0 && ((st > 0 && l > h) || (st < 0 && l < h));
                    if zero_trip {
                        *removed += 1 + titanc_il::block_len(&proc.stmts, body);
                        Some(Vec::new())
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        StmtKind::IfGoto { cond, target } => match const_value(&proc.exprs[*cond]) {
            Some(v) if !proc.exprs.any(*cond, Expr::is_volatile_load) => {
                if v.is_truthy() {
                    let t = *target;
                    proc.stmts[s] = StmtKind::Goto(t);
                    None
                } else {
                    *removed += 1;
                    Some(Vec::new())
                }
            }
            _ => None,
        },
        _ => None,
    };
    match replace {
        Some(repl) => {
            let n = repl.len();
            block.splice(i..=i, repl);
            i + n
        }
        None => i + 1,
    }
}

/// The §8 postpass: statements that lexically follow an unconditional
/// `goto`/`return` up to the next label in the same block are unreachable.
/// "A quick heuristic … not as effective as reconstructing basic blocks",
/// but cheap. Returns statements removed.
pub fn unreachable_postpass(proc: &mut Procedure) -> usize {
    let removed = postpass(proc);
    if removed > 0 {
        proc.bump_generation();
    }
    removed
}

fn postpass(proc: &mut Procedure) -> usize {
    let mut removed = 0;
    edit_blocks(proc, &mut |proc, block| {
        let stmts = &proc.stmts;
        let mut i = 0;
        while i < block.len() {
            let is_jump = matches!(stmts[block[i]], StmtKind::Goto(_) | StmtKind::Return(_));
            if is_jump {
                let mut j = i + 1;
                while j < block.len() && !matches!(stmts[block[j]], StmtKind::Label(_)) {
                    j += 1;
                }
                if j > i + 1 {
                    removed += block[i + 1..j]
                        .iter()
                        .map(|&s| stmts.tree_len(s))
                        .sum::<usize>();
                    block.drain(i + 1..j);
                }
            }
            i += 1;
        }
    });
    removed
}

/// The rejected baseline: full CFG reachability ("rebuild basic blocks")
/// and removal of every unreachable statement. Returns statements removed.
pub fn eliminate_unreachable_cfg(proc: &mut Procedure) -> usize {
    let cfg = Cfg::build(proc);
    let dead_nodes = cfg.unreachable_nodes();
    let dead_ids: Vec<StmtId> = dead_nodes.iter().filter_map(|&n| cfg.stmt_of[n]).collect();
    if dead_ids.is_empty() {
        return 0;
    }
    let mut is_dead = vec![false; proc.stmts.len()];
    for s in dead_ids {
        is_dead[s.index()] = true;
    }
    let mut removed = 0;
    edit_blocks(proc, &mut |_, block| {
        let before = block.len();
        block.retain(|s| !is_dead[s.index()]);
        removed += before - block.len();
    });
    if removed > 0 {
        proc.bump_generation();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::pretty_proc;
    use titanc_lower::compile_to_il;

    fn cp(src: &str) -> (Procedure, Report) {
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        let rep = constant_propagation(&mut proc);
        (proc, rep)
    }

    #[test]
    fn propagates_simple_constant() {
        let (proc, rep) = cp("int f(void) { int x; x = 3; return x + 4; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("return 7;"), "{text}");
        assert!(rep.get(Count::ConstpropReplaced) >= 1);
    }

    #[test]
    fn does_not_merge_conflicting_defs() {
        let (proc, _rep) = cp("int f(int c) { int x; if (c) x = 1; else x = 2; return x; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("return x;"), "{text}");
    }

    #[test]
    fn merges_agreeing_defs() {
        let (proc, _rep) = cp("int f(int c) { int x; if (c) x = 7; else x = 7; return x; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("return 7;"), "{text}");
    }

    #[test]
    fn eliminates_false_branch() {
        let (proc, rep) = cp("int f(void) { int a; a = 0; if (a == 0) return 1; return 2; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("return 1;"), "{text}");
        assert!(!text.contains("return 2;"), "postpass removes it: {text}");
        assert!(rep.get(Count::ConstpropRemoved) >= 1);
    }

    #[test]
    fn daxpy_alpha_zero_unreachable() {
        // the §8 example: inlined daxpy with in_a == 0.0 — the FP
        // assignment is unreachable once constants propagate.
        let src = r#"
void f(float *x, float y, float z)
{
    float in_a;
    in_a = 0.0f;
    if (in_a == 0.0f)
        return;
    *x = y + in_a * z;
}
"#;
        let (proc, _rep) = cp(src);
        let text = pretty_proc(&proc);
        assert!(
            !text.contains("in_a *"),
            "floating assignment eliminated: {text}"
        );
    }

    #[test]
    fn removes_zero_trip_loop() {
        // pipeline order: while→DO conversion first (§5.2), then constant
        // propagation sees the constant bounds and removes the loop
        let prog = compile_to_il(
            "void f(float *a) { int i, n; n = 0; for (i = 0; i < n; i++) a[i] = 1; }",
        )
        .unwrap();
        let mut proc = prog.procs[0].clone();
        crate::whiledo::convert_while_loops(&mut proc);
        let rep = constant_propagation(&mut proc);
        let text = pretty_proc(&proc);
        assert!(!text.contains("do fortran"), "{text}");
        assert!(rep.get(Count::ConstpropRemoved) >= 1);
    }

    #[test]
    fn constant_propagates_through_rounds() {
        // needs two rounds: eliminating the branch exposes b's constancy
        let src = r#"
int f(void)
{
    int a, b;
    a = 1;
    if (a) b = 5; else b = 9;
    return b * 2;
}
"#;
        let (proc, rep) = cp(src);
        let text = pretty_proc(&proc);
        assert!(text.contains("return 10;"), "{text}");
        assert!(rep.get(Count::ConstpropRounds) >= 2);
    }

    #[test]
    fn volatile_conditions_never_fold() {
        let (proc, _rep) = cp("volatile int s; int f(void) { if (s == 0) return 1; return 2; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("if ("), "{text}");
    }

    #[test]
    fn postpass_removes_code_after_goto() {
        let src = r#"
int f(int a)
{
    goto end;
    a = a + 1;
    a = a + 2;
end:
    return a;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        let removed = unreachable_postpass(&mut proc);
        assert_eq!(removed, 2);
    }

    #[test]
    fn cfg_baseline_matches_postpass_on_simple_code() {
        let src = "int f(int a) { return 1; a = 2; a = 3; return a; }";
        let prog = compile_to_il(src).unwrap();
        let mut p1 = prog.procs[0].clone();
        let mut p2 = prog.procs[0].clone();
        let by_postpass = unreachable_postpass(&mut p1);
        let by_cfg = eliminate_unreachable_cfg(&mut p2);
        assert_eq!(by_postpass, 3);
        assert_eq!(by_cfg, 3);
    }

    #[test]
    fn cfg_baseline_catches_what_postpass_misses() {
        // unreachable code guarded by an if whose both arms jump away:
        // the postpass (straight-line) cannot see it, the CFG can.
        let src = r#"
int f(int c)
{
    if (c) goto a; else goto b;
    c = 99;
a:
    return 1;
b:
    return 2;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut p1 = prog.procs[0].clone();
        let mut p2 = prog.procs[0].clone();
        let by_postpass = unreachable_postpass(&mut p1);
        let by_cfg = eliminate_unreachable_cfg(&mut p2);
        assert_eq!(by_postpass, 0, "straight-line heuristic is blind here");
        assert!(by_cfg >= 1, "CFG reachability sees it");
    }

    #[test]
    fn equivalence_on_simulator() {
        let src = r#"
int out_g[1];
int main(void)
{
    int a, b, i;
    a = 4;
    b = 0;
    if (a > 2) b = a * 3;
    for (i = 0; i < a; i++) b = b + 1;
    out_g[0] = b;
    return b;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut opt = prog.clone();
        constant_propagation(&mut opt.procs[0]);
        let g = [("out_g", ScalarType::Int, 1)];
        let cfg = titanc_titan::MachineConfig::default;
        let (b, _) = titanc_titan::observe(&prog, cfg(), "main", &g).unwrap();
        let (a, _) = titanc_titan::observe(&opt, cfg(), "main", &g).unwrap();
        assert_eq!(b, a);
    }
}
