//! The whole-procedure-sweep constant propagation `constprop.rs` replaced,
//! kept as the *test reference* the re-seeded rounds are diffed against:
//! every round re-derives every statement's reads and reaching
//! definitions and folds every root. It is compiled only into tests,
//! through `#[path]` — `crates/opt/tests/reference_differential.rs` and
//! `crates/bench/tests/scalar_differential.rs` — and depends on nothing
//! but `titanc_il` and `titanc_analysis`, so a change to the pass's own
//! helpers cannot move it.

use titanc_analysis::ProcAnalyses;
use titanc_il::fold::{const_value, fold_expr, value_to_expr, Value};
use titanc_il::visit::{edit_blocks, edit_tree, Order};
use titanc_il::{Block, Expr, Procedure, ScalarType, StmtId, StmtKind};

const MAX_ROUNDS: usize = 32;

/// The fields of `ConstPropReport`.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    pub replaced: usize,
    pub removed: usize,
    pub rounds: usize,
    pub budget_exhausted: bool,
}

/// Runs the reference propagation with the §8 unreachable-code heuristic.
pub fn constant_propagation(proc: &mut Procedure) -> Report {
    run(proc, true, &mut ProcAnalyses::new())
}

fn run(proc: &mut Procedure, simplify_branches: bool, analyses: &mut ProcAnalyses) -> Report {
    let mut report = Report::default();
    loop {
        report.rounds += 1;
        let mut changed = 0usize;

        // 1. propagate constants along use-def chains
        let replaced = propagate_once(proc, analyses, &mut report);
        changed += replaced;

        // 2. fold everything (slot rewrite: ids in statements stay valid)
        let mut roots = Vec::new();
        titanc_il::visit::walk_block(&proc.stmts, &proc.body, &mut |_, kind| {
            roots.extend(kind.exprs())
        });
        let mut folded = false;
        for r in roots {
            folded |= fold_expr(&mut proc.exprs, r);
        }

        if replaced > 0 || folded {
            // pure expression rewrites: repair the chains instead of
            // invalidating them (§5.2) — the next round hits the cache
            proc.bump_generation();
            analyses.rekey(proc);
        }

        // 3. simplify constant branches (the unreachable-code elimination)
        if simplify_branches {
            let removed = simplify_constant_branches(proc);
            report.removed += removed;
            changed += removed;
            if removed > 0 {
                // structural edit: statements vanished, edges moved
                proc.bump_generation();
                analyses.invalidate();
            }
        }

        if changed == 0 {
            break;
        }
        if report.rounds >= MAX_ROUNDS {
            report.budget_exhausted = true;
            break;
        }
    }
    report
}

/// One propagation sweep: replaces reads whose reaching definitions all
/// assign the same literal.
fn propagate_once(proc: &mut Procedure, analyses: &mut ProcAnalyses, report: &mut Report) -> usize {
    let ud = analyses.usedef(proc);

    // the literal each defining statement assigns, by `StmtId` index
    let mut const_defs: Vec<Option<(titanc_il::VarId, Value, ScalarType)>> =
        vec![None; proc.stmts.len()];
    proc.for_each_stmt(&mut |s, kind| {
        if let StmtKind::Assign {
            lhs: titanc_il::LValue::Var(v),
            rhs,
        } = kind
        {
            if ud.tracked(*v) {
                if let Some(val) = const_value(&proc.exprs[*rhs]) {
                    const_defs[s.index()] = Some((*v, val, proc.var_scalar(*v)));
                }
            }
        }
    });
    let lookup = |def: StmtId, var: titanc_il::VarId| -> Option<(Value, ScalarType)> {
        match const_defs[def.index()] {
            Some((v, val, k)) if v == var => Some((val, k)),
            _ => None,
        }
    };

    // decide the replacement per (stmt, var)
    let mut plan: Vec<(StmtId, titanc_il::VarId, Value, ScalarType)> = Vec::new();
    let mut reads: Vec<titanc_il::VarId> = Vec::new();
    let mut vars: Vec<titanc_il::VarId> = Vec::new();
    proc.for_each_stmt(&mut |s, kind| {
        reads.clear();
        vars.clear();
        for e in kind.exprs() {
            proc.exprs.collect_vars_read(e, &mut reads);
        }
        for &v in &reads {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        for &v in &vars {
            if !ud.tracked(v) {
                continue;
            }
            let defs: Vec<Option<StmtId>> = ud.reaching_defs(s, v).collect();
            if defs.is_empty() || defs.iter().any(Option::is_none) {
                continue; // entry def (param/uninitialized) reaches
            }
            let consts: Option<Vec<(Value, ScalarType)>> =
                defs.iter().map(|d| lookup(d.unwrap(), v)).collect();
            if let Some(cs) = consts {
                let (first, kind) = cs[0];
                if cs.iter().all(|(c, _)| *c == first) {
                    plan.push((s, v, first, kind));
                }
            }
        }
    });

    let count = plan.len();
    if count == 0 {
        return 0;
    }
    for (s, v, val, scalar) in plan {
        let rep = proc.exprs.alloc(value_to_expr(val, scalar));
        for e in proc.stmts[s].exprs() {
            report.replaced += proc.exprs.substitute_var(e, v, rep);
        }
    }
    count
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

/// The §8 postpass.
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
