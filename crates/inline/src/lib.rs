//! # titanc-inline — inline expansion (§7, §8)
//!
//! Procedure calls "disrupt both vectorization and register allocation"
//! (§2); the Titan compiler therefore inlines aggressively, including from
//! *catalogs* of pre-parsed library procedures (`titanc_il::Catalog`).
//! This crate implements:
//!
//! * **call-site expansion**: parameters bind to `in_*` temporaries, the
//!   callee body is spliced in with variables and labels renamed, and
//!   `return`s become branches to a landing label — reproducing the §9
//!   listing shape exactly;
//! * **static externalization** (§7): function-scoped `static` variables
//!   are promoted to program globals named `<proc>.<var>` so values stay
//!   correct "regardless of whether the procedure is called normally or
//!   through inlining";
//! * **recursion protection and bottom-up ordering** (§7): recursive
//!   procedures are never inlined, and call sites are expanded leaves-first
//!   so inlined functions may inline other functions;
//! * **catalog inlining**: procedures a serialized catalog linked into the
//!   program (`titanc_il::Catalog::link_into`) expand like any other, the
//!   way the Titan compiler used its math-library databases.
//!
//! The §8 *special inlining optimizations* (constant propagation with
//! unreachable-code elimination, dead-code elimination) live in
//! `titanc-opt` and run after this pass; the promotion of array-row
//! parameter references into standard form falls out of binding parameters
//! to `in_*` temporaries plus forward substitution.
//!
//! Bodies cross procedure boundaries by *import*: every callee statement
//! is re-stamped into the caller's statement arena and every callee
//! expression tree is copied into the caller's expression arena
//! ([`titanc_il::ExprPool::import`]), so the spliced code obeys the
//! caller's single-ownership invariants.
//!
//! ## Example
//!
//! ```
//! use titanc_inline::inline_program;
//!
//! let mut prog = titanc_lower::compile_to_il(
//!     "int square(int x) { return x * x; }\n\
//!      int main(void) { return square(6) + square(7); }",
//! ).unwrap();
//! let report = inline_program(&mut prog);
//! assert_eq!(report.inline.len(), 2, "both sites expanded");
//! let main = prog.proc_by_name("main").unwrap();
//! let mut calls = 0;
//! main.for_each_stmt(&mut |_, kind| {
//!     if matches!(kind, titanc_il::StmtKind::Call { .. }) { calls += 1; }
//! });
//! assert_eq!(calls, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use titanc_analysis::CallGraph;
use titanc_il::visit::{edit_tree, rewrite_expr, Order};
use titanc_il::{
    block_len, Block, Count, Expr, ExprId, InlineEvent, InlineOutcome, LValue, LabelId, Procedure,
    Program, Report, StmtId, StmtKind, Storage, VarId, VarInfo,
};

/// Maximum rounds of expansion. In a round each caller walks its body
/// once, visiting a spliced body's calls right after it, and makes at most
/// as many expansions as it held call sites when the round started; calls
/// the expansions bring in beyond that wait for the next round.
pub const MAX_DEPTH: u32 = 4;

/// Callees larger than this many statements are skipped.
pub const MAX_CALLEE_SIZE: usize = 400;

/// Per-caller IL growth budget: once a caller has grown past `MAX_GROWTH ×`
/// its own pre-inlining statement count (plus [`GROWTH_SLACK`] for tiny
/// callers), further sites in that caller are skipped, each with an
/// [`InlineOutcome::SkippedGrowth`] event. The budget is deliberately local to
/// each caller — an edit to one procedure can then never flip an inline
/// decision inside an unrelated one, which is what lets the incremental
/// cache key each procedure on its inline dependency cone alone.
pub const MAX_GROWTH: usize = 8;

/// Absolute statements every caller may grow by on top of its
/// [`MAX_GROWTH`] budget, so tiny callers still get their first expansions.
pub const GROWTH_SLACK: usize = 256;

/// Expands eligible call sites throughout the program.
///
/// Each call site is decided once. A skip is final: a caller and its
/// callees only grow while inlining runs, and expanding a non-recursive
/// callee breaks no call-graph cycle. So statement ids stay put until
/// every round is done — each caller that expanded anything is restamped
/// once, at the end — and a site skipped in one round is passed over in
/// the next.
///
/// The report counts the `static` variables externalized and holds one
/// decision per call site expanded or skipped, in decision order, anchored
/// to the call's source span. Every decision is final, so no site appears
/// twice; two sites that share a span (two calls in one expression
/// statement) are two events.
pub fn inline_program(prog: &mut Program) -> Report {
    let mut report = Report::default();
    report.add(Count::InlineStaticsExternalized, externalize_statics(prog));
    // per-caller growth budgets, fixed from each caller's pre-inlining
    // statement count (see `MAX_GROWTH`)
    let limits: Vec<usize> = prog
        .procs
        .iter()
        .map(|p| {
            p.len()
                .saturating_mul(MAX_GROWTH)
                .saturating_add(GROWTH_SLACK)
        })
        .collect();
    // the sites each caller keeps as calls, decided in an earlier visit
    let mut kept: Vec<HashSet<StmtId>> = vec![HashSet::new(); prog.procs.len()];
    let mut grew = vec![false; prog.procs.len()];
    for _round in 0..MAX_DEPTH {
        let cg = CallGraph::build(prog);
        let mut any = false;
        for ci in 0..prog.procs.len() {
            // the caller stays in place; its callees are every other
            // procedure
            let (before, rest) = prog.procs.split_at_mut(ci);
            let (caller, after) = rest.split_first_mut().expect("ci is in range");
            let globals = &mut prog.globals;
            let kept = &mut kept[ci];
            let limit = limits[ci];
            let mut len = caller.len();
            let mut budget = cg.calls[ci].len();
            edit_tree(caller, Order::Post, &mut |caller, block, i| {
                let site = block[i];
                let StmtKind::Call { dst, callee, args } = &caller.stmts[site] else {
                    return i + 1;
                };
                if budget == 0 || kept.contains(&site) {
                    return i + 1;
                }
                let (dst, args) = (*dst, args.clone());
                let event = |outcome| InlineEvent {
                    caller: caller.name.clone(),
                    callee: callee.clone(),
                    span: caller.stmts.span(site),
                    outcome,
                };
                let target = before
                    .iter()
                    .chain(after.iter())
                    .find(|p| p.name == *callee);
                let skip = if *callee == caller.name || cg.is_recursive(callee) {
                    Some(event(InlineOutcome::SkippedRecursive))
                } else {
                    match target {
                        Some(c) if c.len() > MAX_CALLEE_SIZE => {
                            Some(event(InlineOutcome::SkippedSize {
                                callee_len: c.len(),
                                cap: MAX_CALLEE_SIZE,
                            }))
                        }
                        Some(c) if len.saturating_add(c.len()) > limit => {
                            Some(event(InlineOutcome::SkippedGrowth {
                                caller_len: len,
                                budget: limit,
                            }))
                        }
                        Some(c) if args.len() == c.params.len() => {
                            let expanded = event(InlineOutcome::Expanded);
                            let body = expand(caller, dst, &args, c, globals);
                            len += block_len(&caller.stmts, &body) - 1;
                            block.splice(i..=i, body);
                            report.inline.push(expanded);
                            budget -= 1;
                            any = true;
                            grew[ci] = true;
                            // the expansion's own calls are the next sites
                            return i;
                        }
                        // an intrinsic, an external, or a mismatched call
                        _ => None,
                    }
                };
                report.inline.extend(skip);
                kept.insert(site);
                i + 1
            });
        }
        if !any {
            break;
        }
    }
    for (p, grew) in prog.procs.iter_mut().zip(grew) {
        if grew {
            p.restamp();
        }
    }
    report
}

/// Moves every function-scoped `static` to a program global named
/// `<proc>.<var>` (§7). Returns how many were externalized.
pub fn externalize_statics(prog: &mut Program) -> usize {
    let mut count = 0;
    for pi in 0..prog.procs.len() {
        let pname = prog.procs[pi].name.clone();
        let statics: Vec<VarId> = prog.procs[pi]
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.storage == Storage::Static)
            .map(|(i, _)| VarId::from_index(i))
            .collect();
        let had_statics = !statics.is_empty();
        for v in statics {
            let info = prog.procs[pi].var(v).clone();
            let global_name = format!("{pname}.{}", info.name);
            prog.ensure_global(VarInfo {
                name: global_name.clone(),
                storage: Storage::Global,
                addressed: true,
                ..info
            });
            let entry = prog.procs[pi].var_mut(v);
            entry.name = global_name;
            entry.storage = Storage::Global;
            entry.init = None; // initializer now lives on the global
            count += 1;
        }
        if had_statics {
            prog.procs[pi].bump_generation();
        }
    }
    count
}

/// How a callee's names land in one caller at one site.
struct Renaming {
    /// The caller variable of each callee variable, by callee index.
    vars: Vec<VarId>,
    /// The caller label of callee label 0; the rest follow in order.
    labels: u32,
    /// The landing label every `return` branches to.
    end: LabelId,
    /// The temporary a value-returning `return` assigns.
    ret: Option<VarId>,
}

/// The statements that replace the call `dst = callee(args)` in `caller`:
/// the parameter bindings, the renamed body, the landing label and the
/// read of the return value.
fn expand(
    caller: &mut Procedure,
    dst: Option<LValue>,
    args: &[ExprId],
    callee: &Procedure,
    globals: &mut Vec<VarInfo>,
) -> Block {
    // 1. map callee variables into the caller
    let vars = callee
        .vars
        .iter()
        .map(|info| match info.storage {
            Storage::Param => caller.add_var(VarInfo {
                name: format!("in_{}", info.name),
                ty: info.ty.clone(),
                storage: Storage::Temp,
                volatile: info.volatile,
                addressed: info.addressed,
                init: None,
            }),
            Storage::Global => {
                // share the caller's import of the same global (or add one)
                match caller
                    .vars
                    .iter()
                    .position(|v| v.storage == Storage::Global && v.name == info.name)
                {
                    Some(idx) => VarId::from_index(idx),
                    None => {
                        if !globals.iter().any(|g| g.name == info.name) {
                            globals.push(info.clone());
                        }
                        caller.add_var(info.clone())
                    }
                }
            }
            Storage::Static => unreachable!("statics were externalized"),
            _ => caller.add_var(VarInfo {
                name: format!("in_{}_{}", callee.name, info.name),
                ty: info.ty.clone(),
                storage: info.storage.clone(),
                volatile: info.volatile,
                addressed: info.addressed,
                init: None,
            }),
        })
        .collect();

    // 2. map labels: the callee's, then the landing label
    let labels = caller.num_labels;
    caller.num_labels += callee.num_labels;
    let end = caller.fresh_label();

    // return-value temp
    let ret = callee.ret.scalar().filter(|_| dst.is_some()).map(|_| {
        caller.add_var(VarInfo {
            name: format!("ret_{}", callee.name),
            ty: callee.ret.clone(),
            storage: Storage::Temp,
            volatile: false,
            addressed: false,
            init: None,
        })
    });
    let names = Renaming {
        vars,
        labels,
        end,
        ret,
    };

    // 3. parameter bindings: the argument exprs move from the (garbage)
    // call statement into the bindings, each used exactly once
    let mut replacement: Block = callee
        .params
        .iter()
        .zip(args)
        .map(|(&pv, &arg)| {
            caller.stamp(StmtKind::Assign {
                lhs: LValue::Var(names.vars[pv.index()]),
                rhs: arg,
            })
        })
        .collect();

    // 4. the body, imported and renamed, then the landing label
    replacement.extend(import_block(caller, callee, &callee.body, &names));
    replacement.push(caller.stamp(StmtKind::Label(end)));
    if let (Some(d), Some(rt)) = (dst, ret) {
        let rt_read = caller.exprs.var(rt);
        replacement.push(caller.stamp(StmtKind::Assign {
            lhs: d,
            rhs: rt_read,
        }));
    }
    replacement
}

/// Copies one callee block into the caller's arenas: each statement is
/// stamped anew with its span, each expression tree deep-copied across
/// pools with the callee's variables renamed, labels move to the caller's,
/// and `return E` becomes `[ret = E;] goto end`.
fn import_block(
    caller: &mut Procedure,
    callee: &Procedure,
    block: &[StmtId],
    names: &Renaming,
) -> Block {
    let rename = |v: &mut VarId| *v = names.vars[v.index()];
    let relabel = |l: &mut LabelId| l.0 += names.labels;
    let mut out = Block::with_capacity(block.len());
    for &s in block {
        let mut kind = callee.stmts[s].clone();
        for b in kind.blocks_mut() {
            *b = import_block(caller, callee, b, names);
        }
        // every expression root, memory-target addresses included
        for e in kind.expr_slots_mut() {
            *e = caller.exprs.import(&callee.exprs, *e);
            rewrite_expr(&mut caller.exprs, *e, &mut |pool, id| {
                if let Expr::Var(v) | Expr::AddrOf(v) = &mut pool[id] {
                    rename(v);
                }
            });
        }
        match &mut kind {
            StmtKind::Assign {
                lhs: LValue::Var(v),
                ..
            }
            | StmtKind::Call {
                dst: Some(LValue::Var(v)),
                ..
            }
            | StmtKind::DoLoop { var: v, .. }
            | StmtKind::DoParallel { var: v, .. } => rename(v),
            StmtKind::Label(l) | StmtKind::Goto(l) | StmtKind::IfGoto { target: l, .. } => {
                relabel(l)
            }
            StmtKind::Return(v) => {
                if let (Some(rt), Some(e)) = (names.ret, v.take()) {
                    out.push(caller.stamp(StmtKind::Assign {
                        lhs: LValue::Var(rt),
                        rhs: e,
                    }));
                }
                out.push(caller.stamp(StmtKind::Goto(names.end)));
                continue;
            }
            _ => {}
        }
        out.push(caller.stamp_at(kind, callee.stmts.span(s)));
    }
    out
}

#[cfg(test)]
mod tests;
