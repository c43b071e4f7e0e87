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
//! assert_eq!(report.events.len(), 2, "both sites expanded");
//! let main = prog.proc_by_name("main").unwrap();
//! let mut calls = 0;
//! main.for_each_stmt(&mut |_, kind| {
//!     if matches!(kind, titanc_il::StmtKind::Call { .. }) { calls += 1; }
//! });
//! assert_eq!(calls, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use titanc_analysis::CallGraph;
use titanc_il::{
    Block, Expr, ExprId, ExprPool, InlineEvent, InlineOutcome, LValue, LabelId, Procedure, Program,
    StmtId, StmtKind, Storage, VarId, VarInfo,
};

/// Maximum rounds of expansion. A round expands the call sites each
/// procedure holds when the round starts; calls an inlined body brings in
/// wait for the next one.
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

/// What the inliner did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InlineReport {
    /// `static` variables externalized.
    pub statics_externalized: usize,
    /// Per-call-site decisions (expanded / skipped with budget state),
    /// anchored to the call's source span and a stable per-caller site
    /// ordinal. A site the round loop revisits appears once per visit
    /// under the same ordinal; consumers dedupe by site identity —
    /// `(caller, callee, span, site)`.
    pub events: Vec<InlineEvent>,
}

impl InlineReport {
    /// Folds another report's counts into this one (used by the pass
    /// manager to aggregate per-pass deltas).
    pub fn merge(&mut self, other: InlineReport) {
        self.statics_externalized += other.statics_externalized;
        self.events.extend(other.events);
    }
}

titanc_il::struct_wire!(InlineReport, [statics_externalized, events]);

/// Expands eligible call sites throughout the program.
pub fn inline_program(prog: &mut Program) -> InlineReport {
    let mut report = InlineReport {
        statics_externalized: externalize_statics(prog),
        ..InlineReport::default()
    };
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
    // stable site identities: `ords[ci]` parallels the caller's current
    // `call_sites` list. A surviving site keeps its ordinal across rounds
    // and spliced-in bodies' sites take fresh ones, so event consumers
    // can tell two same-span sites apart while still collapsing the round
    // loop's revisits of one site.
    let mut ords: Vec<Option<Vec<u32>>> = vec![None; prog.procs.len()];
    let mut next_ord: Vec<u32> = vec![0; prog.procs.len()];
    for _round in 0..MAX_DEPTH {
        let mut any = false;
        let cg = CallGraph::build(prog);
        for ci in 0..prog.procs.len() {
            let caller_name = prog.procs[ci].name.clone();
            let growth_limit = limits[ci];
            // Statement ids change on every restamp, so sites are
            // re-collected after each successful expansion; sites that
            // cannot inline are remembered by position to guarantee
            // progress.
            let mut skip = 0usize;
            // one round expands only the call sites present at round
            // start — calls introduced by inlined bodies wait for the
            // next round (layer-by-layer, bounded by `MAX_DEPTH`)
            let mut budget = call_sites(&prog.procs[ci]).len();
            loop {
                if budget == 0 {
                    break;
                }
                let sites = call_sites(&prog.procs[ci]);
                let site_ords = ords[ci].get_or_insert_with(|| {
                    next_ord[ci] = sites.len() as u32;
                    (0..sites.len() as u32).collect()
                });
                debug_assert_eq!(site_ords.len(), sites.len());
                if site_ords.len() != sites.len() {
                    // defensive resync; identities restart but stay unique
                    *site_ords = (0..sites.len()).map(|k| next_ord[ci] + k as u32).collect();
                    next_ord[ci] += sites.len() as u32;
                }
                let caller_len = prog.procs[ci].len();
                let mut expanded = false;
                for (pos, &site) in sites.iter().enumerate().skip(skip) {
                    let callee_name = match callee_of(&prog.procs[ci], site) {
                        Some(n) => n,
                        None => {
                            skip += 1;
                            continue;
                        }
                    };
                    let site_span = prog.procs[ci].stmts.span(site);
                    let site_ord = site_ords[pos];
                    let event = |outcome: InlineOutcome| InlineEvent {
                        caller: caller_name.clone(),
                        callee: callee_name.clone(),
                        span: site_span,
                        site: site_ord,
                        outcome,
                    };
                    let inlinable =
                        if callee_name == caller_name || cg.is_recursive(prog, &callee_name) {
                            report.events.push(event(InlineOutcome::SkippedRecursive));
                            false
                        } else {
                            match prog.proc_by_name(&callee_name) {
                                None => false, // intrinsic / external
                                Some(c) if c.len() > MAX_CALLEE_SIZE => {
                                    let e = event(InlineOutcome::SkippedSize {
                                        callee_len: c.len(),
                                        cap: MAX_CALLEE_SIZE,
                                    });
                                    report.events.push(e);
                                    false
                                }
                                Some(c) if caller_len.saturating_add(c.len()) > growth_limit => {
                                    let e = event(InlineOutcome::SkippedGrowth {
                                        caller_len,
                                        budget: growth_limit,
                                    });
                                    report.events.push(e);
                                    false
                                }
                                Some(_) => true,
                            }
                        };
                    if !inlinable {
                        skip += 1;
                        continue;
                    }
                    let callee = prog.proc_by_name(&callee_name).unwrap().clone();
                    let mut caller = prog.procs[ci].clone();
                    if inline_site(&mut caller, site, &callee, prog) {
                        caller.restamp();
                        prog.procs[ci] = caller;
                        report.events.push(event(InlineOutcome::Expanded));
                        // the spliced body's call sites take over this
                        // position; give them fresh ordinals so their
                        // next-round decisions carry distinct identities
                        let new_count = call_sites(&prog.procs[ci]).len();
                        let spliced = (new_count + 1).saturating_sub(sites.len());
                        let fresh: Vec<u32> =
                            (0..spliced).map(|k| next_ord[ci] + k as u32).collect();
                        next_ord[ci] += spliced as u32;
                        site_ords.splice(pos..=pos, fresh);
                        any = true;
                        expanded = true;
                        budget -= 1;
                        // the inlined body's own calls belong to the next
                        // round (its call sites start after `skip` anyway,
                        // but ids moved — re-collect)
                        break;
                    }
                    skip += 1;
                }
                if !expanded {
                    break;
                }
            }
        }
        if !any {
            break;
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

fn call_sites(proc: &Procedure) -> Vec<StmtId> {
    let mut out = Vec::new();
    proc.for_each_stmt(&mut |s, kind| {
        if matches!(kind, StmtKind::Call { .. }) {
            out.push(s);
        }
    });
    out
}

fn callee_of(proc: &Procedure, site: StmtId) -> Option<String> {
    proc.find_stmt(site).and_then(|kind| match kind {
        StmtKind::Call { callee, .. } => Some(callee.clone()),
        _ => None,
    })
}

/// Copies one callee statement tree into the caller's arenas: nested
/// blocks are imported recursively and every expression slot is deep
/// copied across pools.
fn import_stmt(caller: &mut Procedure, callee: &Procedure, s: StmtId) -> StmtId {
    let span = callee.stmts.span(s);
    let mut kind = callee.stmts[s].clone();
    for b in kind.blocks_mut() {
        for id in b.iter_mut() {
            *id = import_stmt(caller, callee, *id);
        }
    }
    for e in kind.expr_slots_mut() {
        *e = caller.exprs.import(&callee.exprs, *e);
    }
    caller.stamp_at(kind, span)
}

/// Expands one call site. Returns false when the site no longer exists or
/// the argument count mismatches.
fn inline_site(
    caller: &mut Procedure,
    site: StmtId,
    callee: &Procedure,
    prog: &mut Program,
) -> bool {
    let (dst, args) = match caller.find_stmt(site) {
        Some(StmtKind::Call { dst, args, .. }) => (*dst, args.clone()),
        _ => return false,
    };
    if args.len() != callee.params.len() {
        return false;
    }

    // 1. map callee variables into the caller
    let mut var_map: HashMap<VarId, VarId> = HashMap::new();
    for (i, info) in callee.vars.iter().enumerate() {
        let old = VarId::from_index(i);
        let new = match info.storage {
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
                        if prog.global_by_name(&info.name).is_none() {
                            prog.ensure_global(info.clone());
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
        };
        var_map.insert(old, new);
    }

    // 2. map labels
    let mut label_map: HashMap<LabelId, LabelId> = HashMap::new();
    for l in 0..callee.num_labels {
        label_map.insert(LabelId(l), caller.fresh_label());
    }
    let end_label = caller.fresh_label();

    // return-value temp
    let ret_tmp = callee.ret.scalar().filter(|_| dst.is_some()).map(|_| {
        caller.add_var(VarInfo {
            name: format!("ret_{}", callee.name),
            ty: callee.ret.clone(),
            storage: Storage::Temp,
            volatile: false,
            addressed: false,
            init: None,
        })
    });

    // 3. parameter bindings: the argument exprs move from the (garbage)
    // call statement into the bindings, each used exactly once
    let mut replacement: Block = Vec::new();
    for (pi, &pv) in callee.params.iter().enumerate() {
        let s = caller.stamp(StmtKind::Assign {
            lhs: LValue::Var(var_map[&pv]),
            rhs: args[pi],
        });
        replacement.push(s);
    }

    // 4. import + rewrite the body
    let mut body: Block = callee
        .body
        .iter()
        .map(|&s| import_stmt(caller, callee, s))
        .collect();
    rewrite_block(caller, &mut body, &var_map, &label_map, end_label, ret_tmp);
    replacement.extend(body);
    let lbl = caller.stamp(StmtKind::Label(end_label));
    replacement.push(lbl);
    if let (Some(d), Some(rt)) = (dst, ret_tmp) {
        let rt_read = caller.exprs.var(rt);
        let s = caller.stamp(StmtKind::Assign {
            lhs: d,
            rhs: rt_read,
        });
        replacement.push(s);
    }

    // 5. splice
    splice(caller, site, replacement)
}

fn rewrite_block(
    caller: &mut Procedure,
    block: &mut Block,
    var_map: &HashMap<VarId, VarId>,
    label_map: &HashMap<LabelId, LabelId>,
    end_label: LabelId,
    ret_tmp: Option<VarId>,
) {
    let mut i = 0;
    while i < block.len() {
        let sid = block[i];
        let mut kind = std::mem::replace(&mut caller.stmts[sid], StmtKind::Nop);
        // rewrite nested blocks first
        for b in kind.blocks_mut() {
            rewrite_block(caller, b, var_map, label_map, end_label, ret_tmp);
        }
        // remap variables in expressions (covers memory-target address
        // expressions too, via the statement's expr roots)
        for e in kind.exprs() {
            remap_expr(&mut caller.exprs, e, var_map);
        }
        // remap assignment targets and labels. Plain variable targets only:
        // address expressions were already handled above, and a second pass
        // over one would re-map a caller id that collides with a callee id.
        let replacement_seq: Option<Block> = match &mut kind {
            StmtKind::Assign {
                lhs: LValue::Var(v),
                ..
            } => {
                if let Some(n) = var_map.get(v) {
                    *v = *n;
                }
                None
            }
            StmtKind::Call {
                dst: Some(LValue::Var(v)),
                ..
            } => {
                if let Some(n) = var_map.get(v) {
                    *v = *n;
                }
                None
            }
            StmtKind::DoLoop { var, .. } | StmtKind::DoParallel { var, .. } => {
                *var = var_map[var];
                None
            }
            StmtKind::Label(l) => {
                *l = label_map[l];
                None
            }
            StmtKind::Goto(l) => {
                *l = label_map[l];
                None
            }
            StmtKind::IfGoto { target, .. } => {
                *target = label_map[target];
                None
            }
            StmtKind::Return(v) => {
                // return E  =>  [ret_tmp = E;] goto end
                let mut seq = Vec::new();
                if let (Some(rt), Some(e)) = (ret_tmp, v.take()) {
                    seq.push(caller.stamp(StmtKind::Assign {
                        lhs: LValue::Var(rt),
                        rhs: e,
                    }));
                }
                seq.push(caller.stamp(StmtKind::Goto(end_label)));
                Some(seq)
            }
            _ => None,
        };
        match replacement_seq {
            Some(seq) => {
                // the original statement drops out of the block; its slot
                // keeps the Nop already swapped in
                let n = seq.len();
                block.splice(i..=i, seq);
                i += n;
            }
            None => {
                caller.stmts[sid] = kind;
                i += 1;
            }
        }
    }
}

fn remap_expr(exprs: &mut ExprPool, e: ExprId, var_map: &HashMap<VarId, VarId>) {
    match &mut exprs[e] {
        Expr::Var(v) | Expr::AddrOf(v) => {
            if let Some(n) = var_map.get(v) {
                *v = *n;
            }
        }
        _ => {}
    }
    for c in exprs[e].child_ids() {
        remap_expr(exprs, c, var_map);
    }
}

fn splice(proc: &mut Procedure, site: StmtId, replacement: Block) -> bool {
    fn walk(
        stmts: &mut titanc_il::StmtPool,
        block: &mut Block,
        site: StmtId,
        repl: &mut Option<Block>,
    ) -> bool {
        for i in 0..block.len() {
            if block[i] == site {
                block.splice(i..=i, repl.take().unwrap());
                return true;
            }
            let s = block[i];
            let mut kind = std::mem::replace(&mut stmts[s], StmtKind::Nop);
            let mut hit = false;
            for b in kind.blocks_mut() {
                if walk(stmts, b, site, repl) {
                    hit = true;
                    break;
                }
            }
            stmts[s] = kind;
            if hit {
                return true;
            }
        }
        false
    }
    let mut body = std::mem::take(&mut proc.body);
    let ok = walk(&mut proc.stmts, &mut body, site, &mut Some(replacement));
    proc.body = body;
    ok
}

#[cfg(test)]
mod tests;
