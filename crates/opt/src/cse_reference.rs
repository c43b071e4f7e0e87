//! The local CSE `cse.rs` replaced, kept as the *test reference* it is
//! diffed against: candidates are recollected and re-sorted on every
//! visit, `size` and purity re-derived recursively at every node, and
//! every window rescanned with structural comparison at every node (three
//! fixes are shared with `cse.rs`: a window that ends at a nested
//! redefinition no longer replaces past it, a DO loop's variable counts as
//! redefined in its body, and a `while` whose body redefines a dependence
//! lends not even its condition). It is compiled only into
//! tests, through `#[path]` — `crates/opt/tests/reference_differential.rs`
//! and `crates/bench/tests/scalar_differential.rs` — and depends on
//! nothing but `titanc_il`.
//!
//! It stays because `cse.rs` answers every window question from per-node
//! shapes and per-statement definition ranges it keeps current by hand;
//! this file answers them by re-walking the IL, so a stale shape or range
//! shows as a difference. A change to a window rule of `cse.rs` goes in
//! here too, stated the obvious way.

use titanc_il::visit::edit_blocks;
use titanc_il::{
    Block, Expr, ExprId, ExprPool, LValue, Procedure, StmtId, StmtKind, StmtPool, Storage, Type,
    VarId,
};

/// The fields of `CseReport`.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    pub commoned: usize,
    pub replaced: usize,
}

fn register_candidate(proc: &Procedure, v: VarId) -> bool {
    let info = proc.var(v);
    info.ty.scalar().is_some()
        && !info.addressed
        && !info.volatile
        && matches!(info.storage, Storage::Auto | Storage::Param | Storage::Temp)
}

fn defined_in(pool: &StmtPool, block: &[StmtId], v: VarId) -> bool {
    block.iter().any(|&s| {
        pool[s].defined_var() == Some(v) || pool[s].blocks().iter().any(|b| defined_in(pool, b, v))
    })
}

/// Runs local CSE over every block of the procedure.
pub fn local_cse(proc: &mut Procedure) -> Report {
    let mut report = Report::default();
    edit_blocks(proc, &mut |proc, block| run_block(proc, block, &mut report));
    if report.commoned > 0 || report.replaced > 0 {
        proc.bump_generation();
    }
    report
}

fn is_barrier(kind: &StmtKind) -> bool {
    matches!(
        kind,
        StmtKind::Label(_)
            | StmtKind::Goto(_)
            | StmtKind::IfGoto { .. }
            | StmtKind::Call { .. }
            | StmtKind::Return(_)
    )
}

/// Commons within one block, the blocks nested in it already done.
fn run_block(proc: &mut Procedure, block: &mut Block, report: &mut Report) {
    let mut i = 0;
    while i < block.len() {
        if is_barrier(&proc.stmts[block[i]]) {
            i += 1;
            continue;
        }
        // candidate subexpressions of statement i, largest first
        let mut cands: Vec<ExprId> = Vec::new();
        for e in proc.stmts[block[i]].exprs() {
            collect_candidates(&proc.exprs, e, &mut cands);
        }
        cands.sort_by_key(|&e| std::cmp::Reverse(proc.exprs.size(e)));
        let mut did = false;
        for cand in cands {
            if try_common(proc, block, i, cand, report) {
                did = true;
                break; // statement i changed; rescan it
            }
        }
        if !did {
            i += 1;
        }
    }
}

/// Pure, load-free subexpressions worth commoning (size ≥ 3).
fn collect_candidates(exprs: &ExprPool, e: ExprId, out: &mut Vec<ExprId>) {
    if exprs.size(e) >= 3
        && is_pure_register_expr(exprs, e)
        && !out.iter().any(|&o| exprs.expr_eq(o, exprs, e))
    {
        out.push(e);
    }
    for c in exprs[e].child_ids() {
        collect_candidates(exprs, c, out);
    }
}

fn is_pure_register_expr(exprs: &ExprPool, e: ExprId) -> bool {
    match exprs[e] {
        Expr::Load { .. } | Expr::Section { .. } => false,
        _ => exprs[e]
            .child_ids()
            .into_iter()
            .all(|c| is_pure_register_expr(exprs, c)),
    }
}

/// Counts occurrences of `cand` in an expression tree.
fn count_occurrences(exprs: &ExprPool, e: ExprId, cand: ExprId) -> usize {
    let mine = usize::from(exprs.expr_eq(e, exprs, cand));
    mine + exprs[e]
        .child_ids()
        .into_iter()
        .map(|c| count_occurrences(exprs, c, cand))
        .sum::<usize>()
}

fn replace_occurrences(exprs: &mut ExprPool, e: ExprId, cand: ExprId, t: VarId) -> usize {
    if exprs.expr_eq(e, exprs, cand) {
        exprs[e] = Expr::Var(t);
        return 1;
    }
    let mut n = 0;
    for c in exprs[e].child_ids() {
        n += replace_occurrences(exprs, c, cand, t);
    }
    n
}

/// Tries to common `cand`, first occurring in statement `start`, across
/// its valid window. Returns true when a rewrite happened.
fn try_common(
    proc: &mut Procedure,
    block: &mut Block,
    start: usize,
    cand_orig: ExprId,
    report: &mut Report,
) -> bool {
    let deps: Vec<VarId> = proc.exprs.vars_read(cand_orig);
    if deps.iter().any(|&v| !register_candidate(proc, v)) {
        return false;
    }
    // window: statements start..end where no dep is redefined and no
    // barrier intervenes (the defining statement itself may redefine a dep
    // — occurrences in later statements then see a different value)
    let mut end = start;
    let mut total = 0usize;
    // the window's last statement, when only its own expressions are in it
    let mut top_only: Option<StmtId> = None;
    for (j, &s) in block.iter().enumerate().skip(start) {
        let kind = &proc.stmts[s];
        if j > start && is_barrier(kind) {
            break;
        }
        // count occurrences in this statement (top-level exprs only; the
        // nested blocks of an If/loop may execute conditionally but the
        // candidate is pure, so replacing there is still sound as long as
        // deps are not redefined inside, a DO loop's variable included)
        let nested_safe = kind
            .blocks()
            .iter()
            .all(|b| deps.iter().all(|&v| !defined_in(&proc.stmts, b, v)))
            && !(kind.is_loop() && deps.iter().any(|&v| kind.defined_var() == Some(v)));
        if !nested_safe {
            // a while condition reruns after its body: not even it is in
            if matches!(kind, StmtKind::While { .. } | StmtKind::WhileSpread { .. }) {
                break;
            }
            // stop before descending into a block that redefines deps
            total += kind
                .exprs()
                .iter()
                .map(|e| count_occurrences(&proc.exprs, e, cand_orig))
                .sum::<usize>();
            end = j;
            top_only = Some(s);
            break;
        }
        total += count_in_stmt(proc, s, cand_orig);
        end = j;
        if deps.iter().any(|&v| proc.stmts[s].defined_var() == Some(v)) {
            break;
        }
    }
    if total < 2 {
        return false;
    }

    // materialize: t = cand, inserted before `start`. The definition keeps
    // a detached deep copy so replacing the occurrences (including the
    // original subtree) cannot corrupt it.
    let scalar = proc.exprs.result_type(cand_orig, &|v| proc.var_scalar(v));
    let t = proc.fresh_temp(Type::from(scalar));
    proc.var_mut(t).name = format!("cse_{}", t.index());
    let cand = proc.exprs.copy(cand_orig);
    let def = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(t),
        rhs: cand,
    });
    let mut replaced = 0;
    for &s in block.iter().take(end + 1).skip(start) {
        if top_only == Some(s) {
            // (the rescan this file is named for replaced in the nested
            // blocks too, past the redefinition: a miscompile, fixed here
            // and in `cse.rs` alike)
            for e in proc.stmts[s].exprs() {
                replaced += replace_occurrences(&mut proc.exprs, e, cand, t);
            }
            break;
        }
        replaced += replace_in_stmt(proc, s, cand, t);
        if deps.iter().any(|&v| proc.stmts[s].defined_var() == Some(v)) {
            break;
        }
    }
    block.insert(start, def);
    report.commoned += 1;
    report.replaced += replaced;
    true
}

fn count_in_stmt(proc: &Procedure, s: StmtId, cand: ExprId) -> usize {
    let mut n: usize = proc.stmts[s]
        .exprs()
        .iter()
        .map(|e| count_occurrences(&proc.exprs, e, cand))
        .sum();
    for b in proc.stmts[s].blocks() {
        for &inner in b {
            n += count_in_stmt(proc, inner, cand);
        }
    }
    n
}

fn replace_in_stmt(proc: &mut Procedure, s: StmtId, cand: ExprId, t: VarId) -> usize {
    let mut n = 0;
    for e in proc.stmts[s].exprs() {
        n += replace_occurrences(&mut proc.exprs, e, cand, t);
    }
    let nested: Vec<StmtId> = proc.stmts[s]
        .blocks()
        .iter()
        .flat_map(|b| b.iter().copied())
        .collect();
    for inner in nested {
        n += replace_in_stmt(proc, inner, cand, t);
    }
    n
}
