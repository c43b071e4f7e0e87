//! The quadratic forward substitution the available-definitions sweep in
//! `forward.rs` replaced, kept as the *test reference* the sweep is diffed
//! against: every candidate `x = e` rescans the rest of its block and
//! re-walks every nested body it passes, and a loading one also rescans
//! the statements after its window, in a snapshot of the procedure as the
//! pass found it, for a later read of `x`. It is compiled only into tests —
//! `forward.rs`'s unit tests and, through `#[path]`,
//! `crates/bench/tests/scalar_differential.rs` — and depends on nothing
//! but `titanc_il`, so a change to the pass's helpers cannot move it.

use titanc_il::{
    Expr, ExprId, ExprPool, LValue, Procedure, StmtId, StmtKind, StmtPool, Storage, VarId,
};

/// Runs the reference substitution; returns the reads replaced.
pub fn forward_substitute(proc: &mut Procedure) -> usize {
    let mut substituted = 0;
    let input = proc.clone();
    run_block(proc, &input, &input.body, &mut substituted);
    if substituted > 0 {
        proc.bump_generation();
    }
    substituted
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

fn replace_reads(
    stmts: &StmtPool,
    exprs: &mut ExprPool,
    s: StmtId,
    v: VarId,
    replacement: ExprId,
) -> usize {
    let mut n = 0;
    for e in stmts[s].exprs() {
        n += exprs.substitute_var(e, v, replacement);
    }
    for b in stmts[s].blocks() {
        for &inner in b {
            n += replace_reads(stmts, exprs, inner, v, replacement);
        }
    }
    n
}

/// `input` is the procedure as the pass found it.
fn run_block(proc: &mut Procedure, input: &Procedure, block: &[StmtId], substituted: &mut usize) {
    // recurse into nested blocks first (no structural edits: id lists are
    // cloned, statement kinds stay in place)
    for &s in block {
        let nested: Vec<Vec<StmtId>> = proc.stmts[s].blocks().iter().map(|b| b.to_vec()).collect();
        for b in &nested {
            run_block(proc, input, b, substituted);
        }
    }
    let len = block.len();
    for i in 0..len {
        let (x, rhs) = match &proc.stmts[block[i]] {
            StmtKind::Assign {
                lhs: LValue::Var(x),
                rhs,
            } => (*x, *rhs),
            _ => continue,
        };
        if !register_candidate(proc, x) {
            continue;
        }
        if proc.exprs.any(rhs, Expr::is_volatile_load)
            || proc.exprs.any(rhs, |n| matches!(n, Expr::Section { .. }))
        {
            continue;
        }
        if proc.exprs.any(rhs, |n| *n == Expr::Var(x)) {
            continue; // x = f(x): nothing to forward
        }
        // avoid exponential growth: cap the substituted expression size
        if proc.exprs.size(rhs) > 24 {
            continue;
        }
        let deps: Vec<VarId> = proc.exprs.vars_read(rhs);
        let has_loads = proc.exprs.any(rhs, |n| matches!(n, Expr::Load { .. }));
        // the window: block[i + 1..end]
        let mut end = i + 1;
        while end < len {
            let s = block[end];
            // control-flow joins and departures end the straight-line
            // window: a label may be reached from elsewhere (the def does
            // not dominate it), and nothing after an unconditional goto is
            // reached by fallthrough.
            if matches!(proc.stmts[s], StmtKind::Label(_) | StmtKind::Goto(_)) {
                break;
            }

            // nested blocks: only substitute inside when the block cannot
            // invalidate the expression or x (vacuously true for
            // straight-line statements)
            let nested_safe = proc.stmts[s].blocks().iter().all(|b| {
                !defined_in(&proc.stmts, b, x)
                    && deps.iter().all(|&d| !defined_in(&proc.stmts, b, d))
                    && (!has_loads || !block_may_write_memory(proc, b))
            });
            if !nested_safe {
                // cannot see through the nested block: stop
                break;
            }
            end += 1;

            // a statement may read x before (possibly) redefining it: it
            // is in the window, and then the window stops
            let kind = &proc.stmts[s];
            if kind.defined_var() == Some(x)
                || kind.blocks().iter().any(|b| defined_in(&proc.stmts, b, x))
            {
                break;
            }
            if deps.iter().any(|&d| {
                kind.defined_var() == Some(d)
                    || kind.blocks().iter().any(|b| defined_in(&proc.stmts, b, d))
            }) {
                break;
            }
            if has_loads && stmt_may_write_memory(proc, s) {
                break;
            }
        }
        // a loading x that is read again after its window, before its next
        // assignment, stays: forwarding it would compute it twice (the
        // statements after the window are read as the pass found them)
        if has_loads {
            let after = &block[end..];
            let next_def = after
                .iter()
                .position(|&s| input.stmts[s].defined_var() == Some(x))
                .map_or(after.len(), |k| k + 1);
            let window_redefines =
                end > i + 1 && proc.stmts[block[end - 1]].defined_var() == Some(x);
            if !window_redefines && after[..next_def].iter().any(|&s| reads(input, s, x)) {
                continue;
            }
        }
        for &s in &block[i + 1..end] {
            *substituted += replace_reads(&proc.stmts, &mut proc.exprs, s, x, rhs);
        }
    }
}

/// Whether the statement tree at `s` reads `x`.
fn reads(proc: &Procedure, s: StmtId, x: VarId) -> bool {
    let kind = &proc.stmts[s];
    kind.exprs()
        .into_iter()
        .any(|e| proc.exprs.any(e, |n| *n == Expr::Var(x)))
        || kind
            .blocks()
            .iter()
            .any(|b| b.iter().any(|&t| reads(proc, t, x)))
}

/// A store, a call, or an assignment to a variable a load can read (one
/// that is not a register candidate), here or nested.
fn stmt_may_write_memory(proc: &Procedure, s: StmtId) -> bool {
    let kind = &proc.stmts[s];
    kind.writes_memory()
        || kind
            .defined_var()
            .is_some_and(|v| !register_candidate(proc, v))
        || kind
            .blocks()
            .iter()
            .any(|b| block_may_write_memory(proc, b))
}

fn block_may_write_memory(proc: &Procedure, block: &[StmtId]) -> bool {
    block.iter().any(|&s| stmt_may_write_memory(proc, s))
}
