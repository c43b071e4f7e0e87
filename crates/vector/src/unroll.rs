//! Unroll-and-fold, the vectorizer's first try at a DO nest (§10's 4×4
//! transform). A DO loop whose inner loops all run a few constant trips
//! takes in a copy of their body per iteration, and a scalar private to one
//! of its iterations is folded, definition by definition, into the one
//! statement that reads it, so that
//!
//! ```text
//! do i { do r = 0,3 { acc = 0.0; do c = 0,3 { acc = acc + m[r][c] * p[i][c] }; o[i][r] = acc } }
//! ```
//!
//! becomes
//!
//! ```text
//! do i { o[i][0] = (((0.0 + m[0][0] * p[i][0]) + …) + m[0][3] * p[i][3]); … o[i][3] = … }
//! ```
//!
//! an innermost loop of four assignments that the sweep vectorizes over
//! `i`. The step is committed only when every assignment of the result
//! then vectorizes; otherwise the nest is left as it was.

use crate::codegen::{vectorizes_whole, VectorOptions};
use titanc_il::{fold_expr, Block, ExprId, LValue, Procedure, SrcSpan, StmtId, StmtKind, VarId};
use titanc_opt::affine::DoHeader;
use titanc_opt::util::{count_reads, count_reads_block, replace_reads};

/// The most trips of a loop the step unrolls: a vector statement pays a
/// 12-cycle startup, more than 4 elements at 1 cycle each cost, so a loop
/// this short is worth more as copies inside a longer vector.
const MAX_UNROLL_TRIPS: i64 = 4;

/// The most copies of one statement: each is a vector statement with its
/// own startup ([`MAX_UNROLL_TRIPS`] at each of two levels).
const MAX_UNROLL_COPIES: i64 = 16;

/// What [`unroll_nest`] did to a loop.
pub(crate) struct Unrolled {
    /// Each DO loop unrolled, by variable and source position, in textual
    /// order.
    pub loops: Vec<(VarId, SrcSpan)>,
    /// The scalars folded away, in order of first definition.
    pub folded: Vec<VarId>,
}

/// Unrolls every DO loop inside the DO loop `id` into its body and folds
/// its private scalars, when afterwards every statement of the loop is a
/// vectorizable assignment:
/// - the loop runs a constant number of trips, more than
///   [`MAX_UNROLL_TRIPS`];
/// - its body holds only assignments and DO loops, at least one of them;
///   each of those runs a constant 1 to [`MAX_UNROLL_TRIPS`] trips from a
///   constant start, at most [`MAX_UNROLL_COPIES`] copies of any statement
///   all told, and its variable is read nowhere else;
/// - a scalar is folded only when private to one iteration and read
///   nowhere outside the loop, and must fold away entirely.
///
/// `reads` holds every variable's reads across the procedure and is kept
/// so. Returns `None`, the loop untouched, when the step does not apply.
pub(crate) fn unroll_nest(
    proc: &mut Procedure,
    id: StmtId,
    opts: &VectorOptions,
    reads: &mut [usize],
) -> Option<Unrolled> {
    let StmtKind::DoLoop { body, safe, .. } = &proc.stmts[id] else {
        return None;
    };
    let (body, safe) = (body.clone(), *safe);
    let head = DoHeader::of(&proc.stmts[id], &proc.exprs)?;
    (head.const_trip_count(&proc.exprs)).filter(|&n| n > MAX_UNROLL_TRIPS)?;
    let mut loops = Vec::new();
    scan(proc, &body, 1, &mut loops)?;
    if loops.is_empty() {
        return None;
    }
    let vars: Vec<VarId> = loops.iter().map(|&(v, _)| v).collect();
    let inside = |proc: &Procedure, v: VarId| count_reads_block(&proc.stmts, &proc.exprs, &body, v);
    if vars.iter().any(|&v| reads[v.index()] > inside(proc, v)) {
        return None;
    }
    let mark = proc.stmts.len();
    let mut flat = Vec::new();
    copy_out(proc, &body, &mut Vec::new(), &mut flat);
    let foldable = |proc: &Procedure, v: VarId| {
        v != head.lv
            && !vars.contains(&v)
            && proc.var(v).is_register_candidate()
            && reads[v.index()] == inside(proc, v)
    };
    let folded = fold_chains(proc, &mut flat, foldable);
    let stale = |v: &VarId| count_reads_block(&proc.stmts, &proc.exprs, &flat, *v) > 0;
    if vars.iter().any(stale) || !vectorizes_whole(proc, &flat, &head, safe, opts) {
        // the copies' expressions stay behind as orphans, which the
        // encoded procedure never holds
        proc.stmts.truncate(mark);
        return None;
    }
    tally_reads(proc, &body, reads, |n| *n -= 1);
    tally_reads(proc, &flat, reads, |n| *n += 1);
    if let StmtKind::DoLoop { body, .. } = &mut proc.stmts[id] {
        *body = flat;
    }
    Some(Unrolled { loops, folded })
}

/// Collects the variable and position of each DO loop of `block`, whose
/// statements run `copies` times in one iteration of the loop being
/// unrolled into; `None` when a loop cannot be unrolled or a statement is
/// neither an assignment nor a DO loop.
fn scan(
    proc: &Procedure,
    block: &[StmtId],
    copies: i64,
    loops: &mut Vec<(VarId, SrcSpan)>,
) -> Option<()> {
    for &s in block {
        match &proc.stmts[s] {
            StmtKind::Assign { .. } => {}
            StmtKind::DoLoop { var, body, .. } => {
                let head = DoHeader::of(&proc.stmts[s], &proc.exprs)?;
                proc.exprs.as_int(head.lo)?;
                let trips = (head.const_trip_count(&proc.exprs))
                    .filter(|n| (1..=MAX_UNROLL_TRIPS).contains(n))?;
                let copies = copies * trips;
                if copies > MAX_UNROLL_COPIES {
                    return None;
                }
                loops.push((*var, proc.stmts.span(s)));
                scan(proc, body, copies, loops)?;
            }
            _ => return None,
        }
    }
    Some(())
}

/// Appends to `out` a copy of each assignment of `block` for every
/// iteration of the DO loops around it inside the nest, their variables
/// read as `values` holds them, folded.
fn copy_out(
    proc: &mut Procedure,
    block: &[StmtId],
    values: &mut Vec<(VarId, ExprId)>,
    out: &mut Block,
) {
    for &s in block {
        match proc.stmts[s].clone() {
            StmtKind::DoLoop { var, body, .. } => {
                let head = DoHeader::of(&proc.stmts[s], &proc.exprs).expect("scanned");
                let lo = proc.exprs.as_int(head.lo).expect("scanned");
                let trips = head.const_trip_count(&proc.exprs).expect("scanned");
                for k in 0..trips {
                    let at = proc.exprs.int(lo + k * head.step);
                    values.push((var, at));
                    copy_out(proc, &body, values, out);
                    values.pop();
                }
            }
            StmtKind::Assign { mut lhs, rhs } => {
                for slot in lhs.address_exprs_mut() {
                    *slot = copy_at(proc, *slot, values);
                }
                let rhs = copy_at(proc, rhs, values);
                let span = proc.stmts.span(s);
                out.push(proc.stamp_at(StmtKind::Assign { lhs, rhs }, span));
            }
            _ => unreachable!("scan admits assignments and DO loops only"),
        }
    }
}

/// A folded copy of the tree at `e` with the variables of `values` read
/// as their values.
fn copy_at(proc: &mut Procedure, e: ExprId, values: &[(VarId, ExprId)]) -> ExprId {
    let e = proc.exprs.copy(e);
    let value_of = |v| {
        values
            .iter()
            .rev()
            .find(|&&(w, _)| w == v)
            .map(|&(_, at)| at)
    };
    proc.exprs.substitute_vars(e, &value_of);
    fold_expr(&mut proc.exprs, e);
    e
}

/// Folds a definition `v = e` of a scalar `foldable` admits into the
/// statement right after it, and deletes it, when that statement reads `v`
/// once and no later one reads the value: the next statement is itself a
/// definition of `v` (a chain `v = e0; v = v ⊕ e1; …`), or the next
/// statement that touches `v`, in this iteration or the next, writes it
/// without reading it. Each deleted definition was read once, so the trees
/// grow only by what they fold in. Returns the scalars folded.
fn fold_chains(
    proc: &mut Procedure,
    flat: &mut Block,
    foldable: impl Fn(&Procedure, VarId) -> bool,
) -> Vec<VarId> {
    let mut folded = Vec::new();
    let mut p = 0;
    while p + 1 < flat.len() {
        let (s, next) = (flat[p], flat[p + 1]);
        if let StmtKind::Assign {
            lhs: LValue::Var(v),
            rhs,
        } = proc.stmts[s]
        {
            let reads_of = |t: StmtId| count_reads(&proc.stmts, &proc.exprs, t, v);
            let writes = |t: StmtId| proc.stmts[t].defined_var() == Some(v);
            let touches = |t: &&StmtId| writes(**t) || reads_of(**t) > 0;
            // `flat[p]` touches `v`, so the search always ends
            let after = flat[p + 2..].iter().chain(flat.iter()).find(touches);
            let dead = writes(next) || after.is_some_and(|&t| writes(t) && reads_of(t) == 0);
            if foldable(proc, v) && reads_of(next) == 1 && dead {
                replace_reads(&proc.stmts, &mut proc.exprs, next, v, rhs);
                flat.remove(p);
                if !folded.contains(&v) {
                    folded.push(v);
                }
                continue;
            }
        }
        p += 1;
    }
    folded
}

/// Applies `apply` to a variable's count once for each read of it in
/// `block`'s statement trees.
fn tally_reads(proc: &Procedure, block: &[StmtId], reads: &mut [usize], apply: fn(&mut usize)) {
    for &s in block {
        for e in proc.stmts[s].exprs() {
            for v in proc.exprs.vars_read(e) {
                apply(&mut reads[v.index()]);
            }
        }
        for b in proc.stmts[s].blocks() {
            tally_reads(proc, b, reads, apply);
        }
    }
}
