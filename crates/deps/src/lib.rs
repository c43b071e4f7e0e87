//! # titanc-deps — data-dependence analysis
//!
//! Affine subscript extraction (through C's star-expression addressing),
//! the ZIV/SIV/GCD/Banerjee dependence tests, and the statement dependence
//! graph with SCC condensation used by the vectorizer (§5) and by the
//! dependence-driven scalar optimizations (§6).
//!
//! ## Example
//!
//! ```
//! use titanc_deps::{Aliasing, DepGraph};
//! use titanc_il::StmtKind;
//!
//! let prog = titanc_lower::compile_to_il(
//!     "float a[64], b[64];\nvoid f(void) { int i; for (i = 0; i < 64; i++) a[i] = b[i]; }",
//! ).unwrap();
//! let mut proc = prog.procs[0].clone();
//! titanc_opt::convert_while_loops(&mut proc);
//! titanc_opt::induction_substitution(&mut proc);
//! titanc_opt::forward_substitute(&mut proc);
//! titanc_opt::eliminate_dead_code(&mut proc);
//! let mut found = None;
//! proc.for_each_stmt(&mut |_, kind| {
//!     if let StmtKind::DoLoop { var, body, .. } = kind {
//!         if found.is_none() {
//!             found = Some((*var, body.clone()));
//!         }
//!     }
//! });
//! let (lv, body) = found.unwrap();
//! let g = DepGraph::build(&proc, &body, lv, Some(64), Aliasing::C);
//! assert!(g.iterations_independent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod graph;
pub mod test;

pub use affine::{decompose, Affine};
pub use graph::{Aliasing, DepEdge, DepGraph, DepKind, MemRef};
pub use test::{test_pair, Verdict};

use titanc_il::{BinOp, ExprId, ExprPool, Procedure, ScalarType, StmtId, VarId};

/// The constant trip count of a DO loop, when its bounds fold.
pub fn const_trip_count(exprs: &ExprPool, lo: ExprId, hi: ExprId, step: ExprId) -> Option<i64> {
    match (exprs.as_int(lo), exprs.as_int(hi), exprs.as_int(step)) {
        (Some(l), Some(h), Some(s)) if s != 0 => Some(((h - l + s) / s).max(0)),
        _ => None,
    }
}

/// The trip count of the DO loop `lv = lo, hi, step` as a fresh tree: for
/// a unit step over invariant affine bounds `max(0, ±(hi − lo) + 1)`,
/// collected through [`Affine`] and without a divide, otherwise `max(0,
/// (hi − lo + step) / step)`. (`-O1` prints `ivsub`'s own copy of the
/// second form: `titanc-opt` sits below this crate.)
pub fn trips_expression(
    proc: &mut Procedure,
    body: &[StmtId],
    lv: VarId,
    lo: ExprId,
    hi: ExprId,
    step: i64,
) -> ExprId {
    let bound = |e| decompose(proc, body, lv, e).filter(|a| a.coeff == 0);
    let span = match (step, bound(lo), bound(hi)) {
        (1 | -1, Some(lo), Some(hi)) => {
            let (first, last) = if step == 1 { (lo, hi) } else { (hi, lo) };
            let mut span = last.add(&proc.exprs, first.scale(-1));
            span.offset += 1;
            span.emit(&mut proc.exprs, ScalarType::Int, None)
        }
        _ => {
            let exprs = &mut proc.exprs;
            let (hi, lo) = (exprs.copy(hi), exprs.copy(lo));
            let diff = exprs.ibinary(BinOp::Sub, hi, lo);
            let step_c = exprs.int(step);
            let span = exprs.ibinary(BinOp::Add, diff, step_c);
            let step_c = exprs.int(step);
            exprs.ibinary(BinOp::Div, span, step_c)
        }
    };
    let zero = proc.exprs.int(0);
    let e = proc.exprs.ibinary(BinOp::Max, zero, span);
    titanc_il::fold_expr(&mut proc.exprs, e);
    e
}
