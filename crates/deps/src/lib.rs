//! # titanc-deps — data-dependence analysis
//!
//! The ZIV/SIV/GCD/Banerjee dependence tests over subscripts in
//! `titanc_opt::affine`'s form (recovered through C's star-expression
//! addressing), and the statement dependence graph with SCC condensation
//! used by the vectorizer (§5) and by the dependence-driven scalar
//! optimizations (§6).
//!
//! ## Example
//!
//! ```
//! use titanc_deps::{Aliasing, DepGraph};
//! use titanc_il::StmtKind;
//! use titanc_opt::affine::DoHeader;
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
//!     if let (None, StmtKind::DoLoop { body, .. }) = (&found, kind) {
//!         found = Some((DoHeader::of(kind, &proc.exprs).unwrap(), body.clone()));
//!     }
//! });
//! let (head, body) = found.unwrap();
//! assert_eq!(head.const_trip_count(&proc.exprs), Some(64));
//! let g = DepGraph::build(&proc, &body, &head, Aliasing::C);
//! assert!(g.iterations_independent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod test;

pub use graph::{Aliasing, DepEdge, DepGraph, DepKind, MemRef};
pub use test::{test_pair, Verdict};
