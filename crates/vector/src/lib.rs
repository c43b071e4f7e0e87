//! # titanc-vector — vectorization, parallelization, and dependence-driven
//! scalar optimization
//!
//! The back half of the paper's pipeline: Allen–Kennedy-style vector code
//! generation over the dependence graph (§5), after a DO loop that carries
//! nothing is sunk to the innermost level of its nest (§10), `do parallel`
//! loop spreading with strip mining (§9), and the §6 optimizations that
//! reuse the same dependence graph when a loop stays scalar — register
//! promotion of loop-carried values, strength reduction of affine
//! addresses, and loop-invariant hoisting.
//!
//! ## Example
//!
//! ```
//! use titanc_vector::{vectorize, VectorOptions};
//!
//! let prog = titanc_lower::compile_to_il(
//!     "float a[100], b[100], c[100];\n\
//!      void add(void) { int i; for (i = 0; i < 100; i++) a[i] = b[i] + c[i]; }",
//! ).unwrap();
//! let mut proc = prog.procs[0].clone();
//! titanc_opt::convert_while_loops(&mut proc);
//! titanc_opt::induction_substitution(&mut proc);
//! titanc_opt::forward_substitute(&mut proc);
//! titanc_opt::eliminate_dead_code(&mut proc);
//! let report = vectorize(&mut proc, &VectorOptions::default());
//! assert_eq!(report.loops[0].decision.tag(), "vectorized");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod spread;
pub mod strength;

pub use codegen::{vectorize, VectorOptions, DEFAULT_STRIP};
pub use spread::spread_list_loops;
pub use strength::strength_reduce;

#[cfg(test)]
mod tests;
