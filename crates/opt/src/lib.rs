//! # titanc-opt — scalar optimization
//!
//! The scalar optimization pipeline of §5–§8: while→DO conversion,
//! induction-variable substitution with the blocking/backtracking
//! heuristic, forward/copy substitution, constant propagation with the
//! unreachable-code re-seeding heuristic, and dead-code elimination.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constprop;
pub mod cse;
pub mod dce;
pub mod forward;
#[cfg(test)]
mod forward_reference;
pub mod ivsub;
pub mod util;
pub mod whiledo;

pub use constprop::{
    constant_propagation, constant_propagation_cached, constant_propagation_no_unreachable,
    eliminate_unreachable_cfg, unreachable_postpass,
};
pub use cse::local_cse;
pub use dce::{eliminate_dead_code, eliminate_dead_code_cached};
pub use forward::forward_substitute;
pub use ivsub::induction_substitution;
pub use whiledo::{convert_while_loops, convert_while_loops_cached};
