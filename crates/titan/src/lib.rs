//! # titanc-titan — the Titan machine simulator
//!
//! A cycle-cost simulator for the Ardent Titan, the multi-processor vector
//! machine the paper's compiler targets (§2). The real hardware is long
//! gone, so this crate substitutes a deterministic machine model that
//! executes the compiler's IL and charges cycles according to the Titan's
//! published architectural characteristics:
//!
//! * a RISC integer unit (1-cycle ALU, expensive multiply),
//! * a highly pipelined FP unit (≈6-cycle pipelined scalar ops) that also
//!   executes all vector instructions at one element per cycle after
//!   startup,
//! * a pipelined path to memory,
//! * up to four processors sharing memory, applied to `do parallel` loops
//!   with a fork/join cost.
//!
//! With [`MachineConfig::overlap`] on, integer, floating and memory work in
//! a straight-line region overlap — the §6 claim that dependence
//! information lets the scheduler "completely overlap the integer and
//! floating point instructions". The paper's measurements (0.5 → 1.9
//! MFLOPS on the backsolve loop; 12× for inlined/vectorized/parallelized
//! daxpy on two processors) are reproduced in *shape* against this model;
//! see `EXPERIMENTS.md`.
//!
//! One machine, two executors: `machine.rs` owns memory, frames, the cycle
//! meter, the charge table and the intrinsics; the register-bytecode VM
//! (`bytecode.rs` + `vm.rs`) is the engine everything runs on by default,
//! and the tree-walking interpreter (`interp.rs`) is the independent
//! oracle it is checked against — same observations, same statistics,
//! same traps ([`ExecEngine`]).
//!
//! The simulator is also the semantic referee for the whole compiler: every
//! optimization pass is tested by comparing observable behaviour (return
//! value, printed output, final global memory) before and after the
//! transformation.
//!
//! ## Example
//!
//! ```
//! use titanc_titan::{MachineConfig, Simulator};
//!
//! let prog = titanc_lower::compile_to_il(
//!     "int main(void) { int i, s; s = 0; for (i = 1; i <= 100; i++) s += i; return s; }",
//! ).unwrap();
//! let mut sim = Simulator::new(&prog, MachineConfig::default());
//! let run = sim.run("main", &[])?;
//! assert_eq!(run.value.unwrap().as_int(), 5050);
//! assert!(run.stats.cycles > 0.0);
//! # Ok::<(), titanc_titan::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytecode;
mod interp;
mod machine;
mod vm;

pub use machine::{
    ExecEngine, ExecStats, MachineConfig, RunResult, SimError, Simulator, CLOCK_MHZ,
};
pub use titanc_il::fold::Value;

/// Observable state of a run, for before/after-optimization comparisons.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// Entry return value.
    pub value: Option<Value>,
    /// Printed output.
    pub output: Vec<String>,
    /// Snapshot of requested globals (name, values).
    pub globals: Vec<(String, Vec<Value>)>,
}

/// Runs `entry` and captures the observable state: return value, output,
/// and the contents of the requested globals.
///
/// # Errors
///
/// Propagates any [`SimError`] from execution or global inspection.
pub fn observe(
    prog: &titanc_il::Program,
    cfg: MachineConfig,
    entry: &str,
    globals: &[(&str, titanc_il::ScalarType, u32)],
) -> Result<(Observation, ExecStats), SimError> {
    observe_with(prog, cfg, ExecEngine::default(), entry, globals)
}

/// [`observe`], with an explicit choice of execution backend. Both engines
/// produce identical observations and statistics; pass
/// [`ExecEngine::Interp`] for the reference oracle.
///
/// # Errors
///
/// Propagates any [`SimError`] from execution or global inspection.
pub fn observe_with(
    prog: &titanc_il::Program,
    cfg: MachineConfig,
    engine: ExecEngine,
    entry: &str,
    globals: &[(&str, titanc_il::ScalarType, u32)],
) -> Result<(Observation, ExecStats), SimError> {
    let mut sim = Simulator::with_engine(prog, cfg, engine);
    let run = sim.run(entry, &[])?;
    let mut snap = Vec::new();
    for (name, kind, count) in globals {
        let mut vals = Vec::new();
        for i in 0..*count {
            vals.push(sim.read_global(name, *kind, i)?);
        }
        snap.push((name.to_string(), vals));
    }
    Ok((
        Observation {
            value: run.value,
            output: run.stats.output.clone(),
            globals: snap,
        },
        run.stats,
    ))
}

#[cfg(test)]
mod tests;
