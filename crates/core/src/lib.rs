//! # titanc — a reproduction of the Titan C vectorizing compiler
//!
//! This crate is the driver for a full reimplementation of the compiler
//! described in R. Allen & S. Johnson, *Compiling C for Vectorization,
//! Parallelization, and Inline Expansion* (PLDI 1988): a C front end that
//! recasts expressions into side-effect-free (statement-list, expression)
//! pairs, scalar optimization built on use–def chains (while→DO
//! conversion, induction-variable substitution with backtracking, constant
//! propagation with unreachable-code elimination, dead-code elimination),
//! data-dependence analysis, an Allen–Kennedy-style vectorizer with strip
//! mining and `do parallel` loop spreading, cross-file inlining from
//! procedure catalogs, and the §6 dependence-driven scalar optimizations.
//! Compiled programs execute on a cycle-cost simulator of the Ardent Titan
//! (`titanc-titan`).
//!
//! ## Quickstart
//!
//! ```
//! use titanc::{compile, Options};
//! use titanc_titan::{MachineConfig, Simulator};
//!
//! let src = r#"
//! float a[100], b[100], c[100];
//! int main(void)
//! {
//!     int i;
//!     for (i = 0; i < 100; i++) a[i] = b[i] + c[i];
//!     return 0;
//! }
//! "#;
//! let result = compile(src, &Options::o2())?;
//! assert!(result.reports.count("vectorized") >= 1);
//! let mut sim = Simulator::new(&result.program, MachineConfig::optimized(2));
//! sim.run("main", &[]).unwrap();
//! # Ok::<(), titanc::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod memo;
pub mod pass;
mod pool;
pub mod server;
pub mod session;
pub mod store;
pub mod trace;

use std::error::Error;
use std::fmt;

pub use pass::{
    contain_panic, CachedEntry, IncidentKind, Pass, PassContext, PassIncident, PassRecord,
    PassTrace, Pipeline, ProcPass, RecordedCell, Replay, SessionReplay, Snapshot, WorkItem,
};
pub use session::{
    compile_session, compile_session_resident, SessionCompilation, SessionStats, SourceFile,
};
pub use store::{install_io_faults, FaultMode, IoFaultSpec, IoOp, ResidentCache};
pub use titanc_analysis::{CacheStats, ProcAnalyses};
pub use titanc_cfront::{Diagnostic, DiagnosticSink, Severity, Span};
pub use titanc_deps::Aliasing;
pub use titanc_il::{Catalog, Count, Program, Report};
pub use titanc_vector::VectorOptions;
pub use trace::{chrome_trace, Counters, LoopReport, OptReport};

/// Optimization level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OptLevel {
    /// Front end only: parse and lower, no optimization.
    O0,
    /// Scalar optimization: while→DO, induction-variable substitution,
    /// forward substitution, constant propagation, DCE.
    O1,
    /// O1 + vectorization + the §6 dependence-driven scalar optimizations.
    O2,
}

/// Compiler options (§2's strategy knobs).
#[derive(Clone, Debug)]
pub struct Options {
    /// Optimization level.
    pub opt: OptLevel,
    /// Inline procedure calls (§7).
    pub inline: bool,
    /// Spread loops across processors (`do parallel`).
    pub parallelize: bool,
    /// Spread linked-list `while` loops with a serialized pointer chase
    /// (§10 future work). Requires the paper's assumption that "each
    /// motion down a pointer goes to independent storage", so it is a
    /// separate opt-in even when `parallelize` is set.
    pub spread_lists: bool,
    /// Aliasing regime (§9's Fortran-parameter-semantics option).
    pub aliasing: Aliasing,
    /// Strip length for parallel vector loops.
    pub strip: i64,
    /// Catalogs to link for cross-file inlining (§7).
    pub catalogs: Vec<Catalog>,
    /// Capture a pretty-printed snapshot of every procedure after each
    /// phase (the §9 walkthrough).
    pub snapshots: bool,
    /// Run the IL verifier between passes even in release builds (debug
    /// builds always verify). A violation is an internal compiler error.
    pub verify: bool,
    /// Lanes for the per-procedure pass chain (`-j`/`--jobs`; the calling
    /// thread is one of them).
    /// `0` means "use the machine's available parallelism"; requests
    /// beyond the available parallelism are capped there, since extra
    /// threads only add scheduler churn to a CPU-bound pipeline. The
    /// output is byte-identical for every value.
    pub jobs: usize,
    /// Stop collecting front-end errors after this many (`--max-errors`;
    /// `0` means no cap). One mangled declaration can cascade — past the
    /// cap the rest of the file is abandoned.
    pub max_errors: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            opt: OptLevel::O2,
            inline: true,
            parallelize: false,
            spread_lists: false,
            aliasing: Aliasing::C,
            strip: titanc_vector::DEFAULT_STRIP,
            catalogs: Vec::new(),
            snapshots: false,
            verify: false,
            jobs: 0,
            max_errors: titanc_cfront::DEFAULT_MAX_ERRORS,
        }
    }
}

impl Options {
    /// Front end only.
    pub fn o0() -> Options {
        Options {
            opt: OptLevel::O0,
            inline: false,
            ..Options::default()
        }
    }

    /// Scalar optimization only (the paper's baseline configuration: "when
    /// the original loop is compiled with only scalar optimization").
    pub fn o1() -> Options {
        Options {
            opt: OptLevel::O1,
            inline: false,
            ..Options::default()
        }
    }

    /// Full single-processor optimization.
    pub fn o2() -> Options {
        Options::default()
    }

    /// Full optimization with multiprocessor spreading.
    pub fn parallel() -> Options {
        Options {
            parallelize: true,
            ..Options::default()
        }
    }

    /// The worker-thread count the pipeline will actually use: `jobs`,
    /// with `0` resolved to the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        pool::lanes(self.jobs)
    }
}

/// The result of a compilation.
#[derive(Clone, Debug)]
pub struct Compilation {
    /// The optimized program, ready for the Titan simulator.
    pub program: Program,
    /// Pass statistics, aggregated across the whole pipeline.
    pub reports: Report,
    /// Per-pass execution records: wall-clock time, the statistics
    /// delta each pass contributed, and any contained [`PassIncident`]s.
    pub trace: PassTrace,
    /// Typed per-phase snapshots when [`Options::snapshots`] was set.
    pub snapshots: Vec<Snapshot>,
    /// Non-fatal diagnostics: warnings plus the optimizer's remarks
    /// (loops left scalar and why, budgets that ran out).
    pub diagnostics: Vec<Diagnostic>,
}

impl Compilation {
    /// True when any pass faulted (and was contained) during the run.
    pub fn has_incidents(&self) -> bool {
        self.trace.has_incidents()
    }
}

/// A front-end failure (lex/parse/lowering).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Rendered summary with the first error's source position.
    pub message: String,
    /// Every collected diagnostic, in source order — the recovering
    /// parser reports all independent mistakes, not just the first.
    pub diagnostics: Vec<Diagnostic>,
}

impl CompileError {
    fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> CompileError {
        let message = diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(ToString::to_string)
            .unwrap_or_else(|| "compilation failed".to_string());
        CompileError {
            message,
            diagnostics,
        }
    }

    fn internal(message: impl Into<String>) -> CompileError {
        let message = message.into();
        CompileError {
            diagnostics: vec![Diagnostic::new(message.clone(), Span::none())],
            message,
        }
    }

    /// The collected error diagnostics (excluding warnings/remarks).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "titanc: {}", self.message)
    }
}

impl Error for CompileError {}

/// Compiles C source with the given options.
///
/// The front end is fail-soft: parsing continues past errors (up to
/// [`Options::max_errors`]), so the returned [`CompileError`] carries
/// *every* independent mistake. Optimization never fails — a pass that
/// faults is contained and recorded on [`Compilation::trace`] as a
/// [`PassIncident`], with the affected procedure rolled back to its
/// last-verified IL.
///
/// # Errors
///
/// Returns a [`CompileError`] for lexical, syntactic or semantic errors.
pub fn compile(src: &str, options: &Options) -> Result<Compilation, CompileError> {
    compile_with(src, options, Pipeline::for_options(options))
}

/// [`compile`] with a caller-built [`Pipeline`] — the hook for custom
/// pass stacks and for fault-injection tests that exercise the fail-soft
/// containment path.
///
/// # Errors
///
/// Returns a [`CompileError`] for lexical, syntactic or semantic errors.
pub fn compile_with(
    src: &str,
    options: &Options,
    pipeline: Pipeline,
) -> Result<Compilation, CompileError> {
    // a single source is a one-file, store-less session
    let file = SourceFile::new("<source>", src);
    session::compile_session_impl(&[file], options, pipeline, None).map(|sc| sc.compilation)
}

/// Warns about the struct layouts and globals of a linked unit that
/// differ from the earlier definition the linker kept. `unit` is the
/// unit's origin as diagnostics name it (`` `file.c` `` or
/// ``catalog `blas` ``).
fn warn_link_conflicts(report: &titanc_il::LinkReport, unit: &str, sink: &mut DiagnosticSink) {
    let kinds = [
        ("struct", &report.struct_conflicts),
        ("global", &report.global_conflicts),
    ];
    for (kind, names) in kinds {
        for name in names {
            sink.warning(
                format!(
                    "{kind} `{name}` in {unit} differs from an earlier definition; \
                     using the first"
                ),
                Span::none(),
            );
        }
    }
}

/// Where the procedure `name` already in the program came from, as the
/// shadowing warnings name it.
fn origin_of<'a>(origin: &'a [(String, String)], name: &str) -> &'a str {
    origin
        .iter()
        .find(|(n, _)| n == name)
        .map_or("an earlier definition", |(_, o)| o)
}

/// Links catalogs in CLI order, warning about every shadowed procedure
/// with both origins named. Earlier definitions win: the translation
/// unit(s) first, then catalogs in the order given. `origin` seeds the
/// name → origin map with where each already-present procedure came from
/// (`` `file.c` `` for a translation unit, whatever the session's shape).
fn link_catalogs(
    program: &mut Program,
    catalogs: &[Catalog],
    mut origin: Vec<(String, String)>,
    sink: &mut DiagnosticSink,
) {
    for catalog in catalogs {
        let here = format!("catalog `{}`", catalog.name);
        let report = catalog.link_into(program);
        warn_link_conflicts(&report, &here, sink);
        for name in &report.shadowed {
            let earlier = origin_of(&origin, name);
            sink.warning(
                format!("procedure `{name}` from {here} is shadowed by {earlier}"),
                Span::none(),
            );
        }
        for name in report.added {
            origin.push((name, here.clone()));
        }
    }
}

/// Turns the aggregate pass reports into user-facing remarks: which loops
/// the vectorizer unrolled or sank, which defeated it and why, and which
/// fixpoint budgets ran out.
fn optimization_remarks(reports: &Report, sink: &mut DiagnosticSink) {
    use titanc_il::LoopDecision::{Sunk, Unrolled};
    for e in &reports.loops {
        if let Sunk(_) | Unrolled(_) = e.decision {
            let text = format!("{}: loop on `{}` {}", e.proc, e.var, e.decision);
            sink.remark(text, Span::none());
        }
    }
    for note in &reports.notes {
        sink.remark(note.clone(), Span::none());
    }
    if reports.get(Count::ConstpropBudgetHit) > 0 {
        let cp = titanc_opt::constprop::MAX_ROUNDS;
        let text = format!(
            "constant propagation stopped at its {cp}-round budget; remaining \
             opportunities were left to later passes"
        );
        sink.remark(text, Span::none());
    }
    if reports.get(Count::DceBudgetHit) > 0 {
        let dce = titanc_opt::dce::MAX_ROUNDS;
        let text = format!("dead-code elimination stopped at its {dce}-round budget");
        sink.remark(text, Span::none());
    }
    if reports.get(Count::IvsubBudgetHit) > 0 {
        let passes = titanc_opt::ivsub::MAX_PASSES;
        let text = format!("induction-variable substitution stopped at its {passes}-pass budget");
        sink.remark(text, Span::none());
    }
    let skipped_growth = reports.count("skipped_growth");
    if skipped_growth > 0 {
        let text = format!(
            "{skipped_growth} call site(s) left unexpanded by the per-caller inline \
             IL-growth budget"
        );
        sink.remark(text, Span::none());
    }
}

/// Compiles and immediately runs `entry` on a Titan with the given
/// configuration — the one-call path used by examples and benchmarks.
///
/// # Errors
///
/// Returns the compile error or the simulator fault as a string.
pub fn compile_and_run(
    src: &str,
    options: &Options,
    machine: titanc_titan::MachineConfig,
    entry: &str,
) -> Result<titanc_titan::RunResult, String> {
    let c = compile(src, options).map_err(|e| e.to_string())?;
    let mut sim = titanc_titan::Simulator::new(&c.program, machine);
    sim.run(entry, &[]).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests;
