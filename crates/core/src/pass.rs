//! The pass manager.
//!
//! Every transformation of the compiler — the §5 scalar optimizations, the
//! §9 vectorizer, the §6 dependence-driven scalar improvements and the §7
//! inliner — runs behind one of two uniform interfaces. Whole-program
//! transformations (the inliner, which moves code *between* procedures)
//! implement [`Pass`]; everything else is a per-procedure transformation
//! and implements [`ProcPass`]. A [`Pipeline`] is the declarative
//! description of one compilation strategy: `-O1` and `-O2` are nothing
//! more than different pipeline constructions (see
//! [`Pipeline::for_options`]), mirroring the paper's presentation of the
//! compiler as a fixed sequence of cooperating phases.
//!
//! ## Parallel per-procedure execution
//!
//! Maximal runs of consecutive [`ProcPass`] stages are grouped: each
//! procedure is sent through the *whole group* as one unit of work, and
//! the procedures fan out across [`Options::jobs`] worker threads
//! (`std::thread::scope`, no runtime dependency). Each unit carries the
//! procedure, its [`ProcAnalyses`] cache slot, and produces a
//! [`ProcResult`]: per-pass deltas, timings, cache counters and
//! snapshots. Results are merged **in procedure order, pass-major**, and
//! the serial path (`jobs = 1`) runs the exact same per-procedure chain,
//! so `-j 1` and `-j N` produce byte-identical programs, reports, traces
//! and snapshot sequences.
//!
//! ## The generation-keyed analysis cache
//!
//! Each worker threads a [`ProcAnalyses`] slot through its procedure's
//! pass chain. Passes request the CFG, use–def chains, liveness,
//! dominators, or loop nest from the slot; artifacts are memoized keyed
//! to the procedure's *generation counter*, which every mutating pass
//! bumps (the manager bumps defensively when a pass reports a change
//! without moving the counter). Passes performing only pure expression
//! rewrites repair instead of invalidating ([`ProcAnalyses::rekey`] —
//! the §5.2 incremental use–def maintenance). Per-pass cache counters
//! land in [`PassRecord::cache`].
//!
//! Running a pipeline produces three artifacts beyond the transformed
//! program:
//!
//! * a [`PassTrace`] with one [`PassRecord`] per executed pass — its
//!   wall-clock duration (summed across workers for parallel groups), the
//!   per-pass *delta* of the aggregate [`Reports`], and the cache
//!   hit/build counters, so regressions in compile time, pass
//!   effectiveness, or cache effectiveness are visible per pass;
//! * typed [`Snapshot`]s (when [`Options::snapshots`] is set) of every
//!   procedure **whose generation moved** during a pass — the §9
//!   walkthrough artifacts, now without identical copies of untouched
//!   procedures;
//! * verifier coverage: procedures whose generation moved are re-checked
//!   with [`titanc_il::verify_proc`] after the pass that moved them (in
//!   debug builds, and in release builds when [`Options::verify`] is
//!   set); a final whole-program [`titanc_il::verify_program`] closes the
//!   run when anything changed. Unchanged procedures skip re-verification
//!   entirely.

use std::any::Any;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

use titanc_analysis::{AnalysisCache, CacheStats, ProcAnalyses};
use titanc_il::{Procedure, Program};

use crate::{OptLevel, Options, Reports, VectorOptions};

/// Read-only context handed to every pass.
pub struct PassContext<'a> {
    /// The compilation options the pipeline was built from.
    pub options: &'a Options,
}

/// What a pass did, as far as the manager is concerned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PassOutcome {
    /// True when the pass changed the program.
    pub changed: bool,
}

impl PassOutcome {
    /// An outcome flagged as having changed the program.
    pub fn changed() -> PassOutcome {
        PassOutcome { changed: true }
    }

    /// An outcome flagged as a no-op.
    pub fn unchanged() -> PassOutcome {
        PassOutcome { changed: false }
    }
}

/// A whole-program transformation.
///
/// A pass transforms the whole [`Program`] and accounts for its work by
/// merging counts into `delta`, a fresh [`Reports`] value the manager
/// aggregates and records in the [`PassTrace`]. Implement this directly
/// only for transformations that must see every procedure at once (the
/// inliner); per-procedure transformations should implement [`ProcPass`]
/// instead, which provides `Pass` via a blanket impl and additionally
/// runs in parallel inside pipelines.
pub trait Pass {
    /// Stable pass name, used in traces, snapshots and `--stats` output.
    fn name(&self) -> &'static str;

    /// Transforms `program`, recording statistics into `delta`.
    fn run(&self, program: &mut Program, cx: &PassContext<'_>, delta: &mut Reports) -> PassOutcome;
}

/// A per-procedure transformation — the parallel unit of the pipeline.
///
/// The manager fans procedures across worker threads, so implementations
/// must be `Sync` (they are shared by reference; all the built-in passes
/// are stateless unit structs). `analyses` is the procedure's
/// generation-keyed cache slot: request analyses from it instead of
/// building them, and keep the generation honest — bump it on mutation
/// (or let the underlying transformation do so), `rekey` after pure
/// expression rewrites, `invalidate` after structural edits.
pub trait ProcPass: Sync {
    /// Stable pass name, used in traces, snapshots and `--stats` output.
    fn name(&self) -> &'static str;

    /// Transforms one procedure, recording statistics into `delta`.
    fn run_on(
        &self,
        proc: &mut Procedure,
        cx: &PassContext<'_>,
        analyses: &mut ProcAnalyses,
        delta: &mut Reports,
    ) -> PassOutcome;
}

/// Every per-procedure pass is also a whole-program pass: loop over the
/// procedures serially with throwaway cache slots. This keeps custom
/// pipelines built with [`Pipeline::push`] working unchanged; pipelines
/// built with [`Pipeline::push_proc`] (and [`Pipeline::for_options`]) get
/// the parallel, cache-threading execution instead.
impl<T: ProcPass> Pass for T {
    fn name(&self) -> &'static str {
        ProcPass::name(self)
    }

    fn run(&self, program: &mut Program, cx: &PassContext<'_>, delta: &mut Reports) -> PassOutcome {
        let mut changed = false;
        for proc in &mut program.procs {
            let mut analyses = ProcAnalyses::new();
            changed |= self.run_on(proc, cx, &mut analyses, delta).changed;
        }
        PassOutcome { changed }
    }
}

/// One executed pass in a [`PassTrace`].
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// The pass name.
    pub name: &'static str,
    /// Wall-clock time the pass took (summed across procedures for
    /// parallel per-procedure groups, so it stays comparable between
    /// `-j 1` and `-j N`). Skipped (pass × procedure) cells contribute
    /// exactly zero; faulted cells contribute the time spent before the
    /// fault was contained.
    pub duration: Duration,
    /// The statistics this pass alone contributed.
    pub delta: Reports,
    /// Whether the pass reported changing the program.
    pub changed: bool,
    /// Analysis-cache counters this pass alone contributed (always zero
    /// for whole-program passes, which do not thread the cache).
    pub cache: CacheStats,
    /// Procedures that skipped this pass because an earlier pass had
    /// already degraded them (their cells carry zero duration).
    pub skipped_procs: usize,
    /// Procedures on which this pass itself faulted (panic or verifier
    /// rejection) and was rolled back.
    pub faulted_procs: usize,
}

/// One (pass × procedure) execution interval, stamped against the
/// pipeline's start instant — the raw material of `--trace-json`'s Chrome
/// trace-event export. Unlike [`PassRecord`]s and [`Reports`], the
/// timeline is *timing* data: wall-clock offsets and worker-lane
/// assignments legitimately differ between runs and between `-j` values.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// The pass that ran.
    pub pass: &'static str,
    /// The procedure it ran on (empty for whole-program passes).
    pub proc: String,
    /// Worker lane: `0` for the main thread (serial groups and
    /// whole-program passes), `1..=N` for parallel group workers.
    pub lane: usize,
    /// Offset of the execution's start from the pipeline's start.
    pub start: Duration,
    /// How long the execution took.
    pub duration: Duration,
}

/// Why a pass execution was abandoned and rolled back.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IncidentKind {
    /// The pass panicked (an `unwrap`, index, or `panic!` deep in the
    /// optimizer). The worker caught the unwind; nothing escaped.
    Panic,
    /// The pass completed but left IL the inter-pass verifier rejects.
    VerifyFailed,
}

impl std::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IncidentKind::Panic => "panic",
            IncidentKind::VerifyFailed => "verifier rejection",
        })
    }
}

/// A contained pass failure: the fault, where it happened, and the fact
/// that the procedure was rolled back to its last-verified IL.
///
/// Incidents are the pass manager's fail-soft currency. A pass that
/// panics or produces unverifiable IL no longer aborts the compilation
/// (or poisons a worker thread): the (pass × procedure) execution is
/// abandoned, the procedure reverts to the IL that last passed
/// verification, the procedure is marked *degraded* — its remaining
/// optimization passes are skipped, mirroring the paper's "simply fails
/// to vectorize" degradation — and the incident is recorded here. The
/// driver decides whether incidents are fatal (`--strict`) or merely
/// reported.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PassIncident {
    /// The pass that faulted.
    pub pass: &'static str,
    /// The procedure being transformed (`None` for whole-program passes
    /// and the final program-level verification).
    pub proc: Option<String>,
    /// What kind of fault was contained.
    pub kind: IncidentKind,
    /// The panic message or the verifier's rendered violation list.
    pub detail: String,
}

impl std::fmt::Display for PassIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.proc {
            Some(p) => write!(
                f,
                "{} in pass `{}` on `{}` (rolled back): {}",
                self.kind, self.pass, p, self.detail
            ),
            None => write!(
                f,
                "{} in pass `{}` (rolled back): {}",
                self.kind, self.pass, self.detail
            ),
        }
    }
}

/// The per-pass execution record of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PassTrace {
    /// One record per executed pass, in execution order.
    pub records: Vec<PassRecord>,
    /// Contained faults, in (pass, procedure) order. Empty on a healthy
    /// compilation.
    pub incidents: Vec<PassIncident>,
    /// Per-(pass × procedure) execution intervals with worker-lane
    /// assignments, for the Chrome trace-event export. Merged in
    /// procedure order, but the *timestamps inside* are genuine
    /// wall-clock data and vary run to run — tools must not expect this
    /// to be reproducible the way [`PassTrace::records`] is.
    pub timeline: Vec<WorkItem>,
    /// Wall clock of the whole [`Pipeline::run`] (timing data): at `-j 1`,
    /// what it exceeds [`PassTrace::total_duration`] by sat between passes.
    pub wall: Duration,
}

impl PassTrace {
    /// True when any pass faulted (and was contained) during the run.
    pub fn has_incidents(&self) -> bool {
        !self.incidents.is_empty()
    }

    /// The position of the first record with the given pass name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.records.iter().position(|r| r.name == name)
    }

    /// The first record with the given pass name.
    pub fn record(&self, name: &str) -> Option<&PassRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Total wall-clock time across all passes.
    pub fn total_duration(&self) -> Duration {
        self.records.iter().map(|r| r.duration).sum()
    }

    /// Analysis-cache counters summed across all passes.
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for r in &self.records {
            total.merge(&r.cache);
        }
        total
    }
}

/// A pretty-printed procedure image captured after one phase.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot {
    /// The phase that just ran (`"lower"` or a pass name).
    pub phase: String,
    /// The procedure name.
    pub proc: String,
    /// The pretty-printed IL.
    pub il: String,
}

/// Captures a snapshot of every procedure under the given phase name.
pub(crate) fn snapshot_all(phase: &str, program: &Program, out: &mut Vec<Snapshot>) {
    for p in &program.procs {
        out.push(Snapshot {
            phase: phase.to_string(),
            proc: p.name.clone(),
            il: titanc_il::pretty_proc(p),
        });
    }
}

/// Whole-program IL verification, rendered for diagnostics. The seed
/// `panic!`ed here ("internal compiler error"); the fail-soft pipeline
/// instead routes violations through the [`PassIncident`] rollback path.
pub(crate) fn verify_program_check(program: &Program) -> Result<(), String> {
    titanc_il::verify_program(program).map_err(|errors| render_violations(&errors))
}

/// Per-procedure flavour of [`verify_program_check`] for the parallel
/// path; also the gate every cache-replayed procedure passes before it
/// is trusted (a parseable-but-wrong entry must demote to a cold miss).
pub(crate) fn verify_proc_check(proc: &Procedure) -> Result<(), String> {
    titanc_il::verify_proc(proc).map_err(|errors| render_violations(&errors))
}

fn render_violations(errors: &[impl ToString]) -> String {
    let rendered: Vec<String> = errors.iter().map(ToString::to_string).collect();
    rendered.join("; ")
}

thread_local! {
    /// True while this thread is inside a contained pass execution; the
    /// chained panic hook stays silent for panics that will be caught,
    /// converted to a [`PassIncident`] and reported once, properly.
    static CONTAINING: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that delegates to the
/// previous hook unless the panicking thread is inside a contained pass.
/// Without this, every contained fault would still splat a backtrace on
/// stderr before the incident report.
fn install_containment_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINING.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` under `catch_unwind` with the containment hook engaged, so a
/// caught panic does not echo through the default hook.
pub(crate) fn contain<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    install_containment_hook();
    // restored, not cleared: a request's containment wraps its passes'
    let outer = CONTAINING.with(|c| c.replace(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    CONTAINING.with(|c| c.set(outer));
    result
}

/// Renders a caught panic payload (the `&str`/`String` carried by almost
/// every `panic!`/`unwrap`) for the incident record.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One stage of a pipeline: a whole-program pass, or a per-procedure pass
/// eligible for parallel grouped execution.
enum Stage {
    Program(Box<dyn Pass>),
    Proc(Box<dyn ProcPass>),
}

impl Stage {
    fn name(&self) -> &'static str {
        match self {
            Stage::Program(p) => p.name(),
            Stage::Proc(p) => ProcPass::name(&**p),
        }
    }
}

/// What one procedure produced from one grouped per-procedure chain.
struct ProcResult {
    /// One cell per pass in the group, in group order.
    cells: Vec<PassCell>,
    /// Snapshots taken along the chain: (group pass index, snapshot).
    snaps: Vec<(usize, Snapshot)>,
    /// Execution intervals for the passes that actually ran.
    items: Vec<WorkItem>,
    /// The procedure's generation when the chain finished.
    final_gen: u64,
    /// The contained fault, if one happened: (group pass index, record).
    /// Set at most once — the chain degrades after the first fault.
    incident: Option<(usize, PassIncident)>,
}

/// How one (pass × procedure) cell was accounted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CellStatus {
    /// The pass ran to completion (changed or not).
    Ran,
    /// The pass faulted on this procedure and was rolled back; the cell
    /// keeps the time spent before containment.
    Faulted,
    /// The pass never ran — the procedure was already degraded. Skipped
    /// cells always carry [`Duration::ZERO`] so per-pass durations stay
    /// comparable across `-j` values and across healthy/degraded runs.
    Skipped,
}

struct PassCell {
    duration: Duration,
    delta: Reports,
    changed: bool,
    cache: CacheStats,
    status: CellStatus,
}

impl PassCell {
    /// The cell recorded for a pass that was skipped outright because the
    /// procedure was already degraded. No work happened, so no time is
    /// charged — previously the two skip paths disagreed (zero here,
    /// elapsed time on the fault path), which made `duration` drift
    /// depending on where in the chain a fault landed.
    fn skipped() -> PassCell {
        PassCell {
            duration: Duration::ZERO,
            delta: Reports::default(),
            changed: false,
            cache: CacheStats::default(),
            status: CellStatus::Skipped,
        }
    }

    /// The cell recorded for the pass execution that faulted (and rolled
    /// back). The time spent before containment is real work and stays
    /// charged to the pass.
    fn faulted(duration: Duration) -> PassCell {
        PassCell {
            duration,
            delta: Reports::default(),
            changed: false,
            cache: CacheStats::default(),
            status: CellStatus::Faulted,
        }
    }
}

/// One recorded (pass × procedure) execution in a form the incremental
/// session cache can serialize and replay: the statistics delta the pass
/// contributed, whether it changed the procedure, and its analysis-cache
/// activity. Durations are deliberately absent — they are wall-clock data
/// and replay as [`Duration::ZERO`], keeping everything the opt report
/// derives from a warm run byte-identical to the cold run.
#[derive(Clone, Debug, Default)]
pub struct RecordedCell {
    /// The pass name (matched against the pipeline's static pass names on
    /// replay; the session cache key includes the pipeline fingerprint,
    /// so a mismatch means a stale entry and the chain runs for real).
    pub pass: String,
    /// The statistics delta the pass contributed to this procedure.
    pub delta: Reports,
    /// Whether the pass changed the procedure.
    pub changed: bool,
    /// The analysis-cache counters of the original execution.
    pub cache: CacheStats,
}

titanc_il::struct_json!(RecordedCell, [pass, delta, changed, cache]);

/// What one cache entry holds, decoded and checked: a procedure's fully
/// optimized IL plus the per-pass cells recorded when it was last
/// compiled. Immutable once built — the compile server shares one behind
/// an `Arc` between every request that hits it.
pub struct CachedEntry {
    /// The procedure's post-pipeline IL, decoded from the cache entry.
    pub il: Procedure,
    /// Recorded cells for every per-procedure pass, in pipeline order.
    pub cells: Vec<RecordedCell>,
}

/// A cache hit for one procedure: the (possibly shared) entry plus this
/// request's own position in its cells, consumed group by group as the
/// pipeline replays it.
pub struct CachedProc {
    entry: Arc<CachedEntry>,
    /// Consumption cursor: how many cells earlier proc groups used.
    cursor: usize,
}

impl CachedProc {
    /// A replayable hit from a decoded cache entry.
    pub fn new(il: Procedure, cells: Vec<RecordedCell>) -> CachedProc {
        CachedProc::shared(Arc::new(CachedEntry { il, cells }))
    }

    /// A replayable hit on an entry other requests may be replaying too.
    pub fn shared(entry: Arc<CachedEntry>) -> CachedProc {
        CachedProc { entry, cursor: 0 }
    }
}

/// Per-procedure replay and record state for an incremental session.
///
/// The session driver seeds [`SessionReplay::hits`] with the procedures
/// whose per-procedure key (content hash plus environment and, with
/// inlining on, the arena encodings of the procedure's inline dependency
/// cone) matched a cache entry; [`Pipeline::run`]
/// substitutes their cached IL instead of running their pass chains and
/// replays the recorded cells through the normal pass-major merge — so
/// reports, traces and the opt report stay byte-identical to a cold run.
/// Procedures that miss run normally and land in
/// [`SessionReplay::recorded`] for the driver to persist; procedures
/// whose chain faulted or degraded land in
/// [`SessionReplay::uncacheable`] and must not be cached.
#[derive(Default)]
pub struct SessionReplay {
    /// Procedure name → cached result to substitute for its pass chains.
    pub hits: HashMap<String, CachedProc>,
    /// Procedure name → cells recorded from cleanly executed chains.
    pub recorded: HashMap<String, Vec<RecordedCell>>,
    /// Procedures that faulted or were degraded during this run.
    pub uncacheable: HashSet<String>,
    /// Procedures whose cached IL was actually substituted.
    pub replayed: HashSet<String>,
}

/// Runs one procedure through a group of per-procedure passes. Both the
/// serial and the parallel path execute exactly this function, which is
/// what makes `-j 1` and `-j N` byte-identical.
///
/// ## Fault isolation
///
/// Each pass runs under `catch_unwind`. On a panic — or on a verifier
/// rejection of the pass's output — the procedure is rolled back to the
/// IL the faulting pass was handed ([`roll_back`]: the chain's one
/// `entry` snapshot with the passes that ran clean replayed over it), the
/// cache slot is invalidated (artifacts built against the abandoned IL
/// must not survive the rollback), a [`PassIncident`] is recorded, and the
/// rest of the chain is skipped: the procedure is *degraded*. `entry` is
/// `None` for a procedure an earlier group already degraded — every pass
/// is skipped. Panics never cross the worker-thread boundary, so one
/// faulty procedure cannot poison the thread scope.
#[allow(clippy::too_many_arguments)]
fn run_proc_chain(
    group: &[&dyn ProcPass],
    proc: &mut Procedure,
    entry: Option<&Procedure>,
    analyses: &mut ProcAnalyses,
    cx: &PassContext<'_>,
    verify: bool,
    want_snaps: bool,
    seen_gen: u64,
    epoch: Instant,
    lane: usize,
) -> ProcResult {
    let mut cells = Vec::with_capacity(group.len());
    let mut snaps = Vec::new();
    let mut items = Vec::new();
    // the generation already covered by a snapshot + verification
    let mut last_seen = seen_gen;
    let mut incident: Option<(usize, PassIncident)> = None;
    let mut degraded = entry.is_none();
    for (k, pass) in group.iter().enumerate() {
        if degraded {
            cells.push(PassCell::skipped());
            continue;
        }
        // every debug run is a differential: the per-pass snapshot the
        // replay replaced, kept to check the replay against
        let handed = cfg!(debug_assertions).then(|| proc.clone());
        let stats_before = analyses.stats();
        let gen_before = proc.generation();
        let mut delta = Reports::default();
        let start = Instant::now();
        let start_offset = start.duration_since(epoch);
        let pname = proc.name.clone();
        let item = move |duration: Duration| WorkItem {
            pass: pass.name(),
            proc: pname.clone(),
            lane,
            start: start_offset,
            duration,
        };
        // a panic, or output the inter-pass verifier rejects, is the same
        // fault: roll back, record the incident, degrade the procedure
        let run = contain(|| pass.run_on(proc, cx, analyses, &mut delta));
        let duration = start.elapsed();
        items.push(item(duration));
        let checked = run
            .map_err(|payload| (IncidentKind::Panic, panic_message(payload.as_ref())))
            .and_then(|outcome| {
                if outcome.changed && proc.generation() == gen_before {
                    // defensive: a change must move the generation, or a
                    // later pass could be served stale analyses
                    proc.bump_generation();
                }
                if verify && proc.generation() != last_seen {
                    verify_proc_check(proc).map_err(|d| (IncidentKind::VerifyFailed, d))?;
                }
                Ok(outcome)
            });
        let outcome = match checked {
            Ok(outcome) => outcome,
            Err((kind, mut detail)) => {
                let entry = entry.expect("non-degraded chain has a rollback point");
                match roll_back(proc, entry, &group[..k], cx) {
                    Ok(()) => debug_assert!(
                        handed.is_some_and(|h| *proc == h && proc.generation() == h.generation()),
                        "replaying `{}` up to `{}` left other IL than that pass was handed",
                        proc.name,
                        pass.name()
                    ),
                    Err(why) => detail.push_str(&format!(
                        "; replaying the earlier passes failed ({why}), rolled back to the \
                         chain's entry state"
                    )),
                }
                analyses.invalidate();
                incident = Some((
                    k,
                    PassIncident {
                        pass: pass.name(),
                        proc: Some(proc.name.clone()),
                        kind,
                        detail,
                    },
                ));
                degraded = true;
                cells.push(PassCell::faulted(duration));
                continue;
            }
        };
        let cache = analyses.stats().delta_since(&stats_before);
        if proc.generation() != last_seen {
            if want_snaps {
                snaps.push((
                    k,
                    Snapshot {
                        phase: pass.name().to_string(),
                        proc: proc.name.clone(),
                        il: titanc_il::pretty_proc(proc),
                    },
                ));
            }
            last_seen = proc.generation();
        }
        cells.push(PassCell {
            duration,
            delta,
            changed: outcome.changed,
            cache,
            status: CellStatus::Ran,
        });
    }
    ProcResult {
        cells,
        snaps,
        items,
        final_gen: proc.generation(),
        incident,
    }
}

/// Restores the IL a faulting pass was handed from the chain's only
/// snapshot: `entry`, with `clean` — the passes before the faulting one,
/// deterministic functions of IL and options that already ran and
/// verified — replayed over it. A replay that itself panics leaves `proc`
/// at `entry` and returns the panic message.
fn roll_back(
    proc: &mut Procedure,
    entry: &Procedure,
    clean: &[&dyn ProcPass],
    cx: &PassContext<'_>,
) -> Result<(), String> {
    proc.clone_from(entry);
    // a scratch slot: nothing built over the abandoned IL is consulted,
    // and nothing the replay builds is accounted to a pass cell
    let mut analyses = ProcAnalyses::new();
    contain(|| {
        for pass in clean {
            let gen_before = proc.generation();
            let outcome = pass.run_on(proc, cx, &mut analyses, &mut Reports::default());
            if outcome.changed && proc.generation() == gen_before {
                proc.bump_generation();
            }
        }
    })
    .map_err(|payload| {
        proc.clone_from(entry);
        panic_message(payload.as_ref())
    })
}

/// A declarative sequence of passes.
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline { stages: Vec::new() }
    }

    /// Appends a whole-program pass (runs serially on the main thread).
    pub fn push(&mut self, pass: impl Pass + 'static) {
        self.stages.push(Stage::Program(Box::new(pass)));
    }

    /// Appends a per-procedure pass. Consecutive per-procedure passes are
    /// grouped and each procedure runs the whole group on one worker,
    /// fanned out across [`Options::jobs`] threads.
    pub fn push_proc(&mut self, pass: impl ProcPass + 'static) {
        self.stages.push(Stage::Proc(Box::new(pass)));
    }

    /// [`Pipeline::push_proc`] at stage `at`: a faulting pass *inside* a chain.
    pub fn insert_proc(&mut self, at: usize, pass: impl ProcPass + 'static) {
        self.stages.insert(at, Stage::Proc(Box::new(pass)));
    }

    /// This pipeline cut to its first `len` stages — what a procedure
    /// degraded at stage `len` must look like.
    pub fn truncated(mut self, len: usize) -> Pipeline {
        self.stages.truncate(len);
        self
    }

    /// This pipeline minus every stage called `name` — how an ablation is
    /// phrased: the shipped order with one pass taken away, never a
    /// hand-written pass list that can drift from [`Pipeline::for_options`].
    pub fn without(mut self, name: &str) -> Pipeline {
        self.stages.retain(|s| s.name() != name);
        self
    }

    /// The pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(Stage::name).collect()
    }

    /// `(whole-program stage count, per-procedure stage count)` — the
    /// session driver sizes its pass-execution accounting from this.
    pub fn stage_counts(&self) -> (usize, usize) {
        let program = self
            .stages
            .iter()
            .filter(|s| matches!(s, Stage::Program(_)))
            .count();
        (program, self.stages.len() - program)
    }

    /// Builds the pipeline the given options describe.
    ///
    /// * Inlining (§7) always runs first when enabled, so §8's
    ///   specialization opportunities exist before scalar optimization.
    /// * `-O1` is the §5.2 scalar sequence: while→DO conversion right
    ///   after use–def chains, induction-variable substitution, forward
    ///   substitution, constant propagation, dead-code elimination.
    /// * `-O2` appends the vector phase: optional §10 list spreading, the
    ///   Allen–Kennedy vectorizer, the §6 strength reduction, and a
    ///   cleanup round (forward substitution, local CSE, DCE) for the dead
    ///   index arithmetic strength reduction leaves behind.
    ///
    /// Everything after the inliner is per-procedure, so the entire
    /// scalar + vector sequence forms one parallel group.
    pub fn for_options(options: &Options) -> Pipeline {
        let mut pl = Pipeline::new();
        if options.inline {
            pl.push(InlinePass);
        }
        if options.opt == OptLevel::O0 {
            return pl;
        }
        let [whiledo, ivsub, forward, constprop, dce, cse, spread_lists, vectorize, strength] =
            PROC_PASSES;
        pl.push_proc(whiledo);
        pl.push_proc(ivsub);
        pl.push_proc(forward);
        pl.push_proc(constprop);
        pl.push_proc(dce);
        if options.opt == OptLevel::O2 {
            if options.spread_lists && options.parallelize {
                pl.push_proc(spread_lists);
            }
            pl.push_proc(vectorize);
            pl.push_proc(strength);
            pl.push_proc(forward);
            pl.push_proc(cse);
            pl.push_proc(dce);
        }
        pl
    }

    /// Runs every stage in order over `program`.
    ///
    /// Returns the aggregated [`Reports`] and the [`PassTrace`]; when
    /// [`Options::snapshots`] is set, a [`Snapshot`] of every procedure
    /// *whose generation moved* is appended to `snapshots` after the pass
    /// that moved it (pass-major, procedure order). The IL verifier runs
    /// over moved procedures in debug builds and, in release builds, when
    /// [`Options::verify`] is set.
    ///
    /// The run is *fail-soft*: a pass that panics or produces
    /// unverifiable IL is contained — the affected procedure (or, for
    /// whole-program passes, the whole program) rolls back to its
    /// last-verified IL, a [`PassIncident`] lands in the trace, and the
    /// degraded procedure skips its remaining optimization passes. The
    /// pipeline itself never panics on a pass fault and never fails:
    /// callers inspect [`PassTrace::incidents`] to decide how strict to
    /// be.
    ///
    /// With a `session`, procedures that have a seeded hit skip their
    /// per-procedure pass chains — their cached IL is substituted and
    /// their recorded cells replay through the normal pass-major merge,
    /// so the output (program, reports, opt report) is byte-identical to
    /// a cold run — and cleanly executed chains are recorded into it for
    /// the driver to persist. Without one, nothing is replayed or
    /// recorded.
    pub fn run(
        &self,
        program: &mut Program,
        options: &Options,
        snapshots: &mut Vec<Snapshot>,
        mut session: Option<&mut SessionReplay>,
    ) -> (Reports, PassTrace) {
        let cx = PassContext { options };
        let verify = cfg!(debug_assertions) || options.verify;
        let want_snaps = options.snapshots;
        let jobs = options.effective_jobs();
        // every timeline interval is an offset from this instant
        let epoch = Instant::now();
        let mut reports = Reports::default();
        let mut trace = PassTrace::default();
        let mut cache = AnalysisCache::with_procs(program.procs.len());
        // generation already covered by snapshot/verification, per proc
        // (the "lower" snapshot + verify ran before the pipeline)
        let mut seen_gens: Vec<u64> = program.procs.iter().map(Procedure::generation).collect();
        let initial_gens = seen_gens.clone();
        // procedures that faulted: their remaining passes are skipped
        let mut degraded: Vec<bool> = vec![false; program.procs.len()];

        let mut i = 0;
        while i < self.stages.len() {
            match &self.stages[i] {
                Stage::Program(pass) => {
                    run_program_stage(
                        &**pass,
                        program,
                        &cx,
                        verify,
                        want_snaps,
                        epoch,
                        &mut cache,
                        &mut seen_gens,
                        &mut degraded,
                        &mut reports,
                        &mut trace,
                        snapshots,
                    );
                    i += 1;
                }
                Stage::Proc(_) => {
                    let mut j = i;
                    while j < self.stages.len() && matches!(self.stages[j], Stage::Proc(_)) {
                        j += 1;
                    }
                    let group: Vec<&dyn ProcPass> = self.stages[i..j]
                        .iter()
                        .map(|s| match s {
                            Stage::Proc(p) => &**p,
                            Stage::Program(_) => unreachable!("group holds only proc stages"),
                        })
                        .collect();
                    run_proc_group(
                        &group,
                        program,
                        &cx,
                        verify,
                        want_snaps,
                        jobs,
                        epoch,
                        &mut cache,
                        &mut seen_gens,
                        &mut degraded,
                        &mut reports,
                        &mut trace,
                        snapshots,
                        session.as_deref_mut(),
                    );
                    i = j;
                }
            }
        }

        // per-proc verification skips program-level invariants (call
        // targets, globals); close the run with one whole-program check
        // when anything moved
        let moved = seen_gens != initial_gens;
        if verify && moved {
            if let Err(detail) = verify_program_check(program) {
                trace.incidents.push(PassIncident {
                    pass: "pipeline",
                    proc: None,
                    kind: IncidentKind::VerifyFailed,
                    detail,
                });
            }
        }
        trace.wall = epoch.elapsed();
        (reports, trace)
    }
}

/// Runs one whole-program stage, keeping the generation bookkeeping
/// honest: a pass that reports a change without moving any generation
/// gets every procedure bumped defensively, and snapshots/verification
/// cover exactly the procedures whose generation moved.
///
/// Whole-program passes are isolated at program granularity: on a panic
/// or a verifier rejection the *entire program* rolls back to its state
/// before the pass (there is no narrower verified unit — the pass may
/// have moved code between procedures), an incident is recorded, and the
/// pipeline continues with the remaining stages. No procedure is marked
/// degraded: the rolled-back program is exactly the verified pre-pass
/// state.
#[allow(clippy::too_many_arguments)]
fn run_program_stage(
    pass: &dyn Pass,
    program: &mut Program,
    cx: &PassContext<'_>,
    verify: bool,
    want_snaps: bool,
    epoch: Instant,
    cache: &mut AnalysisCache,
    seen_gens: &mut Vec<u64>,
    degraded: &mut Vec<bool>,
    reports: &mut Reports,
    trace: &mut PassTrace,
    snapshots: &mut Vec<Snapshot>,
) {
    let gens_before: Vec<u64> = program.procs.iter().map(Procedure::generation).collect();
    let backup = program.clone();
    let mut delta = Reports::default();
    let start = Instant::now();
    let start_offset = start.duration_since(epoch);
    let run = contain(|| pass.run(program, cx, &mut delta));
    let duration = start.elapsed();
    trace.timeline.push(WorkItem {
        pass: pass.name(),
        proc: String::new(),
        lane: 0,
        start: start_offset,
        duration,
    });
    let checked = run
        .map_err(|payload| (IncidentKind::Panic, panic_message(payload.as_ref())))
        .and_then(|outcome| {
            let moved = program.procs.len() != gens_before.len()
                || program
                    .procs
                    .iter()
                    .zip(&gens_before)
                    .any(|(p, g)| p.generation() != *g);
            if outcome.changed && !moved {
                // defensive: the pass mutated something without stamping it
                for p in &mut program.procs {
                    p.bump_generation();
                }
            }
            if verify && (moved || outcome.changed) {
                verify_program_check(program).map_err(|d| (IncidentKind::VerifyFailed, d))?;
            }
            Ok(outcome)
        });
    let outcome = match checked {
        Ok(outcome) => outcome,
        Err((kind, detail)) => {
            *program = backup;
            for slot in cache.slots_mut() {
                slot.invalidate();
            }
            trace.incidents.push(PassIncident {
                pass: pass.name(),
                proc: None,
                kind,
                detail,
            });
            trace.records.push(PassRecord {
                name: pass.name(),
                duration,
                delta: Reports::default(),
                changed: false,
                cache: CacheStats::default(),
                skipped_procs: 0,
                faulted_procs: 0,
            });
            return;
        }
    };
    cache.ensure(program.procs.len());
    // procedures the pass introduced count as never-seen (and healthy)
    if seen_gens.len() < program.procs.len() {
        seen_gens.resize(program.procs.len(), u64::MAX);
    }
    seen_gens.truncate(program.procs.len());
    if degraded.len() < program.procs.len() {
        degraded.resize(program.procs.len(), false);
    }
    degraded.truncate(program.procs.len());
    if want_snaps {
        for (idx, p) in program.procs.iter().enumerate() {
            if p.generation() != seen_gens[idx] {
                snapshots.push(Snapshot {
                    phase: pass.name().to_string(),
                    proc: p.name.clone(),
                    il: titanc_il::pretty_proc(p),
                });
            }
        }
    }
    for (idx, p) in program.procs.iter().enumerate() {
        seen_gens[idx] = p.generation();
    }

    reports.merge(delta.clone());
    trace.records.push(PassRecord {
        name: pass.name(),
        duration,
        delta,
        changed: outcome.changed,
        cache: CacheStats::default(),
        skipped_procs: 0,
        faulted_procs: 0,
    });
}

/// Fans the procedures across worker threads, each running the whole
/// group of per-procedure passes, then merges the results in procedure
/// order so the output is independent of scheduling.
#[allow(clippy::too_many_arguments)]
fn run_proc_group(
    group: &[&dyn ProcPass],
    program: &mut Program,
    cx: &PassContext<'_>,
    verify: bool,
    want_snaps: bool,
    jobs: usize,
    epoch: Instant,
    cache: &mut AnalysisCache,
    seen_gens: &mut Vec<u64>,
    degraded: &mut Vec<bool>,
    reports: &mut Reports,
    trace: &mut PassTrace,
    snapshots: &mut Vec<Snapshot>,
    mut session: Option<&mut SessionReplay>,
) {
    let n = program.procs.len();
    cache.ensure(n);
    if seen_gens.len() < n {
        seen_gens.resize(n, u64::MAX);
    }
    if degraded.len() < n {
        degraded.resize(n, false);
    }

    let mut results: Vec<Option<ProcResult>> = Vec::new();
    results.resize_with(n, || None);

    // session replay: a procedure with a cache hit skips its chain — the
    // cached post-pipeline IL replaces it and the recorded cells feed the
    // pass-major merge below exactly as live cells would, so a warm run
    // merges to byte-identical reports and traces (durations excepted:
    // replayed cells charge zero time)
    let mut replayed_now = vec![false; n];
    if let Some(sess) = session.as_deref_mut() {
        let slots = cache.slots_mut();
        for (idx, (proc, out)) in program.procs.iter_mut().zip(results.iter_mut()).enumerate() {
            if degraded[idx] {
                continue;
            }
            let Some(hit) = sess.hits.get_mut(&proc.name) else {
                continue;
            };
            let end = hit.cursor + group.len();
            let entry = &hit.entry;
            let names_match = end <= entry.cells.len()
                && group
                    .iter()
                    .enumerate()
                    .all(|(k, p)| entry.cells[hit.cursor + k].pass == p.name());
            if !names_match {
                // stale or truncated entry — run the chain for real
                continue;
            }
            let cells = entry.cells[hit.cursor..end]
                .iter()
                .map(|c| PassCell {
                    duration: Duration::ZERO,
                    delta: c.delta.clone(),
                    changed: c.changed,
                    cache: c.cache,
                    status: CellStatus::Ran,
                })
                .collect();
            let mut il = entry.il.clone();
            hit.cursor = end;
            // land strictly past the generation already covered so the
            // closing whole-program verify re-checks the substituted IL
            while il.generation() <= seen_gens[idx] {
                il.bump_generation();
            }
            let final_gen = il.generation();
            *proc = il;
            // artifacts built against the pre-substitution IL are stale
            slots[idx].invalidate();
            *out = Some(ProcResult {
                cells,
                snaps: Vec::new(),
                items: Vec::new(),
                final_gen,
                incident: None,
            });
            replayed_now[idx] = true;
            sess.replayed.insert(proc.name.clone());
        }
    }

    type Task<'t> = (
        u64,
        bool,
        &'t mut Procedure,
        &'t mut ProcAnalyses,
        &'t mut Option<ProcResult>,
    );
    let tasks: Vec<Task<'_>> = program
        .procs
        .iter_mut()
        .zip(cache.slots_mut().iter_mut())
        .zip(results.iter_mut())
        .enumerate()
        .filter(|(_, ((_, _), out))| out.is_none())
        .map(|(idx, ((proc, slot), out))| (seen_gens[idx], degraded[idx], proc, slot, out))
        .collect();

    // more worker threads than hardware threads only adds scheduler churn
    // to a CPU-bound pipeline, so the request is capped at the machine's
    // available parallelism (and at the task count — spare workers would
    // find an empty queue and exit immediately anyway)
    let avail = thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workers = jobs.min(avail).clamp(1, tasks.len().max(1));
    // one procedure's chain: the same call on the serial and the worker path
    let chain =
        |proc: &mut Procedure, entry: Option<&Procedure>, slot: &mut ProcAnalyses, seen, lane| {
            run_proc_chain(
                group, proc, entry, slot, cx, verify, want_snaps, seen, epoch, lane,
            )
        };
    if workers <= 1 {
        for (seen, skip, proc, slot, out) in tasks {
            // the chain's one rollback snapshot
            let entry = (!skip).then(|| proc.clone());
            *out = Some(chain(proc, entry.as_ref(), slot, seen, 0));
        }
    } else {
        let queue = Mutex::new(tasks.into_iter());
        thread::scope(|s| {
            for lane in 1..=workers {
                let (queue, chain) = (&queue, &chain);
                s.spawn(move || loop {
                    // take the lock only to pop; run outside it
                    let task = queue.lock().unwrap().next();
                    match task {
                        Some((seen, skip, proc, slot, out)) => {
                            // run the chain on a worker-local clone: the
                            // passes' allocation churn then stays in this
                            // thread's malloc arena instead of contending
                            // for the main thread's (the procedure itself
                            // was built there), and the original is freed
                            // in one sweep at write-back — until when it
                            // is the chain's rollback snapshot. Faults
                            // inside the chain are caught there, so a
                            // panicking pass cannot poison this scope.
                            let mut local = proc.clone();
                            let entry = (!skip).then_some(&*proc);
                            *out = Some(chain(&mut local, entry, slot, seen, lane));
                            *proc = local;
                        }
                        None => break,
                    }
                });
            }
        });
    }

    let results: Vec<ProcResult> = results
        .into_iter()
        .map(|r| r.expect("every procedure ran its pass chain"))
        .collect();

    // merge pass-major, procedure order: identical for any worker count
    for (k, pass) in group.iter().enumerate() {
        let mut delta = Reports::default();
        let mut duration = Duration::ZERO;
        let mut changed = false;
        let mut cache_stats = CacheStats::default();
        let mut skipped_procs = 0usize;
        let mut faulted_procs = 0usize;
        for r in &results {
            let cell = &r.cells[k];
            delta.merge(cell.delta.clone());
            duration += cell.duration;
            changed |= cell.changed;
            cache_stats.merge(&cell.cache);
            match cell.status {
                CellStatus::Ran => {}
                CellStatus::Faulted => faulted_procs += 1,
                CellStatus::Skipped => skipped_procs += 1,
            }
        }
        if want_snaps {
            for r in &results {
                for (ki, snap) in &r.snaps {
                    if *ki == k {
                        snapshots.push(snap.clone());
                    }
                }
            }
        }
        reports.merge(delta.clone());
        trace.records.push(PassRecord {
            name: ProcPass::name(*pass),
            duration,
            delta,
            changed,
            cache: cache_stats,
            skipped_procs,
            faulted_procs,
        });
        // incidents surface pass-major, procedure order — the same
        // deterministic merge as everything else, so `-j 1` and `-j N`
        // report identical traces
        for r in &results {
            if let Some((ki, inc)) = &r.incident {
                if *ki == k {
                    trace.incidents.push(inc.clone());
                }
            }
        }
    }
    for (idx, r) in results.iter().enumerate() {
        seen_gens[idx] = r.final_gen;
        if r.incident.is_some() {
            degraded[idx] = true;
        }
    }
    // record cleanly executed chains for the session cache; anything
    // faulted, skipped, or only partially replayed must not be persisted
    if let Some(sess) = session {
        for (idx, r) in results.iter().enumerate() {
            if replayed_now[idx] {
                continue;
            }
            let name = &program.procs[idx].name;
            let clean = r.incident.is_none()
                && !degraded[idx]
                && r.cells.iter().all(|c| c.status == CellStatus::Ran)
                && !sess.replayed.contains(name);
            if clean {
                let rec = sess.recorded.entry(name.clone()).or_default();
                for (k, cell) in r.cells.iter().enumerate() {
                    rec.push(RecordedCell {
                        pass: group[k].name().to_string(),
                        delta: cell.delta.clone(),
                        changed: cell.changed,
                        cache: cell.cache,
                    });
                }
            } else {
                sess.recorded.remove(name);
                sess.uncacheable.insert(name.clone());
            }
        }
    }
    // the timeline is appended in procedure order too; the timestamps
    // inside are wall-clock data and carry the real worker interleaving
    for r in &results {
        trace.timeline.extend(r.items.iter().cloned());
    }
}

impl Default for Pipeline {
    fn default() -> Pipeline {
        Pipeline::new()
    }
}

/// §7 inline expansion (runs before scalar optimization). Whole-program:
/// it moves code between procedures, so it cannot be a [`ProcPass`].
pub struct InlinePass;

impl Pass for InlinePass {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&self, program: &mut Program, cx: &PassContext<'_>, delta: &mut Reports) -> PassOutcome {
        let r = titanc_inline::inline_program(program, &cx.options.inline_opts);
        let changed = r.inlined > 0 || r.statics_externalized > 0;
        delta.inline.merge(r);
        PassOutcome { changed }
    }
}

/// One row of [`PROC_PASSES`]: the stable pass name, the transformation
/// (its report placed in the matching [`Reports`] slot), and the
/// predicate that reads "the procedure changed" off that report.
#[derive(Clone, Copy)]
struct TablePass {
    name: &'static str,
    run: fn(&mut Procedure, &PassContext<'_>, &mut ProcAnalyses) -> Reports,
    changed: fn(&Reports) -> bool,
}

impl ProcPass for TablePass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run_on(
        &self,
        proc: &mut Procedure,
        cx: &PassContext<'_>,
        analyses: &mut ProcAnalyses,
        delta: &mut Reports,
    ) -> PassOutcome {
        let r = (self.run)(proc, cx, analyses);
        let changed = (self.changed)(&r);
        delta.merge(r);
        PassOutcome { changed }
    }
}

/// The built-in per-procedure passes, in the order
/// [`Pipeline::for_options`] destructures them: §5.2 while→DO conversion,
/// §5.2 induction-variable substitution with backtracking, forward
/// substitution of single-use scalar definitions, §8 constant propagation
/// with the unreachable-code heuristic, dead-code elimination, local
/// common-subexpression elimination, §10 linked-list loop spreading
/// (opt-in future work), the §9 Allen–Kennedy vectorizer (with strip
/// mining and `do parallel`), and the §6 dependence-driven scalar
/// optimizations.
const PROC_PASSES: [TablePass; 9] = [
    TablePass {
        name: "whiledo",
        run: |p, _, a| Reports {
            whiledo: titanc_opt::convert_while_loops_cached(p, a),
            ..Reports::default()
        },
        changed: |r| r.whiledo.converted > 0,
    },
    TablePass {
        name: "ivsub",
        run: |p, _, _| Reports {
            ivsub: titanc_opt::induction_substitution(p),
            ..Reports::default()
        },
        changed: |r| r.ivsub.substituted > 0,
    },
    TablePass {
        name: "forward",
        run: |p, _, _| Reports {
            forward: titanc_opt::forward_substitute(p),
            ..Reports::default()
        },
        changed: |r| r.forward.substituted > 0,
    },
    TablePass {
        name: "constprop",
        run: |p, _, a| Reports {
            constprop: titanc_opt::constant_propagation_cached(p, a),
            ..Reports::default()
        },
        changed: |r| r.constprop.replaced > 0 || r.constprop.removed > 0,
    },
    TablePass {
        name: "dce",
        run: |p, _, a| Reports {
            dce: titanc_opt::eliminate_dead_code_cached(p, a),
            ..Reports::default()
        },
        changed: |r| r.dce.removed > 0,
    },
    TablePass {
        name: "cse",
        run: |p, _, _| Reports {
            cse: titanc_opt::local_cse(p),
            ..Reports::default()
        },
        changed: |r| r.cse.commoned > 0,
    },
    TablePass {
        name: "spread_lists",
        run: |p, _, _| Reports {
            spread: titanc_vector::spread_list_loops(p),
            ..Reports::default()
        },
        changed: |r| r.spread.spread > 0,
    },
    TablePass {
        name: "vectorize",
        run: |p, cx, _| {
            let vopts = VectorOptions {
                aliasing: cx.options.aliasing,
                parallelize: cx.options.parallelize,
                strip: cx.options.strip,
                max_vl: cx.options.max_vl,
            };
            Reports {
                vector: titanc_vector::vectorize(p, &vopts),
                ..Reports::default()
            }
        },
        changed: |r| r.vector.vectorized > 0 || r.vector.spread > 0,
    },
    TablePass {
        name: "strength",
        run: |p, cx, _| Reports {
            strength: titanc_vector::strength_reduce(p, cx.options.aliasing),
            ..Reports::default()
        },
        changed: |r| r.strength.promoted > 0 || r.strength.reduced > 0 || r.strength.hoisted > 0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// After a rollback nothing built over the abandoned IL is served: the
    /// slot is empty, and the next request builds.
    #[test]
    fn a_rollback_leaves_the_analysis_slot_empty() {
        let boom = TablePass {
            name: "boom",
            run: |p, _, a| {
                a.usedef(p);
                p.body.clear();
                panic!("injected fault")
            },
            changed: |_| false,
        };
        let src = "void f(int n) { while (n) n = n - 1; }";
        let mut proc = titanc_lower::compile_to_il(src).unwrap().procs.remove(0);
        let (entry, options, now) = (proc.clone(), Options::o2(), Instant::now());
        let (cx, gen) = (PassContext { options: &options }, proc.generation());
        let mut slot = ProcAnalyses::new();
        let g: [&dyn ProcPass; 2] = [&PROC_PASSES[0], &boom];
        let e = Some(&entry);
        let result = run_proc_chain(&g, &mut proc, e, &mut slot, &cx, true, false, gen, now, 0);
        assert_eq!(result.incident.expect("contained").0, 1);
        assert_eq!(proc.generation(), entry.generation() + 1, "replayed");
        assert_eq!(slot.cached_generation(), None);
        let before = slot.stats();
        slot.cfg(&proc);
        let seen = slot.stats().delta_since(&before);
        assert_eq!((seen.cfg_builds, seen.cfg_hits), (1, 0));
    }
}
