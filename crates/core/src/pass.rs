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
//! compiler as a fixed sequence of cooperating phases — and it has the
//! paper's one shape: a whole-program *prefix* (§7 inlining, or nothing)
//! followed by one per-procedure *chain*.
//!
//! ## Parallel per-procedure execution
//!
//! Each procedure is sent through the *whole chain* as one unit of work,
//! and the procedures fan out across [`Options::jobs`] lanes of the
//! crate's one worker pool (scoped threads, no runtime dependency; the
//! calling thread is lane 0). Each unit carries the
//! procedure and its `ProcSlot` — everything the manager keeps about one
//! procedure, one value at the procedure's position: its analyses, the
//! generation already snapshotted and verified, and where it stands with
//! the session cache ([`Replay`]) — and produces a `ProcResult`:
//! per-pass deltas, timings, cache counters and snapshots. Results are
//! merged **in procedure order, pass-major**, and every lane count runs
//! the same loop over the same per-procedure chain, so `-j 1` and
//! `-j N` produce byte-identical programs, reports, traces and snapshot
//! sequences.
//!
//! ## The generation-keyed analysis cache
//!
//! Each worker threads the slot's [`ProcAnalyses`] through its procedure's
//! pass chain. Passes request the CFG, use–def chains, or liveness from
//! the slot; artifacts are memoized keyed to the procedure's
//! *generation counter*, which every mutating pass bumps — the one record
//! of "changed" (a debug build asserts that a pass which changed the IL
//! moved it). Passes performing only pure expression
//! rewrites repair instead of invalidating ([`ProcAnalyses::rekey`] —
//! the §5.2 incremental use–def maintenance). Per-pass cache counters
//! land in [`PassRecord::cache`].
//!
//! Running a pipeline produces three artifacts beyond the transformed
//! program:
//!
//! * a [`PassTrace`] with one [`PassRecord`] per executed pass — its
//!   wall-clock duration (summed across workers for the chain), the
//!   per-pass *delta* of the aggregate [`Report`], and the cache
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
//!   run when anything changed, unless the session verified the program
//!   it replayed whole. Unchanged procedures skip re-verification
//!   entirely.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

use titanc_analysis::{CacheStats, ProcAnalyses};
use titanc_il::{Procedure, Program, Report};

use crate::session::Manifest;
use crate::{OptLevel, Options, VectorOptions};

/// Read-only context handed to every pass.
pub struct PassContext<'a> {
    /// The compilation options the pipeline was built from.
    pub options: &'a Options,
}

/// A whole-program transformation.
///
/// A pass transforms the whole [`Program`] and accounts for its work by
/// merging counts into `delta`, a fresh [`Report`] the manager
/// aggregates and records in the [`PassTrace`]. A pass that changes a
/// procedure bumps that procedure's generation: the manager reads
/// "changed" off the generations alone. Implement this directly
/// only for transformations that must see every procedure at once (the
/// inliner); per-procedure transformations implement [`ProcPass`]
/// instead, which runs in parallel inside pipelines.
pub trait Pass {
    /// Stable pass name, used in traces, snapshots and `--stats` output.
    fn name(&self) -> &'static str;

    /// Transforms `program`, recording statistics into `delta`.
    fn run(&self, program: &mut Program, cx: &PassContext<'_>, delta: &mut Report);
}

/// A per-procedure transformation — the parallel unit of the pipeline.
///
/// The manager fans procedures across worker threads, so implementations
/// must be `Sync` (they are shared by reference; all the built-in passes
/// are stateless unit structs). `analyses` is the procedure's
/// generation-keyed cache slot: request analyses from it instead of
/// building them, and keep the generation honest — bump it on mutation
/// (or let the underlying transformation do so), `rekey` after pure
/// expression rewrites, `invalidate` after structural edits. The bump is
/// the only way the manager learns the procedure changed.
pub trait ProcPass: Sync {
    /// Stable pass name, used in traces, snapshots and `--stats` output.
    fn name(&self) -> &'static str;

    /// Transforms one procedure, recording statistics into `delta`.
    fn run_on(
        &self,
        proc: &mut Procedure,
        cx: &PassContext<'_>,
        analyses: &mut ProcAnalyses,
        delta: &mut Report,
    );
}

/// One executed pass in a [`PassTrace`].
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// The pass name.
    pub name: &'static str,
    /// Wall-clock time the pass took (summed across procedures for
    /// per-procedure passes, so it stays comparable between
    /// `-j 1` and `-j N`). Skipped (pass × procedure) cells contribute
    /// exactly zero; faulted cells contribute the time spent before the
    /// fault was contained.
    pub duration: Duration,
    /// The statistics this pass alone contributed.
    pub delta: Report,
    /// Whether the pass moved some procedure's generation.
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
/// trace-event export. Unlike [`PassRecord`]s and [`Report`], the
/// timeline is *timing* data: wall-clock offsets and worker-lane
/// assignments legitimately differ between runs and between `-j` values.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// The pass that ran.
    pub pass: &'static str,
    /// The procedure it ran on (empty for whole-program passes).
    pub proc: String,
    /// Worker lane: `0` for the thread that runs the pipeline (every
    /// whole-program pass, and chain cells beside the other lanes),
    /// `1..N` for the pool's spawned threads at `-j N`.
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

impl Snapshot {
    /// The image of `proc` as `phase` left it.
    fn of(phase: &str, proc: &Procedure) -> Snapshot {
        Snapshot {
            phase: phase.to_string(),
            proc: proc.name.clone(),
            il: titanc_il::pretty_proc(proc),
        }
    }
}

/// Captures a snapshot of every procedure under the given phase name.
pub(crate) fn snapshot_all(phase: &str, program: &Program, out: &mut Vec<Snapshot>) {
    out.extend(program.procs.iter().map(|p| Snapshot::of(phase, p)));
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

/// `contain` for callers outside the crate: runs `f`, a panic coming back
/// as its message, without the default hook's echo. `titanc --run` wraps
/// the simulator in it, as the pipeline wraps each pass.
pub fn contain_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    contain(f).map_err(|payload| panic_message(&*payload))
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

/// A contained fault: its kind, and the panic message or the verifier's
/// rendered violation list.
type Fault = (IncidentKind, String);

/// What a pass runs over — one procedure, or the whole program — as far
/// as [`run_pass`] has to know it.
trait Unit {
    /// The generation stamp: equal stamps mean nothing moved.
    type Stamp: PartialEq;
    fn stamp(&self) -> Self::Stamp;
    fn check(&self) -> Result<(), String>;
}

impl Unit for Procedure {
    type Stamp = u64;

    fn stamp(&self) -> u64 {
        self.generation()
    }

    fn check(&self) -> Result<(), String> {
        verify_proc_check(self)
    }
}

impl Unit for Program {
    type Stamp = Vec<u64>;

    fn stamp(&self) -> Vec<u64> {
        self.procs.iter().map(Procedure::generation).collect()
    }

    fn check(&self) -> Result<(), String> {
        verify_program_check(self)
    }
}

/// The one way a pass executes: under containment and timed (the clock
/// stops before the bookkeeping), and, with `verify`, re-verified when its
/// stamp moved. Returns whether it moved — the pass changed the unit. A
/// panic and output the verifier rejects are the same fault to the caller.
fn run_pass<U: Unit>(
    unit: &mut U,
    verify: bool,
    run: impl FnOnce(&mut U),
) -> (Instant, Duration, Result<bool, Fault>) {
    let before = unit.stamp();
    let start = Instant::now();
    let ran = contain(|| run(unit));
    let duration = start.elapsed();
    let checked = ran
        .map_err(|payload| (IncidentKind::Panic, panic_message(payload.as_ref())))
        .and_then(|()| {
            let moved = unit.stamp() != before;
            if verify && moved {
                unit.check().map_err(|d| (IncidentKind::VerifyFailed, d))?;
            }
            Ok(moved)
        });
    (start, duration, checked)
}

/// What one procedure produced from the per-procedure chain.
#[derive(Default)]
struct ProcResult {
    /// One cell per pass of the chain, in chain order.
    cells: Vec<PassCell>,
    /// Snapshots taken along the chain: (chain pass index, snapshot).
    snaps: Vec<(usize, Snapshot)>,
    /// Execution intervals for the passes that actually ran.
    items: Vec<WorkItem>,
    /// The procedure's generation when the chain finished.
    final_gen: u64,
    /// The contained fault, if one happened: (chain pass index, record).
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
    delta: Report,
    changed: bool,
    cache: CacheStats,
    status: CellStatus,
}

impl PassCell {
    /// The cell of a pass skipped outright because the procedure was
    /// already degraded. No work happened, so no time is charged.
    fn skipped() -> PassCell {
        PassCell {
            duration: Duration::ZERO,
            delta: Report::default(),
            changed: false,
            cache: CacheStats::default(),
            status: CellStatus::Skipped,
        }
    }

    /// The cell of the pass execution that faulted (and rolled back). The
    /// time spent before containment is real work and stays charged.
    fn faulted(duration: Duration) -> PassCell {
        PassCell {
            duration,
            status: CellStatus::Faulted,
            ..PassCell::skipped()
        }
    }

    /// A recorded cell, replayed: it merges exactly as the live cell did,
    /// charged zero time.
    fn replayed(cell: RecordedCell) -> PassCell {
        PassCell {
            duration: Duration::ZERO,
            delta: cell.delta,
            changed: cell.changed,
            cache: cell.cache,
            status: CellStatus::Ran,
        }
    }

    /// This cell as the session cache stores it.
    fn recorded(&self, pass: &str) -> RecordedCell {
        RecordedCell {
            pass: pass.to_string(),
            delta: self.delta.clone(),
            changed: self.changed,
            cache: self.cache,
        }
    }
}

/// One recorded (pass × procedure) execution in a form the incremental
/// session cache can serialize and replay: the statistics delta the pass
/// contributed, whether it moved the procedure's generation, and its
/// analysis-cache activity. Durations are deliberately absent — they are
/// wall-clock data and replay as [`Duration::ZERO`], keeping everything
/// the opt report derives from a warm run byte-identical to the cold run.
/// (A session manifest keeps each prefix pass's record as one
/// cell too.)
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordedCell {
    /// The pass name (checked against the pipeline's per-procedure pass
    /// names where the hit is seeded; the session cache key includes the
    /// pipeline fingerprint, so a mismatch means a damaged entry).
    pub pass: String,
    /// The statistics delta the pass contributed to this procedure.
    pub delta: Report,
    /// Whether the pass moved the procedure's generation.
    pub changed: bool,
    /// The analysis-cache counters of the original execution.
    pub cache: CacheStats,
}

titanc_il::struct_wire!(RecordedCell, [pass, delta, changed, cache]);

/// What one cache entry holds, decoded and checked: a procedure's fully
/// optimized IL plus the per-pass cells recorded when it was last
/// compiled. Every load decodes its own; a replay moves the IL into the
/// procedure.
pub struct CachedEntry {
    /// The procedure's post-pipeline IL, decoded from the cache entry.
    pub il: Procedure,
    /// Recorded cells for every per-procedure pass, in pipeline order.
    pub cells: Vec<RecordedCell>,
}

/// Where one procedure stands with the incremental session cache. The
/// session driver seeds one per procedure, by position — [`Replay::Hit`]
/// where the procedure's key (content hash plus environment and, with
/// inlining on, the arena encodings of its inline dependency cone) matched
/// a cache entry, [`Replay::None`] where it missed — [`Pipeline::run`]
/// moves each through the transitions below, and the driver persists what
/// it finds afterwards: a [`Replay::Replayed`] procedure is already
/// cached, a [`Replay::Recorded`] one is published, anything else must not
/// be. An entry holds one cell per pass of the chain, so the chain replays
/// or records a procedure whole.
pub enum Replay {
    /// A miss the chain has not run over yet.
    None,
    /// A hit, validated whole where it was seeded: the entry's IL stands
    /// in for the procedure's chain and every cell replays through the
    /// normal pass-major merge — so reports, traces and the opt report
    /// stay byte-identical to a cold run.
    Hit(Box<CachedEntry>),
    /// A hit, replayed.
    Replayed,
    /// A miss whose chain ran clean: its cells.
    Recorded(Vec<RecordedCell>),
    /// Faulted, or overtaken by a prefix pass that changed the procedure
    /// count: not to be persisted. Outside a session every procedure
    /// starts here.
    Uncacheable,
}

/// What a session hands [`Pipeline::run`], and gets back: one [`Replay`]
/// per procedure, by position in [`Program::procs`], and — when every
/// procedure hit — the session [`Manifest`] that replays the prefix.
#[derive(Default)]
pub struct SessionReplay {
    /// Per-procedure states, by position.
    pub procs: Vec<Replay>,
    /// Replays the prefix instead of running it: its records merge as the
    /// live ones did, and its environment becomes the program's. The run
    /// takes it. Under verification it is handed over only once the
    /// program it makes of the hits has passed the whole-program verifier,
    /// so such a run skips its closing check.
    pub manifest: Option<Manifest>,
}

impl Replay {
    /// The chain begins: a hit hands over its entry and is
    /// [`Replay::Replayed`].
    fn take_hit(&mut self) -> Option<Box<CachedEntry>> {
        match std::mem::replace(self, Replay::Replayed) {
            Replay::Hit(entry) => Some(entry),
            other => {
                *self = other;
                None
            }
        }
    }

    /// The procedure's chain executed — `clean` when every pass ran to
    /// completion — yielding `cells`. This is the whole "must not be
    /// persisted" rule: only a miss whose chain ran clean is recorded.
    fn chain_ran(&mut self, clean: bool, cells: impl Iterator<Item = RecordedCell>) {
        *self = match self {
            Replay::None if clean => Replay::Recorded(cells.collect()),
            _ => Replay::Uncacheable,
        };
    }
}

/// What the manager keeps about one procedure for the chain — one slot per
/// procedure, at the procedure's position in [`Program::procs`].
struct ProcSlot {
    /// The generation-keyed analyses the procedure's passes share.
    analyses: ProcAnalyses,
    /// The generation already covered by a snapshot and verification.
    seen_gen: u64,
    /// Where the procedure stands with the session cache.
    replay: Replay,
}

impl ProcSlot {
    fn new(seen_gen: u64, replay: Replay) -> ProcSlot {
        ProcSlot {
            analyses: ProcAnalyses::new(),
            seen_gen,
            replay,
        }
    }

    /// Session replay: a procedure with a hit skips its chain — the cached
    /// post-pipeline IL replaces it and the recorded cells feed the
    /// pass-major merge exactly as live cells would, so a warm run merges
    /// to byte-identical reports and traces (durations excepted: replayed
    /// cells charge zero time).
    fn replay(&mut self, proc: &mut Procedure) -> Option<ProcResult> {
        let CachedEntry { mut il, cells } = *self.replay.take_hit()?;
        // land strictly past the generation already covered so the
        // closing whole-program verify re-checks the substituted IL
        while il.generation() <= self.seen_gen {
            il.bump_generation();
        }
        *proc = il;
        // artifacts built against the pre-substitution IL are stale
        self.analyses.invalidate();
        Some(ProcResult {
            cells: cells.into_iter().map(PassCell::replayed).collect(),
            snaps: Vec::new(),
            items: Vec::new(),
            final_gen: proc.generation(),
            incident: None,
        })
    }
}

/// What every pass chain of one run reads and none writes — the half of a
/// [`Run`] the worker threads share.
struct Env<'a> {
    cx: PassContext<'a>,
    /// Re-verify whatever a pass moved (debug builds, `--verify`).
    verify: bool,
    want_snaps: bool,
    /// Every timeline interval is an offset from this instant.
    epoch: Instant,
}

/// Runs one procedure through the per-procedure chain — on whichever lane
/// pulled it, at every lane count, which is what makes `-j 1` and `-j N`
/// byte-identical.
///
/// ## Fault isolation
///
/// Each pass runs under `catch_unwind`. On a panic — or on a verifier
/// rejection of the pass's output — the procedure is rolled back to the
/// IL the faulting pass was handed ([`roll_back`]: the chain's one
/// `entry` snapshot with the passes that ran clean replayed over it), the
/// slot's analyses are invalidated (artifacts built against the abandoned
/// IL must not survive the rollback), a [`PassIncident`] is recorded, and
/// the rest of the chain is skipped: the procedure is *degraded*. Panics
/// never leave the lane, so one faulty procedure cannot poison the pool.
fn run_proc_chain(
    env: &Env<'_>,
    chain: &[&dyn ProcPass],
    proc: &mut Procedure,
    entry: &Procedure,
    slot: &mut ProcSlot,
    lane: usize,
) -> ProcResult {
    let mut cells = Vec::with_capacity(chain.len());
    let mut snaps = Vec::new();
    let mut items = Vec::new();
    // the generation already covered by a snapshot + verification
    let mut last_seen = slot.seen_gen;
    let mut incident: Option<(usize, PassIncident)> = None;
    for (k, pass) in chain.iter().enumerate() {
        if incident.is_some() {
            cells.push(PassCell::skipped());
            continue;
        }
        // every debug run is a differential: the per-pass snapshot the
        // replay replaced, kept to check the replay and the generation
        // against
        let handed = cfg!(debug_assertions).then(|| proc.clone());
        let stats_before = slot.analyses.stats();
        let mut delta = Report::default();
        let (start, duration, ran) = run_pass(proc, env.verify, |p| {
            pass.run_on(p, &env.cx, &mut slot.analyses, &mut delta)
        });
        items.push(WorkItem {
            pass: pass.name(),
            proc: proc.name.clone(),
            lane,
            start: start.duration_since(env.epoch),
            duration,
        });
        let changed = match ran {
            Ok(moved) => {
                debug_assert!(
                    moved || handed.is_none_or(|h| *proc == h),
                    "`{}` changed `{}` without moving its generation",
                    pass.name(),
                    proc.name
                );
                moved
            }
            Err((kind, mut detail)) => {
                match roll_back(proc, entry, &chain[..k], &env.cx) {
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
                slot.analyses.invalidate();
                incident = Some((
                    k,
                    PassIncident {
                        pass: pass.name(),
                        proc: Some(proc.name.clone()),
                        kind,
                        detail,
                    },
                ));
                cells.push(PassCell::faulted(duration));
                continue;
            }
        };
        if proc.generation() != last_seen {
            if env.want_snaps {
                snaps.push((k, Snapshot::of(pass.name(), proc)));
            }
            last_seen = proc.generation();
        }
        cells.push(PassCell {
            duration,
            delta,
            changed,
            cache: slot.analyses.stats().delta_since(&stats_before),
            status: CellStatus::Ran,
        });
    }
    let clean = cells.iter().all(|c| c.status == CellStatus::Ran);
    let recorded = chain.iter().zip(&cells).map(|(p, c)| c.recorded(p.name()));
    slot.replay.chain_ran(clean, recorded);
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
    for pass in clean {
        let replay = |p: &mut Procedure| pass.run_on(p, cx, &mut analyses, &mut Report::default());
        if let (.., Err((_, why))) = run_pass(proc, false, replay) {
            proc.clone_from(entry);
            return Err(why);
        }
    }
    Ok(())
}

/// A declarative sequence of passes: a whole-program prefix, then one
/// per-procedure chain.
#[derive(Default)]
pub struct Pipeline {
    prefix: Vec<Box<dyn Pass>>,
    chain: Vec<Box<dyn ProcPass>>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Appends a whole-program pass to the prefix (runs on the calling
    /// thread, before every per-procedure pass). Calling order
    /// relative to [`Pipeline::push_proc`] is ignored: a pass pushed after
    /// the chain's passes still runs before all of them.
    pub fn push(&mut self, pass: impl Pass + 'static) {
        self.prefix.push(Box::new(pass));
    }

    /// Appends a per-procedure pass to the chain. Each procedure runs the
    /// whole chain on one lane, fanned out across [`Options::jobs`] lanes.
    pub fn push_proc(&mut self, pass: impl ProcPass + 'static) {
        self.chain.push(Box::new(pass));
    }

    /// [`Pipeline::push_proc`] at chain position `at`: a faulting pass
    /// *inside* the chain.
    pub fn insert_proc(&mut self, at: usize, pass: impl ProcPass + 'static) {
        self.chain.insert(at, Box::new(pass));
    }

    /// This pipeline with its chain cut to the first `len` passes — what a
    /// procedure degraded at chain position `len` must look like.
    pub fn truncated(mut self, len: usize) -> Pipeline {
        self.chain.truncate(len);
        self
    }

    /// This pipeline minus every pass called `name` — how an ablation is
    /// phrased: the shipped order with one pass taken away, never a
    /// hand-written pass list that can drift from [`Pipeline::for_options`].
    pub fn without(mut self, name: &str) -> Pipeline {
        self.prefix.retain(|p| p.name() != name);
        self.chain.retain(|p| p.name() != name);
        self
    }

    /// The pass names, in execution order: the prefix, then the chain.
    pub fn pass_names(&self) -> Vec<&'static str> {
        let prefix = self.prefix.iter().map(|p| p.name());
        prefix.chain(self.proc_pass_names()).collect()
    }

    /// The names of the chain's passes alone, in execution order — what a
    /// cache entry's recorded cells must name to be replayed.
    pub fn proc_pass_names(&self) -> Vec<&'static str> {
        self.chain.iter().map(|p| p.name()).collect()
    }

    /// The records `trace` — a run of this pipeline — holds for its
    /// prefix, as cells: what no cache entry holds, so what a session
    /// manifest keeps.
    pub(crate) fn prefix_cells(&self, trace: &PassTrace) -> Vec<RecordedCell> {
        let records = trace.records.iter().take(self.prefix.len());
        records
            .map(|r| RecordedCell {
                pass: r.name.to_string(),
                delta: r.delta.clone(),
                changed: r.changed,
                cache: r.cache,
            })
            .collect()
    }

    /// Builds the pipeline the given options describe.
    ///
    /// * Inlining (§7) is the prefix when enabled, so §8's specialization
    ///   opportunities exist before scalar optimization.
    /// * `-O1` is the §5.2 scalar sequence: while→DO conversion right
    ///   after use–def chains, induction-variable substitution, forward
    ///   substitution, constant propagation, dead-code elimination.
    /// * `-O2` appends the vector phase: optional §10 list spreading, the
    ///   Allen–Kennedy vectorizer, the §6 strength reduction, and a
    ///   cleanup round (forward substitution, local CSE, DCE) for the dead
    ///   index arithmetic strength reduction leaves behind.
    ///
    /// Everything after the inliner is per-procedure: the entire scalar +
    /// vector sequence is the chain.
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
            // substitutes the constants and copies `constprop` exposed after the first ran
            pl.push_proc(forward);
            pl.push_proc(cse);
            pl.push_proc(dce);
        }
        pl
    }

    /// Runs the prefix, then the chain, over `program`.
    ///
    /// Returns the aggregated [`Report`] and the [`PassTrace`]; when
    /// [`Options::snapshots`] is set, a [`Snapshot`] of every procedure
    /// *whose generation moved* is appended to `snapshots` after the pass
    /// that moved it (pass-major, procedure order). The IL verifier runs
    /// over moved procedures in debug builds and, in release builds, when
    /// [`Options::verify`] is set.
    ///
    /// The run is *fail-soft*: a pass that panics or produces
    /// unverifiable IL is contained — the affected procedure (or, for
    /// prefix passes, the whole program) rolls back to its last-verified
    /// IL, a [`PassIncident`] lands in the trace, and the degraded
    /// procedure skips the rest of its chain. The pipeline itself never
    /// panics on a pass fault and never fails: callers inspect
    /// [`PassTrace::incidents`] to decide how strict to be.
    ///
    /// With a `session`, hits skip their chains: their cached IL is
    /// substituted and their recorded cells replay through the normal
    /// pass-major merge, and a manifest replays the prefix the same way,
    /// so the output (program, reports, opt report) is byte-identical to
    /// a cold run. The states come back in `session`, by position, for
    /// the driver to persist. Without one, nothing is replayed or
    /// recorded.
    pub fn run(
        &self,
        program: &mut Program,
        options: &Options,
        snapshots: &mut Vec<Snapshot>,
        mut session: Option<&mut SessionReplay>,
    ) -> (Report, PassTrace) {
        let mut run = Run {
            env: Env {
                cx: PassContext { options },
                verify: cfg!(debug_assertions) || options.verify,
                want_snaps: options.snapshots,
                epoch: Instant::now(),
            },
            jobs: options.effective_jobs(),
            slots: Vec::new(),
            moved: false,
            reports: Report::default(),
            trace: PassTrace::default(),
            snapshots,
        };
        let manifest = session.as_deref_mut().and_then(|s| s.manifest.take());
        let replayed_prefix = manifest.is_some();
        match manifest {
            Some(mut manifest) => {
                // validated whole where it was loaded; its environment
                // becomes the program's
                for (pass, cell) in self.prefix.iter().zip(manifest.swap_environment(program)) {
                    let cell = PassCell::replayed(cell.clone());
                    run.record(merge_column(pass.name(), [cell]));
                }
            }
            None => {
                for pass in &self.prefix {
                    run.program_stage(&**pass, program);
                }
            }
        }

        // one slot per procedure, seeded by position — unless a prefix pass
        // changed the procedure count, which leaves positions meaningless:
        // then nothing replays or is recorded, so nothing is persisted.
        // Outside a session nothing is cacheable either
        let seeds = session.as_deref_mut().map(|s| std::mem::take(&mut s.procs));
        let seeds = seeds.filter(|s| s.len() == program.procs.len());
        let mut seeds = seeds.unwrap_or_default().into_iter();
        run.slots = program
            .procs
            .iter()
            .map(|p| ProcSlot::new(p.generation(), seeds.next().unwrap_or(Replay::Uncacheable)))
            .collect();
        if !self.chain.is_empty() {
            let chain: Vec<&dyn ProcPass> = self.chain.iter().map(|p| &**p).collect();
            run.chain(&chain, program);
        }

        // per-proc verification skips program-level invariants (call
        // targets, globals); close the run with one whole-program check
        // when anything moved — unless everything replayed, a program the
        // session verified before handing the manifest over
        if run.env.verify && run.moved && !replayed_prefix {
            if let Err(detail) = verify_program_check(program) {
                run.trace.incidents.push(PassIncident {
                    pass: "pipeline",
                    proc: None,
                    kind: IncidentKind::VerifyFailed,
                    detail,
                });
            }
        }
        run.trace.wall = run.env.epoch.elapsed();
        if let Some(session) = session {
            session.procs = run.slots.into_iter().map(|slot| slot.replay).collect();
        }
        (run.reports, run.trace)
    }
}

/// One execution of a [`Pipeline`]: what every pass reads, one
/// `ProcSlot` per procedure for the chain, and what the run accumulates.
struct Run<'a> {
    env: Env<'a>,
    jobs: usize,
    /// By position in [`Program::procs`], made once the prefix has run.
    slots: Vec<ProcSlot>,
    /// Some procedure's generation moved past the one it entered with.
    moved: bool,
    reports: Report,
    trace: PassTrace,
    snapshots: &'a mut Vec<Snapshot>,
}

impl Run<'_> {
    /// Runs one prefix pass; snapshots and verification cover exactly the
    /// procedures whose generation moved (and any the pass added).
    ///
    /// Whole-program passes are isolated at program granularity: on a
    /// panic or a verifier rejection the *entire program* rolls back to
    /// its state before the pass (there is no narrower verified unit — the
    /// pass may have moved code between procedures), an incident is
    /// recorded, and the pipeline continues with the remaining passes. No
    /// procedure is marked degraded: the rolled-back program is exactly
    /// the verified pre-pass state.
    fn program_stage(&mut self, pass: &dyn Pass, program: &mut Program) {
        let backup = program.clone();
        let mut delta = Report::default();
        let cx = &self.env.cx;
        let (start, duration, ran) =
            run_pass(program, self.env.verify, |p| pass.run(p, cx, &mut delta));
        self.trace.timeline.push(WorkItem {
            pass: pass.name(),
            proc: String::new(),
            lane: 0,
            start: start.duration_since(self.env.epoch),
            duration,
        });
        let changed = match ran {
            Ok(moved) => {
                debug_assert!(
                    moved || *program == backup,
                    "`{}` changed the program without moving a generation",
                    pass.name()
                );
                for (k, p) in program.procs.iter().enumerate() {
                    let before = backup.procs.get(k).map(Procedure::generation);
                    if self.env.want_snaps && before != Some(p.generation()) {
                        self.snapshots.push(Snapshot::of(pass.name(), p));
                    }
                }
                self.moved |= moved;
                moved
            }
            Err((kind, detail)) => {
                *program = backup;
                self.trace.incidents.push(PassIncident {
                    pass: pass.name(),
                    proc: None,
                    kind,
                    detail,
                });
                delta = Report::default();
                false
            }
        };
        let cell = PassCell {
            duration,
            delta,
            changed,
            cache: CacheStats::default(),
            status: CellStatus::Ran,
        };
        self.record(merge_column(pass.name(), [cell]));
    }

    fn record(&mut self, record: PassRecord) {
        self.reports.merge(record.delta.clone());
        self.trace.records.push(record);
    }

    /// Fans the procedures across the lanes — a hit replays, a miss runs
    /// the whole chain — then merges the results in procedure order so the
    /// output is independent of scheduling.
    fn chain(&mut self, chain: &[&dyn ProcPass], program: &mut Program) {
        let env = &self.env;
        // more lanes than hardware threads only add scheduler churn to a
        // CPU-bound pipeline, and more than the misses would find nothing
        // left to run
        let misses = self
            .slots
            .iter()
            .filter(|s| !matches!(s.replay, Replay::Hit(_)))
            .count();
        let lanes = misses.min(self.jobs).min(crate::pool::lanes(0)).max(1);
        let mut results: Vec<ProcResult> =
            self.slots.iter().map(|_| ProcResult::default()).collect();
        let tasks = program
            .procs
            .iter_mut()
            .zip(&mut self.slots)
            .zip(&mut results);
        crate::pool::fan_out(lanes, tasks, |((proc, slot), out), lane| {
            *out = slot.replay(proc).unwrap_or_else(|| {
                // run the chain on a lane-local clone: the passes'
                // allocation churn then stays in this thread's malloc
                // arena instead of contending for the thread the
                // procedure was built on, and the original is freed in
                // one sweep at write-back — until when it is the chain's
                // one rollback snapshot. Faults inside the chain are
                // caught there, so a panicking pass cannot poison the pool.
                let mut local = proc.clone();
                let result = run_proc_chain(env, chain, &mut local, proc, slot, lane);
                *proc = local;
                result
            });
        });

        // merge pass-major, procedure order: identical for any worker count
        let mut cells: Vec<_> = results
            .iter_mut()
            .map(|r| std::mem::take(&mut r.cells).into_iter())
            .collect();
        for (k, pass) in chain.iter().enumerate() {
            let column = cells.iter_mut().map(|c| c.next().expect("a cell per pass"));
            let record = merge_column(pass.name(), column);
            let snaps = results.iter().flat_map(|r| &r.snaps);
            self.snapshots
                .extend(snaps.filter(|(ki, _)| *ki == k).map(|(_, s)| s.clone()));
            self.record(record);
            // incidents surface pass-major, procedure order — the same
            // deterministic merge as everything else, so `-j 1` and `-j N`
            // report identical traces
            let incidents = results.iter().filter_map(|r| r.incident.as_ref());
            self.trace
                .incidents
                .extend(incidents.filter(|(ki, _)| *ki == k).map(|(_, i)| i.clone()));
        }
        // the timeline is appended in procedure order too; the timestamps
        // inside are wall-clock data and carry the real worker interleaving
        for (slot, r) in self.slots.iter().zip(results) {
            self.moved |= slot.seen_gen != r.final_gen;
            self.trace.timeline.extend(r.items);
        }
    }
}

/// One pass's record from its cells — one per procedure, in procedure
/// order, or the one cell of a prefix pass. Every [`PassRecord`] is made
/// here, from cells a run executed or replayed from hits and manifests, so
/// the two cannot merge differently.
fn merge_column(name: &'static str, cells: impl IntoIterator<Item = PassCell>) -> PassRecord {
    let mut record = PassRecord {
        name,
        duration: Duration::ZERO,
        delta: Report::default(),
        changed: false,
        cache: CacheStats::default(),
        skipped_procs: 0,
        faulted_procs: 0,
    };
    for cell in cells {
        record.delta.merge(cell.delta);
        record.duration += cell.duration;
        record.changed |= cell.changed;
        record.cache.merge(&cell.cache);
        match cell.status {
            CellStatus::Ran => {}
            CellStatus::Faulted => record.faulted_procs += 1,
            CellStatus::Skipped => record.skipped_procs += 1,
        }
    }
    record
}

/// §7 inline expansion (runs before scalar optimization). Whole-program:
/// it moves code between procedures, so it cannot be a [`ProcPass`].
pub struct InlinePass;

impl Pass for InlinePass {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&self, program: &mut Program, _: &PassContext<'_>, delta: &mut Report) {
        delta.merge(titanc_inline::inline_program(program));
    }
}

/// One row of [`PROC_PASSES`]: the stable pass name and the
/// transformation.
#[derive(Clone, Copy)]
struct TablePass {
    name: &'static str,
    run: fn(&mut Procedure, &PassContext<'_>, &mut ProcAnalyses) -> Report,
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
        delta: &mut Report,
    ) {
        delta.merge((self.run)(proc, cx, analyses));
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
        run: |p, _, a| titanc_opt::convert_while_loops_cached(p, a),
    },
    TablePass {
        name: "ivsub",
        run: |p, _, _| titanc_opt::induction_substitution(p),
    },
    TablePass {
        name: "forward",
        run: |p, _, _| titanc_opt::forward_substitute(p),
    },
    TablePass {
        name: "constprop",
        run: |p, _, a| titanc_opt::constant_propagation_cached(p, a),
    },
    TablePass {
        name: "dce",
        run: |p, _, a| titanc_opt::eliminate_dead_code_cached(p, a),
    },
    TablePass {
        name: "cse",
        run: |p, _, _| titanc_opt::local_cse(p),
    },
    TablePass {
        name: "spread_lists",
        run: |p, _, _| titanc_vector::spread_list_loops(p),
    },
    TablePass {
        name: "vectorize",
        run: |p, cx, _| {
            let vopts = VectorOptions {
                aliasing: cx.options.aliasing,
                parallelize: cx.options.parallelize,
                strip: cx.options.strip,
            };
            titanc_vector::vectorize(p, &vopts)
        },
    },
    TablePass {
        name: "strength",
        run: |p, cx, _| titanc_vector::strength_reduce(p, cx.options.aliasing),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn env(options: &Options) -> Env<'_> {
        Env {
            cx: PassContext { options },
            verify: true,
            want_snaps: false,
            epoch: Instant::now(),
        }
    }

    const BOOM: TablePass = TablePass {
        name: "boom",
        run: |p, _, a| {
            a.usedef(p);
            p.body.clear();
            panic!("injected fault")
        },
    };

    fn countdown() -> Procedure {
        let src = "void f(int n) { while (n) n = n - 1; }";
        titanc_lower::compile_to_il(src).unwrap().procs.remove(0)
    }

    /// After a rollback nothing built over the abandoned IL is served: the
    /// slot is empty, and the next request builds.
    #[test]
    fn a_rollback_leaves_the_analysis_slot_empty() {
        let mut proc = countdown();
        let (entry, options) = (proc.clone(), Options::o2());
        let mut slot = ProcSlot::new(proc.generation(), Replay::Uncacheable);
        let g: [&dyn ProcPass; 2] = [&PROC_PASSES[0], &BOOM];
        let result = run_proc_chain(&env(&options), &g, &mut proc, &entry, &mut slot, 0);
        assert_eq!(result.incident.expect("contained").0, 1);
        assert_eq!(proc.generation(), entry.generation() + 1, "replayed");
        assert_eq!(slot.analyses.cached_generation(), None);
        let before = slot.analyses.stats();
        slot.analyses.cfg(&proc);
        let seen = slot.analyses.stats().delta_since(&before);
        assert_eq!((seen.cfg_builds, seen.cfg_hits), (1, 0));
    }

    /// The "must not be persisted" rule, as the transitions of [`Replay`]:
    /// a hit the chain replays whole is `Replayed`; a miss whose chain runs
    /// clean is `Recorded`; a fault — which skips the rest of the chain — is
    /// `Uncacheable`, and so is every chain run outside a session.
    #[test]
    fn replay_transitions() {
        let options = Options::o2();
        let env = env(&options);
        let clean: [&dyn ProcPass; 2] = [&PROC_PASSES[0], &PROC_PASSES[1]];
        let faulty: [&dyn ProcPass; 2] = [&BOOM, &PROC_PASSES[1]];
        let run = |chain: &[&dyn ProcPass], slot: &mut ProcSlot| {
            let mut proc = countdown();
            let entry = proc.clone();
            run_proc_chain(&env, chain, &mut proc, &entry, slot, 0)
        };

        // a miss whose chain runs clean is recorded
        let mut slot = ProcSlot::new(0, Replay::None);
        run(&clean, &mut slot);
        let Replay::Recorded(cells) = &slot.replay else {
            panic!("recorded")
        };
        let cells = cells.clone();
        let names: Vec<&str> = cells.iter().map(|c| &*c.pass).collect();
        assert_eq!(names, ["whiledo", "ivsub"]);

        // a fault skips the rest of the chain and is never recorded
        let mut slot = ProcSlot::new(0, Replay::None);
        let result = run(&faulty, &mut slot);
        let status: Vec<CellStatus> = result.cells.iter().map(|c| c.status).collect();
        assert_eq!(status, [CellStatus::Faulted, CellStatus::Skipped]);
        assert!(matches!(slot.replay, Replay::Uncacheable));

        // outside a session nothing is ever recorded, or replayed
        let mut slot = ProcSlot::new(0, Replay::Uncacheable);
        assert!(slot.replay(&mut countdown()).is_none());
        run(&clean, &mut slot);
        assert!(matches!(slot.replay, Replay::Uncacheable));

        // a hit is replayed whole, to `Replayed`; a miss is not replayed
        let hit = Replay::Hit(Box::new(CachedEntry {
            il: countdown(),
            cells,
        }));
        let mut slot = ProcSlot::new(0, hit);
        let mut proc = countdown();
        let replayed = slot.replay(&mut proc).expect("replays");
        assert_eq!(replayed.cells.len(), 2);
        assert!(matches!(slot.replay, Replay::Replayed));
        assert!(proc.generation() > 0, "past the generation already covered");
        assert!(ProcSlot::new(0, Replay::None).replay(&mut proc).is_none());
    }
}
