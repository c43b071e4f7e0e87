//! One sweep, every contract: a stream of generated programs and the named
//! checks each of them must pass.
//!
//! A [`Case`] is one [`progen`] program drawn from its own seed. Case `i`
//! of run seed `S` is drawn from [`case_seed`]`(S, i)`, so it depends only
//! on `(S, i)`, and its seed alone replays it. Each [`Check`] holds one
//! family of contracts:
//!
//! * `observe` — `-O0`, `-O1`, `-O2` and `-O2 --parallel` observe the same
//!   return value and output arrays on the Titan simulator, `-j 1` and
//!   `-j 4` print the same IL, nothing is contained as an incident, and
//!   every build runs under the interpreter *and* the VM with equal
//!   observations and equal execution statistics, and no optimized build
//!   executes more flops or more scalar loads than `-O0` (also run over
//!   `corpus/*.c` by `tests/sweep.rs`);
//! * `cache-faults` — a `--cache-dir` compile is byte-identical to a
//!   store-less one under injected IO faults, with every write or every
//!   read failing, after on-disk corruption, with sessions racing into one
//!   directory, and after a one-procedure edit, which must miss exactly
//!   that procedure's inline cone;
//! * `server` — `titand` replies carry the store-less stdout under a burst
//!   of clients racing one-shot sessions, after an edit and its revert,
//!   and over a damaged directory;
//! * `codec` — the wire codec, `Procedure` JSON and catalogs round-trip
//!   byte for byte, and so do the recorded cells and the session manifest
//!   a cached compile publishes, whose reader refuses every truncation and
//!   accepts no byte flip that does not re-encode to itself (also run over
//!   `corpus/*.c` by `tests/sweep.rs`).
//!
//! `stress --check NAME` runs one check at sweep size and `tests/sweep.rs`
//! every check at a small one. Both print one FAIL block per failing case,
//! naming the case seed that `stress --check NAME --case-seed S` replays.

use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use titanc::server::{
    il_block, opt_report_block, CompileRequest, CompileResponse, Reply, Server, ServerConfig,
    ServerTotals,
};
use titanc::session::Manifest;
use titanc::{
    compile, compile_session, install_io_faults, Aliasing, Catalog, Compilation, FaultMode,
    IoFaultSpec, IoOp, OptReport, Options, Pipeline, Program, RecordedCell, Replay,
    SessionCompilation, SessionReplay, SessionStats, SourceFile,
};
use titanc_analysis::CallGraph;
use titanc_il::json::{parse as parse_json, FromJson, ToJson};
use titanc_il::wire::{self, Wire};
use titanc_il::{
    decode_proc, encode_proc, hash_proc, pretty_proc, verify_proc, Count, InlineOutcome,
    LoopDecision, Procedure, Reject, ScalarType, SrcSpan, StableHash, StableHasher,
};
use titanc_titan::{observe_with, ExecEngine, ExecStats, MachineConfig, Observation};

use crate::{no_more_work_than_o0, progen};

/// The default run seed (an arbitrary constant, fixed so a bare run is
/// reproducible across machines and sessions).
pub const DEFAULT_SEED: u64 = 0x717A_2C57;

/// Derives case `i`'s generator seed from the run seed — the splitmix64
/// finalizer over a golden-ratio stride, so nearby indices land far apart
/// and a case's program is independent of generation order.
pub fn case_seed(run_seed: u64, case: u64) -> u64 {
    let mut z = run_seed.wrapping_add(case.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated program and the seed it was drawn from.
pub struct Case {
    /// The generator seed; every random choice a check makes derives
    /// from it too.
    pub seed: u64,
    /// The program.
    pub src: String,
}

impl Case {
    /// The program of one case seed.
    pub fn new(seed: u64) -> Case {
        let src = progen::program(&mut progen::Rng::new(seed));
        Case { seed, src }
    }

    /// Case `i` of run seed `run_seed`.
    pub fn nth(run_seed: u64, i: u64) -> Case {
        Case::new(case_seed(run_seed, i))
    }
}

/// A family of contracts, checked on one case at a time; it adds what it
/// compiled to the totals.
pub type Check = fn(&Case, &mut Totals) -> Result<(), String>;

/// Every check under the name `stress --check` and the FAIL block use,
/// `observe` (the `stress` default) first.
pub const CHECKS: [(&str, Check); 4] = [
    ("observe", observe),
    ("cache-faults", cache_faults),
    ("server", server),
    ("codec", codec),
];

/// The check called `name`.
pub fn check(name: &str) -> Option<(&'static str, Check)> {
    CHECKS.into_iter().find(|(n, _)| *n == name)
}

/// The decision classes a sweep's coverage counts: every
/// `LoopDecision` tag, then every `InlineOutcome` tag.
fn tags() -> impl Iterator<Item = &'static str> {
    LoopDecision::TAGS.into_iter().chain(InlineOutcome::TAGS)
}

/// How many cases failed, what they covered and what their caches and
/// daemons did, summed over a sweep.
#[derive(Default)]
pub struct Totals {
    /// Cases that printed a FAIL block.
    pub failed: u64,
    /// Decision events per [`tags`] entry, over every reference compile.
    pub coverage: [u64; LoopDecision::TAGS.len() + InlineOutcome::TAGS.len()],
    /// `do_rejected` events per [`Reject::ALL`] reason, over the same
    /// compiles.
    pub rejects: [u64; Reject::ALL.len()],
    /// §6 constant multiplies reduced to shifts and adds, over the same
    /// compiles ([`Count::StrengthMulReduced`]).
    pub muls_reduced: usize,
    /// Contained incidents over the same compiles.
    pub incidents: usize,
    /// Sessions compiled (with or without a cache directory).
    pub sessions: usize,
    /// Their cache accounting.
    pub cache: SessionStats,
    /// The daemons' own accounting.
    pub daemon: ServerTotals,
}

impl Totals {
    /// Counts one compile's decision events and incidents.
    fn tally(&mut self, c: &Compilation) {
        let report = OptReport::build_for(&c.reports, &c.trace, &c.program.files);
        let loops = report.loops.iter().flat_map(|l| &l.events);
        for e in loops.clone() {
            if let LoopDecision::DoRejected(why) = e.decision {
                self.rejects[why as usize] += 1;
            }
        }
        let events = loops
            .map(|e| e.decision.tag())
            .chain(report.inline.iter().map(|e| e.outcome.tag()));
        for tag in events {
            let i = tags().position(|t| t == tag);
            self.coverage[i.expect("every tag is in its type's TAGS")] += 1;
        }
        self.muls_reduced += c.reports.get(Count::StrengthMulReduced);
        self.incidents += c.trace.incidents.len();
    }

    fn absorb(&mut self, stats: &SessionStats) {
        self.sessions += 1;
        self.cache.merge(stats);
    }

    /// Adds another share of the same sweep.
    fn merge(&mut self, other: Totals) {
        self.failed += other.failed;
        let counts = self.coverage.iter_mut().zip(other.coverage);
        counts.for_each(|(n, m)| *n += m);
        let rejects = self.rejects.iter_mut().zip(other.rejects);
        rejects.for_each(|(n, m)| *n += m);
        self.muls_reduced += other.muls_reduced;
        self.incidents += other.incidents;
        self.sessions += other.sessions;
        self.cache.merge(&other.cache);
        self.daemon.merge(&other.daemon);
    }

    /// The tags with at least one hit, then `muls_reduced` when a
    /// multiply was reduced.
    pub fn lit(&self) -> Vec<&'static str> {
        let hits = tags().zip(self.coverage);
        let mut lit: Vec<_> = hits.filter(|(_, n)| *n > 0).map(|(t, _)| t).collect();
        if self.muls_reduced > 0 {
            lit.push("muls_reduced");
        }
        lit
    }

    /// `tag=hits` for every tag, then `do_rejected:Reason=hits` for every
    /// rejection reason, zeros included, then `muls_reduced=n` and
    /// `incidents=n`.
    pub fn coverage_line(&self) -> String {
        let mut words: Vec<String> = tags()
            .zip(self.coverage)
            .map(|(t, n)| format!("{t}={n}"))
            .collect();
        let rejects = Reject::ALL.iter().zip(self.rejects);
        words.extend(rejects.map(|(r, n)| format!("do_rejected:{r:?}={n}")));
        words.push(format!("muls_reduced={}", self.muls_reduced));
        words.push(format!("incidents={}", self.incidents));
        words.join(" ")
    }
}

/// Runs `check` on `case` under one `catch_unwind`, leaving no IO fault
/// installed whatever happened ([`with_faults`] resets on return, this on
/// a panic — never after a passing case, which may run beside another
/// check's faults). A failure is counted and prints the FAIL block — the
/// line, the program, the replay command — to stderr; `at` is the case's
/// (index, run seed) when it came from a run.
pub fn run_case(
    (name, check): (&str, Check),
    case: &Case,
    at: Option<(u64, u64)>,
    totals: &mut Totals,
) {
    let why = match catch_unwind(AssertUnwindSafe(|| check(case, totals))) {
        Ok(Ok(())) => return,
        Ok(Err(why)) => why,
        Err(_) => {
            install_io_faults(None);
            "escaping panic (not contained by the pipeline)".to_string()
        }
    };
    let seed = case.seed;
    let (i, run) = at.map_or(("-".to_string(), "-".to_string()), |(i, run)| {
        (i.to_string(), format!("0x{run:X}"))
    });
    eprintln!(
        "FAIL check={name} case={i} case-seed=0x{seed:X} run-seed={run}: {why}\n\
         --- program ---\n{}---------------\n\
         replay with: stress --check {name} --case-seed 0x{seed:X}",
        case.src
    );
    totals.failed += 1;
}

/// Runs `check` over cases `0..cases` of `run_seed`, on up to four threads
/// (one for `cache-faults`, whose IO faults are process-global).
pub fn run(check: (&str, Check), run_seed: u64, cases: u64, totals: &mut Totals) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let workers = if check.0 == "cache-faults" { 1 } else { cpus };
    std::thread::scope(|scope| {
        let slices: Vec<_> = (0..workers as u64)
            .map(|w| {
                scope.spawn(move || {
                    let mut mine = Totals::default();
                    for i in (w..cases).step_by(workers) {
                        let case = Case::nth(run_seed, i);
                        run_case(check, &case, Some((i, run_seed)), &mut mine);
                    }
                    mine
                })
            })
            .collect();
        for slice in slices {
            totals.merge(slice.join().expect("run_case catches every panic"));
        }
    });
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

/// A compilation's optimized IL, every procedure pretty-printed: the
/// byte-identity unit.
pub fn il_text(c: &Compilation) -> String {
    let procs: Vec<String> = c.program.procs.iter().map(pretty_proc).collect();
    procs.join("\n")
}

/// A compilation's `--opt-report=json`, the second identity unit.
pub fn report_json(c: &Compilation) -> String {
    OptReport::build_for(&c.reports, &c.trace, &c.program.files).render_json()
}

/// Every flag set that reaches a distinct statement form: scalar-only,
/// vector, parallel loops with the §10 spread lists, no inlining, and
/// Fortran aliasing.
pub fn option_sets() -> Vec<(&'static str, Options)> {
    let parallel = Options {
        parallelize: true,
        spread_lists: true,
        ..Options::o2()
    };
    let no_inline = Options {
        inline: false,
        ..Options::o2()
    };
    let fortran = Options {
        aliasing: Aliasing::Fortran,
        ..Options::o2()
    };
    vec![
        ("O0", Options::o0()),
        ("O1", Options::o1()),
        ("O2", Options::o2()),
        ("O2 parallel", parallel),
        ("O2 no-inline", no_inline),
        ("O2 fortran-aliasing", fortran),
    ]
}

/// Every `corpus/*.c` file as `(path, source)`, sorted by path.
pub fn corpus_files() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut files: Vec<(String, String)> = fs::read_dir(dir)
        .expect("corpus/")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| {
            let src = fs::read_to_string(&p).expect("corpus file reads");
            (p.display().to_string(), src)
        })
        .collect();
    files.sort();
    files
}

/// A scratch directory, `target/sweep-scratch/<pid>-<tag>` in the
/// workspace, removed with everything in it when the guard drops — on a
/// panic too.
pub struct Scratch(PathBuf);

impl Scratch {
    /// The directory every guard lives under.
    pub fn root() -> PathBuf {
        PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/sweep-scratch"
        ))
    }

    /// A fresh, not yet created directory for `tag`.
    pub fn new(tag: &str) -> Scratch {
        let dir = Scratch::root().join(format!("{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// Damages a populated `--cache-dir` in place: one random bit flip in one
/// file and a random truncation of another (the same file when only one
/// exists). Victims are every top-level file a fully warm run reads —
/// entries and manifests, whatever they are named. The `FORMAT` marker,
/// the `index-*.bin` files (opened only once a procedure misses) and the
/// `quarantine/` subdirectory are left alone, so every damaged file is one
/// a warm run actually reads and must detect.
///
/// # Errors
///
/// Any I/O failure, or `NotFound` when the directory holds no victim.
pub fn corrupt_cache_dir(dir: &Path, rng: &mut progen::Rng) -> std::io::Result<()> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            p.is_file() && name != "FORMAT" && !name.starts_with("index-")
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "populated cache dir has no files to corrupt",
        ));
    }

    let victim = &files[rng.below(files.len() as u64) as usize];
    let mut bytes = fs::read(victim)?;
    if bytes.is_empty() {
        bytes.push(b'!');
    } else {
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 << rng.below(8);
    }
    fs::write(victim, &bytes)?;

    let victim = &files[rng.below(files.len() as u64) as usize];
    let bytes = fs::read(victim)?;
    let keep = rng.below(bytes.len().max(1) as u64) as usize;
    fs::write(victim, &bytes[..keep.min(bytes.len())])
}

// ---------------------------------------------------------------------------
// observe: O0 ≡ O1 ≡ O2 ≡ parallel, -j1 ≡ -j4, interpreter ≡ VM
// ---------------------------------------------------------------------------

/// What a run observes besides the return value and the printed output.
const OUT_GLOBALS: [(&str, ScalarType, u32); 2] = [
    ("out_g", ScalarType::Int, progen::OUT_LEN as u32),
    ("out_f", ScalarType::Float, progen::OUT_LEN as u32),
];

/// Compiles with the IL verifier on, requiring a clean front end and zero
/// contained incidents.
fn build(src: &str, options: Options, jobs: usize, what: &str) -> Result<Compilation, String> {
    let options = Options {
        jobs,
        verify: true,
        ..options
    };
    let c = compile(src, &options).map_err(|e| format!("{what}: front end rejected input: {e}"))?;
    if c.has_incidents() {
        let incidents: Vec<String> = c.trace.incidents.iter().map(ToString::to_string).collect();
        return Err(format!(
            "{what}: {} contained incident(s): {}",
            incidents.len(),
            incidents.join("; ")
        ));
    }
    Ok(c)
}

/// The globals a run of `main` reads back: their names, kinds and lengths.
type Globals<'a> = [(&'a str, ScalarType, u32)];

/// Runs one build under the interpreter and the VM, which must agree on
/// the observation and on every execution statistic (cycle totals
/// included).
fn run_both(
    c: &Compilation,
    machine: MachineConfig,
    globals: &Globals<'_>,
    what: &str,
) -> Result<(Observation, ExecStats), String> {
    let run = |engine| {
        observe_with(&c.program, machine.clone(), engine, "main", globals)
            .map_err(|e| format!("{what} [{engine}]: simulator fault: {e}"))
    };
    let (obs, stats) = run(ExecEngine::Interp)?;
    let (vm_obs, vm_stats) = run(ExecEngine::Vm)?;
    if vm_obs != obs {
        return Err(format!(
            "{what}: engine observation divergence:\n  interp: {obs:?}\n  vm: {vm_obs:?}"
        ));
    }
    if vm_stats != stats {
        return Err(format!(
            "{what}: engine statistics divergence:\n  interp: {stats:?}\n  vm: {vm_stats:?}"
        ));
    }
    Ok((obs, stats))
}

fn observe(case: &Case, totals: &mut Totals) -> Result<(), String> {
    observe_program(&case.src, &OUT_GLOBALS, totals)
}

/// The `observe` contracts over one program whose `main` runs to
/// completion, reading `globals` back after every run: every build
/// observes what `-O0` observes and executes no more flops or loads
/// ([`no_more_work_than_o0`]).
pub fn observe_program(
    src: &str,
    globals: &Globals<'_>,
    totals: &mut Totals,
) -> Result<(), String> {
    let o0 = build(src, Options::o0(), 1, "O0")?;
    let o1 = build(src, Options::o1(), 1, "O1")?;
    let o2 = build(src, Options::o2(), 1, "O2 -j1")?;
    let o2_j4 = build(src, Options::o2(), 4, "O2 -j4")?;
    let par = build(src, Options::parallel(), 1, "O2 --parallel")?;
    for c in [&o0, &o1, &o2, &par] {
        totals.tally(c);
    }
    // parallel pass groups must be invisible in the output
    if il_text(&o2) != il_text(&o2_j4) {
        return Err("-j1 and -j4 produced different IL".to_string());
    }
    let (base, base_stats) = run_both(&o0, MachineConfig::default(), globals, "O0")?;
    for (what, c, machine) in [
        ("O1", &o1, MachineConfig::default()),
        ("O2 -j1", &o2, MachineConfig::optimized(1)),
        ("O2 -j4", &o2_j4, MachineConfig::optimized(1)),
        ("O2 on 2 processors", &o2, MachineConfig::optimized(2)),
        (
            "O2 --parallel on 4 processors",
            &par,
            MachineConfig::optimized(4),
        ),
    ] {
        let (got, stats) = run_both(c, machine, globals, what)?;
        if got != base {
            return Err(format!(
                "O0 vs {what} observation divergence:\n  O0: {base:?}\n  {what}: {got:?}"
            ));
        }
        no_more_work_than_o0(&base_stats, &stats).map_err(|e| format!("{what} {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// cache-faults: cold ≡ warm ≡ edited ≡ store-less, whatever the disk does
// ---------------------------------------------------------------------------

/// The fault mix a case runs under: every operation can fail, writes and
/// reads can tear, and reads can stall — all at rates high enough that a
/// 300-case sweep exercises each path hundreds of times.
fn fault_spec(seed: u64) -> IoFaultSpec {
    IoFaultSpec::new(seed)
        .rule(IoOp::Read, FaultMode::Fail, 0.04)
        .rule(IoOp::Read, FaultMode::Truncate, 0.04)
        .rule(IoOp::Read, FaultMode::Delay, 0.02)
        .rule(IoOp::Write, FaultMode::Fail, 0.05)
        .rule(IoOp::Write, FaultMode::Truncate, 0.05)
        .rule(IoOp::Rename, FaultMode::Fail, 0.05)
}

/// Runs `f` with `spec` installed (after a panic, [`run_case`] resets).
fn with_faults<T>(spec: IoFaultSpec, f: impl FnOnce() -> T) -> T {
    install_io_faults(Some(spec));
    let out = f();
    install_io_faults(None);
    out
}

/// Compiles `src` as one session through `dir` (store-less without one),
/// byte-compared against `expect` when given.
fn session(
    src: &str,
    options: &Options,
    dir: Option<&Path>,
    totals: &mut Totals,
    expect: Option<&(String, String)>,
    what: &str,
) -> Result<SessionCompilation, String> {
    let sc = compile_session(&[SourceFile::new("case.c", src)], options, dir)
        .map_err(|e| format!("{what}: front end rejected input: {e}"))?;
    totals.absorb(&sc.stats);
    if let Some((il, report)) = expect {
        if il_text(&sc.compilation) != *il {
            return Err(format!("{what}: optimized IL diverged from no-cache run"));
        }
        if report_json(&sc.compilation) != *report {
            return Err(format!("{what}: opt report diverged from no-cache run"));
        }
    }
    Ok(sc)
}

/// The store-less reference compile of `src`, tallied.
fn reference(
    src: &str,
    options: &Options,
    totals: &mut Totals,
    what: &str,
) -> Result<Compilation, String> {
    let c = session(src, options, None, totals, None, what)?.compilation;
    totals.tally(&c);
    Ok(c)
}

/// What every other compile of a reference's source must print: its IL
/// and its opt report.
fn identity(c: &Compilation) -> (String, String) {
    (il_text(c), report_json(c))
}

/// The procedures of `src` that hold `victim` in their inline cone —
/// exactly the ones an edit to `victim` must recompile.
fn cone_consumers(src: &str, victim: &str) -> Result<Vec<String>, String> {
    let prog = titanc_lower::compile_to_il(src)?;
    let vi = prog.procs.iter().position(|p| p.name == victim);
    let vi = vi.ok_or_else(|| format!("no procedure `{victim}`"))?;
    let cones = CallGraph::build(&prog).inline_cones(&prog);
    let consumers = prog.procs.iter().zip(&cones);
    let consumers = consumers.filter(|(_, cone)| cone.contains(&vi));
    Ok(consumers.map(|(p, _)| p.name.clone()).collect())
}

/// Every file of a cache directory — entries (`*.il`), session manifests,
/// the index and the `FORMAT` marker — by name.
fn cache_files(dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).map_err(io)? {
        let path = entry.map_err(io)?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_file() {
            files.insert(name.into_owned(), fs::read(&path).map_err(io)?);
        }
    }
    Ok(files)
}

fn cache_faults(case: &Case, totals: &mut Totals) -> Result<(), String> {
    let (src, seed) = (case.src.as_str(), case.seed);
    let options = Options {
        jobs: 1,
        verify: true,
        ..Options::o2()
    };
    // phase 0: the store-less reference
    let expect = identity(&reference(src, &options, totals, "reference")?);
    let expect = Some(&expect);
    let scratch = Scratch::new(&format!("cache-faults-{seed:016x}"));

    // phases 1 and 2: cold populate, then warm read-back, each under its
    // own injected IO faults
    let faulty = scratch.join("faulty");
    for (spec, what) in [
        (fault_spec(seed), "cold under IO faults"),
        (
            fault_spec(seed ^ 0xA5A5_A5A5_A5A5_A5A5),
            "warm under IO faults",
        ),
    ] {
        with_faults(spec, || {
            session(src, &options, Some(&faulty), totals, expect, what)
        })?;
    }

    // every write failing is counted and surfaced as exactly one warning
    let all = |op| IoFaultSpec::new(seed).rule(op, FaultMode::Fail, 1.0);
    let dir = scratch.join("write-fail");
    let what = "every write failing";
    let crippled = with_faults(all(IoOp::Write), || {
        session(src, &options, Some(&dir), totals, expect, what)
    })?;
    let diagnostics = &crippled.compilation.diagnostics;
    let warnings = diagnostics
        .iter()
        .filter(|d| d.message.contains("cache write(s) failed"));
    let (failed, warnings) = (crippled.stats.write_failed, warnings.count());
    if failed == 0 || warnings != 1 {
        return Err(format!(
            "{what}: {failed} counted, {warnings} warning(s); want some and exactly one"
        ));
    }

    // phase 3: clean populate; with every read failing the directory
    // serves nothing; then flip and truncate bytes on disk — the warm run
    // must count the damage corrupt, quarantine every such file, and still
    // produce the reference output
    let dir = scratch.join("corrupt");
    session(src, &options, Some(&dir), totals, expect, "clean populate")?;
    let what = "every read failing";
    let blinded = with_faults(all(IoOp::Read), || {
        session(src, &options, Some(&dir), totals, expect, what)
    })?;
    if blinded.stats.hits != 0 {
        return Err(format!("{what}: {} hit(s)", blinded.stats.hits));
    }
    corrupt_cache_dir(&dir, &mut progen::Rng::new(seed ^ 0x5EED_C0DE))
        .map_err(|e| format!("corrupting {}: {e}", dir.display()))?;
    let what = "warm after on-disk corruption";
    let damaged = session(src, &options, Some(&dir), totals, expect, what)?;
    let kept = fs::read_dir(dir.join("quarantine")).map_or(0, |d| d.count());
    let s = damaged.stats;
    if s.corrupt == 0 || s.corrupt != s.quarantined || kept < s.quarantined {
        return Err(format!(
            "{what}: {} corrupt, {} quarantined, {kept} kept in quarantine/; \
             want corrupt = quarantined > 0, all kept",
            s.corrupt, s.quarantined
        ));
    }

    // phase 4: two sessions of this program and two of another racing
    // into one fresh directory, under one file name; nothing is locked,
    // so each must find a complete, fully warm cache afterwards
    let other = progen::program(&mut progen::Rng::new(seed ^ 0x07E5_0C0D));
    let other_expect = identity(&reference(&other, &options, totals, "other reference")?);
    let programs = [(src, expect), (other.as_str(), Some(&other_expect))];
    let dir = scratch.join("race");
    std::thread::scope(|scope| -> Result<(), String> {
        let racers: Vec<_> = (0..4)
            .map(|i| {
                let (dir, options, (src, expect)) = (&dir, &options, programs[i % 2]);
                scope.spawn(move || {
                    let what = format!("racing session {i}");
                    let t = &mut Totals::default();
                    session(src, options, Some(dir), t, expect, &what).map(|sc| sc.stats)
                })
            })
            .collect();
        for h in racers {
            let joined = h.join().map_err(|_| "racing session panicked".to_string());
            totals.absorb(&joined??);
        }
        Ok(())
    })?;
    for (i, (src, expect)) in programs.into_iter().enumerate() {
        let what = format!("warm after race (program {i})");
        let warm = session(src, &options, Some(&dir), totals, expect, &what)?;
        if !warm.stats.full_warm {
            return Err(format!("{what}: the race left no fully warm cache"));
        }
    }

    // phase 5: edit one seed-chosen helper of a generated call-graph
    // session of 4 to 6 helpers (inlining on). The warm run, at -j 1 or
    // -j 4 by seed, must miss exactly the procedures whose inline cone
    // holds the helper — always the helper and `main`, and only those
    // for the last helper, which no helper calls — and match a store-less
    // compile of the edited source; two from-scratch directories of the
    // edited source, at -j 1 and -j 4, must hold the same files (entries,
    // manifest, index, marker) byte for byte as each other and as the
    // warm-edit directory, which keeps one superseded entry per miss and
    // the old manifest besides. Then the edited warm run again, under
    // injected IO faults.
    let helpers = 4 + ((seed >> 40) % 3) as usize;
    let victim = (seed % helpers as u64) as usize;
    let jobs = if (seed >> 32) & 1 == 0 { 1 } else { 4 };
    let at = |jobs| Options {
        jobs,
        ..options.clone()
    };
    let salts = vec![0; helpers];
    let base = progen::session_program(&mut progen::Rng::new(seed), helpers, &salts);
    let mut edited_salts = salts;
    edited_salts[victim] = (seed % 1000) as i64 + 1;
    let edited = progen::session_program(&mut progen::Rng::new(seed), helpers, &edited_salts);
    let last = victim + 1 == helpers;
    let victim = format!("h{}", victim + 1);
    let named = cone_consumers(&edited, &victim)?;
    let main = "main".to_string();
    if !named.contains(&victim) || !named.contains(&main) || (last && named.len() != 2) {
        return Err(format!(
            "the inline cones of {victim} (of {helpers} helpers) hold it in {named:?}"
        ));
    }
    let (consumers, total) = (named.len(), helpers + 1);

    let edited_expect = identity(&reference(&edited, &options, totals, "edited reference")?);
    let edited_expect = Some(&edited_expect);
    let (dir, what) = (scratch.join("edit"), "session populate");
    session(&base, &options, Some(&dir), totals, None, what)?;
    // a copy of the populated directory for the run under faults at the
    // end (populates are byte-deterministic, which the from-scratch
    // comparison below holds)
    let faulty = scratch.join("edit-faulty");
    let io = |e: std::io::Error| format!("copying into {}: {e}", faulty.display());
    fs::create_dir_all(&faulty).map_err(io)?;
    for (name, bytes) in cache_files(&dir)? {
        fs::write(faulty.join(name), bytes).map_err(io)?;
    }
    let what = format!("editing {victim} at -j {jobs}");
    let warm = session(&edited, &at(jobs), Some(&dir), totals, edited_expect, &what)?;
    let s = warm.stats;
    if (s.hits, s.misses, s.invalidated) != (total - consumers, consumers, consumers) {
        return Err(format!(
            "{what}: {} hit(s), {} miss(es), {} invalidated of {total} procedure(s); \
             want exactly its {consumers} cone consumer(s) to miss, as invalidations",
            s.hits, s.misses, s.invalidated
        ));
    }
    let mut fresh = Vec::new();
    for j in [1, 4] {
        let (dir, what) = (
            scratch.join(format!("fresh-j{j}")),
            format!("from scratch at -j {j}"),
        );
        session(&edited, &at(j), Some(&dir), totals, edited_expect, &what)?;
        fresh.push(cache_files(&dir)?);
    }
    let entries =
        |files: &BTreeMap<String, Vec<u8>>| files.keys().filter(|n| n.ends_with(".il")).count();
    let warm_files = cache_files(&dir)?;
    if fresh[0] != fresh[1] || (entries(&fresh[0]), fresh[0].len()) != (total, total + 3) {
        return Err(format!(
            "{what}: two from-scratch directories hold different bytes, or not {total} \
             entries, one manifest, the index and the marker"
        ));
    }
    if let Some(name) = fresh[0]
        .iter()
        .find(|(n, b)| warm_files.get(*n) != Some(*b))
    {
        return Err(format!(
            "{what}: the warm-edit directory holds other bytes in {}",
            name.0
        ));
    }
    if entries(&warm_files) != total + consumers {
        return Err(format!(
            "{what}: the warm-edit directory holds {} entries, not {total} plus {consumers} \
             superseded",
            entries(&warm_files)
        ));
    }
    let what = "edited warm under IO faults";
    with_faults(fault_spec(seed ^ 0x0DDB_175C_AFE0_0000), || {
        session(
            &edited,
            &options,
            Some(&faulty),
            totals,
            edited_expect,
            what,
        )
    })?;
    Ok(())
}

// ---------------------------------------------------------------------------
// server: one-shot ≡ daemon, through bursts, edits, reverts and damage
// ---------------------------------------------------------------------------

/// The stdout a daemon's reply to a `--print-il --opt-report=json`
/// request must carry.
fn reply_stdout(c: &Compilation) -> String {
    format!("{}{}", il_block(&c.program), opt_report_block(c, true))
}

/// Sends `req` as request `id` to an in-process daemon. The reply must exit
/// 0 with `stdout`, and say it was fully warm when `warm` is set.
fn ask(
    srv: &Server,
    req: &CompileRequest,
    id: i64,
    stdout: &str,
    warm: bool,
    what: &str,
) -> Result<CompileResponse, String> {
    let req = CompileRequest { id, ..req.clone() };
    let line = match srv.handle_line(&req.to_json().to_string_compact()) {
        Reply::Line(line) => line,
        Reply::Shutdown(_) => return Err(format!("{what}: unexpected shutdown acknowledgement")),
    };
    let doc = parse_json(&line).map_err(|e| format!("{what}: bad response json: {e}"))?;
    let resp =
        CompileResponse::from_json(&doc).map_err(|e| format!("{what}: bad response: {e}"))?;
    if resp.exit != 0 || resp.stdout != stdout {
        return Err(format!(
            "{what}: exit {}, or stdout diverged from the no-cache reference:\n{}",
            resp.exit, resp.stderr
        ));
    }
    if warm && !resp.stderr.contains("(fully warm)") {
        return Err(format!("{what}: not fully warm:\n{}", resp.stderr));
    }
    Ok(resp)
}

fn server(case: &Case, totals: &mut Totals) -> Result<(), String> {
    const CLIENTS: i64 = 4;
    const ONE_SHOTS: usize = 2;
    let src = case.src.as_str();
    let req = CompileRequest {
        files: vec![SourceFile::new("case.c", src)],
        parallelize: true,
        spread_lists: true,
        verify: true,
        print_il: true,
        opt_report: "json".to_string(),
        ..CompileRequest::default()
    };
    let options = req.options();
    let c = reference(src, &options, totals, "reference")?;
    let (expect, stdout) = (identity(&c), reply_stdout(&c));

    let scratch = Scratch::new(&format!("server-{:016x}", case.seed));
    let dir = scratch.join("cache");
    let config = |workers| ServerConfig {
        cache_dir: Some(dir.clone()),
        workers,
    };
    let srv = Server::new(&config(CLIENTS as usize)).quiet();

    // the burst: server clients and one-shot sessions in flight together
    // over one shared directory
    std::thread::scope(|scope| -> Result<(), String> {
        let (srv, req, stdout, expect) = (&srv, &req, stdout.as_str(), &expect);
        let clients = (1..=CLIENTS).map(|id| {
            scope.spawn(move || {
                let what = format!("server client {id}");
                ask(srv, req, id, stdout, false, &what).map(|_| None)
            })
        });
        let one_shots = (0..ONE_SHOTS).map(|i| {
            let (dir, options) = (&dir, &options);
            scope.spawn(move || {
                let what = format!("one-shot session {i}");
                let t = &mut Totals::default();
                session(src, options, Some(dir), t, Some(expect), &what).map(|sc| Some(sc.stats))
            })
        });
        let handles: Vec<_> = clients.chain(one_shots).collect();
        for h in handles {
            let joined = h
                .join()
                .map_err(|_| "burst participant panicked".to_string());
            if let Some(stats) = joined?? {
                totals.absorb(&stats);
            }
        }
        Ok(())
    })?;

    // post-burst: every cone is published, so a repeat skips the pipeline
    ask(&srv, &req, CLIENTS + 1, &stdout, true, "post-burst repeat")?;

    // edit, then revert: a procedure appears and disappears again. The
    // edited request must match its own no-cache reference; the revert
    // must skip the pipeline — every entry and the manifest still resident
    // or on disk — and answer with the first bytes.
    let edited_src = format!("{src}\nint stress_edit_marker(void) {{ return 7; }}\n");
    let edited = reference(&edited_src, &options, totals, "edited reference")?;
    let edited = reply_stdout(&edited);
    let edit_req = CompileRequest {
        files: vec![SourceFile::new("case.c", edited_src)],
        ..req.clone()
    };
    ask(&srv, &edit_req, CLIENTS + 2, &edited, false, "edit")?;
    ask(&srv, &req, CLIENTS + 3, &stdout, true, "revert")?;

    // damage under the daemon: one file of the directory loses a bit,
    // another its tail. The running daemon holds the payloads it read in
    // memory and does not care; a fresh daemon over the damaged directory
    // refuses what is damaged on its read (quarantined, dropped from
    // memory), answers with the same bytes, and its recompile heals the
    // next request.
    corrupt_cache_dir(&dir, &mut progen::Rng::new(case.seed ^ 0x5EED_C0DE))
        .map_err(|e| format!("could not corrupt cache dir: {e}"))?;
    ask(&srv, &req, CLIENTS + 4, &stdout, true, "after corruption")?;
    let fresh = Server::new(&config(1)).quiet();
    ask(&fresh, &req, 1, &stdout, false, "fresh daemon, damaged dir")?;
    ask(&fresh, &req, 2, &stdout, true, "healed")?;
    // every request so far asked for `verify`, which the reply memo stays
    // out of. Without it the healed daemon's next reply is admitted and
    // the one after is that memoised line.
    let plain = CompileRequest {
        verify: false,
        ..req.clone()
    };
    let executed = ask(&fresh, &plain, 3, &stdout, false, "plain, executed")?;
    let memoised = ask(&fresh, &plain, 4, &stdout, false, "plain, memoised")?;
    if memoised.stderr != executed.stderr {
        return Err(format!(
            "plain, memoised: stderr diverged:\n{}",
            memoised.stderr
        ));
    }
    let ft = fresh.totals();
    if (ft.reply_hits, ft.reply_misses) != (1, 1) {
        return Err(format!("reply memo: {ft}; want 1 hit and 1 miss"));
    }
    if ft.corrupt != ft.quarantined {
        return Err(format!("fresh daemon kept something it refused: {ft}"));
    }
    let st = srv.totals();
    if st.protocol_errors != 0 || st.requests != CLIENTS + 4 {
        return Err(format!(
            "daemon accounting: {st}; want {} requests, no protocol error",
            CLIENTS + 4
        ));
    }
    totals.daemon.merge(&ft);
    totals.daemon.merge(&st);
    Ok(())
}

// ---------------------------------------------------------------------------
// codec: wire, catalogs, cells and manifests round-trip
// ---------------------------------------------------------------------------

/// Every procedure of `program`: printing, hashing and encoding are pure
/// functions of the arena (a clone agrees); `decode(encode(p)) == p` down
/// to the stamp watermark, and re-encoding reproduces the bytes; the
/// decoded procedure passes the IL verifier, and its arena hash is the
/// digest of its own wire bytes — hashing and encoding are one walker.
fn round_trip(program: &Program, what: &str) -> Result<(), String> {
    for p in &program.procs {
        let what = format!("{what}, proc `{}`", p.name);
        let fail = |why: &str| Err(format!("{what}: {why}"));
        let clone = p.clone();
        if pretty_proc(p) != pretty_proc(&clone) || hash_proc(p) != hash_proc(&clone) {
            return fail("a clone prints or hashes differently");
        }

        let bytes = encode_proc(p);
        if encode_proc(&clone) != bytes {
            return fail("a clone wire-encodes differently");
        }
        let q = decode_proc(&bytes).map_err(|e| format!("{what}: wire decode failed: {e}"))?;
        if q != *p || q.next_stmt() != p.next_stmt() {
            return fail("wire decode(encode(p)) != p, or it moved the stamp watermark");
        }
        if encode_proc(&q) != bytes {
            return fail("wire re-encoding differs");
        }
        verify_proc(&q).map_err(|e| format!("{what}: decoded IL rejected: {e:?}"))?;
        let mut h = StableHasher::new();
        h.write(&bytes);
        if hash_proc(&q) != h.finish() || hash_proc(&p.canonical()) != hash_proc(&q) {
            return fail("hash != digest(wire bytes), or != the canonical layout's hash");
        }
    }
    Ok(())
}

/// `from_bytes(to_bytes(c)) == c`, and the re-encoding is byte-identical.
/// Returns the decoded catalog, for checks on its fields.
fn catalog_round_trip(catalog: &Catalog, what: &str) -> Result<Catalog, String> {
    let bytes = catalog.to_bytes();
    let decoded =
        Catalog::from_bytes(&bytes).map_err(|e| format!("{what}: catalog decode: {e}"))?;
    if decoded != *catalog || decoded.to_bytes() != bytes {
        return Err(format!(
            "{what}: catalog decode(encode(c)) != c, or re-encoding differs"
        ));
    }
    Ok(decoded)
}

/// The codec contracts over one source: its parsed program (plain, and as
/// span-bearing, origin-tagged and span-free catalogs) and its optimized
/// program under each of `sets`.
pub fn codec_program<'a>(
    src: &str,
    name: &str,
    sets: impl IntoIterator<Item = &'a (&'static str, Options)>,
    totals: &mut Totals,
) -> Result<(), String> {
    let parsed = titanc_lower::compile_to_il(src).map_err(|e| format!("{name}: {e}"))?;
    if parsed.is_empty() {
        return Err(format!("{name}: empty lowering"));
    }
    round_trip(&parsed, &format!("{name}, parsed"))?;
    catalog_round_trip(
        &Catalog::from_program(name, &parsed),
        &format!("{name}, span-bearing"),
    )?;

    // a session merge tags every span with its file, so the catalog
    // carries a file table too
    let mut tagged = parsed.clone();
    let tag = tagged.intern_file(&format!("{name}.c"));
    for p in &mut tagged.procs {
        p.retag_spans(&[tag]);
    }
    let what = format!("{name}, origin-tagged");
    let decoded = catalog_round_trip(&Catalog::from_program(name, &tagged), &what)?;
    if decoded.files.is_empty() {
        return Err(format!("{what}: the catalog lost its file table"));
    }

    // a catalog of procedures without source positions keeps none
    let mut bare = parsed;
    for p in &mut bare.procs {
        p.stmts.spans_mut().fill(SrcSpan::NONE);
    }
    let what = format!("{name}, span-free");
    let decoded = catalog_round_trip(&Catalog::from_program(name, &bare), &what)?;
    let spanned = |p: &Procedure| p.stmts.spans().iter().any(|s| *s != SrcSpan::NONE);
    if decoded.procs.iter().any(spanned) {
        return Err(format!("{what}: the catalog decodes spans"));
    }

    let mut rng = progen::Rng::new(StableHash::of_str(src).0 as u64);
    for (level, options) in sets {
        let what = format!("{name} at {level}");
        let (c, cells, manifest) = compile_recorded(src, options, &what)?;
        totals.tally(&c);
        round_trip(&c.program, &what)?;
        for (p, cells) in c.program.procs.iter().zip(&cells) {
            wire_contract(cells, &mut rng, &format!("{what}, cells of `{}`", p.name))?;
        }
        wire_contract(&manifest, &mut rng, &format!("{what}, manifest"))?;
    }
    Ok(())
}

/// `src` compiled under `options` as a cold `--cache-dir` session compiles
/// it, with every procedure's recorded cells (none at `-O0`, which runs no
/// per-procedure pass) and the session manifest.
fn compile_recorded(
    src: &str,
    options: &Options,
    what: &str,
) -> Result<(Compilation, Vec<Vec<RecordedCell>>, Manifest), String> {
    let mut program = titanc_lower::compile_to_il(src).map_err(|e| format!("{what}: {e}"))?;
    let pipeline = Pipeline::for_options(options);
    let mut session = SessionReplay {
        procs: program.procs.iter().map(|_| Replay::None).collect(),
        manifest: None,
    };
    let mut snapshots = Vec::new();
    let (reports, trace) = pipeline.run(&mut program, options, &mut snapshots, Some(&mut session));
    let recorded = session.procs.into_iter().filter_map(|r| match r {
        Replay::Recorded(cells) => Some(cells),
        _ => None,
    });
    let cells: Vec<_> = recorded.collect();
    if !pipeline.proc_pass_names().is_empty() && cells.len() != program.procs.len() {
        return Err(format!("{what}: a procedure's cells were not recorded"));
    }
    let manifest = Manifest::new(&pipeline, &program, &trace);
    let c = Compilation {
        program,
        reports,
        trace,
        snapshots,
        diagnostics: Vec::new(),
    };
    Ok((c, cells, manifest))
}

/// Single-byte flips tried per encoded value.
const FLIPS: usize = 16;

/// `value`'s wire bytes round-trip both ways (`decode(encode(x)) == x`,
/// `encode(decode(b)) == b`); every truncated prefix of them is refused;
/// and each of [`FLIPS`] seeded single-byte flips is refused or decodes to
/// a value whose encoding is exactly the flipped bytes. A flip inside a
/// counter is another valid value, so canonicity is what a reader can
/// promise: it never normalizes damage into bytes it did not read (and a
/// panic fails the case).
fn wire_contract<T: Wire + PartialEq>(
    value: &T,
    rng: &mut progen::Rng,
    what: &str,
) -> Result<(), String> {
    let bytes = wire::to_bytes(value);
    let back = wire::from_bytes::<T>(&bytes).map_err(|e| format!("{what}: decode: {e}"))?;
    if back != *value || wire::to_bytes(&back) != bytes {
        return Err(format!(
            "{what}: decode(encode(x)) != x, or re-encoding differs"
        ));
    }
    if let Some(cut) = (0..bytes.len()).find(|&cut| wire::from_bytes::<T>(&bytes[..cut]).is_ok()) {
        return Err(format!("{what}: its {cut}-byte prefix decodes"));
    }
    for _ in 0..FLIPS {
        let mut flipped = bytes.clone();
        let at = rng.below(bytes.len() as u64) as usize;
        flipped[at] ^= 1 + rng.below(255) as u8;
        if let Ok(v) = wire::from_bytes::<T>(&flipped) {
            if wire::to_bytes(&v) != flipped {
                return Err(format!(
                    "{what}: a flip at byte {at} decodes non-canonically"
                ));
            }
        }
    }
    Ok(())
}

/// Every case at `-O2` and at one more option set, rotating by seed.
fn codec(case: &Case, totals: &mut Totals) -> Result<(), String> {
    let sets = option_sets();
    let rotating = &sets[(case.seed % sets.len() as u64) as usize];
    codec_program(&case.src, "case", [&sets[2], rotating], totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_order_independent_and_spread() {
        let a = case_seed(DEFAULT_SEED, 0);
        assert_ne!(a, case_seed(DEFAULT_SEED, 1));
        // stable: same (run seed, index) -> same case seed
        assert_eq!(a, case_seed(DEFAULT_SEED, 0));
        // different run seeds decorrelate the same index
        assert_ne!(a, case_seed(DEFAULT_SEED + 1, 0));
    }
}
