//! Differential stress harness for the fail-soft pipeline.
//!
//! Generates random C programs ([`titanc_bench::progen`]) and, for each:
//!
//! * compiles at `-O0` and `-O2`, and at `-O2` with `-j 1` and `-j 4`;
//! * demands **zero contained incidents** — the optimizer must not fault
//!   on well-formed input, even though a fault would be survivable;
//! * runs every build on the Titan simulator and demands identical
//!   observations (return value, output, both output arrays);
//! * with `--engine both` (the default), runs every build under the
//!   reference interpreter *and* the bytecode VM and demands identical
//!   observations and identical execution statistics (cycle totals
//!   included) between the engines;
//! * demands byte-identical IL between `-j 1` and `-j 4`;
//! * treats an escaping panic anywhere in compile-or-run as a failure.
//!
//! ```text
//! stress [--cases N] [--seed S] [--case-seed S] [--engine interp|vm|both] [--verbose]
//! stress --cache-faults [--cases N] [--seed S] [--case-seed S] [--verbose]
//! stress --server [--cases N] [--seed S] [--case-seed S] [--verbose]
//! ```
//!
//! `--cache-faults` switches to the **cache durability differential**:
//! every case compiles a progen program with no cache (the reference)
//! and then through a `--cache-dir` under escalating abuse — injected
//! IO faults (fail/truncate/delay on reads, writes, renames), random
//! byte flips and truncations of the on-disk entries and manifest, and
//! sessions of two different programs racing into one directory (each
//! must find it fully warm afterwards) — asserting after every
//! scenario that the optimized IL and the opt report are byte-identical
//! to the no-cache reference, that nothing panics, and that detected
//! corruption is counted and quarantined. Each case finishes with a
//! cone-scoped edit: a generated multi-procedure session is populated,
//! one procedure is mutated, and the warm run must miss exactly that
//! procedure's inline cone while matching a no-cache compile of the
//! edited source — clean and again under injected faults. An aggregate accounting
//! summary (the `titanc: cache:` line's counters) prints at the end; CI
//! uploads it as an artifact.
//!
//! `--server` switches to the **compile-server differential**: every
//! case compiles a progen program with no cache (the reference), then
//! fires a burst of concurrent in-process [`titanc::server::Server`]
//! requests racing concurrent one-shot `--cache-dir` sessions into the
//! daemon's write-through directory. Every server response must carry
//! the reference's exact stdout bytes, every one-shot session must
//! match the reference IL and opt report, and a post-burst repeat must
//! skip the pipeline entirely (fully warm). Each case then edits the
//! program and reverts it (the revert must come wholly from the daemon's
//! memos) and damages the directory under the daemon (its typed values
//! are immune; a fresh daemon quarantines what is damaged and heals it).
//! The daemon's aggregate
//! accounting (and the one-shot sessions') prints at the end; CI
//! uploads it as an artifact.
//!
//! Each case gets its own generator seed, mixed (splitmix64-style) from
//! the run seed and the case index, so one case's program depends only on
//! `(run seed, index)` — not on how many programs were generated before
//! it. A `FAIL` line prints the per-case seed, and `--case-seed` replays
//! exactly that one program without regenerating the run. Seeds accept
//! decimal or `0x`-prefixed hex (underscores allowed) and are printed in
//! the same hex form they are accepted in.
//!
//! Exits `0` when every case agrees, `1` otherwise, printing the seeds
//! and the offending program so any failure reproduces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use titanc::server::{
    cache_line, il_block, opt_report_block, CompileRequest, CompileResponse, Reply, Server,
    ServerConfig, ServerTotals,
};
use titanc::{
    compile, compile_session, install_io_faults, Compilation, FaultMode, IoFaultSpec, IoOp,
    OptReport, Options, SessionCompilation, SessionStats, SourceFile,
};
use titanc_bench::progen;
use titanc_il::json::{parse as parse_json, FromJson, ToJson};
use titanc_il::{pretty_proc, ScalarType};
use titanc_titan::{observe_with, ExecEngine, ExecStats, MachineConfig, Observation};

/// The default run seed (an arbitrary constant, fixed so a bare `stress`
/// run is reproducible across machines and sessions).
const DEFAULT_SEED: u64 = 0x717A_2C57;

/// Which engines a run exercises; `Both` adds the cross-engine
/// differential to every case.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EngineChoice {
    One(ExecEngine),
    Both,
}

impl EngineChoice {
    fn engines(self) -> Vec<ExecEngine> {
        match self {
            EngineChoice::One(e) => vec![e],
            EngineChoice::Both => vec![ExecEngine::Interp, ExecEngine::Vm],
        }
    }

    fn name(self) -> &'static str {
        match self {
            EngineChoice::One(e) => e.name(),
            EngineChoice::Both => "both",
        }
    }
}

struct Args {
    cases: u64,
    seed: u64,
    /// Replay exactly one case by its per-case seed.
    case_seed: Option<u64>,
    engine: EngineChoice,
    /// Run the cache durability differential instead of the
    /// execution differential.
    cache_faults: bool,
    /// Run the compile-server differential instead of the execution
    /// differential.
    server: bool,
    verbose: bool,
}

/// Parses a seed in decimal or `0x`-prefixed hex; `_` separators are
/// accepted in both forms (so printed seeds round-trip).
fn parse_seed(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Derives case `i`'s generator seed from the run seed — the splitmix64
/// finalizer over a golden-ratio stride, so nearby indices land far
/// apart and case programs are independent of generation order.
fn case_seed(run_seed: u64, case: u64) -> u64 {
    let mut z = run_seed.wrapping_add(case.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args() -> Args {
    let mut args = Args {
        cases: 100,
        seed: DEFAULT_SEED,
        case_seed: None,
        engine: EngineChoice::Both,
        cache_faults: false,
        server: false,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cases" => {
                args.cases = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| parse_seed(&v))
                    .unwrap_or_else(|| usage());
            }
            "--case-seed" => {
                args.case_seed = Some(
                    it.next()
                        .and_then(|v| parse_seed(&v))
                        .unwrap_or_else(|| usage()),
                );
            }
            "--engine" => {
                args.engine = match it.next().as_deref() {
                    Some("both") => EngineChoice::Both,
                    Some(e) => EngineChoice::One(e.parse().unwrap_or_else(|_| usage())),
                    None => usage(),
                };
            }
            "--cache-faults" => args.cache_faults = true,
            "--server" => args.server = true,
            "--verbose" => args.verbose = true,
            _ => usage(),
        }
    }
    args
}

fn usage() -> ! {
    eprintln!(
        "usage: stress [--cases N] [--seed S] [--case-seed S] [--engine interp|vm|both] [--verbose]"
    );
    eprintln!("       stress --cache-faults [--cases N] [--seed S] [--case-seed S] [--verbose]");
    eprintln!("       stress --server [--cases N] [--seed S] [--case-seed S] [--verbose]");
    eprintln!("       seeds are decimal or 0x-prefixed hex");
    std::process::exit(2);
}

fn opts(opt: Options, jobs: usize) -> Options {
    Options {
        jobs,
        verify: true,
        ..opt
    }
}

/// Compiles, requiring a clean front end and zero contained incidents.
fn build(src: &str, options: &Options, what: &str) -> Result<Compilation, String> {
    let compiled =
        compile(src, options).map_err(|e| format!("{what}: front end rejected input: {e}"))?;
    if compiled.has_incidents() {
        return Err(format!(
            "{what}: {} contained incident(s): {}",
            compiled.trace.incidents.len(),
            compiled
                .trace
                .incidents
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    Ok(compiled)
}

/// Runs one build under every requested engine, demanding that the
/// engines agree on the observation *and* on every execution statistic
/// (cycle totals included). The failure string names the engine.
fn run(
    compiled: &Compilation,
    machine: MachineConfig,
    engines: &[ExecEngine],
    what: &str,
) -> Result<Observation, String> {
    let mut first: Option<(ExecEngine, Observation, ExecStats)> = None;
    for &engine in engines {
        let (obs, stats) = observe_with(
            &compiled.program,
            machine.clone(),
            engine,
            "main",
            &[
                ("out_g", ScalarType::Int, progen::OUT_LEN as u32),
                ("out_f", ScalarType::Float, progen::OUT_LEN as u32),
            ],
        )
        .map_err(|e| format!("{what} [{engine}]: simulator fault: {e}"))?;
        match &first {
            None => first = Some((engine, obs, stats)),
            Some((e0, obs0, stats0)) => {
                if obs != *obs0 {
                    return Err(format!(
                        "{what}: engine observation divergence:\n  \
                         {e0}: {obs0:?}\n  {engine}: {obs:?}"
                    ));
                }
                if stats != *stats0 {
                    return Err(format!(
                        "{what}: engine statistics divergence:\n  \
                         {e0}: {stats0:?}\n  {engine}: {stats:?}"
                    ));
                }
            }
        }
    }
    Ok(first.expect("at least one engine").1)
}

fn pretty_program(c: &Compilation) -> String {
    c.program
        .procs
        .iter()
        .map(pretty_proc)
        .collect::<Vec<_>>()
        .join("\n")
}

/// One differential case; returns a failure description, if any.
fn check_case(src: &str, engines: &[ExecEngine]) -> Result<(), String> {
    let o0 = build(src, &opts(Options::o0(), 1), "O0")?;
    let o2_j1 = build(src, &opts(Options::o2(), 1), "O2 -j1")?;
    let o2_j4 = build(src, &opts(Options::o2(), 4), "O2 -j4")?;

    // parallel pass groups must be invisible in the output
    if pretty_program(&o2_j1) != pretty_program(&o2_j4) {
        return Err("-j1 and -j4 produced different IL".to_string());
    }

    let base = run(&o0, MachineConfig::default(), engines, "O0")?;
    let fast1 = run(&o2_j1, MachineConfig::optimized(1), engines, "O2 -j1")?;
    let fast4 = run(&o2_j4, MachineConfig::optimized(1), engines, "O2 -j4")?;
    if base != fast1 {
        return Err(format!(
            "O0 vs O2 -j1 observation divergence:\n  O0: {base:?}\n  O2: {fast1:?}"
        ));
    }
    if fast1 != fast4 {
        return Err("O2 -j1 vs -j4 observation divergence".to_string());
    }
    Ok(())
}

/// What distinguishes one differential mode's sweep from another's: the
/// label its FAIL/ok lines carry, the flag a replay hint names, and
/// whether its summary lines are prefixed with the label (`stress:
/// cache-faults: …`) or carry it in parentheses (`stress: … (engine
/// both)`, which also closes with the zero-incidents claim).
struct Mode<'a> {
    label: &'a str,
    replay_flag: &'a str,
    labelled_prefix: bool,
}

/// Generates the program for one per-case seed and checks it, treating
/// an escaping panic anywhere in compile-or-run as a failure; returns
/// the failure description, if any.
fn run_case<T>(
    cseed: u64,
    totals: &mut T,
    check: &impl Fn(u64, &str, &mut T) -> Result<(), String>,
) -> Option<String> {
    let mut rng = progen::Rng::new(cseed);
    let src = progen::program(&mut rng);
    let verdict = catch_unwind(AssertUnwindSafe(|| check(cseed, &src, totals)));
    install_io_faults(None); // belt and braces: never leak faults across cases
    let failure = match verdict {
        Ok(Ok(())) => None,
        Ok(Err(why)) => Some(why),
        Err(_) => Some("escaping panic (not contained by the pipeline)".to_string()),
    };
    failure.map(|why| format!("{why}\n--- program ---\n{src}---------------"))
}

/// The sweep all three modes share: `--case-seed` replays exactly one
/// generated program; otherwise `--cases` programs run, each FAIL line
/// carrying its replay hint. Prints the mode's aggregate accounting and
/// the closing summary, and exits non-zero on any divergence.
fn sweep<T>(
    args: &Args,
    mode: &Mode<'_>,
    mut totals: T,
    check: impl Fn(u64, &str, &mut T) -> Result<(), String>,
    print_totals: impl Fn(&T),
) -> ! {
    let label = mode.label;
    let (prefix, seed_note, run_note, tail) = if mode.labelled_prefix {
        (
            format!("stress: {label}:"),
            String::new(),
            String::new(),
            "",
        )
    } else {
        let (seed_note, run_note) = (format!(" ({label})"), format!(", {label}"));
        (
            "stress:".to_string(),
            seed_note,
            run_note,
            ", zero incidents",
        )
    };

    if let Some(cseed) = args.case_seed {
        let failure = run_case(cseed, &mut totals, &check);
        if let Some(why) = &failure {
            eprintln!("FAIL case seed 0x{cseed:X} ({label}): {why}");
        }
        print_totals(&totals);
        let verdict = if failure.is_some() { "FAILED" } else { "ok" };
        println!("{prefix} case seed 0x{cseed:X}{seed_note} {verdict}");
        std::process::exit(i32::from(failure.is_some()));
    }

    let mut failures = 0u64;
    for case in 0..args.cases {
        let cseed = case_seed(args.seed, case);
        if let Some(why) = run_case(cseed, &mut totals, &check) {
            failures += 1;
            eprintln!(
                "FAIL case {case} (case seed 0x{cseed:X}, run seed 0x{:X}, {label}): {why}\n\
                 replay with: stress {} --case-seed 0x{cseed:X}",
                args.seed, mode.replay_flag
            );
        } else if args.verbose {
            eprintln!("ok case {case} (case seed 0x{cseed:X}, {label})");
        }
    }
    print_totals(&totals);
    if failures == 0 {
        println!(
            "{prefix} {} cases (run seed 0x{:X}{run_note}), zero divergence{tail}",
            args.cases, args.seed
        );
        std::process::exit(0);
    }
    println!(
        "{prefix} {failures} of {} cases FAILED (run seed 0x{:X}{run_note})",
        args.cases, args.seed
    );
    std::process::exit(1);
}

// ---------------------------------------------------------------------------
// cache durability differential (`--cache-faults`)
// ---------------------------------------------------------------------------

/// How many sessions a sweep ran and what their caches did, summed;
/// printed at the end and uploaded by CI as an artifact.
type SessionTotals = (usize, SessionStats);

fn absorb(totals: &mut SessionTotals, (sessions, stats): &SessionTotals) {
    totals.0 += sessions;
    totals.1.merge(stats);
}

/// Pretty-prints a session's optimized IL, the byte-identity unit.
fn session_il(sc: &SessionCompilation) -> String {
    sc.compilation
        .program
        .procs
        .iter()
        .map(pretty_proc)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders a session's `--opt-report=json`, the second identity unit.
fn session_report(sc: &SessionCompilation) -> String {
    OptReport::build_for(
        &sc.compilation.reports,
        &sc.compilation.trace,
        &sc.compilation.program.files,
    )
    .to_json()
    .to_string_compact()
}

/// The fault mix a case runs under: every operation can fail, writes
/// and reads can tear, and reads can stall — all at rates high enough
/// that a 300-case sweep exercises each path hundreds of times.
fn case_fault_spec(seed: u64) -> IoFaultSpec {
    IoFaultSpec::new(seed)
        .rule(IoOp::Read, FaultMode::Fail, 0.04)
        .rule(IoOp::Read, FaultMode::Truncate, 0.04)
        .rule(IoOp::Read, FaultMode::Delay, 0.02)
        .rule(IoOp::Write, FaultMode::Fail, 0.05)
        .rule(IoOp::Write, FaultMode::Truncate, 0.05)
        .rule(IoOp::Rename, FaultMode::Fail, 0.05)
}

/// Compiles one session, absorbing its accounting into `totals` and
/// verifying byte-identity against the no-cache reference.
fn cache_run(
    src: &str,
    options: &Options,
    dir: Option<&Path>,
    totals: &mut SessionTotals,
    reference: Option<(&str, &str)>,
    what: &str,
) -> Result<SessionCompilation, String> {
    let files = [SourceFile::new("case.c", src)];
    let sc = compile_session(&files, options, dir)
        .map_err(|e| format!("{what}: front end rejected input: {e}"))?;
    absorb(totals, &(1, sc.stats));
    if let Some((ref_il, ref_report)) = reference {
        if session_il(&sc) != ref_il {
            return Err(format!("{what}: optimized IL diverged from no-cache run"));
        }
        if session_report(&sc) != ref_report {
            return Err(format!("{what}: opt report diverged from no-cache run"));
        }
    }
    Ok(sc)
}

/// Installs `spec`, runs `f`, and uninstalls the fault hook even when
/// `f` panics — faults are process-global, so leaking them would poison
/// every later phase.
fn with_faults<T>(spec: IoFaultSpec, f: impl FnOnce() -> T) -> T {
    install_io_faults(Some(spec));
    let out = catch_unwind(AssertUnwindSafe(f));
    install_io_faults(None);
    match out {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// One cache durability case: a no-cache reference, then the same
/// program through a cache directory under injected IO faults (cold and
/// warm), on-disk corruption, and a race with another program's sessions
/// — every scenario byte-compared against the reference.
fn check_cache_case(cseed: u64, src: &str, totals: &mut SessionTotals) -> Result<(), String> {
    let options = opts(Options::o2(), 1);

    // phase 0: no-cache reference
    let reference = cache_run(src, &options, None, totals, None, "reference")?;
    let ref_il = session_il(&reference);
    let ref_report = session_report(&reference);
    let expect = Some((ref_il.as_str(), ref_report.as_str()));

    let scratch = std::env::temp_dir().join(format!(
        "titanc-cache-stress-{}-{cseed:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let result = (|| -> Result<(), String> {
        // phase 1: cold populate under injected IO faults
        let dir_faulty = scratch.join("faulty");
        with_faults(case_fault_spec(cseed), || {
            cache_run(
                src,
                &options,
                Some(&dir_faulty),
                totals,
                expect,
                "cold under IO faults",
            )
        })?;

        // phase 2: warm read-back, still under (differently seeded) faults
        with_faults(case_fault_spec(cseed ^ 0xA5A5_A5A5_A5A5_A5A5), || {
            cache_run(
                src,
                &options,
                Some(&dir_faulty),
                totals,
                expect,
                "warm under IO faults",
            )
        })?;

        // phase 3: clean populate, then flip/truncate bytes on disk; the
        // warm run must detect the damage (count it corrupt) and still
        // produce the reference output
        let dir_corrupt = scratch.join("corrupt");
        cache_run(
            src,
            &options,
            Some(&dir_corrupt),
            totals,
            expect,
            "clean populate",
        )?;
        let mut rng = progen::Rng::new(cseed ^ 0x5EED_C0DE);
        titanc_bench::corrupt_cache_dir(&dir_corrupt, &mut rng)
            .map_err(|e| format!("corrupting {}: {e}", dir_corrupt.display()))?;
        let damaged = cache_run(
            src,
            &options,
            Some(&dir_corrupt),
            totals,
            expect,
            "warm after on-disk corruption",
        )?;
        if damaged.stats.corrupt == 0 {
            return Err(
                "on-disk corruption went undetected (corrupt counter stayed zero)".to_string(),
            );
        }

        // phase 4: two sessions of this program and two of another racing
        // into one fresh directory, under one file name; nothing is locked,
        // so each must find a complete, fully warm cache afterwards
        let other = progen::program(&mut progen::Rng::new(cseed ^ 0x07E5_0C0D));
        let other_ref = cache_run(&other, &options, None, totals, None, "other reference")?;
        let other_il = session_il(&other_ref);
        let other_report = session_report(&other_ref);
        let programs = [
            (src, expect),
            (
                other.as_str(),
                Some((other_il.as_str(), other_report.as_str())),
            ),
        ];
        let dir_race = scratch.join("race");
        std::thread::scope(|scope| -> Result<(), String> {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let dir = &dir_race;
                    let options = &options;
                    let (src, expect) = programs[i % 2];
                    scope.spawn(move || {
                        let mut t = SessionTotals::default();
                        let r = cache_run(
                            src,
                            options,
                            Some(dir),
                            &mut t,
                            expect,
                            &format!("racing session {i}"),
                        )
                        .map(|_| ());
                        (t, r)
                    })
                })
                .collect();
            for h in handles {
                let (t, r) = h
                    .join()
                    .map_err(|_| "racing session panicked".to_string())?;
                absorb(totals, &t);
                r?;
            }
            Ok(())
        })?;
        for (i, (src, expect)) in programs.into_iter().enumerate() {
            let what = format!("warm after race (program {i})");
            let warm = cache_run(src, &options, Some(&dir_race), totals, expect, &what)?;
            if !warm.stats.full_warm {
                return Err(format!("{what}: the race left no fully warm cache"));
            }
        }

        // phase 5: cone-scoped edit — populate with a generated
        // multi-procedure session (inlining on), mutate exactly the
        // last helper (nothing but `main` calls it), and demand that a
        // clean warm run misses exactly that cone while matching a
        // no-cache compile of the edited source byte for byte; then
        // repeat the edited warm run under injected IO faults
        let nprocs = 4;
        let salts = vec![0i64; nprocs];
        let base = progen::session_program(&mut progen::Rng::new(cseed), nprocs, &salts);
        let mut edited_salts = salts;
        edited_salts[nprocs - 1] = (cseed % 1000) as i64 + 1;
        let edited = progen::session_program(&mut progen::Rng::new(cseed), nprocs, &edited_salts);

        let edited_ref = cache_run(&edited, &options, None, totals, None, "edited reference")?;
        let edited_il = session_il(&edited_ref);
        let edited_report = session_report(&edited_ref);
        let edited_expect = Some((edited_il.as_str(), edited_report.as_str()));

        let dir_edit = scratch.join("edit");
        cache_run(
            &base,
            &options,
            Some(&dir_edit),
            totals,
            None,
            "session populate",
        )?;
        let warm_edit = cache_run(
            &edited,
            &options,
            Some(&dir_edit),
            totals,
            edited_expect,
            "edited warm (clean)",
        )?;
        let total_procs = warm_edit.compilation.program.procs.len();
        if warm_edit.stats.misses != 2 {
            return Err(format!(
                "editing the last helper must miss exactly its cone (itself and main), \
                 got {} miss(es) of {total_procs} procedure(s)",
                warm_edit.stats.misses
            ));
        }
        let dir_edit_faulty = scratch.join("edit-faulty");
        cache_run(
            &base,
            &options,
            Some(&dir_edit_faulty),
            totals,
            None,
            "session populate (pre-fault)",
        )?;
        with_faults(case_fault_spec(cseed ^ 0x0DDB_175C_AFE0_0000), || {
            cache_run(
                &edited,
                &options,
                Some(&dir_edit_faulty),
                totals,
                edited_expect,
                "edited warm under IO faults",
            )
        })?;
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn print_cache_totals((sessions, stats): &SessionTotals) {
    let line = cache_line(stats);
    println!("stress: cache-faults: totals over {sessions} session(s): {line}");
}

// ---------------------------------------------------------------------
// The compile-server differential (--server)
// ---------------------------------------------------------------------

/// Aggregate accounting for the server differential: the daemons' own
/// totals plus the one-shot sessions that raced them.
#[derive(Default)]
struct ServerStressTotals {
    daemon: ServerTotals,
    sessions: SessionTotals,
}

/// Sends one request line to an in-process server and returns the
/// decoded response.
fn server_round_trip(
    srv: &Server,
    req: &CompileRequest,
    what: &str,
) -> Result<CompileResponse, String> {
    let line = req.to_json().to_string_compact();
    match srv.handle_line(&line) {
        Reply::Line(l) => {
            let doc = parse_json(&l).map_err(|e| format!("{what}: bad response json: {e}"))?;
            CompileResponse::from_json(&doc).map_err(|e| format!("{what}: bad response: {e}"))
        }
        Reply::Shutdown(_) => Err(format!("{what}: unexpected shutdown acknowledgement")),
    }
}

/// One compile-server case: a no-cache reference through the plain
/// session entry point, then concurrent server requests racing
/// concurrent one-shot `--cache-dir` sessions into the daemon's
/// write-through directory — every response and every session
/// byte-compared against the reference, and a post-burst repeat must
/// answer fully warm.
fn check_server_case(cseed: u64, src: &str, totals: &mut ServerStressTotals) -> Result<(), String> {
    const SERVER_CLIENTS: usize = 4;
    const ONE_SHOT_SESSIONS: usize = 2;

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
    let files = [SourceFile::new("case.c", src)];

    // the no-cache reference, and the exact stdout bytes every server
    // response must carry for this request shape
    let reference = compile_session(&files, &options, None)
        .map_err(|e| format!("reference: front end rejected input: {e}"))?;
    let ref_il = session_il(&reference);
    let ref_report = session_report(&reference);
    let ref_stdout = format!(
        "{}{}",
        il_block(&reference.compilation.program),
        opt_report_block(&reference.compilation, true)
    );

    let scratch = std::env::temp_dir().join(format!(
        "titanc-server-stress-{}-{cseed:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let dir = scratch.join("cache");
    let srv = Server::new(&ServerConfig {
        cache_dir: Some(dir.clone()),
        workers: SERVER_CLIENTS,
    })
    .quiet();

    let result = (|| -> Result<(), String> {
        // the burst: server clients and one-shot sessions in flight
        // together over one shared directory
        std::thread::scope(|scope| -> Result<(), String> {
            let mut handles = Vec::new();
            for i in 0..SERVER_CLIENTS {
                let (srv, req, ref_stdout) = (&srv, &req, ref_stdout.as_str());
                handles.push(scope.spawn(move || -> Result<SessionTotals, String> {
                    let what = format!("server client {i}");
                    let mut req = req.clone();
                    req.id = i as i64 + 1;
                    let resp = server_round_trip(srv, &req, &what)?;
                    if resp.exit != 0 {
                        return Err(format!("{what}: exit {}:\n{}", resp.exit, resp.stderr));
                    }
                    if resp.stdout != ref_stdout {
                        return Err(format!("{what}: stdout diverged from no-cache reference"));
                    }
                    Ok(SessionTotals::default())
                }));
            }
            for i in 0..ONE_SHOT_SESSIONS {
                let (dir, options, files) = (&dir, &options, &files);
                let (ref_il, ref_report) = (ref_il.as_str(), ref_report.as_str());
                handles.push(scope.spawn(move || -> Result<SessionTotals, String> {
                    let what = format!("one-shot session {i}");
                    let sc = compile_session(files, options, Some(dir.as_path()))
                        .map_err(|e| format!("{what}: front end rejected input: {e}"))?;
                    if session_il(&sc) != ref_il {
                        return Err(format!("{what}: optimized IL diverged from no-cache run"));
                    }
                    if session_report(&sc) != ref_report {
                        return Err(format!("{what}: opt report diverged from no-cache run"));
                    }
                    Ok((1, sc.stats))
                }));
            }
            for h in handles {
                let t = h
                    .join()
                    .map_err(|_| "burst participant panicked".to_string())??;
                absorb(&mut totals.sessions, &t);
            }
            Ok(())
        })?;

        // post-burst: every cone is published, so a repeat must skip the
        // whole pipeline and still answer byte-identically
        let mut warm_req = req.clone();
        warm_req.id = SERVER_CLIENTS as i64 + 1;
        let warm = server_round_trip(&srv, &warm_req, "post-burst repeat")?;
        if warm.exit != 0 {
            return Err(format!(
                "post-burst repeat: exit {}:\n{}",
                warm.exit, warm.stderr
            ));
        }
        if warm.stdout != ref_stdout {
            return Err("post-burst repeat: stdout diverged from no-cache reference".to_string());
        }
        if !warm.stderr.contains("(fully warm)") {
            return Err(format!(
                "post-burst repeat did not skip the pipeline:\n{}",
                warm.stderr
            ));
        }

        // edit, then revert: a procedure appears and disappears again.
        // The edited request must match its own no-cache reference; the
        // revert must be answered from the memos — front end a hit, every
        // entry typed already, pipeline skipped — with the first bytes.
        let edited_src = format!("{src}\nint stress_edit_marker(void) {{ return 7; }}\n");
        let edited_files = [SourceFile::new("case.c", &*edited_src)];
        let edited_ref = compile_session(&edited_files, &options, None)
            .map_err(|e| format!("edited reference: front end rejected input: {e}"))?;
        let mut edit_req = req.clone();
        edit_req.id = SERVER_CLIENTS as i64 + 2;
        edit_req.files = edited_files.to_vec();
        let edited = server_round_trip(&srv, &edit_req, "edit")?;
        let edited_stdout = format!(
            "{}{}",
            il_block(&edited_ref.compilation.program),
            opt_report_block(&edited_ref.compilation, true)
        );
        if edited.exit != 0 || edited.stdout != edited_stdout {
            return Err(format!(
                "edit: exit {} or stdout diverged from its no-cache reference:\n{}",
                edited.exit, edited.stderr
            ));
        }
        let before_revert = srv.totals();
        let mut revert_req = req.clone();
        revert_req.id = SERVER_CLIENTS as i64 + 3;
        let reverted = server_round_trip(&srv, &revert_req, "revert")?;
        if reverted.stdout != ref_stdout || !reverted.stderr.contains("(fully warm)") {
            return Err(format!(
                "revert: not the first reply, or not fully warm:\n{}",
                reverted.stderr
            ));
        }
        let after_revert = srv.totals();
        if after_revert.front_hits != before_revert.front_hits + 1
            || after_revert.admitted != before_revert.admitted
        {
            return Err(format!(
                "revert re-derived something the daemon had seen: before {before_revert}; \
                 after {after_revert}"
            ));
        }

        // cache faults under the daemon: one file of the directory loses
        // a bit, another its tail. The running daemon's typed values do
        // not care; a fresh daemon over the damaged directory refuses what
        // is damaged at admission (quarantined, never resident), answers
        // with the same bytes, and its recompile heals the next request.
        let mut rng = progen::Rng::new(cseed ^ 0x5EED_C0DE);
        titanc_bench::corrupt_cache_dir(&dir, &mut rng)
            .map_err(|e| format!("could not corrupt cache dir: {e}"))?;
        let mut immune_req = req.clone();
        immune_req.id = SERVER_CLIENTS as i64 + 4;
        let immune = server_round_trip(&srv, &immune_req, "after corruption")?;
        if immune.stdout != ref_stdout || !immune.stderr.contains("(fully warm)") {
            return Err(format!(
                "after corruption: the resident daemon noticed its directory:\n{}",
                immune.stderr
            ));
        }
        let fresh = Server::new(&ServerConfig {
            cache_dir: Some(dir.clone()),
            workers: 1,
        })
        .quiet();
        for (what, must_be_warm) in [("fresh daemon, damaged dir", false), ("healed", true)] {
            let resp = server_round_trip(&fresh, &req, what)?;
            if resp.exit != 0 || resp.stdout != ref_stdout {
                return Err(format!("{what}: stdout diverged:\n{}", resp.stderr));
            }
            if must_be_warm && !resp.stderr.contains("(fully warm)") {
                return Err(format!("{what}: not fully warm:\n{}", resp.stderr));
            }
        }
        // every request so far asked for `verify`, which the reply memo
        // stays out of. Without it the healed daemon's next reply is
        // admitted and the one after is that memoised line — still the
        // no-cache reference's bytes, for whatever program this case drew.
        let mut plain_req = req.clone();
        plain_req.verify = false;
        let admitted = server_round_trip(&fresh, &plain_req, "plain, executed")?;
        let memoised = server_round_trip(&fresh, &plain_req, "plain, memoised")?;
        for (what, resp) in [("executed", &admitted), ("memoised", &memoised)] {
            if resp.exit != 0 || resp.stdout != ref_stdout || resp.stderr != admitted.stderr {
                return Err(format!("plain, {what}: diverged:\n{}", resp.stderr));
            }
        }
        let replies = (fresh.totals().reply_hits, fresh.totals().reply_misses);
        if replies != (1, 1) {
            return Err(format!(
                "reply memo: (hits, misses) = {replies:?}, not (1, 1)"
            ));
        }
        let ft = fresh.totals();
        if ft.corrupt != ft.quarantined || ft.resident_entries > ft.admitted {
            return Err(format!("fresh daemon kept something it refused: {ft}"));
        }
        totals.daemon.merge(&ft);

        let st = srv.totals();
        if st.protocol_errors != 0 {
            return Err(format!("daemon counted protocol errors: {st}"));
        }
        if st.requests != SERVER_CLIENTS as i64 + 4 {
            return Err(format!(
                "daemon accounting lost requests: expected {}, {st}",
                SERVER_CLIENTS + 4
            ));
        }
        totals.daemon.merge(&st);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn print_server_totals(t: &ServerStressTotals) {
    println!("stress: server: daemon totals: {}", t.daemon);
    let (sessions, line) = (t.sessions.0, cache_line(&t.sessions.1));
    println!("stress: server: one-shot totals over {sessions} session(s): {line}");
}

fn main() {
    let args = parse_args();
    if args.cache_faults {
        let mode = Mode {
            label: "cache-faults",
            replay_flag: "--cache-faults",
            labelled_prefix: true,
        };
        let totals = SessionTotals::default();
        sweep(&args, &mode, totals, check_cache_case, print_cache_totals);
    }
    if args.server {
        let mode = Mode {
            label: "server",
            replay_flag: "--server",
            labelled_prefix: true,
        };
        let totals = ServerStressTotals::default();
        sweep(&args, &mode, totals, check_server_case, print_server_totals);
    }
    let engines = args.engine.engines();
    let label = format!("engine {}", args.engine.name());
    let mode = Mode {
        label: &label,
        replay_flag: &format!("--{label}"),
        labelled_prefix: false,
    };
    let check = |_: u64, src: &str, (): &mut ()| check_case(src, &engines);
    sweep(&args, &mode, (), check, |()| {});
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_round_trips() {
        assert_eq!(parse_seed("1903832151"), Some(1903832151));
        assert_eq!(parse_seed("0x717A_2C57"), Some(0x717A_2C57));
        assert_eq!(parse_seed("0X717a2c57"), Some(0x717A_2C57));
        assert_eq!(parse_seed("1_903_832_151"), Some(1903832151));
        assert_eq!(parse_seed("0x"), None);
        assert_eq!(parse_seed("nope"), None);
        // printed form (`0x{:X}`) parses back to the same value
        let s = case_seed(DEFAULT_SEED, 17);
        assert_eq!(parse_seed(&format!("0x{s:X}")), Some(s));
    }

    #[test]
    fn case_seeds_are_order_independent_and_spread() {
        let a = case_seed(DEFAULT_SEED, 0);
        let b = case_seed(DEFAULT_SEED, 1);
        assert_ne!(a, b);
        // stable: same (run seed, index) -> same case seed
        assert_eq!(a, case_seed(DEFAULT_SEED, 0));
        // different run seeds decorrelate the same index
        assert_ne!(a, case_seed(DEFAULT_SEED + 1, 0));
    }
}
