//! The six workloads: set-up (inputs, references, primed caches, the
//! daemon) and the closed measuring loop that drives the release binaries
//! and checks every op.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use titanc_il::json;

use crate::child::{Daemon, Finished};
use crate::env::Env;
use crate::gen::{self, EditSchedule, Rng, SourceText, SuiteProgram};
use crate::parse::{cache_line, titan_line, CacheLine, TitanLine};
use crate::reference;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Warm,
    Edit,
    Serve,
    SimVector,
    SimScalar,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Cold,
        Workload::Warm,
        Workload::Edit,
        Workload::Serve,
        Workload::SimVector,
        Workload::SimScalar,
    ];

    pub fn name(self) -> &'static str {
        crate::names::WORKLOADS[self as usize]
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn simulates(self) -> bool {
        matches!(self, Workload::SimVector | Workload::SimScalar)
    }
}

/// The flags of every one-shot compile op, before `--cache-dir D` and the
/// nine files.
pub const COMPILE_FLAGS: [&str; 5] = ["--parallel", "-j", "1", "--print-il", "--opt-report=json"];
/// The flags `mp9` is simulated with for the compile workloads' `sim_cycles`.
pub const MP9_RUN_FLAGS: [&str; 3] = ["--parallel", "--procs", "2"];
/// On `edit`, stdout is compared with a store-less run every this many ops
/// (and after the last); the cache line is checked on every op.
const EDIT_FULL_CHECK_EVERY: usize = 20;

/// One timed op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub ms: f64,
    pub ok: bool,
}

/// What a measuring loop saw.
#[derive(Default)]
pub struct Measured {
    pub samples: Vec<Sample>,
    /// Ops completed per second of timed wall time: the sum of the ops'
    /// own times for the one-shot workloads, the window both clients
    /// shared on `serve`.
    pub ops_per_s: f64,
    /// Highest peak RSS among the processes the ops ran (`titand` itself on
    /// `serve`, read when it is shut down).
    pub peak_rss_mb: f64,
    /// Bytes of stdout one op produced (the reply line on `serve`).
    pub stdout_bytes: usize,
    /// Store degradations summed over the ops' cache lines:
    /// corrupt, quarantined, lock-contended, write-failed.
    pub store_faults: [u64; 4],
}

impl Measured {
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    pub fn sorted_ms(&self) -> Vec<f64> {
        crate::stats::sorted(self.samples.iter().map(|s| s.ms).collect())
    }

    /// Folds in what one finished process says about memory and the store.
    fn note(&mut self, run: &Finished) {
        self.peak_rss_mb = self.peak_rss_mb.max(run.peak_rss_mb);
        if let Some(c) = cache_line(&run.stderr) {
            for (sum, n) in self.store_faults.iter_mut().zip([
                c.corrupt,
                c.quarantined,
                c.lock_contended,
                c.write_failed,
            ]) {
                *sum += n;
            }
        }
    }

    fn push(&mut self, wall: Duration, ok: bool) {
        self.samples.push(Sample {
            ms: wall.as_secs_f64() * 1e3,
            ok,
        });
    }

    fn finish_one_shot(mut self, stdout_bytes: usize) -> Measured {
        let timed_s: f64 = self.samples.iter().map(|s| s.ms).sum::<f64>() / 1e3;
        self.ops_per_s = self.samples.len() as f64 / timed_s;
        self.stdout_bytes = stdout_bytes;
        self
    }
}

/// A workload after set-up, ready to measure.
pub struct Prepared {
    pub workload: Workload,
    /// This workload's directory under the benchmark root.
    pub dir: PathBuf,
    /// Exact, from set-up: simulated Titan cycles of the workload's
    /// programs, and lines of IL `--print-il` shows for them.
    pub sim_cycles: u64,
    pub il_lines: u64,
    pub inputs: Inputs,
}

pub enum Inputs {
    Compile(CompileInputs),
    Sim(SimInputs),
}

pub struct CompileInputs {
    /// The nine `mp9` files as they are on disk now (`edit` rewrites them).
    pub files: Vec<SourceText>,
    /// stdout of a store-less one-shot compile of `files`.
    pub reference_stdout: Vec<u8>,
    pub edits: EditSchedule,
    /// `serve` only.
    pub serve: Option<Serve>,
}

pub struct Serve {
    pub daemon: Daemon,
    pub request: String,
    /// The daemon's reply to `request` once it is fully warm; every later
    /// reply must be these bytes.
    pub warm_reply: String,
}

pub struct SimInputs {
    pub programs: Vec<SuiteProgram>,
    /// What each program's `[titan]` line must say.
    pub expected: Vec<TitanLine>,
}

impl Prepared {
    pub fn src_dir(&self) -> PathBuf {
        self.dir.join("src")
    }

    pub fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    pub fn compile(&mut self) -> &mut CompileInputs {
        match &mut self.inputs {
            Inputs::Compile(c) => c,
            Inputs::Sim(_) => panic!("{} has no compile inputs", self.workload.name()),
        }
    }

    pub fn sim(&self) -> &SimInputs {
        match &self.inputs {
            Inputs::Sim(s) => s,
            Inputs::Compile(_) => panic!("{} has no suite", self.workload.name()),
        }
    }

    /// `titanc`, run from the source directory so that file names — which
    /// reach the opt report and the cache keys — do not depend on where the
    /// checkout lives.
    pub fn titanc(&self, env: &Env) -> Command {
        let mut cmd = Command::new(&env.titanc);
        cmd.current_dir(self.src_dir());
        cmd
    }

    /// Runs one process to completion through the spawner.
    pub fn run(&self, env: &Env, cmd: &Command) -> Result<Finished, String> {
        let mut spawner = env.spawner.borrow_mut();
        spawner
            .run(cmd, &self.dir)
            .map_err(|e| format!("cannot run {cmd:?}: {e}"))
    }

    /// The one-shot compile op, with or without the cache directory.
    pub fn compile_cmd(&self, env: &Env, flags: &[&str], cached: bool) -> Command {
        let mut cmd = self.titanc(env);
        cmd.args(flags);
        if cached {
            cmd.arg("--cache-dir").arg(self.cache_dir());
        }
        if let Inputs::Compile(c) = &self.inputs {
            cmd.args(c.files.iter().map(|f| &f.name));
        }
        cmd
    }

    /// Ends what set-up started: shuts the daemon down and returns its
    /// acknowledgement (with the totals) and its peak RSS.
    pub fn teardown(&mut self) -> Result<Option<(String, f64)>, String> {
        let Inputs::Compile(c) = &mut self.inputs else {
            return Ok(None);
        };
        let Some(serve) = c.serve.take() else {
            return Ok(None);
        };
        let daemon = serve.daemon;
        let peak_rss_mb = daemon.peak_rss_mb().map_err(|e| format!("titand: {e}"))?;
        let ack = daemon
            .shutdown()
            .map_err(|e| format!("titand shutdown: {e}"))?;
        Ok(Some((ack, peak_rss_mb)))
    }
}

fn write_files(dir: &Path, files: &[SourceText]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for f in files {
        let path = dir.join(&f.name);
        std::fs::write(&path, &f.src).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn line_count(bytes: &[u8]) -> u64 {
    bytes.iter().filter(|b| **b == b'\n').count() as u64
}

/// Sets `workload` up from `seed`: generates and writes the inputs, builds
/// the in-process reference, takes the exact metrics, primes what the
/// workload wants primed. Every check that fails here is an error.
pub fn setup(env: &Env, workload: Workload, seed: u64, tag: &str) -> Result<Prepared, String> {
    let dir = env.fresh_dir(&format!("{}-{tag}", workload.name()))?;
    let mut rng = Rng::new(seed);
    // one generator, drawn in a fixed order, so a workload's inputs do not
    // depend on which workload is being run
    let files = gen::mp9(&mut rng);
    let vector = gen::suite_vector(&mut rng);
    let scalar = gen::suite_scalar(&mut rng);
    let edits = EditSchedule::new(rng);

    let mut prepared = Prepared {
        workload,
        dir,
        sim_cycles: 0,
        il_lines: 0,
        inputs: match workload {
            Workload::SimVector | Workload::SimScalar => Inputs::Sim(SimInputs {
                programs: if workload == Workload::SimVector {
                    vector
                } else {
                    scalar
                },
                expected: Vec::new(),
            }),
            _ => Inputs::Compile(CompileInputs {
                files,
                reference_stdout: Vec::new(),
                edits,
                serve: None,
            }),
        },
    };
    if workload.simulates() {
        setup_sim(env, &mut prepared)?;
    } else {
        setup_compile(env, &mut prepared)?;
    }
    Ok(prepared)
}

fn setup_sim(env: &Env, p: &mut Prepared) -> Result<(), String> {
    let programs = p.sim().programs.clone();
    for prog in &programs {
        write_files(&p.src_dir(), std::slice::from_ref(&prog.file))?;
        let want = reference::check(std::slice::from_ref(&prog.file), prog.flags)?;
        let printed = p.run(
            env,
            p.titanc(env)
                .args(prog.flags)
                .args(["--print-il", &prog.file.name]),
        )?;
        if printed.code != Some(0) {
            return Err(format!("{} --print-il: {}", prog.name, printed.stderr));
        }
        p.il_lines += line_count(&printed.stdout);
        p.sim_cycles += want.cycles;
        let Inputs::Sim(s) = &mut p.inputs else {
            unreachable!("setup_sim runs on suites")
        };
        s.expected.push(want);
    }
    Ok(())
}

fn setup_compile(env: &Env, p: &mut Prepared) -> Result<(), String> {
    let files = p.compile().files.clone();
    write_files(&p.src_dir(), &files)?;

    // simulated cycles: mp9's `main` under --parallel --procs 2 --run must
    // print what the in-process reference computed
    let want = reference::check(&files, &MP9_RUN_FLAGS)?;
    let ran = p.run(env, p.compile_cmd(env, &MP9_RUN_FLAGS, false).arg("--run"))?;
    let got = titan_line(&String::from_utf8_lossy(&ran.stdout));
    if got != Some(want) {
        return Err(format!("mp9 --run printed {got:?}, want {want:?}"));
    }
    p.sim_cycles = want.cycles;

    let printed = p.run(
        env,
        &p.compile_cmd(env, &["--parallel", "--print-il"], false),
    )?;
    p.il_lines = line_count(&printed.stdout);

    let reference = store_less(env, p)?;
    p.compile().reference_stdout = reference;

    match p.workload {
        Workload::Warm | Workload::Edit => {
            let primed = p.run(env, &p.compile_cmd(env, &COMPILE_FLAGS, true))?;
            let reference = &p.compile().reference_stdout;
            if !compile_ok(&primed, Some(reference), &|c| (c.hits, c.misses) == (0, 9)) {
                return Err(format!("priming the cache failed: {}", primed.stderr));
            }
        }
        Workload::Serve => setup_serve(env, p)?,
        _ => {}
    }
    Ok(())
}

/// stdout of a store-less one-shot compile of the files as they are now.
fn store_less(env: &Env, p: &Prepared) -> Result<Vec<u8>, String> {
    let run = p.run(env, &p.compile_cmd(env, &COMPILE_FLAGS, false))?;
    if run.code != Some(0) || run.stdout.is_empty() {
        return Err(format!(
            "store-less reference compile failed: {}",
            run.stderr
        ));
    }
    Ok(run.stdout)
}

fn setup_serve(env: &Env, p: &mut Prepared) -> Result<(), String> {
    // a relative socket path stays under the 108-byte limit wherever the
    // checkout lives
    let socket = p.dir.join("titand.sock");
    let socket = std::env::current_dir()
        .ok()
        .and_then(|cwd| socket.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(socket);
    let daemon = Daemon::start(&env.titand, &socket).map_err(|e| format!("titand: {e}"))?;
    let request = gen::request_line(&p.compile().files);
    let reference = String::from_utf8_lossy(&p.compile().reference_stdout).into_owned();

    // one cold request fills the resident cache; the next is fully warm
    // and its reply is what every op must get back. The connection closes
    // before the clients open theirs: a worker serves one connection at a
    // time.
    let mut conn = daemon.connect().map_err(|e| format!("titand: {e}"))?;
    let mut warm_reply = String::new();
    for want_warm in [false, true] {
        warm_reply = conn.request(&request).map_err(|e| format!("titand: {e}"))?;
        let doc = json::parse(&warm_reply).map_err(|e| format!("titand reply: {e}"))?;
        let field = |k: &str| doc.get(k).and_then(|v| v.as_str().ok()).unwrap_or_default();
        let exit = doc.get("exit").and_then(|v| v.as_i64().ok());
        let line = cache_line(field("stderr"));
        let warm = line.is_some_and(|c| c.fully_warm && c.passes == 0 && c.healthy());
        if exit != Some(0) || field("stdout") != reference || warm != want_warm {
            return Err(format!(
                "titand reply (want warm: {want_warm}): exit {exit:?}, stderr {}",
                field("stderr")
            ));
        }
    }
    drop(conn);
    p.compile().serve = Some(Serve {
        daemon,
        request,
        warm_reply,
    });
    Ok(())
}

/// A one-shot compile op passed when it exited 0, its cache line reads as
/// the workload says it must with nothing degraded, and — when a reference
/// is given — its stdout is byte-identical to the store-less run's.
fn compile_ok(run: &Finished, reference: Option<&[u8]>, want: &dyn Fn(&CacheLine) -> bool) -> bool {
    run.code == Some(0)
        && reference.is_none_or(|r| run.stdout == r)
        && cache_line(&run.stderr).is_some_and(|c| c.healthy() && want(&c))
}

/// A `--run` op passed when its `[titan]` line shows the reference's
/// cycles and return value. The process status is the simulated program's
/// return value (mod 256), not a failure signal — but it must be that.
pub fn run_ok(code: Option<i32>, stdout: &str, want: TitanLine) -> bool {
    let status = want.exit.map_or(0, |v| (v & 0xff) as i32);
    titan_line(stdout) == Some(want) && code == Some(status)
}

/// Measures `p` for `seconds`: a closed loop, one client (two on `serve`),
/// every op checked.
pub fn measure(env: &Env, p: &mut Prepared, seconds: f64) -> Result<Measured, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    match p.workload {
        Workload::Cold => measure_compile(env, p, deadline, |p| {
            let dir = p.cache_dir();
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("remove cache: {e}"))?;
            }
            Ok(())
        }),
        Workload::Warm => measure_compile(env, p, deadline, |_| Ok(())),
        Workload::Edit => measure_compile(env, p, deadline, |p| apply_next_edit(p).map(drop)),
        Workload::Serve => measure_serve(p, deadline, 2),
        Workload::SimVector | Workload::SimScalar => measure_sim(env, p, deadline),
    }
}

/// Rewrites the next `mpK.c` of the edit schedule with a never-seen salt;
/// returns `K`.
pub fn apply_next_edit(p: &mut Prepared) -> Result<usize, String> {
    let src_dir = p.src_dir();
    let c = p.compile();
    let (k, salt) = c.edits.next().expect("the schedule is endless");
    c.files[k] = gen::mp_file(k, salt);
    write_files(&src_dir, std::slice::from_ref(&c.files[k]))?;
    Ok(k)
}

fn measure_compile(
    env: &Env,
    p: &mut Prepared,
    deadline: Instant,
    before_op: impl Fn(&mut Prepared) -> Result<(), String>,
) -> Result<Measured, String> {
    let workload = p.workload;
    let want = move |c: &CacheLine| match workload {
        Workload::Cold => (c.hits, c.misses, c.passes > 0) == (0, 9, true),
        Workload::Warm => (c.hits, c.misses, c.passes, c.fully_warm) == (9, 0, 0, true),
        _ => (c.hits, c.misses, c.invalidated) == (7, 2, 2),
    };
    let mut m = Measured::default();
    loop {
        before_op(p)?;
        let run = p.run(env, &p.compile_cmd(env, &COMPILE_FLAGS, true))?;
        let last = Instant::now() >= deadline;
        // an edited corpus has a new reference, which costs a store-less
        // compile: taken every few ops and after the last
        let ok = if workload == Workload::Edit {
            let full = last || m.samples.len() % EDIT_FULL_CHECK_EVERY == 0;
            let reference = if full {
                Some(store_less(env, p)?)
            } else {
                None
            };
            compile_ok(&run, reference.as_deref(), &want)
        } else {
            compile_ok(&run, Some(&p.compile().reference_stdout), &want)
        };
        m.note(&run);
        m.push(run.wall, ok);
        if last {
            return Ok(m.finish_one_shot(run.stdout.len()));
        }
    }
}

fn measure_sim(env: &Env, p: &mut Prepared, deadline: Instant) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut stdout_bytes = 0;
    loop {
        // one op = one pass over the suite
        let mut wall = Duration::ZERO;
        let mut ok = true;
        for (prog, want) in p.sim().programs.iter().zip(&p.sim().expected) {
            let run = p.run(
                env,
                p.titanc(env)
                    .args(prog.flags)
                    .args(["--run", &prog.file.name]),
            )?;
            wall += run.wall;
            ok &= run_ok(run.code, &String::from_utf8_lossy(&run.stdout), *want);
            stdout_bytes = run.stdout.len();
            m.note(&run);
        }
        m.push(wall, ok);
        if Instant::now() >= deadline {
            return Ok(m.finish_one_shot(stdout_bytes));
        }
    }
}

/// `clients` closed-loop clients on persistent connections, each sending
/// the same request line until the deadline. The only threads the
/// benchmark starts.
pub fn measure_serve(
    p: &mut Prepared,
    deadline: Instant,
    clients: usize,
) -> Result<Measured, String> {
    let serve = p.compile().serve.as_ref().expect("serve was set up");
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| -> Result<Vec<Sample>, String> {
                    let mut conn = serve.daemon.connect().map_err(|e| format!("titand: {e}"))?;
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let sent = Instant::now();
                        let reply = conn
                            .request(&serve.request)
                            .map_err(|e| format!("titand: {e}"))?;
                        samples.push(Sample {
                            ms: sent.elapsed().as_secs_f64() * 1e3,
                            ok: reply == serve.warm_reply,
                        });
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a serve client panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut m = Measured {
        stdout_bytes: serve.warm_reply.len(),
        ..Measured::default()
    };
    for samples in per_client {
        m.samples.extend(samples?);
    }
    m.ops_per_s = m.samples.len() as f64 / window_s;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_successful_run_exits_with_the_programs_return_value() {
        let want = TitanLine {
            cycles: 2_924_304,
            exit: Some(37),
        };
        let out = "[titan] 2924304 cycles, 182.769 ms at 16 MHz, 5.92 MFLOPS, exit 37\n";
        // status 37 is success here, status 0 would be the failure
        assert!(run_ok(Some(37), out, want));
        assert!(!run_ok(Some(0), out, want));
        assert!(!run_ok(None, out, want));
        let wrong = out.replace("2924304", "2924305");
        assert!(!run_ok(Some(37), &wrong, want));
        assert!(!run_ok(Some(1), "titanc: step limit exceeded\n", want));
        // return values wrap to a byte; `void` exits 0
        let big = TitanLine {
            cycles: 5,
            exit: Some(300),
        };
        let out = "[titan] 5 cycles, 0.000 ms at 16 MHz, 0.00 MFLOPS, exit 300\n";
        assert!(run_ok(Some(44), out, big));
        let void = TitanLine {
            cycles: 5,
            exit: None,
        };
        let out = "[titan] 5 cycles, 0.000 ms at 16 MHz, 0.00 MFLOPS, exit void\n";
        assert!(run_ok(Some(0), out, void));
    }

    /// Set-up holds every check a run depends on (the three-way reference
    /// observation, the `[titan]` line, the primed cache, the daemon's cold
    /// and warm replies), so passing it on the default seed and on a seed
    /// never used while the generators were written is the held-out test.
    /// The exact metrics must not follow the seed. Builds the release
    /// binaries on first use.
    #[test]
    fn every_workload_sets_up_on_the_default_and_a_held_out_seed() {
        let env = Env::prepare().unwrap();
        for workload in Workload::ALL {
            let exact = [gen::DEFAULT_SEED, 0x4E1D_0017].map(|seed| {
                let mut p = setup(&env, workload, seed, &format!("test-{seed:x}")).unwrap();
                p.teardown().unwrap();
                let _ = std::fs::remove_dir_all(&p.dir);
                (p.sim_cycles, p.il_lines)
            });
            assert!(exact[0].0 > 0 && exact[0].1 > 0, "{}", workload.name());
            assert_eq!(exact[0], exact[1], "{}", workload.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hot"), None);
    }
}
