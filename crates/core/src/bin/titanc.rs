//! The `titanc` command-line driver.
//!
//! ```text
//! titanc [options] file.c [file.c ...]
//!
//!   -O0 | -O1 | -O2          optimization level (default -O2)
//!   -j N | --jobs N          compile procedures on N worker threads
//!                            (default: available parallelism; output is
//!                            byte-identical for every N)
//!   --cache-dir DIR          persistent compilation cache: procedures
//!                            whose parsed IL, options and pass pipeline
//!                            are unchanged skip optimization entirely on
//!                            the next run (output stays byte-identical)
//!   --parallel               emit `do parallel` loops
//!   --spread-lists           spread linked-list while loops (§10)
//!   --procs N                simulate N processors (1-4, default 1)
//!   --fortran-aliasing       assume pointer parameters do not alias (§9)
//!   --no-inline              disable inline expansion
//!   --strip N                vector strip length (at least 1, default 32)
//!   --print-il               print the optimized IL for every procedure
//!   --snapshots              print every procedure after every phase
//!   --verify                 run the IL verifier between passes
//!   --time                   print per-pass wall-clock timings
//!   --catalog FILE           link a procedure catalog (repeatable)
//!   --emit-catalog FILE      write the parsed (pre-optimization) program
//!                            as a catalog, as §7 prescribes — the
//!                            consumer's inliner optimizes in context
//!   --run [ENTRY]            execute on the simulated Titan (default main)
//!   --volatile-values LIST   comma-separated device-register script
//!   --stats                  print pass statistics (per-pass deltas)
//!   --opt-report[=json]      per-loop optimization report (text or JSON);
//!                            byte-identical for every -j value
//!   --trace-json FILE        write pass timings and worker lanes as a
//!                            Chrome trace-event file (chrome://tracing)
//!   --max-errors N           stop after N front-end errors (0 = no cap)
//!   --strict                 fail (exit 3) if any pass incident was contained
//! ```
//!
//! Exit codes: `0` success, `1` source diagnostics (or I/O / simulator
//! failure), `2` usage error, `3` a contained pass incident under
//! `--strict`. With `--run`, a successful simulation exits with the
//! program's own return value instead.
//!
//! Example:
//!
//! ```text
//! titanc --parallel --procs 2 --run --stats corpus/daxpy.c
//! ```

use std::path::Path;
use std::process::ExitCode;
use titanc::server::{self, CompileRequest};
use titanc::{compile_session, Catalog, Compilation, OptLevel, Options, SourceFile};
use titanc_titan::{MachineConfig, Simulator, CLOCK_MHZ};

struct Cli {
    files: Vec<String>,
    /// The option and output flags as `--server` ships them to `titand`;
    /// its `files` are read once every argument is parsed.
    req: CompileRequest,
    /// `-j N`; `0` (no flag) is the machine's available parallelism.
    jobs: usize,
    catalogs: Vec<Catalog>,
    snapshots: bool,
    procs: u32,
    trace_json: Option<String>,
    time: bool,
    run: bool,
    entry: String,
    emit_catalog: Option<String>,
    cache_dir: Option<String>,
    volatile_values: Vec<i64>,
    /// `--server SOCKET`: compile via a running `titand` instead of
    /// in-process.
    server: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: titanc [-O0|-O1|-O2] [-j N|--jobs N] [--parallel] [--procs N]\n\
         \x20             [--fortran-aliasing] [--cache-dir DIR]\n\
         \x20             [--no-inline] [--strip N] [--print-il] [--snapshots]\n\
         \x20             [--verify] [--time] [--max-errors N] [--strict]\n\
         \x20             [--opt-report[=json]] [--trace-json FILE]\n\
         \x20             [--catalog FILE]... [--emit-catalog FILE]\n\
         \x20             [--run [ENTRY]] [--volatile-values a,b,c] [--stats]\n\
         \x20             [--server SOCKET] file.c [file.c ...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        files: Vec::new(),
        req: CompileRequest {
            id: i64::from(std::process::id()),
            ..CompileRequest::default()
        },
        jobs: 0,
        catalogs: Vec::new(),
        snapshots: false,
        procs: 1,
        trace_json: None,
        time: false,
        run: false,
        entry: "main".to_string(),
        emit_catalog: None,
        cache_dir: None,
        volatile_values: Vec::new(),
        server: None,
    };
    let req = &mut cli.req;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // set only the level so `-On` composes with other flags
            // regardless of argument order; `CompileRequest::options`
            // resolves inlining from the level and `--no-inline`
            "-O0" => req.opt = 0,
            "-O1" => req.opt = 1,
            "-O2" => req.opt = 2,
            "--parallel" => req.parallelize = true,
            "--spread-lists" => req.spread_lists = true,
            "--fortran-aliasing" => req.fortran_aliasing = true,
            "--no-inline" => req.inline = false,
            "--snapshots" => cli.snapshots = true,
            "--verify" => req.verify = true,
            "--strict" => req.strict = true,
            "--max-errors" => {
                let v = args.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                req.max_errors = i64::try_from(n).unwrap_or(i64::MAX);
            }
            "--time" => cli.time = true,
            "--print-il" => req.print_il = true,
            "--stats" => req.stats = true,
            "--opt-report" | "--opt-report=text" => req.opt_report = "text".to_string(),
            "--opt-report=json" => req.opt_report = "json".to_string(),
            "--trace-json" => {
                cli.trace_json = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--procs" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.procs = v.parse().unwrap_or_else(|_| usage());
                if !(1..=4).contains(&cli.procs) {
                    eprintln!("titanc: --procs must be 1-4 (the Titan had up to four)");
                    std::process::exit(2);
                }
            }
            "-j" | "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.jobs = v.parse().unwrap_or_else(|_| usage());
                if cli.jobs == 0 {
                    eprintln!("titanc: --jobs must be at least 1 (omit the flag for auto)");
                    std::process::exit(2);
                }
                req.jobs = cli.jobs as i64;
            }
            "--strip" => {
                let v = args.next().unwrap_or_else(|| usage());
                req.strip = v.parse().unwrap_or_else(|_| usage());
            }
            "--catalog" => {
                let path = args.next().unwrap_or_else(|| usage());
                match Catalog::load(&path) {
                    Ok(c) => cli.catalogs.push(c),
                    Err(e) => {
                        eprintln!("titanc: cannot load catalog {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--emit-catalog" => {
                cli.emit_catalog = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--cache-dir" => {
                cli.cache_dir = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--server" => {
                cli.server = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--run" => {
                cli.run = true;
                if let Some(next) = args.peek() {
                    if !next.starts_with('-') && !next.ends_with(".c") {
                        cli.entry = args.next().unwrap();
                    }
                }
            }
            "--volatile-values" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.volatile_values = v
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => {
                eprintln!("titanc: unknown option `{arg}`");
                usage();
            }
            _ => cli.files.push(arg),
        }
    }
    // the check `titand` runs on a request line
    if let Err(why) = cli.req.check() {
        eprintln!("titanc: {why}");
        std::process::exit(2);
    }
    cli
}

/// Reads the input files into the request.
fn read_files(cli: &mut Cli) -> Result<(), ExitCode> {
    for f in &cli.files {
        match std::fs::read_to_string(f) {
            Ok(src) => cli.req.files.push(SourceFile::new(f.clone(), src)),
            Err(e) => {
                eprintln!("titanc: cannot read {f}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut cli = parse_args();
    if cli.files.is_empty() {
        usage();
    }
    if let Some(addr) = cli.server.take() {
        return run_client(&mut cli, &addr);
    }
    if let Err(code) = read_files(&mut cli) {
        return code;
    }
    // the request's options, plus what only a local compile can take
    let options = Options {
        catalogs: std::mem::take(&mut cli.catalogs),
        snapshots: cli.snapshots,
        jobs: cli.jobs,
        ..cli.req.options()
    };
    let req = &cli.req;
    let file = &cli.files[0];

    // one driver: a single file without `--cache-dir` is a one-file,
    // store-less session. The server executor compiles with the same
    // pipeline and renders through the same function, so byte identity
    // between the two entry points is by shared construction.
    let dir = cli.cache_dir.as_deref().map(Path::new);
    let result = compile_session(&req.files, &options, dir);
    // the cache accounting line is stable: CI's cache-smoke job parses it
    let (stdout, stderr, exit) = server::render(req, &result, dir.is_some());
    eprint!("{stderr}");
    print!("{stdout}");
    let compiled: Compilation = match result {
        Ok(sc) if exit == 0 => sc.compilation,
        _ => return ExitCode::from(exit),
    };

    if let Some(path) = &cli.trace_json {
        let trace = titanc::chrome_trace(&compiled.trace).to_string_compact();
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("titanc: cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if cli.time {
        for rec in &compiled.trace.records {
            println!(
                "pass {:<12} {:>9.3} ms  cache {:>3} hits {:>3} builds{}",
                rec.name,
                rec.duration.as_secs_f64() * 1e3,
                rec.cache.hits(),
                rec.cache.builds(),
                if rec.changed { "" } else { "  (no change)" }
            );
        }
        let totals = compiled.trace.cache_totals();
        println!(
            "pass total     {:>9.3} ms  cache {:>3} hits {:>3} builds ({} repairs, {} invalidations)",
            compiled.trace.total_duration().as_secs_f64() * 1e3,
            totals.hits(),
            totals.builds(),
            totals.repairs,
            totals.invalidations
        );
        // pass time is summed over workers, so above `-j 1` it can exceed
        // the wall clock and "outside" reads zero
        let (wall, passes) = (compiled.trace.wall, compiled.trace.total_duration());
        println!(
            "pipeline wall  {:>9.3} ms  (passes {:.3} ms, outside any pass {:.3} ms)",
            wall.as_secs_f64() * 1e3,
            passes.as_secs_f64() * 1e3,
            wall.saturating_sub(passes).as_secs_f64() * 1e3
        );
    }

    if let Some(path) = &cli.emit_catalog {
        let name = Path::new(file)
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_else(|| "catalog".into());
        // §7: catalogs hold parsed procedures, so the *consumer's*
        // inliner can expand them in context and optimize the result. An
        // -O0 compile without inlining runs no pass: its program is the
        // parsed one, catalogs linked.
        let parsed = Options {
            opt: OptLevel::O0,
            inline: false,
            snapshots: false,
            ..options.clone()
        };
        let parsed = match compile_session(&req.files, &parsed, None) {
            Ok(sc) => sc.compilation.program,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let catalog = Catalog::from_program(name, &parsed);
        if let Err(e) = catalog.save(path) {
            eprintln!("titanc: cannot write catalog {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("catalog written to {path}");
    }

    if cli.run {
        let mut machine = MachineConfig::optimized(cli.procs);
        if options.opt == OptLevel::O1 || options.opt == OptLevel::O0 {
            machine = MachineConfig::scalar();
            machine.num_procs = cli.procs;
        }
        let mut sim = Simulator::new(&compiled.program, machine);
        sim.push_volatile_values(&cli.volatile_values);
        match sim.run(&cli.entry, &[]) {
            Ok(result) => {
                for line in &result.stats.output {
                    println!("{line}");
                }
                println!(
                    "[titan] {:.0} cycles, {:.3} ms at {CLOCK_MHZ} MHz, {:.2} MFLOPS, exit {}",
                    result.stats.cycles,
                    result.stats.seconds(CLOCK_MHZ) * 1e3,
                    result.stats.mflops(CLOCK_MHZ),
                    result
                        .value
                        .map(|v| v.as_int().to_string())
                        .unwrap_or_else(|| "void".into())
                );
                if let Some(v) = result.value {
                    return ExitCode::from((v.as_int() & 0xff) as u8);
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `--server SOCKET`: ship the compile to a running `titand` and relay
/// its response verbatim — stdout, stderr, and exit code are exactly
/// what an in-process run would have produced (plus the daemon's
/// `titanc: cache:` accounting line, which one-shot runs only print
/// under `--cache-dir`).
#[cfg(unix)]
fn run_client(cli: &mut Cli, addr: &str) -> ExitCode {
    // flags that need the client's filesystem, its terminal, or the
    // simulator cannot ride the protocol
    let unsupported = [
        (cli.run, "--run"),
        (cli.time, "--time"),
        (cli.trace_json.is_some(), "--trace-json"),
        (cli.emit_catalog.is_some(), "--emit-catalog"),
        (cli.cache_dir.is_some(), "--cache-dir"),
        (cli.snapshots, "--snapshots"),
        (!cli.catalogs.is_empty(), "--catalog"),
        (!cli.volatile_values.is_empty(), "--volatile-values"),
    ];
    for (set, flag) in unsupported {
        if set {
            eprintln!("titanc: {flag} cannot be combined with --server");
            std::process::exit(2);
        }
    }
    if let Err(code) = read_files(cli) {
        return code;
    }
    match server::request_over_unix(Path::new(addr), &cli.req) {
        Ok(resp) => {
            print!("{}", resp.stdout);
            eprint!("{}", resp.stderr);
            ExitCode::from((resp.exit & 0xff) as u8)
        }
        Err(e) => {
            eprintln!("titanc: server {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn run_client(_cli: &mut Cli, _addr: &str) -> ExitCode {
    eprintln!("titanc: --server needs Unix domain sockets on this platform");
    ExitCode::from(2)
}
