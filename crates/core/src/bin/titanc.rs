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
//!   --strip N                vector strip length (default 32)
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
use titanc::server;
use titanc::{compile_session, Aliasing, Catalog, Compilation, Options, SourceFile};
use titanc_titan::{MachineConfig, Simulator};

struct Cli {
    files: Vec<String>,
    options: Options,
    procs: u32,
    print_il: bool,
    stats: bool,
    /// `Some(false)` = text report, `Some(true)` = JSON.
    opt_report: Option<bool>,
    trace_json: Option<String>,
    time: bool,
    run: bool,
    strict: bool,
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
        options: Options::o2(),
        procs: 1,
        print_il: false,
        stats: false,
        opt_report: None,
        trace_json: None,
        time: false,
        run: false,
        strict: false,
        entry: "main".to_string(),
        emit_catalog: None,
        cache_dir: None,
        volatile_values: Vec::new(),
        server: None,
    };
    let mut no_inline = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // set only the level so `-On` composes with other flags
            // regardless of argument order; `inline` is resolved from the
            // level and `--no-inline` once every argument is read
            "-O0" => cli.options.opt = titanc::OptLevel::O0,
            "-O1" => cli.options.opt = titanc::OptLevel::O1,
            "-O2" => cli.options.opt = titanc::OptLevel::O2,
            "--parallel" => cli.options.parallelize = true,
            "--spread-lists" => cli.options.spread_lists = true,
            "--fortran-aliasing" => cli.options.aliasing = Aliasing::Fortran,
            "--no-inline" => no_inline = true,
            "--snapshots" => cli.options.snapshots = true,
            "--verify" => cli.options.verify = true,
            "--strict" => cli.strict = true,
            "--max-errors" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.options.max_errors = v.parse().unwrap_or_else(|_| usage());
            }
            "--time" => cli.time = true,
            "--print-il" => cli.print_il = true,
            "--stats" => cli.stats = true,
            "--opt-report" | "--opt-report=text" => cli.opt_report = Some(false),
            "--opt-report=json" => cli.opt_report = Some(true),
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
                cli.options.jobs = v.parse().unwrap_or_else(|_| usage());
                if cli.options.jobs == 0 {
                    eprintln!("titanc: --jobs must be at least 1 (omit the flag for auto)");
                    std::process::exit(2);
                }
            }
            "--strip" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.options.strip = v.parse().unwrap_or_else(|_| usage());
            }
            "--catalog" => {
                let path = args.next().unwrap_or_else(|| usage());
                match Catalog::load(&path) {
                    Ok(c) => cli.options.catalogs.push(c),
                    Err(e) => {
                        eprintln!("titanc: cannot load catalog {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--emit-catalog" => {
                cli.emit_catalog = Some(args.next().unwrap_or_else(|| usage()));
                // the catalog wants the *parsed* program; keep it around
                cli.options.keep_parsed = true;
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
    // the rule `CompileRequest::options` applies on the server side
    cli.options.inline = cli.options.opt == titanc::OptLevel::O2 && !no_inline;
    cli
}

/// Reads the input files and bundles them with the option and output
/// flags — the request `--server` ships to `titand`, and the flag carrier
/// [`server::render`] reads on the in-process path.
fn request_of(cli: &Cli) -> Result<server::CompileRequest, ExitCode> {
    let mut files = Vec::with_capacity(cli.files.len());
    for f in &cli.files {
        match std::fs::read_to_string(f) {
            Ok(src) => files.push(SourceFile::new(f.clone(), src)),
            Err(e) => {
                eprintln!("titanc: cannot read {f}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(server::CompileRequest {
        id: i64::from(std::process::id()),
        files,
        opt: match cli.options.opt {
            titanc::OptLevel::O0 => 0,
            titanc::OptLevel::O1 => 1,
            titanc::OptLevel::O2 => 2,
        },
        parallelize: cli.options.parallelize,
        spread_lists: cli.options.spread_lists,
        fortran_aliasing: matches!(cli.options.aliasing, Aliasing::Fortran),
        inline: cli.options.inline,
        strip: cli.options.strip,
        jobs: cli.options.jobs as i64,
        verify: cli.options.verify,
        max_errors: cli.options.max_errors as i64,
        strict: cli.strict,
        print_il: cli.print_il,
        stats: cli.stats,
        opt_report: match cli.opt_report {
            None => "none",
            Some(false) => "text",
            Some(true) => "json",
        }
        .to_string(),
    })
}

fn main() -> ExitCode {
    let cli = parse_args();
    if cli.files.is_empty() {
        usage();
    }
    if let Some(addr) = &cli.server {
        return run_client(&cli, addr);
    }
    let req = match request_of(&cli) {
        Ok(req) => req,
        Err(code) => return code,
    };
    let file = &cli.files[0];

    // one driver: a single file without `--cache-dir` is a one-file,
    // store-less session. The server executor compiles with the same
    // pipeline and renders through the same function, so byte identity
    // between the two entry points is by shared construction.
    let dir = cli.cache_dir.as_deref().map(Path::new);
    let result = compile_session(&req.files, &cli.options, dir);
    // the cache accounting line is stable: CI's cache-smoke job parses it
    let (stdout, stderr, exit) = server::render(&req, &result, dir.is_some());
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
        // inliner can expand them in context and optimize the result
        let parsed = compiled.parsed.as_ref().unwrap_or(&compiled.program);
        let catalog = Catalog::from_program(name, parsed);
        if let Err(e) = catalog.save(path) {
            eprintln!("titanc: cannot write catalog {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("catalog written to {path}");
    }

    if cli.run {
        let mut machine = MachineConfig::optimized(cli.procs);
        if cli.options.opt == titanc::OptLevel::O1 || cli.options.opt == titanc::OptLevel::O0 {
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
                    "[titan] {:.0} cycles, {:.3} ms at 16 MHz, {:.2} MFLOPS, exit {}",
                    result.stats.cycles,
                    result.stats.seconds(16.0) * 1e3,
                    result.stats.mflops(16.0),
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
fn run_client(cli: &Cli, addr: &str) -> ExitCode {
    // flags that need the client's filesystem, its terminal, or the
    // simulator cannot ride the protocol
    let unsupported = [
        (cli.run, "--run"),
        (cli.time, "--time"),
        (cli.trace_json.is_some(), "--trace-json"),
        (cli.emit_catalog.is_some(), "--emit-catalog"),
        (cli.cache_dir.is_some(), "--cache-dir"),
        (cli.options.snapshots, "--snapshots"),
        (!cli.options.catalogs.is_empty(), "--catalog"),
        (!cli.volatile_values.is_empty(), "--volatile-values"),
    ];
    for (set, flag) in unsupported {
        if set {
            eprintln!("titanc: {flag} cannot be combined with --server");
            std::process::exit(2);
        }
    }
    let req = match request_of(cli) {
        Ok(req) => req,
        Err(code) => return code,
    };
    match server::request_over_unix(Path::new(addr), &req) {
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
fn run_client(_cli: &Cli, _addr: &str) -> ExitCode {
    eprintln!("titanc: --server needs Unix domain sockets on this platform");
    ExitCode::from(2)
}
