//! `titanperf` — the repository's single benchmark.
//!
//! ```text
//! titanperf --workload W --seed N --seconds S --trace 0|1
//! titanperf check-repeat [--seed N] [--seconds S]
//! ```
//!
//! `--trace 0` drives the release `titanc`/`titand` binaries over seeded,
//! generated inputs and prints the end-to-end metrics; `--trace 1` prints
//! the per-layer metrics of a separate traced run. Either way the last
//! line of stdout is one JSON object. See `README.md` beside this package.

mod child;
mod env;
mod gen;
mod names;
mod parse;
mod reference;
mod report;
mod span;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use titanc_il::json;

use env::Env;
use report::{Metrics, Outcome};
use workload::{measure, setup, Prepared, Workload};

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUPS: usize = 5;

struct Args {
    check_repeat: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: titanperf --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      titanperf check-repeat [--seed N] [--seconds S]",
        names::WORKLOADS.join("|")
    )
}

/// Seeds are decimal or `0x` hex.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        check_repeat: false,
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: names::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "check-repeat" => out.check_repeat = true,
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = parse_seed(v).ok_or_else(|| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.check_repeat == out.workload.is_some() {
        return Err("give either --workload or check-repeat".to_string());
    }
    Ok(out)
}

/// The untraced run: set up [`SETUPS`] times, measure the last set-up.
fn end_to_end(env: &Env, workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUPS {
        if let Some(mut earlier) = prepared.take() {
            earlier.teardown()?;
        }
        let start = Instant::now();
        prepared = Some(setup(env, workload, seed, "e2e")?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut p = prepared.expect("SETUPS is at least one");

    let mut m = measure(env, &mut p, seconds)?;
    let mut failed = m.failed();
    if let Some((ack, rss_mb)) = p.teardown()? {
        m.peak_rss_mb = rss_mb;
        let errors = json::parse(&ack)
            .and_then(|doc| doc.field("totals")?.field("protocol_errors")?.as_i64())
            .map_err(|e| format!("shutdown ack: {e}"))?;
        failed += errors as usize;
    }
    // `edit` leaves a directory that grew with every op
    let _ = std::fs::remove_dir_all(p.cache_dir());

    let sorted = m.sorted_ms();
    if let Some((label, ms)) = stats::highest_percentile(&sorted) {
        eprintln!(
            "titanperf: {} op {label} = {ms:.3} ms (n = {}); tails are reported, not gated",
            workload.name(),
            sorted.len()
        );
    }
    let mut metrics = Metrics::declared(&names::END_TO_END);
    metrics.set("setup_s", stats::median_of(&setup_s));
    metrics.set("op_p50_ms", stats::median(&sorted));
    metrics.set("ops_per_s", m.ops_per_s);
    metrics.set("peak_rss_mb", m.peak_rss_mb);
    metrics.set("sim_cycles", p.sim_cycles as f64);
    metrics.set("il_lines", p.il_lines as f64);
    Ok(Outcome {
        attempted: sorted.len(),
        failed,
        metrics,
    })
}

/// Runs every workload twice on this build and compares the two runs,
/// metric by metric, against the bounds in `BENCHMARK.json`.
fn check_repeat(env: &Env, seed: u64, seconds: f64) -> Result<bool, String> {
    let bounds = names::bounds().map_err(|e| format!("BENCHMARK.json: {e}"))?;

    println!(
        "titanperf check-repeat: seed {seed:#x}, {seconds} s per run, nproc {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("| workload | metric | first | second | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    let mut all_ok = true;
    for workload in Workload::ALL {
        let first = end_to_end(env, workload, seed, seconds)?;
        let second = end_to_end(env, workload, seed, seconds)?;
        all_ok &= first.failed + second.failed == 0;
        for ((name, _, better), bound) in names::END_TO_END.iter().zip(&bounds) {
            let (a, b) = (first.metrics.get(name), second.metrics.get(name));
            // how much worse the second run reads, as a share of the first;
            // an exact metric may not differ at all
            let worse = if *better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let ok = if names::EXACT.contains(name) {
                a == b
            } else {
                worse.abs() <= *bound
            };
            all_ok &= ok;
            println!(
                "| {} | {name} | {a:.4} | {b:.4} | {:+.2} % | {:.1} % | {} |",
                workload.name(),
                100.0 * worse,
                100.0 * bound,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["spawner"] {
        // the hidden mode `Env::prepare` starts; see `child::spawner_main`
        return match child::spawner_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("titanperf spawner: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("titanperf: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("titanperf: measure optimized builds only (cargo run --release)");
        return ExitCode::from(2);
    }
    let run = || -> Result<bool, String> {
        let env = Env::prepare()?;
        if args.check_repeat {
            return check_repeat(&env, args.seed, args.seconds);
        }
        let workload = args.workload.expect("parse_args checked");
        let outcome = if args.trace {
            traced::run(&env, workload, args.seed, args.seconds)?
        } else {
            end_to_end(&env, workload, args.seed, args.seconds)?
        };
        outcome.print(workload.name());
        Ok(true)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("titanperf: {e}");
            ExitCode::FAILURE
        }
    }
}
