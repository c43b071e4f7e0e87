//! The traced run (`--trace 1`): per-layer metrics, taken from outside the
//! program.
//!
//! Three parts. The release binaries are driven first, for what only they
//! can show (the process shell, tails, the daemon's socket and scaling).
//! Then the same ops run in-process: each op is a root span around the
//! calls the binary's `main` makes — read, the one real compile call,
//! render — followed by *replay* spans, recorded as caused by the compile
//! span, that call the same public layer functions on the same data (parse,
//! lower, cones, hash, store read, encode, JSON parse, decode, verify,
//! pretty) plus one synthetic span per pass record the compile returned.
//! Last come the few extras a workload owns (`-j N`, persist cost, paper
//! pins). Spans are written to `trace-<workload>.json` at the end.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use titanc::server::{self, CompileRequest, CompileResponse, Reply, Server, ServerConfig};
use titanc::{
    compile_session, compile_session_resident, compile_with, Compilation, Counters, Options,
    SessionStats, SourceFile,
};
use titanc_analysis::CallGraph;
use titanc_cfront::{parse_recovering, DiagnosticSink, DEFAULT_MAX_ERRORS};
use titanc_il::json::{self, FromJson, ToJson};
use titanc_il::{verify_program, write_proc, Procedure, Program, StableHasher};
use titanc_titan::{ExecEngine, MachineConfig, Simulator};

use crate::env::Env;
use crate::gen;
use crate::names;
use crate::parse::TitanLine;
use crate::reference::{options_for, source_files};
use crate::report::{Metrics, Outcome};
use crate::span::Recorder;
use crate::stats::{median, percentile};
use crate::workload::{
    apply_next_edit, measure, measure_serve, setup, Measured, Prepared, Workload, COMPILE_FLAGS,
};

/// Shares of `--seconds` given to the binaries and to the in-process ops;
/// the rest is left for set-up and the extras.
const CLI_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.30;
/// In-process ops per traced run, at most.
const MAX_TRACED_OPS: usize = 50;
const MAX_TRACED_SIM_OPS: usize = 5;
const STARTUP_RUNS: usize = 20;
const JN_RUNS: usize = 10;

/// The replay spans that repeat work done inside the compile call; what is
/// left of the compile span after them and the pass records is unattributed.
const COMPILE_LAYERS: [&str; 9] = [
    "cfront.parse",
    "lower.lower",
    "analysis.cones",
    "il.hash",
    "core.store.read",
    "il.encode",
    "il.json_parse",
    "il.decode",
    "il.verify",
];

/// Pass names as the pipeline records them, and the metric each feeds.
const PASS_METRICS: [(&str, &str); 9] = [
    ("inline", "inline.ms"),
    ("whiledo", "opt.whiledo_ms"),
    ("ivsub", "opt.ivsub_ms"),
    ("forward", "opt.forward_ms"),
    ("constprop", "opt.constprop_ms"),
    ("dce", "opt.dce_ms"),
    ("cse", "opt.cse_ms"),
    ("vectorize", "vector.vectorize_ms"),
    ("strength", "vector.strength_ms"),
];

pub fn run(env: &Env, workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut metrics = Metrics::declared(&names::per_layer());
    let mut p = setup(env, workload, seed, "trace")?;
    let mut rec = Recorder::new();

    let mut one_client_p50 = 0.0;
    let cli = if workload == Workload::Serve {
        let (two_clients, one_client) = serve_cli(&mut p, seconds, &mut metrics)?;
        one_client_p50 = median(&one_client.sorted_ms());
        two_clients
    } else {
        let cli = measure(env, &mut p, seconds * CLI_SHARE)?;
        one_shot_cli(env, &p, &cli, &mut metrics)?;
        cli
    };

    let deadline = Instant::now() + Duration::from_secs_f64(seconds * TRACED_SHARE);
    let traced = if workload.simulates() {
        traced_sim(&p, &mut rec, &mut metrics, deadline)?
    } else {
        traced_compile(env, &mut p, &mut rec, &mut metrics, deadline)?
    };

    // the in-process-vs-CLI gap the two runs must reconcile: what one op
    // costs as users run it, minus the calls its `main` makes
    let in_process = rec.p50_ms("op");
    if workload == Workload::Serve {
        // the one-client figure, to compare like with like (no second
        // client competing for the lock or the processor)
        metrics.set("titand.socket_ms", one_client_p50 - in_process);
    } else {
        metrics.set("titanc.shell_ms", median(&cli.sorted_ms()) - in_process);
    }

    let trace = env.root.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace, rec.chrome_trace().to_string_compact())
        .map_err(|e| format!("write {}: {e}", trace.display()))?;
    eprintln!(
        "titanperf: {} spans of {} op(s) written to {}",
        rec.spans.len(),
        traced.attempted,
        trace.display()
    );
    // the edit directory has grown by every edit of both phases
    let _ = std::fs::remove_dir_all(p.cache_dir());

    Ok(Outcome {
        attempted: cli.samples.len() + traced.attempted,
        failed: cli.failed() + traced.failed,
        metrics,
    })
}

struct Tally {
    attempted: usize,
    failed: usize,
}

// ---------------------------------------------------------------------
// Part one: the binaries
// ---------------------------------------------------------------------

fn tails(prefix: &str, m: &Measured, metrics: &mut Metrics) {
    let sorted = m.sorted_ms();
    // an unsupported percentile (fewer than ten samples beyond it) stays 0
    for (per_mille, name) in [(900, "op_p90_ms"), (990, "op_p99_ms")] {
        if let Some(v) = percentile(&sorted, per_mille) {
            metrics.set(&format!("{prefix}.{name}"), v);
        }
    }
    metrics.set(&format!("{prefix}.samples"), sorted.len() as f64);
}

fn one_shot_cli(
    env: &Env,
    p: &Prepared,
    cli: &Measured,
    metrics: &mut Metrics,
) -> Result<(), String> {
    tails("titanc", cli, metrics);
    metrics.set("titanc.stdout_bytes", cli.stdout_bytes as f64);
    for (name, n) in ["corrupt", "quarantined", "lock_contended", "write_failed"]
        .iter()
        .zip(cli.store_faults)
    {
        metrics.set(&format!("core.store.{name}"), n as f64);
    }

    // process start, argument parsing and exit: a one-line file at -O0
    let one = gen::SourceText {
        name: "one.c".to_string(),
        src: "int main(void) { return 0; }\n".to_string(),
    };
    std::fs::write(p.src_dir().join(&one.name), &one.src).map_err(|e| format!("one.c: {e}"))?;
    let mut startup = Vec::with_capacity(STARTUP_RUNS);
    for _ in 0..STARTUP_RUNS {
        let run = p.run(env, p.titanc(env).args(["-O0", &one.name]))?;
        if run.code != Some(0) {
            return Err(format!("titanc -O0 one.c: {}", run.stderr));
        }
        startup.push(run.wall.as_secs_f64() * 1e3);
    }
    metrics.set("titanc.startup_ms", crate::stats::median_of(&startup));
    Ok(())
}

/// Two clients, then one: tails and scaling of the daemon. Shuts the
/// daemon down for its totals. Returns both measurements.
fn serve_cli(
    p: &mut Prepared,
    seconds: f64,
    metrics: &mut Metrics,
) -> Result<(Measured, Measured), String> {
    let window = |share: f64| Instant::now() + Duration::from_secs_f64(seconds * share);
    let c2 = measure_serve(p, window(CLI_SHARE * 0.6), 2)?;
    let c1 = measure_serve(p, window(CLI_SHARE * 0.4), 1)?;
    tails("titand", &c2, metrics);
    metrics.set("titand.c1_ops_per_s", c1.ops_per_s);
    metrics.set("titand.scaling_x", c2.ops_per_s / c1.ops_per_s);
    let (ack, _) = p.teardown()?.expect("serve has a daemon");
    let totals = json::parse(&ack).map_err(|e| format!("shutdown ack: {e}"))?;
    let total = |k: &str| -> Result<f64, String> {
        totals
            .field("totals")
            .and_then(|t| t.field(k))
            .and_then(|v| v.as_f64())
            .map_err(|e| format!("shutdown ack: {k}: {e}"))
    };
    metrics.set("titand.protocol_errors", total("protocol_errors")?);
    metrics.set(
        "titand.fully_warm_ratio",
        total("fully_warm")? / total("requests")?,
    );
    Ok((c2, c1))
}

// ---------------------------------------------------------------------
// Part two: the same ops in-process, under spans
// ---------------------------------------------------------------------

/// Metrics that are one of the compiler's own named counters
/// (`titanc::Counters`, whose names are a stable baseline), summed per op.
const COUNTER_METRICS: [(&str, &str); 8] = [
    ("inline.expanded", "inline.expanded"),
    ("inline.skipped_growth", "inline.skipped_growth"),
    ("opt.do_converted", "loops.do_converted"),
    ("opt.iv_substituted", "loops.iv_substituted"),
    ("vector.vectorized", "loops.vectorized"),
    ("vector.parallelized", "loops.parallelized"),
    ("vector.scalar", "loops.scalar"),
    ("core.pass.incidents", "pipeline.incidents"),
];

/// Exact counts of one op, summed over the op's compilations (one on the
/// compile workloads, one per suite program on `sim_*`).
#[derive(Default)]
struct Counts {
    src_bytes: usize,
    il_stmts: usize,
    out_stmts: usize,
    payload_bytes: usize,
    usedef_builds: usize,
    usedef_hits: usize,
    /// In [`COUNTER_METRICS`] order.
    counters: [u64; COUNTER_METRICS.len()],
}

impl Counts {
    fn fold(&mut self, c: &Compilation) {
        let cache = c.trace.cache_totals();
        self.usedef_builds += cache.usedef_builds;
        self.usedef_hits += cache.usedef_hits;
        self.out_stmts += c.program.procs.iter().map(Procedure::len).sum::<usize>();
        let named = Counters::from_run(&c.reports, &c.trace);
        for (sum, (_, counter)) in self.counters.iter_mut().zip(COUNTER_METRICS) {
            *sum += named.get(counter);
        }
    }

    fn write(&self, metrics: &mut Metrics) {
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        metrics.set("cfront.src_bytes", self.src_bytes as f64);
        metrics.set("lower.il_stmts", self.il_stmts as f64);
        metrics.set("il.out_stmts", self.out_stmts as f64);
        metrics.set("il.payload_bytes", self.payload_bytes as f64);
        metrics.set("analysis.usedef_builds", self.usedef_builds as f64);
        metrics.set("analysis.usedef_hits", self.usedef_hits as f64);
        metrics.set(
            "analysis.usedef_hit_ratio",
            ratio(
                self.usedef_hits as f64,
                (self.usedef_hits + self.usedef_builds) as f64,
            ),
        );
        for (sum, (metric, _)) in self.counters.iter().zip(COUNTER_METRICS) {
            metrics.set(metric, *sum as f64);
        }
        let vector = metrics.get("vector.vectorized") + metrics.get("vector.parallelized");
        metrics.set(
            "vector.vectorization_rate",
            ratio(vector, vector + metrics.get("vector.scalar")),
        );
    }
}

/// Which of the result's procedures the compile call wrote to the cache
/// and which it read back, as indices into the program.
#[derive(Default)]
struct Plan {
    /// The primed directory, when the op read all of it.
    read_store: Option<PathBuf>,
    encode: Vec<usize>,
    decode: Vec<usize>,
}

/// Replays, as caused by span `cause`, the layer calls the compile call
/// made inside, on the same data; folds the op's exact counts.
fn replay_layers(
    rec: &mut Recorder,
    cause: usize,
    files: &[SourceFile],
    compiled: &Compilation,
    plan: &Plan,
    counts: &mut Counts,
) -> Result<(), String> {
    let tus = rec.replay("cfront.parse", cause, || {
        files
            .iter()
            .map(|f| parse_recovering(&f.src, &mut DiagnosticSink::new(DEFAULT_MAX_ERRORS)))
            .collect::<Vec<_>>()
    });
    let lowered = rec
        .replay("lower.lower", cause, || {
            tus.iter()
                .map(titanc_lower::lower)
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("lower replay: {}", e.message))?;
    counts.src_bytes += files.iter().map(|f| f.src.len()).sum::<usize>();

    // a stand-in for the session's merged parsed program (the merge itself
    // is private): every unit's procedures and globals, in file order
    let mut parsed = Program::new();
    for tu in lowered {
        parsed.structs.extend(tu.structs);
        for g in tu.globals {
            parsed.ensure_global(g);
        }
        for proc in tu.procs {
            parsed.add_proc(proc);
        }
    }
    counts.il_stmts += parsed.procs.iter().map(Procedure::len).sum::<usize>();

    let cones = rec.replay("analysis.cones", cause, || {
        CallGraph::build(&parsed).inline_cones(&parsed)
    });
    rec.replay("il.hash", cause, || {
        for cone in &cones {
            let mut h = StableHasher::new();
            for &j in cone {
                write_proc(&mut h, &parsed.procs[j]);
            }
            black_box(h.finish());
        }
    });
    if let Some(dir) = &plan.read_store {
        rec.replay("core.store.read", cause, || {
            for path in files_under(dir) {
                black_box(std::fs::read(path).ok());
            }
        });
    }

    // the public codec on the cache's data volume: the procedures the
    // compile call encoded, and the ones it parsed and decoded
    let procs = &compiled.program.procs;
    let encode = |i: &usize| procs[*i].to_json().to_string_compact();
    if !plan.encode.is_empty() {
        let written = rec.replay("il.encode", cause, || {
            plan.encode.iter().map(encode).collect::<Vec<_>>()
        });
        counts.payload_bytes += written.iter().map(String::len).sum::<usize>();
    }
    if !plan.decode.is_empty() {
        let stored: Vec<String> = plan.decode.iter().map(encode).collect();
        counts.payload_bytes += stored.iter().map(String::len).sum::<usize>();
        let docs = rec
            .replay("il.json_parse", cause, || {
                stored
                    .iter()
                    .map(|t| json::parse(t))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("json_parse replay: {e}"))?;
        rec.replay("il.decode", cause, || {
            docs.iter()
                .map(Procedure::from_json)
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("decode replay: {e}"))?;
        rec.replay("il.verify", cause, || verify_program(&compiled.program))
            .map_err(|e| format!("verify replay: {} error(s)", e.len()))?;
    }

    // durations the public return value already carries, laid end to end
    // from the start of the span they happened in
    let mut at = rec.spans[cause].start_us;
    for r in &compiled.trace.records {
        let us = r.duration.as_secs_f64() * 1e6;
        rec.synthetic(&format!("pass.{}", r.name), cause, at, us);
        at += us;
    }
    counts.fold(compiled);
    Ok(())
}

fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files
}

fn dir_bytes(dir: &Path) -> (u64, usize) {
    let files = files_under(dir);
    let bytes = files
        .iter()
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum();
    (bytes, files.len())
}

/// What the CLI prints for a compile op: stdout, and the cache line it
/// sends to stderr.
fn render(compiled: &Compilation, stats: &SessionStats) -> (String, String) {
    let mut out = server::il_block(&compiled.program);
    out.push_str(&server::opt_report_block(compiled, true));
    (out, server::cache_line(stats))
}

/// Writes the p50 of every span-backed `*_ms` metric of the compile side.
fn write_span_metrics(rec: &Recorder, metrics: &mut Metrics) {
    for (span, metric) in [
        ("titanc.read", "titanc.read_ms"),
        ("cfront.parse", "cfront.parse_ms"),
        ("lower.lower", "lower.lower_ms"),
        ("analysis.cones", "analysis.cones_ms"),
        ("il.hash", "il.hash_ms"),
        ("il.encode", "il.encode_ms"),
        ("il.json_parse", "il.json_parse_ms"),
        ("il.decode", "il.decode_ms"),
        ("il.verify", "il.verify_ms"),
        ("il.pretty", "il.pretty_ms"),
        ("core.store.read", "core.store.read_ms"),
        ("core.session.compile", "core.session.compile_ms"),
        ("core.server.render", "core.server.render_ms"),
        ("core.server.proto", "core.server.proto_ms"),
        ("core.server.handle", "core.server.handle_ms"),
        ("pass.spread_lists", "vector.spread_ms"),
    ] {
        metrics.set(metric, rec.p50_ms(span));
    }
    for (pass, metric) in PASS_METRICS {
        metrics.set(metric, rec.p50_ms(&format!("pass.{pass}")));
    }
    let parse_ms = metrics.get("cfront.parse_ms");
    if parse_ms > 0.0 {
        metrics.set(
            "cfront.mb_per_s",
            metrics.get("cfront.src_bytes") / (parse_ms * 1e3),
        );
    }

    // per op: all pass records together, and what the compile spans have
    // left after them (they lie inside) and after the layer replays
    let mut per_op: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for (id, s) in rec.spans.iter().enumerate() {
        if s.name != "core.session.compile" {
            continue;
        }
        let caused = |pred: &dyn Fn(&str) -> bool| -> f64 {
            rec.spans
                .iter()
                .filter(|c| c.parent == Some(id) && pred(&c.name))
                .map(|c| c.ms())
                .sum()
        };
        let (pipeline, unattributed) = per_op.entry(s.op).or_default();
        *pipeline += caused(&|n| n.starts_with("pass."));
        *unattributed += rec.self_ms(id) - caused(&|n| COMPILE_LAYERS.contains(&n));
    }
    if !per_op.is_empty() {
        let (pipeline, unattributed): (Vec<f64>, Vec<f64>) = per_op.into_values().unzip();
        metrics.set("core.pass.pipeline_ms", crate::stats::median_of(&pipeline));
        let left = crate::stats::median_of(&unattributed);
        metrics.set("core.session.unattributed_ms", left);
        let compile_ms = metrics.get("core.session.compile_ms");
        eprintln!(
            "titanperf: core.session.unattributed_ms = {left:.3} ms, {:.1} % of \
             core.session.compile_ms = {compile_ms:.3} ms",
            100.0 * left / compile_ms
        );
    }
}

fn traced_compile(
    env: &Env,
    p: &mut Prepared,
    rec: &mut Recorder,
    metrics: &mut Metrics,
    deadline: Instant,
) -> Result<Tally, String> {
    let workload = p.workload;
    let (options, _) = options_for(&["--parallel"]);
    let cache = p.cache_dir();
    let src_dir = p.src_dir();
    let names: Vec<String> = p.compile().files.iter().map(|f| f.name.clone()).collect();
    let reference = String::from_utf8_lossy(&p.compile().reference_stdout).into_owned();
    let main_index = names.len() - 1;

    // `serve`: an in-process server, one thread, made warm by one request
    let request = gen::request_line(&p.compile().files);
    let in_process = (workload == Workload::Serve).then(|| {
        let s = Server::new(&ServerConfig {
            cache_dir: None,
            workers: 1,
        })
        .quiet();
        s.handle_line(&request);
        s
    });

    let (bytes_before, _) = dir_bytes(&cache);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let mut counts = Counts::default();
    let mut last_stats = SessionStats::default();
    while tally.attempted < MAX_TRACED_OPS && (tally.attempted == 0 || Instant::now() < deadline) {
        // untimed, as in the CLI loop
        let mut plan = Plan::default();
        match workload {
            Workload::Cold => {
                let _ = std::fs::remove_dir_all(&cache);
                plan.encode = (0..names.len()).collect();
            }
            Workload::Edit => {
                let edited = apply_next_edit(p)?;
                plan.encode = vec![edited, main_index];
                plan.decode = (0..main_index).filter(|k| *k != edited).collect();
            }
            Workload::Warm => {
                plan.read_store = Some(cache.clone());
                plan.decode = (0..names.len()).collect();
            }
            _ => plan.decode = (0..names.len()).collect(),
        }

        rec.next_op();
        counts = Counts::default();
        let (cause, files, compiled, stats, stdout) = match &in_process {
            None => {
                let (_, op) = rec.span("op", |rec| -> Result<_, String> {
                    let (_, files) = rec.span("titanc.read", |_| {
                        names
                            .iter()
                            .map(|n| {
                                std::fs::read_to_string(src_dir.join(n))
                                    .map(|src| SourceFile::new(n.clone(), src))
                            })
                            .collect::<Result<Vec<_>, _>>()
                    });
                    let files = files.map_err(|e| format!("read: {e}"))?;
                    let (cause, sc) = rec.span("core.session.compile", |_| {
                        compile_session(&files, &options, Some(&cache))
                    });
                    let sc = sc.map_err(|e| format!("compile: {e}"))?;
                    let (_, (stdout, _)) =
                        rec.span("core.server.render", |_| render(&sc.compilation, &sc.stats));
                    Ok((cause, files, sc.compilation, sc.stats, stdout))
                });
                op?
            }
            Some(srv) => {
                // the real call is `handle_line`; its protocol work, its
                // compile (against the same resident cache) and its render
                // are replayed after it
                let (_, (handle, reply)) = rec.span("op", |rec| {
                    rec.span("core.server.handle", |_| srv.handle_line(&request))
                });
                let Reply::Line(reply) = reply else {
                    return Err("in-process server shut down".to_string());
                };
                let response = json::parse(&reply)
                    .and_then(|d| CompileResponse::from_json(&d))
                    .map_err(|e| format!("in-process reply: {e}"))?;
                let req = rec.replay("core.server.proto", handle, || {
                    let req = json::parse(&request).and_then(|d| CompileRequest::from_json(&d));
                    black_box(response.to_json().to_string_compact());
                    req
                });
                let req = req.map_err(|e| format!("request replay: {e}"))?;
                let (cause, sc) = rec.replay_span("core.session.compile", handle, || {
                    let pipeline = server::base_pipeline(&options);
                    compile_session_resident(&req.files, &options, pipeline, srv.resident())
                });
                let sc = sc.map_err(|e| format!("resident compile: {e}"))?;
                rec.replay("core.server.render", handle, || {
                    black_box(render(&sc.compilation, &sc.stats))
                });
                (cause, req.files, sc.compilation, sc.stats, response.stdout)
            }
        };
        replay_layers(rec, cause, &files, &compiled, &plan, &mut counts)?;
        rec.replay("il.pretty", cause, || {
            black_box(server::il_block(&compiled.program))
        });

        // the in-process op must do what the binary's op does
        let ok = match workload {
            Workload::Cold => (stats.hits, stats.misses) == (0, 9) && stdout == reference,
            Workload::Edit => (stats.hits, stats.misses, stats.invalidated) == (7, 2, 2),
            _ => stats.full_warm && stats.passes_executed == 0 && stdout == reference,
        };
        tally.attempted += 1;
        tally.failed += usize::from(!ok);
        last_stats = stats;
    }

    counts.write(metrics);
    write_span_metrics(rec, metrics);
    let s = &last_stats;
    metrics.set("core.pass.passes_executed", s.passes_executed as f64);
    metrics.set("core.session.hits", s.hits as f64);
    metrics.set("core.session.misses", s.misses as f64);
    metrics.set("core.session.invalidated", s.invalidated as f64);
    metrics.set(
        "core.session.hit_ratio",
        s.hits as f64 / (s.hits + s.misses) as f64,
    );
    if workload != Workload::Serve {
        let (bytes, files) = dir_bytes(&cache);
        metrics.set("core.store.dir_bytes", bytes as f64);
        metrics.set("core.store.dir_files", files as f64);
        if workload == Workload::Edit {
            let grown = bytes.saturating_sub(bytes_before) as f64;
            metrics.set("core.store.bytes_per_edit", grown / tally.attempted as f64);
        }
    }
    if workload == Workload::Cold {
        cold_extras(env, p, rec, metrics, &options)?;
    }
    Ok(tally)
}

/// `cold` only: what persisting costs (the same compile with no store),
/// and the op at `-j min(nproc, 4)` through the binary.
fn cold_extras(
    env: &Env,
    p: &mut Prepared,
    rec: &Recorder,
    metrics: &mut Metrics,
    options: &Options,
) -> Result<(), String> {
    let files = source_files(&p.compile().files);
    let mut store_less = Vec::with_capacity(JN_RUNS);
    for _ in 0..JN_RUNS {
        let t = Instant::now();
        black_box(compile_session(&files, options, None).map_err(|e| format!("compile: {e}"))?);
        store_less.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let with_store = rec.p50_ms("core.session.compile");
    metrics.set(
        "core.store.persist_ms",
        with_store - crate::stats::median_of(&store_less),
    );

    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let jobs = jobs.to_string();
    let mut flags: Vec<&str> = COMPILE_FLAGS.to_vec();
    flags[2] = &jobs;
    let mut jn = Vec::with_capacity(JN_RUNS);
    let mut j1 = Vec::with_capacity(JN_RUNS);
    // alternate -j N and -j 1 so both see the same machine
    for i in 0..2 * JN_RUNS {
        let _ = std::fs::remove_dir_all(p.cache_dir());
        let flags: &[&str] = if i % 2 == 0 { &flags } else { &COMPILE_FLAGS };
        let run = p.run(env, &p.compile_cmd(env, flags, true))?;
        if run.code != Some(0) || run.stdout != p.compile().reference_stdout {
            return Err(format!("cold compile at {flags:?} failed: {}", run.stderr));
        }
        let ms = run.wall.as_secs_f64() * 1e3;
        if i % 2 == 0 {
            jn.push(ms)
        } else {
            j1.push(ms)
        }
    }
    let jn = crate::stats::median_of(&jn);
    metrics.set("core.pass.jn_ms", jn);
    metrics.set("core.pass.jn_speedup_x", crate::stats::median_of(&j1) / jn);
    Ok(())
}

fn traced_sim(
    p: &Prepared,
    rec: &mut Recorder,
    metrics: &mut Metrics,
    deadline: Instant,
) -> Result<Tally, String> {
    let suite = p.sim();
    let src_dir = p.src_dir();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let mut counts = Counts::default();
    let mut agree = true;
    let (mut steps, mut flops, mut vector_elems) = (0u64, 0u64, 0u64);
    while tally.attempted < MAX_TRACED_SIM_OPS
        && (tally.attempted == 0 || Instant::now() < deadline)
    {
        rec.next_op();
        counts = Counts::default();
        (steps, flops, vector_elems) = (0, 0, 0);
        let mut ok = true;
        for (prog, want) in suite.programs.iter().zip(&suite.expected) {
            let (options, procs) = options_for(prog.flags);
            let machine = MachineConfig::optimized(procs);
            // what `titanc <flags> --run prog.c` does: read, compile the one
            // file, build the simulator, run on its default engine
            let (_, op) = rec.span("op", |rec| -> Result<_, String> {
                let (_, src) = rec.span("titanc.read", |_| {
                    std::fs::read_to_string(src_dir.join(&prog.file.name))
                });
                let src = src.map_err(|e| format!("read: {e}"))?;
                let (cause, compiled) = rec.span("core.session.compile", |_| {
                    compile_with(&src, &options, server::base_pipeline(&options))
                });
                let compiled = compiled.map_err(|e| format!("{}: {e}", prog.name))?;
                let (_, mut sim) = rec.span("titan.sim_new", |_| {
                    Simulator::with_engine(&compiled.program, machine.clone(), ExecEngine::Interp)
                });
                let (_, ran) = rec.span(&format!("titan.interp.run.{}", prog.name), |_| {
                    sim.run("main", &[])
                });
                let ran = ran.map_err(|e| format!("{} on interp: {e}", prog.name))?;
                Ok((cause, src, compiled, ran))
            });
            let (cause, src, compiled, interp) = op?;

            // the other engine, for the per-program speed-up
            let mut vm = Simulator::with_engine(&compiled.program, machine, ExecEngine::Vm);
            let (_, ran) = rec.span(&format!("titan.vm.run.{}", prog.name), |_| {
                vm.run("main", &[])
            });
            let ran = ran.map_err(|e| format!("{} on vm: {e}", prog.name))?;
            agree &= ran.value == interp.value && ran.stats == interp.stats;

            let files = [SourceFile::new(prog.file.name.clone(), src)];
            replay_layers(rec, cause, &files, &compiled, &Plan::default(), &mut counts)?;

            let line = TitanLine {
                cycles: format!("{:.0}", interp.stats.cycles).parse().unwrap_or(0),
                exit: interp.value.map(|v| v.as_int()),
            };
            ok &= line == *want;
            metrics.set(&format!("titan.cycles.{}", prog.name), line.cycles as f64);
            steps += interp.stats.steps;
            flops += interp.stats.flops;
            vector_elems += interp.stats.vector_elems;
        }
        tally.attempted += 1;
        tally.failed += usize::from(!ok);
    }

    counts.write(metrics);
    write_span_metrics(rec, metrics);
    let programs = suite.programs.len() as f64;
    metrics.set("titan.sim_new_ms", rec.p50_ms("titan.sim_new") / programs);
    let (mut interp_ms, mut vm_ms, mut log_ratio) = (0.0, 0.0, 0.0);
    for prog in &suite.programs {
        let i = rec.p50_ms(&format!("titan.interp.run.{}", prog.name));
        let v = rec.p50_ms(&format!("titan.vm.run.{}", prog.name));
        metrics.set(&format!("titan.interp.run_ms.{}", prog.name), i);
        metrics.set(&format!("titan.vm.run_ms.{}", prog.name), v);
        interp_ms += i;
        vm_ms += v;
        log_ratio += (i / v).ln();
    }
    metrics.set(
        "titan.interp.mstmts_per_s",
        steps as f64 / (interp_ms * 1e3),
    );
    metrics.set("titan.vm.mstmts_per_s", steps as f64 / (vm_ms * 1e3));
    metrics.set("titan.vm_speedup_geomean_x", (log_ratio / programs).exp());
    metrics.set("titan.steps", steps as f64);
    metrics.set("titan.flops", flops as f64);
    metrics.set("titan.vector_elems", vector_elems as f64);
    metrics.set("titan.engines_agree", f64::from(u8::from(agree)));
    paper_pins(metrics)?;
    Ok(tally)
}

/// The paper's two deterministic figures, as `EXPERIMENTS.md` regenerates
/// them (EXP3 and EXP2 at n = 100): exact, reported, not thresholded.
fn paper_pins(metrics: &mut Metrics) -> Result<(), String> {
    let cycles = |src: &str, options: &Options, machine: MachineConfig| -> Result<_, String> {
        let compiled = titanc::compile(src, options).map_err(|e| format!("paper pin: {e}"))?;
        let mut sim = Simulator::with_engine(&compiled.program, machine, ExecEngine::Vm);
        let run = sim
            .run("main", &[])
            .map_err(|e| format!("paper pin: {e}"))?;
        Ok(run.stats)
    };
    let daxpy = gen::paper_daxpy();
    let scalar = cycles(&daxpy, &Options::o1(), MachineConfig::scalar())?;
    let spread = cycles(&daxpy, &Options::parallel(), MachineConfig::optimized(2))?;
    metrics.set(
        "titan.paper.daxpy_2p_speedup_x",
        scalar.cycles / spread.cycles,
    );
    let backsolve = cycles(
        &gen::paper_backsolve(),
        &Options::o2(),
        MachineConfig::optimized(1),
    )?;
    metrics.set("titan.paper.backsolve_mflops", backsolve.mflops(16.0));
    Ok(())
}
