//! Parallel-pipeline regression tests: `-j 1` and `-j N` must produce
//! byte-identical output (the merge is by procedure order, not worker
//! order), the generation-keyed analysis cache must never serve a stale
//! artifact across a mutating pass, every counter it keeps must move on
//! the corpus, and procedures whose generation did not move must be
//! skipped by the snapshotter.

use titanc_bench::sweep::corpus_files;
use titanc_repro::titanc::{compile, CacheStats, Options};

/// A corpus of independent procedures, each with a constant chain hidden
/// behind agreeing conditional definitions (forward substitution cannot
/// see through the joins, so constant propagation resolves one chain link
/// per round off the cached use–def chains — the §5.2 repair path) and
/// two vectorizable/convertible loops.
fn corpus(nprocs: usize) -> String {
    let mut src = String::new();
    for k in 0..nprocs {
        let seed = k + 2;
        src.push_str(&format!("float a{k}[64], b{k}[64], c{k}[64];\n"));
        src.push_str(&format!(
            "void p{k}(int n)\n\
             {{\n\
             \x20   int i, t0, t1, t2, t3;\n\
             \x20   if (n) t0 = {seed}; else t0 = {seed};\n\
             \x20   if (n) t1 = t0 * t0; else t1 = t0 * t0;\n\
             \x20   if (n) t2 = t1 + t1; else t2 = t1 + t1;\n\
             \x20   t3 = t2 * t1;\n\
             \x20   for (i = 0; i < 64; i++)\n\
             \x20       a{k}[i] = b{k}[i] * t3 + c{k}[i] * t2;\n\
             \x20   while (n > 0) {{\n\
             \x20       a{k}[0] = a{k}[0] + 1.0f;\n\
             \x20       n = n - 1;\n\
             \x20   }}\n\
             }}\n"
        ));
    }
    src.push_str("int main(void) { return 0; }\n");
    src
}

fn opts_with_jobs(jobs: usize) -> Options {
    Options {
        jobs,
        snapshots: true,
        verify: true,
        ..Options::parallel()
    }
}

#[test]
fn jobs_1_and_jobs_4_are_byte_identical() {
    let src = corpus(9);
    let serial = compile(&src, &opts_with_jobs(1)).unwrap();
    let fanned = compile(&src, &opts_with_jobs(4)).unwrap();

    // identical program, procedure by procedure
    assert_eq!(serial.program.procs.len(), fanned.program.procs.len());
    for (a, b) in serial.program.procs.iter().zip(&fanned.program.procs) {
        assert_eq!(
            titanc_il::pretty_proc(a),
            titanc_il::pretty_proc(b),
            "procedure `{}` diverged between -j 1 and -j 4",
            a.name
        );
    }

    // identical aggregate reports
    assert_eq!(
        format!("{:?}", serial.reports),
        format!("{:?}", fanned.reports)
    );

    // identical trace: same passes in the same order, with the same
    // change flags, per-pass deltas, and cache counters (durations are
    // the only nondeterministic field)
    assert_eq!(serial.trace.records.len(), fanned.trace.records.len());
    for (a, b) in serial.trace.records.iter().zip(&fanned.trace.records) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.changed, b.changed, "changed flag for `{}`", a.name);
        assert_eq!(
            format!("{:?}", a.delta),
            format!("{:?}", b.delta),
            "delta for `{}`",
            a.name
        );
        assert_eq!(a.cache, b.cache, "cache counters for `{}`", a.name);
    }

    // identical snapshot sequence (pass-major, procedure order)
    assert_eq!(serial.snapshots, fanned.snapshots);
}

#[test]
fn pipeline_reuses_and_repairs_analyses() {
    // the constant chains force several constprop rounds; with the
    // generation-keyed cache each follow-up round hits the repaired
    // use–def chains instead of rebuilding them
    let c = compile(&corpus(6), &opts_with_jobs(2)).unwrap();
    let totals = c.trace.cache_totals();
    assert!(
        totals.usedef_hits > 0,
        "constprop rounds must hit the cached use-def chains: {totals:?}"
    );
    assert!(
        totals.repairs > 0,
        "the §5.2 repair path (rekey/note_repair) must fire: {totals:?}"
    );
    assert!(
        totals.invalidations > 0,
        "structural passes must invalidate: {totals:?}"
    );
    // the per-pass attribution adds up to the totals
    let constprop = c.trace.record("constprop").unwrap();
    assert!(constprop.cache.usedef_hits > 0, "{:?}", constprop.cache);
}

/// Every analysis-cache counter moves on some compile at `-O2 --parallel`
/// of `corpus/*.c` or of this file's constant-chain corpus (the only one
/// that makes constant propagation rerun over repaired chains, hitting
/// them): a counter no pass moves must not ride every pass record and
/// cache cell.
#[test]
fn every_cache_counter_moves_on_the_corpus() {
    let mut totals = CacheStats::default();
    let chains = ("constant chains".to_string(), corpus(2));
    for (name, src) in corpus_files().into_iter().chain([chains]) {
        let c = compile(&src, &Options::parallel()).unwrap_or_else(|e| panic!("{name}: {e}"));
        totals.merge(&c.trace.cache_totals());
    }
    // every field as `Debug` names it, so a new counter is covered too
    let shown = format!("{totals:?}");
    let fields = shown
        .trim_start_matches("CacheStats { ")
        .trim_end_matches(" }");
    let idle: Vec<&str> = fields.split(", ").filter(|f| f.ends_with(": 0")).collect();
    assert!(idle.is_empty(), "counters no pass moves: {idle:?}");
}

#[test]
fn mutating_pass_bumps_generation_and_stale_usedef_is_dropped() {
    use titanc_analysis::ProcAnalyses;

    let prog = titanc_lower::compile_to_il(
        "void f(float *a, int n) { int i; i = 0; while (i < n) { a[i] = 0; i = i + 1; } }",
    )
    .unwrap();
    let mut proc = prog.procs[0].clone();
    let mut analyses = ProcAnalyses::new();

    let before = proc.generation();
    let stale = analyses.usedef(&proc);
    let report = titanc_opt::convert_while_loops_cached(&mut proc, &mut analyses);
    let converted = titanc_repro::il::LoopDecision::DoConverted;
    assert!(
        report.loops.iter().any(|e| e.decision == converted),
        "{report:?}"
    );
    assert!(
        proc.generation() > before,
        "a mutating pass must bump the generation"
    );
    let fresh = analyses.usedef(&proc);
    assert!(
        !std::sync::Arc::ptr_eq(&stale, &fresh),
        "stale use-def chains must never be served after a mutation"
    );
    assert_eq!(analyses.cached_generation(), Some(proc.generation()));
}

#[test]
fn unchanged_procedures_skip_snapshots() {
    // `id` is already optimal: no pass changes it, so after "lower" it
    // must never be snapshotted again, while the loopy `p0` is
    let src = format!("int id(int x) {{ return x; }}\n{}", corpus(1));
    let c = compile(&src, &opts_with_jobs(2)).unwrap();
    let id_phases: Vec<&str> = c
        .snapshots
        .iter()
        .filter(|s| s.proc == "id")
        .map(|s| s.phase.as_str())
        .collect();
    assert_eq!(id_phases, vec!["lower"], "unchanged proc re-snapshotted");
    let p0_phases: Vec<&str> = c
        .snapshots
        .iter()
        .filter(|s| s.proc == "p0")
        .map(|s| s.phase.as_str())
        .collect();
    assert!(p0_phases.len() > 1, "changed proc must be snapshotted");
}

#[test]
fn effective_jobs_resolves_auto() {
    assert_eq!(
        Options {
            jobs: 3,
            ..Options::o2()
        }
        .effective_jobs(),
        3
    );
    assert!(
        Options {
            jobs: 0,
            ..Options::o2()
        }
        .effective_jobs()
            >= 1
    );
}
