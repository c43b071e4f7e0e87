//! The experiments table: every result `EXPERIMENTS.md` quotes, as data.
//!
//! Each [`Experiment`] names a paper locus and claim and a function that
//! regenerates its rows on the simulated Titan. Rows from `run` are
//! deterministic ([`Row::exact`]): [`markdown`] renders them into the
//! generated block of `EXPERIMENTS.md`, and `tests/experiments.rs` holds
//! the document to this module byte for byte — the fix for a moved figure
//! is `exp --markdown`. Rows from `timed` are host wall-clock
//! ([`Row::host`]): only the `exp` binary computes them. An `assert!` in a
//! `run` function is the paper's claim itself and fails whatever the
//! document says. Ablations are the shipped `-O2` [`Pipeline`] minus one
//! named pass, never a hand-written pass list. Every cycles row of EXP1–3,
//! 7, 8 and 11 also holds [`no_more_work_than_o0`]: its build executes no
//! more flops or loads than the same source at `-O0`.

use std::time::Instant;

use titanc::{compile, compile_with, Aliasing, Catalog, Options, Pipeline, VectorOptions};
use titanc_il::{Count, LoopDecision, Procedure, StmtKind};
use titanc_lower::compile_to_il;
use titanc_opt::{convert_while_loops, forward_substitute, induction_substitution};
use titanc_titan::{ExecStats, MachineConfig as Titan, RunResult, Simulator};
use titanc_vector::{strength_reduce, vectorize};

use crate::{
    backsolve_source, copy_source, corpus, daxpy_source, ivsub_chain_source, many_loops_source,
    mflops, no_more_work_than_o0, run, whiledo_corpus, Row,
};

/// One entry of the table.
pub struct Experiment {
    /// `EXP1` … `EXP11`.
    pub id: &'static str,
    /// Where in the paper, and what about.
    pub locus: &'static str,
    /// What the paper says.
    pub claim: &'static str,
    /// The deterministic rows.
    pub run: fn() -> Vec<Row>,
    /// Host wall-clock rows, for the experiments that have any.
    pub timed: Option<fn() -> Vec<Row>>,
}

/// The table, in document order.
pub const EXPERIMENTS: [Experiment; 11] = [
    Experiment {
        id: "EXP1",
        locus: "§5.3: the pointer-walk copy `while (n) { *a++ = *b++; n--; }`",
        claim: "\"straightforwardly vectorized (it is, after all, only a vector copy) once all \
                the garbage is cleared away\" — by while→DO conversion and backtracking IVS",
        run: exp1,
        timed: None,
    },
    Experiment {
        id: "EXP2",
        locus: "§6: the backsolve loop `p[i] = z[i] * (y[i] - q[i])`, `p = &x[1]`, `q = &x[0]`",
        claim: "0.5 MFLOPS with scalar optimization only, 1.9 MFLOPS with the dependence-driven \
                optimizations; the distance-1 recurrence can never vectorize",
        run: exp2,
        timed: None,
    },
    Experiment {
        id: "EXP3",
        locus: "§9: daxpy inlined, specialized, vectorized and parallelized",
        claim: "\"on a two processor Titan, this code executes 12 times faster than the scalar \
                version\"; uninlined, argument aliasing blocks vectorization; strips of 32",
        run: exp3,
        timed: None,
    },
    Experiment {
        id: "EXP4",
        locus: "§8: constant propagation with unreachable-code elimination, on daxpy(alpha = 0)",
        claim:
            "the heuristic \"tends to pick up almost all constants\" in less time than a rebuild",
        run: exp4,
        timed: Some(exp4_timed),
    },
    Experiment {
        id: "EXP5",
        locus: "§5.2: while→DO conversion over sixteen loop forms",
        claim: "\"there are a surprising number of intricacies involved\": branches into and out \
                of loops, varying bounds and strides, volatile conditions",
        run: exp5,
        timed: None,
    },
    Experiment {
        id: "EXP6",
        locus: "§5.3: the cost of backtracking induction-variable substitution",
        claim: "worst case n passes over a loop, but \"the average case requires the same simple \
                pass\" — per chain in a loop, and per loop in a procedure",
        run: exp6,
        timed: Some(exp6_timed),
    },
    Experiment {
        id: "EXP7",
        locus: "§2 item 3, §6 item 2: overlapping the integer, floating-point and memory streams",
        claim: "scheduling on dependence information \"can provide a significant speedup\"",
        run: exp7,
        timed: None,
    },
    Experiment {
        id: "EXP8",
        locus: "§10: arrays embedded within structures (the Doré lesson)",
        claim:
            "graphics code keeps 4×4 matrices in structs; not analyzing them was a poor decision",
        run: exp8,
        timed: None,
    },
    Experiment {
        id: "EXP9",
        locus: "§7: procedure catalogs",
        claim: "libraries are \"compiled into databases and used as a base for inlining\": a \
                serialized catalog inlines exactly like the same file, struct layouts included",
        run: exp9,
        timed: None,
    },
    Experiment {
        id: "EXP10",
        locus: "§1 item 6, §3: the volatile keyboard-poll loop",
        claim: "it \"appears as though it will loop forever\" unless `volatile` pins every read",
        run: exp10,
        timed: None,
    },
    Experiment {
        id: "EXP11",
        locus: "§10 future work: spreading linked-list loops (`WhileSpread`)",
        claim: "list loops \"can be spread across multiple processors by pulling the code for \
                moving to the next element into the serialized portion of the parallel loop\"",
        run: exp11,
        timed: None,
    },
];

/// The configurations the tables compare, as a compile recipe and the
/// machine it runs on: the paper's baseline (`-O1`, one processor, no
/// dependence information for the scheduler, so no overlap); the same
/// code with the overlap on; `-O2` on one processor; `-O2 --parallel`,
/// and with `--spread-lists`, on this many processors.
#[derive(Clone, Copy)]
enum Config {
    Scalar,
    Overlap,
    Vector,
    Parallel(u32),
    Spread(u32),
}
use Config::{Overlap, Parallel, Scalar, Spread, Vector};

/// `-O2 --parallel --spread-lists`.
fn spread_lists() -> Options {
    Options {
        spread_lists: true,
        ..Options::parallel()
    }
}

impl Config {
    fn run(self, src: &str) -> ExecStats {
        match self {
            Scalar => run(src, &Options::o1(), Titan::scalar()),
            Overlap => run(src, &Options::o1(), Titan::optimized(1)),
            Vector => run(src, &Options::o2(), Titan::optimized(1)),
            Parallel(procs) => run(src, &Options::parallel(), Titan::optimized(procs)),
            Spread(procs) => run(src, &spread_lists(), Titan::optimized(procs)),
        }
    }
}

/// The work a cycles row may execute: the statistics of `src` at `-O0`,
/// and a check of one row's statistics against them.
fn work_bound(src: &str) -> impl Fn(&ExecStats, &str) {
    let o0 = run(src, &Options::o0(), Titan::scalar());
    move |s, label| no_more_work_than_o0(&o0, s).unwrap_or_else(|e| panic!("`{label}` {e}"))
}

/// A speedup table. Each case is a label, a configuration and the factor
/// by which it must beat the first case (`0.0` claims nothing): one
/// cycles row each, every one after the first with its speedup.
fn cycle_rows(src: &str, cases: impl IntoIterator<Item = (String, Config, f64)>) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut base = None;
    let bound = work_bound(src);
    for (label, config, floor) in cases {
        let s = config.run(src);
        bound(&s, &label);
        let mut note = format!("cycles, {} vector instructions", s.vector_instrs);
        let speedup = *base.get_or_insert(s.cycles) / s.cycles;
        assert!(speedup > floor, "`{label}`: {speedup:.2}x <= {floor}x");
        if !rows.is_empty() {
            note += &format!(", speedup {speedup:.2}x");
        }
        rows.push(Row::exact(label, s.cycles, note));
    }
    rows
}

/// `src` at `-O2` on one processor: the shipped pipeline, then the same
/// pipeline without each pass of `dropped`. Every dropped pass must be
/// worth more than 2× on the kernel.
fn ablation_rows(kernel: &str, src: &str, dropped: &[&str]) -> Vec<Row> {
    let o2 = Options::o2();
    let bound = work_bound(src);
    let cycles = |pipeline: Pipeline, label: &str| {
        let c = compile_with(src, &o2, pipeline).expect("experiment source compiles");
        let r = Simulator::new(&c.program, Titan::optimized(1)).run("main", &[]);
        let s = r.expect("experiment runs").stats;
        bound(&s, label);
        s.cycles
    };
    let label = format!("{kernel}: shipped -O2 pipeline, 1 proc");
    let full = cycles(Pipeline::for_options(&o2), &label);
    let mut rows = vec![Row::exact(label, full, "cycles")];
    for pass in dropped {
        let label = format!("{kernel}: -O2 without `{pass}`, 1 proc");
        let without = cycles(Pipeline::for_options(&o2).without(pass), &label);
        assert!(without > 2.0 * full, "`{pass}` is load-bearing on {kernel}");
        let note = format!("cycles, {:.1}x worse", without / full);
        rows.push(Row::exact(label, without, note));
    }
    rows
}

/// The first procedure of `src`, as lowered.
fn lowered(src: &str) -> Procedure {
    compile_to_il(src).expect("compiles").procs.swap_remove(0)
}

/// Best-of-5 wall time in µs of `pass` over fresh copies of `proc`,
/// which is left as the pass leaves it.
fn time_pass<R>(proc: &mut Procedure, pass: impl Fn(&mut Procedure) -> R) -> f64 {
    let before = proc.clone();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        *proc = before.clone();
        let t = Instant::now();
        pass(proc);
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn exp1() -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [64usize, 100, 1024, 8192] {
        let cases = [
            (format!("scalar only (O1), n={n}"), Scalar, 0.0),
            (format!("vectorized (O2), n={n}"), Vector, 2.0),
            (format!("vector + 2 procs, n={n}"), Parallel(2), 2.0),
        ];
        rows.extend(cycle_rows(&copy_source(n), cases));
    }
    let src = copy_source(1024);
    rows.extend(ablation_rows("copy n=1024", &src, &["ivsub", "whiledo"]));
    rows
}

fn exp2() -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [100usize, 1024] {
        let src = backsolve_source(n);
        let bound = work_bound(&src);
        // register promotion + strength reduction + scheduling overlap
        // against the paper's baseline
        let (base, driven) = (Scalar.run(&src), Vector.run(&src));
        assert!(mflops(&base) < 1.0, "baseline is well under 1 MFLOPS");
        assert!(mflops(&driven) > 2.0 * mflops(&base), "a clear win");
        assert_eq!(driven.vector_instrs, 0, "the loop must stay scalar");
        let label = format!("scalar only (O1, no overlap), n={n}");
        bound(&base, &label);
        let note = format!("MFLOPS ({:.0} cycles)", base.cycles);
        rows.push(Row::exact(label, mflops(&base), note));
        let label = format!("dependence-driven (O2, overlap), n={n}");
        bound(&driven, &label);
        let speedup = base.cycles / driven.cycles;
        let note = format!(
            "MFLOPS ({:.0} cycles, {} vector instructions), speedup {speedup:.2}x",
            driven.cycles, driven.vector_instrs
        );
        rows.push(Row::exact(label, mflops(&driven), note));
    }
    rows
}

fn exp3() -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [100usize, 1024] {
        let mut cases = vec![(format!("scalar (O1), n={n}"), Scalar, 0.0)];
        for procs in [1u32, 2, 4] {
            let label = format!("inline+vector+parallel, {procs} proc(s), n={n}");
            // the paper's 12x is the two-processor figure
            let floor = if procs == 2 { 6.0 } else { 0.0 };
            cases.push((label, Parallel(procs), floor));
        }
        rows.extend(cycle_rows(&daxpy_source(n), cases));
    }
    let src = daxpy_source(1024);
    rows.extend(ablation_rows("daxpy n=1024", &src, &["inline"]));
    let bound = work_bound(&src);
    for strip in [8i64, 16, 32, 64, 256, 2048] {
        let options = Options {
            strip,
            ..Options::parallel()
        };
        let s = run(&src, &options, Titan::optimized(2));
        let label = format!("daxpy n=1024: strip length {strip}, 2 procs");
        bound(&s, &label);
        let note = format!("cycles ({:.2} MFLOPS)", mflops(&s));
        rows.push(Row::exact(label, s.cycles, note));
    }
    rows
}

/// The §8 specialization: `main` of daxpy(alpha = 0) after inlining.
fn inlined_zero_alpha_main() -> Procedure {
    let src = daxpy_source(100).replace("1.0, 100", "0.0, 100");
    let mut prog = compile_to_il(&src).expect("compiles");
    titanc_inline::inline_program(&mut prog);
    prog.proc_by_name("main").expect("main").clone()
}

/// The paper's heuristic: propagation + branch folding + the postpass,
/// re-seeded each round. Returns the statements it removed.
fn heuristic(p: &mut Procedure) -> usize {
    let removed = titanc_opt::constant_propagation(p).get(Count::ConstpropRemoved);
    titanc_opt::eliminate_dead_code(p);
    removed
}

/// The strategy the paper rejects: propagation without branch
/// simplification alternated with full-CFG unreachable elimination. The
/// rebuild only removes graph-unreachable code, so branch conditions are
/// folded between rounds — the repeated reanalysis the paper found it
/// needed.
fn cfg_rebuild(p: &mut Procedure) -> usize {
    let mut removed = 0;
    loop {
        titanc_opt::constant_propagation_no_unreachable(p);
        let before = p.len();
        removed += titanc_opt::constant_propagation(p).get(Count::ConstpropRemoved);
        removed += titanc_opt::eliminate_unreachable_cfg(p);
        if p.len() == before {
            break;
        }
    }
    titanc_opt::eliminate_dead_code(p);
    removed
}

type Strategy = (&'static str, fn(&mut Procedure) -> usize);
const STRATEGIES: [Strategy; 2] = [
    ("heuristic (§8)", heuristic),
    ("CFG rebuild baseline", cfg_rebuild),
];

fn exp4() -> Vec<Row> {
    let main = inlined_zero_alpha_main();
    let before = main.len();
    let label = "inlined main, statements before";
    let mut rows = vec![Row::exact(label, before as f64, "statements")];
    let mut left = Vec::new();
    for (name, strategy) in STRATEGIES {
        let mut p = main.clone();
        let removed = strategy(&mut p) as f64;
        left.push(p.len());
        let label = format!("{name}: statements removed");
        rows.push(Row::exact(label, removed, format!("{} left", p.len())));
    }
    assert!(left[0] <= before / 2, "specialization shrinks main sharply");
    assert!(left[0] <= left[1] + 2, "about as effective as the rebuild");
    rows
}

fn exp4_timed() -> Vec<Row> {
    let main = inlined_zero_alpha_main();
    let reps = 200;
    let per_compile = |(name, strategy): Strategy| {
        let t = Instant::now();
        for _ in 0..reps {
            strategy(&mut main.clone());
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
        Row::host(format!("{name}: compile time"), us, "µs per compile")
    };
    STRATEGIES.into_iter().map(per_compile).collect()
}

fn exp5() -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, src, expect) in whiledo_corpus() {
        let rep = convert_while_loops(&mut lowered(&src));
        let converted = LoopDecision::DoConverted;
        let did = rep.loops.iter().any(|e| e.decision == converted);
        assert_eq!(did, expect, "unexpected outcome for `{name}`");
        let first = rep.loops.first().map(|e| &e.decision);
        let note = match first {
            Some(LoopDecision::DoRejected(reason)) if !did => format!("rejected: {reason:?}"),
            _ => "converted".to_string(),
        };
        rows.push(Row::exact(name, f64::from(u8::from(did)), note));
    }
    let converted = rows.iter().filter(|r| r.value == 1.0).count();
    let note = format!("of {}", rows.len());
    rows.push(Row::exact("loop forms converted", converted as f64, note));
    rows
}

const CHAINS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const LOOPS: [usize; 5] = [8, 16, 32, 64, 128];

/// The EXP6 stressor with `k` interleaved pointer chains, converted and
/// ready for induction-variable substitution.
fn chain_proc(k: usize) -> Procedure {
    let mut proc = lowered(&ivsub_chain_source(k, 64));
    convert_while_loops(&mut proc);
    proc
}

fn exp6() -> Vec<Row> {
    let mut rows = Vec::new();
    for k in CHAINS {
        let rep = induction_substitution(&mut chain_proc(k));
        let substituted = LoopDecision::ivs_substituted(&rep.loops);
        assert!(substituted >= k, "all {k} chains substituted");
        let (passes, backtracks) = (rep.get(Count::IvsubPasses), rep.get(Count::IvsubBacktracks));
        assert!(passes <= 4, "near one productive pass: {passes}");
        let label = format!("{k} pointer chains: IVs substituted");
        let note = format!("passes {passes}, backtracks {backtracks}");
        rows.push(Row::exact(label, substituted as f64, note));
    }
    // second axis: loops per procedure. Each loop converts and gives up
    // one induction variable, whatever stands around it.
    for loops in LOOPS {
        let mut proc = lowered(&many_loops_source(0, loops));
        convert_while_loops(&mut proc);
        induction_substitution(&mut proc);
        forward_substitute(&mut proc);
        let mut left = 0;
        proc.for_each_stmt(&mut |_, k| left += usize::from(matches!(k, StmtKind::DoLoop { .. })));
        assert_eq!(left, loops + 1, "every loop survives as a DO loop");
        let label = format!("{loops} loops in one procedure: DO loops left");
        let note = "after whiledo, ivsub, forward; the initializing loop counts too";
        rows.push(Row::exact(label, left as f64, note));
    }
    let c = compile(&ivsub_chain_source(32, 64), &Options::o2()).expect("compiles");
    let names: Vec<&str> = c.trace.records.iter().map(|r| r.name).collect();
    assert!(names.contains(&"ivsub"), "-O2 includes ivsub: {names:?}");
    let label = "32 chains, full -O2: passes run";
    rows.push(Row::exact(label, names.len() as f64, names.join(" ")));
    let cache = c.trace.cache_totals();
    assert!(cache.hits() > 0, "the analysis cache serves hits");
    let (builds, repairs, dropped) = (cache.builds(), cache.repairs, cache.invalidations);
    let note = format!("{builds} builds, {repairs} repairs, {dropped} invalidations");
    let label = "32 chains, full -O2: analysis-cache hits";
    rows.push(Row::exact(label, cache.hits() as f64, note));
    rows
}

fn exp6_timed() -> Vec<Row> {
    let mut rows = Vec::new();
    for k in CHAINS {
        let us = time_pass(&mut chain_proc(k), induction_substitution);
        rows.push(Row::host(format!("{k} pointer chains: ivsub"), us, "µs"));
    }
    for loops in LOOPS {
        let mut proc = lowered(&many_loops_source(0, loops));
        let whiledo = time_pass(&mut proc, convert_while_loops);
        let ivsub = time_pass(&mut proc, induction_substitution);
        let forward = time_pass(&mut proc, forward_substitute);
        // `strength` gets its own copy: these loops all vectorize, which
        // would leave it no DO loop to work on
        let mut scalar = proc.clone();
        let vector = time_pass(&mut proc, |p| vectorize(p, &VectorOptions::default()));
        let strength = time_pass(&mut scalar, |p| strength_reduce(p, Aliasing::C));
        // the initializing loop counts too
        let per_loop =
            [whiledo, ivsub, forward, vector, strength].map(|us| us / (loops + 1) as f64);
        let [w, i, f, v, s] = per_loop;
        let label = format!("{loops} loops in one procedure: five passes, per loop");
        let note = format!(
            "µs: whiledo {w:.2}, ivsub {i:.2}, forward {f:.2}, vectorize {v:.2}, strength {s:.2}"
        );
        rows.push(Row::host(label, per_loop.iter().sum(), note));
    }
    // where the whole pipeline spends its time on the worst kernel, from
    // the pass manager's own trace
    let c = compile(&ivsub_chain_source(32, 64), &Options::o2()).expect("compiles");
    let total = c.trace.total_duration().as_secs_f64();
    for rec in &c.trace.records {
        let secs = rec.duration.as_secs_f64();
        let label = format!("32 chains, full -O2: {}", rec.name);
        let note = format!("µs, {:.1}% of the pipeline", 100.0 * secs / total);
        rows.push(Row::host(label, secs * 1e6, note));
    }
    rows
}

fn exp7() -> Vec<Row> {
    let mut rows = Vec::new();
    for (kernel, src) in [
        ("backsolve n=1024", backsolve_source(1024)),
        ("daxpy n=1024 (scalar compile)", daxpy_source(1024)),
    ] {
        let cases = [
            (format!("{kernel}: overlap off"), Scalar, 0.0),
            (format!("{kernel}: overlap on"), Overlap, 1.0),
        ];
        rows.extend(cycle_rows(&src, cases));
    }
    rows
}

fn exp8() -> Vec<Row> {
    let c = compile(corpus::STRUCT_MATRIX, &Options::o2()).expect("compiles");
    let converted = c.reports.count("do_converted");
    assert!(converted >= 3, "all three nest levels convert");
    let label = "4x4 transform over 256 vertices: while→DO conversions";
    let ivs = LoopDecision::ivs_substituted(&c.reports.loops);
    let note = format!("{ivs} IVs substituted");
    let mut rows = vec![Row::exact(label, converted as f64, note)];
    // `r` and `c` run 4 trips each: unrolled into the vertex loop, with
    // `acc` folded into each row's store, it vectorizes whole as four
    // statements (25x and 35x claim that it does)
    let cases = [
        ("scalar only (O1)".to_string(), Scalar, 0.0),
        ("optimized (O2)".to_string(), Vector, 25.0),
        (
            "vector + 2 procs (O2 --parallel)".to_string(),
            Parallel(2),
            35.0,
        ),
    ];
    rows.extend(cycle_rows(corpus::STRUCT_MATRIX, cases));
    // over 8x8 matrices the inner loops run 8 trips, too many to unroll:
    // the vertex loop is sunk below them, and `acc`'s 256 elements stay
    // in a vector register (20x claims that they do)
    let cases = [
        ("8x8 transform: scalar only (O1)".to_string(), Scalar, 0.0),
        ("8x8 transform: optimized (O2)".to_string(), Vector, 20.0),
        (
            "8x8 transform: vector + 2 procs (O2 --parallel)".to_string(),
            Parallel(2),
            15.0,
        ),
    ];
    rows.extend(cycle_rows(corpus::STRUCT_MATRIX8, cases));
    rows
}

const BLAS_APP: &str = "\
void blas_daxpy(float *x, float *y, float *z, float alpha, int n);
void blas_set(float *x, float value, int n);
float a[256], b[256], c[256];
int main(void)
{
    blas_set(b, 2.0f, 256); blas_set(c, 3.0f, 256);
    blas_daxpy(a, b, c, 2.0, 256);
    return (int)a[255];
}
";

/// A library whose struct table differs from its consumer's: `pt` is the
/// library's struct 0, `small` the application's. A linker that appends
/// layouts without remapping ids lays `p` out as a `small`, and its
/// stores clobber `q` (exit 6, not 53).
const PT_LIB: &str = "\
struct pt { float x, y, z, w; };
float norm1(float a, float b)
{
    struct pt p; float q[2];
    q[0] = 100.0f; q[1] = 200.0f; p.x = a; p.y = b; p.z = a + b; p.w = a - b;
    return q[0] + q[1] + p.x;
}
";
const PT_APP: &str = "\
struct small { int k; };
float norm1(float, float);
int main(void)
{
    struct small s; float r;
    s.k = 3; r = norm1(1.0f, 2.0f);
    return ((int)r + s.k) % 251;
}
";

/// `lib` compiled into a catalog and round-tripped through its
/// serialized form, plus the size of that form.
fn catalog_of(name: &str, lib: &str) -> (Catalog, usize) {
    let lib = compile_to_il(lib).expect("library compiles");
    let bytes = Catalog::from_program(name, &lib).to_bytes();
    (
        Catalog::from_bytes(&bytes).expect("round-trips"),
        bytes.len(),
    )
}

/// Compiles and runs `app` against a catalog of `lib`, then `lib + app`
/// as one file: `[cross-file, same-file]`.
fn cross_and_same(lib: &str, app: &str, options: Options) -> [(titanc::Compilation, RunResult); 2] {
    let go = |src: &str, options: &Options| {
        let c = compile(src, options).expect("experiment source compiles");
        let r = Simulator::new(&c.program, Titan::optimized(2)).run("main", &[]);
        (c, r.expect("experiment runs"))
    };
    let same = go(&format!("{lib}\n{app}"), &options);
    let linked = Options {
        catalogs: vec![catalog_of("lib", lib).0],
        ..options
    };
    [go(app, &linked), same]
}

fn exp9() -> Vec<Row> {
    let (blas, bytes) = catalog_of("blas", corpus::BLASLIB);
    let label = "catalog `blas`: procedures";
    let note = format!("{bytes} bytes serialized");
    let mut rows = vec![Row::exact(label, blas.procs.len() as f64, note)];
    let [cross, same] = cross_and_same(corpus::BLASLIB, BLAS_APP, Options::parallel());
    assert_eq!(cross.1.stats.cycles, same.1.stats.cycles, "same code");
    let inlined = cross.0.reports.count("expanded");
    assert_eq!(inlined, same.0.reports.count("expanded"), "same decisions");
    let vectorized = cross.0.reports.count("vectorized");
    assert!(vectorized >= 1, "library loops vectorize after inlining");
    let note = format!("cycles; {inlined} call sites inlined, {vectorized} loops vectorized");
    let label = "BLAS-1 application, 2 procs: cross-file (catalog)";
    rows.push(Row::exact(label, cross.1.stats.cycles, note));
    let label = "BLAS-1 application, 2 procs: same-file";
    rows.push(Row::exact(label, same.1.stats.cycles, "cycles"));
    for (level, options) in [("-O0", Options::o0()), ("-O2", Options::o2())] {
        let [(_, cross), (_, same)] = cross_and_same(PT_LIB, PT_APP, options);
        let exit = |r: &RunResult| r.value.expect("main returns").as_int();
        assert_eq!(exit(&cross), exit(&same), "{level}: same observation");
        assert_eq!(cross.stats.cycles, same.stats.cycles, "{level}: same code");
        let label = format!("struct-carrying catalog at {level}: exit value, cross-file");
        let (same, cycles) = (exit(&same), same.stats.cycles);
        let note = format!("same-file {same}; {cycles} cycles both");
        rows.push(Row::exact(label, exit(&cross) as f64, note));
    }
    rows
}

fn exp10() -> Vec<Row> {
    // the device produces three zero reads, then 7
    let poll = |src: &str, options: &Options| {
        let c = compile(src, options).expect("compiles");
        let machine = Titan {
            max_steps: 50_000,
            ..Titan::default()
        };
        let mut sim = Simulator::new(&c.program, machine);
        sim.push_volatile_values(&[0, 0, 0, 7]);
        sim.run("main", &[])
    };
    let mut rows = Vec::new();
    for (level, options) in [
        ("O0", Options::o0()),
        ("O1", Options::o1()),
        ("O2", Options::o2()),
        ("O2 parallel", Options::parallel()),
    ] {
        let r = poll(corpus::VOLATILE_POLL, &options).expect("the device write ends it");
        let value = r.value.expect("main returns").as_int();
        assert_eq!(value, 7, "{level}");
        assert!(r.stats.loads >= 4, "{level}: every poll iteration re-reads");
        let note = format!("loop survived, {} loads executed", r.stats.loads);
        let label = format!("{level}: value returned");
        rows.push(Row::exact(label, value as f64, note));
    }
    // counterpoint: without volatile the loop really is infinite, so the
    // qualifier is what pins the read (the scripted values are never read)
    let plain = corpus::VOLATILE_POLL.replace("volatile int", "int");
    let err = poll(&plain, &Options::o2()).expect_err("spins forever");
    let label = "non-volatile variant at O2: steps allowed";
    rows.push(Row::exact(label, 50_000.0, format!("trap: {err}")));
    rows
}

fn exp11() -> Vec<Row> {
    // the walk appears twice: in `work` and inlined into `main`
    let c = compile(corpus::LISTWALK, &spread_lists()).expect("compiles");
    let loops = c.reports.count("list_spread");
    assert!(loops >= 1, "{:?}", c.reports.loops);
    let note = "in `work` and inlined into `main`";
    let label = "1024-node walk: loops spread";
    let mut rows = vec![Row::exact(label, loops as f64, note)];
    let mut cases = vec![("list walk, no spreading".to_string(), Parallel(1), 0.0)];
    for procs in [1u32, 2, 4] {
        // four processors must pay for the serialized chase
        let floor = if procs == 4 { 1.5 } else { 0.0 };
        let label = format!("spread across {procs} proc(s)");
        cases.push((label, Spread(procs), floor));
    }
    rows.extend(cycle_rows(corpus::LISTWALK, cases));
    rows
}

/// A value as the document shows it: three decimals, trailing zeros
/// dropped (`2526`, `265.5`, `0.389`).
fn fmt_value(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// One experiment's section of the generated block.
pub fn section(e: &Experiment) -> String {
    let mut out = format!(
        "### {} — {}\n\nPaper: {}.\n\n| Row | Value | Note |\n|---|---:|---|\n",
        e.id, e.locus, e.claim
    );
    for r in (e.run)() {
        assert!(r.exact, "{}: `{}` is not deterministic", e.id, r.label);
        out += &format!("| {} | {} | {} |\n", r.label, fmt_value(r.value), r.note);
    }
    out + "\n"
}

/// The generated block of `EXPERIMENTS.md`: every experiment's
/// deterministic rows.
pub fn markdown() -> String {
    EXPERIMENTS.iter().map(section).collect()
}
