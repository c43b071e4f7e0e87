//! Differential tests: the scalar passes and the dataflow solver against
//! the slow, obviously-right forms they replaced, all compiled only into
//! tests — `forward` against its quadratic rescan, `constprop` against
//! the whole-procedure sweep per round, `dce` against a CFG + liveness
//! rebuild per round, `cse` against recollect-and-rescan
//! (`crates/opt/src/*_reference.rs`), and the flat dataflow frames against
//! one `BitSet` per node (`crates/analysis/src/dataflow_reference.rs`).
//!
//! For every file under `corpus/` under every `sweep::option_sets()`, for
//! the first 320 cases of the sweep's default run seed × {`-O1`, `-O2`,
//! `-O2 --parallel`, `--fortran-aliasing`}, for
//! `many_loops_source(0, {30, 120})` and for hand-written window edges,
//! each procedure is taken through the scalar and vector passes in
//! pipeline order; wherever the pipeline runs one of the four passes,
//! reference and shipped pass start from the same IL and must leave the
//! same printed procedure, the same variable names (every `cse_N`) and
//! the same report; before `constprop` and each `dce` the two solvers
//! must answer every (statement, variable) alike. The run continues from
//! the shipped pass's output, so each comparison sees what the real
//! pipeline would.

#[path = "../../opt/src/constprop_reference.rs"]
mod constprop_reference;
#[path = "../../opt/src/cse_reference.rs"]
mod cse_reference;
#[path = "../../analysis/src/dataflow_reference.rs"]
mod dataflow_reference;
#[path = "../../opt/src/dce_reference.rs"]
mod dce_reference;
#[path = "../../opt/src/forward_reference.rs"]
mod forward_reference;

use titanc::{compile, OptLevel, Options, VectorOptions};
use titanc_analysis::ProcAnalyses;
use titanc_bench::many_loops_source;
use titanc_bench::sweep::{corpus_files, option_sets, Case, DEFAULT_SEED};
use titanc_il::{pretty_proc, Count, Procedure};

/// What the comparisons of one test covered.
#[derive(Default)]
struct Coverage {
    comparisons: usize,
    substituted: usize,
    const_replaced: usize,
    dce_removed: usize,
    commoned: usize,
    dataflow_queries: usize,
}

/// Runs `reference` on a copy of `proc` and `shipped` on `proc` itself;
/// both must leave the same IL under the same names, and equal reports.
fn assert_pass_agrees<R: PartialEq + std::fmt::Debug>(
    proc: &mut Procedure,
    what: &str,
    reference: impl FnOnce(&mut Procedure) -> R,
    shipped: impl FnOnce(&mut Procedure) -> R,
) -> R {
    let mut want = proc.clone();
    let want_report = reference(&mut want);
    let got_report = shipped(proc);
    assert_eq!(
        pretty_proc(proc),
        pretty_proc(&want),
        "{what}: the pass and its reference print different IL"
    );
    let names = |p: &Procedure| -> Vec<String> { p.vars.iter().map(|v| v.name.clone()).collect() };
    assert_eq!(names(proc), names(&want), "{what}: variable names");
    assert_eq!(got_report, want_report, "{what}: report");
    assert_eq!(proc.generation(), want.generation(), "{what}: generation");
    got_report
}

fn assert_forward_agrees(proc: &mut Procedure, what: &str, cov: &mut Coverage) {
    cov.substituted += assert_pass_agrees(
        proc,
        &format!("{what}: forward"),
        forward_reference::forward_substitute,
        |p| titanc_opt::forward_substitute(p).get(Count::ForwardSubstituted),
    );
    cov.comparisons += 1;
}

fn assert_dce_agrees(
    proc: &mut Procedure,
    analyses: &mut ProcAnalyses,
    what: &str,
    cov: &mut Coverage,
) {
    cov.dataflow_queries += dataflow_reference::assert_flat_solvers_agree(proc, what);
    cov.dce_removed += assert_pass_agrees(
        proc,
        &format!("{what}: dce"),
        dce_reference::eliminate_dead_code,
        |p| {
            let r = titanc_opt::eliminate_dead_code_cached(p, analyses);
            dce_reference::Report {
                removed: r.get(Count::DceRemoved),
                rounds: r.get(Count::DceRounds),
                budget_exhausted: r.get(Count::DceBudgetHit) > 0,
            }
        },
    )
    .removed;
}

/// The per-procedure passes of `Pipeline::for_options`, in its order, with
/// `forward`, `constprop`, `dce` and `cse` replaced by the comparisons.
fn run_pipeline(src: &str, options: &Options, what: &str, cov: &mut Coverage) {
    if options.opt == OptLevel::O0 {
        return; // no per-procedure pass runs
    }
    // the program as the per-procedure passes receive it: lowered, inlined
    let mut front = options.clone();
    front.opt = OptLevel::O0;
    let mut program = compile(src, &front)
        .unwrap_or_else(|e| panic!("{what}: {e}\n{src}"))
        .program;
    for proc in &mut program.procs {
        let what = format!("{what}, proc `{}`", proc.name);
        let mut analyses = ProcAnalyses::new();
        titanc_opt::convert_while_loops_cached(proc, &mut analyses);
        titanc_opt::induction_substitution(proc);
        assert_forward_agrees(proc, &format!("{what}, scalar phase"), cov);
        cov.dataflow_queries += dataflow_reference::assert_flat_solvers_agree(proc, &what);
        cov.const_replaced += assert_pass_agrees(
            proc,
            &format!("{what}: constprop"),
            constprop_reference::constant_propagation,
            |p| {
                let r = titanc_opt::constant_propagation_cached(p, &mut analyses);
                constprop_reference::Report {
                    replaced: r.get(Count::ConstpropReplaced),
                    removed: r.get(Count::ConstpropRemoved),
                    rounds: r.get(Count::ConstpropRounds),
                    budget_exhausted: r.get(Count::ConstpropBudgetHit) > 0,
                }
            },
        )
        .replaced;
        assert_dce_agrees(proc, &mut analyses, &format!("{what}, scalar phase"), cov);
        if options.opt != OptLevel::O2 {
            continue;
        }
        if options.spread_lists && options.parallelize {
            titanc_vector::spread_list_loops(proc);
        }
        let vopts = VectorOptions {
            aliasing: options.aliasing,
            parallelize: options.parallelize,
            strip: options.strip,
        };
        titanc_vector::vectorize(proc, &vopts);
        titanc_vector::strength_reduce(proc, options.aliasing);
        assert_forward_agrees(proc, &format!("{what}, cleanup round"), cov);
        cov.commoned += assert_pass_agrees(
            proc,
            &format!("{what}: cse"),
            cse_reference::local_cse,
            |p| {
                let r = titanc_opt::local_cse(p);
                cse_reference::Report {
                    commoned: r.get(Count::CseCommoned),
                    replaced: r.get(Count::CseReplaced),
                }
            },
        )
        .commoned;
        assert_dce_agrees(proc, &mut analyses, &format!("{what}, cleanup round"), cov);
    }
}

#[test]
fn corpus_agrees_under_every_option_set() {
    let mut cov = Coverage::default();
    let files = corpus_files();
    assert!(files.len() >= 7, "only {} corpus files found", files.len());
    for (path, src) in &files {
        for (level, options) in option_sets() {
            run_pipeline(src, &options, &format!("{path} at {level}"), &mut cov);
        }
    }
    assert!(
        cov.comparisons >= 50 && cov.substituted >= 100,
        "the corpus stopped exercising forward: {} comparisons, {} substitutions",
        cov.comparisons,
        cov.substituted
    );
    // (`forward` leaves the corpus's `constprop` no read to replace)
    assert!(
        cov.dce_removed >= 1000 && cov.commoned >= 50,
        "the corpus stopped exercising dce / cse: {} statements, {} temps",
        cov.dce_removed,
        cov.commoned
    );
    assert!(cov.dataflow_queries >= 10_000, "{}", cov.dataflow_queries);
}

/// The first 320 cases of the sweep's stream, the even and the odd ones on
/// two threads; each half alone must reach every coverage floor.
#[test]
fn progen_programs_agree() {
    std::thread::scope(|scope| {
        for half in [0, 1] {
            scope.spawn(move || progen_half_agrees(half));
        }
    });
}

fn progen_half_agrees(half: u64) {
    let sets = option_sets();
    let mut cov = Coverage::default();
    for i in (half..320).step_by(2) {
        let case = Case::nth(DEFAULT_SEED, i);
        for (level, options) in [&sets[1], &sets[2], &sets[3], &sets[5]] {
            let what = format!("case seed 0x{:X} at {level}", case.seed);
            run_pipeline(&case.src, options, &what, &mut cov);
        }
    }
    assert!(
        cov.comparisons >= 1280 && cov.substituted >= 2000,
        "progen stopped exercising forward: {} comparisons, {} substitutions",
        cov.comparisons,
        cov.substituted
    );
    assert!(
        cov.const_replaced >= 2000 && cov.dce_removed >= 2000,
        "progen stopped exercising constprop / dce: {} reads, {} statements",
        cov.const_replaced,
        cov.dce_removed
    );
}

/// The benchmark's procedure shape, at the two sizes of the allocation
/// ratchet: long blocks, thirty and a hundred and twenty loops to common
/// across, three branch-defined scalars to propagate.
#[test]
fn many_loops_agree() {
    let mut cov = Coverage::default();
    for loops in [30, 120] {
        for (level, options) in option_sets() {
            let what = format!("{loops} loops at {level}");
            run_pipeline(&many_loops_source(0, loops), &options, &what, &mut cov);
        }
    }
    assert!(
        cov.const_replaced >= 100 && cov.dce_removed >= 100 && cov.commoned >= 100,
        "{} reads, {} statements, {} temps",
        cov.const_replaced,
        cov.dce_removed,
        cov.commoned
    );
}

/// The edges of a definition's window, each in a shape the generators do
/// not promise to produce.
#[test]
fn window_edges_agree() {
    let cases = [
        (
            "a label and a goto inside the window",
            "int f(int a) { int t, u; t = a + 1; u = t; if (a) goto l; u = t + 2; \
             l: u = u + t; goto m; u = t; m: return t + u; }",
        ),
        (
            "nested blocks that do and do not redefine a dep",
            "int f(int a, int c) { int t, r, i; t = a * 3; r = 0; if (c) { r = t; } \
             for (i = 0; i < c; i++) { r = r + t; } if (c) { a = 2; } else { r = t; } \
             r = r + t; return r; }",
        ),
        (
            "a nested block that redefines the target",
            "int f(int a, int c) { int t, r; t = a; r = t; while (c) { t = t + 1; c = c - 1; } \
             return t + r; }",
        ),
        (
            "load-bearing definitions crossing a call, a store and a nested store",
            "int g(int x) { return x + 1; } \
             int f(int *p, int *q, int c) { int t, u, v, w, x; t = *p; u = t + 1; v = g(u); \
             w = *p; x = w + t; *q = x; w = *p; if (c) { *q = 0; } return t + u + v + w + x; }",
        ),
        (
            "a target killed and admitted again",
            "int f(int a, int b) { int t, r; t = a; r = t; a = 0; r = r + t; t = b; r = r + t; \
             t = t + 1; r = r + t; return r; }",
        ),
        (
            "a redefined dep of a target's earlier definition leaves the later one alone",
            "int f(int a, int b) { int t, r; t = a; r = t; t = b; a = 0; r = r + t; return r; }",
        ),
        (
            "a store after a load-bearing target was redefined without loads",
            "int f(int *p, int *q, int a) { int t, r; t = *p; r = t; t = a; *q = 1; r = r + t; \
             return r; }",
        ),
        (
            "the size cap, tested on the substituted right-hand side",
            "int f(int a) { int t, u, v, w; t = a + a + a + a; u = t + t + t; v = u + u + u; \
             w = v + v; return w + v + u + t; }",
        ),
        (
            "a volatile read never moves, its readers still forward",
            "volatile int s; int f(int a) { int t, u; t = s; u = a + 1; return t + u + u; }",
        ),
    ];
    let mut cov = Coverage::default();
    for (what, src) in cases {
        for (level, options) in option_sets() {
            run_pipeline(src, &options, &format!("{what} at {level}"), &mut cov);
        }
    }
    assert!(cov.substituted > 0);
}

/// Shapes the three rewritten passes decide on that the generators do not
/// promise: a read made constant by a *removed edge* rather than a new
/// literal, a NaN literal (equal to nothing, itself included), a self-fed
/// dead counter beside a live one, a commoned subexpression reused inside
/// a larger one, windows ending at a redefinition inside a nested block.
#[test]
fn rewritten_pass_edges_agree() {
    let cases = [
        (
            "a constant-false branch around a goto leaves one reaching def",
            "int f(int a) { int x, c; c = 0; x = 1; if (c) goto l; x = 2; l: return x + a; }",
        ),
        (
            "a constant-true branch makes the fallthrough def unreachable",
            "int f(int a) { int x, c; c = 1; x = 1; if (c) goto l; x = 2; l: return x + a; }",
        ),
        (
            "literals that reach through three rounds, then a zero-trip loop",
            "int f(int *p) { int a, b, c, d, i; a = 2; b = a + 1; c = b * a; d = 0; \
             if (c == 6) d = c - 6; for (i = 0; i < d; i++) p[i] = a; return b + c + d; }",
        ),
        (
            "a NaN literal never agrees, even with itself",
            "float f(void) { float z, n; z = 0.0f; n = z / z; return n + n; }",
        ),
        (
            "two defs of one literal on both arms, a third that differs later",
            "int f(int c) { int x, y; if (c) x = 7; else x = 7; y = x; if (c) x = 8; return x + y; }",
        ),
        (
            "a self-fed dead counter, a live one, and a store that dies in round two",
            "int f(int *p, int n) { int i, w, s, t, u; w = 0; s = 0; for (i = 0; i < n; i++) { \
             w = w + 1; s = s + p[i]; } u = n * 3; t = u + 1; t = 2; return s + t; }",
        ),
        (
            "an if emptied by dce, whose condition was the last read of a store",
            "int f(int a) { int c, t; c = a * 2; if (c) { t = 1; } return a; }",
        ),
        (
            "a commoned subexpression reused inside a larger commoned one",
            "int f(int a, int b) { int x, y, z; x = (a + b) * 2 + 1; y = (a + b) * 2 + 3; \
             z = (a + b) + 9; return x + y + z + (a + b); }",
        ),
        (
            "windows ending at a redefinition, at a barrier and inside a nested block",
            "int g(int x) { return x; } int f(int a, int b, int c) { int x, y, z; \
             x = (a * b + 1) * 2; y = (a * b + 1) * 3; a = g(a); z = (a * b + 1) * 2; \
             while (c) { x = x + (a * b + 1); b = b - 1; y = y + (a * b + 1) * 3; c = c - 1; } \
             return x + y + z + (a * b + 1); }",
        ),
        (
            "a window that ends before a while whose body redefines a dependence",
            "int f(int a, int b, int c) { int x, y; y = 0; x = a + b + 1; if (c) { y = a + b + 1; } \
             while (a + b + 1 < 10) { a = a * 2; } return x + y; }",
        ),
        (
            "loads before a while whose body stores",
            "int f(int *p, int c) { int x, y; y = 0; x = *p + 1; if (c) { y = *p + 1; } \
             while (*p + 1 < 9) { *p = *p + 1; } return x + y; }",
        ),
        (
            "equal float and int shapes that differ only in type or constant",
            "float f(float a, float b, int i, int j) { float x, y; int k, l; x = (a + b) * 2.0f; \
             y = (a + b) * 2.0f; k = (i + j) * 2; l = (i + j) * 3; return x + y + k + l; }",
        ),
    ];
    let mut cov = Coverage::default();
    for (what, src) in cases {
        for (level, options) in option_sets() {
            run_pipeline(src, &options, &format!("{what} at {level}"), &mut cov);
        }
    }
    assert!(cov.const_replaced > 0 && cov.dce_removed > 0 && cov.commoned > 0);
}
