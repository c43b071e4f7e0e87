//! Differential test: the available-definitions sweep in
//! `titanc_opt::forward` against the quadratic rescan it replaced
//! (`crates/opt/src/forward_reference.rs`, compiled only into tests).
//!
//! For every file under `corpus/` under the five option sets of
//! `wire_roundtrip.rs`, for 240 progen programs, and for hand-written
//! window edges, each procedure is taken through the scalar and vector
//! passes in pipeline order; at both places the pipeline runs `forward`,
//! reference and sweep start from the same IL and must leave the same
//! printed procedure, the same substitution count and the same
//! generation. The run continues from the sweep's output, so the second
//! comparison sees what the real pipeline would.

#[path = "../../opt/src/forward_reference.rs"]
mod forward_reference;

use titanc::{compile, OptLevel, Options, VectorOptions};
use titanc_analysis::ProcAnalyses;
use titanc_bench::progen::{self, Rng};
use titanc_il::{pretty_proc, Procedure};

/// What the comparisons of one test covered.
#[derive(Default)]
struct Coverage {
    comparisons: usize,
    substituted: usize,
}

fn assert_forward_agrees(proc: &mut Procedure, what: &str, cov: &mut Coverage) {
    let mut want = proc.clone();
    let want_n = forward_reference::forward_substitute(&mut want);
    let got_n = titanc_opt::forward_substitute(proc).substituted;
    assert_eq!(
        pretty_proc(proc),
        pretty_proc(&want),
        "{what}: the sweep and the reference print different IL"
    );
    assert_eq!(got_n, want_n, "{what}: ForwardReport::substituted");
    assert_eq!(proc.generation(), want.generation(), "{what}: generation");
    cov.comparisons += 1;
    cov.substituted += got_n;
}

/// The per-procedure passes of `Pipeline::for_options`, in its order, with
/// `forward` replaced by the comparison.
fn run_pipeline(src: &str, options: &Options, what: &str, cov: &mut Coverage) {
    if options.opt == OptLevel::O0 {
        return; // forward never runs
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
        titanc_opt::constant_propagation_cached(proc, &mut analyses);
        titanc_opt::eliminate_dead_code_cached(proc, &mut analyses);
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
            max_vl: options.max_vl,
        };
        titanc_vector::vectorize(proc, &vopts);
        titanc_vector::strength_reduce(proc, options.aliasing);
        assert_forward_agrees(proc, &format!("{what}, cleanup round"), cov);
    }
}

/// The option sets of `wire_roundtrip.rs`.
fn option_sets() -> Vec<(&'static str, Options)> {
    let mut parallel = Options::o2();
    parallel.parallelize = true;
    parallel.spread_lists = true;
    let mut no_inline = Options::o2();
    no_inline.inline = false;
    vec![
        ("O0", Options::o0()),
        ("O1", Options::o1()),
        ("O2", Options::o2()),
        ("O2 parallel", parallel),
        ("O2 no-inline", no_inline),
    ]
}

#[test]
fn corpus_agrees_under_every_option_set() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut cov = Coverage::default();
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("corpus/") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_none_or(|x| x != "c") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("corpus file reads");
        for (level, options) in option_sets() {
            let what = format!("{} at {level}", path.display());
            run_pipeline(&src, &options, &what, &mut cov);
        }
        seen += 1;
    }
    assert!(seen >= 7, "only {seen} corpus files found");
    assert!(
        cov.comparisons >= 50 && cov.substituted >= 100,
        "the corpus stopped exercising forward: {} comparisons, {} substitutions",
        cov.comparisons,
        cov.substituted
    );
}

#[test]
fn progen_programs_agree() {
    let sets = option_sets();
    let mut cov = Coverage::default();
    for seed in 1..=240u64 {
        let src = progen::program(&mut Rng::new(seed));
        // every program at O2 and at one other level, rotating
        for (level, options) in [&sets[2], &sets[seed as usize % sets.len()]] {
            run_pipeline(&src, options, &format!("seed {seed} at {level}"), &mut cov);
        }
    }
    assert!(
        cov.comparisons >= 480 && cov.substituted >= 1000,
        "progen stopped exercising forward: {} comparisons, {} substitutions",
        cov.comparisons,
        cov.substituted
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
