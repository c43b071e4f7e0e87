//! Integration tests over the paper's own examples (the corpus), spanning
//! every crate: front end → inliner → scalar optimizer → dependence
//! analysis → vectorizer → Titan simulator.

use titanc_repro::il::{LoopDecision, ScalarType};
use titanc_repro::titan::{observe, MachineConfig, Simulator, CLOCK_MHZ};
use titanc_repro::titanc::{compile, Count, Options};

const DAXPY: &str = include_str!("../corpus/daxpy.c");
const BACKSOLVE: &str = include_str!("../corpus/backsolve.c");
const COPY: &str = include_str!("../corpus/copy.c");
const STRUCT_MATRIX: &str = include_str!("../corpus/struct_matrix.c");
const BLASLIB: &str = include_str!("../corpus/blaslib.c");

fn equivalence(src: &str, globals: &[(&str, ScalarType, u32)]) {
    let base = compile(src, &Options::o0()).expect("O0");
    let (expect, _) =
        observe(&base.program, MachineConfig::default(), "main", globals).expect("O0 runs");
    for (name, opts, procs) in [
        ("O1", Options::o1(), 1u32),
        ("O2", Options::o2(), 1),
        ("parallel-2", Options::parallel(), 2),
        ("parallel-4", Options::parallel(), 4),
    ] {
        let c = compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (got, _) = observe(&c.program, MachineConfig::optimized(procs), "main", globals)
            .unwrap_or_else(|e| panic!("{name} run: {e}"));
        assert_eq!(expect, got, "{name} diverged");
    }
}

#[test]
fn daxpy_all_levels_agree() {
    equivalence(DAXPY, &[("a", ScalarType::Float, 100)]);
}

#[test]
fn daxpy_reaches_twelve_x_on_two_processors() {
    let scalar = compile(DAXPY, &Options::o1()).unwrap();
    let mut sim = Simulator::new(&scalar.program, MachineConfig::scalar());
    let s = sim.run("main", &[]).unwrap().stats;

    let par = compile(DAXPY, &Options::parallel()).unwrap();
    assert!(par.reports.count("expanded") >= 1);
    assert!(par.reports.count("vectorized") >= 1);
    let mut sim = Simulator::new(&par.program, MachineConfig::optimized(2));
    let p = sim.run("main", &[]).unwrap().stats;

    let speedup = s.cycles / p.cycles;
    assert!(
        (8.0..20.0).contains(&speedup),
        "paper claims 12x on two processors; measured {speedup:.2}x"
    );
}

#[test]
fn backsolve_all_levels_agree() {
    equivalence(BACKSOLVE, &[("x", ScalarType::Float, 200)]);
}

#[test]
fn backsolve_mflops_shape() {
    // paper: 0.5 MFLOPS scalar-only, 1.9 MFLOPS dependence-driven
    let scalar = compile(BACKSOLVE, &Options::o1()).unwrap();
    let mut sim = Simulator::new(&scalar.program, MachineConfig::scalar());
    let s = sim.run("main", &[]).unwrap().stats;
    let m_scalar = s.mflops(CLOCK_MHZ);

    let opt = compile(BACKSOLVE, &Options::o2()).unwrap();
    assert!(
        opt.reports.get(Count::StrengthPromoted) >= 1,
        "{:?}",
        opt.reports
    );
    assert_eq!(
        opt.reports.count("vectorized"),
        0,
        "recurrence must stay scalar"
    );
    let mut sim = Simulator::new(&opt.program, MachineConfig::optimized(1));
    let o = sim.run("main", &[]).unwrap().stats;
    let m_opt = o.mflops(CLOCK_MHZ);

    assert!(
        (0.2..0.8).contains(&m_scalar),
        "scalar baseline near the paper's 0.5 MFLOPS, got {m_scalar:.2}"
    );
    assert!(
        (1.5..3.5).contains(&m_opt),
        "optimized near the paper's 1.9 MFLOPS, got {m_opt:.2}"
    );
}

#[test]
fn copy_all_levels_agree_and_vectorize() {
    equivalence(COPY, &[("dst", ScalarType::Float, 128)]);
    let c = compile(COPY, &Options::o2()).unwrap();
    assert!(c.reports.count("vectorized") >= 1);
    assert!(
        LoopDecision::ivs_substituted(&c.reports.loops) >= 3,
        "{:?}",
        c.reports.loops
    );
}

#[test]
fn struct_matrix_all_levels_agree() {
    equivalence(STRUCT_MATRIX, &[("out_pts", ScalarType::Float, 64)]);
}

#[test]
fn blaslib_compiles_standalone() {
    // the library alone has no main; all four routines survive O2
    let c = compile(BLASLIB, &Options::o2()).unwrap();
    assert_eq!(c.program.procs.len(), 4);
    for p in &c.program.procs {
        assert!(!p.is_empty(), "{} not emptied by optimization", p.name);
    }
}

#[test]
fn pragma_safe_copy_emits_sections() {
    let c = compile(COPY, &Options::o2()).unwrap();
    let main = c.program.proc_by_name("main").unwrap();
    let text = titanc_repro::il::pretty_proc(main);
    assert!(
        text.contains("(float)["),
        "triplet sections emitted:\n{text}"
    );
}

#[test]
fn daxpy_without_inlining_stays_scalar_under_c_aliasing() {
    // without inlining, x/y/z are pointer parameters that may alias: the
    // paper's central motivation for inline expansion
    let opts = Options {
        inline: false,
        ..Options::o2()
    };
    let c = compile(DAXPY, &opts).unwrap();
    assert_eq!(
        c.reports.count("vectorized"),
        0,
        "daxpy body must not vectorize under C aliasing without inlining"
    );
    // but with the Fortran-parameter-semantics option it does (§9)
    let opts = Options {
        inline: false,
        aliasing: titanc_repro::titanc::Aliasing::Fortran,
        ..Options::o2()
    };
    let c = compile(DAXPY, &opts).unwrap();
    assert!(c.reports.count("vectorized") >= 1);
}

#[test]
fn reports_accumulate_sensibly() {
    let c = compile(DAXPY, &Options::parallel()).unwrap();
    assert!(c.reports.count("do_converted") >= 1);
    assert!(c.reports.get(Count::ForwardSubstituted) > 0);
    // forward substitution may propagate the constants first; branch
    // folding still credits constprop
    let constprop =
        c.reports.get(Count::ConstpropReplaced) + c.reports.get(Count::ConstpropRemoved);
    assert!(constprop > 0);
    assert!(c.reports.get(Count::DceRemoved) > 0);
}
