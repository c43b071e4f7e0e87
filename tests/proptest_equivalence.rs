//! Property-based differential testing: random C programs must behave
//! identically at every optimization level.
//!
//! The programs come from the stress harness's generator
//! (`titanc_bench::progen`): assignments, arithmetic, branches, bounded
//! counted loops, a helper call and array stores over `int` scalars;
//! observable state is the return value plus the contents of the output
//! arrays. The Titan simulator is the semantic referee. The generator is a
//! fixed-seed xorshift, so every run checks the same cases
//! (`TITANC_FUZZ_CASES` turns the dial).

use titanc_bench::progen::{program, Rng, OUT_LEN};
use titanc_repro::il::ScalarType;
use titanc_repro::titan::MachineConfig;
use titanc_repro::titanc::{compile, Options};

fn observe(src: &str, opts: &Options, machine: MachineConfig) -> titanc_repro::titan::Observation {
    let compiled = compile(src, opts).expect("generated program compiles");
    titanc_repro::titan::observe(
        &compiled.program,
        machine,
        "main",
        &[
            ("out_g", ScalarType::Int, OUT_LEN as u32),
            ("out_f", ScalarType::Float, OUT_LEN as u32),
        ],
    )
    .unwrap_or_else(|e| {
        panic!(
            "run failed: {e}\nsource:\n{src}\nIL:\n{}",
            titanc_repro::il::pretty_proc(compiled.program.proc_by_name("main").unwrap())
        )
    })
    .0
}

fn fuzz_cases() -> u32 {
    // differential cases are expensive (4 compiles + 4 simulator runs
    // each); default modestly and let CI turn the dial
    std::env::var("TITANC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// O1, O2 and O2-parallel agree with the unoptimized program.
#[test]
fn optimization_levels_agree() {
    let mut rng = Rng::new(0xD1FF);
    for _ in 0..fuzz_cases() {
        let src = program(&mut rng);
        let base = observe(&src, &Options::o0(), MachineConfig::default());
        let o1 = observe(&src, &Options::o1(), MachineConfig::default());
        assert_eq!(base, o1, "O1 diverged on:\n{src}");
        let o2 = observe(&src, &Options::o2(), MachineConfig::optimized(1));
        assert_eq!(base, o2, "O2 diverged on:\n{src}");
        let par = observe(&src, &Options::parallel(), MachineConfig::optimized(4));
        assert_eq!(base, par, "O2-parallel diverged on:\n{src}");
    }
}

/// The parser round-trips through the lowering pipeline without
/// crashing for every generated program (fuzz smoke).
#[test]
fn front_end_total() {
    let mut rng = Rng::new(0xF207);
    for _ in 0..fuzz_cases() {
        let src = program(&mut rng);
        let tu = titanc_cfront::parse(&src).expect("parses");
        let prog = titanc_lower::lower(&tu).expect("lowers");
        assert!(!prog.is_empty(), "empty lowering for:\n{src}");
    }
}
