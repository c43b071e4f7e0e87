//! Interpreter-vs-VM differential suite.
//!
//! The bytecode VM must be observationally *and* statistically
//! indistinguishable from the reference interpreter: same return value,
//! same printed output, same global memory, and byte-for-byte identical
//! execution statistics (cycle totals included — cycles are `f64`, so
//! even the summation order must match). This suite drives both engines
//! over the experiment corpora at every optimization level and over a
//! progen fuzz corpus, plus the volatile poll loop and the error paths.

use titanc::Options;
use titanc_bench::{backsolve_source, copy_source, corpus, daxpy_source, progen};
use titanc_il::ScalarType;
use titanc_titan::{observe_with, ExecEngine, MachineConfig, Simulator};

/// Runs `main` under both engines and asserts identical observations and
/// identical statistics; returns nothing of interest — the asserts are
/// the test.
fn assert_parity(src: &str, options: &Options, machine: MachineConfig, what: &str) {
    let compiled = titanc::compile(src, options).unwrap_or_else(|e| panic!("{what}: {e}"));
    let interp = observe_with(
        &compiled.program,
        machine.clone(),
        ExecEngine::Interp,
        "main",
        &[],
    )
    .unwrap_or_else(|e| panic!("{what} [interp]: {e}"));
    let vm = observe_with(&compiled.program, machine, ExecEngine::Vm, "main", &[])
        .unwrap_or_else(|e| panic!("{what} [vm]: {e}"));
    assert_eq!(interp.0, vm.0, "{what}: observation divergence");
    assert_eq!(interp.1, vm.1, "{what}: statistics divergence");
}

/// Every experiment corpus at every shipped pipeline, on the machines the
/// EXP tables use — the rows of `EXPERIMENTS.md` regenerate identically
/// under either engine.
#[test]
fn experiment_corpora_parity() {
    let sources: Vec<(&str, String)> = vec![
        ("exp1 copy n=100", copy_source(100)),
        ("exp1 copy n=1024", copy_source(1024)),
        ("exp2 backsolve n=100", backsolve_source(100)),
        ("exp2 backsolve n=1024", backsolve_source(1024)),
        ("exp3 daxpy n=100", daxpy_source(100)),
        ("exp3 daxpy n=1024", daxpy_source(1024)),
        ("exp3/9 daxpy corpus", corpus::DAXPY.to_string()),
        ("exp8 struct_matrix", corpus::STRUCT_MATRIX.to_string()),
        ("exp11 listwalk", corpus::LISTWALK.to_string()),
    ];
    let spread = Options {
        spread_lists: true,
        ..Options::parallel()
    };
    let configs: Vec<(&str, Options, MachineConfig)> = vec![
        ("O0 scalar", Options::o0(), MachineConfig::scalar()),
        ("O1 scalar", Options::o1(), MachineConfig::scalar()),
        ("O2 1p", Options::o2(), MachineConfig::optimized(1)),
        ("par 2p", Options::parallel(), MachineConfig::optimized(2)),
        ("par 4p", Options::parallel(), MachineConfig::optimized(4)),
        ("spread 4p", spread, MachineConfig::optimized(4)),
    ];
    for (name, src) in &sources {
        for (cname, options, machine) in &configs {
            assert_parity(src, options, machine.clone(), &format!("{name} @ {cname}"));
        }
    }
}

/// The EXP10 poll loop: the VM must re-read the volatile device register
/// every iteration, consuming the script exactly like the interpreter.
#[test]
fn volatile_poll_loop_parity() {
    for opts in [Options::o0(), Options::o1(), Options::o2()] {
        let c = titanc::compile(corpus::VOLATILE_POLL, &opts).expect("compiles");
        let mut results = Vec::new();
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let mut sim = Simulator::with_engine(&c.program, MachineConfig::default(), engine);
            sim.push_volatile_values(&[0, 0, 0, 7]);
            let r = sim.run("main", &[]).expect("terminates via device write");
            assert_eq!(r.value.unwrap().as_int(), 7, "[{engine}]");
            assert!(r.stats.loads >= 4, "[{engine}] every iteration re-reads");
            results.push(r.stats);
        }
        assert_eq!(results[0], results[1], "volatile statistics divergence");
    }
}

/// Both engines trap identically: same message for out-of-bounds access
/// and for the step limit.
#[test]
fn trap_parity() {
    let cases: &[(&str, &str, u64)] = &[
        (
            "oob",
            "int main(void) { int *p; p = (int *)0; return *p; }",
            200_000_000,
        ),
        (
            "oob high",
            "int main(void) { int *p; p = (int *)0x7fffffff; return *p; }",
            200_000_000,
        ),
        (
            "step limit",
            "int main(void) { for (;;); return 0; }",
            5_000,
        ),
    ];
    for (name, src, max_steps) in cases {
        let c = titanc::compile(src, &Options::o2()).expect("compiles");
        let cfg = MachineConfig {
            max_steps: *max_steps,
            ..MachineConfig::default()
        };
        let e1 = Simulator::with_engine(&c.program, cfg.clone(), ExecEngine::Interp)
            .run("main", &[])
            .expect_err("interp traps");
        let e2 = Simulator::with_engine(&c.program, cfg, ExecEngine::Vm)
            .run("main", &[])
            .expect_err("vm traps");
        assert_eq!(e1, e2, "{name}: engines disagree on the trap");
    }
}

/// The largest program in the first 400 seeds of the stress generator's
/// seed space (about 14k simulated statements): the engines must agree on
/// a long run, where one misordered `f64` cycle charge has room to show.
#[test]
fn largest_stress_program_parity() {
    let src = progen::program(&mut progen::Rng::new(0x5EED_0001));
    let machine = MachineConfig::optimized(2);
    assert_parity(&src, &Options::o2(), machine, "progen 0x5EED0001");
}

/// 500 progen programs at `-O2`, both engines, full observation and
/// statistics equality — the broad random sweep behind the stress
/// harness's `--engine both` default.
#[test]
fn progen_corpus_parity() {
    let out_globals: &[(&str, ScalarType, u32)] = &[
        ("out_g", ScalarType::Int, progen::OUT_LEN as u32),
        ("out_f", ScalarType::Float, progen::OUT_LEN as u32),
    ];
    let mut checked = 0u32;
    for seed in 0..500u64 {
        let mut rng = progen::Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
        let src = progen::program(&mut rng);
        let compiled = titanc::compile(&src, &Options::o2())
            .unwrap_or_else(|e| panic!("seed {seed}: front end rejected progen output: {e}"));
        let machine = MachineConfig::optimized(2);
        let interp = observe_with(
            &compiled.program,
            machine.clone(),
            ExecEngine::Interp,
            "main",
            out_globals,
        );
        let vm = observe_with(
            &compiled.program,
            machine,
            ExecEngine::Vm,
            "main",
            out_globals,
        );
        match (interp, vm) {
            (Ok(i), Ok(v)) => {
                assert_eq!(i.0, v.0, "seed {seed}: observation divergence\n{src}");
                assert_eq!(i.1, v.1, "seed {seed}: statistics divergence\n{src}");
                checked += 1;
            }
            (Err(ei), Err(ev)) => {
                assert_eq!(ei, ev, "seed {seed}: engines disagree on the error\n{src}");
                checked += 1;
            }
            (i, v) => panic!(
                "seed {seed}: one engine trapped, the other did not\n  \
                 interp: {i:?}\n  vm: {v:?}\n{src}"
            ),
        }
    }
    assert_eq!(checked, 500, "every seed must be checked");
}
