//! Interpreter-vs-VM differential suite.
//!
//! The bytecode VM must be observationally *and* statistically
//! indistinguishable from the reference interpreter: same return value,
//! same printed output, same global memory, and byte-for-byte identical
//! execution statistics (cycle totals included — cycles are `f64`, so
//! even the summation order must match). This suite drives both engines
//! over the experiment corpora at every optimization level, the largest
//! generated program, the volatile poll loop and the error paths;
//! generated programs at large run every build under both engines in the
//! `observe` check of `titanc_bench::sweep` (`tests/sweep.rs`,
//! `stress --check observe`).

use titanc::Options;
use titanc_bench::{backsolve_source, copy_source, corpus, daxpy_source, progen};
use titanc_titan::{ExecEngine, MachineConfig, Simulator};

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
        ("exp8 struct_matrix8", corpus::STRUCT_MATRIX8.to_string()),
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
            let what = format!("{name} @ {cname}");
            let trap = assert_same_outcome(src, options, machine, &what);
            assert_eq!(trap, None, "{what}");
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

/// Both engines trap identically: same message, same statistics at the
/// trap, for out-of-bounds access and for the step limit.
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
        let cfg = MachineConfig {
            max_steps: *max_steps,
            ..MachineConfig::default()
        };
        let trap = assert_same_outcome(src, &Options::o2(), &cfg, name);
        assert!(trap.is_some(), "{name}: both engines must trap");
    }
}

/// Runs `main` on both engines and asserts they agree on the outcome —
/// value and output, or the trap's text — *and* on the statistics the
/// simulator holds at that point, so a trap that fires one counter early
/// or late shows. Returns the trap message, if the run trapped.
fn assert_same_outcome(
    src: &str,
    options: &Options,
    cfg: &MachineConfig,
    what: &str,
) -> Option<String> {
    let c = titanc::compile(src, options).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut interp = Simulator::with_engine(&c.program, cfg.clone(), ExecEngine::Interp);
    let ri = interp.run("main", &[]);
    let mut vm = Simulator::with_engine(&c.program, cfg.clone(), ExecEngine::Vm);
    let rv = vm.run("main", &[]);
    assert_eq!(interp.stats(), vm.stats(), "{what}: statistics divergence");
    match (ri, rv) {
        (Ok(i), Ok(v)) => {
            assert_eq!(i.value, v.value, "{what}: value divergence");
            None
        }
        (Err(i), Err(v)) => {
            assert_eq!(i, v, "{what}: engines disagree on the trap");
            Some(i.message)
        }
        (i, v) => {
            panic!("{what}: one engine trapped, the other did not\n  interp: {i:?}\n  vm: {v:?}")
        }
    }
}

/// One case per fused form of the bytecode lowering, its trap path
/// included: the fused instruction must raise the interpreter's error at
/// the interpreter's point in the statistics.
#[test]
fn fused_forms_parity() {
    let cfg = MachineConfig::default();
    let cases: &[(&str, &str, Option<&str>)] = &[
        (
            "compare-and-branch",
            "int main(void) { int i, s; s = 0; for (i = 0; i < 9; i++) if (i & 1) s += i; while (s > 3) s -= 3; return s; }",
            None,
        ),
        (
            "compare-and-branch traps on its own operator",
            "int main(void) { int a, z; a = 7; z = 0; if (a / z) return 1; return 2; }",
            Some("division by zero"),
        ),
        (
            "loop condition traps on its own operator",
            "int main(void) { int a, z, n; a = 7; z = 3; n = 0; while (a / z) { z--; n++; } return n; }",
            Some("division by zero"),
        ),
        (
            "operator writes a register variable",
            "int main(void) { int a; float f; char c; a = 300; c = a + 1; f = a * 0.5f; a = f + c; return a; }",
            None,
        ),
        (
            "operator writing a register variable traps",
            "int main(void) { int a, z, x; a = 7; z = 0; x = a / z; return x; }",
            Some("division by zero"),
        ),
        (
            "load writing a register variable traps",
            "int main(void) { int *p; int x; p = (int *)0; p = p - 1; x = *p; return x; }",
            Some("memory access out of range"),
        ),
        (
            "constant operands",
            "float g; int main(void) { int a; a = 5; a = a * 3 + 2; g = 0.25f; g = g * 8.0f + 1.0f; return a + (int)g; }",
            None,
        ),
        (
            "load-op-store",
            "int v[4]; int main(void) { int *p; p = &v[2]; *p = 40; *p = *p + 2; *p = *p * 3; return *p; }",
            None,
        ),
        (
            "load-op-store divides by zero",
            "int v[4]; int main(void) { int *p; int z; p = &v[2]; z = 0; *p = 9; *p = *p / z; return *p; }",
            Some("division by zero"),
        ),
        (
            "load-op-store through a wild pointer",
            "int main(void) { int *p; p = (int *)0; p = p - 1; *p = *p + 1; return 0; }",
            Some("memory access out of range"),
        ),
        (
            "frame template: recursion, statics, a parameter in memory",
            "int tick(void) { static int n = 3; n++; return n; }\n\
             void bump(int *p) { *p += tick(); }\n\
             int down(int d, int x) { int y; y = x; if (d <= 0) return y; bump(&y); return down(d - 1, y) + 1; }\n\
             int main(void) { return down(5, 1) + tick(); }",
            None,
        ),
        (
            "frame template: a call that cannot be entered",
            "int r(int n) { return r(n + 1); } int main(void) { return r(0); }",
            Some("call depth exceeded"),
        ),
    ];
    // the interpreter recurses once per simulated frame; the depth-limit
    // case needs a roomier stack than a debug test thread has
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            for (name, src, trap) in cases {
                for options in [Options::o0(), Options::o2()] {
                    let got = assert_same_outcome(src, &options, &cfg, name);
                    match (trap, &got) {
                        (None, None) => {}
                        (Some(want), Some(msg)) if msg.contains(want) => {}
                        _ => panic!("{name}: expected trap {trap:?}, got {got:?}"),
                    }
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// A statement's step rides on its first instruction: wherever the step
/// limit lands — on a fused branch, a loop trip test, a call, a statement
/// that lowers to nothing — both engines stop at the same statement with
/// the same counters.
#[test]
fn step_limit_lands_identically_on_every_statement() {
    let src = "int acc[4];\n\
        int f(int x) { if (x & 1) return x + 1; return x; }\n\
        int main(void) {\n\
            int i, s;\n\
            s = 0;\n\
            for (i = 0; i < 4; i++) { ; s += f(i); acc[i] = s; }\n\
        again:\n\
            s--;\n\
            if (s > 0) goto again;\n\
            return s;\n\
        }";
    for options in [Options::o0(), Options::o2()] {
        let mut trapped = 0;
        for max_steps in 1..120 {
            let cfg = MachineConfig {
                max_steps,
                ..MachineConfig::default()
            };
            let what = format!("step limit {max_steps}");
            if let Some(msg) = assert_same_outcome(src, &options, &cfg, &what) {
                assert!(msg.contains("step limit exceeded"), "{what}: {msg}");
                trapped += 1;
            }
        }
        assert!(trapped > 20, "the sweep must cross the program's length");
    }
}

/// The largest program in the first 400 seeds of the stress generator's
/// seed space (about 14k simulated statements): the engines must agree on
/// a long run, where one misordered `f64` cycle charge has room to show.
#[test]
fn largest_stress_program_parity() {
    let src = progen::program(&mut progen::Rng::new(0x5EED_0001));
    let machine = MachineConfig::optimized(2);
    let trap = assert_same_outcome(&src, &Options::o2(), &machine, "progen 0x5EED0001");
    assert_eq!(trap, None);
}
