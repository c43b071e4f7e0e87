//! EXP3 (§9): the inlined daxpy walkthrough.
//!
//! Inlining eliminates the aliasing problem; induction-variable
//! substitution, while→DO conversion, constant propagation and dead-code
//! elimination strip the temporaries; the vectorizer emits strip-mined
//! `do parallel` vector statements. "On a two processor Titan, this code
//! executes **12 times faster** than the scalar version of the same
//! routine."

use titanc::Options;
use titanc_bench::harness::{run_experiment, ExpCase};
use titanc_bench::{corpus, daxpy_source, print_table, Row};
use titanc_titan::MachineConfig;

fn main() {
    // show the stage-by-stage walkthrough for the paper's n=100 case
    let c = titanc::compile(
        corpus::DAXPY,
        &titanc::Options {
            snapshots: true,
            ..Options::parallel()
        },
    )
    .expect("compiles");
    println!("== EXP3 stage walkthrough (main after each phase)");
    for snap in &c.snapshots {
        if snap.proc == "main" {
            println!("-- after {} --\n{}", snap.phase, snap.il);
        }
    }

    for n in [100usize, 1024] {
        let src = daxpy_source(n);
        let mut cases = vec![ExpCase::new(Options::o1(), MachineConfig::scalar())];
        for procs in [1u32, 2, 4] {
            cases.push(ExpCase::new(
                Options::parallel(),
                MachineConfig::optimized(procs),
            ));
        }
        let stats = run_experiment(&src, &cases);
        let scalar = &stats[0];
        let mut rows = vec![Row {
            label: format!("scalar (O1), n={n}"),
            value: scalar.cycles,
            note: "cycles".into(),
        }];
        for (par, procs) in stats[1..].iter().zip([1u32, 2, 4]) {
            rows.push(Row {
                label: format!("inline+vector+parallel, {procs} proc(s), n={n}"),
                value: par.cycles,
                note: format!("cycles, speedup {:.2}x", scalar.cycles / par.cycles),
            });
            if procs == 2 && n == 100 {
                let speedup = scalar.cycles / par.cycles;
                assert!(
                    speedup > 6.0,
                    "two-processor speedup should be near the paper's 12x, got {speedup:.2}"
                );
            }
        }
        print_table(
            &format!("EXP3 daxpy, n = {n}"),
            "inlined+vectorized+parallelized daxpy runs 12x faster than scalar on a 2-processor Titan",
            &rows,
        );
    }
    println!("EXP3 ok");
}
