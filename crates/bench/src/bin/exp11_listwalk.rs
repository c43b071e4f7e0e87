//! EXP11 (§10 future work): spreading linked-list loops.
//!
//! "First, we plan to enhance the parallelization to include list and
//! graph structures … Parallelizing this type of code will enable a wider
//! range of programs to utilize the multiple processors in the Titan."
//! This experiment implements that plan: the pointer chase serializes,
//! the per-node work distributes.

use titanc::Options;
use titanc_bench::harness::{run_experiment, ExpCase};
use titanc_bench::{corpus, print_table, Row};
use titanc_titan::MachineConfig;

fn main() {
    let plain = Options::parallel();
    let spread = Options {
        spread_lists: true,
        ..Options::parallel()
    };
    let c = titanc::compile(corpus::LISTWALK, &spread).expect("compiles");
    // the walk appears twice: in `work` and inlined into `main`
    assert!(c.reports.spread.spread >= 1, "{:?}", c.reports.spread);

    let mut cases = vec![ExpCase::new(plain, MachineConfig::optimized(1))];
    for procs in [1u32, 2, 4] {
        cases.push(ExpCase::new(
            spread.clone(),
            MachineConfig::optimized(procs),
        ));
    }
    let stats = run_experiment(corpus::LISTWALK, &cases);
    let base = &stats[0];
    let mut rows = vec![Row {
        label: "list walk, no spreading".into(),
        value: base.cycles,
        note: "cycles".into(),
    }];
    for (s, procs) in stats[1..].iter().zip([1u32, 2, 4]) {
        rows.push(Row {
            label: format!("spread across {procs} proc(s)"),
            value: s.cycles,
            note: format!("cycles, speedup {:.2}x", base.cycles / s.cycles),
        });
        if procs == 4 {
            assert!(
                base.cycles / s.cycles > 1.5,
                "spreading must pay off on 4 processors"
            );
        }
    }
    print_table(
        "EXP11 linked-list loop spreading (§10 future work)",
        "list loops cannot vectorize but spread across processors with a serialized chase",
        &rows,
    );
    println!("EXP11 ok");
}
