//! EXP8 (§10): arrays embedded within structures.
//!
//! "We originally did not put much effort into handling this kind of
//! construct … Given the prevalence with which this appears within
//! graphics code, our decision was poor." The post-Doré compiler handles
//! struct-embedded arrays; this experiment compiles the 4×4 transform
//! kernel, checks that the inner product loops are analyzed, and measures
//! the gain.

use titanc::Options;
use titanc_bench::harness::{run_experiment, ExpCase};
use titanc_bench::{corpus, print_table, Row};
use titanc_titan::MachineConfig;

fn main() {
    let c = titanc::compile(corpus::STRUCT_MATRIX, &Options::o2()).expect("compiles");
    println!(
        "while->DO conversions: {}, IVs substituted: {}",
        c.reports.whiledo.converted, c.reports.ivsub.substituted
    );
    assert!(
        c.reports.whiledo.converted >= 3,
        "all three nest levels convert"
    );

    let stats = run_experiment(
        corpus::STRUCT_MATRIX,
        &[
            ExpCase::new(Options::o1(), MachineConfig::scalar()),
            ExpCase::new(Options::o2(), MachineConfig::optimized(1)),
        ],
    );
    let [scalar, opt] = &stats[..] else {
        unreachable!("two cases")
    };
    print_table(
        "EXP8 struct-embedded arrays (the Doré lesson, §10)",
        "graphics 4x4 transforms with arrays inside structs are analyzed and optimized",
        &[
            Row {
                label: "scalar only (O1)".into(),
                value: scalar.cycles,
                note: "cycles".into(),
            },
            Row {
                label: "optimized (O2)".into(),
                value: opt.cycles,
                note: format!("cycles, speedup {:.2}x", scalar.cycles / opt.cycles),
            },
        ],
    );
    assert!(
        opt.cycles < scalar.cycles,
        "optimization helps the transform"
    );
    println!("EXP8 ok");
}
