//! EXP7 (§2 item 3, §6 item 2): low-level parallelism.
//!
//! "Changing the instruction order so that integer and floating point
//! instructions overlap and so that memory access and computation overlap
//! can provide a significant speedup." The dependence graph licenses the
//! scheduler to overlap; the simulator models overlap as the max of the
//! three unit streams per straight-line region. This experiment measures
//! the backsolve and daxpy kernels with scheduling overlap on and off, at
//! identical optimization levels.

use titanc::Options;
use titanc_bench::harness::{run_experiment, ExpCase};
use titanc_bench::{backsolve_source, daxpy_source, print_table, Row};
use titanc_titan::MachineConfig;

fn main() {
    let mut rows = Vec::new();
    for (name, src) in [
        ("backsolve n=1024", backsolve_source(1024)),
        ("daxpy n=1024 (scalar compile)", daxpy_source(1024)),
    ] {
        let stats = run_experiment(
            &src,
            &[
                ExpCase::new(Options::o2_scalar_only(), MachineConfig::scalar()),
                ExpCase::new(
                    Options::o2_scalar_only(),
                    MachineConfig {
                        overlap: true,
                        ..MachineConfig::scalar()
                    },
                ),
            ],
        );
        let [off, on] = &stats[..] else {
            unreachable!("two cases")
        };
        rows.push(Row {
            label: format!("{name}: overlap off"),
            value: off.cycles,
            note: "cycles".into(),
        });
        rows.push(Row {
            label: format!("{name}: overlap on"),
            value: on.cycles,
            note: format!("cycles, speedup {:.2}x", off.cycles / on.cycles),
        });
        assert!(on.cycles < off.cycles, "overlap always helps these kernels");
    }
    print_table(
        "EXP7 integer/FP/memory overlap (§6 instruction scheduling)",
        "dependence information lets the scheduler completely overlap integer and FP work",
        &rows,
    );
    println!("EXP7 ok");
}

/// Helper: O2 pipeline but with vectorization disabled so both runs
/// execute the same scalar code and only the machine model differs.
trait ScalarOnly {
    fn o2_scalar_only() -> Options;
}
impl ScalarOnly for Options {
    fn o2_scalar_only() -> Options {
        Options::o1()
    }
}
