//! EXP2 (§6): the backsolve loop.
//!
//! `p[i] = z[i] * (y[i] - q[i])` with `p = &x[1], q = &x[0]` carries a
//! distance-1 flow dependence, so it can never vectorize — but the
//! dependence graph drives register promotion, instruction-scheduling
//! overlap and strength reduction. The paper measures **0.5 MFLOPS with
//! scalar optimization only and 1.9 MFLOPS with the dependence-driven
//! optimizations** (within 5% of the best possible code for the loop).

use titanc::Options;
use titanc_bench::harness::{run_experiment, ExpCase};
use titanc_bench::{backsolve_source, mflops, print_table, Row};
use titanc_titan::MachineConfig;

fn main() {
    for n in [100usize, 1024] {
        let src = backsolve_source(n);
        let stats = run_experiment(
            &src,
            &[
                // the paper's baseline: scalar optimization only, no
                // dependence information for the scheduler (no overlap)
                ExpCase::new(Options::o1(), MachineConfig::scalar()),
                // dependence-driven: register promotion + strength
                // reduction + scheduling overlap
                ExpCase::new(Options::o2(), MachineConfig::optimized(1)),
            ],
        );
        let [scalar, optimized] = &stats[..] else {
            unreachable!("two cases")
        };
        let m_scalar = mflops(scalar);
        let m_opt = mflops(optimized);
        print_table(
            &format!("EXP2 backsolve, n = {n}"),
            "0.5 MFLOPS scalar-only -> 1.9 MFLOPS with dependence-driven optimization (~3.8x)",
            &[
                Row {
                    label: "scalar only (O1, no overlap)".into(),
                    value: m_scalar,
                    note: format!("MFLOPS ({:.0} cycles)", scalar.cycles),
                },
                Row {
                    label: "dependence-driven (O2, overlap)".into(),
                    value: m_opt,
                    note: format!(
                        "MFLOPS ({:.0} cycles), speedup {:.2}x",
                        optimized.cycles,
                        scalar.cycles / optimized.cycles
                    ),
                },
            ],
        );
        assert!(
            m_scalar < 1.0,
            "scalar baseline should be well under 1 MFLOPS"
        );
        assert!(m_opt > 2.0 * m_scalar, "dependence-driven wins clearly");
        assert_eq!(optimized.vector_instrs, 0, "the loop must stay scalar");
    }
    println!("EXP2 ok");
}
