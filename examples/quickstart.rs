//! Quickstart: compile a C kernel with full optimization and run it on the
//! simulated Titan.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use titanc_repro::il::LoopDecision;
use titanc_repro::titan::{MachineConfig, Simulator, CLOCK_MHZ};
use titanc_repro::titanc::{compile, Options};

const SRC: &str = r#"
float a[1000], b[1000], c[1000];

int main(void)
{
    int i;
    for (i = 0; i < 1000; i++) {
        a[i] = b[i] * 2.0f + c[i];
    }
    print_float(a[999]);
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Compile with vectorization + parallelization (the paper's full
    // pipeline: §5 conversion & substitution, §8 propagation, §5/§9
    // vectorizer).
    let compiled = compile(SRC, &Options::parallel())?;
    println!(
        "loops vectorized: {}, while loops converted: {}, induction variables substituted: {}",
        compiled.reports.count("vectorized"),
        compiled.reports.count("do_converted"),
        LoopDecision::ivs_substituted(&compiled.reports.ivsub.events),
    );
    println!(
        "optimized main:\n{}",
        titanc_repro::il::pretty_proc(compiled.program.proc_by_name("main").unwrap())
    );

    // Run on a two-processor Titan and on the scalar baseline.
    for procs in [1u32, 2] {
        let mut sim = Simulator::new(&compiled.program, MachineConfig::optimized(procs));
        let run = sim.run("main", &[])?;
        println!(
            "{procs} processor(s): {:.0} cycles, {:.2} MFLOPS, output {:?}",
            run.stats.cycles,
            run.stats.mflops(CLOCK_MHZ),
            run.stats.output
        );
    }

    let baseline = compile(SRC, &Options::o1())?;
    let mut sim = Simulator::new(&baseline.program, MachineConfig::scalar());
    let run = sim.run("main", &[])?;
    println!(
        "scalar baseline: {:.0} cycles, {:.2} MFLOPS",
        run.stats.cycles,
        run.stats.mflops(CLOCK_MHZ)
    );
    Ok(())
}
