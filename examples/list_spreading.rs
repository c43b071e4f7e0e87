//! The §10 future-work feature: spreading a linked-list walk across
//! processors with a serialized pointer chase.
//!
//! ```sh
//! cargo run --example list_spreading
//! ```

use titanc_repro::titan::{MachineConfig, Simulator};
use titanc_repro::titanc::{compile, Options};

const SRC: &str = include_str!("../corpus/listwalk.c");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spread = compile(
        SRC,
        &Options {
            spread_lists: true,
            ..Options::parallel()
        },
    )?;
    println!(
        "list loops spread: {} (the work procedure and its inlined copy)",
        spread.reports.count("list_spread")
    );
    let work = spread.program.proc_by_name("work").unwrap();
    println!("{}", titanc_repro::il::pretty_proc(work));

    let baseline = compile(SRC, &Options::parallel())?;
    for procs in [1u32, 2, 4] {
        let mut sim = Simulator::new(&baseline.program, MachineConfig::optimized(procs));
        let b = sim.run("main", &[])?.stats;
        let mut sim = Simulator::new(&spread.program, MachineConfig::optimized(procs));
        let r = sim.run("main", &[])?;
        println!(
            "{procs} proc(s): spread {:.0} cycles vs unspread {:.0} — speedup {:.2}x, result {}",
            r.stats.cycles,
            b.cycles,
            b.cycles / r.stats.cycles,
            r.value.unwrap().as_int()
        );
    }
    Ok(())
}
