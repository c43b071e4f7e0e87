//! EXP10 (§1 item 6, §3): volatile semantics across the whole pipeline.
//!
//! The keyboard-status poll loop "appears as though it will loop forever"
//! unless `volatile` pins every read. This experiment compiles the poll
//! loop at every optimization level, scripts the device register, and
//! verifies the loop still re-reads memory each iteration — and that the
//! non-volatile variant is (correctly) folded into an infinite loop.

use titanc::Options;
use titanc_bench::corpus;
use titanc_titan::{MachineConfig, Simulator};

fn main() {
    println!("== EXP10 volatile poll loop (§1)");
    for (name, opts) in [
        ("O0", Options::o0()),
        ("O1", Options::o1()),
        ("O2", Options::o2()),
        ("O2 parallel", Options::parallel()),
    ] {
        let c = titanc::compile(corpus::VOLATILE_POLL, &opts).expect("compiles");
        let mut sim = Simulator::new(&c.program, MachineConfig::default());
        // the device produces three zero reads, then 7
        sim.push_volatile_values(&[0, 0, 0, 7]);
        let r = sim.run("main", &[]).expect("terminates via device write");
        assert_eq!(r.value.unwrap().as_int(), 7);
        println!(
            "   {name:<12} loop survived; {} loads executed, returned {}",
            r.stats.loads,
            r.value.unwrap().as_int()
        );
        assert!(r.stats.loads >= 4, "every poll iteration re-reads");
    }

    // counterpoint: without volatile the loop really is infinite (the
    // step limit fires), proving the qualifier is what pins the read
    let non_volatile = corpus::VOLATILE_POLL.replace("volatile int", "int");
    let c = titanc::compile(&non_volatile, &Options::o2()).expect("compiles");
    let cfg = MachineConfig {
        max_steps: 50_000,
        ..MachineConfig::default()
    };
    let mut sim = Simulator::new(&c.program, cfg);
    sim.push_volatile_values(&[0, 0, 0, 7]); // ignored: no volatile reads
    let err = sim.run("main", &[]).expect_err("spins forever");
    println!("   non-volatile variant: {err} (expected)");
    println!("EXP10 ok");
}
