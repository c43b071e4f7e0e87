//! EXP6 (§5.3): the cost of backtracking induction-variable substitution.
//!
//! "In the worst case, this solution is extremely inefficient, requiring n
//! passes over a loop … However, in practice we have never seen this
//! behavior; the average case requires the same simple pass over the loop
//! that is needed in the straightforward algorithm." This experiment
//! grows the number of induction-variable chains in one loop and reports
//! passes and backtracks; a second axis grows the number of *loops* in one
//! procedure, where "the same simple pass" means the cost per loop of the
//! loop passes must not grow with the procedure around it.

use std::time::Instant;
use titanc_bench::{ivsub_chain_source, many_loops_source, print_table, Row};
use titanc_lower::compile_to_il;
use titanc_opt::{convert_while_loops, forward_substitute, induction_substitution};

/// Best-of-5 wall time of `pass` over fresh clones of `proc`, in µs, and
/// the procedure it leaves.
fn time_pass<R>(
    proc: &titanc_il::Procedure,
    pass: impl Fn(&mut titanc_il::Procedure) -> R,
) -> (f64, titanc_il::Procedure) {
    let mut best = f64::INFINITY;
    let mut out = proc.clone();
    for _ in 0..5 {
        let mut p = proc.clone();
        let t = Instant::now();
        pass(&mut p);
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
        out = p;
    }
    (best, out)
}

fn main() {
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 16, 32] {
        let src = ivsub_chain_source(k, 64);
        let prog = compile_to_il(&src).expect("compiles");
        let mut proc = prog.procs[0].clone();
        convert_while_loops(&mut proc);
        let t = Instant::now();
        let rep = induction_substitution(&mut proc);
        let us = t.elapsed().as_secs_f64() * 1e6;
        rows.push(Row {
            label: format!("{k} pointer chains: IVs substituted"),
            value: rep.substituted as f64,
            note: format!(
                "passes {}, backtracks {}, {us:.0} µs",
                rep.passes, rep.backtracks
            ),
        });
        assert!(rep.substituted >= k, "all chains substituted");
        assert!(
            rep.passes <= 4,
            "the average case stays near one productive pass (got {})",
            rep.passes
        );
    }
    print_table(
        "EXP6 induction-variable substitution cost (§5.3)",
        "worst case n passes over the loop; in practice ~1 productive pass, backtracking rare",
        &rows,
    );

    // second axis: loops per procedure. Each loop converts and gives up
    // one induction variable, whatever stands around it.
    let mut rows = Vec::new();
    for loops in [8usize, 16, 32, 64, 128] {
        let prog = compile_to_il(&many_loops_source(0, loops)).expect("compiles");
        let (whiledo_us, proc) = time_pass(&prog.procs[0], convert_while_loops);
        let (ivsub_us, proc) = time_pass(&proc, induction_substitution);
        let (forward_us, after) = time_pass(&proc, forward_substitute);
        let n = (loops + 1) as f64; // the initializing loop counts too
        rows.push(Row {
            label: format!("{loops} loops in one procedure: µs per loop, three passes"),
            value: (whiledo_us + ivsub_us + forward_us) / n,
            note: format!(
                "whiledo {:.2}, ivsub {:.2}, forward {:.2}",
                whiledo_us / n,
                ivsub_us / n,
                forward_us / n
            ),
        });
        let do_loops = after.loop_ids().len();
        assert_eq!(do_loops, loops + 1, "every loop survives as a DO loop");
    }
    print_table(
        "EXP6 loop-pass cost against procedure size (§5.3)",
        "\"the same simple pass\": the cost of a loop does not depend on how many loops surround it",
        &rows,
    );

    // where the whole pipeline spends its time on the worst kernel: the
    // pass manager's trace gives per-pass wall-clock — and, since the
    // analysis cache landed, per-pass hit/build counts — for free
    let src = ivsub_chain_source(32, 64);
    let c = titanc::compile(&src, &titanc::Options::o2()).expect("compiles");
    let total = c.trace.total_duration().as_secs_f64() * 1e6;
    println!("== EXP6 per-pass timing (32 chains, full O2 pipeline)");
    for rec in &c.trace.records {
        let us = rec.duration.as_secs_f64() * 1e6;
        println!(
            "  {:<12} {us:>8.0} µs  {:>5.1}%  cache {:>2} hits {:>2} builds {}",
            rec.name,
            100.0 * us / total,
            rec.cache.hits(),
            rec.cache.builds(),
            if rec.changed { "" } else { "(no change)" }
        );
    }
    let totals = c.trace.cache_totals();
    println!(
        "  {:<12} {total:>8.0} µs          cache {:>2} hits {:>2} builds ({} repairs, {} invalidations)",
        "total",
        totals.hits(),
        totals.builds(),
        totals.repairs,
        totals.invalidations
    );
    assert!(
        c.trace.record("ivsub").is_some(),
        "O2 pipeline must include induction-variable substitution"
    );
    assert!(
        totals.hits() > 0,
        "the analysis cache must serve repeated requests: {totals:?}"
    );
    println!("EXP6 ok");
}
