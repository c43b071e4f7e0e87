//! EXP1 (§5.3): the pointer-walk copy loop.
//!
//! `while (n) { *a++ = *b++; n--; }` is "straightforwardly vectorized (it
//! is, after all, only a vector copy) once all the garbage is cleared
//! away" — while→DO conversion plus backtracking induction-variable
//! substitution expose the subscripts, and the pragma supplies the
//! aliasing guarantee C cannot.

use titanc::Options;
use titanc_bench::harness::{run_experiment, ExpCase};
use titanc_bench::{copy_source, mflops, print_table, Row};
use titanc_titan::MachineConfig;

fn main() {
    for n in [64usize, 100, 1024, 8192] {
        let src = copy_source(n);
        let stats = run_experiment(
            &src,
            &[
                ExpCase::new(Options::o1(), MachineConfig::scalar()),
                ExpCase::new(Options::o2(), MachineConfig::optimized(1)),
                ExpCase::new(Options::parallel(), MachineConfig::optimized(2)),
            ],
        );
        let [scalar, vector, par2] = &stats[..] else {
            unreachable!("three cases")
        };
        let rows = vec![
            Row {
                label: format!("scalar only (O1), n={n}"),
                value: scalar.cycles,
                note: format!("cycles ({:.3} MB/s eq)", mflops(scalar)),
            },
            Row {
                label: format!("vectorized (O2), n={n}"),
                value: vector.cycles,
                note: format!("cycles, speedup {:.2}x", scalar.cycles / vector.cycles),
            },
            Row {
                label: format!("vector + 2 procs, n={n}"),
                value: par2.cycles,
                note: format!("cycles, speedup {:.2}x", scalar.cycles / par2.cycles),
            },
        ];
        print_table(
            &format!("EXP1 pointer-walk copy, n = {n}"),
            "the §5.3 loop vectorizes after backtracking IVS (large speedup expected)",
            &rows,
        );
        assert!(
            vector.cycles < scalar.cycles / 2.0,
            "vectorized copy must be much faster"
        );
        assert!(vector.vector_instrs > 0, "vector instructions issued");
    }
    println!("EXP1 ok");
}
