//! Every check of `titanc_bench::sweep` at a small N, inside tier-1 — the
//! same code `stress --check NAME` runs at sweep size, over the first cases
//! of this file's own run seed, plus the codec check over `corpus/*.c`
//! under every option set. A failing case prints its FAIL block, whose
//! last line is the `stress` command that replays it.
//!
//! `cache-faults` and `server` write cache directories under
//! `sweep::Scratch` guards and install IO faults, which are process-global,
//! so they run one at a time; each then asserts that no scratch directory
//! of this process is left behind.

use std::sync::Mutex;

use titanc_bench::sweep::{self, Scratch, Totals};

/// Not `sweep::DEFAULT_SEED`, which CI's `stress` runs use: the cases
/// here are programs those sweeps do not also check.
const RUN_SEED: u64 = 0x7E57_5EED;

static SERIAL: Mutex<()> = Mutex::new(());

fn run_check(name: &str, cases: u64) -> Totals {
    let check = sweep::check(name).expect("a named check");
    let mut totals = Totals::default();
    sweep::run(check, RUN_SEED, cases, &mut totals);
    assert_eq!(totals.failed, 0, "`{name}` failures (FAIL blocks above)");
    totals
}

fn serial_sweep(name: &str, cases: u64) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run_check(name, cases);
    let mine = format!("{}-", std::process::id());
    let entries = std::fs::read_dir(Scratch::root())
        .into_iter()
        .flatten()
        .flatten();
    let left: Vec<_> = entries
        .filter(|e| e.file_name().to_string_lossy().starts_with(&mine))
        .collect();
    assert!(left.is_empty(), "`{name}` left behind {left:?}");
}

/// The decision classes the generated programs reach, pinned: a class
/// that goes dark fails here, and one a richer generator lights up is a
/// one-line edit.
#[test]
fn observe() {
    let totals = run_check("observe", 24);
    let lit = [
        "do_converted",
        "ivsub",
        "vectorized",
        "parallelized",
        "scalar",
        "expanded",
    ];
    assert_eq!(totals.lit(), lit, "coverage: {}", totals.coverage_line());
    assert_eq!(totals.incidents, 0);
}

#[test]
fn codec() {
    run_check("codec", 32);
}

#[test]
fn codec_over_the_corpus() {
    let files = sweep::corpus_files();
    assert!(files.len() >= 7, "only {} corpus files found", files.len());
    let sets = sweep::option_sets();
    for (path, src) in &files {
        let mut totals = Totals::default();
        sweep::codec_program(src, path, &sets, &mut totals).unwrap_or_else(|why| panic!("{why}"));
    }
}

/// Eight cases reach 4-, 5- and 6-helper sessions, a warm edit at `-j 1`
/// and at `-j 4`, and the last helper as the victim.
#[test]
fn cache_faults() {
    serial_sweep("cache-faults", 8);
}

#[test]
fn server() {
    serial_sweep("server", 4);
}
