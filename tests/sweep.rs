//! Every check of `titanc_bench::sweep` at a small N, inside tier-1 — the
//! same code `stress --check NAME` runs at sweep size, over the first cases
//! of this file's own run seed, plus the codec check over `corpus/*.c`
//! under every option set and the observe check over the corpus files
//! that run. A failing case prints its FAIL block, whose
//! last line is the `stress` command that replays it.
//!
//! `cache-faults` and `server` write cache directories under
//! `sweep::Scratch` guards and install IO faults, which are process-global,
//! so they run one at a time; each then asserts that no scratch directory
//! of this process is left behind.

use std::sync::Mutex;

use titanc_bench::sweep::{self, Scratch, Totals};
use titanc_repro::il::ScalarType;

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
        "sunk",
        "expanded",
        "muls_reduced",
        "vregs",
    ];
    assert_eq!(totals.lit(), lit, "coverage: {}", totals.coverage_line());
    assert_eq!(totals.incidents, 0);
}

/// The corpus files whose `main` runs to completion on the default
/// machine, each with the global array it writes, read back as words so
/// every build must store the same bits. `blaslib.c` has no `main`, and
/// `volatile_poll.c` polls a device only a scripted machine writes (EXP10).
const RUNNABLE_CORPUS: [(&str, &str, u32); 7] = [
    ("backsolve.c", "x", 1026),
    ("copy.c", "dst", 8192),
    ("daxpy.c", "a", 100),
    ("gauss.c", "a", 16 * 16),
    ("listwalk.c", "pool", 3 * 1024),
    ("struct_matrix.c", "out_pts", 4 * 256),
    ("struct_matrix8.c", "out_pts", 8 * 256),
];

#[test]
fn observe_over_the_corpus() {
    let files = sweep::corpus_files();
    assert_eq!(files.len(), RUNNABLE_CORPUS.len() + 2, "{files:?}");
    for (name, global, words) in RUNNABLE_CORPUS {
        let (path, src) = files
            .iter()
            .find(|(path, _)| path.ends_with(name))
            .unwrap_or_else(|| panic!("no corpus/{name}"));
        let globals = [(global, ScalarType::Int, words)];
        let mut totals = Totals::default();
        sweep::observe_program(src, &globals, &mut totals)
            .unwrap_or_else(|why| panic!("{path}: {why}"));
    }
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
