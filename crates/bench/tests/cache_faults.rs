//! Cache durability property tests: random on-disk corruption over
//! progen programs never escapes into the output, injected write
//! failures are surfaced (counted plus one warning) without harming the
//! compile, and injected read faults degrade to a cold compile.
//!
//! Fault injection ([`install_io_faults`]) is process-global, so every
//! test here serializes on [`SERIAL`] — this binary is the only place
//! outside the stress harness that installs faults, and the harness is
//! a separate process.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use titanc::{
    compile_session, install_io_faults, FaultMode, IoFaultSpec, IoOp, OptReport, Options,
    SessionCompilation, SourceFile,
};
use titanc_bench::progen;

/// Serializes tests that install process-global IO faults. Poisoning is
/// ignored — a failed test must not cascade into the rest of the suite.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh per-test cache directory under the bench target dir.
fn cache_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/test-caches"
    ))
    .join(format!("faults-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn il_text(sc: &SessionCompilation) -> String {
    sc.compilation
        .program
        .procs
        .iter()
        .map(titanc_il::pretty_proc)
        .collect::<Vec<_>>()
        .join("\n")
}

fn report_json(sc: &SessionCompilation) -> String {
    OptReport::build_for(
        &sc.compilation.reports,
        &sc.compilation.trace,
        &sc.compilation.program.files,
    )
    .to_json()
    .to_string_compact()
}

fn compile(src: &str, dir: Option<&PathBuf>) -> SessionCompilation {
    let files = [SourceFile::new("case.c", src.to_string())];
    compile_session(&files, &Options::o2(), dir.map(|d| d.as_path())).expect("progen compiles")
}

/// Property: whatever bytes rot on disk, the warm run detects the
/// damage (corrupt counter, quarantine) and still emits output
/// byte-identical to a no-cache compile. Several progen seeds, each
/// corrupted with its own RNG stream.
#[test]
fn random_corruption_never_escapes_into_the_output() {
    let _guard = serial();
    install_io_faults(None);
    for seed in [11u64, 1207, 90210, 0xDECAF, 0xFEED_5EED] {
        let mut rng = progen::Rng::new(seed);
        let src = progen::program(&mut rng);
        let reference = compile(&src, None);

        let dir = cache_dir(&format!("corrupt-{seed}"));
        compile(&src, Some(&dir)); // clean populate
        titanc_bench::corrupt_cache_dir(&dir, &mut rng).expect("corrupt the populated dir");
        let damaged = compile(&src, Some(&dir));

        assert_eq!(
            il_text(&reference),
            il_text(&damaged),
            "seed {seed}: corrupted cache changed the optimized IL"
        );
        assert_eq!(
            report_json(&reference),
            report_json(&damaged),
            "seed {seed}: corrupted cache changed the opt report"
        );
        assert!(
            damaged.stats.corrupt > 0,
            "seed {seed}: damage must be detected, not silently missed"
        );
        assert_eq!(
            damaged.stats.corrupt, damaged.stats.quarantined,
            "seed {seed}: every corrupt file is quarantined"
        );
        let quarantined = std::fs::read_dir(dir.join("quarantine"))
            .map(|d| d.count())
            .unwrap_or(0);
        assert!(
            quarantined >= damaged.stats.quarantined,
            "seed {seed}: quarantined files must be preserved on disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Injected write failures (every write fails) are counted, surfaced as
/// one warning, and leave the compiled output untouched.
#[test]
fn injected_write_failures_are_counted_and_surfaced() {
    let _guard = serial();
    let mut rng = progen::Rng::new(424242);
    let src = progen::program(&mut rng);
    let reference = compile(&src, None);

    let dir = cache_dir("write-fail");
    install_io_faults(Some(IoFaultSpec::new(7).rule(
        IoOp::Write,
        FaultMode::Fail,
        1.0,
    )));
    let crippled = compile(&src, Some(&dir));
    install_io_faults(None);

    assert_eq!(il_text(&reference), il_text(&crippled));
    assert_eq!(report_json(&reference), report_json(&crippled));
    assert!(
        crippled.stats.write_failed > 0,
        "failed writes must be counted"
    );
    let warnings: Vec<_> = crippled
        .compilation
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("cache write(s) failed"))
        .collect();
    assert_eq!(
        warnings.len(),
        1,
        "exactly one surfaced write-failure warning: {:?}",
        crippled
            .compilation
            .diagnostics
            .iter()
            .map(|d| &d.message)
            .collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected read faults (every read fails) demote a warm directory to a
/// cold compile — zero hits, byte-identical output, no panic.
#[test]
fn injected_read_faults_degrade_to_a_cold_compile() {
    let _guard = serial();
    install_io_faults(None);
    let mut rng = progen::Rng::new(31337);
    let src = progen::program(&mut rng);
    let reference = compile(&src, None);

    let dir = cache_dir("read-fail");
    let warm_baseline = compile(&src, Some(&dir)); // clean populate
    assert!(warm_baseline.stats.misses > 0);

    install_io_faults(Some(IoFaultSpec::new(8).rule(
        IoOp::Read,
        FaultMode::Fail,
        1.0,
    )));
    let blinded = compile(&src, Some(&dir));
    install_io_faults(None);

    assert_eq!(blinded.stats.hits, 0, "unreadable cache cannot hit");
    assert_eq!(il_text(&reference), il_text(&blinded));
    assert_eq!(report_json(&reference), report_json(&blinded));

    // with faults lifted, the directory serves again or recovers cold —
    // either way the output still matches
    let recovered = compile(&src, Some(&dir));
    assert_eq!(il_text(&reference), il_text(&recovered));
    let _ = std::fs::remove_dir_all(&dir);
}
