//! Property test for cone-scoped cache invalidation: over generated
//! multi-procedure sessions with inlining on, mutating exactly one
//! procedure must miss exactly that procedure and its inline-cone
//! consumers (the procedures whose cone contains it), and the warm-edit
//! compile must stay byte-identical to a from-scratch cold compile —
//! at `-j1` and `-j4` alike.

use std::path::PathBuf;

use titanc::{compile_session, OptReport, Options, SessionCompilation, SourceFile};
use titanc_analysis::CallGraph;
use titanc_bench::progen::{session_program, Rng};

const N_HELPERS: usize = 6;

fn cache_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/test-caches"))
        .join(format!("cone-{tag}-{}", std::process::id()));
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

fn opt_report_json(sc: &SessionCompilation) -> String {
    OptReport::build_for(
        &sc.compilation.reports,
        &sc.compilation.trace,
        &sc.compilation.program.files,
    )
    .to_json()
    .to_string_compact()
}

/// The files of a cache directory whose names pass `keep`, sorted.
fn cache_files(dir: &std::path::Path, keep: impl Fn(&str) -> bool) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| keep(n))
        .collect();
    names.sort();
    names
}

/// The per-procedure entry files (`<key>.il`) of a cache directory.
fn entry_files(dir: &std::path::Path) -> Vec<String> {
    cache_files(dir, |n| n.ends_with(".il"))
}

/// The session manifests (`session-<key>.json`) of a cache directory.
fn manifest_files(dir: &std::path::Path) -> Vec<String> {
    cache_files(dir, |n| n.starts_with("session-"))
}

/// The procedures whose inline cone contains `victim` — exactly the set
/// the session cache must recompile after an edit to `victim`.
fn cone_consumers(src: &str, victim: &str) -> Vec<String> {
    let prog = titanc_lower::compile_to_il(src).expect("corpus lowers");
    let vi = prog
        .procs
        .iter()
        .position(|p| p.name == victim)
        .expect("victim exists");
    let cones = CallGraph::build(&prog).inline_cones(&prog);
    prog.procs
        .iter()
        .enumerate()
        .filter(|(i, _)| cones[*i].contains(&vi))
        .map(|(_, p)| p.name.clone())
        .collect()
}

#[test]
fn one_proc_edits_invalidate_exactly_the_cone() {
    for seed in 1..=6u64 {
        for jobs in [1usize, 4] {
            let salts = vec![0i64; N_HELPERS];
            let base = session_program(&mut Rng::new(seed), N_HELPERS, &salts);

            let victim_ix = (seed as usize) % N_HELPERS;
            let victim = format!("h{}", victim_ix + 1);
            let mut edited_salts = salts.clone();
            edited_salts[victim_ix] = 1_000 + seed as i64;
            let edited = session_program(&mut Rng::new(seed), N_HELPERS, &edited_salts);
            assert_ne!(base, edited, "seed {seed}: the edit must change the text");

            let consumers = cone_consumers(&edited, &victim);
            assert!(
                consumers.contains(&victim) && consumers.contains(&"main".to_string()),
                "seed {seed}: consumers always include the victim and main: {consumers:?}"
            );

            let mut options = Options::o2();
            options.jobs = jobs;
            let dir = cache_dir(&format!("{seed}-{jobs}"));

            let cold = compile_session(
                &[SourceFile::new("gen.c", base.clone())],
                &options,
                Some(&dir),
            )
            .expect("cold compile");
            let total = cold.compilation.program.procs.len();
            assert_eq!(total, N_HELPERS + 1);
            assert_eq!(cold.stats.misses, total);

            let warm = compile_session(
                &[SourceFile::new("gen.c", edited.clone())],
                &options,
                Some(&dir),
            )
            .expect("warm-edit compile");
            assert_eq!(
                warm.stats.misses,
                consumers.len(),
                "seed {seed} -j{jobs}: only the cone consumers may miss: {consumers:?}"
            );
            assert_eq!(warm.stats.invalidated, consumers.len());
            assert_eq!(warm.stats.hits, total - consumers.len());

            let fresh =
                compile_session(&[SourceFile::new("gen.c", edited.clone())], &options, None)
                    .expect("reference compile");
            assert_eq!(
                il_text(&fresh),
                il_text(&warm),
                "seed {seed} -j{jobs}: warm-edit IL must match a cold compile"
            );
            assert_eq!(
                opt_report_json(&fresh),
                opt_report_json(&warm),
                "seed {seed} -j{jobs}: warm-edit opt report must match a cold compile"
            );

            // entry and manifest bytes are a function of the IL's
            // structure, not of which session produced them: two
            // from-scratch directories of the edited sources (at either
            // job count) hold the same bytes, and, byte for byte, a subset
            // of the files the warm-edit directory ended up with
            let scratch = |tag: &str, jobs: usize| {
                let scratch_dir = cache_dir(&format!("{seed}-{jobs}-{tag}"));
                let options = Options {
                    jobs,
                    ..options.clone()
                };
                compile_session(
                    &[SourceFile::new("gen.c", edited.clone())],
                    &options,
                    Some(&scratch_dir),
                )
                .expect("from-scratch compile");
                scratch_dir
            };
            let scratch_dir = scratch("scratch", jobs);
            let second_dir = scratch("scratch-again", 5 - jobs);
            let scratch_entries = entry_files(&scratch_dir);
            assert_eq!(scratch_entries.len(), total);
            let scratch_manifests = manifest_files(&scratch_dir);
            assert_eq!(scratch_manifests.len(), 1);
            assert_eq!(manifest_files(&second_dir), scratch_manifests);
            for name in scratch_entries.iter().chain(&scratch_manifests) {
                let bytes = std::fs::read(scratch_dir.join(name)).ok();
                assert_eq!(
                    std::fs::read(second_dir.join(name)).ok(),
                    bytes,
                    "seed {seed} -j{jobs}: {name} differs between two from-scratch directories"
                );
                assert_eq!(
                    std::fs::read(dir.join(name)).ok(),
                    bytes,
                    "seed {seed} -j{jobs}: {name} differs between the warm-edit \
                     and the from-scratch directory"
                );
            }
            let stale = entry_files(&dir).len() - scratch_entries.len();
            assert_eq!(
                stale,
                consumers.len(),
                "only the superseded entries are extra"
            );
        }
    }
}

/// Mutating the last helper — generated calls only reach lower-index
/// helpers, so no helper calls it — must leave every sibling warm: its
/// only consumers are itself and `main` (whose cone spans the program).
#[test]
fn untouched_siblings_stay_warm() {
    let seed = 11u64;
    let salts = vec![0i64; N_HELPERS];
    let base = session_program(&mut Rng::new(seed), N_HELPERS, &salts);
    let mut edited_salts = salts.clone();
    edited_salts[N_HELPERS - 1] = 77;
    let edited = session_program(&mut Rng::new(seed), N_HELPERS, &edited_salts);

    let victim = format!("h{N_HELPERS}");
    let consumers = cone_consumers(&edited, &victim);
    assert_eq!(
        consumers,
        vec![victim, "main".to_string()],
        "nothing but main can call the last helper"
    );
    let options = Options::o2();
    let dir = cache_dir("siblings");
    compile_session(&[SourceFile::new("gen.c", base)], &options, Some(&dir)).expect("cold");
    let warm =
        compile_session(&[SourceFile::new("gen.c", edited)], &options, Some(&dir)).expect("warm");
    assert!(
        warm.stats.hits >= (N_HELPERS + 1) - consumers.len(),
        "procedures outside h1's consumer set must stay warm"
    );
    assert!(
        warm.stats.misses < N_HELPERS + 1,
        "an edit must never invalidate wholesale"
    );
}
