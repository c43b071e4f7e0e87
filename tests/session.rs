//! End-to-end tests for multi-file sessions and the persistent
//! compilation cache: warm runs are byte-identical to cold runs and to
//! every `-j` value, a fully warm run executes zero optimization
//! passes, `--no-inline` sessions invalidate per procedure, inlining
//! sessions invalidate the edited procedure's dependency cone only,
//! duplicate definitions are diagnosed with both origins named, and
//! origin-tagged spans attribute loops to the file they were written
//! in.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use titanc_bench::sweep::{il_text, report_json, Scratch};
use titanc_repro::titanc::{
    compile_session, Catalog, OptLevel, OptReport, Options, SessionCompilation, SourceFile,
};

fn corpus(name: &str) -> SourceFile {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus")).join(name);
    SourceFile::new(
        format!("corpus/{name}"),
        std::fs::read_to_string(path).expect("corpus file"),
    )
}

const LIB_SRC: &str = "\
float buf[64];
void fill(int n, float v)
{
    int i;
    for (i = 0; i < n; i++)
        buf[i] = v;
}
";

const MAIN_SRC: &str = "\
int total;
int main(void)
{
    int i;
    total = 0;
    for (i = 0; i < 32; i++)
        total = total + i;
    return total;
}
";

/// Acceptance: the warm run is byte-identical to the cold run — same
/// optimized IL, same `--opt-report=json` — while executing **zero**
/// optimization passes.
#[test]
fn warm_run_is_byte_identical_and_runs_no_passes() {
    let dir = Scratch::new("warm-identical");
    let files = [corpus("daxpy.c"), corpus("blaslib.c")];
    let options = Options::o2();

    let cold = compile_session(&files, &options, Some(&dir)).expect("cold compile");
    assert!(cold.stats.hits == 0 && cold.stats.misses > 0 && !cold.stats.full_warm);
    assert!(cold.stats.passes_executed > 0);

    let warm = compile_session(&files, &options, Some(&dir)).expect("warm compile");
    assert!(warm.stats.full_warm, "second run should be fully warm");
    assert_eq!(warm.stats.passes_executed, 0, "warm run must run no passes");
    assert_eq!(warm.stats.hits, warm.compilation.program.procs.len());

    assert_eq!(
        il_text(&cold.compilation),
        il_text(&warm.compilation),
        "optimized IL must match"
    );
    assert_eq!(
        report_json(&cold.compilation),
        report_json(&warm.compilation),
        "opt report must be byte-identical cold vs warm"
    );
    assert_eq!(
        cold.compilation.diagnostics.len(),
        warm.compilation.diagnostics.len(),
        "remarks must replay on warm runs"
    );
}

/// The warm run is also byte-identical across `-j` values, preserving
/// the PR 2 invariant through the cache.
#[test]
fn warm_run_is_byte_identical_across_jobs() {
    let dir = Scratch::new("warm-jobs");
    let files = [corpus("daxpy.c"), corpus("backsolve.c")];
    let mut options = Options::o2();
    options.jobs = 1;
    let cold = compile_session(&files, &options, Some(&dir)).expect("cold compile");
    options.jobs = 4;
    let warm = compile_session(&files, &options, Some(&dir)).expect("warm compile");
    assert!(warm.stats.full_warm);
    assert_eq!(il_text(&cold.compilation), il_text(&warm.compilation));
    assert_eq!(
        report_json(&cold.compilation),
        report_json(&warm.compilation)
    );
}

/// With inlining off the growth budget no longer couples procedures, so
/// editing one procedure invalidates exactly that procedure.
#[test]
fn no_inline_sessions_invalidate_per_procedure() {
    let dir = Scratch::new("per-proc");
    let mut options = Options::o2();
    options.inline = false;
    let a = SourceFile::new("a.c", MAIN_SRC);
    let b = SourceFile::new("b.c", LIB_SRC);

    let cold =
        compile_session(&[a.clone(), b.clone()], &options, Some(&dir)).expect("cold compile");
    let n = cold.compilation.program.procs.len();
    assert_eq!(cold.stats.misses, n);

    // edit `fill` only: `main` must stay cached
    let b2 = SourceFile::new("b.c", LIB_SRC.replace("buf[i] = v;", "buf[i] = v + 1.0;"));
    let warm = compile_session(&[a, b2], &options, Some(&dir)).expect("edited compile");
    assert_eq!(warm.stats.hits, n - 1, "unchanged procedures must hit");
    assert_eq!(warm.stats.misses, 1, "only the edited procedure recompiles");
    assert_eq!(
        warm.stats.invalidated, 1,
        "the edit is an invalidation, not a cold miss"
    );
    assert!(!warm.stats.full_warm);
}

/// With inlining on, an edit invalidates exactly the procedures whose
/// inline dependency cone contains the edited procedure — callers that
/// can splice its body — while unrelated procedures stay warm.
#[test]
fn inline_sessions_invalidate_the_dependency_cone() {
    let dir = Scratch::new("cone");
    let options = Options::o2();
    // `reset` calls `fill`; `main` calls neither.
    let lib_with_caller = format!("{LIB_SRC}void reset(void)\n{{\n    fill(64, 0.0);\n}}\n");
    let a = SourceFile::new("a.c", MAIN_SRC);
    let b = SourceFile::new("b.c", lib_with_caller.clone());
    let cold = compile_session(&[a.clone(), b], &options, Some(&dir)).expect("cold compile");
    assert_eq!(cold.stats.misses, 3, "main, fill, reset all compile cold");

    // edit `fill` only: its cone consumers are itself and `reset`
    let edited = lib_with_caller.replace("buf[i] = v;", "buf[i] = v + 1.0;");
    let b2 = SourceFile::new("b.c", edited);
    let warm =
        compile_session(&[a.clone(), b2.clone()], &options, Some(&dir)).expect("edited compile");
    assert_eq!(warm.stats.hits, 1, "main does not call fill and stays warm");
    assert_eq!(warm.stats.misses, 2, "fill and its caller reset recompile");
    assert_eq!(warm.stats.invalidated, 2, "both misses are invalidations");
    assert!(!warm.stats.full_warm);

    // the cone-scoped warm compile is byte-identical to a from-scratch one
    let fresh = compile_session(&[a, b2], &options, None).expect("reference compile");
    assert_eq!(il_text(&fresh.compilation), il_text(&warm.compilation));
    assert_eq!(
        report_json(&fresh.compilation),
        report_json(&warm.compilation)
    );
}

/// Regression: the environment fingerprint rides in every per-procedure
/// key, so editing a global reaches procedures whose own text is
/// untouched — even with inlining off, where no cone links them.
#[test]
fn global_edits_miss_every_procedure_without_inlining() {
    let dir = Scratch::new("global-edit");
    let mut options = Options::o2();
    options.inline = false;
    let a = SourceFile::new("a.c", MAIN_SRC);
    let b = SourceFile::new("b.c", LIB_SRC);
    let cold = compile_session(&[a.clone(), b], &options, Some(&dir)).expect("cold compile");
    let n = cold.compilation.program.procs.len();

    // grow `buf`: no procedure body changes, but the layout every
    // procedure was optimized against does
    let b2 = SourceFile::new("b.c", LIB_SRC.replace("buf[64]", "buf[96]"));
    let warm =
        compile_session(&[a.clone(), b2.clone()], &options, Some(&dir)).expect("edited compile");
    assert_eq!(warm.stats.hits, 0, "a global edit must reach every key");
    assert_eq!(warm.stats.misses, n);

    let fresh = compile_session(&[a, b2], &options, None).expect("reference compile");
    assert_eq!(il_text(&fresh.compilation), il_text(&warm.compilation));
    assert_eq!(
        report_json(&fresh.compilation),
        report_json(&warm.compilation)
    );
}

/// Duplicate procedure definitions keep the first (CLI order) and name
/// both origins in the warning.
#[test]
fn duplicate_procedures_warn_with_both_origins() {
    let first = SourceFile::new("one.c", "int f(void) { return 1; }\n");
    let second = SourceFile::new(
        "two.c",
        "int f(void) { return 2; }\nint g(void) { return f(); }\n",
    );
    let sc = compile_session(&[first, second], &Options::o2(), None).expect("compiles");
    let warning = sc
        .compilation
        .diagnostics
        .iter()
        .find(|d| d.message.contains("shadowed"))
        .expect("expected a shadow warning");
    assert!(
        warning.message.contains("`f`")
            && warning.message.contains("two.c")
            && warning.message.contains("one.c"),
        "warning must name the procedure and both origins: {}",
        warning.message
    );
    // first definition wins: g() returns 1 through the kept f()
    let sim = titanc_repro::titan::Simulator::new(
        &sc.compilation.program,
        titanc_repro::titan::MachineConfig::optimized(1),
    );
    let mut sim = sim;
    let result = sim.run("g", &[]).expect("g runs");
    assert_eq!(result.value.expect("g returns").as_int(), 1);
}

/// Catalog procedures shadowed by the TU (or an earlier catalog) are
/// diagnosed too — previously `Catalog::link_into` dropped them
/// silently.
#[test]
fn shadowed_catalog_procedures_are_diagnosed() {
    let lib = compile_session(&[SourceFile::new("lib.c", LIB_SRC)], &Options::o2(), None)
        .expect("lib compiles");
    let catalog = titanc_il::Catalog::from_program("libcat", &lib.compilation.program);
    let mut options = Options::o2();
    options.catalogs.push(catalog);
    // the TU defines `fill` as well: the TU definition must win, with a
    // warning naming the catalog
    let src = format!("{LIB_SRC}{MAIN_SRC}");
    let sc = compile_session(&[SourceFile::new("app.c", src)], &options, None).expect("compiles");
    let warning = sc
        .compilation
        .diagnostics
        .iter()
        .find(|d| d.message.contains("shadowed"))
        .expect("expected a catalog shadow warning");
    assert!(
        warning.message.contains("`fill`") && warning.message.contains("libcat"),
        "warning must name the procedure and the catalog: {}",
        warning.message
    );
}

/// Loops merged from another TU report against their origin file, not
/// the consumer's line numbers.
#[test]
fn opt_report_attributes_loops_to_their_origin_file() {
    let a = SourceFile::new("main.c", MAIN_SRC);
    let b = SourceFile::new("lib.c", LIB_SRC);
    let sc = compile_session(&[a, b], &Options::o2(), None).expect("compiles");
    let report = OptReport::build_for(
        &sc.compilation.reports,
        &sc.compilation.trace,
        &sc.compilation.program.files,
    );
    let rendered = report.render();
    assert!(
        rendered.contains("lib.c:5:"),
        "fill's loop must be attributed to lib.c line 5:\n{rendered}"
    );
    assert!(
        rendered.contains("main.c:6:"),
        "main's loop must be attributed to main.c line 6:\n{rendered}"
    );
    let json = report.render_json();
    assert!(json.contains("\"file\":\"lib.c\""), "{json}");
}

/// Several sessions racing into one cache directory stay byte-identical
/// to a no-cache compile, and the directory they leave behind is a
/// consistent, fully warm cache — with no lock: every file is renamed
/// into place whole, under a name that fixes its bytes (the index: its
/// input files), so there is nothing to tear.
#[test]
fn concurrent_sessions_share_one_directory_safely() {
    let dir = Scratch::new("concurrent");
    let files = [corpus("daxpy.c"), corpus("blaslib.c")];
    let options = Options::o2();
    let reference = compile_session(&files, &options, None).expect("reference compile");

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (dir, files, options) = (&dir, &files, &options);
                scope.spawn(move || {
                    compile_session(files, options, Some(dir)).expect("racing compile")
                })
            })
            .collect();
        for h in handles {
            let sc = h.join().expect("racing session must not panic");
            assert_eq!(il_text(&reference.compilation), il_text(&sc.compilation));
            assert_eq!(
                report_json(&reference.compilation),
                report_json(&sc.compilation)
            );
            assert_eq!(sc.stats.corrupt, 0, "a race is not corruption");
        }
    });

    // whatever interleaving happened, the survivors form a complete,
    // consistent cache: the next run is fully warm and clean
    let warm = compile_session(&files, &options, Some(&dir)).expect("warm compile");
    assert!(
        warm.stats.full_warm,
        "racing sessions must leave a fully warm cache"
    );
    assert_eq!(warm.stats.invalidated, 0, "no phantom invalidations");
    assert_eq!(warm.stats.corrupt, 0, "no corruption from the race");
    assert_eq!(il_text(&reference.compilation), il_text(&warm.compilation));
    assert_eq!(
        report_json(&reference.compilation),
        report_json(&warm.compilation)
    );
}

/// Seeds `dir` with `seed` (name → contents), compiles through it and
/// asserts the one refusal contract every foreign directory gets: the
/// compile succeeds cold, byte-identical to a store-less one, with
/// exactly one remark — naming `marker` — and every seeded file left
/// exactly as it was: never adopted, rewritten, or quarantined. A second
/// run behaves the same way (refusal is stable, not sticky state that
/// decays into an error).
fn assert_refused_cold(tag: &str, seed: &[(&str, &str)], marker: &str) {
    let dir = Scratch::new(tag);
    std::fs::create_dir_all(&*dir).expect("mkdir");
    for (name, contents) in seed {
        std::fs::write(dir.join(name), contents).expect("seed file");
    }

    let files = [corpus("daxpy.c"), corpus("blaslib.c")];
    let reference = compile_session(&files, &Options::o2(), None).expect("reference compile");
    for run in ["first", "second"] {
        let sc = compile_session(&files, &Options::o2(), Some(&dir))
            .unwrap_or_else(|e| panic!("{tag}, {run} run: a foreign dir must not error: {e}"));
        assert_eq!(sc.stats.hits, 0, "a refused directory cannot serve hits");
        assert_eq!(sc.stats.corrupt, 0, "a refused directory is not corrupt");
        assert_eq!(sc.stats.misses, reference.compilation.program.procs.len());
        assert!(!sc.stats.full_warm);
        assert_eq!(il_text(&reference.compilation), il_text(&sc.compilation));
        assert_eq!(
            report_json(&reference.compilation),
            report_json(&sc.compilation)
        );

        let messages: Vec<_> = sc
            .compilation
            .diagnostics
            .iter()
            .map(|d| &d.message)
            .collect();
        let remarks = messages
            .iter()
            .filter(|m| m.contains("cache directory"))
            .count();
        assert_eq!(remarks, 1, "exactly one format-skew remark: {messages:?}");
        assert!(
            messages
                .iter()
                .any(|m| m.contains(&format!("format marker: {marker}"))
                    && m.contains("compiling cold")),
            "the remark names the marker it found: {messages:?}"
        );
    }

    let mut left: Vec<String> = std::fs::read_dir(&*dir)
        .expect("dir survives")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    let mut seeded: Vec<String> = seed.iter().map(|(n, _)| n.to_string()).collect();
    seeded.sort();
    assert_eq!(left, seeded, "nothing added to, or removed from, the dir");
    for (name, contents) in seed {
        assert_eq!(
            std::fs::read_to_string(dir.join(name)).expect("seeded file survives"),
            *contents,
            "`{name}` must be untouched"
        );
    }
}

/// A cache directory written by a pre-v3 compiler: entries on disk, no
/// `FORMAT` marker at all.
#[test]
fn v2_era_cache_dirs_fall_back_cold_with_one_remark() {
    assert_refused_cold(
        "v2-era",
        &[
            ("index.json", r#"{"procs":{"main":"00ff"}}"#),
            ("0123abcd.json", "{\"version\":0}"),
        ],
        "missing",
    );
}

/// A directory written by the v3 format — whole-program inline keys,
/// pre-site-ordinal events — carries a marker naming the old version.
#[test]
fn v3_era_cache_dirs_fall_back_cold_with_one_remark() {
    assert_refused_cold(
        "v3-era",
        &[
            ("FORMAT", "titanc-cache-v3"),
            ("0123abcd.json", "titanc-cache-v3 00ff\n{}"),
        ],
        "`titanc-cache-v3`",
    );
}

/// A directory written by the v4 format — the last one whose entries
/// were JSON text. Its files share names (`session-*.json`, and the
/// `index.json` early v5 directories hold) with v5's, which is exactly
/// why the marker, not the file names, decides.
#[test]
fn v4_era_cache_dirs_fall_back_cold_with_one_remark() {
    assert_refused_cold(
        "v4-era",
        &[
            ("FORMAT", "titanc-cache-v4\n"),
            ("index.json", "titanc-cache-v4 00ff\n{\"procs\":{}}"),
            ("0123abcd.json", "titanc-cache-v4 00ff\n{\"version\":1}"),
        ],
        "`titanc-cache-v4`",
    );
}

/// A directory written by the v5 format — binary IL, but JSON cells and a
/// JSON manifest that repeated every per-procedure record. Its entry
/// names (`<key>.il`) are v6's too; the marker decides.
#[test]
fn v5_era_cache_dirs_fall_back_cold_with_one_remark() {
    assert_refused_cold(
        "v5-era",
        &[
            ("FORMAT", "titanc-cache-v5\n"),
            ("index-00ff.json", "titanc-cache-v5 00ff\n{\"procs\":{}}"),
            ("0123abcd.il", "titanc-cache-v5 00ff\n\u{2}\0\0\0"),
            ("session-4567.json", "titanc-cache-v5 00ff\n{\"version\":2}"),
        ],
        "`titanc-cache-v5`",
    );
}

/// A directory written by the v6 format — today's file names and
/// layouts, but keys and envelope checksums from the byte-at-a-time
/// FNV-1a hash. Without its own marker every file would fail its
/// checksum and be quarantined; the marker refuses it whole instead.
#[test]
fn v6_era_cache_dirs_fall_back_cold_with_one_remark() {
    assert_refused_cold(
        "v6-era",
        &[
            ("FORMAT", "titanc-cache-v6\n"),
            ("index-00ff.bin", "titanc-cache-v6 00ff\n\0\0\0\0"),
            ("0123abcd.il", "titanc-cache-v6 00ff\n\u{2}\0\0\0"),
            ("session-4567.bin", "titanc-cache-v6 00ff\n\0"),
        ],
        "`titanc-cache-v6`",
    );
}

/// `--emit-catalog` writes the program of an `-O0` compile without
/// inlining of the same files: no pass runs, so it is the parsed program
/// (§7: the consumer's inliner optimizes catalog bodies in context),
/// whatever level the command line asked for.
#[test]
fn emit_catalog_holds_the_parsed_program() {
    let files = [corpus("daxpy.c")];
    let catalog_of = |options: &Options| {
        let parsed = Options {
            opt: OptLevel::O0,
            inline: false,
            ..options.clone()
        };
        let sc = compile_session(&files, &parsed, None).expect("compiles");
        assert!(sc.compilation.trace.records.is_empty(), "no pass runs");
        Catalog::from_program("daxpy", &sc.compilation.program).to_bytes()
    };
    let lowered = titanc_lower::compile_to_il(&files[0].src).expect("lowers");
    let want = Catalog::from_program("daxpy", &lowered).to_bytes();
    assert_eq!(catalog_of(&Options::o2()), want);
    assert_eq!(catalog_of(&Options::parallel()), want);
    // the catalog keeps the call the optimized program inlined away
    let optimized = compile_session(&files, &Options::o2(), None).expect("compiles");
    let calls = |p: &titanc_il::Program| {
        titanc_il::pretty_proc(p.proc_by_name("main").expect("main")).contains("daxpy(")
    };
    assert!(calls(&lowered), "parsed main still calls daxpy");
    assert!(
        !calls(&optimized.compilation.program),
        "optimized main has daxpy inlined away"
    );
}

/// Every file of `dir` (subdirectories aside) with its bytes.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_file())
        .map(|p| {
            let name = p.file_name().expect("name").to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("reads"))
        })
        .collect()
}

/// Why the cache needs no lock, (1): a name fixes its bytes. Over cold,
/// warm, edited and warm-again runs of one session, and two threads
/// racing the edited session into a fresh directory, every file but an
/// index holds the same bytes each time it is seen — so concurrent
/// writers of one name can only ever publish the same value.
#[test]
fn every_file_but_an_index_holds_one_value_per_name() {
    let dir = Scratch::new("one-value");
    let options = Options::o2();
    let lib = format!("{LIB_SRC}void reset(void)\n{{\n    fill(64, 0.0);\n}}\n");
    let a = SourceFile::new("a.c", MAIN_SRC);
    let b = SourceFile::new("b.c", lib.clone());
    // the edit adds a loop, so the edited session's manifest differs too
    let b2 = SourceFile::new(
        "b.c",
        format!("{lib}void clear(void)\n{{\n    int i;\n    for (i = 0; i < 64; i++)\n        buf[i] = 0.0;\n}}\n"),
    );
    let original = [a.clone(), b];
    let edited = [a, b2];

    // records what each name held the first time; true if all were known
    fn check(seen: &mut BTreeMap<String, Vec<u8>>, dir: &Path, step: &str) -> bool {
        let mut known = true;
        for (name, bytes) in dir_files(dir) {
            if name.starts_with("index-") {
                continue;
            }
            known &= seen.contains_key(&name);
            let first = seen.entry(name.clone()).or_insert_with(|| bytes.clone());
            assert!(*first == bytes, "{step}: `{name}` holds other bytes");
        }
        known
    }
    let mut seen = BTreeMap::new();
    for (step, files) in [
        ("cold", &original),
        ("warm", &original),
        ("edited", &edited),
        ("warm after the edit", &edited),
    ] {
        compile_session(files, &options, Some(&dir)).expect("compiles");
        check(&mut seen, &dir, step);
    }

    let race = Scratch::new("one-value-race");
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (race, edited, options) = (&race, &edited, &options);
            scope.spawn(move || compile_session(edited, options, Some(race)).expect("compiles"));
        }
    });
    assert!(
        check(&mut seen, &race, "race"),
        "the race published no name unseen before"
    );
}

/// Why the cache needs no lock, (2): an index belongs to one list of
/// input files. `a.c` and `b.c` compiled by separate invocations into one
/// directory keep separate accounting: the edited `a.c` counts its edit
/// as an invalidation even though `b.c` was compiled in between, and
/// `b.c` stays fully warm. One shared, blind-overwritten index would
/// have forgotten `a.c`'s keys.
#[test]
fn separate_invocations_keep_their_own_invalidations() {
    let dir = Scratch::new("separate");
    let options = Options::o2();
    let a = [SourceFile::new("a.c", MAIN_SRC)];
    let b = [SourceFile::new("b.c", LIB_SRC)];
    compile_session(&a, &options, Some(&dir)).expect("a.c compiles");
    compile_session(&b, &options, Some(&dir)).expect("b.c compiles");

    let a2 = SourceFile::new("a.c", MAIN_SRC.replace("total + i", "total + 2 * i"));
    let edited = compile_session(&[a2], &options, Some(&dir)).expect("edited a.c compiles");
    assert_eq!((edited.stats.hits, edited.stats.misses), (0, 1));
    assert_eq!(edited.stats.invalidated, 1, "main was edited, not cold");

    let b_again = compile_session(&b, &options, Some(&dir)).expect("b.c compiles");
    assert!(b_again.stats.full_warm, "b.c is untouched by a.c's edit");
}

/// Program `t` of [`different_programs_race_into_one_directory`]: `main`
/// calls `fill<t>`; nothing calls `scale<t>`, whose factor is `c`.
fn race_program(t: usize, c: usize) -> SourceFile {
    let src = format!(
        "float a{t}[64];\n\
         void fill{t}(float v)\n{{\n    int i;\n    for (i = 0; i < 64; i++)\n        a{t}[i] = v;\n}}\n\
         void scale{t}(void)\n{{\n    int i;\n    for (i = 0; i < 64; i++)\n        a{t}[i] = a{t}[i] * {c}.0;\n}}\n\
         int main(void)\n{{\n    fill{t}(1.0);\n    return 0;\n}}\n"
    );
    SourceFile::new(format!("p{t}.c"), src)
}

/// Why the cache needs no lock, (3): four threads compile four different
/// programs into one directory, three rounds — cold, with every
/// `scale<t>` edited, then with the edit reverted. Every compile matches
/// a store-less one with nothing corrupt or failed, the edit is exactly
/// one invalidation per program, and the reverted round is fully warm.
#[test]
fn different_programs_race_into_one_directory() {
    let dir = Scratch::new("programs-race");
    let options = Options::o2();
    for (round, factor) in [2, 3, 2].into_iter().enumerate() {
        let compiled: Vec<SessionCompilation> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (dir, options) = (&dir, &options);
                    scope.spawn(move || {
                        compile_session(&[race_program(t, factor)], options, Some(dir))
                            .expect("racing compile")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a racing session must not panic"))
                .collect()
        });
        for (t, sc) in compiled.iter().enumerate() {
            let what = format!("round {round}, program {t}");
            let reference = compile_session(&[race_program(t, factor)], &options, None)
                .expect("reference compile");
            assert_eq!(
                il_text(&reference.compilation),
                il_text(&sc.compilation),
                "{what}"
            );
            assert_eq!(
                report_json(&reference.compilation),
                report_json(&sc.compilation),
                "{what}"
            );
            assert_eq!((sc.stats.corrupt, sc.stats.write_failed), (0, 0), "{what}");
            let s = sc.stats;
            match round {
                0 => assert_eq!((s.hits, s.misses, s.invalidated), (0, 3, 0), "{what}"),
                1 => assert_eq!((s.hits, s.misses, s.invalidated), (2, 1, 1), "{what}"),
                _ => assert!(s.full_warm && s.invalidated == 0, "{what}"),
            }
        }
    }
}
