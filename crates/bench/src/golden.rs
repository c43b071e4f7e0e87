//! The golden outputs under `tests/golden/`: what `titanc --print-il
//! --stats --opt-report=json` prints for every `corpus/*.c` file under
//! every [`sweep::option_sets`] entry, plus the `--stats
//! --opt-report=json` of one `mp9`-shaped session (eight 30-loop
//! procedures and a `main` that calls each) at `-O2 --parallel`, and the
//! `--cache-dir` that session leaves after a cold, a warm, an edited and a
//! second warm compile ([`render_cache_dir`]).
//!
//! Each case renders through [`titanc::server::render`], the function
//! `titanc` prints with, so a file holds the tool's own bytes: exit code,
//! stderr and stdout. Nothing in a file is a timing or a path outside the
//! repository. The `golden` bin writes the files ([`BLESS`]); the root
//! test `tests/golden.rs` recomputes them and fails on any byte of
//! difference, so a change that moves an output lands with its diff.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use titanc::server::{cache_line, render, CompileRequest};
use titanc::{compile_session, Aliasing, OptLevel, Options, SourceFile};
use titanc_il::wire;

use crate::many_loops_source;
use crate::sweep::{self, Scratch};

/// The command that rewrites every golden file from the current build.
pub const BLESS: &str = "cargo run -q --release -p titanc-bench --bin golden";

/// One golden file: its name under `tests/golden/` and the compile it
/// records.
pub struct Case {
    /// File name, `<source set>.<option set>.txt`.
    pub name: String,
    /// The request `titanc` would build from the case's command line.
    pub request: CompileRequest,
}

/// The directory the golden files live in.
pub fn dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Every case, in file-name order.
pub fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (path, src) in sweep::corpus_files() {
        let stem = path.rsplit('/').next().unwrap().trim_end_matches(".c");
        let file = SourceFile::new(format!("corpus/{stem}.c"), src);
        for (label, options) in sweep::option_sets() {
            let request = CompileRequest {
                print_il: true,
                ..request(&options, vec![file.clone()])
            };
            let slug = label.to_lowercase().replace(' ', "-");
            cases.push(Case {
                name: format!("{stem}.{slug}.txt"),
                request,
            });
        }
    }
    let parallel = Options {
        parallelize: true,
        ..Options::o2()
    };
    cases.push(Case {
        name: "mp9.o2-parallel.txt".to_string(),
        request: request(&parallel, mp9_files()),
    });
    cases.sort_by(|a, b| a.name.cmp(&b.name));
    cases
}

/// The `mp9`-shaped session: `k0.c` … `k7.c`, each one 30-loop
/// [`many_loops_source`] procedure `kernelK`, and a `main.c` that calls
/// each. At `-O2` `main`'s growth budget admits two expansions and skips
/// the other six sites.
pub fn mp9_files() -> Vec<SourceFile> {
    let mut files: Vec<SourceFile> = (0..8)
        .map(|k| SourceFile::new(format!("k{k}.c"), many_loops_source(k, 30)))
        .collect();
    let calls: String = (0..8)
        .map(|k| format!("    kernel{k}({});\n", k + 1))
        .collect();
    let main = format!("int main(void)\n{{\n{calls}    return 0;\n}}\n");
    files.push(SourceFile::new("main.c", main));
    files
}

/// The `--stats --opt-report=json` request for `options` over `files`.
fn request(options: &Options, files: Vec<SourceFile>) -> CompileRequest {
    CompileRequest {
        files,
        opt: match options.opt {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
        },
        parallelize: options.parallelize,
        spread_lists: options.spread_lists,
        fortran_aliasing: options.aliasing == Aliasing::Fortran,
        inline: options.inline,
        stats: true,
        opt_report: "json".to_string(),
        ..CompileRequest::default()
    }
}

/// The command line `req` stands for, without `-j` (every job count
/// prints the same bytes).
fn command_line(req: &CompileRequest) -> String {
    let mut words = vec!["titanc".to_string(), format!("-O{}", req.opt)];
    let flags = [
        (req.parallelize, "--parallel"),
        (req.spread_lists, "--spread-lists"),
        (req.fortran_aliasing, "--fortran-aliasing"),
        (!req.inline && req.opt == 2, "--no-inline"),
        (req.print_il, "--print-il"),
        (req.stats, "--stats"),
    ];
    words.extend(flags.iter().filter(|f| f.0).map(|f| f.1.to_string()));
    words.push(format!("--opt-report={}", req.opt_report));
    words.extend(req.files.iter().map(|f| f.name.clone()));
    words.join(" ")
}

/// The golden file of `case` compiled on `jobs` lanes: the command line,
/// the exit code, then stderr and stdout exactly as `titanc` writes them.
pub fn render_case(case: &Case, jobs: usize) -> String {
    let options = Options {
        jobs,
        ..case.request.options()
    };
    let result = compile_session(&case.request.files, &options, None);
    let (stdout, stderr, exit) = render(&case.request, &result, false);
    format!(
        "$ {}\nexit {exit}\n--- stderr\n{stderr}--- stdout\n{stdout}",
        command_line(&case.request)
    )
}

/// The golden file [`render_cache_dir`] is held to.
pub const CACHE_DIR_FILE: &str = "mp9.o2-parallel.cache-dir.txt";

/// Every golden file name, sorted: one per [`cases`] entry and
/// [`CACHE_DIR_FILE`].
pub fn file_names() -> Vec<String> {
    let mut names: Vec<String> = cases().into_iter().map(|c| c.name).collect();
    names.push(CACHE_DIR_FILE.to_string());
    names.sort();
    names
}

/// The `--cache-dir` of the `mp9` session at `-O2 --parallel` on `jobs`
/// lanes, after each of four compiles into one fresh directory: cold,
/// warm, after `main.c` gains a procedure, and warm again. Each phase is
/// a `---` line with the phase and its `titanc: cache:` line, then one
/// line per file — its path under the directory and the digest of its
/// bytes — in path order. Cache keys, file names and envelope bytes are
/// all the cache's, so a change to any of them lands as this file's diff.
pub fn render_cache_dir(jobs: usize) -> String {
    let dir = Scratch::new(&format!("golden-cache-dir-j{jobs}"));
    let options = Options {
        jobs,
        parallelize: true,
        ..Options::o2()
    };
    let mut files = mp9_files();
    let mut out = String::new();
    for phase in ["cold", "warm", "edit", "warm again"] {
        if phase == "edit" {
            let main = files.last_mut().expect("mp9 has a main.c");
            main.src.push_str("\nint e(int q) { return q + 1; }\n");
        }
        let session =
            compile_session(&files, &options, Some(&dir)).expect("the mp9 session compiles");
        let _ = writeln!(out, "--- {phase}: {}", cache_line(&session.stats));
        for (name, bytes) in files_under(&dir, &dir) {
            let _ = writeln!(out, "{name} {}", wire::digest(&bytes));
        }
    }
    out
}

/// Every file below `dir`, as (path relative to `root`, bytes), sorted.
fn files_under(root: &Path, dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).expect("the cache directory lists") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            found.extend(files_under(root, &path));
        } else {
            let name = path.strip_prefix(root).unwrap().display().to_string();
            found.push((name, fs::read(&path).expect("a cache file reads")));
        }
    }
    found.sort();
    found
}
