//! `--cache-dir` changes where optimized IL comes from, never what
//! `titanc` prints: the same command with and without a (cold) cache
//! directory must produce byte-identical stdout and stderr once the
//! `titanc: cache:` accounting line is dropped. Both shapes are one-file
//! sessions through the one compile driver, so the shadow-warning wording
//! and the `lower` snapshot / post-lower verification of catalog-linked
//! procedures cannot depend on the flag.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const LIB: &str = "\
void fill(float *x, int n) { int i; for (i = 0; i < n; i++) x[i] = 1.0f; }
";

const CALLER: &str = "\
float a[64];
int main(void) { fill(a, 64); return 0; }
";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titanc-parity-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn titanc(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_titanc"))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap()
}

/// Writes `lib.c` and its §7 catalog `lib.cat` into `dir`.
fn emit_catalog(dir: &Path) {
    std::fs::write(dir.join("lib.c"), LIB).unwrap();
    let out = titanc(dir, &["--emit-catalog", "lib.cat", "lib.c"]);
    assert!(out.status.success(), "{out:?}");
}

/// Runs `args` plain and again with a fresh `--cache-dir`; returns the
/// shared `(stdout, stderr)` after asserting the two runs agree.
fn assert_parity(dir: &Path, args: &[&str]) -> (String, String) {
    let plain = titanc(dir, args);
    let cached = titanc(dir, &[args, &["--cache-dir", "cache"]].concat());
    let text = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).unwrap();
    let (plain_err, cached_err) = (text(&plain.stderr), text(&cached.stderr));
    let is_cache_line = |l: &&str| l.starts_with("titanc: cache:");
    assert_eq!(plain_err.lines().filter(is_cache_line).count(), 0);
    let without_cache_line: Vec<&str> = cached_err.lines().filter(|l| !is_cache_line(l)).collect();
    assert_eq!(
        plain_err.lines().collect::<Vec<_>>(),
        without_cache_line,
        "stderr depends on --cache-dir for {args:?}"
    );
    assert_eq!(plain.status.code(), cached.status.code(), "{args:?}");
    assert_eq!(
        text(&plain.stdout),
        text(&cached.stdout),
        "stdout depends on --cache-dir for {args:?}"
    );
    (text(&plain.stdout), plain_err)
}

#[test]
fn shadow_warning_names_the_file_either_way() {
    let dir = scratch("shadow");
    emit_catalog(&dir);
    std::fs::write(dir.join("a.c"), format!("{LIB}{CALLER}")).unwrap();
    let (_, err) = assert_parity(&dir, &["a.c", "--catalog", "lib.cat"]);
    assert!(
        err.contains("procedure `fill` from catalog `lib` is shadowed by `a.c`"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn catalog_procedures_get_a_lower_snapshot_either_way() {
    let dir = scratch("snapshots");
    emit_catalog(&dir);
    std::fs::write(dir.join("b.c"), CALLER).unwrap();
    let args = [
        "-O1",
        "--snapshots",
        "--verify",
        "b.c",
        "--catalog",
        "lib.cat",
    ];
    let (out, _) = assert_parity(&dir, &args);
    assert!(out.contains("===== fill after lower ====="), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn syntax_errors_render_the_same_either_way() {
    let dir = scratch("syntax");
    std::fs::write(
        dir.join("bad.c"),
        "void f(void)\n{\n    int x;\n    x = ;\n}\n",
    )
    .unwrap();
    let (out, err) = assert_parity(&dir, &["bad.c"]);
    assert!(out.is_empty());
    assert!(err.starts_with("bad.c:4:"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for e in std::fs::read_dir(&at).unwrap() {
            let path = e.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    files.sort();
    files
}

/// A fully warm compile runs the same pipeline a cold one does, with
/// everything replayed, and must write nothing: with every write and
/// rename made to fail, it still reports no failed write and leaves the
/// directory byte for byte as the priming run left it.
#[test]
fn a_fully_warm_compile_writes_nothing() {
    let dir = scratch("warm-writes");
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut args: Vec<String> = ["daxpy.c", "blaslib.c"]
        .iter()
        .map(|f| corpus.join(f).to_string_lossy().into_owned())
        .collect();
    args.extend(["--cache-dir".to_string(), "cache".to_string()]);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let primed = titanc(&dir, &args);
    assert!(primed.status.success(), "{primed:?}");
    let before = tree(&dir.join("cache"));

    let warm = Command::new(env!("CARGO_BIN_EXE_titanc"))
        .current_dir(&dir)
        .args(&args)
        .env("TITANC_INJECT_IO", "write:fail:1,rename:fail:1")
        .output()
        .unwrap();
    assert!(warm.status.success(), "{warm:?}");
    let stderr = String::from_utf8(warm.stderr).unwrap();
    assert!(
        stderr.contains("0 pass execution(s) (fully warm)"),
        "{stderr}"
    );
    assert!(stderr.contains("0 write-failed"), "{stderr}");
    assert!(tree(&dir.join("cache")) == before, "the directory moved");
    let _ = std::fs::remove_dir_all(&dir);
}
