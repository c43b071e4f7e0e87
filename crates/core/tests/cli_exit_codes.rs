//! The `titanc` exit-code contract, end to end through the real binary:
//! `0` success, `1` source diagnostics, `2` usage error, `3` a contained
//! pass incident under `--strict`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn titanc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_titanc"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titanc-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const GOOD: &str = "\
float a[64], b[64];
void axpy(void) { int i; for (i = 0; i < 64; i++) a[i] = a[i] + 2.0f * b[i]; }
int main(void) { axpy(); return 0; }
";

#[test]
fn success_exits_zero() {
    let src = write_temp("good.c", GOOD);
    let out = titanc().arg(&src).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
}

#[test]
fn source_errors_exit_one_and_report_each_mistake() {
    let src = write_temp(
        "bad.c",
        "void f(void)\n{\n    int x;\n    x = ;\n    x = 1;\n    y 2;\n}\n",
    );
    let out = titanc().arg(&src).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    // the recovering parser reports both independent mistakes, with
    // real line:col positions
    assert!(err.contains(":4:"), "missing first diagnostic:\n{err}");
    assert!(err.contains(":6:"), "missing second diagnostic:\n{err}");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["--definitely-not-a-flag"][..],
        &[][..],
        &["--procs", "9", "x.c"][..],
        &["--jobs", "banana", "x.c"][..],
    ] {
        let out = titanc().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}

#[test]
fn contained_incident_exits_zero_without_strict() {
    let src = write_temp("inject.c", GOOD);
    let out = titanc()
        .env("TITANC_INJECT_PANIC", "axpy")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("panic in pass `inject-panic` on `axpy`"),
        "incident not reported:\n{err}"
    );
    // the contained panic must not echo through the default hook
    assert!(
        !err.contains("stack backtrace"),
        "noisy containment:\n{err}"
    );
}

#[test]
fn contained_incident_exits_three_under_strict() {
    let src = write_temp("inject-strict.c", GOOD);
    for jobs in ["1", "4"] {
        let out = titanc()
            .env("TITANC_INJECT_PANIC", "axpy")
            .args(["--strict", "-j", jobs])
            .arg(&src)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3), "-j {jobs}: {}", stderr_of(&out));
    }
}

#[test]
fn degraded_program_still_runs_correctly() {
    // the faulty procedure is rolled back to its last-verified IL, so the
    // compiled program must still execute and return main's value
    let src = write_temp(
        "degraded-run.c",
        "\
float a[8];
int poke(void) { int i; for (i = 0; i < 8; i++) a[i] = 1.0f; return 5; }
int main(void) { return poke(); }
",
    );
    let out = titanc()
        .env("TITANC_INJECT_PANIC", "poke")
        .args(["--run"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "{}", stderr_of(&out));
}

#[test]
fn wild_pointer_is_a_simulator_fault_not_a_crash() {
    // 0xfffffffc + 4 wraps in 32 bits; the range check must not
    let load = "int main(void){int *p; p=(int*)0; p=p-1; return *p;}\n";
    let store = "int main(void){int *p; p=(int*)0; p=p-1; *p=7; return 0;}\n";
    for (name, body) in [("wild-load.c", load), ("wild-store.c", store)] {
        let src = write_temp(name, body);
        for level in ["-O0", "-O2"] {
            let out = titanc().args([level, "--run"]).arg(&src).output().unwrap();
            let err = stderr_of(&out);
            assert_eq!(out.status.code(), Some(1), "{name} {level}: {err}");
            assert!(
                err.contains("memory access out of range"),
                "{name} {level}: {err}"
            );
            assert!(!err.contains("panicked"), "{name} {level}: {err}");
        }
    }
}

#[test]
fn max_errors_caps_reported_diagnostics() {
    let mut body = String::from("void f(void) {\n");
    for _ in 0..30 {
        body.push_str("    x = ;\n");
    }
    body.push_str("}\n");
    let src = write_temp("cascade.c", &body);
    let out = titanc()
        .args(["--max-errors", "3"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    let reported = err
        .lines()
        .filter(|l| l.contains("expected expression"))
        .count();
    assert_eq!(reported, 3, "cap not applied:\n{err}");
}

#[test]
fn scalar_loop_remark_names_the_dependence() {
    let src = write_temp(
        "recurrence.c",
        "\
float a[100];
int main(void)
{
    int i;
    for (i = 1; i < 100; i++) a[i] = a[i-1] + 1.0f;
    return 0;
}
",
    );
    let out = titanc().arg(&src).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let err = stderr_of(&out);
    assert!(
        err.contains("remark") && err.contains("left scalar") && err.contains("loop-carried"),
        "no vectorization remark:\n{err}"
    );
}
