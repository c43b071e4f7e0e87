//! The `titanc` exit-code contract, end to end through the real binary:
//! `0` success, `1` source diagnostics, `2` usage error, `3` a contained
//! pass incident under `--strict`.

use std::path::PathBuf;
use std::process::{Command, Output};
use titanc_il::{BinOp, Catalog, ProcBuilder, Type, VarId};

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

/// A strip loop steps by the strip length: a negative one ran zero
/// iterations (exit 0, the arrays never written) and zero failed in the
/// simulator. Both are usage errors now, named, before anything compiles.
#[test]
fn a_strip_length_below_one_is_a_usage_error() {
    let src = write_temp("strip.c", GOOD);
    for strip in ["-3", "0"] {
        let out = titanc()
            .args(["--parallel", "--procs", "2", "--run", "--strip", strip])
            .arg(&src)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--strip {strip}");
        assert!(out.stdout.is_empty(), "--strip {strip}");
        let err = stderr_of(&out);
        assert!(err.contains("`strip` must be at least 1"), "{err}");
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

/// A panic inside `--run`'s simulator is contained: one `titanc:
/// internal error` line, exit 3, never Rust's 101 and its backtrace.
#[test]
fn a_simulator_panic_exits_three() {
    let src = write_temp("inject-run.c", GOOD);
    let out = titanc()
        .env("TITANC_INJECT_PANIC", "--run")
        .args(["--run"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("titanc: internal error: injected fault in the simulator"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "noisy containment:\n{err}");
    // only the `--run` path reads that value
    let out = titanc()
        .env("TITANC_INJECT_PANIC", "--run")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
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
fn assigning_to_an_array_name_exits_one() {
    // it once lowered, and `--run` then panicked with exit 101
    let src = write_temp(
        "array-assign.c",
        "int out_g[16];\nint main(void)\n{\n    out_g = 1;\n    return 0;\n}\n",
    );
    let out = titanc().arg("--run").arg(&src).output().unwrap();
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains(":4:") && err.contains("assignment to an array"),
        "{err}"
    );
}

/// A `goto` without its label once compiled (exit 0 in release, and
/// `--run` failed in the simulator), a label defined twice ran silently,
/// and `break` / `continue` / a second `default` outside their place were
/// reported without a position. Each is a source error at `file:line:col:`.
#[test]
fn label_and_jump_mistakes_exit_one_at_their_position() {
    for (name, body, want) in [
        (
            "goto.c",
            "    goto nowhere;\n",
            "goto.c:3:5: label `nowhere` used but not defined",
        ),
        (
            "dup.c",
            "l:  ;\nl:  goto l;\n",
            "dup.c:4:1: duplicate label `l`",
        ),
        ("brk.c", "    break;\n", "brk.c:3:5: break outside a loop"),
        (
            "cont.c",
            "    continue;\n",
            "cont.c:3:5: continue outside a loop",
        ),
        (
            "default.c",
            "    switch (1) { default: break; default: break; }\n",
            "default.c:3:34: duplicate default label",
        ),
    ] {
        let src = write_temp(
            name,
            &format!("int main(void)\n{{\n{body}    return 0;\n}}\n"),
        );
        for args in [&["--run"][..], &["--verify"][..]] {
            let out = titanc().args(args).arg(&src).output().unwrap();
            let err = stderr_of(&out);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {err}");
            assert!(err.contains(want), "{name} {args:?}: {err}");
        }
    }
}

/// `void` has no size. `sizeof(void)`, stepping or indexing a `void *`,
/// the difference of two and a `void` struct field once panicked the
/// lowerer (exit 101); a `void` object once compiled and panicked the
/// simulator under `--run`. Each is a source error at `file:line:col:`.
#[test]
fn a_void_size_exits_one_at_its_position() {
    for (name, src, want) in [
        (
            "sizeof.c",
            "int main(void) { return sizeof(void); }",
            ":1:25:",
        ),
        (
            "index.c",
            "int main(void) { void *p; p = 0; p[1]; return 0; }",
            ":1:34:",
        ),
        (
            "sub.c",
            "int main(void) { void *p; p = 0; p = p - 1; return 0; }",
            ":1:38:",
        ),
        (
            "inc.c",
            "int main(void) { void *p; p = 0; p++; return 0; }",
            ":1:34:",
        ),
        (
            "diff.c",
            "int main(void) { void *p, *q; p = q = 0; return p - q; }",
            ":1:49:",
        ),
        ("field.c", "struct s { void v; };", ":1:1:"),
        ("local.c", "int main(void) { void x; return 0; }", ":1:18:"),
        (
            "local-array.c",
            "int main(void) { void a[3]; return 0; }",
            ":1:18:",
        ),
        ("global.c", "void g;", ":1:1:"),
        ("global-array.c", "void g[2];", ":1:1:"),
    ] {
        let path = write_temp(name, &format!("{src}\nint f(void) {{ return 0; }}\n"));
        for level in ["-O0", "-O2"] {
            let out = titanc().args([level, "--run"]).arg(&path).output().unwrap();
            let err = stderr_of(&out);
            assert_eq!(out.status.code(), Some(1), "{name} {level}: {err}");
            assert!(
                err.contains(&format!("{name}{want}")) && err.contains("has no size"),
                "{name} {level}: {err}"
            );
        }
    }
}

/// A struct is incomplete until its closing brace: a field of its own type
/// once laid out at size 0, so `g.inner.a = 1` stored past `g`. A pointer
/// to it is complete, and `--run` exits with `main`'s `sizeof`.
#[test]
fn a_struct_that_contains_itself_exits_one_at_the_field() {
    for (name, field, want) in [
        ("self.c", "struct s inner;", ":1:28:"),
        ("self-array.c", "struct s arr[2];", ":1:28:"),
    ] {
        let src = format!(
            "struct s {{ int a; {field} }};\nstruct s g;\n\
             int main(void) {{ g.a = 1; return 0; }}\n"
        );
        let path = write_temp(name, &src);
        for level in ["-O0", "-O2"] {
            let out = titanc().args([level, "--run"]).arg(&path).output().unwrap();
            let err = stderr_of(&out);
            assert_eq!(out.status.code(), Some(1), "{name} {level}: {err}");
            assert!(
                err.contains(&format!("{name}{want}"))
                    && err.contains("incomplete type `struct s`"),
                "{name} {level}: {err}"
            );
        }
    }
    let path = write_temp(
        "self-pointer.c",
        "struct u { int a; struct u *next; };\nstruct u g;\n\
         int main(void) { g.next = &g; g.next->a = 3; return sizeof(struct u) + g.a; }\n",
    );
    let out = titanc().args(["-O0", "--run"]).arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(11), "{}", stderr_of(&out));
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

/// `--no-inline` once clobbered by a later `-O2`: both flag orders must
/// report the same `--stats` inline line, and it must say nothing was
/// expanded.
#[test]
fn no_inline_composes_with_the_level_in_either_order() {
    let src = write_temp("order.c", GOOD);
    let inline_line = |args: &[&str]| {
        let out = titanc()
            .args(args)
            .arg("--stats")
            .arg(&src)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            stderr_of(&out)
        );
        let line = text.lines().find(|l| l.starts_with("inline:"));
        line.unwrap_or_else(|| panic!("no inline line:\n{text}"))
            .to_string()
    };
    let before = inline_line(&["--no-inline", "-O2"]);
    assert_eq!(before, inline_line(&["-O2", "--no-inline"]));
    assert!(before.contains(" 0 sites"), "{before}");
    assert!(inline_line(&["-O2"]).contains(" 1 sites"));
    assert!(inline_line(&["-O1"]).contains(" 0 sites"));
}

/// A catalog whose struct table differs from its consumer's (`pt` is the
/// library's struct 0, `small` the application's) once had its layouts
/// appended without remapping the ids in the linked procedures: `p` was
/// laid out as a `small`, its stores clobbered `q`, and `--catalog` runs
/// exited 6. Every path must observe what the same file observes.
#[test]
fn struct_carrying_catalog_runs_like_the_same_file() {
    let lib = "struct pt {float x,y,z,w;}; float norm1(float a,float b){struct pt p; \
               float q[2]; q[0]=100.0f; q[1]=200.0f; p.x=a; p.y=b; p.z=a+b; p.w=a-b; \
               return q[0]+q[1]+p.x;}\n";
    let app = "struct small {int k;}; float norm1(float,float); int main(){struct small s; \
               float r; s.k=3; r=norm1(1.0f,2.0f); return ((int)r+s.k)%251;}\n";
    let lib_c = write_temp("ptlib.c", lib);
    let app_c = write_temp("ptapp.c", app);
    let same_c = write_temp("ptsame.c", &format!("{lib}{app}"));
    let cat = lib_c.with_extension("cat");
    let emit = titanc()
        .arg("--emit-catalog")
        .arg(&cat)
        .arg(&lib_c)
        .output()
        .unwrap();
    assert_eq!(emit.status.code(), Some(0), "{}", stderr_of(&emit));

    let exit_of = |args: &[&str], files: &[&PathBuf]| {
        let out = titanc()
            .args(args)
            .arg("--run")
            .args(files)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned() + &stderr_of(&out);
        let exit = text.rsplit_once("exit ").map(|(_, n)| n.trim().to_string());
        exit.unwrap_or_else(|| panic!("no `[titan] … exit N` line for {args:?}:\n{text}"))
    };
    assert_eq!(exit_of(&[], &[&same_c]), "53");
    assert_eq!(exit_of(&[], &[&lib_c, &app_c]), "53");
    let cat = cat.to_str().unwrap();
    for level in [
        &["-O0", "--verify"][..],
        &["-O2"],
        &["-O2", "--no-inline"],
        &["--no-inline", "-O2"],
    ] {
        let args = [level, &["--catalog", cat]].concat();
        assert_eq!(exit_of(&args, &[&app_c]), "53", "{level:?}");
    }
}

/// A catalog is input from outside the program: one whose IL reads a
/// variable the procedure does not have once reached the simulator and
/// panicked (exit 101), or printed as `b = (a + v9)` under `--print-il`.
/// It is refused when it loads, on every path, like any unreadable file —
/// and so is a catalog in the JSON form catalogs had before they became
/// sealed wire bytes, with the remedy named.
#[test]
fn a_catalog_with_invalid_il_exits_one() {
    let app_c = write_temp(
        "twice_app.c",
        "int twice(int); int main(){return twice(21);}\n",
    );
    // `int twice(int a) { return a + v9; }`: `save` does not verify
    let mut b = ProcBuilder::new("twice", Type::Int);
    let a = b.param("a", Type::Int);
    let av = b.var(a);
    let wild = b.var(VarId::from_index(9));
    let sum = b.ibinary(BinOp::Add, av, wild);
    b.ret(Some(sum));
    let mut catalog = Catalog::new("twice");
    catalog.add(b.finish());
    let bad = app_c.with_file_name("twice.cat");
    catalog.save(&bad).unwrap();
    let json = write_temp("twice.json", TWICE_JSON);
    let cases = [
        (&bad, "malformed catalog: variable id out of range at byte "),
        (
            &json,
            "not a titanc-catalog-v2 file; re-emit it with --emit-catalog\n",
        ),
    ];
    for (file, why) in cases {
        for args in [&["--run"][..], &["--print-il"], &["--verify", "--run"]] {
            let out = titanc()
                .args(args)
                .arg("--catalog")
                .arg(file)
                .arg(&app_c)
                .output()
                .unwrap();
            let err = stderr_of(&out);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            let want = format!("titanc: cannot load catalog {}: {why}", file.display());
            assert!(err.starts_with(&want), "{args:?}: {err}");
            assert!(out.stdout.is_empty(), "{args:?}");
        }
    }
}

/// `titanc --emit-catalog twice.json` of `int twice(int a){int b; b=a+a;
/// return b;}`, as it was written while catalogs were JSON.
const TWICE_JSON: &str = r#"{"name":"twice","procs":[{"name":"twice","ret":"Int","params":[0],"vars":[{"name":"a","ty":"Int","storage":"Param","volatile":false,"addressed":false,"init":null},{"name":"b","ty":"Int","storage":"Auto","volatile":false,"addressed":false,"init":null}],"num_labels":0,"body":[{"id":0,"kind":{"Assign":{"lhs":{"Var":1},"rhs":{"Binary":{"op":"Add","ty":"Int","lhs":{"Var":0},"rhs":{"Var":0}}}}}},{"id":1,"kind":{"Return":{"Var":1}}}],"next_stmt":2,"next_temp":0}],"structs":[],"globals":[]}"#;
