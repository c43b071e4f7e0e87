//! Cross-crate pipeline facts that don't fit a single crate's unit tests:
//! catalog workflows, option interactions, report plumbing, and IL
//! pretty-printer round-trips through the whole stack.

use titanc_repro::il::{Catalog, ScalarType};
use titanc_repro::titan::{MachineConfig, Simulator};
use titanc_repro::titanc::{compile, compile_and_run, Aliasing, Options};

#[test]
fn catalog_file_round_trip_through_driver() {
    let lib = titanc_lower::compile_to_il("float twice(float x) { return x * 2.0f; }").unwrap();
    let catalog = Catalog::from_program("m", &lib);
    let dir = std::env::temp_dir().join("titanc-int-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.json");
    catalog.save(&path).unwrap();
    let loaded = Catalog::load(&path).unwrap();

    let c = compile(
        "float twice(float x);\nint main(void) { return (int)twice(21.0f); }",
        &Options {
            catalogs: vec![loaded],
            ..Options::o2()
        },
    )
    .unwrap();
    assert_eq!(c.reports.count("expanded"), 1);
    let mut sim = Simulator::new(&c.program, MachineConfig::default());
    assert_eq!(sim.run("main", &[]).unwrap().value.unwrap().as_int(), 42);
}

#[test]
fn missing_catalog_procedure_is_a_runtime_error_not_a_compile_error() {
    let c = compile(
        "void missing(void);\nint main(void) { missing(); return 0; }",
        &Options::o2(),
    )
    .unwrap();
    let mut sim = Simulator::new(&c.program, MachineConfig::default());
    let err = sim.run("main", &[]).unwrap_err();
    assert!(err.message.contains("undefined procedure"));
}

#[test]
fn strip_length_option_respected() {
    let src = r#"
float a[100], b[100];
int main(void) { int i; for (i = 0; i < 100; i++) a[i] = b[i]; return 0; }
"#;
    let c = compile(
        src,
        &Options {
            strip: 16,
            ..Options::parallel()
        },
    )
    .unwrap();
    let text = titanc_repro::il::pretty_proc(c.program.proc_by_name("main").unwrap());
    assert!(text.contains("min(16,"), "{text}");
}

#[test]
fn max_vl_splits_large_single_vectors() {
    let src = r#"
float a[4096], b[4096];
int main(void) { int i; for (i = 0; i < 4096; i++) a[i] = b[i]; return 0; }
"#;
    let c = compile(src, &Options::o2()).unwrap();
    let text = titanc_repro::il::pretty_proc(c.program.proc_by_name("main").unwrap());
    // 4096 > 2048: must strip-mine even without parallelization
    assert!(text.contains("min(2048,"), "{text}");
    let (obs, _) = titanc_repro::titan::observe(
        &c.program,
        MachineConfig::default(),
        "main",
        &[("a", ScalarType::Float, 4096)],
    )
    .unwrap();
    assert_eq!(obs.value.unwrap().as_int(), 0);
}

#[test]
fn fortran_aliasing_option_is_dangerous_but_available() {
    // with actually-overlapping pointers, Fortran semantics miscompiles —
    // exactly why it is an option (§9). We only check it *changes* the
    // compilation, not the (undefined) result.
    let src = r#"
float buf[64];
int main(void)
{
    float *a, *b;
    int n;
    a = &buf[1];
    b = &buf[0];
    n = 32;
    while (n) { *a++ = *b++ + 1.0f; n--; }
    return 0;
}
"#;
    let c_strict = compile(src, &Options::o2()).unwrap();
    assert_eq!(
        c_strict.reports.count("vectorized"),
        0,
        "overlap detected: same base"
    );
    let c_fortran = compile(
        src,
        &Options {
            aliasing: Aliasing::Fortran,
            ..Options::o2()
        },
    )
    .unwrap();
    // same-base references are still tested precisely — even Fortran
    // semantics does not license ignoring a provable overlap
    assert_eq!(c_fortran.reports.count("vectorized"), 0);
}

/// `main` calling down a chain of `depth` procedures, each adding one.
/// Declared top-down so one inlining round expands exactly one layer
/// (declared bottom-up, the round's in-order sweep cascades fully).
fn call_chain(depth: usize) -> String {
    let mut src: String = (1..=depth)
        .rev()
        .map(|k| format!("int l{k}(int x);\n"))
        .collect();
    src += &format!("int main(void) {{ return l{depth}(0); }}\n");
    for k in (2..=depth).rev() {
        src += &format!("int l{k}(int x) {{ return l{}(x) + 1; }}\n", k - 1);
    }
    src + "int l1(int x) { return x + 1; }\n"
}

fn calls_in_main(c: &titanc_repro::titanc::Compilation) -> Vec<String> {
    let mut calls = Vec::new();
    c.program
        .proc_by_name("main")
        .unwrap()
        .for_each_stmt(&mut |_, kind| {
            if let titanc_repro::il::StmtKind::Call { callee, .. } = kind {
                calls.push(callee.clone());
            }
        });
    calls
}

#[test]
fn inline_depth_limits_nested_expansion() {
    // the inliner runs `MAX_DEPTH` rounds. In each, a procedure expands
    // its callee's body as the previous round left it, so the layers
    // `main` has absorbed double plus one per round (1, 3, 7, 15): a
    // chain that deep leaves `main` call-free, one layer more leaves the
    // innermost call standing
    let depth = (1 << titanc_inline::MAX_DEPTH) - 1;
    let full = compile(&call_chain(depth), &Options::o2()).unwrap();
    assert!(calls_in_main(&full).is_empty());
    let cut = compile(&call_chain(depth + 1), &Options::o2()).unwrap();
    assert_eq!(calls_in_main(&cut), ["l1"]);
    // both still compute their depth
    for (c, want) in [(&full, depth), (&cut, depth + 1)] {
        let mut sim = Simulator::new(&c.program, MachineConfig::default());
        let got = sim.run("main", &[]).unwrap().value.unwrap().as_int();
        assert_eq!(got, want as i64);
    }
}

#[test]
fn compile_and_run_propagates_simulator_faults() {
    let err = compile_and_run(
        "int main(void) { int z; z = 0; return 1 / z; }",
        &Options::o0(),
        MachineConfig::default(),
        "main",
    )
    .unwrap_err();
    assert!(err.contains("division"), "{err}");
}

#[test]
fn print_output_is_ordered_across_inlined_calls() {
    let src = r#"
void shout(int x) { print_int(x); }
int main(void) { shout(1); shout(2); shout(3); return 0; }
"#;
    for opts in [Options::o0(), Options::o2()] {
        let c = compile(src, &opts).unwrap();
        let mut sim = Simulator::new(&c.program, MachineConfig::default());
        let r = sim.run("main", &[]).unwrap();
        assert_eq!(r.stats.output, vec!["1", "2", "3"]);
    }
}

#[test]
fn two_dimensional_iteration_vectorizes_inner_loop() {
    let src = r#"
float m[32][32], v[32][32];
int main(void)
{
    int i, j;
    for (i = 0; i < 32; i++)
        for (j = 0; j < 32; j++)
            m[i][j] = v[i][j] * 2.0f;
    return 0;
}
"#;
    let c = compile(src, &Options::o2()).unwrap();
    assert!(
        c.reports.count("vectorized") >= 1,
        "inner loop vectorizes: {:?}\n{}",
        c.reports.loops,
        titanc_repro::il::pretty_proc(c.program.proc_by_name("main").unwrap())
    );
    let (obs, _) = titanc_repro::titan::observe(
        &c.program,
        MachineConfig::default(),
        "main",
        &[("m", ScalarType::Float, 1024)],
    )
    .unwrap();
    let (base_obs, _) = {
        let b = compile(src, &Options::o0()).unwrap();
        titanc_repro::titan::observe(
            &b.program,
            MachineConfig::default(),
            "main",
            &[("m", ScalarType::Float, 1024)],
        )
        .unwrap()
    };
    assert_eq!(obs, base_obs);
}

#[test]
fn simulator_flop_accounting_matches_kernel_math() {
    // daxpy does 2 flops per element
    let src = r#"
float a[64], b[64], c[64];
int main(void)
{
    int i;
    for (i = 0; i < 64; i++)
        a[i] = b[i] + 2.0f * c[i];
    return 0;
}
"#;
    let c = compile(src, &Options::o2()).unwrap();
    let mut sim = Simulator::new(&c.program, MachineConfig::default());
    let r = sim.run("main", &[]).unwrap();
    assert_eq!(r.stats.flops, 128, "2 flops x 64 elements");
}
