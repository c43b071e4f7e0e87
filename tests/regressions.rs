//! Regression tests for miscompiles found by the property-based suite and
//! the experiment harness during development. Each one is a distilled
//! program that once diverged between optimization levels.

use titanc_repro::il::ScalarType;
use titanc_repro::titan::{observe, observe_with, ExecEngine, MachineConfig};
use titanc_repro::titanc::{compile, Count, OptReport, Options};

fn check(src: &str, globals: &[(&str, ScalarType, u32)]) {
    let base = compile(src, &Options::o0()).expect("O0");
    let (expect, _) =
        observe(&base.program, MachineConfig::default(), "main", globals).expect("O0 runs");
    for (name, opts) in [
        ("O1", Options::o1()),
        ("O2", Options::o2()),
        ("O2-parallel", Options::parallel()),
    ] {
        let c = compile(src, &opts).unwrap();
        let (got, _) = observe(&c.program, MachineConfig::optimized(2), "main", globals)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(expect, got, "{name} diverged");
    }
}

/// Hoisting `vd = 11` above an earlier read of `vd` gave the first
/// iteration the wrong value (found by proptest).
#[test]
fn hoist_must_not_pass_prior_reads() {
    check(
        r#"
int out_g[16];
float out_f[16];
int main(void)
{
    int va, vd, li;
    va = 1; vd = 4;
    for (li = 0; li < 1; li++) {
        if (li) {
            va = 2;
        } else {
            out_f[1] = (0 - vd) * 0.5f;
            out_g[li] = 1;
        }
        vd = 11;
    }
    return va;
}
"#,
        &[
            ("out_g", ScalarType::Int, 16),
            ("out_f", ScalarType::Float, 16),
        ],
    );
}

/// An array name on the left of `=`, a compound assignment or `++`/`--`
/// lowered to a pointer store the simulator could not execute (it
/// panicked); it is a source error with the statement's position.
#[test]
fn assigning_to_an_array_name_is_a_source_error() {
    for stmt in ["out_g = 1;", "out_g += 1;", "out_g++;", "--out_g;"] {
        let src = format!("int out_g[16];\nint main(void)\n{{\n    {stmt}\n    return 0;\n}}\n");
        let err = compile(&src, &Options::o0()).expect_err(stmt);
        let d = &err.diagnostics[0];
        assert!(d.message.contains("an array"), "{stmt}: {}", d.message);
        assert_eq!(d.span.line, 4, "{stmt}: {}", d.message);
    }
}

/// Hoisting out of a zero-trip loop must not execute the assignment at
/// all when the variable is read afterwards.
#[test]
fn hoist_must_not_fire_for_zero_trip_loops() {
    check(
        r#"
int out_g[1];
int main(void)
{
    int v, li, n;
    v = 7;
    n = 0;
    for (li = 0; li < n; li++) {
        v = 99;
        out_g[0] = v;
    }
    return v;
}
"#,
        &[("out_g", ScalarType::Int, 1)],
    );
}

/// A countdown copy over overlapping pointers is a recurrence: the
/// distance must be computed in iteration space, not loop-variable space
/// (negative steps flipped true deps into anti deps and vectorized it).
#[test]
fn countdown_recurrence_must_not_vectorize() {
    let src = r#"
float buf[64];
int main(void)
{
    float *a, *b;
    int n;
    a = &buf[1];
    b = &buf[0];
    buf[0] = 1.0f;
    n = 32;
    while (n) { *a++ = *b++ + 1.0f; n--; }
    return (int)buf[32];
}
"#;
    let c = compile(src, &Options::o2()).unwrap();
    assert_eq!(
        c.reports.count("vectorized"),
        0,
        "recurrence wrongly vectorized"
    );
    check(src, &[("buf", ScalarType::Float, 64)]);
}

/// Multi-term affine bases (outer-loop offsets riding along) must still
/// disambiguate distinct named arrays — the 2-D copy failed to vectorize.
#[test]
fn two_d_distinct_arrays_vectorize() {
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
    assert!(c.reports.count("vectorized") >= 1, "{:?}", c.reports.loops);
    check(src, &[("m", ScalarType::Float, 1024)]);
}

/// Forward substitution across labels merged values from different paths
/// (the inlined `classify` returned 0 for every input).
#[test]
fn forward_substitution_stops_at_joins() {
    check(
        r#"
int classify(int x) { if (x > 10) return 2; if (x > 0) return 1; return 0; }
int out_g[3];
int main(void)
{
    out_g[0] = classify(-4);
    out_g[1] = classify(4);
    out_g[2] = classify(40);
    return out_g[0] + out_g[1] * 10 + out_g[2] * 100;
}
"#,
        &[("out_g", ScalarType::Int, 3)],
    );
}

/// An accumulation is not an induction variable: `s += i` must not be
/// "substituted" using the loop counter (the increment reads the loop
/// variable, which the DO header defines).
#[test]
fn accumulation_is_not_an_induction_variable() {
    check(
        "int out_g[1]; int main(void) { int i, s; s = 0; for (i = 1; i <= 10; i++) s += i; out_g[0] = s; return s; }",
        &[("out_g", ScalarType::Int, 1)],
    );
}

/// Inlining remapped memory-target addresses twice; when a caller variable
/// id collided with a callee id the store base changed arrays entirely
/// (found via the graphics-transform example: stores to `out_pts` landed
/// on `&in_transform_c`).
#[test]
fn inline_does_not_double_remap_store_addresses() {
    check(
        r#"
float xf[4], pts[8], out_pts[8];
void transform(void)
{
    int i;
    float acc;
    for (i = 0; i < 8; i++) {
        acc = xf[i & 3] * pts[i];
        out_pts[i] = acc;
    }
}
int main(void)
{
    int i;
    for (i = 0; i < 4; i++) xf[i] = i + 1;
    for (i = 0; i < 8; i++) pts[i] = i;
    transform();
    return (int)out_pts[7];
}
"#,
        &[("out_pts", ScalarType::Float, 8)],
    );
}

/// Stores inside an `If` body were invisible to the dependence graph, so
/// distribution hoisted a later store to the same cell above the branch
/// (found by proptest with the multi-procedure generator).
#[test]
fn distribution_sees_stores_inside_branches() {
    check(
        r#"
int out_g[16];
int main(void)
{
    int vb, li;
    vb = 2;
    for (li = 0; li < 1; li++) {
        if (vb - 1) {
            vb = 0;
            out_g[li] = 3 + li;
        }
        out_g[li] = 0;
    }
    return out_g[0];
}
"#,
        &[("out_g", ScalarType::Int, 16)],
    );
}

/// An inner loop vectorized into a Section statement left no memory
/// references in the outer loop's dependence graph, so distribution moved
/// a later store to the same array ahead of it (fuzzer case 1215).
#[test]
fn section_statements_constrain_outer_distribution() {
    check(
        r#"
int out_g[16];
int helper(int ha, int hb)
{
    int va, vb, l1;
    va = ha; vb = hb;
    for (l1 = 0; l1 < 11; l1++) {
        out_g[l1] = (va * (vb + -4));
    }
    return 4;
}
int main(void)
{
    int vd, l1;
    vd = 4;
    for (l1 = 0; l1 < 8; l1++) {
        out_g[l1] = helper((vd + vd), (vd + l1));
    }
    return 0;
}
"#,
        &[("out_g", ScalarType::Int, 16)],
    );
}

/// A CSE window that ended at an `if` redefining a dependence still
/// replaced the occurrences *inside* the `if`, past the redefinition, with
/// the temporary computed before it (found reading `cse.rs` against its
/// test reference; `forward` hides the shape unless the redefined
/// variable is read more than once, and inlining constants hide it again).
#[test]
fn cse_window_stops_at_a_nested_redefinition() {
    let src = r#"
int out_g[4];
int f(int a, int b, int c)
{
    int x, z, y;
    y = 0;
    x = (a * b + 1) * 2;
    z = (a * b + 1) * 3;
    if (c) { a = out_g[3]; out_g[3] = 1; y = (a * b + 1) * 2 + a * a; }
    out_g[0] = x; out_g[1] = z; out_g[2] = y;
    return y;
}
int main(void) { out_g[3] = 9; return f(3, 4, 2); }
"#;
    let globals = [("out_g", ScalarType::Int, 4)];
    let base = compile(src, &Options::o0()).expect("O0");
    let (expect, _) =
        observe(&base.program, MachineConfig::default(), "main", &globals).expect("O0 runs");
    let no_inline = Options {
        inline: false,
        ..Options::o2()
    };
    let c = compile(src, &no_inline).expect("O2");
    assert!(
        c.reports.get(Count::CseCommoned) > 0,
        "the shape no longer reaches cse"
    );
    let (got, _) =
        observe(&c.program, MachineConfig::optimized(2), "main", &globals).expect("O2 runs");
    assert_eq!(expect, got, "O2 --no-inline diverged");
}

/// The scalar dependence edges of a loop were collected per variable in
/// `HashMap` order, so the "dependence cycle among statements … (carried …
/// from statement N to …)" remark — stderr, the opt report, the recorded
/// cache cells — could name a different edge each time one binary compiled
/// one program. `progen` seed 5077 is a program on which it did.
#[test]
fn a_remark_names_the_same_edge_every_run() {
    use titanc_bench::progen;
    use titanc_repro::titanc::server::{render, CompileRequest};
    use titanc_repro::titanc::{compile_session, SourceFile};

    let src = progen::program(&mut progen::Rng::new(5077));
    let outputs = |jobs: i64| {
        let req = CompileRequest {
            files: vec![SourceFile::new("p5077.c", &*src)],
            jobs,
            opt_report: "json".to_string(),
            ..CompileRequest::default()
        };
        let result = compile_session(&req.files, &req.options(), None);
        let (opt_report, stderr, exit) = render(&req, &result, false);
        assert_eq!(exit, 0, "{stderr}");
        (opt_report, stderr)
    };
    let first = outputs(1);
    assert!(first.1.contains("dependence cycle among statements"));
    for run in 1..20 {
        for jobs in [1, 4] {
            assert!(outputs(jobs) == first, "run {run} at -j {jobs} differs");
        }
    }
}

/// After strength reduction, §6's backsolve read `t = E; *(p) = t;
/// f = t`, where `E` is `*(z) * (*(y) - f)`. The second `forward` copied
/// `E` into the store although `f = t` still read `t`, and `cse` commons
/// no expression that loads, so every iteration did its two loads, its
/// subtract and its multiply twice: 4 096 flops at n = 1024 where `-O0`
/// executes 2 048 (found counting EXP2's flops against `-O0`'s).
#[test]
fn backsolve_stores_its_recurrence_once() {
    use titanc_repro::il::pretty_proc;
    use titanc_repro::titan::Simulator;

    let src = titanc_bench::backsolve_source(1024);
    let o2 = compile(&src, &Options::o2()).expect("O2");
    let text = pretty_proc(&o2.program.procs[0]);
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let store = lines
        .iter()
        .position(|l| l.starts_with("*(float *)("))
        .unwrap_or_else(|| panic!("no store in the loop:\n{text}"));
    let (def, _) = lines[store - 1]
        .split_once(" = ")
        .expect("`t = E;` before it");
    let (_, stored) = lines[store].split_once(" = ").expect("a store");
    assert_eq!(stored, format!("{def};"), "the store recomputes E:\n{text}");

    let flops = |options: &Options, machine| {
        let c = compile(&src, options).expect("compiles");
        let r = Simulator::new(&c.program, machine).run("main", &[]);
        r.expect("runs").stats.flops
    };
    let o0 = flops(&Options::o0(), MachineConfig::default());
    assert_eq!(o0, 2048);
    assert_eq!(flops(&Options::o2(), MachineConfig::optimized(1)), o0);
}

/// `forward` carried `x = *p + 1` past `g = 5` when `p` pointed at `g`:
/// an assignment to a global (or to a local whose address is taken) is a
/// write to memory a load may read, and only stores and calls ended a
/// loading definition's window.
#[test]
fn a_load_does_not_move_past_an_assignment_to_a_global() {
    check(
        r#"
int out_g[2];
int g;
int h(int *p) { int x, y; x = *p + 1; g = 5; y = *p + 1; return x + y; }
int main(void) { out_g[0] = h(&g); out_g[1] = g; return out_g[0]; }
"#,
        &[("out_g", ScalarType::Int, 2)],
    );
}

/// `constprop` folded `y * 0 + g * 0` to `0` in a round that replaced no
/// read, and moved the generation only for replacements: the fold was
/// snapshotted, timed and recorded as `dce`'s change.
#[test]
fn a_fold_alone_moves_the_generation() {
    let src = "int g; int main(void){int y; y = 5; g = y * 0 + g * 0; return 0;}";
    let options = Options {
        snapshots: true,
        ..Options::o1()
    };
    let c = compile(src, &options).expect("compiles");
    let constprop = c.snapshots.iter().filter(|s| s.phase == "constprop");
    let images: Vec<&str> = constprop.map(|s| s.il.as_str()).collect();
    assert!(
        images.iter().any(|il| il.contains("g = 0;")),
        "no `constprop` snapshot folds the store: {images:?}"
    );
    let record = c.trace.record("constprop").expect("O1 runs constprop");
    assert!(record.changed, "{record:?}");
}

/// `sizeof expr` typed every operand it did not list as `int`: a member, a
/// member array, a member through `->` and a `double` sum all read 4. The
/// operand is typed by lowering it, and never evaluated: `sizeof (i = 3)`
/// assigns nothing. The sizes are gcc's for the same declarations.
#[test]
fn sizeof_an_expression_is_the_size_of_its_type() {
    let src = "
struct s { double d; float f[3]; char c; };
struct s g, *gp;
double darr[4];
char ch;
int arr[10], *p, i, out[9];
int main(void)
{
    out[0] = sizeof g.d; out[1] = sizeof g.f; out[2] = sizeof gp->c;
    out[3] = sizeof (darr[1] + 1); out[4] = sizeof arr; out[5] = sizeof (ch + ch);
    out[6] = sizeof *p; out[7] = sizeof (i = 3); out[8] = i;
    return 0;
}
";
    let c = compile(src, &Options::o0()).expect("compiles");
    let globals = [("out", ScalarType::Int, 9)];
    let (seen, _) = observe(&c.program, MachineConfig::default(), "main", &globals).expect("runs");
    let sizes: Vec<i64> = seen.globals[0].1.iter().map(|v| v.as_int()).collect();
    assert_eq!(sizes, [8, 12, 1, 8, 40, 4, 4, 4, 0]);
}

/// Procedures compared their constants with `f64 ==`, so one holding a
/// NaN constant was unequal to itself: a debug build's check that a pass
/// which changed the IL moved its generation fired on `vectorize`, which
/// had changed nothing (`constprop` folds `z / z` to a NaN constant).
#[test]
fn a_nan_constant_equals_itself() {
    let src = "float g; int main(void){float z; z = 0.0f; g = z / z; print_float(g); return 0;}";
    for options in [Options::o2(), Options::parallel()] {
        let c = compile(src, &options).expect("compiles");
        let globals = [("g", ScalarType::Float, 1)];
        let (seen, _) =
            observe(&c.program, MachineConfig::optimized(2), "main", &globals).expect("runs");
        assert!(seen.globals[0].1[0].as_float().is_nan());
    }
}

/// Taking the address of a struct element, or reaching a member through
/// one, lowered the subscript twice: the lowerer refused the element as
/// a scalar place and lowered it again as a value, so `i++` ran twice and
/// each access below left `i == 2`, at every level and on both engines.
#[test]
fn a_struct_element_subscript_is_evaluated_once() {
    let src = "
struct pt { float x; float y; };
struct pt a[4];
int out[3];
float got[3];
int main(void)
{
    int i; struct pt *p;
    a[0].y = 2.5f; a[1].y = 7.0f;
    i = 0; p = &a[i++]; out[0] = i; got[0] = p->y;
    i = 0; a[i++].x = 1.0f; out[1] = i; got[1] = a[0].x;
    i = 0; got[2] = a[i++].y; out[2] = i;
    return 0;
}
";
    let globals = [("out", ScalarType::Int, 3), ("got", ScalarType::Float, 3)];
    for (level, options) in [("O0", Options::o0()), ("O2", Options::o2())] {
        let c = compile(src, &options).expect("compiles");
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let (seen, _) = observe_with(
                &c.program,
                MachineConfig::default(),
                engine,
                "main",
                &globals,
            )
            .unwrap_or_else(|e| panic!("{level} {engine:?}: {e}"));
            let out: Vec<i64> = seen.globals[0].1.iter().map(|v| v.as_int()).collect();
            let got: Vec<f64> = seen.globals[1].1.iter().map(|v| v.as_float()).collect();
            assert_eq!(out, [1, 1, 1], "{level} {engine:?}: i after each access");
            assert_eq!(
                got,
                [2.5, 1.0, 2.5],
                "{level} {engine:?}: the element each access reached"
            );
        }
    }
}

/// The lexer took any preprocessor line holding the substrings `pragma`
/// and `safe` for `#pragma safe`, so `#pragma unsafe` asserted §9's
/// independence and a copy between two pointer parameters, which may
/// overlap, was strip-mined. It stays scalar, as without the line.
#[test]
fn pragma_unsafe_asserts_nothing() {
    let src = "
void f(float *x, float *y, int n)
{
    int i;
#pragma unsafe
    for (i = 0; i < n; i++)
        x[i] = y[i] + 1.0f;
}
";
    let c = compile(src, &Options::o2()).expect("compiles");
    let report = OptReport::build(&c.reports, &c.trace).render();
    assert!(
        report.contains("loop on `i` at 6:17: scalar — loop-carried flow dependence"),
        "{report}"
    );
    let safe = compile(&src.replace("unsafe", "safe"), &Options::o2()).expect("compiles");
    assert_eq!(safe.reports.count("vectorized"), 1);
}

/// A prefix operator's operand was parsed as a cast or postfix
/// expression, never as another prefix operator, so `-*p`, `**pp`, `!!x`,
/// `- -x`, `~-x` and `&*p` were rejected with `expected expression`. Each
/// computes what C computes (the values `cc -O0` prints), at every level
/// and on both engines.
#[test]
fn prefix_operators_nest() {
    let src = "
int out[9];
int main(void)
{
    int v, x, *p, **pp;
    v = 5; x = 7; p = &v; pp = &p;
    out[0] = -*p; out[1] = **pp; out[2] = - -x; out[3] = !!x; out[4] = *&*p;
    out[5] = ~-v; out[6] = - -*p; out[7] = -(int)2.5f; out[8] = !-x;
    return *&*p;
}
";
    let globals = [("out", ScalarType::Int, 9)];
    for (level, options) in [
        ("O0", Options::o0()),
        ("O1", Options::o1()),
        ("O2", Options::o2()),
        ("O2-parallel", Options::parallel()),
    ] {
        let c = compile(src, &options).unwrap_or_else(|e| panic!("{level}: {e}"));
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let (seen, _) = observe_with(
                &c.program,
                MachineConfig::default(),
                engine,
                "main",
                &globals,
            )
            .unwrap_or_else(|e| panic!("{level} {engine:?}: {e}"));
            let out: Vec<i64> = seen.globals[0].1.iter().map(|v| v.as_int()).collect();
            assert_eq!(out, [-5, 5, 7, 1, 5, 4, 5, -2, 0], "{level} {engine:?}");
            assert_eq!(
                seen.value.map(|v| v.as_int()),
                Some(5),
                "{level} {engine:?}"
            );
        }
    }
}

/// §6's operation reduction turns `x * c` into shifts and adds and
/// `(e + c1) + c2` into `e + c` at `-O2`. Every value here goes through
/// one of them: `int` products that wrap, `char` truncation, `i * 12` in a
/// loop and `&r[i].f` chains over a struct array; the second program
/// faults through a reduced address. Both engines observe at every level
/// what `-O0` observes, fault with the same text, and no `-O2` build
/// executes more flops or loads than `-O0`.
#[test]
fn reduced_multiplies_compute_what_o0_computes() {
    let edges = "
struct rec { int f; int g; char c; };
struct rec r[8];
int in[6];
int out[64];
char cs[16];
int main(void)
{
    int i, j, x, s;
    char c;
    int *p;
    in[0] = 2147483647; in[1] = -2147483647 - 1; in[2] = -1;
    in[3] = 127; in[4] = -128; in[5] = 7;
    for (j = 0; j < 6; j++) {
        x = in[j];
        out[j * 10 + 0] = x * 2;
        out[j * 10 + 1] = 4 * x;
        out[j * 10 + 2] = x * 16;
        out[j * 10 + 3] = x * 1073741824;
        out[j * 10 + 4] = x * 3;
        out[j * 10 + 5] = 5 * x;
        out[j * 10 + 6] = x * 6;
        out[j * 10 + 7] = x * 12;
        out[j * 10 + 8] = x * 40;
        out[j * 10 + 9] = x * 536870913;
        c = x;
        cs[j] = c * 12;
        cs[j + 8] = c * 2;
    }
    s = 0;
    for (i = 0; i < 8; i++) {
        s = s + i * 12;
        r[i].f = i * 3;
        r[i].g = in[i % 6] * 1073741824;
        r[i].c = i * 40;
    }
    for (i = 0; i < 8; i++) {
        p = &r[i].g;
        out[60 + i % 4] = out[60 + i % 4] + *p + r[i].c + *(&r[i].f + 1);
    }
    return s;
}
";
    let fault = "
struct rec { int f; int g; char c; };
struct rec r[8];
int in[2];
int main(void)
{
    int k, x;
    in[0] = 1; in[1] = 16777216;
    for (k = 0; k < 2; k++) {
        x = in[k] * 4;
        r[x].g = k + 1;
    }
    return 0;
}
";
    let edges_read = [
        ("out", ScalarType::Int, 64),
        ("cs", ScalarType::Char, 16),
        ("r", ScalarType::Int, 24),
    ];
    let fault_read = [("r", ScalarType::Int, 24)];
    for (src, globals, want) in [
        (edges, &edges_read[..], Ok(())),
        (fault, &fault_read[..], Err("out of range")),
    ] {
        let mut base = None;
        for (level, options) in [
            ("O0", Options::o0()),
            ("O2", Options::o2()),
            ("O2-parallel", Options::parallel()),
        ] {
            let c = compile(src, &options).unwrap_or_else(|e| panic!("{level}: {e}"));
            if level != "O0" {
                let n = c.reports.get(Count::StrengthMulReduced);
                assert!(n > 0, "{level}: no multiply was reduced");
            }
            for engine in [ExecEngine::Interp, ExecEngine::Vm] {
                let machine = match level {
                    "O0" => MachineConfig::default(),
                    _ => MachineConfig::optimized(2),
                };
                let (seen, stats) = match observe_with(&c.program, machine, engine, "main", globals)
                {
                    Ok((seen, stats)) => (Ok(seen), Some(stats)),
                    Err(e) => (Err(e.to_string()), None),
                };
                match (&seen, want) {
                    (Ok(_), Ok(())) => {}
                    (Err(e), Err(part)) if e.contains(part) => {}
                    _ => panic!("{level} {engine:?}: {seen:?}"),
                }
                let Some((o0_seen, o0_stats)) = &base else {
                    base = Some((seen, stats));
                    continue;
                };
                assert_eq!(&seen, o0_seen, "{level} {engine:?} diverged from O0");
                if let (Some(got), Some(o0)) = (stats, o0_stats) {
                    assert!(
                        got.flops <= o0.flops && got.loads <= o0.loads,
                        "{level} {engine:?}: {} flops and {} loads against {} and {}",
                        got.flops,
                        got.loads,
                        o0.flops,
                        o0.loads
                    );
                }
            }
        }
    }
}

/// `cse` treated `0.0f` and `-0.0f` as one expression: `expr_eq`
/// compared float constants with `==`, so `g2 = b * -0.0f` reused `b *
/// 0.0f` and `-O2 --no-inline` printed `0.000000` / `inf` where `cc`
/// prints `-0.000000` / `-inf`.
#[test]
fn cse_keeps_negative_zero_apart() {
    let src = "
float g1, g2, g3;
float f(float b) { g1 = b * 0.0f; g2 = b * -0.0f; g3 = 1.0f / (b * -0.0f); return g3; }
int main(void) { f(3.0f); return 0; }
";
    let globals = [
        ("g1", ScalarType::Float, 1),
        ("g2", ScalarType::Float, 1),
        ("g3", ScalarType::Float, 1),
    ];
    let no_inline = Options {
        inline: false,
        ..Options::o2()
    };
    for (level, options) in [("O0", Options::o0()), ("O2 --no-inline", no_inline)] {
        let c = compile(src, &options).expect("compiles");
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let (seen, _) = observe_with(
                &c.program,
                MachineConfig::default(),
                engine,
                "main",
                &globals,
            )
            .unwrap_or_else(|e| panic!("{level} {engine:?}: {e}"));
            let bits: Vec<u64> = seen
                .globals
                .iter()
                .map(|g| g.1[0].as_float().to_bits())
                .collect();
            let want = [0.0f64, -0.0, f64::NEG_INFINITY].map(f64::to_bits);
            assert_eq!(bits, want, "{level} {engine:?}");
        }
    }
}

/// Countdown pointer walks, whose start addresses and trip counts the
/// loop passes build through one affine form: `lo`'s terms cancel
/// against the pointer's (`p + (n - i)·4` at `i = n` is `p`) and a unit
/// step counts `max(0, n)` trips without a divide, which must still be 0
/// for `n` = 0, −3 and `INT_MIN`. Strides 1 and 2, and a pointer read
/// after its loop, agree with `-O0` at every level and on both engines.
#[test]
fn countdown_pointer_walks_agree_at_every_level() {
    let src = "
float a[40], b[40];
int out[4];
void scale_while(float *p, float *q, int n)
{
    while (n) {
        *p++ = *q++ * 2.0f;
        n--;
    }
}
void stride_for(float *p, float *q, int n)
{
    for (; n > 0; n--) {
        *p = *q + 1.0f;
        p += 2;
        q++;
    }
}
int walk_end(float *p, int n)
{
    float *s;
    s = p;
    for (; n > 0; n--) {
        *p = 3.0f;
        p++;
    }
    return p - s;
}
int main(void)
{
    int i;
    for (i = 0; i < 40; i++) {
        a[i] = 0.0f;
        b[i] = i;
    }
    scale_while(a, b, 7);
    scale_while(a + 30, b, 0);
    stride_for(a + 8, b + 1, 6);
    stride_for(a + 20, b, 0);
    stride_for(a + 20, b, -3);
    stride_for(a + 20, b, -2147483647 - 1);
    out[0] = walk_end(a + 32, 5);
    out[1] = walk_end(a + 32, -3);
    out[2] = walk_end(a + 32, -2147483647 - 1);
    out[3] = walk_end(a + 32, 0);
    return out[0];
}
";
    let globals = [("a", ScalarType::Float, 40), ("out", ScalarType::Int, 4)];
    let mut base = None;
    for (level, options, procs) in [
        ("O0", Options::o0(), 1),
        (
            "O2",
            Options {
                inline: false,
                ..Options::o2()
            },
            1,
        ),
        (
            "O2 --parallel",
            Options {
                inline: false,
                ..Options::parallel()
            },
            2,
        ),
    ] {
        let c = compile(src, &options).unwrap_or_else(|e| panic!("{level}: {e}"));
        if level != "O0" {
            let n = c.reports.count("vectorized");
            assert_eq!(n, 2, "{level}: main's and walk_end's loops vectorize");
        }
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let machine = MachineConfig::optimized(procs);
            let (seen, _) = observe_with(&c.program, machine, engine, "main", &globals)
                .unwrap_or_else(|e| panic!("{level} {engine:?}: {e}"));
            let out: Vec<i64> = seen.globals[1].1.iter().map(|v| v.as_int()).collect();
            assert_eq!(out, [5, 0, 0, 0], "{level} {engine:?}");
            match &base {
                None => base = Some(seen),
                Some(o0) => assert_eq!(&seen, o0, "{level} {engine:?} diverged from O0"),
            }
        }
    }
}

/// A cast that changes a loop bound's value must survive the affine form
/// the loop passes build bounds and start addresses from: looking through
/// `(char)n` counted 300 trips for `n` = 300 instead of 44, and `(int)x`
/// emitted integer arithmetic on the float `x`. Bounds and lower bounds of
/// both kinds agree with `-O0` at `-O2`, with and without inlining, on
/// both engines.
#[test]
fn value_changing_casts_in_loop_bounds_are_kept() {
    let src = "
float a[320], b[320];
int marks[1];
void char_hi(int n)
{
    int i;
    for (i = 0; i < (char)n; i++)
        a[i] = b[i];
}
void char_lo(int n)
{
    int i;
    for (i = (char)n; i < 60; i++)
        a[i] = b[i] + 1.0f;
}
void float_hi(float x)
{
    int i;
    for (i = 0; i < (int)x; i++)
        a[i + 100] = b[i] * 2.0f;
}
void float_lo(float x)
{
    int i;
    for (i = (int)x; i < 50; i++)
        a[i + 200] = b[i] * 3.0f;
}
int main(void)
{
    int i;
    for (i = 0; i < 320; i++) {
        a[i] = 0.0f;
        b[i] = i + 1;
    }
    char_hi(300);
    char_lo(260);
    float_hi(10.7f);
    float_lo(5.5f);
    for (i = 0; i < 320; i++)
        if (a[i] != 0.0f)
            marks[0]++;
    return marks[0];
}
";
    let globals = [("a", ScalarType::Float, 320), ("marks", ScalarType::Int, 1)];
    let no_inline = Options {
        inline: false,
        ..Options::o2()
    };
    let mut base = None;
    for (level, options) in [
        ("O0", Options::o0()),
        ("O2 --no-inline", no_inline),
        ("O2", Options::o2()),
    ] {
        let c = compile(src, &options).unwrap_or_else(|e| panic!("{level}: {e}"));
        if level == "O2 --no-inline" {
            let n = c.reports.count("vectorized");
            assert_eq!(
                n, 5,
                "{level}: main's zeroing and every cast-bounded loop vectorize"
            );
        }
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let (seen, _) = observe_with(
                &c.program,
                MachineConfig::default(),
                engine,
                "main",
                &globals,
            )
            .unwrap_or_else(|e| panic!("{level} {engine:?}: {e}"));
            let marks = seen.globals[1].1[0].as_int();
            assert_eq!(marks, 60 + 10 + 45, "{level} {engine:?}");
            match &base {
                None => base = Some(seen),
                Some(o0) => assert_eq!(&seen, o0, "{level} {engine:?} diverged from O0"),
            }
        }
    }
}

/// Compiles `src` at `-O0`, `-O1`, `-O2 --no-inline` and `-O2`, and
/// checks that each build observes what `-O0` does on both engines.
/// Returns the builds after `-O0`, with their names.
fn agree_with_o0(
    src: &str,
    globals: &[(&str, ScalarType, u32)],
) -> Vec<(&'static str, titanc_repro::titanc::Compilation)> {
    let no_inline = Options {
        inline: false,
        ..Options::o2()
    };
    let mut base = None;
    let mut builds = Vec::new();
    for (level, options) in [
        ("O0", Options::o0()),
        ("O1", Options::o1()),
        ("O2 --no-inline", no_inline),
        ("O2", Options::o2()),
    ] {
        let c = compile(src, &options).unwrap_or_else(|e| panic!("{level}: {e}"));
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let machine = MachineConfig::default();
            let (seen, _) = observe_with(&c.program, machine, engine, "main", globals)
                .unwrap_or_else(|e| panic!("{level} {engine:?}: {e}"));
            match &base {
                None => base = Some(seen),
                Some(o0) => assert_eq!(&seen, o0, "{level} {engine:?} diverged from O0"),
            }
        }
        if level != "O0" {
            builds.push((level, c));
        }
    }
    builds
}

/// ivsub finalized a pointer read after a countdown loop with its own trip
/// count, `max(0, (((1 - n) + -1) / -1))`: an `INT_DIV` by −1 where
/// `max(0, n)` will do. It now counts trips with the affine form's
/// `trips_expression`.
#[test]
fn a_countdown_finalization_does_not_divide() {
    let src = "
float a[16];
int out[4];
int walk_end(float *p, int n)
{
    float *s;
    s = p;
    for (; n > 0; n--) {
        *p = 3.0f;
        p++;
    }
    return p - s;
}
int main(void)
{
    out[0] = walk_end(a, 5);
    out[1] = walk_end(a, -3);
    out[2] = walk_end(a, -2147483647 - 1);
    out[3] = walk_end(a + 8, 0);
    return out[0];
}
";
    let globals = [("a", ScalarType::Float, 16), ("out", ScalarType::Int, 4)];
    for (level, c) in agree_with_o0(src, &globals) {
        let text = titanc_bench::sweep::il_text(&c);
        assert!(!text.contains("/ -1"), "{level} divides by -1:\n{text}");
    }
}

/// while→DO builds a loop's upper bound from the affine form of its
/// condition's bound: a difference, a truncating cast (one opaque term)
/// and a product of two variables (not a form) agree with `-O0`, and no
/// DO header the form wrote multiplies. A global bound (`g - 1`) is not
/// invariant, so its loop stays a `while`.
#[test]
fn while_do_bounds_are_built_from_the_affine_form() {
    let src = "
float a[64], b[64];
int g;
int cnt[1];
void diff_bound(int n, int m)
{
    int i;
    for (i = 0; i < n - m; i++)
        a[i] = b[i] + 1.0f;
}
void char_bound(int n)
{
    int i;
    for (i = 0; i <= (char)n - 1; i++)
        a[i] = a[i] + 2.0f;
}
void global_bound(void)
{
    int i;
    for (i = 0; i < g - 1; i++)
        a[i] = a[i] * 3.0f;
}
void product_bound(int n, int m)
{
    int i;
    for (i = 0; i < n * m; i++)
        a[i] = a[i] - 4.0f;
}
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) {
        a[i] = 0.0f;
        b[i] = i;
    }
    diff_bound(40, 9);
    diff_bound(3, 9);
    char_bound(270);
    char_bound(-5);
    g = 21;
    global_bound();
    product_bound(5, 7);
    product_bound(-5, 7);
    for (i = 0; i < 64; i++)
        if (a[i] != 0.0f)
            cnt[0]++;
    return cnt[0];
}
";
    let globals = [("a", ScalarType::Float, 64), ("cnt", ScalarType::Int, 1)];
    for (level, c) in agree_with_o0(src, &globals) {
        if level == "O2" {
            continue;
        }
        for proc in c.program.procs.iter().filter(|p| p.name != "product_bound") {
            let text = titanc_repro::il::pretty_proc(proc);
            let headers = text.lines().filter(|l| l.trim_start().starts_with("do "));
            for header in headers {
                assert!(!header.contains(" * "), "{level}: {header}");
            }
        }
    }
}

/// Every build of `src` observes what `-O0` does (both engines, and
/// `--parallel` on two processors); returns the `unrolled` and `sunk`
/// events of the `-O2` build as `loop on `v` …` lines, and checks that
/// `--parallel` reshapes the same loops.
fn reshaped_loops(src: &str, globals: &[(&str, ScalarType, u32)]) -> Vec<String> {
    check(src, globals);
    let builds = agree_with_o0(src, globals);
    let (_, c) = builds
        .iter()
        .find(|(level, _)| *level == "O2")
        .expect("a build");
    let lines = |c: &titanc_repro::titanc::Compilation| -> Vec<String> {
        let reshaped =
            (c.reports.loops.iter()).filter(|e| matches!(e.decision.tag(), "unrolled" | "sunk"));
        reshaped
            .map(|e| format!("loop on `{}` {}", e.var, e.decision))
            .collect()
    };
    let parallel = compile(src, &Options::parallel()).unwrap();
    assert_eq!(
        lines(&parallel),
        lines(c),
        "--parallel reshaped other loops"
    );
    lines(c)
}

/// EXP8's nest: the row and column loops run 4 trips each, so they are
/// unrolled into the vertex loop with `acc` folded into its one store per
/// row, and the vertex loop vectorizes whole; the opt report classifies
/// the source loop as vectorized and the inner ones as unrolled.
#[test]
fn the_struct_matrix_row_and_column_loops_are_unrolled() {
    let src = include_str!("../corpus/struct_matrix.c");
    let globals = [("out_pts", ScalarType::Float, 1024)];
    let into = "unrolled into the loop on `dummy_7`; `acc` folded";
    assert_eq!(
        reshaped_loops(src, &globals),
        [
            format!("loop on `dummy_10` {into}"),
            format!("loop on `dummy_13` {into}")
        ]
    );
    let c = compile(src, &Options::o2()).unwrap();
    let report = OptReport::build(&c.reports, &c.trace);
    let classes: Vec<(&str, &str)> = (report.loops.iter())
        .map(|l| (l.var.as_str(), l.classification))
        .collect();
    assert_eq!(
        classes,
        [("i", "vectorized"), ("r", "unrolled"), ("c", "unrolled")]
    );
    assert_eq!(c.reports.count("vectorized"), 1);
}

/// The same transform over a 3×3 matrix of initialized data: nine
/// copies, three stores.
#[test]
fn a_three_by_three_transform_is_unrolled() {
    let src = "
struct matrix { float m[3][3]; };
struct vertex { float v[3]; };
struct matrix xf;
struct vertex pts[100], out_pts[100];
int main(void)
{
    int i, r, c;
    float acc;
    for (r = 0; r < 3; r++)
        for (c = 0; c < 3; c++)
            xf.m[r][c] = 0.5f * r - 0.25f * c;
    for (i = 0; i < 100; i++)
        for (c = 0; c < 3; c++)
            pts[i].v[c] = 3.0f + i + c;
    for (i = 0; i < 100; i++) {
        for (r = 0; r < 3; r++) {
            acc = 0.0f;
            for (c = 0; c < 3; c++)
                acc += xf.m[r][c] * pts[i].v[c];
            out_pts[i].v[r] = acc;
        }
    }
    return 0;
}
";
    let globals = [("out_pts", ScalarType::Float, 300)];
    let reshaped = reshaped_loops(src, &globals);
    assert_eq!(reshaped.len(), 2, "{reshaped:?}");
    for line in &reshaped {
        assert!(line.ends_with("; `acc` folded"), "{reshaped:?}");
    }
    let c = compile(src, &Options::o2()).unwrap();
    let main = c.program.procs.iter().find(|p| p.name == "main").unwrap();
    let text = titanc_repro::il::pretty_proc(main);
    let stores = text
        .lines()
        .filter(|l| l.contains("[(&out_pts") || l.contains("[&out_pts"));
    assert_eq!(stores.count(), 3, "{text}");
}

/// The same transform with `acc` read after the nest: unrolling would
/// fold away its last value, so the vertex loop is sunk instead and gets
/// that value back.
#[test]
fn a_sunk_scalar_read_after_the_nest_gets_its_last_value() {
    let src = "
struct matrix { float m[4][4]; };
struct vertex { float v[4]; };
struct matrix xf;
struct vertex pts[64], out_pts[64];
float last[1];
int main(void)
{
    int i, r, c;
    float acc;
    for (r = 0; r < 4; r++)
        for (c = 0; c < 4; c++)
            xf.m[r][c] = 0.5f * r - 0.25f * c;
    for (i = 0; i < 64; i++)
        for (c = 0; c < 4; c++)
            pts[i].v[c] = 3.0f + i + c;
    for (i = 0; i < 64; i++) {
        for (r = 0; r < 4; r++) {
            acc = 1.0f;
            for (c = 0; c < 4; c++)
                acc += xf.m[r][c] * pts[i].v[c];
            out_pts[i].v[r] = acc;
        }
    }
    last[0] = acc;
    return (int)acc;
}
";
    let globals = [
        ("out_pts", ScalarType::Float, 256),
        ("last", ScalarType::Float, 1),
    ];
    let sunk = reshaped_loops(src, &globals);
    assert_eq!(sunk.len(), 1, "{sunk:?}");
    assert!(sunk[0].contains(" sunk below "), "{sunk:?}");
    assert!(sunk[0].ends_with("; `acc` expanded"), "{sunk:?}");
    let c = compile(src, &Options::o2()).unwrap();
    let main = c.program.procs.iter().find(|p| p.name == "main").unwrap();
    let text = titanc_repro::il::pretty_proc(main);
    assert!(
        text.contains("acc = *(float *)"),
        "no last-value copy:\n{text}"
    );
}

/// A definition is folded only into the statement right after it, and
/// only when that statement is the one that reads its value: `t` read by
/// two statements, or with a store between its definition and its read,
/// stays, so the unrolled copies do not vectorize whole and the vertex
/// loop is sunk with `t` expanded instead.
#[test]
fn a_scalar_read_twice_or_past_a_store_is_not_folded() {
    let bodies = [
        "t = b[i][j] * 2.0f; a[i][j] = t; c[i][j] = t + 1.0f;",
        "t = a[i][j]; a[i][j] = 0.5f; c[i][j] = t;",
    ];
    for body in bodies {
        let src = format!(
            "
float a[64][4], b[64][4], c[64][4];
int main(void)
{{
    int i, j;
    float t;
    for (i = 0; i < 64; i++)
        for (j = 0; j < 4; j++) {{
            a[i][j] = 1.0f + i - j;
            b[i][j] = 2.0f * i + j;
        }}
    for (i = 0; i < 64; i++)
        for (j = 0; j < 4; j++) {{
            {body}
        }}
    return 0;
}}
"
        );
        let globals = [("a", ScalarType::Float, 256), ("c", ScalarType::Float, 256)];
        let reshaped = reshaped_loops(&src, &globals);
        assert_eq!(reshaped.len(), 1, "{body}: {reshaped:?}");
        assert!(
            reshaped[0].ends_with("; `t` expanded"),
            "{body}: {reshaped:?}"
        );
    }
}

/// A three-deep rectangular nest with a private scalar, over `inner`
/// trips at its innermost level.
fn three_deep_nest(inner: usize) -> String {
    format!(
        "
float a[32][4][{inner}], b[32][4][{inner}], c[4][{inner}];
int main(void)
{{
    int i, j, k;
    float t;
    for (i = 0; i < 32; i++)
        for (j = 0; j < 4; j++)
            for (k = 0; k < {inner}; k++) {{
                b[i][j][k] = i - j * k;
                if (i == 0)
                    c[j][k] = j + 0.5f * k;
            }}
    for (i = 0; i < 32; i++)
        for (j = 0; j < 4; j++)
            for (k = 0; k < {inner}; k++) {{
                t = b[i][j][k] * 2.0f;
                a[i][j][k] = t + c[j][k];
            }}
    return 0;
}}
"
    )
}

/// Over 3 trips at the innermost level, both inner loops are unrolled
/// into the outer one, `t` is folded into each of the twelve stores, and
/// each becomes a vector statement over it.
#[test]
fn a_three_deep_rectangular_nest_is_unrolled() {
    let globals = [("a", ScalarType::Float, 384)];
    let unrolled = reshaped_loops(&three_deep_nest(3), &globals);
    assert_eq!(unrolled.len(), 2, "{unrolled:?}");
    for line in &unrolled {
        assert!(line.ends_with("; `t` folded"), "{unrolled:?}");
    }
}

/// Over 6 trips at the innermost level the nest would make 24 copies, so
/// the outer loop is sunk below both inner ones, `t` expanded, instead.
#[test]
fn a_three_deep_nest_of_six_inner_trips_is_sunk() {
    let globals = [("a", ScalarType::Float, 768)];
    let sunk = reshaped_loops(&three_deep_nest(6), &globals);
    assert_eq!(sunk.len(), 1, "{sunk:?}");
    let below = sunk[0].split("sunk below ").nth(1).unwrap();
    assert_eq!(below.matches('`').count(), 6, "two loops and `t`: {sunk:?}");
    assert!(below.ends_with("; `t` expanded"), "{sunk:?}");
}

/// Nests the sink must leave alone, each for one of its conditions: the
/// outer level carries a dependence (in the second nest, one that sinking
/// would reverse); the inner bound reads the outer variable; a scalar is
/// carried across the outer loop; an `if` or a call sits in the nest; a
/// right-hand side reads the outer variable (titanperf's `xform`
/// initialises its vertices that way). Unrolling the inner loop leaves a
/// statement that does not vectorize in each but the second, where the
/// copy of `a[i][j] = a[i - 1][j + 1] + 1.0f` for `j = J + 1` writes what
/// the one for `J` reads an outer iteration later: the copies vectorize
/// over `i` in that order, last first, so that nest is unrolled.
#[test]
fn nests_that_carry_or_cannot_vectorize_are_not_sunk() {
    let head = "
float a[64][64], b[64][64], out[2];
int deep(int x)
{
    if (x <= 0)
        return 0;
    return deep(x - 1) + 1;
}
int main(void)
{
    int i, j;
    float s;
    for (i = 0; i < 64; i++)
        for (j = 0; j < 4; j++)
            b[i][j] = 0.5f * (i - j);
    s = 0.0f;
";
    let nests = [
        "for (i = 1; i < 64; i++) for (j = 0; j < 4; j++) a[i][j] = a[i - 1][j] + 1.0f;",
        "for (i = 1; i < 64; i++) for (j = 0; j < 4; j++) a[i][j] = a[i - 1][j + 1] + 1.0f;",
        "for (i = 0; i < 64; i++) for (j = 0; j < i; j++) a[i][j] = b[i][j];",
        "for (i = 0; i < 64; i++) for (j = 0; j < 4; j++) s += b[i][j];",
        "for (i = 0; i < 64; i++) for (j = 0; j < 4; j++) if (b[i][j] > 0.0f) a[i][j] = 1.0f;",
        "for (i = 0; i < 64; i++) for (j = 0; j < 4; j++) a[i][j] = deep(j);",
        "for (i = 0; i < 64; i++) for (j = 0; j < 4; j++) a[i][j] = 7.0f + i + j;",
    ];
    let globals = [
        ("a", ScalarType::Float, 4096),
        ("out", ScalarType::Float, 2),
    ];
    for (n, nest) in nests.into_iter().enumerate() {
        let src = format!("{head}    {nest}\n    out[0] = s;\n    return 0;\n}}\n");
        let reshaped = reshaped_loops(&src, &globals);
        if n == 1 {
            assert_eq!(reshaped.len(), 1, "{nest}: {reshaped:?}");
            assert!(
                reshaped[0].contains(" unrolled into "),
                "{nest}: {reshaped:?}"
            );
        } else {
            assert!(reshaped.is_empty(), "{nest}: {reshaped:?}");
        }
    }
}

/// The single-loop dependence test compared exact byte addresses, so
/// `int` stores two bytes past `int` loads of the same buffer looked
/// independent, and the loop became one vector statement that reads every
/// element before it stores any: over a buffer holding 0, 1, 2, …, `-O2`
/// left `buf[6]` at 5 where `-O0` leaves 3. `test_pair` now counts
/// overlapping byte ranges as a dependence, and the loop stays scalar.
#[test]
fn overlapping_misaligned_accesses_keep_their_order() {
    for init in ["", "for (i = 0; i < 80; i++) buf[i] = i;"] {
        let src = format!(
            "
char buf[80];
int main(void)
{{
    int *p, *q;
    int i;
    {init}
    q = (int *)buf;
    p = (int *)(buf + 2);
    for (i = 0; i < 16; i++)
        p[i] = q[i] + 1;
    return buf[2] + 10 * buf[6];
}}
"
        );
        let globals = [("buf", ScalarType::Char, 80)];
        check(&src, &globals);
        for (level, c) in agree_with_o0(&src, &globals) {
            assert_eq!(c.reports.count("vectorized"), 0, "{level}: {init}");
        }
        if init.is_empty() {
            let o2 = compile(&src, &Options::o2()).unwrap();
            let (seen, _) =
                observe(&o2.program, MachineConfig::default(), "main", &globals).expect("O2 runs");
            let bytes: Vec<i64> = seen.globals[0].1[2..10]
                .iter()
                .map(|v| v.as_int())
                .collect();
            assert_eq!(bytes, [1, 0, 0, 0, 1, 0, 0, 0]);
        }
    }
}

/// Register promotion carries a value stored in one iteration to a load
/// of the next through a register, which the store moves on. A load that
/// follows the store in the body then read this iteration's value: `-O2`
/// returned 54 where `-O0` returns 12. Promotion now needs the load at or
/// before the store, as in §6's backsolve.
#[test]
fn a_promoted_load_after_its_store_reads_the_previous_iteration() {
    let src = "
float a[40][6][6], b[40][6][6];
int main(void)
{
    int i;
    float t;
    t = 2.0f;
    for (i = 0; i < 40; i++) {
        a[i][1][3] = 1.0f * i;
        b[i][1][3] = 0.5f * i;
    }
    for (i = 1; i < 39; i++) {
        a[i][1][3] = b[i][2][1] - t;
        t = b[i][1][3] - a[i - 1][1][3];
    }
    return (int)(a[20][1][3] * 10.0f) & 127;
}
";
    let globals = [("a", ScalarType::Float, 40 * 36)];
    check(src, &globals);
    agree_with_o0(src, &globals);
}

/// ivsub took a float sum `t = t + s` for an induction variable and
/// rebuilt it as `t0 + k * s` through an integer multiply, which read
/// `0.5f` as 0: `-O1` returned 2 where `-O0` returns 9. A float variable
/// is no candidate now.
#[test]
fn a_float_sum_is_not_an_induction_variable() {
    let src = "
float a[8];
int main(void)
{
    int r, c;
    float s, t;
    t = 2.0f;
    s = 0.5f;
    for (r = 0; r < 3; r++)
        for (c = 0; c < 5; c++) {
            t = t + s;
            a[c] = t;
        }
    return (int)t;
}
";
    let globals = [("a", ScalarType::Float, 8)];
    check(src, &globals);
    agree_with_o0(src, &globals);
}

/// Register promotion loads the carried cell before the loop, so no
/// other store of the loop may reach it. It let through a store whose
/// address has another symbolic base, here `a[r][c]` (its `r` term)
/// beside the promoted `a[c][c]`: at `c = 0` both name `a[0][0]`, and
/// `-O2` returned 8 where `-O0` returns 4. Only a store into another named
/// array lets promotion go ahead now.
#[test]
fn a_promoted_cell_is_not_stored_through_another_base() {
    let src = "
float a[6][6];
int main(void)
{
    int r, c;
    for (r = 0; r < 6; r++)
        for (c = 0; c < 6; c++)
            a[r][c] = r - 0.5f * c;
    for (r = 0; r < 1; r++)
        for (c = 0; c < 4; c++) {
            a[r][c] = a[c][4] + 1.0f;
            a[c + 1][c + 1] = 1.0f + (a[c][c] - a[c][r]);
        }
    return (int)(a[1][1] * 4.0f) & 127;
}
";
    let globals = [("a", ScalarType::Float, 36)];
    check(src, &globals);
    agree_with_o0(src, &globals);
}

/// Observes `src` at every build on both engines, and under `--parallel`
/// on two processors; returns the vector registers the `-O2` and the
/// `--parallel` builds made.
fn registers_made(src: &str, globals: &[(&str, ScalarType, u32)]) -> (usize, usize) {
    check(src, globals);
    let builds = agree_with_o0(src, globals);
    let (_, o2) = builds.iter().find(|(level, _)| *level == "O2").unwrap();
    let parallel = compile(src, &Options::parallel()).unwrap();
    let made = |c: &titanc_repro::titanc::Compilation| c.reports.get(Count::VectorRegisters);
    (made(o2), made(&parallel))
}

/// A run of vector statements reads a section from memory once and keeps
/// it in a vector register only while no statement of the run stores to
/// one of its bytes. Here the middle statement stores into the section
/// the first and the last read — all of it, or one misaligned `char` of
/// each `int` — so the last one loads it again; in the float program the
/// `b` section, which nothing stores to, is read from a register.
#[test]
fn a_store_between_two_reads_of_a_section_makes_the_second_load_it() {
    let float = "
float a[80], b[80], c[80], d[80];
int main(void)
{
    int i;
    for (i = 0; i < 80; i++) {
        a[i] = 0.5f * i;
        b[i] = 1.0f + i;
    }
    for (i = 0; i < 64; i++) {
        c[i] = a[i + 1] * 2.0f + b[i];
        a[i + 1] = b[i] + 1.0f;
        d[i] = a[i + 1] - b[i];
    }
    return (int)(c[7] + d[9]);
}
";
    let globals = [("c", ScalarType::Float, 80), ("d", ScalarType::Float, 80)];
    assert_eq!(registers_made(float, &globals), (1, 1));
    for init in ["", "for (i = 0; i < 80; i++) buf[i] = i;"] {
        let misaligned = format!(
            "
char buf[80];
int r1[16], r3[16];
int main(void)
{{
    int *q;
    int i;
    {init}
    q = (int *)buf;
    for (i = 0; i < 16; i++) {{
        r1[i] = q[i] + 1;
        buf[4 * i + 1] = 9;
        r3[i] = q[i] * 2;
    }}
    return (r1[3] + r3[3]) & 127;
}}
"
        );
        let globals = [("r1", ScalarType::Int, 16), ("r3", ScalarType::Int, 16)];
        assert_eq!(registers_made(&misaligned, &globals), (0, 0), "{init}");
    }
}

/// Two sections of one array at two strides are two values: each gets
/// its own register, and a third section of the array, read once, stays
/// a load.
#[test]
fn one_base_read_at_two_strides_keeps_two_registers() {
    let src = "
float a[200], c[64], d[64];
int main(void)
{
    int i;
    for (i = 0; i < 200; i++)
        a[i] = 0.25f * i;
    for (i = 0; i < 64; i++) {
        c[i] = a[2 * i] + a[i];
        d[i] = a[2 * i] * a[i] - a[i + 1];
    }
    return (int)(c[7] + d[9]);
}
";
    let globals = [("c", ScalarType::Float, 64), ("d", ScalarType::Float, 64)];
    assert_eq!(registers_made(src, &globals), (2, 2));
    let c = compile(src, &Options::o2()).unwrap();
    let main = c.program.procs.iter().find(|p| p.name == "main").unwrap();
    let text = titanc_repro::il::pretty_proc(main);
    assert!(text.contains("[(&a + 4) : 64 : 4]"), "{text}");
}

/// Under `--parallel` the transform's four statements run in 32-element
/// `do parallel` strips over 100 vertices, the last strip short: each
/// strip keeps the four `pts` sections in its processor's registers, at
/// the strip's length.
#[test]
fn a_strip_body_shares_its_sections_under_parallel() {
    let src = "
struct matrix { float m[4][4]; };
struct vertex { float v[4]; };
struct matrix xf;
struct vertex pts[100], out_pts[100];
int main(void)
{
    int i, r, c;
    float acc;
    for (r = 0; r < 4; r++)
        for (c = 0; c < 4; c++)
            xf.m[r][c] = 0.5f * r - 0.25f * c;
    for (i = 0; i < 100; i++)
        for (c = 0; c < 4; c++)
            pts[i].v[c] = 3.0f + i + c;
    for (i = 0; i < 100; i++)
        for (r = 0; r < 4; r++) {
            acc = 0.0f;
            for (c = 0; c < 4; c++)
                acc += xf.m[r][c] * pts[i].v[c];
            out_pts[i].v[r] = acc;
        }
    return 0;
}
";
    let globals = [("out_pts", ScalarType::Float, 400)];
    assert_eq!(registers_made(src, &globals), (4, 4));
    let parallel = compile(src, &Options::parallel()).unwrap();
    let main = parallel.program.procs.iter().find(|p| p.name == "main");
    let text = titanc_repro::il::pretty_proc(main.unwrap());
    assert!(text.contains("do parallel"), "{text}");
    assert_eq!(text.matches(" -> vr_").count(), 4, "{text}");
}

/// The 8×8 transform: its inner loops run 8 trips, so the vertex loop is
/// sunk and `acc` expanded into a 256-element array that every statement
/// reads and writes whole, which goes into a vector register. Read after
/// the nest, its last element is a scalar load, so it stays in memory,
/// and the value read is the last vertex's.
#[test]
fn a_sink_array_whose_last_value_is_read_after_the_nest_stays_in_memory() {
    for (after, registers) in [("", 1), ("last[0] = acc;", 0)] {
        let src = format!(
            "
struct matrix {{ float m[8][8]; }};
struct vertex {{ float v[8]; }};
struct matrix xf;
struct vertex pts[256], out_pts[256];
float last[1];
int main(void)
{{
    int i, r, c;
    float acc;
    for (r = 0; r < 8; r++)
        for (c = 0; c < 8; c++)
            xf.m[r][c] = 0.5f * r - 0.25f * c;
    for (i = 0; i < 256; i++)
        for (c = 0; c < 8; c++)
            pts[i].v[c] = 3.0f + i + c;
    for (i = 0; i < 256; i++) {{
        for (r = 0; r < 8; r++) {{
            acc = 1.0f;
            for (c = 0; c < 8; c++)
                acc += xf.m[r][c] * pts[i].v[c];
            out_pts[i].v[r] = acc;
        }}
    }}
    {after}
    return 0;
}}
"
        );
        let globals = [
            ("out_pts", ScalarType::Float, 2048),
            ("last", ScalarType::Float, 1),
        ];
        assert_eq!(registers_made(&src, &globals).0, registers, "{after}");
    }
}

/// The sink expanded every private scalar, a constant too: `r`, whose
/// one definition in the nest is the inner loop's final value 4, became a
/// 64-element array stored with 4 and loaded back after the nest. It now
/// keeps no array, and one `r = 4` after the nest gives it its value.
#[test]
fn a_constant_private_scalar_is_assigned_once_after_the_nest() {
    let src = "
float a[64][4], b[64][4], c[64];
int main(void)
{
    int i, r;
    for (i = 0; i < 64; i++)
        for (r = 0; r < 4; r++)
            b[i][r] = 0.5f * i + r;
    for (i = 0; i < 64; i++) {
        for (r = 0; r < 4; r++)
            a[i][r] = b[i][r] * 2.0f;
        c[i] = r;
    }
    return (int)(a[5][3] + c[9] + r);
}
";
    let globals = [("a", ScalarType::Float, 256), ("c", ScalarType::Float, 64)];
    assert_eq!(reshaped_loops(src, &globals).len(), 1);
    for (level, c) in agree_with_o0(src, &globals) {
        let main = c.program.procs.iter().find(|p| p.name == "main").unwrap();
        let arrays: Vec<&str> = (main.vars.iter())
            .map(|v| v.name.as_str())
            .filter(|n| n.starts_with("r_x"))
            .collect();
        assert!(arrays.is_empty(), "{level}: {arrays:?}");
    }
}
