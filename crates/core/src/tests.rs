//! Driver tests: end-to-end compilations at every optimization level,
//! checked for observational equivalence, plus the §9 walkthrough.

use crate::{compile, compile_and_run, Count, OptLevel, Options};
use titanc_il::ScalarType;
use titanc_titan::MachineConfig;

/// Every optimization level must agree with O0 on observable state.
fn check_all_levels(src: &str, globals: &[(&str, ScalarType, u32)]) {
    let base = compile(src, &Options::o0()).expect("O0 compile");
    let (expect, _) =
        titanc_titan::observe(&base.program, MachineConfig::default(), "main", globals)
            .expect("O0 run");
    for (name, opts) in [
        ("O1", Options::o1()),
        ("O2", Options::o2()),
        ("O2-parallel", Options::parallel()),
        (
            "O2-fortran",
            Options {
                aliasing: crate::Aliasing::Fortran,
                ..Options::parallel()
            },
        ),
    ] {
        let c = compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (got, _) =
            titanc_titan::observe(&c.program, MachineConfig::optimized(2), "main", globals)
                .unwrap_or_else(|e| {
                    panic!(
                        "{name} run failed: {e}\n{}",
                        titanc_il::pretty_proc(c.program.proc_by_name("main").unwrap())
                    )
                });
        assert_eq!(expect, got, "{name} diverged");
    }
}

#[test]
fn vector_add_all_levels() {
    check_all_levels(
        r#"
float a[100], b[100], c[100];
int main(void)
{
    int i;
    for (i = 0; i < 100; i++) { b[i] = i * 1.5f; c[i] = 100 - i; }
    for (i = 0; i < 100; i++) a[i] = b[i] + c[i];
    return 0;
}
"#,
        &[("a", ScalarType::Float, 100)],
    );
}

#[test]
fn daxpy_inlined_all_levels() {
    check_all_levels(
        r#"
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}
float a[100], b[100], c[100];
int main(void)
{
    int i;
    for (i = 0; i < 100; i++) { b[i] = i; c[i] = 2 * i; }
    daxpy(a, b, c, 1.0, 100);
    return 0;
}
"#,
        &[("a", ScalarType::Float, 100)],
    );
}

#[test]
fn backsolve_all_levels() {
    check_all_levels(
        r#"
float x[100], y[100], z[100];
int main(void)
{
    float *p, *q;
    int i;
    for (i = 0; i < 100; i++) { x[i] = 1.0f; y[i] = i; z[i] = 0.5f; }
    p = &x[1];
    q = &x[0];
    for (i = 0; i < 98; i++)
        p[i] = z[i] * (y[i] - q[i]);
    return 0;
}
"#,
        &[("x", ScalarType::Float, 100)],
    );
}

#[test]
fn struct_matrix_all_levels() {
    check_all_levels(
        r#"
struct matrix { float m[4][4]; };
struct matrix g;
int main(void)
{
    int i, j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            g.m[i][j] = i * 4 + j;
    return (int)g.m[3][2];
}
"#,
        &[],
    );
}

#[test]
fn branches_and_calls_all_levels() {
    check_all_levels(
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

#[test]
fn daxpy_9_walkthrough_vectorizes() {
    // the §9 example: inline, specialize (alpha = 1.0 survives, n = 100),
    // convert, substitute, vectorize, parallelize.
    let src = r#"
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}
float a[100], b[100], c[100];
int main(void)
{
    daxpy(a, b, c, 1.0, 100);
    return 0;
}
"#;
    let c = compile(src, &Options::parallel()).unwrap();
    assert!(c.reports.count("expanded") >= 1, "{:?}", c.reports.inline);
    assert!(c.reports.count("do_converted") >= 1);
    let ivs = titanc_il::LoopDecision::ivs_substituted(&c.reports.loops);
    assert!(ivs >= 3, "{:?}", c.reports.loops);
    assert!(
        c.reports.count("vectorized") >= 1,
        "main after pipeline:\n{}",
        titanc_il::pretty_proc(c.program.proc_by_name("main").unwrap())
    );
    let text = titanc_il::pretty_proc(c.program.proc_by_name("main").unwrap());
    assert!(text.contains("do parallel"), "{text}");
    // the early-out branches were specialized away
    assert!(
        !text.contains("if ("),
        "constants removed the guards: {text}"
    );
}

#[test]
fn snapshots_capture_passes_that_changed_the_il() {
    let src = "int main(void) { int i, s; s = 0; for (i = 0; i < 4; i++) s += i; return s; }";
    let c = compile(
        src,
        &Options {
            snapshots: true,
            ..Options::default()
        },
    )
    .unwrap();
    let phases: Vec<&str> = c.snapshots.iter().map(|s| s.phase.as_str()).collect();
    // one snapshot after lowering, then one per pass whose generation
    // moved — unchanged procedures are skipped, so every snapshot phase
    // must correspond to a pass whose record is `changed`
    assert_eq!(phases[0], "lower");
    for expected in ["whiledo", "ivsub", "forward", "dce"] {
        assert!(phases.contains(&expected), "missing {expected}: {phases:?}");
    }
    for phase in &phases[1..] {
        assert!(
            c.trace
                .records
                .iter()
                .any(|r| r.name == *phase && r.changed),
            "snapshot for a pass that never changed anything: `{phase}`"
        );
    }
    // a pass name with no changing execution produces no snapshot
    for rec in &c.trace.records {
        if !c
            .trace
            .records
            .iter()
            .any(|r| r.name == rec.name && r.changed)
        {
            assert!(
                !phases.contains(&rec.name),
                "no-op pass `{}` must not snapshot: {phases:?}",
                rec.name
            );
        }
    }
    // snapshots follow pipeline order
    let order: Vec<usize> = ["whiledo", "dce"]
        .iter()
        .map(|p| phases.iter().position(|q| q == p).unwrap())
        .collect();
    assert!(order[0] < order[1]);
}

#[test]
fn compile_error_reports_position() {
    let err = compile("int main(void) { return x; }", &Options::o0()).unwrap_err();
    assert!(err.message.contains("undeclared"), "{err}");
    let err2 = compile("int main(void { return 0; }", &Options::o0()).unwrap_err();
    assert!(!err2.message.is_empty());
}

#[test]
fn compile_and_run_one_call() {
    let r = compile_and_run(
        "int main(void) { int i, s; s = 0; for (i = 1; i <= 10; i++) s += i; return s; }",
        &Options::o2(),
        MachineConfig::default(),
        "main",
    )
    .unwrap();
    assert_eq!(r.value.unwrap().as_int(), 55);
}

#[test]
fn o0_does_not_optimize() {
    let src = "int main(void) { int x; x = 2 + 3; return x; }";
    let c = compile(src, &Options::o0()).unwrap();
    assert_eq!(c.reports.get(Count::ConstpropReplaced), 0);
    assert_eq!(c.reports.count("vectorized"), 0);
    let c1 = compile(src, &Options::o1()).unwrap();
    assert_eq!(c1.reports.count("vectorized"), 0, "O1 never vectorizes");
    assert!(matches!(Options::o1().opt, OptLevel::O1));
}

#[test]
fn volatile_program_survives_whole_pipeline() {
    // the §1 poll loop must survive every optimization level untouched
    let src = r#"
volatile int keyboard_status;
int main(void)
{
    keyboard_status = 0;
    while (!keyboard_status);
    return keyboard_status;
}
"#;
    for opts in [Options::o0(), Options::o1(), Options::parallel()] {
        let c = compile(src, &opts).unwrap();
        let mut sim = titanc_titan::Simulator::new(&c.program, MachineConfig::default());
        sim.push_volatile_values(&[0, 0, 9]);
        let r = sim.run("main", &[]).unwrap();
        assert_eq!(r.value.unwrap().as_int(), 9, "opt must keep re-reading");
    }
}

/// A fixpoint that hit its budget is a count; its remark prints, with the
/// same text, whenever the count is above 0.
#[test]
fn a_budget_count_above_zero_prints_its_remark() {
    let remarks = |count, n| {
        let (mut r, mut sink) = (crate::Report::default(), crate::DiagnosticSink::new(0));
        r.add(count, n);
        crate::optimization_remarks(&r, &mut sink);
        let messages = sink.into_diagnostics().into_iter().map(|d| d.message);
        messages.collect::<Vec<_>>()
    };
    assert!(remarks(Count::DceBudgetHit, 0).is_empty());
    let cp = "constant propagation stopped at its 32-round budget; remaining opportunities \
              were left to later passes";
    assert_eq!(remarks(Count::ConstpropBudgetHit, 2), [cp]);
    let dce = "dead-code elimination stopped at its 32-round budget";
    assert_eq!(remarks(Count::DceBudgetHit, 1), [dce]);
    let ivsub = "induction-variable substitution stopped at its 64-pass budget";
    assert_eq!(remarks(Count::IvsubBudgetHit, 1), [ivsub]);
}
