//! Vectorizer and §6 optimization tests: IL shapes plus observational
//! equivalence on the Titan simulator.

use crate::{spread_list_loops, strength_reduce, vectorize, VectorOptions};
use titanc_deps::Aliasing;
use titanc_il::{
    pretty_proc, Count, LoopDecision, LoopEvent, Procedure, Program, Report, ScalarType,
};
use titanc_lower::compile_to_il;
use titanc_titan::MachineConfig;

/// The standard scalar pipeline in front of the vectorizer.
fn scalar_pipeline(proc: &mut Procedure) {
    titanc_opt::convert_while_loops(proc);
    titanc_opt::induction_substitution(proc);
    titanc_opt::forward_substitute(proc);
    titanc_opt::constant_propagation(proc);
    titanc_opt::eliminate_dead_code(proc);
}

/// Loops the report records with the decision tagged `tag`.
fn loops(rep: &Report, tag: &str) -> usize {
    rep.loops.iter().filter(|e| e.decision.tag() == tag).count()
}

fn prep(src: &str) -> Program {
    let prog = compile_to_il(src).unwrap();
    let mut out = prog.clone();
    for p in &mut out.procs {
        scalar_pipeline(p);
    }
    out
}

fn observe(prog: &Program, globals: &[(&str, ScalarType, u32)]) -> titanc_titan::Observation {
    titanc_titan::observe(prog, MachineConfig::optimized(2), "main", globals)
        .unwrap_or_else(|e| {
            panic!(
                "run failed: {e}\n{}",
                pretty_proc(&prog.procs[prog.procs.len() - 1])
            )
        })
        .0
}

#[test]
fn vectorizes_array_add() {
    let src = r#"
float a[100], b[100], c[100];
void add(void) { int i; for (i = 0; i < 100; i++) a[i] = b[i] + c[i]; }
"#;
    let mut prog = prep(src);
    let rep = vectorize(&mut prog.procs[0], &VectorOptions::default());
    assert_eq!(
        loops(&rep, "vectorized"),
        1,
        "{}",
        pretty_proc(&prog.procs[0])
    );
    let text = pretty_proc(&prog.procs[0]);
    assert!(text.contains("(float)["), "triplet notation: {text}");
}

#[test]
fn vector_add_equivalent_and_faster() {
    let src = r#"
float a[512], b[512], c[512];
void init(void)
{
    int i;
    for (i = 0; i < 512; i++) { b[i] = i * 0.5f; c[i] = i * 0.25f; }
}
int main(void)
{
    int i;
    init();
    for (i = 0; i < 512; i++) a[i] = b[i] + c[i];
    return 0;
}
"#;
    let base = prep(src);
    let mut vec_prog = base.clone();
    let main_idx = vec_prog
        .procs
        .iter()
        .position(|p| p.name == "main")
        .unwrap();
    let rep = vectorize(&mut vec_prog.procs[main_idx], &VectorOptions::default());
    assert!(
        loops(&rep, "vectorized") >= 1,
        "{}",
        pretty_proc(&vec_prog.procs[main_idx])
    );
    let g = [("a", ScalarType::Float, 512)];
    let before = observe(&base, &g);
    let after = observe(&vec_prog, &g);
    assert_eq!(before, after);
    // cycle comparison of the add kernel alone (init runs scalar in both;
    // subtract its cost by timing an init-only run)
    let cycles = |prog: &Program| {
        let whole = titanc_titan::observe(prog, MachineConfig::scalar(), "main", &[])
            .unwrap()
            .1
            .cycles;
        let init_only = titanc_titan::observe(prog, MachineConfig::scalar(), "init", &[])
            .unwrap()
            .1
            .cycles;
        whole - init_only
    };
    let s_base = cycles(&base);
    let s_vec = cycles(&vec_prog);
    assert!(s_vec < s_base / 2.0, "vector {s_vec} vs scalar {s_base}");
}

#[test]
fn pointer_copy_loop_vectorizes_with_pragma() {
    // EXP1 shape: the §5.3 pointer walk, vectorizable once asserted safe
    let src =
        "void copy(float *a, float *b, int n) {\n#pragma safe\nwhile (n) { *a++ = *b++; n--; } }";
    let mut prog = prep(src);
    let rep = vectorize(&mut prog.procs[0], &VectorOptions::default());
    assert_eq!(
        loops(&rep, "vectorized"),
        1,
        "{}",
        pretty_proc(&prog.procs[0])
    );
}

#[test]
fn pointer_copy_loop_does_not_vectorize_under_c_aliasing() {
    let src = "void copy(float *a, float *b, int n) { while (n) { *a++ = *b++; n--; } }";
    let mut prog = prep(src);
    let rep = vectorize(&mut prog.procs[0], &VectorOptions::default());
    assert_eq!(loops(&rep, "vectorized"), 0, "pointer params may alias");
    assert_eq!(rep.notes.len(), 1);
}

#[test]
fn fortran_aliasing_option_vectorizes_pointer_params() {
    let src = "void copy(float *a, float *b, int n) { while (n) { *a++ = *b++; n--; } }";
    let mut prog = prep(src);
    let opts = VectorOptions {
        aliasing: Aliasing::Fortran,
        ..VectorOptions::default()
    };
    let rep = vectorize(&mut prog.procs[0], &opts);
    assert_eq!(
        loops(&rep, "vectorized"),
        1,
        "{}",
        pretty_proc(&prog.procs[0])
    );
}

#[test]
fn recurrence_stays_scalar() {
    let src = r#"
float x[100];
void f(void) { int i; for (i = 0; i < 99; i++) x[i + 1] = x[i] * 2.0f; }
"#;
    let mut prog = prep(src);
    let rep = vectorize(&mut prog.procs[0], &VectorOptions::default());
    assert_eq!(loops(&rep, "vectorized"), 0);
}

#[test]
fn countdown_loop_vectorizes_with_negative_stride() {
    let src = r#"
float a[64], b[64];
int main(void)
{
    int i, n;
    float *p, *q;
    for (i = 0; i < 64; i++) b[i] = i;
    p = &a[63];
    q = &b[63];
    n = 64;
    while (n) { *p-- = *q--; n--; }
    return 0;
}
"#;
    let base = prep(src);
    let mut vec_prog = base.clone();
    let rep = vectorize(&mut vec_prog.procs[0], &VectorOptions::default());
    assert!(
        loops(&rep, "vectorized") >= 1,
        "{}",
        pretty_proc(&vec_prog.procs[0])
    );
    let g = [("a", ScalarType::Float, 64)];
    assert_eq!(observe(&base, &g), observe(&vec_prog, &g));
}

#[test]
fn parallel_emission_produces_do_parallel_strips() {
    let src = r#"
float a[100], b[100], c[100];
void add(void) { int i; for (i = 0; i < 100; i++) a[i] = b[i] + c[i]; }
"#;
    let mut prog = prep(src);
    let opts = VectorOptions {
        parallelize: true,
        ..VectorOptions::default()
    };
    let rep = vectorize(&mut prog.procs[0], &opts);
    assert_eq!(loops(&rep, "vectorized"), 1);
    let text = pretty_proc(&prog.procs[0]);
    assert!(text.contains("do parallel"), "{text}");
    assert!(text.contains("min(32,"), "strip length 32: {text}");
}

#[test]
fn parallel_strips_preserve_semantics() {
    let src = r#"
float a[100], b[100], c[100];
int main(void)
{
    int i;
    for (i = 0; i < 100; i++) { b[i] = i; c[i] = 2 * i; }
    for (i = 0; i < 100; i++) a[i] = b[i] + c[i];
    return 0;
}
"#;
    let base = prep(src);
    let mut par = base.clone();
    let opts = VectorOptions {
        parallelize: true,
        ..VectorOptions::default()
    };
    vectorize(&mut par.procs[0], &opts);
    let g = [("a", ScalarType::Float, 100)];
    assert_eq!(observe(&base, &g), observe(&par, &g));
    // two processors beat one
    let (_, c1) = titanc_titan::observe(&par, MachineConfig::optimized(1), "main", &[]).unwrap();
    let (_, c2) = titanc_titan::observe(&par, MachineConfig::optimized(2), "main", &[]).unwrap();
    assert!(c2.cycles < c1.cycles, "{} !< {}", c2.cycles, c1.cycles);
}

#[test]
fn volatile_loop_never_vectorizes() {
    let src = r#"
volatile int port;
int sink[64];
void f(void) { int i; for (i = 0; i < 64; i++) sink[i] = port; }
"#;
    let mut prog = prep(src);
    let rep = vectorize(&mut prog.procs[0], &VectorOptions::default());
    assert_eq!(loops(&rep, "vectorized"), 0);
}

#[test]
fn loop_with_call_never_vectorizes() {
    let src = r#"
float g(float x);
float a[64];
void f(void) { int i; for (i = 0; i < 64; i++) a[i] = g(1.0f); }
"#;
    let mut prog = prep(src);
    let rep = vectorize(&mut prog.procs[0], &VectorOptions::default());
    assert_eq!(loops(&rep, "vectorized"), 0);
}

#[test]
fn spreads_scalar_loop_with_independent_iterations() {
    // a[i] = a[i]*a[i] + 3: self dependence distance 0 only — not
    // vectorizable as written? it is — but make it non-vectorizable by
    // reading the loop variable's value directly
    let src = r#"
int a[100];
void f(void) { int i; for (i = 0; i < 100; i++) a[i] = i; }
"#;
    let mut prog = prep(src);
    let opts = VectorOptions {
        parallelize: true,
        ..VectorOptions::default()
    };
    let rep = vectorize(&mut prog.procs[0], &opts);
    // a[i] = i reads lv as a value: not vectorizable, but iterations are
    // independent — spread across processors
    assert_eq!(loops(&rep, "vectorized"), 0);
    assert_eq!(
        loops(&rep, "parallelized"),
        1,
        "{}",
        pretty_proc(&prog.procs[0])
    );
    assert!(pretty_proc(&prog.procs[0]).contains("do parallel"));
}

#[test]
fn multi_statement_loop_vectorizes_in_dependence_order() {
    let src = r#"
float a[64], b[64], t[64];
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) b[i] = i;
    for (i = 0; i < 64; i++) {
        t[i] = b[i] * 2.0f;
        a[i] = t[i] + 1.0f;
    }
    return 0;
}
"#;
    let base = prep(src);
    let mut vec_prog = base.clone();
    let rep = vectorize(&mut vec_prog.procs[0], &VectorOptions::default());
    assert!(
        loops(&rep, "vectorized") >= 1,
        "{}",
        pretty_proc(&vec_prog.procs[0])
    );
    let g = [("a", ScalarType::Float, 64), ("t", ScalarType::Float, 64)];
    assert_eq!(observe(&base, &g), observe(&vec_prog, &g));
}

// ------------------------------------------------------------------
// §6: strength reduction / register promotion
// ------------------------------------------------------------------

#[test]
fn backsolve_register_promotion() {
    // §6's loop: p[i] = z[i] * (y[i] - q[i]) with q one behind p
    let src = r#"
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
"#;
    let base = prep(src);
    let mut opt = base.clone();
    vectorize(&mut opt.procs[0], &VectorOptions::default());
    let rep = strength_reduce(&mut opt.procs[0], Aliasing::C);
    assert_eq!(
        rep.get(Count::StrengthPromoted),
        1,
        "{}",
        pretty_proc(&opt.procs[0])
    );
    assert!(rep.get(Count::StrengthReduced) >= 2, "{rep:?}");
    let text = pretty_proc(&opt.procs[0]);
    assert!(text.contains("f_reg"), "{text}");

    let g = [("x", ScalarType::Float, 100)];
    assert_eq!(observe(&base, &g), observe(&opt, &g));
}

#[test]
fn backsolve_speedup_shape() {
    // the paper: 0.5 → 1.9 MFLOPS. verify the shape: ≥2.5× speedup and
    // integer multiplies gone.
    let src = r#"
float x[1026], y[1026], z[1026];
int main(void)
{
    float *p, *q;
    int i;
    for (i = 0; i < 1026; i++) { x[i] = 1.0f; y[i] = i; z[i] = 0.5f; }
    p = &x[1];
    q = &x[0];
    for (i = 0; i < 1024; i++)
        p[i] = z[i] * (y[i] - q[i]);
    return 0;
}
"#;
    let base = compile_to_il(src).unwrap(); // completely unoptimized
    let mut opt = prep(src);
    vectorize(&mut opt.procs[0], &VectorOptions::default());
    strength_reduce(&mut opt.procs[0], Aliasing::C);
    titanc_opt::eliminate_dead_code(&mut opt.procs[0]);

    let (_, s_base) = titanc_titan::observe(&base, MachineConfig::scalar(), "main", &[]).unwrap();
    let (_, s_opt) = titanc_titan::observe(&opt, MachineConfig::optimized(1), "main", &[]).unwrap();
    let speedup = s_base.cycles / s_opt.cycles;
    assert!(
        speedup > 2.0,
        "dependence-driven scalar opts speedup {speedup:.2} (base {} opt {})",
        s_base.cycles,
        s_opt.cycles
    );
    // results agree
    let g = [("x", ScalarType::Float, 100)];
    let b = titanc_titan::observe(&base, MachineConfig::scalar(), "main", &g)
        .unwrap()
        .0;
    let o = titanc_titan::observe(&opt, MachineConfig::optimized(1), "main", &g)
        .unwrap()
        .0;
    assert_eq!(b.globals, o.globals);
}

#[test]
fn strength_reduction_removes_multiplies() {
    let src = r#"
float a[64], b[64];
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) b[i] = i;
    for (i = 0; i < 64; i++) a[i] = b[i] + 1.0f;
    return 0;
}
"#;
    // force scalar (C aliasing fine: named arrays vectorize; so disable by
    // not vectorizing and just strength-reducing)
    let base = prep(src);
    let mut opt = base.clone();
    let rep = strength_reduce(&mut opt.procs[0], Aliasing::C);
    assert!(rep.get(Count::StrengthReduced) >= 2, "{rep:?}");
    let text = pretty_proc(&opt.procs[0]);
    assert!(text.contains("sr_p"), "{text}");
    let g = [("a", ScalarType::Float, 64)];
    assert_eq!(observe(&base, &g), observe(&opt, &g));
    // integer multiply count drops
    let (_, s_base) = titanc_titan::observe(&base, MachineConfig::scalar(), "main", &[]).unwrap();
    let (_, s_opt) = titanc_titan::observe(&opt, MachineConfig::scalar(), "main", &[]).unwrap();
    assert!(
        s_opt.cycles < s_base.cycles,
        "{} !< {}",
        s_opt.cycles,
        s_base.cycles
    );
}

#[test]
fn hoists_invariant_statement() {
    let src = r#"
float a[64];
int main(void)
{
    int i;
    float k;
    float scale;
    scale = 3.0f;
    for (i = 0; i < 64; i++) {
        k = scale * 2.0f;
        a[i] = k;
    }
    return 0;
}
"#;
    let prog = compile_to_il(src).unwrap();
    let mut proc = prog.procs[0].clone();
    titanc_opt::convert_while_loops(&mut proc);
    titanc_opt::induction_substitution(&mut proc);
    // constant bounds must be visible for the trips>=1 safety check
    titanc_opt::constant_propagation(&mut proc);
    let rep = strength_reduce(&mut proc, Aliasing::C);
    assert!(
        rep.get(Count::StrengthHoisted) >= 1,
        "{}",
        pretty_proc(&proc)
    );
    // equivalence
    let mut opt_prog = prog.clone();
    opt_prog.procs[0] = proc;
    let g = [("a", ScalarType::Float, 64)];
    let b = titanc_titan::observe(&prog, MachineConfig::scalar(), "main", &g)
        .unwrap()
        .0;
    let o = titanc_titan::observe(&opt_prog, MachineConfig::scalar(), "main", &g)
        .unwrap()
        .0;
    assert_eq!(b, o);
}

#[test]
fn daxpy_pragma_full_pipeline_speedup() {
    // the §9 result shape without inlining: pragma-safe daxpy body,
    // vectorized + parallelized on 2 processors vs scalar
    let src = r#"
float xa[100], yb[100], zc[100];
int main(void)
{
    float *x, *y, *z;
    float alpha;
    int n;
    x = &xa[0];
    y = &yb[0];
    z = &zc[0];
    alpha = 1.0f;
    n = 100;
#pragma safe
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
    return 0;
}
"#;
    let base = compile_to_il(src).unwrap();
    let mut opt = prep(src);
    let opts = VectorOptions {
        parallelize: true,
        ..VectorOptions::default()
    };
    let rep = vectorize(&mut opt.procs[0], &opts);
    assert!(
        loops(&rep, "vectorized") >= 1,
        "{}",
        pretty_proc(&opt.procs[0])
    );

    let g = [("xa", ScalarType::Float, 100)];
    let b = titanc_titan::observe(&base, MachineConfig::scalar(), "main", &g).unwrap();
    let o = titanc_titan::observe(&opt, MachineConfig::optimized(2), "main", &g).unwrap();
    assert_eq!(b.0.globals, o.0.globals);
    let speedup = b.1.cycles / o.1.cycles;
    assert!(speedup > 4.0, "vector+parallel speedup {speedup:.2}");
}

#[test]
fn partial_distribution_splits_vector_and_scalar() {
    // the second statement is a recurrence (stays scalar); the first is a
    // clean vector statement. Allen-Kennedy distribution separates them.
    let src = r#"
float a[64], b[64], r[66];
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) {
        a[i] = b[i] + 1.0f;
        r[i + 1] = r[i] * 0.5f;
    }
    return 0;
}
"#;
    let base = prep(src);
    let mut opt = base.clone();
    let rep = vectorize(&mut opt.procs[0], &VectorOptions::default());
    assert_eq!(
        loops(&rep, "vectorized"),
        1,
        "{}",
        pretty_proc(&opt.procs[0])
    );
    let text = pretty_proc(&opt.procs[0]);
    assert!(text.contains("(float)["), "vector part emitted: {text}");
    assert!(
        text.contains("do fortran"),
        "residual scalar loop remains: {text}"
    );
    let g = [("a", ScalarType::Float, 64), ("r", ScalarType::Float, 66)];
    assert_eq!(observe(&base, &g), observe(&opt, &g));
}

#[test]
fn distribution_respects_dependence_order() {
    // vector statement consumes what the scalar recurrence produces:
    // the residual loop must run before the vector statement
    let src = r#"
float a[64], r[66];
int main(void)
{
    int i;
    r[0] = 1.0f;
    for (i = 0; i < 64; i++) {
        r[i + 1] = r[i] * 0.5f;
        a[i] = r[i] + 1.0f;
    }
    return 0;
}
"#;
    let base = prep(src);
    let mut opt = base.clone();
    let rep = vectorize(&mut opt.procs[0], &VectorOptions::default());
    // r[i] is read by the vector candidate but r is written by the
    // recurrence with unknown-to-vector timing: the dependence keeps them
    // ordered. Whatever the classification, semantics must hold.
    let _ = rep;
    let g = [("a", ScalarType::Float, 64), ("r", ScalarType::Float, 66)];
    assert_eq!(observe(&base, &g), observe(&opt, &g));
}

#[test]
fn scalar_flow_between_statements_stays_in_one_loop() {
    // t carries a value from statement 1 to statement 2 each iteration;
    // distribution must not separate them (scalar edges force one SCC)
    let src = r#"
float a[64], b[64];
int main(void)
{
    int i;
    float t;
    for (i = 0; i < 64; i++) {
        t = b[i] * 2.0f;
        a[i] = t + 1.0f;
    }
    return 0;
}
"#;
    let base = prep(src);
    let mut opt = base.clone();
    vectorize(&mut opt.procs[0], &VectorOptions::default());
    let g = [("a", ScalarType::Float, 64)];
    assert_eq!(observe(&base, &g), observe(&opt, &g));
}

// ---------------------------------------------------------------------
// the order of the vector phase's one sweep, as `--opt-report` prints it
// ---------------------------------------------------------------------

/// `(source line, decision tag, scalar reason)` of every event.
fn trail(events: &[LoopEvent]) -> Vec<(u32, &'static str, &str)> {
    events
        .iter()
        .map(|e| {
            let why = match &e.decision {
                LoopDecision::Scalar(why) => why.as_str(),
                _ => "",
            };
            (e.span.line, e.decision.tag(), why)
        })
        .collect()
}

const INNER_LOOP: &str = "contains an inner loop (only innermost loops are vectorized)";

#[test]
fn residual_loop_is_reported_right_after_its_vector_half() {
    let src = r#"
float a[64], b[64], c[64], r[66];
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) {
        a[i] = b[i] + 1.0f;
        r[i + 1] = r[i] * 0.5f;
    }
    for (i = 0; i < 64; i++) c[i] = b[i] * 2.0f;
    return 0;
}
"#;
    let mut prog = prep(src);
    let rep = vectorize(&mut prog.procs[0], &VectorOptions::default());
    assert_eq!(
        rep.loops[0].decision,
        LoopDecision::Vectorized {
            stripped: false,
            parallel: false,
            residual: true
        }
    );
    let t = trail(&rep.loops);
    assert_eq!(t.len(), 3, "the residual loop is reported once: {t:?}");
    assert_eq!((t[0].0, t[0].1), (6, "vectorized"));
    assert_eq!((t[1].0, t[1].1), (6, "scalar"), "{t:?}");
    assert_ne!(t[1].2, INNER_LOOP);
    assert_eq!((t[2].0, t[2].1), (10, "vectorized"), "{t:?}");
    assert_eq!((loops(&rep, "vectorized"), rep.notes.len()), (2, 1));
}

const NEST_THEN_SIBLING: &str = r#"
float a[8][64], b[8][64], c[64];
int main(void)
{
    int i, j;
    for (i = 0; i < 8; i++)
        for (j = 0; j < 64; j++) a[i][j] = b[i][j] + 1.0f;
    for (j = 0; j < 64; j++) c[j] = c[j] * 2.0f;
    return 0;
}
"#;

#[test]
fn parent_of_an_unstripped_inner_loop_is_the_next_candidate() {
    // 64 trips fit one vector, so the inner loop leaves no strip loop
    // behind and its parent is innermost by the time the sweep reaches it
    let mut prog = prep(NEST_THEN_SIBLING);
    let rep = vectorize(&mut prog.procs[0], &VectorOptions::default());
    let t = trail(&rep.loops);
    assert_eq!(t.len(), 3, "{t:?}");
    assert_eq!((t[0].0, t[0].1), (7, "vectorized"), "{t:?}");
    assert_eq!(
        t[1].0, 6,
        "the parent comes before its later sibling: {t:?}"
    );
    assert_ne!(t[1].2, INNER_LOOP, "it was visited, not swept: {t:?}");
    assert_eq!((t[2].0, t[2].1), (8, "vectorized"), "{t:?}");
}

#[test]
fn parent_of_a_strip_mined_inner_loop_is_swept_last() {
    let mut prog = prep(NEST_THEN_SIBLING);
    let opts = VectorOptions {
        parallelize: true,
        ..VectorOptions::default()
    };
    let rep = vectorize(&mut prog.procs[0], &opts);
    let t = trail(&rep.loops);
    assert_eq!(
        t,
        [
            (7, "vectorized", ""),
            (8, "vectorized", ""),
            (6, "scalar", INNER_LOOP)
        ]
    );
}

#[test]
fn list_loops_spread_in_source_order() {
    let src = r#"
struct node { float v; float out; struct node *next; };
float total;
void work(struct node *p, struct node *q, struct node *r)
{
    float s;
    while (p) {
        p->out = p->v * 2.0f;
        p = p->next;
    }
    s = 0.0f;
    while (q) {
        s = s + q->v;
        q = q->next;
    }
    total = s;
    while (r) {
        r->out = r->v + 1.0f;
        r = r->next;
    }
}
"#;
    let prog = compile_to_il(src).unwrap();
    let mut proc = prog.procs[0].clone();
    let rep = spread_list_loops(&mut proc);
    assert_eq!(rep.loops.len(), 2, "{}", pretty_proc(&proc));
    let vars: Vec<(&str, u32)> = rep
        .loops
        .iter()
        .map(|e| (e.var.as_str(), e.span.line))
        .collect();
    assert_eq!(vars, [("p", 7), ("r", 17)]);
    assert!(
        rep.loops
            .iter()
            .all(|e| e.decision == LoopDecision::ListSpread),
        "{:?}",
        rep.loops
    );
}
