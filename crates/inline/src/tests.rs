//! Inliner tests: §7 mechanics plus §9's driving example.

use crate::{externalize_statics, inline_program, GROWTH_SLACK, MAX_CALLEE_SIZE, MAX_GROWTH};
use titanc_il::{pretty_proc, Catalog, InlineOutcome, Program, ScalarType, StmtKind};
use titanc_lower::compile_to_il;
use titanc_titan::MachineConfig;

/// Call sites the report records with the outcome tagged `tag`.
fn sites(rep: &crate::InlineReport, tag: &str) -> usize {
    rep.events.iter().filter(|e| e.outcome.tag() == tag).count()
}

fn count_calls(prog: &Program, name: &str) -> usize {
    let mut n = 0;
    prog.proc_by_name(name)
        .unwrap()
        .for_each_stmt(&mut |_, kind| {
            if matches!(kind, StmtKind::Call { .. }) {
                n += 1;
            }
        });
    n
}

fn equivalent(src: &str, globals: &[(&str, ScalarType, u32)]) -> (Program, Program) {
    let base = compile_to_il(src).unwrap();
    let mut inl = base.clone();
    inline_program(&mut inl);
    let b = titanc_titan::observe(&base, MachineConfig::default(), "main", globals)
        .unwrap()
        .0;
    let a = titanc_titan::observe(&inl, MachineConfig::default(), "main", globals)
        .unwrap_or_else(|e| {
            panic!(
                "inlined program failed: {e}\n{}",
                pretty_proc(inl.proc_by_name("main").unwrap())
            )
        })
        .0;
    assert_eq!(b, a);
    (base, inl)
}

#[test]
fn inlines_simple_function() {
    let (_b, inl) = equivalent(
        "int square(int x) { return x * x; }\nint main(void) { return square(7); }",
        &[],
    );
    assert_eq!(count_calls(&inl, "main"), 0);
    let text = pretty_proc(inl.proc_by_name("main").unwrap());
    assert!(text.contains("in_x"), "parameter temp naming: {text}");
    assert!(text.contains("lb_"), "landing label: {text}");
}

#[test]
fn inlines_daxpy_shape() {
    // the §9 example: the inlined body must contain the early-return
    // branches as gotos to the landing label
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
    let (_b, inl) = equivalent(src, &[("a", ScalarType::Float, 100)]);
    assert_eq!(count_calls(&inl, "main"), 0);
    let text = pretty_proc(inl.proc_by_name("main").unwrap());
    assert!(text.contains("in_alpha"), "{text}");
    assert!(text.contains("goto lb_"), "{text}");
}

#[test]
fn return_value_flows_through_temp() {
    let (_b, inl) = equivalent(
        "int add(int a, int b) { return a + b; }\nint main(void) { int r; r = add(40, 2); return r; }",
        &[],
    );
    let text = pretty_proc(inl.proc_by_name("main").unwrap());
    assert!(text.contains("ret_add"), "{text}");
}

#[test]
fn multiple_returns_merge() {
    let src = r#"
int sign(int x) { if (x > 0) return 1; if (x < 0) return -1; return 0; }
int main(void) { return sign(-5) + sign(9) + sign(0); }
"#;
    let (_b, inl) = equivalent(src, &[]);
    assert_eq!(count_calls(&inl, "main"), 0);
}

#[test]
fn recursive_function_not_inlined() {
    let src = r#"
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main(void) { return fib(10); }
"#;
    let base = compile_to_il(src).unwrap();
    let mut inl = base.clone();
    let rep = inline_program(&mut inl);
    assert_eq!(sites(&rep, "expanded"), 0);
    assert!(sites(&rep, "skipped_recursive") > 0);
    assert!(count_calls(&inl, "main") > 0);
}

#[test]
fn mutual_recursion_not_inlined() {
    let src = r#"
int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int main(void) { return even(10); }
"#;
    let base = compile_to_il(src).unwrap();
    let mut inl = base.clone();
    let rep = inline_program(&mut inl);
    assert_eq!(sites(&rep, "expanded"), 0);
    assert!(sites(&rep, "skipped_recursive") > 0);
}

#[test]
fn nested_inlining_leaves_first() {
    // main calls outer calls leaf: both layers expand (§7 ordering)
    let src = r#"
int leaf(int x) { return x + 1; }
int outer(int x) { return leaf(x) * 2; }
int main(void) { return outer(10); }
"#;
    let (_b, inl) = equivalent(src, &[]);
    assert_eq!(
        count_calls(&inl, "main"),
        0,
        "{}",
        pretty_proc(inl.proc_by_name("main").unwrap())
    );
}

#[test]
fn statics_externalized_and_shared() {
    // counter state must be shared between the inlined copy and the
    // still-callable original (§7)
    let src = r#"
int counter(void) { static int count = 0; count++; return count; }
int twice(void) { counter(); return counter(); }
int main(void) { counter(); return twice(); }
"#;
    let base = compile_to_il(src).unwrap();
    let mut inl = base.clone();
    let rep = inline_program(&mut inl);
    assert_eq!(rep.statics_externalized, 1);
    assert!(sites(&rep, "expanded") >= 2);
    assert!(inl.global_by_name("counter.count").is_some());
    let b = titanc_titan::observe(&base, MachineConfig::default(), "main", &[])
        .unwrap()
        .0;
    let a = titanc_titan::observe(&inl, MachineConfig::default(), "main", &[])
        .unwrap()
        .0;
    assert_eq!(b, a, "shared static state (3 calls total => 3)");
    assert_eq!(a.value.unwrap().as_int(), 3);
}

#[test]
fn externalize_preserves_initializer() {
    let src = "int counter(void) { static int count = 5; count++; return count; }";
    let mut prog = compile_to_il(src).unwrap();
    externalize_statics(&mut prog);
    let g = prog.global_by_name("counter.count").unwrap();
    assert_eq!(g.init, Some(titanc_il::ConstInit::Int(5)));
}

/// `int name(int x)` with a body `len` statements long: `len - 1`
/// assignments and the `return`.
fn sized_callee(name: &str, len: usize) -> String {
    let body: String = (1..len).map(|k| format!("    x = x + {k};\n")).collect();
    format!("int {name}(int x)\n{{\n{body}    return x;\n}}\n")
}

/// `int name(void)` whose body pads `pad` assignments before calling
/// `callee`.
fn padded_caller(name: &str, pad: usize, callee: &str) -> String {
    let body: String = (0..pad).map(|k| format!("    y = y + {k};\n")).collect();
    format!("int {name}(void)\n{{\n    int y;\n    y = 0;\n{body}    return {callee}(y);\n}}\n")
}

fn proc_len(prog: &Program, name: &str) -> usize {
    prog.proc_by_name(name).unwrap().len()
}

#[test]
fn size_budget_respected() {
    // a callee one statement over the cap is skipped, one at the cap
    // expands (its caller is padded so the growth budget admits it)
    let src = format!(
        "{}{}{}{}",
        sized_callee("over", MAX_CALLEE_SIZE + 1),
        sized_callee("at", MAX_CALLEE_SIZE),
        padded_caller("calls_over", 40, "over"),
        padded_caller("calls_at", 40, "at"),
    );
    let mut prog = compile_to_il(&src).unwrap();
    assert_eq!(proc_len(&prog, "over"), MAX_CALLEE_SIZE + 1);
    assert_eq!(proc_len(&prog, "at"), MAX_CALLEE_SIZE);
    let rep = inline_program(&mut prog);
    assert_eq!(sites(&rep, "expanded"), 1);
    // `calls_over` re-attempts (and re-skips) once per round
    assert!(sites(&rep, "skipped_size") >= 1);
    assert_eq!(sites(&rep, "skipped_growth"), 0);
    let skipped: Vec<_> = rep.events.iter().map(|e| &e.outcome).collect();
    assert!(skipped.contains(&&InlineOutcome::SkippedSize {
        callee_len: MAX_CALLEE_SIZE + 1,
        cap: MAX_CALLEE_SIZE,
    }));
    assert_eq!(count_calls(&prog, "calls_over"), 1);
    assert_eq!(count_calls(&prog, "calls_at"), 0);
}

#[test]
fn growth_budget_is_per_caller() {
    // one callee, two callers: each caller may grow to `MAX_GROWTH ×` its
    // own pre-inlining size plus `GROWTH_SLACK`. The callee fills the
    // budget of a caller of `edge` statements exactly and overflows that
    // of a caller one statement shorter, so the two decisions differ
    // although both callers call the same procedure.
    let edge = 8;
    let grow_len = edge * (MAX_GROWTH - 1) + GROWTH_SLACK;
    assert!(grow_len <= MAX_CALLEE_SIZE);
    let src = format!(
        "{}{}{}",
        sized_callee("grow", grow_len),
        padded_caller("lean", edge - 4, "grow"),
        padded_caller("ample", edge - 3, "grow"),
    );
    let mut prog = compile_to_il(&src).unwrap();
    assert_eq!(proc_len(&prog, "grow"), grow_len);
    assert_eq!(proc_len(&prog, "lean"), edge - 1);
    assert_eq!(proc_len(&prog, "ample"), edge);
    let rep = inline_program(&mut prog);
    assert_eq!(sites(&rep, "expanded"), 1, "ample's budget absorbs grow");
    // `lean` re-attempts (and re-skips) once per round
    assert!(
        sites(&rep, "skipped_growth") >= 1,
        "lean's budget rejects grow"
    );
    let lean_budget = (edge - 1) * MAX_GROWTH + GROWTH_SLACK;
    assert!(rep.events.iter().any(|e| e.caller == "lean"
        && e.outcome
            == InlineOutcome::SkippedGrowth {
                caller_len: edge - 1,
                budget: lean_budget,
            }));
    // `ample` lands exactly on its budget
    assert_eq!(edge + grow_len, edge * MAX_GROWTH + GROWTH_SLACK);
    assert_eq!(count_calls(&prog, "lean"), 1);
    assert_eq!(count_calls(&prog, "ample"), 0);
}

#[test]
fn unknown_callees_left_alone() {
    let src = "int main(void) { print_int(3); return 0; }";
    let mut prog = compile_to_il(src).unwrap();
    let rep = inline_program(&mut prog);
    assert_eq!(sites(&rep, "expanded"), 0);
    assert_eq!(count_calls(&prog, "main"), 1);
}

#[test]
fn pointer_arguments_bind_correctly() {
    let src = r#"
void store3(int *p) { *p = 3; }
int main(void) { int x; x = 0; store3(&x); return x; }
"#;
    let (_b, inl) = equivalent(src, &[]);
    assert_eq!(count_calls(&inl, "main"), 0);
}

#[test]
fn globals_referenced_by_callee_resolve() {
    let src = r#"
int shared;
void bump(void) { shared = shared + 1; }
int main(void) { shared = 10; bump(); bump(); return shared; }
"#;
    let (_b, inl) = equivalent(src, &[("shared", ScalarType::Int, 1)]);
    assert_eq!(count_calls(&inl, "main"), 0);
}

#[test]
fn catalog_inlining_matches_same_file() {
    // "math libraries can be compiled into databases and used as a base
    // for inlining" (§7)
    let lib_src = "float scale(float x, float k) { return x * k; }";
    let lib = compile_to_il(lib_src).unwrap();
    let catalog = Catalog::from_program("mathlib", &lib);
    // round-trip the catalog through its file bytes, as the on-disk
    // database would
    let catalog = Catalog::from_bytes(&catalog.to_bytes()).unwrap();

    let app_src = r#"
float scale(float x, float k);
float g_out;
int main(void) { g_out = scale(2.0f, 21.0f); return (int)g_out; }
"#;
    let mut app = compile_to_il(app_src).unwrap();
    catalog.link_into(&mut app);
    let rep = inline_program(&mut app);
    assert_eq!(sites(&rep, "expanded"), 1);
    assert_eq!(count_calls(&app, "main"), 0);
    let r = titanc_titan::observe(&app, MachineConfig::default(), "main", &[])
        .unwrap()
        .0;
    assert_eq!(r.value.unwrap().as_int(), 42);
}

#[test]
fn inlined_call_in_loop_unlocks_loop_shape() {
    // calls inhibit vectorization (§1 item 4); after inlining, the loop
    // body has no calls
    let src = r#"
float f(float x) { return x * 2.0f; }
float a[32], b[32];
int main(void)
{
    int i;
    for (i = 0; i < 32; i++)
        a[i] = f(b[i]);
    return 0;
}
"#;
    let (_b, inl) = equivalent(src, &[("a", ScalarType::Float, 32)]);
    assert_eq!(count_calls(&inl, "main"), 0);
}

#[test]
fn argument_expressions_evaluate_once() {
    // n++ as an argument must be bound exactly once
    let src = r#"
int id(int x) { return x; }
int main(void) { int n, r; n = 5; r = id(n++); return r * 100 + n; }
"#;
    let (_b, inl) = equivalent(src, &[]);
    let r = titanc_titan::observe(&inl, MachineConfig::default(), "main", &[])
        .unwrap()
        .0;
    assert_eq!(r.value.unwrap().as_int(), 506);
}

#[test]
fn daxpy_alpha_zero_specializes_after_opt() {
    // §8's example end-to-end: inline daxpy(x, y, 0.0, z), then constant
    // propagation + unreachable elimination delete the FP assignment
    let src = r#"
void daxpy1(float *x, float y, float a, float z)
{
    if (a == 0.0f)
        return;
    *x = y + a * z;
}
float cell;
int main(void)
{
    cell = 7.0f;
    daxpy1(&cell, 1.0f, 0.0f, 2.0f);
    return (int)cell;
}
"#;
    let base = compile_to_il(src).unwrap();
    let mut inl = base.clone();
    inline_program(&mut inl);
    let main = inl.proc_by_name("main").unwrap().clone();
    let before_len = main.len();
    let mut opt = main;
    titanc_opt::constant_propagation(&mut opt);
    titanc_opt::eliminate_dead_code(&mut opt);
    let after_len = opt.len();
    assert!(
        after_len < before_len,
        "specialization shrinks the inlined code: {} -> {}\n{}",
        before_len,
        after_len,
        pretty_proc(&opt)
    );
    let text = pretty_proc(&opt);
    assert!(!text.contains("in_a *"), "dead FP multiply removed: {text}");
}
