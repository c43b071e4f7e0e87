//! Lowering tests: the §4/§5.3 shapes.

use crate::compile_to_il;
use titanc_il::{
    pretty_expr_in, pretty_proc, BinOp, Expr, LValue, Procedure, Program, ScalarType, StmtKind,
};

fn lower_one(src: &str, name: &str) -> (Program, Procedure) {
    let prog = compile_to_il(src).expect("compile");
    let proc = prog.proc_by_name(name).expect("proc").clone();
    (prog, proc)
}

/// Collect every statement kind (flattened) of a procedure.
fn flat(proc: &Procedure) -> Vec<StmtKind> {
    let mut v = Vec::new();
    proc.for_each_stmt(&mut |_, k| v.push(k.clone()));
    v
}

#[test]
fn pointer_walk_produces_the_5_3_shape() {
    // §5.3: while(n) { *a++ = *b++; n--; } becomes
    //   temp_1 = a; a = temp_1 + 4; temp_2 = b; b = temp_2 + 4;
    //   *temp_1 = *temp_2; temp_3 = n; n = temp_3 - 1;
    let (_p, proc) = lower_one(
        "void copy(float *a, float *b, int n) { while (n) { *a++ = *b++; n--; } }",
        "copy",
    );
    let text = pretty_proc(&proc);
    assert!(text.contains("while ("), "{text}");
    // pointer increments scaled by sizeof(float) = 4
    assert!(text.contains("+ 4"), "{text}");
    // the star assignment goes through the temporaries
    let body_stmts = flat(&proc);
    let star_assigns: Vec<_> = body_stmts
        .iter()
        .filter(|k| {
            matches!(
                k,
                StmtKind::Assign {
                    lhs: LValue::Deref { .. },
                    ..
                }
            )
        })
        .collect();
    assert_eq!(star_assigns.len(), 1, "{text}");
}

#[test]
fn while_condition_side_effects_are_duplicated() {
    // §4: while((SL,E)) => SL; while(E) { body; SL }
    let (_p, proc) = lower_one("void f(int n) { while (n--) { ; } }", "f");
    // n-- lowers to temp=n; n=temp-1 — must appear both before the loop and
    // at the end of the body.
    let pre_loop: Vec<_> = proc
        .body
        .iter()
        .take_while(|&&s| !matches!(proc.stmts[s], StmtKind::While { .. }))
        .collect();
    assert!(pre_loop.len() >= 2, "SL emitted before loop");
    let w = proc
        .body
        .iter()
        .find(|&&s| matches!(proc.stmts[s], StmtKind::While { .. }))
        .unwrap();
    if let StmtKind::While { body, .. } = &proc.stmts[*w] {
        assert!(body.len() >= 2, "SL duplicated at the end of the body");
    }
}

#[test]
fn chained_assignment_writes_volatile_once() {
    // §4: a = v = b with v volatile — v is written once and never read.
    let src = "volatile int v; void f(int a, int b) { a = v = b; }";
    let (_p, proc) = lower_one(src, "f");
    let stmts = flat(&proc);
    let mut volatile_stores = 0;
    let mut volatile_loads = 0;
    for k in &stmts {
        if let StmtKind::Assign { lhs, rhs } = k {
            if lhs.is_volatile() {
                volatile_stores += 1;
            }
            if proc.exprs.any(*rhs, Expr::is_volatile_load) {
                volatile_loads += 1;
            }
        }
    }
    assert_eq!(volatile_stores, 1, "volatile written exactly once");
    assert_eq!(volatile_loads, 0, "volatile never read back");
}

#[test]
fn volatile_poll_loop_reads_every_iteration() {
    let src = "volatile int keyboard_status; void f(void) { keyboard_status = 0; while (!keyboard_status); }";
    let (_p, proc) = lower_one(src, "f");
    let w = proc
        .body
        .iter()
        .find(|&&s| matches!(proc.stmts[s], StmtKind::While { .. }))
        .expect("loop");
    if let StmtKind::While { cond, .. } = &proc.stmts[*w] {
        assert!(
            proc.exprs.any(*cond, Expr::is_volatile_load),
            "condition must re-read the register"
        );
    }
}

#[test]
fn logical_and_short_circuits() {
    let (_p, proc) = lower_one("int f(int a, int b) { return a && b / a; }", "f");
    // the division must be guarded by an If
    let has_guarded_div = proc.any_stmt(|_, k| {
        if let StmtKind::If { then_blk, .. } = k {
            then_blk.iter().any(|&inner| {
                proc.stmts[inner]
                    .exprs()
                    .iter()
                    .any(|e| pretty_expr_in(&proc.exprs, e).contains('/'))
            })
        } else {
            false
        }
    });
    assert!(has_guarded_div, "{}", pretty_proc(&proc));
}

#[test]
fn conditional_expression_uses_temp() {
    let (_p, proc) = lower_one("int f(int a, int b) { return a ? b : 3; }", "f");
    let text = pretty_proc(&proc);
    assert!(text.contains("if ("), "{text}");
    assert!(text.contains("temp_"), "{text}");
}

#[test]
fn for_becomes_while() {
    let (_p, proc) = lower_one(
        "void f(float *a, int n) { int i; for (i = 0; i < n; i++) a[i] = 0; }",
        "f",
    );
    assert!(
        proc.any_stmt(|_, k| matches!(k, StmtKind::While { .. })),
        "for loops lower to while loops"
    );
    assert!(
        !proc.any_stmt(|_, k| matches!(k, StmtKind::DoLoop { .. })),
        "DO recognition happens in the optimizer, not the front end"
    );
}

#[test]
fn subscript_scales_by_element_size() {
    let (_p, proc) = lower_one("void f(double *a, int i) { a[i] = 1.0; }", "f");
    let text = pretty_proc(&proc);
    assert!(text.contains("* 8"), "double subscript scales by 8: {text}");
}

#[test]
fn pointer_difference_divides_by_size() {
    let (_p, proc) = lower_one("int f(float *a, float *b) { return a - b; }", "f");
    let text = pretty_proc(&proc);
    assert!(text.contains("/ 4"), "{text}");
}

#[test]
fn compound_assignment_pins_address() {
    let (_p, proc) = lower_one("void f(float *a, int i) { a[i] += 1.0f; }", "f");
    // the address a+4*i must be computed once into a pointer temp
    let stmts = flat(&proc);
    let ptr_temp_assigns = stmts
        .iter()
        .filter(|k| {
            matches!(k, StmtKind::Assign { lhs: LValue::Var(v), .. }
                if proc.var(*v).ty == titanc_il::Type::ptr_to(titanc_il::Type::Void))
        })
        .count();
    assert_eq!(ptr_temp_assigns, 1, "{}", pretty_proc(&proc));
}

#[test]
fn postfix_incdec_value_is_old() {
    let (_p, proc) = lower_one("int f(int n) { int m; m = n++; return m; }", "f");
    let text = pretty_proc(&proc);
    // m receives the temporary holding the old value
    assert!(text.contains("temp_0 = n"), "{text}");
    assert!(text.contains("n = (temp_0 + 1)"), "{text}");
    assert!(text.contains("m = temp_0"), "{text}");
}

#[test]
fn prefix_incdec_value_is_new() {
    let (_p, proc) = lower_one("int f(int n) { int m; m = ++n; return m; }", "f");
    let text = pretty_proc(&proc);
    assert!(text.contains("n = (n + 1)"), "{text}");
    assert!(text.contains("m = n"), "{text}");
}

#[test]
fn call_results_go_through_temps() {
    let src = "float g(float x); float f(float x) { return g(x) + g(x + 1.0f); }";
    let (_p, proc) = lower_one(src, "f");
    let stmts = flat(&proc);
    let calls = stmts
        .iter()
        .filter(|k| matches!(k, StmtKind::Call { .. }))
        .count();
    assert_eq!(calls, 2);
    // both calls assign to temporaries
    for k in &stmts {
        if let StmtKind::Call { dst, .. } = k {
            assert!(matches!(dst, Some(LValue::Var(_))));
        }
    }
}

#[test]
fn struct_member_offsets() {
    let src = r#"
struct pt { float x; float y; float z; };
float f(struct pt *p) { return p->z; }
"#;
    let (_prog, proc) = lower_one(src, "f");
    let text = pretty_proc(&proc);
    assert!(text.contains("+ 8"), "z is at offset 8: {text}");
}

#[test]
fn struct_embedded_array_addressing() {
    // The §10 Doré lesson: arrays embedded within structures.
    let src = r#"
struct matrix { float m[4][4]; };
float f(struct matrix *t, int i, int j) { return t->m[i][j]; }
"#;
    let (_prog, proc) = lower_one(src, "f");
    let text = pretty_proc(&proc);
    assert!(text.contains("* 16"), "row stride 16 bytes: {text}");
    assert!(text.contains("* 4"), "column stride 4 bytes: {text}");
}

#[test]
fn break_and_continue_lower_to_gotos() {
    let src = "void f(int n) { while (n) { if (n == 3) break; if (n == 4) continue; n--; } }";
    let (_p, proc) = lower_one(src, "f");
    let stmts = flat(&proc);
    assert!(stmts.iter().any(|k| matches!(k, StmtKind::Goto(_))));
    assert!(stmts.iter().any(|k| matches!(k, StmtKind::Label(_))));
}

#[test]
fn do_while_executes_body_first() {
    let (_p, proc) = lower_one("void f(int n) { do { n--; } while (n); }", "f");
    // shape: Label; body; IfGoto
    assert!(matches!(proc.stmts[proc.body[0]], StmtKind::Label(_)));
    assert!(proc
        .body
        .iter()
        .any(|&s| matches!(proc.stmts[s], StmtKind::IfGoto { .. })));
}

#[test]
fn comma_keeps_volatile_reads() {
    let src = "volatile int status; int f(int x) { return (status, x); }";
    let (_p, proc) = lower_one(src, "f");
    let stmts = flat(&proc);
    let keeps = stmts
        .iter()
        .any(|k| matches!(k, StmtKind::Assign { rhs, .. } if proc.exprs.any(*rhs, Expr::is_volatile_load)));
    assert!(keeps, "volatile read in discarded comma operand is kept");
}

#[test]
fn comma_drops_pure_reads() {
    let src = "int f(int x, int y) { return (x, y); }";
    let (_p, proc) = lower_one(src, "f");
    // nothing but the return
    assert_eq!(proc.body.len(), 1, "{}", pretty_proc(&proc));
}

#[test]
fn sizeof_is_constant() {
    let (_p, proc) = lower_one("int f(void) { return sizeof(double); }", "f");
    match &proc.stmts[proc.body[0]] {
        StmtKind::Return(Some(e)) if matches!(proc.exprs[*e], Expr::IntConst(8)) => {}
        other => panic!("expected constant 8, got {other:?}"),
    }
}

#[test]
fn global_initializers_recorded() {
    let prog = compile_to_il("float alpha = 2.5; int n = -3;").unwrap();
    let a = prog.global_by_name("alpha").unwrap();
    assert_eq!(a.init, Some(titanc_il::ConstInit::Float(2.5)));
    let n = prog.global_by_name("n").unwrap();
    assert_eq!(n.init, Some(titanc_il::ConstInit::Int(-3)));
}

#[test]
fn static_local_becomes_static_storage() {
    let (_p, proc) = lower_one(
        "int counter(void) { static int count = 0; count++; return count; }",
        "counter",
    );
    let v = proc.var_by_name("count").unwrap();
    assert_eq!(proc.var(v).storage, titanc_il::Storage::Static);
    assert_eq!(proc.var(v).init, Some(titanc_il::ConstInit::Int(0)));
}

#[test]
fn float_condition_compares_to_zero() {
    let (_p, proc) = lower_one("void f(float x) { if (x) x = 1.0f; }", "f");
    let w = proc
        .body
        .iter()
        .find(|&&s| matches!(proc.stmts[s], StmtKind::If { .. }))
        .unwrap();
    if let StmtKind::If { cond, .. } = &proc.stmts[*w] {
        match proc.exprs[*cond] {
            Expr::Binary {
                op: BinOp::Ne, ty, ..
            } => assert_eq!(ty, ScalarType::Float),
            other => panic!("expected != 0.0 comparison, got {other:?}"),
        }
    }
}

#[test]
fn argument_conversions_follow_prototype() {
    let src = "void g(double d); void f(int x) { g(x); }";
    let (_p, proc) = lower_one(src, "f");
    let stmts = flat(&proc);
    let call = stmts
        .iter()
        .find(|k| matches!(k, StmtKind::Call { .. }))
        .unwrap();
    if let StmtKind::Call { args, .. } = call {
        assert!(matches!(
            proc.exprs[args[0]],
            Expr::Cast {
                to: ScalarType::Double,
                ..
            }
        ));
    }
}

#[test]
fn pragma_safe_marks_loop() {
    let src =
        "void f(float *a, float *b, int n) {\n#pragma safe\nwhile (n) { *a++ = *b++; n--; } }";
    let (_p, proc) = lower_one(src, "f");
    let w = proc
        .body
        .iter()
        .find(|&&s| matches!(proc.stmts[s], StmtKind::While { .. }))
        .unwrap();
    assert!(matches!(proc.stmts[*w], StmtKind::While { safe: true, .. }));
}

#[test]
fn undeclared_identifier_is_an_error() {
    let err = compile_to_il("void f(void) { x = 1; }").unwrap_err();
    assert!(err.contains("undeclared"), "{err}");
}

#[test]
fn address_of_marks_variable_addressed() {
    let (_p, proc) = lower_one("void f(void) { int x; int *p; p = &x; *p = 2; }", "f");
    let x = proc.var_by_name("x").unwrap();
    assert!(proc.var(x).addressed);
}

#[test]
fn backsolve_lowers() {
    // §6's example, used by EXP2.
    let src = r#"
void backsolve(float *x, float *y, float *z, int n)
{
    float *p, *q;
    int i;
    p = &x[1];
    q = &x[0];
    for (i = 0; i < n - 2; i++)
        p[i] = z[i] * (y[i] - q[i]);
}
"#;
    let (_p, proc) = lower_one(src, "backsolve");
    let text = pretty_proc(&proc);
    assert!(text.contains("while ("), "{text}");
    assert!(text.contains("p = "), "{text}");
}

#[test]
fn daxpy_main_lowers() {
    // The §9 driving example.
    let src = r#"
void daxpy(float *x, float *y, float *z, float alpha, int n);
int main(void)
{
    float a[100], b[100], c[100];
    daxpy(a, b, c, 1.0, 100);
    return 0;
}
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}
"#;
    let prog = compile_to_il(src).unwrap();
    assert_eq!(prog.procs.len(), 2);
    let main = prog.proc_by_name("main").unwrap();
    let call = {
        let mut found = None;
        main.for_each_stmt(&mut |_, k| {
            if let StmtKind::Call { callee, args, .. } = k {
                found = Some((callee.clone(), args.len()));
            }
        });
        found.unwrap()
    };
    assert_eq!(call, ("daxpy".to_string(), 5));
}

#[test]
fn switch_lowers_to_dispatch_chain() {
    let src = r#"
int f(int x)
{
    int r;
    r = 0;
    switch (x) {
    case 1:
        r = 10;
        break;
    case 2:
        r = 20;
        /* fallthrough */
    case 3:
        r = r + 1;
        break;
    default:
        r = -1;
    }
    return r;
}
"#;
    let (_p, proc) = lower_one(src, "f");
    let stmts = flat(&proc);
    let ifgotos = stmts
        .iter()
        .filter(|k| matches!(k, StmtKind::IfGoto { .. }))
        .count();
    assert_eq!(ifgotos, 3, "one dispatch branch per case");
    let labels = stmts
        .iter()
        .filter(|k| matches!(k, StmtKind::Label(_)))
        .count();
    assert!(labels >= 5, "case + default + end labels");
}

#[test]
fn switch_executes_with_fallthrough() {
    let src = r#"
int pick(int x)
{
    int r;
    r = 0;
    switch (x) {
    case 1:
        r = 10;
        break;
    case 2:
        r = 20;
    case 3:
        r = r + 1;
        break;
    default:
        r = -1;
    }
    return r;
}
int out_g[5];
int main(void)
{
    out_g[0] = pick(1);
    out_g[1] = pick(2);
    out_g[2] = pick(3);
    out_g[3] = pick(99);
    return 0;
}
"#;
    let prog = compile_to_il(src).unwrap();
    let (obs, _) = titanc_titan::observe(
        &prog,
        titanc_titan::MachineConfig::default(),
        "main",
        &[("out_g", ScalarType::Int, 4)],
    )
    .unwrap();
    use titanc_il::fold::Value;
    assert_eq!(
        obs.globals[0].1,
        vec![
            Value::Int(10),
            Value::Int(21),
            Value::Int(1),
            Value::Int(-1)
        ]
    );
}

#[test]
fn continue_inside_switch_targets_enclosing_loop() {
    let src = r#"
int f(int n)
{
    int i, s;
    s = 0;
    for (i = 0; i < n; i++) {
        switch (i) {
        case 2:
            continue;
        default:
            ;
        }
        s = s + 1;
    }
    return s;
}
int main(void) { return f(5); }
"#;
    let prog = compile_to_il(src).unwrap();
    let mut sim = titanc_titan::Simulator::new(&prog, titanc_titan::MachineConfig::default());
    let r = sim.run("main", &[]).unwrap();
    assert_eq!(r.value.unwrap().as_int(), 4, "i == 2 skipped");
}

#[test]
fn switch_without_default_falls_through_to_end() {
    let src = r#"
int f(int x) { int r; r = 7; switch (x) { case 1: r = 1; break; } return r; }
int main(void) { return f(5) * 10 + f(1); }
"#;
    let prog = compile_to_il(src).unwrap();
    let mut sim = titanc_titan::Simulator::new(&prog, titanc_titan::MachineConfig::default());
    let r = sim.run("main", &[]).unwrap();
    assert_eq!(r.value.unwrap().as_int(), 71);
}
