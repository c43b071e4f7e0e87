//! Simulator tests: semantics first, then the cost model.

use crate::{MachineConfig, Simulator, Value};
use titanc_il::{BinOp, LValue, ProcBuilder, ScalarType, StmtKind, Type};
use titanc_lower::compile_to_il;

fn run_c(src: &str) -> crate::RunResult {
    let prog = compile_to_il(src).expect("compile");
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    sim.run("main", &[]).expect("run")
}

fn ret_int(src: &str) -> i64 {
    run_c(src).value.expect("value").as_int()
}

#[test]
fn arithmetic_and_loops() {
    assert_eq!(ret_int("int main(void){ return 2 + 3 * 4; }"), 14);
    assert_eq!(
        ret_int("int main(void){ int i, s; s = 0; for (i = 1; i <= 10; i++) s += i; return s; }"),
        55
    );
    assert_eq!(
        ret_int(
            "int main(void){ int n, r; n = 10; r = 1; while (n) { r = r + n; n--; } return r; }"
        ),
        56
    );
}

#[test]
fn pointer_walk_copy() {
    let src = r#"
float src_a[8], dst_a[8];
int main(void)
{
    float *a, *b;
    int n, i;
    for (i = 0; i < 8; i++) src_a[i] = i * 1.5f;
    a = &dst_a[0];
    b = &src_a[0];
    n = 8;
    while (n) { *a++ = *b++; n--; }
    return (int)dst_a[7];
}
"#;
    let r = run_c(src);
    assert_eq!(r.value.unwrap().as_int(), 10); // 7*1.5 = 10.5 -> 10
}

#[test]
fn global_memory_is_observable() {
    let src = r#"
float x[4];
int main(void) { int i; for (i = 0; i < 4; i++) x[i] = i + 0.5f; return 0; }
"#;
    let prog = compile_to_il(src).unwrap();
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    sim.run("main", &[]).unwrap();
    for i in 0..4 {
        let v = sim.read_global("x", ScalarType::Float, i).unwrap();
        assert_eq!(v.as_float(), i as f64 + 0.5);
    }
}

#[test]
fn procedure_calls_and_recursion() {
    let src = r#"
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main(void) { return fib(12); }
"#;
    assert_eq!(ret_int(src), 144);
}

#[test]
fn call_by_pointer_mutates_caller() {
    let src = r#"
void bump(int *p) { *p += 1; }
int main(void) { int x; x = 41; bump(&x); return x; }
"#;
    assert_eq!(ret_int(src), 42);
}

#[test]
fn static_locals_persist() {
    let src = r#"
int counter(void) { static int count = 5; count++; return count; }
int main(void) { counter(); counter(); return counter(); }
"#;
    assert_eq!(ret_int(src), 8);
}

#[test]
fn volatile_script_terminates_poll_loop() {
    let src = r#"
volatile int keyboard_status;
int main(void)
{
    keyboard_status = 0;
    while (!keyboard_status);
    return keyboard_status;
}
"#;
    let prog = compile_to_il(src).unwrap();
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    sim.push_volatile_values(&[0, 0, 0, 7]);
    let r = sim.run("main", &[]).unwrap();
    assert_eq!(r.value.unwrap().as_int(), 7);
}

#[test]
fn without_volatile_script_poll_loop_hits_step_limit() {
    let src = r#"
volatile int keyboard_status;
int main(void)
{
    keyboard_status = 0;
    while (!keyboard_status);
    return 0;
}
"#;
    let prog = compile_to_il(src).unwrap();
    let cfg = MachineConfig {
        max_steps: 10_000,
        ..MachineConfig::default()
    };
    let mut sim = Simulator::new(&prog, cfg);
    let err = sim.run("main", &[]).unwrap_err();
    assert!(err.message.contains("step limit"), "{err}");
}

#[test]
fn print_intrinsics_capture_output() {
    let src = r#"
int main(void) { print_int(42); print_float(1.5f); return 0; }
"#;
    let r = run_c(src);
    assert_eq!(
        r.stats.output,
        vec!["42".to_string(), "1.500000".to_string()]
    );
}

#[test]
fn math_intrinsics() {
    let src = "int main(void) { double d; d = sqrt(9.0); return (int)d; }";
    assert_eq!(ret_int(src), 3);
}

#[test]
fn division_by_zero_traps() {
    let prog = compile_to_il("int main(void) { int z; z = 0; return 1 / z; }").unwrap();
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    let err = sim.run("main", &[]).unwrap_err();
    assert!(err.message.contains("division"), "{err}");
}

#[test]
fn goto_and_labels_execute() {
    let src = r#"
int main(void)
{
    int i, s;
    i = 0; s = 0;
loop:
    s += i;
    i++;
    if (i < 5) goto loop;
    return s;
}
"#;
    assert_eq!(ret_int(src), 10);
}

#[test]
fn char_arithmetic_wraps() {
    let src = "int main(void) { char c; c = 127; c = c + 1; return c; }";
    assert_eq!(ret_int(src), -128);
}

#[test]
fn float_single_precision_rounds() {
    // 0.1f is not 0.1
    let src = "int main(void) { float f; f = 0.1f; return (int)(f * 10000000.0f); }";
    let v = ret_int(src);
    assert_eq!(v, 1000000, "f32 rounding visible: {v}");
}

#[test]
fn do_loop_executes_fortran_semantics() {
    // build directly in IL: DO i = 10, 1, -2 { s += i }
    let mut b = ProcBuilder::new("main", Type::Int);
    let i = b.local("i", Type::Int);
    let s = b.local("s", Type::Int);
    let zero = b.int(0);
    b.assign_var(s, zero);
    let body = {
        let mut lb = b.block();
        let sv = lb.var(s);
        let iv = lb.var(i);
        let add = lb.ibinary(BinOp::Add, sv, iv);
        lb.assign_var(s, add);
        lb.stmts()
    };
    let (lo, hi, step) = (b.int(10), b.int(1), b.int(-2));
    b.do_loop(i, lo, hi, step, body);
    let sv = b.var(s);
    b.ret(Some(sv));
    let mut prog = titanc_il::Program::new();
    prog.add_proc(b.finish());
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    let r = sim.run("main", &[]).unwrap();
    assert_eq!(r.value.unwrap().as_int(), 10 + 8 + 6 + 4 + 2);
}

#[test]
fn zero_trip_do_loop_runs_zero_times() {
    let mut b = ProcBuilder::new("main", Type::Int);
    let i = b.local("i", Type::Int);
    let s = b.local("s", Type::Int);
    let seven = b.int(7);
    b.assign_var(s, seven);
    let body = {
        let mut lb = b.block();
        let zero = lb.int(0);
        lb.assign_var(s, zero);
        lb.stmts()
    };
    let (lo, hi, step) = (b.int(5), b.int(1), b.int(1));
    b.do_loop(i, lo, hi, step, body);
    let sv = b.var(s);
    b.ret(Some(sv));
    let mut prog = titanc_il::Program::new();
    prog.add_proc(b.finish());
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    let r = sim.run("main", &[]).unwrap();
    assert_eq!(r.value.unwrap().as_int(), 7);
}

#[test]
fn vector_assign_matches_scalar_loop() {
    // a[0:8:4] = b[0:8:4] + 2.0, built in IL directly
    let mut b = ProcBuilder::new("main", Type::Int);
    let a = b.global("va", Type::array_of(Type::Float, 8));
    let bb = b.global("vb", Type::array_of(Type::Float, 8));
    let i = b.local("i", Type::Int);
    // init vb[i] = i
    let body = {
        let mut lb = b.block();
        let base = lb.addr_of(bb);
        let iv = lb.var(i);
        let four = lb.int(4);
        let off = lb.ibinary(BinOp::Mul, iv, four);
        let addr = lb.binary(BinOp::Add, ScalarType::Ptr, base, off);
        let iv2 = lb.var(i);
        let cast = lb.cast(ScalarType::Float, ScalarType::Int, iv2);
        lb.assign(LValue::deref(addr, ScalarType::Float), cast);
        lb.stmts()
    };
    let (lo, hi, step) = (b.int(0), b.int(7), b.int(1));
    b.do_loop(i, lo, hi, step, body);
    let sec_base = b.addr_of(bb);
    let sec_len = b.int(8);
    let sec_stride = b.int(4);
    let section = b.section(sec_base, sec_len, sec_stride, ScalarType::Float);
    let two = b.float(2.0);
    let rhs = b.binary(BinOp::Add, ScalarType::Float, section, two);
    let lhs_base = b.addr_of(a);
    let lhs_len = b.int(8);
    let lhs_stride = b.int(4);
    b.assign(
        LValue::Section {
            base: lhs_base,
            len: lhs_len,
            stride: lhs_stride,
            ty: ScalarType::Float,
        },
        rhs,
    );
    let zero = b.int(0);
    b.ret(Some(zero));
    let mut prog = titanc_il::Program::new();
    prog.ensure_global(titanc_il::VarInfo {
        name: "va".into(),
        ty: Type::array_of(Type::Float, 8),
        storage: titanc_il::Storage::Global,
        volatile: false,
        addressed: true,
        init: None,
    });
    prog.ensure_global(titanc_il::VarInfo {
        name: "vb".into(),
        ty: Type::array_of(Type::Float, 8),
        storage: titanc_il::Storage::Global,
        volatile: false,
        addressed: true,
        init: None,
    });
    prog.add_proc(b.finish());
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    let r = sim.run("main", &[]).unwrap();
    for k in 0..8 {
        let v = sim.read_global("va", ScalarType::Float, k).unwrap();
        assert_eq!(v.as_float(), k as f64 + 2.0);
    }
    assert!(r.stats.vector_instrs >= 2, "vector instructions counted");
    assert!(r.stats.flops >= 8, "vector flops counted");
}

#[test]
fn overlap_scheduling_is_faster() {
    let src = r#"
float x[1000], y[1000], z[1000];
int main(void)
{
    int i;
    for (i = 0; i < 1000; i++) {
        x[i] = y[i] * z[i] + 0.5f;
    }
    return 0;
}
"#;
    let prog = compile_to_il(src).unwrap();
    let mut scalar = Simulator::new(&prog, MachineConfig::scalar());
    let base = scalar.run("main", &[]).unwrap().stats.cycles;
    let mut opt = Simulator::new(&prog, MachineConfig::optimized(1));
    let fast = opt.run("main", &[]).unwrap().stats.cycles;
    assert!(
        fast < base * 0.8,
        "overlap should shorten regions: {fast} vs {base}"
    );
}

#[test]
fn parallel_loop_divides_cycles() {
    // a parallel DO over 1000 iterations of FP work
    let build = |_nprocs: u32| {
        let mut b = ProcBuilder::new("main", Type::Int);
        let a = b.global("pa", Type::array_of(Type::Float, 1000));
        let i = b.local("i", Type::Int);
        let body = {
            let mut lb = b.block();
            let base = lb.addr_of(a);
            let iv = lb.var(i);
            let four = lb.int(4);
            let off = lb.ibinary(BinOp::Mul, iv, four);
            let addr = lb.binary(BinOp::Add, ScalarType::Ptr, base, off);
            let iv2 = lb.var(i);
            let cast = lb.cast(ScalarType::Float, ScalarType::Int, iv2);
            let three = lb.float(3.0);
            let rhs = lb.binary(BinOp::Mul, ScalarType::Float, cast, three);
            lb.assign(LValue::deref(addr, ScalarType::Float), rhs);
            lb.stmts()
        };
        let (lo, hi, step) = (b.int(0), b.int(999), b.int(1));
        let ret0 = b.int(0);
        let mut proc = b.finish();
        proc.push(StmtKind::DoParallel {
            var: i,
            lo,
            hi,
            step,
            body,
        });
        proc.push(StmtKind::Return(Some(ret0)));
        let mut prog = titanc_il::Program::new();
        prog.ensure_global(titanc_il::VarInfo {
            name: "pa".into(),
            ty: Type::array_of(Type::Float, 1000),
            storage: titanc_il::Storage::Global,
            volatile: false,
            addressed: true,
            init: None,
        });
        prog.add_proc(proc);
        prog
    };
    let prog = build(1);
    let mut one = Simulator::new(&prog, MachineConfig::optimized(1));
    let c1 = one.run("main", &[]).unwrap().stats.cycles;
    let mut two = Simulator::new(&prog, MachineConfig::optimized(2));
    let c2 = two.run("main", &[]).unwrap().stats.cycles;
    let speedup = c1 / c2;
    assert!(
        speedup > 1.7 && speedup < 2.05,
        "two processors halve the loop (+fork/join): {speedup}"
    );
    // results identical regardless of processor count
    let v1 = one.read_global("pa", ScalarType::Float, 999).unwrap();
    let v2 = two.read_global("pa", ScalarType::Float, 999).unwrap();
    assert_eq!(v1, v2);
    assert_eq!(v1.as_float(), 999.0 * 3.0);
}

#[test]
fn out_of_bounds_access_traps() {
    let src = "int main(void) { int *p; p = (int *)0; return *p; }";
    let prog = compile_to_il(src).unwrap();
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    let err = sim.run("main", &[]).unwrap_err();
    assert!(err.message.contains("memory access"), "{err}");
}

#[test]
fn unknown_procedure_is_an_error() {
    let src = "int main(void) { missing(); return 0; }";
    let prog = compile_to_il(src).unwrap();
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    let err = sim.run("main", &[]).unwrap_err();
    assert!(err.message.contains("undefined procedure"), "{err}");
}

#[test]
fn struct_field_access_runs() {
    let src = r#"
struct pt { float x; float y; };
struct pt g;
int main(void)
{
    struct pt *p;
    p = &g;
    p->x = 3.0f;
    p->y = 4.0f;
    return (int)(p->x * p->x + p->y * p->y);
}
"#;
    assert_eq!(ret_int(src), 25);
}

#[test]
fn struct_embedded_array_runs() {
    // §10: arrays embedded within structures (the Doré lesson)
    let src = r#"
struct matrix { float m[4][4]; };
struct matrix g;
int main(void)
{
    int i, j;
    float s;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            g.m[i][j] = i * 4 + j;
    s = 0;
    for (i = 0; i < 4; i++)
        s += g.m[i][i];
    return (int)s;
}
"#;
    assert_eq!(ret_int(src), 5 + 10 + 15);
}

#[test]
fn run_with_arguments() {
    let src = "int add(int a, int b) { return a + b; }";
    let prog = compile_to_il(src).unwrap();
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    let r = sim.run("add", &[Value::Int(30), Value::Int(12)]).unwrap();
    assert_eq!(r.value.unwrap().as_int(), 42);
}

#[test]
fn observe_helper_snapshots_globals() {
    let src =
        "int g_out[2]; int main(void) { g_out[0] = 5; g_out[1] = 6; print_int(1); return 9; }";
    let prog = compile_to_il(src).unwrap();
    let (obs, stats) = crate::observe(
        &prog,
        MachineConfig::default(),
        "main",
        &[("g_out", ScalarType::Int, 2)],
    )
    .unwrap();
    assert_eq!(obs.value.unwrap().as_int(), 9);
    assert_eq!(obs.output, vec!["1".to_string()]);
    assert_eq!(obs.globals[0].1, vec![Value::Int(5), Value::Int(6)]);
    assert!(stats.cycles > 0.0);
}

#[test]
fn stats_count_flops() {
    let src = r#"
float acc;
int main(void) { int i; acc = 0.0f; for (i = 0; i < 100; i++) acc = acc + 1.5f; return 0; }
"#;
    let r = run_c(src);
    assert_eq!(r.stats.flops, 100);
}

#[test]
fn while_spread_semantics_and_cost() {
    // build directly in IL: p walks a chain of 3 cells; work doubles each
    use titanc_il::{StmtKind, Storage, VarInfo};
    let mut prog = titanc_il::Program::new();
    prog.ensure_global(VarInfo {
        name: "cells".into(),
        ty: Type::array_of(Type::Int, 8),
        storage: Storage::Global,
        volatile: false,
        addressed: true,
        init: None,
    });
    // cells layout: pairs (value, next-addr); terminated by next = 0
    let mut b = ProcBuilder::new("main", Type::Int);
    let cells = b.global("cells", Type::array_of(Type::Int, 8));
    let p = b.local("p", Type::ptr_to(Type::Int));
    // init: cells[0]=5, cells[1]=&cells[2]; cells[2]=7, cells[3]=&cells[4]; cells[4]=9, cells[5]=0
    fn addr(b: &mut ProcBuilder, base: titanc_il::VarId, off: i64) -> titanc_il::ExprId {
        let ba = b.addr_of(base);
        let o = b.int(off);
        b.binary(BinOp::Add, ScalarType::Ptr, ba, o)
    }
    for (off, val) in [(0, 5i64), (8, 7), (16, 9)] {
        let a = addr(&mut b, cells, off);
        let v = b.int(val);
        b.assign(LValue::deref(a, ScalarType::Int), v);
    }
    // next pointers (stored as int addresses)
    for (off, tgt) in [(0i64, Some(8i64)), (8, Some(16)), (16, None)] {
        let a = addr(&mut b, cells, off + 4);
        let rhs = match tgt {
            Some(t) => addr(&mut b, cells, t),
            None => b.int(0),
        };
        b.assign(LValue::deref(a, ScalarType::Int), rhs);
    }
    let cells_addr = b.addr_of(cells);
    b.assign_var(p, cells_addr);
    let mut proc = b.finish();
    // while spread (p != 0) { parallel: *p = *p * 2 } serial { p = *(p+4) }
    let pv = proc.exprs.var(p);
    let load_p = proc.exprs.load(pv, ScalarType::Int);
    let two = proc.exprs.int(2);
    let doubled = proc.exprs.ibinary(BinOp::Mul, load_p, two);
    let pv2 = proc.exprs.var(p);
    let work = proc.stamp(StmtKind::Assign {
        lhs: LValue::deref(pv2, ScalarType::Int),
        rhs: doubled,
    });
    let pv3 = proc.exprs.var(p);
    let four_c = proc.exprs.int(4);
    let next_addr = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, pv3, four_c);
    let next = proc.exprs.load(next_addr, ScalarType::Ptr);
    let chase = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(p),
        rhs: next,
    });
    let pv4 = proc.exprs.var(p);
    let zero_c = proc.exprs.int(0);
    let cond = proc.exprs.binary(BinOp::Ne, ScalarType::Ptr, pv4, zero_c);
    let spread = proc.stamp(StmtKind::WhileSpread {
        cond,
        parallel: vec![work],
        serial: vec![chase],
    });
    proc.body.push(spread);
    let ca = proc.exprs.addr_of(cells);
    let off16 = proc.exprs.int(16);
    let last_addr = proc.exprs.binary(BinOp::Add, ScalarType::Ptr, ca, off16);
    let last = proc.exprs.load(last_addr, ScalarType::Int);
    let ret = proc.stamp(StmtKind::Return(Some(last)));
    proc.body.push(ret);
    prog.add_proc(proc);

    let mut one = Simulator::new(&prog, MachineConfig::optimized(1));
    let r1 = one.run("main", &[]).unwrap();
    assert_eq!(r1.value.unwrap().as_int(), 18, "9 doubled");
    assert_eq!(
        one.read_global("cells", ScalarType::Int, 0)
            .unwrap()
            .as_int(),
        10
    );
    assert_eq!(
        one.read_global("cells", ScalarType::Int, 2)
            .unwrap()
            .as_int(),
        14
    );

    let mut four = Simulator::new(&prog, MachineConfig::optimized(4));
    let r4 = four.run("main", &[]).unwrap();
    assert_eq!(
        r4.value, r1.value,
        "identical results on any processor count"
    );
    assert!(
        r4.stats.cycles < r1.stats.cycles,
        "work divides: {} !< {}",
        r4.stats.cycles,
        r1.stats.cycles
    );
}

// ----------------------------------------------------------------------
// VM / interpreter parity
// ----------------------------------------------------------------------

mod vm_parity {
    use super::*;
    use crate::ExecEngine;

    /// Runs `main` under both engines, asserting identical results, full
    /// statistics (including exact cycle totals) and final memory images.
    fn run_both(
        prog: &titanc_il::Program,
        cfg: &MachineConfig,
        script: &[i64],
    ) -> crate::RunResult {
        let mut interp = Simulator::with_engine(prog, cfg.clone(), ExecEngine::Interp);
        interp.push_volatile_values(script);
        let ri = interp.run("main", &[]).expect("interp run");
        let mut vm = Simulator::with_engine(prog, cfg.clone(), ExecEngine::Vm);
        vm.push_volatile_values(script);
        let rv = vm.run("main", &[]).expect("vm run");
        assert_eq!(ri.value, rv.value, "return value");
        assert_eq!(ri.stats, rv.stats, "execution statistics");
        assert!(interp.mem == vm.mem, "final memory images differ");
        assert_eq!(ri.engine, ExecEngine::Interp);
        assert_eq!(rv.engine, ExecEngine::Vm);
        rv
    }

    fn parity_c(src: &str) -> crate::RunResult {
        let prog = compile_to_il(src).expect("compile");
        let r = run_both(&prog, &MachineConfig::default(), &[]);
        run_both(&prog, &MachineConfig::optimized(2), &[]);
        r
    }

    /// Both engines must fail with the identical error, having counted
    /// the same statements, operations and flushed cycles up to the trap.
    fn err_both(prog: &titanc_il::Program, cfg: &MachineConfig) -> String {
        let mut interp = Simulator::with_engine(prog, cfg.clone(), ExecEngine::Interp);
        let e1 = interp.run("main", &[]).expect_err("interp should error");
        let mut vm = Simulator::with_engine(prog, cfg.clone(), ExecEngine::Vm);
        let e2 = vm.run("main", &[]).expect_err("vm should error");
        assert_eq!(e1, e2, "engines disagree on the error");
        assert_eq!(interp.stats(), vm.stats(), "statistics at the trap");
        e1.message
    }

    #[test]
    fn scalar_corpus_parity() {
        let corpus: &[&str] = &[
            "int main(void){ return 2 + 3 * 4; }",
            "int main(void){ int i, s; s = 0; for (i = 1; i <= 10; i++) s += i; return s; }",
            "int main(void){ int n, r; n = 10; r = 1; while (n) { r = r + n; n--; } return r; }",
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n             int main(void) { return fib(12); }",
            "int counter(void) { static int count = 5; count++; return count; }\n             int main(void) { counter(); counter(); return counter(); }",
            "void bump(int *p) { *p += 1; }\n             int main(void) { int x; x = 41; bump(&x); return x; }",
            "int main(void) { char c; c = 127; c = c + 1; return c; }",
            "int main(void) { float f; f = 0.1f; return (int)(f * 10000000.0f); }",
            "int main(void) { print_int(42); print_float(1.5f); return 0; }",
            "int main(void) { double d; d = sqrt(9.0); return (int)d; }",
            "int main(void) { int a; a = -7; return abs(a) + (int)fabs(-2.5); }",
            "int main(void)\n             {\n                 int i, s;\n                 i = 0; s = 0;\n             loop:\n                 s += i;\n                 i++;\n                 if (i < 5) goto loop;\n                 return s;\n             }",
            "struct pt { float x; float y; };\n             struct pt g;\n             int main(void)\n             {\n                 struct pt *p;\n                 p = &g;\n                 p->x = 3.0f;\n                 p->y = 4.0f;\n                 return (int)(p->x * p->x + p->y * p->y);\n             }",
            "float src_a[8], dst_a[8];\n             int main(void)\n             {\n                 float *a, *b;\n                 int n, i;\n                 for (i = 0; i < 8; i++) src_a[i] = i * 1.5f;\n                 a = &dst_a[0];\n                 b = &src_a[0];\n                 n = 8;\n                 while (n) { *a++ = *b++; n--; }\n                 return (int)dst_a[7];\n             }",
            "float acc;\n             int main(void) { int i; acc = 0.0f; for (i = 0; i < 100; i++) acc = acc + 1.5f; return 0; }",
        ];
        for src in corpus {
            parity_c(src);
        }
    }

    #[test]
    fn volatile_poll_loop_parity() {
        let src = r#"
volatile int keyboard_status;
int main(void)
{
    keyboard_status = 0;
    while (!keyboard_status);
    return keyboard_status;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let r = run_both(&prog, &MachineConfig::default(), &[0, 0, 0, 7]);
        assert_eq!(r.value.unwrap().as_int(), 7);
    }

    #[test]
    fn error_parity() {
        let cfg = MachineConfig::default();
        let div = compile_to_il("int main(void) { int z; z = 0; return 1 / z; }").unwrap();
        assert!(err_both(&div, &cfg).contains("division by zero"));

        let oob = compile_to_il("int main(void) { int *p; p = (int *)0; return *p; }").unwrap();
        assert!(err_both(&oob, &cfg).contains("memory access out of range"));

        // an address within 8 bytes of 2^32: `addr + size` must not wrap
        // back into range (it once did, and panicked in the slice index)
        for wild in [
            "int main(void) { int *p; p = (int *)0; p = p - 1; return *p; }",
            "int main(void) { int *p; p = (int *)0; p = p - 1; *p = 7; return 0; }",
            "int main(void) { double *p; double d; p = (double *)0; p = p - 1; d = *p; return (int)d; }",
        ] {
            let prog = compile_to_il(wild).unwrap();
            assert!(err_both(&prog, &cfg).contains("memory access out of range"));
        }

        let missing = compile_to_il("int main(void) { missing(); return 0; }").unwrap();
        assert!(err_both(&missing, &cfg).contains("undefined procedure"));

        // The interpreter walks 512 simulated frames of Rust recursion,
        // which outgrows the default test-thread stack in debug builds;
        // give this one case a roomy thread.
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(move || {
                let cfg = MachineConfig::default();
                let runaway = compile_to_il(
                    "int r(int n) { return r(n + 1); } int main(void) { return r(0); }",
                )
                .unwrap();
                assert!(err_both(&runaway, &cfg).contains("call depth exceeded"));
            })
            .unwrap()
            .join()
            .unwrap();

        let spin = compile_to_il("int main(void) { for (;;); return 0; }").unwrap();
        let small = MachineConfig {
            max_steps: 10_000,
            ..MachineConfig::default()
        };
        assert!(err_both(&spin, &small).contains("step limit exceeded"));
    }

    /// `a[0:n:4] = b[0:n:4] * 2.0 + c`, built in IL, both engines: the
    /// VM's chunked kernel must match the interpreter's element loop
    /// bit-for-bit (values, flop counts, vector statistics).
    #[test]
    fn vector_statement_parity() {
        let n = 64i64;
        let mut b = ProcBuilder::new("main", Type::Int);
        let va = b.global("va", Type::array_of(Type::Float, n as usize));
        let vb = b.global("vb", Type::array_of(Type::Float, n as usize));
        let i = b.local("i", Type::Int);
        let body = {
            let mut lb = b.block();
            let base = lb.addr_of(vb);
            let iv = lb.var(i);
            let four = lb.int(4);
            let off = lb.ibinary(BinOp::Mul, iv, four);
            let addr = lb.binary(BinOp::Add, ScalarType::Ptr, base, off);
            let iv2 = lb.var(i);
            let cast = lb.cast(ScalarType::Float, ScalarType::Int, iv2);
            lb.assign(LValue::deref(addr, ScalarType::Float), cast);
            lb.stmts()
        };
        let (lo, hi, step) = (b.int(0), b.int(n - 1), b.int(1));
        b.do_loop(i, lo, hi, step, body);
        let sec_base = b.addr_of(vb);
        let sec_len = b.int(n);
        let sec_stride = b.int(4);
        let section = b.section(sec_base, sec_len, sec_stride, ScalarType::Float);
        let two = b.float(2.0);
        let scaled = b.binary(BinOp::Mul, ScalarType::Float, section, two);
        let half = b.float(0.5);
        let rhs = b.binary(BinOp::Add, ScalarType::Float, scaled, half);
        let lhs_base = b.addr_of(va);
        let lhs_len = b.int(n);
        let lhs_stride = b.int(4);
        b.assign(
            LValue::Section {
                base: lhs_base,
                len: lhs_len,
                stride: lhs_stride,
                ty: ScalarType::Float,
            },
            rhs,
        );
        let zero = b.int(0);
        b.ret(Some(zero));
        let mut prog = titanc_il::Program::new();
        for name in ["va", "vb"] {
            prog.ensure_global(titanc_il::VarInfo {
                name: name.into(),
                ty: Type::array_of(Type::Float, n as usize),
                storage: titanc_il::Storage::Global,
                volatile: false,
                addressed: true,
                init: None,
            });
        }
        prog.add_proc(b.finish());
        let r = run_both(&prog, &MachineConfig::optimized(1), &[]);
        assert!(r.stats.vector_instrs >= 3, "loads + op + store counted");
        run_both(&prog, &MachineConfig::scalar(), &[]);
    }

    /// A `do parallel` loop with an early `return` from inside the body:
    /// the VM must apply the same cycle division + fork/join fixup the
    /// interpreter applies when flow escapes the region.
    #[test]
    fn parallel_loop_early_return_parity() {
        let mut b = ProcBuilder::new("main", Type::Int);
        let a = b.global("pa", Type::array_of(Type::Float, 200));
        let i = b.local("i", Type::Int);
        let body = {
            let mut lb = b.block();
            let base = lb.addr_of(a);
            let iv = lb.var(i);
            let four = lb.int(4);
            let off = lb.ibinary(BinOp::Mul, iv, four);
            let addr = lb.binary(BinOp::Add, ScalarType::Ptr, base, off);
            let iv2 = lb.var(i);
            let cast = lb.cast(ScalarType::Float, ScalarType::Int, iv2);
            let three = lb.float(3.0);
            let rhs = lb.binary(BinOp::Mul, ScalarType::Float, cast, three);
            lb.assign(LValue::deref(addr, ScalarType::Float), rhs);
            lb.stmts()
        };
        let (lo, hi, step) = (b.int(0), b.int(199), b.int(1));
        let mut proc = b.finish();
        proc.push(StmtKind::DoParallel {
            var: i,
            lo,
            hi,
            step,
            body,
        });
        let seven = proc.exprs.int(7);
        let ret = proc.stamp(StmtKind::Return(Some(seven)));
        proc.body.push(ret);
        // variant with a conditional return inside the parallel body
        let mut early = proc.clone();
        if let StmtKind::DoParallel { body, .. } = &mut early.stmts[early.body[0]].clone() {
            let iv = early.exprs.var(i);
            let hundred = early.exprs.int(100);
            let cond = early.exprs.ibinary(BinOp::Eq, iv, hundred);
            let nine = early.exprs.int(9);
            let ret9 = early.stamp(StmtKind::Return(Some(nine)));
            let guard = early.stamp(StmtKind::If {
                cond,
                then_blk: vec![ret9],
                else_blk: vec![],
            });
            let mut new_body = body.clone();
            new_body.push(guard);
            if let StmtKind::DoParallel { body: slot, .. } = &mut early.stmts[early.body[0]] {
                *slot = new_body;
            }
        }
        for p in [proc, early] {
            let mut prog = titanc_il::Program::new();
            prog.ensure_global(titanc_il::VarInfo {
                name: "pa".into(),
                ty: Type::array_of(Type::Float, 200),
                storage: titanc_il::Storage::Global,
                volatile: false,
                addressed: true,
                init: None,
            });
            prog.add_proc(p);
            run_both(&prog, &MachineConfig::optimized(1), &[]);
            run_both(&prog, &MachineConfig::optimized(4), &[]);
        }
    }

    #[test]
    fn zero_and_negative_step_do_parity() {
        for (lo, hi, step) in [(10i64, 1i64, -2i64), (5, 1, 1), (1, 5, 2)] {
            let mut b = ProcBuilder::new("main", Type::Int);
            let i = b.local("i", Type::Int);
            let s = b.local("s", Type::Int);
            let zero = b.int(0);
            b.assign_var(s, zero);
            let body = {
                let mut lb = b.block();
                let sv = lb.var(s);
                let iv = lb.var(i);
                let add = lb.ibinary(BinOp::Add, sv, iv);
                lb.assign_var(s, add);
                lb.stmts()
            };
            let (l, h, st) = (b.int(lo), b.int(hi), b.int(step));
            b.do_loop(i, l, h, st, body);
            let sv = b.var(s);
            b.ret(Some(sv));
            let mut prog = titanc_il::Program::new();
            prog.add_proc(b.finish());
            run_both(&prog, &MachineConfig::default(), &[]);
        }
    }
}
