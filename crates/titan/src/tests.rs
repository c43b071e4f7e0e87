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
    /// A vector register: a section kept at its first read, then read and
    /// written whole, costs no load where it is read and no store where
    /// it is written, and a statement costs at least one instruction.
    #[test]
    fn vector_registers_cost_no_load_and_no_store() {
        use titanc_il::{Expr, Procedure, Storage, VarInfo};
        let mut p = Procedure::new("main", Type::Int);
        let mut var = |name: &str, storage| {
            p.add_var(VarInfo {
                name: name.into(),
                ty: Type::array_of(Type::Float, 8),
                storage,
                volatile: false,
                addressed: true,
                init: None,
            })
        };
        let (va, vb) = (var("va", Storage::Global), var("vb", Storage::Global));
        let vr = var("vr", Storage::VReg);
        let f = ScalarType::Float;
        // the whole of `v`, 8 floats
        let whole = |p: &mut Procedure, v| (p.exprs.addr_of(v), p.exprs.int(8), p.exprs.int(4));
        let assign = |p: &mut Procedure, v, rhs| {
            let (base, len, stride) = whole(p, v);
            let lhs = LValue::Section {
                base,
                len,
                stride,
                ty: f,
            };
            p.push(StmtKind::Assign { lhs, rhs });
        };
        let read = |p: &mut Procedure, v| {
            let (base, len, stride) = whole(p, v);
            p.exprs.section(base, len, stride, f)
        };
        // (vector instructions) vb = 1.5 (1); va = (vb -> vr) + 2 (3);
        // vb = vr * 3 (2); vr = vr + 1 (1); va = vr (1); vr = 0 (1)
        let c = p.exprs.float(1.5);
        assign(&mut p, vb, c);
        let section = read(&mut p, vb);
        let kept = p.exprs.alloc(Expr::Keep { reg: vr, section });
        let c = p.exprs.float(2.0);
        let rhs = p.exprs.binary(BinOp::Add, f, kept, c);
        assign(&mut p, va, rhs);
        for (target, op, c) in [(vb, BinOp::Mul, 3.0), (vr, BinOp::Add, 1.0)] {
            let x = read(&mut p, vr);
            let c = p.exprs.float(c);
            let rhs = p.exprs.binary(op, f, x, c);
            assign(&mut p, target, rhs);
        }
        let x = read(&mut p, vr);
        assign(&mut p, va, x);
        let c = p.exprs.float(0.0);
        assign(&mut p, vr, c);
        // return (int)(va[1] * 10 + vb[1]): 2.5 * 10 + 4.5
        let elem = |p: &mut Procedure, v| {
            let base = p.exprs.addr_of(v);
            let four = p.exprs.int(4);
            let addr = p.exprs.binary(BinOp::Add, ScalarType::Ptr, base, four);
            p.exprs.load(addr, f)
        };
        let (a1, b1, ten) = (elem(&mut p, va), elem(&mut p, vb), p.exprs.float(10.0));
        let scaled = p.exprs.binary(BinOp::Mul, f, a1, ten);
        let sum = p.exprs.binary(BinOp::Add, f, scaled, b1);
        let ret = p.exprs.cast(ScalarType::Int, f, sum);
        p.push(StmtKind::Return(Some(ret)));
        titanc_il::verify_proc(&p).expect("a well-formed register program");
        let mut prog = titanc_il::Program::new();
        for v in [va, vb] {
            prog.ensure_global(p.var(v).clone());
        }
        prog.add_proc(p);
        let r = run_both(&prog, &MachineConfig::default(), &[]);
        assert_eq!(r.value.unwrap().as_int(), 29);
        assert_eq!(r.stats.vector_instrs, 1 + 3 + 2 + 1 + 1 + 1);
    }

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

// ----------------------------------------------------------------------
// every operator on every kind, both engines against `fold`
// ----------------------------------------------------------------------

mod operator_parity {
    use super::*;
    use crate::machine::{coerce, MEM_SIZE};
    use crate::{ExecEngine, SimError};
    use titanc_il::fold::{eval_binop, eval_cast, eval_unop, normalize};
    use titanc_il::{ExprId, Program, UnOp};

    const KINDS: [ScalarType; 5] = [
        ScalarType::Char,
        ScalarType::Int,
        ScalarType::Ptr,
        ScalarType::Float,
        ScalarType::Double,
    ];

    const BINOPS: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Min,
        BinOp::Max,
    ];

    /// Zero (a divisor), −1, the `i32` and `char` edges, 2³²−1 and shift
    /// counts at and past the word width.
    const INTS: [i64; 11] = [
        0,
        -1,
        1,
        7,
        i32::MIN as i64,
        i32::MAX as i64,
        255,
        u32::MAX as i64,
        32,
        33,
        64,
    ];

    /// Zero (a divisor), values that round (or overflow) through `f32`,
    /// and a negative fraction that truncates.
    const FLOATS: [f64; 6] = [0.0, -1.0, 0.1, 16_777_217.0, 1e39, -2.5];

    /// Every operand on every operator, so an integer operator also sees
    /// floats and a float operator integers (the IL does not constrain a
    /// node's operand kinds).
    fn operands() -> impl Iterator<Item = Value> {
        INTS.into_iter()
            .map(Value::Int)
            .chain(FLOATS.into_iter().map(Value::Float))
    }

    /// `v` as an IL constant; floats are `double` constants, so it is the
    /// operator that rounds through `f32`.
    fn constant(b: &mut ProcBuilder, v: Value) -> ExprId {
        match v {
            Value::Int(i) => b.int(i),
            Value::Float(f) => b.double(f),
        }
    }

    /// A program of `n` procedures `c0`, `c1`, …, each built by `body`.
    fn program(n: usize, mut body: impl FnMut(usize, &mut ProcBuilder)) -> Program {
        let mut prog = Program::new();
        for i in 0..n {
            let mut b = ProcBuilder::new(format!("c{i}"), Type::Int);
            body(i, &mut b);
            prog.add_proc(b.finish());
        }
        prog
    }

    /// A value's kind and bits: NaN equals NaN, and −0.0 differs from 0.0.
    fn bits(v: Option<Value>) -> Option<(bool, u64)> {
        v.map(|v| match v {
            Value::Int(i) => (false, i as u64),
            Value::Float(f) => (true, f.to_bits()),
        })
    }

    /// Runs every procedure of `prog` in order, one simulator per engine
    /// (a fresh 16 MiB memory per case would dominate the test). After each
    /// case the engines must have returned the same value bit for bit, or
    /// trapped with the same text, and must hold equal statistics; the
    /// statistics accumulate, so equal totals after every case mean equal
    /// charges for each. Returns the VM's results.
    fn run_all(
        prog: &Program,
        case: &dyn Fn(usize) -> String,
    ) -> Vec<Result<Option<Value>, SimError>> {
        run_inspecting(prog, case, |_, _, _| {})
    }

    /// [`run_all`], handing both simulators to `inspect` after each case.
    fn run_inspecting(
        prog: &Program,
        case: &dyn Fn(usize) -> String,
        mut inspect: impl FnMut(usize, &Simulator<'_>, &Simulator<'_>),
    ) -> Vec<Result<Option<Value>, SimError>> {
        let mut interp = Simulator::with_engine(prog, MachineConfig::default(), ExecEngine::Interp);
        let mut vm = Simulator::with_engine(prog, MachineConfig::default(), ExecEngine::Vm);
        (0..prog.procs.len())
            .map(|i| {
                let name = format!("c{i}");
                let ri = interp.run(&name, &[]).map(|r| r.value);
                let rv = vm.run(&name, &[]).map(|r| r.value);
                match (&ri, &rv) {
                    (Ok(a), Ok(b)) => assert_eq!(bits(*a), bits(*b), "value of {}", case(i)),
                    (Err(a), Err(b)) => assert_eq!(a, b, "trap of {}", case(i)),
                    _ => panic!("{}: interp {ri:?}, vm {rv:?}", case(i)),
                }
                assert_eq!(interp.stats(), vm.stats(), "statistics after {}", case(i));
                inspect(i, &interp, &vm);
                rv
            })
            .collect()
    }

    /// What `fold` says the operation yields: a value, or the simulator's
    /// division-by-zero trap when it declines to fold.
    fn check(r: &Result<Option<Value>, SimError>, want: Option<Value>, case: &str) {
        match (r, want) {
            (Ok(v), Some(w)) => assert_eq!(bits(*v), bits(Some(w)), "{case}"),
            (Err(e), None) => assert_eq!(e.message, "division by zero", "{case}"),
            _ => panic!("{case}: ran to {r:?}, fold says {want:?}"),
        }
    }

    /// `return a op b` (the `Bin` instruction) and `if (a op b) return 1;
    /// return 0;` (the fused compare-and-branch `BrBin`).
    #[test]
    fn every_binop_on_every_kind() {
        let pairs: Vec<(Value, Value)> = operands()
            .flat_map(|a| operands().map(move |b| (a, b)))
            .collect();
        for op in BINOPS {
            for ty in KINDS {
                let case = |i: usize| format!("{:?} {op:?} {:?} on {ty}", pairs[i].0, pairs[i].1);
                let value = program(pairs.len(), |i, p| {
                    let (x, y) = (constant(p, pairs[i].0), constant(p, pairs[i].1));
                    let e = p.binary(op, ty, x, y);
                    p.ret(Some(e));
                });
                let branch = program(pairs.len(), |i, p| {
                    let (x, y) = (constant(p, pairs[i].0), constant(p, pairs[i].1));
                    let cond = p.binary(op, ty, x, y);
                    let then_blk = {
                        let mut t = p.block();
                        let one = t.int(1);
                        t.ret(Some(one));
                        t.stmts()
                    };
                    p.if_(cond, then_blk, Vec::new());
                    let zero = p.int(0);
                    p.ret(Some(zero));
                });
                let values = run_all(&value, &case);
                let taken = run_all(&branch, &case);
                for (i, &(a, b)) in pairs.iter().enumerate() {
                    let want = eval_binop(op, ty, a, b);
                    check(&values[i], want, &case(i));
                    let truth = want.map(|v| Value::Int(i64::from(v.is_truthy())));
                    check(&taken[i], truth, &case(i));
                }
            }
        }
    }

    #[test]
    fn every_unop_on_every_kind() {
        let args: Vec<Value> = operands().collect();
        for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot] {
            for ty in KINDS {
                let case = |i: usize| format!("{op:?} {:?} on {ty}", args[i]);
                let prog = program(args.len(), |i, p| {
                    let x = constant(p, args[i]);
                    let e = p.unary(op, ty, x);
                    p.ret(Some(e));
                });
                for (i, r) in run_all(&prog, &case).iter().enumerate() {
                    check(r, Some(eval_unop(op, ty, args[i])), &case(i));
                }
            }
        }
    }

    /// Every pair of distinct kinds (the builder collapses an identity
    /// cast, so the IL never holds one).
    #[test]
    fn every_cast_pair() {
        let args: Vec<Value> = operands().collect();
        for to in KINDS {
            for from in KINDS.into_iter().filter(|&f| f != to) {
                let case = |i: usize| format!("({to})({from}) {:?}", args[i]);
                let prog = program(args.len(), |i, p| {
                    let x = constant(p, args[i]);
                    let e = p.cast(to, from, x);
                    p.ret(Some(e));
                });
                for (i, r) in run_all(&prog, &case).iter().enumerate() {
                    check(r, Some(eval_cast(to, from, args[i])), &case(i));
                }
            }
        }
    }

    /// A load of every kind, and a store read back, at the first and last
    /// addresses in range and the nearest ones outside it, including one
    /// whose `addr + size` would wrap a 32-bit sum back into range.
    #[test]
    fn scalar_memory_access_at_the_edges() {
        for ty in KINDS {
            let size = ty.size() as u32;
            let top = MEM_SIZE as u32 - size;
            for addr in [3, 4, top, top + 1, 0xFFFF_FFFC] {
                let in_range = (4..=top).contains(&addr);
                let trap = format!("memory access out of range: {addr:#x}+{size}");
                let case = |_| format!("{ty} at {addr:#x}");
                let load = program(1, |_, p| {
                    let a = p.int(i64::from(addr));
                    let e = p.load(a, ty);
                    p.ret(Some(e));
                });
                match run_all(&load, &case).remove(0) {
                    Ok(v) => {
                        assert!(in_range, "{}", case(0));
                        let zero = if ty.is_float() {
                            Value::Float(0.0)
                        } else {
                            Value::Int(0)
                        };
                        assert_eq!(bits(v), bits(Some(zero)), "{}", case(0));
                    }
                    Err(e) => {
                        assert!(!in_range, "{}: {e}", case(0));
                        assert_eq!(e.message, trap);
                    }
                }
                let (stored, raw) = match ty {
                    ScalarType::Float | ScalarType::Double => (Value::Float(0.1), 0.1),
                    _ => (Value::Int(0x1_2345_6789), 0.0),
                };
                let store = program(1, |_, p| {
                    let a = p.int(i64::from(addr));
                    let v = match ty {
                        ScalarType::Float => p.float(raw),
                        ScalarType::Double => p.double(raw),
                        _ => constant(p, stored),
                    };
                    p.assign(LValue::deref(a, ty), v);
                    let a = p.int(i64::from(addr));
                    let e = p.load(a, ty);
                    p.ret(Some(e));
                });
                match run_all(&store, &case).remove(0) {
                    Ok(v) => {
                        assert!(in_range, "{}", case(0));
                        assert_eq!(bits(v), bits(Some(normalize(stored, ty))), "{}", case(0));
                    }
                    Err(e) => {
                        assert!(!in_range, "{}: {e}", case(0));
                        assert_eq!(e.message, trap);
                    }
                }
            }
        }
    }

    /// Where vector cases keep their operands and results, clear of the
    /// globals (from 0x1000) and the stack (from 0x40_0000).
    const VA: i64 = 0x10_0000;
    const VB: i64 = 0x18_0000;
    const VD: i64 = 0x20_0000;

    /// `(ty)[base : n : stride]`.
    fn section(p: &mut ProcBuilder, base: i64, n: i64, stride: i64, ty: ScalarType) -> ExprId {
        let (b, l, s) = (p.int(base), p.int(n), p.int(stride));
        p.section(b, l, s, ty)
    }

    /// `(ty)[base : n : stride] = rhs`.
    fn assign_section(
        p: &mut ProcBuilder,
        base: i64,
        n: i64,
        stride: i64,
        ty: ScalarType,
        rhs: ExprId,
    ) {
        let (b, l, s) = (p.int(base), p.int(n), p.int(stride));
        p.assign(
            LValue::Section {
                base: b,
                len: l,
                stride: s,
                ty,
            },
            rhs,
        );
    }

    /// The right-hand side of a vector case, over its sections.
    #[derive(Clone, Copy, Debug)]
    enum Rhs {
        Bin(BinOp, ScalarType),
        Un(UnOp, ScalarType),
        Cast(ScalarType, ScalarType),
    }

    /// `(store)[VD : n : 2·size] = rhs` over sections holding `args`, the
    /// first contiguous at `VA`, the second at `VB` with stride 2·size;
    /// `want` is what `fold` makes of each element, `None` when the
    /// statement traps.
    struct VecCase {
        rhs: Rhs,
        store: ScalarType,
        args: Vec<(ScalarType, Vec<Value>)>,
        want: Option<Vec<Value>>,
    }

    impl VecCase {
        fn new(rhs: Rhs, store: ScalarType, args: Vec<(ScalarType, Vec<Value>)>) -> VecCase {
            // a section reads back what a store of the operand left
            let want = (0..args[0].1.len())
                .map(|k| {
                    let x: Vec<Value> = args.iter().map(|(ty, v)| coerce(v[k], *ty)).collect();
                    let v = match rhs {
                        Rhs::Bin(op, ty) => eval_binop(op, ty, x[0], x[1])?,
                        Rhs::Un(op, ty) => eval_unop(op, ty, x[0]),
                        Rhs::Cast(to, from) => eval_cast(to, from, x[0]),
                    };
                    Some(coerce(v, store))
                })
                .collect();
            VecCase {
                rhs,
                store,
                args,
                want,
            }
        }

        fn name(&self) -> String {
            let n = self.args[0].1.len();
            let traps = if self.want.is_some() {
                ""
            } else {
                ", trapping"
            };
            format!("{:?} into {}, {n} elements{traps}", self.rhs, self.store)
        }
    }

    /// Runs each case as its own procedure on both engines: the operands
    /// go to memory through scalar stores, then the vector statement runs.
    /// After each, the bytes it may have stored must be equal on both
    /// engines and each element what `fold` says; a trapping case must
    /// trap alike.
    fn run_vector_cases(cases: &[VecCase]) {
        let prog = program(cases.len(), |i, p| {
            let c = &cases[i];
            let n = c.args[0].1.len() as i64;
            let mut secs = Vec::new();
            for (j, (ty, vals)) in c.args.iter().enumerate() {
                let (base, stride) = ([VA, VB][j], (j as i64 + 1) * ty.size());
                for (k, &v) in vals.iter().enumerate() {
                    let a = p.int(base + k as i64 * stride);
                    let x = constant(p, v);
                    p.assign(LValue::deref(a, *ty), x);
                }
                secs.push(section(p, base, n, stride, *ty));
            }
            let rhs = match c.rhs {
                Rhs::Bin(op, ty) => p.binary(op, ty, secs[0], secs[1]),
                Rhs::Un(op, ty) => p.unary(op, ty, secs[0]),
                Rhs::Cast(to, from) => p.cast(to, from, secs[0]),
            };
            assign_section(p, VD, n, 2 * c.store.size(), c.store, rhs);
            let zero = p.int(0);
            p.ret(Some(zero));
        });
        let results = run_inspecting(&prog, &|i| cases[i].name(), |i, interp, vm| {
            let c = &cases[i];
            let stride = 2 * c.store.size();
            let stored = VD as usize..(VD + c.args[0].1.len() as i64 * stride) as usize;
            assert!(
                interp.mem[stored.clone()] == vm.mem[stored],
                "memory after {}",
                c.name()
            );
            for (k, &w) in c.want.iter().flatten().enumerate() {
                let got = vm.read_mem((VD + k as i64 * stride) as u32, c.store);
                assert_eq!(bits(got.ok()), bits(Some(w)), "element {k} of {}", c.name());
            }
        });
        for (c, r) in cases.iter().zip(&results) {
            match (&c.want, r) {
                (Some(_), Ok(_)) => {}
                (None, Err(e)) => {
                    assert_eq!(
                        e.message,
                        "division by zero in vector statement",
                        "{}",
                        c.name()
                    );
                }
                _ => panic!("{}: ran to {r:?}", c.name()),
            }
        }
    }

    /// Every operator on every kind and every cast pair as a vector
    /// statement over in-range sections, on both engines: float
    /// arithmetic on the VM's kernel, everything else element by element.
    /// Operands an operator traps on (zero integer divisors; remainder,
    /// shifts and bitwise operators on floats) get a statement of their
    /// own; zero float divisors run on the kernel.
    #[test]
    fn vector_statements_on_every_operator_kind_and_cast() {
        let args: Vec<Value> = operands().collect();
        let mut cases = Vec::new();
        for op in BINOPS {
            for ty in KINDS {
                let (ok, traps): (Vec<_>, Vec<_>) = operands()
                    .flat_map(|a| operands().map(move |b| (a, b)))
                    .partition(|&(a, b)| {
                        eval_binop(op, ty, coerce(a, ty), coerce(b, ty)).is_some()
                    });
                for pairs in [ok, traps] {
                    if !pairs.is_empty() {
                        let (xs, ys): (Vec<Value>, Vec<Value>) = pairs.into_iter().unzip();
                        cases.push(VecCase::new(Rhs::Bin(op, ty), ty, vec![(ty, xs), (ty, ys)]));
                    }
                }
            }
        }
        for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot] {
            for ty in KINDS {
                cases.push(VecCase::new(Rhs::Un(op, ty), ty, vec![(ty, args.clone())]));
            }
        }
        for to in KINDS {
            for from in KINDS.into_iter().filter(|&f| f != to) {
                cases.push(VecCase::new(
                    Rhs::Cast(to, from),
                    to,
                    vec![(from, args.clone())],
                ));
            }
        }
        run_vector_cases(&cases);
    }

    /// What the kernel must leave to the element path, or skip: a section
    /// or a store reaching out of memory (past the top, below address 4,
    /// wrapping 2³²) traps at the same element with the same text, having
    /// stored the same bytes, and an empty statement whose sections lie
    /// nowhere does nothing.
    #[test]
    fn vector_statements_at_the_edges() {
        let top = MEM_SIZE as i64;
        let oob =
            |addr: i64, size: i64| Some(format!("memory access out of range: {addr:#x}+{size}"));
        // (section base, store base, length, kind, trap)
        let cases = [
            (top - 8, VD, 4, ScalarType::Float, oob(top, 4)),
            (top - 8, VD, 4, ScalarType::Int, oob(top, 4)),
            (VA, top - 8, 4, ScalarType::Float, oob(top, 4)),
            (0, VD, 4, ScalarType::Double, oob(0, 8)),
            (0xFFFF_FFF8, VD, 4, ScalarType::Float, oob(0xFFFF_FFF8, 4)),
            (0, 0, 0, ScalarType::Float, None),
            (0, 0, 0, ScalarType::Char, None),
        ];
        let case = |i: usize| format!("{:?}", cases[i]);
        let prog = program(cases.len(), |i, p| {
            let (sec, store, n, ty, _) = cases[i].clone();
            let x = section(p, sec, n, ty.size(), ty);
            let one = p.int(1);
            let rhs = p.binary(BinOp::Add, ty, x, one);
            assign_section(p, store, n, ty.size(), ty, rhs);
            let zero = p.int(0);
            p.ret(Some(zero));
        });
        let results = run_inspecting(&prog, &case, |i, interp, vm| {
            assert!(interp.mem == vm.mem, "memory after {}", case(i));
        });
        for (i, r) in results.iter().enumerate() {
            match (&cases[i].4, r) {
                (None, Ok(_)) => {}
                (Some(trap), Err(e)) => assert_eq!(&e.message, trap, "{}", case(i)),
                _ => panic!("{}: ran to {r:?}", case(i)),
            }
        }
    }

    /// Exactly the float-arithmetic plans run on the kernel: the shapes of
    /// the benchmark's vector kernels (daxpy's `y = y + a·x`, copy's
    /// `y = x`, backsolve's `z = 0.5f`) and every kernel operator, but no
    /// plan with an integer, comparison or remainder step, a unary step, a
    /// cast, an integer section or an integer store. Each plan also runs
    /// on both engines.
    #[test]
    fn vector_kernel_runs_only_float_arithmetic() {
        use ScalarType::{Double, Float, Int};
        fn fsec(p: &mut ProcBuilder) -> ExprId {
            section(p, VA, 64, 4, Float)
        }
        fn dsec(p: &mut ProcBuilder) -> ExprId {
            section(p, VB, 64, 8, Double)
        }
        fn isec(p: &mut ProcBuilder) -> ExprId {
            section(p, VA, 64, 4, Int)
        }
        type Build = fn(&mut ProcBuilder) -> ExprId;
        let cases: [(&str, ScalarType, Build, bool); 12] = [
            (
                "daxpy: y = y + a*x",
                Float,
                |p| {
                    let (y, a, x) = (fsec(p), p.float(1.5), fsec(p));
                    let ax = p.binary(BinOp::Mul, Float, a, x);
                    p.binary(BinOp::Add, Float, y, ax)
                },
                true,
            ),
            ("copy: y = x", Float, fsec, true),
            ("backsolve: z = 0.5f", Float, |p| p.float(0.5), true),
            (
                "- / min max on doubles and floats",
                Double,
                |p| {
                    let (a, two, f, b) = (dsec(p), p.int(2), fsec(p), dsec(p));
                    let q = p.binary(BinOp::Div, Double, a, two);
                    let m = p.binary(BinOp::Min, Double, q, f);
                    let s = p.binary(BinOp::Sub, Double, m, b);
                    let c = dsec(p);
                    p.binary(BinOp::Max, Double, s, c)
                },
                true,
            ),
            (
                "a float sum stored as int",
                Int,
                |p| {
                    let (x, y) = (fsec(p), fsec(p));
                    p.binary(BinOp::Add, Float, x, y)
                },
                false,
            ),
            (
                "an int section",
                Float,
                |p| {
                    let (x, i) = (fsec(p), isec(p));
                    p.binary(BinOp::Add, Float, x, i)
                },
                false,
            ),
            (
                "a float comparison",
                Float,
                |p| {
                    let (x, y) = (fsec(p), dsec(p));
                    p.binary(BinOp::Lt, Float, x, y)
                },
                false,
            ),
            (
                "a float remainder",
                Float,
                |p| {
                    let (x, y) = (fsec(p), fsec(p));
                    p.binary(BinOp::Rem, Float, x, y)
                },
                false,
            ),
            (
                "an int add of float sections",
                Float,
                |p| {
                    let (x, y) = (fsec(p), fsec(p));
                    p.binary(BinOp::Add, Int, x, y)
                },
                false,
            ),
            (
                "a float negation",
                Float,
                |p| {
                    let x = fsec(p);
                    p.unary(UnOp::Neg, Float, x)
                },
                false,
            ),
            (
                "a float to double cast",
                Double,
                |p| {
                    let x = fsec(p);
                    p.cast(Double, Float, x)
                },
                false,
            ),
            (
                "int arithmetic",
                Int,
                |p| {
                    let (x, y) = (isec(p), isec(p));
                    p.binary(BinOp::Mul, Int, x, y)
                },
                false,
            ),
        ];
        let prog = program(cases.len(), |i, p| {
            for k in 0..64 {
                let v = Value::Float(k as f64 * 0.37 - 5.0);
                for (base, ty) in [(VA, Float), (VB, Double)] {
                    let a = p.int(base + k * ty.size());
                    let x = constant(p, v);
                    p.assign(LValue::deref(a, ty), x);
                }
            }
            let (_, store, rhs, _) = cases[i];
            let rhs = rhs(p);
            assign_section(p, VD, 64, store.size(), store, rhs);
            let zero = p.int(0);
            p.ret(Some(zero));
        });
        let bc = crate::bytecode::compile(&prog);
        for (i, &(name, _, _, kernel)) in cases.iter().enumerate() {
            let plans = &bc.procs[i].plans;
            assert_eq!(plans.len(), 1, "{name}");
            assert_eq!(plans[0].kernel, kernel, "{name}");
        }
        run_inspecting(&prog, &|i| cases[i].0.to_string(), |i, interp, vm| {
            assert!(interp.mem == vm.mem, "memory after {}", cases[i].0);
        });
    }

    /// `titanperf`'s vector programs as its `gen.rs` writes them at seed 1.
    const BENCH_DAXPY: &str = "\
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}
float a[8192], b[8192], c[8192];
int main(void)
{
    int i, r;
    for (i = 0; i < 8192; i++) {
        b[i] = 1421.0f + i * 0.5f;
        c[i] = 7513.0f - i * 0.25f;
    }
    for (r = 0; r < 32; r++) {
        daxpy(a, b, c, 1.5, 8192);
        daxpy(b, a, c, 0.25, 8192);
    }
    return (int)(b[17] * 0.001f) & 127;
}
";
    const BENCH_COPY: &str = "\
float dst[65536], src[65536];
int main(void)
{
    float *a, *b;
    int n, i, r;
    for (i = 0; i < 2048; i++)
        src[i] = 1697.0f + i * 0.5f;
    for (r = 0; r < 12; r++) {
        a = &dst[0];
        b = &src[1];
        n = 65535;
#pragma safe
        while (n) {
            *a++ = *b++;
            n--;
        }
        a = &src[0];
        b = &dst[0];
        n = 65535;
#pragma safe
        while (n) {
            *a++ = *b++;
            n--;
        }
    }
    return (int)src[5] & 127;
}
";
    const BENCH_BACKSOLVE: &str = "\
float x[1026], y[1026], z[1026];
int main(void)
{
    float *p, *q;
    int i, r;
    for (i = 0; i < 1026; i++) {
        y[i] = 1922.0f + i;
        z[i] = 0.5f;
    }
    x[0] = 1.0f;
    p = &x[1];
    q = &x[0];
    for (r = 0; r < 120; r++) {
        for (i = 0; i < 1024; i++)
            p[i] = z[i] * (y[i] - q[i]);
        x[0] = x[1024] * 0.001f;
    }
    return (int)x[1024] & 127;
}
";

    /// Every vector statement the benchmark's programs and `corpus/*.c`
    /// compile to, through the real pipeline under the benchmark's options,
    /// runs on the kernel. A plan that fell to the element path would keep
    /// every simulated figure and show only as host time.
    #[test]
    fn vector_kernel_runs_every_benchmark_vector_statement() {
        use titanc::Options;
        let spread = Options {
            spread_lists: true,
            ..Options::parallel()
        };
        let mut programs = vec![
            ("daxpy".to_string(), BENCH_DAXPY.to_string(), Options::o2()),
            ("copy".into(), BENCH_COPY.into(), Options::o2()),
            ("daxpy_par".into(), BENCH_DAXPY.into(), Options::parallel()),
            ("backsolve".into(), BENCH_BACKSOLVE.into(), Options::o2()),
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let mut corpus: Vec<_> = std::fs::read_dir(dir)
            .expect("corpus/")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "c"))
            .collect();
        corpus.sort();
        for path in corpus {
            let src = std::fs::read_to_string(&path).expect("corpus file");
            let name = path.display().to_string();
            programs.push((format!("{name} -O2"), src.clone(), Options::o2()));
            programs.push((format!("{name} --parallel"), src, spread.clone()));
        }
        for (name, src, options) in &programs {
            let prog = titanc::compile(src, options).expect(name).program;
            let bc = crate::bytecode::compile(&prog);
            let plans: Vec<&crate::bytecode::VecPlan> =
                bc.procs.iter().flat_map(|p| &p.plans).collect();
            if !name.contains("corpus") {
                assert!(!plans.is_empty(), "{name}: no vector statement");
            }
            for p in plans {
                assert!(p.kernel, "{name}: a plan off the kernel: {p:?}");
            }
        }
    }
}

#[test]
fn read_global_rejects_an_index_past_the_address_space() {
    let prog = compile_to_il("int g[4]; int main(void) { g[1] = 7; return 0; }").unwrap();
    let mut sim = Simulator::new(&prog, MachineConfig::default());
    sim.run("main", &[]).unwrap();
    assert_eq!(
        sim.read_global("g", ScalarType::Int, 1).unwrap(),
        Value::Int(7)
    );
    // `base + index * 4` wraps to `base` in 32 bits; it must not read g[0]
    let err = sim
        .read_global("g", ScalarType::Int, 1 << 30)
        .expect_err("an index whose offset overflows");
    assert!(err.message.contains("beyond the address space"), "{err}");
    let err = sim
        .read_global("g", ScalarType::Double, u32::MAX)
        .expect_err("an index whose offset overflows");
    assert!(err.message.contains("beyond the address space"), "{err}");
    let err = sim
        .read_global("g", ScalarType::Int, 1 << 24)
        .expect_err("an index past simulated memory");
    assert!(err.message.contains("memory access out of range"), "{err}");
}
