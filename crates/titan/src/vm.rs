//! The register-bytecode VM: the engine everything runs on by default.
//!
//! A dispatch loop over [`crate::bytecode::Slot`]s on the shared machine
//! (`machine.rs`: memory, frames, meter, intrinsics). Every charge an
//! instruction applies was looked up in the machine's charge table when
//! the bytecode was lowered, and every flush happens where the
//! tree-walking interpreter flushes, so every measured number is
//! byte-for-byte identical to the reference engine's. Activations live on
//! one register stack, so a call copies the callee's frame template and
//! allocates nothing.
//!
//! Vector statements run one of two ways. A plan of float arithmetic over
//! float data (`VecPlan::kernel`) whose every access lies in memory runs
//! as a columnar kernel: each section is gathered into a contiguous `f64`
//! buffer, each operator is one tight loop the host compiler can
//! autovectorize, and the result is scattered back in one pass. Every
//! other statement runs element by element through `fold` and the checked
//! memory accessors, in the interpreter's order and with its error text.
//! The split follows the paper: its vector results are float throughput,
//! and every vector statement the benchmark kernels execute is a float
//! store of float sections, float splats, `+` and `*`. A columnar copy of
//! integer arithmetic, comparisons, unary operators and casts would be a
//! second definition of IL arithmetic beside `fold` that no workload runs.

use crate::bytecode::{BcProgram, Callee, Instr, Reg, SecRef, VStep, VecPlan, NO_REG};
use crate::machine::{
    coerce, do_control_charge, reg_move_charge, FrameLayout, Quiet, SimError, Simulator, MEM_SIZE,
};
use std::rc::Rc;
use titanc_il::fold::{eval_binop, eval_cast, eval_unop, Value};
use titanc_il::{BinOp, ScalarType};

/// One live procedure activation: where its registers and cycle snapshots
/// start on the shared stacks, and where its memory-resident variables
/// live.
struct Act {
    proc: usize,
    pc: usize,
    regs_base: usize,
    snaps_base: usize,
    layout: Rc<FrameLayout>,
    /// Base address of the activation's stack slots.
    base: u32,
    saved_sp: u32,
}

/// The register and snapshot stacks of every live activation, kept
/// between runs so steady-state calls allocate nothing.
#[derive(Default)]
struct Stack {
    regs: Vec<Value>,
    /// Cycle snapshots for parallel/spread regions.
    snaps: Vec<f64>,
    acts: Vec<Act>,
    /// Arguments of the call being set up.
    argv: Vec<Value>,
}

/// Everything the VM keeps on a [`Simulator`]: the program's bytecode
/// (lowered once, on the first run) and its reusable buffers.
#[derive(Default)]
pub(crate) struct VmState {
    bc: Option<Rc<BcProgram>>,
    stack: Stack,
    /// The meter as saved by `QuietSave`.
    quiet: Quiet,
    /// Elements computed so far by an element-by-element vector statement.
    elems: Vec<Value>,
    /// The operand stack of one element's evaluation.
    operands: Vec<Value>,
    kernel: Kernel,
}

/// How the dispatch loop leaves an activation.
enum Transfer {
    /// Enter this procedure (an index into `Program::procs`).
    Call(u32),
    Ret(Option<Value>),
}

/// The address of memory-resident variable `var` in the activation based
/// at `base`.
fn var_addr(layout: &FrameLayout, var: u32, base: u32) -> u32 {
    layout
        .addr(var as usize, base)
        .expect("the lowerer addresses memory-resident variables only")
}

impl<'p> Simulator<'p> {
    /// VM entry point: resolves `entry` like the interpreter does
    /// (intrinsics first, then procedures by name).
    pub(crate) fn vm_call(
        &mut self,
        entry: &str,
        args: &[Value],
    ) -> Result<Option<Value>, SimError> {
        let bc = match &self.vm.bc {
            Some(bc) => Rc::clone(bc),
            None => {
                let bc = Rc::new(crate::bytecode::compile(self.prog));
                self.vm.bc = Some(Rc::clone(&bc));
                bc
            }
        };
        if let Some(which) = crate::machine::Intrinsic::by_name(entry) {
            return self.intrinsic(which, entry, args);
        }
        let idx = self
            .proc_by_name(entry)
            .ok_or_else(|| SimError::new(format!("undefined procedure `{entry}`")))?
            .0;
        // the stacks leave `self` for the run, so frames and `self.mem`
        // borrow independently
        let mut st = std::mem::take(&mut self.vm.stack);
        st.argv.clear();
        st.argv.extend_from_slice(args);
        let r = self.vm_exec(&bc, &mut st, idx);
        st.regs.clear();
        st.snaps.clear();
        st.acts.clear();
        self.vm.stack = st;
        r
    }

    /// Call prologue, in the interpreter's exact order: argument-count
    /// check, the machine's frame entry (depth guard, call charge, stack
    /// slots), then the frame template and parameter binding. Arguments
    /// come from `st.argv`.
    #[inline(always)]
    fn vm_enter(&mut self, bc: &BcProgram, st: &mut Stack, idx: usize) -> Result<Act, SimError> {
        let bcp = &bc.procs[idx];
        if bcp.params.len() != st.argv.len() {
            return Err(self.arity_error(idx, bcp.params.len(), st.argv.len()));
        }
        let saved_sp = self.sp;
        let (layout, base) = self.enter_frame(idx)?;
        let regs_base = st.regs.len();
        st.regs.extend_from_slice(&bcp.frame);
        for (&(var, kind), &arg) in bcp.params.iter().zip(&st.argv) {
            let v = coerce(arg, kind);
            match layout.addr(var as usize, base) {
                Some(addr) => self.write_mem(addr, kind, v)?,
                None => st.regs[regs_base + var as usize] = v,
            }
        }
        let snaps_base = st.snaps.len();
        st.snaps.resize(snaps_base + bcp.num_snaps as usize, 0.0);
        Ok(Act {
            proc: idx,
            pc: 0,
            regs_base,
            snaps_base,
            layout,
            base,
            saved_sp,
        })
    }

    #[cold]
    #[inline(never)]
    fn arity_error(&self, idx: usize, want: usize, got: usize) -> SimError {
        SimError::new(format!(
            "procedure `{}` expects {want} arguments, got {got}",
            self.prog.procs[idx].name
        ))
    }

    /// Finishes a value-producing instruction: an assignment to a register
    /// variable coerces to the variable's kind and charges the write.
    #[inline(always)]
    fn sink(&mut self, v: Value, sink: Option<ScalarType>) -> Value {
        match sink {
            None => v,
            Some(ty) => {
                self.charge(reg_move_charge());
                coerce(v, ty)
            }
        }
    }

    /// The dispatch loop. Procedure calls are iterative — an explicit
    /// activation stack instead of Rust recursion — so simulated call
    /// depth (bounded by the machine's depth guard) never stresses the
    /// host stack. On error, `sp`/`depth` stay where they were, matching
    /// the interpreter's propagation.
    #[allow(clippy::too_many_lines)]
    fn vm_exec(
        &mut self,
        bc: &BcProgram,
        st: &mut Stack,
        idx: usize,
    ) -> Result<Option<Value>, SimError> {
        let mut cur = self.vm_enter(bc, st, idx)?;
        loop {
            let bcp = &bc.procs[cur.proc];
            let code = &bcp.code[..];
            let layout = &*cur.layout;
            let base = cur.base;
            let regs = &mut st.regs[cur.regs_base..];
            let snaps = &mut st.snaps[cur.snaps_base..];
            let mut pc = cur.pc;
            let transfer = loop {
                let slot = &code[pc];
                if slot.steps > 0 {
                    self.stats.steps += u64::from(slot.steps);
                    if self.stats.steps > self.cfg.max_steps {
                        // the statements sharing this slot lower to
                        // nothing, so the one that hit the limit is all
                        // that is left to account for
                        self.stats.steps = self.cfg.max_steps + 1;
                        return Err(SimError::new("step limit exceeded (infinite loop?)"));
                    }
                }
                match slot.ins {
                    Instr::Nop => {}
                    Instr::FlushBranch => self.flush_branch(),
                    Instr::LoadVar { dst, var, ty, sink } => {
                        let v = self.load(var_addr(layout, var, base), ty, false)?;
                        regs[dst as usize] = self.sink(v, sink);
                    }
                    Instr::StoreVar { var, ty, src } => {
                        self.store(var_addr(layout, var, base), ty, regs[src as usize])?;
                    }
                    Instr::SetVar { var, ty, src } => {
                        regs[var as usize] = self.sink(regs[src as usize], Some(ty));
                    }
                    Instr::AddrOf { dst, var, sink } => {
                        self.charge(reg_move_charge());
                        let v = Value::Int(i64::from(var_addr(layout, var, base)));
                        regs[dst as usize] = self.sink(v, sink);
                    }
                    Instr::Load {
                        dst,
                        addr,
                        ty,
                        volatile,
                        sink,
                    } => {
                        let a = regs[addr as usize].as_int() as u32;
                        let v = self.load(a, ty, volatile)?;
                        regs[dst as usize] = self.sink(v, sink);
                    }
                    Instr::Store { addr, ty, src } => {
                        let a = regs[addr as usize].as_int() as u32;
                        self.store(a, ty, regs[src as usize])?;
                    }
                    Instr::Un {
                        dst,
                        op,
                        ty,
                        src,
                        charge,
                        sink,
                    } => {
                        self.charge(charge);
                        let v = eval_unop(op, ty, regs[src as usize]);
                        regs[dst as usize] = self.sink(v, sink);
                    }
                    Instr::Bin {
                        dst,
                        op,
                        ty,
                        a,
                        b,
                        charge,
                        sink,
                    } => {
                        self.charge(charge);
                        let v = eval_binop(op, ty, regs[a as usize], regs[b as usize])
                            .ok_or_else(|| SimError::new("division by zero"))?;
                        regs[dst as usize] = self.sink(v, sink);
                    }
                    Instr::Cast {
                        dst,
                        to,
                        from,
                        src,
                        charge,
                        sink,
                    } => {
                        self.charge(charge);
                        let v = eval_cast(to, from, regs[src as usize]);
                        regs[dst as usize] = self.sink(v, sink);
                    }
                    Instr::Jump { target } => {
                        pc = target as usize;
                        continue;
                    }
                    Instr::JumpIfZero { cond, target } => {
                        if !regs[cond as usize].is_truthy() {
                            pc = target as usize;
                            continue;
                        }
                    }
                    Instr::Br { cond, target } => {
                        self.flush_branch();
                        if !regs[cond as usize].is_truthy() {
                            pc = target as usize;
                            continue;
                        }
                    }
                    Instr::BrBin {
                        op,
                        ty,
                        a,
                        b,
                        charge,
                        target,
                    } => {
                        self.charge(charge);
                        let c = eval_binop(op, ty, regs[a as usize], regs[b as usize])
                            .ok_or_else(|| SimError::new("division by zero"))?;
                        self.flush_branch();
                        if !c.is_truthy() {
                            pc = target as usize;
                            continue;
                        }
                    }
                    Instr::DoEnter {
                        iv,
                        hi,
                        step,
                        lo_src,
                        hi_src,
                        step_src,
                    } => {
                        let lo_v = regs[lo_src as usize].as_int();
                        let hi_v = regs[hi_src as usize].as_int();
                        let st_v = regs[step_src as usize].as_int();
                        if st_v == 0 {
                            return Err(SimError::new("DO loop with zero step"));
                        }
                        regs[iv as usize] = Value::Int(lo_v);
                        regs[hi as usize] = Value::Int(hi_v);
                        regs[step as usize] = Value::Int(st_v);
                    }
                    Instr::DoHead {
                        iv,
                        hi,
                        step,
                        exit,
                        var,
                        ty,
                    } => {
                        let ivv = regs[iv as usize].as_int();
                        let hiv = regs[hi as usize].as_int();
                        let cont = if regs[step as usize].as_int() > 0 {
                            ivv <= hiv
                        } else {
                            ivv >= hiv
                        };
                        self.charge(do_control_charge());
                        self.flush_branch();
                        if !cont {
                            pc = exit as usize;
                            continue;
                        }
                        if var != NO_REG {
                            regs[var as usize] = self.sink(Value::Int(ivv), Some(ty));
                        }
                    }
                    Instr::DoNext { iv, step, head } => {
                        let next = regs[iv as usize]
                            .as_int()
                            .wrapping_add(regs[step as usize].as_int());
                        regs[iv as usize] = Value::Int(next);
                        pc = head as usize;
                        continue;
                    }
                    Instr::ParEnter { slot } => snaps[slot as usize] = self.par_enter(),
                    Instr::ParExit { slot } => self.par_exit(snaps[slot as usize]),
                    Instr::SpreadLoop => self.spread_enter(),
                    Instr::SpreadEnter { slot } => snaps[slot as usize] = self.stats.cycles,
                    Instr::SpreadExit { slot } => self.spread_exit(snaps[slot as usize]),
                    Instr::QuietSave => self.vm.quiet = self.quiet_save(),
                    Instr::QuietRestore => self.quiet_restore(self.vm.quiet),
                    Instr::Call { data } => {
                        self.flush(0);
                        let cd = &bcp.calls[data as usize];
                        st.argv.clear();
                        st.argv.extend(cd.args.iter().map(|&r| regs[r as usize]));
                        match cd.callee {
                            Callee::Intrinsic(which) => {
                                let ret = self.intrinsic(which, &cd.name, &st.argv)?;
                                if cd.dst != NO_REG {
                                    regs[cd.dst as usize] = returned(ret, &cd.name)?;
                                }
                            }
                            Callee::Unknown => {
                                return Err(SimError::new(format!(
                                    "undefined procedure `{}`",
                                    cd.name
                                )));
                            }
                            Callee::Proc(callee) => break Transfer::Call(callee),
                        }
                    }
                    Instr::Ret { src, flush } => {
                        if flush {
                            self.flush_branch();
                        }
                        break Transfer::Ret((src != NO_REG).then(|| regs[src as usize]));
                    }
                    Instr::VecCheckLen { plan } => {
                        let p = &bcp.plans[plan as usize];
                        if regs[p.len as usize].as_int() < 0 {
                            return Err(SimError::new("negative vector length"));
                        }
                    }
                    Instr::VecCheckSec { plan, idx } => {
                        let p = &bcp.plans[plan as usize];
                        let len_v = regs[p.len as usize].as_int();
                        let l = regs[p.sections[idx as usize].len as usize].as_int();
                        if l != len_v {
                            return Err(SimError::new(format!(
                                "vector length mismatch: {l} vs {len_v}"
                            )));
                        }
                    }
                    Instr::VecRun { plan } => self.vec_run(regs, &bcp.plans[plan as usize])?,
                    Instr::VecCharge { plan } => {
                        self.vec_charge(regs, &bcp.plans[plan as usize])?;
                        self.vm.elems.clear();
                    }
                    Instr::VecElem { plan, k } => {
                        let k = regs[k as usize].as_int();
                        let v = self.vec_elem(regs, &bcp.plans[plan as usize], k)?;
                        self.vm.elems.push(v);
                    }
                    Instr::VecScatter { plan } => {
                        self.vec_scatter(regs, &bcp.plans[plan as usize])?;
                    }
                    Instr::Trap { msg } => {
                        return Err(SimError::new(bcp.traps[msg as usize].clone()));
                    }
                }
                pc += 1;
            };
            match transfer {
                Transfer::Call(callee) => {
                    // resume at the call: its `Ret` delivers the value
                    cur.pc = pc;
                    let callee = self.vm_enter(bc, st, callee as usize)?;
                    st.acts.push(std::mem::replace(&mut cur, callee));
                }
                Transfer::Ret(ret) => {
                    st.regs.truncate(cur.regs_base);
                    st.snaps.truncate(cur.snaps_base);
                    self.leave_frame(cur.saved_sp);
                    let Some(caller) = st.acts.pop() else {
                        return Ok(ret);
                    };
                    cur = caller;
                    let Instr::Call { data } = bc.procs[cur.proc].code[cur.pc].ins else {
                        unreachable!("a caller is suspended at its call")
                    };
                    let cd = &bc.procs[cur.proc].calls[data as usize];
                    if cd.dst != NO_REG {
                        st.regs[cur.regs_base + cd.dst as usize] = returned(ret, &cd.name)?;
                    }
                    cur.pc += 1;
                }
            }
        }
    }

    // --------------------------------------------------------------
    // vector statements
    // --------------------------------------------------------------

    /// Charges the vector cost model for one execution of `plan`, then
    /// binds the registers its kept sections go to.
    fn vec_charge(&mut self, regs: &[Value], plan: &VecPlan) -> Result<(), SimError> {
        // `VecCheckLen` guaranteed a non-negative length
        let len = regs[plan.len as usize].as_int();
        self.charge_vector(plan.n_instr, plan.ops, len as u64, plan.kind.is_float());
        for s in &plan.sections {
            if let Some(reg) = s.keep {
                let (b, st) = (regs[s.base as usize], regs[s.stride as usize]);
                let reg = regs[reg as usize].as_int() as u32;
                self.keep_section(b.as_int() as u32, st.as_int(), s.ty, len, reg)?;
            }
        }
        Ok(())
    }

    /// Runs a plan: on the float kernel when the lowerer admitted it and
    /// every access lies in memory, element by element otherwise.
    fn vec_run(&mut self, regs: &[Value], plan: &VecPlan) -> Result<(), SimError> {
        self.vec_charge(regs, plan)?;
        let len = regs[plan.len as usize].as_int();
        if len == 0 {
            return Ok(());
        }
        let in_range = |base: Reg, stride: Reg, ty: ScalarType| {
            let b = regs[base as usize].as_int() as u32;
            range_ok(b, regs[stride as usize].as_int(), len, ty.size())
        };
        if plan.kernel
            && in_range(plan.base, plan.stride, plan.kind)
            && plan
                .sections
                .iter()
                .all(|s| in_range(s.base, s.stride, s.ty))
        {
            self.vec_kernel(regs, plan, len as usize);
            return Ok(());
        }
        self.vm.elems.clear();
        for k in 0..len {
            let v = self.vec_elem(regs, plan, k)?;
            self.vm.elems.push(v);
        }
        self.vec_scatter(regs, plan)
    }

    /// The float kernel: gathers each section into a contiguous buffer,
    /// runs each operator as one loop over whole buffers, and scatters the
    /// result. `vec_run` range-checked every access, and every buffer is
    /// taken from and returned to the pool, so a steady-state statement
    /// allocates nothing.
    fn vec_kernel(&mut self, regs: &[Value], plan: &VecPlan, n: usize) {
        // the buffers leave `self` so they and `self.mem` borrow
        // independently
        let mut k = std::mem::take(&mut self.vm.kernel);
        for step in &plan.steps {
            match *step {
                VStep::Sec(i) => {
                    let s = &plan.sections[i as usize];
                    let b = regs[s.base as usize].as_int() as u32;
                    let mut buf = k.take(n);
                    self.load_section(b, regs[s.stride as usize].as_int(), s.ty, n, &mut buf);
                    k.stack.push(buf);
                }
                VStep::Splat(r) => {
                    let mut buf = k.take(n);
                    buf.resize(n, regs[r as usize].as_float());
                    k.stack.push(buf);
                }
                VStep::Bin { op, ty } => {
                    let y = k.stack.pop().expect("kernel operand");
                    let x = k.stack.last_mut().expect("kernel operand");
                    match op {
                        BinOp::Add => zip_with(x, &y, |p, q| p + q),
                        BinOp::Sub => zip_with(x, &y, |p, q| p - q),
                        BinOp::Mul => zip_with(x, &y, |p, q| p * q),
                        BinOp::Div => zip_with(x, &y, |p, q| p / q),
                        BinOp::Min => zip_with(x, &y, f64::min),
                        BinOp::Max => zip_with(x, &y, f64::max),
                        _ => unreachable!("`kernel_admits` admits float arithmetic only"),
                    }
                    if ty == ScalarType::Float {
                        // `normalize` rounds a float result through f32
                        for v in x.iter_mut() {
                            *v = *v as f32 as f64;
                        }
                    }
                    k.free.push(y);
                }
                VStep::Un { .. } | VStep::Cast { .. } => {
                    unreachable!("a kernel plan has float arithmetic only")
                }
            }
        }
        let root = k.stack.pop().expect("kernel result");
        let base = regs[plan.base as usize].as_int() as u32;
        self.store_section(base, regs[plan.stride as usize].as_int(), plan.kind, &root);
        k.free.push(root);
        self.vm.kernel = k;
    }

    /// Appends the `n` elements of a float section to `out`, with a
    /// contiguous fast case.
    fn load_section(&self, b: u32, st: i64, ty: ScalarType, n: usize, out: &mut Vec<f64>) {
        let start = b as usize;
        let at = |k: usize| (b as i64 + k as i64 * st) as u32 as usize;
        match (ty, st == ty.size()) {
            (ScalarType::Float, true) => out.extend(
                self.mem[start..start + n * 4]
                    .chunks_exact(4)
                    .map(|ch| f32::from_le_bytes(ch.try_into().unwrap()) as f64),
            ),
            (ScalarType::Float, false) => out.extend((0..n).map(|k| {
                let i = at(k);
                f32::from_le_bytes(self.mem[i..i + 4].try_into().unwrap()) as f64
            })),
            (ScalarType::Double, true) => out.extend(
                self.mem[start..start + n * 8]
                    .chunks_exact(8)
                    .map(|ch| f64::from_le_bytes(ch.try_into().unwrap())),
            ),
            (ScalarType::Double, false) => out.extend((0..n).map(|k| {
                let i = at(k);
                f64::from_le_bytes(self.mem[i..i + 8].try_into().unwrap())
            })),
            _ => unreachable!("a kernel plan has float sections only"),
        }
    }

    /// Scatters the kernel result to a float store, writing the same bytes
    /// `write_mem` would after `coerce(v, kind)`.
    fn store_section(&mut self, b: u32, st: i64, kind: ScalarType, vals: &[f64]) {
        let start = b as usize;
        let n = vals.len();
        let at = |k: usize| (b as i64 + k as i64 * st) as u32 as usize;
        match (kind, st == kind.size()) {
            (ScalarType::Float, true) => {
                for (ch, &v) in self.mem[start..start + n * 4].chunks_exact_mut(4).zip(vals) {
                    ch.copy_from_slice(&(v as f32).to_le_bytes());
                }
            }
            (ScalarType::Float, false) => {
                for (k, &v) in vals.iter().enumerate() {
                    let i = at(k);
                    self.mem[i..i + 4].copy_from_slice(&(v as f32).to_le_bytes());
                }
            }
            (ScalarType::Double, true) => {
                for (ch, &v) in self.mem[start..start + n * 8].chunks_exact_mut(8).zip(vals) {
                    ch.copy_from_slice(&v.to_le_bytes());
                }
            }
            (ScalarType::Double, false) => {
                for (k, &v) in vals.iter().enumerate() {
                    let i = at(k);
                    self.mem[i..i + 8].copy_from_slice(&v.to_le_bytes());
                }
            }
            _ => unreachable!("a kernel plan has a float store only"),
        }
    }

    /// Element `k` of the plan's right-hand side, coerced to the store's
    /// kind: `fold` arithmetic over checked memory reads, in the
    /// interpreter's order.
    fn vec_elem(&mut self, regs: &[Value], plan: &VecPlan, k: i64) -> Result<Value, SimError> {
        // the operand stack leaves `self` so it and `self.mem` borrow
        // independently; a trap drops it, and the next statement makes one
        let mut stack = std::mem::take(&mut self.vm.operands);
        stack.clear();
        for step in &plan.steps {
            match *step {
                VStep::Sec(i) => {
                    let s = &plan.sections[i as usize];
                    let b = regs[s.base as usize].as_int() as u32;
                    let st = regs[s.stride as usize].as_int();
                    stack.push(self.read_mem((b as i64 + k * st) as u32, s.ty)?);
                }
                VStep::Splat(r) => stack.push(regs[r as usize]),
                VStep::Un { op, ty } => {
                    let a = stack.pop().expect("element operand");
                    stack.push(eval_unop(op, ty, a));
                }
                VStep::Bin { op, ty } => {
                    let b = stack.pop().expect("element operand");
                    let a = stack.pop().expect("element operand");
                    stack
                        .push(eval_binop(op, ty, a, b).ok_or_else(|| {
                            SimError::new("division by zero in vector statement")
                        })?);
                }
                VStep::Cast { to, from } => {
                    let a = stack.pop().expect("element operand");
                    stack.push(eval_cast(to, from, a));
                }
            }
        }
        let v = stack.pop().expect("element result");
        self.vm.operands = stack;
        Ok(coerce(v, plan.kind))
    }

    /// Stores the elements computed so far (`vm.elems`) through checked
    /// memory writes.
    fn vec_scatter(&mut self, regs: &[Value], plan: &VecPlan) -> Result<(), SimError> {
        let base = regs[plan.base as usize].as_int() as u32;
        let stride = regs[plan.stride as usize].as_int();
        let elems = std::mem::take(&mut self.vm.elems);
        for (k, &v) in elems.iter().enumerate() {
            self.write_mem((base as i64 + k as i64 * stride) as u32, plan.kind, v)?;
        }
        self.vm.elems = elems;
        Ok(())
    }
}

/// True when the float kernel runs a plan: a `float` or `double` store of
/// float sections and splats combined by `+ - * / min max` on a float
/// kind, exactly the arms of `vec_kernel`, `load_section` and
/// `store_section`. The lowerer asks once per plan; every other vector
/// statement evaluates element by element through `fold`, the one
/// definition of IL arithmetic.
pub(crate) fn kernel_admits(kind: ScalarType, sections: &[SecRef], steps: &[VStep]) -> bool {
    kind.is_float()
        && sections.iter().all(|s| s.ty.is_float())
        && steps.iter().all(|s| match *s {
            VStep::Sec(_) | VStep::Splat(_) => true,
            VStep::Bin { op, ty } => {
                ty.is_float()
                    && matches!(
                        op,
                        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max
                    )
            }
            VStep::Un { .. } | VStep::Cast { .. } => false,
        })
}

/// The float kernel's buffers. Every gather, splat and result is taken
/// from `free` and returned there, so steady-state vector execution
/// allocates nothing — important for strip-mined loops where each kernel
/// is only a few dozen elements.
#[derive(Default)]
struct Kernel {
    free: Vec<Vec<f64>>,
    /// The operand stack of the statement being run.
    stack: Vec<Vec<f64>>,
}

impl Kernel {
    fn take(&mut self, n: usize) -> Vec<f64> {
        let mut v = self.free.pop().unwrap_or_default();
        v.clear();
        v.reserve(n);
        v
    }
}

/// True when every element of a section (or the store) lies inside
/// simulated memory — the precondition for the unchecked kernel path. In
/// range, `(base as i64 + k*stride) as u32` equals the i64 address, so
/// the kernel and the interpreter touch identical bytes.
fn range_ok(base: u32, stride: i64, len: i64, size: i64) -> bool {
    let first = base as i64;
    let Some(span) = (len - 1).checked_mul(stride) else {
        return false;
    };
    let Some(last) = first.checked_add(span) else {
        return false;
    };
    let lo = first.min(last);
    let hi = first.max(last).saturating_add(size);
    lo >= 4 && hi <= MEM_SIZE as i64
}

/// `x[k] = f(x[k], y[k])` for every element; `f` is monomorphized per
/// operator, so the loop compiles to straight vector code.
fn zip_with(x: &mut [f64], y: &[f64], f: impl Fn(f64, f64) -> f64) {
    for (p, &q) in x.iter_mut().zip(y) {
        *p = f(*p, q);
    }
}

/// The value a call delivers to a destination, which a `void` callee
/// cannot.
fn returned(ret: Option<Value>, callee: &str) -> Result<Value, SimError> {
    ret.ok_or_else(|| SimError::new(format!("procedure `{callee}` returned no value")))
}
