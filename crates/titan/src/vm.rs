//! The register-bytecode VM: the engine everything runs on by default.
//!
//! A dispatch loop over [`crate::bytecode::Slot`]s on the shared machine
//! (`machine.rs`: memory, frames, meter, intrinsics). Every charge an
//! instruction applies was looked up in the machine's charge table when
//! the bytecode was lowered, and every flush happens where the
//! tree-walking interpreter flushes, so every measured number is
//! byte-for-byte identical to the reference engine's. Activations live on
//! one register stack, so a call copies the callee's frame template and
//! allocates nothing. Vector plans run as chunked kernels: each section
//! is gathered into a contiguous `Vec<i64>`/`Vec<f64>` buffer, operations
//! are tight element loops the host compiler can autovectorize, and the
//! result is scattered back in one pass — with a pre-flight range check
//! falling back to a per-element slow path that reproduces the
//! interpreter's error behavior exactly.

use crate::bytecode::{BcProgram, Callee, Instr, VStep, VecPlan, NO_REG};
use crate::machine::{
    coerce, do_control_charge, reg_move_charge, FrameLayout, Quiet, SimError, Simulator, MEM_SIZE,
};
use std::rc::Rc;
use titanc_il::fold::{eval_binop, eval_cast, eval_unop, Value};
use titanc_il::{BinOp, ScalarType, UnOp};

/// A vector value during kernel execution: every element in the integer
/// or the float domain (mirroring [`Value`] element-wise).
enum VBuf {
    I(Vec<i64>),
    F(Vec<f64>),
}

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
    scratch: Scratch,
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
                let bc = Rc::new(crate::bytecode::compile(self.prog, &self.cfg.costs));
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
    fn vm_enter(&mut self, bc: &BcProgram, st: &mut Stack, idx: usize) -> Result<Act, SimError> {
        let bcp = &bc.procs[idx];
        if bcp.params.len() != st.argv.len() {
            return Err(SimError::new(format!(
                "procedure `{}` expects {} arguments, got {}",
                self.prog.procs[idx].name,
                bcp.params.len(),
                st.argv.len()
            )));
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

    /// Finishes a value-producing instruction: an assignment to a register
    /// variable coerces to the variable's kind and charges the write.
    fn sink(&mut self, v: Value, sink: Option<ScalarType>) -> Value {
        match sink {
            None => v,
            Some(ty) => {
                self.charge(reg_move_charge(&self.cfg.costs));
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
                        self.charge(reg_move_charge(&self.cfg.costs));
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
                        self.charge(do_control_charge(&self.cfg.costs));
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
                        self.vec_charge(regs, &bcp.plans[plan as usize]);
                        self.vm.elems.clear();
                    }
                    Instr::VecElem { plan, k } => {
                        let k = regs[k as usize].as_int();
                        let v = self.vec_elem(regs, &bcp.plans[plan as usize], k)?;
                        self.vm.elems.push(v);
                    }
                    Instr::VecScatter { plan } => {
                        let elems = std::mem::take(&mut self.vm.elems);
                        self.vec_scatter(regs, &bcp.plans[plan as usize], &elems)?;
                        self.vm.elems = elems;
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
    // vector kernels
    // --------------------------------------------------------------

    /// Charges the vector cost model for one execution of `plan`.
    fn vec_charge(&mut self, regs: &[Value], plan: &VecPlan) {
        // `VecCheckLen` guaranteed a non-negative length
        let len = regs[plan.len as usize].as_int() as u64;
        self.charge_vector(plan.n_instr, plan.ops, len, plan.kind.is_float());
    }

    fn vec_run(&mut self, regs: &[Value], plan: &VecPlan) -> Result<(), SimError> {
        self.vec_charge(regs, plan);
        let len_v = regs[plan.len as usize].as_int();
        if len_v == 0 {
            return Ok(());
        }
        let base_v = regs[plan.base as usize].as_int() as u32;
        let stride_v = regs[plan.stride as usize].as_int();
        // the scratch pool is taken out of `self` for the duration of the
        // statement so buffers and `self.mem` borrow independently; a
        // steady-state vector statement allocates nothing
        let mut scratch = std::mem::take(&mut self.vm.scratch);
        let mut resolved = std::mem::take(&mut scratch.secs);
        resolved.clear();
        resolved.extend(plan.sections.iter().map(|s| {
            (
                regs[s.base as usize].as_int() as u32,
                regs[s.stride as usize].as_int(),
                s.ty,
            )
        }));
        let fast = range_ok(base_v, stride_v, len_v, plan.kind.size())
            && resolved
                .iter()
                .all(|&(b, st, ty)| range_ok(b, st, len_v, ty.size()));
        let r = if fast {
            let n = len_v as usize;
            self.vec_kernel(regs, plan, base_v, stride_v, &resolved, n, &mut scratch)
        } else {
            self.vec_slow(regs, plan, len_v)
        };
        scratch.secs = resolved;
        self.vm.scratch = scratch;
        r
    }

    /// Chunked kernel path: gather sections into contiguous buffers, run
    /// tight element loops, scatter the result. Every access was
    /// range-checked up front, and all buffers come from the reusable
    /// scratch pool — a steady-state kernel allocates nothing.
    #[allow(clippy::too_many_arguments)]
    fn vec_kernel(
        &mut self,
        regs: &[Value],
        plan: &VecPlan,
        base: u32,
        stride: i64,
        resolved: &[(u32, i64, ScalarType)],
        n: usize,
        scratch: &mut Scratch,
    ) -> Result<(), SimError> {
        let mut stack = std::mem::take(&mut scratch.stack);
        let mut fail = None;
        for step in &plan.steps {
            match *step {
                VStep::Sec(i) => {
                    let (b, st, ty) = resolved[i as usize];
                    stack.push(self.load_section(b, st, ty, n, scratch));
                }
                VStep::Splat(r) => stack.push(match regs[r as usize] {
                    Value::Int(v) => {
                        let mut o = scratch.take_i(n);
                        o.resize(n, v);
                        VBuf::I(o)
                    }
                    Value::Float(f) => {
                        let mut o = scratch.take_f(n);
                        o.resize(n, f);
                        VBuf::F(o)
                    }
                }),
                VStep::Un { op, ty } => {
                    let a = stack.pop().expect("kernel operand");
                    stack.push(vec_un(op, ty, a, scratch));
                }
                VStep::Bin { op, ty } => {
                    let b = stack.pop().expect("kernel operand");
                    let a = stack.pop().expect("kernel operand");
                    match vec_bin(op, ty, a, b, scratch) {
                        Ok(v) => stack.push(v),
                        Err(e) => {
                            fail = Some(e);
                            break;
                        }
                    }
                }
                VStep::Cast { to, .. } => {
                    let a = stack.pop().expect("kernel operand");
                    stack.push(vec_cast(to, a, scratch));
                }
            }
        }
        let r = match fail {
            None => {
                let root = stack.pop().expect("kernel result");
                self.store_section(base, stride, plan.kind, &root, n, scratch);
                scratch.give(root);
                Ok(())
            }
            Some(e) => Err(e),
        };
        for b in stack.drain(..) {
            scratch.give(b);
        }
        scratch.stack = stack;
        r
    }

    /// Gathers one section into a contiguous buffer (the `Value` domain of
    /// its element type), with a bounds-check-free contiguous fast case.
    fn load_section(
        &self,
        b: u32,
        st: i64,
        ty: ScalarType,
        n: usize,
        scratch: &mut Scratch,
    ) -> VBuf {
        let start = b as usize;
        let contiguous = st == ty.size();
        match ty {
            ScalarType::Char => {
                let mut out = scratch.take_i(n);
                if contiguous {
                    out.extend(self.mem[start..start + n].iter().map(|&x| x as i8 as i64));
                } else {
                    for k in 0..n {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        out.push(self.mem[i] as i8 as i64);
                    }
                }
                VBuf::I(out)
            }
            ScalarType::Int => {
                let mut out = scratch.take_i(n);
                if contiguous {
                    out.extend(
                        self.mem[start..start + n * 4]
                            .chunks_exact(4)
                            .map(|ch| i32::from_le_bytes(ch.try_into().unwrap()) as i64),
                    );
                } else {
                    for k in 0..n {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        out.push(i32::from_le_bytes(self.mem[i..i + 4].try_into().unwrap()) as i64);
                    }
                }
                VBuf::I(out)
            }
            ScalarType::Ptr => {
                let mut out = scratch.take_i(n);
                if contiguous {
                    out.extend(
                        self.mem[start..start + n * 4]
                            .chunks_exact(4)
                            .map(|ch| u32::from_le_bytes(ch.try_into().unwrap()) as i64),
                    );
                } else {
                    for k in 0..n {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        out.push(u32::from_le_bytes(self.mem[i..i + 4].try_into().unwrap()) as i64);
                    }
                }
                VBuf::I(out)
            }
            ScalarType::Float => {
                let mut out = scratch.take_f(n);
                if contiguous {
                    out.extend(
                        self.mem[start..start + n * 4]
                            .chunks_exact(4)
                            .map(|ch| f32::from_le_bytes(ch.try_into().unwrap()) as f64),
                    );
                } else {
                    for k in 0..n {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        out.push(f32::from_le_bytes(self.mem[i..i + 4].try_into().unwrap()) as f64);
                    }
                }
                VBuf::F(out)
            }
            ScalarType::Double => {
                let mut out = scratch.take_f(n);
                if contiguous {
                    out.extend(
                        self.mem[start..start + n * 8]
                            .chunks_exact(8)
                            .map(|ch| f64::from_le_bytes(ch.try_into().unwrap())),
                    );
                } else {
                    for k in 0..n {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        out.push(f64::from_le_bytes(self.mem[i..i + 8].try_into().unwrap()));
                    }
                }
                VBuf::F(out)
            }
        }
    }

    /// Scatters the kernel result, writing the same bytes `write_mem`
    /// would after `coerce(v, kind)`.
    #[allow(clippy::too_many_arguments)]
    fn store_section(
        &mut self,
        b: u32,
        st: i64,
        kind: ScalarType,
        root: &VBuf,
        n: usize,
        scratch: &mut Scratch,
    ) {
        match (kind.is_float(), root) {
            (true, VBuf::F(v)) => self.store_f(b, st, kind, v, n),
            (true, VBuf::I(v)) => {
                let mut tmp = scratch.take_f(n);
                tmp.extend(v.iter().map(|&x| x as f64));
                self.store_f(b, st, kind, &tmp, n);
                scratch.f.push(tmp);
            }
            (false, VBuf::I(v)) => self.store_i(b, st, kind, v, n),
            (false, VBuf::F(v)) => {
                let mut tmp = scratch.take_i(n);
                tmp.extend(v.iter().map(|&x| x as i64));
                self.store_i(b, st, kind, &tmp, n);
                scratch.i.push(tmp);
            }
        }
    }

    fn store_f(&mut self, b: u32, st: i64, kind: ScalarType, vals: &[f64], n: usize) {
        let start = b as usize;
        let contiguous = st == kind.size();
        match kind {
            ScalarType::Float => {
                if contiguous {
                    for (ch, &v) in self.mem[start..start + n * 4].chunks_exact_mut(4).zip(vals) {
                        ch.copy_from_slice(&(v as f32).to_le_bytes());
                    }
                } else {
                    for (k, &v) in vals.iter().enumerate().take(n) {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        self.mem[i..i + 4].copy_from_slice(&(v as f32).to_le_bytes());
                    }
                }
            }
            _ => {
                if contiguous {
                    for (ch, &v) in self.mem[start..start + n * 8].chunks_exact_mut(8).zip(vals) {
                        ch.copy_from_slice(&v.to_le_bytes());
                    }
                } else {
                    for (k, &v) in vals.iter().enumerate().take(n) {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        self.mem[i..i + 8].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
    }

    fn store_i(&mut self, b: u32, st: i64, kind: ScalarType, vals: &[i64], n: usize) {
        let start = b as usize;
        let contiguous = st == kind.size();
        match kind {
            ScalarType::Char => {
                if contiguous {
                    for (m, &v) in self.mem[start..start + n].iter_mut().zip(vals) {
                        *m = v as u8;
                    }
                } else {
                    for (k, &v) in vals.iter().enumerate().take(n) {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        self.mem[i] = v as u8;
                    }
                }
            }
            // Int and Ptr both store the low 32 bits little-endian
            _ => {
                if contiguous {
                    for (ch, &v) in self.mem[start..start + n * 4].chunks_exact_mut(4).zip(vals) {
                        ch.copy_from_slice(&(v as i32).to_le_bytes());
                    }
                } else {
                    for (k, &v) in vals.iter().enumerate().take(n) {
                        let i = (b as i64 + k as i64 * st) as u32 as usize;
                        self.mem[i..i + 4].copy_from_slice(&(v as i32).to_le_bytes());
                    }
                }
            }
        }
    }

    /// Per-element fallback, bit-identical to the interpreter's element
    /// loop (same traversal, same checked memory ops, same error order).
    fn vec_slow(&mut self, regs: &[Value], plan: &VecPlan, len_v: i64) -> Result<(), SimError> {
        let mut results = Vec::with_capacity(len_v as usize);
        for k in 0..len_v {
            results.push(self.vec_elem(regs, plan, k)?);
        }
        self.vec_scatter(regs, plan, &results)
    }

    /// Element `k` of the plan's right-hand side, coerced to the store's
    /// kind, through checked memory reads.
    fn vec_elem(&mut self, regs: &[Value], plan: &VecPlan, k: i64) -> Result<Value, SimError> {
        let mut stack: Vec<Value> = Vec::with_capacity(4);
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
        Ok(coerce(stack.pop().expect("element result"), plan.kind))
    }

    /// Stores computed elements through checked memory writes.
    fn vec_scatter(
        &mut self,
        regs: &[Value],
        plan: &VecPlan,
        elems: &[Value],
    ) -> Result<(), SimError> {
        let base = regs[plan.base as usize].as_int() as u32;
        let stride = regs[plan.stride as usize].as_int();
        for (k, &v) in elems.iter().enumerate() {
            let addr = (base as i64 + k as i64 * stride) as u32;
            self.write_mem(addr, plan.kind, v)?;
        }
        Ok(())
    }
}

/// Reusable kernel buffers. Gather/compute/scatter cycles return every
/// buffer here, so steady-state vector execution allocates nothing —
/// important for strip-mined loops where each kernel is only a few dozen
/// elements.
#[derive(Default)]
pub(crate) struct Scratch {
    i: Vec<Vec<i64>>,
    f: Vec<Vec<f64>>,
    /// Resolved `(base, stride, type)` sections of the current statement.
    secs: Vec<(u32, i64, ScalarType)>,
    /// The kernel's operand stack.
    stack: Vec<VBuf>,
}

impl Scratch {
    fn take_i(&mut self, n: usize) -> Vec<i64> {
        let mut v = self.i.pop().unwrap_or_default();
        v.clear();
        v.reserve(n);
        v
    }

    fn take_f(&mut self, n: usize) -> Vec<f64> {
        let mut v = self.f.pop().unwrap_or_default();
        v.clear();
        v.reserve(n);
        v
    }

    fn give(&mut self, b: VBuf) {
        match b {
            VBuf::I(v) => self.i.push(v),
            VBuf::F(v) => self.f.push(v),
        }
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

/// Moves a buffer into the float domain (recycling an integer source).
fn to_f(b: VBuf, s: &mut Scratch) -> Vec<f64> {
    match b {
        VBuf::F(v) => v,
        VBuf::I(v) => {
            let mut o = s.take_f(v.len());
            o.extend(v.iter().map(|&x| x as f64));
            s.i.push(v);
            o
        }
    }
}

/// Moves a buffer into the integer domain (recycling a float source).
fn to_i(b: VBuf, s: &mut Scratch) -> Vec<i64> {
    match b {
        VBuf::I(v) => v,
        VBuf::F(v) => {
            let mut o = s.take_i(v.len());
            o.extend(v.iter().map(|&x| x as i64));
            s.f.push(v);
            o
        }
    }
}

/// Applies `normalize(Value::Int(x), ty)` element-wise.
fn norm_i(ty: ScalarType, v: &mut [i64]) {
    match ty {
        ScalarType::Char => {
            for x in v {
                *x = *x as i8 as i64;
            }
        }
        ScalarType::Int => {
            for x in v {
                *x = *x as i32 as i64;
            }
        }
        ScalarType::Ptr => {
            for x in v {
                *x = *x as u32 as i64;
            }
        }
        _ => {}
    }
}

/// Rounds every element through f32, as `normalize` does for `Float`.
fn norm_f(ty: ScalarType, v: &mut [f64]) {
    if ty == ScalarType::Float {
        for x in v {
            *x = *x as f32 as f64;
        }
    }
}

/// In-place element-wise float arithmetic; the closure is monomorphized
/// per call site so the loop compiles to straight vector code.
fn arith_f(
    mut x: Vec<f64>,
    y: Vec<f64>,
    ty: ScalarType,
    s: &mut Scratch,
    f: impl Fn(f64, f64) -> f64,
) -> VBuf {
    for (p, &q) in x.iter_mut().zip(&y) {
        *p = f(*p, q);
    }
    norm_f(ty, &mut x);
    s.f.push(y);
    VBuf::F(x)
}

/// Element-wise float comparison into a fresh integer buffer (raw 0/1,
/// as `eval_binop` returns for comparisons).
fn cmp_f(x: Vec<f64>, y: Vec<f64>, s: &mut Scratch, f: impl Fn(f64, f64) -> bool) -> VBuf {
    let mut o = s.take_i(x.len());
    o.extend(x.iter().zip(&y).map(|(&p, &q)| i64::from(f(p, q))));
    s.f.push(x);
    s.f.push(y);
    VBuf::I(o)
}

/// In-place element-wise integer arithmetic.
fn arith_i(
    mut x: Vec<i64>,
    y: Vec<i64>,
    ty: ScalarType,
    s: &mut Scratch,
    f: impl Fn(i64, i64) -> i64,
) -> VBuf {
    for (p, &q) in x.iter_mut().zip(&y) {
        *p = f(*p, q);
    }
    norm_i(ty, &mut x);
    s.i.push(y);
    VBuf::I(x)
}

/// Element-wise integer comparison (raw 0/1).
fn cmp_i(x: Vec<i64>, y: Vec<i64>, s: &mut Scratch, f: impl Fn(i64, i64) -> bool) -> VBuf {
    let mut o = s.take_i(x.len());
    o.extend(x.iter().zip(&y).map(|(&p, &q)| i64::from(f(p, q))));
    s.i.push(x);
    s.i.push(y);
    VBuf::I(o)
}

/// Element-wise `eval_unop`, in place where the domain allows.
fn vec_un(op: UnOp, ty: ScalarType, a: VBuf, s: &mut Scratch) -> VBuf {
    match op {
        UnOp::Neg if ty.is_float() => {
            let mut v = to_f(a, s);
            for x in &mut v {
                *x = -*x;
            }
            norm_f(ty, &mut v);
            VBuf::F(v)
        }
        UnOp::Neg => {
            let mut v = to_i(a, s);
            for x in &mut v {
                *x = x.wrapping_neg();
            }
            norm_i(ty, &mut v);
            VBuf::I(v)
        }
        UnOp::Not => match a {
            VBuf::I(mut v) => {
                for x in &mut v {
                    *x = i64::from(*x == 0);
                }
                VBuf::I(v)
            }
            VBuf::F(v) => {
                let mut o = s.take_i(v.len());
                o.extend(v.iter().map(|&x| i64::from(x == 0.0)));
                s.f.push(v);
                VBuf::I(o)
            }
        },
        UnOp::BitNot => {
            let mut v = to_i(a, s);
            for x in &mut v {
                *x = !*x;
            }
            norm_i(ty, &mut v);
            VBuf::I(v)
        }
    }
}

/// Element-wise `eval_cast` (which only looks at the target type).
fn vec_cast(to: ScalarType, a: VBuf, s: &mut Scratch) -> VBuf {
    if to.is_float() {
        let mut v = to_f(a, s);
        norm_f(to, &mut v);
        VBuf::F(v)
    } else {
        let mut v = to_i(a, s);
        norm_i(to, &mut v);
        VBuf::I(v)
    }
}

/// Element-wise `eval_binop` as tight single-domain loops.
fn vec_bin(op: BinOp, ty: ScalarType, a: VBuf, b: VBuf, s: &mut Scratch) -> Result<VBuf, SimError> {
    if ty.is_float() {
        let x = to_f(a, s);
        let y = to_f(b, s);
        Ok(match op {
            BinOp::Add => arith_f(x, y, ty, s, |p, q| p + q),
            BinOp::Sub => arith_f(x, y, ty, s, |p, q| p - q),
            BinOp::Mul => arith_f(x, y, ty, s, |p, q| p * q),
            BinOp::Div => arith_f(x, y, ty, s, |p, q| p / q),
            BinOp::Min => arith_f(x, y, ty, s, f64::min),
            BinOp::Max => arith_f(x, y, ty, s, f64::max),
            BinOp::Eq => cmp_f(x, y, s, |p, q| p == q),
            BinOp::Ne => cmp_f(x, y, s, |p, q| p != q),
            BinOp::Lt => cmp_f(x, y, s, |p, q| p < q),
            BinOp::Le => cmp_f(x, y, s, |p, q| p <= q),
            BinOp::Gt => cmp_f(x, y, s, |p, q| p > q),
            BinOp::Ge => cmp_f(x, y, s, |p, q| p >= q),
            // Rem/shift/bitwise on floats fold to None, which the
            // interpreter reports as a vector division by zero
            _ => return Err(SimError::new("division by zero in vector statement")),
        })
    } else {
        let mut x = to_i(a, s);
        let y = to_i(b, s);
        Ok(match op {
            BinOp::Add => arith_i(x, y, ty, s, i64::wrapping_add),
            BinOp::Sub => arith_i(x, y, ty, s, i64::wrapping_sub),
            BinOp::Mul => arith_i(x, y, ty, s, i64::wrapping_mul),
            BinOp::Div | BinOp::Rem => {
                for (p, &q) in x.iter_mut().zip(&y) {
                    if q == 0 {
                        return Err(SimError::new("division by zero in vector statement"));
                    }
                    *p = if matches!(op, BinOp::Div) {
                        p.wrapping_div(q)
                    } else {
                        p.wrapping_rem(q)
                    };
                }
                norm_i(ty, &mut x);
                s.i.push(y);
                VBuf::I(x)
            }
            BinOp::Eq => cmp_i(x, y, s, |p, q| p == q),
            BinOp::Ne => cmp_i(x, y, s, |p, q| p != q),
            BinOp::Lt => cmp_i(x, y, s, |p, q| p < q),
            BinOp::Le => cmp_i(x, y, s, |p, q| p <= q),
            BinOp::Gt => cmp_i(x, y, s, |p, q| p > q),
            BinOp::Ge => cmp_i(x, y, s, |p, q| p >= q),
            BinOp::BitAnd => arith_i(x, y, ty, s, |p, q| p & q),
            BinOp::BitOr => arith_i(x, y, ty, s, |p, q| p | q),
            BinOp::BitXor => arith_i(x, y, ty, s, |p, q| p ^ q),
            BinOp::Shl => arith_i(x, y, ty, s, |p, q| p.wrapping_shl((q & 31) as u32)),
            BinOp::Shr => arith_i(x, y, ty, s, |p, q| p.wrapping_shr((q & 31) as u32)),
            BinOp::Min => arith_i(x, y, ty, s, |p, q| p.min(q)),
            BinOp::Max => arith_i(x, y, ty, s, |p, q| p.max(q)),
        })
    }
}

/// The value a call delivers to a destination, which a `void` callee
/// cannot.
fn returned(ret: Option<Value>, callee: &str) -> Result<Value, SimError> {
    ret.ok_or_else(|| SimError::new(format!("procedure `{callee}` returned no value")))
}
