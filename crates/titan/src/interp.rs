//! The tree-walking IL interpreter: the reference executor.
//!
//! Executes an IL [`Program`](titanc_il::Program) statement by statement
//! on the shared machine (`machine.rs`: memory, frames, meter, charge
//! table, intrinsics), looking each operation's charge up as it evaluates
//! the node. It is the arbiter of IL semantics and the oracle the
//! bytecode VM — the engine everything runs on by default — is checked
//! against: same observations, same statistics, same traps.

use crate::machine::{
    binop_charge, cast_charge, coerce, collect_sections, count_vector_ops, do_control_charge,
    reg_move_charge, unop_charge, FrameLayout, Intrinsic, SimError, Simulator,
};
use std::rc::Rc;
use titanc_il::fold::{eval_binop, eval_cast, eval_unop, normalize, Value};
use titanc_il::{Expr, ExprId, LValue, LabelId, Procedure, ScalarType, StmtId, StmtKind, VarId};

enum Flow {
    Normal,
    Return(Option<Value>),
    Goto(LabelId),
}

/// One activation record: a register per variable (memory-resident ones
/// leave theirs unused) and where the frame template places the rest.
struct Frame {
    proc_index: usize,
    regs: Vec<Value>,
    layout: Rc<FrameLayout>,
    base: u32,
}

impl Frame {
    fn addr(&self, v: VarId) -> Option<u32> {
        self.layout.addr(v.index(), self.base)
    }
}

impl<'p> Simulator<'p> {
    /// The procedure a frame is executing. The reference lives for `'p`
    /// (the program borrow), independent of `&mut self`.
    fn cur_proc(&self, frame: &Frame) -> &'p Procedure {
        &self.prog.procs[frame.proc_index]
    }

    /// Interpreter entry point and the callee side of every call:
    /// intrinsics first, then procedures by name.
    pub(crate) fn interp_call(
        &mut self,
        name: &str,
        args: &[Value],
    ) -> Result<Option<Value>, SimError> {
        if let Some(which) = Intrinsic::by_name(name) {
            return self.intrinsic(which, name, args);
        }
        let (idx, proc) = self
            .proc_by_name(name)
            .ok_or_else(|| SimError::new(format!("undefined procedure `{name}`")))?;
        if proc.params.len() != args.len() {
            return Err(SimError::new(format!(
                "procedure `{name}` expects {} arguments, got {}",
                proc.params.len(),
                args.len()
            )));
        }
        let saved_sp = self.sp;
        let (layout, base) = self.enter_frame(idx)?;
        let mut frame = Frame {
            proc_index: idx,
            regs: vec![Value::Int(0); proc.vars.len()],
            layout,
            base,
        };
        // arguments bind uncharged, like register passing on the real
        // machine
        for (&pv, &arg) in proc.params.iter().zip(args) {
            let kind = proc.var_scalar(pv);
            let v = coerce(arg, kind);
            match frame.addr(pv) {
                Some(addr) => self.write_mem(addr, kind, v)?,
                None => frame.regs[pv.index()] = v,
            }
        }

        let flow = self.exec_block(&mut frame, &proc.body)?;
        self.leave_frame(saved_sp);
        match flow {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(None),
            Flow::Goto(l) => Err(SimError::new(format!(
                "goto {l} escaped procedure `{name}` (label not found)"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // statement execution
    // ------------------------------------------------------------------

    fn exec_block(&mut self, frame: &mut Frame, block: &[StmtId]) -> Result<Flow, SimError> {
        let mut i = 0usize;
        while i < block.len() {
            let flow = self.exec_stmt(frame, block[i])?;
            match flow {
                Flow::Normal => i += 1,
                Flow::Return(v) => return Ok(Flow::Return(v)),
                Flow::Goto(l) => {
                    // resume at a top-level label of this block, else
                    // propagate outward
                    let stmts = &self.cur_proc(frame).stmts;
                    match block
                        .iter()
                        .position(|&s| matches!(stmts[s], StmtKind::Label(m) if m == l))
                    {
                        Some(pos) => i = pos + 1,
                        None => return Ok(Flow::Goto(l)),
                    }
                }
            }
        }
        Ok(Flow::Normal)
    }

    #[allow(clippy::too_many_lines)]
    fn exec_stmt(&mut self, frame: &mut Frame, s: StmtId) -> Result<Flow, SimError> {
        self.step_guard()?;
        let proc = self.cur_proc(frame);
        match &proc.stmts[s] {
            StmtKind::Nop | StmtKind::Label(_) => Ok(Flow::Normal),
            StmtKind::Assign { lhs, rhs } => {
                if matches!(lhs, LValue::Section { .. })
                    || proc.exprs.any(*rhs, |n| matches!(n, Expr::Section { .. }))
                {
                    self.exec_vector_assign(frame, lhs, *rhs)?;
                    return Ok(Flow::Normal);
                }
                let v = self.eval(frame, *rhs)?;
                self.assign(frame, lhs, v)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.eval(frame, *cond)?;
                self.flush_branch();
                if c.is_truthy() {
                    self.exec_block(frame, then_blk)
                } else {
                    self.exec_block(frame, else_blk)
                }
            }
            StmtKind::While { cond, body, .. } => loop {
                self.step_guard()?;
                let c = self.eval(frame, *cond)?;
                self.flush_branch();
                if !c.is_truthy() {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(frame, body)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            },
            StmtKind::WhileSpread {
                cond,
                parallel,
                serial,
            } => {
                // §10 list spreading: the parallel work of each iteration
                // is divided across processors; the condition and the
                // pointer chase stay serial. One fork/join for the loop.
                self.spread_enter();
                loop {
                    self.step_guard()?;
                    let c = self.eval(frame, *cond)?;
                    self.flush_branch();
                    if !c.is_truthy() {
                        return Ok(Flow::Normal);
                    }
                    let before = self.stats.cycles;
                    match self.exec_block(frame, parallel)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                    self.spread_exit(before);
                    match self.exec_block(frame, serial)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
            }
            StmtKind::DoLoop {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => self.exec_do(frame, *var, *lo, *hi, *step, body),
            StmtKind::DoParallel {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let before = self.par_enter();
                let flow = self.exec_do(frame, *var, *lo, *hi, *step, body)?;
                self.par_exit(before);
                Ok(flow)
            }
            StmtKind::Goto(l) => {
                self.flush_branch();
                Ok(Flow::Goto(*l))
            }
            StmtKind::IfGoto { cond, target } => {
                let c = self.eval(frame, *cond)?;
                self.flush_branch();
                if c.is_truthy() {
                    Ok(Flow::Goto(*target))
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::Call { dst, callee, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for &a in args {
                    vals.push(self.eval(frame, a)?);
                }
                self.flush(0);
                let ret = self.interp_call(callee, &vals)?;
                if let Some(d) = dst {
                    let v = ret.ok_or_else(|| {
                        SimError::new(format!("procedure `{callee}` returned no value"))
                    })?;
                    self.assign(frame, d, v)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(v) => {
                let value = match v {
                    None => None,
                    Some(e) => Some(self.eval(frame, *e)?),
                };
                self.flush_branch();
                Ok(Flow::Return(value))
            }
        }
    }

    fn exec_do(
        &mut self,
        frame: &mut Frame,
        var: VarId,
        lo: ExprId,
        hi: ExprId,
        step: ExprId,
        body: &'p [StmtId],
    ) -> Result<Flow, SimError> {
        let proc = self.cur_proc(frame);
        let kind = proc.var_scalar(var);
        let lo_v = self.eval(frame, lo)?.as_int();
        let hi_v = self.eval(frame, hi)?.as_int();
        let step_v = self.eval(frame, step)?.as_int();
        if step_v == 0 {
            return Err(SimError::new("DO loop with zero step"));
        }
        let mut iv = lo_v;
        loop {
            self.step_guard()?;
            let cont = if step_v > 0 { iv <= hi_v } else { iv >= hi_v };
            self.charge(do_control_charge());
            self.flush_branch();
            if !cont {
                break;
            }
            self.store_var(frame, var, coerce(Value::Int(iv), kind))?;
            match self.exec_block(frame, body)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
            iv = iv.wrapping_add(step_v);
        }
        Ok(Flow::Normal)
    }

    // ------------------------------------------------------------------
    // vector execution
    // ------------------------------------------------------------------

    /// Executes a vector (triplet-section) assignment, charging the vector
    /// unit's cost model: one instruction per vector load, per FP/int
    /// vector operation, and per vector store; each instruction costs
    /// `startup + len`.
    fn exec_vector_assign(
        &mut self,
        frame: &mut Frame,
        lhs: &LValue,
        rhs: ExprId,
    ) -> Result<(), SimError> {
        let exprs = &self.cur_proc(frame).exprs;
        let (base, len, stride, kind) = match lhs {
            LValue::Section {
                base,
                len,
                stride,
                ty,
            } => (*base, *len, *stride, *ty),
            _ => {
                return Err(SimError::new(
                    "vector expression assigned to a scalar target",
                ))
            }
        };
        let base_v = self.eval(frame, base)?.as_int() as u32;
        let len_v = self.eval(frame, len)?.as_int();
        let stride_v = self.eval(frame, stride)?.as_int();
        if len_v < 0 {
            return Err(SimError::new("negative vector length"));
        }
        let len_u = len_v as u64;

        // Pre-evaluate every section operand in the rhs (base/stride), and
        // count vector instructions.
        let mut sections = Vec::new();
        collect_sections(exprs, rhs, &mut sections);
        let mut resolved = Vec::new();
        for &sec in &sections {
            if let Expr::Section {
                base,
                len,
                stride,
                ty,
            } = exprs[sec]
            {
                let b = self.eval(frame, base)?.as_int() as u32;
                let l = self.eval(frame, len)?.as_int();
                let st = self.eval(frame, stride)?.as_int();
                if l != len_v {
                    return Err(SimError::new(format!(
                        "vector length mismatch: {l} vs {len_v}"
                    )));
                }
                resolved.push((b, st, ty));
            }
        }
        let ops = count_vector_ops(exprs, rhs);
        let n_instr = sections.len() as u64 + ops + 1; // loads + ops + store
        self.charge_vector(n_instr, ops, len_u, kind.is_float());

        // Element-wise semantics (vector stores complete after all loads of
        // the statement — IL vector statements are only emitted for proven
        // independent accesses, so gather-then-scatter order is safe).
        let mut results = Vec::with_capacity(len_u as usize);
        for k in 0..len_v {
            let mut idx = 0usize;
            let v = self.eval_vector_elem(frame, rhs, k, &resolved, &mut idx)?;
            results.push(coerce(v, kind));
        }
        for (k, v) in results.into_iter().enumerate() {
            let addr = (base_v as i64 + k as i64 * stride_v) as u32;
            self.write_mem(addr, kind, v)?;
        }
        Ok(())
    }

    /// Evaluates the rhs of a vector statement for element `k`; `resolved`
    /// holds pre-evaluated (base, stride, ty) per section in traversal
    /// order.
    fn eval_vector_elem(
        &mut self,
        frame: &mut Frame,
        e: ExprId,
        k: i64,
        resolved: &[(u32, i64, ScalarType)],
        idx: &mut usize,
    ) -> Result<Value, SimError> {
        match self.cur_proc(frame).exprs[e] {
            Expr::Section { .. } => {
                let (b, st, ty) = resolved[*idx];
                *idx += 1;
                let addr = (b as i64 + k * st) as u32;
                self.read_mem(addr, ty)
            }
            Expr::Binary { op, ty, lhs, rhs } => {
                let a = self.eval_vector_elem(frame, lhs, k, resolved, idx)?;
                let b = self.eval_vector_elem(frame, rhs, k, resolved, idx)?;
                eval_binop(op, ty, a, b)
                    .ok_or_else(|| SimError::new("division by zero in vector statement"))
            }
            Expr::Unary { op, ty, arg } => {
                let a = self.eval_vector_elem(frame, arg, k, resolved, idx)?;
                Ok(eval_unop(op, ty, a))
            }
            Expr::Cast { to, from, arg } => {
                let a = self.eval_vector_elem(frame, arg, k, resolved, idx)?;
                Ok(eval_cast(to, from, a))
            }
            // scalar (loop-invariant) operand: evaluate without charging
            // per-element cost — it is held in a register
            _ => self.eval_quiet(frame, e),
        }
    }

    // ------------------------------------------------------------------
    // expression evaluation
    // ------------------------------------------------------------------

    fn eval(&mut self, frame: &mut Frame, e: ExprId) -> Result<Value, SimError> {
        match self.cur_proc(frame).exprs[e] {
            Expr::IntConst(v) => Ok(Value::Int(v)),
            Expr::FloatConst(f, ty) => Ok(normalize(Value::Float(f), ty)),
            Expr::Var(v) => self.load_var(frame, v),
            Expr::AddrOf(v) => {
                self.charge(reg_move_charge());
                let addr = frame.addr(v).ok_or_else(|| {
                    SimError::new(format!(
                        "address taken of register variable {} (not memory-resident)",
                        self.prog.procs[frame.proc_index].var(v).name
                    ))
                })?;
                Ok(Value::Int(addr as i64))
            }
            Expr::Load { addr, ty, volatile } => {
                let a = self.eval(frame, addr)?.as_int() as u32;
                self.load(a, ty, volatile)
            }
            Expr::Unary { op, ty, arg } => {
                let a = self.eval(frame, arg)?;
                self.charge(unop_charge(op, ty));
                Ok(eval_unop(op, ty, a))
            }
            Expr::Binary { op, ty, lhs, rhs } => {
                let a = self.eval(frame, lhs)?;
                let b = self.eval(frame, rhs)?;
                self.charge(binop_charge(op, ty));
                eval_binop(op, ty, a, b).ok_or_else(|| SimError::new("division by zero"))
            }
            Expr::Cast { to, from, arg } => {
                let a = self.eval(frame, arg)?;
                self.charge(cast_charge(to, from));
                Ok(eval_cast(to, from, a))
            }
            Expr::Section { .. } => Err(SimError::new(
                "vector section used outside a vector statement",
            )),
        }
    }

    /// Evaluates without charging costs (used for loop-invariant scalar
    /// operands of vector statements, already in registers).
    fn eval_quiet(&mut self, frame: &mut Frame, e: ExprId) -> Result<Value, SimError> {
        let saved = self.quiet_save();
        let v = self.eval(frame, e)?;
        self.quiet_restore(saved);
        Ok(v)
    }

    fn load_var(&mut self, frame: &mut Frame, v: VarId) -> Result<Value, SimError> {
        match frame.addr(v) {
            Some(addr) => self.load(addr, self.cur_proc(frame).var_scalar(v), false),
            None => Ok(frame.regs[v.index()]),
        }
    }

    fn store_var(&mut self, frame: &mut Frame, v: VarId, value: Value) -> Result<(), SimError> {
        let kind = self.cur_proc(frame).var_scalar(v);
        match frame.addr(v) {
            Some(addr) => self.store(addr, kind, value),
            None => {
                self.charge(reg_move_charge());
                frame.regs[v.index()] = coerce(value, kind);
                Ok(())
            }
        }
    }

    fn assign(&mut self, frame: &mut Frame, lhs: &LValue, value: Value) -> Result<(), SimError> {
        match lhs {
            LValue::Var(v) => self.store_var(frame, *v, value),
            LValue::Deref { addr, ty, .. } => {
                let a = self.eval(frame, *addr)?.as_int() as u32;
                self.store(a, *ty, value)
            }
            LValue::Section { .. } => {
                Err(SimError::new("scalar value assigned to a vector section"))
            }
        }
    }
}
