//! One-pass lowering of final IL to register bytecode.
//!
//! Each procedure becomes a flat `Vec<Slot>` over a register file whose
//! first `proc.vars.len()` slots are the procedure's register-resident
//! variables and whose remaining slots are expression temporaries and
//! constants, all laid out in a per-procedure *frame template* a call
//! copies in one go. Control flow is explicit jumps; the structured
//! `do`/`while`/spread constructs compile to the exact sequence of
//! statement steps, charges and flushes the tree-walking interpreter
//! performs, so cycle totals are byte-for-byte identical between engines.
//!
//! Charges come from the machine's charge table and are *baked into the
//! instruction* here, once, instead of being looked up per execution.
//! Because charges between two flush points commute (see `machine.rs`),
//! the lowerer is free to fuse: a statement's step rides on its first
//! instruction, constants are registers, an operator writes a register
//! variable directly, and a condition branches in the instruction that
//! computes it. What it may not do is reorder two flushes or move a
//! trap-capable operation across a counter the trap would expose.
//!
//! Vector statements compile to a [`VecPlan`]: operand registers plus a
//! postorder [`VStep`] program, marked here, once, when it is float
//! arithmetic the VM may run as a columnar kernel (see `vm.rs`). A
//! statement whose loop-invariant scalar operands contain a volatile load
//! runs element by element instead, so the device script advances once
//! per element.

use crate::machine::{
    binop_charge, cast_charge, collect_sections, count_vector_ops, unop_charge, vector_instrs,
    Charge, Intrinsic, Unit,
};
use titanc_il::fold::{normalize, Value};
use titanc_il::{
    BinOp, Expr, ExprId, ExprPool, LValue, LabelId, Procedure, Program, ScalarType, StmtId,
    StmtKind, UnOp, VarId,
};

/// Register index into the activation's register file.
pub(crate) type Reg = u32;

/// Sentinel for "no register" (e.g. a value-less `return`).
pub(crate) const NO_REG: Reg = u32::MAX;

/// An instruction and the number of statements that begin at it: the VM
/// counts those steps (and checks the step limit) before executing `ins`.
/// More than one only when the extra statements lower to nothing (`Nop`,
/// labels), so stopping at the limit mid-count loses no effect.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    pub(crate) steps: u8,
    pub(crate) ins: Instr,
}

/// One bytecode instruction. Value-producing instructions carry a `sink`:
/// `Some(ty)` means `dst` is a register *variable* being assigned, so the
/// value is coerced to `ty` and the register write is charged, as the
/// interpreter's `store_var` does after evaluating the right-hand side.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Instr {
    /// Carries the steps of statements that lower to no instruction.
    Nop,
    /// `flush(BRANCH)`.
    FlushBranch,
    /// Load a memory-resident variable (charges a scalar load).
    LoadVar {
        dst: Reg,
        var: u32,
        ty: ScalarType,
        sink: Option<ScalarType>,
    },
    /// Store to a memory-resident variable (charges a scalar store).
    StoreVar { var: u32, ty: ScalarType, src: Reg },
    /// Assign a register variable from a register (charges the write).
    SetVar { var: Reg, ty: ScalarType, src: Reg },
    /// Address of a memory-resident variable (charges one int ALU op).
    AddrOf {
        dst: Reg,
        var: u32,
        sink: Option<ScalarType>,
    },
    /// Load through a pointer register (charges a scalar load; volatile
    /// loads pop the volatile script first).
    Load {
        dst: Reg,
        addr: Reg,
        ty: ScalarType,
        volatile: bool,
        sink: Option<ScalarType>,
    },
    /// Store through a pointer register (charges a scalar store).
    Store { addr: Reg, ty: ScalarType, src: Reg },
    /// Unary ALU op.
    Un {
        dst: Reg,
        op: UnOp,
        ty: ScalarType,
        src: Reg,
        charge: Charge,
        sink: Option<ScalarType>,
    },
    /// Binary ALU op; traps on division by zero.
    Bin {
        dst: Reg,
        op: BinOp,
        ty: ScalarType,
        a: Reg,
        b: Reg,
        charge: Charge,
        sink: Option<ScalarType>,
    },
    /// Scalar conversion.
    Cast {
        dst: Reg,
        to: ScalarType,
        from: ScalarType,
        src: Reg,
        charge: Charge,
        sink: Option<ScalarType>,
    },
    /// Unconditional jump (cost-free).
    Jump { target: u32 },
    /// Cost-free jump when `regs[cond]` is falsy.
    JumpIfZero { cond: Reg, target: u32 },
    /// Conditional branch of `if`/`while`: `flush(BRANCH)`, then
    /// jump when `regs[cond]` is falsy.
    Br { cond: Reg, target: u32 },
    /// [`Instr::Bin`] + [`Instr::Br`] on its result: a condition that is
    /// a binary operator branches in the instruction that computes it.
    BrBin {
        op: BinOp,
        ty: ScalarType,
        a: Reg,
        b: Reg,
        charge: Charge,
        target: u32,
    },
    /// DO-loop entry: latch lo/hi/step (as ints) into loop registers;
    /// errors on a zero step.
    DoEnter {
        iv: Reg,
        hi: Reg,
        step: Reg,
        lo_src: Reg,
        hi_src: Reg,
        step_src: Reg,
    },
    /// DO-loop trip test: loop-control charge, `flush(branch)`, exit when
    /// the test fails; otherwise assign the loop variable when it is the
    /// register `var` (a memory-resident one is stored by the `StoreVar`
    /// that follows, `var == NO_REG`).
    DoHead {
        iv: Reg,
        hi: Reg,
        step: Reg,
        exit: u32,
        var: Reg,
        ty: ScalarType,
    },
    /// DO-loop back edge: `iv += step`, jump to the trip test at `head`.
    DoNext { iv: Reg, step: Reg, head: u32 },
    /// `do parallel` entry: flush(0) then snapshot cycles.
    ParEnter { slot: u32 },
    /// `do parallel` exit: flush(0), divide the region's cycles by the
    /// processor count, add fork/join overhead.
    ParExit { slot: u32 },
    /// Spread-loop entry: flush(0) and the loop's one fork/join.
    SpreadLoop,
    /// Spread-loop iteration entry: snapshot cycles (no flush — the
    /// preceding condition flush already drained the bucket).
    SpreadEnter { slot: u32 },
    /// Spread-loop iteration exit: flush(0) then divide.
    SpreadExit { slot: u32 },
    /// Save the meter (loop-invariant scalar operand evaluation in vector
    /// statements is cost-free).
    QuietSave,
    /// Restore the meter.
    QuietRestore,
    /// `flush(0)`, then call via `calls[data]`.
    Call { data: u32 },
    /// Return `regs[src]` (or nothing when `src == NO_REG`), after
    /// `flush(BRANCH)` when `flush` is set (a `return` statement,
    /// as opposed to falling off the end of the body).
    Ret { src: Reg, flush: bool },
    /// Vector statement: check `len >= 0`.
    VecCheckLen { plan: u32 },
    /// Vector statement: check section `idx`'s length matches the store's.
    VecCheckSec { plan: u32, idx: u32 },
    /// Execute a vector plan (charges the vector cost model).
    VecRun { plan: u32 },
    /// Element-by-element execution: charge the vector cost model.
    VecCharge { plan: u32 },
    /// Element-by-element execution: compute element `regs[k]`.
    VecElem { plan: u32, k: Reg },
    /// Element-by-element execution: store the computed elements.
    VecScatter { plan: u32 },
    /// Raise `traps[msg]` as a `SimError`.
    Trap { msg: u32 },
}

/// How a static call site resolves.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Callee {
    /// Index into `Program::procs`.
    Proc(u32),
    /// A `print_*`/math intrinsic.
    Intrinsic(Intrinsic),
    /// No such procedure — errors if executed.
    Unknown,
}

/// Side-table entry for a `Call` instruction.
#[derive(Clone, Debug)]
pub(crate) struct CallData {
    pub(crate) callee: Callee,
    pub(crate) name: String,
    pub(crate) args: Vec<Reg>,
    /// Destination register, `NO_REG` when the result is discarded.
    pub(crate) dst: Reg,
}

/// A resolved rhs section operand of a vector plan.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SecRef {
    pub(crate) base: Reg,
    pub(crate) len: Reg,
    pub(crate) stride: Reg,
    pub(crate) ty: ScalarType,
    /// The address of the vector register the read is kept in, if any.
    pub(crate) keep: Option<Reg>,
}

/// One postorder step of a vector rhs program.
#[derive(Clone, Copy, Debug)]
pub(crate) enum VStep {
    /// Push section `idx` (a strided vector load).
    Sec(u32),
    /// Push a loop-invariant scalar held in a register, splatted.
    Splat(Reg),
    /// Apply a unary op element-wise.
    Un { op: UnOp, ty: ScalarType },
    /// Apply a binary op element-wise (pops rhs then lhs).
    Bin { op: BinOp, ty: ScalarType },
    /// Convert element-wise.
    Cast { to: ScalarType, from: ScalarType },
}

/// Side-table entry for one vector assignment.
#[derive(Clone, Debug)]
pub(crate) struct VecPlan {
    /// Store base/len/stride operand registers.
    pub(crate) base: Reg,
    pub(crate) len: Reg,
    pub(crate) stride: Reg,
    /// Element type of the store.
    pub(crate) kind: ScalarType,
    pub(crate) sections: Vec<SecRef>,
    pub(crate) steps: Vec<VStep>,
    /// Vector ALU op count (for flop accounting).
    pub(crate) ops: u64,
    /// Total vector instructions (`machine::vector_instrs`).
    pub(crate) n_instr: u64,
    /// True when the plan may run on the VM's float kernel (see
    /// `vm::kernel_admits`).
    pub(crate) kernel: bool,
}

/// Bytecode for one procedure.
#[derive(Debug)]
pub(crate) struct BcProc {
    pub(crate) code: Vec<Slot>,
    /// The frame template's register file: variables and temporaries
    /// zeroed, constants in place. A call copies it.
    pub(crate) frame: Vec<Value>,
    /// Parameter variables and their kinds, in argument order.
    pub(crate) params: Vec<(u32, ScalarType)>,
    /// Cycle-snapshot slots used by parallel/spread regions.
    pub(crate) num_snaps: u32,
    pub(crate) calls: Vec<CallData>,
    pub(crate) plans: Vec<VecPlan>,
    pub(crate) traps: Vec<String>,
}

/// Bytecode for a whole program, indexed like `Program::procs`.
#[derive(Debug)]
pub(crate) struct BcProgram {
    pub(crate) procs: Vec<BcProc>,
}

/// Compiles every procedure of `prog` to bytecode, baking the charge
/// table in.
pub(crate) fn compile(prog: &Program) -> BcProgram {
    BcProgram {
        procs: prog.procs.iter().map(|p| lower_proc(prog, p)).collect(),
    }
}

/// The charge of bookkeeping arithmetic the lowerer adds itself (the
/// element counter of an element-by-element vector statement).
const FREE: Charge = Charge {
    unit: Unit::Int,
    cycles: 0,
    flop: false,
};

/// Cost-accounting region a block executes under, for goto/return
/// unwinding: leaving a `Par` region must still divide its cycles.
#[derive(Clone, Copy, Debug)]
enum Region {
    /// Plain serial code.
    None,
    /// Body of a `do parallel` — exiting runs `ParExit { slot }`.
    Par(u32),
    /// Parallel arm of a spread loop — interp propagates the escape
    /// without dividing, so exiting emits nothing.
    Discard,
}

/// Lexical block context: its top-level labels (first occurrence wins,
/// like the interpreter's `position()` scan) and its region.
struct BlockCtx {
    labels: Vec<(LabelId, u32)>,
    region: Region,
}

/// An expression result: a register, and whether it is a temporary the
/// lowerer owns (variable and constant registers are referenced in place).
#[derive(Clone, Copy)]
struct Operand {
    reg: Reg,
    temp: bool,
}

struct Lowerer<'a> {
    prog: &'a Program,
    proc: &'a Procedure,
    mem_var: Vec<bool>,
    code: Vec<Slot>,
    /// Steps of statements begun since the last emitted instruction.
    pending_steps: u8,
    /// Constant registers allocated so far, with their values.
    consts: Vec<(Reg, Value)>,
    calls: Vec<CallData>,
    plans: Vec<VecPlan>,
    traps: Vec<String>,
    blocks: Vec<BlockCtx>,
    /// One cell per (block, label); position set when the label lowers.
    label_cells: Vec<Option<u32>>,
    /// (pc, cell) jump fixups resolved after the whole body lowers.
    label_fixups: Vec<(usize, u32)>,
    next_reg: u32,
    free_regs: Vec<Reg>,
    num_snaps: u32,
}

fn lower_proc(prog: &Program, proc: &Procedure) -> BcProc {
    let nvars = proc.vars.len() as u32;
    let mut lw = Lowerer {
        prog,
        proc,
        mem_var: proc
            .vars
            .iter()
            .map(|v| !v.is_register_candidate())
            .collect(),
        code: Vec::new(),
        pending_steps: 0,
        consts: Vec::new(),
        calls: Vec::new(),
        plans: Vec::new(),
        traps: Vec::new(),
        blocks: Vec::new(),
        label_cells: Vec::new(),
        label_fixups: Vec::new(),
        next_reg: nvars,
        free_regs: Vec::new(),
        num_snaps: 0,
    };
    lw.lower_block(&proc.body, Region::None);
    lw.emit(Instr::Ret {
        src: NO_REG,
        flush: false,
    });
    let fixups = std::mem::take(&mut lw.label_fixups);
    for (pc, cell) in fixups {
        let target = lw.label_cells[cell as usize].expect("label lowered with its block");
        lw.patch(pc, target);
    }
    let mut frame = vec![Value::Int(0); lw.next_reg as usize];
    for &(r, v) in &lw.consts {
        frame[r as usize] = v;
    }
    BcProc {
        code: lw.code,
        frame,
        params: proc
            .params
            .iter()
            .map(|&p| (p.index() as u32, proc.var_scalar(p)))
            .collect(),
        num_snaps: lw.num_snaps,
        calls: lw.calls,
        plans: lw.plans,
        traps: lw.traps,
    }
}

impl<'a> Lowerer<'a> {
    fn exprs(&self) -> &'a ExprPool {
        &self.proc.exprs
    }

    fn alloc_reg(&mut self) -> Reg {
        if let Some(r) = self.free_regs.pop() {
            return r;
        }
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn free_reg(&mut self, r: Reg) {
        self.free_regs.push(r);
    }

    fn free(&mut self, o: Operand) {
        if o.temp {
            self.free_regs.push(o.reg);
        }
    }

    /// The register holding constant `val`: a slot of the frame template
    /// no instruction writes, so a constant operand costs no instruction.
    fn const_reg(&mut self, val: Value) -> Operand {
        let same = |a: Value, b: Value| match (a, b) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        };
        let reg = match self.consts.iter().find(|&&(_, v)| same(v, val)) {
            Some(&(r, _)) => r,
            None => {
                let r = self.next_reg;
                self.next_reg += 1;
                self.consts.push((r, val));
                r
            }
        };
        Operand { reg, temp: false }
    }

    /// Counts one statement; the step rides on the next instruction.
    fn step(&mut self) {
        if self.pending_steps == u8::MAX {
            self.emit(Instr::Nop);
        }
        self.pending_steps += 1;
    }

    fn emit(&mut self, ins: Instr) {
        let steps = std::mem::take(&mut self.pending_steps);
        self.code.push(Slot { steps, ins });
    }

    /// The next instruction's pc, as a jump target: pending steps belong
    /// to the fall-through path only, so they are flushed first.
    fn here(&mut self) -> u32 {
        if self.pending_steps > 0 {
            self.emit(Instr::Nop);
        }
        self.code.len() as u32
    }

    /// Emits a placeholder jump-class instruction, returning its pc for
    /// later patching.
    fn emit_pending(&mut self, i: Instr) -> usize {
        let pc = self.code.len();
        self.emit(i);
        pc
    }

    fn patch(&mut self, pc: usize, t: u32) {
        match &mut self.code[pc].ins {
            Instr::Jump { target }
            | Instr::JumpIfZero { target, .. }
            | Instr::Br { target, .. }
            | Instr::BrBin { target, .. } => *target = t,
            Instr::DoHead { exit, .. } => *exit = t,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn trap(&mut self, msg: String) {
        let idx = self.traps.len() as u32;
        self.traps.push(msg);
        self.emit(Instr::Trap { msg: idx });
    }

    // --------------------------------------------------------------
    // blocks and statements
    // --------------------------------------------------------------

    fn lower_block(&mut self, block: &[StmtId], region: Region) {
        let mut labels = Vec::new();
        for &s in block {
            if let StmtKind::Label(l) = self.proc.stmts[s] {
                if !labels.iter().any(|&(m, _)| m == l) {
                    let cell = self.label_cells.len() as u32;
                    self.label_cells.push(None);
                    labels.push((l, cell));
                }
            }
        }
        self.blocks.push(BlockCtx { labels, region });
        for &s in block {
            self.lower_stmt(s);
        }
        self.blocks.pop();
    }

    #[allow(clippy::too_many_lines)]
    fn lower_stmt(&mut self, s: StmtId) {
        self.step();
        match &self.proc.stmts[s] {
            StmtKind::Nop => {}
            StmtKind::Label(l) => {
                // a goto resumes *after* the label statement, past its step
                let here = self.here();
                let ctx = self.blocks.last().expect("in a block");
                if let Some(&(_, cell)) = ctx.labels.iter().find(|&&(m, _)| m == *l) {
                    let slot = &mut self.label_cells[cell as usize];
                    // first occurrence wins, matching the interpreter's
                    // forward scan
                    if slot.is_none() {
                        *slot = Some(here);
                    }
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                if matches!(lhs, LValue::Section { .. })
                    || self
                        .exprs()
                        .any(*rhs, |n| matches!(n, Expr::Section { .. }))
                {
                    self.lower_vector_assign(lhs, *rhs);
                } else {
                    match *lhs {
                        LValue::Var(v) if !self.mem_var[v.index()] => {
                            self.lower_assign_reg(v, *rhs)
                        }
                        // rhs is evaluated before the destination address
                        _ => {
                            let v = self.lower_expr(*rhs);
                            self.lower_store(lhs, v.reg);
                            self.free(v);
                        }
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let br = self.lower_branch(*cond);
                self.lower_block(then_blk, Region::None);
                if else_blk.is_empty() {
                    let t = self.here();
                    self.patch(br, t);
                } else {
                    let jend = self.emit_pending(Instr::Jump { target: 0 });
                    let t = self.here();
                    self.patch(br, t);
                    self.lower_block(else_blk, Region::None);
                    let end = self.here();
                    self.patch(jend, end);
                }
            }
            StmtKind::While { cond, body, .. } => {
                let head = self.here();
                self.step();
                let br = self.lower_branch(*cond);
                self.lower_block(body, Region::None);
                self.emit(Instr::Jump { target: head });
                let exit = self.here();
                self.patch(br, exit);
            }
            StmtKind::WhileSpread {
                cond,
                parallel,
                serial,
            } => {
                self.emit(Instr::SpreadLoop);
                let head = self.here();
                self.step();
                let br = self.lower_branch(*cond);
                let slot = self.num_snaps;
                self.num_snaps += 1;
                self.emit(Instr::SpreadEnter { slot });
                self.lower_block(parallel, Region::Discard);
                self.emit(Instr::SpreadExit { slot });
                self.lower_block(serial, Region::None);
                self.emit(Instr::Jump { target: head });
                let exit = self.here();
                self.patch(br, exit);
            }
            StmtKind::DoLoop {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => self.lower_do(*var, *lo, *hi, *step, body, Region::None),
            StmtKind::DoParallel {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let slot = self.num_snaps;
                self.num_snaps += 1;
                self.emit(Instr::ParEnter { slot });
                self.lower_do(*var, *lo, *hi, *step, body, Region::Par(slot));
                self.emit(Instr::ParExit { slot });
            }
            StmtKind::Goto(l) => {
                self.emit(Instr::FlushBranch);
                self.lower_goto(*l);
            }
            StmtKind::IfGoto { cond, target } => {
                let br = self.lower_branch(*cond);
                self.lower_goto(*target);
                let t = self.here();
                self.patch(br, t);
            }
            StmtKind::Call { dst, callee, args } => {
                let arg_ops: Vec<Operand> = args.iter().map(|&a| self.lower_expr(a)).collect();
                let dst_reg = if dst.is_some() {
                    self.alloc_reg()
                } else {
                    NO_REG
                };
                let callee_k = if let Some(which) = Intrinsic::by_name(callee) {
                    Callee::Intrinsic(which)
                } else if let Some(i) = self.prog.procs.iter().position(|p| p.name == *callee) {
                    Callee::Proc(i as u32)
                } else {
                    Callee::Unknown
                };
                let data = self.calls.len() as u32;
                self.calls.push(CallData {
                    callee: callee_k,
                    name: callee.clone(),
                    args: arg_ops.iter().map(|o| o.reg).collect(),
                    dst: dst_reg,
                });
                self.emit(Instr::Call { data });
                for o in arg_ops {
                    self.free(o);
                }
                if let Some(d) = dst {
                    // a destination address is evaluated after the call
                    // returns
                    self.lower_store(d, dst_reg);
                    self.free_reg(dst_reg);
                }
            }
            StmtKind::Return(v) => {
                let src = match v {
                    None => NO_REG,
                    Some(e) => {
                        let o = self.lower_expr(*e);
                        self.free(o);
                        o.reg
                    }
                };
                let exits = self.par_exits(0);
                if !exits.is_empty() {
                    self.emit(Instr::FlushBranch);
                    for &slot in &exits {
                        self.emit(Instr::ParExit { slot });
                    }
                }
                self.emit(Instr::Ret {
                    src,
                    flush: exits.is_empty(),
                });
            }
        }
    }

    /// The `do parallel` regions of blocks `from..`, innermost first: the
    /// exits a jump out of those blocks must run.
    fn par_exits(&self, from: usize) -> Vec<u32> {
        self.blocks[from..]
            .iter()
            .rev()
            .filter_map(|c| match c.region {
                Region::Par(slot) => Some(slot),
                _ => None,
            })
            .collect()
    }

    /// Resolves a goto against the lexical block stack (innermost block
    /// with a matching top-level label wins, like the interpreter's
    /// dynamic unwinding), emitting region exits for every `do parallel`
    /// body the jump leaves.
    fn lower_goto(&mut self, l: LabelId) {
        let found = self.blocks.iter().enumerate().rev().find_map(|(bi, ctx)| {
            ctx.labels
                .iter()
                .find(|&&(m, _)| m == l)
                .map(|&(_, cell)| (bi, cell))
        });
        match found {
            Some((bi, cell)) => {
                for slot in self.par_exits(bi + 1) {
                    self.emit(Instr::ParExit { slot });
                }
                let pc = self.emit_pending(Instr::Jump { target: 0 });
                self.label_fixups.push((pc, cell));
            }
            None => self.trap(format!(
                "goto {l} escaped procedure `{}` (label not found)",
                self.proc.name
            )),
        }
    }

    /// Lowers the condition of an `if`/`while`/`if-goto` and the branch
    /// on it; returns the branch's pc, to be patched with the target taken
    /// when the condition is false.
    fn lower_branch(&mut self, cond: ExprId) -> usize {
        if let Expr::Binary { op, ty, lhs, rhs } = self.exprs()[cond] {
            let a = self.lower_expr(lhs);
            let b = self.lower_expr(rhs);
            self.free(a);
            self.free(b);
            return self.emit_pending(Instr::BrBin {
                op,
                ty,
                a: a.reg,
                b: b.reg,
                charge: binop_charge(op, ty),
                target: 0,
            });
        }
        let c = self.lower_expr(cond);
        self.free(c);
        self.emit_pending(Instr::Br {
            cond: c.reg,
            target: 0,
        })
    }

    fn lower_do(
        &mut self,
        var: VarId,
        lo: ExprId,
        hi: ExprId,
        step: ExprId,
        body: &[StmtId],
        region: Region,
    ) {
        let l = self.lower_expr(lo);
        let h = self.lower_expr(hi);
        let st = self.lower_expr(step);
        let iv = self.alloc_reg();
        let hi2 = self.alloc_reg();
        let st2 = self.alloc_reg();
        self.emit(Instr::DoEnter {
            iv,
            hi: hi2,
            step: st2,
            lo_src: l.reg,
            hi_src: h.reg,
            step_src: st.reg,
        });
        self.free(l);
        self.free(h);
        self.free(st);
        let ty = self.proc.var_scalar(var);
        let in_mem = self.mem_var[var.index()];
        let var_reg = if in_mem { NO_REG } else { var.index() as u32 };
        // each trip test is one step
        self.step();
        let head = self.emit_pending(Instr::DoHead {
            iv,
            hi: hi2,
            step: st2,
            exit: 0,
            var: var_reg,
            ty,
        });
        if in_mem {
            self.emit(Instr::StoreVar {
                var: var.index() as u32,
                ty,
                src: iv,
            });
        }
        self.lower_block(body, region);
        self.emit(Instr::DoNext {
            iv,
            step: st2,
            head: head as u32,
        });
        let exit = self.here();
        self.patch(head, exit);
        self.free_reg(iv);
        self.free_reg(hi2);
        self.free_reg(st2);
    }

    // --------------------------------------------------------------
    // stores
    // --------------------------------------------------------------

    /// `v = rhs` for a register variable: an operator, load or address
    /// writes the variable directly (its `sink`); a bare register or
    /// constant is copied.
    fn lower_assign_reg(&mut self, v: VarId, rhs: ExprId) {
        let var = v.index() as u32;
        let var_ty = self.proc.var_scalar(v);
        let fusible = match self.exprs()[rhs] {
            Expr::Unary { .. } | Expr::Binary { .. } | Expr::Cast { .. } | Expr::Load { .. } => {
                true
            }
            Expr::Var(u) | Expr::AddrOf(u) => self.mem_var[u.index()],
            _ => false,
        };
        if fusible {
            self.lower_value(rhs, Some((var, var_ty)));
        } else {
            let src = self.lower_expr(rhs);
            self.emit(Instr::SetVar {
                var,
                ty: var_ty,
                src: src.reg,
            });
            self.free(src);
        }
    }

    /// Stores `src` to an lvalue whose address operands (if any) are
    /// evaluated here, after `src` was produced.
    fn lower_store(&mut self, lhs: &LValue, src: Reg) {
        match *lhs {
            LValue::Var(v) => {
                let ty = self.proc.var_scalar(v);
                let var = v.index() as u32;
                if self.mem_var[v.index()] {
                    self.emit(Instr::StoreVar { var, ty, src });
                } else {
                    self.emit(Instr::SetVar { var, ty, src });
                }
            }
            LValue::Deref { addr, ty, .. } => {
                let a = self.lower_expr(addr);
                self.emit(Instr::Store {
                    addr: a.reg,
                    ty,
                    src,
                });
                self.free(a);
            }
            LValue::Section { .. } => {
                self.trap("scalar value assigned to a vector section".to_string());
            }
        }
    }

    // --------------------------------------------------------------
    // expressions
    // --------------------------------------------------------------

    /// Lowers `e` to a register: variables and constants are referenced in
    /// place, anything computed lands in a fresh temporary.
    fn lower_expr(&mut self, e: ExprId) -> Operand {
        match self.exprs()[e] {
            Expr::IntConst(v) => self.const_reg(Value::Int(v)),
            Expr::FloatConst(f, ty) => self.const_reg(normalize(Value::Float(f), ty)),
            Expr::Var(v) if !self.mem_var[v.index()] => Operand {
                reg: v.index() as u32,
                temp: false,
            },
            _ => Operand {
                reg: self.lower_value(e, None),
                temp: true,
            },
        }
    }

    /// Emits the instruction computing non-leaf `e`: into the register
    /// variable `into` names (with its kind, as the instruction's sink),
    /// or into a fresh temporary. Returns the destination. Operands are
    /// freed before the destination is chosen, so it may reuse one.
    fn lower_value(&mut self, e: ExprId, into: Option<(Reg, ScalarType)>) -> Reg {
        let sink = into.map(|(_, ty)| ty);
        match self.exprs()[e] {
            Expr::Var(v) => {
                let dst = self.dest(into);
                self.emit(Instr::LoadVar {
                    dst,
                    var: v.index() as u32,
                    ty: self.proc.var_scalar(v),
                    sink,
                });
                dst
            }
            Expr::AddrOf(v) => {
                let dst = self.dest(into);
                self.addr_of(v, dst, sink);
                dst
            }
            Expr::Load { addr, ty, volatile } => {
                let a = self.lower_expr(addr);
                self.free(a);
                let dst = self.dest(into);
                self.emit(Instr::Load {
                    dst,
                    addr: a.reg,
                    ty,
                    volatile,
                    sink,
                });
                dst
            }
            Expr::Unary { op, ty, arg } => {
                let a = self.lower_expr(arg);
                self.free(a);
                let dst = self.dest(into);
                self.emit(Instr::Un {
                    dst,
                    op,
                    ty,
                    src: a.reg,
                    charge: unop_charge(op, ty),
                    sink,
                });
                dst
            }
            Expr::Binary { op, ty, lhs, rhs } => {
                let a = self.lower_expr(lhs);
                let b = self.lower_expr(rhs);
                self.free(a);
                self.free(b);
                let dst = self.dest(into);
                self.emit(Instr::Bin {
                    dst,
                    op,
                    ty,
                    a: a.reg,
                    b: b.reg,
                    charge: binop_charge(op, ty),
                    sink,
                });
                dst
            }
            Expr::Cast { to, from, arg } => {
                let a = self.lower_expr(arg);
                self.free(a);
                let dst = self.dest(into);
                self.emit(Instr::Cast {
                    dst,
                    to,
                    from,
                    src: a.reg,
                    charge: cast_charge(to, from),
                    sink,
                });
                dst
            }
            Expr::Section { .. } | Expr::Keep { .. } => {
                // errors before evaluating operands, like the interpreter
                self.trap("vector section used outside a vector statement".to_string());
                self.dest(into)
            }
            Expr::IntConst(_) | Expr::FloatConst(..) => {
                unreachable!("constants are registers, not instructions")
            }
        }
    }

    fn dest(&mut self, into: Option<(Reg, ScalarType)>) -> Reg {
        match into {
            Some((r, _)) => r,
            None => self.alloc_reg(),
        }
    }

    // --------------------------------------------------------------
    // vector statements
    // --------------------------------------------------------------

    /// `&v` into `dst`, or the interpreter's trap when `v` is a register
    /// variable.
    fn addr_of(&mut self, v: VarId, dst: Reg, sink: Option<ScalarType>) {
        if self.mem_var[v.index()] {
            let var = v.index() as u32;
            self.emit(Instr::AddrOf { dst, var, sink });
        } else {
            self.trap(format!(
                "address taken of register variable {} (not memory-resident)",
                self.proc.var(v).name
            ));
        }
    }

    /// The base address of a vector section, as the interpreter's
    /// `section_base` charges it: a vector register's costs nothing.
    fn lower_section_base(&mut self, base: ExprId) -> Operand {
        if self.proc.vreg_of(base).is_none() {
            return self.lower_expr(base);
        }
        self.emit(Instr::QuietSave);
        let b = self.lower_expr(base);
        self.emit(Instr::QuietRestore);
        b
    }

    fn lower_vector_assign(&mut self, lhs: &LValue, rhs: ExprId) {
        let exprs = self.exprs();
        let (base, len, stride, kind) = match *lhs {
            LValue::Section {
                base,
                len,
                stride,
                ty,
            } => (base, len, stride, ty),
            _ => {
                self.trap("vector expression assigned to a scalar target".to_string());
                return;
            }
        };
        let b = self.lower_section_base(base);
        let l = self.lower_expr(len);
        let strd = self.lower_expr(stride);
        let plan_idx = self.plans.len() as u32;
        self.emit(Instr::VecCheckLen { plan: plan_idx });

        let mut sec_ids = Vec::new();
        collect_sections(exprs, rhs, &mut sec_ids);
        let mut sec_refs = Vec::with_capacity(sec_ids.len());
        let mut sec_ops = Vec::new();
        let mut memory_loads = 0;
        for (i, &(sid, keep)) in sec_ids.iter().enumerate() {
            let Expr::Section {
                base: sb,
                len: sl,
                stride: ss,
                ty,
            } = exprs[sid]
            else {
                unreachable!("collect_sections returns sections")
            };
            let ob = self.lower_section_base(sb);
            let ol = self.lower_expr(sl);
            let os = self.lower_expr(ss);
            memory_loads += u64::from(self.proc.vreg_of(sb).is_none());
            // length checks interleave with operand evaluation, matching
            // the interpreter's per-section check
            self.emit(Instr::VecCheckSec {
                plan: plan_idx,
                idx: i as u32,
            });
            let keep = keep.map(|v| {
                let dst = self.alloc_reg();
                self.emit(Instr::QuietSave);
                self.addr_of(v, dst, None);
                self.emit(Instr::QuietRestore);
                dst
            });
            sec_refs.push(SecRef {
                base: ob.reg,
                len: ol.reg,
                stride: os.reg,
                ty,
                keep,
            });
            sec_ops.push((ob, ol, os, keep));
        }

        // Loop-invariant scalar leaves are cost-free. The interpreter
        // evaluates them inside the element loop: when none reads a
        // volatile location, once is the same as once per element — but
        // zero times for a zero-length statement (their registers stay
        // unread by a zero-length kernel).
        let mut leaves = Vec::new();
        collect_scalar_leaves(exprs, rhs, &mut leaves);
        let per_element = leaves
            .iter()
            .any(|&le| exprs.any(le, Expr::is_volatile_load));
        let mut leaf_ops = Vec::with_capacity(leaves.len());
        let mut counter = None;
        if per_element {
            // k = 0; while (k < len) { leaves; element k; k = k + 1 }; store
            self.emit(Instr::VecCharge { plan: plan_idx });
            let zero = self.const_reg(Value::Int(0));
            let one = self.const_reg(Value::Int(1));
            let k = self.alloc_reg();
            let more = self.alloc_reg();
            let counter_op = |dst, op, a, b| Instr::Bin {
                dst,
                op,
                ty: ScalarType::Int,
                a,
                b,
                charge: FREE,
                sink: None,
            };
            self.emit(counter_op(k, BinOp::Add, zero.reg, zero.reg));
            let head = self.here();
            self.emit(counter_op(more, BinOp::Lt, k, l.reg));
            let done = self.emit_pending(Instr::JumpIfZero {
                cond: more,
                target: 0,
            });
            self.emit(Instr::QuietSave);
            for &le in &leaves {
                leaf_ops.push(self.lower_expr(le));
            }
            self.emit(Instr::QuietRestore);
            counter = Some((k, more, head, done, counter_op(k, BinOp::Add, k, one.reg)));
        } else if !leaves.is_empty() {
            let skip = self.emit_pending(Instr::JumpIfZero {
                cond: l.reg,
                target: 0,
            });
            self.emit(Instr::QuietSave);
            for &le in &leaves {
                leaf_ops.push(self.lower_expr(le));
            }
            self.emit(Instr::QuietRestore);
            let t = self.here();
            self.patch(skip, t);
        }

        let mut steps = Vec::new();
        let mut sec_i = 0u32;
        let mut leaf_i = 0usize;
        build_steps(exprs, rhs, &leaf_ops, &mut steps, &mut sec_i, &mut leaf_i);
        let ops = count_vector_ops(exprs, rhs);
        let n_instr = vector_instrs(memory_loads, ops, self.proc.vreg_of(base).is_some());
        let kernel = crate::vm::kernel_admits(kind, &sec_refs, &steps);
        self.plans.push(VecPlan {
            base: b.reg,
            len: l.reg,
            stride: strd.reg,
            kind,
            sections: sec_refs,
            steps,
            ops,
            n_instr,
            kernel,
        });
        match counter {
            None => self.emit(Instr::VecRun { plan: plan_idx }),
            Some((k, more, head, done, bump)) => {
                self.emit(Instr::VecElem { plan: plan_idx, k });
                self.emit(bump);
                self.emit(Instr::Jump { target: head });
                let t = self.here();
                self.patch(done, t);
                self.emit(Instr::VecScatter { plan: plan_idx });
                self.free_reg(k);
                self.free_reg(more);
            }
        }

        for o in leaf_ops {
            self.free(o);
        }
        for (ob, ol, os, keep) in sec_ops {
            self.free(ob);
            self.free(ol);
            self.free(os);
            if let Some(r) = keep {
                self.free_reg(r);
            }
        }
        self.free(b);
        self.free(l);
        self.free(strd);
    }
}

/// Scalar (loop-invariant) leaves of a vector rhs, in the order the
/// interpreter's element evaluation reaches them: everything that is not
/// a section and not an interior Binary/Unary/Cast node.
fn collect_scalar_leaves(pool: &ExprPool, e: ExprId, out: &mut Vec<ExprId>) {
    match pool[e] {
        Expr::Section { .. } | Expr::Keep { .. } => {}
        Expr::Binary { lhs, rhs, .. } => {
            collect_scalar_leaves(pool, lhs, out);
            collect_scalar_leaves(pool, rhs, out);
        }
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => collect_scalar_leaves(pool, arg, out),
        _ => out.push(e),
    }
}

/// Builds the postorder [`VStep`] program for a vector rhs. Section and
/// leaf numbering follow the same traversal as `collect_sections` /
/// `collect_scalar_leaves`.
fn build_steps(
    pool: &ExprPool,
    e: ExprId,
    leaf_ops: &[Operand],
    steps: &mut Vec<VStep>,
    sec_i: &mut u32,
    leaf_i: &mut usize,
) {
    match pool[e] {
        Expr::Section { .. } | Expr::Keep { .. } => {
            steps.push(VStep::Sec(*sec_i));
            *sec_i += 1;
        }
        Expr::Binary { op, ty, lhs, rhs } => {
            build_steps(pool, lhs, leaf_ops, steps, sec_i, leaf_i);
            build_steps(pool, rhs, leaf_ops, steps, sec_i, leaf_i);
            steps.push(VStep::Bin { op, ty });
        }
        Expr::Unary { op, ty, arg } => {
            build_steps(pool, arg, leaf_ops, steps, sec_i, leaf_i);
            steps.push(VStep::Un { op, ty });
        }
        Expr::Cast { to, from, arg } => {
            build_steps(pool, arg, leaf_ops, steps, sec_i, leaf_i);
            steps.push(VStep::Cast { to, from });
        }
        _ => {
            steps.push(VStep::Splat(leaf_ops[*leaf_i].reg));
            *leaf_i += 1;
        }
    }
}
