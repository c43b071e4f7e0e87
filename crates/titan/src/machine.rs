//! The Titan machine (§2 of the paper): one machine, two executors.
//!
//! One Titan processor is a high-speed RISC integer unit plus a highly
//! pipelined floating-point unit that executes all scalar FP and all vector
//! instructions, fed from a very large vector register file (8192 words,
//! addressable at any offset/length/stride). Up to four processors share
//! memory over a high-speed bus.
//!
//! The compiler names what stays in that register file: a
//! [`Storage::VReg`] array is a vector register, which a vector statement
//! reads or writes as a whole section over `&v`, or binds as it reads a
//! memory section (`Expr::Keep`). Its elements live in the
//! activation's frame like a local array's, but the charge differs
//! ([`vector_instrs`]): a register operand costs no load instruction and a
//! register target no store, exactly as a loop-invariant scalar operand
//! costs nothing, while every ALU operation costs what it does over
//! memory and a statement never costs fewer than one instruction. Binding
//! a register costs nothing beyond the load the read already pays. The
//! simulator finds no reuse by itself: only what the IL keeps is kept.
//!
//! This module owns everything both executors share: the configuration
//! and statistics types, simulated memory and frame layout, the cycle
//! meter, the *charge table* (what each IL operation costs, defined once
//! as constants) and the intrinsics. `interp.rs` walks the IL tree and applies
//! charges at run time; `bytecode.rs` bakes the same charges into
//! instructions that `vm.rs` dispatches.
//!
//! The meter keeps one `u64` bucket per functional unit. With
//! [`MachineConfig::overlap`] enabled, integer, floating and memory work
//! in one straight-line region overlap (the §6 instruction-scheduling
//! model), otherwise costs are summed; either way only [`Simulator::flush`]
//! and the parallel-region exits touch the `f64` cycle accumulator. So
//! charges *between two flush points* commute — only the order of flushes
//! is part of the engine-equivalence contract, which is what lets the
//! bytecode lowerer fuse instructions without moving a cycle.

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use titanc_il::fold::{normalize, Value};
use titanc_il::{
    BinOp, ConstInit, Expr, ExprId, ExprPool, Procedure, Program, ScalarType, Storage, Type, UnOp,
    VarId, VarInfo,
};

/// Which backend executes the IL.
///
/// Both engines implement identical semantics and apply the same charge
/// table to the same meter, so every measured number is byte-for-byte the
/// same. The VM is the default because it is faster in wall-clock terms;
/// the interpreter stays as the independent oracle the differential tests
/// compare it against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecEngine {
    /// The tree-walking reference interpreter (`interp.rs`).
    Interp,
    /// The compiled register-bytecode VM (`bytecode.rs` + `vm.rs`).
    #[default]
    Vm,
}

impl ExecEngine {
    /// Short lowercase name, as differential failure messages print it.
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::Interp => "interp",
            ExecEngine::Vm => "vm",
        }
    }
}

impl std::fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The Titan's clock in MHz, the one [`ExecStats::mflops`] and
/// [`ExecStats::seconds`] are read at.
pub const CLOCK_MHZ: f64 = 16.0;

/// Configuration of the simulated machine.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of processors applied to `do parallel` loops (1–4).
    pub num_procs: u32,
    /// Whether the instruction scheduler's integer/FP/memory overlap is
    /// modeled (§6 item 2). Scalar-only compiles historically lacked the
    /// dependence information to schedule aggressively, so baselines run
    /// with this off.
    pub overlap: bool,
    /// Maximum statements to execute before declaring runaway (guards
    /// accidentally-infinite loops in tests).
    pub max_steps: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            num_procs: 1,
            overlap: false,
            max_steps: 200_000_000,
        }
    }
}

impl MachineConfig {
    /// A scalar baseline machine: one processor, no scheduling overlap.
    pub fn scalar() -> MachineConfig {
        MachineConfig::default()
    }

    /// An optimizing configuration: overlap scheduling on, `n` processors.
    pub fn optimized(num_procs: u32) -> MachineConfig {
        MachineConfig {
            num_procs,
            overlap: true,
            ..MachineConfig::default()
        }
    }
}

/// Execution statistics accumulated by a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Total cycles (fractional because parallel regions divide).
    pub cycles: f64,
    /// Statements executed.
    pub steps: u64,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Scalar loads.
    pub loads: u64,
    /// Scalar stores.
    pub stores: u64,
    /// Vector instructions issued.
    pub vector_instrs: u64,
    /// Vector elements processed.
    pub vector_elems: u64,
    /// Lines produced by `print_*` intrinsics.
    pub output: Vec<String>,
}

impl ExecStats {
    /// Achieved MFLOPS at the given clock.
    pub fn mflops(&self, clock_mhz: f64) -> f64 {
        if self.cycles == 0.0 {
            return 0.0;
        }
        let seconds = self.cycles / (clock_mhz * 1e6);
        self.flops as f64 / seconds / 1e6
    }

    /// Wall-clock seconds at the given clock.
    pub fn seconds(&self, clock_mhz: f64) -> f64 {
        self.cycles / (clock_mhz * 1e6)
    }
}

/// A runtime error: out-of-bounds access, division by zero, missing
/// procedure, runaway loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// What went wrong.
    pub message: String,
}

impl SimError {
    pub(crate) fn new(m: impl Into<String>) -> SimError {
        SimError { message: m.into() }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "titan: {}", self.message)
    }
}

impl Error for SimError {}

/// The result of running a procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// The entry procedure's return value, if any.
    pub value: Option<Value>,
    /// Cycle/operation statistics.
    pub stats: ExecStats,
    /// The backend that produced this result.
    pub engine: ExecEngine,
}

// ----------------------------------------------------------------------
// the charge table
// ----------------------------------------------------------------------

// Cycle costs for each operation class. Values are chosen to match the
// published Titan characteristics (16 MHz, pipelined scalar FP at
// ~6-cycle latency, one vector element per cycle after startup) and
// reproduce the *shape* of the paper's measurements.

/// Integer add/sub/logic/compare.
pub(crate) const INT_ALU: u64 = 1;
/// Integer multiply (no hardware multiplier on the RISC core).
pub(crate) const INT_MUL: u64 = 12;
/// Integer divide.
pub(crate) const INT_DIV: u64 = 35;
/// Scalar FP add/sub/mul latency (pipelined).
pub(crate) const FP_OP: u64 = 6;
/// Scalar FP divide.
pub(crate) const FP_DIV: u64 = 20;
/// Int↔float conversion.
pub(crate) const FP_CVT: u64 = 4;
/// Scalar load (pipelined path to memory).
pub(crate) const LOAD: u64 = 2;
/// Scalar store.
pub(crate) const STORE: u64 = 2;
/// Taken-branch / loop-back penalty.
pub(crate) const BRANCH: u64 = 2;
/// Procedure call/return overhead (save/restore, pipeline drain).
pub(crate) const CALL: u64 = 16;
/// Vector instruction startup.
pub(crate) const VECTOR_STARTUP: u64 = 12;
/// Per-element vector cost (1 element/cycle after startup).
pub(crate) const VECTOR_PER_ELEM: u64 = 1;
/// Fork/join overhead for spreading a loop across processors.
pub(crate) const FORK_JOIN: u64 = 120;

/// The functional unit a charge occupies — one meter bucket each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Unit {
    Int,
    Fp,
    Mem,
}

/// What one IL operation costs: `cycles` on `unit`, and whether it counts
/// as a floating-point operation. The interpreter looks a charge up when
/// it evaluates a node; the bytecode lowerer looks it up once and stores
/// it in the instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Charge {
    pub(crate) unit: Unit,
    pub(crate) cycles: u64,
    pub(crate) flop: bool,
}

impl Charge {
    fn int(cycles: u64) -> Charge {
        Charge {
            unit: Unit::Int,
            cycles,
            flop: false,
        }
    }

    fn fp(cycles: u64, flop: bool) -> Charge {
        Charge {
            unit: Unit::Fp,
            cycles,
            flop,
        }
    }
}

/// A binary operator on operands of kind `ty`.
pub(crate) fn binop_charge(op: BinOp, ty: ScalarType) -> Charge {
    if ty.is_float() {
        let cycles = if op == BinOp::Div { FP_DIV } else { FP_OP };
        Charge::fp(cycles, !op.is_comparison())
    } else {
        Charge::int(match op {
            BinOp::Mul => INT_MUL,
            BinOp::Div | BinOp::Rem => INT_DIV,
            _ => INT_ALU,
        })
    }
}

/// A unary operator on an operand of kind `ty` (every operator costs the
/// same; the parameter keeps the table total over `UnOp`).
pub(crate) fn unop_charge(_op: UnOp, ty: ScalarType) -> Charge {
    if ty.is_float() {
        Charge::fp(FP_OP, true)
    } else {
        Charge::int(INT_ALU)
    }
}

/// A scalar conversion: crossing the int/float boundary goes through the
/// FP unit's converter, anything else is an integer move.
pub(crate) fn cast_charge(to: ScalarType, from: ScalarType) -> Charge {
    if to.is_float() != from.is_float() {
        Charge::fp(FP_CVT, false)
    } else {
        Charge::int(INT_ALU)
    }
}

/// Writing a register-resident variable, or materializing the address of
/// a memory-resident one: one integer ALU operation.
pub(crate) fn reg_move_charge() -> Charge {
    Charge::int(INT_ALU)
}

/// `do`-loop control per trip test: increment + compare.
pub(crate) fn do_control_charge() -> Charge {
    Charge::int(2 * INT_ALU)
}

/// Procedure entry (save, pipeline drain).
pub(crate) fn call_charge() -> Charge {
    Charge::int(CALL)
}

/// Procedure exit (restore).
pub(crate) fn return_charge() -> Charge {
    Charge::int(CALL / 2)
}

/// The `print_*`/math routines resolved by name before procedure lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Intrinsic {
    PrintInt,
    PrintFloat,
    Sqrt,
    Fabs,
    Abs,
}

impl Intrinsic {
    pub(crate) fn by_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "print_int" => Intrinsic::PrintInt,
            "print_float" | "print_double" => Intrinsic::PrintFloat,
            "sqrt" | "sqrtf" => Intrinsic::Sqrt,
            "fabs" | "fabsf" => Intrinsic::Fabs,
            "abs" => Intrinsic::Abs,
            _ => return None,
        })
    }

    /// `None` for the uncharged output routines.
    fn charge(self) -> Option<Charge> {
        match self {
            Intrinsic::PrintInt | Intrinsic::PrintFloat => None,
            Intrinsic::Sqrt => Some(Charge::fp(FP_DIV, true)),
            Intrinsic::Fabs => Some(Charge::fp(FP_OP, true)),
            Intrinsic::Abs => Some(Charge::int(INT_ALU)),
        }
    }
}

// ----------------------------------------------------------------------
// memory and frames
// ----------------------------------------------------------------------

pub(crate) const MEM_SIZE: usize = 1 << 24; // 16 MiB
const GLOBAL_BASE: u32 = 0x1000;
const STACK_BASE: u32 = 0x40_0000;
const MAX_CALL_DEPTH: u32 = 512;

/// Where one variable of a procedure lives.
#[derive(Clone, Copy, Debug)]
enum Home {
    /// In the engine's register file.
    Reg,
    /// A global or static: the same address in every activation.
    Fixed(u32),
    /// A stack slot, this many bytes above the activation's 8-aligned base.
    Stack(u32),
}

/// A procedure's frame template: the home of every variable (indexed like
/// `Procedure::vars`) and the stack bytes one activation takes. Built at
/// the procedure's first call — which is when its statics and any global
/// the program table does not list are allocated, so address assignment
/// keeps first-call order — and reused by every later call.
#[derive(Debug)]
pub(crate) struct FrameLayout {
    homes: Vec<Home>,
    stack_bytes: u32,
}

impl FrameLayout {
    /// The address of variable `var` in an activation based at `base`;
    /// `None` for register variables.
    pub(crate) fn addr(&self, var: usize, base: u32) -> Option<u32> {
        match self.homes[var] {
            Home::Reg => None,
            Home::Fixed(a) => Some(a),
            Home::Stack(off) => Some(base + off),
        }
    }
}

/// The meter's saved state around a cost-free evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Quiet {
    bucket: [u64; 3],
    loads: u64,
    flops: u64,
}

/// The Titan simulator.
///
/// # Example
///
/// ```
/// use titanc_titan::{Simulator, MachineConfig};
/// let prog = titanc_lower::compile_to_il(
///     "int main(void) { int i, s; s = 0; for (i = 1; i <= 10; i++) s += i; return s; }",
/// ).unwrap();
/// let mut sim = Simulator::new(&prog, MachineConfig::default());
/// let r = sim.run("main", &[]).unwrap();
/// assert_eq!(r.value.unwrap().as_int(), 55);
/// ```
pub struct Simulator<'p> {
    pub(crate) prog: &'p Program,
    pub(crate) cfg: MachineConfig,
    pub(crate) mem: Vec<u8>,
    globals: HashMap<String, u32>,
    statics: HashMap<(String, String), u32>,
    layouts: Vec<Option<Rc<FrameLayout>>>,
    alloc_ptr: u32,
    pub(crate) sp: u32,
    pub(crate) stats: ExecStats,
    /// Cycles charged to each unit since the last flush, indexed by
    /// [`Unit`].
    bucket: [u64; 3],
    volatile_script: VecDeque<i64>,
    depth: u32,
    engine: ExecEngine,
    pub(crate) vm: crate::vm::VmState,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator for a program on the default engine (the
    /// bytecode VM); globals are allocated and initialized immediately.
    pub fn new(prog: &'p Program, cfg: MachineConfig) -> Simulator<'p> {
        Simulator::with_engine(prog, cfg, ExecEngine::default())
    }

    /// Builds a simulator that executes with the chosen backend. Both
    /// engines share memory layout, the meter and the charge table, so
    /// results and statistics are identical; pass [`ExecEngine::Interp`]
    /// to get the reference oracle.
    pub fn with_engine(prog: &'p Program, cfg: MachineConfig, engine: ExecEngine) -> Simulator<'p> {
        let mut sim = Simulator {
            prog,
            cfg,
            mem: vec![0u8; MEM_SIZE],
            globals: HashMap::new(),
            statics: HashMap::new(),
            layouts: vec![None; prog.procs.len()],
            alloc_ptr: GLOBAL_BASE,
            sp: STACK_BASE,
            stats: ExecStats::default(),
            bucket: [0; 3],
            volatile_script: VecDeque::new(),
            depth: 0,
            engine,
            vm: crate::vm::VmState::default(),
        };
        for g in &prog.globals {
            sim.alloc_global(g);
        }
        sim
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The execution backend this simulator runs with.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Queues values that successive *volatile loads* will observe: before
    /// each volatile load, the next queued value is stored to the loaded
    /// address (simulating a device register changing outside the program,
    /// §1 item 6).
    pub fn push_volatile_values(&mut self, values: &[i64]) {
        self.volatile_script.extend(values.iter().copied());
    }

    /// Runs the named procedure with the given arguments and returns its
    /// value and the accumulated statistics.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on runtime faults (bad memory access,
    /// division by zero, unknown procedure, step-limit exceeded).
    pub fn run(&mut self, entry: &str, args: &[Value]) -> Result<RunResult, SimError> {
        let value = match self.engine {
            ExecEngine::Interp => self.interp_call(entry, args)?,
            ExecEngine::Vm => self.vm_call(entry, args)?,
        };
        self.flush(0);
        Ok(RunResult {
            value,
            stats: self.stats.clone(),
            engine: self.engine,
        })
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The address of a named global, if the program declares one.
    pub fn global_addr(&self, name: &str) -> Option<u32> {
        self.globals.get(name).copied()
    }

    /// Reads element `index` of the named global viewed as an array of
    /// `kind` (element 0 is the global's base address).
    ///
    /// # Errors
    ///
    /// Returns an error when the global does not exist or the access is out
    /// of bounds.
    pub fn read_global(&self, name: &str, kind: ScalarType, index: u32) -> Result<Value, SimError> {
        self.read_mem(self.global_elem(name, kind, index)?, kind)
    }

    fn global_elem(&self, name: &str, kind: ScalarType, index: u32) -> Result<u32, SimError> {
        let base = self
            .global_addr(name)
            .ok_or_else(|| SimError::new(format!("no global `{name}`")))?;
        index
            .checked_mul(kind.size() as u32)
            .and_then(|off| base.checked_add(off))
            .ok_or_else(|| {
                SimError::new(format!(
                    "element {index} of global `{name}` lies beyond the address space"
                ))
            })
    }

    pub(crate) fn proc_by_name(&self, name: &str) -> Option<(usize, &'p Procedure)> {
        self.prog
            .procs
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == name)
    }

    // ------------------------------------------------------------------
    // allocation and frames
    // ------------------------------------------------------------------

    fn alloc_static_storage(&mut self, ty: &Type, init: Option<ConstInit>) -> u32 {
        let size = self.prog.type_size(ty).max(1) as u32;
        let addr = align_up(self.alloc_ptr, 8);
        self.alloc_ptr = addr + size;
        if let (Some(init), Some(kind)) = (init, ty.scalar()) {
            let v = match init {
                ConstInit::Int(i) => Value::Int(i),
                ConstInit::Float(f) => Value::Float(f),
            };
            let _ = self.write_mem(addr, kind, coerce(v, kind));
        }
        addr
    }

    fn alloc_global(&mut self, g: &VarInfo) -> u32 {
        if let Some(a) = self.globals.get(&g.name) {
            return *a;
        }
        let addr = self.alloc_static_storage(&g.ty, g.init);
        self.globals.insert(g.name.clone(), addr);
        addr
    }

    /// The frame template of procedure `idx`, built on its first call.
    /// Address assignment order is part of the engine-equivalence
    /// contract, which is why both engines get their frames from here.
    #[inline(always)]
    fn layout(&mut self, idx: usize) -> Rc<FrameLayout> {
        match &self.layouts[idx] {
            Some(l) => Rc::clone(l),
            None => self.first_layout(idx),
        }
    }

    /// Builds and records procedure `idx`'s frame template.
    #[cold]
    #[inline(never)]
    fn first_layout(&mut self, idx: usize) -> Rc<FrameLayout> {
        let proc: &'p Procedure = &self.prog.procs[idx];
        let mut stack_bytes = 0u32;
        let homes = proc
            .vars
            .iter()
            .map(|info| match info.storage {
                Storage::Global => Home::Fixed(self.alloc_global(info)),
                Storage::Static => {
                    let key = (proc.name.clone(), info.name.clone());
                    let addr = match self.statics.get(&key) {
                        Some(a) => *a,
                        None => {
                            let a = self.alloc_static_storage(&info.ty, info.init);
                            self.statics.insert(key, a);
                            a
                        }
                    };
                    Home::Fixed(addr)
                }
                Storage::Auto | Storage::Param | Storage::Temp if info.is_register_candidate() => {
                    Home::Reg
                }
                // a vector register's elements live in the frame
                Storage::Auto | Storage::Param | Storage::Temp | Storage::VReg => {
                    let size = self.prog.type_size(&info.ty).max(1) as u32;
                    let off = align_up(stack_bytes, 8);
                    stack_bytes = off.saturating_add(size);
                    Home::Stack(off)
                }
            })
            .collect();
        let layout = Rc::new(FrameLayout { homes, stack_bytes });
        self.layouts[idx] = Some(Rc::clone(&layout));
        layout
    }

    /// Call prologue shared by both engines, in contract order: depth
    /// guard, call charge, stack allocation (zeroed). Returns the frame
    /// template and the activation's base address; the caller saves `sp`
    /// beforehand and hands it to [`Simulator::leave_frame`].
    #[inline(always)]
    pub(crate) fn enter_frame(&mut self, idx: usize) -> Result<(Rc<FrameLayout>, u32), SimError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(SimError::new("call depth exceeded (runaway recursion?)"));
        }
        self.depth += 1;
        self.charge(call_charge());
        let layout = self.layout(idx);
        if layout.stack_bytes == 0 {
            return Ok((layout, self.sp));
        }
        let base = align_up(self.sp, 8);
        let top = u64::from(base) + u64::from(layout.stack_bytes);
        if top >= MEM_SIZE as u64 {
            return Err(SimError::new("stack overflow"));
        }
        self.sp = top as u32;
        // the stack is not cleared on the real machine, but a
        // deterministic simulator zeroes a fresh frame
        self.mem[base as usize..top as usize].fill(0);
        Ok((layout, base))
    }

    /// Call epilogue shared by both engines.
    #[inline(always)]
    pub(crate) fn leave_frame(&mut self, saved_sp: u32) {
        self.sp = saved_sp;
        self.depth -= 1;
        self.charge(return_charge());
    }

    // ------------------------------------------------------------------
    // memory
    // ------------------------------------------------------------------

    /// The index of a `size`-byte access at `addr`, checked to lie in
    /// memory. The arithmetic is in `u64`: an address within `size` bytes
    /// of 2³² must not wrap back into range.
    #[inline(always)]
    fn span(&self, addr: u32, size: usize) -> Result<usize, SimError> {
        let end = u64::from(addr) + size as u64;
        if addr < 4 || end > self.mem.len() as u64 {
            return Err(out_of_range(addr, size));
        }
        Ok(addr as usize)
    }

    /// The `N` bytes at `addr`. `N` is a constant at every call, so the
    /// copy is one fixed-width move.
    #[inline(always)]
    fn read_bytes<const N: usize>(&self, addr: u32) -> Result<[u8; N], SimError> {
        let a = self.span(addr, N)?;
        Ok(self.mem[a..a + N].try_into().expect("a slice of N bytes"))
    }

    #[inline(always)]
    fn write_bytes<const N: usize>(&mut self, addr: u32, b: [u8; N]) -> Result<(), SimError> {
        let a = self.span(addr, N)?;
        self.mem[a..a + N].copy_from_slice(&b);
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn read_mem(&self, addr: u32, kind: ScalarType) -> Result<Value, SimError> {
        Ok(match kind {
            ScalarType::Char => Value::Int(self.read_bytes::<1>(addr)?[0] as i8 as i64),
            ScalarType::Int => Value::Int(i32::from_le_bytes(self.read_bytes(addr)?) as i64),
            ScalarType::Ptr => Value::Int(u32::from_le_bytes(self.read_bytes(addr)?) as i64),
            ScalarType::Float => Value::Float(f32::from_le_bytes(self.read_bytes(addr)?) as f64),
            ScalarType::Double => Value::Float(f64::from_le_bytes(self.read_bytes(addr)?)),
        })
    }

    #[inline(always)]
    pub(crate) fn write_mem(
        &mut self,
        addr: u32,
        kind: ScalarType,
        v: Value,
    ) -> Result<(), SimError> {
        match kind {
            ScalarType::Char => self.write_bytes(addr, [v.as_int() as u8]),
            ScalarType::Int => self.write_bytes(addr, (v.as_int() as i32).to_le_bytes()),
            ScalarType::Ptr => self.write_bytes(addr, (v.as_int() as u32).to_le_bytes()),
            ScalarType::Float => self.write_bytes(addr, (v.as_float() as f32).to_le_bytes()),
            ScalarType::Double => self.write_bytes(addr, v.as_float().to_le_bytes()),
        }
    }

    /// A charged scalar load. A volatile load first pops the device
    /// script into the loaded address.
    #[inline(always)]
    pub(crate) fn load(
        &mut self,
        addr: u32,
        kind: ScalarType,
        volatile: bool,
    ) -> Result<Value, SimError> {
        if volatile {
            self.device_write(addr, kind)?;
        }
        self.bucket[Unit::Mem as usize] += LOAD;
        self.stats.loads += 1;
        self.read_mem(addr, kind)
    }

    /// Pops the next device-script value, if any, into `addr`.
    #[cold]
    #[inline(never)]
    fn device_write(&mut self, addr: u32, kind: ScalarType) -> Result<(), SimError> {
        match self.volatile_script.pop_front() {
            Some(next) => self.write_mem(addr, kind, coerce(Value::Int(next), kind)),
            None => Ok(()),
        }
    }

    /// A charged scalar store of `v` coerced to `kind`.
    #[inline(always)]
    pub(crate) fn store(&mut self, addr: u32, kind: ScalarType, v: Value) -> Result<(), SimError> {
        self.bucket[Unit::Mem as usize] += STORE;
        self.stats.stores += 1;
        self.write_mem(addr, kind, coerce(v, kind))
    }

    // ------------------------------------------------------------------
    // the meter
    // ------------------------------------------------------------------

    /// One simulated statement.
    pub(crate) fn step_guard(&mut self) -> Result<(), SimError> {
        self.stats.steps += 1;
        if self.stats.steps > self.cfg.max_steps {
            return Err(SimError::new("step limit exceeded (infinite loop?)"));
        }
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn charge(&mut self, c: Charge) {
        self.bucket[c.unit as usize] += c.cycles;
        self.stats.flops += u64::from(c.flop);
    }

    /// Ends a straight-line region: with overlap scheduling the region
    /// costs the maximum of the three unit streams (§6 item 2); without it,
    /// their sum.
    #[inline(always)]
    pub(crate) fn flush(&mut self, extra: u64) {
        let [int, fp, mem] = self.bucket;
        let region = if self.cfg.overlap {
            int.max(fp).max(mem)
        } else {
            int + fp + mem
        };
        self.stats.cycles += (region + extra) as f64;
        self.bucket = [0; 3];
    }

    /// `flush(BRANCH)`: the end of a region at a taken branch.
    #[inline(always)]
    pub(crate) fn flush_branch(&mut self) {
        self.flush(BRANCH);
    }

    /// Entry to a `do parallel` loop: drains the bucket and returns the
    /// cycle count the region starts from.
    pub(crate) fn par_enter(&mut self) -> f64 {
        self.flush(0);
        self.stats.cycles
    }

    /// Exit from a `do parallel` loop entered at `before`: the region's
    /// cycles divide across the processors, plus one fork/join.
    pub(crate) fn par_exit(&mut self, before: f64) {
        self.spread_exit(before);
        self.stats.cycles += FORK_JOIN as f64;
    }

    /// Entry to a spread loop (§10 list spreading): one fork/join for the
    /// whole loop.
    pub(crate) fn spread_enter(&mut self) {
        self.flush(0);
        self.stats.cycles += FORK_JOIN as f64;
    }

    /// End of the parallel arm of one spread-loop iteration that started
    /// at cycle count `before`.
    pub(crate) fn spread_exit(&mut self, before: f64) {
        self.flush(0);
        let delta = self.stats.cycles - before;
        let procs = f64::from(self.cfg.num_procs.max(1));
        self.stats.cycles = before + delta / procs;
    }

    /// Starts a cost-free evaluation (loop-invariant scalar operands of
    /// vector statements are already in registers).
    pub(crate) fn quiet_save(&self) -> Quiet {
        Quiet {
            bucket: self.bucket,
            loads: self.stats.loads,
            flops: self.stats.flops,
        }
    }

    /// Ends a cost-free evaluation.
    pub(crate) fn quiet_restore(&mut self, q: Quiet) {
        self.bucket = q.bucket;
        self.stats.loads = q.loads;
        self.stats.flops = q.flops;
    }

    /// Copies the `len` elements of a section read at `src`, `stride`
    /// bytes apart, into the vector register whose elements start at
    /// `reg`: the binding of a kept section.
    pub(crate) fn keep_section(
        &mut self,
        src: u32,
        stride: i64,
        ty: ScalarType,
        len: i64,
        reg: u32,
    ) -> Result<(), SimError> {
        for k in 0..len {
            let v = self.read_mem((src as i64 + k * stride) as u32, ty)?;
            self.write_mem((reg as i64 + k * ty.size()) as u32, ty, v)?;
        }
        Ok(())
    }

    /// Charges one vector statement of `len` elements: `n_instr` vector
    /// instructions ([`vector_instrs`]), each costing `startup + len`.
    pub(crate) fn charge_vector(&mut self, n_instr: u64, ops: u64, len: u64, float: bool) {
        self.stats.vector_instrs += n_instr;
        self.stats.vector_elems += len * n_instr;
        self.stats.cycles += (n_instr * (VECTOR_STARTUP + VECTOR_PER_ELEM * len)) as f64;
        if float {
            self.stats.flops += ops * len;
        }
    }

    // ------------------------------------------------------------------
    // intrinsics
    // ------------------------------------------------------------------

    /// Runs intrinsic `which` (called as `name`); `None` for the output
    /// routines, which return nothing.
    pub(crate) fn intrinsic(
        &mut self,
        which: Intrinsic,
        name: &str,
        args: &[Value],
    ) -> Result<Option<Value>, SimError> {
        let &[arg] = args else {
            return Err(SimError::new(format!(
                "intrinsic `{name}` expects 1 argument(s)"
            )));
        };
        if let Some(c) = which.charge() {
            self.charge(c);
        }
        Ok(match which {
            Intrinsic::PrintInt => {
                self.stats.output.push(format!("{}", arg.as_int()));
                None
            }
            Intrinsic::PrintFloat => {
                self.stats.output.push(format!("{:.6}", arg.as_float()));
                None
            }
            Intrinsic::Sqrt => Some(Value::Float(arg.as_float().sqrt())),
            Intrinsic::Fabs => Some(Value::Float(arg.as_float().abs())),
            Intrinsic::Abs => Some(Value::Int(arg.as_int().abs())),
        })
    }
}

#[cold]
fn out_of_range(addr: u32, size: usize) -> SimError {
    SimError::new(format!("memory access out of range: {addr:#x}+{size}"))
}

fn align_up(x: u32, a: u32) -> u32 {
    x.div_ceil(a) * a
}

#[inline(always)]
pub(crate) fn coerce(v: Value, kind: ScalarType) -> Value {
    match kind {
        ScalarType::Float | ScalarType::Double => normalize(Value::Float(v.as_float()), kind),
        _ => normalize(Value::Int(v.as_int()), kind),
    }
}

// ----------------------------------------------------------------------
// the shape of a vector statement
// ----------------------------------------------------------------------

/// The vector instructions one statement issues: a load per section
/// operand in memory (`memory_loads`), its `ops` ALU operations, and a
/// store unless the target is a vector register — never fewer than one.
/// A register operand, like a loop-invariant scalar one, costs nothing.
pub(crate) fn vector_instrs(memory_loads: u64, ops: u64, register_target: bool) -> u64 {
    (memory_loads + ops + u64::from(!register_target)).max(1)
}

/// The section operands of a vector rhs, in evaluation order, each with
/// the vector register it is kept in.
pub(crate) fn collect_sections(pool: &ExprPool, e: ExprId, out: &mut Vec<(ExprId, Option<VarId>)>) {
    match pool[e] {
        Expr::Section { .. } => out.push((e, None)),
        Expr::Keep { reg, section } => out.push((section, Some(reg))),
        _ => {
            for c in pool[e].child_ids() {
                collect_sections(pool, c, out);
            }
        }
    }
}

/// Number of vector ALU operations in a vector rhs (operations with at
/// least one section-derived operand).
pub(crate) fn count_vector_ops(pool: &ExprPool, e: ExprId) -> u64 {
    match pool[e] {
        Expr::Binary { lhs, rhs, .. } => {
            let mine = u64::from(
                pool.any(lhs, |n| matches!(n, Expr::Section { .. }))
                    || pool.any(rhs, |n| matches!(n, Expr::Section { .. })),
            );
            mine + count_vector_ops(pool, lhs) + count_vector_ops(pool, rhs)
        }
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => {
            u64::from(pool.any(arg, |n| matches!(n, Expr::Section { .. })))
                + count_vector_ops(pool, arg)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_titan_16mhz() {
        assert_eq!(CLOCK_MHZ, 16.0);
        let c = MachineConfig::default();
        assert_eq!(c.num_procs, 1);
        assert!(!c.overlap);
    }

    #[test]
    fn optimized_enables_overlap() {
        let c = MachineConfig::optimized(2);
        assert!(c.overlap);
        assert_eq!(c.num_procs, 2);
    }

    #[test]
    fn mflops_arithmetic() {
        let stats = ExecStats {
            cycles: 16e6, // one second at 16 MHz
            flops: 500_000,
            ..ExecStats::default()
        };
        let m = stats.mflops(16.0);
        assert!((m - 0.5).abs() < 1e-9, "{m}");
        assert!((stats.seconds(16.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_zero_mflops() {
        assert_eq!(ExecStats::default().mflops(16.0), 0.0);
    }

    const KINDS: [ScalarType; 5] = [
        ScalarType::Char,
        ScalarType::Int,
        ScalarType::Float,
        ScalarType::Double,
        ScalarType::Ptr,
    ];

    /// What the run-time charge sites produced before the table existed:
    /// (operator, cycles on an integer kind,
    /// cycles on a float kind, counts as a flop on a float kind). The
    /// match has no wildcard arm, so a new operator needs a row here.
    fn binop_row(op: BinOp) -> (u64, u64, bool) {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max => (1, 6, true),
            BinOp::Mul => (12, 6, true),
            BinOp::Div => (35, 20, true),
            BinOp::Rem => (35, 6, true),
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => (1, 6, false),
            BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr => (1, 6, true),
        }
    }

    #[test]
    fn charge_table_is_total_and_matches_the_old_charge_sites() {
        let table = [
            ("INT_ALU", INT_ALU, 1),
            ("INT_MUL", INT_MUL, 12),
            ("INT_DIV", INT_DIV, 35),
            ("FP_OP", FP_OP, 6),
            ("FP_DIV", FP_DIV, 20),
            ("FP_CVT", FP_CVT, 4),
            ("LOAD", LOAD, 2),
            ("STORE", STORE, 2),
            ("BRANCH", BRANCH, 2),
            ("CALL", CALL, 16),
            ("VECTOR_STARTUP", VECTOR_STARTUP, 12),
            ("VECTOR_PER_ELEM", VECTOR_PER_ELEM, 1),
            ("FORK_JOIN", FORK_JOIN, 120),
        ];
        for (name, cycles, want) in table {
            assert_eq!(cycles, want, "{name}");
        }
        let int = |cycles| Charge {
            unit: Unit::Int,
            cycles,
            flop: false,
        };
        let fp = |cycles, flop| Charge {
            unit: Unit::Fp,
            cycles,
            flop,
        };
        let binops = [
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
        for op in binops {
            let (int_cycles, fp_cycles, flop) = binop_row(op);
            for ty in KINDS {
                let want = if ty.is_float() {
                    fp(fp_cycles, flop)
                } else {
                    int(int_cycles)
                };
                assert_eq!(binop_charge(op, ty), want, "{op:?} on {ty}");
            }
        }
        for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot] {
            for ty in KINDS {
                let want = if ty.is_float() { fp(6, true) } else { int(1) };
                assert_eq!(unop_charge(op, ty), want, "{op:?} on {ty}");
            }
        }
        for to in KINDS {
            for from in KINDS {
                let want = if to.is_float() != from.is_float() {
                    fp(4, false)
                } else {
                    int(1)
                };
                assert_eq!(cast_charge(to, from), want, "{from} -> {to}");
            }
        }
        assert_eq!(reg_move_charge(), int(1));
        assert_eq!(do_control_charge(), int(2));
        assert_eq!(call_charge(), int(16));
        assert_eq!(return_charge(), int(8));
        assert_eq!(Intrinsic::PrintInt.charge(), None);
        assert_eq!(Intrinsic::PrintFloat.charge(), None);
        assert_eq!(Intrinsic::Sqrt.charge(), Some(fp(20, true)));
        assert_eq!(Intrinsic::Fabs.charge(), Some(fp(6, true)));
        assert_eq!(Intrinsic::Abs.charge(), Some(int(1)));
        // (memory loads, ALU ops, register target) → vector instructions
        for (loads, ops, register, want) in [(2, 3, false, 6), (0, 1, true, 1), (0, 0, true, 1)] {
            assert_eq!(vector_instrs(loads, ops, register), want);
        }
    }
}
