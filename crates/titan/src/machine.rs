//! The Titan machine (§2 of the paper): one machine, two executors.
//!
//! One Titan processor is a high-speed RISC integer unit plus a highly
//! pipelined floating-point unit that executes all scalar FP and all vector
//! instructions, fed from a very large vector register file (8192 words,
//! addressable at any offset/length/stride). Up to four processors share
//! memory over a high-speed bus.
//!
//! This module owns everything both executors share: the configuration
//! and statistics types, simulated memory and frame layout, the cycle
//! meter, the *charge table* (what each IL operation costs, defined once
//! as data) and the intrinsics. `interp.rs` walks the IL tree and applies
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
    VarInfo,
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
    /// Short lowercase name, as accepted by `stress --engine`.
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

impl std::str::FromStr for ExecEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecEngine, String> {
        match s {
            "interp" => Ok(ExecEngine::Interp),
            "vm" => Ok(ExecEngine::Vm),
            other => Err(format!("unknown engine `{other}` (expected interp|vm)")),
        }
    }
}

/// Cycle costs for each operation class.
///
/// Values are chosen to match the published Titan characteristics (16 MHz,
/// pipelined scalar FP at ~6-cycle latency, one vector element per cycle
/// after startup) and reproduce the *shape* of the paper's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Integer add/sub/logic/compare.
    pub int_alu: u64,
    /// Integer multiply (no hardware multiplier on the RISC core).
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// Scalar FP add/sub/mul latency (pipelined).
    pub fp_op: u64,
    /// Scalar FP divide.
    pub fp_div: u64,
    /// Int↔float conversion.
    pub fp_cvt: u64,
    /// Scalar load (pipelined path to memory).
    pub load: u64,
    /// Scalar store.
    pub store: u64,
    /// Taken-branch / loop-back penalty.
    pub branch: u64,
    /// Procedure call/return overhead (save/restore, pipeline drain).
    pub call: u64,
    /// Vector instruction startup.
    pub vector_startup: u64,
    /// Per-element vector cost (1 element/cycle after startup).
    pub vector_per_elem: u64,
    /// Fork/join overhead for spreading a loop across processors.
    pub fork_join: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            int_alu: 1,
            int_mul: 12,
            int_div: 35,
            fp_op: 6,
            fp_div: 20,
            fp_cvt: 4,
            load: 2,
            store: 2,
            branch: 2,
            call: 16,
            vector_startup: 12,
            vector_per_elem: 1,
            fork_join: 120,
        }
    }
}

/// Configuration of the simulated machine.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Clock in MHz (the Titan ran at 16 MHz).
    pub clock_mhz: f64,
    /// Number of processors applied to `do parallel` loops (1–4).
    pub num_procs: u32,
    /// Whether the instruction scheduler's integer/FP/memory overlap is
    /// modeled (§6 item 2). Scalar-only compiles historically lacked the
    /// dependence information to schedule aggressively, so baselines run
    /// with this off.
    pub overlap: bool,
    /// The cycle-cost table.
    pub costs: CostModel,
    /// Maximum statements to execute before declaring runaway (guards
    /// accidentally-infinite loops in tests).
    pub max_steps: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            clock_mhz: 16.0,
            num_procs: 1,
            overlap: false,
            costs: CostModel::default(),
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
pub(crate) fn binop_charge(op: BinOp, ty: ScalarType, c: &CostModel) -> Charge {
    if ty.is_float() {
        let cycles = if op == BinOp::Div { c.fp_div } else { c.fp_op };
        Charge::fp(cycles, !op.is_comparison())
    } else {
        Charge::int(match op {
            BinOp::Mul => c.int_mul,
            BinOp::Div | BinOp::Rem => c.int_div,
            _ => c.int_alu,
        })
    }
}

/// A unary operator on an operand of kind `ty` (every operator costs the
/// same; the parameter keeps the table total over `UnOp`).
pub(crate) fn unop_charge(_op: UnOp, ty: ScalarType, c: &CostModel) -> Charge {
    if ty.is_float() {
        Charge::fp(c.fp_op, true)
    } else {
        Charge::int(c.int_alu)
    }
}

/// A scalar conversion: crossing the int/float boundary goes through the
/// FP unit's converter, anything else is an integer move.
pub(crate) fn cast_charge(to: ScalarType, from: ScalarType, c: &CostModel) -> Charge {
    if to.is_float() != from.is_float() {
        Charge::fp(c.fp_cvt, false)
    } else {
        Charge::int(c.int_alu)
    }
}

/// Writing a register-resident variable, or materializing the address of
/// a memory-resident one: one integer ALU operation.
pub(crate) fn reg_move_charge(c: &CostModel) -> Charge {
    Charge::int(c.int_alu)
}

/// `do`-loop control per trip test: increment + compare.
pub(crate) fn do_control_charge(c: &CostModel) -> Charge {
    Charge::int(2 * c.int_alu)
}

/// Procedure entry (save, pipeline drain).
pub(crate) fn call_charge(c: &CostModel) -> Charge {
    Charge::int(c.call)
}

/// Procedure exit (restore).
pub(crate) fn return_charge(c: &CostModel) -> Charge {
    Charge::int(c.call / 2)
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
    fn charge(self, c: &CostModel) -> Option<Charge> {
        match self {
            Intrinsic::PrintInt | Intrinsic::PrintFloat => None,
            Intrinsic::Sqrt => Some(Charge::fp(c.fp_div, true)),
            Intrinsic::Fabs => Some(Charge::fp(c.fp_op, true)),
            Intrinsic::Abs => Some(Charge::int(c.int_alu)),
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

/// True when a variable must live in simulated memory rather than a
/// register: its address is taken, it is an aggregate, it is volatile, or
/// it has static/global storage. Both engines and the bytecode lowerer
/// must agree on this predicate, so it lives in one place.
pub(crate) fn var_is_memory(info: &VarInfo) -> bool {
    match info.storage {
        Storage::Global | Storage::Static => true,
        Storage::Auto | Storage::Param | Storage::Temp => {
            info.addressed || info.ty.scalar().is_none() || info.volatile
        }
    }
}

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
        Ok(base + index * kind.size() as u32)
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
    fn layout(&mut self, idx: usize) -> Rc<FrameLayout> {
        if let Some(l) = &self.layouts[idx] {
            return Rc::clone(l);
        }
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
                Storage::Auto | Storage::Param | Storage::Temp if var_is_memory(info) => {
                    let size = self.prog.type_size(&info.ty).max(1) as u32;
                    let off = align_up(stack_bytes, 8);
                    stack_bytes = off.saturating_add(size);
                    Home::Stack(off)
                }
                Storage::Auto | Storage::Param | Storage::Temp => Home::Reg,
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
    pub(crate) fn enter_frame(&mut self, idx: usize) -> Result<(Rc<FrameLayout>, u32), SimError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(SimError::new("call depth exceeded (runaway recursion?)"));
        }
        self.depth += 1;
        self.charge(call_charge(&self.cfg.costs));
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
    pub(crate) fn leave_frame(&mut self, saved_sp: u32) {
        self.sp = saved_sp;
        self.depth -= 1;
        self.charge(return_charge(&self.cfg.costs));
    }

    // ------------------------------------------------------------------
    // memory
    // ------------------------------------------------------------------

    /// The byte range of a `size`-byte access at `addr`. The arithmetic is
    /// in `u64`: an address within `size` bytes of 2³² must not wrap back
    /// into range.
    #[inline]
    fn span(&self, addr: u32, size: usize) -> Result<std::ops::Range<usize>, SimError> {
        let end = u64::from(addr) + size as u64;
        if addr < 4 || end > self.mem.len() as u64 {
            return Err(out_of_range(addr, size));
        }
        Ok(addr as usize..end as usize)
    }

    #[inline]
    pub(crate) fn read_mem(&self, addr: u32, kind: ScalarType) -> Result<Value, SimError> {
        let b = &self.mem[self.span(addr, kind.size() as usize)?];
        Ok(match kind {
            ScalarType::Char => Value::Int(b[0] as i8 as i64),
            ScalarType::Int => Value::Int(i32::from_le_bytes(b.try_into().unwrap()) as i64),
            ScalarType::Ptr => Value::Int(u32::from_le_bytes(b.try_into().unwrap()) as i64),
            ScalarType::Float => Value::Float(f32::from_le_bytes(b.try_into().unwrap()) as f64),
            ScalarType::Double => Value::Float(f64::from_le_bytes(b.try_into().unwrap())),
        })
    }

    #[inline]
    pub(crate) fn write_mem(
        &mut self,
        addr: u32,
        kind: ScalarType,
        v: Value,
    ) -> Result<(), SimError> {
        let span = self.span(addr, kind.size() as usize)?;
        let b = &mut self.mem[span];
        match kind {
            ScalarType::Char => b[0] = v.as_int() as u8,
            ScalarType::Int => b.copy_from_slice(&(v.as_int() as i32).to_le_bytes()),
            ScalarType::Ptr => b.copy_from_slice(&(v.as_int() as u32).to_le_bytes()),
            ScalarType::Float => b.copy_from_slice(&(v.as_float() as f32).to_le_bytes()),
            ScalarType::Double => b.copy_from_slice(&v.as_float().to_le_bytes()),
        }
        Ok(())
    }

    /// A charged scalar load. A volatile load first pops the device
    /// script into the loaded address.
    #[inline]
    pub(crate) fn load(
        &mut self,
        addr: u32,
        kind: ScalarType,
        volatile: bool,
    ) -> Result<Value, SimError> {
        if volatile {
            if let Some(next) = self.volatile_script.pop_front() {
                self.write_mem(addr, kind, coerce(Value::Int(next), kind))?;
            }
        }
        self.bucket[Unit::Mem as usize] += self.cfg.costs.load;
        self.stats.loads += 1;
        self.read_mem(addr, kind)
    }

    /// A charged scalar store of `v` coerced to `kind`.
    #[inline]
    pub(crate) fn store(&mut self, addr: u32, kind: ScalarType, v: Value) -> Result<(), SimError> {
        self.bucket[Unit::Mem as usize] += self.cfg.costs.store;
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

    #[inline]
    pub(crate) fn charge(&mut self, c: Charge) {
        self.bucket[c.unit as usize] += c.cycles;
        self.stats.flops += u64::from(c.flop);
    }

    /// Ends a straight-line region: with overlap scheduling the region
    /// costs the maximum of the three unit streams (§6 item 2); without it,
    /// their sum.
    #[inline]
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

    /// `flush(costs.branch)`: the end of a region at a taken branch.
    #[inline]
    pub(crate) fn flush_branch(&mut self) {
        self.flush(self.cfg.costs.branch);
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
        self.stats.cycles += self.cfg.costs.fork_join as f64;
    }

    /// Entry to a spread loop (§10 list spreading): one fork/join for the
    /// whole loop.
    pub(crate) fn spread_enter(&mut self) {
        self.flush(0);
        self.stats.cycles += self.cfg.costs.fork_join as f64;
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

    /// Charges one vector statement of `len` elements: `n_instr` vector
    /// instructions (loads + `ops` ALU operations + one store), each
    /// costing `startup + len`.
    pub(crate) fn charge_vector(&mut self, n_instr: u64, ops: u64, len: u64, float: bool) {
        let c = &self.cfg.costs;
        self.stats.vector_instrs += n_instr;
        self.stats.vector_elems += len * n_instr;
        self.stats.cycles += (n_instr * (c.vector_startup + c.vector_per_elem * len)) as f64;
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
        if let Some(c) = which.charge(&self.cfg.costs) {
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

#[inline]
pub(crate) fn coerce(v: Value, kind: ScalarType) -> Value {
    match kind {
        ScalarType::Float | ScalarType::Double => normalize(Value::Float(v.as_float()), kind),
        _ => normalize(Value::Int(v.as_int()), kind),
    }
}

// ----------------------------------------------------------------------
// the shape of a vector statement
// ----------------------------------------------------------------------

/// The section operands of a vector rhs, in evaluation order.
pub(crate) fn collect_sections(pool: &ExprPool, e: ExprId, out: &mut Vec<ExprId>) {
    if matches!(pool[e], Expr::Section { .. }) {
        out.push(e);
        return;
    }
    for c in pool[e].child_ids() {
        collect_sections(pool, c, out);
    }
}

/// Number of vector ALU operations in a vector rhs (operations with at
/// least one section-derived operand).
pub(crate) fn count_vector_ops(pool: &ExprPool, e: ExprId) -> u64 {
    match pool[e] {
        Expr::Binary { lhs, rhs, .. } => {
            let mine = u64::from(pool.has_section(lhs) || pool.has_section(rhs));
            mine + count_vector_ops(pool, lhs) + count_vector_ops(pool, rhs)
        }
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => {
            u64::from(pool.has_section(arg)) + count_vector_ops(pool, arg)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_titan_16mhz() {
        let c = MachineConfig::default();
        assert_eq!(c.clock_mhz, 16.0);
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

    /// What the run-time charge sites produced before the table existed,
    /// on the default cost model: (operator, cycles on an integer kind,
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
        let c = CostModel::default();
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
                assert_eq!(binop_charge(op, ty, &c), want, "{op:?} on {ty}");
            }
        }
        for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot] {
            for ty in KINDS {
                let want = if ty.is_float() { fp(6, true) } else { int(1) };
                assert_eq!(unop_charge(op, ty, &c), want, "{op:?} on {ty}");
            }
        }
        for to in KINDS {
            for from in KINDS {
                let want = if to.is_float() != from.is_float() {
                    fp(4, false)
                } else {
                    int(1)
                };
                assert_eq!(cast_charge(to, from, &c), want, "{from} -> {to}");
            }
        }
        assert_eq!(reg_move_charge(&c), int(1));
        assert_eq!(do_control_charge(&c), int(2));
        assert_eq!(call_charge(&c), int(16));
        assert_eq!(return_charge(&c), int(8));
        assert_eq!(Intrinsic::PrintInt.charge(&c), None);
        assert_eq!(Intrinsic::PrintFloat.charge(&c), None);
        assert_eq!(Intrinsic::Sqrt.charge(&c), Some(fp(20, true)));
        assert_eq!(Intrinsic::Fabs.charge(&c), Some(fp(6, true)));
        assert_eq!(Intrinsic::Abs.charge(&c), Some(int(1)));
    }
}
