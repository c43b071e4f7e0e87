//! The vectorizer: DO loops → triplet-notation vector statements, strip
//! mined and spread across processors (§5, §9).
//!
//! For each innermost DO loop the dependence graph is condensed into
//! strongly connected components. When every component is a trivial
//! (acyclic) vectorizable assignment, the loop is replaced by vector
//! statements in topological order — the paper's
//!
//! ```text
//! do parallel vi = 0,99,32 {
//!     vr = min(99, vi+31);
//!     a[vi:vr:1] = b[vi:vr:1] + c[vi:vr:1];
//! }
//! ```
//!
//! When a loop cannot be vectorized but its iterations are proven
//! independent, it is converted to `do parallel` unchanged (loop
//! spreading, §2 item 2).
//!
//! Before that sweep, each DO nest is walked top-down. A loop whose inner
//! loops all run a few constant trips takes in their copies, its private
//! scalars folded into the statements that read them, when that leaves an
//! innermost loop that vectorizes whole (`unroll.rs`). Otherwise a DO
//! loop that holds a nest and carries no dependence at its own level is
//! *sunk* to the innermost level (§10's struct-matrix transform): the
//! scalars private to one of its iterations
//! are expanded into a compiler-made array of one element per iteration,
//! and the loop is distributed around each run of assignments of the
//! nest, so that
//!
//! ```text
//! do i { s1; do r { s2; do c { s3 } }; s4 }
//! ```
//!
//! becomes `do i {s1}; do r { do i {s2}; do c { do i {s3} } }; do i {s4}`,
//! whose innermost loops the sweep then vectorizes as it does any other.

use crate::unroll::unroll_nest;
use std::collections::HashSet;
use titanc_deps::{level_carried, Aliasing, DepGraph, DepKind, Verdict};
use titanc_il::visit::{edit_tree, Order};
use titanc_il::{
    BinOp, Block, Expr, ExprId, LValue, LoopDecision, LoopEvent, Procedure, Report, ScalarType,
    SrcSpan, StmtId, StmtKind, Storage, Type, VarId, VarInfo,
};
use titanc_opt::affine::{decompose, Affine, DoHeader, NEST_LEVELS};
use titanc_opt::util::{count_reads_block, defined_in, replace_reads_with};

/// Vectorizer configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorOptions {
    /// Aliasing regime for unprovable base pairs.
    pub aliasing: Aliasing,
    /// Emit `do parallel` strip loops (multiprocessor spreading).
    pub parallelize: bool,
    /// Strip length when parallelizing ([`DEFAULT_STRIP`] unless set).
    pub strip: i64,
}

/// The strip length of the paper's examples (§9's `do parallel vi =
/// 0,99,32`).
pub const DEFAULT_STRIP: i64 = 32;

impl Default for VectorOptions {
    fn default() -> VectorOptions {
        VectorOptions {
            aliasing: Aliasing::C,
            parallelize: false,
            strip: DEFAULT_STRIP,
        }
    }
}

/// Maximum single vector length (the Titan register file holds vectors up
/// to 2048 elements).
const MAX_VL: i64 = 2048;

/// Unrolls or sinks every loop nest it can, then vectorizes every
/// innermost DO loop of the procedure. The report holds one decision event
/// for every loop of the procedure — visited innermost loops (vectorized /
/// parallelized / scalar-with-reason) plus the end-of-pass sweep over
/// loops the vectorizer never considers (non-innermost DO loops,
/// unconverted `while` loops), and one for each unrolled or sunk loop —
/// and one note per innermost loop left scalar.
pub fn vectorize(proc: &mut Procedure, opts: &VectorOptions) -> Report {
    let mut report = Report::default();
    // the loops a sunk loop now sits inside: never innermost candidates
    let outer = reshape_nests(proc, opts, &mut report);
    // so far the report holds an event for each loop unrolled or sunk
    let mut changed = !report.loops.is_empty();
    // loops decided here, and the strip loops generated for them
    let mut done: HashSet<StmtId> = HashSet::new();
    // by statement index: the subtree holds a loop. Grown as statements
    // are visited, and a statement's children are visited before it.
    let mut loopy = vec![false; proc.stmts.len()];
    // One postorder sweep: a DO loop is innermost when the walk below it
    // left no loop behind. A vectorized loop's replacement goes in where
    // the loop stood and the sweep resumes on it, so residual scalar loops
    // are visited next, and an inner loop that vectorized without a strip
    // loop leaves its parent the innermost one.
    edit_tree(proc, Order::Post, &mut |proc, block, i| {
        let id = block[i];
        let holds_loop = proc.stmts[id]
            .blocks()
            .iter()
            .any(|b| b.iter().any(|c| loopy[c.index()]));
        if loopy.len() <= id.index() {
            loopy.resize(proc.stmts.len(), false);
        }
        loopy[id.index()] = holds_loop || proc.stmts[id].is_loop();
        let StmtKind::DoLoop { var, .. } = proc.stmts[id] else {
            return i + 1;
        };
        if holds_loop || outer.contains(&id) || !done.insert(id) {
            return i + 1;
        }
        let (var, span) = (proc.var(var).name.clone(), proc.stmts.span(id));
        let (decision, next) = match try_vectorize_loop(proc, id, opts) {
            Outcome::Vectorized {
                stripped,
                parallel,
                residual,
                strip_ids,
                replacement,
            } => {
                changed = true;
                // strip loops are compiler-generated carriers for the
                // vector statements; never revisit (or report) them
                done.extend(strip_ids);
                block.splice(i..=i, replacement);
                let decision = LoopDecision::Vectorized {
                    stripped,
                    parallel,
                    residual,
                };
                (decision, i)
            }
            Outcome::Spread => {
                changed = true;
                (LoopDecision::Parallelized, i + 1)
            }
            Outcome::Scalar { note, defeat } => {
                report.notes.push(note);
                (LoopDecision::Scalar(defeat), i + 1)
            }
        };
        report.loops.push(LoopEvent {
            proc: proc.name.clone(),
            var,
            span,
            decision,
        });
        next
    });
    sweep_unvisited_loops(proc, &done, &mut report);
    if changed {
        proc.bump_generation();
    }
    report
}

/// Walks every DO nest top-down and reshapes the first loop of it that
/// can be: unrolls its inner loops into it ([`unroll_nest`]), with an
/// event for each naming the loop it went into and the scalars folded, or
/// else sinks it when [`plan_sink`] admits it, with an event naming the
/// loops it moved below and the scalars it expanded. Returns the ids of
/// the loops a sunk loop sits inside.
fn reshape_nests(
    proc: &mut Procedure,
    opts: &VectorOptions,
    report: &mut Report,
) -> HashSet<StmtId> {
    let mut outer = HashSet::new();
    let nested = |_, k: &StmtKind| match k {
        StmtKind::DoLoop { body, .. } => body.iter().any(|&s| proc.stmts[s].is_loop()),
        _ => false,
    };
    if !proc.any_stmt(nested) {
        return outer;
    }
    // reads of each variable across the procedure, counted before the walk
    // takes the blocks above the loop in hand out of the pool
    let mut reads = vec![0usize; proc.vars.len()];
    proc.for_each_stmt(&mut |_, kind| {
        for e in kind.exprs() {
            for v in proc.exprs.vars_read(e) {
                reads[v.index()] += 1;
            }
        }
    });
    let names = |proc: &Procedure, vars: &[VarId]| {
        let names: Vec<String> = vars
            .iter()
            .map(|&v| format!("`{}`", proc.var(v).name))
            .collect();
        names.join(", ")
    };
    edit_tree(proc, Order::Pre, &mut |proc, block, i| {
        let id = block[i];
        if outer.contains(&id) {
            return i;
        }
        if let Some(unrolled) = unroll_nest(proc, id, opts, &mut reads) {
            let StmtKind::DoLoop { var, .. } = proc.stmts[id] else {
                unreachable!("unroll_nest unrolls into DO loops only");
            };
            let mut how = format!("into the loop on `{}`", proc.var(var).name);
            if !unrolled.folded.is_empty() {
                how += &format!("; {} folded", names(proc, &unrolled.folded));
            }
            for (var, span) in unrolled.loops {
                report.loops.push(LoopEvent {
                    proc: proc.name.clone(),
                    var: proc.var(var).name.clone(),
                    span,
                    decision: LoopDecision::Unrolled(how.clone()),
                });
            }
            return i;
        }
        let Some(sink) = plan_sink(proc, id, opts) else {
            return i;
        };
        // a scalar read outside the nest gets its last value back, one
        // scalar load each, which the nest's own loads must pay for: the
        // sink adds no memory traffic
        let inside: Vec<usize> = (sink.expand.iter())
            .map(|&v| count_reads_block(&proc.stmts, &proc.exprs, &[id], v))
            .collect();
        let live_out: Vec<VarId> = (sink.expand.iter().zip(&inside))
            .filter(|&(v, &n)| reads[v.index()] > n)
            .map(|(&v, _)| v)
            .collect();
        if live_out.len() as i64 > sink.loads {
            return i;
        }
        for (v, n) in sink.expand.iter().zip(inside) {
            reads[v.index()] -= n;
        }
        let mut how = format!("below {}", names(proc, &sink.below));
        if !sink.expand.is_empty() {
            how += &format!("; {} expanded", names(proc, &sink.expand));
        }
        report.loops.push(LoopEvent {
            proc: proc.name.clone(),
            var: proc.var(sink.head.lv).name.clone(),
            span: proc.stmts.span(id),
            decision: LoopDecision::Sunk(how),
        });
        let StmtKind::DoLoop { body, safe, .. } = &mut proc.stmts[id] else {
            unreachable!("plan_sink admits DO loops only");
        };
        let (body, safe) = (std::mem::take(body), *safe);
        let span = proc.stmts.span(id);
        let cells = expand(proc, &sink);
        nest_loops(proc, &body, &mut outer);
        let mut replacement = distribute(proc, body, &sink.head, &cells, safe, span);
        for cell in cells.iter().filter(|c| live_out.contains(&c.var)) {
            let last = sink.lo + sink.head.step * (sink.trips - 1);
            let at_last = Affine {
                coeff: 0,
                offset: cell.form.offset + cell.form.coeff * last,
                ..cell.form.clone()
            };
            let addr = at_last.emit(&mut proc.exprs, ScalarType::Ptr, None);
            let rhs = proc.exprs.load(addr, cell.ty);
            let kind = StmtKind::Assign {
                lhs: LValue::Var(cell.var),
                rhs,
            };
            replacement.push(proc.stamp_at(kind, span));
        }
        let n = replacement.len();
        block.splice(i..=i, replacement);
        i + n - 1
    });
    outer
}

/// What [`plan_sink`] found in a loop it admits.
struct Sink {
    head: DoHeader,
    /// The loop's constant first value and trip count.
    lo: i64,
    trips: i64,
    /// The DO variables of the nest below the loop, in textual order.
    below: Vec<VarId>,
    /// The scalars private to one iteration, in order of first write.
    expand: Vec<VarId>,
    /// The scalar loads the nest executes, all of which become vector
    /// loads.
    loads: i64,
}

/// The DO loop `id`, when it can be sunk to the innermost level of its
/// nest:
/// - (a) it carries no dependence at its own level: no memory one
///   ([`level_carried`]), and every scalar the nest writes is private to
///   one iteration — each of its reads follows a write in the same
///   iteration;
/// - (b) it runs a constant 2 to [`MAX_VL`] trips, and every DO loop in it
///   constant bounds and at least one trip (so no bound reads its
///   variable, and every iteration writes what it wrote before), at most
///   [`NEST_LEVELS`] deep;
/// - (c) its body holds only assignments and DO loops, at least one of
///   each;
/// - (d) with its private scalars expanded, every assignment of the nest
///   is a vector statement over it: the loop variable is read only inside
///   addresses, and every other variable read is an inner DO variable or
///   a register candidate the nest does not write;
/// - (e) it runs more trips than any loop it would move below, so the
///   vectors get longer: a short outer loop over a long inner one is left
///   to the sweep, which vectorizes the inner loop.
fn plan_sink(proc: &Procedure, id: StmtId, opts: &VectorOptions) -> Option<Sink> {
    let StmtKind::DoLoop { body, safe, .. } = &proc.stmts[id] else {
        return None;
    };
    let head = DoHeader::of(&proc.stmts[id], &proc.exprs)?;
    let trips = (head.const_trip_count(&proc.exprs)).filter(|n| (2..=MAX_VL).contains(n))?;
    let lo = proc.exprs.as_int(head.lo)?;
    let mut shape = Shape {
        lv: head.lv,
        body,
        below: Vec::new(),
        written: Vec::new(),
        assigns: 0,
        most_trips: 0,
        loads: 0,
    };
    shape.walk(proc, body, trips, 0)?;
    if shape.below.is_empty() || shape.assigns == 0 || shape.most_trips >= trips {
        return None;
    }
    // an expanded cell is indexed by the iteration, `±(lv − lo)`
    if !shape.written.is_empty() && head.step.abs() != 1 {
        return None;
    }
    if level_carried(proc, body, &head, aliasing(*safe, opts)) {
        return None;
    }
    Some(Sink {
        head,
        lo,
        trips,
        below: shape.below,
        expand: shape.written,
        loads: shape.loads,
    })
}

/// The loads of the tree at `e`.
fn loads_in(proc: &Procedure, e: ExprId) -> i64 {
    let own = i64::from(matches!(proc.exprs[e], Expr::Load { .. }));
    own + (proc.exprs[e].child_ids().iter())
        .map(|&c| loads_in(proc, c))
        .sum::<i64>()
}

/// The walk behind [`plan_sink`]'s (b), (c), (d) and scalar half of (a).
struct Shape<'a> {
    lv: VarId,
    /// The loop's body.
    body: &'a [StmtId],
    below: Vec<VarId>,
    /// The scalars written so far in one iteration, in order of first
    /// write.
    written: Vec<VarId>,
    assigns: usize,
    /// The most trips of any loop below.
    most_trips: i64,
    /// The scalar loads the nest executes.
    loads: i64,
}

impl Shape<'_> {
    /// Walks `block`, whose statements run `runs` times over the nest, at
    /// `depth` loops below the sunk one.
    fn walk(&mut self, proc: &Procedure, block: &[StmtId], runs: i64, depth: usize) -> Option<()> {
        for &s in block {
            match &proc.stmts[s] {
                StmtKind::Assign { lhs, rhs } => {
                    self.assigns += 1;
                    let loads: i64 = proc.stmts[s]
                        .exprs()
                        .iter()
                        .map(|e| loads_in(proc, e))
                        .sum();
                    self.loads = self.loads.saturating_add(runs.saturating_mul(loads));
                    for e in lhs.address_exprs() {
                        self.reads(proc, e, true)?;
                    }
                    self.reads(proc, *rhs, false)?;
                    match *lhs {
                        LValue::Var(v) => {
                            if !self.free_scalar(proc, v) {
                                return None;
                            }
                            if !self.written.contains(&v) {
                                self.written.push(v);
                            }
                        }
                        LValue::Deref {
                            volatile: false, ..
                        } => {}
                        _ => return None,
                    }
                }
                StmtKind::DoLoop { var, body, .. } if depth < NEST_LEVELS => {
                    let head = DoHeader::of(&proc.stmts[s], &proc.exprs)?;
                    proc.exprs.as_int(head.lo)?;
                    let trips = head.const_trip_count(&proc.exprs).filter(|&n| n > 0)?;
                    self.most_trips = self.most_trips.max(trips);
                    if self.written.contains(var) {
                        return None; // assigned before its loop: not private
                    }
                    if !self.below.contains(var) {
                        self.below.push(*var);
                    }
                    self.walk(proc, body, runs.saturating_mul(trips), depth + 1)?;
                }
                _ => return None,
            }
        }
        Some(())
    }

    /// A register candidate that is neither the loop's variable nor one
    /// of the nest's.
    fn free_scalar(&self, proc: &Procedure, v: VarId) -> bool {
        v != self.lv && !self.below.contains(&v) && proc.var(v).is_register_candidate()
    }

    /// Checks the variables `e` reads; `in_address` when `e` is a store's
    /// address, where the loop variable may be read.
    fn reads(&self, proc: &Procedure, e: ExprId, in_address: bool) -> Option<()> {
        match proc.exprs[e] {
            Expr::Load { addr, .. } => return self.reads(proc, addr, true),
            Expr::Var(v) if v == self.lv => return in_address.then_some(()),
            Expr::Var(v) if self.below.contains(&v) => {}
            // a scalar the nest writes must have been written first
            Expr::Var(v) if !self.free_scalar(proc, v) => return None,
            Expr::Var(v) if self.written.contains(&v) => {}
            Expr::Var(v) if defined_in(&proc.stmts, self.body, v) => return None,
            _ => {}
        }
        for c in proc.exprs[e].child_ids() {
            self.reads(proc, c, in_address)?;
        }
        Some(())
    }
}

/// A private scalar expanded into a compiler-made array of one element
/// per iteration of the sunk loop.
struct Cell {
    var: VarId,
    ty: ScalarType,
    /// The address of the iteration's element, `&array + size·step·(lv −
    /// lo)`, as a form in the loop variable.
    form: Affine,
    /// Templates, deep-copied at every use: the element's address and its
    /// load.
    addr: ExprId,
    load: ExprId,
}

/// Gives each of `sink`'s private scalars its array.
fn expand(proc: &mut Procedure, sink: &Sink) -> Vec<Cell> {
    let lv = proc.exprs.var(sink.head.lv);
    let cells = sink.expand.iter().map(|&var| {
        let ty = proc.var_scalar(var);
        let info = VarInfo {
            name: format!("{}_x{}", proc.var(var).name, proc.vars.len()),
            ty: Type::array_of(proc.var(var).ty.clone(), sink.trips as usize),
            storage: Storage::Temp,
            volatile: false,
            addressed: true,
            init: None,
        };
        let array = proc.add_var(info);
        let base = proc.exprs.addr_of(array);
        let size = ty.size() * sink.head.step;
        let form = Affine::new(vec![(base, 1)], size, -size * sink.lo);
        let addr = form.emit(&mut proc.exprs, ScalarType::Ptr, Some(lv));
        let load = proc.exprs.load(addr, ty);
        Cell {
            var,
            ty,
            form,
            addr,
            load,
        }
    });
    cells.collect()
}

/// Collects the DO loops of a nest.
fn nest_loops(proc: &Procedure, block: &[StmtId], out: &mut HashSet<StmtId>) {
    for &s in block {
        if let StmtKind::DoLoop { body, .. } = &proc.stmts[s] {
            out.insert(s);
            nest_loops(proc, body, out);
        }
    }
}

/// The sink's rewrite of the loop `head`'s body: each run of assignments
/// of the nest, its scalars expanded, goes into a loop of its own with the
/// sunk loop's header, where it stood.
fn distribute(
    proc: &mut Procedure,
    body: Block,
    head: &DoHeader,
    cells: &[Cell],
    safe: bool,
    span: SrcSpan,
) -> Block {
    let close = |proc: &mut Procedure, run: &mut Block, out: &mut Block| {
        if run.is_empty() {
            return;
        }
        let (lo, hi) = (proc.exprs.copy(head.lo), proc.exprs.copy(head.hi));
        let step = proc.exprs.int(head.step);
        let kind = StmtKind::DoLoop {
            var: head.lv,
            lo,
            hi,
            step,
            body: std::mem::take(run),
            safe,
        };
        out.push(proc.stamp_at(kind, span));
    };
    let (mut out, mut run) = (Vec::new(), Vec::new());
    for s in body {
        if let StmtKind::DoLoop { body, .. } = &mut proc.stmts[s] {
            let inner = std::mem::take(body);
            close(proc, &mut run, &mut out);
            let inner = distribute(proc, inner, head, cells, safe, span);
            if let StmtKind::DoLoop { body, .. } = &mut proc.stmts[s] {
                *body = inner;
            }
            out.push(s);
            continue;
        }
        replace_reads_with(&proc.stmts, &mut proc.exprs, s, &|v| {
            cells.iter().find(|c| c.var == v).map(|c| c.load)
        });
        if let StmtKind::Assign { lhs, .. } = &mut proc.stmts[s] {
            if let Some(c) = cells.iter().find(|c| *lhs == LValue::Var(c.var)) {
                *lhs = LValue::Deref {
                    addr: proc.exprs.copy(c.addr),
                    ty: c.ty,
                    volatile: false,
                };
            }
        }
        run.push(s);
    }
    close(proc, &mut run, &mut out);
    out
}

/// Accounts for every loop the innermost-DO walk never visits, so the
/// driver's `--opt-report` can classify all source loops: non-innermost DO
/// loops (the vectorizer only considers innermost loops) and `while` loops
/// that survived DO conversion. Spread (`WhileSpread`) and `do parallel`
/// loops are already covered by their own events.
fn sweep_unvisited_loops(proc: &Procedure, done: &HashSet<StmtId>, report: &mut Report) {
    proc.for_each_stmt(&mut |s, kind| match kind {
        StmtKind::DoLoop { var, .. } if !done.contains(&s) => {
            report.loops.push(LoopEvent {
                proc: proc.name.clone(),
                var: proc.var(*var).name.clone(),
                span: proc.stmts.span(s),
                decision: LoopDecision::Scalar(
                    "contains an inner loop (only innermost loops are vectorized)".to_string(),
                ),
            });
        }
        StmtKind::While { .. } => {
            report.loops.push(LoopEvent {
                proc: proc.name.clone(),
                var: String::new(),
                span: proc.stmts.span(s),
                decision: LoopDecision::Scalar(
                    "`while` loop was not converted to DO form".to_string(),
                ),
            });
        }
        _ => {}
    });
}

enum Outcome {
    Vectorized {
        /// Vector statements were wrapped in a strip loop.
        stripped: bool,
        /// The strip loop is a `do parallel`.
        parallel: bool,
        /// Unvectorizable statements stayed in a residual scalar loop.
        residual: bool,
        /// Ids of the compiler-generated strip loops.
        strip_ids: Vec<StmtId>,
        /// What takes the loop's place in its block.
        replacement: Block,
    },
    Spread,
    /// Left scalar; `note` is the full remark, `defeat` just the reason.
    Scalar {
        note: String,
        defeat: String,
    },
}

struct VecStmtPlan {
    lhs_affine: Affine,
    lhs_ty: ScalarType,
    /// The original rhs expression; deep-copied per emitted statement.
    rhs: ExprId,
}

fn try_vectorize_loop(proc: &mut Procedure, id: StmtId, opts: &VectorOptions) -> Outcome {
    let StmtKind::DoLoop {
        var: lv,
        ref body,
        safe,
        ..
    } = proc.stmts[id]
    else {
        unreachable!("try_vectorize_loop called on a non-DO statement");
    };
    let body = body.clone();
    let loop_span = proc.stmts.span(id);
    let lv_name = proc.var(lv).name.clone();
    let proc_name = proc.name.clone();
    let scalar = move |defeat: String| Outcome::Scalar {
        note: format!("{proc_name}: loop on `{lv_name}` left scalar: {defeat}"),
        defeat,
    };
    let Some(head) = DoHeader::of(&proc.stmts[id], &proc.exprs) else {
        return scalar("step is not a nonzero constant".to_string());
    };
    let trips_const = head.const_trip_count(&proc.exprs);
    let graph = DepGraph::build(proc, &body, &head, aliasing(safe, opts));
    let groups = distribution(proc, &body, lv, &graph, safe);
    let any_vector = groups.iter().any(|g| matches!(g, Group::Vector(_)));

    if any_vector && !body.is_empty() {
        let residual = groups.iter().any(|g| matches!(g, Group::Scalar(_)));
        // single-VL case (short constant trip count, no spreading) skips
        // the strip loop; everything else is strip-mined
        let stripped = opts.parallelize || trips_const.is_none_or(|n| n > MAX_VL);
        let mut strip_ids: Vec<StmtId> = Vec::new();
        let mut replacement: Block = Vec::new();
        // a template: every use deep-copies it
        let trips_expr = match trips_const {
            Some(n) => proc.exprs.int(n),
            None => {
                let t = proc.fresh_temp(Type::Int);
                let rhs = head.trips_expression(proc, &body);
                let lhs = LValue::Var(t);
                replacement.push(proc.stamp_at(StmtKind::Assign { lhs, rhs }, loop_span));
                proc.exprs.var(t)
            }
        };
        for group in groups {
            match group {
                Group::Vector(plans) => {
                    if let Some(sid) = emit_vector_group(
                        proc,
                        &body,
                        &head,
                        trips_const,
                        trips_expr,
                        plans,
                        opts,
                        loop_span,
                        &mut replacement,
                    ) {
                        strip_ids.push(sid);
                    }
                }
                Group::Scalar(mut members) => {
                    members.sort_unstable();
                    // the member statements move into the residual loop;
                    // the loop header exprs are deep-copied so no two
                    // reachable statements share expression slots
                    let residual_body: Block = members.iter().map(|&i| body[i]).collect();
                    let lo_c = proc.exprs.copy(head.lo);
                    let hi_c = proc.exprs.copy(head.hi);
                    let step_c = proc.exprs.int(head.step);
                    let st = proc.stamp_at(
                        StmtKind::DoLoop {
                            var: lv,
                            lo: lo_c,
                            hi: hi_c,
                            step: step_c,
                            body: residual_body,
                            safe,
                        },
                        loop_span,
                    );
                    replacement.push(st);
                }
            }
        }
        return Outcome::Vectorized {
            stripped,
            parallel: opts.parallelize,
            residual,
            strip_ids,
            replacement,
        };
    }

    // Loop spreading: independent iterations, nothing pinned.
    let spreadable = opts.parallelize
        && (safe || graph.iterations_independent())
        && !graph.pinned.iter().any(|&p| p);
    if spreadable {
        convert_to_parallel(proc, id);
        return Outcome::Spread;
    }
    scalar(describe_defeat(&graph, safe))
}

/// The aliasing regime of a loop: Fortran's when the user asserted its
/// safety, the options' otherwise.
fn aliasing(safe: bool, opts: &VectorOptions) -> Aliasing {
    if safe {
        Aliasing::Fortran
    } else {
        opts.aliasing
    }
}

/// A run of consecutive components of a loop's dependence graph.
enum Group {
    /// Vector statements, in order.
    Vector(Vec<VecStmtPlan>),
    /// The indices of statements left in a residual scalar loop.
    Scalar(Vec<usize>),
}

/// Allen–Kennedy distribution: classifies each strongly connected
/// component of the dependence graph of `body`; trivial components whose
/// statement is a vectorizable assignment become vector statements, the
/// rest stay in residual scalar loops, all in topological order. Scalar
/// values flowing between statements force them into one component (the
/// conservative scalar edges are cyclic), so distribution never separates
/// a scalar def from its uses. When the user asserted safety, memory
/// dependence edges are waived.
fn distribution(
    proc: &Procedure,
    body: &[StmtId],
    lv: VarId,
    graph: &DepGraph,
    safe: bool,
) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for comp in graph.sccs() {
        let plan = match comp[..] {
            [i] if !graph.pinned[i] && (safe || !graph.has_carried_self_cycle(i)) => {
                plan_stmt(proc, body, lv, body[i])
            }
            _ => None,
        };
        match plan {
            Some(p) => match groups.last_mut() {
                Some(Group::Vector(v)) => v.push(p),
                _ => groups.push(Group::Vector(vec![p])),
            },
            None => match groups.last_mut() {
                Some(Group::Scalar(v)) => v.extend(comp.iter().copied()),
                _ => groups.push(Group::Scalar(comp)),
            },
        }
    }
    groups
}

/// True when every statement of `body`, as the body of the DO loop
/// `head`, would become a vector statement.
pub(crate) fn vectorizes_whole(
    proc: &Procedure,
    body: &[StmtId],
    head: &DoHeader,
    safe: bool,
    opts: &VectorOptions,
) -> bool {
    let graph = DepGraph::build(proc, body, head, aliasing(safe, opts));
    let groups = distribution(proc, body, head.lv, &graph, safe);
    !body.is_empty() && groups.iter().all(|g| matches!(g, Group::Vector(_)))
}

/// Names the first construct or dependence that kept the loop scalar, in
/// the order the vectorizer gives up: pinned statements, carried
/// self-dependences, multi-statement dependence cycles, and finally
/// statements that are simply not vector assignments.
fn describe_defeat(graph: &DepGraph, safe: bool) -> String {
    if let Some(i) = graph.pinned.iter().position(|&p| p) {
        return format!(
            "statement {i} is pinned (call, goto, volatile access, \
             nested control flow, or non-affine subscript)"
        );
    }
    if !safe {
        if let Some(e) = graph.edges.iter().find(|e| {
            e.from == e.to && e.carried && matches!(e.kind, DepKind::True | DepKind::Output)
        }) {
            let kind = match e.kind {
                DepKind::True => "flow",
                DepKind::Anti => "anti",
                DepKind::Output => "output",
            };
            let via = if e.scalar { " through a scalar" } else { "" };
            let dist = match e.verdict {
                Verdict::Distance(d) => format!(" at distance {d}"),
                _ => String::new(),
            };
            return format!(
                "loop-carried {kind} dependence of statement {} on itself{via}{dist}",
                e.from
            );
        }
    }
    if let Some(c) = graph.sccs().iter().find(|c| c.len() > 1) {
        if let Some(e) = graph
            .edges
            .iter()
            .find(|e| e.carried && c.contains(&e.from) && c.contains(&e.to))
        {
            let kind = match e.kind {
                DepKind::True => "flow",
                DepKind::Anti => "anti",
                DepKind::Output => "output",
            };
            return format!(
                "dependence cycle among statements {c:?} (carried {kind} dependence \
                 from statement {} to statement {})",
                e.from, e.to
            );
        }
        return format!("dependence cycle among statements {c:?}");
    }
    "no statement in the body is a vectorizable assignment".to_string()
}

/// Checks one statement and extracts its vector plan.
fn plan_stmt(proc: &Procedure, body: &[StmtId], lv: VarId, s: StmtId) -> Option<VecStmtPlan> {
    let (lhs, rhs) = match &proc.stmts[s] {
        StmtKind::Assign { lhs, rhs } => (lhs, *rhs),
        _ => return None,
    };
    let (addr, ty) = match lhs {
        LValue::Deref {
            addr,
            ty,
            volatile: false,
        } => (*addr, *ty),
        _ => return None,
    };
    let lhs_affine = decompose(proc, body, lv, addr)?;
    if lhs_affine.coeff == 0 {
        return None; // same cell every iteration
    }
    if !rhs_vectorizable(proc, body, lv, rhs) {
        return None;
    }
    Some(VecStmtPlan {
        lhs_affine,
        lhs_ty: ty,
        rhs,
    })
}

/// The rhs is elementwise-evaluable: loads are affine or invariant,
/// scalars are invariant, and the loop variable appears only inside load
/// addresses.
fn rhs_vectorizable(proc: &Procedure, body: &[StmtId], lv: VarId, e: ExprId) -> bool {
    match proc.exprs[e] {
        Expr::Load {
            addr,
            volatile: false,
            ..
        } => decompose(proc, body, lv, addr).is_some(),
        Expr::Load { .. } | Expr::Section { .. } => false,
        Expr::Var(v) => v != lv && !defined_in(&proc.stmts, body, v),
        Expr::AddrOf(_) | Expr::IntConst(_) | Expr::FloatConst(..) => true,
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => rhs_vectorizable(proc, body, lv, arg),
        Expr::Binary { lhs, rhs, .. } => {
            rhs_vectorizable(proc, body, lv, lhs) && rhs_vectorizable(proc, body, lv, rhs)
        }
    }
}

/// Emits the strip-mined vector construct for one run of vectorizable
/// statements, appending to `replacement`. Returns the id of the strip
/// loop when one was created, so the caller can mark it visited.
#[allow(clippy::too_many_arguments)]
fn emit_vector_group(
    proc: &mut Procedure,
    body: &[StmtId],
    head: &DoHeader,
    trips_const: Option<i64>,
    trips_expr: ExprId,
    plans: Vec<VecStmtPlan>,
    opts: &VectorOptions,
    loop_span: SrcSpan,
    replacement: &mut Block,
) -> Option<StmtId> {
    let single_ok = !opts.parallelize && trips_const.is_some_and(|n| n <= MAX_VL);
    if single_ok {
        let zero = proc.exprs.int(0);
        for plan in &plans {
            let kind = vector_assign(proc, body, head, plan, zero, trips_expr);
            let st = proc.stamp_at(kind, loop_span);
            replacement.push(st);
        }
        return None;
    }
    // strip loop: ks = 0 .. trips-1 step VL; len = min(VL, trips-ks)
    let vl = if opts.parallelize { opts.strip } else { MAX_VL };
    let ks = proc.fresh_temp(Type::Int);
    proc.var_mut(ks).name = format!("vi_{}", ks.index());
    let t_len = proc.fresh_temp(Type::Int);
    proc.var_mut(t_len).name = format!("vl_{}", t_len.index());
    let mut inner: Block = Vec::new();
    let vl_c = proc.exprs.int(vl);
    let trips_c = proc.exprs.copy(trips_expr);
    let ks_read = proc.exprs.var(ks);
    let rem = proc.exprs.ibinary(BinOp::Sub, trips_c, ks_read);
    let len_rhs = proc.exprs.ibinary(BinOp::Min, vl_c, rem);
    titanc_il::fold_expr(&mut proc.exprs, len_rhs);
    let len_assign = proc.stamp_at(
        StmtKind::Assign {
            lhs: LValue::Var(t_len),
            rhs: len_rhs,
        },
        loop_span,
    );
    inner.push(len_assign);
    let origin = proc.exprs.var(ks);
    let len = proc.exprs.var(t_len);
    for plan in &plans {
        let kind = vector_assign(proc, body, head, plan, origin, len);
        let st = proc.stamp_at(kind, loop_span);
        inner.push(st);
    }
    let last = Affine::new(vec![(trips_expr, 1)], 0, -1);
    let hi_expr = last.emit(&mut proc.exprs, ScalarType::Int, None);
    let lo_expr = proc.exprs.int(0);
    let step_expr = proc.exprs.int(vl);
    let kind = if opts.parallelize {
        StmtKind::DoParallel {
            var: ks,
            lo: lo_expr,
            hi: hi_expr,
            step: step_expr,
            body: inner,
        }
    } else {
        StmtKind::DoLoop {
            var: ks,
            lo: lo_expr,
            hi: hi_expr,
            step: step_expr,
            body: inner,
            safe: true,
        }
    };
    let sid = proc.stamp_at(kind, loop_span);
    replacement.push(sid);
    Some(sid)
}

/// Builds the vector assignment for one plan at a strip origin.
fn vector_assign(
    proc: &mut Procedure,
    body: &[StmtId],
    head: &DoHeader,
    plan: &VecStmtPlan,
    origin: ExprId,
    len: ExprId,
) -> StmtKind {
    let base = plan.lhs_affine.emit_at(proc, body, head, Some(origin));
    let len_c = proc.exprs.copy(len);
    let stride = proc.exprs.int(plan.lhs_affine.coeff * head.step);
    let lhs = LValue::Section {
        base,
        len: len_c,
        stride,
        ty: plan.lhs_ty,
    };
    let rhs = proc.exprs.copy(plan.rhs);
    rewrite_loads(proc, body, head, origin, len, rhs);
    StmtKind::Assign { lhs, rhs }
}

/// Replaces every varying affine load in the (freshly copied) rhs tree
/// with a section, rewriting slots in place; invariant loads stay scalar
/// with their address rebuilt at `lv = lo`.
fn rewrite_loads(
    proc: &mut Procedure,
    body: &[StmtId],
    head: &DoHeader,
    origin: ExprId,
    len: ExprId,
    e: ExprId,
) {
    if let Expr::Load {
        addr,
        ty,
        volatile: false,
    } = proc.exprs[e]
    {
        if let Some(aff) = decompose(proc, body, head.lv, addr) {
            if aff.coeff != 0 {
                let base = aff.emit_at(proc, body, head, Some(origin));
                let len_c = proc.exprs.copy(len);
                let stride = proc.exprs.int(aff.coeff * head.step);
                proc.exprs[e] = Expr::Section {
                    base,
                    len: len_c,
                    stride,
                    ty,
                };
                return;
            }
            // invariant load: rebuild its address at lv = lo so the loop
            // variable does not leak into the vector statement
            let new_addr = aff.emit_at(proc, body, head, None);
            proc.exprs[addr] = proc.exprs[new_addr];
            return;
        }
    }
    for c in proc.exprs[e].child_ids() {
        rewrite_loads(proc, body, head, origin, len, c);
    }
}

fn convert_to_parallel(proc: &mut Procedure, id: StmtId) {
    if let StmtKind::DoLoop {
        var,
        lo,
        hi,
        step,
        body,
        ..
    } = std::mem::replace(&mut proc.stmts[id], StmtKind::Nop)
    {
        proc.stmts[id] = StmtKind::DoParallel {
            var,
            lo,
            hi,
            step,
            body,
        };
    }
}
