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

use std::collections::HashSet;
use titanc_deps::{
    const_trip_count, decompose, trips_expression, Aliasing, DepGraph, DepKind, Verdict,
};
use titanc_il::visit::{edit_tree, Order};
use titanc_il::{
    BinOp, Block, Expr, ExprId, LValue, LoopDecision, LoopEvent, Procedure, Report, ScalarType,
    SrcSpan, StmtId, StmtKind, Type, VarId,
};
use titanc_opt::util::defined_in;

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

/// Vectorizes every innermost DO loop of the procedure. The report holds
/// one decision event for every loop of the procedure — visited innermost
/// loops (vectorized / parallelized / scalar-with-reason) plus the
/// end-of-pass sweep over loops the vectorizer never considers
/// (non-innermost DO loops, unconverted `while` loops) — and one note per
/// innermost loop left scalar.
pub fn vectorize(proc: &mut Procedure, opts: &VectorOptions) -> Report {
    let mut report = Report::default();
    let mut changed = false;
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
        if holds_loop || !done.insert(id) {
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
    lhs_affine: titanc_deps::Affine,
    lhs_ty: ScalarType,
    /// The original rhs expression; deep-copied per emitted statement.
    rhs: ExprId,
}

fn try_vectorize_loop(proc: &mut Procedure, id: StmtId, opts: &VectorOptions) -> Outcome {
    let StmtKind::DoLoop {
        var: lv,
        lo,
        hi,
        step: step_e,
        ref body,
        safe,
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
    let step = match proc.exprs.as_int(step_e) {
        Some(s) if s != 0 => s,
        _ => return scalar("step is not a nonzero constant".to_string()),
    };
    let trips_const = const_trip_count(&proc.exprs, lo, hi, step_e);
    let aliasing = if safe {
        Aliasing::Fortran
    } else {
        opts.aliasing
    };
    let lo_const = proc.exprs.as_int(lo);
    let graph = DepGraph::build_for_loop(proc, &body, lv, lo_const, step, trips_const, aliasing);

    // When the user asserted safety, memory dependence edges are waived.
    let blocking_cycle = |i: usize| !safe && graph.has_carried_self_cycle(i);

    // Allen–Kennedy distribution: classify each strongly connected
    // component of the dependence graph; trivial components whose
    // statement is a vectorizable assignment become vector statements, the
    // rest stay in residual scalar loops, all emitted in topological
    // order. Scalar values flowing between statements force them into one
    // component (the conservative scalar edges are cyclic), so
    // distribution never separates a scalar def from its uses.
    let sccs = graph.sccs();
    enum Group {
        Vector(Vec<VecStmtPlan>),
        Scalar(Vec<usize>),
    }
    let mut groups: Vec<Group> = Vec::new();
    for comp in &sccs {
        let plan = if comp.len() == 1 {
            let i = comp[0];
            if graph.pinned[i] || blocking_cycle(i) {
                None
            } else {
                plan_stmt(proc, &body, lv, body[i])
            }
        } else {
            None
        };
        match plan {
            Some(p) => match groups.last_mut() {
                Some(Group::Vector(v)) => v.push(p),
                _ => groups.push(Group::Vector(vec![p])),
            },
            None => match groups.last_mut() {
                Some(Group::Scalar(v)) => v.extend(comp.iter().copied()),
                _ => groups.push(Group::Scalar(comp.clone())),
            },
        }
    }
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
                let rhs = trips_expression(proc, &body, lv, lo, hi, step);
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
                        lv,
                        &body,
                        lo,
                        step,
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
                    let lo_c = proc.exprs.copy(lo);
                    let hi_c = proc.exprs.copy(hi);
                    let step_c = proc.exprs.copy(step_e);
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
    scalar(describe_defeat(&graph, &sccs, safe))
}

/// Names the first construct or dependence that kept the loop scalar, in
/// the order the vectorizer gives up: pinned statements, carried
/// self-dependences, multi-statement dependence cycles, and finally
/// statements that are simply not vector assignments.
fn describe_defeat(graph: &DepGraph, sccs: &[Vec<usize>], safe: bool) -> String {
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
    if let Some(c) = sccs.iter().find(|c| c.len() > 1) {
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
    lv: VarId,
    body: &[StmtId],
    lo: ExprId,
    step: i64,
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
            let kind = vector_assign(proc, body, lv, lo, step, plan, zero, trips_expr);
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
        let kind = vector_assign(proc, body, lv, lo, step, plan, origin, len);
        let st = proc.stamp_at(kind, loop_span);
        inner.push(st);
    }
    let trips_c2 = proc.exprs.copy(trips_expr);
    let one = proc.exprs.int(1);
    let hi_expr = proc.exprs.ibinary(BinOp::Sub, trips_c2, one);
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
#[allow(clippy::too_many_arguments)]
fn vector_assign(
    proc: &mut Procedure,
    body: &[StmtId],
    lv: VarId,
    lo: ExprId,
    step: i64,
    plan: &VecStmtPlan,
    origin: ExprId,
    len: ExprId,
) -> StmtKind {
    let base = plan
        .lhs_affine
        .emit_at(proc, body, lv, lo, step, Some(origin));
    let len_c = proc.exprs.copy(len);
    let stride = proc.exprs.int(plan.lhs_affine.coeff * step);
    let lhs = LValue::Section {
        base,
        len: len_c,
        stride,
        ty: plan.lhs_ty,
    };
    let rhs = proc.exprs.copy(plan.rhs);
    rewrite_loads(proc, body, lv, lo, step, origin, len, rhs);
    StmtKind::Assign { lhs, rhs }
}

/// Replaces every varying affine load in the (freshly copied) rhs tree
/// with a section, rewriting slots in place; invariant loads stay scalar
/// with their address rebuilt at `lv = lo`.
#[allow(clippy::too_many_arguments)]
fn rewrite_loads(
    proc: &mut Procedure,
    body: &[StmtId],
    lv: VarId,
    lo: ExprId,
    step: i64,
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
        if let Some(aff) = decompose(proc, body, lv, addr) {
            if aff.coeff != 0 {
                let base = aff.emit_at(proc, body, lv, lo, step, Some(origin));
                let len_c = proc.exprs.copy(len);
                let stride = proc.exprs.int(aff.coeff * step);
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
            let new_addr = aff.emit_at(proc, body, lv, lo, step, None);
            proc.exprs[addr] = proc.exprs[new_addr];
            return;
        }
    }
    for c in proc.exprs[e].child_ids() {
        rewrite_loads(proc, body, lv, lo, step, origin, len, c);
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
