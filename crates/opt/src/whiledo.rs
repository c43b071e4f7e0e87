//! Conversion of `while` loops into Fortran-style DO loops (§5.2).
//!
//! The C front end represents `for` loops as `while` loops, so this
//! conversion is what makes counted C loops eligible for vectorization. It
//! runs *immediately after use–def chains are constructed* and consults the
//! control-flow graph to reject loops that branches enter (§5.2's two
//! stated requirements).
//!
//! A loop converts when its condition compares a register-candidate
//! induction variable against a loop-invariant bound (or tests it against
//! zero, the paper's `i = n; while (i) { … i = temp - s; }` form), and the
//! body advances the variable by a loop-invariant step exactly once per
//! iteration — possibly through the copy temporaries the front end
//! introduces. The body is left untouched: a fresh *dummy* counter drives
//! the iteration, exactly as in the paper's example, and induction-variable
//! substitution plus dead-code elimination subsequently clean up the
//! original variable.
//!
//! Arena discipline: the bound and step expressions referenced by the plan
//! are subtrees of the surviving loop body, so the rewritten `DoLoop`
//! header takes *deep copies* — sharing the slots would let a later body
//! rewrite silently change the header.

use crate::util::{defined_in, invariant_in, resolve_copy};
use titanc_analysis::{loops, Cfg, ProcAnalyses};
use titanc_il::visit::{edit_tree, Order};
use titanc_il::{
    BinOp, Expr, ExprId, LValue, LoopDecision, LoopEvent, Procedure, Reject, Report, ScalarType,
    StmtId, StmtKind, Type, VarId,
};

/// Converts every eligible `while` loop of the procedure into a `DoLoop`,
/// reporting one event per `while` loop: converted, or rejected with its
/// [`Reject`] reason.
pub fn convert_while_loops(proc: &mut Procedure) -> Report {
    convert_while_loops_cached(proc, &mut ProcAnalyses::new())
}

/// Cache-aware while→DO conversion: the §5.2 *incremental repair*.
///
/// The CFG is built **once** (through the analysis cache) and reused
/// across every conversion of the procedure, exactly as the paper repairs
/// its one set of use–def chains instead of reanalyzing. The reuse is
/// sound because a conversion replaces the `While` header with two
/// loop-invariant assignments and a `DoLoop` (all with fresh statement
/// ids) and moves the body wholesale: surviving statement ids, labels,
/// and goto edges are untouched, and preorder processing guarantees no
/// later `While` has converted code in its subtree — so
/// [`Cfg::has_branch_into`] answers identically on the original graph.
/// Each conversion bumps the procedure's generation, so downstream passes
/// see the cache invalidate instead of a stale graph.
pub fn convert_while_loops_cached(proc: &mut Procedure, analyses: &mut ProcAnalyses) -> Report {
    let mut report = Report::default();
    let mut converted = false;
    let cfg = analyses.cfg(proc);
    // preorder with the block in hand: each `While` is decided before the
    // loops nested in it, and a conversion splices its three statements in
    // where the `While` stood; decisions only ever look at the subtree of
    // the loop they are about
    edit_tree(proc, Order::Pre, &mut |proc, block, i| {
        let s = block[i];
        if !matches!(proc.stmts[s], StmtKind::While { .. }) {
            return i;
        }
        let span = proc.stmts.span(s);
        if converted {
            // reusing the CFG past a mutation is the repaired-analysis path
            analyses.note_repair();
        }
        let (var, decision, at) = match analyze(proc, &cfg, s) {
            Ok(plan) => {
                let var = proc.var(plan.iv).name.clone();
                block.splice(i..=i, apply(proc, s, span, plan));
                proc.bump_generation();
                converted = true;
                (var, LoopDecision::DoConverted, i + 2)
            }
            Err(r) => (String::new(), LoopDecision::DoRejected(r), i),
        };
        report.loops.push(LoopEvent {
            proc: proc.name.clone(),
            var,
            span,
            decision,
        });
        at
    });
    report
}

struct Plan {
    iv: VarId,
    hi_adjust: i64,
    /// The bound expression (a subtree of the surviving condition) —
    /// `None` encodes a zero bound (`while (v)` form).
    bound: Option<ExprId>,
    step: StepPlan,
    safe: bool,
}

/// How to materialize the DO step. Expression variants reference subtrees
/// of the surviving body; [`apply`] deep-copies them.
enum StepPlan {
    Const(i64),
    Expr(ExprId),
    NegExpr(ExprId),
}

/// The induction step found in the body: `iv = iv ± c`.
struct StepInfo {
    positive: bool,
    c: ExprId,
}

fn analyze(proc: &Procedure, cfg: &Cfg, w: StmtId) -> Result<Plan, Reject> {
    let (cond, body, safe) = match &proc.stmts[w] {
        StmtKind::While { cond, body, safe } => (*cond, body.clone(), *safe),
        _ => unreachable!("analyze called on non-while"),
    };
    if proc.exprs.any(cond, Expr::is_volatile_load) {
        return Err(Reject::VolatileCond);
    }
    if loops::has_return(&proc.stmts, w) {
        return Err(Reject::HasReturn);
    }
    if loops::has_branch_out(&proc.stmts, w) {
        return Err(Reject::BranchOut);
    }
    if cfg.has_branch_into(proc, w) {
        return Err(Reject::BranchInto);
    }

    // Parse the condition into (iv, relation, bound).
    let (iv, rel, bound) = parse_condition(proc, &body, cond)?;
    if !proc.var(iv).is_register_candidate() {
        return Err(Reject::NotCandidate);
    }
    if let Some(b) = bound {
        if !invariant_in(proc, &body, b) {
            return Err(Reject::VaryingBound);
        }
    }

    // Find the unique once-per-iteration step of iv.
    let step = find_step(proc, &body, iv)?;
    if !invariant_in(proc, &body, step.c) {
        return Err(Reject::VaryingStep);
    }

    // Direction analysis.
    let c_const = proc.exprs.as_int(step.c);
    let step_plan;
    let hi_adjust;
    match rel {
        BinOp::Lt | BinOp::Le => {
            // needs a positive step
            if !step.positive {
                return Err(Reject::Direction);
            }
            step_plan = StepPlan::Expr(step.c);
            hi_adjust = if rel == BinOp::Lt { -1 } else { 0 };
        }
        BinOp::Gt | BinOp::Ge => {
            if step.positive {
                return Err(Reject::Direction);
            }
            step_plan = StepPlan::NegExpr(step.c);
            hi_adjust = if rel == BinOp::Gt { 1 } else { 0 };
        }
        BinOp::Ne => {
            // `while (i != b)` (and `while (i)` as b = 0).
            if step.positive {
                // counting up: must step by exactly 1 to hit b
                if c_const != Some(1) {
                    return Err(Reject::Direction);
                }
                step_plan = StepPlan::Const(1);
                hi_adjust = -1;
            } else {
                // counting down. The paper's form: `DO dummy = n, 1, -s`
                // (termination of the original loop implies s divides the
                // distance, so the trip counts agree).
                let bound_is_zero = bound.is_none_or(|b| proc.exprs.as_int(b) == Some(0));
                if !bound_is_zero && c_const != Some(1) {
                    return Err(Reject::Direction);
                }
                step_plan = StepPlan::NegExpr(step.c);
                hi_adjust = 1;
            }
        }
        _ => return Err(Reject::CondForm),
    }

    Ok(Plan {
        iv,
        hi_adjust,
        bound,
        step: step_plan,
        safe,
    })
}

/// Parses the loop condition into `(iv, relation, bound)`, normalizing so
/// the variable is on the left. A `None` bound means zero.
fn parse_condition(
    proc: &Procedure,
    body: &[StmtId],
    cond: ExprId,
) -> Result<(VarId, BinOp, Option<ExprId>), Reject> {
    match proc.exprs[cond] {
        Expr::Var(v) => Ok((v, BinOp::Ne, None)),
        Expr::Binary { op, lhs, rhs, .. } if op.is_comparison() => {
            // prefer the side that is stepped in the body
            let lv = as_var(proc, lhs);
            let rv = as_var(proc, rhs);
            let l_step = lv.map(|v| find_step(proc, body, v));
            let r_step = rv.map(|v| find_step(proc, body, v));
            if let (Some(v), Some(Ok(_))) = (lv, &l_step) {
                return Ok((v, op, Some(rhs)));
            }
            if let (Some(v), Some(Ok(_))) = (rv, &r_step) {
                return Ok((v, flip(op), Some(lhs)));
            }
            // propagate the more specific failure when a side looked like
            // an induction variable but was stepped conditionally
            for st in [l_step, r_step].into_iter().flatten() {
                if let Err(Reject::MultipleSteps) = st {
                    return Err(Reject::MultipleSteps);
                }
            }
            Err(Reject::NoStep)
        }
        _ => Err(Reject::CondForm),
    }
}

fn as_var(proc: &Procedure, e: ExprId) -> Option<VarId> {
    match proc.exprs[e] {
        Expr::Var(v) => Some(v),
        _ => None,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Finds the unique top-level step `iv = iv ± c` (possibly via front-end
/// copy temporaries) in the body. The returned `c` is a subtree of the
/// body's step statement.
fn find_step(proc: &Procedure, body: &[StmtId], iv: VarId) -> Result<StepInfo, Reject> {
    // nested (conditional) definitions disqualify
    for &s in body {
        if proc.stmts[s]
            .blocks()
            .iter()
            .any(|b| defined_in(&proc.stmts, b, iv))
        {
            return Err(Reject::MultipleSteps);
        }
    }
    let defs: Vec<(usize, StmtId)> = body
        .iter()
        .enumerate()
        .filter(|(_, &s)| proc.stmts[s].defined_var() == Some(iv))
        .map(|(i, &s)| (i, s))
        .collect();
    match defs.as_slice() {
        [] => Err(Reject::NoStep),
        [(pos, s)] => {
            if let StmtKind::Assign {
                lhs: LValue::Var(_),
                rhs,
            } = &proc.stmts[*s]
            {
                if let Expr::Binary { op, lhs, rhs, .. } = proc.exprs[*rhs] {
                    let l_origin = as_var(proc, lhs).map(|v| resolve_copy(proc, body, *pos, v));
                    let r_origin = as_var(proc, rhs).map(|v| resolve_copy(proc, body, *pos, v));
                    return match op {
                        BinOp::Add if l_origin == Some(iv) => Ok(StepInfo {
                            positive: true,
                            c: rhs,
                        }),
                        BinOp::Add if r_origin == Some(iv) => Ok(StepInfo {
                            positive: true,
                            c: lhs,
                        }),
                        BinOp::Sub if l_origin == Some(iv) => Ok(StepInfo {
                            positive: false,
                            c: rhs,
                        }),
                        _ => Err(Reject::NoStep),
                    };
                }
            }
            Err(Reject::NoStep)
        }
        _ => Err(Reject::MultipleSteps),
    }
}

/// Builds the replacement of the while statement — `t_lo = iv;
/// t_hi = bound±adj; DO dummy = t_lo, t_hi, step { body }` — moving the
/// body out of the `While`, whose slot is left a `Nop`.
fn apply(
    proc: &mut Procedure,
    while_id: StmtId,
    span: titanc_il::SrcSpan,
    plan: Plan,
) -> [StmtId; 3] {
    let dummy = proc.fresh_temp(Type::Int);
    proc.var_mut(dummy).name = format!("dummy_{}", dummy.index());
    let t_lo = proc.fresh_temp(Type::Int);
    let t_hi = proc.fresh_temp(Type::Int);

    // materialize all header expressions up front; bound and step come
    // from surviving subtrees, so they are deep-copied out
    let iv_kind = proc.var_scalar(plan.iv);
    let iv_read = proc.exprs.var(plan.iv);
    let lo_rhs = proc.exprs.cast(ScalarType::Int, iv_kind, iv_read);
    let lo_assign = proc.stamp_at(
        StmtKind::Assign {
            lhs: LValue::Var(t_lo),
            rhs: lo_rhs,
        },
        span,
    );
    let mut hi_rhs = match plan.bound {
        Some(b) => proc.exprs.copy(b),
        None => proc.exprs.int(0),
    };
    if plan.hi_adjust != 0 {
        let adj = proc.exprs.int(plan.hi_adjust);
        hi_rhs = proc.exprs.ibinary(BinOp::Add, hi_rhs, adj);
    }
    titanc_il::fold::fold_expr(&mut proc.exprs, hi_rhs);
    let hi_assign = proc.stamp_at(
        StmtKind::Assign {
            lhs: LValue::Var(t_hi),
            rhs: hi_rhs,
        },
        span,
    );
    let step = match plan.step {
        StepPlan::Const(c) => proc.exprs.int(c),
        StepPlan::Expr(c) => proc.exprs.copy(c),
        StepPlan::NegExpr(c) => match proc.exprs.as_int(c) {
            Some(v) => proc.exprs.int(-v),
            None => {
                let cc = proc.exprs.copy(c);
                proc.exprs.unary(titanc_il::UnOp::Neg, ScalarType::Int, cc)
            }
        },
    };
    let lo_read = proc.exprs.var(t_lo);
    let hi_read = proc.exprs.var(t_hi);

    let StmtKind::While { body, safe, .. } =
        std::mem::replace(&mut proc.stmts[while_id], StmtKind::Nop)
    else {
        unreachable!("apply called on non-while");
    };
    let do_stmt = proc.stamp_at(
        StmtKind::DoLoop {
            var: dummy,
            lo: lo_read,
            hi: hi_read,
            step,
            body,
            safe: safe || plan.safe,
        },
        span,
    );
    [lo_assign, hi_assign, do_stmt]
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_lower::compile_to_il;

    fn convert(src: &str) -> (Procedure, Report) {
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        let report = convert_while_loops(&mut proc);
        (proc, report)
    }

    fn converted(rep: &Report) -> usize {
        let converted = rep
            .loops
            .iter()
            .filter(|e| e.decision == LoopDecision::DoConverted);
        converted.count()
    }

    fn rejects(rep: &Report) -> Vec<Reject> {
        let reasons = rep.loops.iter().filter_map(|e| match e.decision {
            LoopDecision::DoRejected(r) => Some(r),
            _ => None,
        });
        reasons.collect()
    }

    fn first_do(proc: &Procedure) -> Option<StmtKind> {
        let mut found = None;
        proc.for_each_stmt(&mut |_, k| {
            if found.is_none() && matches!(k, StmtKind::DoLoop { .. }) {
                found = Some(k.clone());
            }
        });
        found
    }

    #[test]
    fn converts_canonical_for_loop() {
        let (proc, rep) =
            convert("void f(float *a, int n) { int i; for (i = 0; i < n; i++) a[i] = 0; }");
        assert_eq!(converted(&rep), 1, "{:?}", rep.loops);
        let d = first_do(&proc).unwrap();
        if let StmtKind::DoLoop { step, .. } = &d {
            assert_eq!(proc.exprs.as_int(*step), Some(1));
        }
    }

    #[test]
    fn converts_paper_countdown_with_symbolic_stride() {
        // §5.2's example: i = n; while (i) { … temp = i; i = temp - s; }
        let src = r#"
void f(int n, int s)
{
    int i, temp;
    i = n;
    while (i) {
        temp = i;
        i = temp - s;
    }
}
"#;
        let (proc, rep) = convert(src);
        assert_eq!(converted(&rep), 1, "{:?}", rep.loops);
        let d = first_do(&proc).unwrap();
        if let StmtKind::DoLoop { step, .. } = &d {
            assert!(
                matches!(proc.exprs[*step], Expr::Unary { .. }),
                "negated symbolic stride"
            );
        }
    }

    #[test]
    fn converts_pointer_walk_countdown() {
        let (proc, rep) =
            convert("void copy(float *a, float *b, int n) { while (n) { *a++ = *b++; n--; } }");
        assert_eq!(converted(&rep), 1, "{:?}", rep.loops);
        let d = first_do(&proc).unwrap();
        if let StmtKind::DoLoop { step, .. } = &d {
            assert_eq!(proc.exprs.as_int(*step), Some(-1));
        }
    }

    #[test]
    fn rejects_branch_into_loop() {
        let src = r#"
void f(int n)
{
    if (n > 5) goto inside;
    while (n) {
inside:
        n = n - 1;
    }
}
"#;
        let (_proc, rep) = convert(src);
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::BranchInto);
    }

    #[test]
    fn rejects_break_out() {
        let (_p, rep) = convert("void f(int n) { while (n) { if (n == 3) break; n--; } }");
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::BranchOut);
    }

    #[test]
    fn rejects_varying_bound() {
        let (_p, rep) =
            convert("void f(int n, int b) { int i; for (i = 0; i < b; i++) { b = b - 1; } }");
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::VaryingBound);
    }

    #[test]
    fn rejects_varying_stride() {
        let (_p, rep) =
            convert("void f(int n, int s) { int i; for (i = 0; i < n; i += s) { s = s + 1; } }");
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::VaryingStep);
    }

    #[test]
    fn rejects_volatile_condition() {
        let (_p, rep) = convert("volatile int status; void f(void) { while (!status); }");
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::VolatileCond);
    }

    #[test]
    fn rejects_conditional_step() {
        let (_p, rep) =
            convert("void f(int n, int c) { int i; i = 0; while (i < n) { if (c) i = i + 1; } }");
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::MultipleSteps);
    }

    #[test]
    fn rejects_linked_list_walk() {
        // a true while loop: pointer chasing has no recognizable step
        let src = r#"
struct node { int v; struct node *next; };
void f(struct node *p) { while (p) { p = p->next; } }
"#;
        let (_p, rep) = convert(src);
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::NoStep);
    }

    #[test]
    fn rejects_return_inside() {
        let (_p, rep) =
            convert("int f(int n) { while (n) { if (n == 2) return 1; n--; } return 0; }");
        assert_eq!(converted(&rep), 0);
        assert!(rejects(&rep)
            .iter()
            .any(|r| matches!(r, Reject::HasReturn | Reject::BranchOut)));
    }

    #[test]
    fn converts_ge_countdown() {
        let (proc, rep) =
            convert("void f(float *a, int n) { int i; for (i = n; i >= 0; i--) a[i] = 0; }");
        assert_eq!(converted(&rep), 1, "{:?}", rep.loops);
        let d = first_do(&proc).unwrap();
        if let StmtKind::DoLoop { step, .. } = &d {
            assert_eq!(proc.exprs.as_int(*step), Some(-1));
        }
    }

    #[test]
    fn rejects_wrong_direction() {
        let (_p, rep) = convert("void f(int n) { int i; for (i = 0; i < n; i--) { ; } }");
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::Direction);
    }

    #[test]
    fn ne_condition_requires_unit_step() {
        let (_p, rep) = convert("void f(int n) { int i; for (i = 0; i != n; i += 2) { ; } }");
        assert_eq!(converted(&rep), 0);
        assert_eq!(rejects(&rep)[0], Reject::Direction);
        let (_p2, rep2) = convert("void f(int n) { int i; for (i = 0; i != n; i++) { ; } }");
        assert_eq!(converted(&rep2), 1);
    }

    #[test]
    fn nested_loops_both_convert() {
        let src = r#"
void f(float *a, int n, int m)
{
    int i, j;
    for (i = 0; i < n; i++)
        for (j = 0; j < m; j++)
            a[i * m + j] = 0;
}
"#;
        let (_p, rep) = convert(src);
        assert_eq!(converted(&rep), 2, "{:?}", rep.loops);
    }

    #[test]
    fn safe_pragma_survives_conversion() {
        let src =
            "void f(float *a, float *b, int n) {\n#pragma safe\nwhile (n) { *a++ = *b++; n--; } }";
        let (proc, rep) = convert(src);
        assert_eq!(converted(&rep), 1);
        let d = first_do(&proc).unwrap();
        assert!(matches!(d, StmtKind::DoLoop { safe: true, .. }));
    }

    #[test]
    fn conversion_preserves_semantics() {
        // executed on the simulator before and after
        let src = r#"
int out_g[1];
int main(void)
{
    int i, s;
    s = 0;
    for (i = 0; i < 10; i++)
        s += i * i;
    out_g[0] = s;
    return s;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut opt_prog = prog.clone();
        let rep = convert_while_loops(&mut opt_prog.procs[0]);
        assert_eq!(converted(&rep), 1);
        let cfg = titanc_titan::MachineConfig::default;
        let (before, _) =
            titanc_titan::observe(&prog, cfg(), "main", &[("out_g", ScalarType::Int, 1)]).unwrap();
        let (after, _) =
            titanc_titan::observe(&opt_prog, cfg(), "main", &[("out_g", ScalarType::Int, 1)])
                .unwrap();
        assert_eq!(before, after);
    }
}
