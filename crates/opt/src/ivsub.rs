//! Induction-variable substitution (§5.3).
//!
//! The C front end turns pointer walks like `*a++ = *b++;` into chains of
//! copy temporaries and pointer increments. This pass finds each *auxiliary
//! induction variable* — a variable advanced by a loop-invariant amount
//! exactly once per iteration, possibly through those copies — and rewrites
//! every use as an explicit affine function of the DO-loop counter, after
//! which the walking pointer itself is dead and the subscript is visible to
//! dependence analysis.
//!
//! The paper's *blocking/backtracking* heuristic appears here as a
//! worklist: an induction-variable candidate whose increment reads another
//! candidate (or whose uses are still hidden behind an unsubstituted copy)
//! is *blocked*; each time a variable is substituted, the candidates it
//! blocked are re-examined. Backtracking therefore only happens when it is
//! guaranteed to make progress, and the common case is a single pass —
//! worst case `n` passes over the loop (§5.3).
//!
//! Arena discipline: the loop bounds and increment referenced by the plan
//! are subtrees of the surviving loop header/body, so every derived affine
//! tree is built from *deep copies*; the per-occurrence copies made by
//! [`titanc_il::ExprPool::substitute_var`] keep replacement sites disjoint.

use crate::affine::DoHeader;
use crate::util::{invariant_in, replace_reads, step_of, Step};
use titanc_il::visit::{edit_tree, Order};
use titanc_il::{
    BinOp, Block, Count, Expr, ExprId, ExprPool, LValue, Procedure, Report, ScalarType, StmtId,
    StmtKind, Type, VarId,
};

/// Resource budget: maximum scan passes per loop (worst case is `n`
/// passes for a body of `n` statements, §5.3). Hitting the cap is sound —
/// substitution simply stops early — but is reported so the driver can
/// emit a remark.
pub const MAX_PASSES: usize = 64;

/// Runs induction-variable substitution on every DO loop of the procedure.
/// The report counts scan passes and backtracks (EXP6) and holds one event
/// per loop where at least one auxiliary induction variable was removed;
/// their payloads sum to the variables substituted away.
pub fn induction_substitution(proc: &mut Procedure) -> Report {
    let mut report = Report::default();
    // innermost-first (postorder) with the block in hand: a substitution
    // puts its snapshot and finalization beside the loop without searching
    // for it from the procedure root
    edit_tree(proc, Order::Post, &mut |proc, block, mut i| {
        if matches!(
            proc.stmts[block[i]],
            StmtKind::DoLoop { .. } | StmtKind::DoParallel { .. }
        ) {
            substitute_in_loop(proc, block, &mut i, &mut report);
        }
        i + 1
    });
    if !report.loops.is_empty() {
        proc.bump_generation();
    }
    report
}

/// An identified auxiliary induction variable and its step (whose
/// increment is a subtree of the body's step statement).
struct Candidate {
    v: VarId,
    step: Step,
}

/// Substitutes in the loop at `block[*pos]`; `*pos` follows the loop as
/// snapshots are inserted before it.
fn substitute_in_loop(
    proc: &mut Procedure,
    block: &mut Block,
    pos: &mut usize,
    report: &mut Report,
) {
    // repeat until no candidate substitutes; the worklist effect of
    // blocking/backtracking is realized by the re-scan, and `backtracks`
    // counts successes after the first pass.
    let mut pass = 0usize;
    let mut loop_subs = 0usize;
    loop {
        pass += 1;
        report.add(Count::IvsubPasses, 1);
        let subs = one_pass(proc, block, pos);
        loop_subs += subs;
        if pass > 1 {
            report.add(Count::IvsubBacktracks, subs);
        }
        if subs == 0 {
            break;
        }
        // guard: worst case n passes (n = body length)
        if pass >= MAX_PASSES {
            report.add(Count::IvsubBudgetHit, 1);
            break;
        }
    }
    if loop_subs > 0 {
        let loop_id = block[*pos];
        let var = match &proc.stmts[loop_id] {
            StmtKind::DoLoop { var, .. } | StmtKind::DoParallel { var, .. } => {
                proc.var(*var).name.clone()
            }
            _ => String::new(),
        };
        report.loops.push(titanc_il::LoopEvent {
            proc: proc.name.clone(),
            var,
            span: proc.stmts.span(loop_id),
            decision: titanc_il::LoopDecision::IvSubstituted {
                substituted: loop_subs,
            },
        });
    }
}

/// Performs one scan over the loop at `block[*pos]`, substituting every
/// currently-unblocked candidate. Returns the number substituted.
fn one_pass(proc: &mut Procedure, block: &mut Block, pos: &mut usize) -> usize {
    // a symbolic stride: no substitution
    let Some(head) = DoHeader::of(&proc.stmts[block[*pos]], &proc.exprs) else {
        return 0;
    };
    let body = proc.stmts[block[*pos]].blocks()[0].clone();
    if !invariant_in(proc, &body, head.lo) || !invariant_in(proc, &body, head.hi) {
        return 0;
    }
    let candidates = find_candidates(proc, head.lv, &body);
    for cand in &candidates {
        apply_candidate(proc, block, pos, &head, &body, cand);
    }
    candidates.len()
}

/// Finds unblocked candidates: each integer or pointer register variable
/// other than the loop variable `lv` with a [`step_of`] whose increment is
/// loop-invariant. A float sum is no candidate: `k` additions of `c` need
/// not round to `k * c`.
fn find_candidates(proc: &Procedure, lv: VarId, body: &[StmtId]) -> Vec<Candidate> {
    let mut out = Vec::new();
    for &s in body {
        let v = match proc.stmts[s].defined_var() {
            Some(v)
                if v != lv
                    && proc.var(v).is_register_candidate()
                    && !proc.var_scalar(v).is_float() =>
            {
                v
            }
            _ => continue,
        };
        // a variable defined twice fails at each definition
        let Ok(step) = step_of(proc, body, v) else {
            continue;
        };
        // the increment must be invariant; if it reads another candidate
        // the candidate is blocked — it will be re-examined next pass.
        // Note the loop variable is defined by the DO header, not by a
        // body statement, so it needs an explicit check.
        let reads_either = |n: &Expr| matches!(*n, Expr::Var(w) if w == lv || w == v);
        if proc.exprs.any(step.c, reads_either) || !invariant_in(proc, body, step.c) {
            continue;
        }
        out.push(Candidate { v, step });
    }
    out
}

/// The iteration-index expression `k` = (lv - lo) / step, simplified for
/// unit strides. Builds a fresh tree (deep-copying `lo`).
fn iteration_index(exprs: &mut ExprPool, head: &DoHeader) -> ExprId {
    let lv = exprs.var(head.lv);
    let lo = exprs.copy(head.lo);
    let k = match head.step {
        1 => exprs.ibinary(BinOp::Sub, lv, lo),
        -1 => exprs.ibinary(BinOp::Sub, lo, lv),
        s => {
            let diff = exprs.ibinary(BinOp::Sub, lv, lo);
            let sc = exprs.int(s);
            exprs.ibinary(BinOp::Div, diff, sc)
        }
    };
    titanc_il::fold::fold_expr(exprs, k);
    k
}

/// Materializes the signed increment as a fresh tree.
fn make_inc(exprs: &mut ExprPool, step: &Step) -> ExprId {
    let c = exprs.copy(step.c);
    match step.positive {
        true => c,
        false => exprs.unary(titanc_il::UnOp::Neg, ScalarType::Int, c),
    }
}

/// Substitutes one candidate: uses before the increment read
/// `v0 + k*c`, uses after it read `v0 + (k+1)*c`; `v0` snapshots the entry
/// value before the loop and a finalization after the loop restores `v` for
/// any later readers (dead-code elimination removes both when unused).
/// The loop is `block[*pos]`; the snapshot goes in before it (moving
/// `*pos` along) and the finalization right after it.
fn apply_candidate(
    proc: &mut Procedure,
    block: &mut Block,
    pos: &mut usize,
    head: &DoHeader,
    body: &[StmtId],
    cand: &Candidate,
) {
    let kind = proc.var_scalar(cand.v);
    let v0 = proc.fresh_temp(match kind {
        ScalarType::Ptr => Type::ptr_to(Type::Void),
        ScalarType::Int => Type::Int,
        ScalarType::Char => Type::Char,
        ScalarType::Float => Type::Float,
        ScalarType::Double => Type::Double,
    });
    // three independent affine trees (templates): each gets its own
    // copies of lo/hi/inc so no slots are shared between them
    let affine = |exprs: &mut ExprPool, iters: ExprId, inc: ExprId| {
        let v0e = exprs.var(v0);
        let mul = exprs.ibinary(BinOp::Mul, iters, inc);
        let e = exprs.binary(BinOp::Add, kind, v0e, mul);
        titanc_il::fold::fold_expr(exprs, e);
        e
    };
    let pre_value = {
        let k = iteration_index(&mut proc.exprs, head);
        let inc = make_inc(&mut proc.exprs, &cand.step);
        affine(&mut proc.exprs, k, inc)
    };
    let post_value = {
        let k = iteration_index(&mut proc.exprs, head);
        let one = proc.exprs.int(1);
        let k1 = proc.exprs.ibinary(BinOp::Add, k, one);
        let inc = make_inc(&mut proc.exprs, &cand.step);
        affine(&mut proc.exprs, k1, inc)
    };
    let final_value = {
        let t = head.trips_expression(proc, body);
        let inc = make_inc(&mut proc.exprs, &cand.step);
        affine(&mut proc.exprs, t, inc)
    };

    let v_read = proc.exprs.var(cand.v);
    let pre_stmt = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(v0),
        rhs: v_read,
    });
    let final_stmt = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(cand.v),
        rhs: final_value,
    });

    // rewrite the loop body in place
    let (stmts, exprs) = (&proc.stmts, &mut proc.exprs);
    if let StmtKind::DoLoop { body, .. } | StmtKind::DoParallel { body, .. } = &stmts[block[*pos]] {
        for (p, &inner) in body.iter().enumerate() {
            let value = if p <= cand.step.pos {
                pre_value
            } else {
                post_value
            };
            replace_reads(stmts, exprs, inner, cand.v, value);
        }
    }
    block.insert(*pos, pre_stmt);
    block.insert(*pos + 2, final_stmt);
    *pos += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whiledo::convert_while_loops;
    use titanc_il::pretty_proc;
    use titanc_lower::compile_to_il;

    fn substituted(rep: &Report) -> usize {
        titanc_il::LoopDecision::ivs_substituted(&rep.loops)
    }

    fn prep(src: &str) -> Procedure {
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        convert_while_loops(&mut proc);
        proc
    }

    #[test]
    fn substitutes_pointer_walk() {
        let mut proc =
            prep("void copy(float *a, float *b, int n) { while (n) { *a++ = *b++; n--; } }");
        let rep = induction_substitution(&mut proc);
        // a, b and n are all auxiliary induction variables
        assert_eq!(substituted(&rep), 3, "{}", pretty_proc(&proc));
        let text = pretty_proc(&proc);
        // the walking pointers are replaced by affine expressions of the
        // dummy counter
        assert!(text.contains("dummy"), "{text}");
    }

    #[test]
    fn single_pass_for_simple_loops() {
        let mut proc = prep("void f(float *a, int n) { int i; for (i = 0; i < n; i++) *a++ = 0; }");
        let rep = induction_substitution(&mut proc);
        assert!(substituted(&rep) >= 1);
        // substitution finishes in one productive pass + one empty pass
        assert!(
            rep.get(Count::IvsubPasses) <= 4,
            "passes = {}",
            rep.get(Count::IvsubPasses)
        );
    }

    #[test]
    fn preserves_semantics_upcount() {
        let src = r#"
float out_x[16];
int main(void)
{
    float *p;
    int i;
    p = &out_x[0];
    for (i = 0; i < 16; i++) {
        *p++ = i * 2.0f;
    }
    return (int)out_x[15];
}
"#;
        check_equivalence(src);
    }

    #[test]
    fn preserves_semantics_countdown() {
        let src = r#"
float out_x[16];
int main(void)
{
    float *p;
    int n;
    p = &out_x[0];
    n = 16;
    while (n) {
        *p++ = n * 1.0f;
        n--;
    }
    return (int)out_x[15];
}
"#;
        check_equivalence(src);
    }

    #[test]
    fn preserves_semantics_variable_still_used_after_loop() {
        // p is read after the loop: finalization must restore it
        let src = r#"
float out_x[8];
int main(void)
{
    float *p, *base;
    int i;
    base = &out_x[0];
    p = base;
    for (i = 0; i < 8; i++)
        *p++ = i;
    return (int)(p - base);
}
"#;
        check_equivalence(src);
    }

    #[test]
    fn zero_trip_loop_finalization_is_correct() {
        let src = r#"
float out_x[8];
int main(void)
{
    float *p, *base;
    int i, n;
    n = 0;
    base = &out_x[0];
    p = base;
    for (i = 0; i < n; i++)
        *p++ = i;
    return (int)(p - base);
}
"#;
        check_equivalence(src);
    }

    #[test]
    fn derived_candidate_needs_second_pass() {
        // q depends on p's increment; p substitutes first, unblocking
        // nothing here but exercising the rescan
        let src = r#"
float out_x[8];
int main(void)
{
    float *p;
    int i, stride;
    stride = 1;
    p = &out_x[0];
    for (i = 0; i < 8; i++) {
        *p = i;
        p = p + stride;
    }
    return (int)out_x[7];
}
"#;
        check_equivalence(src);
    }

    fn check_equivalence(src: &str) {
        let prog = compile_to_il(src).unwrap();
        let mut opt_prog = prog.clone();
        convert_while_loops(&mut opt_prog.procs[0]);
        let rep = induction_substitution(&mut opt_prog.procs[0]);
        let cfg = titanc_titan::MachineConfig::default;
        let (before, _) =
            titanc_titan::observe(&prog, cfg(), "main", &[("out_x", ScalarType::Float, 8)])
                .unwrap();
        let (after, _) =
            titanc_titan::observe(&opt_prog, cfg(), "main", &[("out_x", ScalarType::Float, 8)])
                .unwrap_or_else(|e| {
                    panic!(
                        "optimized program failed: {e}\n{}",
                        pretty_proc(&opt_prog.procs[0])
                    )
                });
        assert_eq!(
            before,
            after,
            "report {rep:?}\n{}",
            pretty_proc(&opt_prog.procs[0])
        );
    }
}
