//! Linked-list loop spreading — the §10 future-work extension.
//!
//! "A prime example of such a loop is code that operates on a linked list.
//! Such a loop cannot be vectorized with any benefit, but it can be spread
//! across multiple processors by pulling the code for moving to the next
//! element into the serialized portion of the parallel loop. … This
//! enhancement … does require an assumption that each motion down a
//! pointer goes to independent storage."
//!
//! The transformation recognizes `while (p) { work…; p = p->next; }` —
//! after lowering, a single pointer-typed definition `p = *(p + c)`
//! (possibly through a front-end copy temporary) — and rewrites the loop
//! into [`titanc_il::StmtKind::WhileSpread`]: the chase serializes, the
//! work distributes. The independent-storage assumption is the user's to
//! make, so the pass only runs when explicitly enabled.

use titanc_il::visit::{edit_tree, Order};
use titanc_il::{
    Expr, ExprId, LoopDecision, LoopEvent, Procedure, Report, ScalarType, StmtId, StmtKind, VarId,
};
use titanc_opt::util::{count_reads_block, resolve_copy, sole_def};

/// Converts eligible pointer-chasing `while` loops into spread form,
/// reporting one event per loop converted to `WhileSpread`.
pub fn spread_list_loops(proc: &mut Procedure) -> Report {
    let mut report = Report::default();
    edit_tree(proc, Order::Pre, &mut |proc, block, i| {
        let id = block[i];
        if let StmtKind::While { cond, body, .. } = &proc.stmts[id] {
            if let Some(plan) = analyze(proc, *cond, body) {
                report.loops.push(LoopEvent {
                    proc: proc.name.clone(),
                    var: proc.var(plan.p).name.clone(),
                    span: proc.stmts.span(id),
                    decision: LoopDecision::ListSpread,
                });
                apply(proc, id, plan);
            }
        }
        i
    });
    if !report.loops.is_empty() {
        proc.bump_generation();
    }
    report
}

struct Plan {
    /// the chased pointer (the loop's controlling variable)
    p: VarId,
    /// indices of body statements forming the serialized chase
    serial: Vec<usize>,
}

fn analyze(proc: &Procedure, cond: ExprId, body: &[StmtId]) -> Option<Plan> {
    // condition: p (pointer) or p != 0
    let p = match proc.exprs[cond] {
        Expr::Var(v) => v,
        Expr::Binary {
            op: titanc_il::BinOp::Ne,
            lhs,
            rhs,
            ..
        } => match (proc.exprs[lhs], proc.exprs.as_int(rhs)) {
            (Expr::Var(v), Some(0)) => v,
            _ => return None,
        },
        _ => return None,
    };
    if !proc.var(p).is_register_candidate() || proc.var_scalar(p) != ScalarType::Ptr {
        return None;
    }
    // the body must be straight-line assignments/ifs (no calls, gotos,
    // labels, returns, volatile, nested loops)
    if !body.iter().all(|&s| structured_enough(proc, s)) {
        return None;
    }
    // exactly one definition of p, at top level: p = Load(addr) where the
    // address reads (a copy of) p — the pointer chase
    let def_pos = sole_def(&proc.stmts, body, p).ok()?;
    let chase_ok = match &proc.stmts[body[def_pos]] {
        StmtKind::Assign { rhs, .. } => match proc.exprs[*rhs] {
            Expr::Load {
                addr,
                volatile: false,
                ..
            } => proc
                .exprs
                .vars_read(addr)
                .iter()
                .any(|&w| resolve_copy(proc, body, def_pos, w) == p),
            _ => false,
        },
        _ => false,
    };
    if !chase_ok {
        return None;
    }

    // the serial part: the chase plus the copy chains feeding it
    let mut serial = vec![def_pos];
    let mut needed: Vec<VarId> = proc.stmts[body[def_pos]]
        .exprs()
        .iter()
        .flat_map(|e| proc.exprs.vars_read(e))
        .collect();
    for i in (0..def_pos).rev() {
        if let Some(v) = proc.stmts[body[i]].defined_var() {
            if needed.contains(&v) && proc.var(v).is_register_candidate() {
                serial.push(i);
                needed.extend(
                    proc.stmts[body[i]]
                        .exprs()
                        .iter()
                        .flat_map(|e| proc.exprs.vars_read(e)),
                );
            }
        }
    }
    serial.sort_unstable();

    // parallel-part safety: each scalar defined by the work must be
    // iteration-private — never read before its own definition and never
    // read by the chase or the condition (accumulations disqualify)
    for (i, &s) in body.iter().enumerate() {
        if serial.contains(&i) {
            continue;
        }
        if let Some(v) = proc.stmts[s].defined_var() {
            if v == p || !proc.var(v).is_register_candidate() {
                continue;
            }
            if proc.exprs.any(cond, |n| *n == Expr::Var(v)) {
                return None;
            }
            if serial.iter().any(|&j| {
                proc.stmts[body[j]]
                    .exprs()
                    .iter()
                    .any(|e| proc.exprs.any(e, |n| *n == Expr::Var(v)))
            }) {
                return None;
            }
            // read before def inside the work?
            let read_before: usize = body[..=i]
                .iter()
                .enumerate()
                .filter(|(j, _)| !serial.contains(j))
                .map(|(j, &t)| {
                    if j == i {
                        // reads in the defining statement's own rhs are a
                        // carried use unless it is a plain overwrite
                        proc.stmts[t]
                            .exprs()
                            .iter()
                            .map(|e| proc.exprs.vars_read(e).iter().filter(|&&w| w == v).count())
                            .sum()
                    } else {
                        count_reads_block(&proc.stmts, &proc.exprs, std::slice::from_ref(&t), v)
                    }
                })
                .sum();
            if read_before > 0 {
                return None;
            }
        }
    }
    Some(Plan { p, serial })
}

fn structured_enough(proc: &Procedure, s: StmtId) -> bool {
    match &proc.stmts[s] {
        StmtKind::Assign { .. } => !proc.stmts[s].has_volatile_access(&proc.exprs),
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            !proc.stmts[s].has_volatile_access(&proc.exprs)
                && then_blk.iter().all(|&c| structured_enough(proc, c))
                && else_blk.iter().all(|&c| structured_enough(proc, c))
        }
        _ => false,
    }
}

fn apply(proc: &mut Procedure, id: StmtId, plan: Plan) {
    if let StmtKind::While { cond, body, .. } =
        std::mem::replace(&mut proc.stmts[id], StmtKind::Nop)
    {
        let mut parallel = Vec::new();
        let mut serial = Vec::new();
        for (i, inner) in body.into_iter().enumerate() {
            if plan.serial.contains(&i) {
                serial.push(inner);
            } else {
                parallel.push(inner);
            }
        }
        proc.stmts[id] = StmtKind::WhileSpread {
            cond,
            parallel,
            serial,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::pretty_proc;
    use titanc_lower::compile_to_il;

    const LIST_SRC: &str = r#"
struct node { float v; float out; struct node *next; };
struct node pool[64];
void build(void)
{
    int i;
    for (i = 0; i < 63; i++) {
        pool[i].v = i;
        pool[i].next = &pool[i + 1];
    }
    pool[63].v = 63;
    pool[63].next = (struct node *)0;
}
void work(struct node *p)
{
    while (p) {
        p->out = p->v * 2.0f + 1.0f;
        p = p->next;
    }
}
int main(void)
{
    build();
    work(&pool[0]);
    return (int)pool[63].out;
}
"#;

    #[test]
    fn spreads_list_walk() {
        let prog = compile_to_il(LIST_SRC).unwrap();
        let mut proc = prog.proc_by_name("work").unwrap().clone();
        let rep = spread_list_loops(&mut proc);
        assert_eq!(rep.loops.len(), 1, "{}", pretty_proc(&proc));
        let text = pretty_proc(&proc);
        assert!(text.contains("while spread"), "{text}");
        assert!(text.contains("next:"), "{text}");
    }

    #[test]
    fn spread_preserves_semantics_and_divides_work() {
        let prog = compile_to_il(LIST_SRC).unwrap();
        let mut opt = prog.clone();
        {
            let w = opt.proc_by_name_mut("work").unwrap();
            let rep = spread_list_loops(w);
            assert_eq!(rep.loops.len(), 1);
        }
        let g = [("pool", titanc_il::ScalarType::Float, 8)];
        let base =
            titanc_titan::observe(&prog, titanc_titan::MachineConfig::optimized(1), "main", &g)
                .unwrap();
        let one =
            titanc_titan::observe(&opt, titanc_titan::MachineConfig::optimized(1), "main", &g)
                .unwrap();
        let four =
            titanc_titan::observe(&opt, titanc_titan::MachineConfig::optimized(4), "main", &g)
                .unwrap();
        assert_eq!(base.0, one.0, "semantics preserved");
        assert_eq!(base.0, four.0);
        assert!(
            four.1.cycles < one.1.cycles,
            "four processors beat one: {} !< {}",
            four.1.cycles,
            one.1.cycles
        );
    }

    #[test]
    fn accumulation_is_not_spread() {
        let src = r#"
struct node { float v; struct node *next; };
float total;
void sum(struct node *p)
{
    float s;
    s = 0.0f;
    while (p) {
        s = s + p->v;
        p = p->next;
    }
    total = s;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.proc_by_name("sum").unwrap().clone();
        let rep = spread_list_loops(&mut proc);
        assert_eq!(rep.loops.len(), 0, "accumulator is loop-carried");
    }

    #[test]
    fn counted_loops_are_left_for_the_vectorizer() {
        let src = "void f(float *a, int n) { while (n) { *a++ = 0; n--; } }";
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        let rep = spread_list_loops(&mut proc);
        assert_eq!(rep.loops.len(), 0, "int countdown is not a pointer chase");
    }

    #[test]
    fn loops_with_calls_are_not_spread() {
        let src = r#"
struct node { float v; struct node *next; };
void visit(float v);
void f(struct node *p)
{
    while (p) {
        visit(p->v);
        p = p->next;
    }
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        let rep = spread_list_loops(&mut proc);
        assert_eq!(rep.loops.len(), 0);
    }
}
