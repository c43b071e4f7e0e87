//! Local common-subexpression elimination.
//!
//! The §6 reduction algorithm "utilizes the array dependence graph to
//! simultaneously reduce expensive operations, remove loop invariant
//! expressions, and eliminate common subexpressions"; and §11 notes the
//! front end can be sloppy "secure in the knowledge that … subexpression
//! elimination will undo any damage". Address CSE across loop iterations
//! lives in `titanc-vector`'s strength reduction; this pass catches the
//! straight-line case: a pure subexpression computed twice within a block
//! is computed once into a temporary.
//!
//! Only *pure register expressions* participate (no loads, no volatile, no
//! sections): they can be hoisted to the first occurrence without regard
//! to memory effects. Candidate windows end at control-flow statements and
//! at redefinitions of any variable the expression reads.
//!
//! Candidates are compared *structurally* ([`ExprPool::expr_eq`]), so the
//! arena layout of equal subtrees is irrelevant; the commoned definition
//! gets a detached deep copy of the subtree so later slot rewrites of the
//! occurrences cannot disturb it.

use crate::util::register_candidate;
use titanc_il::visit::edit_blocks;
use titanc_il::{Block, Expr, ExprId, ExprPool, LValue, Procedure, StmtId, StmtKind, Type, VarId};

/// CSE statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CseReport {
    /// Subexpressions commoned into temporaries.
    pub commoned: usize,
    /// Individual occurrences replaced.
    pub replaced: usize,
}

impl CseReport {
    /// Folds another report's counts into this one (used by the pass
    /// manager to aggregate per-pass deltas).
    pub fn merge(&mut self, other: CseReport) {
        self.commoned += other.commoned;
        self.replaced += other.replaced;
    }
}

titanc_il::struct_json!(CseReport, [commoned, replaced]);

/// Runs local CSE over every block of the procedure.
pub fn local_cse(proc: &mut Procedure) -> CseReport {
    let mut report = CseReport::default();
    edit_blocks(proc, &mut |proc, block| run_block(proc, block, &mut report));
    if report.commoned > 0 || report.replaced > 0 {
        proc.bump_generation();
    }
    report
}

fn is_barrier(kind: &StmtKind) -> bool {
    matches!(
        kind,
        StmtKind::Label(_)
            | StmtKind::Goto(_)
            | StmtKind::IfGoto { .. }
            | StmtKind::Call { .. }
            | StmtKind::Return(_)
    )
}

/// Commons within one block, the blocks nested in it already done.
fn run_block(proc: &mut Procedure, block: &mut Block, report: &mut CseReport) {
    let mut i = 0;
    while i < block.len() {
        if is_barrier(&proc.stmts[block[i]]) {
            i += 1;
            continue;
        }
        // candidate subexpressions of statement i, largest first
        let mut cands: Vec<ExprId> = Vec::new();
        for e in proc.stmts[block[i]].exprs() {
            collect_candidates(&proc.exprs, e, &mut cands);
        }
        cands.sort_by_key(|&e| std::cmp::Reverse(proc.exprs.size(e)));
        let mut did = false;
        for cand in cands {
            if try_common(proc, block, i, cand, report) {
                did = true;
                break; // statement i changed; rescan it
            }
        }
        if !did {
            i += 1;
        }
    }
}

/// Pure, load-free subexpressions worth commoning (size ≥ 3).
fn collect_candidates(exprs: &ExprPool, e: ExprId, out: &mut Vec<ExprId>) {
    if exprs.size(e) >= 3
        && is_pure_register_expr(exprs, e)
        && !out.iter().any(|&o| exprs.expr_eq(o, exprs, e))
    {
        out.push(e);
    }
    for c in exprs[e].child_ids() {
        collect_candidates(exprs, c, out);
    }
}

fn is_pure_register_expr(exprs: &ExprPool, e: ExprId) -> bool {
    match exprs[e] {
        Expr::Load { .. } | Expr::Section { .. } => false,
        _ => exprs[e]
            .child_ids()
            .into_iter()
            .all(|c| is_pure_register_expr(exprs, c)),
    }
}

/// Counts occurrences of `cand` in an expression tree.
fn count_occurrences(exprs: &ExprPool, e: ExprId, cand: ExprId) -> usize {
    let mine = usize::from(exprs.expr_eq(e, exprs, cand));
    mine + exprs[e]
        .child_ids()
        .into_iter()
        .map(|c| count_occurrences(exprs, c, cand))
        .sum::<usize>()
}

fn replace_occurrences(exprs: &mut ExprPool, e: ExprId, cand: ExprId, t: VarId) -> usize {
    if exprs.expr_eq(e, exprs, cand) {
        exprs[e] = Expr::Var(t);
        return 1;
    }
    let mut n = 0;
    for c in exprs[e].child_ids() {
        n += replace_occurrences(exprs, c, cand, t);
    }
    n
}

/// Tries to common `cand`, first occurring in statement `start`, across
/// its valid window. Returns true when a rewrite happened.
fn try_common(
    proc: &mut Procedure,
    block: &mut Block,
    start: usize,
    cand_orig: ExprId,
    report: &mut CseReport,
) -> bool {
    let deps: Vec<VarId> = proc.exprs.vars_read(cand_orig);
    if deps.iter().any(|&v| !register_candidate(proc, v)) {
        return false;
    }
    // window: statements start..end where no dep is redefined and no
    // barrier intervenes (the defining statement itself may redefine a dep
    // — occurrences in later statements then see a different value)
    let mut end = start;
    let mut total = 0usize;
    for (j, &s) in block.iter().enumerate().skip(start) {
        if j > start && is_barrier(&proc.stmts[s]) {
            break;
        }
        // count occurrences in this statement (top-level exprs only; the
        // nested blocks of an If/loop may execute conditionally but the
        // candidate is pure, so replacing there is still sound as long as
        // deps are not redefined inside)
        let nested_safe = proc.stmts[s].blocks().iter().all(|b| {
            deps.iter()
                .all(|&v| !crate::util::defined_in(&proc.stmts, b, v))
        });
        if !nested_safe {
            // stop before descending into a block that redefines deps
            total += proc.stmts[s]
                .exprs()
                .iter()
                .map(|e| count_occurrences(&proc.exprs, e, cand_orig))
                .sum::<usize>();
            end = j;
            break;
        }
        total += count_in_stmt(proc, s, cand_orig);
        end = j;
        if deps.iter().any(|&v| proc.stmts[s].defined_var() == Some(v)) {
            break;
        }
    }
    if total < 2 {
        return false;
    }

    // materialize: t = cand, inserted before `start`. The definition keeps
    // a detached deep copy so replacing the occurrences (including the
    // original subtree) cannot corrupt it.
    let scalar = proc.exprs.result_type(cand_orig, &|v| proc.var_scalar(v));
    let t = proc.fresh_temp(match scalar {
        titanc_il::ScalarType::Char => Type::Char,
        titanc_il::ScalarType::Int => Type::Int,
        titanc_il::ScalarType::Float => Type::Float,
        titanc_il::ScalarType::Double => Type::Double,
        titanc_il::ScalarType::Ptr => Type::ptr_to(Type::Void),
    });
    proc.var_mut(t).name = format!("cse_{}", t.index());
    let cand = proc.exprs.copy(cand_orig);
    let def = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(t),
        rhs: cand,
    });
    let mut replaced = 0;
    for &s in block.iter().take(end + 1).skip(start) {
        replaced += replace_in_stmt(proc, s, cand, t);
        if deps.iter().any(|&v| proc.stmts[s].defined_var() == Some(v)) {
            break;
        }
    }
    block.insert(start, def);
    report.commoned += 1;
    report.replaced += replaced;
    true
}

fn count_in_stmt(proc: &Procedure, s: StmtId, cand: ExprId) -> usize {
    let mut n: usize = proc.stmts[s]
        .exprs()
        .iter()
        .map(|e| count_occurrences(&proc.exprs, e, cand))
        .sum();
    for b in proc.stmts[s].blocks() {
        for &inner in b {
            n += count_in_stmt(proc, inner, cand);
        }
    }
    n
}

fn replace_in_stmt(proc: &mut Procedure, s: StmtId, cand: ExprId, t: VarId) -> usize {
    let mut n = 0;
    for e in proc.stmts[s].exprs() {
        n += replace_occurrences(&mut proc.exprs, e, cand, t);
    }
    let nested: Vec<StmtId> = proc.stmts[s]
        .blocks()
        .iter()
        .flat_map(|b| b.iter().copied())
        .collect();
    for inner in nested {
        n += replace_in_stmt(proc, inner, cand, t);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::pretty_proc;
    use titanc_lower::compile_to_il;

    fn cse(src: &str) -> (Procedure, CseReport) {
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        let rep = local_cse(&mut proc);
        (proc, rep)
    }

    #[test]
    fn commons_repeated_arithmetic() {
        let (proc, rep) = cse(
            "int f(int a, int b) { int x, y; x = (a + b) * 2; y = (a + b) * 2 + 1; return x + y; }",
        );
        assert_eq!(rep.commoned, 1, "{}", pretty_proc(&proc));
        assert_eq!(rep.replaced, 2);
        let text = pretty_proc(&proc);
        assert!(text.contains("cse_"), "{text}");
    }

    #[test]
    fn stops_at_redefinition() {
        let (_proc, rep) = cse(
            "int f(int a, int b) { int x, y; x = a + b + 1; a = 0; y = a + b + 1; return x + y; }",
        );
        assert_eq!(rep.commoned, 0, "a changed between the occurrences");
    }

    #[test]
    fn loads_are_not_commoned_here() {
        let (_proc, rep) = cse("int f(int *p) { int x, y; x = *p + 1; y = *p + 1; return x + y; }");
        assert_eq!(rep.commoned, 0, "memory expressions are out of scope");
    }

    #[test]
    fn single_occurrence_untouched() {
        let (proc, rep) = cse("int f(int a, int b) { return (a + b) * 3; }");
        assert_eq!(rep.commoned, 0);
        assert_eq!(proc.len(), 1);
    }

    #[test]
    fn equivalence_on_simulator() {
        let src = r#"
int out_g[2];
int main(void)
{
    int a, b, x, y;
    a = 6; b = 7;
    x = (a * b) + (a * b);
    y = (a * b) * 2;
    out_g[0] = x;
    out_g[1] = y;
    return x - y;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut opt = prog.clone();
        let rep = local_cse(&mut opt.procs[0]);
        assert!(rep.commoned >= 1);
        let g = [("out_g", titanc_il::ScalarType::Int, 2)];
        let cfg = titanc_titan::MachineConfig::default;
        let (b, _) = titanc_titan::observe(&prog, cfg(), "main", &g).unwrap();
        let (a, _) = titanc_titan::observe(&opt, cfg(), "main", &g).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn volatile_untouched() {
        let (_proc, rep) =
            cse("volatile int s; int f(void) { int x, y; x = s + 1; y = s + 1; return x + y; }");
        assert_eq!(rep.commoned, 0, "volatile reads must both happen");
    }
}
