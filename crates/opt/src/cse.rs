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
//! at redefinitions of any variable the expression reads. A statement whose
//! nested blocks redefine one (a DO loop's own variable counts) lends the
//! window only its own expressions, and a `while` lends not even its
//! condition, which reruns after the body.
//!
//! Loads stay out. The damage §11 means for them, `forward` copying a
//! load-bearing `E` while `x = E` stays live, is not undone here but
//! refused in `forward`, which is how §6's backsolve keeps
//! `t = E; *(p) = t` after strength reduction.
//!
//! Candidates are compared *structurally* ([`ExprPool::expr_eq`]), so the
//! arena layout of equal subtrees is irrelevant; the commoned definition
//! gets a detached deep copy of the subtree so later slot rewrites of the
//! occurrences cannot disturb it. What comparison, size order and purity
//! test would re-derive by recursion at every node is a `Shape` per
//! node, computed bottom-up once for the procedure and kept current along
//! the path of every replacement.

use titanc_il::visit::{edit_blocks, walk_block};
use titanc_il::{
    Block, Count, Expr, ExprId, ExprPool, LValue, Procedure, Report, StmtId, StmtKind, StmtPool,
    Type, VarId,
};

/// Runs local CSE over every block of the procedure.
pub fn local_cse(proc: &mut Procedure) -> Report {
    let mut report = Report::default();
    let mut cse = Cse::of(proc);
    edit_blocks(proc, &mut |proc, block| {
        cse.run_block(proc, block, &mut report)
    });
    if report.get(Count::CseCommoned) > 0 {
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

/// The subtree under one expression node: a hash equal for structurally
/// equal subtrees (`expr_eq` still decides), [`ExprPool::size`], and "no
/// load and no section" — a pure register expression.
#[derive(Clone, Copy, Default)]
struct Shape {
    hash: u64,
    size: u32,
    pure: bool,
}

/// The state of one run.
struct Cse {
    /// By `ExprId` index; current for every node a statement reaches.
    shape: Vec<Shape>,
    /// `defs[from..to]`, `(from, to)` being `nested[s]`: the variables
    /// defined in the blocks nested in statement `s` — the definitions in
    /// preorder, a statement's descendants adjacent, a loop's induction
    /// variable among its body's. Taken once: the run
    /// only adds definitions of temporaries no statement outside their
    /// block reads.
    defs: Vec<VarId>,
    nested: Vec<(u32, u32)>,
}

impl Cse {
    fn of(proc: &Procedure) -> Cse {
        fn mark(cse: &mut Cse, stmts: &StmtPool, block: &[StmtId]) {
            for &s in block {
                let (def, is_loop) = (stmts[s].defined_var(), stmts[s].is_loop());
                cse.defs.extend(def.filter(|_| !is_loop));
                let from = cse.defs.len() as u32;
                cse.defs.extend(def.filter(|_| is_loop));
                for b in stmts[s].blocks() {
                    mark(cse, stmts, b);
                }
                cse.nested[s.index()] = (from, cse.defs.len() as u32);
            }
        }
        let mut cse = Cse {
            shape: vec![Shape::default(); proc.exprs.len()],
            defs: Vec::new(),
            nested: vec![(0, 0); proc.stmts.len()],
        };
        mark(&mut cse, &proc.stmts, &proc.body);
        walk_block(&proc.stmts, &proc.body, &mut |_, kind| {
            for e in kind.exprs() {
                cse.shape_tree(&proc.exprs, e);
            }
        });
        cse
    }

    /// The shape of node `e`, its children's being current.
    fn node_shape(&self, exprs: &ExprPool, e: ExprId) -> Shape {
        let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
        let (hash, pure) = match exprs[e] {
            Expr::IntConst(v) => (mix(1, v as u64), true),
            Expr::FloatConst(v, ty) => (mix(mix(2, v.to_bits()), ty as u64), true),
            Expr::Var(v) => (mix(3, v.index() as u64), true),
            Expr::AddrOf(v) => (mix(4, v.index() as u64), true),
            Expr::Load { ty, volatile, .. } => (mix(mix(5, ty as u64), volatile as u64), false),
            Expr::Unary { op, ty, .. } => (mix(mix(6, op as u64), ty as u64), true),
            Expr::Binary { op, ty, .. } => (mix(mix(7, op as u64), ty as u64), true),
            Expr::Cast { to, from, .. } => (mix(mix(8, to as u64), from as u64), true),
            Expr::Section { ty, .. } => (mix(9, ty as u64), false),
            Expr::Keep { reg, .. } => (mix(10, reg.index() as u64), false),
        };
        let node = Shape {
            hash,
            size: 1,
            pure,
        };
        exprs[e].child_ids().into_iter().fold(node, |n, c| {
            let c = self.shape[c.index()];
            Shape {
                hash: mix(n.hash, c.hash),
                size: n.size + c.size,
                pure: n.pure && c.pure,
            }
        })
    }

    /// Computes the shapes of the subtree at `e`, bottom-up.
    fn shape_tree(&mut self, exprs: &ExprPool, e: ExprId) {
        for c in exprs[e].child_ids() {
            self.shape_tree(exprs, c);
        }
        if self.shape.len() <= e.index() {
            self.shape.resize(exprs.len(), Shape::default());
        }
        self.shape[e.index()] = self.node_shape(exprs, e);
    }

    /// Structural equality, decided by the shapes where they differ.
    fn same(&self, exprs: &ExprPool, a: ExprId, b: ExprId) -> bool {
        let (x, y) = (self.shape[a.index()], self.shape[b.index()]);
        x.hash == y.hash && x.size == y.size && exprs.expr_eq(a, exprs, b)
    }

    /// Commons within one block, the blocks nested in it already done.
    fn run_block(&mut self, proc: &mut Procedure, block: &mut Block, report: &mut Report) {
        // scratch every try of the block shares
        let (mut cands, mut deps) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i < block.len() {
            if is_barrier(&proc.stmts[block[i]]) {
                i += 1;
                continue;
            }
            // candidate subexpressions of statement i, largest first
            cands.clear();
            for e in proc.stmts[block[i]].exprs() {
                self.collect_candidates(&proc.exprs, e, &mut cands);
            }
            cands.sort_by_key(|&e| std::cmp::Reverse(self.shape[e.index()].size));
            // on a rewrite statement i changed (it is the new definition
            // now): rescan it
            let did = cands
                .iter()
                .any(|&cand| self.try_common(proc, block, i, cand, &mut deps, report));
            if !did {
                i += 1;
            }
        }
    }

    /// Pure, load-free subexpressions worth commoning (size ≥ 3), distinct,
    /// in preorder.
    fn collect_candidates(&self, exprs: &ExprPool, e: ExprId, out: &mut Vec<ExprId>) {
        let shape = self.shape[e.index()];
        if shape.size < 3 {
            return; // and nothing below is larger
        }
        if shape.pure && !out.iter().any(|&o| self.same(exprs, o, e)) {
            out.push(e);
        }
        for c in exprs[e].child_ids() {
            self.collect_candidates(exprs, c, out);
        }
    }

    /// Counts occurrences of `cand` in an expression tree.
    fn count_occurrences(&self, exprs: &ExprPool, e: ExprId, cand: ExprId) -> usize {
        // an occurrence holds none, nor does anything smaller
        if self.shape[e.index()].size <= self.shape[cand.index()].size {
            return usize::from(self.same(exprs, e, cand));
        }
        let below = exprs[e].child_ids().into_iter();
        below.map(|c| self.count_occurrences(exprs, c, cand)).sum()
    }

    fn replace_occurrences(
        &mut self,
        exprs: &mut ExprPool,
        e: ExprId,
        cand: ExprId,
        t: VarId,
    ) -> usize {
        let n = if self.shape[e.index()].size > self.shape[cand.index()].size {
            let below = exprs[e].child_ids().into_iter();
            below
                .map(|c| self.replace_occurrences(exprs, c, cand, t))
                .sum()
        } else if self.same(exprs, e, cand) {
            exprs[e] = Expr::Var(t);
            1
        } else {
            0
        };
        if n > 0 {
            // the shapes stay current from the occurrence up to the root
            self.shape[e.index()] = self.node_shape(exprs, e);
        }
        n
    }

    /// Tries to common `cand`, first occurring in statement `start`, across
    /// its valid window. Returns true when a rewrite happened.
    fn try_common(
        &mut self,
        proc: &mut Procedure,
        block: &mut Block,
        start: usize,
        cand_orig: ExprId,
        deps: &mut Vec<VarId>,
        report: &mut Report,
    ) -> bool {
        deps.clear();
        proc.exprs.collect_vars_read(cand_orig, deps);
        if deps.iter().any(|&v| !proc.var(v).is_register_candidate()) {
            return false;
        }
        let redefines_dep = |kind: &StmtKind| deps.iter().any(|&v| kind.defined_var() == Some(v));
        // window: statements start..end where no dep is redefined and no
        // barrier intervenes (the defining statement itself may redefine a dep
        // — occurrences in later statements then see a different value)
        let mut end = start;
        let mut total = 0usize;
        // whether the window takes in the blocks nested in its last statement
        let mut whole = true;
        for (j, &s) in block.iter().enumerate().skip(start) {
            let kind = &proc.stmts[s];
            if j > start && is_barrier(kind) {
                break;
            }
            // the nested blocks of an If/loop may execute conditionally but
            // the candidate is pure, so replacing there is still sound as
            // long as deps are not redefined inside (a DO loop's variable
            // counts as defined there); where one is, the window ends at the
            // statement's own expressions — none at all for a `while`, whose
            // condition reruns after its body
            let (from, to) = self.nested.get(s.index()).copied().unwrap_or_default();
            let nested_defs = &self.defs[from as usize..to as usize];
            let lends_nested = !deps.iter().any(|v| nested_defs.contains(v));
            let reruns = matches!(kind, StmtKind::While { .. } | StmtKind::WhileSpread { .. });
            if !lends_nested && reruns {
                break;
            }
            (end, whole) = (j, lends_nested);
            total += self.count_in_stmt(proc, s, cand_orig, whole);
            if !whole || redefines_dep(kind) {
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
        let t = proc.fresh_temp(Type::from(scalar));
        proc.var_mut(t).name = format!("cse_{}", t.index());
        let cand = proc.exprs.copy(cand_orig);
        self.shape_tree(&proc.exprs, cand);
        let def = proc.stamp(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs: cand,
        });
        let mut replaced = 0;
        for (j, &s) in block.iter().enumerate().take(end + 1).skip(start) {
            let nested = whole || j < end;
            replaced += self.replace_in_stmt(&proc.stmts, &mut proc.exprs, s, cand, t, nested);
            if redefines_dep(&proc.stmts[s]) {
                break;
            }
        }
        block.insert(start, def);
        report.add(Count::CseCommoned, 1);
        report.add(Count::CseReplaced, replaced);
        true
    }

    /// Occurrences in the statement's own expressions and, with `nested`,
    /// in the blocks under it.
    fn count_in_stmt(&self, proc: &Procedure, s: StmtId, cand: ExprId, nested: bool) -> usize {
        let mut n: usize = proc.stmts[s]
            .exprs()
            .iter()
            .map(|e| self.count_occurrences(&proc.exprs, e, cand))
            .sum();
        for b in proc.stmts[s].blocks().iter().filter(|_| nested) {
            for &inner in b.iter() {
                n += self.count_in_stmt(proc, inner, cand, true);
            }
        }
        n
    }

    fn replace_in_stmt(
        &mut self,
        stmts: &StmtPool,
        exprs: &mut ExprPool,
        s: StmtId,
        cand: ExprId,
        t: VarId,
        nested: bool,
    ) -> usize {
        let mut n = 0;
        for e in stmts[s].exprs() {
            n += self.replace_occurrences(exprs, e, cand, t);
        }
        for b in stmts[s].blocks().iter().filter(|_| nested) {
            for &inner in b.iter() {
                n += self.replace_in_stmt(stmts, exprs, inner, cand, t, true);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::{pretty_proc, BinOp, ProcBuilder};
    use titanc_lower::compile_to_il;

    fn cse(src: &str) -> (Procedure, Report) {
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
        assert_eq!(rep.get(Count::CseCommoned), 1, "{}", pretty_proc(&proc));
        assert_eq!(rep.get(Count::CseReplaced), 2);
        let text = pretty_proc(&proc);
        assert!(text.contains("cse_"), "{text}");
    }

    #[test]
    fn stops_at_redefinition() {
        let (_proc, rep) = cse(
            "int f(int a, int b) { int x, y; x = a + b + 1; a = 0; y = a + b + 1; return x + y; }",
        );
        assert_eq!(
            rep.get(Count::CseCommoned),
            0,
            "a changed between the occurrences"
        );
    }

    #[test]
    fn loads_are_not_commoned_here() {
        let (_proc, rep) = cse("int f(int *p) { int x, y; x = *p + 1; y = *p + 1; return x + y; }");
        assert_eq!(
            rep.get(Count::CseCommoned),
            0,
            "memory expressions are out of scope"
        );
    }

    #[test]
    fn a_while_condition_is_outside_a_window_its_body_ends() {
        // the condition reruns after the body redefines `a`
        let (proc, rep) = cse("int f(int a, int b) { int x, n; n = 0; x = a + b + 1; \
             while (a + b + 1 < 10) { a = a + 1; n = n + 1; } return x + n; }");
        assert_eq!(rep.get(Count::CseCommoned), 0, "{}", pretty_proc(&proc));
        // a window that ends before such a `while` still takes in the
        // nested blocks before it, and the run terminates
        let (proc, rep) = cse(
            "int f(int a, int b, int c) { int x, y; y = 0; x = a + b + 1; \
             if (c) { y = a + b + 1; } while (a + b + 1 < 10) { a = a * 2; } return x + y; }",
        );
        let text = pretty_proc(&proc);
        assert_eq!(
            (rep.get(Count::CseCommoned), rep.get(Count::CseReplaced)),
            (1, 2),
            "{text}"
        );
        assert!(text.contains("while ((((a + b) + 1) < 10))"), "{text}");
    }

    #[test]
    fn a_do_loop_defines_its_variable_in_its_body() {
        // x = i + a; do i = 0, 3 { y = i + a }: the body reads the i the
        // loop set, not the one x read
        let mut b = ProcBuilder::new("f", Type::Int);
        let (a, i) = (b.param("a", Type::Int), b.local("i", Type::Int));
        let (x, y) = (b.local("x", Type::Int), b.local("y", Type::Int));
        let (iv, av) = (b.var(i), b.var(a));
        let sum = b.ibinary(BinOp::Add, iv, av);
        b.assign_var(x, sum);
        let mut body = b.block();
        let (iv, av) = (body.var(i), body.var(a));
        let sum = body.ibinary(BinOp::Add, iv, av);
        body.assign_var(y, sum);
        let body = body.stmts();
        let (lo, hi, step) = (b.int(0), b.int(3), b.int(1));
        b.do_loop(i, lo, hi, step, body);
        let xv = b.var(x);
        b.ret(Some(xv));
        let mut proc = b.finish();
        let rep = local_cse(&mut proc);
        assert_eq!(rep.get(Count::CseCommoned), 0, "{}", pretty_proc(&proc));
    }

    #[test]
    fn single_occurrence_untouched() {
        let (proc, rep) = cse("int f(int a, int b) { return (a + b) * 3; }");
        assert_eq!(rep.get(Count::CseCommoned), 0);
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
        assert!(rep.get(Count::CseCommoned) >= 1);
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
        assert_eq!(
            rep.get(Count::CseCommoned),
            0,
            "volatile reads must both happen"
        );
    }
}
