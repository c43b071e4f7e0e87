//! Forward (copy/expression) substitution.
//!
//! Propagates `x = expr` forward into later reads of `x`, block by block.
//! The front end's copy temporaries (`temp_1 = a; … *temp_1 …`) and the
//! affine expressions produced by induction-variable substitution both
//! reach their use sites through this pass; the paper's compiler is "safe
//! in propagating address constants … because it knows that strength
//! reduction and subexpression elimination will undo any damage" (§11).
//!
//! A substitution stops at a redefinition of `x` or of any variable the
//! expression reads; expressions containing (non-volatile) loads
//! additionally stop at stores, calls and assignments to variables that
//! are not register candidates (globals and locals whose address is taken,
//! which loads can read). Expressions with volatile loads never move.
//!
//! `cse` commons register expressions only, so this pass must not do the
//! damage it cannot undo: a loading `x = expr` is forwarded only when `x`
//! is not read again after its window, before its next assignment.
//! Otherwise `x = expr` stays live and `expr`, loads and all, would be
//! computed twice — §6's backsolve after strength reduction reads
//! `t = E; *(p) = t; f = t`, and copying `E` into the store made every
//! iteration do its two loads, subtract and multiply twice. Deciding
//! that is the pass's one look-ahead: a loading definition scans the rest
//! of its block once, when it is admitted.
//!
//! The pass is one *available-definitions sweep* per block: it carries the
//! set of definitions that may still be forwarded ([`Avail`]), and each
//! statement is visited once — entries its nested blocks could invalidate
//! are dropped, every remaining entry is substituted in a single walk of
//! the statement tree, entries the statement itself invalidates are
//! dropped, and the statement is admitted as a new entry if it qualifies.
//! Substituting all live entries at once equals substituting them one
//! definition at a time: two entries live at the same statement never read
//! each other's target (the later one would have killed the earlier, and
//! the earlier was already substituted into the later's right-hand side
//! before that one was admitted), so the inserted copies need no second
//! look.
//!
//! Substituted reads get a *deep copy* of the defining expression per
//! occurrence ([`titanc_il::ExprPool::substitute_vars`]), preserving the
//! no-shared-slots invariant; the replaced `Var` nodes become arena
//! garbage swept at the next compaction point.

use crate::util::{count_reads, replace_reads_with};
use std::collections::HashMap;
use titanc_il::visit::walk_block;
use titanc_il::{
    Expr, ExprId, ExprPool, LValue, Procedure, StmtId, StmtKind, StmtPool, VarId, VarInfo,
};

/// Substitution statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ForwardReport {
    /// Reads replaced.
    pub substituted: usize,
}

impl ForwardReport {
    /// Folds another report's counts into this one (used by the pass
    /// manager to aggregate per-pass deltas).
    pub fn merge(&mut self, other: ForwardReport) {
        self.substituted += other.substituted;
    }
}

titanc_il::struct_wire!(ForwardReport, [substituted]);

/// Expressions larger than this are not forwarded (avoids exponential
/// growth through chains of substitutions).
const MAX_FORWARDED_SIZE: usize = 24;

/// Runs forward substitution over every block of the procedure.
pub fn forward_substitute(proc: &mut Procedure) -> ForwardReport {
    let candidate: Vec<bool> = proc
        .vars
        .iter()
        .map(VarInfo::is_register_candidate)
        .collect();
    let mut sweep = Sweep {
        stmts: &proc.stmts,
        exprs: &mut proc.exprs,
        candidate,
        defined: Vec::new(),
        memory_writes: 0,
        substituted: 0,
    };
    sweep.block(&proc.body);
    let report = ForwardReport {
        substituted: sweep.substituted,
    };
    if report.substituted > 0 {
        proc.bump_generation();
    }
    report
}

/// A forwardable definition `x = rhs` that is still valid at the sweep's
/// current statement.
struct Avail {
    rhs: ExprId,
    /// The variables `rhs` reads.
    deps: Vec<VarId>,
    /// `rhs` loads from memory, so stores and calls end its window.
    has_loads: bool,
}

/// The definitions available at one point of a block sweep, indexed so
/// each kill rule touches only the entries it drops.
#[derive(Default)]
struct AvailSet {
    by_target: HashMap<VarId, Avail>,
    /// Targets admitted while reading each variable. A listed target may
    /// have been dropped or re-admitted since; [`AvailSet::kill_var`]
    /// re-checks.
    readers: HashMap<VarId, Vec<VarId>>,
    /// Targets admitted with loads (same caveat).
    loaded: Vec<VarId>,
}

impl AvailSet {
    fn admit(&mut self, x: VarId, avail: Avail) {
        for &d in &avail.deps {
            self.readers.entry(d).or_default().push(x);
        }
        if avail.has_loads {
            self.loaded.push(x);
        }
        self.by_target.insert(x, avail);
    }

    /// `v` is (possibly) redefined: its own entry and every entry whose
    /// expression reads it end here.
    fn kill_var(&mut self, v: VarId) {
        self.by_target.remove(&v);
        for x in self.readers.remove(&v).unwrap_or_default() {
            if self.by_target.get(&x).is_some_and(|a| a.deps.contains(&v)) {
                self.by_target.remove(&x);
            }
        }
    }

    /// Memory is (possibly) written: load-bearing entries end here.
    fn kill_loads(&mut self) {
        for x in self.loaded.drain(..) {
            if self.by_target.get(&x).is_some_and(|a| a.has_loads) {
                self.by_target.remove(&x);
            }
        }
    }

    /// A label or goto: the straight-line window ends for every entry.
    fn clear(&mut self) {
        self.by_target.clear();
        self.readers.clear();
        self.loaded.clear();
    }
}

struct Sweep<'a> {
    stmts: &'a StmtPool,
    exprs: &'a mut ExprPool,
    /// [`VarInfo::is_register_candidate`], by `VarId` index.
    candidate: Vec<bool>,
    /// Every variable defined by a statement visited so far, in visit
    /// order: the definitions inside a nested block are the tail pushed
    /// while it was swept, so an enclosing sweep reads them off without
    /// walking the block again.
    defined: Vec<VarId>,
    /// Memory-writing statements visited so far (same idea).
    memory_writes: usize,
    substituted: usize,
}

impl Sweep<'_> {
    fn block(&mut self, block: &[StmtId]) {
        let stmts = self.stmts;
        let mut avail = AvailSet::default();
        for (i, &s) in block.iter().enumerate() {
            let kind = &stmts[s];
            // control-flow joins and departures end the straight-line
            // window: a label may be reached from elsewhere (the def does
            // not dominate it), and nothing after an unconditional goto is
            // reached by fallthrough.
            if matches!(kind, StmtKind::Label(_) | StmtKind::Goto(_)) {
                avail.clear();
                continue;
            }

            // nested blocks are swept first, on their own; what they define
            // or store ends the entries that cannot see through them, before
            // anything is substituted into this statement
            let (defined_mark, writes_mark) = (self.defined.len(), self.memory_writes);
            for b in kind.blocks() {
                self.block(b);
            }
            for &v in &self.defined[defined_mark..] {
                avail.kill_var(v);
            }
            if self.memory_writes > writes_mark {
                avail.kill_loads();
            }

            // a statement may read x before (possibly) redefining it;
            // substitute first, then evaluate the stop conditions
            if !avail.by_target.is_empty() {
                let rhs_of = |v: VarId| avail.by_target.get(&v).map(|a| a.rhs);
                self.substituted += replace_reads_with(stmts, self.exprs, s, &rhs_of);
            }

            if let Some(v) = kind.defined_var() {
                avail.kill_var(v);
                self.defined.push(v);
            }
            // (a variable that is not a register candidate is memory too:
            // a global, or a local whose address is taken)
            let defines_memory = kind
                .defined_var()
                .is_some_and(|v| !self.candidate[v.index()]);
            if kind.writes_memory() || defines_memory {
                avail.kill_loads();
                self.memory_writes += 1;
            }

            if let StmtKind::Assign {
                lhs: LValue::Var(x),
                rhs,
            } = *kind
            {
                if let Some(entry) = self.forwardable(x, rhs) {
                    if !entry.has_loads || !self.live_past_window(block, i, x, &entry.deps) {
                        avail.admit(x, entry);
                    }
                }
            }
        }
    }

    /// Whether the loading definition `x = …` at `block[i]` is read after
    /// its window ends, before `x` is next assigned: forwarded, it would
    /// be computed twice. The window is the one [`Sweep::block`] gives the
    /// entry, found by looking ahead with the same kill rules.
    fn live_past_window(&self, block: &[StmtId], i: usize, x: VarId, deps: &[VarId]) -> bool {
        let stmts = self.stmts;
        let ends = |kind: &StmtKind| {
            kind.writes_memory()
                || kind
                    .defined_var()
                    .is_some_and(|v| v == x || deps.contains(&v) || !self.candidate[v.index()])
        };
        let mut in_window = true;
        for &t in &block[i + 1..] {
            let kind = &stmts[t];
            let mut nested_ends = false;
            for b in kind.blocks() {
                walk_block(stmts, b, &mut |_, k| nested_ends |= ends(k));
            }
            in_window &= !(nested_ends || matches!(kind, StmtKind::Label(_) | StmtKind::Goto(_)));
            if !in_window && count_reads(stmts, self.exprs, t, x) > 0 {
                return true;
            }
            if kind.defined_var() == Some(x) {
                return false;
            }
            in_window &= !ends(kind);
        }
        false
    }

    /// The candidate tests on `x = rhs` as it reads after substitution.
    fn forwardable(&self, x: VarId, rhs: ExprId) -> Option<Avail> {
        let exprs = &*self.exprs;
        if !self.candidate[x.index()]
            || exprs.any(rhs, Expr::is_volatile_load)
            || exprs.any(rhs, |n| matches!(n, Expr::Section { .. }))
            || exprs.any(rhs, |n| *n == Expr::Var(x)) // x = f(x): nothing to forward
            || exprs.size(rhs) > MAX_FORWARDED_SIZE
        {
            return None;
        }
        Some(Avail {
            rhs,
            deps: exprs.vars_read(rhs),
            has_loads: exprs.any(rhs, |n| matches!(n, Expr::Load { .. })),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::pretty_proc;
    use titanc_lower::compile_to_il;

    fn fwd(src: &str) -> Procedure {
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        forward_substitute(&mut proc);
        proc
    }

    #[test]
    fn copies_propagate() {
        let proc = fwd("int f(int a) { int t; t = a; return t + t; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("return (a + a);"), "{text}");
    }

    #[test]
    fn stops_at_source_redefinition() {
        let proc = fwd("int f(int a) { int t; t = a; a = 0; return t; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("return t;"), "a changed: {text}");
    }

    #[test]
    fn stops_at_target_redefinition() {
        // the first copy (t = a) must NOT reach past t = 5; the second
        // definition forwards instead.
        let proc = fwd("int f(int a) { int t; t = a; t = 5; return t; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("return 5;"), "{text}");
        assert!(!text.contains("return a;"), "{text}");
    }

    #[test]
    fn loads_stop_at_stores() {
        let proc = fwd("int f(int *p, int *q) { int t; t = *p; *q = 9; return t; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("return t;"), "store may alias *p: {text}");
    }

    #[test]
    fn loads_stop_at_assignments_to_memory_variables() {
        // a global, and a local whose address is taken, are memory a load
        // may read
        for src in [
            "int g; int f(int *p) { int t; t = *p; g = 9; return t; }",
            "int f(void) { int a, t; int *p; p = &a; a = 1; t = *p; a = 9; return t; }",
        ] {
            let text = pretty_proc(&fwd(src));
            assert!(text.contains("return t;"), "{src}: {text}");
        }
    }

    #[test]
    fn loads_pass_pure_statements() {
        let proc = fwd("int f(int *p) { int t, u; t = *p; u = 3; return t + u; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("*(int *)(p) + "), "{text}");
    }

    #[test]
    fn a_load_read_again_after_its_window_stays() {
        // `t = E; *q = t; u = t`: forwarded into the store, E would be
        // computed twice (§6's backsolve after strength reduction)
        let text = pretty_proc(&fwd(
            "int f(int *p, int *q) { int t, u; t = *p + 1; *q = t; u = t; return u; }",
        ));
        assert!(text.contains("*(int *)(q) = t;"), "{text}");
        // read nowhere else, or assigned before it is read again, the
        // definition moves into its window
        for src in [
            "int f(int *p, int *q) { int t; t = *p + 1; *q = t; return 0; }",
            "int f(int *p, int *q) { int t; t = *p + 1; *q = t; t = 2; return t; }",
        ] {
            let text = pretty_proc(&fwd(src));
            assert!(
                text.contains("*(int *)(q) = (*(int *)(p) + 1);"),
                "{src}: {text}"
            );
        }
    }

    #[test]
    fn volatile_reads_never_move() {
        let proc = fwd("volatile int s; int f(void) { int t; t = s; return t + t; }");
        let text = pretty_proc(&proc);
        assert!(
            text.matches("volatile").count() == 1,
            "exactly one volatile read remains: {text}"
        );
    }

    #[test]
    fn substitutes_into_safe_nested_blocks() {
        let proc =
            fwd("int f(int a, int c) { int t, r; t = a * 2; r = 0; if (c) { r = t; } return r; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("r = (a * 2)"), "{text}");
    }

    #[test]
    fn stops_at_unsafe_nested_blocks() {
        let proc =
            fwd("int f(int a, int c) { int t, r; t = a; if (c) { a = 1; } r = t; return r; }");
        let text = pretty_proc(&proc);
        assert!(text.contains("r = t"), "conditional redef of a: {text}");
    }

    /// The sweep and the quadratic reference agree on the printed IL and
    /// on the count.
    fn assert_matches_reference(src: &str) {
        let prog = compile_to_il(src).unwrap();
        for p in &prog.procs {
            let (mut want, mut got) = (p.clone(), p.clone());
            let want_n = crate::forward_reference::forward_substitute(&mut want);
            let got_n = forward_substitute(&mut got).substituted;
            assert_eq!(pretty_proc(&got), pretty_proc(&want), "{src}");
            assert_eq!(got_n, want_n, "{src}");
            assert_eq!(got.generation(), want.generation(), "{src}");
        }
    }

    #[test]
    fn sweep_matches_reference_on_window_edges() {
        for src in [
            // chains: each definition is substituted into the next before
            // that one is admitted
            "int f(int a) { int t, u, v; t = a + 1; u = t * 2; v = u - t; return v + u + t; }",
            // a label and a goto inside the window
            "int f(int a) { int t, u; t = a; u = t; if (a) goto l; u = t + 1; l: return t + u; }",
            "int f(int a) { int t; t = a; goto l; l: return t; }",
            // a nested block that redefines a dep, and one that does not
            "int f(int a, int c) { int t, r; t = a + 1; if (c) { r = t; } if (c) { a = 2; } \
             r = t; return r; }",
            // a nested block that redefines the target
            "int f(int a, int c) { int t; t = a; while (c) { t = t + 1; c = c - 1; } return t; }",
            // load-bearing definitions: crossing a pure statement, a store,
            // a call, and a nested store
            "int g(int); int f(int *p, int *q, int c) { int t, u, v, w; t = *p; u = t + 1; \
             v = g(u); w = *p; *q = w; if (c) { *q = 0; } return t + u + v + w; }",
            // the target is re-admitted after being killed
            "int f(int a, int b) { int t, r; t = a; r = t; a = 0; t = b; r = r + t; return r; }",
            // ... and a dep of its earlier definition is redefined after
            "int f(int a, int b) { int t, r; t = a; r = t; t = b; a = 0; r = r + t; return r; }",
            // ... or it loaded at first, no longer does, and a store follows
            "int f(int *p, int *q, int a) { int t, r; t = *p; r = t; t = a; *q = 1; r = r + t; \
             return r; }",
            // ... or an assignment to a global, here or nested
            "int g; int f(int *p, int c) { int t, u; t = *p; g = 1; u = *p; if (c) { g = 2; } \
             return t + u; }",
            // a loading definition read after its window: after a store,
            // a label, a nested store and a nested redefinition of itself,
            // and once more after its window redefines it
            "int f(int *p, int *q, int c) { int t, u, v, w; t = *p; *q = t; u = t; v = *p; \
             if (c) goto l; v = v + 1; l: u = u + v; w = *q; if (c) { *p = w; } u = u + w; \
             t = *q; if (c) { t = 1; } u = u + t; t = *p; *q = t; t = 0; return t + u; }",
            // inner definitions forward before outer ones reach them
            "int f(int a, int c) { int t, u, r; t = a * 3; r = 0; if (c) { u = t; r = u + t; } \
             return r; }",
            // the size cap is tested on the substituted right-hand side
            "int f(int a) { int t, u, v, w; t = a + a + a + a; u = t + t + t; v = u + u + u; \
             w = v + v; return w; }",
        ] {
            assert_matches_reference(src);
        }
    }

    #[test]
    fn equivalence_on_simulator() {
        let src = r#"
int out_g[1];
int main(void)
{
    int a, t, u;
    a = 6;
    t = a * 7;
    u = t + 1;
    out_g[0] = u - 1;
    return t;
}
"#;
        let prog = compile_to_il(src).unwrap();
        let mut opt = prog.clone();
        forward_substitute(&mut opt.procs[0]);
        let cfg = titanc_titan::MachineConfig::default;
        let g = [("out_g", titanc_il::ScalarType::Int, 1)];
        let (b, _) = titanc_titan::observe(&prog, cfg(), "main", &g).unwrap();
        let (a, _) = titanc_titan::observe(&opt, cfg(), "main", &g).unwrap();
        assert_eq!(b, a);
    }
}
