//! Scalar dataflow: reaching definitions (→ use-def chains, §5.2's
//! prerequisite) and live variables (→ dead-code elimination).
//!
//! Both analyses track only *register candidates*: scalar variables whose
//! address is never taken and that are not volatile, static or global.
//! Anything else can be modified through memory, so chain-driven
//! optimizations must simply leave it alone — exactly the conservatism the
//! paper ascribes to C's `&` operator (§1 item 7).

use crate::bitset::BitSet;
use crate::cfg::{Cfg, NodeId};
use titanc_il::{Procedure, StmtId, Storage, VarId};

/// A definition site: a statement defining a variable, or the virtual
/// entry definition (parameter value / uninitialized).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct DefSite {
    /// The defining statement; `None` for the entry definition.
    pub stmt: Option<StmtId>,
    /// The variable defined.
    pub var: VarId,
}

/// Which variables the chain-driven analyses track, by `VarId` index.
fn tracked_vars(proc: &Procedure) -> Vec<bool> {
    proc.vars
        .iter()
        .map(|v| {
            v.ty.scalar().is_some()
                && !v.addressed
                && !v.volatile
                && matches!(v.storage, Storage::Auto | Storage::Param | Storage::Temp)
        })
        .collect()
}

/// Use–def chains built from reaching definitions.
#[derive(Debug)]
pub struct UseDef {
    tracked: Vec<bool>,
    defs: Vec<DefSite>,
    /// The definition site a statement is, by `StmtId` index (a statement
    /// defines at most one variable).
    def_of_stmt: Vec<Option<usize>>,
    /// Definition sites per variable, ascending.
    defs_of_var: Vec<Vec<usize>>,
    /// reaching-in per CFG node.
    reach_in: Vec<BitSet>,
    node_of_stmt: Vec<Option<NodeId>>,
}

impl UseDef {
    /// Builds use–def chains for a procedure.
    pub fn build(proc: &Procedure, cfg: &Cfg) -> UseDef {
        let nvars = proc.vars.len();
        let tracked = tracked_vars(proc);

        // enumerate definition sites: a virtual entry def for every tracked
        // var, then the defining statements in preorder
        let mut defs: Vec<DefSite> = Vec::new();
        let mut defs_of_var: Vec<Vec<usize>> = vec![Vec::new(); nvars];
        let mut def_of_stmt: Vec<Option<usize>> = vec![None; proc.stmts.len()];
        for (i, is_tracked) in tracked.iter().enumerate() {
            if *is_tracked {
                defs_of_var[i].push(defs.len());
                defs.push(DefSite {
                    stmt: None,
                    var: VarId::from_index(i),
                });
            }
        }
        let entry_defs = defs.len();
        proc.for_each_stmt(&mut |s, k| {
            if let Some(v) = k.defined_var() {
                if tracked[v.index()] {
                    def_of_stmt[s.index()] = Some(defs.len());
                    defs_of_var[v.index()].push(defs.len());
                    defs.push(DefSite {
                        stmt: Some(s),
                        var: v,
                    });
                }
            }
        });

        let ndefs = defs.len();
        // gen/kill per node
        let mut gen: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(ndefs)).collect();
        let mut kill: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(ndefs)).collect();
        // entry node generates all virtual defs
        for i in 0..entry_defs {
            gen[cfg.entry].insert(i);
        }
        for (me, d) in defs.iter().enumerate().skip(entry_defs) {
            let Some(n) = d.stmt.and_then(|s| cfg.node_of(s)) else {
                continue;
            };
            gen[n].insert(me);
            for &other in &defs_of_var[d.var.index()] {
                if other != me {
                    kill[n].insert(other);
                }
            }
        }

        // forward may analysis to fixpoint, in RPO; `out` is one scratch
        // frame reused by every node of every iteration
        let order = cfg.rpo();
        let mut reach_in: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(ndefs)).collect();
        let mut reach_out: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(ndefs)).collect();
        let mut out = BitSet::new(ndefs);
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &order {
                let inn = &mut reach_in[n];
                inn.clear();
                for &p in &cfg.preds[n] {
                    inn.union_with(&reach_out[p]);
                }
                out.assign(inn);
                out.subtract(&kill[n]);
                out.union_with(&gen[n]);
                if out != reach_out[n] {
                    std::mem::swap(&mut out, &mut reach_out[n]);
                    changed = true;
                }
            }
        }

        UseDef {
            tracked,
            defs,
            def_of_stmt,
            defs_of_var,
            reach_in,
            node_of_stmt: cfg.nodes_by_stmt().to_vec(),
        }
    }

    /// True when the variable's chains are maintained (non-addressed scalar
    /// auto/param/temp).
    pub fn tracked(&self, v: VarId) -> bool {
        self.tracked.get(v.index()).copied().unwrap_or(false)
    }

    fn node_of(&self, s: StmtId) -> Option<NodeId> {
        self.node_of_stmt.get(s.index()).copied().flatten()
    }

    /// The definition sites of `var` that reach the *top* of statement
    /// `at`. `None` entries denote the entry definition.
    pub fn reaching_defs(&self, at: StmtId, var: VarId) -> Vec<Option<StmtId>> {
        let (Some(n), Some(of_var)) = (self.node_of(at), self.defs_of_var.get(var.index())) else {
            return Vec::new();
        };
        of_var
            .iter()
            .filter(|&&i| self.reach_in[n].contains(i))
            .map(|&i| self.defs[i].stmt)
            .collect()
    }

    /// The unique *statement* definition of `var` reaching `at`, if there
    /// is exactly one reaching def and it is a real statement.
    pub fn unique_reaching_def(&self, at: StmtId, var: VarId) -> Option<StmtId> {
        let defs = self.reaching_defs(at, var);
        match defs.as_slice() {
            [Some(s)] => Some(*s),
            _ => None,
        }
    }

    /// Every statement whose use of `var` may see the definition made by
    /// `def_stmt` (the def-use direction of the chains).
    pub fn uses_of_def(&self, proc: &Procedure, def_stmt: StmtId, var: VarId) -> Vec<StmtId> {
        let idx = match self.def_of_stmt.get(def_stmt.index()) {
            Some(&Some(i)) if self.defs[i].var == var => i,
            _ => return Vec::new(),
        };
        let mut out = Vec::new();
        proc.for_each_stmt(&mut |s, k| {
            let n = match self.node_of(s) {
                Some(n) => n,
                None => return,
            };
            if !self.reach_in[n].contains(idx) {
                return;
            }
            let reads = k.exprs().iter().any(|e| proc.exprs.reads_var(e, var));
            if reads {
                out.push(s);
            }
        });
        out
    }
}

/// Live-variable analysis over register candidates.
#[derive(Debug)]
pub struct Liveness {
    tracked: Vec<bool>,
    live_out: Vec<BitSet>,
    node_of_stmt: Vec<Option<NodeId>>,
}

impl Liveness {
    /// Runs the backward analysis.
    pub fn build(proc: &Procedure, cfg: &Cfg) -> Liveness {
        let nvars = proc.vars.len();
        let tracked = tracked_vars(proc);
        let mut uses: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(nvars)).collect();
        let mut defs: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(nvars)).collect();
        let mut reads: Vec<VarId> = Vec::new();
        proc.for_each_stmt(&mut |s, k| {
            let n = match cfg.node_of(s) {
                Some(n) => n,
                None => return,
            };
            reads.clear();
            for e in k.exprs() {
                proc.exprs.collect_vars_read(e, &mut reads);
            }
            for v in &reads {
                if tracked[v.index()] {
                    uses[n].insert(v.index());
                }
            }
            if let Some(v) = k.defined_var() {
                if tracked[v.index()] && !uses[n].contains(v.index()) {
                    defs[n].insert(v.index());
                }
            }
        });

        // `inn` is one scratch frame reused by every node of every iteration
        let mut order = cfg.rpo();
        order.reverse();
        let mut live_in: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(nvars)).collect();
        let mut live_out: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(nvars)).collect();
        let mut inn = BitSet::new(nvars);
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &order {
                let out = &mut live_out[n];
                out.clear();
                for &s in &cfg.succs[n] {
                    out.union_with(&live_in[s]);
                }
                inn.assign(out);
                inn.subtract(&defs[n]);
                inn.union_with(&uses[n]);
                if inn != live_in[n] {
                    std::mem::swap(&mut inn, &mut live_in[n]);
                    changed = true;
                }
            }
        }
        Liveness {
            tracked,
            live_out,
            node_of_stmt: cfg.nodes_by_stmt().to_vec(),
        }
    }

    /// True when `var`'s value may be read after statement `at` executes.
    /// Untracked variables are always considered live (conservative).
    pub fn live_after(&self, at: StmtId, var: VarId) -> bool {
        if !self.tracked.get(var.index()).copied().unwrap_or(false) {
            return true;
        }
        match self.node_of_stmt.get(at.index()).copied().flatten() {
            Some(n) => self.live_out[n].contains(var.index()),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::StmtKind;
    use titanc_lower::compile_to_il;

    fn setup(src: &str) -> (Procedure, Cfg) {
        let prog = compile_to_il(src).unwrap();
        let proc = prog.procs[0].clone();
        let cfg = Cfg::build(&proc);
        (proc, cfg)
    }

    fn stmt_matching(proc: &Procedure, pred: impl Fn(StmtId, &StmtKind) -> bool) -> StmtId {
        let mut found = None;
        proc.for_each_stmt(&mut |s, k| {
            if found.is_none() && pred(s, k) {
                found = Some(s);
            }
        });
        found.expect("statement")
    }

    #[test]
    fn unique_def_in_straight_line() {
        let (proc, cfg) = setup("int f(void) { int x, y; x = 3; y = x + 1; return y; }");
        let ud = UseDef::build(&proc, &cfg);
        let x = proc.var_by_name("x").unwrap();
        let use_stmt = stmt_matching(&proc, |_, k| {
            k.exprs().iter().any(|e| proc.exprs.reads_var(e, x))
        });
        let def = ud.unique_reaching_def(use_stmt, x);
        assert!(def.is_some());
    }

    #[test]
    fn branch_merges_two_defs() {
        let (proc, cfg) = setup("int f(int c) { int x; if (c) x = 1; else x = 2; return x; }");
        let ud = UseDef::build(&proc, &cfg);
        let x = proc.var_by_name("x").unwrap();
        let ret = stmt_matching(&proc, |_, k| matches!(k, StmtKind::Return(Some(_))));
        let defs = ud.reaching_defs(ret, x);
        assert_eq!(defs.len(), 2);
        assert!(ud.unique_reaching_def(ret, x).is_none());
    }

    #[test]
    fn param_use_sees_entry_def() {
        let (proc, cfg) = setup("int f(int n) { return n; }");
        let ud = UseDef::build(&proc, &cfg);
        let n = proc.var_by_name("n").unwrap();
        let ret = stmt_matching(&proc, |_, k| matches!(k, StmtKind::Return(Some(_))));
        let defs = ud.reaching_defs(ret, n);
        assert_eq!(defs, vec![None], "entry definition");
    }

    #[test]
    fn loop_carried_def_reaches_header() {
        let (proc, cfg) = setup("void f(int n) { while (n) { n = n - 1; } }");
        let ud = UseDef::build(&proc, &cfg);
        let n = proc.var_by_name("n").unwrap();
        let w = stmt_matching(&proc, |_, k| matches!(k, StmtKind::While { .. }));
        let defs = ud.reaching_defs(w, n);
        assert_eq!(defs.len(), 2, "entry def + loop body def: {defs:?}");
    }

    #[test]
    fn addressed_vars_untracked() {
        let (proc, cfg) = setup("int f(void) { int x; int *p; p = &x; x = 1; *p = 2; return x; }");
        let ud = UseDef::build(&proc, &cfg);
        let x = proc.var_by_name("x").unwrap();
        assert!(!ud.tracked(x), "addressed variable is not chain-tracked");
        let p = proc.var_by_name("p").unwrap();
        assert!(ud.tracked(p));
    }

    #[test]
    fn uses_of_def_finds_reader() {
        let (proc, cfg) = setup("int f(void) { int x; x = 3; return x + x; }");
        let ud = UseDef::build(&proc, &cfg);
        let x = proc.var_by_name("x").unwrap();
        let def = stmt_matching(&proc, |_, k| k.defined_var() == Some(x));
        let uses = ud.uses_of_def(&proc, def, x);
        assert_eq!(uses.len(), 1, "the return reads x");
    }

    #[test]
    fn dead_store_not_live() {
        let (proc, cfg) = setup("int f(void) { int x, y; x = 1; x = 2; y = x; return y; }");
        let lv = Liveness::build(&proc, &cfg);
        let x = proc.var_by_name("x").unwrap();
        let first = proc.body[0];
        assert_eq!(proc.stmts[first].defined_var(), Some(x));
        assert!(!lv.live_after(first, x), "x is overwritten before any read");
        let second = proc.body[1];
        assert!(lv.live_after(second, x));
    }

    #[test]
    fn loop_variable_is_live_across_back_edge() {
        let (proc, cfg) = setup("void f(int n) { while (n) { n = n - 1; } }");
        let lv = Liveness::build(&proc, &cfg);
        let n = proc.var_by_name("n").unwrap();
        let def = stmt_matching(&proc, |_, k| k.defined_var() == Some(n));
        assert!(lv.live_after(def, n), "read again by the loop condition");
    }

    #[test]
    fn untracked_is_always_live() {
        let (proc, cfg) = setup("volatile int v; void f(void) { v = 1; }");
        let lv = Liveness::build(&proc, &cfg);
        let v = proc.var_by_name("v").unwrap();
        let def = proc.body[0];
        assert!(lv.live_after(def, v));
    }
}
