//! Scalar dataflow: reaching definitions (→ use-def chains, §5.2's
//! prerequisite) and live variables (→ dead-code elimination).
//!
//! Both analyses track only *register candidates*
//! ([`VarInfo::is_register_candidate`]); chain-driven optimizations leave
//! every other variable alone.

use crate::bitset::{union_except, BitMatrix};
use crate::cfg::{Cfg, NodeId};
use titanc_il::{Procedure, StmtId, VarId, VarInfo};

/// A stable counting sort by variable: `grouped[first[v]..first[v + 1]]`
/// are the items keyed `v`, in the order given.
fn group_by_var<T: Copy>(nvars: usize, items: &[(VarId, T)], fill: T) -> (Vec<u32>, Vec<T>) {
    let mut first = vec![0u32; nvars + 1];
    for (v, _) in items {
        first[v.index() + 1] += 1;
    }
    for v in 0..nvars {
        first[v + 1] += first[v];
    }
    let (mut next, mut grouped) = (first.clone(), vec![fill; items.len()]);
    for &(v, item) in items {
        grouped[next[v.index()] as usize] = item;
        next[v.index()] += 1;
    }
    (first, grouped)
}

/// Use–def chains built from reaching definitions.
#[derive(Debug)]
pub struct UseDef {
    tracked: Vec<bool>,
    /// Definition sites — the defining statement, `None` for the virtual
    /// entry definition (parameter value / uninitialized) — variable-major:
    /// a variable's sites are adjacent, its entry definition then its
    /// statements in preorder, so a site kills a bit *range* and no
    /// gen/kill frame is ever built.
    defs: Vec<Option<StmtId>>,
    /// `defs[first_site[v]..first_site[v + 1]]` are the sites of variable
    /// `v` (an empty range for an untracked one).
    first_site: Vec<u32>,
    /// The definition site a statement is, by `StmtId` index (a statement
    /// defines at most one variable).
    def_of_stmt: Vec<Option<u32>>,
    /// reaching-in, a row per CFG node.
    reach_in: BitMatrix,
    node_of_stmt: Vec<Option<NodeId>>,
    /// The def→use index: `readers[first_reader[v]..first_reader[v + 1]]`
    /// are the statements that read tracked variable `v`, in preorder.
    readers: Vec<StmtId>,
    first_reader: Vec<u32>,
}

impl UseDef {
    /// Builds use–def chains for a procedure.
    pub fn build(proc: &Procedure, cfg: &Cfg) -> UseDef {
        let nvars = proc.vars.len();
        let tracked: Vec<bool> = proc
            .vars
            .iter()
            .map(VarInfo::is_register_candidate)
            .collect();

        // one walk: every tracked variable's entry definition, then the
        // defining statements; and each statement's distinct tracked reads
        let tracked_ids = (0..nvars)
            .map(VarId::from_index)
            .filter(|v| tracked[v.index()]);
        let mut sites: Vec<(VarId, Option<StmtId>)> = tracked_ids.map(|v| (v, None)).collect();
        let mut reads: Vec<(VarId, StmtId)> = Vec::new();
        let mut scratch: Vec<VarId> = Vec::new();
        proc.for_each_stmt(&mut |s, k| {
            if let Some(v) = k.defined_var().filter(|v| tracked[v.index()]) {
                sites.push((v, Some(s)));
            }
            scratch.clear();
            for e in k.exprs() {
                proc.exprs.collect_vars_read(e, &mut scratch);
            }
            for (i, &v) in scratch.iter().enumerate() {
                if tracked[v.index()] && !scratch[..i].contains(&v) {
                    reads.push((v, s));
                }
            }
        });
        let (first_site, defs) = group_by_var(nvars, &sites, None);
        let (first_reader, readers) = group_by_var(nvars, &reads, StmtId::from_index(0));

        // what a node reachable from the entry generates, and the range of
        // sites it kills (code nothing reaches defines nothing)
        let order = cfg.rpo();
        let mut reachable = vec![false; cfg.len()];
        order.iter().for_each(|&n| reachable[n] = true);
        let mut def_of_stmt: Vec<Option<u32>> = vec![None; proc.stmts.len()];
        let mut site_of_node: Vec<Option<(u32, u32, u32)>> = vec![None; cfg.len()];
        for range in first_site.windows(2) {
            for me in range[0]..range[1] {
                let Some(s) = defs[me as usize] else { continue };
                def_of_stmt[s.index()] = Some(me);
                if let Some(n) = cfg.node_of(s).filter(|&n| reachable[n]) {
                    site_of_node[n] = Some((me, range[0], range[1]));
                }
            }
        }

        // forward may analysis to fixpoint, in RPO, over the reaching-in
        // frames alone: what leaves a predecessor is its frame less the
        // range its site kills, plus that site. `inn` is one scratch frame
        // reused by every node of every iteration. The entry node has no
        // predecessor and no statement to ask about: its row holds what it
        // generates, every virtual definition.
        let mut reach_in = BitMatrix::new(cfg.len(), defs.len());
        for range in first_site.windows(2).filter(|r| r[0] < r[1]) {
            reach_in.insert(cfg.entry, range[0] as usize);
        }
        let mut inn = vec![0u64; reach_in.row(0).len()];
        let mut changed = true;
        while changed {
            changed = false;
            for &n in order.iter().filter(|&&n| n != cfg.entry) {
                inn.fill(0);
                for &p in &cfg.preds[n] {
                    let (lo, hi) = site_of_node[p].map_or((0, 0), |(_, lo, hi)| (lo, hi));
                    union_except(&mut inn, reach_in.row(p), lo as usize, hi as usize);
                    if let Some((me, ..)) = site_of_node[p] {
                        inn[me as usize / 64] |= 1 << (me % 64);
                    }
                }
                if inn != reach_in.row(n) {
                    reach_in.row_mut(n).copy_from_slice(&inn);
                    changed = true;
                }
            }
        }

        UseDef {
            tracked,
            defs,
            first_site,
            def_of_stmt,
            reach_in,
            node_of_stmt: cfg.nodes_by_stmt().to_vec(),
            readers,
            first_reader,
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

    /// `table[first[v]..first[v + 1]]`, empty for a variable out of range.
    fn span_of<'a, T>(table: &'a [T], first: &[u32], v: VarId) -> (usize, &'a [T]) {
        match first.get(v.index()..v.index() + 2) {
            Some(&[lo, hi]) => (lo as usize, &table[lo as usize..hi as usize]),
            _ => (0, &[]),
        }
    }

    /// The definition sites of `var` that reach the *top* of statement
    /// `at`, ascending. `None` entries denote the entry definition.
    pub fn reaching_defs(
        &self,
        at: StmtId,
        var: VarId,
    ) -> impl Iterator<Item = Option<StmtId>> + '_ {
        let (lo, sites) = UseDef::span_of(&self.defs, &self.first_site, var);
        let node = self.node_of(at);
        sites
            .iter()
            .enumerate()
            .filter(move |(i, _)| node.is_some_and(|n| self.reach_in.contains(n, lo + i)))
            .map(|(_, d)| *d)
    }

    /// The statements reading `var` that `def_stmt`'s definition of it
    /// reaches (the def-use direction of the chains), in preorder, from
    /// the index of readers taken when the chains were built: a statement
    /// a rewrite has since taken the read out of is still listed; one a
    /// rewrite put a read *into* is not, which is why such a rewrite may
    /// not [`crate::ProcAnalyses::rekey`].
    pub fn uses_of_def(&self, def_stmt: StmtId, var: VarId) -> impl Iterator<Item = StmtId> + '_ {
        let (lo, sites) = UseDef::span_of(&self.defs, &self.first_site, var);
        let site = self.def_of_stmt.get(def_stmt.index()).copied().flatten();
        let site = site
            .map(|i| i as usize)
            .filter(|i| (lo..lo + sites.len()).contains(i));
        let (_, readers) = UseDef::span_of(&self.readers, &self.first_reader, var);
        readers.iter().copied().filter(move |&s| {
            site.is_some_and(|i| {
                self.node_of(s)
                    .is_some_and(|n| self.reach_in.contains(n, i))
            })
        })
    }
}

/// Live-variable analysis over register candidates.
#[derive(Debug)]
pub struct Liveness {
    tracked: Vec<bool>,
    /// live-out, a row per CFG node.
    live_out: BitMatrix,
    node_of_stmt: Vec<Option<NodeId>>,
}

impl Liveness {
    /// Runs the backward analysis.
    pub fn build(proc: &Procedure, cfg: &Cfg) -> Liveness {
        let nvars = proc.vars.len();
        let tracked: Vec<bool> = proc
            .vars
            .iter()
            .map(VarInfo::is_register_candidate)
            .collect();
        // per node: the variables it reads (`reads[from..to]`, untracked
        // ones and repeats included) and the tracked one it defines
        let mut reads: Vec<VarId> = Vec::new();
        let mut reads_of_node = vec![(0usize, 0usize); cfg.len()];
        let mut def_of_node: Vec<Option<usize>> = vec![None; cfg.len()];
        proc.for_each_stmt(&mut |s, k| {
            let Some(n) = cfg.node_of(s) else {
                return;
            };
            let from = reads.len();
            for e in k.exprs() {
                proc.exprs.collect_vars_read(e, &mut reads);
            }
            reads_of_node[n] = (from, reads.len());
            def_of_node[n] = k.defined_var().map(VarId::index).filter(|&v| tracked[v]);
        });

        // backward may analysis to fixpoint over the live-out frames alone:
        // live into a successor is what is live out of it less what it
        // defines, plus what it reads (a statement reads before it writes:
        // `x = x + 1` keeps x). `out` is one scratch frame reused by every
        // node of every iteration.
        let mut order = cfg.rpo();
        order.reverse();
        let mut live_out = BitMatrix::new(cfg.len(), nvars);
        let mut out = vec![0u64; live_out.row(0).len()];
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &order {
                out.fill(0);
                for &s in &cfg.succs[n] {
                    let (lo, hi) = def_of_node[s].map_or((0, 0), |v| (v, v + 1));
                    union_except(&mut out, live_out.row(s), lo, hi);
                    let (from, to) = reads_of_node[s];
                    for v in &reads[from..to] {
                        out[v.index() / 64] |= 1 << (v.index() % 64);
                    }
                }
                if out != live_out.row(n) {
                    live_out.row_mut(n).copy_from_slice(&out);
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
            Some(n) => self.live_out.contains(n, var.index()),
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
    fn branch_merges_two_defs() {
        let (proc, cfg) = setup("int f(int c) { int x; if (c) x = 1; else x = 2; return x; }");
        let ud = UseDef::build(&proc, &cfg);
        let x = proc.var_by_name("x").unwrap();
        let ret = stmt_matching(&proc, |_, k| matches!(k, StmtKind::Return(Some(_))));
        assert_eq!(ud.reaching_defs(ret, x).count(), 2);
    }

    #[test]
    fn param_use_sees_entry_def() {
        let (proc, cfg) = setup("int f(int n) { return n; }");
        let ud = UseDef::build(&proc, &cfg);
        let n = proc.var_by_name("n").unwrap();
        let ret = stmt_matching(&proc, |_, k| matches!(k, StmtKind::Return(Some(_))));
        let defs: Vec<_> = ud.reaching_defs(ret, n).collect();
        assert_eq!(defs, vec![None], "entry definition");
    }

    #[test]
    fn loop_carried_def_reaches_header() {
        let (proc, cfg) = setup("void f(int n) { while (n) { n = n - 1; } }");
        let ud = UseDef::build(&proc, &cfg);
        let n = proc.var_by_name("n").unwrap();
        let w = stmt_matching(&proc, |_, k| matches!(k, StmtKind::While { .. }));
        let defs: Vec<_> = ud.reaching_defs(w, n).collect();
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
        assert_eq!(ud.uses_of_def(def, x).count(), 1, "the return reads x");
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
