//! The `BitSet`-per-node dataflow solvers the flat frames of `dataflow.rs`
//! replaced, kept as the *test oracle* they are diffed against: explicit
//! `gen`/`kill` and `uses`/`defs` frames, one heap set per CFG node,
//! definition sites numbered entry-first. Compiled only into tests,
//! through `#[path]` — `crates/analysis/tests/dataflow_differential.rs`
//! and `crates/bench/tests/scalar_differential.rs` — and built on nothing but
//! the public `Cfg` and the `BitSet` below, which left the library with
//! its last user.

use titanc_analysis::Cfg;
use titanc_il::{Procedure, StmtId, Storage, VarId};

/// A fixed-size bit set backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` bits.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Sets bit `i`; panics if it is out of range.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Tests bit `i`.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

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

fn frames(cfg: &Cfg, bits: usize) -> Vec<BitSet> {
    (0..cfg.len()).map(|_| BitSet::new(bits)).collect()
}

/// Reaching definitions, solved over one `BitSet` per node.
pub struct UseDef {
    /// (defining statement — `None` for the entry definition, variable).
    defs: Vec<(Option<StmtId>, VarId)>,
    defs_of_var: Vec<Vec<usize>>,
    reach_in: Vec<BitSet>,
}

impl UseDef {
    pub fn build(proc: &Procedure, cfg: &Cfg) -> UseDef {
        let tracked = tracked_vars(proc);
        let mut defs: Vec<(Option<StmtId>, VarId)> = Vec::new();
        let mut defs_of_var: Vec<Vec<usize>> = vec![Vec::new(); proc.vars.len()];
        for (i, _) in tracked.iter().enumerate().filter(|(_, t)| **t) {
            defs_of_var[i].push(defs.len());
            defs.push((None, VarId::from_index(i)));
        }
        let entry_defs = defs.len();
        proc.for_each_stmt(&mut |s, k| {
            if let Some(v) = k.defined_var().filter(|v| tracked[v.index()]) {
                defs_of_var[v.index()].push(defs.len());
                defs.push((Some(s), v));
            }
        });

        let (mut gen, mut kill) = (frames(cfg, defs.len()), frames(cfg, defs.len()));
        for i in 0..entry_defs {
            gen[cfg.entry].insert(i);
        }
        for (me, &(stmt, var)) in defs.iter().enumerate().skip(entry_defs) {
            let Some(n) = stmt.and_then(|s| cfg.node_of(s)) else {
                continue;
            };
            gen[n].insert(me);
            for &other in defs_of_var[var.index()].iter().filter(|&&o| o != me) {
                kill[n].insert(other);
            }
        }

        let order = cfg.rpo();
        let (mut reach_in, mut reach_out) = (frames(cfg, defs.len()), frames(cfg, defs.len()));
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &order {
                let mut inn = BitSet::new(defs.len());
                for &p in &cfg.preds[n] {
                    inn.union_with(&reach_out[p]);
                }
                let mut out = inn.clone();
                out.subtract(&kill[n]);
                out.union_with(&gen[n]);
                reach_in[n] = inn;
                if out != reach_out[n] {
                    reach_out[n] = out;
                    changed = true;
                }
            }
        }
        UseDef {
            defs,
            defs_of_var,
            reach_in,
        }
    }

    /// The definition sites of `var` reaching the top of `at`: the entry
    /// definition (`None`) first, then statements in preorder.
    pub fn reaching_defs(&self, cfg: &Cfg, at: StmtId, var: VarId) -> Vec<Option<StmtId>> {
        let (Some(n), Some(of_var)) = (cfg.node_of(at), self.defs_of_var.get(var.index())) else {
            return Vec::new();
        };
        of_var
            .iter()
            .filter(|&&i| self.reach_in[n].contains(i))
            .map(|&i| self.defs[i].0)
            .collect()
    }
}

/// Live variables, solved over one `BitSet` per node.
pub struct Liveness {
    tracked: Vec<bool>,
    live_out: Vec<BitSet>,
}

impl Liveness {
    pub fn build(proc: &Procedure, cfg: &Cfg) -> Liveness {
        let nvars = proc.vars.len();
        let tracked = tracked_vars(proc);
        let (mut uses, mut defs) = (frames(cfg, nvars), frames(cfg, nvars));
        proc.for_each_stmt(&mut |s, k| {
            let Some(n) = cfg.node_of(s) else {
                return;
            };
            for e in k.exprs() {
                for v in proc.exprs.vars_read(e) {
                    if tracked[v.index()] {
                        uses[n].insert(v.index());
                    }
                }
            }
            if let Some(v) = k.defined_var() {
                if tracked[v.index()] && !uses[n].contains(v.index()) {
                    defs[n].insert(v.index());
                }
            }
        });

        let mut order = cfg.rpo();
        order.reverse();
        let (mut live_in, mut live_out) = (frames(cfg, nvars), frames(cfg, nvars));
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &order {
                let mut out = BitSet::new(nvars);
                for &s in &cfg.succs[n] {
                    out.union_with(&live_in[s]);
                }
                let mut inn = out.clone();
                inn.subtract(&defs[n]);
                inn.union_with(&uses[n]);
                live_out[n] = out;
                if inn != live_in[n] {
                    live_in[n] = inn;
                    changed = true;
                }
            }
        }
        Liveness { tracked, live_out }
    }

    /// True when `var` may be read after `at` executes (always, for an
    /// untracked variable or an unlinked statement).
    pub fn live_after(&self, cfg: &Cfg, at: StmtId, var: VarId) -> bool {
        if !self.tracked.get(var.index()).copied().unwrap_or(false) {
            return true;
        }
        cfg.node_of(at)
            .is_none_or(|n| self.live_out[n].contains(var.index()))
    }
}

/// Panics unless the flat solvers answer every (statement, tracked
/// variable) of `proc` as the oracle does; returns the queries compared.
pub fn assert_flat_solvers_agree(proc: &Procedure, what: &str) -> usize {
    let cfg = Cfg::build(proc);
    let (ud, lv) = (
        titanc_analysis::UseDef::build(proc, &cfg),
        titanc_analysis::Liveness::build(proc, &cfg),
    );
    let (want_ud, want_lv) = (UseDef::build(proc, &cfg), Liveness::build(proc, &cfg));
    let mut compared = 0;
    proc.for_each_stmt(&mut |s, _| {
        for i in 0..proc.vars.len() {
            let v = VarId::from_index(i);
            let got: Vec<Option<StmtId>> = ud.reaching_defs(s, v).collect();
            assert_eq!(
                got,
                want_ud.reaching_defs(&cfg, s, v),
                "{what}: defs of `{}` reaching {s:?}",
                proc.var(v).name
            );
            assert_eq!(
                lv.live_after(s, v),
                want_lv.live_after(&cfg, s, v),
                "{what}: `{}` live after {s:?}",
                proc.var(v).name
            );
            compared += 1;
        }
    });
    compared
}
