//! Generation-keyed analysis memoization.
//!
//! The paper's compiler builds use–def chains **once** and incrementally
//! repairs them while while→DO conversion and induction-variable
//! substitution rewrite the loop (§5.2). This module is the modern shape
//! of that idea: every [`titanc_il::Procedure`] carries a *generation
//! counter* that mutating passes bump, and a [`ProcAnalyses`] slot
//! memoizes the expensive analyses ([`Cfg`], [`UseDef`], [`Liveness`])
//! keyed to the generation they were built against. A request at the
//! same generation is a hit; a request after the generation moved drops
//! the stale artifacts and rebuilds.
//!
//! Two escape hatches implement the §5.2 repair discipline:
//!
//! * [`ProcAnalyses::rekey`] — a pass that performed only *pure
//!   expression rewrites* (no statement added/removed/restamped, no
//!   control-flow edge or definition site changed) may adopt the new
//!   generation without dropping the CFG or the use–def chains: both
//!   are still exact. Liveness is dropped —
//!   rewrites can remove variable reads, and a stale over-approximation
//!   is only *conservatively* correct, so it is rebuilt on next request.
//! * A pass may hold the `Arc` of an artifact across its own mutations
//!   when it can argue validity locally (while→DO conversion reuses one
//!   CFG across every conversion of a procedure) and call
//!   [`ProcAnalyses::note_repair`] to account for the reuse.
//!
//! Artifacts are shared as `Arc`s so a pass can hold an analysis while
//! the cache stays borrowable; `Arc` (not `Rc`) keeps the slots `Send`,
//! which lets the pass manager move each procedure's slot onto a worker
//! thread (it keeps one per procedure, by position). [`CacheStats`] counts
//! hits, builds, invalidations, and repairs so the cached-vs-rebuilt ratio
//! is observable per pass (`--time`, EXP6, `titanperf`'s
//! `analysis.usedef_*`).

use std::sync::Arc;

use titanc_il::Procedure;

use crate::{Cfg, Liveness, UseDef};

/// Declares [`CacheStats`] — the struct, its wire form, its sum and its
/// difference — from one list of the (all `usize`) counters.
macro_rules! cache_stats {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Hit/build counters for the generation-keyed analysis cache.
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        pub struct CacheStats {
            $($(#[$doc])* pub $field: usize,)+
        }

        titanc_il::struct_wire!(CacheStats, [$($field),+]);

        impl CacheStats {
            /// Folds another counter set into this one.
            pub fn merge(&mut self, other: &CacheStats) {
                $(self.$field += other.$field;)+
            }

            /// The counters accumulated since `earlier` (fieldwise
            /// difference; `earlier` must be a previous snapshot of the
            /// same counters).
            pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
                CacheStats {
                    $($field: self.$field - earlier.$field,)+
                }
            }
        }
    };
}

cache_stats! {
    /// CFG requests answered from the cache.
    cfg_hits,
    /// CFG requests that ran [`Cfg::build`].
    cfg_builds,
    /// Use–def requests answered from the cache.
    usedef_hits,
    /// Use–def requests that ran [`UseDef::build`].
    usedef_builds,
    /// Liveness requests answered from the cache.
    liveness_hits,
    /// Liveness requests that ran [`Liveness::build`].
    liveness_builds,
    /// Times cached artifacts were dropped because the generation moved.
    invalidations,
    /// Times artifacts survived a mutation via §5.2-style repair
    /// ([`ProcAnalyses::rekey`] / [`ProcAnalyses::note_repair`]).
    repairs,
}

impl CacheStats {
    /// Total requests answered from the cache.
    pub fn hits(&self) -> usize {
        self.cfg_hits + self.usedef_hits + self.liveness_hits
    }

    /// Total requests that had to build.
    pub fn builds(&self) -> usize {
        self.cfg_builds + self.usedef_builds + self.liveness_builds
    }

    /// Total analysis requests.
    pub fn requests(&self) -> usize {
        self.hits() + self.builds()
    }
}

/// Memoized analyses for one procedure, keyed by its generation counter.
#[derive(Debug, Default)]
pub struct ProcAnalyses {
    /// The generation the cached artifacts were built against.
    generation: Option<u64>,
    cfg: Option<Arc<Cfg>>,
    usedef: Option<Arc<UseDef>>,
    liveness: Option<Arc<Liveness>>,
    stats: CacheStats,
}

impl ProcAnalyses {
    /// An empty cache slot.
    pub fn new() -> ProcAnalyses {
        ProcAnalyses::default()
    }

    /// The accumulated hit/build counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The generation the cached artifacts are keyed to, if any.
    pub fn cached_generation(&self) -> Option<u64> {
        self.generation
    }

    fn has_any(&self) -> bool {
        self.cfg.is_some() || self.usedef.is_some() || self.liveness.is_some()
    }

    fn drop_artifacts(&mut self) {
        self.cfg = None;
        self.usedef = None;
        self.liveness = None;
    }

    /// Drops stale artifacts when the procedure's generation has moved
    /// past the cached one. Called on every request, so a stale artifact
    /// is never served.
    fn sync(&mut self, proc: &Procedure) {
        let current = proc.generation();
        if self.generation != Some(current) {
            if self.has_any() {
                self.stats.invalidations += 1;
            }
            self.drop_artifacts();
            self.generation = Some(current);
        }
    }

    /// Drops everything unconditionally (a pass made a structural edit it
    /// cannot argue repair for).
    pub fn invalidate(&mut self) {
        if self.has_any() {
            self.stats.invalidations += 1;
        }
        self.drop_artifacts();
        self.generation = None;
    }

    /// §5.2 incremental repair: adopt the procedure's current generation
    /// while keeping the CFG and the use–def chains.
    ///
    /// Only sound after *pure expression rewrites* that add no read: the
    /// statement set and ids, control-flow edges, definition sites and the
    /// chains' reader index must stay exact (constant propagation's
    /// replace/fold rounds qualify). Liveness is dropped — a rewrite
    /// can remove reads, leaving cached liveness a sound but imprecise
    /// over-approximation, so it is rebuilt on next request instead.
    pub fn rekey(&mut self, proc: &Procedure) {
        let current = proc.generation();
        if self.generation == Some(current) {
            return;
        }
        self.liveness = None;
        self.generation = Some(current);
        if self.has_any() {
            self.stats.repairs += 1;
        }
    }

    /// Adopts the procedure's current generation keeping *only* the CFG.
    /// Sound when every edit since it was built removed a statement
    /// control merely passed through (dead-code elimination's stores,
    /// labels and emptied `if`s / loops): its node stands for nothing now
    /// but leaves every path between the survivors as it was, which is
    /// all a dataflow solve over them asks of the graph. A pass that
    /// reads nodes as statements must not see it — the caller
    /// invalidates before it returns.
    pub fn keep_cfg(&mut self, proc: &Procedure) {
        let cfg = self.cfg.take();
        self.drop_artifacts();
        self.stats.repairs += usize::from(cfg.is_some());
        (self.cfg, self.generation) = (cfg, Some(proc.generation()));
    }

    /// Accounts for an in-place artifact reuse a pass performed itself
    /// (e.g. while→DO conversion holding one CFG across conversions).
    pub fn note_repair(&mut self) {
        self.stats.repairs += 1;
    }

    /// The control-flow graph at the procedure's current generation.
    pub fn cfg(&mut self, proc: &Procedure) -> Arc<Cfg> {
        self.sync(proc);
        if let Some(c) = &self.cfg {
            self.stats.cfg_hits += 1;
            return Arc::clone(c);
        }
        self.stats.cfg_builds += 1;
        let c = Arc::new(Cfg::build(proc));
        self.cfg = Some(Arc::clone(&c));
        c
    }

    /// Use–def chains at the procedure's current generation (builds the
    /// CFG first if needed).
    pub fn usedef(&mut self, proc: &Procedure) -> Arc<UseDef> {
        let cfg = self.cfg(proc);
        if let Some(ud) = &self.usedef {
            self.stats.usedef_hits += 1;
            return Arc::clone(ud);
        }
        self.stats.usedef_builds += 1;
        let ud = Arc::new(UseDef::build(proc, &cfg));
        self.usedef = Some(Arc::clone(&ud));
        ud
    }

    /// Live-variable analysis at the procedure's current generation.
    pub fn liveness(&mut self, proc: &Procedure) -> Arc<Liveness> {
        let cfg = self.cfg(proc);
        if let Some(lv) = &self.liveness {
            self.stats.liveness_hits += 1;
            return Arc::clone(lv);
        }
        self.stats.liveness_builds += 1;
        let lv = Arc::new(Liveness::build(proc, &cfg));
        self.liveness = Some(Arc::clone(&lv));
        lv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_of(src: &str) -> Procedure {
        titanc_lower::compile_to_il(src).unwrap().procs[0].clone()
    }

    #[test]
    fn same_generation_hits() {
        let proc =
            proc_of("int f(int n) { int s; s = 0; while (n) { s = s + n; n = n - 1; } return s; }");
        let mut a = ProcAnalyses::new();
        let c1 = a.cfg(&proc);
        let c2 = a.cfg(&proc);
        assert!(Arc::ptr_eq(&c1, &c2), "second request is the same artifact");
        let u1 = a.usedef(&proc);
        let u2 = a.usedef(&proc);
        assert!(Arc::ptr_eq(&u1, &u2));
        let st = a.stats();
        assert_eq!(st.cfg_builds, 1);
        assert_eq!(st.usedef_builds, 1);
        assert!(st.cfg_hits >= 2, "{st:?}"); // direct hit + usedef's cfg reuse
        assert_eq!(st.usedef_hits, 1);
        assert_eq!(st.invalidations, 0);
    }

    #[test]
    fn bumped_generation_invalidates() {
        let mut proc = proc_of("int f(int n) { return n; }");
        let mut a = ProcAnalyses::new();
        let u1 = a.usedef(&proc);
        proc.bump_generation();
        let u2 = a.usedef(&proc);
        assert!(!Arc::ptr_eq(&u1, &u2), "stale use-def must not be served");
        let st = a.stats();
        assert_eq!(st.usedef_builds, 2);
        assert_eq!(st.invalidations, 1);
        assert_eq!(a.cached_generation(), Some(proc.generation()));
    }

    #[test]
    fn rekey_keeps_usedef_but_drops_liveness() {
        let mut proc = proc_of("int f(int n) { int s; s = n + 1; return s; }");
        let mut a = ProcAnalyses::new();
        let u1 = a.usedef(&proc);
        let l1 = a.liveness(&proc);
        proc.bump_generation(); // pretend a pure expression rewrite happened
        a.rekey(&proc);
        let u2 = a.usedef(&proc);
        let l2 = a.liveness(&proc);
        assert!(Arc::ptr_eq(&u1, &u2), "repair keeps the use-def chains");
        assert!(!Arc::ptr_eq(&l1, &l2), "liveness is rebuilt after repair");
        let st = a.stats();
        assert_eq!(st.repairs, 1);
        assert_eq!(st.usedef_builds, 1);
        assert_eq!(st.liveness_builds, 2);
    }

    #[test]
    fn stats_delta_and_merge() {
        let proc = proc_of("void f(void) { ; }");
        let mut a = ProcAnalyses::new();
        let before = a.stats();
        let _ = a.cfg(&proc);
        let _ = a.liveness(&proc);
        let d = a.stats().delta_since(&before);
        assert_eq!(d.cfg_builds, 1);
        assert_eq!(d.liveness_builds, 1);
        let mut total = CacheStats::default();
        total.merge(&d);
        total.merge(&d);
        assert_eq!(total.builds(), 2 * d.builds());
        assert_eq!(total.requests(), total.hits() + total.builds());
    }
}
