//! The statement-level dependence graph of a DO loop and its SCC
//! condensation — the structure driving vectorization (§5), register
//! promotion, instruction scheduling and strength reduction (§6) — and
//! [`level_carried`], the question the vectorizer asks of a loop nest
//! before it moves a loop inward.

use crate::test::{test_level, test_pair, NestRef, Verdict};
use std::collections::BTreeMap;
use titanc_il::{Expr, ExprId, ExprPool, LValue, Procedure, StmtId, StmtKind, VarId};
use titanc_opt::affine::{decompose, decompose_nest, Affine, DoHeader, NEST_LEVELS};

/// The kind of a dependence edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepKind {
    /// Write → read (flow).
    True,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
}

/// One dependence edge between top-level body statements.
#[derive(Clone, Debug)]
pub struct DepEdge {
    /// Source statement (index into the body).
    pub from: usize,
    /// Sink statement (index into the body).
    pub to: usize,
    /// Flow/anti/output.
    pub kind: DepKind,
    /// Verdict of the subscript test (distance when known).
    pub verdict: Verdict,
    /// True when the dependence crosses iterations.
    pub carried: bool,
    /// True when the edge arises from a scalar variable rather than
    /// memory.
    pub scalar: bool,
}

/// A memory reference found in a statement.
#[derive(Clone, Debug)]
pub struct MemRef {
    /// Top-level statement index.
    pub stmt: usize,
    /// Store (true) or load.
    pub is_write: bool,
    /// Affine form, if the address was analyzable.
    pub affine: Option<Affine>,
    /// Bytes the access touches (0 when the address was not analyzable).
    pub width: i64,
    /// Access is volatile.
    pub volatile: bool,
}

/// The dependence graph of one loop body.
#[derive(Debug)]
pub struct DepGraph {
    /// Number of top-level statements.
    pub n: usize,
    /// All edges.
    pub edges: Vec<DepEdge>,
    /// All memory references.
    pub refs: Vec<MemRef>,
    /// Statements that can never be vectorized (calls, gotos, volatile
    /// accesses, nested control flow, non-affine memory references).
    pub pinned: Vec<bool>,
    /// The iteration space the references were tested in.
    space: Space,
}

/// What [`DepGraph::build`] tests two references of one loop in: the
/// loop's constant first value, step and constant trip count, and the
/// aliasing regime.
#[derive(Clone, Copy, Debug)]
struct Space {
    lo_const: Option<i64>,
    step: i64,
    trips: Option<i64>,
    aliasing: Aliasing,
}

/// Aliasing regime for unprovable base pairs (§9: "a compiler option that
/// states that pointer parameters have Fortran semantics").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Aliasing {
    /// C semantics: distinct pointer bases may alias.
    C,
    /// Fortran parameter semantics: distinct pointer-parameter bases do
    /// not alias (and never alias named arrays).
    Fortran,
}

impl DepGraph {
    /// Builds the dependence graph of `body`, the body of the DO loop
    /// `head`, in *iteration space*: references are tested after
    /// substituting `lv = lo + k·step`, so distances are in iterations —
    /// correct for countdown loops and non-unit strides. A constant `lo`
    /// and a constant trip count sharpen the tests.
    pub fn build(
        proc: &Procedure,
        body: &[StmtId],
        head: &DoHeader,
        aliasing: Aliasing,
    ) -> DepGraph {
        let DoHeader { lv, step, .. } = *head;
        let space = Space {
            lo_const: proc.exprs.as_int(head.lo),
            step,
            trips: head.const_trip_count(&proc.exprs),
            aliasing,
        };
        let n = body.len();
        let mut refs = Vec::new();
        let mut pinned = vec![false; n];

        for (i, &s) in body.iter().enumerate() {
            match &proc.stmts[s] {
                StmtKind::Assign { lhs, rhs } => {
                    match lhs {
                        LValue::Var(_) => {}
                        LValue::Deref { addr, ty, volatile } => {
                            let affine = decompose(proc, body, lv, *addr);
                            if affine.is_none() || *volatile {
                                pinned[i] = true;
                            }
                            refs.push(MemRef {
                                stmt: i,
                                is_write: true,
                                affine,
                                width: ty.size(),
                                volatile: *volatile,
                            });
                        }
                        LValue::Section { .. } => {
                            // an already-vectorized statement: its writes
                            // are unanalyzable here but must still
                            // constrain statement ordering
                            pinned[i] = true;
                            refs.push(MemRef {
                                stmt: i,
                                is_write: true,
                                affine: None,
                                width: 0,
                                volatile: false,
                            });
                        }
                    }
                    collect_loads(proc, body, lv, *rhs, i, &mut refs, &mut pinned);
                    for ae in lhs.address_exprs() {
                        for c in proc.exprs[ae].child_ids() {
                            collect_loads(proc, body, lv, c, i, &mut refs, &mut pinned);
                        }
                    }
                }
                _ => {
                    // calls, control flow, returns: pinned; still collect
                    // every memory reference in the whole statement tree
                    // (stores inside an If body constrain distribution!)
                    pinned[i] = true;
                    collect_refs_deep(proc, body, lv, s, i, &mut refs, &mut pinned);
                }
            }
        }

        let mut edges = Vec::new();
        // memory dependences
        for (ri, r1) in refs.iter().enumerate() {
            for r2 in refs.iter().skip(ri) {
                if !r1.is_write && !r2.is_write {
                    continue;
                }
                if r1.stmt == r2.stmt && std::ptr::eq(r1, r2) {
                    continue;
                }
                let verdict = match (&r1.affine, &r2.affine) {
                    (Some(a1), Some(a2)) => {
                        space.classify(&proc.exprs, a1, a2, [r1.width, r2.width])
                    }
                    _ => Verdict::Unknown,
                };
                if verdict.may_depend() {
                    push_mem_edges(&mut edges, r1, r2, verdict);
                }
            }
        }
        // scalar dependences between top-level statements
        scalar_edges(proc, body, lv, &mut edges);

        DepGraph {
            n,
            edges,
            refs,
            pinned,
            space,
        }
    }

    /// Whether two accesses of the loop — each an address in the loop
    /// variable and the bytes it touches — may touch a common byte in any
    /// two iterations, by the test behind the graph's memory edges.
    pub fn may_overlap(&self, exprs: &ExprPool, a: (&Affine, i64), b: (&Affine, i64)) -> bool {
        (self.space.classify(exprs, a.0, b.0, [a.1, b.1])).may_depend()
    }

    /// Strongly connected components of the statement graph, returned in a
    /// topological order of the condensation (sources first). Statements
    /// with no edges form singleton components.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for e in &self.edges {
            if e.from != e.to {
                succ[e.from].push(e.to);
            }
        }
        let comps = tarjan(self.n, &succ);
        stable_topo(comps, &succ)
    }

    /// True when statement `i` has a carried true or output self-dependence
    /// (which forbids vectorizing it even as a singleton component;
    /// carried *anti* self-dependences are fine because vector statements
    /// gather all loads before scattering stores).
    pub fn has_carried_self_cycle(&self, i: usize) -> bool {
        self.edges.iter().any(|e| {
            e.from == i
                && e.to == i
                && e.carried
                && matches!(e.kind, DepKind::True | DepKind::Output)
        })
    }

    /// True when no edge of the graph is loop-carried — the loop's
    /// iterations are independent and may be spread across processors.
    pub fn iterations_independent(&self) -> bool {
        self.edges.iter().all(|e| !e.carried)
    }

    /// The carried **true** memory dependences with a known distance —
    /// the §6 register-promotion candidates.
    pub fn carried_true_distances(&self) -> Vec<(&DepEdge, i64)> {
        self.edges
            .iter()
            .filter_map(|e| match (e.kind, e.scalar, e.verdict) {
                (DepKind::True, false, Verdict::Distance(d)) if d != 0 => Some((e, d)),
                _ => None,
            })
            .collect()
    }
}

/// Whether the DO loop `head`, whose body `body` is a nest of assignments
/// and DO loops, carries a memory dependence at its own level: whether two
/// of the nest's references, at least one of them a store, can touch a
/// common byte in two different iterations of the loop, each DO variable
/// inside it ranging over its loop's bounds ([`test_level`]). Scalars are
/// the caller's question. A reference that is volatile or does not
/// decompose, a loop or a level whose bounds are not constant, a nest
/// deeper than [`NEST_LEVELS`] below the loop, any other statement, and
/// any pair the tests cannot separate (symbolic parts that differ within
/// one array, like `a[i][j]` against `a[k][j]`) count as carried.
pub fn level_carried(
    proc: &Procedure,
    body: &[StmtId],
    head: &DoHeader,
    aliasing: Aliasing,
) -> bool {
    let (Some(lo), Some(trips)) = (
        proc.exprs.as_int(head.lo),
        head.const_trip_count(&proc.exprs),
    ) else {
        return true;
    };
    let mut nest = Nest {
        proc,
        body,
        head,
        lo,
        levels: Vec::new(),
        refs: Vec::new(),
    };
    if nest.collect(body).is_none() {
        return true;
    }
    let refs = nest.refs;
    let exprs = &proc.exprs;
    refs.iter().enumerate().any(|(i, (a, a_writes))| {
        refs[i..].iter().any(|(b, b_writes)| {
            (*a_writes || *b_writes)
                && if a.affine.same_base(&b.affine, exprs) {
                    test_level(a, b, trips)
                } else {
                    bases_may_alias(exprs, &a.affine, &b.affine, aliasing).may_depend()
                }
        })
    })
}

/// The walk behind [`level_carried`]: every memory reference of the nest
/// in iteration space, with the headers of the DO loops around it.
struct Nest<'a> {
    proc: &'a Procedure,
    body: &'a [StmtId],
    head: &'a DoHeader,
    /// The level's constant first value.
    lo: i64,
    /// (variable, first value, step, trip count) of each enclosing inner
    /// loop, outermost first.
    levels: Vec<(VarId, i64, i64, i64)>,
    /// Each reference, and whether it stores.
    refs: Vec<(NestRef, bool)>,
}

impl Nest<'_> {
    /// Collects `block`'s references; `None` on anything the level test
    /// cannot read.
    fn collect(&mut self, block: &[StmtId]) -> Option<()> {
        let proc = self.proc;
        for &s in block {
            match &proc.stmts[s] {
                StmtKind::Assign { lhs, rhs } => {
                    match *lhs {
                        LValue::Var(_) => {}
                        LValue::Deref {
                            addr,
                            ty,
                            volatile: false,
                        } => self.push(addr, ty.size(), true)?,
                        _ => return None,
                    }
                    for e in lhs.address_exprs().into_iter().chain([*rhs]) {
                        self.loads(e)?;
                    }
                }
                StmtKind::DoLoop { body, .. } if self.levels.len() < NEST_LEVELS => {
                    let h = DoHeader::of(&proc.stmts[s], &proc.exprs)?;
                    let first = proc.exprs.as_int(h.lo)?;
                    let trips = h.const_trip_count(&proc.exprs)?;
                    self.levels.push((h.lv, first, h.step, trips));
                    self.collect(body)?;
                    self.levels.pop();
                }
                _ => return None,
            }
        }
        Some(())
    }

    /// Collects the loads of `e`, an address's own included.
    fn loads(&mut self, e: ExprId) -> Option<()> {
        match self.proc.exprs[e] {
            Expr::Load {
                addr,
                ty,
                volatile: false,
            } => self.push(addr, ty.size(), false)?,
            Expr::Load { .. } | Expr::Section { .. } => return None,
            _ => {}
        }
        for c in self.proc.exprs[e].child_ids() {
            self.loads(c)?;
        }
        Some(())
    }

    /// Records the reference at `addr` with every variable of the nest at
    /// its first value plus its step times its iteration number.
    fn push(&mut self, addr: ExprId, width: i64, is_write: bool) -> Option<()> {
        let vars: Vec<VarId> = self.levels.iter().map(|l| l.0).collect();
        let mut affine = decompose_nest(self.proc, self.body, self.head.lv, &vars, addr)?;
        // (coefficient, first value, step) → (coefficient·step, its offset)
        let number =
            |m: i64, first: i64, step: i64| Some((m.checked_mul(step)?, m.checked_mul(first)?));
        let (coeff, at_lo) = number(affine.coeff, self.lo, self.head.step)?;
        affine.coeff = coeff;
        affine.offset = affine.offset.checked_add(at_lo)?;
        let mut inner_trips = [1; NEST_LEVELS];
        for (j, &(_, first, step, trips)) in self.levels.iter().enumerate() {
            let (m, at_first) = number(affine.inner[j], first, step)?;
            affine.inner[j] = m;
            affine.offset = affine.offset.checked_add(at_first)?;
            inner_trips[j] = trips;
        }
        let r = NestRef {
            affine,
            inner_trips,
            width,
        };
        self.refs.push((r, is_write));
        Some(())
    }
}

/// Collects every load and store in a statement tree (used for pinned
/// statements whose nested blocks still constrain statement ordering).
fn collect_refs_deep(
    proc: &Procedure,
    body: &[StmtId],
    lv: VarId,
    s: StmtId,
    stmt: usize,
    refs: &mut Vec<MemRef>,
    pinned: &mut [bool],
) {
    if let StmtKind::Assign { lhs, .. } = &proc.stmts[s] {
        match lhs {
            LValue::Deref { addr, ty, volatile } => {
                refs.push(MemRef {
                    stmt,
                    is_write: true,
                    affine: decompose(proc, body, lv, *addr),
                    width: ty.size(),
                    volatile: *volatile,
                });
            }
            LValue::Section { .. } => {
                refs.push(MemRef {
                    stmt,
                    is_write: true,
                    affine: None,
                    width: 0,
                    volatile: false,
                });
            }
            LValue::Var(_) => {}
        }
    }
    if matches!(proc.stmts[s], StmtKind::Call { .. }) {
        // worst case: the callee may read or write anything
        refs.push(MemRef {
            stmt,
            is_write: true,
            affine: None,
            width: 0,
            volatile: false,
        });
    }
    for e in proc.stmts[s].exprs() {
        collect_loads(proc, body, lv, e, stmt, refs, pinned);
    }
    for b in proc.stmts[s].blocks() {
        for &inner in b {
            collect_refs_deep(proc, body, lv, inner, stmt, refs, pinned);
        }
    }
}

fn collect_loads(
    proc: &Procedure,
    body: &[StmtId],
    lv: VarId,
    e: ExprId,
    stmt: usize,
    refs: &mut Vec<MemRef>,
    pinned: &mut [bool],
) {
    match proc.exprs[e] {
        Expr::Load { addr, ty, volatile } => {
            let affine = decompose(proc, body, lv, addr);
            if affine.is_none() || volatile {
                pinned[stmt] = true;
            }
            refs.push(MemRef {
                stmt,
                is_write: false,
                affine,
                width: ty.size(),
                volatile,
            });
        }
        Expr::Section { .. } => {
            // vector reads: unanalyzable, but they order against writes
            pinned[stmt] = true;
            refs.push(MemRef {
                stmt,
                is_write: false,
                affine: None,
                width: 0,
                volatile: false,
            });
        }
        _ => {}
    }
    for c in proc.exprs[e].child_ids() {
        collect_loads(proc, body, lv, c, stmt, refs, pinned);
    }
}

impl Space {
    /// The verdict on two accesses of `widths` bytes at `a1` and `a2`.
    fn classify(&self, exprs: &ExprPool, a1: &Affine, a2: &Affine, widths: [i64; 2]) -> Verdict {
        let Space {
            lo_const,
            step,
            trips,
            aliasing,
        } = *self;
        if a1.same_base(a2, exprs) {
            test_in_iteration_space(exprs, a1, a2, widths, lo_const, step, trips)
        } else {
            bases_may_alias(exprs, a1, a2, aliasing)
        }
    }
}

/// Substitutes `lv = lo + k·step` so [`test_pair`] operates on the
/// iteration number `k`: `base + coeff·lv + off` becomes
/// `base + (coeff·step)·k + (off + coeff·lo)`.
fn test_in_iteration_space(
    exprs: &ExprPool,
    a1: &Affine,
    a2: &Affine,
    widths: [i64; 2],
    lo_const: Option<i64>,
    step: i64,
    trips: Option<i64>,
) -> Verdict {
    debug_assert!(a1.same_base(a2, exprs), "test_pair requires a common base");
    let l0 = match lo_const {
        Some(l0) => l0,
        // symbolic lower bound: the `coeff·lo` offsets cancel in
        // `test_pair`'s delta only when the coefficients agree (strong
        // SIV), so any constant stands in for `lo`; otherwise stay
        // conservative
        None if a1.coeff == a2.coeff => 0,
        None => return Verdict::Unknown,
    };
    let lv = Affine::new(Vec::new(), step, l0);
    test_pair(
        &a1.substitute(exprs, &lv),
        &a2.substitute(exprs, &lv),
        widths,
        trips,
    )
}

/// Distinct symbolic bases: named arrays never alias each other; under
/// Fortran parameter semantics distinct pointer bases don't either.
fn bases_may_alias(exprs: &ExprPool, a1: &Affine, a2: &Affine, aliasing: Aliasing) -> Verdict {
    // addresses rooted in different named arrays can never collide, even
    // when outer-loop terms ride along in the symbolic part
    if let (Some(x), Some(y)) = (a1.array_root(exprs), a2.array_root(exprs)) {
        if x != y {
            return Verdict::Independent;
        }
    }
    if aliasing == Aliasing::Fortran {
        // distinct bases (array vs pointer, pointer vs pointer) are
        // declared independent by the option
        return Verdict::Independent;
    }
    Verdict::Unknown
}

fn push_mem_edges(edges: &mut Vec<DepEdge>, r1: &MemRef, r2: &MemRef, verdict: Verdict) {
    let kind = match (r1.is_write, r2.is_write) {
        (true, false) => DepKind::True,
        (false, true) => DepKind::Anti,
        (true, true) => DepKind::Output,
        (false, false) => return,
    };
    // Edge direction: dependences flow with iteration/statement order.
    // For a known distance d: d > 0 means r1's iteration precedes r2's.
    match verdict {
        Verdict::Independent => {}
        Verdict::Distance(0) => {
            // loop-independent: direction follows statement order
            let (from, to, kind) = if r1.stmt <= r2.stmt {
                (r1.stmt, r2.stmt, kind)
            } else {
                (r2.stmt, r1.stmt, reverse(kind))
            };
            edges.push(DepEdge {
                from,
                to,
                kind,
                verdict,
                carried: false,
                scalar: false,
            });
        }
        Verdict::Distance(d) if d > 0 => {
            edges.push(DepEdge {
                from: r1.stmt,
                to: r2.stmt,
                kind,
                verdict,
                carried: true,
                scalar: false,
            });
        }
        Verdict::Distance(d) => {
            // negative distance: the dependence actually runs r2 → r1
            edges.push(DepEdge {
                from: r2.stmt,
                to: r1.stmt,
                kind: reverse(kind),
                verdict: Verdict::Distance(-d),
                carried: true,
                scalar: false,
            });
        }
        Verdict::Unknown => {
            // unknown: both directions, carried (worst case)
            edges.push(DepEdge {
                from: r1.stmt,
                to: r2.stmt,
                kind,
                verdict,
                carried: true,
                scalar: false,
            });
            if r1.stmt != r2.stmt {
                edges.push(DepEdge {
                    from: r2.stmt,
                    to: r1.stmt,
                    kind: reverse(kind),
                    verdict,
                    carried: true,
                    scalar: false,
                });
            }
        }
    }
}

fn reverse(kind: DepKind) -> DepKind {
    match kind {
        DepKind::True => DepKind::Anti,
        DepKind::Anti => DepKind::True,
        DepKind::Output => DepKind::Output,
    }
}

/// Scalar dependences: any two statements where one writes a register
/// candidate the other touches. Conservatively carried in both directions
/// (scalar cycles make a statement group sequential — accumulations stay
/// scalar).
fn scalar_edges(proc: &Procedure, body: &[StmtId], lv: VarId, edges: &mut Vec<DepEdge>) {
    // ordered maps: the edge order reaches the vectorizer's remarks, which
    // must not vary run to run
    let mut writes: BTreeMap<VarId, Vec<usize>> = BTreeMap::new();
    let mut reads: BTreeMap<VarId, Vec<usize>> = BTreeMap::new();
    for (i, &s) in body.iter().enumerate() {
        if let Some(v) = proc.stmts[s].defined_var() {
            if v != lv && proc.var(v).is_register_candidate() {
                writes.entry(v).or_default().push(i);
            }
        }
        let mut rs: Vec<VarId> = Vec::new();
        fn gather(proc: &Procedure, s: StmtId, out: &mut Vec<VarId>) {
            for e in proc.stmts[s].exprs() {
                out.extend(proc.exprs.vars_read(e));
            }
            for b in proc.stmts[s].blocks() {
                for &inner in b {
                    gather(proc, inner, out);
                }
            }
        }
        gather(proc, s, &mut rs);
        for v in rs {
            if v != lv && proc.var(v).is_register_candidate() {
                reads.entry(v).or_default().push(i);
            }
        }
    }
    for (v, ws) in &writes {
        let empty = Vec::new();
        let rs = reads.get(v).unwrap_or(&empty);
        for &w in ws {
            for &r in rs {
                push_scalar(edges, w, r, DepKind::True, w >= r);
                push_scalar(edges, r, w, DepKind::Anti, r >= w);
            }
            for &w2 in ws {
                if w != w2 {
                    push_scalar(edges, w, w2, DepKind::Output, w >= w2);
                }
            }
        }
    }
}

fn push_scalar(edges: &mut Vec<DepEdge>, from: usize, to: usize, kind: DepKind, carried: bool) {
    edges.push(DepEdge {
        from,
        to,
        kind,
        verdict: Verdict::Unknown,
        carried,
        scalar: true,
    });
}

/// Stable topological sort of Tarjan's condensation: sources first,
/// original statement order as the tie-break (so edgeless graphs keep
/// their textual order).
fn stable_topo(mut comps: Vec<Vec<usize>>, succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    // map node -> component index
    let mut comp_of = std::collections::HashMap::new();
    for (ci, comp) in comps.iter().enumerate() {
        for &v in comp {
            comp_of.insert(v, ci);
        }
    }
    let k = comps.len();
    let mut preds_left = vec![0usize; k];
    let mut csucc: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (v, outs) in succ.iter().enumerate() {
        for &w in outs {
            let (a, b) = (comp_of[&v], comp_of[&w]);
            if a != b && !csucc[a].contains(&b) {
                csucc[a].push(b);
                preds_left[b] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..k).filter(|&c| preds_left[c] == 0).collect();
    let mut out = Vec::with_capacity(k);
    while !ready.is_empty() {
        // pick the ready component whose first statement is earliest
        ready.sort_by_key(|&c| comps[c].first().copied().unwrap_or(usize::MAX));
        let c = ready.remove(0);
        out.push(std::mem::take(&mut comps[c]));
        for &d in &csucc[c] {
            preds_left[d] -= 1;
            if preds_left[d] == 0 {
                ready.push(d);
            }
        }
    }
    out
}

/// Tarjan's SCC algorithm; components come out in reverse topological
/// order, so we reverse before returning (sources first).
fn tarjan(n: usize, succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct State<'a> {
        succ: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        out: Vec<Vec<usize>>,
    }
    fn strongconnect(v: usize, st: &mut State<'_>) {
        st.index[v] = Some(st.next);
        st.low[v] = st.next;
        st.next += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in st.succ[v].iter() {
            if st.index[w].is_none() {
                strongconnect(w, st);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w].unwrap());
            }
        }
        if st.low[v] == st.index[v].unwrap() {
            let mut comp = Vec::new();
            loop {
                let w = st.stack.pop().unwrap();
                st.on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.sort_unstable();
            st.out.push(comp);
        }
    }
    let mut st = State {
        succ,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &mut st);
        }
    }
    st.out.reverse();
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::{Block, StmtKind};
    use titanc_lower::compile_to_il;
    use titanc_opt::{
        convert_while_loops, eliminate_dead_code, forward_substitute, induction_substitution,
    };

    /// Compile, convert, substitute, clean — then find the first DO loop.
    fn prep(src: &str) -> (Procedure, DoHeader, Block) {
        let prog = compile_to_il(src).unwrap();
        let mut proc = prog.procs[0].clone();
        convert_while_loops(&mut proc);
        induction_substitution(&mut proc);
        forward_substitute(&mut proc);
        eliminate_dead_code(&mut proc);
        let mut found = None;
        proc.for_each_stmt(&mut |_, k| {
            if let (None, StmtKind::DoLoop { body, .. }) = (&found, k) {
                found = Some((DoHeader::of(k, &proc.exprs), body.clone()));
            }
        });
        let (head, body) = found.expect("DO loop");
        (proc, head.expect("a constant step"), body)
    }

    #[test]
    fn independent_arrays_have_no_memory_edges() {
        let src = r#"
float a[100], b[100];
void f(void) { int i; for (i = 0; i < 100; i++) a[i] = b[i] + 1.0f; }
"#;
        let (proc, head, body) = prep(src);
        let g = DepGraph::build(&proc, &body, &head, Aliasing::C);
        assert!(
            g.edges
                .iter()
                .all(|e| e.scalar || !e.verdict.may_depend() || !e.carried),
            "{:?}",
            g.edges
        );
        assert!(g.iterations_independent(), "{:?}", g.edges);
    }

    #[test]
    fn backsolve_has_distance_one_flow_dep() {
        // §6: p[i] = z[i] * (y[i] - q[i]) with p = &x[1], q = &x[0]
        let src = r#"
float x[100], y[100], z[100];
void f(int n)
{
    float *p, *q;
    int i;
    p = &x[1];
    q = &x[0];
    for (i = 0; i < n - 2; i++)
        p[i] = z[i] * (y[i] - q[i]);
}
"#;
        let (proc, head, body) = prep(src);
        let g = DepGraph::build(&proc, &body, &head, Aliasing::C);
        let dists = g.carried_true_distances();
        assert_eq!(dists.len(), 1, "edges: {:#?}", g.edges);
        assert_eq!(
            dists[0].1, 1,
            "x[i+1] stored, x[i] read one iteration later"
        );
        assert!(!g.iterations_independent());
    }

    #[test]
    fn pointer_params_alias_under_c_not_under_fortran() {
        let src = r#"
void f(float *a, float *b, int n)
{
    int i;
    for (i = 0; i < n; i++)
        a[i] = b[i] + 1.0f;
}
"#;
        let (proc, head, body) = prep(src);
        let g_c = DepGraph::build(&proc, &body, &head, Aliasing::C);
        assert!(!g_c.iterations_independent(), "C pointers may alias");
        let g_f = DepGraph::build(&proc, &body, &head, Aliasing::Fortran);
        assert!(g_f.iterations_independent(), "{:#?}", g_f.edges);
    }

    #[test]
    fn self_true_cycle_detected() {
        // x[i+1] = x[i] * 2: recurrence, not vectorizable
        let src = r#"
float x[100];
void f(int n) { int i; for (i = 0; i < n; i++) x[i + 1] = x[i] * 2.0f; }
"#;
        let (proc, head, body) = prep(src);
        let g = DepGraph::build(&proc, &body, &head, Aliasing::C);
        let store_stmt = body
            .iter()
            .position(|&s| proc.stmts[s].writes_memory())
            .unwrap();
        assert!(g.has_carried_self_cycle(store_stmt), "{:#?}", g.edges);
    }

    #[test]
    fn anti_self_dep_is_not_a_blocking_cycle() {
        // x[i] = x[i+1]: reads ahead, writes behind — vectorizable
        let src = r#"
float x[100];
void f(int n) { int i; for (i = 0; i < n; i++) x[i] = x[i + 1]; }
"#;
        let (proc, head, body) = prep(src);
        let g = DepGraph::build(&proc, &body, &head, Aliasing::C);
        let store_stmt = body
            .iter()
            .position(|&s| proc.stmts[s].writes_memory())
            .unwrap();
        assert!(
            !g.has_carried_self_cycle(store_stmt),
            "anti deps do not block: {:#?}",
            g.edges
        );
    }

    #[test]
    fn volatile_reference_pins_statement() {
        let src = r#"
volatile int port;
float x[100];
void f(int n) { int i; for (i = 0; i < n; i++) x[i] = port; }
"#;
        let (proc, head, body) = prep(src);
        let g = DepGraph::build(&proc, &body, &head, Aliasing::C);
        assert!(g.pinned.iter().any(|&p| p), "volatile access pins");
    }

    #[test]
    fn call_pins_statement() {
        let src = r#"
float g(float v);
float x[100];
void f(int n) { int i; for (i = 0; i < n; i++) x[i] = g(1.0f); }
"#;
        let (proc, head, body) = prep(src);
        let g = DepGraph::build(&proc, &body, &head, Aliasing::C);
        assert!(g.pinned.iter().any(|&p| p));
    }

    #[test]
    fn scc_topological_order() {
        // s0: t[i] = a[i]; s1: b[i] = t2[i] (independent arrays) — all
        // singleton SCCs in an order consistent with loop-independent deps
        let src = r#"
float a[100], b[100], t[100];
void f(void)
{
    int i;
    for (i = 0; i < 100; i++) {
        t[i] = a[i] + 1.0f;
        b[i] = t[i] * 2.0f;
    }
}
"#;
        let (proc, head, body) = prep(src);
        let g = DepGraph::build(&proc, &body, &head, Aliasing::C);
        let sccs = g.sccs();
        // find positions of the two stores
        let pos_t = sccs.iter().position(|c| c.contains(&0)).unwrap();
        let pos_b = sccs
            .iter()
            .position(|c| c.contains(&(body.len() - 1)))
            .unwrap();
        assert!(pos_t < pos_b, "producer before consumer: {sccs:?}");
    }

    /// A symbolic lower bound: with equal coefficients the `coeff·lo`
    /// offsets cancel, so strong SIV still measures the distance, as it
    /// does for any constant `lo`; unequal coefficients stay unknown.
    #[test]
    fn symbolic_lower_bound_is_strong_siv() {
        let mut pool = ExprPool::new();
        let e = pool.int(0);
        let aff = |coeff, offset| Affine::new(vec![(e, 1)], coeff, offset);
        // x[i + 1] written, x[i] read
        let (w, r) = (aff(4, 4), aff(4, 0));
        for lo in [None, Some(0), Some(7), Some(-3)] {
            assert_eq!(
                test_in_iteration_space(&pool, &w, &r, [4, 4], lo, 1, None),
                Verdict::Distance(1)
            );
            assert_eq!(
                test_in_iteration_space(&pool, &r, &w, [4, 4], lo, 1, Some(100)),
                Verdict::Distance(-1)
            );
            // one trip never reaches distance 1; step 2 never meets
            assert_eq!(
                test_in_iteration_space(&pool, &w, &r, [4, 4], lo, 1, Some(1)),
                Verdict::Independent
            );
            assert_eq!(
                test_in_iteration_space(&pool, &w, &r, [4, 4], lo, 2, None),
                Verdict::Independent
            );
        }
        assert_eq!(
            test_in_iteration_space(&pool, &aff(4, 0), &aff(8, 0), [4, 4], None, 1, None),
            Verdict::Unknown
        );
    }

    #[test]
    fn tarjan_finds_cycles() {
        // tiny direct test of the SCC engine
        let succ = vec![vec![1], vec![2], vec![0], vec![]];
        let sccs = super::tarjan(4, &succ);
        assert_eq!(sccs.len(), 2);
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
    }
}
