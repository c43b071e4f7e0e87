//! Control-flow graph over the statement tree.
//!
//! Each IL statement becomes one CFG node (plus virtual entry/exit nodes).
//! Structured constructs contribute their natural edges; `goto`s — which C
//! allows to enter loops (§1 item 3) — contribute arbitrary edges to label
//! nodes. The while→DO conversion (§5.2) asks this graph whether any branch
//! enters a loop from outside.

use crate::loops::stmt_ids_in;
use std::collections::HashMap;
use titanc_il::{LabelId, Procedure, StmtId, StmtKind, StmtPool};

/// A CFG node index.
pub type NodeId = usize;

/// The control-flow graph of one procedure.
#[derive(Debug)]
pub struct Cfg {
    /// Virtual entry node.
    pub entry: NodeId,
    /// Virtual exit node.
    pub exit: NodeId,
    /// `stmt_of[n]` is the statement a node represents (None for
    /// entry/exit).
    pub stmt_of: Vec<Option<StmtId>>,
    /// Successor lists.
    pub succs: Vec<Vec<NodeId>>,
    /// Predecessor lists.
    pub preds: Vec<Vec<NodeId>>,
    /// The node of each statement, by `StmtId` index (`None` for arena
    /// slots no block links).
    node_of_stmt: Vec<Option<NodeId>>,
    labels: HashMap<LabelId, NodeId>,
}

impl Cfg {
    /// Builds the CFG of a procedure.
    pub fn build(proc: &Procedure) -> Cfg {
        let mut b = Builder {
            cfg: Cfg {
                entry: 0,
                exit: 1,
                stmt_of: vec![None, None],
                succs: vec![Vec::new(), Vec::new()],
                preds: vec![Vec::new(), Vec::new()],
                node_of_stmt: vec![None; proc.stmts.len()],
                labels: HashMap::new(),
            },
            gotos: Vec::new(),
        };
        // pass 1: a node per statement, labels recorded
        b.alloc_block(&proc.stmts, &proc.body);
        // pass 2: structured edges; gotos collected
        let (head, tails) = b.wire_block(&proc.stmts, &proc.body);
        let entry = b.cfg.entry;
        let exit = b.cfg.exit;
        match head {
            Some(h) => b.edge(entry, h),
            None => b.edge(entry, exit),
        }
        for t in tails {
            b.edge(t, exit);
        }
        // pass 3: goto edges
        let gotos = std::mem::take(&mut b.gotos);
        for (from, label) in gotos {
            if let Some(&target) = b.cfg.labels.get(&label) {
                b.edge(from, target);
            }
        }
        b.cfg
    }

    /// Number of nodes (including entry/exit).
    pub fn len(&self) -> usize {
        self.stmt_of.len()
    }

    /// True when the graph has only entry/exit.
    pub fn is_empty(&self) -> bool {
        self.len() == 2
    }

    /// The node representing statement `s`, if it exists.
    pub fn node_of(&self, s: StmtId) -> Option<NodeId> {
        self.node_of_stmt.get(s.index()).copied().flatten()
    }

    /// [`Cfg::node_of`] as a table indexed by `StmtId` index.
    pub(crate) fn nodes_by_stmt(&self) -> &[Option<NodeId>] {
        &self.node_of_stmt
    }

    /// Nodes in reverse-postorder from entry.
    pub fn rpo(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.len()];
        let mut order = Vec::with_capacity(self.len());
        self.dfs(self.entry, &mut seen, &mut order);
        order.reverse();
        order
    }

    fn dfs(&self, n: NodeId, seen: &mut [bool], post: &mut Vec<NodeId>) {
        if seen[n] {
            return;
        }
        seen[n] = true;
        for &s in &self.succs[n] {
            self.dfs(s, seen, post);
        }
        post.push(n);
    }

    /// Nodes unreachable from entry (dead code at the graph level).
    pub fn unreachable_nodes(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.len()];
        let mut post = Vec::new();
        self.dfs(self.entry, &mut seen, &mut post);
        (0..self.len()).filter(|&n| !seen[n]).collect()
    }

    /// True if any branch from outside `loop_stmt`'s body targets a label
    /// inside it — the §5.2 "branches entering the loop" test.
    pub fn has_branch_into(&self, proc: &Procedure, loop_stmt: StmtId) -> bool {
        let inside = stmt_ids_in(&proc.stmts, loop_stmt);
        let loop_node = match self.node_of(loop_stmt) {
            Some(n) => n,
            None => return false,
        };
        // a predecessor that is neither the loop header nor inside the body
        // is an entering branch
        let is_inside = |p: NodeId| self.stmt_of[p].is_some_and(|s| inside.contains(&s));
        inside
            .iter()
            .filter_map(|&s| self.node_of(s))
            .flat_map(|n| &self.preds[n])
            .any(|&p| p != loop_node && !is_inside(p))
    }
}

struct Builder {
    cfg: Cfg,
    gotos: Vec<(NodeId, LabelId)>,
}

impl Builder {
    fn alloc_block(&mut self, pool: &StmtPool, block: &[StmtId]) {
        for &s in block {
            let n = self.cfg.stmt_of.len();
            self.cfg.stmt_of.push(Some(s));
            self.cfg.succs.push(Vec::new());
            self.cfg.preds.push(Vec::new());
            self.cfg.node_of_stmt[s.index()] = Some(n);
            if let StmtKind::Label(l) = pool[s] {
                self.cfg.labels.insert(l, n);
            }
            for b in pool[s].blocks() {
                self.alloc_block(pool, b);
            }
        }
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        if !self.cfg.succs[from].contains(&to) {
            self.cfg.succs[from].push(to);
            self.cfg.preds[to].push(from);
        }
    }

    fn node(&self, s: StmtId) -> NodeId {
        self.cfg.node_of_stmt[s.index()].expect("every linked statement was given a node")
    }

    /// Wires a block; returns (head node, dangling tails needing an edge to
    /// whatever follows the block).
    fn wire_block(&mut self, pool: &StmtPool, block: &[StmtId]) -> (Option<NodeId>, Vec<NodeId>) {
        let mut head: Option<NodeId> = None;
        let mut tails: Vec<NodeId> = Vec::new();
        for &s in block {
            let n = self.node(s);
            // connect previous tails to this statement
            if head.is_none() {
                head = Some(n);
            }
            for t in tails.drain(..) {
                self.edge(t, n);
            }
            match &pool[s] {
                StmtKind::Assign { .. }
                | StmtKind::Call { .. }
                | StmtKind::Nop
                | StmtKind::Label(_) => {
                    tails.push(n);
                }
                StmtKind::Return(_) => {
                    let exit = self.cfg.exit;
                    self.edge(n, exit);
                    // no fallthrough
                }
                StmtKind::Goto(l) => {
                    self.gotos.push((n, *l));
                    // no fallthrough
                }
                StmtKind::IfGoto { target, .. } => {
                    self.gotos.push((n, *target));
                    tails.push(n); // fallthrough when not taken
                }
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    let (th, tt) = self.wire_block(pool, then_blk);
                    let (eh, et) = self.wire_block(pool, else_blk);
                    match th {
                        Some(h) => self.edge(n, h),
                        None => tails.push(n),
                    }
                    match eh {
                        Some(h) => self.edge(n, h),
                        None => tails.push(n),
                    }
                    tails.extend(tt);
                    tails.extend(et);
                }
                StmtKind::While { body, .. }
                | StmtKind::DoLoop { body, .. }
                | StmtKind::DoParallel { body, .. } => {
                    let (bh, bt) = self.wire_block(pool, body);
                    match bh {
                        Some(h) => self.edge(n, h),
                        None => self.edge(n, n), // empty body loops on header
                    }
                    for t in bt {
                        self.edge(t, n); // back edge
                    }
                    tails.push(n); // loop exit
                }
                StmtKind::WhileSpread {
                    parallel, serial, ..
                } => {
                    // cond -> parallel -> serial -> cond (back edge)
                    let (ph, pt) = self.wire_block(pool, parallel);
                    let (sh, st) = self.wire_block(pool, serial);
                    let first = ph.or(sh);
                    match first {
                        Some(h) => self.edge(n, h),
                        None => self.edge(n, n),
                    }
                    match (pt.is_empty(), sh) {
                        (false, Some(h)) => {
                            for t in pt {
                                self.edge(t, h);
                            }
                        }
                        (false, None) => {
                            for t in pt {
                                self.edge(t, n);
                            }
                        }
                        _ => {}
                    }
                    for t in st {
                        self.edge(t, n);
                    }
                    tails.push(n);
                }
            }
        }
        (head, tails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_lower::compile_to_il;

    fn cfg_of(src: &str, name: &str) -> (Procedure, Cfg) {
        let prog = compile_to_il(src).unwrap();
        let proc = prog.proc_by_name(name).unwrap().clone();
        let cfg = Cfg::build(&proc);
        (proc, cfg)
    }

    #[test]
    fn straight_line_chains() {
        let (_p, cfg) = cfg_of("void f(int a) { a = 1; a = 2; a = 3; }", "f");
        // entry -> s1 -> s2 -> s3 -> exit
        assert_eq!(cfg.len(), 5);
        assert_eq!(cfg.succs[cfg.entry].len(), 1);
        assert_eq!(cfg.preds[cfg.exit].len(), 1);
    }

    #[test]
    fn if_has_two_successors() {
        let (p, cfg) = cfg_of("void f(int a) { if (a) a = 1; else a = 2; a = 3; }", "f");
        let if_stmt = p
            .body
            .iter()
            .find(|&&s| matches!(p.stmts[s], StmtKind::If { .. }))
            .unwrap();
        let n = cfg.node_of(*if_stmt).unwrap();
        assert_eq!(cfg.succs[n].len(), 2);
    }

    #[test]
    fn while_has_back_edge_and_exit() {
        let (p, cfg) = cfg_of("void f(int n) { while (n) { n = n - 1; } n = 9; }", "f");
        let w = p
            .body
            .iter()
            .find(|&&s| matches!(p.stmts[s], StmtKind::While { .. }))
            .unwrap();
        let n = cfg.node_of(*w).unwrap();
        assert_eq!(cfg.succs[n].len(), 2, "body + exit");
        assert!(cfg.preds[n].len() >= 2, "entry-side + back edge");
    }

    #[test]
    fn return_cuts_fallthrough() {
        let (p, cfg) = cfg_of("int f(int a) { return 1; a = 2; return a; }", "f");
        // `a = 2` is unreachable
        let dead = cfg.unreachable_nodes();
        let a2 = p.body[1];
        assert!(dead.contains(&cfg.node_of(a2).unwrap()));
    }

    #[test]
    fn goto_into_loop_detected() {
        let src = r#"
void f(int n)
{
    if (n > 5) goto inside;
    while (n) {
inside:
        n = n - 1;
    }
}
"#;
        let (p, cfg) = cfg_of(src, "f");
        let mut loop_stmt = None;
        p.for_each_stmt(&mut |s, k| {
            if matches!(k, StmtKind::While { .. }) {
                loop_stmt = Some(s);
            }
        });
        assert!(cfg.has_branch_into(&p, loop_stmt.unwrap()));
    }

    #[test]
    fn normal_loop_has_no_entering_branch() {
        let (p, cfg) = cfg_of("void f(int n) { while (n) { n = n - 1; } }", "f");
        let w = p
            .body
            .iter()
            .find(|&&s| matches!(p.stmts[s], StmtKind::While { .. }))
            .unwrap();
        assert!(!cfg.has_branch_into(&p, *w));
    }

    #[test]
    fn break_is_not_an_entering_branch() {
        let (p, cfg) = cfg_of(
            "void f(int n) { while (n) { if (n == 2) break; n = n - 1; } }",
            "f",
        );
        let w = p
            .body
            .iter()
            .find(|&&s| matches!(p.stmts[s], StmtKind::While { .. }))
            .unwrap();
        assert!(!cfg.has_branch_into(&p, *w));
    }

    #[test]
    fn rpo_starts_at_entry() {
        let (_p, cfg) = cfg_of("void f(int n) { while (n) n = n - 1; }", "f");
        let order = cfg.rpo();
        assert_eq!(order[0], cfg.entry);
        assert!(order.contains(&cfg.exit));
    }

    #[test]
    fn empty_body_loop() {
        let (_p, cfg) = cfg_of("void f(volatile int *p) { while (*p); }", "f");
        assert!(!cfg.is_empty());
        // self-loop on the header
        let hdr = (0..cfg.len()).find(|&n| cfg.succs[n].contains(&n));
        assert!(hdr.is_some(), "empty while body yields a header self-loop");
    }
}
