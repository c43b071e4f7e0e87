//! # titanc-analysis — scalar analysis
//!
//! The control-flow graph, use–def chains, and live-variable analysis that
//! drive the scalar optimizations of §5–§6. The paper's ordering constraint
//! — *"the proper place to convert while loops is immediately after use-def
//! chains have been constructed"* (§5.2) — is honoured by `titanc-opt`,
//! which builds these structures and runs the conversion first.
//!
//! ## Example
//!
//! ```
//! use titanc_analysis::{Cfg, UseDef};
//!
//! let prog = titanc_lower::compile_to_il(
//!     "int f(int n) { int s; s = 0; while (n) { s = s + n; n = n - 1; } return s; }",
//! ).unwrap();
//! let proc = prog.proc_by_name("f").unwrap();
//! let cfg = Cfg::build(proc);
//! let ud = UseDef::build(proc, &cfg);
//! let n = proc.var_by_name("n").unwrap();
//! assert!(ud.tracked(n));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod cache;
pub mod cfg;
pub mod dataflow;
pub mod loops;

pub use bitset::BitMatrix;
pub use cache::{CacheStats, ProcAnalyses};
pub use cfg::{Cfg, NodeId};
pub use dataflow::{Liveness, UseDef};

/// The call graph of a program: which procedures each procedure calls.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `calls[i]` lists callee names of procedure `i` (in
    /// [`titanc_il::Program::procs`] order), with repeats.
    pub calls: Vec<Vec<String>>,
}

impl CallGraph {
    /// Builds the call graph.
    pub fn build(prog: &titanc_il::Program) -> CallGraph {
        let mut calls = Vec::with_capacity(prog.procs.len());
        for p in &prog.procs {
            let mut list = Vec::new();
            p.for_each_stmt(&mut |_, k| {
                if let titanc_il::StmtKind::Call { callee, .. } = k {
                    list.push(callee.clone());
                }
            });
            calls.push(list);
        }
        CallGraph { calls }
    }

    /// True when `name` can (transitively) call itself — inlining it
    /// without care would never terminate (§7).
    pub fn is_recursive(&self, prog: &titanc_il::Program, name: &str) -> bool {
        let idx = match prog.procs.iter().position(|p| p.name == name) {
            Some(i) => i,
            None => return false,
        };
        let mut stack = vec![idx];
        let mut seen = vec![false; prog.procs.len()];
        while let Some(i) = stack.pop() {
            for callee in &self.calls[i] {
                if callee == name {
                    return true;
                }
                if let Some(j) = prog.procs.iter().position(|p| &p.name == callee) {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        false
    }

    /// The *inline dependency cone* of every procedure: the indices (in
    /// program order, self included) of all procedures whose parsed body
    /// can influence that procedure's post-inline IL.
    ///
    /// The cone is the full transitive-callee closure, deliberately
    /// **unfiltered** by `max_depth` or the size/recursion eligibility
    /// gates. Both filters would be unsound in a cache key:
    ///
    /// * one inlining round can splice bodies from arbitrarily deep in
    ///   the call chain — a callee processed earlier in the same round
    ///   has already absorbed *its* callees, so depth-`max_depth`
    ///   reachability is not a bound on whose code lands in a caller;
    /// * whether a callee passes the recursion gate depends on call
    ///   edges *through* procedures that are themselves ineligible (an
    ///   edit anywhere on a cycle can flip a callee from recursive to
    ///   inlinable), and whether it passes the size gate depends on its
    ///   own inlining, i.e. on its whole reachable set.
    ///
    /// A simple over-approximation that is obviously sound beats a tight
    /// one that silently replays stale IL.
    pub fn inline_cones(&self, prog: &titanc_il::Program) -> Vec<Vec<usize>> {
        let n = prog.procs.len();
        let mut index: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (i, p) in prog.procs.iter().enumerate() {
            // duplicate names cannot occur in a merged session program;
            // first definition wins elsewhere, so mirror that here
            index.entry(p.name.as_str()).or_insert(i);
        }
        // adjacency by index; unknown callees (intrinsics, externals) are
        // not inlinable and drop out of the cone
        let adj: Vec<Vec<usize>> = self
            .calls
            .iter()
            .map(|list| {
                let mut row: Vec<usize> = list
                    .iter()
                    .filter_map(|name| index.get(name.as_str()).copied())
                    .collect();
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        (0..n)
            .map(|start| {
                let mut seen = vec![false; n];
                seen[start] = true;
                let mut stack = vec![start];
                while let Some(i) = stack.pop() {
                    for &j in &adj[i] {
                        if !seen[j] {
                            seen[j] = true;
                            stack.push(j);
                        }
                    }
                }
                (0..n).filter(|&i| seen[i]).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_graph_and_recursion() {
        let prog = titanc_lower::compile_to_il(
            r#"
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int helper(int n) { return fib(n); }
int leaf(int n) { return n + 1; }
"#,
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        assert!(cg.is_recursive(&prog, "fib"));
        assert!(!cg.is_recursive(&prog, "helper"));
        assert!(!cg.is_recursive(&prog, "leaf"));
        assert_eq!(cg.calls[0].len(), 2);
    }

    #[test]
    fn inline_cones_are_transitive_and_include_self() {
        let prog = titanc_lower::compile_to_il(
            r#"
int leaf(int n) { return n + 1; }
int mid(int n) { return leaf(n) * 2; }
int top(int n) { return mid(n) + leaf(n); }
int lone(int n) { return n; }
"#,
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let cones = cg.inline_cones(&prog);
        // program order: leaf=0, mid=1, top=2, lone=3
        assert_eq!(cones[0], vec![0]);
        assert_eq!(cones[1], vec![0, 1]);
        assert_eq!(cones[2], vec![0, 1, 2]);
        assert_eq!(cones[3], vec![3]);
    }

    #[test]
    fn inline_cones_cover_cycles_and_ignore_intrinsics() {
        let prog = titanc_lower::compile_to_il(
            r#"
int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int main(void) { print_int(even(4)); return 0; }
"#,
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let cones = cg.inline_cones(&prog);
        // even=0, odd=1, main=2; `print_int` is an intrinsic, not a cone
        // member. The even/odd cycle keeps both in each other's cone —
        // an edit anywhere on the cycle can change its recursion status.
        assert_eq!(cones[0], vec![0, 1]);
        assert_eq!(cones[1], vec![0, 1]);
        assert_eq!(cones[2], vec![0, 1, 2]);
    }

    #[test]
    fn mutual_recursion_detected() {
        let prog = titanc_lower::compile_to_il(
            r#"
int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
"#,
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        assert!(cg.is_recursive(&prog, "even"));
        assert!(cg.is_recursive(&prog, "odd"));
    }
}
