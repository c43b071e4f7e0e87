//! Tree-level loop facts.

use std::collections::HashSet;
use titanc_il::visit::walk_block;
use titanc_il::{LabelId, StmtId, StmtKind, StmtPool};

/// All statement ids inside a statement's nested blocks (excluding the
/// statement itself).
pub fn stmt_ids_in(pool: &StmtPool, s: StmtId) -> HashSet<StmtId> {
    let mut out = HashSet::new();
    visit(pool, s, &mut |id, _| {
        out.insert(id);
    });
    out
}

/// Labels defined inside a statement's nested blocks.
pub fn labels_in(pool: &StmtPool, s: StmtId) -> HashSet<LabelId> {
    let mut out = HashSet::new();
    visit(pool, s, &mut |_, k| {
        if let StmtKind::Label(l) = k {
            out.insert(*l);
        }
    });
    out
}

/// Branch targets referenced from inside a statement's nested blocks.
pub fn goto_targets_in(pool: &StmtPool, s: StmtId) -> HashSet<LabelId> {
    let mut out = HashSet::new();
    visit(pool, s, &mut |_, k| match k {
        StmtKind::Goto(l) | StmtKind::IfGoto { target: l, .. } => {
            out.insert(*l);
        }
        _ => {}
    });
    out
}

/// True when the statement tree contains a `Return`.
pub fn has_return(pool: &StmtPool, s: StmtId) -> bool {
    let mut found = false;
    visit(pool, s, &mut |_, k| {
        if matches!(k, StmtKind::Return(_)) {
            found = true;
        }
    });
    found
}

/// True when any branch inside the tree leaves it (targets a label not
/// defined inside) — an early exit, which defeats DO conversion (§5.2).
pub fn has_branch_out(pool: &StmtPool, s: StmtId) -> bool {
    let labels = labels_in(pool, s);
    goto_targets_in(pool, s).iter().any(|l| !labels.contains(l))
}

/// Preorder walk over the statements nested in `s`, not `s` itself.
fn visit(pool: &StmtPool, s: StmtId, f: &mut dyn FnMut(StmtId, &StmtKind)) {
    for b in pool[s].blocks() {
        walk_block(pool, b, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::Procedure;

    fn with_loop(src: &str) -> (Procedure, StmtId) {
        let prog = titanc_lower::compile_to_il(src).unwrap();
        let proc = prog.procs[0].clone();
        let mut found = None;
        proc.for_each_stmt(&mut |s, k| {
            if k.is_loop() && found.is_none() {
                found = Some(s);
            }
        });
        (proc, found.expect("loop"))
    }

    #[test]
    fn ids_in_excludes_self() {
        let (p, w) = with_loop("void f(int n) { while (n) { n = n - 1; } }");
        let ids = stmt_ids_in(&p.stmts, w);
        assert!(!ids.contains(&w));
        assert!(!ids.is_empty());
    }

    #[test]
    fn break_is_a_branch_out() {
        let (p, w) = with_loop("void f(int n) { while (n) { if (n == 2) break; n = n - 1; } }");
        assert!(has_branch_out(&p.stmts, w));
    }

    #[test]
    fn continue_is_not_a_branch_out() {
        let (p, w) = with_loop("void f(int n) { while (n) { if (n == 2) continue; n = n - 1; } }");
        assert!(
            !has_branch_out(&p.stmts, w),
            "continue targets a label inside the loop"
        );
    }

    #[test]
    fn return_detected() {
        let (p, w) =
            with_loop("int f(int n) { while (n) { if (n == 2) return 1; n = n - 1; } return 0; }");
        assert!(has_return(&p.stmts, w));
        let (p2, w2) = with_loop("void f(int n) { while (n) { n = n - 1; } }");
        assert!(!has_return(&p2.stmts, w2));
    }

    #[test]
    fn nop_has_no_inner_ids() {
        let mut p = Procedure::new("t", titanc_il::Type::Int);
        let zero = p.exprs.int(0);
        let s = p.stamp(titanc_il::StmtKind::Return(Some(zero)));
        assert!(stmt_ids_in(&p.stmts, s).is_empty());
    }
}
