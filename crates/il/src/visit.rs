//! Generic statement/expression walkers and rewriters over the arenas.
//!
//! Optimization passes share these helpers instead of each hand-rolling
//! recursion. The rewrite idiom is *in-place slot mutation*: an expression's
//! root slot id is stable, so a pass can fold or rebuild a subtree through
//! `&mut ExprPool` without writing any id back into the statement that
//! references it. Walkers borrow the statement pool immutably while
//! rewriters take the expression pool mutably — the two are separate
//! [`crate::Procedure`] fields, so both borrows coexist.

use crate::expr::{Expr, ExprPool};
use crate::ids::{ExprId, StmtId};
use crate::program::Procedure;
use crate::stmt::{Block, StmtKind, StmtPool};

/// Preorder walk over every statement in a block tree.
pub fn walk_block(stmts: &StmtPool, block: &[StmtId], f: &mut dyn FnMut(StmtId, &StmtKind)) {
    for &s in block {
        f(s, &stmts[s]);
        for b in stmts[s].blocks() {
            walk_block(stmts, b, f);
        }
    }
}

/// Preorder walk over an expression subtree.
pub fn walk_expr(exprs: &ExprPool, id: ExprId, f: &mut dyn FnMut(ExprId, &Expr)) {
    f(id, &exprs[id]);
    for c in exprs[id].child_ids() {
        walk_expr(exprs, c, f);
    }
}

/// Bottom-up (postorder) rewrite of an expression subtree, in place.
///
/// The callback receives the pool and the id of the node being visited;
/// children have already been rewritten. Replacing a node is writing a new
/// [`Expr`] into `exprs[id]` — the slot id stays valid, so statements
/// referencing the root never need updating.
pub fn rewrite_expr(exprs: &mut ExprPool, id: ExprId, f: &mut dyn FnMut(&mut ExprPool, ExprId)) {
    for c in exprs[id].child_ids() {
        rewrite_expr(exprs, c, f);
    }
    f(exprs, id);
}

/// When [`edit_tree`] hands a statement to its callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Before the walk descends into the statement's own blocks.
    Pre,
    /// After it has.
    Post,
}

/// The block-editing walk: visits every statement of the tree with the
/// procedure, the **block in hand** and the statement's index in it, so a
/// pass splices at `block[i]` instead of searching for a statement from
/// the procedure root. The callback returns where the walk resumes:
///
/// * [`Order::Pre`] — the index of the statement whose blocks are walked
///   next: `i`, or `i + n` after putting `n` statements in front of it.
///   The walk goes on behind that statement.
/// * [`Order::Post`] — the index of the next statement visited: `i + 1`,
///   `i + n` to step over an `n`-statement replacement, or `i` to walk
///   the replacement too.
///
/// While a statement's blocks are walked its kind is out of the pool (a
/// `Nop` stands in) and `proc.body` is empty: a callback may read and
/// rewrite the subtree of `block[i]` and the block in hand, nothing above.
pub fn edit_tree(
    proc: &mut Procedure,
    order: Order,
    f: &mut dyn FnMut(&mut Procedure, &mut Block, usize) -> usize,
) {
    fn walk(
        proc: &mut Procedure,
        block: &mut Block,
        order: Order,
        f: &mut dyn FnMut(&mut Procedure, &mut Block, usize) -> usize,
    ) {
        let mut i = 0;
        while i < block.len() {
            if order == Order::Pre {
                i = f(proc, block, i);
            }
            let s = block[i];
            // most statements are leaves: nothing to take out for those
            if !proc.stmts[s].blocks().is_empty() {
                let mut kind = std::mem::replace(&mut proc.stmts[s], StmtKind::Nop);
                for b in kind.blocks_mut() {
                    walk(proc, b, order, f);
                }
                proc.stmts[s] = kind;
            }
            i = match order {
                Order::Pre => i + 1,
                Order::Post => f(proc, block, i),
            };
        }
    }
    let mut body = std::mem::take(&mut proc.body);
    walk(proc, &mut body, order, f);
    proc.body = body;
}

/// [`edit_tree`] for passes that work a whole block at a time: `f` runs on
/// every non-empty block once every block nested in it has been — a block
/// is complete when its last statement has been walked.
pub fn edit_blocks(proc: &mut Procedure, f: &mut dyn FnMut(&mut Procedure, &mut Block)) {
    edit_tree(proc, Order::Post, &mut |proc, block, i| {
        if i + 1 == block.len() {
            f(proc, block);
            block.len()
        } else {
            i + 1
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, LValue};
    use crate::ids::VarId;
    use crate::program::Procedure;
    use crate::types::Type;

    fn assign(p: &mut Procedure, v: u32, rhs: ExprId) -> StmtId {
        p.stamp(StmtKind::Assign {
            lhs: LValue::Var(VarId(v)),
            rhs,
        })
    }

    #[test]
    fn walk_visits_nested() {
        let mut p = Procedure::new("f", Type::Void);
        let one = p.exprs.int(1);
        let inner = assign(&mut p, 0, one);
        let cond = p.exprs.var(VarId(9));
        let outer = p.stamp(StmtKind::While {
            cond,
            body: vec![inner],
            safe: false,
        });
        let mut count = 0;
        walk_block(&p.stmts, &[outer], &mut |_, _| count += 1);
        assert_eq!(count, 2);
    }

    #[test]
    fn rewrite_is_bottom_up_and_in_place() {
        // Fold (1+2)+4 by rewriting: the parent sees already-rewritten
        // children, and the root slot id never changes.
        let mut pool = ExprPool::new();
        let one = pool.int(1);
        let two = pool.int(2);
        let inner = pool.ibinary(BinOp::Add, one, two);
        let four = pool.int(4);
        let root = pool.ibinary(BinOp::Add, inner, four);
        rewrite_expr(&mut pool, root, &mut |p, id| {
            if let Expr::Binary {
                op: BinOp::Add,
                lhs,
                rhs,
                ..
            } = p[id]
            {
                if let (Some(a), Some(b)) = (p.as_int(lhs), p.as_int(rhs)) {
                    p[id] = Expr::IntConst(a + b);
                }
            }
        });
        assert_eq!(pool.as_int(root), Some(7));
    }

    /// `a; while { b; while { c }; d }; e`, as `(proc, [a, w, b, v, c, d, e])`.
    fn nested() -> (Procedure, [StmtId; 7]) {
        let mut p = Procedure::new("f", Type::Void);
        let one = p.exprs.int(1);
        let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|v| assign(&mut p, v, one));
        let cond = p.exprs.var(VarId(9));
        let looped = |p: &mut Procedure, body| {
            p.stamp(StmtKind::While {
                cond,
                body,
                safe: false,
            })
        };
        let v = looped(&mut p, vec![c]);
        let w = looped(&mut p, vec![b, v, d]);
        p.body = vec![a, w, e];
        (p, [a, w, b, v, c, d, e])
    }

    #[test]
    fn edit_tree_visits_in_both_orders() {
        let (mut p, [a, w, b, v, c, d, e]) = nested();
        let mut pre = Vec::new();
        edit_tree(&mut p, Order::Pre, &mut |_, block, i| {
            pre.push(block[i]);
            i
        });
        assert_eq!(pre, [a, w, b, v, c, d, e]);
        let mut post = Vec::new();
        edit_tree(&mut p, Order::Post, &mut |p, block, i| {
            // the statement is back in the pool when it is handed over
            assert!(!matches!(p.stmts[block[i]], StmtKind::Nop));
            post.push(block[i]);
            i + 1
        });
        assert_eq!(post, [a, b, c, v, d, w, e]);
        assert_eq!(p.body, [a, w, e], "the tree is put back as it was");
        assert_eq!(p.stmts[w].blocks()[0], &vec![b, v, d]);
    }

    #[test]
    fn edit_tree_splices_at_depth_and_resumes_on_the_replacement() {
        // postorder: the inner loop `v` gives way to `x; y` where it stood
        // in `w`'s body, and both are walked before `d`
        let (mut p, [a, w, b, v, c, d, e]) = nested();
        let one = p.exprs.int(1);
        let [x, y] = [5, 6].map(|n| assign(&mut p, n, one));
        let mut seen = Vec::new();
        edit_tree(&mut p, Order::Post, &mut |_, block, i| {
            seen.push(block[i]);
            if block[i] == v {
                block.splice(i..=i, [x, y]);
                return i;
            }
            i + 1
        });
        assert_eq!(seen, [a, b, c, v, x, y, d, w, e]);
        assert_eq!(p.stmts[w].blocks()[0], &vec![b, x, y, d]);

        // preorder: `n` statements go in front of `w` and the walk carries
        // on into `w` itself, not into what was put in front of it
        let (mut p, [a, w, b, v, c, d, e]) = nested();
        let one = p.exprs.int(1);
        let [x, y] = [5, 6].map(|n| assign(&mut p, n, one));
        let mut seen = Vec::new();
        edit_tree(&mut p, Order::Pre, &mut |_, block, i| {
            seen.push(block[i]);
            if block[i] == v {
                block.splice(i..i, [x, y]);
                return i + 2;
            }
            i
        });
        assert_eq!(seen, [a, w, b, v, c, d, e]);
        assert_eq!(p.stmts[w].blocks()[0], &vec![b, x, y, v, d]);
    }

    #[test]
    fn edit_blocks_runs_inner_blocks_first() {
        let (mut p, [a, w, b, v, c, d, e]) = nested();
        let mut blocks = Vec::new();
        edit_blocks(&mut p, &mut |_, block| blocks.push(block.clone()));
        assert_eq!(blocks, [vec![c], vec![b, v, d], vec![a, w, e]]);
    }
}
