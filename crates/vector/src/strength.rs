//! Dependence-driven scalar optimization (§6).
//!
//! "There are probably far more C programs that do not vectorize than do"
//! — but the dependence graph built for vectorization still pays for
//! itself on scalar loops:
//!
//! * **Register promotion** (§6 item 1): a loop-carried flow dependence
//!   with distance 1 pinpoints a memory cell whose stored value is re-read
//!   on the next iteration — the backsolve loop's `x[i+1] = …; … x[i] …`.
//!   The value is pulled up into a register, eliminating the load and the
//!   memory-order constraint on scheduling.
//! * **Strength reduction** (§6 item 3): affine addresses
//!   `base + coeff·lv + off` are replaced by pointer temporaries bumped by
//!   `coeff·step` each iteration, removing the integer multiplies that
//!   induction-variable substitution introduced (the "deoptimization" the
//!   paper admits IVS causes on non-vector loops). Common affine addresses
//!   share one temporary — the combined CSE the paper describes.
//! * **Loop-invariant hoisting**: invariant top-level right-hand sides of
//!   a variable's sole definition move in front of a loop that runs at
//!   least once.
//! * **Operation reduction** (§6's "simultaneously reduce expensive
//!   operations"): one last sweep over every expression the statement tree
//!   reaches — not the arena, which rewrites have left mostly garbage —
//!   folds constants, reassociates `(e ± c1) ± c2` into `e + c`, and turns
//!   a multiply by `2^k` into a shift, and one by a two-bit constant on a
//!   register into two shifts and an add (the Titan's integer unit has no
//!   fast multiply). This is how the later passes "undo any damage" (§11)
//!   after the last `constprop`: the multiplies are chiefly the scalings
//!   in the addresses that ivsub and `titanc_opt::affine::Affine::emit_at`
//!   build, and the offsets are a struct member's at a constant subscript
//!   (`pool[1023].next` arrives as `((&pool + 12276) + 8)`) and a loop
//!   bound that `forward` substituted into a trip count (`(n - 1) + 1`).
//!   The rewrites are `titanc_il::fold`'s [`reassociate_offset`] and
//!   [`reduce_multiply`], exact under `eval_binop`'s wrapping arithmetic;
//!   `fold_expr` never applies them, so `-O1` output does not see them.
//!
//! The three loop rewrites read the loop through
//! `titanc_opt::affine::DoHeader` and its dependence graph through
//! [`DepGraph::build`], as the vectorizer does.

use titanc_deps::{Aliasing, DepGraph};
use titanc_il::fold::{fold_expr, reassociate_offset, reduce_multiply};
use titanc_il::visit::{edit_tree, rewrite_expr, Order};
use titanc_il::{
    BinOp, Block, Count, Expr, ExprId, ExprPool, LValue, Procedure, Report, ScalarType, StmtId,
    StmtKind, Type, VarId,
};
use titanc_opt::affine::{decompose, Affine, DoHeader};
use titanc_opt::util::{count_reads_block, invariant_in, sole_def};

/// Runs the §6 optimizations on every remaining scalar DO loop, then the
/// operation-reduction sweep over the whole procedure, counting the memory
/// cells promoted to registers, the distinct affine addresses reduced to
/// pointer walks, the invariant statements hoisted and the multiplies
/// reduced.
pub fn strength_reduce(proc: &mut Procedure, aliasing: Aliasing) -> Report {
    let mut report = Report::default();
    // a loop before the loops nested in it (preorder), the block in hand:
    // what the loop hoists or initializes goes in right in front of it
    edit_tree(proc, Order::Pre, &mut |proc, block, i| {
        let id = block[i];
        let Some(mut l) = take_loop(proc, id) else {
            return i;
        };
        let mut pre = Block::new();
        promote_registers(proc, &mut l, &mut pre, aliasing, &mut report);
        hoist_invariants(proc, &mut l, &mut pre, &mut report);
        reduce_addresses(proc, &mut l, &mut pre, &mut report);
        if let StmtKind::DoLoop { body, .. } = &mut proc.stmts[id] {
            *body = l.body;
        }
        let at = i + pre.len();
        block.splice(i..i, pre);
        at
    });
    let swept = reduce_operations(proc, &mut report);
    if swept || report != Report::default() {
        proc.bump_generation();
    }
    report
}

/// The operation-reduction sweep over every expression root the statement
/// tree reaches: fold, then reassociate constant offsets and reduce
/// constant multiplies bottom-up. Returns whether anything was rewritten.
fn reduce_operations(proc: &mut Procedure, report: &mut Report) -> bool {
    let mut roots = Vec::new();
    proc.for_each_stmt(&mut |_, s| roots.extend(s.exprs().iter()));
    let Procedure { vars, exprs, .. } = proc;
    let in_register = |v: VarId| vars[v.index()].is_register_candidate();
    let mut changed = false;
    for root in roots {
        changed |= fold_expr(exprs, root);
        rewrite_expr(exprs, root, &mut |pool, id| {
            changed |= reassociate_offset(pool, id);
            if reduce_multiply(pool, id, &in_register) {
                report.add(Count::StrengthMulReduced, 1);
                changed = true;
            }
        });
    }
    changed
}

/// A DO loop with a nonzero constant step; its body is out of the pool
/// while the three rewrites edit it.
struct Loop {
    head: DoHeader,
    body: Block,
}

/// Takes the body of the DO loop `id` out, if its step is a nonzero constant.
fn take_loop(proc: &mut Procedure, id: StmtId) -> Option<Loop> {
    let head = DoHeader::of(&proc.stmts[id], &proc.exprs)?;
    let StmtKind::DoLoop { body, .. } = &mut proc.stmts[id] else {
        return None;
    };
    let body = std::mem::take(body);
    Some(Loop { head, body })
}

// ---------------------------------------------------------------------
// register promotion
// ---------------------------------------------------------------------

/// Pulls a distance-1 store→load pair into a register:
///
/// ```text
/// r = load(A(lo));                    // preheader
/// DO lv { … t = rhs; store(W, t); r = t; …  load → r … }
/// ```
fn promote_registers(
    proc: &mut Procedure,
    l: &mut Loop,
    pre: &mut Block,
    aliasing: Aliasing,
    report: &mut Report,
) {
    let Loop { ref head, ref body } = *l;
    let DoHeader { lv, step, .. } = *head;
    let graph = DepGraph::build(proc, body, head, aliasing);
    if graph.pinned.iter().any(|&p| p) {
        return;
    }
    // find a store with distance-1 flow into a load, both analyzable
    let cands = graph.carried_true_distances();
    let pair = cands.iter().find(|(_, d)| *d == 1);
    let (edge, _) = match pair {
        Some(p) => *p,
        None => return,
    };
    let store_idx = edge.from;
    let load_idx = edge.to;
    // a load after the store in the body would read the register after
    // the store has already moved it on to this iteration's value
    if load_idx > store_idx {
        return;
    }

    // the store statement: lhs Deref affine
    let (store_aff, store_ty) = {
        match &proc.stmts[body[store_idx]] {
            StmtKind::Assign {
                lhs:
                    LValue::Deref {
                        addr,
                        ty,
                        volatile: false,
                    },
                ..
            } => match decompose(proc, body, lv, *addr) {
                Some(a) => (a, *ty),
                None => return,
            },
            _ => return,
        }
    };
    // the load: find the unique Load in the sink statement whose affine is
    // store_aff shifted by exactly one iteration
    let load_aff = Affine {
        offset: store_aff.offset - store_aff.coeff * step,
        ..store_aff.clone()
    };
    // ensure no OTHER write may touch the promoted cell range: one into
    // another named array cannot, one with another base into the same
    // array can (`a[r][c]` against `a[c][c]`)
    let other_array = |a: &Affine| {
        let roots = (store_aff.array_root(&proc.exprs), a.array_root(&proc.exprs));
        matches!(roots, (Some(x), Some(y)) if x != y)
    };
    for r in &graph.refs {
        if r.is_write && r.stmt != store_idx && !r.affine.as_ref().is_some_and(other_array) {
            return;
        }
    }
    // and the load must execute unconditionally at top level
    if proc.stmts[body[load_idx]]
        .blocks()
        .iter()
        .any(|b| !b.is_empty())
    {
        return;
    }

    // build the transformation
    let reg = proc.fresh_temp(match store_ty {
        ScalarType::Float => Type::Float,
        ScalarType::Double => Type::Double,
        ScalarType::Char => Type::Char,
        ScalarType::Ptr => Type::ptr_to(Type::Void),
        ScalarType::Int => Type::Int,
    });
    proc.var_mut(reg).name = format!("f_reg{}", reg.index());
    let tval = proc.fresh_temp(proc.var(reg).ty.clone());

    // preheader: reg = load(A_load(lo))
    let pre_addr = load_aff.emit_at(proc, body, head, None);
    let pre_rhs = proc.exprs.load(pre_addr, store_ty);
    let load_reg = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(reg),
        rhs: pre_rhs,
    });

    // replace the matching load in the sink statement with reg
    let mut replaced = false;
    for (load, addr) in loads(proc, &body[load_idx..=load_idx]) {
        if decompose(proc, body, lv, addr).is_some_and(|a| a.same(&load_aff, &proc.exprs)) {
            proc.exprs[load] = Expr::Var(reg);
            replaced = true;
        }
    }
    if !replaced {
        return;
    }
    // split the store: tval = rhs; store = tval; reg = tval
    let (store_lhs, store_rhs) = match &proc.stmts[body[store_idx]] {
        StmtKind::Assign { lhs, rhs } => (*lhs, *rhs),
        _ => return,
    };
    let s1 = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(tval),
        rhs: store_rhs,
    });
    let t_read = proc.exprs.var(tval);
    let s2 = proc.stamp(StmtKind::Assign {
        lhs: store_lhs,
        rhs: t_read,
    });
    let t_read2 = proc.exprs.var(tval);
    let s3 = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(reg),
        rhs: t_read2,
    });
    l.body.splice(store_idx..=store_idx, [s1, s2, s3]);
    pre.push(load_reg);
    report.add(Count::StrengthPromoted, 1);
}

/// The non-volatile loads of the statements' expression trees in
/// preorder, each with its address.
fn loads(proc: &Procedure, stmts: &[StmtId]) -> Vec<(ExprId, ExprId)> {
    fn walk(exprs: &ExprPool, e: ExprId, out: &mut Vec<(ExprId, ExprId)>) {
        if let Expr::Load {
            addr,
            volatile: false,
            ..
        } = exprs[e]
        {
            out.push((e, addr));
        }
        for c in exprs[e].child_ids() {
            walk(exprs, c, out);
        }
    }
    let mut out = Vec::new();
    for &s in stmts {
        for e in proc.stmts[s].exprs() {
            walk(&proc.exprs, e, &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------
// loop-invariant hoisting
// ---------------------------------------------------------------------

fn hoist_invariants(proc: &Procedure, l: &mut Loop, pre: &mut Block, report: &mut Report) {
    let Loop { ref head, ref body } = *l;
    // Hoisting executes the assignment exactly once *before* the loop, so
    // it is only sound when (a) the loop provably runs at least once —
    // otherwise a post-loop reader would observe a write that never
    // happened — and (b) nothing at or before the definition reads the
    // variable, whose first-iteration value would otherwise still be the
    // pre-loop one.
    let runs_at_least_once = head.const_trip_count(&proc.exprs) >= Some(1);
    if !runs_at_least_once {
        return;
    }
    let mut hoisted: Block = Vec::new();
    let mut kept: Block = Vec::new();
    for (pos, &s) in body.iter().enumerate() {
        let hoist = match &proc.stmts[s] {
            StmtKind::Assign {
                lhs: LValue::Var(v),
                rhs,
            } => {
                proc.var(*v).is_register_candidate()
                    && !proc.exprs.any(*rhs, |n| *n == Expr::Var(head.lv))
                    && invariant_in(proc, body, *rhs)
                    && sole_def(&proc.stmts, body, *v).is_ok()
                    && count_reads_block(&proc.stmts, &proc.exprs, &body[..=pos], *v) == 0
            }
            _ => false,
        };
        if hoist {
            hoisted.push(s);
        } else {
            kept.push(s);
        }
    }
    if hoisted.is_empty() {
        return;
    }
    report.add(Count::StrengthHoisted, hoisted.len());
    pre.extend(hoisted);
    l.body = kept;
}

// ---------------------------------------------------------------------
// strength reduction of affine addresses
// ---------------------------------------------------------------------

fn reduce_addresses(proc: &mut Procedure, l: &mut Loop, pre: &mut Block, report: &mut Report) {
    let Loop { ref head, ref body } = *l;
    let DoHeader { lv, step, .. } = *head;
    // every load and store address, then the distinct varying affine ones
    let mut addrs = Vec::new();
    for &s in body {
        addrs.extend(loads(proc, &[s]).into_iter().map(|(_, addr)| addr));
        if let StmtKind::Assign {
            lhs: LValue::Deref { addr, .. },
            ..
        } = proc.stmts[s]
        {
            addrs.push(addr);
        }
    }
    let mut keys: Vec<Affine> = Vec::new();
    for &addr in &addrs {
        match decompose(proc, body, lv, addr) {
            Some(aff) if aff.coeff != 0 && !keys.iter().any(|k| k.same(&aff, &proc.exprs)) => {
                keys.push(aff)
            }
            _ => {}
        }
    }
    if keys.is_empty() {
        return;
    }

    let mut post_incs = Vec::new();
    for aff in &keys {
        let pt = proc.fresh_temp(Type::ptr_to(Type::Void));
        proc.var_mut(pt).name = format!("sr_p{}", pt.index());
        let init_rhs = aff.emit_at(proc, body, head, None);
        let init = proc.stamp(StmtKind::Assign {
            lhs: LValue::Var(pt),
            rhs: init_rhs,
        });
        pre.push(init);
        let pt_read = proc.exprs.var(pt);
        let delta = proc.exprs.int(aff.coeff * step);
        let bump_rhs = proc
            .exprs
            .binary(BinOp::Add, ScalarType::Ptr, pt_read, delta);
        let bump = proc.stamp(StmtKind::Assign {
            lhs: LValue::Var(pt),
            rhs: bump_rhs,
        });
        post_incs.push(bump);
        // the addresses equal to this affine read the pointer instead
        for &addr in &addrs {
            if decompose(proc, body, lv, addr).is_some_and(|a| a.same(aff, &proc.exprs)) {
                proc.exprs[addr] = Expr::Var(pt);
            }
        }
        report.add(Count::StrengthReduced, 1);
    }
    l.body.extend(post_incs);
}
