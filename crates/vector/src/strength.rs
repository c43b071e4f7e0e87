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
//! * **Loop-invariant hoisting**: invariant top-level right-hand sides move
//!   in front of the loop.

use titanc_deps::{const_trip_count, decompose, Affine, Aliasing, DepGraph};
use titanc_il::visit::{edit_tree, Order};
use titanc_il::{
    BinOp, Block, Count, Expr, ExprId, LValue, Procedure, Report, ScalarType, StmtId, StmtKind,
    Type, VarId,
};
use titanc_opt::util::invariant_in;

/// Runs the §6 optimizations on every remaining scalar DO loop, counting
/// the memory cells promoted to registers, the distinct affine addresses
/// reduced to pointer walks and the invariant statements hoisted.
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
    if report != Report::default() {
        proc.bump_generation();
    }
    report
}

/// A DO loop with a nonzero constant step; its body is out of the pool
/// while the three rewrites edit it.
struct Loop {
    lv: VarId,
    lo: ExprId,
    hi: ExprId,
    step: i64,
    step_e: ExprId,
    body: Block,
}

/// Takes the body of the DO loop `id` out, if its step is a nonzero constant.
fn take_loop(proc: &mut Procedure, id: StmtId) -> Option<Loop> {
    let StmtKind::DoLoop {
        var,
        lo,
        hi,
        step,
        body,
        ..
    } = &mut proc.stmts[id]
    else {
        return None;
    };
    Some(Loop {
        lv: *var,
        lo: *lo,
        hi: *hi,
        step: proc.exprs.as_int(*step).filter(|&st| st != 0)?,
        step_e: *step,
        body: std::mem::take(body),
    })
}

/// Semantic affine equality: same symbolic base, coefficient, and offset
/// (term *ids* differ between two decompositions of distinct loads).
fn affine_eq(a: &Affine, b: &Affine) -> bool {
    a.same_base(b) && a.coeff == b.coeff && a.offset == b.offset
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
    let Loop {
        lv,
        lo,
        hi,
        step,
        step_e,
        ref body,
    } = *l;
    let trips = const_trip_count(&proc.exprs, lo, hi, step_e);
    let lo_const = proc.exprs.as_int(lo);
    let graph = DepGraph::build_for_loop(proc, body, lv, lo_const, step, trips, aliasing);
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
    let want_offset = store_aff.offset - store_aff.coeff * step;
    let matches_load = |aff: &Affine| {
        aff.same_base(&store_aff) && aff.coeff == store_aff.coeff && aff.offset == want_offset
    };
    // ensure no OTHER write may touch the promoted cell range
    for r in &graph.refs {
        if r.is_write && r.stmt != store_idx {
            match &r.affine {
                Some(a) if a.same_base(&store_aff) => return,
                Some(_) => {}
                None => return,
            }
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
    let load_aff = Affine {
        terms: store_aff.terms.clone(),
        coeff: store_aff.coeff,
        offset: want_offset,
    };
    let lo_c = proc.exprs.copy(lo);
    let pre_addr = load_aff.materialize(&mut proc.exprs, lo_c);
    let pre_rhs = proc.exprs.load(pre_addr, store_ty);
    let load_reg = proc.stamp(StmtKind::Assign {
        lhs: LValue::Var(reg),
        rhs: pre_rhs,
    });

    // replace the matching load in the sink statement with reg
    let mut replaced = false;
    let roots: Vec<ExprId> = proc.stmts[body[load_idx]].exprs().iter().collect();
    for e in roots {
        replace_matching_load(proc, body, lv, e, &matches_load, reg, &mut replaced);
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

fn replace_matching_load(
    proc: &mut Procedure,
    body: &[StmtId],
    lv: VarId,
    e: ExprId,
    matches: &dyn Fn(&Affine) -> bool,
    reg: VarId,
    replaced: &mut bool,
) {
    if let Expr::Load {
        addr,
        volatile: false,
        ..
    } = proc.exprs[e]
    {
        if let Some(aff) = decompose(proc, body, lv, addr) {
            if matches(&aff) {
                proc.exprs[e] = Expr::Var(reg);
                *replaced = true;
                return;
            }
        }
    }
    for c in proc.exprs[e].child_ids() {
        replace_matching_load(proc, body, lv, c, matches, reg, replaced);
    }
}

// ---------------------------------------------------------------------
// loop-invariant hoisting
// ---------------------------------------------------------------------

fn hoist_invariants(proc: &Procedure, l: &mut Loop, pre: &mut Block, report: &mut Report) {
    let Loop {
        lv,
        lo,
        hi,
        step_e,
        ref body,
        ..
    } = *l;
    // Hoisting executes the assignment exactly once *before* the loop, so
    // it is only sound when (a) the loop provably runs at least once —
    // otherwise a post-loop reader would observe a write that never
    // happened — and (b) nothing at or before the definition reads the
    // variable, whose first-iteration value would otherwise still be the
    // pre-loop one.
    let runs_at_least_once = matches!(
        const_trip_count(&proc.exprs, lo, hi, step_e),
        Some(n) if n >= 1
    );
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
                    && !proc.exprs.any(*rhs, |n| *n == Expr::Var(lv))
                    && invariant_in(proc, body, *rhs)
                    && body
                        .iter()
                        .filter(|&&t| proc.stmts[t].defined_var() == Some(*v))
                        .count()
                        == 1
                    && !body.iter().any(|&t| {
                        proc.stmts[t]
                            .blocks()
                            .iter()
                            .any(|b| titanc_opt::util::defined_in(&proc.stmts, b, *v))
                    })
                    && titanc_opt::util::count_reads_block(
                        &proc.stmts,
                        &proc.exprs,
                        &body[..=pos],
                        *v,
                    ) == 0
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

/// (base key, coefficient, offset, representative affine)
type AddrKey = (Vec<(String, i64)>, i64, i64, Affine);

fn reduce_addresses(proc: &mut Procedure, l: &mut Loop, pre: &mut Block, report: &mut Report) {
    let Loop {
        lv,
        lo,
        step,
        ref body,
        ..
    } = *l;
    // collect distinct varying affine addresses from loads and stores
    let mut keys: Vec<AddrKey> = Vec::new();
    for &s in body {
        for e in proc.stmts[s].exprs() {
            collect_affine_addrs(proc, body, lv, e, &mut keys);
        }
        if let StmtKind::Assign {
            lhs: LValue::Deref { addr, .. },
            ..
        } = &proc.stmts[s]
        {
            if let Some(aff) = decompose(proc, body, lv, *addr) {
                if aff.coeff != 0 {
                    push_key(&mut keys, aff);
                }
            }
        }
    }
    if keys.is_empty() {
        return;
    }

    let mut post_incs = Vec::new();
    for (_, coeff, _off, aff) in &keys {
        let pt = proc.fresh_temp(Type::ptr_to(Type::Void));
        proc.var_mut(pt).name = format!("sr_p{}", pt.index());
        let lo_c = proc.exprs.copy(lo);
        let init_rhs = aff.materialize(&mut proc.exprs, lo_c);
        let init = proc.stamp(StmtKind::Assign {
            lhs: LValue::Var(pt),
            rhs: init_rhs,
        });
        pre.push(init);
        let pt_read = proc.exprs.var(pt);
        let delta = proc.exprs.int(coeff * step);
        let bump_rhs = proc
            .exprs
            .binary(BinOp::Add, ScalarType::Ptr, pt_read, delta);
        let bump = proc.stamp(StmtKind::Assign {
            lhs: LValue::Var(pt),
            rhs: bump_rhs,
        });
        post_incs.push(bump);
        // replace address expressions equal to this affine with Var(pt)
        for &s in body {
            let roots: Vec<ExprId> = proc.stmts[s].exprs().iter().collect();
            for e in roots {
                replace_affine_addr(proc, body, lv, e, aff, pt);
            }
            let store_addr = match &proc.stmts[s] {
                StmtKind::Assign {
                    lhs: LValue::Deref { addr, .. },
                    ..
                } => Some(*addr),
                _ => None,
            };
            if let Some(addr) = store_addr {
                if let Some(a2) = decompose(proc, body, lv, addr) {
                    if affine_eq(&a2, aff) {
                        proc.exprs[addr] = Expr::Var(pt);
                    }
                }
            }
        }
        report.add(Count::StrengthReduced, 1);
    }
    l.body.extend(post_incs);
}

fn push_key(keys: &mut Vec<AddrKey>, aff: Affine) {
    let key = (aff.base_key(), aff.coeff, aff.offset);
    if !keys
        .iter()
        .any(|(b, c, o, _)| *b == key.0 && *c == key.1 && *o == key.2)
    {
        keys.push((key.0, key.1, key.2, aff));
    }
}

fn collect_affine_addrs(
    proc: &Procedure,
    body: &[StmtId],
    lv: VarId,
    e: ExprId,
    keys: &mut Vec<AddrKey>,
) {
    if let Expr::Load {
        addr,
        volatile: false,
        ..
    } = proc.exprs[e]
    {
        if let Some(aff) = decompose(proc, body, lv, addr) {
            if aff.coeff != 0 {
                push_key(keys, aff);
            }
        }
    }
    for c in proc.exprs[e].child_ids() {
        collect_affine_addrs(proc, body, lv, c, keys);
    }
}

/// Overwrites the *address slot* of every load whose affine form equals
/// `aff` with a read of the pointer temporary.
fn replace_affine_addr(
    proc: &mut Procedure,
    body: &[StmtId],
    lv: VarId,
    e: ExprId,
    aff: &Affine,
    pt: VarId,
) {
    if let Expr::Load {
        addr,
        volatile: false,
        ..
    } = proc.exprs[e]
    {
        if let Some(a2) = decompose(proc, body, lv, addr) {
            if affine_eq(&a2, aff) {
                proc.exprs[addr] = Expr::Var(pt);
                return;
            }
        }
    }
    for c in proc.exprs[e].child_ids() {
        replace_affine_addr(proc, body, lv, c, aff, pt);
    }
}
