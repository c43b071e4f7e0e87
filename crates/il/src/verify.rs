//! An inter-pass IL sanity checker.
//!
//! Every transformation keeps the IL's structural invariants — ids stay in
//! bounds, branches land on labels that exist, counted loops step by a
//! nonzero amount, volatile accesses never migrate into vector statements,
//! and assignments stay kind-consistent. This module rechecks those
//! invariants between passes so a buggy pass is caught at the pass boundary
//! where it fired, not three phases later in the simulator.
//!
//! With arena storage the checker is also the backstop for id discipline:
//! every [`ExprId`]/[`StmtId`] reachable from the body must index its
//! procedure's own pools (an id leaked from another procedure — the classic
//! inlining bug — shows up as an out-of-bounds or type-inconsistent slot),
//! the expression graph must be acyclic (slot rewriting could otherwise tie
//! a node to itself), no statement slot may appear twice in the tree, and
//! the span column must stay in lock-step with the kind column.
//!
//! The pass manager (`titanc-core`) runs [`verify_program`] after every pass
//! in debug builds, and in release builds when `Options::verify` is set.

use crate::expr::{Expr, LValue};
use crate::ids::{ExprId, LabelId, StmtId, VarId};
use crate::program::{Procedure, Program, Storage};
use crate::stmt::StmtKind;
use crate::types::{ScalarType, Type};
use std::collections::HashSet;
use std::fmt;

/// One invariant violation found by the verifier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Name of the offending procedure.
    pub proc: String,
    /// Stamp of the offending statement, when the violation is tied to one.
    pub stmt: Option<StmtId>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stmt {
            Some(id) => write!(f, "{}: {}: {}", self.proc, id, self.message),
            None => write!(f, "{}: {}", self.proc, self.message),
        }
    }
}

/// Checks one procedure's structural invariants.
///
/// Verified properties:
///
/// * every [`StmtId`] reachable from the body indexes the statement arena
///   (a stamp at or beyond the allocation watermark is a leaked or corrupt
///   id), and no slot appears twice in the statement tree;
/// * every [`ExprId`] reachable from a statement indexes the expression
///   arena, and the expression graph is acyclic (sharing is legal — folds
///   hoist child nodes — but a slot may never reach itself);
/// * the span column has exactly one entry per statement slot, and the
///   lifetime allocation counters are at least the live arena lengths;
/// * every [`VarId`] (params, reads, stores, induction variables) indexes
///   the procedure's variable table, and value reads name *scalar*
///   variables;
/// * every [`LabelId`] is in bounds, no label is defined twice, and every
///   `goto` targets a label that is defined somewhere in the body;
/// * `DoLoop`/`DoParallel` steps are not the constant zero (and not
///   floating constants);
/// * no volatile access appears inside a vector (section) assignment;
/// * assignment value kinds agree with the stored kind (exactly for floats,
///   up to integer promotion for `Char`/`Int`/`Ptr`).
///
/// # Errors
///
/// Returns every violation found (the check does not stop at the first).
pub fn verify_proc(proc: &Procedure) -> Result<(), Vec<VerifyError>> {
    let mut ck = Checker::new(proc, None);
    ck.run();
    ck.finish()
}

/// Checks every procedure of a program (see [`verify_proc`]), plus the
/// program-level invariants: struct ids in variable and field types index
/// the struct table, and every [`Storage::Global`] variable resolves to a
/// program global of the same name.
///
/// # Errors
///
/// Returns every violation found across all procedures.
pub fn verify_program(prog: &Program) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for sd in &prog.structs {
        for field in &sd.fields {
            check_struct_ids(prog, &field.ty, &mut errors, || {
                format!("struct {} field {}", sd.name, field.name)
            });
        }
    }
    for g in &prog.globals {
        check_struct_ids(prog, &g.ty, &mut errors, || format!("global {}", g.name));
    }
    for proc in &prog.procs {
        let mut ck = Checker::new(proc, Some(prog));
        ck.run();
        if let Err(e) = ck.finish() {
            errors.extend(e);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn check_struct_ids(
    prog: &Program,
    ty: &Type,
    errors: &mut Vec<VerifyError>,
    what: impl Fn() -> String,
) {
    match ty {
        Type::Struct(sid) if sid.index() >= prog.structs.len() => errors.push(VerifyError {
            proc: "<program>".into(),
            stmt: None,
            message: format!("{}: struct id {} out of bounds", what(), sid),
        }),
        Type::Ptr(inner) => check_struct_ids(prog, inner, errors, what),
        Type::Array(elem, _) => check_struct_ids(prog, elem, errors, what),
        _ => {}
    }
}

struct Checker<'a> {
    proc: &'a Procedure,
    prog: Option<&'a Program>,
    errors: Vec<VerifyError>,
    stamps: HashSet<StmtId>,
    defined_labels: HashSet<LabelId>,
    referenced_labels: Vec<(StmtId, LabelId)>,
    /// Expression ids on the current DFS path (cycle detection).
    expr_path: HashSet<ExprId>,
}

impl<'a> Checker<'a> {
    fn new(proc: &'a Procedure, prog: Option<&'a Program>) -> Checker<'a> {
        Checker {
            proc,
            prog,
            errors: Vec::new(),
            stamps: HashSet::new(),
            defined_labels: HashSet::new(),
            referenced_labels: Vec::new(),
            expr_path: HashSet::new(),
        }
    }

    fn error(&mut self, stmt: Option<StmtId>, message: String) {
        self.errors.push(VerifyError {
            proc: self.proc.name.clone(),
            stmt,
            message,
        });
    }

    fn run(&mut self) {
        if self.proc.stmts.spans().len() != self.proc.stmts.len() {
            self.error(None, "span column out of sync with statement arena".into());
        }
        if self.proc.stmts.total_allocated() < self.proc.stmts.len() as u64 {
            self.error(None, "statement arena lifetime counter below length".into());
        }
        if self.proc.exprs.total_allocated() < self.proc.exprs.len() as u64 {
            self.error(
                None,
                "expression arena lifetime counter below length".into(),
            );
        }
        for (i, &p) in self.proc.params.iter().enumerate() {
            if p.index() >= self.proc.vars.len() {
                self.error(None, format!("param {i} ({p}) out of bounds"));
            } else if self.proc.var(p).storage != Storage::Param {
                self.error(None, format!("param {i} ({p}) has non-param storage"));
            }
        }
        for (i, info) in self.proc.vars.iter().enumerate() {
            if info.storage == Storage::Global {
                if let Some(prog) = self.prog {
                    if prog.global_by_name(&info.name).is_none() {
                        self.error(
                            None,
                            format!("v{i} ({}) names no program global", info.name),
                        );
                    }
                }
            }
        }
        self.check_block(&self.proc.body.clone());
        for (stmt, label) in std::mem::take(&mut self.referenced_labels) {
            if !self.defined_labels.contains(&label) {
                self.error(Some(stmt), format!("goto targets undefined label {label}"));
            }
        }
    }

    fn finish(self) -> Result<(), Vec<VerifyError>> {
        if self.errors.is_empty() {
            Ok(())
        } else {
            Err(self.errors)
        }
    }

    fn check_block(&mut self, block: &[StmtId]) {
        for &s in block {
            if self.check_stmt(s) {
                // recurse only into slots that are in bounds and newly
                // visited — a block that reaches an ancestor would
                // otherwise loop forever
                let proc = self.proc;
                for b in proc.stmts[s].blocks() {
                    self.check_block(b);
                }
            }
        }
    }

    /// Variable-table bounds check; returns the scalar kind when the
    /// variable is in bounds and scalar.
    fn check_var(&mut self, stmt: StmtId, v: VarId, what: &str) -> Option<ScalarType> {
        if v.index() >= self.proc.vars.len() {
            self.error(Some(stmt), format!("{what} {v} out of bounds"));
            return None;
        }
        self.proc.var(v).scalar()
    }

    /// Checks the expression subgraph at `e` and returns its result kind
    /// when it could be determined.
    fn check_expr(&mut self, stmt: StmtId, e: ExprId) -> Option<ScalarType> {
        let node = match self.proc.exprs.get_checked(e) {
            Some(n) => *n,
            None => {
                self.error(Some(stmt), format!("expression id {e} out of bounds"));
                return None;
            }
        };
        if !self.expr_path.insert(e) {
            self.error(Some(stmt), format!("expression cycle through {e}"));
            return None;
        }
        let kind = self.check_expr_node(stmt, &node);
        self.expr_path.remove(&e);
        kind
    }

    fn check_expr_node(&mut self, stmt: StmtId, e: &Expr) -> Option<ScalarType> {
        match *e {
            Expr::IntConst(_) => Some(ScalarType::Int),
            Expr::FloatConst(_, ty) => Some(ty),
            Expr::Var(v) => {
                let kind = self.check_var(stmt, v, "read of");
                if kind.is_none() && v.index() < self.proc.vars.len() {
                    self.error(
                        Some(stmt),
                        format!("value read of non-scalar {} ({v})", self.proc.var(v).name),
                    );
                }
                kind
            }
            Expr::AddrOf(v) => {
                if v.index() >= self.proc.vars.len() {
                    self.error(Some(stmt), format!("address of {v} out of bounds"));
                }
                Some(ScalarType::Ptr)
            }
            Expr::Load { addr, ty, .. } => {
                if let Some(k) = self.check_expr(stmt, addr) {
                    if k.is_float() {
                        self.error(Some(stmt), format!("load address has kind {k}"));
                    }
                }
                Some(ty)
            }
            Expr::Unary { op, ty, arg } => {
                self.check_expr(stmt, arg);
                if op == crate::expr::UnOp::Not {
                    Some(ScalarType::Int)
                } else {
                    Some(ty)
                }
            }
            Expr::Binary { op, ty, lhs, rhs } => {
                self.check_expr(stmt, lhs);
                self.check_expr(stmt, rhs);
                if op.is_comparison() {
                    Some(ScalarType::Int)
                } else {
                    Some(ty)
                }
            }
            Expr::Cast { to, arg, .. } => {
                self.check_expr(stmt, arg);
                Some(to)
            }
            Expr::Section {
                base,
                len,
                stride,
                ty,
            } => {
                self.check_expr(stmt, base);
                for (part, name) in [(len, "length"), (stride, "stride")] {
                    if let Some(k) = self.check_expr(stmt, part) {
                        if k.is_float() {
                            self.error(Some(stmt), format!("section {name} has kind {k}"));
                        }
                    }
                }
                Some(ty)
            }
        }
    }

    fn check_label_use(&mut self, stmt: StmtId, label: LabelId) {
        if label.0 >= self.proc.num_labels {
            self.error(Some(stmt), format!("label {label} out of bounds"));
        } else {
            self.referenced_labels.push((stmt, label));
        }
    }

    fn check_loop_header(&mut self, stmt: StmtId, var: VarId, step: ExprId) {
        match self.check_var(stmt, var, "induction variable") {
            Some(kind) if kind.is_float() => {
                self.error(
                    Some(stmt),
                    format!("induction variable {var} has kind {kind}"),
                );
            }
            Some(_) => {}
            None if var.index() < self.proc.vars.len() => {
                self.error(
                    Some(stmt),
                    format!("induction variable {var} is not scalar"),
                );
            }
            None => {}
        }
        match self.proc.exprs.get_checked(step) {
            Some(Expr::IntConst(0)) => {
                self.error(Some(stmt), "counted loop has zero step".into());
            }
            Some(Expr::FloatConst(..)) => {
                self.error(Some(stmt), "counted loop has floating step".into());
            }
            _ => {} // out-of-bounds reported by check_expr on the header
        }
    }

    /// Checks one statement slot; returns whether the caller should recurse
    /// into its blocks.
    fn check_stmt(&mut self, s: StmtId) -> bool {
        let proc = self.proc;
        if proc.stmts.get_checked(s).is_none() {
            self.error(Some(s), "stamp beyond the procedure's stamp counter".into());
            return false;
        }
        if !self.stamps.insert(s) {
            self.error(Some(s), "duplicate statement stamp".into());
            return false;
        }
        match &proc.stmts[s] {
            StmtKind::Assign { lhs, rhs } => {
                let rhs = *rhs;
                let errs_before = self.errors.len();
                let store = match *lhs {
                    LValue::Var(v) => {
                        let kind = self.check_var(s, v, "store to");
                        if kind.is_none() && v.index() < self.proc.vars.len() {
                            self.error(
                                Some(s),
                                format!("store to non-scalar {} ({v})", self.proc.var(v).name),
                            );
                        }
                        kind
                    }
                    LValue::Deref { addr, ty, .. } => {
                        self.check_expr(s, addr);
                        Some(ty)
                    }
                    LValue::Section {
                        base,
                        len,
                        stride,
                        ty,
                    } => {
                        self.check_expr(s, base);
                        self.check_expr(s, len);
                        self.check_expr(s, stride);
                        Some(ty)
                    }
                };
                let value = self.check_expr(s, rhs);
                if let (Some(store), Some(value)) = (store, value) {
                    let agree = store == value || (store.is_integral() && value.is_integral());
                    if !agree {
                        self.error(
                            Some(s),
                            format!("assign stores {store} but value has kind {value}"),
                        );
                    }
                }
                // recursive pool queries are only safe once the expression
                // subgraph checked out (no dangling ids, no cycles)
                if self.errors.len() == errs_before {
                    let is_vector = matches!(lhs, LValue::Section { .. })
                        || proc.exprs.any(rhs, |n| matches!(n, Expr::Section { .. }));
                    if is_vector
                        && (lhs.is_volatile() || proc.stmts[s].has_volatile_access(&proc.exprs))
                    {
                        self.error(Some(s), "volatile access inside vector assign".into());
                    }
                }
            }
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::WhileSpread { cond, .. } => {
                self.check_expr(s, *cond);
            }
            StmtKind::DoLoop {
                var, lo, hi, step, ..
            }
            | StmtKind::DoParallel {
                var, lo, hi, step, ..
            } => {
                let (var, lo, hi, step) = (*var, *lo, *hi, *step);
                self.check_loop_header(s, var, step);
                self.check_expr(s, lo);
                self.check_expr(s, hi);
                self.check_expr(s, step);
            }
            StmtKind::Label(l) => {
                let l = *l;
                if l.0 >= self.proc.num_labels {
                    self.error(Some(s), format!("label {l} out of bounds"));
                } else if !self.defined_labels.insert(l) {
                    self.error(Some(s), format!("label {l} defined twice"));
                }
            }
            StmtKind::Goto(l) => {
                let l = *l;
                self.check_label_use(s, l);
            }
            StmtKind::IfGoto { cond, target } => {
                let (cond, target) = (*cond, *target);
                self.check_expr(s, cond);
                self.check_label_use(s, target);
            }
            StmtKind::Call { dst, args, .. } => {
                let dst = *dst;
                let args = args.clone();
                if let Some(d) = dst {
                    match d {
                        LValue::Var(v) => {
                            self.check_var(s, v, "call result to");
                        }
                        LValue::Deref { addr, .. } => {
                            self.check_expr(s, addr);
                        }
                        LValue::Section { .. } => {
                            self.error(Some(s), "call result stored to a section".into());
                        }
                    }
                }
                for a in args {
                    self.check_expr(s, a);
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = *e {
                    self.check_expr(s, e);
                }
            }
            StmtKind::Nop => {}
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::expr::BinOp;

    fn counting_proc() -> Procedure {
        let mut b = ProcBuilder::new("f", Type::Int);
        let n = b.param("n", Type::Int);
        let s = b.local("s", Type::Int);
        let i = b.local("i", Type::Int);
        let zero = b.int(0);
        b.assign_var(s, zero);
        let body = {
            let mut lb = b.block();
            let sv = lb.var(s);
            let iv = lb.var(i);
            let add = lb.ibinary(BinOp::Add, sv, iv);
            lb.assign_var(s, add);
            lb.stmts()
        };
        let lo = b.int(1);
        let hi = b.var(n);
        let step = b.int(1);
        b.do_loop(i, lo, hi, step, body);
        let sv = b.var(s);
        b.ret(Some(sv));
        b.finish()
    }

    #[test]
    fn well_formed_proc_passes() {
        assert!(verify_proc(&counting_proc()).is_ok());
    }

    #[test]
    fn dangling_goto_is_rejected() {
        let mut p = counting_proc();
        let target = LabelId(p.num_labels); // never defined, out of bounds too
        p.num_labels += 1; // in bounds, but no Label statement
        p.push(StmtKind::Goto(target));
        let errs = verify_proc(&p).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("undefined label")),
            "got: {errs:?}"
        );
    }

    #[test]
    fn zero_step_loop_is_rejected() {
        let mut p = Procedure::new("z", Type::Void);
        let i = p.fresh_temp(Type::Int);
        let lo = p.exprs.int(0);
        let hi = p.exprs.int(9);
        let step = p.exprs.int(0);
        p.push(StmtKind::DoLoop {
            var: i,
            lo,
            hi,
            step,
            body: vec![],
            safe: false,
        });
        let errs = verify_proc(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("zero step")));
    }

    #[test]
    fn out_of_bounds_var_is_rejected() {
        let mut p = Procedure::new("v", Type::Void);
        let t = p.fresh_temp(Type::Int);
        let rhs = p.exprs.var(VarId(99));
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs,
        });
        let errs = verify_proc(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("out of bounds")));
    }

    #[test]
    fn volatile_in_vector_assign_is_rejected() {
        let mut p = Procedure::new("vv", Type::Void);
        let a = p.fresh_temp(Type::ptr_to(Type::Float));
        let base = p.exprs.var(a);
        let len = p.exprs.int(8);
        let stride = p.exprs.int(4);
        let addr = p.exprs.var(a);
        let rhs = p.exprs.alloc(Expr::Load {
            addr,
            ty: ScalarType::Float,
            volatile: true,
        });
        p.push(StmtKind::Assign {
            lhs: LValue::Section {
                base,
                len,
                stride,
                ty: ScalarType::Float,
            },
            rhs,
        });
        let errs = verify_proc(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("volatile")));
    }

    #[test]
    fn float_to_int_assign_without_cast_is_rejected() {
        let mut p = Procedure::new("t", Type::Void);
        let t = p.fresh_temp(Type::Int);
        let rhs = p.exprs.float(1.5);
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs,
        });
        let errs = verify_proc(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("value has kind")));
    }

    #[test]
    fn duplicate_stamps_are_rejected() {
        let mut p = Procedure::new("d", Type::Void);
        p.push(StmtKind::Nop);
        let dup = p.body[0];
        p.body.push(dup);
        let errs = verify_proc(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("duplicate")));
    }

    #[test]
    fn dangling_expr_id_is_rejected() {
        // a corrupted (out-of-pool) ExprId written into a statement is
        // caught instead of panicking
        let mut p = Procedure::new("c", Type::Void);
        let t = p.fresh_temp(Type::Int);
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs: ExprId(999),
        });
        let errs = verify_proc(&p).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("expression id e999 out of bounds")),
            "got: {errs:?}"
        );
    }

    #[test]
    fn dangling_stmt_id_is_rejected() {
        let mut p = Procedure::new("c", Type::Void);
        let cond = p.exprs.int(1);
        let w = p.stamp(StmtKind::While {
            cond,
            body: vec![StmtId(42)], // never allocated
            safe: false,
        });
        p.body = vec![w];
        let errs = verify_proc(&p).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.stmt == Some(StmtId(42)) && e.message.contains("stamp beyond")),
            "got: {errs:?}"
        );
    }

    #[test]
    fn expression_cycle_is_rejected() {
        let mut p = Procedure::new("c", Type::Void);
        let t = p.fresh_temp(Type::Int);
        let a = p.exprs.int(1);
        let b = p.exprs.int(2);
        let root = p.exprs.ibinary(BinOp::Add, a, b);
        // corrupt the slot so it references itself
        p.exprs[root] = Expr::Binary {
            op: BinOp::Add,
            ty: ScalarType::Int,
            lhs: a,
            rhs: root,
        };
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs: root,
        });
        let errs = verify_proc(&p).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("cycle")),
            "got: {errs:?}"
        );
    }

    #[test]
    fn shared_subtrees_are_not_cycles() {
        // fold identities duplicate nodes across slots; a DAG must verify
        let mut p = Procedure::new("dag", Type::Void);
        let t = p.fresh_temp(Type::Int);
        let shared = p.exprs.int(7);
        let root = p.exprs.ibinary(BinOp::Add, shared, shared);
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs: root,
        });
        assert!(verify_proc(&p).is_ok());
    }

    #[test]
    fn unresolved_global_is_rejected_at_program_level() {
        let mut prog = Program::new();
        let mut p = Procedure::new("g", Type::Void);
        p.add_var(crate::program::VarInfo {
            name: "missing".into(),
            ty: Type::Int,
            storage: Storage::Global,
            volatile: false,
            addressed: true,
            init: None,
        });
        prog.add_proc(p);
        let errs = verify_program(&prog).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("no program global")));
    }

    #[test]
    fn error_display_names_proc_and_stmt() {
        let e = VerifyError {
            proc: "daxpy".into(),
            stmt: Some(StmtId(3)),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "daxpy: s3: boom");
    }
}
