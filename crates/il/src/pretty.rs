//! Pretty-printing of IL in a C-like surface syntax.
//!
//! Vector statements print in the paper's triplet notation
//! (`a[0:100:1] = …`, modulo byte strides), DO loops print as
//! `do fortran`/`do parallel` exactly like §9's listings, so transformed
//! programs can be eyeballed against the paper.
//!
//! All entry points resolve ids through the procedure's pools; the output
//! depends only on the structural tree, never on arena layout.

use crate::expr::{Expr, ExprPool, LValue};
use crate::ids::{ExprId, StmtId};
use crate::program::Procedure;
use crate::stmt::StmtKind;
use std::fmt::Write as _;

/// Renders an expression with the procedure's variable names.
pub fn pretty_expr(proc: &Procedure, e: ExprId) -> String {
    let mut s = String::new();
    write_expr(&mut s, &proc.exprs, e, Some(proc));
    s
}

/// Renders an expression with positional (`v0`) variable names.
pub fn pretty_expr_in(pool: &ExprPool, e: ExprId) -> String {
    let mut s = String::new();
    write_expr(&mut s, pool, e, None);
    s
}

/// Renders an lvalue with the procedure's variable names.
pub fn pretty_lvalue(proc: &Procedure, lv: &LValue) -> String {
    let mut s = String::new();
    write_lvalue(&mut s, &proc.exprs, lv, Some(proc));
    s
}

/// Renders a whole procedure.
pub fn pretty_proc(proc: &Procedure) -> String {
    let mut s = String::new();
    pretty_proc_into(&mut s, proc);
    s
}

/// Appends [`pretty_proc`]'s text to `out`, so a caller rendering many
/// procedures fills one buffer.
pub fn pretty_proc_into(out: &mut String, proc: &Procedure) {
    let _ = writeln!(out, "{} {}(...)", proc.ret, proc.name);
    out.push_str("{\n");
    write_block(out, &proc.body, proc, 1);
    out.push_str("}\n");
}

/// Renders a statement block at the given indent depth.
pub fn pretty_block(proc: &Procedure, block: &[StmtId], indent: usize) -> String {
    let mut s = String::new();
    write_block(&mut s, block, proc, indent);
    s
}

/// Writes `v`'s name, or its positional name (`v0`) without a procedure.
fn write_var(out: &mut String, proc: Option<&Procedure>, v: crate::ids::VarId) {
    match proc {
        Some(p) if v.index() < p.vars.len() => out.push_str(&p.var(v).name),
        _ => {
            let _ = write!(out, "{v}");
        }
    }
}

/// Four spaces per nesting level.
fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn write_expr(out: &mut String, pool: &ExprPool, id: ExprId, proc: Option<&Procedure>) {
    match pool[id] {
        Expr::IntConst(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::FloatConst(v, ty) => {
            let _ = write!(out, "{v:?}");
            if ty == crate::types::ScalarType::Float {
                out.push('f');
            }
        }
        Expr::Var(v) => write_var(out, proc, v),
        Expr::AddrOf(v) => {
            out.push('&');
            write_var(out, proc, v);
        }
        Expr::Load { addr, ty, volatile } => {
            let _ = write!(out, "*({ty}{} *)(", if volatile { " volatile" } else { "" });
            write_expr(out, pool, addr, proc);
            out.push(')');
        }
        Expr::Unary { op, arg, .. } => {
            out.push_str(op.symbol());
            out.push('(');
            write_expr(out, pool, arg, proc);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            if matches!(op, crate::expr::BinOp::Min | crate::expr::BinOp::Max) {
                out.push_str(op.symbol());
                out.push('(');
                write_expr(out, pool, lhs, proc);
                out.push_str(", ");
                write_expr(out, pool, rhs, proc);
                out.push(')');
            } else {
                out.push('(');
                write_expr(out, pool, lhs, proc);
                let _ = write!(out, " {} ", op.symbol());
                write_expr(out, pool, rhs, proc);
                out.push(')');
            }
        }
        Expr::Cast { to, arg, .. } => {
            let _ = write!(out, "({to})(");
            write_expr(out, pool, arg, proc);
            out.push(')');
        }
        Expr::Section {
            base,
            len,
            stride,
            ty,
        } => {
            let _ = write!(out, "({ty})[");
            write_expr(out, pool, base, proc);
            out.push_str(" : ");
            write_expr(out, pool, len, proc);
            out.push_str(" : ");
            write_expr(out, pool, stride, proc);
            out.push(']');
        }
    }
}

fn write_lvalue(out: &mut String, pool: &ExprPool, lv: &LValue, proc: Option<&Procedure>) {
    match *lv {
        LValue::Var(v) => write_var(out, proc, v),
        LValue::Deref { addr, ty, volatile } => {
            let _ = write!(out, "*({ty}{} *)(", if volatile { " volatile" } else { "" });
            write_expr(out, pool, addr, proc);
            out.push(')');
        }
        LValue::Section {
            base,
            len,
            stride,
            ty,
        } => {
            let _ = write!(out, "({ty})[");
            write_expr(out, pool, base, proc);
            out.push_str(" : ");
            write_expr(out, pool, len, proc);
            out.push_str(" : ");
            write_expr(out, pool, stride, proc);
            out.push(']');
        }
    }
}

fn write_block(out: &mut String, block: &[StmtId], proc: &Procedure, depth: usize) {
    for &s in block {
        write_stmt(out, s, proc, depth);
    }
}

/// Closes a block opened at `depth`.
fn close(out: &mut String, depth: usize) {
    indent(out, depth);
    out.push_str("}\n");
}

fn write_stmt(out: &mut String, s: StmtId, proc: &Procedure, depth: usize) {
    let pool = &proc.exprs;
    let kind = &proc.stmts[s];
    // a label sits one level out; the rest at their depth
    match kind {
        StmtKind::Label(_) => indent(out, depth.saturating_sub(1)),
        _ => indent(out, depth),
    }
    match kind {
        StmtKind::Assign { lhs, rhs } => {
            write_lvalue(out, pool, lhs, Some(proc));
            out.push_str(" = ");
            write_expr(out, pool, *rhs, Some(proc));
            out.push_str(";\n");
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            out.push_str("if (");
            write_expr(out, pool, *cond, Some(proc));
            out.push_str(") {\n");
            write_block(out, then_blk, proc, depth + 1);
            if else_blk.is_empty() {
                close(out, depth);
            } else {
                indent(out, depth);
                out.push_str("} else {\n");
                write_block(out, else_blk, proc, depth + 1);
                close(out, depth);
            }
        }
        StmtKind::While { cond, body, safe } => {
            if *safe {
                out.push_str("/* pragma safe */ ");
            }
            out.push_str("while (");
            write_expr(out, pool, *cond, Some(proc));
            out.push_str(") {\n");
            write_block(out, body, proc, depth + 1);
            close(out, depth);
        }
        StmtKind::DoLoop {
            var,
            lo,
            hi,
            step,
            body,
            safe,
        } => {
            if *safe {
                out.push_str("/* pragma safe */ ");
            }
            let _ = write!(out, "do fortran {} = ", proc.var(*var).name);
            write_expr(out, pool, *lo, Some(proc));
            out.push_str(", ");
            write_expr(out, pool, *hi, Some(proc));
            out.push_str(", ");
            write_expr(out, pool, *step, Some(proc));
            out.push_str(" {\n");
            write_block(out, body, proc, depth + 1);
            close(out, depth);
        }
        StmtKind::DoParallel {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let _ = write!(out, "do parallel {} = ", proc.var(*var).name);
            write_expr(out, pool, *lo, Some(proc));
            out.push_str(", ");
            write_expr(out, pool, *hi, Some(proc));
            out.push_str(", ");
            write_expr(out, pool, *step, Some(proc));
            out.push_str(" {\n");
            write_block(out, body, proc, depth + 1);
            close(out, depth);
        }
        StmtKind::WhileSpread {
            cond,
            parallel,
            serial,
        } => {
            out.push_str("while spread (");
            write_expr(out, pool, *cond, Some(proc));
            out.push_str(") {\n");
            write_block(out, parallel, proc, depth + 1);
            indent(out, depth);
            out.push_str("  next:\n");
            write_block(out, serial, proc, depth + 1);
            close(out, depth);
        }
        StmtKind::Label(l) => {
            let _ = writeln!(out, "lb_{}:;", l.0);
        }
        StmtKind::Goto(l) => {
            let _ = writeln!(out, "goto lb_{};", l.0);
        }
        StmtKind::IfGoto { cond, target } => {
            out.push_str("if (");
            write_expr(out, pool, *cond, Some(proc));
            let _ = writeln!(out, ") goto lb_{};", target.0);
        }
        StmtKind::Call { dst, callee, args } => {
            if let Some(d) = dst {
                write_lvalue(out, pool, d, Some(proc));
                out.push_str(" = ");
            }
            let _ = write!(out, "{callee}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, pool, *a, Some(proc));
            }
            out.push_str(");\n");
        }
        StmtKind::Return(v) => {
            out.push_str("return");
            if let Some(e) = v {
                out.push(' ');
                write_expr(out, pool, *e, Some(proc));
            }
            out.push_str(";\n");
        }
        StmtKind::Nop => out.push_str(";\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::expr::BinOp;
    use crate::ids::VarId;
    use crate::types::{ScalarType, Type};

    #[test]
    fn prints_do_fortran() {
        let mut b = ProcBuilder::new("f", Type::Void);
        let i = b.local("i", Type::Int);
        let s = b.local("s", Type::Int);
        let body = {
            let mut lb = b.block();
            let sv = lb.var(s);
            let iv = lb.var(i);
            let add = lb.ibinary(BinOp::Add, sv, iv);
            lb.assign_var(s, add);
            lb.stmts()
        };
        let lo = b.int(0);
        let hi = b.int(99);
        let step = b.int(1);
        b.do_loop(i, lo, hi, step, body);
        let p = b.finish();
        let text = pretty_proc(&p);
        assert!(text.contains("do fortran i = 0, 99, 1 {"), "{text}");
        assert!(text.contains("s = (s + i);"), "{text}");
    }

    #[test]
    fn positional_names_without_proc() {
        let mut pool = ExprPool::new();
        let x = pool.var(VarId(2));
        let four = pool.int(4);
        let e = pool.ibinary(BinOp::Mul, x, four);
        assert_eq!(pretty_expr_in(&pool, e), "(v2 * 4)");
    }

    #[test]
    fn section_prints_triplet() {
        let mut pool = ExprPool::new();
        let base = pool.addr_of(VarId(0));
        let len = pool.int(100);
        let stride = pool.int(4);
        let e = pool.section(base, len, stride, ScalarType::Float);
        assert_eq!(pretty_expr_in(&pool, e), "(float)[&v0 : 100 : 4]");
    }

    #[test]
    fn float_constants_tagged() {
        let mut pool = ExprPool::new();
        let f = pool.float(1.0);
        let d = pool.double(1.0);
        assert_eq!(pretty_expr_in(&pool, f), "1.0f");
        assert_eq!(pretty_expr_in(&pool, d), "1.0");
    }

    #[test]
    fn volatile_load_is_visible() {
        let mut pool = ExprPool::new();
        let addr = pool.addr_of(VarId(0));
        let e = pool.alloc(Expr::Load {
            addr,
            ty: ScalarType::Int,
            volatile: true,
        });
        assert!(pretty_expr_in(&pool, e).contains("volatile"));
    }
}
