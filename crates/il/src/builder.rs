//! Ergonomic construction of IL procedures.
//!
//! Tests, examples and the workload generators build IL directly through
//! [`ProcBuilder`]; the C front end goes through `titanc-lower` instead.
//!
//! Because expressions live in the procedure's arena, the builder exposes
//! expression constructors (`b.int(0)`, `b.var(v)`, `b.ibinary(..)`) that
//! allocate in the pool and return [`ExprId`]s; nested expressions are
//! built innermost-first.

use crate::expr::{BinOp, LValue, UnOp};
use crate::ids::{ExprId, LabelId, VarId};
use crate::program::{Procedure, Storage, VarInfo};
use crate::stmt::{Block, StmtKind};
use crate::types::{ScalarType, Type};

/// Builds a [`Procedure`] statement by statement.
#[derive(Debug)]
pub struct ProcBuilder {
    proc: Procedure,
}

impl ProcBuilder {
    /// Starts a procedure with the given name and return type.
    pub fn new(name: impl Into<String>, ret: Type) -> ProcBuilder {
        ProcBuilder {
            proc: Procedure::new(name, ret),
        }
    }

    /// Declares a parameter.
    pub fn param(&mut self, name: impl Into<String>, ty: Type) -> VarId {
        let addressed = ty.scalar().is_none();
        let id = self.proc.add_var(VarInfo {
            name: name.into(),
            ty,
            storage: Storage::Param,
            volatile: false,
            addressed,
            init: None,
        });
        self.proc.params.push(id);
        id
    }

    /// Declares a local (auto) variable.
    pub fn local(&mut self, name: impl Into<String>, ty: Type) -> VarId {
        let addressed = ty.scalar().is_none();
        self.proc.add_var(VarInfo {
            name: name.into(),
            ty,
            storage: Storage::Auto,
            volatile: false,
            addressed,
            init: None,
        })
    }

    /// Declares a volatile local.
    pub fn volatile_local(&mut self, name: impl Into<String>, ty: Type) -> VarId {
        let id = self.local(name, ty);
        self.proc.var_mut(id).volatile = true;
        self.proc.var_mut(id).addressed = true;
        id
    }

    /// Declares a reference to a program global of the same name.
    pub fn global(&mut self, name: impl Into<String>, ty: Type) -> VarId {
        self.proc.add_var(VarInfo {
            name: name.into(),
            ty,
            storage: Storage::Global,
            volatile: false,
            addressed: true,
            init: None,
        })
    }

    /// A fresh temporary.
    pub fn temp(&mut self, ty: Type) -> VarId {
        self.proc.fresh_temp(ty)
    }

    /// A fresh label.
    pub fn label_id(&mut self) -> LabelId {
        self.proc.fresh_label()
    }

    /// Opens a nested block builder (for loop and branch bodies).
    pub fn block(&mut self) -> BlockBuilder<'_> {
        BlockBuilder {
            proc: &mut self.proc,
            stmts: Vec::new(),
        }
    }

    /// Finishes and returns the procedure.
    pub fn finish(self) -> Procedure {
        self.proc
    }

    /// Access to the procedure under construction.
    pub fn proc(&self) -> &Procedure {
        &self.proc
    }
}

macro_rules! emit_methods {
    ($pusher:ident) => {
        /// Emits `lhs = rhs` for a variable target.
        pub fn assign_var(&mut self, lhs: VarId, rhs: ExprId) {
            self.$pusher(StmtKind::Assign {
                lhs: LValue::Var(lhs),
                rhs,
            });
        }

        /// Emits `lhs = rhs` for any target.
        pub fn assign(&mut self, lhs: LValue, rhs: ExprId) {
            self.$pusher(StmtKind::Assign { lhs, rhs });
        }

        /// Emits a structured `if`.
        pub fn if_(&mut self, cond: ExprId, then_blk: Block, else_blk: Block) {
            self.$pusher(StmtKind::If {
                cond,
                then_blk,
                else_blk,
            });
        }

        /// Emits a `while` loop.
        pub fn while_(&mut self, cond: ExprId, body: Block) {
            self.$pusher(StmtKind::While {
                cond,
                body,
                safe: false,
            });
        }

        /// Emits a Fortran-style DO loop.
        pub fn do_loop(&mut self, var: VarId, lo: ExprId, hi: ExprId, step: ExprId, body: Block) {
            self.$pusher(StmtKind::DoLoop {
                var,
                lo,
                hi,
                step,
                body,
                safe: false,
            });
        }

        /// Emits a `return`.
        pub fn ret(&mut self, value: Option<ExprId>) {
            self.$pusher(StmtKind::Return(value));
        }

        /// Emits a call statement.
        pub fn call(&mut self, dst: Option<LValue>, callee: impl Into<String>, args: Vec<ExprId>) {
            self.$pusher(StmtKind::Call {
                dst,
                callee: callee.into(),
                args,
            });
        }

        /// Emits a label.
        pub fn label(&mut self, l: LabelId) {
            self.$pusher(StmtKind::Label(l));
        }

        /// Emits an unconditional branch.
        pub fn goto(&mut self, l: LabelId) {
            self.$pusher(StmtKind::Goto(l));
        }
    };
}

macro_rules! expr_methods {
    () => {
        /// Allocates an `Int` constant in the procedure's expression pool.
        pub fn int(&mut self, v: i64) -> ExprId {
            self.proc.exprs.int(v)
        }

        /// Allocates a `Float` constant.
        pub fn float(&mut self, v: f64) -> ExprId {
            self.proc.exprs.float(v)
        }

        /// Allocates a `Double` constant.
        pub fn double(&mut self, v: f64) -> ExprId {
            self.proc.exprs.double(v)
        }

        /// Allocates a variable read.
        pub fn var(&mut self, v: VarId) -> ExprId {
            self.proc.exprs.var(v)
        }

        /// Allocates an address-of.
        pub fn addr_of(&mut self, v: VarId) -> ExprId {
            self.proc.exprs.addr_of(v)
        }

        /// Allocates a non-volatile load.
        pub fn load(&mut self, addr: ExprId, ty: ScalarType) -> ExprId {
            self.proc.exprs.load(addr, ty)
        }

        /// Allocates an `Int` binary operation.
        pub fn ibinary(&mut self, op: BinOp, lhs: ExprId, rhs: ExprId) -> ExprId {
            self.proc.exprs.ibinary(op, lhs, rhs)
        }

        /// Allocates a binary operation on operands of kind `ty`.
        pub fn binary(&mut self, op: BinOp, ty: ScalarType, lhs: ExprId, rhs: ExprId) -> ExprId {
            self.proc.exprs.binary(op, ty, lhs, rhs)
        }

        /// Allocates a unary operation.
        pub fn unary(&mut self, op: UnOp, ty: ScalarType, arg: ExprId) -> ExprId {
            self.proc.exprs.unary(op, ty, arg)
        }

        /// Allocates a cast (identity casts collapse).
        pub fn cast(&mut self, to: ScalarType, from: ScalarType, arg: ExprId) -> ExprId {
            self.proc.exprs.cast(to, from, arg)
        }

        /// Allocates a vector triplet section.
        pub fn section(
            &mut self,
            base: ExprId,
            len: ExprId,
            stride: ExprId,
            ty: ScalarType,
        ) -> ExprId {
            self.proc.exprs.section(base, len, stride, ty)
        }
    };
}

impl ProcBuilder {
    fn push_kind(&mut self, kind: StmtKind) {
        self.proc.push(kind);
    }

    emit_methods!(push_kind);
    expr_methods!();
}

/// Builds a statement block nested inside a [`ProcBuilder`] (loop or branch
/// bodies). Finish with [`BlockBuilder::stmts`].
#[derive(Debug)]
pub struct BlockBuilder<'a> {
    proc: &'a mut Procedure,
    stmts: Block,
}

impl<'a> BlockBuilder<'a> {
    fn push_kind(&mut self, kind: StmtKind) {
        let s = self.proc.stamp(kind);
        self.stmts.push(s);
    }

    emit_methods!(push_kind);
    expr_methods!();

    /// A fresh temporary (allocated in the enclosing procedure).
    pub fn temp(&mut self, ty: Type) -> VarId {
        self.proc.fresh_temp(ty)
    }

    /// A fresh label (allocated in the enclosing procedure).
    pub fn label_id(&mut self) -> LabelId {
        self.proc.fresh_label()
    }

    /// Opens a further nested block.
    pub fn block(&mut self) -> BlockBuilder<'_> {
        BlockBuilder {
            proc: self.proc,
            stmts: Vec::new(),
        }
    }

    /// Finishes the block, returning its statement ids.
    pub fn stmts(self) -> Block {
        self.stmts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn builds_counted_sum() {
        let mut b = ProcBuilder::new("sum", Type::Int);
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
        let p = b.finish();
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.body.len(), 3);
        assert_eq!(p.len(), 4);
        // stamps are unique
        let mut ids = Vec::new();
        p.for_each_stmt(&mut |s, _| ids.push(s));
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
    }

    #[test]
    fn nested_blocks_share_temp_counter() {
        let mut b = ProcBuilder::new("f", Type::Void);
        let t0 = b.temp(Type::Int);
        let t1 = {
            let mut lb = b.block();
            let t = lb.temp(Type::Int);
            let _ = lb.stmts();
            t
        };
        assert_ne!(t0, t1);
    }

    #[test]
    fn volatile_local_is_marked() {
        let mut b = ProcBuilder::new("f", Type::Void);
        let ks = b.volatile_local("keyboard_status", Type::Int);
        assert!(b.proc().var(ks).volatile);
        assert!(b.proc().var(ks).addressed);
    }

    #[test]
    fn array_param_is_addressed() {
        let mut b = ProcBuilder::new("f", Type::Void);
        let a = b.local("a", Type::array_of(Type::Float, 100));
        assert!(b.proc().var(a).addressed);
        let p = b.param("x", Type::ptr_to(Type::Float));
        assert!(!b.proc().var(p).addressed);
    }
}
