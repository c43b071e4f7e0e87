//! # titanc-il — the high-level intermediate language
//!
//! This crate defines the intermediate language (IL) of the `titanc`
//! compiler, a reproduction of the Ardent Titan C compiler described in
//! Allen & Johnson, *Compiling C for Vectorization, Parallelization, and
//! Inline Expansion* (PLDI 1988).
//!
//! The IL's design follows §3–§4 of the paper:
//!
//! * **All side effects are statements.** The IL has an assignment
//!   *statement* ([`StmtKind::Assign`]) but no assignment *operator*; the C
//!   operators `?:`, `&&`, `||`, `,`, `++`, `--` and embedded assignments are
//!   not representable inside an [`Expr`]. The front end recasts every C
//!   expression as a *(statement list, expression)* pair (see
//!   `titanc-lower`).
//! * **Loops and subscripts stay explicit.** There are structured
//!   [`StmtKind::While`], Fortran-style [`StmtKind::DoLoop`] and parallel
//!   [`StmtKind::DoParallel`] forms, plus vector triplet sections
//!   ([`Expr::Section`]) so the vectorizer can express `a[lo:len:stride]`
//!   assignments directly in the IL.
//! * **No hard pointers.** Every cross-reference is an index
//!   ([`VarId`], [`ProcId`], [`LabelId`], [`StmtId`], [`ExprId`]), so
//!   procedures can be serialized into inlining *catalogs* (§7) and paged
//!   or shipped between compilations; see the [`catalog`] module. One
//!   codec serves both: a catalog file and a cache entry are the same
//!   binary [`wire`] bytes, sealed under their own format names.
//!
//! ## Memory layout
//!
//! Each [`Procedure`] owns two flat arenas: an [`ExprPool`] of `Copy`
//! expression nodes and a [`StmtPool`] of statement kinds with a parallel
//! span column. Statements reference expressions by [`ExprId`] and child
//! statements by [`StmtId`]; a [`stmt::Block`] is a `Vec<StmtId>`. Cloning
//! a procedure is a handful of contiguous `memcpy`s, and content hashing
//! ([`hash::hash_proc`]) sweeps the columns linearly. See
//! `docs/architecture.md` for the pass-author's tour of the rewrite idiom.
//!
//! ## Example
//!
//! ```
//! use titanc_il::{Procedure, ProcBuilder, Type, BinOp};
//!
//! // Build:  int f(int n) { s = 0; DO i = 1, n, 1 { s = s + i; } return s; }
//! let mut b = ProcBuilder::new("f", Type::Int);
//! let n = b.param("n", Type::Int);
//! let s = b.local("s", Type::Int);
//! let i = b.local("i", Type::Int);
//! let zero = b.int(0);
//! b.assign_var(s, zero);
//! let body = {
//!     let mut lb = b.block();
//!     let sum = lb.var(s);
//!     let iv = lb.var(i);
//!     let add = lb.ibinary(BinOp::Add, sum, iv);
//!     lb.assign_var(s, add);
//!     lb.stmts()
//! };
//! let lo = b.int(1);
//! let hi = b.var(n);
//! let step = b.int(1);
//! b.do_loop(i, lo, hi, step, body);
//! let sv = b.var(s);
//! b.ret(Some(sv));
//! let proc: Procedure = b.finish();
//! assert_eq!(proc.name, "f");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod catalog;
pub mod expr;
pub mod fold;
pub mod hash;
pub mod ids;
pub mod json;
pub mod link;
pub mod pretty;
pub mod program;
pub mod span;
pub mod stmt;
pub mod trace;
pub mod types;
pub mod verify;
pub mod visit;
pub mod wire;

pub use builder::{BlockBuilder, ProcBuilder};
pub use catalog::{Catalog, CATALOG_FORMAT};
pub use expr::{BinOp, Expr, ExprPool, LValue, SlotsMut, UnOp};
pub use fold::{fold_expr, Value};
pub use hash::{hash_proc, write_proc, ByteSink, StableHash, StableHasher};
pub use ids::{ExprId, LabelId, ProcId, StmtId, StructId, VarId};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use link::{link, LinkReport};
pub use pretty::{
    pretty_block, pretty_expr, pretty_expr_in, pretty_lvalue, pretty_proc, pretty_proc_into,
};
pub use program::{ConstInit, Field, Procedure, Program, Storage, StructDef, VarInfo, VREG_WORDS};
pub use span::SrcSpan;
pub use stmt::{block_len, Block, Blocks, BlocksMut, ExprSlotsMut, StmtExprs, StmtKind, StmtPool};
pub use trace::{Count, InlineEvent, InlineOutcome, LoopDecision, LoopEvent, Reject, Report};
pub use types::{ScalarType, Type};
pub use verify::{verify_proc, verify_program, verify_registers, VerifyError};
pub use wire::{decode_proc, encode_proc, WireError};
