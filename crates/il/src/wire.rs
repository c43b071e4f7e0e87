//! The binary wire format of the cache: the hash walker's bytes, kept.
//!
//! [`encode_proc`] runs [`crate::hash::write_proc`] — the single definition
//! of the byte layout — into a `Vec<u8>` instead of a hasher, over the
//! procedure's [canonical](Procedure::canonical) arena layout, so equal
//! procedures encode to identical bytes whatever their allocation history.
//! [`decode_proc`] is the matching reader. It is **untrusted-input code**:
//! the bytes come from a cache directory any process may have damaged, so
//!
//! * every read is bounds-checked, and every count prefix is checked
//!   against the bytes that remain *before* anything is allocated for it
//!   (a corrupt length can cost at most a small multiple of the input);
//! * every tag, [`VarId`], [`LabelId`], [`StmtId`] and [`ExprId`] is
//!   range-checked, and an expression operand must *precede* its node —
//!   the canonical order, which also makes the graph acyclic by
//!   construction;
//! * booleans are strictly 0/1 and trailing bytes are an error, so
//!   `encode(decode(b)) == b` for every `b` that decodes.
//!
//! What the reader cannot know — that the procedure *means* something
//! sensible (kinds agree, gotos land, no stamp appears twice) — stays the
//! IL verifier's job; the cache runs [`crate::verify_proc`] on everything
//! it decodes. The human-readable form of the same data is the pretty
//! printer ([`crate::pretty`]).
//!
//! Everything else the cache stores beside the IL — the per-pass reports,
//! the decision events, the program environment — is a [`Wire`] value:
//! written through the same [`ByteSink`], read under the same rules.
//! Structs get theirs from one field list ([`struct_wire!`]). A §7
//! [`crate::Catalog`] is one such value too.
//!
//! Every file either writes is [`seal`]ed: a one-line `<format>
//! <digest-hex>` header, then the payload the digest covers. The cache
//! seals under its directory format, a catalog under `titanc-catalog-v2`;
//! [`unseal`] refuses any other format name, a bad header and a checksum
//! mismatch alike, before a byte of the payload is decoded.

use crate::expr::{BinOp, Expr, ExprPool, LValue, UnOp};
use crate::hash::{
    write_proc, write_type, write_var_info, ByteSink, StableHash, StableHasher, IL_HASH_VERSION,
};
use crate::ids::{ExprId, LabelId, StmtId, StructId, VarId};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::program::{ConstInit, Field, Procedure, Storage, StructDef, VarInfo};
use crate::span::SrcSpan;
use crate::stmt::{Block, StmtKind, StmtPool};
use crate::types::{ScalarType, Type};
use std::fmt;

/// Why a byte string is not a wire-encoded value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireError {
    /// What was wrong.
    pub message: &'static str,
    /// Byte offset the reader had reached.
    pub offset: usize,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for WireError {}

/// Encodes a procedure: [`write_proc`] over its canonical layout.
pub fn encode_proc(proc: &Procedure) -> Vec<u8> {
    let canonical = proc.canonical();
    let mut out = Vec::with_capacity(canonical.exprs.bytes() + canonical.stmts.bytes());
    write_proc(&mut out, &canonical);
    out
}

/// Decodes what [`encode_proc`] wrote. The result equals the encoded
/// procedure, in canonical arena layout, at generation 0.
///
/// # Errors
///
/// Any truncation, unknown tag, out-of-range id, oversized count or
/// trailing byte — see the module docs. Never panics.
pub fn decode_proc(bytes: &[u8]) -> Result<Procedure, WireError> {
    let mut r = Reader::new(bytes);
    if r.u32()? != IL_HASH_VERSION {
        return Err(r.error("unknown IL layout version"));
    }
    let name = r.str()?.to_string();
    let ret = r.ty(0)?;
    let params: Vec<VarId> = r.ids(u32::MAX)?.into_iter().map(VarId).collect();

    let nvars = r.count(MIN_VAR_BYTES)?;
    let mut vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        vars.push(r.var_info()?);
    }
    let nvars = nvars as u32;
    if params.iter().any(|p| p.0 >= nvars) {
        return Err(r.error("parameter id out of range"));
    }
    let num_labels = r.u32()?;
    let next_temp = r.u32()?;
    let body: Block = r.ids(u32::MAX)?.into_iter().map(StmtId).collect();

    let nstmts = r.count(MIN_STMT_BYTES)?;
    if body.iter().any(|s| s.index() >= nstmts) {
        return Err(r.error("body statement id out of range"));
    }
    // operand ids are checked against the node count before the nodes
    // are read: the count sits after the statement column
    let mut kinds = Vec::with_capacity(nstmts);
    let mut max_expr = 0u32;
    let limits = Limits {
        vars: nvars,
        labels: num_labels,
        stmts: nstmts as u32,
    };
    for _ in 0..nstmts {
        kinds.push(r.stmt_kind(&limits, &mut max_expr)?);
    }
    let mut spans = Vec::with_capacity(nstmts);
    for _ in 0..nstmts {
        spans.push(SrcSpan::read_wire(&mut r)?);
    }

    let nexprs = r.count(MIN_EXPR_BYTES)?;
    if max_expr as usize > nexprs {
        return Err(r.error("statement operand id out of range"));
    }
    let mut nodes = Vec::with_capacity(nexprs);
    for index in 0..nexprs as u32 {
        nodes.push(r.expr(index, nvars)?);
    }
    r.finish()?;

    let mut proc = Procedure::new(name, ret);
    proc.params = params;
    proc.vars = vars;
    proc.num_labels = num_labels;
    proc.next_temp = next_temp;
    proc.body = body;
    proc.stmts = StmtPool::from_columns(kinds, spans);
    proc.exprs = ExprPool::from_nodes(nodes);
    Ok(proc)
}

/// A procedure as JSON: the hex of its [`encode_proc`] bytes. This and
/// [`FromJson`] below exist only because `titanperf`'s frozen `il.*`
/// replay calls them; ROADMAP item 8(b) deletes them.
impl ToJson for Procedure {
    fn to_json(&self) -> Json {
        let digit = |n: u8| char::from(b"0123456789abcdef"[usize::from(n)]);
        let bytes = encode_proc(self);
        Json::Str(
            bytes
                .iter()
                .flat_map(|&b| [digit(b >> 4), digit(b & 15)])
                .collect(),
        )
    }
}

impl FromJson for Procedure {
    fn from_json(v: &Json) -> Result<Procedure, JsonError> {
        let bad = |message: String| JsonError { message, offset: 0 };
        let nibble = |c: u8| char::from(c).to_digit(16);
        let bytes = (v.as_str()?.as_bytes().chunks(2))
            .map(|pair| match *pair {
                [hi, lo] => Some((nibble(hi)? << 4 | nibble(lo)?) as u8),
                _ => None,
            })
            .collect::<Option<Vec<u8>>>()
            .ok_or_else(|| bad("procedure is not a hex string".into()))?;
        decode_proc(&bytes).map_err(|e| bad(format!("procedure: {e}")))
    }
}

/// The digest an envelope header carries: the [`StableHasher`] digest of
/// the payload, absorbed in one bulk write.
pub fn digest(payload: &[u8]) -> StableHash {
    let mut h = StableHasher::new();
    h.write(payload);
    h.finish()
}

/// Wraps a payload in an envelope: a `<format> <digest-hex>` header line,
/// then the payload bytes the digest covers.
pub fn seal(format: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = format!("{format} {}\n", digest(payload).hex()).into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Opens an envelope in place: checks the format name and the payload
/// digest and returns the payload's slice of `bytes`. `None` on any
/// mismatch — another format, a bad header shape, a checksum failure.
pub fn unseal<'a>(format: &str, bytes: &'a [u8]) -> Option<&'a [u8]> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let payload = &bytes[newline + 1..];
    let (found, hex) = header.split_once(' ')?;
    (found == format && digest(payload) == StableHash::from_hex(hex)?).then_some(payload)
}

/// The smallest encodings of one variable / statement (kind + span) /
/// expression node: what a count prefix is checked against.
const MIN_VAR_BYTES: usize = 8 + 1 + 3 + 1;
const MIN_STMT_BYTES: usize = 1 + 12;
const MIN_EXPR_BYTES: usize = 1 + 4;
/// C declarators nest a handful deep; a longer `Ptr(Ptr(…))` chain is
/// corruption, and decoding one recurses per level.
const MAX_TYPE_DEPTH: u32 = 64;

const SCALARS: [ScalarType; 5] = [
    ScalarType::Char,
    ScalarType::Int,
    ScalarType::Float,
    ScalarType::Double,
    ScalarType::Ptr,
];
const STORAGES: [Storage; 5] = [
    Storage::Auto,
    Storage::Param,
    Storage::Temp,
    Storage::Static,
    Storage::Global,
];
const UNOPS: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::BitNot];
const BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Min,
    BinOp::Max,
];

/// The id bounds of the procedure being decoded.
struct Limits {
    vars: u32,
    labels: u32,
    stmts: u32,
}

/// A bounds-checked cursor over untrusted bytes. Public so the cache can
/// frame its entries (version, length-prefixed sections) with the same
/// checked reads the procedure decoder uses.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn error(&self, message: &'static str) -> WireError {
        WireError {
            message,
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| self.error("truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64`-length-prefixed byte section (what
    /// [`crate::hash::ByteSink::write_str`] writes for a string).
    pub fn section(&mut self) -> Result<&'a [u8], WireError> {
        let len = usize::try_from(self.u64()?).map_err(|_| self.error("truncated"))?;
        self.take(len)
    }

    /// Succeeds only when every byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.error("trailing bytes"))
        }
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let bytes = self.section()?;
        std::str::from_utf8(bytes).map_err(|_| self.error("string is not UTF-8"))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.error("boolean is neither 0 nor 1")),
        }
    }

    /// A `u32` element count whose elements take at least `min_bytes`
    /// each: rejected unless that many bytes remain, so the caller may
    /// allocate for it.
    fn count(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / min_bytes {
            return Err(self.error("count exceeds the bytes that remain"));
        }
        Ok(n)
    }

    fn below(&mut self, limit: u32, what: &'static str) -> Result<u32, WireError> {
        let id = self.u32()?;
        if id < limit {
            Ok(id)
        } else {
            Err(self.error(what))
        }
    }

    /// A counted list of ids, each below `limit`.
    fn ids(&mut self, limit: u32) -> Result<Vec<u32>, WireError> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.below(limit, "id out of range")?);
        }
        Ok(out)
    }

    /// A tag byte below `n`; `what` when it is not.
    pub(crate) fn tag(&mut self, n: usize, what: &'static str) -> Result<usize, WireError> {
        let tag = usize::from(self.u8()?);
        if tag < n {
            Ok(tag)
        } else {
            Err(self.error(what))
        }
    }

    /// The entry of `table` a tag byte names; `what` when it names none.
    pub fn pick<T: Clone>(&mut self, table: &[T], what: &'static str) -> Result<T, WireError> {
        Ok(table[self.tag(table.len(), what)?].clone())
    }

    fn scalar(&mut self) -> Result<ScalarType, WireError> {
        self.pick(&SCALARS, "unknown scalar type")
    }

    fn ty(&mut self, depth: u32) -> Result<Type, WireError> {
        if depth > MAX_TYPE_DEPTH {
            return Err(self.error("type nests too deeply"));
        }
        Ok(match self.u8()? {
            0 => Type::Void,
            1 => Type::Char,
            2 => Type::Int,
            3 => Type::Float,
            4 => Type::Double,
            5 => Type::Ptr(Box::new(self.ty(depth + 1)?)),
            6 => {
                let n = usize::try_from(self.u64()?)
                    .map_err(|_| self.error("array length overflows"))?;
                Type::Array(Box::new(self.ty(depth + 1)?), n)
            }
            7 => Type::Struct(StructId(self.u32()?)),
            _ => return Err(self.error("unknown type tag")),
        })
    }

    fn var_info(&mut self) -> Result<VarInfo, WireError> {
        let name = self.str()?.to_string();
        let ty = self.ty(0)?;
        let storage = self.pick(&STORAGES, "unknown storage class")?;
        let volatile = self.bool()?;
        let addressed = self.bool()?;
        let init = match self.u8()? {
            0 => None,
            1 => Some(ConstInit::Int(i64::from_le_bytes(self.array()?))),
            2 => Some(ConstInit::Float(f64::from_bits(self.u64()?))),
            _ => return Err(self.error("unknown initializer tag")),
        };
        Ok(VarInfo {
            name,
            ty,
            storage,
            volatile,
            addressed,
            init,
        })
    }

    /// One expression node at arena slot `index`: its operands must sit
    /// in earlier slots.
    fn expr(&mut self, index: u32, nvars: u32) -> Result<Expr, WireError> {
        const OPERAND: &str = "expression operand does not precede its node";
        Ok(match self.u8()? {
            0 => Expr::IntConst(i64::from_le_bytes(self.array()?)),
            1 => {
                let ty = self.scalar()?;
                Expr::FloatConst(f64::from_bits(self.u64()?), ty)
            }
            2 => Expr::Var(VarId(self.below(nvars, "variable id out of range")?)),
            3 => Expr::AddrOf(VarId(self.below(nvars, "variable id out of range")?)),
            4 => {
                let ty = self.scalar()?;
                let volatile = self.bool()?;
                let addr = ExprId(self.below(index, OPERAND)?);
                Expr::Load { addr, ty, volatile }
            }
            5 => {
                let op = self.pick(&UNOPS, "unknown unary operator")?;
                let ty = self.scalar()?;
                let arg = ExprId(self.below(index, OPERAND)?);
                Expr::Unary { op, ty, arg }
            }
            6 => {
                let op = self.pick(&BINOPS, "unknown binary operator")?;
                let ty = self.scalar()?;
                let lhs = ExprId(self.below(index, OPERAND)?);
                let rhs = ExprId(self.below(index, OPERAND)?);
                Expr::Binary { op, ty, lhs, rhs }
            }
            7 => {
                let to = self.scalar()?;
                let from = self.scalar()?;
                let arg = ExprId(self.below(index, OPERAND)?);
                Expr::Cast { to, from, arg }
            }
            8 => {
                let ty = self.scalar()?;
                let base = ExprId(self.below(index, OPERAND)?);
                let len = ExprId(self.below(index, OPERAND)?);
                let stride = ExprId(self.below(index, OPERAND)?);
                Expr::Section {
                    base,
                    len,
                    stride,
                    ty,
                }
            }
            _ => return Err(self.error("unknown expression tag")),
        })
    }

    /// A statement's operand id. The expression count is not known yet
    /// (it follows the statement column), so the largest id seen is
    /// tracked and checked once it is.
    fn operand(&mut self, max_expr: &mut u32) -> Result<ExprId, WireError> {
        let id = self.below(u32::MAX, "expression id out of range")?;
        *max_expr = (*max_expr).max(id + 1);
        Ok(ExprId(id))
    }

    fn lvalue(&mut self, lim: &Limits, max_expr: &mut u32) -> Result<LValue, WireError> {
        Ok(match self.u8()? {
            0 => LValue::Var(VarId(self.below(lim.vars, "variable id out of range")?)),
            1 => {
                let ty = self.scalar()?;
                let volatile = self.bool()?;
                let addr = self.operand(max_expr)?;
                LValue::Deref { addr, ty, volatile }
            }
            2 => {
                let ty = self.scalar()?;
                let base = self.operand(max_expr)?;
                let len = self.operand(max_expr)?;
                let stride = self.operand(max_expr)?;
                LValue::Section {
                    base,
                    len,
                    stride,
                    ty,
                }
            }
            _ => return Err(self.error("unknown lvalue tag")),
        })
    }

    fn block(&mut self, lim: &Limits) -> Result<Block, WireError> {
        Ok(self.ids(lim.stmts)?.into_iter().map(StmtId).collect())
    }

    fn label(&mut self, lim: &Limits) -> Result<LabelId, WireError> {
        Ok(LabelId(self.below(lim.labels, "label out of range")?))
    }

    fn stmt_kind(&mut self, lim: &Limits, max_expr: &mut u32) -> Result<StmtKind, WireError> {
        const VAR: &str = "variable id out of range";
        Ok(match self.u8()? {
            0 => {
                let lhs = self.lvalue(lim, max_expr)?;
                let rhs = self.operand(max_expr)?;
                StmtKind::Assign { lhs, rhs }
            }
            1 => {
                let cond = self.operand(max_expr)?;
                let then_blk = self.block(lim)?;
                let else_blk = self.block(lim)?;
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                }
            }
            2 => {
                let safe = self.bool()?;
                let cond = self.operand(max_expr)?;
                let body = self.block(lim)?;
                StmtKind::While { cond, body, safe }
            }
            tag @ (3 | 4) => {
                let safe = tag == 3 && self.bool()?;
                let var = VarId(self.below(lim.vars, VAR)?);
                let lo = self.operand(max_expr)?;
                let hi = self.operand(max_expr)?;
                let step = self.operand(max_expr)?;
                let body = self.block(lim)?;
                if tag == 3 {
                    StmtKind::DoLoop {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                        safe,
                    }
                } else {
                    StmtKind::DoParallel {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    }
                }
            }
            5 => {
                let cond = self.operand(max_expr)?;
                let parallel = self.block(lim)?;
                let serial = self.block(lim)?;
                StmtKind::WhileSpread {
                    cond,
                    parallel,
                    serial,
                }
            }
            6 => StmtKind::Label(self.label(lim)?),
            7 => StmtKind::Goto(self.label(lim)?),
            8 => {
                let cond = self.operand(max_expr)?;
                let target = self.label(lim)?;
                StmtKind::IfGoto { cond, target }
            }
            9 => {
                let dst = if self.bool()? {
                    Some(self.lvalue(lim, max_expr)?)
                } else {
                    None
                };
                let callee = self.str()?.to_string();
                let n = self.count(4)?;
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.operand(max_expr)?);
                }
                StmtKind::Call { dst, callee, args }
            }
            10 => StmtKind::Return(if self.bool()? {
                Some(self.operand(max_expr)?)
            } else {
                None
            }),
            11 => StmtKind::Nop,
            _ => return Err(self.error("unknown statement tag")),
        })
    }
}

/// A value with a binary wire form: written through any [`ByteSink`] — a
/// `Vec<u8>` keeps the bytes, a [`crate::StableHasher`] digests them — and
/// read back from untrusted bytes by the same rules [`decode_proc`]
/// follows. Counts are `u32`, integers little-endian (`usize` as `u64`),
/// strings length-prefixed, booleans one strict 0/1 byte and enums one
/// range-checked tag byte, so `encode(decode(b)) == b` for every `b` that
/// decodes.
pub trait Wire: Sized {
    /// The fewest bytes one value encodes to: what a count of them is
    /// checked against before anything is allocated.
    const MIN_BYTES: usize;

    /// Writes the value.
    fn write_wire<S: ByteSink>(&self, out: &mut S);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Truncation, an unknown tag, a non-0/1 boolean, a count larger than
    /// the bytes that remain. Never panics.
    fn read_wire(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// The wire bytes of one value.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.write_wire(&mut out);
    out
}

/// Reads one value that must span `bytes` exactly.
///
/// # Errors
///
/// Anything [`Wire::read_wire`] rejects, and trailing bytes.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::read_wire(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Writes `items` as a `Vec<T>` — the same bytes, from a slice.
pub fn write_seq<S: ByteSink, T: Wire>(out: &mut S, items: &[T]) {
    out.write(&(items.len() as u32).to_le_bytes());
    for item in items {
        item.write_wire(out);
    }
}

/// The [`Wire::MIN_BYTES`] of the field `field` picks out — how
/// [`struct_wire!`] sums a struct's minimum from its field list alone.
#[doc(hidden)]
pub const fn field_min_bytes<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Implements [`Wire`] for a plain struct as its listed fields, in order.
/// The list must be exhaustive — the reader constructs the struct
/// literally, so a field left out is a compile error, never a field that
/// silently fails to persist.
#[macro_export]
macro_rules! struct_wire {
    ($ty:ty, [$($field:ident),+ $(,)?]) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::wire::field_min_bytes(|v: &$ty| &v.$field))+;

            fn write_wire<S: $crate::ByteSink>(&self, out: &mut S) {
                $($crate::wire::Wire::write_wire(&self.$field, out);)+
            }

            fn read_wire(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self {
                    $($field: $crate::wire::Wire::read_wire(r)?,)+
                })
            }
        }
    };
}

impl Wire for u32 {
    const MIN_BYTES: usize = 4;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        out.write(&self.to_le_bytes());
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<u32, WireError> {
        r.u32()
    }
}

impl Wire for i64 {
    const MIN_BYTES: usize = 8;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        out.write(&self.to_le_bytes());
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(r.array()?))
    }
}

impl Wire for usize {
    const MIN_BYTES: usize = 8;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        out.write(&(*self as u64).to_le_bytes());
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<usize, WireError> {
        usize::try_from(r.u64()?).map_err(|_| r.error("integer overflows usize"))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        out.write(&[u8::from(*self)]);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<bool, WireError> {
        r.bool()
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 8;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        out.write_str(self);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<String, WireError> {
        Ok(r.str()?.to_string())
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        write_seq(out, self);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
        let n = r.count(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::read_wire(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        self.0.write_wire(out);
        self.1.write_wire(out);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<(A, B), WireError> {
        Ok((A::read_wire(r)?, B::read_wire(r)?))
    }
}

impl Wire for StmtId {
    const MIN_BYTES: usize = 4;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        self.0.write_wire(out);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<StmtId, WireError> {
        Ok(StmtId(r.u32()?))
    }
}

struct_wire!(SrcSpan, [line, col, file]);

impl Wire for VarInfo {
    const MIN_BYTES: usize = MIN_VAR_BYTES;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        write_var_info(out, self);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<VarInfo, WireError> {
        r.var_info()
    }
}

/// [`write_type`]'s layout, read back bounded in depth.
impl Wire for Type {
    const MIN_BYTES: usize = 1;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        write_type(out, self);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Type, WireError> {
        r.ty(0)
    }
}

struct_wire!(Field, [name, ty, offset]);
struct_wire!(StructDef, [name, fields, size]);

/// A procedure inside a larger value: its [`encode_proc`] bytes as one
/// length-prefixed section, read back by [`decode_proc`].
impl Wire for Procedure {
    const MIN_BYTES: usize = 8;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        let bytes = encode_proc(self);
        out.write(&(bytes.len() as u64).to_le_bytes());
        out.write(&bytes);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Procedure, WireError> {
        decode_proc(r.section()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::hash::{hash_proc, StableHasher};

    fn sample() -> Procedure {
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
    fn tag_tables_match_the_walkers_casts() {
        // the walker writes `op as u8`; the reader indexes these tables
        for (i, t) in SCALARS.iter().enumerate() {
            assert_eq!(*t as usize, i);
        }
        // `Storage` is matched, not cast: a variable of each class must
        // come back as itself
        let mut p = Procedure::new("", Type::Void);
        for storage in STORAGES {
            p.add_var(VarInfo {
                name: String::new(),
                ty: Type::Int,
                storage,
                volatile: false,
                addressed: false,
                init: None,
            });
        }
        assert_eq!(decode_proc(&encode_proc(&p)).expect("decodes").vars, p.vars);
        for (i, t) in UNOPS.iter().enumerate() {
            assert_eq!(*t as usize, i);
        }
        for (i, t) in BINOPS.iter().enumerate() {
            assert_eq!(*t as usize, i);
        }
    }

    #[test]
    fn round_trip_is_equal_stable_and_hash_consistent() {
        let mut p = sample();
        // arena history the encoding must not see: an orphan node, an
        // orphan statement, a rebuilt operand
        p.exprs.int(99);
        p.stamp(StmtKind::Nop);
        p.fresh_temp(Type::Float);
        let bytes = encode_proc(&p);
        let q = decode_proc(&bytes).expect("decodes");
        assert_eq!(p, q);
        assert_eq!(q.next_stmt(), p.next_stmt());
        assert_eq!(q.next_temp, p.next_temp);
        assert_eq!(encode_proc(&q), bytes, "re-encoding is the identity");
        // one walker, two sinks: the digest of the decoded procedure is
        // the digest of its wire bytes
        let mut h = StableHasher::new();
        h.write(&bytes);
        assert_eq!(hash_proc(&q), h.finish());
        assert_eq!(hash_proc(&p.canonical()), hash_proc(&q));
    }

    #[test]
    fn equal_procedures_encode_identically_whatever_their_history() {
        let p = sample();
        let mut q = p.clone();
        let pad = q.exprs.int(7);
        let _ = q.exprs.copy(pad);
        q.stamp(StmtKind::Goto(LabelId(0)));
        assert_eq!(p.next_stmt() + 1, q.next_stmt());
        // same structure up to the extra stamp: bring `p` level
        let mut p = p;
        p.stamp(StmtKind::Nop);
        assert_eq!(p, q);
        assert_eq!(encode_proc(&p), encode_proc(&q));
    }

    #[test]
    fn damage_is_an_error_never_a_panic() {
        let bytes = encode_proc(&sample());
        for cut in 0..bytes.len() {
            assert!(decode_proc(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_proc(&long).unwrap_err().message, "trailing bytes");
        // a count that claims more elements than bytes remain
        let mut inflated = bytes.clone();
        let at = 4 + 8 + 1 + 1; // version, name, ret → params count
        inflated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_proc(&inflated).unwrap_err().message,
            "count exceeds the bytes that remain"
        );
        assert!(decode_proc(&[5u8; 4096]).is_err());
    }

    #[test]
    fn a_struct_is_its_fields_in_order_and_its_minimum_their_sum() {
        let field = Field {
            name: String::new(),
            ty: Type::Int,
            offset: 0,
        };
        let def = StructDef {
            name: String::new(),
            fields: Vec::new(),
            size: 0,
        };
        assert_eq!(to_bytes(&SrcSpan::NONE).len(), SrcSpan::MIN_BYTES);
        assert_eq!(to_bytes(&field).len(), Field::MIN_BYTES);
        assert_eq!(to_bytes(&def).len(), StructDef::MIN_BYTES);
        let span = SrcSpan::new(7, 5).in_file(2);
        let mut fields = to_bytes(&7u32);
        fields.extend(5u32.to_le_bytes());
        fields.extend(2u32.to_le_bytes());
        assert_eq!(to_bytes(&span), fields);
        let def = StructDef {
            name: "pt".into(),
            fields: vec![field.clone(), field],
            size: 8,
        };
        let bytes = to_bytes(&vec![def.clone()]);
        assert_eq!(from_bytes::<Vec<StructDef>>(&bytes), Ok(vec![def]));
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Vec<StructDef>>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn seal_round_trips_and_detects_damage() {
        const FORMAT: &str = "titanc-cache-v7";
        // payloads are bytes: newlines and non-UTF-8 are fine past the header
        let payload: &[u8] = b"\x00\xff\n{\"version\":1}\n\xfe";
        let sealed = seal(FORMAT, payload);
        assert_eq!(unseal(FORMAT, &sealed), Some(payload));
        // the header names the format and the digest of the payload
        let header = format!("{FORMAT} {}\n", digest(payload).hex());
        assert!(sealed.starts_with(header.as_bytes()));

        // flip one payload byte
        let mut bytes = sealed.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        assert_eq!(unseal(FORMAT, &bytes), None);

        // truncate mid-payload
        assert_eq!(unseal(FORMAT, &sealed[..sealed.len() - 3]), None);

        // another format name, on either side
        assert_eq!(unseal("titanc-catalog-v2", &sealed), None);
        let mut skewed = b"titanc-cache-v6".to_vec();
        skewed.extend_from_slice(&sealed[FORMAT.len()..]);
        assert_eq!(unseal(FORMAT, &skewed), None);

        // a header that is not UTF-8
        assert_eq!(unseal(FORMAT, &[0xFF, 0xFE, b'\n', b'x']), None);
        // empty and header-only
        assert_eq!(unseal(FORMAT, b""), None);
        assert_eq!(unseal(FORMAT, format!("{FORMAT} zz\n").as_bytes()), None);
    }

    #[test]
    fn a_procedure_nests_as_its_encoding_and_its_json_is_that_in_hex() {
        let p = sample();
        let bytes = to_bytes(&vec![p.clone(), p.clone()]);
        let inner = encode_proc(&p);
        assert_eq!(bytes.len(), 4 + 2 * (8 + inner.len()));
        assert_eq!(&bytes[12..12 + inner.len()], &inner[..]);
        assert_eq!(
            from_bytes::<Vec<Procedure>>(&bytes),
            Ok(vec![p.clone(), p.clone()])
        );
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Vec<Procedure>>(&bytes[..cut]).is_err());
        }

        let json = p.to_json();
        let Json::Str(hex) = &json else {
            panic!("a procedure's JSON is a string")
        };
        assert_eq!(hex.len(), 2 * inner.len());
        assert_eq!(Procedure::from_json(&json), Ok(p));
        for bad in ["", "0", "zz", "00"] {
            assert!(
                Procedure::from_json(&Json::Str(bad.into())).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn deep_type_chains_are_rejected_not_recursed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&IL_HASH_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend(std::iter::repeat_n(5u8, 1 << 20));
        assert_eq!(
            decode_proc(&bytes).unwrap_err().message,
            "type nests too deeply"
        );
    }
}
