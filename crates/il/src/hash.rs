//! Stable content hashing for cache keys — and the one walker that defines
//! the cache's wire bytes.
//!
//! The persistent compilation cache keys a procedure's optimized IL by a
//! content hash of its parsed IL plus the option/pipeline fingerprints.
//! The hash must be stable across runs, platforms and compiler versions of
//! `titanc` itself — so it is a fixed algorithm over a fixed byte layout,
//! rather than `std::hash` (whose output is explicitly unspecified and
//! seeded per-process for `HashMap`).
//!
//! The algorithm is 128-bit FNV-1a: dependency-free, endian-independent
//! (it consumes bytes), and wide enough that accidental collisions
//! between cache keys are not a practical concern.
//!
//! The byte layout is defined **once**, by [`write_proc`]: a linear sweep
//! of a procedure's arena columns — signature, variable table, body ids,
//! the statement kinds (then their spans), the expression nodes — with
//! every count length-prefixed and every enum a tag byte. The walker is
//! generic over a [`ByteSink`], and there are two sinks:
//!
//! * a [`StableHasher`] folds the bytes into a digest ([`hash_proc`]) —
//!   the cache *key* side. Arena layout is a deterministic function of
//!   how the IL was built (lowering allocates in a fixed order), so the
//!   digest of a parsed procedure is identical across runs, clones and
//!   job counts;
//! * a `Vec<u8>` keeps the bytes ([`crate::wire::encode_proc`]) — the
//!   cache *entry* side, read back by the bounds-checked
//!   [`crate::wire::decode_proc`].
//!
//! Hashing and encoding therefore cannot drift: the digest of a decoded
//! entry is the FNV of the entry's own bytes. [`IL_HASH_VERSION`] leads
//! the layout and is bumped — here, once — whenever it changes.

use crate::expr::{Expr, LValue};
use crate::program::{ConstInit, Procedure, Storage, VarInfo};
use crate::stmt::StmtKind;
use crate::types::Type;
use crate::wire::Wire;
use std::fmt;

/// Version seed folded into every [`hash_proc`] digest; bump when the
/// byte layout below changes so stale cache keys can never alias.
pub const IL_HASH_VERSION: u32 = 1;

/// 128-bit FNV-1a offset basis.
const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// An incremental 128-bit FNV-1a hasher.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: OFFSET }
    }

    /// Feeds bytes into the hash. `#[inline]` because the generic walker
    /// is instantiated in the *calling* crate, where a non-inline call per
    /// one-to-four-byte field would dominate the sweep.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Feeds a length-prefixed string (see [`ByteSink::write_str`]).
    pub fn write_str(&mut self, s: &str) {
        ByteSink::write_str(self, s);
    }

    /// The current digest.
    pub fn finish(&self) -> StableHash {
        StableHash(self.state)
    }
}

/// Where the walker's canonical bytes go. [`StableHasher`] folds them into
/// a digest; `Vec<u8>` keeps them as the cache's wire format.
pub trait ByteSink {
    /// Accepts the next bytes of the stream.
    fn write(&mut self, bytes: &[u8]);

    /// Writes a string, length-prefixed so concatenations can't collide
    /// (`"ab" + "c"` vs `"a" + "bc"`) and a reader knows where it ends.
    fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }
}

impl ByteSink for StableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        StableHasher::write(self, bytes);
    }
}

impl ByteSink for Vec<u8> {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A finished 128-bit stable digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StableHash(pub u128);

impl StableHash {
    /// Hashes a single string in one call.
    pub fn of_str(s: &str) -> StableHash {
        let mut h = StableHasher::new();
        h.write_str(s);
        h.finish()
    }

    /// The digest as 32 lowercase hex digits (cache file names).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-hex-digit form back into a digest — the checksum
    /// side of the cache's envelope headers. `None` for anything that
    /// is not exactly 32 hex digits.
    pub fn from_hex(s: &str) -> Option<StableHash> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(StableHash)
    }
}

impl fmt::Display for StableHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Content-hashes a procedure over its flat arenas.
///
/// The digest covers everything [`crate::Procedure`]'s structural equality
/// covers — signature, variable table, body ids, both arena columns with
/// spans — plus the stamp/temp counters, and nothing else (no capacities,
/// no lifetime counters). Equal layouts hash equal; the digest is stable
/// across clones and across runs.
pub fn hash_proc(proc: &Procedure) -> StableHash {
    let mut h = StableHasher::new();
    write_proc(&mut h, proc);
    h.finish()
}

/// Feeds a procedure's canonical bytes into a sink: an existing hasher
/// (program-wide keys fold several procedures) or a byte buffer (the
/// cache's wire format). This function *is* the layout definition —
/// [`crate::wire::decode_proc`] reads exactly what it writes.
pub fn write_proc<S: ByteSink>(h: &mut S, proc: &Procedure) {
    h.write(&IL_HASH_VERSION.to_le_bytes());
    h.write_str(&proc.name);
    write_type(h, &proc.ret);
    h.write(&(proc.params.len() as u32).to_le_bytes());
    for p in &proc.params {
        h.write(&p.0.to_le_bytes());
    }
    h.write(&(proc.vars.len() as u32).to_le_bytes());
    for v in &proc.vars {
        write_var_info(h, v);
    }
    h.write(&proc.num_labels.to_le_bytes());
    h.write(&proc.next_temp.to_le_bytes());
    h.write(&(proc.body.len() as u32).to_le_bytes());
    for s in &proc.body {
        h.write(&s.0.to_le_bytes());
    }
    // statement column: kinds and spans, one linear sweep
    h.write(&(proc.stmts.len() as u32).to_le_bytes());
    for kind in proc.stmts.kinds() {
        write_stmt_kind(h, kind);
    }
    for span in proc.stmts.spans() {
        span.write_wire(h);
    }
    // expression column: one linear sweep, no recursion
    h.write(&(proc.exprs.len() as u32).to_le_bytes());
    for node in proc.exprs.nodes() {
        write_expr_node(h, node);
    }
}

pub(crate) fn write_type<S: ByteSink>(h: &mut S, ty: &Type) {
    match ty {
        Type::Void => h.write(&[0]),
        Type::Char => h.write(&[1]),
        Type::Int => h.write(&[2]),
        Type::Float => h.write(&[3]),
        Type::Double => h.write(&[4]),
        Type::Ptr(inner) => {
            h.write(&[5]);
            write_type(h, inner);
        }
        Type::Array(elem, n) => {
            h.write(&[6]);
            h.write(&(*n as u64).to_le_bytes());
            write_type(h, elem);
        }
        Type::Struct(sid) => {
            h.write(&[7]);
            h.write(&sid.0.to_le_bytes());
        }
    }
}

pub(crate) fn write_var_info<S: ByteSink>(h: &mut S, v: &VarInfo) {
    h.write_str(&v.name);
    write_type(h, &v.ty);
    h.write(&[
        match v.storage {
            Storage::Auto => 0,
            Storage::Param => 1,
            Storage::Temp => 2,
            Storage::Static => 3,
            Storage::Global => 4,
        },
        u8::from(v.volatile),
        u8::from(v.addressed),
    ]);
    match &v.init {
        None => h.write(&[0]),
        Some(ConstInit::Int(i)) => {
            h.write(&[1]);
            h.write(&i.to_le_bytes());
        }
        Some(ConstInit::Float(f)) => {
            h.write(&[2]);
            h.write(&f.to_bits().to_le_bytes());
        }
    }
}

fn write_expr_node<S: ByteSink>(h: &mut S, e: &Expr) {
    match *e {
        Expr::IntConst(v) => {
            h.write(&[0]);
            h.write(&v.to_le_bytes());
        }
        Expr::FloatConst(v, ty) => {
            h.write(&[1, ty as u8]);
            h.write(&v.to_bits().to_le_bytes());
        }
        Expr::Var(v) => {
            h.write(&[2]);
            h.write(&v.0.to_le_bytes());
        }
        Expr::AddrOf(v) => {
            h.write(&[3]);
            h.write(&v.0.to_le_bytes());
        }
        Expr::Load { addr, ty, volatile } => {
            h.write(&[4, ty as u8, u8::from(volatile)]);
            h.write(&addr.0.to_le_bytes());
        }
        Expr::Unary { op, ty, arg } => {
            h.write(&[5, op as u8, ty as u8]);
            h.write(&arg.0.to_le_bytes());
        }
        Expr::Binary { op, ty, lhs, rhs } => {
            h.write(&[6, op as u8, ty as u8]);
            h.write(&lhs.0.to_le_bytes());
            h.write(&rhs.0.to_le_bytes());
        }
        Expr::Cast { to, from, arg } => {
            h.write(&[7, to as u8, from as u8]);
            h.write(&arg.0.to_le_bytes());
        }
        Expr::Section {
            base,
            len,
            stride,
            ty,
        } => {
            h.write(&[8, ty as u8]);
            h.write(&base.0.to_le_bytes());
            h.write(&len.0.to_le_bytes());
            h.write(&stride.0.to_le_bytes());
        }
    }
}

fn write_lvalue<S: ByteSink>(h: &mut S, lv: &LValue) {
    match *lv {
        LValue::Var(v) => {
            h.write(&[0]);
            h.write(&v.0.to_le_bytes());
        }
        LValue::Deref { addr, ty, volatile } => {
            h.write(&[1, ty as u8, u8::from(volatile)]);
            h.write(&addr.0.to_le_bytes());
        }
        LValue::Section {
            base,
            len,
            stride,
            ty,
        } => {
            h.write(&[2, ty as u8]);
            h.write(&base.0.to_le_bytes());
            h.write(&len.0.to_le_bytes());
            h.write(&stride.0.to_le_bytes());
        }
    }
}

fn write_block<S: ByteSink>(h: &mut S, block: &[crate::ids::StmtId]) {
    h.write(&(block.len() as u32).to_le_bytes());
    for s in block {
        h.write(&s.0.to_le_bytes());
    }
}

fn write_stmt_kind<S: ByteSink>(h: &mut S, kind: &StmtKind) {
    match kind {
        StmtKind::Assign { lhs, rhs } => {
            h.write(&[0]);
            write_lvalue(h, lhs);
            h.write(&rhs.0.to_le_bytes());
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            h.write(&[1]);
            h.write(&cond.0.to_le_bytes());
            write_block(h, then_blk);
            write_block(h, else_blk);
        }
        StmtKind::While { cond, body, safe } => {
            h.write(&[2, u8::from(*safe)]);
            h.write(&cond.0.to_le_bytes());
            write_block(h, body);
        }
        StmtKind::DoLoop {
            var,
            lo,
            hi,
            step,
            body,
            safe,
        } => {
            h.write(&[3, u8::from(*safe)]);
            h.write(&var.0.to_le_bytes());
            h.write(&lo.0.to_le_bytes());
            h.write(&hi.0.to_le_bytes());
            h.write(&step.0.to_le_bytes());
            write_block(h, body);
        }
        StmtKind::DoParallel {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            h.write(&[4]);
            h.write(&var.0.to_le_bytes());
            h.write(&lo.0.to_le_bytes());
            h.write(&hi.0.to_le_bytes());
            h.write(&step.0.to_le_bytes());
            write_block(h, body);
        }
        StmtKind::WhileSpread {
            cond,
            parallel,
            serial,
        } => {
            h.write(&[5]);
            h.write(&cond.0.to_le_bytes());
            write_block(h, parallel);
            write_block(h, serial);
        }
        StmtKind::Label(l) => {
            h.write(&[6]);
            h.write(&l.0.to_le_bytes());
        }
        StmtKind::Goto(l) => {
            h.write(&[7]);
            h.write(&l.0.to_le_bytes());
        }
        StmtKind::IfGoto { cond, target } => {
            h.write(&[8]);
            h.write(&cond.0.to_le_bytes());
            h.write(&target.0.to_le_bytes());
        }
        StmtKind::Call { dst, callee, args } => {
            h.write(&[9]);
            match dst {
                None => h.write(&[0]),
                Some(d) => {
                    h.write(&[1]);
                    write_lvalue(h, d);
                }
            }
            h.write_str(callee);
            h.write(&(args.len() as u32).to_le_bytes());
            for a in args {
                h.write(&a.0.to_le_bytes());
            }
        }
        StmtKind::Return(e) => {
            h.write(&[10]);
            match e {
                None => h.write(&[0]),
                Some(e) => {
                    h.write(&[1]);
                    h.write(&e.0.to_le_bytes());
                }
            }
        }
        StmtKind::Nop => h.write(&[11]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // 128-bit FNV-1a of the empty input is the offset basis
        assert_eq!(StableHasher::new().finish().0, OFFSET);
        let mut h = StableHasher::new();
        h.write(b"a");
        // independently computed: offset ^ 'a' then * prime
        let expected = (OFFSET ^ u128::from(b'a')).wrapping_mul(PRIME);
        assert_eq!(h.finish().0, expected);
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(StableHash::of_str("daxpy"), StableHash::of_str("daxpy"));
        assert_ne!(StableHash::of_str("daxpy"), StableHash::of_str("ddot"));
    }

    #[test]
    fn hex_round_trips_through_from_hex() {
        let digest = StableHash::of_str("daxpy");
        assert_eq!(StableHash::from_hex(&digest.hex()), Some(digest));
        assert_eq!(
            StableHash::from_hex(&StableHash(0).hex()),
            Some(StableHash(0))
        );
        assert_eq!(
            StableHash::from_hex(&StableHash(u128::MAX).hex()),
            Some(StableHash(u128::MAX))
        );
        // anything that is not exactly 32 hex digits is rejected
        assert_eq!(StableHash::from_hex(""), None);
        assert_eq!(StableHash::from_hex("abc"), None);
        assert_eq!(StableHash::from_hex(&"0".repeat(33)), None);
        assert_eq!(StableHash::from_hex(&format!("+{}", "0".repeat(31))), None);
        assert_eq!(StableHash::from_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn length_prefix_prevents_concat_collisions() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_32_digits() {
        let h = StableHash::of_str("x").hex();
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
    }

    fn sample_proc() -> Procedure {
        use crate::builder::ProcBuilder;
        use crate::expr::BinOp;
        let mut b = ProcBuilder::new("daxpy", Type::Int);
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
    fn proc_hash_stable_across_clone() {
        let p = sample_proc();
        let q = p.clone();
        assert_eq!(hash_proc(&p), hash_proc(&q));
    }

    #[test]
    fn proc_hash_stable_across_rebuilds() {
        // two independent constructions of the same IL allocate the same
        // arena layout, so their digests agree (the property the cache
        // relies on across runs and across `-j` values)
        assert_eq!(hash_proc(&sample_proc()), hash_proc(&sample_proc()));
    }

    #[test]
    fn proc_hash_sees_node_edits() {
        let p = sample_proc();
        let mut q = p.clone();
        // flip one constant in the expression column
        let slot = q
            .exprs
            .nodes()
            .iter()
            .position(|n| matches!(n, Expr::IntConst(1)))
            .unwrap();
        q.exprs[crate::ids::ExprId(slot as u32)] = Expr::IntConst(2);
        assert_ne!(hash_proc(&p), hash_proc(&q));
        // and one span in the statement column
        let mut r = p.clone();
        r.stmts.spans_mut()[0] = crate::span::SrcSpan::new(99, 1);
        assert_ne!(hash_proc(&p), hash_proc(&r));
    }

    #[test]
    fn proc_hash_ignores_capacity() {
        let p = sample_proc();
        let mut q = p.clone();
        q.exprs.reserve(1024);
        assert_eq!(hash_proc(&p), hash_proc(&q));
    }
}
