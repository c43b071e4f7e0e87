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
//! The algorithm is a dependency-free 128-bit block hash: it absorbs the
//! input 16 bytes at a time as two little-endian `u64` words, XORs them
//! into two lanes and remixes both lanes with folded 64×64→128-bit
//! multiplies. The last, zero-padded block carries the low byte of the
//! input's length in its top byte, so no zero-extension of an input
//! aliases it. Little-endian word loads make it endian-independent, and
//! 128 bits keep accidental collisions between cache keys out of
//! practical reach.
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
//! entry is the digest of the entry's own bytes. [`IL_HASH_VERSION`] leads
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

/// Bytes per absorbed block: two `u64` words.
const BLOCK: usize = 16;
/// Bytes a [`StableHasher`] stages before it absorbs them: the walker
/// writes one- to eight-byte fields, and absorbing each as it comes costs
/// more than the bytes do.
const STAGE: usize = 8 * BLOCK;
/// The lanes' starting values and the per-lane mixing keys: fractional
/// digits of π, constants nobody chose.
const SEED: [u64; 2] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344];
const KEYS: [u64; 4] = [
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6c,
];

/// The 128-bit product of `a` and `b`, its halves XORed together.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Absorbs one 16-byte block into the lanes.
#[inline(always)]
fn absorb(lanes: &mut [u64; 2], block: &[u8]) {
    let word = |i: usize| u64::from_le_bytes(block[i..i + 8].try_into().expect("8 bytes"));
    let (a, b) = (lanes[0] ^ word(0), lanes[1] ^ word(8));
    *lanes = [
        fold_mul(a ^ KEYS[0], b ^ KEYS[1]),
        fold_mul(a ^ KEYS[2], b ^ KEYS[3]),
    ];
}

/// An incremental 128-bit stable hasher. The digest depends only on the
/// bytes written, not on how the writes split them.
#[derive(Clone, Debug)]
pub struct StableHasher {
    lanes: [u64; 2],
    /// Bytes absorbed into `lanes` so far, a whole number of blocks.
    absorbed: u64,
    /// Bytes written but not yet absorbed: `stage[..staged]`.
    stage: [u8; STAGE],
    staged: usize,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher.
    pub fn new() -> StableHasher {
        StableHasher {
            lanes: SEED,
            absorbed: 0,
            stage: [0; STAGE],
            staged: 0,
        }
    }

    /// Feeds bytes into the hash. `#[inline]` because the generic walker
    /// is instantiated in the *calling* crate, where a non-inline call per
    /// one-to-eight-byte field would dominate the sweep: a write that fits
    /// the stage is a copy.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        match self.stage.get_mut(self.staged..self.staged + bytes.len()) {
            Some(room) => {
                room.copy_from_slice(bytes);
                self.staged += bytes.len();
            }
            None => self.absorb_through(bytes),
        }
    }

    /// A write that overflows the stage: fills and absorbs it, absorbs
    /// the whole blocks of `bytes` in place, and stages the rest.
    #[inline(never)]
    fn absorb_through(&mut self, mut bytes: &[u8]) {
        let fill = STAGE - self.staged;
        self.stage[self.staged..].copy_from_slice(&bytes[..fill]);
        bytes = &bytes[fill..];
        for block in self.stage.chunks_exact(BLOCK) {
            absorb(&mut self.lanes, block);
        }
        let blocks = bytes.chunks_exact(BLOCK);
        let rest = blocks.remainder();
        for block in blocks {
            absorb(&mut self.lanes, block);
        }
        self.absorbed += (STAGE + bytes.len() - rest.len()) as u64;
        self.stage[..rest.len()].copy_from_slice(rest);
        self.staged = rest.len();
    }

    /// Feeds a length-prefixed string (see [`ByteSink::write_str`]).
    pub fn write_str(&mut self, s: &str) {
        ByteSink::write_str(self, s);
    }

    /// The digest of every byte written so far. The hasher is left as it
    /// was, so more writes may follow.
    pub fn finish(&self) -> StableHash {
        let mut lanes = self.lanes;
        let staged = &self.stage[..self.staged];
        let blocks = staged.chunks_exact(BLOCK);
        let tail = blocks.remainder();
        for block in blocks {
            absorb(&mut lanes, block);
        }
        // the last block: the tail, zero-padded, and the length's low byte
        let mut last = [0; BLOCK];
        last[..tail.len()].copy_from_slice(tail);
        last[BLOCK - 1] = (self.absorbed + self.staged as u64) as u8;
        absorb(&mut lanes, &last);
        StableHash(u128::from(lanes[1]) << 64 | u128::from(lanes[0]))
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
/// The digest covers the signature, variable table, body ids, both arena
/// columns with spans and the stamp/temp counters, and nothing else (no
/// capacities, no lifetime counters). Equal layouts hash equal; the digest
/// is stable across clones and across runs.
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
            Storage::VReg => 5,
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
        Expr::Keep { reg, section } => {
            h.write(&[9]);
            h.write(&reg.0.to_le_bytes());
            h.write(&section.0.to_le_bytes());
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
    use crate::wire::digest;

    /// `len` bytes of a fixed pattern with a period of 256.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// A xorshift stream: the tests' source of chunk lengths.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn known_vectors() {
        // computed by an independent implementation of the block hash
        let vectors: [(&[u8], &str); 6] = [
            (b"", "1c5762fb1fd9cd02f5aadbaff7ab9b81"),
            (b"a", "aea186b75b31fc54a2bf31dfe02cb2cd"),
            (b"0123456789abcde", "18fe8ce5a82d42e80165f08c2a2b8e53"),
            (b"0123456789abcdef", "f96b8443a026582eb087f7386ec31cda"),
            (b"0123456789abcdefg", "590a53a99a6964b9c4d8e1f256513fbc"),
            (&pattern(1024), "f8d116e5eecf96e171675460b7cfd916"),
        ];
        for (bytes, want) in vectors {
            assert_eq!(digest(bytes).hex(), want, "{} bytes", bytes.len());
        }
    }

    #[test]
    fn digests_do_not_depend_on_how_writes_split_the_bytes() {
        let mut seed = 0x9e37_79b9_7f4a_7c15;
        for len in (0..300).chain([STAGE * 4 - 1, STAGE * 4, 4096 + 5]) {
            let bytes = pattern(len);
            let whole = digest(&bytes);
            for _ in 0..8 {
                let mut h = StableHasher::new();
                let mut rest = &bytes[..];
                while !rest.is_empty() {
                    // mostly walker-sized fields, now and then a long run
                    let cap = if xorshift(&mut seed).is_multiple_of(8) {
                        300
                    } else {
                        9
                    };
                    let n = (xorshift(&mut seed) % cap) as usize;
                    let (chunk, tail) = rest.split_at(n.min(rest.len()));
                    h.write(chunk);
                    rest = tail;
                }
                assert_eq!(h.finish(), whole, "{len} bytes in random chunks");
            }
        }
    }

    #[test]
    fn finish_leaves_the_hasher_writable() {
        let mut h = StableHasher::new();
        h.write(b"dax");
        let _ = h.finish();
        h.write(b"py");
        assert_eq!(h.finish(), digest(b"daxpy"));
    }

    /// Every single-bit flip, every truncation and every zero-extension
    /// (by up to 64 bytes) of `bytes` digests differently from `bytes`
    /// and from every other such variant.
    fn assert_every_small_edit_moves_the_digest(bytes: &[u8]) {
        let mut seen = std::collections::HashMap::new();
        let mut note = |what: String, variant: &[u8]| {
            if let Some(earlier) = seen.insert(digest(variant), what.clone()) {
                panic!("{} bytes: {what} and {earlier} collide", bytes.len());
            }
        };
        note("the original".into(), bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            note(format!("bit {bit} flipped"), &flipped);
        }
        for len in 0..bytes.len() {
            note(format!("truncation to {len}"), &bytes[..len]);
        }
        for zeros in 1..=64 {
            let mut longer = bytes.to_vec();
            longer.resize(bytes.len() + zeros, 0);
            note(format!("{zeros} zero(s) appended"), &longer);
        }
    }

    #[test]
    fn every_bit_flip_truncation_and_zero_extension_moves_the_digest() {
        for len in 0..=64 {
            assert_every_small_edit_moves_the_digest(&pattern(len));
            assert_every_small_edit_moves_the_digest(&vec![0; len]);
        }
        assert_every_small_edit_moves_the_digest(&pattern(4096));
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
