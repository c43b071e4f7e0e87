//! Wire-decoder robustness fuzzing: the cache hands [`decode_proc`] bytes
//! any process may have damaged (and the envelope checksum only catches
//! damage that happened *after* sealing), so random corruptions of a valid
//! encoding must come back as `Err` or as a `Procedure` the IL verifier
//! can judge — never a panic, and never an allocation beyond a small
//! multiple of the input length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::catch_unwind;

use titanc_il::{
    decode_proc, encode_proc, verify_proc, BinOp, LValue, LabelId, ProcBuilder, Procedure,
    ScalarType, StmtKind, Type,
};

thread_local! {
    /// Bytes this thread has requested from the allocator (never
    /// decremented: the bound is on what a decode *asks for* in total).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition
// is bumping a const-initialized thread-local `Cell`, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size));
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A decode may ask for at most this many bytes per input byte (the
/// widest ratio is a one-byte `Nop` plus its 12-byte span becoming a
/// `StmtKind` and a `SrcSpan` in memory), plus a constant for the
/// procedure shell.
const ALLOC_FACTOR: usize = 16;
const ALLOC_SLACK: usize = 4096;

/// Every statement kind, every expression kind, every lvalue kind.
fn sample_proc() -> Procedure {
    let mut b = ProcBuilder::new("kitchen_sink", Type::Int);
    let n = b.param("n", Type::Int);
    let x = b.param("x", Type::ptr_to(Type::Float));
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
    let mut p = b.finish();

    // the builder covers the common forms; stamp the rest by hand
    let e = &mut p.exprs;
    let base = e.var(x);
    let len = e.int(8);
    let stride = e.int(4);
    let sec = e.section(base, len, stride, ScalarType::Float);
    let (b2, l2, s2) = (e.var(x), e.int(8), e.int(4));
    let two = e.float(2.0);
    let scaled = e.binary(BinOp::Mul, ScalarType::Float, sec, two);
    let addr = e.var(x);
    let ld = e.load(addr, ScalarType::Float);
    let as_int = e.cast(ScalarType::Int, ScalarType::Float, ld);
    let neg = e.unary(titanc_il::UnOp::Neg, ScalarType::Int, as_int);
    let cond = e.var(n);
    let cond2 = e.var(n);
    let cond3 = e.var(n);
    let (plo, phi, pstep) = (e.int(0), e.int(7), e.int(1));
    let arg = e.addr_of(s);
    let dst_addr = e.var(x);
    let vector = p.stamp(StmtKind::Assign {
        lhs: LValue::Section {
            base: b2,
            len: l2,
            stride: s2,
            ty: ScalarType::Float,
        },
        rhs: scaled,
    });
    let store = p.stamp(StmtKind::Assign {
        lhs: LValue::Var(s),
        rhs: neg,
    });
    let label = p.fresh_label();
    let l = p.stamp(StmtKind::Label(label));
    let g = p.stamp(StmtKind::Goto(label));
    let ig = p.stamp(StmtKind::IfGoto {
        cond: cond2,
        target: label,
    });
    let call = p.stamp(StmtKind::Call {
        dst: Some(LValue::deref(dst_addr, ScalarType::Float)),
        callee: "sqrtf".into(),
        args: vec![arg],
    });
    let nop = p.stamp(StmtKind::Nop);
    let par = p.stamp(StmtKind::DoParallel {
        var: i,
        lo: plo,
        hi: phi,
        step: pstep,
        body: vec![vector],
    });
    let spread = p.stamp(StmtKind::WhileSpread {
        cond: cond3,
        parallel: vec![store],
        serial: vec![nop],
    });
    let iff = p.stamp(StmtKind::If {
        cond,
        then_blk: vec![l, ig, call],
        else_blk: vec![g],
    });
    let ret = p.body.pop().expect("the builder's return");
    p.body.extend([par, spread, iff, ret]);
    p.stamp(StmtKind::Return(None)); // an orphan slot: encodes as a Nop
    verify_proc(&p).expect("the sample is valid IL");
    p
}

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Decodes (and, on success, verifies) `bytes` under `catch_unwind`,
/// asserting the allocation bound. Returns whether a verified procedure
/// came out.
fn judge(bytes: &[u8], what: &str) -> bool {
    let outcome = catch_unwind(|| {
        let before = REQUESTED.with(Cell::get);
        let decoded = decode_proc(bytes);
        let asked = REQUESTED.with(Cell::get) - before;
        (decoded.is_ok_and(|p| verify_proc(&p).is_ok()), asked)
    });
    let Ok((accepted, asked)) = outcome else {
        panic!("{what}: decode or verify panicked on {} bytes", bytes.len());
    };
    assert!(
        asked <= ALLOC_FACTOR * bytes.len() + ALLOC_SLACK,
        "{what}: decoding {} bytes asked the allocator for {asked}",
        bytes.len()
    );
    accepted
}

#[test]
fn the_sample_round_trips() {
    let p = sample_proc();
    let bytes = encode_proc(&p);
    let q = decode_proc(&bytes).expect("valid bytes decode");
    assert_eq!(p, q);
    assert_eq!(encode_proc(&q), bytes);
    assert!(judge(&bytes, "pristine"));
}

#[test]
fn byte_mutations_never_panic_or_over_allocate() {
    let base = encode_proc(&sample_proc());
    let mut rng = Rng(0xDEAD_BEEF_0BAD_CAFE);
    let mut rejected = 0usize;
    const CASES: usize = 4000;
    for case in 0..CASES {
        let mut bytes = base.clone();
        for _ in 0..1 + rng.below(3) {
            let pos = rng.below(bytes.len());
            match rng.below(5) {
                // bit flip
                0 => bytes[pos] ^= 1 << rng.below(8),
                // truncation
                1 => bytes.truncate(pos),
                // tag swap: plant another (or a just-out-of-range) tag
                2 => bytes[pos] = rng.below(14) as u8,
                // length inflation: a count or id field becomes huge
                3 => {
                    let huge = [u32::MAX, 1 << 31, 1 << 24, base.len() as u32][rng.below(4)];
                    let end = (pos + 4).min(bytes.len());
                    bytes[pos..end].copy_from_slice(&huge.to_le_bytes()[..end - pos]);
                }
                // insertion (shifts every later field)
                _ => bytes.insert(pos, rng.next() as u8),
            }
            if bytes.is_empty() {
                break;
            }
        }
        if !judge(&bytes, &format!("case {case}")) {
            rejected += 1;
        }
    }
    // the corpus must actually exercise the error paths
    assert!(
        rejected > CASES / 2,
        "only {rejected} of {CASES} mutations rejected"
    );
}

#[test]
fn structural_malformations_are_errors_not_panics() {
    let base = encode_proc(&sample_proc());
    let mut doubled = base.clone();
    doubled.extend_from_slice(&base);
    let mut bad_version = base.clone();
    bad_version[0] ^= 0xFF;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty", Vec::new()),
        ("one byte", vec![1]),
        ("version only", base[..4].to_vec()),
        ("wrong version", bad_version),
        ("half", base[..base.len() / 2].to_vec()),
        ("all but one byte", base[..base.len() - 1].to_vec()),
        ("doubled", doubled),
        ("zeros", vec![0; 4096]),
        ("ones", vec![0xFF; 4096]),
        (
            "pointer chain",
            [&base[..4 + 8 + "kitchen_sink".len()], &[5u8; 1 << 16][..]].concat(),
        ),
    ];
    for (name, bytes) in &cases {
        assert!(decode_proc(bytes).is_err(), "`{name}` unexpectedly decoded");
        assert!(!judge(bytes, name));
    }
}

/// An operand that does not precede its node is how a cycle (or a
/// forward reference into garbage) would be spelled; the decoder
/// rejects it without ever building the graph.
#[test]
fn forward_and_self_references_are_rejected() {
    let mut p = Procedure::new("f", Type::Void);
    let v = p.fresh_temp(Type::Int);
    let one = p.exprs.int(1);
    let sum = p.exprs.ibinary(BinOp::Add, one, one);
    p.push(StmtKind::Assign {
        lhs: LValue::Var(v),
        rhs: sum,
    });
    p.push(StmtKind::Goto(LabelId(0)));
    p.num_labels = 1;
    let bytes = encode_proc(&p);
    // the last node is the Binary: [6, op, ty, lhs u32, rhs u32]
    let rhs_at = bytes.len() - 4;
    for bad in [2u32, 3, u32::MAX] {
        let mut b = bytes.clone();
        b[rhs_at..].copy_from_slice(&bad.to_le_bytes());
        let err = decode_proc(&b).expect_err("forward reference must not decode");
        assert!(err.message.contains("precede"), "{err}");
    }
}
