//! Catalog robustness fuzzing: a catalog file is sealed wire bytes, and
//! every damaged copy of one must surface as an `InvalidData` error (via
//! [`Catalog::from_bytes`] or [`Catalog::load`]) — never a panic.

use std::io::ErrorKind;
use std::panic::catch_unwind;
use titanc_il::wire::{self, seal};
use titanc_il::{
    BinOp, Catalog, LValue, ProcBuilder, Procedure, ScalarType, Type, VarId, CATALOG_FORMAT,
};

fn sample_proc(name: &str) -> Procedure {
    let mut b = ProcBuilder::new(name, Type::Int);
    let n = b.param("n", Type::Int);
    let nv = b.var(n);
    b.ret(Some(nv));
    b.finish()
}

fn sample_catalog() -> Catalog {
    let mut c = Catalog::new("fuzzlib");
    c.add(sample_proc("daxpy"));
    c.add(sample_proc("ddot"));
    c.files.push("fuzzlib.c".into());
    c
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

/// `from_bytes` on `bytes`: `Err` with its message, `Ok` when the bytes
/// load; a panic fails the test with `what`.
fn load(bytes: &[u8], what: &str) -> Result<Catalog, String> {
    match catch_unwind(|| Catalog::from_bytes(bytes)) {
        Ok(Ok(c)) => Ok(c),
        Ok(Err(e)) => {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}");
            Err(e.to_string())
        }
        Err(_) => panic!("Catalog::from_bytes panicked on {what}"),
    }
}

const NOT_A_CATALOG: &str = "not a titanc-catalog-v2 file; re-emit it with --emit-catalog";

/// The envelope guards every byte: each truncation, each seeded byte flip
/// and each inserted byte is refused before the payload is decoded.
#[test]
fn every_damaged_envelope_is_refused() {
    let base = sample_catalog().to_bytes();
    assert_eq!(load(&base, "the original"), Ok(sample_catalog()));
    for cut in 0..base.len() {
        let err = load(&base[..cut], &format!("a cut at {cut}")).unwrap_err();
        assert_eq!(err, NOT_A_CATALOG, "cut at {cut}");
    }
    let mut rng = Rng(0xDEAD_BEEF_0BAD_CAFE);
    for i in 0..500 {
        let mut bytes = base.clone();
        let pos = rng.below(bytes.len());
        if i % 2 == 0 {
            bytes[pos] ^= 1 + rng.below(255) as u8;
        } else {
            bytes.insert(pos, rng.below(256) as u8);
        }
        let err = load(&bytes, &format!("mutant {i} at byte {pos}")).unwrap_err();
        assert_eq!(err, NOT_A_CATALOG, "mutant {i} at byte {pos}");
    }
}

/// Behind a valid envelope the wire reader is the guard: a resealed
/// truncation is always an error, and a resealed byte flip is an error or
/// a catalog whose IL verifies — never a panic.
#[test]
fn resealed_payload_mutations_never_panic() {
    let payload = wire::to_bytes(&sample_catalog());
    for cut in 0..payload.len() {
        let bytes = seal(CATALOG_FORMAT, &payload[..cut]);
        let err = load(&bytes, &format!("a resealed cut at {cut}")).unwrap_err();
        assert!(
            err.starts_with("malformed catalog: "),
            "cut at {cut}: {err}"
        );
    }
    let mut rng = Rng(0x0BAD_F00D_5EED_1234);
    let mut rejected = 0usize;
    for i in 0..500 {
        let mut mutant = payload.clone();
        for _ in 0..1 + rng.below(3) {
            let pos = rng.below(mutant.len());
            mutant[pos] ^= 1 + rng.below(255) as u8;
        }
        if load(
            &seal(CATALOG_FORMAT, &mutant),
            &format!("resealed mutant {i}"),
        )
        .is_err()
        {
            rejected += 1;
        }
    }
    // the corpus must actually exercise the error paths
    assert!(rejected > 250, "only {rejected} of 500 mutants rejected");
}

/// Files that were never catalogs, or were catalogs in another form.
#[test]
fn foreign_files_are_refused_with_the_remedy() {
    let payload = wire::to_bytes(&sample_catalog());
    let good = sample_catalog().to_bytes();
    let header_end = good.iter().position(|&b| b == b'\n').unwrap();
    let cases: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"\n".to_vec(),
        good[..=header_end].to_vec(),
        // a JSON catalog, as `--emit-catalog` once wrote
        br#"{"name":"x","procs":[],"structs":[],"globals":[]}"#.to_vec(),
        // the right payload under the cache's envelope, and under the
        // previous catalog format (an FNV-1a checksum)
        seal("titanc-cache-v7", &payload),
        seal("titanc-catalog-v1", &payload),
        // a header without a digest, and one with a short digest
        [CATALOG_FORMAT.as_bytes(), b"\n", &payload].concat(),
        [CATALOG_FORMAT.as_bytes(), b" 00\n", &payload].concat(),
        payload.clone(),
    ];
    for (i, bytes) in cases.iter().enumerate() {
        let err = load(bytes, &format!("case {i}")).unwrap_err();
        assert_eq!(err, NOT_A_CATALOG, "case {i}");
    }
    // a valid envelope with bytes after the catalog
    let trailing = seal(CATALOG_FORMAT, &[&payload[..], b"x"].concat());
    let err = load(&trailing, "trailing bytes").unwrap_err();
    let at = payload.len();
    assert_eq!(
        err,
        format!("malformed catalog: trailing bytes at byte {at}")
    );
}

#[test]
fn load_reports_malformed_files_as_invalid_data() {
    let dir = std::env::temp_dir().join(format!("titanc-catalog-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let base = sample_catalog().to_bytes();
    let mutants = [
        base[..base.len() / 3].to_vec(),
        b"not a catalog at all".to_vec(),
        br#"{"name":"x","procs":[],"structs":[],"globals":[]}"#.to_vec(),
        seal(CATALOG_FORMAT, &[0xFF; 64]),
    ];
    for (i, bytes) in mutants.iter().enumerate() {
        let path = dir.join(format!("mutant-{i}.cat"));
        std::fs::write(&path, bytes).unwrap();
        let err = Catalog::load(&path).expect_err("malformed catalog must not load");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "case {i}: {err}");
    }

    // and a round-trip still works from the same directory
    let good = dir.join("good.cat");
    sample_catalog().save(&good).unwrap();
    assert_eq!(std::fs::read(&good).unwrap(), base);
    let back = Catalog::load(&good).unwrap();
    assert_eq!(back, sample_catalog());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A well-formed catalog whose IL breaks an invariant the passes and the
/// simulator rely on decodes, so the loader must verify it: each mutant
/// is refused with the violation named, by `from_bytes` and `load` alike.
/// IL the wire reader can already tell is wrong — a variable the
/// procedure does not have — is refused by the reader, named too.
#[test]
fn decodable_but_invalid_catalogs_are_refused() {
    let dangling_goto = {
        let mut b = ProcBuilder::new("dangling_goto", Type::Void);
        let l = b.label_id();
        b.goto(l);
        b.finish()
    };
    let volatile_in_vector = {
        let mut b = ProcBuilder::new("volatile_vector", Type::Void);
        let a = b.temp(Type::ptr_to(Type::Float));
        let addr = b.var(a);
        let base = b.var(a);
        let len = b.int(8);
        let stride = b.int(4);
        let rhs = b.section(base, len, stride, ScalarType::Float);
        let lhs = LValue::Deref {
            addr,
            ty: ScalarType::Float,
            volatile: true,
        };
        b.assign(lhs, rhs);
        b.finish()
    };
    let kind_mismatch = {
        let mut b = ProcBuilder::new("kind_mismatch", Type::Void);
        let f = b.local("f", Type::Float);
        let d = b.double(1.0);
        b.assign_var(f, d);
        b.finish()
    };
    let out_of_range_var = {
        let mut b = ProcBuilder::new("wild_var", Type::Int);
        let n = b.param("n", Type::Int);
        let nv = b.var(n);
        let wild = b.var(VarId::from_index(9));
        let sum = b.ibinary(BinOp::Add, nv, wild);
        b.ret(Some(sum));
        b.finish()
    };
    let dir = std::env::temp_dir().join(format!("titanc-catalog-invalid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        (
            dangling_goto,
            "invalid IL: ",
            "goto targets undefined label",
        ),
        (volatile_in_vector, "invalid IL: ", "volatile"),
        (
            kind_mismatch,
            "invalid IL: ",
            "stores float but value has kind double",
        ),
        (
            out_of_range_var,
            "malformed catalog: ",
            "variable id out of range",
        ),
    ];
    for (proc, stage, violation) in cases {
        let name = proc.name.clone();
        let mut catalog = sample_catalog();
        catalog.add(proc);
        let bytes = catalog.to_bytes();
        let err = load(&bytes, &name).expect_err("invalid IL must not load");
        assert!(
            err.starts_with(stage) && err.contains(violation),
            "{name}: {err}"
        );
        if stage == "invalid IL: " {
            assert!(err.contains(&name), "{name}: {err}");
        }
        let path = dir.join(format!("{name}.cat"));
        catalog.save(&path).unwrap();
        let err = Catalog::load(&path).expect_err("invalid IL must not load");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{name}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
