//! Catalog robustness fuzzing: random corruptions of a valid catalog
//! document must surface as `JsonError` (via [`Catalog::from_json`]) or
//! an `InvalidData` I/O error (via [`Catalog::load`]) — never a panic.

use std::panic::catch_unwind;
use titanc_il::{Catalog, Expr, LValue, ProcBuilder, Procedure, ScalarType, StmtKind, Type, VarId};

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

/// Bytes that stress a JSON decoder: structural characters, quotes,
/// escapes, digits, NUL, and a non-ASCII byte.
const POISON: &[u8] = b"{}[]\",:\\0919ee-+.xnulltrue\0\xff";

#[test]
fn byte_mutations_never_panic() {
    let base = sample_catalog().to_json();
    let mut rng = Rng(0xDEAD_BEEF_0BAD_CAFE);
    let mut rejected = 0usize;
    for _ in 0..500 {
        let mut bytes = base.clone().into_bytes();
        for _ in 0..1 + rng.below(4) {
            let pos = rng.below(bytes.len());
            match rng.below(3) {
                0 => bytes[pos] = POISON[rng.below(POISON.len())],
                1 => {
                    bytes.truncate(pos.max(1));
                }
                _ => bytes.insert(pos, POISON[rng.below(POISON.len())]),
            }
        }
        let doc = String::from_utf8_lossy(&bytes).into_owned();
        let shown: String = doc.chars().take(120).collect();
        let result = catch_unwind(|| Catalog::from_json(&doc).map(|_| ()));
        match result {
            Ok(Ok(())) => {} // mutation happened to stay well-formed
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("Catalog::from_json panicked on: {shown}"),
        }
    }
    // the corpus must actually exercise the error paths
    assert!(rejected > 100, "only {rejected} of 500 mutations rejected");
}

#[test]
fn structural_malformations_are_errors_not_panics() {
    let base = sample_catalog().to_json();
    let cases: Vec<String> = vec![
        String::new(),
        "null".into(),
        "[]".into(),
        "{}".into(),
        "{\"name\": 3}".into(),
        "{\"name\": \"x\"}".into(),
        "{\"name\": \"x\", \"procs\": 7, \"structs\": [], \"globals\": []}".into(),
        "{\"name\": \"x\", \"procs\": [[]], \"structs\": [], \"globals\": []}".into(),
        base.replace("\"procs\"", "\"prosc\""),
        base.replace('[', "{").replace(']', "}"),
        base.chars().take(base.len() / 2).collect(),
        "[".repeat(512),
        format!("{base}{base}"),
        "{\"name\": \"\\ud800\"}".into(),
    ];
    for (i, doc) in cases.iter().enumerate() {
        let result = catch_unwind(|| Catalog::from_json(doc).map(|_| ()));
        match result {
            Ok(Ok(())) => panic!("case {i} unexpectedly parsed"),
            Ok(Err(_)) => {}
            Err(_) => panic!(
                "case {i} panicked: {}",
                doc.chars().take(120).collect::<String>()
            ),
        }
    }
}

#[test]
fn load_reports_malformed_files_as_invalid_data() {
    let dir = std::env::temp_dir().join(format!("titanc-catalog-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let base = sample_catalog().to_json();
    let mutants = [
        base.replace("\"name\"", "\"nope\""),
        base.chars().take(base.len() / 3).collect(),
        "not json at all".to_string(),
        // deeper than the parser recurses: an error, not a stack overflow
        "[".repeat(100_000),
    ];
    for (i, doc) in mutants.iter().enumerate() {
        let path = dir.join(format!("mutant-{i}.json"));
        std::fs::write(&path, doc).unwrap();
        let err = Catalog::load(&path).expect_err("malformed catalog must not load");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "case {i}: {err}"
        );
    }

    // and a round-trip still works from the same directory
    let good = dir.join("good.json");
    sample_catalog().save(&good).unwrap();
    let back = Catalog::load(&good).unwrap();
    assert_eq!(back, sample_catalog());
}

/// A well-formed document whose IL breaks an invariant the passes and the
/// simulator rely on decodes, so the decoder must verify it: each mutant
/// is refused with the violation named, by `from_json` and `load` alike.
#[test]
fn decodable_but_invalid_catalogs_are_refused() {
    let out_of_range_var = {
        let mut p = Procedure::new("wild_var", Type::Void);
        let t = p.fresh_temp(Type::Int);
        let rhs = p.exprs.var(VarId::from_index(9));
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs,
        });
        p
    };
    let dangling_goto = {
        let mut p = Procedure::new("dangling_goto", Type::Void);
        let l = p.fresh_label();
        p.push(StmtKind::Goto(l));
        p
    };
    let volatile_in_vector = {
        let mut p = Procedure::new("volatile_vector", Type::Void);
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
        p
    };
    let dir = std::env::temp_dir().join(format!("titanc-catalog-invalid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        (out_of_range_var, "out of bounds"),
        (dangling_goto, "goto"),
        (volatile_in_vector, "volatile"),
    ];
    for (proc, violation) in cases {
        let name = proc.name.clone();
        let mut catalog = sample_catalog();
        catalog.add(proc);
        let doc = catalog.to_json();
        let err = Catalog::from_json(&doc).expect_err("invalid IL must not decode");
        assert!(
            err.message.contains(&name) && err.message.contains(violation),
            "{name}: {err}"
        );
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, &doc).unwrap();
        let err = Catalog::load(&path).expect_err("invalid IL must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
