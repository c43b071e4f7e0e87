//! Property test: the cache's binary wire codec is a faithful, stable
//! bijection on everything the pipeline can produce.
//!
//! For every file under `corpus/` and 240 progen programs — parsed and
//! fully optimized, whose arenas carry garbage slots, shared subtrees and
//! stamp gaps — `decode(encode(p)) == p`, re-encoding the decoded
//! procedure reproduces the bytes exactly, the decoded procedure passes
//! the IL verifier, and its arena hash is the FNV of its own wire bytes:
//! hashing and encoding are one walker, so they cannot drift.

use titanc::{compile, Options};
use titanc_bench::progen::{self, Rng};
use titanc_il::{decode_proc, encode_proc, hash_proc, verify_proc, Program, StableHasher};

fn assert_roundtrip(program: &Program, what: &str) {
    for p in &program.procs {
        let what = format!("{what}, proc `{}`", p.name);
        let bytes = encode_proc(p);
        let q = decode_proc(&bytes).unwrap_or_else(|e| panic!("{what}: decode failed: {e}"));
        assert_eq!(&q, p, "{what}: decode(encode(p)) != p");
        assert_eq!(q.next_stmt(), p.next_stmt(), "{what}: stamp watermark");
        assert_eq!(encode_proc(&q), bytes, "{what}: re-encoding differs");
        assert_eq!(
            encode_proc(&p.clone()),
            bytes,
            "{what}: a clone encodes differently"
        );
        verify_proc(&q).unwrap_or_else(|e| panic!("{what}: decoded IL rejected: {e:?}"));

        let mut h = StableHasher::new();
        h.write(&bytes);
        assert_eq!(hash_proc(&q), h.finish(), "{what}: hash != FNV(wire bytes)");
        // decoding lands in canonical layout, where the arena hash is a
        // fixed point of the round trip
        let again = decode_proc(&encode_proc(&q)).expect("second trip");
        assert_eq!(hash_proc(&again), hash_proc(&q), "{what}: hash not stable");
        assert_eq!(
            hash_proc(&p.canonical()),
            hash_proc(&q),
            "{what}: canonical hash"
        );
    }
}

/// Every flag set that reaches a distinct statement form: scalar-only,
/// vector, parallel loops, and the §10 spread lists.
fn option_sets() -> Vec<(&'static str, Options)> {
    let mut parallel = Options::o2();
    parallel.parallelize = true;
    parallel.spread_lists = true;
    let mut no_inline = Options::o2();
    no_inline.inline = false;
    vec![
        ("O0", Options::o0()),
        ("O1", Options::o1()),
        ("O2", Options::o2()),
        ("O2 parallel", parallel),
        ("O2 no-inline", no_inline),
    ]
}

#[test]
fn every_corpus_file_round_trips_at_every_level() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("corpus/") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_none_or(|x| x != "c") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("corpus file reads");
        for (level, options) in option_sets() {
            let mut options = options;
            options.keep_parsed = true;
            let compiled = compile(&src, &options)
                .unwrap_or_else(|e| panic!("{} at {level}: {e}", path.display()));
            let what = format!("{} at {level}", path.display());
            assert_roundtrip(compiled.parsed.as_ref().expect("parsed"), &what);
            assert_roundtrip(&compiled.program, &what);
        }
        seen += 1;
    }
    assert!(seen >= 7, "only {seen} corpus files found");
}

#[test]
fn progen_programs_round_trip_after_the_pipeline() {
    let sets = option_sets();
    for seed in 1..=240u64 {
        let src = progen::program(&mut Rng::new(seed));
        // every program at O2 and at one other level, rotating
        for (level, options) in [&sets[2], &sets[seed as usize % sets.len()]] {
            let compiled = compile(&src, options)
                .unwrap_or_else(|e| panic!("seed {seed} at {level}: {e}\n{src}"));
            assert_roundtrip(&compiled.program, &format!("seed {seed} at {level}"));
        }
    }
}
