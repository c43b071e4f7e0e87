//! Request-line robustness fuzzing: `titand` hands [`Server::handle_line`]
//! whatever a client wrote, so seeded mutants of a valid line —
//! truncations, byte flips, duplicated, missing and retyped keys, huge and
//! negative numbers, deep nesting, broken escapes, a 20 MiB source — must
//! each come back as exactly one well-formed response line. Nothing may
//! panic (not even into the per-request containment), the memo layers stay
//! inside their budgets, an over-long line is refused before anything is
//! allocated for it, and a valid request sent afterwards is still
//! byte-identical to one-shot `titanc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::Command;

use titanc::server::{
    CompileRequest, CompileResponse, Reply, Server, ServerConfig, MAX_LINE_BYTES,
};
use titanc::SourceFile;
use titanc_il::json::{parse, FromJson, Json, ToJson, MAX_DEPTH};

thread_local! {
    /// Bytes this thread has requested from the allocator (never
    /// decremented: the bound is on what one call *asks for* in total).
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

/// What the daemon promises to keep resident at most (the two budgets of
/// `store.rs`, summed).
const RESIDENT_BUDGET: i64 = 96 << 20;

const SRC: &str = "float a[64], b[64];\n\
    void scale(float s) { int i; for (i = 0; i < 64; i++) a[i] = b[i] * s; }\n\
    int main(void) { scale(2.0f); return 0; }\n";

fn valid_request(id: i64) -> CompileRequest {
    CompileRequest {
        id,
        files: vec![SourceFile::new("fuzz.c", SRC)],
        print_il: true,
        opt_report: "json".to_string(),
        ..CompileRequest::default()
    }
}

/// xorshift64*: deterministic per seed, no external crates.
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

/// The object's pairs, for mutation.
fn pairs(doc: &mut Json) -> &mut Vec<(String, Json)> {
    match doc {
        Json::Obj(pairs) => pairs,
        other => panic!("a request is an object, not {other:?}"),
    }
}

/// One mutant of the valid line. Every kind keeps the line under the
/// length limit and valid UTF-8 (what the transport guarantees before
/// `handle_line` is called); the limit has a test of its own below.
fn mutant(rng: &mut Rng, valid: &str) -> (&'static str, String) {
    let mut doc = parse(valid).expect("the valid line parses");
    let extremes = [i64::MAX, i64::MIN, -1, 0, 1 << 40];
    match rng.below(9) {
        0 => {
            let cut = rng.below(valid.len());
            ("truncation", valid[..cut].to_string())
        }
        1 => {
            // the line is ASCII, so any byte may become any ASCII byte
            let mut bytes = valid.as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] = rng.below(128) as u8;
            }
            let line = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            ("byte flip", line.replace('\n', " "))
        }
        2 => {
            let fields = pairs(&mut doc);
            let copy = fields[rng.below(fields.len())].clone();
            let at = rng.below(fields.len() + 1);
            fields.insert(at, copy);
            ("duplicated key", doc.to_string_compact())
        }
        3 => {
            let fields = pairs(&mut doc);
            fields.remove(rng.below(fields.len()));
            ("missing key", doc.to_string_compact())
        }
        4 => {
            let value = Json::Int(extremes[rng.below(extremes.len())]);
            let fields = pairs(&mut doc);
            let at = rng.below(fields.len());
            fields[at].1 = value;
            ("retyped or extreme value", doc.to_string_compact())
        }
        5 => {
            // numbers no `i64` holds, and ones only a float does
            let number = [
                "99999999999999999999",
                "-1e999",
                "1e308",
                "0.5",
                "--1",
                "1e",
            ];
            let field = ["opt", "strip", "jobs", "max_errors", "id"][rng.below(5)];
            let value = number[rng.below(number.len())];
            let line = valid.replacen(
                &format!("\"{field}\":"),
                &format!("\"{field}\":{value},\"x\":"),
                1,
            );
            assert_ne!(line, valid);
            ("unrepresentable number", line)
        }
        6 => {
            let depth = [1, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 5000][rng.below(5)];
            let nest = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let fields = pairs(&mut doc);
            let at = rng.below(fields.len());
            fields[at].1 = parse(&nest).unwrap_or(Json::Null);
            let line = doc.to_string_compact();
            // past the cap the document cannot be built: splice the text
            let line = if depth > MAX_DEPTH {
                line.replacen("null", &nest, 1)
            } else {
                line
            };
            ("deep nesting", line)
        }
        7 => {
            let escape = [
                "\\ud800",
                "\\udfff\\ud800",
                "\\u12",
                "\\uzzzz",
                "\\x41",
                "\\",
            ];
            let bad = escape[rng.below(escape.len())];
            let at = valid.find("float").expect("the source is in the line");
            let line = format!("{}{bad}{}", &valid[..at], &valid[at..]);
            ("broken escape", line)
        }
        _ => {
            // well-formed, and not what the server compiles: other flags,
            // a source that does not parse, no files at all
            let mut req = valid_request(rng.below(1000) as i64);
            match rng.below(4) {
                0 => req.files[0].src.truncate(rng.below(SRC.len())),
                1 => req.files.clear(),
                2 => req.opt_report = "yaml".to_string(),
                _ => (req.opt, req.strip, req.verify) = (rng.below(4) as i64 - 1, 0, true),
            }
            ("odd but well-formed", req.to_json().to_string_compact())
        }
    }
}

/// The reply to `line`, required to be one well-formed response line.
fn answer(server: &Server, what: &str, line: &str) -> CompileResponse {
    let reply = match server.handle_line(line) {
        Reply::Line(reply) => reply,
        Reply::Shutdown(ack) => panic!("{what}: a mutant shut the server down: {ack}"),
    };
    assert!(!reply.contains('\n'), "{what}: the reply is one line");
    let resp = parse(&reply)
        .and_then(|doc| CompileResponse::from_json(&doc))
        .unwrap_or_else(|e| panic!("{what}: malformed reply ({e}) to {line}"));
    assert!((0..=3).contains(&resp.exit), "{what}: exit {}", resp.exit);
    resp
}

#[test]
fn mutated_request_lines_are_answered_and_never_panic() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let valid = valid_request(1).to_json().to_string_compact();
    let mut kinds = std::collections::BTreeMap::new();
    for seed in 1..=40u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..12 {
            let (what, line) = mutant(&mut rng, &valid);
            assert!(line.len() <= MAX_LINE_BYTES);
            let resp = answer(&server, what, &line);
            let (exits, total) = kinds.entry(what).or_insert(([0usize; 4], 0usize));
            exits[resp.exit as usize] += 1;
            *total += 1;
        }
        let totals = server.totals();
        assert_eq!(
            totals.contained, 0,
            "seed {seed}: a mutant panicked the executor"
        );
        assert!(totals.resident_bytes <= RESIDENT_BUDGET, "seed {seed}");
    }
    // what the run covered, by exit code: visible with `--nocapture`
    for (what, (exits, total)) in &kinds {
        println!("{what:>26}: {total:3} mutants, exits 0/1/2/3 = {exits:?}");
    }
    assert_eq!(kinds.len(), 9, "every kind of mutant was drawn");
    let totals = server.totals();
    assert!(
        totals.protocol_errors > 0 && totals.requests > 0,
        "{totals}"
    );
    assert_eq!(totals.rejected, 0);

    // and the server is none the worse: one-shot identical, then warm
    let req = valid_request(77);
    let dir = std::env::temp_dir().join(format!("titanc-protocol-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fuzz.c"), SRC).unwrap();
    let one_shot = Command::new(env!("CARGO_BIN_EXE_titanc"))
        .current_dir(&dir)
        .args(["--print-il", "--opt-report=json", "fuzz.c"])
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    for _ in 0..3 {
        let resp = answer(&server, "valid", &req.to_json().to_string_compact());
        assert_eq!(
            (resp.id, Some(resp.exit as i32)),
            (77, one_shot.status.code())
        );
        assert_eq!(resp.stdout.as_bytes(), one_shot.stdout);
        let stderr: String = resp
            .stderr
            .lines()
            .filter(|l| !l.starts_with("titanc: cache:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stderr.as_bytes(), one_shot.stderr);
    }
    assert!(server.totals().reply_hits >= 1, "{}", server.totals());
}

#[test]
fn an_over_long_line_is_refused_before_anything_is_allocated_for_it() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let mut req = valid_request(5);
    req.files[0].src = "x".repeat(20 << 20);
    let line = req.to_json().to_string_compact();
    assert!(line.len() > MAX_LINE_BYTES);
    let before = REQUESTED.with(Cell::get);
    let resp = answer(&server, "20 MiB source", &line);
    let asked = REQUESTED.with(Cell::get) - before;
    assert_eq!((resp.id, resp.exit), (-1, 2));
    assert!(
        resp.stderr.contains("longer than 16 MiB"),
        "{}",
        resp.stderr
    );
    assert!(
        asked < 4096,
        "refusing a {} byte line asked for {asked} bytes",
        line.len()
    );
    // one byte under the limit is a request like any other (and its
    // unparseable source a plain diagnostic)
    let keep = req.files[0].src.len() - (line.len() - MAX_LINE_BYTES);
    req.files[0].src.truncate(keep);
    let line = req.to_json().to_string_compact();
    assert_eq!(line.len(), MAX_LINE_BYTES);
    let resp = answer(&server, "16 MiB line", &line);
    assert_eq!((resp.id, resp.exit), (5, 1));
    let totals = server.totals();
    assert_eq!(
        (totals.rejected, totals.requests, totals.contained),
        (1, 1, 0)
    );
    assert!(totals.resident_bytes <= RESIDENT_BUDGET);
}
