//! The compile server, end to end through the real binaries: `titand`
//! responses must be byte-identical to one-shot `titanc` on the same
//! inputs (stdout exactly; stderr modulo the `titanc: cache:` accounting
//! line, which legitimately reflects cache state), warm repeats must
//! skip the pipeline, and ≥8 concurrent clients over a Unix socket must
//! each see their own one-shot-identical response.
//!
//! The second half drives an in-process [`Server`] one request at a time
//! — so the order is known and its totals can be read between requests —
//! through the resident cache (payloads in memory, then replies): every
//! reply is still compared byte for byte with a store-less one-shot
//! `titanc` run on the same files. The last part feeds a real `titand`
//! the lines that used to kill it.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use titanc::server::{CompileRequest, CompileResponse, Reply, Server, ServerConfig, ServerTotals};
use titanc::SourceFile;
use titanc_il::json::{parse, FromJson, ToJson};

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(files.len() >= 7, "corpus went missing");
    files
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titanc-server-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The CLI flag set the whole file exercises, and its request twin.
const ONE_SHOT_FLAGS: &[&str] = &[
    "--parallel",
    "--spread-lists",
    "--opt-report=json",
    "--stats",
    "--print-il",
];

fn request_for(id: i64, path: &std::path::Path) -> CompileRequest {
    let src = fs::read_to_string(path).unwrap();
    CompileRequest {
        id,
        files: vec![SourceFile::new(path.display().to_string(), src)],
        parallelize: true,
        spread_lists: true,
        print_il: true,
        stats: true,
        opt_report: "json".to_string(),
        ..CompileRequest::default()
    }
}

fn one_shot(path: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_titanc"))
        .args(ONE_SHOT_FLAGS)
        .arg(path)
        .output()
        .unwrap()
}

fn strip_cache_lines(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("titanc: cache:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Runs `titand --stdio --quiet`, feeds it the given request lines plus
/// a shutdown, and returns the responses keyed by request id.
fn serve_stdio(lines: &[String]) -> BTreeMap<i64, CompileResponse> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_titand"))
        .args(["--stdio", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        for line in lines {
            writeln!(stdin, "{line}").unwrap();
        }
        // EOF is a graceful shutdown
    }
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "titand failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut responses = BTreeMap::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let doc = parse(line).unwrap();
        let resp = CompileResponse::from_json(&doc).unwrap();
        responses.insert(resp.id, resp);
    }
    responses
}

#[test]
fn stdio_responses_match_one_shot_titanc_for_every_corpus_file() {
    let files = corpus_files();
    let lines: Vec<String> = files
        .iter()
        .enumerate()
        .map(|(i, f)| request_for(i as i64, f).to_json().to_string_compact())
        .collect();
    let responses = serve_stdio(&lines);
    assert_eq!(responses.len(), files.len());

    for (i, file) in files.iter().enumerate() {
        let resp = &responses[&(i as i64)];
        let reference = one_shot(file);
        assert_eq!(
            resp.exit,
            i64::from(reference.status.code().unwrap()),
            "{}",
            file.display()
        );
        assert_eq!(
            resp.stdout,
            String::from_utf8_lossy(&reference.stdout),
            "stdout diverged for {}",
            file.display()
        );
        assert_eq!(
            strip_cache_lines(&resp.stderr),
            String::from_utf8_lossy(&reference.stderr),
            "stderr diverged for {}",
            file.display()
        );
    }
}

#[test]
fn warm_repeat_skips_the_pipeline_and_stays_byte_identical() {
    let file = &corpus_files()[0];
    let lines = [
        request_for(1, file).to_json().to_string_compact(),
        request_for(2, file).to_json().to_string_compact(),
    ];
    // stdio requests are served concurrently, so the "second" request is
    // not guaranteed to see the first one's published entries — run two
    // daemons over one write-through directory instead, which also
    // proves one-shot/daemon interop on the same cache dir.
    let dir = scratch("warm");
    let dir_arg = dir.join("cache");
    let serve_one = |line: &String| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_titand"))
            .args(["--stdio", "--quiet", "--cache-dir"])
            .arg(&dir_arg)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        writeln!(child.stdin.take().unwrap(), "{line}").unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        let doc = parse(text.lines().next().unwrap()).unwrap();
        CompileResponse::from_json(&doc).unwrap()
    };
    let cold = serve_one(&lines[0]);
    let warm = serve_one(&lines[1]);

    assert_eq!(cold.exit, 0, "{}", cold.stderr);
    assert_eq!(warm.exit, 0, "{}", warm.stderr);
    assert_eq!(cold.stdout, warm.stdout, "warm stdout diverged");
    assert_eq!(
        strip_cache_lines(&cold.stderr),
        strip_cache_lines(&warm.stderr),
        "warm stderr diverged"
    );
    assert!(
        warm.stderr.contains("(fully warm)"),
        "second run did not skip the pipeline:\n{}",
        warm.stderr
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn client_rejects_flags_that_cannot_ride_the_protocol() {
    for flag in [
        &["--run"][..],
        &["--time"][..],
        &["--snapshots"][..],
        &["--cache-dir", "x"][..],
        &["--trace-json", "x"][..],
        &["--emit-catalog", "x"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_titanc"))
            .args(["--server", "/nonexistent.sock"])
            .args(flag)
            .arg("x.c")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "flag {flag:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cannot be combined with --server"),
            "flag {flag:?}"
        );
    }
}

/// Starts `titand --quiet --socket SOCK` with `extra` flags and waits
/// until it has bound the socket.
#[cfg(unix)]
fn socket_daemon(sock: &std::path::Path, extra: &[&str]) -> std::process::Child {
    let daemon = Command::new(env!("CARGO_BIN_EXE_titand"))
        .args(["--quiet", "--socket"])
        .arg(sock)
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(sock.exists(), "titand never bound its socket");
    daemon
}

#[cfg(unix)]
#[test]
fn eight_concurrent_socket_clients_each_match_one_shot() {
    let dir = scratch("socket");
    let sock = dir.join("titand.sock");
    let cache = dir.join("cache");
    let mut daemon = socket_daemon(&sock, &["--cache-dir", cache.to_str().unwrap()]);

    // 8+ concurrent clients: every corpus file once, plus repeats of the
    // first two — distinct and identical requests in flight together
    let files = corpus_files();
    let mut batch: Vec<PathBuf> = files.clone();
    batch.push(files[0].clone());
    batch.push(files[1].clone());
    assert!(batch.len() >= 8);

    let outputs: Vec<(PathBuf, Output)> = std::thread::scope(|s| {
        let handles: Vec<_> = batch
            .iter()
            .map(|f| {
                let sock = &sock;
                s.spawn(move || {
                    let out = Command::new(env!("CARGO_BIN_EXE_titanc"))
                        .args(["--server"])
                        .arg(sock)
                        .args(ONE_SHOT_FLAGS)
                        .arg(f)
                        .output()
                        .unwrap();
                    (f.clone(), out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (file, out) in &outputs {
        let reference = one_shot(file);
        assert_eq!(
            out.status.code(),
            reference.status.code(),
            "{}: {}",
            file.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&reference.stdout),
            "stdout diverged for {}",
            file.display()
        );
        assert_eq!(
            strip_cache_lines(&String::from_utf8_lossy(&out.stderr)),
            String::from_utf8_lossy(&reference.stderr),
            "stderr diverged for {}",
            file.display()
        );
    }

    // a request issued after the batch finished is guaranteed to find
    // the published entries in the resident map
    let warm = Command::new(env!("CARGO_BIN_EXE_titanc"))
        .args(["--server"])
        .arg(&sock)
        .args(ONE_SHOT_FLAGS)
        .arg(&files[0])
        .output()
        .unwrap();
    assert!(
        String::from_utf8_lossy(&warm.stderr).contains("(fully warm)"),
        "post-batch repeat did not skip the pipeline:\n{}",
        String::from_utf8_lossy(&warm.stderr)
    );

    let totals = titanc::server::shutdown_over_unix(&sock).unwrap();
    assert_eq!(totals.requests, batch.len() as i64 + 1);
    assert_eq!(totals.protocol_errors, 0);
    assert!(
        totals.hits > 0,
        "repeat requests should have hit the resident cache: {totals}"
    );
    let status = daemon.wait().unwrap();
    assert!(status.success());
    let _ = fs::remove_dir_all(&dir);
}

/// One lane: the lane that answered a request on one connection takes the
/// shutdown on the next, and must see the stop flag before it blocks in
/// `accept` again. A missed wake-up fails the deadline instead of hanging.
#[cfg(unix)]
#[test]
fn a_one_lane_socket_daemon_answers_then_shuts_down() {
    let dir = scratch("one-lane");
    let sock = dir.join("titand.sock");
    let mut daemon = socket_daemon(&sock, &["-j", "1"]);
    let file = corpus_files().remove(0);
    let client = {
        let (sock, file) = (sock.clone(), file.clone());
        std::thread::spawn(move || {
            let reply = titanc::server::request_over_unix(&sock, &request_for(7, &file)).unwrap();
            (reply, titanc::server::shutdown_over_unix(&sock).unwrap())
        })
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("a one-lane titand did not exit after acknowledging shutdown");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(status.success());
    let (reply, totals) = client.join().unwrap();
    let reference = one_shot(&file);
    assert_eq!(
        (reply.id, Some(reply.exit as i32)),
        (7, reference.status.code())
    );
    assert_eq!(reply.stdout, String::from_utf8_lossy(&reference.stdout));
    assert_eq!(
        strip_cache_lines(&reply.stderr),
        String::from_utf8_lossy(&reference.stderr)
    );
    assert_eq!(totals.requests, 1);
    assert!(!sock.exists(), "the socket file outlived the daemon");
    let _ = fs::remove_dir_all(&dir);
}

/// Two lanes on stdin: the lane that did not read the shutdown must not
/// block in a read once the other lane has it, so the daemon ends on its
/// acknowledgement while stdin stays open — and the request read before
/// the shutdown is still answered.
#[test]
fn a_two_lane_stdio_daemon_ends_on_its_shutdown_ack() {
    let request = CompileRequest {
        id: 5,
        files: vec![SourceFile::new("t.c", "int main(void) { return 0; }\n")],
        ..CompileRequest::default()
    };
    for trial in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_titand"))
            .args(["--stdio", "--quiet", "-j", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        // held until the daemon is gone: EOF must not be what ends it
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "{}", request.to_json().to_string_compact()).unwrap();
        writeln!(stdin, "{{\"shutdown\":true}}").unwrap();
        stdin.flush().unwrap();
        let mut stdout = child.stdout.take().unwrap();
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut stdout, &mut text).unwrap();
            text
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("trial {trial}: titand -j 2 was still up 10 s after its shutdown line");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        drop(stdin);
        assert!(status.success(), "trial {trial}: {status:?}");
        let text = reader.join().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "trial {trial}: {text}");
        let docs: Vec<_> = lines.iter().map(|l| parse(l).unwrap()).collect();
        assert!(
            docs.iter().any(|d| d.get("shutdown").is_some()),
            "trial {trial}: no acknowledgement in {text}"
        );
        assert!(
            docs.iter()
                .any(|d| CompileResponse::from_json(d).is_ok_and(|r| r.id == 5 && r.exit == 0)),
            "trial {trial}: the request went unanswered in {text}"
        );
    }
}

// ---------------------------------------------------------------------
// The resident cache, differentially
// ---------------------------------------------------------------------

/// One kernel file of the nine-file program: a procedure of vectorizable
/// loops over its own globals; `salt` only changes a constant.
fn kernel_file(k: usize, salt: u32) -> SourceFile {
    let src = format!(
        "float a{k}[64], b{k}[64];\n\
         void k{k}(float s) {{\n\
         \x20 int i;\n\
         \x20 for (i = 0; i < 64; i++) a{k}[i] = b{k}[i] * s + {salt}.0f;\n\
         \x20 for (i = 1; i < 64; i++) b{k}[i] = b{k}[i - 1] + a{k}[i];\n\
         }}\n"
    );
    SourceFile::new(format!("mp{k}.c"), src)
}

/// Eight kernel files plus a `main.c` that calls them all (so `main`'s
/// inline cone contains every kernel).
fn nine_files() -> Vec<SourceFile> {
    let mut files: Vec<SourceFile> = (0..8).map(|k| kernel_file(k, 1)).collect();
    let protos: String = (0..8).map(|k| format!("void k{k}(float s);\n")).collect();
    let calls: String = (0..8).map(|k| format!(" k{k}(2.0f);")).collect();
    let main = format!("{protos}int main(void) {{{calls} return 0; }}\n");
    files.push(SourceFile::new("main.c", main));
    files
}

fn request_of(id: i64, files: &[SourceFile]) -> CompileRequest {
    CompileRequest {
        id,
        files: files.to_vec(),
        parallelize: true,
        print_il: true,
        opt_report: "json".to_string(),
        ..CompileRequest::default()
    }
}

/// The command line that asks one-shot `titanc` for what `req` asks the
/// daemon for (file names aside).
fn flags_of(req: &CompileRequest) -> Vec<String> {
    let mut flags = vec![
        format!("-O{}", req.opt),
        "--strip".to_string(),
        req.strip.to_string(),
    ];
    let switches = [
        (req.parallelize, "--parallel"),
        (req.spread_lists, "--spread-lists"),
        (req.fortran_aliasing, "--fortran-aliasing"),
        (!req.inline, "--no-inline"),
        (req.verify, "--verify"),
        (req.strict, "--strict"),
        (req.print_il, "--print-il"),
        (req.stats, "--stats"),
        (
            req.opt_report != "none",
            &*format!("--opt-report={}", req.opt_report),
        ),
    ];
    flags.extend(switches.iter().filter(|s| s.0).map(|s| s.1.to_string()));
    flags
}

/// What store-less one-shot `titanc` prints for `req`'s files and flags
/// (`--max-errors` rides in `extra`): (exit code, stdout, stderr).
fn one_shot_of(req: &CompileRequest, extra: &[&str]) -> (i64, String, String) {
    // tests run in parallel in one process: every call gets its own
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = scratch(&format!(
        "oneshot-{}",
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    for f in &req.files {
        fs::write(dir.join(&f.name), &f.src).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_titanc"))
        .current_dir(&dir)
        .args(flags_of(req))
        .args(extra)
        .args(req.files.iter().map(|f| &f.name))
        .output()
        .unwrap();
    let _ = fs::remove_dir_all(&dir);
    (
        i64::from(out.status.code().unwrap()),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

fn serve(server: &Server, req: &CompileRequest) -> CompileResponse {
    match server.handle_line(&req.to_json().to_string_compact()) {
        Reply::Line(line) => response_of(&line),
        Reply::Shutdown(ack) => panic!("unexpected shutdown ack: {ack}"),
    }
}

/// Serves `req` and requires the reply to be what store-less one-shot
/// `titanc` prints (stderr modulo the cache accounting line).
fn serve_checked(server: &Server, req: &CompileRequest, extra: &[&str]) -> CompileResponse {
    let resp = serve(server, req);
    let (exit, stdout, stderr) = one_shot_of(req, extra);
    assert_eq!(resp.exit, exit, "request {}: {}", req.id, resp.stderr);
    assert_eq!(resp.stdout, stdout, "request {}: stdout diverged", req.id);
    assert_eq!(
        strip_cache_lines(&resp.stderr),
        stderr,
        "request {}: stderr diverged",
        req.id
    );
    resp
}

#[test]
fn edit_and_revert_replay_cached_entries_and_a_repeat_is_a_reply_hit() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let original = nine_files();
    let mut edited = original.clone();
    edited[3] = kernel_file(3, 2);

    // cold: nine procedures compiled, nine entries published
    let cold = serve_checked(&server, &request_of(1, &original), &[]);
    assert!(
        cold.stderr.contains("0 hit(s), 9 miss(es)"),
        "{}",
        cold.stderr
    );

    // mp3.c edited: `k3` and `main` (its cone holds `k3`) recompile, the
    // other seven replay their resident entries
    let warm_edit = serve_checked(&server, &request_of(2, &edited), &[]);
    assert!(
        warm_edit
            .stderr
            .contains("7 hit(s), 2 miss(es), 2 invalidated"),
        "{}",
        warm_edit.stderr
    );

    // reverted: the two entries the edit displaced are still resident
    let reverted = serve_checked(&server, &request_of(3, &original), &[]);
    assert!(
        reverted.stderr.contains("(fully warm)"),
        "{}",
        reverted.stderr
    );
    assert_eq!(reverted.stdout, cold.stdout);

    // and from here on a repeat is one lookup: the fully warm reply was
    // admitted above, so nothing is parsed, hashed or rendered
    let t = server.totals();
    let again = serve_checked(&server, &request_of(4, &original), &[]);
    assert_eq!(reply_delta(&server, &t), HIT);
    assert_eq!(again.stdout, cold.stdout);
    let totals = server.totals();
    assert_eq!((totals.reply_hits, totals.reply_misses), (1, 3));
    assert_eq!(totals.evicted, 0);
    assert_eq!((totals.requests, totals.fully_warm), (4, 2));
}

#[test]
fn one_text_under_two_names_is_diagnosed_under_the_requesters_names() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let text = kernel_file(0, 1).src;
    let pair = |a: &str, b: &str| vec![SourceFile::new(a, &*text), SourceFile::new(b, &*text)];

    // within one request: the second file is the first one's text
    let first = serve_checked(&server, &request_of(1, &pair("a.c", "b.c")), &[]);
    assert!(
        first
            .stderr
            .contains("procedure `k0` in `b.c` is shadowed by the definition in `a.c`"),
        "{}",
        first.stderr
    );

    // across requests, under two more names: nothing the reply says
    // mentions the names the text was first seen under
    let second = serve_checked(&server, &request_of(2, &pair("c.c", "d.c")), &[]);
    assert!(
        second
            .stderr
            .contains("procedure `k0` in `d.c` is shadowed by the definition in `c.c`"),
        "{}",
        second.stderr
    );
    for stream in [&second.stdout, &second.stderr] {
        assert!(
            !stream.contains("a.c") && !stream.contains("b.c"),
            "{stream}"
        );
    }
    assert!(
        second.stdout.contains("c.c"),
        "the opt report names the file"
    );
}

#[test]
fn warnings_and_remarks_replay_byte_identically_on_a_hit() {
    let server = Server::new(&ServerConfig::default()).quiet();
    // the second loop of a kernel file carries a recurrence: the compile
    // succeeds with a remark naming the dependence that defeated it
    let req = request_of(1, &[kernel_file(5, 1)]);
    let cold = serve_checked(&server, &req, &[]);
    assert_eq!(cold.exit, 0);
    assert!(cold.stderr.contains("remark:"), "{}", cold.stderr);
    let warm = serve_checked(&server, &req, &[]);
    assert!(warm.stderr.contains("(fully warm)"), "{}", warm.stderr);
    assert_eq!(warm.stdout, cold.stdout);
    assert_eq!(
        strip_cache_lines(&warm.stderr),
        strip_cache_lines(&cold.stderr)
    );
}

#[test]
fn files_with_errors_are_diagnosed_under_each_requests_error_cap() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let broken = [SourceFile::new(
        "broken.c",
        "int f(void) { return 1 +; }\nint g(void) { return 2 *; }\nint h(void) { int; return }\n",
    )];
    let capped = |id, files: &[SourceFile], max_errors| CompileRequest {
        max_errors,
        ..request_of(id, files)
    };

    // an erroneous file fails the same way every time…
    let many = serve_checked(&server, &capped(1, &broken, 20), &["--max-errors", "20"]);
    let again = serve_checked(&server, &capped(2, &broken, 20), &["--max-errors", "20"]);
    assert_eq!((many.exit, &many.stderr), (1, &again.stderr));
    // …and what a cap of 1 reports is not what a cap of 20 reports
    let one = serve_checked(&server, &capped(3, &broken, 1), &["--max-errors", "1"]);
    assert!(one.stderr.contains("too many errors"), "{}", one.stderr);
    assert_ne!(one.stderr, many.stderr);

    // a clean file compiles to the same bytes under any cap
    let clean = [kernel_file(6, 1)];
    serve_checked(&server, &capped(4, &clean, 1), &["--max-errors", "1"]);
    serve_checked(&server, &capped(5, &clean, 20), &["--max-errors", "20"]);
    serve_checked(&server, &capped(6, &clean, 1), &["--max-errors", "1"]);
}

/// A daemon over a `--cache-dir` that a one-shot process primed and
/// something then damaged: the damaged entry is refused on its read —
/// quarantined, counted, dropped from the resident layer — the reply is
/// still byte-identical, and the recompile heals the directory for both
/// kinds of reader.
#[test]
fn a_quarantined_entry_is_not_resident_and_the_next_request_heals_it() {
    let dir = scratch("typed-quarantine");
    let cache = dir.join("cache");
    let files = nine_files();
    let req = request_of(1, &files);
    // prime through one-shot titanc: the daemon must read its entries
    let src_dir = dir.join("src");
    fs::create_dir_all(&src_dir).unwrap();
    for f in &files {
        fs::write(src_dir.join(&f.name), &f.src).unwrap();
    }
    let one_shot = |what: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_titanc"))
            .current_dir(&src_dir)
            .args([
                "--parallel",
                "--print-il",
                "--opt-report=json",
                "--cache-dir",
            ])
            .arg(&cache)
            .args(files.iter().map(|f| &f.name))
            .output()
            .unwrap();
        assert!(out.status.success(), "{what}");
        String::from_utf8(out.stderr).unwrap()
    };
    assert!(one_shot("prime").contains("0 hit(s), 9 miss(es)"));

    // one bit of one entry flips on disk
    let mut entries: Vec<PathBuf> = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "il"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 9);
    let mut bytes = fs::read(&entries[4]).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    fs::write(&entries[4], bytes).unwrap();

    let server = Server::new(&ServerConfig {
        cache_dir: Some(cache.clone()),
        workers: 1,
    })
    .quiet();
    // the degradation warning is cache state, like the accounting line;
    // everything else is what a store-less one-shot prints
    let served = serve(&server, &req);
    let (exit, stdout, stderr) = one_shot_of(&req, &[]);
    let warning = "warning: 1 corrupt cache file(s) detected (1 quarantined); \
                   the affected procedures were recompiled cold\n";
    assert_eq!((served.exit, &served.stdout), (exit, &stdout));
    assert_eq!(
        strip_cache_lines(&served.stderr),
        format!("{stderr}{warning}")
    );
    let totals = server.totals();
    assert_eq!((totals.corrupt, totals.quarantined), (1, 1));
    assert!(totals.misses >= 1, "the damaged procedure recompiled cold");
    assert_eq!(fs::read_dir(cache.join("quarantine")).unwrap().count(), 1);

    // healed: the daemon answers fully warm, and a one-shot process reads
    // the daemon's recompiled entry
    let healed = serve_checked(&server, &request_of(2, &files), &[]);
    assert!(healed.stderr.contains("(fully warm)"), "{}", healed.stderr);
    assert_eq!(healed.stdout, served.stdout);
    assert_eq!(server.totals().corrupt, 1);
    assert!(one_shot("after healing").contains("9 hit(s), 0 miss(es)"));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The reply memo
// ---------------------------------------------------------------------

/// (reply hits, reply misses) since `before`.
fn reply_delta(server: &Server, before: &ServerTotals) -> (i64, i64) {
    let now = server.totals();
    (
        now.reply_hits - before.reply_hits,
        now.reply_misses - before.reply_misses,
    )
}

/// Serves `req` and returns the raw reply line with what the reply memo
/// counted for it.
fn serve_line(server: &Server, req: &CompileRequest) -> (String, (i64, i64)) {
    let before = server.totals();
    match server.handle_line(&req.to_json().to_string_compact()) {
        Reply::Line(line) => (line, reply_delta(server, &before)),
        Reply::Shutdown(ack) => panic!("unexpected shutdown ack: {ack}"),
    }
}

const HIT: (i64, i64) = (1, 0);
const MISS: (i64, i64) = (0, 1);

/// Cold, then fully warm (executed, and admitted), then answered from the
/// memo — for every combination of output flags. The memoised line is the
/// executed one byte for byte, and both are what one-shot `titanc` and an
/// in-process store-less compile print.
#[test]
fn a_repeated_fully_warm_request_is_a_reply_hit_for_every_output_flag() {
    let files = nine_files();
    let mut id = 0;
    for print_il in [false, true] {
        for stats in [false, true] {
            for opt_report in ["none", "text", "json"] {
                let server = Server::new(&ServerConfig::default()).quiet();
                id += 1;
                let req = CompileRequest {
                    print_il,
                    stats,
                    opt_report: opt_report.to_string(),
                    ..request_of(id, &files)
                };
                let what = format!("print_il={print_il} stats={stats} opt_report={opt_report}");
                let (cold, counted) = serve_line(&server, &req);
                assert_eq!(counted, MISS, "{what}");
                assert!(cold.contains("0 hit(s), 9 miss(es)"), "{what}: {cold}");
                let (warm, counted) = serve_line(&server, &req);
                assert_eq!(counted, MISS, "{what}: a cold reply was admitted");
                let (memoised, counted) = serve_line(&server, &req);
                assert_eq!(counted, HIT, "{what}");
                assert_eq!(memoised, warm, "{what}");

                let resp = serve_checked(&server, &req, &[]);
                assert_eq!(resp.to_json().to_string_compact(), warm, "{what}");
                assert!(resp.stderr.contains("(fully warm)"), "{what}");
                let storeless = titanc::compile_session(&req.files, &req.options(), None);
                let (stdout, stderr, exit) = titanc::server::render(&req, &storeless, false);
                assert_eq!(
                    (resp.exit, &resp.stdout),
                    (i64::from(exit), &stdout),
                    "{what}"
                );
                assert_eq!(strip_cache_lines(&resp.stderr), stderr, "{what}");
                let totals = server.totals();
                assert_eq!((totals.requests, totals.fully_warm), (4, 3), "{what}");
            }
        }
    }
}

#[test]
fn only_id_and_jobs_are_left_out_of_the_reply_key() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let files: Vec<SourceFile> = (0..3).map(|k| kernel_file(k, 1)).collect();
    let base = request_of(1, &files);
    // warm the memo for `req`: cold, then the fully warm execution
    let admit = |req: &CompileRequest, what: &str| {
        assert_eq!(serve_line(&server, req).1, MISS, "{what}");
        assert_eq!(serve_line(&server, req).1, MISS, "{what}");
        assert_eq!(serve_line(&server, req).1, HIT, "{what}");
    };
    admit(&base, "base");
    let reference = serve(&server, &base);

    // `id` and `jobs` change nothing but the echoed id
    for (id, jobs) in [(2, 0), (1, 4), (-7, 1)] {
        let req = CompileRequest {
            id,
            jobs,
            ..base.clone()
        };
        let (line, counted) = serve_line(&server, &req);
        assert_eq!(counted, HIT, "id={id} jobs={jobs}");
        let resp = CompileResponse::from_json(&parse(&line).unwrap()).unwrap();
        assert_eq!(resp.id, id);
        assert_eq!(
            (resp.exit, &resp.stdout, &resp.stderr),
            (0, &reference.stdout, &reference.stderr)
        );
    }

    // every other field is part of the key
    type Edit = fn(&mut CompileRequest);
    let fields: [(&str, Edit); 11] = [
        ("opt", |r| r.opt = 1),
        ("parallelize", |r| r.parallelize = false),
        ("spread_lists", |r| r.spread_lists = true),
        ("fortran_aliasing", |r| r.fortran_aliasing = true),
        ("inline", |r| r.inline = false),
        ("strip", |r| r.strip = 16),
        ("max_errors", |r| r.max_errors = 3),
        ("strict", |r| r.strict = true),
        ("print_il", |r| r.print_il = false),
        ("stats", |r| r.stats = true),
        ("opt_report", |r| r.opt_report = "text".to_string()),
    ];
    for (field, edit) in fields {
        let mut req = base.clone();
        edit(&mut req);
        let extra = ["--max-errors".to_string(), req.max_errors.to_string()];
        let extra: Vec<&str> = extra.iter().map(String::as_str).collect();
        let t = server.totals();
        serve_checked(&server, &req, &extra);
        assert_eq!(reply_delta(&server, &t), MISS, "{field}");
    }

    // so is every byte of every file, the order of the files, and a name
    let mut one_byte = base.clone();
    one_byte.files[1] = kernel_file(1, 2);
    assert_eq!(one_byte.files[1].src.len(), base.files[1].src.len());
    let mut reordered = base.clone();
    reordered.files.swap(0, 2);
    let mut renamed = base.clone();
    renamed.files[2].name = "other.c".to_string();
    for (what, req) in [
        ("one byte", one_byte),
        ("order", reordered),
        ("name", renamed),
    ] {
        let t = server.totals();
        serve_checked(&server, &req, &[]);
        assert_eq!(reply_delta(&server, &t), MISS, "{what}");
    }
    // none of which displaced the original
    assert_eq!(serve_line(&server, &base).1, HIT);
}

/// A field no command line could set is refused `exit: 2`, naming it,
/// before anything compiles: a negative strip length ran zero strip
/// iterations, `opt: 7` compiled as `-O2`, and an unknown report flavor
/// printed none — each with exit 0.
#[test]
fn a_field_no_command_line_could_set_is_refused_exit_two() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let base = request_of(1, &[kernel_file(0, 1)]);
    type Edit = fn(&mut CompileRequest);
    let fields: [(&str, Edit); 4] = [
        ("strip", |r| r.strip = -3),
        ("strip", |r| r.strip = 0),
        ("opt", |r| r.opt = 7),
        ("opt_report", |r| r.opt_report = "yaml".to_string()),
    ];
    for (field, edit) in fields {
        let mut req = base.clone();
        edit(&mut req);
        let resp = serve(&server, &req);
        assert_eq!((resp.id, resp.exit, &*resp.stdout), (1, 2, ""), "{field}");
        assert!(
            resp.stderr
                .starts_with(&format!("titanc: server: `{field}` must be")),
            "{}",
            resp.stderr
        );
    }
    let totals = server.totals();
    assert_eq!((totals.requests, totals.hits, totals.misses), (4, 0, 0));
    serve_checked(&server, &base, &[]);
}

#[test]
fn verify_requests_bypass_the_reply_memo_in_both_directions() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let files = [kernel_file(0, 1), kernel_file(1, 1)];
    let plain = request_of(1, &files);
    let verifying = CompileRequest {
        verify: true,
        ..plain.clone()
    };
    // never admitted: three verifying requests (the last two fully warm)
    // leave nothing for the plain one to hit
    for _ in 0..3 {
        assert_eq!(serve_line(&server, &verifying).1, (0, 0));
    }
    serve_checked(&server, &verifying, &[]);
    assert_eq!(serve_line(&server, &plain).1, MISS);
    assert_eq!(serve_line(&server, &plain).1, HIT);
    // never answered from: the plain reply is resident, the verifier runs
    let t = server.totals();
    let resp = serve_checked(&server, &verifying, &[]);
    assert_eq!(reply_delta(&server, &t), (0, 0), "not looked up");
    assert_eq!(resp.stdout, serve(&server, &plain).stdout);
}

#[test]
fn cold_partially_warm_and_failing_requests_admit_nothing() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let original = nine_files();
    let mut edited = original.clone();
    edited[3] = kernel_file(3, 2);
    // cold: had it been admitted, the repeat would hit (and repeat a
    // `9 miss(es)` accounting line that is no longer true)
    assert_eq!(serve_line(&server, &request_of(1, &original)).1, MISS);
    assert_eq!(serve_line(&server, &request_of(2, &original)).1, MISS);
    // partially warm: seven procedures replay, two recompile
    let (partial, counted) = serve_line(&server, &request_of(3, &edited));
    assert!(partial.contains("7 hit(s), 2 miss(es)"), "{partial}");
    assert_eq!(counted, MISS);
    let (warm, counted) = serve_line(&server, &request_of(4, &edited));
    assert!(warm.contains("(fully warm)"), "{warm}");
    assert_eq!(counted, MISS);
    assert_eq!(serve_line(&server, &request_of(5, &edited)).1, HIT);

    // failing: exit 1 is recomputed every time
    let mut broken = original.clone();
    broken[0].src.push_str("int oops(void) { return 1 +; }\n");
    for id in 6..9 {
        let t = server.totals();
        let resp = serve_checked(&server, &request_of(id, &broken), &[]);
        assert_eq!(resp.exit, 1);
        assert_eq!(reply_delta(&server, &t), MISS);
    }
    // as is a request with nothing to compile
    for id in 9..11 {
        let (line, counted) = serve_line(&server, &request_of(id, &[]));
        assert!(line.contains("request carries no files"), "{line}");
        assert_eq!(counted, MISS);
    }
}

/// Two workers may execute, and admit, one fully warm request at the same
/// moment: both computed the same value, and whoever reads it — then or
/// later — gets the same bytes.
#[test]
fn two_threads_sending_the_same_line_get_the_same_bytes() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let files = nine_files();
    let line = request_of(1, &files).to_json().to_string_compact();
    let reference = serve_checked(&server, &request_of(1, &files), &[]);
    // the cold reply, with the accounting line (its last) of a warm one
    let warm_stats = titanc::SessionStats {
        hits: 9,
        full_warm: true,
        ..titanc::SessionStats::default()
    };
    let warm_line = titanc::server::cache_line(&warm_stats);
    let expect = CompileResponse {
        stderr: format!("{}{warm_line}\n", strip_cache_lines(&reference.stderr)),
        ..reference
    }
    .to_json()
    .to_string_compact();
    // round 0 races two fully warm executions (and two admissions of one
    // key), round 1 two hits
    for round in 0..2 {
        let barrier = Barrier::new(2);
        let replies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        match server.handle_line(&line) {
                            Reply::Line(reply) => reply,
                            Reply::Shutdown(ack) => panic!("unexpected shutdown ack: {ack}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(replies[0], expect, "round {round}");
        assert_eq!(replies[1], expect, "round {round}");
    }
    let totals = server.totals();
    assert_eq!((totals.reply_hits, totals.reply_misses), (2, 3));
}

// ---------------------------------------------------------------------
// Lines that used to take the daemon down
// ---------------------------------------------------------------------

/// Feeds `titand --stdio --quiet -j 1` the given lines (one worker: they
/// are answered in order) and then a shutdown; returns the reply lines
/// and the totals of the acknowledgement. The daemon must exit 0.
fn daemon_session(inject: Option<&str>, lines: &[Vec<u8>]) -> (Vec<String>, ServerTotals) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_titand"));
    command.args(["--stdio", "--quiet", "-j", "1"]);
    if let Some(target) = inject {
        command.env("TITANC_INJECT_PANIC", target);
    }
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn({
        let lines = lines.to_vec();
        move || {
            for line in lines {
                stdin.write_all(&line).unwrap();
                stdin.write_all(b"\n").unwrap();
            }
            stdin.write_all(b"{\"shutdown\":true}\n").unwrap();
        }
    });
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "titand died: {:?}\n{stderr}",
        out.status
    );
    let mut replies: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let ack = parse(&replies.pop().expect("the shutdown ack")).unwrap();
    let totals = ServerTotals::from_json(ack.field("totals").unwrap()).unwrap();
    (replies, totals)
}

fn response_of(line: &str) -> CompileResponse {
    CompileResponse::from_json(&parse(line).unwrap()).unwrap()
}

/// The reply to `req` must be what store-less one-shot `titanc` prints.
fn assert_one_shot(line: &str, req: &CompileRequest) {
    let resp = response_of(line);
    let (exit, stdout, stderr) = one_shot_of(req, &[]);
    assert_eq!((resp.id, resp.exit), (req.id, exit), "{}", resp.stderr);
    assert_eq!(resp.stdout, stdout);
    assert_eq!(strip_cache_lines(&resp.stderr), stderr);
}

#[test]
fn hostile_lines_are_answered_and_the_next_request_is_still_one_shot_identical() {
    let valid = request_of(7, &[kernel_file(0, 1)]);
    let valid_line = valid.to_json().to_string_compact().into_bytes();
    let mut huge = br#"{"id":1,"files":[{"name":"big.c","src":""#.to_vec();
    huge.resize(20 << 20, b'x');
    let lines = [
        // 10 000 unclosed arrays: a stack overflow (exit 134) before the
        // parser counted its depth
        vec![b'['; 10_000],
        valid_line.clone(),
        // 20 MiB without a newline in sight, then 0xFF bytes
        huge,
        b"{\"id\":2,\"files\":\xff\xfe}".to_vec(),
        b"   ".to_vec(),
        valid_line,
    ];
    let (replies, totals) = daemon_session(None, &lines);
    assert_eq!(replies.len(), 5, "the blank line is skipped");
    let deep = response_of(&replies[0]);
    assert_eq!((deep.id, deep.exit), (-1, 2));
    assert!(deep.stderr.contains("nested too deeply"), "{}", deep.stderr);
    for (reply, why) in [
        (&replies[2], "longer than 16 MiB"),
        (&replies[3], "not UTF-8"),
    ] {
        let rejected = response_of(reply);
        assert_eq!((rejected.id, rejected.exit), (-1, 2));
        assert!(rejected.stderr.contains(why), "{}", rejected.stderr);
    }
    assert_one_shot(&replies[1], &valid);
    assert_one_shot(&replies[4], &valid);
    assert_eq!(
        (totals.requests, totals.protocol_errors, totals.rejected),
        (2, 1, 2)
    );
    assert_eq!((totals.contained, totals.fully_warm), (0, 1));
}

#[test]
fn a_panic_outside_a_pass_cell_is_answered_exit_three_and_the_worker_lives() {
    let valid = request_of(1, &[kernel_file(0, 1)]);
    let mut cursed = request_of(2, &[kernel_file(1, 1)]);
    cursed.files[0].name = "boom.c".to_string();
    let lines: Vec<Vec<u8>> = [&valid, &cursed, &cursed, &valid, &valid]
        .iter()
        .map(|r| r.to_json().to_string_compact().into_bytes())
        .collect();
    let (replies, totals) = daemon_session(Some("boom.c"), &lines);
    assert_eq!(replies.len(), 5);
    for reply in &replies[1..3] {
        let contained = response_of(reply);
        assert_eq!((contained.id, contained.exit), (2, 3));
        assert_eq!(contained.stdout, "");
        assert_eq!(
            contained.stderr,
            "titanc: internal error: injected fault in request file `boom.c`\n"
        );
    }
    for reply in [&replies[0], &replies[3], &replies[4]] {
        assert_one_shot(reply, &valid);
    }
    assert_eq!((totals.requests, totals.contained), (5, 2));
    // the degraded reply was never admitted; the healthy one was
    assert_eq!((totals.reply_hits, totals.reply_misses), (1, 4));
}

/// A pass incident (the classic `TITANC_INJECT_PANIC=<procedure>`) leaves
/// a degraded program that is never persisted, so no request over it is
/// fully warm and none is admitted, however often it repeats.
#[test]
fn incident_carrying_requests_admit_nothing() {
    let req = request_of(1, &[kernel_file(0, 1), kernel_file(1, 1)]);
    let line = req.to_json().to_string_compact().into_bytes();
    let (replies, totals) = daemon_session(Some("k1"), &[line.clone(), line.clone(), line]);
    for reply in &replies {
        let resp = response_of(reply);
        assert_eq!(resp.exit, 0);
        assert!(resp.stderr.contains("titanc: warning:"), "{}", resp.stderr);
        assert!(!resp.stderr.contains("(fully warm)"), "{}", resp.stderr);
    }
    assert_eq!((totals.reply_hits, totals.reply_misses), (0, 3));
}
