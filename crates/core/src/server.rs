//! The compile server: the protocol, the request executor, and the
//! long-lived serving loops behind `titand` and `titanc --server`.
//!
//! ## Protocol
//!
//! Newline-delimited JSON over stdio or a Unix socket. Each request line
//! is a [`CompileRequest`] object carrying the source files *inline*
//! (name + text — the daemon never touches the client's filesystem) plus
//! the option and output flags the one-shot CLI would have parsed. Each
//! response line is a [`CompileResponse`]: the request id, the exit code
//! the one-shot CLI would have returned, and the exact bytes it would
//! have written to stdout and stderr. A line of `{"shutdown": true}`
//! stops the server; its acknowledgement carries the aggregate
//! [`ServerTotals`].
//!
//! ## Byte identity
//!
//! Server responses must be byte-identical to a one-shot `titanc` run on
//! the same inputs. That contract is kept *by construction*: the CLI
//! driver prints, and [`execute`] wraps, the `(stdout, stderr, exit)`
//! that the one [`render`] function produces — there is no second copy
//! of the output sequence or its formatting to drift. The only
//! legitimate difference is the
//! `titanc: cache:` accounting line, which reflects cache *state* (a
//! long-lived daemon accumulates hits a cold one-shot run cannot see);
//! comparisons strip it.
//!
//! ## Shared cache semantics
//!
//! All requests compile through one [`ResidentCache`]: two keyed memos of
//! bytes, each under a fixed byte budget — the unsealed payload of every
//! cache file the daemon published or read, and finished replies. A
//! request that executes loads the cache exactly as one-shot `titanc`
//! does (see [`crate::session`] § Resident sessions): it parses every
//! file and decodes and verifies every entry it replays, reading the
//! payloads from memory instead of disk. A repeated fully warm request is
//! one lookup (§ Memoised replies below). The layer writes through to the
//! daemon's `--cache-dir` (when it has one), so one-shot
//! `titanc --cache-dir` invocations and the daemon interoperate on the
//! same directory. Both transports run on the crate's one worker pool,
//! the one the pass chain fans procedures across: the daemon's `-j` lanes
//! each pull the next line (stdio) or connection (socket) only once they
//! are free, the thread that called the transport being lane 0, and each
//! request's pipeline has its own `-j`. Analysis caches stay per-request
//! — they are keyed by in-memory generation counters that restart with
//! every compilation — but a warm request skips the pipeline (and with it
//! all analyses) outright.
//!
//! ## Memoised replies and containment
//!
//! A fully warm reply is a pure function of the request line minus `id`
//! and `jobs`, so [`Server::handle_line`] keeps it under a [`ReplyKey`],
//! in memory only. It is admitted only from an execution that exited 0
//! fully warm with no incident and no store degradation — the one state
//! whose `titanc: cache:` line every later execution would repeat — and a
//! hit is confirmed by comparing the source texts; `verify: true` bypasses
//! the layer both ways. A request whose fields no command line could
//! produce ([`CompileRequest::check`]) is refused `exit: 2` unexecuted,
//! as the CLI refuses the flag. No line takes the daemon down: one over
//! [`MAX_LINE_BYTES`] or not UTF-8 is never buffered or parsed (`exit: 2`,
//! `rejected`), a panic outside a pass cell is answered `exit: 3`
//! (`contained`). See `docs/architecture.md` § The compile server.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::pass::{contain, panic_message};
use crate::session::{compile_session_resident, SessionCompilation, SourceFile};
use crate::store::ResidentCache;
use crate::trace::OptReport;
use crate::{Compilation, CompileError, Count, Options, Pipeline, Report, SessionStats};
use titanc_il::json::{parse, FromJson, Json, ToJson};
use titanc_il::{wire, StableHash};

/// Exit code for "a contained pass incident was reported and `--strict`
/// was given" — shared by the CLI and the server executor.
pub const EXIT_INCIDENT: u8 = 3;

/// The longest request line the server reads (the nine-file `mp9` line is
/// 27 KB). A longer one is discarded through its newline unbuffered and
/// answered with an `exit: 2` protocol error.
pub const MAX_LINE_BYTES: usize = 16 << 20;
const TOO_LONG: &str = "longer than 16 MiB";

// ---------------------------------------------------------------------
// Protocol types
// ---------------------------------------------------------------------

/// One compile request: inline sources plus the CLI flags the server
/// supports. Flags that only make sense against the client's local
/// filesystem or terminal (`--run`, `--trace-json`, `--emit-catalog`,
/// `--catalog`, `--snapshots`, `--time`) are rejected client-side.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Client-chosen tag echoed on the response and in the daemon's
    /// per-request accounting log line.
    pub id: i64,
    /// The translation units, carried inline.
    pub files: Vec<SourceFile>,
    /// Optimization level: 0, 1 or 2.
    pub opt: i64,
    /// `--parallel`.
    pub parallelize: bool,
    /// `--spread-lists`.
    pub spread_lists: bool,
    /// `--fortran-aliasing`.
    pub fortran_aliasing: bool,
    /// Inline expansion (§7); `false` for `--no-inline` / `-O0` / `-O1`.
    pub inline: bool,
    /// `--strip N`: at least 1.
    pub strip: i64,
    /// `-j N` for the *per-request* pipeline. `0` resolves to 1 on the
    /// server: concurrent requests already saturate the daemon's pool,
    /// and output is byte-identical for every worker count.
    pub jobs: i64,
    /// `--verify`.
    pub verify: bool,
    /// `--max-errors N` (0 = no cap).
    pub max_errors: i64,
    /// `--strict`.
    pub strict: bool,
    /// `--print-il`.
    pub print_il: bool,
    /// `--stats`.
    pub stats: bool,
    /// `--opt-report` flavor: `"none"`, `"text"` or `"json"`.
    pub opt_report: String,
}

titanc_il::struct_json!(
    CompileRequest,
    [
        id,
        files,
        opt,
        parallelize,
        spread_lists,
        fortran_aliasing,
        inline,
        strip,
        jobs,
        verify,
        max_errors,
        strict,
        print_il,
        stats,
        opt_report
    ]
);

impl Default for CompileRequest {
    fn default() -> CompileRequest {
        let o = Options::o2();
        CompileRequest {
            id: 0,
            files: Vec::new(),
            opt: 2,
            parallelize: false,
            spread_lists: false,
            fortran_aliasing: false,
            inline: true,
            strip: o.strip,
            jobs: 0,
            verify: false,
            max_errors: o.max_errors as i64,
            strict: false,
            print_il: false,
            stats: false,
            opt_report: "none".to_string(),
        }
    }
}

impl CompileRequest {
    /// Refuses a field no command line could set, naming it: an `opt`
    /// level other than 0, 1 or 2, a `strip` length below 1 (a strip loop
    /// that steps by zero or backwards), an `opt_report` flavor other than
    /// `"none"`, `"text"` or `"json"`. `titanc` makes the message a usage
    /// error (exit 2), as does the server's [`execute`].
    ///
    /// # Errors
    ///
    /// The first bad field, as a message.
    pub fn check(&self) -> Result<(), String> {
        if !(0..=2).contains(&self.opt) {
            return Err(format!("`opt` must be 0, 1 or 2, not {}", self.opt));
        }
        if self.strip < 1 {
            return Err(format!("`strip` must be at least 1, not {}", self.strip));
        }
        if !["none", "text", "json"].contains(&self.opt_report.as_str()) {
            return Err(format!(
                "`opt_report` must be \"none\", \"text\" or \"json\", not {:?}",
                self.opt_report
            ));
        }
        Ok(())
    }

    /// The [`Options`] this request describes. `jobs == 0` maps to one
    /// pipeline worker (see the field docs).
    pub fn options(&self) -> Options {
        let mut o = match self.opt {
            0 => Options::o0(),
            1 => Options::o1(),
            _ => Options::o2(),
        };
        o.inline = self.inline && self.opt >= 2;
        o.parallelize = self.parallelize;
        o.spread_lists = self.spread_lists;
        if self.fortran_aliasing {
            o.aliasing = crate::Aliasing::Fortran;
        }
        o.strip = self.strip;
        o.jobs = if self.jobs <= 0 {
            1
        } else {
            self.jobs as usize
        };
        o.verify = self.verify;
        o.max_errors = self.max_errors.max(0) as usize;
        o
    }
}

/// One compile response: the one-shot CLI's exit code and its exact
/// stdout/stderr bytes, tagged with the request id.
#[derive(Clone, Debug, Default)]
pub struct CompileResponse {
    /// Echo of [`CompileRequest::id`] (`-1` when the request line was
    /// unparseable).
    pub id: i64,
    /// The exit code one-shot `titanc` would have returned: `0` success,
    /// `1` diagnostics, `2` bad request, `3` `--strict` incident.
    pub exit: i64,
    /// Exactly what the one-shot CLI writes to stdout.
    pub stdout: String,
    /// Exactly what the one-shot CLI writes to stderr (including the
    /// `titanc: cache:` accounting line).
    pub stderr: String,
}

titanc_il::struct_json!(CompileResponse, [id, exit, stdout, stderr]);

/// Declares [`ServerTotals`] — the struct, its wire form, its
/// field-by-field sum, its `name=value` log line and the fold of one
/// request's [`SessionStats`] into it (`total = counter` names the
/// counter a field sums) — from one list of the (all `i64`) fields.
macro_rules! server_totals {
    ($($(#[$doc:meta])* $field:ident $(= $counter:ident)?),+ $(,)?) => {
        /// Aggregate accounting across every request a server instance
        /// handled; returned on the shutdown acknowledgement and logged by
        /// `titand` at exit.
        #[derive(Clone, Debug, Default)]
        pub struct ServerTotals {
            $($(#[$doc])* pub $field: i64,)+
        }

        titanc_il::struct_json!(ServerTotals, [$($field),+]);

        impl ServerTotals {
            /// Adds another instance's counters into this one (the stress
            /// harness aggregates totals across many short-lived servers).
            pub fn merge(&mut self, other: &ServerTotals) {
                $(self.$field += other.$field;)+
            }

            fn fold(&mut self, stats: &SessionStats) {
                $($(self.$field += stats.$counter as i64;)?)+
            }
        }

        impl std::fmt::Display for ServerTotals {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let words = [$(format!("{}={}", stringify!($field), self.$field)),+];
                f.write_str(&words.join(" "))
            }
        }
    };
}

server_totals! {
    /// Compile requests executed (including ones that failed with
    /// diagnostics).
    requests,
    /// Lines that were not valid requests.
    protocol_errors,
    /// Requests whose whole pipeline was skipped via the session
    /// manifest.
    fully_warm = full_warm,
    /// Summed [`SessionStats::hits`].
    hits = hits,
    /// Summed [`SessionStats::misses`].
    misses = misses,
    /// Summed [`SessionStats::invalidated`].
    invalidated = invalidated,
    /// Summed [`SessionStats::passes_executed`].
    passes_executed = passes_executed,
    /// Summed [`SessionStats::corrupt`].
    corrupt = corrupt,
    /// Summed [`SessionStats::quarantined`].
    quarantined = quarantined,
    /// Summed [`SessionStats::write_failed`].
    write_failed = write_failed,
    /// Memoised values dropped to stay inside the byte budgets, both
    /// layers.
    evicted,
    /// Requests answered from the reply memo without executing.
    reply_hits,
    /// Requests that looked the reply memo up and executed (`verify`
    /// requests never look).
    reply_misses,
    /// Bytes the two memo layers weigh at the time of the snapshot.
    resident_bytes,
    /// Lines refused unparsed: over [`MAX_LINE_BYTES`], or not UTF-8.
    rejected,
    /// Requests whose execution panicked and was answered `exit: 3`.
    contained,
    /// Replies the client never received: writing them failed, as it
    /// does once the client has closed its end.
    disconnects,
}

// ---------------------------------------------------------------------
// Shared output rendering (the byte-identity functions)
// ---------------------------------------------------------------------

/// The `titanc: cache:` accounting line (no trailing newline); CI's
/// cache-smoke job parses this exact shape. Nothing is ever contended —
/// the cache takes no lock — so that count is a literal 0, kept only for
/// the shape.
pub fn cache_line(stats: &SessionStats) -> String {
    format!(
        "titanc: cache: {} hit(s), {} miss(es), {} invalidated; {} pass execution(s){}; \
         {} corrupt, {} quarantined, 0 lock-contended, {} write-failed",
        stats.hits,
        stats.misses,
        stats.invalidated,
        stats.passes_executed,
        if stats.full_warm { " (fully warm)" } else { "" },
        stats.corrupt,
        stats.quarantined,
        stats.write_failed,
    )
}

/// The `--print-il` block: every procedure pretty-printed.
pub fn il_block(program: &titanc_il::Program) -> String {
    let mut out = String::new();
    write_il(&mut out, program);
    out
}

fn write_il(out: &mut String, program: &titanc_il::Program) {
    for p in &program.procs {
        titanc_il::pretty_proc_into(out, p);
        out.push('\n');
    }
}

/// The `--stats` block.
fn stats_block(r: &Report) -> String {
    format!(
        "inline:     {sites} sites ({recur} recursive skipped, {growth} growth-budget skipped)\n\
         while->DO:  {converted} converted, {rejected} rejected\n\
         ivsub:      {ivs} variables, {passes} passes, {backtracks} backtracks\n\
         forward:    {forward} substitutions\n\
         constprop:  {replaced} replaced, {cp_removed} removed, {rounds} rounds\n\
         dce:        {dce_removed} removed\n\
         vectorizer: {vectorized} vectorized, {spread} spread, {scalar} scalar\n\
         strength:   {promoted} promoted, {reduced} reduced, {hoisted} hoisted\n",
        sites = r.count("expanded"),
        recur = r.count("skipped_recursive"),
        growth = r.count("skipped_growth"),
        converted = r.count("do_converted"),
        rejected = r.count("do_rejected"),
        ivs = titanc_il::LoopDecision::ivs_substituted(&r.loops),
        passes = r.get(Count::IvsubPasses),
        backtracks = r.get(Count::IvsubBacktracks),
        forward = r.get(Count::ForwardSubstituted),
        replaced = r.get(Count::ConstpropReplaced),
        cp_removed = r.get(Count::ConstpropRemoved),
        rounds = r.get(Count::ConstpropRounds),
        dce_removed = r.get(Count::DceRemoved),
        vectorized = r.count("vectorized"),
        spread = r.count("parallelized"),
        scalar = r.notes.len(),
        promoted = r.get(Count::StrengthPromoted),
        reduced = r.get(Count::StrengthReduced),
        hoisted = r.get(Count::StrengthHoisted),
    )
}

/// The `--opt-report` block (text or JSON flavor).
pub fn opt_report_block(compiled: &Compilation, json: bool) -> String {
    let report = OptReport::build_for(&compiled.reports, &compiled.trace, &compiled.program.files);
    if json {
        report.render_json() + "\n"
    } else {
        report.render()
    }
}

/// The pipeline the CLI and the server both compile with:
/// [`Pipeline::for_options`] plus the `TITANC_INJECT_PANIC` test hook (a
/// pass that panics on the named procedure, used by the exit-code
/// integration tests to exercise fail-soft containment end to end).
pub fn base_pipeline(options: &Options) -> Pipeline {
    let mut pipeline = Pipeline::for_options(options);
    if let Ok(target) = std::env::var("TITANC_INJECT_PANIC") {
        pipeline.push_proc(InjectPanic { target });
    }
    pipeline
}

struct InjectPanic {
    target: String,
}

impl crate::ProcPass for InjectPanic {
    fn name(&self) -> &'static str {
        "inject-panic"
    }

    fn run_on(
        &self,
        proc: &mut titanc_il::Procedure,
        _cx: &crate::PassContext<'_>,
        _analyses: &mut crate::ProcAnalyses,
        _delta: &mut Report,
    ) {
        assert!(
            proc.name != self.target,
            "injected fault in `{}`",
            proc.name
        );
    }
}

// ---------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------

/// A finished request: the wire response plus the session stats the
/// server folds into its totals (absent for front-end failures).
#[derive(Debug)]
pub struct Executed {
    /// The wire response.
    pub response: CompileResponse,
    /// Cache accounting for successful compiles.
    pub stats: Option<SessionStats>,
    /// Pass incidents the compile contained (its program shipped degraded).
    pub incidents: usize,
}

impl Executed {
    /// A request that compiled nothing: a bad one, or a contained panic.
    fn refused(id: i64, exit: i64, stderr: String) -> Executed {
        let response = CompileResponse {
            id,
            exit,
            stderr,
            ..CompileResponse::default()
        };
        Executed {
            response,
            stats: None,
            incidents: 0,
        }
    }
}

/// Renders a finished compile as `(stdout, stderr, exit)` — the one
/// output sequence behind both one-shot `titanc`, which prints it, and
/// [`execute`], which wraps it in a response. `req` supplies the file
/// names and the output flags (`--strict`, `--print-il`, `--stats`,
/// `--opt-report`); `cache` asks for the `titanc: cache:` accounting line
/// (one-shot runs print it only under `--cache-dir`).
pub fn render(
    req: &CompileRequest,
    result: &Result<SessionCompilation, CompileError>,
    cache: bool,
) -> (String, String, u8) {
    let mut out = String::new();
    let mut err = String::new();
    // single-file invocations keep the classic `file:line:col: message`
    // shape; multi-file sessions already carry the file name inside the
    // message
    let prefix = match req.files.as_slice() {
        [file] => format!("{}:", file.name),
        _ => String::new(),
    };
    let diagnostics = match result {
        Ok(sc) => &sc.compilation.diagnostics,
        Err(e) => &e.diagnostics,
    };
    // on failure, every independent mistake the recovering front end
    // collected, in source order; on success, warnings and remarks (loops
    // left scalar and the defeating dependence, exhausted budgets)
    for d in diagnostics {
        let _ = writeln!(err, "{prefix}{d}");
    }
    let Ok(sc) = result else {
        return (out, err, 1);
    };
    let compiled = &sc.compilation;
    if cache {
        let _ = writeln!(err, "{}", cache_line(&sc.stats));
    }
    // contained faults: the affected procedures were rolled back to their
    // last-verified IL and shipped unoptimized
    let incidents = &compiled.trace.incidents;
    for incident in incidents {
        let _ = writeln!(err, "titanc: warning: {incident}");
    }
    if req.strict && !incidents.is_empty() {
        let _ = writeln!(
            err,
            "titanc: {} pass incident(s) contained; failing because of --strict",
            incidents.len()
        );
        return (out, err, EXIT_INCIDENT);
    }
    // present only under `--snapshots`
    for snap in &compiled.snapshots {
        let _ = writeln!(
            out,
            "===== {} after {} =====\n{}",
            snap.proc, snap.phase, snap.il
        );
    }
    if req.print_il {
        write_il(&mut out, &compiled.program);
    }
    if req.stats {
        out.push_str(&stats_block(&compiled.reports));
    }
    match req.opt_report.as_str() {
        "text" => out.push_str(&opt_report_block(compiled, false)),
        "json" => out.push_str(&opt_report_block(compiled, true)),
        _ => {}
    }
    (out, err, 0)
}

/// Executes one request against the shared resident cache; the response
/// carries exactly what one-shot `titanc` would have printed, because
/// both go through [`render`].
pub fn execute(req: &CompileRequest, resident: &ResidentCache) -> Executed {
    if req.files.is_empty() {
        let stderr = "titanc: server: request carries no files\n".to_string();
        return Executed::refused(req.id, 2, stderr);
    }
    if let Err(why) = req.check() {
        return Executed::refused(req.id, 2, format!("titanc: server: {why}\n"));
    }
    // the `TITANC_INJECT_PANIC` hook, outside any pass cell: naming one of
    // the request's *files* faults the request itself
    if let Ok(target) = std::env::var("TITANC_INJECT_PANIC") {
        assert!(
            req.files.iter().all(|f| f.name != target),
            "injected fault in request file `{target}`"
        );
    }
    let options = req.options();
    let pipeline = base_pipeline(&options);
    let result = compile_session_resident(&req.files, &options, pipeline, resident);
    let (stdout, stderr, exit) = render(req, &result, true);
    Executed {
        response: CompileResponse {
            id: req.id,
            exit: i64::from(exit),
            stdout,
            stderr,
        },
        incidents: result
            .as_ref()
            .map_or(0, |sc| sc.compilation.trace.incidents.len()),
        stats: result.ok().map(|sc| sc.stats),
    }
}

/// What a fully warm reply is a function of: each file's name and the
/// [`wire::digest`] of its text, in order, and (serialized) every other
/// [`CompileRequest`] field but `id` and `jobs`.
pub(crate) type ReplyKey = (Vec<(String, StableHash)>, String);

/// `None` for a request the reply memo stays out of: `verify` asks for the
/// verifier to run.
fn reply_key(req: &CompileRequest) -> Option<ReplyKey> {
    // the rest are `Copy`: a new field joins the key, or fails to build here
    let flags = CompileRequest {
        id: 0,
        jobs: 0,
        files: Vec::new(),
        opt_report: req.opt_report.clone(),
        ..*req
    };
    let digest = |f: &SourceFile| (f.name.clone(), wire::digest(f.src.as_bytes()));
    let files = req.files.iter().map(digest).collect();
    (!req.verify).then(|| (files, flags.to_json().to_string_compact()))
}

/// One memoised reply: what [`execute`] answered when it was admitted.
pub(crate) struct MemoReply {
    /// The response line after `{"id":N,` — exit, stdout and stderr,
    /// serialized and escaped once.
    tail: String,
    /// What the admitting execution told the totals.
    stats: SessionStats,
    /// The files the key's digests stand for; a hit compares the texts.
    files: Vec<SourceFile>,
}

impl MemoReply {
    /// What the reply memo charges (names twice: the key holds a copy).
    pub(crate) fn weight(&self) -> usize {
        let file = |f: &SourceFile| size_of::<SourceFile>() + 2 * f.name.len() + f.src.len();
        self.tail.len() + self.files.iter().map(file).sum::<usize>()
    }
}

/// The start of a response line, up to where a memoised tail continues.
fn reply_head(id: i64) -> String {
    format!("{{\"id\":{id},")
}

// ---------------------------------------------------------------------
// The server engine
// ---------------------------------------------------------------------

/// Server configuration: the write-through cache directory (optional —
/// without one the cache lives purely in memory) and the request worker
/// pool size (`0` = available parallelism).
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// `--cache-dir`: write-through backing directory shared with
    /// one-shot `titanc` invocations.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Concurrent request workers (`-j`; `0` = available parallelism).
    pub workers: usize,
}

/// The reply to one protocol line.
#[derive(Debug)]
pub enum Reply {
    /// A serialized [`CompileResponse`] line.
    Line(String),
    /// The serialized shutdown acknowledgement (carrying
    /// [`ServerTotals`]); the server stops accepting after sending it.
    Shutdown(String),
}

/// A long-lived compile server: one shared [`ResidentCache`], a lane count
/// for its transports, and aggregate accounting. Drive it with [`serve_stdio`]
/// (newline-delimited JSON on stdin/stdout) or [`serve_listener`] (a Unix
/// domain socket bound with [`bind_unix`]), or feed it lines directly
/// with [`handle_line`] for in-process use (tests, benches).
///
/// [`serve_stdio`]: Server::serve_stdio
/// [`serve_listener`]: Server::serve_listener
/// [`handle_line`]: Server::handle_line
pub struct Server {
    resident: ResidentCache,
    totals: Mutex<ServerTotals>,
    workers: usize,
    quiet: bool,
}

impl Server {
    /// Builds a server over a fresh resident cache (seeded lazily from
    /// `config.cache_dir` as entries are first read).
    pub fn new(config: &ServerConfig) -> Server {
        Server {
            resident: ResidentCache::new(config.cache_dir.as_deref()),
            totals: Mutex::new(ServerTotals::default()),
            workers: crate::pool::lanes(config.workers),
            quiet: false,
        }
    }

    /// Suppresses the per-request accounting log lines on stderr
    /// (benches and tests drive thousands of requests).
    pub fn quiet(mut self) -> Server {
        self.quiet = true;
        self
    }

    /// The shared resident cache (tests publish through it).
    pub fn resident(&self) -> &ResidentCache {
        &self.resident
    }

    /// A snapshot of the aggregate accounting: the per-request sums plus
    /// what the resident memos have counted since the server started.
    pub fn totals(&self) -> ServerTotals {
        let mut totals = self.totals.lock().unwrap().clone();
        let [raw, replies] = self.resident.memos().counts();
        totals.evicted = (raw.evicted + replies.evicted) as i64;
        totals.reply_hits = replies.hits as i64;
        totals.reply_misses = replies.misses as i64;
        totals.resident_bytes = (raw.resident_bytes + replies.resident_bytes) as i64;
        totals
    }

    /// Handles one protocol line: parse, look the reply up or execute,
    /// account, serialize. Over-long and unparseable lines get an
    /// `exit: 2` response rather than killing the connection; a panicking
    /// execution an `exit: 3` one.
    pub fn handle_line(&self, line: &str) -> Reply {
        self.answer(self.parse_line(line))
    }

    /// The first half of [`handle_line`](Server::handle_line): the parsed
    /// line, or the reply to one that is too long or does not parse.
    fn parse_line(&self, line: &str) -> Result<Json, Reply> {
        if line.len() > MAX_LINE_BYTES {
            return Err(self.reject(TOO_LONG));
        }
        parse(line).map_err(|e| {
            self.totals.lock().unwrap().protocol_errors += 1;
            Reply::Line(protocol_error(-1, &format!("bad request line: {e}")))
        })
    }

    /// The second half of [`handle_line`](Server::handle_line): the reply
    /// a refused line already has, the shutdown acknowledgement, or the
    /// reply to a request.
    fn answer(&self, parsed: Result<Json, Reply>) -> Reply {
        let doc = match parsed {
            Ok(doc) => doc,
            Err(reply) => return reply,
        };
        if is_shutdown(&doc) {
            let ack = Json::obj(vec![
                ("shutdown", Json::Bool(true)),
                ("totals", self.totals().to_json()),
            ]);
            return Reply::Shutdown(ack.to_string_compact());
        }
        let req = match CompileRequest::from_json(&doc) {
            Ok(req) => req,
            Err(e) => {
                self.totals.lock().unwrap().protocol_errors += 1;
                let id = doc.get("id").and_then(|v| v.as_i64().ok()).unwrap_or(-1);
                return Reply::Line(protocol_error(id, &format!("bad request: {e}")));
            }
        };
        let (id, files) = (req.id, req.files.len());
        let replies = &self.resident.memos().replies;
        let key = reply_key(&req);
        let hit = key
            .as_ref()
            .and_then(|key| replies.get(key, |reply| reply.files == req.files));
        let (line, exit, stats) = match &hit {
            Some(reply) => {
                // with room for the newline the transport appends
                let head = reply_head(id);
                let mut line = String::with_capacity(head.len() + reply.tail.len() + 1);
                line.push_str(&head);
                line.push_str(&reply.tail);
                (line, 0, Some(reply.stats))
            }
            None => {
                let done = contain(|| execute(&req, &self.resident)).unwrap_or_else(|panic| {
                    self.totals.lock().unwrap().contained += 1;
                    let stderr = format!("titanc: internal error: {}\n", panic_message(&*panic));
                    Executed::refused(id, i64::from(EXIT_INCIDENT), stderr)
                });
                let line = done.response.to_json().to_string_compact();
                // only the state every later execution would repeat
                let clean = |s: &SessionStats| {
                    s.full_warm && s.corrupt + s.quarantined + s.write_failed == 0
                };
                if let (Some(key), 0, 0, Some(stats)) = (
                    key,
                    done.response.exit,
                    done.incidents,
                    done.stats.filter(clean),
                ) {
                    let reply = MemoReply {
                        tail: line[reply_head(id).len()..].to_string(),
                        stats,
                        files: req.files,
                    };
                    replies.insert(key, reply);
                }
                (line, done.response.exit, done.stats)
            }
        };
        {
            let mut totals = self.totals.lock().unwrap();
            totals.requests += 1;
            if let Some(stats) = &stats {
                totals.fold(stats);
            }
        }
        if !self.quiet {
            // the per-request accounting line, tagged by request id, on
            // the daemon's own stderr (the response carries the client's
            // copy inside its stderr field)
            let reply = if hit.is_some() { "hit" } else { "miss" };
            let cache = stats.map_or(String::new(), |s| format!(" {}", cache_line(&s)));
            eprintln!("titand: req={id} files={files} exit={exit} reply={reply}{cache}");
        }
        Reply::Line(line)
    }

    /// Writes one reply line and its newline in a single write, counting
    /// a reply that could not be delivered. False when the write failed.
    fn send(&self, out: &mut impl Write, mut text: String) -> bool {
        text.push('\n');
        let sent = out.write_all(text.as_bytes()).and_then(|()| out.flush());
        if sent.is_err() {
            self.totals.lock().unwrap().disconnects += 1;
        }
        sent.is_ok()
    }

    /// Answers a line that is never parsed.
    fn reject(&self, why: &str) -> Reply {
        self.totals.lock().unwrap().rejected += 1;
        Reply::Line(protocol_error(-1, &format!("request line rejected: {why}")))
    }

    /// [`parse_line`](Server::parse_line) for a line as [`read_line`]
    /// delivers it; `None` for a blank one.
    fn parse_bytes(&self, line: &[u8]) -> Option<Result<Json, Reply>> {
        if line.iter().all(u8::is_ascii_whitespace) {
            return None;
        }
        Some(match std::str::from_utf8(line) {
            Ok(text) => self.parse_line(text),
            // an over-long line arrives cut, perhaps inside a character
            Err(_) if line.len() > MAX_LINE_BYTES => Err(self.reject(TOO_LONG)),
            Err(_) => Err(self.reject("not UTF-8")),
        })
    }

    /// Serves newline-delimited JSON on stdin/stdout: each free lane of
    /// the pool reads and parses the next line, then answers it, so
    /// responses stream back as they finish (tagged by id — completion
    /// order is not request order) and no more lines are read ahead than
    /// there are lanes. EOF on stdin is a graceful shutdown, as is a
    /// `{"shutdown":true}` line: it is recognised as it is read, so no
    /// lane reads after it, and every line read before it is answered.
    ///
    /// # Errors
    ///
    /// Returns the first stdin read error.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let mut failed = None;
        let mut shut = false;
        // a line is parsed by the lane that read it, before the next lane
        // may read: once the shutdown line is in, no lane reads again
        let lines = std::iter::from_fn(|| {
            let mut line = Vec::new();
            while !shut {
                match read_line(&mut io::stdin().lock(), &mut line) {
                    Ok(true) => {}
                    Ok(false) => return None,
                    Err(e) => {
                        failed = Some(e);
                        return None;
                    }
                }
                let Some(parsed) = self.parse_bytes(&line) else {
                    continue;
                };
                shut = parsed.as_ref().is_ok_and(is_shutdown);
                return Some(parsed);
            }
            None
        });
        crate::pool::fan_out(self.workers, lines, |parsed, _| {
            let (Reply::Line(text) | Reply::Shutdown(text)) = self.answer(parsed);
            self.send(&mut io::stdout().lock(), text);
        });
        failed.map_or(Ok(()), Err)
    }

    /// Serves a Unix domain socket over an already-bound `listener` (see
    /// [`bind_unix`]; the daemon binds first so it can announce readiness
    /// before the accept loop starts): each free lane of the pool accepts
    /// the next connection and answers every request line on it in order
    /// (concurrency comes from concurrent connections). A
    /// `{"shutdown":true}` request is acknowledged, then the listener stops
    /// accepting and `path` is removed. A failed `accept` or connection
    /// drops only that connection.
    #[cfg(unix)]
    pub fn serve_listener(&self, listener: std::os::unix::net::UnixListener, path: &Path) {
        use std::os::unix::net::UnixStream;

        let stop = AtomicBool::new(false);
        // one lane at a time blocks in `accept` (the pool holds the source's
        // lock), so the one wake-up connection a shutdown makes releases it
        let streams = std::iter::from_fn(|| loop {
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            let accepted = listener.accept();
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            if let Ok((stream, _)) = accepted {
                return Some(stream);
            }
        });
        crate::pool::fan_out(self.workers, streams, |stream, _| {
            let Ok(read) = stream.try_clone() else {
                return;
            };
            let mut write = stream;
            let mut reader = BufReader::new(read);
            let mut line = Vec::new();
            while let Ok(true) = read_line(&mut reader, &mut line) {
                let Some(parsed) = self.parse_bytes(&line) else {
                    continue;
                };
                let reply = self.answer(parsed);
                let shutdown = matches!(reply, Reply::Shutdown(_));
                let (Reply::Line(text) | Reply::Shutdown(text)) = reply;
                let sent = self.send(&mut write, text);
                if shutdown {
                    stop.store(true, Ordering::SeqCst);
                    // wake the lane blocked in `accept`, if any, so it
                    // sees the stop flag
                    let _ = UnixStream::connect(path);
                }
                if shutdown || !sent {
                    break;
                }
            }
        });
        let _ = std::fs::remove_file(path);
    }
}

/// Binds the daemon's Unix socket, replacing any leftover socket file
/// from a previous run.
///
/// # Errors
///
/// Returns the bind error.
#[cfg(unix)]
pub fn bind_unix(path: &Path) -> io::Result<std::os::unix::net::UnixListener> {
    let _ = std::fs::remove_file(path);
    std::os::unix::net::UnixListener::bind(path)
}

/// True for a `{"shutdown":true}` line.
fn is_shutdown(doc: &Json) -> bool {
    doc.get("shutdown")
        .is_some_and(|flag| flag.as_bool().unwrap_or(false))
}

/// Reads one line into `line` (cleared first, newline dropped), keeping
/// at most [`MAX_LINE_BYTES`] + 1 bytes of it: the rest of a longer line is
/// skipped through its newline unbuffered, and what was kept is long
/// enough to be rejected for its length. `Ok(false)` at end of input.
fn read_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
        return Ok(false);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() as u64 == limit {
        reader.skip_until(b'\n')?;
    }
    Ok(true)
}

fn protocol_error(id: i64, message: &str) -> String {
    let refused = Executed::refused(id, 2, format!("titanc: server: {message}\n"));
    refused.response.to_json().to_string_compact()
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// Sends one request over a Unix socket and reads the response —
/// the transport behind `titanc --server <socket>`.
///
/// # Errors
///
/// Returns connect/IO errors, or `InvalidData` when the server's reply
/// is not a [`CompileResponse`] line.
#[cfg(unix)]
pub fn request_over_unix(addr: &Path, req: &CompileRequest) -> io::Result<CompileResponse> {
    let doc = round_trip_unix(addr, &req.to_json().to_string_compact(), "response")?;
    CompileResponse::from_json(&doc).map_err(|e| bad_data("response", e))
}

/// Sends `{"shutdown":true}` over a Unix socket and returns the
/// server's aggregate totals from the acknowledgement.
///
/// # Errors
///
/// Returns connect/IO errors, or `InvalidData` on a malformed
/// acknowledgement.
#[cfg(unix)]
pub fn shutdown_over_unix(addr: &Path) -> io::Result<ServerTotals> {
    let doc = round_trip_unix(addr, r#"{"shutdown":true}"#, "ack")?;
    let totals = doc.field("totals").map_err(|e| bad_data("ack", e))?;
    ServerTotals::from_json(totals).map_err(|e| bad_data("ack", e))
}

/// One client exchange: connect, send `line`, half-close, and parse the
/// one reply line (`what` names it in an `InvalidData` error).
#[cfg(unix)]
fn round_trip_unix(addr: &Path, line: &str, what: &str) -> io::Result<Json> {
    let mut stream = std::os::unix::net::UnixStream::connect(addr)?;
    writeln!(stream, "{line}")?;
    stream.flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    parse(reply.trim_end()).map_err(|e| bad_data(what, e))
}

#[cfg(unix)]
fn bad_data(what: &str, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad {what}: {e}"))
}

#[cfg(test)]
impl Server {
    /// A quiet one-worker server over `resident`, so a test can hand it
    /// one with small budgets.
    pub(crate) fn over(resident: ResidentCache) -> Server {
        Server {
            resident,
            totals: Mutex::default(),
            workers: 1,
            quiet: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BUDGETS;

    fn tiny_request(id: i64, tag: usize) -> CompileRequest {
        let src = format!(
            "float a{tag}[64], b{tag}[64];\n\
             void k{tag}(void) {{ int i; for (i = 0; i < 64; i++) \
             a{tag}[i] = a{tag}[i] + 2.0f * b{tag}[i]; }}\n\
             int main(void) {{ k{tag}(); return 0; }}\n"
        );
        CompileRequest {
            id,
            files: vec![SourceFile::new(format!("t{tag}.c"), src)],
            opt_report: "json".to_string(),
            ..CompileRequest::default()
        }
    }

    fn response_of(reply: Reply) -> CompileResponse {
        match reply {
            Reply::Line(line) => CompileResponse::from_json(&parse(&line).unwrap()).unwrap(),
            Reply::Shutdown(ack) => panic!("unexpected shutdown ack: {ack}"),
        }
    }

    #[test]
    fn protocol_errors_answer_exit_two_and_are_counted() {
        let server = Server::new(&ServerConfig::default()).quiet();
        let bad = response_of(server.handle_line("not json at all"));
        assert_eq!((bad.id, bad.exit), (-1, 2));
        assert!(bad.stderr.contains("bad request line"));

        let missing = response_of(server.handle_line(r#"{"id": 9}"#));
        assert_eq!((missing.id, missing.exit), (9, 2));
        assert!(missing.stderr.contains("bad request"));

        let totals = server.totals();
        assert_eq!(totals.protocol_errors, 2);
        assert_eq!(totals.requests, 0);
    }

    #[test]
    fn shutdown_ack_carries_the_totals() {
        let server = Server::new(&ServerConfig::default()).quiet();
        let req = tiny_request(5, 0).to_json().to_string_compact();
        assert_eq!(response_of(server.handle_line(&req)).exit, 0);
        match server.handle_line(r#"{"shutdown": true}"#) {
            Reply::Shutdown(ack) => {
                let doc = parse(&ack).unwrap();
                let totals = ServerTotals::from_json(doc.field("totals").unwrap()).unwrap();
                assert_eq!(totals.requests, 1);
                assert!(totals.misses > 0);
            }
            Reply::Line(line) => panic!("shutdown not acknowledged: {line}"),
        }
    }

    #[test]
    fn repeat_requests_hit_the_shared_resident_cache() {
        let server = Server::new(&ServerConfig::default()).quiet();
        let line = tiny_request(1, 3).to_json().to_string_compact();
        let cold = response_of(server.handle_line(&line));
        let warm = response_of(server.handle_line(&line));
        assert_eq!(cold.exit, 0, "{}", cold.stderr);
        assert_eq!(cold.stdout, warm.stdout);
        assert!(
            warm.stderr.contains("(fully warm)"),
            "repeat did not skip the pipeline:\n{}",
            warm.stderr
        );
        let totals = server.totals();
        assert_eq!(totals.fully_warm, 1);
        assert!(totals.hits > 0);
    }

    /// With room for two of three same-sized replies the least recently
    /// used one makes room, and comes back byte for byte when asked again.
    #[test]
    fn replies_evict_least_recently_used_first_and_recompute_to_the_same_bytes() {
        let serve = |server: &Server, tag: usize| {
            let line = tiny_request(7, tag).to_json().to_string_compact();
            let before = server.totals().reply_hits;
            let Reply::Line(reply) = server.handle_line(&line) else {
                panic!("unexpected shutdown ack");
            };
            let replies = server.resident.memos().replies.counts();
            (
                reply,
                server.totals().reply_hits - before,
                replies.resident_bytes,
            )
        };
        let roomy = Server::over(ResidentCache::new(None));
        let one = [serve(&roomy, 0), serve(&roomy, 0)][1].2;
        assert!(one > 0, "the fully warm reply was admitted");
        let budgets = [BUDGETS[0], (one * 5 / 2) as usize];
        let server = Server::over(ResidentCache::with_budgets(None, budgets));
        let admitted: Vec<String> = (0..3)
            .map(|tag| [serve(&server, tag), serve(&server, tag)][1].0.clone())
            .collect();
        // 2 displaced 0; touching 1 then 2 makes 1 the next to go
        for (tag, hit) in [(1, 1), (2, 1), (0, 0), (0, 1), (2, 1), (1, 0)] {
            let (reply, hits, resident) = serve(&server, tag);
            assert_eq!((&reply, hits), (&admitted[tag], hit), "tag {tag}");
            assert!(resident <= one * 5 / 2 && resident >= one);
        }
        assert_eq!(server.resident.memos().replies.counts().evicted, 3);
    }
}
