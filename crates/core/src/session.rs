//! Multi-file compilation sessions and the persistent incremental cache.
//!
//! The paper's compiler was a whole-program system: §7 inlining works
//! best when "the entire program" is visible, and catalogs exist exactly
//! so separate files can feed one optimization. A *session* compiles
//! several translation units in one invocation (`titanc a.c b.c c.c`),
//! merges them through the same machinery catalogs use (struct tables
//! deduplicated by tag with ids remapped, globals merged by name,
//! duplicate procedures diagnosed with both origins named, earlier files
//! winning), and then runs the normal pass pipeline over the combined
//! program.
//!
//! ## The content-addressed cache
//!
//! With `--cache-dir DIR`, each procedure's fully optimized IL is keyed
//! by a stable 128-bit content hash ([`titanc_il::StableHash`]) of:
//!
//! * the parsed procedure's canonical arena bytes
//!   ([`titanc_il::write_proc`]: names, types, statements, spans —
//!   everything the optimizer sees),
//! * the shared program environment (globals, struct table, file
//!   table), hashed once and folded into **every** key,
//! * an [`Options`] fingerprint (every knob that can change generated
//!   code: opt level, inlining policy, aliasing regime, strip length…),
//! * the pipeline fingerprint (the exact pass sequence), and
//! * with inlining enabled, the procedure's *inline dependency cone*:
//!   the arena encodings of every transitive callee
//!   ([`titanc_analysis::CallGraph::inline_cones`]). The inliner's
//!   growth budget is per-caller, so a procedure's post-inline IL is a
//!   function of its cone and the environment alone — an edit
//!   invalidates exactly the edited procedure and the procedures whose
//!   cones contain it, never the whole program. `--no-inline` sessions
//!   key each procedure on its own encoding alone.
//!
//! A cache entry stores the post-pipeline IL — as the binary wire bytes
//! of [`titanc_il::wire`], the same layout the hasher sweeps — *plus* the
//! per-pass [`RecordedCell`]s — the statistics deltas, changed flags, and
//! analysis-cache counters of the original execution — as a second wire
//! section written through the same walker ([`Wire`]). On a warm run the
//! pass manager substitutes the cached IL and replays the cells through
//! its normal pass-major merge ([`Pipeline::run`]), so reports,
//! counters, and `--opt-report` output are **byte-identical between cold
//! and warm runs and across every `-j` value**. Only wall-clock data
//! (durations, the timeline) and `--snapshots` differ: replayed work is
//! charged zero time and produces no snapshots.
//!
//! When every procedure hits *and* a session [`Manifest`] loads, the
//! manifest replays the pipeline's whole-program prefix the same way — its
//! recorded cells through the same merge, its environment as the
//! program's — and zero passes execute. There is one warm path: a fully
//! warm compile is a [`Pipeline::run`] in which everything replays.
//!
//! All on-disk interaction goes through the hardened
//! [`CacheStore`](crate::store): entries are published atomically
//! (temp-file, fsync, rename) inside a checksummed envelope, anything
//! that fails the checksum or decode is quarantined and treated as a
//! miss, replayed IL must pass the IL verifier before it is trusted,
//! and concurrent sessions sharing one directory need no coordination:
//! every file is content-addressed or overwritten whole. Every degradation
//! is counted ([`SessionStats`]) and surfaced on the `titanc: cache:`
//! accounting line — a cache failure is never a compilation failure.
//!
//! ## Resident sessions
//!
//! A session whose store belongs to the compile server's
//! [`ResidentCache`] runs exactly the code a one-shot session runs: it
//! parses every file, and every entry it loads goes through
//! `admit_entry` and every manifest through `decode_manifest`, on
//! every read. The only difference is where the bytes come from — the
//! resident layer keeps the unsealed payload of each file the daemon
//! published or read, so a warm request reads no file and checks no
//! envelope.

use std::collections::BTreeMap;
use std::path::Path;

use titanc_analysis::CallGraph;
use titanc_cfront::{Diagnostic, DiagnosticSink, Span};
use titanc_il::wire::{self, Reader, Wire};
use titanc_il::{Procedure, Program, StableHash, StableHasher, StructDef, VarInfo};

use crate::pass::{
    snapshot_all, verify_proc_check, verify_program_check, CachedEntry, PassTrace, RecordedCell,
    Replay, SessionReplay,
};
use crate::server::base_pipeline;
use crate::store::{CacheStore, ResidentCache, CACHE_FORMAT};
use crate::{link_catalogs, optimization_remarks, Compilation, CompileError, Options, Pipeline};

/// Bumped when the entry or manifest encoding changes shape, or when a
/// recorded cell would replay differently from how the chain now runs;
/// entries written by other versions are treated as misses. (2: `dce`
/// re-solves liveness over one CFG, so the recorded analysis-cache
/// counters moved. 3: cells and manifests are wire bytes, and a manifest
/// keeps only the whole-program stages' records. 4: a cell's cache
/// counters lost the dominator and loop-nest pairs. 5: `forward` keeps a
/// loading `x = E` that is read after its window, and its loads stop at
/// assignments to globals and addressed locals; the key hashes pass
/// names, not what the passes do, so an entry from 4 would replay IL that
/// computes `E` twice. 6: loop and call-site counts left the reports for
/// their decision events, `DoRejected` carries a typed reason, and a
/// `constprop` cell that only folded records `changed`. 7: an inline
/// event lost its site ordinal, and the inliner records each call site
/// once, so a manifest's inline record holds fewer events. 8: a recorded
/// delta is one `titanc_il::Report` — a fixed array of counts, then the
/// loop events, inline events and notes — not ten per-pass reports. 9:
/// `strength` ends with a sweep that folds, reassociates constant offsets
/// and reduces constant multiplies, and its report has one more count, so
/// the same key now maps to other post-pipeline IL and other cell bytes.
/// 10: `strength` and the vectorizer build addresses and unit-step trip
/// counts through one affine form that collects the loop start's terms,
/// and `cse` no longer merges `0.0` with `-0.0`, so the same key now maps
/// to other post-pipeline IL. 11: while→DO, ivsub and constprop build DO
/// bounds and trip counts through that form, which subtracts a negative
/// term, so the same key now maps to other post-pipeline IL. 12: the
/// vectorizer sinks a loop that carries nothing to the innermost level of
/// its nest, and records it in a `Sunk` loop event, a new tag byte, so
/// the same key now maps to other post-pipeline IL and other cell bytes.
/// 13: before it sinks a nest, the vectorizer unrolls its short inner
/// loops into the loop around them when that lets it vectorize, and
/// records each in an `Unrolled` loop event, a new tag byte.)
const ENTRY_VERSION: u32 = 13;

/// One input translation unit: a display name (normally the path) and
/// its source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceFile {
    /// Display name, used for diagnostics and span file tags.
    pub name: String,
    /// The C source text.
    pub src: String,
}

impl SourceFile {
    /// Bundles a name and source text.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> SourceFile {
        SourceFile {
            name: name.into(),
            src: src.into(),
        }
    }
}

titanc_il::struct_json!(SourceFile, [name, src]);

/// Declares [`SessionStats`] — the struct and its field-by-field sum —
/// from one list of the (all `usize`) counters.
macro_rules! session_stats {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// What the cache did during one session.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct SessionStats {
            $($(#[$doc])* pub $field: usize,)+
            /// True when no pass executed: the session manifest replayed
            /// the prefix and every procedure its entry.
            pub full_warm: bool,
        }

        impl SessionStats {
            /// Adds `other`'s counters into this one: the one fold behind
            /// the store's share of a session and every total over
            /// sessions. (`full_warm` describes one session; a sum keeps
            /// its own.)
            pub fn merge(&mut self, other: &SessionStats) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

session_stats! {
    /// Procedures served from the cache.
    hits,
    /// Procedures compiled for real.
    misses,
    /// Misses whose name the last session over the same input files
    /// cached under a different key — an edited procedure (or changed
    /// options/pipeline), not a cold one.
    invalidated,
    /// Optimization-pass executions this run actually performed
    /// (the prefix's passes plus per-procedure chains for misses). A
    /// fully warm run reports zero.
    passes_executed,
    /// Cache files whose checksum, decode, or IL verification failed;
    /// each was demoted to a cold recompile.
    corrupt,
    /// Corrupt files successfully moved into `quarantine/` (or
    /// deleted) so they are never re-read.
    quarantined,
    /// Cache files that could not be published (write/rename failure);
    /// surfaced as a warning, never a compilation failure.
    write_failed,
}

/// A [`Compilation`] plus the session's cache accounting. The stats stay
/// *outside* [`Compilation`] deliberately: everything inside (reports,
/// counters, the opt report) is byte-identical cold vs warm, and hit
/// counts obviously are not.
#[derive(Debug)]
pub struct SessionCompilation {
    /// The merged, optimized compilation.
    pub compilation: Compilation,
    /// Cache hit/miss/invalidation accounting.
    pub stats: SessionStats,
}

/// Compiles a multi-file session with the pipeline `titanc` itself uses
/// ([`base_pipeline`]) — this is what `titanc files… [--cache-dir DIR]`
/// runs; without a cache directory the session is store-less.
///
/// # Errors
///
/// Returns a [`CompileError`] carrying every front-end diagnostic from
/// every file (each file is parsed even when an earlier one failed).
pub fn compile_session(
    files: &[SourceFile],
    options: &Options,
    cache_dir: Option<&Path>,
) -> Result<SessionCompilation, CompileError> {
    let store = cache_dir.map(CacheStore::open);
    compile_session_impl(files, options, base_pipeline(options), store)
}

/// [`compile_session`] with a caller-built [`Pipeline`] against a shared
/// [`ResidentCache`]: cache reads are served from the resident in-memory
/// map (falling back to, and adopting from, the map's backing directory
/// when it has one), and publishes write through to both. This is the
/// compile server's entry point — many concurrent sessions in one
/// process share a single resident cache, and a `--cache-dir` backing
/// directory keeps one-shot `titanc` invocations interoperable with the
/// daemon.
///
/// # Errors
///
/// Returns a [`CompileError`] for lexical, syntactic or semantic errors
/// in any input file.
pub fn compile_session_resident(
    files: &[SourceFile],
    options: &Options,
    pipeline: Pipeline,
    resident: &ResidentCache,
) -> Result<SessionCompilation, CompileError> {
    let store = CacheStore::open_resident(resident);
    compile_session_impl(files, options, pipeline, Some(store))
}

/// What an open store adds to one compile: the name of the index file of
/// its input files, the per-procedure keys and the session key of the
/// parsed program, and — by position, like the keys — the replay states
/// the pipeline moves along.
struct OpenCache {
    store: CacheStore,
    index: String,
    hashes: Vec<StableHash>,
    session_key: StableHash,
    replay: SessionReplay,
}

/// The compile driver — every public entry point is a wrapper over this.
/// Front end per file, merge (earlier files win), catalog link, the
/// `lower` snapshot and post-lower verification over the *linked*
/// program, then the pipeline — one [`Pipeline::run`] whether cold,
/// partially or fully warm. Without a `store` nothing is hashed,
/// replayed or recorded.
pub(crate) fn compile_session_impl(
    files: &[SourceFile],
    options: &Options,
    pipeline: Pipeline,
    store: Option<CacheStore>,
) -> Result<SessionCompilation, CompileError> {
    if files.is_empty() {
        return Err(CompileError::internal("no input files"));
    }
    let multi = files.len() > 1;

    // front end, one TU at a time; every file is processed even after a
    // failure so one broken file cannot hide another's diagnostics. The
    // recovering parser collects every independent mistake.
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut tus: Vec<(String, Program)> = Vec::new();
    let mut failed = false;
    let mut stats = SessionStats::default();
    for f in files {
        let (tu, diags) = front_end(&f.src, options.max_errors);
        match tu {
            Some(tu) => tus.push((f.name.clone(), tu)),
            None => failed = true,
        }
        extend_tagged(&mut diagnostics, &f.name, diags, multi);
    }
    if failed {
        return Err(CompileError::from_diagnostics(diagnostics));
    }

    // merge the TUs (earlier files win), then link catalogs (§7) before
    // the pipeline runs, so the inline pass can expand cross-file calls
    let mut sink = DiagnosticSink::new(0);
    let mut program = Program::new();
    let mut origin: Vec<(String, String)> = Vec::new();
    for (name, tu) in tus {
        merge_tu(&mut program, tu, &name, multi, &mut origin, &mut sink);
    }
    link_catalogs(&mut program, &options.catalogs, origin, &mut sink);

    let mut snapshots = Vec::new();
    if options.snapshots {
        snapshot_all("lower", &program, &mut snapshots);
    }
    let verify = cfg!(debug_assertions) || options.verify;
    if verify {
        // broken IL straight out of lowering (or a catalog) has no
        // last-good state to roll back to: report it as an (internal)
        // error, don't panic
        if let Err(detail) = verify_program_check(&program) {
            return Err(CompileError::internal(format!(
                "internal error: IL verification failed after lowering: {detail}"
            )));
        }
    }

    let names = pipeline.pass_names();
    let chain = pipeline.proc_pass_names();
    let prefix = &names[..names.len() - chain.len()];

    // cache keys exist only while a store is open: a store-less compile
    // builds no call graph, hashes nothing and records nothing. The
    // session key is computed on the *parsed* program — exactly what the
    // next invocation computes before any pass runs, so the manifest a
    // run persists is the manifest its successor looks up
    let mut cache = store.map(|store| {
        let pipeline_fp = names.join(",");
        let hashes = proc_hashes(&program, options, &pipeline_fp);
        let session_key = session_hash(&program, options, &pipeline_fp, &hashes);
        OpenCache {
            store,
            index: index_name(files),
            hashes,
            session_key,
            replay: SessionReplay::default(),
        }
    });

    // seed one replay state per procedure, each entry read once: hits
    // replay, misses execute (and are recorded for `persist`). When every
    // procedure hits, the manifest replays the prefix as well and no pass
    // executes — a fully warm compile, which persists nothing
    if let Some(c) = cache.as_mut() {
        // read before the entries, so a damaged manifest is counted
        // whatever they hold
        let file = manifest_name(&c.session_key);
        let manifest = load_manifest(&mut c.store, &file, prefix);
        // the keys the last session over these files cached, read at
        // the first miss: only a miss can be an invalidation
        let mut index = None;
        for (p, h) in program.procs.iter().zip(&c.hashes) {
            let hit = load_hit(&mut c.store, h, &p.name, &chain);
            c.replay.procs.push(match hit {
                Some(entry) => Replay::Hit(Box::new(entry)),
                None => {
                    let index = index.get_or_insert_with(|| load_index(&mut c.store, &c.index));
                    let edited = |old: &String| *old != h.hex();
                    stats.invalidated += usize::from(index.get(&p.name).is_some_and(edited));
                    Replay::None
                }
            });
        }
        let all_hit = c.replay.procs.iter().all(|r| matches!(r, Replay::Hit(_)));
        let mut manifest = manifest.filter(|_| all_hit);
        // under verification, the program the manifest makes of the hits
        // must verify: one that does not is damage like any other
        let rejected = |m: &mut Manifest| verify && !verifies(&mut program, m, &mut c.replay.procs);
        if manifest.as_mut().is_some_and(rejected) {
            c.store.quarantine(&file);
        } else {
            c.replay.manifest = manifest;
        }
        stats.full_warm = c.replay.manifest.is_some();
    }
    let replay = cache.as_mut().map(|c| &mut c.replay);
    let (reports, trace) = pipeline.run(&mut program, options, &mut snapshots, replay);
    if let Some(c) = cache.as_mut() {
        let replayed = |r: &&Replay| matches!(r, Replay::Replayed);
        stats.hits = c.replay.procs.iter().filter(replayed).count();
        if !stats.full_warm {
            persist(c, &pipeline, &program, &trace);
        }
    }
    stats.misses = program.procs.len().saturating_sub(stats.hits);
    let prefix_runs = if stats.full_warm { 0 } else { prefix.len() };
    stats.passes_executed = prefix_runs + chain.len() * stats.misses;

    optimization_remarks(&reports, &mut sink);
    if let Some(c) = &cache {
        store_diagnostics(&c.store, &mut sink);
        stats.merge(&c.store.stats);
    }
    diagnostics.extend(sink.into_diagnostics());

    Ok(SessionCompilation {
        compilation: Compilation {
            program,
            reports,
            trace,
            snapshots,
            diagnostics,
        },
        stats,
    })
}

/// The front end over one file's text: the lowered TU — `None` when the
/// file has errors — and its diagnostics, not yet tagged with a file name.
fn front_end(src: &str, max_errors: usize) -> (Option<Program>, Vec<Diagnostic>) {
    let mut sink = DiagnosticSink::new(max_errors);
    let tu = titanc_cfront::parse_recovering(src, &mut sink);
    let mut program = None;
    if sink.has_errors() {
        // make the cap visible: the reported list is shorter than the
        // real error count when --max-errors stopped the front end early
        if sink.suppressed() > 0 {
            sink.warning(
                format!(
                    "{} further error(s) suppressed by --max-errors (total {})",
                    sink.suppressed(),
                    sink.error_count()
                ),
                Span::none(),
            );
        }
    } else {
        match titanc_lower::lower(&tu) {
            Ok(p) => program = Some(p),
            Err(e) => sink.error(e.message.clone(), e.span),
        }
    }
    (program, sink.into_diagnostics())
}

/// Appends `diags`, folding the file name (and the position, when
/// known) into each message in multi-file sessions, so renderings read
/// `file:line:col: message` with the file first. Single-file sessions
/// keep the exact single-TU rendering, so artifacts stay byte-identical
/// with [`crate::compile`].
fn extend_tagged(out: &mut Vec<Diagnostic>, file: &str, diags: Vec<Diagnostic>, multi: bool) {
    for mut d in diags {
        if multi {
            d.message = if d.span.is_known() {
                format!("{file}:{}: {}", d.span, d.message)
            } else {
                format!("{file}: {}", d.message)
            };
            d.span = Span::none();
        }
        out.push(d);
    }
}

/// Merges one lowered TU into the session program through the shared
/// linker ([`titanc_il::link`]: struct layouts dedup by tag with ids
/// remapped, globals merge by name, earlier files win) and phrases what
/// it reports: differing layouts and globals, and duplicate procedures
/// with both origins. In multi-file sessions every span is tagged with
/// its origin file so `--opt-report` attributes loops to the right file.
fn merge_tu(
    program: &mut Program,
    tu: Program,
    file: &str,
    multi: bool,
    origin: &mut Vec<(String, String)>,
    sink: &mut DiagnosticSink,
) {
    if multi {
        // a TU that adds no procedure still takes its slot in the file
        // table, which every cache key hashes
        program.intern_file(file);
    }
    let here = format!("`{file}`");
    let report = titanc_il::link(program, tu, multi.then_some(file));
    crate::warn_link_conflicts(&report, &here, sink);
    for name in report.added {
        origin.push((name, here.clone()));
    }
    for name in &report.shadowed {
        let earlier = crate::origin_of(origin, name);
        sink.warning(
            format!("procedure `{name}` in {here} is shadowed by the definition in {earlier}"),
            Span::none(),
        );
    }
}

/// Every option that can change generated code, flattened to a string
/// the hasher folds in. `jobs`, `snapshots`, `verify` and `max_errors`
/// are deliberately absent — they never change the output program.
fn options_fingerprint(options: &Options) -> String {
    format!(
        "opt={:?} inline={} depth={} callee={} growth={} parallel={} spread={} \
         aliasing={:?} strip={}",
        options.opt,
        options.inline,
        titanc_inline::MAX_DEPTH,
        titanc_inline::MAX_CALLEE_SIZE,
        titanc_inline::MAX_GROWTH,
        options.parallelize,
        options.spread_lists,
        options.aliasing,
        options.strip
    )
}

/// The shared program environment, hashed once: globals (an initializer
/// edit changes generated data without touching any body), the struct
/// table (layouts reach bodies through lowering and the passes), and
/// the file table (span origin tags feed `--opt-report`). This is the
/// **single** place the environment enters the cache — every per-proc
/// key folds it in, and the session key covers it through those keys —
/// so the manifest and per-procedure paths can never disagree about
/// what the environment is.
fn environment_hash(program: &Program) -> String {
    let mut h = StableHasher::new();
    program.globals.write_wire(&mut h);
    program.structs.write_wire(&mut h);
    program.files.write_wire(&mut h);
    h.finish().hex()
}

/// One stable content hash per procedure of the parsed program.
///
/// With inlining on, each key covers the procedure's *inline dependency
/// cone* ([`CallGraph::inline_cones`]): the arena encodings of itself
/// plus every transitive callee, in program order. The per-caller
/// `MAX_GROWTH` budget keeps inline decisions local to each caller, so
/// nothing outside the cone (and the shared environment) can change the
/// procedure's post-inline IL — an edit invalidates exactly the edited
/// procedure and its cone consumers, not the whole program. `--no-inline`
/// sessions key each procedure on its own encoding alone.
fn proc_hashes(program: &Program, options: &Options, pipeline_fp: &str) -> Vec<StableHash> {
    let opts_fp = options_fingerprint(options);
    let env = environment_hash(program);
    let cones = options
        .inline
        .then(|| CallGraph::build(program).inline_cones(program));
    program
        .procs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut h = StableHasher::new();
            h.write_str(CACHE_FORMAT);
            h.write_str(&opts_fp);
            h.write_str(pipeline_fp);
            h.write_str(&env);
            h.write_str(&p.name);
            match &cones {
                // cone members are hashed in program order: the
                // inliner's round loop visits callers in that order, so
                // relative position is part of what determines the
                // spliced code
                Some(cones) => {
                    for &j in &cones[i] {
                        let m = &program.procs[j];
                        h.write_str(&m.name);
                        titanc_il::write_proc(&mut h, m);
                    }
                }
                None => titanc_il::write_proc(&mut h, p),
            }
            h.finish()
        })
        .collect()
}

/// The whole session's key: the per-procedure keys in program order.
/// Each of those keys already folds in [`environment_hash`], so the
/// manifest invalidates whenever any body, cone member, or environment
/// detail changes — without hashing the environment a second time that
/// could drift out of sync with the per-procedure keys.
fn session_hash(
    program: &Program,
    options: &Options,
    pipeline_fp: &str,
    hashes: &[StableHash],
) -> StableHash {
    let mut h = StableHasher::new();
    h.write_str(CACHE_FORMAT);
    h.write_str(&options_fingerprint(options));
    h.write_str(pipeline_fp);
    for (p, ph) in program.procs.iter().zip(hashes) {
        h.write_str(&p.name);
        h.write_str(&ph.hex());
    }
    h.finish()
}

/// One per-procedure cache entry's payload: the entry version, then two
/// `u64`-length-prefixed sections — the IL's wire bytes
/// ([`titanc_il::encode_proc`]) and the recorded cells' ([`Wire`] of a
/// `Vec<RecordedCell>`). The bytes are a function of the procedure's
/// structure and its cells alone, so concurrent sessions publishing one
/// key write identical files.
fn encode_entry(proc: &Procedure, cells: &[RecordedCell]) -> Vec<u8> {
    let mut section = Vec::new();
    wire::write_seq(&mut section, cells);
    frame_entry(&titanc_il::encode_proc(proc), &section)
}

/// The entry framing [`split_entry`] undoes.
fn frame_entry(il: &[u8], cells: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + il.len() + 8 + cells.len());
    out.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    for section in [il, cells] {
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(section);
    }
    out
}

/// Splits an entry payload into its (IL, cells) sections.
fn split_entry(payload: &[u8]) -> Option<(&[u8], &[u8])> {
    let mut r = Reader::new(payload);
    if r.u32().ok()? != ENTRY_VERSION {
        return None;
    }
    let il = r.section().ok()?;
    let cells = r.section().ok()?;
    r.finish().ok()?;
    Some((il, cells))
}

/// The session manifest: what a fully warm run needs that no entry holds —
/// the records of the pipeline's prefix (`inline`), one cell each, and the
/// post-pipeline program environment. It replays the prefix in
/// [`Pipeline::run`]; the chain replays the entries.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// The prefix passes' records, in pipeline order.
    pub stages: Vec<RecordedCell>,
    /// The post-pipeline globals.
    pub globals: Vec<VarInfo>,
    /// The post-pipeline struct table.
    pub structs: Vec<StructDef>,
    /// The post-pipeline file table.
    pub files: Vec<String>,
}

titanc_il::struct_wire!(Manifest, [stages, globals, structs, files]);

impl Manifest {
    /// The manifest of `program` as a run of `pipeline` left it, with
    /// that run's `trace`.
    pub fn new(pipeline: &Pipeline, program: &Program, trace: &PassTrace) -> Manifest {
        Manifest {
            stages: pipeline.prefix_cells(trace),
            globals: program.globals.clone(),
            structs: program.structs.clone(),
            files: program.files.clone(),
        }
    }

    /// Swaps this manifest's environment with `program`'s, and hands back
    /// the prefix's records.
    pub(crate) fn swap_environment(&mut self, program: &mut Program) -> &[RecordedCell] {
        std::mem::swap(&mut self.globals, &mut program.globals);
        std::mem::swap(&mut self.structs, &mut program.structs);
        std::mem::swap(&mut self.files, &mut program.files);
        &self.stages
    }
}

/// A manifest payload: the entry version, then the manifest's wire bytes.
fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
    let mut out = ENTRY_VERSION.to_le_bytes().to_vec();
    manifest.write_wire(&mut out);
    out
}

/// Decodes a manifest payload; `None` for anything but this version's.
fn decode_manifest(payload: &[u8]) -> Option<Manifest> {
    let mut r = Reader::new(payload);
    if r.u32().ok()? != ENTRY_VERSION {
        return None;
    }
    let manifest = Manifest::read_wire(&mut r).ok()?;
    r.finish().ok()?;
    Some(manifest)
}

fn entry_name(hash: &StableHash) -> String {
    format!("{}.il", hash.hex())
}

fn manifest_name(key: &StableHash) -> String {
    format!("session-{}.bin", key.hex())
}

/// The name → key index file of one list of input files (invalidation
/// accounting only), named by their names in order: each session over
/// those files overwrites it whole, and no other session writes it.
fn index_name(files: &[SourceFile]) -> String {
    let mut h = StableHasher::new();
    for f in files {
        h.write_str(&f.name);
    }
    format!("index-{}.bin", h.finish().hex())
}

/// Surfaces the store's degradations as warnings — a format-skewed
/// directory compiling cold, quarantined corruption, write failures.
/// One line per kind, however many files were involved; a cache problem
/// is loud but never fatal.
fn store_diagnostics(store: &CacheStore, sink: &mut DiagnosticSink) {
    if let Some(msg) = store.format_warning() {
        sink.warning(msg.to_string(), Span::none());
    }
    if store.stats.corrupt > 0 {
        sink.warning(
            format!(
                "{} corrupt cache file(s) detected ({} quarantined); the affected \
                 procedures were recompiled cold",
                store.stats.corrupt, store.stats.quarantined
            ),
            Span::none(),
        );
    }
    if store.stats.write_failed > 0 {
        sink.warning(
            format!(
                "{} cache write(s) failed ({}); compilation output is unaffected",
                store.stats.write_failed,
                store.first_write_error().unwrap_or("unknown error")
            ),
            Span::none(),
        );
    }
}

/// The checks every entry passes, on every read, before it is trusted:
/// the entry version and framing, the wire decode of both sections, the
/// name, and — crucially — the IL verifier.
fn admit_entry(payload: &[u8], name: &str) -> Option<CachedEntry> {
    let (il, cells) = split_entry(payload)?;
    let entry = CachedEntry {
        il: titanc_il::decode_proc(il).ok()?,
        cells: wire::from_bytes(cells).ok()?,
    };
    (entry.il.name == name && verify_proc_check(&entry.il).is_ok()).then_some(entry)
}

/// Loads one procedure's hit, validated *whole*: beyond [`admit_entry`]'s
/// checks its cells must name exactly the pipeline's per-procedure passes,
/// in order. The key covers the pipeline fingerprint, so an entry that
/// does not is damaged. A missing file is a plain (cold) miss; a file that
/// read but failed any check is quarantined — the bad bytes are never
/// trusted or re-read — and counted like any other damage, and the
/// procedure compiles cold.
fn load_hit(
    store: &mut CacheStore,
    hash: &StableHash,
    name: &str,
    passes: &[&str],
) -> Option<CachedEntry> {
    let file = entry_name(hash);
    let payload = store.read(&file)?;
    let whole = |e: &CachedEntry| e.cells.iter().map(|c| &*c.pass).eq(passes.iter().copied());
    let entry = admit_entry(&payload, name).filter(whole);
    if entry.is_none() {
        store.quarantine(&file);
    }
    entry
}

/// Loads the manifest `file`, validated *whole*: it decodes, and its
/// records name exactly the pipeline's `prefix` passes. A missing file is
/// a plain miss; a file that read but failed a check is quarantined and
/// counted, and the prefix runs for real.
fn load_manifest(store: &mut CacheStore, file: &str, prefix: &[&str]) -> Option<Manifest> {
    let payload = store.read(file)?;
    let whole = |m: &Manifest| m.stages.iter().map(|c| &*c.pass).eq(prefix.iter().copied());
    let manifest = decode_manifest(&payload).filter(whole);
    if manifest.is_none() {
        store.quarantine(file);
    }
    manifest
}

/// Whether `program` with `manifest`'s environment and every hit's IL —
/// the program a fully warm run makes — passes the whole-program
/// verifier. Both are swapped in for the check and back out after it.
fn verifies(program: &mut Program, manifest: &mut Manifest, hits: &mut [Replay]) -> bool {
    let mut swap = |program: &mut Program| {
        manifest.swap_environment(program);
        for (proc, hit) in program.procs.iter_mut().zip(hits.iter_mut()) {
            if let Replay::Hit(entry) = hit {
                std::mem::swap(proc, &mut entry.il);
            }
        }
    };
    swap(program);
    let verified = verify_program_check(program).is_ok();
    swap(program);
    verified
}

/// Persists the run through the hardened store: per-procedure entries
/// for cleanly compiled misses, the session manifest when every
/// procedure is covered, and the name → key index of this session's
/// input files that powers invalidation accounting.
///
/// Nothing here reads what it writes. Entries and the manifest are
/// content-addressed — concurrent sessions writing one key produce
/// identical bytes — and the index is this session's whole map, so every
/// file is published blind and the last rename wins harmlessly. The
/// session key was computed on the parsed program, which is exactly what
/// the next invocation hashes before running any pass.
fn persist(cache: &mut OpenCache, pipeline: &Pipeline, program: &Program, trace: &PassTrace) {
    let OpenCache {
        store,
        index,
        hashes,
        session_key,
        replay,
    } = cache;
    if !store.enabled() || trace.has_incidents() || program.procs.len() != hashes.len() {
        // a degraded program must never be served from the cache, and a
        // pass that changed the procedure count leaves the keys stale
        return;
    }
    let mut updates: BTreeMap<String, String> = BTreeMap::new();
    let mut all_cached = true;
    for ((p, h), replay) in program.procs.iter().zip(hashes).zip(&replay.procs) {
        let cached = match replay {
            Replay::Replayed => true,
            Replay::Recorded(cells) => store.publish(&entry_name(h), &encode_entry(p, cells)),
            _ => false,
        };
        if cached {
            updates.insert(p.name.clone(), h.hex());
        } else {
            all_cached = false;
        }
    }
    // one directory fsync for the whole group of entries: they are
    // durable before the manifest and the index can name them
    store.sync_dir();
    let healthy = trace
        .records
        .iter()
        .all(|r| r.skipped_procs == 0 && r.faulted_procs == 0);
    if all_cached && healthy {
        let manifest = Manifest::new(pipeline, program, trace);
        store.publish(&manifest_name(session_key), &encode_manifest(&manifest));
    }
    let index_pairs: Vec<(String, String)> = updates.into_iter().collect();
    store.publish(index, &wire::to_bytes(&index_pairs));
    store.sync_dir();
}

/// The name → key index `name` (invalidation accounting only; lookups
/// never depend on it): a `Vec<(String, String)>` in wire bytes.
/// Corruption quarantines the file and yields an empty map — hit/miss
/// behavior is unaffected.
fn load_index(store: &mut CacheStore, name: &str) -> BTreeMap<String, String> {
    let Some(payload) = store.read(name) else {
        return BTreeMap::new();
    };
    match wire::from_bytes::<Vec<(String, String)>>(&payload) {
        Ok(pairs) => pairs.into_iter().collect(),
        Err(_) => {
            store.quarantine(name);
            BTreeMap::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{render, CompileRequest, CompileResponse, Reply, Server};
    use crate::store::BUDGETS;
    use crate::{PassContext, PassRecord, Report};
    use std::path::PathBuf;
    use titanc_il::json::{FromJson, ToJson};

    const SRC: &str = "float a[64], b[64];\n\
        void scale(float *x, int n) { int i; for (i = 0; i < n; i++) x[i] = x[i] * 2.0f; }\n\
        int main(void) { int i; for (i = 0; i < 64; i++) a[i] = b[i] + 1.0f; scale(a, 64); return 0; }\n";

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("titanc-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn compile(dir: Option<&Path>) -> SessionCompilation {
        let files = [SourceFile::new("t.c", SRC)];
        compile_session(&files, &Options::o2(), dir).expect("compiles")
    }

    fn il_text(sc: &SessionCompilation) -> String {
        let procs = &sc.compilation.program.procs;
        procs.iter().map(titanc_il::pretty_proc).collect()
    }

    /// The entry files of `dir`, sorted.
    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("cache dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".il"))
            .collect();
        names.sort();
        names
    }

    /// Rewrites entry `name` through `damage` and re-seals it, so the
    /// envelope checksum is *valid* for the damaged payload — the one
    /// kind of corruption only the decoder and verifier can catch.
    fn reseal(
        store: &mut CacheStore,
        name: &str,
        damage: impl FnOnce(&[u8], &[u8]) -> (Vec<u8>, Vec<u8>),
    ) {
        let payload = store.read(name).expect("entry reads");
        let (il, cells) = split_entry(&payload).expect("entry splits");
        let (il, cells) = damage(il, cells);
        assert!(store.publish(name, &frame_entry(&il, &cells)));
    }

    #[test]
    fn checksum_valid_but_undecodable_il_is_quarantined_and_recompiled() {
        let reference = compile(None);
        let dir = scratch("bad-il");
        let cold = compile(Some(&dir));
        assert_eq!(cold.stats.misses, 2);
        let victim = entries(&dir).remove(0);
        // the IL section loses its last byte (its length prefix agrees)
        reseal(&mut CacheStore::open(&dir), &victim, |il, cells| {
            (il[..il.len() - 1].to_vec(), cells.to_vec())
        });

        let warm = compile(Some(&dir));
        assert_eq!(il_text(&reference), il_text(&warm));
        assert_eq!((warm.stats.corrupt, warm.stats.quarantined), (1, 1));
        assert_eq!((warm.stats.hits, warm.stats.misses), (1, 1));
        assert!(!warm.stats.full_warm);
        assert_eq!(
            std::fs::read_dir(dir.join("quarantine"))
                .expect("quarantine/")
                .count(),
            1,
            "the bad bytes are preserved for post-mortem"
        );
        // the recompile re-published a good entry: fully warm and clean again
        let healed = compile(Some(&dir));
        assert!(healed.stats.full_warm);
        assert_eq!(healed.stats.corrupt, 0);
        assert_eq!(il_text(&reference), il_text(&healed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Removes every session manifest of `dir`: the next run cannot go
    /// fully warm and replays its hits cell by cell.
    fn drop_manifests(dir: &Path) {
        for e in std::fs::read_dir(dir).expect("cache dir") {
            let path = e.expect("entry").path();
            if path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("session-"))
            {
                std::fs::remove_file(path).expect("drop the manifest");
            }
        }
    }

    /// A cells section that frames and checksums but does not decode is
    /// refused where the entry is read, with or without a manifest beside
    /// it — quarantined, counted, and its procedure compiled cold; the
    /// re-published entry makes the next run fully warm again.
    #[test]
    fn undecodable_cells_are_refused_on_every_warm_path() {
        let reference = compile(None);
        for keep_manifest in [true, false] {
            let dir = scratch("bad-cells");
            compile(Some(&dir));
            if !keep_manifest {
                drop_manifests(&dir);
            }
            let victim = entries(&dir).remove(0);
            reseal(&mut CacheStore::open(&dir), &victim, |il, cells| {
                (il.to_vec(), cells[..cells.len() - 1].to_vec())
            });

            let warm = compile(Some(&dir));
            assert!(!warm.stats.full_warm);
            assert_eq!((warm.stats.corrupt, warm.stats.quarantined), (1, 1));
            assert_eq!((warm.stats.hits, warm.stats.misses), (1, 1));
            assert_eq!(il_text(&reference), il_text(&warm));
            let healed = compile(Some(&dir));
            assert!(healed.stats.full_warm);
            assert_eq!(healed.stats.corrupt, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // -----------------------------------------------------------------
    // hand-built pipelines: a damaged cell list, a prefix that changes the
    // procedure count
    // -----------------------------------------------------------------

    /// A prefix pass: a no-op, or one that appends a procedure. Both go by
    /// one name, so both pipelines share their cache keys.
    struct Grow {
        grow: bool,
    }

    impl crate::Pass for Grow {
        fn name(&self) -> &'static str {
            "grow"
        }

        fn run(&self, program: &mut Program, _: &PassContext<'_>, _: &mut Report) {
            if self.grow {
                let extra = titanc_lower::compile_to_il("int grown(void) { return 7; }");
                program.procs.extend(extra.expect("lowers").procs);
            }
        }
    }

    /// A per-procedure pass outside the shipped `-O1` chain.
    struct LateCse;

    impl crate::ProcPass for LateCse {
        fn name(&self) -> &'static str {
            "late-cse"
        }

        fn run_on(
            &self,
            proc: &mut Procedure,
            _: &PassContext<'_>,
            _: &mut crate::ProcAnalyses,
            delta: &mut Report,
        ) {
            delta.merge(titanc_opt::local_cse(proc));
        }
    }

    /// `grow` as the prefix, then a one-pass chain.
    fn grow_pipeline(grow: bool) -> Pipeline {
        let mut pl = Pipeline::new();
        pl.push(Grow { grow });
        pl.push_proc(LateCse);
        pl
    }

    fn compile_with(pipeline: Pipeline, dir: Option<&Path>) -> SessionCompilation {
        let files = [SourceFile::new("t.c", SRC)];
        compile_session_impl(&files, &Options::o1(), pipeline, dir.map(CacheStore::open))
            .expect("compiles")
    }

    /// IL, opt report and every pass record but its duration: everything
    /// a warm run must reproduce.
    fn output(sc: &SessionCompilation) -> (String, String, String) {
        let c = &sc.compilation;
        let report = crate::server::opt_report_block(c, true);
        let records = c.trace.records.iter().map(|r| {
            let PassRecord {
                name,
                delta,
                changed,
                cache,
                skipped_procs,
                faulted_procs,
                duration: _,
            } = r;
            format!("{name} {delta:?} {changed} {cache:?} {skipped_procs} {faulted_procs}\n")
        });
        (il_text(sc), report, records.collect())
    }

    /// Every file of `dir` with its bytes.
    fn dir_image(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        let Ok(listing) = std::fs::read_dir(dir) else {
            return BTreeMap::new();
        };
        listing
            .map(|e| e.expect("entry").path())
            .filter(|p| p.is_file())
            .map(|p| {
                let name = p.file_name().expect("name").to_string_lossy().into_owned();
                (name, std::fs::read(&p).expect("reads"))
            })
            .collect()
    }

    #[test]
    fn an_entry_whose_cells_are_not_the_pipelines_is_refused_whole() {
        type Damage = fn(&mut Vec<RecordedCell>);
        let cut_one: Damage = |cells| cells.truncate(4);
        let rename_one: Damage = |cells| cells[4].pass = "cse".to_string();
        let o1 = || Pipeline::for_options(&Options::o1());
        let reference = compile_with(o1(), None);
        for damage in [cut_one, rename_one] {
            let dir = scratch("cells-not-the-pipelines");
            compile_with(o1(), Some(&dir));
            drop_manifests(&dir);
            let victim = entries(&dir).remove(0);
            reseal(&mut CacheStore::open(&dir), &victim, |il, section| {
                let mut cells: Vec<RecordedCell> = wire::from_bytes(section).expect("cells decode");
                damage(&mut cells);
                (il.to_vec(), wire::to_bytes(&cells))
            });

            // refused where it is seeded, not merely left unreplayed:
            // quarantined, counted, and its procedure compiled cold
            let warm = compile_with(o1(), Some(&dir));
            assert_eq!((warm.stats.corrupt, warm.stats.quarantined), (1, 1));
            assert_eq!((warm.stats.hits, warm.stats.misses), (1, 1));
            assert_eq!(warm.stats.passes_executed, 5);
            assert_eq!(output(&reference), output(&warm));
            // compiled cold and re-published: fully warm and clean again
            let healed = compile_with(o1(), Some(&dir));
            assert!(healed.stats.full_warm);
            assert_eq!(healed.stats.corrupt, 0);
            assert_eq!(output(&reference), output(&healed));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A prefix pass that adds a procedure leaves positions meaningless:
    /// the seeded hits do not replay, and nothing is persisted.
    #[test]
    fn a_stage_that_changes_the_procedure_count_ends_replay_and_persists_nothing() {
        // over a primed directory: the seeded hits must not replay
        let reference = compile_with(grow_pipeline(true), None);
        assert_eq!(reference.compilation.program.procs.len(), 3);
        let dir = scratch("grow-primed");
        compile_with(grow_pipeline(false), Some(&dir));
        drop_manifests(&dir);
        let primed = dir_image(&dir);
        assert_eq!(entries(&dir).len(), 2);
        let grown = compile_with(grow_pipeline(true), Some(&dir));
        assert_eq!((grown.stats.hits, grown.stats.misses), (0, 3));
        assert_eq!(grown.stats.passes_executed, 1 + 3);
        assert_eq!((grown.stats.write_failed, grown.stats.corrupt), (0, 0));
        assert_eq!(output(&reference), output(&grown));
        assert!(dir_image(&dir) == primed, "nothing was persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites the one session manifest of `dir` through `damage` and
    /// re-seals it: a checksum-valid manifest only its checks can refuse.
    fn reseal_manifest(dir: &Path, damage: impl FnOnce(&mut Manifest)) {
        let file = dir_image(dir)
            .into_keys()
            .find(|n| n.starts_with("session-"))
            .expect("a manifest was published");
        let mut store = CacheStore::open(dir);
        let mut manifest = decode_manifest(&store.read(&file).expect("reads")).expect("decodes");
        damage(&mut manifest);
        assert!(store.publish(&file, &encode_manifest(&manifest)));
    }

    /// A manifest whose records do not name exactly the prefix's passes is
    /// damage: quarantined and counted, and the prefix runs for real while
    /// every entry replays.
    #[test]
    fn a_manifest_whose_records_are_not_the_prefixs_is_refused_whole() {
        type Damage = fn(&mut Manifest);
        let renamed: Damage = |m| m.stages[0].pass = "inlined".to_string();
        let extra: Damage = |m| m.stages.push(m.stages[0].clone());
        let missing: Damage = |m| m.stages.clear();
        let reference = compile(None);
        for damage in [renamed, extra, missing] {
            let dir = scratch("manifest-stages");
            compile(Some(&dir));
            reseal_manifest(&dir, damage);
            let warm = compile(Some(&dir));
            assert!(!warm.stats.full_warm);
            assert_eq!((warm.stats.corrupt, warm.stats.quarantined), (1, 1));
            assert_eq!((warm.stats.hits, warm.stats.misses), (2, 0));
            assert_eq!(warm.stats.passes_executed, 1, "the prefix alone");
            assert_eq!(output(&reference), output(&warm));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Under verification, a manifest whose environment the verifier
    /// rejects around the entries' IL is refused like any damaged file:
    /// quarantined and counted. The prefix then runs for real and every
    /// entry replays, to the store-less output plus the corrupt-file
    /// warning, and the re-published manifest makes the next run fully
    /// warm again.
    #[test]
    fn a_manifest_the_verifier_rejects_is_quarantined_and_counted() {
        let src = "struct pt { float x; float y; };\nstruct pt origin;\n\
            float sum(void) { return origin.x + origin.y; }\n\
            int main(void) { origin.x = 1.0f; origin.y = sum(); return 0; }\n";
        let files = [SourceFile::new("s.c", src)];
        let options = Options {
            verify: true,
            ..Options::o2()
        };
        let compile = |dir| compile_session(&files, &options, dir).expect("compiles");
        let messages = |sc: &SessionCompilation| {
            let diags = sc.compilation.diagnostics.iter();
            diags.map(|d| d.message.clone()).collect::<Vec<_>>()
        };
        let reference = compile(None);
        let dir = scratch("manifest-verifier");
        compile(Some(&dir));
        reseal_manifest(&dir, |manifest| {
            // `origin` is struct-typed: an emptied struct table leaves it
            // dangling
            assert_eq!(manifest.structs.len(), 1);
            manifest.structs.clear();
        });

        let warm = compile(Some(&dir));
        assert!(!warm.stats.full_warm);
        assert_eq!((warm.stats.corrupt, warm.stats.quarantined), (1, 1));
        assert_eq!((warm.stats.hits, warm.stats.misses), (2, 0));
        assert_eq!(warm.stats.passes_executed, 1, "the prefix alone");
        assert!(!warm.compilation.trace.has_incidents());
        assert_eq!(output(&reference), output(&warm));
        let mut expected = messages(&reference);
        expected.push(
            "1 corrupt cache file(s) detected (1 quarantined); the affected procedures \
             were recompiled cold"
                .to_string(),
        );
        assert_eq!(messages(&warm), expected);

        let healed = compile(Some(&dir));
        assert!(healed.stats.full_warm);
        assert_eq!(healed.stats.corrupt, 0);
        assert_eq!(output(&reference), output(&healed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // resident sessions: the same loads, over bytes held in memory
    // -----------------------------------------------------------------

    fn compile_resident(resident: &ResidentCache) -> SessionCompilation {
        let files = [SourceFile::new("t.c", SRC)];
        let options = Options::o2();
        compile_session_resident(&files, &options, base_pipeline(&options), resident)
            .expect("compiles")
    }

    #[test]
    fn quarantine_evicts_the_resident_bytes_with_the_file() {
        let reference = compile(None);
        let dir = scratch("resident-quarantine");
        let resident = ResidentCache::new(Some(&dir));
        compile_resident(&resident);
        assert!(compile_resident(&resident).stats.full_warm);
        // two entries, the manifest and the index
        assert_eq!(resident.entries(), 4);

        let victim = entries(&dir).remove(0);
        let mut store = CacheStore::open_resident(&resident);
        store.quarantine(&victim);
        assert_eq!((store.stats.corrupt, store.stats.quarantined), (1, 1));
        assert_eq!(resident.entries(), 3, "gone from the resident layer");
        assert!(!dir.join(&victim).exists(), "and from the directory");

        // the next request recompiles exactly that procedure, cold
        let healed = compile_resident(&resident);
        assert_eq!((healed.stats.hits, healed.stats.misses), (1, 1));
        assert_eq!(healed.stats.corrupt, 0);
        assert_eq!(il_text(&reference), il_text(&healed));
        assert_eq!(resident.entries(), 4);
        assert!(compile_resident(&resident).stats.full_warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The name → key index is wire bytes like every other cache file: a
    /// session over an edited file reads it and counts the invalidation,
    /// and one whose payload does not decode is quarantined and counted
    /// corrupt, feeds no invalidation, and is written whole again.
    #[test]
    fn the_index_is_wire_bytes_and_a_damaged_one_is_quarantined() {
        let dir = scratch("index");
        compile(Some(&dir));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("index-"))
            .collect();
        assert_eq!(names, [index_name(&[SourceFile::new("t.c", SRC)])]);
        assert!(names[0].ends_with(".bin"), "{names:?}");
        let edit = |salt: &str| {
            let files = [SourceFile::new("t.c", SRC.replace("1.0f", salt))];
            compile_session(&files, &Options::o2(), Some(&dir)).expect("compiles")
        };
        assert_eq!(edit("2.0f").stats.invalidated, 1, "main was edited");

        assert!(CacheStore::open(&dir).publish(&names[0], &[0xff; 3]));
        let damaged = edit("3.0f");
        assert_eq!(damaged.stats.invalidated, 0, "no map, no invalidation");
        assert_eq!((damaged.stats.corrupt, damaged.stats.quarantined), (1, 1));
        assert_eq!(edit("4.0f").stats.invalidated, 1, "rewritten whole");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damages the payload `victim` through `store` (the second name is
    /// the other procedure's entry).
    type Damage = fn(&mut CacheStore, &str, &str);

    /// Every check a one-shot load runs on each read, a resident read runs
    /// too: a payload that fails one is quarantined and counted exactly as
    /// the one-shot path counts it, and the procedure is recompiled to the
    /// same bytes — whether the damaged bytes came from the directory or
    /// were already resident in a warm daemon, which checks them on every
    /// read, not once. Each case damages one thing only, so removing the
    /// check it names replays the entry (`corrupt` 0) and fails the case.
    #[test]
    fn a_resident_read_runs_every_check_a_load_runs() {
        let version: Damage = |store, victim, _| {
            let mut payload = store.read(victim).expect("entry reads").to_vec();
            payload[..4].copy_from_slice(&(ENTRY_VERSION + 1).to_le_bytes());
            assert!(store.publish(victim, &payload));
        };
        let decode: Damage = |store, victim, _| {
            reseal(store, victim, |il, cells| {
                (il[..il.len() - 1].to_vec(), cells.to_vec())
            });
        };
        let name: Damage = |store, victim, other| {
            // a perfectly good entry — of the other procedure
            let payload = store.read(other).expect("entry reads").to_vec();
            assert!(store.publish(victim, &payload));
        };
        let verifier: Damage = |store, victim, _| {
            // decodes cleanly, but jumps to a label nobody defines
            reseal(store, victim, |il, cells| {
                let mut p = titanc_il::decode_proc(il).expect("entry decodes");
                let dangling = p.fresh_label();
                let st = p.stamp(titanc_il::StmtKind::Goto(dangling));
                p.body.push(st);
                (titanc_il::encode_proc(&p), cells.to_vec())
            });
        };
        // only a file has an envelope: the checksum case damages the disk
        let cases: [(&str, Option<Damage>); 5] = [
            ("checksum", None),
            ("entry version", Some(version)),
            ("decode", Some(decode)),
            ("name", Some(name)),
            ("verifier", Some(verifier)),
        ];

        let reference = compile(None);
        for (what, damage) in cases {
            let dir = scratch("resident-checks");
            compile(Some(&dir));
            let names = entries(&dir);
            match damage {
                Some(damage) => damage(&mut CacheStore::open(&dir), &names[0], &names[1]),
                None => {
                    // a valid payload under a digest that is not its own
                    let path = dir.join(&names[0]);
                    let mut bytes = std::fs::read(&path).expect("entry file");
                    let at = CACHE_FORMAT.len() + 1;
                    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
                    std::fs::write(&path, bytes).expect("rewrite");
                }
            }

            let one_shot_dir = scratch("resident-checks-oneshot");
            copy_dir(&dir, &one_shot_dir);
            let one_shot = compile(Some(&one_shot_dir));
            let counted = |sc: &SessionCompilation| {
                let s = &sc.stats;
                (s.hits, s.misses, s.corrupt, s.quarantined)
            };
            assert_eq!(counted(&one_shot), (1, 1, 1, 1), "{what}");

            let resident = ResidentCache::new(Some(&dir));
            let served = compile_resident(&resident);
            assert_eq!(il_text(&reference), il_text(&served), "{what}");
            assert_eq!(
                counted(&served),
                counted(&one_shot),
                "{what}: a refused resident read is accounted like a refused load"
            );
            let healed = compile_resident(&resident);
            assert!(healed.stats.full_warm, "{what}");
            assert_eq!(healed.stats.corrupt, 0, "{what}");
            assert_eq!(il_text(&reference), il_text(&healed), "{what}");

            // the same damage to bytes a warm daemon already holds
            if let Some(damage) = damage {
                let mut store = CacheStore::open_resident(&resident);
                damage(&mut store, &names[0], &names[1]);
                let again = compile_resident(&resident);
                assert_eq!(il_text(&reference), il_text(&again), "{what}");
                assert_eq!(counted(&again), counted(&one_shot), "{what}, resident");
            }
            let warm = compile_resident(&resident);
            assert!(warm.stats.full_warm, "{what}");
            assert_eq!(il_text(&reference), il_text(&warm), "{what}");
            for d in [dir, one_shot_dir] {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).expect("mkdir");
        for e in std::fs::read_dir(from).expect("cache dir") {
            let e = e.expect("entry");
            if e.path().is_file() {
                std::fs::copy(e.path(), to.join(e.file_name())).expect("copy");
            }
        }
    }

    /// A manifest of another entry version is refused on a resident read
    /// — from the directory, and again once the daemon holds the bytes.
    #[test]
    fn a_manifest_of_another_version_is_refused_on_a_resident_read() {
        let reference = compile(None);
        let dir = scratch("manifest-version");
        compile(Some(&dir));
        let manifest = std::fs::read_dir(&dir)
            .expect("cache dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .find(|n| n.starts_with("session-"))
            .expect("a manifest was published");
        let skew = |store: &mut CacheStore| {
            let mut payload = store.read(&manifest).expect("reads").to_vec();
            payload[..4].copy_from_slice(&(ENTRY_VERSION + 1).to_le_bytes());
            assert!(store.publish(&manifest, &payload));
        };
        skew(&mut CacheStore::open(&dir));

        let resident = ResidentCache::new(Some(&dir));
        for round in ["from the directory", "resident"] {
            let served = compile_resident(&resident);
            // the entries still hit (and replay); only the shortcut is gone
            assert!(!served.stats.full_warm, "{round}");
            assert_eq!((served.stats.hits, served.stats.misses), (2, 0), "{round}");
            let damage = (served.stats.corrupt, served.stats.quarantined);
            assert_eq!(damage, (1, 1), "{round}");
            assert_eq!(il_text(&reference), il_text(&served), "{round}");
            assert!(compile_resident(&resident).stats.full_warm, "{round}");
            skew(&mut CacheStore::open_resident(&resident));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With one layer held to a budget one byte short of what it weighs
    /// when nothing is evicted (the other at its shipped budget), a daemon
    /// answering two programs in turn evicts on almost every admission.
    /// Eviction can only cost recomputation: each reply is still the
    /// store-less reference's bytes, whether the daemon re-read the
    /// directory, re-executed an evicted reply, or — on a memory-only
    /// daemon, where an evicted payload was the only copy — recompiled.
    #[test]
    fn an_evicted_value_re_misses_to_the_same_bytes() {
        let second =
            "float c[64];\nvoid fill(void) { int i; for (i = 0; i < 64; i++) c[i] = 3.0f; }\n";
        let request = |files: Vec<SourceFile>| CompileRequest {
            files,
            print_il: true,
            opt_report: "json".to_string(),
            ..CompileRequest::default()
        };
        let requests = [
            request(vec![
                SourceFile::new("t.c", SRC),
                SourceFile::new("u.c", second),
            ]),
            request(vec![SourceFile::new("t.c", SRC)]),
        ];
        let references = requests.clone().map(|req| {
            let storeless = compile_session(&req.files, &req.options(), None);
            let (stdout, stderr, exit) = render(&req, &storeless, false);
            (i64::from(exit), stdout, stderr)
        });
        let serve = |server: &Server, req: &CompileRequest| {
            let Reply::Line(line) = server.handle_line(&req.to_json().to_string_compact()) else {
                panic!("unexpected shutdown ack");
            };
            let doc = titanc_il::json::parse(&line).expect("a response line");
            let resp = CompileResponse::from_json(&doc).expect("a response");
            let stderr = resp
                .stderr
                .lines()
                .filter(|l| !l.starts_with("titanc: cache:"));
            (
                resp.exit,
                resp.stdout,
                stderr.map(|l| format!("{l}\n")).collect(),
            )
        };
        // what the two layers weigh when nothing is evicted: cold, fully
        // warm (and admitted), reply hit
        let roomy = Server::over(ResidentCache::new(None));
        for _ in 0..3 {
            requests.iter().for_each(|req| drop(serve(&roomy, req)));
        }
        assert_eq!(roomy.totals().reply_hits, 2);
        let full = roomy
            .resident()
            .memos()
            .counts()
            .map(|c| c.resident_bytes as usize);

        let dir = scratch("evict");
        for (layer, bytes) in full.into_iter().enumerate() {
            let mut budgets = BUDGETS;
            budgets[layer] = bytes - 1;
            for backing in [None, Some(dir.as_path())] {
                let _ = std::fs::remove_dir_all(&dir);
                let server = Server::over(ResidentCache::with_budgets(backing, budgets));
                for round in 0..4 {
                    for (req, reference) in requests.iter().zip(&references) {
                        assert_eq!(&serve(&server, req), reference, "round {round}");
                    }
                }
                let counts = server.resident().memos().counts();
                assert!(counts
                    .iter()
                    .zip(budgets)
                    .all(|(c, b)| c.resident_bytes as usize <= b));
                assert!(counts[layer].evicted > 0, "layer {layer}");
                let totals = server.totals();
                assert_eq!(totals.corrupt, 0, "eviction is not damage");
                // over a directory whatever was evicted is read again, so
                // every round after the first is still fully warm
                assert!(backing.is_none() || totals.fully_warm == 6, "{totals}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
