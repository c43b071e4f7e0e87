//! Hardened on-disk storage for the persistent compilation cache.
//!
//! The cache in [`crate::session`] is an accelerator, never a
//! correctness risk — but that contract only holds if every on-disk
//! interaction degrades to a cold compile instead of a crash, a torn
//! file, or (worst of all) silently replaying wrong IL. `CacheStore`
//! is the single point through which all cache bytes flow, and it
//! enforces four properties:
//!
//! * **Atomic publish.** Every file is written to a temporary name in
//!   the cache directory, fsynced, and renamed into place. Readers
//!   never observe a half-written entry; a crash mid-write leaves at
//!   worst an orphaned `.tmp-*` file.
//! * **Checksummed envelopes.** Every file starts with a one-line
//!   text header — the format name and a 128-bit
//!   [`titanc_il::StableHasher`] digest of the payload — followed by the payload bytes (binary for entries and
//!   manifests, JSON text for the index), so a bit flip, truncation, or
//!   encoding skew is detected before the payload is decoded, not after
//!   it has been trusted. The envelope is [`titanc_il::wire::seal`]'s,
//!   under `CACHE_FORMAT`; §7 catalogs use it under their own name.
//! * **Quarantine-and-miss.** A file that fails the checksum (or
//!   decodes to something the IL verifier rejects) is moved into a
//!   `quarantine/` subdirectory and treated as a miss. The bad bytes
//!   are preserved for post-mortem instead of being re-read forever or
//!   silently deleted.
//! * **Whole values under their own names.** Every file is either
//!   content-addressed — an entry or a manifest, named by the hash of
//!   everything its bytes are a function of — or a complete value that is
//!   overwritten whole: the index of one set of input files, named by
//!   those files. Concurrent `titanc` processes sharing one `--cache-dir`
//!   therefore never read-modify-write anything: two writers of one name
//!   publish the same bytes (or, for an index, each a complete one), and
//!   the last rename wins harmlessly. There is no lock to take, break or
//!   wait for.
//!
//! The [`ResidentCache`] layer on top is the `titand` compile server's
//! shared memory: two keyed `Memo`s of bytes — the unsealed payload of
//! every cache file the daemon published or read, and finished replies —
//! each under a fixed byte budget. A resident payload stands in for the
//! file's envelope only: whoever reads it decodes and checks it exactly
//! as a one-shot session checks what it reads from disk. Every request's
//! store reads through the layer and writes through to the backing
//! directory, so the daemon and one-shot processes interoperate on the
//! same `--cache-dir`.
//!
//! The store also hosts the `TITANC_INJECT_IO` fault hook (a sibling of
//! `TITANC_INJECT_PANIC`): reads, writes, and renames can be made to
//! fail, truncate, or delay with a configured probability, either from
//! the environment or programmatically via [`install_io_faults`] — the
//! lever the sweep's `cache-faults` check (`stress --check cache-faults`)
//! uses to prove the degradation paths.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use titanc_il::wire::{seal, unseal};

use crate::memo::{Memo, MemoCounts};
use crate::server::{MemoReply, ReplyKey};
use crate::session::SessionStats;

/// On-disk cache format name. Written to the directory's `FORMAT`
/// marker and prefixed to every envelope header; folded into every
/// content hash so a format change invalidates wholesale. v5 made the
/// entries' IL binary wire bytes ([`titanc_il::wire`]) instead of JSON
/// text; v6 does the same for their recorded cells and for the session
/// manifest, which keeps only what no entry holds. v7 replaced the
/// byte-at-a-time FNV-1a digest with the block hash of
/// [`titanc_il::hash`], which moves every key and every envelope
/// checksum: without the bump a v6 directory would fail every checksum
/// and be quarantined file by file. A directory whose
/// marker says anything else — or that holds files but no marker at all —
/// is refused cleanly: one remark, cold compile, nothing touched.
pub(crate) const CACHE_FORMAT: &str = "titanc-cache-v7";

/// The directory-level format marker file.
const MARKER_FILE: &str = "FORMAT";
/// Where corrupt files are preserved for post-mortem.
const QUARANTINE_DIR: &str = "quarantine";

/// Process-global uniquifier for temp and quarantine file names. A
/// per-store counter is not enough once several `CacheStore`s share one
/// process — the compile server opens one per request, and two
/// concurrent requests publishing the same entry would collide on
/// `.tmp-<name>-<pid>-0` and tear each other's writes.
fn next_unique() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// IO fault injection (`TITANC_INJECT_IO`)
// ---------------------------------------------------------------------

/// Which file operation a fault rule applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoOp {
    /// Reading a cache file.
    Read,
    /// Writing a temporary file (the first half of a publish).
    Write,
    /// Renaming a temporary file into place (the second half).
    Rename,
}

/// What an injected fault does to the operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultMode {
    /// The operation fails with an I/O error.
    Fail,
    /// Reads return half the bytes; writes persist half the bytes but
    /// *report success* — a torn write, the nastiest real-world case.
    /// On a rename, truncation degrades to [`FaultMode::Fail`].
    Truncate,
    /// The operation sleeps briefly first (widens race windows).
    Delay,
}

/// A fault-injection profile: rules matched per operation, each firing
/// with its own probability from a deterministic per-decision PRNG.
///
/// Parsed from `TITANC_INJECT_IO` (see [`IoFaultSpec::parse`]) or built
/// programmatically and installed with [`install_io_faults`].
#[derive(Clone, Debug, Default)]
pub struct IoFaultSpec {
    rules: Vec<(IoOp, FaultMode, f64)>,
    seed: u64,
}

impl IoFaultSpec {
    /// An empty spec (no faults) with the given PRNG seed.
    pub fn new(seed: u64) -> IoFaultSpec {
        IoFaultSpec {
            rules: Vec::new(),
            seed,
        }
    }

    /// Adds a rule: `op` suffers `mode` with probability `prob` (0–1).
    /// Rules are tried in insertion order; the first that fires wins.
    pub fn rule(mut self, op: IoOp, mode: FaultMode, prob: f64) -> IoFaultSpec {
        self.rules.push((op, mode, prob.clamp(0.0, 1.0)));
        self
    }

    /// Parses the `TITANC_INJECT_IO` syntax: comma-separated
    /// `op:mode:prob` rules plus an optional `seed:N`, e.g.
    ///
    /// ```text
    /// TITANC_INJECT_IO="read:fail:0.05,write:truncate:0.1,rename:fail:0.2,seed:42"
    /// ```
    ///
    /// Operations are `read`, `write`, `rename`; modes are `fail`,
    /// `truncate`, `delay`; probabilities are decimal in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(s: &str) -> Result<IoFaultSpec, String> {
        let mut spec = IoFaultSpec::new(0x10_FA_17);
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(seed) = clause.strip_prefix("seed:") {
                spec.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed in `{clause}`"))?;
                continue;
            }
            let mut parts = clause.split(':');
            let (op, mode, prob) = (parts.next(), parts.next(), parts.next());
            if parts.next().is_some() {
                return Err(format!("too many `:` in `{clause}`"));
            }
            let op = match op {
                Some("read") => IoOp::Read,
                Some("write") => IoOp::Write,
                Some("rename") => IoOp::Rename,
                _ => return Err(format!("unknown operation in `{clause}`")),
            };
            let mode = match mode {
                Some("fail") => FaultMode::Fail,
                Some("truncate") => FaultMode::Truncate,
                Some("delay") => FaultMode::Delay,
                _ => return Err(format!("unknown mode in `{clause}`")),
            };
            let prob: f64 = prob
                .and_then(|p| p.parse().ok())
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| format!("bad probability in `{clause}`"))?;
            spec.rules.push((op, mode, prob));
        }
        Ok(spec)
    }

    fn from_env() -> Option<IoFaultSpec> {
        let raw = std::env::var("TITANC_INJECT_IO").ok()?;
        match IoFaultSpec::parse(&raw) {
            Ok(spec) if !spec.rules.is_empty() => Some(spec),
            Ok(_) => None,
            Err(why) => {
                eprintln!("titanc: ignoring malformed TITANC_INJECT_IO: {why}");
                None
            }
        }
    }
}

/// Installed spec plus the decision counter that drives its PRNG.
struct FaultState {
    spec: IoFaultSpec,
    counter: u64,
}

fn fault_state() -> &'static Mutex<Option<FaultState>> {
    static STATE: OnceLock<Mutex<Option<FaultState>>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(IoFaultSpec::from_env().map(|spec| FaultState { spec, counter: 0 }))
    })
}

/// Installs (or, with `None`, clears) the process-wide IO fault profile.
///
/// Overrides anything parsed from `TITANC_INJECT_IO`. The state is
/// **process-global**: tests that install faults must serialize against
/// other cache-touching tests in the same binary.
pub fn install_io_faults(spec: Option<IoFaultSpec>) {
    let mut guard = fault_state().lock().unwrap_or_else(|e| e.into_inner());
    *guard = spec.map(|spec| FaultState { spec, counter: 0 });
}

/// One fault decision for `op`: `None` means "perform it for real".
fn decide(op: IoOp) -> Option<FaultMode> {
    let mut guard = fault_state().lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.as_mut()?;
    for &(rule_op, mode, prob) in &state.spec.rules {
        if rule_op != op {
            continue;
        }
        state.counter += 1;
        // splitmix64 finalizer over (seed, decision index): deterministic
        // for a single-threaded run, well-spread, dependency-free
        let mut z = state
            .spec
            .seed
            .wrapping_add(state.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        if unit < prob {
            return Some(mode);
        }
    }
    None
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected {what} fault (TITANC_INJECT_IO)"))
}

/// Reads a whole file through the fault layer. Truncation cuts the byte
/// stream in half — exactly what a torn write leaves behind.
fn faulty_read(path: &Path) -> io::Result<Vec<u8>> {
    match decide(IoOp::Read) {
        Some(FaultMode::Fail) => return Err(injected("read")),
        Some(FaultMode::Truncate) => {
            let mut bytes = fs::read(path)?;
            bytes.truncate(bytes.len() / 2);
            return Ok(bytes);
        }
        Some(FaultMode::Delay) => std::thread::sleep(Duration::from_millis(1)),
        None => {}
    }
    fs::read(path)
}

/// Writes and fsyncs through the fault layer. A truncation fault writes
/// half the bytes and **reports success** — the caller's rename then
/// publishes a torn file, which the checksum must catch on read.
fn faulty_write_sync(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(path)?;
    match decide(IoOp::Write) {
        Some(FaultMode::Fail) => return Err(injected("write")),
        Some(FaultMode::Truncate) => {
            file.write_all(&bytes[..bytes.len() / 2])?;
            let _ = file.sync_all();
            return Ok(());
        }
        Some(FaultMode::Delay) => std::thread::sleep(Duration::from_millis(1)),
        None => {}
    }
    file.write_all(bytes)?;
    file.sync_all()
}

/// Renames through the fault layer (truncation degrades to failure —
/// there is no half-rename).
fn faulty_rename(from: &Path, to: &Path) -> io::Result<()> {
    match decide(IoOp::Rename) {
        Some(FaultMode::Fail | FaultMode::Truncate) => return Err(injected("rename")),
        Some(FaultMode::Delay) => std::thread::sleep(Duration::from_millis(1)),
        None => {}
    }
    fs::rename(from, to)
}

/// One unsealed payload, borrowed from wherever the store found it: the
/// tail of the file it just read (no copy), or the resident layer's shared
/// allocation. Dereferences to the payload bytes.
pub(crate) enum Payload {
    /// A whole envelope read from disk; the payload starts at `start`.
    Disk { file: Vec<u8>, start: usize },
    /// A handle on the resident layer's copy.
    Resident(Arc<Vec<u8>>),
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Disk { file, start } => &file[*start..],
            Payload::Resident(bytes) => bytes,
        }
    }
}

// ---------------------------------------------------------------------
// The resident (in-memory) cache layer
// ---------------------------------------------------------------------

/// How many bytes each layer of a [`ResidentCache`] — raw payloads,
/// replies, in [`Memos`] order — keeps before least recently used values
/// make room: 96 MiB together, whatever the requests. Fixed on purpose:
/// every value is a pure function of bytes the daemon has seen, so
/// eviction can only cost a recomputation, and a bound an operator can
/// unset is not a bound.
const MIB: usize = 1 << 20;
pub(crate) const BUDGETS: [usize; 2] = [64 * MIB, 32 * MIB];

/// The compile server's memo layers.
pub(crate) struct Memos {
    /// File name → the unsealed payload this daemon published or read
    /// (its envelope checksum already passed; nothing else about it has).
    raw: Memo<String, Vec<u8>>,
    /// Request minus `id` and `jobs` → the finished fully warm reply; see
    /// [`crate::server`] for what admits one.
    pub(crate) replies: Memo<ReplyKey, MemoReply>,
}

impl Memos {
    /// What each layer has counted so far, in [`BUDGETS`] order.
    pub(crate) fn counts(&self) -> [MemoCounts; 2] {
        [self.raw.counts(), self.replies.counts()]
    }
}

/// The compile server's process-shared, in-memory cache layer.
///
/// A `ResidentCache` is shared by all the `CacheStore`s opened against
/// it — one per request in the daemon. It keeps the unsealed payload of
/// every cache file a request published or read, so a later read skips
/// the disk and the envelope checksum; the decode and every check after
/// it run on each read, as they do in a one-shot session. Published
/// payloads write through to the backing `--cache-dir` (when there is
/// one) so one-shot `titanc` processes and the daemon interoperate on the
/// same directory.
#[derive(Clone)]
pub struct ResidentCache {
    inner: Arc<ResidentInner>,
}

struct ResidentInner {
    dir: Option<PathBuf>,
    memos: Memos,
}

impl ResidentCache {
    /// A resident cache over `dir` (write-through), or fully in-memory
    /// with `None` — the daemon still caches, it just shares nothing
    /// with one-shot processes and forgets everything on exit.
    pub fn new(dir: Option<&Path>) -> ResidentCache {
        ResidentCache::with_budgets(dir, BUDGETS)
    }

    /// [`ResidentCache::new`] with each layer held to its own budget, so a
    /// test can watch eviction happen.
    pub(crate) fn with_budgets(dir: Option<&Path>, [raw, replies]: [usize; 2]) -> Self {
        ResidentCache {
            inner: Arc::new(ResidentInner {
                dir: dir.map(Path::to_path_buf),
                memos: Memos {
                    raw: Memo::new(raw, Vec::len),
                    replies: Memo::new(replies, MemoReply::weight),
                },
            }),
        }
    }

    /// The backing directory, if the cache writes through to disk.
    pub fn dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// How many cache payloads are resident right now.
    pub fn entries(&self) -> usize {
        self.inner.memos.raw.len()
    }

    /// The memo layers.
    pub(crate) fn memos(&self) -> &Memos {
        &self.inner.memos
    }

    fn put(&self, name: &str, payload: &[u8]) -> Arc<Vec<u8>> {
        self.inner
            .memos
            .raw
            .insert(name.to_string(), payload.to_vec())
    }
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// A hardened handle on one cache directory. All session cache IO goes
/// through here; see the module docs for the guarantees.
pub(crate) struct CacheStore {
    dir: PathBuf,
    /// False for a pure in-memory resident store — every disk
    /// interaction (reads, publishes) is skipped.
    disk: bool,
    /// False when the directory belongs to another format version —
    /// every read misses and every write is skipped.
    enabled: bool,
    /// The shared in-memory layer, when this store belongs to a compile
    /// server. Reads hit it first; publishes write through it.
    resident: Option<ResidentCache>,
    /// The one-shot remark explaining a disabled store.
    format_warning: Option<String>,
    /// What this layer observed — its share of the session accounting
    /// line: `corrupt`, `quarantined`, `write_failed`.
    pub(crate) stats: SessionStats,
    /// First write failure, for the surfaced warning (the counter has
    /// the total; repeating the message per entry would be noise).
    first_write_error: Option<String>,
    /// True while a rename into the directory has not been followed by a
    /// directory fsync ([`CacheStore::sync_dir`]).
    dir_dirty: bool,
}

impl CacheStore {
    /// Opens (creating if needed) a cache directory, validating its
    /// format marker. A marker naming another format — or no marker on a
    /// directory that already holds files — disables the store for the
    /// whole session: the compile proceeds cold and one remark explains
    /// why. Never an error.
    pub(crate) fn open(dir: &Path) -> CacheStore {
        let mut store = CacheStore {
            dir: dir.to_path_buf(),
            disk: true,
            enabled: false,
            resident: None,
            format_warning: None,
            stats: SessionStats::default(),
            first_write_error: None,
            dir_dirty: false,
        };
        if let Err(e) = fs::create_dir_all(dir) {
            store.note_write_failure(&format!("cannot create cache directory: {e}"));
            return store;
        }
        let marker = faulty_read(&dir.join(MARKER_FILE))
            .ok()
            .map(|bytes| String::from_utf8_lossy(&bytes).trim().to_string());
        match marker {
            Some(found) if found == CACHE_FORMAT => store.enabled = true,
            // an empty directory is adopted (a failed marker publish is
            // counted write_failed and the store stays disabled)
            None if !store.has_entries() => {
                store.enabled =
                    store.publish_raw(MARKER_FILE, format!("{CACHE_FORMAT}\n").as_bytes());
                store.sync_dir();
            }
            found => {
                store.format_warning = Some(format!(
                    "cache directory `{}` is not a `{CACHE_FORMAT}` cache (format marker: {}); \
                     compiling cold (clear the directory to re-enable)",
                    dir.display(),
                    found.map_or("missing or unreadable".to_string(), |f| format!(
                        "`{}`",
                        f.escape_default()
                    )),
                ));
            }
        }
        store
    }

    /// Opens a store against the compile server's resident layer: disk
    /// semantics (format marker, write-through) come
    /// from the layer's backing directory when it has one; without a
    /// directory the store is purely in-memory and always enabled.
    pub(crate) fn open_resident(resident: &ResidentCache) -> CacheStore {
        match resident.dir() {
            Some(dir) => {
                let mut store = CacheStore::open(dir);
                store.resident = Some(resident.clone());
                store
            }
            None => CacheStore {
                dir: PathBuf::new(),
                disk: false,
                enabled: true,
                resident: Some(resident.clone()),
                format_warning: None,
                stats: SessionStats::default(),
                first_write_error: None,
                dir_dirty: false,
            },
        }
    }

    /// True when reads and writes are live (format marker matched).
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// The remark explaining a disabled store, if any.
    pub(crate) fn format_warning(&self) -> Option<&str> {
        self.format_warning.as_deref()
    }

    /// The first write failure's rendering, for the surfaced warning.
    pub(crate) fn first_write_error(&self) -> Option<&str> {
        self.first_write_error.as_deref()
    }

    /// Anything in the directory is state we must not misread or clobber
    /// — except what a concurrent first opener of the same empty
    /// directory may be publishing right now: the marker itself and the
    /// store's transient `.tmp-*` files. Every dotfile is skipped, so an
    /// older build's `.lock` files count for nothing either.
    fn has_entries(&self) -> bool {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return true; // unreadable: assume occupied, stay disabled
        };
        entries.flatten().any(|e| {
            let name = e.file_name();
            name != MARKER_FILE && !name.as_encoded_bytes().starts_with(b".")
        })
    }

    /// Reads and unseals `name`. The resident map is consulted first —
    /// its payloads already passed the checksum on the way in. On disk,
    /// a missing file (or an I/O error — the bytes may be fine, the
    /// read wasn't) is a plain miss; an envelope that fails the format
    /// or checksum is quarantined and counted. Disk hits populate the
    /// resident map so the next request never touches the file.
    pub(crate) fn read(&mut self, name: &str) -> Option<Payload> {
        if !self.enabled {
            return None;
        }
        if let Some(resident) = &self.resident {
            if let Some(payload) = resident.memos().raw.get(name, |_| true) {
                return Some(Payload::Resident(payload));
            }
        }
        if !self.disk {
            return None;
        }
        let file = faulty_read(&self.dir.join(name)).ok()?;
        let Some(payload) = unseal(CACHE_FORMAT, &file) else {
            self.quarantine(name);
            return None;
        };
        Some(match &self.resident {
            Some(resident) => Payload::Resident(resident.put(name, payload)),
            None => Payload::Disk {
                start: file.len() - payload.len(),
                file,
            },
        })
    }

    /// Seals `payload` and publishes it atomically under `name`:
    /// temp-file in the cache directory, fsync, rename into place (the
    /// rename itself becomes durable at the caller's next
    /// [`CacheStore::sync_dir`]). Failures are counted (and the first is
    /// kept for the warning); the temp file is removed on any failure
    /// path. With a resident layer the payload also lands in the shared
    /// map — but only after the disk accepted it, so memory and disk never
    /// disagree about what was published.
    pub(crate) fn publish(&mut self, name: &str, payload: &[u8]) -> bool {
        if !self.enabled {
            return false;
        }
        let ok = !self.disk || self.publish_raw(name, &seal(CACHE_FORMAT, payload));
        if ok {
            if let Some(resident) = &self.resident {
                resident.put(name, payload);
            }
        }
        ok
    }

    /// The atomic write-fsync-rename sequence, used both for sealed
    /// payloads and the raw format marker.
    fn publish_raw(&mut self, name: &str, bytes: &[u8]) -> bool {
        let tmp = self.dir.join(format!(
            ".tmp-{name}-{}-{}",
            std::process::id(),
            next_unique()
        ));
        if let Err(e) = faulty_write_sync(&tmp, bytes) {
            let _ = fs::remove_file(&tmp);
            self.note_write_failure(&format!("cannot write `{name}`: {e}"));
            return false;
        }
        if let Err(e) = faulty_rename(&tmp, &self.dir.join(name)) {
            let _ = fs::remove_file(&tmp);
            self.note_write_failure(&format!("cannot publish `{name}`: {e}"));
            return false;
        }
        self.dir_dirty = true;
        true
    }

    /// Makes the renames since the last call durable, not just atomic:
    /// one best-effort directory fsync for the whole group. Every file
    /// was fsynced before its rename, so the group's *contents* are
    /// already safe; callers sync once after the entries and once after
    /// the derived files that name them, which keeps "entries durable
    /// before the manifest and index point at them".
    pub(crate) fn sync_dir(&mut self) {
        if std::mem::take(&mut self.dir_dirty) {
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
    }

    fn note_write_failure(&mut self, why: &str) {
        self.stats.write_failed += 1;
        if self.first_write_error.is_none() {
            self.first_write_error = Some(why.to_string());
        }
    }

    /// Moves `name` into `quarantine/` (counting it corrupt) so the bad
    /// bytes are preserved but never re-read. Falls back to deletion if
    /// the move fails; if even that fails, the file stays and will be
    /// re-detected next run.
    pub(crate) fn quarantine(&mut self, name: &str) {
        self.stats.corrupt += 1;
        if let Some(resident) = &self.resident {
            resident.memos().raw.remove(name);
        }
        if !self.disk {
            // eviction from the map *is* the quarantine: the bad bytes
            // are gone and can never be re-read
            self.stats.quarantined += 1;
            return;
        }
        let qdir = self.dir.join(QUARANTINE_DIR);
        let _ = fs::create_dir_all(&qdir);
        let dest = qdir.join(format!("{name}.{}.{}", std::process::id(), next_unique()));
        let src = self.dir.join(name);
        if fs::rename(&src, &dest).is_ok() || fs::remove_file(&src).is_ok() {
            self.stats.quarantined += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("titanc-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fault_spec_parses_the_env_syntax() {
        let spec =
            IoFaultSpec::parse("read:fail:0.5, write:truncate:0.25,rename:delay:1.0,seed:99")
                .expect("valid spec");
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.rules.len(), 3);
        assert_eq!(spec.rules[0], (IoOp::Read, FaultMode::Fail, 0.5));
        assert_eq!(spec.rules[1], (IoOp::Write, FaultMode::Truncate, 0.25));
        assert_eq!(spec.rules[2], (IoOp::Rename, FaultMode::Delay, 1.0));

        assert!(IoFaultSpec::parse("read:fail:2.0").is_err());
        assert!(IoFaultSpec::parse("chmod:fail:0.5").is_err());
        assert!(IoFaultSpec::parse("read:explode:0.5").is_err());
        assert!(IoFaultSpec::parse("read:fail:0.5:extra").is_err());
        assert!(IoFaultSpec::parse("seed:notanumber").is_err());
        assert!(IoFaultSpec::parse("").expect("empty ok").rules.is_empty());
    }

    #[test]
    fn publish_then_read_round_trips() {
        let dir = scratch("roundtrip");
        let mut store = CacheStore::open(&dir);
        assert!(store.enabled(), "fresh directory must adopt the format");
        assert!(store.publish("entry", b"{\"k\":1}"));
        assert_eq!(store.read("entry").as_deref(), Some(&b"{\"k\":1}"[..]));
        assert_eq!(store.stats, SessionStats::default());
        // no temp litter after a clean publish
        let litter = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(litter, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_and_miss() {
        let dir = scratch("quarantine");
        let mut store = CacheStore::open(&dir);
        assert!(store.publish("entry", b"payload"));
        // flip a byte on disk
        let path = dir.join("entry");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        assert!(store.read("entry").is_none());
        assert_eq!(store.stats.corrupt, 1);
        assert_eq!(store.stats.quarantined, 1);
        assert!(!path.exists(), "the corrupt file must be moved aside");
        assert!(
            fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count() == 1,
            "the bad bytes are preserved in quarantine/"
        );
        // a second read is a plain miss, not a second quarantine
        assert!(store.read("entry").is_none());
        assert_eq!(store.stats.corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skewed_directories_are_refused_cleanly() {
        let dir = scratch("skew");
        fs::create_dir_all(&dir).unwrap();
        // files but no marker (a v2-era directory looked like this)
        fs::write(dir.join("index.json"), "{\"procs\":{}}").unwrap();
        let mut store = CacheStore::open(&dir);
        assert!(!store.enabled());
        assert!(store.format_warning().unwrap().contains("missing"));
        assert!(store.read("index.json").is_none(), "disabled stores miss");
        assert!(!store.publish("x", b"y"), "disabled stores skip writes");
        assert_eq!(store.stats, SessionStats::default());
        assert!(
            dir.join("index.json").exists(),
            "foreign files are left untouched"
        );

        // any other marker — older or newer — is refused the same way
        let dir2 = scratch("skew2");
        fs::create_dir_all(&dir2).unwrap();
        fs::write(dir2.join(MARKER_FILE), "titanc-cache-v8\n").unwrap();
        let store2 = CacheStore::open(&dir2);
        assert!(!store2.enabled());
        assert!(store2.format_warning().unwrap().contains("titanc-cache-v8"));

        // transient dotfiles do not make a directory "populated": a racing
        // first opener may be mid-publish, and an older build left `.lock`
        let dir3 = scratch("skew3");
        fs::create_dir_all(&dir3).unwrap();
        fs::write(dir3.join(".tmp-FORMAT-1-0"), "titanc").unwrap();
        fs::write(dir3.join(".lock"), "1:00").unwrap();
        assert!(CacheStore::open(&dir3).enabled());
        for d in [dir, dir2, dir3] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn resident_layer_serves_hits_without_disk_and_writes_through() {
        let dir = scratch("resident");
        let resident = ResidentCache::new(Some(&dir));
        let mut store = CacheStore::open_resident(&resident);
        assert!(store.enabled());
        assert!(store.publish("entry", b"payload"));
        assert_eq!(resident.entries(), 1);

        // write-through: a plain (non-resident) store sees the entry…
        let mut oneshot = CacheStore::open(&dir);
        assert_eq!(oneshot.read("entry").as_deref(), Some(&b"payload"[..]));

        // …and the resident map survives disk loss (hits come from memory)
        fs::remove_file(dir.join("entry")).unwrap();
        let mut second = CacheStore::open_resident(&resident);
        assert_eq!(second.read("entry").as_deref(), Some(&b"payload"[..]));

        // a disk entry published by a one-shot process is adopted into
        // the map on first read, and later reads share that allocation
        assert!(oneshot.publish("other", b"from-oneshot"));
        let first = second.read("other").expect("adopted from disk");
        assert_eq!(&*first, b"from-oneshot");
        assert_eq!(resident.entries(), 2);
        match (first, second.read("other").expect("resident hit")) {
            (Payload::Resident(a), Payload::Resident(b)) => assert!(Arc::ptr_eq(&a, &b)),
            _ => panic!("a resident store hands out the map's own payloads"),
        }

        // a pure in-memory cache needs no directory at all
        let mem = ResidentCache::new(None);
        let mut memstore = CacheStore::open_resident(&mem);
        assert!(memstore.enabled());
        assert!(memstore.publish("x", b"y"));
        assert_eq!(memstore.read("x").as_deref(), Some(&b"y"[..]));
        let _ = fs::remove_dir_all(&dir);
    }
}
