//! Where things are: the release binaries under test and the one
//! directory the benchmark writes into.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::child::Spawner;

pub struct Env {
    pub titanc: PathBuf,
    pub titand: PathBuf,
    /// Runs and times the one-shot processes (see [`Spawner`]).
    pub spawner: RefCell<Spawner>,
    /// `<target dir>/titanperf`: inputs, cache directories, the socket,
    /// child output, traces. Nothing is written anywhere else.
    pub root: PathBuf,
}

impl Env {
    /// Builds `titanc` and `titand` (release) into the target directory
    /// this executable was built into, so they sit next to it, and starts
    /// the spawner. The build is a no-op when the binaries are fresh and is
    /// never part of a timing.
    pub fn prepare() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // <target>/release/titanperf, or <target>/debug/deps/titanperf-… under `cargo test`
        let target = exe
            .ancestors()
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n == "release" || n == "debug")
            })
            .and_then(Path::parent)
            .ok_or_else(|| format!("{} is not inside a cargo target dir", exe.display()))?;
        // under `cargo test` this executable is the test harness, which has
        // no spawner mode: build the real one and use that
        let titanperf = if cfg!(test) {
            build(target, &["--manifest-path", "titanperf/Cargo.toml"])?;
            target.join("release/titanperf")
        } else {
            exe.clone()
        };
        // before anything else makes this process bigger
        let spawner = Spawner::start(&titanperf).map_err(|e| format!("spawner: {e}"))?;
        build(target, &["-p", "titanc", "--bins"])?;
        let env = Env {
            titanc: target.join("release/titanc"),
            titand: target.join("release/titand"),
            spawner: RefCell::new(spawner),
            root: target.join("titanperf"),
        };
        for bin in [&env.titanc, &env.titand] {
            if !bin.is_file() {
                return Err(format!("{} was not built", bin.display()));
            }
        }
        Ok(env)
    }

    /// An empty directory `root/name`, wiped if it was there.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("wipe {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// The repository this package was built in: its parent directory.
const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// `cargo build --release <what>` in the repository, into `target`.
fn build(target: &Path, what: &[&str]) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(what)
        .arg("--target-dir")
        .arg(target)
        .current_dir(REPO)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build {what:?} failed"))
    }
}
