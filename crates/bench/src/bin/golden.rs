//! `golden` — rewrites `tests/golden/` from the current build: one file
//! per case of `titanc_bench::golden::cases`, the `mp9` cache
//! directory's listing and the generated programs' digests, each at
//! `-j 1`, and any other `.txt` file there removed. Review the diff, then commit it.

use std::fs;

use titanc_bench::golden::{
    cases, dir, file_names, render_cache_dir, render_case, render_progen_digests, CACHE_DIR_FILE,
    PROGEN_FILE,
};

fn main() {
    let dir = dir();
    fs::create_dir_all(&dir).expect("tests/golden/ is writable");
    let cases = cases();
    let names = file_names();
    for entry in fs::read_dir(&dir).expect("tests/golden/ lists") {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".txt") && !names.contains(&name) {
            fs::remove_file(&path).expect("a stale golden file is removable");
        }
    }
    for case in &cases {
        fs::write(dir.join(&case.name), render_case(case, 1)).expect("a golden file writes");
    }
    fs::write(dir.join(CACHE_DIR_FILE), render_cache_dir(1)).expect("a golden file writes");
    fs::write(dir.join(PROGEN_FILE), render_progen_digests(1)).expect("a golden file writes");
    println!("wrote {} golden files to {}", names.len(), dir.display());
}
