//! `golden` — rewrites `tests/golden/` from the current build: one file
//! per case of `titanc_bench::golden::cases`, compiled at `-j 1`, and any
//! other `.txt` file there removed. Review the diff, then commit it.

use std::fs;

use titanc_bench::golden::{cases, dir, render_case};

fn main() {
    let dir = dir();
    fs::create_dir_all(&dir).expect("tests/golden/ is writable");
    let cases = cases();
    for entry in fs::read_dir(&dir).expect("tests/golden/ lists") {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".txt") && !cases.iter().any(|c| c.name == name) {
            fs::remove_file(&path).expect("a stale golden file is removable");
        }
    }
    for case in &cases {
        fs::write(dir.join(&case.name), render_case(case, 1)).expect("a golden file writes");
    }
    println!("wrote {} golden files to {}", cases.len(), dir.display());
}
