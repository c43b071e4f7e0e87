//! The compiler's printed output, held to `tests/golden/`: every case of
//! `titanc_bench::golden` is recompiled at `-j 1` and must equal its
//! checked-in file byte for byte, and at `-j 4` must equal the `-j 1`
//! bytes; so must the listing of the `mp9` session's cache directory and
//! the digest lines of the generated programs.
//! The files are only read here; a deliberate output change is
//! re-blessed with the `golden` bin and lands as a reviewed diff.

use std::fs;

use titanc_bench::golden::{
    cases, dir, file_names, render_cache_dir, render_case, render_progen_digests, BLESS,
    CACHE_DIR_FILE, PROGEN_FILE,
};

/// The first line where `want` and `got` part, as a message.
fn first_difference(want: &str, got: &str) -> String {
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for n in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => {}
            (w, g) => {
                let show = |l: Option<&str>| l.map_or("<end of file>".into(), |l| format!("{l:?}"));
                return format!("line {n}:\n  want {}\n  got  {}", show(w), show(g));
            }
        }
    }
    unreachable!()
}

#[test]
fn printed_output_matches_the_golden_files() {
    let cases = cases();
    let mut on_disk: Vec<String> = fs::read_dir(dir())
        .expect("tests/golden/ exists")
        .map(|e| {
            e.expect("a directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".txt"))
        .collect();
    on_disk.sort();
    let names = file_names();
    assert_eq!(
        on_disk, names,
        "the golden file set is stale; re-bless with `{BLESS}`"
    );
    let mut failures = Vec::new();
    for case in &cases {
        let want = fs::read_to_string(dir().join(&case.name)).expect("a golden file reads");
        let got = render_case(case, 1);
        if got != want {
            failures.push(format!(
                "tests/golden/{} differs at {}",
                case.name,
                first_difference(&want, &got)
            ));
            continue;
        }
        let wide = render_case(case, 4);
        if wide != got {
            failures.push(format!(
                "{}: -j 4 differs from -j 1 at {}",
                case.name,
                first_difference(&got, &wide)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n\nif the change is intended, re-bless with `{BLESS}` and commit the diff",
        failures.join("\n")
    );
}

#[test]
fn the_mp9_cache_directory_matches_its_golden_file() {
    let want = fs::read_to_string(dir().join(CACHE_DIR_FILE)).expect("a golden file reads");
    let got = render_cache_dir(1);
    assert!(
        got == want,
        "tests/golden/{CACHE_DIR_FILE} differs at {}\n\n\
         if the change is intended, re-bless with `{BLESS}` and commit the diff",
        first_difference(&want, &got)
    );
    let wide = render_cache_dir(4);
    assert!(
        wide == got,
        "{CACHE_DIR_FILE}: -j 4 differs from -j 1 at {}",
        first_difference(&got, &wide)
    );
}

#[test]
fn the_generated_programs_match_their_digest_lines() {
    let want = fs::read_to_string(dir().join(PROGEN_FILE)).expect("a golden file reads");
    let got = render_progen_digests(1);
    assert!(
        got == want,
        "tests/golden/{PROGEN_FILE} differs at {}\n\n\
         if the change is intended, re-bless with `{BLESS}` and commit the diff",
        first_difference(&want, &got)
    );
    let wide = render_progen_digests(4);
    assert!(
        wide == got,
        "{PROGEN_FILE}: -j 4 differs from -j 1 at {}",
        first_difference(&got, &wide)
    );
}
