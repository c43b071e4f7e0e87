//! `exp [ID…] [--markdown]` — the experiments table. Without arguments
//! all eleven experiments as plain tables, wall-clock rows included; with
//! ids (`exp EXP3 EXP9`) only those; `--markdown` prints the generated
//! block of `EXPERIMENTS.md` instead (deterministic rows only).

use std::process::ExitCode;

use titanc_bench::experiments::{section, EXPERIMENTS};

fn main() -> ExitCode {
    let mut markdown = false;
    let mut picked = Vec::new();
    for arg in std::env::args().skip(1) {
        match EXPERIMENTS.iter().find(|e| e.id.eq_ignore_ascii_case(&arg)) {
            Some(e) => picked.push(e),
            None if arg == "--markdown" => markdown = true,
            None => {
                eprintln!("usage: exp [EXP1 … EXP11] [--markdown]");
                return ExitCode::from(2);
            }
        }
    }
    if picked.is_empty() {
        picked.extend(&EXPERIMENTS);
    }
    for e in picked {
        if markdown {
            print!("{}", section(e));
            continue;
        }
        let mut rows = (e.run)();
        if let Some(timed) = e.timed {
            rows.extend(timed());
        }
        titanc_bench::print_table(&format!("{} {}", e.id, e.locus), e.claim, &rows);
    }
    ExitCode::SUCCESS
}
