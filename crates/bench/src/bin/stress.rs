//! `stress` — one check of [`titanc_bench::sweep`] at sweep size.
//!
//! ```text
//! stress [--check observe|cache-faults|server|codec] [--cases N] [--seed S] [--case-seed S]
//! ```
//!
//! Runs the check (default `observe`) over `--cases` generated programs
//! (default 100) of run seed `--seed`, or replays exactly the one program
//! a FAIL block's `--case-seed` names. Seeds accept decimal or
//! `0x`-prefixed hex (underscores allowed) and are printed in the same hex
//! form. Each failing case prints one FAIL block to stderr; the end of the
//! run prints the check's decision coverage (`stress: CHECK: coverage:
//! …`), its cache and daemon totals when it has any, and a closing line.
//! Exits `0` when every case passed, `1` otherwise, `2` on a usage error.

use titanc::server::cache_line;
use titanc_bench::sweep::{self, Case, Totals};

/// Parses a seed in decimal or `0x`-prefixed hex; `_` separators are
/// accepted in both forms (so printed seeds round-trip).
fn parse_seed(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: stress [--check observe|cache-faults|server|codec] [--cases N] [--seed S] \
         [--case-seed S]\n       seeds are decimal or 0x-prefixed hex"
    );
    std::process::exit(2);
}

fn main() {
    let (mut check, mut cases) = (sweep::CHECKS[0], 100);
    let (mut seed, mut case_seed) = (sweep::DEFAULT_SEED, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        let parsed = match flag.as_str() {
            "--check" => sweep::check(&value).map(|c| check = c),
            "--cases" => value.parse().ok().map(|n| cases = n),
            "--seed" => parse_seed(&value).map(|s| seed = s),
            "--case-seed" => parse_seed(&value).map(|s| case_seed = Some(s)),
            _ => None,
        };
        parsed.unwrap_or_else(|| usage());
    }

    let name = check.0;
    let mut totals = Totals::default();
    match case_seed {
        Some(s) => sweep::run_case(check, &Case::new(s), None, &mut totals),
        None => sweep::run(check, seed, cases, &mut totals),
    }
    let failures = totals.failed;
    println!("stress: {name}: coverage: {}", totals.coverage_line());
    if totals.sessions > 0 {
        let (sessions, line) = (totals.sessions, cache_line(&totals.cache));
        println!("stress: {name}: totals over {sessions} session(s): {line}");
    }
    if totals.daemon.requests > 0 {
        println!("stress: {name}: daemon totals: {}", totals.daemon);
    }
    match case_seed {
        Some(s) => {
            let verdict = if failures == 0 { "ok" } else { "FAILED" };
            println!("stress: {name}: case seed 0x{s:X} {verdict}");
        }
        None if failures == 0 => {
            println!("stress: {name}: {cases} cases (run seed 0x{seed:X}), zero divergence");
        }
        None => {
            println!("stress: {name}: {failures} of {cases} cases FAILED (run seed 0x{seed:X})");
        }
    }
    std::process::exit(i32::from(failures > 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_round_trips() {
        assert_eq!(parse_seed("1903832151"), Some(1903832151));
        assert_eq!(parse_seed("0x717A_2C57"), Some(0x717A_2C57));
        assert_eq!(parse_seed("0X717a2c57"), Some(0x717A_2C57));
        assert_eq!(parse_seed("1_903_832_151"), Some(1903832151));
        assert_eq!(parse_seed("0x"), None);
        assert_eq!(parse_seed("nope"), None);
        // printed form (`0x{:X}`) parses back to the same value
        let s = sweep::case_seed(sweep::DEFAULT_SEED, 17);
        assert_eq!(parse_seed(&format!("0x{s:X}")), Some(s));
    }
}
