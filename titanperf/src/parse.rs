//! Parsers for the two lines the programs under test print about their
//! own work: `titanc: cache: …` (stderr) and `[titan] …` (stdout).

/// The `titanc: cache:` accounting line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLine {
    pub hits: u64,
    pub misses: u64,
    pub invalidated: u64,
    pub passes: u64,
    pub fully_warm: bool,
    pub corrupt: u64,
    pub quarantined: u64,
    pub lock_contended: u64,
    pub write_failed: u64,
}

impl CacheLine {
    /// True when nothing about the store degraded.
    pub fn healthy(&self) -> bool {
        self.corrupt + self.quarantined + self.lock_contended + self.write_failed == 0
    }
}

/// Finds and parses the `titanc: cache:` line in a stderr text.
pub fn cache_line(stderr: &str) -> Option<CacheLine> {
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("titanc: cache: "))?;
    let count = |label: &str| -> Option<u64> {
        let end = line.find(label)?;
        let digits = line[..end].trim_end();
        let start = digits
            .rfind(|c: char| !c.is_ascii_digit())
            .map_or(0, |i| i + 1);
        digits[start..].parse().ok()
    };
    Some(CacheLine {
        hits: count("hit(s)")?,
        misses: count("miss(es)")?,
        invalidated: count("invalidated")?,
        passes: count("pass execution(s)")?,
        fully_warm: line.contains("(fully warm)"),
        corrupt: count("corrupt")?,
        quarantined: count("quarantined")?,
        lock_contended: count("lock-contended")?,
        write_failed: count("write-failed")?,
    })
}

/// The `[titan] N cycles, … exit V` line of a `--run`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TitanLine {
    pub cycles: u64,
    /// The program's return value; `None` for `exit void`.
    pub exit: Option<i64>,
}

/// Finds and parses the `[titan]` line in a stdout text. The process
/// status of a successful `--run` is the program's return value, so this
/// line — not the status — says whether the run succeeded.
pub fn titan_line(stdout: &str) -> Option<TitanLine> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("[titan] "))?;
    let cycles = line.split(' ').next()?.parse().ok()?;
    let exit = line.rsplit_once("exit ")?.1.trim();
    Some(TitanLine {
        cycles,
        exit: match exit {
            "void" => None,
            v => Some(v.parse().ok()?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_line_parses_the_three_states() {
        let cold = "remark: x\ntitanc: cache: 0 hit(s), 9 miss(es), 0 invalidated; \
                    91 pass execution(s); 0 corrupt, 0 quarantined, 0 lock-contended, \
                    0 write-failed\n";
        let c = cache_line(cold).unwrap();
        assert_eq!((c.hits, c.misses, c.invalidated, c.passes), (0, 9, 0, 91));
        assert!(!c.fully_warm && c.healthy());

        let warm = "titanc: cache: 9 hit(s), 0 miss(es), 0 invalidated; 0 pass execution(s) \
                    (fully warm); 0 corrupt, 0 quarantined, 0 lock-contended, 0 write-failed";
        let w = cache_line(warm).unwrap();
        assert_eq!((w.hits, w.misses, w.passes), (9, 0, 0));
        assert!(w.fully_warm);

        let edit = "titanc: cache: 7 hit(s), 2 miss(es), 2 invalidated; 21 pass execution(s); \
                    1 corrupt, 1 quarantined, 0 lock-contended, 3 write-failed";
        let e = cache_line(edit).unwrap();
        assert_eq!((e.hits, e.misses, e.invalidated), (7, 2, 2));
        assert_eq!((e.corrupt, e.quarantined, e.write_failed), (1, 1, 3));
        assert!(!e.healthy());
    }

    #[test]
    fn cache_line_is_absent_without_a_cache() {
        assert_eq!(cache_line("remark: nothing here\n"), None);
        assert_eq!(cache_line("titanc: cache: garbage"), None);
    }

    #[test]
    fn titan_line_parses_cycles_and_exit() {
        let out = "7\n[titan] 2924304 cycles, 182.769 ms at 16 MHz, 5.92 MFLOPS, exit 37\n";
        assert_eq!(
            titan_line(out),
            Some(TitanLine {
                cycles: 2_924_304,
                exit: Some(37)
            })
        );
        let void = "[titan] 12 cycles, 0.001 ms at 16 MHz, 0.00 MFLOPS, exit void\n";
        assert_eq!(titan_line(void).unwrap().exit, None);
        let negative = "[titan] 5 cycles, 0.000 ms at 16 MHz, 0.00 MFLOPS, exit -3\n";
        assert_eq!(titan_line(negative).unwrap().exit, Some(-3));
        assert_eq!(titan_line("no such line"), None);
    }
}
