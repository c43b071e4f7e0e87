//! End-to-end tests for the observability layer: the per-loop
//! optimization report accounts for every source loop in the corpus, is
//! byte-identical across `-j` values, the Chrome trace export is valid
//! JSON, and the front-end error cap reports what it suppressed.

use titanc_bench::golden::mp9_files;
use titanc_bench::sweep::corpus_files;
use titanc_repro::titanc::{chrome_trace, compile, compile_session, OptReport, Options};

fn report_options(jobs: usize) -> Options {
    Options {
        jobs,
        spread_lists: true,
        ..Options::parallel()
    }
}

/// Source lines that open a loop (`for`/`while` statement heads). The
/// corpus is plain enough that a syntactic scan is exact.
fn loop_lines(src: &str) -> Vec<u32> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim_start();
            t.starts_with("for (") || t.starts_with("while (")
        })
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

/// Acceptance: `--opt-report` accounts for every loop in `corpus/*.c` —
/// each source line that opens a loop appears as a reported loop span.
#[test]
fn every_corpus_loop_is_accounted_for() {
    for (name, src) in corpus_files() {
        let c = compile(&src, &report_options(1)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = OptReport::build(&c.reports, &c.trace);
        let lines = loop_lines(&src);
        assert!(!lines.is_empty(), "{name}: corpus file with no loops?");
        for line in lines {
            assert!(
                report.loops.iter().any(|l| l.span.line == line),
                "{name}: loop at line {line} missing from the report:\n{}",
                report.render()
            );
        }
        // every reported loop carries a definite classification
        for l in &report.loops {
            assert!(
                matches!(
                    l.classification,
                    "vectorized" | "parallelized" | "spread" | "scalar"
                ),
                "{name}: unclassified loop {l:?}"
            );
            if l.classification == "scalar" {
                assert!(
                    l.reason.is_some(),
                    "{name}: scalar loop at {} has no defeating reason",
                    l.span
                );
            }
        }
    }
}

/// Acceptance: the report is byte-identical between `-j 1` and `-j 4`,
/// in both text and JSON form.
#[test]
fn report_is_deterministic_across_jobs() {
    for (name, src) in corpus_files() {
        let c1 = compile(&src, &report_options(1)).unwrap();
        let c4 = compile(&src, &report_options(4)).unwrap();
        let r1 = OptReport::build(&c1.reports, &c1.trace);
        let r4 = OptReport::build(&c4.reports, &c4.trace);
        assert_eq!(r1.render(), r4.render(), "{name}: text report differs");
        assert_eq!(
            r1.to_json().to_string_compact(),
            r4.to_json().to_string_compact(),
            "{name}: JSON report differs"
        );
    }
}

/// The counters surface the paper's coverage numbers: the corpus has
/// vectorized loops, spread loops, and inline expansions.
#[test]
fn counters_track_the_corpus() {
    let mut vectorized = 0;
    let mut spread = 0;
    let mut inlined = 0;
    for (_, src) in corpus_files() {
        let c = compile(&src, &report_options(1)).unwrap();
        let counters = OptReport::build(&c.reports, &c.trace).counters;
        vectorized += counters.get("loops.vectorized");
        spread += counters.get("loops.list_spread");
        inlined += counters.get("inline.expanded");
        // the JSON form parses back
        let json = counters.to_json().to_string_compact();
        titanc_repro::il::json::parse(&json).expect("counters JSON parses");
    }
    assert!(vectorized > 0, "corpus vectorizes nothing");
    assert!(spread > 0, "corpus spreads no list walks");
    assert!(inlined > 0, "corpus inlines nothing");
}

/// On a corpus built to vectorize (per procedure: a branch-guarded
/// constant chain, three array-loop shapes, one pointer-walk `while`), at
/// least half the accounted loops must vectorize. A rate collapse is an
/// optimizer regression that no wall-clock figure would catch.
#[test]
fn vectorization_rate_holds_on_a_corpus_built_to_vectorize() {
    let mut src = String::new();
    for k in 0..4 {
        src.push_str(&format!(
            "float ma{k}[256], mb{k}[256], mc{k}[256];\n\
             void mp{k}(int n)\n{{\n\
             \x20   float *p, *q;\n    int i, j, t0, t1, t2;\n\
             \x20   if (n) t0 = {seed}; else t0 = {seed};\n\
             \x20   if (n) t1 = t0 * t0; else t1 = t0 * t0;\n\
             \x20   t2 = t1 + t1;\n\
             \x20   for (i = 0; i < 256; i++) ma{k}[i] = mb{k}[i] * t2 + mc{k}[i] * t1;\n\
             \x20   for (i = 0; i < 256; i++) mc{k}[i] = ma{k}[i] + mb{k}[i] * t1;\n\
             \x20   for (i = 1; i < 255; i++) mb{k}[i] = mc{k}[i - 1] * t2 + ma{k}[i + 1];\n\
             \x20   p = &ma{k}[0];\n    q = &mb{k}[0];\n    j = 256;\n\
             \x20   while (j) {{ *p++ = *q++ + (float)t1; j--; }}\n}}\n",
            seed = k + 2
        ));
    }
    src.push_str("int main(void) { return 0; }\n");
    let c = compile(&src, &Options::parallel()).unwrap();
    let counters = OptReport::build(&c.reports, &c.trace).counters;
    let vectorized = counters.get("loops.vectorized");
    let accounted = vectorized + counters.get("loops.parallelized") + counters.get("loops.scalar");
    assert!(
        accounted >= 16,
        "corpus loops went unaccounted: {accounted}"
    );
    assert!(
        2 * vectorized >= accounted,
        "vectorization rate collapsed: {vectorized} of {accounted} loops"
    );
}

/// Two distinct call sites sharing one source span — `sq(2) + sq(3)`
/// lowers both calls onto the statement's span — are distinct inline
/// decisions: the inliner records one event per site it decides.
#[test]
fn same_span_call_sites_stay_distinct_in_the_report() {
    let src = "\
int sq(int x)
{
    return x * x;
}

int main(void)
{
    return sq(2) + sq(3);
}
";
    let c = compile(src, &Options::o2()).expect("compiles");
    let report = OptReport::build_for(&c.reports, &c.trace, &c.program.files);
    let sites: Vec<_> = report
        .inline
        .iter()
        .filter(|e| e.caller == "main" && e.callee == "sq")
        .collect();
    assert_eq!(
        sites.len(),
        2,
        "both physical call sites must be reported: {:?}",
        report.inline
    );
}

/// The inliner decides each call site once, so its counters and the
/// report's inline records agree: `main` of the `mp9` shape keeps six of
/// its eight calls under the growth budget, and a self-recursive `r`
/// called from `main` keeps both of its sites, however many rounds the
/// expansion of `h` drives.
#[test]
fn skip_counts_are_call_sites() {
    let recursive = "\
int r(int n)
{
    if (n <= 0)
        return 0;
    return n + r(n - 1);
}

int h(int x)
{
    return x + 1;
}

int main(void)
{
    return r(4) + h(1);
}
";
    let mp9 = compile_session(&mp9_files(), &Options::o2(), None).expect("mp9 compiles");
    let r = compile(recursive, &Options::o2()).expect("compiles");
    for (c, tag, sites) in [
        (&mp9.compilation, "skipped_growth", 6),
        (&r, "skipped_recursive", 2),
    ] {
        let report = OptReport::build_for(&c.reports, &c.trace, &c.program.files);
        let records = report
            .inline
            .iter()
            .filter(|e| e.outcome.tag() == tag)
            .count();
        assert_eq!(records, sites, "{tag} records: {:?}", report.inline);
        assert_eq!(c.reports.count(tag), records, "{tag} counter");
    }
}

/// The Chrome trace export is valid JSON with one complete event per
/// (pass × procedure) timeline entry and consistent worker lanes.
#[test]
fn chrome_trace_round_trips() {
    let (_, src) = corpus_files().remove(0);
    let c = compile(&src, &report_options(4)).unwrap();
    let json = chrome_trace(&c.trace).to_string_compact();
    let parsed = titanc_repro::il::json::parse(&json).expect("trace JSON parses");
    let events = parsed
        .field("traceEvents")
        .unwrap()
        .as_arr()
        .unwrap()
        .to_vec();
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.field("ph").unwrap().as_str().unwrap() == "X")
        .collect();
    assert_eq!(
        complete.len(),
        c.trace.timeline.len(),
        "one X event per timeline item"
    );
    assert!(!complete.is_empty(), "empty timeline");
    for e in &complete {
        assert!(e.field("ts").unwrap().as_i64().unwrap() >= 0);
        assert!(e.field("dur").unwrap().as_i64().is_ok());
        assert!(e.field("tid").unwrap().as_i64().is_ok());
        assert!(e.field("name").unwrap().as_str().is_ok());
    }
}

/// `--max-errors 1` stops the front end at the cap, still counts what it
/// suppressed, and says so in the diagnostics.
#[test]
fn error_cap_reports_suppressed_count() {
    let src = r#"
int main(void)
{
    int x;
    x = ;
    x = ;
    x = ;
    return x;
}
"#;
    let opts = Options {
        max_errors: 1,
        ..Options::o2()
    };
    let err = compile(src, &opts).expect_err("garbage must not compile");
    let rendered: Vec<String> = err.diagnostics.iter().map(ToString::to_string).collect();
    let errors = rendered
        .iter()
        .filter(|d| !d.contains("warning:") && !d.contains("remark:"))
        .count();
    assert_eq!(errors, 1, "cap of 1 stores exactly one error: {rendered:?}");
    assert!(
        rendered
            .iter()
            .any(|d| d.contains("suppressed by --max-errors")),
        "suppressed count not reported: {rendered:?}"
    );
    // uncapped, the same source yields more than one stored error
    let err = compile(src, &Options::o2()).expect_err("still garbage");
    let stored = err
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .filter(|d| !d.contains("warning:") && !d.contains("remark:"))
        .count();
    assert!(stored > 1, "expected several stored errors, got {stored}");
}
