//! Compiler-wide observability: named counters, the per-source-loop
//! optimization report, and the Chrome trace-event export.
//!
//! The paper sells the compiler by *what happened to each loop* — EXP5's
//! coverage table, §9's walkthrough of one loop through every phase. This
//! module rebuilds those artifacts from the decision events the optimizing
//! crates attach to their reports ([`titanc_il::LoopEvent`],
//! [`titanc_il::InlineEvent`]):
//!
//! * [`Counters`] — a flat, sorted name → value map of the compilation
//!   (loops vectorized, call sites expanded, cache hits…), merged into the
//!   benchmark harness so vectorization *rates* are tracked like timings;
//! * [`OptReport`] — the `--opt-report` surface: every source loop with
//!   its final classification and the decision history that led there.
//!   Events ride per-pass report deltas, which the pass manager merges
//!   pass-major in procedure order, so the report is **byte-identical
//!   between `-j 1` and `-j N`**;
//! * [`chrome_trace`] — the `--trace-json` surface: [`PassTrace`] records
//!   and the per-(pass × procedure) timeline with worker-lane assignments
//!   in Chrome trace-event format (load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>). Unlike the opt report, the timeline is
//!   real timing data and varies run to run.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::fmt;

use titanc_il::json::JsonWriter;
use titanc_il::{InlineEvent, InlineOutcome, Json, LoopDecision, LoopEvent, SrcSpan};

use crate::pass::PassTrace;
use crate::Report;

/// Named compilation counters, sorted by name.
///
/// The names are stable — `titanperf` reads them for its per-layer
/// metrics and `tests/opt_report.rs` guards the vectorization rate, so
/// renaming a counter is a breaking change to the performance baseline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Counter name → value, sorted by name.
    pub values: BTreeMap<String, u64>,
}

impl Counters {
    /// Builds the counter set from one compilation's aggregate reports
    /// and pass trace. Every loop and call-site count is read off the
    /// decision events; `loops.scalar` counts the vectorizer's notes, one
    /// per innermost loop it left scalar.
    pub fn from_run(reports: &Report, trace: &PassTrace) -> Counters {
        let mut c = Counters::default();
        let mut set = |k: &str, v: usize| {
            c.values.insert(k.to_string(), v as u64);
        };
        let tags = [
            "do_converted",
            "do_rejected",
            "vectorized",
            "parallelized",
            "list_spread",
        ];
        for tag in tags {
            set(&format!("loops.{tag}"), reports.count(tag));
        }
        let ivs = LoopDecision::ivs_substituted(&reports.loops);
        set("loops.iv_substituted", ivs);
        set("loops.scalar", reports.notes.len());
        for tag in InlineOutcome::TAGS {
            set(&format!("inline.{tag}"), reports.count(tag));
        }
        let cache = trace.cache_totals();
        set("cache.hits", cache.hits());
        set("cache.builds", cache.builds());
        set("cache.invalidations", cache.invalidations);
        set("cache.repairs", cache.repairs);
        set(
            "pipeline.cells_skipped",
            trace.records.iter().map(|r| r.skipped_procs).sum(),
        );
        set(
            "pipeline.cells_faulted",
            trace.records.iter().map(|r| r.faulted_procs).sum(),
        );
        set("pipeline.incidents", trace.incidents.len());
        c
    }

    /// A counter's value (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "  {k:<26} {v}")?;
        }
        Ok(())
    }
}

/// One source loop's aggregated story: the decision events every pass
/// recorded at the same (procedure, span), and the classification they
/// add up to.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopReport {
    /// The procedure holding the loop (after inlining, the caller the
    /// loop was expanded into).
    pub proc: String,
    /// The loop's controlling variable, when any pass identified one.
    pub var: String,
    /// Source position of the loop head.
    pub span: SrcSpan,
    /// Final classification: `"vectorized"`, `"parallelized"`,
    /// `"spread"`, `"unrolled"` (its copies went into the loop around it),
    /// or `"scalar"`.
    pub classification: &'static str,
    /// For scalar loops, the defeating dependence or construct.
    pub reason: Option<String>,
    /// The full decision history, in pass order.
    pub events: Vec<LoopEvent>,
}

/// The `--opt-report` artifact: every loop accounted for, plus inlining
/// decisions and the compilation counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptReport {
    /// One entry per (procedure, source span) that any pass made a loop
    /// decision about, in first-decision order.
    pub loops: Vec<LoopReport>,
    /// Call-site decisions, one per physical site in decision order: the
    /// inliner's events as it recorded them.
    pub inline: Vec<InlineEvent>,
    /// The compilation counters.
    pub counters: Counters,
    /// The program's file table, for resolving span origin tags: a span
    /// tagged `f > 0` originated in `files[f - 1]` (a linked catalog or
    /// another session TU), not the current translation unit.
    pub files: Vec<String>,
}

impl OptReport {
    /// [`OptReport::build_for`] without a file table; origin-tagged
    /// spans render with their bare `@fN` tag.
    pub fn build(reports: &Report, trace: &PassTrace) -> OptReport {
        OptReport::build_for(reports, trace, &[])
    }

    /// Correlates the decision events of one compilation into the
    /// per-loop report, resolving span origin tags against `files` (the
    /// program's file table) so loops and call sites that arrived via a
    /// catalog or another session TU are attributed to the file they
    /// were written in. Deterministic: events arrive in the pass
    /// manager's pass-major, procedure-order merge, and grouping
    /// preserves first-seen order.
    pub fn build_for(reports: &Report, trace: &PassTrace, files: &[String]) -> OptReport {
        let mut loops: Vec<LoopReport> = Vec::new();
        // (proc, span) -> index in `loops`, which keeps first-seen order
        let mut index: HashMap<(&str, SrcSpan), usize> = HashMap::new();
        for e in &reports.loops {
            match index.entry((&e.proc, e.span)) {
                Entry::Occupied(at) => {
                    let l = &mut loops[*at.get()];
                    if l.var.is_empty() && !e.var.is_empty() {
                        l.var = e.var.clone();
                    }
                    if !l.events.contains(e) {
                        l.events.push(e.clone());
                    }
                }
                Entry::Vacant(at) => {
                    at.insert(loops.len());
                    loops.push(LoopReport {
                        proc: e.proc.clone(),
                        var: e.var.clone(),
                        span: e.span,
                        classification: "scalar",
                        reason: None,
                        events: vec![e.clone()],
                    });
                }
            }
        }
        for l in &mut loops {
            let (class, reason) = classify(&l.events);
            l.classification = class;
            l.reason = reason;
        }
        OptReport {
            loops,
            inline: reports.inline.clone(),
            counters: Counters::from_run(reports, trace),
            files: files.to_vec(),
        }
    }

    /// The origin file a span's tag resolves to, when it has one.
    fn origin(&self, span: &SrcSpan) -> Option<&str> {
        (span.file != 0)
            .then(|| self.files.get(span.file as usize - 1))
            .flatten()
            .map(String::as_str)
    }

    /// A span rendered for the report: `file:line:col` when the origin
    /// tag resolves, the span's own `Display` (`line:col`, or
    /// `line:col@fN` for an unresolvable tag) otherwise.
    fn span_label(&self, span: &SrcSpan) -> String {
        match self.origin(span) {
            Some(file) => format!("{file}:{}:{}", span.line, span.col),
            None => span.to_string(),
        }
    }

    /// Renders the report as text, grouped by procedure in
    /// first-decision order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("== optimization report ==\n");
        if self.loops.is_empty() {
            out.push_str("no loops\n");
        }
        let mut seen_procs: Vec<&str> = Vec::new();
        for l in &self.loops {
            if !seen_procs.contains(&l.proc.as_str()) {
                seen_procs.push(&l.proc);
            }
        }
        for proc in seen_procs {
            let _ = writeln!(out, "{proc}:");
            for l in self.loops.iter().filter(|l| l.proc == proc) {
                let at = self.span_label(&l.span);
                let head = if l.var.is_empty() {
                    format!("loop at {at}")
                } else {
                    format!("loop on `{}` at {at}", l.var)
                };
                match &l.reason {
                    Some(r) => {
                        let _ = writeln!(out, "  {head}: {} — {r}", l.classification);
                    }
                    None => {
                        let _ = writeln!(out, "  {head}: {}", l.classification);
                    }
                }
                for e in &l.events {
                    let _ = writeln!(out, "      - {}", e.decision);
                }
            }
        }
        if !self.inline.is_empty() {
            out.push_str("inline decisions:\n");
            for e in &self.inline {
                let _ = writeln!(
                    out,
                    "  call {}→{} at {}: {}",
                    e.caller,
                    e.callee,
                    self.span_label(&e.span),
                    e.outcome
                );
            }
        }
        out.push_str("counters:\n");
        let _ = write!(out, "{}", self.counters);
        out
    }

    /// The report as one line of compact JSON (the `--opt-report=json`
    /// surface), streamed from the report without building a tree.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.open('{');
        w.key("loops").open('[');
        for l in &self.loops {
            w.open('{');
            w.key("proc").str(&l.proc);
            w.key("var").str(&l.var);
            w.key("line").int(i64::from(l.span.line));
            w.key("col").int(i64::from(l.span.col));
            w.key("classification").str(l.classification);
            if let Some(file) = self.origin(&l.span) {
                w.key("file").str(file);
            }
            if let Some(r) = &l.reason {
                w.key("reason").str(r);
            }
            w.key("events").open('[');
            for e in &l.events {
                w.open('{');
                w.key("tag").str(e.decision.tag());
                w.key("detail").display(&e.decision);
                w.close('}');
            }
            w.close(']');
            w.close('}');
        }
        w.close(']');
        w.key("inline").open('[');
        for e in &self.inline {
            w.open('{');
            w.key("caller").str(&e.caller);
            w.key("callee").str(&e.callee);
            w.key("line").int(i64::from(e.span.line));
            w.key("col").int(i64::from(e.span.col));
            if let Some(file) = self.origin(&e.span) {
                w.key("file").str(file);
            }
            w.key("outcome").str(e.outcome.tag());
            w.key("detail").display(&e.outcome);
            w.close('}');
        }
        w.close(']');
        w.key("counters").open('{');
        for (k, v) in &self.counters.values {
            w.key(k).int(*v as i64);
        }
        w.close('}');
        w.close('}');
        w.finish()
    }
}

/// Reduces a loop's event history to its final classification. The
/// strongest outcome wins: vectorized, then list-spread, then unrolled
/// into the loop around it, then parallelized; otherwise the loop is
/// scalar and the first defeating reason (a vectorizer defeat or a
/// DO-conversion rejection) is kept.
fn classify(events: &[LoopEvent]) -> (&'static str, Option<String>) {
    let mut scalar_reason: Option<String> = None;
    let mut rejected_reason: Option<String> = None;
    for e in events {
        match &e.decision {
            LoopDecision::Vectorized { .. } => return ("vectorized", None),
            LoopDecision::ListSpread => return ("spread", None),
            LoopDecision::Unrolled(_) => return ("unrolled", None),
            _ => {}
        }
    }
    for e in events {
        match &e.decision {
            LoopDecision::Parallelized => return ("parallelized", None),
            LoopDecision::Scalar(why) if scalar_reason.is_none() => {
                scalar_reason = Some(why.clone());
            }
            LoopDecision::DoRejected(why) if rejected_reason.is_none() => {
                rejected_reason = Some(why.to_string());
            }
            _ => {}
        }
    }
    ("scalar", scalar_reason.or(rejected_reason))
}

/// Exports the pass trace in Chrome trace-event format: one complete
/// (`"ph": "X"`) event per (pass × procedure) execution, with worker
/// lanes as thread ids, under a `pipeline` begin/end pair on lane 0 that
/// spans [`PassTrace::wall`], plus thread-name metadata. Load the file at
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(trace: &PassTrace) -> Json {
    let mut events: Vec<Json> = Vec::new();
    // lane 0 always exists: it carries the `pipeline` slice
    let mut lanes: Vec<usize> = trace.timeline.iter().map(|w| w.lane).chain([0]).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        let name = if lane == 0 {
            "main".to_string()
        } else {
            format!("worker-{lane}")
        };
        events.push(Json::obj(vec![
            ("name", Json::Str("thread_name".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::Int(0)),
            ("tid", Json::Int(lane as i64)),
            ("args", Json::obj(vec![("name", Json::Str(name))])),
        ]));
    }
    // the parent slice every pass cell nests under, as a begin/end pair:
    // time between its children was spent outside any pass
    for (ph, ts) in [("B", 0), ("E", trace.wall.as_micros() as i64)] {
        events.push(Json::obj(vec![
            ("name", Json::Str("pipeline".to_string())),
            ("cat", Json::Str("pipeline".to_string())),
            ("ph", Json::Str(ph.to_string())),
            ("ts", Json::Int(ts)),
            ("pid", Json::Int(0)),
            ("tid", Json::Int(0)),
        ]));
    }
    for w in &trace.timeline {
        events.push(Json::obj(vec![
            ("name", Json::Str(w.pass.to_string())),
            ("cat", Json::Str("pass".to_string())),
            ("ph", Json::Str("X".to_string())),
            ("ts", Json::Int(w.start.as_micros() as i64)),
            ("dur", Json::Int(w.duration.as_micros() as i64)),
            ("pid", Json::Int(0)),
            ("tid", Json::Int(w.lane as i64)),
            ("args", Json::obj(vec![("proc", Json::Str(w.proc.clone()))])),
        ]));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::LoopDecision;

    fn ev(proc: &str, var: &str, line: u32, decision: LoopDecision) -> LoopEvent {
        LoopEvent {
            proc: proc.to_string(),
            var: var.to_string(),
            span: SrcSpan::new(line, 1),
            decision,
        }
    }

    #[test]
    fn classification_precedence() {
        let events = vec![
            ev("f", "i", 3, LoopDecision::DoConverted),
            ev("f", "i", 3, LoopDecision::IvSubstituted { substituted: 1 }),
            ev(
                "f",
                "i",
                3,
                LoopDecision::Vectorized {
                    stripped: true,
                    parallel: false,
                    residual: true,
                },
            ),
            ev("f", "i", 3, LoopDecision::Scalar("residual".into())),
        ];
        let (class, reason) = classify(&events);
        assert_eq!(class, "vectorized");
        assert!(reason.is_none());
    }

    #[test]
    fn scalar_keeps_the_defeat() {
        let events = vec![
            ev(
                "f",
                "",
                9,
                LoopDecision::DoRejected(titanc_il::Reject::VolatileCond),
            ),
            ev(
                "f",
                "",
                9,
                LoopDecision::Scalar("`while` loop was not converted to DO form".into()),
            ),
        ];
        let (class, reason) = classify(&events);
        assert_eq!(class, "scalar");
        // the sweep's generic note loses to nothing, but the first
        // Scalar payload wins over the rejection detail
        assert_eq!(
            reason.as_deref(),
            Some("`while` loop was not converted to DO form")
        );
    }

    #[test]
    fn opt_report_groups_by_proc_and_span() {
        let mut reports = Report::default();
        reports
            .loops
            .push(ev("f", "i", 3, LoopDecision::DoConverted));
        reports.loops.push(ev(
            "f",
            "dummy_3",
            3,
            LoopDecision::Vectorized {
                stripped: false,
                parallel: false,
                residual: false,
            },
        ));
        reports.loops.push(ev(
            "f",
            "j",
            7,
            LoopDecision::Scalar("dependence cycle".into()),
        ));
        let trace = PassTrace::default();
        let report = OptReport::build(&reports, &trace);
        assert_eq!(report.loops.len(), 2);
        assert_eq!(report.loops[0].classification, "vectorized");
        assert_eq!(report.loops[0].var, "i");
        assert_eq!(report.loops[0].events.len(), 2);
        assert_eq!(report.loops[1].classification, "scalar");
        assert_eq!(report.loops[1].reason.as_deref(), Some("dependence cycle"));
        let text = report.render();
        assert!(text.contains("loop on `i` at 3:1: vectorized"), "{text}");
        let json = report.render_json();
        titanc_il::json::parse(&json).expect("opt report json parses");
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut trace = PassTrace {
            wall: std::time::Duration::from_micros(200),
            ..PassTrace::default()
        };
        trace.timeline.push(crate::pass::WorkItem {
            pass: "vectorize",
            proc: "main".to_string(),
            lane: 2,
            start: std::time::Duration::from_micros(15),
            duration: std::time::Duration::from_micros(120),
        });
        let json = chrome_trace(&trace).to_string_compact();
        let parsed = titanc_il::json::parse(&json).expect("chrome trace parses");
        let evs = parsed.field("traceEvents").unwrap().as_arr().unwrap();
        // two thread_name records (lane 0 carries the `pipeline` begin/end
        // pair), the pair, one complete event
        let of = |e: &Json, k: &str| e.field(k).unwrap().as_i64().unwrap();
        let phases: Vec<&str> = evs
            .iter()
            .map(|e| e.field("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["M", "M", "B", "E", "X"]);
        assert_eq!((of(&evs[3], "ts"), of(&evs[3], "tid")), (200, 0));
        let x = &evs[4];
        assert_eq!((of(x, "ts"), of(x, "dur"), of(x, "tid")), (15, 120, 2));
    }
}
