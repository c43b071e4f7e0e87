//! Spans recorded by the traced run, from outside the program: each wraps
//! one call into a layer's public function. Spans stay in memory and are
//! written out once, at the end, as Chrome trace events.

use std::time::Instant;

use titanc_il::json::Json;

/// One recorded interval. Times are microseconds since the recorder
/// started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// The span that caused this one: the enclosing span for a real call,
    /// the op's compile span for a replay or a pass record.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: usize,
    /// False for a real call timed where it happened; true for a replay or
    /// a pass record, which sit outside their cause's place in time.
    pub replayed: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Starts the next op; spans opened from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, nested under the span that is
    /// open now. Returns the span's index with `f`'s result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (usize, T) {
        let parent = self.open.last().copied();
        let id = self.open_span(name, parent, false);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        (id, value)
    }

    /// Like [`Recorder::span`] for a call that repeats, after the fact,
    /// work `cause` did: it runs later in time but is recorded as caused by
    /// `cause`, not by whatever is open now.
    pub fn replay<T>(&mut self, name: &str, cause: usize, f: impl FnOnce() -> T) -> T {
        self.replay_span(name, cause, f).1
    }

    /// [`Recorder::replay`], also returning the new span's index (for a
    /// replay that has replays of its own).
    pub fn replay_span<T>(
        &mut self,
        name: &str,
        cause: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open_span(name, Some(cause), true);
        let value = f();
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        (id, value)
    }

    /// Records a span whose duration the program itself reported (a pass
    /// record), laid out from `start_us` so the records of one compile sit
    /// end to end inside it.
    pub fn synthetic(&mut self, name: &str, cause: usize, start_us: f64, dur_us: f64) {
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us + dur_us,
            parent: Some(cause),
            op: self.op,
            replayed: true,
        });
    }

    fn open_span(&mut self, name: &str, parent: Option<usize>, replayed: bool) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent,
            op: self.op,
            replayed,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// A span's self time in ms: its duration minus the part of its
    /// interval that its child spans cover (children may overlap each other
    /// and may stick out of the parent, as replays do; neither counts
    /// twice or against it).
    pub fn self_ms(&self, id: usize) -> f64 {
        let me = &self.spans[id];
        let mut covered: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut total = 0.0;
        let mut reach = me.start_us;
        for (a, b) in covered {
            if b > reach {
                total += b - a.max(reach);
                reach = b;
            }
        }
        (me.end_us - me.start_us - total) / 1e3
    }

    /// Per op, the summed duration in ms of the spans called `name` (an op
    /// without such a span contributes nothing).
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match sums.last_mut() {
                Some((op, sum)) if *op == s.op => *sum += s.ms(),
                _ => sums.push((s.op, s.ms())),
            }
        }
        sums.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Median over ops of [`Recorder::per_op_ms`]; 0 when no op has the span.
    pub fn p50_ms(&self, name: &str) -> f64 {
        let per_op = self.per_op_ms(name);
        if per_op.is_empty() {
            0.0
        } else {
            crate::stats::median_of(&per_op)
        }
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events, one process per op; real calls on thread
    /// 0, replays and pass records on thread 1.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Float(s.start_us)),
                    ("dur", Json::Float(s.end_us - s.start_us)),
                    ("pid", Json::Int(s.op as i64)),
                    ("tid", Json::Int(i64::from(s.replayed))),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Int(id as i64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: &[(&str, f64, f64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new();
        for &(name, start_us, end_us, parent) in spans {
            r.spans.push(Span {
                name: name.to_string(),
                start_us,
                end_us,
                parent,
                op: 1,
                replayed: false,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover_inside_the_parent() {
        let r = recorder_with(&[
            ("op", 0.0, 10_000.0, None),
            ("a", 1_000.0, 3_000.0, Some(0)),
            // overlaps `a` by 1 ms: the shared millisecond counts once
            ("b", 2_000.0, 5_000.0, Some(0)),
            // a replay: caused by `op`, but runs after it ended
            ("replay", 11_000.0, 19_000.0, Some(0)),
            // a grandchild takes nothing from `op` directly
            ("a.inner", 1_200.0, 1_700.0, Some(1)),
        ]);
        assert_eq!(r.self_ms(0), 6.0);
        assert_eq!(r.self_ms(1), 1.5);
        assert_eq!(r.self_ms(3), 8.0);
    }

    #[test]
    fn nesting_and_op_ids_follow_the_calls() {
        let mut r = Recorder::new();
        r.next_op();
        let (root, inner) = r.span("op", |r| r.span("layer.call", |_| 7).0);
        r.replay("layer.replay", inner, || ());
        r.next_op();
        r.span("op", |_| ());
        assert_eq!(r.spans[inner].parent, Some(root));
        assert_eq!(r.spans[2].parent, Some(inner));
        assert_eq!(r.spans[root].op, 1);
        assert_eq!(r.spans[3].op, 2);
        assert!(r.spans[root].end_us >= r.spans[inner].end_us);
        assert_eq!(r.per_op_ms("op").len(), 2);
        assert_eq!(r.p50_ms("absent"), 0.0);
    }

    #[test]
    fn per_op_sums_repeated_spans_within_one_op() {
        let mut r = recorder_with(&[("x", 0.0, 1_000.0, None), ("x", 2_000.0, 4_000.0, None)]);
        r.spans.push(Span {
            name: "x".to_string(),
            start_us: 0.0,
            end_us: 5_000.0,
            parent: None,
            op: 2,
            replayed: false,
        });
        assert_eq!(r.per_op_ms("x"), vec![3.0, 5.0]);
        assert_eq!(r.p50_ms("x"), 4.0);
    }
}
