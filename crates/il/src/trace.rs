//! Structured per-loop and per-call-site optimization decision events.
//!
//! The paper's whole value proposition is *which loops* got vectorized,
//! parallelized, or inlined-then-optimized — so every optimizing crate
//! records what it decided about each loop (and each call site) as a
//! typed event anchored to the loop's [`SrcSpan`]. The pass manager
//! aggregates events exactly like the numeric report counters
//! (pass-major, procedure order), which keeps the stream byte-identical
//! between `-j 1` and `-j N`; the driver's `--opt-report` correlates
//! them back into a per-source-loop report.
//!
//! The types live in `titanc-il` (the shared base crate) so that
//! `titanc-opt`, `titanc-vector` and `titanc-inline` can all produce
//! them without depending on each other.

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::span::SrcSpan;
use std::fmt;

fn bad(what: &str, got: &str) -> JsonError {
    JsonError {
        message: format!("unknown {what} `{got}`"),
        offset: 0,
    }
}

/// What one pass decided about one loop.
#[derive(Clone, PartialEq, Debug)]
pub enum LoopDecision {
    /// while→DO conversion succeeded (§5.2): the loop is now a candidate
    /// for induction-variable substitution and vectorization.
    DoConverted,
    /// while→DO conversion rejected the loop; the payload names the §5.2
    /// requirement that failed (branch into the body, volatile bound, …).
    DoRejected(String),
    /// Induction-variable substitution ran on the loop.
    IvSubstituted {
        /// Auxiliary induction variables substituted away in this loop.
        substituted: usize,
    },
    /// The vectorizer replaced the loop with vector statements (§5, §9).
    Vectorized {
        /// The vector statements sit inside a strip loop (trip count
        /// exceeded the maximum vector length, or `--parallel` strips).
        stripped: bool,
        /// The strip loop is a `do parallel` (multiprocessor spreading).
        parallel: bool,
        /// Some statements stayed behind in a residual scalar loop
        /// (partial vectorization after Allen–Kennedy distribution).
        residual: bool,
    },
    /// The loop could not be vectorized but its iterations are proven
    /// independent: converted to `do parallel` unchanged (§2 item 2).
    Parallelized,
    /// §10 linked-list spreading: the while loop became a `while spread`
    /// with a serialized pointer chase.
    ListSpread,
    /// The loop stayed scalar; the payload names the defeating
    /// dependence or construct.
    Scalar(String),
}

impl LoopDecision {
    /// Every [`tag`](Self::tag), in declaration order.
    pub const TAGS: [&'static str; 7] = [
        "do_converted",
        "do_rejected",
        "ivsub",
        "vectorized",
        "parallelized",
        "list_spread",
        "scalar",
    ];

    /// Short machine-readable tag (used as the JSON discriminant).
    pub fn tag(&self) -> &'static str {
        match self {
            LoopDecision::DoConverted => "do_converted",
            LoopDecision::DoRejected(_) => "do_rejected",
            LoopDecision::IvSubstituted { .. } => "ivsub",
            LoopDecision::Vectorized { .. } => "vectorized",
            LoopDecision::Parallelized => "parallelized",
            LoopDecision::ListSpread => "list_spread",
            LoopDecision::Scalar(_) => "scalar",
        }
    }
}

impl fmt::Display for LoopDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopDecision::DoConverted => f.write_str("converted to DO"),
            LoopDecision::DoRejected(why) => write!(f, "not DO-convertible: {why}"),
            LoopDecision::IvSubstituted { substituted } => {
                write!(f, "{substituted} induction variable(s) substituted")
            }
            LoopDecision::Vectorized {
                stripped,
                parallel,
                residual,
            } => {
                f.write_str("vectorized")?;
                let mut notes = Vec::new();
                if *parallel {
                    notes.push("do parallel strips");
                } else if *stripped {
                    notes.push("strip-mined");
                }
                if *residual {
                    notes.push("residual scalar loop");
                }
                if !notes.is_empty() {
                    write!(f, " ({})", notes.join(", "))?;
                }
                Ok(())
            }
            LoopDecision::Parallelized => f.write_str("parallelized (`do parallel`, unvectorized)"),
            LoopDecision::ListSpread => f.write_str("spread (serialized pointer chase, §10)"),
            LoopDecision::Scalar(why) => write!(f, "scalar: {why}"),
        }
    }
}

impl ToJson for LoopDecision {
    fn to_json(&self) -> Json {
        match self {
            LoopDecision::DoConverted => Json::Str("DoConverted".into()),
            LoopDecision::DoRejected(why) => Json::tagged("DoRejected", why.to_json()),
            LoopDecision::IvSubstituted { substituted } => {
                Json::tagged("IvSubstituted", substituted.to_json())
            }
            LoopDecision::Vectorized {
                stripped,
                parallel,
                residual,
            } => Json::tagged(
                "Vectorized",
                Json::obj(vec![
                    ("stripped", stripped.to_json()),
                    ("parallel", parallel.to_json()),
                    ("residual", residual.to_json()),
                ]),
            ),
            LoopDecision::Parallelized => Json::Str("Parallelized".into()),
            LoopDecision::ListSpread => Json::Str("ListSpread".into()),
            LoopDecision::Scalar(why) => Json::tagged("Scalar", why.to_json()),
        }
    }
}

impl FromJson for LoopDecision {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (tag, payload) = v.variant()?;
        match (tag, payload) {
            ("DoConverted", None) => Ok(LoopDecision::DoConverted),
            ("DoRejected", Some(p)) => Ok(LoopDecision::DoRejected(String::from_json(p)?)),
            ("IvSubstituted", Some(p)) => Ok(LoopDecision::IvSubstituted {
                substituted: usize::from_json(p)?,
            }),
            ("Vectorized", Some(p)) => Ok(LoopDecision::Vectorized {
                stripped: bool::from_json(p.field("stripped")?)?,
                parallel: bool::from_json(p.field("parallel")?)?,
                residual: bool::from_json(p.field("residual")?)?,
            }),
            ("Parallelized", None) => Ok(LoopDecision::Parallelized),
            ("ListSpread", None) => Ok(LoopDecision::ListSpread),
            ("Scalar", Some(p)) => Ok(LoopDecision::Scalar(String::from_json(p)?)),
            _ => Err(bad("loop decision", tag)),
        }
    }
}

/// One pass's decision about one loop, anchored to the loop's position in
/// the source.
#[derive(Clone, PartialEq, Debug)]
pub struct LoopEvent {
    /// Procedure containing the loop (after inlining this may be the
    /// caller a copy of the loop was expanded into).
    pub proc: String,
    /// The loop's controlling variable, when one exists (the induction
    /// variable of a DO loop, or the variable tested by a while).
    pub var: String,
    /// Source position of the loop head (the condition expression).
    pub span: SrcSpan,
    /// What the pass decided.
    pub decision: LoopDecision,
}

impl ToJson for LoopEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("proc", self.proc.to_json()),
            ("var", self.var.to_json()),
            ("span", self.span.to_json()),
            ("decision", self.decision.to_json()),
        ])
    }
}

impl FromJson for LoopEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(LoopEvent {
            proc: String::from_json(v.field("proc")?)?,
            var: String::from_json(v.field("var")?)?,
            span: SrcSpan::from_json(v.field("span")?)?,
            decision: LoopDecision::from_json(v.field("decision")?)?,
        })
    }
}

/// What the inliner decided about one call site.
#[derive(Clone, PartialEq, Debug)]
pub enum InlineOutcome {
    /// The call was expanded in place.
    Expanded,
    /// Skipped: the callee is (mutually) recursive.
    SkippedRecursive,
    /// Skipped: the callee exceeds the single-callee size budget.
    SkippedSize {
        /// Callee body size (statements).
        callee_len: usize,
        /// The configured cap it exceeded.
        cap: usize,
    },
    /// Skipped: expanding would exceed the caller's growth budget.
    SkippedGrowth {
        /// The caller's size (statements) at the moment of the decision.
        caller_len: usize,
        /// The caller's growth budget in effect.
        budget: usize,
    },
}

impl InlineOutcome {
    /// Every [`tag`](Self::tag), in declaration order.
    pub const TAGS: [&'static str; 4] = [
        "expanded",
        "skipped_recursive",
        "skipped_size",
        "skipped_growth",
    ];

    /// Short machine-readable tag (used as the JSON discriminant).
    pub fn tag(&self) -> &'static str {
        match self {
            InlineOutcome::Expanded => "expanded",
            InlineOutcome::SkippedRecursive => "skipped_recursive",
            InlineOutcome::SkippedSize { .. } => "skipped_size",
            InlineOutcome::SkippedGrowth { .. } => "skipped_growth",
        }
    }
}

impl fmt::Display for InlineOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineOutcome::Expanded => f.write_str("expanded"),
            InlineOutcome::SkippedRecursive => f.write_str("skipped (recursive)"),
            InlineOutcome::SkippedSize { callee_len, cap } => {
                write!(f, "skipped (callee {callee_len} stmts > cap {cap})")
            }
            InlineOutcome::SkippedGrowth { caller_len, budget } => write!(
                f,
                "skipped (caller {caller_len} stmts, growth budget {budget})"
            ),
        }
    }
}

impl ToJson for InlineOutcome {
    fn to_json(&self) -> Json {
        match self {
            InlineOutcome::Expanded => Json::Str("Expanded".into()),
            InlineOutcome::SkippedRecursive => Json::Str("SkippedRecursive".into()),
            InlineOutcome::SkippedSize { callee_len, cap } => Json::tagged(
                "SkippedSize",
                Json::obj(vec![
                    ("callee_len", callee_len.to_json()),
                    ("cap", cap.to_json()),
                ]),
            ),
            InlineOutcome::SkippedGrowth { caller_len, budget } => Json::tagged(
                "SkippedGrowth",
                Json::obj(vec![
                    ("caller_len", caller_len.to_json()),
                    ("budget", budget.to_json()),
                ]),
            ),
        }
    }
}

impl FromJson for InlineOutcome {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (tag, payload) = v.variant()?;
        match (tag, payload) {
            ("Expanded", None) => Ok(InlineOutcome::Expanded),
            ("SkippedRecursive", None) => Ok(InlineOutcome::SkippedRecursive),
            ("SkippedSize", Some(p)) => Ok(InlineOutcome::SkippedSize {
                callee_len: usize::from_json(p.field("callee_len")?)?,
                cap: usize::from_json(p.field("cap")?)?,
            }),
            ("SkippedGrowth", Some(p)) => Ok(InlineOutcome::SkippedGrowth {
                caller_len: usize::from_json(p.field("caller_len")?)?,
                budget: usize::from_json(p.field("budget")?)?,
            }),
            _ => Err(bad("inline outcome", tag)),
        }
    }
}

/// One inlining decision at one call site.
#[derive(Clone, PartialEq, Debug)]
pub struct InlineEvent {
    /// The procedure containing the call site.
    pub caller: String,
    /// The called procedure.
    pub callee: String,
    /// Source position of the call.
    pub span: SrcSpan,
    /// Stable per-caller site ordinal: distinguishes distinct call sites
    /// that share a source span (two calls in one expression statement),
    /// and stays fixed when the round loop revisits a site — consumers
    /// dedupe on `(caller, callee, span, site)`.
    pub site: u32,
    /// What the inliner decided.
    pub outcome: InlineOutcome,
}

impl ToJson for InlineEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("caller", self.caller.to_json()),
            ("callee", self.callee.to_json()),
            ("span", self.span.to_json()),
            ("site", self.site.to_json()),
            ("outcome", self.outcome.to_json()),
        ])
    }
}

impl FromJson for InlineEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(InlineEvent {
            caller: String::from_json(v.field("caller")?)?,
            callee: String::from_json(v.field("callee")?)?,
            span: SrcSpan::from_json(v.field("span")?)?,
            site: u32::from_json(v.field("site")?)?,
            outcome: InlineOutcome::from_json(v.field("outcome")?)?,
        })
    }
}

impl fmt::Display for InlineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "call {}→{} at {}: {}",
            self.caller, self.callee, self.span, self.outcome
        )
    }
}

impl fmt::Display for LoopEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.var.is_empty() {
            write!(f, "{}: loop at {}: {}", self.proc, self.span, self.decision)
        } else {
            write!(
                f,
                "{}: loop on `{}` at {}: {}",
                self.proc, self.var, self.span, self.decision
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_event_renders() {
        let e = LoopEvent {
            proc: "main".into(),
            var: "i".into(),
            span: SrcSpan::new(7, 5),
            decision: LoopDecision::Vectorized {
                stripped: true,
                parallel: true,
                residual: false,
            },
        };
        assert_eq!(
            e.to_string(),
            "main: loop on `i` at 7:5: vectorized (do parallel strips)"
        );
        assert_eq!(e.decision.tag(), "vectorized");
    }

    #[test]
    fn scalar_decision_names_the_defeat() {
        let d = LoopDecision::Scalar("loop-carried flow dependence".into());
        assert_eq!(d.to_string(), "scalar: loop-carried flow dependence");
        assert_eq!(d.tag(), "scalar");
    }

    #[test]
    fn events_roundtrip_through_json() {
        // one of every variant, in declaration order, so the tags of each
        // list are its `TAGS`
        let loops = vec![
            LoopDecision::DoConverted,
            LoopDecision::DoRejected("branch into body".into()),
            LoopDecision::IvSubstituted { substituted: 2 },
            LoopDecision::Vectorized {
                stripped: true,
                parallel: false,
                residual: true,
            },
            LoopDecision::Parallelized,
            LoopDecision::ListSpread,
            LoopDecision::Scalar("volatile access".into()),
        ];
        let tags: Vec<&str> = loops.iter().map(LoopDecision::tag).collect();
        assert_eq!(tags, LoopDecision::TAGS);
        for decision in loops {
            let e = LoopEvent {
                proc: "main".into(),
                var: "i".into(),
                span: SrcSpan::new(7, 5).in_file(1),
                decision,
            };
            let text = e.to_json().to_string_compact();
            let back = LoopEvent::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(e, back);
        }
        let outcomes = vec![
            InlineOutcome::Expanded,
            InlineOutcome::SkippedRecursive,
            InlineOutcome::SkippedSize {
                callee_len: 500,
                cap: 400,
            },
            InlineOutcome::SkippedGrowth {
                caller_len: 900,
                budget: 800,
            },
        ];
        let tags: Vec<&str> = outcomes.iter().map(InlineOutcome::tag).collect();
        assert_eq!(tags, InlineOutcome::TAGS);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let e = InlineEvent {
                caller: "main".into(),
                callee: "daxpy".into(),
                span: SrcSpan::new(12, 3),
                site: i as u32,
                outcome,
            };
            let text = e.to_json().to_string_compact();
            let back = InlineEvent::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(e, back);
        }
    }

    #[test]
    fn inline_event_renders_budget_state() {
        let e = InlineEvent {
            caller: "main".into(),
            callee: "daxpy".into(),
            span: SrcSpan::new(12, 3),
            site: 0,
            outcome: InlineOutcome::SkippedGrowth {
                caller_len: 900,
                budget: 800,
            },
        };
        assert_eq!(
            e.to_string(),
            "call main→daxpy at 12:3: skipped (caller 900 stmts, growth budget 800)"
        );
    }
}
