//! What the passes report: one [`Report`] of counters and structured
//! per-loop and per-call-site decision events.
//!
//! The paper's whole value proposition is *which loops* got vectorized,
//! parallelized, or inlined-then-optimized — so every optimizing crate
//! records what it decided about each loop (and each call site) as a
//! typed event anchored to the loop's [`SrcSpan`], beside the [`Count`]s
//! its quantitative claims are read off (§5.3's passes, §8's rounds).
//! Every pass returns the same [`Report`], and the pass manager merges
//! them pass-major in procedure order, which keeps the stream
//! byte-identical between `-j 1` and `-j N`; the driver's `--opt-report`
//! correlates the events back into a per-source-loop report.
//!
//! The types live in `titanc-il` (the shared base crate) so that
//! `titanc-opt`, `titanc-vector` and `titanc-inline` can all produce
//! them without depending on each other.

use crate::hash::ByteSink;
use crate::span::SrcSpan;
use crate::wire::{Reader, Wire, WireError};
use std::fmt;

/// Why a `while` loop was not converted to DO form (§5.2; the EXP5
/// coverage table).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reject {
    /// A branch from outside enters the loop body (§5.2 requirement 1).
    BranchInto,
    /// A branch inside the loop leaves it (early exit).
    BranchOut,
    /// The body contains a `return`.
    HasReturn,
    /// The condition reads a volatile object — a true `while` loop (§1).
    VolatileCond,
    /// The condition is not a recognizable iteration test.
    CondForm,
    /// The tested variable is addressed/volatile/global.
    NotCandidate,
    /// No single once-per-iteration step of the tested variable was found.
    NoStep,
    /// The variable is stepped more than once (or conditionally).
    MultipleSteps,
    /// The bound varies inside the loop (§5.2 requirement 2).
    VaryingBound,
    /// The step varies inside the loop.
    VaryingStep,
    /// Step direction can never satisfy the exit test (or `!=` with |step|
    /// ≠ 1, which may step over the bound).
    Direction,
}

impl Reject {
    /// Every rejection, in declaration order.
    pub const ALL: [Reject; 11] = [
        Reject::BranchInto,
        Reject::BranchOut,
        Reject::HasReturn,
        Reject::VolatileCond,
        Reject::CondForm,
        Reject::NotCandidate,
        Reject::NoStep,
        Reject::MultipleSteps,
        Reject::VaryingBound,
        Reject::VaryingStep,
        Reject::Direction,
    ];
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Reject::BranchInto => "branch into loop body",
            Reject::BranchOut => "branch out of loop body",
            Reject::HasReturn => "return inside loop body",
            Reject::VolatileCond => "volatile condition",
            Reject::CondForm => "unrecognized iteration test",
            Reject::NotCandidate => "tested variable not a register candidate",
            Reject::NoStep => "no once-per-iteration step",
            Reject::MultipleSteps => "variable stepped more than once",
            Reject::VaryingBound => "bound varies inside loop",
            Reject::VaryingStep => "step varies inside loop",
            Reject::Direction => "step direction cannot reach bound",
        })
    }
}

/// The tag byte is the rejection's position in [`Reject::ALL`].
impl Wire for Reject {
    const MIN_BYTES: usize = 1;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        out.write(&[*self as u8]);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Reject, WireError> {
        r.pick(&Reject::ALL, "unknown while-to-DO rejection")
    }
}

/// What one pass decided about one loop.
#[derive(Clone, PartialEq, Debug)]
pub enum LoopDecision {
    /// while→DO conversion succeeded (§5.2): the loop is now a candidate
    /// for induction-variable substitution and vectorization.
    DoConverted,
    /// while→DO conversion rejected the loop for the §5.2 requirement
    /// that failed (branch into the body, volatile bound, …).
    DoRejected(Reject),
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
    /// The vectorizer sank the loop, which carries no dependence, to the
    /// innermost level of its nest (§10); the payload names the loops it
    /// now sits inside and the scalars it expanded.
    Sunk(String),
    /// The vectorizer replaced the loop, short and constant, by copies of
    /// its body in the loop around it, so that the loop around it
    /// vectorizes (§10); the payload names that loop and the scalars folded
    /// into the one statement reading them.
    Unrolled(String),
}

impl LoopDecision {
    /// Every [`tag`](Self::tag), in declaration order.
    pub const TAGS: [&'static str; 9] = [
        "do_converted",
        "do_rejected",
        "ivsub",
        "vectorized",
        "parallelized",
        "list_spread",
        "scalar",
        "sunk",
        "unrolled",
    ];

    /// Short machine-readable tag (the opt report's discriminant).
    pub fn tag(&self) -> &'static str {
        match self {
            LoopDecision::DoConverted => "do_converted",
            LoopDecision::DoRejected(_) => "do_rejected",
            LoopDecision::IvSubstituted { .. } => "ivsub",
            LoopDecision::Vectorized { .. } => "vectorized",
            LoopDecision::Parallelized => "parallelized",
            LoopDecision::ListSpread => "list_spread",
            LoopDecision::Scalar(_) => "scalar",
            LoopDecision::Sunk(_) => "sunk",
            LoopDecision::Unrolled(_) => "unrolled",
        }
    }

    /// The induction variables substituted away over `events`: the sum of
    /// their [`LoopDecision::IvSubstituted`] payloads.
    pub fn ivs_substituted<'a>(events: impl IntoIterator<Item = &'a LoopEvent>) -> usize {
        let subs = events.into_iter().map(|e| match e.decision {
            LoopDecision::IvSubstituted { substituted } => substituted,
            _ => 0,
        });
        subs.sum()
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
            LoopDecision::Sunk(how) => write!(f, "sunk {how}"),
            LoopDecision::Unrolled(how) => write!(f, "unrolled {how}"),
        }
    }
}

/// The tag byte is the variant's position in [`LoopDecision::TAGS`].
impl Wire for LoopDecision {
    const MIN_BYTES: usize = 1;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        match self {
            LoopDecision::DoConverted => out.write(&[0]),
            LoopDecision::DoRejected(why) => {
                out.write(&[1]);
                why.write_wire(out);
            }
            LoopDecision::IvSubstituted { substituted } => {
                out.write(&[2]);
                substituted.write_wire(out);
            }
            LoopDecision::Vectorized {
                stripped,
                parallel,
                residual,
            } => out.write(&[
                3,
                u8::from(*stripped),
                u8::from(*parallel),
                u8::from(*residual),
            ]),
            LoopDecision::Parallelized => out.write(&[4]),
            LoopDecision::ListSpread => out.write(&[5]),
            LoopDecision::Scalar(why) => {
                out.write(&[6]);
                why.write_wire(out);
            }
            LoopDecision::Sunk(how) => {
                out.write(&[7]);
                how.write_wire(out);
            }
            LoopDecision::Unrolled(how) => {
                out.write(&[8]);
                how.write_wire(out);
            }
        }
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<LoopDecision, WireError> {
        Ok(
            match r.tag(LoopDecision::TAGS.len(), "unknown loop decision")? {
                0 => LoopDecision::DoConverted,
                1 => LoopDecision::DoRejected(Reject::read_wire(r)?),
                2 => LoopDecision::IvSubstituted {
                    substituted: usize::read_wire(r)?,
                },
                3 => LoopDecision::Vectorized {
                    stripped: bool::read_wire(r)?,
                    parallel: bool::read_wire(r)?,
                    residual: bool::read_wire(r)?,
                },
                4 => LoopDecision::Parallelized,
                5 => LoopDecision::ListSpread,
                6 => LoopDecision::Scalar(String::read_wire(r)?),
                7 => LoopDecision::Sunk(String::read_wire(r)?),
                _ => LoopDecision::Unrolled(String::read_wire(r)?),
            },
        )
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

crate::struct_wire!(LoopEvent, [proc, var, span, decision]);

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

    /// Short machine-readable tag (the opt report's discriminant).
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

/// The tag byte is the variant's position in [`InlineOutcome::TAGS`].
impl Wire for InlineOutcome {
    const MIN_BYTES: usize = 1;

    fn write_wire<S: ByteSink>(&self, out: &mut S) {
        match self {
            InlineOutcome::Expanded => out.write(&[0]),
            InlineOutcome::SkippedRecursive => out.write(&[1]),
            InlineOutcome::SkippedSize { callee_len, cap } => {
                out.write(&[2]);
                callee_len.write_wire(out);
                cap.write_wire(out);
            }
            InlineOutcome::SkippedGrowth { caller_len, budget } => {
                out.write(&[3]);
                caller_len.write_wire(out);
                budget.write_wire(out);
            }
        }
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<InlineOutcome, WireError> {
        Ok(
            match r.tag(InlineOutcome::TAGS.len(), "unknown inline outcome")? {
                0 => InlineOutcome::Expanded,
                1 => InlineOutcome::SkippedRecursive,
                2 => InlineOutcome::SkippedSize {
                    callee_len: usize::read_wire(r)?,
                    cap: usize::read_wire(r)?,
                },
                _ => InlineOutcome::SkippedGrowth {
                    caller_len: usize::read_wire(r)?,
                    budget: usize::read_wire(r)?,
                },
            },
        )
    }
}

/// One inlining decision at one call site.
#[derive(Clone, PartialEq, Debug)]
pub struct InlineEvent {
    /// The procedure containing the call site.
    pub caller: String,
    /// The called procedure.
    pub callee: String,
    /// Source position of the call. Two calls in one expression
    /// statement share it and are still two events: the inliner decides
    /// each call site once.
    pub span: SrcSpan,
    /// What the inliner decided.
    pub outcome: InlineOutcome,
}

crate::struct_wire!(InlineEvent, [caller, callee, span, outcome]);

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

/// One pass counter: a slot of [`Report`]'s counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Count {
    /// §5.3 induction-variable substitution: scan passes over loop bodies.
    IvsubPasses,
    /// Candidates substituted only after an earlier substitution
    /// unblocked them (the backtracking events).
    IvsubBacktracks,
    /// Loops whose re-scan hit the pass budget while still substituting.
    IvsubBudgetHit,
    /// Forward substitution: reads replaced.
    ForwardSubstituted,
    /// §8 constant propagation: variable reads replaced by constants.
    ConstpropReplaced,
    /// Statements removed by branch simplification.
    ConstpropRemoved,
    /// Fixpoint rounds (the paper's re-seeding events + 1).
    ConstpropRounds,
    /// Procedures whose fixpoint hit the round budget while still changing.
    ConstpropBudgetHit,
    /// Dead-code elimination: dead assignments removed.
    DceRemoved,
    /// Fixpoint rounds.
    DceRounds,
    /// Procedures whose fixpoint hit the round budget while still changing.
    DceBudgetHit,
    /// Local CSE: statements whose right-hand side now reads a temporary.
    CseCommoned,
    /// Occurrences replaced by a temporary.
    CseReplaced,
    /// §6: memory scalars promoted to registers inside loops.
    StrengthPromoted,
    /// Array addresses reduced to pointer increments.
    StrengthReduced,
    /// Loop-invariant expressions hoisted.
    StrengthHoisted,
    /// §7: internal-linkage statics given external names so inlined
    /// copies can reach them.
    InlineStaticsExternalized,
    /// §6: constant integer multiplies reduced to shifts and adds.
    StrengthMulReduced,
    /// §2, §6: vector registers made — sections a run of vector
    /// statements shares, and sink arrays kept in the register file.
    VectorRegisters,
}

impl Count {
    /// Every counter, in declaration order: a count's slot in
    /// [`Report`] is its position here.
    pub const ALL: [Count; 19] = [
        Count::IvsubPasses,
        Count::IvsubBacktracks,
        Count::IvsubBudgetHit,
        Count::ForwardSubstituted,
        Count::ConstpropReplaced,
        Count::ConstpropRemoved,
        Count::ConstpropRounds,
        Count::ConstpropBudgetHit,
        Count::DceRemoved,
        Count::DceRounds,
        Count::DceBudgetHit,
        Count::CseCommoned,
        Count::CseReplaced,
        Count::StrengthPromoted,
        Count::StrengthReduced,
        Count::StrengthHoisted,
        Count::InlineStaticsExternalized,
        Count::StrengthMulReduced,
        Count::VectorRegisters,
    ];
}

/// What one or more passes did: every [`Count`], the loop and call-site
/// decision events and the remarks, in the order they were recorded.
/// Each pass returns one; the pass manager [`merge`](Report::merge)s
/// them into the per-pass deltas and the compilation total.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    counts: [usize; Count::ALL.len()],
    /// Per-loop decision events.
    pub loops: Vec<LoopEvent>,
    /// Per-call-site inlining decisions.
    pub inline: Vec<InlineEvent>,
    /// One note per loop the vectorizer left scalar, naming the defeating
    /// dependence or construct (surfaced as compiler remarks).
    pub notes: Vec<String>,
}

crate::struct_wire!(Report, [counts, loops, inline, notes]);

impl Report {
    /// A counter's value.
    pub fn get(&self, count: Count) -> usize {
        self.counts[count as usize]
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, count: Count, n: usize) {
        self.counts[count as usize] += n;
    }

    /// Adds `other`'s counts to this report's and appends its lists.
    pub fn merge(&mut self, other: Report) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.loops.extend(other.loops);
        self.inline.extend(other.inline);
        self.notes.extend(other.notes);
    }

    /// The loops or call sites decided as `tag` — one of
    /// [`LoopDecision::TAGS`] or [`InlineOutcome::TAGS`] — read off the
    /// decision events.
    pub fn count(&self, tag: &str) -> usize {
        let loops = self.loops.iter().map(|e| e.decision.tag());
        let sites = self.inline.iter().map(|e| e.outcome.tag());
        loops.chain(sites).filter(|t| *t == tag).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{from_bytes, to_bytes};

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
    fn events_round_trip_through_the_wire() {
        // one of every variant, in declaration order, so the tags of each
        // list are its `TAGS`
        let loops = vec![
            LoopDecision::DoConverted,
            LoopDecision::DoRejected(Reject::BranchInto),
            LoopDecision::IvSubstituted { substituted: 2 },
            LoopDecision::Vectorized {
                stripped: true,
                parallel: false,
                residual: true,
            },
            LoopDecision::Parallelized,
            LoopDecision::ListSpread,
            LoopDecision::Scalar("volatile access".into()),
            LoopDecision::Sunk("below `r`".into()),
            LoopDecision::Unrolled("into the loop on `i`".into()),
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
            let bytes = to_bytes(&e);
            assert_eq!(from_bytes::<LoopEvent>(&bytes), Ok(e));
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
        for outcome in outcomes {
            let e = InlineEvent {
                caller: "main".into(),
                callee: "daxpy".into(),
                span: SrcSpan::new(12, 3),
                outcome,
            };
            let bytes = to_bytes(&e);
            assert_eq!(from_bytes::<InlineEvent>(&bytes), Ok(e));
        }
    }

    #[test]
    fn a_rejection_is_its_position_in_all() {
        for (i, r) in Reject::ALL.into_iter().enumerate() {
            assert_eq!(r as usize, i);
            assert_eq!(from_bytes::<Reject>(&to_bytes(&r)), Ok(r));
        }
        let past = [Reject::ALL.len() as u8];
        assert!(from_bytes::<Reject>(&past).is_err());
    }

    /// A report with every count set to a distinct value, every loop
    /// decision and every inline outcome once, and one note.
    fn full_report(seed: usize) -> Report {
        let mut r = Report::default();
        for (i, c) in Count::ALL.into_iter().enumerate() {
            r.add(c, seed + i);
        }
        let loops = [
            LoopDecision::DoConverted,
            LoopDecision::DoRejected(Reject::NoStep),
            LoopDecision::IvSubstituted { substituted: seed },
            LoopDecision::Vectorized {
                stripped: false,
                parallel: true,
                residual: false,
            },
            LoopDecision::Parallelized,
            LoopDecision::ListSpread,
            LoopDecision::Scalar(format!("note {seed}")),
            LoopDecision::Sunk(format!("below `r{seed}`")),
            LoopDecision::Unrolled(format!("into the loop on `i{seed}`")),
        ];
        for (line, decision) in (1..).zip(loops) {
            let (proc, var) = (format!("p{seed}"), "i".to_string());
            let span = SrcSpan::new(line, 1);
            r.loops.push(LoopEvent {
                proc,
                var,
                span,
                decision,
            });
        }
        let outcomes = [
            InlineOutcome::Expanded,
            InlineOutcome::SkippedRecursive,
            InlineOutcome::SkippedSize {
                callee_len: seed,
                cap: 1,
            },
            InlineOutcome::SkippedGrowth {
                caller_len: seed,
                budget: 2,
            },
        ];
        for outcome in outcomes {
            let (caller, callee) = (format!("p{seed}"), "g".to_string());
            let span = SrcSpan::new(9, 2);
            r.inline.push(InlineEvent {
                caller,
                callee,
                span,
                outcome,
            });
        }
        r.notes.push(format!("note {seed}"));
        r
    }

    #[test]
    fn merge_adds_every_count_and_appends_the_lists_in_order() {
        let (a, b) = (full_report(1), full_report(100));
        let mut merged = a.clone();
        merged.merge(b.clone());
        for c in Count::ALL {
            assert_eq!(merged.get(c), a.get(c) + b.get(c), "{c:?}");
        }
        assert_eq!(merged.loops, [a.loops.clone(), b.loops.clone()].concat());
        assert_eq!(merged.inline, [a.inline.clone(), b.inline.clone()].concat());
        assert_eq!(merged.notes, ["note 1", "note 100"]);
        let mut empty = Report::default();
        empty.merge(a.clone());
        assert_eq!(empty, a, "the default report is merge's identity");
    }

    #[test]
    fn a_report_round_trips_as_a_byte_fixed_point() {
        for r in [Report::default(), full_report(7)] {
            let bytes = to_bytes(&r);
            let back = from_bytes::<Report>(&bytes).expect("decodes");
            assert_eq!(back, r);
            assert_eq!(to_bytes(&back), bytes);
            assert!(from_bytes::<Report>(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    #[test]
    fn count_reads_every_decision_tag_off_the_events() {
        let r = full_report(3);
        for tag in LoopDecision::TAGS.into_iter().chain(InlineOutcome::TAGS) {
            assert_eq!(r.count(tag), 1, "{tag}");
        }
        assert_eq!(r.count("no such tag"), 0);
        let mut twice = r.clone();
        twice.merge(r);
        for tag in LoopDecision::TAGS.into_iter().chain(InlineOutcome::TAGS) {
            assert_eq!(twice.count(tag), 2, "{tag}");
        }
    }

    #[test]
    fn a_count_is_its_position_in_all() {
        for (i, c) in Count::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
    }

    #[test]
    fn inline_event_renders_budget_state() {
        let e = InlineEvent {
            caller: "main".into(),
            callee: "daxpy".into(),
            span: SrcSpan::new(12, 3),
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
