//! Pass-manager regression tests: pipeline ordering pinned through the
//! [`PassTrace`], per-pass delta attribution, custom pipelines, and the
//! opt-in release-mode IL verifier.
//!
//! The orderings asserted here are load-bearing paper facts: while→DO
//! conversion must run before induction-variable substitution (§5.2 — IVS
//! only fires on counted loops), and vectorization must run before the §6
//! strength reductions (which rewrite the vector IL the vectorizer emits).

use titanc_repro::il::LoopDecision;
use titanc_repro::titanc::{compile, Count, Options, Pass, PassContext, Pipeline};

/// A while-loop kernel that exercises every scalar pass plus the
/// vectorizer: daxpy with pointer bumping, inlined into main.
const KERNEL: &str = r#"
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}
float a[100], b[100], c[100];
int main(void)
{
    daxpy(a, b, c, 3.0f, 100);
    return 0;
}
"#;

fn index_of(c: &titanc_repro::titanc::Compilation, name: &str) -> usize {
    c.trace
        .index_of(name)
        .unwrap_or_else(|| panic!("pass `{name}` missing from trace: {:?}", pass_names(c)))
}

fn pass_names(c: &titanc_repro::titanc::Compilation) -> Vec<&'static str> {
    c.trace.records.iter().map(|r| r.name).collect()
}

#[test]
fn while_do_conversion_runs_before_ivsub() {
    let c = compile(KERNEL, &Options::parallel()).unwrap();
    assert!(
        index_of(&c, "whiledo") < index_of(&c, "ivsub"),
        "IVS needs counted loops, so while→DO must come first: {:?}",
        pass_names(&c)
    );
    // and the ordering matters: both actually fired on this kernel
    assert!(c.reports.count("do_converted") >= 1);
    assert!(LoopDecision::ivs_substituted(&c.reports.loops) >= 1);
}

#[test]
fn vectorize_runs_before_strength_reduction() {
    let c = compile(KERNEL, &Options::parallel()).unwrap();
    assert!(
        index_of(&c, "vectorize") < index_of(&c, "strength"),
        "§6 optimizations rewrite vector IL: {:?}",
        pass_names(&c)
    );
    assert!(c.reports.count("vectorized") >= 1);
}

#[test]
fn trace_matches_pipeline_for_options() {
    // the trace is the pipeline: same passes, same order
    let opts = Options::parallel();
    let c = compile(KERNEL, &opts).unwrap();
    assert_eq!(pass_names(&c), Pipeline::for_options(&opts).pass_names());
}

#[test]
fn o0_trace_is_empty_and_o1_has_no_vector_passes() {
    let c0 = compile(KERNEL, &Options::o0()).unwrap();
    assert!(
        c0.trace.records.is_empty(),
        "O0 without inlining runs no passes: {:?}",
        pass_names(&c0)
    );
    let c1 = compile(KERNEL, &Options::o1()).unwrap();
    for forbidden in ["vectorize", "strength", "spread_lists"] {
        assert!(
            c1.trace.index_of(forbidden).is_none(),
            "O1 must not run `{forbidden}`: {:?}",
            pass_names(&c1)
        );
    }
    assert!(c1.trace.index_of("whiledo").is_some());
}

#[test]
fn per_pass_deltas_attribute_work_to_the_right_pass() {
    let c = compile(KERNEL, &Options::parallel()).unwrap();
    let whiledo = c.trace.record("whiledo").unwrap();
    assert!(whiledo.changed);
    assert!(whiledo.delta.count("do_converted") >= 1);
    // a pass's delta contains only its own statistics
    assert_eq!(whiledo.delta.count("vectorized"), 0);
    let vectorize = c.trace.record("vectorize").unwrap();
    assert!(vectorize.delta.count("vectorized") >= 1);
    assert_eq!(vectorize.delta.count("do_converted"), 0);
}

#[test]
fn aggregate_reports_equal_sum_of_deltas() {
    let c = compile(KERNEL, &Options::parallel()).unwrap();
    for count in Count::ALL {
        let summed: usize = c.trace.records.iter().map(|r| r.delta.get(count)).sum();
        assert_eq!(
            c.reports.get(count),
            summed,
            "{count:?} total = sum of deltas"
        );
    }
    let inlined: usize = c
        .trace
        .records
        .iter()
        .map(|r| r.delta.count("expanded"))
        .sum();
    assert_eq!(c.reports.count("expanded"), inlined);
}

#[test]
fn release_mode_verifier_accepts_the_whole_pipeline() {
    // debug builds verify implicitly; `verify: true` covers release runs.
    // A verifier failure panics as an internal compiler error.
    for opts in [
        Options::o0(),
        Options::o1(),
        Options::o2(),
        Options::parallel(),
    ] {
        let c = compile(
            KERNEL,
            &Options {
                verify: true,
                inline: true,
                ..opts
            },
        )
        .unwrap();
        titanc_repro::il::verify_program(&c.program).expect("final IL verifies");
    }
}

#[test]
fn custom_pipeline_runs_user_defined_passes() {
    use std::cell::Cell;
    use std::rc::Rc;

    struct CountProcs {
        seen: Rc<Cell<usize>>,
    }
    impl Pass for CountProcs {
        fn name(&self) -> &'static str {
            "count-procs"
        }
        fn run(
            &self,
            program: &mut titanc_repro::titanc::Program,
            _cx: &PassContext<'_>,
            _delta: &mut titanc_repro::titanc::Report,
        ) {
            self.seen.set(program.procs.len());
        }
    }

    let opts = Options::o0();
    let mut program = titanc_lower::compile_to_il(KERNEL).unwrap();
    let seen = Rc::new(Cell::new(0));
    let mut pipeline = Pipeline::new();
    pipeline.push(CountProcs { seen: seen.clone() });
    assert_eq!(pipeline.pass_names(), vec!["count-procs"]);
    let (_, trace) = pipeline.run(&mut program, &opts, &mut Vec::new(), None);
    assert_eq!(seen.get(), 2, "daxpy + main");
    let rec = trace.record("count-procs").expect("custom pass traced");
    assert!(!rec.changed);
}
