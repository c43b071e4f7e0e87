//! Fail-soft acceptance tests: a pass that faults on one procedure is
//! contained — the procedure rolls back to its last-verified IL, every
//! other procedure is still fully optimized, exactly one [`PassIncident`]
//! lands on the trace, and the result is identical at `-j 1` and `-j 4`.

use titanc_il::{pretty_proc, Procedure, Program, StmtKind};
use titanc_repro::titanc::{
    compile, compile_with, Compilation, IncidentKind, Options, Pass, PassContext, Pipeline,
    ProcAnalyses, ProcPass, Reports,
};
use titanc_titan::{MachineConfig, Simulator};

/// Three independent procedures so containment in one is observable in
/// the others: two vectorizable kernels and a faulty target.
const KERNEL: &str = r#"
float a[64], b[64], c[64];
void left(void) { int i; for (i = 0; i < 64; i++) a[i] = b[i] + c[i]; }
void faulty(void) { int i; for (i = 0; i < 64; i++) b[i] = 2.0f * c[i]; }
void right(void) { int i; for (i = 0; i < 64; i++) c[i] = a[i] * a[i]; }
int main(void) { left(); faulty(); right(); return 21; }
"#;

fn options(jobs: usize) -> Options {
    Options {
        inline: false, // keep the three procedures separate and comparable
        verify: true,
        jobs,
        ..Options::o2()
    }
}

/// Panics on the chosen procedure after wrecking it, so a surviving wreck
/// would be visible: rollback must restore the pre-pass IL exactly.
struct Boom;

impl ProcPass for Boom {
    fn name(&self) -> &'static str {
        "boom"
    }

    fn run_on(
        &self,
        proc: &mut Procedure,
        _cx: &PassContext<'_>,
        _analyses: &mut ProcAnalyses,
        _delta: &mut Reports,
    ) {
        if proc.name == "faulty" {
            proc.body.clear();
            proc.bump_generation();
            panic!("injected fault in `{}`", proc.name);
        }
    }
}

/// Corrupts the chosen procedure *without* panicking: a goto to a label
/// that is never defined. The inter-pass verifier must catch it and the
/// manager must roll back, exactly as for a panic.
struct Corrupt;

impl ProcPass for Corrupt {
    fn name(&self) -> &'static str {
        "corrupt"
    }

    fn run_on(
        &self,
        proc: &mut Procedure,
        _cx: &PassContext<'_>,
        _analyses: &mut ProcAnalyses,
        _delta: &mut Reports,
    ) {
        if proc.name == "faulty" {
            let dangling = proc.fresh_label();
            let st = proc.stamp(StmtKind::Goto(dangling));
            proc.body.push(st);
            proc.bump_generation();
        }
    }
}

fn compile_injected(pass: impl ProcPass + 'static, jobs: usize) -> Compilation {
    let opts = options(jobs);
    let mut pipeline = Pipeline::for_options(&opts);
    pipeline.push_proc(pass);
    compile_with(KERNEL, &opts, pipeline).expect("front end is clean")
}

fn pretty_all(program: &Program) -> Vec<(String, String)> {
    program
        .procs
        .iter()
        .map(|p| (p.name.clone(), pretty_proc(p)))
        .collect()
}

#[test]
fn injected_panic_is_contained_and_rolled_back() {
    let reference = compile(KERNEL, &options(1)).expect("reference compile");
    assert!(!reference.has_incidents());

    let faulted = compile_injected(Boom, 1);

    // exactly one incident, attributed to the right pass and procedure
    assert_eq!(
        faulted.trace.incidents.len(),
        1,
        "{:?}",
        faulted.trace.incidents
    );
    let incident = &faulted.trace.incidents[0];
    assert_eq!(incident.pass, "boom");
    assert_eq!(incident.proc.as_deref(), Some("faulty"));
    assert_eq!(incident.kind, IncidentKind::Panic);
    assert!(incident.detail.contains("injected fault"));

    // the faulty procedure rolled back to its last-verified IL — which,
    // with the fault injected after the standard pipeline, is the fully
    // optimized body — and every other procedure is untouched by the
    // containment: the whole program matches the reference compile
    assert_eq!(pretty_all(&faulted.program), pretty_all(&reference.program));

    // and the other procedures really were optimized, not just preserved
    assert!(
        faulted.reports.count("vectorized") >= 2,
        "{:?}",
        faulted.reports.vector
    );
}

#[test]
fn verifier_rejection_is_contained_like_a_panic() {
    let reference = compile(KERNEL, &options(1)).expect("reference compile");
    let faulted = compile_injected(Corrupt, 1);

    assert_eq!(
        faulted.trace.incidents.len(),
        1,
        "{:?}",
        faulted.trace.incidents
    );
    let incident = &faulted.trace.incidents[0];
    assert_eq!(incident.pass, "corrupt");
    assert_eq!(incident.proc.as_deref(), Some("faulty"));
    assert_eq!(incident.kind, IncidentKind::VerifyFailed);

    assert_eq!(pretty_all(&faulted.program), pretty_all(&reference.program));
}

#[test]
fn containment_is_identical_across_job_counts() {
    let j1 = compile_injected(Boom, 1);
    let j4 = compile_injected(Boom, 4);

    assert_eq!(j1.trace.incidents, j4.trace.incidents);
    assert_eq!(pretty_all(&j1.program), pretty_all(&j4.program));
    let names1: Vec<_> = j1.trace.records.iter().map(|r| r.name).collect();
    let names4: Vec<_> = j4.trace.records.iter().map(|r| r.name).collect();
    assert_eq!(names1, names4);
}

#[test]
fn degraded_program_still_executes() {
    let faulted = compile_injected(Boom, 4);
    let mut sim = Simulator::new(&faulted.program, MachineConfig::optimized(1));
    let result = sim.run("main", &[]).expect("degraded program runs");
    assert_eq!(result.value.map(|v| v.as_int()), Some(21));
}

/// A whole-program pass that wrecks the program then panics: containment
/// at program granularity must restore the backup wholesale.
struct ProgramBoom;

impl Pass for ProgramBoom {
    fn name(&self) -> &'static str {
        "program-boom"
    }

    fn run(&self, program: &mut Program, _cx: &PassContext<'_>, _delta: &mut Reports) {
        program.procs.clear();
        panic!("injected whole-program fault");
    }
}

#[test]
fn whole_program_pass_panic_restores_the_backup() {
    let reference = compile(KERNEL, &options(1)).expect("reference compile");
    let opts = options(1);
    let mut pipeline = Pipeline::for_options(&opts);
    // pushed after the chain, but a whole-program pass joins the prefix:
    // ProgramBoom runs first, and the chain runs over the restored program
    pipeline.push(ProgramBoom);
    let faulted = compile_with(KERNEL, &opts, pipeline).expect("front end is clean");

    assert_eq!(
        faulted.trace.incidents.len(),
        1,
        "{:?}",
        faulted.trace.incidents
    );
    let incident = &faulted.trace.incidents[0];
    assert_eq!(incident.pass, "program-boom");
    assert_eq!(incident.proc, None);
    assert_eq!(incident.kind, IncidentKind::Panic);

    assert_eq!(pretty_all(&faulted.program), pretty_all(&reference.program));
}

/// The `-O2` pipeline of [`options`] with `pass` put in at stage `at`.
fn compile_injected_at(pass: impl ProcPass + 'static, at: usize, jobs: usize) -> Compilation {
    let opts = options(jobs);
    let mut pipeline = Pipeline::for_options(&opts);
    pipeline.insert_proc(at, pass);
    compile_with(KERNEL, &opts, pipeline).expect("front end is clean")
}

fn pretty_of<'a>(all: &'a [(String, String)], name: &str) -> &'a str {
    &all.iter().find(|(n, _)| n == name).expect("procedure").1
}

/// A fault at *any* position of the chain leaves the procedure exactly
/// what the passes before that position made of it — the state the one
/// entry snapshot is replayed to — and nothing else moves.
#[test]
fn a_fault_at_every_chain_position_rolls_back_to_the_passes_before_it() {
    let opts = options(1);
    let stages = Pipeline::for_options(&opts).pass_names().len();
    assert_eq!(
        stages, 10,
        "inlining is off: every -O2 stage is per-procedure"
    );
    let reference = pretty_all(&compile(KERNEL, &opts).expect("reference").program);
    for at in 0..=stages {
        let truncated = Pipeline::for_options(&opts).truncated(at);
        let prefix = pretty_all(
            &compile_with(KERNEL, &opts, truncated)
                .expect("prefix")
                .program,
        );
        for (name, kind) in [
            ("boom", IncidentKind::Panic),
            ("corrupt", IncidentKind::VerifyFailed),
        ] {
            let inject = |jobs| match kind {
                IncidentKind::Panic => compile_injected_at(Boom, at, jobs),
                IncidentKind::VerifyFailed => compile_injected_at(Corrupt, at, jobs),
            };
            let (j1, j4) = (inject(1), inject(4));
            let what = format!("`{name}` at stage {at}");
            assert_eq!(
                j1.trace.incidents.len(),
                1,
                "{what}: {:?}",
                j1.trace.incidents
            );
            let incident = &j1.trace.incidents[0];
            assert_eq!((incident.pass, &incident.kind), (name, &kind), "{what}");
            assert_eq!(incident.proc.as_deref(), Some("faulty"), "{what}");
            assert!(
                !incident.detail.contains("replaying"),
                "{what}: {}",
                incident.detail
            );
            let got = pretty_all(&j1.program);
            assert_eq!(
                pretty_of(&got, "faulty"),
                pretty_of(&prefix, "faulty"),
                "{what}"
            );
            for healthy in ["left", "right", "main"] {
                assert_eq!(
                    pretty_of(&got, healthy),
                    pretty_of(&reference, healthy),
                    "{what}"
                );
            }
            assert_eq!(j1.trace.incidents, j4.trace.incidents, "{what}: -j 4");
            assert_eq!(got, pretty_all(&j4.program), "{what}: -j 4");
        }
    }
}

/// Runs clean the first time it sees `faulty` and panics the second: the
/// second time is the rollback's replay.
struct FailsOnReplay(std::sync::atomic::AtomicUsize);

impl ProcPass for FailsOnReplay {
    fn name(&self) -> &'static str {
        "fails-on-replay"
    }

    fn run_on(
        &self,
        proc: &mut Procedure,
        _cx: &PassContext<'_>,
        _analyses: &mut ProcAnalyses,
        _delta: &mut Reports,
    ) {
        if proc.name == "faulty" && self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst) > 0 {
            panic!("not deterministic after all");
        }
    }
}

#[test]
fn a_failing_replay_degrades_to_the_chain_entry_state() {
    let opts = options(1);
    let entry = compile_with(KERNEL, &opts, Pipeline::new()).expect("no passes");
    let reference = pretty_all(&compile(KERNEL, &opts).expect("reference").program);
    let mut pipeline = Pipeline::for_options(&opts);
    pipeline.insert_proc(0, FailsOnReplay(Default::default()));
    pipeline.insert_proc(4, Boom);
    let faulted = compile_with(KERNEL, &opts, pipeline).expect("front end is clean");

    assert_eq!(
        faulted.trace.incidents.len(),
        1,
        "{:?}",
        faulted.trace.incidents
    );
    let incident = &faulted.trace.incidents[0];
    assert_eq!(
        (incident.pass, incident.proc.as_deref()),
        ("boom", Some("faulty"))
    );
    assert!(
        incident.detail.contains("injected fault"),
        "{}",
        incident.detail
    );
    assert!(
        incident
            .detail
            .contains("replaying the earlier passes failed (not deterministic"),
        "{}",
        incident.detail
    );
    let got = pretty_all(&faulted.program);
    assert_eq!(
        pretty_of(&got, "faulty"),
        pretty_of(&pretty_all(&entry.program), "faulty")
    );
    for healthy in ["left", "right", "main"] {
        assert_eq!(pretty_of(&got, healthy), pretty_of(&reference, healthy));
    }
}
