//! The default engine, pinned where a user meets it: `titanc --run` must
//! print and exit exactly as a run on the reference interpreter renders,
//! for every runnable corpus program and the paper's two worked examples,
//! while the default engine is the bytecode VM.

use std::path::{Path, PathBuf};
use std::process::Command;

use titanc::{OptLevel, Options};
use titanc_titan::{observe_with, ExecEngine, MachineConfig, SimError, Simulator, CLOCK_MHZ};

/// §5.3's pointer-walk copy, with its result printed.
const PAPER_COPY: &str = "\
float src_a[100], dst_a[100];
int main(void)
{
    float *a, *b;
    int n, i;
    for (i = 0; i < 100; i++)
        src_a[i] = i * 1.5f;
    a = &dst_a[0];
    b = &src_a[0];
    n = 100;
    while (n) { *a++ = *b++; n--; }
    print_float(dst_a[99]);
    return (int)dst_a[7];
}
";

/// §9's daxpy behind its two guards, called so that both inline.
const PAPER_DAXPY: &str = "\
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}
float a[100], b[100], c[100];
int main(void)
{
    int i;
    for (i = 0; i < 100; i++) { b[i] = i; c[i] = 2 * i; }
    daxpy(a, b, c, 1.0, 100);
    daxpy(c, a, b, 0.0, 100);
    print_float(a[99]);
    print_int((int)c[50]);
    return (int)a[10];
}
";

/// The flag sets `--run` is exercised under, with the `Options` each
/// parses to.
fn flag_sets() -> Vec<(&'static [&'static str], Options, u32)> {
    vec![
        (&["-O0"], Options::o0(), 1),
        (&["-O1"], Options::o1(), 1),
        (&["-O2"], Options::o2(), 1),
        (
            &["-O2", "--parallel", "--procs", "2"],
            Options::parallel(),
            2,
        ),
        (
            &["-O2", "--parallel", "--spread-lists", "--procs", "4"],
            Options {
                spread_lists: true,
                ..Options::parallel()
            },
            4,
        ),
    ]
}

/// The machine `titanc --run` simulates for a level and `--procs`.
fn machine_for(options: &Options, procs: u32) -> MachineConfig {
    match options.opt {
        OptLevel::O0 | OptLevel::O1 => MachineConfig {
            num_procs: procs,
            ..MachineConfig::scalar()
        },
        OptLevel::O2 => MachineConfig::optimized(procs),
    }
}

/// What `titanc --run` prints and exits with for a run that produced
/// `output`, `stats` and `value` — or a trap.
fn render(
    run: Result<(titanc_titan::Observation, titanc_titan::ExecStats), SimError>,
) -> (String, i32) {
    match run {
        Ok((obs, stats)) => {
            let mut out = String::new();
            for line in &obs.output {
                out.push_str(line);
                out.push('\n');
            }
            out.push_str(&format!(
                "[titan] {:.0} cycles, {:.3} ms at 16 MHz, {:.2} MFLOPS, exit {}\n",
                stats.cycles,
                stats.seconds(CLOCK_MHZ) * 1e3,
                stats.mflops(CLOCK_MHZ),
                obs.value
                    .map(|v| v.as_int().to_string())
                    .unwrap_or_else(|| "void".into())
            ));
            let exit = obs.value.map_or(0, |v| (v.as_int() & 0xff) as i32);
            (out, exit)
        }
        Err(_) => (String::new(), 1),
    }
}

fn check(path: &Path, src: &str, volatile: &[i64]) {
    for (flags, options, procs) in flag_sets() {
        let what = format!("{} {flags:?}", path.display());
        let compiled = titanc::compile(src, &options).unwrap_or_else(|e| panic!("{what}: {e}"));
        let machine = machine_for(&options, procs);
        let reference = if volatile.is_empty() {
            observe_with(&compiled.program, machine, ExecEngine::Interp, "main", &[])
        } else {
            // `observe_with` has no device script; same run, by hand
            let mut sim = Simulator::with_engine(&compiled.program, machine, ExecEngine::Interp);
            sim.push_volatile_values(volatile);
            sim.run("main", &[]).map(|r| {
                let obs = titanc_titan::Observation {
                    value: r.value,
                    output: r.stats.output.clone(),
                    globals: Vec::new(),
                };
                (obs, r.stats)
            })
        };
        let (want_stdout, want_exit) = render(reference);

        let mut cmd = Command::new(env!("CARGO_BIN_EXE_titanc"));
        cmd.args(flags).arg("--run").arg(path);
        if !volatile.is_empty() {
            let script: Vec<String> = volatile.iter().map(i64::to_string).collect();
            cmd.arg("--volatile-values").arg(script.join(","));
        }
        let out = cmd.output().unwrap();
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            want_stdout,
            "{what}: stdout"
        );
        assert_eq!(out.status.code(), Some(want_exit), "{what}: exit status");
    }
}

#[test]
fn the_default_engine_is_the_vm() {
    assert_eq!(ExecEngine::default(), ExecEngine::Vm);
    let prog = titanc::compile("int main(void) { return 0; }", &Options::o0())
        .unwrap()
        .program;
    assert_eq!(
        Simulator::new(&prog, MachineConfig::default()).engine(),
        ExecEngine::Vm
    );
}

#[test]
fn titanc_run_matches_the_reference_interpreter_on_the_corpus() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut ran = 0;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).unwrap();
        if !src.contains("int main(") {
            continue; // a library (blaslib.c): nothing to run
        }
        // the poll loop spins until its device register reads nonzero
        let volatile: &[i64] = if src.contains("volatile") {
            &[0, 0, 0, 7]
        } else {
            &[]
        };
        check(&path, &src, volatile);
        ran += 1;
    }
    assert!(ran >= 6, "only {ran} runnable corpus programs found");
}

#[test]
fn titanc_run_matches_the_reference_interpreter_on_the_paper_examples() {
    let dir = std::env::temp_dir().join(format!("titanc-run-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, src) in [("copy.c", PAPER_COPY), ("daxpy.c", PAPER_DAXPY)] {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        check(&path, src, &[]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
