//! The independent reference every workload's outputs are checked
//! against, built in-process during set-up: the `-O0` program observed on
//! the tree-walking interpreter must equal the optimized program observed
//! on both engines (return value, printed output, every word of every
//! global), and the two engines must report equal statistics.

use titanc::{compile_session, Options, SourceFile};
use titanc_il::ScalarType;
use titanc_titan::{observe_with, ExecEngine, MachineConfig};

use crate::gen::SourceText;
use crate::parse::TitanLine;

/// The `Options` and simulated processor count a `titanc` flag list names.
/// Only the flags the workloads use are known here.
pub fn options_for(flags: &[&str]) -> (Options, u32) {
    let mut options = Options::o2();
    options.jobs = 1;
    let mut procs = 1;
    let mut it = flags.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "-O2" => {}
            "--parallel" => options.parallelize = true,
            "--spread-lists" => options.spread_lists = true,
            "--procs" => {
                procs = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--procs takes a number");
            }
            other => panic!("options_for: unknown flag {other}"),
        }
    }
    (options, procs)
}

pub fn source_files(files: &[SourceText]) -> Vec<SourceFile> {
    files
        .iter()
        .map(|f| SourceFile::new(f.name.clone(), f.src.clone()))
        .collect()
}

/// Runs the three observations and compares them. Returns what a correct
/// `--run` of the program prints on its `[titan]` line.
pub fn check(files: &[SourceText], flags: &[&str]) -> Result<TitanLine, String> {
    let what = &files.last().expect("at least one file").name;
    let sources = source_files(files);
    let (options, procs) = options_for(flags);
    let mut o0 = Options::o0();
    o0.jobs = 1;
    let plain = compile_session(&sources, &o0, None).map_err(|e| format!("{what} -O0: {e}"))?;
    let optimized =
        compile_session(&sources, &options, None).map_err(|e| format!("{what}: {e}"))?;

    // every global of the source, word by word: integers compare exactly
    // where a float NaN would not equal itself
    let plain_prog = &plain.compilation.program;
    let globals: Vec<(&str, ScalarType, u32)> = plain_prog
        .globals
        .iter()
        .map(|g| {
            let words = (plain_prog.type_size(&g.ty) as u32).div_ceil(4);
            (g.name.as_str(), ScalarType::Int, words)
        })
        .collect();

    let observe = |program, machine, engine| {
        observe_with(program, machine, engine, "main", &globals)
            .map_err(|e| format!("{what} on {engine}: {e}"))
    };
    let (want, _) = observe(plain_prog, MachineConfig::scalar(), ExecEngine::Interp)?;
    let machine = MachineConfig::optimized(procs);
    let program = &optimized.compilation.program;
    let (interp, interp_stats) = observe(program, machine.clone(), ExecEngine::Interp)?;
    let (vm, vm_stats) = observe(program, machine, ExecEngine::Vm)?;
    if interp != want {
        return Err(format!(
            "{what}: optimized program differs from -O0 on the interpreter"
        ));
    }
    if vm != want {
        return Err(format!(
            "{what}: optimized program differs from -O0 on the VM"
        ));
    }
    if interp_stats != vm_stats {
        return Err(format!("{what}: interpreter and VM statistics differ"));
    }
    Ok(TitanLine {
        // the CLI prints `{:.0}` of the same f64
        cycles: format!("{:.0}", interp_stats.cycles)
            .parse()
            .map_err(|e| format!("{what}: cycles: {e}"))?,
        exit: want.value.map(|v| v.as_int()),
    })
}
