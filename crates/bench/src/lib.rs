//! # titanc-bench — the experiments table and the stress tooling
//!
//! [`experiments`] is the paper's evaluation as data: one table of eleven
//! experiments (EXP1–EXP11) whose deterministic rows *are* the generated
//! block of `EXPERIMENTS.md` — `tests/experiments.rs` holds the document to
//! the tool byte for byte. `cargo run --release -p titanc-bench --bin exp`
//! prints the tables (`exp EXP3`, `exp --markdown`). [`sweep`] is the
//! differential harness: [`progen`]'s programs as one case stream and the
//! named checks every case must pass (`stress --check NAME`,
//! `tests/sweep.rs`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod progen;
pub mod sweep;

use titanc::{compile, Options};
use titanc_titan::{ExecStats, MachineConfig, Simulator, CLOCK_MHZ};

/// The paper's corpus, embedded.
pub mod corpus {
    /// §9 daxpy example.
    pub const DAXPY: &str = include_str!("../../../corpus/daxpy.c");
    /// §6 backsolve loop.
    pub const BACKSOLVE: &str = include_str!("../../../corpus/backsolve.c");
    /// §5.3 pointer-walk copy.
    pub const COPY: &str = include_str!("../../../corpus/copy.c");
    /// §1 volatile poll loop.
    pub const VOLATILE_POLL: &str = include_str!("../../../corpus/volatile_poll.c");
    /// §10 struct-embedded arrays (graphics transform).
    pub const STRUCT_MATRIX: &str = include_str!("../../../corpus/struct_matrix.c");
    /// BLAS-1 library used for catalog inlining.
    pub const BLASLIB: &str = include_str!("../../../corpus/blaslib.c");
    /// §10 linked-list walk (future-work spreading).
    pub const LISTWALK: &str = include_str!("../../../corpus/listwalk.c");
}

/// Compiles `src` with `options` and runs `main` on `machine`, returning
/// the run statistics.
///
/// # Panics
///
/// Panics on compile or runtime errors — experiments are supposed to work.
pub fn run(src: &str, options: &Options, machine: MachineConfig) -> ExecStats {
    let compiled = compile(src, options).expect("experiment source compiles");
    let mut sim = Simulator::new(&compiled.program, machine);
    let result = sim.run("main", &[]).expect("experiment runs");
    result.stats
}

/// The work contract `sweep`'s `observe` check and `exp` hold every
/// optimized build to: it executes no more flops and no more scalar loads
/// than the same program built at `-O0` (optimization may add cycles of
/// overhead, never arithmetic or memory traffic). The error names both
/// counts.
pub fn no_more_work_than_o0(o0: &ExecStats, opt: &ExecStats) -> Result<(), String> {
    if opt.flops > o0.flops || opt.loads > o0.loads {
        return Err(format!(
            "executes more work than -O0: {} flops and {} loads against {} and {}",
            opt.flops, opt.loads, o0.flops, o0.loads
        ));
    }
    Ok(())
}

/// MFLOPS at the Titan's clock.
pub fn mflops(stats: &ExecStats) -> f64 {
    stats.mflops(CLOCK_MHZ)
}

/// A row of an experiment table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Configuration label.
    pub label: String,
    /// Measured value.
    pub value: f64,
    /// Unit/notes.
    pub note: String,
    /// True for what the simulator and the passes determine — cycles,
    /// MFLOPS, counts, decisions, exit values: the same on every host and
    /// pinned by `EXPERIMENTS.md`. False for host wall-clock, which only
    /// the `exp` binary computes.
    pub exact: bool,
}

impl Row {
    /// A deterministic row.
    pub fn exact(label: impl Into<String>, value: f64, note: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            value,
            note: note.into(),
            exact: true,
        }
    }

    /// A wall-clock row; [`print_table`] labels it as host-dependent.
    pub fn host(label: impl Into<String>, value: f64, note: impl Into<String>) -> Row {
        Row {
            exact: false,
            ..Row::exact(label, value, note)
        }
    }
}

/// Prints an experiment table with a title and the paper's claim.
pub fn print_table(title: &str, paper_claim: &str, rows: &[Row]) {
    println!("== {title}");
    println!("   paper: {paper_claim}");
    for r in rows {
        let host = if r.exact { "" } else { " (host-dependent)" };
        println!("   {:<42} {:>12.3}  {}{host}", r.label, r.value, r.note);
    }
    println!();
}

/// Builds a parameterized daxpy-style kernel source.
pub fn daxpy_source(n: usize) -> String {
    format!(
        r#"
void daxpy(float *x, float *y, float *z, float alpha, int n)
{{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}}
float a[{n}], b[{n}], c[{n}];
int main(void)
{{
    daxpy(a, b, c, 1.0, {n});
    return 0;
}}
"#
    )
}

/// Builds the §5.3 pointer-copy kernel of a given size.
pub fn copy_source(n: usize) -> String {
    format!(
        r#"
float dst[{n}], src[{n}];
int main(void)
{{
    float *a, *b;
    int n;
    a = &dst[0];
    b = &src[0];
    n = {n};
#pragma safe
    while (n) {{
        *a++ = *b++;
        n--;
    }}
    return 0;
}}
"#
    )
}

/// Builds the §6 backsolve kernel of a given size.
pub fn backsolve_source(n: usize) -> String {
    let arr = n + 2;
    format!(
        r#"
float x[{arr}], y[{arr}], z[{arr}];
int main(void)
{{
    float *p, *q;
    int i;
    p = &x[1];
    q = &x[0];
    for (i = 0; i < {n}; i++)
        p[i] = z[i] * (y[i] - q[i]);
    return 0;
}}
"#
    )
}

/// The EXP5 loop-form corpus: `(name, source, expected to convert)`.
pub fn whiledo_corpus() -> Vec<(&'static str, String, bool)> {
    vec![
        (
            "canonical for (i = 0; i < n; i++)",
            "void f(float *a, int n) { int i; for (i = 0; i < n; i++) a[i] = 0; }".into(),
            true,
        ),
        (
            "countdown while (n) { ... n--; }",
            "void f(float *a, int n) { while (n) { *a++ = 0; n--; } }".into(),
            true,
        ),
        (
            "paper §5.2: i = n; while (i) i = temp - s",
            "void f(int n, int s) { int i, temp; i = n; while (i) { temp = i; i = temp - s; } }"
                .into(),
            true,
        ),
        (
            "for (i = n; i >= 0; i--)",
            "void f(float *a, int n) { int i; for (i = n; i >= 0; i--) a[i] = 0; }".into(),
            true,
        ),
        (
            "stride 4: for (i = 0; i < n; i += 4)",
            "void f(float *a, int n) { int i; for (i = 0; i < n; i += 4) a[i] = 0; }".into(),
            true,
        ),
        (
            "i != n with unit step",
            "void f(float *a, int n) { int i; for (i = 0; i != n; i++) a[i] = 0; }".into(),
            true,
        ),
        (
            "branch into loop",
            "void f(int n) { if (n > 5) goto ins; while (n) { ins: n = n - 1; } }".into(),
            false,
        ),
        (
            "break out of loop",
            "void f(int n) { while (n) { if (n == 3) break; n--; } }".into(),
            false,
        ),
        (
            "return inside loop",
            "int f(int n) { while (n) { if (n == 2) return 1; n--; } return 0; }".into(),
            false,
        ),
        (
            "volatile condition (true while loop)",
            "volatile int st; void f(void) { while (!st); }".into(),
            false,
        ),
        (
            "bound varies in loop",
            "void f(int n, int b) { int i; for (i = 0; i < b; i++) b = b - 1; }".into(),
            false,
        ),
        (
            "stride varies in loop",
            "void f(int n, int s) { int i; for (i = 0; i < n; i += s) s = s + 1; }".into(),
            false,
        ),
        (
            "conditional step",
            "void f(int n, int c) { int i; i = 0; while (i < n) { if (c) i = i + 1; } }".into(),
            false,
        ),
        (
            "linked-list walk (true while loop)",
            "struct nd { int v; struct nd *next; };\nvoid f(struct nd *p) { while (p) p = p->next; }"
                .into(),
            false,
        ),
        (
            "wrong direction",
            "void f(int n) { int i; for (i = 0; i < n; i--) { ; } }".into(),
            false,
        ),
        (
            "i != n with stride 2 (may step over)",
            "void f(int n) { int i; for (i = 0; i != n; i += 2) { ; } }".into(),
            false,
        ),
    ]
}

/// Generates a loop whose body contains a chain of `k` interdependent
/// copy/increment pairs — the EXP6 backtracking stressor. Each pointer's
/// increment hides behind the previous pointer's copy temporary.
pub fn ivsub_chain_source(k: usize, n: usize) -> String {
    let mut decls = String::new();
    let mut init = String::new();
    let mut body = String::new();
    for j in 0..k {
        decls.push_str(&format!("    float *p{j};\n"));
        init.push_str(&format!("    p{j} = &data[{j}];\n"));
        body.push_str(&format!("        *p{j}++ = {j}.0f;\n"));
    }
    format!(
        r#"
float data[{size}];
int main(void)
{{
{decls}    int n;
{init}    n = {n};
    while (n) {{
{body}        n--;
    }}
    return 0;
}}
"#,
        size = n * 2 + k + 2,
    )
}

/// Generates one procedure, `kernel<tag>`, of `loops` consecutive
/// vectorizable `for` loops over three global arrays of its own, after
/// three branch-defined scalars — the shape of one `mp9` procedure of the
/// benchmark, with the loop count as the knob. Pass time per loop staying
/// flat as `loops` grows is what "the scalar pipeline is linear in
/// procedure size" means (EXP6's second axis, and the allocation ratchet
/// in `tests/scaling_ratchet.rs`).
pub fn many_loops_source(tag: usize, loops: usize) -> String {
    let t = tag;
    let bodies = [
        format!("        ma{t}[i] = (mb{t}[i] * t3 + mc{t}[i] * t2) * 0.025f;\n"),
        format!("        mc{t}[i] = (ma{t}[i] + mb{t}[i] * t1) * 0.2f;\n"),
        format!("        mb{t}[i] = (mc{t}[i - 1] * t2 + ma{t}[i + 1]) * 0.111f;\n"),
    ];
    let mut body = String::new();
    for k in 0..loops {
        // the third form reads its neighbours, so it stays off the ends
        let (lo, hi) = if k % 3 == 2 { (1, 255) } else { (0, 256) };
        body.push_str(&format!("    for (i = {lo}; i < {hi}; i++)\n"));
        body.push_str(&bodies[k % 3]);
    }
    format!(
        r#"
float ma{t}[256], mb{t}[256], mc{t}[256];
void kernel{t}(int n)
{{
    int i, t0, t1, t2, t3;
    for (i = 0; i < 256; i++) {{
        ma{t}[i] = 19.0f + i;
        mb{t}[i] = 19.5f - i;
        mc{t}[i] = i * 0.25f;
    }}
    if (n) t0 = 2; else t0 = 2;
    if (n) t1 = t0 * t0; else t1 = t0 * t0;
    if (n) t2 = t1 + t1; else t2 = t1 + t1;
    t3 = t2 * t1;
{body}}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_compiles_at_o2() {
        for (name, src) in [
            ("daxpy", corpus::DAXPY),
            ("backsolve", corpus::BACKSOLVE),
            ("copy", corpus::COPY),
            ("volatile", corpus::VOLATILE_POLL),
            ("struct_matrix", corpus::STRUCT_MATRIX),
            ("blaslib", corpus::BLASLIB),
            ("listwalk", corpus::LISTWALK),
        ] {
            compile(src, &Options::o2()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn generators_compile_and_run() {
        for src in [daxpy_source(16), copy_source(16), backsolve_source(16)] {
            let stats = run(&src, &Options::o2(), MachineConfig::optimized(1));
            assert!(stats.cycles > 0.0);
        }
    }

    #[test]
    fn whiledo_corpus_is_consistent() {
        for (name, src, expect) in whiledo_corpus() {
            let prog = titanc_lower::compile_to_il(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut proc = prog.procs[0].clone();
            let rep = titanc_opt::convert_while_loops(&mut proc);
            let converted = titanc_il::LoopDecision::DoConverted;
            let converted = rep.events.iter().any(|e| e.decision == converted);
            assert_eq!(converted, expect, "{name}");
        }
    }

    #[test]
    fn ivsub_chain_generator_scales() {
        let src = ivsub_chain_source(4, 8);
        let prog = titanc_lower::compile_to_il(&src).unwrap();
        let mut proc = prog.procs[0].clone();
        titanc_opt::convert_while_loops(&mut proc);
        let rep = titanc_opt::induction_substitution(&mut proc);
        assert!(titanc_il::LoopDecision::ivs_substituted(&rep.events) >= 4);
    }
}
