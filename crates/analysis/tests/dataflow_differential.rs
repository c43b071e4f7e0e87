//! The crate's own differential: the flat dataflow frames against the
//! `BitSet`-per-node oracle in `src/dataflow_reference.rs`, included by
//! path (it is built on the public `Cfg` alone).

#[path = "../src/dataflow_reference.rs"]
mod dataflow_reference;

#[test]
fn flat_frames_agree_with_the_bitset_oracle() {
    let sources = [
        "int f(int c) { int x; if (c) x = 1; else x = 2; return x; }",
        "void f(int n) { int s; s = 0; while (n) { s = s + n; n = n - 1; } }",
        "int f(int a) { int t; t = a; if (a) goto l; t = 2; l: t = t + a; return t; }",
        "int f(int *p, int n) { int i, s; s = 0; for (i = 0; i < n; i++) { if (p[i]) \
         continue; s = s + p[i]; if (s > 99) break; } return s; }",
        // code nothing reaches falls through into code something does
        "int f(int a) { int t; t = 1; goto l; t = 2; l: return t + a; }",
        "void f(void) { }",
    ];
    for src in sources {
        for proc in &titanc_lower::compile_to_il(src).unwrap().procs {
            let compared = dataflow_reference::assert_flat_solvers_agree(proc, src);
            assert_eq!(compared, proc.len() * proc.vars.len());
        }
    }
}
