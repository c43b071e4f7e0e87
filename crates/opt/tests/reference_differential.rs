//! The crate's own differential: `constprop`, `cse` and `dce` against the
//! test-only references in `src/*_reference.rs`, included by path (they
//! depend on `titanc_il` / `titanc_analysis` only).

#[path = "../src/constprop_reference.rs"]
mod constprop_reference;
#[path = "../src/cse_reference.rs"]
mod cse_reference;
#[path = "../src/dce_reference.rs"]
mod dce_reference;

use titanc_il::pretty_proc;

/// `constprop`, `cse` and `dce` against the bodies they had before they
/// were made to pay per change (`*_reference.rs`), on shapes each
/// decides differently from a sweep; the wide comparison is
/// `crates/bench/tests/scalar_differential.rs`.
#[test]
fn rewritten_passes_match_their_references() {
    let mut work = (0, 0, 0);
    for src in [
        // literals arriving over three rounds; a removed *edge*, not a
        // new literal, leaving one reaching def; a NaN equals nothing
        "int f(int *p) { int a, b, c, d; a = 2; b = a + 1; c = b * a; d = 0; \
         if (c == 6) d = c - 6; while (d) { p[d] = a; d = d - 1; } return b + c + d; }",
        "int f(int a) { int x, c; c = 0; x = 1; if (c) goto l; x = 2; l: return x + a; }",
        "float f(void) { float z, n; z = 0.0f; n = z / z; return n + n; }",
        // a self-fed counter, a store that dies in round two, an `if`
        // the sweep empties whose condition was a store's last read
        "int f(int *p, int n) { int i, w, s, t, u, c; w = 0; s = 0; for (i = 0; i < n; i++) { \
         w = w + 1; s = s + p[i]; } u = n * 3; t = u + 1; c = t; if (c) { t = 1; } return s; }",
        // a commoned subexpression inside a larger one; windows ending at
        // a redefinition, a call, a nested redefinition
        "int g(int x) { return x; } int f(int a, int b, int c) { int x, y, z; \
         x = (a * b + 1) * 2; y = (a * b + 1) * 3; a = g(a); z = (a * b + 1) * 2; \
         while (c) { x = x + (a * b + 1); b = b - 1; y = y + (a * b + 1) * 3; c = c - 1; } \
         return x + y + z + (a * b + 1) + (a * b); }",
        // windows that end before a `while` whose body redefines a
        // dependence, after a nested occurrence; the loading form is out of
        // scope and must be left alone
        "int f(int a, int b, int c) { int x, y; y = 0; x = a + b + 1; if (c) { y = a + b + 1; } \
         while (a + b + 1 < 10) { a = a * 2; } return x + y; }",
        "int f(int *p, int c) { int x, y; y = 0; x = *p + 1; if (c) { y = *p + 1; } \
         while (*p + 1 < 9) { *p = *p + 1; } return x + y; }",
    ] {
        for p in &titanc_lower::compile_to_il(src).unwrap().procs {
            let (mut want, mut got) = (p.clone(), p.clone());
            let w = constprop_reference::constant_propagation(&mut want);
            let g = titanc_opt::constant_propagation(&mut got);
            let g = (g.replaced, g.removed, g.rounds, g.budget_exhausted);
            assert_eq!(
                g,
                (w.replaced, w.removed, w.rounds, w.budget_exhausted),
                "{src}"
            );
            let w = cse_reference::local_cse(&mut want);
            let c = titanc_opt::local_cse(&mut got);
            assert_eq!((c.commoned, c.replaced), (w.commoned, w.replaced), "{src}");
            let w = dce_reference::eliminate_dead_code(&mut want);
            let d = titanc_opt::eliminate_dead_code(&mut got);
            assert_eq!((d.removed, d.rounds), (w.removed, w.rounds), "{src}");
            assert_eq!(pretty_proc(&got), pretty_proc(&want), "{src}");
            assert!(got.vars == want.vars && got.generation() == want.generation());
            work = (work.0 + g.0, work.1 + c.commoned, work.2 + d.removed);
        }
    }
    assert!(work.0 > 5 && work.1 > 0 && work.2 > 5, "{work:?}");
}
