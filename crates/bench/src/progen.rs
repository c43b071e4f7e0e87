//! Random C program generation for differential stress testing.
//!
//! Programs are closed (no inputs), deterministic, and terminating by
//! construction: integer scalars, two observable output arrays, a helper
//! procedure to exercise the inliner, `if`/`else`, and bounded counted
//! loops with distinct counters per nesting level. Every generated
//! program is valid C in the compiler's subset, so any front-end
//! rejection, contained incident, or observation divergence found by the
//! stress harness is a compiler bug, not a generator artifact.
//!
//! [`section_program`] is a second grammar: float loops whose statements
//! read and write sections of four arrays at a few strides and offsets,
//! so the vectorizer meets runs of vector statements that share sections
//! and stores between the reads of one, and a nest that it sinks.

/// Names of the integer scalar variables every program declares.
pub const SCALARS: [&str; 4] = ["va", "vb", "vc", "vd"];

/// Length of the observable output arrays `out_g` / `out_f`.
pub const OUT_LEN: usize = 16;

/// Deepest counted-loop nesting the generator emits.
const MAX_LOOP_DEPTH: usize = 3;

/// xorshift64* PRNG — deterministic and dependency-free, so a failing
/// seed reproduces forever.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; `0` is mapped away (xorshift fixpoint).
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

enum Expr {
    Const(i32),
    Scalar(usize),
    Counter,
    Bin(&'static str, Box<Expr>, Box<Expr>),
    Call(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn render(&self, out: &mut String, depth: usize) {
        match self {
            Expr::Const(c) => out.push_str(&c.to_string()),
            Expr::Scalar(i) => out.push_str(SCALARS[i % SCALARS.len()]),
            Expr::Counter => {
                if depth > 0 {
                    out.push_str(&format!("k{}", depth.min(MAX_LOOP_DEPTH)));
                } else {
                    out.push('1');
                }
            }
            Expr::Bin(op, a, b) => {
                out.push('(');
                a.render(out, depth);
                out.push_str(&format!(" {op} "));
                b.render(out, depth);
                out.push(')');
            }
            Expr::Call(a, b) => {
                out.push_str("helper(");
                a.render(out, depth);
                out.push_str(", ");
                b.render(out, depth);
                out.push(')');
            }
        }
    }
}

enum Stmt {
    Assign(usize, Expr),
    IntStore(usize, Expr),
    FloatStore(usize, Expr),
    CounterStore(Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    Loop(u8, Vec<Stmt>),
}

fn gen_expr(rng: &mut Rng, fuel: u32, calls: bool) -> Expr {
    if fuel == 0 || rng.below(5) < 2 {
        return match rng.below(3) {
            0 => Expr::Const(rng.range(-25, 25) as i32),
            1 => Expr::Scalar(rng.below(SCALARS.len() as u64) as usize),
            _ => Expr::Counter,
        };
    }
    let a = Box::new(gen_expr(rng, fuel - 1, calls));
    let b = Box::new(gen_expr(rng, fuel - 1, calls));
    match rng.below(if calls { 6 } else { 5 }) {
        0 => Expr::Bin("+", a, b),
        1 => Expr::Bin("-", a, b),
        2 => Expr::Bin("*", a, b),
        3 => Expr::Bin("<", a, b),
        4 => Expr::Bin("==", a, b),
        _ => Expr::Call(a, b),
    }
}

fn gen_stmt(rng: &mut Rng, fuel: u32, calls: bool) -> Stmt {
    if fuel > 0 && rng.below(3) == 0 {
        let block = |rng: &mut Rng, lo: i64, hi: i64| -> Vec<Stmt> {
            (0..rng.range(lo, hi))
                .map(|_| gen_stmt(rng, fuel - 1, calls))
                .collect()
        };
        return if rng.below(2) == 0 {
            let cond = gen_expr(rng, 2, calls);
            let t = block(rng, 1, 4);
            let f = block(rng, 0, 3);
            Stmt::If(cond, t, f)
        } else {
            let trips = (rng.below(11) + 1) as u8; // 1..=11 < OUT_LEN
            Stmt::Loop(trips, block(rng, 1, 4))
        };
    }
    match rng.below(4) {
        0 => Stmt::Assign(
            rng.below(SCALARS.len() as u64) as usize,
            gen_expr(rng, 2, calls),
        ),
        1 => Stmt::IntStore(rng.below(OUT_LEN as u64) as usize, gen_expr(rng, 2, calls)),
        2 => Stmt::FloatStore(rng.below(OUT_LEN as u64) as usize, gen_expr(rng, 2, calls)),
        _ => Stmt::CounterStore(gen_expr(rng, 2, calls)),
    }
}

fn render_block(stmts: &[Stmt], out: &mut String, indent: usize, depth: usize) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            Stmt::Assign(v, e) => {
                out.push_str(&format!("{pad}{} = ", SCALARS[v % SCALARS.len()]));
                e.render(out, depth);
                out.push_str(";\n");
            }
            Stmt::IntStore(i, e) => {
                out.push_str(&format!("{pad}out_g[{}] = ", i % OUT_LEN));
                e.render(out, depth);
                out.push_str(";\n");
            }
            Stmt::FloatStore(i, e) => {
                out.push_str(&format!("{pad}out_f[{}] = 0.25f * ", i % OUT_LEN));
                e.render(out, depth);
                out.push_str(";\n");
            }
            Stmt::CounterStore(e) => {
                // trip counts stay below OUT_LEN, so the counter indexes
                // safely; outside any loop index 0 is used
                let idx = if depth > 0 {
                    format!("k{}", depth.min(MAX_LOOP_DEPTH))
                } else {
                    "0".to_string()
                };
                out.push_str(&format!("{pad}out_g[{idx}] = "));
                e.render(out, depth);
                out.push_str(";\n");
            }
            Stmt::If(c, t, f) => {
                out.push_str(&format!("{pad}if ("));
                c.render(out, depth);
                out.push_str(") {\n");
                render_block(t, out, indent + 1, depth);
                if f.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    render_block(f, out, indent + 1, depth);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            Stmt::Loop(trips, body) => {
                let d = (depth + 1).min(MAX_LOOP_DEPTH);
                out.push_str(&format!("{pad}for (k{d} = 0; k{d} < {trips}; k{d}++) {{\n"));
                render_block(body, out, indent + 1, d);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

/// Generates an `n`-helper session corpus for incremental-cache tests.
///
/// Helpers `h1..hn` are defined in order; each may call already-defined
/// lower-index helpers, so the call graph is acyclic but has real
/// depth, and `main` calls every helper. `salts[k]` is folded into
/// `h{k+1}` as one constant, so a test can "edit" exactly one procedure
/// by changing one salt and regenerating with the same seed — every
/// other procedure's text stays byte-identical (no RNG draw depends on
/// a salt's value).
pub fn session_program(rng: &mut Rng, n: usize, salts: &[i64]) -> String {
    assert_eq!(salts.len(), n, "one salt per helper");
    let decls = "int va, vb, vc, vd, k1, k2, k3;";
    let inits = "k1 = 0; k2 = 0; k3 = 0;";
    let mut out = format!("int out_g[{OUT_LEN}];\nfloat out_f[{OUT_LEN}];\n");
    for (k, &salt) in salts.iter().enumerate() {
        let stmts: Vec<Stmt> = (0..rng.range(1, 4))
            .map(|_| gen_stmt(rng, 1, false))
            .collect();
        let ret = gen_expr(rng, 2, false);
        let mut body = String::new();
        render_block(&stmts, &mut body, 1, 0);
        // up to two calls into already-defined helpers; the draws run
        // even when k == 0 so the RNG stream is position-independent
        let mut calls = String::new();
        for _ in 0..2 {
            let want = rng.below(2) == 0;
            let pick = rng.below((k.max(1)) as u64) as usize;
            if want && k > 0 {
                calls.push_str(&format!("    vb = vb + h{}(va, vc);\n", pick + 1));
            }
        }
        let mut rtxt = String::new();
        ret.render(&mut rtxt, 0);
        out.push_str(&format!(
            "int h{}(int ha, int hb)\n{{\n    {decls}\n    \
             va = ha; vb = hb; vc = 5; vd = 7; {inits}\n    \
             va = va + {};\n{body}{calls}    return {rtxt};\n}}\n",
            k + 1,
            salt,
        ));
    }
    let mut mcalls = String::new();
    for k in 0..n {
        mcalls.push_str(&format!("    vd = vd + h{}(va, vb);\n", k + 1));
    }
    out.push_str(&format!(
        "int main(void)\n{{\n    {decls}\n    \
         va = 1; vb = 2; vc = 3; vd = 4; {inits}\n{mcalls}    return vd;\n}}\n"
    ));
    out
}

/// Generates one complete, self-contained C program.
pub fn program(rng: &mut Rng) -> String {
    let main_stmts: Vec<Stmt> = (0..rng.range(2, 9))
        .map(|_| gen_stmt(rng, 2, true))
        .collect();
    let helper_stmts: Vec<Stmt> = (0..rng.range(1, 5))
        .map(|_| gen_stmt(rng, 1, false))
        .collect();
    let helper_ret = gen_expr(rng, 2, false);
    let main_ret = gen_expr(rng, 2, true);

    let decls = "int va, vb, vc, vd, k1, k2, k3;";
    let inits = "k1 = 0; k2 = 0; k3 = 0;";
    let mut body = String::new();
    render_block(&main_stmts, &mut body, 1, 0);
    let mut hbody = String::new();
    render_block(&helper_stmts, &mut hbody, 1, 0);
    let mut hret = String::new();
    helper_ret.render(&mut hret, 0);
    let mut mret = String::new();
    main_ret.render(&mut mret, 0);

    format!(
        "int out_g[{OUT_LEN}];\nfloat out_f[{OUT_LEN}];\n\
         int helper(int ha, int hb)\n{{\n    {decls}\n    \
         va = ha; vb = hb; vc = 5; vd = 7; {inits}\n{hbody}    return {hret};\n}}\n\
         int main(void)\n{{\n    {decls}\n    \
         va = 1; vb = 2; vc = 3; vd = 4; {inits}\n{body}    return {mret};\n}}\n"
    )
}

/// Length of each array of a [`section_program`].
pub const SECTION_LEN: usize = 96;

/// The arrays a [`section_program`] declares, all `float`.
pub const SECTION_ARRAYS: [&str; 4] = ["fa", "fb", "fc", "fd"];

/// One section of a [`section_program`]: array, stride and offset, each
/// element `array[stride * i + offset]`.
type Sect = (usize, i64, i64);

fn render_sect(&(array, stride, offset): &Sect) -> String {
    format!("{}[{stride} * i + {offset}]", SECTION_ARRAYS[array])
}

/// Generates a program of float loops over sections: after filling four
/// arrays, one loop of two to four statements, each storing a section the
/// sum or product of one to three sections, drawn mostly from three of
/// `fa` and `fb` the program picks up front and sometimes from what an
/// earlier statement stored (so statements often read the same section,
/// and sometimes store to one another reads), then, half the time, a
/// 64-iteration loop around a 5–7-trip dot product into a private `t`,
/// which a quarter of the time is read after it. Every subscript stays
/// below [`SECTION_LEN`] and every value finite.
pub fn section_program(rng: &mut Rng) -> String {
    let trips = rng.range(8, 40);
    // reads of `fa` and `fb`, stores to disjoint halves of `fc` and `fd`,
    // a quarter of them to the start of `fa` or `fb` instead, which every
    // read of it is at or ahead of
    let sect =
        |rng: &mut Rng| -> Sect { (rng.below(2) as usize, rng.range(1, 3), rng.range(0, 4)) };
    let common: Vec<Sect> = (0..3).map(|_| sect(rng)).collect();
    let mut halves = vec![(2, 0), (2, 48), (3, 0), (3, 48)];
    let mut stored: Vec<Sect> = Vec::new();
    let mut body = String::new();
    for _ in 0..rng.range(2, 5) {
        let target = match rng.below(4) {
            0 => (rng.below(2) as usize, 1, 0),
            _ => {
                let (array, offset) = halves.remove(rng.below(halves.len() as u64) as usize);
                (array, 1, offset)
            }
        };
        let mut rhs = String::new();
        for k in 0..rng.range(1, 4) {
            let read = match rng.below(6) {
                0 => sect(rng),
                1 if !stored.is_empty() => stored[rng.below(stored.len() as u64) as usize],
                _ => common[rng.below(3) as usize],
            };
            if k > 0 {
                rhs.push_str([" + ", " - ", " * 0.5f + "][rng.below(3) as usize]);
            }
            rhs.push_str(&render_sect(&read));
        }
        body.push_str(&format!("        {} = {rhs};\n", render_sect(&target)));
        stored.push(target);
    }
    let mut nest = String::new();
    if rng.below(2) == 0 {
        let inner = rng.range(5, 8);
        let (x, y) = (rng.below(4) as usize, rng.below(4) as usize);
        let out = (x + 1 + rng.below(3) as usize) % 4;
        let [x, y, out] = [x, y, out].map(|a| SECTION_ARRAYS[a]);
        nest = format!(
            "    for (i = 0; i < 64; i++) {{\n        t = 1.0f;\n        \
             for (j = 0; j < {inner}; j++)\n            t = t + {x}[i + j] * {y}[j];\n        \
             {out}[i] = t;\n    }}\n"
        );
        if rng.below(4) == 0 {
            nest.push_str(&format!("    {out}[95] = t;\n"));
        }
    }
    let decls: String = (SECTION_ARRAYS.iter())
        .map(|a| format!("float {a}[{SECTION_LEN}];\n"))
        .collect();
    let fills: String = (SECTION_ARRAYS.iter().enumerate())
        .map(|(k, a)| {
            let first = rng.range(-9, 10) + k as i64;
            format!("        {a}[i] = {first}.0f + 0.25f * i;\n")
        })
        .collect();
    format!(
        "{decls}int main(void)\n{{\n    int i, j;\n    float t;\n    \
         for (i = 0; i < {SECTION_LEN}; i++) {{\n{fills}    }}\n    \
         for (i = 0; i < {trips}; i++) {{\n{body}    }}\n{nest}    \
         return (int)(fa[5] + fd[7]) & 127;\n}}\n"
    )
}
