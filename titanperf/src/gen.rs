//! The benchmark's own frozen, seeded input generators.
//!
//! Nothing here calls `titanc_bench::{progen, multi_proc_*}`: later edits
//! to the stress tooling must not move the baseline. The seed chooses the
//! *values* the programs compute on (salts) and the edit schedule; it never
//! changes a trip count, a branch direction or a line count, so simulated
//! cycles and IL size are the same for every seed and can be gated exactly
//! (the contract compares runs across seeds).

use titanc_il::json::Json;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x71C_5EED;

/// Procedures in the `mp9` corpus besides `main`.
pub const MP_PROCS: usize = 8;
/// Array loops per `mp9` procedure.
pub const MP_LOOPS: usize = 30;

/// A ~20-line xorshift64* generator, seeded through one splitmix64 step so
/// that neighbouring seeds start far apart and the state is never zero.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 11) % n
    }

    /// A four-digit salt: every salt prints with the same number of
    /// characters, and none is a value constant folding treats specially.
    pub fn salt(&mut self) -> i64 {
        1000 + self.below(9000) as i64
    }
}

/// One generated translation unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceText {
    pub name: String,
    pub src: String,
}

/// One `mp9` procedure file: three 256-float globals of its own, a fill
/// from `salt`, a branch-guarded constant chain, [`MP_LOOPS`] array loops
/// in three shapes and a pointer-walk `while`. Each loop is a near-convex
/// combination (the `r*` weights), so thirty of them in a row stay finite.
pub fn mp_file(k: usize, salt: i64) -> SourceText {
    let t0 = (k % 7 + 2) as i64;
    let t1 = t0 * t0;
    let t2 = t1 + t1;
    let t3 = t2 * t1;
    let r0 = 1.0 / (t3 + t2) as f64;
    let r1 = 1.0 / (1 + t1) as f64;
    let r2 = 1.0 / (t2 + 1) as f64;
    let mut src = format!(
        "float ma{k}[256], mb{k}[256], mc{k}[256];\n\
         void mp{k}(int n)\n{{\n\
         \x20   float *p, *q;\n\
         \x20   int i, j, t0, t1, t2, t3;\n\
         \x20   for (i = 0; i < 256; i++) {{\n\
         \x20       ma{k}[i] = {salt}.0f + i;\n\
         \x20       mb{k}[i] = {salt}.5f - i;\n\
         \x20       mc{k}[i] = i * 0.25f;\n\
         \x20   }}\n\
         \x20   if (n) t0 = {t0}; else t0 = {t0};\n\
         \x20   if (n) t1 = t0 * t0; else t1 = t0 * t0;\n\
         \x20   if (n) t2 = t1 + t1; else t2 = t1 + t1;\n\
         \x20   t3 = t2 * t1;\n"
    );
    for l in 0..MP_LOOPS {
        src.push_str(&match l % 3 {
            0 => format!(
                "    for (i = 0; i < 256; i++)\n\
                 \x20       ma{k}[i] = (mb{k}[i] * t3 + mc{k}[i] * t2) * {r0:.8}f;\n"
            ),
            1 => format!(
                "    for (i = 0; i < 256; i++)\n\
                 \x20       mc{k}[i] = (ma{k}[i] + mb{k}[i] * t1) * {r1:.8}f;\n"
            ),
            _ => format!(
                "    for (i = 1; i < 255; i++)\n\
                 \x20       mb{k}[i] = (mc{k}[i - 1] * t2 + ma{k}[i + 1]) * {r2:.8}f;\n"
            ),
        });
    }
    src.push_str(&format!(
        "    p = &ma{k}[0];\n\
         \x20   q = &mb{k}[0];\n\
         \x20   j = 256;\n\
         \x20   while (j) {{\n\
         \x20       *p++ = *q++ + (float)t1;\n\
         \x20       j--;\n\
         \x20   }}\n}}\n"
    ));
    SourceText {
        name: format!("mp{k}.c"),
        src,
    }
}

/// `main.c` of the `mp9` corpus: calls every `mpK`, so an edit to one
/// `mpK.c` invalidates exactly two procedures (`mpK` and `main`).
pub fn mp_main() -> SourceText {
    let mut src = String::from("int main(void)\n{\n");
    for k in 0..MP_PROCS {
        src.push_str(&format!("    mp{k}({});\n", k + 1));
    }
    src.push_str("    return 0;\n}\n");
    SourceText {
        name: "main.c".to_string(),
        src,
    }
}

/// The nine-file `mp9` corpus (`mp0.c … mp7.c`, `main.c`) with seed-drawn
/// salts.
pub fn mp9(rng: &mut Rng) -> Vec<SourceText> {
    let mut files: Vec<SourceText> = (0..MP_PROCS).map(|k| mp_file(k, rng.salt())).collect();
    files.push(mp_main());
    files
}

/// The `edit` workload's schedule: which `mpK.c` is rewritten before each
/// op, and with which salt. Salts start above every four-digit corpus salt
/// and only grow, so no file ever returns to a text the cache has seen.
pub struct EditSchedule {
    rng: Rng,
    step: i64,
}

impl EditSchedule {
    pub fn new(rng: Rng) -> EditSchedule {
        EditSchedule { rng, step: 0 }
    }
}

impl Iterator for EditSchedule {
    type Item = (usize, i64);

    fn next(&mut self) -> Option<(usize, i64)> {
        let k = self.rng.below(MP_PROCS as u64) as usize;
        let salt = 10_000 + self.step * 8 + self.rng.below(8) as i64;
        self.step += 1;
        Some((k, salt))
    }
}

/// The protocol-v1 request line the `serve` clients send: the files
/// inline plus the flags of the one-shot compile (`--parallel --print-il
/// --opt-report=json`). Serialized here field by field so the line is part
/// of the frozen inputs, not a by-product of the library under test.
pub fn request_line(files: &[SourceText]) -> String {
    let files = files
        .iter()
        .map(|f| {
            Json::obj(vec![
                ("name", Json::Str(f.name.clone())),
                ("src", Json::Str(f.src.clone())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("id", Json::Int(1)),
        ("files", Json::Arr(files)),
        ("opt", Json::Int(2)),
        ("parallelize", Json::Bool(true)),
        ("spread_lists", Json::Bool(false)),
        ("fortran_aliasing", Json::Bool(false)),
        ("inline", Json::Bool(true)),
        ("strip", Json::Int(32)),
        ("jobs", Json::Int(1)),
        ("verify", Json::Bool(false)),
        ("max_errors", Json::Int(20)),
        ("strict", Json::Bool(false)),
        ("print_il", Json::Bool(true)),
        ("stats", Json::Bool(false)),
        ("opt_report", Json::Str("json".to_string())),
    ])
    .to_string_compact()
}

/// One simulated program of a suite: its file, the `titanc` flags it is
/// compiled and run with, and the Titan processors those flags name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuiteProgram {
    /// Short name, used in metric names (`titan.cycles.<name>`).
    pub name: &'static str,
    /// Flags before `--run prog.c`.
    pub flags: &'static [&'static str],
    pub file: SourceText,
}

const DAXPY_N: usize = 8192;
const DAXPY_REPS: usize = 32;
const COPY_N: usize = 65536;
const COPY_REPS: usize = 12;
const BACKSOLVE_REPS: usize = 120;
const XFORM_REPS: usize = 40;
const LISTWALK_REPS: usize = 240;
const BRANCHY_REPS: usize = 600;

/// §9 daxpy, called ping-pong so every repetition feeds the next.
fn daxpy(name: &str, rng: &mut Rng) -> SourceText {
    let (sb, sc) = (rng.salt(), rng.salt());
    let src = format!(
        "void daxpy(float *x, float *y, float *z, float alpha, int n)\n{{\n\
         \x20   if (n <= 0)\n\
         \x20       return;\n\
         \x20   if (alpha == 0)\n\
         \x20       return;\n\
         \x20   for (; n; n--)\n\
         \x20       *x++ = *y++ + alpha * *z++;\n}}\n\
         float a[{DAXPY_N}], b[{DAXPY_N}], c[{DAXPY_N}];\n\
         int main(void)\n{{\n\
         \x20   int i, r;\n\
         \x20   for (i = 0; i < {DAXPY_N}; i++) {{\n\
         \x20       b[i] = {sb}.0f + i * 0.5f;\n\
         \x20       c[i] = {sc}.0f - i * 0.25f;\n\
         \x20   }}\n\
         \x20   for (r = 0; r < {DAXPY_REPS}; r++) {{\n\
         \x20       daxpy(a, b, c, 1.5, {DAXPY_N});\n\
         \x20       daxpy(b, a, c, 0.25, {DAXPY_N});\n\
         \x20   }}\n\
         \x20   return (int)(b[17] * 0.001f) & 127;\n}}\n"
    );
    SourceText {
        name: format!("{name}.c"),
        src,
    }
}

/// §5.3 pointer-walk copy, shifting by one element per round trip so every
/// repetition changes what is observed.
fn copy(rng: &mut Rng) -> SourceText {
    let salt = rng.salt();
    let n1 = COPY_N - 1;
    let src = format!(
        "float dst[{COPY_N}], src[{COPY_N}];\n\
         int main(void)\n{{\n\
         \x20   float *a, *b;\n\
         \x20   int n, i, r;\n\
         \x20   for (i = 0; i < 2048; i++)\n\
         \x20       src[i] = {salt}.0f + i * 0.5f;\n\
         \x20   for (r = 0; r < {COPY_REPS}; r++) {{\n\
         \x20       a = &dst[0];\n\
         \x20       b = &src[1];\n\
         \x20       n = {n1};\n\
         #pragma safe\n\
         \x20       while (n) {{\n\
         \x20           *a++ = *b++;\n\
         \x20           n--;\n\
         \x20       }}\n\
         \x20       a = &src[0];\n\
         \x20       b = &dst[0];\n\
         \x20       n = {n1};\n\
         #pragma safe\n\
         \x20       while (n) {{\n\
         \x20           *a++ = *b++;\n\
         \x20           n--;\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   return (int)src[5] & 127;\n}}\n"
    );
    SourceText {
        name: "copy.c".to_string(),
        src,
    }
}

/// §6 backsolve recurrence: never vectorizes.
fn backsolve(rng: &mut Rng) -> SourceText {
    let salt = rng.salt();
    let src = format!(
        "float x[1026], y[1026], z[1026];\n\
         int main(void)\n{{\n\
         \x20   float *p, *q;\n\
         \x20   int i, r;\n\
         \x20   for (i = 0; i < 1026; i++) {{\n\
         \x20       y[i] = {salt}.0f + i;\n\
         \x20       z[i] = 0.5f;\n\
         \x20   }}\n\
         \x20   x[0] = 1.0f;\n\
         \x20   p = &x[1];\n\
         \x20   q = &x[0];\n\
         \x20   for (r = 0; r < {BACKSOLVE_REPS}; r++) {{\n\
         \x20       for (i = 0; i < 1024; i++)\n\
         \x20           p[i] = z[i] * (y[i] - q[i]);\n\
         \x20       x[0] = x[1024] * 0.001f;\n\
         \x20   }}\n\
         \x20   return (int)x[1024] & 127;\n}}\n"
    );
    SourceText {
        name: "backsolve.c".to_string(),
        src,
    }
}

/// §10 struct-embedded 4×4 transform under an outer repeat loop.
fn xform(rng: &mut Rng) -> SourceText {
    let salt = rng.salt();
    let src = format!(
        "struct matrix {{\n    float m[4][4];\n}};\n\
         struct vertex {{\n    float v[4];\n}};\n\
         struct matrix xf;\n\
         struct vertex pts[256], out_pts[256];\n\
         int main(void)\n{{\n\
         \x20   int i, r, c, k;\n\
         \x20   float acc;\n\
         \x20   for (r = 0; r < 4; r++)\n\
         \x20       for (c = 0; c < 4; c++)\n\
         \x20           xf.m[r][c] = 0.125f * (r + 1) - 0.0625f * c;\n\
         \x20   for (i = 0; i < 256; i++)\n\
         \x20       for (c = 0; c < 4; c++)\n\
         \x20           pts[i].v[c] = {salt}.0f + i + c;\n\
         \x20   for (k = 0; k < {XFORM_REPS}; k++) {{\n\
         \x20       for (i = 0; i < 256; i++) {{\n\
         \x20           for (r = 0; r < 4; r++) {{\n\
         \x20               acc = 0.0f;\n\
         \x20               for (c = 0; c < 4; c++)\n\
         \x20                   acc += xf.m[r][c] * pts[i].v[c];\n\
         \x20               out_pts[i].v[r] = acc;\n\
         \x20           }}\n\
         \x20       }}\n\
         \x20       pts[k].v[k & 3] = out_pts[255].v[3] * 0.001f;\n\
         \x20   }}\n\
         \x20   return (int)out_pts[7].v[2] & 127;\n}}\n"
    );
    SourceText {
        name: "xform.c".to_string(),
        src,
    }
}

/// §10 linked-list walk, spread across processors, repeated.
fn listwalk(rng: &mut Rng) -> SourceText {
    let salt = rng.salt();
    let src = format!(
        "struct node {{\n    float v;\n    float out;\n    struct node *next;\n}};\n\
         struct node pool[1024];\n\
         void build(void)\n{{\n\
         \x20   int i;\n\
         \x20   for (i = 0; i < 1023; i++) {{\n\
         \x20       pool[i].v = {salt}.0f + i;\n\
         \x20       pool[i].next = &pool[i + 1];\n\
         \x20   }}\n\
         \x20   pool[1023].v = 1023;\n\
         \x20   pool[1023].next = (struct node *)0;\n}}\n\
         void work(struct node *p)\n{{\n\
         \x20   while (p) {{\n\
         \x20       p->out = p->v * p->v + 0.5f * p->v + 1.0f;\n\
         \x20       p = p->next;\n\
         \x20   }}\n}}\n\
         int main(void)\n{{\n\
         \x20   int r;\n\
         \x20   build();\n\
         \x20   for (r = 0; r < {LISTWALK_REPS}; r++) {{\n\
         \x20       work(&pool[0]);\n\
         \x20       pool[r].v = pool[1023].out * 0.00001f;\n\
         \x20   }}\n\
         \x20   return (int)(pool[1022].out * 0.00001f) & 127;\n}}\n"
    );
    SourceText {
        name: "listwalk.c".to_string(),
        src,
    }
}

/// Nested counted loops, `if/else` on an integer recurrence and a
/// *recursive* helper call per iteration (recursion survives the inliner).
/// Control follows `u`, which the salt never touches; the salt only enters
/// the accumulated data, so the path — and the cycle count — is the same
/// for every seed.
fn branchy(rng: &mut Rng) -> SourceText {
    let salt = rng.salt();
    let src = format!(
        "int acc[64];\n\
         int helper(int d, int x)\n{{\n\
         \x20   if (d <= 0)\n\
         \x20       return x;\n\
         \x20   return helper(d - 1, x + d) + 1;\n}}\n\
         int main(void)\n{{\n\
         \x20   int i, j, s, t, u;\n\
         \x20   s = {salt};\n\
         \x20   t = 0;\n\
         \x20   u = 1;\n\
         \x20   for (i = 0; i < {BRANCHY_REPS}; i++) {{\n\
         \x20       for (j = 0; j < 64; j++) {{\n\
         \x20           u = (u * 5 + 3) & 1023;\n\
         \x20           if (u & 1)\n\
         \x20               s = (s + u) & 65535;\n\
         \x20           else\n\
         \x20               s = (s + 65536 - (u >> 1)) & 65535;\n\
         \x20           if ((u & 6) == 2)\n\
         \x20               t = (t + helper(3, j)) & 65535;\n\
         \x20           else\n\
         \x20               t = (t + helper(1, s)) & 65535;\n\
         \x20           acc[j] = (acc[j] + s + t) & 65535;\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   return (s + t) & 127;\n}}\n"
    );
    SourceText {
        name: "branchy.c".to_string(),
        src,
    }
}

/// The paper's §9 daxpy at n = 100 (`corpus/daxpy.c`), for the EXP3 pin.
pub fn paper_daxpy() -> String {
    "void daxpy(float *x, float *y, float *z, float alpha, int n)\n{\n\
     \x20   if (n <= 0)\n\
     \x20       return;\n\
     \x20   if (alpha == 0)\n\
     \x20       return;\n\
     \x20   for (; n; n--)\n\
     \x20       *x++ = *y++ + alpha * *z++;\n}\n\
     float a[100], b[100], c[100];\n\
     int main(void)\n{\n\
     \x20   daxpy(a, b, c, 1.0, 100);\n\
     \x20   return 0;\n}\n"
        .to_string()
}

/// The paper's §6 backsolve loop at n = 100, for the EXP2 pin.
pub fn paper_backsolve() -> String {
    "float x[102], y[102], z[102];\n\
     int main(void)\n{\n\
     \x20   float *p, *q;\n\
     \x20   int i;\n\
     \x20   p = &x[1];\n\
     \x20   q = &x[0];\n\
     \x20   for (i = 0; i < 100; i++)\n\
     \x20       p[i] = z[i] * (y[i] - q[i]);\n\
     \x20   return 0;\n}\n"
        .to_string()
}

/// Suite `V`: vector kernels dominate host time.
pub fn suite_vector(rng: &mut Rng) -> Vec<SuiteProgram> {
    vec![
        SuiteProgram {
            name: "daxpy",
            flags: &["-O2"],
            file: daxpy("daxpy", rng),
        },
        SuiteProgram {
            name: "copy",
            flags: &["-O2"],
            file: copy(rng),
        },
        SuiteProgram {
            name: "daxpy_par",
            flags: &["--parallel", "--procs", "2"],
            file: daxpy("daxpy_par", rng),
        },
    ]
}

/// Suite `S`: scalar dispatch, calls and compare-and-branch dominate.
pub fn suite_scalar(rng: &mut Rng) -> Vec<SuiteProgram> {
    vec![
        SuiteProgram {
            name: "backsolve",
            flags: &["-O2"],
            file: backsolve(rng),
        },
        SuiteProgram {
            name: "xform",
            flags: &["-O2"],
            file: xform(rng),
        },
        SuiteProgram {
            name: "listwalk",
            flags: &["--parallel", "--spread-lists", "--procs", "4"],
            file: listwalk(rng),
        },
        SuiteProgram {
            name: "branchy",
            flags: &["-O2"],
            file: branchy(rng),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a seed decides, as one comparable value.
    #[derive(Debug, PartialEq)]
    struct Inputs {
        files: Vec<SourceText>,
        suites: Vec<SuiteProgram>,
        request: String,
        edits: Vec<(usize, i64)>,
    }

    fn everything(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let files = mp9(&mut rng);
        let mut suites = suite_vector(&mut rng);
        suites.extend(suite_scalar(&mut rng));
        let request = request_line(&files);
        let edits = EditSchedule::new(rng).take(200).collect();
        Inputs {
            files,
            suites,
            request,
            edits,
        }
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(everything(DEFAULT_SEED), everything(DEFAULT_SEED));
        assert_eq!(everything(0), everything(0));
    }

    #[test]
    fn another_seed_changes_values_and_schedule_but_not_shape() {
        let (a, b) = (everything(DEFAULT_SEED), everything(0xBEEF));
        assert_ne!(a.files, b.files);
        assert_ne!(a.request, b.request);
        assert_ne!(a.edits, b.edits);
        let (files_a, files_b, suites_a, suites_b) = (a.files, b.files, a.suites, b.suites);

        // nine files, main last and seed-free; every text keeps its length
        // line by line, so IL size and trip counts cannot follow the seed
        assert_eq!(files_a.len(), MP_PROCS + 1);
        assert_eq!(files_a.last(), files_b.last());
        let shape = |src: &str| src.lines().map(str::len).collect::<Vec<_>>();
        for (a, b) in files_a.iter().zip(&files_b) {
            assert_eq!(a.name, b.name);
            assert_eq!(shape(&a.src), shape(&b.src), "{}", a.name);
        }
        assert_eq!(suites_a.len(), crate::names::PROGRAMS.len());
        for ((a, b), name) in suites_a.iter().zip(&suites_b).zip(crate::names::PROGRAMS) {
            assert_eq!((a.name, a.flags), (name, b.flags));
            assert_ne!(a.file.src, b.file.src, "{name} ignores the seed");
            assert_eq!(shape(&a.file.src), shape(&b.file.src), "{name}");
        }
    }

    #[test]
    fn no_edit_returns_a_file_to_a_text_the_cache_has_seen() {
        let mut rng = Rng::new(DEFAULT_SEED);
        let mut seen: Vec<String> = mp9(&mut rng).into_iter().map(|f| f.src).collect();
        for (k, salt) in EditSchedule::new(rng).take(2000) {
            assert!(k < MP_PROCS);
            let edited = mp_file(k, salt).src;
            assert!(
                !seen.contains(&edited),
                "edit of mp{k} with salt {salt} repeats"
            );
            seen.push(edited);
        }
    }

    #[test]
    fn an_edit_invalidates_the_edited_procedure_and_main_only() {
        use titanc::{compile_session, SourceFile};

        let dir = std::env::temp_dir().join(format!("titanperf-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = Rng::new(DEFAULT_SEED);
        let mut files = mp9(&mut rng);
        let (options, _) = crate::reference::options_for(&["--parallel"]);
        let compile = |files: &[SourceText]| {
            let sources: Vec<SourceFile> = crate::reference::source_files(files);
            compile_session(&sources, &options, Some(&dir)).unwrap()
        };
        let cold = compile(&files);
        assert_eq!(cold.compilation.program.procs.len(), MP_PROCS + 1);
        assert_eq!((cold.stats.hits, cold.stats.misses), (0, MP_PROCS + 1));

        let (k, salt) = EditSchedule::new(rng).next().unwrap();
        files[k] = mp_file(k, salt);
        let edited = compile(&files).stats;
        assert_eq!(
            (edited.hits, edited.misses, edited.invalidated),
            (MP_PROCS - 1, 2, 2)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
