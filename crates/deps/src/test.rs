//! The dependence tests: ZIV, strong SIV, GCD, and Banerjee bounds.
//!
//! These decide whether two references to the same symbolic base can touch
//! the same byte on different (or the same) iterations of a single loop
//! [Bane 76, Alle 83, Wolf 82 in the paper's bibliography], and
//! ([`test_level`]) whether one level of a nest carries a dependence while
//! the levels inside it range over their bounds — the multi-index question
//! of Nuriyev's test (PAPERS.md, arxiv 0810.5575).

use titanc_opt::affine::{Affine, NEST_LEVELS};

/// The verdict of a dependence test between two affine references.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Proven independent.
    Independent,
    /// Dependent with a known constant iteration distance
    /// (`sink_iteration - source_iteration`).
    Distance(i64),
    /// Possibly dependent, distance unknown.
    Unknown,
}

impl Verdict {
    /// True when a dependence may exist.
    pub fn may_depend(self) -> bool {
        !matches!(self, Verdict::Independent)
    }

    /// True when the (possible) dependence is carried by the loop (crosses
    /// iterations).
    pub fn carried(self) -> bool {
        match self {
            Verdict::Independent => false,
            Verdict::Distance(d) => d != 0,
            Verdict::Unknown => true,
        }
    }
}

/// Tests whether reference `a` (earlier in some iteration) and reference
/// `b` can access a common address, with iterations ranging over
/// `0..trips` when the trip count is known.
///
/// Addresses are `base + coeff·k + offset` with `k` the 0-based iteration
/// number. The references must share a symbolic base (check
/// [`Affine::same_base`] first); different-base pairs are the caller's
/// aliasing problem.
pub fn test_pair(a: &Affine, b: &Affine, trips: Option<i64>) -> Verdict {
    let (a1, c1) = (a.coeff, a.offset);
    let (a2, c2) = (b.coeff, b.offset);
    let delta = c1 - c2; // a1*k1 + c1 = a2*k2 + c2  =>  a2*k2 - a1*k1 = delta... see below

    // ZIV: neither varies.
    if a1 == 0 && a2 == 0 {
        return if delta == 0 {
            Verdict::Distance(0)
        } else {
            Verdict::Independent
        };
    }

    // Strong SIV: equal coefficients. a1*k1 + c1 = a1*k2 + c2
    // => k2 - k1 = (c1 - c2) / a1.
    if a1 == a2 {
        if delta % a1 != 0 {
            return Verdict::Independent;
        }
        let d = delta / a1;
        if let Some(n) = trips {
            if d.abs() >= n.max(0) {
                return Verdict::Independent;
            }
        }
        return Verdict::Distance(d);
    }

    // General SIV/MIV collapsed to one variable: solutions to
    // a1*k1 - a2*k2 = c2 - c1 with k1, k2 in [0, trips).
    let rhs = i128::from(c2 - c1);
    let g = gcd(a1.into(), a2.into());
    if g != 0 && rhs % g != 0 {
        return Verdict::Independent;
    }
    // Banerjee bounds when the trip count is known.
    if let Some(n) = trips {
        if n <= 0 {
            return Verdict::Independent;
        }
        let u = i128::from(n) - 1;
        let (lo1, hi1) = span(a1.into(), u);
        let (lo2, hi2) = span(-i128::from(a2), u);
        let lo = lo1 + lo2;
        let hi = hi1 + hi2;
        if rhs < lo || rhs > hi {
            return Verdict::Independent;
        }
    }
    Verdict::Unknown
}

/// One reference of a loop nest in iteration space, for [`test_level`]:
/// it touches the `width` bytes from `base + coeff·k + Σ inner[j]·x_j +
/// offset`, where `k` numbers the iterations of the tested level and
/// `x_j`, in `0..inner_trips[j]`, those of the `j`-th DO loop around the
/// reference inside it (a level the reference does not sit in has one
/// trip).
#[derive(Clone, Debug)]
pub struct NestRef {
    /// The address, every coefficient in bytes per iteration.
    pub affine: Affine,
    /// The trip count of each inner level, outermost first.
    pub inner_trips: [i64; NEST_LEVELS],
    /// Bytes the access touches.
    pub width: i64,
}

/// The level test: false only when `a` and `b`, which share a symbolic
/// base, provably touch no common byte in two different iterations `k1 ≠
/// k2` of a level of `trips` iterations, every inner level of either
/// reference ranging over all of its iterations independently. A GCD test
/// over every coefficient, then Banerjee bounds for `k1 < k2` and for `k1
/// > k2` apart.
pub fn test_level(a: &NestRef, b: &NestRef, trips: i64) -> bool {
    if trips < 2 {
        return false;
    }
    // A − B = c1·k1 − c2·k2 + Σ a.inner·x − Σ b.inner·y + (a.offset −
    // b.offset), and the accesses share a byte when A − B lies in
    // [1 − a.width, b.width − 1]. Sums in i128: trip counts and
    // coefficients are not bounded here.
    let delta = i128::from(a.affine.offset) - i128::from(b.affine.offset);
    let want = (
        1 - i128::from(a.width) - delta,
        i128::from(b.width) - 1 - delta,
    );
    let (mut lo, mut hi, mut g) = (0i128, 0i128, 0i128);
    for (r, sign) in [(a, 1), (b, -1)] {
        for (&m, &n) in r.affine.inner.iter().zip(&r.inner_trips) {
            if n <= 0 {
                return false; // the reference never executes
            }
            let (l, h) = span(sign * i128::from(m), i128::from(n) - 1);
            lo += l;
            hi += h;
            if n > 1 {
                g = gcd(g, i128::from(m));
            }
        }
    }
    let (c1, c2) = (i128::from(a.affine.coeff), i128::from(b.affine.coeff));
    g = gcd(gcd(g, c1), c2);
    if g != 0 && want.0 + (-want.0).rem_euclid(g) > want.1 {
        return false;
    }
    let u = i128::from(trips) - 1;
    let at = |(k1, k2): (i128, i128)| c1 * k1 - c2 * k2;
    // a linear function over a triangle is extreme at its corners
    let before = [(0, 1), (0, u), (u - 1, u)];
    let after = [(1, 0), (u, 0), (u, u - 1)];
    [before, after].iter().any(|corners| {
        let vals = corners.map(at);
        let (l, h) = (vals.iter().min().unwrap(), vals.iter().max().unwrap());
        lo + l <= want.1 && hi + h >= want.0
    })
}

fn span(a: i128, u: i128) -> (i128, i128) {
    if a >= 0 {
        (0, a * u)
    } else {
        (a * u, 0)
    }
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_opt::affine::Affine;

    fn aff(coeff: i64, offset: i64) -> Affine {
        // the term id is only used as an opaque token here: `test_pair`
        // never reads a term
        let mut pool = titanc_il::ExprPool::new();
        let e = pool.int(0);
        Affine::new(vec![(e, 1)], coeff, offset)
    }

    #[test]
    fn ziv() {
        assert_eq!(
            test_pair(&aff(0, 4), &aff(0, 4), None),
            Verdict::Distance(0)
        );
        assert_eq!(
            test_pair(&aff(0, 4), &aff(0, 8), None),
            Verdict::Independent
        );
    }

    #[test]
    fn strong_siv_distance() {
        // x[i+1] written, x[i] read: coeff 4, offsets 4 vs 0 → distance 1
        let w = aff(4, 4);
        let r = aff(4, 0);
        assert_eq!(test_pair(&w, &r, Some(100)), Verdict::Distance(1));
        // reversed: distance -1
        assert_eq!(test_pair(&r, &w, Some(100)), Verdict::Distance(-1));
    }

    #[test]
    fn strong_siv_same_element() {
        assert_eq!(
            test_pair(&aff(4, 0), &aff(4, 0), None),
            Verdict::Distance(0)
        );
    }

    #[test]
    fn strong_siv_misaligned_independent() {
        // byte offsets 2 apart with stride 4: never collide
        assert_eq!(
            test_pair(&aff(4, 0), &aff(4, 2), Some(100)),
            Verdict::Independent
        );
    }

    #[test]
    fn strong_siv_distance_beyond_trip_count() {
        // distance 50 in a 10-trip loop: no dependence
        assert_eq!(
            test_pair(&aff(4, 200), &aff(4, 0), Some(10)),
            Verdict::Independent
        );
        assert_eq!(
            test_pair(&aff(4, 200), &aff(4, 0), Some(51)),
            Verdict::Distance(50)
        );
    }

    #[test]
    fn gcd_test_rejects() {
        // 4*k1 vs 4*k2 + 2 (different strides 8 and 4): gcd 4 does not
        // divide 2
        assert_eq!(
            test_pair(&aff(8, 0), &aff(4, 2), None),
            Verdict::Independent
        );
    }

    #[test]
    fn gcd_test_admits() {
        // 8*k1 = 4*k2 + 4 has solutions
        assert_eq!(test_pair(&aff(8, 0), &aff(4, 4), None), Verdict::Unknown);
    }

    #[test]
    fn banerjee_bounds_reject() {
        // 4*k1 = 4*k2 + 400 within 10 iterations: max reach 36 < 400
        // (different coeff signs force the general path)
        assert_eq!(
            test_pair(&aff(4, 0), &aff(-4, 400), Some(10)),
            Verdict::Independent
        );
    }

    #[test]
    fn banerjee_bounds_admit() {
        // 4*k1 + 0 = -4*k2 + 20 reachable within 10 iterations
        assert_eq!(
            test_pair(&aff(4, 0), &aff(-4, 20), Some(10)),
            Verdict::Unknown
        );
    }

    #[test]
    fn negative_strides() {
        // countdown loops: coeff -4 each, offsets differ by -4 → distance 1
        let w = aff(-4, -4);
        let r = aff(-4, 0);
        assert_eq!(test_pair(&w, &r, Some(100)), Verdict::Distance(1));
    }

    #[test]
    fn zero_trip_loop_is_independent() {
        assert_eq!(
            test_pair(&aff(4, 0), &aff(8, 0), Some(0)),
            Verdict::Independent
        );
    }

    #[test]
    fn verdict_queries() {
        assert!(Verdict::Unknown.may_depend());
        assert!(Verdict::Unknown.carried());
        assert!(Verdict::Distance(1).carried());
        assert!(!Verdict::Distance(0).carried());
        assert!(!Verdict::Independent.may_depend());
    }

    /// Deterministic xorshift64* generator (no external crates).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        /// Uniform value in `[lo, hi]`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Soundness: brute-force check on random affine pairs — the test may
    /// report a false dependence but must never report independence when a
    /// concrete collision exists.
    #[test]
    fn soundness_vs_brute_force() {
        let mut rng = Rng(0xA11E);
        for _ in 0..2000 {
            let a1 = rng.range(-6, 6);
            let a2 = rng.range(-6, 6);
            let c1 = rng.range(-24, 24);
            let c2 = rng.range(-24, 24);
            let n = rng.range(0, 12);
            let verdict = test_pair(&aff(a1, c1), &aff(a2, c2), Some(n));
            let mut collision = None;
            for k1 in 0..n {
                for k2 in 0..n {
                    if a1 * k1 + c1 == a2 * k2 + c2 {
                        collision.get_or_insert(k2 - k1);
                    }
                }
            }
            match (collision, verdict) {
                (Some(_), Verdict::Independent) => {
                    panic!("unsound: a1={a1} c1={c1} a2={a2} c2={c2} n={n}")
                }
                (Some(d), Verdict::Distance(got))
                    // a distance verdict must include the real collision
                    // distance when coefficients are equal
                    if a1 == a2 => {
                        assert_eq!(got, d, "a1={a1} c1={c1} a2={a2} c2={c2} n={n}");
                    }
                _ => {}
            }
        }
    }

    /// The enumeration referee for [`test_level`]: seeded pairs of nest
    /// references, one or two inner levels each, every iteration pair
    /// enumerated. The test may call a level carried when no two different
    /// iterations of it touch a common byte — how often it does is printed,
    /// not asserted — but must never call it free when two do.
    #[test]
    fn level_test_never_misses_a_shared_byte() {
        let mut rng = Rng(0x5EED_1E7E);
        let draw = |rng: &mut Rng| {
            let depth = rng.range(1, NEST_LEVELS as i64) as usize;
            let mut r = NestRef {
                affine: aff(rng.range(-24, 24), rng.range(-16, 16)),
                inner_trips: [1; NEST_LEVELS],
                width: [1, 2, 4, 8][rng.range(0, 3) as usize],
            };
            for j in 0..depth {
                r.affine.inner[j] = rng.range(-24, 24);
                r.inner_trips[j] = rng.range(1, 6);
            }
            r
        };
        // every (iteration of the level, address) a reference reaches
        let reach = |r: &NestRef, trips: i64| {
            let [n0, n1] = r.inner_trips;
            let [m0, m1] = r.affine.inner;
            let mut out = Vec::new();
            for k in 0..trips {
                for x0 in 0..n0 {
                    for x1 in 0..n1 {
                        let at = r.affine.coeff * k + m0 * x0 + m1 * x1 + r.affine.offset;
                        out.push((k, at));
                    }
                }
            }
            out
        };
        let (mut free, mut conservative) = (0, 0);
        for case in 0..3000 {
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            let trips = rng.range(0, 6);
            let carried = test_level(&a, &b, trips);
            let rb = reach(&b, trips);
            let shared = reach(&a, trips).iter().any(|&(k1, x)| {
                (rb.iter()).any(|&(k2, y)| k1 != k2 && x < y + b.width && y < x + a.width)
            });
            assert!(
                carried || !shared,
                "case {case}: level called free, but two iterations share a byte\n{a:?}\n{b:?}\ntrips {trips}"
            );
            if !shared {
                free += 1;
                conservative += usize::from(carried);
            }
        }
        println!("level test: carried on {conservative} of {free} free pairs");
    }
}
