//! The dependence tests: ZIV, strong SIV, GCD, and Banerjee bounds.
//!
//! These decide whether two references to the same symbolic base can touch
//! the same byte on different (or the same) iterations of a single loop
//! [Bane 76, Alle 83, Wolf 82 in the paper's bibliography].

use crate::affine::Affine;

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
    let rhs = c2 - c1;
    let g = gcd(a1.unsigned_abs() as i64, a2.unsigned_abs() as i64);
    if g != 0 && rhs % g != 0 {
        return Verdict::Independent;
    }
    // Banerjee bounds when the trip count is known.
    if let Some(n) = trips {
        if n <= 0 {
            return Verdict::Independent;
        }
        let u = n - 1;
        let (lo1, hi1) = span(a1, u);
        let (lo2, hi2) = span(-a2, u);
        let lo = lo1 + lo2;
        let hi = hi1 + hi2;
        if rhs < lo || rhs > hi {
            return Verdict::Independent;
        }
    }
    Verdict::Unknown
}

fn span(a: i64, u: i64) -> (i64, i64) {
    if a >= 0 {
        (0, a * u)
    } else {
        (a * u, 0)
    }
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;

    fn aff(coeff: i64, offset: i64) -> Affine {
        // the term id is only used as an opaque token here: `test_pair`
        // never reads a term
        let mut pool = titanc_il::ExprPool::new();
        let e = pool.int(0);
        Affine {
            terms: vec![(e, 1)],
            coeff,
            offset,
        }
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
}
