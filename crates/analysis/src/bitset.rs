//! Bit sets for dataflow frames: [`BitMatrix`], the solvers' one
//! allocation of a frame per CFG node, and the word-slice operations their
//! transfer functions run on.

/// `rows` bit sets of equal capacity in one allocation — a dataflow frame
/// per CFG node. A row is a word slice, so transfer functions run
/// word-wise over [`BitMatrix::row`] / [`BitMatrix::row_mut`].
#[derive(Clone, Debug)]
pub struct BitMatrix {
    words: Vec<u64>,
    /// Words per row.
    stride: usize,
    bits: usize,
}

impl BitMatrix {
    /// `rows` empty sets with capacity for `bits` bits each.
    pub fn new(rows: usize, bits: usize) -> BitMatrix {
        let stride = bits.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * stride],
            stride,
            bits,
        }
    }

    /// Row `r`.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Row `r`, writable.
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Sets bit `i` of row `r`.
    pub fn insert(&mut self, r: usize, i: usize) {
        self.row_mut(r)[i / 64] |= 1 << (i % 64);
    }

    /// Tests bit `i` of row `r`; false out of range.
    pub fn contains(&self, r: usize, i: usize) -> bool {
        i < self.bits
            && self
                .words
                .get(r * self.stride + i / 64)
                .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }
}

/// `dst |= src`, word-wise, leaving out bits `lo..hi` of `src` — a
/// transfer function's "less what this node kills" (`lo == hi`: nothing).
pub fn union_except(dst: &mut [u64], src: &[u64], lo: usize, hi: usize) {
    for (w, (d, s)) in dst.iter_mut().zip(src).enumerate() {
        // the part of lo..hi that lies in word w
        let (base, end) = (w * 64, w * 64 + 64);
        let (from, to) = (lo.clamp(base, end) - base, hi.clamp(base, end) - base);
        let kill = if from < to {
            (!0u64 >> (64 - (to - from))) << from
        } else {
            0
        };
        *d |= s & !kill;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_rows_are_independent() {
        let mut m = BitMatrix::new(3, 130);
        m.insert(1, 0);
        m.insert(1, 129);
        m.insert(2, 64);
        assert!(m.contains(1, 0) && m.contains(1, 129) && m.contains(2, 64));
        assert!(!m.contains(0, 0) && !m.contains(2, 129));
        assert!(!m.contains(3, 0) && !m.contains(1, 130), "out of range");
        let (src, mut dst) = (m.row(1).to_vec(), vec![0; 3]);
        union_except(&mut dst, &src, 0, 0);
        assert_eq!(dst, m.row(1));
        assert_eq!(BitMatrix::new(4, 0).row(3), &[] as &[u64]);
    }

    #[test]
    fn union_except_spans_words_and_takes_empty_ranges() {
        let all = [!0u64; 3];
        for (lo, hi, want) in [
            (60, 130, [(1u64 << 60) - 1, 0, !0 << 2]),
            (0, 0, all),
            (70, 70, all),
            (64, 128, [!0, 0, !0]),
            (3, 4, [!8, !0, !0]),
        ] {
            let mut dst = [0u64; 3];
            union_except(&mut dst, &all, lo, hi);
            assert_eq!(dst, want, "{lo}..{hi}");
        }
        let mut dst = [1u64, 0, 0];
        union_except(&mut dst, &[6, 0, 0], 1, 2);
        assert_eq!(dst, [5, 0, 0], "what was in dst stays");
    }
}
