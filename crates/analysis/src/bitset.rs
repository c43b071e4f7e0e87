//! A small fixed-capacity bit set for dataflow frames.

/// A fixed-size bit set backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` bits.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Tests bit `i`.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self = other`, reusing this set's storage (both sets must have the
    /// same capacity).
    pub fn assign(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        self.words.copy_from_slice(&other.words);
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set bit indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        b.insert(3);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "no change on second union");
        assert!(a.contains(3));
    }

    #[test]
    fn subtract_and_intersect() {
        let mut a = BitSet::new(10);
        a.insert(1);
        a.insert(2);
        let mut b = BitSet::new(10);
        b.insert(2);
        a.subtract(&b);
        assert!(a.contains(1) && !a.contains(2));
        let mut c = BitSet::new(10);
        c.insert(1);
        c.insert(5);
        a.intersect_with(&c);
        assert!(a.contains(1) && a.count() == 1);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let mut s = BitSet::new(200);
        for i in [5usize, 70, 199, 0] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 70, 199]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        BitSet::new(4).insert(4);
    }
}
