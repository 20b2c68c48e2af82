//! Dense index-keyed containers for the scale-out simulator.
//!
//! At 10k–100k nodes the tree maps that were fine at 100 nodes dominate
//! the profile: every `BTreeMap<NodeId, …>` lookup is a pointer chase and
//! every `BTreeSet<ExecutorId>` insert is an allocation. The ids minted by
//! [`define_id!`](crate::define_id) are already dense `u32` indices, so
//! the hot state can live in flat vectors instead:
//!
//! * [`DenseSet`] — a `u64`-word bitset that replaces `BTreeSet<Id>` for
//!   id universes that are dense and bounded (the executor pool, an app's
//!   held set). Iteration is ascending, matching `BTreeSet` order
//!   bit-for-bit, which is what keeps the refactor invisible to the
//!   golden-determinism suites. A summary level keeps one bit per
//!   non-empty word, so iterating a sparse set costs O(universe / 4096 +
//!   occupied words), not O(universe / 64): every dispatch walks each
//!   app's held set, which on a 40k-executor cluster holds a few dozen
//!   executors in a 625-word universe.
//! * [`Interner`] — an epoch-stamped raw-id → dense-slot map for state
//!   that is keyed by *whichever* ids show up in a round (the allocator's
//!   per-node demand counts). Clearing is O(1) — bump the epoch — so a
//!   round over 40 active nodes costs O(40) even on a 100k-node cluster.

/// A set of small unsigned indices stored one bit per element, with one
/// summary bit per non-empty word.
///
/// Drop-in replacement for `BTreeSet<usize>`-shaped state where the
/// universe is dense (ids are minted 0..n). Iteration order is ascending,
/// identical to the tree set it replaces.
///
/// ```
/// use custody_simcore::DenseSet;
///
/// let mut s = DenseSet::new();
/// s.insert(70);
/// s.insert(3);
/// s.insert(70);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
/// assert!(s.remove(3));
/// assert!(!s.remove(3));
/// assert_eq!(s.first(), Some(70));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DenseSet {
    words: Vec<u64>,
    /// Bit `w` is set iff `words[w] != 0`.
    summary: Vec<u64>,
    len: usize,
}

impl DenseSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        DenseSet::default()
    }

    /// Creates an empty set sized for indices `0..n` up front.
    pub fn with_universe(n: usize) -> Self {
        let words = n.div_ceil(64);
        DenseSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no element is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test. Out-of-universe indices are simply absent.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Inserts `index`, growing the universe as needed. Returns whether
    /// the element was newly added.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
            self.summary.resize((word + 1).div_ceil(64), 0);
        }
        let mask = 1u64 << (index % 64);
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.summary[word / 64] |= 1u64 << (word % 64);
        self.len += newly as usize;
        newly
    }

    /// Removes `index`. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        let word = index / 64;
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << (index % 64);
        let was = *w & mask != 0;
        *w &= !mask;
        if *w == 0 {
            self.summary[word / 64] &= !(1u64 << (word % 64));
        }
        self.len -= was as usize;
        was
    }

    /// Removes every element; keeps the allocated universe. Touches only
    /// the occupied words.
    pub fn clear(&mut self) {
        for (s, bits) in self.summary.iter_mut().enumerate() {
            while *bits != 0 {
                self.words[s * 64 + bits.trailing_zeros() as usize] = 0;
                *bits &= *bits - 1;
            }
        }
        self.len = 0;
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Iterates elements in ascending order — the same order the
    /// `BTreeSet` this replaces would produce.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            summary: &self.summary,
            next_summary: 0,
            summary_bits: 0,
            word: 0,
            bits: 0,
            remaining: self.len,
        }
    }
}

/// Ascending iterator over a [`DenseSet`]: walks the summary to the
/// occupied words, then the set bits of each, so it costs
/// O(universe / 4096 + occupied words) rather than O(universe / 64).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    summary: &'a [u64],
    /// Index of the next summary word to load.
    next_summary: usize,
    /// Unvisited occupied-word bits of the summary word before it.
    summary_bits: u64,
    /// Index of the word `bits` came from.
    word: usize,
    /// Unvisited element bits of `words[word]`.
    bits: u64,
    /// Elements not yet yielded; the walk stops at the last one.
    remaining: usize,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        while self.bits == 0 {
            while self.summary_bits == 0 {
                self.summary_bits = self.summary[self.next_summary];
                self.next_summary += 1;
            }
            let w = self.summary_bits.trailing_zeros() as usize;
            self.summary_bits &= self.summary_bits - 1;
            self.word = (self.next_summary - 1) * 64 + w;
            self.bits = self.words[self.word];
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        self.remaining -= 1;
        Some(self.word * 64 + b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Equality is set equality: trailing zero words (capacity artifacts) are
/// ignored so a grown-and-emptied set equals a fresh one. Checkpoint
/// convergence compares sets that took different allocation paths.
impl PartialEq for DenseSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for DenseSet {}

impl FromIterator<usize> for DenseSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = DenseSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

/// An epoch-stamped raw-id → dense-slot interner.
///
/// Slots are assigned in first-encounter order. `clear()` is O(1): it
/// bumps the epoch, invalidating every stamp at once, so per-round reuse
/// costs O(active ids), never O(universe). The backing stamp table grows
/// to the largest raw id ever seen and is retained across rounds.
///
/// ```
/// use custody_simcore::Interner;
///
/// let mut it = Interner::new();
/// assert_eq!(it.intern(900), 0);
/// assert_eq!(it.intern(3), 1);
/// assert_eq!(it.intern(900), 0);
/// assert_eq!(it.get(3), Some(1));
/// assert_eq!(it.get(4), None);
/// assert_eq!(it.keys(), &[900, 3]);
/// it.clear();
/// assert_eq!(it.get(900), None);
/// assert_eq!(it.intern(3), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// `stamps[raw] == epoch` marks `slots[raw]` as live this epoch.
    stamps: Vec<u32>,
    slots: Vec<u32>,
    /// Raw ids in slot order (slot `s` was minted for `keys[s]`).
    keys: Vec<u32>,
    epoch: u32,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            stamps: Vec::new(),
            slots: Vec::new(),
            keys: Vec::new(),
            // Stamp tables start zeroed; epoch 0 would make them all live.
            epoch: 1,
        }
    }

    /// Number of distinct ids interned this epoch.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing has been interned this epoch.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Returns the dense slot for `raw`, minting the next slot on first
    /// encounter this epoch.
    #[inline]
    pub fn intern(&mut self, raw: usize) -> usize {
        if raw >= self.stamps.len() {
            self.stamps.resize(raw + 1, 0);
            self.slots.resize(raw + 1, 0);
        }
        if self.stamps[raw] == self.epoch {
            return self.slots[raw] as usize;
        }
        let slot = self.keys.len();
        self.stamps[raw] = self.epoch;
        self.slots[raw] = slot as u32;
        self.keys.push(raw as u32);
        slot
    }

    /// The slot for `raw` if it was interned this epoch.
    #[inline]
    pub fn get(&self, raw: usize) -> Option<usize> {
        (self.stamps.get(raw) == Some(&self.epoch)).then(|| self.slots[raw] as usize)
    }

    /// Raw ids in slot order: `keys()[slot]` recovers the id a slot was
    /// minted for.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Forgets every mapping in O(1) (epoch bump). On the rare epoch
    /// wraparound the stamp table is rezeroed so stale stamps can never
    /// alias the new epoch.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_set_matches_btree_semantics() {
        use std::collections::BTreeSet;
        let ops: &[usize] = &[5, 1, 64, 63, 128, 1, 0, 200, 65];
        let mut dense = DenseSet::new();
        let mut tree = BTreeSet::new();
        for &x in ops {
            assert_eq!(dense.insert(x), tree.insert(x), "insert {x}");
            assert_eq!(dense.len(), tree.len());
        }
        assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            tree.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(dense.first(), tree.iter().next().copied());
        for &x in &[1usize, 64, 999] {
            assert_eq!(dense.remove(x), tree.remove(&x), "remove {x}");
            assert_eq!(dense.contains(x), tree.contains(&x));
        }
        assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            tree.iter().copied().collect::<Vec<_>>()
        );
    }

    /// Random insert/remove/clear sequences, checked against `BTreeSet`
    /// after every step. Universes straddle the 4,096-element summary-word
    /// boundary, and each run alternates growing and draining phases so
    /// sets are grown and then emptied.
    #[test]
    fn dense_set_matches_btree_model_under_random_ops() {
        use crate::SimRng;
        use std::collections::BTreeSet;
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let universe = [70, 4_096, 4_097, 9_000, 20_000, 300_000][seed as usize % 6];
            let mut dense = if seed % 2 == 0 {
                DenseSet::new()
            } else {
                DenseSet::with_universe(universe)
            };
            let mut model = BTreeSet::new();
            for step in 0..4_000 {
                let growing = (step / 500) % 2 == 0;
                let x = rng.below(universe);
                match rng.below(100) {
                    0 => {
                        dense.clear();
                        model.clear();
                    }
                    r if (r < 70) == growing => {
                        assert_eq!(dense.insert(x), model.insert(x), "seed {seed}: insert {x}");
                    }
                    _ => {
                        // Mostly remove present elements, so drains empty.
                        let victim = match model.iter().nth(rng.below(model.len() + 1)) {
                            Some(&v) if rng.below(4) != 0 => v,
                            _ => x,
                        };
                        assert_eq!(
                            dense.remove(victim),
                            model.remove(&victim),
                            "seed {seed}: remove {victim}"
                        );
                    }
                }
                assert_eq!(dense.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(dense.is_empty(), model.is_empty());
                assert_eq!(
                    dense.first(),
                    model.first().copied(),
                    "seed {seed} step {step}"
                );
                assert_eq!(dense.contains(x), model.contains(&x));
                if step % 97 == 0 || model.len() < 3 {
                    assert!(
                        dense.iter().eq(model.iter().copied()),
                        "seed {seed} step {step}: iteration"
                    );
                    assert_eq!(dense.iter().len(), model.len());
                    let rebuilt: DenseSet = model.iter().copied().collect();
                    assert_eq!(dense, rebuilt, "seed {seed} step {step}: equality");
                    assert_eq!(rebuilt, dense);
                }
            }
            for x in model.clone() {
                assert!(dense.remove(x));
                model.remove(&x);
            }
            assert_eq!(dense, DenseSet::new(), "seed {seed}: drained set");
            assert_eq!(dense.iter().next(), None);
            assert_eq!(dense.first(), None);
        }
    }

    #[test]
    fn sparse_set_over_large_universe_iterates_exactly_its_elements() {
        let elems = [
            0, 63, 64, 4_095, 4_096, 4_160, 262_143, 262_144, 500_001, 999_999,
        ];
        let mut s = DenseSet::with_universe(1_000_000);
        for &e in elems.iter().rev() {
            s.insert(e);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), elems);
        assert_eq!(s.iter().len(), elems.len());
        assert!(s.remove(0));
        assert!(s.remove(4_096));
        assert_eq!(s.first(), Some(63));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [63, 64, 4_095, 4_160, 262_143, 262_144, 500_001, 999_999]
        );
        s.clear();
        assert_eq!(s.iter().next(), None);
        s.insert(999_999);
        assert_eq!(s.iter().collect::<Vec<_>>(), [999_999]);
    }

    #[test]
    fn dense_set_equality_ignores_capacity() {
        let mut a = DenseSet::new();
        a.insert(500);
        a.remove(500);
        a.insert(3);
        let mut b = DenseSet::new();
        b.insert(3);
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.insert(501);
        assert_ne!(a, b);
    }

    #[test]
    fn dense_set_clear_retains_universe() {
        let mut s = DenseSet::with_universe(256);
        s.insert(255);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(255));
        assert_eq!(s, DenseSet::new());
    }

    #[test]
    fn interner_assigns_slots_in_encounter_order() {
        let mut it = Interner::new();
        for (i, raw) in [70_000usize, 3, 19, 3, 70_000, 0].iter().enumerate() {
            let slot = it.intern(*raw);
            match i {
                0 | 4 => assert_eq!(slot, 0),
                1 | 3 => assert_eq!(slot, 1),
                2 => assert_eq!(slot, 2),
                5 => assert_eq!(slot, 3),
                _ => unreachable!(),
            }
        }
        assert_eq!(it.len(), 4);
        assert_eq!(it.keys(), &[70_000, 3, 19, 0]);
    }

    #[test]
    fn interner_clear_is_an_epoch_bump() {
        let mut it = Interner::new();
        it.intern(9);
        it.clear();
        assert!(it.is_empty());
        assert_eq!(it.get(9), None);
        assert_eq!(it.intern(2), 0);
        assert_eq!(it.intern(9), 1);
    }

    #[test]
    fn interner_survives_epoch_wraparound() {
        let mut it = Interner::new();
        it.intern(5);
        it.epoch = u32::MAX;
        it.clear();
        assert_eq!(it.get(5), None, "stale stamp must not alias a new epoch");
        assert_eq!(it.intern(5), 0);
    }
}
