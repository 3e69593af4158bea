//! The engine's key index: one per table, from key to the flat slot of its
//! row in the table's page region.
//!
//! An ordered map of leaves, each two parallel sorted arrays of at most
//! [`LEAF`] keys and slots, so a row costs the index its `u64` and its
//! `u32` plus its share of the leaf's unused tail. The split rule keeps
//! leaves full under the appends the workloads make, one stream per
//! district among them (DESIGN §5a).

use std::collections::BTreeMap;

use crate::types::Key;

/// Entries in a full leaf.
const LEAF: usize = 64;

/// Sorted keys and their slots, allocated once at the full size.
struct Leaf {
    keys: Vec<Key>,
    slots: Vec<u32>,
}

impl Leaf {
    fn new() -> Leaf {
        Leaf {
            keys: Vec::with_capacity(LEAF),
            slots: Vec::with_capacity(LEAF),
        }
    }

    fn put(&mut self, i: usize, key: Key, slot: u32) {
        self.keys.insert(i, key);
        self.slots.insert(i, slot);
    }

    /// Puts `key` at `i`. A full leaf splits first, and the entries past
    /// the split come back as a new leaf.
    fn add(&mut self, i: usize, key: Key, slot: u32) -> Option<Leaf> {
        if self.keys.len() < LEAF {
            self.put(i, key, slot);
            return None;
        }
        // A full leaf splits at the new key, which ends the left part, so
        // a stream appending in front of another stream's keys fills its
        // own leaf and leaves the other's keys a leaf of their own; an
        // append at the end starts a new leaf, one at the front leaves the
        // old keys whole. A key that would end a left part under a quarter
        // full halves the leaf instead.
        let at = if i > 0 && i < LEAF / 4 { LEAF / 2 } else { i };
        let mut right = self.split_off(at);
        if i < LEAF {
            self.put(i, key, slot);
        } else {
            right.put(0, key, slot);
        }
        Some(right)
    }

    /// Moves the entries from `at` on into a new leaf.
    fn split_off(&mut self, at: usize) -> Leaf {
        let mut right = Leaf::new();
        right.keys.extend(self.keys.drain(at..));
        right.slots.extend(self.slots.drain(at..));
        right
    }
}

/// Key → flat slot, in key order.
#[derive(Default)]
pub(crate) struct KeyIndex {
    /// Each leaf is filed under a key at or below its first and above the
    /// last of the leaf before it, so the leaf that holds (or would hold) a
    /// key is the last one filed at or below it. No leaf is empty.
    leaves: BTreeMap<Key, Leaf>,
}

impl KeyIndex {
    /// Entries held (a walk over the leaves: audits ask).
    pub(crate) fn len(&self) -> usize {
        self.leaves.values().map(|leaf| leaf.keys.len()).sum()
    }

    /// `key`'s slot.
    pub(crate) fn get(&self, key: Key) -> Option<u32> {
        let (_, leaf) = self.leaves.range(..=key).next_back()?;
        let i = leaf.keys.binary_search(&key).ok()?;
        Some(leaf.slots[i])
    }

    /// Maps `key` to `slot`, replacing the slot it had.
    pub(crate) fn insert(&mut self, key: Key, slot: u32) {
        let right = match self.leaves.range_mut(..=key).next_back() {
            Some((_, leaf)) => match leaf.keys.binary_search(&key) {
                Ok(i) => return leaf.slots[i] = slot,
                Err(i) => leaf.add(i, key, slot),
            },
            // A key below every leaf joins the first, filed anew under it.
            None => {
                let mut first = self.leaves.pop_first().map_or_else(Leaf::new, |(_, l)| l);
                let right = first.add(0, key, slot);
                self.leaves.insert(key, first);
                right
            }
        };
        if let Some(right) = right {
            self.leaves.insert(right.keys[0], right);
        }
    }

    /// Unmaps `key`, returning its slot. A leaf that empties goes.
    pub(crate) fn remove(&mut self, key: Key) -> Option<u32> {
        let (&under, leaf) = self.leaves.range_mut(..=key).next_back()?;
        let i = leaf.keys.binary_search(&key).ok()?;
        leaf.keys.remove(i);
        let slot = leaf.slots.remove(i);
        if leaf.keys.is_empty() {
            self.leaves.remove(&under);
        }
        Some(slot)
    }

    /// The entries with keys in `[lo, hi]`, in key order.
    pub(crate) fn range(&self, lo: Key, hi: Key) -> impl Iterator<Item = (Key, u32)> + '_ {
        let from = self.leaves.range(..=lo).next_back().map_or(lo, |(&k, _)| k);
        self.leaves
            .range(from..)
            .flat_map(|(_, leaf)| leaf.keys.iter().copied().zip(leaf.slots.iter().copied()))
            .skip_while(move |&(k, _)| k < lo)
            .take_while(move |&(k, _)| k <= hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::SimRng;

    /// How an insert of a new key went, predicted from the leaf it lands
    /// in before the insert and then checked against the leaves after it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Case {
        /// The leaf had room.
        Room,
        /// A full leaf, the key past its end: a new leaf of the key alone.
        Append,
        /// A full leaf, the key before its first: the key alone on the left.
        Front,
        /// A full leaf, the key at or past its first quarter: split at the key.
        AtKey,
        /// A full leaf, the key inside its first quarter: halved.
        Halve,
        /// A key below every leaf, which refiles the first leaf under it
        /// (counted besides the insert's own case).
        Refiled,
        /// A removal that emptied its leaf, which went.
        Emptied,
    }

    impl KeyIndex {
        /// Every leaf non-empty, sorted, never grown past its allocation,
        /// and filed at or below its first key and above the last key of
        /// the leaf before it.
        fn assert_filed(&self) {
            let mut last = None;
            for (&under, leaf) in &self.leaves {
                assert!(!leaf.keys.is_empty() && leaf.keys.len() <= LEAF);
                assert_eq!(leaf.keys.len(), leaf.slots.len());
                assert_eq!((leaf.keys.capacity(), leaf.slots.capacity()), (LEAF, LEAF));
                assert!(leaf.keys.windows(2).all(|w| w[0] < w[1]));
                assert!(under <= leaf.keys[0]);
                assert!(
                    last.is_none_or(|l| l < under),
                    "filed {under} over {last:?}"
                );
                last = leaf.keys.last().copied();
            }
        }

        /// The keys of the leaf holding `key` and of the leaf after it.
        fn around(&self, key: Key) -> (Vec<Key>, Vec<Key>) {
            let mut from = self
                .leaves
                .range(..=key)
                .rev()
                .take(1)
                .chain(self.leaves.range(key + 1..));
            let mut keys = || from.next().map_or(Vec::new(), |(_, l)| l.keys.clone());
            (keys(), keys())
        }

        /// Inserts a key not yet held, returning how the insert went, after
        /// checking the leaves say so, and whether it refiled the first leaf.
        fn insert_new(&mut self, key: Key, slot: u32) -> (Case, bool) {
            let below_all = self.leaves.first_key_value().is_none_or(|(&k, _)| key < k);
            let (before, _) = self.around(key);
            let i = before.partition_point(|&k| k < key);
            let n = self.leaves.len();
            self.insert(key, slot);
            let (left, right) = self.around(key);
            let case = match i {
                _ if before.len() < LEAF => {
                    assert_eq!(self.leaves.len(), n.max(1));
                    assert_eq!(left.len(), before.len() + 1);
                    assert_eq!(left[i], key);
                    Case::Room
                }
                LEAF => {
                    assert_eq!(left, [key]);
                    Case::Append
                }
                0 => {
                    assert_eq!(left, [key]);
                    assert_eq!(right, before);
                    Case::Front
                }
                _ if i < LEAF / 4 => {
                    assert_eq!((left.len(), right.len()), (LEAF / 2 + 1, LEAF / 2));
                    Case::Halve
                }
                _ => {
                    assert_eq!((left.len(), left[i]), (i + 1, key));
                    assert_eq!(right, before[i..]);
                    Case::AtKey
                }
            };
            if before.len() == LEAF {
                assert_eq!(self.leaves.len(), n + 1, "{case:?}");
            }
            if below_all {
                assert_eq!(self.leaves.first_key_value().map(|(&k, _)| k), Some(key));
            }
            (case, below_all && n > 0)
        }
    }

    /// Seeded inserts, replacements, removals, point reads and bounded
    /// range reads against a `BTreeMap` after every step, over four key
    /// patterns (ascending, descending, twenty streams that each append in
    /// front of the next one's keys, uniform random), then a drain of
    /// every key in random order: each split case, the refiling of the
    /// first leaf and the removal of an emptied leaf are reached, and each
    /// is checked against the leaves it left.
    #[test]
    fn the_index_matches_a_btreemap() {
        let mut seen = BTreeMap::new();
        for pattern in 0..4u64 {
            let mut rng = SimRng::seed_from_u64(0x1EAF + pattern);
            let (mut index, mut model) = (KeyIndex::default(), BTreeMap::new());
            let mut tails = [0u64; 20];
            let check = |index: &KeyIndex, model: &BTreeMap<Key, u32>, rng: &mut SimRng| {
                index.assert_filed();
                assert_eq!(index.len(), model.len());
                let all: Vec<(Key, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(index.range(0, Key::MAX).collect::<Vec<_>>(), all);
                let probe = match all.get(rng.gen_range(0..all.len().max(1))) {
                    Some(&(k, _)) if rng.gen_range(0..2u32) == 0 => k,
                    _ => rng.next_u64() >> rng.gen_range(0..64u32),
                };
                assert_eq!(index.get(probe), model.get(&probe).copied());
                let (lo, hi) = (probe.saturating_sub(rng.gen_range(0..1u64 << 40)), probe);
                let limit = rng.gen_range(0..100usize);
                let want: Vec<_> = model
                    .range(lo..=hi)
                    .take(limit)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(index.range(lo, hi).take(limit).collect::<Vec<_>>(), want);
            };
            for step in 0..4_000u64 {
                let key = match pattern {
                    0 => step * 8,
                    1 => (4_000 - step) * 8,
                    2 => {
                        let s = rng.gen_range(0..20usize);
                        tails[s] += 1;
                        ((s as u64) << 32) | tails[s]
                    }
                    _ => rng.next_u64() >> 8,
                };
                let slot = rng.next_u64() as u32;
                match rng.gen_range(0..10u32) {
                    0 | 1 if !model.is_empty() => {
                        let &victim = model.keys().nth(rng.gen_range(0..model.len())).unwrap();
                        let n = index.leaves.len();
                        assert_eq!(index.remove(victim), model.remove(&victim));
                        if index.leaves.len() < n {
                            *seen.entry(Case::Emptied).or_insert(0) += 1;
                        }
                    }
                    2 if !model.is_empty() => {
                        let &k = model.keys().nth(rng.gen_range(0..model.len())).unwrap();
                        index.insert(k, slot);
                        model.insert(k, slot);
                    }
                    _ if model.contains_key(&key) => {}
                    _ => {
                        let (case, refiled) = index.insert_new(key, slot);
                        model.insert(key, slot);
                        *seen.entry(case).or_insert(0) += 1;
                        if refiled {
                            *seen.entry(Case::Refiled).or_insert(0) += 1;
                        }
                    }
                }
                assert_eq!(index.remove(rng.next_u64() | 1 << 63), None);
                check(&index, &model, &mut rng);
            }
            let mut keys: Vec<Key> = model.keys().copied().collect();
            while !keys.is_empty() {
                let k = keys.swap_remove(rng.gen_range(0..keys.len()));
                let n = index.leaves.len();
                assert_eq!(index.remove(k), model.remove(&k));
                if index.leaves.len() < n {
                    *seen.entry(Case::Emptied).or_insert(0) += 1;
                }
                check(&index, &model, &mut rng);
            }
            assert!(index.leaves.is_empty());
        }
        let all = [
            Case::Room,
            Case::Append,
            Case::Front,
            Case::AtKey,
            Case::Halve,
            Case::Refiled,
            Case::Emptied,
        ];
        assert!(all.iter().all(|c| seen.contains_key(c)), "{seen:?}");
    }
}
