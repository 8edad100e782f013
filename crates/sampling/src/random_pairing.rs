//! Random Pairing (Gemulla, Lehner, Haas — VLDB Journal 2008).
//!
//! Random Pairing maintains a bounded-size **uniform** random sample of the
//! items currently alive in a fully dynamic stream (insertions *and*
//! deletions).  The key idea is to treat every deletion as a "debt" that a
//! future insertion pays off instead of sampling the insertion afresh:
//!
//! * a deletion of an item that was **in** the sample increments the
//!   *bad*-deletion counter `c_b`,
//! * a deletion of an item **outside** the sample increments the
//!   *good*-deletion counter `c_g`,
//! * while `c_b + c_g > 0`, an arriving insertion fills one of the vacancies:
//!   with probability `c_b / (c_b + c_g)` it enters the sample (paying off a
//!   bad deletion), otherwise it stays out (paying off a good one),
//! * with no outstanding deletions the scheme degenerates to classic reservoir
//!   sampling.
//!
//! This is Algorithm 2 of the ABACUS paper verbatim; ABACUS layers butterfly
//! counting on top and uses the `(|E|, c_b, c_g)` triplet to compute the
//! butterfly-discovery probability of Eq. 1.

use crate::store::SampleStore;
use rand::{Rng, RngExt};

/// A snapshot of the Random Pairing bookkeeping state — exactly the triplet
/// `{s = |E|, c_b, c_g}` that Eq. 1's discovery probability reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomPairingState {
    /// Number of stream items currently alive (inserted and not yet deleted).
    pub live_items: usize,
    /// Uncompensated deletions of sampled items (`c_b`).
    pub bad_deletions: usize,
    /// Uncompensated deletions of non-sampled items (`c_g`).
    pub good_deletions: usize,
}

impl RandomPairingState {
    /// `c_b + c_g`.
    #[inline]
    #[must_use]
    pub fn outstanding_deletions(&self) -> usize {
        self.bad_deletions + self.good_deletions
    }

    /// `T = |E| + c_b + c_g`, the notional population size used by Eq. 1.
    #[inline]
    #[must_use]
    pub fn population(&self) -> usize {
        self.live_items + self.outstanding_deletions()
    }
}

/// The Random Pairing sampling policy (Algorithm 2).
///
/// The policy is generic over the [`SampleStore`] that physically holds the
/// sampled items, so the same implementation drives both the unit-test vector
/// store and ABACUS's adjacency-list sample graph.
///
/// ```
/// use abacus_sampling::{RandomPairing, SampleStore, VecSampleStore};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut policy = RandomPairing::new(2);
/// let mut store: VecSampleStore<u32> = VecSampleStore::default();
/// let mut rng = StdRng::seed_from_u64(7);
///
/// // Within budget every insertion is sampled.
/// policy.insert(10, &mut store, &mut rng);
/// policy.insert(20, &mut store, &mut rng);
/// assert_eq!(store.store_len(), 2);
///
/// // A deletion of a sampled item leaves a "bad deletion" debt that the
/// // next insertion pays off instead of being sampled afresh.
/// policy.delete(&10, &mut store);
/// assert_eq!(policy.state().bad_deletions, 1);
/// policy.insert(30, &mut store, &mut rng);
/// assert_eq!(policy.state().outstanding_deletions(), 0);
/// assert_eq!(policy.state().live_items, 2);
/// ```
#[derive(Debug, Clone)]
pub struct RandomPairing {
    budget: usize,
    state: RandomPairingState,
}

impl RandomPairing {
    /// Creates the policy with memory budget `k ≥ 1` (the paper requires
    /// `k ≥ 2` for butterfly counting, but the sampler itself only needs 1).
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        assert!(budget >= 1, "memory budget must be at least 1");
        RandomPairing {
            budget,
            state: RandomPairingState::default(),
        }
    }

    /// Rebuilds a policy from a budget and a bookkeeping triplet captured by
    /// [`RandomPairing::state`] — the checkpoint/restore path.
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    #[must_use]
    pub fn from_state(budget: usize, state: RandomPairingState) -> Self {
        assert!(budget >= 1, "memory budget must be at least 1");
        RandomPairing { budget, state }
    }

    /// The memory budget `k`.
    #[inline]
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The current bookkeeping triplet `{|E|, c_b, c_g}`.
    #[inline]
    #[must_use]
    pub fn state(&self) -> RandomPairingState {
        self.state
    }

    /// `y = min(k, |E| + c_b + c_g)` — the sample size the uniformity argument
    /// reasons about (Lemma 1 of the paper).
    #[inline]
    #[must_use]
    pub fn expected_sample_size(&self) -> usize {
        self.budget.min(self.state.population())
    }

    /// Processes an insertion (Algorithm 2, `InsertToSample`).
    pub fn insert<T, S, R>(&mut self, item: T, store: &mut S, rng: &mut R)
    where
        S: SampleStore<T>,
        R: Rng + ?Sized,
    {
        self.state.live_items += 1;
        if self.state.outstanding_deletions() == 0 {
            // Reservoir behaviour.
            if store.store_len() < self.budget {
                store.store_insert(item);
            } else {
                let p = self.budget as f64 / self.state.live_items as f64;
                if rng.random_bool(p.min(1.0)) {
                    store.store_replace_random(item, rng);
                }
            }
        } else {
            // Pair the insertion with an outstanding deletion.
            let p = self.state.bad_deletions as f64 / self.state.outstanding_deletions() as f64;
            if p > 0.0 && rng.random_bool(p) {
                debug_assert!(
                    store.store_len() < self.budget,
                    "bad-deletion compensation implies a vacancy in the sample"
                );
                store.store_insert(item);
                self.state.bad_deletions -= 1;
            } else {
                self.state.good_deletions -= 1;
            }
        }
    }

    /// Processes a deletion (Algorithm 2, `DeleteFromSample`).
    ///
    /// The caller must only delete items that are currently alive in the
    /// stream (the stream model guarantees this).
    pub fn delete<T, S>(&mut self, item: &T, store: &mut S)
    where
        S: SampleStore<T>,
    {
        debug_assert!(self.state.live_items > 0, "deletion from an empty stream");
        self.state.live_items = self.state.live_items.saturating_sub(1);
        if store.store_remove(item) {
            self.state.bad_deletions += 1;
        } else {
            self.state.good_deletions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VecSampleStore;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn fills_up_to_budget_exactly_like_a_set_when_small() {
        let mut rp = RandomPairing::new(10);
        let mut store: VecSampleStore<u32> = VecSampleStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..8 {
            rp.insert(i, &mut store, &mut rng);
        }
        assert_eq!(store.store_len(), 8);
        assert_eq!(rp.state().live_items, 8);
        // While under budget the sample is the whole population.
        for i in 0..8u32 {
            assert!(store.store_contains(&i));
        }
    }

    #[test]
    fn never_exceeds_budget() {
        let mut rp = RandomPairing::new(16);
        let mut store: VecSampleStore<u32> = VecSampleStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..10_000u32 {
            rp.insert(i, &mut store, &mut rng);
            assert!(store.store_len() <= 16);
        }
        assert_eq!(store.store_len(), 16);
        assert_eq!(rp.expected_sample_size(), 16);
    }

    #[test]
    fn deletions_update_counters_and_store() {
        let mut rp = RandomPairing::new(4);
        let mut store: VecSampleStore<u32> = VecSampleStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..4 {
            rp.insert(i, &mut store, &mut rng);
        }
        // Delete a sampled item -> bad deletion.
        rp.delete(&0, &mut store);
        assert_eq!(rp.state().bad_deletions, 1);
        assert_eq!(store.store_len(), 3);
        // Insert more items than the population can compensate.
        for i in 10..14 {
            rp.insert(i, &mut store, &mut rng);
        }
        assert_eq!(rp.state().outstanding_deletions(), 0);
        assert!(store.store_len() <= 4);
    }

    #[test]
    fn deleting_unsampled_item_is_a_good_deletion() {
        let mut rp = RandomPairing::new(2);
        let mut store: VecSampleStore<u32> = VecSampleStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..20 {
            rp.insert(i, &mut store, &mut rng);
        }
        // Find an item that is not in the sample.
        let outside = (0..20u32).find(|i| !store.store_contains(i)).unwrap();
        rp.delete(&outside, &mut store);
        assert_eq!(rp.state().good_deletions, 1);
        assert_eq!(rp.state().bad_deletions, 0);
        assert_eq!(rp.state().live_items, 19);
    }

    #[test]
    fn sample_is_exact_while_population_fits_in_budget() {
        // With k larger than the population at all times, the sample must be
        // exactly the set of live items, deletions included.
        let mut rp = RandomPairing::new(100);
        let mut store: VecSampleStore<u32> = VecSampleStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut live: BTreeSet<u32> = BTreeSet::new();
        for i in 0..50 {
            rp.insert(i, &mut store, &mut rng);
            live.insert(i);
        }
        for i in (0..50).step_by(3) {
            rp.delete(&i, &mut store);
            live.remove(&i);
        }
        for i in 100..120 {
            rp.insert(i, &mut store, &mut rng);
            live.insert(i);
        }
        let sampled: BTreeSet<u32> = store.items().iter().copied().collect();
        // All bad deletions must have been compensated by the later inserts.
        assert!(sampled.is_subset(&live));
        assert_eq!(rp.state().live_items, live.len());
    }

    #[test]
    fn uniformity_under_deletions() {
        // Stream: insert 0..40, delete 0..10, insert 40..50.  Live items are
        // 10..50 (40 items); with k = 8 each live item should be sampled with
        // probability 8/40 = 0.2.  Reservoir sampling that ignores deletions
        // would be biased; Random Pairing must not be.
        const TRIALS: u64 = 4_000;
        const K: usize = 8;
        let mut appearances = [0u32; 50];
        for trial in 0..TRIALS {
            let mut rp = RandomPairing::new(K);
            let mut store: VecSampleStore<u32> = VecSampleStore::new();
            let mut rng = StdRng::seed_from_u64(1_000 + trial);
            for i in 0..40 {
                rp.insert(i, &mut store, &mut rng);
            }
            for i in 0..10 {
                rp.delete(&i, &mut store);
            }
            for i in 40..50 {
                rp.insert(i, &mut store, &mut rng);
            }
            assert!(store.store_len() <= K);
            for &item in store.items() {
                appearances[item as usize] += 1;
            }
        }
        // Deleted items never appear.
        for (i, &count) in appearances.iter().enumerate().take(10) {
            assert_eq!(count, 0, "deleted item {i} appeared in a sample");
        }
        // Live items appear with frequency close to k / population.
        let expected = TRIALS as f64 * K as f64 / 40.0;
        for (i, &count) in appearances.iter().enumerate().skip(10) {
            let deviation = (f64::from(count) - expected).abs() / expected;
            assert!(
                deviation < 0.25,
                "item {i}: count {count}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_budget_panics() {
        let _ = RandomPairing::new(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Invariants under arbitrary valid operation sequences:
        /// the sample never exceeds the budget, is always a subset of the live
        /// items, counters never underflow, and the live-item count matches.
        #[test]
        fn invariants_hold_for_random_streams(
            budget in 1usize..12,
            seed in any::<u64>(),
            ops in proptest::collection::vec((any::<bool>(), 0u32..60), 1..300),
        ) {
            let mut rp = RandomPairing::new(budget);
            let mut store: VecSampleStore<u32> = VecSampleStore::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live: BTreeSet<u32> = BTreeSet::new();

            for (want_insert, item) in ops {
                if want_insert {
                    if live.insert(item) {
                        rp.insert(item, &mut store, &mut rng);
                    }
                } else if live.remove(&item) {
                    rp.delete(&item, &mut store);
                }
                prop_assert!(store.store_len() <= budget);
                prop_assert_eq!(rp.state().live_items, live.len());
                for x in store.items() {
                    prop_assert!(live.contains(x), "sampled item {} is not live", x);
                }
            }
        }
    }
}
