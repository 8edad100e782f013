//! Storage abstraction for bounded samples.
//!
//! Sampling *policies* (Random Pairing, reservoir, …) decide *whether* an item
//! enters or leaves the sample; the *store* decides how sampled items are laid
//! out in memory.  ABACUS needs its sample organised as a bipartite graph with
//! adjacency sets (so that per-edge butterfly counting is fast), while the
//! sampling policy only needs four operations: insert, remove, replace a
//! uniformly random victim, and report the size.
//!
//! Because the policy is generic over this trait, one Random Pairing
//! implementation drives both the bipartite
//! [`SampleGraph`](crate::SampleGraph) and the reference
//! [`VecSampleStore`] of the unit tests.

use rand::{Rng, RngExt};

/// Physical storage of a bounded sample of items of type `T`.
pub trait SampleStore<T> {
    /// Number of items currently stored.
    fn store_len(&self) -> usize;

    /// Whether the item is currently stored.
    fn store_contains(&self, item: &T) -> bool;

    /// Adds an item that is known not to be present.
    fn store_insert(&mut self, item: T);

    /// Removes an item; returns whether it was present.
    fn store_remove(&mut self, item: &T) -> bool;

    /// Removes a uniformly random victim and inserts `item` in its place.
    ///
    /// # Panics
    /// Implementations may panic if the store is empty.
    fn store_replace_random<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R);

    /// Removes every stored item.
    fn store_clear(&mut self);

    /// Whether the store is empty.
    fn store_is_empty(&self) -> bool {
        self.store_len() == 0
    }
}

/// Reference [`SampleStore`] keeping items in a vector with O(1) random
/// replacement and O(n) membership (sufficient for tests and for samplers over
/// small item universes).
#[derive(Debug, Clone, Default)]
pub struct VecSampleStore<T> {
    items: Vec<T>,
}

impl<T: PartialEq> VecSampleStore<T> {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        VecSampleStore { items: Vec::new() }
    }

    /// Creates an empty store with a capacity hint.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        VecSampleStore {
            items: Vec::with_capacity(capacity),
        }
    }

    /// A view of the stored items (arbitrary order).
    #[must_use]
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: PartialEq> SampleStore<T> for VecSampleStore<T> {
    fn store_len(&self) -> usize {
        self.items.len()
    }

    fn store_contains(&self, item: &T) -> bool {
        self.items.contains(item)
    }

    fn store_insert(&mut self, item: T) {
        debug_assert!(!self.items.contains(&item), "duplicate insert into sample");
        self.items.push(item);
    }

    fn store_remove(&mut self, item: &T) -> bool {
        if let Some(pos) = self.items.iter().position(|x| x == item) {
            self.items.swap_remove(pos);
            true
        } else {
            false
        }
    }

    fn store_replace_random<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        assert!(!self.items.is_empty(), "cannot replace in an empty store");
        let victim = rng.random_range(0..self.items.len());
        self.items[victim] = item;
    }

    fn store_clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_insert_remove_contains() {
        let mut s: VecSampleStore<u32> = VecSampleStore::new();
        assert!(s.store_is_empty());
        s.store_insert(4);
        s.store_insert(9);
        assert_eq!(s.store_len(), 2);
        assert!(s.store_contains(&4));
        assert!(!s.store_contains(&5));
        assert!(s.store_remove(&4));
        assert!(!s.store_remove(&4));
        assert_eq!(s.store_len(), 1);
        s.store_clear();
        assert!(s.store_is_empty());
    }

    #[test]
    fn replace_random_keeps_size_and_inserts_item() {
        let mut s: VecSampleStore<u32> = VecSampleStore::with_capacity(4);
        for i in 0..4 {
            s.store_insert(i);
        }
        let mut rng = StdRng::seed_from_u64(1);
        s.store_replace_random(99, &mut rng);
        assert_eq!(s.store_len(), 4);
        assert!(s.store_contains(&99));
    }

    #[test]
    fn replace_random_victims_are_roughly_uniform() {
        // Replace once in a 4-element store, many trials: each original item
        // should be evicted about 25% of the time.
        let mut evicted = [0u32; 4];
        for trial in 0..8_000u64 {
            let mut s: VecSampleStore<u32> = VecSampleStore::new();
            for i in 0..4 {
                s.store_insert(i);
            }
            let mut rng = StdRng::seed_from_u64(trial);
            s.store_replace_random(99, &mut rng);
            for i in 0..4u32 {
                if !s.store_contains(&i) {
                    evicted[i as usize] += 1;
                }
            }
        }
        for &count in &evicted {
            assert!((1_700..2_300).contains(&count), "eviction count {count}");
        }
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn replace_in_empty_store_panics() {
        let mut s: VecSampleStore<u32> = VecSampleStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        s.store_replace_random(1, &mut rng);
    }
}
