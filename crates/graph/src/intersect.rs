//! Set-intersection kernels.
//!
//! Finding the common neighbors of two vertices is the inner loop of butterfly
//! counting (Algorithm 1, line 9 of the paper).  The cost of intersecting two
//! neighbor sets is proportional to the size of the smaller set when the
//! larger one supports O(1) membership probes, which is why ABACUS picks the
//! "cheapest side" before intersecting.
//!
//! [`intersection_count`] / [`intersection_count_excluding`] are the probe
//! kernel, the only intersection over [`AdjacencySet`]s: iterate the smaller
//! set and probe the larger one.  Comparably sized hubs are not merged over
//! sorted copies: sequential ABACUS mutates its sample after almost every
//! element, and each mutation forces a re-sort that costs more than the
//! merge saves.
//!
//! Both report `comparisons` under the *probe model* of the paper — the
//! number of membership probes, i.e. the size of the smaller set after
//! exclusions.  These are the per-thread workload counters of the
//! load-balance experiment (Fig. 10).

use crate::adjacency::AdjacencySet;

/// Result of an intersection: how many common elements and how many probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntersectionResult {
    /// Number of elements present in both sets (after exclusions).
    pub count: u64,
    /// Number of membership probes performed (= size of the smaller set).
    pub comparisons: u64,
}

impl IntersectionResult {
    /// Adds another result to this one.
    #[inline]
    pub fn accumulate(&mut self, other: IntersectionResult) {
        self.count += other.count;
        self.comparisons += other.comparisons;
    }
}

/// Counts `|a ∩ b|` by probing the larger set with elements of the smaller.
#[inline]
#[must_use]
pub fn intersection_count(a: &AdjacencySet, b: &AdjacencySet) -> IntersectionResult {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0u64;
    let mut comparisons = 0u64;
    for x in small {
        comparisons += 1;
        if large.contains(x) {
            count += 1;
        }
    }
    IntersectionResult { count, comparisons }
}

/// Counts `|a ∩ b \ {exclude}|`.
///
/// The butterfly kernel uses this to drop the incoming edge's own endpoint
/// from the common-neighbor set (a vertex can never complete a butterfly with
/// itself).
#[inline]
#[must_use]
pub fn intersection_count_excluding(
    a: &AdjacencySet,
    b: &AdjacencySet,
    exclude: u32,
) -> IntersectionResult {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0u64;
    let mut comparisons = 0u64;
    for x in small {
        if x == exclude {
            continue;
        }
        comparisons += 1;
        if large.contains(x) {
            count += 1;
        }
    }
    IntersectionResult { count, comparisons }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(items: &[u32]) -> AdjacencySet {
        items.iter().copied().collect()
    }

    #[test]
    fn count_basic() {
        let a = set(&[1, 2, 3, 4]);
        let b = set(&[3, 4, 5]);
        let r = intersection_count(&a, &b);
        assert_eq!(r.count, 2);
        assert_eq!(r.comparisons, 3); // probes with the smaller set (b)
    }

    #[test]
    fn count_with_disjoint_and_empty_sets() {
        let a = set(&[1, 2, 3]);
        let b = set(&[4, 5]);
        assert_eq!(intersection_count(&a, &b).count, 0);
        let empty = AdjacencySet::new();
        assert_eq!(intersection_count(&a, &empty).count, 0);
        assert_eq!(intersection_count(&empty, &empty).comparisons, 0);
    }

    #[test]
    fn excluding_removes_exactly_one_candidate() {
        let a = set(&[1, 2, 3, 4]);
        let b = set(&[2, 3, 4]);
        assert_eq!(intersection_count_excluding(&a, &b, 3).count, 2);
        assert_eq!(intersection_count_excluding(&a, &b, 99).count, 3);
        // Probe model on hub-sized operands: the excluded member of the
        // smaller set is never probed.
        let a: AdjacencySet = (0..60u32).collect();
        let b: AdjacencySet = (30..100u32).collect();
        assert_eq!(
            intersection_count_excluding(&a, &b, 30),
            IntersectionResult {
                count: 29,
                comparisons: 59
            }
        );
        assert_eq!(
            intersection_count_excluding(&a, &b, 1_000),
            IntersectionResult {
                count: 30,
                comparisons: 60
            }
        );
    }

    #[test]
    fn shrunken_large_sets_fall_back_to_probing() {
        // A `Large` set that shrank below the small threshold can be the
        // *smaller* operand of a `Small`-variant set: the kernel iterates it
        // and probes the vector.
        let mut shrunk: AdjacencySet = (0..40u32).collect();
        for x in 8..40 {
            shrunk.remove(x);
        }
        assert!(shrunk.is_large() && shrunk.len() == 8);
        let small_variant: AdjacencySet = (0..20u32).collect();
        assert!(!small_variant.is_large());
        let r = intersection_count(&shrunk, &small_variant);
        assert_eq!(r.count, 8);
        assert_eq!(r.comparisons, 8);
        let r = intersection_count_excluding(&shrunk, &small_variant, 3);
        assert_eq!(r.count, 7);
        assert_eq!(r.comparisons, 7);
    }

    #[test]
    fn skewed_hub_pairs_keep_the_probe_path() {
        // Probing costs |small| however large the other hub is.
        let small: AdjacencySet = (0..40u32).collect();
        let large: AdjacencySet = (0..1_000u32).collect();
        assert!(small.is_large() && large.is_large());
        let r = intersection_count(&small, &large);
        assert_eq!(r.count, 40);
        assert_eq!(r.comparisons, 40);
    }

    #[test]
    fn symmetric_in_count() {
        let a = set(&(0..100).collect::<Vec<_>>());
        let b = set(&(50..200).collect::<Vec<_>>());
        assert_eq!(
            intersection_count(&a, &b).count,
            intersection_count(&b, &a).count
        );
        // Probes are bounded by the smaller set regardless of argument order.
        assert_eq!(intersection_count(&a, &b).comparisons, 100);
        assert_eq!(intersection_count(&b, &a).comparisons, 100);
    }

    proptest! {
        /// Counts agree with the BTreeSet reference on random sets of every
        /// size class (Small/Small, Small/Large, Large/Large), and the probe
        /// model holds: the comparisons equal the size of the smaller set.
        #[test]
        fn matches_btreeset_reference(
            xs in proptest::collection::btree_set(0u32..500, 0..200),
            ys in proptest::collection::btree_set(0u32..500, 0..200),
            exclude in 0u32..500,
        ) {
            let a: AdjacencySet = xs.iter().copied().collect();
            let b: AdjacencySet = ys.iter().copied().collect();
            let expected = xs.intersection(&ys).count() as u64;
            let probed = intersection_count(&a, &b);
            prop_assert_eq!(probed.count, expected);
            prop_assert_eq!(probed.comparisons, xs.len().min(ys.len()) as u64);

            let expected_excl = xs
                .intersection(&ys)
                .filter(|&&x| x != exclude)
                .count() as u64;
            prop_assert_eq!(intersection_count_excluding(&a, &b, exclude).count, expected_excl);
        }
    }
}
