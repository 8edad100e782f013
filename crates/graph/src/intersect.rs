//! Set-intersection kernels.
//!
//! Finding the common neighbors of two vertices is the inner loop of butterfly
//! counting (Algorithm 1, line 9 of the paper).  The cost of intersecting two
//! neighbor sets is proportional to the size of the smaller set when the
//! larger one supports O(1) membership probes, which is why ABACUS picks the
//! "cheapest side" before intersecting.
//!
//! Two kernel families are provided:
//!
//! * [`intersection_count`] / [`intersection_count_excluding`] — the probe
//!   kernel, the only intersection over [`AdjacencySet`]s: iterate the
//!   smaller set and probe the larger one.  Comparably sized hubs are not
//!   merged over sorted copies: the `intersect` micro-benchmark favours the
//!   merge only because its slices are already sorted, while sequential
//!   ABACUS mutates its sample after almost every element, and each
//!   mutation forces a re-sort that costs more than the merge saves,
//! * the **sorted-slice kernels** powering the frozen CSR counting snapshot
//!   ([`crate::csr::CsrSnapshot`]): [`sorted_merge_count`] for comparable
//!   sizes, [`sorted_gallop_count`] for heavily skewed sizes, and
//!   [`sorted_adaptive_count`] / [`sorted_intersection_excluding`], which
//!   dispatch between them at a fixed size ratio.
//!   [`sorted_merge_intersection_count`] is the bare two-pointer merge, kept
//!   as an ablation target for the micro-benchmarks.
//!
//! Every kernel except the ablation reports `comparisons` under the *probe
//! model* of the paper — the number of membership probes the probe kernel
//! performs, i.e. the size of the smaller set after exclusions — regardless
//! of which code path actually ran.  This keeps the per-thread workload
//! counters of the load-balance experiment (Fig. 10) — and PARABACUS/ABACUS
//! work parity — independent of kernel selection.  Only
//! [`sorted_merge_intersection_count`] reports its literal pointer advances,
//! since measuring those is the point of the ablation.

use crate::adjacency::AdjacencySet;

/// Over sorted slices, switch from the two-pointer merge to galloping
/// (exponential) search once the larger side exceeds this multiple of the
/// smaller one.
///
/// The nominal cost model (merge advances `|small| + |large|` cursors, gallop
/// pays ~`log₂(ratio) + 2` probes per small element) puts the break-even near
/// ratio 4, but the measured picture is different: on the committed
/// `BENCH_intersect.json` workloads the branchy merge runs at 527–586 ns/op
/// through ratio 64 while the gallop needs 946–969 ns/op at those same
/// ratios — per-element galloping mispredicts its doubling loop and forfeits
/// the merge's sequential prefetching.  The cutover therefore sits at 128:
/// galloping is reserved for the extreme-skew regime (a handful of elements
/// against a multi-thousand-entry hub slice) where its O(|small|·log) bound
/// actually wins.
const GALLOP_SIZE_RATIO: usize = 128;

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
    probe_excluding(small, large, exclude)
}

/// The probe loop shared by [`intersection_count_excluding`] and
/// [`slice_probe_excluding`]: every element of `small` other than `exclude`
/// costs one probe of `large`.
#[inline]
fn probe_excluding(
    small: impl IntoIterator<Item = u32>,
    large: &AdjacencySet,
    exclude: u32,
) -> IntersectionResult {
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

/// Collects `a ∩ b \ {exclude}` into `out` (cleared first).
///
/// Used where the identity of the fourth butterfly vertex matters (per-edge
/// butterfly *enumeration*, e.g. for the bitruss-style extension), as opposed
/// to plain counting.
pub fn intersect_into(a: &AdjacencySet, b: &AdjacencySet, exclude: u32, out: &mut Vec<u32>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    for x in small {
        if x != exclude && large.contains(x) {
            out.push(x);
        }
    }
}

/// Two-pointer intersection count over sorted slices (ablation kernel).
#[must_use]
pub fn sorted_merge_intersection_count(a: &[u32], b: &[u32]) -> IntersectionResult {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "input a must be sorted");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "input b must be sorted");
    let mut i = 0;
    let mut j = 0;
    let mut count = 0u64;
    let mut comparisons = 0u64;
    while i < a.len() && j < b.len() {
        comparisons += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    IntersectionResult { count, comparisons }
}

/// First index `>= from` whose element is `>= target`, found by galloping:
/// double the step until the element is overshot, then binary-search the last
/// doubled window.  O(log distance) instead of O(log len), which is what
/// makes repeated searches with an advancing cursor linear overall.
#[inline]
fn gallop_lower_bound(slice: &[u32], from: usize, target: u32) -> usize {
    if from >= slice.len() || slice[from] >= target {
        return from;
    }
    // Invariant: slice[lo] < target.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < slice.len() && slice[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(slice.len());
    lo + 1 + slice[lo + 1..hi].partition_point(|&v| v < target)
}

/// Match count over strictly ascending slices by galloping the larger slice
/// with the elements of the smaller one.
///
/// The cursor into `large` only moves forward, so the total gallop work is
/// O(|small| · log(|large| / |small|)) — the right kernel when the operand
/// sizes are heavily skewed.
#[inline]
#[must_use]
pub fn sorted_gallop_count(small: &[u32], large: &[u32]) -> u64 {
    debug_assert!(
        small.windows(2).all(|w| w[0] < w[1]),
        "input small must be sorted"
    );
    debug_assert!(
        large.windows(2).all(|w| w[0] < w[1]),
        "input large must be sorted"
    );
    let mut cursor = 0usize;
    let mut count = 0u64;
    for &x in small {
        cursor = gallop_lower_bound(large, cursor, x);
        if cursor == large.len() {
            break;
        }
        if large[cursor] == x {
            count += 1;
            cursor += 1;
        }
    }
    count
}

/// Classic two-pointer match count over strictly ascending slices (count
/// only, no comparison accounting).
#[inline]
#[must_use]
pub fn sorted_merge_count(a: &[u32], b: &[u32]) -> u64 {
    let mut i = 0usize;
    let mut j = 0usize;
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Adaptive match count over strictly ascending slices: two-pointer merge
/// for comparable sizes, galloping search once the larger slice is more than
/// 128 times the smaller one.
#[inline]
#[must_use]
pub fn sorted_adaptive_count(a: &[u32], b: &[u32]) -> u64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() > small.len().saturating_mul(GALLOP_SIZE_RATIO) {
        sorted_gallop_count(small, large)
    } else {
        sorted_merge_count(small, large)
    }
}

/// Binary-search membership probe over a strictly ascending slice.
#[inline]
#[must_use]
pub fn sorted_contains(slice: &[u32], x: u32) -> bool {
    slice.binary_search(&x).is_ok()
}

/// Adaptive `|a ∩ b \ {exclude}|` over strictly ascending slices with the
/// probe-model `comparisons` of the production kernels.  The gallop branch
/// folds the `exclude` bookkeeping into its scan; the merge branch pays one
/// extra O(log |small|) membership search up front.
///
/// This is the kernel the frozen CSR snapshot runs per wedge, with the
/// cutover of [`sorted_adaptive_count`].
#[inline]
#[must_use]
pub fn sorted_intersection_excluding(a: &[u32], b: &[u32], exclude: u32) -> IntersectionResult {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return IntersectionResult::default();
    }
    let (count, excluded_from_small) =
        if large.len() > small.len().saturating_mul(GALLOP_SIZE_RATIO) {
            gallop_excluding(small, large, exclude)
        } else {
            merge_excluding(small, large, exclude)
        };
    IntersectionResult {
        count,
        // Probe model: the probe kernel iterates the smaller operand and
        // skips `exclude` without probing.
        comparisons: small.len() as u64 - u64::from(excluded_from_small),
    }
}

/// Two-pointer merge counting matches other than `exclude`; also reports
/// whether `exclude` is a member of `small`.  (The three-way-branch shape
/// measured 2.7× faster on x86 than an arithmetic-advance "branchless" loop:
/// its branches are well predicted on sorted inputs.)
#[inline]
fn merge_excluding(small: &[u32], large: &[u32], exclude: u32) -> (u64, bool) {
    let excluded = sorted_contains(small, exclude);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut count = 0u64;
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += u64::from(small[i] != exclude);
                i += 1;
                j += 1;
            }
        }
    }
    (count, excluded)
}

/// Counts `|small ∩ large \ {exclude}|` by iterating a sorted slice and
/// probing an [`AdjacencySet`], with probe-model comparisons.
///
/// This is the skew kernel of the hybrid snapshot view: a contiguous slice
/// walk feeding O(1) expected hash probes beats both a full merge (which
/// must advance through the huge operand) and galloping (O(log) per probe)
/// once the larger side is a hash-backed hub many times the smaller one.
#[inline]
#[must_use]
pub fn slice_probe_excluding(
    small: &[u32],
    large: &AdjacencySet,
    exclude: u32,
) -> IntersectionResult {
    probe_excluding(small.iter().copied(), large, exclude)
}

/// Gallop counting matches other than `exclude`; also reports whether
/// `exclude` is a member of `small`.
#[inline]
fn gallop_excluding(small: &[u32], large: &[u32], exclude: u32) -> (u64, bool) {
    let mut cursor = 0usize;
    let mut count = 0u64;
    let mut excluded = false;
    for &x in small {
        if x == exclude {
            excluded = true;
            continue;
        }
        if cursor == large.len() {
            continue; // still must finish scanning `small` for `exclude`
        }
        cursor = gallop_lower_bound(large, cursor, x);
        if cursor < large.len() && large[cursor] == x {
            count += 1;
            cursor += 1;
        }
    }
    (count, excluded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
    fn intersect_into_collects_members() {
        let a = set(&[1, 2, 3, 4, 7]);
        let b = set(&[2, 4, 7, 9]);
        let mut out = Vec::new();
        intersect_into(&a, &b, 4, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![2, 7]);
    }

    #[test]
    fn sorted_merge_with_one_empty_side_is_free() {
        let r = sorted_merge_intersection_count(&[], &[1, 2, 3]);
        assert_eq!(r.count, 0);
        assert_eq!(r.comparisons, 0);
        let r = sorted_merge_intersection_count(&[1, 2, 3], &[]);
        assert_eq!(r.count, 0);
        assert_eq!(r.comparisons, 0);
        let r = sorted_merge_intersection_count(&[], &[]);
        assert_eq!(r, IntersectionResult::default());
    }

    #[test]
    fn sorted_merge_with_identical_inputs_matches_everything() {
        let v: Vec<u32> = (0..50).collect();
        let r = sorted_merge_intersection_count(&v, &v);
        assert_eq!(r.count, 50);
        assert_eq!(r.comparisons, 50); // every advance is a match
    }

    #[test]
    fn sorted_merge_comparisons_are_bounded_by_total_length() {
        let a: Vec<u32> = (0..40).map(|x| x * 2).collect(); // evens
        let b: Vec<u32> = (0..40).map(|x| x * 2 + 1).collect(); // odds
        let r = sorted_merge_intersection_count(&a, &b);
        assert_eq!(r.count, 0);
        assert!(r.comparisons <= (a.len() + b.len()) as u64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be sorted")]
    fn sorted_merge_rejects_duplicates_in_debug_builds() {
        // The duplicate-free (strictly ascending) invariant is enforced by a
        // debug assertion; `w[0] < w[1]` fails on the repeated 2.
        let _ = sorted_merge_intersection_count(&[1, 2, 2, 3], &[2]);
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
    fn sorted_merge_matches_hash_probe() {
        let a = set(&[1, 5, 9, 11, 20]);
        let b = set(&[5, 9, 10, 20, 30]);
        let merged = sorted_merge_intersection_count(&a.to_sorted_vec(), &b.to_sorted_vec());
        assert_eq!(merged.count, intersection_count(&a, &b).count);
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

    #[test]
    fn gallop_agrees_with_the_classic_merge() {
        let a: Vec<u32> = (0..200).map(|x| x * 3).collect();
        let b: Vec<u32> = (0..400).map(|x| x * 2).collect();
        let expected = sorted_merge_intersection_count(&a, &b).count;
        assert_eq!(sorted_gallop_count(&a, &b), expected);
        assert_eq!(sorted_adaptive_count(&a, &b), expected);
        // Empty operands are free on every kernel.
        assert_eq!(sorted_gallop_count(&[], &b), 0);
        assert_eq!(sorted_gallop_count(&a, &[]), 0);
        assert_eq!(sorted_adaptive_count(&[], &[]), 0);
    }

    #[test]
    fn gallop_lower_bound_walks_forward_only() {
        let v: Vec<u32> = (0..100).map(|x| x * 2).collect();
        assert_eq!(gallop_lower_bound(&v, 0, 0), 0);
        assert_eq!(gallop_lower_bound(&v, 0, 1), 1);
        assert_eq!(gallop_lower_bound(&v, 0, 198), 99);
        assert_eq!(gallop_lower_bound(&v, 0, 500), 100); // past the end
        assert_eq!(gallop_lower_bound(&v, 50, 10), 50); // never moves backwards
        assert_eq!(gallop_lower_bound(&[], 0, 7), 0);
    }

    #[test]
    fn adaptive_count_picks_gallop_for_skewed_sizes() {
        // 4 vs 4096 elements: ratio far beyond the gallop cutover; the result
        // must be identical either way.
        let small: Vec<u32> = vec![5, 1_000, 2_000, 4_095];
        let large: Vec<u32> = (0..4_096).collect();
        assert!(large.len() > small.len() * GALLOP_SIZE_RATIO);
        assert_eq!(sorted_adaptive_count(&small, &large), 4);
        // The merge path gives the same count.
        assert_eq!(sorted_merge_count(&small, &large), 4);
    }

    #[test]
    fn sorted_contains_probes_by_binary_search() {
        let v: Vec<u32> = (0..50).map(|x| x * 2).collect();
        assert!(sorted_contains(&v, 0));
        assert!(sorted_contains(&v, 98));
        assert!(!sorted_contains(&v, 99));
        assert!(!sorted_contains(&[], 1));
    }

    proptest! {
        /// The sorted-slice kernels (classic merge, gallop, adaptive) all
        /// agree with the BTreeSet reference on random inputs, and the fused
        /// excluding kernel — through either branch — matches the probe
        /// kernel's count and probe-model comparisons exactly.
        #[test]
        fn sorted_kernels_agree_on_random_slices(
            xs in proptest::collection::btree_set(0u32..600, 0..250),
            ys in proptest::collection::btree_set(0u32..600, 0..250),
            exclude in 0u32..600,
        ) {
            let a: Vec<u32> = xs.iter().copied().collect();
            let b: Vec<u32> = ys.iter().copied().collect();
            let expected = xs.intersection(&ys).count() as u64;
            prop_assert_eq!(sorted_merge_count(&a, &b), expected);
            prop_assert_eq!(sorted_gallop_count(&a, &b), expected);
            prop_assert_eq!(sorted_gallop_count(&b, &a), expected);
            prop_assert_eq!(sorted_adaptive_count(&a, &b), expected);

            let sa: AdjacencySet = xs.iter().copied().collect();
            let sb: AdjacencySet = ys.iter().copied().collect();
            let want = intersection_count_excluding(&sa, &sb, exclude);
            prop_assert_eq!(sorted_intersection_excluding(&a, &b, exclude), want);
            prop_assert_eq!(sorted_intersection_excluding(&b, &a, exclude), want);
            let (small, large) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
            for (count, excluded) in [
                gallop_excluding(small, large, exclude),
                merge_excluding(small, large, exclude),
            ] {
                prop_assert_eq!(
                    IntersectionResult {
                        count,
                        comparisons: small.len() as u64 - u64::from(excluded),
                    },
                    want
                );
            }
        }

        #[test]
        fn matches_btreeset_reference(
            xs in proptest::collection::btree_set(0u32..500, 0..200),
            ys in proptest::collection::btree_set(0u32..500, 0..200),
            exclude in 0u32..500,
        ) {
            let a: AdjacencySet = xs.iter().copied().collect();
            let b: AdjacencySet = ys.iter().copied().collect();
            let expected = xs.intersection(&ys).count() as u64;
            prop_assert_eq!(intersection_count(&a, &b).count, expected);

            let expected_excl = xs
                .intersection(&ys)
                .filter(|&&x| x != exclude)
                .count() as u64;
            prop_assert_eq!(intersection_count_excluding(&a, &b, exclude).count, expected_excl);

            let mut out = Vec::new();
            intersect_into(&a, &b, exclude, &mut out);
            let got: BTreeSet<u32> = out.into_iter().collect();
            let want: BTreeSet<u32> =
                xs.intersection(&ys).copied().filter(|&x| x != exclude).collect();
            prop_assert_eq!(got, want);

            let av = a.to_sorted_vec();
            let bv = b.to_sorted_vec();
            prop_assert_eq!(sorted_merge_intersection_count(&av, &bv).count, expected);
        }

        /// The sorted-merge kernel agrees with `intersection_count` on random
        /// sets of every size class (Small/Small, Small/Large, Large/Large),
        /// and the production kernels' probe-model comparisons depend only on
        /// the smaller operand regardless of which path ran.
        #[test]
        fn sorted_merge_agrees_with_production_kernel(
            xs in proptest::collection::btree_set(0u32..400, 0..120),
            ys in proptest::collection::btree_set(0u32..400, 0..120),
        ) {
            let a: AdjacencySet = xs.iter().copied().collect();
            let b: AdjacencySet = ys.iter().copied().collect();
            let av: Vec<u32> = xs.iter().copied().collect();
            let bv: Vec<u32> = ys.iter().copied().collect();
            let merged = sorted_merge_intersection_count(&av, &bv);
            let probed = intersection_count(&a, &b);
            prop_assert_eq!(merged.count, probed.count);
            prop_assert_eq!(probed.comparisons, xs.len().min(ys.len()) as u64);
            prop_assert!(merged.comparisons <= (xs.len() + ys.len()) as u64);
        }
    }
}
