//! Frozen CSR counting snapshots.
//!
//! The per-edge counting phase dominates ABACUS/PARABACUS runtime
//! (Algorithm 1 line 9), and every intersection against a hash-backed sample
//! pays one pointer-chasing probe per candidate.  [`CsrSnapshot`] is an
//! immutable-by-convention, cache-resident mirror of the bounded edge sample:
//! per side, one dense offsets table plus one contiguous arena of **sorted**
//! neighbor ids, with vertex ids interned into dense slots.  All
//! intersections of a counting phase then run over flat sorted slices using
//! the adaptive kernels of [`crate::intersect`] — two-pointer merge for
//! comparable sizes, galloping search for heavily skewed ones — instead of
//! hashing once per probe.
//!
//! # Incremental maintenance
//!
//! Rebuilding the snapshot from scratch after every sample mutation would
//! cost O(sample) per stream element.  Instead the snapshot absorbs each
//! mutation as a *row patch*: the first change to a vertex copies its frozen
//! arena row into a side table of sorted `Vec<u32>` rows (its interned slot
//! is repointed at the patch), and later changes edit the patch in place.
//! Reads see patched rows transparently; they are still sorted and
//! contiguous, merely outside the arena.  When churn exceeds a threshold
//! (more than ~¼ of a side's rows patched), the side is compacted: one O(rows +
//! entries) pass folds every patch back into a fresh arena, so the O(sample)
//! rebuild cost is only paid once per ~25% of rows churned, not per
//! mutation.
//!
//! # Exactness
//!
//! [`CsrSnapshot`] implements [`NeighborhoodView`] with the *probe model*
//! `comparisons` accounting of the paper (the size of the smaller operand
//! after exclusions), regardless of which sorted kernel actually ran.  A
//! snapshot that mirrors a sample therefore reports bit-identical butterfly
//! counts *and* bit-identical comparison counters — the per-thread workload
//! numbers of Fig. 10 and ABACUS/PARABACUS work parity do not depend on
//! whether counting ran against the hash-backed sample or the snapshot.

use crate::edge::Edge;
use crate::fxhash::FxHashMap;
use crate::intersect::{sorted_contains, sorted_intersection_excluding, IntersectionResult};
use crate::peredge::NeighborhoodView;
use crate::vertex::{Side, VertexRef};

/// Compact a side once more than `rows / COMPACT_FRACTION + COMPACT_BASE`
/// of its rows carry patches.
const COMPACT_FRACTION: usize = 4;
/// Flat allowance of patched rows before fractional churn kicks in, so tiny
/// samples do not compact on every mutation.
const COMPACT_BASE: usize = 16;

/// A vertex's current row: frozen in the arena, or patched out-of-line.
///
/// The patched vector lives *inline in the index value*, so every read —
/// degree, row slice, membership — is exactly one hash lookup whether or not
/// the row has been patched since the last compaction.  This matters because
/// patches concentrate on hot hubs, which are also the rows the counting
/// kernels touch most.
#[derive(Debug, Clone)]
enum Row {
    /// Arena offset + length of the frozen row.
    Frozen { start: u32, len: u32 },
    /// Sorted row that changed since the last compaction (authoritative).
    Patched(Vec<u32>),
}

/// One side (left or right) of the snapshot: an interned row index plus the
/// sorted neighbor arena.
#[derive(Debug, Clone, Default)]
struct CsrSide {
    index: FxHashMap<u32, Row>,
    /// Concatenated sorted neighbor rows.
    arena: Vec<u32>,
    /// Number of `Row::Patched` entries in `index`.
    patched: usize,
}

impl CsrSide {
    /// The current (possibly patched) sorted neighbor row of `v`; empty when
    /// the vertex is absent.
    #[inline]
    fn row(&self, v: u32) -> &[u32] {
        match self.index.get(&v) {
            Some(&Row::Frozen { start, len }) => {
                &self.arena[start as usize..(start + len) as usize]
            }
            Some(Row::Patched(row)) => row,
            None => &[],
        }
    }

    /// Degree of `v` without touching the arena.
    #[inline]
    fn degree(&self, v: u32) -> usize {
        match self.index.get(&v) {
            Some(&Row::Frozen { len, .. }) => len as usize,
            Some(Row::Patched(row)) => row.len(),
            None => 0,
        }
    }

    /// The patch row of `v`, cloning its frozen arena row on first touch.
    fn patch_row(&mut self, v: u32) -> &mut Vec<u32> {
        let arena = &self.arena;
        let patched = &mut self.patched;
        let entry = self.index.entry(v).or_insert_with(|| {
            *patched += 1;
            Row::Patched(Vec::with_capacity(4))
        });
        if let Row::Frozen { start, len } = *entry {
            // Pre-size past the frozen length: a row being patched is
            // usually about to grow, and the headroom absorbs the next few
            // insertions without reallocating.
            let mut copy = Vec::with_capacity(len as usize + 4);
            copy.extend_from_slice(&arena[start as usize..(start + len) as usize]);
            *entry = Row::Patched(copy);
            *patched += 1;
        }
        match entry {
            Row::Patched(row) => row,
            // lint:allow(panic-policy): the branch above just replaced every Frozen row with Patched; surviving Frozen is a bug worth crashing on
            Row::Frozen { .. } => unreachable!("frozen row survived patching"),
        }
    }

    /// Applies one adjacency change to `v`'s row.
    fn apply(&mut self, v: u32, neighbor: u32, added: bool) {
        let row = self.patch_row(v);
        match row.binary_search(&neighbor) {
            Ok(pos) => {
                debug_assert!(!added, "snapshot add of an already present pair");
                if !added {
                    row.remove(pos);
                }
            }
            Err(pos) => {
                debug_assert!(added, "snapshot removal of an absent pair");
                if added {
                    row.insert(pos, neighbor);
                }
            }
        }
    }

    /// Whether accumulated churn justifies folding the patches back into a
    /// fresh arena.
    fn should_compact(&self) -> bool {
        self.patched > COMPACT_BASE + self.index.len() / COMPACT_FRACTION
    }

    /// Rebuilds the arena from the union of frozen and patched rows,
    /// dropping empty rows; O(rows log rows + entries).
    fn compact(&mut self) {
        let mut ids: Vec<u32> = self
            .index
            .iter()
            .filter(|(_, row)| match row {
                Row::Frozen { .. } => true,
                Row::Patched(patch) => !patch.is_empty(),
            })
            .map(|(&id, _)| id)
            .collect();
        // Deterministic arena layout (tests compare snapshots structurally).
        ids.sort_unstable();

        let mut arena = Vec::with_capacity(self.arena.len());
        let mut index = crate::fxhash::fx_hashmap_with_capacity(ids.len());
        for &id in &ids {
            let row = self.row(id);
            // lint:allow(panic-policy): the budget bounds the sample well under u32::MAX entries; overflow means the budget invariant broke
            let start = u32::try_from(arena.len()).expect("snapshot arena exceeds u32 range");
            // lint:allow(panic-policy): a row is at most the budget-bounded sample size, far under u32::MAX
            let len = u32::try_from(row.len()).expect("snapshot row exceeds u32 range");
            arena.extend_from_slice(row);
            index.insert(id, Row::Frozen { start, len });
        }
        self.arena = arena;
        self.index = index;
        self.patched = 0;
    }

    /// Entries resident on this side: the frozen arena plus every patch row
    /// (superseded arena rows stay allocated until the next compaction, so
    /// they count too).
    fn resident_entries(&self) -> usize {
        self.arena.len()
            + self
                .index
                .values()
                .map(|row| match row {
                    Row::Frozen { .. } => 0,
                    Row::Patched(patch) => patch.len(),
                })
                .sum::<usize>()
    }

    /// Approximate heap footprint in bytes.
    fn heap_bytes(&self) -> usize {
        let patch_rows: usize = self
            .index
            .values()
            .map(|row| match row {
                Row::Frozen { .. } => 0,
                Row::Patched(patch) => patch.capacity() * size_of::<u32>(),
            })
            .sum();
        self.arena.capacity() * size_of::<u32>()
            + self.index.capacity() * (size_of::<Row>() + 5)
            + patch_rows
    }
}

/// A frozen CSR mirror of a bounded bipartite edge sample.
///
/// Build one with [`CsrSnapshot::new`] and keep it in lock-step with the
/// sample by calling [`apply`](Self::apply) for every edge
/// insertion/removal, or rebuild wholesale with
/// [`from_edges`](Self::from_edges).  Counting code treats it as a
/// [`NeighborhoodView`].
///
/// ```
/// use abacus_graph::csr::CsrSnapshot;
/// use abacus_graph::{count_butterflies_with_edge, Edge};
///
/// let snapshot =
///     CsrSnapshot::from_edges([(0, 11), (1, 10), (1, 11)].map(|(l, r)| Edge::new(l, r)));
/// let count = count_butterflies_with_edge(&snapshot, Edge::new(0, 10));
/// assert_eq!(count.butterflies, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrSnapshot {
    left: CsrSide,
    right: CsrSide,
    edges: usize,
}

impl CsrSnapshot {
    /// Creates an empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a compacted snapshot holding exactly `edges`.
    #[must_use]
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut snapshot = CsrSnapshot::new();
        for edge in edges {
            snapshot.apply(edge, true);
        }
        snapshot.compact();
        snapshot
    }

    /// Number of edges mirrored by the snapshot.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Mirrors one sample mutation (`added == true` for an insertion), and
    /// compacts the churned side(s) once the patch threshold is crossed.
    pub fn apply(&mut self, edge: Edge, added: bool) {
        self.left.apply(edge.left, edge.right, added);
        self.right.apply(edge.right, edge.left, added);
        if added {
            self.edges += 1;
        } else {
            debug_assert!(self.edges > 0, "snapshot removal from an empty snapshot");
            self.edges = self.edges.saturating_sub(1);
        }
        if self.left.should_compact() {
            self.left.compact();
        }
        if self.right.should_compact() {
            self.right.compact();
        }
    }

    /// Folds all outstanding patches back into fresh arenas immediately.
    pub fn compact(&mut self) {
        self.left.compact();
        self.right.compact();
    }

    /// Number of rows currently served from patches (0 right after a
    /// compaction).
    #[must_use]
    pub fn patched_rows(&self) -> usize {
        self.left.patched + self.right.patched
    }

    /// The current sorted neighbor row of a vertex (empty when absent).
    #[inline]
    #[must_use]
    pub fn row(&self, v: VertexRef) -> &[u32] {
        match v.side {
            Side::Left => self.left.row(v.id),
            Side::Right => self.right.row(v.id),
        }
    }

    /// Total `u32` entries resident across both sides' arenas and patch
    /// tables — the quantity charged (in edge equivalents) by the estimators'
    /// `memory_edges` accounting.
    #[must_use]
    pub fn resident_entries(&self) -> usize {
        self.left.resident_entries() + self.right.resident_entries()
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.left.heap_bytes() + self.right.heap_bytes()
    }
}

impl NeighborhoodView for CsrSnapshot {
    #[inline]
    fn view_degree(&self, v: VertexRef) -> usize {
        match v.side {
            Side::Left => self.left.degree(v.id),
            Side::Right => self.right.degree(v.id),
        }
    }

    #[inline]
    fn view_contains(&self, v: VertexRef, neighbor: u32) -> bool {
        sorted_contains(self.row(v), neighbor)
    }

    #[inline]
    fn view_for_each_neighbor(&self, v: VertexRef, f: &mut dyn FnMut(u32)) {
        for &n in self.row(v) {
            f(n);
        }
    }

    #[inline]
    fn view_intersection_excluding(
        &self,
        a: VertexRef,
        b: VertexRef,
        exclude: u32,
    ) -> IntersectionResult {
        // One fused pass: the kernel picks the smaller operand exactly like
        // the hash kernels and reports probe-model comparisons, so the
        // numbers are bit-identical to the hash path.
        sorted_intersection_excluding(self.row(a), self.row(b), exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteGraph;
    use crate::count_butterflies_with_edge;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn edge(l: u32, r: u32) -> Edge {
        Edge::new(l, r)
    }

    #[test]
    fn rows_are_sorted_and_mirror_insertions_and_removals() {
        let mut snap = CsrSnapshot::new();
        for &(l, r) in &[(1, 20), (1, 10), (1, 30), (2, 10)] {
            snap.apply(edge(l, r), true);
        }
        assert_eq!(snap.num_edges(), 4);
        assert_eq!(snap.row(VertexRef::left(1)), &[10, 20, 30]);
        assert_eq!(snap.row(VertexRef::right(10)), &[1, 2]);
        snap.apply(edge(1, 20), false);
        assert_eq!(snap.row(VertexRef::left(1)), &[10, 30]);
        assert_eq!(snap.num_edges(), 3);
        assert!(snap.row(VertexRef::left(99)).is_empty());
    }

    #[test]
    fn compaction_preserves_rows_and_clears_patches() {
        let mut snap = CsrSnapshot::new();
        for l in 0..10u32 {
            for r in 0..5u32 {
                snap.apply(edge(l, 100 + r), true);
            }
        }
        snap.apply(edge(3, 100), false);
        assert!(snap.patched_rows() > 0);
        let rows_before: Vec<Vec<u32>> = (0..10)
            .map(|l| snap.row(VertexRef::left(l)).to_vec())
            .collect();
        snap.compact();
        assert_eq!(snap.patched_rows(), 0);
        for (l, want) in rows_before.iter().enumerate() {
            assert_eq!(snap.row(VertexRef::left(l as u32)), &want[..]);
        }
        // Rows emptied by removals disappear from the arena entirely.
        for r in 0..5u32 {
            snap.apply(edge(7, 100 + r), false);
        }
        snap.compact();
        assert!(snap.row(VertexRef::left(7)).is_empty());
        assert_eq!(snap.num_edges(), 10 * 5 - 1 - 5);
    }

    #[test]
    fn churn_triggers_automatic_compaction() {
        let mut snap = CsrSnapshot::new();
        // Enough distinct left vertices that the patch threshold
        // (COMPACT_BASE + rows/4) is crossed while inserting.
        for l in 0..200u32 {
            snap.apply(edge(l, 0), true);
        }
        assert!(
            snap.patched_rows() < 200,
            "patches were never folded back: {}",
            snap.patched_rows()
        );
        // Every row is still correct after the automatic compactions.
        for l in 0..200u32 {
            assert_eq!(snap.row(VertexRef::left(l)), &[0]);
        }
        assert_eq!(snap.row(VertexRef::right(0)).len(), 200);
    }

    #[test]
    fn intersection_matches_probe_model_comparisons() {
        let snap = CsrSnapshot::from_edges(
            (0..40u32)
                .map(|l| edge(l, 1))
                .chain((20..100u32).map(|l| edge(l, 2))),
        );
        let r1 = VertexRef::right(1);
        let r2 = VertexRef::right(2);
        let result = snap.view_intersection_excluding(r1, r2, 25);
        assert_eq!(result.count, 19); // overlap 20..40 minus the excluded 25
        assert_eq!(result.comparisons, 39); // |small| − 1 excluded member
        let result = snap.view_intersection_excluding(r1, r2, 1_000);
        assert_eq!(result.count, 20);
        assert_eq!(result.comparisons, 40);
        // Absent operand: zero work, zero count.
        let absent = snap.view_intersection_excluding(r1, VertexRef::right(9), 0);
        assert_eq!(absent, IntersectionResult::default());
    }

    #[test]
    fn butterfly_kernel_runs_against_the_snapshot() {
        let edges = [(0, 11), (1, 10), (1, 11)].map(|(l, r)| edge(l, r));
        let snap = CsrSnapshot::from_edges(edges);
        let graph = BipartiteGraph::from_edges(edges);
        let via_snapshot = count_butterflies_with_edge(&snap, edge(0, 10));
        let via_graph = count_butterflies_with_edge(&graph, edge(0, 10));
        assert_eq!(via_snapshot.butterflies, via_graph.butterflies);
        assert_eq!(via_snapshot.butterflies, 1);
    }

    #[test]
    fn accounting_reports_resident_entries_and_bytes() {
        let snap = CsrSnapshot::from_edges((0..50u32).map(|l| edge(l, l % 5)));
        // Each edge appears once per side.
        assert_eq!(snap.resident_entries(), 100);
        assert!(snap.heap_bytes() >= 100 * size_of::<u32>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under random insert/remove streams (with interleaved forced
        /// compactions) the snapshot reports exactly the reference adjacency,
        /// degrees, membership, and intersections.
        #[test]
        fn mirrors_a_reference_graph(
            ops in proptest::collection::vec((any::<bool>(), 0u32..8, 0u32..8), 1..300),
            compact_every in 1usize..50,
        ) {
            let mut snap = CsrSnapshot::new();
            let mut reference: BTreeSet<(u32, u32)> = BTreeSet::new();
            for (step, (insert, l, r)) in ops.into_iter().enumerate() {
                if insert {
                    if reference.insert((l, r)) {
                        snap.apply(edge(l, r), true);
                    }
                } else if reference.remove(&(l, r)) {
                    snap.apply(edge(l, r), false);
                }
                if step % compact_every == 0 {
                    snap.compact();
                }
                prop_assert_eq!(snap.num_edges(), reference.len());
            }
            for l in 0..8u32 {
                let want: Vec<u32> = reference
                    .iter()
                    .filter(|&&(a, _)| a == l)
                    .map(|&(_, b)| b)
                    .collect();
                prop_assert_eq!(snap.row(VertexRef::left(l)), &want[..]);
                prop_assert_eq!(snap.view_degree(VertexRef::left(l)), want.len());
                for r in 0..8u32 {
                    prop_assert_eq!(
                        snap.view_contains(VertexRef::left(l), r),
                        reference.contains(&(l, r))
                    );
                }
            }
            for r in 0..8u32 {
                let want: Vec<u32> = reference
                    .iter()
                    .filter(|&&(_, b)| b == r)
                    .map(|&(a, _)| a)
                    .collect();
                prop_assert_eq!(snap.row(VertexRef::right(r)), &want[..]);
            }
        }
    }
}
