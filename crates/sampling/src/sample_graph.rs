//! The bounded edge sample stored as a bipartite graph.
//!
//! ABACUS refines its estimate by intersecting neighbor sets *inside the
//! sample*, so the sample cannot be a flat edge list: it is a small bipartite
//! graph with adjacency sets, plus a dense edge vector and an edge→slot index
//! so that the Random Pairing policy can evict a uniformly random edge in
//! O(1).
//!
//! # Memory layout (interned struct-of-arrays)
//!
//! Adjacency state lives in two per-side `SideTable`s.  Each table interns
//! the raw stream vertex ids into dense `u32` indexes and keeps the actual
//! neighbor sets in a contiguous slab:
//!
//! * `ids: raw → dense` — a small-entry (8-byte) hash map, probed once per
//!   vertex resolution,
//! * `raw: dense → raw` — the reverse array, so snapshots can serialize the
//!   interner exactly,
//! * `adj: dense → AdjacencySet` — the slab; neighbor sets store **raw**
//!   opposite-side ids, so membership probes and intersections never pay a
//!   second interner lookup,
//! * `free` — a LIFO list of dense slots whose vertex left the sample; a
//!   future vertex reuses the slot *and* its inline `Vec` allocation.
//!
//! Compared to the previous `FxHashMap<u32, AdjacencySet>` layout this
//! removes the ~64-byte-per-bucket hash table (half of it empty by load
//! factor) in favour of an 8-byte-entry map plus a dense slab, and recycles
//! allocations when vertices churn.  The interner is pure layout: estimates,
//! sampler state, RNG consumption, and probe-model `comparisons` are
//! bit-identical to the hash layout, because neighbor sets hold exactly the
//! same raw values, the edge vector keeps the same slot order, and kernels
//! see the same operands.
//!
//! [`SampleGraph`] implements both [`SampleStore`] (so the sampling policy
//! can drive it) and [`NeighborhoodView`] (so the
//! per-edge butterfly kernel can query it).

use crate::store::SampleStore;
use abacus_graph::adjacency::AdjacencySet;
use abacus_graph::persist::{Decoder, Encoder, PersistError};
use abacus_graph::{Edge, EdgeKey, FxHashMap, NeighborhoodView, Side, VertexRef};
use rand::{Rng, RngExt};

/// First word of a [`SampleGraph::encode_state`] payload in the interned
/// format.  The legacy (pre-interning) format opened with the edge count,
/// which is bounded by memory, so `usize::MAX` is unambiguous.
const SOA_SAMPLE_MARKER: usize = usize::MAX;

/// Version byte following [`SOA_SAMPLE_MARKER`].  Version 1 followed every
/// hash-promoted vertex id with a byte saying whether the set's memoised
/// sorted copy was built; version 2 dropped the sorted copies and the byte.
const SOA_SAMPLE_VERSION: u8 = 2;

/// Canonical value written for the reverse-array entry of a freed dense
/// slot.  The live value is stale history and irrelevant to behavior, so the
/// codec canonicalizes it to keep save → restore → save byte-identical.
/// (The free list, not this sentinel, is the authority on which slots are
/// free: a live vertex whose raw id happens to be `u32::MAX` is fine.)
const FREED_SLOT_RAW: u32 = u32::MAX;

/// One side's interned adjacency state: raw↔dense id tables plus the dense
/// slab of neighbor sets.  See the module docs for the layout rationale.
#[derive(Debug, Clone, Default)]
struct SideTable {
    /// Raw stream id → dense slot index.
    ids: FxHashMap<u32, u32>,
    /// Dense slot index → raw stream id (stale for freed slots).
    raw: Vec<u32>,
    /// Dense slab of neighbor sets (neighbors are raw opposite-side ids).
    adj: Vec<AdjacencySet>,
    /// Freed dense slots, reused LIFO so a recycled slot is still cache-warm.
    free: Vec<u32>,
}

impl SideTable {
    #[inline]
    fn get(&self, raw: u32) -> Option<&AdjacencySet> {
        self.ids.get(&raw).map(|&d| &self.adj[d as usize])
    }

    /// Dense slot of `owner`, interning it if unseen (recycling a freed slot
    /// when one exists).
    fn dense_for(&mut self, owner: u32) -> u32 {
        if let Some(&d) = self.ids.get(&owner) {
            return d;
        }
        let d = if let Some(d) = self.free.pop() {
            self.raw[d as usize] = owner;
            d
        } else {
            debug_assert!(self.adj.len() < u32::MAX as usize);
            let d = self.adj.len() as u32;
            self.adj.push(AdjacencySet::new());
            self.raw.push(owner);
            d
        };
        self.ids.insert(owner, d);
        d
    }

    fn insert(&mut self, owner: u32, neighbor: u32) {
        let d = self.dense_for(owner);
        self.adj[d as usize].insert(neighbor);
    }

    fn remove(&mut self, owner: u32, neighbor: u32) {
        if let Some(&d) = self.ids.get(&owner) {
            let set = &mut self.adj[d as usize];
            set.remove(neighbor);
            if set.is_empty() {
                self.release(owner, d);
            }
        }
    }

    /// Returns `owner`'s dense slot to the free list.  The representation is
    /// reset so the next vertex reusing the slot starts exactly like a fresh
    /// one (`Small`); the inline `Vec` allocation is kept, a hash-backed hub
    /// set is dropped (hubs dying out entirely are rare).
    fn release(&mut self, owner: u32, dense: u32) {
        self.ids.remove(&owner);
        let set = &mut self.adj[dense as usize];
        match set {
            AdjacencySet::Small(v) => v.clear(),
            AdjacencySet::Large(_) => *set = AdjacencySet::new(),
        }
        self.free.push(dense);
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.raw.clear();
        self.adj.clear();
        self.free.clear();
    }

    /// Approximate heap bytes of this side, including the interner tables
    /// and the slab itself (one `AdjacencySet` header per dense slot), not
    /// just the sets' own heap — honest accounting for the bytes-per-edge
    /// metric.
    fn heap_bytes(&self) -> usize {
        let sets: usize = self.adj.iter().map(AdjacencySet::heap_bytes).sum();
        // Hash-map entry ≈ key + value + 1 control byte of capacity.
        self.ids.capacity() * (size_of::<(u32, u32)>() + 1)
            + self.raw.capacity() * size_of::<u32>()
            + self.free.capacity() * size_of::<u32>()
            + self.adj.capacity() * size_of::<AdjacencySet>()
            + sets
    }
}

/// A bounded sample of edges organised as a bipartite graph.
#[derive(Debug, Clone, Default)]
pub struct SampleGraph {
    left: SideTable,
    right: SideTable,
    edges: Vec<Edge>,
    slots: FxHashMap<EdgeKey, u32>,
}

impl SampleGraph {
    /// Creates an empty sample.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sample sized for a memory budget of `k` edges.
    #[must_use]
    pub fn with_budget(k: usize) -> Self {
        SampleGraph {
            left: SideTable::default(),
            right: SideTable::default(),
            edges: Vec::with_capacity(k),
            slots: abacus_graph::fxhash::fx_hashmap_with_capacity(k * 2),
        }
    }

    /// Number of sampled edges.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the sample is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether an edge is currently sampled.
    #[inline]
    #[must_use]
    pub fn contains(&self, edge: Edge) -> bool {
        self.slots.contains_key(&edge.key())
    }

    /// The sampled edges, in slot order (arbitrary but stable between
    /// mutations).
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbor set of a vertex inside the sample.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, v: VertexRef) -> Option<&AdjacencySet> {
        match v.side {
            Side::Left => self.left.get(v.id),
            Side::Right => self.right.get(v.id),
        }
    }

    /// Degree of a vertex inside the sample.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: VertexRef) -> usize {
        self.neighbors(v).map_or(0, AdjacencySet::len)
    }

    /// Picks a uniformly random sampled edge without removing it.
    ///
    /// # Panics
    /// Panics if the sample is empty.
    pub fn random_edge<R: Rng + ?Sized>(&self, rng: &mut R) -> Edge {
        assert!(!self.edges.is_empty(), "cannot pick from an empty sample");
        self.edges[rng.random_range(0..self.edges.len())]
    }

    /// Inserts an edge known to be absent.
    fn insert_edge(&mut self, edge: Edge) {
        debug_assert!(!self.contains(edge), "duplicate edge in sample");
        debug_assert!(self.edges.len() < u32::MAX as usize);
        self.slots.insert(edge.key(), self.edges.len() as u32);
        self.edges.push(edge);
        self.left.insert(edge.left, edge.right);
        self.right.insert(edge.right, edge.left);
    }

    /// Removes an edge; returns whether it was present.
    fn remove_edge(&mut self, edge: Edge) -> bool {
        let Some(slot) = self.slots.remove(&edge.key()) else {
            return false;
        };
        // Swap-remove from the dense vector, fixing the moved edge's slot.
        let slot = slot as usize;
        let last = self.edges.len() - 1;
        self.edges.swap(slot, last);
        self.edges.pop();
        if slot < self.edges.len() {
            self.slots.insert(self.edges[slot].key(), slot as u32);
        }
        // Update adjacency; zero-degree vertices release their dense slot.
        self.left.remove(edge.left, edge.right);
        self.right.remove(edge.right, edge.left);
        true
    }

    fn side(&self, side: Side) -> &SideTable {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    fn side_mut(&mut self, side: Side) -> &mut SideTable {
        match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        }
    }

    /// Serializes the sample into `enc` so that [`SampleGraph::restore_state`]
    /// can rebuild it bit-identically.
    ///
    /// Three things make the sample history-dependent, so a plain edge set is
    /// not enough:
    ///
    /// 1. **Slot order.** [`SampleGraph::random_edge`] indexes the dense edge
    ///    vector, so eviction choices (and therefore RNG-driven estimator
    ///    state) depend on the exact slot layout, not just the edge set.
    ///    Edges are written in slot order and re-inserted in that order.
    /// 2. **Interner state.** Dense id assignment and the LIFO free list are
    ///    history-dependent (slots are recycled in reverse order of their
    ///    release), so each side table's reverse array and free list are
    ///    written verbatim — a resumed run allocates the same dense slots the
    ///    original would have.
    /// 3. **Adjacency representation.** [`AdjacencySet`] promotes from the
    ///    small vector to the hash representation when it grows past the
    ///    threshold and never demotes, which steers memory accounting and
    ///    the snapshot view's kernel choice.  A set that grew large and then
    ///    shrank would be rebuilt small, so the promoted vertices are
    ///    recorded and re-promoted explicitly.
    ///
    /// The payload opens with a marker word and a format version; payloads
    /// from before the interned layout open with their edge count instead
    /// and decode through the legacy path of [`SampleGraph::restore_state`].
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_usize(SOA_SAMPLE_MARKER);
        enc.put_u8(SOA_SAMPLE_VERSION);
        enc.put_usize(self.edges.len());
        for edge in &self.edges {
            enc.put_u32(edge.left);
            enc.put_u32(edge.right);
        }
        for table in [&self.left, &self.right] {
            enc.put_usize(table.adj.len());
            let freed: std::collections::BTreeSet<u32> = table.free.iter().copied().collect();
            for (dense, &raw) in table.raw.iter().enumerate() {
                enc.put_u32(if freed.contains(&(dense as u32)) {
                    FREED_SLOT_RAW
                } else {
                    raw
                });
            }
            enc.put_usize(table.free.len());
            for &d in &table.free {
                enc.put_u32(d);
            }
        }
        for table in [&self.left, &self.right] {
            let mut large: Vec<u32> = table
                .ids
                .iter()
                .filter(|&(_, &d)| table.adj[d as usize].is_large())
                .map(|(&id, _)| id)
                .collect();
            large.sort_unstable();
            enc.put_usize(large.len());
            for id in large {
                enc.put_u32(id);
            }
        }
    }

    /// Rebuilds the sample from a payload produced by
    /// [`SampleGraph::encode_state`] — the current interned format, its
    /// version 1, or the legacy pre-interning format (recognised by its
    /// leading edge count).  Clears any current contents; budget sizing is
    /// the caller's responsibility (it comes from estimator configuration,
    /// not from the snapshot).
    ///
    /// # Errors
    /// Fails closed with [`PersistError`] on truncated payloads, duplicate
    /// edges, inconsistent interner tables, or representation flags that
    /// reference unknown vertices.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        self.store_clear();
        let first = dec.get_usize()?;
        if first != SOA_SAMPLE_MARKER {
            return self.restore_legacy(first, dec);
        }
        let version = dec.get_u8()?;
        if version != 1 && version != SOA_SAMPLE_VERSION {
            return Err(PersistError::Corrupt(format!(
                "unknown sample-store format version {version}"
            )));
        }
        let n = dec.get_usize()?;
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            edges.push(Edge::new(dec.get_u32()?, dec.get_u32()?));
        }
        for side in [Side::Left, Side::Right] {
            let dense_len = dec.get_usize()?;
            let table = self.side_mut(side);
            table.raw.reserve(dense_len);
            for _ in 0..dense_len {
                table.raw.push(dec.get_u32()?);
            }
            table.adj.resize_with(dense_len, AdjacencySet::new);
            let free_len = dec.get_usize()?;
            if free_len > dense_len {
                return Err(PersistError::Corrupt(format!(
                    "sample snapshot frees {free_len} of {dense_len} {side:?} slots"
                )));
            }
            let mut freed = vec![false; dense_len];
            for _ in 0..free_len {
                let d = dec.get_u32()?;
                if d as usize >= dense_len || freed[d as usize] {
                    return Err(PersistError::Corrupt(format!(
                        "bad free-list entry {d} for {side:?} side of sample snapshot"
                    )));
                }
                freed[d as usize] = true;
                table.free.push(d);
            }
            for (dense, freed) in freed.iter().enumerate() {
                if *freed {
                    continue;
                }
                let raw = table.raw[dense];
                if table.ids.insert(raw, dense as u32).is_some() {
                    return Err(PersistError::Corrupt(format!(
                        "duplicate raw id {raw} in {side:?} interner of sample snapshot"
                    )));
                }
            }
        }
        for edge in edges {
            if self.contains(edge) {
                return Err(PersistError::Corrupt(format!(
                    "duplicate edge ({}, {}) in sample snapshot",
                    edge.left, edge.right
                )));
            }
            // Insert through the interner slots the payload established.
            debug_assert!(self.edges.len() < u32::MAX as usize);
            self.slots.insert(edge.key(), self.edges.len() as u32);
            self.edges.push(edge);
            for (side, owner, neighbor) in [
                (Side::Left, edge.left, edge.right),
                (Side::Right, edge.right, edge.left),
            ] {
                let table = self.side_mut(side);
                let Some(&d) = table.ids.get(&owner) else {
                    return Err(PersistError::Corrupt(format!(
                        "edge endpoint {owner} missing from {side:?} interner of sample snapshot"
                    )));
                };
                table.adj[d as usize].insert(neighbor);
            }
        }
        // Every interned (non-free) slot must have been touched by an edge.
        for side in [Side::Left, Side::Right] {
            let table = self.side(side);
            if let Some((&raw, _)) = table
                .ids
                .iter()
                .find(|&(_, &d)| table.adj[d as usize].is_empty())
            {
                return Err(PersistError::Corrupt(format!(
                    "{side:?} interner entry {raw} has no sampled edges"
                )));
            }
        }
        self.restore_representation_flags(dec, version == 1)
    }

    /// Decodes the legacy (pre-interning) payload: edge list in slot order
    /// followed by per-side representation flags.  Dense ids are assigned in
    /// first-touch slot order — the same assignment the interned layout
    /// would have produced had it sampled exactly these edges in this order,
    /// and unobservable either way (dense ids never leave the store).
    fn restore_legacy(&mut self, n: usize, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        for _ in 0..n {
            let edge = Edge::new(dec.get_u32()?, dec.get_u32()?);
            if self.contains(edge) {
                return Err(PersistError::Corrupt(format!(
                    "duplicate edge ({}, {}) in sample snapshot",
                    edge.left, edge.right
                )));
            }
            self.insert_edge(edge);
        }
        self.restore_representation_flags(dec, true)
    }

    /// Shared tail of every restore path: per-side sorted lists naming the
    /// hash-promoted sets.  Payloads before version 2 follow each id with a
    /// byte saying whether the set's sorted copy was built; sorted copies no
    /// longer exist, so `sorted_copy_byte` reads that byte and drops it.
    fn restore_representation_flags(
        &mut self,
        dec: &mut Decoder<'_>,
        sorted_copy_byte: bool,
    ) -> Result<(), PersistError> {
        for side in [Side::Left, Side::Right] {
            let flagged = dec.get_usize()?;
            for _ in 0..flagged {
                let id = dec.get_u32()?;
                if sorted_copy_byte {
                    dec.get_u8()?;
                }
                let table = self.side_mut(side);
                let Some(&d) = table.ids.get(&id) else {
                    return Err(PersistError::Corrupt(format!(
                        "representation flag for absent {side:?} vertex {id}"
                    )));
                };
                table.adj[d as usize].promote();
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes (used for memory accounting in
    /// the space-complexity sanity tests and the `bytes_per_sampled_edge`
    /// perf_smoke metric).  Counts the interner tables and the adjacency
    /// slab headers, not just inner set storage.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.left.heap_bytes()
            + self.right.heap_bytes()
            + self.edges.capacity() * size_of::<Edge>()
            + self.slots.capacity() * (size_of::<EdgeKey>() + size_of::<u32>() + 1)
    }
}

impl SampleStore<Edge> for SampleGraph {
    fn store_len(&self) -> usize {
        self.len()
    }

    fn store_contains(&self, item: &Edge) -> bool {
        self.contains(*item)
    }

    fn store_insert(&mut self, item: Edge) {
        self.insert_edge(item);
    }

    fn store_remove(&mut self, item: &Edge) -> bool {
        self.remove_edge(*item)
    }

    fn store_replace_random<R: Rng + ?Sized>(&mut self, item: Edge, rng: &mut R) {
        // Deliberately expressed as pick → remove → insert so that the
        // versioned PARABACUS wrapper can reproduce the exact same state
        // transition (and RNG consumption) while logging the two deltas.
        let victim = self.random_edge(rng);
        self.remove_edge(victim);
        self.insert_edge(item);
    }

    fn store_clear(&mut self) {
        self.left.clear();
        self.right.clear();
        self.edges.clear();
        self.slots.clear();
    }
}

impl NeighborhoodView for SampleGraph {
    #[inline]
    fn view_degree(&self, v: VertexRef) -> usize {
        self.degree(v)
    }

    #[inline]
    fn view_contains(&self, v: VertexRef, neighbor: u32) -> bool {
        self.neighbors(v).is_some_and(|n| n.contains(neighbor))
    }

    #[inline]
    fn view_for_each_neighbor(&self, v: VertexRef, f: &mut dyn FnMut(u32)) {
        if let Some(n) = self.neighbors(v) {
            for x in n {
                f(x);
            }
        }
    }

    /// Reads the neighbors' degrees straight from the opposite side's slab
    /// and stops at the first partial sum that reaches `cap`.
    #[inline]
    fn view_neighbor_degree_sum_capped(&self, v: VertexRef, cap: usize) -> usize {
        let Some(neighbors) = self.neighbors(v) else {
            return 0;
        };
        let opposite = self.side(v.side.opposite());
        let mut sum = 0usize;
        for x in neighbors {
            if sum >= cap {
                break;
            }
            sum += opposite.get(x).map_or(0, AdjacencySet::len);
        }
        sum
    }

    #[inline]
    fn view_intersection_excluding(
        &self,
        a: VertexRef,
        b: VertexRef,
        exclude: u32,
    ) -> abacus_graph::intersect::IntersectionResult {
        // Resolve both adjacency sets once and intersect them directly instead
        // of paying one map lookup per probe.
        match (self.neighbors(a), self.neighbors(b)) {
            (Some(na), Some(nb)) => {
                abacus_graph::intersect::intersection_count_excluding(na, nb, exclude)
            }
            _ => abacus_graph::intersect::IntersectionResult::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_graph::count_butterflies_with_edge;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn edge(l: u32, r: u32) -> Edge {
        Edge::new(l, r)
    }

    #[test]
    fn insert_remove_and_adjacency_stay_consistent() {
        let mut s = SampleGraph::with_budget(8);
        s.store_insert(edge(1, 10));
        s.store_insert(edge(1, 11));
        s.store_insert(edge(2, 10));
        assert_eq!(s.len(), 3);
        assert!(s.contains(edge(1, 10)));
        assert_eq!(s.degree(VertexRef::left(1)), 2);
        assert_eq!(s.degree(VertexRef::right(10)), 2);

        assert!(s.store_remove(&edge(1, 10)));
        assert!(!s.store_remove(&edge(1, 10)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.degree(VertexRef::left(1)), 1);
        assert_eq!(s.degree(VertexRef::right(10)), 1);
        // Zero-degree vertices disappear.
        assert!(s.store_remove(&edge(2, 10)));
        assert_eq!(s.degree(VertexRef::right(10)), 0);
        assert!(s.neighbors(VertexRef::right(10)).is_none());
    }

    #[test]
    fn freed_interner_slots_are_recycled_lifo() {
        let mut s = SampleGraph::new();
        for i in 0..4 {
            s.store_insert(edge(i, 100));
        }
        // Left slots 0..4 are live. Free 1 then 3; the next two new left
        // vertices must reuse 3 then 1 (LIFO), not grow the slab.
        assert!(s.store_remove(&edge(1, 100)));
        assert!(s.store_remove(&edge(3, 100)));
        assert_eq!(s.left.free, vec![1, 3]);
        s.store_insert(edge(50, 100));
        assert_eq!(s.left.ids[&50], 3);
        s.store_insert(edge(51, 100));
        assert_eq!(s.left.ids[&51], 1);
        assert!(s.left.free.is_empty());
        assert_eq!(s.left.adj.len(), 4, "slab must not grow while slots free");
    }

    #[test]
    fn recycled_slot_starts_small_even_after_a_hub_died() {
        let mut s = SampleGraph::new();
        for r in 0..40u32 {
            s.store_insert(edge(7, 1_000 + r));
        }
        assert!(s.neighbors(VertexRef::left(7)).unwrap().is_large());
        for r in 0..40u32 {
            assert!(s.store_remove(&edge(7, 1_000 + r)));
        }
        assert!(s.neighbors(VertexRef::left(7)).is_none());
        // The recycled slot must present a fresh Small set, exactly like the
        // hash layout (which dropped the map entry) would have.
        s.store_insert(edge(8, 5));
        let set = s.neighbors(VertexRef::left(8)).unwrap();
        assert!(!set.is_large());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn replace_random_swaps_one_edge() {
        let mut s = SampleGraph::with_budget(4);
        for i in 0..4 {
            s.store_insert(edge(i, 100 + i));
        }
        let before: BTreeSet<Edge> = s.edges().iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(1);
        s.store_replace_random(edge(99, 999), &mut rng);
        let after: BTreeSet<Edge> = s.edges().iter().copied().collect();
        assert_eq!(s.len(), 4);
        assert!(after.contains(&edge(99, 999)));
        assert_eq!(before.intersection(&after).count(), 3);
    }

    #[test]
    fn neighborhood_view_supports_butterfly_counting() {
        let mut s = SampleGraph::new();
        for &(l, r) in &[(0, 11), (1, 10), (1, 11)] {
            s.store_insert(edge(l, r));
        }
        let c = count_butterflies_with_edge(&s, edge(0, 10));
        assert_eq!(c.butterflies, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = SampleGraph::new();
        s.store_insert(edge(1, 2));
        s.store_clear();
        assert!(s.is_empty());
        assert_eq!(s.heap_bytes(), s.heap_bytes()); // accessor does not panic
        assert!(s.neighbors(VertexRef::left(1)).is_none());
    }

    #[test]
    fn encode_restore_round_trips_slot_order_representation_and_interner() {
        let mut s = SampleGraph::with_budget(256);
        // Grow one left hub past the promotion threshold, then shrink it back
        // below so the restored representation must be forced Large.
        for r in 0..40u32 {
            s.store_insert(edge(7, 1_000 + r));
        }
        for r in 0..30u32 {
            assert!(s.store_remove(&edge(7, 1_000 + r)));
        }
        for i in 0..20u32 {
            s.store_insert(edge(i, 500 + (i % 3)));
        }
        // Leave freed slots behind so the free list round-trips non-trivially.
        assert!(s.store_remove(&edge(3, 500)));
        assert!(s.store_remove(&edge(4, 501)));
        assert!(!s.right.free.is_empty() || !s.left.free.is_empty());
        assert!(
            s.neighbors(VertexRef::left(7)).unwrap().is_large(),
            "hub stays large after shrinking"
        );

        let mut enc = Encoder::new();
        s.encode_state(&mut enc);
        let bytes = enc.finish();

        let mut restored = SampleGraph::with_budget(256);
        let mut dec = Decoder::new(&bytes);
        restored.restore_state(&mut dec).unwrap();
        dec.expect_end().unwrap();

        assert_eq!(restored.edges(), s.edges(), "slot order must survive");
        assert_eq!(
            restored.left.free, s.left.free,
            "free-list order must survive"
        );
        assert_eq!(restored.right.free, s.right.free);
        assert_eq!(
            restored.left.ids, s.left.ids,
            "dense assignment must survive"
        );
        assert_eq!(restored.right.ids, s.right.ids);
        assert!(restored.neighbors(VertexRef::left(7)).unwrap().is_large());
        // Re-encoding the restored sample must be byte-identical.
        let mut enc2 = Encoder::new();
        restored.encode_state(&mut enc2);
        assert_eq!(enc2.finish(), bytes);
    }

    #[test]
    fn legacy_payload_restores_through_the_pre_interning_format() {
        // Build a sample, encode it the way the pre-interning code did
        // (edge count, edges in slot order, per-side Large flags), and
        // restore: contents and representation must match the live sample,
        // and a re-encode lands in the new format deterministically.
        let mut s = SampleGraph::with_budget(128);
        for r in 0..40u32 {
            s.store_insert(edge(7, 1_000 + r));
        }
        for i in 0..10u32 {
            s.store_insert(edge(i, 500 + (i % 3)));
        }

        let mut enc = Encoder::new();
        enc.put_usize(s.len());
        for e in s.edges() {
            enc.put_u32(e.left);
            enc.put_u32(e.right);
        }
        // Left side: vertex 7 is Large, followed by the byte that said its
        // sorted copy was built (read and dropped); right side: none.
        enc.put_usize(1);
        enc.put_u32(7);
        enc.put_u8(1);
        enc.put_usize(0);
        let legacy = enc.finish();

        let mut restored = SampleGraph::with_budget(128);
        let mut dec = Decoder::new(&legacy);
        restored.restore_state(&mut dec).unwrap();
        dec.expect_end().unwrap();

        assert_eq!(restored.edges(), s.edges());
        assert!(restored.neighbors(VertexRef::left(7)).unwrap().is_large());
        // The legacy-restored sample re-encodes identically to the live one:
        // same edges in slot order, and first-touch dense assignment.
        let (mut enc_live, mut enc_restored) = (Encoder::new(), Encoder::new());
        s.encode_state(&mut enc_live);
        restored.encode_state(&mut enc_restored);
        assert_eq!(enc_restored.finish(), enc_live.finish());
    }

    #[test]
    fn restore_rejects_duplicate_edges_and_unknown_flags() {
        let mut s = SampleGraph::new();
        s.store_insert(edge(1, 2));
        let mut enc = Encoder::new();
        enc.put_usize(2);
        for _ in 0..2 {
            enc.put_u32(1);
            enc.put_u32(2);
        }
        let bytes = enc.finish();
        let mut dup = SampleGraph::new();
        assert!(dup.restore_state(&mut Decoder::new(&bytes)).is_err());

        let mut enc = Encoder::new();
        s.encode_state(&mut enc);
        // Claim a Large flag for a vertex the edge list never mentions
        // (legacy-format payload).
        let mut enc2 = Encoder::new();
        enc2.put_usize(1);
        enc2.put_u32(1);
        enc2.put_u32(2);
        enc2.put_usize(1);
        enc2.put_u32(99);
        enc2.put_u8(1);
        enc2.put_usize(0);
        let bytes = enc2.finish();
        let mut bad = SampleGraph::new();
        assert!(bad.restore_state(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn restore_rejects_inconsistent_interner_tables() {
        let mut s = SampleGraph::new();
        s.store_insert(edge(1, 2));
        let mut enc = Encoder::new();
        s.encode_state(&mut enc);
        let good = enc.finish();

        // Hand-build a new-format payload whose free list points past the
        // dense table.
        let mut enc = Encoder::new();
        enc.put_usize(SOA_SAMPLE_MARKER);
        enc.put_u8(SOA_SAMPLE_VERSION);
        enc.put_usize(1);
        enc.put_u32(1);
        enc.put_u32(2);
        enc.put_usize(1); // left dense table of size 1
        enc.put_u32(1);
        enc.put_usize(1); // one free entry…
        enc.put_u32(9); // …pointing past the table
        let bytes = enc.finish();
        let mut bad = SampleGraph::new();
        assert!(bad.restore_state(&mut Decoder::new(&bytes)).is_err());

        // Sanity: the good payload still restores.
        let mut ok = SampleGraph::new();
        ok.restore_state(&mut Decoder::new(&good)).unwrap();
        assert_eq!(ok.edges(), s.edges());
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn random_edge_on_empty_sample_panics() {
        let s = SampleGraph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = s.random_edge(&mut rng);
    }

    /// The pre-interning adjacency layout, reconstructed as a test oracle:
    /// per-side `FxHashMap<u32, AdjacencySet>` plus the same dense edge
    /// vector and edge→slot map with swap-remove semantics.  The interned
    /// SoA store claims bit-parity with this layout (module docs), and the
    /// proptest below holds it to that: identical op sequences must yield
    /// identical slot order, neighbor sets, representations, kernel
    /// `comparisons`, and RNG consumption.
    #[derive(Default)]
    struct HashLayoutOracle {
        left: FxHashMap<u32, AdjacencySet>,
        right: FxHashMap<u32, AdjacencySet>,
        edges: Vec<Edge>,
        slots: FxHashMap<EdgeKey, u32>,
    }

    impl HashLayoutOracle {
        fn insert(&mut self, e: Edge) {
            self.slots.insert(e.key(), self.edges.len() as u32);
            self.edges.push(e);
            self.left.entry(e.left).or_default().insert(e.right);
            self.right.entry(e.right).or_default().insert(e.left);
        }

        fn remove(&mut self, e: Edge) -> bool {
            let Some(slot) = self.slots.remove(&e.key()) else {
                return false;
            };
            let slot = slot as usize;
            let last = self.edges.len() - 1;
            self.edges.swap(slot, last);
            self.edges.pop();
            if slot < self.edges.len() {
                self.slots.insert(self.edges[slot].key(), slot as u32);
            }
            for (map, owner, neighbor) in [
                (&mut self.left, e.left, e.right),
                (&mut self.right, e.right, e.left),
            ] {
                let set = map.get_mut(&owner).expect("edge was present");
                set.remove(neighbor);
                if set.is_empty() {
                    map.remove(&owner); // the hash layout dropped empty entries
                }
            }
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Identical op sequences through the interned SoA store and the
        /// pre-interning hash layout must be indistinguishable: same slot
        /// order, same neighbor sets and representations, same kernel
        /// `comparisons`, same RNG consumption.  `0u32..48` right ids give
        /// left hubs room to cross the spill threshold, so the parity also
        /// covers the Small → Large promotion point.
        #[test]
        fn interned_store_is_bit_parity_with_the_hash_layout(
            ops in proptest::collection::vec((0u8..3, 0u32..6, 0u32..48), 1..250),
            seed in 0u64..64,
        ) {
            let mut soa = SampleGraph::new();
            let mut oracle = HashLayoutOracle::default();
            let mut soa_rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            for (op, l, r) in ops {
                let e = edge(l, r);
                let present = oracle.slots.contains_key(&e.key());
                match op {
                    0 => {
                        if !present {
                            soa.store_insert(e);
                            oracle.insert(e);
                        }
                    }
                    1 => {
                        prop_assert_eq!(soa.store_remove(&e), oracle.remove(e));
                    }
                    _ => {
                        if !oracle.edges.is_empty() && !present {
                            soa.store_replace_random(e, &mut soa_rng);
                            let victim =
                                oracle.edges[oracle_rng.random_range(0..oracle.edges.len())];
                            prop_assert!(oracle.remove(victim));
                            oracle.insert(e);
                        }
                    }
                }
                prop_assert_eq!(soa.edges(), oracle.edges.as_slice());
            }
            // The RNG streams stayed in lockstep (same number of draws, same
            // dense slot order behind every draw).
            prop_assert_eq!(soa_rng.random::<u64>(), oracle_rng.random::<u64>());
            // Per-vertex parity: membership, degree, contents, and the
            // representation the snapshot view dispatches on.
            for (side, map) in [(Side::Left, &oracle.left), (Side::Right, &oracle.right)] {
                for (&raw, expected) in map {
                    let v = VertexRef { side, id: raw };
                    let got = soa.neighbors(v).expect("oracle vertex must exist");
                    prop_assert_eq!(got.to_sorted_vec(), expected.to_sorted_vec());
                    prop_assert_eq!(got.is_large(), expected.is_large());
                }
            }
            // Kernel parity on every surviving edge: the intersection sees
            // operands of the same sizes and representations, so both count
            // and the probe-model `comparisons` must be bit-identical.
            for e in &oracle.edges {
                let a = soa.neighbors(VertexRef::left(e.left)).expect("live edge");
                let b = soa.neighbors(VertexRef::right(e.right)).expect("live edge");
                let oa = &oracle.left[&e.left];
                let ob = &oracle.right[&e.right];
                prop_assert_eq!(
                    abacus_graph::intersect::intersection_count_excluding(a, b, e.left),
                    abacus_graph::intersect::intersection_count_excluding(oa, ob, e.left)
                );
            }
        }

        /// Under random insert/remove/replace sequences, the dense edge
        /// vector, the slot index, and the adjacency tables must agree.
        #[test]
        fn storage_invariants(ops in proptest::collection::vec((0u8..3, 0u32..12, 0u32..12), 1..200)) {
            let mut s = SampleGraph::new();
            let mut reference: BTreeSet<(u32, u32)> = BTreeSet::new();
            let mut rng = StdRng::seed_from_u64(7);
            for (op, l, r) in ops {
                let e = edge(l, r);
                match op {
                    0 => {
                        if !reference.contains(&(l, r)) {
                            s.store_insert(e);
                            reference.insert((l, r));
                        }
                    }
                    1 => {
                        prop_assert_eq!(s.store_remove(&e), reference.remove(&(l, r)));
                    }
                    _ => {
                        if !reference.is_empty() && !reference.contains(&(l, r)) {
                            let victim = s.random_edge(&mut rng);
                            // replay the same choice through the store API
                            s.store_remove(&victim);
                            s.store_insert(e);
                            reference.remove(&(victim.left, victim.right));
                            reference.insert((l, r));
                        }
                    }
                }
                prop_assert_eq!(s.len(), reference.len());
                let got: BTreeSet<(u32, u32)> =
                    s.edges().iter().map(|e| (e.left, e.right)).collect();
                prop_assert_eq!(&got, &reference);
                // Degrees match the reference adjacency.
                for &(l, r) in &reference {
                    prop_assert!(s.view_contains(VertexRef::left(l), r));
                    prop_assert!(s.view_contains(VertexRef::right(r), l));
                }
                // Interner invariants: ids ↔ raw agree, free slots are empty.
                for table in [&s.left, &s.right] {
                    for (&raw, &d) in &table.ids {
                        prop_assert_eq!(table.raw[d as usize], raw);
                        prop_assert!(!table.adj[d as usize].is_empty());
                    }
                    for &d in &table.free {
                        prop_assert!(table.adj[d as usize].is_empty());
                    }
                    prop_assert_eq!(
                        table.ids.len() + table.free.len(),
                        table.adj.len()
                    );
                }
            }
        }
    }
}
