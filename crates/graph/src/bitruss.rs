//! Butterfly support and k-bitruss decomposition.
//!
//! The paper's introduction motivates per-edge butterfly counting through the
//! *k-bitruss*: the maximal subgraph in which every edge is contained in at
//! least `k` butterflies.  Bitruss decomposition (computing, for every edge,
//! the largest `k` such that the edge survives in the k-bitruss — its *bitruss
//! number*) is the standard peeling consumer of butterfly support and is used
//! for community and spam detection.
//!
//! The implementation follows the classic peeling strategy (Sariyüce & Pinar,
//! WSDM 2018; Wang et al., VLDB J. 2022): compute the butterfly support of
//! every edge, then repeatedly remove an edge of minimum support, decrementing
//! the support of the other three edges of every butterfly the removed edge
//! participated in.

use crate::bipartite::BipartiteGraph;
use crate::edge::Edge;
use crate::fxhash::FxHashMap;
use crate::peredge::{count_butterflies_with_edge, for_each_butterfly_with_edge};

/// Butterfly support (number of butterflies containing each edge) of every
/// edge in the graph.
#[must_use]
pub fn edge_supports(graph: &BipartiteGraph) -> FxHashMap<Edge, u64> {
    graph
        .edges()
        .map(|edge| (edge, count_butterflies_with_edge(graph, edge).butterflies))
        .collect()
}

/// Result of a bitruss decomposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitrussDecomposition {
    /// The bitruss number of every edge of the input graph: the largest `k`
    /// such that the edge belongs to the k-bitruss.
    pub bitruss_numbers: FxHashMap<Edge, u64>,
}

impl BitrussDecomposition {
    /// The largest bitruss number present (0 for butterfly-free graphs).
    #[must_use]
    pub fn max_bitruss(&self) -> u64 {
        self.bitruss_numbers.values().copied().max().unwrap_or(0)
    }

    /// The edges of the `k`-bitruss: every edge whose bitruss number is ≥ `k`.
    #[must_use]
    pub fn k_bitruss_edges(&self, k: u64) -> Vec<Edge> {
        let mut edges: Vec<Edge> = self
            .bitruss_numbers
            .iter()
            .filter(|&(_, &number)| number >= k)
            .map(|(&edge, _)| edge)
            .collect();
        edges.sort_unstable();
        edges
    }

    /// The `k`-bitruss as a graph.
    #[must_use]
    pub fn k_bitruss_graph(&self, k: u64) -> BipartiteGraph {
        BipartiteGraph::from_edges(self.k_bitruss_edges(k))
    }

    /// Number of edges per bitruss tier, ascending by tier: the membership
    /// summary the delta circuit reports per batch.
    #[must_use]
    pub fn tier_sizes(&self) -> Vec<(u64, usize)> {
        let mut tiers: FxHashMap<u64, usize> = FxHashMap::default();
        // lint:allow(hash-iter): integer tier tallies are order-insensitive, and the result is sorted before returning
        for &number in self.bitruss_numbers.values() {
            *tiers.entry(number).or_insert(0) += 1;
        }
        let mut sizes: Vec<(u64, usize)> = tiers.into_iter().collect();
        sizes.sort_unstable();
        sizes
    }
}

/// Computes the bitruss number of every edge by bottom-up peeling.
///
/// The support updates enumerate the butterflies of the peeled edge through
/// set intersections on the shrinking graph, and each support decrement
/// moves its edge one bin down in O(1) (see [`peel_from_supports`]).
#[must_use]
pub fn bitruss_decomposition(graph: &BipartiteGraph) -> BitrussDecomposition {
    peel_from_supports(graph, &edge_supports(graph))
}

/// [`bitruss_decomposition`] with the initial butterfly supports supplied by
/// the caller instead of recomputed from scratch.
///
/// `supports` must map exactly the edges of `graph` to their butterfly
/// supports — the invariant the delta-maintained
/// [`EdgeSupports`](crate::peredge::EdgeSupports) guarantees — so the peeling
/// produces the same decomposition as the offline path, without the
/// `O(Σ d²)` support pass.
///
/// The peel keeps the edges bin-sorted by current support (Batagelj &
/// Zaversnik, *An O(m) Algorithm for Cores Decomposition of Networks*, 2003):
/// it removes the edges in bin order and moves each affected edge one bin
/// down per lost butterfly with a single swap.  An edge whose support has
/// reached the current level stays put, so the support an edge holds when
/// it is peeled is its bitruss number.  Bitruss numbers do not depend on
/// which minimum-support edge goes first, so the result equals any other
/// peeling order's.
#[must_use]
pub fn peel_from_supports(
    graph: &BipartiteGraph,
    supports: &FxHashMap<Edge, u64>,
) -> BitrussDecomposition {
    // Dense ids in edge order, so the peel order is deterministic.
    let mut entries: Vec<(Edge, u64)> = supports.iter().map(|(&e, &s)| (e, s)).collect();
    entries.sort_unstable();
    let index: FxHashMap<Edge, usize> = entries
        .iter()
        .enumerate()
        .map(|(id, &(edge, _))| (edge, id))
        .collect();
    let mut support: Vec<u64> = entries.iter().map(|&(_, s)| s).collect();

    // `order` lists the ids by ascending support, bin `s` starts at slot
    // `bin_start[s]`, and `slot[id]` is the position of `id` in `order`.
    let max_support = support.iter().copied().max().unwrap_or(0) as usize;
    let mut bin_start = vec![0usize; max_support + 2];
    for &s in &support {
        bin_start[s as usize + 1] += 1;
    }
    for s in 1..bin_start.len() {
        bin_start[s] += bin_start[s - 1];
    }
    let mut order = vec![0usize; support.len()];
    let mut slot = vec![0usize; support.len()];
    let mut fill = bin_start.clone();
    for (id, &s) in support.iter().enumerate() {
        let at = &mut fill[s as usize];
        order[*at] = id;
        slot[id] = *at;
        *at += 1;
    }

    // Work on a copy: edges are physically removed as they are peeled.
    let mut remaining = graph.clone();
    let mut bitruss_numbers: FxHashMap<Edge, u64> =
        crate::fxhash::fx_hashmap_with_capacity(entries.len());
    for next in 0..order.len() {
        let id = order[next];
        let (edge, level) = (entries[id].0, support[id]);
        bitruss_numbers.insert(edge, level);
        // Each butterfly of `edge` in the remaining graph costs its other
        // three edges one unit of support.
        for_each_butterfly_with_edge(&remaining, edge, &mut |x, w| {
            for other in [
                Edge::new(edge.left, w),
                Edge::new(x, w),
                Edge::new(x, edge.right),
            ] {
                let Some(&other) = index.get(&other) else {
                    continue;
                };
                let s = support[other];
                if s > level {
                    // Swap `other` to the front of bin `s`, then shrink the
                    // bin past it: it now ends bin `s - 1`.
                    let front = bin_start[s as usize];
                    let displaced = order[front];
                    order.swap(front, slot[other]);
                    slot[displaced] = slot[other];
                    slot[other] = front;
                    bin_start[s as usize] += 1;
                    support[other] = s - 1;
                }
            }
        });
        remaining.delete_edge(edge);
    }

    BitrussDecomposition { bitruss_numbers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::count_butterflies;
    use crate::peredge::EdgeSupports;
    use proptest::prelude::*;

    fn graph(edges: &[(u32, u32)]) -> BipartiteGraph {
        BipartiteGraph::from_edges(edges.iter().map(|&(l, r)| Edge::new(l, r)))
    }

    /// Reference implementation: the k-bitruss is the fixpoint of repeatedly
    /// deleting edges with support < k.
    fn naive_k_bitruss(graph: &BipartiteGraph, k: u64) -> Vec<Edge> {
        let mut current = graph.clone();
        loop {
            let to_remove: Vec<Edge> = current
                .edges()
                .filter(|&e| count_butterflies_with_edge(&current, e).butterflies < k)
                .collect();
            if to_remove.is_empty() {
                break;
            }
            for e in to_remove {
                current.delete_edge(e);
            }
        }
        let mut edges: Vec<Edge> = current.edges().collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn supports_of_a_single_butterfly() {
        let g = graph(&[(0, 10), (0, 11), (1, 10), (1, 11)]);
        let supports = edge_supports(&g);
        assert_eq!(supports.len(), 4);
        assert!(supports.values().all(|&s| s == 1));
    }

    #[test]
    fn butterfly_free_graph_has_zero_bitruss() {
        let g = graph(&[(0, 10), (1, 10), (1, 11), (2, 11)]);
        let decomposition = bitruss_decomposition(&g);
        assert_eq!(decomposition.max_bitruss(), 0);
        assert_eq!(decomposition.k_bitruss_edges(1), Vec::<Edge>::new());
        assert_eq!(decomposition.bitruss_numbers.len(), 4);
    }

    #[test]
    fn complete_biclique_bitruss_numbers() {
        // In K_{3,3} every edge lies in (3-1)*(3-1) = 4 butterflies, and the
        // graph is its own 4-bitruss.
        let mut edges = Vec::new();
        for l in 0..3u32 {
            for r in 10..13u32 {
                edges.push((l, r));
            }
        }
        let g = graph(&edges);
        let decomposition = bitruss_decomposition(&g);
        assert_eq!(decomposition.max_bitruss(), 4);
        assert!(decomposition.bitruss_numbers.values().all(|&k| k == 4));
        assert_eq!(decomposition.k_bitruss_edges(4).len(), 9);
        assert_eq!(decomposition.k_bitruss_edges(5).len(), 0);
        assert_eq!(decomposition.k_bitruss_graph(4).num_edges(), 9);
    }

    #[test]
    fn dense_core_survives_peeling_of_a_sparse_fringe() {
        // A K_{3,3} core plus pendant edges that belong to no butterfly.
        let mut edges = Vec::new();
        for l in 0..3u32 {
            for r in 10..13u32 {
                edges.push((l, r));
            }
        }
        edges.extend_from_slice(&[(7, 10), (8, 11), (0, 99)]);
        let g = graph(&edges);
        let decomposition = bitruss_decomposition(&g);
        // Fringe edges have bitruss number 0, the core keeps 4.
        assert_eq!(decomposition.bitruss_numbers[&Edge::new(7, 10)], 0);
        assert_eq!(decomposition.bitruss_numbers[&Edge::new(0, 99)], 0);
        assert_eq!(decomposition.k_bitruss_edges(1).len(), 9);
        let core = decomposition.k_bitruss_graph(4);
        assert_eq!(core.num_edges(), 9);
        assert_eq!(count_butterflies(&core), 9);
    }

    #[test]
    fn tier_sizes_summarise_the_decomposition() {
        // K_{3,3} core (bitruss 4) plus two pendant edges (bitruss 0).
        let mut edges = Vec::new();
        for l in 0..3u32 {
            for r in 10..13u32 {
                edges.push((l, r));
            }
        }
        edges.extend_from_slice(&[(7, 10), (0, 99)]);
        let decomposition = bitruss_decomposition(&graph(&edges));
        assert_eq!(decomposition.tier_sizes(), vec![(0, 2), (4, 9)]);
        assert!(BitrussDecomposition::default().tier_sizes().is_empty());
    }

    #[test]
    fn delta_maintained_state_peels_to_the_offline_decomposition() {
        let script: &[(u32, u32)] = &[
            (0, 10),
            (0, 11),
            (1, 10),
            (1, 11),
            (2, 11),
            (2, 12),
            (0, 12),
            (3, 12),
            (3, 10),
        ];
        let mut g = BipartiteGraph::new();
        let mut supports = EdgeSupports::new();
        for &(l, r) in script {
            let e = Edge::new(l, r);
            let mut pairs = Vec::new();
            for_each_butterfly_with_edge(&g, e, &mut |x, w| pairs.push((x, w)));
            supports.apply_insert(e, &pairs);
            g.insert_edge(e);
        }
        for &(l, r) in &[(1, 11), (0, 12)] {
            let e = Edge::new(l, r);
            g.delete_edge(e);
            let mut pairs = Vec::new();
            for_each_butterfly_with_edge(&g, e, &mut |x, w| pairs.push((x, w)));
            supports.apply_delete(e, &pairs);
        }
        assert_eq!(supports, EdgeSupports::recompute(&g));
        let incremental = supports.decomposition(&g);
        let offline = bitruss_decomposition(&g);
        assert_eq!(incremental.bitruss_numbers, offline.bitruss_numbers);
        assert_eq!(incremental.tier_sizes(), offline.tier_sizes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The k-bitruss derived from the decomposition's bitruss numbers must
        /// equal the fixpoint computed by naive repeated deletion, for every k
        /// up to one past the maximum bitruss number.  Up to 63 edges on an
        /// 8×8 universe come close to K_{8,8}, whose edges each lie in 49
        /// butterflies, so the bins of the peel see long chains of
        /// decrements.
        #[test]
        fn decomposition_matches_naive_peeling(
            edges in proptest::collection::btree_set((0u32..8, 0u32..8), 0..64),
        ) {
            let g = graph(&edges.iter().copied().collect::<Vec<_>>());
            let decomposition = bitruss_decomposition(&g);
            for k in 1..=decomposition.max_bitruss() + 1 {
                let fast = decomposition.k_bitruss_edges(k);
                let slow = naive_k_bitruss(&g, k);
                prop_assert_eq!(&fast, &slow, "k = {}", k);
            }
        }
    }
}
