//! Per-edge butterfly counting (Algorithm 1, lines 7–11).
//!
//! Given an edge `{u, v}` (which may or may not be part of the underlying
//! graph yet), the kernel counts the butterflies that `{u, v}` forms together
//! with three other edges of a *neighborhood view*: for every neighbor `w` of
//! `u` in the view (excluding `v`), every common neighbor `x` of `w` and `v`
//! (excluding `u`) completes the butterfly `{u, v, w, x}` through the edges
//! `{u, w}`, `{w, x}`, `{x, v}`.
//!
//! ABACUS runs this kernel against its bounded sample, PARABACUS against
//! each lock-step replica's sample, the
//! exact oracle against the full graph, and FLEET against its reservoir —
//! hence the kernel is generic over the [`NeighborhoodView`] trait instead
//! of a concrete graph type.
//!
//! The *cheapest-side heuristic* (line 7) picks which endpoint's neighborhood
//! to iterate: the one whose neighbors have the smaller cumulative degree
//! `S(x) = Σ_{y ∈ N(x)} deg(y)`, so that the set intersections probe the
//! smaller sets.
//!
//! # Early exit on line 7
//!
//! Line 7 needs the *outcome* of `S(u) < S(v)`, not the two sums, and summing
//! a hub endpoint costs one degree lookup per neighbor of the hub.
//! [`cheapest_side`] therefore sums the endpoint of lower degree in full and
//! walks the other endpoint only until its partial sum settles the strict
//! comparison, through [`NeighborhoodView::view_neighbor_degree_sum_capped`]:
//! the walk over `v` stops at `S(u) + 1`, the walk over `u` at `S(v)`.
//!
//! The outcome is exact, not approximate.  Degrees are non-negative, so a
//! partial sum never exceeds the full sum: once the partial sum reaches the
//! cap the full sum does too, and a walk that ends below the cap has summed
//! everything.  `S(u) < S(v)` is therefore decided exactly as if both sums
//! had been computed, and every count, `comparisons` counter and sampler
//! decision downstream is unchanged.  Every neighbor of a vertex has degree
//! at least one, so the capped walk ends after at most `S_small + 1` lookups:
//! one element costs at most `d_small + min(d_big, S_small + 1) + 2` degree
//! lookups (the `+ 2` reads the endpoint degrees) instead of `d_u + d_v`.

use crate::bipartite::BipartiteGraph;
use crate::edge::Edge;
use crate::fxhash::FxHashMap;
use crate::intersect::IntersectionResult;
use crate::vertex::VertexRef;

/// Read-only access to vertex neighborhoods, abstracting over the full graph
/// and the bounded sample.
pub trait NeighborhoodView {
    /// Degree of `v` in the view (0 if absent).
    fn view_degree(&self, v: VertexRef) -> usize;

    /// Whether `neighbor` (a vertex on the opposite side) is adjacent to `v`.
    fn view_contains(&self, v: VertexRef, neighbor: u32) -> bool;

    /// Calls `f` for every neighbor of `v` in the view.
    fn view_for_each_neighbor(&self, v: VertexRef, f: &mut dyn FnMut(u32));

    /// Cumulative degree `S(v)` of the neighbors of `v` when it is below
    /// `cap`, otherwise some value `>= cap`: the quantity [`cheapest_side`]
    /// compares, capped so that the comparison stops paying once it is
    /// decided (see the module docs).
    ///
    /// Implementors stop looking up degrees once the partial sum reaches
    /// `cap`.  The default cannot break out of
    /// [`view_for_each_neighbor`](Self::view_for_each_neighbor), so it still
    /// walks the whole neighborhood but skips the lookups past the cap; views
    /// with an iterator of their own override it with a loop that stops.
    fn view_neighbor_degree_sum_capped(&self, v: VertexRef, cap: usize) -> usize {
        let mut sum = 0usize;
        let opposite = v.side.opposite();
        self.view_for_each_neighbor(v, &mut |x| {
            if sum < cap {
                sum += self.view_degree(VertexRef::new(opposite, x));
            }
        });
        sum
    }

    /// Counts `|N(a) ∩ N(b) \ {exclude}|` together with the number of
    /// membership probes performed.
    ///
    /// This is the innermost loop of the butterfly kernel (Algorithm 1,
    /// line 9), so implementors are encouraged to override the default with a
    /// version that resolves both neighborhoods once instead of re-resolving
    /// `a` and `b` for every probe.
    fn view_intersection_excluding(
        &self,
        a: VertexRef,
        b: VertexRef,
        exclude: u32,
    ) -> IntersectionResult {
        let (iterate, probe) = if self.view_degree(a) <= self.view_degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        let mut result = IntersectionResult::default();
        self.view_for_each_neighbor(iterate, &mut |x| {
            if x == exclude {
                return;
            }
            result.comparisons += 1;
            if self.view_contains(probe, x) {
                result.count += 1;
            }
        });
        result
    }
}

/// Outcome of the per-edge counting kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerEdgeCount {
    /// Number of butterflies the edge forms with edges of the view.
    pub butterflies: u64,
    /// Number of membership probes performed inside the set intersections
    /// (the workload unit reported per thread in Fig. 10 of the paper).
    pub comparisons: u64,
}

impl PerEdgeCount {
    /// Adds another per-edge result into this accumulator.
    #[inline]
    pub fn accumulate(&mut self, other: PerEdgeCount) {
        self.butterflies += other.butterflies;
        self.comparisons += other.comparisons;
    }

    /// Adds one wedge's intersection: each common neighbor closes one
    /// butterfly, and each probe is one comparison.
    #[inline]
    pub fn add_intersection(&mut self, intersection: IntersectionResult) {
        self.butterflies += intersection.count;
        self.comparisons += intersection.comparisons;
    }
}

/// Which endpoint's neighborhood the kernel iterates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideChoice {
    /// Use the cheapest-side heuristic from the paper (default).
    Cheapest,
    /// Always iterate the neighbors of the *left* endpoint (ablation).
    IterateLeftNeighbors,
    /// Always iterate the neighbors of the *right* endpoint (ablation).
    IterateRightNeighbors,
}

/// Algorithm 1, line 7: orders the endpoints of `edge` as `(anchor, other)`,
/// where the kernel iterates the neighbors of `anchor`.  The left endpoint
/// `u` is the anchor iff `S(u) < S(v)` ("choose v"); otherwise the right
/// endpoint `v` is.  Returns `None` when either endpoint is isolated in the
/// view, in which case `edge` completes no butterfly.
///
/// The lower-degree endpoint's sum is computed in full and the other's only
/// until the comparison is settled, which is exact (see the module docs):
/// the test costs at most `d_small + min(d_big, S_small + 1) + 2` degree
/// lookups.
///
/// ```
/// use abacus_graph::{cheapest_side, BipartiteGraph, Edge, VertexRef};
///
/// // S(L0) = deg(R10) = 1 and S(R20) = deg(L1) + deg(L2) + deg(L3) = 3, so
/// // the kernel iterates the neighbors of L0 for the edge (L0, R20).
/// let edges = [(0, 10), (1, 20), (2, 20), (3, 20)].map(|(l, r)| Edge::new(l, r));
/// let g = BipartiteGraph::from_edges(edges);
/// assert_eq!(
///     cheapest_side(&g, Edge::new(0, 20)),
///     Some((VertexRef::left(0), VertexRef::right(20)))
/// );
/// assert_eq!(cheapest_side(&g, Edge::new(9, 20)), None);
/// ```
#[must_use]
pub fn cheapest_side<G: NeighborhoodView + ?Sized>(
    view: &G,
    edge: Edge,
) -> Option<(VertexRef, VertexRef)> {
    let (u, v) = (edge.left_ref(), edge.right_ref());
    let (du, dv) = (view.view_degree(u), view.view_degree(v));
    if du == 0 || dv == 0 {
        return None;
    }
    let iterate_u = if du <= dv {
        // S(u) < S(v) holds iff the walk over v reaches S(u) + 1.
        let su = view.view_neighbor_degree_sum_capped(u, usize::MAX);
        su < view.view_neighbor_degree_sum_capped(v, su.saturating_add(1))
    } else {
        // S(u) < S(v) holds iff the walk over u ends below S(v).
        let sv = view.view_neighbor_degree_sum_capped(v, usize::MAX);
        view.view_neighbor_degree_sum_capped(u, sv) < sv
    };
    Some(if iterate_u { (u, v) } else { (v, u) })
}

/// Counts butterflies formed by `edge` with the edges of `view`, using the
/// cheapest-side heuristic.
#[inline]
#[must_use]
pub fn count_butterflies_with_edge<G: NeighborhoodView + ?Sized>(
    view: &G,
    edge: Edge,
) -> PerEdgeCount {
    count_butterflies_with_edge_choice(view, edge, SideChoice::Cheapest)
}

/// Counts butterflies formed by `edge` with the edges of `view` using an
/// explicit side choice (used by the heuristic ablation benchmark).
#[must_use]
pub fn count_butterflies_with_edge_choice<G: NeighborhoodView + ?Sized>(
    view: &G,
    edge: Edge,
    choice: SideChoice,
) -> PerEdgeCount {
    let (u, v) = (edge.left_ref(), edge.right_ref());
    let sides = match choice {
        SideChoice::Cheapest => cheapest_side(view, edge),
        SideChoice::IterateLeftNeighbors => Some((u, v)),
        SideChoice::IterateRightNeighbors => Some((v, u)),
    };
    let Some((anchor, other)) = sides else {
        return PerEdgeCount::default();
    };
    // Lines 8–11: every common neighbor of `w` and `other` (excluding
    // `anchor`) closes the wedge `anchor – w – other` into a butterfly.
    let wedge_side = anchor.side.opposite(); // side of w (same side as `other`)
    let mut result = PerEdgeCount::default();
    view.view_for_each_neighbor(anchor, &mut |w_id| {
        if w_id != other.id {
            let w = VertexRef::new(wedge_side, w_id);
            result.add_intersection(view.view_intersection_excluding(w, other, anchor.id));
        }
    });
    result
}

/// Calls `f(x, w)` once for every butterfly `{u, v, x, w}` that
/// `edge = {u, v}` forms with the edges of `graph`: `w` ranges over the
/// right-side partners `N(u) \ {v}` and `x` over the left-side partners
/// `N(w) ∩ N(v) \ {u}`, so each butterfly is reported exactly once and the
/// number of callbacks equals
/// [`count_butterflies_with_edge`]`(graph, edge).butterflies`.
///
/// This is the enumerating twin of the counting kernel: the delta-maintained
/// views ([`EdgeSupports`], `VertexButterflyCounts`) need the *identities* of
/// the three completing edges `{u, w}`, `{x, w}`, `{x, v}`, not just how many
/// butterflies the mutation touches.  Like the counting kernel it never looks
/// at `edge` itself, so the enumeration is identical whether `edge` is already
/// present in the graph or not.
///
/// `N(u)` and `N(v)` are resolved once per call and each `N(w)` once per
/// wedge, so no membership probe pays a vertex lookup.  Each wedge iterates
/// the smaller of `N(w)` and `N(v)` and probes the other.
pub fn for_each_butterfly_with_edge(
    graph: &BipartiteGraph,
    edge: Edge,
    f: &mut dyn FnMut(u32, u32),
) {
    let (Some(nu), Some(nv)) = (
        graph.neighbors(edge.left_ref()),
        graph.neighbors(edge.right_ref()),
    ) else {
        return;
    };
    for w in nu {
        if w == edge.right {
            continue;
        }
        // `w` is adjacent to `u`, so its set is present.
        let Some(nw) = graph.neighbors(VertexRef::right(w)) else {
            continue;
        };
        // Both sets hold left-side vertices, so either order yields the
        // partners `x`.
        let (iterate, probe) = if nw.len() <= nv.len() {
            (nw, nv)
        } else {
            (nv, nw)
        };
        for x in iterate {
            if x != edge.left && probe.contains(x) {
                f(x, w);
            }
        }
    }
}

/// Delta-maintained butterfly support of every live edge.
///
/// The incremental counterpart of [`edge_supports`](crate::bitruss::edge_supports):
/// instead of recomputing the per-edge kernel over the whole graph after every
/// mutation, the map is patched with the butterflies the mutated edge
/// completes (as enumerated by [`for_each_butterfly_with_edge`] against the
/// pre-insert / post-delete graph, the same convention the streaming
/// estimators use).
///
/// Invariant: after a sequence of [`apply_insert`](Self::apply_insert) /
/// [`apply_delete`](Self::apply_delete) calls mirroring the graph's
/// mutations, the map equals `edge_supports` of the current graph bit for
/// bit — including live edges whose support is (or has dropped back to) zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeSupports {
    supports: FxHashMap<Edge, u64>,
}

impl EdgeSupports {
    /// Empty support map (matching an empty graph).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Offline recomputation from scratch: the ground truth the incremental
    /// path must bit-match.
    #[must_use]
    pub fn recompute(graph: &BipartiteGraph) -> Self {
        EdgeSupports {
            supports: crate::bitruss::edge_supports(graph),
        }
    }

    /// Applies the insertion of `edge`, whose enumerated butterfly partners
    /// are `butterflies` (the `(x, w)` pairs reported by
    /// [`for_each_butterfly_with_edge`] against the graph *without* `edge`).
    ///
    /// The new edge enters with support `butterflies.len()`; each completing
    /// edge `{u, w}`, `{x, w}`, `{x, v}` gains one butterfly.
    pub fn apply_insert(&mut self, edge: Edge, butterflies: &[(u32, u32)]) {
        *self.supports.entry(edge).or_insert(0) += butterflies.len() as u64;
        for &(x, w) in butterflies {
            for other in [
                Edge::new(edge.left, w),
                Edge::new(x, w),
                Edge::new(x, edge.right),
            ] {
                *self.supports.entry(other).or_insert(0) += 1;
            }
        }
    }

    /// Applies the deletion of `edge`, whose enumerated butterfly partners are
    /// `butterflies` (reported against the graph *after* removing `edge`).
    ///
    /// The deleted edge leaves the map; each formerly completing edge loses
    /// one butterfly but stays tracked — live edges with support zero are part
    /// of the offline answer too.
    pub fn apply_delete(&mut self, edge: Edge, butterflies: &[(u32, u32)]) {
        self.supports.remove(&edge);
        for &(x, w) in butterflies {
            for other in [
                Edge::new(edge.left, w),
                Edge::new(x, w),
                Edge::new(x, edge.right),
            ] {
                if let Some(support) = self.supports.get_mut(&other) {
                    *support = support.saturating_sub(1);
                }
            }
        }
    }

    /// Support of one edge (`None` if the edge is not live).
    #[must_use]
    pub fn support(&self, edge: Edge) -> Option<u64> {
        self.supports.get(&edge).copied()
    }

    /// The full edge → support map.
    #[must_use]
    pub fn supports(&self) -> &FxHashMap<Edge, u64> {
        &self.supports
    }

    /// Number of live edges tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.supports.len()
    }

    /// `true` when no edges are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.supports.is_empty()
    }

    /// Sum of all supports (four times the global butterfly count).
    #[must_use]
    pub fn total_support(&self) -> u128 {
        // lint:allow(hash-iter): u128 sum is order-insensitive
        self.supports.values().map(|&s| u128::from(s)).sum()
    }

    /// Peels the supports into the bitruss decomposition of `graph`, which
    /// must be the graph they were maintained against (see
    /// [`peel_from_supports`](crate::bitruss::peel_from_supports)).
    #[must_use]
    pub fn decomposition(&self, graph: &BipartiteGraph) -> crate::bitruss::BitrussDecomposition {
        crate::bitruss::peel_from_supports(graph, &self.supports)
    }

    /// The edge with the largest support, ties broken by the larger edge key
    /// so the answer is deterministic across hash-map iteration orders.
    #[must_use]
    pub fn max_support(&self) -> Option<(Edge, u64)> {
        self.supports
            .iter()
            .map(|(&e, &s)| (e, s))
            .max_by_key(|&(e, s)| (s, e.key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteGraph;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn graph(edges: &[(u32, u32)]) -> BipartiteGraph {
        BipartiteGraph::from_edges(edges.iter().map(|&(l, r)| Edge::new(l, r)))
    }

    /// `S(v)` summed in full: the reference for the capped sum and the side
    /// test.
    fn full_sum<G: NeighborhoodView + ?Sized>(view: &G, v: VertexRef) -> usize {
        let mut sum = 0;
        view.view_for_each_neighbor(v, &mut |x| {
            sum += view.view_degree(VertexRef::new(v.side.opposite(), x));
        });
        sum
    }

    #[test]
    fn empty_view_yields_zero() {
        let g = BipartiteGraph::new();
        let r = count_butterflies_with_edge(&g, Edge::new(1, 2));
        assert_eq!(r.butterflies, 0);
        assert_eq!(r.comparisons, 0);
    }

    #[test]
    fn single_butterfly_is_found_for_missing_edge() {
        // Sample holds {u=0-r=10 is the incoming edge}; stored edges complete
        // exactly one butterfly {0, 10, 1, 11}: (0,11), (1,10), (1,11).
        let g = graph(&[(0, 11), (1, 10), (1, 11)]);
        let r = count_butterflies_with_edge(&g, Edge::new(0, 10));
        assert_eq!(r.butterflies, 1);
    }

    #[test]
    fn counts_butterflies_containing_an_existing_edge() {
        // Complete 2x2 biclique: exactly one butterfly; each edge belongs to it.
        let g = graph(&[(0, 10), (0, 11), (1, 10), (1, 11)]);
        for &(l, r) in &[(0, 10), (0, 11), (1, 10), (1, 11)] {
            let c = count_butterflies_with_edge(&g, Edge::new(l, r));
            assert_eq!(c.butterflies, 1, "edge ({l},{r})");
        }
    }

    #[test]
    fn complete_biclique_counts() {
        // K_{3,3}: every new edge {u, v} with u,v fresh vertices forms no
        // butterfly, while an edge inside the biclique participates in
        // (3-1)*(3-1) = 4 butterflies.
        let mut edges = Vec::new();
        for l in 0..3u32 {
            for r in 10..13u32 {
                edges.push((l, r));
            }
        }
        let g = graph(&edges);
        let c = count_butterflies_with_edge(&g, Edge::new(0, 10));
        assert_eq!(c.butterflies, 4);
        let fresh = count_butterflies_with_edge(&g, Edge::new(7, 20));
        assert_eq!(fresh.butterflies, 0);
    }

    #[test]
    fn degenerate_wedges_are_excluded() {
        // Edge (0,10) plus a path 0-11, 1-11, 1-10.  The incoming edge (0,11)
        // must not count the wedge through its own endpoints twice.
        let g = graph(&[(0, 10), (1, 10), (1, 11)]);
        // Incoming edge (0, 11): butterflies {0,11,1,10} requires (0,10),(1,10),(1,11) — all present.
        let c = count_butterflies_with_edge(&g, Edge::new(0, 11));
        assert_eq!(c.butterflies, 1);
        // Incoming edge (0, 10) is already present; other butterfly edges absent.
        let c2 = count_butterflies_with_edge(&g, Edge::new(0, 10));
        assert_eq!(c2.butterflies, 0);
    }

    #[test]
    fn running_example_from_the_paper() {
        // Figure 1b: sample edges (black + red in the figure): v-l1, v-l2,
        // u-r2, l1-r2, plus extra sample edges l2-r1, l3-r3, l4-r4.
        // Incoming edge {u, v} forms exactly one butterfly {u, v, l1, r2}.
        // Encode: left partition = {l1=1, l2=2, l3=3, l4=4, u=5},
        //         right partition = {r1=11, r2=12, r3=13, r4=14, v=15}.
        let g = graph(&[
            (1, 15),
            (2, 15),
            (5, 12),
            (1, 12),
            (2, 11),
            (3, 13),
            (4, 14),
        ]);
        let c = count_butterflies_with_edge(&g, Edge::new(5, 15));
        assert_eq!(c.butterflies, 1);
    }

    #[test]
    fn all_side_choices_agree_on_the_count() {
        let g = graph(&[
            (0, 10),
            (0, 11),
            (0, 12),
            (1, 10),
            (1, 11),
            (2, 11),
            (2, 12),
            (3, 12),
            (3, 10),
        ]);
        for &(l, r) in &[(0, 10), (1, 12), (2, 10), (3, 11), (4, 13)] {
            let e = Edge::new(l, r);
            let a = count_butterflies_with_edge_choice(&g, e, SideChoice::Cheapest).butterflies;
            let b = count_butterflies_with_edge_choice(&g, e, SideChoice::IterateLeftNeighbors)
                .butterflies;
            let c = count_butterflies_with_edge_choice(&g, e, SideChoice::IterateRightNeighbors)
                .butterflies;
            assert_eq!(a, b, "edge ({l},{r})");
            assert_eq!(b, c, "edge ({l},{r})");
        }
    }

    #[test]
    fn cheapest_side_never_does_more_probes_than_both_fixed_sides_min() {
        let g = graph(&[
            (0, 10),
            (0, 11),
            (0, 12),
            (0, 13),
            (1, 10),
            (2, 10),
            (3, 10),
            (1, 11),
            (2, 12),
        ]);
        let e = Edge::new(0, 10);
        let cheap = count_butterflies_with_edge_choice(&g, e, SideChoice::Cheapest).comparisons;
        let left =
            count_butterflies_with_edge_choice(&g, e, SideChoice::IterateLeftNeighbors).comparisons;
        let right = count_butterflies_with_edge_choice(&g, e, SideChoice::IterateRightNeighbors)
            .comparisons;
        assert!(cheap <= left.max(right));
    }

    #[test]
    fn neighbor_degree_sum_default_impl() {
        let g = graph(&[(0, 10), (0, 11), (1, 10)]);
        let sum = |v| g.view_neighbor_degree_sum_capped(v, usize::MAX);
        // Neighbors of L0 are R10 (deg 2) and R11 (deg 1) => 3.
        assert_eq!(sum(VertexRef::left(0)), 3);
        // Neighbors of R10 are L0 (deg 2) and L1 (deg 1) => 3.
        assert_eq!(sum(VertexRef::right(10)), 3);
        assert_eq!(sum(VertexRef::left(42)), 0);
        // Below the cap the sum is exact; at the cap it is at least the cap.
        assert_eq!(g.view_neighbor_degree_sum_capped(VertexRef::left(0), 4), 3);
        assert!(g.view_neighbor_degree_sum_capped(VertexRef::left(0), 2) >= 2);
    }

    /// A view that counts its degree lookups.  Intersections go straight to
    /// the graph, so the count is the line-7 work alone.
    struct LookupCounter<'a> {
        graph: &'a BipartiteGraph,
        lookups: Cell<usize>,
    }

    impl NeighborhoodView for LookupCounter<'_> {
        fn view_degree(&self, v: VertexRef) -> usize {
            self.lookups.set(self.lookups.get() + 1);
            self.graph.view_degree(v)
        }

        fn view_contains(&self, v: VertexRef, neighbor: u32) -> bool {
            self.graph.view_contains(v, neighbor)
        }

        fn view_for_each_neighbor(&self, v: VertexRef, f: &mut dyn FnMut(u32)) {
            self.graph.view_for_each_neighbor(v, f);
        }

        fn view_intersection_excluding(
            &self,
            a: VertexRef,
            b: VertexRef,
            exclude: u32,
        ) -> IntersectionResult {
            self.graph.view_intersection_excluding(a, b, exclude)
        }
    }

    #[test]
    fn side_test_stops_walking_the_hub_early() {
        // Hub R0 with spokes L1..=L100, each spoke also on a private right
        // vertex; L200 hangs off its own private R500.
        let mut edges = vec![(200, 500)];
        for l in 1..=100u32 {
            edges.push((l, 0));
            edges.push((l, 1_000 + l));
        }
        let g = graph(&edges);
        let view = LookupCounter {
            graph: &g,
            lookups: Cell::new(0),
        };
        for (l, r) in [
            (200, 0),
            (1, 0),
            (1, 500),
            (7, 1_003),
            (200, 1_001),
            (300, 0),
            (200, 900),
        ] {
            let e = Edge::new(l, r);
            view.lookups.set(0);
            let counted = count_butterflies_with_edge(&view, e);
            let lookups = view.lookups.get();
            assert_eq!(
                counted,
                count_butterflies_with_edge(&g, e),
                "edge ({l},{r})"
            );
            let (u, v) = (e.left_ref(), e.right_ref());
            let (du, dv) = (g.view_degree(u), g.view_degree(v));
            let (d_small, d_big, s_small) = if du <= dv {
                (du, dv, full_sum(&g, u))
            } else {
                (dv, du, full_sum(&g, v))
            };
            let bound = d_small + d_big.min(s_small + 1) + 2;
            assert!(
                lookups <= bound,
                "edge ({l},{r}): {lookups} degree lookups, bound {bound}"
            );
        }
        // The new spoke (L200, R0) settles line 7 after a handful of lookups
        // instead of summing all 100 spokes of the hub.
        view.lookups.set(0);
        let _ = count_butterflies_with_edge(&view, Edge::new(200, 0));
        assert!(view.lookups.get() <= 5, "{} lookups", view.lookups.get());
    }

    fn enumerate(g: &BipartiteGraph, edge: Edge) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for_each_butterfly_with_edge(g, edge, &mut |x, w| pairs.push((x, w)));
        pairs
    }

    #[test]
    fn enumeration_agrees_with_the_counting_kernel() {
        let g = graph(&[
            (0, 10),
            (0, 11),
            (0, 12),
            (1, 10),
            (1, 11),
            (2, 11),
            (2, 12),
            (3, 12),
            (3, 10),
        ]);
        for l in 0..5u32 {
            for r in 10..14u32 {
                let e = Edge::new(l, r);
                let pairs = enumerate(&g, e);
                let counted = count_butterflies_with_edge(&g, e).butterflies;
                assert_eq!(pairs.len() as u64, counted, "edge ({l},{r})");
                // Each reported pair completes a genuine butterfly, and no
                // butterfly is reported twice.
                let mut seen = pairs.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), pairs.len(), "edge ({l},{r})");
                for (x, w) in pairs {
                    assert_ne!(x, l);
                    assert_ne!(w, r);
                    assert!(g.has_edge(Edge::new(l, w)), "edge ({l},{r}) via {x},{w}");
                    assert!(g.has_edge(Edge::new(x, w)), "edge ({l},{r}) via {x},{w}");
                    assert!(g.has_edge(Edge::new(x, r)), "edge ({l},{r}) via {x},{w}");
                }
            }
        }
    }

    #[test]
    fn edge_supports_track_inserts_and_deletes_bit_exactly() {
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
            let pairs = enumerate(&g, e); // pre-insert view
            supports.apply_insert(e, &pairs);
            g.insert_edge(e);
            assert_eq!(supports, EdgeSupports::recompute(&g), "after +({l},{r})");
        }
        for &(l, r) in &[(1, 11), (0, 10), (2, 12)] {
            let e = Edge::new(l, r);
            g.delete_edge(e);
            let pairs = enumerate(&g, e); // post-delete view
            supports.apply_delete(e, &pairs);
            assert_eq!(supports, EdgeSupports::recompute(&g), "after -({l},{r})");
        }
        assert_eq!(supports.len(), g.num_edges());
        assert_eq!(
            supports.total_support() % 4,
            0,
            "every butterfly is counted on four edges"
        );
    }

    #[test]
    fn edge_supports_accessors() {
        let g = graph(&[(0, 10), (0, 11), (1, 10), (1, 11)]);
        let supports = EdgeSupports::recompute(&g);
        assert!(!supports.is_empty());
        assert_eq!(supports.len(), 4);
        assert_eq!(supports.support(Edge::new(0, 10)), Some(1));
        assert_eq!(supports.support(Edge::new(7, 7)), None);
        assert_eq!(supports.total_support(), 4);
        let (edge, support) = supports.max_support().unwrap();
        assert_eq!(support, 1);
        // Deterministic tie-break: the largest edge key wins.
        assert_eq!(edge, Edge::new(1, 11));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random graphs the capped sum is exact below the cap and at
        /// least the cap otherwise, and `cheapest_side` picks the side of
        /// the uncapped `S(u) < S(v)` test.
        #[test]
        fn capped_sums_decide_the_side_like_full_sums(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
        ) {
            let g = graph(&edges);
            for id in 0..9u32 {
                for v in [VertexRef::left(id), VertexRef::right(id)] {
                    let exact = full_sum(&g, v);
                    for cap in 0..=exact + 1 {
                        let capped = g.view_neighbor_degree_sum_capped(v, cap);
                        prop_assert!(
                            if exact < cap { capped == exact } else { capped >= cap },
                            "capped sum {capped} of {v} (cap {cap}, exact {exact})"
                        );
                    }
                }
            }
            for l in 0..9u32 {
                for r in 0..9u32 {
                    let e = Edge::new(l, r);
                    let (u, v) = (e.left_ref(), e.right_ref());
                    let want = (g.view_degree(u) > 0 && g.view_degree(v) > 0).then(|| {
                        if full_sum(&g, u) < full_sum(&g, v) { (u, v) } else { (v, u) }
                    });
                    prop_assert_eq!(cheapest_side(&g, e), want);
                }
            }
        }

        /// On random graphs the enumeration reports exactly the butterflies
        /// of a brute-force reference, for present and absent edges alike:
        /// no butterfly twice, and as many as the counting kernel counts.
        #[test]
        fn enumeration_reports_exactly_the_naive_butterflies(
            edges in proptest::collection::vec((0u32..7, 0u32..7), 0..45),
        ) {
            let g = graph(&edges);
            // Ids up to 7 include vertices absent from every graph.
            for l in 0..8u32 {
                for r in 0..8u32 {
                    let e = Edge::new(l, r);
                    let mut got = enumerate(&g, e);
                    prop_assert_eq!(
                        got.len() as u64,
                        count_butterflies_with_edge(&g, e).butterflies,
                        "edge ({}, {})", l, r
                    );
                    got.sort_unstable();
                    let reported = got.len();
                    got.dedup();
                    prop_assert_eq!(got.len(), reported, "edge ({}, {}) repeats a pair", l, r);
                    let mut want = Vec::new();
                    for x in (0..8u32).filter(|&x| x != l) {
                        for w in (0..8u32).filter(|&w| w != r) {
                            let closes = [(l, w), (x, w), (x, r)]
                                .iter()
                                .all(|&(a, b)| g.has_edge(Edge::new(a, b)));
                            if closes {
                                want.push((x, w));
                            }
                        }
                    }
                    prop_assert_eq!(got, want, "edge ({}, {})", l, r);
                }
            }
        }
    }
}
