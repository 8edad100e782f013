//! The incremental multi-view delta circuit: one ingest, N bit-exact live
//! views.
//!
//! [`Circuit`] wraps any [`ButterflyCounter`] and threads every stream
//! element through three synchronized consumers:
//!
//! 1. the wrapped **estimator** (view #0 — the global estimate),
//! 2. an **authoritative graph** replaying the full edge relation,
//! 3. every subscribed [`DeltaView`], each folding the element's delta into
//!    live derived state (per-edge supports, per-vertex counts, clustering
//!    coefficient, bitruss tiers, anomaly windows).
//!
//! The circuit enumerates the butterflies a mutation creates or destroys
//! **once** — with [`for_each_butterfly_with_edge`] against the pre-insert /
//! post-delete graph, the same orientation the exact oracle counts with —
//! and fans the `(x, w)` partner pairs out to every view that wants them, so
//! adding a view costs only its fold, not another enumeration.  State that
//! several views read is circuit-owned and folded once: the graph replica,
//! and the per-edge support map ([`EdgeSupports`]) that the `peredge` and
//! `bitruss` views both report from.  Views are maintained inside `process`,
//! single-threaded and element-ordered, which makes their state independent
//! of the host estimator's chunk size and thread count by construction.
//!
//! ```
//! use abacus_core::circuit::{Circuit, ViewKind};
//! use abacus_core::{ButterflyCounter, ExactCounter};
//! use abacus_stream::StreamElement;
//! use abacus_graph::Edge;
//!
//! let mut circuit = Circuit::new(ExactCounter::new())
//!     .with_view(ViewKind::Clustering.build());
//! for (l, r) in [(0, 10), (0, 11), (1, 10), (1, 11)] {
//!     circuit.process(StreamElement::insert(Edge::new(l, r)));
//! }
//! assert_eq!(circuit.estimate(), 1.0);
//! assert_eq!(circuit.view_reports().len(), 1);
//! ```

mod views;

pub use views::{
    AnomalyView, BitrussView, ClusteringView, PerEdgeView, PerVertexView, DEFAULT_ANOMALY_WINDOW,
};

use crate::counter::ButterflyCounter;
use abacus_graph::persist::{Decoder, Encoder, PersistError};
use abacus_graph::{for_each_butterfly_with_edge, BipartiteGraph, Edge, EdgeSupports};
use abacus_stream::{DeltaEvent, DeltaView, StreamElement};

/// Every view the registry can build, in canonical presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKind {
    /// Per-edge butterfly supports ([`PerEdgeView`]).
    PerEdge,
    /// Per-vertex butterfly counts ([`PerVertexView`]).
    Vertex,
    /// Butterfly clustering coefficient ([`ClusteringView`]).
    Clustering,
    /// Bitruss-tier membership ([`BitrussView`]).
    Bitruss,
    /// Windowed anomaly series ([`AnomalyView`]).
    Anomaly,
}

impl ViewKind {
    /// Every kind, in canonical presentation order.
    pub const ALL: [ViewKind; 5] = [
        ViewKind::PerEdge,
        ViewKind::Vertex,
        ViewKind::Clustering,
        ViewKind::Bitruss,
        ViewKind::Anomaly,
    ];

    /// The canonical choice list, phrased for error messages — shared by the
    /// CLI's `--views` option so the two cannot drift apart.
    pub const EXPECTED_NAMES: &'static str =
        "peredge, vertex, clustering, bitruss, anomaly, or all";

    /// The canonical (lower-case) name, accepted by [`ViewKind::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ViewKind::PerEdge => "peredge",
            ViewKind::Vertex => "vertex",
            ViewKind::Clustering => "clustering",
            ViewKind::Bitruss => "bitruss",
            ViewKind::Anomaly => "anomaly",
        }
    }

    /// Parses a kind from its canonical name, case-insensitively.
    ///
    /// # Errors
    /// Returns [`ViewKind::EXPECTED_NAMES`] for anything unrecognised.
    pub fn parse(raw: &str) -> Result<Self, &'static str> {
        let lower = raw.trim().to_ascii_lowercase();
        ViewKind::ALL
            .into_iter()
            .find(|kind| kind.name() == lower)
            .ok_or(Self::EXPECTED_NAMES)
    }

    /// Parses a comma-separated view list (e.g. `peredge,vertex,anomaly`).
    ///
    /// `all` expands to every kind; duplicates collapse to their first
    /// occurrence so a view is never registered (and paid for) twice.
    ///
    /// # Errors
    /// Returns [`ViewKind::EXPECTED_NAMES`] when any entry is unrecognised.
    pub fn parse_list(raw: &str) -> Result<Vec<Self>, &'static str> {
        let mut kinds = Vec::new();
        for entry in raw.split(',') {
            if entry.trim().eq_ignore_ascii_case("all") {
                for kind in ViewKind::ALL {
                    if !kinds.contains(&kind) {
                        kinds.push(kind);
                    }
                }
                continue;
            }
            let kind = ViewKind::parse(entry)?;
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        Ok(kinds)
    }

    /// Builds the described view with its registry defaults (the anomaly
    /// view snapshots every [`DEFAULT_ANOMALY_WINDOW`] elements; construct
    /// [`AnomalyView`] directly for a custom window).
    #[must_use]
    pub fn build(self) -> Box<dyn DeltaView + Send> {
        match self {
            ViewKind::PerEdge => Box::new(PerEdgeView),
            ViewKind::Vertex => Box::new(PerVertexView::new()),
            ViewKind::Clustering => Box::new(ClusteringView::new()),
            ViewKind::Bitruss => Box::new(BitrussView),
            ViewKind::Anomaly => Box::new(AnomalyView::default()),
        }
    }
}

impl std::str::FromStr for ViewKind {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        ViewKind::parse(raw)
    }
}

impl std::fmt::Display for ViewKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A delta circuit: an estimator plus an authoritative graph fanning each
/// element's delta out to subscribed views, with the per-edge support map
/// its support-reading views share.
///
/// The circuit is itself a [`ButterflyCounter`], so it slots into every
/// driver in the workspace (sources, the CLI, the bench harness)
/// wherever the bare estimator would.  `estimate`/`finish` delegate to the
/// wrapped estimator; `memory_edges` additionally charges the authoritative
/// graph the views fold against and the per-edge support map, one entry per
/// live edge while a view reads it.
pub struct Circuit<C: ButterflyCounter> {
    estimator: C,
    graph: BipartiteGraph,
    supports: EdgeSupports,
    views: Vec<Box<dyn DeltaView + Send>>,
    scratch: Vec<(u32, u32)>,
    elements: u64,
    wants_supports: bool,
    wants_pairs: bool,
    wants_graph: bool,
}

impl<C: ButterflyCounter> std::fmt::Debug for Circuit<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("estimator", &self.estimator.name())
            .field(
                "views",
                &self.views.iter().map(|v| v.name()).collect::<Vec<_>>(),
            )
            .field("edges", &self.graph.num_edges())
            .field("elements", &self.elements)
            .finish()
    }
}

impl<C: ButterflyCounter> Circuit<C> {
    /// Wraps `estimator` in a circuit with no views subscribed yet.
    #[must_use]
    pub fn new(estimator: C) -> Self {
        Circuit {
            estimator,
            graph: BipartiteGraph::new(),
            supports: EdgeSupports::new(),
            views: Vec::new(),
            scratch: Vec::new(),
            elements: 0,
            wants_supports: false,
            wants_pairs: false,
            wants_graph: false,
        }
    }

    /// Builder-style [`add_view`](Self::add_view).
    #[must_use]
    pub fn with_view(mut self, view: Box<dyn DeltaView + Send>) -> Self {
        self.add_view(view);
        self
    }

    /// Subscribes a view.  Views folded from element 0 onward stay bit-exact
    /// with offline recomputation; subscribing mid-stream is allowed but the
    /// view then only reflects deltas from this point on.
    ///
    /// Every maintenance cost is demand-driven: the per-edge support map is
    /// folded only once a view with [`needs_supports`] subscribes, butterfly
    /// enumeration runs only once a view with [`needs_butterflies`] (or
    /// [`needs_supports`] — the fold consumes the enumeration) subscribes,
    /// and the authoritative graph replica is maintained only once a view
    /// that enumerates or has [`needs_graph`] subscribes.  A replica-free
    /// circuit (e.g. anomaly-only) cannot detect duplicate inserts or absent
    /// deletes and reports every element as applied, which is exactly what
    /// its estimate-only views expect.
    ///
    /// Support-reading views share one map, which starts empty and is folded
    /// from the element after the *first* of them subscribes.  A second one
    /// subscribed later reads that same map, deltas since the first
    /// subscription included, so it is exactly as current as the first.
    ///
    /// [`needs_supports`]: DeltaView::needs_supports
    /// [`needs_butterflies`]: DeltaView::needs_butterflies
    /// [`needs_graph`]: DeltaView::needs_graph
    pub fn add_view(&mut self, view: Box<dyn DeltaView + Send>) {
        let supports = view.needs_supports();
        let pairs = supports || view.needs_butterflies();
        self.wants_supports |= supports;
        self.wants_pairs |= pairs;
        self.wants_graph |= pairs || view.needs_graph();
        self.views.push(view);
    }

    /// The wrapped estimator.
    #[must_use]
    pub fn estimator(&self) -> &C {
        &self.estimator
    }

    /// The authoritative graph (every applied insertion minus every applied
    /// deletion, i.e. the current edge relation of the stream).  Stays empty
    /// when no subscribed view needs it — replica maintenance is
    /// demand-driven (see [`add_view`](Self::add_view)).
    #[must_use]
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The per-edge butterfly support map, folded once per applied element
    /// for every subscribed view that
    /// [`needs_supports`](DeltaView::needs_supports).  Stays empty when no
    /// subscribed view reads it (see [`add_view`](Self::add_view)).
    #[must_use]
    pub fn supports(&self) -> &EdgeSupports {
        &self.supports
    }

    /// Stream elements processed so far.
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// The subscribed views, in subscription order.
    #[must_use]
    pub fn views(&self) -> &[Box<dyn DeltaView + Send>] {
        &self.views
    }

    /// One `(name, lines)` report per subscribed view, evaluated against the
    /// circuit's current graph and support map.
    #[must_use]
    pub fn view_reports(&self) -> Vec<(&'static str, Vec<String>)> {
        self.views
            .iter()
            .map(|view| (view.name(), view.report(&self.graph, &self.supports)))
            .collect()
    }

    /// The first subscribed view of concrete type `V`, if any — the typed
    /// hatch parity tests and report paths use to read maintained state.
    #[must_use]
    pub fn view_state<V: 'static>(&self) -> Option<&V> {
        self.views
            .iter()
            .find_map(|view| view.as_any().downcast_ref::<V>())
    }

    /// Consumes the circuit and returns the wrapped estimator.
    #[must_use]
    pub fn into_estimator(self) -> C {
        self.estimator
    }

    fn fan_out(&mut self, element: StreamElement, applied: bool) {
        let event = DeltaEvent {
            element,
            applied,
            graph: &self.graph,
            butterflies: &self.scratch,
            estimate: self.estimator.estimate(),
            elements: self.elements,
        };
        for view in &mut self.views {
            view.apply_delta(&event);
        }
    }

    /// Enumerates the applied element's butterflies into the scratch pairs
    /// and folds them into the shared support map when a view reads it.
    fn enumerate_pairs(&mut self, element: StreamElement) {
        let scratch = &mut self.scratch;
        for_each_butterfly_with_edge(&self.graph, element.edge, &mut |x, w| {
            scratch.push((x, w));
        });
        if self.wants_supports {
            if element.delta.is_insert() {
                self.supports.apply_insert(element.edge, &self.scratch);
            } else {
                self.supports.apply_delete(element.edge, &self.scratch);
            }
        }
    }
}

impl<C: ButterflyCounter + 'static> ButterflyCounter for Circuit<C> {
    /// Processes one element: estimator first, then the view fan-out, with
    /// the graph mutated in the exact oracle's orientation — insertions are
    /// enumerated and fanned out against the graph *without* the new edge
    /// (it is inserted after), deletions against the graph with the edge
    /// already removed.  When no subscribed view needs the graph the replica
    /// is skipped and every element fans out as applied.
    fn process(&mut self, element: StreamElement) {
        self.elements += 1;
        self.scratch.clear();
        if !self.wants_graph {
            // Replica-free fast path: no subscribed view reads the graph or
            // the applied flag, so skip replica maintenance entirely.
            self.estimator.process(element);
            self.fan_out(element, true);
            return;
        }
        if element.delta.is_insert() {
            let applied = !self.graph.has_edge(element.edge);
            if applied && self.wants_pairs {
                self.enumerate_pairs(element);
            }
            self.estimator.process(element);
            self.fan_out(element, applied);
            if applied {
                self.graph.insert_edge(element.edge);
            }
        } else {
            let applied = self.graph.delete_edge(element.edge);
            if applied && self.wants_pairs {
                self.enumerate_pairs(element);
            }
            self.estimator.process(element);
            self.fan_out(element, applied);
        }
    }

    fn estimate(&self) -> f64 {
        self.estimator.estimate()
    }

    fn finish(&mut self) -> f64 {
        let estimate = self.estimator.finish();
        for view in &mut self.views {
            view.finish(estimate);
        }
        estimate
    }

    fn preferred_chunk(&self) -> usize {
        self.estimator.preferred_chunk()
    }

    fn memory_edges(&self) -> usize {
        // The support map stays empty unless a view reads it.
        self.estimator.memory_edges() + self.graph.num_edges() + self.supports.len()
    }

    fn name(&self) -> &'static str {
        self.estimator.name()
    }

    /// Returns the *circuit*, so front ends can reach
    /// [`view_reports`](Self::view_reports) /
    /// [`view_state`](Self::view_state); the wrapped estimator stays
    /// reachable through [`estimator`](Self::estimator).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn subscribe_view(
        &mut self,
        view: Box<dyn DeltaView + Send>,
    ) -> Result<(), Box<dyn DeltaView + Send>> {
        self.add_view(view);
        Ok(())
    }

    /// Serializes the wrapped estimator, the authoritative graph (as a sorted
    /// edge list — hash order is history-dependent) and the subscribed view
    /// roster.  Graph-derived states — the views' and the shared support
    /// map — are *not* carried: they are pure functions of the graph and are
    /// recomputed offline on restore, exact by each state's parity contract.
    /// Only the anomaly series — pure history — travels in the payload.
    /// Circuits holding a view outside the [`ViewKind`] registry cannot be
    /// checkpointed.
    fn save_state(&mut self) -> Result<Vec<u8>, PersistError> {
        for view in &self.views {
            if ViewKind::parse(view.name()).is_err() {
                return Err(PersistError::Unsupported(
                    "circuit with a view outside the ViewKind registry",
                ));
            }
        }
        let inner = self.estimator.save_state()?;
        let mut enc = Encoder::new();
        enc.put_bytes(&inner);
        enc.put_u64(self.elements);
        let mut edges: Vec<Edge> = self.graph.edges().collect();
        edges.sort_unstable_by_key(|e| (e.left, e.right));
        enc.put_usize(edges.len());
        for edge in edges {
            enc.put_u32(edge.left);
            enc.put_u32(edge.right);
        }
        enc.put_usize(self.views.len());
        for view in &self.views {
            enc.put_str(view.name());
            if let Some(anomaly) = view.as_any().downcast_ref::<AnomalyView>() {
                let mut payload = Encoder::new();
                crate::persist::encode_series(&mut payload, anomaly.series());
                enc.put_bytes(&payload.finish());
            } else {
                enc.put_bytes(&[]);
            }
        }
        Ok(enc.finish())
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), PersistError> {
        let mut dec = Decoder::new(state);
        let inner = dec.get_bytes()?;
        let elements = dec.get_u64()?;
        let num_edges = dec.get_usize()?;
        if num_edges > dec.remaining() / 8 {
            return Err(PersistError::Truncated(format!(
                "circuit edge list claims {num_edges} edges, payload holds at most {}",
                dec.remaining() / 8
            )));
        }
        let mut graph = BipartiteGraph::new();
        for _ in 0..num_edges {
            let edge = Edge::new(dec.get_u32()?, dec.get_u32()?);
            if !graph.insert_edge(edge) {
                return Err(PersistError::Corrupt(
                    "duplicate edge in circuit edge list".into(),
                ));
            }
        }
        let num_views = dec.get_usize()?;
        if num_views != self.views.len() {
            return Err(PersistError::Corrupt(format!(
                "circuit snapshot holds {num_views} views, this circuit has {}",
                self.views.len()
            )));
        }
        // Stage the replacement views before mutating anything, so a corrupt
        // tail leaves the circuit untouched.
        let mut restored: Vec<Box<dyn DeltaView + Send>> = Vec::with_capacity(num_views);
        for view in &self.views {
            let name = dec.get_str()?;
            if name != view.name() {
                return Err(PersistError::Corrupt(format!(
                    "circuit snapshot lists view '{name}' where this circuit has '{}'",
                    view.name()
                )));
            }
            let payload = dec.get_bytes()?;
            let kind = ViewKind::parse(name).map_err(|_| {
                PersistError::Corrupt(format!("unknown view '{name}' in circuit snapshot"))
            })?;
            let replacement: Box<dyn DeltaView + Send> = match kind {
                ViewKind::Anomaly => {
                    let mut payload_dec = Decoder::new(payload);
                    let series = crate::persist::decode_series(&mut payload_dec)?;
                    payload_dec.expect_end()?;
                    Box::new(AnomalyView::from_series(series))
                }
                graph_kind => {
                    if !payload.is_empty() {
                        return Err(PersistError::Corrupt(format!(
                            "view '{name}' carries {} payload bytes, expected none",
                            payload.len()
                        )));
                    }
                    match graph_kind {
                        ViewKind::PerEdge => Box::new(PerEdgeView),
                        ViewKind::Vertex => Box::new(PerVertexView::from_graph(&graph)),
                        ViewKind::Clustering => Box::new(ClusteringView::from_graph(&graph)),
                        ViewKind::Bitruss => Box::new(BitrussView),
                        ViewKind::Anomaly => {
                            return Err(PersistError::Invariant(
                                "the anomaly arm above decodes this kind",
                            ))
                        }
                    }
                }
            };
            restored.push(replacement);
        }
        dec.expect_end()?;
        self.estimator.restore_state(inner)?;
        self.elements = elements;
        self.supports = if self.wants_supports {
            EdgeSupports::recompute(&graph)
        } else {
            EdgeSupports::new()
        };
        self.graph = graph;
        self.views = restored;
        self.scratch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Abacus, AbacusConfig, ExactCounter};
    use abacus_graph::Edge;
    use abacus_graph::{
        bitruss_decomposition, butterfly_clustering_coefficient, EdgeSupports,
        VertexButterflyCounts,
    };
    use abacus_metrics::AnomalySeries;
    use abacus_stream::StreamElement;

    fn scripted_stream() -> Vec<StreamElement> {
        let mut stream = Vec::new();
        // Build K_{3,3}, poke holes, refill — exercising inserts, deletes,
        // duplicate inserts, and deletes of absent edges.
        for l in 0..3u32 {
            for r in 10..13u32 {
                stream.push(StreamElement::insert(Edge::new(l, r)));
            }
        }
        stream.push(StreamElement::insert(Edge::new(0, 10))); // duplicate
        stream.push(StreamElement::delete(Edge::new(1, 11)));
        stream.push(StreamElement::delete(Edge::new(1, 11))); // absent
        stream.push(StreamElement::delete(Edge::new(2, 12)));
        stream.push(StreamElement::insert(Edge::new(1, 11))); // refill
        stream
    }

    #[test]
    fn kinds_round_trip_and_lists_parse() {
        for kind in ViewKind::ALL {
            assert_eq!(ViewKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(kind.name().parse::<ViewKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
            assert!(ViewKind::EXPECTED_NAMES.contains(kind.name()));
        }
        assert_eq!(
            ViewKind::parse_list("peredge, VERTEX ,peredge").unwrap(),
            vec![ViewKind::PerEdge, ViewKind::Vertex]
        );
        assert_eq!(ViewKind::parse_list("all").unwrap(), ViewKind::ALL.to_vec());
        assert_eq!(
            ViewKind::parse_list("peredge,nope").unwrap_err(),
            ViewKind::EXPECTED_NAMES
        );
    }

    #[test]
    fn parse_list_edge_cases_fail_closed_or_dedup() {
        // The empty string and blank entries are *errors*, not empty lists:
        // `--views ""` almost certainly meant to name something, and
        // silently subscribing nothing would hide the typo.
        assert_eq!(
            ViewKind::parse_list("").unwrap_err(),
            ViewKind::EXPECTED_NAMES
        );
        assert_eq!(
            ViewKind::parse_list("  ").unwrap_err(),
            ViewKind::EXPECTED_NAMES
        );
        // A trailing comma produces a blank entry and fails the same way.
        assert_eq!(
            ViewKind::parse_list("peredge,").unwrap_err(),
            ViewKind::EXPECTED_NAMES
        );
        assert_eq!(
            ViewKind::parse_list("peredge,,vertex").unwrap_err(),
            ViewKind::EXPECTED_NAMES
        );
        // `all` plus a duplicate named view collapses to the canonical list:
        // the named duplicate keeps its first (expansion-order) slot.
        assert_eq!(
            ViewKind::parse_list("all,vertex").unwrap(),
            ViewKind::ALL.to_vec()
        );
        assert_eq!(
            ViewKind::parse_list("vertex,all").unwrap(),
            vec![
                ViewKind::Vertex,
                ViewKind::PerEdge,
                ViewKind::Clustering,
                ViewKind::Bitruss,
                ViewKind::Anomaly,
            ]
        );
        // `all` twice is idempotent.
        assert_eq!(
            ViewKind::parse_list("all,all").unwrap(),
            ViewKind::ALL.to_vec()
        );
    }

    #[test]
    fn circuit_matches_every_offline_recomputation_on_a_scripted_stream() {
        let mut circuit = Circuit::new(ExactCounter::new());
        for kind in ViewKind::ALL {
            assert!(circuit.subscribe_view(kind.build()).is_ok());
        }
        for &element in &scripted_stream() {
            circuit.process(element);
        }
        circuit.finish();

        let graph = circuit.graph();
        assert_eq!(*circuit.supports(), EdgeSupports::recompute(graph));
        let counts = circuit.view_state::<PerVertexView>().unwrap().counts();
        assert_eq!(*counts, VertexButterflyCounts::recompute(graph));
        let clustering = circuit.view_state::<ClusteringView>().unwrap().state();
        assert_eq!(
            clustering.coefficient().to_bits(),
            butterfly_clustering_coefficient(graph).to_bits()
        );
        assert_eq!(
            circuit.supports().decomposition(graph).tier_sizes(),
            bitruss_decomposition(graph).tier_sizes()
        );
        // The oracle estimator agrees with the circuit's own graph.
        assert_eq!(circuit.estimate(), counts.butterflies() as f64);
        assert_eq!(circuit.elements(), scripted_stream().len() as u64);
        // Every view produced a report line.
        let reports = circuit.view_reports();
        assert_eq!(reports.len(), ViewKind::ALL.len());
        assert!(reports.iter().all(|(_, lines)| !lines.is_empty()));
    }

    /// The reference is a windowed monitor written out: a bare series fed
    /// bare ABACUS's estimate after every element, then a forced snapshot
    /// of the finished estimate.
    #[test]
    fn anomaly_view_matches_the_windowed_monitor_bit_for_bit() {
        // A *valid* stream (no duplicate inserts / absent deletes): the
        // sampling estimators assert stream validity, and the parity must
        // hold on exactly the streams they accept.
        let mut stream = Vec::new();
        for l in 0..3u32 {
            for r in 10..13u32 {
                stream.push(StreamElement::insert(Edge::new(l, r)));
            }
        }
        stream.push(StreamElement::delete(Edge::new(1, 11)));
        stream.push(StreamElement::delete(Edge::new(2, 12)));
        stream.push(StreamElement::insert(Edge::new(1, 11)));
        let window = 4;

        let mut circuit = Circuit::new(Abacus::new(AbacusConfig::new(64).with_seed(9)))
            .with_view(Box::new(AnomalyView::new(window)));
        circuit.process_stream(&stream);

        let mut bare = Abacus::new(AbacusConfig::new(64).with_seed(9));
        let mut reference = AnomalySeries::new(window);
        for &element in &stream {
            bare.process(element);
            reference.observe(bare.estimate());
        }
        reference.force_snapshot(bare.finish());

        let view = circuit.view_state::<AnomalyView>().unwrap();
        assert_eq!(view.series().snapshots(), reference.snapshots());
        assert!(!view.series().snapshots().is_empty());
    }

    #[test]
    fn unapplied_elements_leave_graph_views_untouched_but_count_for_anomaly() {
        let mut circuit = Circuit::new(ExactCounter::new())
            .with_view(ViewKind::PerEdge.build())
            .with_view(Box::new(AnomalyView::new(1)));
        circuit.process(StreamElement::insert(Edge::new(0, 10)));
        circuit.process(StreamElement::insert(Edge::new(0, 10))); // duplicate
        circuit.process(StreamElement::delete(Edge::new(5, 50))); // absent
        assert_eq!(
            circuit.supports().len(),
            1,
            "only the applied insert is tracked"
        );
        let series = circuit.view_state::<AnomalyView>().unwrap().series();
        assert_eq!(series.elements(), 3, "anomaly view sees every element");
        assert_eq!(circuit.graph().num_edges(), 1);
    }

    #[test]
    fn circuit_skips_enumeration_when_no_view_needs_it() {
        // An anomaly-only circuit must not pay for butterfly enumeration:
        // with `wants_pairs` false the scratch stays empty even on a dense
        // insert, which we can observe through a probe view subscribed later.
        struct PairProbe {
            pairs: usize,
        }
        impl DeltaView for PairProbe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn needs_butterflies(&self) -> bool {
                false
            }
            fn apply_delta(&mut self, event: &DeltaEvent<'_>) {
                self.pairs += event.butterflies.len();
            }
            fn report(&self, _graph: &BipartiteGraph, _supports: &EdgeSupports) -> Vec<String> {
                Vec::new()
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut circuit =
            Circuit::new(ExactCounter::new()).with_view(Box::new(PairProbe { pairs: 0 }));
        for (l, r) in [(0, 10), (0, 11), (1, 10), (1, 11)] {
            circuit.process(StreamElement::insert(Edge::new(l, r)));
        }
        assert_eq!(circuit.view_state::<PairProbe>().unwrap().pairs, 0);
        assert_eq!(circuit.estimate(), 1.0, "the estimator still counts");
    }

    #[test]
    fn anomaly_only_circuits_skip_the_graph_replica() {
        // No subscribed view needs the graph, so the circuit should not pay
        // for replica maintenance — the graph stays empty, memory_edges
        // charges only the estimator, and the estimate is untouched.
        let mut circuit =
            Circuit::new(ExactCounter::new()).with_view(Box::new(AnomalyView::new(2)));
        for (l, r) in [(0, 10), (0, 11), (1, 10), (1, 11)] {
            circuit.process(StreamElement::insert(Edge::new(l, r)));
        }
        assert_eq!(
            circuit.graph().num_edges(),
            0,
            "replica maintenance skipped"
        );
        assert_eq!(circuit.estimate(), 1.0, "the estimator still counts");
        assert_eq!(circuit.memory_edges(), circuit.estimator().memory_edges());
        let series = circuit.view_state::<AnomalyView>().unwrap().series();
        assert_eq!(series.elements(), 4, "every element fans out as applied");
        // Subscribing a graph-needing view mid-stream flips maintenance on
        // for subsequent elements.
        circuit.add_view(ViewKind::PerEdge.build());
        circuit.process(StreamElement::insert(Edge::new(2, 12)));
        assert_eq!(circuit.graph().num_edges(), 1);
    }

    #[test]
    fn boxed_estimators_slot_into_the_circuit() {
        use crate::engine::EstimatorSpec;
        let mut circuit: Circuit<Box<dyn ButterflyCounter + Send>> =
            Circuit::new(EstimatorSpec::exact().build());
        circuit.add_view(ViewKind::Vertex.build());
        for (l, r) in [(0, 10), (0, 11), (1, 10), (1, 11)] {
            circuit.process(StreamElement::insert(Edge::new(l, r)));
        }
        assert_eq!(circuit.name(), "EXACT");
        assert_eq!(circuit.estimate(), 1.0);
        assert_eq!(
            circuit.memory_edges(),
            circuit.estimator().memory_edges() + 4
        );
        let counts = circuit.view_state::<PerVertexView>().unwrap().counts();
        assert_eq!(counts.butterflies(), 1);
    }

    /// `memory_edges` charges the graph replica, and the support map only
    /// while a view reads it: one entry per live edge.
    #[test]
    fn memory_edges_charge_the_support_map_when_a_view_reads_it() {
        let biclique = [(0, 10), (0, 11), (1, 10), (1, 11), (2, 10)];
        let mut without = Circuit::new(ExactCounter::new()).with_view(ViewKind::Vertex.build());
        let mut with = Circuit::new(ExactCounter::new())
            .with_view(ViewKind::Vertex.build())
            .with_view(ViewKind::PerEdge.build());
        for (l, r) in biclique {
            without.process(StreamElement::insert(Edge::new(l, r)));
            with.process(StreamElement::insert(Edge::new(l, r)));
        }
        let estimator = without.estimator().memory_edges();
        assert!(without.supports().is_empty());
        assert_eq!(without.memory_edges(), estimator + 5);
        assert_eq!(with.supports().len(), 5);
        assert_eq!(with.memory_edges(), estimator + 5 + 5);
        // A deleted edge leaves the replica and the map alike.
        with.process(StreamElement::delete(Edge::new(2, 10)));
        assert_eq!(with.memory_edges(), with.estimator().memory_edges() + 4 + 4);
    }

    /// A random stream over a small dense universe that also carries
    /// duplicate inserts and deletes of absent edges, which the exact
    /// oracle tolerates and the circuit must report as unapplied.
    fn noisy_stream(seed: u64, elements: usize) -> Vec<StreamElement> {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..elements)
            .map(|_| {
                let edge = Edge::new(rng.random_range(0..10u32), rng.random_range(0..10u32));
                if rng.random_bool(0.35) {
                    StreamElement::delete(edge)
                } else {
                    StreamElement::insert(edge)
                }
            })
            .collect()
    }

    /// The report line a view of `kind` prints for `graph`, rebuilt from
    /// offline recomputations.
    fn offline_report(kind: ViewKind, graph: &BipartiteGraph) -> Vec<String> {
        let supports = EdgeSupports::recompute(graph);
        let view: Box<dyn DeltaView + Send> = match kind {
            ViewKind::Vertex => Box::new(PerVertexView::from_graph(graph)),
            ViewKind::Clustering => Box::new(ClusteringView::from_graph(graph)),
            other => other.build(),
        };
        view.report(graph, &supports)
    }

    #[test]
    fn every_graph_view_subset_matches_offline_recomputation() {
        use abacus_graph::ClusteringState;
        let graph_kinds = [
            ViewKind::PerEdge,
            ViewKind::Vertex,
            ViewKind::Clustering,
            ViewKind::Bitruss,
        ];
        let stream = noisy_stream(17, 600);
        assert!(stream.iter().any(|e| e.delta.is_delete()));
        for mask in 1..(1u32 << graph_kinds.len()) {
            let kinds: Vec<ViewKind> = (0..graph_kinds.len())
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| graph_kinds[i])
                .collect();
            let mut circuit = Circuit::new(ExactCounter::new());
            for &kind in &kinds {
                circuit.add_view(kind.build());
            }
            let reads_supports =
                kinds.contains(&ViewKind::PerEdge) || kinds.contains(&ViewKind::Bitruss);
            for (i, &element) in stream.iter().enumerate() {
                circuit.process(element);
                if (i + 1) % 150 != 0 {
                    continue;
                }
                let context = format!("views {kinds:?} after element {}", i + 1);
                let graph = circuit.graph();
                if reads_supports {
                    assert_eq!(
                        *circuit.supports(),
                        EdgeSupports::recompute(graph),
                        "{context}"
                    );
                } else {
                    assert!(
                        circuit.supports().is_empty(),
                        "{context}: unread map folded"
                    );
                }
                if let Some(view) = circuit.view_state::<PerVertexView>() {
                    assert_eq!(
                        *view.counts(),
                        VertexButterflyCounts::recompute(graph),
                        "{context}"
                    );
                }
                if let Some(view) = circuit.view_state::<ClusteringView>() {
                    assert_eq!(
                        *view.state(),
                        ClusteringState::recompute(graph),
                        "{context}"
                    );
                }
                let reports = circuit.view_reports();
                assert_eq!(reports.len(), kinds.len(), "{context}");
                for (&kind, (name, lines)) in kinds.iter().zip(&reports) {
                    assert_eq!(*name, kind.name(), "{context}");
                    assert_eq!(*lines, offline_report(kind, graph), "{context}: {kind}");
                }
            }
        }
    }

    #[test]
    fn support_views_read_one_circuit_owned_map() {
        // The built-in support readers hold nothing of their own, so the
        // circuit's map is the only one however many of them subscribe.
        assert_eq!(size_of::<PerEdgeView>(), 0);
        assert_eq!(size_of::<BitrussView>(), 0);

        /// Reports the address of the support map it is handed.
        struct AddressProbe;
        impl DeltaView for AddressProbe {
            fn name(&self) -> &'static str {
                "address"
            }
            fn needs_supports(&self) -> bool {
                true
            }
            fn apply_delta(&mut self, _event: &DeltaEvent<'_>) {}
            fn report(&self, _graph: &BipartiteGraph, supports: &EdgeSupports) -> Vec<String> {
                vec![format!("{supports:p}")]
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut circuit = Circuit::new(ExactCounter::new())
            .with_view(ViewKind::PerEdge.build())
            .with_view(Box::new(AddressProbe))
            .with_view(ViewKind::Bitruss.build())
            .with_view(Box::new(AddressProbe));
        circuit.process_stream(&noisy_stream(3, 200));
        let shared = format!("{:p}", circuit.supports());
        let addresses: Vec<Vec<String>> = circuit
            .view_reports()
            .into_iter()
            .filter(|(name, _)| *name == "address")
            .map(|(_, lines)| lines)
            .collect();
        assert_eq!(addresses, vec![vec![shared.clone()], vec![shared]]);
        assert_eq!(
            *circuit.supports(),
            EdgeSupports::recompute(circuit.graph())
        );
    }

    #[test]
    fn a_second_support_view_reads_the_map_kept_since_the_first_subscribed() {
        let stream = noisy_stream(29, 400);
        let (early, late) = stream.split_at(250);

        // Subscribed from element 0, the map is exact, so a bitruss view
        // subscribed mid-stream reports the offline decomposition at once.
        let mut circuit = Circuit::new(ExactCounter::new()).with_view(ViewKind::PerEdge.build());
        circuit.process_stream(early);
        circuit.add_view(ViewKind::Bitruss.build());
        assert_eq!(
            circuit.view_reports()[1].1,
            offline_report(ViewKind::Bitruss, circuit.graph())
        );
        circuit.process_stream(late);
        let graph = circuit.graph();
        assert_eq!(*circuit.supports(), EdgeSupports::recompute(graph));
        assert_eq!(
            circuit.view_reports()[1].1,
            offline_report(ViewKind::Bitruss, graph)
        );

        // When the first support view itself arrives mid-stream, the map
        // holds only the deltas since then; a later second reader neither
        // resets nor forks it.
        let partial = |second: bool| {
            let mut circuit = Circuit::new(ExactCounter::new()).with_view(ViewKind::Vertex.build());
            circuit.process_stream(&stream[..100]);
            circuit.add_view(ViewKind::PerEdge.build());
            circuit.process_stream(&stream[100..250]);
            if second {
                circuit.add_view(ViewKind::Bitruss.build());
            }
            circuit.process_stream(late);
            circuit.supports().clone()
        };
        assert_eq!(partial(true), partial(false));
    }
}
