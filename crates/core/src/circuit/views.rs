//! The built-in [`DeltaView`] implementations the circuit registry offers.
//!
//! Most views are thin adapters folding [`DeltaEvent`]s into one of the
//! delta-maintained states in `abacus-graph` (or, for the anomaly view, the
//! windowed series in `abacus-metrics`).  The states own the incremental
//! arithmetic and its bit-parity contract with offline recomputation; the
//! adapters own the event plumbing — which events to ignore, which side of
//! the enumeration to feed where, and how to phrase a report line.
//!
//! The per-edge and bitruss views hold no state of their own: both read the
//! one [`EdgeSupports`] map the circuit folds for every view that
//! [`needs_supports`](DeltaView::needs_supports), the way the graph-reading
//! views share the circuit's graph replica.

use abacus_graph::{BipartiteGraph, ClusteringState, EdgeSupports, Side, VertexButterflyCounts};
use abacus_metrics::AnomalySeries;
use abacus_stream::{DeltaEvent, DeltaView};
use std::any::Any;

/// Snapshot cadence (in stream elements) of an [`AnomalyView`] built through
/// the registry ([`ViewKind::build`](crate::circuit::ViewKind::build)).
pub const DEFAULT_ANOMALY_WINDOW: usize = 1_024;

/// Live per-edge butterfly supports (view `peredge`).
///
/// Reports the circuit's [`EdgeSupports`] — the support of every live edge,
/// the input to bitruss peeling — which bit-matches
/// `abacus_graph::bitruss::edge_supports` on the circuit's graph at every
/// element.  Read the map itself through
/// [`Circuit::supports`](crate::circuit::Circuit::supports).
#[derive(Debug, Clone, Copy)]
pub struct PerEdgeView;

impl DeltaView for PerEdgeView {
    fn name(&self) -> &'static str {
        "peredge"
    }

    fn needs_supports(&self) -> bool {
        true
    }

    fn apply_delta(&mut self, _event: &DeltaEvent<'_>) {}

    fn report(&self, _graph: &BipartiteGraph, supports: &EdgeSupports) -> Vec<String> {
        let peak = supports.max_support().map_or_else(
            || "-".to_string(),
            |(e, s)| format!("{s} on ({}, {})", e.left, e.right),
        );
        vec![format!(
            "{} live edges, total support {}, max support {peak}",
            supports.len(),
            supports.total_support(),
        )]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Live per-vertex butterfly counts (view `vertex`).
///
/// Maintains [`VertexButterflyCounts`] and bit-matches
/// `count_butterflies_per_side_vertex` on both partitions.
#[derive(Debug, Default)]
pub struct PerVertexView {
    counts: VertexButterflyCounts,
}

impl PerVertexView {
    /// An empty per-vertex view.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A view recomputed offline from `graph` (the restore path).
    #[must_use]
    pub fn from_graph(graph: &BipartiteGraph) -> Self {
        PerVertexView {
            counts: VertexButterflyCounts::recompute(graph),
        }
    }

    /// The maintained per-vertex counts.
    #[must_use]
    pub fn counts(&self) -> &VertexButterflyCounts {
        &self.counts
    }
}

impl DeltaView for PerVertexView {
    fn name(&self) -> &'static str {
        "vertex"
    }

    fn apply_delta(&mut self, event: &DeltaEvent<'_>) {
        if !event.applied {
            return;
        }
        if event.element.delta.is_insert() {
            self.counts
                .apply_insert(event.element.edge, event.butterflies);
        } else {
            self.counts
                .apply_delete(event.element.edge, event.butterflies);
        }
    }

    fn report(&self, _graph: &BipartiteGraph, _supports: &EdgeSupports) -> Vec<String> {
        let hot = |side: Side| {
            self.counts
                .max_vertex(side)
                .map_or_else(|| "-".to_string(), |(id, c)| format!("{side}{id} ({c})"))
        };
        vec![format!(
            "{} butterflies, hottest left {}, hottest right {}",
            self.counts.butterflies(),
            hot(Side::Left),
            hot(Side::Right),
        )]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Live butterfly clustering coefficient (view `clustering`).
///
/// Maintains [`ClusteringState`] (exact butterfly and caterpillar totals);
/// its `coefficient()` bit-matches `butterfly_clustering_coefficient`.
#[derive(Debug, Default)]
pub struct ClusteringView {
    state: ClusteringState,
}

impl ClusteringView {
    /// An empty clustering view.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A view recomputed offline from `graph` (the restore path).
    #[must_use]
    pub fn from_graph(graph: &BipartiteGraph) -> Self {
        ClusteringView {
            state: ClusteringState::recompute(graph),
        }
    }

    /// The maintained butterfly / caterpillar totals.
    #[must_use]
    pub fn state(&self) -> &ClusteringState {
        &self.state
    }
}

impl DeltaView for ClusteringView {
    fn name(&self) -> &'static str {
        "clustering"
    }

    fn apply_delta(&mut self, event: &DeltaEvent<'_>) {
        if !event.applied {
            return;
        }
        let wings = event.butterflies.len() as u64;
        if event.element.delta.is_insert() {
            self.state
                .apply_insert(event.graph, event.element.edge, wings);
        } else {
            self.state
                .apply_delete(event.graph, event.element.edge, wings);
        }
    }

    fn report(&self, _graph: &BipartiteGraph, _supports: &EdgeSupports) -> Vec<String> {
        vec![format!(
            "coefficient {:.6} ({} butterflies / {} caterpillars)",
            self.state.coefficient(),
            self.state.butterflies(),
            self.state.caterpillars(),
        )]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Live bitruss-tier membership (view `bitruss`).
///
/// Reads the circuit's [`EdgeSupports`] and peels the decomposition at
/// report time ([`EdgeSupports::decomposition`]).  Bitruss numbers are a
/// global fixpoint with no cheap per-edge patch, so the supports are the
/// part worth maintaining: with them the peel skips the support pass.
#[derive(Debug, Clone, Copy)]
pub struct BitrussView;

impl DeltaView for BitrussView {
    fn name(&self) -> &'static str {
        "bitruss"
    }

    fn needs_supports(&self) -> bool {
        true
    }

    fn apply_delta(&mut self, _event: &DeltaEvent<'_>) {}

    fn report(&self, graph: &BipartiteGraph, supports: &EdgeSupports) -> Vec<String> {
        let tiers = supports.decomposition(graph).tier_sizes();
        let top = tiers.last().map_or_else(
            || "-".to_string(),
            |&(k, n)| format!("{k}-bitruss ({n} edges)"),
        );
        vec![format!("{} tiers, innermost {top}", tiers.len())]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Windowed estimate series with burst detection (view `anomaly`).
///
/// Feeds the hosting estimator's running estimate into an [`AnomalySeries`],
/// so registering this view on a circuit produces bit-identical snapshots
/// to feeding a bare series the same estimator's estimate after every
/// element and forcing a snapshot at `finish`.  Unlike the graph-derived
/// views it observes *every* stream element (duplicate inserts and absent
/// deletes included), keeping its windows element-aligned with the stream.
#[derive(Debug)]
pub struct AnomalyView {
    series: AnomalySeries,
}

impl AnomalyView {
    /// A view that snapshots every `window` elements.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize) -> Self {
        AnomalyView {
            series: AnomalySeries::new(window),
        }
    }

    /// Sets the burst-detection factor (see
    /// [`AnomalySeries::with_burst_factor`]).
    #[must_use]
    pub fn with_burst_factor(mut self, factor: f64) -> Self {
        self.series = self.series.with_burst_factor(factor);
        self
    }

    /// The recorded windowed series.
    #[must_use]
    pub fn series(&self) -> &AnomalySeries {
        &self.series
    }

    /// A view resuming a previously recorded series (the restore path —
    /// unlike the graph-derived views this one's state is pure history and
    /// cannot be recomputed, so it is carried in the snapshot).
    #[must_use]
    pub fn from_series(series: AnomalySeries) -> Self {
        AnomalyView { series }
    }
}

impl Default for AnomalyView {
    fn default() -> Self {
        AnomalyView::new(DEFAULT_ANOMALY_WINDOW)
    }
}

impl DeltaView for AnomalyView {
    fn name(&self) -> &'static str {
        "anomaly"
    }

    fn needs_butterflies(&self) -> bool {
        false
    }

    fn needs_graph(&self) -> bool {
        false
    }

    fn apply_delta(&mut self, event: &DeltaEvent<'_>) {
        self.series.observe(event.estimate);
    }

    fn finish(&mut self, estimate: f64) {
        self.series.force_snapshot(estimate);
    }

    fn report(&self, _graph: &BipartiteGraph, _supports: &EdgeSupports) -> Vec<String> {
        let anomalies = self.series.anomalous_windows();
        let last = self
            .series
            .snapshots()
            .last()
            .map_or_else(|| "-".to_string(), |s| format!("{:.1}", s.estimate));
        vec![format!(
            "{} windows of {}, {} anomalous, last estimate {last}",
            self.series.snapshots().len(),
            self.series.window(),
            anomalies.len(),
        )]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
