//! The view half of the incremental delta circuit.
//!
//! A fully dynamic stream element is a weight-±1 delta on the edge relation
//! (the DBSP/ZSet view of Definition 1), and every derived quantity beyond
//! the global estimate — per-edge supports, per-vertex counts, clustering
//! coefficient, bitruss tiers, anomaly windows — can be maintained by folding
//! those deltas instead of recomputing offline.  [`DeltaView`] is the
//! interface such a consumer implements; the delta circuit in `abacus-core`
//! owns the authoritative graph and the per-edge support map, enumerates each
//! mutation's butterflies once, and fans the resulting [`DeltaEvent`] out to
//! every subscribed view.
//!
//! The trait lives here (not in `abacus-core`) because it is part of the
//! counter contract: [`ButterflyCounter::subscribe_view`] is the hook through
//! which a driver asks any estimator whether it can host views, and the
//! element/graph types a view consumes are this crate's and `abacus-graph`'s.
//!
//! [`ButterflyCounter::subscribe_view`]: crate::counter::ButterflyCounter::subscribe_view

use crate::element::StreamElement;
use abacus_graph::{BipartiteGraph, EdgeSupports};
use std::any::Any;

/// One graph mutation, fanned out by the delta circuit to every view.
///
/// The borrow conventions mirror the exact oracle's processing order:
///
/// * for an **insertion**, `graph` is the pre-insert graph (the edge is added
///   after the fan-out), so degree-dependent deltas see the state the
///   butterflies were enumerated against;
/// * for a **deletion**, `graph` is the post-delete graph (the edge was
///   removed before the fan-out).
///
/// Either way `graph` does *not* contain `element.edge`, and `butterflies`
/// holds the `(x, w)` partner pairs of every butterfly the mutation creates
/// or destroys, exactly as enumerated by
/// [`for_each_butterfly_with_edge`](abacus_graph::for_each_butterfly_with_edge).
#[derive(Debug)]
pub struct DeltaEvent<'a> {
    /// The stream element being applied.
    pub element: StreamElement,
    /// Whether the element actually mutated the graph.  `false` for a
    /// duplicate insertion or a deletion of an absent edge: the graph (and
    /// thus every graph-derived quantity) is unchanged, so graph-maintaining
    /// views must ignore the event, while element-counting views (the anomaly
    /// series) still observe it.
    pub applied: bool,
    /// The authoritative graph, pre-insert / post-delete (see above).
    pub graph: &'a BipartiteGraph,
    /// `(x, w)` butterfly partner pairs of the mutated edge `{u, v}`: each
    /// pair completes one butterfly `{u, v, x, w}`.  Empty when `applied` is
    /// `false` or when no subscribed view asked for enumeration.
    pub butterflies: &'a [(u32, u32)],
    /// The hosting estimator's running estimate after this element.
    pub estimate: f64,
    /// Stream elements processed so far, including this one.
    pub elements: u64,
}

/// An incrementally maintained consumer of graph deltas.
///
/// Implementations fold one [`DeltaEvent`] at a time and must stay bit-exact
/// with their offline recomputation on the same graph — the contract enforced
/// by `tests/view_parity.rs`.
pub trait DeltaView {
    /// Short name used for CLI registration and report lines.
    fn name(&self) -> &'static str;

    /// Whether this view needs the `butterflies` enumeration.  Views that
    /// only read the estimate or degrees return `false`; the circuit skips
    /// the per-edge enumeration entirely when no subscribed view needs it.
    fn needs_butterflies(&self) -> bool {
        true
    }

    /// Whether this view reads the authoritative graph replica (`event.graph`
    /// or the `applied` flag, which is derived from it).  Views that consume
    /// only the estimate and element count return `false`; when *no*
    /// subscribed view needs the replica the circuit skips graph maintenance
    /// entirely and reports every element as `applied`.  Needing butterflies
    /// implies needing the graph — enumeration runs against the replica — so
    /// the circuit ORs the two flags.
    fn needs_graph(&self) -> bool {
        true
    }

    /// Whether this view reads the per-edge butterfly supports handed to
    /// [`report`](Self::report).  The circuit folds one shared
    /// [`EdgeSupports`] map per applied element once any subscribed view
    /// asks for it, so several readers of the supports cost one fold.
    /// Folding needs the enumeration, so the circuit ORs this flag into
    /// [`needs_butterflies`](Self::needs_butterflies) and
    /// [`needs_graph`](Self::needs_graph).
    fn needs_supports(&self) -> bool {
        false
    }

    /// Folds one delta into the view's state.
    fn apply_delta(&mut self, event: &DeltaEvent<'_>);

    /// Called once when the hosting estimator finishes, with the final
    /// (flushed) estimate — the hook the anomaly view uses to record a
    /// trailing partial window.
    fn finish(&mut self, estimate: f64) {
        let _ = estimate;
    }

    /// Human-readable summary lines for the end-of-run report, evaluated
    /// against the final `graph` and the circuit's per-edge `supports`
    /// (empty unless some subscribed view
    /// [`needs_supports`](Self::needs_supports)).
    fn report(&self, graph: &BipartiteGraph, supports: &EdgeSupports) -> Vec<String>;

    /// Concrete-type access for callers that need the maintained state back
    /// (parity tests, the CLI report path).
    fn as_any(&self) -> &dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_graph::Edge;

    struct CountingView {
        deltas: usize,
        finished: Option<f64>,
    }

    impl DeltaView for CountingView {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn apply_delta(&mut self, event: &DeltaEvent<'_>) {
            assert!(!event.graph.has_edge(event.element.edge));
            self.deltas += 1;
        }
        fn finish(&mut self, estimate: f64) {
            self.finished = Some(estimate);
        }
        fn report(&self, _graph: &BipartiteGraph, _supports: &EdgeSupports) -> Vec<String> {
            vec![format!("{} deltas", self.deltas)]
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn view_contract_defaults() {
        let mut view = CountingView {
            deltas: 0,
            finished: None,
        };
        assert!(view.needs_butterflies());
        assert!(view.needs_graph());
        assert!(!view.needs_supports());
        let graph = BipartiteGraph::new();
        let event = DeltaEvent {
            element: StreamElement::insert(Edge::new(0, 1)),
            applied: true,
            graph: &graph,
            butterflies: &[],
            estimate: 0.0,
            elements: 1,
        };
        view.apply_delta(&event);
        view.finish(42.0);
        assert_eq!(view.deltas, 1);
        assert_eq!(view.finished, Some(42.0));
        assert_eq!(
            view.report(&graph, &EdgeSupports::new()),
            vec!["1 deltas".to_string()]
        );
        assert!(view.as_any().downcast_ref::<CountingView>().is_some());
    }
}
