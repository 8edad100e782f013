//! Tests of windowed monitoring of a streaming butterfly estimate.
//!
//! Monitoring an estimator over windows of stream elements is a
//! [`Circuit`](crate::Circuit) hosting an
//! [`AnomalyView`](crate::circuit::AnomalyView): every processed element
//! feeds the estimator's estimate into the view's `AnomalySeries`, and the
//! circuit's `finish` forces a snapshot of the last partial window.  These
//! tests check that path end to end; the series' own rules are tested in
//! `abacus_metrics::anomaly`.

#[cfg(test)]
mod tests {
    use crate::circuit::AnomalyView;
    use crate::{Abacus, AbacusConfig, ButterflyCounter, Circuit, ParAbacus, ParAbacusConfig};
    use abacus_graph::Edge;
    use abacus_metrics::AnomalySeries;
    use abacus_stream::StreamElement;

    fn biclique_stream(lefts: u32, rights: u32) -> Vec<StreamElement> {
        let mut out = Vec::new();
        for l in 0..lefts {
            for r in 0..rights {
                out.push(StreamElement::insert(Edge::new(l, 1_000 + r)));
            }
        }
        out
    }

    fn series<C: ButterflyCounter>(circuit: &Circuit<C>) -> &AnomalySeries {
        circuit.view_state::<AnomalyView>().unwrap().series()
    }

    #[test]
    fn snapshots_are_taken_per_window() {
        let abacus = Abacus::new(AbacusConfig::new(1_000).with_seed(0));
        let mut circuit = Circuit::new(abacus).with_view(Box::new(AnomalyView::new(10)));
        let stream = biclique_stream(5, 8); // 40 elements
        circuit.process_stream(&stream);
        let snapshots = series(&circuit).snapshots();
        assert_eq!(snapshots.len(), 4);
        assert_eq!(snapshots[3].elements, 40);
        // Estimates are non-decreasing for an insert-only stream with a
        // covering budget, and the final one matches the wrapped estimator.
        assert!(snapshots.windows(2).all(|w| w[1].estimate >= w[0].estimate));
        assert_eq!(snapshots.last().unwrap().estimate, circuit.estimate());
        assert_eq!(circuit.name(), "ABACUS");
        // An anomaly-only circuit keeps no graph replica or support map.
        assert!(circuit.memory_edges() <= 1_000);
    }

    #[test]
    fn partial_windows_can_be_snapshotted_manually() {
        let abacus = Abacus::new(AbacusConfig::new(100).with_seed(0));
        let mut circuit = Circuit::new(abacus).with_view(Box::new(AnomalyView::new(1_000)));
        for element in biclique_stream(3, 3) {
            circuit.process(element);
        }
        assert!(series(&circuit).snapshots().is_empty());
        circuit.finish();
        assert_eq!(series(&circuit).snapshots().len(), 1);
        assert_eq!(series(&circuit).snapshots()[0].elements, 9);
        let inner = circuit.into_estimator();
        assert_eq!(inner.estimate(), 9.0); // K_{3,3} has 9 butterflies
    }

    #[test]
    fn burst_detector_flags_a_planted_spike() {
        // Quiet background: a matching, whose edges share no vertex and so
        // form no butterflies.
        let mut stream: Vec<StreamElement> = (0..500u32)
            .map(|i| StreamElement::insert(Edge::new(i, i)))
            .collect();
        // Spike: a K_{8,8} (64 edges, more than one full window) right after
        // the quiet phase.
        for l in 0..8u32 {
            for r in 0..8u32 {
                stream.push(StreamElement::insert(Edge::new(10_000 + l, 20_000 + r)));
            }
        }
        let abacus = Abacus::new(AbacusConfig::new(10_000).with_seed(0));
        let mut circuit =
            Circuit::new(abacus).with_view(Box::new(AnomalyView::new(50).with_burst_factor(5.0)));
        circuit.process_stream(&stream);
        let anomalies = series(&circuit).anomalous_windows();
        assert!(
            !anomalies.is_empty(),
            "the biclique burst must be flagged as anomalous"
        );
        assert!(anomalies.iter().all(|w| w.window >= 10));
    }

    /// A buffered estimator flushes in `finish`, after the last boundary
    /// snapshot; the forced snapshot that records the flushed estimate must
    /// not be swallowed by the empty-window guard.
    #[test]
    fn forced_snapshot_records_a_flush_that_moved_the_estimate() {
        let estimator = ParAbacus::new(
            ParAbacusConfig::new(1_000)
                .with_seed(0)
                .with_batch_size(1_000) // larger than the stream: all buffered
                .with_threads(2),
        );
        let mut circuit = Circuit::new(estimator).with_view(Box::new(AnomalyView::new(10)));
        for element in biclique_stream(5, 8) {
            circuit.process(element); // 40 elements, 4 windows
        }
        assert_eq!(series(&circuit).snapshots().len(), 4);
        assert_eq!(
            series(&circuit).snapshots()[3].estimate,
            0.0,
            "boundary snapshots see the unflushed estimate"
        );
        let flushed = circuit.finish();
        assert!(flushed > 0.0, "finish must flush the batch");
        assert_eq!(
            series(&circuit).snapshots().len(),
            5,
            "the flush must be recorded"
        );
        assert_eq!(series(&circuit).snapshots()[4].estimate, flushed);
        assert_eq!(series(&circuit).snapshots()[4].elements, 40);
        // Once recorded, a second finish adds no window.
        circuit.finish();
        assert_eq!(series(&circuit).snapshots().len(), 5);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let abacus = Abacus::new(AbacusConfig::new(10));
        let _ = Circuit::new(abacus).with_view(Box::new(AnomalyView::new(0)));
    }

    /// A counter whose estimate grows by `left / 1000` per element, so tests
    /// can script arbitrary per-window deltas through the stream itself.
    struct ScriptedCounter {
        estimate: f64,
    }

    impl ButterflyCounter for ScriptedCounter {
        fn process(&mut self, element: StreamElement) {
            self.estimate += f64::from(element.edge.left) / 1000.0;
        }
        fn estimate(&self) -> f64 {
            self.estimate
        }
        fn memory_edges(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    /// A flat series must stay quiet: every window matches the warm-up
    /// median and the trailing mean exactly.
    #[test]
    fn uniform_series_raises_no_anomalies() {
        let mut circuit = Circuit::new(ScriptedCounter { estimate: 0.0 })
            .with_view(Box::new(AnomalyView::new(10)));
        let stream: Vec<StreamElement> = (0..120u32)
            .map(|i| StreamElement::insert(Edge::new(5, i)))
            .collect();
        circuit.process_stream(&stream);
        assert_eq!(series(&circuit).snapshots().len(), 12);
        assert!(series(&circuit).anomalous_windows().is_empty());
    }

    /// Regression: a forced snapshot right after a stream whose length is an
    /// exact multiple of the window used to record a duplicate zero-delta
    /// window, deflating the trailing mean of the burst detector.
    #[test]
    fn forced_snapshots_of_empty_windows_are_no_ops() {
        let abacus = Abacus::new(AbacusConfig::new(1_000).with_seed(0));
        let mut circuit = Circuit::new(abacus).with_view(Box::new(AnomalyView::new(10)));
        // 40 elements: 4 windows, then `process_stream`'s own `finish`.
        circuit.process_stream(&biclique_stream(5, 8));
        assert_eq!(series(&circuit).snapshots().len(), 4);
        circuit.finish();
        assert_eq!(
            series(&circuit).snapshots().len(),
            4,
            "empty forced snapshot must not append a duplicate window"
        );
        // A brand-new circuit with nothing processed records nothing either.
        let mut empty = Circuit::new(Abacus::new(AbacusConfig::new(10)))
            .with_view(Box::new(AnomalyView::new(5)));
        empty.finish();
        assert!(series(&empty).snapshots().is_empty());
        // A genuine partial window still snapshots (and only once).
        circuit.process(StreamElement::insert(Edge::new(99, 1_099)));
        circuit.finish();
        circuit.finish();
        assert_eq!(series(&circuit).snapshots().len(), 5);
        assert_eq!(series(&circuit).snapshots()[4].elements, 41);
    }
}
