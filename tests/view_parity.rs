//! Cross-crate integration test: every incremental delta-circuit view is
//! bit-exact with its offline recomputation on randomized fully dynamic
//! streams — including deletion-heavy workloads — and view state is
//! invariant to the hosting estimator's chunk size, thread count, and
//! pipeline depth (which has no effect).

use abacus::prelude::*;
use abacus_core::circuit::{AnomalyView, ClusteringView, PerVertexView};
use abacus_graph::{
    bitruss_decomposition, butterfly_clustering_coefficient, ClusteringState, EdgeSupports,
    VertexButterflyCounts,
};
use abacus_metrics::AnomalySeries;
use abacus_stream::SliceSource;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// A randomized *valid* fully dynamic stream: inserts draw fresh random
/// edges from a small dense universe (so butterflies actually form), and
/// with probability `delete_prob` each step instead deletes a uniformly
/// random live edge.  `delete_prob` near 1 makes the workload deletion-heavy
/// (the stream then hovers near an empty graph, exercising the zero and
/// re-insert paths of every view).
fn random_stream(
    seed: u64,
    elements: usize,
    lefts: u32,
    rights: u32,
    delete_prob: f64,
) -> GraphStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<Edge> = Vec::new();
    let mut stream = Vec::with_capacity(elements);
    while stream.len() < elements {
        if !live.is_empty() && rng.random_bool(delete_prob) {
            let slot = rng.random_range(0..live.len());
            let edge = live.swap_remove(slot);
            stream.push(StreamElement::delete(edge));
        } else {
            let edge = Edge::new(rng.random_range(0..lefts), rng.random_range(0..rights));
            if live.contains(&edge) {
                continue; // duplicates are invalid stream input
            }
            live.push(edge);
            stream.push(StreamElement::insert(edge));
        }
    }
    stream
}

fn circuit_with_all_views<C: ButterflyCounter + 'static>(estimator: C) -> Circuit<C> {
    let mut circuit = Circuit::new(estimator);
    for kind in ViewKind::ALL {
        assert!(circuit.subscribe_view(kind.build()).is_ok());
    }
    circuit
}

/// Asserts every graph-derived view of `circuit` equals its offline
/// recomputation on the circuit's current graph, bit for bit.
fn assert_views_match_recompute<C: ButterflyCounter>(circuit: &Circuit<C>, context: &str) {
    let graph = circuit.graph();
    let supports = circuit.supports();
    assert_eq!(
        *supports,
        EdgeSupports::recompute(graph),
        "peredge diverged {context}"
    );
    let counts = circuit.view_state::<PerVertexView>().unwrap().counts();
    assert_eq!(
        *counts,
        VertexButterflyCounts::recompute(graph),
        "vertex diverged {context}"
    );
    let clustering = circuit.view_state::<ClusteringView>().unwrap().state();
    assert_eq!(
        *clustering,
        ClusteringState::recompute(graph),
        "clustering totals diverged {context}"
    );
    assert_eq!(
        clustering.coefficient().to_bits(),
        butterfly_clustering_coefficient(graph).to_bits(),
        "clustering coefficient diverged {context}"
    );
    let bitruss = circuit.supports();
    assert_eq!(
        bitruss.decomposition(graph),
        bitruss_decomposition(graph),
        "bitruss diverged {context}"
    );
    assert_eq!(
        *bitruss,
        EdgeSupports::recompute(graph),
        "bitruss supports diverged {context}"
    );
}

#[test]
fn views_match_offline_recompute_at_every_checkpoint() {
    // Moderate deletion mix on a dense universe: mid-stream checkpoints catch
    // order-dependent bugs a final-state check would miss.
    let stream = random_stream(7, 1_500, 24, 24, 0.3);
    let mut circuit = circuit_with_all_views(ExactCounter::new());
    for (i, &element) in stream.iter().enumerate() {
        circuit.process(element);
        if (i + 1) % 250 == 0 {
            assert_views_match_recompute(&circuit, &format!("after element {}", i + 1));
        }
    }
    circuit.finish();
    assert_views_match_recompute(&circuit, "at stream end");
    // The exact estimator (view #0) agrees with the maintained per-vertex sum.
    let counts = circuit.view_state::<PerVertexView>().unwrap().counts();
    assert_eq!(circuit.estimate(), counts.butterflies() as f64);
}

#[test]
fn views_survive_deletion_heavy_streams() {
    // α near 1: nearly every other element deletes, repeatedly draining the
    // graph.  Exercises support-zero edges, vertex counts dropping out of the
    // maps, and empty-graph clustering (0/0 → 0.0 by convention).
    for (seed, delete_prob) in [(11u64, 0.9), (13, 0.95)] {
        let stream = random_stream(seed, 1_200, 12, 12, delete_prob);
        let deletions = stream.iter().filter(|e| e.delta.is_delete()).count();
        assert!(
            deletions * 10 >= stream.len() * 4,
            "workload not deletion-heavy enough: {deletions}/{}",
            stream.len()
        );
        let mut circuit = circuit_with_all_views(ExactCounter::new());
        for (i, &element) in stream.iter().enumerate() {
            circuit.process(element);
            if (i + 1) % 300 == 0 {
                assert_views_match_recompute(
                    &circuit,
                    &format!("seed {seed} p {delete_prob} after element {}", i + 1),
                );
            }
        }
        assert_views_match_recompute(&circuit, &format!("seed {seed} p {delete_prob} end"));
    }
}

#[test]
fn views_match_on_a_dataset_analog() {
    // The paper-shaped workload: a Movielens-like analog with α-injected
    // deletions, hosted by sequential ABACUS (approximate estimator, exact
    // views — the estimate and the views are independent circuits outputs).
    let stream: GraphStream = Dataset::MovielensLike
        .stream(0.4, 1)
        .into_iter()
        .take(8_000)
        .collect();
    let mut circuit = circuit_with_all_views(Abacus::new(AbacusConfig::new(1_000).with_seed(5)));
    circuit.process_stream(&stream);
    assert_views_match_recompute(&circuit, "movielens analog");
    assert!(circuit.estimate().is_finite());
}

/// Collects every graph-derived view's state into comparable owned values.
fn graph_fingerprint<C: ButterflyCounter>(
    circuit: &Circuit<C>,
) -> (
    EdgeSupports,
    VertexButterflyCounts,
    ClusteringState,
    EdgeSupports,
) {
    (
        circuit.supports().clone(),
        circuit
            .view_state::<PerVertexView>()
            .unwrap()
            .counts()
            .clone(),
        *circuit.view_state::<ClusteringView>().unwrap().state(),
        circuit.supports().clone(),
    )
}

fn anomaly_snapshots<C: ButterflyCounter>(
    circuit: &Circuit<C>,
) -> Vec<abacus_metrics::WindowSnapshot> {
    circuit
        .view_state::<AnomalyView>()
        .unwrap()
        .series()
        .snapshots()
        .to_vec()
}

#[test]
fn parabacus_hosted_views_are_chunk_thread_and_depth_invariant() {
    let stream = random_stream(23, 4_000, 32, 32, 0.35);
    let budget = 800;
    let batch = 500;

    let run = |threads: usize, depth: usize, chunk: usize| {
        let estimator = ParAbacus::new(
            ParAbacusConfig::new(budget)
                .with_seed(41)
                .with_batch_size(batch)
                .with_threads(threads)
                .with_pipeline_depth(depth),
        );
        let mut circuit = circuit_with_all_views(estimator);
        let mut source = SliceSource::new(&stream);
        circuit.process_source_chunked(&mut source, chunk).unwrap();
        let estimate = circuit.finish();
        (
            estimate,
            graph_fingerprint(&circuit),
            anomaly_snapshots(&circuit),
        )
    };

    let (baseline_estimate, baseline_graph, baseline_anomaly) = run(1, 1, 1);
    assert!(
        !baseline_anomaly.is_empty(),
        "anomaly view must have snapshots"
    );
    // Graph-derived views, the final estimate and the anomaly series (the
    // running estimate per element) are invariant to *every* hosting knob:
    // chunk size, thread count, and pipeline depth.  Every batch is in the
    // estimate when `process` returns, so no configuration lags.
    for (threads, depth, chunk) in [
        (1, 1, 7),
        (4, 1, 4_096),
        (1, 3, 64),
        (2, 3, 997),
        (3, 3, 64),
        (8, 2, 64),
        (4, 2, 911),
    ] {
        let (estimate, graph, anomaly) = run(threads, depth, chunk);
        assert_eq!(
            graph, baseline_graph,
            "graph views diverged at threads {threads}, depth {depth}, chunk {chunk}"
        );
        assert_eq!(
            estimate.to_bits(),
            baseline_estimate.to_bits(),
            "estimate diverged at threads {threads}, depth {depth}, chunk {chunk}"
        );
        assert_eq!(
            anomaly, baseline_anomaly,
            "anomaly series diverged at threads {threads}, depth {depth}, chunk {chunk}"
        );
    }
    // And the PARABACUS-hosted views match offline recomputation too.
    let estimator = ParAbacus::new(
        ParAbacusConfig::new(budget)
            .with_seed(41)
            .with_batch_size(batch)
            .with_threads(4),
    );
    let mut circuit = circuit_with_all_views(estimator);
    circuit.process_stream(&stream);
    assert_views_match_recompute(&circuit, "parabacus-hosted");
}

/// The reference is a windowed monitor written out: a bare series fed bare
/// ABACUS's estimate after every element, then a forced snapshot of the
/// finished estimate.
#[test]
fn anomaly_view_is_bit_identical_to_the_windowed_monitor() {
    let stream = random_stream(31, 3_000, 20, 20, 0.25);
    let window = 128;

    let mut circuit = Circuit::new(Abacus::new(AbacusConfig::new(500).with_seed(3)))
        .with_view(Box::new(AnomalyView::new(window)));
    circuit.process_stream(&stream);

    let mut bare = Abacus::new(AbacusConfig::new(500).with_seed(3));
    let mut reference = AnomalySeries::new(window);
    for &element in &stream {
        bare.process(element);
        reference.observe(bare.estimate());
    }
    // The circuit's finish() forces the trailing partial window.
    reference.force_snapshot(bare.finish());

    let series = circuit.view_state::<AnomalyView>().unwrap().series();
    assert_eq!(series.snapshots(), reference.snapshots());
    assert_eq!(
        series.anomalous_windows(),
        reference.anomalous_windows(),
        "burst detection must agree too"
    );
}
