//! Sample-store memory ceiling: bytes per sampled edge of the interned
//! structure-of-arrays sample, under the honest accounting of
//! `SampleGraph::heap_bytes` (interner tables, column capacities, adjacency
//! storage including spilled hash sets, and the edge slot map).
//!
//! The workload is ABACUS at budget 7,500 and seed 42 over the fig9-scale
//! (`scaled(4)`) Movielens-like and Trackers-like analogs at α = 0.2.  The
//! layout is deterministic for a fixed seed, capacities included, so each
//! ceiling can sit close to its measured value (123.8 and 175.0 B/edge)
//! without flaking.  The pre-interning hash-of-hashes layout measured 187.4
//! and 316.2 B/edge on the same workloads under the same accounting.

use abacus::prelude::*;

const BUDGET: usize = 7_500;
const SEED: u64 = 42;

fn bytes_per_sampled_edge(dataset: Dataset) -> f64 {
    let stream = dataset.spec().scaled(4).stream(0.2, SEED);
    let mut abacus = Abacus::new(AbacusConfig::new(BUDGET).with_seed(SEED));
    abacus.process_stream(&stream);
    let sample = abacus.sample();
    assert!(!sample.is_empty(), "{dataset:?}: the sample never filled");
    sample.heap_bytes() as f64 / sample.len() as f64
}

#[test]
fn sample_store_stays_under_its_per_edge_ceiling() {
    for (dataset, ceiling) in [
        (Dataset::MovielensLike, 140.0),
        (Dataset::TrackersLike, 200.0),
    ] {
        let bytes_per_edge = bytes_per_sampled_edge(dataset);
        assert!(
            bytes_per_edge <= ceiling,
            "{dataset:?}: the sample store spends {bytes_per_edge:.1} bytes per sampled \
             edge, over the ceiling of {ceiling:.1}"
        );
    }
}
