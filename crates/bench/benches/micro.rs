//! Criterion micro-benchmarks of the hot kernels and of the design-choice
//! ablations called out in `DESIGN.md` §7.
//!
//! Run with `cargo bench -p abacus-bench --bench micro`.

#![allow(missing_docs)] // criterion_group! expands to undocumented functions

use abacus_core::{
    Abacus, AbacusConfig, ButterflyCounter, ParAbacus, ParAbacusConfig, SampleGraph,
};
use abacus_graph::intersect::{intersection_count, sorted_merge_intersection_count};
use abacus_graph::peredge::{count_butterflies_with_edge_choice, SideChoice};
use abacus_graph::{count_butterflies_with_edge, AdjacencySet, Edge};
use abacus_sampling::{RandomPairing, SampleStore};
use abacus_stream::{Dataset, StreamElement};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

/// Builds a sample of `k` edges drawn from the Movielens-like analog.
fn build_sample(k: usize) -> (SampleGraph, Vec<Edge>) {
    let edges = Dataset::MovielensLike.edges();
    let mut sample = SampleGraph::with_budget(k);
    for &edge in edges.iter().take(k) {
        sample.store_insert(edge);
    }
    let probes: Vec<Edge> = edges.iter().skip(k).take(1_000).copied().collect();
    (sample, probes)
}

fn bench_per_edge_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_edge_counting");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for &k in &[750usize, 3_000, 12_000] {
        let (sample, probes) = build_sample(k);
        group.bench_with_input(BenchmarkId::new("sample_size", k), &k, |b, _| {
            let mut cursor = 0usize;
            b.iter(|| {
                let edge = probes[cursor % probes.len()];
                cursor += 1;
                black_box(count_butterflies_with_edge(&sample, edge))
            });
        });
    }
    group.finish();
}

fn bench_side_choice_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("side_choice_ablation");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let (sample, probes) = build_sample(3_000);
    for (label, choice) in [
        ("cheapest", SideChoice::Cheapest),
        ("always_left", SideChoice::IterateLeftNeighbors),
        ("always_right", SideChoice::IterateRightNeighbors),
    ] {
        group.bench_function(label, |b| {
            let mut cursor = 0usize;
            b.iter(|| {
                let edge = probes[cursor % probes.len()];
                cursor += 1;
                black_box(count_butterflies_with_edge_choice(&sample, edge, choice))
            });
        });
    }
    group.finish();
}

fn bench_intersection_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_intersection");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    let a: AdjacencySet = (0..2_000u32).filter(|_| rng.random_bool(0.5)).collect();
    let b: AdjacencySet = (0..2_000u32).filter(|_| rng.random_bool(0.5)).collect();
    let a_sorted = a.to_sorted_vec();
    let b_sorted = b.to_sorted_vec();
    group.bench_function("hash_probe", |bencher| {
        bencher.iter(|| black_box(intersection_count(&a, &b)));
    });
    group.bench_function("sorted_merge", |bencher| {
        bencher.iter(|| black_box(sorted_merge_intersection_count(&a_sorted, &b_sorted)));
    });
    group.finish();
}

fn bench_random_pairing(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_pairing");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let edges = Dataset::MovielensLike.edges();
    group.bench_function("insert_into_full_sample", |b| {
        let mut policy = RandomPairing::new(1_500);
        let mut sample = SampleGraph::with_budget(1_500);
        let mut rng = StdRng::seed_from_u64(3);
        for &edge in edges.iter().take(5_000) {
            policy.insert(edge, &mut sample, &mut rng);
        }
        let mut cursor = 5_000usize;
        b.iter(|| {
            let edge = edges[cursor % edges.len()];
            cursor += 1;
            policy.insert(black_box(edge), &mut sample, &mut rng);
        });
    });
    group.finish();
}

fn bench_streaming_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_estimators");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let stream: Vec<StreamElement> = Dataset::MovielensLike
        .stream(0.2, 0)
        .into_iter()
        .take(20_000)
        .collect();
    group.bench_function("abacus_20k_elements", |b| {
        b.iter(|| {
            let mut abacus = Abacus::new(AbacusConfig::new(1_500).with_seed(1));
            abacus.process_stream(black_box(&stream));
            black_box(abacus.estimate())
        });
    });
    group.bench_function("parabacus_20k_elements", |b| {
        b.iter(|| {
            let mut parabacus = ParAbacus::new(
                ParAbacusConfig::new(1_500)
                    .with_seed(1)
                    .with_batch_size(500),
            );
            parabacus.process_stream(black_box(&stream));
            black_box(parabacus.estimate())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_per_edge_counting,
    bench_side_choice_ablation,
    bench_intersection_kernels,
    bench_random_pairing,
    bench_streaming_estimators
);
criterion_main!(benches);
