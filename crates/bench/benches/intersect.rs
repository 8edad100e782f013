//! Intersection-kernel micro-benchmark: probe vs merge vs gallop across
//! operand-size ratios.
//!
//! For a fixed smaller operand, the larger one grows by powers of two and
//! every kernel family runs on the same pair —
//!
//! * `probe` — the hash-probe kernel over two adjacency sets,
//! * `merge` — the classic two-pointer sorted merge,
//! * `gallop` — galloping (exponential) search of the larger slice,
//! * `adaptive` — the CSR snapshot's dispatch between merge and gallop.
//!
//! The sorted kernels are timed on slices that are already sorted.  That
//! is their cost inside the frozen CSR snapshot, but not over a live sample:
//! there every mutation would force a re-sort, which this sweep never pays.
//!
//! Run with `cargo bench -p abacus-bench --bench intersect`.

#![allow(missing_docs)] // criterion_group! expands to undocumented functions

use abacus_graph::intersect::{
    intersection_count, sorted_adaptive_count, sorted_gallop_count, sorted_merge_intersection_count,
};
use abacus_graph::AdjacencySet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

/// Elements in the smaller operand; large enough that both operands are
/// hash-backed (`Large`) sets on the probe path.
const SMALL_LEN: usize = 256;

/// Builds a sorted vector of `len` distinct ids drawn uniformly from
/// `0..universe`.  Both operands of a pair share the universe, so overlap is
/// spread across the whole larger slice — a merge cannot terminate early the
/// way it could if the operands' value ranges barely intersected.
fn sorted_ids(len: usize, universe: u32, rng: &mut StdRng) -> Vec<u32> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < len {
        set.insert(rng.random_range(0..universe));
    }
    set.into_iter().collect()
}

fn bench_kernels_across_ratios(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    group
        .measurement_time(Duration::from_millis(500))
        .sample_size(20);
    let mut rng = StdRng::seed_from_u64(42);

    for ratio in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        // Universe 4× the large operand: ~25% of the large side is populated
        // and the expected overlap is |small| / 4.
        let universe = u32::try_from(SMALL_LEN * ratio * 4).unwrap();
        let small_sorted = sorted_ids(SMALL_LEN, universe, &mut rng);
        let small_set: AdjacencySet = small_sorted.iter().copied().collect();
        let large_sorted = sorted_ids(SMALL_LEN * ratio, universe, &mut rng);
        let large_set: AdjacencySet = large_sorted.iter().copied().collect();

        group.bench_with_input(BenchmarkId::new("probe", ratio), &ratio, |b, _| {
            b.iter(|| black_box(intersection_count(&small_set, &large_set)));
        });
        group.bench_with_input(BenchmarkId::new("merge", ratio), &ratio, |b, _| {
            b.iter(|| {
                black_box(sorted_merge_intersection_count(
                    &small_sorted,
                    &large_sorted,
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("gallop", ratio), &ratio, |b, _| {
            b.iter(|| black_box(sorted_gallop_count(&small_sorted, &large_sorted)));
        });
        group.bench_with_input(BenchmarkId::new("adaptive", ratio), &ratio, |b, _| {
            b.iter(|| black_box(sorted_adaptive_count(&small_sorted, &large_sorted)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels_across_ratios);
criterion_main!(benches);
