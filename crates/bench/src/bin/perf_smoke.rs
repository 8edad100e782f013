//! Fixed-seed perf-smoke harness: emits machine-readable benchmark artifacts
//! so the perf trajectory of the counting hot path is tracked in CI.
//!
//! Seven JSON files are written (to `ABACUS_BENCH_DIR`, default the current
//! directory):
//!
//! * `BENCH_intersect.json` — median ns/op of every intersection kernel
//!   (probe / merge / gallop / adaptive) at three operand-size ratios,
//! * `BENCH_parabacus.json` — ABACUS and single-thread PARABACUS wall time
//!   and throughput over a fixed dataset-analog stream, with the frozen CSR
//!   counting snapshot on and off, plus the snapshot's counting-phase
//!   reduction in percent,
//! * `BENCH_ingest.json` — the streaming-ingest column: ABACUS throughput
//!   over a ~1M-element on-disk workload through the materialized driver
//!   and the pull-based text/binary sources, with measured peak heap,
//! * `BENCH_ensemble.json` — the ensemble column: replicate-mode MAPE vs
//!   ensemble width K (fixed per-replica *and* fixed total memory, which
//!   move in opposite directions — see `ensemble_rows`), plus ensemble
//!   throughput at fan-out threads 1 and 2,
//! * `BENCH_views.json` — the delta-circuit column: per-view incremental
//!   maintenance vs refreshing the same state by offline recomputation once
//!   per mini-batch (see `views_rows`), plus the whole five-view panel on
//!   one circuit,
//! * `BENCH_persist.json` — the durability column: the per-element WAL
//!   append tax over the bare hot path, the cost of a full checkpoint
//!   (ABSNAP1 snapshot + fsync + WAL rotation + watermark), and recovery
//!   latency as a function of the WAL length replayed (see `persist_rows`),
//! * `BENCH_samplestore.json` — the sample-store memory column:
//!   `bytes_per_sampled_edge` of the interned SoA sample layout under the
//!   honest accounting of `SampleGraph::heap_bytes`, paired with the
//!   pre-interning hash-of-hashes baseline measured on the same workloads
//!   under the same accounting, plus before/after columns for the
//!   single-thread PARABACUS counting overhead (see `samplestore_rows`).
//!
//! The ingest section doubles as the bounded-memory *assertion*: a counting
//! global allocator tracks peak heap, and the run aborts if the streamed
//! drivers' peak additional memory is not O(budget + chunk) — i.e. if some
//! regression reintroduces an O(stream) materialization on the ingest path.
//! The samplestore section likewise PANICS if `bytes_per_sampled_edge`
//! exceeds its committed per-dataset ceiling at the default workload.
//!
//! Everything is seeded; run-to-run noise comes only from the machine.  Keep
//! the workload small — this runs on every CI push.
//!
//! Run with `cargo run --release -p abacus-bench --bin perf_smoke`.

use abacus_core::engine::{Ensemble, EnsembleMode, EstimatorSpec};
use abacus_core::{
    Abacus, AbacusConfig, ButterflyCounter, Circuit, ParAbacus, ParAbacusConfig, SnapshotMode,
    ViewKind, WindowedMonitor,
};
use abacus_graph::intersect::{
    intersection_count, sorted_adaptive_count, sorted_gallop_count, sorted_merge_intersection_count,
};
use abacus_graph::{
    bitruss_decomposition, AdjacencySet, BipartiteGraph, ClusteringState, EdgeSupports,
    VertexButterflyCounts,
};
use abacus_stream::{Dataset, StreamElement};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

const SEED: u64 = 42;

/// A [`System`]-backed allocator that tracks current and peak heap usage, so
/// the ingest section can *assert* its memory bound instead of describing it.
///
/// The bookkeeping only runs while `enabled` is set (the ingest section):
/// the intersect/parabacus timing sections, whose ns/op trajectories CI
/// compares across runs, pay a single relaxed load per allocation, and
/// `realloc`/`alloc_zeroed` delegate to `System`'s own fast paths (in-place
/// growth, zeroed pages) rather than the trait's alloc+copy defaults.
struct CountingAllocator {
    enabled: std::sync::atomic::AtomicBool,
    /// Signed: while accounting is enabled, frees of blocks allocated
    /// *before* the window legitimately drive the counter below its
    /// baseline.
    current: AtomicIsize,
    peak: AtomicIsize,
}

impl CountingAllocator {
    fn record(&self, grow: usize, shrink: usize) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        if grow > 0 {
            let now = self.current.fetch_add(grow as isize, Ordering::Relaxed) + grow as isize;
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
        if shrink > 0 {
            self.current.fetch_sub(shrink as isize, Ordering::Relaxed);
        }
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the bookkeeping
// uses only atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.record(layout.size(), 0);
        }
        ptr
    }

    // SAFETY: forwards to `System.alloc_zeroed` under the same contract the
    // caller already upholds; bookkeeping is atomic and side-effect free.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.record(layout.size(), 0);
        }
        ptr
    }

    // SAFETY: forwards to `System.realloc` under the same contract the caller
    // already upholds; bookkeeping is atomic and side-effect free.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            self.record(new_size, layout.size());
        }
        new_ptr
    }

    // SAFETY: forwards to `System.dealloc` under the same contract the caller
    // already upholds; bookkeeping is atomic and side-effect free.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.record(0, layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator {
    enabled: std::sync::atomic::AtomicBool::new(false),
    current: AtomicIsize::new(0),
    peak: AtomicIsize::new(0),
};

/// Enables accounting and resets the peak marker; returns the baseline.
fn reset_heap_peak() -> isize {
    let now = ALLOCATOR.current.load(Ordering::Relaxed);
    ALLOCATOR.peak.store(now, Ordering::Relaxed);
    ALLOCATOR.enabled.store(true, Ordering::Relaxed);
    now
}

/// Peak heap growth (bytes) since the matching [`reset_heap_peak`], turning
/// accounting back off.
fn heap_peak_delta(baseline: isize) -> usize {
    let peak = ALLOCATOR.peak.load(Ordering::Relaxed);
    ALLOCATOR.enabled.store(false, Ordering::Relaxed);
    peak.saturating_sub(baseline).max(0) as usize
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Median of the measured values (input order is irrelevant).
fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of zero samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    values[values.len() / 2]
}

/// One emitted measurement row.
struct Row {
    name: String,
    median_ns_per_op: f64,
    ops_per_second: f64,
}

fn json_document(bench: &str, rows: &[Row], extra: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    for (key, value) in extra {
        out.push_str(&format!("  \"{key}\": {value:.3},\n"));
    }
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns_per_op\": {:.1}, \"ops_per_second\": {:.0}}}{comma}\n",
            row.name, row.median_ns_per_op, row.ops_per_second
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Times `routine` (`iterations` calls per trial, median over `trials`).
fn measure<F: FnMut()>(trials: usize, iterations: usize, mut routine: F) -> f64 {
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..iterations {
            routine();
        }
        samples.push(start.elapsed().as_secs_f64() * 1e9 / iterations as f64);
    }
    median(samples)
}

fn sorted_ids(len: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut out = Vec::with_capacity(len);
    let mut next = 0u32;
    while out.len() < len {
        next += rng.random_range(1u32..=8);
        out.push(next);
    }
    out
}

fn intersect_rows(trials: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let small_len = 256usize;
    let small_sorted = sorted_ids(small_len, &mut rng);
    let small_set: AdjacencySet = small_sorted.iter().copied().collect();
    let mut rows = Vec::new();
    for ratio in [1usize, 8, 64] {
        let large_sorted = sorted_ids(small_len * ratio, &mut rng);
        let large_set: AdjacencySet = large_sorted.iter().copied().collect();
        let iterations = 2_000;
        let kernels: Vec<(String, Box<dyn FnMut() + '_>)> = vec![
            (
                format!("probe/ratio{ratio}"),
                Box::new(|| {
                    black_box(intersection_count(&small_set, &large_set));
                }),
            ),
            (
                format!("merge/ratio{ratio}"),
                Box::new(|| {
                    black_box(sorted_merge_intersection_count(
                        &small_sorted,
                        &large_sorted,
                    ));
                }),
            ),
            (
                format!("gallop/ratio{ratio}"),
                Box::new(|| {
                    black_box(sorted_gallop_count(&small_sorted, &large_sorted));
                }),
            ),
            (
                format!("adaptive/ratio{ratio}"),
                Box::new(|| {
                    black_box(sorted_adaptive_count(&small_sorted, &large_sorted));
                }),
            ),
        ];
        let mut ratio_rows = Vec::new();
        for (name, mut kernel) in kernels {
            let ns = measure(trials, iterations, &mut kernel);
            ratio_rows.push(Row {
                name,
                median_ns_per_op: ns,
                ops_per_second: 1e9 / ns.max(1e-9),
            });
        }
        // Regression gate for the gallop cutover: whatever the adaptive
        // dispatch picked at this ratio, it must never be the
        // measured-slowest kernel in the sweep — if it is, the cutover has
        // rotted.
        let slowest = ratio_rows
            .iter()
            .max_by(|a, b| a.median_ns_per_op.total_cmp(&b.median_ns_per_op))
            .expect("ratio sweep is non-empty");
        assert!(
            !slowest.name.starts_with("adaptive/"),
            "adaptive dispatch is the slowest kernel at ratio {ratio}: \
             {} ns/op ({:?})",
            slowest.median_ns_per_op,
            ratio_rows
                .iter()
                .map(|r| format!("{} {:.0}ns", r.name, r.median_ns_per_op))
                .collect::<Vec<_>>(),
        );
        rows.extend(ratio_rows);
    }
    rows
}

/// One timed PARABACUS run: (total seconds, counting-phase seconds).
fn run_parabacus(
    stream: &[StreamElement],
    budget: usize,
    batch: usize,
    snapshot: SnapshotMode,
) -> (f64, f64) {
    let mut estimator = ParAbacus::new(
        ParAbacusConfig::new(budget)
            .with_seed(SEED)
            .with_batch_size(batch)
            .with_threads(1)
            .with_pipeline_depth(1)
            .with_snapshot(snapshot),
    );
    let start = Instant::now();
    estimator.process_stream(stream);
    let total = start.elapsed().as_secs_f64();
    black_box(estimator.estimate());
    (total, estimator.phase_timings().counting_seconds)
}

/// One timed ABACUS run (total seconds).
fn run_abacus(stream: &[StreamElement], budget: usize, snapshot: SnapshotMode) -> f64 {
    let mut estimator = Abacus::new(
        AbacusConfig::new(budget)
            .with_seed(SEED)
            .with_snapshot(snapshot),
    );
    let start = Instant::now();
    estimator.process_stream(stream);
    let total = start.elapsed().as_secs_f64();
    black_box(estimator.estimate());
    total
}

/// The fig9/fig4-style workloads at threads = 1: the Movielens-like (probe
/// dense) and Trackers-like (hub skewed) analogs at the speedup scale,
/// budget 7500, batch size 10000 (fig9; Movielens-like additionally at the
/// fig4 default M = 500), with the snapshot off, forced on, and in the
/// shipped adaptive `auto` mode.
///
/// The runs of every configuration are *interleaved per trial* and the
/// reduction metrics are medians of per-trial ratios: this container's
/// throughput drifts by tens of percent over seconds, so back-to-back
/// pairing is the only way to get a stable comparison.
fn parabacus_rows(trials: usize) -> (Vec<Row>, Vec<(String, f64)>) {
    let budget = env_usize("ABACUS_PERF_SMOKE_BUDGET", 7_500);
    let scale = env_usize("ABACUS_PERF_SMOKE_SCALE", 4) as u32;
    let take = env_usize("ABACUS_PERF_SMOKE_ELEMENTS", usize::MAX);

    let mut rows = Vec::new();
    let mut extra = vec![("budget".to_string(), budget as f64)];

    for dataset in [Dataset::MovielensLike, Dataset::TrackersLike] {
        let name = match dataset {
            Dataset::MovielensLike => "movielens",
            _ => "trackers",
        };
        let stream: Vec<StreamElement> = dataset
            .spec()
            .scaled(scale.max(1))
            .stream(0.2, SEED)
            .into_iter()
            .take(take)
            .collect();
        let elements = stream.len() as f64;
        extra.push((format!("{name}_stream_elements"), elements));

        let _ = run_abacus(&stream, budget, SnapshotMode::Off); // warm-up
        let mut abacus = (Vec::new(), Vec::new(), Vec::new()); // off, on, ratio
        for _ in 0..trials {
            let off = run_abacus(&stream, budget, SnapshotMode::Off);
            let on = run_abacus(&stream, budget, SnapshotMode::On);
            abacus.0.push(off);
            abacus.1.push(on);
            abacus.2.push(on / off);
        }
        for (label, secs) in [
            ("snapshot_off", median(abacus.0)),
            ("snapshot_on", median(abacus.1)),
        ] {
            rows.push(Row {
                name: format!("{name}/abacus/{label}"),
                median_ns_per_op: secs * 1e9 / elements,
                ops_per_second: elements / secs.max(1e-12),
            });
        }
        extra.push((
            format!("{name}_abacus_snapshot_reduction_percent"),
            100.0 * (1.0 - median(abacus.2)),
        ));

        let batches: &[usize] = if dataset == Dataset::MovielensLike {
            &[10_000, 500]
        } else {
            &[10_000]
        };
        for &batch in batches {
            const MODES: [(&str, SnapshotMode); 3] = [
                ("off", SnapshotMode::Off),
                ("on", SnapshotMode::On),
                ("auto", SnapshotMode::Auto),
            ];
            let mut totals: [Vec<f64>; 3] = Default::default();
            let mut counting: [Vec<f64>; 3] = Default::default();
            let mut on_ratio = Vec::new();
            let mut auto_ratio = Vec::new();
            for _ in 0..trials {
                for (i, (_, mode)) in MODES.iter().enumerate() {
                    let (total, count) = run_parabacus(&stream, budget, batch, *mode);
                    totals[i].push(total);
                    counting[i].push(count);
                }
                let last = |v: &Vec<f64>| *v.last().expect("just pushed");
                on_ratio.push(last(&counting[1]) / last(&counting[0]));
                auto_ratio.push(last(&counting[2]) / last(&counting[0]));
            }
            for (i, (label, _)) in MODES.iter().enumerate() {
                rows.push(Row {
                    name: format!("{name}/parabacus_t1_m{batch}/snapshot_{label}"),
                    median_ns_per_op: median(totals[i].clone()) * 1e9 / elements,
                    ops_per_second: elements / median(totals[i].clone()).max(1e-12),
                });
                rows.push(Row {
                    name: format!("{name}/parabacus_t1_m{batch}/counting_{label}"),
                    median_ns_per_op: median(counting[i].clone()) * 1e9 / elements,
                    ops_per_second: elements / median(counting[i].clone()).max(1e-12),
                });
            }
            extra.push((
                format!("{name}_parabacus_t1_m{batch}_on_counting_reduction_percent"),
                100.0 * (1.0 - median(on_ratio)),
            ));
            extra.push((
                format!("{name}_parabacus_t1_m{batch}_auto_counting_reduction_percent"),
                100.0 * (1.0 - median(auto_ratio)),
            ));
        }
    }
    (rows, extra)
}

/// The streaming-ingest column: ABACUS over a ~1M-element on-disk workload
/// through the materialized driver and the pull-based text/binary sources.
///
/// Each streamed run is bracketed by heap-peak markers, and the function
/// PANICS (failing CI) unless the streamed drivers' peak additional memory
/// stays O(budget + chunk) — the bound is generous per-edge/per-element
/// constants over `budget` and `chunk` plus fixed slack, and it is crosschecked
/// against the materialized driver, whose peak must scale with the stream.
fn ingest_rows() -> (Vec<Row>, Vec<(String, f64)>) {
    let target_elements = env_usize("ABACUS_PERF_SMOKE_INGEST_ELEMENTS", 1_000_000);
    let budget = env_usize("ABACUS_PERF_SMOKE_INGEST_BUDGET", 3_000);

    // Build the workload once and spill it to disk in both formats; the
    // in-memory copies are dropped before any measurement.
    let dir = std::env::temp_dir().join(format!("abacus_perf_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create ingest scratch dir");
    let text_path = dir.join("ingest.txt");
    let binary_path = dir.join("ingest.abst");
    let elements = {
        // α = 0.2 turns E edges into 1.2·E elements.
        let edges = abacus_stream::generators::random::uniform_bipartite(
            60_000,
            60_000,
            target_elements * 5 / 6,
            &mut StdRng::seed_from_u64(SEED),
        );
        let stream = abacus_stream::inject_deletions_fast(
            &edges,
            abacus_stream::DeletionConfig::new(0.2),
            &mut StdRng::seed_from_u64(SEED ^ 0xFEED),
        );
        abacus_stream::io::write_stream_to_path(&stream, &text_path).expect("write text stream");
        abacus_stream::binary::write_binary_stream_to_path(&stream, &binary_path)
            .expect("write binary stream");
        stream.len()
    };

    let make = || Abacus::new(AbacusConfig::new(budget).with_seed(SEED));
    let chunk = make().preferred_chunk();

    // Materialized driver: read the whole file, then process the slice.
    let baseline = reset_heap_peak();
    let start = Instant::now();
    let stream = abacus_stream::io::read_stream_from_path(&text_path).expect("read text stream");
    let mut materialized = make();
    materialized.process_stream(&stream);
    let materialized_seconds = start.elapsed().as_secs_f64();
    black_box(materialized.estimate());
    let materialized_peak = heap_peak_delta(baseline);
    let materialized_estimate = materialized.estimate();
    drop(stream);
    drop(materialized);

    // Streamed drivers: pull straight from disk.
    let mut streamed = Vec::new(); // (label, seconds, peak bytes)
    for (label, path) in [("text", &text_path), ("binary", &binary_path)] {
        let baseline = reset_heap_peak();
        let start = Instant::now();
        let mut counter = make();
        let mut source = abacus_stream::open_path_source(path).expect("open stream file");
        let pulled = counter
            .process_source(&mut *source)
            .expect("stream the workload");
        let seconds = start.elapsed().as_secs_f64();
        drop(source);
        let peak = heap_peak_delta(baseline);
        assert_eq!(pulled as usize, elements, "{label}: wrong element count");
        assert_eq!(
            counter.estimate().to_bits(),
            materialized_estimate.to_bits(),
            "{label}: streamed and materialized drivers must be bit-identical"
        );
        streamed.push((label, seconds, peak));
    }
    std::fs::remove_dir_all(&dir).ok();

    // The bound: generous constants (a budget edge costs ~100 bytes across
    // the sample's hash adjacency, a staged element 12; both ×4 for slack)
    // plus 2 MiB fixed overhead — about 3.5 MiB at the defaults, against a
    // ≥ 12 MB materialized stream.  O(stream) regressions trip this by an
    // order of magnitude.
    let bound = 4 * (budget * 100 + chunk * 12) + (2 << 20);
    for &(label, _, peak) in &streamed {
        assert!(
            peak <= bound,
            "streamed {label} ingest peaked at {peak} heap bytes, above the \
             O(budget + chunk) bound of {bound} — did the ingest path start \
             materializing the stream?"
        );
        // The relative crosscheck needs the stream itself to dwarf the
        // streamed peaks before it separates the drivers.  It MUST run at
        // the CI default of 1M elements (measured there: streamed ~1.9 MB
        // vs materialized ~19 MB, an order of magnitude apart); it is only
        // skipped for deliberately shrunken local runs via
        // ABACUS_PERF_SMOKE_INGEST_ELEMENTS.
        if elements >= 750_000 {
            assert!(
                peak * 3 < materialized_peak,
                "streamed {label} ingest peaked at {peak} heap bytes, not clearly \
                 below the materialized driver's {materialized_peak}"
            );
        }
    }

    let mut rows = vec![Row {
        name: "ingest/materialized_text".to_string(),
        median_ns_per_op: materialized_seconds * 1e9 / elements as f64,
        ops_per_second: elements as f64 / materialized_seconds.max(1e-12),
    }];
    let mut extra = vec![
        ("ingest_elements".to_string(), elements as f64),
        ("ingest_budget".to_string(), budget as f64),
        ("ingest_chunk".to_string(), chunk as f64),
        (
            "ingest_materialized_peak_bytes".to_string(),
            materialized_peak as f64,
        ),
    ];
    for (label, seconds, peak) in streamed {
        rows.push(Row {
            name: format!("ingest/streamed_{label}"),
            median_ns_per_op: seconds * 1e9 / elements as f64,
            ops_per_second: elements as f64 / seconds.max(1e-12),
        });
        extra.push((format!("ingest_streamed_{label}_peak_bytes"), peak as f64));
    }
    (rows, extra)
}

/// The ensemble column: accuracy vs ensemble width K on a fig9-style
/// Movielens-like workload, plus replicate/partition throughput at fan-out
/// threads 1 and 2.
///
/// Accuracy is reported as MAPE vs the exact count over `trials` seeds, for
/// **both** memory disciplines, because they answer different questions and
/// move in opposite directions:
///
/// * `fixed_replica` — every replica keeps the full budget (total memory
///   K×M): replicas are i.i.d., averaging tightens the estimate ~1/√K, so
///   MAPE improves monotonically-ish from K=1 to K=4.  This is the paper's
///   "variance ~K× down for the same per-replica budget" story.
/// * `fixed_total` — the budget is split K ways (replica budget M/K): the
///   butterfly-discovery probability scales with budget³, so K small
///   samples are far noisier than one big one and averaging cannot buy the
///   loss back — MAPE *degrades* with K.  Emitted so the JSON records the
///   measured trade-off instead of hiding the regime where ensembles lose.
fn ensemble_rows() -> (Vec<Row>, Vec<(String, f64)>) {
    let budget = env_usize("ABACUS_PERF_SMOKE_ENSEMBLE_BUDGET", 3_000);
    let trials = env_usize("ABACUS_PERF_SMOKE_ENSEMBLE_TRIALS", 5).max(1) as u64;

    let stream = Dataset::MovielensLike.stream(0.2, SEED);
    let elements = stream.len() as f64;
    let truth = abacus_graph::count_butterflies(&abacus_stream::final_graph(&stream)) as f64;

    let mut rows = Vec::new();
    let mut extra = vec![
        ("ensemble_budget".to_string(), budget as f64),
        ("ensemble_stream_elements".to_string(), elements),
        ("ensemble_exact_butterflies".to_string(), truth),
    ];

    // Accuracy vs K, both memory disciplines.
    let mape = |per_replica: usize, k: usize| -> f64 {
        (0..trials)
            .map(|trial| {
                let spec = EstimatorSpec::abacus(per_replica).with_seed(SEED + trial);
                let mut ensemble = Ensemble::new(spec, k, EnsembleMode::Replicate).unwrap();
                ensemble.process_stream(&stream);
                100.0 * ((ensemble.estimate() - truth) / truth).abs()
            })
            .sum::<f64>()
            / trials as f64
    };
    for k in [1usize, 2, 4] {
        let fixed_replica = mape(budget, k);
        // At K=1 the two disciplines are the same spec; measure once.
        let fixed_total = if k == 1 {
            fixed_replica
        } else {
            mape((budget / k).max(2), k)
        };
        extra.push((
            format!("ensemble_accuracy_fixed_replica_k{k}_mape_percent"),
            fixed_replica,
        ));
        extra.push((
            format!("ensemble_accuracy_fixed_total_k{k}_mape_percent"),
            fixed_total,
        ));
    }

    // Throughput of a K=4 ensemble (fixed total memory) at fan-out threads
    // 1 and 2, replicate and partition.  Partition shards the stream, so it
    // does ~1/K of replicate's counting work per replica.
    for mode in [EnsembleMode::Replicate, EnsembleMode::Partition] {
        for threads in [1usize, 2] {
            let spec = EstimatorSpec::abacus((budget / 4).max(2)).with_seed(SEED);
            let mut ensemble = Ensemble::new(spec, 4, mode)
                .unwrap()
                .with_fan_out_threads(threads);
            let start = Instant::now();
            ensemble.process_stream(&stream);
            let seconds = start.elapsed().as_secs_f64();
            black_box(ensemble.estimate());
            rows.push(Row {
                name: format!("ensemble/{mode}_k4_threads{threads}"),
                median_ns_per_op: seconds * 1e9 / elements,
                ops_per_second: elements / seconds.max(1e-12),
            });
        }
    }
    // The K=1 reference: the bare estimator through the same registry path.
    {
        let mut bare = EstimatorSpec::abacus(budget).with_seed(SEED).build();
        let start = Instant::now();
        bare.process_stream(&stream);
        let seconds = start.elapsed().as_secs_f64();
        black_box(bare.estimate());
        rows.push(Row {
            name: "ensemble/bare_k1".to_string(),
            median_ns_per_op: seconds * 1e9 / elements,
            ops_per_second: elements / seconds.max(1e-12),
        });
    }
    (rows, extra)
}

/// The delta-circuit column: per-view incremental maintenance vs refreshing
/// the same state by offline recomputation once per mini-batch, on a
/// fixed-seed Movielens-like fully dynamic stream.
///
/// Both sides ingest the identical stream through the identical ABACUS
/// estimator config; the incremental side carries the view inside a
/// [`Circuit`], the offline side applies elements to a plain graph and
/// recomputes the view's state from scratch at every batch boundary (the
/// pre-circuit serving strategy).  The anomaly view has no offline
/// recomputation — its counterpart is the legacy `WindowedMonitor` wrapper
/// it replaced, so that pair measures the cost of view re-registration.
///
/// The headline is the `views/all/*` pair: serving the *whole* five-view
/// panel from one circuit (a single shared enumeration per element) vs the
/// pre-circuit stack (monitor wrapper + plain graph + all four graph-derived
/// states recomputed every batch).  Per-view rows are diagnostics — a view
/// whose offline refresh is cheap (the clustering scalar) can individually
/// lose to recomputation while the panel still wins by an order of
/// magnitude, because the offline side pays every refresh, led by the
/// bitruss peel, where the circuit's enumeration cost is shared.
fn views_rows(trials: usize) -> (Vec<Row>, Vec<(String, f64)>) {
    let take = env_usize("ABACUS_PERF_SMOKE_VIEW_ELEMENTS", 20_000);
    let batch = env_usize("ABACUS_PERF_SMOKE_VIEW_BATCH", 2_000).max(1);
    let budget = 3_000;
    let stream: Vec<StreamElement> = Dataset::MovielensLike
        .stream(0.3, SEED)
        .into_iter()
        .take(take)
        .collect();
    let elements = stream.len() as f64;
    let estimator = || Abacus::new(AbacusConfig::new(budget).with_seed(SEED));

    let mut rows = Vec::new();
    let mut extra = vec![
        ("views_stream_elements".to_string(), elements),
        ("views_recompute_batch".to_string(), batch as f64),
        ("views_budget".to_string(), budget as f64),
    ];

    // Incremental: the full circuit run, estimator included (the honest
    // serving cost of keeping that one view live).
    let incremental = |kind: ViewKind| -> f64 {
        let mut samples = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut circuit = Circuit::new(estimator()).with_view(kind.build());
            let start = Instant::now();
            circuit.process_stream(&stream);
            circuit.finish();
            samples.push(start.elapsed().as_secs_f64());
            black_box(circuit.view_reports());
        }
        median(samples)
    };

    // Offline: estimator + graph maintenance + a from-scratch recompute of
    // the view's state at every batch boundary and at stream end.
    let recompute = |kind: ViewKind| -> f64 {
        let mut samples = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut est = estimator();
            let mut graph = BipartiteGraph::new();
            let refresh = |graph: &BipartiteGraph| match kind {
                ViewKind::PerEdge => {
                    black_box(EdgeSupports::recompute(graph).total_support() as u64)
                }
                ViewKind::Vertex => {
                    black_box(VertexButterflyCounts::recompute(graph).butterflies() as u64)
                }
                ViewKind::Clustering => {
                    black_box(ClusteringState::recompute(graph).coefficient().to_bits())
                }
                ViewKind::Bitruss => black_box(bitruss_decomposition(graph).max_bitruss()),
                ViewKind::Anomaly => unreachable!("anomaly has no offline recomputation"),
            };
            let start = Instant::now();
            for (i, &element) in stream.iter().enumerate() {
                est.process(element);
                if element.delta.is_insert() {
                    graph.insert_edge(element.edge);
                } else {
                    graph.delete_edge(element.edge);
                }
                if (i + 1).is_multiple_of(batch) {
                    refresh(&graph);
                }
            }
            est.finish();
            if !stream.len().is_multiple_of(batch) {
                refresh(&graph);
            }
            samples.push(start.elapsed().as_secs_f64());
        }
        median(samples)
    };

    for kind in ViewKind::ALL {
        let inc = incremental(kind);
        let off = match kind {
            ViewKind::Anomaly => {
                // The legacy wrapper path the view replaced.
                let mut samples = Vec::with_capacity(trials);
                for _ in 0..trials {
                    let mut monitor = WindowedMonitor::new(estimator(), 1_024);
                    let start = Instant::now();
                    monitor.process_stream(&stream);
                    monitor.finish();
                    samples.push(start.elapsed().as_secs_f64());
                    black_box(monitor.snapshots().len());
                }
                median(samples)
            }
            _ => recompute(kind),
        };
        let offline_label = if kind == ViewKind::Anomaly {
            "monitor_wrapper"
        } else {
            "recompute_per_batch"
        };
        for (label, secs) in [("incremental", inc), (offline_label, off)] {
            rows.push(Row {
                name: format!("views/{kind}/{label}"),
                median_ns_per_op: secs * 1e9 / elements,
                ops_per_second: elements / secs.max(1e-12),
            });
        }
        extra.push((format!("views_{kind}_incremental_speedup_x"), off / inc));
    }

    // The whole panel at once — the headline comparison.  Incremental: one
    // circuit hosting all five views (one shared enumeration per element).
    // Offline: the pre-circuit serving stack — a `WindowedMonitor` for the
    // anomaly series plus a plain graph, with all four graph-derived states
    // recomputed from scratch at every batch boundary.
    {
        let inc = {
            let mut samples = Vec::with_capacity(trials);
            for _ in 0..trials {
                let mut circuit = Circuit::new(estimator());
                for kind in ViewKind::ALL {
                    assert!(circuit.subscribe_view(kind.build()).is_ok());
                }
                let start = Instant::now();
                circuit.process_stream(&stream);
                circuit.finish();
                samples.push(start.elapsed().as_secs_f64());
                black_box(circuit.view_reports());
            }
            median(samples)
        };
        let off = {
            let mut samples = Vec::with_capacity(trials);
            for _ in 0..trials {
                let mut monitor = WindowedMonitor::new(estimator(), 1_024);
                let mut graph = BipartiteGraph::new();
                let refresh = |graph: &BipartiteGraph| {
                    black_box(EdgeSupports::recompute(graph).total_support() as u64);
                    black_box(VertexButterflyCounts::recompute(graph).butterflies() as u64);
                    black_box(ClusteringState::recompute(graph).coefficient().to_bits());
                    black_box(bitruss_decomposition(graph).max_bitruss());
                };
                let start = Instant::now();
                for (i, &element) in stream.iter().enumerate() {
                    monitor.process(element);
                    if element.delta.is_insert() {
                        graph.insert_edge(element.edge);
                    } else {
                        graph.delete_edge(element.edge);
                    }
                    if (i + 1).is_multiple_of(batch) {
                        refresh(&graph);
                    }
                }
                monitor.finish();
                if !stream.len().is_multiple_of(batch) {
                    refresh(&graph);
                }
                samples.push(start.elapsed().as_secs_f64());
                black_box(monitor.snapshots().len());
            }
            median(samples)
        };
        for (label, secs) in [("incremental", inc), ("recompute_per_batch", off)] {
            rows.push(Row {
                name: format!("views/all/{label}"),
                median_ns_per_op: secs * 1e9 / elements,
                ops_per_second: elements / secs.max(1e-12),
            });
        }
        extra.push(("views_all_incremental_speedup_x".to_string(), off / inc));
    }
    (rows, extra)
}

/// The durability column: what a checkpoint costs to write, what the WAL
/// append adds to the per-element hot path, and how recovery latency scales
/// with the length of the WAL suffix that must be replayed.
fn persist_rows(trials: usize) -> (Vec<Row>, Vec<(String, f64)>) {
    use abacus_core::engine::{Checkpointer, RunManifest};
    use abacus_core::EstimatorKind;

    let dir_root = std::env::temp_dir().join(format!("abacus-perf-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_root);

    // 4096 distinct insertions — enough for the longest WAL replay sweep.
    let stream: Vec<StreamElement> = (0..4096u32)
        .map(|i| StreamElement::insert(abacus_graph::Edge::new(i / 64, 1_000 + i % 64)))
        .collect();
    let spec = EstimatorSpec::new(EstimatorKind::Abacus, 2_000).with_seed(SEED);
    // `checkpoint_every` beyond the stream length: checkpoints happen only
    // where the measurement asks for them.
    let manual_only = u64::MAX;

    let mut rows = Vec::new();
    let mut extra = Vec::new();

    // Baseline: the bare estimator hot path without any durability.
    {
        let per_element = |_: usize| {
            let mut estimator = Abacus::new(AbacusConfig::new(2_000).with_seed(SEED));
            let start = Instant::now();
            for &element in &stream {
                estimator.process(element);
            }
            black_box(estimator.estimate());
            start.elapsed().as_secs_f64() * 1e9 / stream.len() as f64
        };
        let ns = median((0..trials).map(per_element).collect());
        rows.push(Row {
            name: "persist/process_plain".to_string(),
            median_ns_per_op: ns,
            ops_per_second: 1e9 / ns.max(1e-9),
        });
        extra.push(("plain_ns_per_element".to_string(), ns));
    }

    // WAL-appended ingest: every element is written through to the log
    // before processing.  The delta against the plain row is the per-element
    // durability tax.
    let offer_ns = {
        let per_element = |trial: usize| {
            let dir = dir_root.join(format!("offer-{trial}"));
            let mut checkpointer =
                Checkpointer::create(&dir, RunManifest::new(spec, manual_only)).unwrap();
            let start = Instant::now();
            for &element in &stream {
                checkpointer.offer(element).unwrap();
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / stream.len() as f64;
            drop(checkpointer);
            let _ = std::fs::remove_dir_all(&dir);
            ns
        };
        let ns = median((0..trials).map(per_element).collect());
        rows.push(Row {
            name: "persist/offer_wal_append".to_string(),
            median_ns_per_op: ns,
            ops_per_second: 1e9 / ns.max(1e-9),
        });
        ns
    };
    extra.push(("wal_append_ns_per_element".to_string(), offer_ns));

    // Checkpoint write cost: serialize state, write + fsync the ABSNAP1
    // snapshot, rotate the WAL, advance the watermark, prune — on an
    // estimator whose sample holds its full budget.
    {
        let dir = dir_root.join("write-cost");
        let mut checkpointer =
            Checkpointer::create(&dir, RunManifest::new(spec, manual_only)).unwrap();
        for &element in &stream {
            checkpointer.offer(element).unwrap();
        }
        let samples = (0..trials.max(3))
            .map(|_| {
                let start = Instant::now();
                checkpointer.checkpoint().unwrap();
                start.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        let ns = median(samples);
        rows.push(Row {
            name: "persist/checkpoint_write".to_string(),
            median_ns_per_op: ns,
            ops_per_second: 1e9 / ns.max(1e-9),
        });
        extra.push(("checkpoint_write_ms".to_string(), ns / 1e6));
    }

    // Recovery latency vs WAL length: snapshot at element 0, then a log of
    // `wal_len` records to replay.  Reported per replayed element; the
    // extra keys carry the absolute latency.
    for wal_len in [256usize, 1024, 4096] {
        let dir = dir_root.join(format!("recover-{wal_len}"));
        let mut checkpointer =
            Checkpointer::create(&dir, RunManifest::new(spec, manual_only)).unwrap();
        for &element in &stream[..wal_len] {
            checkpointer.offer(element).unwrap();
        }
        drop(checkpointer); // no seal: exactly what a killed process leaves
        let samples = (0..trials.max(3))
            .map(|_| {
                let start = Instant::now();
                let recovery = Checkpointer::resume(&dir).unwrap();
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(recovery.replayed, wal_len as u64, "short replay");
                secs * 1e9 / wal_len as f64
            })
            .collect();
        let ns = median(samples);
        rows.push(Row {
            name: format!("persist/recover_wal{wal_len}"),
            median_ns_per_op: ns,
            ops_per_second: 1e9 / ns.max(1e-9),
        });
        extra.push((
            format!("recover_ms_wal{wal_len}"),
            ns * wal_len as f64 / 1e6,
        ));
    }

    let _ = std::fs::remove_dir_all(&dir_root);
    (rows, extra)
}

/// The sample-store memory column behind `BENCH_samplestore.json`.
///
/// Fills a fig9-scale Random Pairing sample per reference stream, reads
/// `SampleGraph::heap_bytes` (honest accounting: interner tables, SoA
/// column capacities, adjacency storage including spilled hash sets, and the
/// edge slot map — not just live elements), and reports
/// `bytes_per_sampled_edge` next to two committed *before* constants
/// measured on the exact same seeded workloads:
///
/// * `bytes_per_sampled_edge_before` — the pre-interning hash-of-hashes
///   layout under the *same* honest accounting (movielens 187.4, trackers
///   316.2).  The old accounting model undercounted that layout at 130.6 /
///   143.1 bytes per edge because it ignored table and header overhead —
///   those numbers are not comparable and are deliberately not emitted.
/// * `parabacus_t1_overhead_before` — the paired single-thread PARABACUS /
///   ABACUS per-element ratio (batch 10000, snapshot off) committed before
///   the arena delta logs and scratch reuse landed; the matching `_after`
///   column is recomputed from this run's `parabacus_rows` medians.
///
/// Doubles as the memory-regression *assertion*: at the default workload
/// (budget 7500, scale 4, full stream) the run PANICS — failing CI — if
/// `bytes_per_sampled_edge` exceeds the committed ceiling.  The layout is
/// fully deterministic for a fixed seed (capacities included), so the
/// ceiling can sit close to the measured value without flaking; it is
/// skipped when the workload knobs are overridden because per-edge overhead
/// is amortization-sensitive (smaller budgets spread the fixed per-vertex
/// cost over fewer edges).
fn samplestore_rows(parabacus: &[Row]) -> (Vec<Row>, Vec<(String, f64)>) {
    let budget = env_usize("ABACUS_PERF_SMOKE_BUDGET", 7_500);
    let scale = env_usize("ABACUS_PERF_SMOKE_SCALE", 4) as u32;
    let take = env_usize("ABACUS_PERF_SMOKE_ELEMENTS", usize::MAX);
    let default_workload = budget == 7_500 && scale == 4 && take == usize::MAX;

    // (label, dataset, honest-accounting bytes/edge of the pre-interning
    //  layout, committed SoA ceiling, committed paired t1 overhead ratio
    //  before the arena/scratch work).
    const BASELINES: [(&str, Dataset, f64, f64, f64); 2] = [
        ("movielens", Dataset::MovielensLike, 187.4, 140.0, 4.060),
        ("trackers", Dataset::TrackersLike, 316.2, 200.0, 3.539),
    ];

    let median_of = |name: &str| {
        parabacus
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns_per_op)
    };

    let mut rows = Vec::new();
    let mut extra = vec![("budget".to_string(), budget as f64)];
    for (name, dataset, before_bytes, ceiling, before_overhead) in BASELINES {
        let stream: Vec<StreamElement> = dataset
            .spec()
            .scaled(scale.max(1))
            .stream(0.2, SEED)
            .into_iter()
            .take(take)
            .collect();
        let elements = stream.len() as f64;

        let start = Instant::now();
        let mut abacus = Abacus::new(AbacusConfig::new(budget).with_seed(SEED));
        abacus.process_stream(&stream);
        let secs = start.elapsed().as_secs_f64();
        black_box(abacus.estimate());
        rows.push(Row {
            name: format!("{name}/samplestore/fill"),
            median_ns_per_op: secs * 1e9 / elements,
            ops_per_second: elements / secs.max(1e-12),
        });

        let sampled = abacus.sample().len();
        let heap = abacus.sample().heap_bytes();
        let bytes_per_edge = heap as f64 / sampled.max(1) as f64;
        extra.push((format!("{name}_sampled_edges"), sampled as f64));
        extra.push((format!("{name}_sample_heap_bytes"), heap as f64));
        extra.push((format!("{name}_bytes_per_sampled_edge"), bytes_per_edge));
        extra.push((
            format!("{name}_bytes_per_sampled_edge_before"),
            before_bytes,
        ));
        extra.push((format!("{name}_bytes_per_sampled_edge_ceiling"), ceiling));
        extra.push((
            format!("{name}_parabacus_t1_overhead_before"),
            before_overhead,
        ));
        if let (Some(par), Some(seq)) = (
            median_of(&format!("{name}/parabacus_t1_m10000/snapshot_off")),
            median_of(&format!("{name}/abacus/snapshot_off")),
        ) {
            extra.push((
                format!("{name}_parabacus_t1_overhead_after"),
                par / seq.max(1e-12),
            ));
        }

        if default_workload {
            assert!(
                bytes_per_edge <= ceiling,
                "{name}: sample store spends {bytes_per_edge:.1} bytes per sampled edge, \
                 over the committed ceiling of {ceiling:.1} — the SoA layout regressed"
            );
        }
    }
    (rows, extra)
}

fn main() {
    let trials = env_usize("ABACUS_PERF_SMOKE_TRIALS", 3).max(1);
    let out_dir = std::env::var("ABACUS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());

    let rows = intersect_rows(trials);
    let intersect_json = json_document("intersect", &rows, &[]);
    let intersect_path = format!("{out_dir}/BENCH_intersect.json");
    std::fs::write(&intersect_path, &intersect_json).expect("write BENCH_intersect.json");
    println!("wrote {intersect_path}");

    let (rows, extra) = parabacus_rows(trials);
    let parabacus_json = json_document("parabacus", &rows, &extra);
    let parabacus_path = format!("{out_dir}/BENCH_parabacus.json");
    std::fs::write(&parabacus_path, &parabacus_json).expect("write BENCH_parabacus.json");
    println!("wrote {parabacus_path}");

    for (key, value) in &extra {
        println!("{key} = {value:.2}");
    }

    let (samplestore, extra) = samplestore_rows(&rows);
    let samplestore_json = json_document("samplestore", &samplestore, &extra);
    let samplestore_path = format!("{out_dir}/BENCH_samplestore.json");
    std::fs::write(&samplestore_path, &samplestore_json).expect("write BENCH_samplestore.json");
    println!("wrote {samplestore_path}");
    for (key, value) in &extra {
        println!("{key} = {value:.2}");
    }
    println!("sample store memory ceiling holds: bytes_per_sampled_edge under committed bound");

    let (rows, extra) = ingest_rows();
    let ingest_json = json_document("ingest", &rows, &extra);
    let ingest_path = format!("{out_dir}/BENCH_ingest.json");
    std::fs::write(&ingest_path, &ingest_json).expect("write BENCH_ingest.json");
    println!("wrote {ingest_path}");
    for (key, value) in &extra {
        println!("{key} = {value:.2}");
    }
    println!("ingest memory bound holds: streamed peaks stayed O(budget + chunk)");

    let (rows, extra) = ensemble_rows();
    let ensemble_json = json_document("ensemble", &rows, &extra);
    let ensemble_path = format!("{out_dir}/BENCH_ensemble.json");
    std::fs::write(&ensemble_path, &ensemble_json).expect("write BENCH_ensemble.json");
    println!("wrote {ensemble_path}");
    for (key, value) in &extra {
        println!("{key} = {value:.2}");
    }

    let (rows, extra) = views_rows(trials);
    let views_json = json_document("views", &rows, &extra);
    let views_path = format!("{out_dir}/BENCH_views.json");
    std::fs::write(&views_path, &views_json).expect("write BENCH_views.json");
    println!("wrote {views_path}");
    for (key, value) in &extra {
        println!("{key} = {value:.2}");
    }

    let (rows, extra) = persist_rows(trials);
    let persist_json = json_document("persist", &rows, &extra);
    let persist_path = format!("{out_dir}/BENCH_persist.json");
    std::fs::write(&persist_path, &persist_json).expect("write BENCH_persist.json");
    println!("wrote {persist_path}");
    for (key, value) in &extra {
        println!("{key} = {value:.2}");
    }
}
