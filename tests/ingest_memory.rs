//! Bounded-memory ingestion: ABACUS pulling a ~1M-element on-disk stream
//! through `process_source` holds O(budget + chunk) heap, not O(stream),
//! and reaches the materialized driver's estimate bit for bit.
//!
//! A counting global allocator tracks the heap peak, so this file is a test
//! binary of its own with a single test: no other test's allocations can
//! land inside a measured window.

use abacus::prelude::*;
use abacus::stream::binary::write_binary_stream_to_path;
use abacus::stream::generators::random::uniform_bipartite;
use abacus::stream::io::{read_stream_from_path, write_stream_to_path};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

const ELEMENTS: usize = 1_000_000;
const BUDGET: usize = 3_000;
const SEED: u64 = 42;

/// A [`System`]-backed allocator that tracks current and peak heap bytes.
struct CountingAllocator {
    /// Signed: frees of blocks allocated before a measurement window drive
    /// the counter below that window's baseline.
    current: AtomicIsize,
    peak: AtomicIsize,
}

impl CountingAllocator {
    fn record(&self, grow: usize, shrink: usize) {
        if grow > 0 {
            let now = self.current.fetch_add(grow as isize, Ordering::Relaxed) + grow as isize;
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
        if shrink > 0 {
            self.current.fetch_sub(shrink as isize, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` under the contract its caller
// already upholds; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.record(layout.size(), 0);
        }
        ptr
    }

    // SAFETY: forwards to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.record(layout.size(), 0);
        }
        ptr
    }

    // SAFETY: forwards to `System.realloc` with the caller's block, which
    // `System` allocated, and its layout.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            self.record(new_size, layout.size());
        }
        new_ptr
    }

    // SAFETY: forwards to `System.dealloc` with the caller's block, which
    // `System` allocated, and its layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.record(0, layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator {
    current: AtomicIsize::new(0),
    peak: AtomicIsize::new(0),
};

/// Resets the peak marker to the current heap size and returns that size.
fn reset_heap_peak() -> isize {
    let now = ALLOCATOR.current.load(Ordering::Relaxed);
    ALLOCATOR.peak.store(now, Ordering::Relaxed);
    now
}

/// Peak heap growth in bytes since the [`reset_heap_peak`] that returned
/// `baseline`.
fn heap_peak_since(baseline: isize) -> usize {
    let peak = ALLOCATOR.peak.load(Ordering::Relaxed);
    usize::try_from(peak - baseline).unwrap_or(0)
}

#[test]
fn streamed_ingest_holds_o_budget_plus_chunk_heap() {
    let dir = std::env::temp_dir().join(format!("abacus-ingest-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let text_path = dir.join("ingest.txt");
    let binary_path = dir.join("ingest.abst");
    let elements = {
        // α = 0.2 turns E edges into 1.2·E elements.
        let edges = uniform_bipartite(
            60_000,
            60_000,
            ELEMENTS * 5 / 6,
            &mut StdRng::seed_from_u64(SEED),
        );
        let stream = inject_deletions_fast(
            &edges,
            DeletionConfig::new(0.2),
            &mut StdRng::seed_from_u64(SEED ^ 0xFEED),
        );
        write_stream_to_path(&stream, &text_path).expect("write the text stream");
        write_binary_stream_to_path(&stream, &binary_path).expect("write the binary stream");
        stream.len()
    };
    let make = || Abacus::new(AbacusConfig::new(BUDGET).with_seed(SEED));
    let chunk = make().preferred_chunk();

    // Materialized driver: read the whole file, then process the slice.
    let baseline = reset_heap_peak();
    let stream = read_stream_from_path(&text_path).expect("read the text stream");
    let mut materialized = make();
    materialized.process_stream(&stream);
    let materialized_peak = heap_peak_since(baseline);
    let materialized_estimate = materialized.estimate();
    drop(stream);
    drop(materialized);

    // Streamed drivers: pull straight from disk.
    let mut streamed = Vec::new(); // (label, elements pulled, estimate, peak bytes)
    for (label, path) in [("text", &text_path), ("binary", &binary_path)] {
        let baseline = reset_heap_peak();
        let mut counter = make();
        let mut source = open_path_source(path).expect("open the stream file");
        let pulled = counter
            .process_source(&mut *source)
            .expect("stream the workload");
        drop(source);
        let peak = heap_peak_since(baseline);
        streamed.push((label, pulled, counter.estimate(), peak));
    }
    std::fs::remove_dir_all(&dir).ok();

    // Generous constants: a budget edge costs about 100 bytes across the
    // sample and a staged element 12, both ×4 for slack, plus 2 MiB fixed;
    // about 3.5 MiB in all, against a materialized stream of over 12 MB.
    let bound = 4 * (BUDGET * 100 + chunk * 12) + (2 << 20);
    for (label, pulled, estimate, peak) in streamed {
        assert_eq!(pulled as usize, elements, "{label}: wrong element count");
        assert_eq!(
            estimate.to_bits(),
            materialized_estimate.to_bits(),
            "{label}: the streamed and materialized drivers must agree bit for bit"
        );
        assert!(
            peak <= bound,
            "streamed {label} ingest peaked at {peak} heap bytes, above the \
             O(budget + chunk) bound of {bound}: is the ingest path materializing \
             the stream?"
        );
        assert!(
            peak * 3 < materialized_peak,
            "streamed {label} ingest peaked at {peak} heap bytes, not below a third \
             of the materialized driver's {materialized_peak}"
        );
    }
}
