//! Streamed-vs-materialized driver parity: `process_source` over on-disk
//! text and binary files, at pull-chunk sizes 1, 7, and the PARABACUS batch
//! size, must be **bit-identical** to `process_stream` over the materialized
//! workload — estimates (`f64::to_bits`), `memory_edges`, sampler state, and
//! probe-model `comparisons` — for every estimator in the workspace.
//!
//! This is the contract that makes bounded-memory ingestion free: chunking
//! affects staging granularity only, never which elements reach `process`
//! in which order, and the single `finish` at the end of the source matches
//! the flush `process_stream` performs.

use abacus::prelude::*;
use abacus::stream::binary::write_binary_stream_to_path;
use abacus::stream::generators::random::uniform_bipartite;
use abacus::stream::io::write_stream_to_path;
use abacus::stream::{open_path_source, SliceSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// A fully dynamic workload: 3 000 insertions with 25% deletions injected.
fn workload() -> GraphStream {
    let base = uniform_bipartite(200, 200, 3_000, &mut StdRng::seed_from_u64(77));
    inject_deletions_fast(
        &base,
        DeletionConfig::new(0.25),
        &mut StdRng::seed_from_u64(78),
    )
}

/// Writes the workload once per format into a directory of `test`'s own and
/// returns (text path, binary path).  The tests of this file run on parallel
/// threads of one process, so a shared directory would let one test rewrite
/// a file while another is reading it.
fn workload_files(stream: &[StreamElement], test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "abacus_streaming_parity_{}_{test}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("stream.txt");
    let binary = dir.join("stream.abst");
    write_stream_to_path(stream, &text).unwrap();
    write_binary_stream_to_path(stream, &binary).unwrap();
    (text, binary)
}

/// Everything a driver run exposes that must be reproducible bit-for-bit.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    estimate_bits: u64,
    memory_edges: usize,
    detail: String,
}

/// Runs one estimator through every driver (materialized slice, text file,
/// binary file × chunk sizes) and asserts all fingerprints are identical.
fn assert_driver_parity<C: ButterflyCounter>(
    label: &str,
    make: impl Fn() -> C,
    fingerprint: impl Fn(&C) -> Fingerprint,
    stream: &[StreamElement],
    text: &PathBuf,
    binary: &PathBuf,
    chunks: &[usize],
) {
    let baseline = {
        let mut counter = make();
        counter.process_stream(stream);
        fingerprint(&counter)
    };

    // The slice driver at every chunk size.
    for &chunk in chunks {
        let mut counter = make();
        let total = counter
            .process_source_chunked(&mut SliceSource::new(stream), chunk)
            .unwrap();
        assert_eq!(total, stream.len() as u64, "{label}: slice chunk {chunk}");
        assert_eq!(
            fingerprint(&counter),
            baseline,
            "{label}: slice driver diverged at chunk {chunk}"
        );
    }

    // The on-disk drivers: text and binary, every chunk size plus the
    // estimator-preferred default.
    for (format, path) in [("text", text), ("binary", binary)] {
        for chunk in chunks.iter().copied().map(Some).chain([None]) {
            let mut counter = make();
            let mut source = open_path_source(path).unwrap();
            let total = match chunk {
                Some(chunk) => counter.process_source_chunked(&mut *source, chunk),
                None => counter.process_source(&mut *source),
            }
            .unwrap();
            assert_eq!(total, stream.len() as u64, "{label}: {format} {chunk:?}");
            assert_eq!(
                fingerprint(&counter),
                baseline,
                "{label}: {format} driver diverged at chunk {chunk:?}"
            );
        }
    }
}

#[test]
fn abacus_streamed_ingestion_is_bit_identical() {
    let stream = workload();
    let (text, binary) = workload_files(&stream, "abacus");
    assert_driver_parity(
        "ABACUS",
        || Abacus::new(AbacusConfig::new(256).with_seed(9)),
        |counter| Fingerprint {
            estimate_bits: counter.estimate().to_bits(),
            memory_edges: counter.memory_edges(),
            detail: format!("{:?} {:?}", counter.sampler_state(), counter.stats()),
        },
        &stream,
        &text,
        &binary,
        &[1, 7, 128],
    );
}

#[test]
fn parabacus_streamed_ingestion_is_bit_identical_across_depths() {
    let stream = workload();
    let (text, binary) = workload_files(&stream, "parabacus");
    for depth in 1..=4usize {
        // Threads 2 exercises the worker pool: the coordinator reduces chunk
        // results in chunk order, so even multi-threaded runs stay
        // bit-reproducible.
        for threads in [1usize, 2] {
            assert_driver_parity(
                &format!("PARABACUS depth {depth} threads {threads}"),
                || {
                    ParAbacus::new(
                        ParAbacusConfig::new(256)
                            .with_seed(9)
                            .with_batch_size(128)
                            .with_threads(threads)
                            .with_pipeline_depth(depth),
                    )
                },
                |counter| Fingerprint {
                    estimate_bits: counter.estimate().to_bits(),
                    memory_edges: counter.memory_edges(),
                    detail: format!(
                        "{:?} {:?} batches {}",
                        counter.sampler_state(),
                        counter.stats(),
                        counter.batches_processed()
                    ),
                },
                &stream,
                &text,
                &binary,
                // 1 and 7 cut mini-batches at awkward staging boundaries; 128
                // stages exactly one batch per pull.
                &[1, 7, 128],
            );
        }
    }
}

#[test]
fn fleet_streamed_ingestion_is_bit_identical() {
    let stream = workload();
    let (text, binary) = workload_files(&stream, "fleet");
    assert_driver_parity(
        "FLEET",
        || Fleet::new(FleetConfig::new(256).with_seed(3)),
        |counter| Fingerprint {
            estimate_bits: counter.estimate().to_bits(),
            memory_edges: counter.memory_edges(),
            detail: format!(
                "p {} resizes {} ignored {} {:?}",
                counter.probability(),
                counter.resizes(),
                counter.ignored_deletions(),
                counter.stats()
            ),
        },
        &stream,
        &text,
        &binary,
        &[1, 7, 128],
    );
}

#[test]
fn cas_streamed_ingestion_is_bit_identical() {
    let stream = workload();
    let (text, binary) = workload_files(&stream, "cas");
    assert_driver_parity(
        "CAS",
        || Cas::new(CasConfig::new(256).with_seed(3)),
        |counter| Fingerprint {
            estimate_bits: counter.estimate().to_bits(),
            memory_edges: counter.memory_edges(),
            detail: format!(
                "wedges {} ignored {} {:?}",
                counter.estimated_wedges(),
                counter.ignored_deletions(),
                counter.stats()
            ),
        },
        &stream,
        &text,
        &binary,
        &[1, 7, 128],
    );
}

#[test]
fn exact_oracle_streamed_ingestion_is_bit_identical() {
    let stream = workload();
    let (text, binary) = workload_files(&stream, "exact");
    assert_driver_parity(
        "EXACT",
        ExactCounter::new,
        |counter| Fingerprint {
            estimate_bits: counter.estimate().to_bits(),
            memory_edges: counter.memory_edges(),
            detail: String::new(),
        },
        &stream,
        &text,
        &binary,
        &[1, 7, 128],
    );
}

/// The round trip that anchors all of the above: both file formats decode to
/// exactly the stream that was written.
#[test]
fn on_disk_formats_round_trip_the_workload() {
    let stream = workload();
    let (text, binary) = workload_files(&stream, "round_trip");
    for path in [&text, &binary] {
        let mut source = open_path_source(path).unwrap();
        let decoded = read_all(&mut source).unwrap();
        assert_eq!(decoded, stream, "{}", path.display());
    }
}
