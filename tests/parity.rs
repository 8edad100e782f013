//! Cross-crate integration test: PARABACUS is count-identical to ABACUS
//! (Theorem 5) on realistic dataset-analog workloads.

use abacus::prelude::*;

fn prefix_stream(n: usize) -> GraphStream {
    Dataset::MovielensLike
        .stream(0.2, 0)
        .into_iter()
        .take(n)
        .collect()
}

#[test]
fn parabacus_matches_abacus_on_a_dataset_analog() {
    let stream = prefix_stream(30_000);
    let budget = 1_500;

    let mut abacus = Abacus::new(AbacusConfig::new(budget).with_seed(17));
    abacus.process_stream(&stream);

    for (batch_size, threads) in [(500usize, 8usize), (997, 3), (10_000, 16)] {
        let mut parabacus = ParAbacus::new(
            ParAbacusConfig::new(budget)
                .with_seed(17)
                .with_batch_size(batch_size)
                .with_threads(threads),
        );
        parabacus.process_stream(&stream);

        assert_eq!(
            abacus.estimate().to_bits(),
            parabacus.estimate().to_bits(),
            "batch {batch_size}, threads {threads}: {} vs {}",
            abacus.estimate(),
            parabacus.estimate()
        );
        // Sampled state is identical; `memory_edges` differs, since
        // PARABACUS charges one sample per replica.
        assert_eq!(abacus.sample().len(), parabacus.sample().len());
        assert_eq!(
            abacus.sampler_state(),
            parabacus.sampler_state(),
            "Random Pairing state must be identical"
        );
    }
}

#[test]
fn parabacus_partial_batches_flush_on_stream_end() {
    // A stream whose length is not a multiple of the batch size must still be
    // fully counted by process_stream.
    let stream = prefix_stream(1_234);
    let mut abacus = Abacus::new(AbacusConfig::new(500).with_seed(3));
    abacus.process_stream(&stream);
    let mut parabacus = ParAbacus::new(
        ParAbacusConfig::new(500)
            .with_seed(3)
            .with_batch_size(1_000)
            .with_threads(4),
    );
    parabacus.process_stream(&stream);
    assert_eq!(parabacus.pending_elements(), 0);
    assert_eq!(abacus.estimate().to_bits(), parabacus.estimate().to_bits());
}
