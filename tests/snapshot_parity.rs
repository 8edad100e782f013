//! Cross-crate parity suite for the frozen CSR counting snapshot: counting
//! against the snapshot must be *numerically invisible* — estimates
//! bit-identical at one thread (and within float-summation tolerance
//! otherwise), the Random Pairing sampler state identical, and the
//! probe-model `comparisons` counters identical — across randomized
//! insert/delete streams, budgets, batch sizes, and pipeline depths 1–4.

use abacus::prelude::*;
use abacus_core::SnapshotMode;
use abacus_stream::generators::random::uniform_bipartite;
use abacus_stream::{inject_deletions_fast, DeletionConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dynamic_stream(seed: u64, edges: usize, alpha: f64) -> Vec<StreamElement> {
    let base = uniform_bipartite(60, 60, edges, &mut StdRng::seed_from_u64(seed));
    inject_deletions_fast(
        &base,
        DeletionConfig::new(alpha),
        &mut StdRng::seed_from_u64(seed ^ 0xBEEF),
    )
}

#[test]
fn abacus_snapshot_ablation_is_bit_identical() {
    let stream = dynamic_stream(5, 2_500, 0.2);
    for budget in [32usize, 300, 5_000] {
        let base = AbacusConfig::new(budget).with_seed(11);
        let mut on = Abacus::new(base.with_snapshot(SnapshotMode::On));
        let mut off = Abacus::new(base.with_snapshot(SnapshotMode::Off));
        for element in &stream {
            on.process(*element);
            off.process(*element);
        }
        assert_eq!(
            on.estimate().to_bits(),
            off.estimate().to_bits(),
            "budget {budget}"
        );
        assert_eq!(on.sampler_state(), off.sampler_state(), "budget {budget}");
        assert_eq!(
            on.stats().comparisons,
            off.stats().comparisons,
            "budget {budget}"
        );
        assert_eq!(
            on.stats().discovered_butterflies,
            off.stats().discovered_butterflies,
            "budget {budget}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PARABACUS with the snapshot forced on matches (1) itself with the
    /// snapshot off and (2) sequential hash-path ABACUS, across randomized
    /// streams, pipeline depths 1–4, batch sizes, and thread counts —
    /// sampler state, comparisons and estimate bits exactly.
    #[test]
    fn parabacus_snapshot_ablation_matches_hash_path(
        seed in 0u64..500,
        budget in 16usize..400,
        batch in 1usize..300,
        threads in 1usize..6,
        depth in 1usize..5,
        alpha in 0.0f64..0.35,
    ) {
        let stream = dynamic_stream(seed, 700, alpha);
        let base = ParAbacusConfig::new(budget)
            .with_seed(seed)
            .with_batch_size(batch)
            .with_threads(threads)
            .with_pipeline_depth(depth);
        let mut on = ParAbacus::new(base.with_snapshot(SnapshotMode::On));
        let mut off = ParAbacus::new(base.with_snapshot(SnapshotMode::Off));
        on.process_stream(&stream);
        off.process_stream(&stream);
        prop_assert_eq!(on.estimate().to_bits(), off.estimate().to_bits());
        prop_assert_eq!(on.sampler_state(), off.sampler_state());
        prop_assert_eq!(on.stats().comparisons, off.stats().comparisons);
        prop_assert_eq!(on.sample().len(), off.sample().len());

        let mut seq = Abacus::new(
            AbacusConfig::new(budget)
                .with_seed(seed)
                .with_snapshot(SnapshotMode::Off),
        );
        seq.process_stream(&stream);
        prop_assert_eq!(on.estimate().to_bits(), seq.estimate().to_bits());
        prop_assert_eq!(seq.sampler_state(), on.sampler_state());
        prop_assert_eq!(seq.stats().comparisons, on.stats().comparisons);
    }

    /// The default `Auto` mode — including its runtime enable/disable
    /// decisions mid-stream — never changes any reported number relative to
    /// the forced hash path.
    #[test]
    fn auto_mode_is_numerically_invisible(
        seed in 0u64..500,
        budget in 256usize..600, // eligible for Auto
        batch in 1usize..4_000,  // spans Auto's minimum-batch gate
        depth in 1usize..5,
    ) {
        let stream = dynamic_stream(seed, 900, 0.2);
        let base = ParAbacusConfig::new(budget)
            .with_seed(seed)
            .with_batch_size(batch)
            .with_threads(1)
            .with_pipeline_depth(depth);
        let mut auto = ParAbacus::new(base.with_snapshot(SnapshotMode::Auto));
        let mut off = ParAbacus::new(base.with_snapshot(SnapshotMode::Off));
        auto.process_stream(&stream);
        off.process_stream(&stream);
        prop_assert_eq!(auto.estimate().to_bits(), off.estimate().to_bits());
        prop_assert_eq!(auto.sampler_state(), off.sampler_state());
        prop_assert_eq!(auto.stats().comparisons, off.stats().comparisons);
    }
}

/// The snapshot stays in lock-step with the sample through heavy churn
/// (mid-stream flushes force partial batches of every size).
#[test]
fn snapshot_stays_locked_to_the_sample_across_flushes() {
    let stream = dynamic_stream(77, 3_000, 0.3);
    let mut par = ParAbacus::new(
        ParAbacusConfig::new(64)
            .with_seed(3)
            .with_batch_size(97)
            .with_threads(2)
            .with_pipeline_depth(3)
            .with_snapshot(SnapshotMode::On),
    );
    for (i, element) in stream.iter().enumerate() {
        par.process(*element);
        if i % 501 == 0 {
            par.flush();
            if let Some(snapshot) = par.snapshot() {
                assert_eq!(snapshot.num_edges(), par.sample().len(), "element {i}");
            }
        }
    }
    par.flush();
    let snapshot = par.snapshot().expect("snapshot forced on");
    assert_eq!(snapshot.num_edges(), par.sample().len());
}
