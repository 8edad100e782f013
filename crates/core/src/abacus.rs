//! ABACUS (Algorithm 1): streaming butterfly counting under insertions and
//! deletions.
//!
//! For every incoming element the estimator
//!
//! 1. counts the butterflies the element's edge forms with the edges of the
//!    bounded sample (cheapest-side set intersections, Algorithm 1 lines
//!    7–11),
//! 2. scales each discovered butterfly by the reciprocal of the discovery
//!    probability of Eq. 1 and adds `sgn(δ)` times that amount to the running
//!    estimate,
//! 3. hands the element to the Random Pairing policy (Algorithm 2) which
//!    decides whether the sample changes.
//!
//! The order matters: the count refinement always uses the sample state *as of
//! the previous element*, which is what the unbiasedness proof conditions on.
//!
//! A `Replica` is the state this step reads and writes — the sample, its
//! Random Pairing policy and their RNG — and `Replica::step` is the step
//! itself.  ABACUS is one replica plus its estimate and work counters;
//! [`LocalAbacus`](crate::LocalAbacus) counts with its own kernel but
//! samples through a replica, and PARABACUS runs `p` replicas in lock-step.
//! All three persist the replica with `Replica::encode_state`.

use crate::config::AbacusConfig;
use crate::counter::ButterflyCounter;
use crate::probability::increment;
use crate::sample_graph::SampleGraph;
use crate::stats::ProcessingStats;
use abacus_graph::count_butterflies_with_edge;
use abacus_graph::persist::{Decoder, Encoder, PersistError};
use abacus_sampling::{RandomPairing, RandomPairingState};
use abacus_stream::{EdgeDelta, StreamElement};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// One copy of ABACUS's sampler state: the bounded sample, its Random
/// Pairing policy and the RNG the policy draws from.
///
/// Replicas built with the same budget and seed that are fed the same
/// elements in the same order stay identical.
#[derive(Debug, Clone)]
pub(crate) struct Replica {
    sample: SampleGraph,
    policy: RandomPairing,
    rng: StdRng,
}

/// A cheap digest of a replica's state: its Random Pairing triplet, sample
/// size and RNG words.  Lock-step replicas report equal fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    triplet: RandomPairingState,
    sample_len: usize,
    rng: [u64; 4],
}

impl Replica {
    /// An empty replica with budget `k` and an RNG seeded with `seed`.
    pub(crate) fn new(budget: usize, seed: u64) -> Self {
        Replica {
            sample: SampleGraph::with_budget(budget),
            policy: RandomPairing::new(budget),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The current sample.
    pub(crate) fn sample(&self) -> &SampleGraph {
        &self.sample
    }

    /// The Random Pairing bookkeeping triplet `{|E|, c_b, c_g}`.
    pub(crate) fn sampler_state(&self) -> RandomPairingState {
        self.policy.state()
    }

    /// This replica's [`Fingerprint`].
    pub(crate) fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            triplet: self.policy.state(),
            sample_len: self.sample.len(),
            rng: self.rng.state(),
        }
    }

    /// Hands `element` to Random Pairing, which decides whether the sample
    /// changes (Algorithm 1, step 2).
    pub(crate) fn update(&mut self, element: StreamElement) {
        match element.delta {
            EdgeDelta::Insert => self
                .policy
                .insert(element.edge, &mut self.sample, &mut self.rng),
            EdgeDelta::Delete => {
                self.policy.delete(&element.edge, &mut self.sample);
            }
        }
    }

    /// Runs ABACUS's count-then-update step over every element of `batch`,
    /// counting only the elements in `range`: each of those is counted
    /// against the sample as of the previous element, and `add` receives its
    /// signed, extrapolated increment (Eq. 1) when it discovered butterflies
    /// — the values ABACUS adds to its estimate, in stream order.
    ///
    /// Returns the work counters of the counted elements.
    pub(crate) fn step(
        &mut self,
        batch: &[StreamElement],
        range: Range<usize>,
        mut add: impl FnMut(f64),
    ) -> ProcessingStats {
        let mut stats = ProcessingStats::default();
        for &element in &batch[..range.start] {
            self.update(element);
        }
        for &element in &batch[range.clone()] {
            let per_edge = count_butterflies_with_edge(&self.sample, element.edge);
            let is_insert = element.delta.is_insert();
            if per_edge.butterflies > 0 {
                let budget = self.policy.budget();
                add(increment(budget, self.policy.state(), is_insert) * per_edge.butterflies as f64);
            }
            stats.record_element(is_insert, per_edge.butterflies, per_edge.comparisons);
            self.update(element);
        }
        for &element in &batch[range.end..] {
            self.update(element);
        }
        stats
    }

    /// Writes the replica: the Random Pairing triplet, the four RNG words,
    /// then the sample (with slot order and adjacency-representation flags).
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        let triplet = self.policy.state();
        enc.put_usize(triplet.live_items);
        enc.put_usize(triplet.bad_deletions);
        enc.put_usize(triplet.good_deletions);
        for word in self.rng.state() {
            enc.put_u64(word);
        }
        self.sample.encode_state(enc);
    }

    /// Reads what [`encode_state`](Self::encode_state) wrote, keeping this
    /// replica's budget.
    pub(crate) fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        let triplet = RandomPairingState {
            live_items: dec.get_usize()?,
            bad_deletions: dec.get_usize()?,
            good_deletions: dec.get_usize()?,
        };
        self.policy = RandomPairing::from_state(self.policy.budget(), triplet);
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = dec.get_u64()?;
        }
        self.rng = StdRng::from_state(rng_state);
        self.sample.restore_state(dec)
    }
}

/// The sequential ABACUS estimator.
#[derive(Debug)]
pub struct Abacus {
    config: AbacusConfig,
    replica: Replica,
    estimate: f64,
    stats: ProcessingStats,
}

impl Abacus {
    /// Creates an estimator from a configuration.
    ///
    /// ```
    /// use abacus_core::{Abacus, AbacusConfig, ButterflyCounter};
    /// use abacus_graph::Edge;
    /// use abacus_stream::StreamElement;
    ///
    /// let mut abacus = Abacus::new(AbacusConfig::new(64).with_seed(7));
    /// for (l, r) in [(0u32, 10u32), (0, 11), (1, 10), (1, 11)] {
    ///     abacus.process(StreamElement::insert(Edge::new(l, r)));
    /// }
    /// // The budget covers the whole stream, so the estimate is exact.
    /// assert_eq!(abacus.estimate(), 1.0);
    /// abacus.process(StreamElement::delete(Edge::new(1, 11)));
    /// assert_eq!(abacus.estimate(), 0.0);
    /// ```
    #[must_use]
    pub fn new(config: AbacusConfig) -> Self {
        Abacus {
            config,
            replica: Replica::new(config.budget, config.seed),
            estimate: 0.0,
            stats: ProcessingStats::default(),
        }
    }

    /// The configuration this estimator was built with.
    #[must_use]
    pub fn config(&self) -> AbacusConfig {
        self.config
    }

    /// The current sample (read-only).
    #[must_use]
    pub fn sample(&self) -> &SampleGraph {
        self.replica.sample()
    }

    /// The Random Pairing bookkeeping triplet `{|E|, c_b, c_g}`.
    #[must_use]
    pub fn sampler_state(&self) -> RandomPairingState {
        self.replica.sampler_state()
    }

    /// Work counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ProcessingStats {
        self.stats
    }
}

impl ButterflyCounter for Abacus {
    /// Refines the estimate against the current sample, then updates the
    /// sample: `Replica::step` over this one element.
    fn process(&mut self, element: StreamElement) {
        let estimate = &mut self.estimate;
        let stats = self
            .replica
            .step(std::slice::from_ref(&element), 0..1, |value| {
                *estimate += value;
            });
        self.stats.merge(&stats);
    }

    fn estimate(&self) -> f64 {
        self.estimate
    }

    fn memory_edges(&self) -> usize {
        self.replica.sample().len()
    }

    fn name(&self) -> &'static str {
        "ABACUS"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// Serializes the full estimator state: configuration fingerprint, the
    /// replica (`Replica::encode_state`), estimate bits, and work counters.
    ///
    /// After budget and seed comes a retired byte that said whether a CSR
    /// mirror of the sample was live.  It is written as 0 and read and
    /// dropped on restore, so payloads written with the mirror on restore
    /// here.
    fn save_state(&mut self) -> Result<Vec<u8>, PersistError> {
        let mut enc = Encoder::new();
        enc.put_usize(self.config.budget);
        enc.put_u64(self.config.seed);
        enc.put_u8(0); // retired: CSR mirror present
        self.replica.encode_state(&mut enc);
        enc.put_f64(self.estimate);
        crate::persist::encode_stats(&mut enc, &self.stats);
        Ok(enc.finish())
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), PersistError> {
        let mut dec = Decoder::new(state);
        let budget = dec.get_usize()?;
        let seed = dec.get_u64()?;
        if budget != self.config.budget || seed != self.config.seed {
            return Err(PersistError::Corrupt(
                "ABACUS snapshot was written under a different configuration".into(),
            ));
        }
        dec.get_u8()?; // retired: CSR mirror present
        self.replica.restore_state(&mut dec)?;
        self.estimate = dec.get_f64()?;
        self.stats = crate::persist::decode_stats(&mut dec)?;
        dec.expect_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_graph::Edge;
    use abacus_stream::generators::random::uniform_bipartite;
    use abacus_stream::{final_graph, inject_deletions_fast, DeletionConfig};
    use proptest::prelude::*;

    fn ins(l: u32, r: u32) -> StreamElement {
        StreamElement::insert(Edge::new(l, r))
    }
    fn del(l: u32, r: u32) -> StreamElement {
        StreamElement::delete(Edge::new(l, r))
    }

    /// The history behind the compatibility tests: a promoted hub (left 7),
    /// a spread of small vertices, then enough deletions to free interner
    /// slots and shrink (not demote) the hub.
    fn run_with_shrunk_hub(config: AbacusConfig) -> Abacus {
        let mut abacus = Abacus::new(config);
        for r in 0..40u32 {
            abacus.process(ins(7, 100 + r));
        }
        for l in 0..20u32 {
            abacus.process(ins(l, 500 + (l % 5)));
        }
        for r in 0..10u32 {
            abacus.process(del(7, 100 + r));
        }
        abacus
    }

    /// Drives both estimators over one mixed insert/delete suffix, long
    /// enough to overflow the budget and draw evictions from the RNG, and
    /// asserts they stay in lockstep: estimate bits after every element,
    /// then sampler state and work counters.
    fn assert_lockstep(reference: &mut Abacus, restored: &mut Abacus) {
        for i in 0..240u32 {
            let element = if i % 3 == 2 {
                del(i % 8, 500 + (i % 5))
            } else {
                ins(40 + i, 600 + (i % 7))
            };
            reference.process(element);
            restored.process(element);
            assert_eq!(
                restored.estimate().to_bits(),
                reference.estimate().to_bits(),
                "element {i}"
            );
        }
        assert_eq!(restored.sampler_state(), reference.sampler_state());
        assert_eq!(restored.stats(), reference.stats());
    }

    /// A pre-interning writer's ABSNAP1 estimator payload — whose sample
    /// section is the legacy format (edge count, edges in slot order,
    /// per-side representation flags) — must restore into the current
    /// estimator and stay bit-exact from there on.  The history includes
    /// deletions, so the reference's interner carries freed slots the
    /// restored run rebuilds differently: the interner is pure layout, and
    /// this test is the estimator-level proof.
    #[test]
    fn absnap_payload_with_legacy_sample_section_restores_bit_exact() {
        use abacus_graph::adjacency::AdjacencySet;
        use abacus_graph::{Side, VertexRef};

        let config = AbacusConfig::new(150).with_seed(9);
        let mut reference = run_with_shrunk_hub(config);

        // Hand-encode the payload exactly as the pre-interning build wrote
        // it: identical header, RNG words, estimate, and stats; the sample
        // section in the legacy (marker-less) format.
        let mut enc = Encoder::new();
        enc.put_usize(config.budget);
        enc.put_u64(config.seed);
        enc.put_u8(0); // retired: CSR mirror present
        let triplet = reference.sampler_state();
        enc.put_usize(triplet.live_items);
        enc.put_usize(triplet.bad_deletions);
        enc.put_usize(triplet.good_deletions);
        for word in reference.replica.rng.state() {
            enc.put_u64(word);
        }
        let sample = reference.sample();
        enc.put_usize(sample.len());
        for e in sample.edges() {
            enc.put_u32(e.left);
            enc.put_u32(e.right);
        }
        for side in [Side::Left, Side::Right] {
            let mut seen = Vec::new();
            let mut flags = Vec::new();
            for e in sample.edges() {
                let id = match side {
                    Side::Left => e.left,
                    Side::Right => e.right,
                };
                if seen.contains(&id) {
                    continue;
                }
                seen.push(id);
                if sample
                    .neighbors(VertexRef { side, id })
                    .is_some_and(AdjacencySet::is_large)
                {
                    flags.push(id);
                }
            }
            enc.put_usize(flags.len());
            for id in flags {
                enc.put_u32(id);
                enc.put_u8(1); // "sorted copy built": read and dropped
            }
        }
        enc.put_f64(reference.estimate());
        crate::persist::encode_stats(&mut enc, &reference.stats());
        let legacy = enc.finish();

        let mut restored = Abacus::new(config);
        restored.restore_state(&legacy).unwrap();
        assert_eq!(restored.estimate(), reference.estimate());
        assert_eq!(restored.sample().edges(), reference.sample().edges());
        assert_eq!(restored.stats(), reference.stats());

        // The divergent interner internals must be invisible: both runs stay
        // in lockstep over a mixed insert/delete suffix.
        assert_lockstep(&mut reference, &mut restored);
        // (A byte-level re-save comparison would be too strong here: the
        // reference's interner remembers slots freed before the save point,
        // which a legacy payload cannot carry — behavior, not layout, is the
        // cross-version contract.)
    }

    /// An ABSNAP1 estimator payload whose sample section is version 1 of the
    /// interned format — each hub id followed by a byte saying whether its
    /// sorted copy was built — restores, re-saves as the current payload
    /// byte for byte, and stays bit-exact from there on.
    #[test]
    fn absnap_payload_with_version_one_sample_section_restores_bit_exact() {
        let config = AbacusConfig::new(150).with_seed(9);
        let mut reference = run_with_shrunk_hub(config);
        let current = reference.save_state().unwrap();

        // Rewrite the current payload's sample section as version 1: the
        // same fields, version byte 1, and a set byte after every hub id.
        let mut dec = Decoder::new(&current);
        let mut enc = Encoder::new();
        // Budget, seed, retired mirror byte, Random Pairing triplet, RNG
        // words.
        enc.put_usize(dec.get_usize().unwrap());
        enc.put_u64(dec.get_u64().unwrap());
        enc.put_u8(dec.get_u8().unwrap());
        for _ in 0..3 {
            enc.put_usize(dec.get_usize().unwrap());
        }
        for _ in 0..4 {
            enc.put_u64(dec.get_u64().unwrap());
        }
        // Sample section: marker, version, edges in slot order.
        enc.put_usize(dec.get_usize().unwrap());
        assert_eq!(dec.get_u8().unwrap(), 2, "current sample-section version");
        enc.put_u8(1);
        let edges = dec.get_usize().unwrap();
        enc.put_usize(edges);
        for _ in 0..2 * edges {
            enc.put_u32(dec.get_u32().unwrap());
        }
        // Per side: the interner's reverse array, then its free list.
        for _ in 0..2 * 2 {
            let len = dec.get_usize().unwrap();
            enc.put_usize(len);
            for _ in 0..len {
                enc.put_u32(dec.get_u32().unwrap());
            }
        }
        // Per side: the promoted hub ids.
        let mut hubs = 0;
        for _ in 0..2 {
            let flagged = dec.get_usize().unwrap();
            enc.put_usize(flagged);
            for _ in 0..flagged {
                enc.put_u32(dec.get_u32().unwrap());
                enc.put_u8(1); // "sorted copy built": read and dropped
                hubs += 1;
            }
        }
        assert!(hubs > 0, "the history must leave a promoted hub");
        // Estimate bits and work counters.
        enc.put_raw(dec.get_raw(dec.remaining()).unwrap());
        let version_one = enc.finish();

        let mut restored = Abacus::new(config);
        restored.restore_state(&version_one).unwrap();
        assert_eq!(restored.save_state().unwrap(), current);
        assert_lockstep(&mut reference, &mut restored);
    }

    /// With a budget that exceeds the stream size, ABACUS degenerates to exact
    /// counting: the estimate must equal the true count after every element.
    #[test]
    fn exact_when_budget_covers_the_whole_stream() {
        let stream = vec![
            ins(0, 10),
            ins(0, 11),
            ins(1, 10),
            ins(1, 11), // butterfly {0,1,10,11} complete -> 1
            ins(2, 10),
            ins(2, 11), // two more butterflies (0-2 and 1-2 pairs) -> 3
            del(0, 10), // destroys butterflies {0,1},{0,2} over (10,11) -> 1
            del(2, 11), // destroys butterfly {1,2} -> 0
        ];
        let expected = [0.0, 0.0, 0.0, 1.0, 1.0, 3.0, 1.0, 0.0];
        let mut abacus = Abacus::new(AbacusConfig::new(1_000).with_seed(1));
        for (element, want) in stream.into_iter().zip(expected) {
            abacus.process(element);
            assert_eq!(abacus.estimate(), want);
        }
        assert_eq!(abacus.name(), "ABACUS");
        // The accounting sees exactly the sampled edges.
        assert_eq!(abacus.sample().len(), 4);
        assert_eq!(abacus.memory_edges(), 4);
        assert_eq!(abacus.stats().elements, 8);
    }

    #[test]
    fn sample_never_exceeds_budget() {
        let edges = uniform_bipartite(200, 200, 3_000, &mut StdRng::seed_from_u64(3));
        let stream = inject_deletions_fast(
            &edges,
            DeletionConfig::new(0.2),
            &mut StdRng::seed_from_u64(4),
        );
        let mut abacus = Abacus::new(AbacusConfig::new(64).with_seed(5));
        for element in &stream {
            abacus.process(*element);
            assert!(abacus.sample().len() <= 64);
            // The accounting sees exactly the sampled edges.
            assert_eq!(abacus.memory_edges(), abacus.sample().len());
        }
        assert_eq!(
            abacus.sampler_state().live_items,
            final_graph(&stream).num_edges()
        );
    }

    /// Unbiasedness (Theorem 1), checked empirically: the mean estimate over
    /// many independent runs must be close to the exact count, and far closer
    /// than the per-run spread.
    #[test]
    fn estimates_are_empirically_unbiased() {
        let edges = uniform_bipartite(60, 60, 1_200, &mut StdRng::seed_from_u64(11));
        let stream = inject_deletions_fast(
            &edges,
            DeletionConfig::new(0.2),
            &mut StdRng::seed_from_u64(12),
        );
        let truth = abacus_graph::count_butterflies(&final_graph(&stream)) as f64;
        assert!(truth > 0.0, "test graph must contain butterflies");

        let runs = 200;
        let mut sum = 0.0;
        for seed in 0..runs {
            let mut abacus = Abacus::new(AbacusConfig::new(150).with_seed(seed));
            abacus.process_stream(&stream);
            sum += abacus.estimate();
        }
        let mean = sum / runs as f64;
        let relative_bias = (mean - truth).abs() / truth;
        assert!(
            relative_bias < 0.15,
            "mean {mean} deviates from truth {truth} by {relative_bias}"
        );
    }

    /// Insert-only sanity: larger budgets give estimates at least as close to
    /// the truth on average (variance shrinks with k), cf. Fig. 3/5 trends.
    #[test]
    fn larger_budget_is_not_less_accurate() {
        let edges = uniform_bipartite(80, 80, 2_000, &mut StdRng::seed_from_u64(21));
        let stream: Vec<StreamElement> = edges.iter().copied().map(StreamElement::insert).collect();
        let truth = abacus_graph::count_butterflies(&final_graph(&stream)) as f64;

        let avg_error = |budget: usize| -> f64 {
            let runs = 30;
            (0..runs)
                .map(|seed| {
                    let mut a = Abacus::new(AbacusConfig::new(budget).with_seed(seed));
                    a.process_stream(&stream);
                    (a.estimate() - truth).abs() / truth
                })
                .sum::<f64>()
                / runs as f64
        };
        let small = avg_error(100);
        let large = avg_error(1_000);
        assert!(
            large <= small * 1.1,
            "error did not improve with budget: small-k {small}, large-k {large}"
        );
    }

    #[test]
    fn deletions_of_never_sampled_edges_keep_state_consistent() {
        let mut abacus = Abacus::new(AbacusConfig::new(2).with_seed(0));
        abacus.process(ins(0, 1));
        abacus.process(ins(1, 2));
        abacus.process(ins(2, 3));
        abacus.process(del(2, 3));
        abacus.process(del(0, 1));
        assert_eq!(abacus.sampler_state().live_items, 1);
        // Budget 2 can never discover a butterfly; estimate must remain 0.
        assert_eq!(abacus.estimate(), 0.0);
    }

    /// Mid-stream save/restore resumes bit-identically: estimate bits,
    /// sampler state, comparisons, memory accounting, and a re-saved payload.
    /// A payload whose retired CSR-mirror byte is set — as written by runs
    /// with the mirror on — restores and continues the same way.
    #[test]
    fn save_restore_mid_stream_is_bit_identical() {
        let edges = uniform_bipartite(60, 60, 2_000, &mut StdRng::seed_from_u64(41));
        let stream = inject_deletions_fast(
            &edges,
            DeletionConfig::new(0.2),
            &mut StdRng::seed_from_u64(42),
        );
        // Budget and seed precede the retired byte.
        let mirror_byte = 8 + 8;
        for mirror in [0u8, 1] {
            let config = AbacusConfig::new(128).with_seed(3);
            let mut reference = Abacus::new(config);
            let cut = 1_234;
            for element in &stream[..cut] {
                reference.process(*element);
            }
            let mut saved = reference.save_state().unwrap();
            assert_eq!(saved[mirror_byte], 0, "the retired byte is written 0");
            saved[mirror_byte] = mirror;
            let mut resumed = Abacus::new(config);
            resumed.restore_state(&saved).unwrap();
            assert_eq!(
                resumed.save_state().unwrap(),
                reference.save_state().unwrap(),
                "mirror byte {mirror}"
            );
            for element in &stream[cut..] {
                reference.process(*element);
                resumed.process(*element);
            }
            assert_eq!(
                resumed.estimate().to_bits(),
                reference.estimate().to_bits(),
                "mirror byte {mirror}"
            );
            assert_eq!(resumed.sampler_state(), reference.sampler_state());
            assert_eq!(resumed.stats(), reference.stats());
            assert_eq!(resumed.memory_edges(), reference.memory_edges());
            assert_eq!(
                resumed.save_state().unwrap(),
                reference.save_state().unwrap()
            );
        }
    }

    #[test]
    fn restore_rejects_other_configurations() {
        let mut source = Abacus::new(AbacusConfig::new(64).with_seed(1));
        source.process(ins(0, 1));
        let saved = source.save_state().unwrap();
        let mut other_budget = Abacus::new(AbacusConfig::new(65).with_seed(1));
        assert!(other_budget.restore_state(&saved).is_err());
        let mut other_seed = Abacus::new(AbacusConfig::new(64).with_seed(2));
        assert!(other_seed.restore_state(&saved).is_err());
        let mut truncated = Abacus::new(AbacusConfig::new(64).with_seed(1));
        assert!(truncated.restore_state(&saved[..saved.len() - 1]).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// With a budget that always covers the live population, the estimate
        /// equals the exact butterfly count for arbitrary valid streams.
        #[test]
        fn exact_mode_matches_ground_truth(
            ops in proptest::collection::vec((any::<bool>(), 0u32..8, 0u32..8), 1..120),
            seed in any::<u64>(),
        ) {
            use std::collections::BTreeSet;
            let mut live: BTreeSet<(u32, u32)> = BTreeSet::new();
            let mut stream = Vec::new();
            for (want_insert, l, r) in ops {
                if want_insert {
                    if live.insert((l, r)) {
                        stream.push(ins(l, r));
                    }
                } else if live.remove(&(l, r)) {
                    stream.push(del(l, r));
                }
            }
            let mut abacus = Abacus::new(AbacusConfig::new(10_000).with_seed(seed));
            abacus.process_stream(&stream);
            let truth = abacus_graph::count_butterflies(&final_graph(&stream)) as f64;
            prop_assert!((abacus.estimate() - truth).abs() < 1e-6);
        }
    }
}
