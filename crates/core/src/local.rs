//! Per-vertex (local) butterfly count estimation.
//!
//! The paper's estimator maintains the *global* butterfly count; many of its
//! motivating applications (anomalous account detection, dense-community
//! seeds, collaborative filtering) additionally need to know **which
//! vertices** the butterflies concentrate on.  Following the local-counting
//! extensions of the triangle literature the paper builds on (TRIÈST-FD,
//! ThinkD), [`LocalAbacus`] attributes every discovered butterfly
//! `{u, v, w, x}` to its four corner vertices with the same reciprocal
//! increment used for the global estimate, which keeps every per-vertex
//! estimate unbiased by exactly the Theorem 1 argument (linearity of
//! expectation applies per vertex).
//!
//! The trade-off is that the per-edge kernel must *enumerate* the fourth
//! vertex of every butterfly instead of merely counting intersections, and the
//! per-vertex map costs O(#active vertices) extra memory — which is why the
//! plain global estimator remains the default.

use crate::abacus::Replica;
use crate::config::AbacusConfig;
use crate::counter::ButterflyCounter;
use crate::probability::increment;
use crate::stats::ProcessingStats;
use abacus_graph::persist::{Decoder, Encoder, PersistError};
use abacus_graph::{cheapest_side, FxHashMap, Side, VertexRef};
use abacus_sampling::RandomPairingState;
use abacus_stream::StreamElement;

/// ABACUS with per-vertex butterfly estimates.
#[derive(Debug)]
pub struct LocalAbacus {
    config: AbacusConfig,
    /// ABACUS's sampler state; this estimator counts with its own kernel
    /// and samples through [`Replica::update`].
    replica: Replica,
    global_estimate: f64,
    local_estimates: FxHashMap<VertexRef, f64>,
    stats: ProcessingStats,
}

impl LocalAbacus {
    /// Creates an estimator from a configuration.
    #[must_use]
    pub fn new(config: AbacusConfig) -> Self {
        LocalAbacus {
            config,
            replica: Replica::new(config.budget, config.seed),
            global_estimate: 0.0,
            local_estimates: FxHashMap::default(),
            stats: ProcessingStats::default(),
        }
    }

    /// The per-vertex butterfly estimate of a vertex (0 when never touched).
    #[must_use]
    pub fn local_estimate(&self, v: VertexRef) -> f64 {
        self.local_estimates.get(&v).copied().unwrap_or(0.0)
    }

    /// All per-vertex estimates (vertices that never participated in a
    /// discovered butterfly are absent).
    #[must_use]
    pub fn local_estimates(&self) -> &FxHashMap<VertexRef, f64> {
        &self.local_estimates
    }

    /// The `top_k` vertices by estimated butterfly participation.
    #[must_use]
    pub fn top_vertices(&self, top_k: usize) -> Vec<(VertexRef, f64)> {
        let mut ranked: Vec<(VertexRef, f64)> =
            self.local_estimates.iter().map(|(&v, &c)| (v, c)).collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranked.truncate(top_k);
        ranked
    }

    /// The Random Pairing bookkeeping triplet.
    #[must_use]
    pub fn sampler_state(&self) -> RandomPairingState {
        self.replica.sampler_state()
    }

    /// Work counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ProcessingStats {
        self.stats
    }

    fn add_local(&mut self, vertex: VertexRef, delta: f64) {
        *self.local_estimates.entry(vertex).or_insert(0.0) += delta;
    }

    /// Enumerates the butterflies formed by `edge` with the sample, applying
    /// `per_butterfly` to the global and the four local estimates.
    fn count_and_attribute(&mut self, element: StreamElement, per_butterfly: f64) {
        let edge = element.edge;
        let u = edge.left_ref();
        let v = edge.right_ref();
        let mut discovered = 0u64;
        let mut comparisons = 0u64;

        // Iterate the neighborhood the kernel's own line-7 test picks, but
        // keep the identity of the fourth vertex so it can be credited.
        // An isolated endpoint (`None`) leaves the loop below no wedge to
        // close, whichever side it iterates.
        let sample = self.replica.sample();
        let (anchor, other) = cheapest_side(sample, edge).unwrap_or((u, v));
        let wedge_side = anchor.side.opposite();

        let mut updates: Vec<(VertexRef, VertexRef)> = Vec::new();
        let anchor_neighbors: Vec<u32> = sample
            .neighbors(anchor)
            .map(|n| n.iter().collect())
            .unwrap_or_default();
        for w_id in anchor_neighbors {
            if w_id == other.id {
                continue;
            }
            let w = VertexRef::new(wedge_side, w_id);
            let (Some(w_neighbors), Some(other_neighbors)) =
                (sample.neighbors(w), sample.neighbors(other))
            else {
                continue;
            };
            let (small, large) = if w_neighbors.len() <= other_neighbors.len() {
                (w_neighbors, other_neighbors)
            } else {
                (other_neighbors, w_neighbors)
            };
            for x_id in small {
                if x_id == anchor.id {
                    continue;
                }
                comparisons += 1;
                if large.contains(x_id) {
                    discovered += 1;
                    updates.push((w, VertexRef::new(anchor.side, x_id)));
                }
            }
        }

        if discovered > 0 {
            self.global_estimate += per_butterfly * discovered as f64;
            self.add_local(u, per_butterfly * discovered as f64);
            self.add_local(v, per_butterfly * discovered as f64);
            for (w, x) in updates {
                self.add_local(w, per_butterfly);
                self.add_local(x, per_butterfly);
            }
        }
        self.stats
            .record_element(element.delta.is_insert(), discovered, comparisons);
    }
}

impl ButterflyCounter for LocalAbacus {
    fn process(&mut self, element: StreamElement) {
        let per_butterfly = increment(
            self.config.budget,
            self.replica.sampler_state(),
            element.delta.is_insert(),
        );
        self.count_and_attribute(element, per_butterfly);
        self.replica.update(element);
    }

    fn estimate(&self) -> f64 {
        self.global_estimate
    }

    fn memory_edges(&self) -> usize {
        self.replica.sample().len()
    }

    fn name(&self) -> &'static str {
        "ABACUS-local"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn save_state(&mut self) -> Result<Vec<u8>, PersistError> {
        let mut enc = Encoder::new();
        enc.put_usize(self.config.budget);
        enc.put_u64(self.config.seed);
        self.replica.encode_state(&mut enc);
        enc.put_f64(self.global_estimate);
        // Hash order is history-dependent; a sorted dump makes the payload a
        // pure function of the estimates.
        let mut locals: Vec<(VertexRef, f64)> =
            self.local_estimates.iter().map(|(&v, &c)| (v, c)).collect();
        locals.sort_by_key(|&(v, _)| v);
        enc.put_usize(locals.len());
        for (vertex, estimate) in locals {
            enc.put_u8(match vertex.side {
                Side::Left => 0,
                Side::Right => 1,
            });
            enc.put_u32(vertex.id);
            enc.put_f64(estimate);
        }
        crate::persist::encode_stats(&mut enc, &self.stats);
        Ok(enc.finish())
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), PersistError> {
        let mut dec = Decoder::new(state);
        let budget = dec.get_usize()?;
        let seed = dec.get_u64()?;
        if budget != self.config.budget || seed != self.config.seed {
            return Err(PersistError::Corrupt(
                "ABACUS-local snapshot was written under a different configuration".into(),
            ));
        }
        self.replica.restore_state(&mut dec)?;
        self.global_estimate = dec.get_f64()?;
        let count = dec.get_usize()?;
        // Each entry is at least 13 bytes (side + id + estimate).
        if count > dec.remaining() / 13 {
            return Err(PersistError::Truncated(format!(
                "local-estimate table claims {count} entries, payload holds at most {}",
                dec.remaining() / 13
            )));
        }
        let mut locals = FxHashMap::default();
        for _ in 0..count {
            let side = match dec.get_u8()? {
                0 => Side::Left,
                1 => Side::Right,
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "invalid vertex side byte {other}"
                    )))
                }
            };
            let vertex = VertexRef::new(side, dec.get_u32()?);
            let estimate = dec.get_f64()?;
            if locals.insert(vertex, estimate).is_some() {
                return Err(PersistError::Corrupt(
                    "duplicate vertex in local-estimate table".into(),
                ));
            }
        }
        self.local_estimates = locals;
        self.stats = crate::persist::decode_stats(&mut dec)?;
        dec.expect_end()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abacus::Abacus;
    use abacus_graph::exact::count_butterflies_per_side_vertex;
    use abacus_graph::{Edge, Side};
    use abacus_stream::generators::random::uniform_bipartite;
    use abacus_stream::{final_graph, inject_deletions_fast, DeletionConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dynamic_stream(seed: u64, edges: usize, alpha: f64) -> Vec<StreamElement> {
        let base = uniform_bipartite(50, 50, edges, &mut StdRng::seed_from_u64(seed));
        inject_deletions_fast(
            &base,
            DeletionConfig::new(alpha),
            &mut StdRng::seed_from_u64(seed + 1),
        )
    }

    #[test]
    fn global_estimate_matches_plain_abacus() {
        let stream = dynamic_stream(1, 1_200, 0.2);
        for budget in [64usize, 256, 5_000] {
            let mut plain = Abacus::new(AbacusConfig::new(budget).with_seed(7));
            plain.process_stream(&stream);
            let mut local = LocalAbacus::new(AbacusConfig::new(budget).with_seed(7));
            local.process_stream(&stream);
            let scale = plain.estimate().abs().max(1.0);
            assert!(
                (plain.estimate() - local.estimate()).abs() < 1e-9 * scale,
                "budget {budget}: {} vs {}",
                plain.estimate(),
                local.estimate()
            );
            // Sampled state is identical.
            assert_eq!(plain.sample().len(), local.memory_edges());
        }
    }

    #[test]
    fn local_estimates_are_exact_with_a_covering_budget() {
        let stream = dynamic_stream(3, 900, 0.25);
        let mut local = LocalAbacus::new(AbacusConfig::new(10_000).with_seed(0));
        local.process_stream(&stream);

        let graph = final_graph(&stream);
        let exact_left = count_butterflies_per_side_vertex(&graph, Side::Left);
        let exact_right = count_butterflies_per_side_vertex(&graph, Side::Right);
        for (&vertex, &exact) in &exact_left {
            let estimate = local.local_estimate(VertexRef::left(vertex));
            assert!(
                (estimate - exact as f64).abs() < 1e-6,
                "L{vertex}: {estimate} vs {exact}"
            );
        }
        for (&vertex, &exact) in &exact_right {
            let estimate = local.local_estimate(VertexRef::right(vertex));
            assert!(
                (estimate - exact as f64).abs() < 1e-6,
                "R{vertex}: {estimate} vs {exact}"
            );
        }
        // Sum of local estimates is four times the global one (each butterfly
        // has four corners).
        let local_sum: f64 = local.local_estimates().values().sum();
        assert!((local_sum - 4.0 * local.estimate()).abs() < 1e-6);
        assert_eq!(local.name(), "ABACUS-local");
    }

    #[test]
    fn top_vertices_ranks_by_estimate() {
        let mut local = LocalAbacus::new(AbacusConfig::new(1_000).with_seed(2));
        // Butterfly-rich clique on one pair of right vertices.
        for l in 0..5u32 {
            local.process(StreamElement::insert(Edge::new(l, 100)));
            local.process(StreamElement::insert(Edge::new(l, 101)));
        }
        let top = local.top_vertices(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, VertexRef::right(100));
        assert_eq!(top[1].0, VertexRef::right(101));
        assert!(top[0].1 >= top[1].1);
        assert!(local.top_vertices(0).is_empty());
        assert_eq!(local.local_estimate(VertexRef::left(99)), 0.0);
        assert!(local.stats().elements == 10);
        assert!(local.sampler_state().live_items == 10);
    }

    #[test]
    fn save_restore_mid_stream_is_bit_identical() {
        let stream = dynamic_stream(9, 1_000, 0.2);
        let cut = 613;
        let config = AbacusConfig::new(192).with_seed(4);

        let mut reference = LocalAbacus::new(config);
        reference.process_stream(&stream);

        let mut source = LocalAbacus::new(config);
        source.process_stream(&stream[..cut]);
        let payload = source.save_state().unwrap();
        let mut resumed = LocalAbacus::new(config);
        resumed.restore_state(&payload).unwrap();
        resumed.process_stream(&stream[cut..]);

        assert_eq!(reference.estimate().to_bits(), resumed.estimate().to_bits());
        assert_eq!(reference.sampler_state(), resumed.sampler_state());
        assert_eq!(reference.memory_edges(), resumed.memory_edges());
        assert_eq!(reference.stats().comparisons, resumed.stats().comparisons);
        assert_eq!(
            reference.local_estimates().len(),
            resumed.local_estimates().len()
        );
        for (&vertex, &estimate) in reference.local_estimates() {
            assert_eq!(
                estimate.to_bits(),
                resumed.local_estimate(vertex).to_bits(),
                "{vertex:?}"
            );
        }
        assert_eq!(
            reference.save_state().unwrap(),
            resumed.save_state().unwrap()
        );

        // Wrong configuration or truncation fails closed.
        let mut other = LocalAbacus::new(AbacusConfig::new(193).with_seed(4));
        assert!(other.restore_state(&payload).is_err());
        let mut target = LocalAbacus::new(config);
        assert!(target.restore_state(&payload[..payload.len() - 1]).is_err());
    }
}
