//! The common interface of every streaming butterfly counter in the workspace.

use crate::{ElementSource, SliceSource, StreamElement, StreamIoError};

/// Pull-chunk size of the source drivers when an estimator does not override
/// [`ButterflyCounter::preferred_chunk`] (PARABACUS substitutes its mini-batch
/// size).  Small enough that the staging buffer is noise next to any sample
/// budget, large enough to amortize the per-chunk bookkeeping.
pub const DEFAULT_SOURCE_CHUNK: usize = 4_096;

/// A streaming butterfly-count estimator.
///
/// Implemented by ABACUS, PARABACUS, the exact oracle, and the insert-only
/// baselines (FLEET, CAS), so that the experiment harness can drive all of
/// them through one code path.
pub trait ButterflyCounter {
    /// Processes one stream element (edge insertion or deletion).
    fn process(&mut self, element: StreamElement);

    /// Processes a slice of stream elements in order and flushes any internal
    /// buffering ([`finish`](Self::finish)), so the estimate reflects the
    /// entire input.
    ///
    /// This is the materialized convenience path; it is defined as driving
    /// [`process_source_chunked`](Self::process_source_chunked) over a
    /// [`SliceSource`], so the materialized and streamed drivers are the same
    /// code and produce bit-identical results.
    fn process_stream(&mut self, stream: &[StreamElement]) {
        let mut source = SliceSource::new(stream);
        self.process_source_chunked(&mut source, self.preferred_chunk())
            // lint:allow(panic-policy): SliceSource is infallible (no I/O), so the chunked driver cannot return an error here
            .expect("in-memory sources never fail");
    }

    /// The driver's preferred pull-chunk size for
    /// [`process_source`](Self::process_source).
    ///
    /// Defaults to [`DEFAULT_SOURCE_CHUNK`]; PARABACUS overrides it with its
    /// mini-batch size so one pull stages exactly one batch.
    fn preferred_chunk(&self) -> usize {
        DEFAULT_SOURCE_CHUNK
    }

    /// Processes every element of a pull-based source in order, then flushes
    /// ([`finish`](Self::finish)).  Returns the number of elements processed.
    ///
    /// Peak additional memory is O(`preferred_chunk`) — the staging buffer —
    /// regardless of stream length: this is the bounded-memory ingestion
    /// path for disk-resident or generated-on-the-fly workloads.
    ///
    /// # Errors
    ///
    /// Stops at the first source error and returns it; the chunks staged
    /// before the erroring one have been processed, the partially staged
    /// chunk is discarded, and `finish` has *not* been called.
    fn process_source(&mut self, source: &mut dyn ElementSource) -> Result<u64, StreamIoError> {
        let chunk = self.preferred_chunk();
        self.process_source_chunked(source, chunk)
    }

    /// [`process_source`](Self::process_source) with an explicit pull-chunk
    /// size.
    ///
    /// Chunking only affects staging granularity, never semantics: every
    /// element is handed to [`process`](Self::process) in stream order and
    /// the single [`finish`](Self::finish) happens at the end of the source,
    /// so estimates, sampler state, and work counters are bit-identical
    /// across chunk sizes and to [`process_stream`](Self::process_stream).
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    ///
    /// # Errors
    /// See [`process_source`](Self::process_source).
    fn process_source_chunked(
        &mut self,
        source: &mut dyn ElementSource,
        chunk: usize,
    ) -> Result<u64, StreamIoError> {
        assert!(chunk >= 1, "pull chunk must hold at least one element");
        let mut staged: Vec<StreamElement> = Vec::new();
        let mut total = 0u64;
        loop {
            staged.clear();
            while staged.len() < chunk {
                match source.next_element() {
                    Some(Ok(element)) => staged.push(element),
                    Some(Err(error)) => return Err(error),
                    None => break,
                }
            }
            total += staged.len() as u64;
            for &element in &staged {
                self.process(element);
            }
            if staged.len() < chunk {
                break; // the source is exhausted
            }
        }
        self.finish();
        Ok(total)
    }

    /// The current butterfly-count estimate.
    ///
    /// Buffered implementations (PARABACUS) may lag behind the elements
    /// handed to [`process`](Self::process): the estimate reflects only
    /// completed mini-batches.  Use [`finish`](Self::finish) for a final
    /// estimate covering everything.
    fn estimate(&self) -> f64;

    /// Flushes any internal buffering and returns the final estimate.
    ///
    /// For eager estimators (ABACUS, the exact oracle, the insert-only
    /// baselines) this is simply [`estimate`](Self::estimate) — every element
    /// is fully accounted for as soon as `process` returns, so the default
    /// implementation suffices.  PARABACUS overrides it to process the
    /// partially filled mini-batch buffer first, so the returned value — and
    /// the statistics accessors afterwards — match what sequential ABACUS
    /// would report over the same stream.
    fn finish(&mut self) -> f64 {
        self.estimate()
    }

    /// Resident memory of the estimator in edge equivalents (one edge = two
    /// `u32` endpoints): the sample size for approximate estimators, the full
    /// graph for the exact oracle, **plus** any duplicates of that state —
    /// PARABACUS charges one sample per replica here, so the Table 2 memory
    /// numbers reflect what is actually allocated.
    fn memory_edges(&self) -> usize;

    /// A short human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Introspection hook for callers holding the estimator behind
    /// `dyn ButterflyCounter` (the engine registry, ensemble replicas, the
    /// bench harness) that need a concrete type back — per-thread workload
    /// counters, sampler state for parity fingerprints, and the like.
    ///
    /// Returns `None` by default so trivial implementations (test stubs,
    /// wrappers without interesting state) need not opt in; every first-class
    /// estimator in the workspace overrides it with `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Serializes the estimator's full durable state to a byte payload the
    /// matching [`restore_state`](Self::restore_state) can rebuild exactly.
    ///
    /// Takes `&mut self` because saving normalizes buffered work first
    /// (PARABACUS flushes its partial mini-batch), so the payload describes
    /// a single well-defined point in the stream.  Two estimators in equal
    /// state produce byte-identical payloads — the recovery parity suite
    /// compares them directly.
    ///
    /// # Errors
    /// [`PersistError::Unsupported`](abacus_graph::persist::PersistError::Unsupported)
    /// by default; estimators opt in by
    /// overriding both this and [`restore_state`](Self::restore_state).
    fn save_state(&mut self) -> Result<Vec<u8>, abacus_graph::persist::PersistError> {
        Err(abacus_graph::persist::PersistError::Unsupported(
            self.name(),
        ))
    }

    /// Restores state captured by [`save_state`](Self::save_state) into an
    /// estimator freshly built from the *same* spec.  After a successful
    /// restore the estimator is bit-identical to the one that saved:
    /// estimates, sampler and RNG state, work counters, and memory
    /// accounting all match.
    ///
    /// # Errors
    /// [`PersistError::Unsupported`](abacus_graph::persist::PersistError::Unsupported)
    /// by default; typed decode errors
    /// (truncation, corruption, wrong estimator kind) when overridden.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), abacus_graph::persist::PersistError> {
        let _ = state;
        Err(abacus_graph::persist::PersistError::Unsupported(
            self.name(),
        ))
    }

    /// Subscribes an incrementally maintained
    /// [`DeltaView`](crate::view::DeltaView) to this estimator's ingest
    /// path, if the estimator hosts one.
    ///
    /// Only delta-circuit hosts (the `Circuit` wrapper in `abacus-core`)
    /// accept subscriptions — they own the authoritative graph each view
    /// folds against.  Everything else keeps the default implementation,
    /// which declines by handing the view back so the caller can rewrap or
    /// report a configuration error instead of silently dropping state.
    ///
    /// # Errors
    /// Returns `Err(view)` (the unconsumed view) when this estimator cannot
    /// host views.
    fn subscribe_view(
        &mut self,
        view: Box<dyn crate::view::DeltaView + Send>,
    ) -> Result<(), Box<dyn crate::view::DeltaView + Send>> {
        Err(view)
    }
}

/// Boxed counters forward every method to the boxed value, so wrappers
/// generic over `C: ButterflyCounter` (the delta circuit) can host
/// `Box<dyn ButterflyCounter + Send>` estimators built by the engine
/// registry without a separate dynamic code path.
impl<C: ButterflyCounter + ?Sized> ButterflyCounter for Box<C> {
    fn process(&mut self, element: StreamElement) {
        (**self).process(element);
    }

    fn process_stream(&mut self, stream: &[StreamElement]) {
        (**self).process_stream(stream);
    }

    fn preferred_chunk(&self) -> usize {
        (**self).preferred_chunk()
    }

    fn process_source(&mut self, source: &mut dyn ElementSource) -> Result<u64, StreamIoError> {
        (**self).process_source(source)
    }

    fn process_source_chunked(
        &mut self,
        source: &mut dyn ElementSource,
        chunk: usize,
    ) -> Result<u64, StreamIoError> {
        (**self).process_source_chunked(source, chunk)
    }

    fn estimate(&self) -> f64 {
        (**self).estimate()
    }

    fn finish(&mut self) -> f64 {
        (**self).finish()
    }

    fn memory_edges(&self) -> usize {
        (**self).memory_edges()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }

    fn save_state(&mut self) -> Result<Vec<u8>, abacus_graph::persist::PersistError> {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), abacus_graph::persist::PersistError> {
        (**self).restore_state(state)
    }

    fn subscribe_view(
        &mut self,
        view: Box<dyn crate::view::DeltaView + Send>,
    ) -> Result<(), Box<dyn crate::view::DeltaView + Send>> {
        (**self).subscribe_view(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_graph::Edge;

    /// A trivial counter used to exercise the default source drivers.
    #[derive(Default)]
    struct CountingStub {
        processed: usize,
        finishes: usize,
    }

    impl ButterflyCounter for CountingStub {
        fn process(&mut self, _element: StreamElement) {
            self.processed += 1;
        }
        fn estimate(&self) -> f64 {
            self.processed as f64
        }
        fn finish(&mut self) -> f64 {
            self.finishes += 1;
            self.estimate()
        }
        fn memory_edges(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "stub"
        }
    }

    fn stream_of(n: u32) -> Vec<StreamElement> {
        (0..n)
            .map(|i| StreamElement::insert(Edge::new(i, i)))
            .collect()
    }

    #[test]
    fn default_process_stream_visits_every_element_and_finishes_once() {
        let mut stub = CountingStub::default();
        stub.process_stream(&stream_of(10));
        assert_eq!(stub.estimate(), 10.0);
        assert_eq!(stub.finishes, 1);
        assert_eq!(stub.name(), "stub");
        assert_eq!(stub.memory_edges(), 0);
        assert_eq!(stub.preferred_chunk(), DEFAULT_SOURCE_CHUNK);
    }

    #[test]
    fn source_driver_is_chunk_size_independent() {
        let stream = stream_of(23);
        for chunk in [1usize, 7, 23, 1_000] {
            let mut stub = CountingStub::default();
            let mut source = SliceSource::new(&stream);
            let total = stub.process_source_chunked(&mut source, chunk).unwrap();
            assert_eq!(total, 23, "chunk {chunk}");
            assert_eq!(stub.processed, 23, "chunk {chunk}");
            assert_eq!(stub.finishes, 1, "chunk {chunk}");
        }
        // Empty sources still finish (flushing buffered work is semantics,
        // not an optimization).
        let mut stub = CountingStub::default();
        let total = stub.process_source(&mut SliceSource::new(&[])).unwrap();
        assert_eq!(total, 0);
        assert_eq!(stub.finishes, 1);
    }

    #[test]
    fn source_driver_stops_at_the_first_error() {
        struct FailingSource {
            yielded: usize,
        }
        impl ElementSource for FailingSource {
            fn next_element(&mut self) -> Option<Result<StreamElement, StreamIoError>> {
                if self.yielded < 3 {
                    self.yielded += 1;
                    Some(Ok(StreamElement::insert(Edge::new(0, self.yielded as u32))))
                } else {
                    Some(Err(StreamIoError::format("boom")))
                }
            }
        }
        let mut stub = CountingStub::default();
        let err = stub
            .process_source_chunked(&mut FailingSource { yielded: 0 }, 2)
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
        // The first full chunk (2 elements) was processed before the error
        // surfaced in the second chunk; no finish happened.
        assert_eq!(stub.processed, 2);
        assert_eq!(stub.finishes, 0);
    }

    #[test]
    #[should_panic(expected = "chunk")]
    fn zero_chunk_panics() {
        let mut stub = CountingStub::default();
        let _ = stub.process_source_chunked(&mut SliceSource::new(&[]), 0);
    }

    #[test]
    fn boxed_counters_forward_and_decline_view_subscriptions_by_default() {
        struct NullView;
        impl crate::view::DeltaView for NullView {
            fn name(&self) -> &'static str {
                "null"
            }
            fn apply_delta(&mut self, _event: &crate::view::DeltaEvent<'_>) {}
            fn report(
                &self,
                _graph: &abacus_graph::BipartiteGraph,
                _supports: &abacus_graph::EdgeSupports,
            ) -> Vec<String> {
                Vec::new()
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }

        let mut boxed: Box<dyn ButterflyCounter + Send> = Box::new(CountingStub::default());
        boxed.process_stream(&stream_of(4));
        assert_eq!(boxed.estimate(), 4.0);
        assert_eq!(boxed.name(), "stub");
        assert_eq!(boxed.memory_edges(), 0);
        assert!(boxed.as_any().is_none());
        // The default subscription hook declines and hands the view back
        // unconsumed, including through the box.
        let declined = boxed
            .subscribe_view(Box::new(NullView))
            .expect_err("stubs host no views");
        assert_eq!(declined.name(), "null");
    }
}
