//! One pass over an input file through the calls `abacus run` makes:
//! `open_path_source`, then `EstimatorSpec::build`/`build_with_views` (or
//! `Checkpointer::create` for a durable run), then chunked pulls of
//! `preferred_chunk` elements handed to `process` (or `offer`), then
//! `finish`.
//!
//! A traced pass records spans around each of those calls, from outside the
//! library; an untraced pass only reads the clock once per chunk.

use crate::heap;
use crate::workload::Workload;
use abacus_core::circuit::PerVertexView;
use abacus_core::engine::{Checkpointer, RunManifest};
use abacus_core::{Abacus, ButterflyCounter, Circuit, ParAbacus, PhaseTimings};
use abacus_stream::{open_path_source, ElementSource, StreamElement};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The circuit type `EstimatorSpec::build_with_views` returns, for
/// downcasting.
type BoxedCircuit = Circuit<Box<dyn ButterflyCounter + Send>>;

/// Which estimator a pass drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload as configured: views, durability, PARABACUS.
    Main,
    /// Sequential ABACUS with the workload's budget and seed, no views and
    /// no durability: the bare estimator the layer subtraction and the
    /// parity checks compare against.
    Bare,
}

/// The object the run loop feeds.
enum Target {
    Plain(Box<dyn ButterflyCounter + Send>),
    Durable(Box<Checkpointer>),
}

impl Target {
    fn estimator(&self) -> &dyn ButterflyCounter {
        match self {
            Target::Plain(counter) => &**counter,
            Target::Durable(checkpointer) => checkpointer.estimator(),
        }
    }

    /// Name of the span around a chunk's `process`/`offer` calls.
    fn layer(&self) -> &'static str {
        if matches!(self, Target::Durable(_)) {
            return "checkpoint.offer";
        }
        let any = self.estimator().as_any();
        if any.is_some_and(|a| a.is::<BoxedCircuit>()) {
            "circuit.process"
        } else if any.is_some_and(|a| a.is::<ParAbacus>()) {
            "parabacus.process"
        } else {
            "abacus.process"
        }
    }
}

/// The innermost estimator behind a circuit, if any.
fn core_any(counter: &dyn ButterflyCounter) -> Option<&dyn std::any::Any> {
    let any = counter.as_any()?;
    match any.downcast_ref::<BoxedCircuit>() {
        Some(circuit) => circuit.estimator().as_any(),
        None => Some(any),
    }
}

/// Mini-batches whose counts the estimate already includes, for PARABACUS.
fn collected_batches(counter: &dyn ButterflyCounter) -> Option<u64> {
    let par = core_any(counter)?.downcast_ref::<ParAbacus>()?;
    Some(par.batches_processed() - par.in_flight_batches() as u64)
}

/// One recorded span.  Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Index of the enclosing span in the same pass, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// In-memory span recorder of one pass.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }
}

/// Opens a span when tracing; returns its id.
fn open(tracer: &mut Option<Tracer>, name: &'static str, parent: Option<usize>) -> Option<usize> {
    tracer.as_mut().map(|t| t.open(name, parent))
}

/// Closes the span `open` returned, if any.
fn close(tracer: &mut Option<Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.close(id);
    }
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Open + sniff + build (+ checkpoint dir and manifest), seconds.
    pub setup_s: f64,
    /// First pull to the return of `finish`, seconds.
    pub run_s: f64,
    /// Elements pulled.
    pub elements: u64,
    /// The final estimate.
    pub estimate: f64,
    /// Peak live heap during the run, bytes.
    pub peak_heap: usize,
    /// Per chunk: ms from the start of its pulls until the estimate
    /// reflects its last element.
    pub freshness_ms: Vec<f64>,
    /// Deterministic work counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// PARABACUS's own phase clock, when PARABACUS ran.
    pub phases: Option<PhaseTimings>,
    /// `committed()` of a durable run.
    pub committed: Option<u64>,
    /// Spans of a traced pass (empty otherwise).
    pub spans: Vec<Span>,
}

/// Builds the target and opens the source, the set-up `abacus run` does.
fn set_up(
    workload: &Workload,
    mode: Mode,
    path: &Path,
    checkpoint_dir: &Path,
) -> Result<(Box<dyn ElementSource>, Target), String> {
    let source = open_path_source(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let target = match (mode, workload.checkpoint_every) {
        (Mode::Bare, _) => Target::Plain(workload.bare_spec().build()),
        (Mode::Main, Some(every)) => {
            let manifest = RunManifest::new(workload.spec, every).with_views(&workload.views);
            Target::Durable(Box::new(
                Checkpointer::create(checkpoint_dir, manifest)
                    .map_err(|e| format!("checkpoint create: {e}"))?,
            ))
        }
        (Mode::Main, None) if workload.views.is_empty() => Target::Plain(workload.spec.build()),
        (Mode::Main, None) => Target::Plain(workload.spec.build_with_views(&workload.views)),
    };
    Ok((source, target))
}

/// Times set-up alone, then tears it down.
pub fn setup_only(workload: &Workload, path: &Path, checkpoint_dir: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let built = set_up(workload, Mode::Main, path, checkpoint_dir)?;
    let seconds = start.elapsed().as_secs_f64();
    drop(built);
    remove_dir(checkpoint_dir);
    Ok(seconds)
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        // Best effort: a leftover directory only costs disk space, and the
        // next pass uses a fresh name.
        let _ = fs::remove_dir_all(dir);
    }
}

/// Runs one pass of `workload` over `path`.
pub fn run(
    workload: &Workload,
    mode: Mode,
    path: &Path,
    checkpoint_dir: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let mut tracer = traced.then(|| Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    });
    let setup_span = open(&mut tracer, "setup", None);
    let setup_start = Instant::now();
    let (mut source, mut target) = set_up(workload, mode, path, checkpoint_dir)?;
    let setup_s = setup_start.elapsed().as_secs_f64();
    close(&mut tracer, setup_span);

    let chunk = target.estimator().preferred_chunk();
    let layer = target.layer();
    let every = workload.checkpoint_every.unwrap_or(u64::MAX);
    let mut staged: Vec<StreamElement> = Vec::with_capacity(chunk);
    let mut freshness_ms = Vec::new();
    // Chunks whose estimate is not visible yet (PARABACUS), with the
    // instant their pulls started.
    let mut pending: Vec<Instant> = Vec::new();
    let mut elements = 0u64;

    heap::reset_peak();
    let start = Instant::now();
    let root = open(&mut tracer, "run", None);
    loop {
        let chunk_start = Instant::now();
        let pull = open(&mut tracer, "stream", root);
        staged.clear();
        while staged.len() < chunk {
            match source.next_element() {
                Some(Ok(element)) => staged.push(element),
                Some(Err(error)) => return Err(format!("pull: {error}")),
                None => break,
            }
        }
        close(&mut tracer, pull);
        if staged.is_empty() {
            break;
        }
        elements += staged.len() as u64;
        let process = open(&mut tracer, layer, root);
        match &mut target {
            Target::Plain(counter) => {
                for &element in &staged {
                    counter.process(element);
                }
            }
            Target::Durable(checkpointer) => {
                for &element in &staged {
                    // The offer that reaches the cadence writes a snapshot.
                    let span = if tracer.is_some() && (checkpointer.elements() + 1) % every == 0 {
                        open(&mut tracer, "checkpoint.snapshot", process)
                    } else {
                        None
                    };
                    checkpointer
                        .offer(element)
                        .map_err(|e| format!("offer: {e}"))?;
                    close(&mut tracer, span);
                }
            }
        }
        close(&mut tracer, process);
        pending.push(chunk_start);
        let visible = collected_batches(target.estimator()).map_or(pending.len(), |batches| {
            let done = freshness_ms.len() as u64;
            (batches.saturating_sub(done) as usize).min(pending.len())
        });
        let now = Instant::now();
        for started in pending.drain(..visible) {
            freshness_ms.push((now - started).as_secs_f64() * 1e3);
        }
        if staged.len() < chunk {
            break;
        }
    }
    let finish = open(&mut tracer, "finish", root);
    let estimate = match &mut target {
        Target::Plain(counter) => counter.finish(),
        Target::Durable(checkpointer) => {
            checkpointer.finish().map_err(|e| format!("finish: {e}"))?
        }
    };
    let end = Instant::now();
    close(&mut tracer, finish);
    close(&mut tracer, root);
    let run_s = (end - start).as_secs_f64();
    let peak_heap = heap::peak_bytes();
    for started in pending.drain(..) {
        freshness_ms.push((end - started).as_secs_f64() * 1e3);
    }

    let input_bytes = fs::metadata(path).map_or(0, |m| m.len());
    let mut counters = counters(target.estimator(), elements, input_bytes);
    let phases = core_any(target.estimator())
        .and_then(|a| a.downcast_ref::<ParAbacus>())
        .map(ParAbacus::phase_timings);
    let committed = match &target {
        Target::Durable(checkpointer) => {
            counters.insert("checkpoint.snapshots", elements / every);
            let (wal, snap) = checkpoint_bytes(checkpointer.dir());
            counters.insert("checkpoint.wal_bytes", wal);
            counters.insert("checkpoint.snapshot_bytes", snap);
            checkpointer
                .committed()
                .map_err(|e| format!("committed: {e}"))?
        }
        Target::Plain(_) => None,
    };
    drop(target);
    remove_dir(checkpoint_dir);
    Ok(Pass {
        setup_s,
        run_s,
        elements,
        estimate,
        peak_heap,
        freshness_ms,
        counters,
        phases,
        committed,
        spans: tracer.map(|t| t.spans).unwrap_or_default(),
    })
}

/// Bytes of WAL segments and of snapshots left in a checkpoint directory.
fn checkpoint_bytes(dir: &Path) -> (u64, u64) {
    let mut wal = 0;
    let mut snap = 0;
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().map_or(0, |m| m.len());
        if name.starts_with("wal-") {
            wal += len;
        } else if name.starts_with("snap-") {
            snap += len;
        }
    }
    (wal, snap)
}

/// The deterministic counters the public accessors expose after `finish`.
fn counters(
    counter: &dyn ButterflyCounter,
    elements: u64,
    input_bytes: u64,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    out.insert("stream.elements", elements);
    out.insert("stream.input_bytes", input_bytes);
    if let Some(circuit) = counter
        .as_any()
        .and_then(|a| a.downcast_ref::<BoxedCircuit>())
    {
        out.insert("circuit.graph_edges", circuit.graph().num_edges() as u64);
        if let Some(vertex) = circuit.view_state::<PerVertexView>() {
            out.insert(
                "circuit.exact_butterflies",
                u64::try_from(vertex.counts().butterflies()).unwrap_or(u64::MAX),
            );
        }
    }
    let Some(any) = core_any(counter) else {
        return out;
    };
    let (stats, state, sample) = if let Some(abacus) = any.downcast_ref::<Abacus>() {
        (abacus.stats(), abacus.sampler_state(), abacus.sample())
    } else if let Some(par) = any.downcast_ref::<ParAbacus>() {
        let workloads = par.thread_workloads();
        out.insert("parabacus.batches", par.batches_processed());
        out.insert("parabacus.replayed_ops", par.replayed_ops());
        out.insert(
            "parabacus.thread_max",
            workloads.iter().copied().max().unwrap_or(0),
        );
        out.insert("parabacus.thread_sum", workloads.iter().sum());
        out.insert("parabacus.threads", workloads.len() as u64);
        out.insert(
            "parabacus.snapshot_enabled",
            u64::from(par.snapshot().is_some()),
        );
        (par.stats(), par.sampler_state(), par.sample())
    } else {
        return out;
    };
    out.insert("abacus.comparisons", stats.comparisons);
    out.insert("abacus.discovered", stats.discovered_butterflies);
    out.insert("sampling.sample_edges", sample.len() as u64);
    out.insert("sampling.heap_bytes", sample.heap_bytes() as u64);
    out.insert("sampling.bad_deletions", state.bad_deletions as u64);
    out.insert("sampling.good_deletions", state.good_deletions as u64);
    out
}

/// A fresh checkpoint directory name under `root` for pass `n`.
pub fn checkpoint_dir(root: &Path, n: usize) -> PathBuf {
    root.join(format!("ck-{}-{n}", std::process::id()))
}
