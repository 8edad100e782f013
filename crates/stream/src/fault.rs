//! Deterministic fault injection: seeded, reproducible failures for
//! exercising every degraded path of the ingest and ensemble machinery.
//!
//! Production fault tolerance is only trustworthy if every failure mode it
//! claims to survive can be triggered *on demand* — in-process, in unit
//! tests, and from the CLI — and triggered at exactly the same stream
//! position every run.  This module provides that trigger:
//!
//! * [`FaultPlan`] — a declarative list of faults, each pinned to a
//!   zero-based element index: *source* faults (typed I/O errors, corrupt
//!   records, stalls) and *replica* faults (worker panics, transient
//!   persistence I/O errors) for ensemble replicas.
//! * [`FaultySource`] — wraps any [`ElementSource`] and fires the plan's
//!   source faults at their element indices.
//! * [`FaultPlan::parse`] — the compact text grammar behind the CLI's
//!   `--fault-plan` dev flag (`panic:replica=1@500,io@300x2,...`).
//!
//! Everything is deterministic: the same plan over the same stream produces
//! the same failure at the same element, which is what lets the fault
//! tolerance suite assert *bit-identical* recovery rather than "it didn't
//! crash".

use crate::element::StreamElement;
use crate::io::StreamIoError;
use crate::source::ElementSource;
use abacus_graph::Edge;

/// A fault injected into the element *source* (the ingest side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFaultKind {
    /// The next `transient` pulls at this element fail with a typed I/O
    /// error; the element itself is yielded afterwards.  A consumer that
    /// retries pulls survives `transient` failures; one that aborts on the
    /// first error sees a clean typed failure.
    Io {
        /// Number of consecutive failing pulls before the element appears.
        transient: u32,
    },
    /// The element is yielded with deterministically mangled endpoints — a
    /// corrupt record that parsed but carries wrong data.
    Corrupt,
    /// The pull sleeps before yielding the element — a slow/hung upstream.
    Stall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// One source fault, pinned to a zero-based element index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceFault {
    /// Element index (zero-based) the fault fires at.
    pub at: u64,
    /// What goes wrong.
    pub kind: SourceFaultKind,
}

/// A fault injected into one ensemble replica's worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFaultKind {
    /// The replica's worker panics while processing the element — the
    /// catch-unwind / quarantine path.
    Panic,
    /// The replica's persistence layer reports a transient I/O error for the
    /// next `failures` attempts at this element.  Fewer failures than the
    /// retry budget means the retry loop absorbs the fault; more means the
    /// replica is quarantined with a typed persistence error.
    Io {
        /// Number of consecutive failing attempts.
        failures: u32,
    },
}

/// One replica fault: which replica, at which element, failing how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFault {
    /// Replica index the fault targets.
    pub replica: usize,
    /// Element index (zero-based, in stream order) the fault fires at.
    pub at: u64,
    /// What goes wrong.
    pub kind: ReplicaFaultKind,
}

/// A declarative, deterministic set of faults to inject into one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults fired by [`FaultySource`] at their element indices.
    pub source: Vec<SourceFault>,
    /// Faults fired by an ensemble's replicas at their element indices.
    pub replicas: Vec<ReplicaFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Returns the plan with a source fault appended.
    #[must_use]
    pub fn with_source_fault(mut self, at: u64, kind: SourceFaultKind) -> Self {
        self.source.push(SourceFault { at, kind });
        self
    }

    /// Returns the plan with a replica fault appended.
    #[must_use]
    pub fn with_replica_fault(mut self, replica: usize, at: u64, kind: ReplicaFaultKind) -> Self {
        self.replicas.push(ReplicaFault { replica, at, kind });
        self
    }

    /// Whether the plan holds no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.source.is_empty() && self.replicas.is_empty()
    }

    /// The replica fault (if any) targeting `replica` at element `at`.
    #[must_use]
    pub fn replica_fault(&self, replica: usize, at: u64) -> Option<ReplicaFaultKind> {
        self.replicas
            .iter()
            .find(|f| f.replica == replica && f.at == at)
            .map(|f| f.kind)
    }

    /// Parses the compact `--fault-plan` grammar: comma-separated entries of
    ///
    /// * `panic:replica=<i>@<n>` — replica `i` panics at element `n`,
    /// * `io:replica=<i>@<n>` / `io:replica=<i>@<n>x<f>` — replica `i` sees
    ///   `f` (default 1) transient persistence I/O failures at element `n`,
    /// * `io@<n>` / `io@<n>x<f>` — the source fails `f` pulls at element `n`,
    /// * `corrupt@<n>` — the source yields a mangled record at element `n`,
    /// * `stall@<n>x<ms>` — the source stalls `ms` milliseconds at element
    ///   `n` (`stall@<n>` stalls 1 ms).
    ///
    /// # Errors
    /// A human-readable description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (head, at_spec) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault '{entry}' is missing its '@<element>' position"))?;
            let (at, arg) = match at_spec.split_once('x') {
                Some((at, arg)) => (at, Some(arg)),
                None => (at_spec, None),
            };
            let at: u64 = at
                .parse()
                .map_err(|_| format!("fault '{entry}': '{at}' is not an element index"))?;
            let arg =
                match arg {
                    None => None,
                    Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
                        format!("fault '{entry}': '{raw}' is not an unsigned integer")
                    })?),
                };
            let (kind, target) = match head.split_once(':') {
                Some((kind, target)) => (kind, Some(target)),
                None => (head, None),
            };
            let replica = match target {
                None => None,
                Some(target) => {
                    let index = target.strip_prefix("replica=").ok_or_else(|| {
                        format!("fault '{entry}': expected 'replica=<i>', got '{target}'")
                    })?;
                    Some(index.parse::<usize>().map_err(|_| {
                        format!("fault '{entry}': '{index}' is not a replica index")
                    })?)
                }
            };
            match (kind, replica) {
                ("panic", Some(replica)) => {
                    if arg.is_some() {
                        return Err(format!("fault '{entry}': panic takes no 'x' argument"));
                    }
                    plan.replicas.push(ReplicaFault {
                        replica,
                        at,
                        kind: ReplicaFaultKind::Panic,
                    });
                }
                ("panic", None) => {
                    return Err(format!(
                        "fault '{entry}': panic faults target a replica ('panic:replica=<i>@<n>')"
                    ));
                }
                ("io", Some(replica)) => plan.replicas.push(ReplicaFault {
                    replica,
                    at,
                    kind: ReplicaFaultKind::Io {
                        failures: u32::try_from(arg.unwrap_or(1))
                            .map_err(|_| format!("fault '{entry}': failure count too large"))?,
                    },
                }),
                ("io", None) => plan.source.push(SourceFault {
                    at,
                    kind: SourceFaultKind::Io {
                        transient: u32::try_from(arg.unwrap_or(1))
                            .map_err(|_| format!("fault '{entry}': failure count too large"))?,
                    },
                }),
                ("corrupt", None) => {
                    plan.source.push(SourceFault {
                        at,
                        kind: SourceFaultKind::Corrupt,
                    });
                }
                ("stall", None) => plan.source.push(SourceFault {
                    at,
                    kind: SourceFaultKind::Stall {
                        millis: arg.unwrap_or(1),
                    },
                }),
                (other, Some(_)) => {
                    return Err(format!(
                        "fault '{entry}': '{other}' is not a replica fault (panic, io)"
                    ));
                }
                (other, None) => {
                    return Err(format!(
                        "fault '{entry}': '{other}' is not a source fault (io, corrupt, stall)"
                    ));
                }
            }
        }
        Ok(plan)
    }
}

/// Deterministically mangles a stream element — the payload of a
/// [`SourceFaultKind::Corrupt`] fault.  The element keeps its delta but the
/// endpoints are avalanche-flipped, so the corruption is obvious in tests
/// yet stable across runs.
#[must_use]
pub fn corrupt_element(element: StreamElement) -> StreamElement {
    let edge = Edge::new(
        element.edge.left ^ 0x5A5A_5A5A,
        element.edge.right ^ 0xA5A5_A5A5,
    );
    StreamElement {
        edge,
        delta: element.delta,
    }
}

/// Wraps any [`ElementSource`] and fires a [`FaultPlan`]'s source faults at
/// their element indices.
///
/// Indices are zero-based over the elements the *inner* source yields; a
/// fault past the end of the stream simply never fires.  Faults at the same
/// index fire in plan order.
#[derive(Debug)]
pub struct FaultySource<S> {
    inner: S,
    faults: Vec<SourceFault>,
    /// Index of the next element to pull from the inner source.
    index: u64,
    /// An element pulled but withheld while its Io fault burns down.
    stalled: Option<(StreamElement, u32)>,
}

impl<S: ElementSource> FaultySource<S> {
    /// Wraps `inner`, injecting the plan's source faults (replica faults are
    /// ignored here — they belong to the ensemble supervisor).
    #[must_use]
    pub fn new(inner: S, plan: &FaultPlan) -> Self {
        FaultySource {
            inner,
            faults: plan.source.clone(),
            index: 0,
            stalled: None,
        }
    }

    fn take_fault(&mut self, at: u64) -> Option<SourceFaultKind> {
        let position = self.faults.iter().position(|f| f.at == at)?;
        Some(self.faults.remove(position).kind)
    }
}

impl<S: ElementSource> ElementSource for FaultySource<S> {
    fn next_element(&mut self) -> Option<Result<StreamElement, StreamIoError>> {
        if let Some((element, remaining)) = self.stalled.take() {
            if remaining > 0 {
                self.stalled = Some((element, remaining - 1));
                return Some(Err(StreamIoError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!("injected transient I/O fault at element {}", self.index),
                ))));
            }
            self.index += 1;
            return Some(Ok(element));
        }
        let at = self.index;
        let element = match self.inner.next_element()? {
            Ok(element) => element,
            Err(error) => return Some(Err(error)),
        };
        match self.take_fault(at) {
            None => {
                self.index += 1;
                Some(Ok(element))
            }
            Some(SourceFaultKind::Io { transient }) => {
                // Withhold the element and fail the next `transient` pulls.
                self.stalled = Some((element, transient));
                self.next_element()
            }
            Some(SourceFaultKind::Corrupt) => {
                self.index += 1;
                Some(Ok(corrupt_element(element)))
            }
            Some(SourceFaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
                self.index += 1;
                Some(Ok(element))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lower, upper) = self.inner.size_hint();
        let stalled = usize::from(self.stalled.is_some());
        (lower + stalled, upper.map(|u| u + stalled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{read_all, SliceSource};

    fn stream(n: u32) -> Vec<StreamElement> {
        (0..n)
            .map(|i| StreamElement::insert(Edge::new(i, i + 100)))
            .collect()
    }

    #[test]
    fn empty_plan_is_transparent() {
        let base = stream(10);
        let mut source = FaultySource::new(SliceSource::new(&base), &FaultPlan::new());
        assert_eq!(read_all(&mut source).unwrap(), base);
    }

    #[test]
    fn io_fault_fails_n_pulls_then_yields_the_element() {
        let base = stream(5);
        let plan = FaultPlan::new().with_source_fault(2, SourceFaultKind::Io { transient: 2 });
        let mut source = FaultySource::new(SliceSource::new(&base), &plan);
        let mut out = Vec::new();
        let mut errors = 0;
        loop {
            match source.next_element() {
                None => break,
                Some(Ok(element)) => out.push(element),
                Some(Err(StreamIoError::Io(e))) => {
                    errors += 1;
                    assert!(e.to_string().contains("element 2"), "{e}");
                }
                Some(Err(other)) => panic!("unexpected error {other}"),
            }
        }
        assert_eq!(errors, 2, "exactly `transient` pulls fail");
        assert_eq!(out, base, "no element is lost or reordered");
    }

    #[test]
    fn corrupt_fault_mangles_exactly_one_element_deterministically() {
        let base = stream(6);
        let plan = FaultPlan::new().with_source_fault(3, SourceFaultKind::Corrupt);
        let run = || {
            let mut source = FaultySource::new(SliceSource::new(&base), &plan);
            read_all(&mut source).unwrap()
        };
        let out = run();
        assert_eq!(out.len(), base.len());
        for (i, (got, want)) in out.iter().zip(&base).enumerate() {
            if i == 3 {
                assert_eq!(*got, corrupt_element(*want));
                assert_ne!(got.edge, want.edge);
            } else {
                assert_eq!(got, want);
            }
        }
        assert_eq!(run(), out, "corruption is deterministic");
    }

    #[test]
    fn stall_fault_delays_but_preserves_the_stream() {
        let base = stream(4);
        let plan = FaultPlan::new().with_source_fault(1, SourceFaultKind::Stall { millis: 1 });
        let mut source = FaultySource::new(SliceSource::new(&base), &plan);
        assert_eq!(read_all(&mut source).unwrap(), base);
    }

    #[test]
    fn plan_parser_round_trips_the_grammar() {
        let plan = FaultPlan::parse(
            "panic:replica=1@500, io:replica=0@100x2, io@300, corrupt@600, stall@250x20",
        )
        .unwrap();
        assert_eq!(
            plan.replicas,
            vec![
                ReplicaFault {
                    replica: 1,
                    at: 500,
                    kind: ReplicaFaultKind::Panic
                },
                ReplicaFault {
                    replica: 0,
                    at: 100,
                    kind: ReplicaFaultKind::Io { failures: 2 }
                },
            ]
        );
        assert_eq!(
            plan.source,
            vec![
                SourceFault {
                    at: 300,
                    kind: SourceFaultKind::Io { transient: 1 }
                },
                SourceFault {
                    at: 600,
                    kind: SourceFaultKind::Corrupt
                },
                SourceFault {
                    at: 250,
                    kind: SourceFaultKind::Stall { millis: 20 }
                },
            ]
        );
        assert_eq!(plan.replica_fault(1, 500), Some(ReplicaFaultKind::Panic));
        assert_eq!(plan.replica_fault(1, 501), None);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn plan_parser_rejects_malformed_entries() {
        for bad in [
            "panic@5",             // panic needs a replica target
            "corrupt:replica=1@5", // corrupt is a source fault
            "panic:replica=1",     // missing position
            "io@x",                // not an index
            "io:worker=1@5",       // bad target syntax
            "explode@5",           // unknown kind
            "panic:replica=2@5x9", // panic takes no argument
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains("fault"), "{bad}: {err}");
        }
    }
}
