//! `abacus run` — process a stream with one estimator and report the result.
//!
//! `--input` files are *streamed*: elements are pulled from disk in chunks,
//! so ingest memory stays O(budget + chunk) even for streams far larger than
//! RAM.  Generated `--dataset` workloads necessarily materialize (the
//! generators are in-memory), as does `--ground-truth` (the exact count
//! needs the final graph); the report's `ingest:` line states which path
//! ran.

use super::{parse_ensemble, WorkloadInput};
use crate::args::Arguments;
use crate::error::CliError;
use abacus_baselines::{Cas, Fleet};
use abacus_core::engine::{Checkpointer, Ensemble, EnsembleSupervisor, RunManifest};
use abacus_core::ButterflyCounter;
use abacus_metrics::{relative_error_percent, Throughput};
use abacus_stream::fault::FaultPlan;
use abacus_stream::persist::RetryPolicy;
use abacus_stream::{final_graph, ElementSource, StreamElement};
use std::time::Instant;

/// Runs the selected estimator over the workload and formats a small report.
pub fn run(args: &Arguments) -> Result<String, CliError> {
    let input = WorkloadInput::from_args(args)?;
    let spec = super::parse_estimator_spec(args, 3_000)?;
    let ensemble = parse_ensemble(args)?;
    // Pull-chunk size of the streamed ingest path; 0 = the estimator's
    // preferred chunk (PARABACUS: its batch size).
    let chunk: usize = args.parsed_or("chunk", 0, "a non-negative integer")?;
    let views = super::parse_views(args)?;
    let want_truth = args.flag("ground-truth");
    let checkpoint_dir = args.get("checkpoint-dir").map(str::to_string);
    let checkpoint_every: u64 = args.parsed_or("checkpoint-every", 10_000, "a positive integer")?;
    let plan = super::parse_fault_plan(args)?;
    args.reject_unused()?;

    if !plan.replicas.is_empty() && ensemble.is_none() {
        return Err(CliError::InvalidValue {
            option: "fault-plan".to_string(),
            value: "replica faults".to_string(),
            expected: "--ensemble when the plan injects replica faults",
        });
    }
    if want_truth && !plan.is_empty() {
        return Err(CliError::InvalidValue {
            option: "fault-plan".to_string(),
            value: "(set)".to_string(),
            expected: "no --fault-plan with --ground-truth (the exact count \
                       needs the unfaulted stream)",
        });
    }

    if let Some(dir) = checkpoint_dir {
        return if let Some(ensemble) = ensemble {
            run_supervised(
                &input,
                spec,
                ensemble,
                &views,
                &dir,
                checkpoint_every,
                &plan,
            )
        } else {
            run_checkpointed(&input, spec, &views, &dir, checkpoint_every, &plan)
        };
    }

    let mut counter = super::build_counter(spec, ensemble, &views, plan.replicas.clone());

    // Ground truth needs the final graph, which only a materialized stream
    // can provide without a second pass over a re-openable source; everything
    // else streams in O(budget + chunk) ingest memory.  Both drivers feed the
    // estimator identically, so the estimate is bit-identical either way.
    let (elements, throughput, ingest, truth) = if want_truth {
        let stream = input.materialize()?;
        let start = Instant::now();
        counter.process_stream(&stream);
        let throughput = Throughput::new(stream.len() as u64, start.elapsed());
        let truth = abacus_graph::count_butterflies(&final_graph(&stream)) as f64;
        (
            stream.len() as u64,
            throughput,
            "materialized (--ground-truth needs the final graph)".to_string(),
            Some(truth),
        )
    } else {
        let mut source = super::open_faulty_source(&input, &plan)?;
        let start = Instant::now();
        let elements = if chunk == 0 {
            counter.process_source(&mut *source)
        } else {
            counter.process_source_chunked(&mut *source, chunk)
        }
        .map_err(|e| CliError::Io(e.to_string()))?;
        let throughput = Throughput::new(elements, start.elapsed());
        let effective = if chunk == 0 {
            counter.preferred_chunk()
        } else {
            chunk
        };
        // Only files are genuinely bounded-memory; a generated dataset
        // materializes inside its source, and saying "streamed" there would
        // misreport the memory model.
        let ingest = if input.is_file() {
            format!("streamed (chunk {effective})")
        } else {
            format!("generated in memory (pulled in chunks of {effective})")
        };
        (elements, throughput, ingest, None)
    };

    let mut report = format!(
        "algorithm:        {}\n\
         stream:           {} ({elements} elements)\n\
         ingest:           {ingest}\n\
         memory (edges):   {}\n\
         estimate:         {:.1}\n\
         elapsed:          {:.3}s\n\
         throughput:       {:.0} edges/s\n",
        counter.name(),
        input.label(),
        counter.memory_edges(),
        counter.estimate(),
        throughput.seconds,
        throughput.per_second(),
    );
    // With `--views` the counter is a delta circuit wrapping the estimator
    // (or the ensemble); reach through it for the ensemble and deletion
    // lines and append one report line per subscribed view.
    let circuit = counter
        .as_any()
        .and_then(|any| any.downcast_ref::<super::BoxedCircuit>());
    let estimator_any = match circuit {
        Some(circuit) => circuit.estimator().as_any(),
        None => counter.as_any(),
    };
    push_ignored_deletions_line(&mut report, estimator_any);
    if let Some(ensemble) = estimator_any.and_then(|any| any.downcast_ref::<Ensemble>()) {
        report.push_str(&format!(
            "ensemble:         {} x {} over {} (per-replica budget {})\n",
            ensemble.replicas(),
            ensemble.mode(),
            ensemble.spec().kind,
            ensemble.spec().budget,
        ));
        push_health_lines(&mut report, &ensemble.health());
        if let Some(summary) = ensemble.replicate_summary() {
            report.push_str(&format!(
                "replica spread:   std dev {:.1}, 95% CI {:.1} .. {:.1}\n",
                summary.std_dev,
                summary.mean - summary.ci95_half_width,
                summary.mean + summary.ci95_half_width,
            ));
        }
    }
    if let Some(truth) = truth {
        report.push_str(&format!(
            "exact count:      {truth:.0}\nrelative error:   {:.2}%\n",
            relative_error_percent(truth, counter.estimate())
        ));
    }
    if let Some(circuit) = circuit {
        push_view_lines(&mut report, circuit);
    }
    Ok(report)
}

/// Appends one line per view report line, then a `views report:` line with
/// the time the reports took.  Reports are evaluated after `elapsed:` was
/// measured, and some are not free: the bitruss view peels the whole graph.
fn push_view_lines(report: &mut String, circuit: &super::BoxedCircuit) {
    let start = Instant::now();
    let views = circuit.view_reports();
    let seconds = start.elapsed().as_secs_f64();
    for (name, lines) in views {
        for line in lines {
            report.push_str(&format!("{:<18}{line}\n", format!("view {name}:")));
        }
    }
    report.push_str(&format!("views report:     {seconds:.3}s\n"));
}

/// Appends a `deletions:` line when the estimator is FLEET or CAS and
/// dropped deletions: both are insert-only, so their estimate counts every
/// deleted edge as still present.
fn push_ignored_deletions_line(report: &mut String, estimator: Option<&dyn std::any::Any>) {
    let ignored = estimator.and_then(|any| {
        any.downcast_ref::<Fleet>()
            .map(|fleet| ("FLEET", fleet.ignored_deletions()))
            .or_else(|| {
                any.downcast_ref::<Cas>()
                    .map(|cas| ("CAS", cas.ignored_deletions()))
            })
    });
    if let Some((name, count)) = ignored.filter(|&(_, count)| count > 0) {
        report.push_str(&format!(
            "deletions:        {count} ignored ({name} is insert-only; deleted edges still count)\n"
        ));
    }
}

/// Appends the ensemble health block to a report: nothing when every
/// replica is in service, a `health:` line plus one `quarantine:` line per
/// out-of-service replica when serving is degraded.
pub(crate) fn push_health_lines(report: &mut String, health: &abacus_metrics::HealthReport) {
    if !health.is_degraded() {
        return;
    }
    report.push_str(&format!("health:           {}\n", health.summary_line()));
    for record in &health.quarantined {
        report.push_str(&format!("quarantine:       {}\n", record.summary_line()));
    }
}

/// Pulls the next element, retrying up to the retry budget on transient
/// source errors (a [`abacus_stream::FaultySource`] I/O fault, a flaky
/// filesystem).  Returns the last error once the budget is exhausted.
pub(crate) fn pull_with_retry(
    source: &mut dyn ElementSource,
) -> Option<Result<StreamElement, abacus_stream::StreamIoError>> {
    let mut last = None;
    for _ in 0..RetryPolicy::default().attempts {
        match source.next_element() {
            Some(Err(error)) => last = Some(error),
            other => return other,
        }
    }
    last.map(Err)
}

/// The durable path behind `--checkpoint-dir`: every element is WAL-appended
/// before processing and a snapshot is taken every `--checkpoint-every`
/// elements, so a killed run resumes bit-identically with `abacus resume`.
fn run_checkpointed(
    input: &WorkloadInput,
    spec: abacus_core::EstimatorSpec,
    views: &[abacus_core::ViewKind],
    dir: &str,
    every: u64,
    plan: &FaultPlan,
) -> Result<String, CliError> {
    if every == 0 {
        return Err(CliError::InvalidValue {
            option: "checkpoint-every".to_string(),
            value: "0".to_string(),
            expected: "a positive integer",
        });
    }
    let manifest = RunManifest::new(spec, every).with_views(views);
    let mut checkpointer =
        Checkpointer::create(dir, manifest).map_err(|e| CliError::Persist(e.to_string()))?;

    let mut source = super::open_faulty_source(input, plan)?;
    let start = Instant::now();
    let mut offered = 0u64;
    while let Some(next) = pull_with_retry(&mut *source) {
        let element = next.map_err(|e| CliError::Io(e.to_string()))?;
        checkpointer
            .offer(element)
            .map_err(|e| CliError::Persist(e.to_string()))?;
        offered += 1;
    }
    let estimate = checkpointer
        .finish()
        .map_err(|e| CliError::Persist(e.to_string()))?;
    let throughput = Throughput::new(offered, start.elapsed());

    Ok(checkpoint_report(
        &checkpointer,
        &input.label(),
        offered,
        estimate,
        &throughput,
        None,
    ))
}

/// The supervised path behind `--ensemble --checkpoint-dir`: an
/// [`EnsembleSupervisor`] drives one [`Checkpointer`] per replica plus an
/// ensemble-level WAL, so a replica fault quarantines that replica (serving
/// continues degraded over the rest) and `abacus resume` rebuilds *every*
/// replica — quarantined ones via snapshot restore + WAL catch-up — to the
/// bit-exact state of a never-failed run.
fn run_supervised(
    input: &WorkloadInput,
    spec: abacus_core::EstimatorSpec,
    ensemble: (usize, abacus_core::EnsembleMode),
    views: &[abacus_core::ViewKind],
    dir: &str,
    every: u64,
    plan: &FaultPlan,
) -> Result<String, CliError> {
    if every == 0 {
        return Err(CliError::InvalidValue {
            option: "checkpoint-every".to_string(),
            value: "0".to_string(),
            expected: "a positive integer",
        });
    }
    if !views.is_empty() {
        return Err(CliError::InvalidValue {
            option: "views".to_string(),
            value: "(set)".to_string(),
            expected: "no --views when --ensemble and --checkpoint-dir are combined",
        });
    }
    let (replicas, mode) = ensemble;
    let manifest = RunManifest::new(spec, every).with_ensemble(replicas, mode);
    let mut supervisor =
        EnsembleSupervisor::create(dir, manifest).map_err(|e| CliError::Persist(e.to_string()))?;
    if !plan.replicas.is_empty() {
        supervisor = supervisor.with_replica_faults(plan.replicas.clone());
    }

    let mut source = super::open_faulty_source(input, plan)?;
    let start = Instant::now();
    let mut offered = 0u64;
    while let Some(next) = pull_with_retry(&mut *source) {
        let element = next.map_err(|e| CliError::Io(e.to_string()))?;
        supervisor
            .offer(element)
            .map_err(|e| CliError::Persist(e.to_string()))?;
        offered += 1;
    }
    let estimate = supervisor
        .finish()
        .map_err(|e| CliError::Persist(e.to_string()))?;
    let throughput = Throughput::new(offered, start.elapsed());

    Ok(supervised_report(
        &supervisor,
        &input.label(),
        offered,
        estimate,
        &throughput,
        None,
    ))
}

/// The recovery details `resume` reports (a checkpointer-free projection of
/// [`abacus_core::Recovery`], since the checkpointer moves out of it).
pub(crate) struct ResumeNote {
    /// Element position of the snapshot recovery restored from.
    pub snapshot_elements: u64,
    /// Elements replayed from the WAL.
    pub replayed: u64,
    /// Whether a torn final WAL record was dropped.
    pub dropped_torn_tail: bool,
    /// Whether recovery fell back past an unreadable newest snapshot.
    pub fell_back: bool,
}

/// The shared report block of `run --checkpoint-dir` and `resume`.
pub(crate) fn checkpoint_report(
    checkpointer: &Checkpointer,
    stream_label: &str,
    offered: u64,
    estimate: f64,
    throughput: &Throughput,
    recovery: Option<&ResumeNote>,
) -> String {
    let counter = checkpointer.estimator();
    let committed = checkpointer
        .committed()
        .ok()
        .flatten()
        .map_or_else(|| "-".to_string(), |c| c.to_string());
    let mut report = format!(
        "algorithm:        {}\n\
         stream:           {stream_label} ({offered} elements this run)\n\
         ingest:           checkpointed (WAL per element, snapshot every {})\n\
         checkpoint dir:   {}\n\
         committed:        {committed} elements durable\n\
         memory (edges):   {}\n\
         estimate:         {estimate:.1}\n\
         elapsed:          {:.3}s\n\
         throughput:       {:.0} edges/s\n",
        counter.name(),
        checkpointer.manifest().checkpoint_every,
        checkpointer.dir().display(),
        counter.memory_edges(),
        throughput.seconds,
        throughput.per_second(),
    );
    if let Some(recovery) = recovery {
        report.push_str(&format!(
            "resumed from:     snapshot at {} elements + {} WAL elements replayed\n",
            recovery.snapshot_elements, recovery.replayed,
        ));
        if recovery.dropped_torn_tail {
            report.push_str("wal tail:         torn final record dropped\n");
        }
        if recovery.fell_back {
            report.push_str("snapshot:         newest was unreadable; fell back to previous\n");
        }
    }
    let circuit = counter
        .as_any()
        .and_then(|any| any.downcast_ref::<super::BoxedCircuit>());
    let estimator_any = match circuit {
        Some(circuit) => circuit.estimator().as_any(),
        None => counter.as_any(),
    };
    push_ignored_deletions_line(&mut report, estimator_any);
    if let Some(ensemble) = estimator_any.and_then(|any| any.downcast_ref::<Ensemble>()) {
        report.push_str(&format!(
            "ensemble:         {} x {} over {} (per-replica budget {})\n",
            ensemble.replicas(),
            ensemble.mode(),
            ensemble.spec().kind,
            ensemble.spec().budget,
        ));
    }
    if let Some(circuit) = circuit {
        push_view_lines(&mut report, circuit);
    }
    report
}

/// The recovery details a supervised `resume` reports (a projection of
/// [`abacus_core::SupervisorRecovery`], since the supervisor moves out of
/// it).
pub(crate) struct SupervisedResumeNote {
    /// Per-replica recovery detail, in replica order.
    pub replicas: Vec<abacus_core::ReplicaRecovery>,
    /// Whether a torn final record was dropped from the ensemble log.
    pub dropped_torn_tail: bool,
    /// Whether the ensemble watermark was missing/corrupt and rebuilt from
    /// the durable log.
    pub watermark_rebuilt: bool,
}

/// The shared report block of the supervised `run --ensemble
/// --checkpoint-dir` path and a supervised `resume`.
pub(crate) fn supervised_report(
    supervisor: &EnsembleSupervisor,
    stream_label: &str,
    offered: u64,
    estimate: f64,
    throughput: &Throughput,
    recovery: Option<&SupervisedResumeNote>,
) -> String {
    let spec = supervisor.manifest().spec;
    let mut report = format!(
        "algorithm:        ENSEMBLE-{} (supervised)\n\
         stream:           {stream_label} ({offered} elements this run)\n\
         ingest:           checkpointed (ensemble WAL + per-replica snapshots every {})\n\
         checkpoint dir:   {}\n\
         committed:        {} elements durable\n\
         memory (edges):   {}\n\
         estimate:         {estimate:.1}\n\
         elapsed:          {:.3}s\n\
         throughput:       {:.0} edges/s\n\
         ensemble:         {} x {} over {} (per-replica budget {})\n",
        supervisor.mode(),
        supervisor.manifest().checkpoint_every,
        supervisor.dir().display(),
        supervisor.offered(),
        supervisor.memory_edges(),
        throughput.seconds,
        throughput.per_second(),
        supervisor.replicas(),
        supervisor.mode(),
        spec.kind,
        spec.budget,
    );
    push_health_lines(&mut report, &supervisor.health());
    if let Some(summary) = supervisor.replicate_summary() {
        report.push_str(&format!(
            "replica spread:   std dev {:.1}, 95% CI {:.1} .. {:.1}\n",
            summary.std_dev,
            summary.mean - summary.ci95_half_width,
            summary.mean + summary.ci95_half_width,
        ));
    }
    if let Some(recovery) = recovery {
        for replica in &recovery.replicas {
            report.push_str(&format!(
                "replica {} resume: snapshot at {} elements + {} own WAL + {} ensemble \
                 catch-up\n",
                replica.replica, replica.snapshot_elements, replica.replayed, replica.caught_up,
            ));
        }
        if recovery.dropped_torn_tail {
            report.push_str("wal tail:         torn final record dropped\n");
        }
        if recovery.watermark_rebuilt {
            report.push_str("watermark:        missing or unreadable; rebuilt from the log\n");
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_graph::Edge;
    use abacus_stream::io::write_stream_to_path;
    use abacus_stream::StreamElement;

    fn args(parts: &[&str]) -> Arguments {
        let raw: Vec<String> = parts.iter().map(|s| (*s).to_string()).collect();
        Arguments::parse(&raw).unwrap()
    }

    fn biclique_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("abacus_cli_run_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut stream = Vec::new();
        for l in 0..3u32 {
            for r in 10..13u32 {
                stream.push(StreamElement::insert(Edge::new(l, r)));
            }
        }
        write_stream_to_path(&stream, &path).unwrap();
        path
    }

    #[test]
    fn every_algorithm_runs_and_reports_an_estimate() {
        let path = biclique_file("k33.txt");
        let path_str = path.to_str().unwrap();
        for algorithm in ["abacus", "parabacus", "fleet", "cas", "exact"] {
            let out = run(&args(&[
                "--input",
                path_str,
                "--algorithm",
                algorithm,
                "--budget",
                "100",
                "--threads",
                "2",
            ]))
            .unwrap();
            assert!(out.contains("estimate:"), "{algorithm}: {out}");
            assert!(out.contains("throughput:"), "{algorithm}: {out}");
            assert!(
                out.contains("ingest:           streamed"),
                "{algorithm}: {out}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_input_streams_and_matches_text() {
        use abacus_stream::binary::write_binary_stream_to_path;
        let text_path = biclique_file("k33_text.txt");
        let dir = std::env::temp_dir().join("abacus_cli_run_test");
        let binary_path = dir.join("k33.abst");
        let stream = abacus_stream::io::read_stream_from_path(&text_path).unwrap();
        write_binary_stream_to_path(&stream, &binary_path).unwrap();
        let report = |path: &std::path::Path, chunk: &str| {
            run(&args(&[
                "--input",
                path.to_str().unwrap(),
                "--budget",
                "100",
                "--chunk",
                chunk,
            ]))
            .unwrap()
        };
        // The K_{3,3} count is exact at a covering budget: all four
        // source/chunk combinations agree.
        for chunk in ["1", "7"] {
            let text = report(&text_path, chunk);
            let binary = report(&binary_path, chunk);
            assert!(text.contains("estimate:         9.0"), "{text}");
            assert!(binary.contains("estimate:         9.0"), "{binary}");
            assert!(binary.contains(&format!("ingest:           streamed (chunk {chunk})")));
        }
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&binary_path).ok();
    }

    #[test]
    fn ground_truth_reports_the_materializing_fallback() {
        let path = biclique_file("k33_fallback.txt");
        let out = run(&args(&[
            "--input",
            path.to_str().unwrap(),
            "--budget",
            "100",
            "--ground-truth",
        ]))
        .unwrap();
        assert!(out.contains("ingest:           materialized"), "{out}");
        assert!(out.contains("exact count:      9"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipeline_depth_is_parsed_and_validated() {
        let path = biclique_file("pipeline.txt");
        let path_str = path.to_str().unwrap();
        for depth in ["1", "2", "4"] {
            let out = run(&args(&[
                "--input",
                path_str,
                "--algorithm",
                "parabacus",
                "--budget",
                "100",
                "--batch",
                "2",
                "--threads",
                "2",
                "--pipeline-depth",
                depth,
            ]))
            .unwrap();
            // Budget covers the stream: the K_{3,3} count is exact at every
            // depth, pipelined or alternating.
            assert!(
                out.contains("estimate:         9.0"),
                "depth {depth}: {out}"
            );
        }
        assert!(matches!(
            run(&args(&[
                "--input",
                path_str,
                "--algorithm",
                "parabacus",
                "--pipeline-depth",
                "0",
            ])),
            Err(CliError::InvalidValue { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_modes_are_parsed_and_leave_estimates_unchanged() {
        let path = biclique_file("snapshot.txt");
        let path_str = path.to_str().unwrap();
        for algorithm in ["abacus", "parabacus"] {
            for mode in ["on", "off", "auto"] {
                let out = run(&args(&[
                    "--input",
                    path_str,
                    "--algorithm",
                    algorithm,
                    "--budget",
                    "100",
                    "--snapshot",
                    mode,
                ]))
                .unwrap();
                // Budget covers the stream: the K_{3,3} count is exact with
                // every backing.
                assert!(
                    out.contains("estimate:         9.0"),
                    "{algorithm} --snapshot {mode}: {out}"
                );
            }
        }
        assert!(matches!(
            run(&args(&["--input", path_str, "--snapshot", "sometimes"])),
            Err(CliError::InvalidValue { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exact_mode_and_ground_truth_agree_on_k33() {
        let path = biclique_file("k33_truth.txt");
        // K_{3,3} contains C(3,2)² = 9 butterflies.
        let out = run(&args(&[
            "--input",
            path.to_str().unwrap(),
            "--algorithm",
            "exact",
            "--ground-truth",
        ]))
        .unwrap();
        assert!(out.contains("estimate:         9.0"));
        assert!(out.contains("exact count:      9"));
        assert!(out.contains("relative error:   0.00%"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_algorithm_and_budget_are_rejected() {
        let path = biclique_file("rejects.txt");
        let path_str = path.to_str().unwrap();
        for bad in [
            &["--input", path_str, "--algorithm", "magic"][..],
            &["--input", path_str, "--budget", "1"],
            &["--input", path_str, "--budget", "minus one"],
            &["--input", path_str, "--threads", "0"],
            &["--input", path_str, "--ensemble", "0"],
            &["--input", path_str, "--ensemble", "four"],
            &[
                "--input",
                path_str,
                "--ensemble",
                "2",
                "--ensemble-mode",
                "shard",
            ],
        ] {
            match run(&args(bad)) {
                Err(CliError::InvalidValue { expected, .. }) => {
                    assert!(!expected.is_empty(), "{bad:?}");
                }
                other => panic!("{bad:?}: expected InvalidValue, got {other:?}"),
            }
        }
        // The listed-choices message surfaces the full canonical name list.
        match run(&args(&["--input", path_str, "--algorithm", "magic"])) {
            Err(err) => {
                let message = err.to_string();
                for name in ["abacus", "parabacus", "local", "fleet", "cas", "exact"] {
                    assert!(message.contains(name), "{message}");
                }
            }
            Ok(_) => panic!("unknown algorithm must be rejected"),
        }
        // --ensemble-mode without --ensemble has no defensible default K.
        assert!(matches!(
            run(&args(&[
                "--input",
                path_str,
                "--ensemble-mode",
                "partition"
            ])),
            Err(CliError::MissingOption(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn views_report_one_line_each_and_reject_unknown_names() {
        let path = biclique_file("views.txt");
        let path_str = path.to_str().unwrap();
        let out = run(&args(&[
            "--input",
            path_str,
            "--algorithm",
            "exact",
            "--views",
            "all",
        ]))
        .unwrap();
        // K_{3,3}: 9 butterflies, every edge supports 4 of them.
        assert!(out.contains("estimate:         9.0"), "{out}");
        assert!(
            out.contains("view peredge:     9 live edges, total support 36"),
            "{out}"
        );
        assert!(out.contains("view vertex:      9 butterflies"), "{out}");
        assert!(out.contains("view clustering:  coefficient"), "{out}");
        assert!(
            out.contains("view bitruss:     1 tiers, innermost 4-bitruss (9 edges)"),
            "{out}"
        );
        assert!(out.contains("view anomaly:"), "{out}");
        // One timing line closes the view block: the reports run after
        // `elapsed:` is measured.
        let views_report = |out: &str| {
            let lines: Vec<&str> = out.lines().collect();
            let at: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].starts_with("views report:"))
                .collect();
            assert_eq!(at.len(), 1, "{out}");
            assert!(lines[at[0] - 1].starts_with("view "), "{out}");
            let seconds = lines[at[0]]["views report:".len()..].trim();
            assert!(
                seconds.strip_suffix('s').unwrap().parse::<f64>().unwrap() >= 0.0,
                "{out}"
            );
        };
        views_report(&out);

        // The durable path prints the same view block and timing line.
        let dir = std::env::temp_dir()
            .join("abacus_cli_ckpt")
            .join(format!("views-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let durable = run(&args(&[
            "--input",
            path_str,
            "--algorithm",
            "exact",
            "--views",
            "all",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            durable.contains("view bitruss:     1 tiers, innermost 4-bitruss (9 edges)"),
            "{durable}"
        );
        views_report(&durable);
        // Without views there is nothing to time.
        let bare = run(&args(&["--input", path_str, "--algorithm", "exact"])).unwrap();
        assert!(!bare.contains("views report:"), "{bare}");

        // A subset subscribes only the named views, in the given order.
        let subset = run(&args(&[
            "--input",
            path_str,
            "--views",
            "clustering,vertex",
        ]))
        .unwrap();
        assert!(!subset.contains("view peredge:"), "{subset}");
        assert!(subset.contains("view clustering:"), "{subset}");
        assert!(subset.contains("view vertex:"), "{subset}");

        // Views compose with ensembles: the circuit wraps the ensemble and
        // both report blocks appear.
        let combined = run(&args(&[
            "--input",
            path_str,
            "--budget",
            "100",
            "--ensemble",
            "2",
            "--views",
            "vertex",
        ]))
        .unwrap();
        assert!(
            combined.contains("ensemble:         2 x replicate"),
            "{combined}"
        );
        assert!(
            combined.contains("view vertex:      9 butterflies"),
            "{combined}"
        );

        match run(&args(&["--input", path_str, "--views", "peredge,nope"])) {
            Err(CliError::InvalidValue {
                option, expected, ..
            }) => {
                assert_eq!(option, "views");
                assert!(expected.contains("bitruss"), "{expected}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn local_algorithm_runs_through_the_registry() {
        let path = biclique_file("local.txt");
        let out = run(&args(&[
            "--input",
            path.to_str().unwrap(),
            "--algorithm",
            "local",
            "--budget",
            "100",
        ]))
        .unwrap();
        assert!(out.contains("algorithm:        ABACUS-local"), "{out}");
        assert!(out.contains("estimate:         9.0"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ensemble_reports_replicas_and_matches_bare_at_k1() {
        let path = biclique_file("ensemble.txt");
        let path_str = path.to_str().unwrap();
        let bare = run(&args(&["--input", path_str, "--budget", "100"])).unwrap();
        let one = run(&args(&[
            "--input",
            path_str,
            "--budget",
            "100",
            "--ensemble",
            "1",
        ]))
        .unwrap();
        // Same estimate line, bit for bit (K=1 replicate ≡ bare estimator).
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("estimate:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(line(&bare), line(&one));
        assert!(
            one.contains("ensemble:         1 x replicate over abacus"),
            "{one}"
        );
        assert!(one.contains("replica spread:"), "{one}");

        let four = run(&args(&[
            "--input",
            path_str,
            "--budget",
            "25",
            "--ensemble",
            "4",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(
            four.contains("ensemble:         4 x replicate over abacus"),
            "{four}"
        );
        assert!(four.contains("(per-replica budget 25)"), "{four}");

        let sharded = run(&args(&[
            "--input",
            path_str,
            "--budget",
            "100",
            "--ensemble",
            "2",
            "--ensemble-mode",
            "partition",
        ]))
        .unwrap();
        assert!(
            sharded.contains("algorithm:        ENSEMBLE-partition"),
            "{sharded}"
        );
        // Partition mode sums per-shard local counts; no CI line.
        assert!(!sharded.contains("replica spread:"), "{sharded}");
        std::fs::remove_file(&path).ok();
    }

    /// A fully dynamic stream large enough to cross several checkpoint
    /// cadences: 500 distinct inserts followed by deletions of every third
    /// inserted edge.
    fn mixed_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("abacus_cli_run_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut stream = Vec::new();
        for l in 0..20u32 {
            for r in 100..125u32 {
                stream.push(StreamElement::insert(Edge::new(l, r)));
            }
        }
        for i in (0..500usize).step_by(3) {
            stream.push(StreamElement::delete(stream[i].edge));
        }
        write_stream_to_path(&stream, &path).unwrap();
        path
    }

    #[test]
    fn insert_only_estimators_report_the_deletions_they_ignored() {
        let path = mixed_file("ignored_deletions.txt");
        let path_str = path.to_str().unwrap();
        let report = |algorithm: &str, views: Option<&str>| {
            let mut parts = vec!["--input", path_str, "--algorithm", algorithm];
            if let Some(views) = views {
                parts.extend(["--views", views]);
            }
            run(&args(&parts)).unwrap()
        };
        // 500 inserts followed by 167 deletions: FLEET and CAS drop every
        // deletion and say so, directly and through a views circuit.
        for (algorithm, name) in [("fleet", "FLEET"), ("cas", "CAS")] {
            for views in [None, Some("vertex")] {
                let out = report(algorithm, views);
                assert!(
                    out.contains(&format!(
                        "deletions:        167 ignored ({name} is insert-only; \
                         deleted edges still count)"
                    )),
                    "{algorithm} {views:?}: {out}"
                );
            }
        }
        // Estimators that process deletions print no such line.
        assert!(!report("abacus", None).contains("deletions:"));
        std::fs::remove_file(&path).ok();

        // Nor does an insert-only estimator on an insert-only stream.
        let path = biclique_file("k33_insert_only.txt");
        let out = run(&args(&[
            "--input",
            path.to_str().unwrap(),
            "--algorithm",
            "fleet",
        ]))
        .unwrap();
        assert!(!out.contains("deletions:"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpointed_run_matches_the_plain_path_and_reports_durability() {
        let path = mixed_file("ckpt_parity.txt");
        let path_str = path.to_str().unwrap();
        let dir = std::env::temp_dir()
            .join("abacus_cli_ckpt")
            .join(format!("parity-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let common = ["--input", path_str, "--budget", "300", "--seed", "7"];
        let plain = run(&args(&common)).unwrap();
        let mut with_ckpt = common.to_vec();
        with_ckpt.extend([
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--checkpoint-every",
            "100",
        ]);
        let durable = run(&args(&with_ckpt)).unwrap();
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("estimate:"))
                .unwrap()
                .to_string()
        };
        // The durable driver feeds the estimator element by element exactly
        // like the streamed one: the estimate is bit-identical.
        assert_eq!(line(&plain), line(&durable));
        assert!(
            durable
                .contains("ingest:           checkpointed (WAL per element, snapshot every 100)"),
            "{durable}"
        );
        // 500 inserts + 167 deletions, all durable after the final checkpoint.
        assert!(
            durable.contains("committed:        667 elements durable"),
            "{durable}"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_plans_are_validated_and_degrade_in_memory_ensembles() {
        let path = mixed_file("fault_plan.txt");
        let path_str = path.to_str().unwrap();
        // Malformed grammar is a typed error naming the option.
        match run(&args(&["--input", path_str, "--fault-plan", "explode@7"])) {
            Err(CliError::InvalidValue { option, .. }) => assert_eq!(option, "fault-plan"),
            other => panic!("expected InvalidValue, got {other:?}"),
        }
        // Replica faults without an ensemble have nothing to quarantine.
        assert!(matches!(
            run(&args(&[
                "--input",
                path_str,
                "--fault-plan",
                "panic:replica=0@5",
            ])),
            Err(CliError::InvalidValue { .. })
        ));
        // Ground truth needs the unfaulted stream.
        assert!(matches!(
            run(&args(&[
                "--input",
                path_str,
                "--fault-plan",
                "corrupt@5",
                "--ground-truth",
            ])),
            Err(CliError::InvalidValue { .. })
        ));

        // An injected panic quarantines replica 1; the run completes and the
        // report carries the degraded health block.
        let out = run(&args(&[
            "--input",
            path_str,
            "--budget",
            "300",
            "--ensemble",
            "3",
            "--fault-plan",
            "panic:replica=1@100",
        ]))
        .unwrap();
        assert!(
            out.contains("health:           2/3 replicas healthy (degraded)"),
            "{out}"
        );
        assert!(
            out.contains("quarantine:       replica 1 quarantined at element 100"),
            "{out}"
        );
        assert!(out.contains("replica spread:"), "{out}");

        // The plain (non-durable) path aborts on the first source error
        // with a typed I/O failure; only the durable loops retry pulls.
        match run(&args(&["--input", path_str, "--fault-plan", "io@3x2"])) {
            Err(CliError::Io(message)) => {
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected Io, got {other:?}"),
        }

        // The durable ingest loop retries transient pulls within the default
        // budget, so the same fault plan completes there.
        let dir = std::env::temp_dir()
            .join("abacus_cli_ckpt")
            .join(format!("faulty-source-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let durable = run(&args(&[
            "--input",
            path_str,
            "--budget",
            "300",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--checkpoint-every",
            "200",
            "--fault-plan",
            "io@3x2,corrupt@7,stall@5x1",
        ]))
        .unwrap();
        assert!(
            durable.contains("committed:        667 elements durable"),
            "{durable}"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn supervised_run_degrades_and_resume_rejoins_bit_identically() {
        let path = mixed_file("supervised.txt");
        let path_str = path.to_str().unwrap();
        let base = std::env::temp_dir()
            .join("abacus_cli_supervised")
            .join(format!("pid-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();
        let clean_dir = base.join("clean");
        let faulty_dir = base.join("faulty");
        let common = [
            "--input",
            path_str,
            "--budget",
            "300",
            "--seed",
            "9",
            "--ensemble",
            "3",
            "--checkpoint-every",
            "100",
        ];

        // Reference: a supervised run that never fails.
        let mut clean_args = common.to_vec();
        let clean_str = clean_dir.to_str().unwrap();
        clean_args.extend(["--checkpoint-dir", clean_str]);
        let clean = run(&args(&clean_args)).unwrap();
        assert!(
            clean.contains("algorithm:        ENSEMBLE-replicate (supervised)"),
            "{clean}"
        );
        assert!(!clean.contains("health:"), "{clean}");

        // Faulty: replica 1 panics mid-stream; the run still completes,
        // serving degraded over the other two replicas.
        let mut faulty_args = common.to_vec();
        let faulty_str = faulty_dir.to_str().unwrap();
        faulty_args.extend([
            "--checkpoint-dir",
            faulty_str,
            "--fault-plan",
            "panic:replica=1@150",
        ]);
        let degraded = run(&args(&faulty_args)).unwrap();
        assert!(
            degraded.contains("health:           2/3 replicas healthy (degraded)"),
            "{degraded}"
        );
        assert!(
            degraded.contains("quarantine:       replica 1 quarantined at element 150"),
            "{degraded}"
        );

        // Resume rebuilds replica 1 from its snapshot + ensemble-WAL
        // catch-up: the rejoined run serves healthy with the reference's
        // exact estimate.
        let resumed = super::super::resume::run(&args(&[
            "--checkpoint-dir",
            faulty_str,
            "--input",
            path_str,
        ]))
        .unwrap();
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("estimate:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(line(&clean), line(&resumed), "{resumed}");
        assert!(!resumed.contains("health:"), "{resumed}");
        assert!(resumed.contains("replica 1 resume:"), "{resumed}");

        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_options_are_validated() {
        let path = mixed_file("ckpt_validate.txt");
        let path_str = path.to_str().unwrap();
        let dir = std::env::temp_dir()
            .join("abacus_cli_ckpt")
            .join(format!("validate-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_string();
        assert!(matches!(
            run(&args(&[
                "--input",
                path_str,
                "--checkpoint-dir",
                &dir_str,
                "--checkpoint-every",
                "0",
            ])),
            Err(CliError::InvalidValue { .. })
        ));
        // RunManifest models either an ensemble or a circuit, not a circuit
        // wrapping an ensemble; the combination is rejected up front.
        assert!(matches!(
            run(&args(&[
                "--input",
                path_str,
                "--checkpoint-dir",
                &dir_str,
                "--ensemble",
                "2",
                "--views",
                "vertex",
            ])),
            Err(CliError::InvalidValue { .. })
        ));
        // Reusing a checkpoint directory would silently interleave two runs'
        // WALs; creation fails closed.
        run(&args(&[
            "--input",
            path_str,
            "--checkpoint-dir",
            &dir_str,
            "--checkpoint-every",
            "100",
        ]))
        .unwrap();
        assert!(matches!(
            run(&args(&[
                "--input",
                path_str,
                "--checkpoint-dir",
                &dir_str,
                "--checkpoint-every",
                "100",
            ])),
            Err(CliError::Persist(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }
}
