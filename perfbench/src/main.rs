//! `perfbench` — measures one workload of the `abacus run` path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           --data <dir> [--code-id <id>]
//! ```
//!
//! Prints human-readable lines, then one JSON object on the last line:
//! the metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`),
//! the deterministic counters, the correctness checks and the estimate, for
//! `run.py` to compare against the `abacus` binary and earlier runs.

mod drive;
mod heap;
mod workload;

use drive::{Mode, Pass};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Input, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-up-only repeats a run makes at least, and at most.
const SETUP_SAMPLES: usize = 31;
const SETUP_MAX: usize = 5_001;

/// Largest share of the traced total the layers' self times may leave
/// unexplained.
const ADDITIVITY_TOLERANCE: f64 = 0.02;

/// Relative agreement of PARABACUS with ABACUS that `tests/parity.rs`
/// asserts.
const PARITY_TOLERANCE: f64 = 1e-9;

/// Wall time a run spends on set-up-only repeats at least.
const SETUP_SECONDS: f64 = 0.25;

/// Chunks the freshness percentiles are taken over, at least.
const FRESHNESS_CHUNKS: usize = 100;

/// The freshness tail: the highest percentile with ten of
/// [`FRESHNESS_CHUNKS`] samples beyond it.
const TAIL_PERCENTILE: f64 = 90.0;

/// Timed passes a run makes at least, whatever `--seconds` is.
const MIN_PASSES: usize = 6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
    code_id: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |key: &str| map.get(key).ok_or_else(|| format!("missing --{key}"));
    let name = get("workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name} (expected one of {})",
            workload::NAMES.join(", ")
        )
    })?;
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("--{key} needs an unsigned integer"))
    };
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds: number("seconds")? as f64,
        trace: number("trace")? != 0,
        data: PathBuf::from(get("data")?),
        code_id: map.get("code-id").cloned(),
    })
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank index of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len())]
}

/// Outcome of one correctness check.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// Metrics in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// RMS relative error (%) of sequential ABACUS over the workload's fixed
/// seeds: data seed [`workload::ACCURACY_DATA_SEED`] and estimator seeds
/// `0..ACCURACY_SEEDS`.  By the parity checks every workload's estimate
/// equals ABACUS's at the same seed, so one figure serves all of them.  It
/// depends only on the code, so it is cached per `--code-id`.
fn rel_error_pct(args: &Args) -> Result<f64, String> {
    let w = &args.workload;
    let cache = args.code_id.as_ref().map(|id| {
        args.data
            .join(format!("accuracy-{}-b{}-{id}", w.data.label, w.spec.budget))
    });
    if let Some(value) = cache
        .as_ref()
        .and_then(|path| fs::read_to_string(path).ok())
        .and_then(|text| text.trim().parse::<f64>().ok())
    {
        return Ok(value);
    }
    let input = workload::input(&args.data, &w.data, workload::ACCURACY_DATA_SEED)?;
    let exact = input.exact as f64;
    let mut squares = 0.0;
    for seed in 0..workload::ACCURACY_SEEDS {
        let spec = abacus_core::EstimatorSpec {
            seed,
            ..w.bare_spec()
        };
        let mut counter = spec.build();
        let mut source = abacus_stream::open_path_source(&input.path)
            .map_err(|e| format!("open {}: {e}", input.path.display()))?;
        counter
            .process_source(&mut *source)
            .map_err(|e| format!("accuracy pass: {e}"))?;
        let error = (counter.estimate() - exact) / exact;
        squares += error * error;
    }
    let value = 100.0 * (squares / workload::ACCURACY_SEEDS as f64).sqrt();
    if let Some(path) = cache {
        fs::write(&path, format!("{value}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(value)
}

/// The passes of one run, by kind.
#[derive(Default)]
struct Runs {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    bare: Vec<Pass>,
    setups: Vec<f64>,
}

fn throughput(pass: &Pass) -> f64 {
    pass.elements as f64 / pass.run_s
}

/// Sum of the durations of the spans named `name`, and their maximum.
fn span_total(pass: &Pass, name: &str) -> (f64, f64) {
    pass.spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0), |(sum, max), s| {
            (sum + s.seconds(), f64::max(max, s.seconds()))
        })
}

/// Per-layer seconds of one traced pass.
struct Layers {
    total: f64,
    stream: f64,
    process: f64,
    snapshot: f64,
    stall: f64,
    finish: f64,
}

fn layers(pass: &Pass) -> Layers {
    let (snapshot, stall) = span_total(pass, "checkpoint.snapshot");
    Layers {
        total: span_total(pass, "run").0,
        stream: span_total(pass, "stream").0,
        process: span_total(pass, process_name(pass)).0,
        snapshot,
        stall,
        finish: span_total(pass, "finish").0,
    }
}

/// Name of the span around the chunks' `process`/`offer` calls.
fn process_name(pass: &Pass) -> &'static str {
    pass.spans
        .iter()
        .find(|s| s.name.ends_with(".process") || s.name == "checkpoint.offer")
        .map_or("abacus.process", |s| s.name)
}

fn per_layer(args: &Args, runs: &Runs, metrics: &mut Metrics, checks: &mut Vec<Check>) {
    let main = &runs.traced;
    let counters = &main[0].counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let of = |f: &dyn Fn(&Layers) -> f64| {
        median(&main.iter().map(|p| f(&layers(p))).collect::<Vec<_>>())
    };
    let elements = count("stream.elements");
    let layer = process_name(&main[0]);
    let process = of(&|l| l.process);
    let bare_process = if runs.bare.is_empty() {
        process
    } else {
        median(
            &runs
                .bare
                .iter()
                .map(|p| layers(p).process)
                .collect::<Vec<_>>(),
        )
    };

    let decode = of(&|l| l.stream);
    metrics.put("stream.decode_s", decode, "s");
    metrics.put(
        "stream.decode_ns_per_elem",
        decode / elements * 1e9,
        "ns/element",
    );
    metrics.put("stream.elements", elements, "count");
    metrics.put("stream.input_bytes", count("stream.input_bytes"), "B");

    let sample_edges = count("sampling.sample_edges");
    metrics.put("sampling.sample_edges", sample_edges, "count");
    metrics.put(
        "sampling.bytes_per_sampled_edge",
        count("sampling.heap_bytes") / sample_edges.max(1.0),
        "B/edge",
    );
    metrics.put(
        "sampling.bad_deletions",
        count("sampling.bad_deletions"),
        "count",
    );
    metrics.put(
        "sampling.good_deletions",
        count("sampling.good_deletions"),
        "count",
    );

    let comparisons = count("abacus.comparisons");
    metrics.put("abacus.process_s", bare_process, "s");
    metrics.put("abacus.comparisons", comparisons, "count");
    metrics.put(
        "abacus.comparisons_per_elem",
        comparisons / elements,
        "count/element",
    );
    metrics.put("abacus.discovered", count("abacus.discovered"), "count");
    metrics.put(
        "abacus.discovered_per_kcmp",
        count("abacus.discovered") / comparisons.max(1.0) * 1e3,
        "count/kcmp",
    );

    let phase = |f: &dyn Fn(&abacus_core::PhaseTimings) -> f64| {
        median(
            &main
                .iter()
                .filter_map(|p| p.phases.as_ref().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let phase1 = phase(&|t| t.sequential_seconds);
    let count_wait = phase(&|t| t.counting_seconds);
    let par = layer == "parabacus.process";
    let other = if par {
        median(
            &main
                .iter()
                .filter_map(|p| {
                    let t = p.phases?;
                    let l = layers(p);
                    Some(l.process + l.finish - t.sequential_seconds - t.counting_seconds)
                })
                .collect::<Vec<_>>(),
        )
    } else {
        0.0
    };
    let threads = count("parabacus.threads");
    metrics.put("parabacus.phase1_s", phase1, "s");
    metrics.put("parabacus.count_wait_s", count_wait, "s");
    metrics.put("parabacus.other_s", other, "s");
    metrics.put("parabacus.batches", count("parabacus.batches"), "count");
    metrics.put(
        "parabacus.comparisons",
        count("parabacus.thread_sum"),
        "count",
    );
    metrics.put(
        "parabacus.replayed_ops",
        count("parabacus.replayed_ops"),
        "count",
    );
    metrics.put(
        "parabacus.load_imbalance",
        if threads > 0.0 && count("parabacus.thread_sum") > 0.0 {
            count("parabacus.thread_max") / (count("parabacus.thread_sum") / threads)
        } else {
            0.0
        },
        "ratio",
    );
    metrics.put(
        "parabacus.snapshot_enabled",
        count("parabacus.snapshot_enabled"),
        "count",
    );

    let circuit = layer == "circuit.process";
    metrics.put(
        "circuit.process_s",
        if circuit { process } else { 0.0 },
        "s",
    );
    metrics.put(
        "circuit.self_s",
        if circuit { process - bare_process } else { 0.0 },
        "s",
    );
    metrics.put("circuit.graph_edges", count("circuit.graph_edges"), "count");
    metrics.put(
        "circuit.exact_butterflies",
        count("circuit.exact_butterflies"),
        "count",
    );

    let durable = layer == "checkpoint.offer";
    metrics.put(
        "checkpoint.offer_s",
        if durable { process } else { 0.0 },
        "s",
    );
    metrics.put(
        "checkpoint.self_s",
        if durable { process - bare_process } else { 0.0 },
        "s",
    );
    metrics.put(
        "checkpoint.snapshots",
        count("checkpoint.snapshots"),
        "count",
    );
    metrics.put("checkpoint.snapshot_s", of(&|l| l.snapshot), "s");
    metrics.put("checkpoint.max_stall_ms", of(&|l| l.stall) * 1e3, "ms");
    metrics.put("checkpoint.wal_bytes", count("checkpoint.wal_bytes"), "B");
    metrics.put(
        "checkpoint.snapshot_bytes",
        count("checkpoint.snapshot_bytes"),
        "B",
    );

    let finish = of(&|l| l.finish);
    let total = of(&|l| l.total);
    metrics.put("driver.finish_s", finish, "s");
    metrics.put("driver.total_s", total, "s");

    // Additivity: stream + process (its snapshot children included) +
    // finish self times against the root span, pass by pass.
    let worst = main
        .iter()
        .map(|p| {
            let l = layers(p);
            (l.total - l.stream - l.process - l.finish) / l.total
        })
        .fold(0.0, f64::max);
    metrics.put("trace.unattributed_pct", worst * 100.0, "%");
    checks.push(Check {
        name: "layers_add_up",
        ok: worst.abs() <= ADDITIVITY_TOLERANCE,
        detail: format!(
            "worst unattributed share {:.3}% (tolerance {}%)",
            worst * 100.0,
            ADDITIVITY_TOLERANCE * 100.0
        ),
    });
    let untraced = median(&runs.untraced.iter().map(throughput).collect::<Vec<_>>());
    let traced = median(&main.iter().map(throughput).collect::<Vec<_>>());
    metrics.put("trace.overhead_pct", (untraced / traced - 1.0) * 100.0, "%");
    metrics.put("trace.untraced_eps", untraced, "elements/s");
    metrics.put("trace.traced_eps", traced, "elements/s");
    metrics.put("trace.passes", main.len() as f64, "count");
    write_spans(args, runs);
}

fn end_to_end(runs: &Runs, rel_error: f64, metrics: &mut Metrics, notes: &mut Vec<String>) {
    // The container shares its cores with other tenants, and a pass that
    // overlaps their bursts runs up to a third slower; interference only
    // ever slows work down.  Every pass does the same work, chunk for chunk,
    // so the times come from the fastest repeats: throughput from the
    // fastest pass, freshness from the fastest repeats of each chunk
    // position, enough of them to hold FRESHNESS_CHUNKS samples.
    let mut passes: Vec<&Pass> = runs.untraced.iter().collect();
    passes.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    let per_pass = passes[0].freshness_ms.len();
    let repeats = FRESHNESS_CHUNKS.div_ceil(per_pass);
    let mut freshness = Vec::with_capacity(per_pass * repeats);
    for position in 0..per_pass {
        let mut times: Vec<f64> = passes.iter().map(|p| p.freshness_ms[position]).collect();
        times.sort_by(f64::total_cmp);
        freshness.extend_from_slice(&times[..repeats]);
    }
    metrics.put("throughput_eps", throughput(passes[0]), "elements/s");
    metrics.put("setup_s", median(&runs.setups), "s");
    metrics.put(
        "peak_mem_mib",
        median(
            &passes
                .iter()
                .map(|p| p.peak_heap as f64 / 1_048_576.0)
                .collect::<Vec<_>>(),
        ),
        "MiB",
    );
    metrics.put("rel_error_pct", rel_error, "%");
    metrics.put("freshness_p50_ms", percentile(&freshness, 50.0), "ms");
    metrics.put(
        "freshness_tail_ms",
        percentile(&freshness, TAIL_PERCENTILE),
        "ms",
    );
    notes.push(format!(
        "pass throughputs (elements/s), in run order: {:?}",
        runs.untraced
            .iter()
            .map(|p| throughput(p).round())
            .collect::<Vec<_>>()
    ));
    notes.push(format!(
        "throughput from the fastest of {} passes; freshness over the fastest {repeats} \
         of each of the {per_pass} chunk positions, tail p{TAIL_PERCENTILE} of {}; setup_s \
         is the median of {} set-ups",
        passes.len(),
        freshness.len(),
        runs.setups.len()
    ));
}

/// Writes the traced passes' spans to `<data>/trace-<workload>-s<seed>.json`.
fn write_spans(args: &Args, runs: &Runs) {
    let mut out = String::from("[\n");
    let passes = runs
        .traced
        .iter()
        .map(|p| ("main", p))
        .chain(runs.bare.iter().map(|p| ("bare", p)));
    let mut first = true;
    for (index, (kind, pass)) in passes.enumerate() {
        for (id, span) in pass.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"pass\":{index},\"kind\":\"{kind}\",\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start, span.end
            );
        }
    }
    out.push_str("\n]\n");
    let path = args
        .data
        .join(format!("trace-{}-s{}.json", args.workload.name, args.seed));
    if let Err(error) = fs::write(&path, out) {
        eprintln!("warning: could not write {}: {error}", path.display());
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Runs `step` until `deadline` has passed and it ran at least `min` times.
fn repeat(
    deadline: Instant,
    min: usize,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut made = 0;
    while made < min || Instant::now() < deadline {
        step()?;
        made += 1;
    }
    Ok(())
}

fn measure(args: &Args, input: &Input, checks: &mut Vec<Check>) -> Result<(Pass, Runs), String> {
    let w = &args.workload;
    let mut n = 0usize;
    let mut dir = || {
        n += 1;
        drive::checkpoint_dir(&args.data, n)
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let check = drive::run(w, Mode::Main, &input.path, &dir(), false)?;
    let needs_bare = !w.is_bare();
    if needs_bare {
        let bare = drive::run(w, Mode::Bare, &input.path, &dir(), false)?;
        // Views and durability must not touch the estimate at all.
        // PARABACUS sums its per-batch increments in another order, so the
        // repository's parity contract for it is agreement to 1e-9 relative.
        let ulps = check.estimate.to_bits().abs_diff(bare.estimate.to_bits());
        let relative = ((check.estimate - bare.estimate) / bare.estimate).abs();
        let parallel = w.spec.kind == abacus_core::EstimatorKind::ParAbacus;
        checks.push(Check {
            name: "estimate_matches_bare_abacus",
            ok: ulps == 0 || (parallel && relative <= PARITY_TOLERANCE),
            detail: format!(
                "{:?} vs bare ABACUS {:?}: {ulps} ulp apart (relative {relative:.1e})",
                check.estimate, bare.estimate
            ),
        });
    }
    checks.push(Check {
        name: "all_elements_pulled",
        ok: check.elements == input.elements,
        detail: format!("{} of {}", check.elements, input.elements),
    });
    if w.checkpoint_every.is_some() {
        checks.push(Check {
            name: "committed_equals_elements",
            ok: check.committed == Some(input.elements),
            detail: format!("committed {:?} of {}", check.committed, input.elements),
        });
    }
    if !w.views.is_empty() {
        let seen = check.counters.get("circuit.exact_butterflies").copied();
        checks.push(Check {
            name: "vertex_view_equals_exact",
            ok: seen.map(u128::from) == Some(input.exact),
            detail: format!("{seen:?} vs exact {}", input.exact),
        });
    }

    let mut runs = Runs::default();
    let mut same_counters = true;
    let mut keep = |pass: Pass, runs: &mut Vec<Pass>, setups: &mut Vec<f64>| {
        same_counters &=
            pass.counters == check.counters && pass.estimate.to_bits() == check.estimate.to_bits();
        setups.push(pass.setup_s);
        runs.push(pass);
    };
    if args.trace {
        repeat(deadline, 2, || {
            let pass = drive::run(w, Mode::Main, &input.path, &dir(), false)?;
            keep(pass, &mut runs.untraced, &mut runs.setups);
            let pass = drive::run(w, Mode::Main, &input.path, &dir(), true)?;
            keep(pass, &mut runs.traced, &mut runs.setups);
            if needs_bare {
                runs.bare
                    .push(drive::run(w, Mode::Bare, &input.path, &dir(), true)?);
            }
            Ok(())
        })?;
    } else {
        let start = Instant::now();
        while runs.setups.len() < SETUP_SAMPLES
            || start.elapsed().as_secs_f64() < SETUP_SECONDS && runs.setups.len() < SETUP_MAX
        {
            runs.setups.push(drive::setup_only(w, &input.path, &dir())?);
        }
        // The check pass is the first timed pass.  The freshness percentiles
        // need this many repeats of each chunk, plus two to choose from.
        runs.untraced.push(check.clone());
        let min_passes = MIN_PASSES.max(FRESHNESS_CHUNKS.div_ceil(check.freshness_ms.len()) + 2);
        repeat(deadline, min_passes - 1, || {
            let pass = drive::run(w, Mode::Main, &input.path, &dir(), false)?;
            keep(pass, &mut runs.untraced, &mut runs.setups);
            Ok(())
        })?;
    }
    checks.push(Check {
        name: "counters_repeat_across_passes",
        ok: same_counters,
        detail: "every pass matches the check pass's counters and estimate bits".to_string(),
    });
    Ok((check, runs))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&args) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    fs::create_dir_all(&args.data).map_err(|e| format!("{}: {e}", args.data.display()))?;
    let started = Instant::now();
    let input = workload::input(&args.data, &w.data, args.seed)?;
    let rel_error = rel_error_pct(args)?;
    println!(
        "workload {} seed {}: {} elements, exact {} butterflies (inputs ready in {:.1}s)",
        w.name,
        args.seed,
        input.elements,
        input.exact,
        started.elapsed().as_secs_f64()
    );

    let mut checks = Vec::new();
    checks.push(Check {
        name: "rel_error_within_bound",
        ok: rel_error.is_finite() && rel_error <= w.max_rel_error_pct,
        detail: format!("{rel_error:.3}% (bound {}%)", w.max_rel_error_pct),
    });
    let (check, runs) = measure(args, &input, &mut checks)?;

    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    if args.trace {
        per_layer(args, &runs, &mut metrics, &mut checks);
    } else {
        end_to_end(&runs, rel_error, &mut metrics, &mut notes);
    }
    let attempted: u64 = runs
        .untraced
        .iter()
        .chain(&runs.traced)
        .map(|p| p.elements)
        .sum();

    for (name, value, unit) in &metrics.0 {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for check in &checks {
        println!(
            "  check {:<30} {} ({})",
            check.name,
            if check.ok { "ok" } else { "FAILED" },
            check.detail
        );
    }
    for note in &notes {
        println!("  note: {note}");
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"workload\":{},\"seed\":{},\"input\":{},\"elements\":{},\"attempted\":{attempted},\
         \"estimate\":{},\"cli_args\":[{}],",
        json_string(w.name),
        args.seed,
        json_string(&input.path.display().to_string()),
        input.elements,
        json_string(&format!("{:.1}", check.estimate)),
        w.cli_args
            .iter()
            .map(|a| json_string(a))
            .collect::<Vec<_>>()
            .join(","),
    );
    let checks_json: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                json_string(c.name),
                c.ok,
                json_string(&c.detail)
            )
        })
        .collect();
    let counters_json: Vec<String> = check
        .counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    let metrics_json: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    let _ = write!(
        json,
        "\"checks\":[{}],\"counters\":{{{}}},\"metrics\":{{{}}}}}",
        checks_json.join(","),
        counters_json.join(","),
        metrics_json.join(",")
    );
    println!("{json}");
    Ok(())
}
