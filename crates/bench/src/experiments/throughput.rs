//! Fig. 4 — throughput vs. sample size.
//!
//! PARABACUS and ABACUS process the fully dynamic stream (insertions and
//! deletions); for a fair comparison with the insert-only baselines, ABACUS is
//! also measured on the insert-only projection, as are FLEET and CAS.
//!
//! Like the speedup figures, this experiment runs on the *speedup-scale*
//! workloads and sample sizes (see [`Settings::speedup_scale`]) so that the
//! per-edge counting work — not fixed per-element overhead — determines the
//! throughput, as it does at the paper's dataset sizes.  Relative error is
//! not evaluated here, so no ground truth is needed.

use crate::datasets::speedup_stream;
use crate::runners::run;
use crate::settings::Settings;
use abacus_core::engine::EstimatorSpec;
use abacus_metrics::Table;
use abacus_stream::{stream::insertions_only, Dataset};

/// Fig. 4 — throughput (K edges/s) of every estimator while varying the
/// sample size, with α = 20% deletions.
#[must_use]
pub fn fig4_throughput(settings: &Settings) -> Table {
    let mut table = Table::new(
        format!(
            "Fig. 4 — Throughput (K edges/s) with 20% deletions, varying sample size (scale {}, PARABACUS M = {}, {} threads)",
            settings.speedup_scale, settings.default_batch_size, settings.max_threads
        ),
        &[
            "Dataset",
            "k (edges)",
            "PARABACUS (Ins+Del)",
            "ABACUS (Ins+Del)",
            "ABACUS (Ins-only)",
            "FLEET (Ins-only)",
            "CAS (Ins-only)",
        ],
    );
    for dataset in Dataset::all() {
        let stream = speedup_stream(dataset, settings.default_alpha, settings.speedup_scale);
        let insert_stream = insertions_only(&stream);
        for &k in &settings.speedup_sample_sizes {
            let parabacus = run(
                EstimatorSpec::parabacus(k)
                    .with_batch_size(settings.default_batch_size)
                    .with_threads(settings.max_threads),
                &stream,
            );
            let abacus_dynamic = run(EstimatorSpec::abacus(k), &stream);
            let abacus_insert = run(EstimatorSpec::abacus(k), &insert_stream);
            let fleet = run(EstimatorSpec::fleet(k), &insert_stream);
            let cas = run(EstimatorSpec::cas(k), &insert_stream);
            table.push_row([
                dataset.name().to_string(),
                k.to_string(),
                format!("{:.0}", parabacus.throughput.kilo_per_second()),
                format!("{:.0}", abacus_dynamic.throughput.kilo_per_second()),
                format!("{:.0}", abacus_insert.throughput.kilo_per_second()),
                format!("{:.0}", fleet.throughput.kilo_per_second()),
                format!("{:.0}", cas.throughput.kilo_per_second()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_rows_for_each_dataset_and_sample_size() {
        let settings = Settings {
            trials: 1,
            speedup_sample_sizes: vec![500],
            speedup_scale: 1,
            max_threads: 2,
            ..Settings::default()
        };
        let table = fig4_throughput(&settings);
        assert_eq!(table.len(), 4);
        assert!(table.to_markdown().contains("PARABACUS"));
    }
}
