//! Fig. 10 — per-thread workload of PARABACUS.
//!
//! The workload unit is the number of membership checks performed inside the
//! set intersections of the per-edge butterfly counting, which is exactly what
//! the paper reports per thread to demonstrate load balance.

use crate::datasets::speedup_stream;
use crate::runners::run;
use crate::settings::Settings;
use abacus_core::engine::EstimatorSpec;
use abacus_metrics::Table;
use abacus_stream::Dataset;

/// Fig. 10 — per-thread set-intersection workload for the densest
/// (Movielens-like) and sparsest (Orkut-like) datasets.
#[must_use]
pub fn fig10_load_balance(settings: &Settings) -> Vec<Table> {
    let k = settings
        .speedup_sample_sizes
        .get(settings.speedup_sample_sizes.len() / 2)
        .copied()
        .unwrap_or(15_000);
    let batch_size = *settings.batch_sizes.last().unwrap_or(&10_000);
    let threads = settings.max_threads.min(32);

    [Dataset::MovielensLike, Dataset::OrkutLike]
        .into_iter()
        .map(|dataset| {
            let stream = speedup_stream(dataset, settings.default_alpha, settings.speedup_scale);
            let result = run(
                EstimatorSpec::parabacus(k)
                    .with_batch_size(batch_size)
                    .with_threads(threads),
                &stream,
            );
            let workloads = &result.thread_workloads;
            let total: u64 = workloads.iter().sum();
            let mean = total as f64 / workloads.len().max(1) as f64;

            let mut table = Table::new(
                format!(
                    "Fig. 10 — Workload per thread ({}, k = {k}, M = {batch_size}, {threads} threads)",
                    dataset.name()
                ),
                &["Thread id", "Workload (element checks)", "Relative to mean"],
            );
            for (thread_id, &workload) in workloads.iter().enumerate() {
                table.push_row([
                    (thread_id + 1).to_string(),
                    workload.to_string(),
                    format!("{:.2}", workload as f64 / mean.max(1.0)),
                ]);
            }
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_tables_with_one_row_per_thread() {
        let settings = Settings {
            speedup_sample_sizes: vec![300],
            speedup_scale: 1,
            batch_sizes: vec![500],
            max_threads: 3,
            ..Settings::default()
        };
        let tables = fig10_load_balance(&settings);
        assert_eq!(tables.len(), 2);
        for table in tables {
            assert_eq!(table.len(), 3);
        }
    }
}
