//! Fig. 8 and Fig. 9 — PARABACUS speedup over sequential ABACUS.
//!
//! Speedup is the ratio of the sequential ABACUS runtime to the PARABACUS
//! runtime over the same fully dynamic stream with the same memory budget.
//!
//! These experiments run on the *speedup-scale* workloads (see
//! [`Settings::speedup_scale`]): the per-edge set-intersection work has to
//! dominate the fixed per-element costs for parallelism to pay off, exactly
//! as it does at the paper's dataset sizes.

use crate::datasets::speedup_stream;
use crate::runners::run;
use crate::settings::Settings;
use abacus_core::engine::EstimatorSpec;
use abacus_metrics::Table;
use abacus_stream::{Dataset, StreamElement};
use std::collections::HashMap;

/// Measures the sequential ABACUS baseline runtime once per (dataset, k).
fn sequential_seconds(
    cache: &mut HashMap<(Dataset, usize), f64>,
    dataset: Dataset,
    stream: &[StreamElement],
    k: usize,
) -> f64 {
    if let Some(&secs) = cache.get(&(dataset, k)) {
        return secs;
    }
    let result = run(EstimatorSpec::abacus(k), stream);
    let secs = result.throughput.seconds;
    cache.insert((dataset, k), secs);
    secs
}

fn parabacus_seconds(stream: &[StreamElement], k: usize, batch_size: usize, threads: usize) -> f64 {
    let result = run(
        EstimatorSpec::parabacus(k)
            .with_batch_size(batch_size)
            .with_threads(threads),
        stream,
    );
    result.throughput.seconds
}

/// Fig. 8 — speedup while varying the mini-batch size (all threads).
#[must_use]
pub fn fig8_speedup_vs_batch_size(settings: &Settings) -> Vec<Table> {
    let mut cache = HashMap::new();
    Dataset::all()
        .into_iter()
        .map(|dataset| {
            // One stream per dataset, shared by every cell of the sweep.
            let stream = speedup_stream(dataset, settings.default_alpha, settings.speedup_scale);
            let mut header: Vec<String> = vec!["Mini-batch size".to_string()];
            for &k in &settings.speedup_sample_sizes {
                header.push(format!("speedup k={k}"));
            }
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            let mut table = Table::new(
                format!(
                    "Fig. 8 — PARABACUS speedup vs mini-batch size ({}, scale {}, {} threads)",
                    dataset.name(),
                    settings.speedup_scale,
                    settings.max_threads
                ),
                &header_refs,
            );
            for &batch in &settings.batch_sizes {
                let mut row = vec![batch.to_string()];
                for &k in &settings.speedup_sample_sizes {
                    let seq = sequential_seconds(&mut cache, dataset, &stream, k);
                    let par = parabacus_seconds(&stream, k, batch, settings.max_threads);
                    row.push(format!("{:.2}", seq / par.max(1e-9)));
                }
                table.add_row(row);
            }
            table
        })
        .collect()
}

/// Fig. 9 — speedup while varying the number of threads (M = 10K).
#[must_use]
pub fn fig9_speedup_vs_threads(settings: &Settings) -> Vec<Table> {
    let batch_size = *settings.batch_sizes.last().unwrap_or(&10_000);
    let mut cache = HashMap::new();
    Dataset::all()
        .into_iter()
        .map(|dataset| {
            // One stream per dataset, shared by every cell of the sweep.
            let stream = speedup_stream(dataset, settings.default_alpha, settings.speedup_scale);
            let mut header: Vec<String> = vec!["Threads".to_string()];
            for &k in &settings.speedup_sample_sizes {
                header.push(format!("speedup k={k}"));
            }
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            let mut table = Table::new(
                format!(
                    "Fig. 9 — PARABACUS speedup vs threads ({}, scale {}, M = {batch_size})",
                    dataset.name(),
                    settings.speedup_scale
                ),
                &header_refs,
            );
            for &threads in &settings.thread_sweep() {
                let mut row = vec![threads.to_string()];
                for &k in &settings.speedup_sample_sizes {
                    let seq = sequential_seconds(&mut cache, dataset, &stream, k);
                    let par = parabacus_seconds(&stream, k, batch_size, threads);
                    row.push(format!("{:.2}", seq / par.max(1e-9)));
                }
                table.add_row(row);
            }
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_produces_one_table_per_dataset() {
        let settings = Settings {
            speedup_sample_sizes: vec![300],
            batch_sizes: vec![200],
            max_threads: 2,
            speedup_scale: 1,
            ..Settings::default()
        };
        let tables = fig8_speedup_vs_batch_size(&settings);
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].len(), 1);
    }
}
