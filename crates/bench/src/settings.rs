//! Experiment knobs.
//!
//! Every experiment reads its parameters from [`Settings::from_env`], so the
//! defaults keep `cargo bench` fast on a laptop while environment variables
//! allow scaling any experiment up:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `ABACUS_TRIALS` | independent runs averaged per accuracy data point | 3 |
//! | `ABACUS_THREADS` | maximum threads used by PARABACUS sweeps | available parallelism |
//! | `ABACUS_SAMPLE_SIZES` | comma-separated sample sizes (edges) | `750,1500,3000` |
//! | `ABACUS_BATCH_SIZES` | comma-separated mini-batch sizes | `100,500,1000,5000,10000` |
//! | `ABACUS_DELETION_RATIOS` | comma-separated α values (percent) | `5,10,20,30` |
//! | `ABACUS_SPEEDUP_SCALE` | dataset scale factor for the throughput/speedup figures | 4 |
//! | `ABACUS_SPEEDUP_SAMPLE_SIZES` | sample sizes for the throughput/speedup figures | `7500,15000,30000` |
//!
//! Two workload scales are used on purpose.  The *accuracy* experiments
//! (Figs. 3, 5, 6) run on ≈100×-reduced dataset analogs with sample sizes
//! scaled by the same factor, so exact ground truths stay cheap and many
//! trials can be averaged.  The *throughput / speedup* experiments (Figs. 4,
//! 8–10) instead need the per-edge set-intersection work to dominate the
//! fixed per-element costs — as it does at the paper's scale — so they run on
//! `speedup_scale`-times larger analogs with the paper's sample sizes divided
//! by 10 (see DESIGN.md §3 for the substitution argument).

/// Runtime-tunable experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Number of independent trials per accuracy data point (paper: 10).
    pub trials: u64,
    /// Maximum number of worker threads for PARABACUS.
    pub max_threads: usize,
    /// Sample sizes `k` swept by the accuracy/throughput experiments.
    /// The defaults are the paper's 75K/150K/300K divided by the ≈100×
    /// dataset scale factor (see DESIGN.md §3).
    pub sample_sizes: Vec<usize>,
    /// Mini-batch sizes swept by Fig. 8.
    pub batch_sizes: Vec<usize>,
    /// Deletion ratios α swept by Fig. 6 (fractions, not percent).
    pub deletion_ratios: Vec<f64>,
    /// The default deletion ratio used everywhere else (the paper's 20%).
    pub default_alpha: f64,
    /// The default PARABACUS mini-batch size (the paper's 500).
    pub default_batch_size: usize,
    /// Dataset scale factor used by the throughput / speedup experiments
    /// (Figs. 4, 8–10), relative to the accuracy-scale analogs.
    pub speedup_scale: u32,
    /// Sample sizes used by the throughput / speedup experiments (the paper's
    /// 75K/150K/300K divided by 10).
    pub speedup_sample_sizes: Vec<usize>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            trials: 3,
            max_threads: std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get),
            sample_sizes: vec![750, 1_500, 3_000],
            batch_sizes: vec![100, 500, 1_000, 5_000, 10_000],
            deletion_ratios: vec![0.05, 0.10, 0.20, 0.30],
            default_alpha: 0.20,
            default_batch_size: 500,
            speedup_scale: 4,
            speedup_sample_sizes: vec![7_500, 15_000, 30_000],
        }
    }
}

impl Settings {
    /// Builds the settings from the environment, falling back to defaults.
    #[must_use]
    pub fn from_env() -> Self {
        let mut settings = Settings::default();
        if let Some(trials) = read_env_number("ABACUS_TRIALS") {
            settings.trials = trials.max(1);
        }
        if let Some(threads) = read_env_number("ABACUS_THREADS") {
            settings.max_threads = (threads as usize).max(1);
        }
        if let Some(sizes) = read_env_list("ABACUS_SAMPLE_SIZES") {
            settings.sample_sizes = sizes.into_iter().map(|v| v as usize).collect();
        }
        if let Some(sizes) = read_env_list("ABACUS_BATCH_SIZES") {
            settings.batch_sizes = sizes.into_iter().map(|v| v as usize).collect();
        }
        if let Some(ratios) = read_env_list("ABACUS_DELETION_RATIOS") {
            settings.deletion_ratios = ratios.into_iter().map(|v| v as f64 / 100.0).collect();
        }
        if let Some(scale) = read_env_number("ABACUS_SPEEDUP_SCALE") {
            settings.speedup_scale = (scale as u32).max(1);
        }
        if let Some(sizes) = read_env_list("ABACUS_SPEEDUP_SAMPLE_SIZES") {
            settings.speedup_sample_sizes = sizes.into_iter().map(|v| v as usize).collect();
        }
        settings
    }

    /// The thread counts swept by Fig. 9 (8, 16, 24, 32, 40 in the paper,
    /// clipped to the machine's parallelism and deduplicated).
    #[must_use]
    pub fn thread_sweep(&self) -> Vec<usize> {
        let mut sweep: Vec<usize> = [1usize, 2, 4, 8, 16, 24, 32, 40]
            .into_iter()
            .filter(|&t| t <= self.max_threads)
            .collect();
        if !sweep.contains(&self.max_threads) {
            sweep.push(self.max_threads);
        }
        sweep.sort_unstable();
        sweep.dedup();
        sweep
    }
}

fn read_env_number(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn read_env_list(name: &str) -> Option<Vec<u64>> {
    let raw = std::env::var(name).ok()?;
    let values: Vec<u64> = raw
        .split(',')
        .filter_map(|part| part.trim().parse().ok())
        .collect();
    if values.is_empty() {
        None
    } else {
        Some(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = Settings::default();
        assert!(s.trials >= 1);
        assert!(s.max_threads >= 1);
        assert_eq!(s.sample_sizes, vec![750, 1_500, 3_000]);
        assert_eq!(s.default_batch_size, 500);
        assert!((s.default_alpha - 0.2).abs() < 1e-12);
    }

    #[test]
    fn thread_sweep_is_sorted_unique_and_bounded() {
        let mut s = Settings {
            max_threads: 10,
            ..Settings::default()
        };
        let sweep = s.thread_sweep();
        assert_eq!(sweep, vec![1, 2, 4, 8, 10]);
        s.max_threads = 1;
        assert_eq!(s.thread_sweep(), vec![1]);
    }

    #[test]
    fn env_parsing_helpers() {
        // These helpers must tolerate garbage without panicking.
        std::env::set_var("ABACUS_TEST_NUM", "17");
        assert_eq!(read_env_number("ABACUS_TEST_NUM"), Some(17));
        std::env::set_var("ABACUS_TEST_NUM", "not a number");
        assert_eq!(read_env_number("ABACUS_TEST_NUM"), None);
        std::env::set_var("ABACUS_TEST_LIST", "1, 2,3");
        assert_eq!(read_env_list("ABACUS_TEST_LIST"), Some(vec![1, 2, 3]));
        std::env::set_var("ABACUS_TEST_LIST", " , ");
        assert_eq!(read_env_list("ABACUS_TEST_LIST"), None);
        assert_eq!(read_env_number("ABACUS_TEST_MISSING_VAR"), None);
    }
}
