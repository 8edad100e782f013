//! Windowed estimate series and burst detection.
//!
//! Streaming deployments rarely want only the final butterfly count: anomaly
//! detectors (§I of the paper) watch how the estimate *evolves* and alert
//! when a window's change is abnormal.  [`AnomalySeries`] is the
//! estimator-agnostic core of that machinery: it is fed one estimate per
//! stream element, records a [`WindowSnapshot`] every `window` elements, and
//! flags windows whose delta is a burst relative to the trailing history.
//!
//! The series deliberately knows nothing about counters, graphs, or threads —
//! it consumes a bare `f64` per element — so it can back the delta circuit's
//! anomaly view (`abacus_core::circuit::AnomalyView`) and serve as the
//! reference that view's parity tests feed a bare estimator's estimates.

/// One recorded window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSnapshot {
    /// Index of the window (0-based).
    pub window: usize,
    /// Number of stream elements processed up to and including this window.
    pub elements: u64,
    /// Estimate at the end of the window.
    pub estimate: f64,
    /// Change of the estimate relative to the previous window.
    pub delta: f64,
}

/// A windowed series of estimates with burst detection.
///
/// Feed it one estimate per stream element via [`observe`](Self::observe);
/// every `window` elements it records a snapshot and hands it back so the
/// caller can publish it (to a shared cell, a dashboard, a log line).
#[derive(Debug, Clone)]
pub struct AnomalySeries {
    window: usize,
    in_window: usize,
    elements: u64,
    snapshots: Vec<WindowSnapshot>,
    burst_factor: f64,
}

impl AnomalySeries {
    /// Creates a series that snapshots every `window` elements.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must contain at least one element");
        AnomalySeries {
            window,
            in_window: 0,
            elements: 0,
            snapshots: Vec::new(),
            burst_factor: 8.0,
        }
    }

    /// Sets the burst-detection factor (a window is anomalous when its
    /// absolute delta exceeds `factor ×` the mean absolute delta of the
    /// preceding windows).  Default: 8.
    ///
    /// # Panics
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn with_burst_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "burst factor must be positive");
        self.burst_factor = factor;
        self
    }

    /// Rebuilds a series from previously captured state — the
    /// checkpoint/restore path.  `in_window` is the number of elements
    /// observed since the last snapshot.
    ///
    /// # Panics
    /// Panics if `window` is zero or `burst_factor` is not positive.
    #[must_use]
    pub fn from_state(
        window: usize,
        in_window: usize,
        elements: u64,
        snapshots: Vec<WindowSnapshot>,
        burst_factor: f64,
    ) -> Self {
        assert!(window >= 1, "window must contain at least one element");
        assert!(burst_factor > 0.0, "burst factor must be positive");
        AnomalySeries {
            window,
            in_window,
            elements,
            snapshots,
            burst_factor,
        }
    }

    /// The snapshot cadence in stream elements.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Elements observed since the last snapshot.
    #[must_use]
    pub fn in_window(&self) -> usize {
        self.in_window
    }

    /// The burst-detection factor.
    #[must_use]
    pub fn burst_factor(&self) -> f64 {
        self.burst_factor
    }

    /// Total number of elements observed.
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// Records one stream element whose post-element estimate is `estimate`.
    ///
    /// Returns the snapshot taken when this element closes a window, `None`
    /// otherwise.  Only the estimate accompanying a window-closing element is
    /// ever read, so callers with expensive estimates may pass a stale value
    /// mid-window as long as the boundary value is fresh.
    pub fn observe(&mut self, estimate: f64) -> Option<WindowSnapshot> {
        self.elements += 1;
        self.in_window += 1;
        if self.in_window >= self.window {
            Some(self.record(estimate))
        } else {
            None
        }
    }

    /// Forces a snapshot of the current partial window.
    ///
    /// A no-op (returning `None`) when the current window is empty (no
    /// elements observed since the last snapshot) *and* the estimate has not
    /// moved: recording it would append a duplicate zero-delta window — e.g.
    /// when the stream length is an exact multiple of `window`, the
    /// per-window snapshot has already fired — silently deflating the
    /// trailing mean that [`anomalous_windows`](Self::anomalous_windows)
    /// compares against.  An empty window whose estimate *did* change (a
    /// buffered counter flushing on finish) is still recorded, so the flushed
    /// value reaches the series.
    pub fn force_snapshot(&mut self, estimate: f64) -> Option<WindowSnapshot> {
        let previous = self.snapshots.last().map_or(0.0, |s| s.estimate);
        if self.in_window == 0 && estimate == previous {
            return None;
        }
        Some(self.record(estimate))
    }

    fn record(&mut self, estimate: f64) -> WindowSnapshot {
        let previous = self.snapshots.last().map_or(0.0, |s| s.estimate);
        let snapshot = WindowSnapshot {
            window: self.snapshots.len(),
            elements: self.elements,
            estimate,
            delta: estimate - previous,
        };
        self.snapshots.push(snapshot);
        self.in_window = 0;
        snapshot
    }

    /// The recorded window snapshots.
    #[must_use]
    pub fn snapshots(&self) -> &[WindowSnapshot] {
        &self.snapshots
    }

    /// Windows whose estimate change is anomalously large compared to the
    /// trailing history.
    ///
    /// A window is flagged when its absolute delta exceeds `burst_factor ×`
    /// the mean absolute delta of the up-to-8 preceding windows.  A partial
    /// window of `n` elements (`0 < n < window`, e.g. one forced at the end
    /// of the stream) is judged by its rate: its delta is scaled by
    /// `window / n` here, in the warm-up median and in the trailing mean.
    /// Full windows and empty flush windows keep their raw delta.  Two
    /// properties keep the detector scale-independent:
    ///
    /// * the baseline has no absolute floor — only a noise floor relative to
    ///   the estimate's magnitude (`ε·|estimate|`, guarding against float
    ///   summation residue), so streams whose per-window changes are
    ///   fractions of a butterfly can still alert;
    /// * the earliest windows, which have no trailing history, are compared
    ///   against the median absolute delta of the *whole* recorded series (a
    ///   retrospective warm-up baseline), so a spike in window 0 is
    ///   flaggable instead of being its own baseline.
    #[must_use]
    pub fn anomalous_windows(&self) -> Vec<WindowSnapshot> {
        let window = self.window as u64;
        let mut previous = 0u64;
        let changes: Vec<f64> = self
            .snapshots
            .iter()
            .map(|snapshot| {
                let n = snapshot.elements.saturating_sub(previous);
                previous = snapshot.elements;
                if n > 0 && n < window {
                    snapshot.delta.abs() * (window as f64 / n as f64)
                } else {
                    snapshot.delta.abs()
                }
            })
            .collect();
        // Warm-up baseline: the series' median |delta| (robust against the
        // spikes the detector is meant to find).
        let mut sorted = changes.clone();
        sorted.sort_by(f64::total_cmp);
        let warm_up = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);

        let mut anomalies = Vec::new();
        let mut trailing: Vec<f64> = Vec::new();
        for (snapshot, &change) in self.snapshots.iter().zip(&changes) {
            let baseline = if trailing.is_empty() {
                warm_up
            } else {
                trailing.iter().sum::<f64>() / trailing.len() as f64
            };
            let noise_floor = f64::EPSILON * snapshot.estimate.abs();
            if change > (self.burst_factor * baseline).max(noise_floor) {
                anomalies.push(*snapshot);
            }
            trailing.push(change);
            if trailing.len() > 8 {
                trailing.remove(0);
            }
        }
        anomalies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_fire_on_window_boundaries() {
        let mut series = AnomalySeries::new(3);
        assert_eq!(series.observe(1.0), None);
        assert_eq!(series.observe(2.0), None);
        let snap = series.observe(3.0).expect("third element closes a window");
        assert_eq!(snap.window, 0);
        assert_eq!(snap.elements, 3);
        assert_eq!(snap.estimate, 3.0);
        assert_eq!(snap.delta, 3.0);
        assert_eq!(series.elements(), 3);
        assert_eq!(series.window(), 3);
        // The next window's delta is relative to the previous snapshot.
        series.observe(4.0);
        series.observe(5.0);
        let snap = series.observe(7.0).unwrap();
        assert_eq!(snap.window, 1);
        assert_eq!(snap.delta, 4.0);
        assert_eq!(series.snapshots().len(), 2);
    }

    #[test]
    fn forced_snapshot_guards_empty_unmoved_windows() {
        let mut fresh = AnomalySeries::new(5);
        assert_eq!(fresh.force_snapshot(0.0), None, "nothing observed");
        assert!(fresh.snapshots().is_empty());

        let mut series = AnomalySeries::new(2);
        series.observe(1.0);
        series.observe(2.0); // boundary snapshot at estimate 2.0
        assert_eq!(series.force_snapshot(2.0), None, "empty and unmoved");
        let moved = series.force_snapshot(5.0).expect("estimate moved");
        assert_eq!(moved.delta, 3.0);
        series.observe(6.0); // partial window
        let partial = series.force_snapshot(6.0).expect("window not empty");
        assert_eq!(partial.elements, 3);
        assert!(series.force_snapshot(6.0).is_none());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = AnomalySeries::new(0);
    }

    #[test]
    #[should_panic(expected = "burst factor")]
    fn non_positive_burst_factor_panics() {
        let _ = AnomalySeries::new(1).with_burst_factor(0.0);
    }

    #[test]
    fn burst_detection_flags_a_spike_against_trailing_history() {
        let mut series = AnomalySeries::new(1).with_burst_factor(5.0);
        let mut estimate = 0.0;
        for _ in 0..20 {
            estimate += 0.01;
            series.observe(estimate);
        }
        estimate += 10.0; // spike
        series.observe(estimate);
        for _ in 0..5 {
            estimate += 0.01;
            series.observe(estimate);
        }
        let anomalies = series.anomalous_windows();
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].window, 20);
    }

    /// Regression: the old detector floored the baseline at an absolute 1.0
    /// butterfly, so a stream whose per-window deltas are all far below one
    /// butterfly could never alert, however extreme a burst was relative to
    /// its own history.
    #[test]
    fn sub_unit_delta_streams_can_alert() {
        let mut series = AnomalySeries::new(10).with_burst_factor(8.0);
        let mut estimate = 0.0;
        // Quiet background: delta 0.01 per 10-element window.
        for _ in 0..100 {
            estimate += 0.001;
            series.observe(estimate);
        }
        // Burst: delta 0.5 for one window, 50x the trailing mean, yet half
        // a butterfly in absolute terms.
        for _ in 0..10 {
            estimate += 0.05;
            series.observe(estimate);
        }
        let anomalies = series.anomalous_windows();
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].window, 10);
    }

    /// Regression: the old detector used window 0's own delta as its
    /// baseline, so a burst in the very first window could never be flagged.
    /// The warm-up baseline (the series median) makes it flaggable.
    #[test]
    fn a_spike_in_the_first_window_is_flaggable() {
        let mut series = AnomalySeries::new(10).with_burst_factor(5.0);
        let mut estimate = 0.0;
        for _ in 0..10 {
            estimate += 0.8; // window 0: delta 8
            series.observe(estimate);
        }
        for _ in 0..80 {
            estimate += 0.001; // quiet
            series.observe(estimate);
        }
        let anomalies = series.anomalous_windows();
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].window, 0);
    }

    /// A final window forced after a few elements is judged by its rate: a
    /// drop of 30 over 3 elements of a 100-element window is a burst against
    /// full windows that each moved 100, though its raw delta is smaller.
    #[test]
    fn a_partial_final_window_is_judged_by_its_rate() {
        let mut series = AnomalySeries::new(100).with_burst_factor(8.0);
        let mut estimate = 0.0;
        for _ in 0..1_000 {
            estimate += 1.0;
            series.observe(estimate);
        }
        for _ in 0..3 {
            estimate -= 10.0;
            series.observe(estimate);
        }
        let last = series.force_snapshot(estimate).expect("window not empty");
        assert_eq!((last.window, last.delta), (10, -30.0));
        let anomalies = series.anomalous_windows();
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].window, 10);
    }

    #[test]
    fn uniform_series_raises_no_anomalies() {
        let mut series = AnomalySeries::new(1);
        for i in 1..=30 {
            series.observe(f64::from(i));
        }
        assert!(series.anomalous_windows().is_empty());
        assert!(AnomalySeries::new(5).anomalous_windows().is_empty());
    }
}
