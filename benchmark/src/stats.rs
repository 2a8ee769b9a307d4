//! Sample summaries and the regression rule shared by `--check-against`
//! and `--selfcheck`.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, errors).
    Lower,
    /// Larger is better (throughputs, savings).
    Higher,
}

impl Better {
    /// The `better` string of `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle samples for even counts).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Summarise samples; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        min: sorted[0],
        max: sorted[n - 1],
        samples: n,
    })
}

/// Median of samples (0 when empty — only used for per-layer metrics,
/// where 0 means "nothing observed").
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Signed worsening of `fresh` against `baseline` in the metric's unit
/// (positive = worse), whichever way the metric improves.
pub fn worsening(better: Better, baseline: f64, fresh: f64) -> f64 {
    match better {
        Better::Lower => fresh - baseline,
        Better::Higher => baseline - fresh,
    }
}

/// `true` when `fresh` is worse than `baseline` by more than `bound`, a
/// share of the baseline.
pub fn regressed(better: Better, bound: f64, baseline: f64, fresh: f64) -> bool {
    worsening(better, baseline, fresh) > bound * baseline.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_even_and_empty() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.samples), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.samples), (2.5, 1.0, 4.0, 4));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert!((quantile(&v, 0.95) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn bound_comparison_for_lower_and_higher_metrics() {
        // Lower is better: 100 -> 104 is inside 5 %, 106 is not; faster never regresses.
        assert!(!regressed(Better::Lower, 0.05, 100.0, 104.0));
        assert!(regressed(Better::Lower, 0.05, 100.0, 106.0));
        assert!(!regressed(Better::Lower, 0.05, 100.0, 50.0));
        // Higher is better: 100 -> 96 is inside 5 %, 94 is not; more never regresses.
        assert!(!regressed(Better::Higher, 0.05, 100.0, 96.0));
        assert!(regressed(Better::Higher, 0.05, 100.0, 94.0));
        assert!(!regressed(Better::Higher, 0.05, 100.0, 200.0));
        // The bound scales with the magnitude of the baseline.
        assert!(!regressed(Better::Lower, 0.25, 0.010, 0.012));
        assert!(regressed(Better::Lower, 0.25, 0.010, 0.013));
    }
}
