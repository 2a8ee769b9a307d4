//! Statistical sampling of injection times and campaign sizing.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Draw `n` injection cycles uniformly (with replacement) from `window`,
/// deterministically derived from `(seed, stream)`.
///
/// Using a per-flip-flop `stream` keeps the campaign reproducible and
/// order-independent: the plan for flip-flop *k* does not depend on how
/// many other flip-flops were sampled before it.
///
/// The returned times are sorted ascending, which lets the campaign engine
/// batch them into 64-lane groups with a tight restart window.
///
/// ```
/// use ffr_fault::sample_injection_times;
///
/// let plan = sample_injection_times(2019, 7, 100..500, 170);
/// assert_eq!(plan.len(), 170);
/// assert!(plan.iter().all(|&t| (100..500).contains(&t)));
/// // Same (seed, stream, window) → same plan, no matter who asks when.
/// assert_eq!(plan, sample_injection_times(2019, 7, 100..500, 170));
/// ```
///
/// # Panics
///
/// Panics if the window is empty.
pub fn sample_injection_times(
    seed: u64,
    stream: u64,
    window: std::ops::Range<u64>,
    n: usize,
) -> Vec<u64> {
    assert!(window.start < window.end, "empty injection window");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut times: Vec<u64> = (0..n).map(|_| rng.gen_range(window.clone())).collect();
    times.sort_unstable();
    times
}

/// Sample size required for a statistical fault-injection campaign
/// (Leveugle et al., "Statistical fault injection: Quantified error and
/// confidence", DATE 2009):
///
/// ```text
/// n = N / (1 + e²·(N−1) / (t²·p·(1−p)))
/// ```
///
/// * `population` — total fault universe `N` (e.g. flip-flops × cycles),
/// * `margin` — desired error margin `e` (e.g. 0.05),
/// * `confidence_t` — the normal quantile `t` (1.96 for 95 %, 2.58 for
///   99 %),
/// * `p` — the a-priori failure probability (0.5 is the conservative
///   worst case).
///
/// # Panics
///
/// Panics if `margin` or `p` are outside `(0, 1)`.
pub fn required_sample_size(population: u64, margin: f64, confidence_t: f64, p: f64) -> u64 {
    assert!(margin > 0.0 && margin < 1.0, "margin must be in (0,1)");
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1)");
    let n = population as f64;
    let e2 = margin * margin;
    let t2 = confidence_t * confidence_t;
    let denom = 1.0 + e2 * (n - 1.0) / (t2 * p * (1.0 - p));
    (n / denom).ceil() as u64
}

/// The supported confidence levels of [`z_for_confidence`], as
/// `(percent, normal quantile)` pairs.
pub(crate) const CONFIDENCE_QUANTILES: [(u32, f64); 4] =
    [(90, 1.645), (95, 1.96), (98, 2.326), (99, 2.576)];

/// The two-sided normal quantile for a confidence level given in percent
/// (`None` for levels other than 90, 95, 98 and 99).
///
/// This is the single source of the `@95`-style confidence notation used
/// by campaign policy specs (`wilson:0.05@95`), so the spec parser, the
/// Wilson stopping rule and Leveugle et al.'s sizing formula
/// ([`required_sample_size`]) all agree on what a percentage means.
///
/// ```
/// use ffr_fault::{wilson_interval, z_for_confidence};
///
/// let z95 = z_for_confidence(95).unwrap();
/// assert_eq!(z95, 1.96);
/// // 0 failures in 64 injections: the 95 % upper bound is already
/// // below 6 % — the reasoning behind Wilson-CI early stopping.
/// let (lo, hi) = wilson_interval(0, 64, z95);
/// assert_eq!(lo, 0.0);
/// assert!(hi < 0.06);
/// ```
pub fn z_for_confidence(percent: u32) -> Option<f64> {
    CONFIDENCE_QUANTILES
        .iter()
        .find(|&&(p, _)| p == percent)
        .map(|&(_, z)| z)
}

/// The inverse of [`z_for_confidence`]: the confidence percentage of a
/// quantile, if it is one of the supported levels (exact match).
pub fn confidence_for_z(z: f64) -> Option<u32> {
    CONFIDENCE_QUANTILES
        .iter()
        .find(|&&(_, q)| q == z)
        .map(|&(p, _)| p)
}

/// Wilson score interval for an estimated failure probability.
///
/// Returns the `(low, high)` bounds of the FDR estimate after observing
/// `failures` out of `n` injections, at normal quantile `z` (1.96 for
/// 95 %). Used to report per-flip-flop confidence alongside the point
/// estimate.
///
/// ```
/// use ffr_fault::wilson_interval;
///
/// // 20 failures out of 170 injections, 95 % confidence.
/// let (lo, hi) = wilson_interval(20, 170, 1.96);
/// let p = 20.0 / 170.0;
/// assert!(lo < p && p < hi);
/// // Ten times the observations tighten the interval.
/// let (lo2, hi2) = wilson_interval(200, 1700, 1.96);
/// assert!(hi2 - lo2 < hi - lo);
/// ```
///
/// # Panics
///
/// Panics if `n == 0` or `failures > n`.
pub fn wilson_interval(failures: usize, n: usize, z: f64) -> (f64, f64) {
    assert!(n > 0, "no observations");
    assert!(failures <= n, "more failures than observations");
    let nf = n as f64;
    let p = failures as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_basics() {
        // Zero failures still leave non-zero upper uncertainty.
        let (lo, hi) = wilson_interval(0, 170, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05, "hi = {hi}");
        // Point estimate is inside the interval.
        let (lo, hi) = wilson_interval(20, 170, 1.96);
        let p = 20.0 / 170.0;
        assert!(lo < p && p < hi);
        // More samples tighten the interval.
        let (lo2, hi2) = wilson_interval(200, 1700, 1.96);
        assert!(hi2 - lo2 < hi - lo);
        // Symmetric extreme.
        let (lo, hi) = wilson_interval(170, 170, 1.96);
        assert!(lo > 0.95 && hi == 1.0);
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn wilson_zero_n_panics() {
        let _ = wilson_interval(0, 0, 1.96);
    }

    #[test]
    fn sampling_is_deterministic_and_in_window() {
        let a = sample_injection_times(42, 7, 100..500, 170);
        let b = sample_injection_times(42, 7, 100..500, 170);
        assert_eq!(a, b);
        assert_eq!(a.len(), 170);
        assert!(a.iter().all(|&t| (100..500).contains(&t)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn different_streams_differ() {
        let a = sample_injection_times(42, 1, 0..10_000, 50);
        let b = sample_injection_times(42, 2, 0..10_000, 50);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty injection window")]
    fn empty_window_panics() {
        let _ = sample_injection_times(0, 0, 5..5, 1);
    }

    #[test]
    fn confidence_quantiles_round_trip() {
        for (percent, z) in CONFIDENCE_QUANTILES {
            assert_eq!(z_for_confidence(percent), Some(z));
            assert_eq!(confidence_for_z(z), Some(percent));
        }
        assert_eq!(z_for_confidence(42), None);
        assert_eq!(confidence_for_z(1.0), None);
    }

    #[test]
    fn sample_size_formula_known_values() {
        // Large population, 95 % confidence, 5 % margin, p = 0.5 → ≈ 384.
        let n = required_sample_size(10_000_000, 0.05, 1.96, 0.5);
        assert!((380..=390).contains(&n), "got {n}");
        // Tighter margin needs more samples.
        let n1 = required_sample_size(1_000_000, 0.01, 1.96, 0.5);
        assert!(n1 > n);
        // Sample never exceeds the population.
        let n2 = required_sample_size(100, 0.05, 1.96, 0.5);
        assert!(n2 <= 100);
    }

    #[test]
    fn paper_scale_injections_are_plausible() {
        // The paper uses 170 injections per flip-flop. With a per-FF fault
        // universe of a few thousand cycles, a ~7.5 % margin at 95 %
        // confidence lands in that region — sanity-check the formula
        // reproduces the order of magnitude.
        let per_ff = required_sample_size(3_000, 0.075, 1.96, 0.5);
        assert!((140..=200).contains(&per_ff), "got {per_ff}");
    }
}
