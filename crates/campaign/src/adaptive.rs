//! Adaptive statistical early-stopping for per-flip-flop campaigns.
//!
//! The paper injects a fixed 170 SEUs into every flip-flop. Most
//! flip-flops do not need that many: a register whose first 64 injections
//! are all benign already has a Wilson 95 % upper bound under 6 % on its
//! FDR, and a register that always fails is pinned just as quickly. The
//! [`AdaptivePolicy`] retires a flip-flop as soon as the Wilson confidence
//! interval on its FDR is tighter than a target half-width, capping the
//! spend at `max_injections` — the same confidence-driven reasoning as
//! Leveugle et al.'s campaign-sizing formula, applied per flip-flop and
//! online.
//!
//! The decision is a pure function of the accumulated tallies, so it is
//! checkpoint-safe: a resumed campaign retires exactly the same flip-flops
//! after exactly the same injections as an uninterrupted one.

use ffr_fault::{confidence_for_z, wilson_interval, z_for_confidence};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Injections simulated per decision step (one bit-parallel batch).
pub(crate) const CHUNK_INJECTIONS: usize = 64;

/// Default `min_injections` of a `wilson:` spec without explicit bounds:
/// one decision chunk, so the first stopping decision has real evidence.
pub(crate) const DEFAULT_WILSON_MIN: usize = CHUNK_INJECTIONS;

/// Default `max_injections` of a `wilson:` spec without explicit bounds.
pub(crate) const DEFAULT_WILSON_MAX: usize = 1024;

/// When to stop injecting into a flip-flop.
///
/// # Policy specs
///
/// Every stopping rule has a canonical, round-trippable **policy spec**
/// — the single notation used by the `--policy` CLI flag, the campaign
/// manifest, `ffr status` and the campaign fingerprint (so two campaigns
/// with different policies never share a cache entry):
///
/// | spec                        | meaning                                            |
/// |-----------------------------|----------------------------------------------------|
/// | `fixed:170`                 | always 170 injections per point (paper-faithful)   |
/// | `wilson:0.05@95`            | retire once the 95 % Wilson CI half-width ≤ 0.05   |
/// | `wilson:0.02@99:64..340`    | same, 99 % confidence, explicit min/max bounds     |
///
/// The type implements [`FromStr`] and [`Display`](std::fmt::Display)
/// for this grammar, and `parse(display(p)) == p` for every representable
/// policy:
///
/// ```
/// use ffr_campaign::AdaptivePolicy;
///
/// let p: AdaptivePolicy = "wilson:0.05@95:64..170".parse().unwrap();
/// assert_eq!(p.ci_half_width, Some(0.05));
/// assert_eq!(p.z, 1.96);
/// assert_eq!((p.min_injections, p.max_injections), (64, 170));
/// assert_eq!(p.to_string().parse::<AdaptivePolicy>().unwrap(), p);
///
/// assert_eq!(AdaptivePolicy::fixed(170).to_string(), "fixed:170");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePolicy {
    /// Never stop before this many injections (0 disables the floor).
    pub min_injections: usize,
    /// Hard cap on injections per flip-flop.
    pub max_injections: usize,
    /// Normal quantile of the confidence interval (1.96 ≙ 95 %).
    pub z: f64,
    /// Retire once the Wilson interval half-width is at or below this
    /// (`None` disables adaptive stopping: always run to the cap).
    pub ci_half_width: Option<f64>,
}

impl AdaptivePolicy {
    /// Fixed-budget policy: always `n` injections, no early stopping
    /// (paper-faithful mode).
    pub fn fixed(n: usize) -> AdaptivePolicy {
        AdaptivePolicy {
            min_injections: n,
            max_injections: n,
            z: 1.96,
            ci_half_width: None,
        }
    }

    /// Adaptive policy: between `min` and `max` injections, stopping once
    /// the 95 % Wilson half-width reaches `half_width`.
    pub fn adaptive(min: usize, max: usize, half_width: f64) -> AdaptivePolicy {
        assert!(min <= max, "min_injections must not exceed max_injections");
        assert!(
            half_width > 0.0 && half_width < 0.5,
            "half-width in (0, 0.5)"
        );
        AdaptivePolicy {
            min_injections: min,
            max_injections: max,
            z: 1.96,
            ci_half_width: Some(half_width),
        }
    }

    /// `true` once a flip-flop with `failures` out of `injections` should
    /// be retired.
    pub(crate) fn is_settled(&self, failures: usize, injections: usize) -> bool {
        if injections >= self.max_injections {
            return true;
        }
        if injections < self.min_injections || injections == 0 {
            return false;
        }
        match self.ci_half_width {
            None => false,
            Some(target) => {
                let (lo, hi) = wilson_interval(failures, injections, self.z);
                (hi - lo) / 2.0 <= target
            }
        }
    }

    /// Size of the next injection batch for a flip-flop that has already
    /// executed `injections_done` (0 when the plan is exhausted).
    pub fn next_batch(&self, injections_done: usize) -> usize {
        self.max_injections
            .saturating_sub(injections_done)
            .min(CHUNK_INJECTIONS)
    }
}

impl fmt::Display for AdaptivePolicy {
    /// The canonical policy spec (see [`AdaptivePolicy`]): the one
    /// rendering used by `ffr status`, the manifest and the campaign
    /// fingerprint. `Display` and [`FromStr`] round-trip exactly; a
    /// policy with `ci_half_width: None` always runs to the cap, so it
    /// prints as `fixed:<max>` regardless of its floor.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ci_half_width {
            None => write!(f, "fixed:{}", self.max_injections),
            Some(hw) => {
                write!(f, "wilson:{hw}@")?;
                match confidence_for_z(self.z) {
                    Some(percent) => write!(f, "{percent}")?,
                    None => write!(f, "z{}", self.z)?,
                }
                write!(f, ":{}..{}", self.min_injections, self.max_injections)
            }
        }
    }
}

impl FromStr for AdaptivePolicy {
    type Err = String;

    /// Parse a policy spec: `fixed:<n>` or
    /// `wilson:<half_width>@<confidence>[:<min>..<max>]`.
    ///
    /// `<confidence>` is a percentage (90, 95, 98 or 99) or `z<quantile>`
    /// for an explicit normal quantile; omitted bounds default to
    /// `64..1024` (one decision chunk up to 1024 injections).
    fn from_str(s: &str) -> Result<AdaptivePolicy, String> {
        let bad = |why: &str| {
            Err(format!(
                "bad policy `{s}`: {why} (expected `fixed:<n>` or \
                 `wilson:<half_width>@<confidence>[:<min>..<max>]`, \
                 e.g. `fixed:170`, `wilson:0.05@95`, `wilson:0.02@99:64..340`)"
            ))
        };
        let Some((kind, rest)) = s.split_once(':') else {
            return bad("missing `:`");
        };
        match kind {
            "fixed" => {
                let n: usize = match rest.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return bad("injection count must be a positive integer"),
                };
                Ok(AdaptivePolicy::fixed(n))
            }
            "wilson" => {
                let (target, bounds) = match rest.split_once(':') {
                    Some((t, b)) => (t, Some(b)),
                    None => (rest, None),
                };
                let Some((hw, conf)) = target.split_once('@') else {
                    return bad("missing `@<confidence>` after the half-width");
                };
                let hw: f64 = match hw.parse() {
                    Ok(hw) if hw > 0.0 && hw < 0.5 => hw,
                    Ok(_) => return bad("half-width must be in (0, 0.5)"),
                    Err(_) => return bad("half-width must be a number"),
                };
                let z = if let Some(q) = conf.strip_prefix('z') {
                    match q.parse::<f64>() {
                        Ok(z) if z > 0.0 && z.is_finite() => z,
                        _ => return bad("z-quantile must be a positive number"),
                    }
                } else {
                    match conf.parse::<u32>().ok().and_then(z_for_confidence) {
                        Some(z) => z,
                        None => {
                            return bad("confidence must be one of 90, 95, 98, 99 \
                                 (or an explicit `z<quantile>`)")
                        }
                    }
                };
                let (min, max) = match bounds {
                    None => (DEFAULT_WILSON_MIN, DEFAULT_WILSON_MAX),
                    Some(b) => {
                        let Some((min, max)) = b.split_once("..") else {
                            return bad("bounds must be `<min>..<max>`");
                        };
                        match (min.parse::<usize>(), max.parse::<usize>()) {
                            (Ok(min), Ok(max)) if min <= max && max > 0 => (min, max),
                            (Ok(min), Ok(max)) if min > max => {
                                return bad("min must not exceed max")
                            }
                            _ => return bad("bounds must be `<min>..<max>` integers"),
                        }
                    }
                };
                Ok(AdaptivePolicy {
                    min_injections: min,
                    max_injections: max,
                    z,
                    ci_half_width: Some(hw),
                })
            }
            other => bad(&format!("unknown policy kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_runs_to_cap() {
        let p = AdaptivePolicy::fixed(170);
        assert!(!p.is_settled(0, 64));
        assert!(!p.is_settled(0, 128));
        assert!(p.is_settled(3, 170));
        assert_eq!(p.next_batch(0), 64);
        assert_eq!(p.next_batch(128), 42);
        assert_eq!(p.next_batch(170), 0);
    }

    #[test]
    fn adaptive_policy_retires_extremes_early() {
        let p = AdaptivePolicy::adaptive(64, 1024, 0.06);
        // All-benign after 64: Wilson 95 % interval ≈ [0, 0.057] → settled.
        assert!(p.is_settled(0, 64));
        // All-failing is symmetric.
        assert!(p.is_settled(64, 64));
        // A mid-range FDR at 64 injections is still wide open.
        assert!(!p.is_settled(32, 64));
        // But the cap always ends it.
        assert!(p.is_settled(512, 1024));
    }

    #[test]
    fn min_floor_blocks_early_retirement() {
        let p = AdaptivePolicy::adaptive(128, 256, 0.06);
        assert!(!p.is_settled(0, 64), "below the floor");
        assert!(p.is_settled(0, 128));
    }

    #[test]
    fn always_failing_point_retires_at_the_floor() {
        // A point that fails every injection is pinned (p ≈ 1, tight
        // interval) the moment the floor allows a decision — the
        // symmetric twin of the all-benign early exit.
        let p = AdaptivePolicy::adaptive(128, 1024, 0.06);
        assert!(!p.is_settled(64, 64), "floor must hold even at p = 1");
        assert!(p.is_settled(128, 128), "retire exactly at the floor");
    }

    #[test]
    fn no_half_width_always_runs_to_cap() {
        // ci_half_width: None disables adaptive stopping entirely — even a
        // policy with a floor below the cap runs every point to the cap.
        let p = AdaptivePolicy {
            min_injections: 64,
            max_injections: 512,
            z: 1.96,
            ci_half_width: None,
        };
        for n in [64, 128, 256, 448] {
            assert!(!p.is_settled(0, n), "all-benign at {n}");
            assert!(!p.is_settled(n, n), "all-failing at {n}");
        }
        assert!(p.is_settled(0, 512));
        // And it renders as the fixed policy it behaves as.
        assert_eq!(p.to_string(), "fixed:512");
    }

    #[test]
    fn policy_spec_display_parse_round_trip() {
        for (spec, rendered) in [
            ("fixed:170", "fixed:170"),
            ("fixed:1", "fixed:1"),
            // Defaults are made explicit on display.
            ("wilson:0.05@95", "wilson:0.05@95:64..1024"),
            ("wilson:0.02@99:64..340", "wilson:0.02@99:64..340"),
            ("wilson:0.1@90:0..256", "wilson:0.1@90:0..256"),
            // Arbitrary quantiles survive via the z prefix.
            ("wilson:0.05@z3.5:32..64", "wilson:0.05@z3.5:32..64"),
        ] {
            let p: AdaptivePolicy = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(p.to_string(), rendered, "display of `{spec}`");
            let back: AdaptivePolicy = rendered.parse().unwrap();
            assert_eq!(back, p, "round-trip of `{spec}`");
        }
        let p: AdaptivePolicy = "wilson:0.02@99".parse().unwrap();
        assert_eq!(p.z, 2.576);
        assert_eq!(p.ci_half_width, Some(0.02));
    }

    #[test]
    fn bad_policy_specs_are_rejected_with_guidance() {
        for bad in [
            "",
            "fixed",
            "fixed:",
            "fixed:0",
            "fixed:-3",
            "fixed:many",
            "adaptive:64:512:0.05",
            "wilson:0.05",
            "wilson:0.6@95",
            "wilson:0@95",
            "wilson:0.05@80",
            "wilson:0.05@z-1",
            "wilson:0.05@95:512..64",
            "wilson:0.05@95:64-512",
            "wilson:0.05@95:64..0",
        ] {
            let err = bad.parse::<AdaptivePolicy>().unwrap_err();
            assert!(err.contains("fixed:170"), "`{bad}` hint missing: {err}");
        }
    }

    #[test]
    fn settled_is_monotone_enough_for_resume() {
        // The exact decision sequence a runner takes: after each chunk,
        // is_settled with the accumulated tallies. Replaying the same
        // tallies gives the same decisions — trivially true because the
        // function is pure; this test pins it against regression.
        let p = AdaptivePolicy::adaptive(64, 192, 0.05);
        let history = [(2usize, 64usize), (5, 128), (7, 192)];
        let first: Vec<bool> = history.iter().map(|&(f, n)| p.is_settled(f, n)).collect();
        let second: Vec<bool> = history.iter().map(|&(f, n)| p.is_settled(f, n)).collect();
        assert_eq!(first, second);
        assert!(first[2], "cap reached");
    }
}
