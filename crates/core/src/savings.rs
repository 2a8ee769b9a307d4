//! Campaign cost-reduction analysis (the paper's concluding 2×–5× claim).
//!
//! The learning curves show the model quality as a function of the
//! training size; this module turns them into the paper's headline
//! numbers: training on 50 % of the flip-flops halves the campaign cost at
//! (essentially) no accuracy loss, and 20 % training gives a 5× reduction
//! at a small accuracy penalty.
//!
//! The same accuracy-vs-cost framing applies to **stopping policies**:
//! a Wilson-CI early-stopping campaign spends fewer injections than the
//! paper's fixed-170 rule for a bounded accuracy loss. [`PolicyCostRow`]
//! and [`policy_cost_table`] fold per-policy sweep results (from
//! `ffr-bench --bin policy_study`) into the same report shape.

use ffr_ml::model_selection::LearningCurvePoint;

/// One row of the cost/accuracy trade-off table.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsRow {
    /// Fraction of flip-flops fault-injected.
    pub train_fraction: f64,
    /// Campaign cost reduction vs a full flat campaign (`1 / fraction`).
    pub cost_reduction: f64,
    /// Mean test R² at this training size.
    pub test_r2: f64,
    /// R² loss relative to the best point on the curve.
    pub r2_loss: f64,
}

/// Build the trade-off table from a learning curve.
pub fn savings_table(points: &[LearningCurvePoint]) -> Vec<SavingsRow> {
    let best = points
        .iter()
        .map(|p| p.test_r2)
        .fold(f64::NEG_INFINITY, f64::max);
    points
        .iter()
        .map(|p| SavingsRow {
            train_fraction: p.train_fraction,
            cost_reduction: 1.0 / p.train_fraction,
            test_r2: p.test_r2,
            r2_loss: best - p.test_r2,
        })
        .collect()
}

/// The largest cost reduction whose R² loss stays within `tolerance` of
/// the best point. `tolerance` is an absolute R² difference (`0.10` means
/// 0.10 of R²), not a relative accuracy loss.
pub fn max_cost_reduction(points: &[LearningCurvePoint], tolerance: f64) -> Option<SavingsRow> {
    savings_table(points)
        .into_iter()
        .filter(|r| r.r2_loss <= tolerance)
        .max_by(|a, b| a.cost_reduction.total_cmp(&b.cost_reduction))
}

/// Render the table.
pub fn render(rows: &[SavingsRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>16} {:>10} {:>10}",
        "train_frac", "cost_reduction", "test_R2", "R2_loss"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>12.2} {:>15.1}x {:>10.3} {:>10.3}",
            r.train_fraction, r.cost_reduction, r.test_r2, r.r2_loss
        );
    }
    out
}

/// One stopping policy's accuracy-vs-cost outcome, relative to a
/// reference policy (the paper's fixed-170 rule).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCostRow {
    /// Canonical policy spec (`fixed:170`, `wilson:0.05@95:64..170`, …).
    pub policy: String,
    /// Injections this policy spent.
    pub injections: usize,
    /// Campaign cost reduction vs the reference policy
    /// (`reference injections / injections`).
    pub cost_reduction: f64,
    /// Injections saved vs the reference, as a fraction in [-∞, 1).
    pub saved_fraction: f64,
    /// Absolute circuit-FFR deviation from the reference policy's result.
    pub ffr_delta: f64,
}

/// Fold per-policy sweep measurements `(spec, injections, |ΔFFR|)` into
/// cost rows against `reference_injections` (the fixed-policy spend).
///
/// # Panics
///
/// Panics if `reference_injections` is zero.
pub fn policy_cost_table<'a>(
    reference_injections: usize,
    measurements: impl IntoIterator<Item = (&'a str, usize, f64)>,
) -> Vec<PolicyCostRow> {
    assert!(reference_injections > 0, "reference campaign spent nothing");
    let reference = reference_injections as f64;
    measurements
        .into_iter()
        .map(|(policy, injections, ffr_delta)| PolicyCostRow {
            policy: policy.to_string(),
            injections,
            cost_reduction: reference / injections.max(1) as f64,
            saved_fraction: 1.0 - injections as f64 / reference,
            ffr_delta: ffr_delta.abs(),
        })
        .collect()
}

/// Render the policy cost table.
pub fn render_policy_table(rows: &[PolicyCostRow]) -> String {
    use std::fmt::Write as _;
    let width = rows
        .iter()
        .map(|r| r.policy.len())
        .max()
        .unwrap_or(6)
        .max(6);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<width$} {:>12} {:>10} {:>8} {:>10}",
        "policy", "injections", "saved", "cost", "|dFFR|"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<width$} {:>12} {:>9.1}% {:>7.2}x {:>10.4}",
            r.policy,
            r.injections,
            r.saved_fraction * 100.0,
            r.cost_reduction,
            r.ffr_delta
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_ml::metrics::RegressionScores;

    fn point(frac: f64, r2: f64) -> LearningCurvePoint {
        let s = RegressionScores {
            mae: 0.0,
            max: 0.0,
            rmse: 0.0,
            ev: r2,
            r2,
        };
        LearningCurvePoint {
            train_fraction: frac,
            train_r2: r2 + 0.05,
            test_r2: r2,
            train_scores: s,
            test_scores: s,
        }
    }

    #[test]
    fn table_and_selection() {
        // A saturating curve: 0.2 -> 0.78, 0.5 -> 0.84, 0.9 -> 0.85.
        let pts = vec![point(0.2, 0.78), point(0.5, 0.84), point(0.9, 0.85)];
        let table = savings_table(&pts);
        assert_eq!(table.len(), 3);
        assert!((table[0].cost_reduction - 5.0).abs() < 1e-9);
        assert!((table[1].cost_reduction - 2.0).abs() < 1e-9);
        // Tight tolerance picks 2x, loose tolerance 5x — the paper's two
        // headline numbers.
        let tight = max_cost_reduction(&pts, 0.02).unwrap();
        assert!((tight.cost_reduction - 2.0).abs() < 1e-9);
        let loose = max_cost_reduction(&pts, 0.10).unwrap();
        assert!((loose.cost_reduction - 5.0).abs() < 1e-9);
        let text = render(&table);
        assert!(text.contains("5.0x"));
    }

    #[test]
    fn policy_cost_rows_fold_against_the_reference() {
        let rows = policy_cost_table(
            128_180,
            [
                ("fixed:170", 128_180usize, 0.0),
                ("wilson:0.05@95:64..170", 83_742, -0.0091),
                ("wilson:0.02@99:64..340", 189_288, 0.0071),
            ],
        );
        assert_eq!(rows.len(), 3);
        assert!((rows[0].cost_reduction - 1.0).abs() < 1e-12);
        assert!((rows[0].saved_fraction).abs() < 1e-12);
        // The Wilson policy saves ~34.7 % and reports |ΔFFR|.
        assert!(rows[1].saved_fraction > 0.30 && rows[1].saved_fraction < 0.40);
        assert!(rows[1].cost_reduction > 1.5);
        assert!((rows[1].ffr_delta - 0.0091).abs() < 1e-12, "delta is |·|");
        // A tighter-than-reference policy costs more: negative savings.
        assert!(rows[2].saved_fraction < 0.0);
        assert!(rows[2].cost_reduction < 1.0);
        let text = render_policy_table(&rows);
        assert!(text.contains("wilson:0.05@95:64..170"), "{text}");
        assert!(text.contains('%'), "{text}");
    }

    #[test]
    #[should_panic(expected = "reference campaign spent nothing")]
    fn zero_reference_injections_panics() {
        let _ = policy_cost_table(0, []);
    }

    #[test]
    fn no_point_within_tolerance() {
        let pts = vec![point(0.1, 0.2), point(0.9, 0.9)];
        let r = max_cost_reduction(&pts, 0.05).unwrap();
        assert!((r.cost_reduction - 1.0 / 0.9).abs() < 1e-9);
    }
}
