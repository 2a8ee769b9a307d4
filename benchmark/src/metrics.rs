//! The metric tables: every name the benchmark prints, with unit,
//! direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repo root carries the same tables for the
//! driver; `tests/contract.rs` fails if the two drift apart.

use crate::stats::Better;

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as keyed in every JSON document.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound as a share of the baseline; `None` for per-layer
    /// metrics, which are reported and never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, share: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(share),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: defined and non-zero on every workload, measured
/// with telemetry off at `--threads 1`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", Lower, 0.20),
    e2e("fdrs_per_s", "1/s", Higher, 0.20),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Model kinds of `ffr estimate`'s default set, in evaluation order, by
/// CLI token.
pub const MODELS: [&str; 5] = ["linear", "knn", "forest", "boosting", "mlp"];

/// Per-layer metrics (traced pass). A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end quantities that are undefined on some workloads, so they
    // cannot be gated under the driver's "every workload reports every
    // end-to-end metric, never 0" rule; they keep the issue's names.
    layer("wall_par_s", "s", Lower),
    layer("injections_per_s", "1/s", Higher),
    layer("savings_x", "ratio", Higher),
    layer("ffr_abs_err", "abs", Lower),
    layer("fdr_mae", "abs", Lower),
    layer("fail_share", "ratio", Lower),
    // circuits, campaign.spec, sim (front end)
    layer("circuits.build_ms", "ms", Lower),
    layer("campaign.spec.prepare_ms", "ms", Lower),
    layer("sim.compile_ms", "ms", Lower),
    layer("sim.golden_ms", "ms", Lower),
    layer("sim.journal_ms", "ms", Lower),
    layer("sim.journal_mb", "MiB", Lower),
    layer("sim.dense_mops_per_s", "Mops/s", Higher),
    // sim (cone)
    layer("sim.cone_build_ms", "ms", Lower),
    layer("sim.cone_ops_mean", "count", Lower),
    // fault
    layer("fault.batch_us", "us", Lower),
    layer("fault.batches", "count", Lower),
    layer("fault.injections", "count", Lower),
    layer("fault.sim_s", "s", Lower),
    layer("fault.sim_ns_per_op", "ns", Lower),
    layer("fault.frontier_ops_evaluated", "count", Lower),
    layer("fault.frontier_ops_skipped", "count", Higher),
    layer("fault.frontier_eval_ratio", "ratio", Lower),
    layer("fault.cycles_saved", "count", Higher),
    // fault (judge)
    layer("fault.judge_s", "s", Lower),
    layer("fault.judge_calls", "count", Lower),
    layer("fault.judge_share_pct", "%", Lower),
    // campaign.session, campaign.runner
    layer("campaign.session.golden_ms", "ms", Lower),
    layer("campaign.session.measure_ms", "ms", Lower),
    layer("campaign.session.merge_ms", "ms", Lower),
    layer("campaign.session.publish_ms", "ms", Lower),
    layer("campaign.runner.range_overhead_pct", "%", Lower),
    layer("campaign.runner.par_speedup_x", "ratio", Higher),
    // campaign.checkpoint, campaign.work
    layer("campaign.checkpoint.flushes", "count", Lower),
    layer("campaign.checkpoint.flush_ms", "ms", Lower),
    layer("campaign.checkpoint.flush_us_p50", "us", Lower),
    layer("campaign.checkpoint.bytes", "B", Lower),
    layer("campaign.work.lease_claims", "count", Lower),
    layer("campaign.work.shard_flushes", "count", Lower),
    layer("campaign.work.shard_flush_ms", "ms", Lower),
    layer("campaign.work.shard_flush_us_p50", "us", Lower),
    // campaign.store, campaign.codec
    layer("campaign.store.put_ms", "ms", Lower),
    layer("campaign.store.get_ms", "ms", Lower),
    layer("campaign.store.put_bytes", "B", Lower),
    layer("campaign.store.key_ms", "ms", Lower),
    layer("campaign.codec.deflate_mb_per_s", "MiB/s", Higher),
    layer("campaign.codec.inflate_mb_per_s", "MiB/s", Higher),
    layer("campaign.codec.ratio", "ratio", Higher),
    // features
    layer("features.activity_ms", "ms", Lower),
    layer("features.extract_ms", "ms", Lower),
    layer("features.align_ms", "ms", Lower),
    // ml: one tuned-default fit per model kind on the workload's matrix
    layer("ml.fit_ms.linear", "ms", Lower),
    layer("ml.fit_ms.knn", "ms", Lower),
    layer("ml.fit_ms.forest", "ms", Lower),
    layer("ml.fit_ms.boosting", "ms", Lower),
    layer("ml.fit_ms.mlp", "ms", Lower),
    layer("ml.predict_us_per_row.linear", "us", Lower),
    layer("ml.predict_us_per_row.knn", "us", Lower),
    layer("ml.predict_us_per_row.forest", "us", Lower),
    layer("ml.predict_us_per_row.boosting", "us", Lower),
    layer("ml.predict_us_per_row.mlp", "us", Lower),
    // campaign.estimate, campaign.transfer
    layer("campaign.estimate.fit_s.linear", "s", Lower),
    layer("campaign.estimate.fit_s.knn", "s", Lower),
    layer("campaign.estimate.fit_s.forest", "s", Lower),
    layer("campaign.estimate.fit_s.boosting", "s", Lower),
    layer("campaign.estimate.fit_s.mlp", "s", Lower),
    layer("campaign.estimate.cv_fits", "count", Lower),
    layer("campaign.estimate.overhead_ms", "ms", Lower),
    layer("campaign.transfer.total_s", "s", Lower),
    // campaign.cli: wall per invocation of each subcommand of the timed
    // sequence (the fixed cost the warm workload is made of)
    layer("campaign.cli.run_ms", "ms", Lower),
    layer("campaign.cli.estimate_ms", "ms", Lower),
    layer("campaign.cli.status_ms", "ms", Lower),
    layer("campaign.cli.report_ms", "ms", Lower),
    // campaign.service
    layer("campaign.service.submit_ms", "ms", Lower),
    layer("campaign.service.status_p50_ms", "ms", Lower),
    layer("campaign.service.status_p95_ms", "ms", Lower),
    layer("campaign.service.requests", "count", Lower),
    layer("campaign.service.failed", "count", Lower),
    layer("campaign.service.estimate_first_s", "s", Lower),
    layer("campaign.service.estimate_cached_ms", "ms", Lower),
    // obs, whole run
    layer("obs.telemetry_overhead_pct", "%", Lower),
    layer("obs.records", "count", Lower),
    // The ledger: share of the traced repetition's wall per layer
    // (`layers::LEDGER_ROWS`), and what no layer claimed.
    layer("ledger.front_end_pct", "%", Lower),
    layer("ledger.golden_pct", "%", Lower),
    layer("ledger.cone_build_pct", "%", Lower),
    layer("ledger.batch_sim_pct", "%", Lower),
    layer("ledger.judge_pct", "%", Lower),
    layer("ledger.flush_pct", "%", Lower),
    layer("ledger.runner_pct", "%", Lower),
    layer("ledger.publish_pct", "%", Lower),
    layer("ledger.store_pct", "%", Lower),
    layer("ledger.features_pct", "%", Lower),
    layer("ledger.ml_pct", "%", Lower),
    layer("campaign.unattributed_pct", "%", Lower),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The driver's name rule: starts with a letter or digit, at most 64 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The driver's unit rule: 1..=16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_name_charset() {
        for ok in ["wall_s", "ml.fit_ms.mlp", "a-b", "9lives", "A.b_c-d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "", ".hidden", "_x", "-x", "a b", "a/b", "wall(s)", "é", &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_table_entry_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound.unwrap(), largest);
    }

    #[test]
    fn every_ledger_row_has_a_metric() {
        for row in crate::layers::LEDGER_ROWS {
            assert!(find(&format!("ledger.{row}_pct")).is_some(), "{row}");
        }
    }

    #[test]
    fn per_model_metrics_cover_the_default_model_set() {
        for model in MODELS {
            for family in [
                "ml.fit_ms",
                "ml.predict_us_per_row",
                "campaign.estimate.fit_s",
            ] {
                assert!(find(&format!("{family}.{model}")).is_some());
            }
        }
    }
}
