//! Campaign results: per-flip-flop Functional De-Rating factors.

use crate::model::FailureClass;
use ffr_netlist::FfId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;

/// Tallied outcome of all injections into one flip-flop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FfCampaignResult {
    ff: FfId,
    class_counts: Vec<usize>,
}

impl FfCampaignResult {
    /// Build a result from the per-class tallies (indexed like
    /// [`FailureClass::ALL`]).
    pub fn new(ff: FfId, class_counts: [usize; FailureClass::ALL.len()]) -> FfCampaignResult {
        FfCampaignResult {
            ff,
            class_counts: class_counts.to_vec(),
        }
    }

    /// The flip-flop this result belongs to.
    pub fn ff(&self) -> FfId {
        self.ff
    }

    /// Total injections performed.
    pub fn injections(&self) -> usize {
        self.class_counts.iter().sum()
    }

    /// Injections classified as functional failures.
    pub fn failures(&self) -> usize {
        failures_in(&self.class_counts)
    }

    /// Tally for one class.
    pub fn count(&self, class: FailureClass) -> usize {
        self.class_counts[class.tally_index()]
    }

    /// The Functional De-Rating factor: failures / injections.
    pub fn fdr(&self) -> f64 {
        failure_fraction(self.failures(), self.injections())
    }
}

/// Failure fraction of a tally: `failures / injections`, defined as 0 for
/// an empty tally.
///
/// This is the single definition of the de-rating division — the SEU
/// per-flip-flop FDR ([`FfCampaignResult::fdr`]) and the SET per-net
/// de-rating factor ([`crate::NetSetResult::derating`]) are both this
/// fraction, and both need the same division-by-zero guard.
pub(crate) fn failure_fraction(failures: usize, injections: usize) -> f64 {
    if injections == 0 {
        0.0
    } else {
        failures as f64 / injections as f64
    }
}

/// Failures in a per-class tally vector (indexed like
/// [`FailureClass::ALL`]) — the single definition of which classes count
/// as functional failures, shared with external tally accumulators such
/// as the resumable campaign checkpoint.
pub fn failures_in(class_counts: &[usize]) -> usize {
    FailureClass::ALL
        .iter()
        .filter(|c| c.is_failure())
        .map(|c| class_counts[c.tally_index()])
        .sum()
}

/// Per-flip-flop FDR results of a (possibly partial) campaign.
///
/// A full flat campaign covers every flip-flop; the ML flow's reference
/// generation covers only the training subset. Uncovered flip-flops report
/// `None`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdrTable {
    per_ff: Vec<Option<FfCampaignResult>>,
    injections_per_ff: usize,
}

impl FdrTable {
    /// Assemble a table for a circuit with `num_ffs` flip-flops from
    /// individual results.
    ///
    /// # Panics
    ///
    /// Panics if a result references a flip-flop out of range or two
    /// results target the same flip-flop.
    pub fn from_results(
        num_ffs: usize,
        results: Vec<FfCampaignResult>,
        injections_per_ff: usize,
    ) -> FdrTable {
        let mut per_ff: Vec<Option<FfCampaignResult>> = vec![None; num_ffs];
        for r in results {
            let slot = &mut per_ff[r.ff().index()];
            assert!(slot.is_none(), "duplicate result for FF {}", r.ff());
            *slot = Some(r);
        }
        FdrTable {
            per_ff,
            injections_per_ff,
        }
    }

    /// Number of flip-flops in the circuit (covered or not).
    pub fn num_ffs(&self) -> usize {
        self.per_ff.len()
    }

    /// Configured injections per flip-flop.
    pub fn injections_per_ff(&self) -> usize {
        self.injections_per_ff
    }

    /// FDR of one flip-flop, if it was covered.
    pub fn fdr(&self, ff: FfId) -> Option<f64> {
        self.per_ff[ff.index()].as_ref().map(|r| r.fdr())
    }

    /// Full result record of one flip-flop, if covered.
    pub fn result(&self, ff: FfId) -> Option<&FfCampaignResult> {
        self.per_ff[ff.index()].as_ref()
    }

    /// Iterate over covered flip-flops.
    pub fn covered(&self) -> impl Iterator<Item = &FfCampaignResult> {
        self.per_ff.iter().flatten()
    }

    /// Dense FDR vector over **all** flip-flops.
    ///
    /// # Panics
    ///
    /// Panics if the table does not cover every flip-flop.
    pub fn dense_fdr(&self) -> Vec<f64> {
        self.per_ff
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.as_ref()
                    .unwrap_or_else(|| panic!("FF {i} not covered by campaign"))
                    .fdr()
            })
            .collect()
    }

    /// Average FDR over covered flip-flops — the circuit-level functional
    /// de-rating (assuming a uniform raw SEU rate per flip-flop).
    pub fn circuit_fdr(&self) -> f64 {
        let mut n = 0usize;
        let mut sum = 0.0;
        for r in self.covered() {
            n += 1;
            sum += r.fdr();
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Fault-injection simulations the table actually spent: the sum of
    /// the covered flip-flops' injections (under an adaptive stopping
    /// policy this is less than `covered × injections_per_ff`).
    pub fn injections_spent(&self) -> usize {
        self.covered().map(|r| r.injections()).sum()
    }

    /// Total per-class tallies over covered flip-flops.
    pub fn class_totals(&self) -> Vec<(FailureClass, usize)> {
        FailureClass::ALL
            .iter()
            .map(|&c| (c, self.covered().map(|r| r.count(c)).sum()))
            .collect()
    }

    /// Histogram of FDR values over covered flip-flops.
    pub fn histogram(&self, bins: usize) -> FdrHistogram {
        FdrHistogram::of(self.covered().map(|r| r.fdr()), bins)
    }

    /// Wilson 95 % confidence interval of one flip-flop's FDR, if covered.
    pub fn confidence(&self, ff: FfId) -> Option<(f64, f64)> {
        self.result(ff)
            .map(|r| crate::sampling::wilson_interval(r.failures(), r.injections(), 1.96))
    }

    /// Render the table as CSV (`ff,injections,failures,fdr,ci_low,ci_high`),
    /// covered flip-flops only.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("ff,injections,failures,fdr,ci_low,ci_high\n");
        for r in self.covered() {
            let (lo, hi) = crate::sampling::wilson_interval(r.failures(), r.injections(), 1.96);
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{:.6},{:.6}",
                r.ff(),
                r.injections(),
                r.failures(),
                r.fdr(),
                lo,
                hi
            );
        }
        out
    }

    /// Serialize the table to pretty JSON at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn save_json(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Load a table previously written by [`FdrTable::save_json`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization failures.
    pub fn load_json(path: &Path) -> io::Result<FdrTable> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).map_err(io::Error::other)
    }
}

/// Fixed-width histogram over FDR values in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FdrHistogram {
    counts: Vec<usize>,
    total: usize,
}

impl FdrHistogram {
    /// Histogram of `values` with `bins` equal-width bins over `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn of(values: impl Iterator<Item = f64>, bins: usize) -> FdrHistogram {
        assert!(bins > 0);
        let mut counts = vec![0usize; bins];
        let mut total = 0usize;
        for v in values {
            let idx = ((v * bins as f64) as usize).min(bins - 1);
            counts[idx] += 1;
            total += 1;
        }
        FdrHistogram { counts, total }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of values.
    pub fn total(&self) -> usize {
        self.total
    }
}

impl fmt::Display for FdrHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bins = self.counts.len();
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        for (i, &c) in self.counts.iter().enumerate() {
            let lo = i as f64 / bins as f64;
            let hi = (i + 1) as f64 / bins as f64;
            let bar = "#".repeat(c * 40 / max);
            writeln!(f, "[{lo:.2},{hi:.2}) {c:>6} {bar}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ff: usize, benign: usize, corrupt: usize, hang: usize) -> FfCampaignResult {
        let mut counts = [0usize; FailureClass::ALL.len()];
        counts[FailureClass::Benign.tally_index()] = benign;
        counts[FailureClass::PayloadCorruption.tally_index()] = corrupt;
        counts[FailureClass::Hang.tally_index()] = hang;
        FfCampaignResult::new(FfId::from_index(ff), counts)
    }

    #[test]
    fn fdr_math() {
        let r = result(0, 150, 15, 5);
        assert_eq!(r.injections(), 170);
        assert_eq!(r.failures(), 20);
        assert!((r.fdr() - 20.0 / 170.0).abs() < 1e-12);
        assert_eq!(r.count(FailureClass::Hang), 5);
    }

    #[test]
    fn table_aggregation() {
        let table = FdrTable::from_results(3, vec![result(0, 10, 0, 0), result(2, 0, 10, 0)], 10);
        assert_eq!(table.num_ffs(), 3);
        assert_eq!(table.fdr(FfId::from_index(0)), Some(0.0));
        assert_eq!(table.fdr(FfId::from_index(1)), None);
        assert_eq!(table.fdr(FfId::from_index(2)), Some(1.0));
        assert_eq!(table.covered().count(), 2);
        assert!((table.circuit_fdr() - 0.5).abs() < 1e-12);
        // Measured spend, not `covered × injections_per_ff`: an adaptive
        // policy may retire flip-flops at different counts.
        let uneven = FdrTable::from_results(3, vec![result(0, 6, 0, 0), result(2, 0, 10, 0)], 10);
        assert_eq!(uneven.injections_spent(), 16);
        assert_eq!(table.injections_spent(), 20);
        let totals = table.class_totals();
        assert_eq!(totals[FailureClass::Benign.tally_index()].1, 10);
    }

    #[test]
    #[should_panic(expected = "duplicate result")]
    fn duplicate_result_panics() {
        let _ = FdrTable::from_results(2, vec![result(0, 1, 0, 0), result(0, 0, 1, 0)], 1);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn dense_fdr_requires_full_coverage() {
        let table = FdrTable::from_results(2, vec![result(0, 1, 0, 0)], 1);
        let _ = table.dense_fdr();
    }

    #[test]
    fn json_round_trip() {
        let table = FdrTable::from_results(2, vec![result(0, 3, 1, 0), result(1, 4, 0, 0)], 4);
        let dir = std::env::temp_dir().join("ffr_fault_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fdr.json");
        table.save_json(&path).unwrap();
        let loaded = FdrTable::load_json(&path).unwrap();
        assert_eq!(loaded, table);
    }

    #[test]
    fn confidence_and_csv() {
        let table =
            FdrTable::from_results(2, vec![result(0, 150, 15, 5), result(1, 170, 0, 0)], 170);
        let (lo, hi) = table.confidence(FfId::from_index(0)).unwrap();
        let p = 20.0 / 170.0;
        assert!(lo < p && p < hi);
        let (lo1, hi1) = table.confidence(FfId::from_index(1)).unwrap();
        assert_eq!(lo1, 0.0);
        assert!(hi1 > 0.0 && hi1 < 0.05);
        let csv = table.to_csv();
        assert!(csv.starts_with("ff,injections,failures"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn histogram_bins() {
        let h = FdrHistogram::of([0.0, 0.05, 0.5, 0.95, 1.0].into_iter(), 10);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts()[0], 2); // 0.0 and 0.05
        assert_eq!(h.counts()[5], 1); // 0.5
        assert_eq!(h.counts()[9], 2); // 0.95 and 1.0 (clamped)
        let s = h.to_string();
        assert!(s.contains('#'));
    }
}
