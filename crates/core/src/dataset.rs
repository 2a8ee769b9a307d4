//! The reference dataset: per-flip-flop features paired with
//! fault-injection FDR values.

use ffr_features::FeatureMatrix;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Features and reference FDR for every flip-flop of a circuit — the
/// training/validation corpus of §IV. Built from the features of a
/// campaign's golden run and the dense FDRs of a flat campaign over every
/// flip-flop ([`FdrTable::dense_fdr`](ffr_fault::FdrTable::dense_fdr)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceDataset {
    /// Per-flip-flop feature matrix (row `i` ↔ `FfId(i)`).
    pub features: FeatureMatrix,
    /// Per-flip-flop FDR from the flat campaign (index ↔ `FfId`).
    pub fdr: Vec<f64>,
    /// Injections per flip-flop used for the reference campaign.
    pub injections_per_ff: usize,
}

impl ReferenceDataset {
    /// Number of samples (flip-flops).
    pub fn len(&self) -> usize {
        self.fdr.len()
    }

    /// `true` when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.fdr.is_empty()
    }

    /// Feature rows in the `Vec<Vec<f64>>` form `ffr-ml` consumes.
    pub fn x(&self) -> Vec<Vec<f64>> {
        self.features.to_rows()
    }

    /// Reference targets.
    pub fn y(&self) -> &[f64] {
        &self.fdr
    }

    /// Restrict to a feature-column subset (ablation experiments).
    pub fn with_columns(&self, cols: &[usize]) -> ReferenceDataset {
        ReferenceDataset {
            features: self.features.select_columns(cols),
            fdr: self.fdr.clone(),
            injections_per_ff: self.injections_per_ff,
        }
    }

    /// Cache the dataset as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn save_json(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Load a dataset written by [`ReferenceDataset::save_json`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization failures.
    pub fn load_json(path: &Path) -> io::Result<ReferenceDataset> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_circuits::{Mac10geConfig, MacJudge, MacTestbench, TrafficConfig};
    use ffr_fault::{Campaign, CampaignConfig, FdrTable, FfCampaignResult, InjectionPoint};
    use ffr_features::extract_features;
    use ffr_sim::GoldenRun;

    #[test]
    fn collect_small_mac_dataset() {
        let (cc, tb, watch, extractor) =
            MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
        let golden = GoldenRun::capture(&cc, &tb, &watch);
        let judge = MacJudge::new(extractor, &golden);
        let campaign = Campaign::with_golden(&cc, &tb, &watch, &judge, golden);
        let config = CampaignConfig::new(tb.injection_window())
            .with_injections(6)
            .with_seed(1);
        let results = cc
            .netlist()
            .ffs()
            .map(|(ff, _)| {
                FfCampaignResult::new(ff, campaign.run_point(InjectionPoint::Seu(ff), &config))
            })
            .collect();
        let ds = ReferenceDataset {
            features: extract_features(&cc, &campaign.golden().activity),
            fdr: FdrTable::from_results(cc.num_ffs(), results, 6).dense_fdr(),
            injections_per_ff: 6,
        };
        assert_eq!(ds.len(), cc.num_ffs());
        assert!(!ds.is_empty());
        assert!(ds.y().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // The dataset is non-degenerate: some FFs fail, some don't.
        let n_zero = ds.y().iter().filter(|&&v| v == 0.0).count();
        let n_pos = ds.y().iter().filter(|&&v| v > 0.0).count();
        assert!(n_zero > 0 && n_pos > 0, "zero={n_zero} pos={n_pos}");
        // Round-trip through the cache format.
        let dir = std::env::temp_dir().join("ffr_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataset.json");
        ds.save_json(&path).unwrap();
        let loaded = ReferenceDataset::load_json(&path).unwrap();
        assert_eq!(loaded, ds);
    }
}
