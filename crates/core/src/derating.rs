//! Combining SEU and SET de-rating into a circuit-level soft-error
//! functional failure rate.
//!
//! The paper estimates the SEU side: per-flip-flop Functional De-Rating
//! factors, measured on a training subset and predicted for the rest
//! ([`estimate()`](crate::estimate())). The follow-up cross-layer
//! work additionally needs the transient (SET) contribution: per-net
//! logical de-rating factors from a combinational-net campaign
//! ([`SetDeratingTable`]). This module folds both tables with raw event
//! rates into one number — the classic sum-over-sites de-rating model:
//!
//! ```text
//! FFR = λ_SEU · Σ_ff  FDR(ff)  +  λ_SET · Σ_net D(net)
//! ```
//!
//! where `λ_SEU` is the raw upset rate per flip-flop and `λ_SET` the raw
//! transient rate per combinational net (both in the caller's unit of
//! choice, e.g. FIT per site).

use ffr_fault::SetDeratingTable;

/// Raw single-event rates per site, before functional de-rating.
///
/// Units are the caller's (FIT per site is customary); the combined
/// estimate comes out in the same unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawEventRates {
    /// Raw SEU rate per flip-flop.
    pub seu_per_ff: f64,
    /// Raw SET rate per combinational net.
    pub set_per_net: f64,
}

/// Circuit-level soft-error failure-rate estimate, split by fault model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftErrorEstimate {
    /// SEU contribution: `λ_SEU · Σ_ff FDR(ff)`.
    pub seu_failure_rate: f64,
    /// SET contribution: `λ_SET · Σ_net D(net)`.
    pub set_failure_rate: f64,
}

impl SoftErrorEstimate {
    /// Total functional failure rate (both fault models).
    pub fn total(&self) -> f64 {
        self.seu_failure_rate + self.set_failure_rate
    }

    /// Fraction of the total contributed by transients (0 when the total
    /// is 0).
    pub fn set_share(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.set_failure_rate / total
        }
    }

    /// Combine per-flip-flop SEU FDRs with a SET de-rating table.
    ///
    /// `per_ff_fdr` holds one value per flip-flop, however obtained: an
    /// ML-assisted estimation (measured subset + predictions — this is
    /// how a SET campaign feeds the estimation pipeline) or a fully
    /// measured table's [`FdrTable::dense_fdr`](ffr_fault::FdrTable::dense_fdr)
    /// (the paper's flat-campaign baseline). The resumable SET campaign
    /// (`ffr run --fault set`) supplies the per-net side.
    ///
    /// The SET table may cover only a *sample* of the circuit's
    /// combinational nets: the mean de-rating over covered nets is
    /// extrapolated to `set_population` sites, so a 1-in-N subsampled
    /// campaign still yields an unbiased SET contribution instead of an
    /// N× undercount. With `set_population == set.num_nets()` this is the
    /// plain sum over sites, `λ_SET · Σ_net D(net)`.
    pub fn from_estimation_sampled(
        per_ff_fdr: &[f64],
        set: &SetDeratingTable,
        rates: &RawEventRates,
        set_population: usize,
    ) -> SoftErrorEstimate {
        SoftErrorEstimate {
            seu_failure_rate: rates.seu_per_ff * per_ff_fdr.iter().sum::<f64>(),
            set_failure_rate: rates.set_per_net * set.circuit_derating() * set_population as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_fault::{FailureClass, FdrTable, FfCampaignResult, NetSetResult};
    use ffr_netlist::{FfId, NetId};

    fn counts(benign: usize, fail: usize) -> [usize; FailureClass::ALL.len()] {
        let mut c = [0usize; FailureClass::ALL.len()];
        c[FailureClass::Benign.tally_index()] = benign;
        c[FailureClass::OutputMismatch.tally_index()] = fail;
        c
    }

    #[test]
    fn combined_rate_is_sum_over_sites() {
        // Two FFs with FDR 1.0 and 0.5; two nets with derating 0.25 and 0.
        let fdr = FdrTable::from_results(
            2,
            vec![
                FfCampaignResult::new(FfId::from_index(0), counts(0, 8)),
                FfCampaignResult::new(FfId::from_index(1), counts(4, 4)),
            ],
            8,
        );
        let set = SetDeratingTable::from_results(
            vec![
                NetSetResult::new(NetId::from_index(3), counts(6, 2)),
                NetSetResult::new(NetId::from_index(9), counts(8, 0)),
            ],
            8,
        );
        let rates = RawEventRates {
            seu_per_ff: 10.0,
            set_per_net: 2.0,
        };
        let est = SoftErrorEstimate::from_estimation_sampled(
            &fdr.dense_fdr(),
            &set,
            &rates,
            set.num_nets(),
        );
        assert!((est.seu_failure_rate - 15.0).abs() < 1e-12);
        assert!((est.set_failure_rate - 0.5).abs() < 1e-12);
        assert!((est.total() - 15.5).abs() < 1e-12);
        assert!(est.set_share() > 0.0 && est.set_share() < 0.1);
    }

    #[test]
    fn sampled_constructor_extrapolates_to_population() {
        let set = SetDeratingTable::from_results(
            vec![
                NetSetResult::new(NetId::from_index(3), counts(6, 2)), // 0.25
                NetSetResult::new(NetId::from_index(9), counts(8, 0)), // 0.0
            ],
            8,
        );
        let rates = RawEventRates {
            seu_per_ff: 0.0,
            set_per_net: 2.0,
        };
        // No flip-flops: only the SET side matters.
        let estimation: [f64; 0] = [];
        // 2 covered nets standing in for a population of 16: mean 0.125
        // de-rating × 16 sites × rate 2.0 = 4.0 (8× the covered-only sum).
        let est = SoftErrorEstimate::from_estimation_sampled(&estimation, &set, &rates, 16);
        assert!((est.set_failure_rate - 4.0).abs() < 1e-12);
        // Population == covered count is the plain sum over sites: 0.25 × 2.0.
        let same = SoftErrorEstimate::from_estimation_sampled(&estimation, &set, &rates, 2);
        assert!((same.set_failure_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tables_give_zero_rate() {
        let fdr = FdrTable::from_results(0, vec![], 8);
        let set = SetDeratingTable::from_results(vec![], 8);
        let rates = RawEventRates {
            seu_per_ff: 10.0,
            set_per_net: 2.0,
        };
        let est = SoftErrorEstimate::from_estimation_sampled(
            &fdr.dense_fdr(),
            &set,
            &rates,
            set.num_nets(),
        );
        assert_eq!(est.total(), 0.0);
        assert_eq!(est.set_share(), 0.0);
    }
}
