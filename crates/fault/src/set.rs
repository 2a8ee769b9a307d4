//! Single-Event Transient (SET) campaign results on combinational nets.
//!
//! The paper's background section (§II-A) describes SETs — transients on
//! combinational gate outputs that only matter if they are latched. The
//! *injection* of SETs lives in the unified campaign engine
//! ([`Campaign::run_point`](crate::Campaign::run_point) /
//! [`Campaign::run_point_times`](crate::Campaign::run_point_times) with
//! [`InjectionPoint::Set`](crate::InjectionPoint::Set)); this module holds
//! the per-net and per-circuit result types — the logical de-rating
//! tables that power the workspace's SET ablation experiments.

use crate::model::FailureClass;
use crate::result::failure_fraction;
use ffr_netlist::NetId;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Tallied outcome of all SET injections into one net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetSetResult {
    net: NetId,
    class_counts: Vec<usize>,
}

impl NetSetResult {
    /// Build a result from the per-class tallies (indexed like
    /// [`FailureClass::ALL`]).
    pub fn new(net: NetId, class_counts: [usize; FailureClass::ALL.len()]) -> NetSetResult {
        NetSetResult {
            net,
            class_counts: class_counts.to_vec(),
        }
    }

    /// Target net.
    pub fn net(&self) -> NetId {
        self.net
    }

    /// Total injections performed.
    pub fn injections(&self) -> usize {
        self.class_counts.iter().sum()
    }

    /// Injections classified as functional failures.
    pub fn failures(&self) -> usize {
        crate::result::failures_in(&self.class_counts)
    }

    /// Tally for one class.
    pub fn count(&self, class: FailureClass) -> usize {
        self.class_counts[class.tally_index()]
    }

    /// Failure fraction for this net (the SET-level de-rating factor) —
    /// the same guarded division as the SEU
    /// [`FfCampaignResult::fdr`](crate::FfCampaignResult::fdr).
    pub fn derating(&self) -> f64 {
        failure_fraction(self.failures(), self.injections())
    }
}

/// Per-net SET de-rating factors of a (possibly partial) campaign — the
/// SET analogue of the SEU [`FdrTable`](crate::FdrTable).
///
/// Unlike flip-flops, targeted nets are sparse in net-id space (only
/// combinational op outputs are SET targets), so the table stores the
/// covered results sorted by net id instead of a dense vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetDeratingTable {
    results: Vec<NetSetResult>,
    injections_per_net: usize,
}

impl SetDeratingTable {
    /// Assemble a table from individual net results.
    ///
    /// # Panics
    ///
    /// Panics if two results target the same net.
    pub fn from_results(
        mut results: Vec<NetSetResult>,
        injections_per_net: usize,
    ) -> SetDeratingTable {
        results.sort_unstable_by_key(|r| r.net().index());
        for pair in results.windows(2) {
            assert!(
                pair[0].net() != pair[1].net(),
                "duplicate result for net {}",
                pair[0].net()
            );
        }
        SetDeratingTable {
            results,
            injections_per_net,
        }
    }

    /// Configured injections per net.
    pub fn injections_per_net(&self) -> usize {
        self.injections_per_net
    }

    /// Number of covered nets.
    pub fn num_nets(&self) -> usize {
        self.results.len()
    }

    /// De-rating factor of one net, if it was covered.
    pub fn derating(&self, net: NetId) -> Option<f64> {
        self.result(net).map(|r| r.derating())
    }

    /// Full result record of one net, if covered.
    pub fn result(&self, net: NetId) -> Option<&NetSetResult> {
        self.results
            .binary_search_by_key(&net.index(), |r| r.net().index())
            .ok()
            .map(|i| &self.results[i])
    }

    /// Iterate over covered nets, ascending by net id.
    pub fn covered(&self) -> impl Iterator<Item = &NetSetResult> {
        self.results.iter()
    }

    /// Average de-rating over covered nets — the circuit-level SET
    /// logical de-rating (assuming a uniform raw SET rate per net).
    pub fn circuit_derating(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.results.iter().map(|r| r.derating()).sum();
        sum / self.results.len() as f64
    }

    /// Total per-class tallies over covered nets.
    pub fn class_totals(&self) -> Vec<(FailureClass, usize)> {
        FailureClass::ALL
            .iter()
            .map(|&c| (c, self.covered().map(|r| r.count(c)).sum()))
            .collect()
    }

    /// Histogram of de-rating values over covered nets.
    pub fn histogram(&self, bins: usize) -> crate::FdrHistogram {
        crate::FdrHistogram::of(self.covered().map(|r| r.derating()), bins)
    }

    /// Render the table as CSV (`net,injections,failures,derating`).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("net,injections,failures,derating\n");
        for r in self.covered() {
            let _ = writeln!(
                out,
                "{},{},{},{:.6}",
                r.net(),
                r.injections(),
                r.failures(),
                r.derating()
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

    /// Load a table previously written by [`SetDeratingTable::save_json`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization failures.
    pub fn load_json(path: &Path) -> io::Result<SetDeratingTable> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::judge::OutputMismatchJudge;
    use crate::model::InjectionPoint;
    use ffr_netlist::NetlistBuilder;
    use ffr_sim::{CompiledCircuit, InputFrame, Stimulus, WatchList};

    struct AlwaysOn(u64);

    impl Stimulus for AlwaysOn {
        fn num_cycles(&self) -> u64 {
            self.0
        }

        fn drive(&self, _cycle: u64, frame: &mut InputFrame) {
            frame.set(0, true);
        }
    }

    /// Counter whose increment logic we can disturb, plus a masked branch
    /// where transients are logically de-rated away.
    fn circuit() -> (CompiledCircuit, ffr_netlist::NetId, ffr_netlist::NetId) {
        let mut b = NetlistBuilder::new("set_probe");
        let en = b.input("en", 1);
        let r = b.reg("count", 4);
        let next = b.inc(&r.q());
        b.connect_en(&r, &en, &next).unwrap();
        b.output("value", &r.q());
        // Masked net: xor of counter bits ANDed with constant zero.
        let parity = b.reduce_xor(&r.q());
        let zero = b.zero_bit();
        let masked = b.and(&parity, &zero);
        b.output("masked", &masked);
        let nl_next0 = next.net(0);
        let parity_net = parity.net(0);
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        (cc, nl_next0, parity_net)
    }

    #[test]
    fn latched_transient_fails_masked_transient_does_not() {
        let (cc, datapath_net, masked_net) = circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let stim = AlwaysOn(60);
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);
        let config = CampaignConfig::new(5..35).with_injections(30).with_seed(9);
        let run =
            |net| NetSetResult::new(net, campaign.run_point(InjectionPoint::Set(net), &config));

        // Transient on the increment output lands in the counter and is
        // visible at the outputs (the counter value jumps permanently).
        let live = run(datapath_net);
        assert!(
            live.derating() > 0.9,
            "datapath SET should fail: {}",
            live.derating()
        );
        // Transient on the masked parity net is logically de-rated: the
        // AND with 0 blocks it and nothing latches it.
        let masked = run(masked_net);
        assert_eq!(masked.failures(), 0, "masked SET must be benign");
        assert_eq!(masked.injections(), 30);
        assert_eq!(masked.derating(), 0.0);
    }

    #[test]
    fn set_table_over_all_comb_nets() {
        let (cc, datapath_net, masked_net) = circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let stim = AlwaysOn(60);
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);
        let config = CampaignConfig::new(5..35).with_injections(16).with_seed(2);

        let nets = cc.comb_output_nets();
        assert!(nets.contains(&datapath_net) && nets.contains(&masked_net));
        let run =
            |net| NetSetResult::new(net, campaign.run_point(InjectionPoint::Set(net), &config));
        let table = SetDeratingTable::from_results(nets.iter().map(|&n| run(n)).collect(), 16);
        assert_eq!(table.num_nets(), nets.len());
        assert_eq!(table.injections_per_net(), 16);
        assert_eq!(table.derating(masked_net), Some(0.0));
        assert!(table.derating(datapath_net).unwrap() > 0.9);
        let c = table.circuit_derating();
        assert!(c > 0.0 && c < 1.0, "mixed population: {c}");

        // CSV and JSON round trips.
        let csv = table.to_csv();
        assert!(csv.starts_with("net,injections,failures,derating"));
        assert_eq!(csv.lines().count(), nets.len() + 1);
        let dir = std::env::temp_dir().join(format!("ffr_set_table_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        table.save_json(&path).unwrap();
        assert_eq!(SetDeratingTable::load_json(&path).unwrap(), table);
    }

    #[test]
    fn derating_shares_the_guarded_division() {
        let empty = NetSetResult::new(
            ffr_netlist::NetId::from_index(0),
            [0; FailureClass::ALL.len()],
        );
        assert_eq!(empty.derating(), 0.0, "division-by-zero guard");
        assert_eq!(failure_fraction(0, 0), 0.0);
        assert_eq!(failure_fraction(3, 12), 0.25);
    }

    #[test]
    #[should_panic(expected = "duplicate result")]
    fn duplicate_net_panics() {
        let r = |n| {
            NetSetResult::new(
                ffr_netlist::NetId::from_index(n),
                [0; FailureClass::ALL.len()],
            )
        };
        let _ = SetDeratingTable::from_results(vec![r(3), r(3)], 4);
    }
}
