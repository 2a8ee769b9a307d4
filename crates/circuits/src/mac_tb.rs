//! The MAC packet-loopback testbench: stimulus, packet extraction and the
//! paper's failure classification.
//!
//! Mirrors §IV of the paper: "the corresponding testbench writes several
//! packets to the 10GE MAC transmit packet interface […] the XGMII TX
//! interface is looped-back to the XGMII RX interface […] eventually the
//! testbench reads frames from the packet receive interface"; a
//! fault-injection run is a functional failure "when the final received
//! packages contained payload corruption or the circuit stopped sending or
//! receiving data".

use crate::mac10ge::{Mac10ge, Mac10geConfig};
use ffr_fault::{FailureClass, FailureJudge};
use ffr_netlist::Netlist;
use ffr_sim::{CompiledCircuit, GoldenRun, InputFrame, LaneView, Stimulus, WatchList};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Packet traffic parameters for [`MacTestbench`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Number of packets written to the TX interface.
    pub num_packets: usize,
    /// Minimum payload length in words (must be at least `crc_words + 1`).
    pub min_payload: usize,
    /// Maximum payload length in words.
    pub max_payload: usize,
    /// Minimum idle gap between packets, in cycles.
    pub gap_min: usize,
    /// Maximum idle gap between packets, in cycles.
    pub gap_max: usize,
    /// Cycles the synchronous reset is held at the beginning.
    pub reset_cycles: u64,
    /// Drain cycles appended after the last packet.
    pub tail_cycles: u64,
    /// Seed for payload and gap randomisation.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            num_packets: 12,
            min_payload: 4,
            max_payload: 24,
            gap_min: 8,
            gap_max: 18,
            reset_cycles: 4,
            tail_cycles: 120,
            seed: 0xF00D,
        }
    }
}

impl TrafficConfig {
    /// Small traffic load for fast unit tests.
    pub fn small() -> TrafficConfig {
        TrafficConfig {
            num_packets: 4,
            min_payload: 3,
            max_payload: 8,
            tail_cycles: 90,
            ..TrafficConfig::default()
        }
    }
}

/// A packet as seen on the TX or RX packet interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Payload words (LSB-aligned in `data_width` bits).
    pub words: Vec<u64>,
    /// RX only: the frame arrived with a CRC error.
    pub error: bool,
    /// RX only: cycle at which the end-of-packet entry was delivered.
    pub eop_cycle: u64,
}

impl Packet {
    fn sent(words: Vec<u64>) -> Packet {
        Packet {
            words,
            error: false,
            eop_cycle: 0,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TxCmd {
    valid: bool,
    sop: bool,
    eop: bool,
    data: u64,
}

/// Open-loop packet stimulus for [`Mac10ge`] plus the golden traffic
/// description.
#[derive(Debug, Clone)]
pub struct MacTestbench {
    schedule: Vec<TxCmd>,
    packets: Vec<Packet>,
    num_cycles: u64,
    window: std::ops::Range<u64>,
    // Resolved input indices.
    in_rst: usize,
    in_tx_valid: usize,
    in_tx_sop: usize,
    in_tx_eop: usize,
    in_tx_data: usize,
    in_rx_ready: usize,
    data_width: usize,
    reset_cycles: u64,
}

impl MacTestbench {
    /// Build the stimulus for a MAC netlist (resolves the port indices) and
    /// precompute the packet schedule.
    ///
    /// # Panics
    ///
    /// Panics if the netlist lacks the MAC's ports or the traffic
    /// configuration is inconsistent.
    pub fn new(
        netlist: &Netlist,
        mac_cfg: &Mac10geConfig,
        traffic: &TrafficConfig,
    ) -> MacTestbench {
        assert!(
            traffic.min_payload > mac_cfg.crc_words(),
            "payload must exceed the CRC pipe depth"
        );
        assert!(traffic.min_payload <= traffic.max_payload);
        assert!(traffic.gap_min <= traffic.gap_max);
        let w = mac_cfg.data_width;
        let idx = |name: &str| {
            netlist
                .input_index(name)
                .unwrap_or_else(|| panic!("MAC netlist has no input `{name}`"))
        };
        let in_rst = idx("rst");
        let in_tx_valid = idx("tx_valid");
        let in_tx_sop = idx("tx_sop");
        let in_tx_eop = idx("tx_eop");
        let in_tx_data = idx(&format!("tx_data[{}]", 0));
        let in_rx_ready = idx("rx_ready");

        // Generate packets and the cycle-accurate schedule.
        let mut rng = ChaCha8Rng::seed_from_u64(traffic.seed);
        let mut schedule: Vec<TxCmd> = Vec::new();
        let mut packets = Vec::with_capacity(traffic.num_packets);
        let warmup = traffic.reset_cycles as usize + 4;
        schedule.resize(warmup, TxCmd::default());
        let word_mask = if w == 64 { !0u64 } else { (1u64 << w) - 1 };
        let first_send = schedule.len() as u64;
        for pkt_idx in 0..traffic.num_packets {
            let len = rng.gen_range(traffic.min_payload..=traffic.max_payload);
            let mut words = Vec::with_capacity(len);
            // First word identifies the packet and never collides with the
            // pause magic.
            words.push((0xA000 + pkt_idx as u64) & word_mask);
            for _ in 1..len {
                words.push(rng.gen::<u64>() & word_mask);
            }
            for (i, &word) in words.iter().enumerate() {
                schedule.push(TxCmd {
                    valid: true,
                    sop: i == 0,
                    eop: i == len - 1,
                    data: word,
                });
            }
            packets.push(Packet::sent(words));
            let gap = rng.gen_range(traffic.gap_min..=traffic.gap_max);
            schedule.extend(std::iter::repeat_n(TxCmd::default(), gap));
        }
        let last_send = schedule.len() as u64;
        let num_cycles = last_send + traffic.tail_cycles;
        // The paper injects "during the active phase of the simulation,
        // when packets are sent and received": from the first TX word to
        // shortly after the last word has drained through the loopback.
        let window = first_send..(last_send + 40).min(num_cycles);

        MacTestbench {
            schedule,
            packets,
            num_cycles,
            window,
            in_rst,
            in_tx_valid,
            in_tx_sop,
            in_tx_eop,
            in_tx_data,
            in_rx_ready,
            data_width: w,
            reset_cycles: traffic.reset_cycles,
        }
    }

    /// Convenience: build MAC + testbench + watch list + golden run in one
    /// call (the common setup of every experiment).
    pub fn setup(
        mac_cfg: Mac10geConfig,
        traffic: &TrafficConfig,
    ) -> (CompiledCircuit, MacTestbench, WatchList, PacketExtractor) {
        let mac = Mac10ge::build(mac_cfg.clone());
        let cc = CompiledCircuit::compile(mac.into_netlist()).expect("MAC has no comb cycles");
        let tb = MacTestbench::new(cc.netlist(), &mac_cfg, traffic);
        let (watch, extractor) = PacketExtractor::watch(&cc, &mac_cfg);
        (cc, tb, watch, extractor)
    }

    /// Packets written to the TX interface (the expected RX traffic).
    pub fn sent_packets(&self) -> &[Packet] {
        &self.packets
    }

    /// The paper's "active phase" injection window.
    pub fn injection_window(&self) -> std::ops::Range<u64> {
        self.window.clone()
    }
}

impl Stimulus for MacTestbench {
    fn num_cycles(&self) -> u64 {
        self.num_cycles
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        frame.set(self.in_rst, cycle < self.reset_cycles);
        frame.set(self.in_rx_ready, true);
        let cmd = self
            .schedule
            .get(cycle as usize)
            .copied()
            .unwrap_or_default();
        frame.set(self.in_tx_valid, cmd.valid);
        frame.set(self.in_tx_sop, cmd.sop);
        frame.set(self.in_tx_eop, cmd.eop);
        frame.set_bus(self.in_tx_data, self.data_width, cmd.data);
    }
}

/// Decodes the RX packet interface from a recorded output trace.
#[derive(Debug, Clone)]
pub struct PacketExtractor {
    w_valid: usize,
    w_sop: usize,
    w_eop: usize,
    w_err: usize,
    w_data: Vec<usize>,
}

impl PacketExtractor {
    /// Build the watch list covering the RX packet interface and the
    /// matching extractor.
    pub fn watch(cc: &CompiledCircuit, mac_cfg: &Mac10geConfig) -> (WatchList, PacketExtractor) {
        let mut watch = WatchList::empty();
        let w_valid = watch.push_bus(cc, "rx_valid", 1)[0];
        let w_sop = watch.push_bus(cc, "rx_sop", 1)[0];
        let w_eop = watch.push_bus(cc, "rx_eop", 1)[0];
        let w_err = watch.push_bus(cc, "rx_err", 1)[0];
        let w_data = watch.push_bus(cc, "rx_data", mac_cfg.data_width);
        (
            watch,
            PacketExtractor {
                w_valid,
                w_sop,
                w_eop,
                w_err,
                w_data,
            },
        )
    }

    /// Walk a scenario's RX interface and reassemble the received packets.
    pub fn extract(&self, view: &LaneView<'_>) -> Vec<Packet> {
        let mut packets = Vec::new();
        let mut current: Option<Packet> = None;
        for cycle in 0..view.num_cycles() {
            if !view.bit(self.w_valid, cycle) {
                continue;
            }
            let sop = view.bit(self.w_sop, cycle);
            let eop = view.bit(self.w_eop, cycle);
            let err = view.bit(self.w_err, cycle);
            if eop {
                let mut pkt = current.take().unwrap_or(Packet {
                    words: Vec::new(),
                    error: false,
                    eop_cycle: 0,
                });
                pkt.error |= err;
                pkt.eop_cycle = cycle;
                packets.push(pkt);
            } else {
                if sop || current.is_none() {
                    // A sop mid-packet abandons the previous fragment —
                    // it can only happen under fault injection.
                    if let Some(frag) = current.take() {
                        let mut frag = frag;
                        frag.error = true;
                        frag.eop_cycle = cycle;
                        packets.push(frag);
                    }
                    current = Some(Packet {
                        words: Vec::new(),
                        error: false,
                        eop_cycle: 0,
                    });
                }
                let word = view.value(&self.w_data, cycle);
                if let Some(pkt) = current.as_mut() {
                    pkt.words.push(word);
                }
            }
        }
        if let Some(mut frag) = current.take() {
            // Truncated frame at end of simulation.
            frag.error = true;
            frag.eop_cycle = view.num_cycles();
            packets.push(frag);
        }
        packets
    }
}

/// The paper's failure classifier for the MAC (§IV-A).
///
/// Implements [`FailureJudge`]: compares the packets received in a fault
/// scenario against the golden reception, reporting payload corruption,
/// frame loss or a traffic hang.
#[derive(Debug, Clone)]
pub struct MacJudge {
    extractor: PacketExtractor,
    golden_packets: Vec<Packet>,
}

impl MacJudge {
    /// Build the judge from the golden run.
    ///
    /// # Panics
    ///
    /// Panics if the golden run itself contains errored frames — that
    /// indicates a broken testbench, not a fault effect.
    pub fn new(extractor: PacketExtractor, golden: &GoldenRun) -> MacJudge {
        let golden_view = LaneView::golden(&golden.trace);
        let golden_packets = extractor.extract(&golden_view);
        assert!(
            golden_packets.iter().all(|p| !p.error),
            "golden run received errored frames"
        );
        MacJudge {
            extractor,
            golden_packets,
        }
    }

    /// Packets received in the golden run.
    pub fn golden_packets(&self) -> &[Packet] {
        &self.golden_packets
    }
}

impl FailureJudge for MacJudge {
    fn classify(
        &self,
        _golden: &LaneView<'_>,
        faulty: &LaneView<'_>,
        inject_cycle: u64,
    ) -> FailureClass {
        let got = self.extractor.extract(faulty);
        let want = &self.golden_packets;

        // Greedy subsequence match of the intact received frames against
        // the expected traffic. Packet payloads start with a unique
        // per-packet identifier, so exact word equality is a reliable
        // match criterion.
        let any_error = got.iter().any(|p| p.error);
        let mut wi = 0usize;
        let mut matched = 0usize;
        let mut spurious = 0usize;
        for g in got.iter().filter(|p| !p.error) {
            match want[wi..].iter().position(|w| w.words == g.words) {
                Some(k) => {
                    wi += k + 1;
                    matched += 1;
                }
                None => spurious += 1,
            }
        }

        if spurious > 0 {
            // A frame arrived whose payload matches nothing we sent:
            // corrupted or fabricated data reached the user.
            return FailureClass::PayloadCorruption;
        }
        if matched < want.len() {
            // Frames are missing. If reception stopped exactly at the
            // injection point (nothing arrived afterwards), the circuit
            // hung; otherwise individual frames were lost.
            let before_inject = want.iter().filter(|p| p.eop_cycle < inject_cycle).count();
            return if matched <= before_inject {
                FailureClass::Hang
            } else {
                FailureClass::FrameLoss
            };
        }
        if any_error {
            // All expected payloads arrived, but the receiver also
            // flagged damaged frame(s).
            return FailureClass::FrameLoss;
        }
        FailureClass::Benign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_fault::{Campaign, CampaignConfig, FfCampaignResult, InjectionPoint};
    use ffr_netlist::FfId;

    /// FDR of one flip-flop under `config`'s planned injections.
    fn fdr(
        campaign: &Campaign<'_, MacTestbench, MacJudge>,
        ff: FfId,
        config: &CampaignConfig,
    ) -> f64 {
        FfCampaignResult::new(ff, campaign.run_point(InjectionPoint::Seu(ff), config)).fdr()
    }

    fn setup_small() -> (CompiledCircuit, MacTestbench, WatchList, PacketExtractor) {
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small())
    }

    #[test]
    fn golden_run_receives_all_packets() {
        let (cc, tb, watch, extractor) = setup_small();
        let golden = GoldenRun::capture(&cc, &tb, &watch);
        let view = LaneView::golden(&golden.trace);
        let got = extractor.extract(&view);
        assert_eq!(got.len(), tb.sent_packets().len(), "all packets received");
        for (g, s) in got.iter().zip(tb.sent_packets()) {
            assert!(!g.error, "golden frame errored");
            assert_eq!(g.words, s.words, "payload intact");
        }
    }

    #[test]
    fn golden_run_receives_all_packets_default_config() {
        let (cc, tb, watch, extractor) =
            MacTestbench::setup(Mac10geConfig::default(), &TrafficConfig::default());
        let golden = GoldenRun::capture(&cc, &tb, &watch);
        let got = extractor.extract(&LaneView::golden(&golden.trace));
        assert_eq!(got.len(), tb.sent_packets().len());
        for (g, s) in got.iter().zip(tb.sent_packets()) {
            assert!(!g.error);
            assert_eq!(g.words, s.words);
        }
    }

    #[test]
    fn judge_classifies_golden_as_benign() {
        let (cc, tb, watch, extractor) = setup_small();
        let golden = GoldenRun::capture(&cc, &tb, &watch);
        let judge = MacJudge::new(extractor, &golden);
        let view = LaneView::golden(&golden.trace);
        assert_eq!(
            judge.classify(&view, &view, tb.injection_window().start),
            FailureClass::Benign
        );
    }

    #[test]
    fn fifo_data_faults_corrupt_payload() {
        let (cc, tb, watch, extractor) = setup_small();
        let campaign_judge = {
            let golden = GoldenRun::capture(&cc, &tb, &watch);
            MacJudge::new(extractor, &golden)
        };
        let campaign = Campaign::new(&cc, &tb, &watch, &campaign_judge);
        let config = CampaignConfig::new(tb.injection_window())
            .with_injections(40)
            .with_seed(1);

        // A TX FIFO payload bit: vulnerable while occupied.
        let fifo_ff = cc
            .netlist()
            .find_ff("tx_fifo_mem0_reg[3]")
            .expect("fifo bit exists");
        let r = fdr(&campaign, fifo_ff, &config);
        assert!(
            r > 0.0,
            "occupied FIFO bits must sometimes corrupt payloads"
        );
        assert!(r < 1.0, "unoccupied windows must be benign");

        // A benign status counter bit.
        let benign_ff = cc
            .netlist()
            .find_ff("uptime_reg[5]")
            .expect("uptime bit exists");
        let r = fdr(&campaign, benign_ff, &config);
        assert_eq!(r, 0.0, "uptime is functionally inert");
    }

    #[test]
    fn state_machine_faults_cause_failures() {
        let (cc, tb, watch, extractor) = setup_small();
        let golden = GoldenRun::capture(&cc, &tb, &watch);
        let judge = MacJudge::new(extractor, &golden);
        let campaign = Campaign::new(&cc, &tb, &watch, &judge);
        let config = CampaignConfig::new(tb.injection_window())
            .with_injections(40)
            .with_seed(2);
        let state_ff = cc.netlist().find_ff("tx_state_reg[0]").expect("state bit");
        let r = fdr(&campaign, state_ff, &config);
        assert!(r > 0.1, "TX FSM upsets must disrupt traffic, fdr = {}", r);
    }

    #[test]
    fn pause_timer_msb_hangs_traffic() {
        let (cc, tb, watch, extractor) = setup_small();
        let golden = GoldenRun::capture(&cc, &tb, &watch);
        let judge = MacJudge::new(extractor, &golden);
        let campaign = Campaign::new(&cc, &tb, &watch, &judge);
        let config = CampaignConfig::new(tb.injection_window())
            .with_injections(30)
            .with_seed(3);
        let msb = cc
            .netlist()
            .find_ff("pause_timer_reg[15]")
            .expect("pause msb");
        let lsb = cc
            .netlist()
            .find_ff("pause_timer_reg[0]")
            .expect("pause lsb");
        let r_msb = fdr(&campaign, msb, &config);
        let r_lsb = fdr(&campaign, lsb, &config);
        assert!(
            r_msb >= r_lsb,
            "stalling 32k cycles must be at least as harmful as 1 cycle: msb {} lsb {}",
            r_msb,
            r_lsb
        );
        assert!(r_msb > 0.3, "pause MSB should hang traffic");
    }
}
