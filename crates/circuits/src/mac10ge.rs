//! A parameterized 10GE-MAC-like gate-level design.
//!
//! This is the workspace's substitute for the OpenCores 10GE MAC the paper
//! evaluates (§IV): a Media-Access-Controller-shaped circuit with
//!
//! * a **TX path**: packet write interface → synchronous TX FIFO → framing
//!   FSM (start word, payload, CRC-32, terminate word, inter-frame gap) →
//!   registered XGMII-style word interface (`data + ctl`),
//! * an **RX path**: registered XGMII input → frame parser with a
//!   CRC-delay pipe → CRC check → RX FIFO → packet read interface,
//! * an optional internal **loopback** (two pipeline stages standing in for
//!   the PHY), which is what the paper's testbench does externally,
//! * **control & status**: frame/octet/error counters, frame-length
//!   min/max tracking, a MAC address filter (disabled at reset), a pause
//!   timer and configuration registers.
//!
//! The default configuration elaborates to the paper's flip-flop count
//! (1054). The mixture of FF populations — FIFO payload bits whose
//! vulnerability tracks occupancy, one-hot/binary FSM state bits that can
//! wedge traffic, CRC state, and functionally inert status counters — is
//! exactly the heterogeneity the ML features are supposed to learn.

use ffr_netlist::{Bus, Netlist, NetlistBuilder, RegHandle};
use serde::{Deserialize, Serialize};

use crate::components::{counter, crc32_update};

/// Static parameters of [`Mac10ge`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mac10geConfig {
    /// XGMII word width in bits; must divide 32 and be a multiple of 8
    /// (16 or 32).
    pub data_width: usize,
    /// log2 of the FIFO depth (both TX and RX FIFOs).
    pub fifo_addr_bits: usize,
    /// Wire the XGMII TX interface back into RX through two pipeline
    /// registers (the paper's testbench loopback, moved inside the netlist
    /// so the stimulus stays open-loop).
    pub loopback: bool,
    /// Extra benign diagnostic shift-register bits, used to pin the total
    /// flip-flop count (the default lands on the paper's 1054).
    pub pad_ffs: usize,
}

impl Default for Mac10geConfig {
    fn default() -> Self {
        Mac10geConfig {
            data_width: 16,
            fifo_addr_bits: 4,
            loopback: true,
            pad_ffs: PAD_FFS_DEFAULT,
        }
    }
}

/// The unpadded default design happens to elaborate to exactly the
/// paper's 1054 FFs, so no padding is needed; the knob remains for
/// experiments that want to scale the benign population.
pub(crate) const PAD_FFS_DEFAULT: usize = 0;

impl Mac10geConfig {
    /// A reduced configuration (8-entry FIFOs, no padding) for fast tests.
    pub fn small() -> Mac10geConfig {
        Mac10geConfig {
            data_width: 16,
            fifo_addr_bits: 3,
            loopback: true,
            pad_ffs: 0,
        }
    }

    /// Number of CRC words per frame (`32 / data_width`).
    pub(crate) fn crc_words(&self) -> usize {
        32 / self.data_width
    }

    /// Idle control word (`0x07` in every byte lane).
    pub(crate) fn idle_word(&self) -> u64 {
        byte_repeat(0x07, self.data_width)
    }

    /// Start-of-frame control word (`0xFB` then preamble bytes `0x55`).
    pub(crate) fn start_word(&self) -> u64 {
        0xFB | (byte_repeat(0x55, self.data_width) & !0xFFu64)
    }

    /// End-of-frame control word (`0xFD` then idle bytes).
    pub(crate) fn term_word(&self) -> u64 {
        0xFD | (byte_repeat(0x07, self.data_width) & !0xFFu64)
    }

    /// First payload word that (if it started a frame) would load the
    /// pause timer. The testbench never generates it.
    pub(crate) fn pause_magic(&self) -> u64 {
        0x0808
    }

    fn validate(&self) {
        assert!(
            self.data_width == 16 || self.data_width == 32,
            "data_width must be 16 or 32"
        );
        assert!(
            (2..=8).contains(&self.fifo_addr_bits),
            "fifo_addr_bits out of range"
        );
    }
}

fn byte_repeat(byte: u8, width: usize) -> u64 {
    let mut w = 0u64;
    for i in 0..(width / 8) {
        w |= (byte as u64) << (8 * i);
    }
    w
}

/// The elaborated MAC: its gate-level netlist plus the configuration it
/// was built from.
#[derive(Clone, Debug)]
pub struct Mac10ge {
    netlist: Netlist,
    config: Mac10geConfig,
}

// TX FSM state encoding (3 bits). CRC states are consecutive from CRC0.
const ST_IDLE: u64 = 0;
const ST_START: u64 = 1;
const ST_DATA: u64 = 2;
const ST_CRC0: u64 = 3;
// ST_TERM = 3 + crc_words, ST_IFG = 4 + crc_words.

impl Mac10ge {
    /// Elaborate the MAC for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`Mac10geConfig`]).
    pub fn build(config: Mac10geConfig) -> Mac10ge {
        config.validate();
        let netlist = elaborate(&config);
        Mac10ge { netlist, config }
    }

    /// The elaborated gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consume the wrapper and return the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// The configuration the MAC was elaborated with.
    pub fn config(&self) -> &Mac10geConfig {
        &self.config
    }
}

#[allow(clippy::too_many_lines)] // the module is one structural elaboration
fn elaborate(cfg: &Mac10geConfig) -> Netlist {
    let w = cfg.data_width;
    let crc_words = cfg.crc_words();
    let st_term = ST_CRC0 + crc_words as u64;
    let st_ifg = st_term + 1;

    let mut b = NetlistBuilder::new("mac10ge");

    // ------------------------------------------------------------------
    // Ports
    // ------------------------------------------------------------------
    let rst = b.input("rst", 1);
    let tx_valid = b.input("tx_valid", 1);
    let tx_sop = b.input("tx_sop", 1);
    let tx_eop = b.input("tx_eop", 1);
    let tx_data = b.input("tx_data", w);
    let rx_ready = b.input("rx_ready", 1);
    let ext_rx = if cfg.loopback {
        None
    } else {
        let d = b.input("xgmii_rxd", w);
        let c = b.input("xgmii_rxc", 1);
        Some((d, c))
    };

    // ------------------------------------------------------------------
    // TX FIFO: [data | sop | eop]
    // ------------------------------------------------------------------
    let tx_entry = tx_data.concat(&tx_sop).concat(&tx_eop);
    // rd_en is driven by the TX FSM below; use a two-phase wire: we build
    // the FSM first as registers, then the FIFO, feeding FSM outputs in.
    // To avoid a forward reference we declare the state register here.
    let state = b.reg("tx_state", 3);
    let in_idle = b.eq_const(&state.q(), ST_IDLE);
    let in_start = b.eq_const(&state.q(), ST_START);
    let in_data = b.eq_const(&state.q(), ST_DATA);
    let in_term = b.eq_const(&state.q(), st_term);

    // The TX FIFO's read-enable depends on its own head flags (garbage
    // drop in IDLE, payload pop in DATA), so the pointer is attached after
    // construction via the late-rd variant.
    let tx_fifo =
        sync_fifo_with_late_rd(&mut b, "tx_fifo", cfg.fifo_addr_bits, &tx_valid, &tx_entry);
    let head_data = tx_fifo.rd_data.slice(0..w);
    let head_sop = tx_fifo.rd_data.bit(w);
    let head_eop = tx_fifo.rd_data.bit(w + 1);
    let tx_not_empty = b.not(&tx_fifo.empty);
    let n_head_sop = b.not(&head_sop);
    let idle_garbage = b.and(&in_idle, &tx_not_empty);
    let idle_garbage = b.and(&idle_garbage, &n_head_sop);
    let data_pop = b.and(&in_data, &tx_not_empty);
    let tx_rd_en = b.or(&idle_garbage, &data_pop);
    tx_fifo.connect_rd_en(&mut b, &tx_rd_en);

    let tx_ready = b.not(&tx_fifo.full);

    // Pause timer: loaded from the first word of a received pause frame
    // (never triggered by the testbench), counts down, stalls TX starts.
    let pause_timer = b.reg("pause_timer", 16);
    let pause_nz = b.reduce_or(&pause_timer.q());

    // TX FSM transitions.
    let can_start = b.and(&tx_not_empty, &head_sop);
    let n_pause = b.not(&pause_nz);
    let can_start = b.and(&can_start, &n_pause);
    let st_idle_c = b.lit(3, ST_IDLE);
    let st_start_c = b.lit(3, ST_START);
    let st_data_c = b.lit(3, ST_DATA);
    let st_term_c = b.lit(3, st_term);
    let st_ifg_c = b.lit(3, st_ifg);

    // IFG countdown, loaded from the cfg_ifg register at TERM.
    let cfg_ifg = hold_reg(&mut b, "cfg_ifg", 4, 3);
    let ifg_cnt = b.reg("ifg_cnt", 4);
    let ifg_zero = b.eq_const(&ifg_cnt.q(), 0);
    let ifg_dec = b.add_const(&ifg_cnt.q(), 0b1111);
    let ifg_next_run = b.mux(&ifg_zero, &ifg_dec, &ifg_cnt.q());
    let ifg_next = b.mux(&in_term, &ifg_next_run, &cfg_ifg.q());
    b.connect(&ifg_cnt, &ifg_next).expect("ifg_cnt");

    let mut next_by_state: Vec<Bus> = Vec::with_capacity(8);
    // IDLE
    let idle_next = b.mux(&can_start, &st_idle_c, &st_start_c);
    next_by_state.push(idle_next);
    // START
    next_by_state.push(st_data_c.clone());
    // DATA
    let eop_pop = b.and(&data_pop, &head_eop);
    let crc0_c = b.lit(3, ST_CRC0);
    let data_next = b.mux(&eop_pop, &st_data_c, &crc0_c);
    next_by_state.push(data_next);
    // CRC words
    for j in 0..crc_words {
        let after = if j + 1 < crc_words {
            b.lit(3, ST_CRC0 + j as u64 + 1)
        } else {
            st_term_c.clone()
        };
        next_by_state.push(after);
    }
    // TERM
    next_by_state.push(st_ifg_c.clone());
    // IFG
    let ifg_next_state = b.mux(&ifg_zero, &st_ifg_c, &st_idle_c);
    next_by_state.push(ifg_next_state);
    while next_by_state.len() < 8 {
        next_by_state.push(st_idle_c.clone()); // unreachable encodings recover
    }
    let state_next = b.select(&state.q(), &next_by_state);
    b.connect_en_rst(&state, None, Some((&rst, ST_IDLE)), &state_next)
        .expect("tx_state");

    // TX CRC.
    let tx_crc = b.reg("tx_crc", 32);
    let tx_crc_upd = crc32_update(&mut b, &tx_crc.q(), &head_data);
    let crc_init = b.lit(32, 0xFFFF_FFFF);
    let crc_after_pop = b.mux(&data_pop, &tx_crc.q(), &tx_crc_upd);
    let tx_crc_next = b.mux(&in_start, &crc_after_pop, &crc_init);
    b.connect(&tx_crc, &tx_crc_next).expect("tx_crc");

    // XGMII TX word selection, registered.
    let idle_c = b.lit(w, cfg.idle_word());
    let start_c = b.lit(w, cfg.start_word());
    let term_c = b.lit(w, cfg.term_word());
    let mut txd_options: Vec<Bus> = Vec::with_capacity(8);
    let mut txc_options: Vec<Bus> = Vec::with_capacity(8);
    let one = b.one_bit();
    let zero = b.zero_bit();
    // IDLE
    txd_options.push(idle_c.clone());
    txc_options.push(one.clone());
    // START
    txd_options.push(start_c.clone());
    txc_options.push(one.clone());
    // DATA: payload when popping, idle (underrun) otherwise.
    let data_or_idle = b.mux(&data_pop, &idle_c, &head_data);
    let ctl_data = b.not(&data_pop);
    txd_options.push(data_or_idle);
    txc_options.push(ctl_data);
    // CRC words
    for j in 0..crc_words {
        txd_options.push(tx_crc.q().slice(j * w..(j + 1) * w));
        txc_options.push(zero.clone());
    }
    // TERM
    txd_options.push(term_c.clone());
    txc_options.push(one.clone());
    // IFG
    txd_options.push(idle_c.clone());
    txc_options.push(one.clone());
    while txd_options.len() < 8 {
        txd_options.push(idle_c.clone());
        txc_options.push(one.clone());
    }
    let txd_sel = b.select(&state.q(), &txd_options);
    let txc_sel = b.select(&state.q(), &txc_options);
    let txd_r = b.reg("xgmii_txd_r", w);
    b.connect(&txd_r, &txd_sel).expect("txd_r");
    let txc_r = b.reg_init("xgmii_txc_r", 1, 1);
    b.connect(&txc_r, &txc_sel).expect("txc_r");

    // ------------------------------------------------------------------
    // Loopback / external RX source, registered input stage.
    // ------------------------------------------------------------------
    let (rx_src_d, rx_src_c) = if let Some((d, c)) = ext_rx {
        (d, c)
    } else {
        let lb1d = b.reg("lb1_d", w);
        b.connect(&lb1d, &txd_r.q()).expect("lb1d");
        let lb1c = b.reg_init("lb1_c", 1, 1);
        b.connect(&lb1c, &txc_r.q()).expect("lb1c");
        let lb2d = b.reg("lb2_d", w);
        b.connect(&lb2d, &lb1d.q()).expect("lb2d");
        let lb2c = b.reg_init("lb2_c", 1, 1);
        b.connect(&lb2c, &lb1c.q()).expect("lb2c");
        (lb2d.q(), lb2c.q())
    };
    let rxd_r = b.reg("rxd_r", w);
    b.connect(&rxd_r, &rx_src_d).expect("rxd_r");
    let rxc_r = b.reg_init("rxc_r", 1, 1);
    b.connect(&rxc_r, &rx_src_c).expect("rxc_r");

    // ------------------------------------------------------------------
    // RX frame parser
    // ------------------------------------------------------------------
    let start_det_w = b.eq_const(&rxd_r.q(), cfg.start_word());
    let start_det = b.and(&rxc_r.q(), &start_det_w);
    let term_det_w = b.eq_const(&rxd_r.q(), cfg.term_word());
    let term_det = b.and(&rxc_r.q(), &term_det_w);
    let data_word = b.not(&rxc_r.q());

    let rx_active = b.reg("rx_active", 1);
    let end_seen = b.and(&rx_active.q(), &term_det);
    let n_end = b.not(&end_seen);
    let active_keep = b.and(&rx_active.q(), &n_end);
    let active_next = b.or(&start_det, &active_keep);
    b.connect_en_rst(&rx_active, None, Some((&rst, 0)), &active_next)
        .expect("rx_active");

    let shift_en = b.and(&rx_active.q(), &data_word);

    // CRC-delay pipe of depth crc_words (+ valid bits).
    let mut pipe_regs: Vec<RegHandle> = Vec::with_capacity(crc_words);
    let mut pipe_valid: Vec<RegHandle> = Vec::with_capacity(crc_words);
    let mut prev_d = rxd_r.q();
    let mut prev_v = one.clone();
    for j in 0..crc_words {
        let pr = b.reg(&format!("rx_pipe{j}"), w);
        b.connect_en(&pr, &shift_en, &prev_d).expect("rx_pipe");
        let pv = b.reg(&format!("rx_pipe{j}_v"), 1);
        b.connect_en_rst(&pv, Some(&shift_en), Some((&start_det, 0)), &prev_v)
            .expect("rx_pipe_v");
        prev_d = pr.q();
        prev_v = pv.q();
        pipe_regs.push(pr);
        pipe_valid.push(pv);
    }
    let exit_data = pipe_regs.last().expect("crc_words >= 1").q();
    let exit_valid = pipe_valid.last().expect("crc_words >= 1").q();
    let payload_shift = b.and(&shift_en, &exit_valid);

    // Address filter: compares the first payload word of a frame against
    // the low word of the configured MAC address; disabled at reset.
    let mac_addr = hold_reg(&mut b, "cfg_mac_addr", 48, 0x0011_2233_4455);
    let filter_en = hold_reg(&mut b, "cfg_filter_en", 1, 0);
    let started = b.reg("rx_started", 1);
    let addr_word = mac_addr.q().slice(0..w);
    let addr_match = b.eq(&exit_data, &addr_word);
    let addr_mismatch = b.not(&addr_match);
    let n_started = b.not(&started.q());
    let first_payload = b.and(&payload_shift, &n_started);
    let drop_now = b.and(&first_payload, &filter_en.q());
    let drop_now = b.and(&drop_now, &addr_mismatch);
    let dropping = b.reg("rx_dropping", 1);
    let drop_keep = b.or(&dropping.q(), &drop_now);
    let drop_next = b.mux(&start_det, &drop_keep, &zero);
    b.connect_en_rst(&dropping, None, Some((&rst, 0)), &drop_next)
        .expect("rx_dropping");
    let n_drop_now = b.not(&drop_now);
    let n_dropping = b.not(&dropping.q());
    let pass = b.and(&n_drop_now, &n_dropping);

    let started_set = b.or(&started.q(), &payload_shift);
    let started_next = b.mux(&start_det, &started_set, &zero);
    b.connect_en_rst(&started, None, Some((&rst, 0)), &started_next)
        .expect("rx_started");

    // First payload word capture (pause-frame detection).
    let first_word = b.reg("rx_first_word", w);
    b.connect_en(&first_word, &first_payload, &exit_data)
        .expect("rx_first_word");

    // RX CRC over payload words.
    let rx_crc = b.reg("rx_crc", 32);
    let rx_crc_upd = crc32_update(&mut b, &rx_crc.q(), &exit_data);
    let rx_crc_run = b.mux(&payload_shift, &rx_crc.q(), &rx_crc_upd);
    let rx_crc_next = b.mux(&start_det, &rx_crc_run, &crc_init);
    b.connect(&rx_crc, &rx_crc_next).expect("rx_crc");

    // CRC check at TERM: computed CRC vs the FCS words still in the pipe.
    let mut crc_ok = one.clone();
    for j in 0..crc_words {
        let expect = rx_crc.q().slice(j * w..(j + 1) * w);
        let got = pipe_regs[crc_words - 1 - j].q();
        let eq = b.eq(&expect, &got);
        crc_ok = b.and(&crc_ok, &eq);
        let v = pipe_valid[crc_words - 1 - j].q();
        crc_ok = b.and(&crc_ok, &v);
    }
    let crc_bad = b.not(&crc_ok);

    // Frame length accounting.
    let rx_len = b.reg("rx_len", 12);
    let rx_len_inc = b.inc(&rx_len.q());
    let rx_len_run = b.mux(&payload_shift, &rx_len.q(), &rx_len_inc);
    let zero12 = b.lit(12, 0);
    let rx_len_next = b.mux(&start_det, &rx_len_run, &zero12);
    b.connect(&rx_len, &rx_len_next).expect("rx_len");

    let eop_good = b.and(&end_seen, &crc_ok);
    let eop_bad = b.and(&end_seen, &crc_bad);

    let last_len = b.reg("rx_last_len", 12);
    b.connect_en(&last_len, &eop_good, &rx_len.q())
        .expect("rx_last_len");
    let min_len = b.reg_init("rx_min_len", 12, 0xFFF);
    let len_lt_min = b.lt(&rx_len.q(), &min_len.q());
    let upd_min = b.and(&eop_good, &len_lt_min);
    b.connect_en(&min_len, &upd_min, &rx_len.q())
        .expect("rx_min_len");
    let max_len = b.reg("rx_max_len", 12);
    let max_lt_len = b.lt(&max_len.q(), &rx_len.q());
    let upd_max = b.and(&eop_good, &max_lt_len);
    b.connect_en(&max_len, &upd_max, &rx_len.q())
        .expect("rx_max_len");

    // Pause handling: a good frame whose first word is the pause magic
    // loads the timer with that word (never happens in the testbench).
    let pause_frame = b.eq_const(&first_word.q(), cfg.pause_magic());
    let pause_load = b.and(&eop_good, &pause_frame);
    let pause_dec = b.add_const(&pause_timer.q(), 0xFFFF);
    let pause_run = b.mux(&pause_nz, &pause_timer.q(), &pause_dec);
    let fw_ext = b.zext(&first_word.q().slice(0..w.min(16)), 16);
    let pause_next = b.mux(&pause_load, &pause_run, &fw_ext);
    b.connect_en_rst(&pause_timer, None, Some((&rst, 0)), &pause_next)
        .expect("pause_timer");

    // ------------------------------------------------------------------
    // RX FIFO: [data | sop | eop | err]
    // ------------------------------------------------------------------
    let wr_payload = b.and(&payload_shift, &pass);
    let rx_wr_en = b.or(&wr_payload, &end_seen);
    let sop_flag = b.and(&n_started, &one);
    let payload_entry = exit_data
        .concat(&sop_flag)
        .concat(&zero) // eop
        .concat(&zero); // err
    let zero_w = b.lit(w, 0);
    let eop_entry = zero_w.concat(&n_started).concat(&one).concat(&crc_bad);
    let rx_entry = b.mux(&end_seen, &payload_entry, &eop_entry);
    let rx_fifo =
        sync_fifo_with_late_rd(&mut b, "rx_fifo", cfg.fifo_addr_bits, &rx_wr_en, &rx_entry);
    let rx_not_empty = b.not(&rx_fifo.empty);
    let rx_rd_en = b.and(&rx_ready, &rx_not_empty);
    rx_fifo.connect_rd_en(&mut b, &rx_rd_en);

    let rx_valid = b.and(&rx_not_empty, &rx_ready);
    let rx_head = rx_fifo.rd_data.clone();

    // ------------------------------------------------------------------
    // Status counters (functionally inert)
    // ------------------------------------------------------------------
    let tx_frames = counter(&mut b, "tx_frames", 8, &in_term, Some(&rst));
    let rx_frames = counter(&mut b, "rx_frames", 8, &eop_good, Some(&rst));
    let crc_errs = counter(&mut b, "crc_errs", 8, &eop_bad, Some(&rst));
    let tx_octets = b.reg("tx_octets", 32);
    let tx_oct_next = b.add_const(&tx_octets.q(), (w / 8) as u64);
    b.connect_en(&tx_octets, &data_pop, &tx_oct_next)
        .expect("tx_octets");
    let rx_octets = b.reg("rx_octets", 32);
    let rx_oct_next = b.add_const(&rx_octets.q(), (w / 8) as u64);
    b.connect_en(&rx_octets, &wr_payload, &rx_oct_next)
        .expect("rx_octets");
    let uptime = counter(&mut b, "uptime", 24, &one, None);

    // Idle watchdog: counts cycles since the last delivered RX word.
    let watchdog = b.reg("rx_watchdog", 21);
    let wd_inc = b.inc(&watchdog.q());
    let zero21 = b.lit(21, 0);
    let wd_next = b.mux(&rx_valid, &wd_inc, &zero21);
    b.connect(&watchdog, &wd_next).expect("rx_watchdog");

    // Diagnostic padding shift register (benign by construction).
    if cfg.pad_ffs > 0 {
        let mut prev = uptime.q().bit(0);
        for j in 0..cfg.pad_ffs {
            let r = b.reg(&format!("diag_sr{j}"), 1);
            b.connect(&r, &prev).expect("diag_sr");
            prev = r.q();
        }
        b.output("diag_tap", &prev);
    }

    // ------------------------------------------------------------------
    // Outputs
    // ------------------------------------------------------------------
    b.output("tx_ready", &tx_ready);
    b.output("rx_valid", &rx_valid);
    b.output("rx_data", &rx_head.slice(0..w));
    b.output("rx_sop", &rx_head.bit(w));
    b.output("rx_eop", &rx_head.bit(w + 1));
    b.output("rx_err", &rx_head.bit(w + 2));
    b.output("xgmii_txd", &txd_r.q());
    b.output("xgmii_txc", &txc_r.q());
    b.output("tx_frames", &tx_frames.q());
    b.output("rx_frames", &rx_frames.q());
    b.output("crc_errs", &crc_errs.q());
    b.output("tx_octets", &tx_octets.q());
    b.output("rx_octets", &rx_octets.q());
    b.output("uptime", &uptime.q());
    b.output("rx_last_len", &last_len.q());
    b.output("rx_min_len", &min_len.q());
    b.output("rx_max_len", &max_len.q());
    b.output("rx_watchdog_top", &watchdog.q().bit(20));

    b.finish().expect("mac10ge elaboration is well formed")
}

/// A configuration register: holds its init value (d = q) so only an SEU
/// can ever change it.
fn hold_reg(b: &mut NetlistBuilder, name: &str, width: usize, init: u64) -> RegHandle {
    let r = b.reg_init(name, width, init);
    let q = r.q();
    b.connect(&r, &q).expect("hold reg connected once");
    r
}

/// A `sync_fifo` variant whose read-enable is attached after construction,
/// so the enable may depend on the FIFO's own outputs (head flags, empty).
struct LateRdFifo {
    rd_data: Bus,
    empty: Bus,
    full: Bus,
    rptr: RegHandle,
}

fn sync_fifo_with_late_rd(
    b: &mut NetlistBuilder,
    name: &str,
    addr_bits: usize,
    wr_en: &Bus,
    wr_data: &Bus,
) -> LateRdFifo {
    let depth = 1usize << addr_bits;
    let width = wr_data.width();
    let wptr = b.reg(&format!("{name}_wptr"), addr_bits + 1);
    let rptr = b.reg(&format!("{name}_rptr"), addr_bits + 1);

    let empty = b.eq(&wptr.q(), &rptr.q());
    let msb_neq = b.xor(&wptr.q().msb(), &rptr.q().msb());
    let low_eq = b.eq(&wptr.q().slice(0..addr_bits), &rptr.q().slice(0..addr_bits));
    let full = b.and(&msb_neq, &low_eq);

    let not_full = b.not(&full);
    let do_wr = b.and(wr_en, &not_full);
    let wptr_next = b.inc(&wptr.q());
    b.connect_en(&wptr, &do_wr, &wptr_next).expect("wptr");

    let wsel = b.decode(&wptr.q().slice(0..addr_bits));
    let mut rows: Vec<Bus> = Vec::with_capacity(depth);
    for i in 0..depth {
        let row = b.reg(&format!("{name}_mem{i}"), width);
        let en = b.and(&do_wr, &wsel.bit(i));
        b.connect_en(&row, &en, wr_data).expect("fifo row");
        rows.push(row.q());
    }
    let rd_data = b.select(&rptr.q().slice(0..addr_bits), &rows);

    LateRdFifo {
        rd_data,
        empty,
        full,
        rptr,
    }
}

impl LateRdFifo {
    /// Attach the read-enable. An extra `!empty` gate keeps pointer
    /// underflow impossible regardless of the caller's gating.
    fn connect_rd_en(&self, b: &mut NetlistBuilder, rd_en: &Bus) {
        let n_empty = b.not(&self.empty);
        let do_rd = b.and(rd_en, &n_empty);
        let next = b.inc(&self.rptr.q());
        b.connect_en(&self.rptr, &do_rd, &next)
            .expect("fifo rptr connected once");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_netlist::NetlistStats;

    #[test]
    fn default_config_hits_paper_ff_count() {
        let mac = Mac10ge::build(Mac10geConfig::default());
        let stats = NetlistStats::of(mac.netlist());
        assert_eq!(
            stats.flip_flops, 1054,
            "default Mac10ge should elaborate to the paper's 1054 FFs; got {}",
            stats.flip_flops
        );
    }

    #[test]
    fn small_config_is_smaller() {
        let mac = Mac10ge::build(Mac10geConfig::small());
        let n = mac.netlist().num_ffs();
        assert!(n < 800, "small config should be compact, got {n}");
        assert!(mac.netlist().validate().is_ok());
    }

    #[test]
    fn protocol_words_are_distinct() {
        let cfg = Mac10geConfig::default();
        let words = [cfg.idle_word(), cfg.start_word(), cfg.term_word()];
        assert_ne!(words[0], words[1]);
        assert_ne!(words[0], words[2]);
        assert_ne!(words[1], words[2]);
        assert_eq!(cfg.crc_words(), 2);
    }

    #[test]
    #[should_panic(expected = "data_width")]
    fn rejects_bad_width() {
        let _ = Mac10ge::build(Mac10geConfig {
            data_width: 24,
            ..Mac10geConfig::default()
        });
    }

    #[test]
    fn netlist_compiles_for_simulation() {
        let mac = Mac10ge::build(Mac10geConfig::small());
        let cc = ffr_sim::CompiledCircuit::compile(mac.into_netlist());
        assert!(cc.is_ok(), "{:?}", cc.err());
    }
}
