//! Reusable RTL building blocks.
//!
//! Every component lowers to the NanGate-like standard-cell vocabulary via
//! [`NetlistBuilder`]; they are the "IP blocks" from which [`Mac10ge`](crate::Mac10ge)
//! (and the [`small`](crate::small) demo circuits) are assembled.

use ffr_netlist::{Bus, NetlistBuilder, RegHandle};

/// Ports of a [`sync_fifo`].
#[derive(Debug, Clone)]
pub struct FifoPorts {
    /// Head-of-queue data (valid whenever `empty` is low; show-ahead).
    pub rd_data: Bus,
    /// High when the FIFO holds no entries.
    pub empty: Bus,
    /// High when the FIFO cannot accept a write.
    pub full: Bus,
    /// Current occupancy (`addr_bits + 1` wide).
    pub level: Bus,
}

/// Synchronous show-ahead FIFO with `2^addr_bits` entries.
///
/// Writes when `wr_en & !full`, pops when `rd_en & !empty`; simultaneous
/// read/write is supported. The storage is a register file of
/// `2^addr_bits × width` flip-flops — exactly the FF population that gives
/// the paper's datapath its occupancy-dependent vulnerability.
pub fn sync_fifo(
    b: &mut NetlistBuilder,
    name: &str,
    addr_bits: usize,
    wr_en: &Bus,
    wr_data: &Bus,
    rd_en: &Bus,
) -> FifoPorts {
    assert!(addr_bits >= 1, "FIFO needs at least 2 entries");
    let depth = 1usize << addr_bits;
    let width = wr_data.width();

    let wptr = b.reg(&format!("{name}_wptr"), addr_bits + 1);
    let rptr = b.reg(&format!("{name}_rptr"), addr_bits + 1);

    let empty = b.eq(&wptr.q(), &rptr.q());
    let msb_neq = b.xor(&wptr.q().msb(), &rptr.q().msb());
    let low_eq = b.eq(&wptr.q().slice(0..addr_bits), &rptr.q().slice(0..addr_bits));
    let full = b.and(&msb_neq, &low_eq);

    let not_full = b.not(&full);
    let not_empty = b.not(&empty);
    let do_wr = b.and(wr_en, &not_full);
    let do_rd = b.and(rd_en, &not_empty);

    let wptr_next = b.inc(&wptr.q());
    b.connect_en(&wptr, &do_wr, &wptr_next)
        .expect("fifo wptr connected once");
    let rptr_next = b.inc(&rptr.q());
    b.connect_en(&rptr, &do_rd, &rptr_next)
        .expect("fifo rptr connected once");

    // Storage rows with one-hot write select.
    let wsel = b.decode(&wptr.q().slice(0..addr_bits));
    let mut rows: Vec<Bus> = Vec::with_capacity(depth);
    for i in 0..depth {
        let row = b.reg(&format!("{name}_mem{i}"), width);
        let en = b.and(&do_wr, &wsel.bit(i));
        b.connect_en(&row, &en, wr_data)
            .expect("fifo row connected once");
        rows.push(row.q());
    }
    let rd_data = b.select(&rptr.q().slice(0..addr_bits), &rows);

    let (level, _) = b.sub(&wptr.q(), &rptr.q());

    FifoPorts {
        rd_data,
        empty,
        full,
        level,
    }
}

/// The CRC-32 polynomial used by IEEE 802.3 (`x^32 + x^26 + … + 1`),
/// MSB-first representation.
pub(crate) const CRC32_POLY: u32 = 0x04C1_1DB7;

/// Software model of [`crc32_update`]: fold `width` bits of `data`
/// (MSB first) into a running CRC-32.
///
/// Both the TX and RX engines of [`Mac10ge`](crate::Mac10ge) use the same
/// convention, so the usual IEEE reflection/complement details are not
/// modelled — they cancel out for matched generate/check pairs.
pub fn crc32_update_sw(mut crc: u32, data: u64, width: usize) -> u32 {
    assert!(width <= 64);
    for i in (0..width).rev() {
        let bit = ((data >> i) & 1) as u32;
        let feedback = (crc >> 31) ^ bit;
        crc <<= 1;
        if feedback & 1 == 1 {
            crc ^= CRC32_POLY;
        }
    }
    crc
}

/// Combinational CRC-32 update: folds the `data` bus (MSB first) into
/// `crc` and returns the new CRC bus.
///
/// # Panics
///
/// Panics if `crc` is not 32 bits wide.
pub fn crc32_update(b: &mut NetlistBuilder, crc: &Bus, data: &Bus) -> Bus {
    assert_eq!(crc.width(), 32, "CRC register must be 32 bits");
    let mut state: Vec<ffr_netlist::NetId> = crc.nets().to_vec();
    for i in (0..data.width()).rev() {
        let feedback = b.xor(&Bus::single(state[31]), &data.bit(i));
        let fb = feedback.net(0);
        let mut next = Vec::with_capacity(32);
        for (j, poly_tap) in poly_taps().iter().enumerate() {
            if j == 0 {
                // poly bit 0 is always 1.
                next.push(fb);
            } else if *poly_tap {
                let x = b.xor(&Bus::single(state[j - 1]), &Bus::single(fb));
                next.push(x.net(0));
            } else {
                next.push(state[j - 1]);
            }
        }
        state = next;
    }
    Bus::from_nets(state)
}

fn poly_taps() -> [bool; 32] {
    let mut taps = [false; 32];
    for (j, tap) in taps.iter_mut().enumerate() {
        *tap = (CRC32_POLY >> j) & 1 == 1;
    }
    taps
}

/// Free-running or enabled up-counter with synchronous reset.
///
/// Returns the register handle; the counter wraps at `2^width`.
pub fn counter(
    b: &mut NetlistBuilder,
    name: &str,
    width: usize,
    en: &Bus,
    rst: Option<&Bus>,
) -> RegHandle {
    let r = b.reg(name, width);
    let next = b.inc(&r.q());
    b.connect_en_rst(&r, Some(en), rst.map(|r| (r, 0)), &next)
        .expect("counter connected once");
    r
}

/// Maximal-length tap positions (1-based, à la LFSR literature) for the
/// widths supported by [`lfsr`].
fn lfsr_taps(width: usize) -> &'static [usize] {
    match width {
        4 => &[4, 3],
        8 => &[8, 6, 5, 4],
        16 => &[16, 15, 13, 4],
        24 => &[24, 23, 22, 17],
        32 => &[32, 22, 2, 1],
        _ => panic!("no LFSR tap table for width {width}"),
    }
}

/// Fibonacci LFSR with maximal-length taps, seeded to 1, shifting when
/// `en` is high. Used as a pseudo-random data source inside circuits.
///
/// # Panics
///
/// Panics if `width` has no tap table (supported: 4, 8, 16, 24, 32).
pub fn lfsr(b: &mut NetlistBuilder, name: &str, width: usize, en: &Bus) -> RegHandle {
    let r = b.reg_init(name, width, 1);
    let taps = lfsr_taps(width);
    let mut fb = r.q().bit(taps[0] - 1);
    for &t in &taps[1..] {
        fb = b.xor(&fb, &r.q().bit(t - 1));
    }
    // Shift left: new bit 0 = feedback.
    let shifted = fb.concat(&r.q().slice(0..width - 1));
    b.connect_en(&r, en, &shifted).expect("lfsr connected once");
    r
}

/// `depth`-stage shift register (pipeline) over a `width`-bit bus; returns
/// the output of every stage, index 0 being the first register after the
/// input.
pub(crate) fn shift_register(
    b: &mut NetlistBuilder,
    name: &str,
    depth: usize,
    en: &Bus,
    data_in: &Bus,
) -> Vec<Bus> {
    assert!(depth >= 1);
    let mut stages = Vec::with_capacity(depth);
    let mut current = data_in.clone();
    for i in 0..depth {
        let r = b.reg(&format!("{name}_s{i}"), data_in.width());
        b.connect_en(&r, en, &current)
            .expect("shift stage connected once");
        current = r.q();
        stages.push(current.clone());
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_netlist::NetlistBuilder;
    use ffr_sim::{CompiledCircuit, SimState};

    /// Drive a compiled circuit one cycle with the given input bit values.
    fn step(cc: &CompiledCircuit, s: &mut SimState, inputs: &[(usize, bool)]) {
        for &(i, v) in inputs {
            s.set_input(cc, i, v);
        }
        s.eval(cc);
        s.tick(cc);
    }

    fn out_bus(cc: &CompiledCircuit, s: &SimState, base: usize, width: usize) -> u64 {
        (0..width).fold(0, |acc, i| acc | ((s.output_word(cc, base + i) & 1) << i))
    }

    #[test]
    fn crc32_matches_software_model() {
        let mut b = NetlistBuilder::new("crc");
        let data = b.input("data", 16);
        let crc_in = b.input("crc_in", 32);
        let out = crc32_update(&mut b, &crc_in, &data);
        b.output("crc_out", &out);
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let mut s = SimState::new(&cc);

        for (crc0, word) in [
            (0xFFFF_FFFFu32, 0x0000u64),
            (0xFFFF_FFFF, 0xFFFF),
            (0x0000_0000, 0xA5C3),
            (0x1234_5678, 0x9ABC),
            (0xDEAD_BEEF, 0x0001),
        ] {
            for i in 0..16 {
                s.set_input(&cc, i, (word >> i) & 1 == 1);
            }
            for i in 0..32 {
                s.set_input(&cc, 16 + i, (crc0 >> i) & 1 == 1);
            }
            s.eval(&cc);
            let got = out_bus(&cc, &s, 0, 32) as u32;
            assert_eq!(
                got,
                crc32_update_sw(crc0, word, 16),
                "crc({crc0:#x},{word:#x})"
            );
        }
    }

    #[test]
    fn fifo_behaves_like_model() {
        let mut b = NetlistBuilder::new("fifo");
        let wr_en = b.input("wr_en", 1);
        let wr_data = b.input("wr_data", 8);
        let rd_en = b.input("rd_en", 1);
        let ports = sync_fifo(&mut b, "f", 2, &wr_en, &wr_data, &rd_en);
        b.output("rd_data", &ports.rd_data);
        b.output("empty", &ports.empty);
        b.output("full", &ports.full);
        b.output("level", &ports.level);
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let mut s = SimState::new(&cc);

        let o_data = 0usize;
        let o_empty = 8usize;
        let o_full = 9usize;
        let o_level = 10usize;

        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut lcg = 0x1234_5678u64;
        for step_no in 0..200 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let wr = (lcg >> 33) & 1 == 1;
            let rd = (lcg >> 34) & 1 == 1;
            let data = (lcg >> 40) & 0xFF;

            s.set_input(&cc, 0, wr);
            for i in 0..8 {
                s.set_input(&cc, 1 + i, (data >> i) & 1 == 1);
            }
            s.set_input(&cc, 9, rd);
            s.eval(&cc);

            // Check combinational status against the model (pre-edge).
            let empty = s.output_word(&cc, o_empty) & 1 == 1;
            let full = s.output_word(&cc, o_full) & 1 == 1;
            let level = out_bus(&cc, &s, o_level, 3);
            assert_eq!(empty, model.is_empty(), "step {step_no} empty");
            assert_eq!(full, model.len() == 4, "step {step_no} full");
            assert_eq!(level as usize, model.len(), "step {step_no} level");
            if !model.is_empty() {
                let head = out_bus(&cc, &s, o_data, 8);
                assert_eq!(head, model[0], "step {step_no} head");
            }

            // Apply the edge to the model in the same priority order.
            let did_wr = wr && model.len() < 4;
            let did_rd = rd && !model.is_empty();
            if did_rd {
                model.pop_front();
            }
            if did_wr {
                model.push_back(data);
            }
            s.tick(&cc);
        }
    }

    #[test]
    fn counter_with_reset() {
        let mut b = NetlistBuilder::new("cnt");
        let en = b.input("en", 1);
        let rst = b.input("rst", 1);
        let c = counter(&mut b, "c", 8, &en, Some(&rst));
        b.output("v", &c.q());
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let mut s = SimState::new(&cc);
        for _ in 0..10 {
            step(&cc, &mut s, &[(0, true), (1, false)]);
        }
        s.eval(&cc);
        assert_eq!(out_bus(&cc, &s, 0, 8), 10);
        step(&cc, &mut s, &[(0, false), (1, true)]);
        s.eval(&cc);
        assert_eq!(out_bus(&cc, &s, 0, 8), 0, "reset wins over enable-off");
    }

    #[test]
    fn lfsr_is_maximal_length_for_width_8() {
        let mut b = NetlistBuilder::new("lfsr");
        let en = b.input("en", 1);
        let r = lfsr(&mut b, "l", 8, &en);
        b.output("v", &r.q());
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let mut s = SimState::new(&cc);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..255 {
            s.set_input(&cc, 0, true);
            s.eval(&cc);
            assert!(
                seen.insert(out_bus(&cc, &s, 0, 8)),
                "LFSR state repeated early"
            );
            s.tick(&cc);
        }
        s.eval(&cc);
        assert_eq!(out_bus(&cc, &s, 0, 8), 1, "period 255 returns to seed");
    }

    #[test]
    fn shift_register_delays() {
        let mut b = NetlistBuilder::new("sr");
        let en = b.input("en", 1);
        let d = b.input("d", 4);
        let stages = shift_register(&mut b, "p", 3, &en, &d);
        b.output("o", stages.last().unwrap());
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let mut s = SimState::new(&cc);
        let seq = [3u64, 7, 1, 9, 12, 5, 0, 15];
        let mut outs = Vec::new();
        for &v in &seq {
            s.set_input(&cc, 0, true);
            for i in 0..4 {
                s.set_input(&cc, 1 + i, (v >> i) & 1 == 1);
            }
            s.eval(&cc);
            outs.push(out_bus(&cc, &s, 0, 4));
            s.tick(&cc);
        }
        // After 3 stages, input appears with 3-cycle latency.
        assert_eq!(&outs[3..], &seq[..5]);
    }
}
