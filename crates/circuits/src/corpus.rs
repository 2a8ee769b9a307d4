//! The circuit corpus: seeded, size-parameterized generators behind a
//! stable-id catalog.
//!
//! The estimator is only credible if it generalizes beyond the circuits
//! it was tuned on. This module turns the crate's building blocks into a
//! **corpus**: every generator is parametric (size) and — where the
//! structure admits it — seeded, each concrete instance has a stable
//! string id (`fifo2x8`, `mix3s7`, …), and the [`Corpus`] catalog
//! registers the instances under those ids. The campaign CLI resolves
//! `--circuit corpus:<id>` through [`resolve`]; the conformance suites
//! (`cone_equivalence`, `cone_classification`, `verilog_roundtrip`) use
//! [`CorpusSpec::sampled`] as a property-test generator of arbitrary
//! valid circuits.

use crate::{components, small};
use ffr_netlist::{Bus, Netlist, NetlistBuilder};

/// A parametric, seeded corpus generator instance.
///
/// Every variant builds a validated [`Netlist`]; [`CorpusSpec::id`] and
/// [`CorpusSpec::parse`] round-trip the stable string form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CorpusSpec {
    /// Enabled wrap-around counter (`cnt<width>`).
    Counter {
        /// Counter width in bits.
        width: usize,
    },
    /// LFSR + register pipeline (`lfsr<width>x<depth>`).
    LfsrPipeline {
        /// LFSR width in bits (tap table: 4, 8, 16, 24, 32).
        width: usize,
        /// Pipeline depth in stages.
        depth: usize,
    },
    /// Registered ALU (`alu<width>`).
    Alu {
        /// Operand width in bits.
        width: usize,
    },
    /// Synchronous FIFO (`fifo<addr_bits>x<width>`).
    Fifo {
        /// log2 of the entry count.
        addr_bits: usize,
        /// Data width in bits.
        width: usize,
    },
    /// Registered CRC-32 accumulator (`crc<width>`).
    Crc {
        /// Data-input width in bits.
        width: usize,
    },
    /// Write-decoded register file with a registered read port
    /// (`regfile<addr_bits>x<width>`).
    RegFile {
        /// log2 of the register count.
        addr_bits: usize,
        /// Register width in bits.
        width: usize,
    },
    /// Seeded counter/pipeline mix (`mix<stages>s<seed>`): the stage
    /// composition is drawn from the seed, so every seed is a
    /// structurally different circuit.
    Mix {
        /// Number of pipeline stages.
        stages: usize,
        /// Structural seed.
        seed: u64,
    },
}

/// Supported LFSR widths (the component's tap table).
const LFSR_WIDTHS: [usize; 5] = [4, 8, 16, 24, 32];

impl CorpusSpec {
    /// Stable corpus id of this instance: `cnt8`, `lfsr8x2`, `alu4`,
    /// `fifo2x8`, `crc8`, `regfile2x4`, `mix3s7`.
    pub fn id(&self) -> String {
        match self {
            CorpusSpec::Counter { width } => format!("cnt{width}"),
            CorpusSpec::LfsrPipeline { width, depth } => format!("lfsr{width}x{depth}"),
            CorpusSpec::Alu { width } => format!("alu{width}"),
            CorpusSpec::Fifo { addr_bits, width } => format!("fifo{addr_bits}x{width}"),
            CorpusSpec::Crc { width } => format!("crc{width}"),
            CorpusSpec::RegFile { addr_bits, width } => format!("regfile{addr_bits}x{width}"),
            CorpusSpec::Mix { stages, seed } => format!("mix{stages}s{seed}"),
        }
    }

    /// Parse a corpus id back into its spec (inverse of [`CorpusSpec::id`]).
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for unknown generator names or
    /// out-of-range parameters.
    pub fn parse(id: &str) -> Result<CorpusSpec, String> {
        let split = id.find(|c: char| c.is_ascii_digit()).ok_or_else(|| {
            format!("corpus id `{id}` has no size parameter (expected e.g. cnt8, fifo2x8)")
        })?;
        let (name, params) = id.split_at(split);
        let one = |p: &str| -> Result<usize, String> {
            p.parse::<usize>()
                .map_err(|e| format!("bad parameter `{p}` in corpus id `{id}`: {e}"))
        };
        let two = |p: &str| -> Result<(usize, usize), String> {
            let (a, b) = p
                .split_once('x')
                .ok_or_else(|| format!("corpus id `{id}` needs two parameters (e.g. {name}2x8)"))?;
            Ok((one(a)?, one(b)?))
        };
        let spec = match name {
            "cnt" => CorpusSpec::Counter {
                width: one(params)?,
            },
            "lfsr" => {
                let (width, depth) = two(params)?;
                CorpusSpec::LfsrPipeline { width, depth }
            }
            "alu" => CorpusSpec::Alu {
                width: one(params)?,
            },
            "fifo" => {
                let (addr_bits, width) = two(params)?;
                CorpusSpec::Fifo { addr_bits, width }
            }
            "crc" => CorpusSpec::Crc {
                width: one(params)?,
            },
            "regfile" => {
                let (addr_bits, width) = two(params)?;
                CorpusSpec::RegFile { addr_bits, width }
            }
            "mix" => {
                let (stages, seed) = params
                    .split_once('s')
                    .ok_or_else(|| format!("corpus id `{id}` needs a seed (e.g. mix3s7)"))?;
                CorpusSpec::Mix {
                    stages: one(stages)?,
                    seed: seed
                        .parse::<u64>()
                        .map_err(|e| format!("bad seed `{seed}` in corpus id `{id}`: {e}"))?,
                }
            }
            other => {
                return Err(format!(
                    "unknown corpus generator `{other}` in `{id}` \
                     (expected one of: cnt, lfsr, alu, fifo, crc, regfile, mix)"
                ))
            }
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the parameter ranges the generators support.
    fn validate(&self) -> Result<(), String> {
        let bounded = |v: usize, lo: usize, hi: usize, what: &str| {
            if (lo..=hi).contains(&v) {
                Ok(())
            } else {
                Err(format!(
                    "{what} {v} out of range {lo}..={hi} for `{}`",
                    self.id()
                ))
            }
        };
        match *self {
            CorpusSpec::Counter { width } | CorpusSpec::Alu { width } => {
                bounded(width, 1, 64, "width")
            }
            CorpusSpec::LfsrPipeline { width, depth } => {
                if !LFSR_WIDTHS.contains(&width) {
                    return Err(format!(
                        "lfsr width {width} unsupported (tap table covers 4, 8, 16, 24, 32)"
                    ));
                }
                bounded(depth, 1, 16, "depth")
            }
            CorpusSpec::Fifo { addr_bits, width } | CorpusSpec::RegFile { addr_bits, width } => {
                bounded(addr_bits, 1, 6, "addr_bits")?;
                bounded(width, 1, 64, "width")
            }
            CorpusSpec::Crc { width } => bounded(width, 1, 64, "width"),
            CorpusSpec::Mix { stages, .. } => bounded(stages, 1, 12, "stages"),
        }
    }

    /// A bounded, always-valid spec from free integers — the
    /// property-test generator behind the corpus conformance suites.
    ///
    /// `kind` selects the generator family (mod 7), `size_a`/`size_b`
    /// select small sizes within each family's bounds and `seed` feeds
    /// the seeded families. Sizes are capped so every sampled circuit
    /// stays property-test cheap (tens of flip-flops, shallow depth).
    pub fn sampled(kind: usize, size_a: usize, size_b: usize, seed: u64) -> CorpusSpec {
        let spec = match kind % 7 {
            0 => CorpusSpec::Counter {
                width: 2 + size_a % 7,
            },
            1 => CorpusSpec::LfsrPipeline {
                width: if size_b.is_multiple_of(2) { 4 } else { 8 },
                depth: 1 + size_a % 3,
            },
            2 => CorpusSpec::Alu {
                width: 2 + size_a % 5,
            },
            3 => CorpusSpec::Fifo {
                addr_bits: 1 + size_a % 2,
                width: 1 + size_b % 6,
            },
            4 => CorpusSpec::Crc {
                width: 1 + size_a % 8,
            },
            5 => CorpusSpec::RegFile {
                addr_bits: 1 + size_a % 2,
                width: 1 + size_b % 4,
            },
            _ => CorpusSpec::Mix {
                stages: 1 + size_a % 4,
                seed,
            },
        };
        spec.validate().expect("sampled specs stay in range");
        spec
    }

    /// Build the netlist of this instance.
    pub fn build(&self) -> Netlist {
        match *self {
            CorpusSpec::Counter { width } => small::counter_circuit(width),
            CorpusSpec::LfsrPipeline { width, depth } => small::lfsr_pipeline(width, depth),
            CorpusSpec::Alu { width } => small::alu_circuit(width),
            CorpusSpec::Fifo { addr_bits, width } => fifo_circuit(addr_bits, width),
            CorpusSpec::Crc { width } => crc_circuit(width),
            CorpusSpec::RegFile { addr_bits, width } => register_file(addr_bits, width),
            CorpusSpec::Mix { stages, seed } => mix_circuit(stages, seed),
        }
    }
}

/// A synchronous FIFO as a standalone circuit.
///
/// Ports: inputs `wr_en`, `wr_data[width]`, `rd_en`; outputs
/// `rd_data[width]`, `empty`, `full`, `level[addr_bits+1]`.
///
/// The storage rows give the design an occupancy-dependent FDR
/// population: a flipped entry is benign unless it is read out while
/// valid.
pub(crate) fn fifo_circuit(addr_bits: usize, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("fifo_circuit");
    let wr_en = b.input("wr_en", 1);
    let wr_data = b.input("wr_data", width);
    let rd_en = b.input("rd_en", 1);
    let ports = components::sync_fifo(&mut b, "f", addr_bits, &wr_en, &wr_data, &rd_en);
    b.output("rd_data", &ports.rd_data);
    b.output("empty", &ports.empty);
    b.output("full", &ports.full);
    b.output("level", &ports.level);
    b.finish().expect("fifo circuit is well formed")
}

/// A registered CRC-32 accumulator over a `width`-bit input word.
///
/// Ports: inputs `en`, `clear`, `data[width]`; outputs `crc[32]`,
/// `nonzero`. `clear` synchronously reloads the IEEE 802.3 preset
/// (all-ones); `en` folds one data word per cycle.
pub(crate) fn crc_circuit(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("crc_circuit");
    let en = b.input("en", 1);
    let clear = b.input("clear", 1);
    let data = b.input("data", width);
    let crc = b.reg_init("crc", 32, 0xFFFF_FFFF);
    let next = components::crc32_update(&mut b, &crc.q(), &data);
    b.connect_en_rst(&crc, Some(&en), Some((&clear, 0xFFFF_FFFF)), &next)
        .expect("crc register connected once");
    let nonzero = b.reduce_or(&crc.q());
    b.output("crc", &crc.q());
    b.output("nonzero", &nonzero);
    b.finish().expect("crc circuit is well formed")
}

/// A `2^addr_bits × width` register file: one-hot write decode, a
/// registered read port and a write-count statistics counter.
///
/// Ports: inputs `wen`, `waddr[addr_bits]`, `wdata[width]`,
/// `raddr[addr_bits]`; outputs `rdata[width]`, `parity`,
/// `writes[addr_bits+2]`.
///
/// Rows that are rarely addressed are nearly benign while the read
/// register is critical — the skewed FDR population the estimator has to
/// capture on storage-heavy designs.
pub(crate) fn register_file(addr_bits: usize, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("register_file");
    let wen = b.input("wen", 1);
    let waddr = b.input("waddr", addr_bits);
    let wdata = b.input("wdata", width);
    let raddr = b.input("raddr", addr_bits);

    let wsel = b.decode(&waddr);
    let rows: Vec<Bus> = (0..1usize << addr_bits)
        .map(|i| {
            let row = b.reg(&format!("row{i}"), width);
            let en = b.and(&wen, &wsel.bit(i));
            b.connect_en(&row, &en, &wdata)
                .expect("register-file row connected once");
            row.q()
        })
        .collect();
    let rdata_comb = b.select(&raddr, &rows);
    let rdata = b.reg("rdata", width);
    b.connect(&rdata, &rdata_comb)
        .expect("read register connected once");
    let parity = b.reduce_xor(&rdata.q());

    // Benign statistics: number of write strobes observed.
    let writes = components::counter(&mut b, "writes", addr_bits + 2, &wen, None);

    b.output("rdata", &rdata.q());
    b.output("parity", &parity);
    b.output("writes", &writes.q());
    b.finish().expect("register file is well formed")
}

/// A seeded counter/pipeline mix: `stages` transformation stages over a
/// data bus, each drawn from the seed (register, xor-rotate, counter
/// add, LFSR mux-cross, parity fold-in), ending in data + parity
/// outputs.
///
/// Ports: inputs `en`, `din[width]`; outputs `dout[width]`, `parity`,
/// `beat[4]`. The width (4 or 8) also comes from the seed.
pub(crate) fn mix_circuit(stages: usize, seed: u64) -> Netlist {
    assert!(stages >= 1, "mix circuit needs at least one stage");
    let mut b = NetlistBuilder::new("mix_circuit");
    // Deterministic structural choices from a tiny LCG over the seed.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut draw = |n: u64| -> u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let width = if draw(2) == 0 { 4 } else { 8 };

    let en = b.input("en", 1);
    let din = b.input("din", width);
    // A free-running heartbeat shared by the stages.
    let beat = components::counter(&mut b, "beat", 4, &en, None);

    let mut data = din.clone();
    for i in 0..stages {
        data = match draw(5) {
            0 => {
                // Plain pipeline register.
                let r = b.reg(&format!("pipe{i}"), width);
                b.connect_en(&r, &en, &data).expect("pipe stage");
                r.q()
            }
            1 => {
                // Xor with a 1-bit rotation of itself, registered.
                let rotated = data.slice(1..width).concat(&data.bit(0));
                let x = b.xor(&data, &rotated);
                let r = b.reg(&format!("rot{i}"), width);
                b.connect_en(&r, &en, &x).expect("rotate stage");
                r.q()
            }
            2 => {
                // Add the heartbeat (zero-extended), registered.
                let beat_ext = if width > 4 {
                    beat.q().concat(&b.lit(width - 4, 0))
                } else {
                    beat.q().slice(0..width)
                };
                let (sum, _) = b.add(&data, &beat_ext);
                let r = b.reg(&format!("add{i}"), width);
                b.connect_en(&r, &en, &sum).expect("add stage");
                r.q()
            }
            3 => {
                // Mux-cross against a private LFSR stream.
                let l = components::lfsr(&mut b, &format!("lfsr{i}"), 4, &en);
                let pick = l.q().bit(0);
                let swapped = data
                    .slice(width / 2..width)
                    .concat(&data.slice(0..width / 2));
                let m = b.mux(&pick, &data, &swapped);
                let r = b.reg(&format!("cross{i}"), width);
                b.connect_en(&r, &en, &m).expect("cross stage");
                r.q()
            }
            _ => {
                // Fold the stage parity into bit 0, registered.
                let p = b.reduce_xor(&data);
                let folded = b.xor(&data.bit(0), &p);
                let next = folded.concat(&data.slice(1..width));
                let r = b.reg(&format!("fold{i}"), width);
                b.connect_en(&r, &en, &next).expect("fold stage");
                r.q()
            }
        };
    }

    let parity = b.reduce_xor(&data);
    b.output("dout", &data);
    b.output("parity", &parity);
    b.output("beat", &beat.q());
    b.finish().expect("mix circuit is well formed")
}

/// One catalog entry: a stable id bound to a generated design.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    id: String,
    spec: CorpusSpec,
}

impl CorpusEntry {
    /// The entry's stable id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The generator spec.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// Build the entry's netlist.
    pub fn build(&self) -> Netlist {
        self.spec.build()
    }
}

/// The circuit-corpus catalog: stable ids → buildable designs.
///
/// [`Corpus::standard`] is the committed catalog the conformance suites,
/// the transfer study and CI iterate over.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// An empty catalog.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// The standard generated catalog: two sizes per generator family
    /// plus three seeded mixes. Ids are stable — tests, docs and store
    /// artifacts reference them.
    pub fn standard() -> Corpus {
        let specs = [
            CorpusSpec::Counter { width: 8 },
            CorpusSpec::Counter { width: 16 },
            CorpusSpec::LfsrPipeline { width: 8, depth: 2 },
            CorpusSpec::LfsrPipeline {
                width: 16,
                depth: 4,
            },
            CorpusSpec::Alu { width: 4 },
            CorpusSpec::Alu { width: 8 },
            CorpusSpec::Fifo {
                addr_bits: 2,
                width: 4,
            },
            CorpusSpec::Fifo {
                addr_bits: 3,
                width: 8,
            },
            CorpusSpec::Crc { width: 4 },
            CorpusSpec::Crc { width: 8 },
            CorpusSpec::RegFile {
                addr_bits: 2,
                width: 4,
            },
            CorpusSpec::RegFile {
                addr_bits: 3,
                width: 8,
            },
            CorpusSpec::Mix { stages: 3, seed: 1 },
            CorpusSpec::Mix { stages: 4, seed: 7 },
            CorpusSpec::Mix {
                stages: 5,
                seed: 23,
            },
        ];
        let mut corpus = Corpus::new();
        for spec in specs {
            corpus
                .register(spec)
                .expect("standard catalog ids are unique");
        }
        corpus
    }

    /// Register a generated instance under its canonical id.
    ///
    /// # Errors
    ///
    /// Fails on invalid parameters or a duplicate id.
    pub fn register(&mut self, spec: CorpusSpec) -> Result<(), String> {
        spec.validate()?;
        let id = spec.id();
        if self.entries.iter().any(|e| e.id == id) {
            return Err(format!("corpus id `{id}` is already registered"));
        }
        self.entries.push(CorpusEntry { id, spec });
        Ok(())
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// All ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.id.as_str())
    }

    /// Look up an entry by id.
    pub fn get(&self, id: &str) -> Option<&CorpusEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Build the netlist registered under `id`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown id.
    pub fn build(&self, id: &str) -> Result<Netlist, String> {
        self.get(id)
            .map(CorpusEntry::build)
            .ok_or_else(|| format!("corpus id `{id}` is not registered"))
    }
}

/// Resolve a corpus id to a netlist: a [`Corpus::standard`] entry, or any
/// valid [`CorpusSpec`] id (sizes beyond the standard catalog work too).
/// This is what `ffr run --circuit corpus:<id>` goes through.
///
/// # Errors
///
/// Fails when the id neither names a standard entry nor parses as a spec.
pub fn resolve(id: &str) -> Result<Netlist, String> {
    if let Ok(netlist) = Corpus::standard().build(id) {
        return Ok(netlist);
    }
    CorpusSpec::parse(id).map(|spec| spec.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_sim::{CompiledCircuit, SimState};

    #[test]
    fn standard_catalog_ids_are_stable() {
        let ids: Vec<String> = Corpus::standard().ids().map(str::to_string).collect();
        assert_eq!(
            ids,
            [
                "cnt8",
                "cnt16",
                "lfsr8x2",
                "lfsr16x4",
                "alu4",
                "alu8",
                "fifo2x4",
                "fifo3x8",
                "crc4",
                "crc8",
                "regfile2x4",
                "regfile3x8",
                "mix3s1",
                "mix4s7",
                "mix5s23",
            ]
        );
    }

    #[test]
    fn ids_round_trip_through_parse() {
        for entry in Corpus::standard().entries() {
            let spec = entry.spec();
            let parsed = CorpusSpec::parse(entry.id()).unwrap();
            assert_eq!(&parsed, spec, "{}", entry.id());
            assert_eq!(parsed.id(), entry.id());
        }
        assert!(CorpusSpec::parse("bogus9").is_err());
        assert!(CorpusSpec::parse("cnt").is_err());
        assert!(CorpusSpec::parse("fifo9x9").is_err(), "addr_bits bound");
        assert!(CorpusSpec::parse("lfsr5x2").is_err(), "tap table bound");
        assert!(CorpusSpec::parse("mix3").is_err(), "mix needs a seed");
    }

    #[test]
    fn every_standard_entry_builds_compiles_and_hashes_stably() {
        for entry in Corpus::standard().entries() {
            let netlist = entry.build();
            assert!(netlist.num_ffs() > 0, "{} has flip-flops", entry.id());
            assert_eq!(
                netlist.content_hash(),
                entry.build().content_hash(),
                "{} rebuild is structurally identical",
                entry.id()
            );
            CompiledCircuit::compile(netlist)
                .unwrap_or_else(|e| panic!("{} compiles: {e}", entry.id()));
        }
    }

    #[test]
    fn sampled_specs_always_build() {
        for kind in 0..7 {
            for a in 0..4 {
                for (b_param, seed) in [(0, 0u64), (3, 0x5EED), (5, u64::MAX)] {
                    let spec = CorpusSpec::sampled(kind, a, b_param, seed);
                    let netlist = spec.build();
                    CompiledCircuit::compile(netlist)
                        .unwrap_or_else(|e| panic!("{} compiles: {e}", spec.id()));
                }
            }
        }
    }

    #[test]
    fn mix_seed_changes_structure() {
        let a = mix_circuit(4, 1);
        let b = mix_circuit(4, 2);
        assert_ne!(
            a.content_hash(),
            b.content_hash(),
            "different seeds give different structures"
        );
        let a2 = mix_circuit(4, 1);
        assert_eq!(a.content_hash(), a2.content_hash(), "same seed rebuilds");
    }

    #[test]
    fn register_file_reads_back_writes() {
        let cc = CompiledCircuit::compile(register_file(2, 4)).unwrap();
        let mut s = SimState::new(&cc);
        // Write 0b1010 to row 3: wen=1, waddr=3, wdata=0b1010, raddr=3.
        let set_bus = |s: &mut SimState, base: usize, width: usize, v: u64| {
            for i in 0..width {
                s.set_input(&cc, base + i, (v >> i) & 1 == 1);
            }
        };
        s.set_input(&cc, 0, true); // wen
        set_bus(&mut s, 1, 2, 3); // waddr
        set_bus(&mut s, 3, 4, 0b1010); // wdata
        set_bus(&mut s, 7, 2, 3); // raddr
        s.eval(&cc);
        s.tick(&cc); // row3 <- 0b1010
        s.set_input(&cc, 0, false);
        s.eval(&cc);
        s.tick(&cc); // rdata <- row3
        s.eval(&cc);
        let rdata = (0..4).fold(0u64, |acc, i| acc | ((s.output_word(&cc, i) & 1) << i));
        assert_eq!(rdata, 0b1010);
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut corpus = Corpus::new();
        assert!(corpus.register(CorpusSpec::Counter { width: 8 }).is_ok());
        assert!(corpus.register(CorpusSpec::Counter { width: 8 }).is_err());
    }
}
