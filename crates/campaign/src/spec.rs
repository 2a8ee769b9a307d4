//! Named circuit specifications for the `ffr` CLI.
//!
//! A [`CircuitSpec`] resolves a circuit name (`counter`, `lfsr`, `alu`,
//! `traffic`, `mac-small`, `mac`) into everything a campaign needs: the
//! compiled circuit, a deterministic stimulus, the watch list, and the
//! failure judge appropriate for the design (the paper's packet-level
//! [`MacJudge`] for the MAC, the strict [`OutputMismatchJudge`] for the
//! generic circuits). The spec also renders the configuration description
//! string that feeds the artifact-store key, so every knob that changes
//! campaign results changes the cache address.

use ffr_circuits::corpus::{self, Corpus, CorpusSpec};
use ffr_circuits::{small, Mac10geConfig, MacJudge, MacTestbench, PacketExtractor, TrafficConfig};
use ffr_fault::{FailureClass, FailureJudge, OutputMismatchJudge};
use ffr_netlist::verilog;
use ffr_sim::{CompiledCircuit, GoldenRun, InputFrame, LaneView, Stimulus, WatchList};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::str::FromStr;

/// A named circuit the CLI can run campaigns on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSpec {
    /// Enabled wrap-around counter (`small::counter_circuit`).
    Counter {
        /// Counter width in bits.
        width: usize,
    },
    /// LFSR + register pipeline (`small::lfsr_pipeline`).
    Lfsr {
        /// LFSR width in bits.
        width: usize,
        /// Pipeline depth in stages.
        depth: usize,
    },
    /// Registered ALU (`small::alu_circuit`).
    Alu {
        /// Operand width in bits.
        width: usize,
    },
    /// Traffic-light FSM (`small::traffic_light`).
    TrafficLight,
    /// The 10GE-MAC-like design at reduced scale.
    MacSmall,
    /// The 10GE-MAC-like design at the paper's scale (~1054 FFs).
    Mac,
    /// A corpus-catalog circuit (`corpus:<id>`, e.g. `corpus:fifo2x4`) —
    /// any [`Corpus::standard`] entry or valid [`CorpusSpec`] id.
    Corpus {
        /// Corpus id (see [`ffr_circuits::corpus`]).
        id: String,
    },
    /// A structural-Verilog design read from a file (`verilog:<path>`),
    /// parsed directly and keyed in the store by its content hash.
    Verilog {
        /// Path to the Verilog source.
        path: PathBuf,
    },
}

impl CircuitSpec {
    /// Every recognised circuit name, for help output.
    pub(crate) const NAMES: [&'static str; 8] = [
        "counter",
        "lfsr",
        "alu",
        "traffic",
        "mac-small",
        "mac",
        "corpus",
        "verilog",
    ];

    /// Canonical name of the spec (without parameters).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            CircuitSpec::Counter { .. } => "counter",
            CircuitSpec::Lfsr { .. } => "lfsr",
            CircuitSpec::Alu { .. } => "alu",
            CircuitSpec::TrafficLight => "traffic",
            CircuitSpec::MacSmall => "mac-small",
            CircuitSpec::Mac => "mac",
            CircuitSpec::Corpus { .. } => "corpus",
            CircuitSpec::Verilog { .. } => "verilog",
        }
    }

    /// Full round-trippable form including parameters (what the session
    /// manifest persists): `counter:6`, `lfsr:8:4`, …
    pub(crate) fn spec_string(&self) -> String {
        match self {
            CircuitSpec::Counter { width } => format!("counter:{width}"),
            CircuitSpec::Lfsr { width, depth } => format!("lfsr:{width}:{depth}"),
            CircuitSpec::Alu { width } => format!("alu:{width}"),
            CircuitSpec::TrafficLight => "traffic".to_string(),
            CircuitSpec::MacSmall => "mac-small".to_string(),
            CircuitSpec::Mac => "mac".to_string(),
            CircuitSpec::Corpus { id } => format!("corpus:{id}"),
            CircuitSpec::Verilog { path } => format!("verilog:{}", path.display()),
        }
    }

    /// Build the circuit, testbench and judge blueprint.
    ///
    /// `stim_seed` and `cycles` parameterize the generic pseudo-random
    /// stimulus; the MAC variants use the packet testbench's own schedule
    /// instead (seeded from `stim_seed`).
    pub fn prepare(&self, stim_seed: u64, cycles: u64) -> PreparedCircuit {
        match self {
            CircuitSpec::Counter { width } => self.prepare_small(
                small::counter_circuit(*width),
                stim_seed,
                cycles,
                format!("circuit=counter;width={width}"),
            ),
            CircuitSpec::Lfsr { width, depth } => self.prepare_small(
                small::lfsr_pipeline(*width, *depth),
                stim_seed,
                cycles,
                format!("circuit=lfsr;width={width};depth={depth}"),
            ),
            CircuitSpec::Alu { width } => self.prepare_small(
                small::alu_circuit(*width),
                stim_seed,
                cycles,
                format!("circuit=alu;width={width}"),
            ),
            CircuitSpec::TrafficLight => self.prepare_small(
                small::traffic_light(),
                stim_seed,
                cycles,
                "circuit=traffic".to_string(),
            ),
            CircuitSpec::MacSmall => Self::prepare_mac(
                Mac10geConfig::small(),
                TrafficConfig::small(),
                stim_seed,
                "mac-small",
            ),
            CircuitSpec::Mac => Self::prepare_mac(
                Mac10geConfig::default(),
                TrafficConfig::default(),
                stim_seed,
                "mac",
            ),
            CircuitSpec::Corpus { id } => {
                let netlist = corpus::resolve(id)
                    .unwrap_or_else(|e| panic!("corpus id validated at parse time: {e}"));
                self.prepare_small(netlist, stim_seed, cycles, format!("circuit=corpus:{id}"))
            }
            CircuitSpec::Verilog { path } => {
                let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    panic!("cannot read Verilog source `{}`: {e}", path.display())
                });
                let netlist = verilog::parse(&source).unwrap_or_else(|e| {
                    panic!("cannot parse Verilog source `{}`: {e}", path.display())
                });
                // Key the store entry on design content, not the path: the
                // same file moved elsewhere must hit the same cache entry,
                // and an edited file must miss.
                let desc = format!(
                    "circuit=verilog;module={};hash={:016x}",
                    netlist.name(),
                    netlist.content_hash()
                );
                self.prepare_small(netlist, stim_seed, cycles, desc)
            }
        }
    }

    /// Validate the parts of a spec that touch the environment (the
    /// Verilog source file) without building anything — called by the
    /// session layer so CLI users get an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing/invalid source.
    pub(crate) fn validate_sources(&self) -> Result<(), String> {
        if let CircuitSpec::Verilog { path } = self {
            let source = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read Verilog source `{}`: {e}", path.display()))?;
            verilog::parse(&source)
                .map_err(|e| format!("cannot parse Verilog source `{}`: {e}", path.display()))?;
        }
        Ok(())
    }

    fn prepare_small(
        &self,
        netlist: ffr_netlist::Netlist,
        stim_seed: u64,
        cycles: u64,
        desc: String,
    ) -> PreparedCircuit {
        let cc = CompiledCircuit::compile(netlist).expect("library circuit compiles");
        let stimulus = BoxedStimulus(Box::new(HashStimulus {
            num_inputs: cc.num_inputs(),
            cycles,
            seed: stim_seed,
        }));
        let watch = WatchList::all(&cc);
        // Leave settling margin at both ends of the run. The session layer
        // rejects short testbenches up front (`session::MIN_CYCLES`); this
        // assert guards direct programmatic use.
        assert!(
            cycles >= crate::session::MIN_CYCLES,
            "testbench of {cycles} cycles leaves no injection window"
        );
        let window = (cycles / 16).max(1)..cycles - (cycles / 8).max(1);
        let config_desc = format!("{desc};stim=hash;stim_seed={stim_seed};cycles={cycles}");
        PreparedCircuit {
            cc,
            stimulus,
            watch,
            judge_spec: JudgeSpec::OutputMismatch,
            window,
            config_desc,
        }
    }

    fn prepare_mac(
        mac_cfg: Mac10geConfig,
        mut traffic: TrafficConfig,
        stim_seed: u64,
        tag: &str,
    ) -> PreparedCircuit {
        traffic.seed = stim_seed;
        let (cc, tb, watch, extractor) = MacTestbench::setup(mac_cfg.clone(), &traffic);
        let window = tb.injection_window();
        let config_desc = format!(
            "circuit={tag};mac={mac_cfg:?};traffic={traffic:?};cycles={}",
            tb.num_cycles()
        );
        PreparedCircuit {
            cc,
            stimulus: BoxedStimulus(Box::new(tb)),
            watch,
            judge_spec: JudgeSpec::Mac(extractor),
            window,
            config_desc,
        }
    }
}

impl FromStr for CircuitSpec {
    type Err = String;

    /// Parse `name[:param[:param]]`: `counter[:width]`,
    /// `lfsr[:width[:depth]]`, `alu[:width]`, `traffic`, `mac-small`,
    /// `mac`, `corpus:<id>`, `verilog:<path>`. LFSR widths are limited by
    /// the tap table (4, 8, 16, 24, 32).
    fn from_str(s: &str) -> Result<CircuitSpec, String> {
        // Corpus ids and file paths have their own grammars; take the
        // whole remainder after the first `:` (paths may contain `:`).
        if let Some(rest) = s.strip_prefix("corpus:") {
            // Accept any id `prepare` can resolve: standard catalog
            // entries or parametric generator ids.
            if Corpus::standard().get(rest).is_none() {
                CorpusSpec::parse(rest)?;
            }
            return Ok(CircuitSpec::Corpus {
                id: rest.to_string(),
            });
        }
        if let Some(rest) = s.strip_prefix("verilog:") {
            if rest.is_empty() {
                return Err("verilog spec needs a file path (verilog:<path>)".to_string());
            }
            return Ok(CircuitSpec::Verilog {
                path: PathBuf::from(rest),
            });
        }
        if s == "corpus" || s == "verilog" {
            return Err(format!("`{s}` needs a parameter (`{s}:<...>`)"));
        }
        let mut parts = s.split(':');
        let name = parts.next().unwrap_or_default();
        let mut param = |default: usize| -> Result<usize, String> {
            match parts.next() {
                None => Ok(default),
                Some(p) => p
                    .parse::<usize>()
                    .map_err(|e| format!("bad parameter `{p}` in `{s}`: {e}"))
                    .and_then(|n| {
                        if n == 0 {
                            Err(format!("parameter in `{s}` must be positive"))
                        } else {
                            Ok(n)
                        }
                    }),
            }
        };
        let spec = match name {
            "counter" => CircuitSpec::Counter { width: param(8)? },
            "lfsr" => CircuitSpec::Lfsr {
                width: param(8)?,
                depth: param(4)?,
            },
            "alu" => CircuitSpec::Alu { width: param(8)? },
            "traffic" => CircuitSpec::TrafficLight,
            "mac-small" => CircuitSpec::MacSmall,
            "mac" => CircuitSpec::Mac,
            other => {
                return Err(format!(
                    "unknown circuit `{other}` (expected one of: {})",
                    CircuitSpec::NAMES.join(", ")
                ))
            }
        };
        if let CircuitSpec::Lfsr { width, .. } = spec {
            if ![4, 8, 16, 24, 32].contains(&width) {
                return Err(format!(
                    "lfsr width {width} unsupported (tap table covers 4, 8, 16, 24, 32)"
                ));
            }
        }
        if parts.next().is_some() {
            return Err(format!("too many parameters in `{s}`"));
        }
        Ok(spec)
    }
}

impl fmt::Display for CircuitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a campaign needs, resolved from a [`CircuitSpec`].
pub struct PreparedCircuit {
    /// The compiled circuit under test.
    pub cc: CompiledCircuit,
    /// Deterministic open-loop stimulus.
    pub stimulus: BoxedStimulus,
    /// Watched outputs for failure classification.
    pub watch: WatchList,
    /// How to build the failure judge once a golden run exists.
    pub judge_spec: JudgeSpec,
    /// Default injection window (the active phase).
    pub window: Range<u64>,
    /// Store-key configuration description (circuit + stimulus knobs).
    pub config_desc: String,
}

/// Boxed stimulus with a [`Stimulus`] impl (the campaign engine is generic;
/// the CLI needs runtime dispatch).
pub struct BoxedStimulus(Box<dyn Stimulus + Send + Sync>);

impl Stimulus for BoxedStimulus {
    fn num_cycles(&self) -> u64 {
        self.0.num_cycles()
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        self.0.drive(cycle, frame)
    }
}

/// Pseudo-random but replay-safe stimulus: every input bit is a pure hash
/// of `(seed, cycle, input)`, so arbitrary suffixes replay identically —
/// the property the fault engine's checkpoint restart requires.
struct HashStimulus {
    num_inputs: usize,
    cycles: u64,
    seed: u64,
}

impl HashStimulus {
    fn bit(&self, cycle: u64, input: usize) -> bool {
        let mut z = self
            .seed
            .wrapping_add(cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((input as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 1 == 1
    }
}

impl Stimulus for HashStimulus {
    fn num_cycles(&self) -> u64 {
        self.cycles
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        for input in 0..self.num_inputs {
            frame.set(input, self.bit(cycle, input));
        }
    }
}

/// How the CLI builds a failure judge for a circuit.
pub enum JudgeSpec {
    /// Strict any-output-deviation judge.
    OutputMismatch,
    /// The paper's packet-level MAC judge.
    Mac(PacketExtractor),
}

impl JudgeSpec {
    /// Build the judge against a captured (or cached) golden run.
    pub fn build(&self, golden: &GoldenRun) -> CliJudge {
        match self {
            JudgeSpec::OutputMismatch => CliJudge::Mismatch(OutputMismatchJudge::new()),
            JudgeSpec::Mac(extractor) => CliJudge::Mac(MacJudge::new(extractor.clone(), golden)),
        }
    }
}

/// Runtime-dispatched failure judge for the CLI.
pub enum CliJudge {
    /// Generic output-deviation judge.
    Mismatch(OutputMismatchJudge),
    /// Packet-level MAC judge.
    Mac(MacJudge),
}

impl FailureJudge for CliJudge {
    fn classify(
        &self,
        golden: &LaneView<'_>,
        faulty: &LaneView<'_>,
        inject_cycle: u64,
    ) -> FailureClass {
        match self {
            CliJudge::Mismatch(j) => j.classify(golden, faulty, inject_cycle),
            CliJudge::Mac(j) => j.classify(golden, faulty, inject_cycle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_parse_and_prepare() {
        for name in CircuitSpec::NAMES {
            if name.starts_with("mac") {
                continue; // covered separately; slower to elaborate
            }
            if name == "verilog" {
                continue; // needs a source file; covered below
            }
            let full = if name == "corpus" {
                "corpus:fifo2x4"
            } else {
                name
            };
            let spec: CircuitSpec = full.parse().unwrap();
            assert_eq!(spec.name(), name);
            let prepared = spec.prepare(1, 200);
            assert!(prepared.cc.num_ffs() > 0);
            assert!(prepared.window.start < prepared.window.end);
            assert!(prepared.window.end < prepared.stimulus.num_cycles());
            assert!(prepared
                .config_desc
                .contains(name.split('-').next().unwrap()));
        }
        assert!("bogus".parse::<CircuitSpec>().is_err());
    }

    #[test]
    fn corpus_specs_parse_and_round_trip() {
        // A standard catalog id and an off-catalog parametric id.
        for id in ["fifo2x4", "cnt5", "mix2s99"] {
            let s = format!("corpus:{id}");
            let spec: CircuitSpec = s.parse().unwrap();
            assert_eq!(spec.spec_string(), s);
            let prepared = spec.prepare(1, 200);
            assert!(prepared.cc.num_ffs() > 0);
            assert!(prepared.config_desc.contains(&s));
        }
        assert!("corpus:nope1".parse::<CircuitSpec>().is_err());
        assert!("corpus".parse::<CircuitSpec>().is_err());
    }

    #[test]
    fn verilog_specs_prepare_from_a_file() {
        use ffr_netlist::verilog;
        let dir = std::env::temp_dir().join(format!("ffr_spec_verilog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cnt.v");
        let netlist = small::counter_circuit(5);
        std::fs::write(&path, verilog::emit(&netlist)).unwrap();

        let s = format!("verilog:{}", path.display());
        let spec: CircuitSpec = s.parse().unwrap();
        assert_eq!(spec.spec_string(), s);
        spec.validate_sources().unwrap();
        let prepared = spec.prepare(1, 200);
        assert_eq!(prepared.cc.num_ffs(), netlist.num_ffs());
        // The cache key carries the content hash, not the path.
        assert!(prepared
            .config_desc
            .contains(&format!("hash={:016x}", netlist.content_hash())));
        assert!(!prepared.config_desc.contains("cnt.v"));

        let missing = CircuitSpec::Verilog {
            path: dir.join("missing.v"),
        };
        assert!(missing.validate_sources().is_err());
        assert!("verilog".parse::<CircuitSpec>().is_err());
        assert!("verilog:".parse::<CircuitSpec>().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hash_stimulus_is_replay_safe() {
        let s = HashStimulus {
            num_inputs: 5,
            cycles: 50,
            seed: 3,
        };
        let mut a = InputFrame::new(5);
        let mut b = InputFrame::new(5);
        for cycle in [0u64, 17, 49] {
            a.clear();
            s.drive(cycle, &mut a);
            b.clear();
            s.drive(cycle, &mut b);
            // Same cycle → identical frame, regardless of replay order.
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "cycle {cycle}");
        }
        // Bits vary across cycles and inputs (not constant).
        let bits: Vec<bool> = (0..50).map(|c| s.bit(c, 0)).collect();
        assert!(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b));
    }

    #[test]
    fn config_desc_distinguishes_stimulus_seeds() {
        let spec = CircuitSpec::Counter { width: 8 };
        let a = spec.prepare(1, 200).config_desc;
        let b = spec.prepare(2, 200).config_desc;
        assert_ne!(a, b);
    }
}
