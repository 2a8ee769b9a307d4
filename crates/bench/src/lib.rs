//! Shared experiment harness for the experiment binaries.
//!
//! Campaign artifacts (golden runs, the **reference dataset** of MAC
//! features + flat-campaign FDR, SET tables) are the expensive step, so
//! they are cached in an artifact store under `target/ffr-cache/`, keyed
//! by the netlist and the experiment scale.
//!
//! `paper_tables` always runs the paper's setting. `policy_study` and
//! `set_derating` read the scale from the `FFR_SCALE` environment
//! variable:
//!
//! * `paper` (default) — the paper's setting: 1054-FF MAC, 170 injections
//!   per flip-flop;
//! * `quick` — a reduced MAC and fewer injections, for smoke runs and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod drift;
pub mod policy_study;

use ffr_campaign::{
    run_resumable, AdaptivePolicy, ArtifactKind, ArtifactStore, CampaignCheckpoint, CancelToken,
    CheckpointParams, RunnerOptions, StoreKey,
};
use ffr_circuits::{Mac10geConfig, MacJudge, MacTestbench, PacketExtractor, TrafficConfig};
use ffr_core::ReferenceDataset;
use ffr_fault::{Campaign, FaultKind, SetDeratingTable};
use ffr_features::extract_features;
use ffr_sim::{CompiledCircuit, GoldenRun, WatchList};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full setting (default).
    Paper,
    /// Reduced setting for smoke runs (`FFR_SCALE=quick`).
    Quick,
}

impl Scale {
    /// Read the scale from `FFR_SCALE` (default: `paper`).
    pub fn from_env() -> Scale {
        match std::env::var("FFR_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Paper,
        }
    }

    /// Cache-key tag.
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }

    /// MAC configuration at this scale.
    pub(crate) fn mac_config(self) -> Mac10geConfig {
        match self {
            Scale::Paper => Mac10geConfig::default(),
            Scale::Quick => Mac10geConfig::small(),
        }
    }

    /// Traffic configuration at this scale.
    pub fn traffic(self) -> TrafficConfig {
        match self {
            Scale::Paper => TrafficConfig::default(),
            Scale::Quick => TrafficConfig::small(),
        }
    }

    /// Injections per flip-flop at this scale (the paper uses 170).
    pub fn injections_per_ff(self) -> usize {
        match self {
            Scale::Paper => 170,
            Scale::Quick => 24,
        }
    }
}

/// Cache directory (`target/ffr-cache`), created on demand.
///
/// Now the root of a content-addressed [`ArtifactStore`] rather than a
/// pile of ad-hoc JSON files: artifacts are keyed by the netlist and the
/// full experiment configuration, so changing the MAC or campaign knobs
/// misses cleanly instead of serving stale data.
pub(crate) fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ffr-cache");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

/// The experiment artifact store rooted at [`cache_dir`].
pub(crate) fn artifact_store() -> ArtifactStore {
    ArtifactStore::open(cache_dir()).expect("open artifact store")
}

/// Content-address of the reference dataset at `scale`.
fn dataset_key(scale: Scale, cc: &CompiledCircuit) -> StoreKey {
    StoreKey::of(
        cc.netlist(),
        &format!(
            "bench-dataset;scale={};traffic={:?};injections={};seed=2019",
            scale.tag(),
            scale.traffic(),
            scale.injections_per_ff()
        ),
    )
}

/// The compiled MAC experiment environment.
pub struct MacSetup {
    /// Compiled circuit.
    pub cc: CompiledCircuit,
    /// Packet testbench.
    pub tb: MacTestbench,
    /// Watched outputs.
    pub watch: WatchList,
    /// RX packet decoder.
    pub extractor: PacketExtractor,
    /// Scale the setup was built at (part of the artifact cache address).
    pub scale: Scale,
}

/// Build the MAC, testbench and watch list at the given scale.
pub fn mac_setup(scale: Scale) -> MacSetup {
    let (cc, tb, watch, extractor) = MacTestbench::setup(scale.mac_config(), &scale.traffic());
    MacSetup {
        cc,
        tb,
        watch,
        extractor,
        scale,
    }
}

/// The golden reference run for a setup, served from the artifact store
/// when available (it is the most expensive part of experiment setup). A
/// served run that does not [fit](GoldenRun::fits) the setup is
/// recaptured and overwritten.
pub fn golden_run(setup: &MacSetup) -> GoldenRun {
    let store = artifact_store();
    let scale = setup.scale;
    let key = StoreKey::of(
        setup.cc.netlist(),
        &format!(
            "bench-golden;scale={};traffic={:?}",
            scale.tag(),
            scale.traffic()
        ),
    );
    if let Ok(Some(golden)) = store.get::<GoldenRun>(ArtifactKind::GoldenRun, &key) {
        if golden.fits(&setup.cc, &setup.tb, &setup.watch) {
            return golden;
        }
    }
    let golden = GoldenRun::capture(&setup.cc, &setup.tb, &setup.watch);
    if let Err(e) = store.put(ArtifactKind::GoldenRun, &key, &golden) {
        eprintln!("[ffr-bench] warning: failed to cache golden run: {e}");
    }
    golden
}

/// Run the MAC campaign of `setup` over `points` (raw ids of `fault`'s
/// injection points) through the campaign runner: the scale's fixed
/// plan, seed 2019, the packet-level judge. Returns the completed
/// checkpoint; progress goes to stderr.
pub fn run_mac_campaign(
    setup: &MacSetup,
    golden: GoldenRun,
    fault: FaultKind,
    points: Vec<u32>,
) -> CampaignCheckpoint {
    let judge = MacJudge::new(setup.extractor.clone(), &golden);
    let campaign = Campaign::with_golden(&setup.cc, &setup.tb, &setup.watch, &judge, golden);
    let window = setup.tb.injection_window();
    let params = CheckpointParams {
        fault,
        seed: 2019,
        window_start: window.start,
        window_end: window.end,
        policy: AdaptivePolicy::fixed(setup.scale.injections_per_ff()),
    };
    eprintln!(
        "[ffr-bench] running {fault} campaign: {} points x {} injections...",
        points.len(),
        params.policy.max_injections
    );
    let mut checkpoint = CampaignCheckpoint::fresh(setup.scale.tag().into(), params, points);
    let t0 = Instant::now();
    run_resumable(
        &campaign,
        &mut checkpoint,
        &RunnerOptions::default(),
        &CancelToken::new(),
        |done, total| {
            if done % 100 == 0 || done == total {
                eprint!("\r[ffr-bench] {done}/{total} points");
                let _ = std::io::stderr().flush();
            }
        },
    )
    .expect("an in-memory campaign writes nothing");
    eprintln!(
        "\n[ffr-bench] {fault} campaign done in {:.1?}",
        t0.elapsed()
    );
    checkpoint
}

/// Load the cached reference dataset for `setup`, or run the full flat
/// campaign (§IV-A) and cache it in the artifact store. `force` re-runs
/// the campaign even when the dataset is cached.
pub fn load_or_collect_dataset(setup: &MacSetup, force: bool) -> ReferenceDataset {
    let store = artifact_store();
    let key = dataset_key(setup.scale, &setup.cc);
    if !force {
        if let Ok(Some(ds)) = store.get::<ReferenceDataset>(ArtifactKind::Dataset, &key) {
            eprintln!("[ffr-bench] dataset served from artifact store ({key})");
            return ds;
        }
    }
    let golden = golden_run(setup);
    let features = extract_features(&setup.cc, &golden.activity);
    let num_ffs = setup.cc.num_ffs();
    let checkpoint = run_mac_campaign(setup, golden, FaultKind::Seu, (0..num_ffs as u32).collect());
    let ds = ReferenceDataset {
        features,
        fdr: checkpoint.to_fdr_table_for(num_ffs).dense_fdr(),
        injections_per_ff: setup.scale.injections_per_ff(),
    };
    if let Err(e) = store.put(ArtifactKind::Dataset, &key, &ds) {
        eprintln!("[ffr-bench] warning: failed to cache dataset: {e}");
    }
    ds
}

/// SET-campaign target nets for a setup: every combinational op output
/// at paper scale, a deterministic 1-in-8 stratified subsample at quick
/// scale (the SET universe is several times larger than the flip-flop
/// one, and smoke runs only need the shape of the distribution).
fn set_target_nets(scale: Scale, cc: &CompiledCircuit) -> Vec<u32> {
    let nets = cc.comb_output_nets().into_iter().map(|n| n.index() as u32);
    match scale {
        Scale::Paper => nets.collect(),
        Scale::Quick => nets.step_by(8).collect(),
    }
}

/// Load the cached SET de-rating table for `scale`, or run the
/// combinational-net transient campaign over `set_target_nets` and
/// cache it in the artifact store.
pub fn load_or_run_set_table(scale: Scale) -> SetDeratingTable {
    let store = artifact_store();
    let setup = mac_setup(scale);
    let key = StoreKey::of(
        setup.cc.netlist(),
        &format!(
            "bench-set-table;scale={};traffic={:?};injections={};seed=2019",
            scale.tag(),
            scale.traffic(),
            scale.injections_per_ff()
        ),
    );
    if let Ok(Some(table)) = store.get::<SetDeratingTable>(ArtifactKind::SetTable, &key) {
        eprintln!("[ffr-bench] SET table served from artifact store ({key})");
        return table;
    }
    let nets = set_target_nets(scale, &setup.cc);
    let table = run_mac_campaign(&setup, golden_run(&setup), FaultKind::Set, nets).to_set_table();
    if let Err(e) = store.put(ArtifactKind::SetTable, &key, &table) {
        eprintln!("[ffr-bench] warning: failed to cache SET table: {e}");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing_default() {
        assert_eq!(Scale::Paper.tag(), "paper");
        assert_eq!(Scale::Quick.tag(), "quick");
        assert_eq!(Scale::Quick.injections_per_ff(), 24);
        assert!(
            Scale::Paper.mac_config().fifo_addr_bits >= Scale::Quick.mac_config().fifo_addr_bits
        );
    }

    #[test]
    fn cache_dir_exists() {
        let d = cache_dir();
        assert!(d.exists());
    }
}
