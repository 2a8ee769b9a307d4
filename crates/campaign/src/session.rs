//! Campaign sessions: durable, named campaign runs rooted in an output
//! directory.
//!
//! A session directory holds:
//!
//! ```text
//! <out>/
//!   campaign.json        — manifest: circuit, fault model, stimulus, seed,
//!                          policy, store
//!   checkpoint.json      — the campaign's point list: written empty when
//!                          a runner first opens the session, and as the
//!                          complete compaction when it publishes
//!   shards/shard-<a>-<b>.json
//!                        — progress of point range a..b (atomic renames),
//!                          written by whichever runner retired it
//!   leases/              — `ffr worker` range leases
//!   fdr.json / fdr.csv   — final SEU FDR table (written on completion)
//!   set-derating.json / set-derating.csv
//!                        — final SET de-rating table (SET campaigns)
//! ```
//!
//! `run` creates the manifest and drives the campaign; `resume` reloads
//! manifest + checkpoint + shards and continues; `worker` drains it
//! through the directory's lease queue — the final table is
//! byte-identical whichever of them starts or finishes the campaign, for
//! both fault models, because all three are one driver (the private
//! `Session`: open → merge shards → measure → merge → publish) and all
//! three persist progress as the same per-range shards. When a store is
//! configured, the golden run and the final table are cached
//! content-addressed: a rerun with identical inputs is served from the
//! cache without re-simulating anything.

use crate::adaptive::AdaptivePolicy;
use crate::checkpoint::{CampaignCheckpoint, CheckpointParams};
use crate::runner::{run_with_source, CancelToken, RunOutcome, RunnerOptions};
use crate::spec::{CircuitSpec, PreparedCircuit};
use crate::store::{ArtifactKind, ArtifactStore, StoreKey};
use crate::work::{self, LeaseQueue, LocalSource, Shards, WorkSource, RANGE_POINTS};
use ffr_fault::{Campaign, FaultKind, FdrTable, SetDeratingTable};
use ffr_sim::GoldenRun;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Manifest format version (3: budgeted sessions — v2 manifests lack the
/// `budget` field).
pub(crate) const MANIFEST_VERSION: u32 = 3;

/// Worker id of the single-process runner (`ffr run` / `ffr resume`): it
/// names that process's telemetry log and the shards it writes.
const LOCAL_WORKER: &str = "local";

/// Shortest testbench that still leaves a non-empty injection window
/// with settling margins (see [`CircuitSpec::prepare`]).
pub(crate) const MIN_CYCLES: u64 = 32;

/// Everything needed to reproduce (and resume) a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CampaignManifest {
    /// Format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Circuit name (parsed by [`CircuitSpec`]).
    pub circuit: String,
    /// Fault model of the campaign.
    pub fault: FaultKind,
    /// Stimulus seed.
    pub stim_seed: u64,
    /// Testbench length for the generic stimulus (ignored by the MAC
    /// testbench, which derives its own schedule).
    pub cycles: u64,
    /// Campaign master seed.
    pub seed: u64,
    /// Adaptive stopping policy.
    pub policy: AdaptivePolicy,
    /// Measurement budget: the fraction of injection points actually
    /// fault-injected (1.0 = full campaign). A budgeted SEU session
    /// produces a *partial* FDR table whose unmeasured flip-flops are
    /// filled in by `ffr estimate`.
    pub budget: f64,
    /// Artifact store root (`None` disables caching).
    pub store: Option<String>,
    /// Content fingerprint of (netlist, stimulus, campaign params); also
    /// the store key of the final table.
    pub fingerprint: String,
}

impl CampaignManifest {
    /// Save as pretty JSON (atomic rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        crate::store::atomic_write(path, &json)
    }

    /// Load a manifest written by [`CampaignManifest::save`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, undecodable files or a version mismatch. The
    /// version is probed before full deserialization, so a v1 manifest
    /// reports "version 1 unsupported" rather than a missing-field
    /// decode error.
    pub(crate) fn load(path: &Path) -> io::Result<CampaignManifest> {
        crate::store::load_versioned(path, "manifest", MANIFEST_VERSION)
    }
}

/// Well-known file locations inside a session directory.
#[derive(Debug, Clone)]
pub struct SessionPaths {
    /// The session root.
    pub out_dir: PathBuf,
}

impl SessionPaths {
    /// Paths rooted at `out_dir`.
    pub fn new(out_dir: impl Into<PathBuf>) -> SessionPaths {
        SessionPaths {
            out_dir: out_dir.into(),
        }
    }

    /// The manifest file.
    pub(crate) fn manifest(&self) -> PathBuf {
        self.out_dir.join("campaign.json")
    }

    /// The resumable checkpoint file.
    pub fn checkpoint(&self) -> PathBuf {
        self.out_dir.join("checkpoint.json")
    }

    /// The final SEU FDR table (JSON).
    pub fn fdr_json(&self) -> PathBuf {
        self.out_dir.join("fdr.json")
    }

    /// The final SET de-rating table (JSON).
    pub fn set_json(&self) -> PathBuf {
        self.out_dir.join("set-derating.json")
    }

    /// The ML estimation report (JSON), written by `ffr estimate`.
    pub fn estimate_json(&self) -> PathBuf {
        self.out_dir.join("estimate.json")
    }

    /// The per-flip-flop estimate table (CSV), written by `ffr estimate`.
    pub(crate) fn estimate_csv(&self) -> PathBuf {
        self.out_dir.join("estimate.csv")
    }

    /// The final result table (JSON) of a campaign with the given fault
    /// model.
    pub(crate) fn table_json(&self, fault: FaultKind) -> PathBuf {
        match fault {
            FaultKind::Seu => self.fdr_json(),
            FaultKind::Set => self.set_json(),
        }
    }

    /// The final result table (CSV) of a campaign with the given fault
    /// model: next to [`SessionPaths::table_json`].
    pub(crate) fn table_csv(&self, fault: FaultKind) -> PathBuf {
        self.table_json(fault).with_extension("csv")
    }

    /// The lease directory of distributed (`ffr worker`) draining.
    pub(crate) fn leases_dir(&self) -> PathBuf {
        self.out_dir.join("leases")
    }

    /// The shard-checkpoint directory of distributed draining.
    pub(crate) fn shards_dir(&self) -> PathBuf {
        self.out_dir.join("shards")
    }

    /// The telemetry directory (per-worker JSONL event logs). Explicitly
    /// outside the artifact store and the campaign fingerprint: telemetry
    /// never participates in resume/merge determinism or cache keys.
    pub(crate) fn telemetry_dir(&self) -> PathBuf {
        ffr_obs::telemetry_dir(&self.out_dir)
    }
}

/// Parameters for starting a fresh campaign session.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Circuit to run on.
    pub circuit: CircuitSpec,
    /// Fault model: SEU over every flip-flop, or SET over every
    /// combinational net.
    pub fault: FaultKind,
    /// Stimulus seed.
    pub stim_seed: u64,
    /// Testbench length for generic circuits.
    pub cycles: u64,
    /// Campaign master seed.
    pub seed: u64,
    /// Stopping policy.
    pub policy: AdaptivePolicy,
    /// Measurement budget: fraction of injection points to fault-inject
    /// (1.0 = all of them). Budgeted SEU campaigns measure a seeded random
    /// flip-flop subset; `ffr estimate` predicts the rest.
    pub budget: f64,
    /// Artifact store root (`None` disables caching).
    pub store: Option<PathBuf>,
    /// Ignore a cached final table and re-run.
    pub force: bool,
}

impl RunRequest {
    /// Sensible defaults for a circuit: SEU fault model, paper-style fixed
    /// 170-injection policy, no store.
    pub fn new(circuit: CircuitSpec) -> RunRequest {
        RunRequest {
            circuit,
            fault: FaultKind::Seu,
            stim_seed: 1,
            cycles: 400,
            seed: 2019,
            policy: AdaptivePolicy::fixed(170),
            budget: 1.0,
            store: None,
            force: false,
        }
    }
}

/// Outcome summary of a `run` / `resume` / `worker` invocation.
#[derive(Debug)]
pub struct RunSummary {
    /// Fault model of the session.
    pub fault: FaultKind,
    /// How this invocation's runner ended (cache-served runs report
    /// `Complete`; [`RunOutcome::Drained`] means other workers computed
    /// part of the campaign).
    pub outcome: RunOutcome,
    /// `true` if the golden run came from the artifact store.
    pub golden_from_cache: bool,
    /// `true` if the final table was served from the artifact store
    /// without simulating anything.
    pub table_from_cache: bool,
    /// Shard checkpoints (all workers') merged into the final view.
    pub merged_shards: usize,
    /// Retired injection points in the merged view.
    pub completed_points: usize,
    /// Total injection points.
    pub total_points: usize,
    /// Injections executed so far (all invocations, all workers).
    pub total_injections: usize,
    /// Path of the final result table — `Some` exactly when the whole
    /// campaign is complete, in which case this invocation published it.
    pub table_path: Option<PathBuf>,
}

/// The two final-table types behind one interface, so cache serving and
/// completion write-out are implemented once instead of per fault model.
trait CampaignTable: serde::Serialize + serde::Deserialize + Sized {
    /// Store kind of the table artifact.
    const KIND: ArtifactKind;
    fn save_json(&self, path: &Path) -> io::Result<()>;
    fn to_csv(&self) -> String;
}

impl CampaignTable for FdrTable {
    const KIND: ArtifactKind = ArtifactKind::FdrTable;
    fn save_json(&self, path: &Path) -> io::Result<()> {
        FdrTable::save_json(self, path)
    }
    fn to_csv(&self) -> String {
        FdrTable::to_csv(self)
    }
}

impl CampaignTable for SetDeratingTable {
    const KIND: ArtifactKind = ArtifactKind::SetTable;
    fn save_json(&self, path: &Path) -> io::Result<()> {
        SetDeratingTable::save_json(self, path)
    }
    fn to_csv(&self) -> String {
        SetDeratingTable::to_csv(self)
    }
}

/// The golden run for a prepared circuit: served from the store when
/// cached — keyed by `(netlist, stimulus config)`, so SEU/SET campaigns,
/// any policy/seed/budget and `ffr estimate` all share one artifact —
/// otherwise captured and published back. A served run that does not
/// [fit](GoldenRun::fits) the circuit is a miss: recaptured and
/// overwritten. Returns whether it was a cache hit. The single definition
/// of the golden-run cache discipline, shared by the campaign driver and
/// the estimation stage.
pub(crate) fn golden_for(
    prepared: &PreparedCircuit,
    store: Option<&ArtifactStore>,
) -> io::Result<(GoldenRun, bool)> {
    let (cc, stimulus, watch) = (&prepared.cc, &prepared.stimulus, &prepared.watch);
    let key = StoreKey::of(cc.netlist(), &prepared.config_desc);
    if let Some(store) = store {
        if let Some(golden) = store.get::<GoldenRun>(ArtifactKind::GoldenRun, &key)? {
            if golden.fits(cc, stimulus, watch) {
                return Ok((golden, true));
            }
        }
    }
    let golden = GoldenRun::capture(cc, stimulus, watch);
    if let Some(store) = store {
        store.put(ArtifactKind::GoldenRun, &key, &golden)?;
    }
    Ok((golden, false))
}

/// The store key of a campaign's final table: a fingerprint of the
/// netlist structure, the stimulus, the fault model and every campaign
/// parameter (window, seed, policy, budget). The policy enters through
/// its canonical spec rendering ([`AdaptivePolicy`]'s `Display`), so two
/// campaigns with different `--policy` values never share a cache entry.
pub fn campaign_table_key(request: &RunRequest, prepared: &PreparedCircuit) -> StoreKey {
    let campaign_desc = format!(
        "{};fault={};window={}..{};seed={};policy={};budget={}",
        prepared.config_desc,
        request.fault,
        prepared.window.start,
        prepared.window.end,
        request.seed,
        request.policy,
        request.budget
    );
    StoreKey::of(prepared.cc.netlist(), &campaign_desc)
}

/// Reject requests that cannot form a valid campaign
/// ([`io::ErrorKind::InvalidInput`]: the caller's fault, not the disk's).
fn validate_request(request: &RunRequest) -> io::Result<()> {
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidInput, message);
    if request.cycles < MIN_CYCLES {
        return Err(invalid(format!(
            "--cycles {} is too short for an injection window (minimum {MIN_CYCLES})",
            request.cycles
        )));
    }
    if !(request.budget > 0.0 && request.budget <= 1.0) {
        return Err(invalid(format!(
            "--budget {} is not a fraction in (0, 1]",
            request.budget
        )));
    }
    request.circuit.validate_sources().map_err(invalid)
}

/// The manifest a request produces, fingerprint aside (pure, so
/// concurrent initializers write identical bytes).
fn manifest_for(request: &RunRequest) -> CampaignManifest {
    CampaignManifest {
        version: MANIFEST_VERSION,
        circuit: request.circuit.spec_string(),
        fault: request.fault,
        stim_seed: request.stim_seed,
        cycles: request.cycles,
        seed: request.seed,
        policy: request.policy.clone(),
        budget: request.budget,
        store: request
            .store
            .as_ref()
            .map(|p| p.to_string_lossy().into_owned()),
        fingerprint: String::new(),
    }
}

/// `Ok` when `existing` is our campaign's fingerprint; otherwise the one
/// "this directory belongs to another campaign" refusal
/// ([`io::ErrorKind::AlreadyExists`]), whichever file revealed it.
fn same_campaign(out_dir: &Path, existing: &str, ours: &str) -> io::Result<()> {
    if existing == ours {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::AlreadyExists,
        format!(
            "{} already holds a different campaign (fingerprint {existing} vs {ours}); \
             remove it or use a fresh campaign directory",
            out_dir.display()
        ),
    ))
}

/// Settle which campaign `out_dir` holds — the single bootstrap behind
/// `ffr run`, `ffr resume`, `ffr worker` and `ffrd`'s `POST /campaigns`.
///
/// With a `request` the directory is created and the request's manifest
/// published — or, if a manifest is already there, adopted when it
/// describes the *same* campaign (same fingerprint; the manifest is
/// written once and then only read). Concurrent initializers race
/// benignly: exactly one wins the create-exclusive publish and the losers
/// adopt the winner's byte-identical manifest. Without a request the
/// directory's manifest is the campaign.
///
/// The circuit is prepared once and the fingerprint computed once. A
/// `checkpoint.json` of any other campaign refuses the directory *before*
/// the manifest is looked at, so a refused request never clobbers the
/// original campaign's parameters; an undecodable manifest is replaced
/// only by the campaign the checkpoint vouches for.
///
/// Returns the directory's manifest (just published, or adopted), the
/// prepared circuit and the directory's `checkpoint.json` if it has one.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for an invalid request,
/// [`io::ErrorKind::AlreadyExists`] when the directory holds a different
/// campaign, anything else for I/O failures.
pub(crate) fn bootstrap(
    out_dir: &Path,
    request: Option<&RunRequest>,
) -> io::Result<(
    CampaignManifest,
    PreparedCircuit,
    Option<CampaignCheckpoint>,
)> {
    let paths = SessionPaths::new(out_dir);
    let mut manifest = match request {
        Some(request) => {
            validate_request(request)?;
            // The directory appears before the (at paper scale, slow)
            // circuit preparation: workers waiting for a manifest take
            // its existence as "a bootstrapper is on its way".
            std::fs::create_dir_all(out_dir).map_err(|e| {
                io::Error::other(format!("cannot create {}: {e}", out_dir.display()))
            })?;
            manifest_for(request)
        }
        None => CampaignManifest::load(&paths.manifest()).map_err(|e| {
            io::Error::other(format!(
                "no campaign session in {} ({e})",
                out_dir.display()
            ))
        })?,
    };
    let circuit: CircuitSpec = manifest.circuit.parse().map_err(io::Error::other)?;
    let prepared = circuit.prepare(manifest.stim_seed, manifest.cycles);
    if let Some(request) = request {
        manifest.fingerprint = campaign_table_key(request, &prepared).to_string();
    }
    let checkpoint = match CampaignCheckpoint::load(&paths.checkpoint()) {
        Ok(cp) => {
            same_campaign(out_dir, &cp.fingerprint, &manifest.fingerprint)?;
            if cp.params.fault != manifest.fault {
                return Err(io::Error::other(
                    "checkpoint fault model does not match the session manifest",
                ));
            }
            Some(cp)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    if request.is_some() {
        match CampaignManifest::load(&paths.manifest()) {
            Ok(existing) => {
                same_campaign(out_dir, &existing.fingerprint, &manifest.fingerprint)?;
                manifest = existing;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let json = serde_json::to_string_pretty(&manifest).map_err(io::Error::other)?;
                if !crate::store::create_exclusive(&paths.manifest(), &json)? {
                    let winner = CampaignManifest::load(&paths.manifest())?;
                    same_campaign(out_dir, &winner.fingerprint, &manifest.fingerprint)?;
                    manifest = winner;
                }
            }
            // Undecodable: only the campaign the directory's checkpoint
            // vouches for (checked above) may replace it.
            Err(_) if checkpoint.is_some() => manifest.save(&paths.manifest())?,
            Err(e) => return Err(e),
        }
    }
    Ok((manifest, prepared, checkpoint))
}

/// How long a worker without bootstrap flags waits for a sibling
/// bootstrapper to publish the campaign manifest before giving up.
const BOOTSTRAP_WAIT: Duration = Duration::from_secs(15);

/// Wait for the campaign manifest a sibling worker launched with
/// bootstrap flags (or the service) may still be preparing its circuit
/// for (seconds at paper scale), rather than abandoning the fleet. A
/// bootstrapper creates the campaign directory before that slow
/// preparation, so a missing directory means nobody is coming — fail
/// fast.
fn await_manifest(paths: &SessionPaths, poll: Duration, cancel: &CancelToken) -> io::Result<()> {
    let deadline = std::time::Instant::now() + BOOTSTRAP_WAIT;
    while !paths.manifest().exists() {
        if cancel.is_cancelled() || !paths.out_dir.exists() || std::time::Instant::now() >= deadline
        {
            return Err(io::Error::other(format!(
                "no campaign session in {} — initialize one with `ffr run`, \
                 or pass --circuit (plus campaign flags) to the first worker",
                paths.out_dir.display()
            )));
        }
        std::thread::sleep(poll.max(Duration::from_millis(50)));
    }
    Ok(())
}

/// Parameters of one `ffr worker` invocation.
#[derive(Debug, Clone)]
pub(crate) struct WorkerRequest {
    /// Stable identity of this worker (lease ownership, shard
    /// provenance). Reusing an id after a crash lets the new incarnation
    /// reclaim its own stale leases immediately.
    pub worker_id: String,
    /// Points per lease range (small = better balance, large = less
    /// lease I/O).
    pub lease_points: usize,
    /// Lease time-to-live; must comfortably exceed the heartbeat
    /// interval (`ttl / 3`).
    pub lease_ttl: Duration,
    /// Rescan interval while other workers hold the remaining leases.
    pub poll: Duration,
    /// Artifact store override for this worker (golden-run caching);
    /// `None` uses the store recorded in the campaign manifest.
    pub store: Option<PathBuf>,
    /// Campaign parameters for bootstrapping an uninitialized campaign
    /// directory; verified against the manifest when one exists.
    pub init: Option<RunRequest>,
}

impl WorkerRequest {
    /// Defaults: [`RANGE_POINTS`]-point leases (the ranges `ffr run`
    /// persists), 30 s TTL, 200 ms poll.
    pub(crate) fn new(worker_id: impl Into<String>) -> WorkerRequest {
        WorkerRequest {
            worker_id: worker_id.into(),
            lease_points: RANGE_POINTS,
            lease_ttl: Duration::from_secs(30),
            poll: Duration::from_millis(200),
            store: None,
            init: None,
        }
    }
}

/// Where the driver's threads claim injection points from. Either way
/// progress goes to per-range shards.
enum Source<'a> {
    /// Every range, owned by this process ([`LocalSource`]).
    Local,
    /// The session directory's lease queue, shared with other worker
    /// processes; held leases are heartbeaten.
    Leased(&'a WorkerRequest),
}

/// One opened campaign directory — the state every entry point shares.
///
/// The lifecycle is the same however a campaign is started: `open`
/// (bootstrap) → `drive` (base checkpoint → merge shards → golden run →
/// measure → merge shards → publish). `run`, `resume` and `worker` only
/// differ in what they pass to the two and in one guard each. Dropping
/// the session flushes the telemetry aggregates, so they reach disk on
/// every exit — errors included.
struct Session {
    paths: SessionPaths,
    manifest: CampaignManifest,
    /// The manifest's fingerprint: the store key of the final table.
    table_key: StoreKey,
    prepared: PreparedCircuit,
    /// The directory's own `checkpoint.json`, if it had one.
    resumed: Option<CampaignCheckpoint>,
    store: Option<ArtifactStore>,
    recorder: ffr_obs::Recorder,
}

impl Drop for Session {
    fn drop(&mut self) {
        self.recorder.finish();
    }
}

impl Session {
    /// [`bootstrap`] the directory, then open this process's artifact
    /// store and telemetry log (`telemetry/<telemetry_id>.jsonl`). A
    /// per-invocation store — `store`, else the request's — overrides the
    /// manifest's for this process only.
    fn open(
        out_dir: &Path,
        request: Option<&RunRequest>,
        store: Option<&Path>,
        telemetry_id: &str,
    ) -> io::Result<Session> {
        let (manifest, prepared, resumed) = bootstrap(out_dir, request)?;
        let store = store
            .or(request.and_then(|r| r.store.as_deref()))
            .or(manifest.store.as_deref().map(Path::new))
            .map(ArtifactStore::open)
            .transpose()?;
        let table_key = parse_key(&manifest.fingerprint)?;
        let recorder = ffr_obs::Recorder::for_session(out_dir, telemetry_id);
        Ok(Session {
            paths: SessionPaths::new(out_dir),
            manifest,
            table_key,
            prepared,
            resumed,
            store: store.map(|s| s.with_recorder(recorder.clone())),
            recorder,
        })
    }

    /// Write the session's final table files (JSON + CSV); returns the
    /// JSON path.
    fn write_table<T: CampaignTable>(&self, table: &T) -> io::Result<PathBuf> {
        let fault = self.manifest.fault;
        table.save_json(&self.paths.table_json(fault))?;
        std::fs::write(self.paths.table_csv(fault), table.to_csv())?;
        Ok(self.paths.table_json(fault))
    }

    /// Serve the final table from the artifact store if cached.
    fn serve_table<T: CampaignTable>(&self, store: &ArtifactStore) -> io::Result<Option<PathBuf>> {
        match store.get::<T>(T::KIND, &self.table_key)? {
            Some(table) => self.write_table(&table).map(Some),
            None => Ok(None),
        }
    }

    /// Write the final table files and publish the table to the store.
    fn publish_table<T: CampaignTable>(&self, table: &T) -> io::Result<PathBuf> {
        let path = self.write_table(table)?;
        if let Some(store) = &self.store {
            store.put(T::KIND, &self.table_key, table)?;
        }
        Ok(path)
    }

    /// `run`'s fast path: the final table straight from the artifact
    /// store, if it is there — nothing simulated, no checkpoint created.
    fn serve_cached(&self) -> io::Result<Option<RunSummary>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let served = match self.manifest.fault {
            FaultKind::Seu => self.serve_table::<FdrTable>(store)?,
            FaultKind::Set => self.serve_table::<SetDeratingTable>(store)?,
        };
        Ok(served.map(|table_path| {
            let num_points = self.point_ids().len();
            RunSummary {
                fault: self.manifest.fault,
                outcome: RunOutcome::Complete,
                golden_from_cache: true,
                table_from_cache: true,
                merged_shards: 0,
                completed_points: num_points,
                total_points: num_points,
                total_injections: 0,
                table_path: Some(table_path),
            }
        }))
    }

    /// The injection points the campaign measures: every flip-flop (SEU)
    /// or every combinational op output net (SET) — under a budget, a
    /// seeded random subset of them (at least two), in ascending id order.
    ///
    /// The subset is a pure function of `(circuit, fault, budget, seed)` —
    /// the shuffle RNG stream is domain-separated from the injection-plan
    /// streams — so budgeted runs resume and cache-serve exactly like full
    /// ones.
    fn point_ids(&self) -> Vec<u32> {
        use rand::seq::SliceRandom;
        use rand_chacha::rand_core::SeedableRng;
        let (cc, manifest) = (&self.prepared.cc, &self.manifest);
        let mut ids: Vec<u32> = match manifest.fault {
            FaultKind::Seu => (0..cc.num_ffs() as u32).collect(),
            FaultKind::Set => cc
                .comb_output_nets()
                .iter()
                .map(|n| n.index() as u32)
                .collect(),
        };
        if manifest.budget >= 1.0 {
            return ids;
        }
        let n = ((ids.len() as f64) * manifest.budget).round().max(2.0) as usize;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(manifest.seed ^ 0xB0D6_E7ED);
        ids.shuffle(&mut rng);
        ids.truncate(n.min(ids.len()));
        ids.sort_unstable();
        ids
    }

    /// Base progress: the directory's own checkpoint when it has one,
    /// else the deterministic fresh one, which is then written as
    /// `checkpoint.json` — create-exclusive, and every process derives
    /// the same bytes, so racing runners need no coordination. Progress
    /// itself arrives through shards.
    ///
    /// # Errors
    ///
    /// The directory's checkpoint does not fit the fresh one
    /// ([`CampaignCheckpoint::check_resumes`]), or I/O failures.
    fn base_checkpoint(&mut self) -> io::Result<CampaignCheckpoint> {
        let fresh = CampaignCheckpoint::fresh(
            self.manifest.fingerprint.clone(),
            CheckpointParams {
                fault: self.manifest.fault,
                seed: self.manifest.seed,
                window_start: self.prepared.window.start,
                window_end: self.prepared.window.end,
                policy: self.manifest.policy.clone(),
            },
            self.point_ids(),
        );
        let Some(resumed) = self.resumed.take() else {
            let json = serde_json::to_string_pretty(&fresh).map_err(io::Error::other)?;
            crate::store::create_exclusive(&self.paths.checkpoint(), &json)?;
            return Ok(fresh);
        };
        resumed.check_resumes(&fresh).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("{}: {e}", self.paths.checkpoint().display()),
            )
        })?;
        Ok(resumed)
    }

    /// Discover the session's shard checkpoints and merge them into
    /// `checkpoint` (point-indexed, order-independent — see
    /// [`CampaignCheckpoint::merge_shard`]). Returns how many shards were
    /// merged; fails if one belongs to a different campaign.
    fn merge_shards(&self, checkpoint: &mut CampaignCheckpoint) -> io::Result<usize> {
        let mut span = self.recorder.span("phase.merge");
        let shards = work::list_shards(&self.paths.shards_dir())?;
        for shard in &shards {
            checkpoint.merge_shard(shard)?;
        }
        span.field("shards", shards.len());
        Ok(shards.len())
    }

    /// Write the final table files (JSON + CSV + store artifact) of a
    /// completed campaign and return the JSON path.
    fn publish_completed(&self, checkpoint: &CampaignCheckpoint) -> io::Result<PathBuf> {
        match self.manifest.fault {
            FaultKind::Seu => {
                self.publish_table(&checkpoint.to_fdr_table_for(self.prepared.cc.num_ffs()))
            }
            FaultKind::Set => self.publish_table(&checkpoint.to_set_table()),
        }
    }

    /// Drive the campaign as far as `source` lets this process: merge what
    /// the fleet already retired, measure the rest, merge again, and
    /// publish the final table once the merged view is complete.
    ///
    /// In [`Source::Leased`] mode the **last** worker standing observes
    /// global completion and publishes — byte-identical to a
    /// single-process run, no matter how the work was distributed. If
    /// several workers observe completion simultaneously they all publish
    /// identical bytes through atomic renames, so the race is benign.
    fn drive(
        mut self,
        source: Source<'_>,
        options: &RunnerOptions,
        cancel: &CancelToken,
        progress: impl Fn(usize, usize) + Sync,
    ) -> io::Result<RunSummary> {
        let mut checkpoint = self.base_checkpoint()?;
        let mut merged_shards = self.merge_shards(&mut checkpoint)?;
        let (prepared, recorder) = (&self.prepared, &self.recorder);

        let (golden, golden_from_cache) = {
            let mut span = recorder.span("phase.golden");
            let got = golden_for(prepared, self.store.as_ref())?;
            span.field("cached", got.1);
            got
        };
        let judge = prepared.judge_spec.build(&golden);
        let campaign = Campaign::with_golden(
            &prepared.cc,
            &prepared.stimulus,
            &prepared.watch,
            &judge,
            golden,
        );

        let mut runner_options = options.clone();
        runner_options.recorder = recorder.clone();
        let options = &runner_options;
        let worker = match source {
            Source::Local => LOCAL_WORKER,
            Source::Leased(request) => &request.worker_id,
        };
        let shards = Shards::open(self.paths.shards_dir(), worker, recorder.clone())?;
        let outcome = match source {
            Source::Local => {
                let local = LocalSource::new(shards, &checkpoint);
                measure(
                    &campaign,
                    &mut checkpoint,
                    &local,
                    options,
                    cancel,
                    progress,
                )?
            }
            Source::Leased(request) => {
                let queue = LeaseQueue::open(
                    &self.paths.out_dir,
                    self.manifest.fingerprint.clone(),
                    shards,
                    checkpoint.points.len(),
                    request.lease_points,
                    request.lease_ttl,
                    request.poll,
                    cancel.clone(),
                )?;
                let measuring = AtomicBool::new(true);
                let measured = std::thread::scope(|scope| {
                    scope.spawn(|| queue.heartbeat_while(&measuring));
                    let result = measure(
                        &campaign,
                        &mut checkpoint,
                        &queue,
                        options,
                        cancel,
                        progress,
                    );
                    measuring.store(false, Ordering::Relaxed);
                    result
                });
                let outcome = measured?;
                // Other workers' ranges arrive through their shards.
                merged_shards = self.merge_shards(&mut checkpoint)?;
                outcome
            }
        };

        let mut table_path = None;
        if checkpoint.is_complete() {
            let _span = recorder.span("phase.publish");
            checkpoint.save_recorded(&self.paths.checkpoint(), recorder)?;
            table_path = Some(self.publish_completed(&checkpoint)?);
        }
        Ok(RunSummary {
            fault: self.manifest.fault,
            outcome,
            golden_from_cache,
            table_from_cache: false,
            merged_shards,
            completed_points: checkpoint.completed_points(),
            total_points: checkpoint.num_points,
            total_injections: checkpoint.total_injections(),
            table_path,
        })
    }
}

/// `phase.measure`: retire what `work` hands out. Generic rather than
/// `&dyn WorkSource` on purpose: one instantiation per source lets the
/// cursor path compile without the lease hooks (`dyn` measured +3.6 % on
/// `regfile-flat` in the benchmark build).
fn measure<S, J, W>(
    campaign: &Campaign<'_, S, J>,
    checkpoint: &mut CampaignCheckpoint,
    work: &W,
    options: &RunnerOptions,
    cancel: &CancelToken,
    progress: impl Fn(usize, usize) + Sync,
) -> io::Result<RunOutcome>
where
    S: ffr_sim::Stimulus + Sync,
    J: ffr_fault::FailureJudge,
    W: WorkSource,
{
    let mut span = options.recorder.span("phase.measure");
    let result = run_with_source(campaign, checkpoint, work, options, cancel, progress);
    span.field("completed_points", checkpoint.completed_points());
    span.field("total_injections", checkpoint.total_injections());
    result
}

/// Start (or continue) a campaign session in `out_dir`.
///
/// When the store already holds the final table and no runner has opened
/// the directory yet (no `checkpoint.json`), the table is served from the
/// cache without simulating anything. Shards an interrupted run or a
/// worker fleet left in the directory are honoured: their points are not
/// recomputed.
///
/// # Errors
///
/// Fails on I/O errors, an invalid request, or if `out_dir` already holds
/// a different campaign.
pub fn run(
    request: &RunRequest,
    out_dir: &Path,
    options: &RunnerOptions,
    cancel: &CancelToken,
    progress: impl Fn(usize, usize) + Sync,
) -> io::Result<RunSummary> {
    let session = Session::open(out_dir, Some(request), None, LOCAL_WORKER)?;
    if !request.force && session.resumed.is_none() {
        if let Some(summary) = session.serve_cached()? {
            return Ok(summary);
        }
    }
    session.drive(Source::Local, options, cancel, progress)
}

/// Resume the campaign session in `out_dir` from its manifest, checkpoint
/// and shards.
///
/// Every shard is merged first — an interrupted `ffr run`'s and those of
/// `ffr worker` processes alike — so a partially worker-drained campaign
/// can be finished single-process (the result is byte-identical either
/// way).
///
/// # Errors
///
/// Fails on I/O errors or if the directory holds no session (no manifest,
/// or a manifest with neither a checkpoint nor any shards).
pub(crate) fn resume(
    out_dir: &Path,
    options: &RunnerOptions,
    cancel: &CancelToken,
    progress: impl Fn(usize, usize) + Sync,
) -> io::Result<RunSummary> {
    let session = Session::open(out_dir, None, None, LOCAL_WORKER)?;
    if session.resumed.is_none() && work::list_shards(&session.paths.shards_dir())?.is_empty() {
        return Err(io::Error::other(format!(
            "nothing to resume in {}: no checkpoint and no shards",
            out_dir.display()
        )));
    }
    session.drive(Source::Local, options, cancel, progress)
}

/// Drain a campaign as one worker of a distributed fleet.
///
/// The worker leases point ranges from the session directory's
/// [`LeaseQueue`], computes them, flushes per-range shard checkpoints,
/// and heartbeats its leases from a background thread. It keeps claiming
/// until every range has a complete shard (waiting out other workers'
/// live leases, reclaiming expired ones) or until cancelled; the last
/// worker standing publishes the final table.
///
/// # Errors
///
/// Fails on I/O errors, an uninitialized campaign directory without
/// `init` parameters, or parameters conflicting with the existing
/// manifest.
pub(crate) fn worker(
    out_dir: &Path,
    request: &WorkerRequest,
    options: &RunnerOptions,
    cancel: &CancelToken,
    progress: impl Fn(usize, usize) + Sync,
) -> io::Result<RunSummary> {
    if request.init.is_none() {
        await_manifest(&SessionPaths::new(out_dir), request.poll, cancel)?;
    }
    Session::open(
        out_dir,
        request.init.as_ref(),
        request.store.as_deref(),
        &request.worker_id,
    )?
    .drive(Source::Leased(request), options, cancel, progress)
}

pub(crate) fn parse_key(rendered: &str) -> io::Result<StoreKey> {
    let (netlist, config) = rendered
        .split_once('-')
        .ok_or_else(|| io::Error::other("malformed fingerprint"))?;
    Ok(StoreKey {
        netlist: u64::from_str_radix(netlist, 16).map_err(io::Error::other)?,
        config: u64::from_str_radix(config, 16).map_err(io::Error::other)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::PointProgress;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffr_session_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_request(store: Option<PathBuf>) -> RunRequest {
        RunRequest {
            circuit: CircuitSpec::Counter { width: 6 },
            fault: FaultKind::Seu,
            stim_seed: 1,
            cycles: 160,
            seed: 7,
            policy: AdaptivePolicy::fixed(64),
            budget: 1.0,
            store,
            force: false,
        }
    }

    #[test]
    fn run_produces_table_and_cache_round_trip() {
        let out = tmp_dir("run");
        let store_dir = tmp_dir("run_store");
        let request = quick_request(Some(store_dir));
        let summary = run(
            &request,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
        assert!(!summary.golden_from_cache);
        assert!(!summary.table_from_cache);
        let first = std::fs::read(out.join("fdr.json")).unwrap();

        // Second run: served from the artifact cache, no simulation.
        let out2 = tmp_dir("run2");
        let summary2 = run(
            &request,
            &out2,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert!(summary2.table_from_cache);
        assert_eq!(summary2.total_injections, 0);
        let second = std::fs::read(out2.join("fdr.json")).unwrap();
        assert_eq!(first, second, "cache-served table must be byte-identical");
    }

    /// A cached golden run that does not fit its circuit — here its trace
    /// data cut to half its length — is a miss: recaptured and
    /// overwritten, and the table is byte-identical to a clean run.
    #[test]
    fn malformed_cached_golden_run_is_recaptured() {
        use serde::Value;
        fn field<'v>(v: &'v mut Value, name: &str) -> &'v mut Value {
            match v {
                Value::Object(fields) => &mut fields.iter_mut().find(|(n, _)| n == name).unwrap().1,
                _ => panic!("{name}: parent is not an object"),
            }
        }

        let store_dir = tmp_dir("tampered_store");
        let mut request = quick_request(Some(store_dir.clone()));
        let go = |request: &RunRequest, tag: &str| {
            let out = tmp_dir(tag);
            let options = RunnerOptions::default();
            let summary = run(request, &out, &options, &CancelToken::new(), |_, _| {}).unwrap();
            let table = std::fs::read(out.join("fdr.json")).unwrap();
            (summary.golden_from_cache, table)
        };
        let (_, clean) = go(&request, "tampered_clean");

        let prepared = request.circuit.prepare(request.stim_seed, request.cycles);
        let key = StoreKey::of(prepared.cc.netlist(), &prepared.config_desc);
        let store = ArtifactStore::open(&store_dir).unwrap();
        let mut payload: Value = store.get(ArtifactKind::GoldenRun, &key).unwrap().unwrap();
        let Value::Array(data) = field(field(&mut payload, "trace"), "data") else {
            panic!("trace data is an array")
        };
        data.truncate(data.len() / 2);
        store.put(ArtifactKind::GoldenRun, &key, &payload).unwrap();

        request.force = true;
        assert_eq!(go(&request, "tampered_rerun"), (false, clean.clone()));
        // The recaptured run overwrote the malformed one.
        assert_eq!(go(&request, "tampered_again"), (true, clean));
    }

    #[test]
    fn set_session_produces_derating_table_and_cache_round_trip() {
        let out = tmp_dir("set_run");
        let store_dir = tmp_dir("set_store");
        let mut request = quick_request(Some(store_dir));
        request.fault = FaultKind::Set;
        let summary = run(
            &request,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.fault, FaultKind::Set);
        assert_eq!(summary.outcome, RunOutcome::Complete);
        assert!(summary.total_points > 0, "counter has combinational nets");
        let table = SetDeratingTable::load_json(&out.join("set-derating.json")).unwrap();
        assert_eq!(table.num_nets(), summary.total_points);
        assert!(!out.join("fdr.json").exists(), "SET session writes no FDR");
        let first = std::fs::read(out.join("set-derating.json")).unwrap();

        // Cache-served rerun is byte-identical.
        let out2 = tmp_dir("set_run2");
        let summary2 = run(
            &request,
            &out2,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert!(summary2.table_from_cache);
        let second = std::fs::read(out2.join("set-derating.json")).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn seu_and_set_sessions_have_distinct_fingerprints() {
        let seu = quick_request(None);
        let mut set = quick_request(None);
        set.fault = FaultKind::Set;
        let out_seu = tmp_dir("fp_seu");
        let out_set = tmp_dir("fp_set");
        run(
            &seu,
            &out_seu,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        run(
            &set,
            &out_set,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        let a = CampaignManifest::load(&SessionPaths::new(&out_seu).manifest()).unwrap();
        let b = CampaignManifest::load(&SessionPaths::new(&out_set).manifest()).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn distinct_policies_get_distinct_fingerprints() {
        // Same circuit/seed/stimulus, different stopping policies: every
        // fingerprint must differ, so the campaigns cache independently.
        let prepared = CircuitSpec::Counter { width: 6 }.prepare(1, 160);
        let policies = [
            "fixed:170",
            "fixed:64",
            "wilson:0.05@95:64..170",
            "wilson:0.05@99:64..170",
            "wilson:0.02@95:64..170",
            "wilson:0.05@95:32..170",
            "wilson:0.05@95:64..340",
        ];
        let keys: Vec<String> = policies
            .iter()
            .map(|p| {
                let mut request = quick_request(None);
                request.policy = p.parse().unwrap();
                campaign_table_key(&request, &prepared).to_string()
            })
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(
                    keys[i], keys[j],
                    "{} and {} must not share a fingerprint",
                    policies[i], policies[j]
                );
            }
        }
    }

    #[test]
    fn wilson_policy_kill_and_resume_retires_identically() {
        // Under a non-default adaptive policy, an interrupted campaign
        // must resume to the byte-identical table — same per-FF injection
        // spend, same retirement decisions.
        let mut request = quick_request(None);
        request.circuit = CircuitSpec::Lfsr { width: 8, depth: 2 };
        request.policy = "wilson:0.02@99:64..256".parse().unwrap();

        let out_ref = tmp_dir("wilson_ref");
        run(
            &request,
            &out_ref,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        let reference = std::fs::read(out_ref.join("fdr.json")).unwrap();
        let ref_cp = CampaignCheckpoint::load(&out_ref.join("checkpoint.json")).unwrap();
        let spends: Vec<usize> = ref_cp.points.iter().map(|p| p.injections_done).collect();
        assert!(
            spends.iter().any(|&n| n < 256) && spends.iter().all(|&n| n > 64),
            "the tight 99 % policy should push every point past the floor \
             and still retire some before the cap (got {spends:?})"
        );

        let out = tmp_dir("wilson_killed");
        let summary = run(
            &request,
            &out,
            &RunnerOptions {
                stop_after_points: Some(2),
                threads: Some(2),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Cancelled);
        let summary = resume(
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
        assert_eq!(
            reference,
            std::fs::read(out.join("fdr.json")).unwrap(),
            "wilson-policy resume must be byte-identical"
        );
        let resumed_cp = CampaignCheckpoint::load(&out.join("checkpoint.json")).unwrap();
        assert_eq!(
            spends,
            resumed_cp
                .points
                .iter()
                .map(|p| p.injections_done)
                .collect::<Vec<_>>(),
            "resume must retire every point after identical injections"
        );
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        // Uninterrupted reference run.
        let out_ref = tmp_dir("ref");
        let request = quick_request(None);
        run(
            &request,
            &out_ref,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        let reference = std::fs::read(out_ref.join("fdr.json")).unwrap();

        // Killed after two retirements…
        let out = tmp_dir("killed");
        let summary = run(
            &request,
            &out,
            &RunnerOptions {
                stop_after_points: Some(2),
                threads: Some(2),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Cancelled);
        assert!(!out.join("fdr.json").exists());
        assert!(out.join("checkpoint.json").exists());
        // A manifest field this version does not know (older manifests
        // carry the since-removed flush cadence) is ignored.
        let manifest = out.join("campaign.json");
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replacen('{', "{\"flush_cadence\": 32,", 1)).unwrap();

        // …and resumed to completion.
        let summary = resume(
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
        let resumed = std::fs::read(out.join("fdr.json")).unwrap();
        assert_eq!(reference, resumed, "resume must be byte-identical");
    }

    #[test]
    fn set_kill_and_resume_is_byte_identical() {
        let out_ref = tmp_dir("set_ref");
        let mut request = quick_request(None);
        request.fault = FaultKind::Set;
        run(
            &request,
            &out_ref,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        let reference = std::fs::read(out_ref.join("set-derating.json")).unwrap();

        let out = tmp_dir("set_killed");
        let summary = run(
            &request,
            &out,
            &RunnerOptions {
                stop_after_points: Some(2),
                threads: Some(2),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Cancelled);
        assert!(!out.join("set-derating.json").exists());

        let summary = resume(
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
        let resumed = std::fs::read(out.join("set-derating.json")).unwrap();
        assert_eq!(reference, resumed, "SET resume must be byte-identical");
    }

    #[test]
    fn mismatched_session_directory_is_refused() {
        let out = tmp_dir("mismatch");
        let request = quick_request(None);
        run(
            &request,
            &out,
            &RunnerOptions {
                stop_after_points: Some(1),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        // Same directory, different campaign seed → refused (the live
        // checkpoint is checked first, before anything is overwritten).
        let mut other = quick_request(None);
        other.seed = 999;
        let err = run(
            &other,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");

        // A fault-model switch on the same directory is just as much a
        // different campaign.
        let mut set = quick_request(None);
        set.fault = FaultKind::Set;
        let err = run(
            &set,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");

        // Even with a damaged manifest, the refusal happens before the
        // manifest is rewritten — the checkpoint still wins, and the
        // corrupt manifest is left for the user to inspect.
        let manifest_path = out.join("campaign.json");
        std::fs::write(&manifest_path, "{corrupt").unwrap();
        let err = run(
            &other,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&manifest_path).unwrap(),
            "{corrupt",
            "a refused run must not clobber the existing manifest"
        );

        // A matching run (same fingerprint) may repair the manifest and
        // resume from the checkpoint.
        let summary = run(
            &request,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
    }

    #[test]
    fn budgeted_session_measures_a_subset_and_resumes() {
        // Full-budget reference on a circuit with enough flip-flops for a
        // 40 % subset to be a strict subset.
        let mut request = quick_request(None);
        request.circuit = CircuitSpec::Lfsr { width: 8, depth: 2 };
        request.budget = 0.4;
        let out = tmp_dir("budget");
        let summary = run(
            &request,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
        let table = ffr_fault::FdrTable::load_json(&out.join("fdr.json")).unwrap();
        let expected = ((table.num_ffs() as f64) * 0.4).round() as usize;
        assert_eq!(summary.total_points, expected);
        assert_eq!(table.covered().count(), expected);
        assert!(table.covered().count() < table.num_ffs());

        // A different budget is a different campaign (fingerprint).
        let manifest = CampaignManifest::load(&SessionPaths::new(&out).manifest()).unwrap();
        assert_eq!(manifest.budget, 0.4);
        let mut full = request.clone();
        full.budget = 1.0;
        let err = run(
            &full,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");

        // Kill/resume on a budgeted campaign stays byte-identical.
        let out2 = tmp_dir("budget_killed");
        let summary = run(
            &request,
            &out2,
            &RunnerOptions {
                stop_after_points: Some(1),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Cancelled);
        resume(
            &out2,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(
            std::fs::read(out.join("fdr.json")).unwrap(),
            std::fs::read(out2.join("fdr.json")).unwrap()
        );
    }

    #[test]
    fn worker_drains_campaign_byte_identical_to_run() {
        // Single-process reference.
        let request = quick_request(None);
        let out_ref = tmp_dir("worker_ref");
        run(
            &request,
            &out_ref,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        let reference = std::fs::read(out_ref.join("fdr.json")).unwrap();

        // One worker bootstraps an empty campaign dir and drains it all.
        let out = tmp_dir("worker");
        let mut wreq = WorkerRequest::new("w1");
        wreq.lease_points = 2;
        wreq.init = Some(request.clone());
        let summary = worker(
            &out,
            &wreq,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
        assert!(summary.table_path.is_some());
        assert!(summary.merged_shards > 0);
        assert_eq!(
            std::fs::read(out.join("fdr.json")).unwrap(),
            reference,
            "worker-drained table must be byte-identical to ffr run"
        );
        // Completed ranges leave shards but no leases behind.
        assert!(
            crate::work::list_leases(&SessionPaths::new(&out).leases_dir())
                .unwrap()
                .is_empty()
        );

        // A later worker (no init flags) finds a finished campaign.
        let summary2 = worker(
            &out,
            &WorkerRequest::new("w2"),
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert!(summary2.table_path.is_some());

        // A store override without bootstrap flags (the README's worker
        // invocation) caches the golden run across worker invocations.
        let store_dir = tmp_dir("worker_store");
        let mut wreq_store = WorkerRequest::new("w5");
        wreq_store.store = Some(store_dir);
        let first = worker(
            &out,
            &wreq_store,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert!(!first.golden_from_cache);
        let second = worker(
            &out,
            &wreq_store,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert!(second.golden_from_cache);

        // Conflicting init parameters are refused.
        let mut other = request.clone();
        other.seed = 4242;
        let mut wreq_bad = WorkerRequest::new("w3");
        wreq_bad.init = Some(other);
        let err = worker(
            &out,
            &wreq_bad,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");

        // An uninitialized dir without init flags fails with guidance.
        let empty = tmp_dir("worker_empty");
        let err = worker(
            &empty,
            &WorkerRequest::new("w4"),
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("no campaign session"), "{err}");
    }

    #[test]
    fn worker_drains_set_campaign_byte_identical_to_run() {
        let mut request = quick_request(None);
        request.fault = FaultKind::Set;
        let out_ref = tmp_dir("worker_set_ref");
        run(
            &request,
            &out_ref,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        let reference = std::fs::read(out_ref.join("set-derating.json")).unwrap();

        let out = tmp_dir("worker_set");
        let mut wreq = WorkerRequest::new("w1");
        wreq.lease_points = 4;
        wreq.init = Some(request);
        let summary = worker(
            &out,
            &wreq,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.fault, FaultKind::Set);
        assert!(summary.table_path.is_some());
        assert_eq!(
            std::fs::read(out.join("set-derating.json")).unwrap(),
            reference,
            "worker-drained SET table must be byte-identical to ffr run"
        );
    }

    #[test]
    fn concurrent_workers_share_one_campaign() {
        let mut request = quick_request(None);
        request.circuit = CircuitSpec::Lfsr { width: 8, depth: 2 };
        let out_ref = tmp_dir("conc_ref");
        run(
            &request,
            &out_ref,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        let reference = std::fs::read(out_ref.join("fdr.json")).unwrap();

        // Two workers race the same campaign directory from scratch
        // (manifest bootstrap race included).
        let out = tmp_dir("conc");
        std::thread::scope(|scope| {
            for id in ["a", "b"] {
                let out = &out;
                let request = &request;
                scope.spawn(move || {
                    let mut wreq = WorkerRequest::new(id);
                    wreq.lease_points = 3;
                    wreq.init = Some(request.clone());
                    worker(
                        out,
                        &wreq,
                        &RunnerOptions {
                            threads: Some(1),
                            ..RunnerOptions::default()
                        },
                        &CancelToken::new(),
                        |_, _| {},
                    )
                    .unwrap();
                });
            }
        });
        assert_eq!(
            std::fs::read(out.join("fdr.json")).unwrap(),
            reference,
            "concurrently drained campaign must be byte-identical"
        );
        // Both workers' shard provenance is visible.
        let shards = crate::work::list_shards(&SessionPaths::new(&out).shards_dir()).unwrap();
        assert!(shards.iter().all(|s| s.is_complete()));
    }

    #[test]
    fn worker_finishes_an_interrupted_run_and_resume_merges_shards() {
        // An `ffr run` interrupted after 2 points…
        let request = quick_request(None);
        let out = tmp_dir("worker_takeover");
        let summary = run(
            &request,
            &out,
            &RunnerOptions {
                stop_after_points: Some(2),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Cancelled);

        // …is finished by a worker (base checkpoint + shards)…
        let mut wreq = WorkerRequest::new("w1");
        wreq.lease_points = 2;
        let summary = worker(
            &out,
            &wreq,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert!(summary.table_path.is_some());

        // …matching the uninterrupted reference.
        let out_ref = tmp_dir("worker_takeover_ref");
        run(
            &request,
            &out_ref,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(
            std::fs::read(out.join("fdr.json")).unwrap(),
            std::fs::read(out_ref.join("fdr.json")).unwrap()
        );

        // `ffr resume` on a worker session with leftover shards also
        // reports completion (shard merge path).
        let summary = resume(
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
    }

    #[test]
    fn run_over_a_worker_drained_directory_recomputes_nothing() {
        let request = quick_request(None);
        let out = tmp_dir("drained_rerun");
        let mut wreq = WorkerRequest::new("w1");
        wreq.lease_points = 2;
        wreq.init = Some(request.clone());
        let drained = worker(
            &out,
            &wreq,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert!(drained.table_path.is_some());
        let table = std::fs::read(out.join("fdr.json")).unwrap();

        // Only the shards are left to say what was computed.
        std::fs::remove_file(out.join("checkpoint.json")).unwrap();
        std::fs::remove_file(out.join("fdr.json")).unwrap();
        let retirements = std::sync::atomic::AtomicUsize::new(0);
        let summary = run(
            &request,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {
                retirements.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(summary.outcome, RunOutcome::Complete);
        assert_eq!(summary.merged_shards, drained.merged_shards);
        assert_eq!(summary.total_injections, drained.total_injections);
        assert_eq!(
            retirements.load(Ordering::Relaxed),
            0,
            "every point was already retired by the worker"
        );
        assert_eq!(std::fs::read(out.join("fdr.json")).unwrap(), table);
        assert!(
            CampaignCheckpoint::load(&out.join("checkpoint.json"))
                .unwrap()
                .is_complete(),
            "the merged view is saved back as the session checkpoint"
        );
        let log =
            std::fs::read_to_string(SessionPaths::new(&out).telemetry_dir().join("local.jsonl"))
                .unwrap();
        assert!(log.contains("\"name\":\"phase.merge\""), "{log}");
        assert!(!log.contains("\"name\":\"range.run\""), "{log}");
    }

    #[test]
    fn entry_points_are_interchangeable_mid_campaign() {
        // Whoever starts a campaign and whoever finishes it, the table is
        // the one an uninterrupted `run` writes.
        let interrupted = RunnerOptions {
            stop_after_points: Some(2),
            threads: Some(1),
            ..RunnerOptions::default()
        };
        let finish = RunnerOptions::default();
        let cancel = CancelToken::new;
        for fault in [FaultKind::Seu, FaultKind::Set] {
            let mut request = quick_request(None);
            request.fault = fault;
            let table = |dir: &Path| std::fs::read(SessionPaths::new(dir).table_json(fault));
            let wreq = |id: &str| {
                let mut wreq = WorkerRequest::new(id);
                wreq.lease_points = 2;
                wreq.init = Some(request.clone());
                wreq
            };
            let out_ref = tmp_dir(&format!("matrix_ref_{fault}"));
            run(&request, &out_ref, &finish, &cancel(), |_, _| {}).unwrap();
            let reference = table(&out_ref).unwrap();

            // run, interrupted → worker finishes.
            let out = tmp_dir(&format!("matrix_run_worker_{fault}"));
            let summary = run(&request, &out, &interrupted, &cancel(), |_, _| {}).unwrap();
            assert_eq!(summary.outcome, RunOutcome::Cancelled);
            let summary = worker(&out, &wreq("w1"), &finish, &cancel(), |_, _| {}).unwrap();
            assert!(summary.table_path.is_some());
            assert_eq!(table(&out).unwrap(), reference, "{fault}: run → worker");

            // worker, interrupted → run finishes; → resume finishes.
            for finisher in ["run", "resume"] {
                let out = tmp_dir(&format!("matrix_worker_{finisher}_{fault}"));
                let summary =
                    worker(&out, &wreq("w1"), &interrupted, &cancel(), |_, _| {}).unwrap();
                assert_eq!(summary.outcome, RunOutcome::Cancelled);
                assert!(summary.table_path.is_none() && table(&out).is_err());
                let summary = match finisher {
                    "run" => run(&request, &out, &finish, &cancel(), |_, _| {}),
                    _ => resume(&out, &finish, &cancel(), |_, _| {}),
                }
                .unwrap();
                assert_eq!(summary.outcome, RunOutcome::Complete);
                assert!(summary.merged_shards > 0);
                assert_eq!(
                    table(&out).unwrap(),
                    reference,
                    "{fault}: worker → {finisher}"
                );
            }
        }
    }

    #[test]
    fn a_failed_invocation_still_flushes_its_telemetry_aggregates() {
        // `leases` is a regular file: the golden run is captured and
        // published (counted by the store), then the lease queue cannot
        // open — the invocation fails after the recorder counted something.
        let out = tmp_dir("lost_telemetry");
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(out.join("leases"), "not a directory").unwrap();
        let mut wreq = WorkerRequest::new("w1");
        wreq.store = Some(tmp_dir("lost_telemetry_store"));
        wreq.init = Some(quick_request(None));
        worker(
            &out,
            &wreq,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        let log = std::fs::read_to_string(SessionPaths::new(&out).telemetry_dir().join("w1.jsonl"))
            .unwrap();
        assert!(
            log.contains("\"kind\":\"counter\",\"name\":\"store.puts\""),
            "aggregates of a failed run must reach the log: {log}"
        );
    }

    /// An interrupted run of `quick_request(store)` in `out`: its
    /// checkpoint holds two retired points.
    fn interrupted(out: &Path, store: Option<PathBuf>) -> RunRequest {
        let request = quick_request(store);
        let options = RunnerOptions {
            stop_after_points: Some(2),
            ..RunnerOptions::default()
        };
        let summary = run(&request, out, &options, &CancelToken::new(), |_, _| {}).unwrap();
        assert_eq!(summary.outcome, RunOutcome::Cancelled);
        request
    }

    /// A checkpoint cut to its first records keeps its fingerprint, but
    /// no longer covers the campaign: resuming it is refused, and no
    /// partial table reaches the session directory or the store.
    #[test]
    fn truncated_checkpoint_is_refused_not_published() {
        let out = tmp_dir("truncated");
        let store_dir = tmp_dir("truncated_store");
        let request = interrupted(&out, Some(store_dir.clone()));
        let paths = SessionPaths::new(&out);
        let mut cp = CampaignCheckpoint::load(&paths.checkpoint()).unwrap();
        cp.points.truncate(3);
        cp.num_points = 3;
        cp.save(&paths.checkpoint()).unwrap();

        let options = RunnerOptions::default();
        let err = resume(&out, &options, &CancelToken::new(), |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("3 points"), "{err}");
        let err = run(&request, &out, &options, &CancelToken::new(), |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(!paths.fdr_json().exists());
        let store = ArtifactStore::open(&store_dir).unwrap();
        assert!(store
            .list()
            .unwrap()
            .iter()
            .all(|a| a.kind == ArtifactKind::GoldenRun));
    }

    /// A record with too few class tallies is an error wherever it is
    /// read from — the directory's checkpoint or a worker's shard — not
    /// a panic when the table is assembled.
    #[test]
    fn short_tally_record_is_an_error_not_a_panic() {
        let out = tmp_dir("short_counts_checkpoint");
        interrupted(&out, None);
        let paths = SessionPaths::new(&out);
        let mut cp = CampaignCheckpoint::load(&paths.checkpoint()).unwrap();
        cp.points[0].counts.truncate(2);
        cp.save(&paths.checkpoint()).unwrap();
        let options = RunnerOptions::default();
        let err = resume(&out, &options, &CancelToken::new(), |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("2 class tallies"), "{err}");

        // In a shard, with more injections than the checkpoint's record
        // so that the merge would prefer it.
        let out = tmp_dir("short_counts_shard");
        let request = interrupted(&out, None);
        let paths = SessionPaths::new(&out);
        let cp = CampaignCheckpoint::load(&paths.checkpoint()).unwrap();
        let mut shard = cp.shard("forged", 0..1);
        shard.points[0].counts.truncate(2);
        shard.points[0].injections_done = 1 << 20;
        shard.points[0].complete = true;
        std::fs::create_dir_all(paths.shards_dir()).unwrap();
        let shard_path = paths.shards_dir().join(work::shard_file_name(&(0..1)));
        shard.save(&shard_path).unwrap();
        let err = run(&request, &out, &options, &CancelToken::new(), |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("2 class tallies"), "{err}");
        assert!(!paths.fdr_json().exists());
    }

    /// Every runner persists progress as per-range shards: a complete
    /// local run writes `checkpoint.json` at most twice (open, publish)
    /// and each range's shard once, and an interrupted run leaves the
    /// point list empty with its progress in the shards.
    #[test]
    fn local_runs_persist_progress_as_shards() {
        let go = |fault, circuit, tag: &str, options: &RunnerOptions| {
            let request = RunRequest {
                fault,
                circuit,
                ..quick_request(None)
            };
            let out = tmp_dir(tag);
            let summary = run(&request, &out, options, &CancelToken::new(), |_, _| {}).unwrap();
            let stats = crate::stats::CampaignStats::from_session(&out).unwrap();
            let count = |name: &str| stats.counters.get(name).copied().unwrap_or(0);
            (
                out,
                summary,
                count("checkpoint.flushes"),
                count("shard.flushes"),
            )
        };
        let complete = RunnerOptions::default();
        let lfsr = CircuitSpec::Lfsr {
            width: 16,
            depth: 2,
        };
        for (fault, circuit) in [
            (FaultKind::Seu, lfsr),
            (FaultKind::Set, quick_request(None).circuit),
        ] {
            let (_, summary, checkpoints, shards) =
                go(fault, circuit, &format!("volume_{fault}"), &complete);
            assert_eq!(summary.outcome, RunOutcome::Complete);
            assert!(
                summary.total_points > RANGE_POINTS,
                "{fault}: several ranges"
            );
            assert!(
                checkpoints <= 2,
                "{fault}: {checkpoints} checkpoint flushes"
            );
            assert_eq!(
                shards as usize,
                summary.total_points.div_ceil(RANGE_POINTS),
                "{fault}"
            );
        }

        let interrupted = RunnerOptions {
            stop_after_points: Some(20),
            threads: Some(2),
            ..RunnerOptions::default()
        };
        let circuit = quick_request(None).circuit;
        let (out, summary, _, _) = go(FaultKind::Set, circuit, "volume_cut", &interrupted);
        assert_eq!(summary.outcome, RunOutcome::Cancelled);
        let paths = SessionPaths::new(&out);
        let cp = CampaignCheckpoint::load(&paths.checkpoint()).unwrap();
        assert!(cp.points.iter().all(|p| *p == PointProgress::new(p.point)));
        let shards = work::list_shards(&paths.shards_dir()).unwrap();
        let records = || shards.iter().flat_map(|s| &s.points);
        let progress = crate::gather_status(&out).unwrap().0.progress.unwrap();
        let status = (
            progress.completed_points,
            progress.total_points,
            progress.injections,
        );
        let in_shards = (
            records().filter(|p| p.complete).count(),
            cp.num_points,
            records().map(|p| p.injections_done).sum(),
        );
        assert_eq!(status, in_shards);
        let ran = (
            summary.completed_points,
            summary.total_points,
            summary.total_injections,
        );
        assert_eq!(status, ran);
        assert!(summary.completed_points >= 20);
    }

    #[test]
    fn bad_budget_is_rejected_cleanly() {
        for bad in [0.0, -0.5, 1.5] {
            let out = tmp_dir("bad_budget");
            let mut request = quick_request(None);
            request.budget = bad;
            let err = run(
                &request,
                &out,
                &RunnerOptions::default(),
                &CancelToken::new(),
                |_, _| {},
            )
            .unwrap_err();
            assert!(err.to_string().contains("budget"), "{err}");
        }
    }

    #[test]
    fn short_testbench_is_rejected_cleanly() {
        let out = tmp_dir("short");
        let mut request = quick_request(None);
        request.cycles = 2;
        let err = run(
            &request,
            &out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
        assert!(
            !out.exists(),
            "rejected run must not create the session dir"
        );
    }
}
