//! Durable, resumable, adaptively-sampled fault-injection campaign
//! orchestration.
//!
//! The statistical campaigns of the paper (170 injections × every
//! flip-flop) dominate the cost of the whole estimation flow. [`ffr_fault`]
//! runs one injection point; this crate's runner is the one loop over a
//! campaign's points — for in-memory callers ([`run_resumable`] over a
//! [`CampaignCheckpoint::fresh`] point list) and for durable jobs that
//! scale:
//!
//! Campaigns are generic over the fault model: every layer — progress
//! records, runner, session, CLI — works on
//! [`InjectionPoint`](ffr_fault::InjectionPoint)s, so SEU (per-flip-flop)
//! and SET (per-combinational-net) campaigns share one durable pipeline.
//!
//! * **Checkpoint / resume** ([`CampaignCheckpoint`], [`run_resumable`]) —
//!   per-point progress is persisted as each 16-point range retires (one
//!   shard file per range); a killed run resumes **bit-identically**,
//!   because injection plans and stopping decisions are pure functions of
//!   `(seed, point, window, policy)`.
//! * **Artifact store** ([`ArtifactStore`]) — golden runs, FDR tables, SET
//!   de-rating tables, feature matrices and datasets are cached on disk,
//!   content-addressed by netlist hash + configuration in a versioned,
//!   self-describing format. Reruns with identical inputs are served from
//!   the cache without simulating a cycle.
//! * **Adaptive early stopping** ([`AdaptivePolicy`]) — a point is retired
//!   as soon as the Wilson confidence interval on its failure fraction is
//!   tight enough, typically cutting campaign cost severalfold on bimodal
//!   populations. Stopping rules are named **policy specs** (`fixed:170`,
//!   `wilson:0.05@95`, `wilson:0.02@99:64..340`) parsed and printed in one
//!   place ([`AdaptivePolicy`]'s `FromStr`/`Display`) and plumbed through
//!   `--policy`, the manifest and the campaign fingerprint, so
//!   differently-policied campaigns cache independently and resume
//!   byte-identically; `ffr-bench --bin policy_study` quantifies the
//!   accuracy-vs-cost trade-off (see `docs/policy-study.md`).
//! * **Pluggable work distribution** (crate-internal) — the runner is
//!   generic over a work source: threads claim injection points from the
//!   in-process work-stealing cursor, so adaptive stopping and early
//!   convergence exit do not leave threads idle behind a static partition.
//! * **Distributed campaigns** (`ffr worker`, a crate-internal lease queue)
//!   — several worker processes (machines, over a shared filesystem) drain
//!   one campaign by leasing point ranges from the session directory: lease
//!   records carry worker id, expiry and heartbeats; expired leases are
//!   reclaimed; each worker flushes per-range shard checkpoints that merge
//!   deterministically — the final table is **byte-identical** to a
//!   single-process run, no matter how work was distributed (or duplicated
//!   by lease-reclaim races).
//! * **Compressed artifacts** ([`codec`], [`store`]) — bulky golden-run
//!   artifacts are stored as version-2 envelopes with a deflate-compressed
//!   payload; v1 JSON payloads read back transparently.
//! * **ML-assisted estimation** ([`estimate_session`]) — `ffr run --budget
//!   0.4` measures a seeded flip-flop subset; `ffr estimate`
//!   cross-validates the paper's regression models on the measured FDRs,
//!   predicts every unmeasured flip-flop from cached feature matrices, and
//!   emits a byte-reproducible estimation report — the full paper pipeline
//!   off cached artifacts, with zero re-simulation.
//! * **Structured telemetry** ([`CampaignStats`], `ffr-obs`) — the runner,
//!   lease queue, artifact store and session phases record spans, counters
//!   and latency histograms through a cheap [`ffr_obs::Recorder`] into
//!   per-worker JSONL logs under `<campaign>/telemetry/` — deliberately
//!   outside the artifact store and the campaign fingerprint, so telemetry
//!   never perturbs byte-identical resume/merge; `ffr stats` merges the
//!   logs into a throughput / latency report.
//! * **The `ffr` CLI** ([`cli`]) — `run --fault {seu,set}`, `resume`,
//!   `status`, `report`, `estimate`, `stats`, `gc` over named circuits
//!   ([`CircuitSpec`]), replacing ad-hoc per-experiment binaries for the
//!   core campaign flow. Status assembly ([`gather_status`]) is a library
//!   surface shared with the service.
//! * **The `ffrd` campaign service** ([`service`]) — a dependency-free
//!   HTTP/1.1 server (thread pool over `std::net`) that accepts campaign
//!   submissions as JSON (`POST /campaigns`), exposes their live progress
//!   (`GET /campaigns/<id>/status`, the `ffr status --json` schema) and
//!   serves cached estimates (`GET /campaigns/<id>/estimate`) while `ffr
//!   worker` fleets drain the queued campaigns; the lease dispatcher hands
//!   out the most expensive remaining ranges first, estimated from shard
//!   injection counts.
//! * **Pluggable artifact backends** (crate-internal) — the artifact store
//!   reads/writes through a backend trait object (local directory today; an
//!   object store or DB can land without touching callers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod adaptive;
mod checkpoint;
pub mod cli;
pub mod codec;
mod estimate;
mod runner;
pub mod service;
mod session;
mod spec;
mod stats;
mod status;
pub mod store;
mod transfer;
mod work;

pub use adaptive::AdaptivePolicy;
pub use checkpoint::{CampaignCheckpoint, CheckpointParams, PointProgress};
pub use estimate::{
    estimate_session, EstimateOptions, EstimateReport, EstimateSummary, FfEstimateRow, ModelReport,
};
pub use runner::{run_resumable, CancelToken, RunOutcome, RunnerOptions};
pub use session::{campaign_table_key, run as run_session, RunRequest, RunSummary, SessionPaths};
pub use spec::{BoxedStimulus, CircuitSpec, CliJudge, JudgeSpec, PreparedCircuit};
pub use stats::{CampaignStats, SpanStats, WorkerStats};
pub use status::{
    gather_status, LeaseStatus, ProgressStatus, StatusReport, TelemetryStatus, WorkerStatus,
};
pub use store::{ArtifactInfo, ArtifactKind, ArtifactStore, StoreKey};
pub use transfer::{
    transfer_from_store, ReferenceComparison, TrainCircuitReport, TransferFfRow, TransferReport,
    TransferSummary,
};
