//! Durable, resumable, adaptively-sampled fault-injection campaign
//! orchestration.
//!
//! The statistical campaigns of the paper (170 injections × every
//! flip-flop) dominate the cost of the whole estimation flow. This crate
//! turns the one-shot in-memory campaigns of [`ffr_fault`] into durable
//! jobs that scale:
//!
//! Campaigns are generic over the fault model: every layer — progress
//! records, runner, session, CLI — works on
//! [`InjectionPoint`](ffr_fault::InjectionPoint)s, so SEU (per-flip-flop)
//! and SET (per-combinational-net) campaigns share one durable pipeline.
//!
//! * **Checkpoint / resume** ([`checkpoint`], [`runner`]) — per-point
//!   progress is periodically flushed to disk; a killed run resumes
//!   **bit-identically**, because injection plans and stopping decisions
//!   are pure functions of `(seed, point, window, policy)`.
//! * **Artifact store** ([`store`]) — golden runs, FDR tables, SET
//!   de-rating tables, feature matrices and datasets are cached on disk,
//!   content-addressed by netlist hash + configuration in a versioned,
//!   self-describing format. Reruns with identical inputs are served from
//!   the cache without simulating a cycle.
//! * **Adaptive early stopping** ([`adaptive`]) — a point is retired as
//!   soon as the Wilson confidence interval on its failure fraction is
//!   tight enough, typically cutting campaign cost severalfold on bimodal
//!   populations. Stopping rules are named **policy specs** (`fixed:170`,
//!   `wilson:0.05@95`, `wilson:0.02@99:64..340`) parsed and printed in
//!   one place ([`AdaptivePolicy`]'s `FromStr`/`Display`) and plumbed
//!   through `--policy`, the manifest and the campaign fingerprint, so
//!   differently-policied campaigns cache independently and resume
//!   byte-identically; `ffr-bench --bin policy_study` quantifies the
//!   accuracy-vs-cost trade-off (see `docs/policy-study.md`).
//! * **Pluggable work distribution** ([`work`], [`runner`]) — the runner
//!   is generic over a [`WorkSource`]: threads claim
//!   injection points from the in-process work-stealing cursor
//!   ([`work::CursorSource`]), so adaptive stopping and early convergence
//!   exit do not leave threads idle behind a static partition.
//! * **Distributed campaigns** ([`work::LeaseQueue`], `ffr worker`) —
//!   several worker processes (machines, over a shared filesystem) drain
//!   one campaign by leasing point ranges from the session directory:
//!   lease records carry worker id, expiry and heartbeats; expired leases
//!   are reclaimed; each worker flushes per-range shard checkpoints that
//!   merge deterministically — the final table is **byte-identical** to a
//!   single-process run, no matter how work was distributed (or
//!   duplicated by lease-reclaim races).
//! * **Compressed artifacts** ([`codec`], [`store`]) — bulky golden-run
//!   artifacts are stored as version-2 envelopes with a
//!   deflate-compressed payload; v1 JSON payloads read back
//!   transparently.
//! * **ML-assisted estimation** ([`estimate`]) — `ffr run --budget 0.4`
//!   measures a seeded flip-flop subset; `ffr estimate` cross-validates
//!   the paper's regression models on the measured FDRs, predicts every
//!   unmeasured flip-flop from cached feature matrices, and emits a
//!   byte-reproducible estimation report — the full paper pipeline off
//!   cached artifacts, with zero re-simulation.
//! * **Structured telemetry** ([`stats`], `ffr-obs`) — the runner, lease
//!   queue, artifact store and session phases record spans, counters and
//!   latency histograms through a cheap [`ffr_obs::Recorder`] into
//!   per-worker JSONL logs under `<campaign>/telemetry/` — deliberately
//!   outside the artifact store and the campaign fingerprint, so
//!   telemetry never perturbs byte-identical resume/merge; `ffr stats`
//!   merges the logs into a throughput / latency report.
//! * **The `ffr` CLI** ([`cli`]) — `run --fault {seu,set}`, `resume`,
//!   `status`, `report`, `estimate`, `stats`, `gc` over named circuits
//!   ([`spec`]), replacing ad-hoc per-experiment binaries for the core
//!   campaign flow. Status assembly lives in [`status`] as a library
//!   surface shared with the service.
//! * **The `ffrd` campaign service** ([`service`]) — a dependency-free
//!   HTTP/1.1 server (thread pool over `std::net`) that accepts campaign
//!   submissions as JSON (`POST /campaigns`), exposes their live
//!   progress (`GET /campaigns/<id>/status`, the `ffr status --json`
//!   schema) and serves cached estimates (`GET /campaigns/<id>/estimate`)
//!   while `ffr worker` fleets drain the queued campaigns; the lease
//!   dispatcher hands out the most expensive remaining ranges first,
//!   estimated from shard injection counts.
//! * **Pluggable artifact backends** ([`store::StoreBackend`]) — the
//!   artifact store reads/writes through a backend trait object
//!   (local directory today; an object store or DB can land without
//!   touching callers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod checkpoint;
pub mod cli;
pub mod codec;
pub mod estimate;
pub mod runner;
pub mod service;
pub mod session;
pub mod spec;
pub mod stats;
pub mod status;
pub mod store;
pub mod transfer;
pub mod work;

pub use adaptive::{AdaptivePolicy, CHUNK_INJECTIONS};
pub use checkpoint::{CampaignCheckpoint, CheckpointParams, PointProgress, ShardCheckpoint};
pub use estimate::{
    estimate_from_store, estimate_session, EstimateOptions, EstimateReport, EstimateSummary,
    FfEstimateRow, ModelReport,
};
pub use runner::{run_resumable, run_with_source, CancelToken, RunOutcome, RunnerOptions};
pub use service::{ServiceConfig, ServiceHandle};
pub use session::{CampaignManifest, RunRequest, RunSummary, SessionPaths, WorkerRequest};
pub use spec::{CircuitSpec, PreparedCircuit};
pub use stats::{CampaignStats, SpanStats, WorkerStats, STATS_SCHEMA_VERSION};
pub use status::{gather_status, StatusReport, STATUS_SCHEMA_VERSION};
pub use store::{
    ArtifactInfo, ArtifactKind, ArtifactStore, GcReport, LocalDirBackend, StoreBackend, StoreKey,
};
pub use transfer::{
    transfer_from_store, ReferenceComparison, TrainCircuitReport, TransferFfRow, TransferReport,
    TransferSummary, TRANSFER_VERSION,
};
pub use work::{CursorSource, LeaseQueue, LeaseRecord, WorkSource};
