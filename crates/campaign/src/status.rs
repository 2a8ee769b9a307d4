//! Session status assembly: the library surface behind `ffr status` and
//! the `ffrd` service's `GET /campaigns/<id>/status`.
//!
//! [`gather_status`] merges the on-disk view of one campaign session —
//! manifest, checkpoint, every runner's shards, lease files, telemetry
//! logs — into a [`StatusReport`], which serializes to the
//! `ffr status --json` document. The CLI renders the same report as
//! text; the service serves it verbatim, so the two can never drift.

use crate::checkpoint::CampaignCheckpoint;
use crate::session::{CampaignManifest, SessionPaths};
use crate::work;
use ffr_fault::FaultKind;
use serde::Serialize;
use std::io;
use std::path::Path;

/// Schema version of the `ffr status --json` document (bumped on any
/// backwards-incompatible change; adding fields is compatible).
pub(crate) const STATUS_SCHEMA_VERSION: u64 = 2;

/// One lease as reported by `ffr status`.
#[derive(Debug, Clone, Serialize)]
pub struct LeaseStatus {
    /// First leased point index.
    pub range_start: usize,
    /// One past the last leased point index.
    pub range_end: usize,
    /// Holding worker id.
    pub worker: String,
    /// Seconds until the record's expiry stamp (negative once past).
    /// Diagnostic only: the stamps come from the holder's clock, so this
    /// can disagree with `expired` under cross-host clock skew.
    pub expires_in_secs: i64,
    /// `true` once the lease file has outlived its TTL without a
    /// heartbeat, by observed file age — the signal reclaim acts on.
    pub expired: bool,
}

/// One worker's aggregate progress as reported by `ffr status`.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerStatus {
    /// Worker id.
    pub worker: String,
    /// Leases currently held and live.
    pub active_leases: usize,
    /// Held leases that have outlived their TTL (holder likely dead).
    pub stale_leases: usize,
    /// Shard checkpoints attributed to this worker.
    pub shards: usize,
    /// Points retired across those shards.
    pub retired_points: usize,
}

/// Campaign-level progress as reported by `ffr status`.
#[derive(Debug, Clone, Serialize)]
pub struct ProgressStatus {
    /// Injection points fully retired.
    pub completed_points: usize,
    /// Total injection points of the campaign.
    pub total_points: usize,
    /// Injections executed so far.
    pub injections: usize,
    /// `true` once every point is retired.
    pub complete: bool,
}

/// Live rates derived from the session's telemetry logs, when available.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryStatus {
    /// Observed injection throughput (injections per worker-second of
    /// measurement), or `None` while unknown — zero injections or zero
    /// measured time so far. Never `NaN`/`inf`.
    pub injections_per_sec: Option<f64>,
    /// Estimated seconds to retire the remaining points at that rate
    /// (absent once complete, before any point has been retired, or
    /// while the rate is unknown).
    pub eta_secs: Option<u64>,
}

/// The full `ffr status` report (also the `--json` document).
///
/// # JSON schema notes (schema version 2)
///
/// * `telemetry.injections_per_sec` is a number or **null** — never
///   `NaN`/`inf` (which are not JSON). It is null while the rate is
///   unknown: no telemetry record has both a positive injection count
///   and a positive measure duration yet (e.g. a worker SIGKILLed
///   before its first span flush, or a campaign served entirely from
///   cache in zero measured time).
/// * `telemetry.eta_secs` is a number or null: null once complete,
///   before any point has been retired, or while the rate is unknown.
/// * `telemetry` itself is present whenever the session has telemetry
///   logs, even if both rates are still null; it is absent only when
///   telemetry is disabled or the logs are empty.
/// * `leases[].expired` reflects **observed file age** (mtime vs. the
///   local clock, the same signal reclaim uses); `expires_in_secs` is
///   the raw stamp difference, a diagnostic that can disagree under
///   clock skew.
/// * `workers` lists every runner that persisted shards, including the
///   single-process `ffr run` / `ffr resume` runner as worker `local`
///   (rows were added, the schema is unchanged).
///
/// Version history: v2 made `injections_per_sec` nullable and switched
/// `expired` to observed age; v1 omitted `telemetry` whenever the rate
/// was unknown and emitted `expired` from unix-stamp comparison.
#[derive(Debug, Serialize)]
pub struct StatusReport {
    /// Schema version of this document (see the notes above).
    pub schema_version: u64,
    /// Session directory the report describes.
    pub session: String,
    /// Circuit name from the manifest.
    pub circuit: String,
    /// Fault model (`seu` / `set`).
    pub fault: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Stopping-policy spec.
    pub policy: String,
    /// Campaign fingerprint.
    pub fingerprint: String,
    /// Merged progress (checkpoint + every shard); `None` before a runner
    /// has opened the campaign.
    pub progress: Option<ProgressStatus>,
    /// Per-worker breakdown of the shards and leases on disk (`local` for
    /// the single-process runner).
    pub workers: Vec<WorkerStatus>,
    /// Live leases on disk.
    pub leases: Vec<LeaseStatus>,
    /// Shard checkpoints on disk.
    pub shard_count: usize,
    /// How many of those shards are complete.
    pub complete_shards: usize,
    /// Path of the finished table, once published.
    pub table: Option<String>,
    /// Live rate / ETA estimates from the telemetry logs (absent when
    /// telemetry is disabled or empty; see the schema notes on
    /// [`StatusReport`]).
    pub telemetry: Option<TelemetryStatus>,
}

/// Rate/ETA block from merged telemetry + progress, with every division
/// edge case clamped to `None` instead of `NaN`/`inf`: zero measured
/// time, zero injections, zero completed points, completed campaigns,
/// and (defensively) any non-finite intermediate.
fn telemetry_status(
    stats: &crate::stats::CampaignStats,
    progress: Option<&ProgressStatus>,
) -> TelemetryStatus {
    let rate = stats
        .injections_per_sec()
        .filter(|r| r.is_finite() && *r > 0.0);
    let eta_secs = rate.and_then(|rate| {
        let p = progress?;
        if p.complete || p.completed_points == 0 {
            return None;
        }
        let per_point = p.injections as f64 / p.completed_points as f64;
        let remaining = p.total_points.saturating_sub(p.completed_points) as f64;
        let eta = remaining * per_point / rate;
        eta.is_finite().then(|| eta.round() as u64)
    });
    TelemetryStatus {
        injections_per_sec: rate.map(|r| (r * 10.0).round() / 10.0),
        eta_secs,
    }
}

/// Assemble the status of a session directory: manifest facts plus the
/// checkpoint with every shard merged in. Returns the fault model
/// alongside for fault-dependent rendering.
///
/// # Errors
///
/// Returns a rendered message when the session has no readable manifest,
/// a directory scan fails, a shard or `checkpoint.json` cannot be read —
/// or the latter is missing while shards exist — or a shard does not
/// merge into it (the message `ffr run` would fail with).
pub fn gather_status(out: &Path) -> Result<(StatusReport, FaultKind), String> {
    let paths = SessionPaths::new(out);
    let manifest = CampaignManifest::load(&paths.manifest()).map_err(|e| e.to_string())?;
    let shards = work::list_shards(&paths.shards_dir()).map_err(|e| e.to_string())?;
    let lease_files = work::list_leases(&paths.leases_dir()).map_err(|e| e.to_string())?;
    let now = work::unix_now();

    // Progress: every shard merged into the checkpoint, as a runner
    // resuming the session would see it.
    let progress = match CampaignCheckpoint::load(&paths.checkpoint()) {
        Ok(mut cp) => {
            for shard in &shards {
                cp.merge_shard(shard).map_err(|e| e.to_string())?;
            }
            Some(ProgressStatus {
                completed_points: cp.completed_points(),
                total_points: cp.num_points,
                injections: cp.total_injections(),
                complete: cp.is_complete(),
            })
        }
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.to_string()),
        Err(_) if !shards.is_empty() => {
            return Err(format!(
                "{}: missing, but the session holds {} shard(s)",
                paths.checkpoint().display(),
                shards.len()
            ))
        }
        Err(_) => None,
    };

    let leases: Vec<LeaseStatus> = lease_files
        .iter()
        .filter_map(|info| {
            let record = info.record.as_ref()?;
            Some(LeaseStatus {
                range_start: record.range_start,
                range_end: record.range_end,
                worker: record.worker.clone(),
                expires_in_secs: record.expires_unix as i64 - now as i64,
                expired: record.expired_by_age(info.modified),
            })
        })
        .collect();

    // Per-worker rollup across leases and shard provenance.
    let mut workers: Vec<WorkerStatus> = Vec::new();
    let worker_entry = |workers: &mut Vec<WorkerStatus>, id: &str| -> usize {
        match workers.iter().position(|w| w.worker == id) {
            Some(i) => i,
            None => {
                workers.push(WorkerStatus {
                    worker: id.to_string(),
                    active_leases: 0,
                    stale_leases: 0,
                    shards: 0,
                    retired_points: 0,
                });
                workers.len() - 1
            }
        }
    };
    for lease in &leases {
        let i = worker_entry(&mut workers, &lease.worker);
        if lease.expired {
            workers[i].stale_leases += 1;
        } else {
            workers[i].active_leases += 1;
        }
    }
    for shard in &shards {
        let i = worker_entry(&mut workers, &shard.worker);
        workers[i].shards += 1;
        workers[i].retired_points += shard.completed_points();
    }
    workers.sort_by(|a, b| a.worker.cmp(&b.worker));

    // Live rates: telemetry never gates status — a session without logs
    // (FFR_TELEMETRY=0, or pre-telemetry sessions) just omits the field.
    // With logs present the field is always emitted, its rates clamped
    // to null while unknown (see the schema notes).
    let telemetry = crate::stats::CampaignStats::from_session(out)
        .ok()
        .filter(|stats| !stats.is_empty())
        .map(|stats| telemetry_status(&stats, progress.as_ref()));

    let table = paths.table_json(manifest.fault);
    let report = StatusReport {
        schema_version: STATUS_SCHEMA_VERSION,
        session: out.display().to_string(),
        circuit: manifest.circuit.clone(),
        fault: manifest.fault.to_string(),
        seed: manifest.seed,
        policy: manifest.policy.to_string(),
        fingerprint: manifest.fingerprint.clone(),
        progress,
        workers,
        complete_shards: shards.iter().filter(|s| s.is_complete()).count(),
        shard_count: shards.len(),
        leases,
        table: table.exists().then(|| table.display().to_string()),
        telemetry,
    };
    Ok((report, manifest.fault))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CampaignStats, WorkerStats};
    use crate::{AdaptivePolicy, CancelToken, CircuitSpec, RunRequest, RunnerOptions};

    fn progress(completed: usize, total: usize, injections: usize) -> ProgressStatus {
        ProgressStatus {
            completed_points: completed,
            total_points: total,
            injections,
            complete: completed == total,
        }
    }

    fn stats_with(injections: u64, measure_us: u64) -> CampaignStats {
        CampaignStats {
            workers: vec![WorkerStats {
                injections,
                measure_us,
                ..WorkerStats::default()
            }],
            ..CampaignStats::default()
        }
    }

    #[test]
    fn zero_duration_rates_clamp_to_none_and_stay_valid_json() {
        // A worker SIGKILLed before its first span flush: injections
        // counted, zero measured time. The old schema emitted inf here.
        for (injections, measure_us) in [(0, 0), (128, 0), (0, 55_000)] {
            let t = telemetry_status(
                &stats_with(injections, measure_us),
                Some(&progress(2, 8, 128)),
            );
            assert_eq!(t.injections_per_sec, None, "{injections}/{measure_us}");
            assert_eq!(t.eta_secs, None);
            let json = serde_json::to_string_pretty(&t).unwrap();
            assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
            serde_json::parse_value_complete(&json).expect("valid JSON");
        }
    }

    #[test]
    fn eta_is_absent_when_complete_or_nothing_retired() {
        let stats = stats_with(640, 2_000_000);
        let t = telemetry_status(&stats, Some(&progress(8, 8, 640)));
        assert!(t.injections_per_sec.is_some());
        assert_eq!(t.eta_secs, None, "complete campaign has no ETA");
        let t = telemetry_status(&stats, Some(&progress(0, 8, 0)));
        assert_eq!(t.eta_secs, None, "no per-point cost observable yet");
        let t = telemetry_status(&stats, None);
        assert_eq!(t.eta_secs, None, "no progress view at all");
    }

    #[test]
    fn healthy_rates_round_trip() {
        // 640 injections over 2 s → 320/s; 4 of 8 points at 160
        // injections each → 640 more injections → ETA 2 s.
        let t = telemetry_status(&stats_with(640, 2_000_000), Some(&progress(4, 8, 640)));
        assert_eq!(t.injections_per_sec, Some(320.0));
        assert_eq!(t.eta_secs, Some(2));
    }

    /// A checkpoint `ffr resume` refuses, or a shard `ffr run` cannot
    /// read or merge, is an error here too: not "not started", not a
    /// shard silently left out of the progress view.
    #[test]
    fn unreadable_checkpoint_and_foreign_shard_are_errors() {
        let out = std::env::temp_dir().join(format!("ffr_status_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut request = RunRequest::new(CircuitSpec::Counter { width: 6 });
        request.policy = AdaptivePolicy::fixed(16);
        let options = RunnerOptions {
            stop_after_points: Some(3),
            ..RunnerOptions::default()
        };
        crate::run_session(&request, &out, &options, &CancelToken::new(), |_, _| {}).unwrap();
        let paths = SessionPaths::new(&out);
        let good = CampaignCheckpoint::load(&paths.checkpoint()).unwrap();
        assert!(gather_status(&out).unwrap().0.progress.is_some());

        let mut short = good.clone();
        short.points[0].counts.truncate(2);
        short.save(&paths.checkpoint()).unwrap();
        let err = gather_status(&out).unwrap_err();
        assert!(err.contains("checkpoint.json: "), "{err}");
        assert!(err.contains("2 class tallies"), "{err}");

        good.save(&paths.checkpoint()).unwrap();
        let mut foreign = good;
        foreign.fingerprint = "0-0".to_string();
        std::fs::create_dir_all(paths.shards_dir()).unwrap();
        let shard_path = paths.shards_dir().join(work::shard_file_name(&(0..1)));
        foreign.shard("w", 0..1).save(&shard_path).unwrap();
        let err = gather_status(&out).unwrap_err();
        assert!(err.contains("does not match campaign"), "{err}");

        // The interrupted run's own shard, truncated: `resume` and
        // `status` both name it instead of recomputing or under-reporting.
        std::fs::remove_file(&shard_path).unwrap();
        let shard_path = paths.shards_dir().join(work::shard_file_name(&(0..6)));
        let text = std::fs::read_to_string(&shard_path).unwrap();
        std::fs::write(&shard_path, &text[..text.len() / 2]).unwrap();
        let name = shard_path.display().to_string();
        let err = gather_status(&out).unwrap_err();
        assert!(err.contains(&name), "{err}");
        let err = crate::session::resume(&out, &options, &CancelToken::new(), |_, _| {});
        let err = err.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&name), "{err}");
        std::fs::remove_dir_all(&out).unwrap();
    }
}
