//! Durable campaign progress: per-injection-point tallies that can be
//! saved mid-run and resumed bit-identically.
//!
//! The unit of resumable work is a **64-injection chunk** of one
//! [`InjectionPoint`] (one bit-parallel simulation batch) — a flip-flop
//! for SEU campaigns, a combinational net for SET campaigns. A point's
//! injection plan is fully determined by `(seed, point, window,
//! max_injections)` via [`ffr_fault::sample_injection_times`] on
//! [`InjectionPoint::stream`], so the checkpoint does not need to persist
//! RNG state — only how far into the plan each point got and the class
//! tallies accumulated so far. Tallies of disjoint plan slices add, and
//! the adaptive stopping rule is a pure function of the tallies, so a
//! resumed campaign makes exactly the decisions an uninterrupted one
//! would have made.

use crate::adaptive::AdaptivePolicy;
use ffr_fault::{
    FailureClass, FaultKind, FdrTable, FfCampaignResult, InjectionPoint, NetSetResult,
    SetDeratingTable,
};
use ffr_netlist::{FfId, NetId};
use serde::{Deserialize, Serialize};
use std::io;
use std::ops::Range;
use std::path::Path;

/// Checkpoint file format version (2: fault-model-generic point records).
pub(crate) const CHECKPOINT_VERSION: u32 = 2;

/// Shard checkpoint file format version.
pub(crate) const SHARD_VERSION: u32 = 1;

/// Progress of one injection point's plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointProgress {
    /// Raw index of the point within its fault model's id space
    /// (flip-flop index for SEU, net index for SET) — see
    /// [`InjectionPoint::raw_index`].
    pub point: u32,
    /// Injections executed so far (a multiple of the chunk size except
    /// when the plan is exhausted).
    pub injections_done: usize,
    /// Per-class tallies so far, indexed like [`FailureClass::ALL`].
    pub counts: Vec<usize>,
    /// `true` once the stopping rule has retired this point.
    pub complete: bool,
}

impl PointProgress {
    /// Fresh, empty progress for an injection point.
    pub(crate) fn new(point: u32) -> PointProgress {
        PointProgress {
            point,
            injections_done: 0,
            counts: vec![0; FailureClass::ALL.len()],
            complete: false,
        }
    }

    /// Failures observed so far.
    pub(crate) fn failures(&self) -> usize {
        ffr_fault::failures_in(&self.counts)
    }

    /// Fold one chunk's tallies into this progress record.
    pub(crate) fn absorb(
        &mut self,
        chunk_counts: &[usize; FailureClass::ALL.len()],
        injections: usize,
    ) {
        for (total, &n) in self.counts.iter_mut().zip(chunk_counts.iter()) {
            *total += n;
        }
        self.injections_done += injections;
    }

    /// Reject a record the runner could not have written: it needs one
    /// tally per failure class. A record read from disk passes this
    /// before anything indexes its tallies.
    fn check(&self) -> io::Result<()> {
        if self.counts.len() == FailureClass::ALL.len() {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "progress record of point {} has {} class tallies, expected {}",
                self.point,
                self.counts.len(),
                FailureClass::ALL.len()
            ),
        ))
    }
}

/// The campaign parameters a checkpoint binds to.
///
/// Stored inside the checkpoint so `resume` can verify it is continuing
/// the same campaign (same fault model, same plan, same stopping rule)
/// before trusting the tallies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointParams {
    /// Fault model of the campaign ([`FaultKind::Seu`] targets every
    /// flip-flop; [`FaultKind::Set`] targets combinational nets).
    pub fault: FaultKind,
    /// Master campaign seed.
    pub seed: u64,
    /// Injection window start (inclusive).
    pub window_start: u64,
    /// Injection window end (exclusive).
    pub window_end: u64,
    /// Adaptive stopping policy.
    pub policy: AdaptivePolicy,
}

/// A resumable snapshot of campaign progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// Format version; [`CampaignCheckpoint::load`] rejects any other.
    pub version: u32,
    /// Store key of the netlist + campaign config this checkpoint belongs
    /// to (rendered like [`crate::StoreKey`]).
    pub fingerprint: String,
    /// The campaign parameters.
    pub params: CheckpointParams,
    /// Number of targeted injection points.
    pub num_points: usize,
    /// Per-point progress.
    pub points: Vec<PointProgress>,
}

impl CampaignCheckpoint {
    /// Fresh checkpoint covering the given raw point ids (see
    /// [`InjectionPoint::raw_index`]) — every flip-flop of a circuit
    /// (`0..num_ffs`), a training subset of them, or a list of nets for a
    /// SET campaign.
    pub fn fresh(
        fingerprint: String,
        params: CheckpointParams,
        point_ids: impl IntoIterator<Item = u32>,
    ) -> CampaignCheckpoint {
        let points: Vec<PointProgress> = point_ids.into_iter().map(PointProgress::new).collect();
        CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint,
            params,
            num_points: points.len(),
            points,
        }
    }

    /// The injection point of one progress record.
    pub(crate) fn point(&self, index: usize) -> InjectionPoint {
        InjectionPoint::from_raw(self.params.fault, self.points[index].point as usize)
    }

    /// Number of retired points.
    pub fn completed_points(&self) -> usize {
        self.points.iter().filter(|p| p.complete).count()
    }

    /// Total injections executed so far.
    pub fn total_injections(&self) -> usize {
        self.points.iter().map(|p| p.injections_done).sum()
    }

    /// `true` once every point is retired.
    pub(crate) fn is_complete(&self) -> bool {
        self.points.iter().all(|p| p.complete)
    }

    /// Assemble the FDR table of a completed SEU campaign over a circuit
    /// with `num_ffs` flip-flops. For budgeted campaigns the checkpoint
    /// covers only a measured subset, so `num_ffs` exceeds
    /// [`CampaignCheckpoint::num_points`] and the table reports the
    /// unmeasured flip-flops as uncovered (`fdr() == None`) — exactly the
    /// partial table `ffr estimate` trains on.
    ///
    /// # Panics
    ///
    /// Panics if the campaign is not complete, not an SEU campaign, or a
    /// point id is out of range for `num_ffs`.
    pub fn to_fdr_table_for(&self, num_ffs: usize) -> FdrTable {
        assert_eq!(
            self.params.fault,
            FaultKind::Seu,
            "FDR tables come from SEU campaigns (use to_set_table)"
        );
        assert!(
            self.is_complete(),
            "campaign still has unfinished injection points"
        );
        let results = self
            .points
            .iter()
            .map(|p| {
                let mut counts = [0usize; FailureClass::ALL.len()];
                counts.copy_from_slice(&p.counts);
                FfCampaignResult::new(FfId::from_index(p.point as usize), counts)
            })
            .collect();
        FdrTable::from_results(num_ffs, results, self.params.policy.max_injections)
    }

    /// Assemble the final de-rating table from a completed SET campaign.
    ///
    /// # Panics
    ///
    /// Panics if the campaign is not complete or not a SET campaign.
    pub fn to_set_table(&self) -> SetDeratingTable {
        assert_eq!(
            self.params.fault,
            FaultKind::Set,
            "de-rating tables come from SET campaigns (use to_fdr_table_for)"
        );
        assert!(
            self.is_complete(),
            "campaign still has unfinished injection points"
        );
        let results = self
            .points
            .iter()
            .map(|p| {
                let mut counts = [0usize; FailureClass::ALL.len()];
                counts.copy_from_slice(&p.counts);
                NetSetResult::new(NetId::from_index(p.point as usize), counts)
            })
            .collect();
        SetDeratingTable::from_results(results, self.params.policy.max_injections)
    }

    /// Check that this checkpoint, read back from disk, continues the
    /// campaign whose fresh checkpoint is `fresh`: same parameters and the
    /// same point ids in the same order. A matching fingerprint does not
    /// vouch for the point list — a truncated or edited file keeps it.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] naming the first mismatch.
    pub(crate) fn check_resumes(&self, fresh: &CampaignCheckpoint) -> io::Result<()> {
        let mismatch = |what: String| {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint does not fit its campaign: {what}"),
            ))
        };
        if self.params != fresh.params {
            return mismatch("different campaign parameters".into());
        }
        if self.num_points != fresh.num_points || self.points.len() != fresh.num_points {
            return mismatch(format!(
                "{} points ({} records) where the campaign has {}",
                self.num_points,
                self.points.len(),
                fresh.num_points
            ));
        }
        let point = |p: &PointProgress| p.point;
        if !self
            .points
            .iter()
            .map(point)
            .eq(fresh.points.iter().map(point))
        {
            return mismatch("different point ids".into());
        }
        Ok(())
    }

    /// Serialize to pretty JSON at `path` via a temp file + atomic rename,
    /// so a kill mid-save leaves the previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        crate::store::atomic_write(path, &json)
    }

    /// [`CampaignCheckpoint::save`] plus flush-latency telemetry: the
    /// serialize-and-rename time lands in the `checkpoint.flush_us`
    /// histogram of `recorder`, so `ffr stats` can report how much of a
    /// campaign went into durability.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn save_recorded(
        &self,
        path: &Path,
        recorder: &ffr_obs::Recorder,
    ) -> io::Result<()> {
        if !recorder.enabled() {
            return self.save(path);
        }
        let t0 = std::time::Instant::now();
        let result = self.save(path);
        recorder.observe_us("checkpoint.flush_us", t0.elapsed().as_micros() as u64);
        recorder.count("checkpoint.flushes", 1);
        result
    }

    /// Load a checkpoint previously written by [`CampaignCheckpoint::save`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, undecodable files, a version mismatch, or a
    /// malformed progress record; every message names the file, and a
    /// missing file keeps [`io::ErrorKind::NotFound`]. The version is
    /// probed before full deserialization, so a v1 checkpoint reports
    /// "version 1 unsupported" rather than a missing-field decode error.
    pub fn load(path: &Path) -> io::Result<CampaignCheckpoint> {
        let checkpoint: CampaignCheckpoint =
            crate::store::load_versioned(path, "checkpoint", CHECKPOINT_VERSION)
                .map_err(named(path))?;
        let records = checkpoint.points.iter().try_for_each(PointProgress::check);
        records.map_err(named(path))?;
        Ok(checkpoint)
    }

    /// Extract the shard covering point indices `range` (a snapshot of
    /// this checkpoint's records, stamped with the flushing worker's id).
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the point list.
    pub(crate) fn shard(&self, worker: &str, range: Range<usize>) -> ShardCheckpoint {
        ShardCheckpoint {
            version: SHARD_VERSION,
            fingerprint: self.fingerprint.clone(),
            worker: worker.to_string(),
            range_start: range.start,
            range_end: range.end,
            points: self.points[range].to_vec(),
        }
    }

    /// Merge a shard's records into this checkpoint, point-indexed.
    ///
    /// The merge is **deterministic and order-independent**: for every
    /// point the record with more executed injections wins, and because a
    /// point's injection plan and stopping decisions are pure functions
    /// of `(seed, point, window, policy)`, two records with equal
    /// `injections_done` for the same point are *identical* — no matter
    /// which worker produced them, or whether an expired lease made two
    /// workers compute the same range. Merging any set of shards (in any
    /// order, with any overlap) into the same base therefore yields a
    /// byte-identical checkpoint, and hence a byte-identical final table.
    ///
    /// Returns how many point records the shard advanced.
    ///
    /// # Errors
    ///
    /// Fails if the shard belongs to a different campaign (fingerprint),
    /// covers points outside this checkpoint, its point ids do not match
    /// the checkpoint's at the same indices, or a record is malformed.
    pub(crate) fn merge_shard(&mut self, shard: &ShardCheckpoint) -> io::Result<usize> {
        if shard.fingerprint != self.fingerprint {
            return Err(io::Error::other(format!(
                "shard fingerprint {} does not match campaign {}",
                shard.fingerprint, self.fingerprint
            )));
        }
        if shard.range_end > self.points.len()
            || shard.range_start > shard.range_end
            || shard.points.len() != shard.range_end - shard.range_start
        {
            return Err(io::Error::other(format!(
                "shard range {}..{} ({} records) does not fit a {}-point campaign",
                shard.range_start,
                shard.range_end,
                shard.points.len(),
                self.points.len()
            )));
        }
        if let Err(e) = shard.points.iter().try_for_each(PointProgress::check) {
            let (start, end) = (shard.range_start, shard.range_end);
            let context = format!("shard {start}..{end} of worker {}", shard.worker);
            return Err(io::Error::new(e.kind(), format!("{context}: {e}")));
        }
        let mut advanced = 0;
        for (offset, record) in shard.points.iter().enumerate() {
            let index = shard.range_start + offset;
            let mine = &mut self.points[index];
            if record.point != mine.point {
                return Err(io::Error::other(format!(
                    "shard point id {} at index {index} does not match campaign point id {}",
                    record.point, mine.point
                )));
            }
            if record.injections_done > mine.injections_done
                || (record.injections_done == mine.injections_done
                    && record.complete
                    && !mine.complete)
            {
                *mine = record.clone();
                advanced += 1;
            }
        }
        Ok(advanced)
    }
}

/// A worker's durable progress over one contiguous range of a campaign's
/// injection points — the unit of crash-safe state in distributed
/// draining. Each worker flushes only the shards of the lease ranges it
/// holds (atomic renames, like the main checkpoint), so workers never
/// contend on one file; [`CampaignCheckpoint::merge_shard`] folds shards
/// back into the full picture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ShardCheckpoint {
    /// Format version ([`SHARD_VERSION`]).
    pub version: u32,
    /// Campaign fingerprint this shard belongs to (must match the
    /// manifest/checkpoint before the records are trusted).
    pub fingerprint: String,
    /// Id of the worker that last flushed this shard.
    pub worker: String,
    /// First covered point index (into the campaign checkpoint's point
    /// list — *not* a raw flip-flop/net id).
    pub range_start: usize,
    /// One past the last covered point index.
    pub range_end: usize,
    /// Progress records for points `range_start..range_end`.
    pub points: Vec<PointProgress>,
}

impl ShardCheckpoint {
    /// `true` once every point in the shard is retired.
    pub(crate) fn is_complete(&self) -> bool {
        self.points.iter().all(|p| p.complete)
    }

    /// Number of retired points in the shard.
    pub(crate) fn completed_points(&self) -> usize {
        self.points.iter().filter(|p| p.complete).count()
    }

    /// Serialize to JSON at `path` via a temp file + atomic rename.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        crate::store::atomic_write(path, &json)
    }

    /// Load a shard written by [`ShardCheckpoint::save`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, undecodable files, or a version mismatch
    /// (`InvalidData`); every message names the file.
    pub(crate) fn load(path: &Path) -> io::Result<ShardCheckpoint> {
        crate::store::load_versioned(path, "shard", SHARD_VERSION).map_err(named(path))
    }
}

/// Prefix a load error with the file it came from, keeping its kind.
fn named(path: &Path) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(fault: FaultKind) -> CheckpointParams {
        CheckpointParams {
            fault,
            seed: 7,
            window_start: 10,
            window_end: 100,
            policy: AdaptivePolicy::fixed(128),
        }
    }

    #[test]
    fn fresh_checkpoint_is_empty() {
        let cp = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), 0..4);
        assert_eq!(cp.points.len(), 4);
        assert_eq!(cp.completed_points(), 0);
        assert_eq!(cp.total_injections(), 0);
        assert!(!cp.is_complete());
        assert_eq!(cp.point(2), InjectionPoint::from_raw(FaultKind::Seu, 2));
    }

    #[test]
    fn fresh_set_checkpoint_records_net_ids() {
        let cp = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Set), [9u32, 4]);
        assert_eq!(cp.num_points, 2);
        assert_eq!(cp.point(0), InjectionPoint::Set(NetId::from_index(9)));
        assert_eq!(cp.point(1), InjectionPoint::Set(NetId::from_index(4)));
    }

    #[test]
    fn absorb_accumulates() {
        let mut p = PointProgress::new(2);
        let mut chunk = [0usize; FailureClass::ALL.len()];
        chunk[FailureClass::Benign.tally_index()] = 60;
        chunk[FailureClass::OutputMismatch.tally_index()] = 4;
        p.absorb(&chunk, 64);
        p.absorb(&chunk, 64);
        assert_eq!(p.injections_done, 128);
        assert_eq!(p.failures(), 8);
        assert_eq!(p.counts[FailureClass::Benign.tally_index()], 120);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("ffr_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut cp = CampaignCheckpoint::fresh("abc".into(), params(FaultKind::Seu), 0..3);
        cp.points[1].complete = true;
        cp.points[1].injections_done = 128;
        cp.save(&path).unwrap();
        let loaded = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, cp);

        cp.points[2].counts.truncate(2);
        cp.save(&path).unwrap();
        let err = CampaignCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("2 class tallies"), "{err}");
    }

    #[test]
    fn v1_checkpoint_reports_version_not_missing_fields() {
        // A PR-1-era checkpoint (version 1, pre-fault-model fields) must
        // fail with the version message, not an opaque decode error.
        let dir = std::env::temp_dir().join(format!("ffr_ckpt_v1_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        std::fs::write(
            &path,
            r#"{"version":1,"fingerprint":"x","params":{"seed":1,"window_start":0,"window_end":9,"policy":{"min_injections":1,"max_injections":1,"z":1.96,"ci_half_width":null}},"num_ffs":1,"ffs":[]}"#,
        )
        .unwrap();
        let err = CampaignCheckpoint::load(&path).unwrap_err();
        assert!(
            err.to_string().contains("version 1 unsupported"),
            "got: {err}"
        );
    }

    #[test]
    fn to_fdr_table_requires_completion() {
        let mut cp = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), 0..2);
        for p in &mut cp.points {
            p.counts[FailureClass::Benign.tally_index()] = 48;
            p.counts[FailureClass::OutputMismatch.tally_index()] = 16;
            p.injections_done = 64;
            p.complete = true;
        }
        let table = cp.to_fdr_table_for(2);
        assert_eq!(table.num_ffs(), 2);
        assert_eq!(table.fdr(FfId::from_index(0)), Some(0.25));
    }

    #[test]
    fn to_set_table_from_completed_set_campaign() {
        let mut cp = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Set), [7u32, 3]);
        for p in &mut cp.points {
            p.counts[FailureClass::Benign.tally_index()] = 32;
            p.counts[FailureClass::OutputMismatch.tally_index()] = 32;
            p.injections_done = 64;
            p.complete = true;
        }
        let table = cp.to_set_table();
        assert_eq!(table.num_nets(), 2);
        assert_eq!(table.derating(NetId::from_index(3)), Some(0.5));
        assert_eq!(table.derating(NetId::from_index(5)), None);
    }

    #[test]
    fn partial_fdr_table_reports_unmeasured_ffs_uncovered() {
        // A budgeted campaign measured FFs 1 and 4 of a 6-FF circuit.
        let mut cp = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), [1u32, 4]);
        for p in &mut cp.points {
            p.counts[FailureClass::Benign.tally_index()] = 96;
            p.counts[FailureClass::OutputMismatch.tally_index()] = 32;
            p.injections_done = 128;
            p.complete = true;
        }
        let table = cp.to_fdr_table_for(6);
        assert_eq!(table.num_ffs(), 6);
        assert_eq!(table.covered().count(), 2);
        assert_eq!(table.fdr(FfId::from_index(1)), Some(0.25));
        assert_eq!(table.fdr(FfId::from_index(0)), None);
        assert_eq!(table.fdr(FfId::from_index(5)), None);
    }

    fn progressed(cp: &CampaignCheckpoint, index: usize, injections: usize) -> CampaignCheckpoint {
        let mut cp = cp.clone();
        cp.points[index].counts[FailureClass::Benign.tally_index()] = injections;
        cp.points[index].injections_done = injections;
        cp.points[index].complete = injections >= 128;
        cp
    }

    #[test]
    fn shard_slice_merge_round_trip() {
        let base = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), 0..6);
        let worked = progressed(&progressed(&base, 2, 128), 3, 64);
        let shard = worked.shard("w1", 2..4);
        assert_eq!(shard.worker, "w1");
        assert_eq!((shard.range_start, shard.range_end), (2, 4));
        assert_eq!(shard.completed_points(), 1);
        assert!(!shard.is_complete());

        // Merging the shard into a fresh base reproduces the progress.
        let mut merged = base.clone();
        assert_eq!(merged.merge_shard(&shard).unwrap(), 2);
        assert_eq!(merged, worked);
        // Idempotent: merging again advances nothing and changes nothing.
        assert_eq!(merged.merge_shard(&shard).unwrap(), 0);
        assert_eq!(merged, worked);
    }

    #[test]
    fn shard_merge_is_order_independent_and_prefers_progress() {
        let base = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), 0..4);
        // Two overlapping shards of the same deterministic campaign: one
        // worker got further into point 1's plan than the other.
        let early = progressed(&base, 1, 64).shard("w1", 0..2);
        let late = progressed(&base, 1, 128).shard("w2", 1..3);
        let mut ab = base.clone();
        ab.merge_shard(&early).unwrap();
        ab.merge_shard(&late).unwrap();
        let mut ba = base.clone();
        ba.merge_shard(&late).unwrap();
        ba.merge_shard(&early).unwrap();
        assert_eq!(ab, ba, "merge order must not matter");
        assert_eq!(ab.points[1].injections_done, 128);
        assert!(ab.points[1].complete);
    }

    #[test]
    fn shard_merge_rejects_foreign_or_misaligned_shards() {
        let mut cp = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), 0..4);
        let foreign = CampaignCheckpoint::fresh("other".into(), params(FaultKind::Seu), 0..4)
            .shard("w", 0..2);
        assert!(cp.merge_shard(&foreign).is_err(), "fingerprint mismatch");

        let mut oversized = cp.shard("w", 2..4);
        oversized.range_end = 9;
        assert!(cp.merge_shard(&oversized).is_err(), "range out of bounds");

        // A budgeted campaign over different point ids at the same
        // indices must be rejected even with a (forged) fingerprint.
        let mut wrong_ids =
            CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), [7u32, 8, 9, 10])
                .shard("w", 0..2);
        wrong_ids.fingerprint = "k".into();
        assert!(cp.merge_shard(&wrong_ids).is_err(), "point-id mismatch");

        let mut short = progressed(&cp, 1, 128).shard("w", 0..2);
        short.points[1].counts.truncate(2);
        assert!(cp.merge_shard(&short).is_err(), "short tallies");
    }

    #[test]
    fn resumed_checkpoint_must_fit_the_fresh_one() {
        let fresh = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), [1u32, 4, 5]);
        assert!(progressed(&fresh, 1, 64).check_resumes(&fresh).is_ok());

        let other_ids = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), [1u32, 3, 5]);
        assert!(other_ids.check_resumes(&fresh).is_err(), "point ids");
        let mut other_params = fresh.clone();
        other_params.params.seed += 1;
        assert!(other_params.check_resumes(&fresh).is_err(), "params");
    }

    #[test]
    fn shard_save_load_round_trip_and_version_guard() {
        let dir = std::env::temp_dir().join(format!("ffr_shard_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.json");
        let cp = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Seu), 0..5);
        let shard = progressed(&cp, 3, 128).shard("w9", 2..5);
        shard.save(&path).unwrap();
        assert_eq!(ShardCheckpoint::load(&path).unwrap(), shard);

        std::fs::write(&path, r#"{"version":99,"fingerprint":"k"}"#).unwrap();
        let err = ShardCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("version 99 unsupported"), "{err}");
    }

    #[test]
    #[should_panic(expected = "SEU campaigns")]
    fn fdr_table_from_set_campaign_panics() {
        let mut cp = CampaignCheckpoint::fresh("k".into(), params(FaultKind::Set), [0u32]);
        cp.points[0].complete = true;
        let _ = cp.to_fdr_table_for(1);
    }
}
