//! Work distribution: who computes which injection points, and where
//! their progress is persisted.
//!
//! The runner ([`crate::runner`]) is generic over a [`WorkSource`] — the
//! policy that hands out chunks of injection-point indices to worker
//! threads and persists each retired chunk. Three implementations cover
//! the deployment shapes:
//!
//! * [`CursorSource`] — the in-memory work-stealing cursor behind
//!   [`run_resumable`](crate::run_resumable): threads of one process claim
//!   small chunks off a shared atomic counter. No I/O.
//! * [`LocalSource`] — `ffr run` / `ffr resume`: the same cursor, each
//!   [`RANGE_POINTS`]-point range persisted as its [`ShardCheckpoint`]
//!   through [`Shards`] once its last point retires — the ranges and
//!   files a default `ffr worker` fleet uses, without lease files.
//! * [`LeaseQueue`] — a store-backed queue for **distributed draining**:
//!   several `ffr worker` processes (on one machine or many, over a
//!   shared filesystem) lease fixed point-index ranges of one campaign by
//!   creating lease files next to the campaign checkpoint, persist their
//!   progress through the same [`Shards`], heartbeat their leases, and
//!   reclaim leases whose holders died.
//!
//! # Why duplicated work is harmless
//!
//! A lease whose holder crashes is reclaimed after its TTL; in rare
//! interleavings (a stalled worker outliving its own lease, two workers
//! racing an expired-lease reclaim) two workers can briefly compute the
//! same range. This is *benign by construction*: a point's injection plan
//! and stopping decisions are pure functions of `(seed, point, window,
//! policy)`, so both workers produce identical records and the
//! point-indexed shard merge ([`CampaignCheckpoint::merge_shard`]) is
//! oblivious to who won. Distribution changes who computes a point, never
//! what it computes — which is exactly why a multi-worker campaign's
//! final table is byte-identical to a single-process run.
//!
//! # Lease lifecycle
//!
//! ```text
//! unclaimed ──create_exclusive──▶ held(worker, expires)
//!     ▲                              │ heartbeat: atomic rewrite, new expiry
//!     │                              │ chunk done: shard flushed, lease removed
//!     └──────── TTL elapses ◀────────┘ (crash: no heartbeat, lease expires)
//! ```
//!
//! Lease claims go through [`create_exclusive`] (staged contents + hard
//! link) so a claim is atomic and never observable half-written; releases
//! and reclaims delete the file; heartbeats atomically replace it. Lease
//! files are never mutated in place.

use crate::checkpoint::{CampaignCheckpoint, ShardCheckpoint};
use crate::runner::CancelToken;
use crate::store::{atomic_write, create_exclusive};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Lease record file format version.
pub(crate) const LEASE_VERSION: u32 = 1;

/// How the runner obtains work: chunks of indices into the campaign
/// checkpoint's point list.
///
/// Implementations must be safe to call from several runner threads at
/// once; a chunk is handed to exactly one thread of this process.
pub(crate) trait WorkSource: Sync {
    /// Claim the next chunk of point indices. An empty chunk means the
    /// source is drained for this invocation (all work complete, or
    /// cancellation observed). A source may block/poll while work is
    /// held elsewhere (the lease queue waits for other workers' leases
    /// to complete or expire).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of store-backed sources.
    fn claim(&self) -> io::Result<Vec<usize>>;

    /// Overlay externally persisted progress for a freshly claimed chunk
    /// onto the in-memory checkpoint (called under the progress lock,
    /// before any point of the chunk is processed). The default does
    /// nothing; the lease queue merges a previous holder's shard here so
    /// a reclaimed lease *continues* instead of recomputing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn hydrate(&self, chunk: &[usize], checkpoint: &mut CampaignCheckpoint) -> io::Result<()> {
        let _ = (chunk, checkpoint);
        Ok(())
    }

    /// Notification that every point of a previously claimed chunk is
    /// retired (called under the progress lock): persist it. The default
    /// does nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn chunk_done(&self, chunk: &[usize], checkpoint: &CampaignCheckpoint) -> io::Result<()> {
        let _ = (chunk, checkpoint);
        Ok(())
    }

    /// Persist every chunk this source handed out that is not retired —
    /// called once, after the runner's threads stopped (cancel, error or
    /// drain), so partial plans survive — and let go of it: the lease
    /// queue releases its leases here. The default does nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn flush_held(&self, checkpoint: &CampaignCheckpoint) -> io::Result<()> {
        let _ = checkpoint;
        Ok(())
    }

    /// Upper bound on usefully concurrent claims (the runner clamps its
    /// thread count to this).
    fn parallelism_hint(&self) -> usize;
}

/// Injection points claimed per work-steal off the [`CursorSource`]
/// (small = better balance, large = less cursor contention).
const STEAL_CHUNK: usize = 4;

/// Injection points per range: the unit [`LocalSource`] persists as one
/// shard, and the default lease of `ffr worker`. One constant, so a
/// default fleet cuts a campaign exactly as `ffr run` does and can finish
/// an interrupted run shard for shard.
pub(crate) const RANGE_POINTS: usize = 16;

/// The in-process work source: pending point indices behind a shared
/// atomic cursor, claimed in small chunks (work stealing). Per-point cost
/// varies wildly under adaptive stopping, so small dynamic chunks beat a
/// static split.
#[derive(Debug)]
pub(crate) struct CursorSource {
    pending: Vec<usize>,
    cursor: AtomicUsize,
}

impl CursorSource {
    /// A source over every incomplete point of `checkpoint`.
    pub(crate) fn new(checkpoint: &CampaignCheckpoint) -> CursorSource {
        CursorSource {
            pending: checkpoint
                .points
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.complete)
                .map(|(i, _)| i)
                .collect(),
            cursor: AtomicUsize::new(0),
        }
    }
}

impl WorkSource for CursorSource {
    fn claim(&self) -> io::Result<Vec<usize>> {
        let start = self.cursor.fetch_add(STEAL_CHUNK, Ordering::Relaxed);
        if start >= self.pending.len() {
            return Ok(Vec::new());
        }
        Ok(self.pending[start..(start + STEAL_CHUNK).min(self.pending.len())].to_vec())
    }

    fn parallelism_hint(&self) -> usize {
        self.pending.len().max(1)
    }
}

/// The work source of `ffr run` / `ffr resume`: the [`CursorSource`]'s
/// work steals, persisted per [`RANGE_POINTS`]-point range — a range's
/// shard is written when its last pending point retires. This process
/// owns every range, so it holds no lease files.
pub(crate) struct LocalSource {
    cursor: CursorSource,
    ranges: Vec<Range<usize>>,
    /// Per range: its points not yet retired.
    unretired: Vec<AtomicUsize>,
    shards: Shards,
}

impl LocalSource {
    /// A source over the incomplete points of `checkpoint`, persisting
    /// their ranges through `shards`.
    pub(crate) fn new(shards: Shards, checkpoint: &CampaignCheckpoint) -> LocalSource {
        let cursor = CursorSource::new(checkpoint);
        let ranges = lease_ranges(checkpoint.points.len(), RANGE_POINTS);
        let unretired = ranges
            .iter()
            .map(|range| {
                let points = &checkpoint.points[range.clone()];
                AtomicUsize::new(points.iter().filter(|p| !p.complete).count())
            })
            .collect();
        LocalSource {
            cursor,
            ranges,
            unretired,
            shards,
        }
    }
}

impl WorkSource for LocalSource {
    fn claim(&self) -> io::Result<Vec<usize>> {
        self.cursor.claim()
    }

    fn chunk_done(&self, chunk: &[usize], checkpoint: &CampaignCheckpoint) -> io::Result<()> {
        for &point in chunk {
            let range = point / RANGE_POINTS;
            if self.unretired[range].fetch_sub(1, Ordering::Relaxed) == 1 {
                self.shards.save(checkpoint, self.ranges[range].clone())?;
            }
        }
        Ok(())
    }

    /// Saves every range holding a claimed point that has not retired
    /// with its chunk.
    fn flush_held(&self, checkpoint: &CampaignCheckpoint) -> io::Result<()> {
        let CursorSource { pending, cursor } = &self.cursor;
        let claimed = &pending[..cursor.load(Ordering::Relaxed).min(pending.len())];
        let mut held: Vec<usize> = claimed.iter().map(|point| point / RANGE_POINTS).collect();
        held.dedup();
        held.into_iter()
            .filter(|&range| self.unretired[range].load(Ordering::Relaxed) > 0)
            .try_for_each(|range| self.shards.save(checkpoint, self.ranges[range].clone()))
    }

    fn parallelism_hint(&self) -> usize {
        self.cursor.parallelism_hint()
    }
}

/// One runner's shards in a session's `shards/` directory: where each
/// range's shard lives, and the one writer through which every session
/// source persists progress.
pub(crate) struct Shards {
    dir: PathBuf,
    worker: String,
    recorder: ffr_obs::Recorder,
}

impl Shards {
    /// Worker `worker`'s shards in `dir` (created if needed), flushes
    /// timed into `recorder`.
    pub(crate) fn open(
        dir: PathBuf,
        worker: &str,
        recorder: ffr_obs::Recorder,
    ) -> io::Result<Shards> {
        std::fs::create_dir_all(&dir)?;
        let worker = worker.to_string();
        Ok(Shards {
            dir,
            worker,
            recorder,
        })
    }

    fn path(&self, range: &Range<usize>) -> PathBuf {
        self.dir.join(shard_file_name(range))
    }

    /// Persist point indices `range` of `checkpoint` as this worker's
    /// shard (atomic rename), timed into `shard.flush_us`.
    fn save(&self, checkpoint: &CampaignCheckpoint, range: Range<usize>) -> io::Result<()> {
        let t0 = std::time::Instant::now();
        let path = self.path(&range);
        checkpoint.shard(&self.worker, range).save(&path)?;
        let elapsed_us = t0.elapsed().as_micros() as u64;
        self.recorder.observe_us("shard.flush_us", elapsed_us);
        self.recorder.count("shard.flushes", 1);
        Ok(())
    }
}

/// One worker's claim on a contiguous range of injection points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LeaseRecord {
    /// Format version ([`LEASE_VERSION`]).
    pub version: u32,
    /// Campaign fingerprint the lease belongs to.
    pub fingerprint: String,
    /// Id of the holding worker.
    pub worker: String,
    /// First leased point index.
    pub range_start: usize,
    /// One past the last leased point index.
    pub range_end: usize,
    /// Unix time the lease was (re)acquired.
    pub acquired_unix: u64,
    /// Unix time the lease expires unless heartbeaten.
    pub expires_unix: u64,
}

impl LeaseRecord {
    /// The TTL the lease was written with, recovered from its stamps.
    ///
    /// Both stamps come from the *holder's* clock, so their difference is
    /// meaningful even when that clock disagrees with ours — unlike
    /// either stamp on its own.
    pub(crate) fn ttl(&self) -> Duration {
        Duration::from_secs(self.expires_unix.saturating_sub(self.acquired_unix).max(1))
    }

    /// `true` once the lease file has gone longer than its TTL without a
    /// rewrite, judged by `modified` (the file's mtime on the shared
    /// filesystem) against the local clock.
    ///
    /// A live holder heartbeats — atomically rewrites — its lease every
    /// ttl/3, refreshing the mtime; a file whose observed age exceeds the
    /// TTL therefore has no live writer, regardless of what either host's
    /// wall clock says. An un-computable age (mtime in the future after a
    /// clock step) counts as *not* expired: waiting out a dead lease is
    /// cheap, stealing a live one costs duplicated work.
    pub(crate) fn expired_by_age(&self, modified: SystemTime) -> bool {
        observed_age(modified).is_some_and(|age| age > self.ttl())
    }
}

/// Age of a file with mtime `modified` per the local clock, or `None`
/// when the mtime is in the future (a clock step backwards since the
/// write, or a skewed NFS server stamp) and no age can be computed.
pub(crate) fn observed_age(modified: SystemTime) -> Option<Duration> {
    SystemTime::now().duration_since(modified).ok()
}

/// Seconds since the Unix epoch.
pub(crate) fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// File name of the lease over point indices `range`.
pub(crate) fn lease_file_name(range: &Range<usize>) -> String {
    format!("lease-{:08}-{:08}.json", range.start, range.end)
}

/// File name of the shard over point indices `range`.
pub(crate) fn shard_file_name(range: &Range<usize>) -> String {
    format!("shard-{:08}-{:08}.json", range.start, range.end)
}

/// Split `num_points` point indices into lease ranges of `lease_points`.
///
/// Workers derive ranges independently from the same campaign, so the
/// split must be a pure function of its inputs. Workers launched with
/// *different* `lease_points` produce misaligned ranges — wasteful
/// (overlapping ranges get computed twice) but still correct, because
/// the shard merge is point-indexed and duplicates are identical.
pub(crate) fn lease_ranges(num_points: usize, lease_points: usize) -> Vec<Range<usize>> {
    let step = lease_points.max(1);
    (0..num_points.div_ceil(step))
        .map(|k| k * step..((k + 1) * step).min(num_points))
        .collect()
}

/// A stored lease file as found on disk (for `ffr status` / `ffr gc`).
#[derive(Debug, Clone)]
pub(crate) struct LeaseInfo {
    /// Full path of the lease file.
    pub path: PathBuf,
    /// The decoded record, or `None` for an unreadable file.
    pub record: Option<LeaseRecord>,
    /// Last modification time of the file.
    pub modified: SystemTime,
}

/// Enumerate lease files in a session's lease directory (sorted by file
/// name, i.e. by range).
///
/// # Errors
///
/// Propagates directory-read failures (a missing directory is an empty
/// list).
pub(crate) fn list_leases(leases_dir: &Path) -> io::Result<Vec<LeaseInfo>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(leases_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("lease-") || !name.ends_with(".json") {
            continue;
        }
        let path = entry.path();
        let record = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok());
        // A worker may release the lease between readdir and stat; a
        // vanished file is a completed range, not an error.
        let Ok(metadata) = entry.metadata() else {
            continue;
        };
        let modified = metadata.modified().unwrap_or(SystemTime::UNIX_EPOCH);
        out.push(LeaseInfo {
            path,
            record,
            modified,
        });
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Enumerate shard checkpoints in a session's shard directory (sorted by
/// range).
///
/// # Errors
///
/// Propagates directory-read failures (a missing directory is an empty
/// list) and load failures: atomic renames make a torn shard impossible,
/// so a file that does not load is damage, not progress to recompute.
pub(crate) fn list_shards(shards_dir: &Path) -> io::Result<Vec<ShardCheckpoint>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(shards_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("shard-") || !name.ends_with(".json") {
            continue;
        }
        match ShardCheckpoint::load(&entry.path()) {
            Ok(shard) => out.push(shard),
            // Swept (`ffr gc`) between the scan and the read.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    out.sort_by_key(|s| (s.range_start, s.range_end));
    Ok(out)
}

/// Delete expired lease files (and unreadable ones older than an hour,
/// which no live writer can still be producing); returns
/// `(removed, kept)`. Used by `ffr gc --campaign`.
///
/// Expiry is judged by **observed file age** (mtime vs. the local
/// clock), not by the unix stamps inside the record: the stamps were
/// written by the holder's clock, which may be skewed arbitrarily
/// against ours. An un-computable age — a future mtime after a clock
/// step backwards — keeps the file; a kept dead lease costs one more
/// sweep, a deleted live one costs duplicated work.
///
/// # Errors
///
/// Propagates I/O failures.
pub(crate) fn sweep_expired_leases(leases_dir: &Path) -> io::Result<(usize, usize)> {
    let mut removed = 0;
    let mut kept = 0;
    for info in list_leases(leases_dir)? {
        let expired = match &info.record {
            Some(record) => record.expired_by_age(info.modified),
            None => observed_age(info.modified).is_some_and(|age| age > Duration::from_secs(3600)),
        };
        if expired {
            match std::fs::remove_file(&info.path) {
                Ok(()) => removed += 1,
                // Another sweeper (or the lease's worker) got there first.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        } else {
            kept += 1;
        }
    }
    Ok((removed, kept))
}

/// Delete every shard checkpoint in a session's shard directory. Only
/// call once the campaign's merged checkpoint is durably complete (the
/// shards are then a redundant copy of its point records); used by
/// `ffr gc --campaign`. Returns how many shard files were removed.
///
/// # Errors
///
/// Propagates I/O failures.
pub(crate) fn sweep_shards(shards_dir: &Path) -> io::Result<usize> {
    let mut removed = 0;
    let entries = match std::fs::read_dir(shards_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("shard-") || !name.ends_with(".json") {
            continue;
        }
        match std::fs::remove_file(entry.path()) {
            Ok(()) => removed += 1,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(removed)
}

/// The store-backed distributed work source: lease files + shard
/// checkpoints in a campaign session directory shared by all workers.
///
/// See the [module docs](self) for the lease lifecycle and why races
/// degrade to harmless duplicated work rather than corruption.
pub(crate) struct LeaseQueue {
    leases_dir: PathBuf,
    shards: Shards,
    fingerprint: String,
    ranges: Vec<Range<usize>>,
    ttl: Duration,
    poll: Duration,
    cancel: CancelToken,
    state: Mutex<QueueState>,
    recorder: ffr_obs::Recorder,
}

#[derive(Default)]
struct QueueState {
    /// Range indices currently leased by this process.
    held: Vec<usize>,
    /// Held ranges whose on-disk shard has been folded into the
    /// in-memory checkpoint ([`WorkSource::hydrate`]). Until then the
    /// checkpoint knows less about the range than the shard file does,
    /// so flushes must not touch it.
    hydrated: HashSet<usize>,
    /// Range indices whose shard is known complete (scan cache).
    complete: HashSet<usize>,
}

impl LeaseQueue {
    /// Open the lease queue of a campaign session (leasing as the worker
    /// of `shards`, recording to its recorder), creating `leases/`.
    ///
    /// `lease_points` is the range granularity (points per lease): small
    /// ranges balance better across workers, large ranges amortize lease
    /// I/O. `ttl` must comfortably exceed the worst-case time between two
    /// heartbeats; `poll` is the rescan interval while waiting on other
    /// workers.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open(
        session_dir: &Path,
        fingerprint: String,
        shards: Shards,
        num_points: usize,
        lease_points: usize,
        ttl: Duration,
        poll: Duration,
        cancel: CancelToken,
    ) -> io::Result<LeaseQueue> {
        let leases_dir = session_dir.join("leases");
        std::fs::create_dir_all(&leases_dir)?;
        Ok(LeaseQueue {
            leases_dir,
            recorder: shards.recorder.clone(),
            shards,
            fingerprint,
            ranges: lease_ranges(num_points, lease_points),
            ttl,
            poll,
            cancel,
            state: Mutex::new(QueueState::default()),
        })
    }

    fn lease_path(&self, index: usize) -> PathBuf {
        self.leases_dir.join(lease_file_name(&self.ranges[index]))
    }

    fn fresh_record(&self, index: usize) -> LeaseRecord {
        let now = unix_now();
        LeaseRecord {
            version: LEASE_VERSION,
            fingerprint: self.fingerprint.clone(),
            worker: self.shards.worker.clone(),
            range_start: self.ranges[index].start,
            range_end: self.ranges[index].end,
            acquired_unix: now,
            expires_unix: now + self.ttl.as_secs().max(1),
        }
    }

    /// The order in which [`LeaseQueue::claim`] probes ranges: most
    /// expensive estimated remaining work first, ties broken by ascending
    /// index (which makes the no-information case identical to plain
    /// index order).
    ///
    /// Cost model: the campaign-wide mean injections per **completed**
    /// point — observed from the shards on disk, 1 until anything has
    /// completed — prices a point; a range's remaining cost sums that
    /// price over its incomplete points, discounted by injections already
    /// done. Adaptive (Wilson) stopping makes per-point cost vary by an
    /// order of magnitude, so leasing expensive ranges first shortens the
    /// tail of a heterogeneous fleet. The estimate only changes *who*
    /// computes a range, never what it computes, so final tables stay
    /// byte-identical.
    fn claim_order(&self) -> Vec<(usize, u64)> {
        let shards: Vec<ShardCheckpoint> = list_shards(&self.shards.dir)
            .unwrap_or_default()
            .into_iter()
            .filter(|s| s.fingerprint == self.fingerprint)
            .collect();
        let (mut done_injections, mut done_points) = (0u64, 0u64);
        for shard in &shards {
            for point in shard.points.iter().filter(|p| p.complete) {
                done_injections += point.injections_done as u64;
                done_points += 1;
            }
        }
        let avg = done_injections
            .checked_div(done_points)
            .map_or(1, |per_point| per_point.max(1));
        let mut order: Vec<(usize, u64)> = self
            .ranges
            .iter()
            .enumerate()
            .map(|(index, range)| {
                let shard = shards
                    .iter()
                    .find(|s| s.range_start == range.start && s.range_end == range.end);
                let cost = match shard {
                    Some(shard) => shard
                        .points
                        .iter()
                        .filter(|p| !p.complete)
                        .map(|p| avg.saturating_sub(p.injections_done as u64).max(1))
                        .sum(),
                    None => range.len() as u64 * avg,
                };
                (index, cost)
            })
            .collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        order
    }

    /// `true` if the range's shard on disk is complete. Pure file check;
    /// the caller (holding the state lock) caches positives.
    fn shard_complete_on_disk(&self, index: usize) -> bool {
        matches!(
            ShardCheckpoint::load(&self.shards.path(&self.ranges[index])),
            Ok(shard) if shard.fingerprint == self.fingerprint && shard.is_complete()
        )
    }

    /// How range `index`'s lease file looks on disk right now.
    ///
    /// All liveness decisions here are **observed-age** decisions: the
    /// file's mtime against the local clock. The unix stamps inside the
    /// record were written by the holder's clock and are diagnostics only
    /// — comparing them against our clock would let a skewed worker steal
    /// live leases (or never reclaim dead ones). Heartbeats atomically
    /// rewrite the lease every ttl/3, so a live holder's file is always
    /// younger than its TTL on every host that can see it.
    fn lease_on_disk(&self, index: usize) -> LeaseOnDisk {
        let path = self.lease_path(index);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return LeaseOnDisk::Absent;
        };
        // Metadata read after the content read: a concurrent heartbeat
        // can only make the file *younger*, which errs toward Live.
        let modified = std::fs::metadata(&path).and_then(|m| m.modified());
        match serde_json::from_str::<LeaseRecord>(&text) {
            Ok(record) if modified.as_ref().is_ok_and(|&m| record.expired_by_age(m)) => {
                LeaseOnDisk::Reclaimable
            }
            // Our own worker id without a held entry is either a stale
            // lease of a crashed previous incarnation (reclaim fast) or a
            // live process that was misconfigured to share our id (don't
            // perpetually steal). The two are distinguished by heartbeat
            // recency: a live holder rewrites its lease every ttl/3, so a
            // file that has gone more than ttl/2 without an mtime refresh
            // has no live holder. (claim() never reaches here for ranges
            // held by sibling threads of this process.)
            Ok(record) if record.worker == self.shards.worker => {
                let grace = Duration::from_secs((self.ttl.as_secs() / 2).max(1));
                let stale = modified
                    .ok()
                    .and_then(observed_age)
                    .is_some_and(|age| age > grace);
                if stale {
                    LeaseOnDisk::Reclaimable
                } else {
                    LeaseOnDisk::Live
                }
            }
            Ok(_) => LeaseOnDisk::Live,
            // Unreadable: reclaim only once it is old enough that no live
            // writer can still be producing it; until then (including an
            // un-computable age from a future mtime) wait it out.
            Err(_) => {
                let old = modified
                    .ok()
                    .and_then(observed_age)
                    .is_some_and(|age| age > self.ttl);
                if old {
                    LeaseOnDisk::Reclaimable
                } else {
                    LeaseOnDisk::Live
                }
            }
        }
    }

    /// Acquire the lease on range `index` (optionally removing an
    /// expired/stale predecessor first); `Ok(true)` on success. Must be
    /// called with the state lock held: that serializes the sibling
    /// threads of this process — the only other writers sharing our
    /// worker id — so a lease freshly won by one thread can never be
    /// mistaken for our own stale leftover and stolen by another.
    /// Cross-process races remain and are benign: losing `create_exclusive`
    /// is a clean miss, and the rare double-claim through a reclaim
    /// interleaving only duplicates deterministic work.
    fn acquire(
        &self,
        index: usize,
        state: &mut QueueState,
        reclaim: bool,
        est_cost: u64,
    ) -> io::Result<bool> {
        let path = self.lease_path(index);
        if reclaim {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let json =
            serde_json::to_string_pretty(&self.fresh_record(index)).map_err(io::Error::other)?;
        if create_exclusive(&path, &json)? {
            state.held.push(index);
            self.recorder.event(
                ffr_obs::Level::Debug,
                if reclaim {
                    "lease.reclaim"
                } else {
                    "lease.claim"
                },
                &[
                    ("range_start", self.ranges[index].start.into()),
                    ("range_end", self.ranges[index].end.into()),
                    ("est_cost", est_cost.into()),
                    (
                        "queue_depth",
                        (self.ranges.len() - state.complete.len()).into(),
                    ),
                ],
            );
            self.recorder.count(
                if reclaim {
                    "lease.reclaims"
                } else {
                    "lease.claims"
                },
                1,
            );
            return Ok(true);
        }
        Ok(false)
    }

    /// Extend the expiry of every lease this process holds (called from
    /// the worker's heartbeat thread). Runs under the state lock so a
    /// concurrent `chunk_done`/`flush_held` cannot have its lease
    /// removal undone by a heartbeat rewrite. Failures are returned so
    /// the caller can log them, but a missed heartbeat is not fatal — the
    /// lease expires and the range is recomputed elsewhere, identically.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O failure.
    pub(crate) fn refresh_held(&self) -> io::Result<()> {
        let state = self.state.lock().expect("queue lock");
        for &index in &state.held {
            let record = self.fresh_record(index);
            let json = serde_json::to_string_pretty(&record).map_err(io::Error::other)?;
            atomic_write(&self.lease_path(index), &json)?;
        }
        if !state.held.is_empty() {
            self.recorder.event(
                ffr_obs::Level::Debug,
                "lease.heartbeat",
                &[("leases", state.held.len().into())],
            );
            self.recorder
                .count("lease.heartbeats", state.held.len() as u64);
        }
        Ok(())
    }

    /// Heartbeat the held leases every `ttl / 3` for as long as `running`
    /// is set (the body of a worker's heartbeat thread). A missed
    /// heartbeat is survivable: the lease expires and the range is
    /// recomputed identically elsewhere.
    pub(crate) fn heartbeat_while(&self, running: &AtomicBool) {
        let interval = (self.ttl / 3).max(Duration::from_millis(50));
        let mut last = std::time::Instant::now();
        while running.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(25));
            if last.elapsed() >= interval {
                let _ = self.refresh_held();
                last = std::time::Instant::now();
            }
        }
    }
}

/// Result of probing a lease file (see [`LeaseQueue::lease_on_disk`]).
enum LeaseOnDisk {
    /// No lease file: the range is unclaimed (complete, or claimable).
    Absent,
    /// A live lease held elsewhere: wait for completion or expiry.
    Live,
    /// Expired, our own crashed incarnation's, or unreadably old:
    /// claimable after removing the file.
    Reclaimable,
}

impl WorkSource for LeaseQueue {
    /// Claim the next available lease range, waiting (and polling) while
    /// every remaining range is held by a live other worker. Returns an
    /// empty chunk once all ranges are complete or cancellation is
    /// observed.
    ///
    /// The scan is cheap while blocked: ranges under a live lease are
    /// skipped on the lease probe alone (no shard parsing), and complete
    /// shards are parsed at most once (cached positives).
    ///
    /// Ranges are probed **most expensive first** (see
    /// `LeaseQueue::claim_order`): under adaptive stopping per-range
    /// cost varies wildly, and starting the big ranges early keeps a
    /// heterogeneous fleet from idling behind one straggler at the end.
    fn claim(&self) -> io::Result<Vec<usize>> {
        loop {
            if self.cancel.is_cancelled() {
                return Ok(Vec::new());
            }
            let mut outstanding = false;
            for &(index, est_cost) in &self.claim_order() {
                let mut state = self.state.lock().expect("queue lock");
                if state.complete.contains(&index) {
                    continue;
                }
                if state.held.contains(&index) {
                    // A sibling thread of this process is computing the
                    // range; its chunk_done will mark it complete.
                    outstanding = true;
                    continue;
                }
                match self.lease_on_disk(index) {
                    LeaseOnDisk::Live => {
                        outstanding = true;
                    }
                    LeaseOnDisk::Absent => {
                        // Unclaimed: either finished (complete shard, no
                        // lease) or claimable.
                        if self.shard_complete_on_disk(index) {
                            // A worker killed between its final shard
                            // flush and its lease removal — or a lease
                            // file whose read transiently failed and
                            // probed as absent — can leave a stale lease
                            // on a complete range. Sweep it here so a
                            // finished campaign holds no lease files;
                            // deleting a just-resurrected live lease is
                            // benign (the range's work is complete and
                            // deterministic either way).
                            let _ = std::fs::remove_file(self.lease_path(index));
                            state.complete.insert(index);
                            continue;
                        }
                        outstanding = true;
                        if self.acquire(index, &mut state, false, est_cost)? {
                            return Ok(self.ranges[index].clone().collect());
                        }
                    }
                    LeaseOnDisk::Reclaimable => {
                        outstanding = true;
                        if self.acquire(index, &mut state, true, est_cost)? {
                            return Ok(self.ranges[index].clone().collect());
                        }
                    }
                }
            }
            if !outstanding {
                return Ok(Vec::new());
            }
            std::thread::sleep(self.poll);
        }
    }

    /// Merge the range's on-disk shard (a previous holder's progress)
    /// into the checkpoint, so a reclaimed lease continues mid-plan.
    /// Marks the range hydrated, unlocking shard flushes for it.
    fn hydrate(&self, chunk: &[usize], checkpoint: &mut CampaignCheckpoint) -> io::Result<()> {
        let Some(&start) = chunk.first() else {
            return Ok(());
        };
        let index = self
            .ranges
            .iter()
            .position(|r| r.start == start)
            .expect("claimed chunk matches a lease range");
        // An unreadable or foreign-fingerprint shard in our session
        // directory is damage — surface it instead of recomputing.
        match ShardCheckpoint::load(&self.shards.path(&self.ranges[index])) {
            Ok(shard) => {
                checkpoint.merge_shard(&shard)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.state
            .lock()
            .expect("queue lock")
            .hydrated
            .insert(index);
        Ok(())
    }

    /// Persist the completed shard and release the lease. The shard write
    /// and lease removal happen under the state lock, so a concurrent
    /// heartbeat ([`LeaseQueue::refresh_held`]) cannot resurrect the
    /// lease file of a range that just completed.
    fn chunk_done(&self, chunk: &[usize], checkpoint: &CampaignCheckpoint) -> io::Result<()> {
        let Some(&start) = chunk.first() else {
            return Ok(());
        };
        let index = self
            .ranges
            .iter()
            .position(|r| r.start == start)
            .expect("completed chunk matches a lease range");
        let mut state = self.state.lock().expect("queue lock");
        self.shards.save(checkpoint, self.ranges[index].clone())?;
        let _ = std::fs::remove_file(self.lease_path(index));
        state.held.retain(|&i| i != index);
        state.hydrated.remove(&index);
        state.complete.insert(index);
        self.recorder.event(
            ffr_obs::Level::Debug,
            "lease.release",
            &[
                ("range_start", self.ranges[index].start.into()),
                ("range_end", self.ranges[index].end.into()),
                (
                    "queue_depth",
                    (self.ranges.len() - state.complete.len()).into(),
                ),
            ],
        );
        Ok(())
    }

    /// Flush a (possibly partial) shard for every held range and release
    /// its lease — after a cancel and after an error alike — so the next
    /// claimer resumes mid-plan at once instead of waiting out the TTL.
    ///
    /// Ranges claimed but not yet hydrated are not flushed: until
    /// [`WorkSource::hydrate`] folds the previous holder's shard into the
    /// in-memory checkpoint, a flush would overwrite that shard with an
    /// emptier view and lose the reclaimed progress.
    fn flush_held(&self, checkpoint: &CampaignCheckpoint) -> io::Result<()> {
        let mut state = self.state.lock().expect("queue lock");
        let mut flushed = Ok(());
        for index in std::mem::take(&mut state.held) {
            if state.hydrated.remove(&index) && flushed.is_ok() {
                flushed = self.shards.save(checkpoint, self.ranges[index].clone());
            }
            let _ = std::fs::remove_file(self.lease_path(index));
        }
        flushed
    }

    fn parallelism_hint(&self) -> usize {
        self.ranges.len().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptivePolicy;
    use crate::checkpoint::CheckpointParams;
    use ffr_fault::FaultKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffr_work_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn checkpoint(num: usize) -> CampaignCheckpoint {
        CampaignCheckpoint::fresh(
            "fp".into(),
            CheckpointParams {
                fault: FaultKind::Seu,
                seed: 1,
                window_start: 0,
                window_end: 10,
                policy: AdaptivePolicy::fixed(64),
            },
            0..num as u32,
        )
    }

    fn queue(dir: &Path, worker: &str, num: usize, per: usize, ttl: Duration) -> LeaseQueue {
        let recorder = ffr_obs::Recorder::disabled();
        LeaseQueue::open(
            dir,
            "fp".into(),
            Shards::open(dir.join("shards"), worker, recorder).unwrap(),
            num,
            per,
            ttl,
            Duration::from_millis(5),
            CancelToken::new(),
        )
        .unwrap()
    }

    #[test]
    fn lease_ranges_partition_the_point_list() {
        assert_eq!(lease_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(lease_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(lease_ranges(3, 8), vec![0..3]);
        assert_eq!(lease_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(lease_ranges(5, 0), vec![0..1, 1..2, 2..3, 3..4, 4..5]);
    }

    #[test]
    fn cursor_source_hands_out_disjoint_chunks() {
        let mut cp = checkpoint(10);
        cp.points[3].complete = true;
        let source = CursorSource::new(&cp);
        let mut seen = Vec::new();
        loop {
            let chunk = source.claim().unwrap();
            if chunk.is_empty() {
                break;
            }
            seen.extend(chunk);
        }
        assert_eq!(seen, vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn local_source_saves_each_range_once_its_last_point_retires() {
        // Resumed state: range 16..32 is complete, and the pending points
        // of the others no longer fall on steal boundaries.
        let dir = tmp_dir("local");
        let mut cp = checkpoint(40);
        for point in &mut cp.points[14..32] {
            point.complete = true;
        }
        let shards = Shards::open(dir.clone(), "local", ffr_obs::Recorder::disabled()).unwrap();
        let source = LocalSource::new(shards, &cp);
        let saved = || -> Vec<(usize, usize)> {
            let shards = list_shards(&dir).unwrap();
            shards
                .iter()
                .map(|s| (s.range_start, s.range_end))
                .collect()
        };

        for _ in 0..3 {
            source.chunk_done(&source.claim().unwrap(), &cp).unwrap();
        }
        assert!(saved().is_empty(), "0..16 still has points 12 and 13");
        let straddling = source.claim().unwrap();
        assert_eq!(straddling, vec![12, 13, 32, 33]);
        source.chunk_done(&straddling, &cp).unwrap();
        assert_eq!(saved(), vec![(0, 16)]);

        // The run stops with a claimed chunk unretired: only its range is
        // flushed, and no shard is written for 16..32.
        assert_eq!(source.claim().unwrap(), vec![34, 35, 36, 37]);
        source.flush_held(&cp).unwrap();
        assert_eq!(saved(), vec![(0, 16), (32, 40)]);
    }

    #[test]
    fn two_queues_never_hold_the_same_range() {
        let dir = tmp_dir("disjoint");
        let a = queue(&dir, "a", 8, 4, Duration::from_secs(60));
        let b = queue(&dir, "b", 8, 4, Duration::from_secs(60));
        let chunk_a = a.claim().unwrap();
        let chunk_b = b.claim().unwrap();
        assert_eq!(chunk_a.len(), 4);
        assert_eq!(chunk_b.len(), 4);
        assert_ne!(chunk_a[0], chunk_b[0], "ranges must be disjoint");
        let leases = list_leases(&dir.join("leases")).unwrap();
        assert_eq!(leases.len(), 2);
        let workers: Vec<_> = leases
            .iter()
            .map(|l| l.record.as_ref().unwrap().worker.clone())
            .collect();
        assert!(workers.contains(&"a".to_string()));
        assert!(workers.contains(&"b".to_string()));
    }

    #[test]
    fn chunk_done_flushes_shard_and_releases_lease() {
        let dir = tmp_dir("done");
        let q = queue(&dir, "w", 4, 4, Duration::from_secs(60));
        let mut cp = checkpoint(4);
        let chunk = q.claim().unwrap();
        assert_eq!(chunk, vec![0, 1, 2, 3]);
        for p in &mut cp.points {
            p.complete = true;
            p.injections_done = 64;
        }
        q.chunk_done(&chunk, &cp).unwrap();
        assert!(list_leases(&dir.join("leases")).unwrap().is_empty());
        let shards = list_shards(&dir.join("shards")).unwrap();
        assert_eq!(shards.len(), 1);
        assert!(shards[0].is_complete());
        assert_eq!(shards[0].worker, "w");
        // Drained: nothing left to claim.
        assert!(q.claim().unwrap().is_empty());
    }

    #[test]
    fn expired_lease_is_reclaimed_and_hydrates_partial_shard() {
        let dir = tmp_dir("reclaim");
        // Worker "dead" claims with a zero-ish TTL and flushes partial
        // progress, then vanishes without releasing.
        let dead = queue(&dir, "dead", 4, 4, Duration::from_secs(1));
        let chunk = dead.claim().unwrap();
        let mut cp = checkpoint(4);
        dead.hydrate(&chunk, &mut cp).unwrap();
        cp.points[0].injections_done = 64;
        cp.points[0].counts[0] = 64;
        dead.shards.save(&cp, 0..4).unwrap();
        drop(dead);
        std::thread::sleep(Duration::from_millis(2100));

        // A live worker reclaims the expired lease…
        let live = queue(&dir, "live", 4, 4, Duration::from_secs(60));
        let chunk2 = live.claim().unwrap();
        assert_eq!(chunk2, chunk, "expired range is claimable again");
        let leases = list_leases(&dir.join("leases")).unwrap();
        assert_eq!(leases[0].record.as_ref().unwrap().worker, "live");

        // …and hydration resumes from the dead worker's partial shard.
        let mut fresh = checkpoint(4);
        live.hydrate(&chunk2, &mut fresh).unwrap();
        assert_eq!(fresh.points[0].injections_done, 64);
    }

    #[test]
    fn live_lease_is_not_stealable_and_refresh_extends_it() {
        let dir = tmp_dir("live");
        let holder = queue(&dir, "holder", 4, 4, Duration::from_secs(60));
        let _chunk = holder.claim().unwrap();
        let before = list_leases(&dir.join("leases")).unwrap()[0]
            .record
            .clone()
            .unwrap();

        // A rival sees the live lease and cannot acquire the range.
        let rival = queue(&dir, "rival", 4, 4, Duration::from_secs(60));
        assert!(matches!(rival.lease_on_disk(0), LeaseOnDisk::Live));
        {
            let mut state = rival.state.lock().unwrap();
            assert!(
                !rival.acquire(0, &mut state, false, 0).unwrap(),
                "live lease must hold"
            );
        }

        std::thread::sleep(Duration::from_millis(1100));
        holder.refresh_held().unwrap();
        let after = list_leases(&dir.join("leases")).unwrap()[0]
            .record
            .clone()
            .unwrap();
        assert_eq!(after.worker, "holder");
        assert!(after.expires_unix > before.expires_unix);

        // The end-of-run flush releases the range for the rival at once.
        holder.flush_held(&checkpoint(4)).unwrap();
        assert!(matches!(rival.lease_on_disk(0), LeaseOnDisk::Absent));
        let mut state = rival.state.lock().unwrap();
        assert!(rival.acquire(0, &mut state, false, 0).unwrap());
    }

    /// Rewrite a file's mtime (the observed-age clock leases live by).
    fn set_mtime(path: &Path, to: SystemTime) {
        let file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        file.set_times(std::fs::FileTimes::new().set_modified(to))
            .unwrap();
    }

    fn raw_lease(worker: &str, acquired_unix: u64, expires_unix: u64) -> String {
        serde_json::to_string_pretty(&LeaseRecord {
            version: LEASE_VERSION,
            fingerprint: "fp".into(),
            worker: worker.into(),
            range_start: 0,
            range_end: 4,
            acquired_unix,
            expires_unix,
        })
        .unwrap()
    }

    #[test]
    fn skewed_clock_stamps_never_steal_a_live_lease() {
        // The holder's clock is hours *behind* ours: its stamps look
        // long-expired, but the file itself is fresh (it is being
        // heartbeaten right now). Stamp comparison would steal the live
        // lease; observed age must not.
        let dir = tmp_dir("skew_live");
        let q = queue(&dir, "local", 4, 4, Duration::from_secs(60));
        let now = unix_now();
        let path = dir.join("leases").join(lease_file_name(&(0..4)));
        std::fs::write(&path, raw_lease("remote", now - 9_000, now - 8_940)).unwrap();
        assert!(
            matches!(q.lease_on_disk(0), LeaseOnDisk::Live),
            "fresh file with stamp-expired record must stay live"
        );
        assert_eq!(
            sweep_expired_leases(&dir.join("leases")).unwrap(),
            (0, 1),
            "gc must keep it too"
        );
    }

    #[test]
    fn dead_lease_with_future_stamps_is_reclaimed_by_age() {
        // The dead holder's clock was hours *ahead* of ours: its expiry
        // stamp never passes our clock, so stamp comparison would wait
        // forever. The file has gone far longer than its TTL (60s,
        // recovered from the stamps themselves) without a heartbeat —
        // observed age reclaims it.
        let dir = tmp_dir("skew_dead");
        let q = queue(&dir, "local", 4, 4, Duration::from_secs(60));
        let now = unix_now();
        let path = dir.join("leases").join(lease_file_name(&(0..4)));
        std::fs::write(&path, raw_lease("remote", now + 50_000, now + 50_060)).unwrap();
        set_mtime(&path, SystemTime::now() - Duration::from_secs(600));
        assert!(
            matches!(q.lease_on_disk(0), LeaseOnDisk::Reclaimable),
            "stale file must be reclaimable despite future stamps"
        );
        assert_eq!(sweep_expired_leases(&dir.join("leases")).unwrap(), (1, 0));
    }

    #[test]
    fn future_mtime_is_an_uncomputable_age_and_never_expires() {
        // A clock step backwards leaves files with mtimes in our future;
        // `duration_since` fails and no age can be computed. Both the
        // claim path and the gc sweep must treat that as not-expired —
        // for unreadable garbage and for readable records alike.
        let dir = tmp_dir("future_mtime");
        let q = queue(&dir, "local", 8, 4, Duration::from_secs(1));
        let future = SystemTime::now() + Duration::from_secs(7_200);
        let garbage = dir.join("leases").join(lease_file_name(&(0..4)));
        std::fs::write(&garbage, "not json").unwrap();
        set_mtime(&garbage, future);
        let readable = dir.join("leases").join(lease_file_name(&(4..8)));
        std::fs::write(&readable, raw_lease("remote", 1, 2)).unwrap();
        set_mtime(&readable, future);
        assert!(matches!(q.lease_on_disk(0), LeaseOnDisk::Live));
        assert!(matches!(q.lease_on_disk(1), LeaseOnDisk::Live));
        assert_eq!(
            sweep_expired_leases(&dir.join("leases")).unwrap(),
            (0, 2),
            "un-computable ages must be kept"
        );
    }

    #[test]
    fn claim_prefers_the_most_expensive_remaining_range() {
        // Shards on disk: range 0..4 complete at 64 injections/point
        // (setting the observed price), 4..8 nearly done (cheap), 8..12
        // unstarted (4 points × 64 = the expensive one). The next claim
        // must take 8..12 first.
        let dir = tmp_dir("cost");
        let q = queue(&dir, "w", 12, 4, Duration::from_secs(60));
        let mut cp = checkpoint(12);
        for i in 0..4 {
            cp.points[i].complete = true;
            cp.points[i].injections_done = 64;
        }
        for i in 4..8 {
            cp.points[i].injections_done = 60;
        }
        let shards = dir.join("shards");
        cp.shard("w", 0..4)
            .save(&shards.join(shard_file_name(&(0..4))))
            .unwrap();
        cp.shard("w", 4..8)
            .save(&shards.join(shard_file_name(&(4..8))))
            .unwrap();
        let order = q.claim_order();
        assert_eq!(
            order,
            vec![(2, 256), (1, 16), (0, 0)],
            "descending estimated remaining cost"
        );
        assert_eq!(
            q.claim().unwrap(),
            vec![8, 9, 10, 11],
            "the expensive unstarted range is leased first"
        );
    }

    #[test]
    fn flush_held_never_clobbers_an_unhydrated_shard() {
        // A run can stop (error, cancel) between claim() and hydrate();
        // the previous holder's shard must survive its end-of-run flush.
        let dir = tmp_dir("clobber");
        let mut with_progress = checkpoint(4);
        with_progress.points[0].injections_done = 64;
        with_progress.points[0].counts[0] = 64;
        let dead = queue(&dir, "dead", 4, 4, Duration::from_secs(1));
        let chunk = dead.claim().unwrap();
        let mut cp0 = checkpoint(4);
        dead.hydrate(&chunk, &mut cp0).unwrap();
        dead.flush_held(&with_progress).unwrap();
        assert!(
            list_leases(&dir.join("leases")).unwrap().is_empty(),
            "released"
        );

        let live = queue(&dir, "live", 4, 4, Duration::from_secs(60));
        let chunk = live.claim().unwrap();
        // Flush before hydration: must NOT rewrite the shard from the
        // fresh (emptier) checkpoint.
        let mut fresh = checkpoint(4);
        live.flush_held(&fresh).unwrap();
        let shards = list_shards(&dir.join("shards")).unwrap();
        assert_eq!(shards[0].points[0].injections_done, 64, "shard clobbered");
        // After hydration the flush covers the range again — now with the
        // merged progress, so nothing is lost.
        assert_eq!(live.claim().unwrap(), chunk);
        live.hydrate(&chunk, &mut fresh).unwrap();
        assert_eq!(fresh.points[0].injections_done, 64);
        live.flush_held(&fresh).unwrap();
        let shards = list_shards(&dir.join("shards")).unwrap();
        assert_eq!(shards[0].points[0].injections_done, 64);
        assert_eq!(shards[0].worker, "live");
    }

    #[test]
    fn sibling_threads_never_claim_the_same_range() {
        // All runner threads of one process share a LeaseQueue (and thus
        // a worker id): concurrent claims must still hand out disjoint
        // ranges — a sibling's fresh lease is not a "stale own lease".
        let dir = tmp_dir("siblings");
        let q = queue(&dir, "w", 32, 4, Duration::from_secs(60));
        let chunks: Vec<Vec<usize>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| q.claim().unwrap()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut starts: Vec<usize> = chunks.iter().map(|c| c[0]).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), 8, "each thread must claim a distinct range");
        assert_eq!(q.state.lock().unwrap().held.len(), 8);
        assert_eq!(list_leases(&dir.join("leases")).unwrap().len(), 8);
    }

    #[test]
    fn claim_waits_out_other_workers_leases() {
        // One range, held by a short-TTL worker that dies: a second
        // worker's claim() must poll until the lease expires, then win.
        let dir = tmp_dir("wait");
        let dead = queue(&dir, "dead", 2, 2, Duration::from_secs(1));
        assert_eq!(dead.claim().unwrap(), vec![0, 1]);
        drop(dead);

        let live = queue(&dir, "live", 2, 2, Duration::from_secs(60));
        let start = std::time::Instant::now();
        let chunk = live.claim().unwrap();
        assert_eq!(chunk, vec![0, 1]);
        assert!(
            start.elapsed() >= Duration::from_millis(900),
            "claim must have waited for expiry, not stolen a live lease"
        );
    }
}
