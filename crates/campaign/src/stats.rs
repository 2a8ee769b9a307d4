//! Telemetry aggregation for `ffr stats`.
//!
//! Reads the per-worker JSONL event logs under a campaign session's
//! `telemetry/` directory (see [`ffr_obs::Recorder`]) and merges them into
//! a per-worker / per-phase throughput and latency report. Merging is
//! **order-independent**: workers are keyed and sorted by id, counters add,
//! and histograms merge bucket-wise, so the report does not depend on which
//! worker's log is read first.
//!
//! A SIGKILLed writer leaves at most one truncated final line in its log;
//! unparseable lines are counted in [`CampaignStats::skipped_lines`] and
//! otherwise ignored — they are never fatal.
//!
//! # Schema note: rates are nullable, never `NaN`/`inf`
//!
//! Derived rates ([`WorkerStats::injections_per_sec`],
//! [`CampaignStats::injections_per_sec`]) return `Option<f64>` and
//! serialize as a JSON number **or `null`** — never `NaN`/`inf`, which
//! are not JSON. A rate is null while it is unknowable: zero injections
//! or zero measured time so far (a worker SIGKILLed before its first
//! span flush, or a campaign served entirely from cache). The `ffr
//! status --json` telemetry block follows the same convention (see
//! [`crate::status`]).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use ffr_obs::Histogram;
use serde::{Serialize, Value};

/// Schema version of the `ffr stats --json` output (bumped on any
/// backwards-incompatible change to the report shape).
pub(crate) const STATS_SCHEMA_VERSION: u64 = 1;

/// Merged timing of all spans sharing one name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of span records.
    pub count: u64,
    /// Summed duration (µs).
    pub total_us: u64,
    /// Longest single span (µs).
    pub max_us: u64,
}

impl SpanStats {
    fn add(&mut self, dur_us: u64) {
        self.count += 1;
        self.total_us = self.total_us.saturating_add(dur_us);
        self.max_us = self.max_us.max(dur_us);
    }

    fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Aggregated telemetry of one worker's event log.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker id (the log file stem; also carried in every record).
    pub worker: String,
    /// Parsed records in this worker's log.
    pub records: u64,
    /// Per-name span timings.
    pub spans: BTreeMap<String, SpanStats>,
    /// Monotonic counters (`counter` records plus summed span fields for
    /// `injections`, which survive even a SIGKILLed worker's lost
    /// aggregates).
    pub counters: BTreeMap<String, u64>,
    /// Latency histograms.
    pub hists: BTreeMap<String, Histogram>,
    /// Injections attributed to this worker (counter if present, else the
    /// sum of `range.run` span `injections` fields).
    pub injections: u64,
    /// Time this worker spent measuring (µs): its `phase.measure` spans,
    /// falling back to the sum of its `range.run` spans.
    pub measure_us: u64,
}

impl WorkerStats {
    /// Injections per wall-clock second of measurement, when both are
    /// known.
    pub(crate) fn injections_per_sec(&self) -> Option<f64> {
        if self.injections == 0 || self.measure_us == 0 {
            return None;
        }
        Some(self.injections as f64 / (self.measure_us as f64 / 1e6))
    }
}

/// The merged telemetry view of a campaign session.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Per-worker aggregates, sorted by worker id.
    pub workers: Vec<WorkerStats>,
    /// Counters merged across workers.
    pub counters: BTreeMap<String, u64>,
    /// Span timings merged across workers.
    pub spans: BTreeMap<String, SpanStats>,
    /// Latency histograms merged across workers.
    pub hists: BTreeMap<String, Histogram>,
    /// Unparseable lines skipped across all logs (e.g. the truncated
    /// final line of a SIGKILLed worker).
    pub skipped_lines: u64,
}

/// A numeric JSON payload as u64 (telemetry records never need more).
fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        Value::F64(x) if *x >= 0.0 && x.is_finite() => Some(*x as u64),
        _ => None,
    }
}

impl CampaignStats {
    /// Read and merge every `*.jsonl` log under a session's `telemetry/`
    /// directory. A missing directory yields empty stats (telemetry may
    /// be disabled); unparseable lines are skipped and counted.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than a missing directory.
    pub fn from_session(session_dir: &Path) -> io::Result<CampaignStats> {
        Self::from_dir(&ffr_obs::telemetry_dir(session_dir))
    }

    /// Read and merge every `*.jsonl` log in `dir` (see
    /// [`CampaignStats::from_session`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than a missing directory.
    pub(crate) fn from_dir(dir: &Path) -> io::Result<CampaignStats> {
        let mut logs = Vec::new();
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                for entry in entries {
                    let path = entry?.path();
                    if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
                        logs.push(path);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        // Sort for a deterministic starting order; the merge itself is
        // order-independent regardless.
        logs.sort();

        let mut by_worker: BTreeMap<String, WorkerStats> = BTreeMap::new();
        let mut skipped = 0u64;
        for path in &logs {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("unknown")
                .to_string();
            let text = std::fs::read_to_string(path)?;
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                let Ok(value) = serde_json::parse_value_complete(line) else {
                    skipped += 1;
                    continue;
                };
                let worker = value
                    .get("worker")
                    .and_then(Value::as_str)
                    .unwrap_or(&stem)
                    .to_string();
                let stats = by_worker
                    .entry(worker.clone())
                    .or_insert_with(|| WorkerStats {
                        worker,
                        ..WorkerStats::default()
                    });
                if Self::absorb(stats, &value).is_none() {
                    skipped += 1;
                } else {
                    stats.records += 1;
                }
            }
        }

        let mut merged = CampaignStats {
            workers: Vec::with_capacity(by_worker.len()),
            skipped_lines: skipped,
            ..CampaignStats::default()
        };
        for (_, mut worker) in by_worker {
            // Derived per-worker rates: prefer explicit aggregates, fall
            // back to span fields (which survive a SIGKILL).
            worker.injections = worker
                .counters
                .get("injections")
                .copied()
                .unwrap_or_else(|| {
                    worker
                        .counters
                        .get("range.run.injections")
                        .copied()
                        .unwrap_or(0)
                });
            worker.measure_us = worker
                .spans
                .get("phase.measure")
                .filter(|s| s.total_us > 0)
                .map(|s| s.total_us)
                .or_else(|| worker.spans.get("range.run").map(|s| s.total_us))
                .unwrap_or(0);
            for (name, value) in &worker.counters {
                *merged.counters.entry(name.clone()).or_insert(0) += value;
            }
            for (name, stats) in &worker.spans {
                merged.spans.entry(name.clone()).or_default().merge(stats);
            }
            for (name, hist) in &worker.hists {
                merged.hists.entry(name.clone()).or_default().merge(hist);
            }
            merged.workers.push(worker);
        }
        Ok(merged)
    }

    /// Fold one parsed record into a worker's aggregates; `None` marks a
    /// record that is well-formed JSON but not a telemetry record.
    fn absorb(stats: &mut WorkerStats, value: &Value) -> Option<()> {
        let kind = value.get("kind")?.as_str()?;
        let name = value.get("name")?.as_str()?;
        match kind {
            "event" => {}
            "span" => {
                let dur_us = value.get("dur_us").and_then(as_u64)?;
                stats.spans.entry(name.to_string()).or_default().add(dur_us);
                // Numeric span fields accumulate as `<span>.<field>`
                // pseudo-counters so `ffr stats` can report injection
                // throughput even when a worker was SIGKILLed before its
                // `finish()` emitted the real counters.
                if let Some(Value::Object(entries)) = value.get("fields") {
                    for (key, v) in entries {
                        if let Some(n) = as_u64(v) {
                            *stats.counters.entry(format!("{name}.{key}")).or_insert(0) += n;
                        }
                    }
                }
            }
            "counter" => {
                let delta = value.get("value").and_then(as_u64)?;
                *stats.counters.entry(name.to_string()).or_insert(0) += delta;
            }
            "hist" => {
                let sum_us = value.get("sum_us").and_then(as_u64)?;
                let max_us = value.get("max_us").and_then(as_u64)?;
                let mut sparse = Vec::new();
                for pair in value.get("buckets")?.as_array()? {
                    let pair = pair.as_array()?;
                    if pair.len() != 2 {
                        return None;
                    }
                    sparse.push((as_u64(&pair[0])? as usize, as_u64(&pair[1])?));
                }
                let hist = Histogram::from_sparse(&sparse, sum_us, max_us);
                stats
                    .hists
                    .entry(name.to_string())
                    .or_default()
                    .merge(&hist);
            }
            _ => return None,
        }
        Some(())
    }

    /// `true` when no telemetry was found at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Total parsed records across all workers.
    pub fn total_records(&self) -> u64 {
        self.workers.iter().map(|w| w.records).sum()
    }

    /// Injections across all workers.
    pub(crate) fn total_injections(&self) -> u64 {
        self.workers.iter().map(|w| w.injections).sum()
    }

    /// Total measuring time across workers (µs; wall-clock per worker,
    /// so parallel workers contribute in parallel).
    pub(crate) fn total_measure_us(&self) -> u64 {
        self.workers.iter().map(|w| w.measure_us).sum()
    }

    /// Aggregate injection throughput (injections per worker-second of
    /// measurement), when known.
    pub(crate) fn injections_per_sec(&self) -> Option<f64> {
        let injections = self.total_injections();
        let us = self.total_measure_us();
        if injections == 0 || us == 0 {
            return None;
        }
        Some(injections as f64 / (us as f64 / 1e6))
    }

    /// The report as a JSON value tree (used by `ffr stats --json`).
    pub(crate) fn to_json_value(&self) -> Value {
        let span_obj = |s: &SpanStats| {
            Value::Object(vec![
                ("count".to_string(), Value::U64(s.count)),
                ("total_us".to_string(), Value::U64(s.total_us)),
                ("max_us".to_string(), Value::U64(s.max_us)),
            ])
        };
        let workers = self
            .workers
            .iter()
            .map(|w| {
                let mut fields = vec![
                    ("worker".to_string(), Value::Str(w.worker.clone())),
                    ("records".to_string(), Value::U64(w.records)),
                    ("injections".to_string(), Value::U64(w.injections)),
                    ("measure_us".to_string(), Value::U64(w.measure_us)),
                ];
                fields.push((
                    "injections_per_sec".to_string(),
                    match w.injections_per_sec() {
                        Some(rate) => Value::F64((rate * 10.0).round() / 10.0),
                        None => Value::Null,
                    },
                ));
                fields.push((
                    "spans".to_string(),
                    Value::Object(
                        w.spans
                            .iter()
                            .map(|(name, s)| (name.clone(), span_obj(s)))
                            .collect(),
                    ),
                ));
                fields.push((
                    "counters".to_string(),
                    Value::Object(
                        w.counters
                            .iter()
                            .map(|(name, &n)| (name.clone(), Value::U64(n)))
                            .collect(),
                    ),
                ));
                Value::Object(fields)
            })
            .collect();
        let hists: Vec<(String, Value)> = self
            .hists
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("count".to_string(), Value::U64(h.count())),
                        ("mean_us".to_string(), Value::U64(h.mean_us())),
                        ("p50_us".to_string(), Value::U64(h.quantile_us(0.5))),
                        ("p95_us".to_string(), Value::U64(h.quantile_us(0.95))),
                        ("max_us".to_string(), Value::U64(h.max_us())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::U64(STATS_SCHEMA_VERSION),
            ),
            ("workers".to_string(), Value::Array(workers)),
            (
                "spans".to_string(),
                Value::Object(
                    self.spans
                        .iter()
                        .map(|(name, s)| (name.clone(), span_obj(s)))
                        .collect(),
                ),
            ),
            (
                "counters".to_string(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(name, &n)| (name.clone(), Value::U64(n)))
                        .collect(),
                ),
            ),
            ("hists".to_string(), Value::Object(hists)),
            ("skipped_lines".to_string(), Value::U64(self.skipped_lines)),
        ])
    }

    /// The report as pretty-printed JSON.
    pub(crate) fn to_json(&self) -> String {
        struct Raw(Value);
        impl Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        serde_json::to_string_pretty(&Raw(self.to_json_value())).unwrap_or_default()
    }

    /// The human-facing text report.
    pub(crate) fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("no telemetry found (run a campaign first, or unset FFR_TELEMETRY=0)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "telemetry: {} worker log(s), {} record(s), {} skipped line(s)",
            self.workers.len(),
            self.total_records(),
            self.skipped_lines
        );
        let secs = |us: u64| us as f64 / 1e6;

        out.push_str("\nphases (merged):\n");
        let mut any_phase = false;
        for (name, s) in &self.spans {
            if let Some(phase) = name.strip_prefix("phase.") {
                any_phase = true;
                let _ = writeln!(
                    out,
                    "  {phase:<10} {:>4}x  {:>10.3} s total  {:>10.3} s max",
                    s.count,
                    secs(s.total_us),
                    secs(s.max_us)
                );
            }
        }
        if !any_phase {
            out.push_str("  (none recorded)\n");
        }

        out.push_str("\nworkers:\n");
        for w in &self.workers {
            let rate = match w.injections_per_sec() {
                Some(rate) => format!("{rate:.1} inj/s"),
                None => "n/a".to_string(),
            };
            let ranges = w.spans.get("range.run").map_or(0, |s| s.count);
            let _ = writeln!(
                out,
                "  {:<12} {:>8} injections in {:>8.3} s ({rate}), {ranges} range(s)",
                w.worker,
                w.injections,
                secs(w.measure_us)
            );
        }
        if let Some(rate) = self.injections_per_sec() {
            let _ = writeln!(out, "  overall: {rate:.1} injections/worker-second");
        }

        // Cone-restriction effectiveness, derived from the cone.* counters
        // the runner records once per compiled point.
        if let Some(&points) = self.counters.get("cone.points") {
            if points > 0 {
                let avg = |name: &str| {
                    self.counters.get(name).copied().unwrap_or(0) as f64 / points as f64
                };
                let _ = writeln!(
                    out,
                    "\ncone restriction ({points} point(s)):\n  avg cone: {:.1} ops, {:.1} ffs, {:.1} boundary nets; {} cycles skipped by early exit",
                    avg("cone.ops"),
                    avg("cone.ffs"),
                    avg("cone.boundary_nets"),
                    self.counters.get("cone.cycles_saved").copied().unwrap_or(0),
                );
            }
        }

        // Frontier-restriction effectiveness, derived from the frontier.*
        // counters the runner records once per retired point. Evaluated +
        // skipped together equal what the static cone path would have run.
        let evaluated = self
            .counters
            .get("frontier.ops_evaluated")
            .copied()
            .unwrap_or(0);
        let skipped = self
            .counters
            .get("frontier.ops_skipped")
            .copied()
            .unwrap_or(0);
        if evaluated + skipped > 0 {
            let points = self.counters.get("cone.points").copied().unwrap_or(0);
            let frac = evaluated as f64 / (evaluated + skipped) as f64;
            let mean_peak = if points > 0 {
                self.counters.get("frontier.peak").copied().unwrap_or(0) as f64 / points as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "\nfrontier restriction:\n  {evaluated} cone ops evaluated, {skipped} skipped ({:.1}% of static cone work); mean peak frontier {mean_peak:.1} ops/cycle",
                frac * 100.0,
            );
        }

        // Judging cost driver, derived from the judge.lanes_diverged counter:
        // only injections whose watched outputs left golden reach the judge.
        if let Some(&diverged) = self.counters.get("judge.lanes_diverged") {
            let injections = self.counters.get("injections").copied().unwrap_or(0);
            if injections > 0 {
                let _ = writeln!(
                    out,
                    "\njudging:\n  outputs diverged on {:.1}% of injections — judge called {diverged} times",
                    diverged as f64 / injections as f64 * 100.0,
                );
            }
        }

        out.push_str("\ncounters (merged):\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<28} {value:>12}");
        }

        if !self.hists.is_empty() {
            out.push_str("\nlatencies (merged, µs):\n");
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "name", "count", "mean", "p50", "p95", "max"
            );
            for (name, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    name,
                    h.count(),
                    h.mean_us(),
                    h.quantile_us(0.5),
                    h.quantile_us(0.95),
                    h.max_us()
                );
            }
        }
        out
    }
}

/// Remove every `*.jsonl` log in a telemetry directory, returning how
/// many were removed. `ffr gc --campaign` calls this only once the
/// campaign is durably complete — never while workers may still append.
///
/// # Errors
///
/// Propagates I/O errors other than a missing directory.
pub(crate) fn sweep_telemetry(dir: &Path) -> io::Result<usize> {
    let mut removed = 0;
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let path = entry?.path();
                if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
                    std::fs::remove_file(&path)?;
                    removed += 1;
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_obs::{Level, Recorder};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffr_stats_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_worker(dir: &Path, worker: &str, injections: u64) {
        let rec = Recorder::to_dir(dir, worker).unwrap();
        let mut span = rec.span("phase.measure");
        rec.count("injections", injections);
        rec.observe_us("checkpoint.flush_us", 100 + injections);
        rec.event(Level::Debug, "lease.claim", &[("range_start", 0u64.into())]);
        span.field("completed_points", 4u64);
        span.end();
        rec.finish();
    }

    #[test]
    fn merges_workers_order_independently() {
        let a = tmp_dir("order_a");
        let b = tmp_dir("order_b");
        write_worker(&a, "w1", 100);
        write_worker(&a, "w2", 50);
        write_worker(&a, "w3", 25);
        // The same logs under names that list in the reverse order must
        // merge to the same report: merge is keyed by the worker id
        // carried in each record, counters add, hists merge.
        std::fs::create_dir_all(&b).unwrap();
        for (from, to) in [("w1", "z1"), ("w2", "y2"), ("w3", "x3")] {
            std::fs::copy(
                a.join(format!("{from}.jsonl")),
                b.join(format!("{to}.jsonl")),
            )
            .unwrap();
        }
        let sa = CampaignStats::from_dir(&a).unwrap();
        let sb = CampaignStats::from_dir(&b).unwrap();
        assert_eq!(sa.workers.len(), 3);
        assert_eq!(sa.total_injections(), 175);
        assert_eq!(sa.counters, sb.counters);
        assert_eq!(sa.spans, sb.spans);
        assert_eq!(sa.hists, sb.hists);
        assert_eq!(
            sa.workers.iter().map(|w| &w.worker).collect::<Vec<_>>(),
            vec!["w1", "w2", "w3"]
        );
        assert_eq!(sa.to_json(), sb.to_json());
        let json = sa.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("phase.measure"));
    }

    #[test]
    fn truncated_final_line_is_skipped_not_fatal() {
        use std::io::Write as _;
        let dir = tmp_dir("truncated");
        write_worker(&dir, "w1", 60);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("w1.jsonl"))
            .unwrap();
        file.write_all(b"{\"ts_ms\":12,\"worker\":\"w1\",\"ki")
            .unwrap();
        drop(file);
        let stats = CampaignStats::from_dir(&dir).unwrap();
        assert_eq!(stats.skipped_lines, 1);
        assert_eq!(stats.total_injections(), 60);
        assert!(stats.workers[0].injections_per_sec().is_some());
        let text = stats.render_text();
        assert!(text.contains("1 skipped line(s)"), "{text}");
    }

    #[test]
    fn missing_directory_yields_empty_stats() {
        let stats = CampaignStats::from_dir(&tmp_dir("missing")).unwrap();
        assert!(stats.is_empty());
        assert!(stats.render_text().contains("no telemetry"));
    }

    #[test]
    fn zero_duration_rates_serialize_as_null_never_nan() {
        // Every degenerate (injections, measure_us) combination an
        // interrupted worker can leave behind: the rate must clamp to
        // None and the JSON document must stay parseable, with no
        // NaN/inf leaking through (satellite of the status schema v2
        // fix — see the module docs).
        for (injections, measure_us) in [(0, 0), (512, 0), (0, 2_000_000)] {
            let stats = CampaignStats {
                workers: vec![WorkerStats {
                    worker: "w1".to_string(),
                    injections,
                    measure_us,
                    ..WorkerStats::default()
                }],
                ..CampaignStats::default()
            };
            assert_eq!(
                stats.injections_per_sec(),
                None,
                "{injections}/{measure_us}"
            );
            assert_eq!(stats.workers[0].injections_per_sec(), None);
            let json = stats.to_json();
            assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
            assert!(json.contains("\"injections_per_sec\": null"), "{json}");
            serde_json::parse_value_complete(&json).expect("valid JSON");
        }
    }

    #[test]
    fn sigkilled_worker_rate_comes_from_span_fields() {
        let dir = tmp_dir("sigkill");
        // A worker that died before finish(): only spans on disk.
        let rec = Recorder::to_dir(&dir, "w1").unwrap();
        let mut span = rec.span("range.run");
        span.field("points", 8u64);
        span.field("injections", 96u64);
        span.end();
        drop(rec); // no finish() — counters lost
        let stats = CampaignStats::from_dir(&dir).unwrap();
        assert_eq!(stats.total_injections(), 96);
        assert!(stats.workers[0].measure_us > 0 || stats.workers[0].injections_per_sec().is_none());
    }
}
