//! Dependency-free structured telemetry for the campaign stack.
//!
//! Two independent facilities share this crate:
//!
//! * a **global leveled stderr logger** ([`log`], the [`error!`]/[`warn!`]/
//!   [`info!`]/[`debug!`] macros) controlled by the `FFR_LOG` environment
//!   variable and the CLI's `--quiet`/`-v` flags — human-facing progress
//!   chatter, never machine-parsed, never on stdout;
//! * a **per-process event [`Recorder`]** that appends structured JSONL
//!   records — leveled events, timed spans, monotonic counters and
//!   log-bucket latency histograms — to a per-worker file under
//!   `<campaign>/telemetry/`. The telemetry directory is *outside* the
//!   artifact store and the campaign fingerprint, so recording has no
//!   effect on byte-identical resume/merge invariants.
//!
//! A disabled [`Recorder`] is a `None` behind one pointer: every call is a
//! single branch, so hot loops can be instrumented unconditionally.
//!
//! # Event schema
//!
//! Every line is one self-contained JSON object (see
//! `docs/OBSERVABILITY.md` for the full reference):
//!
//! ```text
//! {"ts_ms":1754550000000,"worker":"w1","kind":"event","level":"debug",
//!  "name":"lease.claim","fields":{"range_start":0,"range_end":16}}
//! {"ts_ms":...,"worker":"w1","kind":"span","name":"phase.golden","dur_us":52311}
//! {"ts_ms":...,"worker":"w1","kind":"counter","name":"injections","value":4080}
//! {"ts_ms":...,"worker":"w1","kind":"hist","name":"checkpoint.flush_us",
//!  "count":12,"sum_us":8400,"buckets":[[9,3],[10,9]]}
//! ```
//!
//! Records are appended with a single `write` of the whole line, so a
//! SIGKILLed writer leaves at most one truncated final line — readers
//! skip unparseable lines instead of failing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

// ---------------------------------------------------------------------------
// Levels and the global stderr logger
// ---------------------------------------------------------------------------

/// Severity of a log line or telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or user-visible failures.
    Error = 0,
    /// Degraded-but-continuing conditions.
    Warn = 1,
    /// Progress milestones (the default).
    Info = 2,
    /// Per-lease / per-flush detail.
    Debug = 3,
}

impl Level {
    /// The level's lower-case name (as it appears in event records).
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a level name (`error|warn|info|debug`).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Global stderr log threshold (a [`Level`] discriminant).
static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Set the global stderr log threshold.
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global stderr log threshold.
pub(crate) fn log_level() -> Level {
    match LOG_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        3 => Level::Debug,
        _ => Level::Info,
    }
}

/// Initialise the global threshold from the `FFR_LOG` environment
/// variable (`error|warn|info|debug`); unset or unparseable values keep
/// the default (`info`).
pub fn init_log_from_env() {
    if let Some(level) = std::env::var("FFR_LOG").ok().and_then(|s| Level::parse(&s)) {
        set_log_level(level);
    }
}

/// `true` when `level` passes the global threshold.
pub fn log_enabled(level: Level) -> bool {
    level <= log_level()
}

/// Write one line to stderr if `level` passes the global threshold.
pub fn log(level: Level, message: &str) {
    if log_enabled(level) {
        eprintln!("{message}");
    }
}

/// Log at [`Level::Error`] (format-string arguments like `println!`).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log($crate::Level::Error, &format!($($arg)*)) };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log($crate::Level::Warn, &format!($($arg)*)) };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log($crate::Level::Info, &format!($($arg)*)) };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log($crate::Level::Debug, &format!($($arg)*)) };
}

// ---------------------------------------------------------------------------
// Field values and JSON encoding
// ---------------------------------------------------------------------------

/// A structured field value attached to an event or span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// Append a JSON string literal (with escaping) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_field_value(out: &mut String, v: &FieldValue) {
    use std::fmt::Write as _;
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::Str(s) => push_json_str(out, s),
    }
}

fn push_fields(out: &mut String, fields: &[(&str, FieldValue)]) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_field_value(out, v);
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// Log-bucket histogram
// ---------------------------------------------------------------------------

/// Bucket count of a log-bucket [`Histogram`] (exponent up to 2^63 µs).
const HIST_BUCKETS: usize = 64;

/// A fixed log-bucket latency histogram: bucket `i` counts observations
/// with `value_us` in `(2^(i-1), 2^i]` (bucket 0 counts zeros and ones).
/// Buckets make histograms from different workers **mergeable** by plain
/// addition, which is what `ffr stats` relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index of a microsecond observation.
pub(crate) fn bucket_of(value_us: u64) -> usize {
    (64 - value_us.leading_zeros() as usize).saturating_sub(1)
}

/// Upper bound (µs) of bucket `i` — the value reported for percentiles.
pub(crate) fn bucket_upper_us(i: usize) -> u64 {
    1u64 << i.min(63)
}

impl Histogram {
    /// Record one observation (µs).
    pub fn observe(&mut self, value_us: u64) {
        self.buckets[bucket_of(value_us)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value_us);
        self.max = self.max.max(value_us);
    }

    /// Merge another histogram into this one (plain bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (µs).
    pub fn sum_us(&self) -> u64 {
        self.sum
    }

    /// Largest observation (µs).
    pub fn max_us(&self) -> u64 {
        self.max
    }

    /// Mean observation (µs), or 0 when empty.
    pub fn mean_us(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket holding the `q`-quantile
    /// observation (`q` in `[0, 1]`), or 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_us(i);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs.
    pub(crate) fn sparse_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }

    /// Reconstruct a histogram from sparse `(bucket_index, count)` pairs
    /// plus the recorded sum/max (as read back from a `hist` record).
    pub fn from_sparse(buckets: &[(usize, u64)], sum_us: u64, max_us: u64) -> Histogram {
        let mut h = Histogram::default();
        for &(i, n) in buckets {
            if i < HIST_BUCKETS {
                h.buckets[i] += n;
                h.count += n;
            }
        }
        h.sum = sum_us;
        h.max = max_us;
        h
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

struct Inner {
    worker: String,
    sink: Mutex<File>,
    counters: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

/// A cheap, cloneable handle to a per-process telemetry sink.
///
/// A disabled recorder ([`Recorder::disabled`]) is `None` behind one
/// pointer: every method is a single branch and no clock is read, so hot
/// loops can call it unconditionally.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<Inner>>);

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(inner) => write!(f, "Recorder({})", inner.worker),
            None => f.write_str("Recorder(disabled)"),
        }
    }
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Recorder {
        Recorder(None)
    }

    /// `true` when events are actually written.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Open (creating the directory if needed) an append-mode JSONL sink
    /// at `<dir>/<worker>.jsonl`.
    ///
    /// If a previous process of the same worker died mid-line, a newline
    /// is appended first so the truncated line stays isolated.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation / open failures.
    pub fn to_dir(dir: &Path, worker: &str) -> io::Result<Recorder> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{worker}.jsonl"));
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        if file.metadata()?.len() > 0 {
            let mut last = [0u8; 1];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        Ok(Recorder(Some(Arc::new(Inner {
            worker: worker.to_string(),
            sink: Mutex::new(file),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
        }))))
    }

    /// Open a sink under `<session_dir>/telemetry/` for `worker`, unless
    /// telemetry is disabled via `FFR_TELEMETRY=0`. Failure to open is
    /// never fatal: it degrades to a disabled recorder with a warning.
    pub fn for_session(session_dir: &Path, worker: &str) -> Recorder {
        if std::env::var("FFR_TELEMETRY").as_deref() == Ok("0") {
            return Recorder::disabled();
        }
        let dir = telemetry_dir(session_dir);
        match Recorder::to_dir(&dir, worker) {
            Ok(rec) => rec,
            Err(e) => {
                crate::warn!(
                    "[ffr] telemetry disabled: cannot open {}: {e}",
                    dir.display()
                );
                Recorder::disabled()
            }
        }
    }

    /// The worker id of the sink, when enabled.
    pub fn worker(&self) -> Option<&str> {
        self.0.as_deref().map(|inner| inner.worker.as_str())
    }

    fn write_line(&self, kind: &str, name: &str, extra: impl FnOnce(&mut String)) {
        let Some(inner) = &self.0 else { return };
        let ts_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut line = String::with_capacity(128);
        use std::fmt::Write as _;
        let _ = write!(line, "{{\"ts_ms\":{ts_ms},\"worker\":");
        push_json_str(&mut line, &inner.worker);
        let _ = write!(line, ",\"kind\":\"{kind}\",\"name\":");
        push_json_str(&mut line, name);
        extra(&mut line);
        line.push_str("}\n");
        if let Ok(mut sink) = inner.sink.lock() {
            let _ = sink.write_all(line.as_bytes());
        }
    }

    /// Record a leveled structured event.
    pub fn event(&self, level: Level, name: &str, fields: &[(&str, FieldValue)]) {
        if self.0.is_none() {
            return;
        }
        self.write_line("event", name, |line| {
            line.push_str(",\"level\":\"");
            line.push_str(level.name());
            line.push('"');
            push_fields(line, fields);
        });
    }

    /// Start a timed span; the record is emitted when the returned
    /// [`Span`] is dropped (or [`Span::end`]ed).
    pub fn span(&self, name: &str) -> Span {
        Span {
            rec: self.clone(),
            name: name.to_string(),
            start: self.0.as_ref().map(|_| Instant::now()),
            fields: Vec::new(),
        }
    }

    /// Time a closure under a named span.
    pub fn scope<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let span = self.span(name);
        let out = f();
        span.end();
        out
    }

    /// Add `delta` to the named monotonic counter (emitted by
    /// [`Recorder::finish`]).
    pub fn count(&self, name: &str, delta: u64) {
        let Some(inner) = &self.0 else { return };
        if let Ok(mut counters) = inner.counters.lock() {
            *counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Record a latency observation (µs) into the named histogram
    /// (emitted by [`Recorder::finish`]).
    pub fn observe_us(&self, name: &str, value_us: u64) {
        let Some(inner) = &self.0 else { return };
        if let Ok(mut hists) = inner.hists.lock() {
            hists.entry(name.to_string()).or_default().observe(value_us);
        }
    }

    /// Emit the accumulated counters and histograms as `counter` / `hist`
    /// records and reset them. Call at the end of a session or worker
    /// run; a SIGKILLed process simply loses the aggregates (the events
    /// and spans already on disk survive).
    pub fn finish(&self) {
        let Some(inner) = &self.0 else { return };
        let counters: Vec<(String, u64)> = match inner.counters.lock() {
            Ok(mut c) => std::mem::take(&mut *c).into_iter().collect(),
            Err(_) => Vec::new(),
        };
        for (name, value) in counters {
            self.write_line("counter", &name, |line| {
                use std::fmt::Write as _;
                let _ = write!(line, ",\"value\":{value}");
            });
        }
        let hists: Vec<(String, Histogram)> = match inner.hists.lock() {
            Ok(mut h) => std::mem::take(&mut *h).into_iter().collect(),
            Err(_) => Vec::new(),
        };
        for (name, hist) in hists {
            self.write_line("hist", &name, |line| {
                use std::fmt::Write as _;
                let _ = write!(
                    line,
                    ",\"count\":{},\"sum_us\":{},\"max_us\":{},\"buckets\":[",
                    hist.count(),
                    hist.sum_us(),
                    hist.max_us()
                );
                for (i, (bucket, n)) in hist.sparse_buckets().iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "[{bucket},{n}]");
                }
                line.push(']');
            });
        }
    }
}

/// The telemetry directory of a campaign session.
pub fn telemetry_dir(session_dir: &Path) -> PathBuf {
    session_dir.join("telemetry")
}

/// A running timed span (emits a `span` record on drop / [`Span::end`]).
pub struct Span {
    rec: Recorder,
    name: String,
    start: Option<Instant>,
    fields: Vec<(String, FieldValue)>,
}

impl Span {
    /// Attach a structured field to the span record.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if self.start.is_some() {
            self.fields.push((key.to_string(), value.into()));
        }
    }

    /// End the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros() as u64;
        let fields: Vec<(&str, FieldValue)> = self
            .fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let name = std::mem::take(&mut self.name);
        self.rec.write_line("span", &name, |line| {
            use std::fmt::Write as _;
            let _ = write!(line, ",\"dur_us\":{dur_us}");
            push_fields(line, &fields);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffr_obs_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        rec.event(Level::Info, "x", &[("k", 1u64.into())]);
        rec.count("c", 5);
        rec.observe_us("h", 100);
        rec.scope("s", || ());
        rec.finish();
        assert_eq!(rec.worker(), None);
    }

    #[test]
    fn recorder_writes_one_json_line_per_record() {
        let dir = tmp_dir("lines");
        let rec = Recorder::to_dir(&dir, "w1").unwrap();
        rec.event(
            Level::Debug,
            "lease.claim",
            &[
                ("range_start", 0u64.into()),
                ("reclaim", false.into()),
                ("note", "a\"b\n".into()),
            ],
        );
        let mut span = rec.span("phase.golden");
        span.field("cached", true);
        span.end();
        rec.count("injections", 170);
        rec.count("injections", 30);
        rec.observe_us("flush_us", 100);
        rec.finish();

        let text = std::fs::read_to_string(dir.join("w1.jsonl")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "event + span + counter + hist: {text}");
        assert!(lines[0].contains("\"kind\":\"event\""));
        assert!(lines[0].contains("\"name\":\"lease.claim\""));
        assert!(lines[0].contains("\"note\":\"a\\\"b\\n\""));
        assert!(lines[1].contains("\"kind\":\"span\""));
        assert!(lines[1].contains("\"dur_us\":"));
        assert!(lines[2].contains("\"kind\":\"counter\""));
        assert!(lines[2].contains("\"value\":200"));
        assert!(lines[3].contains("\"kind\":\"hist\""));
        assert!(lines[3].contains("\"count\":1"));
        // Every line is complete JSON (balanced braces, ends at newline).
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn reopening_after_truncated_line_isolates_the_garbage() {
        let dir = tmp_dir("truncated");
        {
            let rec = Recorder::to_dir(&dir, "w1").unwrap();
            rec.event(Level::Info, "one", &[]);
        }
        // Simulate a SIGKILL mid-write: a partial line without newline.
        let path = dir.join("w1.jsonl");
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"ts_ms\":12,\"ki").unwrap();
        drop(file);
        // The resumed process appends on a fresh line.
        let rec = Recorder::to_dir(&dir, "w1").unwrap();
        rec.event(Level::Info, "two", &[]);
        drop(rec);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("{\"ts_ms\":12,\"ki"));
        assert!(lines[2].contains("\"name\":\"two\""));
    }

    #[test]
    fn histogram_buckets_merge_and_quantiles() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_upper_us(0), 1);
        assert_eq!(bucket_upper_us(10), 1024);

        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [10, 20, 30] {
            a.observe(v);
        }
        for v in [1000, 2000] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum_us(), 3060);
        assert_eq!(a.max_us(), 2000);
        assert_eq!(a.mean_us(), 612);
        assert!(a.quantile_us(0.5) <= 32);
        assert!(a.quantile_us(0.95) >= 1024);

        let sparse = a.sparse_buckets();
        let back = Histogram::from_sparse(&sparse, a.sum_us(), a.max_us());
        assert_eq!(back, a);
    }

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::Warn.name(), "warn");
    }
}
