//! Content-addressed on-disk artifact store.
//!
//! Expensive campaign artifacts — golden runs, FDR tables, feature
//! matrices, reference datasets, estimation reports — are cached on disk,
//! keyed by a fingerprint of everything that determines their content: the
//! netlist (structure, not just name) and the producing configuration.
//! Identical inputs are served from the cache; any change to the circuit
//! or config changes the key and misses cleanly.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   golden-run/<netlist>-<config>.json
//!   fdr-table/<netlist>-<config>.json
//!   dataset/<netlist>-<config>.json
//!   ...
//! ```
//!
//! Every file is a versioned, self-describing JSON envelope: readers
//! verify the version, kind and key before trusting the payload, so stale
//! or foreign files degrade to cache misses, never to corrupt results. Writes go through a temp file plus
//! atomic rename, so a killed writer leaves either the old artifact or
//! none — readers never see a torn file.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// Version-1 envelope: plain JSON payload.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Version-2 envelope: deflate-compressed, base64-embedded payload (see
/// [`crate::codec`]). Written for bulky artifact kinds
/// ([`ArtifactKind::compressed`]); readers accept v1 and v2 for every
/// kind, so stores written by older code keep working unchanged.
pub(crate) const FORMAT_VERSION_COMPRESSED: u32 = 2;

/// Encoding tag stored in v2 envelopes.
const COMPRESSED_ENCODING: &str = "deflate+base64";

/// Grace period before garbage collection touches a `.tmp` file: a live
/// writer's temp file is younger than this, a crashed writer's leftover
/// is older.
const TMP_GRACE: std::time::Duration = std::time::Duration::from_secs(3600);

/// Write `contents` to `path` via a sibling temp file and an atomic
/// rename: readers see either the previous file or the new one, never a
/// torn write — even if the writer is SIGKILLed mid-way.
///
/// Shared by the artifact store, the campaign checkpoint and the session
/// manifest, so durability fixes land in one place.
///
/// # Errors
///
/// Propagates I/O failures.
pub(crate) fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = unique_tmp_path(path);
    std::fs::write(&tmp, contents)?;
    let renamed = std::fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// Monotonic per-process counter for temp-file names.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp-file path unique across concurrent writers: two processes (or
/// threads) atomically writing the *same* destination get distinct temp
/// files — pid disambiguates processes, the counter disambiguates threads
/// — so neither can truncate or rename the other's half-written temp.
fn unique_tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    PathBuf::from(tmp)
}

/// Create `path` with `contents` **only if it does not already exist**;
/// returns whether this caller won the creation race.
///
/// The contents are staged in a unique temp file first and published with
/// a hard link, which atomically fails if `path` already exists — so a
/// winner's file is always complete (no reader can observe a torn claim)
/// and there is never more than one winner. Used for lease claims, where
/// rename's replace-on-collision semantics would silently hand the same
/// lease to two workers.
///
/// # Errors
///
/// Propagates I/O failures other than "already exists".
pub(crate) fn create_exclusive(path: &Path, contents: &str) -> io::Result<bool> {
    let tmp = unique_tmp_path(path);
    std::fs::write(&tmp, contents)?;
    let linked = std::fs::hard_link(&tmp, path);
    let _ = std::fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Load a versioned JSON document (manifest, checkpoint, shard, report).
///
/// Documents of an older format version miss fields the current structs
/// require, so the version is checked on the parsed tree before it is
/// deserialized: another version reports "`what` version N unsupported"
/// rather than a missing-field decode error. The text is parsed once.
/// Both that and an undecodable file are [`io::ErrorKind::InvalidData`].
pub(crate) fn load_versioned<T: Deserialize>(
    path: &Path,
    what: &str,
    expected: u32,
) -> io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let value = serde_json::parse_value_complete(&text).map_err(|e| invalid(e.to_string()))?;
    match value.get("version") {
        Some(Value::U64(v)) if *v != expected as u64 => Err(invalid(format!(
            "{what} version {v} unsupported (expected {expected})"
        ))),
        _ => T::from_value(&value).map_err(|e| invalid(e.to_string())),
    }
}

/// FNV-1a 64-bit hash (the store's fingerprint primitive — fast, stable,
/// and dependency-free).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Content-address of an artifact: netlist fingerprint plus configuration
/// fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StoreKey {
    /// Fingerprint of the full netlist structure.
    pub netlist: u64,
    /// Fingerprint of the producing configuration (stimulus, campaign
    /// parameters, …).
    pub config: u64,
}

impl StoreKey {
    /// Key for a netlist (hashed over its full serialized structure) and a
    /// caller-assembled configuration description string.
    ///
    /// The config string should contain **every** parameter that changes
    /// the artifact: window, seed, injection counts, stimulus knobs…
    /// Convention: `name=value` pairs joined with `;`.
    pub fn of(netlist: &ffr_netlist::Netlist, config_desc: &str) -> StoreKey {
        let serialized =
            serde_json::to_string(netlist).expect("netlist serialization is infallible");
        StoreKey {
            netlist: fnv1a64(serialized.as_bytes()),
            config: fnv1a64(config_desc.as_bytes()),
        }
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}-{:016x}", self.netlist, self.config)
    }
}

/// The artifact categories the store understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArtifactKind {
    /// A serialized [`ffr_sim::GoldenRun`].
    GoldenRun,
    /// A serialized [`ffr_fault::FdrTable`].
    FdrTable,
    /// A serialized [`ffr_fault::SetDeratingTable`].
    SetTable,
    /// A serialized [`ffr_features::FeatureMatrix`].
    Features,
    /// A serialized [`ffr_core::ReferenceDataset`].
    Dataset,
    /// A rendered estimation/campaign report.
    Report,
    /// A policy accuracy-vs-cost study (`ffr-bench --bin policy_study`).
    PolicyStudy,
    /// A cross-circuit transfer report (`ffr transfer`).
    Transfer,
}

impl ArtifactKind {
    /// All kinds, for directory scans.
    pub(crate) const ALL: [ArtifactKind; 8] = [
        ArtifactKind::GoldenRun,
        ArtifactKind::FdrTable,
        ArtifactKind::SetTable,
        ArtifactKind::Features,
        ArtifactKind::Dataset,
        ArtifactKind::Report,
        ArtifactKind::PolicyStudy,
        ArtifactKind::Transfer,
    ];

    /// `true` for kinds written with the deflate-compressed v2 envelope.
    ///
    /// Golden runs dominate store size: the paper-scale MAC's output
    /// trace and activity (`ffr run --circuit mac`) serialize to 96 kB of
    /// JSON and deflate to a 6.8 kB envelope. The small metadata-heavy
    /// kinds stay as plain v1 JSON, which is grep-able and diff-able.
    pub fn compressed(self) -> bool {
        matches!(self, ArtifactKind::GoldenRun)
    }

    /// Directory name of the kind.
    pub fn dir_name(self) -> &'static str {
        match self {
            ArtifactKind::GoldenRun => "golden-run",
            ArtifactKind::FdrTable => "fdr-table",
            ArtifactKind::SetTable => "set-table",
            ArtifactKind::Features => "features",
            ArtifactKind::Dataset => "dataset",
            ArtifactKind::Report => "report",
            ArtifactKind::PolicyStudy => "policy-study",
            ArtifactKind::Transfer => "transfer",
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.dir_name())
    }
}

/// One entry of a backend directory listing ([`StoreBackend::list_dir`]).
///
/// Includes temp files (`.tmp` in the name): [`ArtifactStore::gc`] needs
/// to see them to sweep crashed writers' leftovers.
#[derive(Debug, Clone)]
pub(crate) struct BackendEntry {
    /// File name within the kind directory.
    pub file_name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Last modification time, when the backend tracks one.
    pub modified: Option<SystemTime>,
}

/// Where artifact bytes live: the storage primitive behind
/// [`ArtifactStore`].
///
/// The store owns everything content-addressed — envelope format, keys,
/// compression, cache-miss semantics — and reduces it to four flat-file
/// operations on `(dir, file)` pairs (`dir` is an
/// [`ArtifactKind::dir_name`]). A backend only moves strings, so an
/// object store or database backend can land behind this trait without
/// touching any store caller. The default is [`LocalDirBackend`].
///
/// Implementations must be thread-safe ([`Send`] + [`Sync`]): one store
/// handle is shared across runner threads.
pub(crate) trait StoreBackend: Send + Sync + fmt::Debug {
    /// Read a file's contents, or `None` if it does not exist.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than "not found".
    fn read(&self, dir: &str, file: &str) -> io::Result<Option<String>>;

    /// Durably write a file (atomically replacing any previous version),
    /// creating the directory as needed. Returns the path the artifact is
    /// addressable under (a real filesystem path for the local backend, a
    /// synthetic `<dir>/<file>` path otherwise).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn write(&self, dir: &str, file: &str, contents: &str) -> io::Result<PathBuf>;

    /// Enumerate a directory (missing directories are empty, temp files
    /// included — see [`BackendEntry`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn list_dir(&self, dir: &str) -> io::Result<Vec<BackendEntry>>;

    /// Delete a file (deleting a missing file is not an error).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn remove(&self, dir: &str, file: &str) -> io::Result<()>;
}

/// The default [`StoreBackend`]: flat files under a root directory, with
/// atomic-rename writes ([`atomic_write`]) so readers never observe torn
/// artifacts. This is byte-for-byte the store layout that predates the
/// backend trait — existing stores read back unchanged.
#[derive(Debug)]
pub(crate) struct LocalDirBackend {
    root: PathBuf,
}

impl LocalDirBackend {
    /// Open (creating if needed) a backend rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub(crate) fn create(root: impl Into<PathBuf>) -> io::Result<LocalDirBackend> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(LocalDirBackend { root })
    }

    fn path(&self, dir: &str, file: &str) -> PathBuf {
        self.root.join(dir).join(file)
    }
}

impl StoreBackend for LocalDirBackend {
    fn read(&self, dir: &str, file: &str) -> io::Result<Option<String>> {
        match std::fs::read_to_string(self.path(dir, file)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write(&self, dir: &str, file: &str, contents: &str) -> io::Result<PathBuf> {
        let path = self.path(dir, file);
        std::fs::create_dir_all(path.parent().expect("artifact path has a parent"))?;
        atomic_write(&path, contents)?;
        Ok(path)
    }

    fn list_dir(&self, dir: &str) -> io::Result<Vec<BackendEntry>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(self.root.join(dir)) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            out.push(BackendEntry {
                file_name: entry.file_name().to_string_lossy().into_owned(),
                bytes: meta.len(),
                modified: meta.modified().ok(),
            });
        }
        Ok(out)
    }

    fn remove(&self, dir: &str, file: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(dir, file)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Metadata of one stored artifact (from [`ArtifactStore::list`]).
#[derive(Debug, Clone)]
pub struct ArtifactInfo {
    /// Artifact category.
    pub kind: ArtifactKind,
    /// File name (key + `.json`).
    pub file_name: String,
    /// Full path.
    pub path: PathBuf,
    /// Size in bytes.
    pub bytes: u64,
    /// Last modification time.
    pub modified: SystemTime,
}

/// Result summary of a [`ArtifactStore::gc`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct GcReport {
    /// Number of files removed.
    pub removed: usize,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Number of files kept.
    pub kept: usize,
}

/// A content-addressed artifact store rooted at a directory.
///
/// ```
/// use ffr_campaign::{ArtifactKind, ArtifactStore, StoreKey};
///
/// let root = std::env::temp_dir().join(format!("ffr_store_doc_{}", std::process::id()));
/// let store = ArtifactStore::open(&root)?;
///
/// // Keys address artifacts by netlist hash + configuration hash
/// // (normally produced by `StoreKey::of(netlist, config_desc)`).
/// let key = StoreKey { netlist: 0xFEED, config: 0xBEEF };
/// store.put(ArtifactKind::FdrTable, &key, &vec![0.25f64, 0.5])?;
///
/// let cached: Option<Vec<f64>> = store.get(ArtifactKind::FdrTable, &key)?;
/// assert_eq!(cached, Some(vec![0.25, 0.5]));
///
/// // A different key — or kind — is a clean miss, never stale data.
/// let other = StoreKey { netlist: 0xFEED, config: 0xBEE5 };
/// assert_eq!(store.get::<Vec<f64>>(ArtifactKind::FdrTable, &other)?, None);
/// assert_eq!(store.get::<Vec<f64>>(ArtifactKind::Dataset, &key)?, None);
/// # std::fs::remove_dir_all(&root)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    backend: Arc<dyn StoreBackend>,
    root: PathBuf,
    recorder: ffr_obs::Recorder,
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `root`, backed by the
    /// local filesystem.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let root = root.into();
        let backend = LocalDirBackend::create(&root)?;
        Ok(ArtifactStore::with_backend(Arc::new(backend), root))
    }

    /// Open a store over an arbitrary [`StoreBackend`]. Everything above
    /// the byte level — envelopes, keys, compression, gc policy — is
    /// identical across backends; `nominal_root` is the path artifacts
    /// are *reported* under ([`ArtifactStore::root`],
    /// [`ArtifactInfo::path`]) for backends with no real filesystem
    /// location.
    pub(crate) fn with_backend(
        backend: Arc<dyn StoreBackend>,
        nominal_root: impl Into<PathBuf>,
    ) -> ArtifactStore {
        ArtifactStore {
            backend,
            root: nominal_root.into(),
            recorder: ffr_obs::Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder: subsequent [`ArtifactStore::put`] /
    /// [`ArtifactStore::get`] calls record latency histograms and byte
    /// counters. Telemetry lives outside the store directory, so
    /// recording never perturbs artifact contents or keys.
    pub(crate) fn with_recorder(mut self, recorder: ffr_obs::Recorder) -> ArtifactStore {
        self.recorder = recorder;
        self
    }

    /// The store's root directory (nominal for non-filesystem backends).
    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    fn file_of(key: &StoreKey) -> String {
        format!("{key}.json")
    }

    /// Store an artifact, atomically replacing any previous version.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn put<T: Serialize>(
        &self,
        kind: ArtifactKind,
        key: &StoreKey,
        payload: &T,
    ) -> io::Result<PathBuf> {
        let t0 = std::time::Instant::now();
        let envelope = if kind.compressed() {
            let payload_json =
                serde_json::to_string(&ValueWrap(&payload.to_value())).expect("payload serializes");
            let packed =
                crate::codec::base64_encode(&crate::codec::deflate(payload_json.as_bytes()));
            self.recorder
                .count("store.compress_in_bytes", payload_json.len() as u64);
            self.recorder
                .count("store.compress_out_bytes", packed.len() as u64);
            Value::Object(vec![
                (
                    "format_version".into(),
                    Value::U64(FORMAT_VERSION_COMPRESSED as u64),
                ),
                ("kind".into(), Value::Str(kind.dir_name().into())),
                ("key".into(), Value::Str(key.to_string())),
                ("encoding".into(), Value::Str(COMPRESSED_ENCODING.into())),
                ("payload".into(), Value::Str(packed)),
            ])
        } else {
            Value::Object(vec![
                ("format_version".into(), Value::U64(FORMAT_VERSION as u64)),
                ("kind".into(), Value::Str(kind.dir_name().into())),
                ("key".into(), Value::Str(key.to_string())),
                ("payload".into(), payload.to_value()),
            ])
        };
        let text = serde_json::to_string(&ValueWrap(&envelope)).expect("envelope serializes");
        let path = self
            .backend
            .write(kind.dir_name(), &Self::file_of(key), &text)?;
        if self.recorder.enabled() {
            self.recorder.count("store.puts", 1);
            self.recorder.count("store.put_bytes", text.len() as u64);
            self.recorder
                .observe_us("store.put_us", t0.elapsed().as_micros() as u64);
            self.recorder.event(
                ffr_obs::Level::Debug,
                "store.put",
                &[
                    ("kind", kind.dir_name().into()),
                    ("bytes", text.len().into()),
                ],
            );
        }
        Ok(path)
    }

    /// Load an artifact, or `None` on a cache miss (missing file, version
    /// mismatch, kind/key mismatch, or undecodable payload).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than "not found".
    pub fn get<T: Deserialize>(&self, kind: ArtifactKind, key: &StoreKey) -> io::Result<Option<T>> {
        let t0 = std::time::Instant::now();
        let result = self.get_impl(kind, key);
        if self.recorder.enabled() {
            self.recorder.count("store.gets", 1);
            if matches!(&result, Ok(Some(_))) {
                self.recorder.count("store.hits", 1);
            }
            self.recorder
                .observe_us("store.get_us", t0.elapsed().as_micros() as u64);
        }
        result
    }

    fn get_impl<T: Deserialize>(
        &self,
        kind: ArtifactKind,
        key: &StoreKey,
    ) -> io::Result<Option<T>> {
        let Some(text) = self.backend.read(kind.dir_name(), &Self::file_of(key))? else {
            return Ok(None);
        };
        self.recorder.count("store.get_bytes", text.len() as u64);
        let Ok(envelope) = serde_json::parse_value_complete(&text) else {
            return Ok(None);
        };
        let version = envelope.get("format_version").and_then(|v| match v {
            Value::U64(n) => Some(*n),
            _ => None,
        });
        if envelope.get("kind").and_then(Value::as_str) != Some(kind.dir_name()) {
            return Ok(None);
        }
        if envelope.get("key").and_then(Value::as_str) != Some(key.to_string().as_str()) {
            return Ok(None);
        }
        // Readers accept both envelope layouts regardless of what the
        // current writer would produce for this kind, so v1 stores read
        // back transparently after an upgrade (and vice versa).
        match version {
            Some(v) if v == FORMAT_VERSION as u64 => {
                let Some(payload) = envelope.get("payload") else {
                    return Ok(None);
                };
                Ok(T::from_value(payload).ok())
            }
            Some(v) if v == FORMAT_VERSION_COMPRESSED as u64 => {
                if envelope.get("encoding").and_then(Value::as_str) != Some(COMPRESSED_ENCODING) {
                    return Ok(None);
                }
                let Some(packed) = envelope.get("payload").and_then(Value::as_str) else {
                    return Ok(None);
                };
                let Ok(compressed) = crate::codec::base64_decode(packed) else {
                    return Ok(None);
                };
                let Ok(bytes) = crate::codec::inflate(&compressed) else {
                    return Ok(None);
                };
                let Ok(payload_json) = String::from_utf8(bytes) else {
                    return Ok(None);
                };
                let Ok(payload) = serde_json::parse_value_complete(&payload_json) else {
                    return Ok(None);
                };
                Ok(T::from_value(&payload).ok())
            }
            _ => Ok(None),
        }
    }

    /// Enumerate every artifact in the store.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list(&self) -> io::Result<Vec<ArtifactInfo>> {
        let mut out = Vec::new();
        for kind in ArtifactKind::ALL {
            for entry in self.backend.list_dir(kind.dir_name())? {
                if !entry.file_name.ends_with(".json") {
                    continue;
                }
                out.push(ArtifactInfo {
                    kind,
                    path: self.root.join(kind.dir_name()).join(&entry.file_name),
                    bytes: entry.bytes,
                    modified: entry.modified.unwrap_or(SystemTime::UNIX_EPOCH),
                    file_name: entry.file_name,
                });
            }
        }
        out.sort_by(|a, b| {
            (a.kind.dir_name(), &a.file_name).cmp(&(b.kind.dir_name(), &b.file_name))
        });
        Ok(out)
    }

    /// Remove artifacts: everything older than `max_age`, or everything if
    /// `max_age` is `None`. Leftover temp files from killed writers are
    /// removed once they outlive a one-hour grace period (younger ones may
    /// belong to a live writer).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn gc(&self, max_age: Option<std::time::Duration>) -> io::Result<GcReport> {
        let now = SystemTime::now();
        let mut report = GcReport::default();
        for kind in ArtifactKind::ALL {
            for entry in self.backend.list_dir(kind.dir_name())? {
                let older_than = |age: std::time::Duration| {
                    entry
                        .modified
                        .and_then(|m| now.duration_since(m).ok())
                        .is_some_and(|elapsed| elapsed > age)
                };
                // A temp file younger than the grace period may belong to
                // a concurrent writer mid-`atomic_write`; leave it alone.
                // Matches both the legacy `foo.json.tmp` suffix and the
                // current unique `foo.json.tmp.<pid>.<seq>` names.
                let is_tmp = entry.file_name.contains(".tmp");
                if is_tmp && !older_than(TMP_GRACE) {
                    report.kept += 1;
                    continue;
                }
                let expired = match max_age {
                    None => true,
                    Some(age) => older_than(age),
                };
                if is_tmp || expired {
                    self.backend.remove(kind.dir_name(), &entry.file_name)?;
                    report.removed += 1;
                    report.reclaimed_bytes += entry.bytes;
                } else {
                    report.kept += 1;
                }
            }
        }
        Ok(report)
    }
}

/// Serialize adapter: a raw [`Value`] is its own serialization.
struct ValueWrap<'a>(&'a Value);

impl Serialize for ValueWrap<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("ffr_store_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).unwrap()
    }

    fn key() -> StoreKey {
        StoreKey {
            netlist: 0xAB,
            config: 0xCD,
        }
    }

    #[test]
    fn put_get_round_trip() {
        let store = tmp_store("roundtrip");
        let data: Vec<u64> = vec![1, 2, 3, u64::MAX];
        assert_eq!(
            store
                .get::<Vec<u64>>(ArtifactKind::FdrTable, &key())
                .unwrap(),
            None
        );
        store.put(ArtifactKind::FdrTable, &key(), &data).unwrap();
        let loaded: Option<Vec<u64>> = store.get(ArtifactKind::FdrTable, &key()).unwrap();
        assert_eq!(loaded, Some(data));
    }

    /// Golden runs written before `GoldenRun` dropped its flip-flop state
    /// journal carry an extra `journal` object; they must keep serving as
    /// hits, or every existing store recaptures after an upgrade.
    #[test]
    fn golden_run_with_the_old_state_journal_still_serves() {
        use ffr_sim::GoldenRun;
        let prepared = crate::spec::CircuitSpec::Counter { width: 2 }.prepare(1, 160);
        let golden = GoldenRun::capture(&prepared.cc, &prepared.stimulus, &prepared.watch);
        let Value::Object(mut fields) = golden.to_value() else {
            panic!("a golden run serializes to an object");
        };
        let journal = vec![
            ("words_per_cycle".to_string(), Value::U64(1)),
            ("cycles".to_string(), Value::U64(160)),
            ("data".to_string(), Value::Array(vec![Value::U64(3); 160])),
        ];
        fields.push(("journal".into(), Value::Object(journal)));
        let store = tmp_store("old_golden");
        store
            .put(ArtifactKind::GoldenRun, &key(), &Value::Object(fields))
            .unwrap();
        let loaded: Option<GoldenRun> = store.get(ArtifactKind::GoldenRun, &key()).unwrap();
        assert_eq!(loaded, Some(golden));
    }

    #[test]
    fn kind_and_key_mismatches_miss() {
        let store = tmp_store("mismatch");
        store.put(ArtifactKind::Report, &key(), &42u64).unwrap();
        let other_kind: Option<u64> = store.get(ArtifactKind::Dataset, &key()).unwrap();
        assert_eq!(other_kind, None);
        let other_key = StoreKey {
            netlist: 1,
            config: 2,
        };
        let missing: Option<u64> = store.get(ArtifactKind::Report, &other_key).unwrap();
        assert_eq!(missing, None);
    }

    #[test]
    fn corrupt_files_degrade_to_miss() {
        let store = tmp_store("corrupt");
        let path = store.put(ArtifactKind::Report, &key(), &1u64).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        let loaded: Option<u64> = store.get(ArtifactKind::Report, &key()).unwrap();
        assert_eq!(loaded, None);
        // Wrong format version is also a miss.
        std::fs::write(
            &path,
            r#"{"format_version":999,"kind":"report","key":"x","payload":1}"#,
        )
        .unwrap();
        let loaded: Option<u64> = store.get(ArtifactKind::Report, &key()).unwrap();
        assert_eq!(loaded, None);
    }

    #[test]
    fn list_and_gc() {
        let store = tmp_store("gc");
        store.put(ArtifactKind::Report, &key(), &1u64).unwrap();
        store
            .put(
                ArtifactKind::Dataset,
                &StoreKey {
                    netlist: 5,
                    config: 6,
                },
                &2u64,
            )
            .unwrap();
        assert_eq!(store.list().unwrap().len(), 2);
        // Nothing is older than an hour.
        let report = store
            .gc(Some(std::time::Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(report.removed, 0);
        assert_eq!(report.kept, 2);
        // Unconditional gc removes everything.
        let report = store.gc(None).unwrap();
        assert_eq!(report.removed, 2);
        assert!(store.list().unwrap().is_empty());
    }

    #[test]
    fn golden_run_kind_round_trips_through_the_compressed_envelope() {
        let store = tmp_store("compressed");
        // A payload shaped like real golden-run JSON: long, repetitive.
        let data: Vec<u64> = (0..4096).map(|i| i % 17).collect();
        let path = store.put(ArtifactKind::GoldenRun, &key(), &data).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"format_version\":2"),
            "golden runs are written as v2 envelopes: {}",
            &text[..text.len().min(120)]
        );
        assert!(text.contains("\"encoding\":\"deflate+base64\""));
        let loaded: Option<Vec<u64>> = store.get(ArtifactKind::GoldenRun, &key()).unwrap();
        assert_eq!(loaded, Some(data.clone()));

        // The compressed envelope beats the equivalent v1 JSON envelope.
        let plain = serde_json::to_string(&data).unwrap();
        assert!(
            std::fs::metadata(&path).unwrap().len() < plain.len() as u64,
            "compressed envelope ({}) must undercut plain payload JSON ({})",
            std::fs::metadata(&path).unwrap().len(),
            plain.len()
        );
    }

    #[test]
    fn v1_golden_run_envelopes_read_back_transparently() {
        // A store written before the compressed envelope existed must
        // keep serving cache hits.
        let store = tmp_store("v1_golden");
        let path = store.put(ArtifactKind::GoldenRun, &key(), &7u64).unwrap();
        std::fs::write(
            &path,
            format!(
                r#"{{"format_version":1,"kind":"golden-run","key":"{}","payload":[1,2,3]}}"#,
                key()
            ),
        )
        .unwrap();
        let loaded: Option<Vec<u64>> = store.get(ArtifactKind::GoldenRun, &key()).unwrap();
        assert_eq!(loaded, Some(vec![1, 2, 3]));
    }

    #[test]
    fn corrupt_compressed_payload_degrades_to_miss() {
        let store = tmp_store("corrupt_compressed");
        let path = store
            .put(ArtifactKind::GoldenRun, &key(), &vec![1u64; 64])
            .unwrap();
        std::fs::write(
            &path,
            format!(
                r#"{{"format_version":2,"kind":"golden-run","key":"{}","encoding":"deflate+base64","payload":"!!!not-base64!!!"}}"#,
                key()
            ),
        )
        .unwrap();
        let loaded: Option<Vec<u64>> = store.get(ArtifactKind::GoldenRun, &key()).unwrap();
        assert_eq!(loaded, None);
    }

    #[test]
    fn create_exclusive_has_exactly_one_winner() {
        let dir = std::env::temp_dir().join(format!("ffr_claim_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("claim.json");
        assert!(create_exclusive(&path, "first").unwrap());
        assert!(!create_exclusive(&path, "second").unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");

        // Many concurrent claimers: exactly one wins, and the file always
        // holds the complete contents of the winner.
        let path2 = dir.join("contended.json");
        let wins: usize = std::thread::scope(|scope| {
            (0..16)
                .map(|i| {
                    let path2 = &path2;
                    scope.spawn(move || create_exclusive(path2, &format!("w{i}")).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum()
        });
        assert_eq!(wins, 1);
        let contents = std::fs::read_to_string(&path2).unwrap();
        assert!(contents.starts_with('w'), "complete winner contents");
        // No temp-file litter from the losers.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp")
            })
            .count();
        assert_eq!(leftovers, 0);
    }

    #[test]
    fn gc_sweeps_unique_temp_names() {
        let store = tmp_store("tmp_names");
        store.put(ArtifactKind::Report, &key(), &1u64).unwrap();
        // Simulate a crashed concurrent writer's leftover unique temp.
        let stale = store
            .root()
            .join(ArtifactKind::Report.dir_name())
            .join(format!("{}.json.tmp.4242.7", key()));
        std::fs::write(&stale, "partial").unwrap();
        // The unique name is recognised as a temp file: even an
        // unconditional sweep keeps it inside the grace period (its
        // writer may still be alive) instead of treating it as an
        // expired artifact.
        let report = store.gc(None).unwrap();
        assert_eq!(report.removed, 1, "only the real artifact is swept");
        assert_eq!(report.kept, 1);
        assert!(stale.exists());
    }

    /// A `StoreBackend` with no filesystem at all: artifact bytes in a
    /// shared map. Exercises the trait-object path end to end — what an
    /// object-store/DB backend would implement.
    #[derive(Debug, Default)]
    struct MemBackend {
        files: std::sync::Mutex<std::collections::BTreeMap<(String, String), String>>,
    }

    impl StoreBackend for MemBackend {
        fn read(&self, dir: &str, file: &str) -> io::Result<Option<String>> {
            Ok(self
                .files
                .lock()
                .unwrap()
                .get(&(dir.into(), file.into()))
                .cloned())
        }
        fn write(&self, dir: &str, file: &str, contents: &str) -> io::Result<PathBuf> {
            self.files
                .lock()
                .unwrap()
                .insert((dir.into(), file.into()), contents.into());
            Ok(PathBuf::from(format!("mem/{dir}/{file}")))
        }
        fn list_dir(&self, dir: &str) -> io::Result<Vec<BackendEntry>> {
            Ok(self
                .files
                .lock()
                .unwrap()
                .iter()
                .filter(|((d, _), _)| d == dir)
                .map(|((_, f), contents)| BackendEntry {
                    file_name: f.clone(),
                    bytes: contents.len() as u64,
                    modified: None,
                })
                .collect())
        }
        fn remove(&self, dir: &str, file: &str) -> io::Result<()> {
            self.files
                .lock()
                .unwrap()
                .remove(&(dir.into(), file.into()));
            Ok(())
        }
    }

    #[test]
    fn in_memory_backend_round_trips_through_the_trait_object() {
        let store = ArtifactStore::with_backend(Arc::new(MemBackend::default()), "mem");
        let data: Vec<u64> = (0..512).map(|i| i * 3).collect();

        // Plain v1 kind and compressed v2 kind both round-trip.
        assert_eq!(
            store
                .get::<Vec<u64>>(ArtifactKind::FdrTable, &key())
                .unwrap(),
            None
        );
        store.put(ArtifactKind::FdrTable, &key(), &data).unwrap();
        store.put(ArtifactKind::GoldenRun, &key(), &data).unwrap();
        let fdr: Option<Vec<u64>> = store.get(ArtifactKind::FdrTable, &key()).unwrap();
        let golden: Option<Vec<u64>> = store.get(ArtifactKind::GoldenRun, &key()).unwrap();
        assert_eq!(fdr, Some(data.clone()));
        assert_eq!(golden, Some(data.clone()));

        // Envelope bytes are identical across backends: the store, not
        // the backend, owns the format.
        let local = tmp_store("backend_parity");
        let local_path = local.put(ArtifactKind::GoldenRun, &key(), &data).unwrap();
        let local_bytes = std::fs::read_to_string(local_path).unwrap();
        let mem_bytes = store
            .backend
            .read(
                ArtifactKind::GoldenRun.dir_name(),
                &format!("{}.json", key()),
            )
            .unwrap()
            .unwrap();
        assert_eq!(local_bytes, mem_bytes);

        // list + unconditional gc work without real files.
        assert_eq!(store.list().unwrap().len(), 2);
        let report = store.gc(None).unwrap();
        assert_eq!(report.removed, 2);
        assert!(store.list().unwrap().is_empty());
        let miss: Option<Vec<u64>> = store.get(ArtifactKind::FdrTable, &key()).unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn store_keys_are_structure_sensitive() {
        use ffr_netlist::NetlistBuilder;
        let build = |width| {
            let mut b = NetlistBuilder::new("k");
            let en = b.input("en", 1);
            let r = b.reg("r", width);
            let next = b.inc(&r.q());
            b.connect_en(&r, &en, &next).unwrap();
            b.output("v", &r.q());
            b.finish().unwrap()
        };
        let a = StoreKey::of(&build(4), "cfg");
        let b = StoreKey::of(&build(4), "cfg");
        let c = StoreKey::of(&build(5), "cfg");
        let d = StoreKey::of(&build(4), "other");
        assert_eq!(a, b);
        assert_ne!(a.netlist, c.netlist);
        assert_eq!(a.netlist, d.netlist);
        assert_ne!(a.config, d.config);
    }
}
