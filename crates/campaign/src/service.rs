//! The `ffrd` campaign service: a multi-tenant HTTP front-end over the
//! session/worker machinery.
//!
//! `ffrd` is a long-running, dependency-free HTTP/1.1 server built on
//! `std::net` and a fixed thread pool. It accepts campaign submissions
//! as JSON, prepares one session directory per campaign under a shared
//! root (through `session::bootstrap`, the same primitive `ffr run` and
//! `ffr worker --circuit …` bootstrap with), and lets `ffr
//! worker` fleets pointed at those directories drain the work through
//! the existing lease queue — which hands out the most expensive
//! remaining ranges first (see `LeaseQueue::claim`). The
//! service itself never simulates a cycle; it is a control plane over
//! durable on-disk state, so killing and restarting it loses nothing.
//!
//! # HTTP surface
//!
//! All bodies are JSON; responses close the connection
//! (`Connection: close`).
//!
//! | Method & path                  | Meaning                              |
//! |--------------------------------|--------------------------------------|
//! | `GET /healthz`                 | liveness probe → `{"ok":true}`       |
//! | `POST /campaigns`              | submit a campaign (see below)        |
//! | `GET /campaigns`               | list known campaigns                 |
//! | `GET /campaigns/<id>`          | one campaign's manifest summary      |
//! | `GET /campaigns/<id>/status`   | live progress — the exact            |
//! |                                | `ffr status --json` document         |
//! | `GET /campaigns/<id>/estimate` | the ML estimation report, computed   |
//! |                                | on first request once the campaign   |
//! |                                | is complete                          |
//!
//! A submission body names the campaign and its parameters; everything
//! except `id` and `circuit` is optional and defaults like `ffr run`:
//!
//! ```json
//! {
//!   "id": "mac8-wilson",
//!   "circuit": "mac:8x8",
//!   "fault": "seu",
//!   "policy": "wilson:0.05@95:64..170",
//!   "budget": 0.4,
//!   "cycles": 400,
//!   "seed": 2019,
//!   "stim_seed": 1
//! }
//! ```
//!
//! `POST /campaigns` answers `201` on first submission, `200` when the
//! identical campaign already exists (idempotent resubmit), `409` when
//! the id is taken by a campaign with a different fingerprint, `400` on
//! malformed bodies or invalid parameters, and `500` when the server
//! itself fails (full disk, unwritable root). Campaign ids are path-safe
//! names: ASCII letters, digits, `._-`, no leading dot.
//!
//! Workers attach with plain `ffr worker --campaign <root>/<id>`; the
//! manifest is already on disk, so no worker needs bootstrap flags.

use crate::session::{self, CampaignManifest, RunRequest, SessionPaths};
use crate::spec::CircuitSpec;
use ffr_fault::FaultKind;
use serde::Value;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection I/O timeout: the server only talks to local clients
/// and small bodies, so anything slower is a stuck peer.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on request head + body, far above any legitimate
/// submission.
const MAX_REQUEST_BYTES: usize = 256 * 1024;

/// Configuration of one `ffrd` instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Directory holding one session directory per campaign id.
    pub root: PathBuf,
    /// Artifact store configured into every submitted campaign
    /// (golden-run/table caching); `None` disables caching.
    pub store: Option<PathBuf>,
    /// Connection-handler threads.
    pub threads: usize,
}

impl ServiceConfig {
    /// Loopback on an ephemeral port, four handler threads, no store.
    pub fn new(root: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            listen: "127.0.0.1:0".to_string(),
            root: root.into(),
            store: None,
            threads: 4,
        }
    }
}

/// Immutable state shared by every connection handler.
#[derive(Debug)]
struct ServiceCtx {
    root: PathBuf,
    store: Option<PathBuf>,
}

/// A running service: its bound address plus the handles needed to shut
/// it down cleanly (used by tests; the `ffrd` binary just runs forever).
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    cancel: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound listen address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight connections and join every
    /// thread.
    pub fn shutdown(mut self) {
        self.cancel.store(true, Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Bind, spawn the acceptor and handler pool, and return immediately.
///
/// # Errors
///
/// Fails if the root directory cannot be created or the address cannot
/// be bound.
pub fn serve(config: &ServiceConfig) -> io::Result<ServiceHandle> {
    std::fs::create_dir_all(&config.root)?;
    let listener = TcpListener::bind(config.listen.as_str())?;
    let addr = listener.local_addr()?;
    // Non-blocking accept lets the acceptor poll the shutdown flag; the
    // accepted streams themselves are switched back to blocking reads.
    listener.set_nonblocking(true)?;

    let cancel = Arc::new(AtomicBool::new(false));
    let ctx = Arc::new(ServiceCtx {
        root: config.root.clone(),
        store: config.store.clone(),
    });
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut threads = Vec::with_capacity(config.threads.max(1) + 1);
    for _ in 0..config.threads.max(1) {
        let rx = Arc::clone(&rx);
        let ctx = Arc::clone(&ctx);
        threads.push(std::thread::spawn(move || loop {
            // Holding the lock only for the recv keeps the pool simple:
            // one queue, whichever thread is free picks up the next
            // connection. The channel closing (acceptor gone) ends the
            // thread.
            let stream = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => break,
            };
            match stream {
                Ok(stream) => handle_connection(stream, &ctx),
                Err(_) => break,
            }
        }));
    }
    let accept_cancel = Arc::clone(&cancel);
    threads.push(std::thread::spawn(move || {
        loop {
            if accept_cancel.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                // Transient accept errors (e.g. a peer resetting during
                // the handshake) should not kill the server.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // Dropping the sender lets the handler pool drain and exit.
    }));
    Ok(ServiceHandle {
        addr,
        cancel,
        threads,
    })
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

/// One parsed request: method, path, raw query string and (possibly
/// empty) body.
struct Request {
    method: String,
    path: String,
    query: String,
    body: String,
}

/// One response about to be written: status code plus JSON body.
struct Response {
    status: u16,
    body: String,
}

impl Response {
    fn json(status: u16, value: &Value) -> Response {
        Response {
            status,
            body: serde_json::to_string_pretty(value).unwrap_or_else(|_| "{}".to_string()),
        }
    }

    fn error(status: u16, message: impl std::fmt::Display) -> Response {
        Response::json(
            status,
            &obj(vec![("error", Value::Str(message.to_string()))]),
        )
    }
}

/// Shorthand for a JSON object value.
fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        _ => "Internal Server Error",
    }
}

/// Read one HTTP/1.1 request: head until `\r\n\r\n`, then exactly
/// `Content-Length` body bytes. No chunked encoding, no keep-alive —
/// the service always answers `Connection: close`.
fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_blank_line(&buf) {
            break i;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(io::Error::other("request head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    if method.is_empty() || !path.starts_with('/') {
        return Err(io::Error::other("malformed request line"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::other("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Err(io::Error::other("request body too large"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| io::Error::other("body is not UTF-8"))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

fn handle_connection(mut stream: TcpStream, ctx: &ServiceCtx) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(request) => route(&request, ctx),
        Err(e) => Response::error(400, e),
    };
    // The peer may already be gone; nothing useful to do about it.
    let _ = write_response(&mut stream, &response);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn route(request: &Request, ctx: &ServiceCtx) -> Response {
    let segments: Vec<&str> = request
        .path
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(200, &obj(vec![("ok", Value::Bool(true))])),
        ("POST", ["campaigns"]) => post_campaign(&request.body, ctx),
        ("GET", ["campaigns"]) => list_campaigns(ctx),
        ("GET", ["campaigns", id]) => campaign_summary(id, ctx),
        ("GET", ["campaigns", id, "status"]) => campaign_status(id, ctx),
        ("GET", ["campaigns", id, "estimate"]) => campaign_estimate(id, &request.query, ctx),
        (_, ["healthz" | "campaigns", ..]) => Response::error(405, "method not allowed"),
        _ => Response::error(404, format!("no such endpoint: {}", request.path)),
    }
}

/// Path-safe campaign ids: non-empty, ASCII `[A-Za-z0-9._-]`, no
/// leading dot (hidden files / `..` traversal), bounded length.
fn valid_campaign_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && !id.starts_with('.')
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

fn field_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::U64(n)) => Ok(Some(*n)),
        Some(other) => Err(format!(
            "`{key}` must be a non-negative integer (got {})",
            other.type_name()
        )),
    }
}

fn field_f64(value: &Value, key: &str) -> Result<Option<f64>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::F64(f)) => Ok(Some(*f)),
        Some(Value::U64(n)) => Ok(Some(*n as f64)),
        Some(Value::I64(n)) => Ok(Some(*n as f64)),
        Some(other) => Err(format!(
            "`{key}` must be a number (got {})",
            other.type_name()
        )),
    }
}

fn field_str<'v>(value: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(other) => Err(format!(
            "`{key}` must be a string (got {})",
            other.type_name()
        )),
    }
}

/// Parse a `POST /campaigns` body into `(id, RunRequest)`. Defaults
/// mirror `ffr run`: SEU, `fixed:170`, full budget, seed 2019.
fn parse_submission(body: &str) -> Result<(String, RunRequest), String> {
    let value = serde_json::parse_value_complete(body).map_err(|e| format!("bad JSON: {e}"))?;
    let id = field_str(&value, "id")?.ok_or("`id` (string) is required")?;
    if !valid_campaign_id(id) {
        return Err(format!(
            "`{id}` is not a valid campaign id (ASCII letters, digits, `._-`, \
             no leading dot, at most 64 chars)"
        ));
    }
    let circuit: CircuitSpec = field_str(&value, "circuit")?
        .ok_or("`circuit` (string) is required")?
        .parse()?;
    let mut request = RunRequest::new(circuit);
    if let Some(fault) = field_str(&value, "fault")? {
        request.fault = FaultKind::parse_cli(fault)?;
    }
    if let Some(policy) = field_str(&value, "policy")? {
        request.policy = policy.parse()?;
    }
    if let Some(seed) = field_u64(&value, "seed")? {
        request.seed = seed;
    }
    if let Some(seed) = field_u64(&value, "stim_seed")? {
        request.stim_seed = seed;
    }
    if let Some(cycles) = field_u64(&value, "cycles")? {
        request.cycles = cycles;
    }
    if let Some(budget) = field_f64(&value, "budget")? {
        request.budget = budget;
    }
    Ok((id.to_string(), request))
}

fn manifest_entry(id: &str, manifest: &CampaignManifest, paths: &SessionPaths) -> Value {
    obj(vec![
        ("id", Value::Str(id.to_string())),
        ("circuit", Value::Str(manifest.circuit.clone())),
        ("fault", Value::Str(manifest.fault.to_string())),
        ("policy", Value::Str(manifest.policy.to_string())),
        ("seed", Value::U64(manifest.seed)),
        ("budget", Value::F64(manifest.budget)),
        ("fingerprint", Value::Str(manifest.fingerprint.clone())),
        ("session", Value::Str(paths.out_dir.display().to_string())),
        (
            "complete",
            Value::Bool(paths.table_json(manifest.fault).exists()),
        ),
    ])
}

fn post_campaign(body: &str, ctx: &ServiceCtx) -> Response {
    let (id, mut request) = match parse_submission(body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(400, e),
    };
    // The service's store policy wins: every campaign it hosts shares
    // one artifact store (or none), regardless of the submission.
    request.store = ctx.store.clone();
    let dir = ctx.root.join(&id);
    let paths = SessionPaths::new(&dir);
    let existed = paths.manifest().exists();
    match session::bootstrap(&dir, Some(&request)) {
        Ok((manifest, ..)) => Response::json(
            if existed { 200 } else { 201 },
            &manifest_entry(&id, &manifest, &paths),
        ),
        // The bootstrap classifies its refusals: a taken id and an
        // invalid request are the client's; anything else is ours.
        Err(e) => Response::error(
            match e.kind() {
                io::ErrorKind::AlreadyExists => 409,
                io::ErrorKind::InvalidInput => 400,
                _ => 500,
            },
            e,
        ),
    }
}

fn list_campaigns(ctx: &ServiceCtx) -> Response {
    let mut ids: Vec<String> = match std::fs::read_dir(&ctx.root) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().join("campaign.json").is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect(),
        Err(e) => return Response::error(500, e),
    };
    ids.sort();
    let campaigns: Vec<Value> = ids
        .iter()
        .filter_map(|id| {
            let paths = SessionPaths::new(ctx.root.join(id));
            let manifest = CampaignManifest::load(&paths.manifest()).ok()?;
            Some(manifest_entry(id, &manifest, &paths))
        })
        .collect();
    Response::json(200, &obj(vec![("campaigns", Value::Array(campaigns))]))
}

fn campaign_summary(id: &str, ctx: &ServiceCtx) -> Response {
    if !valid_campaign_id(id) {
        return Response::error(400, "invalid campaign id");
    }
    let paths = SessionPaths::new(ctx.root.join(id));
    match CampaignManifest::load(&paths.manifest()) {
        Ok(manifest) => Response::json(200, &manifest_entry(id, &manifest, &paths)),
        Err(_) => Response::error(404, format!("no campaign `{id}`")),
    }
}

fn campaign_status(id: &str, ctx: &ServiceCtx) -> Response {
    if !valid_campaign_id(id) {
        return Response::error(400, "invalid campaign id");
    }
    let dir = ctx.root.join(id);
    if !dir.join("campaign.json").is_file() {
        return Response::error(404, format!("no campaign `{id}`"));
    }
    match crate::status::gather_status(&dir) {
        // The verbatim `ffr status --json` document: one schema for the
        // CLI and the service.
        Ok((report, _fault)) => Response {
            status: 200,
            body: serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".to_string()),
        },
        Err(e) => Response::error(500, e),
    }
}

/// Estimate options from an `/estimate` query string (e.g.
/// `?models=linear,forest&grid=1&folds=4`). The same knobs, parsed and
/// validated by the same setter, as `ffr estimate`; unknown keys are
/// refused so typos fail loudly.
fn estimate_options_from_query(
    query: &str,
    ctx: &ServiceCtx,
) -> Result<crate::estimate::EstimateOptions, String> {
    let mut options = crate::estimate::EstimateOptions {
        store: ctx.store.clone(),
        ..Default::default()
    };
    for pair in query.split('&').filter(|s| !s.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("malformed query parameter `{pair}`"))?;
        options
            .set(key, value)
            .map_err(|e| format!("query parameter `{key}`: {e}"))?;
    }
    Ok(options)
}

fn campaign_estimate(id: &str, query: &str, ctx: &ServiceCtx) -> Response {
    if !valid_campaign_id(id) {
        return Response::error(400, "invalid campaign id");
    }
    let dir = ctx.root.join(id);
    let paths = SessionPaths::new(&dir);
    if !paths.manifest().is_file() {
        return Response::error(404, format!("no campaign `{id}`"));
    }
    // The query is validated on every request, cached report or not: a
    // typo must not turn into a 200 once `estimate.json` exists.
    let options = match estimate_options_from_query(query, ctx) {
        Ok(options) => options,
        Err(e) => return Response::error(400, e),
    };
    if !paths.estimate_json().is_file() {
        // Compute on first request. Concurrent requests may race the
        // computation; both write identical bytes via atomic renames,
        // so the race is benign (just redundant work).
        if let Err(e) = crate::estimate::estimate_session(&dir, &options) {
            // Not estimable yet (incomplete campaign, SET session, …):
            // the resource exists but is not ready.
            return Response::error(409, e);
        }
    }
    match std::fs::read_to_string(paths.estimate_json()) {
        Ok(body) => Response { status: 200, body },
        Err(e) => Response::error(500, e),
    }
}

// ---------------------------------------------------------------------------
// The `ffrd` entry point
// ---------------------------------------------------------------------------

const USAGE: &str = "\
ffrd — campaign service over the ffr session machinery

USAGE:
    ffrd --root <dir> [OPTIONS]

OPTIONS:
    --root <dir>       directory holding one session per campaign (required)
    --listen <addr>    bind address                  [default: 127.0.0.1:7878]
    --store <dir>      artifact store for all hosted campaigns
    --threads <n>      connection-handler threads    [default: 4]
    --quiet            only log errors
    -v, --verbose      debug logging

The bound address is also written to <root>/ffrd.addr, so scripts can
submit to `--listen 127.0.0.1:0` servers without parsing logs.

ENDPOINTS:
    GET  /healthz                    liveness
    POST /campaigns                  submit {\"id\", \"circuit\", …}
    GET  /campaigns                  list campaigns
    GET  /campaigns/<id>             manifest summary
    GET  /campaigns/<id>/status      ffr status --json document
    GET  /campaigns/<id>/estimate    estimation report (computed on demand)

Drain submitted campaigns with:  ffr worker --campaign <root>/<id>
";

/// `ffrd` main: parse flags, serve until killed. Returns the process
/// exit code (64 for usage errors).
pub fn ffrd_main(args: &[String]) -> i32 {
    ffr_obs::init_log_from_env();
    let mut argv: Vec<String> = Vec::with_capacity(args.len());
    for arg in args {
        match arg.as_str() {
            "--quiet" => ffr_obs::set_log_level(ffr_obs::Level::Error),
            "-v" | "--verbose" => ffr_obs::set_log_level(ffr_obs::Level::Debug),
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                return 0;
            }
            _ => argv.push(arg.clone()),
        }
    }
    match ffrd_serve_from_args(&argv) {
        Ok(handle) => {
            // The binary has no shutdown path of its own: it serves
            // until the process is killed. Parking the main thread
            // keeps the handle (and its pool) alive.
            drop(handle);
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Err(e) => {
            ffr_obs::error!("error: {e}");
            64
        }
    }
}

/// Parse `ffrd` flags, start the service and write `<root>/ffrd.addr`.
fn ffrd_serve_from_args(argv: &[String]) -> Result<ServiceHandle, String> {
    let mut args = crate::cli::Args::parse(argv)?;
    let root: PathBuf = args.value("root")?.ok_or("--root is required")?.into();
    let mut config = ServiceConfig::new(root);
    if let Some(listen) = args.value("listen")? {
        config.listen = listen;
    } else {
        config.listen = "127.0.0.1:7878".to_string();
    }
    config.store = args.value("store")?.map(PathBuf::from);
    if let Some(threads) = args.parsed::<usize>("threads")? {
        config.threads = threads.max(1);
    }
    args.finish()?;
    let handle = serve(&config).map_err(|e| e.to_string())?;
    // Published for scripts (and the process tests): the one place the
    // resolved ephemeral port can be read back from.
    crate::store::atomic_write(
        &config.root.join("ffrd.addr"),
        &format!("{}\n", handle.addr()),
    )
    .map_err(|e| e.to_string())?;
    ffr_obs::info!("ffrd listening on http://{}", handle.addr());
    ffr_obs::info!("campaign root: {}", config.root.display());
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{CancelToken, RunnerOptions};
    use crate::session::WorkerRequest;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffrd_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Minimal blocking HTTP client: one request, one response.
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: ffrd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let payload = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    }

    #[test]
    fn submission_parsing_validates_ids_and_shapes() {
        let (id, request) = parse_submission(
            r#"{"id":"c1","circuit":"counter:6","cycles":160,"policy":"fixed:64","budget":0.5}"#,
        )
        .unwrap();
        assert_eq!(id, "c1");
        assert_eq!(request.cycles, 160);
        assert_eq!(request.budget, 0.5);
        assert_eq!(request.policy.to_string(), "fixed:64");

        for bad in [
            r#"{"circuit":"counter:6"}"#,                      // no id
            r#"{"id":"../evil","circuit":"counter:6"}"#,       // traversal
            r#"{"id":".hidden","circuit":"counter:6"}"#,       // leading dot
            r#"{"id":"c1"}"#,                                  // no circuit
            r#"{"id":"c1","circuit":"nosuch:9"}"#,             // unknown circuit
            r#"{"id":"c1","circuit":"counter:6","seed":"x"}"#, // wrong type
            "not json",
        ] {
            assert!(parse_submission(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn service_round_trip_submit_drain_status() {
        let root = tmp_dir("svc");
        let handle = serve(&ServiceConfig::new(&root)).unwrap();
        let addr = handle.addr();

        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");

        // Submit → 201; identical resubmit → 200; conflicting → 409.
        let submission =
            r#"{"id":"c1","circuit":"counter:6","cycles":160,"seed":7,"policy":"fixed:64"}"#;
        let (status, body) = http(addr, "POST", "/campaigns", submission);
        assert_eq!(status, 201, "{body}");
        assert!(body.contains("\"fingerprint\""), "{body}");
        let (status, _) = http(addr, "POST", "/campaigns", submission);
        assert_eq!(status, 200);
        let conflicting =
            r#"{"id":"c1","circuit":"counter:6","cycles":160,"seed":8,"policy":"fixed:64"}"#;
        let (status, body) = http(addr, "POST", "/campaigns", conflicting);
        assert_eq!(status, 409, "{body}");
        let (status, body) = http(addr, "POST", "/campaigns", r#"{"id":"bad"#);
        assert_eq!(status, 400, "{body}");
        // Parameters that cannot form a campaign are the client's fault
        // too; a campaign directory the server cannot create (its path is
        // taken by a regular file) is the server's.
        let short = r#"{"id":"short","circuit":"counter:6","cycles":2}"#;
        let (status, body) = http(addr, "POST", "/campaigns", short);
        assert_eq!(status, 400, "{body}");
        std::fs::write(root.join("blocked"), "not a directory").unwrap();
        let blocked = r#"{"id":"blocked","circuit":"counter:6","cycles":160}"#;
        let (status, body) = http(addr, "POST", "/campaigns", blocked);
        assert_eq!(status, 500, "{body}");

        // The listing and summary see the submitted campaign.
        let (status, body) = http(addr, "GET", "/campaigns", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"c1\""), "{body}");
        let (status, body) = http(addr, "GET", "/campaigns/c1", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"complete\": false"), "{body}");
        let (status, _) = http(addr, "GET", "/campaigns/nope", "");
        assert_eq!(status, 404);

        // Status before any worker: manifest facts, no progress yet.
        let (status, body) = http(addr, "GET", "/campaigns/c1/status", "");
        assert_eq!(status, 200, "{body}");
        let report = serde_json::parse_value_complete(&body).expect("valid JSON");
        assert_eq!(
            report.get("schema_version"),
            Some(&Value::U64(crate::status::STATUS_SCHEMA_VERSION))
        );

        // A worker attaches to the prepared session directory — no
        // bootstrap flags needed — and drains it.
        let summary = crate::session::worker(
            &root.join("c1"),
            &WorkerRequest::new("w1"),
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        assert!(summary.table_path.is_some());

        // Status now reports completion; the summary flips to complete.
        let (status, body) = http(addr, "GET", "/campaigns/c1/status", "");
        assert_eq!(status, 200);
        let report = serde_json::parse_value_complete(&body).expect("valid JSON");
        let progress = report.get("progress").expect("progress present");
        assert_eq!(progress.get("complete"), Some(&Value::Bool(true)), "{body}");
        let (status, body) = http(addr, "GET", "/campaigns/c1", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"complete\": true"), "{body}");

        // Unknown endpoints and methods are refused, not crashed on.
        let (status, _) = http(addr, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = http(addr, "DELETE", "/campaigns/c1", "");
        assert_eq!(status, 405);

        handle.shutdown();
    }
}
