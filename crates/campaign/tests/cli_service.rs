//! Process-level end-to-end test of the `ffrd` campaign service: a real
//! `ffrd` server process, campaigns submitted over real HTTP, drained by
//! real `ffr worker` processes — one of which is SIGKILLed mid-lease —
//! with the final table required byte-identical to a single-process
//! `ffr run`. Also covers multi-tenancy (two campaigns behind one
//! server), the on-demand estimate endpoint, and the cost-aware
//! dispatcher's `est_cost` telemetry.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FFR: &str = env!("CARGO_BIN_EXE_ffr");
const FFRD: &str = env!("CARGO_BIN_EXE_ffrd");

/// One blocking HTTP request against the service; panics on transport
/// errors (the server is a child process we just health-checked).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ffrd");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
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

fn ffr(args: &[&str]) -> std::process::Output {
    Command::new(FFR)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn ffr")
}

/// A worker attached to a service-prepared session: no bootstrap flags,
/// the manifest is already on disk.
fn spawn_worker(campaign: &Path, id: &str) -> Child {
    Command::new(FFR)
        .args([
            "worker",
            "--campaign",
            &campaign.to_string_lossy(),
            "--worker-id",
            id,
            "--lease-points",
            "8",
            "--lease-ttl-secs",
            "2",
            "--poll-ms",
            "50",
            "--threads",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ffr worker")
}

/// Wait until a lease owned by `worker` exists under the campaign dir.
fn wait_for_lease(leases_dir: &Path, worker: &str, deadline: Duration) -> bool {
    let needle = format!("\"worker\": \"{worker}\"");
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if let Ok(entries) = std::fs::read_dir(leases_dir) {
            for entry in entries.flatten() {
                if std::fs::read_to_string(entry.path())
                    .map(|text| text.contains(&needle))
                    .unwrap_or(false)
                {
                    return true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn ffrd_submit_drain_sigkill_estimate_end_to_end() {
    let base = std::env::temp_dir().join(format!("ffr_service_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let root = base.join("root");
    std::fs::create_dir_all(&root).unwrap();

    // Start the service on an ephemeral port; the bound address appears
    // in <root>/ffrd.addr.
    let mut server = Command::new(FFRD)
        .args([
            "--root",
            &root.to_string_lossy(),
            "--listen",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ffrd");
    let addr_file = root.join("ffrd.addr");
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            Instant::now() < deadline,
            "ffrd never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let (status, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    // --- Campaign 1: distributed drain with a SIGKILL mid-lease -------
    // Parameters match the single-process reference below; sized so a
    // debug-build drain is long enough to kill a worker mid-lease.
    let (status, body) = http(
        &addr,
        "POST",
        "/campaigns",
        r#"{"id":"lfsr","circuit":"lfsr:16:8","cycles":2000,"policy":"fixed:192","seed":99}"#,
    );
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"fingerprint\""), "{body}");

    // Single-process reference table for byte-identity.
    let ref_out = base.join("reference");
    let output = ffr(&[
        "run",
        "--out",
        &ref_out.to_string_lossy(),
        "--circuit",
        "lfsr:16:8",
        "--cycles",
        "2000",
        "--injections",
        "192",
        "--seed",
        "99",
        "--threads",
        "1",
    ]);
    assert!(
        output.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let reference = std::fs::read(ref_out.join("fdr.json")).unwrap();

    // Two workers drain the service-prepared session; the victim dies
    // mid-lease and its range is reclaimed by observed lease age.
    let campaign_dir = root.join("lfsr");
    let mut victim = spawn_worker(&campaign_dir, "victim");
    let mut survivor = spawn_worker(&campaign_dir, "survivor");
    let got_lease = wait_for_lease(
        &campaign_dir.join("leases"),
        "victim",
        Duration::from_secs(120),
    );
    let killed_mid_lease = got_lease && victim.try_wait().expect("try_wait").is_none();
    if killed_mid_lease {
        victim.kill().expect("SIGKILL victim worker");
    }
    let _ = victim.wait();
    eprintln!("killed_mid_lease = {killed_mid_lease}");

    // Live status while the survivor drains: always 200, always the
    // versioned schema, rates never NaN (the body must stay parseable).
    let (status, body) = http(&addr, "GET", "/campaigns/lfsr/status", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"schema_version\": 2"), "{body}");
    assert!(!body.contains("inf") && !body.contains("NaN"), "{body}");

    let status_code = survivor.wait().expect("survivor exits");
    assert!(
        status_code.success(),
        "surviving worker must drain the whole campaign"
    );

    // Byte-identity: the service-hosted, SIGKILL-scarred, two-worker
    // campaign produced exactly the single-process table.
    let drained = std::fs::read(campaign_dir.join("fdr.json")).expect("drained table");
    assert_eq!(
        reference, drained,
        "service-hosted campaign must be byte-identical to ffr run"
    );

    // The status endpoint now reports completion.
    let (status, body) = http(&addr, "GET", "/campaigns/lfsr/status", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"complete\": true"), "{body}");

    // Cost-aware dispatch is observable: every lease claim logged its
    // estimated remaining cost.
    let mut telemetry = String::new();
    for entry in std::fs::read_dir(campaign_dir.join("telemetry")).expect("telemetry dir") {
        telemetry.push_str(&std::fs::read_to_string(entry.unwrap().path()).unwrap_or_default());
    }
    assert!(
        telemetry.contains("\"est_cost\""),
        "lease claims must carry the dispatcher's cost estimate"
    );

    // --- Campaign 2: multi-tenancy + the estimate endpoint ------------
    // The small MAC is the circuit with a varied FDR population (see
    // tests/cli_estimate.rs); a 40 % budget leaves flip-flops for the
    // models to predict.
    let (status, body) = http(
        &addr,
        "POST",
        "/campaigns",
        r#"{"id":"mac","circuit":"mac-small","policy":"fixed:24","seed":7,"budget":0.4}"#,
    );
    assert_eq!(status, 201, "{body}");
    // Estimate before any work: refused as not-ready, not crashed.
    let (status, body) = http(&addr, "GET", "/campaigns/mac/estimate", "");
    assert_eq!(status, 409, "{body}");

    let mut worker = spawn_worker(&root.join("mac"), "w-mac");
    assert!(worker.wait().expect("mac worker exits").success());

    // Estimate options sized for a debug-build test run, as in
    // tests/cli_estimate.rs; the report is computed once and cached.
    let estimate_path = "/campaigns/mac/estimate?models=linear,forest&grid=1&folds=4";
    let (status, body) = http(&addr, "GET", estimate_path, "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"circuit_ffr\""), "{body}");
    assert!(body.contains("\"best_model\""), "{body}");
    let first = body;
    // Served from estimate.json on the second request — identical bytes.
    let (status, body) = http(&addr, "GET", estimate_path, "");
    assert_eq!(status, 200);
    assert_eq!(first, body, "cached estimate must be byte-identical");
    // The query is validated on every request: once `estimate.json`
    // exists a typo is still a 400, not a 200 carrying the cached report.
    for bad in ["modls=linear", "folds=1", "grid=0", "models="] {
        let (status, body) = http(&addr, "GET", &format!("/campaigns/mac/estimate?{bad}"), "");
        assert_eq!(status, 400, "?{bad}: {body}");
    }

    // Both campaigns are visible behind the one server.
    let (status, body) = http(&addr, "GET", "/campaigns", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"lfsr\"") && body.contains("\"mac\""),
        "{body}"
    );

    server.kill().expect("stop ffrd");
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&base);
}
