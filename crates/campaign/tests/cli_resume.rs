//! Process-level checkpoint/resume determinism: run the real `ffr`
//! binary, SIGKILL it mid-campaign, resume, and require the final FDR
//! table to be byte-identical to an uninterrupted run with the same seed.
//! Also exercises the artifact-store fast path: a rerun with identical
//! inputs must be served from the cache.

use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const FFR: &str = env!("CARGO_BIN_EXE_ffr");
const SIGKILL: i32 = 9;

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ffr(args: &[&str]) -> std::process::Output {
    Command::new(FFR)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn ffr")
}

/// Campaign arguments sized so a debug-build run takes long enough to be
/// killed mid-flight, but finishes in seconds once resumed.
fn campaign_args(out: &str, store: &str) -> Vec<String> {
    [
        "run",
        "--circuit",
        "lfsr:16:8",
        "--out",
        out,
        "--store",
        store,
        "--cycles",
        "2500",
        "--injections",
        "256",
        "--threads",
        "1",
        "--seed",
        "99",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Like [`campaign_args`] but for a SET campaign on a smaller probe
/// circuit (SET targets every combinational net, so the point count is
/// much larger per flip-flop of design).
fn set_campaign_args(out: &str) -> Vec<String> {
    [
        "run",
        "--circuit",
        "lfsr:8:4",
        "--fault",
        "set",
        "--out",
        out,
        "--cycles",
        "1200",
        "--injections",
        "128",
        "--threads",
        "1",
        "--seed",
        "99",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// `true` once a shard file (`shards/shard-*.json`) exists under `out`.
fn has_shard(out: &Path) -> bool {
    std::fs::read_dir(out.join("shards")).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("shard-") && name.ends_with(".json")
        })
    })
}

/// `true` once `checkpoint.json` under `out` holds the complete
/// compaction a run writes just before its final table.
fn published(out: &Path) -> bool {
    std::fs::read_to_string(out.join("checkpoint.json"))
        .is_ok_and(|text| !text.contains("\"complete\": false"))
}

/// Spawn the given `ffr run` invocation, SIGKILL it as soon as its first
/// shard (persisted progress) lands on disk, and wait for it. Returns
/// whether the process died of the signal. A short run can finish
/// between the poll and the signal, so the exit status decides, not
/// whether a signal was sent; a run killed that late may also have
/// published (see [`published`]).
fn kill_when_checkpointed(args: &[String], out: &Path) -> bool {
    let mut child = Command::new(FFR)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ffr run");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if has_shard(out) {
            // Progress is on disk — kill the process hard, mid-campaign.
            let _ = child.kill();
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            break; // finished before we could kill it
        }
        assert!(Instant::now() < deadline, "ffr run persisted no shard");
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = child.wait().expect("wait for ffr run");
    status.signal() == Some(SIGKILL)
}

#[test]
fn sigkill_mid_campaign_resumes_byte_identical() {
    let base = std::env::temp_dir().join(format!("ffr_sigkill_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let store = base.join("store");
    let store_s = store.to_string_lossy().into_owned();

    // Uninterrupted reference run (its own store so the later cache-hit
    // assertion is meaningful).
    let ref_out = fresh_dir(&base, "reference");
    let ref_store = fresh_dir(&base, "reference-store");
    let output = ffr(
        &campaign_args(&ref_out.to_string_lossy(), &ref_store.to_string_lossy())
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(
        output.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let reference = std::fs::read(ref_out.join("fdr.json")).unwrap();

    // Victim run: SIGKILL as soon as the first shard lands on disk.
    let out = fresh_dir(&base, "victim");
    let out_s = out.to_string_lossy().into_owned();
    let args = campaign_args(&out_s, &store_s);
    let killed = kill_when_checkpointed(&args, &out);

    if killed {
        assert!(
            published(&out) || !out.join("fdr.json").exists(),
            "a run killed before its publish must not have produced a final table"
        );
        // Resume (possibly more than once if the kill landed before any
        // retirement made it to disk).
        for _ in 0..3 {
            let output = ffr(&["resume", "--out", &out_s]);
            if output.status.success() {
                break;
            }
        }
    }
    let resumed = std::fs::read(out.join("fdr.json")).expect("resumed table exists");
    assert_eq!(
        reference, resumed,
        "resumed campaign must be byte-identical to the uninterrupted run"
    );

    // Rerun with identical inputs: the victim's store now holds golden run
    // and table; the run must be cache-served (no re-simulation) and
    // byte-identical again.
    let out2 = fresh_dir(&base, "cached");
    let out2_s = out2.to_string_lossy().into_owned();
    let args = campaign_args(&out2_s, &store_s);
    let output = ffr(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("artifact cache"),
        "expected a cache-served run, got: {stdout}"
    );
    let cached = std::fs::read(out2.join("fdr.json")).unwrap();
    assert_eq!(reference, cached);

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sigkill_mid_set_campaign_resumes_byte_identical() {
    let base = std::env::temp_dir().join(format!("ffr_set_sigkill_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // Uninterrupted reference SET campaign.
    let ref_out = fresh_dir(&base, "reference");
    let output = ffr(&set_campaign_args(&ref_out.to_string_lossy())
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>());
    assert!(
        output.status.success(),
        "reference SET run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let reference = std::fs::read(ref_out.join("set-derating.json")).unwrap();
    let reference_csv = std::fs::read(ref_out.join("set-derating.csv")).unwrap();

    // Victim run: SIGKILL as soon as the first shard lands on disk.
    let out = fresh_dir(&base, "victim");
    let out_s = out.to_string_lossy().into_owned();
    let args = set_campaign_args(&out_s);
    let killed = kill_when_checkpointed(&args, &out);

    if killed {
        assert!(
            published(&out) || !out.join("set-derating.json").exists(),
            "a run killed before its publish must not have produced a final table"
        );
        // Resume (possibly more than once if the kill landed before any
        // retirement made it to disk).
        for _ in 0..3 {
            let output = ffr(&["resume", "--out", &out_s]);
            if output.status.success() {
                break;
            }
        }
    }
    let resumed = std::fs::read(out.join("set-derating.json")).expect("resumed table exists");
    assert_eq!(
        reference, resumed,
        "resumed SET campaign must be byte-identical to the uninterrupted run"
    );
    let resumed_csv = std::fs::read(out.join("set-derating.csv")).unwrap();
    assert_eq!(
        reference_csv, resumed_csv,
        "CSV rendering is also identical"
    );

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn status_and_report_on_finished_campaign() {
    let base = std::env::temp_dir().join(format!("ffr_report_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let out = base.join("session");
    let out_s = out.to_string_lossy().into_owned();
    let output = ffr(&[
        "run",
        "--circuit",
        "counter:6",
        "--out",
        &out_s,
        "--cycles",
        "160",
        "--injections",
        "64",
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let status = ffr(&["status", "--out", &out_s]);
    assert!(status.status.success());
    let text = String::from_utf8_lossy(&status.stdout);
    assert!(text.contains("complete"), "{text}");

    // A reader that closes the pipe before `ffr status` writes (as
    // `ffr status | grep -q …` does) ends it quietly, text and JSON alike.
    for extra in [None, Some("--json")] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let closed = Command::new(FFR)
            .args(["status", "--out", &out_s].into_iter().chain(extra))
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn ffr");
        let stderr = String::from_utf8_lossy(&closed.stderr);
        assert_eq!(closed.status.code(), Some(0), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }

    let report = ffr(&["report", "--out", &out_s]);
    assert!(report.status.success());
    let text = String::from_utf8_lossy(&report.stdout);
    assert!(text.contains("circuit-level FDR"), "{text}");
    assert!(text.contains("FDR histogram"), "{text}");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn adaptive_cli_campaign_completes_and_saves_injections() {
    let base = std::env::temp_dir().join(format!("ffr_adaptive_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let fixed_out = base.join("fixed");
    let adaptive_out = base.join("adaptive");
    for (out, extra) in [
        (&fixed_out, vec!["--injections", "256"]),
        (&adaptive_out, vec!["--policy", "wilson:0.06@95:64..256"]),
    ] {
        let out_s = out.to_string_lossy().into_owned();
        let mut args = vec![
            "run",
            "--circuit",
            "traffic",
            "--out",
            &out_s,
            "--cycles",
            "400",
        ];
        args.extend(extra);
        let output = ffr(&args);
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    // Both campaigns completed; the adaptive one spent fewer injections.
    let count_injections = |dir: &Path| -> usize {
        let text = std::fs::read_to_string(dir.join("fdr.csv")).unwrap();
        text.lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse::<usize>().unwrap())
            .sum()
    };
    let fixed = count_injections(&fixed_out);
    let adaptive = count_injections(&adaptive_out);
    assert!(
        adaptive < fixed,
        "adaptive sampling should spend fewer injections ({adaptive} vs {fixed})"
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// `ffr run --policy …` arguments for a Wilson-CI campaign sized so a
/// debug-build run survives long enough to be SIGKILLed mid-flight.
fn policy_campaign_args(out: &str) -> Vec<String> {
    [
        "run",
        "--circuit",
        "lfsr:16:8",
        "--out",
        out,
        "--policy",
        "wilson:0.02@99:64..256",
        "--cycles",
        "2500",
        "--threads",
        "1",
        "--seed",
        "99",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn sigkill_mid_policy_campaign_resumes_byte_identical() {
    let base = std::env::temp_dir().join(format!("ffr_policy_sigkill_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // Uninterrupted reference run under the non-default policy.
    let ref_out = fresh_dir(&base, "reference");
    let output = ffr(&policy_campaign_args(&ref_out.to_string_lossy())
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>());
    assert!(
        output.status.success(),
        "reference policy run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let reference = std::fs::read(ref_out.join("fdr.json")).unwrap();

    // The canonical policy spec round-trips through the manifest and
    // shows up verbatim in `ffr status`.
    let manifest = std::fs::read_to_string(ref_out.join("campaign.json")).unwrap();
    assert!(manifest.contains("\"ci_half_width\": 0.02"), "{manifest}");
    let status = ffr(&["status", "--out", &ref_out.to_string_lossy()]);
    let text = String::from_utf8_lossy(&status.stdout);
    assert!(text.contains("wilson:0.02@99:64..256"), "{text}");

    // Victim run: SIGKILL as soon as the first shard lands, then
    // resume to completion.
    let out = fresh_dir(&base, "victim");
    let out_s = out.to_string_lossy().into_owned();
    let args = policy_campaign_args(&out_s);
    let killed = kill_when_checkpointed(&args, &out);
    if killed {
        assert!(published(&out) || !out.join("fdr.json").exists());
        for _ in 0..3 {
            let output = ffr(&["resume", "--out", &out_s]);
            if output.status.success() {
                break;
            }
        }
    }
    let resumed = std::fs::read(out.join("fdr.json")).expect("resumed table exists");
    assert_eq!(
        reference, resumed,
        "SIGKILLed adaptive-policy campaign must resume byte-identically"
    );

    // A different policy on the same directory is a different campaign.
    let mut other = policy_campaign_args(&out_s);
    other[6] = "wilson:0.05@95:64..256".to_string();
    let output = ffr(&other.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("different campaign"), "{err}");

    let _ = std::fs::remove_dir_all(&base);
}
