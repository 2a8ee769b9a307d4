//! The committed performance trajectory: `BENCH_sim.json` and
//! `BENCH_campaign.json` at the repository root.
//!
//! The vendored criterion stub prints human-readable timings only, so
//! this binary times the two load-bearing workloads itself and snapshots
//! the medians:
//!
//! * **`BENCH_sim.json`** — gate-level simulator throughput on the small
//!   MAC (dense whole-circuit `eval`, and the fault engine on its
//!   worst-case cone, in million compiled ops per second) — the substrate
//!   cost under every fault-injection number;
//! * **`BENCH_campaign.json`** — end-to-end `mac-small` campaign
//!   injection throughput, read back from the campaign's **telemetry
//!   logs** (the same `injections / phase.measure` arithmetic as
//!   `ffr stats`), so the committed number and the live `ffr stats`
//!   report can never use different definitions.
//!
//! ```text
//! cargo run --release -p ffr-bench --bin bench_snapshot             # refresh
//! cargo run --release -p ffr-bench --bin bench_snapshot -- --check  # CI gate
//! ```
//!
//! `--check` recomputes the metrics and fails only on a **slowdown**
//! beyond the tolerance (default 15 %; override with
//! `FFR_BENCH_TOLERANCE=0.30`). Speedups never fail the gate — refresh
//! the snapshots when one is worth committing. `FFR_BENCH_SAMPLES` sets
//! the sample count (default 5; the median is snapshotted).

use ffr_campaign::{
    session, AdaptivePolicy, CampaignStats, CancelToken, RunRequest, RunnerOptions,
};
use ffr_circuits::{Mac10ge, Mac10geConfig, MacTestbench, TrafficConfig};
use ffr_netlist::FfId;
use ffr_sim::{CompiledCircuit, FaultEngine, NetJournal, SimState, Stimulus};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Snapshot schema version (bumped on incompatible shape changes).
/// v2: added `cone_eval_mops_per_sec` to `BENCH_sim.json`.
/// v3: added `frontier_eval_mops_per_sec` to `BENCH_sim.json`; `--check`
/// now also rejects schema drift and stale committed metrics.
/// v4: `frontier_eval_mops_per_sec` is measured through `FaultEngine`
/// (Dense adoption included); `forced_eval_mops_per_sec` and
/// `cone_eval_mops_per_sec` are gone with their public entry points.
const SCHEMA_VERSION: u64 = 4;

/// Default slowdown tolerance of `--check` (fraction of the committed
/// value).
const DEFAULT_TOLERANCE: f64 = 0.15;

fn repo_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn samples() -> usize {
    std::env::var("FFR_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(5)
}

fn tolerance() -> f64 {
    std::env::var("FFR_BENCH_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|t: &f64| t.is_finite() && *t > 0.0)
        .unwrap_or(DEFAULT_TOLERANCE)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite medians"));
    values[values.len() / 2]
}

/// Median over `samples()` timed runs of `workload`, with one discarded
/// warmup (mirroring the vendored criterion harness).
fn measure(mut workload: impl FnMut() -> f64) -> f64 {
    let n = samples();
    let mut values = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        values.push(workload());
    }
    values.remove(0);
    median(values)
}

/// Simulator throughput metrics on the small MAC (million compiled ops
/// per second), matching the `sim_throughput` / `engine_eval` benches.
fn sim_metrics() -> Vec<(String, f64)> {
    let mac = Mac10ge::build(Mac10geConfig::small());
    let cc = CompiledCircuit::compile(mac.into_netlist()).expect("small MAC compiles");
    let cycles: u64 = 10_000;
    let ops = cc.num_ops() as f64 * cycles as f64;

    let plain = measure(|| {
        let mut state = SimState::new(&cc);
        let t0 = Instant::now();
        for _ in 0..cycles {
            state.eval(&cc);
            state.tick(&cc);
        }
        std::hint::black_box(state.cycle());
        ops / t0.elapsed().as_secs_f64() / 1e6
    });

    // The fault engine on the largest SEU cone — the worst case a
    // campaign ever evaluates — over the real mac-small testbench journal
    // with a real all-lanes SEU injection (matching the `engine_eval`
    // bench). Throughput is counted in cone-op *equivalents* — every cone
    // op in every cycle of the window — so the number is comparable to
    // `sim_eval_mops_per_sec` per op a whole-cone sweep would execute:
    // the ratio is what evaluating only live divergence buys.
    let (tcc, tb, _watch, _extractor) =
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    let netj = NetJournal::capture(&tcc, &tb);
    let largest = (0..tcc.num_ffs())
        .max_by_key(|&i| tcc.ff_cone(FfId::from_index(i)).num_ops())
        .expect("MAC has flip-flops");
    let cone = tcc.ff_cone(FfId::from_index(largest));
    let t0 = tb.injection_window().start;
    let end = tb.num_cycles();
    let equiv_ops = cone.num_ops() as f64 * (end - t0) as f64;
    let frontier_eval = measure(|| {
        let mut engine = FaultEngine::new(&tcc);
        engine.attach(&cone, t0);
        let timer = Instant::now();
        for cycle in t0..end {
            engine.eval(&cone, netj.row(cycle), if cycle == t0 { !0 } else { 0 });
            let next = cycle + 1;
            engine.tick(&cone, (next < end).then(|| netj.row(next)));
        }
        std::hint::black_box(engine.ops_evaluated());
        equiv_ops / timer.elapsed().as_secs_f64() / 1e6
    });

    vec![
        ("sim_eval_mops_per_sec".to_string(), plain),
        ("frontier_eval_mops_per_sec".to_string(), frontier_eval),
    ]
}

/// End-to-end `mac-small` campaign throughput (injections per
/// worker-second), read back from the run's telemetry logs.
fn campaign_metrics() -> Result<Vec<(String, f64)>, String> {
    let out = std::env::temp_dir().join(format!("ffr_bench_snapshot_{}", std::process::id()));
    let mut rates = Vec::new();
    for round in 0..=samples() {
        let dir = out.join(format!("round{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut request = RunRequest::new("mac-small".parse()?);
        request.policy = AdaptivePolicy::fixed(24);
        session::run(
            &request,
            &dir,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .map_err(|e| e.to_string())?;
        let stats = CampaignStats::from_session(&dir).map_err(|e| e.to_string())?;
        rates.push(
            stats
                .injections_per_sec()
                .ok_or("campaign produced no telemetry (is FFR_TELEMETRY=0 set?)")?,
        );
    }
    let _ = std::fs::remove_dir_all(&out);
    rates.remove(0);
    Ok(vec![(
        "mac_small_injections_per_sec".to_string(),
        median(rates),
    )])
}

fn render_snapshot(metrics: &[(String, f64)]) -> String {
    struct Raw(Value);
    impl Serialize for Raw {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    let doc = Value::Object(vec![
        ("schema_version".to_string(), Value::U64(SCHEMA_VERSION)),
        (
            "metrics".to_string(),
            Value::Object(
                metrics
                    .iter()
                    .map(|(name, v)| (name.clone(), Value::F64((v * 10.0).round() / 10.0)))
                    .collect(),
            ),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&Raw(doc)).expect("snapshot serializes");
    text.push('\n');
    text
}

fn committed_metric(file: &str, doc: &Value, name: &str) -> Result<f64, String> {
    match doc.get("metrics").and_then(|m| m.get(name)) {
        Some(Value::F64(v)) => Ok(*v),
        Some(Value::U64(v)) => Ok(*v as f64),
        _ => Err(format!(
            "{file} has no metric `{name}` — regenerate with \
             `cargo run --release -p ffr-bench --bin bench_snapshot`"
        )),
    }
}

/// Compare fresh metrics against a committed snapshot; returns the number
/// of metrics that regressed beyond the tolerance.
///
/// Besides per-metric slowdowns, the check fails loudly on any *shape*
/// drift between the binary and the committed file: a schema_version
/// mismatch, a fresh metric the committed file lacks (a newly added
/// metric must be committed, not silently skipped) and a committed
/// metric the binary no longer emits (a stale snapshot gates nothing).
fn check_file(file: &str, metrics: &[(String, f64)]) -> Result<usize, String> {
    let path = repo_path(file);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "--check: cannot read {} ({e}); generate it first with \
             `cargo run --release -p ffr-bench --bin bench_snapshot`",
            path.display()
        )
    })?;
    let doc = serde_json::parse_value_complete(&text).map_err(|e| format!("{file}: {e}"))?;
    match doc.get("schema_version") {
        Some(Value::U64(v)) if *v == SCHEMA_VERSION => {}
        other => {
            return Err(format!(
                "{file} has schema_version {other:?}, this binary expects {SCHEMA_VERSION} — \
                 regenerate with `cargo run --release -p ffr-bench --bin bench_snapshot`"
            ))
        }
    }
    if let Some(Value::Object(committed)) = doc.get("metrics") {
        for (name, _) in committed {
            if !metrics.iter().any(|(fresh, _)| fresh == name) {
                return Err(format!(
                    "{file} carries stale metric `{name}` this binary no longer measures — \
                     regenerate with `cargo run --release -p ffr-bench --bin bench_snapshot`"
                ));
            }
        }
    }
    let tol = tolerance();
    let mut regressions = 0;
    for (name, current) in metrics {
        let committed = committed_metric(file, &doc, name)?;
        let floor = committed * (1.0 - tol);
        let verdict = if *current < floor {
            regressions += 1;
            "REGRESSED"
        } else if *current > committed * (1.0 + tol) {
            "faster (consider refreshing the snapshot)"
        } else {
            "ok"
        };
        println!(
            "{file}: {name} = {current:.1} vs committed {committed:.1} \
             (floor {floor:.1}, -{:.0} %): {verdict}",
            tol * 100.0
        );
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    if let Some(unknown) = args.iter().find(|a| a.as_str() != "--check") {
        eprintln!("unknown option `{unknown}` (supported: --check)");
        return ExitCode::from(64);
    }

    let sim = sim_metrics();
    let campaign = match campaign_metrics() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("campaign snapshot failed: {e}");
            return ExitCode::from(1);
        }
    };

    if check {
        let mut regressions = 0;
        for (file, metrics) in [("BENCH_sim.json", &sim), ("BENCH_campaign.json", &campaign)] {
            match check_file(file, metrics) {
                Ok(n) => regressions += n,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(1);
                }
            }
        }
        if regressions > 0 {
            eprintln!(
                "{regressions} metric(s) regressed beyond the {:.0} % tolerance; \
                 investigate, or refresh with \
                 `cargo run --release -p ffr-bench --bin bench_snapshot` \
                 if the slowdown is intended",
                tolerance() * 100.0
            );
            return ExitCode::from(1);
        }
        println!("perf snapshots are within tolerance");
        return ExitCode::SUCCESS;
    }

    for (file, metrics) in [("BENCH_sim.json", &sim), ("BENCH_campaign.json", &campaign)] {
        let path = repo_path(file);
        if let Err(e) = std::fs::write(&path, render_snapshot(metrics)) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        for (name, v) in metrics.iter() {
            println!("{file}: {name} = {v:.1}");
        }
    }
    println!("perf snapshots refreshed (commit BENCH_sim.json / BENCH_campaign.json)");
    ExitCode::SUCCESS
}
