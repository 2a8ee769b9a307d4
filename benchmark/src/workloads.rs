//! The seven workloads: argument generation from the seed, set-up, the
//! timed command sequence, and the output checks.
//!
//! Everything is driven through the program's real entry points —
//! `ffr_campaign::cli::main_with_args` with argument strings (the exact
//! code the `ffr` binary runs) and `service::serve` for `ffrd`. The
//! program sees only the generated arguments.

use crate::http;
use ffr_campaign::service::{serve, ServiceConfig, ServiceHandle};
use ffr_campaign::{gather_status, EstimateReport, SessionPaths, TransferReport};
use ffr_fault::{FaultKind, FdrTable, SetDeratingTable};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operation accounting: every CLI invocation, HTTP request and output
/// check is one attempted operation.
#[derive(Default, Debug)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Ops {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 32 {
            self.notes.push(note);
        }
    }

    /// Run one `ffr` command in-process; a non-zero exit is a failed
    /// operation. `--quiet` keeps the progress line off stderr.
    pub fn ffr(&mut self, args: &[String]) -> bool {
        self.attempted += 1;
        let mut argv = args.to_vec();
        argv.push("--quiet".to_string());
        let code = ffr_campaign::cli::main_with_args(&argv);
        if code != 0 {
            self.fail(format!("`ffr {}` exited with {code}", args.join(" ")));
        }
        code == 0
    }

    /// One output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// One HTTP request; anything but 2xx is a failed operation.
    pub fn http(
        &mut self,
        addr: std::net::SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Option<String> {
        self.attempted += 1;
        match http::request(addr, method, path, body) {
            Ok((status, text)) if (200..300).contains(&status) => Some(text),
            Ok((status, text)) => {
                self.fail(format!(
                    "{method} {path} answered {status}: {}",
                    text.trim()
                ));
                None
            }
            Err(e) => {
                self.fail(format!("{method} {path} failed: {e}"));
                None
            }
        }
    }
}

/// What the timed sequence of a workload is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `ffr run` on a cold store.
    Flat,
    /// Budgeted `ffr run` then `ffr estimate`.
    Estimate,
    /// `ffr transfer` over campaigns measured in set-up.
    Transfer,
    /// `ffrd` + one `ffr worker`, driven over HTTP.
    Fleet,
    /// Cache-served `run` + `estimate` + `status` + `report` iterations.
    Warm,
}

/// Circuit, campaign flags and model flags of one workload at one scale.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Circuit spec (`--circuit`, or `--eval` for the transfer workload).
    pub circuit: &'static str,
    /// Campaign flags shared by every command that fingerprints the
    /// campaign (`--cycles`, `--fault`, `--injections`, `--budget`).
    pub campaign: &'static [&'static str],
    /// `ffr estimate` / `ffr transfer` model-selection flags.
    pub model: &'static [&'static str],
    /// Training circuits (transfer only).
    pub train: &'static [&'static str],
    /// Iterations per repetition (warm only).
    pub iterations: usize,
}

impl Params {
    /// What most workloads share: the CLI's default campaign
    /// (`fixed:170`) and models, no training circuits, one iteration.
    const BASE: Params = Params {
        circuit: "",
        campaign: &[],
        model: &[],
        train: &[],
        iterations: 1,
    };

    /// Value of `--name value` in a flag list.
    pub fn flag<'a>(flags: &[&'a str], name: &str) -> Option<&'a str> {
        flags
            .iter()
            .position(|f| *f == name)
            .and_then(|i| flags.get(i + 1).copied())
    }

    /// `--cycles` of the campaign flags (CLI default 400).
    pub fn cycles(&self) -> u64 {
        Params::flag(self.campaign, "--cycles")
            .and_then(|c| c.parse().ok())
            .unwrap_or(400)
    }

    /// Injections per point: `--injections` of the campaign flags (CLI
    /// default `fixed:170`).
    pub fn injections(&self) -> u64 {
        Params::flag(self.campaign, "--injections")
            .and_then(|n| n.parse().ok())
            .unwrap_or(170)
    }

    /// Fault model of the campaign flags.
    pub fn fault(&self) -> FaultKind {
        match Params::flag(self.campaign, "--fault") {
            Some("set") => FaultKind::Set,
            _ => FaultKind::Seu,
        }
    }
}

/// One workload: what it runs and why it is in the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    /// Shape of the timed sequence.
    pub kind: Kind,
    /// The measured sizes.
    pub full: Params,
    /// `--quick` sizes, also run once per set-up pass as the warm-up.
    pub quick: Params,
}

const QUICK_MODELS: &[&str] = &["--models", "linear,knn", "--grid", "1"];

/// Every workload, in the order they run.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mac-flat",
        why: "the paper's reference campaign (MAC, 1054 FFs, fixed:170): batch simulation and the packet-level judge both matter",
        kind: Kind::Flat,
        full: Params {
            circuit: "mac",
            ..Params::BASE
        },
        quick: Params {
            circuit: "mac-small",
            campaign: &["--injections", "16"],
            ..Params::BASE
        },
    },
    Workload {
        name: "regfile-flat",
        why: "same FF count, ~30x fewer gate evaluations: judging dominates, so a faster simulation kernel must show no change here",
        kind: Kind::Flat,
        full: Params {
            circuit: "corpus:regfile5x32",
            campaign: &["--cycles", "400"],
            ..Params::BASE
        },
        quick: Params {
            circuit: "corpus:regfile4x16",
            campaign: &["--cycles", "200", "--injections", "32"],
            ..Params::BASE
        },
    },
    Workload {
        name: "mac-small-set",
        why: "forced-net SET path, one batch per point over 3073 nets: where a kernel or cone-build gain shows and an SEU-only shortcut hurts",
        kind: Kind::Flat,
        full: Params {
            circuit: "mac-small",
            campaign: &["--fault", "set", "--injections", "64"],
            ..Params::BASE
        },
        quick: Params {
            circuit: "corpus:alu32",
            campaign: &["--fault", "set", "--cycles", "200", "--injections", "32"],
            ..Params::BASE
        },
    },
    Workload {
        name: "mac-estimate",
        why: "the paper's method (budget 0.2 then estimate): dominated by model selection and fitting, simulation does little",
        kind: Kind::Estimate,
        full: Params {
            circuit: "mac",
            campaign: &["--budget", "0.2"],
            ..Params::BASE
        },
        quick: Params {
            circuit: "mac-small",
            campaign: &["--budget", "0.2", "--injections", "32"],
            model: QUICK_MODELS,
            ..Params::BASE
        },
    },
    Workload {
        name: "corpus-transfer",
        why: "ML layer used differently: stacked multi-circuit matrix, feature alignment, leave-one-circuit-out selection, zero injections",
        kind: Kind::Transfer,
        full: Params {
            circuit: "corpus:fifo3x32",
            campaign: &["--cycles", "400"],
            train: &["corpus:regfile4x16", "corpus:fifo4x16", "corpus:alu32"],
            ..Params::BASE
        },
        quick: Params {
            circuit: "corpus:fifo2x8",
            campaign: &["--cycles", "200", "--injections", "32"],
            model: QUICK_MODELS,
            train: &["corpus:regfile3x8", "corpus:alu8"],
            ..Params::BASE
        },
    },
    Workload {
        name: "mac-small-fleet",
        why: "orchestration path (ffrd, lease queue, shard flush, merge, HTTP) that the cursor-driven flat workloads bypass",
        kind: Kind::Fleet,
        full: Params {
            circuit: "mac-small",
            ..Params::BASE
        },
        quick: Params {
            circuit: "corpus:fifo3x8",
            campaign: &["--cycles", "200", "--injections", "32"],
            ..Params::BASE
        },
    },
    Workload {
        name: "mac-small-warm",
        why: "read side of store and codec plus per-invocation fixed cost: every iteration must be served from the artifact cache",
        kind: Kind::Warm,
        full: Params {
            circuit: "mac-small",
            campaign: &["--budget", "0.2"],
            iterations: 100,
            ..Params::BASE
        },
        quick: Params {
            circuit: "corpus:regfile3x8",
            campaign: &["--cycles", "200", "--budget", "0.5", "--injections", "32"],
            model: QUICK_MODELS,
            iterations: 3,
            ..Params::BASE
        },
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where and with which inputs a workload runs.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The workload seed: feeds `--seed` (fault sampling, budget subset)
    /// and `--cv-seed` (fold assignment). The stimulus seed stays at the
    /// CLI default: the testbench is part of the workload definition, and
    /// varying it moves wall time by ±8 % on the MAC.
    pub seed: u64,
    /// Use the `--quick` sizes.
    pub quick: bool,
    /// Scratch directory of this pass (inside the checkout).
    pub work: PathBuf,
    /// File this process's stdout is redirected to (the CLI's product
    /// output lands there; the warm workload reads it back).
    pub stdout_log: PathBuf,
}

impl Workload {
    /// The sizes `ctx` selects.
    pub fn params(&self, ctx: &Ctx) -> &Params {
        if ctx.quick {
            &self.quick
        } else {
            &self.full
        }
    }
}

/// What set-up leaves behind for the timed repetitions.
pub struct State {
    dir: PathBuf,
    service: Option<ServiceHandle>,
    /// `fdr.json` of a plain `ffr run` (fleet: the byte-identity reference).
    plain_table: Vec<u8>,
}

impl State {
    /// Directory holding this set-up pass's files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Address of the in-process `ffrd`, if this workload runs one.
    pub fn service_addr(&self) -> Option<std::net::SocketAddr> {
        self.service.as_ref().map(ServiceHandle::addr)
    }

    /// Stop the in-process `ffrd`, if any, and join its threads.
    pub fn shutdown(mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }
}

/// Client-side observations of the `ffrd` requests of one repetition.
#[derive(Default, Clone, Debug)]
pub struct ServiceSample {
    /// `POST /campaigns` latency, seconds.
    pub submit_s: f64,
    /// Each `GET …/status` latency, seconds.
    pub status_s: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Requests that failed.
    pub failed: u64,
}

/// One timed repetition and what it delivered.
pub struct Rep {
    /// Wall time of the timed command sequence, seconds.
    pub wall_s: f64,
    /// Wall time of each command of the sequence, by subcommand.
    pub parts: Vec<(&'static str, f64)>,
    /// Per-instance FDR / de-rating values delivered.
    pub fdrs: u64,
    /// Fault injections executed.
    pub injections: u64,
    /// Bytes of the simulated statistics (the FDR / de-rating table; for
    /// the transfer workload, the training tables): byte-identical across
    /// repetitions and digested for the committed-digest check.
    pub table: Vec<u8>,
    /// Bytes of the ML output (`estimate.json`, `TransferReport`):
    /// byte-identical across repetitions; its digest is printed, not
    /// gated, because libm variants make the last float digit depend on
    /// the CPU.
    pub report: Vec<u8>,
    /// Session directory of the campaign (telemetry lives under it).
    pub session: PathBuf,
    /// Artifact store the repetition used, if any.
    pub store: Option<PathBuf>,
    /// `ffrd` request observations (fleet only).
    pub service: ServiceSample,
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// `ffr run` arguments for a campaign of `p` on `circuit`.
fn run_args(
    p: &Params,
    circuit: &str,
    seed: u64,
    out: &Path,
    store: Option<&Path>,
    threads: usize,
) -> Vec<String> {
    let mut args = strings(&["run", "--circuit", circuit]);
    args.extend(strings(p.campaign));
    args.extend([
        "--seed".to_string(),
        seed.to_string(),
        "--out".to_string(),
        path_str(out),
        "--threads".to_string(),
        threads.to_string(),
    ]);
    if let Some(store) = store {
        args.extend(["--store".to_string(), path_str(store)]);
    }
    args
}

fn estimate_args(p: &Params, seed: u64, out: &Path) -> Vec<String> {
    let mut args = strings(&["estimate", "--out"]);
    args.push(path_str(out));
    args.extend(["--cv-seed".to_string(), seed.to_string()]);
    args.extend(strings(p.model));
    args
}

/// `fdr.json` of a training campaign measured by a set-up pass in `dir`.
pub fn train_table(dir: &Path, circuit: &str) -> PathBuf {
    SessionPaths::new(dir.join("train").join(circuit.replace(':', "_"))).fdr_json()
}

fn timed(f: impl FnOnce() -> bool) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Check a finished campaign session: every point retired, the injection
/// count adds up, every value is a probability. Returns
/// `(points, injections, table bytes)`.
fn check_campaign(ops: &mut Ops, out: &Path, p: &Params) -> (u64, u64, Vec<u8>) {
    let set = p.fault() == FaultKind::Set;
    let paths = SessionPaths::new(out);
    let (points, injections) = match gather_status(out) {
        Ok((report, _)) => match report.progress {
            Some(pr) => {
                ops.check(
                    pr.complete && pr.completed_points == pr.total_points,
                    || {
                        format!(
                            "{}: {}/{} points retired",
                            out.display(),
                            pr.completed_points,
                            pr.total_points
                        )
                    },
                );
                ops.check(
                    pr.injections as u64 == pr.total_points as u64 * p.injections(),
                    || {
                        format!(
                            "{}: {} injections for {} points x {}",
                            out.display(),
                            pr.injections,
                            pr.total_points,
                            p.injections()
                        )
                    },
                );
                (pr.total_points as u64, pr.injections as u64)
            }
            None => {
                ops.check(false, || format!("{}: no progress recorded", out.display()));
                (0, 0)
            }
        },
        Err(e) => {
            ops.check(false, || format!("{}: status failed: {e}", out.display()));
            (0, 0)
        }
    };
    let table_path = if set {
        paths.set_json()
    } else {
        paths.fdr_json()
    };
    let bytes = std::fs::read(&table_path).unwrap_or_default();
    let (covered, in_range) = if set {
        match SetDeratingTable::load_json(&table_path) {
            Ok(t) => (
                t.covered().count() as u64,
                t.covered().all(|r| (0.0..=1.0).contains(&r.derating())),
            ),
            Err(_) => (0, false),
        }
    } else {
        match FdrTable::load_json(&table_path) {
            Ok(t) => (
                t.covered().count() as u64,
                t.covered().all(|r| (0.0..=1.0).contains(&r.fdr())),
            ),
            Err(_) => (0, false),
        }
    };
    ops.check(covered == points && points > 0, || {
        format!(
            "{}: table covers {covered} of {points} points",
            table_path.display()
        )
    });
    ops.check(in_range, || {
        format!("{}: a value is outside [0, 1]", table_path.display())
    });
    (points, injections, bytes)
}

/// Check `estimate.json`: one row per flip-flop, all probabilities.
/// Returns `(total FFs, report bytes)`.
fn check_estimate(ops: &mut Ops, out: &Path, measured: u64) -> (u64, Vec<u8>) {
    let path = SessionPaths::new(out).estimate_json();
    let bytes = std::fs::read(&path).unwrap_or_default();
    match EstimateReport::load_json(&path) {
        Ok(r) => {
            ops.check(
                r.per_ff.len() == r.total_ffs && r.measured_ffs as u64 == measured,
                || {
                    format!(
                        "{}: {} rows for {} FFs, {} measured vs {measured}",
                        path.display(),
                        r.per_ff.len(),
                        r.total_ffs,
                        r.measured_ffs
                    )
                },
            );
            ops.check(
                r.per_ff.iter().all(|row| (0.0..=1.0).contains(&row.fdr))
                    && (0.0..=1.0).contains(&r.circuit_ffr),
                || format!("{}: an FDR is outside [0, 1]", path.display()),
            );
            (r.total_ffs as u64, bytes)
        }
        Err(e) => {
            ops.check(false, || format!("{}: {e}", path.display()));
            (0, bytes)
        }
    }
}

/// One full set-up pass: the warm-up (the workload's own `--quick`
/// variant, once) and whatever the timed sequence needs in place.
pub fn setup(w: &Workload, ctx: &Ctx, pass: usize, ops: &mut Ops) -> State {
    let dir = ctx.work.join(format!("setup{pass}"));
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    if !ctx.quick {
        let warm = Ctx {
            quick: true,
            work: dir.join("warmup"),
            ..ctx.clone()
        };
        let mut state = setup(w, &warm, 0, ops);
        rep(w, &warm, &mut state, 0, 1, ops);
        state.shutdown();
    }
    let p = w.params(ctx);
    let mut state = State {
        dir: dir.clone(),
        service: None,
        plain_table: Vec::new(),
    };
    match w.kind {
        Kind::Flat | Kind::Estimate => {}
        Kind::Transfer => {
            // Measure the training circuits into the store every timed
            // repetition starts from a copy of.
            for circuit in p.train {
                let out = train_table(&dir, circuit);
                let out = out.parent().expect("table path has a session directory");
                ops.ffr(&run_args(
                    p,
                    circuit,
                    ctx.seed,
                    out,
                    Some(&dir.join("store")),
                    1,
                ));
            }
        }
        Kind::Fleet => {
            let out = dir.join("plain");
            ops.ffr(&run_args(p, p.circuit, ctx.seed, &out, None, 1));
            state.plain_table =
                std::fs::read(SessionPaths::new(&out).fdr_json()).unwrap_or_default();
            let mut config = ServiceConfig::new(dir.join("root"));
            config.threads = 1;
            match serve(&config) {
                Ok(handle) => state.service = Some(handle),
                Err(e) => {
                    ops.check(false, || format!("ffrd failed to start: {e}"));
                }
            }
        }
        Kind::Warm => {
            let out = dir.join("cold");
            let store = dir.join("store");
            ops.ffr(&run_args(p, p.circuit, ctx.seed, &out, Some(&store), 1));
            ops.ffr(&estimate_args(p, ctx.seed, &out));
        }
    }
    state
}

/// One repetition: run the timed command sequence on fresh session and
/// store directories, then check its outputs.
pub fn rep(
    w: &Workload,
    ctx: &Ctx,
    state: &mut State,
    index: usize,
    threads: usize,
    ops: &mut Ops,
) -> Rep {
    let p = w.params(ctx);
    let dir = state.dir.join(format!("rep{index}-t{threads}"));
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let out = dir.join("out");
    let store = dir.join("store");
    match w.kind {
        Kind::Flat => {
            let args = run_args(p, p.circuit, ctx.seed, &out, Some(&store), threads);
            let wall_s = timed(|| ops.ffr(&args));
            let (points, injections, table) = check_campaign(ops, &out, p);
            Rep {
                wall_s,
                parts: vec![("run", wall_s)],
                fdrs: points,
                injections,
                table,
                report: Vec::new(),
                session: out,
                store: Some(store),
                service: ServiceSample::default(),
            }
        }
        Kind::Estimate => {
            let run = run_args(p, p.circuit, ctx.seed, &out, Some(&store), threads);
            let estimate = estimate_args(p, ctx.seed, &out);
            let run_s = timed(|| ops.ffr(&run));
            let estimate_s = timed(|| ops.ffr(&estimate));
            let (points, injections, table) = check_campaign(ops, &out, p);
            let (total_ffs, report) = check_estimate(ops, &out, points);
            Rep {
                wall_s: run_s + estimate_s,
                parts: vec![("run", run_s), ("estimate", estimate_s)],
                fdrs: total_ffs,
                injections,
                table,
                report,
                session: out,
                store: Some(store),
                service: ServiceSample::default(),
            }
        }
        Kind::Transfer => {
            copy_dir(&state.dir.join("store"), &store).expect("store copy");
            let report_path = dir.join("transfer.json");
            let mut args = strings(&["transfer", "--train"]);
            args.push(p.train.join(","));
            args.extend(strings(&["--eval", p.circuit]));
            args.extend(strings(p.campaign));
            args.extend([
                "--seed".to_string(),
                ctx.seed.to_string(),
                "--cv-seed".to_string(),
                ctx.seed.to_string(),
                "--store".to_string(),
                path_str(&store),
                "--out".to_string(),
                path_str(&report_path),
            ]);
            args.extend(strings(p.model));
            let wall_s = timed(|| ops.ffr(&args));
            let report = std::fs::read(&report_path).unwrap_or_default();
            let table = p
                .train
                .iter()
                .flat_map(|circuit| {
                    std::fs::read(train_table(&state.dir, circuit)).unwrap_or_default()
                })
                .collect();
            let fdrs = match TransferReport::load_json(&report_path) {
                Ok(r) => {
                    ops.check(r.eval_injections == 0 && r.reference.is_none(), || {
                        "transfer spent injections on (or had a measured table of) the target"
                            .to_string()
                    });
                    ops.check(
                        r.per_ff.len() == r.eval_total_ffs
                            && r.per_ff.iter().all(|row| (0.0..=1.0).contains(&row.fdr))
                            && (0.0..=1.0).contains(&r.predicted_ffr),
                        || "transfer report rows are incomplete or outside [0, 1]".to_string(),
                    );
                    r.eval_total_ffs as u64
                }
                Err(e) => {
                    ops.check(false, || format!("{}: {e}", report_path.display()));
                    0
                }
            };
            Rep {
                wall_s,
                parts: vec![("transfer", wall_s)],
                fdrs,
                injections: 0,
                table,
                report,
                session: dir,
                store: Some(store),
                service: ServiceSample::default(),
            }
        }
        Kind::Fleet => fleet_rep(ctx, p, state, index, threads, ops),
        Kind::Warm => warm_rep(ctx, p, state, &dir, threads, ops),
    }
}

/// Submit a campaign to `ffrd`, drain it with one `ffr worker`, and poll
/// its status every 20 ms until it is complete.
fn fleet_rep(
    ctx: &Ctx,
    p: &Params,
    state: &mut State,
    index: usize,
    threads: usize,
    ops: &mut Ops,
) -> Rep {
    let id = format!("c{index}-t{threads}");
    let session = state.dir.join("root").join(&id);
    let mut sample = ServiceSample::default();
    let Some(addr) = state.service_addr() else {
        ops.check(false, || "ffrd is not running".to_string());
        return Rep {
            wall_s: f64::NAN,
            parts: vec![],
            fdrs: 0,
            injections: 0,
            table: vec![],
            report: vec![],
            session,
            store: None,
            service: sample,
        };
    };
    let body = format!(
        "{{\"id\":\"{id}\",\"circuit\":\"{}\",\"policy\":\"fixed:{}\",\"seed\":{},\
         \"cycles\":{},\"checkpoint_every\":32}}",
        p.circuit,
        p.injections(),
        ctx.seed,
        p.cycles(),
    );
    let worker_args: Vec<String> = [
        "worker",
        "--campaign",
        &path_str(&session),
        "--worker-id",
        "w1",
        "--lease-points",
        "4",
        "--threads",
        &threads.to_string(),
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let failed_before = ops.failed;
    let t = Instant::now();
    let submitted = ops.http(addr, "POST", "/campaigns", Some(&body)).is_some();
    sample.submit_s = t.elapsed().as_secs_f64();
    sample.requests += 1;
    if submitted {
        let worker = std::thread::spawn(move || ffr_campaign::cli::main_with_args(&worker_args));
        let status_path = format!("/campaigns/{id}/status");
        let deadline = Instant::now() + Duration::from_secs(150);
        loop {
            let t_req = Instant::now();
            let reply = ops.http(addr, "GET", &status_path, None);
            sample.status_s.push(t_req.elapsed().as_secs_f64());
            sample.requests += 1;
            let complete = reply
                .and_then(|text| serde_json::parse_value_complete(&text).ok())
                .and_then(|doc| {
                    let progress = doc.get("progress")?;
                    Some(
                        matches!(
                            progress.get("complete"),
                            Some(serde_json::Value::Bool(true))
                        ) && doc.get("table").is_some_and(|t| t.as_str().is_some()),
                    )
                })
                .unwrap_or(false);
            if complete || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        ops.attempted += 1;
        match worker.join() {
            Ok(0) => {}
            Ok(code) => ops.fail(format!("`ffr worker` exited with {code}")),
            Err(_) => ops.fail("`ffr worker` panicked".to_string()),
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    sample.failed = ops.failed - failed_before;

    let (points, injections, table) = check_campaign(ops, &session, p);
    ops.check(table == state.plain_table && !table.is_empty(), || {
        "fleet result differs from a plain `ffr run`".to_string()
    });
    Rep {
        wall_s,
        parts: vec![("fleet", wall_s)],
        fdrs: points,
        injections,
        table,
        report: vec![],
        session,
        store: None,
        service: sample,
    }
}

/// `iterations` x (`run` + `estimate` + `status --json` + `report`), all
/// against the store set-up populated; every one must be cache-served.
fn warm_rep(
    ctx: &Ctx,
    p: &Params,
    state: &mut State,
    dir: &Path,
    threads: usize,
    ops: &mut Ops,
) -> Rep {
    let store = state.dir.join("store");
    let cold = SessionPaths::new(state.dir.join("cold"));
    let table = std::fs::read(cold.fdr_json()).unwrap_or_default();
    let report = std::fs::read(cold.estimate_json()).unwrap_or_default();
    let log_before = std::fs::metadata(&ctx.stdout_log).map_or(0, |m| m.len());

    let mut parts = [
        ("run", 0.0),
        ("estimate", 0.0),
        ("status", 0.0),
        ("report", 0.0),
    ];
    let mut total_ffs = 0;
    let mut identical = true;
    let mut last = dir.to_path_buf();
    for i in 0..p.iterations {
        let out = dir.join(format!("it{i}"));
        let commands = [
            run_args(p, p.circuit, ctx.seed, &out, Some(&store), threads),
            estimate_args(p, ctx.seed, &out),
            strings(&["status", "--json", "--out", &path_str(&out)]),
            strings(&["report", "--out", &path_str(&out)]),
        ];
        for (part, args) in parts.iter_mut().zip(&commands) {
            part.1 += timed(|| ops.ffr(args));
        }
        // Untimed: compare with the cold results, then drop the session
        // (the last one stays: its telemetry feeds the traced pass).
        let paths = SessionPaths::new(&out);
        identical &= std::fs::read(paths.fdr_json()).is_ok_and(|b| b == table)
            && std::fs::read(paths.estimate_json()).is_ok_and(|b| b == report);
        if i + 1 == p.iterations {
            let measured =
                FdrTable::load_json(&paths.fdr_json()).map_or(0, |t| t.covered().count() as u64);
            total_ffs = check_estimate(ops, &out, measured).0;
            last = out;
        } else {
            let _ = std::fs::remove_dir_all(&out);
        }
    }
    ops.check(identical && !table.is_empty() && !report.is_empty(), || {
        "a warm iteration's table or estimate differs from the cold run's".to_string()
    });
    let log = std::fs::read(&ctx.stdout_log).unwrap_or_default();
    let fresh = String::from_utf8_lossy(&log[(log_before as usize).min(log.len())..]).into_owned();
    let served = fresh.matches("served from artifact cache").count();
    ops.check(served == 2 * p.iterations, || {
        format!(
            "{served} of {} run/estimate invocations were served from the artifact cache",
            2 * p.iterations
        )
    });
    Rep {
        wall_s: parts.iter().map(|(_, s)| s).sum(),
        parts: parts.to_vec(),
        fdrs: total_ffs * p.iterations as u64,
        injections: 0,
        table,
        report,
        session: last,
        store: Some(store),
        service: ServiceSample::default(),
    }
}
