//! Argument handling and the parent side of the benchmark: one child
//! process per workload pass, results printed as `name value unit` with
//! the driver's JSON object as the last line of each pass, and
//! `out/latest.json`.

use crate::child::{self, ChildOpts, DEFAULT_SEED};
use crate::report::{self, Ledger, RunMeta, WorkloadResult};
use crate::workloads::{self, Workload, WORKLOADS};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "\
benchmark/run.sh — end-to-end, layer-attributed cost ledger for ffr

USAGE:
    benchmark/run.sh [OPTIONS]

OPTIONS:
    --workload <name>       run one workload (default: all seven)
    --seed <n>              workload seed: feeds --seed and --cv-seed
                            of the generated commands       [default: 2019]
    --seconds <s>           measure each workload for at least this long
                            (never fewer than 3 repetitions) [default: 10]
    --reps <r>              exactly r repetitions instead of --seconds
    --trace [0|1]           0: timed pass, end-to-end metrics (default)
                            1: traced pass, per-layer metrics
                            no value: both passes
    --quick                 one repetition at the smallest sizes (smoke)
    --check-against <json>  compare this run with a saved latest.json by
                            each end-to-end metric's direction and bound;
                            exit 1 on a regression
    --selfcheck             run the timed pass twice on the same code and
                            exit 1 if any end-to-end metric differs by
                            more than its own bound; prints the spread
    --update-digests        record this run's table digests as the
                            committed ones (default seed, full sizes)
    --print-contract        print the repo-root BENCHMARK.json and exit

Every pass prints its metrics as `name value unit` and, as its last line,
one JSON object {correct, attempted, failed, metrics}. Results of the
whole run land in benchmark/out/latest.json, traces in
benchmark/out/trace-<workload>.jsonl.
";

/// Which passes to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Passes {
    Timed,
    Traced,
    Both,
}

impl Passes {
    fn list(self) -> &'static [bool] {
        match self {
            Passes::Timed => &[false],
            Passes::Traced => &[true],
            Passes::Both => &[false, true],
        }
    }
}

#[derive(Debug)]
struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    passes: Passes,
    quick: bool,
    check_against: Option<PathBuf>,
    selfcheck: bool,
    update_digests: bool,
    print_contract: bool,
    bench_dir: PathBuf,
    /// Set for the child role: scratch directory of the pass.
    child_work: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: crate::contract::RUN_SECONDS as f64,
        reps: None,
        passes: Passes::Timed,
        quick: false,
        check_against: None,
        selfcheck: false,
        update_digests: false,
        print_contract: false,
        bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        child_work: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                o.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--reps" => {
                let reps: usize = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if reps == 0 {
                    return Err("--reps must be positive".to_string());
                }
                o.reps = Some(reps);
            }
            "--trace" => {
                o.passes = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Passes::Timed,
                    Some("1") => Passes::Traced,
                    Some(other) if !other.starts_with("--") => {
                        return Err(format!("--trace takes 0 or 1 (got `{other}`)"))
                    }
                    _ => Passes::Both,
                };
                if o.passes != Passes::Both {
                    it.next();
                }
            }
            "--quick" => o.quick = true,
            "--check-against" => o.check_against = Some(value("--check-against")?.into()),
            "--selfcheck" => o.selfcheck = true,
            "--update-digests" => o.update_digests = true,
            "--bench-dir" => o.bench_dir = value("--bench-dir")?.into(),
            "--child-work" => o.child_work = Some(value("--child-work")?.into()),
            "--print-contract" => o.print_contract = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if o.quick && o.reps.is_none() {
        o.reps = Some(1);
    }
    Ok(o)
}

fn digests_path(bench_dir: &Path) -> PathBuf {
    bench_dir.join("digests.json")
}

/// The committed `{workload: table digest}` map (empty when absent).
fn load_digests(bench_dir: &Path) -> Vec<(String, String)> {
    let Ok(text) = std::fs::read_to_string(digests_path(bench_dir)) else {
        return Vec::new();
    };
    match serde_json::parse_value_complete(&text) {
        Ok(Value::Object(entries)) => entries
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.as_str()?.to_string())))
            .collect(),
        _ => Vec::new(),
    }
}

/// The child role: run one pass, leave `result.json` in the scratch
/// directory. Stdout of this process is the CLI's product output.
fn run_child(o: &Options, work: &Path) -> i32 {
    let workload = o.workload.expect("the parent names the workload");
    let trace = o.passes == Passes::Traced;
    let out_dir = o.bench_dir.join("out");
    let result = child::run(&ChildOpts {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        reps: o.reps,
        trace,
        quick: o.quick,
        work: work.to_path_buf(),
        stdout_log: work.join("stdout.log"),
        out_dir,
        expected_digest: load_digests(&o.bench_dir)
            .into_iter()
            .find(|(name, _)| name == workload.name)
            .map(|(_, digest)| digest),
    });
    let text = serde_json::to_string_pretty(&result.to_value()).expect("value trees serialize");
    match std::fs::write(work.join("result.json"), text) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: cannot write the pass result: {e}");
            1
        }
    }
}

/// Spawn one pass in a child process of this binary and read its result.
fn run_pass(o: &Options, w: &Workload, trace: bool) -> Result<WorkloadResult, String> {
    let out_dir = o.bench_dir.join("out");
    let pass = if trace { "traced" } else { "timed" };
    let work = out_dir
        .join("work")
        .join(format!("{}-{pass}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let log = std::fs::File::create(work.join("stdout.log")).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child-work")
        .arg(&work)
        .arg("--bench-dir")
        .arg(&o.bench_dir)
        .args(["--workload", w.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(reps) = o.reps {
        cmd.args(["--reps", &reps.to_string()]);
    }
    if o.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::from(log))
        .status()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
    let result = std::fs::read_to_string(work.join("result.json"))
        .map_err(|e| format!("{} child ({status}) left no result: {e}", w.name))
        .and_then(|text| serde_json::parse_value_complete(&text).map_err(|e| e.to_string()))
        .and_then(|v| WorkloadResult::from_value(&v));
    let _ = std::fs::remove_dir_all(&work);
    // Leave `out/` without an empty scratch parent between runs.
    let _ = std::fs::remove_dir(out_dir.join("work"));
    result
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn meta(o: &Options) -> RunMeta {
    RunMeta {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        commit: command_line(
            "git",
            &["-C", &o.bench_dir.to_string_lossy(), "rev-parse", "HEAD"],
        )
        .unwrap_or_else(|| "unknown".to_string()),
        seed: o.seed,
        seconds: if o.reps.is_some() { 0.0 } else { o.seconds },
        reps: o.reps.unwrap_or(0),
        quick: o.quick,
    }
}

/// Run the selected passes of the selected workloads, printing each.
fn run_all(o: &Options, passes: &[bool]) -> Result<Ledger, String> {
    let selected: Vec<&Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut results = Vec::new();
    for w in selected {
        for &trace in passes {
            let result = run_pass(o, w, trace)?;
            print!("{}", result.render_text());
            println!("{}", result.driver_line());
            results.push(result);
        }
    }
    Ok(Ledger {
        meta: meta(o),
        results,
    })
}

/// `--selfcheck`: two timed runs of the same code must agree within every
/// end-to-end metric's own bound.
fn selfcheck(o: &Options) -> Result<i32, String> {
    let first = run_all(o, &[false])?;
    let second = run_all(o, &[false])?;
    println!("\nselfcheck: second run against first (`worse %` is the observed spread)");
    let rows = report::compare(&first, &second);
    let (table, regressions) = report::render_comparisons(&rows);
    print!("{table}");
    let incorrect = first
        .results
        .iter()
        .chain(&second.results)
        .filter(|r| !r.correct())
        .count();
    println!(
        "selfcheck: {regressions} metric(s) beyond their bound, {incorrect} incorrect pass(es)"
    );
    Ok(if regressions == 0 && incorrect == 0 {
        0
    } else {
        1
    })
}

fn run_parent(o: &Options) -> Result<i32, String> {
    if o.selfcheck {
        return selfcheck(o);
    }
    let ledger = run_all(o, o.passes.list())?;
    let out_dir = o.bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    std::fs::write(out_dir.join("latest.json"), ledger.to_json()).map_err(|e| e.to_string())?;

    if o.update_digests {
        if o.seed != DEFAULT_SEED || o.quick {
            return Err("--update-digests needs the default seed and full sizes".to_string());
        }
        let mut digests = load_digests(&o.bench_dir);
        for r in &ledger.results {
            digests.retain(|(name, _)| *name != r.workload);
            digests.push((r.workload.clone(), r.digest.clone()));
        }
        digests.sort();
        let doc = Value::Object(
            digests
                .into_iter()
                .map(|(k, v)| (k, Value::Str(v)))
                .collect(),
        );
        let text = serde_json::to_string_pretty(&doc).expect("value trees serialize");
        std::fs::write(digests_path(&o.bench_dir), text + "\n").map_err(|e| e.to_string())?;
    }

    if let Some(path) = &o.check_against {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let saved = Ledger::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let rows = report::compare(&saved, &ledger);
        let (table, regressions) = report::render_comparisons(&rows);
        // Stderr, so the last line of stdout stays the result object.
        eprint!("\ncheck against {}:\n{table}", path.display());
        eprintln!("{regressions} metric(s) regressed beyond their bound");
        if regressions > 0 {
            return Ok(1);
        }
    }
    Ok(0)
}

/// Run the benchmark CLI; returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    let options = match parse(args) {
        Ok(o) => o,
        Err(e) if e.is_empty() => {
            print!("{USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 64;
        }
    };
    if options.print_contract {
        print!("{}", crate::contract::benchmark_json());
        return 0;
    }
    if let Some(work) = &options.child_work {
        return run_child(&options, work);
    }
    match run_parent(&options) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let o = parse(&args(&[
            "--workload",
            "mac-flat",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.unwrap().name, "mac-flat");
        assert_eq!((o.seed, o.seconds, o.passes), (7, 10.0, Passes::Traced));
        let o = parse(&args(&["--trace", "0", "--seed", "3"])).unwrap();
        assert_eq!((o.passes, o.seed), (Passes::Timed, 3));
    }

    #[test]
    fn bare_trace_means_both_passes_and_quick_means_one_rep() {
        let o = parse(&args(&["--trace", "--quick"])).unwrap();
        assert_eq!(o.passes, Passes::Both);
        assert_eq!(o.reps, Some(1));
        let o = parse(&args(&["--quick", "--trace"])).unwrap();
        assert_eq!(o.passes, Passes::Both);
        assert_eq!(parse(&args(&[])).unwrap().passes, Passes::Timed);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--reps", "0"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
