//! `--quick` smoke: every workload passes its output checks in both
//! passes, through the real binary and its child processes.

use ffr_benchmark::metrics::{END_TO_END, PER_LAYER};
use ffr_benchmark::report::Ledger;
use ffr_benchmark::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

#[test]
fn every_workload_passes_its_checks_at_quick_sizes() {
    let bench_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-bench");
    let _ = std::fs::remove_dir_all(&bench_dir);
    std::fs::create_dir_all(&bench_dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ffr-benchmark"))
        .args(["--quick", "--trace", "--seed", "5", "--bench-dir"])
        .arg(&bench_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One result object per pass, each correct, the last line being one.
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), 2 * WORKLOADS.len(), "{stdout}");
    assert!(
        lines.iter().all(|l| l.starts_with("{\"correct\":true,")),
        "{stdout}"
    );
    assert_eq!(stdout.lines().last(), lines.last().copied());

    let ledger = Ledger::from_json(
        &std::fs::read_to_string(bench_dir.join("out/latest.json")).expect("latest.json"),
    )
    .expect("latest.json parses");
    assert!(ledger.meta.quick && ledger.meta.seed == 5 && ledger.meta.reps == 1);
    assert_eq!(ledger.results.len(), 2 * WORKLOADS.len());
    for (i, result) in ledger.results.iter().enumerate() {
        let w = &WORKLOADS[i / 2];
        let table = if result.trace { PER_LAYER } else { END_TO_END };
        assert_eq!(
            (result.workload.as_str(), result.trace),
            (w.name, i % 2 == 1)
        );
        assert!(result.correct(), "{}: {:?}", w.name, result.notes);
        let names: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", w.name);
        if !result.trace {
            assert!(
                result.metrics.iter().all(|(_, m)| m.value > 0.0),
                "{}",
                w.name
            );
        }
        let trace_file = bench_dir.join(format!("out/trace-{}.jsonl", w.name));
        assert!(trace_file.is_file(), "{}", trace_file.display());
    }
    // The scratch sessions and stores are gone.
    assert!(!bench_dir.join("out/work").exists());
}
