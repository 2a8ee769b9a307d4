//! `BENCHMARK.json` at the repo root is what the benchmark's own tables
//! generate, and stays inside the driver's limits.

use ffr_benchmark::contract::{benchmark_json, RUN_SECONDS};
use ffr_benchmark::metrics::{valid_name, END_TO_END, PER_LAYER};
use ffr_benchmark::workloads::WORKLOADS;

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `benchmark/run.sh --print-contract > BENCHMARK.json`"
    );
}

#[test]
fn contract_limits_hold() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    for w in WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!(benchmark_json().len() <= 64 * 1024);
    // 4 + 22 x workloads runs plus two builds must fit in 3420 s: at most
    // 20 s a run leaves the builds two minutes.
    let runs = 4 + 22 * WORKLOADS.len() as u64;
    assert!(runs * 20 + 120 <= 3420, "{runs} runs");
}
