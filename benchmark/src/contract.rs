//! The repo-root `BENCHMARK.json`, generated from the tables the
//! benchmark itself uses so the two cannot drift: `run.sh
//! --print-contract` prints it, `tests/contract.rs` compares it with the
//! committed file.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::report::obj;
use crate::workloads::WORKLOADS;
use serde_json::Value;

/// How long one driver run measures (`--seconds`), in whole seconds.
pub const RUN_SECONDS: u64 = 10;

fn metric(def: &MetricDef) -> Value {
    let mut entries = vec![
        ("name", Value::Str(def.name.to_string())),
        ("unit", Value::Str(def.unit.to_string())),
        ("better", Value::Str(def.better.as_str().to_string())),
    ];
    if let Some(bound) = def.bound {
        entries.push(("bound", Value::F64(bound)));
    }
    obj(entries)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let doc = obj(vec![
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("name", Value::Str(w.name.to_string())),
                            ("why", Value::Str(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("value trees serialize") + "\n"
}
