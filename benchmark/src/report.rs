//! Result documents: one workload pass, the whole-run ledger
//! (`out/latest.json`), the driver's result line, and the comparison
//! behind `--check-against` / `--selfcheck`.

use crate::metrics::{self, MetricDef};
use crate::stats::{self, Summary};
use serde_json::Value;

/// One measured metric. `min`/`max`/`samples` describe the samples the
/// value is the median of (a single observation has `samples == 1`).
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// The reported value (median of the samples).
    pub value: f64,
    /// Unit, copied from the metric table.
    pub unit: String,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub samples: usize,
}

impl Measured {
    /// A metric observed once.
    pub fn single(def: &MetricDef, value: f64) -> Measured {
        Measured {
            value,
            unit: def.unit.to_string(),
            min: value,
            max: value,
            samples: 1,
        }
    }

    /// A metric summarised from several samples.
    pub fn from_summary(def: &MetricDef, s: Summary) -> Measured {
        Measured {
            value: s.median,
            unit: def.unit.to_string(),
            min: s.min,
            max: s.max,
            samples: s.samples,
        }
    }
}

/// The outcome of one pass (timed or traced) of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// `true` for the traced (per-layer) pass.
    pub trace: bool,
    /// Operations attempted: CLI invocations, HTTP requests, output checks.
    pub attempted: u64,
    /// Operations that failed (non-zero exit, non-2xx, failed check).
    pub failed: u64,
    /// What failed, one line each.
    pub notes: Vec<String>,
    /// FNV-64 digest of the simulated statistics (the result table),
    /// gated against the committed digest at the default seed.
    pub digest: String,
    /// FNV-64 digest of the ML output (`estimate.json`, `TransferReport`);
    /// recorded, not gated.
    pub report_digest: String,
    /// Metrics in table order.
    pub metrics: Vec<(String, Measured)>,
}

/// Shorthand for a JSON object value.
pub(crate) fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::F64(x)) => Ok(*x),
        Some(Value::U64(n)) => Ok(*n as f64),
        Some(Value::I64(n)) => Ok(*n as f64),
        _ => Err(format!("`{key}` is not a number")),
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(format!("`{key}` is not a non-negative integer")),
    }
}

fn get_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn get_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("`{key}` is not a boolean")),
    }
}

impl WorkloadResult {
    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics` (`{name: {value, unit}}`), as one line.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    obj(vec![
                        ("value", Value::F64(m.value)),
                        ("unit", Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("value trees serialize")
    }

    /// The human-readable block: `name value unit` per metric, with the
    /// sample spread beside summarised ones.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let pass = if self.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        let _ = writeln!(out, "== {} ({pass}) ==", self.workload);
        for (name, m) in &self.metrics {
            let _ = write!(out, "{name} {} {}", m.value, m.unit);
            if m.samples > 1 {
                let _ = write!(out, "  [min {} max {} n={}]", m.min, m.max, m.samples);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed; table digest {}, report digest {}",
            self.attempted, self.failed, self.digest, self.report_digest
        );
        for note in &self.notes {
            let _ = writeln!(out, "FAILED: {note}");
        }
        out
    }

    /// Full document form (for `result.json` and `latest.json`).
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    obj(vec![
                        ("value", Value::F64(m.value)),
                        ("unit", Value::Str(m.unit.clone())),
                        ("min", Value::F64(m.min)),
                        ("max", Value::F64(m.max)),
                        ("samples", Value::U64(m.samples as u64)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("trace", Value::Bool(self.trace)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "notes",
                Value::Array(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("digest", Value::Str(self.digest.clone())),
            ("report_digest", Value::Str(self.report_digest.clone())),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// Inverse of [`WorkloadResult::to_value`].
    pub fn from_value(v: &Value) -> Result<WorkloadResult, String> {
        let Some(Value::Object(entries)) = v.get("metrics") else {
            return Err("`metrics` is not an object".to_string());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, m) in entries {
            metrics.push((
                name.clone(),
                Measured {
                    value: get_f64(m, "value")?,
                    unit: get_str(m, "unit")?,
                    min: get_f64(m, "min")?,
                    max: get_f64(m, "max")?,
                    samples: get_u64(m, "samples")? as usize,
                },
            ));
        }
        let notes = v
            .get("notes")
            .and_then(Value::as_array)
            .ok_or("`notes` is not an array")?
            .iter()
            .map(|n| n.as_str().map(str::to_string).ok_or("note is not a string"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WorkloadResult {
            workload: get_str(v, "workload")?,
            trace: get_bool(v, "trace")?,
            attempted: get_u64(v, "attempted")?,
            failed: get_u64(v, "failed")?,
            notes,
            digest: get_str(v, "digest")?,
            report_digest: get_str(v, "report_digest")?,
            metrics,
        })
    }
}

/// Where and how a ledger was recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each workload measured for (0 when `--reps` fixed the count).
    pub seconds: f64,
    /// Fixed repetition count (0 when time-based).
    pub reps: usize,
    /// `--quick` sizes.
    pub quick: bool,
}

/// A whole run: every pass of every workload (`out/latest.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// Recording conditions.
    pub meta: RunMeta,
    /// Passes in execution order.
    pub results: Vec<WorkloadResult>,
}

impl Ledger {
    /// Pretty JSON document.
    pub fn to_json(&self) -> String {
        let meta = obj(vec![
            ("nproc", Value::U64(self.meta.nproc as u64)),
            ("rustc", Value::Str(self.meta.rustc.clone())),
            ("commit", Value::Str(self.meta.commit.clone())),
            ("seed", Value::U64(self.meta.seed)),
            ("seconds", Value::F64(self.meta.seconds)),
            ("reps", Value::U64(self.meta.reps as u64)),
            ("quick", Value::Bool(self.meta.quick)),
        ]);
        let doc = obj(vec![
            ("schema_version", Value::U64(1)),
            ("meta", meta),
            (
                "results",
                Value::Array(self.results.iter().map(WorkloadResult::to_value).collect()),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("value trees serialize")
    }

    /// Parse a document written by [`Ledger::to_json`].
    pub fn from_json(text: &str) -> Result<Ledger, String> {
        let doc = serde_json::parse_value_complete(text).map_err(|e| e.to_string())?;
        let meta = doc.get("meta").ok_or("no `meta`")?;
        let results = doc
            .get("results")
            .and_then(Value::as_array)
            .ok_or("`results` is not an array")?
            .iter()
            .map(WorkloadResult::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Ledger {
            meta: RunMeta {
                nproc: get_u64(meta, "nproc")? as usize,
                rustc: get_str(meta, "rustc")?,
                commit: get_str(meta, "commit")?,
                seed: get_u64(meta, "seed")?,
                seconds: get_f64(meta, "seconds")?,
                reps: get_u64(meta, "reps")? as usize,
                quick: get_bool(meta, "quick")?,
            },
            results,
        })
    }
}

/// One end-to-end metric of one workload, fresh against baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline median.
    pub baseline: f64,
    /// Fresh median.
    pub fresh: f64,
    /// Worsening as a share of the baseline (negative = improved).
    pub worsening_share: f64,
    /// The metric's bound (share of baseline).
    pub bound_share: f64,
    /// Worse than the baseline by more than the bound.
    pub regressed: bool,
}

/// Compare every end-to-end metric both ledgers measured, using each
/// metric's own direction and bound. Per-layer metrics are never gated.
pub fn compare(baseline: &Ledger, fresh: &Ledger) -> Vec<Comparison> {
    let mut out = Vec::new();
    for base in baseline.results.iter().filter(|r| !r.trace) {
        let Some(new) = fresh
            .results
            .iter()
            .find(|r| !r.trace && r.workload == base.workload)
        else {
            continue;
        };
        for def in metrics::END_TO_END {
            let (Some(b), Some(f)) = (base.metric(def.name), new.metric(def.name)) else {
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = stats::worsening(def.better, b.value, f.value);
            out.push(Comparison {
                workload: base.workload.clone(),
                metric: def.name.to_string(),
                baseline: b.value,
                fresh: f.value,
                worsening_share: if b.value == 0.0 {
                    0.0
                } else {
                    worse / b.value.abs()
                },
                bound_share: bound,
                regressed: stats::regressed(def.better, bound, b.value, f.value),
            });
        }
    }
    out
}

/// Render comparisons as an aligned table; returns it with the number of
/// regressions.
pub fn render_comparisons(rows: &[Comparison]) -> (String, usize) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "baseline", "fresh", "worse %", "bound %"
    );
    let mut regressions = 0;
    for c in rows {
        let _ = writeln!(
            out,
            "{:<18} {:<12} {:>14.6} {:>14.6} {:>+9.2} {:>7.1}{}",
            c.workload,
            c.metric,
            c.baseline,
            c.fresh,
            c.worsening_share * 100.0,
            c.bound_share * 100.0,
            if c.regressed { "  REGRESSED" } else { "" }
        );
        regressions += usize::from(c.regressed);
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(workload: &str, wall: f64) -> WorkloadResult {
        let metrics = metrics::END_TO_END
            .iter()
            .map(|def| {
                let value = match def.name {
                    "wall_s" => wall,
                    "fdrs_per_s" => 1000.0 / wall,
                    "peak_rss_mb" => 42.5,
                    _ => 0.75,
                };
                (
                    def.name.to_string(),
                    Measured {
                        value,
                        unit: def.unit.to_string(),
                        min: value * 0.99,
                        max: value * 1.02,
                        samples: 3,
                    },
                )
            })
            .collect();
        WorkloadResult {
            workload: workload.to_string(),
            trace: false,
            attempted: 12,
            failed: 0,
            notes: vec![],
            digest: "00000000deadbeef".to_string(),
            report_digest: "cbf29ce484222325".to_string(),
            metrics,
        }
    }

    fn ledger(wall: f64) -> Ledger {
        Ledger {
            meta: RunMeta {
                nproc: 2,
                rustc: "rustc 1.95.0".to_string(),
                commit: "unknown".to_string(),
                seed: 2019,
                seconds: 10.0,
                reps: 0,
                quick: false,
            },
            results: vec![sample_result("mac-flat", wall), {
                let mut traced = sample_result("mac-flat", wall);
                traced.trace = true;
                traced.notes.push("a \"quoted\" note".to_string());
                traced.failed = 1;
                traced
            }],
        }
    }

    #[test]
    fn latest_json_round_trips() {
        let l = ledger(4.815162342);
        let text = l.to_json();
        assert_eq!(Ledger::from_json(&text).unwrap(), l);
        assert!(Ledger::from_json("{}").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = sample_result("mac-flat", 4.8);
        let line = r.driver_line();
        assert!(!line.contains('\n'));
        let v = serde_json::parse_value_complete(&line).unwrap();
        let Value::Object(entries) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Object(ms)) = v.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(ms.len(), metrics::END_TO_END.len());
        for (_, m) in ms {
            let Value::Object(fields) = m else { panic!() };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }

    #[test]
    fn compare_uses_direction_and_bound_and_skips_traced_passes() {
        let base = ledger(4.0);
        // 8 % slower: inside wall_s's 20 % bound; fdrs_per_s drops 7.4 %.
        let rows = compare(&base, &ledger(4.32));
        assert_eq!(rows.len(), metrics::END_TO_END.len());
        assert!(rows.iter().all(|c| !c.regressed));
        // 30 % slower: wall_s and fdrs_per_s (-23 %) both regress, the rest hold.
        let rows = compare(&base, &ledger(5.2));
        let regressed: Vec<&str> = rows
            .iter()
            .filter(|c| c.regressed)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(regressed, ["wall_s", "fdrs_per_s"]);
        // Faster never regresses.
        assert!(compare(&base, &ledger(2.0)).iter().all(|c| !c.regressed));
        let (text, n) = render_comparisons(&rows);
        assert_eq!(n, 2);
        assert!(text.contains("REGRESSED"));
    }
}
