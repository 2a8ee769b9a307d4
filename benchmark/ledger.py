#!/usr/bin/env python3
"""Render the ledger tables of benchmark/README.md from a latest.json.

usage: ledger.py benchmark/out/latest.json
"""
import json
import sys

ROWS = [
    ("front_end", "front end (`circuits`, `campaign.spec`, `sim` compile)"),
    ("golden", "golden + net journal (`sim`)"),
    ("cone_build", "cone build (`sim`)"),
    ("batch_sim", "batch simulation (`fault`)"),
    ("judge", "judging (`fault`)"),
    ("flush", "checkpoint + shard flush (`campaign.checkpoint`, `.work`)"),
    ("runner", "runner outside ranges, lease queue (`campaign.runner`, `.work`)"),
    ("publish", "merge + publish (`campaign.session`, `.store` writes)"),
    ("store", "store keys + reads (`campaign.store`, `.codec`)"),
    ("features", "feature extraction + alignment (`features`)"),
    ("ml", "CV grid fits (`ml` via `campaign.estimate` / `.transfer`)"),
]


def main():
    ledger = json.load(open(sys.argv[1]))
    meta = ledger["meta"]
    print(
        f"Recorded at seed {meta['seed']}, {meta['seconds']} s per workload, "
        f"nproc {meta['nproc']}, {meta['rustc']}, commit {meta['commit']}.\n"
    )
    timed = {r["workload"]: r for r in ledger["results"] if not r["trace"]}
    traced = {r["workload"]: r for r in ledger["results"] if r["trace"]}

    if timed:
        names = list(next(iter(timed.values()))["metrics"])
        print("| workload | " + " | ".join(names) + " | reps |")
        print("|---|" + "---:|" * (len(names) + 1))
        for w, r in timed.items():
            cells = [f"{r['metrics'][n]['value']:.4g}" for n in names]
            reps = r["metrics"]["wall_s"]["samples"]
            print(f"| `{w}` | " + " | ".join(cells) + f" | {reps} |")
        print()

    if traced:
        ws = list(traced)
        value = lambda w, n: traced[w]["metrics"][n]["value"]
        print("| share of `wall_s` (%) | " + " | ".join(f"`{w}`" for w in ws) + " |")
        print("|---|" + "---:|" * len(ws))
        for key, label in ROWS:
            cells = [f"{value(w, f'ledger.{key}_pct'):.1f}" for w in ws]
            print(f"| {label} | " + " | ".join(cells) + " |")
        cells = [f"{value(w, 'campaign.unattributed_pct'):.1f}" for w in ws]
        print("| **`campaign.unattributed_pct`** | " + " | ".join(cells) + " |")
        cells = [f"{value(w, 'obs.telemetry_overhead_pct'):+.1f}" for w in ws]
        print("| `obs.telemetry_overhead_pct` (not a share) | " + " | ".join(cells) + " |")
        print()
        print("| workload | measured `savings_x` | `ffr_abs_err` | `fdr_mae` |")
        print("|---|---:|---:|---:|")
        for w in ws:
            if value(w, "savings_x") > 0:
                print(
                    f"| `{w}` | {value(w, 'savings_x'):.3f} | "
                    f"{value(w, 'ffr_abs_err'):.4f} | {value(w, 'fdr_mae'):.4f} |"
                )


if __name__ == "__main__":
    main()
