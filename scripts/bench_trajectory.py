"""Summarise benchmark runs of a parent and a change into one BENCH_<n>.json.

``bench/run.py`` appends every run to ``.bench_runs/results.jsonl`` in the
checkout it runs from. Run it in a checkout of the parent commit and in one
of the change, on the same workloads and seeds, then:

    python3 scripts/bench_trajectory.py --parent PARENT/.bench_runs/results.jsonl \\
        --change .bench_runs/results.jsonl --out BENCH_<n>.json

Measured runs (``--trace 0``) give, per workload, each side's median and
quartiles of every end-to-end metric in ``BENCHMARK.json``, the pairs (same
workload and seed on both sides) the change won, whether the gain rule and
the regression bound hold, and the load average each paired run started and
ended under. Traced runs (``--trace 1``) give each side's per-layer
metrics, as the median over its traced runs. A results file that holds two
runs of one workload, seed and trace is refused with a message naming them:
move or delete the stale file before running again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "numpy", "blas", "nproc", "affinity", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# the 1, 5 and 15 minute load averages as each run started and ended
LOAD_KEYS = ("driver_load_start", "driver_load_end")


def read_runs(path: Path) -> list[dict]:
    """The runs in ``path``; a second run of one (workload, seed, trace) is
    refused, since pairing could then match a stale run with a new one."""
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    seen = set()
    for r in runs:
        key = (r["workload"], r["seed"], r["trace"])
        if key in seen:
            raise SystemExit(f"{path}: workload {key[0]}, seed {key[1]}, trace {key[2]} is run twice; keep one run")
        seen.add(key)
    return runs


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def by_seed(runs: list[dict], workload: str, trace: int) -> dict[int, dict]:
    return {r["seed"]: r for r in runs if r["workload"] == workload and r["trace"] == trace}


def end_to_end(parent: list[dict], change: list[dict], workload: str, bench: dict) -> dict:
    sides = {"parent": by_seed(parent, workload, 0), "change": by_seed(change, workload, 0)}
    paired = sorted(set(sides["parent"]) & set(sides["change"]))
    out = {
        "seeds": paired,
        "all_correct": all(r["correct"] for side in sides.values() for r in side.values()),
        "failed_ops": {name: sum(r["failed"] for r in side.values()) for name, side in sides.items()},
        "load": {
            str(s): {name: {k: side[s]["env"].get(k) for k in LOAD_KEYS} for name, side in sides.items()}
            for s in paired
        },
        "metrics": {},
    }
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {
            side: [runs[s]["metrics"][name]["value"] for s in paired if name in runs[s]["metrics"]]
            for side, runs in sides.items()
        }
        if not values["parent"] or len(values["parent"]) != len(values["change"]):
            continue
        p, c = spread(values["parent"]), spread(values["change"])
        wins = sum(sign * (b - a) > 0 for a, b in zip(values["parent"], values["change"]))
        gain = sign * (c["median"] - p["median"])
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": p,
            "change": c,
            "change_wins": wins,
            "pairs": len(paired),
            "gain_rule_met": wins >= 0.9 * len(paired) and gain > p["q3"] - p["q1"],
            "within_bound": gain >= -metric["bound"] * abs(p["median"]),
        }
    return out


def per_layer(runs: list[dict], workload: str) -> dict:
    traced = list(by_seed(runs, workload, 1).values())
    names = sorted({name for r in traced for name in r["metrics"]})
    return {
        "seeds": sorted(r["seed"] for r in traced),
        "metrics": {
            name: statistics.median(r["metrics"][name]["value"] for r in traced if name in r["metrics"])
            for name in names
        },
    }


def environment(runs: list[dict]) -> dict:
    envs = {json.dumps({k: r["env"].get(k) for k in ENV_KEYS}, sort_keys=True) for r in runs}
    if len(envs) != 1:
        raise SystemExit(f"runs disagree on their environment: {sorted(envs)}")
    return json.loads(envs.pop())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's results.jsonl")
    parser.add_argument("--change", type=Path, required=True, help="the change's results.jsonl")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = read_runs(args.parent), read_runs(args.change)
    summary = {
        "command": bench["command"],
        "environment": environment(parent + change),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        entry = {"end_to_end": end_to_end(parent, change, workload, bench)}
        traced = {side: per_layer(runs, workload) for side, runs in (("parent", parent), ("change", change))}
        if any(t["seeds"] for t in traced.values()):
            entry["per_layer"] = traced
        summary["workloads"][workload] = entry
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
