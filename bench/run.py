#!/usr/bin/env python3
"""Benchmark of the layerbridge CLI on three workloads: train, eval, analyze.

    python3 bench/run.py --workload train --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --regenerate --workload eval --seconds 25

A measured run (``--trace 0``) spawns several set-up probes and one full
workload process, each a fresh single-threaded Python process, and prints
the end-to-end metrics. A traced run (``--trace 1``) runs the workload once
untraced and once with every layer wrapped in timing spans, and prints the
per-layer metrics plus the tracing overhead between the two. Either way the
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Outputs are checked against ``references.json``, which only
``--regenerate`` rewrites. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import percentile
from workload import BENCH_DIR, OVERHEAD_METRICS, SLOTS, WORKLOADS, slot_of

ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
REFERENCES = BENCH_DIR / "references.json"
# set-ups measured per run: SETUP_SAMPLES - 1 probes plus the measured run
SETUP_SAMPLES = 6
# a whole run, every child process included, ends within this
RUN_BUDGET_S = 170.0
# relative tolerance on each stage's last-epoch mean loss. Training at these
# learning rates amplifies rounding: a 0.1% change to layer-norm eps moved
# the last-batch loss by up to 9% and the last-epoch mean by up to 3%, so
# reordered float sums must pass while a bridge that stops learning (its
# last epoch stays near the first, ~50% higher) must fail
LOSS_RTOL = 0.10
END_TO_END = {
    "setup_s": "s",
    "examples_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "tokens_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LAYERBRIDGE_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, run_dir: Path, deadline: float) -> dict:
    """Run ``workload.py`` in a fresh process and return its result."""
    run_dir.mkdir(parents=True, exist_ok=True)
    index = len(list(run_dir.glob("*.json")))
    out = run_dir / f"{mode}{index}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, "--run-dir", str(run_dir / f"{mode}{index}"), "--out", str(out),
    ]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise ChildFailed(f"no time left in the {RUN_BUDGET_S:g} s budget for a {mode} process")
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"{mode} process overran the {RUN_BUDGET_S:g} s budget") from err
    if proc.returncode != 0 or not out.is_file():
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {}


def reference_for(refs: dict, workload: str, seconds: float, slot: int):
    return refs.get(f"{seconds:g}", {}).get(workload, {}).get(str(slot))


def checks(result: dict, reference) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every output check of one workload run."""
    workload = result["workload"]
    codes = result["exit_codes"]
    out = [
        ("cli exit codes", all(c == 0 for c in codes), f"{codes}"),
        ("ops completed", result["ops_completed"] == result["ops_attempted"],
         f"{result['ops_completed']} of {result['ops_attempted']}"),
    ]
    if workload == "train":
        out.append(("adam steps accepted", result["rejected_steps"] == 0,
                    f"{result['rejected_steps']} rejected"))
        final = result["final_losses"]
        out.append(("final losses finite", len(final) == 2 and all(math.isfinite(x) for x in final),
                    f"{final}"))
        if reference is not None:
            losses, expected = result["last_epoch_losses"], reference["last_epoch_losses"]
            close = len(losses) == len(expected) and all(
                abs(x - ref) <= LOSS_RTOL * abs(ref) for x, ref in zip(losses, expected)
            )
            out.append(("last-epoch losses vs reference", close,
                        f"{losses} vs {expected}, rtol {LOSS_RTOL}"))
    elif workload == "eval":
        answers = result["answers"]
        if reference is None:
            out.append(("answers decoded", len(answers) == result["ops_attempted"], f"{len(answers)}"))
        else:
            expected = reference["answers"].split()
            matched = sum(a == b for a, b in zip(answers, expected))
            fraction = matched / len(expected)
            out.append(("answer ids vs reference", fraction == 1.0 and len(answers) == len(expected),
                        f"match fraction {fraction:.4f} ({matched} of {len(expected)})"))
    else:
        problems = result["report_problems"]
        out.append(("report CSVs parse", not problems, "; ".join(problems) or "5 files"))
    return out


def end_to_end(main: dict, setups: list[float]) -> dict:
    timed = main["timed_s"]
    values = {
        "setup_s": statistics.median(setups),
        "examples_per_s": main["rows"] / timed,
        "op_ms.p50": percentile(main["op_ms"], 50),
        "op_ms.p90": percentile(main["op_ms"], 90),
        "tokens_per_s": main["tokens"] / timed,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(plain: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    untraced_ms = 1e3 * plain["wall_s"]
    overhead_ms = layers["trace.wall_ms"][0] - untraced_ms
    derived = {
        "trace.untraced_wall_ms": untraced_ms,
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_pct": 100.0 * overhead_ms / untraced_ms,
    }
    for name, unit in OVERHEAD_METRICS.items():
        layers[name] = [derived[name], unit]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}


def measure(args, run_dir: Path, deadline: float) -> tuple[dict, list[dict]]:
    """Metrics of one run and the raw results of the processes it checks."""
    def run(mode):
        return spawn(args.workload, args.seed, args.seconds, mode, run_dir, deadline)

    if args.trace:
        plain, traced = run("run"), run("trace")
        return per_layer(plain, traced), [plain, traced]
    setups = [run("probe")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = run("run")
    setups.append(main["setup_s"])
    return end_to_end(main, setups), [main]


def report(args, metrics: dict, results: list[dict], refs: dict, load: list) -> dict:
    slot = slot_of(args.seed)
    reference = reference_for(refs, args.workload, args.seconds, slot)
    if reference is None and args.workload != "analyze":
        print(f"no stored reference for {args.workload} at {args.seconds:g} s, slot {slot}; "
              f"run --regenerate", file=sys.stderr)
    all_checks = [
        (f"{r['mode']}: {name}" if len(results) > 1 else name, ok, detail)
        for r in results for name, ok, detail in checks(r, reference)
    ]
    if reference is None and args.workload != "analyze":
        all_checks.append(("stored reference exists", False, f"slot {slot}"))
    last = results[-1]
    failed = (last["ops_attempted"] - last["ops_completed"]) + last["rejected_steps"]
    env = dict(last["env"], driver_load_start=load[0], driver_load_end=load[1])

    print(f"layerbridge benchmark: workload {args.workload}, seed {args.seed} (input slot {slot}), "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  ops attempted {last['ops_attempted']}, failed {failed}, "
          f"latency samples {len(last['op_ms'])}, rows {last['rows']}, tokens {last['tokens']}")
    for name, ok, detail in all_checks:
        print(f"  check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    return {
        "correct": all(ok for _, ok, _ in all_checks) and failed == 0,
        "attempted": last["ops_attempted"],
        "failed": failed,
        "metrics": metrics,
        "env": env,
    }


def regenerate(args) -> int:
    if args.workload == "analyze":
        print("analyze output is checked for structure only; it has no stored reference", file=sys.stderr)
        return 2
    stored = {}
    run_dir = RUNS_DIR / f"regenerate-{args.workload}-{os.getpid()}"
    try:
        for slot in range(SLOTS):
            deadline = time.perf_counter() + RUN_BUDGET_S
            result = spawn(args.workload, slot, args.seconds, "run", run_dir, deadline)
            bad = [c for c in checks(result, None) if not c[1]]
            if bad:
                print(f"slot {slot}: {bad}; references left unchanged", file=sys.stderr)
                return 1
            if args.workload == "train":
                stored[str(slot)] = {"last_epoch_losses": result["last_epoch_losses"]}
            else:
                stored[str(slot)] = {"answers": " ".join(result["answers"])}
            print(f"slot {slot}: stored")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    refs = load_references()
    refs.setdefault(f"{args.seconds:g}", {})[args.workload] = stored
    REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help=f"rewrite the stored reference outputs of all {SLOTS} input slots")
    args = parser.parse_args(argv)
    if args.regenerate:
        return regenerate(args)

    load_start = os.getloadavg()
    deadline = time.perf_counter() + RUN_BUDGET_S
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        metrics, results = measure(args, run_dir, deadline)
    except (ChildFailed, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = report(args, metrics, results, load_references(), [load_start, os.getloadavg()])
    RUNS_DIR.mkdir(exist_ok=True)
    with open(RUNS_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(record, workload=args.workload, seed=args.seed, trace=args.trace)) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
