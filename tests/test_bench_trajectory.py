"""The BENCH_<n>.json summary: pairing by seed, quartiles, the gain rule and
the regression bound, on hand-made result records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)

ENV = {"python": "3.11", "numpy": "2.0", "blas": "openblas", "nproc": 2, "affinity": 2,
       "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "driver_load_start": [0.5, 0.6, 0.7], "driver_load_end": [0.9, 0.7, 0.7]}


def record(workload, seed, trace, **metrics):
    return {"workload": workload, "seed": seed, "trace": trace, "correct": True, "failed": 0, "env": ENV,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_summary_pairs_seeds_and_applies_the_gain_rule(tmp_path):
    parent = [record("train", s, 0, examples_per_s=100.0 + s, peak_rss_mb=90.0) for s in range(10)]
    change = [record("train", s, 0, examples_per_s=150.0 + s, peak_rss_mb=110.0) for s in range(10)]
    # one pair lost: 9 of 10 still meets the rule
    change[3] = record("train", 3, 0, examples_per_s=90.0, peak_rss_mb=110.0)
    parent.append(record("train", 0, 1, **{"autodiff.bwd_ms.matmul": 40.0}))
    change.append(record("train", 0, 1, **{"autodiff.bwd_ms.matmul": 15.0}))
    out = tmp_path / "BENCH.json"
    bench_trajectory.main(["--parent", str(write(tmp_path / "p.jsonl", parent)),
                           "--change", str(write(tmp_path / "c.jsonl", change)), "--out", str(out)])
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["environment"]["nproc"] == 2 and "driver_load_start" not in summary["environment"]
    train = summary["workloads"]["train"]
    assert sorted(train["end_to_end"]["load"]) == [str(s) for s in range(10)]
    assert train["end_to_end"]["load"]["3"]["change"] == {
        "driver_load_start": [0.5, 0.6, 0.7], "driver_load_end": [0.9, 0.7, 0.7]
    }
    speed = train["end_to_end"]["metrics"]["examples_per_s"]
    assert speed["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75, "n": 10}
    assert speed["change_wins"] == 9 and speed["pairs"] == 10
    assert speed["gain_rule_met"] and speed["within_bound"]
    rss = train["end_to_end"]["metrics"]["peak_rss_mb"]
    # lower is better: +22% is no gain and breaks the 10% bound
    assert rss["change_wins"] == 0 and not rss["gain_rule_met"] and not rss["within_bound"]
    assert train["per_layer"]["parent"]["metrics"] == {"autodiff.bwd_ms.matmul": 40.0}
    assert train["per_layer"]["change"]["metrics"] == {"autodiff.bwd_ms.matmul": 15.0}
    assert summary["workloads"]["eval"]["end_to_end"]["metrics"] == {}


def test_a_repeated_run_is_refused(tmp_path):
    parent = [record("eval", s, 0, examples_per_s=100.0) for s in range(3)]
    # a stale run of seed 1 left in the change's file next to a new one
    change = [record("eval", s, 0, examples_per_s=120.0) for s in range(3)]
    change.append(record("eval", 1, 0, examples_per_s=80.0))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="workload eval, seed 1, trace 0 is run twice"):
        bench_trajectory.main(["--parent", str(write(tmp_path / "p.jsonl", parent)),
                               "--change", str(write(tmp_path / "c.jsonl", change)), "--out", str(out)])
    assert not out.exists()
