"""Calibrate the benchmark margins across seeds.

Runs the four-arm benchmark once per seed and prints the low-resource
exact-match levels and margins, so the pinned thresholds (full over
skip_stage1 and no_aligner by 5 points, over untrained by 30) can be checked
against fresh corpus draws before anyone trusts a red or green run.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layerbridge.data import generate_synthetic_corpus
from layerbridge.training import ARMS, benchmark_spec, run_synthetic_benchmark


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    spec = benchmark_spec()
    rows = []
    for seed in seeds:
        corpus = generate_synthetic_corpus(spec, seed=seed)
        t0 = time.time()
        outcomes = run_synthetic_benchmark(corpus, seed)
        elapsed = time.time() - t0
        lrl = {name: outcomes[name].report.aggregates["Lrl"] for name in ARMS}
        rows.append((seed, lrl, elapsed))
        print(f"seed {seed}: " + "  ".join(f"{n}={lrl[n]:.1f}" for n in ARMS)
              + f"  ({elapsed:.0f}s)", flush=True)

    print()
    print(f"{'seed':>4s} {'full-skip':>10s} {'full-noalign':>13s} {'full-untrained':>15s}")
    worst = {"skip": float("inf"), "noalign": float("inf"), "untrained": float("inf")}
    for seed, lrl, _ in rows:
        m_skip = lrl["full"] - lrl["skip_stage1"]
        m_na = lrl["full"] - lrl["no_aligner"]
        m_un = lrl["full"] - lrl["untrained"]
        worst["skip"] = min(worst["skip"], m_skip)
        worst["noalign"] = min(worst["noalign"], m_na)
        worst["untrained"] = min(worst["untrained"], m_un)
        print(f"{seed:4d} {m_skip:10.1f} {m_na:13.1f} {m_un:15.1f}")
    print(f"\nworst margins: skip {worst['skip']:.1f} (need >= 5), "
          f"no_aligner {worst['noalign']:.1f} (need >= 5), "
          f"untrained {worst['untrained']:.1f} (need >= 30)")
    ok = worst["skip"] >= 5 and worst["noalign"] >= 5 and worst["untrained"] >= 30
    print("calibration PASS" if ok else "calibration FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
