"""Run the full synthetic benchmark: four arms on one cipher corpus.

Trains full, skip_stage1, no_aligner, and untrained on the calibrated
three-language corpus, then prints a per-language exact-match table and the
low-resource margins. With --out, also writes results.csv and one trace CSV
per trained arm.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layerbridge.data import generate_synthetic_corpus
from layerbridge.training import ARMS, benchmark_spec, run_synthetic_benchmark, write_trace


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="directory for results.csv and trace files")
    ap.add_argument("--arms", default=",".join(ARMS))
    args = ap.parse_args()

    arms = tuple(a.strip() for a in args.arms.split(",") if a.strip())
    spec = benchmark_spec()
    print(f"generating corpus (seed {args.seed})...")
    corpus = generate_synthetic_corpus(spec, seed=args.seed)
    print(f"  stage1 {len(corpus.stage1)} rows, stage2 {len(corpus.stage2)} rows, "
          f"eval {len(corpus.eval_task)} rows")

    t0 = time.time()
    outcomes = run_synthetic_benchmark(corpus, args.seed, arms=arms)
    elapsed = time.time() - t0

    langs = sorted(corpus.tiers())
    print()
    print(f"{'arm':14s}" + "".join(f"{lang:>10s}" for lang in langs) + f"{'Avg':>10s}{'Lrl':>10s}")
    for name, outcome in outcomes.items():
        rep = outcome.report
        row = f"{name:14s}" + "".join(f"{rep.per_lang[lang]:10.1f}" for lang in langs)
        row += f"{rep.aggregates['Avg']:10.1f}{rep.aggregates['Lrl']:10.1f}"
        print(row)

    if "full" in outcomes:
        full_lrl = outcomes["full"].report.aggregates["Lrl"]
        print()
        for other in ("skip_stage1", "no_aligner", "untrained"):
            if other in outcomes:
                margin = full_lrl - outcomes[other].report.aggregates["Lrl"]
                print(f"low-resource margin, full vs {other}: {margin:+.1f}")
    print(f"\ntotal time: {elapsed:.0f}s")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["arm,lang,accuracy"]
        for name, outcome in outcomes.items():
            for lang in langs:
                lines.append(f"{name},{lang},{outcome.report.per_lang[lang]!r}")
            for key in ("Avg", "Lrl", "Hrl"):
                lines.append(f"{name},{key},{outcome.report.aggregates[key]!r}")
        (out_dir / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for name, outcome in outcomes.items():
            for result in outcome.results:
                write_trace(out_dir / f"trace_{name}_{result.stage}.csv", result.trace)
        print(f"wrote {out_dir / 'results.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
