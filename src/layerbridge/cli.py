"""Command-line entry point: gen-synth, train, eval, analyze, experiment.

``experiment`` trains the benchmark arms (``training.ARMS``) with
``RunConfig()``'s recipe, on its corpus, at each of several seeds, prints
each seed's exact-match table and the worst low-resource margins against
``training.MARGINS``, and exits 1 when a margin falls short.

Every command is deterministic given (config, seed, corpus bytes): outputs
carry no timestamps, floats are written with repr, and every file, the
optional PNG plots included, goes through ``files.write_atomic``. Exit codes:
0 success, 1 experiment verdict FAIL, 2 configuration or contract problem,
3 numeric failure, 4 I/O problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import build_report, import_pyplot, write_report
from .checkpoint import checkpoint_from_params, load_checkpoint, restore_params, save_checkpoint
from .config import RunConfig, build_model, config_digest, load_run_config
from .data import STAGE_TRANSLATION, STAGES, generate_synthetic_corpus, load_corpus_dir, write_corpus_dir
from .errors import ConfigError, EmptyLossError, IngestionError, LayerBridgeError, NumericError, PairingError
from .files import build, write_atomic
from .training import (
    ARMS,
    MARGINS,
    REFERENCE_STAGES,
    EvalReport,
    evaluate,
    train_arms,
    train_stage1,
    train_stage2,
    write_trace,
)

STAGE_NAMES = {str(i): tag for i, tag in enumerate(STAGES, start=1)}


def _load_config(args) -> RunConfig:
    """The run config: flags over ``LAYERBRIDGE_*`` variables over the config
    file, the flags built as one more override object by the same builder."""
    ablations = {name.strip(): True for name in (args.ablate or "").split(",") if name.strip()}
    if args.layers is not None:
        ablations["layer_subset"] = args.layers
    flags = {"seed": args.seed, "out_dir": args.out, "ablations": ablations}
    return build(load_run_config(args.config), {k: v for k, v in flags.items() if v is not None}, "")


def _load_corpus(config: RunConfig):
    if config.data.corpus_dir is not None:
        return load_corpus_dir(config.data.corpus_dir)
    return generate_synthetic_corpus(config.data.synth, config.seed)


def cmd_gen_synth(args) -> int:
    config = _load_config(args)
    corpus = generate_synthetic_corpus(config.data.synth, config.seed)
    out_dir = Path(config.out_dir) / "corpus"
    paths = write_corpus_dir(out_dir, corpus, config.seed)
    counts = {
        "stage1": len(corpus.stage1),
        "stage2": len(corpus.stage2),
        "eval_task": len(corpus.eval_task),
        "eval_parallel": len(corpus.eval_parallel),
    }
    print(f"wrote {len(paths)} files under {out_dir}")
    for name, count in counts.items():
        print(f"  {name}: {count} rows")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    stage = STAGE_NAMES[args.stage]
    digest = config_digest(config)
    out_dir = Path(config.out_dir)

    corpus = _load_corpus(config)
    model = build_model(config)
    if args.resume is not None:
        ckpt = load_checkpoint(args.resume, expected_digest=digest, force=args.force)
        restore_params(model.trainable_params(), ckpt)

    if stage == STAGE_TRANSLATION:
        plan, examples, train = config.stage1, corpus.stage1, train_stage1
    else:
        plan, examples, train = config.stage2, corpus.stage2, train_stage2
    ckpt_path = out_dir / "checkpoint.bin"
    trace_path = out_dir / f"trace_stage{args.stage}.csv"

    def on_epoch_end(epoch: int, epoch_loss: float, steps: int) -> None:
        save_checkpoint(
            ckpt_path,
            checkpoint_from_params(model.trainable_params(), digest, stage, steps),
        )

    result = train(model, plan, examples, corpus.vocab, config.seed, on_epoch_end)
    write_trace(trace_path, result.trace)
    metadata = {
        "stage": stage,
        "seed": config.seed,
        "config_digest": digest,
        "ablations": config.ablations.active(),
        "resumed": args.resume is not None,
        "plan": dataclasses.asdict(plan),
        "reference_defaults": {
            f"stage{i}": dataclasses.asdict(ref) for i, ref in enumerate(REFERENCE_STAGES, start=1)
        },
        "steps": result.steps,
        "rejected_steps": result.rejected_steps,
        "final_loss": result.final_loss,
        "epoch_losses": result.epoch_losses,
        "gates": model.gates.snapshot(),
        "corpus_rows": len(examples),
    }
    write_atomic(out_dir / "metadata.json", json.dumps(metadata, sort_keys=True, indent=2) + "\n")
    print(f"stage {args.stage} done: {result.steps} steps, final loss {result.final_loss:.4f}")
    print(f"checkpoint: {ckpt_path}")
    if not np.isfinite(result.final_loss):
        print("final loss is not finite", file=sys.stderr)
        return 3
    return 0


def _restore_for_inference(config: RunConfig, checkpoint_path: str, force: bool):
    model = build_model(config)
    ckpt = load_checkpoint(checkpoint_path, expected_digest=config_digest(config), force=force)
    restore_params(model.trainable_params(), ckpt)
    return model


def write_eval_csv(path: Path, report: EvalReport) -> None:
    lines = ["name,kind,accuracy"]
    for lang, acc in sorted(report.per_lang.items()):
        lines.append(f"{lang},language,{acc!r}")
    for key in ("Avg", "Lrl", "Hrl"):
        lines.append(f"{key},aggregate,{report.aggregates[key]!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def cmd_eval(args) -> int:
    config = _load_config(args)
    corpus = _load_corpus(config)
    model = _restore_for_inference(config, args.checkpoint, args.force)
    report = evaluate(model, corpus.eval_task, corpus.vocab, corpus.tiers())
    write_eval_csv(Path(config.out_dir) / "eval.csv", report)
    for lang, acc in sorted(report.per_lang.items()):
        print(f"{lang:12s} {acc:6.1f}")
    for key in ("Avg", "Lrl", "Hrl"):
        print(f"{key:12s} {report.aggregates[key]:6.1f}")
    return 0


def cmd_analyze(args) -> int:
    config = _load_config(args)
    if config.diagnostics.plots:
        import_pyplot()  # refuse before the analysis runs and any file is written
    corpus = _load_corpus(config)
    model = _restore_for_inference(config, args.checkpoint, args.force)
    report = build_report(model, corpus.eval_parallel, corpus.vocab)
    out_dir = Path(config.out_dir) / "report"
    paths = write_report(out_dir, report, plots=config.diagnostics.plots)
    print(f"wrote {len(paths)} report files under {out_dir}")
    return 0


def _parse_list(text: str, flag: str, parse) -> list:
    """The comma-separated tokens of ``text``, each through ``parse``, which
    raises ``ConfigError`` on a bad one; a repeated token is refused too."""
    items = []
    for token in (t.strip() for t in text.split(",")):
        item = parse(token)
        if item in items:
            raise ConfigError(f"{flag}: {token!r} given twice")
        items.append(item)
    return items


def _seed(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ConfigError(f"--seeds: {token!r} is not a non-negative integer")
    return int(token)


def _arm(token: str) -> str:
    if token not in ARMS:
        raise ConfigError(f"--arms: unknown arm {token!r}; expected names from {list(ARMS)}")
    return token


def cmd_experiment(args) -> int:
    seeds = _parse_list(args.seeds, "--seeds", _seed)
    arms = _parse_list(args.arms, "--arms", _arm)
    judged = [arm for arm in MARGINS if arm in arms] if "full" in arms else []
    worst = {arm: float("inf") for arm in judged}
    keys = ("Avg", "Lrl", "Hrl")
    for seed in seeds:
        config = dataclasses.replace(RunConfig(), seed=seed)
        corpus = generate_synthetic_corpus(config.data.synth, seed)
        outcomes = train_arms(config, corpus, arms)
        langs = sorted(corpus.tiers())
        print(f"seed {seed}")
        print(f"{'arm':14s}" + "".join(f"{name:>10s}" for name in (*langs, *keys)))
        for arm, outcome in outcomes.items():
            rep = outcome.report
            cells = [rep.per_lang[lang] for lang in langs] + [rep.aggregates[key] for key in keys]
            print(f"{arm:14s}" + "".join(f"{value:10.1f}" for value in cells))
            if args.out:
                cell = Path(args.out) / f"seed{seed}" / arm
                write_eval_csv(cell / "eval.csv", rep)
                for result in outcome.results:
                    write_trace(cell / f"trace_stage{STAGES.index(result.stage) + 1}.csv", result.trace)
        if judged:
            full = outcomes["full"].report.aggregates["Lrl"]
            margins = {arm: full - outcomes[arm].report.aggregates["Lrl"] for arm in judged}
            worst = {arm: min(worst[arm], margins[arm]) for arm in judged}
            print("low-resource margins against full: "
                  + ", ".join(f"{arm} {m:+.1f}" for arm, m in margins.items()))
        print(flush=True)
    if not judged:
        print("no verdict: the margins need full and at least one of " + ", ".join(MARGINS))
        return 0
    print("worst margins: " + ", ".join(
        f"{arm} {worst[arm]:+.1f} (need >= {MARGINS[arm]:g})" for arm in judged))
    ok = all(worst[arm] >= MARGINS[arm] for arm in judged)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override config output directory")
    parser.add_argument("--ablate", help="comma-separated ablation flags to enable")
    parser.add_argument("--layers", help="fix the aligner's mixture: last_hidden reads the final "
                        "encoder state alone, average weights every state equally")
    parser.add_argument("--force", action="store_true", help="skip config digest checks on load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerbridge",
        description="Train and probe a frozen encoder-decoder bridge with layer-wise fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a synthetic cipher corpus")
    _add_common(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="run one training stage")
    _add_common(p)
    p.add_argument("--stage", choices=("1", "2"), required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the task split")
    _add_common(p)
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="write the diagnostics report directory")
    _add_common(p)
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("experiment", help="train the benchmark arms at each seed and judge the margins")
    p.add_argument("--seeds", default="0", help="comma-separated seeds (default: 0)")
    p.add_argument("--arms", default=",".join(ARMS), help=f"comma-separated arms from {', '.join(ARMS)}")
    p.add_argument("--out", help="directory for one eval.csv and trace files per seed and arm")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, EmptyLossError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except (IngestionError, PairingError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except LayerBridgeError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
