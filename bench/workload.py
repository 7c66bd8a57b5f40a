"""One benchmark workload, run in a fresh process through the layerbridge CLI.

``run.py`` spawns this file once per set-up probe and once per measured or
traced run; it can also be run by hand:

    python3 bench/workload.py --workload eval --seed 0 --seconds 25 \\
        --mode run --run-dir .bench_runs/manual --out .bench_runs/manual.json

The workload writes its run config (and, for ``eval`` and ``analyze``, a
checkpoint) from the seed, then calls ``layerbridge.cli.main`` in-process,
exactly as a user's command would run. It never re-implements the program's
loops: ops are timed by wrappers around the program's own functions (see
``tracer.py``). The result, raw timings included, is written as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import OpClock, Patcher, SetupReached, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

WORKLOADS = ("train", "eval", "analyze")
# --seed picks one of SLOTS input sets; each has a stored reference output
SLOTS = 16
MODES = ("run", "probe", "trace")

# The calibrated desk shapes: the default 6x64 encoder and 4x128 decoder,
# SyntheticRunSettings' stage hyperparameters, and the copy-task corpus
# fields of training.benchmark_spec. Pinned here rather than read from the
# program, so a change to the program's defaults cannot change the workload.
SHAPES = {
    "encoder": {"vocab_size": 512, "d_enc": 64, "n_layers": 6, "n_heads": 4, "d_ff": 128},
    "decoder": {"vocab_size": 512, "d_dec": 128, "n_layers": 4, "n_heads": 4, "d_ff": 256},
}
STAGES = {
    "stage1": {"learning_rate": 2e-2, "epochs": 3, "batch_size": 32, "warmup_ratio": 0.05, "trace_every": 10},
    "stage2": {"learning_rate": 1e-2, "epochs": 6, "batch_size": 32, "warmup_ratio": 0.05, "trace_every": 10},
}
CORPUS = {"lrl_fraction": 0.30, "tasks": ["copy"], "active_words": 80, "copy_max_words": 3}
# split sizes for the splits a workload generates but never reads
UNREAD = {"stage1_per_hrl": 2, "stage2_per_lang": 2, "eval_per_lang": 2, "parallel_sentences": 2}
# rows per second of run length, so that the op loop lasts about --seconds
# on a 2-core x86-64 VM at one BLAS thread
RATES = {
    "train": {"stage1_per_hrl": 25, "stage2_per_lang": 10},
    "eval": {"eval_per_lang": 12},
    "analyze": {"parallel_sentences": 26},
}

# (function that marks each op's end, function that marks a phase start,
#  whether the phase starts on entry or on return)
OP_HOOKS = {
    "train": (("layerbridge.training", "adam_step"), ("layerbridge.training", "tokenize_examples"), "after"),
    "eval": (("layerbridge.model:BridgedModel", "generate_answer"), ("layerbridge.cli", "evaluate"), "before"),
    "analyze": (("layerbridge.model:BridgedModel", "forward_batch"), ("layerbridge.cli", "build_report"), "before"),
}

# traced spans: (owner, attribute, span name). Functions a module imported
# by name are patched where they are called from.
SPANS = (
    ("layerbridge.cli", "load_run_config", "config.load"),
    ("layerbridge.config", "load_run_config", "config.load"),
    ("layerbridge.cli", "generate_synthetic_corpus", "data.generate"),
    ("layerbridge.cli", "build_model", "model.build"),
    ("layerbridge.config", "build_model", "model.build"),
    ("layerbridge.cli", "load_checkpoint", "checkpoint.load"),
    ("layerbridge.cli", "save_checkpoint", "checkpoint.save"),
    ("layerbridge.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("layerbridge.cli", "train_stage1", "training.run_stage"),
    ("layerbridge.cli", "train_stage2", "training.run_stage"),
    ("layerbridge.training", "tokenize_examples", "training.tokenize"),
    ("layerbridge.training", "adam_step", "optim.adam_step"),
    ("layerbridge.cli", "evaluate", "training.evaluate"),
    ("layerbridge.cli", "build_report", "analysis.build_report"),
    ("layerbridge.cli", "write_report", "analysis.write_report"),
    ("layerbridge.analysis", "collect_pooled_reps", "analysis.collect_pooled_reps"),
    ("layerbridge.analysis", "norm_ratio_profile", "analysis.norm_ratio_profile"),
    ("layerbridge.analysis", "pca_project", "analysis.pca_project"),
    ("layerbridge.autodiff", "backward", "autodiff.backward"),
    ("layerbridge.model:BridgedModel", "forward_batch", "model.forward_batch"),
    ("layerbridge.model:BridgedModel", "generate_answer", "model.generate_answer"),
    ("layerbridge.model", "adapt", "bridge.adapt"),
    ("layerbridge.bridge:LayerWiseAligner", "fuse_all", "bridge.fuse_all"),
    ("layerbridge.encoder:Encoder", "forward", "encoder.forward"),
    ("layerbridge.decoder:Decoder", "forward", "decoder.forward"),
    ("layerbridge.model", "generate", "decoder.generate"),
)
AUTODIFF_OPS = (
    "matmul", "add", "mul", "layer_norm", "softmax", "concat",
    "narrow", "reshape", "transpose", "relu", "take", "cross_entropy",
)
REPORT_FILES = ("cosine.csv", "pca.csv", "norm_ratio.csv", "aligner_matrix.csv", "gates.csv")


def slot_of(seed: int) -> int:
    return seed % SLOTS


def run_config(workload: str, slot: int, scale: float, out_dir: Path) -> dict:
    """The run config for one workload; split sizes grow with ``scale``."""
    synth = dict(CORPUS, **UNREAD)
    for key, rate in RATES[workload].items():
        synth[key] = max(1, round(rate * scale))
    return {
        "seed": slot,
        "out_dir": str(out_dir),
        **SHAPES,
        **STAGES,
        "data": {"synth": synth},
        "diagnostics": {"plots": False},
    }


def resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def planned_ops(workload: str, config) -> int:
    spec = config.data.synth
    langs = list(spec.languages)
    if workload == "train":
        total = 0
        for stage, count in ((config.stage1, spec.stage1_count), (config.stage2, spec.stage2_count)):
            rows = sum(count(lang) for lang in langs)
            total += stage.epochs * math.ceil(rows / stage.batch_size)
        return total
    if workload == "eval":
        return spec.eval_per_lang * len(langs)
    return 2 * spec.parallel_sentences * (len(langs) + 1)


def cli_calls(workload: str, config_path: Path, out_dir: Path, fixture: Path) -> list[list[str]]:
    cfg = ["--config", str(config_path)]
    if workload == "train":
        return [
            ["train", *cfg, "--stage", "1"],
            ["train", *cfg, "--stage", "2", "--resume", str(out_dir / "checkpoint.bin")],
        ]
    return [[workload, str(fixture), *cfg]]


def write_fixture(config_path: Path, slot: int, path: Path) -> None:
    """Checkpoint of a freshly built bridge with every gate opened.

    Gates are drawn from [0.25, 0.75] so cross-attention is live in every
    decoder layer; an untrained model has gates at exactly 0.
    """
    import numpy as np
    from layerbridge import checkpoint, config

    run_cfg = config.load_run_config(config_path)
    model = config.build_model(run_cfg)
    rng = np.random.default_rng(np.random.SeedSequence([slot, 0xBE7C]))
    for gate, value in zip(model.gates.values, rng.uniform(0.25, 0.75, size=len(model.gates.values))):
        gate.data[:] = value
    ckpt = checkpoint.checkpoint_from_params(model.trainable_params(), config.config_digest(run_cfg), "task", 0)
    checkpoint.save_checkpoint(path, ckpt)


def install_op_clock(patcher: Patcher, workload: str, clock: OpClock) -> None:
    (op_owner, op_attr), (phase_owner, phase_attr), when = OP_HOOKS[workload]
    patcher.patch(resolve(op_owner), op_attr, clock.op_end)
    patcher.patch(resolve(phase_owner), phase_attr, clock.phase_before if when == "before" else clock.phase_after)


def install_tracer(patcher: Patcher, tracer: Tracer) -> list[int]:
    """Wrap every span in ``SPANS``, ``nn.attention`` and the autodiff ops.

    Returns the list that collects the tape length of every backward pass.
    """
    from layerbridge import autodiff

    counts, inside = tracer.counts, tracer.inside
    tape_entries: list[int] = []

    def encoder_positions(args, kwargs, result):
        counts["encoder.positions"] += args[1].shape[0] * args[1].shape[1]

    def decoder_positions(args, kwargs, result):
        positions = args[1].shape[0] * args[1].shape[1]
        counts["decoder.positions"] += positions
        if inside["decoder.generate"]:
            counts["generate.positions"] += positions

    def generated(args, kwargs, result):
        counts["generate.tokens"] += len(result)

    def saved(args, kwargs, result):
        counts["checkpoint.bytes"] += os.path.getsize(result)

    def loaded(args, kwargs, result):
        counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def rejected(args, kwargs, result):
        counts["optim.rejected_steps"] += result is False

    def tape_length(args, kwargs, result):
        tape_entries.append(len(args[0].entries))

    callbacks = {
        "encoder.forward": (encoder_positions, False),
        "decoder.forward": (decoder_positions, False),
        "decoder.generate": (generated, True),
        "checkpoint.save": (saved, False),
        "checkpoint.load": (loaded, False),
        "optim.adam_step": (rejected, False),
        "autodiff.backward": (tape_length, False),
    }
    for owner, attr, name in SPANS:
        after, track = callbacks.get(name, (None, False))
        patcher.patch(resolve(owner), attr, lambda fn, n=name, a=after, t=track: tracer.timed(n, fn, a, t))

    def attention(fn):
        self_attn = tracer.timed("nn.attention.self", fn)
        cross_attn = tracer.timed("nn.attention.cross", fn)

        def wrapper(*args, **kwargs):
            # cross-attention's bias is a key mask [B, 1, 1, S_k]; self-attention's
            # is causal [B, 1, S, S]
            bias = kwargs.get("bias", args[4] if len(args) > 4 else None)
            if bias is not None and bias.shape[-2] == 1 and args[0].shape[1] > 1:
                return cross_attn(*args, **kwargs)
            return self_attn(*args, **kwargs)

        return wrapper

    patcher.patch(resolve("layerbridge.nn"), "attention", attention)
    patcher.patch(resolve("layerbridge.decoder"), "attention", attention)

    def matmul_flops(args, kwargs, result):
        counts["matmul.flop"] += 2.0 * result.size * args[0].shape[-1]

    def autodiff_op(op):
        def make(fn):
            forward = tracer.timed(f"autodiff.fwd.{op}", fn, matmul_flops if op == "matmul" else None)
            backward_name = f"autodiff.bwd.{op}"

            def wrapper(*args, **kwargs):
                tape = autodiff.active_tape()
                before = len(tape.entries) if tape is not None else -1
                out = forward(*args, **kwargs)
                if tape is not None and len(tape.entries) == before + 1:
                    entry = tape.entries[-1]
                    after = None
                    if op == "matmul":
                        flop = 2.0 * out.size * args[0].shape[-1]

                        def after(a, k, grads, flop=flop):
                            counts["matmul.flop"] += flop * sum(g is not None for g in grads)

                    entry.backward_rule = tracer.timed(backward_name, entry.backward_rule, after)
                return out

            return wrapper

        return make

    for op in AUTODIFF_OPS:
        patcher.patch(autodiff, op, autodiff_op(op))
    return tape_entries


# per-layer metrics: name -> (unit, source kind, key)
LAYER_METRICS = {
    "encoder.forward.calls": ("count", "calls", "encoder.forward"),
    "encoder.forward.ms": ("ms", "self", "encoder.forward"),
    "encoder.forward.positions": ("count", "count", "encoder.positions"),
    "bridge.adapt.ms": ("ms", "self", "bridge.adapt"),
    "bridge.fuse_all.calls": ("count", "calls", "bridge.fuse_all"),
    "bridge.fuse_all.ms": ("ms", "self", "bridge.fuse_all"),
    "bridge.fuse_all.total_ms": ("ms", "total", "bridge.fuse_all"),
    "nn.attention.self.calls": ("count", "calls", "nn.attention.self"),
    "nn.attention.self.ms": ("ms", "self", "nn.attention.self"),
    "nn.attention.self.total_ms": ("ms", "total", "nn.attention.self"),
    "nn.attention.cross.calls": ("count", "calls", "nn.attention.cross"),
    "nn.attention.cross.ms": ("ms", "self", "nn.attention.cross"),
    "nn.attention.cross.total_ms": ("ms", "total", "nn.attention.cross"),
    "model.build.ms": ("ms", "self", "model.build"),
    "model.forward_batch.calls": ("count", "calls", "model.forward_batch"),
    "model.forward_batch.self_ms": ("ms", "self", "model.forward_batch"),
    "model.generate_answer.self_ms": ("ms", "self", "model.generate_answer"),
    "decoder.forward.calls": ("count", "calls", "decoder.forward"),
    "decoder.forward.self_ms": ("ms", "self", "decoder.forward"),
    "decoder.forward.total_ms": ("ms", "total", "decoder.forward"),
    "decoder.forward.positions": ("count", "count", "decoder.positions"),
    "decoder.generate.calls": ("count", "calls", "decoder.generate"),
    "decoder.generate.ms": ("ms", "self", "decoder.generate"),
    "decoder.generate.total_ms": ("ms", "total", "decoder.generate"),
    "decoder.generate.tokens": ("count", "count", "generate.tokens"),
    "decoder.positions_per_token": ("pos/token", "derived", None),
    **{f"autodiff.fwd_ms.{op}": ("ms", "self", f"autodiff.fwd.{op}") for op in AUTODIFF_OPS},
    **{f"autodiff.bwd_ms.{op}": ("ms", "self", f"autodiff.bwd.{op}") for op in AUTODIFF_OPS},
    "autodiff.backward.ms": ("ms", "self", "autodiff.backward"),
    "autodiff.backward.total_ms": ("ms", "total", "autodiff.backward"),
    "autodiff.tape_entries_per_step": ("count", "derived", None),
    "autodiff.matmul.gflop": ("GFLOP", "derived", None),
    "autodiff.matmul.gflop_per_s": ("GFLOP/s", "derived", None),
    "optim.adam_step.ms": ("ms", "self", "optim.adam_step"),
    "optim.rejected_steps": ("count", "count", "optim.rejected_steps"),
    "checkpoint.save.ms": ("ms", "self", "checkpoint.save"),
    "checkpoint.load.ms": ("ms", "self", "checkpoint.load"),
    "checkpoint.bytes": ("bytes", "count", "checkpoint.bytes"),
    "config.load.ms": ("ms", "self", "config.load"),
    "data.generate.ms": ("ms", "self", "data.generate"),
    "training.tokenize.ms": ("ms", "self", "training.tokenize"),
    "training.run_stage.self_ms": ("ms", "self", "training.run_stage"),
    "training.evaluate.self_ms": ("ms", "self", "training.evaluate"),
    "analysis.build_report.self_ms": ("ms", "self", "analysis.build_report"),
    "analysis.collect_pooled_reps.ms": ("ms", "self", "analysis.collect_pooled_reps"),
    "analysis.norm_ratio_profile.ms": ("ms", "self", "analysis.norm_ratio_profile"),
    "analysis.pca_project.ms": ("ms", "self", "analysis.pca_project"),
    "analysis.write_report.ms": ("ms", "self", "analysis.write_report"),
    "cli.self_ms": ("ms", "self", "cli"),
    "bench.fixture.self_ms": ("ms", "self", "bench.fixture"),
    "trace.wall_ms": ("ms", "derived", None),
    "trace.self_sum_ms": ("ms", "derived", None),
    "trace.op_ms.p50": ("ms", "derived", None),
}
# filled in by run.py from the untraced companion run
OVERHEAD_METRICS = {
    "trace.untraced_wall_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, tape_entries: list[int], op_ms: list[float]) -> dict:
    """Per-layer values of a traced run, as ``{name: [value, unit]}``."""
    counts = tracer.counts
    matmul_s = tracer.self_s.get("autodiff.fwd.matmul", 0.0) + tracer.self_s.get("autodiff.bwd.matmul", 0.0)
    gflop = counts["matmul.flop"] / 1e9
    derived = {
        "decoder.positions_per_token": (
            counts["generate.positions"] / counts["generate.tokens"] if counts["generate.tokens"] else 0.0
        ),
        "autodiff.tape_entries_per_step": float(statistics.median(tape_entries)) if tape_entries else 0.0,
        "autodiff.matmul.gflop": gflop,
        "autodiff.matmul.gflop_per_s": gflop / matmul_s if matmul_s else 0.0,
        "trace.wall_ms": 1e3 * tracer.wall_s,
        "trace.self_sum_ms": 1e3 * sum(tracer.self_s.values()),
        "trace.op_ms.p50": statistics.median(op_ms) if op_ms else 0.0,
    }
    out = {}
    for name, (unit, kind, key) in LAYER_METRICS.items():
        if kind == "derived":
            value = derived[name]
        elif kind == "calls":
            value = tracer.calls.get(key, 0)
        elif kind == "count":
            value = counts.get(key, 0.0)
        else:
            value = 1e3 * (tracer.self_s if kind == "self" else tracer.total_s).get(key, 0.0)
        out[name] = [value, unit]
    return out


def check_report(report_dir: Path, sentences: int, n_langs: int, n_layers: int) -> list[str]:
    """Problems with the five report CSVs: missing, ragged, non-numeric or short."""
    expected = {
        "cosine.csv": n_langs * (sentences + 1),
        "pca.csv": (n_langs + 1) * sentences,
        "norm_ratio.csv": n_layers,
        "aligner_matrix.csv": n_layers,
        "gates.csv": n_layers,
    }
    problems = []
    for name in REPORT_FILES:
        path = report_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            problems.append(f"{name}: empty")
            continue
        header, *rows = lines
        width = len(header.split(","))
        for row in rows:
            cells = row.split(",")
            try:
                finite = len(cells) == width and math.isfinite(float(cells[-1]))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"{name}: bad row {row!r}")
                break
        if len(rows) != expected[name]:
            problems.append(f"{name}: {len(rows)} rows, expected {expected[name]}")
    return problems


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run(workload: str, seed: int, scale: float, mode: str, run_dir: Path,
        spawned_at: float | None = None) -> dict:
    """Run one workload in this process and return its raw result."""
    from layerbridge import cli
    from layerbridge.config import load_run_config

    load_start = os.getloadavg()
    slot = slot_of(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    out_dir = run_dir / "out"
    config_path = run_dir / "config.json"
    fixture = run_dir / "fixture.bin"
    config_path.write_text(json.dumps(run_config(workload, slot, scale, out_dir), indent=1), encoding="utf-8")
    config = load_run_config(config_path, environ={})

    clock = OpClock(keep_results=workload == "eval", probe=mode == "probe")
    patcher = Patcher()
    tracer = Tracer()
    result = {
        "workload": workload, "seed": seed, "slot": slot, "scale": scale, "mode": mode,
        "ops_attempted": planned_ops(workload, config),
    }
    exit_codes: list[int] = []
    metadata: list[dict] = []
    wall_s = 0.0
    try:
        install_op_clock(patcher, workload, clock)
        tape_entries = install_tracer(patcher, tracer) if mode == "trace" else []
        result["hooks"] = patcher.names()

        def timed(name, fn, *args):
            nonlocal wall_s
            start = time.perf_counter()
            try:
                return tracer.call(name, fn, *args) if mode == "trace" else fn(*args)
            finally:
                wall_s += time.perf_counter() - start

        if workload != "train":
            timed("bench.fixture", write_fixture, config_path, slot, fixture)
        for argv in cli_calls(workload, config_path, out_dir, fixture):
            exit_codes.append(timed("cli", cli.main, argv))
            if workload == "train" and (out_dir / "metadata.json").is_file():
                metadata.append(json.loads((out_dir / "metadata.json").read_text(encoding="utf-8")))
        end = time.perf_counter()
    except SetupReached:
        result["setup_s"] = clock.phases[0][1] - spawned_at
        return result
    finally:
        patcher.restore()

    op_ms = [1e3 * d for d in clock.durations()]
    first_start = clock.phases[0][1] if clock.phases else end
    rows, tokens = count_work(workload, clock)
    result.update(
        exit_codes=exit_codes,
        setup_s=None if spawned_at is None else first_start - spawned_at,
        ops_completed=len(clock.ends),
        op_ms=op_ms,
        timed_s=end - first_start,
        rows=rows,
        tokens=tokens,
        wall_s=wall_s,
        rejected_steps=sum(m["rejected_steps"] for m in metadata),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=dict(environment(), load_start=load_start, load_end=os.getloadavg()),
    )
    if workload == "train":
        result["final_losses"] = [m["final_loss"] for m in metadata]
        result["last_epoch_losses"] = [m["epoch_losses"][-1] for m in metadata]
    elif workload == "eval":
        result["answers"] = [answer_digest(ids) for ids in clock.results]
    else:
        spec = config.data.synth
        result["report_problems"] = check_report(
            out_dir / "report", spec.parallel_sentences, len(spec.languages), config.decoder.n_layers
        )
    if mode == "trace":
        result["layers"] = layer_metrics(tracer, tape_entries, op_ms)
    return result


def count_work(workload: str, clock: OpClock) -> tuple[int, int]:
    """(rows, tokens) the completed op loops processed.

    Tokens are supervised target tokens plus end markers for ``train``,
    emitted answer tokens for ``eval``, and the teacher-forced response
    tokens each ``analyze`` row pools over.
    """
    if workload == "train":
        rows = tokens = 0
        for (_, _, (srcs, tgts)), stage in zip(clock.phases, ("stage1", "stage2")):
            epochs = STAGES[stage]["epochs"]
            rows += epochs * len(srcs)
            tokens += epochs * sum(len(t) + 1 for t in tgts)
        return rows, tokens
    if workload == "eval":
        return len(clock.results), sum(len(ids) for ids in clock.results)
    rows = tokens = 0
    for _, _, args in clock.phases:
        parallel_rows, vocab = args[1], args[2]
        rows += len(parallel_rows)
        tokens += sum(len(vocab.encode(row["base"])) for row in parallel_rows)
    return rows, tokens


def answer_digest(ids) -> str:
    return hashlib.sha256(",".join(str(int(i)) for i in ids).encode()).hexdigest()[:8]


def main(argv=None) -> int:
    # pin BLAS and OpenMP to one thread before numpy can load
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=MODES, default="run")
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, help="perf_counter() reading when the parent spawned this")
    args = parser.parse_args(argv)
    if not (SRC_DIR / "layerbridge").is_dir():
        print(f"no layerbridge package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    result = run(args.workload, args.seed, args.seconds, args.mode, args.run_dir, args.spawned_at)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
