"""Representation diagnostics: pooled cosine, PCA, norm ratios, heatmaps.

All quantities are pure functions of (parameters, data), computed in float64
and emitted as CSVs so two runs of the same checkpoint produce identical
bytes. Pooling covers the response span of the final decoder layer, so
padding positions are never pooled.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bridge import aligner_weight_matrix
from .data import STAGE_TRANSLATION, Vocabulary
from .errors import ConfigError, ContractError, PairingError
from .files import write_atomic
from .model import BridgedModel


@dataclass
class PooledRep:
    """Mean final-layer decoder state for one sentence in one language."""

    lang: str
    sid: int
    vector: np.ndarray


def collect_pooled_reps(
    model: BridgedModel,
    parallel_rows: list[dict],
    vocab: Vocabulary,
) -> dict[str, list[PooledRep]]:
    """Pooled representations per language from a parallel evaluation split.

    Each row renders one sentence id in one language; the base sentence is
    teacher-forced as the response so every language's representation is
    pooled over the same response token positions.
    """
    out: dict[str, list[PooledRep]] = {}
    for row in sorted(parallel_rows, key=lambda r: (r["lang"], r["sid"])):
        src = vocab.encode(row["src"])
        tgt = vocab.encode(row["base"])
        _, state, packed = model.forward_batch(STAGE_TRANSLATION, [src], [tgt])
        final = state.states[-1].data[0].astype(np.float64)
        start = packed.prompt_lens[0]
        vec = final[start : start + len(tgt)].mean(axis=0)
        out.setdefault(row["lang"], []).append(PooledRep(lang=row["lang"], sid=row["sid"], vector=vec))
    return out


@dataclass
class PooledCosineResult:
    mean: float
    per_pair: dict[int, float]


def pooled_cosine(reps_a: list[PooledRep], reps_b: list[PooledRep]) -> PooledCosineResult:
    """Mean cosine over sentence pairs aligned by sentence id.

    Bitwise symmetric in its arguments. Ids present on one side only raise a
    pairing error naming them.
    """
    by_a = {r.sid: r for r in reps_a}
    by_b = {r.sid: r for r in reps_b}
    if len(by_a) != len(reps_a) or len(by_b) != len(reps_b):
        raise PairingError("duplicate sentence ids within one language's reps")
    missing_in_b = sorted(set(by_a) - set(by_b))
    missing_in_a = sorted(set(by_b) - set(by_a))
    if missing_in_a or missing_in_b:
        raise PairingError(
            f"unpaired sentence ids: missing from first {missing_in_a}, missing from second {missing_in_b}"
        )
    if not by_a:
        raise ContractError("no sentence pairs to compare")
    per_pair: dict[int, float] = {}
    for sid in sorted(by_a):
        va = by_a[sid].vector.astype(np.float64)
        vb = by_b[sid].vector.astype(np.float64)
        denom = np.linalg.norm(va) * np.linalg.norm(vb)
        if denom == 0:
            raise ContractError(f"zero-norm pooled representation for sentence {sid}")
        per_pair[sid] = float(np.dot(va, vb) / denom)
    return PooledCosineResult(mean=float(np.mean(list(per_pair.values()))), per_pair=per_pair)


@dataclass
class PcaResult:
    coords: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray


def pca_project(reps: list[PooledRep]) -> PcaResult:
    """First two principal components of the pooled vectors.

    Covariance eigendecomposition; each component's sign is fixed by making
    its largest-magnitude entry positive, so coordinates are deterministic.
    All-identical inputs yield zero coordinates with a warning.
    """
    if len(reps) < 3:
        raise ContractError(f"PCA needs at least 3 representations, got {len(reps)}")
    x = np.stack([r.vector for r in reps]).astype(np.float64)
    if x.shape[1] < 2:
        raise ContractError(f"PCA needs dimension >= 2, got {x.shape[1]}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    components = eigvecs[:, order].T.copy()
    eigenvalues = eigvals[order].copy()
    if eigenvalues[0] <= 1e-30:
        warnings.warn("PCA input has no variance; coordinates are all zero")
        return PcaResult(
            coords=np.zeros((x.shape[0], 2)),
            components=np.zeros((2, x.shape[1])),
            eigenvalues=np.zeros(2),
        )
    for i in range(2):
        pivot = int(np.argmax(np.abs(components[i])))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    coords = centered @ components.T
    return PcaResult(coords=coords, components=components, eigenvalues=eigenvalues)


@dataclass
class NormRatioProfile:
    """Per-layer mean of ||g*CA|| / ||SA|| over tokens, then examples."""

    values: np.ndarray
    skipped: np.ndarray


def norm_ratio_profile(
    model: BridgedModel,
    examples: list[tuple[str, np.ndarray]],
) -> NormRatioProfile:
    """Run each (stage, source tokens) example and average, per layer, the
    token ratio |g| * ||CA|| / ||SA|| of its recorded attention outputs.

    Norms are taken in float32; a layer without cross-attention has ratio 0.
    Ratios are averaged over valid positions within an example, then across
    examples. Positions with zero self-attention norm are excluded and
    tallied per layer.
    """
    if not examples:
        raise ContractError("norm_ratio_profile needs a nonempty dataset")
    m = model.dec_config.n_layers
    sums = np.zeros(m)
    skipped = np.zeros(m, dtype=np.int64)
    for stage, src in examples:
        _, state, packed = model.forward_batch(stage, [np.asarray(src, dtype=np.int64)], None)
        valid = packed.valid[0]
        for i in range(m):
            sa = np.linalg.norm(state.sa_outputs[i].data, axis=-1)[0].astype(np.float64)
            ca = np.zeros_like(sa)
            if state.ca_outputs[i] is not None:
                ca_norm = np.linalg.norm(state.ca_outputs[i].data, axis=-1, keepdims=True)
                ca = (np.abs(model.gates.values[i].data) * ca_norm)[0, :, 0].astype(np.float64)
            usable = valid & (sa > 0)
            skipped[i] += int((valid & (sa == 0)).sum())
            if not usable.any():
                continue
            sums[i] += float((ca[usable] / sa[usable]).mean())
    return NormRatioProfile(values=sums / len(examples), skipped=skipped)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    cosine: dict[str, PooledCosineResult]
    pca_labels: list[tuple[str, int]]
    pca: PcaResult
    norm_ratio: NormRatioProfile
    aligner_matrix: np.ndarray
    gate_values: list[float]


def build_report(
    model: BridgedModel,
    parallel_rows: list[dict],
    vocab: Vocabulary,
) -> DiagnosticsReport:
    reps = collect_pooled_reps(model, parallel_rows, vocab)
    if "base" not in reps:
        raise ConfigError("parallel split must include the base language rendering")
    cosine = {
        lang: pooled_cosine(lang_reps, reps["base"])
        for lang, lang_reps in sorted(reps.items())
        if lang != "base"
    }
    flat: list[PooledRep] = [r for lang in sorted(reps) for r in reps[lang]]
    pca = pca_project(flat)
    labels = [(r.lang, r.sid) for r in flat]
    norm_examples = [
        (STAGE_TRANSLATION, vocab.encode(row["src"]))
        for row in sorted(parallel_rows, key=lambda r: (r["lang"], r["sid"]))
    ]
    profile = norm_ratio_profile(model, norm_examples)
    return DiagnosticsReport(
        cosine=cosine,
        pca_labels=labels,
        pca=pca,
        norm_ratio=profile,
        aligner_matrix=aligner_weight_matrix(model.aligner),
        gate_values=model.gates.snapshot(),
    )


def write_report(out_dir: str | Path, report: DiagnosticsReport, plots: bool = False) -> list[Path]:
    """Emit the report directory; returns the written paths.

    Always writes cosine.csv, pca.csv, norm_ratio.csv, aligner_matrix.csv,
    gates.csv; with ``plots`` also renders PNGs for each.
    """
    out_dir = Path(out_dir)
    written: list[Path] = []

    def emit(name: str, lines: list[str]) -> None:
        written.append(write_atomic(out_dir / name, "\n".join(lines) + "\n"))

    # every numeric cell goes through float() before repr: numpy scalars repr
    # as 'np.float64(...)' and would poison the CSVs
    lines = ["lang,sid,cosine"]
    for lang, result in sorted(report.cosine.items()):
        for sid, value in sorted(result.per_pair.items()):
            lines.append(f"{lang},{sid},{float(value)!r}")
        lines.append(f"{lang},mean,{float(result.mean)!r}")
    emit("cosine.csv", lines)

    lines = ["lang,sid,pc1,pc2"]
    for (lang, sid), (c1, c2) in zip(report.pca_labels, report.pca.coords):
        lines.append(f"{lang},{sid},{float(c1)!r},{float(c2)!r}")
    emit("pca.csv", lines)

    lines = ["layer,ratio,skipped"]
    for i, (value, skip) in enumerate(zip(report.norm_ratio.values, report.norm_ratio.skipped), start=1):
        lines.append(f"{i},{float(value)!r},{int(skip)}")
    emit("norm_ratio.csv", lines)

    m, n = report.aligner_matrix.shape
    lines = ["dec_layer," + ",".join(f"enc_{j}" for j in range(n))]
    for i in range(m):
        lines.append(str(i + 1) + "," + ",".join(repr(float(v)) for v in report.aligner_matrix[i]))
    emit("aligner_matrix.csv", lines)

    lines = ["layer,gate"]
    for i, g in enumerate(report.gate_values, start=1):
        lines.append(f"{i},{float(g)!r}")
    emit("gates.csv", lines)

    if plots:
        written.extend(_render_plots(out_dir, report))
    return written


def _write_png(plt, fig, path: Path) -> Path:
    """Lay out and close ``fig``, then write it to ``path`` as one atomic PNG."""
    buf = io.BytesIO()
    try:
        fig.tight_layout()
        fig.savefig(buf, format="png", dpi=120)
    finally:
        plt.close(fig)
    return write_atomic(path, buf.getvalue())


def _render_plots(out_dir: Path, report: DiagnosticsReport) -> list[Path]:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as err:
        raise ConfigError("plot rendering requested but matplotlib is unavailable") from err
    paths = []

    fig, ax = plt.subplots(figsize=(5, 3.2))
    langs = sorted(report.cosine)
    ax.bar(langs, [report.cosine[lang].mean for lang in langs], color="#4878b0")
    ax.set_ylabel("mean cosine vs base")
    ax.set_ylim(-1, 1)
    paths.append(_write_png(plt, fig, out_dir / "cosine.png"))

    fig, ax = plt.subplots(figsize=(4.5, 4))
    by_lang: dict[str, list[int]] = {}
    for idx, (lang, _) in enumerate(report.pca_labels):
        by_lang.setdefault(lang, []).append(idx)
    for lang, idxs in sorted(by_lang.items()):
        pts = report.pca.coords[idxs]
        ax.scatter(pts[:, 0], pts[:, 1], label=lang, s=12)
    ax.legend(fontsize=7)
    ax.set_xlabel("pc1")
    ax.set_ylabel("pc2")
    paths.append(_write_png(plt, fig, out_dir / "pca.png"))

    fig, ax = plt.subplots(figsize=(5, 3.2))
    ax.plot(range(1, len(report.norm_ratio.values) + 1), report.norm_ratio.values, marker="o")
    ax.set_xlabel("decoder layer")
    ax.set_ylabel("||g*CA|| / ||SA||")
    paths.append(_write_png(plt, fig, out_dir / "norm_ratio.png"))

    fig, ax = plt.subplots(figsize=(5, 3.2))
    im = ax.imshow(report.aligner_matrix, aspect="auto", cmap="viridis")
    ax.set_xlabel("encoder layer")
    ax.set_ylabel("decoder layer")
    fig.colorbar(im, ax=ax)
    paths.append(_write_png(plt, fig, out_dir / "aligner_matrix.png"))

    fig, ax = plt.subplots(figsize=(5, 3.2))
    ax.bar(range(1, len(report.gate_values) + 1), report.gate_values, color="#b04848")
    ax.set_xlabel("decoder layer")
    ax.set_ylabel("gate value")
    paths.append(_write_png(plt, fig, out_dir / "gates.png"))
    return paths
