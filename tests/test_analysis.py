"""Representation diagnostics: pooled cosine pairing, PCA against an SVD
oracle, norm-ratio aggregation against a float64 oracle, and the CSV report
emitter.
"""

import sys
import types

import numpy as np
import pytest

from layerbridge.analysis import (
    PooledRep,
    build_report,
    collect_pooled_reps,
    norm_ratio_profile,
    pca_project,
    pooled_cosine,
    write_report,
)
from layerbridge.data import SynthSpec, generate_synthetic_corpus
from layerbridge.decoder import DecoderConfig
from layerbridge.encoder import EncoderConfig
from layerbridge.errors import ConfigError, ContractError, PairingError
from layerbridge.model import AblationFlags, BridgedModel

EC = EncoderConfig(vocab_size=64, d_enc=16, n_layers=3, n_heads=2, d_ff=24, max_positions=16)
DC = DecoderConfig(vocab_size=64, d_dec=16, n_layers=2, n_heads=2, d_ff=24, max_positions=32)

SPEC = SynthSpec(
    vocab_size=64,
    stage1_per_hrl=6,
    lrl_fraction=0.5,
    stage2_per_lang=4,
    eval_per_lang=2,
    parallel_sentences=4,
    active_words=12,
    sentence_max_words=4,
    copy_max_words=2,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(SPEC, seed=2)


@pytest.fixture(scope="module")
def model():
    return BridgedModel(EC, DC, seed=0)


def rep(lang, sid, values):
    return PooledRep(lang=lang, sid=sid, vector=np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# pooled cosine
# ---------------------------------------------------------------------------


def test_cosine_of_identical_reps_is_one():
    reps = [rep("a", i, np.arange(1, 5) * (i + 1)) for i in range(3)]
    result = pooled_cosine(reps, reps)
    assert result.mean == pytest.approx(1.0, abs=1e-12)


def test_cosine_of_orthogonal_reps_is_zero():
    a = [rep("a", 0, [1.0, 0.0])]
    b = [rep("b", 0, [0.0, 1.0])]
    assert pooled_cosine(a, b).mean == 0.0


def test_cosine_of_opposed_reps_is_minus_one():
    a = [rep("a", 0, [2.0, -1.0])]
    b = [rep("b", 0, [-4.0, 2.0])]
    assert pooled_cosine(a, b).mean == pytest.approx(-1.0, abs=1e-12)


def test_cosine_hand_value():
    a = [rep("a", 0, [1.0, 1.0])]
    b = [rep("b", 0, [1.0, 0.0])]
    assert pooled_cosine(a, b).mean == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_cosine_is_bitwise_symmetric():
    rng = np.random.default_rng(11)
    a = [rep("a", i, rng.normal(size=6)) for i in range(5)]
    b = [rep("b", i, rng.normal(size=6)) for i in range(5)]
    ab = pooled_cosine(a, b)
    ba = pooled_cosine(b, a)
    assert ab.mean == ba.mean
    assert ab.per_pair == ba.per_pair


def test_cosine_rejects_duplicate_ids():
    a = [rep("a", 0, [1.0, 0.0]), rep("a", 0, [0.0, 1.0])]
    b = [rep("b", 0, [1.0, 0.0]), rep("b", 1, [1.0, 0.0])]
    with pytest.raises(PairingError, match="duplicate"):
        pooled_cosine(a, b)


def test_cosine_names_unpaired_ids():
    a = [rep("a", 0, [1.0, 0.0]), rep("a", 1, [1.0, 0.0])]
    b = [rep("b", 1, [1.0, 0.0]), rep("b", 2, [1.0, 0.0])]
    with pytest.raises(PairingError, match=r"missing from first \[2\], missing from second \[0\]"):
        pooled_cosine(a, b)


def test_cosine_rejects_empty():
    with pytest.raises(ContractError, match="no sentence pairs"):
        pooled_cosine([], [])


def test_cosine_rejects_zero_norm():
    a = [rep("a", 1, [0.0, 0.0])]
    b = [rep("b", 1, [1.0, 0.0])]
    with pytest.raises(ContractError, match="sentence 1"):
        pooled_cosine(a, b)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(7)
    x = rng.integers(-4, 5, size=(8, 5)).astype(np.float64)
    result = pca_project([rep("l", i, v) for i, v in enumerate(x)])
    centered = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    assert np.allclose(result.eigenvalues, (s[:2] ** 2) / (x.shape[0] - 1), rtol=1e-10)
    for i in range(2):
        v = vt[i]
        pivot = int(np.argmax(np.abs(v)))
        if v[pivot] < 0:
            v = -v
        assert np.allclose(result.components[i], v, atol=1e-9)
    assert np.allclose(result.coords, centered @ result.components.T)


def test_pca_collinear_points():
    reps = [rep("l", i, [t, 2.0 * t]) for i, t in enumerate([-2.0, -1.0, 0.0, 1.0, 2.0])]
    result = pca_project(reps)
    assert np.allclose(result.components[0], [1.0, 2.0] / np.sqrt(5.0))
    assert result.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(result.coords[:, 1]).max() == pytest.approx(0.0, abs=1e-12)


def test_pca_sign_convention():
    rng = np.random.default_rng(3)
    reps = [rep("l", i, rng.normal(size=4)) for i in range(6)]
    result = pca_project(reps)
    for i in range(2):
        pivot = int(np.argmax(np.abs(result.components[i])))
        assert result.components[i, pivot] > 0


def test_pca_permutation_invariance():
    # integer-valued vectors keep the covariance sums exact, so reordering
    # inputs must reproduce identical components and per-point coordinates
    rng = np.random.default_rng(7)
    x = rng.integers(-4, 5, size=(8, 5)).astype(np.float64)
    reps = [rep("l", i, v) for i, v in enumerate(x)]
    base = pca_project(reps)
    perm = rng.permutation(8)
    shuffled = pca_project([reps[i] for i in perm])
    assert np.array_equal(base.components, shuffled.components)
    for out_row, in_row in enumerate(perm):
        assert np.array_equal(shuffled.coords[out_row], base.coords[in_row])


def test_pca_requires_three_reps():
    with pytest.raises(ContractError, match="at least 3"):
        pca_project([rep("l", 0, [1.0, 2.0]), rep("l", 1, [2.0, 1.0])])


def test_pca_requires_two_dims():
    with pytest.raises(ContractError, match="dimension"):
        pca_project([rep("l", i, [float(i)]) for i in range(4)])


def test_pca_degenerate_input_warns_and_zeroes():
    reps = [rep("l", i, [1.5, -2.0, 0.25]) for i in range(5)]
    with pytest.warns(UserWarning, match="no variance"):
        result = pca_project(reps)
    assert np.array_equal(result.coords, np.zeros((5, 2)))
    assert np.array_equal(result.eigenvalues, np.zeros(2))


# ---------------------------------------------------------------------------
# norm ratios
# ---------------------------------------------------------------------------

EXAMPLES = [("translation", np.array([5, 6, 7])), ("translation", np.array([9, 10]))]


def test_norm_ratio_zero_gates_give_zero_profile(model):
    profile = norm_ratio_profile(model, EXAMPLES)
    assert np.array_equal(profile.values, np.zeros(DC.n_layers))
    assert not profile.skipped.any()


def _oracle_profile(m, examples):
    """Float64 norm ratios from the recorded attention outputs and each
    layer's scalar gate."""
    sums = np.zeros(DC.n_layers)
    for stage, src in examples:
        _, state, packed = m.forward_batch(stage, [src], None)
        valid = packed.valid[0]
        for i in range(DC.n_layers):
            sa = np.linalg.norm(state.sa_outputs[i].data[0].astype(np.float64), axis=-1)
            ca = np.zeros_like(sa)
            if state.ca_outputs[i] is not None:
                gate = float(m.gates.values[i].data[0])
                ca = np.abs(gate) * np.linalg.norm(state.ca_outputs[i].data[0].astype(np.float64), axis=-1)
            sums[i] += (ca[valid] / sa[valid]).mean()
    return sums / len(examples)


def test_norm_ratio_matches_manual_aggregation():
    m = BridgedModel(EC, DC, seed=0)
    for g in m.gates.values:
        g.data[...] = 0.4
    profile = norm_ratio_profile(m, EXAMPLES)
    # the same float32 norms the gated sum SA + g * CA is made of
    sums = np.zeros(DC.n_layers)
    for stage, src in EXAMPLES:
        _, state, packed = m.forward_batch(stage, [src], None)
        valid = packed.valid[0]
        for i in range(DC.n_layers):
            sa = np.linalg.norm(state.sa_outputs[i].data, axis=-1)[0].astype(np.float64)
            gated = np.abs(m.gates.values[i].data) * np.linalg.norm(state.ca_outputs[i].data, axis=-1)
            ca = gated[0].astype(np.float64)
            usable = valid & (sa > 0)
            sums[i] += float((ca[usable] / sa[usable]).mean())
    assert np.array_equal(profile.values, sums / len(EXAMPLES))
    np.testing.assert_allclose(profile.values, _oracle_profile(m, EXAMPLES), rtol=1e-5)


def test_norm_ratio_is_zero_without_cross_attention():
    m = BridgedModel(EC, DC, ablations=AblationFlags(no_aligner=True), seed=0)
    for g in m.gates.values:
        g.data[...] = 0.5  # unread: no_aligner removes every cross-attention read
    profile = norm_ratio_profile(m, EXAMPLES)
    assert np.array_equal(profile.values, _oracle_profile(m, EXAMPLES))
    assert np.array_equal(profile.values, np.zeros(DC.n_layers))
    assert not profile.skipped.any()


def test_norm_ratio_doubling_final_gate_doubles_exactly():
    m = BridgedModel(EC, DC, seed=0)
    for g in m.gates.values:
        g.data[...] = 0.3
    before = norm_ratio_profile(m, EXAMPLES)
    m.gates.values[-1].data[...] = 0.6
    after = norm_ratio_profile(m, EXAMPLES)
    assert after.values[-1] == 2.0 * before.values[-1]
    assert np.array_equal(after.values[:-1], before.values[:-1])
    assert before.values[-1] > 0


def test_norm_ratio_rejects_empty():
    with pytest.raises(ContractError, match="nonempty"):
        norm_ratio_profile(BridgedModel(EC, DC, seed=0), [])


# ---------------------------------------------------------------------------
# pooled reps and reports
# ---------------------------------------------------------------------------


def test_collect_pooled_reps_spans(model, corpus):
    reps = collect_pooled_reps(model, corpus.eval_parallel, corpus.vocab)
    assert set(reps) == {"base", "lang1", "lang2", "lang3"}
    for lang_reps in reps.values():
        assert [r.sid for r in lang_reps] == sorted(r.sid for r in lang_reps)
        assert all(r.vector.shape == (DC.d_dec,) for r in lang_reps)
    row = corpus.eval_parallel[1]
    src = corpus.vocab.encode(row["src"])
    tgt = corpus.vocab.encode(row["base"])
    _, state, packed = model.forward_batch("translation", [src], [tgt])
    final = state.states[-1].data[0].astype(np.float64)
    start = packed.prompt_lens[0]
    want = final[start : start + len(tgt)].mean(axis=0)
    got = next(r for r in reps[row["lang"]] if r.sid == row["sid"])
    assert np.array_equal(got.vector, want)


def test_build_report_requires_base_language(model, corpus):
    rows = [r for r in corpus.eval_parallel if r["lang"] != "base"]
    with pytest.raises(ConfigError, match="base"):
        build_report(model, rows, corpus.vocab)


@pytest.fixture(scope="module")
def report(model, corpus):
    return build_report(model, corpus.eval_parallel, corpus.vocab)


def test_build_report_structure(report):
    assert sorted(report.cosine) == ["lang1", "lang2", "lang3"]
    assert len(report.pca_labels) == len(report.pca.coords)
    assert len(report.pca_labels) == 4 * SPEC.parallel_sentences
    assert report.aligner_matrix.shape == (DC.n_layers, EC.n_layers)
    assert report.gate_values == [0.0, 0.0]
    for result in report.cosine.values():
        assert -1.0 <= result.mean <= 1.0


def test_aligner_matrix_rows_uniform_at_init(report):
    want = np.full((DC.n_layers, EC.n_layers), 1.0 / EC.n_layers)
    assert np.allclose(report.aligner_matrix, want, atol=1e-12)
    assert np.allclose(report.aligner_matrix.sum(axis=1), 1.0, atol=1e-6)


def test_write_report_emits_csvs(tmp_path, report):
    written = write_report(tmp_path / "report", report)
    names = sorted(p.name for p in written)
    assert names == ["aligner_matrix.csv", "cosine.csv", "gates.csv", "norm_ratio.csv", "pca.csv"]
    cosine_lines = (tmp_path / "report" / "cosine.csv").read_text().splitlines()
    assert cosine_lines[0] == "lang,sid,cosine"
    mean_rows = [l for l in cosine_lines if ",mean," in l]
    assert len(mean_rows) == 3
    lang1_mean = float(mean_rows[0].split(",")[2])
    assert lang1_mean == report.cosine["lang1"].mean  # repr round trip is exact
    norm_lines = (tmp_path / "report" / "norm_ratio.csv").read_text().splitlines()
    assert norm_lines[0] == "layer,ratio,skipped"
    assert norm_lines[1].startswith("1,")
    gates_lines = (tmp_path / "report" / "gates.csv").read_text().splitlines()
    assert gates_lines == ["layer,gate", "1,0.0", "2,0.0"]
    matrix = np.genfromtxt(tmp_path / "report" / "aligner_matrix.csv",
                           delimiter=",", skip_header=1)
    assert not np.any(np.isnan(matrix))
    assert np.allclose(matrix[:, 1:], report.aligner_matrix, atol=1e-9)
    # every numeric column must parse: numpy scalar reprs would read as NaN
    pca = np.genfromtxt(tmp_path / "report" / "pca.csv", delimiter=",",
                        skip_header=1, usecols=(2, 3))
    assert not np.any(np.isnan(pca))
    norm = np.genfromtxt(tmp_path / "report" / "norm_ratio.csv", delimiter=",",
                         skip_header=1)
    assert not np.any(np.isnan(norm))


def test_write_report_is_deterministic(tmp_path, report):
    write_report(tmp_path / "a", report)
    write_report(tmp_path / "b", report)
    for name in ("cosine.csv", "pca.csv", "norm_ratio.csv", "aligner_matrix.csv", "gates.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_write_report_renders_plots(tmp_path, report):
    pytest.importorskip("matplotlib")
    written = write_report(tmp_path / "report", report, plots=True)
    pngs = sorted(p.name for p in written if p.suffix == ".png")
    assert pngs == ["aligner_matrix.png", "cosine.png", "gates.png", "norm_ratio.png", "pca.png"]
    assert all((tmp_path / "report" / n).stat().st_size > 0 for n in pngs)


PNG_BYTES = b"\x89PNG\r\n\x1a\n" + bytes(range(256)) * 4


def _stub_matplotlib(monkeypatch, fail=False):
    """Install a stub ``matplotlib`` whose figures save ``PNG_BYTES``; with
    ``fail``, ``savefig`` puts half of them down and then raises, the way a
    renderer that dies mid-file does."""

    class Anything:
        def __getattr__(self, name):
            return lambda *args, **kwargs: Anything()

    class Figure(Anything):
        def savefig(self, fname, **kwargs):
            payload = PNG_BYTES[: len(PNG_BYTES) // 2] if fail else PNG_BYTES
            if hasattr(fname, "write"):
                fname.write(payload)
            else:
                with open(fname, "wb") as fh:
                    fh.write(payload)
            if fail:
                raise RuntimeError("renderer failed")

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda *args, **kwargs: (Figure(), Anything())
    pyplot.close = lambda fig: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)


def test_plots_are_written_atomically(tmp_path, monkeypatch, report):
    out = tmp_path / "report"
    _stub_matplotlib(monkeypatch)
    written = write_report(out, report, plots=True)
    pngs = sorted(p.name for p in written if p.suffix == ".png")
    assert pngs == ["aligner_matrix.png", "cosine.png", "gates.png", "norm_ratio.png", "pca.png"]
    assert all((out / name).read_bytes() == PNG_BYTES for name in pngs)
    assert not list(out.glob("*.tmp"))

    _stub_matplotlib(monkeypatch, fail=True)
    with pytest.raises(RuntimeError, match="renderer failed"):
        write_report(out, report, plots=True)
    assert (out / "cosine.png").read_bytes() == PNG_BYTES
    assert not list(out.glob("*.tmp"))


def test_write_report_without_matplotlib_still_writes_csvs(tmp_path, monkeypatch, report):
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    with pytest.raises(ConfigError, match="matplotlib"):
        write_report(tmp_path / "report", report, plots=True)
    names = sorted(p.name for p in (tmp_path / "report").iterdir())
    assert names == ["aligner_matrix.csv", "cosine.csv", "gates.csv", "norm_ratio.csv", "pca.csv"]
