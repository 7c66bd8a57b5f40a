"""Acceptance gate: ten behavioral criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The synthetic experiment (criteria 3, 5, 6, and the trained half
of 7) trains four arms with ``RunConfig()``'s recipe once per session;
everything else uses small throwaway models.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from layerbridge.analysis import PooledRep, collect_pooled_reps, norm_ratio_profile, pooled_cosine
from layerbridge.bridge import aligner_weight_matrix
from layerbridge.cli import main
from layerbridge.config import RunConfig
from layerbridge.data import generate_synthetic_corpus
from layerbridge.decoder import DecoderConfig
from layerbridge.encoder import EncoderConfig, LayerStack
from layerbridge.model import AblationFlags, BridgedModel
from layerbridge.training import ARMS, train_arms

SEED = 0

EC_SMALL = EncoderConfig(vocab_size=64, d_enc=16, n_layers=3, n_heads=2, d_ff=24, max_positions=16)
DC_SMALL = DecoderConfig(vocab_size=64, d_dec=16, n_layers=2, n_heads=2, d_ff=24, max_positions=32)


def announce(number: int, message: str) -> None:
    print(f"\ncriterion {number:2d}: PASS — {message}")


def random_batches(rng, n, enc_vocab, max_len=6):
    out = []
    for i in range(n):
        stage = "translation" if i % 2 == 0 else "task"
        srcs = [rng.integers(4, enc_vocab, size=rng.integers(1, max_len + 1)) for _ in range(2)]
        tgts = [rng.integers(4, enc_vocab, size=rng.integers(1, 4)) for _ in range(2)]
        out.append((stage, srcs, tgts))
    return out


def downstream_logits(model, stack, stage, srcs):
    i_map, fused = model.bridge_outputs(stack)
    packed = model._pack(i_map, stage, srcs, None)
    logits, _ = model.decoder.forward(packed.t0, fused, model.gates)
    return logits.data


def perturbed_stack(stack, layer, eps=0.5):
    states = [s.copy() for s in stack.states]
    states[layer] = states[layer] + eps
    return LayerStack(states=states, mask=stack.mask)


# ---------------------------------------------------------------------------
# the shared synthetic experiment (criteria 3, 5, 6, 7-after-training)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment():
    config = RunConfig(seed=SEED)
    corpus = generate_synthetic_corpus(config.data.synth, seed=SEED)
    t0 = time.monotonic()
    outcomes = train_arms(config, corpus, list(ARMS))
    elapsed = time.monotonic() - t0
    return corpus, outcomes, elapsed


def test_criterion_01_gate_zero_equivalence():
    t0 = time.monotonic()
    model = BridgedModel(EncoderConfig(), DecoderConfig(), seed=SEED)
    assert all(float(np.max(np.abs(g.data))) == 0.0 for g in model.gates.values)
    rng = np.random.default_rng(123)
    worst = 0.0
    for stage, srcs, tgts in random_batches(rng, 100, model.enc_config.vocab_size):
        logits, _, packed = model.forward_batch(stage, srcs, tgts)
        free, _ = model.decoder.forward(packed.t0, None, None)
        worst = max(worst, float(np.max(np.abs(logits.data - free.data))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6, f"gate-zero logits diverge by {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    announce(1, f"100 batches, max |Δlogits| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradient_correctness():
    from layerbridge import autodiff as ad

    t0 = time.monotonic()
    model = BridgedModel(EC_SMALL, DC_SMALL, seed=SEED)
    rng = np.random.default_rng(7)
    for g in model.gates.values:
        g.data[...] = rng.normal(0.0, 0.5)
    for p in model.named_params().values():
        p.data = p.data.astype(np.float64)

    srcs = [np.array([5, 6, 7]), np.array([9, 10])]
    tgts = [np.array([11, 12]), np.array([13])]

    def loss_value() -> float:
        return float(model.loss_on_batch("task", srcs, tgts).data)

    with ad.Tape() as tape:
        loss = model.loss_on_batch("task", srcs, tgts)
    ad.backward(tape, loss)
    analytic = {name: p.grad.copy() for name, p in model.trainable_params().items()}

    params = model.trainable_params()
    groups: dict[str, list[tuple[str, int]]] = {"adapter": [], "aligner": [], "gates": []}
    for name, p in params.items():
        prefix = name.split(".")[0]
        if prefix in groups:
            groups[prefix].extend((name, i) for i in range(p.data.size))
    picks: list[tuple[str, int]] = []
    for prefix, slots in groups.items():
        assert slots, f"no trainable {prefix} parameters"
        want = min(10 if prefix != "gates" else 4, len(slots))
        chosen = rng.choice(len(slots), size=want, replace=False)
        picks.extend(slots[i] for i in chosen)
    assert len(picks) >= 20

    h = 1e-5
    worst = 0.0
    for name, flat in picks:
        data = params[name].data
        original = data.flat[flat]
        data.flat[flat] = original + h
        up = loss_value()
        data.flat[flat] = original - h
        down = loss_value()
        data.flat[flat] = original
        fd = (up - down) / (2 * h)
        an = float(analytic[name].flat[flat])
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
        worst = max(worst, rel)
        assert rel <= 1e-3, f"{name}[{flat}]: analytic {an}, fd {fd}, rel {rel}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 300s"
    announce(2, f"{len(picks)} parameters, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_frozen_contract(experiment):
    _, outcomes, _ = experiment
    full = outcomes["full"]
    gates = full.model.gates.snapshot()
    assert full.digest_before == full.model.frozen_digest(), "frozen payload digest changed"
    assert any(g != 0.0 for g in gates), "no gate moved during training"
    announce(3, f"digest {full.digest_before[:12]}… unchanged; "
                f"max |gate| = {max(abs(g) for g in gates):.3f}")


def test_criterion_04_ablation_perturbation():
    rng = np.random.default_rng(11)
    srcs = [rng.integers(4, 60, size=4), rng.integers(4, 60, size=2)]

    blind_early = BridgedModel(EC_SMALL, DC_SMALL, ablations=AblationFlags(no_aligner=True), seed=SEED)
    for g in blind_early.gates.values:
        g.data[...] = 0.7
    stack = blind_early.encode_sources(srcs)
    base = downstream_logits(blind_early, stack, "task", srcs)
    n = EC_SMALL.n_layers
    for j in range(n):
        moved = downstream_logits(blind_early, perturbed_stack(stack, j), "task", srcs)
        diff = float(np.max(np.abs(moved - base)))
        assert diff <= 1e-7, f"no_aligner read H_{j}: Δ={diff}"

    blind_final = BridgedModel(EC_SMALL, DC_SMALL, ablations=AblationFlags(no_adapter=True), seed=SEED)
    for g in blind_final.gates.values:
        g.data[...] = 0.7
    stack = blind_final.encode_sources(srcs)
    base = downstream_logits(blind_final, stack, "task", srcs)
    moved = downstream_logits(blind_final, perturbed_stack(stack, n), "task", srcs)
    diff = float(np.max(np.abs(moved - base)))
    assert diff <= 1e-7, f"no_adapter read H_{n}: Δ={diff}"
    announce(4, f"no_aligner blind to H_0..H_{n - 1}; no_adapter blind to H_{n}")


def test_criterion_05_synthetic_two_stage_experiment(experiment):
    _, outcomes, elapsed = experiment
    lrl = {name: outcomes[name].report.aggregates["Lrl"] for name in ARMS}
    m_skip = lrl["full"] - lrl["skip_stage1"]
    m_na = lrl["full"] - lrl["no_aligner"]
    m_un = lrl["full"] - lrl["untrained"]
    assert m_skip >= 5.0, f"full vs skip_stage1 margin {m_skip:.1f} < 5"
    assert m_na >= 5.0, f"full vs no_aligner margin {m_na:.1f} < 5"
    assert m_un >= 30.0, f"full vs untrained margin {m_un:.1f} < 30"
    assert elapsed < 1800.0, f"experiment took {elapsed:.0f}s, budget is 30 min"
    announce(5, "low-resource exact-match "
                + ", ".join(f"{n}={lrl[n]:.1f}" for n in ARMS)
                + f"; margins {m_skip:.1f}/{m_na:.1f}/{m_un:.1f}, {elapsed:.0f}s")


def centred_cipher_reps(model, corpus):
    """Pooled reps of the cipher languages, centred on their own mean."""
    reps = collect_pooled_reps(model, corpus.eval_parallel, corpus.vocab)
    reps.pop("base")
    mean = np.mean([r.vector for lang_reps in reps.values() for r in lang_reps], axis=0)
    return {
        lang: [PooledRep(lang=r.lang, sid=r.sid, vector=r.vector - mean) for r in lang_reps]
        for lang, lang_reps in reps.items()
    }


def test_criterion_06_representation_alignment(experiment):
    """Training brings one sentence's renderings in different languages together.

    The base rendering is left out: no stage-1 or stage-2 row has a
    base-language source, so the trained bridge's reading of base input is
    untrained and tells nothing about alignment. The pooled vectors are
    centred on each arm's own mean because the raw cosine is dominated by a
    component every input shares (the teacher-forced response is the same
    base sentence in every language), which rewards a bridge that ignores
    its source: the untrained arm's gates are exactly zero.
    """
    corpus, outcomes, _ = experiment
    arms = ("untrained", "full", "no_aligner")
    reps = {arm: centred_cipher_reps(outcomes[arm].model, corpus) for arm in arms}
    langs = sorted(reps["full"])
    scores = {}
    for a, b in itertools.combinations(langs, 2):
        scores[a, b] = {arm: pooled_cosine(reps[arm][a], reps[arm][b]).mean for arm in arms}
    for (a, b), s in scores.items():
        for baseline in ("untrained", "no_aligner"):
            assert s["full"] > s[baseline], (
                f"{a}-{b}: full {s['full']:+.4f} <= {baseline} {s[baseline]:+.4f}"
            )
    announce(6, "centred cosine per pair (untrained/full/no_aligner) "
                + ", ".join(f"{a}-{b}=" + "/".join(f"{s[arm]:+.3f}" for arm in arms)
                            for (a, b), s in scores.items()))


def test_criterion_07_aligner_normalization(experiment):
    fresh = BridgedModel(EC_SMALL, DC_SMALL, seed=SEED)
    matrix = aligner_weight_matrix(fresh.aligner)
    n = matrix.shape[1]
    assert np.array_equal(matrix, np.full_like(matrix, 1.0 / n)), "init rows not exactly uniform"
    assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-6)

    _, outcomes, _ = experiment
    trained = aligner_weight_matrix(outcomes["full"].model.aligner)
    drift = float(np.max(np.abs(trained.sum(axis=1) - 1.0)))
    assert drift <= 1e-6, f"trained row sums drift by {drift}"
    assert not np.allclose(trained, matrix[0, 0]), "aligner never moved"
    announce(7, f"init exactly uniform 1/{n}; trained row-sum drift {drift:.2e}")


def test_criterion_08_norm_ratio_homogeneity():
    model = BridgedModel(EC_SMALL, DC_SMALL, seed=SEED)
    examples = [("translation", np.array([5, 6, 7])), ("task", np.array([9, 10]))]
    base_gates = [0.3, -0.4]
    worst = 0.0
    for i in range(DC_SMALL.n_layers):
        for layer, g in zip(model.gates.values, base_gates):
            layer.data[...] = g
        before = norm_ratio_profile(model, examples)
        model.gates.values[i].data[...] = 2.0 * base_gates[i]
        after = norm_ratio_profile(model, examples)
        rel = abs(after.values[i] - 2.0 * before.values[i]) / max(abs(2.0 * before.values[i]), 1e-12)
        worst = max(worst, rel)
        assert before.values[i] > 0
        assert rel <= 1e-6, f"layer {i}: doubling g gave ratio {after.values[i]} vs 2×{before.values[i]}"
    announce(8, f"each of {DC_SMALL.n_layers} gates doubles its own ratio, worst error {worst:.2e}")


ACCEPT_RUN_CONFIG = {
    "seed": 0,
    "encoder": {"vocab_size": 64, "d_enc": 16, "n_layers": 3, "n_heads": 2,
                "d_ff": 24, "max_positions": 16},
    "decoder": {"vocab_size": 64, "d_dec": 16, "n_layers": 2, "n_heads": 2,
                "d_ff": 24, "max_positions": 32},
    "stage1": {"learning_rate": 0.01, "epochs": 1, "batch_size": 8},
    "data": {"synth": {"vocab_size": 64, "stage1_per_hrl": 12, "lrl_fraction": 0.25,
                       "stage2_per_lang": 6, "eval_per_lang": 4, "parallel_sentences": 4,
                       "active_words": 12, "sentence_max_words": 4, "copy_max_words": 2,
                       "tasks": ["arithmetic", "copy", "classification"]}},
}


def _train_and_analyze(tmp_path: Path, name: str) -> Path:
    out = tmp_path / name
    config = dict(ACCEPT_RUN_CONFIG, out_dir=str(out))
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--stage", "1"]) == 0
    assert main(["analyze", str(out / "checkpoint.bin"), "--config", str(cfg_path)]) == 0
    return out


def test_criterion_09_determinism(tmp_path):
    a = _train_and_analyze(tmp_path, "a")
    b = _train_and_analyze(tmp_path, "b")
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    csvs = sorted(p.name for p in (a / "report").glob("*.csv"))
    assert csvs, "analyze produced no CSVs"
    for name in csvs + ["trace_stage1.csv"]:
        pa = (a / "report" / name) if name != "trace_stage1.csv" else (a / name)
        pb = (b / "report" / name) if name != "trace_stage1.csv" else (b / name)
        assert pa.read_bytes() == pb.read_bytes(), f"{name} differs between runs"
    announce(9, f"checkpoint and {len(csvs) + 1} CSVs byte-identical across reruns")


def test_criterion_10_reference_default_bookkeeping(tmp_path):
    out = _train_and_analyze(tmp_path, "meta")
    meta = json.loads((out / "metadata.json").read_text())
    ref = meta["reference_defaults"]
    assert ref["stage1"]["learning_rate"] == 4e-5
    assert ref["stage2"]["learning_rate"] == 3e-5
    for stage in ("stage1", "stage2"):
        assert ref[stage]["batch_size"] == 128
        assert ref[stage]["epochs"] == 3
        assert ref[stage]["warmup_ratio"] == 0.05
    announce(10, "metadata reference defaults are 4e-5/3e-5, batch 128, 3 epochs, warmup 0.05")
