"""End-to-end model wiring: batch packing, ablation rewiring, generation and
the frozen-backbone digest.

The perturbation tests mutate individual encoder layers and re-run the rest
of the pipeline by hand, which pins down *which* states each ablation is
allowed to read, not just output shapes.
"""

import numpy as np
import pytest

from conftest import assert_grad_matches, chain_attention, chain_linear, total
from layerbridge import autodiff as ad
from layerbridge import decoder as decoder_module
from layerbridge import nn
from layerbridge.data import BOS, EOS, SEP
from layerbridge.decoder import DecoderConfig
from layerbridge.encoder import EncoderConfig, LayerStack
from layerbridge.errors import ConfigError, ContractError
from layerbridge.model import AblationFlags, BridgedModel

EC = EncoderConfig(vocab_size=32, d_enc=16, n_layers=3, n_heads=2, d_ff=24, max_positions=16)
DC = DecoderConfig(vocab_size=32, d_dec=16, n_layers=2, n_heads=2, d_ff=24, max_positions=24)

SRC = [np.array([5, 6, 7]), np.array([9])]
TGT = [np.array([10, 11]), np.array([12, 13, 14, 15])]


@pytest.fixture()
def model():
    return BridgedModel(EC, DC, seed=0)


def logits_from_stack(model, stack, stage, src_seqs):
    """Re-run everything downstream of the encoder on a hand-edited stack."""
    i_map, fused = model.bridge_outputs(stack)
    packed = model._pack(i_map, stage, src_seqs, None)
    logits, _ = model.decoder.forward(packed.t0, fused, model.gates, valid=packed.valid)
    return logits.data


def embeddings(model, ids):
    return model.decoder.tok_emb.data[np.asarray(ids)]


def perturbed(stack: LayerStack, layer: int, eps: float = 0.5) -> LayerStack:
    states = [s.copy() for s in stack.states]
    states[layer] = states[layer] + eps
    return LayerStack(states=states, mask=stack.mask)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def test_translation_packing_layout(model):
    logits, _, packed = model.forward_batch("translation", SRC, TGT)
    # row layout is [bos; soft prompt(p); sep; targets], right-padded
    assert packed.t0.shape == (2, 7, 16)
    assert logits.shape == (2, 7, 32)
    assert packed.prompt_lens == [5, 3]
    assert packed.valid.all()
    want_labels = np.array([[0, 0, 0, 0, 10, 11, 3], [0, 0, 12, 13, 14, 15, 3]])
    want_mask = np.array([[0, 0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1, 1]], dtype=bool)
    assert np.array_equal(packed.labels, want_labels)
    assert np.array_equal(packed.loss_mask, want_mask)
    # row values: frame markers, the adapter's soft prompt, then target embeddings
    i_map, _ = model.bridge_outputs(model.encode_sources(SRC))
    t0 = packed.t0.data
    assert np.array_equal(t0[:, 0], embeddings(model, [BOS] * 2))
    assert np.array_equal(t0[0, 1:4], i_map.data[0, :3])
    assert np.array_equal(t0[1, 1:2], i_map.data[1, :1])
    assert np.array_equal(t0[0, 4], embeddings(model, SEP))
    assert np.array_equal(t0[1, 2], embeddings(model, SEP))
    assert np.array_equal(t0[0, 5:7], embeddings(model, TGT[0]))
    assert np.array_equal(t0[1, 3:7], embeddings(model, TGT[1]))


def test_task_packing_appends_user_tokens(model):
    _, _, packed = model.forward_batch("task", SRC, TGT)
    # [bos; soft prompt(p); sep; user(p); targets]
    assert packed.prompt_lens == [8, 4]
    assert packed.t0.shape[1] == 10
    t0 = packed.t0.data
    assert np.array_equal(t0[0, 5:8], embeddings(model, SRC[0]))
    assert np.array_equal(t0[1, 3:4], embeddings(model, SRC[1]))


def test_soft_prompt_gradient_reads_each_slot_once(model):
    with ad.Tape() as tape:
        i_map, _ = model.bridge_outputs(model.encode_sources(SRC))
        packed = model._pack(i_map, "task", SRC, TGT)
        weights = ad.Tensor(np.random.default_rng(0).normal(size=packed.t0.shape).astype(np.float32))
        loss = total(ad.mul(packed.t0, weights))
    ad.backward(tape, loss)
    # each soft-prompt slot reads its own i_map row once, so its gradient is
    # exactly that slot's weight; rows past a shorter source read nothing
    want = np.zeros(i_map.shape, dtype=np.float32)
    want[0, :3] = weights.data[0, 1:4]
    want[1, :1] = weights.data[1, 1:2]
    np.testing.assert_array_equal(i_map.grad, want)


def test_supervision_starts_on_last_prompt_position(model):
    _, _, packed = model.forward_batch("task", [SRC[0]], [np.array([10])])
    p0 = packed.prompt_lens[0] - 1
    assert packed.loss_mask[0, p0] and packed.labels[0, p0] == 10
    assert packed.labels[0, p0 + 1] == EOS
    assert packed.loss_mask[0].sum() == 2


def test_no_adapter_drops_soft_prompt():
    m = BridgedModel(EC, DC, ablations=AblationFlags(no_adapter=True), seed=0)
    _, _, packed = m.forward_batch("task", SRC, TGT)
    assert packed.prompt_lens == [5, 3]
    # [bos; sep; user(p); targets]
    t0 = packed.t0.data
    assert np.array_equal(t0[0, :2], embeddings(m, [BOS, SEP]))
    assert np.array_equal(t0[0, 2:5], embeddings(m, SRC[0]))
    # translation rows then carry only [bos; sep; targets]
    _, _, packed = m.forward_batch("translation", SRC, TGT)
    assert packed.prompt_lens == [2, 2]
    assert np.array_equal(packed.t0.data[1, :6], embeddings(m, [BOS, SEP, *TGT[1]]))


def test_target_outside_decoder_vocab_rejected(model):
    # id vocab_size is exactly the gather's first soft-prompt row
    with pytest.raises(ConfigError, match=f"token id {DC.vocab_size} .*outside decoder vocab"):
        model.forward_batch("translation", SRC, [TGT[0], np.array([12, DC.vocab_size])])


# an encoder vocabulary wider than the decoder's lets a source id reach the
# decoder's check instead of the encoder's
EC_WIDE = EncoderConfig(vocab_size=64, d_enc=16, n_layers=3, n_heads=2, d_ff=24, max_positions=16)


def test_task_source_outside_decoder_vocab_rejected():
    m = BridgedModel(EC_WIDE, DC, seed=0)
    with pytest.raises(ConfigError, match=f"token id {DC.vocab_size} .*outside decoder vocab"):
        m.forward_batch("task", [SRC[0], np.array([DC.vocab_size])], TGT)


def test_translation_source_only_needs_encoder_vocab():
    # translation rows carry no user tokens, so the source never reads tok_emb
    m = BridgedModel(EC_WIDE, DC, seed=0)
    logits, _, packed = m.forward_batch("translation", [SRC[0], np.array([DC.vocab_size])], TGT)
    assert packed.prompt_lens == [5, 3]
    assert np.isfinite(logits.data).all()


def test_packing_overflow_raises(model):
    long_seq = np.arange(4, 16)
    with pytest.raises(ConfigError, match="max_positions"):
        model.forward_batch("translation", [long_seq], [long_seq])


def test_unknown_stage_rejected(model):
    with pytest.raises(ConfigError, match="stage"):
        model.forward_batch("pretrain", SRC, None)


def test_loss_requires_nonempty_targets(model):
    with pytest.raises(ContractError, match="nonempty target"):
        model.loss_on_batch("translation", SRC, [np.array([10]), np.array([], dtype=np.int64)])


def test_default_forward_is_float32():
    m = BridgedModel(EncoderConfig(), DecoderConfig(), seed=0)
    for i, h in enumerate(m.encode_sources(SRC).states):
        assert h.dtype == np.float32, f"H_{i} is {h.dtype}"
    logits, state, packed = m.forward_batch("task", SRC, TGT)
    assert packed.t0.dtype == np.float32
    assert all(x.dtype == np.float32 for x in state.states)
    assert logits.dtype == np.float32


def test_encode_sources_masks_padding(model):
    stack = model.encode_sources(SRC)
    assert np.array_equal(stack.mask, np.array([[True, True, True], [True, False, False]]))


# ---------------------------------------------------------------------------
# ablation wiring
# ---------------------------------------------------------------------------


def test_gate_zero_matches_aligner_free_model(model):
    m_plain = BridgedModel(EC, DC, ablations=AblationFlags(no_aligner=True), seed=0)
    a, _, _ = model.forward_batch("task", SRC, TGT)
    b, _, _ = m_plain.forward_batch("task", SRC, TGT)
    assert np.max(np.abs(a.data - b.data)) <= 1e-6


def test_no_aligner_never_reads_lower_layers():
    m = BridgedModel(EC, DC, ablations=AblationFlags(no_aligner=True), seed=0)
    stack = m.encode_sources(SRC)
    base = logits_from_stack(m, stack, "task", SRC)
    for layer in range(EC.n_layers):
        assert np.array_equal(base, logits_from_stack(m, perturbed(stack, layer), "task", SRC))


def test_no_adapter_never_reads_final_layer():
    m = BridgedModel(EC, DC, ablations=AblationFlags(no_adapter=True), seed=0)
    stack = m.encode_sources(SRC)
    base = logits_from_stack(m, stack, "task", SRC)
    assert np.array_equal(base, logits_from_stack(m, perturbed(stack, EC.n_layers), "task", SRC))


def test_full_model_reads_both_ends(model):
    # open the gates so fused cross-attention actually contributes
    for g in model.gates.values:
        g.data[...] = 0.7
    stack = model.encode_sources(SRC)
    base = logits_from_stack(model, stack, "task", SRC)
    assert not np.array_equal(base, logits_from_stack(model, perturbed(stack, 0), "task", SRC))
    assert not np.array_equal(
        base, logits_from_stack(model, perturbed(stack, EC.n_layers), "task", SRC)
    )


def test_conflicting_ablations_rejected():
    with pytest.raises(ConfigError, match="blind"):
        BridgedModel(EC, DC, ablations=AblationFlags(no_adapter=True, no_aligner=True), seed=0)


def test_trainable_params_respect_ablations():
    full = BridgedModel(EC, DC, seed=0).trainable_params()
    groups = {name.split(".")[0] for name in full}
    assert groups == {"adapter", "aligner", "gates"}

    no_ad = BridgedModel(EC, DC, ablations=AblationFlags(no_adapter=True), seed=0).trainable_params()
    assert not any(n.startswith("adapter.") for n in no_ad)
    assert {name.split(".")[0] for name in no_ad} == {"aligner", "gates"}

    no_al = BridgedModel(EC, DC, ablations=AblationFlags(no_aligner=True), seed=0).trainable_params()
    assert {name.split(".")[0] for name in no_al} == {"adapter"}


def test_ablation_active_listing():
    flags = AblationFlags(no_adapter=True, layer_subset="last:2")
    assert flags.active() == ["no_adapter", "layer_subset=last:2"]
    assert AblationFlags().active() == []


# ---------------------------------------------------------------------------
# generation, digest
# ---------------------------------------------------------------------------


def test_generate_answer_is_deterministic(model):
    a = model.generate_answer("task", SRC[0], max_new_tokens=5)
    b = model.generate_answer("task", SRC[0], max_new_tokens=5)
    assert a == b
    assert all(isinstance(t, int) for t in a)
    assert len(a) <= 5


def test_frozen_digest_ignores_bridge_seed():
    assert BridgedModel(EC, DC, seed=0).frozen_digest() == BridgedModel(EC, DC, seed=5).frozen_digest()


def test_frozen_digest_tracks_backbone_config():
    other = DecoderConfig(vocab_size=32, d_dec=16, n_layers=2, n_heads=2, d_ff=32, max_positions=24)
    assert BridgedModel(EC, DC, seed=0).frozen_digest() != BridgedModel(EC, other, seed=0).frozen_digest()


def test_bridge_seed_changes_trainable_init():
    a = BridgedModel(EC, DC, seed=0).trainable_params()["adapter.proj.weight"]
    b = BridgedModel(EC, DC, seed=5).trainable_params()["adapter.proj.weight"]
    assert not np.array_equal(a.data, b.data)


def test_training_step_tape_length():
    """A batch-32 stage-1 step at the benchmark's depths (6 encoder, 4
    decoder layers) records at most 100 tape entries: the aligner makes one
    pass for all four memories, each attention call is one entry and each
    biased projection another."""
    enc = EncoderConfig(vocab_size=32, d_enc=16, n_layers=6, n_heads=2, d_ff=24, max_positions=16)
    dec = DecoderConfig(vocab_size=32, d_dec=16, n_layers=4, n_heads=2, d_ff=24, max_positions=24)
    model = BridgedModel(enc, dec, seed=0)
    rng = np.random.default_rng(0)
    srcs = [rng.integers(4, 32, size=rng.integers(1, 6)) for _ in range(32)]
    tgts = [rng.integers(4, 32, size=rng.integers(1, 6)) for _ in range(32)]
    with ad.Tape() as tape:
        model.loss_on_batch("translation", srcs, tgts)
    assert len(tape.entries) <= 100


def test_fused_ops_keep_loss_and_gradients_bitwise(monkeypatch):
    """A batch-32 stage-1 and stage-2 step give the same loss and trainable
    gradients, bit for bit, as with attention and every biased projection
    run as the chains of single tape ops they fuse."""
    m = BridgedModel(EC, DC, seed=0)
    rng = np.random.default_rng(0)
    for name, p in m.trainable_params().items():
        if name.startswith("gates"):
            p.data[...] = rng.normal(0.5, 0.2, size=p.shape)
    srcs = [rng.integers(4, 32, size=rng.integers(1, 6)) for _ in range(32)]
    tgts = [rng.integers(4, 32, size=rng.integers(1, 6)) for _ in range(32)]

    def step(stage):
        with ad.Tape() as tape:
            loss = m.loss_on_batch(stage, srcs, tgts)
        ad.backward(tape, loss)
        return [loss.data] + [p.grad for p in m.trainable_params().values()]

    fused = [step(stage) for stage in ("translation", "task")]
    monkeypatch.setattr(ad, "linear", chain_linear)
    monkeypatch.setattr(nn, "attention", chain_attention)
    monkeypatch.setattr(decoder_module, "attention", chain_attention)
    chained = [step(stage) for stage in ("translation", "task")]
    for got, want in zip(fused, chained):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
