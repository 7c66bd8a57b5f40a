"""End-to-end model wiring: batch packing, ablation rewiring, generation and
the frozen-backbone digest.

The perturbation tests mutate individual encoder layers and re-run the rest
of the pipeline by hand, which pins down *which* states each ablation is
allowed to read, not just output shapes.
"""

import numpy as np
import pytest

from conftest import chain_attention, chain_matmul, total, use_chain_sublayers
from layerbridge import autodiff as ad
from layerbridge import nn
from layerbridge.data import BOS, EOS, SEP
from layerbridge.decoder import DecoderConfig
from layerbridge.encoder import EncoderConfig, LayerStack
from layerbridge.errors import ConfigError, ContractError, InputError
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
    logits, _ = model.decoder.forward(packed.t0, fused, model.gates)
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
    with pytest.raises(InputError, match=f"token id {DC.vocab_size} at batch 1, .*outside vocab of {DC.vocab_size}"):
        model.forward_batch("translation", SRC, [TGT[0], np.array([12, DC.vocab_size])])


# an encoder vocabulary wider than the decoder's lets a source id reach the
# decoder's check instead of the encoder's
EC_WIDE = EncoderConfig(vocab_size=64, d_enc=16, n_layers=3, n_heads=2, d_ff=24, max_positions=16)


def test_task_source_outside_decoder_vocab_rejected():
    m = BridgedModel(EC_WIDE, DC, seed=0)
    with pytest.raises(InputError, match=f"token id {DC.vocab_size} at batch 1, .*outside vocab of {DC.vocab_size}"):
        m.forward_batch("task", [SRC[0], np.array([DC.vocab_size])], TGT)


def test_translation_source_only_needs_encoder_vocab():
    # translation rows carry no user tokens, so the source never reads tok_emb
    m = BridgedModel(EC_WIDE, DC, seed=0)
    logits, _, packed = m.forward_batch("translation", [SRC[0], np.array([DC.vocab_size])], TGT)
    assert packed.prompt_lens == [5, 3]
    assert np.isfinite(logits.data).all()


def test_packing_overflow_raises(model):
    long_seq = np.arange(4, 16)
    with pytest.raises(InputError, match="max_positions"):
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


@pytest.mark.parametrize("stage", ["translation", "task"])
@pytest.mark.parametrize("tgts", [TGT, None], ids=["teacher_forced", "prompt_only"])
def test_forward_on_a_given_bridge_pass_is_bitwise_equal(stage, tgts):
    m = BridgedModel(EC, DC, seed=0)
    for g in m.gates.values:
        g.data[...] = 0.4
    bridged = m.bridge_outputs(m.encode_sources(SRC))
    want_logits, want_state, want_packed = m.forward_batch(stage, SRC, tgts)
    logits, state, packed = m.forward_batch(stage, SRC, tgts, bridged=bridged)
    assert np.array_equal(logits.data, want_logits.data)
    for field in ("states", "sa_outputs", "ca_outputs"):
        got, want = getattr(state, field), getattr(want_state, field)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data), field
    assert np.array_equal(packed.t0.data, want_packed.t0.data)
    for field in ("labels", "loss_mask"):
        assert np.array_equal(getattr(packed, field), getattr(want_packed, field)), field
    assert packed.prompt_lens == want_packed.prompt_lens


def test_encode_sources_masks_padding(model):
    stack = model.encode_sources(SRC)
    assert np.array_equal(stack.mask, np.array([[True, True, True], [True, False, False]]))


@pytest.mark.parametrize("stage", ["translation", "task"])
def test_pad_positions_reach_no_real_position(stage):
    """Rows are right-padded, so the causal mask alone keeps every pad
    position from every real query: rewriting the pads' T_0 leaves each
    row's logits and recorded states at its real positions bitwise as they
    were."""
    m = BridgedModel(EC, DC, seed=0)
    rng = np.random.default_rng(3)
    for g in m.gates.values:
        g.data[...] = rng.uniform(0.25, 0.75)
    srcs = [np.array([5, 6, 7, 8]), np.array([9]), np.array([10, 11])]
    tgts = [np.array([12]), np.array([13, 14]), np.array([15, 16, 17, 18, 19, 20])]
    _, fused = m.bridge_outputs(m.encode_sources(srcs))
    _, _, packed = m.forward_batch(stage, srcs, tgts)
    lengths = [p + len(t) for p, t in zip(packed.prompt_lens, tgts)]
    assert len(set(lengths)) == 3
    noisy = packed.t0.data.copy()
    for row, length in enumerate(lengths):
        noisy[row, length:] = rng.normal(0.0, 1.0, size=noisy[row, length:].shape)
    want_logits, want_state = m.decoder.forward(packed.t0, fused, m.gates)
    logits, state = m.decoder.forward(ad.Tensor(noisy), fused, m.gates)
    for row, length in enumerate(lengths):
        assert np.array_equal(logits.data[row, :length], want_logits.data[row, :length])
        for field in ("states", "sa_outputs", "ca_outputs"):
            for a, b in zip(getattr(state, field), getattr(want_state, field)):
                assert np.array_equal(a.data[row, :length], b.data[row, :length]), field


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


def test_trainable_params_per_aligner_mode():
    """Only the learned mixture carries logits; both fixed modes drop them."""
    bridge = {f"adapter.proj.{p}" for p in ("weight", "bias")} | {
        f"aligner.{layer}.{p}" for layer in ("fuse_in", "k_head") for p in ("weight", "bias")
    } | {f"gates.layer{i}" for i in range(1, DC.n_layers + 1)}
    for mode, extra in ((None, {"aligner.mixing_logits"}), ("last_hidden", set()), ("average", set())):
        model = BridgedModel(EC, DC, ablations=AblationFlags(layer_subset=mode), seed=0)
        assert set(model.trainable_params()) == bridge | extra, mode


def test_ablation_active_listing():
    flags = AblationFlags(no_adapter=True, layer_subset="average")
    assert flags.active() == ["no_adapter", "layer_subset=average"]
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


# the default backbones' frozen_digest: any change to their init draws, the
# draw order, the init scales or the parameter names changes it
DEFAULT_FROZEN_DIGEST = "8312d1cfb6a32e97e57f13c058ec25624f939ad0132b58d51268237a5582ab90"


def test_frozen_weights_are_pinned():
    assert BridgedModel(EncoderConfig(), DecoderConfig()).frozen_digest() == DEFAULT_FROZEN_DIGEST


def test_no_frozen_tensor_is_all_zero():
    """A frozen tensor of zeros, such as a bias no step can move, is dead
    state: the backbones hold none."""
    params = BridgedModel(EncoderConfig(), DecoderConfig()).named_params()
    dead = [name for name, t in params.items() if name.startswith(("encoder.", "decoder.")) and not t.data.any()]
    assert dead == []


def test_frozen_digest_tracks_backbone_config():
    other = DecoderConfig(vocab_size=32, d_dec=16, n_layers=2, n_heads=2, d_ff=32, max_positions=24)
    assert BridgedModel(EC, DC, seed=0).frozen_digest() != BridgedModel(EC, other, seed=0).frozen_digest()


def test_bridge_seed_changes_trainable_init():
    a = BridgedModel(EC, DC, seed=0).trainable_params()["adapter.proj.weight"]
    b = BridgedModel(EC, DC, seed=5).trainable_params()["adapter.proj.weight"]
    assert not np.array_equal(a.data, b.data)


def test_training_step_tape_length():
    """A batch-32 stage-1 step at the benchmark's depths (6 encoder, 4
    decoder layers) records 36 tape entries: the aligner makes one pass for
    all four memories, each decoder layer adds its two memory projections
    and one entry per sublayer, and the frozen encoder records nothing."""
    enc = EncoderConfig(vocab_size=32, d_enc=16, n_layers=6, n_heads=2, d_ff=24, max_positions=16)
    dec = DecoderConfig(vocab_size=32, d_dec=16, n_layers=4, n_heads=2, d_ff=24, max_positions=24)
    model = BridgedModel(enc, dec, seed=0)
    rng = np.random.default_rng(0)
    srcs = [rng.integers(4, 32, size=rng.integers(1, 6)) for _ in range(32)]
    tgts = [rng.integers(4, 32, size=rng.integers(1, 6)) for _ in range(32)]
    with ad.Tape() as tape:
        model.loss_on_batch("translation", srcs, tgts)
    assert len(tape.entries) == 36


def test_fused_ops_keep_loss_and_gradients_bitwise(monkeypatch):
    """A batch-32 stage-1 and stage-2 step give the same loss and trainable
    gradients, bit for bit, as with both sublayers of every layer, attention
    and every biased projection run as the chains of single tape ops they
    fuse."""
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
    monkeypatch.setattr(ad, "matmul", chain_matmul)
    monkeypatch.setattr(nn, "attention", chain_attention)
    calls = use_chain_sublayers(monkeypatch)
    chained = [step(stage) for stage in ("translation", "task")]
    # two steps, each through 3 encoder and 2 decoder layers
    assert calls == {"attention": 10, "feed_forward": 10}
    for got, want in zip(fused, chained):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
