"""End-to-end model: frozen encoder -> trainable bridge -> frozen decoder.

Each example's decoder row is [bos; soft prompt; sep; user tokens (task
stage only); teacher-forced targets] at its own true length, right-padded
so padding never sits between real tokens. The batch's T_0 is one gather:
an id matrix indexes a table of the decoder's token embeddings with the
adapter's soft-prompt rows stacked below them. Ablation flags rewire the
forward pass itself, so "component removed" means the corresponding
encoder states are genuinely unused, not merely down-weighted.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bridge import ALIGNER_MODES, FusedKV, LayerWiseAligner, adapt
from .data import BOS, EOS, PAD, SEP, STAGE_TASK, STAGES
from .decoder import Decoder, DecoderConfig, DecoderState, GateVector, Prefill, PromptRow, generate
from .encoder import Encoder, EncoderConfig, LayerStack
from .errors import ConfigError, ContractError
from .nn import Linear

# frozen backbones are seed-pinned independently of the training seed so
# every run trains against the same random encoder and decoder
ENCODER_SEED = 7
DECODER_SEED = 11
# width of the aligner's fusion network between encoder and decoder width
ALIGNER_HIDDEN = 96
# sources per encoder, bridge and prefill chunk at inference
# (``bridged_rows``): the synthetic stages' training batch size
INFERENCE_CHUNK = 32


@dataclass(frozen=True)
class AblationFlags:
    no_adapter: bool = False
    no_aligner: bool = False
    # the aligner's mixture: None learns it, an ``ALIGNER_MODES`` name fixes it
    layer_subset: str | None = None

    def __post_init__(self):
        if self.layer_subset is not None and self.layer_subset not in ALIGNER_MODES:
            raise ConfigError(
                f"layer_subset {self.layer_subset!r} is not an aligner mode; "
                f"expected null or one of {list(ALIGNER_MODES)}"
            )
        if self.no_adapter and self.no_aligner:
            raise ConfigError("no_adapter + no_aligner leaves the decoder blind to the encoder")
        if self.no_aligner and self.layer_subset:
            raise ConfigError(
                f"layer_subset {self.layer_subset!r} has no effect with no_aligner: "
                "only the aligner reads the encoder layers"
            )

    def active(self) -> list[str]:
        out = [f.name for f in dataclasses.fields(self) if f.name != "layer_subset" and getattr(self, f.name)]
        if self.layer_subset:
            out.append(f"layer_subset={self.layer_subset}")
        return out


@dataclass
class PackedBatch:
    """One assembled batch: right-padded T_0 and flattened supervision.
    Pads follow their row's real positions and carry no loss, so the
    decoder's causal mask alone keeps them from every real query."""

    t0: Tensor
    labels: np.ndarray
    loss_mask: np.ndarray
    prompt_lens: list[int]


class BridgedModel:
    def __init__(
        self,
        enc_config: EncoderConfig,
        dec_config: DecoderConfig,
        ablations: AblationFlags = AblationFlags(),
        seed: int = 0,
    ):
        self.enc_config = enc_config
        self.dec_config = dec_config
        self.ablations = ablations
        self.encoder = Encoder(enc_config, seed=ENCODER_SEED)
        self.decoder = Decoder(dec_config, seed=DECODER_SEED)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB21D]))
        self.adapter = Linear(rng, enc_config.d_enc, dec_config.d_dec)
        self.aligner = LayerWiseAligner(
            rng,
            n_enc_layers=enc_config.n_layers,
            n_dec_layers=dec_config.n_layers,
            d_enc=enc_config.d_enc,
            d_hidden=ALIGNER_HIDDEN,
            d_dec=dec_config.d_dec,
            mode=ablations.layer_subset,
        )
        self.gates = GateVector(dec_config.n_layers)

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.encoder.named_params("encoder"))
        out.update(self.decoder.named_params("decoder"))
        out.update(self.adapter.named_params("adapter.proj"))
        out.update(self.aligner.named_params("aligner"))
        out.update(self.gates.named_params())
        return out

    def trainable_params(self) -> dict[str, Tensor]:
        """The bridge parameters the optimizer may touch, after ablations."""
        out: dict[str, Tensor] = {}
        if not self.ablations.no_adapter:
            out.update(self.adapter.named_params("adapter.proj"))
        if not self.ablations.no_aligner:
            out.update(self.aligner.named_params("aligner"))
            out.update(self.gates.named_params())
        return out

    def frozen_digest(self) -> str:
        """SHA-256 over every encoder and decoder parameter payload."""
        digest = hashlib.sha256()
        for name, tensor in sorted(self.named_params().items()):
            if not (name.startswith("encoder.") or name.startswith("decoder.")):
                continue
            digest.update(name.encode())
            digest.update(str(tensor.shape).encode())
            digest.update(np.ascontiguousarray(tensor.data).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # forward paths
    # ------------------------------------------------------------------

    def encode_sources(self, src_seqs: list[np.ndarray]) -> LayerStack:
        width = max(len(s) for s in src_seqs)
        batch = len(src_seqs)
        tokens = np.full((batch, width), PAD, dtype=np.int64)
        mask = np.zeros((batch, width), dtype=bool)
        for i, seq in enumerate(src_seqs):
            tokens[i, : len(seq)] = seq
            mask[i, : len(seq)] = True
        return self.encoder.forward(tokens, mask)

    def bridge_outputs(self, stack: LayerStack) -> tuple[Tensor | None, FusedKV | None]:
        """The soft prompt and the fused memories, projected for the decoder
        (``Decoder.project``); ``None`` for an ablated component."""
        i_map = None if self.ablations.no_adapter else adapt(self.adapter, stack)
        fused = None if self.ablations.no_aligner else self.decoder.project(self.aligner.fuse_all(stack))
        return i_map, fused

    def bridged_rows(
        self, src_seqs: list[np.ndarray], stages: list[str] | None = None
    ) -> Iterator[tuple[Tensor | None, FusedKV | None, PromptRow | None]]:
        """Each source's ``bridge_outputs(encode_sources([src]))``, in order,
        and, when ``stages`` gives each source's stage, its prompt queued for
        the decoder's prompt pass.

        Sources run ``INFERENCE_CHUNK`` at a time, with one encoder and
        bridge pass per distinct (stage, length) in a chunk, whose
        prompts form one group of the chunk's ``decoder.Prefill``: the first
        row ``generate`` decodes feeds them all. Each row is sliced out as a
        batch of one. No row is padded, so each row's arithmetic is its
        batch-1 arithmetic and every output keeps its bits; a padded pass
        would not. A row yields (soft prompt, ``FusedKV``, ``PromptRow``, or
        ``None`` without a stage or when the prompt leaves no position to
        decode). Only the current chunk's passes are held.
        """
        for c0 in range(0, len(src_seqs), INFERENCE_CHUNK):
            chunk = src_seqs[c0 : c0 + INFERENCE_CHUNK]
            groups: dict[tuple[str | None, int], list[int]] = {}
            for i, src in enumerate(chunk):
                groups.setdefault((None if stages is None else stages[c0 + i], len(src)), []).append(i)
            rows: list = [None] * len(chunk)
            prompts = Prefill(self.decoder, self.gates)
            for (stage, _), members in groups.items():
                for i, row in zip(members, self._bridged_group([chunk[i] for i in members], stage, prompts)):
                    rows[i] = row
            for i in range(len(rows)):
                # drop the chunk's reference as the row goes, so a group's
                # arrays go with its last row
                row, rows[i] = rows[i], None
                yield row

    def _bridged_group(self, srcs: list[np.ndarray], stage: str | None, prompts: Prefill) -> list[tuple]:
        """``bridged_rows``' entries for equal-length sources: one encoder and
        bridge pass, with their ``stage`` prompts queued in ``prompts``
        unless ``stage`` is None."""
        i_map, fused = self.bridge_outputs(self.encode_sources(srcs))
        starts = [None] * len(srcs)
        if stage is not None:
            starts = prompts.add(self._pack(i_map, stage, srcs, None).t0, fused)
        return [
            (
                None if i_map is None else Tensor(i_map.data[r : r + 1]),
                None if fused is None else fused.rows(r, r + 1),
                start,
            )
            for r, start in enumerate(starts)
        ]

    def _pack(
        self,
        i_map: Tensor | None,
        stage: str,
        src_seqs: list[np.ndarray],
        tgt_seqs: list[np.ndarray] | None,
    ) -> PackedBatch:
        """Lay out every row's ids, then gather T_0 in one lookup.

        The table stacks ``i_map``'s rows below ``tok_emb``, so soft-prompt slot j
        of example e holds ``vocab_size + e * S + j``. Every other slot holds a
        token id, checked against the decoder vocabulary before those go in.
        """
        c = self.dec_config
        batch = len(src_seqs)
        src_lens = np.array([len(s) for s in src_seqs])
        use_user = stage == STAGE_TASK
        sep_at = 1 + src_lens * (i_map is not None)
        prompt_lens = sep_at + 1 + src_lens * use_user
        lengths = prompt_lens + (np.array([len(t) for t in tgt_seqs]) if tgt_seqs is not None else 0)
        width = int(lengths.max())
        self.decoder.positions(0, width)  # raises when a row outgrows the decoder
        ids = np.full((batch, width), PAD, dtype=np.int64)
        labels = np.zeros((batch, width), dtype=np.int64)
        loss_mask = np.zeros((batch, width), dtype=bool)
        ids[:, 0] = BOS
        ids[np.arange(batch), sep_at] = SEP
        for e, p0 in enumerate(prompt_lens):
            if use_user:
                ids[e, p0 - src_lens[e] : p0] = src_seqs[e]
            if tgt_seqs is not None:
                end = p0 + len(tgt_seqs[e])
                ids[e, p0:end] = labels[e, p0 - 1 : end - 1] = tgt_seqs[e]
                labels[e, end - 1] = EOS
                loss_mask[e, p0 - 1 : end] = True
        self.decoder.token_ids(ids)
        table = self.decoder.tok_emb
        if i_map is not None:
            _, src_len, d = i_map.shape
            in_prompt = np.arange(src_len) < src_lens[:, None]
            rows = c.vocab_size + np.arange(batch * src_len).reshape(batch, src_len)
            ids[:, 1 : 1 + src_len][in_prompt] = rows[in_prompt]
            table = ad.concat([table, ad.reshape(i_map, (batch * src_len, d))], axis=0)
        return PackedBatch(
            t0=ad.embedding(table, ids),
            labels=labels,
            loss_mask=loss_mask,
            prompt_lens=prompt_lens.tolist(),
        )

    def forward_batch(
        self,
        stage: str,
        src_seqs: list[np.ndarray],
        tgt_seqs: list[np.ndarray] | None = None,
        bridged: tuple[Tensor | None, FusedKV | None] | None = None,
        rows: np.ndarray | Callable[[PackedBatch], np.ndarray] | None = None,
    ) -> tuple[Tensor, DecoderState, PackedBatch]:
        """Logits over the packed batch; targets are teacher-forced when given.

        ``bridged`` is ``bridge_outputs(encode_sources(src_seqs))`` computed by
        the caller, used in place of running the encoder and bridge again;
        anything after its first two items is ignored.
        ``analysis.build_report`` passes each row's ``bridged_rows`` entry, so
        the row's two forwards share its chunk's pass and projected memories.

        ``rows`` is ``Decoder.forward``'s: the flat [batch * width] positions
        that get logits, every one by default. It may be a function of the
        packed batch, for a selection known only once the batch is laid
        out, as ``loss_on_batch``'s supervised positions are.
        """
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
        i_map, fused = self.bridge_outputs(self.encode_sources(src_seqs)) if bridged is None else bridged[:2]
        packed = self._pack(i_map, stage, src_seqs, tgt_seqs)
        if callable(rows):
            rows = rows(packed)
        logits, state = self.decoder.forward(packed.t0, fused, self.gates, rows=rows)
        return logits, state, packed

    def loss_on_batch(self, stage: str, src_seqs: list[np.ndarray], tgt_seqs: list[np.ndarray]) -> Tensor:
        """Mean next-token loss over the supervised positions; the final norm
        and the head run on those positions only."""
        if tgt_seqs is None or any(len(t) == 0 for t in tgt_seqs):
            raise ContractError("every training example needs a nonempty target")
        logits, _, packed = self.forward_batch(
            stage, src_seqs, tgt_seqs, rows=lambda packed: np.flatnonzero(packed.loss_mask)
        )
        return ad.cross_entropy(logits, packed.labels.reshape(-1), packed.loss_mask.reshape(-1))

    def generate_answer(
        self,
        stage: str,
        src_seq: np.ndarray,
        max_new_tokens: int,
        bridged: tuple[Tensor | None, FusedKV | None, PromptRow | None] | None = None,
    ) -> list[int]:
        """Greedy answer tokens for one source sequence.

        ``bridged`` is the source's ``bridged_rows`` entry, given this
        ``stage``, which ``training.evaluate`` passes; by default it is
        computed here, as a group of one. Its queued prompt is decoded from;
        an entry with none, whose prompt fills ``max_positions``, answers
        ``[]``.
        """
        if bridged is None:
            bridged = next(self.bridged_rows([np.asarray(src_seq, dtype=np.int64)], [stage]))
        prompt = bridged[2]
        return [] if prompt is None else generate(prompt, max_new_tokens)
