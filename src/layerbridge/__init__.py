"""Frozen encoder-decoder bridging with layer-wise fusion and gated attention.

A small multilingual-style encoder is frozen, a small decoder LM is frozen,
and only the pieces between them train: a soft-prompt adapter over the
encoder's final layer, an aligner that mixes the encoder layers into one
memory for each decoder layer, and one zero-initialized gate per decoder
layer scaling that layer's cross-attention read of its memory. Everything
runs on numpy with a tape-based autodiff core, at desk scale,
deterministically.
"""

from .autodiff import Tape, Tensor, backward
from .bridge import LayerSubset, LayerWiseAligner, aligner_weight_matrix, subset_from_spec
from .config import RunConfig, build_model, config_digest, load_run_config
from .data import SynthCorpus, SynthSpec, Vocabulary, generate_synthetic_corpus
from .decoder import Decoder, DecoderConfig, GateVector, generate
from .encoder import Encoder, EncoderConfig, LayerStack
from .errors import (
    ConfigError,
    ContractError,
    EmptyLossError,
    IngestionError,
    InputError,
    LayerBridgeError,
    NumericError,
    PairingError,
    ShapeError,
)
from .model import AblationFlags, BridgedModel
from .training import (
    EvalReport,
    StageConfig,
    TrainResult,
    evaluate,
    train_stage1,
    train_stage2,
)

__version__ = "0.1.0"

__all__ = [
    "AblationFlags",
    "BridgedModel",
    "ConfigError",
    "ContractError",
    "Decoder",
    "DecoderConfig",
    "EmptyLossError",
    "Encoder",
    "EncoderConfig",
    "EvalReport",
    "GateVector",
    "IngestionError",
    "InputError",
    "LayerBridgeError",
    "LayerStack",
    "LayerSubset",
    "LayerWiseAligner",
    "NumericError",
    "PairingError",
    "RunConfig",
    "ShapeError",
    "StageConfig",
    "SynthCorpus",
    "SynthSpec",
    "Tape",
    "Tensor",
    "TrainResult",
    "Vocabulary",
    "aligner_weight_matrix",
    "backward",
    "build_model",
    "config_digest",
    "evaluate",
    "generate",
    "generate_synthetic_corpus",
    "load_run_config",
    "subset_from_spec",
    "train_stage1",
    "train_stage2",
]
