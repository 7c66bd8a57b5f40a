"""Exception taxonomy shared across the package.

Exit-code mapping for the CLI lives in cli.py: numeric failures exit 3,
I/O and data-format errors exit 4, and every other package error
(configuration, input, shape and contract problems) exits 2.
"""


class LayerBridgeError(Exception):
    """Base class for all package errors."""


class ConfigError(LayerBridgeError):
    """Invalid configuration: unknown keys, inconsistent dims, bad flags."""


class InputError(LayerBridgeError):
    """Invalid runtime input, e.g. out-of-vocabulary token indices."""


class ShapeError(LayerBridgeError):
    """Tensor shape mismatch; the message names the offending shapes."""


class ContractError(LayerBridgeError):
    """An operation was called outside its documented contract."""


class NumericError(LayerBridgeError):
    """Non-finite values where finite ones are required."""


class EmptyLossError(LayerBridgeError):
    """Loss requested over a fully masked-out batch."""


class IngestionError(LayerBridgeError):
    """Corpus records do not match the stage they were fed to."""


class PairingError(LayerBridgeError):
    """Parallel sentence ids do not line up between two languages."""
