"""Exception types shared across the toolkit.

Only failures that callers are expected to branch on (or that the CLI maps
to distinct exit codes) get their own class; plain argument misuse raises
the usual ValueError/IndexError.

``ConfigError`` heads the family of bad-configuration failures: a partition,
mask, geometry or rank that cannot be used is a ``ConfigError`` subclass, so
catching ``ConfigError`` catches all five and the CLI maps the family alone
to exit code 2.
"""


class WaveSaliencyError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(WaveSaliencyError):
    """Scenario config is invalid; ``line``, when known, prefixes the message."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class CubeFormatError(WaveSaliencyError):
    """Malformed cube file: bad magic, bad version, or payload/header mismatch."""


class CubeDataError(WaveSaliencyError):
    """Cube payload violates a data invariant (non-finite values, bad shape)."""


class GeometryError(ConfigError):
    """Defect or probe geometry falls outside the plate."""


class DivergenceError(WaveSaliencyError):
    """The explicit time stepper blew up; the message names the first step."""


class PartitionError(ConfigError):
    """Grid cannot be tiled into the requested number of side-sharing regions."""


class VelocityEstimateError(WaveSaliencyError):
    """Probe pair produced no usable time-of-flight (zero or negative delay)."""


class NoSignalError(WaveSaliencyError):
    """An operation that needs a non-zero field received silence."""


class WindowingError(WaveSaliencyError):
    """Time-of-flight windowing produced no active region."""


class RankError(ConfigError, ValueError):
    """Requested subspace rank does not fit the snapshot matrix."""


class MaskError(ConfigError):
    """Subsampling mask would retain too few points or has bad geometry."""
