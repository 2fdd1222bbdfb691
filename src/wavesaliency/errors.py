"""Exception types shared across the toolkit.

Only failures that callers are expected to branch on (or that the CLI maps
to distinct exit codes) get their own class; plain argument misuse raises
the usual ValueError/IndexError.
"""


class WaveSaliencyError(Exception):
    """Base class for all toolkit-specific errors."""


class CubeFormatError(WaveSaliencyError):
    """Malformed cube file: bad magic, bad version, or payload/header mismatch."""


class CubeDataError(WaveSaliencyError):
    """Cube payload violates a data invariant (non-finite values, bad shape)."""


class GeometryError(WaveSaliencyError):
    """Defect or probe geometry falls outside the plate."""


class DivergenceError(WaveSaliencyError):
    """The explicit time stepper blew up.

    Attributes:
        step: first time step at which the amplitude bound was exceeded.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class PartitionError(WaveSaliencyError):
    """Grid cannot be tiled into the requested number of side-sharing regions."""


class VelocityEstimateError(WaveSaliencyError):
    """Probe pair produced no usable time-of-flight (zero or negative delay)."""


class NoSignalError(WaveSaliencyError):
    """An operation that needs a non-zero field received silence."""


class WindowingError(WaveSaliencyError):
    """Time-of-flight windowing produced no active region."""


class RankError(WaveSaliencyError, ValueError):
    """Requested subspace rank does not fit the snapshot matrix."""


class MaskError(WaveSaliencyError):
    """Subsampling mask would retain too few points or has bad geometry."""


class ConfigError(WaveSaliencyError):
    """Scenario config is syntactically or semantically invalid.

    Attributes:
        line: 1-based line number in the config file, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
