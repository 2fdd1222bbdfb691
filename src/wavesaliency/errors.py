"""Exception types shared across the toolkit: one class per exit code.

A failure gets its own class only when the CLI maps it to its own exit
code; plain argument misuse raises the usual ValueError/IndexError.  The
six classes, with the ``wavesaliency`` exit code of each:

* ``WaveSaliencyError`` (1): the base of the other five;
* ``ConfigError`` (2): a scenario, partition, mask, geometry, rank or
  command-line setting that cannot be used;
* ``DataError`` (1): a cube file or header that cannot be read or used, or
  a probe timing that the cube cannot supply;
* ``DivergenceError`` (3): the time stepper blew up;
* ``WindowingError`` (4): windowing left no usable region;
* ``NoSignalError`` (5): silence where a signal is required.

The message says which failure it was, so no caller needs a finer class.
"""


class WaveSaliencyError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(WaveSaliencyError):
    """Scenario config is invalid; ``line``, when known, prefixes the message."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class DataError(WaveSaliencyError):
    """A cube or its header cannot be read or used, or gives no probe timing."""


class DivergenceError(WaveSaliencyError):
    """The explicit time stepper blew up; the message names the first step."""


class WindowingError(WaveSaliencyError):
    """Time-of-flight windowing produced no active region."""


class NoSignalError(WaveSaliencyError):
    """An operation that needs a non-zero field received silence."""
