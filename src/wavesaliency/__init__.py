"""Guided-wave defect detection through windowed low-rank saliency.

Simulates flexural waves in a thin plate, partitions the recorded wavefield
into time-of-flight-aligned regional windows, and flags regions whose
windowed signal escapes the low-rank model shared by all regions.  Includes
spatial subsampling masks, a Monte Carlo detection-rate sweep, wavenumber
spectrum analysis, and a config-driven command line.

Import from the submodules (``wavesaliency.config``, ``.pipeline``,
``.sampling`` and so on).  The package itself imports nothing, so the CLI
can pin thread pools from ``WAVESALIENCY_THREADS`` before numpy loads.
"""

__version__ = "0.1.0"
