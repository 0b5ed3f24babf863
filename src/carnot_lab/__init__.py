"""Deformed entropy composition meets group-based horizontal geometry.

Six parts: the q-entropy algebra (``qalgebra``), exact group arithmetic
(``heisenberg``), horizontal curves and holonomy (``geometry``), the
distance solvers and volume scaling (``distance``), blow-up derivatives
(``pansu``), and lattice ball growth (``growth``). ``cli`` wraps them in
reproducible experiment runs; ``acceptance`` holds the release gate.
"""

from .reports import TOOL_VERSION as __version__  # noqa: F401
