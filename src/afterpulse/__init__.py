"""Afterpulse characterization toolkit for sine-gated single-photon detectors.

Submodules: ``models`` (click-probability model inversions), ``simulator``
(seeded Monte Carlo of the gated detector), ``estimators`` (Bethune / Yuan /
coincidence / sweep-histogram methods), ``fitting`` (dead-time decay-law
fits), ``histio`` (``Histogram``, the one container of sweep and gate
histograms, and their file format) and ``cli`` (command-line front end).
"""

from .estimators import (
    ModelEstimate,
    SweepCounts,
    derive_all,
    estimate_bethune,
    estimate_coincidence,
    estimate_custom,
    estimate_yuan,
)
from .fitting import FitLaw, FitResult, fit_curve
from .histio import Histogram, read_histogram, write_histogram
from .simulator import (
    ClickTrace,
    DeadTimeScheme,
    SchemeKind,
    SimConfig,
    build_sweep_histogram,
    fold_gate_histogram,
    run_simulation,
)

__version__ = "0.1.0"

# the kernels are plain Python; perfbench records this as the run's backend
USING_NUMBA = False

__all__ = [
    "USING_NUMBA",
    "SimConfig",
    "DeadTimeScheme",
    "SchemeKind",
    "ClickTrace",
    "run_simulation",
    "build_sweep_histogram",
    "Histogram",
    "SweepCounts",
    "ModelEstimate",
    "read_histogram",
    "write_histogram",
    "estimate_custom",
    "estimate_bethune",
    "estimate_yuan",
    "estimate_coincidence",
    "fold_gate_histogram",
    "derive_all",
    "FitLaw",
    "FitResult",
    "fit_curve",
    "__version__",
]
