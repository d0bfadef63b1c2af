"""Afterpulse characterization toolkit for sine-gated single-photon detectors.

Submodules: ``models`` (recursive click-probability models and inversions),
``simulator`` (seeded Monte Carlo of the gated detector), ``estimators``
(Bethune / Yuan / coincidence / sweep-histogram methods), ``fitting``
(dead-time decay-law fits), ``histio`` (sweep and gate histogram
containers and their file format) and ``cli`` (command-line front end).
"""

from ._kernels import HAVE_NUMBA, USING_NUMBA
from .estimators import (
    EstimateBundle,
    GateHistogram,
    derive_all,
    estimate_bethune,
    estimate_coincidence,
    estimate_custom,
    estimate_yuan,
    fold_gate_histogram,
)
from .fitting import FitLaw, FitResult, fit_curve
from .histio import SweepHistogram, merge_bins, read_histogram, write_histogram
from .models import ModelParams
from .simulator import (
    ClickTrace,
    DeadTimeScheme,
    SchemeKind,
    SimConfig,
    build_sweep_histogram,
    effective_efficiency,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "HAVE_NUMBA",
    "USING_NUMBA",
    "ModelParams",
    "SimConfig",
    "DeadTimeScheme",
    "SchemeKind",
    "ClickTrace",
    "run_simulation",
    "effective_efficiency",
    "build_sweep_histogram",
    "SweepHistogram",
    "GateHistogram",
    "EstimateBundle",
    "merge_bins",
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
