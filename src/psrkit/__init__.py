"""Procedure step recognition toolkit.

Recognize which steps of a known procedure were completed, and in what
order, from a stream of per-frame assembly-state detections; score
predictions on order similarity, event-level F1, and recognition delay;
and simulate detection streams to exercise all of it deterministically.

The package re-exports the names of the common path (simulate, run a
baseline, score); everything else is imported from its submodule
(``psrkit.model``, ``psrkit.baselines``, ``psrkit.metrics``,
``psrkit.simulate``, ``psrkit.formats``, ``psrkit.cli``).
"""

from .baselines import BaselineConfig, Variant, run_baseline
from .metrics import evaluate_recording, pos_from_orders, weighted_damlev
from .simulate import ErrorInjection, SimConfig, simulate

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig",
    "ErrorInjection",
    "SimConfig",
    "Variant",
    "evaluate_recording",
    "pos_from_orders",
    "run_baseline",
    "simulate",
    "weighted_damlev",
]
