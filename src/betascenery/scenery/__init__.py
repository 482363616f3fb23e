"""Magnification (zoom-flow) machinery: window measures, the extended
Markov chain, orbit replay, the stationary suspension law, and the
arithmetic obstruction check."""

from .chain import ExtendedChain, build_extended_chain
from .flow import (ComparisonReport, QSamples, SceneryOrbit,
                   compare_scenery_to_Q, rescale_model_for_gap, sample_Q,
                   scenery_orbit)
from .spectrum import Inconclusive, NormalityImplied, spectrum_obstruction
from .windows import (PANEL_VERSION, WindowMeasure, evaluate_panel,
                      panel_average, panel_names, point_mass_window)

__all__ = [
    "ExtendedChain", "build_extended_chain",
    "ComparisonReport", "QSamples", "SceneryOrbit", "compare_scenery_to_Q",
    "rescale_model_for_gap", "sample_Q", "scenery_orbit",
    "Inconclusive", "NormalityImplied", "spectrum_obstruction",
    "PANEL_VERSION", "WindowMeasure",
    "evaluate_panel", "panel_average", "panel_names",
    "point_mass_window",
]
