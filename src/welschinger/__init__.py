"""Exact (twisted) Welschinger invariants of real del Pezzo surfaces.

The package computes signed counts of real rational curves on the plane
blown up at six points with any admissible reality pattern, on the
two-component real cubic surface, and on the minimal two-component conic
bundle, through an exact memoized recursion over tangency conditions with
an auxiliary (-1)-curve.
"""

from .engine import EvalKey, Evaluator, make_key
from .errors import (
    CacheError,
    InternalCheckError,
    ParseError,
    ValidationError,
    WelschingerError,
)
from .invariants import (
    InvariantReport,
    growth_report,
    invariant_report,
    monotonicity_check,
    nef_chain,
    positivity_scan,
    welschinger,
)
from .picard import DivisorClass
from .store import Store, cache_load, cache_save
from .surfaces import PairItem, SurfaceSpec, make_surface, parse_surface
from .tangency import TangencyVector, theta

__all__ = [
    "CacheError",
    "DivisorClass",
    "EvalKey",
    "Evaluator",
    "InternalCheckError",
    "InvariantReport",
    "PairItem",
    "ParseError",
    "Store",
    "SurfaceSpec",
    "TangencyVector",
    "ValidationError",
    "WelschingerError",
    "cache_load",
    "cache_save",
    "growth_report",
    "invariant_report",
    "make_key",
    "make_surface",
    "monotonicity_check",
    "nef_chain",
    "parse_surface",
    "positivity_scan",
    "theta",
    "welschinger",
]

__version__ = "0.1.0"
