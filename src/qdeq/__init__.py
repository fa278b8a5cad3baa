"""qdeq: exact Newton polygons, formal power-series solutions, and
q-Gevrey growth checks for analytic q-difference equations.

Everything exact lives over Q(q); floating point enters only in the
unit-circle diophantine scan, which is numeric by nature.
"""

from .dsl import EquationSource, parse, parse_ratq
from .errors import (DegenerateAfterEvaluation, EngineError,
                     EquationSyntaxError, InsufficientData, MixedKind,
                     NegativeXPower, QdeqError, RootOfUnityDetected,
                     UncertainPolygon)
from .growth import (GrowthReport, analyze, estimate_order, fit_slack,
                     predicted_orders, valuation_profile, verify_bound)
from .nonlinear import QdeqPoly, eval_at, linearize, partial
from .ratfunc import QLaurent, RatQ, pochhammer
from .series import TruncSeries, XPoly
from .skewop import (NewtonPolygon, ResonancePoly, SkewOp, apply,
                     newton_polygon, op_mul, resonance_poly)
from .solver import SolveReport, check_solution, extend, resonance_set
from .unitcircle import (DiophantineScan, roots_of, scan_condition_H,
                         unit_q)
from .corpus import CorpusEntry, corpus, get_entry, jones, jones_series

__version__ = "0.1.0"

__all__ = [
    "CorpusEntry", "DegenerateAfterEvaluation", "DiophantineScan",
    "EngineError", "EquationSource", "EquationSyntaxError", "GrowthReport",
    "InsufficientData", "MixedKind", "NegativeXPower", "NewtonPolygon",
    "QLaurent", "QdeqError", "QdeqPoly", "RatQ",
    "ResonancePoly", "RootOfUnityDetected", "SkewOp", "SolveReport",
    "TruncSeries", "UncertainPolygon", "XPoly", "analyze", "apply",
    "check_solution", "corpus", "estimate_order", "eval_at", "extend",
    "fit_slack", "get_entry", "jones", "jones_series", "linearize",
    "newton_polygon", "op_mul", "parse", "parse_ratq", "partial",
    "pochhammer", "predicted_orders", "resonance_poly", "resonance_set",
    "roots_of", "scan_condition_H", "unit_q", "valuation_profile",
    "verify_bound",
]
