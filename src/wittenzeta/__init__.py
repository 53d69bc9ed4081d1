"""Witten zeta functions of compact symmetric spaces and compact groups."""

__version__ = "0.1.0"

from .errors import (DegenerateConfiguration, DivergenceError, DomainError,
                     InconsistentMultiplicities, NotConverged, NotRankOne,
                     UnknownSpace, UnsupportedFamily, UnsupportedSpace,
                     WittenZetaError)
from .result import EvalResult

__all__ = [
    "__version__",
    "EvalResult",
    "WittenZetaError", "UnsupportedFamily", "UnknownSpace", "UnsupportedSpace",
    "DomainError", "InconsistentMultiplicities", "NotRankOne",
    "DivergenceError", "NotConverged", "DegenerateConfiguration",
]
