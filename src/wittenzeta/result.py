"""Common result container for series evaluations."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EvalResult:
    """Value of a summed series together with an explicit tail estimate.

    ``tail_bound`` is a rigorous bound on the error of ``value``, on every
    path, so ``rigorous`` is always True.  ``converged`` means the bound met
    the requested tolerance.
    """

    value: float
    tail_bound: float
    terms_used: int
    converged: bool
    rigorous: bool = True

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "terms": self.terms_used,
            "converged": self.converged,
            "rigorous": self.rigorous,
        }
