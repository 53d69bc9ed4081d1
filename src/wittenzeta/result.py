"""Common records: the result of a series evaluation, and the base that
keeps a record with cached properties immutable."""
from __future__ import annotations

from typing import NamedTuple


class EvalResult(NamedTuple):
    """Value of a summed series together with an explicit tail estimate.

    ``tail_bound`` bounds the truncated tail of the series, on every path;
    on the rank-one series (``genseries._sum_with_tail``) it also covers the
    rounding of ``value``, terms lost below the float range included (it is
    0 only where ``value`` is exact), elsewhere not yet.  ``rigorous`` is always
    True.  ``converged`` means the bound met the requested tolerance.
    ``terms_used`` counts the terms summed; for a sphere sum answered by
    its Poisson dual (``dual.heat_sum``), the dual lattice vectors read one
    by one.
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


class Frozen:
    """First base of a NamedTuple subclass that keeps an instance dict for its
    cached properties.  No attribute can be set or deleted, and ``_replace``
    builds through the constructor, so the subclass's checks run."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
