"""Restricted root systems and the catalog of compact symmetric spaces.

Every ambient coordinate of each family's standard embedding is a multiple
of 1/2, so each root is stored once as twice its ambient vector, a tuple of
int.  Cartan integers, norms, the simple-root Gram matrix and its inverse
are computed on those in integer arithmetic; a ``Fraction`` appears only in
a value that is rational.  Every pairing is then computed from each root's
integer coefficients over the simple roots.  The catalog is immutable and
cached; descriptors are safe to share between threads.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from operator import add, mul
from typing import NamedTuple

from .errors import UnknownSpace, UnsupportedFamily, UnsupportedSpace
from .result import Frozen

Vector = tuple[Q, ...]
Doubled = tuple[int, ...]   # twice an ambient vector

FAMILIES = ("A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2")


def _inner(x: Doubled, y: Doubled) -> int:
    """Inner product of two doubled vectors: four times that of the vectors."""
    return sum(map(mul, x, y))


def inverse(matrix) -> tuple[list[list[Q]], Q]:
    """The inverse and the determinant of a positive definite rational
    matrix M, exact.

    Fraction-free Gauss-Jordan on [D M | I] (Bareiss, Math. Comp. 22, 1968),
    D the least common denominator of M: every division is exact, no pivot
    is zero as M is positive definite, and the last pivot d = det(D M)
    leaves d (D M)^-1 on the right, so M^-1 = D right / d.
    """
    r = len(matrix)
    den = math.lcm(*(v.denominator for row in matrix for v in row))
    rows = [[int(v * den) for v in row] + [int(i == j) for j in range(r)]
            for i, row in enumerate(matrix)]
    prev = 1
    for k in range(r):
        pivot = rows[k][k]
        for i in range(r):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * a - f * b) // prev for a, b in zip(rows[i], rows[k])]
        prev = pivot
    return [[Q(den * v, prev) for v in row[r:]] for row in rows], Q(prev, den ** r)


def _twice(dim: int, *entries: tuple[int, int]) -> Doubled:
    """Twice the ambient vector with coordinate c at index i for each (i, c)."""
    v = [0] * dim
    for i, c in entries:
        v[i] = 2 * c
    return tuple(v)


def _simple_roots(family: str, rank: int) -> list[Doubled]:
    """Simple roots of the family in its standard ambient coordinates, doubled."""
    if family in ("A", "B", "C", "D", "BC"):
        d = rank + 1 if family == "A" else rank
        chain = [_twice(d, (i, 1), (i + 1, -1)) for i in range(d - 1)]
        if family == "A":
            return chain
        if family == "D":
            if rank < 2:
                raise UnsupportedFamily("D requires rank >= 2")
            return chain + [_twice(d, (rank - 2, 1), (rank - 1, 1))]
        if family == "C":
            return chain + [_twice(d, (rank - 1, 2))]
        return chain + [_twice(d, (rank - 1, 1))]  # B and BC share the simple system
    if family == "G2":
        if rank != 2:
            raise UnsupportedFamily("G2 has rank 2")
        return [(2, -2, 0), (-4, 2, 2)]
    if family == "F4":
        if rank != 4:
            raise UnsupportedFamily("F4 has rank 4")
        return [_twice(4, (1, 1), (2, -1)), _twice(4, (2, 1), (3, -1)),
                _twice(4, (3, 1)), (1, -1, -1, -1)]
    if family in ("E6", "E7", "E8"):
        want = int(family[1])
        if rank != want:
            raise UnsupportedFamily(f"{family} has rank {want}")
        a1 = (1,) + (-1,) * 6 + (1,)
        chain = [_twice(8, (i + 1, 1), (i, -1)) for i in range(6)]  # e_{i+2}-e_{i+1}
        return [a1, _twice(8, (0, 1), (1, 1))] + chain[: want - 2]
    raise UnsupportedFamily(f"unknown family {family!r}")


def _positive_roots(simples: list[Doubled]) -> dict[tuple[int, ...], Doubled]:
    """Every positive root of the reduced system with these simple roots,
    doubled like them, simple roots first, keyed by its coefficients on them.

    Roots grow by height over their integer coefficients on the simple roots
    (Humphreys, Introduction to Lie Algebras, 1972, 9.4 and 10): beta + alpha_i
    is a root exactly when p - <beta, alpha_i^v> > 0, where p counts the steps
    of the alpha_i-string below beta.  Each root carries its doubled ambient
    coordinates and its Cartan pairings, both updated by adding a row.
    """
    rank = len(simples)
    cartan = [tuple(2 * _inner(a, b) // _inner(b, b) for b in simples) for a in simples]
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    layer = {unit[i]: (simples[i], cartan[i]) for i in range(rank)}
    found = dict(layer)
    while layer:
        above = {}
        for coeffs, (coords, pairs) in layer.items():
            for i in range(rank):
                p, below = 0, list(coeffs)
                below[i] -= 1
                while tuple(below) in found:
                    p += 1
                    below[i] -= 1
                if p - pairs[i] > 0:
                    up = tuple(map(add, coeffs, unit[i]))
                    if up[i] > 6:  # E8's highest root has the largest coefficient, 6
                        raise AssertionError("simple roots of no finite root system")
                    above.setdefault(up, (tuple(map(add, coords, simples[i])),
                                          tuple(map(add, pairs, cartan[i]))))
        found.update(above)
        layer = above
    return {coeffs: coords for coeffs, (coords, _) in found.items()}


_ROOT_COUNT = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "BC": lambda r: r * r + r,
    "E6": lambda r: 36,
    "E7": lambda r: 63,
    "E8": lambda r: 120,
    "F4": lambda r: 24,
    "G2": lambda r: 6,
}


class _RestrictedRootSystemFields(NamedTuple):
    family: str
    rank: int
    doubled_roots: tuple[Doubled, ...]  # twice each positive root, simple roots first
    coefficients: tuple[tuple[int, ...], ...]  # of each positive root on the simple roots
    indivisible_indices: tuple[int, ...]
    divisible_indices: tuple[int, ...]


class RestrictedRootSystem(Frozen, _RestrictedRootSystemFields):
    @cached_property
    def positive_roots(self) -> tuple[Vector, ...]:
        """The positive roots in ambient coordinates, as tuples of Fraction."""
        return tuple(tuple(Q(c, 2) for c in a) for a in self.doubled_roots)

    @cached_property
    def norms(self) -> tuple[Q, ...]:
        """(alpha, alpha) for every positive root."""
        return tuple(Q(_inner(a, a), 4) for a in self.doubled_roots)

    @cached_property
    def gram4(self) -> tuple[tuple[int, ...], ...]:
        """4 (alpha_i, alpha_j) over the simple roots: an integer matrix."""
        simples = self.doubled_roots[:self.rank]
        return tuple(tuple(_inner(a, b) for b in simples) for a in simples)

    @cached_property
    def class_one_scales(self) -> tuple[Q, ...]:
        """s_i of the class-one weight basis b_i = s_i w_i: |alpha_i|^2, doubled
        on a divisible simple root."""
        return tuple(2 * a if i in self.divisible_indices else a
                     for i, a in enumerate(self.norms[:self.rank]))

    @cached_property
    def coefficient_index(self) -> dict[tuple[int, ...], int]:
        """Position of each coefficient vector in ``coefficients``."""
        return {n: i for i, n in enumerate(self.coefficients)}

    @cached_property
    def coweights(self) -> tuple[tuple[Q, ...], ...]:
        """The inverse Gram matrix W: row i holds the coefficients on the simple
        roots of the w_i with (w_i, alpha_j) = delta_ij.

        So (w_i, alpha) is alpha's i-th coefficient and (w_i, w_k) = W_ik,
        W = 4 (4G)^-1 (``inverse``).
        """
        return tuple(tuple(4 * v for v in row) for row in inverse(self.gram4)[0])

    def pairing_matrix(self, scales: tuple[Q, ...]) -> tuple[tuple[int, ...], ...]:
        """Row i, column j: (b_i, alpha_j)/(alpha_j, alpha_j) for the weight basis
        b_i = s_i w_i, which is s_i n_ji / |alpha_j|^2 with n_ji the i-th
        coefficient of alpha_j.  Every entry must be an integer."""
        rows = []
        for i, s in enumerate(scales):
            row = [divmod(s.numerator * a.denominator * n[i], s.denominator * a.numerator)
                   for n, a in zip(self.coefficients, self.norms)]
            if any(rem for _, rem in row):
                raise AssertionError(f"{self.family}{self.rank}: non-integral pairing")
            rows.append(tuple(v for v, _ in row))
        return tuple(rows)

    def twice_rho(self, mult: tuple[int, ...]) -> tuple[int, ...]:
        """Coefficients on the simple roots of 2 rho = sum_alpha m_alpha alpha."""
        return tuple(sum(map(mul, mult, column)) for column in zip(*self.coefficients))

    def rho_pairings(self, mult: tuple[int, ...]) -> tuple[Q, ...]:
        """(rho, alpha)/(alpha, alpha) = (2 rho, alpha)/(2 |alpha|^2) for every
        positive root alpha, with the multiplicities ``mult``; 4 (2 rho, alpha_j)
        is row j of 4G applied to the coefficients of 2 rho."""
        twice = self.twice_rho(mult)
        at_simple = [sum(map(mul, row, twice)) for row in self.gram4]
        return tuple(Q(sum(map(mul, n, at_simple)), 2 * _inner(a, a))
                     for n, a in zip(self.coefficients, self.doubled_roots))


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RestrictedRootSystem:
    """Positive system for the family, simple roots first then lex order.

    BC is B plus twice its short roots, which are its divisible roots.
    """
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}")
    if rank < 1:
        raise UnsupportedFamily("rank must be >= 1")
    roots = _positive_roots(_simple_roots(family, rank))
    divisible: set[tuple[int, ...]] = set()
    if family == "BC":
        short = min(_inner(a, a) for a in roots.values())
        divisible = {n for n, a in roots.items() if _inner(a, a) == short}
    doubles = {tuple(2 * c for c in n): tuple(2 * c for c in roots[n]) for n in divisible}
    items = list(roots.items())
    ordered = items[:rank] + sorted(items[rank:] + list(doubles.items()), key=lambda p: p[1])
    expected = _ROOT_COUNT[family](rank)
    if len(ordered) != expected:
        raise AssertionError(f"{family}{rank}: {len(ordered)} roots, expected {expected}")
    return RestrictedRootSystem(
        family=family,
        rank=rank,
        doubled_roots=tuple(a for _, a in ordered),
        coefficients=tuple(n for n, _ in ordered),
        indivisible_indices=tuple(i for i, (n, _) in enumerate(ordered) if n not in doubles),
        divisible_indices=tuple(i for i, (n, _) in enumerate(ordered) if n in divisible),
    )


class _SymmetricSpaceDescriptorFields(NamedTuple):
    space_id: str
    cartan_label: str
    root_system: RestrictedRootSystem
    mult: tuple[int, ...] | None  # multiplicity per positive root
    normal_marker: bool = False


class SymmetricSpaceDescriptor(Frozen, _SymmetricSpaceDescriptorFields):
    """One catalog entry: restricted roots, multiplicities, rho_X."""

    @property
    def evaluable(self) -> bool:
        return self.mult is not None

    @property
    def rank(self) -> int:
        return self.root_system.rank

    @property
    def dim(self) -> int | None:
        if self.mult is None:
            return None
        return self.rank + sum(self.mult)

    def require_mult(self) -> tuple[int, ...]:
        if not self.evaluable:
            raise UnsupportedSpace(
                f"{self.space_id}: multiplicities are not tabulated; evaluation blocked"
            )
        return self.mult

    def m_alpha(self, index: int) -> int:
        return self.require_mult()[index]

    def m_2alpha(self, index: int) -> int:
        mult = self.require_mult()
        rs = self.root_system
        j = rs.coefficient_index.get(tuple(2 * c for c in rs.coefficients[index]))
        return 0 if j is None else mult[j]

    @cached_property
    def rho_pairings(self) -> tuple[Q, ...]:
        """(rho_X, alpha)/(alpha, alpha) for every positive root alpha."""
        return self.root_system.rho_pairings(self.require_mult())

    def record(self) -> dict:
        rs = self.root_system
        rec = {
            "id": self.space_id,
            "cartan_label": self.cartan_label,
            "family": rs.family,
            "rank": self.rank,
            "dim": self.dim,
            "normal_marker": self.normal_marker,
            "roots": [[str(c) for c in a] for a in rs.positive_roots],
        }
        if self.mult is None:
            rec.update({"m": None, "m2": None, "rho_pairings": None})
            return rec
        rec["m"] = [self.m_alpha(i) for i in rs.indivisible_indices]
        rec["m2"] = [self.m_2alpha(i) for i in rs.indivisible_indices]
        rec["rho_pairings"] = [str(self.rho_pairings[i]) for i in rs.indivisible_indices]
        return rec


def _mult_by_length(rs: RestrictedRootSystem, table: dict[Q, int]) -> tuple[int, ...]:
    out = []
    for n2 in rs.norms:
        if n2 not in table:
            raise AssertionError(f"no multiplicity for length^2 {n2}")
        out.append(table[n2])
    return tuple(out)


def _classical(label: str, family: str, rank: int, table: dict[Q, int],
               space_id: str, normal: bool = False) -> SymmetricSpaceDescriptor:
    rs = build_root_system(family, rank)
    return SymmetricSpaceDescriptor(
        space_id=space_id,
        cartan_label=label,
        root_system=rs,
        mult=_mult_by_length(rs, table),
        normal_marker=normal,
    )


_SPACE_RE = re.compile(r"^([A-Za-z]+):([0-9]+)(?:,([0-9]+))?$")


def _build_space(space_id: str) -> SymmetricSpaceDescriptor:
    token = space_id.strip()
    exceptional = {
        "EI": ("E6/Sp(4)", "E6", 6, {Q(2): 1}, True),
        "EII": ("E6/SU(6)xSU(2)", "F4", 4, {Q(2): 1, Q(1): 2}, False),
        "EIII": ("E6/SO(10)xSO(2)", "BC", 2, {Q(2): 6, Q(1): 8, Q(4): 1}, False),
        "EIV": ("E6/F4", "A", 2, {Q(2): 8}, False),
        "EV": ("E7/SU(8)", "E7", 7, {Q(2): 1}, True),
        "EVI": ("E7/SO(12)xSU(2)", "F4", 4, {Q(2): 1, Q(1): 4}, False),
        "EVIII": ("E8/SO(16)", "E8", 8, {Q(2): 1}, True),
        "EIX": ("E8/E7xSU(2)", "F4", 4, {Q(2): 1, Q(1): 8}, False),
        "FI": ("F4/Sp(3)xSU(2)", "F4", 4, {Q(2): 1, Q(1): 1}, True),
        "FII": ("F4/SO(9)", "BC", 1, {Q(1): 8, Q(4): 7}, False),
        "GI": ("G2/SU(2)xSU(2)", "G2", 2, {Q(2): 1, Q(6): 1}, True),
    }
    if token in exceptional:
        label, fam, rk, table, normal = exceptional[token]
        return _classical(label, fam, rk, table, token, normal)
    if token == "EVII":
        return SymmetricSpaceDescriptor(
            space_id="EVII",
            cartan_label="E7/E6xSO(2)",
            root_system=build_root_system("C", 3),
            mult=None,
        )
    m = _SPACE_RE.match(token)
    if not m:
        raise UnknownSpace(f"cannot parse space id {token!r}")
    head, p_s, q_s = m.group(1), m.group(2), m.group(3)
    p = int(p_s)
    q = int(q_s) if q_s is not None else None

    if head == "S":
        if q is not None or p < 2:
            raise UnknownSpace(f"sphere id must be S:<m> with m >= 2, got {token!r}")
        return _classical(f"BDI({p},1)", "B", 1, {Q(1): p - 1}, f"S:{p}", normal=True)
    if head == "CP":
        if q is not None or p < 1:
            raise UnknownSpace(f"bad id {token!r}")
        if p == 1:
            return lookup_space("S:2")
        return _classical(f"AIII({p},1)", "BC", 1,
                          {Q(1): 2 * (p - 1), Q(4): 1}, f"CP:{p}")
    if head == "HP":
        if q is not None or p < 1:
            raise UnknownSpace(f"bad id {token!r}")
        if p == 1:
            # degenerate BC_1 entry: the short root carries multiplicity 0
            return _classical("CII(1,1)", "BC", 1, {Q(1): 0, Q(4): 3}, "HP:1")
        return _classical(f"CII({p},1)", "BC", 1,
                          {Q(1): 4 * (p - 1), Q(4): 3}, f"HP:{p}")
    if head == "AI":
        if q is not None or p < 2:
            raise UnknownSpace(f"AI:<n> needs n >= 2, got {token!r}")
        return _classical(f"AI ({p})", "A", p - 1, {Q(2): 1}, token)
    if head == "AII":
        if q is not None or p < 2:
            raise UnknownSpace(f"AII:<n> needs n >= 2, got {token!r}")
        return _classical(f"AII ({p})", "A", p - 1, {Q(2): 4}, token)
    if head == "AIII":
        if q is None or not (p >= q >= 1):
            raise UnknownSpace(f"AIII:<p>,<q> needs p >= q >= 1, got {token!r}")
        if p == q:
            return _classical(f"AIII({p},{q})", "C", q, {Q(2): 2, Q(4): 1}, token)
        return _classical(f"AIII({p},{q})", "BC", q,
                          {Q(2): 2, Q(1): 2 * (p - q), Q(4): 1}, token)
    if head == "BDI":
        if q is None or not (p >= q >= 1) or p + q < 3:
            raise UnknownSpace(f"BDI:<p>,<q> needs p >= q >= 1, p+q >= 3, got {token!r}")
        if p == q:
            return _classical(f"BDI({p},{q})", "D", q, {Q(2): 1}, token, normal=True)
        return _classical(f"BDI({p},{q})", "B", q,
                          {Q(2): 1, Q(1): p - q}, token, normal=True)
    if head == "DIII":
        if q is not None or p < 2:
            raise UnknownSpace(f"DIII:<n> needs n >= 2, got {token!r}")
        if p % 2 == 0:
            return _classical(f"DIII({p})", "C", p // 2, {Q(2): 4, Q(4): 1}, token)
        return _classical(f"DIII({p})", "BC", p // 2,
                          {Q(2): 4, Q(1): 4, Q(4): 1}, token)
    if head == "CI":
        if q is not None or p < 1:
            raise UnknownSpace(f"CI:<n> needs n >= 1, got {token!r}")
        return _classical(f"CI({p})", "C", p, {Q(2): 1, Q(4): 1}, token, normal=True)
    if head == "CII":
        if q is None or not (p >= q >= 1):
            raise UnknownSpace(f"CII:<p>,<q> needs p >= q >= 1, got {token!r}")
        if p == q:
            return _classical(f"CII({p},{q})", "C", q, {Q(2): 4, Q(4): 3}, token)
        return _classical(f"CII({p},{q})", "BC", q,
                          {Q(2): 4, Q(1): 4 * (p - q), Q(4): 3}, token)
    raise UnknownSpace(f"unknown space id {token!r}")


@lru_cache(maxsize=None)
def lookup_space(space_id: str) -> SymmetricSpaceDescriptor:
    """Resolve a space id to its immutable descriptor."""
    return _build_space(space_id)


#: Concrete instances used by the self-check sweep and the `spaces` command.
CATALOG_IDS: tuple[str, ...] = (
    "S:2", "S:3", "S:4", "S:5", "S:6", "S:7", "S:8", "S:9",
    "CP:1", "CP:2", "CP:3", "CP:4", "CP:5",
    "HP:1", "HP:2", "HP:3",
    "FII",
    "AI:3", "AI:4", "AII:2", "AII:3",
    "AIII:1,1", "AIII:2,2", "AIII:3,1", "AIII:3,2", "AIII:4,2",
    "BDI:2,2", "BDI:3,2", "BDI:3,3", "BDI:5,2",
    "DIII:2", "DIII:3", "DIII:4", "DIII:5",
    "CI:1", "CI:2", "CI:3",
    "CII:1,1", "CII:2,1", "CII:2,2", "CII:3,2",
    "EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII", "EIX",
    "FI", "GI",
)


def catalog_spaces() -> list[SymmetricSpaceDescriptor]:
    return [lookup_space(sid) for sid in CATALOG_IDS]


# ---------------------------------------------------------------------------
# Compact groups (the type II side)
# ---------------------------------------------------------------------------

_GROUP_RE = re.compile(r"^(SU|SO|Sp):([0-9]+)$")


@lru_cache(maxsize=None)
def lookup_group(group_id: str) -> RestrictedRootSystem:
    """Resolve a group id to the root system of the group."""
    token = group_id.strip()
    fixed = {"G2": ("G2", 2), "F4": ("F4", 4), "E6": ("E6", 6),
             "E7": ("E7", 7), "E8": ("E8", 8)}
    if token in fixed:
        fam, rk = fixed[token]
        return build_root_system(fam, rk)
    m = _GROUP_RE.match(token)
    if not m:
        raise UnknownSpace(f"cannot parse group id {token!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "SU":
        if n < 2:
            raise UnknownSpace("SU:<n> needs n >= 2")
        return build_root_system("A", n - 1)
    if kind == "Sp":
        if n < 1:
            raise UnknownSpace("Sp:<n> needs n >= 1")
        return build_root_system("C", n)
    if n < 3:
        raise UnknownSpace("SO:<n> needs n >= 3")
    if n % 2:
        return build_root_system("B", (n - 1) // 2)
    return build_root_system("D", n // 2)
