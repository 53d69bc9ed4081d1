"""Dominant-weight enumeration for both weight lattices.

Class-one weights of a symmetric space are coordinates over a basis dual
to the indivisible simple restricted roots; for BC systems the coordinate
on the divisible simple root is scaled by two internally, so user-facing
coordinates always range over all nonnegative integers.

The lattice sums above rank one run over a ball of radius r: the box
[0, r]^rank of a zeta sum or the simplex of coordinate sum <= r of a heat
sum.  ``ball`` hands ``genseries.sum_region`` the (log d, c2) pairs of one:
a ball of at most ``CHUNK_ROWS`` points is a prefix of the table's head of
that shape (``Head``), a larger one comes in chunks of ``box_chunks`` or
``simplex_chunks``.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache, reduce

from . import rootdata
from .errors import DomainError, UnknownSpace

Coords = tuple[int, ...]


@lru_cache(maxsize=None)
def class_one_pairing_matrix(space_id: str) -> tuple[tuple[int, ...], ...]:
    """Row i, column j: (b_i, alpha_j)/(alpha_j, alpha_j) over positive roots,
    for the class-one basis b_i = s_i w_i (``class_one_scales``).

    Entries are integers by the defining lattice conditions, which building
    the matrix asserts, and nonnegative since every root coefficient is.
    """
    space = rootdata.lookup_space(space_id)
    space.require_mult()
    rs = space.root_system
    return rs.pairing_matrix(rs.class_one_scales)


def root_pairings(space_id: str, coords: Coords) -> tuple[int, ...]:
    """(lambda, alpha)/(alpha, alpha) for every positive root, exact integers."""
    matrix = class_one_pairing_matrix(space_id)
    check_coords(coords, len(matrix))
    ncols = len(matrix[0])
    return tuple(
        sum(coords[i] * matrix[i][j] for i in range(len(coords)))
        for j in range(ncols)
    )


def check_coords(coords: Coords, count: int) -> None:
    """Reject a weight that lacks ``count`` coordinates or has a negative one."""
    if len(coords) != count:
        raise UnknownSpace(f"expected {count} coordinates, got {len(coords)}")
    if min(coords) < 0:
        raise UnknownSpace("weight coordinates must be nonnegative integers")


def _graded_box(rank: int, box: int) -> list[Coords]:
    """Every point of [0, box]^rank, by coordinate sum, lex order within one."""
    import numpy as np
    rows = np.concatenate(list(box_chunks(rank, box)))
    order = np.argsort(rows.sum(axis=1), kind="stable")
    return list(map(tuple, rows[order].tolist()))


#: Row bound of one chunk of ``box_chunks`` and ``simplex_chunks`` and of a
#: table's head (``Head``); it bounds the memory of a lattice sum.
CHUNK_ROWS = 1 << 15


def ball_size(rank: int, r: int, *, simplex: bool) -> int:
    """The number of points of the ball of radius r >= -1: the box [0, r]^rank,
    or the simplex of coordinate sum <= r."""
    return math.comb(r + rank, rank) if simplex else (r + 1) ** rank


@lru_cache(maxsize=None)
def radius(rank: int, points: int, *, simplex: bool) -> int:
    """The largest radius whose ball holds at most ``points`` points; -1 for none."""
    # a ball holds more than r^rank points, over rank! for the simplex
    r = int((points * math.factorial(rank) if simplex else points) ** (1.0 / rank)) + 1
    while ball_size(rank, r, simplex=simplex) > points:
        r -= 1
    return r


class Head:
    """A table's head of one ball shape (``dims.LinearFactors._heads``): log d,
    and c2 for the simplex, over a ball in shells of sup-norm (box) or of
    coordinate sum (simplex), lex order within one, so that every ball of a
    smaller radius is a prefix of it.

    It starts empty.  When a ball past it is asked for, it grows to the
    larger of that ball and the largest ball of at most twice its rows,
    never past ``CHUNK_ROWS`` rows, by appending the new shells.  A call
    reads one stored pair throughout, so calls that grow it at once still
    get the right rows; the last pair stored is kept.
    """

    def __init__(self, table, simplex: bool):
        self.table, self.simplex = table, simplex
        self.pair = (), (() if simplex else None)

    def prefix(self, r: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(log d, c2) over the ball of radius r, at most CHUNK_ROWS points;
        c2 is None for the box."""
        import numpy as np
        simplex, rank = self.simplex, len(self.table.pairing)
        count, (log_dims, casimirs) = ball_size(rank, r, simplex=simplex), self.pair
        if len(log_dims) < count:
            r = max(r, min(radius(rank, 2 * len(log_dims), simplex=simplex),
                           radius(rank, CHUNK_ROWS, simplex=simplex)))
            points = (next(simplex_chunks(rank, r)).T if simplex     # lex order, one chunk
                      else np.indices((r + 1,) * rank).reshape(rank, -1))
            shells = reduce(np.add if simplex else np.maximum, points)
            new = np.argsort(shells.astype(np.uint16), kind="stable")[len(log_dims):]
            # over the whole ball, then the new shells' rows: cheaper than
            # gathering their points first
            log_dims = np.concatenate([log_dims, self.table.log_dims(points.T)[new]])
            if simplex:
                casimirs = np.concatenate([casimirs, self.table.casimirs(points.T)[new]])
            self.pair = log_dims, casimirs
        return log_dims[:count], None if casimirs is None else casimirs[:count]


def ball(table, r: int, *, simplex: bool):
    """The (log d, c2) pairs of ``genseries.sum_region`` over a table's ball of
    radius r, c2 None for the box: one prefix of the table's head when the
    ball holds at most CHUNK_ROWS points, else one pair per chunk."""
    rank = len(table.pairing)
    if ball_size(rank, r, simplex=simplex) <= CHUNK_ROWS:
        return [table._heads[simplex].prefix(r)]
    chunks = simplex_chunks(rank, r) if simplex else box_chunks(rank, r)
    return ((table.log_dims(rows), table.casimirs(rows) if simplex else None) for rows in chunks)


def _next_coordinate(prefix: np.ndarray, budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every prefix row followed by each next coordinate 0..budget, in lex
    order, with the budget left after it: one ragged arange."""
    import numpy as np
    counts = budget + 1
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    nxt = np.arange(len(offsets), dtype=np.int64) - offsets
    return (np.concatenate([np.repeat(prefix, counts, axis=0), nxt[:, None]], axis=1),
            np.repeat(budget, counts) - nxt)


def _completions(prefix: np.ndarray, budget: np.ndarray, rank: int) -> Iterator[np.ndarray]:
    """Every completion of the prefix rows to ``rank`` coordinates whose added
    coordinates sum to at most the row's budget, in lex order, in chunks."""
    import numpy as np
    free = rank - prefix.shape[1]
    sizes = np.ones_like(budget)
    for t in range(1, free + 1):        # C(budget + free, free) completions each
        sizes = sizes * (budget + t) // t
    ends = np.cumsum(sizes)
    start = 0
    while start < len(budget):
        stop = int(np.searchsorted(ends, ends[start] - sizes[start] + CHUNK_ROWS,
                                   side="right"))
        if stop == start:               # one prefix too many: split on the next coordinate
            yield from _completions(*_next_coordinate(prefix[start:start + 1],
                                                      budget[start:start + 1]), rank)
            stop = start + 1
        else:
            rows, left = prefix[start:stop], budget[start:stop]
            for _ in range(free):
                rows, left = _next_coordinate(rows, left)
            yield rows
        start = stop


def simplex_chunks(rank: int, k: int) -> Iterator[np.ndarray]:
    """Every point of N^rank with coordinate sum <= k once, in lex order, as
    int64 arrays of <= CHUNK_ROWS rows.

    The rows grow from prefixes of leading coordinates, slab by slab on the
    first: a run of consecutive prefixes whose completions fit in one chunk
    is completed together, one coordinate at a time; a prefix with more
    completions than that is first split on its next coordinate.
    """
    import numpy as np
    yield from _completions(np.zeros((1, 0), dtype=np.int64),
                            np.array([k], dtype=np.int64), rank)


def box_chunks(rank: int, box: int) -> Iterator[np.ndarray]:
    """Every point of [0, box]^rank once, in lex order, in int64 arrays of
    <= CHUNK_ROWS rows."""
    import numpy as np
    if box < 0:
        raise DomainError("box_bound must be >= 0")
    total = (box + 1) ** rank
    for start in range(0, total, CHUNK_ROWS):
        index = np.arange(start, min(start + CHUNK_ROWS, total), dtype=np.int64)
        chunk = np.empty((len(index), rank), dtype=np.int64)
        for ax in range(rank - 1, -1, -1):
            index, chunk[:, ax] = np.divmod(index, box + 1)
        yield chunk
