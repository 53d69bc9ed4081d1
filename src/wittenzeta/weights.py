"""Dominant-weight enumeration for both weight lattices.

Class-one weights of a symmetric space are coordinates over a basis dual
to the indivisible simple restricted roots; for BC systems the coordinate
on the divisible simple root is scaled by two internally, so user-facing
coordinates always range over all nonnegative integers.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

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


#: Row bound of one chunk of ``simplex_chunks``; heat sums evaluate one
#: chunk at a time, so it bounds their memory, and each table's heat head
#: is the largest simplex of one chunk (``partition._heat_parts``).
SIMPLEX_ROWS = 1024


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
        stop = int(np.searchsorted(ends, ends[start] - sizes[start] + SIMPLEX_ROWS,
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
    int64 arrays of <= SIMPLEX_ROWS rows.

    The rows grow from prefixes of leading coordinates, slab by slab on the
    first: a run of consecutive prefixes whose completions fit in one chunk
    is completed together, one coordinate at a time; a prefix with more
    completions than that is first split on its next coordinate.
    """
    import numpy as np
    yield from _completions(np.zeros((1, 0), dtype=np.int64),
                            np.array([k], dtype=np.int64), rank)


#: Row bound of one chunk of ``box_chunks``; it bounds the memory of a box pass.
CHUNK_ROWS = 1 << 15


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
