"""Lattice sums above rank one: their certificates, their regions of
weights and the one loop that sums a region.

Zeta and heat sums above rank one share one design.  A separable majorant
bounds each term by a product of one-coordinate series, so a ball of
weights, of radius r, is certified before any term is summed: the box
[0, r]^rank of a zeta sum or the simplex of coordinate sum <= r of a heat
sum.  Each factor of d, 1 + sum_i a_i with a_i = L_ij n_i / c_j >= 0, is at
least prod_i (1 + a_i / w_ij)^w_ij for shares w_ij >= 0 summing to one over
i (weighted AM-GM).  ``_box_bound`` bounds the zeta sum outside a box by
one-coordinate series, each tailed by the one whole-tail rule
``genseries.whole_tail``; it takes the shares,
shifts, powers and moments of all rank^2 of them in a few array passes,
from what it needs of its table alone (``_box_parts``), and
``_least_side`` finds the least side that meets the goal from a few of
those bounds.  A heat term is bounded by prod_i h_i(n_i)
(``_HeatParts.logs``), whose sum past coordinate sum K is a coefficient
tail of a product of one-coordinate series, so ``_majorant_grade`` knows
the least K that meets the tolerance.  Each such part is built once per
table and kept on it (``dims.LinearFactors.part``).  The heat majorant's
part (``_HeatParts``) keeps what depends on the table alone, rows
log1p(m r) and G_ii m^2 + lin_i m that grow on demand, and, per exponent,
the rows of the polynomial factor of log h_i; a call pays only for the
passes that depend on the area.

``ball`` hands ``sum_region`` the (log d, c2) pairs of a ball: a ball of at
most ``CHUNK_ROWS`` points is a prefix of the table's head of that shape
(``Head``, kept on the table as a part, ``_heads``), which grows on demand,
and a larger one comes in chunks.  Every row of either shape, head or
chunk, comes from ``ball_chunks``.
``sum_region`` rounds the sum of each pair's terms once, as ``math.fsum``
does, but from a few array passes (``_exact_sum``, an error-free vector
extraction); ``math.fsum`` itself takes the few terms, the rare cases the
extraction cannot decide, and the pairs' totals.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from functools import lru_cache, reduce
from itertools import chain, repeat
from typing import NamedTuple

from . import genseries
from .errors import DomainError


def _graded_box(rank: int, box: int) -> list[tuple[int, ...]]:
    """Every point of [0, box]^rank, by coordinate sum, lex order within one."""
    import numpy as np
    if box < 0:
        raise DomainError("box_bound must be >= 0")
    rows = np.concatenate(list(ball_chunks(rank, box, simplex=False)))
    order = np.argsort(rows.sum(axis=1), kind="stable")
    return list(map(tuple, rows[order].tolist()))


#: Row bound of one chunk of ``ball_chunks`` and of a table's head
#: (``Head``); it bounds the memory of a lattice sum.
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
    """A table's head of one ball shape (``_heads``): log d, and c2 for the
    simplex, over a ball in shells of sup-norm (box) or of coordinate sum
    (simplex), lex order within one, so that every ball of a smaller radius
    is a prefix of it.

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
        simplex, rank = self.simplex, len(self.table.pairing)
        count, (log_dims, casimirs) = ball_size(rank, r, simplex=simplex), self.pair
        if len(log_dims) < count:
            import numpy as np
            r = max(r, min(radius(rank, 2 * len(log_dims), simplex=simplex),
                           radius(rank, CHUNK_ROWS, simplex=simplex)))
            points = next(ball_chunks(rank, r, simplex=simplex)).T   # lex order, one chunk
            shells = reduce(np.add if simplex else np.maximum, points)
            new = np.argsort(shells.astype(np.uint16), kind="stable")[len(log_dims):]
            # over the whole ball, then the new shells' rows: cheaper than
            # gathering their points first
            log_dims = np.concatenate([log_dims, self.table.log_dims(points.T)[new]])
            if simplex:
                casimirs = np.concatenate([casimirs, self.table.casimirs(points.T)[new]])
            self.pair = log_dims, casimirs
        return log_dims[:count], None if casimirs is None else casimirs[:count]


def _heads(table) -> tuple[Head, Head]:
    """The table's heads, the box's and the simplex's (``table.part``)."""
    return Head(table, simplex=False), Head(table, simplex=True)


def ball(table, r: int, *, simplex: bool):
    """The (log d, c2) pairs of ``sum_region`` over a table's ball of radius
    r, c2 None for the box: one prefix of the table's head when the ball
    holds at most CHUNK_ROWS points, else one pair per chunk."""
    rank = len(table.pairing)
    if ball_size(rank, r, simplex=simplex) <= CHUNK_ROWS:
        return [table.part(_heads)[simplex].prefix(r)]
    return ((table.log_dims(rows), table.casimirs(rows) if simplex else None)
            for rows in ball_chunks(rank, r, simplex=simplex))


def _sizes(budget: np.ndarray, free: int, simplex: bool) -> np.ndarray:
    """The number of completions of each row by ``free`` more coordinates
    within its budget: C(budget + free, free) (simplex) or (budget + 1)^free
    (box)."""
    if not simplex:
        return (budget + 1) ** free
    import numpy as np
    sizes = np.ones_like(budget)
    for t in range(1, free + 1):
        sizes = sizes * (budget + t) // t
    return sizes


def _fill(prefix: np.ndarray, budget: np.ndarray, sizes: np.ndarray, rank: int,
          simplex: bool) -> np.ndarray:
    """Every completion of a run of prefix rows, in lex order, written into one
    (rows, rank) array column by column.

    A prefix column is each row's entry repeated by its number of
    completions.  A free column grows the nodes of the one before, each node
    a run of rows that agree up to it: every node branches on the next
    coordinate 0..budget (one ragged arange), and the branch's value is
    repeated by its completions.  The transients are a few arrays of one
    column.
    """
    import numpy as np
    rows = np.empty((int(sizes.sum()), rank), dtype=np.int64)
    width = prefix.shape[1]
    for column in range(width):
        rows[:, column] = np.repeat(prefix[:, column], sizes)
    left = budget
    for column in range(width, rank):
        counts = left + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        values = np.subtract(np.arange(len(starts), dtype=np.int64), starts, out=starts)
        if column == rank - 1:
            rows[:, column] = values
            break
        left = np.repeat(left, counts)
        if simplex:
            left -= values
        rows[:, column] = np.repeat(values, _sizes(left, rank - column - 1, simplex))
    return rows


def _completions(prefix: np.ndarray, budget: np.ndarray, rank: int,
                 simplex: bool) -> Iterator[np.ndarray]:
    """Every completion of the prefix rows to ``rank`` coordinates whose added
    coordinates sum to at most the row's budget (simplex) or are each at
    most it (box), in lex order, in chunks."""
    import numpy as np
    sizes = _sizes(budget, rank - prefix.shape[1], simplex)
    ends = np.cumsum(sizes)
    start = 0
    while start < len(budget):
        stop = int(np.searchsorted(ends, ends[start] - sizes[start] + CHUNK_ROWS,
                                   side="right"))
        if stop == start:               # one prefix too many: split on the next coordinate
            values = np.arange(budget[start] + 1, dtype=np.int64)
            yield from _completions(
                np.column_stack([np.repeat(prefix[start:start + 1], len(values), axis=0),
                                 values]),
                budget[start] - simplex * values, rank, simplex)
            stop = start + 1
        else:
            yield _fill(prefix[start:stop], budget[start:stop], sizes[start:stop], rank, simplex)
        start = stop


def ball_chunks(rank: int, r: int, *, simplex: bool) -> Iterator[np.ndarray]:
    """Every point of the ball of radius r, the box [0, r]^rank or the
    simplex of coordinate sum <= r, once, in lex order, as int64 arrays of
    <= CHUNK_ROWS rows.

    The rows grow from prefixes of leading coordinates, slab by slab on the
    first: a run of consecutive prefixes whose completions fit in one chunk
    is completed together, into one array filled column by column
    (``_fill``); a prefix with more completions than that is first split on
    its next coordinate.  The two
    shapes differ only in the budget a coordinate leaves the next ones: r
    less that coordinate for the simplex, r for the box.
    """
    import numpy as np
    yield from _completions(np.zeros((1, 0), dtype=np.int64),
                            np.array([r], dtype=np.int64), rank, simplex)


def sum_region(terms, exponent: float, area: float) -> float:
    """Sum q^{c2(n)} d(n)^(-exponent), q = exp(-area), over a certified
    region given as (log d, c2) array pairs, c2 None when area is 0: one
    exactly rounded sum per pair (``_exact_sum``), and one fsum over those,
    which a single pair's sum already is."""
    import numpy as np
    totals = []
    for log_dims, casimirs in terms:
        with np.errstate(over="ignore"):     # -e log d past -inf: the term is 0
            logs = -exponent * log_dims
            if casimirs is not None:
                logs -= area * casimirs
            totals.append(_exact_sum(np.exp(logs, out=logs)))
    return totals[0] if len(totals) == 1 else math.fsum(totals)


#: Below this many terms ``_exact_sum`` hands them straight to ``math.fsum``,
#: which is the faster of the two there (crossover measured at 250-300).
_FSUM_ROWS = 300


def _exact_sum(values: np.ndarray) -> float:
    """Exactly ``math.fsum(values.tolist())``, from a few array passes.

    The error-free extraction of Rump, Ogita and Oishi (Accurate
    floating-point summation, part I, SIAM J. Sci. Comput. 31, 2008, sec.
    3): with n terms, max|v| < 2^e and 2^m >= n + 2, take sigma = 2^(e+m).
    Then q = (sigma + v) - sigma and r = v - q are exact; every q is a
    multiple of 2^(e+m-53) (or of the least subnormal) of size at most 2^e,
    so any order sums them exactly, and |r| <= 2^(e+m-53), so numpy's sum
    of the r, in any order, lies within n^2 2^(e+m-106) of theirs
    (n < 2^26).  Rounding is monotone: where the q sum plus that rest
    rounds to one float at both ends of the interval, that float is the
    rounded true sum.  Every other case is left to fsum: an interval that
    straddles a rounding boundary (as one around an exact zero does, whose
    sign is then fsum's), a non-finite term, sigma past the float range,
    and fewer than ``_FSUM_ROWS`` terms.  One temporary of the input's size.
    """
    n = len(values)
    if n >= _FSUM_ROWS:
        import numpy as np
        top = float(max(values.max(), -values.min()))  # NaN if a term is NaN
        e, m = math.frexp(top)[1], (n + 1).bit_length()
        if top < math.inf and e + m < 1024:
            sigma = math.ldexp(1.0, e + m)
            part = np.add(values, sigma)
            high = float(np.subtract(part, sigma, out=part).sum())
            rest = float(np.subtract(values, part, out=part).sum())
            err = math.ldexp(n * n, max(e + m - 106, -1074))
            low = math.fsum((high, rest, -err))
            if low == math.fsum((high, rest, err)):
                return low
    return math.fsum(values.tolist())


class _BoxParts(NamedTuple):
    """What the box certificate needs of its table alone, built once per
    table (``_box_parts``, by ``table.part``).  The arrays run over (region i,
    coordinate k, factor j), or (k, j), or are flat indices into the
    (i, k, j) arrays."""

    base: np.ndarray            # (k, j): the shares L_kj / sum_l L_lj before a move
    toward: np.ndarray          # (i, k, j): [k == i] - base_kj where L_ij > 0, else 0
    divisors: np.ndarray        # (k, j): L_kj where it is > 0, else 1
    gives: list[list[float]]    # [i][k]: the sum of base_kj over j with L_ij > 0
    sums: list[float]           # [k]: the sum of base_kj over j
    square_firsts: np.ndarray   # one entry of each kappa class of each series (i, k)
    square_series: np.ndarray   # the series (i, k) of each, flat
    log_firsts: np.ndarray      # one entry of each kappa class
    classes: np.ndarray         # (2, i, k, j): each entry's class of its series, and
                                # its kappa class past the series classes


def _classes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(one entry of each class, each entry's class) of the entries (i, k, j),
    given each one's class code, a small integer."""
    import numpy as np
    member = np.full(codes.max() + 1, -1)
    member[codes.ravel()] = np.arange(codes.size)   # any entry of a class will do
    used = member >= 0
    return member[used], (np.cumsum(used) - 1)[codes]


def _box_parts(table: dims.LinearFactors) -> _BoxParts:
    """The certificate's table parts; every sum from left to right.

    Two entries (i, k, j) of one kappa class hold the same c_j, base_kj and
    L_kj > 0 and, where region i moves them, the same i and [k == i], so the
    same share and kappa = c w / L at every s; two of one series (i, k) and
    one kappa class have the same square (kappa - kbar)^2 too.  The entries
    with L_kj = 0, which have no share at any s, make one class of each kind.
    """
    import numpy as np
    matrix, shifts = table._arrays
    support = matrix > 0
    base = matrix / matrix.sum(axis=0)      # sums of small integers: exact
    rank = len(matrix)
    own = np.broadcast_to(support[:, None, :], (rank,) + base.shape)
    i, k, _ = np.indices(own.shape)
    triples = {}        # (c_j, base_kj, L_kj) -> its number, from 1
    kinds = support * np.reshape([triples.setdefault(key, len(triples) + 1) for key in zip(
        np.broadcast_to(shifts, base.shape).ravel().tolist(), base.ravel().tolist(),
        matrix.ravel().tolist())], base.shape)
    log_firsts, log_class = _classes(
        kinds + (len(triples) + 1) * (1 + 2 * i + (i == k)) * (own & support))
    square_firsts, square_class = _classes(
        (kinds > 0) * (1 + (i * rank + k) * len(log_firsts) + log_class))
    return _BoxParts(base=base, toward=np.where(own, (i == k) - base, 0.0),
                     divisors=np.where(support, matrix, 1.0),
                     gives=np.cumsum(np.where(own, base, 0.0), axis=2)[..., -1].tolist(),
                     sums=np.cumsum(base, axis=1)[:, -1].tolist(),
                     square_firsts=square_firsts, square_series=square_firsts // len(shifts),
                     log_firsts=log_firsts,
                     classes=np.stack((square_class, log_class + len(square_firsts))))


def _box_bound(table: dims.LinearFactors, s: float):
    """The certified bound on the sum of d(n)^(-s) outside [0, B]^rank, as a
    function of B.

    The outside is the union of the regions {n_i > B}.  Under the weighted
    AM-GM, d(n)^(-s) <= prod_k g_k(n_k), g_k(m) = prod_j (1 + L_kj m / (c_j
    w_kj))^(-s w_kj), and region i sums to at most sum_{m > B} g_i(m) times
    the full sums of the other g_k.  Its shares start at L_kj / sum_k L_kj
    and move toward coordinate i by the largest t in [0, 1] that keeps
    s sum_j w_kj >= 1.2 for every other k; a g_k with s sum_j w_kj <= 1
    diverges and makes the bound inf.  As d >= 1, a bound at s' <= s holds
    at s, and s' <= 1e300 keeps the power sums finite.  The tail of a series
    from m = start is ``genseries.whole_tail``; where that is NaN (at a total
    power P in the hundreds the kernel's value underflows), it is taken in
    logs by ``genseries.log_first_order``.

    The moves t_i are taken in Python from the table's parts
    (``_box_parts``); the shares, the kappas c w / L, the powers p = s w,
    the log scale sum_j p_j log kappa_j and the moments of
    ``genseries.tail_moments`` of all rank^2 series, in a few passes over
    (i, k, j) arrays.  Every sum runs from left to right
    (``np.add.accumulate``), and each logarithm and square is Python's
    ``math.log`` and ``math.pow`` (the libm call of ``x ** 2``), taken once
    per class of equal values, so the bound is the scalar formula's bit for
    bit; max|kappa - kbar| is the larger of kappa_max - kbar and kbar -
    kappa_min, as rounding is monotone.  Series with equal moments share
    one whole tail, which takes each start once, so the certificate makes
    no full-precision Hurwitz evaluation and no pinned tail twice.
    """
    import numpy as np
    s = min(s, 1e300)
    parts, need = table.part(_box_parts), 1.2 / s
    moves = [max(0.0, min([1.0] + [(parts.sums[k] - need) / g
                                   for k, g in enumerate(gives) if k != i and g > 0]))
             for i, gives in enumerate(parts.gives)]
    shares = parts.base + parts.toward * np.array(moves)[:, None, None]
    powers = s * shares
    kappas = table._arrays[1] * shares / parts.divisors
    totals = np.add.accumulate(powers, axis=2)[..., -1]
    if totals.min() <= 1.0:
        return lambda box: math.inf
    kbars = np.add.accumulate(powers * kappas, axis=2)[..., -1] / totals
    offsets = kappas.take(parts.square_firsts) - kbars.take(parts.square_series)
    # a kappa of 0 has no share: its log is finite, and its power 0
    firsts = np.maximum(kappas.take(parts.log_firsts), sys.float_info.min)
    values = np.fromiter(chain(map(math.pow, offsets.tolist(), repeat(2.0)),
                               map(math.log, firsts.tolist())), float, len(offsets) + len(firsts))
    moments = np.add.accumulate(powers * values[parts.classes], axis=3)[..., -1]
    least = np.minimum.accumulate(np.where(shares > 0, kappas, math.inf), axis=2)[..., -1]
    most = np.maximum.accumulate(kappas, axis=2)[..., -1]
    spread = np.maximum(most - kbars, kbars - least)
    tails = {}      # moments -> (their whole tail, P)

    def tail_of(key):
        if key not in tails:
            tails[key] = genseries.whole_tail(*key), key[0]
        return tails[key]

    series = [[*map(tail_of, zip(*rows))] for rows in zip(*(a.tolist() for a in (
        totals, kbars, spread, moments[0], least)))]

    def log_tail(i, k, start):
        """The log of the certified tail from m = start of series k of region i;
        a series met again shares the tails of the first."""
        tail, total = series[i][k]
        bound = tail(start)
        if bound >= sys.float_info.min:
            return math.log(bound)
        live = shares[i, k] > 0
        return genseries.log_first_order(
            list(zip(powers[i, k, live].tolist(), kappas[i, k, live].tolist())), total, start)

    regions, exp = [], genseries._exp
    for i, scales in enumerate(moments[1].tolist()):
        # the log of each full sum 1 + sum_{m >= 1} g_k(m) but the i-th; the
        # sum of a tail's estimate and bound bounds it from above
        log_rest = 0.0
        for k, scale in enumerate(scales):
            if k != i:
                log_rest += math.log1p(exp(scale + log_tail(i, k, 1)))
        regions.append(scales[i] + log_rest)

    def bound(box):
        acc = 0.0
        for i, scale in enumerate(regions):
            acc += exp(scale + log_tail(i, i, box + 1))
        return acc

    return bound


def _least_side(bound, top: int, goal: float) -> int:
    """The least side B in [0, top] with bound(B) <= goal, given that
    bound(top) meets it: the side a bisection finds wherever bound does not
    grow with B, from fewer evaluations.

    The bracket (lo, hi] holds it, bound(lo) > goal >= bound(hi), and each
    probe moves one of its ends.  The first probe is B = 0 when the bracket
    holds more than 9 sides.  A later one goes where the line through two
    points (log(B + 2), log bound(B)) meets log goal, as a power law in
    B + 2 would, rounded up: through hi and lo after a probe that missed the
    goal, through hi and the hi before it after one that met it.  As in
    Brent's zero finder (1973, ch. 4), that guess is only taken when it
    moves less than half as far as the probe before last did; otherwise, or
    when a bound on the line is 0 or inf, the bracket is halved.
    """
    lo, hi, other, last, steps = -1, top, top, top, []
    while hi - lo > 1:
        probe = min((lo + hi) // 2 + 1, hi - 1)
        ends = bound(other), bound(hi)
        if lo < 0 and hi > 8:
            probe = 0
        elif lo >= 0 and 0.0 < min(ends) and max(ends) < math.inf and ends[0] != ends[1]:
            y_1, y_2 = map(math.log, ends)
            x_1, x_2 = math.log(other + 2), math.log(hi + 2)
            x = x_1 + (math.log(goal) - y_1) / (y_2 - y_1) * (x_2 - x_1)
            guess = min(max(math.ceil(math.exp(min(x, x_2))) - 2, lo + 1), hi - 1)
            if len(steps) < 2 or 2 * abs(guess - last) < steps[-2]:
                probe = guess
        if bound(probe) <= goal:
            hi, other = probe, hi
        else:
            lo = other = probe
        steps.append(abs(probe - last))
        last = probe
    return hi


#: The first cut M of ``_majorant_grade``; each table's majorant rows start
#: at m = 0..M + 2 (``_HeatParts``).
_FIRST_CUT = 16

#: A table keeps the majorant's polynomial rows of at most this many
#: exponents at once (``_HeatParts``); one more starts the store afresh.
_EXPONENTS = 64


def _majorant_rows(table: dims.LinearFactors, top: int) -> tuple[np.ndarray, ...]:
    """The parts of ``_HeatParts.logs`` at m = 0..top that depend on the table
    alone: log1p(m r_ij) of the upper form (exponent <= 0), log1p(m r_j) of
    the lower form (exponent > 0), and G_ii m^2 + lin_i m."""
    import numpy as np
    matrix, shifts = table._arrays
    gram, lin = table._form
    m = np.arange(top + 1, dtype=float)[:, None]
    return (np.log1p(m[:, :, None] * (matrix / shifts)),
            np.log1p(m[:, :, None] * (matrix.sum(axis=0) / shifts)),
            m * m * gram.diagonal() + m * lin)


class _HeatParts:
    """What the majorant of a higher-rank heat sum needs of its table alone,
    built once per table (by ``table.part``), and of the table and one
    exponent, built once per exponent; nothing here depends on the area.

    Per table: the shares' denominators sum_i L_ij, the (G_ii, lin_i) of the
    ratio bound and the rows of ``_majorant_rows``, which start at m = 0..M
    + 2 for the first cut M and, like a ``Head``, grow on demand to the
    larger of the rows asked for and twice the rows held.  Per exponent, in
    a dict keyed by it: the rows poly[m, i] = sum_j p_ij log1p(m r_ij) of
    ``logs``, over every row held when they were made, and made again when
    a call asks past them; at most ``_EXPONENTS`` exponents are kept at
    once.  A row of either kind is the same float however many rows are
    held, so a call reads the same logs as one that built them all anew.  A
    call reads the rows it found or built throughout, so calls that grow
    them at once still get the right rows; the last ones stored are kept.
    """

    def __init__(self, table: dims.LinearFactors):
        gram, lin = table._form
        self.table = table
        self.totals = table._arrays[0].sum(axis=0)
        self.gauss = list(zip(gram.diagonal().tolist(), lin.tolist()))
        self.rows = _majorant_rows(table, _FIRST_CUT + 2)
        self.polys = {}

    def logs(self, exponent: float, area: float, top: int) -> np.ndarray:
        """log h_i(m) for every coordinate i (rows) and m = 0..top (columns),
        with q^{c2(n)} d(n)^-exponent <= prod_i h_i(n_i) on the nonnegative
        cone:

            h_i(m) = exp(-area (G_ii m^2 + lin_i m)) prod_j (1 + r_ij m)^p_ij.

        The Casimir n.G.n + lin.n is at least sum_i G_ii n_i^2 + lin_i n_i,
        as G >= 0 entrywise.  Each factor of d, 1 + sum_i a_i, is at most
        prod_i (1 + a_i), so r_ij = L_ij / c_j and p_ij = -exponent when
        exponent <= 0; and at least its weighted AM-GM product, so at the
        shares w_ij = L_ij / sum_i L_ij, r_ij = sum_i L_ij / c_j and p_ij =
        -exponent w_ij when exponent > 0.  Of the kept rows only the
        difference poly - area (G_ii m^2 + lin_i m) is taken here.
        """
        rows = self.rows
        if len(rows[2]) <= top:
            rows = _majorant_rows(self.table, max(top, 2 * (len(rows[2]) - 1)))
            self.rows = rows
        poly = self.polys.get(exponent)
        if poly is None or len(poly) <= top:
            upper, lower, _ = rows
            if exponent > 0.0:
                poly = (lower * (-exponent * self.table._arrays[0] / self.totals)).sum(axis=2)
            else:
                poly = (upper * -exponent).sum(axis=2)
            if len(self.polys) >= _EXPONENTS:
                self.polys = {}
            self.polys[exponent] = poly
        return (poly[:top + 1] - area * rows[2][:top + 1]).T


def _majorant_grade(table: dims.LinearFactors, exponent: float, area: float,
                    tolerance: float, cap: int) -> tuple[int, float]:
    """The least grade K whose majorant tail is at most ``tolerance``, and
    that tail; when no K within ``cap`` terms is, the least K whose tail is
    within twice that of the largest K within ``cap`` terms.

    The majorant sum_n prod_i h_i(n_i) is the product of the one-coordinate
    series H_i(z) = sum_m h_i(m) z^m at z = 1, and its part beyond grade K
    is the coefficient tail of prod_i H_i.  Split each H_i at M (``cut``)
    into P_i, its terms m <= M, and the rest T_i.  For K <= M that tail is
    at most the coefficients beyond K of prod_i P_i (``np.convolve``) plus
    sum_i T_i prod_{l != i} (P_l(1) + T_l).  The ratio h_i(m+1)/h_i(m)
    decreases in m when exponent <= 0; when exponent > 0 its polynomial
    part is <= 1, and q^{G_ii (2m + 1) + lin_i}, which decreases, bounds
    it.  The larger of the two at m = M+1 is r_i, and T_i <= h_i(M+1) /
    (1 - r_i).  M doubles until a K <= M meets the tolerance or M reaches
    the largest grade the cap allows.  Every h_i is scaled by its largest
    term before the products, so nothing overflows.

    What depends on the table, or on the table and the exponent, is kept
    (``_HeatParts``); a call does only the passes that depend on the area:
    the difference of the kept rows, the exponential, the ratio and the
    spill, the convolutions and the log tails.  The arithmetic on one
    number per coordinate or per grade is in Python floats; the
    exponentials, logarithms, reductions and convolutions are numpy's,
    called as ufuncs and their reductions, without the array methods'
    Python wrappers.
    """
    import numpy as np
    parts = table.part(_HeatParts)
    k_cap = radius(len(parts.gauss), cap, simplex=True)
    log_tol = math.log(tolerance)
    cut = min(_FIRST_CUT, k_cap)
    add, maximum = np.add, np.maximum
    # past the float range area m^2 makes a log h_i(m) -inf, and a sum or a
    # product of sums makes the spill inf (no certificate), never NaN, so at
    # the cap grade the missed-tolerance rule ends the search; a zero tail's
    # log is -inf
    with np.errstate(over="ignore", divide="ignore"):
        while True:
            logs = parts.logs(exponent, area, cut + 2)
            scale = maximum.reduce(logs, axis=1)
            head = np.exp(logs - scale[:, None])
            # max keeps its first argument over a NaN, the difference of two -inf
            log_ratio = [max(-area * (g * (2 * cut + 3) + b), last - before)
                         for (before, last), (g, b) in zip(logs[:, cut + 1:].tolist(),
                                                           parts.gauss)]
            if all(r < 0.0 for r in log_ratio):
                rest = head[:, cut + 1] / -np.expm1(log_ratio)
                sums = add.reduce(head[:, :cut + 1], axis=1) + rest
                total = math.prod(sums.tolist())
                spill = (float(add.reduce(rest * total / sums)) if total < math.inf
                         else math.inf)
            else:
                spill = math.inf
            coeffs = head[0, :cut + 1]
            for row in head[1:, :cut + 1]:
                coeffs = np.convolve(coeffs, row)
            # the coefficients past K, summed from the top down, for K = 0..cut
            beyond = np.concatenate((add.accumulate(coeffs[:0:-1])[::-1], [0.0]))
            log_tails = (np.log(beyond[:cut + 1] + spill) + add.reduce(scale)).tolist()
            if cut == k_cap and log_tails[cut] > log_tol:
                log_tol = log_tails[cut] + math.log(2.0)
            grade = next((k for k, t in enumerate(log_tails) if t <= log_tol), None)
            if grade is not None:
                break
            cut = min(2 * cut, k_cap)
    log_tail = log_tails[grade]
    return grade, genseries._exp(log_tail)
