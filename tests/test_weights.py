import math
from itertools import product

import numpy as np
import pytest

from test_rootdata import (ambient_coweights, combine, dot, fundamental_weights, scale,
                           simple_roots)
from wittenzeta import dims, rootdata, weights
from wittenzeta.errors import DomainError, UnknownSpace


def _box(space_id, box_bound):
    """The class-one weights of a space with every coordinate <= box_bound."""
    return weights._graded_box(rootdata.lookup_space(space_id).rank, box_bound)


def _class_one_basis(rs):
    """b_i = s_i w_i as ambient vectors: s_i = |alpha_i|^2, doubled on a
    divisible simple root."""
    return [scale(dot(a, a) * (2 if i in rs.divisible_indices else 1), w)
            for i, (a, w) in enumerate(zip(simple_roots(rs), ambient_coweights(rs)))]


def test_rank_one_enumeration():
    assert _box("S:5", 3) == [(0,), (1,), (2,), (3,)]


def test_ai3_box_one():
    assert _box("AI:3", 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_box_counts():
    assert len(_box("AI:3", 2)) == 9
    assert len(_box("EIII", 3)) == 16


def test_zero_weight_first_and_unique():
    lst = _box("AI:4", 2)
    assert lst[0] == (0, 0, 0)
    assert lst.count((0, 0, 0)) == 1


def test_monotone_in_box_bound():
    small = _box("AI:3", 2)
    large = _box("AI:3", 3)
    assert set(small) <= set(large)
    # relative order is preserved: graded lex is one fixed total order
    positions = {w: i for i, w in enumerate(large)}
    assert all(positions[a] < positions[b]
               for a, b in zip(small, small[1:]))


SAMPLE_SPACES = ("S:4", "AI:3", "AIII:3,2", "CII:2,2", "BDI:3,2", "EIII",
                 "GI", "DIII:5", "FII", "HP:1")


@pytest.mark.parametrize("space_id", SAMPLE_SPACES)
def test_lattice_conditions_against_every_positive_root(space_id):
    """Direct rational pairing check of the defining lattice conditions."""
    space = rootdata.lookup_space(space_id)
    rs = space.root_system
    pos = rs.positive_roots
    divisible = {pos[i] for i in rs.divisible_indices}
    basis = _class_one_basis(rs)
    for coords in _box(space_id, 2):
        lam = combine(coords, basis)
        for alpha in pos:
            val = dot(lam, alpha) / dot(alpha, alpha)
            assert val.denominator == 1 and val >= 0, (space_id, coords, alpha)
            if alpha in divisible:
                assert val % 2 == 0, (space_id, coords, alpha)


def test_cp2_divisible_root_pairing_is_even():
    space = rootdata.lookup_space("CP:2")
    rs = space.root_system
    divisible_root = rs.positive_roots[rs.divisible_indices[0]]
    for n in (0, 1, 2):
        lam = combine((n,), _class_one_basis(rs))
        val = dot(lam, divisible_root) / dot(divisible_root, divisible_root)
        assert val == 2 * n


def test_pairing_matrix_integrality():
    for sid in SAMPLE_SPACES:
        matrix = dims.class_one_pairing_matrix(sid)
        assert all(v >= 0 for row in matrix for v in row)


def test_coordinate_validation():
    with pytest.raises(UnknownSpace):
        dims.root_pairings("S:2", (1, 2))
    with pytest.raises(UnknownSpace):
        dims.root_pairings("S:2", (-1,))
    with pytest.raises(DomainError):
        _box("S:2", -1)


# --- dominant weights of compact groups ---

def _dominant_box(group_id, box_bound):
    return weights._graded_box(rootdata.lookup_group(group_id).rank, box_bound)


def test_su2_dominant():
    assert _dominant_box("SU:2", 4) == [(n,) for n in range(5)]


def test_su3_dominant():
    assert _dominant_box("SU:3", 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(_dominant_box("SU:3", 2)) == 9


@pytest.mark.parametrize("group_id", ("SU:3", "SO:5", "Sp:2", "G2"))
def test_dominant_condition_every_positive_root(group_id):
    group = rootdata.lookup_group(group_id)
    basis = fundamental_weights(group)
    for coords in _dominant_box(group_id, 2):
        nu = combine(coords, basis)
        for alpha in group.positive_roots:
            val = 2 * dot(nu, alpha) / dot(alpha, alpha)
            assert val.denominator == 1 and val >= 0


def _both_shapes(*cases):
    """Each case of a ``ball_chunks`` test for the simplex and for the box;
    the simplex keeps the ids it had before the box joined it."""
    ids = ["-".join(map(str, case)) for case in cases]
    return ([pytest.param(*case, True, id=i) for case, i in zip(cases, ids)]
            + [pytest.param(*case, False, id=f"{i}-box") for case, i in zip(cases, ids)])


def _lex_ball(rank, r, simplex):
    """Every point of the box [0, r]^rank or of its simplex, coordinate sum
    <= r, in lex order."""
    return [n for n in product(range(r + 1), repeat=rank) if not simplex or sum(n) <= r]


@pytest.mark.parametrize("rank,simplex", _both_shapes((1,), (2,), (3,), (4,)))
def test_simplex_chunks_is_lex_brute_force(rank, simplex):
    for k in range(8):
        chunks = list(weights.ball_chunks(rank, k, simplex=simplex))
        assert all(c.dtype == np.int64 and c.shape[1] == rank for c in chunks)
        rows = np.concatenate(chunks)
        assert list(map(tuple, rows.tolist())) == _lex_ball(rank, k, simplex)


@pytest.mark.parametrize("rank,k,limit,simplex", _both_shapes(
    (1, 9, 4), (2, 9, 1), (2, 9, 7), (3, 8, 5), (4, 6, 13), (5, 5, 40),
    (2, 120, None), (3, 60, None)))
def test_simplex_chunks_cover_once_within_the_row_limit(rank, k, limit, simplex,
                                                        monkeypatch):
    # small limits force the prefix splits; None keeps the module's own
    if limit is not None:
        monkeypatch.setattr(weights, "CHUNK_ROWS", limit)
    chunks = list(weights.ball_chunks(rank, k, simplex=simplex))
    assert max(len(c) for c in chunks) <= weights.CHUNK_ROWS
    rows = list(map(tuple, np.concatenate(chunks).tolist()))
    assert len(set(rows)) == len(rows)
    assert rows == _lex_ball(rank, k, simplex)


def _reference_chunks(rank, r, simplex):
    """``weights.ball_chunks`` as it was when it built each chunk by repeat
    and concatenate, one coordinate at a time."""
    def next_coordinate(prefix, budget):
        counts = budget + 1
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        nxt = np.arange(len(offsets), dtype=np.int64) - offsets
        return (np.concatenate([np.repeat(prefix, counts, axis=0), nxt[:, None]], axis=1),
                np.repeat(budget, counts) - simplex * nxt)

    def completions(prefix, budget):
        free = rank - prefix.shape[1]
        if simplex:
            sizes = np.ones_like(budget)
            for t in range(1, free + 1):
                sizes = sizes * (budget + t) // t
        else:
            sizes = (budget + 1) ** free
        ends, start = np.cumsum(sizes), 0
        while start < len(budget):
            stop = int(np.searchsorted(ends, ends[start] - sizes[start] + weights.CHUNK_ROWS,
                                       side="right"))
            if stop == start:
                yield from completions(*next_coordinate(prefix[start:start + 1],
                                                        budget[start:start + 1]))
                stop = start + 1
            else:
                rows, left = prefix[start:stop], budget[start:stop]
                for _ in range(free):
                    rows, left = next_coordinate(rows, left)
                yield rows
            start = stop

    yield from completions(np.zeros((1, 0), dtype=np.int64), np.array([r], dtype=np.int64))


@pytest.mark.parametrize("limit", [None, 7, 50])
@pytest.mark.parametrize("simplex", [True, False], ids=["simplex", "box"])
@pytest.mark.parametrize("rank", range(1, 9))
def test_chunks_filled_column_by_column_match_the_repeated_ones(rank, simplex, limit,
                                                                monkeypatch):
    # the same chunks, row for row, as the generator that grew each chunk
    # by repeat and concatenate; small limits force the prefix splits
    if limit is not None:
        monkeypatch.setattr(weights, "CHUNK_ROWS", limit)
    radii = (0, 1, 2, 5, 13, 40) if rank <= 4 else (0, 1, 2, 3, 5, 8)
    for r in radii:
        if weights.ball_size(rank, r, simplex=simplex) > 200_000:
            continue
        new = list(weights.ball_chunks(rank, r, simplex=simplex))
        old = list(_reference_chunks(rank, r, simplex))
        assert len(new) == len(old), r
        for a, b in zip(new, old):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), r


@pytest.mark.parametrize("rank,r,simplex,peak_kib", [(2, 400, False, 1800),
                                                     (3, 60, True, 1800)])
def test_chunks_hold_one_array_and_a_few_columns(rank, r, simplex, peak_kib):
    # each chunk is one preallocated (rows, rank) array; the transients are
    # single columns, not the repeated prefix rows of every coordinate
    tracemalloc = pytest.importorskip("tracemalloc")
    list(weights.ball_chunks(rank, 3, simplex=simplex))
    tracemalloc.start()
    try:
        for rows in weights.ball_chunks(rank, r, simplex=simplex):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_kib << 10


# --- the exactly rounded sum of a region's terms ---

def _assert_same_as_fsum(values):
    """weights._exact_sum(values) is math.fsum(values.tolist()), bit for bit,
    or raises the exception type fsum raises."""
    try:
        want = math.fsum(values.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            weights._exact_sum(values)
        return
    assert weights._exact_sum(values).hex() == want.hex()


def _random_arrays(rng, n):
    """Arrays of n terms that stress the extraction: mixed signs, a huge
    dynamic range, subnormals, terms of one size and sign, cancellation to
    +-0 and d^-s shaped terms."""
    signs = rng.choice([-1.0, 1.0], n)
    yield signs * 10.0 ** rng.uniform(-320, 290, n)
    yield signs * rng.integers(1, 1 << 20, n) * 5e-324
    yield rng.standard_normal(n) * 2.0 ** rng.integers(-60, 60, n)
    yield rng.uniform(0.5, 1.0, n) * 2.0 ** int(rng.integers(-1000, 1000))
    half = rng.standard_normal(n // 2)
    yield rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
    yield np.where(rng.random(n) < 0.5, -0.0, 0.0)
    yield rng.integers(1, 10 ** 6, n).astype(float) ** -rng.uniform(0.5, 8)
    yield rng.random(n) * np.exp(-rng.uniform(0, 700, n))


def _near_ties(n):
    """One and terms of 2^-54 that sum to half an ulp of one, the tie, then
    the tie nudged by one least subnormal either way."""
    tie = np.zeros(n)
    tie[0], tie[1:3] = 1.0, 2.0 ** -54
    for nudge in (0.0, 5e-324, -5e-324):
        nudged = tie.copy()
        nudged[3] = nudge
        yield nudged
    yield np.concatenate([[1.0], np.full(n - 1, 1e-16)])


@pytest.mark.parametrize("n", [2, 299, 300, 301, 1000, 4099])
def test_exact_sum_is_fsum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        for values in _random_arrays(rng, n):
            _assert_same_as_fsum(values)
    for values in _near_ties(max(n, 4)):
        _assert_same_as_fsum(values)


def test_exact_sum_at_a_full_chunk():
    rng = np.random.default_rng(1)
    for values in [*_random_arrays(rng, weights.CHUNK_ROWS), *_near_ties(weights.CHUNK_ROWS)]:
        _assert_same_as_fsum(values)


@pytest.mark.parametrize("special", [[math.inf], [-math.inf], [math.inf, -math.inf],
                                     [math.nan], [math.inf, math.nan],
                                     [1.7e308, 1.7e308],          # the sum overflows
                                     [1.7e308, 1.7e308, -1.7e308],  # an intermediate one
                                     [8.9e307] * 3 + [-8.9e307] * 3,
                                     [math.inf, 1.7e308, 1.7e308]])
@pytest.mark.parametrize("n", [10, 1000])
def test_exact_sum_of_non_finite_and_overflowing_terms(special, n):
    values = np.random.default_rng(n).random(n)
    values[:len(special)] = special
    _assert_same_as_fsum(values)


def test_exact_sum_just_inside_the_float_range():
    # sigma = 2^(e+m) is 2^1023 at most; a larger top term is left to fsum
    n = 1000
    m = (n + 1).bit_length()
    for top in (2.0 ** (1023 - m) * 0.99, 2.0 ** (1023 - m), 1.7e308):
        values = np.random.default_rng(2).random(n) * top
        values[0] = top
        _assert_same_as_fsum(values)


def test_region_sum_takes_the_vector_path(monkeypatch):
    # the box of zeta_II(SU:3, 2) at 1e-6 holds 26,569 terms; were they
    # handed to fsum as a list, the vector path would have gone
    lengths, fsum = [], math.fsum

    def recording_fsum(terms):
        if isinstance(terms, list):
            lengths.append(len(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", recording_fsum)
    table = dims.compile_group("SU:3")
    assert weights.sum_region(weights.ball(table, 162, simplex=False), 2.0, 0.0) > 1.0
    assert max(lengths, default=0) < weights._FSUM_ROWS


def _reference_region_sum(pairs, exponent, area):
    """sum_region's value with one math.fsum over each pair's term list."""
    totals = []
    for log_dims, casimirs in pairs:
        logs = -exponent * log_dims - (0.0 if casimirs is None else area * casimirs)
        totals.append(math.fsum(np.exp(logs).tolist()))
    return math.fsum(totals)


@pytest.mark.parametrize("ident,group,r,simplex,exponent,area", [
    ("SU:3", True, 162, False, 2.0, 0.0),
    ("SU:3", True, 255, False, 2.0, 0.0),      # two chunks
    ("G2", True, 102, False, 1.0, 0.0),
    ("AI:3", False, 40, False, 2.0, 0.0),
    ("SU:4", True, 30, True, 0.0, 0.2),
    ("Sp:3", True, 25, True, -2.0, 0.2),
    ("EIII", False, 12, True, 2.0, 0.05),
    ("SU:3", True, 300, True, 0.0, 1e-3),      # a simplex past one chunk
])
def test_region_sum_matches_fsum_of_each_pair(ident, group, r, simplex, exponent, area):
    table = dims.compile_group(ident) if group else dims.compile_space(ident)
    got = weights.sum_region(weights.ball(table, r, simplex=simplex), exponent, area)
    want = _reference_region_sum(weights.ball(table, r, simplex=simplex), exponent, area)
    assert got.hex() == want.hex()


def test_region_sum_of_one_chunk_holds_two_chunk_arrays():
    tracemalloc = pytest.importorskip("tracemalloc")
    table = dims.compile_group("SU:4")
    r = weights.radius(3, weights.CHUNK_ROWS, simplex=True)
    pair = weights.ball(table, r, simplex=True)[0]
    weights.sum_region([pair], 0.0, 0.2)
    tracemalloc.start()
    try:
        weights.sum_region([pair], 0.0, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * pair[0].nbytes + (16 << 10)
