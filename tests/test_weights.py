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


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_simplex_chunks_is_lex_brute_force(rank):
    for k in range(8):
        chunks = list(weights.simplex_chunks(rank, k))
        assert all(c.dtype == np.int64 and c.shape[1] == rank for c in chunks)
        rows = np.concatenate(chunks)
        brute = [n for n in product(range(k + 1), repeat=rank) if sum(n) <= k]
        assert list(map(tuple, rows.tolist())) == brute


@pytest.mark.parametrize("rank,k,limit", [(1, 9, 4), (2, 9, 1), (2, 9, 7),
                                          (3, 8, 5), (4, 6, 13), (5, 5, 40),
                                          (2, 120, None), (3, 60, None)])
def test_simplex_chunks_cover_once_within_the_row_limit(rank, k, limit, monkeypatch):
    # small limits force the prefix splits; None keeps the module's own
    if limit is not None:
        monkeypatch.setattr(weights, "CHUNK_ROWS", limit)
    chunks = list(weights.simplex_chunks(rank, k))
    assert max(len(c) for c in chunks) <= weights.CHUNK_ROWS
    rows = list(map(tuple, np.concatenate(chunks).tolist()))
    assert len(set(rows)) == len(rows)
    brute = [n for n in product(range(k + 1), repeat=rank) if sum(n) <= k]
    assert rows == brute
