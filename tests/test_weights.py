from itertools import product

import numpy as np
import pytest

from wittenzeta import rootdata, weights
from wittenzeta.errors import UnknownSpace, UnsupportedSpace
from wittenzeta.rootdata import dot


def test_rank_one_enumeration():
    assert weights.enumerate_class_one("S:5", 3) == [(0,), (1,), (2,), (3,)]


def test_ai3_box_one():
    assert weights.enumerate_class_one("AI:3", 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_box_counts():
    assert len(weights.enumerate_class_one("AI:3", 2)) == 9
    assert len(weights.enumerate_class_one("EIII", 3)) == 16


def test_zero_weight_first_and_unique():
    lst = weights.enumerate_class_one("AI:4", 2)
    assert lst[0] == (0, 0, 0)
    assert lst.count((0, 0, 0)) == 1


def test_monotone_in_box_bound():
    small = weights.enumerate_class_one("AI:3", 2)
    large = weights.enumerate_class_one("AI:3", 3)
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
    for coords in weights.enumerate_class_one(space_id, 2):
        lam = weights.class_one_vector(space_id, coords)
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
        lam = weights.class_one_vector("CP:2", (n,))
        val = dot(lam, divisible_root) / dot(divisible_root, divisible_root)
        assert val == 2 * n


def test_pairing_matrix_integrality():
    for sid in SAMPLE_SPACES:
        matrix = weights.class_one_pairing_matrix(sid)
        assert all(v >= 0 for row in matrix for v in row)


def test_evii_enumeration_blocked():
    with pytest.raises(UnsupportedSpace):
        weights.enumerate_class_one("EVII", 2)


def test_coordinate_validation():
    with pytest.raises(UnknownSpace):
        weights.class_one_vector("S:2", (1, 2))
    with pytest.raises(UnknownSpace):
        weights.class_one_vector("S:2", (-1,))
    with pytest.raises(UnknownSpace):
        weights.enumerate_class_one("S:2", -1)


# --- dominant weights of compact groups ---

def test_su2_dominant():
    assert weights.enumerate_dominant("SU:2", 4) == [(n,) for n in range(5)]


def test_su3_dominant():
    assert weights.enumerate_dominant("SU:3", 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(weights.enumerate_dominant("SU:3", 2)) == 9


@pytest.mark.parametrize("group_id", ("SU:3", "SO:5", "Sp:2", "G2"))
def test_dominant_condition_every_positive_root(group_id):
    group = rootdata.lookup_group(group_id)
    for coords in weights.enumerate_dominant(group_id, 2):
        nu = weights.dominant_vector(group_id, coords)
        for alpha in group.root_system.positive_roots:
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
        monkeypatch.setattr(weights, "SIMPLEX_ROWS", limit)
    chunks = list(weights.simplex_chunks(rank, k))
    assert max(len(c) for c in chunks) <= weights.SIMPLEX_ROWS
    rows = list(map(tuple, np.concatenate(chunks).tolist()))
    assert len(set(rows)) == len(rows)
    brute = [n for n in product(range(k + 1), repeat=rank) if sum(n) <= k]
    assert rows == brute
