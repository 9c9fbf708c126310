"""Metamorphic properties over Q: a change of basis keeps every invariant.

Each algebra is rewritten in a random unimodular basis and loses its
presentation, so the radical, the blocks and the families are found from
the structure constants alone.  That runs the integer elimination over Q
end to end.
"""

import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KRONECKER_QUIVER, kxkxm2, quiver_algebra
from maxsub.algebra import block_triangular, make_algebra, matrix_algebra
from maxsub.linalg import QQ, combine, identity_matrix, solve_linear
from maxsub.maximal import enumerate_maximal_families, max_proper_subalgebra_dim
from maxsub.structure import jacobson_radical, structure_report

BASES = {
    "M2": lambda: matrix_algebra(2, QQ),
    "T3": lambda: block_triangular(3, (1, 1, 1), QQ).as_algebra(),
    "Kronecker": lambda: quiver_algebra(KRONECKER_QUIVER, QQ),
    "KxKxM2": lambda: kxkxm2(QQ),
}


def _unimodular(n, rng):
    """A random n×n integer matrix of determinant ±1: a signed permutation
    followed by 2n row additions with multipliers ±1 and ±2."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)]
            for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def _rebased(alg, rows):
    """alg in the basis given by rows (parent coordinates), with no
    presentation."""
    inv, _ = solve_linear(rows, identity_matrix(alg.dim, QQ), QQ)
    table = [[combine(alg.multiply(x, y), inv, QQ) for y in rows] for x in rows]
    return make_algebra(QQ, [f"b{i + 1}" for i in range(alg.dim)],
                        combine(alg.unit, inv, QQ), table, check=True)


def _invariants(alg):
    rep = structure_report(alg)
    families = Counter(f.kind for f in enumerate_maximal_families(alg))
    return (jacobson_radical(alg).dim, rep.schur, rep.block_dims,
            max_proper_subalgebra_dim(alg), sorted(families.items()))


@lru_cache(maxsize=None)
def _base_invariants(name):
    return _invariants(BASES[name]())


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_change_of_basis_keeps_the_invariants(name, seed):
    base = BASES[name]()
    rows = [[QQ.coerce(x) for x in r]
            for r in _unimodular(base.dim, random.Random(seed))]
    assert _invariants(_rebased(base, rows)) == _base_invariants(name)


def test_base_invariants_are_the_known_ones():
    assert _base_invariants("M2") == (
        0, True, (2,), 3, [("block_triangular", 1)])
    assert _base_invariants("T3")[:4] == (3, True, (1, 1, 1), 5)
    assert _base_invariants("Kronecker")[:4] == (2, True, (1, 1), 3)
    assert _base_invariants("KxKxM2")[:4] == (0, True, (1, 1, 2), 5)
