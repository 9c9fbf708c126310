"""Shared builders for the standard test algebras."""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from maxsub.algebra import Algebra, direct_product, make_algebra, matrix_algebra
from maxsub.linalg import (
    GF,
    QQ,
    Field,
    combine,
    echelonize,
    identity_matrix,
    solve_linear,
)
from maxsub.maximal import ORACLE_DIM_CAP
from maxsub.presentations import (
    PathAlgebraPresentation,
    Poset,
    Quiver,
    incidence_algebra,
    path_algebra,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def recorded_invocations() -> dict:
    """{report name: CLI arguments} of the reports under data/reports/, as
    `scripts/record_reports.py` records them."""
    spec = importlib.util.spec_from_file_location(
        "record_reports", os.path.join(ROOT, "scripts", "record_reports.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.RECORDED


# HYPOTHESIS_PROFILE=ci: the same examples on every run, and no
# per-example deadline, which a slow shared runner could miss
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

A2_QUIVER = Quiver(("1", "2"), (("a", "1", "2"),))
A3_QUIVER = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
A4_QUIVER = Quiver(("1", "2", "3", "4"),
                   (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")))
KRONECKER_QUIVER = Quiver(("a", "b"), (("al1", "a", "b"), ("al2", "a", "b")))
D4_QUIVER = Quiver(("1", "c", "3", "5"),
                   (("x", "1", "c"), ("y", "3", "c"), ("z", "5", "c")))
D5_QUIVER = Quiver(("1", "2", "c", "4", "5"),
                   (("x", "1", "c"), ("y", "2", "c"),
                    ("z", "c", "4"), ("w", "4", "5")))

CHAIN2_POSET = Poset(("1", "2"), (("1", "2"),))
CHAIN3_POSET = Poset(("1", "2", "3"), (("1", "2"), ("2", "3")))
DIAMOND_POSET = Poset(("1", "2", "3", "4"),
                      (("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")))
ZIGZAG_POSET = Poset(("1", "2", "3", "4", "5"),
                     (("2", "1"), ("2", "3"), ("4", "3"), ("4", "5")))


class Scalars:
    """Per-scalar arithmetic of one field, reduced mod p on every operation.

    The library computes on whole vectors; the reference loops that the
    differential tests compare it with compute one scalar at a time, here.
    """

    def __init__(self, field: Field):
        self.p = field.p

    def _red(self, x):
        return x if self.p is None else x % self.p

    def add(self, a, b):
        return self._red(a + b)

    def sub(self, a, b):
        return self._red(a - b)

    def mul(self, a, b):
        return self._red(a * b)

    def neg(self, a):
        return self._red(-a)


# the Hamilton quaternions over Q, a division algebra: B/J = B is simple
# but not a full matrix algebra over Q
QUATERNIONS_ALG = """field Q
dim 4
basis 1 i j k
unit 1 0 0 0
mul 1 1 -> 1:1
mul 1 2 -> 2:1
mul 1 3 -> 3:1
mul 1 4 -> 4:1
mul 2 1 -> 2:1
mul 3 1 -> 3:1
mul 4 1 -> 4:1
mul 2 2 -> 1:-1
mul 3 3 -> 1:-1
mul 4 4 -> 1:-1
mul 2 3 -> 4:1
mul 3 2 -> 4:-1
mul 3 4 -> 2:1
mul 4 3 -> 2:-1
mul 4 2 -> 3:1
mul 2 4 -> 3:-1
"""


def quiver_algebra(quiver: Quiver, field: Field):
    return path_algebra(PathAlgebraPresentation(quiver), field)


def f4_algebra():
    """F_4 as a 2-dimensional F_2-algebra, x^2 = x + 1."""
    return make_algebra(GF(2), ["one", "x"], [1, 0],
                        [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], check=True)


def kxk(field: Field):
    return direct_product([matrix_algebra(1, field), matrix_algebra(1, field)])


def kxkxm2(field: Field):
    return direct_product([matrix_algebra(1, field), matrix_algebra(1, field),
                           matrix_algebra(2, field)])


def random_basis(n: int, field: Field, rng) -> list[list]:
    """Rows of a random invertible n×n matrix over the field.

    Over Q it is unimodular: a signed permutation followed by 2n row
    additions with multipliers ±1 and ±2.  Over F_p it is uniformly random
    among the invertible matrices.
    """
    if field.p is not None:
        while True:
            rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
            if echelonize(rows, n, field).dim == n:
                return rows
    order = list(range(n))
    rng.shuffle(order)
    rows = [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)]
            for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return [[QQ.coerce(x) for x in r] for r in rows]


def rebased(alg, rows):
    """alg in the basis given by rows (parent coordinates), with no
    presentation."""
    f = alg.field
    inv, _ = solve_linear(rows, identity_matrix(alg.dim, f), f)
    table = [[combine(alg.multiply(x, y), inv, f) for y in rows] for x in rows]
    return make_algebra(f, [f"b{i + 1}" for i in range(alg.dim)],
                        combine(alg.unit, inv, f), table, check=True)


# M_2(Q) on the basis 2·e11, e12/3, e21, e22: its structure constants have
# the denominator 6
SCALED_M2_BASIS = tuple(
    tuple(QQ.coerce(x) for x in r)
    for r in ((2, 0, 0, 0), (0, Fraction(1, 3), 0, 0), (0, 0, 1, 0),
              (0, 0, 0, 1)))


def scaled_m2():
    return rebased(matrix_algebra(2, QQ), [list(r) for r in SCALED_M2_BASIS])


def polynomial_quotient(modulus, field: Field):
    """K[x]/(m) on the basis 1, x, ..., x^(d-1), for a monic m given by its
    ascending coefficients."""
    d = len(modulus) - 1
    powers = [[int(i == k) for i in range(d)] for k in range(d)]
    while len(powers) < 2 * d - 1:
        top = powers[-1][-1]
        shifted = [0] + powers[-1][:-1]
        powers.append([s - top * c for s, c in zip(shifted, modulus)])
    table = [[powers[i + j] for j in range(d)] for i in range(d)]
    return make_algebra(field, [f"x{k}" for k in range(d)], powers[0], table,
                        check=True)


@dataclasses.dataclass(frozen=True)
class AlgebraDraw:
    """One draw of `fp_algebras`, which `build` turns into the algebra.

    A bound quiver algebra over F_p: vertices 1..n, arrow k (named ak)
    from arrows[k-1][0] to arrows[k-1][1], and each relation a sum of
    (coefficient, first arrow, second arrow) terms.  bound=2 with every
    product of two loops as a relation is radical square zero.  The
    algebra is then multiplied by M_factor (unless factor is 0) and put in
    the random basis of `seed`.
    """

    p: int
    vertices: int
    arrows: tuple[tuple[int, int], ...]
    relations: tuple[tuple[tuple[int, int, int], ...], ...]
    bound: int | None
    factor: int
    seed: int

    def base(self) -> Algebra:
        """The quiver algebra, before the factor and the basis change."""
        names = tuple(str(v) for v in range(1, self.vertices + 1))
        arrows = tuple((f"a{k}", str(s), str(t))
                       for k, (s, t) in enumerate(self.arrows, 1))
        relations = tuple(tuple((c, (f"a{x}", f"a{y}")) for c, x, y in rel)
                          for rel in self.relations)
        return path_algebra(PathAlgebraPresentation(
            Quiver(names, arrows), relations, self.bound), GF(self.p))

    def build(self) -> Algebra:
        alg = self.base()
        if self.factor:
            alg = direct_product([alg, matrix_algebra(self.factor, alg.field)])
        return rebased(alg, random_basis(alg.dim, alg.field,
                                         random.Random(self.seed)))


@st.composite
def fp_algebras(draw) -> AlgebraDraw:
    """Algebras over F_2 or F_3 of dimension 2 up to the oracle's cap, in a
    random basis: a random acyclic quiver on at most 4 vertices with at
    most 4 arrows and random relations among its parallel paths of length
    2, or one vertex with 1-4 loops and radical square zero; then perhaps
    times M_1 or M_2."""
    p = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        n, bound = draw(st.integers(1, 4)), None
        pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
        arrows = tuple(draw(st.lists(st.sampled_from(pairs), max_size=4))
                       if pairs else ())
        relations = []
        for s, t in itertools.combinations(range(1, n + 1), 2):
            paths = [(x, y) for x, (s1, m) in enumerate(arrows, 1) if s1 == s
                     for y, (m1, t1) in enumerate(arrows, 1)
                     if m1 == m and t1 == t]
            for _ in range(draw(st.integers(0, len(paths)))):
                coefs = draw(st.lists(st.integers(0, p - 1),
                                      min_size=len(paths), max_size=len(paths)))
                rel = tuple((c, x, y) for c, (x, y) in zip(coefs, paths) if c)
                if rel:
                    relations.append(rel)
        relations = tuple(relations)
    else:
        loops = draw(st.integers(1, 4))
        n, bound, arrows = 1, 2, ((1, 1),) * loops
        relations = tuple(((1, x, y),) for x in range(1, loops + 1)
                          for y in range(1, loops + 1))
    spec = AlgebraDraw(p, n, arrows, relations, bound, 0, 0)
    dim = spec.base().dim
    factors = [m for m in (0, 1, 2) if 2 <= dim + m * m <= ORACLE_DIM_CAP]
    assume(factors)
    return dataclasses.replace(spec, factor=draw(st.sampled_from(factors)),
                               seed=draw(st.integers(0, 2 ** 32 - 1)))


def strip_presentation(alg):
    """The same algebra without its presentation metadata."""
    return dataclasses.replace(alg, presentation=None)


def dense_table(alg) -> list[list[tuple]]:
    """The structure constants as a dense table: entry [i][j] holds the
    field scalars of b_i·b_j, expanded from `alg.products` without
    `Algebra.multiply`, for the reference loops."""
    f = alg.field
    den, rows = alg.products
    table = [[[f.zero()] * alg.dim for _ in range(alg.dim)]
             for _ in range(alg.dim)]
    for i, group in enumerate(rows):
        for j, terms in group:
            for k, t in terms:
                table[i][j][k] = f.coerce(Fraction(t, den))
    return [[tuple(v) for v in row] for row in table]


@pytest.fixture(scope="session")
def m2q():
    return matrix_algebra(2, QQ)


@pytest.fixture(scope="session")
def m3q():
    return matrix_algebra(3, QQ)


@pytest.fixture(scope="session")
def m2f2():
    return matrix_algebra(2, GF(2))


@pytest.fixture(scope="session")
def a3_q():
    return quiver_algebra(A3_QUIVER, QQ)


@pytest.fixture(scope="session")
def kronecker_q():
    return quiver_algebra(KRONECKER_QUIVER, QQ)


@pytest.fixture(scope="session")
def kronecker_f2():
    return quiver_algebra(KRONECKER_QUIVER, GF(2))


@pytest.fixture(scope="session")
def zigzag_q():
    return incidence_algebra(ZIGZAG_POSET, QQ)
