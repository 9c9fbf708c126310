"""Shared builders for the standard test algebras."""

from __future__ import annotations

import importlib.util
import os

import pytest
from hypothesis import settings

from maxsub.algebra import direct_product, make_algebra, matrix_algebra
from maxsub.linalg import GF, QQ, Field
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


def strip_presentation(alg):
    """The same algebra without its presentation metadata."""
    from maxsub.algebra import Algebra
    return Algebra(alg.field, alg.dim, alg.basis_names, alg.unit, alg.table,
                   None)


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
