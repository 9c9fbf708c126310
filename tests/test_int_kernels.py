"""The integer kernels of the certificate and of the block decomposition
against the Fraction code they replaced.

`certify_maximal` reads the bimodule operators of B/A off integer
products, each the exact operator times one positive scale, and takes the
Burnside dimension as dim span L(A)·R(A).  `_are_matrix_units` checks the
unit relations on integer rows at a common scale.  The references below
are the former bodies: operators from `Algebra.multiply` and
`QuotientSpace.project`, the unit saturated under right multiplication by
every operator, and unit products compared as field vectors.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maxsub.maximal
from conftest import (
    KRONECKER_QUIVER,
    kxkxm2,
    quiver_algebra,
    random_basis,
    rebased,
)
from maxsub.algebra import (
    block_triangular,
    matrix_algebra,
    subalgebra_from_rows,
    subalgebra_generated,
)
from maxsub.linalg import (
    GF,
    QQ,
    _Echelon,
    combine,
    echelonize,
    identity_matrix,
    mat_mul,
    quotient_space,
    saturate,
    solve_linear,
    unit_vec,
    zero_vec,
)
from maxsub.maximal import (
    _generated_operator_dim,
    _quotient_bimodule_ops,
    certify_maximal,
)
from maxsub.structure import _are_matrix_units, structure_report, wedderburn_data

FIELDS = [QQ, GF(2), GF(3)]
BUILDERS = {
    "M2": lambda f: matrix_algebra(2, f),
    "M3": lambda f: matrix_algebra(3, f),
    "T3": lambda f: block_triangular(3, (1, 1, 1), f).as_algebra(),
    "Kronecker": lambda f: quiver_algebra(KRONECKER_QUIVER, f),
    "KxKxM2": kxkxm2,
}


# ---------------------------------------------------------------------------
# the former Fraction kernels

def _quotient_bimodule_ops_ref(a, b):
    q = quotient_space(b.dim, a.space.basis, b.field)
    d = q.dim
    lifts = [q.lift(unit_vec(d, kk, b.field)) for kk in range(d)]
    left_ops, right_ops = [], []
    for r in a.space.basis:
        lcols = [q.project(b.multiply(list(r), lifts[kk])) for kk in range(d)]
        rcols = [q.project(b.multiply(lifts[kk], list(r))) for kk in range(d)]
        left_ops.append([list(col) for col in zip(*lcols)])
        right_ops.append([list(col) for col in zip(*rcols)])
    return q, left_ops, right_ops


def _generated_operator_dim_ref(mats, d, field):
    """The span of all words in the matrices: the identity saturated under
    right multiplication by each."""
    def times(flat, g):
        m = [flat[i * d:(i + 1) * d] for i in range(d)]
        return [x for row in mat_mul(m, g, field) for x in row]

    ident = [x for row in identity_matrix(d, field) for x in row]
    ops = [lambda flat, g=g: times(flat, g) for g in mats]
    return saturate([ident], ops, d * d, field).dim


def _are_matrix_units_ref(a, units):
    n = len(units)
    zero = zero_vec(a.dim, a.field)
    return all(a.multiply(units[p][q], units[r][t])
               == (units[p][t] if q == r else zero)
               for p in range(n) for q in range(n)
               for r in range(n) for t in range(n))


# ---------------------------------------------------------------------------
# inputs

def _scaled_basis(n, field, rng):
    """A random basis; over Q each row is also scaled, so that the
    structure constants and the units have denominators."""
    rows = random_basis(n, field, rng)
    if field.p is None:
        scales = (1, 2, -3, Fraction(1, 2), Fraction(2, 3))
        rows = [[c * x for x in r]
                for c, r in zip((rng.choice(scales) for _ in rows), rows)]
    return rows


@st.composite
def rebasings(draw):
    """(base, rows, base on the basis given by rows)."""
    field = draw(st.sampled_from(FIELDS))
    base = BUILDERS[draw(st.sampled_from(sorted(BUILDERS)))](field)
    rng = draw(st.randoms(use_true_random=False))
    rows = _scaled_basis(base.dim, field, rng)
    return base, rows, rebased(base, rows)


def _element(draw, alg):
    f = alg.field
    coeffs = st.integers(-2, 2) if f.p is None else st.integers(0, f.p - 1)
    return [f.coerce(draw(coeffs)) for _ in range(alg.dim)]


def _positive_scale(got, ref):
    """The c > 0 with got = c·ref for every operator, or None."""
    pairs = [(x, y) for g, r in zip(got, ref) for grow, rrow in zip(g, r)
             for x, y in zip(grow, rrow)]
    c = next((Fraction(x) / y for x, y in pairs if y != 0), Fraction(1))
    ok = c > 0 and all(x == c * y for x, y in pairs)
    return c if ok else None


# ---------------------------------------------------------------------------
# the certificate operators and the Burnside step

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operators_and_burnside_dim_match_the_fraction_kernels(data):
    alg = data.draw(rebasings())[2]
    seeds = [_element(data.draw, alg)
             for _ in range(data.draw(st.integers(1, 2)))]
    a = subalgebra_generated(alg, seeds)
    assume(a.dim < alg.dim)
    f = alg.field
    q, lops, rops = _quotient_bimodule_ops(a, alg)
    q_ref, lref, rref = _quotient_bimodule_ops_ref(a, alg)
    assert q == q_ref
    c = _positive_scale(lops + rops, lref + rref)
    assert c is not None
    if f.p is not None:
        assert lops + rops == lref + rref
    d = q.dim
    dim = _generated_operator_dim(lops, rops, d, f)
    assert dim == _generated_operator_dim_ref(lref + rref, d, f)
    assert (certify_maximal(a, alg).method == "burnside") == (dim == d * d)


def _left_right_dims(lops, rops, field):
    def span_dim(ops):
        return echelonize([[x for row in m for x in row] for m in ops],
                          len(ops[0]) ** 2, field).dim
    return span_dim(lops), span_dim(rops)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", ["T3 in M3", "diagonal in M2",
                                  "scalars in M3", "diagonal in T3"])
def test_burnside_dim_is_that_of_span_l_times_span_r(field, case, monkeypatch):
    """Cases whose operators generate less than End(B/A), two of them
    with L not injective: the step multiplies only echelon bases of
    span L(A) and span R(A), and gets the dimension of the reference."""
    if case == "T3 in M3":
        b = matrix_algebra(3, field)
        a = block_triangular(3, (1, 1, 1), field, b)
    elif case == "diagonal in M2":
        b = matrix_algebra(2, field)
        a = subalgebra_from_rows(b, [[1, 0, 0, 0], [0, 0, 0, 1]])
    elif case == "scalars in M3":
        b = matrix_algebra(3, field)
        a = subalgebra_from_rows(b, [list(b.unit)])
    else:
        bt = block_triangular(3, (1, 1, 1), field)
        b = bt.as_algebra()
        a = subalgebra_from_rows(b, [bt.space.coords(unit_vec(9, 4 * i, field))
                                     for i in range(3)])
    q, lops, rops = _quotient_bimodule_ops(a, b)
    _, lref, rref = _quotient_bimodule_ops_ref(a, b)
    d = q.dim
    want = _generated_operator_dim_ref(lref + rref, d, field)
    assert want < d * d
    dim_l, dim_r = _left_right_dims(lref, rref, field)
    adds = []

    class Counting(_Echelon):
        def add(self, v):
            adds.append(1)
            return super().add(v)

    monkeypatch.setattr(maxsub.maximal, "_Echelon", Counting)
    assert _generated_operator_dim(lops, rops, d, field) == want
    # one add per operator for the two spans, then one per product
    assert len(adds) <= len(lops) + len(rops) + dim_l * dim_r


# ---------------------------------------------------------------------------
# matrix units

def _unit_systems(base, rows, alg):
    """(algebra, units) pairs for alg, base on the basis given by rows: the
    lifted units of base carried to alg's coordinates, and, where alg's own
    report splits, its units in B/J and their lifts into alg.  (Over Q a
    dense basis can defeat the random search for an idempotent of M_2.)"""
    f = alg.field
    inv, _ = solve_linear(rows, identity_matrix(alg.dim, f), f)
    out = [(alg, [[combine(u, inv, f) for u in row] for row in units])
           for units in wedderburn_data(base).block_units]
    rep = structure_report(alg)
    if rep.schur:
        out += [(rep.quotient, [list(map(list, row)) for row in blk.units])
                for blk in rep.blocks]
        out += [(alg, [list(map(list, row)) for row in units])
                for units in wedderburn_data(alg).block_units]
    return out


def _perturbed(alg, units):
    """Unit systems that cannot be matrix units: u_00 doubled (where 2 is
    not 0 or 1), and u_00 + u_01, whose product with u_10 is u_00, not 0."""
    f = alg.field
    out = []
    if f.p != 2:
        doubled = [list(row) for row in units]
        doubled[0][0] = [f.coerce(2 * x) for x in units[0][0]]
        out.append(doubled)
    if len(units) > 1:
        mixed = [list(row) for row in units]
        mixed[0][0] = [f.coerce(x + y) for x, y in zip(units[0][0], units[0][1])]
        out.append(mixed)
    return out


def _check_units(base, rows, alg):
    for s, units in _unit_systems(base, rows, alg):
        assert _are_matrix_units_ref(s, units)
        assert _are_matrix_units(s, units)
        for bad in _perturbed(s, units):
            assert not _are_matrix_units_ref(s, bad)
            assert not _are_matrix_units(s, bad)


@settings(max_examples=25, deadline=None)
@given(rebasings())
def test_matrix_units_match_the_fraction_check(rebasing):
    _check_units(*rebasing)


def test_matrix_units_with_denominators_in_table_and_units():
    """M2 on the basis 2·e11, e12/3, e21, e22: the table has denominator 6
    and the units e11 = b1/2, e12 = 3·b2 carry denominators too."""
    m2 = matrix_algebra(2, QQ)
    rows = [[QQ.coerce(x) for x in r]
            for r in ([2, 0, 0, 0], [0, Fraction(1, 3), 0, 0], [0, 0, 1, 0],
                      [0, 0, 0, 1])]
    alg = rebased(m2, rows)
    assert alg._int_table[0] == 6
    units = [[[Fraction(1, 2), 0, 0, 0], [0, 3, 0, 0]],
             [[0, 0, 1, 0], [0, 0, 0, 1]]]
    units = [[[QQ.coerce(x) for x in u] for u in row] for row in units]
    assert _are_matrix_units_ref(alg, units)
    assert _are_matrix_units(alg, units)
    for bad in _perturbed(alg, units):
        assert not _are_matrix_units(alg, bad)
    _check_units(m2, rows, alg)
