"""The integer kernels of the multiplication operators, of the
certificate, of the block decomposition and of the module check against
the Fraction code they replaced.

`certify_maximal` reads the bimodule operators of B/A off integer
products, each the exact operator times one positive scale, and takes the
Burnside dimension as dim span L(A)·R(A).  `_are_matrix_units` checks the
unit relations on integer rows at a common scale, and `module_violation`
checks the module axioms on integer matrices.  The references below are
the former bodies: operators from `Algebra.multiply` and
`QuotientSpace.project`, the unit saturated under right multiplication by
every operator, unit products compared as field vectors, and the module
axioms on products of Fraction matrices.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maxsub.maximal
from conftest import (
    KRONECKER_QUIVER,
    SCALED_M2_BASIS,
    dense_table,
    kxkxm2,
    quiver_algebra,
    random_basis,
    rebased,
    scaled_m2,
)
from maxsub.algebra import (
    block_triangular,
    matrix_algebra,
    subalgebra_from_rows,
    subalgebra_generated,
)
from maxsub.extensions import induce, restrict
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
from maxsub.modules import make_module, module_violation, regular_module
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


def _module_violation_ref(mod):
    a = mod.algebra
    f = a.field
    ident = identity_matrix(mod.dim, f)
    unit_mat = mod.action_matrix(list(a.unit))
    if [list(r) for r in unit_mat] != ident:
        return "action(unit) != identity"
    table = dense_table(a)
    for i in range(a.dim):
        for j in range(a.dim):
            prod = mat_mul(mod.action[i], mod.action[j], f)
            want = mod.action_matrix(list(table[i][j]))
            if [list(r) for r in prod] != [list(r) for r in want]:
                return (f"action({a.basis_names[i]})*action({a.basis_names[j]})"
                        " mismatches the structure constants")
    return None


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
# the multiplication operators

def _operator_ref(a, w, left):
    """L_w (left) or R_w as field matrices, column j from `Algebra.multiply`
    of w with b_j."""
    f = a.field
    units = [unit_vec(a.dim, j, f) for j in range(a.dim)]
    cols = [a.multiply(w, u) if left else a.multiply(u, w) for u in units]
    return [list(row) for row in zip(*cols)]


OPERATOR_CASES = {
    "scaled M2/Q": scaled_m2,
    "M2/F2": lambda: rebased(matrix_algebra(2, GF(2)),
                             random_basis(4, GF(2), random.Random(3))),
    "KxKxM2/F3": lambda: rebased(kxkxm2(GF(3)),
                                 random_basis(6, GF(3), random.Random(4))),
    "T3/F3": lambda: block_triangular(3, (1, 1, 1), GF(3)).as_algebra(),
}


@pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
def test_operator_kernels_are_d_times_the_multiply_operators(case):
    """`_left_ints(w)` and `_right_ints(w)` are D·L_w and D·R_w for integer
    rows w (mod p over F_p), and `left_mult_matrix` and
    `right_mult_matrix` are L_w and R_w."""
    a = OPERATOR_CASES[case]()
    f, n, d = a.field, a.dim, a.products[0]
    if f.p is None:
        assert d == 6
    rng = random.Random(5)
    lo, hi = (-3, 3) if f.p is None else (0, f.p - 1)
    rows = ([[int(i == j) for i in range(n)] for j in range(n)]
            + [[rng.randint(lo, hi) for _ in range(n)] for _ in range(6)])
    for w in rows:
        for left, kernel in ((True, a._left_ints), (False, a._right_ints)):
            ref = _operator_ref(a, [f.coerce(x) for x in w], left)
            got = kernel(w)
            assert [[x if f.p is None else x % f.p for x in row]
                    for row in got] == [[d * x for x in row] for row in ref]
            view = a.left_mult_matrix if left else a.right_mult_matrix
            assert view(w) == ref


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
    rows = [list(r) for r in SCALED_M2_BASIS]
    alg = scaled_m2()
    assert alg.products[0] == 6
    units = [[[Fraction(1, 2), 0, 0, 0], [0, 3, 0, 0]],
             [[0, 0, 1, 0], [0, 0, 0, 1]]]
    units = [[[QQ.coerce(x) for x in u] for u in row] for row in units]
    assert _are_matrix_units_ref(alg, units)
    assert _are_matrix_units(alg, units)
    for bad in _perturbed(alg, units):
        assert not _are_matrix_units(alg, bad)
    _check_units(m2, rows, alg)


# ---------------------------------------------------------------------------
# the module axioms

def _in_basis(m, rows):
    """m on the basis of its space given by rows: P⁻¹·A_k·P for the matrix
    P with the rows as columns."""
    f = m.algebra.field
    p = [list(col) for col in zip(*rows)]
    p_inv, _ = solve_linear(p, identity_matrix(m.dim, f), f)
    return make_module(m.algebra, [mat_mul(p_inv, mat_mul(a, p, f), f)
                                   for a in m.action], check=False)


@st.composite
def modules(draw):
    """A module over an algebra of `rebasings()`: its regular module, that
    module restricted to a subalgebra generated by a random element, or
    the regular module of that subalgebra induced up; in a random basis
    half of the time (over Q with denominators, see `_scaled_basis`)."""
    alg = draw(rebasings())[2]
    m = regular_module(alg)
    kind = draw(st.sampled_from(["regular", "restricted", "induced"]))
    if kind != "regular":
        a = subalgebra_generated(alg, [_element(draw, alg)])
        m = (restrict(m, a) if kind == "restricted"
             else induce(regular_module(a.as_algebra()), a))
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        m = _in_basis(m, _scaled_basis(m.dim, alg.field, rng))
    return m


@settings(max_examples=40, deadline=None)
@given(modules())
def test_modules_pass_the_integer_and_the_fraction_check(m):
    assert _module_violation_ref(m) is None
    assert module_violation(m) is None


@settings(max_examples=60, deadline=None)
@given(modules(), st.data())
def test_perturbed_modules_get_the_message_of_the_fraction_check(m, data):
    """One entry of one action matrix moved, or every action matrix scaled
    by c ≠ 0, 1, which breaks the unit law first."""
    alg = m.algebra
    f = alg.field
    mats = [[list(r) for r in mat] for mat in m.action]
    scaled = f.p != 2 and data.draw(st.booleans())
    if scaled:
        c = f.coerce(data.draw(st.sampled_from(
            [2, -1, Fraction(1, 2), Fraction(-2, 3)] if f.p is None else [2])))
        mats = [[[c * x for x in r] for r in mat] for mat in mats]
    else:
        k = data.draw(st.integers(0, alg.dim - 1))
        i, j = (data.draw(st.integers(0, m.dim - 1)) for _ in range(2))
        delta = data.draw(st.sampled_from(
            [1, -2, Fraction(1, 3)] if f.p is None else range(1, f.p)))
        mats[k][i][j] = f.coerce(mats[k][i][j] + delta)
    bad = make_module(alg, mats, check=False)
    want = _module_violation_ref(bad)
    assert module_violation(bad) == want
    if scaled:
        assert want == "action(unit) != identity"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_module_messages_name_the_first_failing_pair(field):
    """The regular module of M_2 with e12 acting as 2·e12: the unit law
    holds, and (e12, e21) is the first pair, in (i, j) order, whose
    product differs: 2·e11 against e11 (over F_2 the doubled e12 acts as
    0, and 0 against e11)."""
    m2 = matrix_algebra(2, field)
    mats = [[list(r) for r in mat] for mat in regular_module(m2).action]
    mats[1] = [[field.coerce(2 * x) for x in r] for r in mats[1]]
    bad = make_module(m2, mats, check=False)
    want = "action(e12)*action(e21) mismatches the structure constants"
    assert _module_violation_ref(bad) == want
    assert module_violation(bad) == want
