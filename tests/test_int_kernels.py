"""The integer kernels of the multiplication operators, of the
certificate, of the block decomposition, of the module check and of the
product spans against the Fraction code they replaced.

`certify_maximal` reads the bimodule operators of B/A off integer
products, each the exact operator times one positive scale, and takes the
Burnside dimension as dim span L(A)·R(A).  `_are_matrix_units` checks the
unit relations on integer rows at a common scale, and `module_violation`
checks the module axioms on integer matrices.  The references below are
the former bodies: operators from `Algebra.multiply` and
`QuotientSpace.project`, the unit saturated under right multiplication by
every operator, unit products compared as field vectors, the module
axioms on products of Fraction matrices, and the spans, flags and End(M)
tables built from `Algebra.multiply` on pairs of field basis vectors or
from products of Fraction matrices.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maxsub.maximal
from conftest import (
    A3_QUIVER,
    D5_QUIVER,
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
    _product_span,
    block_triangular,
    make_algebra,
    matrix_algebra,
    subalgebra_from_rows,
    subalgebra_generated,
)
from maxsub.errors import InvalidInputError, VerificationFailedError
from maxsub.extensions import (
    _hom_basis,
    complement_flags,
    endomorphism_algebra,
    induce,
    restrict,
)
from maxsub.linalg import (
    GF,
    QQ,
    _Echelon,
    combine,
    echelonize,
    identity_matrix,
    kernel,
    mat_mul,
    quotient_space,
    saturate,
    solve_linear,
    unit_vec,
    vec_is_zero,
    zero_vec,
)
from maxsub.maximal import (
    _generated_operator_dim,
    _quotient_bimodule_ops,
    certify_maximal,
    enumerate_maximal_families,
    instantiate_family,
    radical_components,
)
from maxsub.modules import make_module, module_violation, regular_module
from maxsub.presentations import (
    Quiver,
    _quiver_data,
    delete_arrows,
    quiver_maximal,
)
from maxsub.structure import (
    _are_matrix_units,
    is_nilpotent_space,
    is_two_sided_ideal,
    jacobson_radical,
    nilpotency_degree,
    structure_report,
    wedderburn_data,
)

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


# ---------------------------------------------------------------------------
# the product spans: J^k, J^2, the square-zero flags and End(M)

def _pairwise_span(a, s, t):
    """The former product span: `Algebra.multiply` on every pair of field
    basis vectors, then `echelonize`."""
    return echelonize([a.multiply(list(x), list(y))
                       for x in s.basis for y in t.basis], a.dim, a.field)


def _nilpotency_ref(a, s):
    power, m = s, 1
    while power.dim > 0:
        nxt = _pairwise_span(a, power, s)
        if nxt.dim >= power.dim:
            return None
        power, m = nxt, m + 1
    return m


def _complement_flags_ref(i_space, b):
    ideal = is_two_sided_ideal(b, i_space)
    trivial = all(vec_is_zero(b.multiply(list(x), list(y)))
                  for x in i_space.basis for y in i_space.basis)
    nilpotent = ideal and _nilpotency_ref(b, i_space) is not None
    if trivial and not (nilpotent and ideal):
        raise VerificationFailedError(
            "flag chain trivial => nilpotent => ideal broken")
    return {"ideal": ideal, "nilpotent": nilpotent, "trivial": trivial}


def _outcome(fn, *args):
    """repr of fn(*args), or of the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except (InvalidInputError, VerificationFailedError) as exc:
        return repr((type(exc).__name__, str(exc)))


def _endomorphism_algebra_ref(m):
    f = m.algebra.field
    ker, mats = _hom_basis(m, m)
    table = [[ker.coords([c for row in mat_mul(x, y, f) for c in row])
              for y in mats] for x in mats]
    unit = ker.coords([c for row in identity_matrix(m.dim, f) for c in row])
    names = [f"h{i+1}" for i in range(len(mats))]
    return make_algebra(f, names, unit, table), mats


def _quiver_split_ref(alg, a, b, hyperplane):
    data = _quiver_data(alg)
    q, pres, field = data.quiver, alg.presentation, alg.field
    vx = {v: list(pres.vertex_vectors[i])
          for i, v in enumerate(pres.vertex_names)}
    ab_arrows = [nm for nm, src, tgt in q.arrows if src == a and tgt == b]
    vrows = [combine([field.coerce(c) for c in coeffs],
                     [data.arrow_vector(nm) for nm in ab_arrows], field)
             for coeffs in hyperplane]
    rows = [vx[v] for v in q.vertices]
    rows += [list(r) for r in echelonize(vrows, alg.dim, field).basis]
    rows += [list(data.arrow_vector(nm)) for nm, src, tgt in q.arrows
             if not (src == a and tgt == b)]
    # no relations: the arrow ideal is spanned by the basis paths that are
    # not vertices
    rad = [alg.basis_vector(i) for i, nm in enumerate(alg.basis_names)
           if nm not in q.vertices]
    rows += [alg.multiply(x, y) for x in rad for y in rad]
    return subalgebra_from_rows(alg, rows)


def _radical_hyperplane_ref(b, fam, func, wm):
    """H through T = J/J^2: the rows are projected to T, lifted back and
    completed by J^2."""
    f = b.field
    dims = [blk.n for blk in wm.report.blocks]
    comps = radical_components(b, wm)
    i, j = fam.block, fam.other
    corner = comps.corners[(i, j)]
    t, jsp = comps.t_quotient, comps.j_space
    ker = kernel([[f.coerce(c) for c in func]], corner.dim, f)
    h_rows_t = [list(r) for (k2, l2), comp in comps.components.items()
                if (k2, l2) != (i, j) for r in comp.basis]
    for kv in ker.basis:
        wb = combine(t.lift(combine(kv, corner.basis, f)), jsp.basis, f)
        for p in range(dims[i]):
            for q in range(dims[j]):
                prod = b.multiply(
                    b.multiply(list(wm.block_units[i][p][0]), wb),
                    list(wm.block_units[j][0][q]))
                h_rows_t.append(list(t.project(jsp.coords(prod))))
    rows = [list(u) for units in wm.block_units for row in units for u in row]
    rows += [combine(t.lift(r), jsp.basis, f) for r in h_rows_t]
    rows += [combine(r, jsp.basis, f) for r in t.relations.basis]
    return subalgebra_from_rows(b, rows)


@st.composite
def subspaces(draw):
    """(algebra, subspace): an algebra of `rebasings()` and the span of
    some of its radical rows and of 0-2 random elements, so nilpotent and
    non-nilpotent spans, ideals and non-ideals all come up."""
    alg = draw(rebasings())[2]
    rad = jacobson_radical(alg)
    rows = [list(r) for r in rad.basis if draw(st.booleans())]
    rows += [_element(draw, alg) for _ in range(draw(st.integers(0, 2)))]
    return alg, echelonize(rows, alg.dim, alg.field)


@settings(max_examples=60, deadline=None)
@given(subspaces())
def test_product_span_nilpotency_and_flags_match_the_pairwise_loop(drawn):
    alg, s = drawn
    rad = jacobson_radical(alg)
    for x, y in ((s, s), (s, rad), (rad, s)):
        got = _product_span(alg, x, y)
        assert repr(got) == repr(_pairwise_span(alg, x, y))
    m = _nilpotency_ref(alg, s)
    assert is_nilpotent_space(alg, s) == (m is not None)
    assert _outcome(nilpotency_degree, alg, s) == (
        repr(m) if m is not None
        else repr(("InvalidInputError", "subspace is not nilpotent")))
    assert (_outcome(complement_flags, s, alg)
            == _outcome(_complement_flags_ref, s, alg))


# spans of matrix units: e12 squares to zero in M2 and T3 but spans no
# ideal, which breaks the flag chain; e13 spans a square-zero ideal of T3,
# whose radical is an ideal that does not square to zero
FLAG_CASES = {
    "e12 in M2": ("M2", [1]),
    "e12 in T3": ("T3", [1]),
    "e13 in T3": ("T3", [2]),
    "J of T3": ("T3", [1, 2, 4]),
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_complement_flags_match_the_pairwise_loop_on_matrix_units(case,
                                                                   field):
    name, units = FLAG_CASES[case]
    alg = BUILDERS[name](field)
    s = echelonize([unit_vec(alg.dim, k, field) for k in units], alg.dim,
                   field)
    got = _outcome(complement_flags, s, alg)
    assert got == _outcome(_complement_flags_ref, s, alg)
    assert ("broken" in got) == case.startswith("e12")


END_BASES = ["M2", "T3", "Kronecker", "KxKxM2"]


@st.composite
def end_modules(draw):
    """The regular module of M2, T3, Kronecker or KxKxM2 in a random basis
    (over Q with denominators), or its restriction to the subalgebra a
    random element generates."""
    field = draw(st.sampled_from(FIELDS))
    base = BUILDERS[draw(st.sampled_from(END_BASES))](field)
    rng = draw(st.randoms(use_true_random=False))
    alg = rebased(base, _scaled_basis(base.dim, field, rng))
    m = regular_module(alg)
    if draw(st.booleans()):
        m = restrict(m, subalgebra_generated(alg, [_element(draw, alg)]))
    return m


@settings(max_examples=40, deadline=None)
@given(end_modules())
def test_endomorphism_algebra_matches_the_fraction_table(m):
    """The same products, unit and matrices as the dense Fraction table of
    the products X·Y; only the basis names change, from h1... to s1...."""
    got, mats = endomorphism_algebra(m)
    ref, ref_mats = _endomorphism_algebra_ref(m)
    assert repr((got.dim, got.unit, got.products, mats)) == repr(
        (ref.dim, ref.unit, ref.products, ref_mats))
    assert got.basis_names == tuple(f"s{i+1}" for i in range(got.dim))


def test_endomorphism_algebra_of_the_zero_module():
    m = make_module(matrix_algebra(2, QQ), [[] for _ in range(4)])
    got, ref = endomorphism_algebra(m), _endomorphism_algebra_ref(m)
    assert repr(got) == repr(ref)
    assert got[0].dim == 0


SPLIT_QUIVERS = {
    "A3": A3_QUIVER,
    "Kronecker": KRONECKER_QUIVER,
    "D5": D5_QUIVER,
    "K3+arrow": Quiver(("a", "b", "c"), (("x1", "a", "b"), ("x2", "a", "b"),
                                         ("x3", "a", "b"), ("y", "b", "c"))),
}


def _hyperplanes(n, field):
    """Bases of every hyperplane of K^n that a coordinate functional or
    the all-ones functional cuts out (the whole space when n = 1)."""
    funcs = [[int(i == k) for i in range(n)] for k in range(n)] + [[1] * n]
    for func in funcs if n > 1 else [[1]]:
        ker = kernel([[field.coerce(c) for c in func]], n, field)
        yield [list(r) for r in ker.basis]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(SPLIT_QUIVERS))
def test_quiver_split_and_square_zero_flag_match_the_pairwise_loops(name,
                                                                    field):
    """`quiver_maximal(..., "split", ...)` on every arrow pair and
    hyperplane, and the square-zero flag of `delete_arrows` on every set of
    one or two vertices, against the pairwise `multiply` loops."""
    q = SPLIT_QUIVERS[name]
    alg = quiver_algebra(q, field)
    pairs = sorted({(src, tgt) for _, src, tgt in q.arrows})
    for a, b in pairs:
        n = sum(1 for _, src, tgt in q.arrows if (src, tgt) == (a, b))
        for hyperplane in _hyperplanes(n, field):
            got = quiver_maximal(alg, "split", a, b, hyperplane)
            ref = _quiver_split_ref(alg, a, b, hyperplane)
            assert repr(got.space) == repr(ref.space)
    for k in (1, 2):
        for s in itertools.combinations(q.vertices, k):
            res = delete_arrows(q, s, field)
            zero = zero_vec(res.ambient.dim, field)
            assert res.complement_squares_to_zero == all(
                res.ambient.multiply(list(x), list(y)) == zero
                for x in res.complement.basis for y in res.complement.basis)


HYPERPLANE_BASES = {
    "T3": lambda f: block_triangular(3, (1, 1, 1), f).as_algebra(),
    "Kronecker": lambda f: quiver_algebra(KRONECKER_QUIVER, f),
    "A3": lambda f: quiver_algebra(A3_QUIVER, f),
    "K3+arrow": lambda f: quiver_algebra(SPLIT_QUIVERS["K3+arrow"], f),
}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_radical_hyperplanes_match_the_round_trip_through_t(data):
    """Every radical-hyperplane family of a basic algebra in a random
    basis; a parameterized family (over Q) on drawn coordinates."""
    field = data.draw(st.sampled_from(FIELDS))
    name = data.draw(st.sampled_from(sorted(HYPERPLANE_BASES)))
    base = HYPERPLANE_BASES[name](field)
    rng = data.draw(st.randoms(use_true_random=False))
    b = rebased(base, _scaled_basis(base.dim, field, rng))
    wm = wedderburn_data(b)
    fams = [fam for fam in enumerate_maximal_families(b, wm=wm)
            if fam.kind == "radical_hyperplane"]
    assert fams
    for fam in fams:
        func, params = fam.functional, None
        if func is None:
            params = data.draw(st.lists(st.integers(-3, 3),
                                        min_size=fam.multiplicity,
                                        max_size=fam.multiplicity)
                               .filter(any))
            func = params
        got = instantiate_family(b, fam, params=params, wm=wm)
        ref = _radical_hyperplane_ref(b, fam, func, wm)
        assert repr(got.space) == repr(ref.space)
