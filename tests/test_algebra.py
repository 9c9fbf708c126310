"""Structure-constant algebras: validation, products, closures, conjugation."""

import glob
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A3_QUIVER,
    DIAMOND_POSET,
    ROOT,
    Scalars,
    dense_table,
    f4_algebra,
    kxk,
    quiver_algebra,
    random_basis,
    rebased,
    scaled_m2,
)
from maxsub.algebra import (
    Algebra,
    bimodule_subspace,
    block_triangular,
    centralizer,
    conjugate_subalgebra,
    diagonal_subalgebra,
    direct_product,
    invert_element,
    is_closed_subspace,
    make_algebra,
    matrix_algebra,
    subalgebra,
    subalgebra_from_rows,
    subalgebra_generated,
    validate_algebra,
)
from maxsub.errors import DimensionError, InvalidInputError
from maxsub.extensions import endomorphism_algebra
from maxsub.formats import (
    dump_algebra,
    dump_module,
    dump_span,
    load_algebra,
    load_text,
    parse_algebra,
    parse_module,
    parse_span,
)
from maxsub.linalg import (
    GF,
    QQ,
    echelonize,
    full_subspace,
    kernel,
    saturate,
    solve_one,
)
from maxsub.modules import regular_module
from maxsub.presentations import (
    PathAlgebraPresentation,
    incidence_algebra,
    path_algebra,
)
from maxsub.structure import (
    ideal_closure,
    is_two_sided_ideal,
    jacobson_radical,
    quotient_algebra,
)

F2 = GF(2)
F3 = GF(3)


def test_validate_matrix_algebra(m2q):
    assert validate_algebra(m2q).ok


def test_validate_flags_broken_table():
    # e*e = x and x*x = e is not associative together with x*e = e*x = x
    bad = make_algebra(QQ, ("e", "x"), (1, 0),
                       (((0, 1), (0, 1)), ((0, 1), (1, 0))))
    rep = validate_algebra(bad)
    assert not rep.ok
    assert any("associativity" in v or "unit" in v for v in rep.violations)


def test_algebra_rejects_a_dense_table(m2q):
    with pytest.raises(DimensionError, match="products"):
        Algebra(QQ, 4, m2q.basis_names, m2q.unit, dense_table(m2q))
    with pytest.raises(DimensionError, match="products"):
        Algebra(QQ, 4, m2q.basis_names, m2q.unit, (1, m2q.products[1][:3]))


def test_validate_path_algebra(a3_q):
    assert validate_algebra(a3_q).ok


# The per-scalar product loop and the basis-vector triple loop that the
# integer table replaced, kept as references for the differential tests.

def _reference_multiply(a, x, y, table=None):
    f = a.field
    ops = Scalars(f)
    if table is None:
        table = dense_table(a)
    out = [f.zero()] * a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            row = table[i][j]
            if x[i] == 0 or y[j] == 0 or all(c == 0 for c in row):
                continue
            c = ops.mul(x[i], y[j])
            out = [ops.add(o, ops.mul(c, r)) for o, r in zip(out, row)]
    return out


def _reference_violations(a, table):
    bad = []
    for i in range(a.dim):
        bi = a.basis_vector(i)
        if _reference_multiply(a, a.unit, bi) != bi:
            bad.append(f"unit * {a.basis_names[i]} != {a.basis_names[i]}")
        if _reference_multiply(a, bi, list(a.unit)) != bi:
            bad.append(f"{a.basis_names[i]} * unit != {a.basis_names[i]}")
    for i in range(a.dim):
        bi = a.basis_vector(i)
        for j in range(a.dim):
            for k in range(a.dim):
                bk = a.basis_vector(k)
                left = _reference_multiply(a, list(table[i][j]), bk, table)
                right = _reference_multiply(a, bi, list(table[j][k]), table)
                if left != right:
                    bad.append(
                        "associativity fails at "
                        f"({a.basis_names[i]}, {a.basis_names[j]}, {a.basis_names[k]})")
    return tuple(bad)


_rationals = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, F3, GF(2 ** 61 - 1)]), st.data())
def test_q_multiply_matches_reference_loop(field, data):
    # over F_p the operands may be any ints, negative or not reduced
    n = data.draw(st.integers(1, 4))
    p = field.p
    if p is None:
        entry = table_entry = _rationals
    else:
        entry = st.one_of(st.integers(-3, 3), st.integers(-2 * p, 2 * p))
        table_entry = entry.map(field.coerce)
    entries = st.lists(table_entry, min_size=n, max_size=n).map(tuple)
    table = tuple(tuple(data.draw(entries) for _ in range(n)) for _ in range(n))
    a = make_algebra(field, [f"b{i}" for i in range(n)], (field.one(),) * n,
                     table)
    x = data.draw(st.lists(entry, min_size=n, max_size=n))
    y = data.draw(st.lists(entry, min_size=n, max_size=n))
    for u, v in ((x, y), ([0] * n, y), (x, [0] * n)):
        got = a.multiply(u, v)
        assert got == _reference_multiply(a, u, v, table)
        if p is None:
            assert all(type(c) is Fraction for c in got)
        else:
            assert all(type(c) is int and 0 <= c < p for c in got)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([QQ, F3]),
       changes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.integers(0, 3), st.integers(1, 2)),
                        min_size=1, max_size=3, unique_by=lambda c: c[:3]))
def test_validate_matches_reference_triple_loop(field, changes):
    m2 = matrix_algebra(2, field)
    table = [[list(v) for v in row] for row in dense_table(m2)]
    ops = Scalars(field)
    for i, j, k, delta in changes:
        table[i][j][k] = ops.add(table[i][j][k], field.coerce(delta))
    bad = make_algebra(field, m2.basis_names, m2.unit, table)
    violations = validate_algebra(bad).violations
    assert violations == _reference_violations(bad, table)
    if len(changes) == 1:
        assert violations   # any single change breaks a law of M_2


def test_validate_reduces_mod_p():
    # M_2(F_3) in a dense basis: associative mod 3, but its reduced
    # structure constants read as integers are not
    p = [[1, 1, 0, 2], [0, 1, 2, 1], [2, 0, 1, 1], [1, 2, 1, 0]]
    m2 = matrix_algebra(2, F3)
    cols = [list(c) for c in zip(*p)]
    table = tuple(tuple(tuple(solve_one(cols, m2.multiply(x, y), F3))
                        for y in p) for x in p)
    unit = tuple(solve_one(cols, list(m2.unit), F3))
    names = ("b1", "b2", "b3", "b4")
    assert validate_algebra(make_algebra(F3, names, unit, table)).ok
    assert not validate_algebra(make_algebra(QQ, names, unit, table)).ok


def test_multiply_unit(m2q):
    y = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    assert m2q.multiply(list(m2q.unit), y) == y
    assert m2q.multiply(y, list(m2q.unit)) == y


def test_multiply_matrix_units(m2q):
    e12 = m2q.basis_vector(1)
    e21 = m2q.basis_vector(2)
    e11 = m2q.basis_vector(0)
    assert m2q.multiply(e12, e21) == e11


def test_multiply_paths(a3_q):
    ia = a3_q.basis_names.index("a")
    ib = a3_q.basis_names.index("b")
    iba = a3_q.basis_names.index("b.a")
    assert a3_q.multiply(a3_q.basis_vector(ib), a3_q.basis_vector(ia)) == \
        a3_q.basis_vector(iba)
    assert a3_q.multiply(a3_q.basis_vector(ia), a3_q.basis_vector(ib)) == \
        [0] * 6


def test_generated_empty_is_scalars(m2q):
    gen = subalgebra_generated(m2q, [])
    assert gen.dim == 1
    assert gen.space.contains_vec(list(m2q.unit))


def test_generated_offdiagonal_units_fill_m2(m2q):
    gen = subalgebra_generated(m2q, [m2q.basis_vector(1), m2q.basis_vector(2)])
    assert gen.dim == 4


def test_generated_companion_is_f4():
    m2 = matrix_algebra(2, F2)
    # companion matrix of x^2 + x + 1: [[0,1],[1,1]] -> coordinates e12+e21+e22
    comp = [0, 1, 1, 1]
    gen = subalgebra_generated(m2, [comp])
    assert gen.dim == 2


def test_centralizer_of_scalars_is_everything(m2q):
    c = centralizer(m2q, echelonize([list(m2q.unit)], 4, QQ))
    assert c.dim == 4


def test_centralizer_of_m2_is_center(m2q):
    c = centralizer(m2q, full_subspace(4, QQ))
    assert c.dim == 1
    assert c.space.contains_vec(list(m2q.unit))


def test_centralizer_of_f4_in_m2f2_is_f4():
    m2 = matrix_algebra(2, F2)
    f4 = subalgebra_generated(m2, [[0, 1, 1, 1]])
    c = centralizer(m2, f4.space)
    assert c.dim == 2
    assert c.space == f4.space


def test_bicommutant_stabilizes(m2q):
    seeds = [[1, 1, 0, 0], [0, 0, 0, 1]]
    s = echelonize(seeds, 4, QQ)
    c1 = centralizer(m2q, s)
    c2 = centralizer(m2q, c1.space)
    c3 = centralizer(m2q, c2.space)
    assert c3.space == c1.space


def test_invert_unit(m2q):
    assert invert_element(m2q, list(m2q.unit)) == list(m2q.unit)


def test_invert_nilpotent_fails(m2q):
    assert invert_element(m2q, m2q.basis_vector(1)) is None


def test_invert_unitriangular(m2q):
    inv = invert_element(m2q, [1, 1, 0, 1])
    assert inv == [Fraction(1), Fraction(-1), Fraction(0), Fraction(1)]


def test_conjugate_by_unit_is_identity(m2q):
    ut = block_triangular(2, (1, 1), QQ, ambient=m2q)
    same = conjugate_subalgebra(m2q, list(m2q.unit), ut)
    assert same.space == ut.space


def test_conjugate_triangular_by_permutation(m2q):
    ut = block_triangular(2, (1, 1), QQ, ambient=m2q)
    perm = [0, 1, 1, 0]   # the transposition matrix
    lt = conjugate_subalgebra(m2q, perm, ut)
    lower = subalgebra_from_rows(
        m2q, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert lt.space == lower.space


def test_conjugation_inverse_roundtrip(m2q):
    ut = block_triangular(2, (1, 1), QQ, ambient=m2q)
    u = [1, 2, 0, 1]
    uinv = invert_element(m2q, u)
    back = conjugate_subalgebra(m2q, uinv, conjugate_subalgebra(m2q, u, ut))
    assert back.space == ut.space


@given(st.lists(st.lists(st.integers(0, 2), min_size=9, max_size=9),
                min_size=1, max_size=2),
       st.lists(st.integers(0, 2), min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_conjugation_commutes_with_generation(seeds, uvec):
    m3 = matrix_algebra(3, F3)
    uinv = invert_element(m3, uvec)
    if uinv is None:
        return
    gen_then_conj = conjugate_subalgebra(m3, uvec, subalgebra_generated(m3, seeds))
    conj_seeds = [m3.multiply(m3.multiply(uvec, s), uinv) for s in seeds]
    conj_then_gen = subalgebra_generated(m3, conj_seeds)
    assert gen_then_conj.space == conj_then_gen.space


def test_block_triangular_full():
    bt = block_triangular(3, (3,), QQ)
    assert bt.dim == 9


def test_block_triangular_upper(m2q):
    bt = block_triangular(2, (1, 1), QQ, ambient=m2q)
    assert bt.dim == 3


def test_block_triangular_1_2():
    bt = block_triangular(3, (1, 2), QQ)
    assert bt.dim == 7


def test_block_triangular_bad_composition():
    with pytest.raises(InvalidInputError):
        block_triangular(3, (1, 1), QQ)


def test_diagonal_merge_kxk():
    b = kxk(QQ)
    d = diagonal_subalgebra(1, [0, 1], b)
    assert d.dim == 1
    assert d.space.contains_vec([1, 1])


def test_diagonal_merge_m2_pair():
    b = direct_product([matrix_algebra(2, QQ), matrix_algebra(2, QQ)])
    d = diagonal_subalgebra(2, [0, 1], b)
    assert d.dim == 4
    from maxsub.maximal import certify_maximal
    assert certify_maximal(d, b).status == "maximal"


def test_subalgebra_closure_enforced(m2q):
    with pytest.raises(InvalidInputError):
        subalgebra_from_rows(m2q, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])


def test_subalgebra_needs_unit(m2q):
    with pytest.raises(InvalidInputError):
        subalgebra_from_rows(m2q, [[1, 0, 0, 0]])


def test_as_algebra_roundtrip(m2q):
    ut = block_triangular(2, (1, 1), QQ, ambient=m2q)
    uta = ut.as_algebra()
    assert validate_algebra(uta).ok
    assert uta.dim == 3
    # embedding of the abstract unit is the ambient unit
    assert ut.embed(list(uta.unit)) == list(m2q.unit)


def test_generated_is_closure_operator_f2():
    a3 = quiver_algebra(A3_QUIVER, F2)

    seeds = [[1, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 0]]
    g1 = subalgebra_generated(a3, seeds)
    # extensive
    for s in seeds:
        assert g1.space.contains_vec(s)
    # idempotent
    g2 = subalgebra_generated(a3, [list(r) for r in g1.space.basis])
    assert g2.space == g1.space
    # monotone
    g3 = subalgebra_generated(a3, seeds[:1])
    assert all(g1.space.contains_vec(list(r)) for r in g3.space.basis)


def _constructed(field):
    """One output of each constructor over the field; over Q some of them
    are built on a basis whose structure constants have denominators."""
    m2 = matrix_algebra(2, field)
    scaled = m2 if field.p is not None else scaled_m2()
    ut3 = block_triangular(3, (1, 1, 1), field).as_algebra()
    a3 = quiver_algebra(A3_QUIVER, field)
    a3_zero = path_algebra(PathAlgebraPresentation(
        A3_QUIVER, relations=(((1, ("a", "b")),),)), field)
    return [
        m2, matrix_algebra(3, field), scaled,
        direct_product([kxk(field), scaled]),
        incidence_algebra(DIAMOND_POSET, field),
        a3, a3_zero,
        quotient_algebra(ut3, jacobson_radical(ut3))[0],
        quotient_algebra(scaled, echelonize([], 4, field))[0],
        block_triangular(2, (1, 1), field, ambient=scaled).as_algebra(),
        ut3,
        endomorphism_algebra(regular_module(a3))[0],
    ]


def _data_algebras():
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "data", "*"))):
        if path.endswith(".alg"):
            out.append(load_algebra(path))
        elif path.endswith((".quiver", ".poset")):
            out += [load_algebra(path, f) for f in (QQ, F2, F3)]
    return out


def _assert_normal_form(alg):
    """`Algebra.products` holds only nonzero entries, j and k strictly
    ascending, at the least denominator over Q and at D = 1 over F_p."""
    p = alg.field.p
    den, rows = alg.products
    assert len(rows) == alg.dim
    entries = []
    for group in rows:
        js = [j for j, _ in group]
        assert js == sorted(set(js)) and all(0 <= j < alg.dim for j in js)
        for _, terms in group:
            ks = [k for k, _ in terms]
            assert terms and ks == sorted(set(ks))
            assert all(0 <= k < alg.dim for k in ks)
            entries += [t for _, t in terms]
    assert all(type(t) is int and t != 0 for t in entries)
    if p is None:
        assert den >= 1 and math.gcd(den, *entries) == 1
    else:
        assert den == 1 and all(1 <= t < p for t in entries)


def test_algebra_text_roundtrip():
    algebras = _data_algebras()
    for field in (QQ, F2, F3):
        algebras += _constructed(field) + [f4_algebra()]
    for alg in algebras:
        _assert_normal_form(alg)
        text = dump_algebra(alg)
        back = parse_algebra(text)
        assert back.dim == alg.dim
        assert back.unit == alg.unit
        assert back.products == alg.products
        assert dump_algebra(back) == text


# every bundled span file, with the algebra it is a subspace of
SPAN_ALGEBRAS = {"b11_m2q.span": "m2_q.alg", "d4_in_zigzag.span": "zigzag_a5.alg",
                 "diag_kxk.span": "kxk_q.alg", "f4_in_m2f2.span": "m2_f2.alg",
                 "scalars_m2q.span": "m2_q.alg"}


def test_span_text_roundtrip():
    data = os.path.join(ROOT, "data")
    assert sorted(SPAN_ALGEBRAS) == sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(data, "*.span")))
    for name, alg_name in SPAN_ALGEBRAS.items():
        alg = load_algebra(os.path.join(data, alg_name))
        text = load_text(os.path.join(data, name))
        rows = parse_span(text, alg.field, alg.dim)
        assert dump_span(rows, alg.field) == text
        assert parse_span(dump_span(rows, alg.field), alg.field, alg.dim) == rows


def test_module_text_roundtrip():
    data = os.path.join(ROOT, "data")
    text = load_text(os.path.join(data, "zigzag_defining.mod"))
    mod = parse_module(text, data)
    assert dump_module(mod, "zigzag_a5.poset") == text
    back = parse_module(dump_module(mod, "zigzag_a5.poset"), data)
    assert (back.dim, back.action) == (mod.dim, mod.action)
    assert back.algebra.products == mod.algebra.products


_NORMAL_FORM_CASES = {}


def _normal_form_cases(field):
    if field not in _NORMAL_FORM_CASES:
        _NORMAL_FORM_CASES[field] = [a for a in _constructed(field)
                                     if a.dim <= 6]
    return _NORMAL_FORM_CASES[field]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([QQ, F2, F3]), st.data())
def test_stored_products_are_in_normal_form(field, data):
    alg = data.draw(st.sampled_from(_normal_form_cases(field)))
    _assert_normal_form(alg)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    rows = random_basis(alg.dim, field, rng)
    if field.p is None:
        # scaled rows give the constants denominators
        rows = [[c * s for c in r] for r in rows
                for s in [rng.choice((1, 2, Fraction(1, 3), Fraction(-3, 2)))]]
    b = rebased(alg, rows)
    _assert_normal_form(b)
    _assert_normal_form(quotient_algebra(b, jacobson_radical(b))[0])
    _assert_normal_form(parse_algebra(dump_algebra(b)))
    # k[x] for a dense x: its echelon basis is dense too
    _assert_normal_form(subalgebra_generated(b, rows[:1]).as_algebra())


def _centralizer_loop(a, s):
    """Reference centralizer: the kernel of the stacked R_v - L_v."""
    ops = Scalars(a.field)
    rows = []
    for v in s.basis:
        lm = a.left_mult_matrix(list(v))
        rm = a.right_mult_matrix(list(v))
        rows += [[ops.sub(x, y) for x, y in zip(rr, lr)]
                 for rr, lr in zip(rm, lm)]
    return kernel(rows, a.dim, a.field)


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_centralizer_matches_commutator_kernel(field, data):
    a = data.draw(st.sampled_from(
        [matrix_algebra(2, field), quiver_algebra(A3_QUIVER, field),
         direct_product([kxk(field), matrix_algebra(2, field)])]))
    entry = st.integers(-2, 2) if field.p is None else st.integers(0, 2)
    rows = data.draw(st.lists(st.lists(entry, min_size=a.dim, max_size=a.dim),
                              max_size=3))
    s = echelonize(rows, a.dim, field)
    assert centralizer(a, s).space == _centralizer_loop(a, s)


def _in_span_fraction(v, space):
    """Reference membership: the former sequential Fraction reduction."""
    res = [Fraction(x) for x in v]
    for row, pc in zip(space.basis, space.pivots):
        c = res[pc]
        if c:
            res = [x - c * y for x, y in zip(res, row)]
    return not any(res)


def _closed_fraction(a, space):
    return (_in_span_fraction(a.unit, space)
            and all(_in_span_fraction(_reference_multiply(a, x, y), space)
                    for x in space.basis for y in space.basis))


def _bimodule_failure_fraction(a, acting, space):
    """Reference: the former loop's first failure, in its order."""
    for x in acting.space.basis:
        for v in space.basis:
            if not _in_span_fraction(_reference_multiply(a, x, v), space):
                return "left"
            if not _in_span_fraction(_reference_multiply(a, v, x), space):
                return "right"
    return None


_Q_ALGEBRAS = [matrix_algebra(2, QQ), block_triangular(3, (1, 2), QQ).as_algebra(),
               quiver_algebra(A3_QUIVER, QQ),
               direct_product([kxk(QQ), matrix_algebra(2, QQ)])]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_q_closure_checks_match_the_fraction_loop(data):
    a = data.draw(st.sampled_from(_Q_ALGEBRAS))
    n = a.dim
    vec = st.lists(_rationals, min_size=n, max_size=n)
    seeds = data.draw(st.lists(vec, max_size=2))
    rows = data.draw(st.lists(vec, min_size=1, max_size=3))
    gen = subalgebra_generated(a, seeds)
    for space in (gen.space, echelonize([a.unit] + rows, n, QQ),
                  echelonize(rows, n, QQ)):
        closed = _closed_fraction(a, space)
        assert is_closed_subspace(a, space) == closed
        if closed:
            assert subalgebra(a, space).space == space
        else:
            with pytest.raises(InvalidInputError):
                subalgebra(a, space)
    ops = [lambda v, x=x: a.multiply(list(x), v) for x in gen.space.basis]
    ops += [lambda v, x=x: a.multiply(v, list(x)) for x in gen.space.basis]
    for space in (saturate(rows, ops, n, QQ), echelonize(rows, n, QQ)):
        failure = _bimodule_failure_fraction(a, gen, space)
        if failure is None:
            assert bimodule_subspace(a, gen, space).space == space
        else:
            with pytest.raises(InvalidInputError, match=f"under {failure} action"):
                bimodule_subspace(a, gen, space)


# The closure loops of `subalgebra`, `is_closed_subspace`,
# `bimodule_subspace` and `is_two_sided_ideal` before they shared
# `products_in`, on per-scalar arithmetic, over Q and four prime fields.

FIELDS = [QQ, F2, F3, GF(5), GF(2 ** 61 - 1)]
_ALGEBRAS = {}


def _algebra(kind, field):
    key = (kind, field)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = (
            matrix_algebra(2, field) if kind == 0 else
            block_triangular(3, (1, 2), field).as_algebra() if kind == 1 else
            quiver_algebra(A3_QUIVER, field) if kind == 2 else
            direct_product([kxk(field), matrix_algebra(2, field)]))
    return _ALGEBRAS[key]


def _in_span_loop(v, space):
    ops = Scalars(space.field)
    res = list(v)
    for row, pc in zip(space.basis, space.pivots):
        c = res[pc]
        if c:
            res = [ops.sub(x, ops.mul(c, y)) for x, y in zip(res, row)]
    return not any(res)


def _closure_failure_loop(a, space):
    """The first error of `subalgebra(check=True)`, in its order."""
    if not _in_span_loop(a.unit, space):
        return "must contain the unit"
    for x in space.basis:
        for y in space.basis:
            if not _in_span_loop(_reference_multiply(a, x, y), space):
                return "not closed under product"
    return None


def _bimodule_failure_loop(a, acting, space):
    for x in acting.space.basis:
        for v in space.basis:
            if not _in_span_loop(_reference_multiply(a, x, v), space):
                return "left"
            if not _in_span_loop(_reference_multiply(a, v, x), space):
                return "right"
    return None


def _ideal_loop(a, s):
    for v in s.basis:
        for k in range(a.dim):
            bk = a.basis_vector(k)
            if not _in_span_loop(_reference_multiply(a, bk, list(v)), s):
                return False
            if not _in_span_loop(_reference_multiply(a, list(v), bk), s):
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 3), st.data())
def test_closure_predicate_matches_the_scalar_loops(field, kind, data):
    a = _algebra(kind, field)
    n = a.dim
    entry = (_rationals if field.p is None else
             st.one_of(st.integers(0, 1), st.integers(0, field.p - 1)))
    vec = st.lists(entry, min_size=n, max_size=n)
    seeds = data.draw(st.lists(vec, max_size=2))
    rows = data.draw(st.lists(vec, min_size=1, max_size=3))
    gen = subalgebra_generated(a, seeds)
    for space in (gen.space, echelonize([a.unit] + rows, n, field),
                  echelonize(rows, n, field), ideal_closure(a, rows)):
        failure = _closure_failure_loop(a, space)
        assert is_closed_subspace(a, space) == (failure is None)
        if failure is None:
            assert subalgebra(a, space).space == space
        else:
            with pytest.raises(InvalidInputError, match=failure):
                subalgebra(a, space)
        assert is_two_sided_ideal(a, space) == _ideal_loop(a, space)
    ops = [lambda v, x=x: a.multiply(list(x), v) for x in gen.space.basis]
    ops += [lambda v, x=x: a.multiply(v, list(x)) for x in gen.space.basis]
    for space in (saturate(rows, ops, n, field), echelonize(rows, n, field)):
        failure = _bimodule_failure_loop(a, gen, space)
        if failure is None:
            assert bimodule_subspace(a, gen, space).space == space
        else:
            with pytest.raises(InvalidInputError, match=f"under {failure} action"):
                bimodule_subspace(a, gen, space)


IDEAL_ALGEBRAS = {
    "M2": lambda f: matrix_algebra(2, f),
    "M3": lambda f: matrix_algebra(3, f),
    "T4": lambda f: block_triangular(4, (1, 1, 1, 1), f).as_algebra(),
    "T(2,1,1)": lambda f: block_triangular(4, (2, 1, 1), f).as_algebra(),
    "M2xT3": lambda f: direct_product(
        [matrix_algebra(2, f), block_triangular(3, (1, 1, 1), f).as_algebra()]),
}


def _ideal_closure_saturation(a, rows):
    """The former `ideal_closure`: the rows saturated under left and right
    multiplication by every basis vector."""
    ops = []
    for k in range(a.dim):
        bk = a.basis_vector(k)
        ops += [lambda v, bk=bk: a.multiply(bk, v),
                lambda v, bk=bk: a.multiply(v, bk)]
    return saturate(rows, ops, a.dim, a.field)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(IDEAL_ALGEBRAS)), st.sampled_from([QQ, F2, F3]),
       st.data())
def test_ideal_closure_matches_the_saturation(name, field, data):
    """B·S·B from two product spans equals the saturation of S under every
    basis vector on both sides."""
    a = IDEAL_ALGEBRAS[name](field)
    entry = _rationals if field.p is None else st.integers(0, field.p - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=a.dim, max_size=a.dim),
                              max_size=3))
    assert repr(ideal_closure(a, rows)) == repr(
        _ideal_closure_saturation(a, rows))
