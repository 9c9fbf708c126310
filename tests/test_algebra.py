"""Structure-constant algebras: validation, products, closures, conjugation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A3_QUIVER, f4_algebra, kxk, quiver_algebra
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
    matrix_algebra,
    subalgebra,
    subalgebra_from_rows,
    subalgebra_generated,
    validate_algebra,
)
from maxsub.errors import InvalidInputError
from maxsub.formats import dump_algebra, parse_algebra
from maxsub.linalg import (
    GF,
    QQ,
    echelonize,
    full_subspace,
    kernel,
    saturate,
    solve_one,
)

F2 = GF(2)
F3 = GF(3)


def test_validate_matrix_algebra(m2q):
    assert validate_algebra(m2q).ok


def test_validate_flags_broken_table():
    # e*e = x and x*x = e is not associative together with x*e = e*x = x
    bad = Algebra(QQ, 2, ("e", "x"), (Fraction(1), Fraction(0)),
                  (((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
                   ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))))
    rep = validate_algebra(bad)
    assert not rep.ok
    assert any("associativity" in v or "unit" in v for v in rep.violations)


def test_validate_path_algebra(a3_q):
    assert validate_algebra(a3_q).ok


# The per-scalar product loop and the basis-vector triple loop that the
# integer table replaced, kept as references for the differential tests.

def _reference_multiply(a, x, y):
    f = a.field
    out = [f.zero()] * a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            row = a.table[i][j]
            if x[i] == 0 or y[j] == 0 or all(c == 0 for c in row):
                continue
            c = f.mul(x[i], y[j])
            out = [f.add(o, f.mul(c, r)) for o, r in zip(out, row)]
    return out


def _reference_violations(a):
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
                left = _reference_multiply(a, list(a.table[i][j]), bk)
                right = _reference_multiply(a, bi, list(a.table[j][k]))
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
@given(st.data())
def test_q_multiply_matches_reference_loop(data):
    n = data.draw(st.integers(1, 4))
    entries = st.lists(_rationals, min_size=n, max_size=n).map(tuple)
    table = tuple(tuple(data.draw(entries) for _ in range(n)) for _ in range(n))
    a = Algebra(QQ, n, tuple(f"b{i}" for i in range(n)), (Fraction(1),) * n,
                table)
    x = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    y = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    for u, v in ((x, y), ([0] * n, y), (x, [0] * n)):
        got = a.multiply(u, v)
        assert got == _reference_multiply(a, u, v)
        assert all(type(c) is Fraction for c in got)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([QQ, F3]),
       changes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.integers(0, 3), st.integers(1, 2)),
                        min_size=1, max_size=3, unique_by=lambda c: c[:3]))
def test_validate_matches_reference_triple_loop(field, changes):
    m2 = matrix_algebra(2, field)
    table = [[list(v) for v in row] for row in m2.table]
    for i, j, k, delta in changes:
        table[i][j][k] = field.add(table[i][j][k], field.coerce(delta))
    bad = Algebra(field, 4, m2.basis_names, m2.unit,
                  tuple(tuple(tuple(v) for v in row) for row in table))
    violations = validate_algebra(bad).violations
    assert violations == _reference_violations(bad)
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
    assert validate_algebra(Algebra(F3, 4, names, unit, table)).ok
    assert not validate_algebra(Algebra(QQ, 4, names, unit, table)).ok


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


def test_algebra_text_roundtrip(m2q, a3_q):
    for alg in (m2q, a3_q, f4_algebra()):
        text = dump_algebra(alg)
        back = parse_algebra(text)
        assert back.dim == alg.dim
        assert back.unit == alg.unit
        assert back.table == alg.table
        assert dump_algebra(back) == text


def _centralizer_loop(a, s):
    """Reference centralizer: the kernel of the stacked R_v - L_v."""
    rows = []
    for v in s.basis:
        lm = a.left_mult_matrix(list(v))
        rm = a.right_mult_matrix(list(v))
        rows += [[a.field.sub(x, y) for x, y in zip(rr, lr)]
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
