"""Exact linear algebra: echelon forms, solving, subspaces, enumeration."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Scalars
from maxsub.errors import InvalidInputError, NotFiniteFieldError
from maxsub.linalg import (
    GF,
    QQ,
    Subspace,
    echelonize,
    enumerate_subspaces,
    full_subspace,
    gaussian_binomial,
    identity_matrix,
    kernel,
    kron,
    mat_mul,
    mat_vec,
    quotient_space,
    reduce_vec,
    rref,
    saturate,
    solve_linear,
    span_elements,
    subspace_contains,
    subspace_intersection,
    subspace_ops,
    subspace_sum,
    sylvester_rows,
    tensor_quotient,
    zero_subspace,
)

F2 = GF(2)
F3 = GF(3)


def test_field_rejects_composite():
    with pytest.raises(InvalidInputError):
        GF(6)


def test_field_primality_is_exact_below_2_64():
    start = time.perf_counter()
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    assert GF(18446744073709551557).p == 18446744073709551557
    # a Carmichael number, strong pseudoprimes to the bases 2..7 and 2..23,
    # and the square of a prime
    for n in (561, 3215031751, 3825123056546413051, (2 ** 31 - 1) ** 2):
        with pytest.raises(InvalidInputError):
            GF(n)
    assert time.perf_counter() - start < 1.0


def test_field_rejects_characteristic_from_2_64_up():
    start = time.perf_counter()
    for n in (2 ** 64 + 13, 10 ** 30 + 57):
        with pytest.raises(InvalidInputError):
            GF(n)
    assert time.perf_counter() - start < 1.0


def test_echelonize_zero_matrix():
    s = echelonize([[0, 0, 0], [0, 0, 0]], 3, QQ)
    assert s.dim == 0
    assert s == zero_subspace(3, QQ)


def test_echelonize_identity():
    s = echelonize(identity_matrix(4, QQ), 4, QQ)
    assert s.dim == 4
    assert s == full_subspace(4, QQ)
    assert [list(r) for r in s.basis] == identity_matrix(4, QQ)


def test_echelonize_f2_hand_example():
    s = echelonize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3, F2)
    assert s.dim == 2
    assert s.basis == ((1, 0, 1), (0, 1, 1))


def test_solve_identity():
    x, ker = solve_linear(identity_matrix(3, QQ), [[5], [7], [9]], QQ)
    assert [r[0] for r in x] == [5, 7, 9]
    assert ker.dim == 0


def test_solve_zero_system():
    x, ker = solve_linear([[0, 0], [0, 0]], [[0], [0]], QQ)
    assert x == [[0], [0]]
    assert ker.dim == 2


def test_solve_rank_deficient():
    x, ker = solve_linear([[1, 2], [2, 4]], [[3], [6]], QQ)
    assert x is not None
    # a * x == b exactly
    assert [Fraction(1) * x[0][0] + 2 * x[1][0]] == [Fraction(3)]
    assert ker.dim == 1
    v = ker.basis[0]
    assert v[0] + 2 * v[1] == 0


def test_solve_inconsistent():
    x, ker = solve_linear([[1, 2], [2, 4]], [[3], [7]], QQ)
    assert x is None
    assert ker.dim == 1


def test_subspace_ops_equal():
    u = echelonize([[1, 0], [0, 1]], 2, QQ)
    ops = subspace_ops(u, u)
    assert ops["sum"] == u and ops["intersection"] == u and ops["contains"]


def test_subspace_ops_complementary():
    u = echelonize([[1, 0, 0, 0], [0, 1, 0, 0]], 4, F2)
    w = echelonize([[0, 0, 1, 0], [0, 0, 0, 1]], 4, F2)
    ops = subspace_ops(u, w)
    assert ops["intersection"].dim == 0
    assert ops["sum"].dim == 4
    assert not ops["contains"]


def test_subspace_ops_f2_hand_example():
    u = echelonize([[1, 0, 0, 0], [0, 1, 0, 0]], 4, F2)
    w = echelonize([[0, 1, 1, 0], [0, 0, 0, 1]], 4, F2)
    ops = subspace_ops(u, w)
    assert ops["intersection"].dim == 0
    assert ops["sum"].dim == 4


def test_enumerate_dim_zero():
    out = list(enumerate_subspaces(3, 0, F2))
    assert len(out) == 1 and out[0].dim == 0


def test_enumerate_lines_of_f2_squared():
    out = list(enumerate_subspaces(2, 1, F2))
    assert len(out) == 3 == gaussian_binomial(2, 1, 2)


def test_enumerate_total_f2_4():
    total = sum(len(list(enumerate_subspaces(4, k, F2))) for k in range(5))
    assert total == 67


def test_enumerate_requires_finite_field():
    with pytest.raises(NotFiniteFieldError):
        list(enumerate_subspaces(2, 1, QQ))


@pytest.mark.parametrize("q,field", [(2, F2), (3, F3)])
@pytest.mark.parametrize("n", range(6))
def test_enumerate_counts_match_gaussian_binomials(n, q, field):
    for k in range(n + 1):
        count = sum(1 for _ in enumerate_subspaces(n, k, field))
        assert count == gaussian_binomial(n, k, q)


def test_enumerate_yields_no_duplicates():
    seen = set()
    for s in enumerate_subspaces(4, 2, F3):
        assert s.basis not in seen
        seen.add(s.basis)
    assert len(seen) == gaussian_binomial(4, 2, 3)


def test_tensor_quotient_no_relations():
    q = tensor_quotient(2, 3, [], QQ)
    assert q.dim == 6
    assert q.projection_matrix() == identity_matrix(6, QQ)


def test_tensor_quotient_everything():
    q = tensor_quotient(2, 2, identity_matrix(4, QQ), QQ)
    assert q.dim == 0


def test_tensor_quotient_kxk_over_itself():
    # relations for B (x)_B B with B = K x K: dim drops from 4 to 2
    rels = [[0, 1, 0, 0], [0, 0, 1, 0]]
    q = tensor_quotient(2, 2, rels, QQ)
    assert q.dim == 2


def test_projection_section_identity():
    q = quotient_space(5, [[1, 1, 0, 0, 0], [0, 0, 1, 2, 0]], QQ)
    assert q.dim == 3
    proj = q.projection_matrix()
    sect = q.section_matrix()
    comp = [[sum(proj[i][k] * sect[k][j] for k in range(5))
             for j in range(q.dim)] for i in range(q.dim)]
    assert comp == identity_matrix(3, QQ)


# ---------------------------------------------------------------------------
# properties

small_f2_matrices = st.lists(
    st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4),
    min_size=0, max_size=5)


@given(small_f2_matrices)
def test_echelonize_idempotent_f2(rows):
    s = echelonize(rows, 4, F2)
    again = echelonize([list(r) for r in s.basis], 4, F2)
    assert s == again


@given(st.lists(st.lists(st.fractions(max_denominator=6),
                         min_size=3, max_size=3), min_size=0, max_size=4))
def test_echelonize_idempotent_q(rows):
    s = echelonize(rows, 3, QQ)
    again = echelonize([list(r) for r in s.basis], 3, QQ)
    assert s == again


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=60)
def test_modular_law_f2(n, data):
    rows_u = data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=0, max_size=n))
    rows_w = data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=0, max_size=n))
    u = echelonize(rows_u, n, F2)
    w = echelonize(rows_w, n, F2)
    s = subspace_sum(u, w)
    i = subspace_intersection(u, w)
    assert u.dim + w.dim == s.dim + i.dim
    assert subspace_contains(s, u) and subspace_contains(s, w)
    assert subspace_contains(u, i) and subspace_contains(w, i)


@given(st.data())
@settings(max_examples=40)
def test_solve_exactness_f3(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    a = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                           min_size=m, max_size=m))
    bvec = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    x, ker = solve_linear(a, [[v] for v in bvec], F3)
    if x is not None:
        got = mat_vec(a, [r[0] for r in x], F3)
        assert got == [v % 3 for v in bvec]
    for kv in ker.basis:
        assert mat_vec(a, list(kv), F3) == [0] * m


@given(st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_kernel_vectors_annihilate(rows):
    ker = kernel(rows, 4, F3)
    for kv in ker.basis:
        assert mat_vec(rows, list(kv), F3) == [0] * len(rows)


def _fixpoint(seeds, ops, n, field):
    """Reference closure: re-echelonize the span and its images until the
    dimension stops growing."""
    space = echelonize(seeds, n, field)
    while True:
        rows = [list(r) for r in space.basis]
        rows += [op(list(r)) for r in space.basis for op in ops]
        bigger = echelonize(rows, n, field)
        if bigger.dim == space.dim:
            return space
        space = bigger


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_saturate_matches_fixpoint(field, data):
    n = data.draw(st.integers(1, 5))
    entry = st.integers(-2, 2) if field.p is None else st.integers(0, field.p - 1)
    vec = st.lists(entry, min_size=n, max_size=n)
    seeds = data.draw(st.lists(vec, max_size=3))
    mats = data.draw(st.lists(st.lists(vec, min_size=n, max_size=n),
                              max_size=3))
    ops = [lambda v, m=m: mat_vec(m, v, field) for m in mats]
    assert saturate(seeds, ops, n, field) == _fixpoint(seeds, ops, n, field)


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_span_elements_are_the_distinct_members(field):
    space = echelonize([[1, 0, 2, 1], [0, 1, 1, 0], [0, 0, 0, 0]], 4, field)
    members = [tuple(x) for x in span_elements(space)]
    assert len(members) == len(set(members)) == field.p ** space.dim
    assert all(space.contains_vec(x) for x in members)
    assert members[0] == (0, 0, 0, 0)


def test_enumerate_filter_applied():
    fixed = (1, 1, 0)
    hits = list(enumerate_subspaces(3, 2, F2,
                                    filt=lambda s: s.contains_vec(fixed)))
    # planes of F_2^3 through a fixed nonzero vector: (2 choose 1)_2 = 3
    assert len(hits) == 3
    assert all(s.contains_vec(fixed) for s in hits)


def _kron_loop(u, v, field):
    """Reference tensor: the former hand-indexed pure-tensor loop."""
    ops = Scalars(field)
    out = [field.zero()] * (len(u) * len(v))
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj != 0:
                out[i * len(v) + j] = ops.mul(ui, vj)
    return out


def _sylvester_loop(a, b, field):
    """Reference rows of X -> X·A - B·X: the former Hom-space loop."""
    ops = Scalars(field)
    c, r = len(a), len(b)
    rows = []
    for i in range(r):
        for j in range(c):
            row = [field.zero()] * (r * c)
            for s in range(c):
                row[i * c + s] = ops.add(row[i * c + s], a[s][j])
            for t in range(r):
                row[t * c + j] = ops.sub(row[t * c + j], b[i][t])
            rows.append(row)
    return rows


def _entries(field):
    if field.p is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(0, field.p - 1)


def _square(field, n):
    row = st.lists(_entries(field), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kron_matches_reference_loop(field, data):
    u = data.draw(st.lists(_entries(field), max_size=5))
    v = data.draw(st.lists(_entries(field), max_size=5))
    got = kron(u, v, field)
    assert got == _kron_loop(u, v, field)
    assert len(got) == len(u) * len(v)


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sylvester_rows_match_reference_and_kernel(field, data):
    c = data.draw(st.integers(0, 3))
    r = data.draw(st.integers(0, 3))
    a = data.draw(_square(field, c))
    b = data.draw(_square(field, r))
    rows = sylvester_rows(a, b, field)
    assert rows == _sylvester_loop(a, b, field)
    if r and c:
        for flat in kernel(rows, r * c, field).basis:
            x = [list(flat[i * c:(i + 1) * c]) for i in range(r)]
            assert mat_mul(x, a, field) == mat_mul(b, x, field)


# ---------------------------------------------------------------------------
# the integer elimination core against the Field-scalar loops it replaced

def _rref_fraction(rows, field):
    """Reference: the former Gauss-Jordan loop on Field scalars."""
    ops = Scalars(field)
    m = [list(map(field.coerce, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        if inv != 1:
            m[r] = [ops.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _reduce_fraction(v, basis, pivots, field):
    """Reference: the former sequential reduction against an RREF basis."""
    ops = Scalars(field)
    res = list(v)
    coeffs = []
    for row, pc in zip(basis, pivots):
        c = res[pc]
        coeffs.append(c)
        if c != 0:
            res = [ops.sub(x, ops.mul(c, y)) for x, y in zip(res, row)]
    return res, coeffs


def _saturate_fraction(seeds, ops, n, field):
    """Reference: the former `saturate`, a fully reduced Field-scalar basis."""
    sc = Scalars(field)
    basis, pivots, pending = [], [], []

    def add(v):
        res, _ = _reduce_fraction(v, basis, pivots, field)
        pc = next((i for i, x in enumerate(res) if x != 0), None)
        if pc is None:
            return
        inv = field.inv(res[pc])
        res = [sc.mul(inv, x) for x in res]
        for i, row in enumerate(basis):
            c = row[pc]
            if c != 0:
                basis[i] = [sc.sub(x, sc.mul(c, y)) for x, y in zip(row, res)]
        basis.append(res)
        pivots.append(pc)
        pending.append(res)

    for v in seeds:
        add([field.coerce(x) for x in v])
    while pending:
        v = pending.pop()
        for op in ops:
            add(op(v))
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return Subspace(field, n, tuple(tuple(basis[i]) for i in order),
                    tuple(pivots[i] for i in order))


def _kernel_fraction(reduced, pivots, ncols, field):
    """Reference: the former kernel read off a Field-scalar RREF."""
    ops = Scalars(field)
    free = [c for c in range(ncols) if c not in pivots]
    vecs = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for row, pc in zip(reduced, pivots):
            v[pc] = ops.neg(row[f])
        vecs.append(v)
    rows, piv = _rref_fraction(vecs, field)
    return [tuple(r) for r in rows], piv


def _spell(entry):
    """A rational written as a Fraction, an int (when integral) or a str:
    every form `Field.coerce` accepts."""
    x, how = entry
    if how == "int" and x.denominator == 1:
        return int(x)
    if how == "str":
        return str(x)
    return x


# small integers (zeros and negative pivots among them) and fractions
# with denominators up to 10^12
_RATIONAL = st.one_of(st.integers(-3, 3).map(Fraction),
                      st.fractions(-5, 5, max_denominator=10 ** 12))

FP = [F2, F3, GF(5)]


def _raw(field):
    """Entries the elimination takes as input: the rationals above over Q;
    over F_p, ints from -2p to 2p, so negative and ≥ p among them."""
    if field.p is None:
        return _RATIONAL
    return st.integers(-2 * field.p, 2 * field.p)


def _is_scalar(x, field):
    if field.p is None:
        return type(x) is Fraction
    return type(x) is int and 0 <= x < field.p


@st.composite
def _matrix(draw, field, entry, max_rows=5, max_cols=5):
    """(ncols, rows): 0..max_rows rows of ncols entries (0×n and n×0 shapes
    included), with a repeated row, a multiple of a row and a zero row
    mixed in."""
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if rows and draw(st.booleans()):
        k = draw(st.sampled_from([-2, -1, 3]))
        value = Fraction if field.p is None else int
        rows.append([k * value(x) for x in draw(st.sampled_from(rows))])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return ncols, rows


def _q_matrix(forms=("fraction", "int", "str")):
    return _matrix(QQ, st.tuples(_RATIONAL, st.sampled_from(forms)).map(_spell))


def _check_rref(field, rows):
    got_rows, got_pivots = rref(rows, field)
    want_rows, want_pivots = _rref_fraction(rows, field)
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    assert all(_is_scalar(x, field) for row in got_rows for x in row)


def _check_reduction(field, n, rows, data, entry):
    """reduce_vec, contains_vec, coords and project of a vector with
    entries drawn from `entry`, or of a combination of the basis."""
    basis, pivots = _rref_fraction(rows, field)
    if basis and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(entry, min_size=len(basis),
                                    max_size=len(basis)))
        v = [field.coerce(sum(c * row[j] for c, row in zip(coeffs, basis)))
             for j in range(n)]
    else:
        v = data.draw(st.lists(entry, min_size=n, max_size=n))
    want_res, want_coeffs = _reduce_fraction(v, basis, pivots, field)
    inside = all(x == 0 for x in want_res)
    assert reduce_vec(v, basis, pivots, field) == (want_res, want_coeffs)
    space = echelonize(rows, n, field)
    assert space.basis == tuple(tuple(r) for r in basis)
    assert space.contains_vec(v) == inside
    if inside:
        assert space.coords(v) == want_coeffs
    else:
        with pytest.raises(InvalidInputError):
            space.coords(v)
    q = quotient_space(n, rows, field)
    assert q.project(v) == tuple(want_res[c] for c in q.free_coords)


def _check_saturate(field, data):
    n = data.draw(st.integers(1, 5))
    # mostly-zero seeds and maps, so that the closure is often a proper
    # subspace
    sparse = st.lists(st.one_of(st.just(0), st.just(0), _raw(field)),
                      min_size=n, max_size=n)
    seeds = data.draw(st.lists(sparse, max_size=2))
    mats = data.draw(st.lists(st.lists(sparse, min_size=n, max_size=n),
                              max_size=3))
    ops = [lambda v, m=m: mat_vec(m, v, field) for m in mats]
    assert saturate(seeds, ops, n, field) == _saturate_fraction(seeds, ops, n, field)


def _check_kernel_and_solve(field, n, a, data):
    if not a:
        assert kernel(a, n, field) == full_subspace(n, field)
        return
    reduced, pivots = _rref_fraction(a, field)
    ker = kernel(a, n, field)
    assert (list(ker.basis), list(ker.pivots)) == _kernel_fraction(
        reduced, pivots, n, field)
    k = data.draw(st.integers(0, 2))
    b = data.draw(st.lists(st.lists(_raw(field), min_size=k, max_size=k),
                           min_size=len(a), max_size=len(a)))
    x, ker2 = solve_linear(a, b, field)
    assert ker2 == ker
    aug, apiv = _rref_fraction([list(r) + list(t) for r, t in zip(a, b)], field)
    if any(pc >= n for pc in apiv):
        assert x is None
        return
    want = [[field.zero()] * k for _ in range(n)]
    for row, pc in zip(aug, apiv):
        want[pc] = row[n:]
    assert x == want
    if n:
        assert mat_mul(a, x, field) == [list(map(field.coerce, r)) for r in b]


@settings(max_examples=150, deadline=None)
@given(_q_matrix())
def test_q_rref_matches_the_fraction_loop(shape):
    _check_rref(QQ, shape[1])


@settings(max_examples=150, deadline=None)
@given(_q_matrix(forms=("fraction", "int")), st.data())
def test_q_reduction_matches_the_fraction_loop(shape, data):
    n, rows = shape
    entry = st.tuples(_RATIONAL, st.sampled_from(["fraction", "int"])).map(_spell)
    _check_reduction(QQ, n, rows, data, entry)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_q_saturate_matches_the_fraction_loop(data):
    _check_saturate(QQ, data)


@settings(max_examples=100, deadline=None)
@given(_q_matrix(forms=("fraction", "int")), st.data())
def test_q_kernel_and_solve_match_the_fraction_loop(shape, data):
    _check_kernel_and_solve(QQ, *shape, data)


@pytest.mark.parametrize("field", FP, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fp_rref_matches_the_scalar_loop(field, data):
    _check_rref(field, data.draw(_matrix(field, _raw(field)))[1])


@pytest.mark.parametrize("field", FP, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fp_reduction_matches_the_scalar_loop(field, data):
    n, rows = data.draw(_matrix(field, _raw(field)))
    _check_reduction(field, n, rows, data, st.integers(0, field.p - 1))


@pytest.mark.parametrize("field", FP, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fp_saturate_matches_the_scalar_loop(field, data):
    _check_saturate(field, data)


@pytest.mark.parametrize("field", FP, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fp_kernel_and_solve_match_the_scalar_loop(field, data):
    _check_kernel_and_solve(field, *data.draw(_matrix(field, _raw(field))), data)
