"""The vector, matrix and polynomial helpers against the per-scalar loops
they replaced.

Each helper now computes with native int or Fraction arithmetic and
reduces mod p once per result.  Each reference below is the loop it ran
before, one scalar operation at a time (`Scalars`).  Values and scalar
types must both agree: Fractions over Q where the loop built them, ints
in [0, p) over F_p.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Scalars, kxkxm2
from maxsub.algebra import block_triangular, matrix_algebra
from maxsub.formats import dump_algebra, parse_algebra
from maxsub.linalg import (
    GF,
    QQ,
    combine,
    echelonize,
    kron,
    mat_mul,
    mat_vec,
    solve_one,
    sylvester_rows,
    vec_add,
    vec_sub,
)
from maxsub.presentations import PathAlgebraPresentation, Quiver, path_algebra
from maxsub.structure import (
    _corner_split,
    _distinct_roots_mod_p,
    _poly_divmod,
    _poly_eval,
    _poly_ext_gcd,
    _poly_mul,
    _poly_roots,
    _poly_sub,
    _poly_trim,
    _split_linear,
    minimal_polynomial,
    poly_eval_in_algebra,
)

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(2 ** 61 - 1)]
ODD_FIELDS = [GF(3), GF(5), GF(2 ** 61 - 1)]


def _scalars(field):
    """Field scalars; over Q both ints and Fractions, zeros often."""
    if field.p is None:
        return st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3,
                                      max_denominator=4))
    return st.one_of(st.just(0), st.integers(0, min(field.p - 1, 4)),
                     st.integers(0, field.p - 1))


def _vec(field, n):
    return st.lists(_scalars(field), min_size=n, max_size=n)


def _same(got, ref, field):
    """Equal values, the same scalar types, and F_p results in [0, p)."""
    assert got == ref
    assert [type(x) for x in got] == [type(x) for x in ref]
    if field.p is not None:
        assert all(type(x) is int and 0 <= x < field.p for x in got)


def _flat(rows):
    return [x for r in rows for x in r]


# ---------------------------------------------------------------------------
# the vector and matrix helpers of linalg

def _vec_add_loop(u, v, field):
    ops = Scalars(field)
    return [ops.add(a, b) for a, b in zip(u, v)]


def _vec_sub_loop(u, v, field):
    ops = Scalars(field)
    return [ops.sub(a, b) for a, b in zip(u, v)]


def _combine_loop(coeffs, rows, field):
    ops = Scalars(field)
    out = [field.zero()] * (len(rows[0]) if rows else 0)
    for c, row in zip(coeffs, rows):
        if c != 0:
            out = [ops.add(o, ops.mul(c, x)) if x else o
                   for o, x in zip(out, row)]
    return out


def _kron_loop(u, v, field):
    ops = Scalars(field)
    zero = field.zero()
    zeros = [zero] * len(v)
    out = []
    for a in u:
        out += [ops.mul(a, b) if b else zero for b in v] if a else zeros
    return out


def _sylvester_loop(a, b, field):
    ops = Scalars(field)
    c, r = len(a), len(b)
    cols = [list(col) for col in zip(*a)]
    rows = []
    for i in range(r):
        for j in range(c):
            row = [field.zero()] * (r * c)
            row[i * c:(i + 1) * c] = cols[j]
            for t, x in enumerate(b[i]):
                if x:
                    row[t * c + j] = ops.sub(row[t * c + j], x)
            rows.append(row)
    return rows


def _dot_loop(u, v, field):
    ops = Scalars(field)
    s = field.zero()
    for a, b in zip(u, v):
        if a != 0 and b != 0:
            s = ops.add(s, ops.mul(a, b))
    return s


def _mat_vec_loop(m, v, field):
    return [_dot_loop(row, v, field) for row in m]


def _mat_mul_loop(a, b, field):
    cols = list(zip(*b)) if b else []
    return [[_dot_loop(row, col, field) for col in cols] for row in a]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_vec_add_and_sub_match_the_scalar_loop(field, data):
    n = data.draw(st.integers(0, 5))
    u, v = data.draw(_vec(field, n)), data.draw(_vec(field, n))
    _same(vec_add(u, v, field), _vec_add_loop(u, v, field), field)
    _same(vec_sub(u, v, field), _vec_sub_loop(u, v, field), field)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_combine_matches_the_scalar_loop(field, data):
    n = data.draw(st.integers(0, 5))
    rows = data.draw(st.lists(_vec(field, n), max_size=4))   # k×n, k may be 0
    coeffs = data.draw(_vec(field, len(rows)))
    _same(combine(coeffs, rows, field), _combine_loop(coeffs, rows, field),
          field)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_kron_and_sylvester_match_the_scalar_loops(field, data):
    u = data.draw(st.lists(_scalars(field), max_size=4))
    v = data.draw(st.lists(_scalars(field), max_size=4))
    _same(kron(u, v, field), _kron_loop(u, v, field), field)
    c, r = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    a = data.draw(st.lists(_vec(field, c), min_size=c, max_size=c))
    b = data.draw(st.lists(_vec(field, r), min_size=r, max_size=r))
    got = sylvester_rows(a, b, field)
    ref = _sylvester_loop(a, b, field)
    assert [len(row) for row in got] == [len(row) for row in ref]
    _same(_flat(got), _flat(ref), field)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_mat_vec_and_mat_mul_match_the_scalar_loops(field, data):
    r, n, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    m = data.draw(st.lists(_vec(field, n), min_size=r, max_size=r))
    v = data.draw(_vec(field, n))
    _same(mat_vec(m, v, field), _mat_vec_loop(m, v, field), field)
    b = data.draw(st.lists(_vec(field, c), min_size=n, max_size=n))
    got, ref = mat_mul(m, b, field), _mat_mul_loop(m, b, field)
    assert [len(row) for row in got] == [len(row) for row in ref]
    _same(_flat(got), _flat(ref), field)


# ---------------------------------------------------------------------------
# the polynomial helpers of structure (dense, ascending coefficients)

def _divmod_loop(num, den, field):
    ops = Scalars(field)
    num = list(num)
    q = [field.zero()] * max(0, len(num) - len(den) + 1)
    inv = field.inv(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = ops.mul(num[i + len(den) - 1], inv)
        q[i] = c
        if c != 0:
            for k, d in enumerate(den):
                num[i + k] = ops.sub(num[i + k], ops.mul(c, d))
    return _poly_trim(q, field), _poly_trim(num, field)


def _mul_loop(a, b, field):
    ops = Scalars(field)
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] = ops.add(out[i + j], ops.mul(x, y))
    return out


def _sub_loop(a, b, field):
    ops = Scalars(field)
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else field.zero()
        y = b[i] if i < len(b) else field.zero()
        out.append(ops.sub(x, y))
    return _poly_trim(out, field)


def _ext_gcd_loop(a, b, field):
    ops = Scalars(field)
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = _divmod_loop(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_loop(s0, _mul_loop(q, s1, field), field)
        t0, t1 = t1, _sub_loop(t0, _mul_loop(q, t1, field), field)
    if r0:
        lead = field.inv(r0[-1])
        r0 = [ops.mul(lead, c) for c in r0]
        s0 = [ops.mul(lead, c) for c in s0]
        t0 = [ops.mul(lead, c) for c in t0]
    return r0, s0, t0


def _eval_loop(poly, x, field):
    ops = Scalars(field)
    acc = field.zero()
    for c in reversed(list(poly)):
        acc = ops.add(ops.mul(acc, x), c)
    return acc


def _poly(field, min_size=0):
    return st.lists(_scalars(field), min_size=min_size, max_size=6)


def _nonzero_poly(field):
    """A polynomial with a nonzero leading coefficient."""
    return _poly(field, 1).filter(lambda f: f[-1] != 0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_poly_arithmetic_matches_the_scalar_loops(field, data):
    a, b = data.draw(_poly(field)), data.draw(_poly(field))
    _same(_poly_mul(a, b, field), _mul_loop(a, b, field), field)
    _same(_poly_sub(a, b, field), _sub_loop(a, b, field), field)
    x = data.draw(_scalars(field))
    got, ref = _poly_eval(a, x, field), _eval_loop(a, x, field)
    _same([got], [ref], field)
    den = data.draw(_nonzero_poly(field))
    q, r = _poly_divmod(a, den, field)
    q_ref, r_ref = _divmod_loop(a, den, field)
    _same(q, q_ref, field)
    _same(r, r_ref, field)
    for got, ref in zip(_poly_ext_gcd(a, den, field),
                        _ext_gcd_loop(a, den, field)):
        _same(got, ref, field)


def _roots_loop(poly, field):
    """The former F_p branch of `_poly_roots`: each distinct root divided
    out as often as it divides."""
    ops = Scalars(field)
    work = _poly_trim(list(poly), field)
    roots = []
    for c in sorted(_distinct_roots_mod_p(work, field)):
        while len(work) > 1 and _eval_loop(work, c, field) == 0:
            roots.append(c)
            work, rem = _divmod_loop(work, [ops.neg(c), field.one()], field)
            assert not rem
    return roots


def _powmod_loop(base, e, mod, field):
    out = [field.one()]
    base = _divmod_loop(base, mod, field)[1]
    while e:
        if e & 1:
            out = _divmod_loop(_mul_loop(out, base, field), mod, field)[1]
        base = _divmod_loop(_mul_loop(base, base, field), mod, field)[1]
        e >>= 1
    return out


def _split_linear_loop(g, field):
    ops = Scalars(field)
    if len(g) <= 2:
        return [ops.neg(g[0])] if len(g) == 2 else []
    for a in range(field.p):
        half = _powmod_loop([a, 1], (field.p - 1) // 2, g, field)
        h, _, _ = _ext_gcd_loop(g, _sub_loop(half, [1], field), field)
        if 1 < len(h) < len(g):
            return (_split_linear_loop(h, field)
                    + _split_linear_loop(_divmod_loop(g, h, field)[0], field))
    raise AssertionError("no split")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ODD_FIELDS), st.data())
def test_roots_and_linear_split_match_the_scalar_loops(field, data):
    roots = data.draw(st.lists(st.integers(0, field.p - 1), max_size=4))
    lead = data.draw(st.integers(1, field.p - 1))
    poly = [lead]
    for r in roots:
        poly = _mul_loop(poly, [-r % field.p, 1], field)
    assert _poly_roots(poly, field) == _roots_loop(poly, field)
    assert _poly_roots(poly, field) == sorted(roots)
    g = [1]
    for r in sorted(set(roots)):
        g = _mul_loop(g, [-r % field.p, 1], field)
    got = _split_linear(g, field)
    _same(got, _split_linear_loop(g, field), field)
    assert sorted(got) == sorted(set(roots))


# ---------------------------------------------------------------------------
# minimal polynomials and corner splitting

def _minimal_polynomial_loop(a, x, unit):
    ops = Scalars(a.field)
    powers = [list(unit)]
    while True:
        cols = [list(c) for c in zip(*powers)]
        nxt = a.multiply(powers[-1], list(x))
        coeffs = solve_one(cols, nxt, a.field)
        span = echelonize(powers, a.dim, a.field)
        if coeffs is not None and span.dim == len(powers):
            return [ops.neg(c) for c in coeffs] + [a.field.one()]
        powers.append(nxt)


def _corner_split_loop(s, e, y):
    f = s.field
    ops = Scalars(f)
    mp = _minimal_polynomial_loop(s, y, e)
    for lam in _poly_roots(mp, f):
        lin = [ops.neg(lam), f.one()]
        fac = list(lin)
        rest, _ = _divmod_loop(mp, lin, f)
        while True:
            q2, r2 = _divmod_loop(rest, lin, f)
            if r2:
                break
            fac = _mul_loop(fac, lin, f)
            rest = q2
        if len(rest) <= 1:
            continue
        g, _, sb = _ext_gcd_loop(fac, rest, f)
        if len(g) != 1:
            continue
        u = poly_eval_in_algebra(_mul_loop(sb, rest, f), y, e, s)
        if all(c == 0 for c in u) or u == list(e):
            continue
        return u
    return None


def _small_algebras(field):
    return [matrix_algebra(2, field), kxkxm2(field),
            block_triangular(3, (1, 2), field).as_algebra()]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_minimal_polynomial_and_corner_split_match_the_scalar_loops(field, data):
    a = data.draw(st.sampled_from(_small_algebras(field)))
    x = data.draw(_vec(field, a.dim))
    unit = list(a.unit)
    mp = minimal_polynomial(a, x, unit)
    _same(mp, _minimal_polynomial_loop(a, x, unit), field)
    got = _corner_split(a, unit, x)
    ref = _corner_split_loop(a, unit, x)
    assert (got is None) == (ref is None)
    if got is not None:
        _same(got, ref, field)


# ---------------------------------------------------------------------------
# term accumulation in the parsers

def _split_terms(data, field, text):
    """The algebra text with every term k:v written as k:v1 k:v2, v1 + v2 = v
    (with the per-scalar sum as the reference)."""
    ops = Scalars(field)
    out = []
    for line in text.splitlines():
        toks = line.split()
        if toks[0] == "mul":
            terms = []
            for term in toks[4:]:
                k, v = term.split(":")
                v = field.parse(v)
                v1 = data.draw(_scalars(field))
                v2 = ops.sub(v, v1)
                assert ops.add(v1, v2) == v
                terms += [f"{k}:{v1}", f"{k}:{v2}"]
            line = " ".join(toks[:4] + terms)
        out.append(line)
    return "\n".join(out) + "\n"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_parse_algebra_sums_repeated_terms_per_entry(field, data):
    a = data.draw(st.sampled_from(_small_algebras(field)))
    text = dump_algebra(a)
    b = parse_algebra(_split_terms(data, field, text))
    assert b.table == a.table
    for row_a, row_b in zip(a.table, b.table):
        for va, vb in zip(row_a, row_b):
            _same(list(vb), list(va), field)
    assert dump_algebra(b) == text


LOOP = Quiver(("v",), (("t", "v", "v"),))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_relation_terms_on_one_path_add_up(field, data):
    # the relation c·t² = 0, given as two terms c1 + c2 = c on one path;
    # t³ = 0 keeps the relations admissible when c is 0
    c1, c2 = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    cube = ((1, ("t",) * 3),)
    split, merged = (
        path_algebra(PathAlgebraPresentation(LOOP, relations=(terms, cube),
                                             bound=3), field)
        for terms in (((c1, ("t", "t")), (c2, ("t", "t"))),
                      ((c1 + c2, ("t", "t")),)))
    assert ((split.basis_names, split.unit, split.table)
            == (merged.basis_names, merged.unit, merged.table))
    for x, y in zip(_flat(_flat(split.table)), _flat(_flat(merged.table))):
        assert type(x) is type(y)
    zero = (c1 + c2) % field.p == 0 if field.p else c1 + c2 == 0
    assert split.dim == (3 if zero else 2)
