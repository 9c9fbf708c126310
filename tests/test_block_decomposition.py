"""The block decomposition against the bodies it replaced.

`quotient_algebra` reads the quotient table off the structure constants,
`minimal_polynomial` grows one echelon basis of the powers,
`_split_central_idempotents` skips primitive idempotents and pairs that
failed before, `_matrix_units_for_block` solves for all n² units at once,
and `centralizer_in` and `radical_components` multiply integer rows.  Each
reference below is the former body, kept as it was.  Results are compared
by `repr`, so values, scalar types and order must all agree, on random
bases of M2, M3, T3, K×K×M2, M2×M2, the Kronecker algebra and K^4 over
Q, F_2, F_3 and F_5, and of two algebras whose centre does not split over
the base field: F_9×F_9 over F_3 and Q(i)×Q(√−2) over Q.
"""

import random
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    KRONECKER_QUIVER,
    kxkxm2,
    polynomial_quotient,
    quiver_algebra,
    random_basis,
    rebased,
)
from maxsub.algebra import (
    block_triangular,
    centralizer,
    centralizer_in,
    direct_product,
    full_subalgebra,
    make_algebra,
    matrix_algebra,
    subalgebra_from_rows,
    subalgebra_generated,
)
from maxsub.linalg import (
    GF,
    QQ,
    combine,
    echelonize,
    full_subspace,
    kernel,
    quotient_space,
    solve_one,
    unit_vec,
    vec_sub,
    zero_subspace,
    zero_vec,
)
from maxsub.maximal import RadicalComponents, radical_components
from maxsub.structure import (
    _corner_split,
    _find_primitive_idempotent,
    _matrix_units_for_block,
    _split_central_idempotents,
    ideal_closure,
    jacobson_radical,
    minimal_polynomial,
    quotient_algebra,
    structure_report,
    wedderburn_data,
)
from test_scalar_loops import _minimal_polynomial_loop

FIELDS = [QQ, GF(2), GF(3), GF(5)]
SPLIT = {
    "M2": lambda f: matrix_algebra(2, f),
    "M3": lambda f: matrix_algebra(3, f),
    "T3": lambda f: block_triangular(3, (1, 1, 1), f).as_algebra(),
    "KxKxM2": kxkxm2,
    "M2xM2": lambda f: direct_product([matrix_algebra(2, f)] * 2),
    "Kronecker": lambda f: quiver_algebra(KRONECKER_QUIVER, f),
    # four blocks: the first split can leave two pieces that split again,
    # so the order in which pairs are tried shows in the list
    "K^4": lambda f: direct_product([matrix_algebra(1, f)] * 4),
}
# K[x]/(m) for m the product of two distinct irreducible quadratics: the
# primitive central idempotents lie in the algebra, but `_corner_split`
# splits off linear factors only, so these run the schur=False path
NON_SPLIT = {
    "F9xF9": (GF(3), [2, 1, 0, 1, 1]),           # (x²+1)(x²+x+2)
    "Q(i)xQ(sqrt-2)": (QQ, [2, 0, 3, 0, 1]),     # (x²+1)(x²+2)
}
CASES = ([(name, f) for name in SPLIT for f in FIELDS]
         + [(name, f) for name, (f, _) in NON_SPLIT.items()])
SPLIT_CASES = [case for case in CASES if case[0] in SPLIT]


@lru_cache(maxsize=None)
def _base(name, field):
    if name in NON_SPLIT:
        return polynomial_quotient(NON_SPLIT[name][1], field)
    return SPLIT[name](field)


def _draw(case, seed):
    """The case's algebra in a random basis, and the generator that drew it."""
    base = _base(*case)
    rng = random.Random(seed)
    return rebased(base, random_basis(base.dim, base.field, rng)), rng


def _element(a, rng):
    return combine([a.field.coerce(rng.randint(-2, 2)) for _ in range(a.dim)],
                   [a.basis_vector(k) for k in range(a.dim)], a.field)


def _same(got, ref):
    assert repr(got) == repr(ref)


# ---------------------------------------------------------------------------
# the former bodies

def _quotient_algebra_loop(a, ideal):
    q = quotient_space(a.dim, ideal.basis, a.field)
    dim = q.dim
    names = tuple(f"q{i+1}" for i in range(dim))
    lifts = [q.lift(unit_vec(dim, i, a.field)) for i in range(dim)]
    table = tuple(
        tuple(tuple(q.project(a.multiply(lifts[i], lifts[j])))
              for j in range(dim))
        for i in range(dim))
    unit = tuple(q.project(list(a.unit)))
    return make_algebra(a.field, names, unit, table), q


def _split_central_idempotents_loop(s, center):
    f = s.field
    idems = [list(s.unit)]
    candidates = [list(v) for v in center.basis]
    rng = random.Random(0)
    for _ in range(8):
        coeffs = [f.coerce(rng.randint(0, 5)) for _ in center.basis]
        candidates.append(combine(coeffs, center.basis, f))
    changed = True
    while changed:
        changed = False
        for z in candidates:
            for e in idems:
                y = s.multiply(s.multiply(list(e), z), list(e))
                u = _corner_split(s, e, y)
                if u is not None:
                    rest = vec_sub(e, u, f)
                    idems.remove(e)
                    idems.extend([u, rest])
                    changed = True
                    break
            if changed:
                break
    all_primitive = True
    for e in idems:
        corner = echelonize([s.multiply(list(e), list(z)) for z in center.basis],
                            s.dim, f)
        if corner.dim != 1:
            all_primitive = False
    return idems, all_primitive


def _matrix_units_loop(s, e_central):
    f = s.field
    block_rows = [s.multiply(list(e_central), s.basis_vector(k))
                  for k in range(s.dim)]
    block = echelonize(block_rows, s.dim, f)
    d = block.dim
    n = int(round(d ** 0.5))
    if n * n != d:
        return None
    e = _find_primitive_idempotent(s, list(e_central))
    if e is None:
        return None
    vspace = echelonize([s.multiply(list(w), e) for w in block.basis], s.dim, f)
    if vspace.dim != n:
        return None
    vbasis = [list(v) for v in vspace.basis]

    def rho(w):
        cols = []
        for v in vbasis:
            img = s.multiply(list(w), v)
            cols.append(vspace.coords(img))
        return [list(r) for r in zip(*cols)]
    flat_cols = []
    for w in block.basis:
        mat = rho(w)
        flat_cols.append([mat[i][j] for i in range(n) for j in range(n)])
    system = [list(r) for r in zip(*flat_cols)]
    units = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            rhs = [f.one() if (i == p and j == q) else f.zero()
                   for i in range(n) for j in range(n)]
            t = solve_one(system, rhs, f)
            if t is None:
                return None
            units[p][q] = combine(t, block.basis, f)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for t2 in range(n):
                    prod = s.multiply(units[p][q], units[r][t2])
                    want = units[p][t2] if q == r else zero_vec(s.dim, f)
                    if prod != want:
                        return None
    diagonal = [units[p][p] for p in range(n)]
    if combine([f.one()] * n, diagonal, f) != list(e_central):
        return None
    return n, units


def _centralizer_in_loop(sub, elements):
    par = sub.parent
    f = par.field
    rows = []
    for v in elements:
        v = list(v)
        cols = [vec_sub(par.multiply(list(x), v), par.multiply(v, list(x)), f)
                for x in sub.space.basis]
        rows += [list(r) for r in zip(*cols)]
    ker = kernel(rows, sub.dim, f)
    out_rows = [sub.embed(list(k)) for k in ker.basis]
    return subalgebra_from_rows(par, out_rows, check=False)


def _radical_components_loop(b, wm):
    j = wm.radical
    f = b.field
    jj_rows = [j.coords(b.multiply(list(x), list(y)))
               for x in j.basis for y in j.basis]
    t = quotient_space(j.dim, jj_rows, f)

    def sandwich(u, tvec, v):
        x = combine(t.lift(tvec), j.basis, f)
        prod = b.multiply(b.multiply(list(u), x), list(v))
        return t.project(j.coords(prod))

    components = {}
    corners = {}
    nblocks = len(wm.report.blocks)
    total = 0
    for i in range(nblocks):
        for jdx in range(nblocks):
            ei = list(wm.block_idempotents[i])
            ej = list(wm.block_idempotents[jdx])
            comp_rows = [sandwich(ei, unit_vec(t.dim, kk, f), ej)
                         for kk in range(t.dim)]
            comp = echelonize(comp_rows, t.dim, f)
            u00 = list(wm.block_units[i][0][0])
            v00 = list(wm.block_units[jdx][0][0])
            corner_rows = [sandwich(u00, unit_vec(t.dim, kk, f), v00)
                           for kk in range(t.dim)]
            corner = echelonize(corner_rows, t.dim, f)
            if comp.dim:
                components[(i, jdx)] = comp
                corners[(i, jdx)] = corner
                total += comp.dim
    assert total == t.dim
    return RadicalComponents(j, t, components, corners)


# ---------------------------------------------------------------------------
# the comparisons

@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32))
def test_quotient_tables_match_the_product_loop(case, seed):
    a, rng = _draw(case, seed)
    ideals = [jacobson_radical(a), zero_subspace(a.dim, a.field),
              ideal_closure(a, [_element(a, rng)])]
    for ideal in ideals:
        _same(quotient_algebra(a, ideal), _quotient_algebra_loop(a, ideal))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32))
def test_minimal_polynomials_match_the_power_loop(case, seed):
    """On the whole algebra, and on each corner e·x·e of the quotient."""
    a, rng = _draw(case, seed)
    x = _element(a, rng)
    _same(minimal_polynomial(a, x, a.unit), _minimal_polynomial_loop(a, x, a.unit))
    rep = structure_report(a)
    s = rep.quotient
    xs = _element(s, rng)
    for e in rep.central_idempotents:
        y = s.multiply(s.multiply(list(e), xs), list(e))
        _same(minimal_polynomial(s, y, e), _minimal_polynomial_loop(s, y, e))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32))
@example(case=("K^4", GF(2)), seed=1)
@example(case=("K^4", GF(3)), seed=11)
@example(case=("K^4", QQ), seed=38)
def test_central_idempotents_match_the_retry_loop(case, seed):
    """The same idempotents in the same order, and the same flag; where
    the centre does not split, the same partial list.  In the explicit
    examples a split leaves two pieces that both split again, so trying
    the idempotents in another order gives another list."""
    a, _ = _draw(case, seed)
    s, _ = quotient_algebra(a, jacobson_radical(a))
    center = centralizer(s, full_subspace(s.dim, s.field)).space
    got = _split_central_idempotents(s, center)
    _same(got, _split_central_idempotents_loop(s, center))
    assert got[1] or case[0] in NON_SPLIT


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(SPLIT_CASES), seed=st.integers(0, 2 ** 32))
def test_matrix_units_match_the_unit_by_unit_solve(case, seed):
    """Per block, and on the whole quotient (no units unless it is one
    block)."""
    a, _ = _draw(case, seed)
    rep = structure_report(a)
    s = rep.quotient
    for e in list(rep.central_idempotents) + [s.unit]:
        got = _matrix_units_for_block(s, e)
        _same(got, _matrix_units_loop(s, e))
    assert all(_matrix_units_for_block(s, e) is not None
               for e in rep.central_idempotents)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32))
def test_centralizers_match_the_commutator_loop(case, seed):
    """Inside the whole algebra, a subalgebra generated by one element and,
    where it exists, the Wedderburn-Malcev complement."""
    a, rng = _draw(case, seed)
    subs = [full_subalgebra(a), subalgebra_generated(a, [_element(a, rng)])]
    if case[0] in SPLIT:
        subs.append(wedderburn_data(a).complement)
    for sub in subs:
        for k in (1, 2):
            elements = [_element(a, rng) for _ in range(k)]
            _same(centralizer_in(sub, elements).space,
                  _centralizer_in_loop(sub, elements).space)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(SPLIT_CASES), seed=st.integers(0, 2 ** 32))
def test_radical_components_match_the_sandwich_loop(case, seed):
    a, _ = _draw(case, seed)
    wm = wedderburn_data(a)
    _same(radical_components(a, wm), _radical_components_loop(a, wm))

