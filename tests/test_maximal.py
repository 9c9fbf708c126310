"""Maximal families, certification, classification, brute-force oracle."""

import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxsub.structure
from conftest import (
    A2_QUIVER,
    A3_QUIVER,
    CHAIN3_POSET,
    D4_QUIVER,
    KRONECKER_QUIVER,
    AlgebraDraw,
    Scalars,
    f4_algebra,
    fp_algebras,
    kxk,
    kxkxm2,
    polynomial_quotient,
    quiver_algebra,
    random_basis,
    rebased,
)
from maxsub.algebra import (
    block_triangular,
    direct_product,
    invert_element,
    is_closed_subspace,
    matrix_algebra,
    subalgebra_from_rows,
)
from maxsub.errors import (
    CapExceededError,
    InvalidInputError,
    NotFiniteFieldError,
    NotSplitError,
)
from maxsub.linalg import (
    GF,
    QQ,
    echelonize,
    enumerate_subspaces,
    subspace_contains,
)
from maxsub.maximal import (
    Certificate,
    MaximalFamily,
    _packed,
    _unital_subalgebras,
    brute_force_maximal,
    certify_maximal,
    classify_type,
    conjugacy_orbit_rep,
    enumerate_maximal_families,
    instantiate_family,
    max_proper_subalgebra_dim,
    observed_max_dim,
    radical_components,
    spin_up_recheck,
    unit_group,
)
from maxsub.poly import (
    evaluate as poly_eval,
    irreducible,
    mul as poly_mul,
    pow_mod as poly_pow_mod,
    quo_rem as poly_quo_rem,
    sub as poly_sub,
)
from maxsub.presentations import incidence_algebra
from maxsub.structure import structure_report, wedderburn_data

F2 = GF(2)
F3 = GF(3)


def kinds(fams):
    return sorted(f.kind for f in fams)


def test_families_m2q(m2q):
    fams = enumerate_maximal_families(m2q)
    assert len(fams) == 1
    assert fams[0].kind == "block_triangular" and fams[0].k == 1


def test_families_kronecker_q(kronecker_q):
    fams = enumerate_maximal_families(kronecker_q)
    assert kinds(fams) == ["diagonal_merge", "radical_hyperplane"]
    rh = next(f for f in fams if f.kind == "radical_hyperplane")
    assert rh.multiplicity == 2
    assert rh.functional is None


def test_families_kronecker_f2(kronecker_f2):
    fams = enumerate_maximal_families(kronecker_f2)
    hyper = [f for f in fams if f.kind == "radical_hyperplane"]
    assert len(hyper) == 3
    assert len({f.functional for f in hyper}) == 3
    assert kinds(fams) == ["diagonal_merge"] + ["radical_hyperplane"] * 3


def test_families_m2f2(m2f2):
    fams = enumerate_maximal_families(m2f2)
    assert kinds(fams) == ["block_triangular", "subfield_centralizer"]
    sc = next(f for f in fams if f.kind == "subfield_centralizer")
    assert sc.degree == 2


def test_families_not_split():
    with pytest.raises(NotSplitError):
        enumerate_maximal_families(f4_algebra())


def test_radical_components_invariant(a3_q, kronecker_q):
    for alg in (a3_q, kronecker_q):
        wm = wedderburn_data(alg)
        comps = radical_components(alg, wm)
        total = sum(comp.dim for comp in comps.components.values())
        assert total == comps.t_quotient.dim
        for (i, j), comp in comps.components.items():
            ni = wm.report.blocks[i].n
            nj = wm.report.blocks[j].n
            assert comps.corners[(i, j)].dim * ni * nj == comp.dim


def test_instantiate_diagonal_merge_kxk():
    b = kxk(QQ)
    fams = enumerate_maximal_families(b)
    assert kinds(fams) == ["diagonal_merge"]
    sub = instantiate_family(b, fams[0])
    assert sub.dim == 1
    assert sub.space.contains_vec([1, 1])


def test_instantiate_kronecker_hyperplane(kronecker_q):
    rh = next(f for f in enumerate_maximal_families(kronecker_q)
              if f.kind == "radical_hyperplane")
    sub = instantiate_family(kronecker_q, rh, params=[1, 0])
    assert sub.dim == 3
    with pytest.raises(InvalidInputError):
        instantiate_family(kronecker_q, rh)          # params required
    with pytest.raises(InvalidInputError):
        instantiate_family(kronecker_q, rh, params=[0, 0])


def test_instantiate_merge_a3(a3_q):
    fams = [f for f in enumerate_maximal_families(a3_q)
            if f.kind == "diagonal_merge"]
    assert len(fams) == 3
    for f in fams:
        sub = instantiate_family(a3_q, f)
        assert sub.dim == 5
        assert certify_maximal(sub, a3_q).status == "maximal"


def test_instantiate_subfield_centralizer(m2f2):
    sc = next(f for f in enumerate_maximal_families(m2f2)
              if f.kind == "subfield_centralizer")
    sub = instantiate_family(m2f2, sc)
    assert sub.dim == 2
    # the F_4 subalgebra is its own centralizer
    from maxsub.algebra import centralizer
    assert centralizer(m2f2, sub.space).space == sub.space


@pytest.mark.parametrize("fam", [
    MaximalFamily("subfield_centralizer", -1, degree=2),
    MaximalFamily("subfield_centralizer", 98, degree=2),
    MaximalFamily("block_triangular", 3, k=1),
    MaximalFamily("diagonal_merge", 0, other=-1),
    MaximalFamily("diagonal_merge", 0, other=3),
    MaximalFamily("radical_hyperplane", 0, other=5, multiplicity=1,
                  functional=(1,)),
], ids=["centralizer-0", "centralizer-99", "triangular-4", "merge-j0",
        "merge-j4", "hyperplane-j6"])
def test_instantiate_rejects_block_out_of_range(fam):
    # K x K x M2 has three blocks; a record's block 0 or 99 is index -1 or 98
    with pytest.raises(InvalidInputError, match="out of range"):
        instantiate_family(kxkxm2(F2), fam)


def test_certify_block_triangular(m2q):
    bt = subalgebra_from_rows(m2q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    cert = certify_maximal(bt, m2q)
    assert cert.status == "maximal" and cert.method == "burnside"
    assert cert.quotient_dim == 1


def test_certify_scalars_not_maximal(m2q):
    triv = subalgebra_from_rows(m2q, [list(m2q.unit)])
    cert = certify_maximal(triv, m2q)
    assert cert.status == "not_maximal"
    assert cert.witness is not None
    assert 1 < cert.witness.dim < 4
    # the witness is strictly intermediate and contains the scalars
    assert cert.witness.space.contains_vec(list(m2q.unit))


def test_certify_f4_via_spin_up(m2f2):
    sc = next(f for f in enumerate_maximal_families(m2f2)
              if f.kind == "subfield_centralizer")
    sub = instantiate_family(m2f2, sc)
    cert = certify_maximal(sub, m2f2)
    assert cert.status == "maximal"
    assert cert.method in ("spin_up", "exhaustive")
    assert spin_up_recheck(sub, m2f2)


def test_certify_scalars_in_m2f2_not_maximal(m2f2):
    scalars = subalgebra_from_rows(m2f2, [list(m2f2.unit)])
    cert = certify_maximal(scalars, m2f2)
    assert (cert.status, cert.method) == ("not_maximal", "stable_subspace")
    assert 1 < cert.witness.dim < 4
    assert is_closed_subspace(m2f2, cert.witness.space)
    assert cert.witness.space.contains_vec(list(m2f2.unit))
    assert not spin_up_recheck(scalars, m2f2)


def test_certify_finds_a_one_dim_stable_line_in_t3_f2():
    """A = diagonal + E13 in T_3/F_2: B/A is 2-dim and its line of E12
    pulls back to the 5-dim subalgebra A + E12."""
    bt = block_triangular(3, [1, 1, 1], F2)
    t3 = bt.as_algebra()

    def unit(i, j):
        v = [0] * 9
        v[3 * i + j] = 1
        return bt.space.coords(v)
    a = subalgebra_from_rows(t3, [unit(0, 0), unit(1, 1), unit(2, 2),
                                  unit(0, 2)])
    cert = certify_maximal(a, t3)
    assert cert.quotient_dim == 2
    assert (cert.status, cert.method) == ("not_maximal", "stable_subspace")
    assert cert.witness.dim == 5
    assert is_closed_subspace(t3, cert.witness.space)
    assert not spin_up_recheck(a, t3)


def test_certify_scalars_in_the_cube_root_of_two_is_inconclusive():
    """Q ⊂ Q(∛2): B/A is the plane of x and x², no line of which pulls
    back to a subalgebra, and the Q search tries lines only."""
    b = polynomial_quotient([-2, 0, 0, 1], QQ)
    scalars = subalgebra_from_rows(b, [list(b.unit)])
    assert certify_maximal(scalars, b) == Certificate(
        "inconclusive", "burnside_failed", 2)


def test_certify_diagonal_in_m2q_finds_the_upper_triangular_witness(m2q):
    diagonal = subalgebra_from_rows(m2q, [[1, 0, 0, 0], [0, 0, 0, 1]])
    cert = certify_maximal(diagonal, m2q)
    assert (cert.status, cert.method, cert.quotient_dim) == (
        "not_maximal", "stable_subspace", 2)
    assert cert.witness.space == block_triangular(2, (1, 1), QQ, m2q).space


def test_certify_rejects_improper(m2q):
    from maxsub.algebra import full_subalgebra
    with pytest.raises(InvalidInputError):
        certify_maximal(full_subalgebra(m2q), m2q)


def test_classify_semisimple_type(a3_q):
    fams = [f for f in enumerate_maximal_families(a3_q)
            if f.kind == "diagonal_merge"]
    sub = instantiate_family(a3_q, fams[0])
    verdict = classify_type(sub, a3_q)
    assert verdict.kind == "semisimple"
    assert verdict.radical_contained


def test_classify_split_type(kronecker_q):
    rh = next(f for f in enumerate_maximal_families(kronecker_q)
              if f.kind == "radical_hyperplane")
    sub = instantiate_family(kronecker_q, rh, params=[2, 5])
    verdict = classify_type(sub, kronecker_q)
    assert verdict.kind == "split"
    assert verdict.split_radical_match
    assert verdict.a_block_dims == verdict.b_block_dims == (1, 1)


def test_classify_bt_in_m2_is_semisimple(m2q):
    bt = subalgebra_from_rows(m2q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert classify_type(bt, m2q).kind == "semisimple"


def test_classify_type_filters_a_zero_radical_once(monkeypatch):
    """M_3(F_3): 3 | 3 zeroes the trace form, so the filtration takes one
    power trace per basis vector.  The run that finds J(B) = 0 is the
    quotient check of B/0 = B, so each semisimple verdict costs 9 traces,
    not 18."""
    b = matrix_algebra(3, F3)
    wm = wedderburn_data(b)
    subs = [instantiate_family(b, fam, wm=wm)
            for fam in enumerate_maximal_families(b, wm=wm)]
    assert len(subs) == 3
    calls = []
    trace = maxsub.structure._power_trace
    monkeypatch.setattr(maxsub.structure, "_power_trace",
                        lambda *args: calls.append(1) or trace(*args))
    for sub in subs:
        calls.clear()
        assert classify_type(sub, b).kind == "semisimple"
        assert len(calls) == 9


def test_oracle_kxk_f2():
    res = brute_force_maximal(kxk(F2))
    assert len(res.maximal) == 1
    assert res.maximal[0].space.contains_vec([1, 1])
    assert res.max_dim == 1


def test_oracle_m2f2_classes(m2f2):
    res = brute_force_maximal(m2f2)
    assert len(res.classes) == 2
    assert sorted(len(c) for c in res.classes) == [1, 3]
    assert sorted(c[0].dim for c in res.classes) == [2, 3]
    assert res.max_dim == 3


def test_oracle_kronecker_f2(kronecker_f2):
    res = brute_force_maximal(kronecker_f2)
    split = [c for c in res.classes
             if classify_type(c[0], kronecker_f2).kind == "split"]
    merge = [c for c in res.classes
             if classify_type(c[0], kronecker_f2).kind == "semisimple"]
    assert len(split) == 3 and len(merge) == 1


def test_oracle_runs_at_its_dimension_cap():
    """T_3 x F_2 has dimension 7, the cap; one factor more is refused."""
    t3 = block_triangular(3, [1, 1, 1], F2).as_algebra()
    res = brute_force_maximal(direct_product([t3, matrix_algebra(1, F2)]))
    assert len(res.maximal) == 10
    assert len(res.classes) == 8
    assert res.max_dim == 6
    with pytest.raises(CapExceededError):
        brute_force_maximal(direct_product([t3, matrix_algebra(1, F2),
                                            matrix_algebra(1, F2)]))


def test_oracle_caps():
    with pytest.raises(CapExceededError):
        brute_force_maximal(matrix_algebra(3, F2))
    with pytest.raises(NotFiniteFieldError):
        brute_force_maximal(matrix_algebra(2, QQ))


@pytest.mark.parametrize("builder,label", [
    (lambda: quiver_algebra(A2_QUIVER, F2), "A2/F2"),
    (lambda: quiver_algebra(A3_QUIVER, F2), "A3/F2"),
    (lambda: quiver_algebra(KRONECKER_QUIVER, F2), "Kronecker/F2"),
    (lambda: matrix_algebra(2, F2), "M2/F2"),
    (lambda: kxkxm2(F2), "KxKxM2/F2"),
    (lambda: incidence_algebra(CHAIN3_POSET, F2), "chain3/F2"),
    (lambda: quiver_algebra(A2_QUIVER, F3), "A2/F3"),
    (lambda: quiver_algebra(KRONECKER_QUIVER, F3), "Kronecker/F3"),
    (lambda: matrix_algebra(2, F3), "M2/F3"),
])
def test_completeness_against_oracle(builder, label):
    b = builder()
    res = brute_force_maximal(b)
    units = unit_group(b)
    wm = wedderburn_data(b)
    fams = enumerate_maximal_families(b, wm=wm)
    inst_keys = set()
    for fam in fams:
        sub = instantiate_family(b, fam, wm=wm)
        key = conjugacy_orbit_rep(b, sub.space, units)
        assert key not in inst_keys, "two families fell into one class"
        inst_keys.add(key)
    assert inst_keys == set(res.class_reps), label


def test_every_family_instance_certifies(kronecker_f2, m2f2):
    for b in (kronecker_f2, m2f2, quiver_algebra(A3_QUIVER, F2)):
        wm = wedderburn_data(b)
        for fam in enumerate_maximal_families(b, wm=wm):
            sub = instantiate_family(b, fam, wm=wm)
            assert certify_maximal(sub, b).status == "maximal"
            assert spin_up_recheck(sub, b)


def test_pointed_oracle_all_codim_one():
    for b in (quiver_algebra(A3_QUIVER, F2), quiver_algebra(KRONECKER_QUIVER, F2)):
        res = brute_force_maximal(b)
        assert all(s.dim == b.dim - 1 for s in res.maximal)


def _unit_loop(b):
    """Reference unit group: `invert_element` on every vector."""
    units = []
    for v in itertools.product(range(b.field.p), repeat=b.dim):
        inv = invert_element(b, list(v))
        if inv is not None:
            units.append((list(v), inv))
    return units


def test_unit_group_refuses_q_and_more_than_3_to_the_7_elements():
    with pytest.raises(NotFiniteFieldError):
        unit_group(matrix_algebra(2, QQ))
    # 2^12 > 3^7: M_2 x M_2 x M_2 over F_2
    with pytest.raises(CapExceededError):
        unit_group(direct_product([matrix_algebra(2, F2)] * 3))


@pytest.mark.parametrize("build,p,count", [
    pytest.param(lambda f: matrix_algebra(2, f), 5, 480, id="M2/F5"),
    pytest.param(lambda f: block_triangular(2, [1, 1], f).as_algebra(), 7,
                 6 * 6 * 7, id="T2/F7"),
])
def test_unit_group_over_f5_and_f7_matches_the_every_unit_loop(build, p,
                                                               count):
    """Beyond the oracle's primes, in the standard basis and a random one:
    the sweep's pairs are those of `invert_element` on every vector."""
    base = build(GF(p))
    for b in (base, rebased(base, random_basis(base.dim, base.field,
                                               random.Random(p)))):
        units = unit_group(b)
        assert len(units) == count
        assert units == _unit_loop(b)


@st.composite
def packed_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 9))
    vec = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    rows = draw(st.lists(vec, max_size=n))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(rows),
                           max_size=len(rows)))
    cols = draw(st.integers(0, 2 ** n - 1))
    return (p, n, draw(vec), draw(vec), rows, coeffs,
            draw(st.lists(vec, min_size=n, max_size=n)), cols)


@settings(max_examples=150, deadline=None)
@given(case=packed_cases())
@example(case=(3, 3, [1, 2, 0], [2, 2, 2], [[1, 2, 1], [0, 1, 1]], [2, 1],
               [[1, 0, 2], [2, 2, 0], [0, 1, 1]], 0b101))
def test_packed_vectors_match_list_arithmetic(case):
    """The oracle's packed vectors over F_2, F_3 (bit planes), F_5 and F_7
    (w-bit fields) against the same arithmetic on integer lists: the round
    trip, sums, multiples, supports, m·v, and the residual against an
    echelon basis, zero iff `Subspace.holds_ints`."""
    p, n, u, v, rows, coeffs, m, cols = case
    pk = _packed(p, n)

    def red(w):
        return [c % p for c in w]

    x, y = pk.pack(u), pk.pack(v)
    assert pk.unpack(x) == red(u)
    assert pk.pack(pk.unpack(x)) == x
    assert pk.unpack(pk.add(x, y)) == red(map(operator.add, u, v))
    assert [pk.unpack(z) for z in pk.multiples(x)] == [
        red(c * a for a in u) for c in range(p)]
    assert pk.unpack(x & pk.support(cols)) == [
        a if (cols >> i) & 1 else 0 for i, a in enumerate(red(u))]
    assert pk.unpack(pk.apply(pk.columns(m), y)) == [
        sum(map(operator.mul, row, v)) % p for row in m]
    space = echelonize(rows, n, GF(p))
    steps = [pk.step(q, pk.pack(r))
             for q, r in zip(space.pivots, space.int_basis[1])]
    inside = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n)]
    for w in (u, v, inside):
        res = pk.residual(pk.pack(w), steps)
        assert pk.unpack(res) == list(space._residual(w))
        assert (res == 0) == space.holds_ints(w)
    assert space.holds_ints(inside)


def _orbit_min_loop(b, s, units):
    """Reference orbit key: the minimal echelon basis of s and of its
    conjugates by every unit, through `Algebra.multiply`."""
    key = s.basis
    for u, uinv in units:
        rows = [b.multiply(b.multiply(u, list(x)), uinv) for x in s.basis]
        key = min(key, echelonize(rows, b.dim, b.field).basis)
    return key


def _oracle_loop(b):
    """Reference oracle: the former bodies of `brute_force_maximal`,
    `unit_group`, `conjugacy_orbit_rep` and `observed_max_dim`.  Every
    subspace is enumerated and kept when it contains 1 and
    `is_closed_subspace` holds; `invert_element` runs on every vector; and
    each maximal subalgebra is conjugated by every unit through
    `Algebra.multiply`."""
    f, one = b.field, list(b.unit)
    closed = [s for k in range(b.dim - 1, 0, -1)
              for s in enumerate_subspaces(b.dim, k, f)
              if s.contains_vec(one) and is_closed_subspace(b, s)]
    maximal = [s for s in closed
               if not any(t.dim > s.dim and subspace_contains(t, s)
                          for t in closed)]
    units = _unit_loop(b)
    reps = {}
    for s in maximal:
        reps.setdefault(_orbit_min_loop(b, s, units), []).append(s)
    keys = sorted(reps)
    max_dim = max((s.dim for s in maximal), default=None)
    observed = closed[0].dim if closed else None
    return (maximal, [reps[k] for k in keys], keys, max_dim, units,
            observed)


@pytest.mark.parametrize("build,seed", [
    pytest.param(lambda: block_triangular(3, [1, 1, 1], F3).as_algebra(), 1,
                 id="T3/F3"),
    pytest.param(lambda: block_triangular(3, [1, 1, 1], F2).as_algebra(), 2,
                 id="T3/F2"),
    pytest.param(lambda: direct_product([matrix_algebra(2, F3),
                                         matrix_algebra(1, F3)]), 3,
                 id="M2xF3/F3"),
    pytest.param(lambda: direct_product([matrix_algebra(2, F2),
                                         matrix_algebra(1, F2),
                                         matrix_algebra(1, F2)]), 4,
                 id="M2xF2xF2/F2"),
    pytest.param(lambda: quiver_algebra(A3_QUIVER, F3), 5, id="A3/F3"),
    # dimension 7, the oracle's cap
    pytest.param(lambda: quiver_algebra(D4_QUIVER, F2), 6, id="D4/F2"),
    # the diagonal F_4 is a left F_4-module, and so is every subalgebra
    # over it: its closed supersets all lie two dimensions up
    pytest.param(lambda: direct_product([matrix_algebra(2, F2),
                                         f4_algebra()]), 7, id="M2xF4/F2"),
])
def test_oracle_matches_the_reference_loop(build, seed):
    """On a random basis, where 1 is dense, the oracle's fields equal the
    reference loop's in order, and so do the unit group, the orbit keys
    and the observed maximal dimension."""
    base = build()
    b = rebased(base, random_basis(base.dim, base.field, random.Random(seed)))
    maximal, classes, keys, max_dim, units, observed = _oracle_loop(b)
    res = brute_force_maximal(b)
    assert [a.space for a in res.maximal] == maximal
    assert [[a.space for a in c] for c in res.classes] == classes
    assert list(res.class_reps) == keys
    assert res.max_dim == max_dim
    assert unit_group(b) == units
    assert observed_max_dim(b) == observed
    assert all(conjugacy_orbit_rep(b, s, units) == k
               for k, c in zip(keys, classes) for s in c)


def _t3(f):
    return block_triangular(3, [1, 1, 1], f).as_algebra()


def _a3(f):
    return quiver_algebra(A3_QUIVER, f)


def _m2xk(f):
    return direct_product([matrix_algebra(2, f), matrix_algebra(1, f)])


def _in_basis(base, seed):
    """base in its standard basis (seed None) or in a seeded random one."""
    if seed is None:
        return base
    return rebased(base, random_basis(base.dim, base.field,
                                      random.Random(seed)))


WALK_ALGEBRAS = {
    "T3": _t3,
    "A3": _a3,
    "Kronecker": lambda f: quiver_algebra(KRONECKER_QUIVER, f),
    "M2xK": _m2xk,
    "KxKxM2": kxkxm2,
}


@st.composite
def walk_cases(draw):
    name = draw(st.sampled_from(sorted(WALK_ALGEBRAS)))
    field = draw(st.sampled_from([F2, F3]))
    seed = draw(st.none() | st.integers(0, 2 ** 32))
    k = draw(st.integers(1, WALK_ALGEBRAS[name](F2).dim - 1))
    return name, field, seed, k


@settings(max_examples=30, deadline=None)
@given(case=walk_cases())
@example(case=("A3", F3, None, 3))
@example(case=("KxKxM2", F3, 7, 3))
@example(case=("T3", F2, None, 5))
@example(case=("Kronecker", F3, 11, 2))
def test_unital_walk_is_the_filtered_stream(case):
    """The row walk yields the unital closed subspaces in descending
    dimension, and at each dimension k exactly the full stream filtered by
    1 ∈ s and closure, in the same order."""
    name, field, seed, k = case
    b = _in_basis(WALK_ALGEBRAS[name](field), seed)
    walk = list(_unital_subalgebras(b))
    dims = [s.dim for s in walk]
    assert dims == sorted(dims, reverse=True)
    assert all(0 < d < b.dim for d in dims)
    one = list(b.unit)
    assert [s for s in walk if s.dim == k] == [
        s for s in enumerate_subspaces(b.dim, k, field)
        if s.contains_vec(one) and is_closed_subspace(b, s)]


def _gl_order(n, p):
    return math.prod(p ** n - p ** i for i in range(n))


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from([
    (label, build, field) for label, build in (
        ("T3", _t3),
        ("M2xK", _m2xk),
        ("M2xKxK", lambda f: direct_product([matrix_algebra(2, f),
                                             matrix_algebra(1, f),
                                             matrix_algebra(1, f)])),
        ("A3", _a3),
        ("KxKxM2", kxkxm2))
    for field in (F2, F3)]), seed=st.integers(0, 2 ** 32))
# standard bases, where 1 + c·b_i seeds the generators before the sweep
@example(case=("A3", _a3, F3), seed=None)
@example(case=("T3", _t3, F3), seed=None)
def test_unit_sweep_and_coset_orbits_match_the_every_unit_loop(case, seed):
    """On a random basis (or the standard one, seed None): the left-orbit
    unit sweep equals `invert_element` on every vector, pairs and order
    included; |B^×| is p^{dim J} times the orders of GL_{n_i}(F_p) of the
    blocks; and the coset orbit walk gives every family instance the
    minimum over all its conjugates."""
    _, build, field = case
    b = _in_basis(build(field), seed)
    units = unit_group(b)
    assert units == _unit_loop(b)
    rep = structure_report(b)
    assert rep.schur
    assert len(units) == field.p ** rep.radical.dim * math.prod(
        _gl_order(n, field.p) for n in rep.block_dims)
    wm = wedderburn_data(b)
    for fam in enumerate_maximal_families(b, wm=wm):
        s = instantiate_family(b, fam, wm=wm).space
        assert conjugacy_orbit_rep(b, s, units) == _orbit_min_loop(b, s, units)


@settings(max_examples=40, deadline=None)
@given(draw=fp_algebras())
# relations among paths of length 2, which the first draws of the ci
# profile do not reach: rad² = 0 on A3 over F_3, times F_3; and a1·a3 =
# a2·a3 on the doubled first arrow of A3 over F_2
@example(draw=AlgebraDraw(3, 3, ((1, 2), (2, 3)), (((1, 1, 2),),), None, 1, 1))
@example(draw=AlgebraDraw(2, 3, ((1, 2), (1, 2), (2, 3)),
                          (((1, 1, 3), (1, 2, 3)),), None, 0, 2))
def test_families_match_the_oracle_on_random_algebras(draw):
    """The classification against the brute-force oracle on random bound
    quiver algebras, loop algebras and products with M_1 or M_2 over F_2
    and F_3, in random bases: one family per conjugacy class of maximal
    subalgebras, each instance certified, the maximal dimension three
    ways, semisimple type iff the instance holds J, and |B^×|."""
    b = draw.build()
    p = b.field.p
    res = brute_force_maximal(b)
    units = unit_group(b)
    wm = wedderburn_data(b)
    rad = wm.radical
    keys = []
    for fam in enumerate_maximal_families(b, wm=wm):
        sub = instantiate_family(b, fam, wm=wm)
        keys.append(conjugacy_orbit_rep(b, sub.space, units))
        assert certify_maximal(sub, b).status == "maximal", fam
        assert spin_up_recheck(sub, b), fam
        semisimple = classify_type(sub, b).kind == "semisimple"
        assert semisimple == subspace_contains(sub.space, rad), fam
    assert len(set(keys)) == len(keys), "two families fell into one class"
    assert set(keys) == set(res.class_reps)
    assert max_proper_subalgebra_dim(b) == observed_max_dim(b) == res.max_dim
    assert len(units) == p ** rad.dim * math.prod(
        _gl_order(blk.n, p) for blk in wm.report.blocks)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0, 0], [0, 1, 0, 0]],                  # e11, e12: no 1
    [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]],    # 1, e12, e21: not closed
], ids=["lacks-1", "not-closed"])
def test_orbit_rep_rejects_a_space_that_is_no_unital_subalgebra(m2f2, rows):
    space = echelonize(rows, 4, F2)
    with pytest.raises(InvalidInputError, match="unital subalgebra"):
        conjugacy_orbit_rep(m2f2, space, unit_group(m2f2))


def test_orbit_rep_refuses_q(m2q):
    bt = subalgebra_from_rows(m2q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(NotFiniteFieldError, match="finite field"):
        conjugacy_orbit_rep(m2q, bt.space, [([1, 0, 0, 1], [1, 0, 0, 1])])


def test_maxdim_matrix_algebras():
    assert max_proper_subalgebra_dim(matrix_algebra(2, QQ)) == 3
    assert max_proper_subalgebra_dim(matrix_algebra(3, QQ)) == 7
    assert max_proper_subalgebra_dim(matrix_algebra(4, QQ)) == 13


def test_maxdim_kxk():
    assert max_proper_subalgebra_dim(kxk(QQ)) == 1


def test_maxdim_kronecker_matches_oracle(kronecker_f2):
    assert max_proper_subalgebra_dim(kronecker_f2) == 3
    assert brute_force_maximal(kronecker_f2).max_dim == 3
    assert observed_max_dim(kronecker_f2) == 3


def test_maxdim_rejects_dim_one():
    with pytest.raises(InvalidInputError):
        max_proper_subalgebra_dim(matrix_algebra(1, QQ))


def test_family_records_roundtrip(kronecker_f2):
    from maxsub.cli import _parse_family_record
    wm = wedderburn_data(kronecker_f2)
    dims = [blk.n for blk in wm.report.blocks]
    for fam in enumerate_maximal_families(kronecker_f2, wm=wm):
        rec = fam.describe(dims)
        back = _parse_family_record(rec)
        assert back == fam


def test_block_triangular_no_intermediate_subalgebra_f2():
    # direct verification at n = 2, 3: every subspace strictly between
    # B(k, n-k) and M_n(F_2) fails multiplicative closure (the oracle cap
    # excludes M_3, so the quotient pullback scan substitutes for it)
    from maxsub.algebra import block_triangular, is_closed_subspace
    from maxsub.linalg import echelonize, enumerate_subspaces, quotient_space
    for n in (2, 3):
        m = matrix_algebra(n, F2)
        for k in range(1, n):
            bt = block_triangular(n, (k, n - k), F2, ambient=m)
            q = quotient_space(m.dim, bt.space.basis, F2)
            d = q.dim
            assert d == k * (n - k)
            for dim_sub in range(1, d):
                for sub in enumerate_subspaces(d, dim_sub, F2):
                    rows = [list(r) for r in bt.space.basis]
                    rows += [q.lift(list(r)) for r in sub.basis]
                    space = echelonize(rows, m.dim, F2)
                    assert not is_closed_subspace(m, space)


def test_subfield_centralizer_degree_three():
    m3 = matrix_algebra(3, F3)
    wm = wedderburn_data(m3)
    sc = next(f for f in enumerate_maximal_families(m3, wm=wm)
              if f.kind == "subfield_centralizer")
    assert sc.degree == 3
    sub = instantiate_family(m3, sc, wm=wm)
    assert sub.dim == 3
    # the centralizer of a maximal subfield is the subfield itself
    from maxsub.algebra import centralizer
    assert centralizer(m3, sub.space).space == sub.space
    cert = certify_maximal(sub, m3)
    assert cert.status == "maximal"


def test_subfield_centralizer_in_m4():
    m4 = matrix_algebra(4, F2)
    wm = wedderburn_data(m4)
    sc = next(f for f in enumerate_maximal_families(m4, wm=wm)
              if f.kind == "subfield_centralizer")
    assert sc.degree == 2
    sub = instantiate_family(m4, sc, wm=wm)
    assert sub.dim == 8      # M_2(F_4) as an F_2-algebra
    assert certify_maximal(sub, m4).status == "maximal"


@pytest.mark.parametrize("degree", [4, 1, 0])
def test_subfield_centralizer_degree_must_be_prime(degree):
    # degree 4 used to give F_9 x F_9 from the reducible x^4 + 1 over F_3
    m4 = matrix_algebra(4, F3)
    wm = wedderburn_data(m4)
    fam = MaximalFamily("subfield_centralizer", 0, degree=degree)
    with pytest.raises(InvalidInputError, match="prime divisor"):
        instantiate_family(m4, fam, wm=wm)
    assert instantiate_family(
        m4, MaximalFamily("subfield_centralizer", 0, degree=2), wm=wm).dim == 8


def _irreducible_poly_loop(p, d, field):
    """Reference search: the former copy of square-and-multiply on x."""
    ops = Scalars(field)

    def pow_x_mod(exp, modpoly):
        result, base = [field.one()], [field.zero(), field.one()]
        while exp:
            if exp & 1:
                result = poly_quo_rem(poly_mul(result, base, field),
                                      modpoly, field)[1]
            base = poly_quo_rem(poly_mul(base, base, field), modpoly, field)[1]
            exp >>= 1
        return result

    for tail in itertools.product(range(p), repeat=d):
        poly = [field.coerce(c) for c in tail] + [field.one()]
        if any(poly_eval(poly, field.coerce(c), field) == 0 for c in range(p)):
            continue
        xq = pow_x_mod(p ** d, poly)
        diff = [ops.sub(u, v) for u, v in itertools.zip_longest(
            xq, [field.zero(), field.one()], fillvalue=field.zero())]
        if all(c == 0 for c in diff):
            return poly
    raise AssertionError("no irreducible polynomial")


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [2, 3])
def test_irreducible_poly_matches_former_search(p, d):
    field = GF(p)
    poly = irreducible(d, field)
    assert poly == _irreducible_poly_loop(p, d, field)
    assert len(poly) == d + 1 and poly[-1] == 1
    x = [0, 1]
    assert poly_sub(poly_pow_mod(x, p ** d, poly, field), x, field) == []


def _has_factor_of_degree_at_most(poly, k, field):
    """Trial division by every monic polynomial of degree 1..k."""
    return any(not poly_quo_rem(poly, list(tail) + [1], field)[1]
               for deg in range(1, k + 1)
               for tail in itertools.product(range(field.p), repeat=deg))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_irreducible_poly_has_no_factor(p, d):
    field = GF(p)
    poly = irreducible(d, field)
    assert len(poly) == d + 1 and poly[-1] == 1
    assert not _has_factor_of_degree_at_most(poly, d // 2, field)


@pytest.mark.parametrize("p, want", [(3, [1, 0, 1, 1, 1]),
                                     (5, [1, 0, 1, 1, 1]),
                                     (7, [1, 0, 0, 1, 1])])
def test_irreducible_poly_of_degree_four_skips_x4_plus_1(p, want):
    # x^4 + 1 has no root in these fields and x^(p^4) = x modulo it, but it
    # splits into quadratics: (x^2 + x + 2)(x^2 + 2x + 2) over F_3
    field = GF(p)
    assert _has_factor_of_degree_at_most([1, 0, 0, 0, 1], 2, field)
    assert irreducible(4, field) == want
    assert not _has_factor_of_degree_at_most(want, 2, field)


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_irreducible_poly_needs_degree_two_over_a_finite_field(d):
    with pytest.raises(InvalidInputError, match="degree >= 2"):
        irreducible(d, GF(3))
    with pytest.raises(NotFiniteFieldError):
        irreducible(d + 3, QQ)
