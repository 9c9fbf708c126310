"""Split/separable analysis, induction, restriction, decomposition."""

import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A3_QUIVER,
    D4_QUIVER,
    D5_QUIVER,
    KRONECKER_QUIVER,
    ZIGZAG_POSET,
    Scalars,
    kxk,
    polynomial_quotient,
    quiver_algebra,
    random_basis,
)
from maxsub.algebra import (
    block_triangular,
    direct_product,
    full_subalgebra,
    matrix_algebra,
    subalgebra_from_rows,
    subalgebra_generated,
)
from maxsub.errors import InvalidInputError, UnsupportedFieldError
from maxsub.extensions import (
    analyze_extension,
    check_summand_property,
    complement_flags,
    decompose_module,
    endomorphism_algebra,
    hom_space,
    induce,
    is_direct_summand,
    is_local_module,
    modules_isomorphic,
    restrict,
    restrict_along,
    separability_idempotent,
    separable_type_idempotent,
    split_complement,
    tensor_square,
)
import maxsub.extensions as ext
from maxsub.linalg import (
    GF,
    QQ,
    echelonize,
    combine,
    identity_matrix,
    kernel,
    mat_mul,
    quotient_space,
    solve_linear,
    solve_one,
    unit_vec,
    vec_add,
)
from maxsub.maximal import (
    certify_maximal,
    classify_type,
    enumerate_maximal_families,
    instantiate_family,
    spin_up_recheck,
)
from maxsub.modules import make_module, regular_module
from maxsub.presentations import (
    delete_arrows,
    dimension_vector,
    interval_index,
    quiver_maximal,
)
from maxsub.structure import simple_modules, wedderburn_data

F2 = GF(2)


def test_split_complement_full(m2q):
    comp = split_complement(full_subalgebra(m2q), m2q)
    assert comp is not None and comp.dim == 0


def test_split_complement_delete_arrow():
    res = delete_arrows(A3_QUIVER, ["3"], QQ)
    comp = split_complement(res.inclusion, res.ambient)
    assert comp is not None
    assert comp.space == res.complement
    flags = complement_flags(comp.space, res.ambient)
    assert flags == {"ideal": True, "nilpotent": True, "trivial": True}


def test_split_complement_split_type_maximal(kronecker_q):
    rh = next(f for f in enumerate_maximal_families(kronecker_q)
              if f.kind == "radical_hyperplane")
    sub = instantiate_family(kronecker_q, rh, params=[1, 0])
    comp = split_complement(sub, kronecker_q)
    assert comp is not None and comp.dim == 1
    flags = complement_flags(comp.space, kronecker_q)
    assert flags["trivial"]


def test_f4_in_m2_splits_and_is_separable(m2f2):
    # F_4 is separable over F_2, so its bimodules all split: the extension
    # has a complement, but the complement is not an ideal (M_2 is simple)
    from maxsub.algebra import subalgebra_generated
    f4 = subalgebra_generated(m2f2, [[0, 1, 1, 1]])
    comp = split_complement(f4, m2f2)
    idem = separability_idempotent(f4, m2f2)
    assert idem is not None
    assert comp is not None and comp.dim == 2
    flags = complement_flags(comp.space, m2f2)
    assert flags == {"ideal": False, "nilpotent": False, "trivial": False}


def test_separability_full(m2q):
    ts = tensor_square(full_subalgebra(m2q), m2q)
    e = separability_idempotent(full_subalgebra(m2q), m2q, ts)
    assert e is not None
    # e = image of 1 (x) 1
    pure = ts.embed_pure(list(m2q.unit), list(m2q.unit))
    assert tuple(pure) == e or ext._verify_separability(ts, pure)


def test_separability_vertex_sum_tree():
    for quiver in (A3_QUIVER, D4_QUIVER):
        alg = quiver_algebra(quiver, QQ)
        merge = quiver_maximal(alg, "merge", quiver.vertices[0],
                               quiver.vertices[1])
        ts = tensor_square(merge, alg)
        f = alg.field
        ops = Scalars(f)
        e = tuple([f.zero()] * ts.dim)
        for v in alg.presentation.vertex_vectors:
            e = tuple(ops.add(x, y)
                      for x, y in zip(e, ts.embed_pure(list(v), list(v))))
        assert ext._verify_separability(ts, e)
        assert separability_idempotent(merge, alg, ts) is not None


def test_separable_type_idempotent_pointed(a3_q):
    merges = [f for f in enumerate_maximal_families(a3_q)
              if f.kind == "diagonal_merge"]
    wm = wedderburn_data(a3_q)
    for fam in merges:
        sub = instantiate_family(a3_q, fam, wm=wm)
        e = separable_type_idempotent(sub, a3_q, wm)
        assert e is not None


def test_separable_type_idempotent_m2(m2q):
    wm = wedderburn_data(m2q)
    e = separable_type_idempotent(full_subalgebra(m2q), m2q, wm)
    ts = tensor_square(full_subalgebra(m2q), m2q)
    assert ext._verify_separability(ts, e)


def test_separable_type_idempotent_char_divides(m2f2):
    wm = wedderburn_data(m2f2)
    with pytest.raises(UnsupportedFieldError):
        separable_type_idempotent(full_subalgebra(m2f2), m2f2, wm)


def test_split_type_not_separable(kronecker_q):
    # a split-type maximal subalgebra of the Kronecker algebra is not
    # a separable extension (the radicals differ)
    rh = next(f for f in enumerate_maximal_families(kronecker_q)
              if f.kind == "radical_hyperplane")
    sub = instantiate_family(kronecker_q, rh, params=[1, 0])
    analysis = analyze_extension(sub, kronecker_q)
    assert analysis.split and analysis.trivial
    assert not analysis.separable


def test_induce_along_full(m2q):
    m = regular_module(m2q)
    sub = full_subalgebra(m2q)
    sub_mod = make_module(sub.as_algebra(), list(m.action))
    ind = induce(sub_mod, sub)
    assert ind.dim == m.dim
    assert modules_isomorphic(ind, m)


def test_induce_diagonal_kxk():
    b = kxk(QQ)
    diag = subalgebra_from_rows(b, [[1, 1]])
    triv = make_module(diag.as_algebra(), [[[1]]])
    ind = induce(triv, diag)
    assert ind.dim == 2
    assert [p.dim for p in decompose_module(ind)] == [1, 1]


def test_induce_kronecker_merge(kronecker_q):
    merge = quiver_maximal(kronecker_q, "merge", "a", "b")
    simple = simple_modules(merge.as_algebra())[0]
    ind = induce(simple, merge)
    assert ind.dim == 2
    assert [p.dim for p in decompose_module(ind)] == [1, 1]


def test_restrict_to_full(m2q):
    m = regular_module(m2q)
    res = restrict(m, full_subalgebra(m2q))
    assert res.dim == m.dim
    assert res.action == m.action


def test_restrict_zigzag_to_d4(zigzag_q):
    elems = list(ZIGZAG_POSET.elements)
    mats = []
    for name in zigzag_q.basis_names:
        a, b = name[1:-1].split(",")
        m = [[0] * 5 for _ in range(5)]
        m[elems.index(a)][elems.index(b)] = 1
        mats.append(m)
    defmod = make_module(zigzag_q, mats, check=True)
    d4 = quiver_algebra(D4_QUIVER, QQ)

    def bv(a, b):
        return list(zigzag_q.basis_vector(interval_index(zigzag_q, a, b)))

    images = {
        "1": bv("1", "1"),
        "c": vec_add(bv("2", "2"), bv("4", "4"), QQ),
        "3": bv("3", "3"),
        "5": bv("5", "5"),
        "x": bv("2", "1"),
        "y": vec_add(bv("2", "3"), bv("4", "3"), QQ),
        "z": bv("4", "5"),
    }
    restr = restrict_along(defmod, d4, [images[nm] for nm in d4.basis_names])
    vec, thin = dimension_vector(restr)
    assert vec == (1, 2, 1, 1) and not thin
    parts = decompose_module(restr)
    assert len(parts) == 1 and parts[0].dim == 5
    assert is_local_module(restr)


def test_restrict_preserves_simple_count_split_type(kronecker_q):
    rh = next(f for f in enumerate_maximal_families(kronecker_q)
              if f.kind == "radical_hyperplane")
    sub = instantiate_family(kronecker_q, rh, params=[1, 2])
    assert len(simple_modules(sub.as_algebra())) == \
        len(simple_modules(kronecker_q))


def test_decompose_simple_is_itself(m2q):
    s = simple_modules(m2q)[0]
    parts = decompose_module(s)
    assert len(parts) == 1 and parts[0].dim == 2


def test_the_zero_module_is_not_local(m2q):
    """End(0) = 0 has no one-dimensional semisimple quotient, and the zero
    module has no indecomposable summand."""
    zero = make_module(m2q, [[] for _ in range(m2q.dim)])
    assert not is_local_module(zero)
    assert decompose_module(zero) == []


def test_decompose_regular_kxk():
    parts = decompose_module(regular_module(kxk(QQ)))
    assert [p.dim for p in parts] == [1, 1]


def test_decompose_regular_a3(a3_q):
    parts = decompose_module(regular_module(a3_q))
    assert sorted(p.dim for p in parts) == [1, 2, 3]
    for p in parts:
        assert is_local_module(p)


def test_decompose_reassembles(a3_q):
    m = regular_module(a3_q)
    parts = decompose_module(m)
    assert sum(p.dim for p in parts) == m.dim
    # the direct sum of the parts is isomorphic to the original
    assert modules_isomorphic(_direct_sum(*parts), m)


def test_decompose_over_f2(kronecker_f2):
    parts = decompose_module(regular_module(kronecker_f2))
    assert sorted(p.dim for p in parts) == [1, 3]


def test_decompose_non_split_quotient_over_f3(monkeypatch):
    # F_3[x]/((x²+1)(x²+x+2)) is F_9×F_9: End of its regular module is not
    # split over F_3, so its idempotents come from the exhaustive sweep,
    # once for the whole module and once for each F_9 summand
    sweep, calls = ext._primitive_system_finite, []
    monkeypatch.setattr(ext, "_primitive_system_finite",
                        lambda s: calls.append(s.dim) or sweep(s))
    b = polynomial_quotient([2, 1, 0, 1, 1], GF(3))
    parts = decompose_module(regular_module(b))
    assert calls == [4, 2, 2]
    assert [p.dim for p in parts] == [2, 2]
    assert all(is_local_module(p) for p in parts)


def test_endomorphism_algebra_dims(m2q):
    e_alg, mats = endomorphism_algebra(regular_module(m2q))
    # End of the regular module is the opposite algebra
    assert e_alg.dim == 4
    for x in mats:
        for y in mats:
            prod = mat_mul(x, y, QQ)
            # closure: the product lies in the span of the basis matrices
            flat = [prod[i][j] for i in range(2 * 2) for j in range(2 * 2)]


def test_hom_space_between_simples(a3_q):
    s1, s2, s3 = simple_modules(a3_q)
    assert hom_space(s1, s1)
    assert not hom_space(s1, s2)
    assert modules_isomorphic(s1, s1)
    assert not modules_isomorphic(s1, s2)


def _direct_sum(*mods):
    a = mods[0].algebra
    f, d = a.field, sum(m.dim for m in mods)
    mats = []
    for k in range(a.dim):
        big = [[f.zero()] * d for _ in range(d)]
        off = 0
        for m in mods:
            for i, row in enumerate(m.action[k]):
                big[off + i][off:off + m.dim] = row
            off += m.dim
        mats.append(big)
    return make_module(a, mats)


def _rebased_module(m, g):
    """m in the basis of the columns of the invertible g: g⁻¹·A_k·g."""
    f = m.algebra.field
    ginv, _ = solve_linear(g, identity_matrix(m.dim, f), f)
    return make_module(m.algebra, [mat_mul(mat_mul(ginv, act, f), g, f)
                                   for act in m.action])


def _isomorphic_by_brute_force(m1, m2):
    """Some invertible X over F_p with X·a(m1) = a(m2)·X, among all d×d
    matrices."""
    f, d = m1.algebra.field, m1.dim
    for flat in itertools.product(range(f.p), repeat=d * d):
        x = [list(flat[i * d:(i + 1) * d]) for i in range(d)]
        if (all(mat_mul(x, a1, f) == mat_mul(a2, x, f)
                for a1, a2 in zip(m1.action, m2.action))
                and echelonize(x, d, f).dim == d):
            return True
    return False


@pytest.mark.parametrize("field", [F2, GF(3)], ids=str)
def test_modules_isomorphic_sweeps_the_whole_hom_space(field):
    """Over T_2(F_p), with P the 2-dim indecomposable projective and S, S'
    the simples: P and P ⊕ S against copies in random bases are
    isomorphic, and P against S ⊕ S' (Hom ≠ 0: P maps onto its top) is
    not, found by the exhaustive sweep of the Hom space.  Each answer is
    checked against all invertible matrices (dimension 3 over F_2 only,
    where there are 2⁹ matrices)."""
    t2 = block_triangular(2, (1, 1), field).as_algebra()
    _, proj = decompose_module(regular_module(t2))
    s, s2 = simple_modules(t2)
    rng = random.Random(17)
    cases = [(proj, _rebased_module(proj, random_basis(2, field, rng)), True),
             (proj, _direct_sum(s, s2), False)]
    if field.p == 2:
        pair = _direct_sum(proj, s)
        cases += [(pair, _rebased_module(pair, random_basis(3, field, rng)),
                   True),
                  (pair, _direct_sum(s, s2, s), False)]
    for m1, m2, want in cases:
        homs = hom_space(m1, m2)
        assert homs and field.p ** len(homs) <= ext.HOM_SWEEP_CAP
        assert modules_isomorphic(m1, m2) is want
        assert _isomorphic_by_brute_force(m1, m2) is want


def _isomorphic_by_sweep(m1, m2):
    """Reference: the Hom-space sweep of `modules_isomorphic` with no cap,
    exact over F_p: some nonzero combination of the Hom basis is
    invertible."""
    f, d = m1.algebra.field, m1.dim
    if m2.dim != d:
        return False
    homs = hom_space(m1, m2)
    for coeffs in itertools.product(range(f.p), repeat=len(homs)):
        if any(coeffs):
            mat = [combine(coeffs, [h[i] for h in homs], f) for i in range(d)]
            if echelonize(mat, d, f).dim == d:
                return True
    return False


def test_modules_isomorphic_decides_by_krull_schmidt_after_the_draws(
        monkeypatch):
    """R ⊕ R, R the regular module of K⁴ over F_2, against a copy in a
    random basis: Hom is 16-dimensional, above the sweep cap, and none of
    the seeded draws is invertible (an invertible map needs all four 2×2
    blocks invertible, about 2 % of the draws).  The summands match one
    for one, so the modules are isomorphic; against R ⊕ S⁴, S a simple
    summand of R, they do not."""
    k4 = direct_product([matrix_algebra(1, F2)] * 4)
    r = regular_module(k4)
    m = _direct_sum(r, r)
    copy = _rebased_module(m, random_basis(8, F2, random.Random(8)))
    assert 2 ** len(hom_space(m, copy)) > ext.HOM_SWEEP_CAP
    matched = []
    same = ext._indecomposables_isomorphic
    monkeypatch.setattr(ext, "_indecomposables_isomorphic",
                        lambda x, y: matched.append(1) or same(x, y))
    assert modules_isomorphic(m, copy)
    assert matched                  # the draws missed: the summands decided
    s = decompose_module(r)[0]
    assert not modules_isomorphic(m, _direct_sum(r, s, s, s, s))


def test_modules_isomorphic_refuses_what_it_cannot_decompose():
    """Over Q(i) × Q = Q[x]/((x²+1)(x−1)), V ⊕ Q ⊕ Q and V ⊕ V (V = Q(i),
    x acting as i) have a nonzero Hom space with no invertible map.  End
    of V ⊕ V is M_2(Q(i)), whose center does not split over Q, so no
    summand matching decides: the answer is UnsupportedFieldError, not a
    one-sided False."""
    b = polynomial_quotient([-1, 1, -1, 1], QQ)

    def module(x):
        x2 = mat_mul(x, x, QQ)
        return make_module(b, [identity_matrix(len(x), QQ), x, x2])

    rot, one = [[0, -1], [1, 0]], [[1]]
    v, q = module(rot), module(one)
    m1, m2 = _direct_sum(v, q, q), _direct_sum(v, v)
    assert hom_space(m1, m2)
    with pytest.raises(UnsupportedFieldError):
        modules_isomorphic(m1, m2)


_POOL_ALGEBRAS = {
    "T2": lambda f: block_triangular(2, (1, 1), f).as_algebra(),
    "KxK": kxk,
    "A3": lambda f: quiver_algebra(A3_QUIVER, f),
}


@functools.lru_cache(maxsize=None)
def _indecomposable_pool(name, p):
    """The summands of the regular module of a small algebra over F_p and
    its simple modules, one per isomorphism class (by the exact sweep)."""
    alg = _POOL_ALGEBRAS[name](GF(p))
    pool = []
    for m in decompose_module(regular_module(alg)) + simple_modules(alg):
        if not any(_isomorphic_by_sweep(m, x) for x in pool):
            pool.append(m)
    return alg, pool


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3]), name=st.sampled_from(sorted(_POOL_ALGEBRAS)),
       data=st.data())
def test_modules_isomorphic_matches_krull_schmidt_on_direct_sums(p, name,
                                                                 data):
    """Direct sums of T_2, K×K and A_3 indecomposables, each in a random
    basis over F_2 or F_3, are isomorphic iff their summands agree up to
    order (Krull–Schmidt).  modules_isomorphic says so under the sweep cap
    and with the cap at 0, where the seeded draws and the summand matching
    decide; the uncapped sweep of the Hom space and, up to dimension 3
    over F_2, the search over every matrix agree.  Rebased single
    summands match by `_indecomposables_isomorphic` iff they are one."""
    alg, pool = _indecomposable_pool(name, p)
    f = alg.field
    ids = st.lists(st.integers(0, len(pool) - 1), min_size=1,
                   max_size=3 if p == 2 else 2)
    first = data.draw(ids)
    # a reordering with one summand swapped for one of its dimension, so
    # that most pairs have a nonzero Hom space and equal dimensions
    second = data.draw(st.permutations(first))
    k = data.draw(st.integers(0, len(second) - 1))
    second[k] = data.draw(st.sampled_from(
        [i for i, x in enumerate(pool) if x.dim == pool[second[k]].dim]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))

    def rebased_sum(picks):
        m = _direct_sum(*(pool[i] for i in picks))
        return _rebased_module(m, random_basis(m.dim, f, rng))

    m1, m2 = rebased_sum(first), rebased_sum(second)
    want = sorted(first) == sorted(second)
    assert modules_isomorphic(m1, m2) is want
    with mock.patch.object(ext, "HOM_SWEEP_CAP", 0):
        assert modules_isomorphic(m1, m2) is want
    if m1.dim != m2.dim or p ** len(hom_space(m1, m2)) <= ext.HOM_SWEEP_CAP:
        assert _isomorphic_by_sweep(m1, m2) is want
    if p == 2 and m1.dim == m2.dim <= 3:
        assert _isomorphic_by_brute_force(m1, m2) is want
    i, j = data.draw(st.integers(0, len(pool) - 1)), first[0]
    assert ext._indecomposables_isomorphic(rebased_sum([i]), pool[j]) is (i == j)


def test_is_direct_summand(a3_q):
    parts = decompose_module(regular_module(a3_q))
    reg = regular_module(a3_q)
    for p in parts:
        assert is_direct_summand(p, reg)
    s = simple_modules(a3_q)
    # the simple at the source vertex is not a summand of the regular module
    dims = {tuple(dimension_vector(p)[0]) for p in parts}
    for simple in s:
        vec = tuple(dimension_vector(simple)[0])
        assert is_direct_summand(simple, reg) == (vec in dims)


def test_summand_property_split_down():
    res = delete_arrows(A3_QUIVER, ["3"], QQ)
    rep = check_summand_property(res.inclusion, res.ambient, "split_down")
    assert rep.complete
    assert len(rep.witnesses) == len(rep.source_dims)


def test_summand_property_separable_up(kronecker_q):
    merge = quiver_maximal(kronecker_q, "merge", "a", "b")
    rep = check_summand_property(merge, kronecker_q, "separable_up")
    assert rep.complete


def test_summand_property_full_trivial(m2q):
    full = full_subalgebra(m2q)
    rep = check_summand_property(full, m2q, "split_down")
    assert rep.complete
    rep2 = check_summand_property(full, m2q, "separable_up")
    assert rep2.complete
    with pytest.raises(InvalidInputError, match="unknown direction 'up'"):
        check_summand_property(full, m2q, "up")


def test_restrict_induce_unit_splits_for_split_extension():
    # when B splits over A, M is a summand of Res(Ind(M))
    res = delete_arrows(D5_QUIVER, ["5"], QQ)
    a = res.inclusion
    aalg = a.as_algebra()
    for m in decompose_module(regular_module(aalg)):
        ri = restrict(induce(m, a), a)
        assert is_direct_summand(m, ri)


def test_semisimple_type_instances_are_separable_extensions():
    # the generic solver also finds an idempotent for every semisimple-type
    # instance on pointed algebras, not just the standard element
    from conftest import CHAIN3_POSET, DIAMOND_POSET
    from maxsub.presentations import incidence_algebra
    for b in (incidence_algebra(CHAIN3_POSET, QQ),
              incidence_algebra(DIAMOND_POSET, QQ)):
        fams = [f for f in enumerate_maximal_families(b)
                if f.kind == "diagonal_merge"]
        sub = instantiate_family(b, fams[0])
        assert separability_idempotent(sub, b) is not None


def test_split_type_reduction_is_trivial_extension(a3_q, kronecker_q):
    # the direct extension splits only when the removed component avoids
    # multiplying into the radical square: true for the Kronecker algebra
    # (radical square zero), false for A_3 where b*a survives inside A
    from maxsub.extensions import split_type_reduction
    rh_a3 = [f for f in enumerate_maximal_families(a3_q)
             if f.kind == "radical_hyperplane"]
    for fam in rh_a3:
        sub = instantiate_family(a3_q, fam, params=[1])
        assert split_complement(sub, a3_q) is None
        red = split_type_reduction(sub, a3_q)
        comp = split_complement(red.reduced, red.quotient)
        assert comp is not None
        assert complement_flags(comp.space, red.quotient)["trivial"]
    rh_kr = next(f for f in enumerate_maximal_families(kronecker_q)
                 if f.kind == "radical_hyperplane")
    sub = instantiate_family(kronecker_q, rh_kr, params=[1, 0])
    assert split_complement(sub, kronecker_q) is not None
    red = split_type_reduction(sub, kronecker_q)
    comp = split_complement(red.reduced, red.quotient)
    assert comp is not None and complement_flags(comp.space, red.quotient)["trivial"]


@pytest.mark.parametrize("entry", [
    certify_maximal,
    spin_up_recheck,
    classify_type,
    tensor_square,
    separability_idempotent,
    lambda a, b: separable_type_idempotent(a, b, wedderburn_data(b)),
    ext.split_type_reduction,
    lambda a, b: check_summand_property(a, b, "split_down"),
    split_complement,
], ids=["certify_maximal", "spin_up_recheck", "classify_type", "tensor_square",
        "separability_idempotent", "separable_type_idempotent",
        "split_type_reduction", "check_summand_property", "split_complement"])
def test_a_subalgebra_of_another_algebra_is_refused(entry):
    # T2 lives in its own M2(F_2); its space is not even closed in F_2^4
    a = block_triangular(2, [1, 1], F2)
    b = direct_product([matrix_algebra(1, F2)] * 4)
    with pytest.raises(InvalidInputError, match="does not live in"):
        entry(a, b)


# ---------------------------------------------------------------------------
# the vector formulations against the former hand-indexed loops

F3 = GF(3)
BASES = {field: [matrix_algebra(2, field),
                 block_triangular(3, [1, 1, 1], field).as_algebra(),
                 quiver_algebra(A3_QUIVER, field),
                 quiver_algebra(KRONECKER_QUIVER, field)]
         for field in (QQ, F3)}


def _entry(field):
    return st.integers(-2, 2) if field.p is None else st.integers(0, field.p - 1)


def _vector(field, n):
    return st.lists(_entry(field), min_size=n, max_size=n).map(
        lambda v: [field.coerce(x) for x in v])


def _random_extension(data, field):
    """A subalgebra generated by up to two random elements of a base algebra."""
    b = data.draw(st.sampled_from(BASES[field]))
    seeds = data.draw(st.lists(_vector(field, b.dim), max_size=2))
    return subalgebra_generated(b, seeds), b


def _tensor_relations_loop(a, b):
    """Reference relations of B (x)_A B: the former per-index loop."""
    ops = Scalars(b.field)
    f, n = b.field, b.dim
    relations = []
    for arow in a.space.basis:
        arow = list(arow)
        for i in range(n):
            xa = b.multiply(b.basis_vector(i), arow)
            for j in range(n):
                ay = b.multiply(arow, b.basis_vector(j))
                rel = [f.zero()] * (n * n)
                for s, c in enumerate(xa):
                    if c != 0:
                        rel[s * n + j] = ops.add(rel[s * n + j], c)
                for t, c in enumerate(ay):
                    if c != 0:
                        rel[i * n + t] = ops.sub(rel[i * n + t], c)
                if any(x != 0 for x in rel):
                    relations.append(rel)
    return relations


def _induce_loop(m, a):
    """Reference B (x)_A M with its B-action: the former per-index loops."""
    b = a.parent
    f = b.field
    nb, nm = b.dim, m.dim
    ops = Scalars(f)
    relations = []
    for k in range(a.dim):
        arow = list(a.space.basis[k])
        for i in range(nb):
            xa = b.multiply(b.basis_vector(i), arow)
            av = m.action[k]
            for v in range(nm):
                rel = [f.zero()] * (nb * nm)
                for s, c in enumerate(xa):
                    if c != 0:
                        rel[s * nm + v] = ops.add(rel[s * nm + v], c)
                for t in range(nm):
                    c = av[t][v]
                    if c != 0:
                        rel[i * nm + t] = ops.sub(rel[i * nm + t], c)
                if any(x != 0 for x in rel):
                    relations.append(rel)
    q = quotient_space(nb * nm, relations, f)
    mats = []
    for k in range(nb):
        cols = []
        for t in range(q.dim):
            full = q.lift([f.one() if u == t else f.zero() for u in range(q.dim)])
            out = [f.zero()] * (nb * nm)
            for i in range(nb):
                bx = b.multiply(b.basis_vector(k), b.basis_vector(i))
                for v in range(nm):
                    c = full[i * nm + v]
                    if c == 0:
                        continue
                    for s, c2 in enumerate(bx):
                        if c2 != 0:
                            out[s * nm + v] = ops.add(out[s * nm + v],
                                                    ops.mul(c, c2))
            cols.append(q.project(out))
        mats.append([list(r) for r in zip(*cols)] if cols else [])
    return q, mats


def _flank_loop(ts, x, e, y):
    """Reference x . e . y: the former four-deep loop."""
    b = ts.b
    f, n = b.field, b.dim
    ops = Scalars(f)
    full = ts.quotient.lift(e)
    out = [f.zero()] * (n * n)
    for i in range(n):
        for j in range(n):
            c = full[i * n + j]
            if c == 0:
                continue
            left = b.multiply(list(x), b.basis_vector(i))
            right = b.multiply(b.basis_vector(j), list(y))
            for s in range(n):
                if left[s] == 0:
                    continue
                cs = ops.mul(c, left[s])
                for t in range(n):
                    if right[t] != 0:
                        out[s * n + t] = ops.add(out[s * n + t],
                                               ops.mul(cs, right[t]))
    return ts.quotient.project(out)


def _hom_loop(m1, m2):
    """Reference Hom(m1, m2): the former per-index row loop."""
    f = m1.algebra.field
    ops = Scalars(f)
    d1, d2 = m1.dim, m2.dim
    rows = []
    for a1, a2 in zip(m1.action, m2.action):
        for i in range(d2):
            for j in range(d1):
                row = [f.zero()] * (d2 * d1)
                for s in range(d1):
                    row[i * d1 + s] = ops.add(row[i * d1 + s], a1[s][j])
                for r in range(d2):
                    row[r * d1 + j] = ops.sub(row[r * d1 + j], a2[i][r])
                rows.append(row)
    ker = kernel(rows, d2 * d1, f)
    return [[[row[i * d1 + j] for j in range(d1)] for i in range(d2)]
            for row in ker.basis]


def _bimodule_system_loop(a, q, lifts):
    """Reference split-complement system: the former per-unknown loop."""
    b = a.parent
    f = b.field
    aalg = a.as_algebra()
    ops = Scalars(f)
    da, dq = a.dim, q.dim
    rows, rhs = [], []
    for k in range(da):
        arow = list(a.space.basis[k])
        lm = aalg.left_mult_matrix(aalg.basis_vector(k))
        rm = aalg.right_mult_matrix(aalg.basis_vector(k))
        for t in range(dq):
            for side, mat in (("l", lm), ("r", rm)):
                prod = (b.multiply(arow, lifts[t]) if side == "l"
                        else b.multiply(lifts[t], arow))
                gamma = list(q.project(prod))
                rest = list(prod)
                for g, c in zip(gamma, lifts):
                    if g != 0:
                        rest = [ops.sub(x, ops.mul(g, y)) for x, y in zip(rest, c)]
                acoords = a.space.coords(rest)
                for i in range(da):
                    row = [f.zero()] * (da * dq)
                    for u in range(da):
                        row[t * da + u] = ops.add(row[t * da + u], mat[i][u])
                    for s in range(dq):
                        if gamma[s] != 0:
                            row[s * da + i] = ops.sub(row[s * da + i], gamma[s])
                    rows.append(row)
                    rhs.append(acoords[i])
    return rows, rhs


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_balanced_quotient_matches_tensor_loop(field, data):
    a, b = _random_extension(data, field)
    ts = tensor_square(a, b)
    assert ts.quotient == quotient_space(
        b.dim * b.dim, _tensor_relations_loop(a, b), field)
    e = data.draw(_vector(field, ts.dim))
    x, y = data.draw(_vector(field, b.dim)), data.draw(_vector(field, b.dim))
    assert ts.flank(x, e, y) == _flank_loop(ts, x, e, y)


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_induce_matches_loop(field, data):
    a, b = _random_extension(data, field)
    m = regular_module(a.as_algebra())
    q, mats = _induce_loop(m, a)
    assert ext._balanced_quotient(b, a, m.action, m.dim) == q
    assert induce(m, a).action == make_module(b, mats).action


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_hom_space_matches_loop(field, data):
    a, b = _random_extension(data, field)
    m1 = regular_module(a.as_algebra())
    m2 = restrict(regular_module(b), a)
    assert hom_space(m1, m2) == _hom_loop(m1, m2)
    assert hom_space(m2, m1) == _hom_loop(m2, m1)


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_bimodule_system_matches_loop(field, data):
    a, b = _random_extension(data, field)
    q = quotient_space(b.dim, a.space.basis, field)
    lifts = [q.lift(unit_vec(q.dim, t, field)) for t in range(q.dim)]
    rows, rhs = ext._bimodule_system(a, q, lifts)
    old_rows, old_rhs = _bimodule_system_loop(a, q, lifts)
    n = a.dim * q.dim
    assert echelonize([r + [c] for r, c in zip(rows, rhs)], n + 1, field) == \
        echelonize([r + [c] for r, c in zip(old_rows, old_rhs)], n + 1, field)
    assert solve_one(rows, rhs, field) == solve_one(old_rows, old_rhs, field)
