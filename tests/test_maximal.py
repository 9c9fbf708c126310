"""Maximal families, certification, classification, brute-force oracle."""

import itertools

import pytest

from conftest import (
    A2_QUIVER,
    A3_QUIVER,
    CHAIN3_POSET,
    KRONECKER_QUIVER,
    Scalars,
    f4_algebra,
    kxk,
    kxkxm2,
    quiver_algebra,
)
from maxsub.algebra import (
    is_closed_subspace,
    matrix_algebra,
    subalgebra_from_rows,
)
from maxsub.errors import CapExceededError, InvalidInputError, NotSplitError
from maxsub.linalg import GF, QQ
from maxsub.maximal import (
    MaximalFamily,
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
from maxsub.presentations import incidence_algebra
from maxsub.structure import wedderburn_data

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


def test_oracle_caps():
    with pytest.raises(CapExceededError):
        brute_force_maximal(matrix_algebra(3, F2))
    from maxsub.errors import NotFiniteFieldError
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
    from maxsub.structure import _poly_divmod, _poly_eval, _poly_mul

    def pow_x_mod(exp, modpoly):
        result, base = [field.one()], [field.zero(), field.one()]
        while exp:
            if exp & 1:
                result = _poly_divmod(_poly_mul(result, base, field),
                                      modpoly, field)[1]
            base = _poly_divmod(_poly_mul(base, base, field), modpoly, field)[1]
            exp >>= 1
        return result

    for tail in itertools.product(range(p), repeat=d):
        poly = [field.coerce(c) for c in tail] + [field.one()]
        if any(_poly_eval(poly, field.coerce(c), field) == 0 for c in range(p)):
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
    from maxsub.maximal import _irreducible_poly
    from maxsub.structure import _poly_powmod, _poly_sub
    field = GF(p)
    poly = _irreducible_poly(p, d, field)
    assert poly == _irreducible_poly_loop(p, d, field)
    assert len(poly) == d + 1 and poly[-1] == 1
    x = [0, 1]
    assert _poly_sub(_poly_powmod(x, p ** d, poly, field), x, field) == []
