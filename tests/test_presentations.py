"""Quiver and poset presentations, canonical maximal subalgebras, surgery."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A2_QUIVER,
    A3_QUIVER,
    A4_QUIVER,
    CHAIN2_POSET,
    CHAIN3_POSET,
    D4_QUIVER,
    D5_QUIVER,
    DIAMOND_POSET,
    KRONECKER_QUIVER,
    ZIGZAG_POSET,
    Scalars,
    dense_table,
    quiver_algebra,
)
from maxsub.algebra import validate_algebra
from maxsub.errors import InvalidInputError
from maxsub.extensions import split_complement
from maxsub.formats import load_text, parse_poset
from maxsub.linalg import GF, QQ
from maxsub.maximal import certify_maximal, classify_type
from maxsub.modules import make_module
from maxsub.presentations import (
    PathAlgebraPresentation,
    Poset,
    Quiver,
    clamped_check,
    collapse_edge,
    delete_arrows,
    dimension_vector,
    incidence_algebra,
    incidence_maximal,
    interval_index,
    path_algebra,
    path_order_poset,
    quiver_maximal,
)

F2 = GF(2)
DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "data")


def test_single_vertex_is_base_field():
    alg = path_algebra(PathAlgebraPresentation(Quiver(("v",), ())), QQ)
    assert alg.dim == 1
    assert validate_algebra(alg).ok


def test_a3_basis(a3_q):
    assert a3_q.dim == 6
    assert set(a3_q.basis_names) == {"1", "2", "3", "a", "b", "b.a"}


def test_kronecker_dim(kronecker_q):
    assert kronecker_q.dim == 4
    assert validate_algebra(kronecker_q).ok


def test_cyclic_quiver_needs_bound():
    loop = Quiver(("v",), (("t", "v", "v"),))
    with pytest.raises(InvalidInputError):
        path_algebra(PathAlgebraPresentation(loop), QQ)


def test_truncated_polynomial_algebra():
    loop = Quiver(("v",), (("t", "v", "v"),))
    alg = path_algebra(
        PathAlgebraPresentation(loop, relations=(((1, ("t", "t", "t")),),),
                                bound=3), QQ)
    assert alg.dim == 3
    assert validate_algebra(alg).ok
    it = alg.basis_names.index("t")
    t = alg.basis_vector(it)
    t2 = alg.multiply(t, t)
    assert alg.multiply(t2, t) == [0, 0, 0]


def test_non_admissible_relation_rejected():
    with pytest.raises(InvalidInputError):
        path_algebra(PathAlgebraPresentation(
            A3_QUIVER, relations=(((1, ("a",)),),)), QQ)


def test_commutative_square_relation():
    sq = Quiver(("1", "2", "3", "4"),
                (("a", "1", "2"), ("b", "2", "4"),
                 ("c", "1", "3"), ("d", "3", "4")))
    alg = path_algebra(PathAlgebraPresentation(
        sq, relations=(((1, ("a", "b")), (-1, ("c", "d"))),)), QQ)
    assert alg.dim == 9
    assert validate_algebra(alg).ok


def test_incidence_antichain():
    alg = incidence_algebra(Poset(("x", "y"), ()), QQ)
    assert alg.dim == 2


def test_incidence_chain2_is_uppertriangular():
    alg = incidence_algebra(CHAIN2_POSET, QQ)
    assert alg.dim == 3
    i12 = interval_index(alg, "1", "2")
    v = alg.basis_vector(i12)
    assert alg.multiply(v, v) == [0, 0, 0]


def test_incidence_zigzag_pattern():
    alg = incidence_algebra(ZIGZAG_POSET, QQ)
    # the displayed matrix pattern: 5 diagonal and 4 off-diagonal entries
    assert alg.dim == 9
    assert validate_algebra(alg).ok


def test_incidence_cycle_rejected():
    with pytest.raises(InvalidInputError):
        Poset(("1", "2"), (("1", "2"), ("2", "1")))


def test_path_algebra_matches_incidence_on_trees():
    for quiver in (A2_QUIVER, A3_QUIVER, A4_QUIVER, D4_QUIVER, D5_QUIVER):
        palg = quiver_algebra(quiver, QQ)
        ialg = incidence_algebra(path_order_poset(quiver), QQ)
        assert palg.dim == ialg.dim


def test_quiver_merge_a2():
    a2 = quiver_algebra(A2_QUIVER, QQ)
    sub = quiver_maximal(a2, "merge", "1", "2")
    assert sub.dim == 2
    assert certify_maximal(sub, a2).status == "maximal"


def test_quiver_split_a2_zero_hyperplane():
    a2 = quiver_algebra(A2_QUIVER, QQ)
    sub = quiver_maximal(a2, "split", "1", "2", hyperplane=[])
    assert sub.dim == 2
    assert certify_maximal(sub, a2).status == "maximal"


def test_quiver_split_kronecker_diagonal_line(kronecker_q):
    sub = quiver_maximal(kronecker_q, "split", "a", "b", hyperplane=[[1, 1]])
    assert sub.dim == 3
    cert = certify_maximal(sub, kronecker_q)
    assert cert.status == "maximal"
    assert classify_type(sub, kronecker_q).kind == "split"


def test_quiver_split_requires_codim_one(kronecker_q):
    with pytest.raises(InvalidInputError):
        quiver_maximal(kronecker_q, "split", "a", "b",
                       hyperplane=[[1, 0], [0, 1]])


def test_quiver_split_needs_arrows(a3_q):
    with pytest.raises(InvalidInputError):
        quiver_maximal(a3_q, "split", "1", "3", hyperplane=[])


def test_incidence_maximal_chain2():
    alg = incidence_algebra(CHAIN2_POSET, QQ)
    it = incidence_maximal(alg, "t", "1", "2")
    assert it.dim == 2
    is_ = incidence_maximal(alg, "s", "1", "2")
    assert is_.dim == 2
    assert it.space != is_.space
    for sub in (it, is_):
        assert certify_maximal(sub, alg).status == "maximal"


def test_incidence_maximal_chain3():
    alg = incidence_algebra(CHAIN3_POSET, QQ)
    it = incidence_maximal(alg, "t", "1", "2")
    assert it.dim == 5
    assert certify_maximal(it, alg).status == "maximal"
    with pytest.raises(InvalidInputError):
        incidence_maximal(alg, "t", "1", "3")


def test_incidence_maximal_all_certify():
    alg = incidence_algebra(DIAMOND_POSET, QQ)
    poset = DIAMOND_POSET
    for a in poset.elements:
        for b in poset.elements:
            if a != b:
                sub = incidence_maximal(alg, "s", a, b)
                assert certify_maximal(sub, alg).status == "maximal"
            if poset.covers_pair(a, b):
                sub = incidence_maximal(alg, "t", a, b)
                assert certify_maximal(sub, alg).status == "maximal"


def test_collapse_a2_to_point():
    res = collapse_edge(A2_QUIVER, "a", QQ)
    assert res.ambient.dim == 4
    assert res.inclusion.dim == 3
    assert res.corner.dim == 1
    assert res.condition_star
    assert len(res.quiver.vertices) == 1
    cert = certify_maximal(res.inclusion, res.ambient)
    assert cert.status == "maximal"
    assert classify_type(res.inclusion, res.ambient).kind == "semisimple"


def test_collapse_a4_middle():
    res = collapse_edge(A4_QUIVER, "b", QQ)
    assert res.condition_star
    assert certify_maximal(res.inclusion, res.ambient).status == "maximal"
    collapsed = path_algebra(PathAlgebraPresentation(res.quiver), QQ)
    assert res.corner.dim == collapsed.dim
    assert validate_algebra(res.corner).ok


def test_collapse_star_violation():
    res = collapse_edge(D4_QUIVER, "x", QQ)
    # the centre receives two other arrows, so (*) fails
    assert res.condition_star is False
    assert res.inclusion.dim < res.ambient.dim


def test_collapse_rejects_non_tree(kronecker_q):
    with pytest.raises(InvalidInputError):
        collapse_edge(KRONECKER_QUIVER, "al1", QQ)


def test_delete_all_vertices(a3_q):
    res = delete_arrows(A3_QUIVER, ["1", "2", "3"], QQ)
    assert res.inclusion.dim == 3
    assert res.complement.dim == 3


def test_delete_leaf_of_d5():
    res = delete_arrows(D5_QUIVER, ["5"], QQ)
    assert res.complement_squares_to_zero
    assert split_complement(res.inclusion, res.ambient) is not None
    assert len(res.quiver.arrows) == 3


def test_delete_middle_vertex_square_not_zero():
    # the product of the in-arrow with the out-arrow survives
    res = delete_arrows(A3_QUIVER, ["2"], QQ)
    assert res.complement.dim == 3
    assert res.complement_squares_to_zero is False
    assert split_complement(res.inclusion, res.ambient) is not None


def test_delete_source_vertex_squares_to_zero():
    res = delete_arrows(A3_QUIVER, ["1"], QQ)
    assert res.complement_squares_to_zero is True


def test_clamped_chain_covers():
    assert clamped_check(CHAIN3_POSET, "1", "2")
    assert clamped_check(CHAIN3_POSET, "2", "3")
    assert clamped_check(CHAIN3_POSET, "1", "3")


def test_clamped_diamond_counterexamples():
    assert clamped_check(DIAMOND_POSET, "2", "4") is False
    assert clamped_check(DIAMOND_POSET, "1", "2") is False
    assert clamped_check(DIAMOND_POSET, "1", "4")


def test_clamped_requires_comparable():
    with pytest.raises(InvalidInputError):
        clamped_check(DIAMOND_POSET, "2", "3")


def test_dimension_vector_simple_at_vertex(a3_q):
    from maxsub.structure import simple_modules
    simples = simple_modules(a3_q)
    vecs = sorted(dimension_vector(m)[0] for m in simples)
    assert vecs == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert all(dimension_vector(m)[1] for m in simples)


def test_dimension_vector_zigzag_defining(zigzag_q):
    elems = list(ZIGZAG_POSET.elements)
    mats = []
    for name in zigzag_q.basis_names:
        a, b = name[1:-1].split(",")
        m = [[0] * 5 for _ in range(5)]
        m[elems.index(a)][elems.index(b)] = 1
        mats.append(m)
    defmod = make_module(zigzag_q, mats, check=True)
    vec, thin = dimension_vector(defmod)
    assert vec == (1, 1, 1, 1, 1) and thin


def test_dimension_vector_needs_presentation(m2q):
    from maxsub.modules import regular_module
    with pytest.raises(InvalidInputError):
        dimension_vector(regular_module(m2q))


def test_path_incidence_canonical_isomorphism():
    # phi maps a path p: u -> w to the interval [w, u]; verify it is a
    # unital algebra isomorphism on every tree quiver in the suite
    from maxsub.presentations import _paths_up_to, path_algebra, PathAlgebraPresentation
    for quiver in (A2_QUIVER, A3_QUIVER, A4_QUIVER, D4_QUIVER, D5_QUIVER):
        palg = path_algebra(PathAlgebraPresentation(quiver), QQ)
        poset = path_order_poset(quiver)
        ialg = incidence_algebra(poset, QQ)
        by_len = _paths_up_to(quiver, max(0, palg.dim))
        paths = [p for grp in by_len for p in grp][:palg.dim]
        mapping = []
        for p in paths:
            src = p[0]
            tgt = src
            for ai in p[1]:
                tgt = quiver.arrows[ai][2]
            mapping.append(interval_index(ialg, tgt, src))
        assert sorted(mapping) == list(range(ialg.dim))
        f = QQ
        ops = Scalars(f)

        def phi(vec):
            out = [f.zero()] * ialg.dim
            for c, tgt_idx in zip(vec, mapping):
                out[tgt_idx] = ops.add(out[tgt_idx], c)
            return out

        assert phi(list(palg.unit)) == list(ialg.unit)
        table = dense_table(palg)
        for i in range(palg.dim):
            for j in range(palg.dim):
                lhs = phi(list(table[i][j]))
                rhs = ialg.multiply(phi(palg.basis_vector(i)),
                                    phi(palg.basis_vector(j)))
                assert lhs == rhs, (quiver.vertices, i, j)


def test_collapse_inclusion_is_separable():
    from maxsub.extensions import separability_idempotent
    res = collapse_edge(A4_QUIVER, "b", QQ)
    assert res.condition_star
    assert separability_idempotent(res.inclusion, res.ambient) is not None
    res2 = collapse_edge(A2_QUIVER, "a", QQ)
    assert separability_idempotent(res2.inclusion, res2.ambient) is not None


def _closure_fixpoint(p):
    """Reference order relation: the former O(|rel|²) fixpoint."""
    rel = {(e, e) for e in p.elements}
    rel.update(p.covers)
    changed = True
    while changed:
        changed = False
        for (a, c) in list(rel):
            for (c2, d) in list(rel):
                if c == c2 and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def _repo_posets():
    posets = [CHAIN2_POSET, CHAIN3_POSET, DIAMOND_POSET, ZIGZAG_POSET]
    posets += [path_order_poset(q) for q in
               (A2_QUIVER, A3_QUIVER, A4_QUIVER, D4_QUIVER, D5_QUIVER,
                KRONECKER_QUIVER)]
    for name in ("chain3.poset", "diamond.poset", "zigzag_a5.poset"):
        posets.append(parse_poset(load_text(os.path.join(DATA, name))))
    return posets


@pytest.mark.parametrize("p", _repo_posets())
def test_leq_pairs_matches_fixpoint_on_repo_posets(p):
    assert p.leq_pairs() == _closure_fixpoint(p)
    assert p.leq_pairs() is p.leq_pairs()


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] < e[1]), max_size=12, unique=True))))
@settings(max_examples=60, deadline=None)
def test_leq_pairs_matches_fixpoint_on_random_dags(dag):
    n, edges = dag
    names = tuple(str(i) for i in range(n))
    p = Poset(names, tuple((names[i], names[j]) for i, j in edges))
    assert p.leq_pairs() == _closure_fixpoint(p)
    assert p.leq_pairs() is p.leq_pairs()
