"""Acceptance criteria, one test per criterion, exact tolerances.

Every test prints a single PASS/FAIL line; time budgets from the
criteria are asserted alongside the mathematical content.
"""

import time
from contextlib import contextmanager

from conftest import (
    A2_QUIVER,
    A3_QUIVER,
    CHAIN3_POSET,
    D4_QUIVER,
    D5_QUIVER,
    DIAMOND_POSET,
    KRONECKER_QUIVER,
    ZIGZAG_POSET,
    Scalars,
    kxk,
    kxkxm2,
    quiver_algebra,
    strip_presentation,
)
import maxsub.extensions as ext
from maxsub.algebra import (
    block_triangular,
    centralizer,
    matrix_algebra,
    subalgebra_generated,
)
from maxsub.errors import CapExceededError
from maxsub.extensions import (
    complement_flags,
    decompose_module,
    restrict_along,
    separability_idempotent,
    separable_type_idempotent,
    split_complement,
    tensor_square,
)
from maxsub.linalg import (
    GF,
    QQ,
    echelonize,
    enumerate_subspaces,
    gaussian_binomial,
    subspace_intersection,
    subspace_sum,
    vec_add,
)
from maxsub.maximal import (
    brute_force_maximal,
    certify_maximal,
    classify_type,
    conjugacy_orbit_rep,
    enumerate_maximal_families,
    instantiate_family,
    max_proper_subalgebra_dim,
    observed_max_dim,
    spin_up_recheck,
    unit_group,
)
from maxsub.modules import make_module
from maxsub.presentations import (
    delete_arrows,
    dimension_vector,
    incidence_algebra,
    interval_index,
    quiver_maximal,
)
from maxsub.structure import (
    is_nilpotent_space,
    jacobson_radical,
    nilpotency_degree,
    structure_report,
    trace_form_radical,
    wedderburn_data,
)

F2 = GF(2)
F3 = GF(3)


@contextmanager
def criterion(num: int, desc: str):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL  {desc}")
        raise
    print(f"\nACCEPTANCE {num}: PASS  {desc} "
          f"({time.monotonic() - t0:.1f}s)")


def _suite_builders():
    """The >= 10 suite algebras of criterion 2, per base field."""
    return [
        ("A2 path", lambda f: quiver_algebra(A2_QUIVER, f)),
        ("A3 path", lambda f: quiver_algebra(A3_QUIVER, f)),
        ("Kronecker path", lambda f: quiver_algebra(KRONECKER_QUIVER, f)),
        ("D4 path", lambda f: quiver_algebra(D4_QUIVER, f)),
        ("chain3 incidence", lambda f: incidence_algebra(CHAIN3_POSET, f)),
        ("diamond incidence", lambda f: incidence_algebra(DIAMOND_POSET, f)),
        ("K x K x M2", kxkxm2),
        ("uppertriangular 3", lambda f: block_triangular(3, (1, 1, 1), f)
         .as_algebra()),
        ("K x K", kxk),
        ("M2", lambda f: matrix_algebra(2, f)),
        ("M3", lambda f: matrix_algebra(3, f)),
    ]


def test_criterion_1_matrix_dimension_bound():
    with criterion(1, "maxdim on M_n(Q) equals n^2 - n + 1 for n = 2, 3, 4"):
        for n, want in ((2, 3), (3, 7), (4, 13)):
            t0 = time.monotonic()
            got = max_proper_subalgebra_dim(matrix_algebra(n, QQ))
            assert got == want == n * n - n + 1
            assert time.monotonic() - t0 < 1.0


def test_criterion_2_general_dimension_formula():
    with criterion(2, "maxdim formula on the suite, cross-checked vs oracle"):
        t0 = time.monotonic()
        builders = _suite_builders()
        assert len(builders) >= 10
        for label, build in builders:
            b = build(QQ)
            rep = structure_report(b)
            n1 = rep.block_dims[0]
            formula = b.dim - 1 - max(n1 - 2, 0)
            assert max_proper_subalgebra_dim(b) == formula, label
            for field in (F2, F3):
                bf = build(field)
                want = max_proper_subalgebra_dim(bf)
                try:
                    got = observed_max_dim(bf)
                except CapExceededError:
                    continue
                assert got == want, f"{label} over {field}"
        assert time.monotonic() - t0 < 120.0


def test_criterion_3_classification_completeness():
    with criterion(3, "families == oracle conjugacy classes on the F_2 suite"):
        t0 = time.monotonic()
        suite = [
            ("A2", quiver_algebra(A2_QUIVER, F2)),
            ("A3", quiver_algebra(A3_QUIVER, F2)),
            ("Kronecker", quiver_algebra(KRONECKER_QUIVER, F2)),
            ("chain3", incidence_algebra(CHAIN3_POSET, F2)),
            ("uppertri3", block_triangular(3, (1, 1, 1), F2).as_algebra()),
            ("K x K", kxk(F2)),
            ("K x K x M2", kxkxm2(F2)),
            ("M2", matrix_algebra(2, F2)),
        ]
        for label, b in suite:
            assert b.dim <= 6, label
            res = brute_force_maximal(b)
            units = unit_group(b)
            wm = wedderburn_data(b)
            keys = set()
            for fam in enumerate_maximal_families(b, wm=wm):
                sub = instantiate_family(b, fam, wm=wm)
                key = conjugacy_orbit_rep(b, sub.space, units)
                assert key not in keys, f"{label}: families collide"
                keys.add(key)
            assert keys == set(res.class_reps), label
        # the M_2(F_2) detail: exactly the triangular class and the F_4 class
        m2 = matrix_algebra(2, F2)
        res = brute_force_maximal(m2)
        by_dim = sorted((cls[0].dim, len(cls)) for cls in res.classes)
        assert by_dim == [(2, 1), (3, 3)]
        f4 = subalgebra_generated(m2, [[0, 1, 1, 1]])
        units = unit_group(m2)
        f4_key = conjugacy_orbit_rep(m2, f4.space, units)
        assert f4_key in set(res.class_reps)
        assert time.monotonic() - t0 < 600.0


def _hyperplane_params(m: int) -> list[list[int]]:
    out = [[1] + [0] * (m - 1)]
    if m > 1:
        out.append([0] * (m - 1) + [1])
        out.append([1] * m)
    return out


def _family_instances(b):
    wm = wedderburn_data(b)
    out = []
    for fam in enumerate_maximal_families(b, wm=wm):
        if fam.kind == "radical_hyperplane" and fam.functional is None:
            for params in _hyperplane_params(fam.multiplicity):
                out.append((fam, instantiate_family(
                    b, fam, params=params, wm=wm)))
        else:
            out.append((fam, instantiate_family(b, fam, wm=wm)))
    return out


def test_criterion_4_certification_soundness():
    with criterion(4, "every family instance certifies maximal, rechecked"):
        q_suite = [quiver_algebra(A3_QUIVER, QQ),
                   quiver_algebra(KRONECKER_QUIVER, QQ),
                   quiver_algebra(D4_QUIVER, QQ),
                   incidence_algebra(CHAIN3_POSET, QQ),
                   kxkxm2(QQ),
                   matrix_algebra(2, QQ),
                   matrix_algebra(3, QQ)]
        for b in q_suite:
            for fam, sub in _family_instances(b):
                cert = certify_maximal(sub, b)
                assert cert.status == "maximal", (fam.kind, cert.status)
        fp_suite = [quiver_algebra(A3_QUIVER, F2),
                    quiver_algebra(KRONECKER_QUIVER, F2),
                    quiver_algebra(KRONECKER_QUIVER, F3),
                    incidence_algebra(CHAIN3_POSET, F2),
                    kxkxm2(F2),
                    matrix_algebra(2, F2),
                    matrix_algebra(2, F3)]
        for b in fp_suite:
            for fam, sub in _family_instances(b):
                cert = certify_maximal(sub, b)
                assert cert.status == "maximal", (fam.kind, cert.status)
                assert spin_up_recheck(sub, b), fam.kind


def test_criterion_5_type_dichotomy():
    with criterion(5, "every maximal subalgebra has exactly one verified type"):
        suite = [quiver_algebra(A3_QUIVER, F2),
                 quiver_algebra(KRONECKER_QUIVER, F2),
                 kxkxm2(F2),
                 matrix_algebra(2, F2)]
        for b in suite:
            jb = jacobson_radical(b)
            res = brute_force_maximal(b)
            for sub in res.maximal:
                verdict = classify_type(sub, b)
                contained = all(sub.space.contains_vec(list(r))
                                for r in jb.basis)
                assert verdict.kind in ("semisimple", "split")
                assert (verdict.kind == "semisimple") == contained
                if verdict.kind == "split":
                    assert verdict.split_radical_match
                    assert sorted(verdict.a_block_dims) == \
                        sorted(verdict.b_block_dims)
        # and over Q on the instantiated families
        kr = quiver_algebra(KRONECKER_QUIVER, QQ)
        for fam, sub in _family_instances(kr):
            verdict = classify_type(sub, kr)
            want = "semisimple" if fam.kind == "diagonal_merge" else "split"
            assert verdict.kind == want


def test_criterion_6_split_separable_constructions():
    with criterion(6, "separability idempotents and split complements"):
        t0 = time.monotonic()
        pointed = [("A2", quiver_algebra(A2_QUIVER, QQ)),
                   ("A3", quiver_algebra(A3_QUIVER, QQ)),
                   ("Kronecker", quiver_algebra(KRONECKER_QUIVER, QQ)),
                   ("D4", quiver_algebra(D4_QUIVER, QQ)),
                   ("chain3", incidence_algebra(CHAIN3_POSET, QQ)),
                   ("diamond", incidence_algebra(DIAMOND_POSET, QQ))]
        # (i) A'(a,b): e = sum of v (x) v is a separability idempotent
        for label, b in pointed:
            if b.presentation.kind != "quiver":
                continue
            quiver = b.presentation.source.quiver
            a_v, b_v = quiver.vertices[0], quiver.vertices[1]
            merge = quiver_maximal(b, "merge", a_v, b_v)
            ts = tensor_square(merge, b)
            f = b.field
            ops = Scalars(f)
            e = tuple([f.zero()] * ts.dim)
            for v in b.presentation.vertex_vectors:
                e = tuple(ops.add(x, y) for x, y in
                          zip(e, ts.embed_pure(list(v), list(v))))
            assert ext._verify_separability(ts, e), label
            assert separability_idempotent(merge, b, ts) is not None, label
        # (ii) semisimple-type instances admit the standard idempotent
        for label, b in pointed:
            wm = wedderburn_data(b)
            for fam, sub in _family_instances(b):
                if fam.kind != "diagonal_merge":
                    continue
                e = separable_type_idempotent(sub, b, wm)
                assert e is not None, label
        # (iii) every split-type instance is a trivial extension at the
        # level the construction states it: B/J(A) over A/J(A).  The
        # direct extension A in B also splits trivially whenever the
        # removed component multiplies to zero (radical square avoiding
        # the kept part), which covers every radical-square-zero member.
        from maxsub.extensions import split_type_reduction
        from maxsub.structure import jacobson_radical as jrad
        for label, b in pointed:
            for fam, sub in _family_instances(b):
                if fam.kind != "radical_hyperplane":
                    continue
                red = split_type_reduction(sub, b)
                comp = split_complement(red.reduced, red.quotient)
                assert comp is not None, label
                flags = complement_flags(comp.space, red.quotient)
                assert flags["trivial"] and flags["nilpotent"] \
                    and flags["ideal"], label
                assert comp.dim == jrad(b).dim - red.ideal.dim
                if jrad(b).dim == comp.dim:   # J(B)^2 = 0: identical levels
                    direct = split_complement(sub, b)
                    assert direct is not None, label
                    dflags = complement_flags(direct.space, b)
                    assert dflags["trivial"], label
        for quiver, leaf in ((A3_QUIVER, "3"), (A3_QUIVER, "1"),
                             (D5_QUIVER, "5"), (D4_QUIVER, "1")):
            res = delete_arrows(quiver, [leaf], QQ)
            comp = split_complement(res.inclusion, res.ambient)
            assert comp is not None
            flags = complement_flags(comp.space, res.ambient)
            assert flags["trivial"]
            assert res.complement_squares_to_zero
        assert time.monotonic() - t0 < 60.0


def test_criterion_7_representation_transfer():
    with criterion(7, "zigzag A5 restricted to D4 is indecomposable (1,2,1,1)"):
        t0 = time.monotonic()
        inc = incidence_algebra(ZIGZAG_POSET, QQ)
        elems = list(ZIGZAG_POSET.elements)
        mats = []
        for name in inc.basis_names:
            a, b = name[1:-1].split(",")
            m = [[0] * 5 for _ in range(5)]
            m[elems.index(a)][elems.index(b)] = 1
            mats.append(m)
        defmod = make_module(inc, mats, check=True)
        assert dimension_vector(defmod) == ((1, 1, 1, 1, 1), True)
        d4 = quiver_algebra(D4_QUIVER, QQ)

        def bv(a, b):
            return list(inc.basis_vector(interval_index(inc, a, b)))

        images = {"1": bv("1", "1"),
                  "c": vec_add(bv("2", "2"), bv("4", "4"), QQ),
                  "3": bv("3", "3"),
                  "5": bv("5", "5"),
                  "x": bv("2", "1"),
                  "y": vec_add(bv("2", "3"), bv("4", "3"), QQ),
                  "z": bv("4", "5")}
        restr = restrict_along(defmod, d4,
                               [images[nm] for nm in d4.basis_names])
        vec, thin = dimension_vector(restr)
        assert vec == (1, 2, 1, 1) and not thin
        parts = decompose_module(restr)
        assert len(parts) == 1 and parts[0].dim == 5
        assert time.monotonic() - t0 < 10.0


def test_criterion_8_kronecker_conjugacy():
    with criterion(8, "Kronecker over F_2: 3 split classes + 1 merge class"):
        t0 = time.monotonic()
        kr = quiver_algebra(KRONECKER_QUIVER, F2)
        res = brute_force_maximal(kr)
        kinds = sorted(classify_type(cls[0], kr).kind for cls in res.classes)
        assert kinds == ["semisimple", "split", "split", "split"]
        # the three split classes are pairwise non-conjugate by construction
        assert len(set(res.class_reps)) == 4
        assert time.monotonic() - t0 < 60.0


def test_criterion_9_structural_invariants():
    with criterion(9, "C^3 = C, nilpotency, complement, counts, radical"):
        # triple centralizer identity on assorted subspaces
        m2 = matrix_algebra(2, QQ)
        a3f2 = quiver_algebra(A3_QUIVER, F2)
        for b, seeds in ((m2, [[1, 1, 0, 0]]), (m2, [[0, 1, 0, 0], [0, 0, 0, 1]]),
                         (a3f2, [[1, 0, 1, 0, 0, 0]]),
                         (a3f2, [[0, 1, 0, 1, 0, 1], [1, 0, 0, 0, 1, 0]])):
            s = echelonize(seeds, b.dim, b.field)
            c1 = centralizer(b, s)
            c2 = centralizer(b, c1.space)
            c3 = centralizer(b, c2.space)
            assert c3.space == c1.space
        # radical nilpotency with degree bound, quotient radical-free
        for b in (a3f2, quiver_algebra(D4_QUIVER, QQ),
                  incidence_algebra(DIAMOND_POSET, QQ)):
            j = jacobson_radical(b)
            assert is_nilpotent_space(b, j)
            assert nilpotency_degree(b, j) <= b.dim
        # Wedderburn-Malcev: A_0 (+) J = B exactly
        for b in (a3f2, incidence_algebra(CHAIN3_POSET, QQ),
                  block_triangular(3, (1, 2), QQ).as_algebra()):
            wm = wedderburn_data(b)
            assert subspace_intersection(wm.complement.space, wm.radical).dim == 0
            assert subspace_sum(wm.complement.space, wm.radical).dim == b.dim
        # Gaussian binomial counts over F_2 and F_3, ambient <= 5
        for q, field in ((2, F2), (3, F3)):
            for n in range(6):
                for k in range(n + 1):
                    count = sum(1 for _ in enumerate_subspaces(n, k, field))
                    assert count == gaussian_binomial(n, k, q)
        # arrow-ideal radical equals the trace-form radical over Q
        for quiver in (A2_QUIVER, A3_QUIVER, KRONECKER_QUIVER, D4_QUIVER):
            alg = quiver_algebra(quiver, QQ)
            plain = strip_presentation(alg)
            hinted = jacobson_radical(alg)
            traced = jacobson_radical(plain)
            assert hinted == traced
            kernel_rows = [list(r) for r in trace_form_radical(plain).basis]
            assert echelonize(kernel_rows, alg.dim, QQ) == hinted
