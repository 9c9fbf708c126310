"""Radical, blocks, idempotent lifting, Wedderburn-Malcev, conjugating units."""

import math
import os
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxsub.linalg
import maxsub.maximal
import maxsub.poly
import maxsub.structure
from conftest import (
    A3_QUIVER,
    D4_QUIVER,
    D5_QUIVER,
    DIAMOND_POSET,
    KRONECKER_QUIVER,
    QUATERNIONS_ALG,
    ROOT,
    ZIGZAG_POSET,
    Scalars,
    f4_algebra,
    kxkxm2,
    quiver_algebra,
    random_basis,
    rebased,
    strip_presentation,
)
from maxsub.algebra import (
    block_triangular,
    direct_product,
    invert_element,
    make_algebra,
    matrix_algebra,
    subalgebra_from_rows,
)
from maxsub.errors import (
    InvalidInputError,
    NotSplitError,
    VerificationFailedError,
)
from maxsub.extensions import decompose_module
from maxsub.formats import load_algebra, load_text, parse_algebra, parse_quiver
from maxsub.linalg import (
    GF,
    QQ,
    combine,
    echelonize,
    identity_matrix,
    mat_mul,
    solve_linear,
    solve_one,
    span_elements,
    subspace_intersection,
    subspace_sum,
    vec_add,
    vec_is_zero,
    zero_subspace,
    zero_vec,
)
from maxsub.maximal import (
    classify_type,
    enumerate_maximal_families,
    instantiate_family,
)
from maxsub.modules import make_module, module_violation, regular_module
from maxsub.poly import (
    _int_div_linear,
    _int_homogeneous_eval,
    evaluate as poly_eval,
    mul as poly_mul,
    quo_rem as poly_quo_rem,
    roots as poly_roots,
)
from maxsub.presentations import collapse_edge, incidence_algebra
from maxsub.structure import (
    SWEEP_CAP,
    IdempotentSystem,
    _flanked_span,
    conjugating_unit,
    ideal_closure,
    is_nilpotent_space,
    is_two_sided_ideal,
    jacobson_radical,
    lift_idempotents,
    nilpotency_degree,
    quotient_algebra,
    semisimple_blocks,
    simple_modules,
    structure_report,
    trace_form_radical,
    verify_radical,
    wedderburn_data,
    wedderburn_malcev_complement,
)

F2 = GF(2)


@pytest.fixture(scope="module")
def uppertri2():
    return block_triangular(2, (1, 1), QQ).as_algebra()


def test_radical_semisimple_is_zero(m2q):
    assert jacobson_radical(strip_presentation(m2q)).dim == 0


def test_radical_uppertri2(uppertri2):
    j = jacobson_radical(uppertri2)
    assert j.dim == 1
    # the radical element squares to zero
    v = list(j.basis[0])
    assert uppertri2.multiply(v, v) == [0, 0, 0]


def test_radical_a3_path_algebra(a3_q):
    j = jacobson_radical(a3_q)
    assert j.dim == 3
    for nm in ("a", "b", "b.a"):
        assert j.contains_vec(a3_q.basis_vector(a3_q.basis_names.index(nm)))


def test_arrow_ideal_matches_trace_form_over_q(a3_q, kronecker_q):
    for alg in (a3_q, kronecker_q):
        hinted = jacobson_radical(alg)
        traced = jacobson_radical(strip_presentation(alg))
        assert hinted == traced
        assert traced == echelonize(
            [list(r) for r in trace_form_radical(strip_presentation(alg)).basis],
            alg.dim, alg.field)


DATA = os.path.join(ROOT, "data")


def _path_rows(alg):
    """The former quiver rows: the paths of length >= 1, projected to K Q/I.
    The bundled quivers have no relations, so these are the basis paths
    that are not vertices."""
    vertices = alg.presentation.vertex_names
    return [alg.basis_vector(i) for i, nm in enumerate(alg.basis_names)
            if nm not in vertices]


def _strict_interval_rows(alg):
    """The former incidence rows: [a,b] with a != b and no pair [b,a] (a
    quasi-order's radical omits pairs lying on a two-sided relation)."""
    pairs = [tuple(nm[1:-1].split(",")) for nm in alg.basis_names]
    return [alg.basis_vector(i) for i, (a, b) in enumerate(pairs)
            if a != b and (b, a) not in pairs]


def _block_diagonal_rows(factors):
    """The former product rows: each (factor, rows) at its offset."""
    dim = sum(f.dim for f, _ in factors)
    out, off = [], 0
    for f, rows in factors:
        z = f.field.zero()
        out += [[z] * off + list(r) + [z] * (dim - off - f.dim) for r in rows]
        off += f.dim
    return out


def _data_case(name, former):
    def build(field):
        alg = load_algebra(os.path.join(DATA, name), field)
        return alg, former(alg)
    return build


def _collapse_case(arrow):
    def build(field):
        q = parse_quiver(load_text(os.path.join(DATA, "a4.quiver"))).quiver
        ambient = collapse_edge(q, arrow, field).ambient
        return ambient, _strict_interval_rows(ambient)
    return build


def _product_case(field):
    kr = load_algebra(os.path.join(DATA, "kronecker.quiver"), field)
    m2 = matrix_algebra(2, field)
    chain = load_algebra(os.path.join(DATA, "chain3.poset"), field)
    alg = direct_product([kr, m2, chain])
    return alg, _block_diagonal_rows(
        [(kr, _path_rows(kr)), (m2, []), (chain, _strict_interval_rows(chain))])


FORMER_RADICALS = {
    **{name: _data_case(name, _path_rows)
       for name in sorted(os.listdir(DATA)) if name.endswith(".quiver")},
    **{name: _data_case(name, _strict_interval_rows)
       for name in sorted(os.listdir(DATA)) if name.endswith(".poset")},
    **{f"collapse a4 {arrow}": _collapse_case(arrow) for arrow in "abc"},
    **{f"M{n}": lambda field, n=n: (matrix_algebra(n, field), [])
       for n in (1, 2, 3)},
    "Kronecker x M2 x chain3": _product_case,
}


@pytest.mark.parametrize("field", [QQ, F2, GF(3)], ids=str)
@pytest.mark.parametrize("name", sorted(FORMER_RADICALS))
def test_radical_matches_the_former_presentation_rows(name, field):
    """The traces give the radical that quiver, incidence, matrix and
    product algebras used to carry as rows, as the same canonical RREF."""
    alg, rows = FORMER_RADICALS[name](field)
    assert repr(jacobson_radical(alg)) == repr(
        echelonize(rows, alg.dim, field))


def test_radical_is_nilpotent_ideal_and_quotient_clean(a3_q):
    j = jacobson_radical(a3_q)
    assert is_two_sided_ideal(a3_q, j)
    assert is_nilpotent_space(a3_q, j)
    quot, _ = quotient_algebra(a3_q, j)
    assert jacobson_radical(quot).dim == 0


def test_radical_f2_sweep_refines_trace_kernel():
    # A(a,b,W)-type subalgebra of the Kronecker algebra over F_2: the
    # trace form is degenerate but the trace-functional filtration refines
    # its kernel to the 1-dim radical
    kr = quiver_algebra(KRONECKER_QUIVER, F2)
    sub = subalgebra_from_rows(
        kr, [list(kr.presentation.vertex_vectors[0]),
             list(kr.presentation.vertex_vectors[1]),
             list(kr.presentation.source.arrow_vector("al1"))])
    aalg = sub.as_algebra()
    j = jacobson_radical(aalg)
    assert j.dim == 1


def _radical_sweep(a, within):
    """Reference: {x in within : the ideal generated by x is nilpotent}
    over F_p, the capped element sweep that the trace-functional
    filtration replaced.  It is J(a) whenever J(a) lies in `within`."""
    assert a.field.p ** within.dim <= SWEEP_CAP
    passing = [x for x in span_elements(within) if not vec_is_zero(x)
               and is_nilpotent_space(a, ideal_closure(a, [x]))]
    return echelonize(passing, a.dim, a.field)


def _swept_radical(a):
    """The former F_p radical of an algebra without a presentation: the
    trace-form kernel, swept unless it is already a nilpotent ideal."""
    cand = trace_form_radical(a)
    if cand.dim > 0 and not (is_two_sided_ideal(a, cand)
                             and is_nilpotent_space(a, cand)):
        cand = _radical_sweep(a, cand)
    return cand


def _in_random_basis(alg, seed):
    """alg over F_p rewritten in a random basis, without its presentation."""
    f, n = alg.field, alg.dim
    rng = random.Random(seed)
    rows = []
    while echelonize(rows, n, f).dim < n:
        rows = [[rng.randrange(f.p) for _ in range(n)] for _ in range(n)]
    inv, _ = solve_linear(rows, identity_matrix(n, f), f)
    table = [[combine(alg.multiply(x, y), inv, f) for y in rows] for x in rows]
    return make_algebra(f, [f"b{i + 1}" for i in range(n)],
                        combine(alg.unit, inv, f), table)


SWEPT_BASES = {
    "A3": lambda f: quiver_algebra(A3_QUIVER, f),
    "Kronecker": lambda f: quiver_algebra(KRONECKER_QUIVER, f),
    "D4": lambda f: quiver_algebra(D4_QUIVER, f),
    "diamond": lambda f: incidence_algebra(DIAMOND_POSET, f),
    "zigzag": lambda f: incidence_algebra(ZIGZAG_POSET, f),
    "T3": lambda f: block_triangular(3, (1, 1, 1), f).as_algebra(),
    "T(1,2)": lambda f: block_triangular(3, (1, 2), f).as_algebra(),
    "M2": lambda f: matrix_algebra(2, f),
    "M3": lambda f: matrix_algebra(3, f),
}


# the sweep is not run on M3/F3, whose trace form is zero (3^9 elements,
# above the old cap), nor on diamond/F2 (2^8) and zigzag/F3 (3^6), where
# it takes 1-4 s; there the verified radical has the presented dimension
OUTSIDE_SWEEP = {("M3", 3), ("diamond", 2), ("zigzag", 3)}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SWEPT_BASES)), p=st.sampled_from([2, 3, 5]),
       seed=st.integers(0, 2 ** 32))
def test_radical_matches_the_sweep_in_random_bases(name, p, seed):
    base = SWEPT_BASES[name](GF(p))
    alg = _in_random_basis(base, seed)
    j = jacobson_radical(alg)
    if (name, p) in OUTSIDE_SWEEP:
        assert j.dim == jacobson_radical(base).dim
    else:
        assert j == _swept_radical(alg)


@pytest.mark.parametrize("build, rad_dim", [
    (lambda: quiver_algebra(D5_QUIVER, GF(3)), 9),
    (lambda: block_triangular(5, (1,) * 5, GF(3)).as_algebra(), 10),
    (lambda: matrix_algebra(4, GF(2)), 0),
], ids=["D5/F3", "T5/F3", "M4/F2"])
def test_radical_above_the_old_sweep_cap(build, rad_dim):
    alg = build()
    plain = strip_presentation(alg)
    start = time.perf_counter()
    j = jacobson_radical(plain)
    assert time.perf_counter() - start < 1.0
    assert j.dim == rad_dim
    assert j == jacobson_radical(alg)


def test_radical_of_plain_m3_over_f3_is_zero():
    # the trace form of M3 over F_3 vanishes, so its kernel is everything
    plain = strip_presentation(matrix_algebra(3, GF(3)))
    assert trace_form_radical(plain).dim == 9
    assert jacobson_radical(plain).dim == 0


def test_verify_radical_rejects_zero_for_t5_over_f3():
    t5 = strip_presentation(block_triangular(5, (1,) * 5, GF(3)).as_algebra())
    with pytest.raises(VerificationFailedError, match="quotient"):
        verify_radical(t5, zero_subspace(t5.dim, t5.field))


def _forbid_element_sweeps(monkeypatch):
    """Make every enumeration of the elements of F_p, of F_p^n or of a
    subspace raise, so a test fails on the path that sweeps them."""
    def sweep(*args, **kwargs):
        raise AssertionError("swept the elements of a finite field")
    monkeypatch.setattr(maxsub.structure, "span_elements", sweep)
    monkeypatch.setattr(maxsub.linalg, "span_elements", sweep)
    monkeypatch.setattr(maxsub.linalg, "all_vectors", sweep)
    monkeypatch.setattr(maxsub.linalg.Field, "elements", sweep)


def test_verify_radical_rejects_a_proper_subideal_of_j(monkeypatch):
    t4 = strip_presentation(block_triangular(4, (1,) * 4, F2).as_algebra())
    j = jacobson_radical(t4)
    j2 = ideal_closure(t4, [t4.multiply(list(x), list(y))
                            for x in j.basis for y in j.basis])
    assert 0 < j2.dim < j.dim
    with pytest.raises(VerificationFailedError, match="quotient"):
        verify_radical(t4, j2)
    # the traces give the radical: no sweep over the 2^8 elements of the
    # trace-form kernel
    _forbid_element_sweeps(monkeypatch)
    assert jacobson_radical(t4) == j


@pytest.mark.parametrize("field", [QQ, F2])
def test_semisimple_blocks_refuses_an_ideal_that_is_not_the_radical(field):
    # T3 is split, but T3/0 and T3/J² are not semisimple: their "blocks"
    # would read as not full matrix algebras
    t3 = block_triangular(3, (1, 1, 1), field).as_algebra()
    j = jacobson_radical(t3)
    j2 = ideal_closure(t3, [t3.multiply(list(x), list(y))
                            for x in j.basis for y in j.basis])
    for ideal in (zero_subspace(t3.dim, field), j2):
        with pytest.raises(VerificationFailedError):
            semisimple_blocks(t3, ideal)


def test_a_zero_radical_is_filtered_once(monkeypatch):
    """M_6(F_3): 3 | 6 zeroes the trace form, so the filtration takes one
    36×36 power trace per basis vector.  The run that finds J = 0 is the
    quotient check of b/0 = b, so structure_report and jacobson_radical
    filter once, 36 traces; semisimple_blocks at a given zero filters the
    quotient again."""
    calls = []
    trace = maxsub.structure._power_trace
    monkeypatch.setattr(maxsub.structure, "_power_trace",
                        lambda *args: calls.append(1) or trace(*args))
    m6 = matrix_algebra(6, GF(3))
    assert structure_report(m6).block_dims == (6,)
    assert len(calls) == 36
    assert jacobson_radical(m6).dim == 0
    assert len(calls) == 72
    semisimple_blocks(m6, zero_subspace(m6.dim, m6.field))
    assert len(calls) == 108


def test_the_quaternions_are_not_a_full_matrix_algebra_over_q():
    rep = structure_report(parse_algebra(QUATERNIONS_ALG))
    assert rep.radical.dim == 0
    assert not rep.schur and rep.block_dims is None
    assert rep.failure == "a block is not a full matrix algebra"


def test_each_call_verifies_each_radical_and_builds_its_quotient_once(
        monkeypatch, a3_q, kronecker_f2):
    subs = {f.kind: instantiate_family(kronecker_f2, f)
            for f in enumerate_maximal_families(kronecker_f2)}
    seen = {"verify_radical": [], "quotient_algebra": []}
    for name, calls in seen.items():
        def counted(a, j, calls=calls, original=getattr(maxsub.structure, name)):
            calls.append(a)
            return original(a, j)
        monkeypatch.setattr(maxsub.structure, name, counted)
    monkeypatch.setattr(maxsub.maximal, "verify_radical",
                        maxsub.structure.verify_radical)
    for call in (lambda: structure_report(a3_q),
                 lambda: wedderburn_data(a3_q),
                 lambda: classify_type(subs["diagonal_merge"], kronecker_f2),
                 lambda: classify_type(subs["radical_hyperplane"],
                                       kronecker_f2),
                 lambda: decompose_module(regular_module(a3_q))):
        for calls in seen.values():
            calls.clear()
        call()
        for calls in seen.values():
            assert calls
            assert all(sum(b is a for b in calls) == 1 for a in calls)


def test_blocks_m2(m2q):
    rep = structure_report(m2q)
    assert rep.schur and rep.block_dims == (2,)


def test_blocks_product():
    rep = structure_report(kxkxm2(QQ))
    assert rep.schur and rep.block_dims == (1, 1, 2)


def test_blocks_f4_not_split():
    f4 = f4_algebra()
    rep = semisimple_blocks(f4, jacobson_radical(f4))
    assert not rep.schur
    assert rep.block_dims is None


# M_2(Q) in two dense bases where every one of the first 16 candidate
# elements has an irreducible quadratic minimal polynomial on the block.
# The first is split by a product of two corner basis vectors, the second
# only by one of the wider random draws.
M2_Q_HARD_BASES = ["""\
field Q
dim 4
basis b1 b2 b3 b4
unit 0 0 -1 0
mul 1 1 -> 1:-1 3:1
mul 1 2 -> 1:1 2:-1 3:-1 4:-1
mul 1 3 -> 1:-1
mul 1 4 -> 2:1 3:1
mul 2 1 -> 1:1 3:2 4:1
mul 2 2 -> 2:2 3:2
mul 2 3 -> 2:-1
mul 2 4 -> 1:-1 2:2 3:2 4:1
mul 3 1 -> 1:-1
mul 3 2 -> 2:-1
mul 3 3 -> 3:-1
mul 3 4 -> 4:-1
mul 4 1 -> 1:2 2:-1 3:-3 4:-1
mul 4 2 -> 1:1 3:-1 4:1
mul 4 3 -> 4:-1
mul 4 4 -> 3:1 4:2
""", """\
field Q
dim 4
basis b1 b2 b3 b4
unit 0 1/2 -1/2 0
mul 1 1 -> 1:2 2:-1/2 3:1/2
mul 1 2 -> 1:2 3:2 4:-1
mul 1 3 -> 3:2 4:-1
mul 1 4 -> 3:1
mul 2 1 -> 2:1/2 3:-1/2 4:1
mul 2 2 -> 2:3/2 3:1/2
mul 2 3 -> 2:-1/2 3:1/2
mul 2 4 -> 1:-1 3:-1 4:2
mul 3 1 -> 1:-2 2:1/2 3:-1/2 4:1
mul 3 2 -> 2:-1/2 3:1/2
mul 3 3 -> 2:-1/2 3:-3/2
mul 3 4 -> 1:-1 3:-1
mul 4 1 -> 1:-1 3:-1 4:2
mul 4 2 -> 1:1 2:-1 3:1
mul 4 3 -> 1:1 2:-1 3:1 4:-2
mul 4 4 -> 2:-1/2 3:1/2 4:-1
"""]


@pytest.mark.parametrize("text", M2_Q_HARD_BASES)
def test_blocks_split_m2_in_hard_basis(text):
    rep = structure_report(parse_algebra(text))
    assert rep.schur
    assert rep.block_dims == (2,)


def test_kxk_over_large_prime_is_fast(monkeypatch):
    evals = []
    evaluate = maxsub.poly.evaluate
    monkeypatch.setattr(maxsub.poly, "evaluate",
                        lambda *args: evals.append(args) or evaluate(*args))
    _forbid_element_sweeps(monkeypatch)
    # a² = c·a and b² = c·b for c = ±1: the minimal polynomials have the
    # roots 0 and c, and c = -1 is the last element a scan of F_p tries
    for c in (1, 1000002):
        alg = parse_algebra(f"field F 1000003\ndim 2\nbasis a b\n"
                            f"unit {c} {c}\nmul 1 1 -> 1:{c}\nmul 2 2 -> 2:{c}\n")
        evals.clear()
        rep = structure_report(alg)
        assert rep.schur and rep.block_dims == (1, 1)
        # the roots come from gcd(poly, x^p - x), one evaluation per root
        # divided out, not from evaluating at each of the p elements
        assert len(evals) <= 8


def _scan_roots(poly, f):
    """Every root of F_p with multiplicity, by the ascending scan over all
    p elements that the gcd/splitting root finder replaced."""
    ops = Scalars(f)
    work = list(poly)
    while work and work[-1] == 0:
        work.pop()
    roots = []
    for c in range(f.p):
        while len(work) > 1 and poly_eval(work, c, f) == 0:
            roots.append(c)
            work, _ = poly_quo_rem(work, [ops.neg(c), f.one()], f)
    return roots


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_poly_roots_mod_p_match_the_scan(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 31, 101]))
    f = GF(p)
    poly = [data.draw(st.integers(1, p - 1))]
    ops = Scalars(f)
    for r in data.draw(st.lists(st.integers(0, p - 1), max_size=6)):
        poly = poly_mul(poly, [ops.neg(r), 1], f)    # force repeated roots
    tail = data.draw(st.lists(st.integers(0, p - 1), max_size=4))
    if tail:
        poly = poly_mul(poly, tail + [1], f)
    assert poly_roots(poly, f) == _scan_roots(poly, f)


def _divisor_scan_roots(poly):
    """Reference: the rational roots by the former scan over every ±a/b
    with a dividing the lowest and b the leading nonzero coefficient of
    the integer-cleared polynomial (here without its divisor limit)."""
    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return sorted(set(small + [abs(n) // d for d in small]))
    denlcm = math.lcm(1, *(c.denominator for c in poly))
    work = [int(c * denlcm) for c in poly]
    while work and work[-1] == 0:
        work.pop()
    low = next(c for c in work if c != 0)
    candidates = [Fraction(0)] if work[0] == 0 else []
    for a in divisors(low):
        for b in divisors(work[-1]):
            for c in (Fraction(a, b), Fraction(-a, b)):
                if c not in candidates:
                    candidates.append(c)
    roots = []
    for c in candidates:
        while (len(work) > 1 and _int_homogeneous_eval(
                work, c.numerator, c.denominator) == 0):
            roots.append(c)
            work = _int_div_linear(work, c.numerator, c.denominator)
    return roots


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.fractions(min_value=-6, max_value=6,
                                   max_denominator=4), max_size=4),
       tail=st.lists(st.integers(-6, 6), max_size=4),
       lead=st.integers(1, 12))
def test_rational_roots_match_the_divisor_scan(roots, tail, lead):
    poly = [Fraction(lead)]
    for r in roots:
        poly = poly_mul(poly, [-r, Fraction(1)], QQ)
    poly = poly_mul(poly, [Fraction(c) for c in tail] + [Fraction(1)], QQ)
    assert poly_roots(poly, QQ) == _divisor_scan_roots(poly)


def test_rational_roots_of_large_coefficients():
    # x (x - 10^20) (3x + 7)^2 (x^2 + 2): trial division up to 10^10 hung
    big = 10 ** 20
    poly = [Fraction(1)]
    for factor in ([-big, 1], [7, 3], [7, 3], [2, 0, 1], [0, 1]):
        poly = poly_mul(poly, [Fraction(c) for c in factor], QQ)
    start = time.perf_counter()
    roots = poly_roots(poly, QQ)
    assert time.perf_counter() - start < 1.0
    assert roots == [0, Fraction(-7, 3), Fraction(-7, 3), big]


@settings(max_examples=60, deadline=None)
@given(roots=st.lists(st.fractions(min_value=-20, max_value=20,
                                   max_denominator=12), max_size=5),
       scale=st.fractions(min_value=1, max_value=50, max_denominator=7),
       irreducible=st.booleans())
def test_poly_roots_over_q_with_multiplicity(roots, scale, irreducible):
    poly = [scale]
    for r in roots:
        poly = poly_mul(poly, [-r, Fraction(1)], QQ)
    if irreducible:
        poly = poly_mul(poly, [Fraction(2), Fraction(0), Fraction(1)], QQ)
    assert sorted(poly_roots(poly, QQ)) == sorted(roots)


def test_blocks_exhibit_matrix_units(m3q):
    rep = structure_report(m3q)
    blk = rep.blocks[0]
    s = rep.quotient
    assert blk.n == 3
    for p in range(3):
        for q in range(3):
            for r in range(3):
                for t in range(3):
                    prod = s.multiply(list(blk.units[p][q]), list(blk.units[r][t]))
                    want = list(blk.units[p][t]) if q == r else [0] * s.dim
                    want = [s.field.coerce(c) for c in want]
                    assert prod == want


def test_block_dims_square_sum(m3q, a3_q):
    for alg in (m3q, a3_q, kxkxm2(QQ)):
        rep = structure_report(alg)
        assert sum(n * n for n in rep.block_dims) + rep.radical.dim == alg.dim


def test_lift_trivial_radical(m2q):
    rep = structure_report(m2q)
    bars = [list(blk.units[p][p]) for blk in rep.blocks
            for p in range(blk.n)]
    sys = lift_idempotents(m2q, rep, bars)
    assert len(sys.idempotents) == 2


def test_lift_uppertri_exact(uppertri2):
    j = jacobson_radical(uppertri2)
    rep = semisimple_blocks(uppertri2, j)
    bars = [list(blk.idempotent) for blk in rep.blocks]
    sys = lift_idempotents(uppertri2, rep, bars)
    f = uppertri2.field
    total = [f.zero()] * 3
    for e in sys.idempotents:
        assert uppertri2.multiply(list(e), list(e)) == list(e)
        total = vec_add(total, list(e), f)
    assert total == list(uppertri2.unit)


def test_lift_dual_numbers():
    dual = make_algebra(QQ, ["one", "eps"], [1, 0],
                        [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], check=True)
    j = jacobson_radical(dual)
    assert j.dim == 1
    sys = lift_idempotents(dual, semisimple_blocks(dual, j), [[1]])
    assert list(sys.idempotents[0]) == list(dual.unit)


def test_wm_complement_semisimple_is_everything(m2q):
    comp = wedderburn_malcev_complement(m2q)
    assert comp.dim == 4


def test_wm_complement_uppertri(uppertri2):
    wm = wedderburn_data(uppertri2)
    comp = wm.complement
    assert comp.dim == 2
    assert subspace_intersection(comp.space, wm.radical).dim == 0
    assert subspace_sum(comp.space, wm.radical).dim == uppertri2.dim


def test_wm_complement_path_algebra_is_vertex_span(a3_q):
    wm = wedderburn_data(a3_q)
    vertex_span = echelonize(
        [list(v) for v in a3_q.presentation.vertex_vectors], a3_q.dim, QQ)
    assert wm.complement.space == vertex_span


def test_wm_complement_closed_and_projects(kronecker_f2):
    wm = wedderburn_data(kronecker_f2)
    comp = wm.complement
    for x in comp.space.basis:
        for y in comp.space.basis:
            assert comp.space.contains_vec(
                kronecker_f2.multiply(list(x), list(y)))
    assert sum(blk.n ** 2 for blk in wm.report.blocks) == comp.dim


def test_wm_not_split_raises():
    with pytest.raises(NotSplitError):
        wedderburn_data(f4_algebra())


def test_conjugating_unit_same_system(m2q):
    rep = structure_report(m2q)
    bars = [list(rep.blocks[0].units[p][p]) for p in range(2)]
    sys = IdempotentSystem(m2q, tuple(tuple(e) for e in bars))
    a = conjugating_unit(m2q, sys, sys)
    assert a == list(m2q.unit)


def test_conjugating_unit_swap_in_m2(m2q):
    e11, e22 = [1, 0, 0, 0], [0, 0, 0, 1]
    sys_e = IdempotentSystem(m2q, (tuple(e11), tuple(e22)))
    sys_f = IdempotentSystem(m2q, (tuple(e22), tuple(e11)))
    a = conjugating_unit(m2q, sys_e, sys_f)
    assert a is not None
    ainv = [c for c in a]
    from maxsub.algebra import invert_element
    ainv = invert_element(m2q, a)
    assert m2q.multiply(m2q.multiply(a, e11), ainv) == e22


def test_conjugating_unit_radical_perturbation(kronecker_f2):
    kr = kronecker_f2
    pres = kr.presentation
    ea = list(pres.vertex_vectors[0])
    eb = list(pres.vertex_vectors[1])
    al1 = list(pres.source.arrow_vector("al1"))
    f = kr.field
    fa = vec_add(ea, al1, f)
    ops = Scalars(f)
    fb = [ops.sub(x, y) for x, y in zip(eb, al1)]
    sys_e = IdempotentSystem(kr, (tuple(ea), tuple(eb)))
    sys_f = IdempotentSystem(kr, (tuple(fa), tuple(fb)))
    a = conjugating_unit(kr, sys_e, sys_f)
    assert a is not None
    # the conjugator differs from 1 by a radical element
    diff = [ops.sub(x, y) for x, y in zip(a, kr.unit)]
    assert jacobson_radical(kr).contains_vec(diff)


@pytest.mark.parametrize("case", ["partial", "other-parent", "not-idempotent"])
def test_conjugating_unit_rejects_what_is_no_complete_system_of_b(m2q, case):
    """The rank criterion holds for complete orthogonal systems of b only:
    partial systems, systems of another M_2(Q) and non-idempotents are
    refused, where the former search returned None or an answer."""
    e11, e22 = (1, 0, 0, 0), (0, 0, 0, 1)
    if case == "partial":
        sys_e = IdempotentSystem(m2q, (e11,))
        sys_f = IdempotentSystem(m2q, (e22,))
    elif case == "other-parent":
        other = matrix_algebra(2, QQ)
        sys_e = IdempotentSystem(other, (e11, e22))
        sys_f = IdempotentSystem(m2q, (e22, e11))
    else:
        sys_e = IdempotentSystem(m2q, ((2, 0, 0, 0), e22))
        sys_f = IdempotentSystem(m2q, (e22, e11))
    with pytest.raises(InvalidInputError):
        conjugating_unit(m2q, sys_e, sys_f)


def _box_conjugating_unit(b, e_sys, f_sys):
    """Reference: the former search over F_p.  For each i it sweeps
    f_i·B·e_i for a witness a_i with a partner b_i in e_i·B·f_i
    (a_i·b_i = f_i and b_i·a_i = e_i), and returns Σ a_i when the sums
    are inverse to each other and conjugate every e_i to f_i."""
    f = b.field
    total_a, total_b = zero_vec(b.dim, f), zero_vec(b.dim, f)
    for e, fi in zip(map(list, e_sys.idempotents),
                     map(list, f_sys.idempotents)):
        ebf = _flanked_span(b, e, fi)
        cols = [list(r) for r in zip(*ebf.basis)]
        witness = None
        for cand in span_elements(_flanked_span(b, fi, e)):
            if vec_is_zero(cand) or not ebf.basis:
                continue
            ops = b.left_mult_matrix(cand) + b.right_mult_matrix(cand)
            t = solve_one(mat_mul(ops, cols, f), fi + e, f)
            if t is not None:
                witness = cand, combine(t, ebf.basis, f)
                break
        if witness is None:
            return None
        total_a = vec_add(total_a, witness[0], f)
        total_b = vec_add(total_b, witness[1], f)
    one = list(b.unit)
    if (b.multiply(total_a, total_b) != one
            or b.multiply(total_b, total_a) != one):
        return None
    if any(b.multiply(b.multiply(total_a, list(e)), total_b) != list(fi)
           for e, fi in zip(e_sys.idempotents, f_sys.idempotents)):
        return None
    return total_a


def _assert_conjugates(b, u, e_sys, f_sys):
    u_inv = invert_element(b, u)
    assert u_inv is not None
    for e, fi in zip(e_sys.idempotents, f_sys.idempotents):
        assert b.multiply(b.multiply(u, list(e)), u_inv) == list(fi)


def _random_unit(b, rng):
    while True:
        u = [rng.randrange(b.field.p) for _ in range(b.dim)]
        u_inv = invert_element(b, u)
        if u_inv is not None:
            return u, u_inv


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([
    (label, build, field) for label, build in (
        ("M2xM2", lambda f: direct_product([matrix_algebra(2, f)] * 2)),
        ("KxKxM2", kxkxm2),
        ("T3", lambda f: block_triangular(3, [1, 1, 1], f).as_algebra()),
        ("A3", lambda f: quiver_algebra(A3_QUIVER, f)),
        ("Kronecker", lambda f: quiver_algebra(KRONECKER_QUIVER, f)))
    for field in (F2, GF(3))]), conjugate=st.booleans(),
    seed=st.integers(0, 2 ** 32))
def test_conjugating_unit_matches_the_sweep(case, conjugate, seed):
    """On a random basis, two systems regroup the lifted diagonal units of
    `wedderburn_data`, and one is conjugated by a random unit.  Either the
    groups of the second are those of the first with the units permuted
    inside each block, so the systems are conjugate, or they are drawn
    afresh, which often mismatches a rank.  None agrees with the former
    sweep, and every returned unit conjugates e_i to f_i."""
    _, build, field = case
    rng = random.Random(seed)
    base = build(field)
    b = rebased(base, random_basis(base.dim, field, rng))
    units = wedderburn_data(b).block_units
    diag = [list(blk[p][p]) for blk in units for p in range(len(blk))]
    m = rng.randint(1, len(diag))

    def regroup(labels):
        return [combine([int(x == g) for x in labels], diag, field)
                for g in range(m)]

    def draw_labels():
        # every group gets at least one unit
        labels = list(range(m)) + [rng.randrange(m)
                                   for _ in range(len(diag) - m)]
        rng.shuffle(labels)
        return labels

    labels = draw_labels()
    if conjugate:
        # a permutation of the diagonal units inside each block
        moved, start = [], 0
        for blk in units:
            part = labels[start:start + len(blk)]
            rng.shuffle(part)
            moved += part
            start += len(blk)
    else:
        moved = draw_labels()
    u, u_inv = _random_unit(b, rng)
    sys_e = IdempotentSystem(b, tuple(map(tuple, regroup(labels))))
    sys_f = IdempotentSystem(b, tuple(
        tuple(b.multiply(b.multiply(u, g), u_inv)) for g in regroup(moved)))
    got = conjugating_unit(b, sys_e, sys_f)
    assert (got is None) == (_box_conjugating_unit(b, sys_e, sys_f) is None)
    if conjugate:
        assert got is not None
    if got is not None:
        _assert_conjugates(b, got, sys_e, sys_f)


def _diagonal_system(b, n, ranks):
    """The diagonal idempotents of M_n with the given ranks, in order."""
    out, start = [], 0
    for r in ranks:
        out.append(tuple(b.field.coerce(int(p == q and start <= p < start + r))
                         for p in range(n) for q in range(n)))
        start += r
    return IdempotentSystem(b, tuple(out))


def test_conjugating_unit_m4q_ranks_2_2_against_3_1_is_none():
    """Not conjugate, which the former box search took many seconds to
    conclude (timings in ROADMAP, Recent, "Exact conjugacy of
    idempotent systems")."""
    b = matrix_algebra(4, QQ)
    assert conjugating_unit(b, _diagonal_system(b, 4, (2, 2)),
                            _diagonal_system(b, 4, (3, 1))) is None


@pytest.mark.parametrize("n, ranks", [(5, (2, 3)), (6, (3, 3))])
def test_conjugating_unit_over_q_finds_a_fixed_conjugate(n, ranks):
    """The diagonal system against its conjugate by the upper unitriangular
    matrix of ones with a 2 at (n, 1), beyond the reach of the former box
    search over Q (timings in ROADMAP, Recent, "Exact conjugacy of idempotent
    systems")."""
    b = matrix_algebra(n, QQ)
    u = [QQ.coerce(1 if q >= p else 2 if (p, q) == (n - 1, 0) else 0)
         for p in range(n) for q in range(n)]
    u_inv = invert_element(b, u)
    sys_e = _diagonal_system(b, n, ranks)
    sys_f = IdempotentSystem(b, tuple(
        tuple(b.multiply(b.multiply(u, list(e)), u_inv))
        for e in sys_e.idempotents))
    got = conjugating_unit(b, sys_e, sys_f)
    assert got is not None
    _assert_conjugates(b, got, sys_e, sys_f)


def test_conjugating_unit_not_split_raises():
    b = f4_algebra()
    sys = IdempotentSystem(b, (tuple(b.unit),))
    with pytest.raises(NotSplitError):
        conjugating_unit(b, sys, sys)


def _simple_modules_loop(b):
    """Reference: the former body of `simple_modules`, which solved for the
    coordinates of each x̄·u_q0 in the first-column units one at a time."""
    rep = structure_report(b)
    if not rep.schur:
        raise NotSplitError(rep.failure or "blocks are not split")
    s, q = rep.quotient, rep.onto_quotient
    out = []
    for blk in rep.blocks:
        col_basis = [list(blk.units[p][0]) for p in range(blk.n)]
        cols = [list(c) for c in zip(*col_basis)]
        mats = []
        for k in range(b.dim):
            x = q.project(b.basis_vector(k))
            coords = []
            for v in col_basis:
                c = solve_one(cols, s.multiply(x, v), s.field)
                if c is None:
                    raise VerificationFailedError("vector not in span")
                coords.append(c)
            mats.append([list(r) for r in zip(*coords)])
        out.append(make_module(b, mats, check=True))
    return out


def _outcome(fn, b):
    try:
        return repr([m.action for m in fn(b)])
    except (NotSplitError, VerificationFailedError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("basis", ["standard", "random"])
@pytest.mark.parametrize("field", [QQ, F2, GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("build", [
    lambda f: direct_product([matrix_algebra(2, f)] * 2),
    kxkxm2,
    lambda f: matrix_algebra(3, f),
    lambda f: quiver_algebra(A3_QUIVER, f),
    lambda f: quiver_algebra(KRONECKER_QUIVER, f),
], ids=["M2xM2", "KxKxM2", "M3", "A3", "Kronecker"])
def test_simple_modules_match_the_solve_per_column(build, field, basis):
    """Equal actions, scalar types included, or the same error from both."""
    b = build(field)
    if basis == "random":
        b = rebased(b, random_basis(b.dim, field, random.Random(b.dim)))
    assert _outcome(simple_modules, b) == _outcome(_simple_modules_loop, b)


def test_simple_modules_kxk():
    simples = simple_modules(kxkxm2(QQ))
    assert sorted(m.dim for m in simples) == [1, 1, 2]
    for m in simples:
        assert module_violation(m) is None


def test_simple_modules_m2(m2q):
    simples = simple_modules(m2q)
    assert [m.dim for m in simples] == [2]


def test_simple_modules_a3(a3_q):
    simples = simple_modules(a3_q)
    assert [m.dim for m in simples] == [1, 1, 1]


def test_ideal_closure_is_ideal(a3_q):
    ia = a3_q.basis_names.index("a")
    ideal = ideal_closure(a3_q, [a3_q.basis_vector(ia)])
    assert is_two_sided_ideal(a3_q, ideal)
    assert ideal.dim == 2  # a and b.a


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_nilpotency_degree_of_the_triangular_radical_is_n(n, field):
    """J(T_n) is the strictly upper triangular part: J^(n-1) holds E_1n,
    J^n = 0."""
    t = block_triangular(n, [1] * n, field).as_algebra()
    assert nilpotency_degree(t, jacobson_radical(t)) == n


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=27, deadline=None)
def test_radical_nilpotency_degree_bounded(c1, c2, c3):
    # quotients of the A_3 path algebra by radical subideals stay clean
    a3 = quiver_algebra(A3_QUIVER, GF(3))
    j = jacobson_radical(a3)
    vec = [0] * a3.dim
    for c, row in zip((c1, c2, c3), j.basis):
        vec = vec_add(vec, [c * x for x in row], a3.field)
    vec = [v % 3 for v in vec]
    ideal = ideal_closure(a3, [vec])
    assert is_nilpotent_space(a3, ideal)
