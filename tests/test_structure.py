"""Radical, blocks, idempotent lifting, Wedderburn-Malcev, conjugating units."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A3_QUIVER,
    D4_QUIVER,
    D5_QUIVER,
    DIAMOND_POSET,
    KRONECKER_QUIVER,
    ZIGZAG_POSET,
    Scalars,
    f4_algebra,
    kxkxm2,
    quiver_algebra,
    strip_presentation,
)
from maxsub.algebra import (
    block_triangular,
    make_algebra,
    matrix_algebra,
    subalgebra_from_rows,
)
from maxsub.errors import NotSplitError, VerificationFailedError
from maxsub.formats import parse_algebra
from maxsub.linalg import (
    GF,
    QQ,
    combine,
    echelonize,
    identity_matrix,
    solve_linear,
    span_elements,
    subspace_intersection,
    subspace_sum,
    vec_add,
    vec_is_zero,
    zero_subspace,
)
from maxsub.modules import module_violation
from maxsub.presentations import incidence_algebra
from maxsub.structure import (
    SWEEP_CAP,
    IdempotentSystem,
    _int_div_linear,
    _int_homogeneous_eval,
    _poly_divmod,
    _poly_eval,
    _poly_mul,
    _poly_roots,
    conjugating_unit,
    ideal_closure,
    is_nilpotent_space,
    is_two_sided_ideal,
    jacobson_radical,
    lift_idempotents,
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


def test_verify_radical_rejects_a_proper_subideal_of_j():
    t4 = strip_presentation(block_triangular(4, (1,) * 4, F2).as_algebra())
    j = jacobson_radical(t4)
    j2 = ideal_closure(t4, [t4.multiply(list(x), list(y))
                            for x in j.basis for y in j.basis])
    assert 0 < j2.dim < j.dim
    with pytest.raises(VerificationFailedError, match="quotient"):
        verify_radical(t4, j2)
    start = time.perf_counter()
    assert jacobson_radical(t4) == j
    assert time.perf_counter() - start < 0.1


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


def test_kxk_over_large_prime_is_fast():
    alg = parse_algebra("field F 1000003\ndim 2\nbasis a b\nunit 1 1\n"
                        "mul 1 1 -> 1:1\nmul 2 2 -> 2:1\n")
    t0 = time.perf_counter()
    rep = structure_report(alg)
    assert time.perf_counter() - t0 < 0.1
    assert rep.schur and rep.block_dims == (1, 1)


def _scan_roots(poly, f):
    """Every root of F_p with multiplicity, by the ascending scan over all
    p elements that the gcd/splitting root finder replaced."""
    ops = Scalars(f)
    work = list(poly)
    while work and work[-1] == 0:
        work.pop()
    roots = []
    for c in range(f.p):
        while len(work) > 1 and _poly_eval(work, c, f) == 0:
            roots.append(c)
            work, _ = _poly_divmod(work, [ops.neg(c), f.one()], f)
    return roots


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_poly_roots_mod_p_match_the_scan(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 31, 101]))
    f = GF(p)
    poly = [data.draw(st.integers(1, p - 1))]
    ops = Scalars(f)
    for r in data.draw(st.lists(st.integers(0, p - 1), max_size=6)):
        poly = _poly_mul(poly, [ops.neg(r), 1], f)    # force repeated roots
    tail = data.draw(st.lists(st.integers(0, p - 1), max_size=4))
    if tail:
        poly = _poly_mul(poly, tail + [1], f)
    assert _poly_roots(poly, f) == _scan_roots(poly, f)


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
        poly = _poly_mul(poly, [-r, Fraction(1)], QQ)
    poly = _poly_mul(poly, [Fraction(c) for c in tail] + [Fraction(1)], QQ)
    assert _poly_roots(poly, QQ) == _divisor_scan_roots(poly)


def test_rational_roots_of_large_coefficients():
    # x (x - 10^20) (3x + 7)^2 (x^2 + 2): trial division up to 10^10 hung
    big = 10 ** 20
    poly = [Fraction(1)]
    for factor in ([-big, 1], [7, 3], [7, 3], [2, 0, 1], [0, 1]):
        poly = _poly_mul(poly, [Fraction(c) for c in factor], QQ)
    start = time.perf_counter()
    roots = _poly_roots(poly, QQ)
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
        poly = _poly_mul(poly, [-r, Fraction(1)], QQ)
    if irreducible:
        poly = _poly_mul(poly, [Fraction(2), Fraction(0), Fraction(1)], QQ)
    assert sorted(_poly_roots(poly, QQ)) == sorted(roots)


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
    sys = lift_idempotents(m2q, rep.radical, bars)
    assert len(sys.idempotents) == 2


def test_lift_uppertri_exact(uppertri2):
    j = jacobson_radical(uppertri2)
    rep = semisimple_blocks(uppertri2, j)
    bars = [list(blk.idempotent) for blk in rep.blocks]
    sys = lift_idempotents(uppertri2, j, bars)
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
    sys = lift_idempotents(dual, j, [[1]])
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
