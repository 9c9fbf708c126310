"""Radical, semisimple blocks, idempotent lifting, Wedderburn-Malcev.

The radical over Q is the kernel of the trace form of the left regular
representation.  Over a prime field the trace form only bounds the
radical from above; the radical is the last term of the Cohen-Ivanyos-
Wales filtration, which refines the trace-form kernel by the traces of
p^i-th powers of integer lifts.  Every answer is verified (a nilpotent
two-sided ideal whose quotient has zero radical by the same computation)
before it is returned.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    Algebra,
    Subalgebra,
    _products_in,
    centralizer,
    subalgebra_from_rows,
)
from .errors import (
    InvalidInputError,
    NotSplitError,
    VerificationFailedError,
)
from .linalg import (
    Field,
    QQ,
    QuotientSpace,
    Subspace,
    Vec,
    _is_prime,
    _modp,
    combine,
    echelonize,
    full_subspace,
    kernel,
    mat_vec,
    quotient_space,
    saturate,
    solve_one,
    span_elements,
    subspace_intersection,
    subspace_sum,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_sub,
    zero_vec,
)
from .modules import Module, make_module

SWEEP_CAP = 1 << 14


# ---------------------------------------------------------------------------
# ideals and nilpotency

def ideal_closure(a: Algebra, rows: Sequence[Sequence]) -> Subspace:
    """Two-sided ideal generated by the given elements."""
    ops = []
    for k in range(a.dim):
        bk = a.basis_vector(k)
        ops += [lambda v, bk=bk: a.multiply(bk, v),
                lambda v, bk=bk: a.multiply(v, bk)]
    return saturate(rows, ops, a.dim, a.field)


def is_two_sided_ideal(a: Algebra, s: Subspace) -> bool:
    units = [[int(i == k) for i in range(a.dim)] for k in range(a.dim)]
    rows = s.int_basis[1]
    return _products_in(a, units, rows, s) and _products_in(a, rows, units, s)


def _nilpotency(a: Algebra, s: Subspace) -> int | None:
    """Least m with s^m = 0, or None once the chain of powers stops
    shrinking (s need not be an ideal)."""
    power = s
    m = 1
    while power.dim > 0:
        rows = [a.multiply(list(x), list(y))
                for x in power.basis for y in s.basis]
        nxt = echelonize(rows, a.dim, a.field)
        if nxt.dim >= power.dim:
            return None
        power = nxt
        m += 1
    return m


def is_nilpotent_space(a: Algebra, s: Subspace) -> bool:
    """True iff s^m = 0 for some m (s need not be an ideal)."""
    return _nilpotency(a, s) is not None


def nilpotency_degree(a: Algebra, s: Subspace) -> int:
    """Least m with s^m = 0; raises if s is not nilpotent."""
    m = _nilpotency(a, s)
    if m is None:
        raise InvalidInputError("subspace is not nilpotent")
    return m


# ---------------------------------------------------------------------------
# the Jacobson radical

def trace_form_radical(a: Algebra) -> Subspace:
    """Kernel of (x, y) -> tr(L_x L_y); contains J(a) in any characteristic."""
    f = a.field
    # tl[k] = tr(L_{b_k}), the sum of the diagonal (b_k b_m)_m
    diag = [[a.table[k][m][m] for m in range(a.dim)] for k in range(a.dim)]
    tl = mat_vec(diag, [f.one()] * a.dim, f)
    gram = [mat_vec(a.table[i], tl, f) for i in range(a.dim)]
    return kernel(gram, a.dim, a.field)


def _int_left_matrix(a: Algebra, w: Sequence) -> list[list[int]]:
    """An integer lift of L_w over F_p, read from the integer table."""
    n = a.dim
    m = [[0] * n for _ in range(n)]
    for wi, group in zip(w, a._int_table[1]):
        if wi:
            for j, row in group:
                for k, c in row:
                    m[k][j] += wi * c
    return m


def _int_mat_mul(x: list[list[int]], y: list[list[int]], mod: int) -> list:
    cols = list(zip(*y))
    return [[sum(s * t for s, t in zip(row, col)) % mod for col in cols]
            for row in x]


def _power_trace(m: list[list[int]], e: int, mod: int) -> int:
    """Tr(m^e) mod `mod`, e >= 1, by square-and-multiply; the last product
    is only traced."""
    acc = None
    while e > 1:
        if e & 1:
            acc = m if acc is None else _int_mat_mul(acc, m, mod)
        m = _int_mat_mul(m, m, mod)
        e >>= 1
    if acc is None:
        return sum(m[k][k] for k in range(len(m))) % mod
    return sum(s * t for row, col in zip(acc, zip(*m))
               for s, t in zip(row, col)) % mod


def trace_functional_radical(a: Algebra) -> Subspace:
    """J(a) over F_p by the Cohen-Ivanyos-Wales filtration (Ronyai 1990;
    Cohen, Ivanyos and Wales 1997) of the left regular representation.

    With n = dim a and q = p^i, g_i(x) = (Tr(L^q) mod pq) / q for any
    integer lift L of L_x; it is linear on I_{i-1}.  I_{-1} = a and
    I_i = {x in I_{i-1} : g_i(b_m x) = 0 for every m}, so I_0 is the
    trace-form kernel, and I_l = J(a) for the largest l with p^l <= n.
    """
    f = a.field
    p, n = f.p, a.dim
    space = full_subspace(n, f)
    q = 1
    while q <= n and space.dim > 0:
        # g_i on the echelon basis of I_{i-1}, carried to a functional phi
        # on a that agrees with g_i on I_{i-1}
        phi = zero_vec(n, f)
        for w, pc in zip(space.basis, space.pivots):
            g, rest = divmod(_power_trace(_int_left_matrix(a, w), q, p * q), q)
            if rest:
                raise VerificationFailedError(
                    "trace functional is not divisible by p^i")
            phi[pc] = g
        # x = sum c_u w_u lies in I_i iff sum_u c_u phi(b_m w_u) = 0 for all m
        forms = [mat_vec(a.table[m], phi, f) for m in range(n)]
        ker = kernel([mat_vec(space.basis, r, f) for r in forms], space.dim, f)
        space = echelonize([combine(c, space.basis, f) for c in ker.basis], n, f)
        q *= p
    return space


def _radical_from_traces(a: Algebra) -> Subspace:
    """J(a) from the structure constants alone: the trace-form kernel over
    Q, the trace-functional filtration over F_p."""
    if a.field.is_finite:
        return trace_functional_radical(a)
    return trace_form_radical(a)


def jacobson_radical(a: Algebra, check: bool = True) -> Subspace:
    """The Jacobson radical as a canonical subspace.

    Uses the presentation-derived radical when one is attached (quiver,
    incidence, matrix, product); otherwise the trace form over Q and the
    trace-functional filtration over F_p.  The result is always verified.
    """
    pres = a.presentation
    if pres is not None and pres.radical_rows is not None:
        cand = echelonize(pres.radical_rows, a.dim, a.field)
    else:
        cand = _radical_from_traces(a)
    if check:
        verify_radical(a, cand)
    return cand


def verify_radical(a: Algebra, j: Subspace):
    """Check the radical candidate: a nilpotent two-sided ideal whose
    quotient has zero radical, computed from traces (exact over Q and over
    F_p at every size)."""
    if not is_two_sided_ideal(a, j):
        raise VerificationFailedError("radical candidate is not an ideal")
    if not is_nilpotent_space(a, j):
        raise VerificationFailedError("radical candidate is not nilpotent")
    quot, _ = quotient_algebra(a, j)
    if _radical_from_traces(quot).dim > 0:
        raise VerificationFailedError("quotient still has a radical")


def quotient_algebra(a: Algebra, ideal: Subspace) -> tuple[Algebra, QuotientSpace]:
    """The quotient algebra a/ideal plus the projection/section pair."""
    q = quotient_space(a.dim, ideal.basis, a.field)
    dim = q.dim
    names = tuple(f"q{i+1}" for i in range(dim))
    lifts = [q.lift(unit_vec(dim, i, a.field)) for i in range(dim)]
    table = tuple(
        tuple(tuple(q.project(a.multiply(lifts[i], lifts[j])))
              for j in range(dim))
        for i in range(dim))
    unit = tuple(q.project(list(a.unit)))
    return Algebra(a.field, dim, names, unit, table), q


# ---------------------------------------------------------------------------
# polynomials (dense, ascending coefficients)

def _poly_trim(p: list, field: Field) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list, den: list, field: Field) -> tuple[list, list]:
    """(quotient, remainder); the remainder is reduced once, at the end."""
    p = field.p
    num = list(num)
    q = [field.zero()] * max(0, len(num) - len(den) + 1)
    inv = field.inv(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv
        if p is not None:
            c %= p
        q[i] = c
        if c != 0:
            for k, d in enumerate(den):
                num[i + k] -= c * d
    return _poly_trim(q, field), _poly_trim(_modp(num, p), field)


def _poly_mul(a: list, b: list, field: Field) -> list:
    """a·b, as the combination Σ aᵢ·xⁱb of the shifted copies of b."""
    if not a or not b:
        return []
    pad = [0] * (len(a) - 1)
    return combine(a, [pad[:i] + list(b) + pad[i:] for i in range(len(a))],
                   field)


def _poly_ext_gcd(a: list, b: list, field: Field) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b = g, g monic when nonzero."""
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = _poly_divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, field), field)
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, field), field)
    if r0:
        lead = [field.inv(r0[-1])]
        r0, s0, t0 = (combine(lead, [v], field) for v in (r0, s0, t0))
    return r0, s0, t0


def _poly_sub(a: list, b: list, field: Field) -> list:
    pad = [field.zero()] * max(len(a), len(b))
    return _poly_trim(vec_sub(list(a) + pad[len(a):], list(b) + pad[len(b):],
                              field), field)


def poly_eval_in_algebra(poly: Sequence, x: Sequence, unit: Sequence,
                         a: Algebra) -> list:
    """Evaluate Sum c_k X^k at an algebra element, constant term on `unit`."""
    powers = [list(unit)]
    for _ in poly[1:]:
        powers.append(a.multiply(powers[-1], list(x)))
    return combine(poly, powers, a.field)


def _poly_roots(poly: Sequence, field: Field) -> list:
    """All roots in the base field, found exactly, each as often as its
    multiplicity; over F_p in ascending order, over Q 0 first and then by
    (|numerator|, denominator), + before -."""
    f = field
    poly = _poly_trim(list(poly), f)
    if len(poly) <= 1:
        return []
    if not f.is_finite:
        return _rational_roots(poly)
    roots = []
    work = poly
    for c in sorted(_distinct_roots_mod_p(poly, f)):
        while len(work) > 1 and _poly_eval(work, c, f) == 0:
            roots.append(c)
            work, rem = _poly_divmod(work, [-c % f.p, 1], f)
            assert not rem
    return roots


def _distinct_roots_mod_p(poly: list, f: Field) -> list[int]:
    """The distinct roots of poly in F_p: the linear part gcd(poly, x^p - x),
    split by equal-degree factorization (Cantor-Zassenhaus)."""
    if f.p == 2:
        return [c for c in (0, 1) if _poly_eval(poly, c, f) == 0]
    x = [0, 1]
    xp = _poly_powmod(x, f.p, poly, f)
    g, _, _ = _poly_ext_gcd(poly, _poly_sub(xp, x, f), f)
    return _split_linear(g, f)


def _split_linear(g: list, f: Field) -> list[int]:
    """Roots of a monic, squarefree product of distinct linear factors over
    F_p (p odd), split by gcd((x + a)^((p-1)/2) - 1, g) for a = 0, 1, ..."""
    if len(g) <= 2:
        return [-g[0] % f.p] if len(g) == 2 else []
    for a in range(f.p):
        half = _poly_powmod([a, 1], (f.p - 1) // 2, g, f)
        h, _, _ = _poly_ext_gcd(g, _poly_sub(half, [1], f), f)
        if 1 < len(h) < len(g):
            return (_split_linear(h, f)
                    + _split_linear(_poly_divmod(g, h, f)[0], f))
    raise VerificationFailedError("equal-degree splitting found no split")


def _poly_powmod(base: list, e: int, mod: list, f: Field) -> list:
    """base^e modulo mod, by repeated squaring."""
    out = [f.one()]
    base = _poly_divmod(base, mod, f)[1]
    while e:
        if e & 1:
            out = _poly_divmod(_poly_mul(out, base, f), mod, f)[1]
        base = _poly_divmod(_poly_mul(base, base, f), mod, f)[1]
        e >>= 1
    return out


def _rational_roots(poly: list) -> list:
    """Rational roots with multiplicity, 0 first and then by (|numerator|,
    denominator), + before -.  The distinct nonzero roots are those of the
    squarefree part s of the integer-cleared polynomial, found as y/c for
    the integer roots y of the monic h(y) = c^(d-1)·s(y/c), where c is the
    leading coefficient and d the degree of s.  Each root a/b is then
    divided out as the integer factor b·x - a as often as it divides."""
    denlcm = math.lcm(1, *(c.denominator for c in poly))
    work = [int(c * denlcm) for c in poly]
    zeros = next(i for i, c in enumerate(work) if c != 0)
    roots = [Fraction(0)] * zeros
    work = work[zeros:]
    if len(work) == 1:
        return roots
    if len(work) == 2:
        return roots + [Fraction(-work[0], work[1])]
    g = [Fraction(c) for c in work]
    sq, _, _ = _poly_ext_gcd(g, [i * c for i, c in enumerate(g)][1:], QQ)
    s = _poly_divmod(g, sq, QQ)[0]
    den = math.lcm(1, *(c.denominator for c in s))
    s = [int(c * den) for c in s]
    content = math.gcd(*s)
    s = [c // content for c in s]
    d, lead = len(s) - 1, s[-1]
    h = [c * lead ** (d - 1 - i) for i, c in enumerate(s[:-1])] + [1]
    found = sorted((Fraction(y, lead) for y in _integer_roots(h)),
                   key=lambda c: (abs(c.numerator), c.denominator, c < 0))
    for c in found:
        a, b = c.numerator, c.denominator
        while len(work) > 1 and _int_homogeneous_eval(work, a, b) == 0:
            roots.append(c)
            work = _int_div_linear(work, a, b)
    return roots


def _integer_roots(h: list[int]) -> list[int]:
    """The integer roots of a monic squarefree h in Z[x] with h(0) != 0.

    They are found modulo the least odd prime p that keeps h squarefree,
    by `_distinct_roots_mod_p`, and Hensel-lifted by Newton steps modulo
    p^(2^k) > 2·|h(0)|; every integer root divides h(0), so it is the
    symmetric residue of its lift, checked exactly."""
    dh = [i * c for i, c in enumerate(h)][1:]
    p = 3
    while True:
        if _is_prime(p):
            f = Field(p)
            hp = [c % p for c in h]
            dp = _poly_trim([c % p for c in dh], f)
            if len(_poly_ext_gcd(hp, dp, f)[0]) == 1:
                break
        p += 2
    roots = _distinct_roots_mod_p(hp, f)
    mod = p
    while mod <= 2 * abs(h[0]):
        mod *= mod
        roots = [(r - _int_homogeneous_eval(h, r, 1)
                  * pow(_int_homogeneous_eval(dh, r, 1), -1, mod)) % mod
                 for r in roots]
    out = []
    for r in roots:
        y = r - mod if 2 * r > mod else r
        if _int_homogeneous_eval(h, y, 1) == 0:
            out.append(y)
    return out


def _int_homogeneous_eval(poly: list[int], a: int, b: int) -> int:
    """Σ c_i a^i b^(d-i): b^d times the value of poly at a/b."""
    acc = poly[-1]
    bp = 1
    for c in reversed(poly[:-1]):
        bp *= b
        acc = acc * a + c * bp
    return acc


def _int_div_linear(poly: list[int], a: int, b: int) -> list[int]:
    """poly / (b·x - a) for a root a/b in lowest terms; exact in Z[x] by
    Gauss's lemma."""
    q = [0] * (len(poly) - 1)
    carry = 0
    for i in range(len(poly) - 1, 0, -1):
        carry, rem = divmod(poly[i] + a * carry, b)
        assert rem == 0
        q[i - 1] = carry
    assert poly[0] + a * carry == 0
    return q


def _poly_eval(poly: Sequence, x, field: Field):
    """poly(x) by Horner's rule, reduced mod p once at the end."""
    acc = field.zero()
    for c in reversed(list(poly)):
        acc = acc * x + c
    return acc if field.p is None else acc % field.p


def minimal_polynomial(a: Algebra, x: Sequence, unit: Sequence) -> list:
    """Minimal polynomial of x relative to the given local unit.

    Powers are x^0 := unit, x, x*x, ...; the first linear dependence gives
    the monic minimal polynomial as an ascending coefficient list.
    """
    powers = [list(unit)]
    while True:
        cols = [list(c) for c in zip(*powers)]
        nxt = a.multiply(powers[-1], list(x))
        coeffs = solve_one(cols, nxt, a.field)
        span = echelonize(powers, a.dim, a.field)
        if coeffs is not None and span.dim == len(powers):
            return _modp([-c for c in coeffs], a.field.p) + [a.field.one()]
        powers.append(nxt)
        if len(powers) > a.dim + 1:
            raise VerificationFailedError("minimal polynomial search diverged")


# ---------------------------------------------------------------------------
# block decomposition of the semisimple quotient

@dataclass(frozen=True)
class Block:
    """One split matrix block of B/J: its central idempotent and matrix units."""

    idempotent: Vec
    n: int
    units: tuple[tuple[Vec, ...], ...]   # units[p][q], coordinates in B/J


@dataclass(frozen=True)
class StructureReport:
    radical: Subspace
    block_dims: tuple[int, ...] | None
    central_idempotents: tuple[Vec, ...]
    schur: bool
    quotient: Algebra
    onto_quotient: QuotientSpace
    blocks: tuple[Block, ...]
    failure: str | None = None


def _corner_split(s: Algebra, e: Sequence, y: Sequence) -> list | None:
    """Split the idempotent e using the element y = e*y*e, if possible.

    Returns a nontrivial idempotent below e, or None when the minimal
    polynomial of y admits no coprime factorization over the base field.
    """
    f = s.field
    mp = minimal_polynomial(s, y, e)
    roots = _poly_roots(mp, f)
    for lam in roots:
        lin = _modp([-lam, f.one()], f.p)
        fac = list(lin)
        rest, rem = _poly_divmod(mp, lin, f)
        while True:
            q2, r2 = _poly_divmod(rest, lin, f)
            if r2:
                break
            fac = _poly_mul(fac, lin, f)
            rest = q2
        if len(rest) <= 1:
            continue  # pure power of one linear factor: no split here
        g, sa, sb = _poly_ext_gcd(fac, rest, f)
        if len(g) != 1:
            continue
        # idempotent congruent to 1 on the `fac` component
        comp = _poly_mul(sb, rest, f)
        u = poly_eval_in_algebra(comp, y, e, s)
        if vec_is_zero(u) or u == list(e):
            continue
        return u
    return None


def _split_central_idempotents(s: Algebra, center: Subspace, seed: int,
                               ) -> tuple[list[list], bool]:
    """Primitive idempotents of the center; flag is False when some corner
    cannot be split over the base field."""
    f = s.field
    idems = [list(s.unit)]
    candidates = [list(v) for v in center.basis]
    rng = random.Random(seed)
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


def _find_primitive_idempotent(s: Algebra, e: Sequence, seed: int,
                               ) -> list | None:
    """A primitive idempotent below e inside the block e*S*e, or None
    when a corner refuses to split (non-split division part)."""
    f = s.field
    corner_rows = [s.multiply(s.multiply(list(e), s.basis_vector(k)), list(e))
                   for k in range(s.dim)]
    corner = echelonize(corner_rows, s.dim, f)
    if corner.dim == 1:
        return list(e)
    rng = random.Random(seed)

    def candidates():
        yield from corner.basis
        for _ in range(12):
            coeffs = [f.coerce(rng.randint(0, 5)) for _ in corner.basis]
            yield combine(coeffs, corner.basis, f)
        if f.is_finite and f.p ** corner.dim <= SWEEP_CAP:
            yield from span_elements(corner)
        # a random element of a split M_2 often has an irreducible quadratic
        # minimal polynomial, and in some dense bases over Q only 2-3 % of
        # the draws below split; products of corner basis vectors and 200
        # wider draws find a splitting element in nearly every case
        for u, v in itertools.product(corner.basis, repeat=2):
            yield s.multiply(list(u), list(v))
        for _ in range(200):
            coeffs = [f.coerce(rng.randint(-9, 9)) for _ in corner.basis]
            yield combine(coeffs, corner.basis, f)

    for y0 in candidates():
        y = s.multiply(s.multiply(list(e), list(y0)), list(e))
        u = _corner_split(s, e, y)
        if u is not None:
            rest = vec_sub(e, u, f)
            for half in (u, rest):
                found = _find_primitive_idempotent(s, half, seed)
                if found is not None:
                    return found
            return None
    return None


def _matrix_units_for_block(s: Algebra, e_central: Sequence, seed: int,
                            ) -> tuple[int, list[list[list]]] | None:
    """Exhibit matrix units for the block e_central * S; None if not split."""
    f = s.field
    block_rows = [s.multiply(list(e_central), s.basis_vector(k))
                  for k in range(s.dim)]
    block = echelonize(block_rows, s.dim, f)
    d = block.dim
    n = int(round(d ** 0.5))
    if n * n != d:
        return None
    e = _find_primitive_idempotent(s, list(e_central), seed)
    if e is None:
        return None
    # the simple left module of the block
    vspace = echelonize([s.multiply(list(w), e) for w in block.basis], s.dim, f)
    if vspace.dim != n:
        return None
    vbasis = [list(v) for v in vspace.basis]
    # rho(w) = matrix of left multiplication by w on the module
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
    units: list[list[list]] = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            rhs = [f.one() if (i == p and j == q) else f.zero()
                   for i in range(n) for j in range(n)]
            t = solve_one(system, rhs, f)
            if t is None:
                return None
            units[p][q] = combine(t, block.basis, f)
    # verify the matrix-unit relations exactly
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


def semisimple_blocks(b: Algebra, j: Subspace, seed: int = 0) -> StructureReport:
    """Block decomposition of b/j with explicit matrix units.

    On success schur=True and block_dims lists the matrix sizes ascending.
    When some minimal polynomial refuses to split over the base field the
    report carries schur=False and block_dims=None.
    """
    s, q = quotient_algebra(b, j)
    if s.dim == 0:
        raise InvalidInputError("quotient algebra is zero")
    center = centralizer(s, full_subspace(s.dim, s.field)).space
    idems, primitive = _split_central_idempotents(s, center, seed)
    if not primitive:
        return StructureReport(j, None, tuple(tuple(e) for e in idems), False,
                               s, q, (), failure="center does not split")
    blocks = []
    for e in idems:
        got = _matrix_units_for_block(s, e, seed)
        if got is None:
            return StructureReport(j, None, tuple(tuple(e) for e in idems),
                                   False, s, q, (),
                                   failure="a block is not a full matrix algebra")
        n, units = got
        blocks.append(Block(tuple(e), n,
                            tuple(tuple(tuple(u) for u in row) for row in units)))
    blocks.sort(key=lambda blk: (blk.n, blk.idempotent))
    dims = tuple(blk.n for blk in blocks)
    if sum(d * d for d in dims) != s.dim:
        raise VerificationFailedError("block dimensions do not add up")
    return StructureReport(j, dims, tuple(blk.idempotent for blk in blocks),
                           True, s, q, tuple(blocks))


def structure_report(b: Algebra, seed: int = 0) -> StructureReport:
    return semisimple_blocks(b, jacobson_radical(b), seed)


# ---------------------------------------------------------------------------
# idempotent lifting and the Wedderburn-Malcev complement

@dataclass(frozen=True)
class IdempotentSystem:
    parent: Algebra
    idempotents: tuple[Vec, ...]


def _newton_idempotent(b: Algebra, x: list, max_rounds: int) -> list:
    f = b.field
    e = x
    for _ in range(max_rounds):
        sq = b.multiply(e, e)
        if sq == e:
            return e
        cube = b.multiply(sq, e)
        e = combine([f.coerce(3), f.coerce(-2)], [sq, cube], f)
    if b.multiply(e, e) == e:
        return e
    raise VerificationFailedError("idempotent lifting did not converge")


def lift_idempotents(b: Algebra, j: Subspace, bar_system: Sequence[Sequence],
                     ) -> IdempotentSystem:
    """Lift a complete orthogonal system of B/J idempotents into B.

    Newton iteration e <- 3e^2 - 2e^3 through the nilpotent ideal, then
    sequential orthogonalization; completeness comes for free because
    1 - sum is an idempotent inside J.
    """
    sbar, q = quotient_algebra(b, j)
    f = b.field
    # verify the bar system really is complete and orthogonal
    total = zero_vec(sbar.dim, f)
    for i, e in enumerate(bar_system):
        e = list(map(f.coerce, e))
        if sbar.multiply(e, e) != e:
            raise InvalidInputError(f"bar idempotent {i} is not idempotent")
        for k, e2 in enumerate(bar_system):
            if k != i and not vec_is_zero(
                    sbar.multiply(e, list(map(f.coerce, e2)))):
                raise InvalidInputError("bar system is not orthogonal")
        total = vec_add(total, e, f)
    if total != list(sbar.unit):
        raise InvalidInputError("bar system does not sum to 1")
    rounds = 4 * (b.dim + 2)
    lifted: list[list] = []
    partial = zero_vec(b.dim, f)
    for e_bar in bar_system:
        g = _newton_idempotent(b, q.lift(list(map(f.coerce, e_bar))), rounds)
        rest = vec_sub(list(b.unit), partial, f)
        x = b.multiply(b.multiply(rest, g), rest)
        e = _newton_idempotent(b, x, rounds)
        lifted.append(e)
        partial = vec_add(partial, e, f)
    if partial != list(b.unit):
        raise VerificationFailedError("lifted system does not sum to 1")
    for i, e in enumerate(lifted):
        for k, e2 in enumerate(lifted):
            want = e if i == k else zero_vec(b.dim, f)
            if b.multiply(e, e2) != want:
                raise VerificationFailedError("lifted system not orthogonal")
        if q.project(e) != tuple(map(f.coerce, bar_system[i])):
            raise VerificationFailedError("lift does not reduce to its input")
    return IdempotentSystem(b, tuple(tuple(e) for e in lifted))


@dataclass(frozen=True)
class WMData:
    """Wedderburn-Malcev complement with lifted matrix units per block."""

    algebra: Algebra
    report: StructureReport
    complement: Subalgebra
    block_units: tuple[tuple[tuple[Vec, ...], ...], ...]   # in B coordinates
    block_idempotents: tuple[Vec, ...]                     # in B coordinates

    @property
    def radical(self) -> Subspace:
        return self.report.radical


def _corner_inverse(b: Algebra, f_unit: list, t: list) -> list:
    """Inverse of t inside the corner with unit f_unit, for t = f_unit - nil."""
    f = b.field
    nu = vec_sub(f_unit, t, f)
    acc = list(f_unit)
    term = list(f_unit)
    for _ in range(b.dim + 1):
        term = b.multiply(term, nu)
        if vec_is_zero(term):
            break
        acc = vec_add(acc, term, f)
    if b.multiply(acc, t) != f_unit or b.multiply(t, acc) != f_unit:
        raise VerificationFailedError("corner inverse failed")
    return acc


def wedderburn_data(b: Algebra, seed: int = 0) -> WMData:
    """Compute B = A_0 (+) J with matrix units of A_0 lifted from B/J."""
    rep = structure_report(b, seed)
    if not rep.schur:
        raise NotSplitError(rep.failure or "semisimple quotient is not split")
    f = b.field
    q = rep.onto_quotient
    s = rep.quotient
    if rep.radical.dim == 0:
        # B itself is semisimple: units live in B already (q is identity-like)
        block_units = tuple(
            tuple(tuple(tuple(q.lift(list(u))) for u in row) for row in blk.units)
            for blk in rep.blocks)
        block_idems = tuple(tuple(q.lift(list(blk.idempotent)))
                            for blk in rep.blocks)
        comp = Subalgebra(b, full_subspace(b.dim, f))
        return WMData(b, rep, comp, block_units, block_idems)
    # lift the complete system of diagonal bar units
    diag_bars = []
    index = []   # (block, p) per diagonal idempotent
    for bi, blk in enumerate(rep.blocks):
        for p in range(blk.n):
            diag_bars.append(list(blk.units[p][p]))
            index.append((bi, p))
    lifted = lift_idempotents(b, rep.radical, diag_bars)
    diag = {pos: list(e) for pos, e in zip(index, lifted.idempotents)}
    block_units = []
    block_idems = []
    for bi, blk in enumerate(rep.blocks):
        n = blk.n
        f11 = diag[(bi, 0)]
        a_of = {0: f11}
        b_of = {0: f11}
        for p in range(1, n):
            fpp = diag[(bi, p)]
            a_p = b.multiply(b.multiply(f11, q.lift(list(blk.units[0][p]))), fpp)
            b_p = b.multiply(b.multiply(fpp, q.lift(list(blk.units[p][0]))), f11)
            t = b.multiply(a_p, b_p)
            tinv = _corner_inverse(b, f11, t)
            b_p = b.multiply(b_p, tinv)
            if b.multiply(a_p, b_p) != f11 or b.multiply(b_p, a_p) != fpp:
                raise VerificationFailedError("matrix-unit lifting failed")
            a_of[p] = a_p
            b_of[p] = b_p
        units = [[None] * n for _ in range(n)]
        for p in range(n):
            for q2 in range(n):
                if p == 0:
                    u = a_of[q2] if q2 != 0 else f11
                elif q2 == 0:
                    u = b_of[p]
                else:
                    u = b.multiply(b_of[p], a_of[q2])
                units[p][q2] = u
        # exact verification of the lifted units
        for p in range(n):
            for q2 in range(n):
                if q.project(units[p][q2]) != blk.units[p][q2]:
                    raise VerificationFailedError("lifted unit does not reduce")
                for r in range(n):
                    for t2 in range(n):
                        prod = b.multiply(units[p][q2], units[r][t2])
                        want = units[p][t2] if q2 == r else zero_vec(b.dim, f)
                        if prod != want:
                            raise VerificationFailedError(
                                "lifted matrix units do not multiply correctly")
        block_units.append(tuple(tuple(tuple(u) for u in row) for row in units))
        diagonal = [units[p][p] for p in range(n)]
        block_idems.append(tuple(combine([f.one()] * n, diagonal, f)))
    rows = [list(u) for blk in block_units for row in blk for u in row]
    comp_space = echelonize(rows, b.dim, f)
    if comp_space.dim != sum(blk.n ** 2 for blk in rep.blocks):
        raise VerificationFailedError("complement has wrong dimension")
    if subspace_intersection(comp_space, rep.radical).dim != 0:
        raise VerificationFailedError("complement meets the radical")
    if subspace_sum(comp_space, rep.radical).dim != b.dim:
        raise VerificationFailedError("complement plus radical is not B")
    comp = subalgebra_from_rows(b, rows, check=True)
    return WMData(b, rep, comp, tuple(block_units), tuple(block_idems))


def wedderburn_malcev_complement(b: Algebra, seed: int = 0) -> Subalgebra:
    return wedderburn_data(b, seed).complement


# ---------------------------------------------------------------------------
# conjugating unit between idempotent systems

def conjugating_unit(b: Algebra, e_sys: IdempotentSystem, f_sys: IdempotentSystem,
                     seed: int = 0) -> list | None:
    """An invertible a with f_i = a e_i a^{-1}, or None if none is found.

    Searches f_i B e_i for witnesses a_i with two-sided partners
    b_i in e_i B f_i (a_i b_i = f_i, b_i a_i = e_i); deterministic sweep
    over F_p, bounded integer combinations over Q.
    """
    if len(e_sys.idempotents) != len(f_sys.idempotents):
        raise InvalidInputError("systems must have equal length")
    f = b.field
    total_a = zero_vec(b.dim, f)
    total_b = zero_vec(b.dim, f)
    for e, fi in zip(e_sys.idempotents, f_sys.idempotents):
        e = list(e)
        fi = list(fi)
        fbe = echelonize([b.multiply(b.multiply(fi, b.basis_vector(k)), e)
                          for k in range(b.dim)], b.dim, f)
        ebf = echelonize([b.multiply(b.multiply(e, b.basis_vector(k)), fi)
                          for k in range(b.dim)], b.dim, f)
        witness = None
        for cand in _witness_candidates(fbe, f):
            partner = _solve_partner(b, cand, ebf, e, fi)
            if partner is not None:
                witness = (cand, partner)
                break
        if witness is None:
            return None
        total_a = vec_add(total_a, witness[0], f)
        total_b = vec_add(total_b, witness[1], f)
    if b.multiply(total_a, total_b) != list(b.unit):
        return None
    if b.multiply(total_b, total_a) != list(b.unit):
        return None
    for e, fi in zip(e_sys.idempotents, f_sys.idempotents):
        conj = b.multiply(b.multiply(total_a, list(e)), total_b)
        if conj != list(fi):
            return None
    return total_a


def _witness_candidates(space: Subspace, f: Field):
    if space.dim == 0:
        return
    if f.is_finite and f.p ** space.dim <= SWEEP_CAP:
        elements = span_elements(space)
    else:
        box = [f.coerce(c) for c in (0, 1, -1, 2, -2)]
        elements = (combine(coeffs, space.basis, f)
                    for coeffs in itertools.product(box, repeat=space.dim))
    for x in elements:
        if not vec_is_zero(x):
            yield x


def _solve_partner(b: Algebra, a_i: list, ebf: Subspace, e: list, fi: list,
                   ) -> list | None:
    """b_i in the given space with a_i b_i = fi and b_i a_i = e."""
    f = b.field
    cols = []
    for w in ebf.basis:
        left = b.multiply(a_i, list(w))
        right = b.multiply(list(w), a_i)
        cols.append(left + right)
    if not cols:
        return None
    system = [list(r) for r in zip(*cols)]
    rhs = fi + e
    t = solve_one(system, rhs, f)
    if t is None:
        return None
    return combine(t, ebf.basis, f)


# ---------------------------------------------------------------------------
# simple modules

def simple_modules(b: Algebra, seed: int = 0) -> list[Module]:
    """One simple module per block, with explicit action matrices."""
    rep = structure_report(b, seed)
    if not rep.schur:
        raise NotSplitError(rep.failure or "blocks are not split")
    s = rep.quotient
    q = rep.onto_quotient
    out = []
    for blk in rep.blocks:
        n = blk.n
        col_basis = [list(blk.units[p][0]) for p in range(n)]
        colspace = echelonize(col_basis, s.dim, s.field)
        # column space as a left S-module along the first-column units
        def act_matrix(bk_vec, col_basis=col_basis, colspace=colspace):
            cols = []
            for v in col_basis:
                img = s.multiply(q.project(bk_vec), v)
                cols.append(_coords_in_rows(img, col_basis, colspace))
            return [list(r) for r in zip(*cols)]
        mats = [act_matrix(b.basis_vector(k)) for k in range(b.dim)]
        out.append(make_module(b, mats, check=True))
    return out


def _coords_in_rows(v: list, rows: list[list], span: Subspace) -> list:
    """Coordinates of v in the (possibly non-echelon) row list."""
    cols = [list(c) for c in zip(*rows)]
    coeffs = solve_one(cols, v, span.field)
    if coeffs is None:
        raise VerificationFailedError("vector not in span")
    return coeffs
