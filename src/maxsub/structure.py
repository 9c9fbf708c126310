"""Radical, semisimple blocks, idempotent lifting, Wedderburn-Malcev.

The radical over Q is the kernel of the trace form of the left regular
representation, read off the integer table.  Over a prime field the trace
form only bounds the radical from above; the radical is the last term of
the Cohen-Ivanyos-Wales filtration, which refines the trace-form kernel by
the traces of p^i-th powers of integer lifts.  Every answer is verified (a
nilpotent two-sided ideal whose quotient has zero radical by the same
computation); a decomposition reads only the quotient B/J that check
builds, or B when J = 0: its blocks and idempotent lifts come off one report.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from . import poly
from .algebra import (
    Algebra,
    Subalgebra,
    _pack,
    _product_span,
    centralizer,
    invert_element,
    subalgebra_from_rows,
)
from .errors import (
    InvalidInputError,
    NotSplitError,
    VerificationFailedError,
)
from .linalg import (
    QuotientSpace,
    Subspace,
    Vec,
    _Echelon,
    _ints,
    _modp,
    combine,
    echelonize,
    full_subspace,
    kernel,
    mat_vec,
    quotient_space,
    solve_linear,
    solve_one,
    span_elements,
    subspace_intersection,
    subspace_sum,
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
    """Two-sided ideal generated by the given elements: B·S·B, which holds
    S because B is unital."""
    full = full_subspace(a.dim, a.field)
    s = echelonize(rows, a.dim, a.field)
    return _product_span(a, _product_span(a, full, s), full)


def is_two_sided_ideal(a: Algebra, s: Subspace) -> bool:
    """r·b_k and b_k·r lie in s for each row r of s: the columns of D·L_r
    and D·R_r."""
    return all(s.holds_ints(col) for r in s.int_basis[1]
               for op in (a._left_ints(r), a._right_ints(r)) for col in zip(*op))


def _flanked_span(a: Algebra, x: Sequence, y: Sequence | None = None,
                  ) -> Subspace:
    """The span x·B·y, or x·B when y is None: the columns x·b_k of D·L_x,
    each multiplied by y on integer rows."""
    p = a.field.p
    cols = zip(*a._left_ints(_ints(x, p)[1]))
    if y is not None:
        yi = _ints(y, p)[1]
        cols = (a._multiply_ints(col, yi) for col in cols)
    return _Echelon(a.field, cols).subspace(a.dim)


def _nilpotency(a: Algebra, s: Subspace) -> int | None:
    """Least m with s^m = 0, or None once the chain of powers stops
    shrinking (s need not be an ideal)."""
    power = s
    m = 1
    while power.dim > 0:
        nxt = _product_span(a, power, s)
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
    """Kernel of (x, y) -> tr(L_x L_y); contains J(a) in any characteristic.
    On the integer products C, tl[k] = Σ_m C_kmm = D·tr(L_{b_k}) and gram[i][j]
    = Σ_k C_ijk·tl[k] = D²·tr(L_{b_i b_j}), which has the same kernel."""
    rows = a.products[1]
    tl = [sum(c for m, row in group for k, c in row if k == m)
          for group in rows]
    gram = [[0] * a.dim for _ in rows]
    for i, group in enumerate(rows):
        for j, row in group:
            gram[i][j] = sum(c * tl[k] for k, c in row)
    return kernel(gram, a.dim, a.field)


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
    """J(a) by the Cohen-Ivanyos-Wales filtration (Ronyai 1990; Cohen,
    Ivanyos and Wales 1997) of the left regular representation.

    With n = dim a and q = p^i, g_i(x) = (Tr(L^q) mod pq) / q for any
    integer lift L of L_x; it is linear on I_{i-1}.  I_{-1} = a and
    I_i = {x in I_{i-1} : g_i(b_m x) = 0 for every m}, so I_0 is the
    trace-form kernel, and I_l = J(a) for the largest l with p^l <= n.
    Over Q the filtration stops at I_0, which is J(a) in characteristic 0.
    """
    f = a.field
    p, n = f.p, a.dim
    space, q = trace_form_radical(a), p
    while p is not None and q <= n and space.dim > 0:
        # g_i on the echelon basis of I_{i-1}, carried to a functional phi
        # on a that agrees with g_i on I_{i-1}
        phi = zero_vec(n, f)
        for w, pc in zip(space.basis, space.pivots):
            g, rest = divmod(_power_trace(a._left_ints(w), q, p * q), q)
            if rest:
                raise VerificationFailedError(
                    "trace functional is not divisible by p^i")
            phi[pc] = g
        # x = sum c_u w_u lies in I_i iff sum_u c_u phi(b_m w_u) = 0 for all
        # m: forms[m][j] = phi(b_m b_j) = sum_k c_mjk phi_k, at D = 1 over F_p
        forms = [[0] * n for _ in range(n)]
        for form, group in zip(forms, a.products[1]):
            for j, row in group:
                form[j] = sum(t * phi[k] for k, t in row) % p
        ker = kernel([mat_vec(space.basis, r, f) for r in forms], space.dim, f)
        space = echelonize([combine(c, space.basis, f) for c in ker.basis], n, f)
        q *= p
    return space


def jacobson_radical(a: Algebra) -> Subspace:
    """The Jacobson radical as a canonical subspace, always verified.  A
    zero candidate is checked already: the filtration just run is that of
    a/0 = a, the quotient check of `verify_radical`."""
    cand = trace_functional_radical(a)
    if cand.dim > 0:
        verify_radical(a, cand)
    return cand


def verify_radical(a: Algebra, j: Subspace) -> tuple[Algebra, QuotientSpace]:
    """Check the radical candidate: a nilpotent two-sided ideal whose
    quotient has zero radical by the traces (exact over Q and F_p at every
    size).  Returns that quotient a/j and its projection/section pair."""
    if not is_two_sided_ideal(a, j):
        raise VerificationFailedError("radical candidate is not an ideal")
    if not is_nilpotent_space(a, j):
        raise VerificationFailedError("radical candidate is not nilpotent")
    quot, q = quotient_algebra(a, j)
    if trace_functional_radical(quot).dim > 0:
        raise VerificationFailedError("quotient still has a radical")
    return quot, q


def quotient_algebra(a: Algebra, ideal: Subspace) -> tuple[Algebra, QuotientSpace]:
    """The quotient algebra a/ideal plus the projection/section pair."""
    q = quotient_space(a.dim, ideal.basis, a.field)
    # the lifts of the quotient basis are the basis vectors at the free
    # coordinates: their integer products carry the denominator of the
    # products, and their projections that of the ideal's basis too
    lifts = [[int(k == c) for k in range(a.dim)] for c in q.free_coords]
    products = _pack(a.field.p, a.products[0] * q.relations.int_basis[0], (
        [(j, enumerate(q._project_ints(a._multiply_ints(x, y))))
         for j, y in enumerate(lifts)] for x in lifts))
    names = tuple(f"q{i+1}" for i in range(q.dim))
    return Algebra(a.field, q.dim, names, q.project(a.unit), products), q


# ---------------------------------------------------------------------------
# minimal polynomials

def poly_eval_in_algebra(poly: Sequence, x: Sequence, unit: Sequence,
                         a: Algebra) -> list:
    """Evaluate Sum c_k X^k at an algebra element, constant term on `unit`."""
    powers = [list(unit)]
    for _ in poly[1:]:
        powers.append(a.multiply(powers[-1], list(x)))
    return combine(poly, powers, a.field)


def minimal_polynomial(a: Algebra, x: Sequence, unit: Sequence) -> list:
    """Minimal polynomial of x relative to the given local unit.

    Powers x^0 := unit, x, x*x, ... join one echelon basis until the first
    dependent one, whose coordinates give the monic minimal polynomial as
    an ascending coefficient list.
    """
    f = a.field
    span = _Echelon(f)
    powers = []
    nxt = list(unit)
    while span.add(_ints(nxt, f.p)[1]) is not None:
        powers.append(nxt)
        nxt = a.multiply(nxt, list(x))
    if not powers:
        raise VerificationFailedError("minimal polynomial of a zero unit")
    coeffs = solve_one([list(c) for c in zip(*powers)], nxt, f)
    return _modp([-c for c in coeffs], f.p) + [f.one()]


# ---------------------------------------------------------------------------
# block decomposition of the semisimple quotient

@dataclass(frozen=True)
class Block:
    """One split matrix block of B/J: its central idempotent and matrix units."""

    idempotent: Vec
    n: int
    units: tuple[tuple[Vec, ...], ...]   # units[p][q], coordinates in B/J


def _corner_split(s: Algebra, e: Sequence, y: Sequence) -> list | None:
    """Split the idempotent e using the element y = e*y*e, if possible.

    Only linear factors are split off.  For the first root λ of the
    minimal polynomial, of multiplicity m, u is 1 modulo (x - λ)^m and 0
    modulo the cofactor, which is coprime to it; when the cofactor is not
    constant, u is neither 0 nor e.  Returns None when the polynomial has
    no root or is a power of x - λ (and so has no other root), even if it
    has coprime factors of higher degree.
    """
    f = s.field
    mp = minimal_polynomial(s, y, e)
    roots = poly.roots(mp, f)
    if not roots:
        return None
    lam = roots[0]
    fac = [f.one()]
    for _ in range(roots.count(lam)):
        fac = poly.mul(fac, _modp([-lam, f.one()], f.p), f)
    rest = poly.quo_rem(mp, fac, f)[0]
    if len(rest) <= 1:
        return None
    _, _, sb = poly.ext_gcd(fac, rest, f)
    return poly_eval_in_algebra(poly.mul(sb, rest, f), y, e, s)


def _split_central_idempotents(s: Algebra, center: Subspace,
                               ) -> tuple[list[list], bool]:
    """Primitive idempotents of the center; flag is False when some corner
    cannot be split over the base field.

    Each split takes the first (candidate, e) pair, in that order, whose
    corner splits.  Pairs that never split are skipped: those that failed
    once, and those with e primitive (dim e·Z = 1, so e·z·e = λe).
    """
    f = s.field
    idems = [tuple(s.unit)]
    zs = center.int_basis[1]
    candidates = [list(v) for v in center.basis]
    rng = random.Random(0)  # a fixed seed: every run tries the same candidates
    for _ in range(8):
        coeffs = [f.coerce(rng.randint(0, 5)) for _ in center.basis]
        candidates.append(combine(coeffs, center.basis, f))

    @functools.cache
    def primitive(e: tuple) -> bool:
        ei = _ints(e, f.p)[1]
        return len(_Echelon(f, (s._multiply_ints(ei, z) for z in zs)).rows) == 1

    failed = set()
    while True:
        pair = next(((k, e) for k in range(len(candidates)) for e in idems
                     if (k, e) not in failed and not primitive(e)), None)
        if pair is None:
            return [list(e) for e in idems], all(map(primitive, idems))
        k, e = pair
        u = _corner_split(s, e, s.multiply(s.multiply(e, candidates[k]), e))
        if u is None:
            failed.add(pair)
        else:
            idems.remove(e)
            idems += [tuple(u), tuple(vec_sub(e, u, f))]


def _find_primitive_idempotent(s: Algebra, e: Sequence) -> list | None:
    """A primitive idempotent below e inside the block e*S*e, or None
    when a corner refuses to split (non-split division part)."""
    f = s.field
    corner = _flanked_span(s, e, e)
    if corner.dim == 1:
        return list(e)
    # a fixed seed: every run tries the same candidates.  No recorded report
    # depends on the draws, but which dense M_2(Q) bases miss a split does
    # (the strict xfails in tests/test_metamorphic.py)
    rng = random.Random(0)

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

    # every candidate lies in the corner, where e·y·e = y
    for y in candidates():
        u = _corner_split(s, e, y)
        if u is not None:
            rest = vec_sub(e, u, f)
            for half in (u, rest):
                found = _find_primitive_idempotent(s, half)
                if found is not None:
                    return found
            return None
    return None


def _are_matrix_units(a: Algebra, units: list[list[list]]) -> bool:
    """u_pq·u_rt = δ_qr·u_pt for all p, q, r, t, checked exactly on integer
    rows: over one common denominator D of the units, the product of D·u_pq
    and D·u_rt is D_table·D²·u_pq·u_rt (`Algebra._multiply_ints`), which is
    compared with D_table·D times D·u_pt (mod p over F_p, where both
    scales are 1)."""
    n, m, p = len(units), a.dim, a.field.p
    d, flat = _ints([x for row in units for u in row for x in u], p)
    ints = [flat[k * m:(k + 1) * m] for k in range(n * n)]   # u_pq at p·n + q
    scale = a.products[0] * d
    zero = [0] * m
    for i, j, k, l in itertools.product(range(n), repeat=4):
        want = [scale * x for x in ints[i * n + l]] if j == k else zero
        if _modp(a._multiply_ints(ints[i * n + j], ints[k * n + l]), p) != want:
            return False
    return True


def _matrix_units_for_block(s: Algebra, e_central: Sequence,
                            ) -> tuple[int, list[list[list]]] | None:
    """Exhibit matrix units for the block e_central * S; None if not split."""
    f = s.field
    mul = s._multiply_ints
    block = _flanked_span(s, e_central)
    n = math.isqrt(block.dim)
    if n * n != block.dim:
        return None
    e = _find_primitive_idempotent(s, list(e_central))
    if e is None:
        return None
    # the simple left module of the block
    ws = block.int_basis[1]
    ei = _ints(e, f.p)[1]
    vspace = _Echelon(f, (mul(w, ei) for w in ws)).subspace(s.dim)
    if vspace.dim != n:
        return None
    # column k of the system is rho(W_k), the matrix of left multiplication
    # by the integer block row W_k on the module, flattened row by row:
    # entry (i, j) is coordinate i of W_k·v_j, read at the pivots of the
    # integer product W_k·V_j, which carries the scale D_table·D_v
    vs = vspace.int_basis[1]
    images = []
    for w in ws:
        prods = [mul(w, v) for v in vs]
        if not all(map(vspace.holds_ints, prods)):
            raise InvalidInputError("vector not in subspace")
        images.append([[x[q] for q in vspace.pivots] for x in prods])
    system = [[im[j][i] for im in images] for i in range(n) for j in range(n)]
    # unit (p, q) is Σ y_k·W_k for the solution y of rho(u) = E_pq at that
    # scale: column p·n + q of the scaled identity
    scale = s.products[0] * vspace.int_basis[0]
    rhs = [[scale if r == c else 0 for c in range(n * n)] for r in range(n * n)]
    sol, _ = solve_linear(system, rhs, f)
    if sol is None:
        return None
    cols = list(zip(*sol))
    units = [[combine(cols[p * n + q], ws, f) for q in range(n)]
             for p in range(n)]
    if not _are_matrix_units(s, units):
        return None
    diagonal = [units[p][p] for p in range(n)]
    if combine([f.one()] * n, diagonal, f) != list(e_central):
        return None
    return n, units


@dataclass(frozen=True)
class StructureReport:
    """An algebra's verified radical J, its quotient B/J and the blocks of
    B/J, found on first use: a caller that reads only J (the semisimple
    verdict of `classify_type`) pays for no decomposition.  On success
    schur=True and block_dims lists the matrix sizes ascending; when some
    minimal polynomial refuses to split over the base field, schur=False,
    block_dims=None and failure says why."""

    radical: Subspace
    quotient: Algebra
    onto_quotient: QuotientSpace

    @functools.cached_property
    def _split(self) -> tuple[tuple[Vec, ...], tuple[Block, ...], str | None]:
        """The central idempotents, the blocks and the failure, if any."""
        s = self.quotient
        center = centralizer(s, full_subspace(s.dim, s.field)).space
        idems, primitive = _split_central_idempotents(s, center)
        idems = tuple(tuple(e) for e in idems)
        if not primitive:
            return idems, (), "center does not split"
        blocks = []
        for e in idems:
            got = _matrix_units_for_block(s, e)
            if got is None:
                return idems, (), "a block is not a full matrix algebra"
            n, units = got
            blocks.append(Block(e, n, tuple(tuple(tuple(u) for u in row)
                                            for row in units)))
        blocks.sort(key=lambda blk: (blk.n, blk.idempotent))
        if sum(blk.n * blk.n for blk in blocks) != s.dim:
            raise VerificationFailedError("block dimensions do not add up")
        return tuple(blk.idempotent for blk in blocks), tuple(blocks), None

    central_idempotents = property(lambda self: self._split[0])
    blocks = property(lambda self: self._split[1])
    failure = property(lambda self: self._split[2])
    schur = property(lambda self: self.failure is None)
    block_dims = property(lambda self: tuple(blk.n for blk in self.blocks)
                          if self.schur else None)


def structure_report(b: Algebra) -> StructureReport:
    """The report at the radical, checked as `jacobson_radical` checks it:
    a zero radical needs no second filtration, and B/0 is B itself."""
    j = trace_functional_radical(b)
    s, q = (verify_radical(b, j) if j.dim
            else (b, quotient_space(b.dim, (), b.field)))
    if s.dim == 0:
        raise InvalidInputError("quotient algebra is zero")
    return StructureReport(j, s, q)


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


def _check_complete_system(a: Algebra, system: list[list], kind: str):
    """Raise InvalidInputError unless the vectors are idempotents of a that
    are pairwise orthogonal and sum to 1."""
    for i, e in enumerate(system):
        if a.multiply(e, e) != e:
            raise InvalidInputError(f"{kind} idempotent {i} is not idempotent")
        if any(k != i and not vec_is_zero(a.multiply(e, e2))
               for k, e2 in enumerate(system)):
            raise InvalidInputError(f"{kind} system is not orthogonal")
    if combine([a.field.one()] * len(system), system, a.field) != list(a.unit):
        raise InvalidInputError(f"{kind} system does not sum to 1")


def lift_idempotents(b: Algebra, rep: StructureReport,
                     bar_system: Sequence[Sequence]) -> IdempotentSystem:
    """Lift a complete orthogonal system of B/J idempotents into B.

    The bars are coordinates in the quotient of b's structure report rep.
    Newton iteration e <- 3e^2 - 2e^3 through the nilpotent ideal, then
    sequential orthogonalization; completeness comes for free because
    1 - sum is an idempotent inside J.
    """
    q = rep.onto_quotient
    f = b.field
    bars = [list(map(f.coerce, e)) for e in bar_system]
    _check_complete_system(rep.quotient, bars, "bar")
    rounds = 4 * (b.dim + 2)
    lifted: list[list] = []
    partial = zero_vec(b.dim, f)
    for e_bar in bars:
        g = _newton_idempotent(b, q.lift(e_bar), rounds)
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
        if q.project(e) != tuple(bars[i]):
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


def wedderburn_data(b: Algebra) -> WMData:
    """Compute B = A_0 (+) J with matrix units of A_0 lifted from B/J."""
    return _wedderburn_data_of(b, structure_report(b))


def _wedderburn_data_of(b: Algebra, rep: StructureReport) -> WMData:
    """`wedderburn_data` from the structure report of b already built."""
    if not rep.schur:
        raise NotSplitError(rep.failure)
    f = b.field
    q = rep.onto_quotient
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
    index = [(bi, p) for bi, blk in enumerate(rep.blocks) for p in range(blk.n)]
    diag_bars = [list(rep.blocks[bi].units[p][p]) for bi, p in index]
    lifted = lift_idempotents(b, rep, diag_bars)
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
        units = [[a_of[q2] if p == 0 else b_of[p] if q2 == 0
                  else b.multiply(b_of[p], a_of[q2]) for q2 in range(n)]
                 for p in range(n)]
        # exact verification of the lifted units
        if any(q.project(units[p][q2]) != blk.units[p][q2]
               for p in range(n) for q2 in range(n)):
            raise VerificationFailedError("lifted unit does not reduce")
        if not _are_matrix_units(b, units):
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


def wedderburn_malcev_complement(b: Algebra) -> Subalgebra:
    return wedderburn_data(b).complement


# ---------------------------------------------------------------------------
# B/J on its simple modules: conjugating units and simple modules

def _block_matrices(rep: StructureReport, bars: Sequence[Sequence]) -> list:
    """For each block k of rep and each bar (coordinates in B/J), the
    n_k×n_k matrix of the bar on the simple module V_k = span u_p0.

    The matrix units of all blocks are a basis of B/J, so x̄ = Σ m_pq·u_pq
    and x̄·u_q0 = Σ_p m_pq·u_p0: one solve against the units gives every
    m_pq."""
    units = [u for blk in rep.blocks for row in blk.units for u in row]
    coeffs, _ = solve_linear(list(zip(*units)), list(zip(*bars)),
                             rep.quotient.field)
    if coeffs is None:
        raise VerificationFailedError("matrix units do not span B/J")
    out, start = [], 0
    for blk in rep.blocks:
        n = blk.n
        out.append([[[coeffs[start + p * n + q][j] for q in range(n)]
                     for p in range(n)] for j in range(len(bars))])
        start += n * n
    return out


def conjugating_unit(b: Algebra, e_sys: IdempotentSystem,
                     f_sys: IdempotentSystem) -> list | None:
    """A unit u with u·e_i·u⁻¹ = f_i for every i, or None when the two
    complete orthogonal systems of b are not conjugate.

    Such systems are conjugate iff their images in B/J are, that is iff ē_i
    and f̄_i have the same rank on each simple module V_k of
    `structure_report(b)`.  Then ā maps a basis of each ē_i·V_k onto one
    of f̄_i·V_k, read off the matrix units, and lifts to a unit a.  With
    e'_i = a·e_i·a⁻¹ ≡ f_i modulo J, c = Σ f_i·e'_i ≡ 1 is a unit with
    c·e'_i = f_i·c, so u = c·a = Σ f_i·a·e_i; it is checked exactly.
    Raises NotSplitError when B/J is not split, and InvalidInputError
    unless both systems belong to b, are complete and orthogonal, and have
    equal length.
    """
    if len(e_sys.idempotents) != len(f_sys.idempotents):
        raise InvalidInputError("systems must have equal length")
    if e_sys.parent is not b or f_sys.parent is not b:
        raise InvalidInputError("idempotent system of another algebra")
    f = b.field
    es, fs = ([list(map(f.coerce, e)) for e in sys.idempotents]
              for sys in (e_sys, f_sys))
    _check_complete_system(b, es, "source")
    _check_complete_system(b, fs, "target")
    rep = structure_report(b)
    if not rep.schur:
        raise NotSplitError(rep.failure)
    q, m = rep.onto_quotient, len(es)
    coeffs, units = [], []
    for blk, mats in zip(rep.blocks,
                         _block_matrices(rep, [q.project(x) for x in es + fs])):
        # the image of each idempotent matrix, as basis rows
        images = [echelonize(zip(*mat), blk.n, f).basis for mat in mats]
        if any(len(u) != len(v) for u, v in zip(images, images[m:])):
            return None
        # ā_k·P = Q for the image bases P of the ē_i and Q of the f̄_i as
        # columns, so ā_kᵀ solves Pᵀ·X = Qᵀ
        at, _ = solve_linear([r for im in images[:m] for r in im],
                             [r for im in images[m:] for r in im], f)
        coeffs += [at[t][s] for s in range(blk.n) for t in range(blk.n)]
        units += [u for row in blk.units for u in row]
    a = q.lift(combine(coeffs, units, f))
    unit = combine([f.one()] * m, [b.multiply(b.multiply(fi, a), e)
                                   for e, fi in zip(es, fs)], f)
    if invert_element(b, unit) is None or any(
            b.multiply(unit, e) != b.multiply(fi, unit)
            for e, fi in zip(es, fs)):
        raise VerificationFailedError("conjugating unit failed its check")
    return unit


def simple_modules(b: Algebra) -> list[Module]:
    """One simple module per block of B/J, in the order of the structure
    report: V_k = span u_p0 of its matrix units, on which each basis
    vector of b acts by the matrix of its image (`_block_matrices`)."""
    rep = structure_report(b)
    if not rep.schur:
        raise NotSplitError(rep.failure)
    q = rep.onto_quotient
    bars = [q.project(b.basis_vector(k)) for k in range(b.dim)]
    return [make_module(b, mats, check=True)
            for mats in _block_matrices(rep, bars)]
