"""Exact linear algebra over Q and F_p.

Scalars are `fractions.Fraction` over the rationals and plain ints in
[0, p) over a prime field.  Vectors and matrices are tuples/lists of
scalars; no floating point appears anywhere.  Subspaces are kept in
reduced row-echelon form, so equality of subspaces is equality of their
canonical bases.

Vectors, matrices and polynomials are added and multiplied natively and
reduced mod p once per result (`_modp`), and products in an algebra run
on its integer structure constants over both fields; no library code
calls the per-scalar `Field.add`, `Field.sub`, `Field.mul` or `Field.neg`.

Both fields run one elimination core on integer rows.  A vector is
cleared to integers over a common denominator (its lcm denominator over
Q, 1 over F_p), rows are combined fraction-free, and each row is kept in
a normal form: content 1 with a positive pivot over Q, entries mod p with
pivot 1 over F_p.  Field scalars are built only where a result leaves
this module.  A `Subspace` gives its basis as integer rows over a common
denominator (cached once over Q), so membership tests, coordinates and
quotient projections reduce on integers.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DimensionError,
    FieldMismatchError,
    InvalidInputError,
    NotFiniteFieldError,
)

Scalar = Fraction | int
Vec = tuple[Scalar, ...]


_PRIME_LIMIT = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2..37: deterministic for every n < 2^64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (p is None) or the prime field F_p: its zero, one,
    coercion, inverses, parsing and elements.  Sums and products are
    native Python arithmetic, reduced by `_modp`."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and self.p >= _PRIME_LIMIT:
            raise InvalidInputError(f"{self.p} is not below 2^64")
        if self.p is not None and not _is_prime(self.p):
            raise InvalidInputError(f"{self.p} is not prime")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def zero(self) -> Scalar:
        return 0 if self.p is not None else Fraction(0)

    def one(self) -> Scalar:
        return 1 if self.p is not None else Fraction(1)

    def coerce(self, x) -> Scalar:
        """x in the field; over F_p a Fraction a/b is a·b⁻¹ mod p."""
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise InvalidInputError(f"{x} has no value mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    # add, mul, sub and neg have no caller in the library: they are kept
    # while bench/tracing.py wraps them by name for its traced runs
    def add(self, a, b) -> Scalar:
        if self.p is not None:
            return (a + b) % self.p
        return a + b

    def mul(self, a, b) -> Scalar:
        if self.p is not None:
            return (a * b) % self.p
        return a * b

    def sub(self, a, b) -> Scalar:
        if self.p is not None:
            return (a - b) % self.p
        return a - b

    def neg(self, a) -> Scalar:
        if self.p is not None:
            return (-a) % self.p
        return -a

    def inv(self, a) -> Scalar:
        if self.p is not None:
            a %= self.p
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a

    def elements(self) -> Iterator[Scalar]:
        if self.p is None:
            raise NotFiniteFieldError("cannot enumerate the rationals")
        return iter(range(self.p))

    def parse(self, token: str) -> Scalar:
        try:
            if self.p is not None:
                return int(token) % self.p
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad scalar literal {token!r}") from exc

    def fmt(self, x) -> str:
        return str(x)

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


QQ = Field(None)


def GF(p: int) -> Field:
    return Field(p)


# ---------------------------------------------------------------------------
# vectors and matrices (lists of lists; tuples where frozen)

def zero_vec(n: int, field: Field) -> list:
    z = field.zero()
    return [z] * n


def unit_vec(n: int, i: int, field: Field) -> list:
    v = zero_vec(n, field)
    v[i] = field.one()
    return v


def _modp(v: list, p: int | None) -> list:
    """v with each entry reduced mod p over F_p; v itself over Q.  The
    vector and polynomial helpers reduce each result once, here."""
    return v if p is None else [x % p for x in v]


def vec_add(u, v, field: Field) -> list:
    return _modp([a + b for a, b in zip(u, v)], field.p)


def vec_sub(u, v, field: Field) -> list:
    return _modp([a - b for a, b in zip(u, v)], field.p)


def combine(coeffs: Sequence, rows: Sequence[Sequence], field: Field) -> list:
    """The linear combination Σ cᵢ·rowᵢ, in one pass over the rows.

    Rows with a zero coefficient and zero entries of a row are skipped, so
    sparse rows cost little.  The result has the length of the rows; an
    empty row list gives the empty vector.
    """
    out = zero_vec(len(rows[0]) if rows else 0, field)
    for c, row in zip(coeffs, rows):
        if c != 0:
            out = [o + c * x if x else o for o, x in zip(out, row)]
    return _modp(out, field.p)


def kron(u: Sequence, v: Sequence, field: Field) -> list:
    """The coordinate tensor u⊗v: the entry for (i, j) is uᵢ·vⱼ, at index
    i·len(v) + j.  Only products of two nonzero entries are multiplied."""
    zero = field.zero()
    zeros = [zero] * len(v)
    out = []
    for a in u:
        out += [a * b if b else zero for b in v] if a else zeros
    return _modp(out, field.p)


def sylvester_rows(a: Sequence[Sequence], b: Sequence[Sequence], field: Field,
                   ) -> list:
    """The matrix of X ↦ X·A − B·X on the row-major flattening of X.

    A is c×c and B is r×r, so X is r×c; row i·c + j gives entry (i, j) of
    the image.  Its kernel is {X : X·A = B·X}.
    """
    return [_modp(row, field.p) for row in _sylvester(a, b, field.zero())]


def _sylvester(a: Sequence[Sequence], b: Sequence[Sequence], zero) -> list:
    """The rows of `sylvester_rows`, not reduced mod p, on entries that
    start at zero (a field zero, or 0 for integer rows)."""
    c, r = len(a), len(b)
    cols = [list(col) for col in zip(*a)]
    rows = []
    for i in range(r):
        for j in range(c):
            row = [zero] * (r * c)
            row[i * c:(i + 1) * c] = cols[j]
            for t, x in enumerate(b[i]):
                if x:
                    row[t * c + j] -= x
            rows.append(row)
    return rows


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


def mat_vec(m: Sequence[Sequence], v: Sequence, field: Field) -> list:
    return _modp([_dot(row, v, field) for row in m], field.p)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], field: Field) -> list:
    if a and b and len(a[0]) != len(b):
        raise DimensionError("matrix product shape mismatch")
    cols = list(zip(*b)) if b else []
    return [mat_vec(cols, row, field) for row in a]


def _dot(u, v, field: Field) -> Scalar:
    """Σ uᵢ·vᵢ over the nonzero pairs, not yet reduced mod p."""
    return sum((a * b for a, b in zip(u, v) if a and b), field.zero())


def identity_matrix(n: int, field: Field) -> list:
    return [unit_vec(n, i, field) for i in range(n)]


# ---------------------------------------------------------------------------
# integer rows: the one elimination core over Q and F_p

_ZERO = Fraction(0)


def _ints(v: Sequence, p: int | None) -> tuple[int, Sequence[int]]:
    """(d, d·v): v over a common denominator d, as integers.

    Over Q, d is the lcm of the denominators, and the entries may be
    anything `Fraction` accepts.  Over F_p, d is 1 and v is passed through
    as it is: its ints need not lie in [0, p), because the row normal form
    and the residual reduce mod p.
    """
    if p is not None:
        return 1, v
    try:
        dens = [x.denominator for x in v]
    except AttributeError:
        v = [Fraction(x) for x in v]
        dens = [x.denominator for x in v]
    d = math.lcm(*dens)
    if d == 1:
        return 1, [x.numerator for x in v]
    return d, [x.numerator * (d // e) for x, e in zip(v, dens)]


def _scalars(row: Sequence[int], den: int, p: int | None) -> list:
    """The field vector row / den, for an integer row and den ≠ 0:
    Fractions over Q, ints in [0, p) over F_p."""
    if p is not None:
        s = pow(den, -1, p)
        return [x * s % p for x in row]
    return [Fraction(x, den) if x else _ZERO for x in row]


class _Echelon:
    """A fully reduced basis of integer rows, grown by fraction-free
    Gauss–Jordan elimination.

    Rows are sorted by pivot and vanish at the other pivot columns.  Over
    Q each row has content 1 and a positive entry at its pivot; over F_p
    its entries lie in [0, p) and its pivot entry is 1.  Dividing each row
    by its pivot entry gives the canonical RREF of the span.
    """

    def __init__(self, field: Field, rows: Iterable[Sequence] = ()):
        self.field = field
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for r in rows:
            self.add(_ints(r, field.p)[1])

    def _normal(self, v: list[int]) -> tuple[int, list[int]] | None:
        """(pivot, v in row normal form), or None when v is zero."""
        p = self.field.p
        if p is not None:
            v = [x % p for x in v]
        pc = next((i for i, x in enumerate(v) if x), None)
        if pc is None:
            return None
        if p is not None:
            s = pow(v[pc], -1, p)
            if s != 1:
                v = [x * s % p for x in v]
            return pc, v
        g = math.gcd(*v)
        if v[pc] < 0:
            g = -g
        if g != 1:
            v = [x // g for x in v]
        return pc, v

    def add(self, v: Sequence[int]) -> list[int] | None:
        """Reduce v against the basis; a nonzero remainder becomes a new
        row, which is returned (None when v lies in the span).

        The rows are fully reduced, so v − Σ v[p]/a_p · row_p vanishes at
        every pivot p; it is formed on integers over the lcm of the a_p.
        """
        rows, pivots = self.rows, self.pivots
        hits = [(v[p], row, row[p]) for p, row in zip(pivots, rows) if v[p]]
        if hits:
            m = math.lcm(*(a for *_, a in hits))
            if m != 1:
                v = [m * x for x in v]
            for c, row, a in hits:
                c *= m // a
                v = [x - c * y for x, y in zip(v, row)]
        normal = self._normal(v)
        if normal is None:
            return None
        pc, v = normal
        a = v[pc]
        for k, row in enumerate(rows):
            c = row[pc]
            if c:
                g = math.gcd(a, c)
                a1, c1 = a // g, c // g
                rows[k] = self._normal([a1 * x - c1 * y
                                        for x, y in zip(row, v)])[1]
        k = bisect.bisect(pivots, pc)
        pivots.insert(k, pc)
        rows.insert(k, v)
        return v

    def scalars(self) -> list[list]:
        """The rows of the canonical RREF, as field scalars."""
        p = self.field.p
        return [_scalars(row, row[q], p) for q, row in zip(self.pivots, self.rows)]

    def subspace(self, ambient_dim: int) -> Subspace:
        return Subspace(self.field, ambient_dim,
                        tuple(tuple(r) for r in self.scalars()),
                        tuple(self.pivots))

    def solution(self, ncols: int, nrhs: int) -> list | None:
        """One solution x of a·x = b, for rows [a | b] with ncols columns
        in a and nrhs in b: each pivot unknown is its row's b part over
        the pivot entry, each free unknown 0.  None when a pivot falls in
        b, that is when the system is inconsistent."""
        if self.pivots and self.pivots[-1] >= ncols:
            return None
        x = [zero_vec(nrhs, self.field) for _ in range(ncols)]
        for q, row in zip(self.pivots, self.rows):
            x[q] = _scalars(row[ncols:], row[q], self.field.p)
        return x

    def kernel(self, ncols: int) -> Subspace:
        """Null space, on the first ncols columns, of the rows with a pivot
        among them: for each free column f, the vector with m at f and
        −row[f]·m/row[pivot] at each pivot, m the lcm of the pivot
        entries."""
        echelon = [(q, row) for q, row in zip(self.pivots, self.rows) if q < ncols]
        pivset = {q for q, _ in echelon}
        m = math.lcm(*(row[q] for q, row in echelon))
        scaled = [(q, row, m // row[q]) for q, row in echelon]
        ker = _Echelon(self.field)
        for f in range(ncols):
            if f not in pivset:
                v = [0] * ncols
                v[f] = m
                for q, row, s in scaled:
                    v[q] = -row[f] * s
                ker.add(v)
        return ker.subspace(ncols)


# ---------------------------------------------------------------------------
# reduced row-echelon form and subspaces

def rref(rows: Iterable[Sequence], field: Field) -> tuple[list[list], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    e = _Echelon(field, rows)
    return e.scalars(), list(e.pivots)


def reduce_vec(v: Sequence, basis: Sequence[Sequence], pivots: Sequence[int],
               field: Field) -> tuple[list, list]:
    """Reduce v against an RREF basis; returns (residual, coefficients)."""
    space = Subspace(field, len(v), tuple(basis), tuple(pivots))
    d, vi = _ints(v, field.p)
    res = _scalars(space._residual(vi), d * space.int_basis[0], field.p)
    return res, [v[q] for q in pivots]


@dataclass(frozen=True)
class Subspace:
    """A subspace of K^n held as a canonical reduced row-echelon basis."""

    field: Field
    ambient_dim: int
    basis: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def int_basis(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D·basis): the basis over a common denominator D as integer
        rows, so that the entry of row k at pivot k is D.  Over F_p this is
        (1, basis); over Q it is computed once, D the lcm denominator."""
        if self.field.p is not None:
            return 1, self.basis
        return self._q_int_basis

    @cached_property
    def _q_int_basis(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        d = math.lcm(*(x.denominator for r in self.basis for x in r))
        return d, tuple(tuple(x.numerator * (d // x.denominator) for x in r)
                        for r in self.basis)

    def _residual(self, v: Sequence[int]) -> Sequence[int]:
        """For an integer vector v: D·v − Σ_k v[pivot k]·(D·basis_k), mod p
        over F_p.  It vanishes at every pivot (the basis is an RREF), and
        everywhere iff v lies in the space."""
        d, rows = self.int_basis
        res = [d * x for x in v] if d != 1 else v
        for q, row in zip(self.pivots, rows):
            c = v[q]
            if c:
                res = [x - c * y for x, y in zip(res, row)]
        p = self.field.p
        return res if p is None else [x % p for x in res]

    def holds_ints(self, v: Sequence[int]) -> bool:
        """True iff the integer vector v lies in the space (over Q, at any
        scale)."""
        return not any(self._residual(v))

    def contains_vec(self, v: Sequence) -> bool:
        return self.holds_ints(_ints(v, self.field.p)[1])

    def coords(self, v: Sequence) -> list:
        """Coordinates of v in the echelon basis; raises if v is outside."""
        if not self.contains_vec(v):
            raise InvalidInputError("vector not in subspace")
        # the basis is an RREF: the coordinates are v's pivot entries
        return [v[q] for q in self.pivots]


def echelonize(rows: Iterable[Sequence], ambient_dim: int, field: Field) -> Subspace:
    """Canonical subspace spanned by the given rows of length ambient_dim."""
    rows = list(rows)
    for r in rows:
        if len(r) != ambient_dim:
            raise DimensionError("row length != ambient dimension")
    return _Echelon(field, rows).subspace(ambient_dim)


def saturate(seeds: Iterable[Sequence], ops: Sequence[Callable[[list], Sequence]],
             ambient_dim: int, field: Field) -> Subspace:
    """Smallest subspace that holds the seeds and is mapped into itself by
    every linear map in ops.

    A fully reduced basis of integer rows is kept (`_Echelon`): each new
    vector is reduced against it, and each new basis row is pushed through
    every op once, as field scalars (over Q, an integer multiple of the
    basis vector).  The result is the canonical echelon form, equal to
    `echelonize` of the closure.
    """
    p = field.p
    e = _Echelon(field)
    pending: list[list[int]] = []
    for v in seeds:
        if len(v) != ambient_dim:
            raise DimensionError("row length != ambient dimension")
        w = e.add(_ints(v, p)[1])
        if w is not None:
            pending.append(w)
    while pending:
        x = _scalars(pending.pop(), 1, p)
        for op in ops:
            w = e.add(_ints(op(x), p)[1])
            if w is not None:
                pending.append(w)
    return e.subspace(ambient_dim)


def zero_subspace(ambient_dim: int, field: Field) -> Subspace:
    return Subspace(field, ambient_dim, (), ())


def full_subspace(ambient_dim: int, field: Field) -> Subspace:
    return echelonize(identity_matrix(ambient_dim, field), ambient_dim, field)


def _check_compatible(u: Subspace, w: Subspace):
    if u.field != w.field:
        raise FieldMismatchError("subspaces over different fields")
    if u.ambient_dim != w.ambient_dim:
        raise DimensionError("ambient dimension mismatch")


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    _check_compatible(u, w)
    return echelonize(list(u.basis) + list(w.basis), u.ambient_dim, u.field)


def subspace_intersection(u: Subspace, w: Subspace) -> Subspace:
    """Zassenhaus: echelonize [U|U; W|0], read the intersection off the tail."""
    _check_compatible(u, w)
    n = u.ambient_dim
    field = u.field
    z = zero_vec(n, field)
    stacked = [list(r) + list(r) for r in u.basis]
    stacked += [list(r) + z for r in w.basis]
    reduced, pivots = rref(stacked, field)
    inter = [row[n:] for row, pc in zip(reduced, pivots) if pc >= n]
    return echelonize(inter, n, field)


def subspace_contains(u: Subspace, w: Subspace) -> bool:
    """True iff w is contained in u."""
    _check_compatible(u, w)
    return all(u.contains_vec(r) for r in w.basis)


# ---------------------------------------------------------------------------
# linear solving

def solve_linear(a: Sequence[Sequence], b: Sequence[Sequence], field: Field,
                 ) -> tuple[list | None, Subspace]:
    """Solve a·x = b for a matrix of right-hand sides.

    Returns (x, kernel) where x is one particular solution (None if the
    system is inconsistent) and kernel is the null space of a.  The
    identity a·x = b holds exactly for every returned solution.
    """
    if len(a) != len(b):
        raise DimensionError("a.rows != b.rows")
    ncols = len(a[0]) if a else 0
    nrhs = len(b[0]) if b else 0
    e = _Echelon(field, (list(r) + list(t) for r, t in zip(a, b)))
    return e.solution(ncols, nrhs), e.kernel(ncols)


def kernel(a: Sequence[Sequence], ncols: int, field: Field) -> Subspace:
    """Null space of a matrix with ncols columns (a may have zero rows)."""
    return _Echelon(field, a).kernel(ncols)


def solve_one(a: Sequence[Sequence], rhs: Sequence, field: Field) -> list | None:
    """Particular solution of a·x = rhs (single column), or None."""
    x, _ = solve_linear(a, [[v] for v in rhs], field)
    if x is None:
        return None
    return [row[0] for row in x]


# ---------------------------------------------------------------------------
# enumeration over finite fields

def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_subspaces(ambient_dim: int, dim: int, field: Field,
                        filt: Callable[[Subspace], bool] | None = None,
                        ) -> Iterator[Subspace]:
    """Stream every dim-dimensional subspace of F_p^ambient exactly once.

    Order is lexicographic on pivot-column sets, then on the free entries,
    so the stream is deterministic and restartable.
    """
    if not field.is_finite:
        raise NotFiniteFieldError("subspace enumeration needs a finite field")
    if dim < 0 or dim > ambient_dim:
        raise InvalidInputError("0 <= dim <= ambient_dim required")
    if dim == 0:
        s = zero_subspace(ambient_dim, field)
        if filt is None or filt(s):
            yield s
        return
    p = field.p
    for pivots in itertools.combinations(range(ambient_dim), dim):
        pivset = set(pivots)
        free_pos = [(r, c) for r in range(dim)
                    for c in range(pivots[r] + 1, ambient_dim)
                    if c not in pivset]
        base = [[0] * ambient_dim for _ in range(dim)]
        for r, pc in enumerate(pivots):
            base[r][pc] = 1
        for values in itertools.product(range(p), repeat=len(free_pos)):
            rows = [row[:] for row in base]
            for (r, c), v in zip(free_pos, values):
                rows[r][c] = v
            s = Subspace(field, ambient_dim,
                         tuple(tuple(r) for r in rows), tuple(pivots))
            if filt is None or filt(s):
                yield s


def all_vectors(n: int, field: Field) -> Iterator[tuple]:
    """Every vector of F_p^n (including zero), lexicographically."""
    if not field.is_finite:
        raise NotFiniteFieldError("vector enumeration needs a finite field")
    return itertools.product(range(field.p), repeat=n)


def span_elements(space: Subspace) -> Iterator[list]:
    """Every element of a subspace of F_p^n, zero included, as the
    combinations of its basis in `all_vectors` order."""
    if not space.basis:
        yield zero_vec(space.ambient_dim, space.field)
        return
    for coeffs in all_vectors(space.dim, space.field):
        yield combine(coeffs, space.basis, space.field)


# ---------------------------------------------------------------------------
# quotient spaces and tensor products over a subalgebra

@dataclass(frozen=True)
class QuotientSpace:
    """K^n modulo a subspace, with an explicit projection/section pair."""

    relations: Subspace
    free_coords: tuple[int, ...]

    @property
    def field(self) -> Field:
        return self.relations.field

    @property
    def ambient_dim(self) -> int:
        return self.relations.ambient_dim

    @property
    def dim(self) -> int:
        return len(self.free_coords)

    def project(self, v: Sequence) -> tuple:
        p = self.field.p
        d, vi = _ints(v, p)
        return tuple(_scalars(self._project_ints(vi),
                              d * self.relations.int_basis[0], p))

    def _project_ints(self, v: Sequence[int]) -> list[int]:
        """The projection of an integer vector v times D, the denominator
        of `relations.int_basis` (mod p over F_p, where D is 1)."""
        res = self.relations._residual(v)
        return [res[c] for c in self.free_coords]

    def lift(self, qv: Sequence) -> list:
        v = zero_vec(self.ambient_dim, self.field)
        for c, val in zip(self.free_coords, qv):
            v[c] = self.field.coerce(val)
        return v


def quotient_space(ambient_dim: int, relation_rows: Iterable[Sequence],
                   field: Field) -> QuotientSpace:
    rel = echelonize(relation_rows, ambient_dim, field)
    pivset = set(rel.pivots)
    free = tuple(c for c in range(ambient_dim) if c not in pivset)
    return QuotientSpace(rel, free)


def tensor_quotient(dim_left: int, dim_right: int,
                    relations: Iterable[Sequence], field: Field) -> QuotientSpace:
    """Quotient of the dim_left × dim_right coordinate tensor space.

    Relation vectors are indexed as by `kron`: (i, j) -> i*dim_right + j.
    """
    return quotient_space(dim_left * dim_right, relations, field)
