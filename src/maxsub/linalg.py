"""Exact linear algebra over Q and F_p.

Scalars are `fractions.Fraction` over the rationals and plain ints in
[0, p) over a prime field.  Vectors and matrices are tuples/lists of
scalars; no floating point appears anywhere.  Subspaces are kept in
reduced row-echelon form, so equality of subspaces is equality of their
canonical bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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
    """The rationals (p is None) or the prime field F_p."""

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
        if self.p is not None:
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b) -> Scalar:
        if self.p is not None:
            return (a + b) % self.p
        return a + b

    def sub(self, a, b) -> Scalar:
        if self.p is not None:
            return (a - b) % self.p
        return a - b

    def mul(self, a, b) -> Scalar:
        if self.p is not None:
            return (a * b) % self.p
        return a * b

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


def vec_add(u, v, field: Field) -> list:
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(u, v, field: Field) -> list:
    return [field.sub(a, b) for a, b in zip(u, v)]


def combine(coeffs: Sequence, rows: Sequence[Sequence], field: Field) -> list:
    """The linear combination Σ cᵢ·rowᵢ, in one pass over the rows.

    Rows with a zero coefficient and zero entries of a row are skipped, so
    sparse rows cost little.  The result has the length of the rows; an
    empty row list gives the empty vector.
    """
    out = zero_vec(len(rows[0]) if rows else 0, field)
    for c, row in zip(coeffs, rows):
        if c != 0:
            out = [field.add(o, field.mul(c, x)) if x else o
                   for o, x in zip(out, row)]
    return out


def kron(u: Sequence, v: Sequence, field: Field) -> list:
    """The coordinate tensor u⊗v: the entry for (i, j) is uᵢ·vⱼ, at index
    i·len(v) + j.  Only products of two nonzero entries are multiplied."""
    zero = field.zero()
    zeros = [zero] * len(v)
    out = []
    for a in u:
        out += [field.mul(a, b) if b else zero for b in v] if a else zeros
    return out


def sylvester_rows(a: Sequence[Sequence], b: Sequence[Sequence], field: Field,
                   ) -> list:
    """The matrix of X ↦ X·A − B·X on the row-major flattening of X.

    A is c×c and B is r×r, so X is r×c; row i·c + j gives entry (i, j) of
    the image.  Its kernel is {X : X·A = B·X}.
    """
    c, r = len(a), len(b)
    cols = [list(col) for col in zip(*a)]
    rows = []
    for i in range(r):
        for j in range(c):
            row = zero_vec(r * c, field)
            row[i * c:(i + 1) * c] = cols[j]
            for t, x in enumerate(b[i]):
                if x:
                    row[t * c + j] = field.sub(row[t * c + j], x)
            rows.append(row)
    return rows


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


def mat_vec(m: Sequence[Sequence], v: Sequence, field: Field) -> list:
    out = []
    for row in m:
        s = field.zero()
        for a, b in zip(row, v):
            if a != 0 and b != 0:
                s = field.add(s, field.mul(a, b))
        out.append(s)
    return out


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], field: Field) -> list:
    if a and b and len(a[0]) != len(b):
        raise DimensionError("matrix product shape mismatch")
    cols = list(zip(*b)) if b else []
    return [[_dot(row, col, field) for col in cols] for row in a]


def _dot(u, v, field: Field) -> Scalar:
    s = field.zero()
    for a, b in zip(u, v):
        if a != 0 and b != 0:
            s = field.add(s, field.mul(a, b))
    return s


def identity_matrix(n: int, field: Field) -> list:
    return [unit_vec(n, i, field) for i in range(n)]


# ---------------------------------------------------------------------------
# reduced row-echelon form and subspaces

def rref(rows: Iterable[Sequence], field: Field) -> tuple[list[list], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(map(field.coerce, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        if inv != 1:
            m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reduce_vec(v: Sequence, basis: Sequence[Sequence], pivots: Sequence[int],
               field: Field) -> tuple[list, list]:
    """Reduce v against an RREF basis; returns (residual, coefficients)."""
    res = list(v)
    coeffs = []
    for row, pc in zip(basis, pivots):
        c = res[pc]
        coeffs.append(c)
        if c != 0:
            res = [field.sub(x, field.mul(c, y)) for x, y in zip(res, row)]
    return res, coeffs


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

    def contains_vec(self, v: Sequence) -> bool:
        res, _ = reduce_vec(v, self.basis, self.pivots, self.field)
        return vec_is_zero(res)

    def coords(self, v: Sequence) -> list:
        """Coordinates of v in the echelon basis; raises if v is outside."""
        res, coeffs = reduce_vec(v, self.basis, self.pivots, self.field)
        if not vec_is_zero(res):
            raise InvalidInputError("vector not in subspace")
        return coeffs


def echelonize(rows: Iterable[Sequence], ambient_dim: int, field: Field) -> Subspace:
    """Canonical subspace spanned by the given rows of length ambient_dim."""
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != ambient_dim:
            raise DimensionError("row length != ambient dimension")
    basis, pivots = rref(rows, field)
    return Subspace(field, ambient_dim,
                    tuple(tuple(r) for r in basis), tuple(pivots))


def saturate(seeds: Iterable[Sequence], ops: Sequence[Callable[[list], Sequence]],
             ambient_dim: int, field: Field) -> Subspace:
    """Smallest subspace that holds the seeds and is mapped into itself by
    every linear map in ops.

    A fully reduced basis is kept: each new vector is reduced against it,
    and each new basis vector is pushed through every op once.  The result
    is the canonical echelon form, equal to `echelonize` of the closure.
    """
    basis: list[list] = []
    pivots: list[int] = []
    pending: list[list] = []

    def add(v):
        res, _ = reduce_vec(v, basis, pivots, field)
        pc = next((i for i, x in enumerate(res) if x != 0), None)
        if pc is None:
            return
        inv = field.inv(res[pc])
        if inv != 1:
            res = [field.mul(inv, x) for x in res]
        for i, row in enumerate(basis):
            c = row[pc]
            if c != 0:
                basis[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(row, res)]
        basis.append(res)
        pivots.append(pc)
        pending.append(res)

    for v in seeds:
        if len(v) != ambient_dim:
            raise DimensionError("row length != ambient dimension")
        add([field.coerce(x) for x in v])
    while pending:
        v = pending.pop()
        for op in ops:
            add(op(v))
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return Subspace(field, ambient_dim, tuple(tuple(basis[i]) for i in order),
                    tuple(pivots[i] for i in order))


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


def subspace_ops(u: Subspace, w: Subspace) -> dict:
    """Lattice join, meet and containment of two subspaces at once."""
    return {
        "sum": subspace_sum(u, w),
        "intersection": subspace_intersection(u, w),
        "contains": subspace_contains(u, w),
    }


# ---------------------------------------------------------------------------
# linear solving

def solve_linear(a: Sequence[Sequence], b: Sequence[Sequence], field: Field,
                 ) -> tuple[list | None, Subspace]:
    """Solve a·x = b for a matrix of right-hand sides.

    Returns (x, kernel) where x is one particular solution (None if the
    system is inconsistent) and kernel is the null space of a.  The
    identity a·x = b holds exactly for every returned solution.
    """
    a = [list(map(field.coerce, r)) for r in a]
    b = [list(map(field.coerce, r)) for r in b]
    if len(a) != len(b):
        raise DimensionError("a.rows != b.rows")
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    nrhs = len(b[0]) if b and b[0] else (0 if b else 0)
    aug = [a[i] + b[i] for i in range(nrows)]
    reduced, pivots = rref(aug, field) if aug else ([], [])
    piv_in_a = [pc for pc in pivots if pc < ncols]
    # inconsistent iff some pivot falls in the augmented block
    consistent = len(piv_in_a) == len(pivots)
    kernel = _kernel_from_rref([row[:ncols] for row in reduced[:len(piv_in_a)]],
                               piv_in_a, ncols, field)
    if not consistent:
        return None, kernel
    x = [zero_vec(nrhs, field) for _ in range(ncols)]
    for row, pc in zip(reduced, piv_in_a):
        x[pc] = row[ncols:]
    return x, kernel


def _kernel_from_rref(rows, pivots, ncols, field: Field) -> Subspace:
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = zero_vec(ncols, field)
        v[f] = field.one()
        for row, pc in zip(rows, pivots):
            v[pc] = field.neg(row[f])
        basis.append(v)
    return echelonize(basis, ncols, field)


def kernel(a: Sequence[Sequence], ncols: int, field: Field) -> Subspace:
    """Null space of a matrix with ncols columns (a may have zero rows)."""
    if not a:
        return full_subspace(ncols, field)
    reduced, pivots = rref(a, field)
    return _kernel_from_rref(reduced, pivots, ncols, field)


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
        res, _ = reduce_vec(v, self.relations.basis, self.relations.pivots,
                            self.field)
        return tuple(res[c] for c in self.free_coords)

    def lift(self, qv: Sequence) -> list:
        v = zero_vec(self.ambient_dim, self.field)
        for c, val in zip(self.free_coords, qv):
            v[c] = self.field.coerce(val)
        return v

    def projection_matrix(self) -> list:
        n = self.ambient_dim
        cols = [self.project(unit_vec(n, j, self.field)) for j in range(n)]
        return [list(col) for col in zip(*cols)] if cols else []

    def section_matrix(self) -> list:
        cols = [self.lift(unit_vec(self.dim, j, self.field))
                for j in range(self.dim)]
        return [list(col) for col in zip(*cols)] if cols else [[] for _ in range(self.ambient_dim)]


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
