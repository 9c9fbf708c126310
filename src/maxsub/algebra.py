"""Structure-constant model of finite-dimensional unital associative algebras.

An algebra is a field, a basis, a unit vector and its structure constants
c_ijk, the coordinates of b_i * b_j, stored as sparse integer rows over one
common denominator (`Algebra.products`); every constructor builds them in
that normal form with `_pack`.  Subalgebras are canonical echelon subspaces
that contain the unit and are closed under the product; they always share
the unit of the parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DimensionError,
    FieldMismatchError,
    InvalidInputError,
    VerificationFailedError,
)
from .linalg import (
    Field,
    Subspace,
    Vec,
    _Echelon,
    _ints,
    _modp,
    _scalars,
    combine,
    echelonize,
    full_subspace,
    kernel,
    saturate,
    solve_one,
    unit_vec,
    zero_vec,
)


@dataclass(frozen=True)
class Presentation:
    """Optional combinatorial origin of an algebra.

    kind is one of "quiver", "incidence", "product".
    vertex_names/vertex_vectors give the vertex idempotents of a quiver or
    poset presentation, in basis coordinates.
    """

    kind: str
    vertex_names: tuple[str, ...] = ()
    vertex_vectors: tuple[Vec, ...] = ()
    source: object = None


@dataclass(frozen=True)
class Algebra:
    """products is (D, rows): D is the least common denominator of the
    structure constants (1 over F_p), and rows[i] lists (j, ((k, D·c_ijk),
    ...)) for the nonzero products b_i·b_j only, with j and k ascending and
    no zero entry; over F_p the entries are residues in [1, p)."""

    field: Field
    dim: int
    basis_names: tuple[str, ...]
    unit: Vec
    products: tuple[int, tuple]
    presentation: Presentation | None = None

    def __post_init__(self):
        if len(self.basis_names) != self.dim or len(self.unit) != self.dim:
            raise DimensionError("basis/unit length != dim")
        if (len(self.products) != 2 or type(self.products[0]) is not int
                or len(self.products[1]) != self.dim):
            raise DimensionError("products are not (D, dim rows)")

    # identity of an algebra is its data; hashing by id keeps caches cheap
    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    def _multiply_ints(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """D·(x·y) for integer vectors x and y, D the denominator of
        `products` (1 over F_p, where the result is not reduced mod p)."""
        rows = self.products[1]
        acc = [0] * self.dim
        for group, xi in zip(rows, xs):
            if xi:
                for j, row in group:
                    c = ys[j]
                    if c:
                        c *= xi
                        for k, t in row:
                            acc[k] += c * t
        return acc

    def multiply(self, x: Sequence, y: Sequence) -> list:
        """Bilinear extension of the structure constants, one body for
        both fields: x and y are cleared to integers (`_ints`), multiplied
        on `products`, and one scalar is built per output coordinate."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionError("vector length != algebra dimension")
        p = self.field.p
        (dx, xs), (dy, ys) = _ints(x, p), _ints(y, p)
        den = self.products[0] * dx * dy
        return _scalars(self._multiply_ints(xs, ys), den, p)

    def _left_ints(self, w: Sequence[int]) -> list[list[int]]:
        """D·L_w for an integer row w: column j is D·(w·b_j), read off
        `products` (over F_p an integer lift of L_w, not reduced mod p)."""
        m = [[0] * self.dim for _ in range(self.dim)]
        for wi, group in zip(w, self.products[1]):
            if wi:
                for j, row in group:
                    for k, c in row:
                        m[k][j] += wi * c
        return m

    def _right_ints(self, w: Sequence[int]) -> list[list[int]]:
        """D·R_w for an integer row w: column i is D·(b_i·w), read off
        `products` like `_left_ints`."""
        m = [[0] * self.dim for _ in range(self.dim)]
        for i, group in enumerate(self.products[1]):
            for j, row in group:
                if w[j]:
                    for k, c in row:
                        m[k][i] += w[j] * c
        return m

    def _operator(self, kernel, x: Sequence) -> list:
        """The field matrix of `_left_ints` or `_right_ints` at x."""
        if len(x) != self.dim:
            raise DimensionError("vector length != algebra dimension")
        p = self.field.p
        d, xs = _ints(x, p)
        return [_scalars(row, self.products[0] * d, p) for row in kernel(xs)]

    def left_mult_matrix(self, x: Sequence) -> list:
        """Matrix of y -> x*y in the algebra basis (columns are images)."""
        return self._operator(self._left_ints, x)

    def right_mult_matrix(self, x: Sequence) -> list:
        """Matrix of y -> y*x in the algebra basis (columns are images)."""
        return self._operator(self._right_ints, x)

    def basis_vector(self, i: int) -> list:
        return unit_vec(self.dim, i, self.field)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_algebra(a: Algebra) -> ValidationReport:
    """Check associativity on all basis triples and the unit laws.

    Associativity compares (b_i b_j) b_k with b_i (b_j b_k) on the integer
    rows: both sides carry the scale D², and over F_p both are taken mod p.
    """
    bad = []
    p = a.field.p
    du, unit = _ints(a.unit, p)
    scale = a.products[0] * du
    # D·L_1 and D·R_1 carry the scale D·du of the integer unit
    lu, ru = a._left_ints(unit), a._right_ints(unit)
    for i, name in enumerate(a.basis_names):
        want = [scale * (k == i) for k in range(a.dim)]
        if _modp([row[i] for row in lu], p) != want:
            bad.append(f"unit * {name} != {name}")
        if _modp([row[i] for row in ru], p) != want:
            bad.append(f"{name} * unit != {name}")
    grid = [dict(group) for group in a.products[1]]
    names = a.basis_names
    for i, gi in enumerate(grid):
        for j, gj in enumerate(grid):
            ij = gi.get(j, ())
            for k in range(a.dim):
                diff = [0] * a.dim
                for m, t in ij:
                    for l, u in grid[m].get(k, ()):
                        diff[l] += t * u
                for m, t in gj.get(k, ()):
                    for l, u in gi.get(m, ()):
                        diff[l] -= t * u
                if any(diff) if p is None else any(v % p for v in diff):
                    bad.append("associativity fails at "
                               f"({names[i]}, {names[j]}, {names[k]})")
    return ValidationReport(tuple(bad))


def checked(a: Algebra) -> Algebra:
    """a itself, once `validate_algebra` finds no violation."""
    rep = validate_algebra(a)
    if not rep.ok:
        raise VerificationFailedError("; ".join(rep.violations[:3]))
    return a


def _pack(p: int | None, den: int, rows: Iterable) -> tuple[int, tuple]:
    """`Algebra.products` in normal form, from products at the scale den.

    rows[i] gives pairs (j, terms) for the products b_i·b_j, and terms the
    pairs (k, den·c_ijk), each j and each k at most once and in any order;
    over Q an entry may be a Fraction.  Zero entries are dropped and j and
    k sorted.  Over F_p the entries are reduced into [1, p) at D = 1; over
    Q they are cleared to integers and divided by their gcd with the
    scale, which leaves D the least common denominator.
    """
    s = 1
    if p is not None:
        s, den = pow(den, -1, p), 1
    out = []
    for row in rows:
        packed = []
        for j, terms in sorted(row):
            if p is not None:
                terms = [(k, t * s % p) for k, t in terms]
            kept = sorted((k, t) for k, t in terms if t)
            if kept:
                packed.append((j, kept))
        out.append(packed)
    ts = [t for row in out for _, terms in row for _, t in terms]
    m = math.lcm(1, *(t.denominator for t in ts))
    g = math.gcd(den * m, *(t.numerator * (m // t.denominator) for t in ts))
    return den * m // g, tuple(
        tuple((j, tuple((k, t.numerator * (m // t.denominator) // g)
                        for k, t in terms)) for j, terms in row)
        for row in out)


def make_algebra(field: Field, basis_names: Sequence[str], unit: Sequence,
                 table: Sequence[Sequence[Sequence]],
                 presentation: Presentation | None = None,
                 check: bool = False) -> Algebra:
    """The algebra whose product b_i·b_j has the coordinates table[i][j]."""
    dim = len(basis_names)
    products = _pack(field.p, 1, (
        [(j, [(k, field.coerce(c)) for k, c in enumerate(table[i][j]) if c])
         for j in range(dim)] for i in range(dim)))
    a = Algebra(field, dim, tuple(basis_names),
                tuple(field.coerce(v) for v in unit), products, presentation)
    return checked(a) if check else a


# ---------------------------------------------------------------------------
# subalgebras

@dataclass(frozen=True)
class Subalgebra:
    """A unital, multiplicatively closed subspace of a parent algebra."""

    parent: Algebra
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def _algebra(self) -> Algebra:
        """The structure constants are read off integer products: for the
        basis rows over their denominator d (`Subspace.int_basis`), x·y is
        D·d² times the product (`Algebra._multiply_ints`), and once it lies
        in the space its coordinates are its entries at the pivots."""
        par, space = self.parent, self.space
        p = par.field.p

        def coords(v: Sequence[int]) -> list[int]:
            if not space.holds_ints(v):
                raise InvalidInputError("vector not in subspace")
            return [v[q] for q in space.pivots]

        d, rows = space.int_basis
        products = _pack(p, par.products[0] * d * d, (
            [(j, enumerate(coords(par._multiply_ints(x, y))))
             for j, y in enumerate(rows)] for x in rows))
        du, unit = _ints(par.unit, p)
        names = tuple(f"s{i+1}" for i in range(len(rows)))
        return Algebra(par.field, len(rows), names,
                       tuple(_scalars(coords(unit), du, p)), products)

    def as_algebra(self) -> Algebra:
        """The subalgebra as an abstract structure-constant algebra."""
        return self._algebra

    def embed(self, v: Sequence) -> list:
        """Coordinates in the subalgebra basis -> coordinates in the parent."""
        return combine(v, self.space.basis, self.parent.field)

    def contains_vec(self, v: Sequence) -> bool:
        return self.space.contains_vec(v)

    def check_parent(self, b: Algebra) -> None:
        if self.parent is not b:
            raise InvalidInputError(
                "subalgebra does not live in the given algebra")


def subalgebra(parent: Algebra, space: Subspace, check: bool = True) -> Subalgebra:
    if space.field != parent.field or space.ambient_dim != parent.dim:
        raise FieldMismatchError("subspace does not match parent algebra")
    if check:
        if not space.contains_vec(list(parent.unit)):
            raise InvalidInputError("subalgebra must contain the unit")
        rows = space.int_basis[1]
        if not _products_in(parent, rows, rows, space):
            raise InvalidInputError("subspace not closed under product")
    return Subalgebra(parent, space)


def subalgebra_from_rows(parent: Algebra, rows: Iterable[Sequence],
                         check: bool = True) -> Subalgebra:
    return subalgebra(parent,
                      echelonize(rows, parent.dim, parent.field), check)


def _products_in(a: Algebra, lefts: Sequence[Sequence],
                 rights: Sequence[Sequence], space: Subspace) -> bool:
    """True iff x·y lies in space for every x in lefts and y in rights, for
    rows as `Subspace.int_basis` gives them (over Q at any integer scale:
    the products are tested on integers, with no Fraction built)."""
    return all(space.holds_ints(a._multiply_ints(x, y))
               for x in lefts for y in rights)


def _product_span(a: Algebra, s: Subspace, t: Subspace) -> Subspace:
    """The span s·t of the products x·y, x in s and y in t, echelonized
    straight off the integer products of their `int_basis` rows."""
    return _Echelon(a.field, (a._multiply_ints(x, y) for x in s.int_basis[1]
                              for y in t.int_basis[1])).subspace(a.dim)


def full_subalgebra(a: Algebra) -> Subalgebra:
    return Subalgebra(a, full_subspace(a.dim, a.field))


def is_closed_subspace(a: Algebra, space: Subspace) -> bool:
    """Unital and multiplicatively closed; the subalgebra predicate."""
    rows = space.int_basis[1]
    return (space.contains_vec(list(a.unit))
            and _products_in(a, rows, rows, space))


@dataclass(frozen=True)
class BimoduleSubspace:
    """A subspace stable under left/right multiplication by a subalgebra."""

    parent: Algebra
    acting: Subalgebra
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim


def bimodule_subspace(parent: Algebra, acting: Subalgebra, space: Subspace,
                      check: bool = True) -> BimoduleSubspace:
    if check:
        # pair by pair, so the first failing product names its side
        for x in acting.space.int_basis[1]:
            for v in space.int_basis[1]:
                if not _products_in(parent, [x], [v], space):
                    raise InvalidInputError("not stable under left action")
                if not _products_in(parent, [v], [x], space):
                    raise InvalidInputError("not stable under right action")
    return BimoduleSubspace(parent, acting, space)


# ---------------------------------------------------------------------------
# generation, centralizers, units, conjugation

def subalgebra_generated(a: Algebra, seeds: Iterable[Sequence]) -> Subalgebra:
    """Smallest unital subalgebra containing the seeds.

    It is the span of all words in the seeds: the unit saturated under
    right multiplication by each seed.
    """
    seeds = [list(map(a.field.coerce, s)) for s in seeds]
    ops = [lambda x, s=s: a.multiply(x, s) for s in seeds]
    return Subalgebra(a, saturate([a.unit], ops, a.dim, a.field))


def centralizer(a: Algebra, s: Subspace) -> Subalgebra:
    """{x in a : xv = vx for all v in s}, as a unital subalgebra."""
    return centralizer_in(full_subalgebra(a), s.basis)


def centralizer_in(sub: Subalgebra, elements: Iterable[Sequence]) -> Subalgebra:
    """Centralizer of the given parent-coordinate elements inside sub, from
    commutators of integer rows (a scale changes no kernel or span)."""
    par = sub.parent
    p = par.field.p
    xs = sub.space.int_basis[1]
    rows = []
    for v in elements:
        v = _ints(v, p)[1]
        # column i is the commutator s_i v - v s_i of the i-th basis element
        cols = [[l - r for l, r in zip(par._multiply_ints(x, v),
                                       par._multiply_ints(v, x))] for x in xs]
        rows += [list(r) for r in zip(*cols)]
    ker = kernel(rows, sub.dim, par.field)
    out_rows = [combine(k, xs, par.field) for k in ker.basis]
    return subalgebra_from_rows(par, out_rows, check=False)


def invert_element(a: Algebra, x: Sequence) -> list | None:
    """Two-sided inverse of x, or None when none exists."""
    lm = a.left_mult_matrix(list(map(a.field.coerce, x)))
    y = solve_one(lm, list(a.unit), a.field)
    if y is None:
        return None
    # left-regular representation is faithful, so a right inverse with
    # invertible L_x is automatically two-sided; verify anyway
    if a.multiply(y, list(x)) != list(a.unit):
        return None
    return y


def conjugate_subalgebra(a: Algebra, u: Sequence, s: Subalgebra) -> Subalgebra:
    u = list(map(a.field.coerce, u))
    uinv = invert_element(a, u)
    if uinv is None:
        raise InvalidInputError("conjugating element is not invertible")
    rows = [a.multiply(a.multiply(u, list(x)), uinv) for x in s.space.basis]
    return subalgebra_from_rows(a, rows, check=False)


# ---------------------------------------------------------------------------
# standard constructors

def matrix_algebra(n: int, field: Field) -> Algebra:
    """M_n(K) on the matrix-unit basis e11, e12, ..., enn (M_0 is the
    zero algebra, End of the zero module)."""
    if n < 0:
        raise InvalidInputError("n >= 0 required")
    dim = n * n
    names = tuple(f"e{p+1}{q+1}" for p in range(n) for q in range(n))

    # e_pq·e_qs = e_ps, and every other product of matrix units is zero
    rows = [[(q * n + s, [(p * n + s, 1)]) for s in range(n)]
            for p in range(n) for q in range(n)]
    unit = tuple(field.coerce(p == q) for p in range(n) for q in range(n))
    return Algebra(field, dim, names, unit, _pack(field.p, 1, rows))


def direct_product(factors: Sequence[Algebra]) -> Algebra:
    """Product algebra with block-diagonal products and concatenated bases."""
    if not factors:
        raise InvalidInputError("empty product")
    field = factors[0].field
    if any(f.field != field for f in factors):
        raise FieldMismatchError("factors over different fields")
    dim = sum(f.dim for f in factors)
    offsets = [sum(f.dim for f in factors[:k]) for k in range(len(factors))]
    names = [f"{k+1}.{nm}" for k, f in enumerate(factors)
             for nm in f.basis_names]
    unit = [c for f in factors for c in f.unit]
    # each factor's rows, shifted to its offset and brought to one scale
    den = math.lcm(*(f.products[0] for f in factors))
    rows = []
    for f, off in zip(factors, offsets):
        c = den // f.products[0]
        rows += [[(off + j, [(off + k, c * t) for k, t in terms])
                  for j, terms in group] for group in f.products[1]]
    pres = Presentation(kind="product", source=tuple(offsets))
    return Algebra(field, dim, tuple(names), tuple(unit),
                   _pack(field.p, den, rows), pres)


def block_triangular(n: int, composition: Sequence[int], field: Field,
                     ambient: Algebra | None = None) -> Subalgebra:
    """Block upper-triangular subalgebra of M_n for a composition of n."""
    comp = list(composition)
    if any(c <= 0 for c in comp) or sum(comp) != n:
        raise InvalidInputError("composition must be positive and sum to n")
    amb = ambient if ambient is not None else matrix_algebra(n, field)
    if amb.dim != n * n:
        raise DimensionError("ambient is not an n x n matrix algebra")
    block_of = []
    for bi, c in enumerate(comp):
        block_of += [bi] * c
    rows = []
    for p in range(n):
        for q in range(n):
            if block_of[p] <= block_of[q]:
                rows.append(unit_vec(n * n, p * n + q, field))
    return subalgebra_from_rows(amb, rows, check=False)


def diagonal_subalgebra(n: int, positions: Sequence[int],
                        ambient: Algebra) -> Subalgebra:
    """Image of X -> (X, ..., X) into the given M_n factors of a product.

    The remaining factors stay full.  For two positions this is the
    maximal diagonal subalgebra, of codimension n^2.
    """
    pres = ambient.presentation
    if pres is None or pres.kind != "product":
        raise InvalidInputError("ambient must be a direct product")
    offsets = list(pres.source)
    sizes = [b - a for a, b in zip(offsets, offsets[1:] + [ambient.dim])]
    positions = sorted(set(positions))
    for pos in positions:
        if pos < 0 or pos >= len(offsets) or sizes[pos] != n * n:
            raise InvalidInputError(f"factor {pos} does not carry M_{n}")
    field = ambient.field
    rows = []
    for t in range(n * n):
        row = zero_vec(ambient.dim, field)
        for pos in positions:
            row[offsets[pos] + t] = field.one()
        rows.append(row)
    for pos, (off, size) in enumerate(zip(offsets, sizes)):
        if pos in positions:
            continue
        for t in range(size):
            rows.append(unit_vec(ambient.dim, off + t, field))
    return subalgebra_from_rows(ambient, rows, check=False)
