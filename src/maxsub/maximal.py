"""Maximal subalgebras: enumeration up to conjugacy, certification, oracle.

Families come in four kinds: block-triangular inside one matrix block,
diagonal merge of two equal blocks, a hyperplane of the multiplicity
space of one component of J/J^2, and (over finite fields) the
centralizer of a minimal subfield of one block.  A brute-force oracle
enumerates every unital multiplicatively closed subspace of a small
finite-field algebra and partitions the maximal ones into conjugacy
classes by sweeping the full unit group.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import (
    Algebra,
    Subalgebra,
    centralizer_in,
    is_closed_subspace,
    subalgebra_from_rows,
    subalgebra_generated,
)
from .errors import (
    CapExceededError,
    DimensionError,
    InvalidInputError,
    NotFiniteFieldError,
    NotSplitError,
    VerificationFailedError,
)
from .linalg import (
    Field,
    QuotientSpace,
    Subspace,
    _Echelon,
    _ints,
    _is_prime,
    all_vectors,
    combine,
    echelonize,
    kernel,
    mat_vec,
    quotient_space,
    saturate,
    subspace_intersection,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .poly import irreducible, prime_divisors
from .structure import (
    StructureReport,
    WMData,
    structure_report,
    wedderburn_data,
)

ORACLE_DIM_CAP = 7
ORACLE_PRIMES = (2, 3)
MAXDIM_AMBIENT_CAP = {2: 11, 3: 9}


# ---------------------------------------------------------------------------
# family descriptors

@dataclass(frozen=True)
class MaximalFamily:
    """One conjugacy class (or parameterized family) of maximal subalgebras.

    kind: "block_triangular" (block, k), "diagonal_merge" (block, other),
    "radical_hyperplane" (block, other = component (i, j), multiplicity,
    functional = dual coordinates or None for a parameterized family over
    an infinite field), "subfield_centralizer" (block, degree).
    Block indices are 0-based positions in the ascending block list.
    """

    kind: str
    block: int
    other: int | None = None
    k: int | None = None
    multiplicity: int | None = None
    functional: tuple | None = None
    degree: int | None = None

    def describe(self, dims: Sequence[int]) -> str:
        codim = self.predicted_codim(dims)
        if self.kind == "block_triangular":
            return (f"family kind=block_triangular block={self.block + 1} "
                    f"k={self.k} codim={codim}")
        if self.kind == "diagonal_merge":
            return (f"family kind=diagonal_merge i={self.block + 1} "
                    f"j={self.other + 1} codim={codim}")
        if self.kind == "radical_hyperplane":
            coords = ("parametrized" if self.functional is None else
                      ",".join(str(c) for c in self.functional))
            return (f"family kind=radical_hyperplane i={self.block + 1} "
                    f"j={self.other + 1} m={self.multiplicity} "
                    f"hyperplane={coords} codim={codim}")
        return (f"family kind=subfield_centralizer block={self.block + 1} "
                f"degree={self.degree} codim={codim}")

    def predicted_codim(self, dims: Sequence[int]) -> int:
        if self.kind == "block_triangular":
            return self.k * (dims[self.block] - self.k)
        if self.kind == "diagonal_merge":
            return dims[self.block] ** 2
        if self.kind == "radical_hyperplane":
            return dims[self.block] * dims[self.other]
        if self.kind == "subfield_centralizer":
            n = dims[self.block]
            return n * n - n * n // self.degree
        raise InvalidInputError(f"unknown family kind {self.kind!r}")


# ---------------------------------------------------------------------------
# the radical as an A_0-bimodule

@dataclass(frozen=True)
class RadicalComponents:
    """J/J^2 split into (block i, block j) components with multiplicities."""

    j_space: Subspace
    t_quotient: QuotientSpace          # J coordinates modulo J^2
    components: dict                   # (i, j) -> Subspace in T coordinates
    corners: dict                      # (i, j) -> Subspace in T coordinates

    def multiplicity(self, i: int, j: int) -> int:
        corner = self.corners.get((i, j))
        return corner.dim if corner is not None else 0


def radical_components(b: Algebra, wm: WMData) -> RadicalComponents:
    j = wm.radical
    f = b.field
    mul = b._multiply_ints
    jb = j.int_basis[1]

    def coords(z: list[int]) -> list[int]:
        # z lies in the ideal J, whose basis is an RREF: z's coordinates are
        # its entries at the pivots
        return [z[q] for q in j.pivots]

    t = quotient_space(j.dim, [coords(mul(x, y)) for x in jb for y in jb], f)
    # the basis of T = J/J^2 lifts to the J-basis rows at its free coordinates
    lifts = [jb[c] for c in t.free_coords]

    def sandwich(u: Sequence, v: Sequence) -> Subspace:
        """The span of u·T·v in T."""
        u, v = _ints(u, f.p)[1], _ints(v, f.p)[1]
        rows = [t.project(coords(mul(mul(u, x), v))) for x in lifts]
        return echelonize(rows, t.dim, f)

    components = {}
    corners = {}
    nblocks = len(wm.report.blocks)
    total = 0
    for i in range(nblocks):
        for jdx in range(nblocks):
            comp = sandwich(wm.block_idempotents[i],
                            wm.block_idempotents[jdx])
            if comp.dim:
                corner = sandwich(wm.block_units[i][0][0],
                                  wm.block_units[jdx][0][0])
                components[(i, jdx)] = comp
                corners[(i, jdx)] = corner
                ni = wm.report.blocks[i].n
                nj = wm.report.blocks[jdx].n
                if corner.dim * ni * nj != comp.dim:
                    raise VerificationFailedError(
                        "component dimension is not multiplicity * n_i * n_j")
                total += comp.dim
    if total != t.dim:
        raise VerificationFailedError("bimodule components do not fill J/J^2")
    return RadicalComponents(j, t, components, corners)


def _projective_functionals(m: int, field: Field) -> Iterator[tuple]:
    """Canonical representatives of the nonzero vectors of F_p^m up to
    scalar: the first nonzero coordinate is 1."""
    for lead in range(m):
        tail = m - lead - 1
        for rest in itertools.product(range(field.p), repeat=tail):
            yield tuple([0] * lead + [1] + list(rest))


# ---------------------------------------------------------------------------
# enumeration and instantiation

def enumerate_maximal_families(b: Algebra, wm: WMData | None = None,
                               ) -> list[MaximalFamily]:
    """All maximal families per the classification; see MaximalFamily.

    Hyperplane families are parameterized (functional=None) over Q and
    enumerated pointwise over a finite field; subfield-centralizer
    families appear only over finite fields.
    """
    if wm is None:
        wm = wedderburn_data(b)
    dims = [blk.n for blk in wm.report.blocks]
    fams: list[MaximalFamily] = []
    for i, n in enumerate(dims):
        for k in range(1, n):
            fams.append(MaximalFamily("block_triangular", i, k=k))
    for i in range(len(dims)):
        for j in range(i + 1, len(dims)):
            if dims[i] == dims[j]:
                fams.append(MaximalFamily("diagonal_merge", i, other=j))
    if wm.radical.dim > 0:
        comps = radical_components(b, wm)
        for (i, j) in sorted(comps.components):
            m = comps.multiplicity(i, j)
            if b.field.is_finite:
                for func in _projective_functionals(m, b.field):
                    fams.append(MaximalFamily("radical_hyperplane", i, other=j,
                                              multiplicity=m, functional=func))
            else:
                fams.append(MaximalFamily("radical_hyperplane", i, other=j,
                                          multiplicity=m, functional=None))
    if b.field.is_finite:
        for i, n in enumerate(dims):
            for d in prime_divisors(n):
                if d > 1:
                    fams.append(MaximalFamily("subfield_centralizer", i, degree=d))
    return fams


def instantiate_family(b: Algebra, fam: MaximalFamily,
                       params: Sequence | None = None,
                       wm: WMData | None = None) -> Subalgebra:
    """Concrete subalgebra for a family descriptor.

    params supplies the hyperplane functional for a parameterized
    radical-hyperplane family over an infinite field; every output is
    checked to have the codimension its kind predicts.
    """
    if wm is None:
        wm = wedderburn_data(b)
    dims = [blk.n for blk in wm.report.blocks]
    for idx in (fam.block, fam.other):
        if idx is not None and not 0 <= idx < len(dims):
            raise InvalidInputError(
                f"block {idx + 1} out of range: blocks are 1..{len(dims)}")
    f = b.field
    rad_rows = [list(r) for r in wm.radical.basis]

    def all_units_except(skip: set[int]) -> list[list]:
        rows = []
        for bi in range(len(dims)):
            if bi in skip:
                continue
            for row in wm.block_units[bi]:
                rows.extend(list(u) for u in row)
        return rows

    if fam.kind == "block_triangular":
        n = dims[fam.block]
        k = fam.k
        if not 1 <= k < n:
            raise InvalidInputError("need 1 <= k < n")
        rows = all_units_except({fam.block})
        for p in range(n):
            for q in range(n):
                if not (p >= k and q < k):
                    rows.append(list(wm.block_units[fam.block][p][q]))
        rows += rad_rows
    elif fam.kind == "diagonal_merge":
        i, j = fam.block, fam.other
        if dims[i] != dims[j] or i == j:
            raise InvalidInputError("diagonal merge needs equal distinct blocks")
        rows = all_units_except({i, j})
        n = dims[i]
        for p in range(n):
            for q in range(n):
                rows.append(vec_add(list(wm.block_units[i][p][q]),
                                    list(wm.block_units[j][p][q]), f))
        rows += rad_rows
    elif fam.kind == "radical_hyperplane":
        func = fam.functional
        if func is None:
            if params is None:
                raise InvalidInputError(
                    "parameterized hyperplane family needs explicit coordinates")
            func = tuple(f.coerce(c) for c in params)
        else:
            if params is not None:
                raise InvalidInputError("family already carries coordinates")
            func = tuple(f.coerce(c) for c in func)
        comps = radical_components(b, wm)
        i, j = fam.block, fam.other
        if (i, j) not in comps.corners:
            raise InvalidInputError(
                f"no radical component at blocks ({i + 1}, {j + 1})")
        corner = comps.corners[(i, j)]
        m = corner.dim
        if len(func) != m or all(c == 0 for c in func):
            raise InvalidInputError("functional must be nonzero of length m")
        t, jsp = comps.t_quotient, comps.j_space
        # H in B: the other components of T = J/J^2 lifted into J, the
        # u_p0·w·u_0q for w in the hyperplane ker(func) of the multiplicity
        # space (modulo J^2 each is the lift of its image in T), and J^2
        rows = all_units_except(set())
        rows += [combine(t.lift(r), jsp.basis, f)
                 for key, comp in comps.components.items() if key != (i, j)
                 for r in comp.basis]
        for kv in kernel([list(func)], m, f).basis:
            wb = combine(t.lift(combine(kv, corner.basis, f)), jsp.basis, f)
            rows += [b.multiply(b.multiply(list(wm.block_units[i][p][0]), wb),
                                list(wm.block_units[j][0][q]))
                     for p in range(dims[i]) for q in range(dims[j])]
        rows += [combine(r, jsp.basis, f) for r in t.relations.basis]
    elif fam.kind == "subfield_centralizer":
        if not f.is_finite:
            raise NotFiniteFieldError(
                "subfield centralizer families exist over finite fields only")
        i = fam.block
        n = dims[i]
        d = fam.degree
        if not _is_prime(d) or n % d != 0:
            raise InvalidInputError("degree must be a prime divisor of n")
        poly = irreducible(d, f)
        # companion matrix of the polynomial, embedded n/d times on the
        # diagonal: ones below the diagonal, -poly in the last column
        units = wm.block_units[i]
        starts = range(0, n, d)
        below = [units[r + c + 1][r + c] for r in starts for c in range(d - 1)]
        last = [units[r + c][r + d - 1] for r in starts for c in range(d)]
        felt = vec_sub(combine([f.one()] * len(below), below, f),
                       combine(poly[:d] * (n // d), last, f), f)
        cent = centralizer_in(wm.complement, [felt])
        rows = [list(r) for r in cent.space.basis] + rad_rows
    else:
        raise InvalidInputError(f"unknown family kind {fam.kind!r}")
    out = subalgebra_from_rows(b, rows, check=True)
    want = b.dim - fam.predicted_codim(dims)
    if out.dim != want:
        raise VerificationFailedError(
            f"instantiated family has dim {out.dim}, expected {want}")
    return out


# ---------------------------------------------------------------------------
# certification

@dataclass(frozen=True)
class Certificate:
    """Status "maximal", by method "burnside", "spin_up" or "exhaustive";
    "not_maximal", by "stable_subspace" with the witness; or, over Q only,
    "inconclusive", by "burnside_failed"."""

    status: str
    method: str
    quotient_dim: int
    witness: Subalgebra | None = None


def _quotient_bimodule_ops(a: Subalgebra, b: Algebra,
                           ) -> tuple[QuotientSpace, list[list], list[list]]:
    """B/A as an A-bimodule: the quotient, and the matrices of left and of
    right multiplication by each integer basis row of A.

    The lift of quotient basis vector c is the basis vector at free
    coordinate c, so column c of an operator is read off one integer
    product, reduced modulo A at the free coordinates.  Every matrix is the
    same positive multiple of the exact operator (1 over F_p), which
    changes no span, spin-up, stable subspace or witness.
    """
    a.check_parent(b)
    if a.dim >= b.dim:
        raise InvalidInputError("subalgebra is not proper")
    q = quotient_space(b.dim, a.space.basis, b.field)
    lifts = [[int(i == c) for i in range(b.dim)] for c in q.free_coords]
    mul = b._multiply_ints

    def matrix(cols):
        return [list(row) for row in zip(*map(q._project_ints, cols))]

    rows = a.space.int_basis[1]
    return (q, [matrix(mul(r, e) for e in lifts) for r in rows],
            [matrix(mul(e, r) for e in lifts) for r in rows])


def _generated_operator_dim(lops: list[list], rops: list[list], d: int,
                            field: Field) -> int:
    """Dimension of the algebra of d x d matrices that the left and the
    right operators of a bimodule generate (see `certify_maximal`).

    That algebra is span L(A)·R(A): the products of an echelon basis of
    span L(A) with one of span R(A), on row-major flattened integer
    matrices, stopping once they span all d² dimensions.
    """
    def basis(ops):
        return _Echelon(field, ([x for row in m for x in row] for m in ops)).rows

    lefts = [[row[i * d:(i + 1) * d] for i in range(d)] for row in basis(lops)]
    rights = [[row[i::d] for i in range(d)] for row in basis(rops)]
    span = _Echelon(field)
    for lm in lefts:
        for cols in rights:
            span.add([sum(x * y for x, y in zip(r, c) if x and y)
                      for r in lm for c in cols])
            if len(span.rows) == d * d:
                return d * d
    return len(span.rows)


def _spin_up(v: Sequence, ops: list[list], d: int, field: Field) -> Subspace:
    """The sub-bimodule generated by v: v saturated under the operators."""
    maps = [lambda w, m=m: mat_vec(m, w, field) for m in ops]
    return saturate([v], maps, d, field)


def _line_search(a: Subalgebra, b: Algebra, q: QuotientSpace,
                 ops: list[list]) -> Certificate:
    """Look for a subalgebra strictly between A and B, one line of B/A at a
    time.

    An intermediate subalgebra C holds, with any x in C outside A, the
    sub-bimodule U that x spins up in B/A, and the subalgebra that A and
    the lifts of U generate; conversely any such generated subalgebra
    short of B is intermediate.  The test depends only on the line of x,
    so trying every line of B/A (over F_p) decides maximality exactly.
    Over Q the lines are the unit vectors and 8 seeded draws.
    """
    f = b.field
    d = q.dim
    if f.is_finite:
        lines = _projective_functionals(d, f)
    else:
        rng = random.Random(0)  # a fixed seed: every run tries the same lines
        lines = itertools.chain(
            (unit_vec(d, k, f) for k in range(d)),
            ([f.coerce(rng.randint(-2, 2)) for _ in range(d)]
             for _ in range(8)))
    rows = list(a.space.basis)
    seen = set()
    for v in lines:
        if vec_is_zero(v):
            continue
        sub = _spin_up(v, ops, d, f)
        if sub.dim == d or sub.basis in seen:
            continue
        seen.add(sub.basis)
        gen = subalgebra_generated(b, rows + [q.lift(r) for r in sub.basis])
        if gen.dim < b.dim:
            return Certificate("not_maximal", "stable_subspace", d, gen)
    if not f.is_finite:
        return Certificate("inconclusive", "burnside_failed", d)
    return Certificate("maximal", "exhaustive" if seen else "spin_up", d)


def certify_maximal(a: Subalgebra, b: Algebra) -> Certificate:
    """Certify that a proper subalgebra is maximal, or exhibit a witness.

    Sufficient test (method "burnside"): the algebra generated by the
    left/right actions of A on B/A is all of End(B/A), so B/A is a simple
    bimodule.  Left multiplication L: A -> End(B/A) is a unital
    homomorphism and right multiplication R a unital anti-homomorphism,
    and L(a) commutes with R(a') by associativity, (a·x)·a' = a·(x·a').
    So every word in the operators is some L(a)·R(a'), and the algebra
    they generate is span L(A)·R(A): products of two echelon bases, with
    no words to saturate.  Otherwise `_line_search` decides: over F_p
    exactly ("spin_up" when every line spins up to all of B/A,
    "exhaustive" when some generated subalgebra had to be checked, or
    "not_maximal" with a witness); over Q it may end "inconclusive".
    """
    q, lops, rops = _quotient_bimodule_ops(a, b)
    d = q.dim
    if _generated_operator_dim(lops, rops, d, b.field) == d * d:
        return Certificate("maximal", "burnside", d)
    return _line_search(a, b, q, lops + rops)


def spin_up_recheck(a: Subalgebra, b: Algebra) -> bool:
    """Independent maximality recheck over a finite field: the line search
    of `certify_maximal` without its Burnside step."""
    if not b.field.is_finite:
        raise NotFiniteFieldError("spin-up recheck needs a finite field")
    q, lops, rops = _quotient_bimodule_ops(a, b)
    return _line_search(a, b, q, lops + rops).status == "maximal"


# ---------------------------------------------------------------------------
# type classification

@dataclass(frozen=True)
class TypeVerdict:
    kind: str                      # "semisimple" | "split"
    radical_contained: bool
    split_radical_match: bool | None = None
    a_block_dims: tuple[int, ...] | None = None
    b_block_dims: tuple[int, ...] | None = None


def classify_type(a: Subalgebra, b: Algebra,
                  rep: StructureReport | None = None) -> TypeVerdict:
    """Semisimple type iff J(B) lies inside A; otherwise split type.

    Split verdicts carry the verified evidence J(A) = A meet J(B) and the
    equality of simple-dimension multisets.  rep is B's structure report
    (say `wm.report`, for many subalgebras of one B): given it, nothing
    about B is computed here, and without it B's report is built.  A
    semisimple verdict never reads B's blocks, so it decomposes nothing.
    """
    a.check_parent(b)
    if rep is None:
        rep = structure_report(b)
    jb = rep.radical
    if all(a.space.contains_vec(list(r)) for r in jb.basis):
        return TypeVerdict("semisimple", True)
    arep = structure_report(a.as_algebra())
    ja_in_b = echelonize([a.embed(list(r)) for r in arep.radical.basis],
                         b.dim, b.field)
    match = ja_in_b == subspace_intersection(a.space, jb)
    if not arep.schur or not rep.schur:
        raise NotSplitError("cannot compare simple dimensions: not split")
    return TypeVerdict("split", False, match, arep.block_dims, rep.block_dims)


# ---------------------------------------------------------------------------
# the brute-force oracle

@dataclass(frozen=True)
class OracleResult:
    maximal: tuple[Subalgebra, ...]
    classes: tuple[tuple[Subalgebra, ...], ...]
    class_reps: tuple[tuple, ...]
    max_dim: int | None


class _Packed:
    """Vectors of F_p^n packed into one int, for the oracle's loops.

    Entry i sits in bits [i·w, (i+1)·w) with w = bit_length(p) + 1, so the
    sum of two residues fits its field and one masked conditional
    subtraction reduces every field at once.  A packed vector hashes and
    compares as one int.  Build one with `_packed(p, n)`, which picks the
    layout from p; its tables belong to the call that builds them.
    """

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.w = w = p.bit_length() + 1
        self.mask = (1 << w) - 1
        self._digits = range(p)         # each residue packed at entry 0
        low = sum(1 << (i * w) for i in range(n))
        self._top = low << (w - 1)
        # a field plus its bias reaches the top bit iff the field is >= p
        self._bias = low * ((1 << (w - 1)) - p)

    def pack(self, v: Sequence[int]) -> int:
        p, w, digits = self.p, self.w, self._digits
        acc = 0
        for x in reversed(v):
            acc = acc << w | digits[x % p]
        return acc

    def unpack(self, x: int) -> list[int]:
        m, w = self.mask, self.w
        return [(x >> (i * w)) & m for i in range(self.n)]

    def support(self, cols: int) -> int:
        """The bits of the entries at the columns c with bit c set in cols."""
        return sum(self.mask << (c * self.w) for c in range(self.n)
                   if (cols >> c) & 1)

    def add(self, x: int, y: int) -> int:
        s = x + y
        return s - (((s + self._bias) & self._top) >> (self.w - 1)) * self.p

    def multiples(self, x: int) -> list[int]:
        """[c·x for c in range(p)]."""
        out = [0, x]
        for _ in range(self.p - 2):
            out.append(self.add(out[-1], x))
        return out

    def columns(self, m: Sequence[Sequence[int]]) -> list[list[int]]:
        """The multiples of each column of an integer matrix, for `apply`."""
        return [self.multiples(self.pack(col)) for col in zip(*m)]

    def apply(self, cols: list[list[int]], x: int) -> int:
        """m·x, for cols = columns(m)."""
        add, m, w = self.add, self.mask, self.w
        acc = 0
        for tab in cols:
            if not x:
                break
            c = x & m
            if c:
                acc = add(acc, tab[c])
            x >>= w
        return acc

    def step(self, q: int, row: int) -> tuple[int, list[int]]:
        """What `residual` reads of a row whose entry at column q is 1."""
        mults = self.multiples(row)
        return q * self.w, mults[:1] + mults[:0:-1]     # −c·row = (p − c)·row

    def residual(self, x: int, steps: Iterable[tuple[int, list[int]]]) -> int:
        """x − Σ x[q]·row over rows that vanish at each other's pivot q:
        zero iff x lies in their span."""
        add, m = self.add, self.mask
        r = x
        for s, negs in steps:
            c = (x >> s) & m
            if c:
                r = add(r, negs[c])
        return r

    def lead(self, x: int) -> tuple[int, int]:
        """(q, x[q]) for the first nonzero entry q of a nonzero x (also
        over F_2, where w = 1)."""
        q = ((x & -x).bit_length() - 1) // self.w
        return q, (x >> (q * self.w)) & self.mask

    def echelon(self, xs: Iterable[int]) -> list[tuple[int, int]] | None:
        """Gauss–Jordan: the RREF of span(xs) as (pivot, row) pairs sorted
        by pivot, each row 1 at its pivot and 0 at the others; None as soon
        as an x lies in the span of the xs before it."""
        rows: dict[int, int] = {}
        steps: dict[int, tuple] = {}
        for x in xs:
            r = self.residual(x, steps.values())
            if not r:
                return None
            q, c = self.lead(r)
            if c != 1:
                r = self.multiples(r)[pow(c, -1, self.p)]
            steps[q] = s = self.step(q, r)
            for k, row in rows.items():
                y = self.residual(row, (s,))
                if y != row:
                    rows[k], steps[k] = y, self.step(k, y)
            rows[q] = r
        return sorted(rows.items())


class _PackedF2(_Packed):
    """One bit per entry, and addition is XOR, as in M4RI
    (Albrecht–Bard–Hart, ACM TOMS 2010)."""

    def __init__(self, n: int):
        self.p, self.n, self.w, self.mask = 2, n, 1, 1
        self._digits = (0, 1)

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def support(self, cols: int) -> int:
        return cols

    def multiples(self, x: int) -> list[int]:
        return [0, x]

    def apply(self, cols: list[list[int]], x: int) -> int:
        acc = 0
        for tab in cols:
            if not x:
                break
            acc ^= tab[x & 1]
            x >>= 1
        return acc

    def step(self, q: int, row: int) -> tuple[int, int]:
        return q, row

    def residual(self, x: int, steps: Iterable[tuple[int, int]]) -> int:
        r = x
        for q, row in steps:
            if (x >> q) & 1:
                r ^= row
        return r


class _PackedF3(_Packed):
    """Two bit planes, as in Boothby–Bradshaw ("Bitslicing and the method
    of four Russians over larger finite fields", 2009): bit i is set where
    entry i is 1, and bit n + i where it is 2.  A sum takes six bitwise
    operations on the planes, and negation swaps them."""

    def __init__(self, n: int):
        self.p, self.n, self.w = 3, n, 1
        self.mask = (1 << n) - 1        # the low plane
        self._digits = (0, 1, 1 << n)

    def unpack(self, x: int) -> list[int]:
        n = self.n
        return [(x >> i) & 1 | ((x >> (i + n)) & 1) << 1 for i in range(n)]

    def support(self, cols: int) -> int:
        return cols | cols << self.n

    def add(self, x: int, y: int) -> int:
        n, low = self.n, self.mask
        x1, x2, y1, y2 = x & low, x >> n, y & low, y >> n
        t = (x1 | y2) ^ (x2 | y1)
        return ((x2 | y2) ^ t) | ((x1 | y1) ^ t) << n

    def multiples(self, x: int) -> list[int]:
        return [0, x, (x & self.mask) << self.n | x >> self.n]

    def columns(self, m: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
        low, n = self.mask, self.n
        return [(c & low, c >> n) for c in map(self.pack, zip(*m))]

    def apply(self, cols: list[tuple[int, int]], x: int) -> int:
        x1, x2 = x & self.mask, x >> self.n
        r1 = r2 = 0
        for a1, a2 in cols:
            if not x1 | x2:
                break
            if x1 & 1:
                t = (r1 | a2) ^ (r2 | a1)
                r1, r2 = (r2 | a2) ^ t, (r1 | a1) ^ t
            elif x2 & 1:
                t = (r1 | a1) ^ (r2 | a2)
                r1, r2 = (r2 | a1) ^ t, (r1 | a2) ^ t
            x1 >>= 1
            x2 >>= 1
        return r1 | r2 << self.n

    def step(self, q: int, row: int) -> tuple[int, int, int]:
        return q, row & self.mask, row >> self.n

    def residual(self, x: int, steps: Iterable[tuple[int, int, int]]) -> int:
        x1, x2 = x & self.mask, x >> self.n
        r1, r2 = x1, x2
        for q, a1, a2 in steps:
            if (x1 >> q) & 1:       # r − row: add the swapped planes
                t = (r1 | a1) ^ (r2 | a2)
                r1, r2 = (r2 | a1) ^ t, (r1 | a2) ^ t
            elif (x2 >> q) & 1:     # r − 2·row = r + row
                t = (r1 | a2) ^ (r2 | a1)
                r1, r2 = (r2 | a2) ^ t, (r1 | a1) ^ t
        return r1 | r2 << self.n

    def lead(self, x: int) -> tuple[int, int]:
        z = (x | x >> self.n) & self.mask
        q = (z & -z).bit_length() - 1
        return q, 1 if (x >> q) & 1 else 2


def _packed(p: int, n: int) -> _Packed:
    """The packed layout of F_p^n: one bit per entry over F_2, two bit
    planes over F_3, w-bit fields otherwise.  Against w-bit fields for
    every prime, the two bit layouts take `fp-oracle` `wall_s` from 0.384
    to 0.330 s (medians of 10 pairs, lower in all 10, `BENCH_26.json`)."""
    if p == 2:
        return _PackedF2(n)
    if p == 3:
        return _PackedF3(n)
    return _Packed(p, n)


def unit_group(b: Algebra) -> list[tuple[list, list]]:
    """All invertible elements with their inverses; |B| must be <= 3^7.

    The sweep walks the seeds 1 + c·b_i (c = 1..p−1), then `all_vectors`.
    A vector not yet seen is eliminated once as [L_x | 1], packed over
    n + 1 entries (`_Packed.echelon`, which stops at the first dependent
    row): x is a unit iff L_x has full rank, and the right-hand part is
    x⁻¹.  A unit found so joins the generators G, and the left orbit of x
    under G is filled in by products alone: g·x is a unit exactly when x
    is, with inverse x⁻¹·g⁻¹.  A seed is a unit whenever b_i lies in J, as
    the arrows of a standard path-algebra basis do, so G grows before the
    sweep reaches the vectors 0, b_1, … that are no units.  The orbit fill
    runs on packed vectors (`_Packed`): g·x and x⁻¹·g⁻¹ are sums of column
    multiples of L_g and R_g⁻¹, and the packed x is the key of its
    inverse.  The pairs come out in `all_vectors` order, each checked by
    y·x = 1.  On the A3/F_3 input of `fp-oracle` (seed 1): 55 eliminations
    instead of 729 (48 instead of 365 in its standard basis), and 6.7 ms
    (46 before the orbit fill, 8.6 with list eliminations).  On D4/F_2 82
    of the 128 vectors are eliminated, at 11 µs packed against 51 on
    lists (means over all 128).
    """
    f, n, one = b.field, b.dim, list(b.unit)
    if not f.is_finite:
        raise NotFiniteFieldError("unit group sweep needs a finite field")
    if f.p ** n > 3 ** 7:
        raise CapExceededError("unit group too large to sweep")
    p = f.p
    pk, aug = _packed(p, n), _packed(p, n + 1)     # aug: rows [L_x | 1]
    inverse: dict[int, int | None] = {}
    gens: list[tuple[list, list]] = []      # columns of L_g and R_g⁻¹
    seeds = [[(x + c * (i == j)) % p for j, x in enumerate(one)]
             for i in range(n) for c in range(1, p)]
    keys = []
    for v in itertools.chain(seeds, all_vectors(n, f)):
        key = pk.pack(v)
        keys.append(key)
        if key in inverse:
            continue
        lv = b._left_ints(v)
        e = aug.echelon(aug.pack(row + [u]) for row, u in zip(lv, one))
        inv = None
        if e is not None and e[-1][0] < n:
            inv = [aug.unpack(row)[n] for _, row in e]
            gens.append((pk.columns(lv), pk.columns(b._right_ints(inv))))
            inv = pk.pack(inv)
        inverse[key] = inv
        todo = [(key, inv)]
        while todo:
            x, xinv = todo.pop()
            for lg, rginv in gens:
                y = pk.apply(lg, x)
                if y not in inverse:
                    yinv = None if xinv is None else pk.apply(rginv, xinv)
                    inverse[y] = yinv
                    todo.append((y, yinv))
    units = [(list(v), pk.unpack(inverse[key]))
             for v, key in zip(all_vectors(n, f), keys[len(seeds):])
             if inverse[key] is not None]
    for v, inv in units:
        if [x % p for x in b._multiply_ints(inv, v)] != one:
            raise VerificationFailedError("a unit's inverse fails y·x = 1")
    return units


def _orbit(b: Algebra, space: Subspace, units: Sequence[tuple[list, list]],
           pk: _Packed, packed: Sequence[int]) -> set[tuple]:
    """The echelon bases of the conjugates u·A·u⁻¹ of a unital subalgebra
    A = space, one conjugation per coset u·A^×; packed = the units packed
    by pk.

    A unit a of B in A has a⁻¹ ∈ A, so u·a conjugates A as u does.  The
    walk conjugates by the first unit of each coset, checked by u·u⁻¹ = 1,
    and marks the rest of it with |A^×| products, A^× being the units that
    A holds.  It all runs on packed vectors (`_Packed`); a conjugate is a
    packed RREF (`_Packed.echelon`), unpacked once if new.  On A3/F_3 of
    `fp-oracle` (seed 1) the 5 orbits take 12 conjugations instead of
    1620, and 2.9 ms (62 on lists by every unit, 3.9 with list RREFs).
    """
    rows = [pk.pack(r) for r in space.int_basis[1]]
    steps = [pk.step(q, r) for q, r in zip(space.pivots, rows)]
    inner = [a for a in packed if not pk.residual(a, steps)]
    one = pk.pack(b.unit)
    conjugates, marked = set(), set()
    for (u, uinv), pu in zip(units, packed):
        if pu in marked:
            continue
        lu = pk.columns(b._left_ints(u))
        if pk.apply(lu, pk.pack(uinv)) != one:
            raise InvalidInputError("a unit pair fails u·u⁻¹ = 1")
        marked.update(pk.apply(lu, a) for a in inner)
        ruinv = pk.columns(b._right_ints(uinv))
        conjugates.add(tuple(r for _, r in pk.echelon(
            pk.apply(ruinv, pk.apply(lu, x)) for x in rows)))
    return {tuple(tuple(pk.unpack(r)) for r in c) for c in conjugates}


def conjugacy_orbit_rep(b: Algebra, space: Subspace,
                        units: list[tuple[list, list]]) -> tuple:
    """Canonical representative (minimal echelon basis) of the orbit.

    Raises InvalidInputError unless `space` is a unital subalgebra A (it
    contains 1 and is closed), for which alone one conjugation per coset
    of A^× covers the orbit, or when a pair that it conjugates by fails
    u·u⁻¹ = 1; DimensionError on a pair of the wrong length; and
    NotFiniteFieldError over Q, where no unit list is finite.
    """
    f, n = b.field, b.dim
    if not f.is_finite:
        raise NotFiniteFieldError("orbit representatives need a finite field")
    if any(len(u) != n or len(uinv) != n for u, uinv in units):
        raise DimensionError("unit pair length != algebra dimension")
    if not is_closed_subspace(b, space):
        raise InvalidInputError(
            "orbit representatives need a unital subalgebra: "
            "the space lacks 1 or is not closed")
    pk = _packed(f.p, n)
    return min(_orbit(b, space, units, pk, [pk.pack(u) for u, _ in units])
               | {space.basis})


def _unital_subalgebras(b: Algebra) -> Iterator[Subspace]:
    """The proper unital subalgebras of b in descending dimension, in the
    order of `enumerate_subspaces`, by a depth-first walk over the rows of
    their RREF bases.

    With pivots P, row x_t vanishes at the other pivots and before P_t, so
    v lies in the span iff v[c] = Σ v[P_t]·x_t[c] over the rows with
    P_t < c, at every non-pivot column c.  That 1 lies in it fixes, for
    each non-pivot c, the entry of the latest row with P_r < c and
    1[P_r] ≠ 0 from the earlier rows of column c.  Once rows 0..r are
    fixed, the equations of a product x_i·x_j (i, j ≤ r) hold or fail for
    good at every non-pivot c < P_{r+1}: the new pairs are tested on all of
    them, the older pairs on the columns P_r < c < P_{r+1} that row r
    unlocks, and a failure cuts the branch.  As 1 = Σ 1[P_t]·x_t, the
    products with the latest row t with 1[P_t] ≠ 0 lie in the span once
    the others do, so its pairs are never tested.  Rows and products are
    packed vectors (`_Packed`), and one table holds every product the walk
    forms: its equations at the columns in play are its `residual` against
    the fixed rows, masked by a `support`.

    Each fixed row is kept twice, as an int tuple for `_multiply_ints`,
    the solved columns and the yielded basis, and packed for the table
    keys and residuals: unpacking on each table miss instead made the walk
    12–45 % slower on the `fp-oracle` inputs D4/F_2, A3/F_3 and the
    M3/F_2 `observed_max_dim` (best of 200 runs each).  Likewise the
    assignments of each tuple of free columns are built once per call:
    building them at each node cut the gain over the list walk from 31 to
    6 % on the M3/F_2 `observed_max_dim` and from 23 to 15 % on A3/F_3.
    """
    n, f, p, one = b.dim, b.field, b.field.p, b.unit
    lead = next((i for i, x in enumerate(one) if x), None)
    mul = b._multiply_ints
    pk = _packed(p, n)
    table: dict[tuple[int, int], int] = {}

    def outside(i: int, j: int, rows: list[tuple], packed: list[int],
                steps: list, cols: int) -> int:
        """Nonzero iff x_i·x_j breaks the span's equation at a column of
        cols (a `support`), each one before the pivot of the first unfixed
        row."""
        x, y = packed[i], packed[j]
        v = table.get((x, y))
        if v is None:
            v = table[x, y] = pk.pack(mul(rows[i], rows[j]))
        return pk.residual(v, steps) & cols

    def walk(pivots: tuple, plan: list, rows: list[tuple], packed: list[int],
             steps: list):
        r = len(rows)
        if r == len(pivots):
            yield Subspace(f, n, (1, tuple(rows)), pivots)
            return
        base, fixed, free, solved, checks = plan[r]
        row = base[:]
        for c, terms, uc, s in solved:
            row[c] = v = (uc - sum(a * rows[t][c] for t, a in terms)) * s % p
            fixed |= scaled[c][v]
        settings = cache.get(free)
        if settings is None:
            settings = cache[free] = assignments(free)
        for values, bits in settings:
            for c, x in zip(free, values):
                row[c] = x
            rows.append(tuple(row))
            x = fixed | bits
            packed.append(x)
            steps.append(pk.step(pivots[r], x))
            if not any(outside(i, j, rows, packed, steps, cols)
                       for pairs, cols in checks if cols for i, j in pairs):
                yield from walk(pivots, plan, rows, packed, steps)
            rows.pop()
            packed.pop()
            steps.pop()

    def assignments(free: tuple) -> list[tuple[tuple, int]]:
        """Each assignment of values to the free columns, in the order of
        `itertools.product`, and its packing: the packing of a sum of
        vectors with disjoint supports is the sum of theirs."""
        entries = [scaled[c] for c in free]
        return list(zip(itertools.product(range(p), repeat=len(free)),
                        map(sum, itertools.product(*entries))))

    cache: dict[tuple, list] = {(): [((), 0)]}
    # scaled[c][a] = a·e_c; e_c packs to 1 << (c·w) in every layout
    scaled = [pk.multiples(1 << (c * pk.w)) for c in range(n)]

    # walk refers to itself through its closure cell: deleting it when the
    # walk ends or is closed frees its tables without the cyclic collector
    try:
        for k in range(n - 1, 0, -1):
            for pivots in itertools.combinations(range(n), k):
                if lead not in pivots:  # 1's first nonzero entry is a pivot
                    continue
                skip = max(t for t, q in enumerate(pivots) if one[q])
                nonpivots = [c for c in range(n) if c not in pivots]
                plan, seen = [], 0          # bits of the pivots met so far
                for r, (q, bound) in enumerate(zip(pivots, pivots[1:] + (n,))):
                    base = [0] * n
                    base[q] = 1
                    free, solved = [], []
                    for c in nonpivots:
                        if c < q:
                            continue
                        # the rows that the equation of 1 at column c reads
                        ts = [t for t, pc in enumerate(pivots)
                              if pc < c and one[pc]]
                        if ts and ts[-1] == r:
                            terms = [(t, one[pivots[t]]) for t in ts[:-1]]
                            solved.append((c, terms, one[c], pow(one[q], -1, p)))
                        else:
                            free.append(c)
                    seen |= 1 << q
                    cols = ((1 << bound) - 1) & ~seen
                    new = [] if r == skip else (
                        [(i, r) for i in range(r + 1) if i != skip]
                        + [(r, i) for i in range(r) if i != skip])
                    old = [(i, j) for i in range(r) for j in range(r)
                           if skip not in (i, j)]
                    plan.append((base, scaled[q][1], tuple(free), solved, [
                        (new, pk.support(cols)),
                        (old, pk.support(cols >> (q + 1) << (q + 1)))]))
                yield from walk(pivots, plan, [], [], [])
    finally:
        del walk


def brute_force_maximal(b: Algebra) -> OracleResult:
    """Ground truth: all maximal subalgebras of a small finite algebra.

    The row walk `_unital_subalgebras` yields the proper unital
    subalgebras in descending dimension, and s is maximal iff no maximal
    one met before contains it: every subalgebra t ⊋ s lies in a maximal
    one of larger dimension, which the walk meets first; the containment
    test is a packed `residual` of each row of s against a maximal one.
    Each maximal A not yet labelled is conjugated by one unit per coset
    u·A^× (`_orbit`), and its whole orbit gets the orbit's minimal echelon
    basis as its conjugacy class key.  `fp-oracle` `wall_s`, medians of 10
    pairs: 1.05 → 0.58 s with the left-orbit `unit_group` (`BENCH_21.json`),
    0.59 → 0.47 s with the walk (`BENCH_23.json`), 0.468 → 0.329 s on packed
    vectors (`BENCH_26.json`) and 0.325 → 0.292 s with packed eliminations
    (`BENCH_29.json`).
    """
    if not b.field.is_finite or b.field.p not in ORACLE_PRIMES:
        raise NotFiniteFieldError("oracle runs over F_2 and F_3 only")
    if b.dim > ORACLE_DIM_CAP:
        raise CapExceededError(
            f"oracle caps at dimension {ORACLE_DIM_CAP}, got {b.dim}")
    pk = _packed(b.field.p, b.dim)
    maximal: list[Subspace] = []
    spans: list[tuple[int, list]] = []      # dim and `residual` steps
    for s in _unital_subalgebras(b):
        rows = [pk.pack(r) for r in s.int_basis[1]]
        if not any(d > s.dim and not any(pk.residual(r, steps) for r in rows)
                   for d, steps in spans):
            maximal.append(s)
            spans.append((s.dim, [pk.step(q, r)
                                  for q, r in zip(s.pivots, rows)]))
    units = unit_group(b)
    packed = [pk.pack(u) for u, _ in units]
    labels: dict[tuple, tuple] = {}
    reps: dict[tuple, list[Subalgebra]] = {}
    for s in maximal:
        if s.basis not in labels:
            orbit = _orbit(b, s, units, pk, packed)
            labels.update(dict.fromkeys(orbit, min(orbit)))
        reps.setdefault(labels[s.basis], []).append(Subalgebra(b, s))
    keys = sorted(reps)
    classes = tuple(tuple(reps[k]) for k in keys)
    max_dim = max((s.dim for s in maximal), default=None)
    return OracleResult(tuple(Subalgebra(b, s) for s in maximal),
                        classes, tuple(keys), max_dim)


def observed_max_dim(b: Algebra) -> int | None:
    """Largest dimension of a proper unital closed subspace (early exit).

    The dimension of the first subalgebra that the row walk
    `_unital_subalgebras` meets; wider ambient caps than the full oracle,
    since the walk stops there.
    """
    if not b.field.is_finite or b.field.p not in MAXDIM_AMBIENT_CAP:
        raise NotFiniteFieldError("observed_max_dim runs over F_2 and F_3 only")
    if b.dim > MAXDIM_AMBIENT_CAP[b.field.p]:
        raise CapExceededError("ambient dimension beyond the max-dim cap")
    return next((s.dim for s in _unital_subalgebras(b)), None)


def max_proper_subalgebra_dim(b: Algebra) -> int:
    """dim(B) - 1 - max(n_1 - 2, 0) for the smallest block size n_1."""
    if b.dim < 2:
        raise InvalidInputError(
            "a one-dimensional algebra has no proper unital subalgebra")
    rep = structure_report(b)
    if not rep.schur:
        raise NotSplitError(rep.failure)
    n1 = rep.block_dims[0]
    return b.dim - 1 - max(n1 - 2, 0)
