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
from typing import Iterator, Sequence

from .algebra import (
    Algebra,
    Subalgebra,
    centralizer_in,
    conjugate_subspace,
    invert_element,
    is_closed_subspace,
    subalgebra_from_rows,
)
from .errors import (
    CapExceededError,
    InvalidInputError,
    NotFiniteFieldError,
    NotSplitError,
    VerificationFailedError,
)
from .linalg import (
    Field,
    QuotientSpace,
    Subspace,
    _is_prime,
    all_vectors,
    combine,
    echelonize,
    enumerate_subspaces,
    identity_matrix,
    kernel,
    mat_mul,
    mat_vec,
    quotient_space,
    saturate,
    subspace_contains,
    subspace_intersection,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .structure import (
    WMData,
    jacobson_radical,
    semisimple_blocks,
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
    jj_rows = [j.coords(b.multiply(list(x), list(y)))
               for x in j.basis for y in j.basis]
    t = quotient_space(j.dim, jj_rows, f)

    def sandwich(u: Sequence, tvec: Sequence, v: Sequence) -> tuple:
        x = combine(t.lift(tvec), j.basis, f)
        prod = b.multiply(b.multiply(list(u), x), list(v))
        return t.project(j.coords(prod))

    components = {}
    corners = {}
    nblocks = len(wm.report.blocks)
    total = 0
    for i in range(nblocks):
        for jdx in range(nblocks):
            ei = list(wm.block_idempotents[i])
            ej = list(wm.block_idempotents[jdx])
            comp_rows = [sandwich(ei, unit_vec(t.dim, kk, f), ej)
                         for kk in range(t.dim)]
            comp = echelonize(comp_rows, t.dim, f)
            u00 = list(wm.block_units[i][0][0])
            v00 = list(wm.block_units[jdx][0][0])
            corner_rows = [sandwich(u00, unit_vec(t.dim, kk, f), v00)
                           for kk in range(t.dim)]
            corner = echelonize(corner_rows, t.dim, f)
            if comp.dim:
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

def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def enumerate_maximal_families(b: Algebra, seed: int = 0,
                               wm: WMData | None = None) -> list[MaximalFamily]:
    """All maximal families per the classification; see MaximalFamily.

    Hyperplane families are parameterized (functional=None) over Q and
    enumerated pointwise over a finite field; subfield-centralizer
    families appear only over finite fields.
    """
    if wm is None:
        wm = wedderburn_data(b, seed)
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
            if m < 1:
                continue
            if b.field.is_finite:
                for func in _projective_functionals(m, b.field):
                    fams.append(MaximalFamily("radical_hyperplane", i, other=j,
                                              multiplicity=m, functional=func))
            else:
                fams.append(MaximalFamily("radical_hyperplane", i, other=j,
                                          multiplicity=m, functional=None))
    if b.field.is_finite:
        for i, n in enumerate(dims):
            for d in _prime_divisors(n):
                if d > 1:
                    fams.append(MaximalFamily("subfield_centralizer", i, degree=d))
    return fams


def _irreducible_poly(p: int, d: int, field: Field) -> list:
    """A monic irreducible polynomial of degree d over F_p (ascending)."""
    from .structure import _poly_eval, _poly_powmod, _poly_sub

    x = [field.zero(), field.one()]
    for tail in itertools.product(range(p), repeat=d):
        poly = [field.coerce(c) for c in tail] + [field.one()]
        if any(_poly_eval(poly, field.coerce(c), field) == 0 for c in range(p)):
            continue
        # no root and x^(p^d) = x mod poly: irreducible when d is prime
        if not _poly_sub(_poly_powmod(x, p ** d, poly, field), x, field):
            return poly
    raise VerificationFailedError(f"no irreducible polynomial of degree {d}")


def instantiate_family(b: Algebra, fam: MaximalFamily,
                       params: Sequence | None = None, seed: int = 0,
                       wm: WMData | None = None) -> Subalgebra:
    """Concrete subalgebra for a family descriptor.

    params supplies the hyperplane functional for a parameterized
    radical-hyperplane family over an infinite field; every output is
    checked to have the codimension its kind predicts.
    """
    if wm is None:
        wm = wedderburn_data(b, seed)
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
        t = comps.t_quotient
        jsp = comps.j_space
        # hyperplane of the multiplicity space: kernel of the functional
        ker = kernel([list(func)], m, f)
        w_rows_t = [combine(kv, corner.basis, f) for kv in ker.basis]
        h_rows_t = []
        for (k2, l2), comp in comps.components.items():
            if (k2, l2) != (i, j):
                h_rows_t.extend(list(r) for r in comp.basis)
        ni, nj = dims[i], dims[j]
        for w in w_rows_t:
            wb = combine(t.lift(w), jsp.basis, f)
            for p in range(ni):
                for q in range(nj):
                    prod = b.multiply(
                        b.multiply(list(wm.block_units[i][p][0]), wb),
                        list(wm.block_units[j][0][q]))
                    h_rows_t.append(list(t.project(jsp.coords(prod))))
        # pull back to B: lift T rows into J, add J^2
        jj_rows = [list(r) for r in t.relations.basis]
        h_rows_b = [combine(t.lift(r), jsp.basis, f) for r in h_rows_t]
        h_rows_b += [combine(r, jsp.basis, f) for r in jj_rows]
        rows = all_units_except(set()) + h_rows_b
    elif fam.kind == "subfield_centralizer":
        if not f.is_finite:
            raise NotFiniteFieldError(
                "subfield centralizer families exist over finite fields only")
        i = fam.block
        n = dims[i]
        d = fam.degree
        if not _is_prime(d) or n % d != 0:
            raise InvalidInputError("degree must be a prime divisor of n")
        poly = _irreducible_poly(f.p, d, f)
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
    status: str                    # "maximal" | "not_maximal" | "inconclusive"
    method: str
    quotient_dim: int
    witness: Subalgebra | None = None


def _quotient_bimodule_ops(a: Subalgebra, b: Algebra,
                           ) -> tuple[QuotientSpace, list[list], list[list]]:
    q = quotient_space(b.dim, a.space.basis, b.field)
    d = q.dim
    lifts = [q.lift(unit_vec(d, kk, b.field)) for kk in range(d)]
    left_ops, right_ops = [], []
    for r in a.space.basis:
        lcols = [q.project(b.multiply(list(r), lifts[kk])) for kk in range(d)]
        rcols = [q.project(b.multiply(lifts[kk], list(r))) for kk in range(d)]
        left_ops.append([list(col) for col in zip(*lcols)])
        right_ops.append([list(col) for col in zip(*rcols)])
    return q, left_ops, right_ops


def _generated_operator_dim(mats: list[list], d: int, field: Field) -> int:
    """Dimension of the unital algebra of d x d matrices they generate.

    It is the span of all words in the matrices: the identity saturated
    under right multiplication by each, on row-major flattened matrices.
    """
    def times(flat, g):
        m = [flat[i * d:(i + 1) * d] for i in range(d)]
        return [x for row in mat_mul(m, g, field) for x in row]

    ident = [x for row in identity_matrix(d, field) for x in row]
    ops = [lambda flat, g=g: times(flat, g) for g in mats]
    return saturate([ident], ops, d * d, field).dim


def _spin_up(v: Sequence, ops: list[list], d: int, field: Field) -> Subspace:
    """The sub-bimodule generated by v: v saturated under the operators."""
    maps = [lambda w, m=m: mat_vec(m, w, field) for m in ops]
    return saturate([v], maps, d, field)


def _pullback_if_closed(a: Subalgebra, b: Algebra, q: QuotientSpace,
                        sub: Subspace) -> Subalgebra | None:
    rows = [list(r) for r in a.space.basis]
    rows += [q.lift(list(r)) for r in sub.basis]
    space = echelonize(rows, b.dim, b.field)
    if is_closed_subspace(b, space):
        return Subalgebra(b, space)
    return None


def certify_maximal(a: Subalgebra, b: Algebra, seed: int = 0) -> Certificate:
    """Certify that a proper subalgebra is maximal, or exhibit a witness.

    Sufficient test: the algebra generated by the left/right actions of A
    on B/A is all of End(B/A), so B/A is a simple bimodule.  Over a
    finite field an exhaustive fallback enumerates the stable subspaces
    and checks each pullback for closure, so the answer there is exact.
    """
    if a.dim >= b.dim:
        raise InvalidInputError("subalgebra is not proper")
    f = b.field
    q, lops, rops = _quotient_bimodule_ops(a, b)
    d = q.dim
    ops = lops + rops
    if _generated_operator_dim(ops, d, f) == d * d:
        return Certificate("maximal", "burnside", d)
    if f.is_finite:
        return _finite_certificate(a, b, q, ops)
    # over an infinite field: look for cyclic sub-bimodule witnesses
    candidates = []
    for kk in range(d):
        candidates.append(unit_vec(d, kk, f))
    rng = random.Random(seed)
    for _ in range(8):
        candidates.append([f.coerce(rng.randint(-2, 2)) for _ in range(d)])
    seen = set()
    for v in candidates:
        if vec_is_zero(v):
            continue
        sub = _spin_up(v, ops, d, f)
        if sub.dim == d or sub.basis in seen:
            continue
        seen.add(sub.basis)
        witness = _pullback_if_closed(a, b, q, sub)
        if witness is not None:
            return Certificate("not_maximal", "stable_subspace", d, witness)
    return Certificate("inconclusive", "burnside_failed", d)


def _finite_certificate(a: Subalgebra, b: Algebra, q: QuotientSpace,
                        ops: list[list]) -> Certificate:
    """Exact certificate over a finite field, without the Burnside step.

    B/A is simple when every nonzero vector spins up to all of it; as the
    spin-up of c*v is that of v, one vector per line is enough.  Otherwise
    the stable subspaces are enumerated and each pullback checked for
    closure.
    """
    f = b.field
    d = q.dim
    if all(_spin_up(v, ops, d, f).dim == d
           for v in _projective_functionals(d, f)):
        return Certificate("maximal", "spin_up", d)
    for k in range(1, d):
        for sub in enumerate_subspaces(d, k, f):
            stable = all(
                sub.contains_vec(mat_vec(op, list(r), f))
                for r in sub.basis for op in ops)
            if not stable:
                continue
            witness = _pullback_if_closed(a, b, q, sub)
            if witness is not None:
                return Certificate("not_maximal", "stable_subspace", d,
                                   witness)
    return Certificate("maximal", "exhaustive", d)


def spin_up_recheck(a: Subalgebra, b: Algebra) -> bool:
    """Independent maximality recheck over a finite field.

    The finite-field certificate of `certify_maximal` without its
    Burnside step: spin-ups of every line of B/A, then the exhaustive
    stable-subspace closure check when some spin-up is proper.
    """
    if not b.field.is_finite:
        raise NotFiniteFieldError("spin-up recheck needs a finite field")
    q, lops, rops = _quotient_bimodule_ops(a, b)
    return _finite_certificate(a, b, q, lops + rops).status == "maximal"


# ---------------------------------------------------------------------------
# type classification

@dataclass(frozen=True)
class TypeVerdict:
    kind: str                      # "semisimple" | "split"
    radical_contained: bool
    split_radical_match: bool | None = None
    a_block_dims: tuple[int, ...] | None = None
    b_block_dims: tuple[int, ...] | None = None


def classify_type(a: Subalgebra, b: Algebra, seed: int = 0) -> TypeVerdict:
    """Semisimple type iff J(B) lies inside A; otherwise split type.

    Split verdicts carry the verified evidence J(A) = A meet J(B) and the
    equality of simple-dimension multisets.
    """
    jb = jacobson_radical(b)
    contained = all(a.space.contains_vec(list(r)) for r in jb.basis)
    if contained:
        return TypeVerdict("semisimple", True)
    aalg = a.as_algebra()
    ja = jacobson_radical(aalg)
    ja_in_b = echelonize([a.embed(list(r)) for r in ja.basis], b.dim, b.field)
    meet = subspace_intersection(a.space, jb)
    match = ja_in_b == meet
    arep = semisimple_blocks(aalg, ja, seed)
    brep = semisimple_blocks(b, jb, seed)
    if not arep.schur or not brep.schur:
        raise NotSplitError("cannot compare simple dimensions: not split")
    return TypeVerdict("split", False, match, arep.block_dims, brep.block_dims)


# ---------------------------------------------------------------------------
# the brute-force oracle

@dataclass(frozen=True)
class OracleResult:
    maximal: tuple[Subalgebra, ...]
    classes: tuple[tuple[Subalgebra, ...], ...]
    class_reps: tuple[tuple, ...]
    max_dim: int | None


def unit_group(b: Algebra) -> list[tuple[list, list]]:
    """All invertible elements with their inverses; |B| must be <= 3^7."""
    if not b.field.is_finite:
        raise NotFiniteFieldError("unit group sweep needs a finite field")
    if b.field.p ** b.dim > 3 ** 7:
        raise CapExceededError("unit group too large to sweep")
    units = []
    for v in all_vectors(b.dim, b.field):
        inv = invert_element(b, list(v))
        if inv is not None:
            units.append((list(v), inv))
    return units


def conjugacy_orbit_rep(b: Algebra, space: Subspace,
                        units: list[tuple[list, list]]) -> tuple:
    """Canonical representative (minimal echelon basis) of the orbit."""
    best = space.basis
    for u, uinv in units:
        cand = conjugate_subspace(b, u, uinv, space).basis
        if cand < best:
            best = cand
    return best


def _check_oracle_caps(b: Algebra):
    if not b.field.is_finite or b.field.p not in ORACLE_PRIMES:
        raise NotFiniteFieldError("oracle runs over F_2 and F_3 only")
    if b.dim > ORACLE_DIM_CAP:
        raise CapExceededError(
            f"oracle caps at dimension {ORACLE_DIM_CAP}, got {b.dim}")


def brute_force_maximal(b: Algebra) -> OracleResult:
    """Ground truth: all maximal subalgebras of a small finite algebra.

    Enumerates every proper unital multiplicatively closed subspace in
    descending dimension, marks the maximal ones by pairwise containment,
    and partitions them into conjugacy classes under the full unit group.
    """
    _check_oracle_caps(b)
    f = b.field
    closed: list[Subspace] = []
    unit_vecb = list(b.unit)
    has_unit = lambda s: s.contains_vec(unit_vecb)
    for k in range(b.dim - 1, 0, -1):
        for s in enumerate_subspaces(b.dim, k, f, filt=has_unit):
            if is_closed_subspace(b, s):
                closed.append(s)
    maximal = []
    for s in closed:
        if not any(t.dim > s.dim and subspace_contains(t, s) for t in closed):
            maximal.append(s)
    units = unit_group(b)
    reps: dict[tuple, list[Subalgebra]] = {}
    for s in maximal:
        key = conjugacy_orbit_rep(b, s, units)
        reps.setdefault(key, []).append(Subalgebra(b, s))
    keys = sorted(reps)
    classes = tuple(tuple(reps[k]) for k in keys)
    max_dim = max((s.dim for s in maximal), default=None)
    return OracleResult(tuple(Subalgebra(b, s) for s in maximal),
                        classes, tuple(keys), max_dim)


def observed_max_dim(b: Algebra) -> int | None:
    """Largest dimension of a proper unital closed subspace (early exit).

    Scans subspace strata in descending dimension and stops at the first
    stratum containing a subalgebra; wider ambient caps than the full
    oracle since only one stratum is usually touched.
    """
    if not b.field.is_finite or b.field.p not in MAXDIM_AMBIENT_CAP:
        raise NotFiniteFieldError("observed_max_dim runs over F_2 and F_3 only")
    if b.dim > MAXDIM_AMBIENT_CAP[b.field.p]:
        raise CapExceededError("ambient dimension beyond the max-dim cap")
    unit_vecb = list(b.unit)
    for k in range(b.dim - 1, 0, -1):
        for s in enumerate_subspaces(b.dim, k, b.field):
            if s.contains_vec(unit_vecb) and is_closed_subspace(b, s):
                return k
    return None


def max_proper_subalgebra_dim(b: Algebra, seed: int = 0) -> int:
    """dim(B) - 1 - max(n_1 - 2, 0) for the smallest block size n_1."""
    if b.dim < 2:
        raise InvalidInputError(
            "a one-dimensional algebra has no proper unital subalgebra")
    rep = structure_report(b, seed)
    if not rep.schur:
        raise NotSplitError(rep.failure or "blocks are not split")
    n1 = rep.block_dims[0]
    return b.dim - 1 - max(n1 - 2, 0)
