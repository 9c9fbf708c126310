"""Split and separable extension analysis; induction and restriction.

The split test solves for an A-bimodule projection B -> A fixing A; the
separable test solves the separability-idempotent system inside the
tensor square B (x)_A B built as an explicit quotient of the coordinate
tensor space.  Module decomposition lifts a complete system of primitive
orthogonal idempotents through the radical of the endomorphism algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import (
    Algebra,
    BimoduleSubspace,
    Subalgebra,
    _products_in,
    bimodule_subspace,
    matrix_algebra,
    subalgebra_from_rows,
)
from .errors import (
    CapExceededError,
    InvalidInputError,
    UnsupportedFieldError,
    VerificationFailedError,
)
from .linalg import (
    Field,
    QuotientSpace,
    Subspace,
    _Echelon,
    _ints,
    _sylvester,
    all_vectors,
    combine,
    echelonize,
    identity_matrix,
    kernel,
    kron,
    mat_mul,
    mat_vec,
    quotient_space,
    rref,
    solve_one,
    span_elements,
    subspace_intersection,
    sylvester_rows,
    tensor_quotient,
    unit_vec,
    vec_is_zero,
    vec_sub,
    zero_subspace,
    zero_vec,
)
from .modules import Module, make_module, regular_module
from .structure import (
    StructureReport,
    WMData,
    _flanked_span,
    is_two_sided_ideal,
    jacobson_radical,
    lift_idempotents,
    quotient_algebra,
    structure_report,
)

HOM_SWEEP_CAP = 1 << 12
INDEC_DIM_CAP = 8


# ---------------------------------------------------------------------------
# split complements

def split_complement(a: Subalgebra, b: Algebra) -> BimoduleSubspace | None:
    """An A-bimodule complement I with B = A (+) I, or None.

    Solves for an A-bimodule projection pi: B -> A restricting to the
    identity on A; unknowns are the values of pi on a lift of B/A.
    """
    a.check_parent(b)
    f = b.field
    da = a.dim
    q = quotient_space(b.dim, a.space.basis, f)
    dq = q.dim
    if dq == 0:
        space = echelonize([], b.dim, f)
        return bimodule_subspace(b, a, space, check=False)
    lifts = [q.lift(unit_vec(dq, t, f)) for t in range(dq)]
    e = _Echelon(f)
    for row, c in zip(*_bimodule_system(a, q, lifts)):
        e.add(row + [c])
    sol = e.solution(da * dq, 1)
    if sol is None:
        return None
    sol = [row[0] for row in sol]
    comp_rows = [vec_sub(lifts[t], a.embed(sol[t * da:(t + 1) * da]), f)
                 for t in range(dq)]
    space = echelonize(comp_rows, b.dim, f)
    if space.dim != dq:
        raise VerificationFailedError("complement has wrong dimension")
    if subspace_intersection(space, a.space).dim != 0:
        raise VerificationFailedError("complement meets A")
    return bimodule_subspace(b, a, space, check=True)


def _bimodule_system(a: Subalgebra, q: QuotientSpace, lifts: list,
                     ) -> tuple[list, list]:
    """The linear system for the values of an A-bimodule projection
    pi: B -> A on the lifts l_t of a basis of B/A, as integer rows (not
    reduced mod p over F_p).

    X holds the A-coordinates of pi(l_t) in row t.  With L the matrix of a_k
    acting on A from the left (or right) and G[t] the B/A coordinates of
    a_k*l_t (or l_t*a_k), A-linearity reads X L^T - G X = C, where C[t] are
    the A-coordinates of the rest of that product.

    It is read off integer products of A's basis rows over their
    denominator D_s (`Subspace.int_basis`) with the lifts, which are
    D_b·D_s times the exact products (`Algebra._multiply_ints`).  G is
    D_b·D_s² times their B/A coordinates (`QuotientSpace._project_ints`);
    C is their entries at A's pivots, where the lifts vanish; L is D_A
    times the exact matrix (`_left_ints` or `_right_ints` of A).  Every
    equation is scaled by D_A·D_b·D_s², which leaves the span of the rows
    [X | C] as it is.
    """
    b, aalg = a.parent, a.as_algebra()
    p = b.field.p
    ds, arows = a.space.int_basis
    dt, db = aalg.products[0], b.products[0]
    ls = [_ints(l, p)[1] for l in lifts]
    mul = b._multiply_ints
    scale = db * ds * ds
    rows, rhs = [], []
    for k, r in enumerate(arows):
        ak = [int(i == k) for i in range(a.dim)]
        left = ([mul(r, l) for l in ls], _columns(aalg._left_ints(ak)))
        right = ([mul(l, r) for l in ls], _columns(aalg._right_ints(ak)))
        for prods, lt in (left, right):
            lt = [[scale * x for x in row] for row in lt]
            gammas = [[dt * x for x in q._project_ints(v)] for v in prods]
            rows += _sylvester(lt, gammas, 0)
            rhs += [dt * ds * v[c] for v in prods for c in a.space.pivots]
    return rows, rhs


def complement_flags(i_space: Subspace, b: Algebra) -> dict:
    """ideal / nilpotent / trivial flags of a split complement."""
    from .structure import is_nilpotent_space as nil
    ideal = is_two_sided_ideal(b, i_space)
    rows = i_space.int_basis[1]
    trivial = _products_in(b, rows, rows, zero_subspace(b.dim, b.field))
    nilpotent = ideal and nil(b, i_space)
    if trivial and not (nilpotent and ideal):
        raise VerificationFailedError("flag chain trivial => nilpotent => ideal broken")
    return {"ideal": ideal, "nilpotent": nilpotent, "trivial": trivial}


# ---------------------------------------------------------------------------
# the tensor square B (x)_A B

@dataclass(frozen=True)
class TensorSquare:
    b: Algebra
    a: Subalgebra
    quotient: QuotientSpace

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @cached_property
    def _operators(self) -> tuple[list, list]:
        """The columns of L_{b_k} and of R_{b_k} for each basis element b_k
        of B: b_k·b_i and b_i·b_k."""
        b = self.b
        basis = [b.basis_vector(k) for k in range(b.dim)]
        return ([_columns(b.left_mult_matrix(x)) for x in basis],
                [_columns(b.right_mult_matrix(x)) for x in basis])

    def multiply_down(self, e: Sequence) -> list:
        """The multiplication map u: B (x)_A B -> B on quotient coordinates:
        Σ_ij e_ij·b_i·b_j, with b_i·b_j column j of L_{b_i}."""
        return combine(self.quotient.lift(e), [
            col for op in self._operators[0] for col in op], self.b.field)

    def flank(self, x: Sequence, e: Sequence, y: Sequence) -> tuple:
        """x . e . y for algebra elements x, y acting on the two legs."""
        b = self.b
        return _tensor_image(self.quotient, e,
                             _columns(b.left_mult_matrix(list(x))),
                             _columns(b.right_mult_matrix(list(y))))

    def _commutators(self, e: Sequence):
        """The pairs (b_k . e, e . b_k) for the basis elements b_k of B."""
        ident = identity_matrix(self.b.dim, self.b.field)
        for left, right in zip(*self._operators):
            yield (_tensor_image(self.quotient, e, left, ident),
                   _tensor_image(self.quotient, e, ident, right))

    def embed_pure(self, x: Sequence, y: Sequence) -> tuple:
        """Image of the pure tensor x (x) y in quotient coordinates."""
        return self.quotient.project(kron(x, y, self.b.field))


def _columns(m: Sequence[Sequence]) -> list[list]:
    return [list(c) for c in zip(*m)]


def _tensor_image(q: QuotientSpace, e: Sequence, left: Sequence,
                  right: Sequence) -> tuple:
    """(X (x) Y)·e on quotient coordinates, for X and Y given by their
    columns: the coordinate c of b_i (x) m_j in the lift of e adds
    c·(X b_i (x) Y m_j) (Van Loan, "The ubiquitous Kronecker product")."""
    f = q.field
    coeffs, tensors = [], []
    for idx, c in enumerate(q.lift(e)):
        if c != 0:
            i, j = divmod(idx, len(right))
            coeffs.append(c)
            tensors.append(kron(left[i], right[j], f))
    return q.project(combine(coeffs, tensors, f) if tensors
                     else zero_vec(q.ambient_dim, f))


def _balanced_quotient(b: Algebra, a: Subalgebra, actions: Sequence,
                       dim_right: int) -> QuotientSpace:
    """B (x)_A M as the quotient of B (x) M by (x a) (x) m - x (x) (a m) for
    basis elements x of B and m of M; actions[k] is the matrix of the k-th
    basis element a_k of A on M (columns are images).

    Flattened as by `kron`, the relations for a_k are, up to sign, the rows
    of `sylvester_rows(actions[k], R)` with R[i] = b_i a_k, column i of
    R_{a_k}.
    """
    f = b.field
    relations = []
    for arow, act in zip(a.space.basis, actions):
        right = _columns(b.right_mult_matrix(list(arow)))
        relations += [rel for rel in sylvester_rows(act, right, f)
                      if not vec_is_zero(rel)]
    return tensor_quotient(b.dim, dim_right, relations, f)


def tensor_square(a: Subalgebra, b: Algebra) -> TensorSquare:
    """B (x)_A B as a quotient of the dim^2 coordinate tensor space."""
    a.check_parent(b)
    actions = [b.left_mult_matrix(list(r)) for r in a.space.basis]
    return TensorSquare(b, a, _balanced_quotient(b, a, actions, b.dim))


def _verify_separability(ts: TensorSquare, e: Sequence) -> bool:
    return (ts.multiply_down(e) == list(ts.b.unit)
            and all(left == right for left, right in ts._commutators(e)))


def separability_idempotent(a: Subalgebra, b: Algebra,
                            ts: TensorSquare | None = None) -> tuple | None:
    """An element e of B (x)_A B with u(e) = 1 and be = eb, or None.

    The defining conditions are linear; any solution is verified by
    substitution before it is returned.
    """
    a.check_parent(b)
    if ts is None:
        ts = tensor_square(a, b)
    f = b.field
    d = ts.dim
    if d == 0:
        return None
    unit_cols = []
    for t in range(d):
        et = unit_vec(d, t, f)
        col = list(ts.multiply_down(et))
        for left, right in ts._commutators(et):
            col += vec_sub(left, right, f)
        unit_cols.append(col)
    system = [list(r) for r in zip(*unit_cols)]
    rhs = list(b.unit) + [f.zero()] * (b.dim * d)
    sol = solve_one(system, rhs, f)
    if sol is None:
        return None
    e = tuple(sol)
    if not _verify_separability(ts, e):
        raise VerificationFailedError("separability solution failed substitution")
    return e


def separable_type_idempotent(a: Subalgebra, b: Algebra, wm: WMData,
                              ts: TensorSquare | None = None) -> tuple:
    """The standard separability idempotent of a semisimple-type subalgebra.

    For a Wedderburn-Malcev complement with split blocks, the element
    sum over blocks of (1/n) sum_{p,q} u_pq (x) u_qp maps into
    B (x)_A B and satisfies both identities whenever J(B) lies in A and
    no block size is divisible by the characteristic.
    """
    a.check_parent(b)
    for r in wm.radical.basis:
        if not a.space.contains_vec(list(r)):
            raise InvalidInputError("subalgebra does not contain the radical")
    f = b.field
    for blk in wm.report.blocks:
        if f.is_finite and blk.n % f.p == 0:
            raise UnsupportedFieldError(
                f"characteristic {f.p} divides block size {blk.n}: "
                "no standard separability idempotent")
    if ts is None:
        ts = tensor_square(a, b)
    coeffs, pures = [], []
    for blk, units in zip(wm.report.blocks, wm.block_units):
        coeffs += [f.inv(f.coerce(blk.n))] * blk.n ** 2
        pures += [ts.embed_pure(units[p][q], units[q][p])
                  for p in range(blk.n) for q in range(blk.n)]
    e = tuple(combine(coeffs, pures, f))
    if not _verify_separability(ts, e):
        raise VerificationFailedError(
            "standard separability element failed substitution")
    return e


@dataclass(frozen=True)
class SplitTypeReduction:
    """The quotient pair (A/H inside B/H) for H = J(A), a split-type datum.

    For a split-type maximal subalgebra, J(A) is a two-sided ideal of the
    ambient algebra (verified) and B/H is the trivial extension of A/H by
    the simple bimodule J(B)/H; the direct extension A in B itself need
    not split when the deleted component multiplies into J^2.
    """

    ideal: Subspace                  # H = J(A) inside B
    quotient: Algebra                # B/H
    reduced: Subalgebra              # A/H inside B/H


def split_type_reduction(a: Subalgebra, b: Algebra) -> SplitTypeReduction:
    a.check_parent(b)
    aalg = a.as_algebra()
    ja = jacobson_radical(aalg)
    h = echelonize([a.embed(list(r)) for r in ja.basis], b.dim, b.field)
    if not is_two_sided_ideal(b, h):
        raise InvalidInputError(
            "J(A) is not an ideal of B: not a split-type subalgebra")
    bprime, q = quotient_algebra(b, h)
    reduced = subalgebra_from_rows(
        bprime, [q.project(list(r)) for r in a.space.basis], check=True)
    return SplitTypeReduction(h, bprime, reduced)


@dataclass(frozen=True)
class ExtensionAnalysis:
    split: bool
    complement: BimoduleSubspace | None
    ideal: bool
    nilpotent: bool
    trivial: bool
    separable: bool
    separability_idempotent: tuple | None


def analyze_extension(a: Subalgebra, b: Algebra) -> ExtensionAnalysis:
    comp = split_complement(a, b)
    flags = {"ideal": False, "nilpotent": False, "trivial": False}
    if comp is not None:
        flags = complement_flags(comp.space, b)
    e = separability_idempotent(a, b)
    return ExtensionAnalysis(comp is not None, comp, flags["ideal"],
                             flags["nilpotent"], flags["trivial"],
                             e is not None, e)


# ---------------------------------------------------------------------------
# induction and restriction

def restrict(n: Module, a: Subalgebra) -> Module:
    """The same space as a module over the subalgebra."""
    if n.algebra is not a.parent:
        raise InvalidInputError("module is not over the parent algebra")
    mats = [n.action_matrix(list(r)) for r in a.space.basis]
    return make_module(a.as_algebra(), mats, check=True)


def restrict_along(n: Module, source: Algebra, images: Sequence[Sequence]) -> Module:
    """Pull a module back along a unital algebra morphism given on a basis."""
    b = n.algebra
    f = b.field
    if len(images) != source.dim:
        raise InvalidInputError("need one image per source basis element")
    images = [list(map(f.coerce, v)) for v in images]

    def img(vec: Sequence) -> list:
        return combine(vec, images, f)

    if img(list(source.unit)) != list(b.unit):
        raise InvalidInputError("morphism is not unital")
    for i, ix in enumerate(images):
        # column j of L_{b_i} is b_i·b_j in the source
        prods = _columns(source.left_mult_matrix(source.basis_vector(i)))
        for iy, xy in zip(images, prods):
            if b.multiply(ix, iy) != img(xy):
                raise InvalidInputError("images do not define a morphism")
    mats = [n.action_matrix(images[k]) for k in range(source.dim)]
    return make_module(source, mats, check=True)


def induce(m: Module, a: Subalgebra) -> Module:
    """B (x)_A M with the left regular B-action."""
    b = a.parent
    f = b.field
    aalg = a.as_algebra()
    if m.algebra is not aalg:
        raise InvalidInputError("module must be over a.as_algebra()")
    q = _balanced_quotient(b, a, m.action, m.dim)
    d = q.dim
    ident = identity_matrix(m.dim, f)
    mats = []
    for k in range(b.dim):
        # b_k acts on the left leg: L_{b_k} (x) 1
        left = _columns(b.left_mult_matrix(b.basis_vector(k)))
        cols = [_tensor_image(q, unit_vec(d, t, f), left, ident)
                for t in range(d)]
        mats.append([list(r) for r in zip(*cols)] if cols else [])
    return make_module(b, mats, check=True)


# ---------------------------------------------------------------------------
# endomorphism algebras and decomposition

def endomorphism_algebra(m: Module) -> tuple[Algebra, list]:
    """End(M) = Hom(M, M), the subalgebra of M_d it spans, as a
    structure-constant algebra plus its matrix basis."""
    ker, mats = _hom_basis(m, m)
    # ker holds the matrices flattened row-major, in the e_pq order of M_d
    end = Subalgebra(matrix_algebra(m.dim, m.algebra.field), ker)
    return end.as_algebra(), mats


def _primitive_system_finite(s: Algebra) -> list[list] | None:
    """Complete primitive orthogonal idempotents by exhaustive search.

    Needs the algebra to be small enough to enumerate; None over the cap.
    Used only when the semisimple quotient is not split.
    """
    f = s.field
    if not f.is_finite or f.p ** s.dim > HOM_SWEEP_CAP:
        return None

    def primitive_below(e: list) -> list:
        # corner e*s*e; find a nontrivial idempotent below e or conclude
        while True:
            corner = _flanked_span(s, e, e)
            found = None
            for x in span_elements(corner):
                if vec_is_zero(x) or x == e:
                    continue
                if s.multiply(x, x) == x:
                    found = x
                    break
            if found is None:
                return e
            e = found

    idems = []
    rest = list(s.unit)
    while not vec_is_zero(rest):
        e = primitive_below(rest)
        idems.append(e)
        rest = vec_sub(rest, e, f)
        if s.multiply(rest, rest) != rest:
            return None
    return idems


def _primitive_bar_system(rep: StructureReport) -> list[list]:
    """Primitive orthogonal idempotents of E/J(E), from E's report."""
    if rep.schur:
        return [list(blk.units[p][p]) for blk in rep.blocks
                for p in range(blk.n)]
    found = _primitive_system_finite(rep.quotient)
    if found is None:
        raise UnsupportedFieldError(
            "endomorphism quotient is not split and too large to sweep")
    return found


def decompose_module(m: Module) -> list[Module]:
    """Indecomposable direct summands, via idempotents of End(M).

    Lifts a complete system of primitive orthogonal idempotents of
    End(M)/J(End(M)) and splits M along their image spaces; each summand
    is verified to have a local endomorphism algebra.
    """
    if m.dim == 0:
        return []
    f = m.algebra.field
    e_alg, mats = endomorphism_algebra(m)
    rep = structure_report(e_alg)
    bars = _primitive_bar_system(rep)
    if len(bars) == 1:
        return [m]
    lifted = lift_idempotents(e_alg, rep, bars)
    out = []
    total = 0
    for coords in lifted.idempotents:
        fmat = [combine(coords, [mat[i] for mat in mats], f)
                for i in range(m.dim)]
        cols = [[fmat[i][j2] for i in range(m.dim)] for j2 in range(m.dim)]
        image = echelonize(cols, m.dim, f)
        if image.dim == 0:
            continue
        sub_mats = []
        for k in range(m.algebra.dim):
            acols = [image.coords(mat_vec(m.action[k], list(v), f))
                     for v in image.basis]
            sub_mats.append([list(r) for r in zip(*acols)])
        piece = make_module(m.algebra, sub_mats, check=True)
        total += piece.dim
        out.extend(decompose_module(piece) if piece.dim < m.dim else [piece])
    if total != m.dim:
        raise VerificationFailedError("summand dimensions do not add up")
    out.sort(key=lambda mod: (mod.dim, mod.action))
    return out


def is_local_module(m: Module) -> bool:
    """Does End(M) have a one-dimensional semisimple quotient?  End(0) = 0
    has none."""
    if m.dim == 0:
        return False
    e_alg, _ = endomorphism_algebra(m)
    return len(_primitive_bar_system(structure_report(e_alg))) == 1


# ---------------------------------------------------------------------------
# isomorphism and direct summands

def _hom_basis(m1: Module, m2: Module) -> tuple[Subspace, list]:
    """Hom(m1, m2) as row-major flattened matrices X with X a(m1) = a(m2) X
    on every basis element, and the same basis as matrices."""
    f = m1.algebra.field
    d1 = m1.dim
    rows = [row for a1, a2 in zip(m1.action, m2.action)
            for row in sylvester_rows(a1, a2, f)]
    ker = kernel(rows, m2.dim * d1, f)
    return ker, [[list(row[i * d1:(i + 1) * d1]) for i in range(m2.dim)]
                 for row in ker.basis]


def hom_space(m1: Module, m2: Module) -> list[list]:
    """Matrices X with X a(m1) = a(m2) X for every algebra element."""
    if m1.algebra is not m2.algebra:
        raise InvalidInputError("modules over different algebras")
    return _hom_basis(m1, m2)[1]


def _is_invertible(mat: list, f: Field) -> bool:
    if not mat:
        return True
    _, pivots = rref([list(r) for r in mat], f)
    return len(pivots) == len(mat)


def modules_isomorphic(m1: Module, m2: Module) -> bool:
    """Search the Hom space for an invertible morphism, else decide by
    Krull–Schmidt.

    The search is exhaustive over small finite fields, where its False is
    exact; otherwise it tries the basis elements and 120 integer
    combinations drawn in a fixed order, and every True is a checked
    invertible map.  When the draws find none, the indecomposable summands
    of both modules are matched greedily (`_indecomposables_isomorphic`);
    `decompose_module` raises UnsupportedFieldError where it cannot split.
    """
    if m1.dim != m2.dim:
        return False
    if m1.dim == 0:
        return True
    homs = hom_space(m1, m2)
    if not homs:
        return False
    f = m1.algebra.field
    d = m1.dim
    sweep = f.is_finite and f.p ** len(homs) <= HOM_SWEEP_CAP
    if sweep:
        combos = all_vectors(len(homs), f)
    else:
        rng = random.Random(0)  # a fixed seed: every run tries the same draws
        base = [tuple(f.one() if i == k else f.zero() for i in range(len(homs)))
                for k in range(len(homs))]
        extra = [tuple(f.coerce(rng.randint(-3, 3)) for _ in range(len(homs)))
                 for _ in range(120)]
        combos = base + extra
    for coeffs in combos:
        if all(c == 0 for c in coeffs):
            continue
        mat = [combine(coeffs, [h[i] for h in homs], f) for i in range(d)]
        if _is_invertible(mat, f):
            return True
    if sweep:
        return False
    rest = decompose_module(m2)
    for x in decompose_module(m1):
        k = next((k for k, y in enumerate(rest)
                  if _indecomposables_isomorphic(x, y)), None)
        if k is None:
            return False
        del rest[k]
    return not rest


def _indecomposables_isomorphic(x: Module, y: Module) -> bool:
    """For indecomposable x and y: x ≅ y iff g∘h is invertible for some h
    and g in the bases of Hom(x, y) and Hom(y, x).  End(x) is local, so
    its non-units form an ideal: if every g∘h is one, so is every
    composite, and no map x → y has an inverse.  An invertible g∘h makes
    x a summand of y, hence y itself."""
    if x.dim != y.dim:
        return False
    f = x.algebra.field
    back = hom_space(y, x)
    return any(_is_invertible(mat_mul(g, h, f), f)
               for h in hom_space(x, y) for g in back)


def is_direct_summand(x: Module, n: Module) -> bool:
    """Is x isomorphic to one of the indecomposable summands of n?"""
    pieces = decompose_module(n)
    xs = decompose_module(x)
    if len(xs) != 1:
        raise InvalidInputError("summand test expects an indecomposable")
    return any(_indecomposables_isomorphic(x, p) for p in pieces)


# ---------------------------------------------------------------------------
# the summand transfer property

@dataclass(frozen=True)
class SummandReport:
    direction: str
    witnesses: tuple[tuple[int, int], ...]   # (source index, partner index)
    source_dims: tuple[int, ...]
    partner_dims: tuple[tuple[int, ...], ...]
    complete: bool


def _indecomposables_of(alg: Algebra) -> list[Module]:
    pieces = decompose_module(regular_module(alg))
    out: list[Module] = []
    for p in pieces:
        if not any(_indecomposables_isomorphic(p, q) for q in out):
            out.append(p)
    return out


def check_summand_property(a: Subalgebra, b: Algebra,
                           direction: str) -> SummandReport:
    """Verify the indecomposable transfer along a split/separable extension.

    direction="split_down": every indecomposable A-module (from the
    regular module window) is a summand of the restriction of an
    indecomposable B-module found inside its own induction.
    direction="separable_up": dually, every indecomposable B-module is a
    summand of the induction of a summand of its own restriction.
    """
    a.check_parent(b)
    if direction == "split_down":
        source, there, back = a.as_algebra(), induce, restrict
    elif direction == "separable_up":
        source, there, back = b, restrict, induce
    else:
        raise InvalidInputError(f"unknown direction {direction!r}")
    sources = _indecomposables_of(source)
    witnesses = []
    partner_dims: list[tuple[int, ...]] = []
    complete = True
    for idx, x in enumerate(sources):
        image = there(x, a)
        # a restriction never grows, so only an induction can hit the cap
        if image.dim > INDEC_DIM_CAP * max(1, x.dim):
            raise CapExceededError("induced module exceeds the cap")
        ys = decompose_module(image)
        partner_dims.append(tuple(y.dim for y in ys))
        found = next((jdx for jdx, y in enumerate(ys)
                      if is_direct_summand(x, back(y, a))), None)
        if found is None:
            complete = False
        else:
            witnesses.append((idx, found))
    return SummandReport(direction, tuple(witnesses),
                         tuple(x.dim for x in sources), tuple(partner_dims),
                         complete)
