"""Algebras presented by quivers with relations and by finite posets.

Path composition follows the algebra product convention x*y = "x after y":
for arrows a: 1 -> 2 and b: 2 -> 3 the product b*a is the path written
"b.a" while a*b = 0.  A tree quiver's path algebra is identified with the
incidence algebra of the order in which the target of a path sits below
its source: a path p: u -> w corresponds to the interval [w, u].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import (
    Algebra,
    Presentation,
    Subalgebra,
    _pack,
    _product_span,
    _products_in,
    subalgebra_from_rows,
)
from .errors import InvalidInputError, VerificationFailedError
from .linalg import (
    Field,
    Subspace,
    _modp,
    combine,
    echelonize,
    rref,
    unit_vec,
    vec_add,
    zero_subspace,
    zero_vec,
)
from .modules import Module
from .structure import ideal_closure, jacobson_radical, quotient_algebra


# ---------------------------------------------------------------------------
# quivers

@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]   # (name, source, target)

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise InvalidInputError("duplicate vertex names")
        names = set()
        for name, src, tgt in self.arrows:
            if name in names or name in seen:
                raise InvalidInputError(f"arrow name {name!r} not unique")
            names.add(name)
            if src not in seen or tgt not in seen:
                raise InvalidInputError(f"arrow {name!r} uses unknown vertex")

    def arrow(self, name: str) -> tuple[str, str, str]:
        for arr in self.arrows:
            if arr[0] == name:
                return arr
        raise InvalidInputError(f"no arrow named {name!r}")

    def is_acyclic(self) -> bool:
        return self._longest_path() is not None

    def _longest_path(self) -> int | None:
        """Longest path length, or None when the quiver has a directed cycle."""
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        indeg = {v: 0 for v in self.vertices}
        for _, src, tgt in self.arrows:
            adj[src].append(tgt)
            indeg[tgt] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        dist = {v: 0 for v in self.vertices}
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in adj[v]:
                dist[w] = max(dist[w], dist[v] + 1)
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen != len(self.vertices):
            return None
        return max(dist.values()) if dist else 0

    def underlying_tree(self) -> bool:
        """Is the underlying undirected graph a tree?"""
        n = len(self.vertices)
        if len(self.arrows) != n - 1:
            return False
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _, src, tgt in self.arrows:
            rs, rt = find(src), find(tgt)
            if rs == rt:
                return False
            parent[rs] = rt
        return True


Path = tuple[str, tuple[int, ...]]   # (source vertex, arrow indices applied in order)


def _path_target(q: Quiver, p: Path) -> str:
    v = p[0]
    for ai in p[1]:
        v = q.arrows[ai][2]
    return v


def _path_name(q: Quiver, p: Path) -> str:
    if not p[1]:
        return p[0]
    return ".".join(q.arrows[ai][0] for ai in reversed(p[1]))


def _paths_up_to(q: Quiver, max_len: int) -> list[list[Path]]:
    """Paths grouped by length 0..max_len."""
    by_len: list[list[Path]] = [[(v, ()) for v in q.vertices]]
    out_of: dict[str, list[int]] = {v: [] for v in q.vertices}
    for ai, (_, src, _) in enumerate(q.arrows):
        out_of[src].append(ai)
    for _ in range(max_len):
        nxt = []
        for p in by_len[-1]:
            tail = _path_target(q, p)
            for ai in out_of[tail]:
                nxt.append((p[0], p[1] + (ai,)))
        by_len.append(nxt)
    return by_len


@dataclass(frozen=True)
class PathAlgebraPresentation:
    quiver: Quiver
    relations: tuple[tuple[tuple, ...], ...] = ()
    # each relation: tuple of (coef, arrow-name tuple in application order)
    bound: int | None = None


@dataclass(frozen=True)
class QuiverAlgebraData:
    quiver: Quiver
    bound: int
    arrow_vectors: tuple[tuple[str, tuple], ...]   # (arrow name, coordinates)

    def arrow_vector(self, name: str) -> tuple:
        for nm, vec in self.arrow_vectors:
            if nm == name:
                return vec
        raise InvalidInputError(f"no arrow named {name!r}")


def path_algebra(pres: PathAlgebraPresentation, field: Field) -> Algebra:
    """K Q / I for an admissible relation ideal, truncated at the bound.

    The admissibility claim is verified: no relation touches paths of
    length < 2 and every path of the bound's length reduces to zero in
    the constructed quotient.
    """
    q = pres.quiver
    longest = q._longest_path()
    bound = pres.bound
    if bound is None:
        if longest is None:
            raise InvalidInputError(
                "cyclic quiver requires an explicit nilpotency bound")
        bound = longest + 1
    if bound < 1:
        raise InvalidInputError("nilpotency bound must be >= 1")
    by_len = _paths_up_to(q, bound)
    paths = [p for grp in by_len for p in grp]
    index = {p: i for i, p in enumerate(paths)}
    n = len(paths)

    arrow_idx = {arr[0]: k for k, arr in enumerate(q.arrows)}

    def relation_vector(rel) -> list:
        out = zero_vec(n, field)
        for coef, arrow_names in rel:
            if len(arrow_names) < 2:
                raise InvalidInputError(
                    "relation touches a path of length < 2 (not admissible)")
            ids = []
            for nm in arrow_names:
                if nm not in arrow_idx:
                    raise InvalidInputError(f"unknown arrow {nm!r} in relation")
                ids.append(arrow_idx[nm])
            src = q.arrows[ids[0]][1]
            v = src
            for ai in ids:
                if q.arrows[ai][1] != v:
                    raise InvalidInputError("relation path does not compose")
                v = q.arrows[ai][2]
            p = (src, tuple(ids))
            if len(ids) <= bound:
                out[index[p]] += field.coerce(coef)
        return _modp(out, field.p)

    # truncated path algebra T = KQ / J^{bound+1}: b_i * b_j is path j
    # followed by path i, or zero when they do not compose within the bound
    def compose(i: int, j: int) -> list:
        pi, pj = paths[i], paths[j]
        if (_path_target(q, pj) == pi[0]
                and len(pj[1]) + len(pi[1]) <= bound):
            return [(index[(pj[0], pj[1] + pi[1])], 1)]
        return []

    t_names = tuple(_path_name(q, p) for p in paths)
    t_products = _pack(field.p, 1, ([(j, compose(i, j)) for j in range(n)]
                                    for i in range(n)))
    t_unit = zero_vec(n, field)
    for v in q.vertices:
        t_unit[index[(v, ())]] = field.one()
    trunc = Algebra(field, n, t_names, tuple(t_unit), t_products)

    rel_vectors = [relation_vector(r) for r in pres.relations]
    ideal = ideal_closure(trunc, rel_vectors)
    for p in by_len[bound]:
        if not ideal.contains_vec(unit_vec(n, index[p], field)):
            raise InvalidInputError(
                f"path {_path_name(q, p)} of length {bound} does not reduce "
                "to zero: relations are not admissible at this bound")
    quot, qs = quotient_algebra(trunc, ideal)
    names = tuple(t_names[c] for c in qs.free_coords)
    vertex_vectors = tuple(
        tuple(qs.project(unit_vec(n, index[(v, ())], field)))
        for v in q.vertices)
    arrow_vectors = tuple(
        (arr[0], tuple(qs.project(unit_vec(n, index[(arr[1], (k,))], field))))
        for k, arr in enumerate(q.arrows))
    data = QuiverAlgebraData(q, bound, arrow_vectors)
    pres_meta = Presentation(kind="quiver", vertex_names=q.vertices,
                             vertex_vectors=vertex_vectors, source=data)
    return Algebra(field, quot.dim, names, quot.unit, quot.products, pres_meta)


# ---------------------------------------------------------------------------
# posets and incidence algebras

@dataclass(frozen=True)
class Poset:
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]   # (lower, upper)

    def __post_init__(self):
        seen = set(self.elements)
        if len(seen) != len(self.elements):
            raise InvalidInputError("duplicate element names")
        for lo, hi in self.covers:
            if lo not in seen or hi not in seen:
                raise InvalidInputError(f"cover ({lo}, {hi}) uses unknown element")
        rel = self.leq_pairs()
        for a in self.elements:
            for c in self.elements:
                if a != c and (a, c) in rel and (c, a) in rel:
                    raise InvalidInputError(
                        f"covers create a cycle through {a!r} and {c!r}")

    @cached_property
    def _leq(self) -> frozenset[tuple[str, str]]:
        above: dict[str, list[str]] = {e: [] for e in self.elements}
        for lo, hi in self.covers:
            above[lo].append(hi)
        rel = set()
        for e in self.elements:
            stack = [e]
            while stack:
                x = stack.pop()
                if (e, x) not in rel:
                    rel.add((e, x))
                    stack += above[x]
        return frozenset(rel)

    def leq_pairs(self) -> frozenset[tuple[str, str]]:
        """The order relation: every (a, b) with a below or equal to b,
        the reflexive-transitive closure of the covers, computed once."""
        return self._leq

    def comparable(self, a: str, b: str) -> bool:
        rel = self.leq_pairs()
        return (a, b) in rel or (b, a) in rel

    def covers_pair(self, a: str, b: str) -> bool:
        """True iff b covers a: the interval [a, b] is exactly {a, b}."""
        rel = self.leq_pairs()
        if a == b or (a, b) not in rel:
            return False
        between = [x for x in self.elements
                   if (a, x) in rel and (x, b) in rel]
        return len(between) == 2


def _incidence_from_pairs(names: Sequence[str], pairs: Sequence[tuple[str, str]],
                          field: Field, poset: Poset | None) -> Algebra:
    """Convolution algebra on a reflexive transitive relation."""
    pairs = list(pairs)
    index = {pr: i for i, pr in enumerate(pairs)}
    n = len(pairs)
    basis_names = tuple(f"[{a},{b}]" for a, b in pairs)
    # [a,b]·[b,d] = [a,d], and every other product is zero
    rows = [[(j, [(index[(a, d)], 1)]) for j, (c, d) in enumerate(pairs)
             if b == c] for a, b in pairs]
    # the relation is reflexive: the unit is the sum of the pairs [e,e]
    unit = tuple(field.coerce(a == b) for a, b in pairs)
    vertex_vectors = tuple(tuple(unit_vec(n, index[(e, e)], field))
                           for e in names)
    pres = Presentation(kind="incidence", vertex_names=tuple(names),
                        vertex_vectors=vertex_vectors, source=poset)
    return Algebra(field, n, basis_names, unit, _pack(field.p, 1, rows), pres)


def incidence_algebra(p: Poset, field: Field) -> Algebra:
    """Basis [a,b] over all intervals a <= b; convolution product."""
    rel = sorted(p.leq_pairs(),
                 key=lambda pr: (p.elements.index(pr[0]), p.elements.index(pr[1])))
    return _incidence_from_pairs(p.elements, rel, field, p)


def interval_index(alg: Algebra, a: str, b: str) -> int:
    name = f"[{a},{b}]"
    try:
        return alg.basis_names.index(name)
    except ValueError:
        raise InvalidInputError(f"no interval {name}") from None


# ---------------------------------------------------------------------------
# canonical maximal subalgebras of presented algebras

def _quiver_data(alg: Algebra) -> QuiverAlgebraData:
    pres = alg.presentation
    if pres is None or pres.kind != "quiver":
        raise InvalidInputError("algebra does not carry a quiver presentation")
    return pres.source


def quiver_maximal(alg: Algebra, kind: str, a: str, b: str,
                   hyperplane: Sequence[Sequence] | None = None) -> Subalgebra:
    """The canonical maximal subalgebras of KQ/I.

    kind="merge" glues the vertex idempotents a and b; kind="split" keeps
    a codimension-1 subspace of the arrow span from a to b (given as
    coefficient rows over those arrows, in declaration order) together
    with all vertices, all other arrows and everything of length >= 2.
    """
    data = _quiver_data(alg)
    q = data.quiver
    pres = alg.presentation
    if a not in q.vertices or b not in q.vertices or a == b:
        raise InvalidInputError("need two distinct vertices")
    vx = {v: list(pres.vertex_vectors[i]) for i, v in enumerate(pres.vertex_names)}
    field = alg.field
    rad = jacobson_radical(alg)
    if kind == "merge":
        rows = [vec_add(vx[a], vx[b], field)]
        rows += [vx[v] for v in q.vertices if v not in (a, b)]
        rows += [list(r) for r in rad.basis]
        return subalgebra_from_rows(alg, rows)
    if kind != "split":
        raise InvalidInputError(f"unknown kind {kind!r}")
    ab_arrows = [nm for nm, src, tgt in q.arrows if src == a and tgt == b]
    if not ab_arrows:
        raise InvalidInputError(f"no arrows from {a} to {b}")
    if hyperplane is None:
        hyperplane = []
    vrows = []
    for coeffs in hyperplane:
        if len(coeffs) != len(ab_arrows):
            raise InvalidInputError("hyperplane row length != arrow count")
        row = combine([field.coerce(c) for c in coeffs],
                      [data.arrow_vector(nm) for nm in ab_arrows], field)
        vrows.append(row)
    vspan = echelonize(vrows, alg.dim, field)
    if vspan.dim != len(ab_arrows) - 1:
        raise InvalidInputError("hyperplane must have codimension 1 in V(a,b)")
    rows = [vx[v] for v in q.vertices]
    rows += [list(r) for r in vspan.basis]
    for nm, src, tgt in q.arrows:
        if not (src == a and tgt == b):
            rows.append(list(data.arrow_vector(nm)))
    # everything of path length >= 2
    rows += [list(r) for r in _product_span(alg, rad, rad).basis]
    return subalgebra_from_rows(alg, rows)


def incidence_maximal(alg: Algebra, kind: str, a: str, b: str) -> Subalgebra:
    """I_s(a,b) glues [a,a] and [b,b]; I_t(a,b) drops a covering interval."""
    pres = alg.presentation
    if pres is None or pres.kind != "incidence":
        raise InvalidInputError("algebra does not carry a poset presentation")
    poset: Poset = pres.source
    field = alg.field
    if kind == "s":
        if a == b:
            raise InvalidInputError("need two distinct elements")
        iaa = interval_index(alg, a, a)
        ibb = interval_index(alg, b, b)
        rows = [vec_add(alg.basis_vector(iaa), alg.basis_vector(ibb), field)]
        rows += [alg.basis_vector(i) for i in range(alg.dim)
                 if i not in (iaa, ibb)]
        return subalgebra_from_rows(alg, rows)
    if kind != "t":
        raise InvalidInputError(f"unknown kind {kind!r}")
    if not poset.covers_pair(a, b):
        raise InvalidInputError(f"{b!r} does not cover {a!r}")
    drop = interval_index(alg, a, b)
    rows = [alg.basis_vector(i) for i in range(alg.dim) if i != drop]
    return subalgebra_from_rows(alg, rows)


# ---------------------------------------------------------------------------
# quiver surgery

@dataclass(frozen=True)
class CollapseResult:
    quiver: Quiver                 # the collapsed quiver Q'
    ambient: Algebra               # incidence algebra of the quasi-order
    inclusion: Subalgebra          # I(path order) inside the ambient
    corner: Algebra                # Morita reduction of the ambient
    condition_star: bool


def path_order_poset(q: Quiver) -> Poset:
    """Order in which the target of every path sits below its source."""
    if q._longest_path() is None:
        raise InvalidInputError("quiver has a directed cycle")
    covers = tuple((tgt, src) for _, src, tgt in q.arrows)
    return Poset(q.vertices, covers)


def collapse_edge(q: Quiver, arrow: str, field: Field) -> CollapseResult:
    """Collapse one arrow of a tree quiver into a minimal extension.

    Adds the reverse relation to the path order, producing a quasi-order
    whose incidence algebra contains the tree's incidence algebra with
    codimension 1 exactly under condition (*): the source emits no other
    arrow and the target receives no other arrow.  The corner algebra over
    the vertices away from the target is the Morita reduction, isomorphic
    to the path algebra of the collapsed quiver.
    """
    if not q.underlying_tree():
        raise InvalidInputError("collapse requires a tree quiver")
    name, i, j = q.arrow(arrow)
    poset = path_order_poset(q)
    base = poset.leq_pairs()
    # arrow i -> j gave (j below i); add (i below j) and close transitively:
    # k below l afterwards iff k below l already, or k below i and j below l
    pairs = set(base)
    for k in q.vertices:
        for l in q.vertices:
            if (k, i) in base and (j, l) in base:
                pairs.add((k, l))
    order = {v: idx for idx, v in enumerate(q.vertices)}
    pair_list = sorted(pairs, key=lambda pr: (order[pr[0]], order[pr[1]]))
    ambient = _incidence_from_pairs(q.vertices, pair_list, field, None)
    inc_rows = []
    for a, b in base:
        inc_rows.append(ambient.basis_vector(pair_list.index((a, b))))
    inclusion = subalgebra_from_rows(ambient, inc_rows)
    star = (sum(1 for _, src, _ in q.arrows if src == i) == 1
            and sum(1 for _, _, tgt in q.arrows if tgt == j) == 1)
    # corner over the idempotent avoiding j: basis pairs without j
    corner_names = tuple(v for v in q.vertices if v != j)
    corner_pairs = [(a, b) for a, b in pair_list if a != j and b != j]
    corner = _incidence_from_pairs(corner_names, corner_pairs, field, None)
    collapsed_arrows = []
    for nm, src, tgt in q.arrows:
        if nm == name:
            continue
        collapsed_arrows.append((nm,
                                 i if src == j else src,
                                 i if tgt == j else tgt))
    collapsed = Quiver(corner_names, tuple(collapsed_arrows))
    return CollapseResult(collapsed, ambient, inclusion, corner, star)


@dataclass(frozen=True)
class DeleteResult:
    quiver: Quiver                 # Q_{-S}
    ambient: Algebra               # the full path algebra K Q
    inclusion: Subalgebra          # K Q_{-S} inside K Q
    complement: Subspace           # span of nonconstant paths meeting S
    complement_squares_to_zero: bool


def delete_arrows(q: Quiver, s: Sequence[str], field: Field) -> DeleteResult:
    """Remove every arrow adjacent to a vertex of S; a split inclusion.

    The complement ideal is spanned by the nonconstant paths meeting S.
    It squares to zero exactly when no member of S has both an incoming
    and an outgoing arrow (a path in, a path out: their product survives
    and meets S only once); the flag reports the computed truth, which is
    verified against that criterion.
    """
    if not q.is_acyclic():
        raise InvalidInputError("delete_arrows requires an acyclic quiver")
    svs = set(s)
    for v in svs:
        if v not in q.vertices:
            raise InvalidInputError(f"unknown vertex {v!r}")
    alg = path_algebra(PathAlgebraPresentation(q), field)
    kept_arrows = tuple(arr for arr in q.arrows
                        if arr[1] not in svs and arr[2] not in svs)
    sub_quiver = Quiver(q.vertices, kept_arrows)
    data = _quiver_data(alg)
    kept_names = {arr[0] for arr in kept_arrows}
    a_rows, i_rows = [], []
    qv = data.quiver
    # with no relations the basis elements are exactly the paths
    by_len = _paths_up_to(qv, data.bound - 1)
    paths = [p for grp in by_len for p in grp]
    for idx, p in enumerate(paths):
        vec = alg.basis_vector(idx)
        if not p[1]:
            a_rows.append(vec)
            continue
        names = {qv.arrows[ai][0] for ai in p[1]}
        if names <= kept_names:
            a_rows.append(vec)
        else:
            i_rows.append(vec)
    inclusion = subalgebra_from_rows(alg, a_rows)
    complement = echelonize(i_rows, alg.dim, field)
    rows = complement.int_basis[1]
    sq_zero = _products_in(alg, rows, rows, zero_subspace(alg.dim, field))
    if len(svs) == 1:
        v = next(iter(svs))
        has_in = any(arr[2] == v for arr in q.arrows)
        has_out = any(arr[1] == v for arr in q.arrows)
        if sq_zero == (has_in and has_out):
            raise VerificationFailedError(
                "square-zero flag disagrees with the source/sink criterion")
    return DeleteResult(sub_quiver, alg, inclusion, complement, sq_zero)


# ---------------------------------------------------------------------------
# poset utilities and dimension vectors

def clamped_check(p: Poset, a: str, b: str) -> bool:
    """Everything under b is comparable to a, everything over a to b."""
    rel = p.leq_pairs()
    if (a, b) not in rel:
        raise InvalidInputError(f"{a!r} is not below {b!r}")
    for x in p.elements:
        if (x, b) in rel and not p.comparable(x, a):
            return False
        if (a, x) in rel and not p.comparable(x, b):
            return False
    return True


def dimension_vector(m: Module) -> tuple[tuple[int, ...], bool]:
    """Per-vertex dimensions (dim e_v M) and the thin flag."""
    pres = m.algebra.presentation
    if pres is None or not pres.vertex_vectors:
        raise InvalidInputError("module algebra has no quiver/poset presentation")
    dims = []
    for vvec in pres.vertex_vectors:
        mat = m.action_matrix(list(vvec))
        reduced, pivots = rref(mat, m.algebra.field)
        dims.append(len(pivots))
    return tuple(dims), all(d <= 1 for d in dims)
