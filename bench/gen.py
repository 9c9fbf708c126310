"""Seeded benchmark inputs, built with plain int arithmetic.

Nothing here imports `maxsub`: the base algebras, the change of basis and
the `.alg` text are computed by this file alone, so the inputs are
byte-identical on every commit whatever the library does.  Each base
algebra carries the invariants fixed by its construction (radical
dimension, block sizes, the multiplicities of J/J^2), which the workloads
use as expected answers.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Base:
    """A split algebra on a combinatorial basis, with its invariants.

    table maps (i, j) to the sparse product ((k, c), ...) of basis
    elements i and j; blocks lists the sizes n_i of the matrix blocks of
    B/J ascending; mults lists dim e_s (J/J^2) e_t for every ordered pair
    of blocks where it is nonzero (all blocks with a radical are 1x1 here).
    """

    name: str
    names: tuple[str, ...]
    unit: tuple[int, ...]
    table: dict
    blocks: tuple[int, ...]
    rad_dim: int
    mults: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.names)


def matrix(n: int, name: str | None = None) -> Base:
    idx = {(p, q): p * n + q for p in range(n) for q in range(n)}
    table = {(idx[p, q], idx[q, s]): ((idx[p, s], 1),)
             for p in range(n) for q in range(n) for s in range(n)}
    unit = tuple(int(p == q) for p in range(n) for q in range(n))
    names = tuple(f"e{p + 1}{q + 1}" for p in range(n) for q in range(n))
    return Base(name or f"M{n}", names, unit, table, (n,), 0)


def product(name: str, *factors: Base) -> Base:
    names, unit, table, off = [], [], {}, 0
    for fi, fac in enumerate(factors):
        names += [f"{nm}_{fi}" for nm in fac.names]
        unit += fac.unit
        for (i, j), terms in fac.table.items():
            table[i + off, j + off] = tuple((k + off, c) for k, c in terms)
        off += fac.dim
    blocks = tuple(sorted(b for fac in factors for b in fac.blocks))
    return Base(name, tuple(names), tuple(unit), table, blocks,
                sum(f.rad_dim for f in factors),
                tuple(m for f in factors for m in f.mults))


def incidence(name: str, elements: str, covers: list[tuple[str, str]]) -> Base:
    """Incidence algebra: basis e_ab for a <= b, e_ab e_bd = e_ad."""
    leq = {(a, a) for a in elements} | set(covers)
    while True:
        more = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
        if not more:
            break
        leq |= more
    pairs = sorted(leq, key=lambda pr: (elements.index(pr[0]),
                                        elements.index(pr[1])))
    index = {pr: i for i, pr in enumerate(pairs)}
    table = {(index[a, b], index[c, d]): ((index[a, d], 1),)
             for a, b in pairs for c, d in pairs if b == c}
    unit = tuple(int(a == b) for a, b in pairs)
    return Base(name, tuple(f"i{a}{b}" for a, b in pairs), unit, table,
                (1,) * len(elements), len(pairs) - len(elements),
                (1,) * len(covers))


def path(name: str, vertices: str, arrows: list[tuple[str, str]]) -> Base:
    """Path algebra of an acyclic quiver, no relations; x*y is x after y.

    arrows are (source, target) pairs; a path is (source, target, arrows).
    """
    paths = [(v, v, ()) for v in vertices]
    frontier = list(paths)
    while frontier:
        frontier = [(s, arrows[k][1], seq + (k,)) for s, t, seq in frontier
                    for k in range(len(arrows)) if arrows[k][0] == t]
        paths += frontier
    index = {p: i for i, p in enumerate(paths)}
    table = {}
    for x in paths:
        for y in paths:
            if x[0] == y[1]:
                table[index[x], index[y]] = ((index[y[0], x[1], y[2] + x[2]], 1),)
    unit = tuple(int(not p[2]) for p in paths)
    mults: dict = {}
    for arr in arrows:
        mults[arr] = mults.get(arr, 0) + 1
    names = tuple("p" + "".join(map(str, p[2])) + f"_{p[0]}{p[1]}"
                  for p in paths)
    return Base(name, names, unit, table, (1,) * len(vertices),
                len(paths) - len(vertices), tuple(sorted(mults.values())))


def triangular(n: int) -> Base:
    return incidence(f"T{n}", "".join(str(k) for k in range(n)),
                     [(str(k), str(k + 1)) for k in range(n - 1)])


# ---------------------------------------------------------------------------
# the algebras the acceptance criteria and the recorded data are built from

A2 = path("A2", "12", [("1", "2")])
A3 = path("A3", "123", [("1", "2"), ("2", "3")])
A4 = path("A4", "1234", [("1", "2"), ("2", "3"), ("3", "4")])
KRONECKER = path("Kronecker", "ab", [("a", "b"), ("a", "b")])
D4 = path("D4", "1c35", [("1", "c"), ("3", "c"), ("5", "c")])
D5 = path("D5", "12c45", [("1", "c"), ("2", "c"), ("c", "4"), ("4", "5")])
CHAIN3 = incidence("chain3", "123", [("1", "2"), ("2", "3")])
DIAMOND = incidence("diamond", "1234",
                    [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")])
ZIGZAG = incidence("zigzag", "12345",
                   [("2", "1"), ("2", "3"), ("4", "3"), ("4", "5")])
K = matrix(1, "K")
KXK = product("KxK", K, K)
KXKXM2 = product("KxKxM2", K, K, matrix(2))
M2XM2 = product("M2xM2", matrix(2), matrix(2))
M2XM3 = product("M2xM3", matrix(2), matrix(3))


# ---------------------------------------------------------------------------
# change of basis

def _inverse(m: list[list[int]], p: int | None) -> list[list] | None:
    """Inverse over F_p, or over Q when p is None (None if singular)."""
    n = len(m)
    if p:
        a = [[x % p for x in row] + [int(i == j) for j in range(n)]
             for i, row in enumerate(m)]
    else:
        a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, p) if p else 1 / a[c][c]
        a[c] = [x * inv % p if p else x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [(x - f * y) % p if p else x - f * y
                        for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def random_basis(n: int, p: int | None, rng: random.Random,
                 kind: str) -> list[list[int]]:
    """A seeded change of basis: rows are the new basis in old coordinates.

    "standard" keeps the combinatorial basis.  "dense": every entry random, from {-1, 0, 1} over Q (rational
    inverse) or from F_p, redrawn until invertible.  "pairs" (Q only): a
    random permutation, then two rounds of random perfect matchings where
    each matched row gains +-1 times its partner; unimodular, so the
    structure constants stay integral and sparse.
    """
    if kind == "standard":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "pairs":
        perm = list(range(n))
        rng.shuffle(perm)
        m = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        for _ in range(2):
            order = list(range(n))
            rng.shuffle(order)
            for i, j in zip(order[::2], order[1::2]):
                c = rng.choice((-1, 1))
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        return m
    entries = range(p) if p else (-1, 0, 1)
    while True:
        m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if _inverse(m, p) is not None:
            return m


def vec_times(v: list[int], m: list[list[int]], p: int | None) -> list[int]:
    out = [sum(x * m[i][j] for i, x in enumerate(v) if x) for j in range(len(m[0]))]
    return out if p is None else [x % p for x in out]


def multiply(base: Base, x: list[int], y: list[int]) -> list[int]:
    out = [0] * base.dim
    for (i, j), terms in base.table.items():
        if x[i] and y[j]:
            c = x[i] * y[j]
            for k, t in terms:
                out[k] += c * t
    return out


@dataclass(frozen=True)
class Input:
    """One generated `.alg` input with the data needed to check answers."""

    name: str
    base: Base
    p: int | None
    text: str
    basis: tuple[tuple[int, ...], ...]   # new basis rows, old coordinates
    inverse: tuple[tuple, ...]           # old basis rows, new coordinates

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def to_new(self, v: list[int]) -> list[int]:
        """Old (combinatorial) coordinates to the input's coordinates."""
        return vec_times(v, [list(r) for r in self.inverse], self.p)


def alg_text(base: Base, p: int | None, basis: list[list[int]],
             inverse: list[list]) -> str:
    n = base.dim
    red = (lambda v: v) if p is None else (lambda v: [x % p for x in v])
    lines = ["field Q" if p is None else f"field F {p}", f"dim {n}",
             "basis " + " ".join(f"b{k + 1}" for k in range(n)),
             "unit " + " ".join(map(str, red(vec_times(list(base.unit),
                                                       inverse, None))))]
    for a, b in itertools.product(range(n), repeat=2):
        prod = multiply(base, basis[a], basis[b])
        new = red(vec_times(prod, inverse, None))
        terms = [f"{k + 1}:{c}" for k, c in enumerate(new) if c]
        if terms:
            lines.append(f"mul {a + 1} {b + 1} -> " + " ".join(terms))
    return "\n".join(lines) + "\n"


def make_input(base: Base, p: int | None, rng: random.Random,
               basis: str = "dense", name: str | None = None) -> Input:
    """base over Q (p None) or F_p, written in a seeded basis of the given
    kind (see random_basis)."""
    rows = random_basis(base.dim, p, rng, basis)
    inverse = _inverse(rows, p)
    text = alg_text(base, p, rows, inverse)
    label = name or f"{base.name}/{'Q' if p is None else f'F{p}'}"
    return Input(label, base, p, text, tuple(map(tuple, rows)),
                 tuple(map(tuple, inverse)))


# ---------------------------------------------------------------------------
# invariants fixed by construction

def _prime_divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1)
            if n % d == 0 and all(d % e for e in range(2, d))]


def family_counts(base: Base, p: int | None) -> dict[str, int]:
    """Conjugacy classes of maximal subalgebras per family kind.

    Block-triangular: n_i - 1 per block; diagonal merges: one per pair of
    equal blocks; radical hyperplanes: one projective point of each
    e_s (J/J^2) e_t, or one parametrized family over Q; subfield
    centralizers: one per prime divisor of each n_i over F_p.
    """
    counts = {
        "block_triangular": sum(n - 1 for n in base.blocks),
        "diagonal_merge": sum(c * (c - 1) // 2 for c in
                              (base.blocks.count(n) for n in set(base.blocks))),
        "radical_hyperplane": (len(base.mults) if p is None else
                               sum((p ** m - 1) // (p - 1) for m in base.mults)),
        "subfield_centralizer": (0 if p is None else
                                 sum(len(_prime_divisors(n)) for n in base.blocks)),
    }
    return {kind: c for kind, c in counts.items() if c}


def family_count(base: Base, p: int | None) -> int:
    return sum(family_counts(base, p).values())


def max_subalgebra_dim(base: Base) -> int:
    return base.dim - 1 - max(base.blocks[0] - 2, 0)


def unit_count(base: Base, p: int) -> int:
    """|B^x| = |J| * prod |GL_n(F_p)| over the blocks."""
    total = p ** base.rad_dim
    for n in base.blocks:
        for k in range(n):
            total *= p ** n - p ** k
    return total
