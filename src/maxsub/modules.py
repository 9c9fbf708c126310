"""Left modules over a structure-constant algebra.

A module is one action matrix per algebra basis element; the matrices
must satisfy the defining relations of the algebra exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import Algebra
from .errors import DimensionError, VerificationFailedError
from .linalg import Field, _ints, _modp, combine, mat_vec

Matrix = tuple[tuple, ...]


@dataclass(frozen=True)
class Module:
    algebra: Algebra
    dim: int
    action: tuple[Matrix, ...]

    def act(self, x: Sequence, v: Sequence) -> list:
        """Action of the algebra element with coordinates x on v."""
        return mat_vec(self.action_matrix(x), v, self.algebra.field)

    def action_matrix(self, x: Sequence) -> list:
        """Matrix of the action of an arbitrary algebra element."""
        f = self.algebra.field
        return [combine(x, [mat[i] for mat in self.action], f)
                for i in range(self.dim)]


def freeze_matrix(m: Sequence[Sequence], field: Field) -> Matrix:
    return tuple(tuple(field.coerce(v) for v in row) for row in m)


def make_module(algebra: Algebra, mats: Sequence[Sequence[Sequence]],
                check: bool = True) -> Module:
    if len(mats) != algebra.dim:
        raise DimensionError("need one action matrix per basis element")
    dim = len(mats[0]) if mats else 0
    f = algebra.field
    frozen = tuple(freeze_matrix(m, f) for m in mats)
    for m in frozen:
        if len(m) != dim or any(len(r) != dim for r in m):
            raise DimensionError("action matrices must be square of equal size")
    mod = Module(algebra, dim, frozen)
    if check:
        err = module_violation(mod)
        if err is not None:
            raise VerificationFailedError(err)
    return mod


def module_violation(mod: Module) -> str | None:
    """First violated module axiom, or None when the action is a morphism.

    The axioms are checked on integer matrices: the action matrices A_k
    are cleared over one common denominator D_m, the unit u over its own
    D_u and the structure constants c_ijk over D_t (`Algebra.products`).
    The unit law compares Σ_k (D_u·u_k)(D_m·A_k) with D_u·D_m·I; the
    product of b_i and b_j compares D_t·(D_m·A_i)(D_m·A_j) with
    D_m·Σ_k (D_t·c_ijk)(D_m·A_k).  Over F_p every denominator is 1 and
    both sides are compared mod p.
    """
    a = mod.algebra
    p = a.field.p
    n = mod.dim
    if n == 0:
        return None
    dm, flat = _ints([x for m in mod.action for row in m for x in row], p)
    rows = [flat[s:s + n] for s in range(0, len(flat), n)]
    mats = [rows[k * n:(k + 1) * n] for k in range(a.dim)]
    flats = [flat[k * n * n:(k + 1) * n * n] for k in range(a.dim)]
    du, unit = _ints(a.unit, p)
    scale = du * dm
    ident = [scale * (r == c) for r in range(n) for c in range(n)]
    if _differ(_int_combine(zip(unit, flats), n * n), ident, p):
        return "action(unit) != identity"
    dt, table = a.products
    for i, group in enumerate(table):
        terms = dict(group)
        for j in range(a.dim):
            got = [dt * x for r in mats[i]
                   for x in _int_combine(zip(r, mats[j]), n)]
            want = _int_combine(((dm * c, flats[k])
                                 for k, c in terms.get(j, ())), n * n)
            if _differ(got, want, p):
                return (f"action({a.basis_names[i]})*action({a.basis_names[j]})"
                        " mismatches the structure constants")
    return None


def _int_combine(pairs: Iterable[tuple[int, Sequence[int]]], n: int) -> list[int]:
    """Σ c·row over the (c, row) pairs with c ≠ 0, for integer rows of
    length n."""
    out = [0] * n
    for c, row in pairs:
        if c:
            out = [o + c * x for o, x in zip(out, row)]
    return out


def _differ(u: Sequence[int], v: Sequence[int], p: int | None) -> bool:
    """u ≠ v, as integer vectors over Q and mod p over F_p."""
    return any(_modp([x - y for x, y in zip(u, v)], p))


def regular_module(a: Algebra) -> Module:
    """The algebra acting on itself by left multiplication."""
    mats = [a.left_mult_matrix(a.basis_vector(k)) for k in range(a.dim)]
    return make_module(a, mats, check=False)
