"""Left modules over a structure-constant algebra.

A module is one action matrix per algebra basis element; the matrices
must satisfy the defining relations of the algebra exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Algebra
from .errors import DimensionError, VerificationFailedError
from .linalg import Field, combine, identity_matrix, mat_mul, mat_vec

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
    """First violated module axiom, or None when the action is a morphism."""
    a = mod.algebra
    f = a.field
    ident = identity_matrix(mod.dim, f)
    unit_mat = mod.action_matrix(list(a.unit))
    if [list(r) for r in unit_mat] != ident:
        return "action(unit) != identity"
    for i in range(a.dim):
        for j in range(a.dim):
            prod = mat_mul(mod.action[i], mod.action[j], f)
            want = mod.action_matrix(list(a.table[i][j]))
            if [list(r) for r in prod] != [list(r) for r in want]:
                return (f"action({a.basis_names[i]})*action({a.basis_names[j]})"
                        " mismatches the structure constants")
    return None


def regular_module(a: Algebra) -> Module:
    """The algebra acting on itself by left multiplication."""
    mats = [a.left_mult_matrix(a.basis_vector(k)) for k in range(a.dim)]
    return make_module(a, mats, check=False)
