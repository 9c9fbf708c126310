#!/usr/bin/env python3
"""Demo: the closed-form bound for the largest proper subalgebra.

Evaluates dim(B) - 1 - max(n_1 - 2, 0) across the suite and, where the
finite-field enumeration is affordable, confirms it against the observed
maximum of an exhaustive descending subspace scan.

    python scripts/dimension_bound_demo.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from maxsub.algebra import block_triangular, direct_product, matrix_algebra
from maxsub.errors import CapExceededError
from maxsub.linalg import GF, QQ
from maxsub.maximal import max_proper_subalgebra_dim, observed_max_dim
from maxsub.presentations import (
    PathAlgebraPresentation,
    Poset,
    Quiver,
    incidence_algebra,
    path_algebra,
)
from maxsub.structure import structure_report


def builders():
    quivers = {
        "A2": Quiver(("1", "2"), (("a", "1", "2"),)),
        "A3": Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3"))),
        "Kronecker": Quiver(("a", "b"), (("al1", "a", "b"), ("al2", "a", "b"))),
        "D4": Quiver(("1", "c", "3", "5"),
                     (("x", "1", "c"), ("y", "3", "c"), ("z", "5", "c"))),
    }
    for name, q in quivers.items():
        yield f"{name} path", (lambda f, q=q: path_algebra(
            PathAlgebraPresentation(q), f))
    posets = {
        "chain3": Poset(("1", "2", "3"), (("1", "2"), ("2", "3"))),
        "diamond": Poset(("1", "2", "3", "4"),
                         (("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"))),
    }
    for name, p in posets.items():
        yield f"{name} incidence", (lambda f, p=p: incidence_algebra(p, f))
    yield "K x K x M2", (lambda f: direct_product(
        [matrix_algebra(1, f), matrix_algebra(1, f), matrix_algebra(2, f)]))
    yield "uppertri3", (lambda f: block_triangular(3, (1, 1, 1), f).as_algebra())
    yield "M2", (lambda f: matrix_algebra(2, f))
    yield "M3", (lambda f: matrix_algebra(3, f))


def main():
    print(f"{'algebra':<18} {'dim':>3} {'blocks':<10} {'bound':>5} "
          f"{'F2 scan':>8} {'F3 scan':>8}")
    for label, build in builders():
        b = build(QQ)
        rep = structure_report(b)
        bound = max_proper_subalgebra_dim(b)
        cells = []
        for p in (2, 3):
            bf = build(GF(p))
            try:
                got = observed_max_dim(bf)
                mark = f"{got}={bound}" if got == bound else f"{got}!={bound}"
            except CapExceededError:
                mark = "capped"
            cells.append(f"{mark:>8}")
        blocks = ",".join(str(n) for n in rep.block_dims)
        print(f"{label:<18} {b.dim:>3} ({blocks:<8}) {bound:>5} "
              f"{cells[0]} {cells[1]}")


if __name__ == "__main__":
    main()
