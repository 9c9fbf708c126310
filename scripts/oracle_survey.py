#!/usr/bin/env python3
"""Survey: classified families vs. the brute-force oracle over F_2.

For each suite algebra of dimension <= 6 over F_2, enumerate the maximal
families, instantiate them, and compare their conjugacy classes with the
oracle's ground truth.  Prints one table row per algebra, and exits 1
when the families and the oracle disagree on any of them.

    python scripts/oracle_survey.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from maxsub.algebra import block_triangular, direct_product, matrix_algebra
from maxsub.linalg import GF
from maxsub.maximal import (
    brute_force_maximal,
    classify_type,
    conjugacy_orbit_rep,
    enumerate_maximal_families,
    instantiate_family,
    unit_group,
)
from maxsub.presentations import (
    PathAlgebraPresentation,
    Poset,
    Quiver,
    incidence_algebra,
    path_algebra,
)
from maxsub.structure import wedderburn_data

F2 = GF(2)


def suite():
    yield "A2 path", path_algebra(PathAlgebraPresentation(
        Quiver(("1", "2"), (("a", "1", "2"),))), F2)
    yield "A3 path", path_algebra(PathAlgebraPresentation(
        Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))), F2)
    yield "Kronecker", path_algebra(PathAlgebraPresentation(
        Quiver(("a", "b"), (("al1", "a", "b"), ("al2", "a", "b")))), F2)
    yield "chain3 incidence", incidence_algebra(
        Poset(("1", "2", "3"), (("1", "2"), ("2", "3"))), F2)
    yield "uppertri3", block_triangular(3, (1, 1, 1), F2).as_algebra()
    yield "K x K", direct_product([matrix_algebra(1, F2)] * 2)
    yield "K x K x M2", direct_product(
        [matrix_algebra(1, F2), matrix_algebra(1, F2), matrix_algebra(2, F2)])
    yield "M2", matrix_algebra(2, F2)


def main() -> int:
    mismatches = 0
    print(f"{'algebra':<18} {'dim':>3} {'families':>8} {'classes':>7} "
          f"{'types':<28} {'match':>5} {'sec':>6}")
    for label, b in suite():
        t0 = time.time()
        res = brute_force_maximal(b)
        units = unit_group(b)
        wm = wedderburn_data(b)
        keys = set()
        for fam in enumerate_maximal_families(b, wm=wm):
            sub = instantiate_family(b, fam, wm=wm)
            keys.add(conjugacy_orbit_rep(b, sub.space, units))
        match = keys == set(res.class_reps)
        mismatches += not match
        kinds = {}
        for cls in res.classes:
            k = classify_type(cls[0], b).kind
            kinds[k] = kinds.get(k, 0) + 1
        kinds_s = ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))
        print(f"{label:<18} {b.dim:>3} {len(keys):>8} "
              f"{len(res.classes):>7} {kinds_s:<28} "
              f"{'yes' if match else 'NO':>5} {time.time() - t0:>6.2f}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
