#!/usr/bin/env python3
"""Regenerate the bundled input files under data/, or check them.

Algebra files are serialized from the library's own constructors, so the
bundled data is reproducible from source.  Run from the repository root:
    python scripts/make_data.py
    python scripts/make_data.py --check

--check writes nothing: it rebuilds every file in memory and compares its
bytes with the file under data/.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from maxsub.algebra import direct_product, make_algebra, matrix_algebra
from maxsub.formats import dump_algebra, dump_module, dump_span
from maxsub.linalg import GF, QQ
from maxsub.presentations import (
    Poset,
    incidence_algebra,
    interval_index,
)
from maxsub.modules import make_module

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def build() -> dict[str, str]:
    """{file name under data/: its text}, built from the constructors."""
    files: dict[str, str] = {}
    write = files.__setitem__

    write("m2_q.alg", dump_algebra(matrix_algebra(2, QQ)))
    write("m3_q.alg", dump_algebra(matrix_algebra(3, QQ)))
    write("m4_q.alg", dump_algebra(matrix_algebra(4, QQ)))
    write("m2_f2.alg", dump_algebra(matrix_algebra(2, GF(2))))
    write("m2_f3.alg", dump_algebra(matrix_algebra(2, GF(3))))
    write("kxkxm2_f2.alg", dump_algebra(direct_product(
        [matrix_algebra(1, GF(2)), matrix_algebra(1, GF(2)),
         matrix_algebra(2, GF(2))])))
    write("kxk_q.alg", dump_algebra(direct_product(
        [matrix_algebra(1, QQ), matrix_algebra(1, QQ)])))

    # F_4 as an F_2-algebra: x^2 = x + 1
    f4 = make_algebra(GF(2), ["one", "x"], [1, 0],
                      [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], check=True)
    write("f4_f2.alg", dump_algebra(f4))

    write("a2.quiver", "vertex 1\nvertex 2\narrow a 1 2\n")
    write("a3.quiver", "vertex 1\nvertex 2\nvertex 3\n"
                       "arrow a 1 2\narrow b 2 3\n")
    write("a4.quiver", "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                       "arrow a 1 2\narrow b 2 3\narrow c 3 4\n")
    write("kronecker.quiver", "vertex a\nvertex b\n"
                              "arrow al1 a b\narrow al2 a b\n")
    write("d4.quiver", "vertex 1\nvertex c\nvertex 3\nvertex 5\n"
                       "arrow x 1 c\narrow y 3 c\narrow z 5 c\n")
    write("d5.quiver", "vertex 1\nvertex 2\nvertex c\nvertex 4\nvertex 5\n"
                       "arrow x 1 c\narrow y 2 c\narrow z c 4\narrow w 4 5\n")

    write("chain3.poset", "element 1\nelement 2\nelement 3\n"
                          "cover 1 2\ncover 2 3\n")
    write("diamond.poset", "element 1\nelement 2\nelement 3\nelement 4\n"
                           "cover 1 2\ncover 1 3\ncover 2 4\ncover 3 4\n")
    write("zigzag_a5.poset", "element 1\nelement 2\nelement 3\nelement 4\n"
                             "element 5\ncover 2 1\ncover 2 3\n"
                             "cover 4 3\ncover 4 5\n")

    # the zigzag incidence algebra and its defining 5-dimensional module
    zz = Poset(("1", "2", "3", "4", "5"),
               (("2", "1"), ("2", "3"), ("4", "3"), ("4", "5")))
    inc = incidence_algebra(zz, QQ)
    write("zigzag_a5.alg", dump_algebra(inc))
    elems = list(zz.elements)
    mats = []
    for name in inc.basis_names:
        a, b = name[1:-1].split(",")
        i, j = elems.index(a), elems.index(b)
        m = [[0] * 5 for _ in range(5)]
        m[i][j] = 1
        mats.append(m)
    defmod = make_module(inc, mats, check=True)
    write("zigzag_defining.mod", dump_module(defmod, "zigzag_a5.poset"))

    # D_4 embedded in the zigzag incidence algebra (span file)
    def bv(a, b):
        return list(inc.basis_vector(interval_index(inc, a, b)))

    def plus(u, v):
        return [x + y for x, y in zip(u, v)]

    d4_rows = [bv("1", "1"), bv("2", "1"), plus(bv("2", "2"), bv("4", "4")),
               plus(bv("2", "3"), bv("4", "3")), bv("3", "3"),
               bv("4", "5"), bv("5", "5")]
    write("d4_in_zigzag.span", dump_span(d4_rows, QQ))

    # B(1,1) inside M_2(Q) and the scalars inside M_2(Q)
    write("b11_m2q.span", "vec 1 0 0 0\nvec 0 1 0 0\nvec 0 0 0 1\n")
    write("scalars_m2q.span", "vec 1 0 0 1\n")
    # F_4 inside M_2(F_2): span{1, [[0,1],[1,1]]}
    write("f4_in_m2f2.span", "vec 1 0 0 1\nvec 0 1 1 1\n")
    # the diagonal merge inside K x K
    write("diag_kxk.span", "vec 1 1\n")
    return files


def check() -> int:
    """1 if any rebuilt file differs from its bytes under data/, else 0."""
    files = build()
    bad = 0
    for name, text in files.items():
        try:
            with open(os.path.join(DATA, name), "rb") as fh:
                same = fh.read() == text.encode("utf-8")
        except FileNotFoundError:
            same = False
        print("ok" if same else "DIFFERS", name)
        bad += not same
    print(f"{len(files) - bad} of {len(files)} data files reproduced")
    return 1 if bad else 0


def main():
    if sys.argv[1:] == ["--check"]:
        raise SystemExit(check())
    if sys.argv[1:]:
        raise SystemExit(f"usage: {sys.argv[0]} [--check]")
    os.makedirs(DATA, exist_ok=True)
    for name, text in build().items():
        path = os.path.join(DATA, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    main()
