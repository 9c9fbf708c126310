#!/usr/bin/env python3
"""Regenerate the recorded CLI reports under data/reports/.

Each report is the byte-exact output of one CLI invocation; the test
suite replays the same invocations and compares.  Run from the
repository root:
    python scripts/record_reports.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from maxsub.cli import run

ROOT = os.path.join(os.path.dirname(__file__), "..")
REPORTS = os.path.join(ROOT, "data", "reports")

RECORDED = {
    "maxdim_m3_q.txt": ["maxdim", "data/m3_q.alg"],
    "maxdim_m4_q.txt": ["maxdim", "data/m4_q.alg"],
    "structure_a3_quiver.txt": ["structure", "data/a3.quiver"],
    "structure_m2_f2.txt": ["structure", "data/m2_f2.alg"],
    "structure_zigzag.txt": ["structure", "data/zigzag_a5.alg"],
    "brute_m2_f2.txt": ["maximal", "brute", "data/m2_f2.alg"],
    "brute_kronecker_f2.txt": ["maximal", "brute", "data/kronecker.quiver",
                               "--field", "F2"],
    "enumerate_kronecker_f2.txt": ["maximal", "enumerate",
                                   "data/kronecker.quiver", "--field", "F2"],
    "certify_b11_m2q.txt": ["maximal", "certify", "data/m2_q.alg",
                            "data/b11_m2q.span"],
    "classify_f4_m2f2.txt": ["maximal", "classify", "data/m2_f2.alg",
                             "data/f4_in_m2f2.span"],
    "ext_diag_kxk.txt": ["ext", "check", "data/diag_kxk.span",
                         "data/kxk_q.alg"],
    "dimvec_zigzag.txt": ["mod", "dimvec", "data/zigzag_defining.mod"],
    "restrict_zigzag_d4.txt": ["mod", "restrict", "data/zigzag_defining.mod",
                               "data/d4_in_zigzag.span"],
    "collapse_a4.txt": ["quiver", "collapse", "data/a4.quiver", "b"],
    "delete_d5.txt": ["quiver", "delete", "data/d5.quiver", "5"],
    "clamped_diamond.txt": ["poset", "clamped", "data/diamond.poset", "2", "4"],
}


def main():
    os.makedirs(REPORTS, exist_ok=True)
    os.chdir(ROOT)
    for name, argv in RECORDED.items():
        code, text = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {text}")
        path = os.path.join(REPORTS, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    main()
