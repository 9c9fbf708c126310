#!/usr/bin/env python3
"""Regenerate the recorded CLI reports under data/reports/, or check them.

Each report is the byte-exact output of one CLI invocation; the test
suite replays the same invocations in one process and compares.  Run from
the repository root:
    python scripts/record_reports.py
    python scripts/record_reports.py --check

--check writes nothing: it runs each invocation as `python -m maxsub.cli`
in a fresh subprocess with PYTHONPATH=src, and compares the exit code and
the stdout bytes with the report.  That covers what the in-process replay
cannot see: state carried from one run to the next, and the output path
of `main()`.
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


def check() -> int:
    """Replay every recorded invocation in a fresh subprocess; 1 if any
    exit code or stdout differs from its report, else 0."""
    import subprocess  # here, not at the top: bench/ imports this file

    env = dict(os.environ, PYTHONPATH="src", PYTHONIOENCODING="utf-8")
    bad = 0
    for name, argv in RECORDED.items():
        proc = subprocess.run([sys.executable, "-m", "maxsub.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True)
        with open(os.path.join(REPORTS, name), "rb") as fh:
            want = fh.read()
        if proc.returncode == 0 and proc.stdout == want:
            print("ok", name)
        else:
            bad += 1
            print(f"DIFFERS {name}: exit {proc.returncode}, "
                  f"{len(proc.stdout)} bytes against {len(want)}")
            sys.stdout.write(proc.stderr.decode("utf-8", "replace"))
    print(f"{len(RECORDED) - bad} of {len(RECORDED)} reports reproduced")
    return 1 if bad else 0


def main():
    if sys.argv[1:] == ["--check"]:
        raise SystemExit(check())
    if sys.argv[1:]:
        raise SystemExit(f"usage: {sys.argv[0]} [--check]")
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
