"""CLI fuzz: mutated `.alg` inputs end in a clean exit code, never a
traceback, and within a time bound."""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsub.cli import run

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "data")
FUZZ_FILES = ["m2_q.alg", "m3_q.alg", "kxk_q.alg", "m2_f2.alg", "m2_f3.alg",
              "kxkxm2_f2.alg", "f4_f2.alg", "zigzag_a5.alg"]
TEXTS = {name: open(os.path.join(DATA, name), encoding="utf-8").read()
         for name in FUZZ_FILES}
# a zero denominator, a non-prime field, a stray arrow, a non-integer
# literal, out-of-range basis indices and a keyword out of place
TOKENS = ["1/0", "F4", "->", "10^22", "0", "-1", "99", "9:1", "1:0", "2:1/0",
          "Q", "F2", "mul", "dim", "unit", "field"]
COMMANDS = [["structure"], ["maxdim"], ["maximal", "enumerate"]]
SECONDS = 10.0


@st.composite
def _mutated(draw):
    """(file name, text): 1-3 token swaps, drops, inserts or replacements."""
    name = draw(st.sampled_from(FUZZ_FILES))
    lines = [line.split() for line in TEXTS[name].splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        slots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        op = draw(st.sampled_from(["swap", "drop", "insert", "replace"]))
        i, j = draw(st.sampled_from(slots))
        if op == "swap":
            k, m = draw(st.sampled_from(slots))
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        elif op == "drop":
            del lines[i][j]
        elif op == "insert":
            lines[i].insert(j + draw(st.integers(0, 1)), draw(st.sampled_from(TOKENS)))
        else:
            lines[i][j] = draw(st.sampled_from(TOKENS))
    return name, "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None)
@given(mutated=_mutated(), command=st.sampled_from(COMMANDS))
def test_mutated_algebra_files_fail_cleanly(fuzz_dir, mutated, command):
    name, text = mutated
    path = fuzz_dir / name
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out = run(command + [str(path)])
    took = time.perf_counter() - start
    assert code in (0, 1, 2), out
    assert "Traceback" not in out
    assert took < SECONDS, f"{took:.1f} s on {command} of\n{text}"
