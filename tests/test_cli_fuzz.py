"""CLI fuzz: mutated input files and mutated `--family`/`--params` options
end in a clean exit code, never a traceback, and within a time bound."""

import os
import shutil
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, recorded_invocations
from maxsub.cli import run

DATA = os.path.join(ROOT, "data")
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
def _mutated(draw, texts=TEXTS, tokens=TOKENS):
    """(file name, text): 1-3 token swaps, drops, inserts or replacements."""
    name = draw(st.sampled_from(sorted(texts)))
    lines = [line.split() for line in texts[name].splitlines()]
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
            lines[i].insert(j + draw(st.integers(0, 1)), draw(st.sampled_from(tokens)))
        else:
            lines[i][j] = draw(st.sampled_from(tokens))
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


# four invocations with no recorded report that reach `poset build`,
# `poset maximal`, `quiver maximal` and `mod decompose`; `mod induce` reads a
# module file that an earlier command generates, so it has no case here
EXTRA_INVOCATIONS = [
    ["poset", "build", "data/diamond.poset"],
    ["poset", "maximal", "data/diamond.poset", "t", "1", "2"],
    ["quiver", "maximal", "data/kronecker.quiver", "split", "a", "b",
     "--hyperplane", "1,0"],
    ["mod", "decompose", "data/zigzag_defining.mod"],
]
# the recorded invocations and the four above that read a .quiver, .poset,
# .span or .mod file, with the position of that file in the arguments
FILE_CASES = [(argv, k)
              for argv in [*recorded_invocations().values(), *EXTRA_INVOCATIONS]
              for k, a in enumerate(argv)
              if os.path.splitext(a)[1] in (".quiver", ".poset", ".span", ".mod")]
PRESENTATION_TEXTS = {os.path.basename(argv[k]): open(
    os.path.join(ROOT, argv[k]), encoding="utf-8").read() for argv, k in FILE_CASES}
# the keywords of the four formats, names of their vertices, arrows and
# elements, and the tokens above
PRESENTATION_TOKENS = TOKENS + ["vertex", "arrow", "element", "cover", "vec",
                                "act", "module", "over", "a", "b", "1", "2",
                                "5", "al1", "1/2", "zigzag_a5.poset"]


@pytest.fixture(scope="module")
def data_copy(tmp_path_factory):
    """A copy of data/, so that a mutated file finds the files it names."""
    return shutil.copytree(DATA, tmp_path_factory.mktemp("fuzz") / "data")


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(FILE_CASES), data=st.data())
def test_mutated_presentation_files_fail_cleanly(data_copy, case, data):
    argv, k = case
    name = os.path.basename(argv[k])
    _, text = data.draw(_mutated({name: PRESENTATION_TEXTS[name]},
                                 PRESENTATION_TOKENS))
    path = data_copy / f"mutated_{name}"
    path.write_text(text, encoding="utf-8")
    args = [str(data_copy / os.path.basename(a)) if a.startswith("data/") else a
            for a in argv]
    args[k] = str(path)
    start = time.perf_counter()
    code, out = run(args)
    took = time.perf_counter() - start
    assert code in (0, 1, 2), out
    assert "Traceback" not in out
    assert took < SECONDS, f"{took:.1f} s on {args} of\n{text}"


# (input arguments, family record, --params): records as `maximal enumerate`
# prints them, and coordinates for a parametrized hyperplane
INSTANCES = [
    (["data/kxkxm2_f2.alg"], "kind=block_triangular block=3 k=1 codim=1", None),
    (["data/kxkxm2_f2.alg"], "kind=diagonal_merge i=1 j=2 codim=1", None),
    (["data/kxkxm2_f2.alg"], "kind=subfield_centralizer block=3 degree=2 codim=2",
     None),
    (["data/m2_f3.alg"], "kind=subfield_centralizer block=1 degree=2 codim=2",
     None),
    (["data/kronecker.quiver", "--field", "F2"],
     "kind=radical_hyperplane i=1 j=2 m=2 hyperplane=1,1 codim=1", None),
    (["data/kronecker.quiver"],
     "kind=radical_hyperplane i=1 j=2 m=2 hyperplane=parametrized codim=1",
     "1,0"),
    (["data/a3.quiver"],
     "kind=radical_hyperplane i=2 j=3 m=1 hyperplane=parametrized codim=1", "2"),
]
KEYS = ["kind", "block", "k", "i", "j", "m", "hyperplane", "degree", "codim"]
VALUES = ["0", "-1", "1", "2", "3", "4", "99", "abc", "1/0", "", "1,0", "0,0",
          "1,1,1", "parametrized", "10^22", "block_triangular",
          "diagonal_merge", "radical_hyperplane", "subfield_centralizer"]
PARAMS = [None, "", ",", "1", "0", "1,0", "0,0", "1,2,3", "abc", "1/0", "-1,1/2",
          "10^22", "1e5,2", "1,"]


@st.composite
def _mutated_instance(draw):
    """(arguments, record, params): 1-3 edits of the record's tokens, and
    the params kept or replaced."""
    args, record, params = draw(st.sampled_from(INSTANCES))
    toks = record.split()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["key", "value", "drop", "insert"]))
        j = draw(st.integers(0, max(len(toks) - 1, 0)))
        if op == "insert" or not toks:
            toks.insert(j, draw(st.sampled_from(KEYS)) + "="
                        + draw(st.sampled_from(VALUES)))
        elif op == "drop":
            del toks[j]
        else:
            key, _, value = toks[j].partition("=")
            if op == "key":
                key = draw(st.sampled_from(KEYS))
            else:
                value = draw(st.sampled_from(VALUES))
            toks[j] = f"{key}={value}"
    if draw(st.booleans()):
        params = draw(st.sampled_from(PARAMS))
    return args, " ".join(toks), params


@settings(max_examples=120, deadline=None)
@given(instance=_mutated_instance())
def test_mutated_family_options_fail_cleanly(instance):
    args, record, params = instance
    # the OPTION=VALUE form lets a value start with "-"
    argv = ["maximal", "instantiate", os.path.join(ROOT, args[0]), *args[1:],
            f"--family={record}"]
    if params is not None:
        argv.append(f"--params={params}")
    start = time.perf_counter()
    code, out = run(argv)
    took = time.perf_counter() - start
    assert code in (0, 1, 2), out
    assert "Traceback" not in out
    assert took < SECONDS, f"{took:.1f} s on {argv}"
