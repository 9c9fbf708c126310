"""CLI: bundled files parse and validate, reports reproduce byte-for-byte."""

import importlib.util
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time

import pytest

import maxsub.cli
import maxsub.extensions
import maxsub.structure
from conftest import QUATERNIONS_ALG, recorded_invocations
from maxsub.cli import run
from maxsub.errors import ParseError
from maxsub.formats import dump_algebra, load_algebra, load_text, parse_algebra
from maxsub.algebra import matrix_algebra, validate_algebra
from maxsub.linalg import GF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "data")
REPORTS = os.path.join(DATA, "reports")


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


ALGEBRA_FILES = ["m2_q.alg", "m3_q.alg", "m4_q.alg", "m2_f2.alg", "m2_f3.alg",
                 "kxkxm2_f2.alg", "kxk_q.alg", "f4_f2.alg", "zigzag_a5.alg"]


@pytest.mark.parametrize("name", ALGEBRA_FILES)
def test_bundled_algebras_validate(name):
    alg = parse_algebra(load_text(os.path.join(DATA, name)))
    assert validate_algebra(alg).ok


@pytest.mark.parametrize("name", ["a2.quiver", "a3.quiver", "a4.quiver",
                                  "kronecker.quiver", "d4.quiver", "d5.quiver",
                                  "chain3.poset", "diamond.poset",
                                  "zigzag_a5.poset"])
def test_bundled_presentations_build(name):
    alg = load_algebra(os.path.join(DATA, name))
    assert validate_algebra(alg).ok


@pytest.mark.parametrize("name", sorted(os.listdir(REPORTS)))
def test_recorded_reports_reproduce_byte_for_byte(name):
    argv = recorded_invocations()[name]
    code, text = run(argv)
    assert code == 0
    with open(os.path.join(REPORTS, name), "r", encoding="utf-8") as fh:
        assert text == fh.read()


def test_json_payload_roundtrips():
    code, text = run(["--json", "maximal", "brute", "data/m2_f2.alg"])
    assert code == 0
    payload = json.loads(text)
    assert payload["result"]["class_count"] == 2
    assert json.loads(json.dumps(payload)) == payload


def test_exit_code_parse_error():
    code, text = run(["structure", "data/does_not_exist.alg"])
    assert code == 2
    assert "parse error" in text


def test_exit_code_operation_error():
    code, text = run(["maxdim", "data/f4_f2.alg"])
    assert code == 1
    assert "error" in text


def test_exit_code_bad_span():
    code, text = run(["maximal", "certify", "data/m2_q.alg",
                      "data/scalars_m2q.span"])
    assert code == 0   # scalars form a subalgebra; certificate says not maximal
    assert "not_maximal" in text


def test_huge_field_characteristic_is_a_parse_error(tmp_path):
    bad = tmp_path / "huge.alg"
    bad.write_text("field F 1000000000000000000000000000057\n"
                   "dim 1\nbasis e\nunit 1\nmul 1 1 -> 1:1\n")
    start = time.perf_counter()
    code, text = run(["structure", str(bad)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert text.startswith("parse error")


def test_structure_over_a_61_bit_prime_field(tmp_path):
    kxk = tmp_path / "kxk.alg"
    kxk.write_text("field F 2305843009213693951\n"
                   "dim 2\nbasis a b\nunit 1 1\nmul 1 1 -> 1:1\nmul 2 2 -> 2:1\n")
    start = time.perf_counter()
    code, text = run(["structure", str(kxk)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "schur: true" in text


def test_structure_with_a_large_rational_constant(tmp_path):
    # b^2 = 10^20 b: the idempotent b / 10^20 needs the rational root 10^20
    kxk = tmp_path / "kxk_big.alg"
    kxk.write_text("field Q\ndim 2\nbasis a b\nunit 1 0\nmul 1 1 -> 1:1\n"
                   "mul 1 2 -> 2:1\nmul 2 1 -> 2:1\n"
                   "mul 2 2 -> 2:100000000000000000000\n")
    start = time.perf_counter()
    code, text = run(["structure", str(kxk)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "schur: true" in text
    assert "radical_dim: 0" in text


def test_instantiate_rejects_a_composite_subfield_degree(tmp_path):
    m4 = tmp_path / "m4_f3.alg"
    m4.write_text(dump_algebra(matrix_algebra(4, GF(3))))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "maxsub.cli", "maximal", "instantiate", str(m4),
         "--family", "family kind=subfield_centralizer block=1 degree=4"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "degree 4 is not prime" in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_malformed_algebra_rejected(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("field Q\ndim 2\nbasis a b\nunit 1 0\nmul 1 5 -> 1:1\n")
    code, text = run(["structure", str(bad)])
    assert code == 2
    assert "line" in text


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize("command", [["structure"], ["maxdim"]])
def test_algebra_of_dim_below_one_is_a_parse_error(tmp_path, command, dim):
    empty = tmp_path / "empty.alg"
    empty.write_text(f"field Q\ndim {dim}\nbasis\nunit\n")
    code, text = run(command + [str(empty)])
    assert code == 2
    assert text == f"parse error: line 2: dim must be at least 1, got {dim}\n"


def test_structure_report_repeats_with_its_fixed_seed_line():
    code1, text1 = run(["structure", "data/m2_q.alg"])
    code2, text2 = run(["structure", "data/m2_q.alg"])
    assert code1 == code2 == 0
    assert text1 == text2
    assert "seed: 0" in text1


def test_no_seed_or_single_value_options():
    """No library function takes a seed, and the two options that had
    only one value in use stay folded into constants."""
    walked = set()
    for info in pkgutil.iter_modules(maxsub.__path__):
        mod = importlib.import_module(f"maxsub.{info.name}")
        for fn in _functions_of(mod):
            assert "seed" not in inspect.signature(fn).parameters, \
                f"{mod.__name__}.{fn.__qualname__}"
            walked.add(fn.__qualname__)
    assert {"certify_maximal", "Algebra.multiply", "run"} <= walked
    assert "check" not in inspect.signature(
        maxsub.structure.jacobson_radical).parameters
    assert "dim_cap" not in inspect.signature(
        maxsub.extensions.check_summand_property).parameters
    code, text = run(["--seed", "0", "structure", "data/m2_q.alg"])
    assert code == 2
    assert text.startswith("usage: maxsub")


def _functions_of(mod):
    """The functions and methods defined in a module."""
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield from (m for m in vars(obj).values() if inspect.isfunction(m))


def test_structure_builds_the_decomposition_once(monkeypatch):
    calls = []
    original = maxsub.structure.structure_report

    def counted(b):
        calls.append(b)
        return original(b)
    monkeypatch.setattr(maxsub.structure, "structure_report", counted)
    monkeypatch.setattr(maxsub.cli, "structure_report", counted)
    code, text = run(["structure", "data/m2_f2.alg"])
    assert code == 0 and "complement_dim: 4" in text
    assert len(calls) == 1


# quotient_algebra calls per recorded invocation: one B/J per algebra with a
# nonzero radical whose structure report is built or whose radical is
# verified (B/0 is B itself), and A/J(A) for each split verdict of
# `classify_type`
QUOTIENTS_BUILT = {
    "structure_a3_quiver.txt": 1, "structure_m2_f2.txt": 0,
    "structure_zigzag.txt": 1, "maxdim_m3_q.txt": 0, "maxdim_m4_q.txt": 0,
    "enumerate_kronecker_f2.txt": 1, "classify_f4_m2f2.txt": 0,
    "restrict_zigzag_d4.txt": 0, "collapse_a4.txt": 1,
    "brute_m2_f2.txt": 0, "brute_kronecker_f2.txt": 4,
    "certify_b11_m2q.txt": 0, "ext_diag_kxk.txt": 0,
    "dimvec_zigzag.txt": 0, "delete_d5.txt": 0, "clamped_diamond.txt": 0,
}


@pytest.mark.parametrize("name", sorted(recorded_invocations()))
def test_recorded_invocations_build_each_quotient_once(monkeypatch, name):
    calls = []
    original = maxsub.structure.quotient_algebra

    def counted(a, ideal):
        calls.append(a)
        return original(a, ideal)
    monkeypatch.setattr(maxsub.structure, "quotient_algebra", counted)
    monkeypatch.setattr(maxsub.extensions, "quotient_algebra", counted)
    code, _ = run(recorded_invocations()[name])
    assert code == 0
    assert len(calls) == QUOTIENTS_BUILT[name]


def test_the_quaternions_are_not_split(tmp_path):
    path = tmp_path / "quaternions.alg"
    path.write_text(QUATERNIONS_ALG)
    code, text = run(["structure", str(path)])
    assert code == 0
    assert "radical_dim: 0" in text
    assert "not_split: a block is not a full matrix algebra" in text
    for argv in (["maxdim", str(path)], ["maximal", "enumerate", str(path)]):
        code, text = run(argv)
        assert code == 1
        assert "error: a block is not a full matrix algebra" in text


def test_maxdim_m3_value():
    code, text = run(["maxdim", "data/m3_q.alg"])
    assert code == 0
    assert "max_proper_subalgebra_dim: 7" in text


def test_structure_a3_quiver_fields():
    code, text = run(["structure", "data/a3.quiver"])
    assert code == 0
    assert "radical_dim: 3" in text
    assert text.count("  1\n") >= 3   # three blocks of size 1


def test_quiver_maximal_with_hyperplane():
    code, text = run(["quiver", "maximal", "data/kronecker.quiver",
                      "split", "a", "b", "--hyperplane", "1,1"])
    assert code == 0
    assert "certified: maximal" in text


def test_instantiate_roundtrip_from_enumerate():
    code, text = run(["maximal", "enumerate", "data/kronecker.quiver",
                      "--field", "F2"])
    assert code == 0
    records = [line.strip() for line in text.splitlines()
               if line.strip().startswith("family ")]
    assert len(records) == 4
    for rec in records:
        code2, text2 = run(["maximal", "instantiate", "data/kronecker.quiver",
                            "--field", "F2", "--family", rec])
        assert code2 == 0
        assert "codim: 1" in text2


def test_classify_reports_the_split_evidence(tmp_path):
    code, text = run(["maximal", "instantiate", "data/kronecker.quiver",
                      "--field", "F2", "--family", "kind=radical_hyperplane "
                      "i=1 j=2 m=2 hyperplane=1,0 codim=1"])
    assert code == 0
    rows = text.split("basis:\n")[1].splitlines()
    assert len(rows) == 3
    span = tmp_path / "hyperplane.span"
    span.write_text("".join(f"vec {row.strip()}\n" for row in rows))
    code, text = run(["maximal", "classify", "data/kronecker.quiver",
                      str(span), "--field", "F2"])
    assert code == 0
    assert text.split("result:\n")[1] == (
        "type: split\nradical_contained: false\nradical_match: true\n"
        "subalgebra_block_dims:\n  1\n  1\nblock_dims:\n  1\n  1\n")


@pytest.mark.parametrize("block", ["0", "99"])
def test_instantiate_block_out_of_range_is_an_error(block):
    code, text = run(["maximal", "instantiate", "data/kxkxm2_f2.alg",
                      "--family", f"kind=subfield_centralizer block={block} "
                      "degree=2"])
    assert code == 1
    assert text == f"error: block {block} out of range: blocks are 1..3\n"


@pytest.mark.parametrize("params", ["abc", "1/0", "1,x"])
def test_instantiate_bad_params_is_a_parse_error(params):
    code, text = run(["maximal", "instantiate", "data/kronecker.quiver",
                      "--family", "kind=radical_hyperplane i=1 j=2 m=2 "
                      "hyperplane=parametrized codim=1", "--params", params])
    assert code == 2
    assert text.startswith("parse error: bad --params: bad scalar literal")


@pytest.mark.parametrize("coords", ["abc", "1/0", "1,x;1,1"])
def test_quiver_hyperplane_bad_coordinates_is_a_parse_error(coords):
    code, text = run(["quiver", "maximal", "data/kronecker.quiver", "split",
                      "a", "b", "--hyperplane", coords])
    assert code == 2
    assert text.startswith("parse error: bad --hyperplane: bad scalar literal")


def test_usage_error_returns_exit_2_with_the_usage_text():
    # argparse reads "-1,0" as an option, so --params has no value
    code, text = run(["maximal", "instantiate", "data/kronecker.quiver",
                      "--family", "kind=radical_hyperplane i=1 j=2 m=2 "
                      "hyperplane=parametrized codim=1", "--params", "-1,0"])
    assert code == 2
    assert text.startswith("usage: maxsub maximal")
    assert text.endswith("maxsub maximal: error: argument --params: "
                         "expected one argument\n")
    code, text = run(["structure"])
    assert code == 2
    assert "error: the following arguments are required: algebra" in text


def test_bad_field_option_is_a_parse_error():
    code, text = run(["--field", "F4", "structure", "data/a3.quiver"])
    assert code == 2
    assert text.startswith("parse error:")


A3_RELATION = ("vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 2 3\n"
               "relation {}*b.a\n")


@pytest.mark.parametrize("coef", ["2", "1/2", "-1", "5/4"])
def test_fraction_relation_coefficients_are_divided_mod_p(tmp_path, coef):
    """Each coefficient is 2 in F_3, so b·a = 0 and the algebra is 5-dim."""
    path = tmp_path / "rel.quiver"
    path.write_text(A3_RELATION.format(coef))
    code, text = run(["--field", "F3", "--json", "quiver", "build", str(path)])
    assert code == 0
    assert json.loads(text)["result"]["dim"] == 5


@pytest.mark.parametrize("command", [["quiver", "build"], ["structure"]])
@pytest.mark.parametrize("field, coef", [("F3", "1/3"), ("F3", "2/6"),
                                         ("F5", "1/0"), ("Q", "1/0")])
def test_relation_coefficient_without_a_value_is_a_parse_error(
        tmp_path, command, field, coef):
    path = tmp_path / "rel.quiver"
    path.write_text(A3_RELATION.format(coef))
    code, text = run(["--field", field] + command + [str(path)])
    assert (code, text) == (
        2, f"parse error: line 6: bad coefficient '{coef}' over {field}\n")


DUPLICATE_MUL = ("field Q\ndim 1\nbasis e\nunit 1\n"
                 "mul 1 1 -> 1:1\nmul 1 1 -> 1:1\n")


def test_repeated_mul_pair_is_a_parse_error():
    with pytest.raises(ParseError, match=r"line 6: mul 1 1 given twice"):
        parse_algebra(DUPLICATE_MUL)


def test_cli_rejects_repeated_mul_pair(tmp_path):
    bad = tmp_path / "dup.alg"
    bad.write_text(DUPLICATE_MUL)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "maxsub.cli", "structure",
                           str(bad)], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert "given twice" in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def _json_result(argv):
    code, text = run(["--json"] + argv)
    assert code == 0, text
    return json.loads(text)["result"]


def test_mod_decompose_keeps_the_zigzag_module_whole():
    res = _json_result(["mod", "decompose", "data/zigzag_defining.mod"])
    assert res["summand_dims"] == [5]
    assert res["summand_dimension_vectors"] == ["1,1,1,1,1"]


def test_poset_maximal_certifies_the_diamond_split():
    res = _json_result(["poset", "maximal", "data/diamond.poset",
                        "s", "1", "2"])
    assert (res["subalgebra_dim"], res["certified"]) == (8, "maximal")


def _restricted_zigzag_module(path):
    """The D4-module recorded in restrict_zigzag_d4.txt, written to path."""
    lines = load_text(
        os.path.join(REPORTS, "restrict_zigzag_d4.txt")).splitlines()
    action = [line[2:] for line in lines[lines.index("action:") + 1:]]
    path.write_text("module over d4 dim 5\n" + "\n".join(action) + "\n")
    return str(path)


def _induce_argv(module):
    return ["mod", "induce", module, "data/d4_in_zigzag.span",
            "--algebra", "data/zigzag_a5.alg"]


def test_mod_induce_of_the_restricted_zigzag_module(tmp_path):
    """The restriction to D4 recorded in restrict_zigzag_d4.txt, induced
    back to the zigzag algebra, is a single 5-dim summand."""
    module = _restricted_zigzag_module(tmp_path / "d4.mod")
    res = _json_result(_induce_argv(module))
    assert (res["dim"], res["summand_dims"]) == (5, [5])


@pytest.mark.parametrize("name", sorted(recorded_invocations()) + ["induce"])
def test_the_command_line_echo_parses_to_the_invocation(tmp_path, name):
    """The `command:` line is the argv as given, shell-quoted: parsing it
    gives the namespace of the original argv, options included (the
    induce case has a space in a path)."""
    if name == "induce":
        argv = _induce_argv(_restricted_zigzag_module(tmp_path / "d4 mod.mod"))
    else:
        argv = recorded_invocations()[name]
    code, text = run(argv)
    assert code == 0, text
    first = text.splitlines()[0]
    assert first.startswith("command: ")
    parser = maxsub.cli.build_parser()
    echoed = parser.parse_args(shlex.split(first[len("command: "):]))
    assert echoed == parser.parse_args(argv)


def test_poset_build_of_the_diamond():
    res = _json_result(["poset", "build", "data/diamond.poset"])
    assert (res["dim"], res["valid"]) == (9, True)


# the stdout of three paper demos under scripts/: the max-dimension bound
# against the descending F_2/F_3 scan, the F_2 families against the
# brute-force oracle (its sec column masked), and restriction to D4 and
# induction back
DEMO_OUTPUTS = {
    "dimension_bound_demo.py": """\
algebra            dim blocks     bound  F2 scan  F3 scan
A2 path              3 (1,1     )     2      2=2      2=2
A3 path              6 (1,1,1   )     5      5=5      5=5
Kronecker path       4 (1,1     )     3      3=3      3=3
D4 path              7 (1,1,1,1 )     6      6=6      6=6
chain3 incidence     6 (1,1,1   )     5      5=5      5=5
diamond incidence    9 (1,1,1,1 )     8      8=8      8=8
K x K x M2           6 (1,1,2   )     5      5=5      5=5
uppertri3            6 (1,1,1   )     5      5=5      5=5
M2                   4 (2       )     3      3=3      3=3
M3                   9 (3       )     7      7=7      7=7
""",
    "oracle_survey.py": """\
algebra            dim families classes types                        match
A2 path              3        2       2 1 semisimple, 1 split          yes
A3 path              6        5       5 3 semisimple, 2 split          yes
Kronecker            4        4       4 1 semisimple, 3 split          yes
chain3 incidence     6        5       5 3 semisimple, 2 split          yes
uppertri3            6        5       5 3 semisimple, 2 split          yes
K x K                2        1       1 1 semisimple                   yes
K x K x M2           6        3       3 3 semisimple                   yes
M2                   4        2       2 2 semisimple                   yes
""",
    "restriction_experiment.py": """\
defining module over the zigzag incidence algebra: ((1, 1, 1, 1, 1), True)
restriction to the embedded D_4: [5] summand(s)
induction back up: dim 5 -> [5] summands
defining module recovered as a summand: True
""",
}


@pytest.mark.parametrize("script", sorted(DEMO_OUTPUTS))
def test_paper_demos_print_their_pinned_text(script, capsys):
    spec = importlib.util.spec_from_file_location(
        script[:-3], os.path.join(ROOT, "scripts", script))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.main()
    out = capsys.readouterr().out
    if script == "oracle_survey.py":
        out = re.sub(r" +(sec|[0-9.]+)$", "", out, flags=re.M)
    assert out == DEMO_OUTPUTS[script]
