"""CLI: bundled files parse and validate, reports reproduce byte-for-byte."""

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import recorded_invocations
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


def test_seed_echoed_and_deterministic():
    code1, text1 = run(["--seed", "7", "structure", "data/m2_q.alg"])
    code2, text2 = run(["--seed", "7", "structure", "data/m2_q.alg"])
    assert code1 == code2 == 0
    assert text1 == text2
    assert "seed: 7" in text1


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
