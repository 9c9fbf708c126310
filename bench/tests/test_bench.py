"""Tests of the benchmark itself (not of the library).

    python -m pytest bench/tests -q

The traced runs replay the cheapest workload twice in subprocesses, so
this module takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["fp-oracle", "structure"])
def test_inputs_repeat_per_seed_and_differ_across_seeds_and_passes(name):
    w = workloads.WORKLOADS[name]
    first = [inp.sha256 for inp in w.build(1, 0)]
    assert first == [inp.sha256 for inp in w.build(1, 0)]
    for other in (w.build(2, 0), w.build(1, 1)):
        changed = [a != b.sha256 for a, b in zip(first, other)]
        standard = [inp.name.endswith("standard") for inp in other]
        # a 2- or 3-dimensional F_2 algebra has few bases, so it may repeat
        small = [inp.p == 2 and inp.base.dim <= 3 for inp in other]
        assert all(c != s for c, s, tiny in zip(changed, standard, small)
                   if not tiny)


@pytest.mark.parametrize("p,basis", [(None, "pairs"), (None, "dense"),
                                     (3, "dense")])
def test_change_of_basis_is_invertible(p, basis):
    import random
    inp = gen.make_input(gen.KXKXM2, p, random.Random(3), basis)
    n = gen.KXKXM2.dim
    product = [gen.vec_times(list(row), [list(r) for r in inp.inverse], p)
               for row in inp.basis]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]
    if basis == "pairs":   # unimodular: integral structure constants
        assert "/" not in inp.text


def test_wrong_expected_answer_counts_as_failure_not_crash():
    lib = run.import_library()
    base = dataclasses.replace(gen.matrix(2), rad_dim=1)   # M_2 has J = 0
    import random
    inp = gen.make_input(base, None, random.Random(0))
    ctx: dict = {}
    tasks = [workloads.parse_task(lib, inp, ctx)]
    tasks += workloads._structure_tasks(lib, inp, ctx, ("radical", "report"))
    done = run.run_pass(tasks, speed.Clock())
    kinds = {name: o for name, _inp, o, _s, _d in done.outcomes}
    assert kinds == {"parse_algebra": "ok", "jacobson_radical": "wrong",
                     "structure_report": "ok"}
    attempted, failed, wrong, lines = run.failure_lines([done])
    assert (attempted, failed, wrong) == (3, 1, 1)
    assert "jacobson_radical [M2/Q]" in lines[0]


def test_clock_divides_out_the_reference_speed():
    clock = speed.Clock()
    clock.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    clock.took = [0.002, 0.002, 0.002, 0.004, 0.004, 0.004]
    # no sample lies within WINDOW: the SIDE nearest on either side count
    assert clock.seconds(4.2, 4.7) == pytest.approx(0.5 * speed.REFERENCE_S / 0.004)
    assert clock.seconds(1.2, 1.8) == pytest.approx(0.6 * speed.REFERENCE_S / 0.002)
    assert clock.seconds(2.4, 2.6) == pytest.approx(0.2 * speed.REFERENCE_S / 0.003)
    clock.tick(force=True)
    assert len(clock.took) == 7 and clock.took[-1] > 0


def test_declared_metric_names_match_the_code():
    spec = declared()
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def traced_runs():
    return [result(bench("--workload", "cli-replay", "--seed", "1",
                         "--seconds", "1", "--trace", "1")) for _ in range(2)]


def test_printed_metrics_equal_declared_names(traced_runs):
    spec = declared()
    plain = result(bench("--workload", "cli-replay", "--seed", "2",
                         "--seconds", "1", "--trace", "0"))
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced_runs[0]["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 100


def test_traced_counts_repeat_exactly(traced_runs):
    a, b = (r["metrics"] for r in traced_runs)
    counts = [n for n, m in a.items() if m["unit"] in ("count", "cells")]
    assert counts and all(a[n]["value"] == b[n]["value"] for n in counts)
    assert a["cli.run.calls"]["value"] == 16
    assert a["formats.parse_algebra.calls"]["value"] > 0


def test_self_time_within_busy_time(traced_runs):
    for metrics in (r["metrics"] for r in traced_runs):
        for layer in tracing.LAYERS:
            busy = metrics[f"{layer}.busy_s"]["value"]
            assert 0 <= metrics[f"{layer}.self_s"]["value"] <= busy + 1e-9, layer


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "structure", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_quantile_is_harrell_davis():
    # symmetric weights: the median of a symmetric sample is its centre
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    values = [float(i) for i in range(1, 201)]
    # close to the order statistic where samples are dense ...
    assert run.quantile(values, 0.9) == pytest.approx(180.9, abs=0.5)
    # ... and between the two kinds of task where they are sparse
    bimodal = [1.0] * 85 + [100.0] * 15
    assert 1.0 < run.quantile(bimodal, 0.9) < 100.0
