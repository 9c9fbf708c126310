#!/usr/bin/env python3
"""The maxsub benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload fp-oracle --seed 1 --seconds 32 --trace 0

Run from anywhere inside a source checkout; the library is imported from
its `src/` directory.  Load model: a closed loop with one client.  Tasks
run one after another in this process; a pass runs the workload's fixed
task list once, parsing its inputs afresh, and passes repeat until the
next one would overrun `--seconds` (at least three passes).  wall_s is the
median pass, a pass's time being the sum of its task latencies; task
latencies are pooled over every pass.  Every untraced pass starts with a
set-up (a cold import of `maxsub`, building the inputs from the seed and
parsing them once), so that set-up is sampled across the whole run;
setup_s is the median.  Every time reported is speed-normalised (see
speed.py); the plain seconds are printed next to them.

With `--trace 0` the last line of stdout is the JSON result with the
end-to-end metrics; with `--trace 1` the first half of the time runs
untraced passes and the second half traced ones, and the JSON holds the
per-layer metrics.  Lines before it list the input hashes and every
failed task by input name.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import speed
import tracing
import workloads
from workloads import Declined, Skipped, Wrong

ROOT = workloads.ROOT

MIN_PASSES = 3      # so that wall_s and setup_s are medians of several
MIN_SAMPLES = 100   # so that ten task samples lie beyond task_p90_ms
MODULES = ("linalg", "algebra", "modules", "structure", "maximal",
           "extensions", "presentations", "formats", "cli")
END_TO_END = (("wall_s", "s"), ("task_p50_ms", "ms"), ("task_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_library():
    """Import every maxsub module from this checkout's src/, cold."""
    for name in [m for m in sys.modules if m == "maxsub" or m.startswith("maxsub.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module("maxsub")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"maxsub imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"maxsub.{m}")
                              for m in MODULES})


def set_up(workload, seed: int, variant: int, clock: speed.Clock):
    """Import the library cold, build input variant `variant` and parse
    each input once.  Returns the stretches of work it timed (reference
    samples fall between them), the library and the inputs."""
    clock.tick(force=True)
    start = time.perf_counter()
    lib = import_library()
    inputs = workload.build(seed, variant)
    stretches = [(start, time.perf_counter())]
    for task in workload.tasks(lib, inputs, seed):
        if task.name == "parse_algebra":
            clock.tick()
            start = time.perf_counter()
            task.run()
            stretches.append((start, time.perf_counter()))
    clock.tick(force=True)
    return stretches, lib, inputs


@dataclass
class Pass:
    """One pass over a task list.  `outcomes` hold (task name, input,
    outcome, seconds or None if skipped, detail); the seconds are plain
    (start, end) stretches until `normalise` turns them into normalised
    seconds and sets `wall`, their sum, and `plain`, the same in plain
    seconds."""

    outcomes: list
    cpu: float
    snap: dict
    wall: float = 0.0
    plain: float = 0.0


def run_pass(tasks, clock: speed.Clock, tracer=None) -> Pass:
    outcomes = []
    cpu0 = time.process_time()
    for k, task in enumerate(tasks):
        missing = [key for key in task.needs if key not in task.ctx]
        if missing:
            outcomes.append((task.name, task.input, "skipped", None,
                             f"needs {missing[0]}"))
            continue
        clock.tick()
        if tracer is not None:
            tracer.task = k
        t0 = time.perf_counter()
        try:
            task.run()
            outcome, detail = "ok", ""
        except Skipped as exc:
            outcomes.append((task.name, task.input, "skipped", None, str(exc)))
            continue
        except Wrong as exc:
            outcome, detail = "wrong", str(exc)
        except Declined as exc:
            outcome, detail = "failed", str(exc)
        except Exception as exc:  # the library raised: count it and go on
            outcome, detail = "failed", f"{type(exc).__name__}: {exc}"
        outcomes.append((task.name, task.input, outcome,
                         (t0, time.perf_counter()), detail))
    cpu = time.process_time() - cpu0
    clock.tick(force=True)
    snap = tracer.snapshot() if tracer is not None else {}
    return Pass(outcomes, cpu, snap)


def normalise(passes: list[Pass], clock: speed.Clock):
    """Turn the timed stretches of every pass into normalised seconds."""
    for p in passes:
        outcomes = []
        for name, inp, outcome, stretch, detail in p.outcomes:
            if stretch is not None:
                p.plain += stretch[1] - stretch[0]
                stretch = clock.seconds(*stretch)
                p.wall += stretch
            outcomes.append((name, inp, outcome, stretch, detail))
        p.outcomes = outcomes


def run_passes(workload, seed: int, seconds: float, clock: speed.Clock,
               state=None, tracer=None, setups=None) -> tuple[list, list]:
    """Whole passes until the next would overrun `seconds`.

    Untraced runs hold at least MIN_PASSES passes and MIN_SAMPLES timed
    tasks; a traced run holds at least one pass.  With `setups`, pass i
    starts from its own set-up of input variant i, whose timed stretches
    are appended to `setups`; otherwise every pass reuses `state`, a
    (lib, inputs) pair.  Returns the passes and the inputs of each pass."""
    passes, built = [], []
    start = time.perf_counter()
    samples = 0
    while True:
        round0 = time.perf_counter()
        if setups is not None:
            stretches, *state = set_up(workload, seed, len(passes), clock)
            setups.append(stretches)
        lib, inputs = state
        built.append(inputs)
        tasks = workload.tasks(lib, inputs, seed)
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(tasks, clock, tracer))
        samples += sum(1 for o in passes[-1].outcomes if o[3] is not None)
        now = time.perf_counter()
        enough = (tracer is not None
                  or (len(passes) >= MIN_PASSES and samples >= MIN_SAMPLES))
        if enough and now - start + (now - round0) > seconds:
            return passes, built


def failure_lines(passes: list[Pass]) -> tuple[int, int, int, list[str]]:
    attempted = failed = wrong = 0
    seen: dict = {}
    for p in passes:
        for name, inp, outcome, _t, detail in p.outcomes:
            attempted += 1
            if outcome != "ok":
                failed += 1
                wrong += outcome == "wrong"
                key = (outcome, name, inp, detail)
                seen[key] = seen.get(key, 0) + 1
    lines = [f"{outcome} {name} [{inp}] x{n}: {detail}"
             for (outcome, name, inp, detail), n in sorted(seen.items())]
    return attempted, failed, wrong, lines


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) density at their
    ranks.  A single order statistic jumps when the samples near the
    quantile are sparse, as they are between the kinds of task of a pass;
    this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    weights = [math.exp(w - top) for w in logw]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes: list[Pass], setup_s: list[float]) -> dict:
    latencies = [o[3] for p in passes for o in p.outcomes if o[3] is not None]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "task_p50_ms": 1000 * quantile(latencies, 0.5),
        "task_p90_ms": 1000 * quantile(latencies, 0.9),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes.  Their plain seconds, and
    the CPU seconds of a pass, are scaled by the pass's normalised over
    plain time, so that they are in the same unit as `wall_s`."""
    notes = []
    values = {}
    for name in tracing.metric_names():
        if name == "proc.cpu_s":
            values[name] = statistics.median(p.cpu * p.wall / p.plain
                                             for p in untraced)
        elif name == "trace.overhead_frac":
            values[name] = (statistics.median(p.wall for p in traced)
                            / statistics.median(p.wall for p in untraced) - 1)
        elif tracing.unit_of(name) == "s":
            values[name] = statistics.median(p.snap[name] * p.wall / p.plain
                                             for p in traced)
        else:
            first = traced[0].snap[name]
            values[name] = first
            if any(p.snap[name] != first for p in traced):
                notes.append(f"note: {name} differs between traced passes")
    return ({name: {"value": v, "unit": tracing.unit_of(name)}
             for name, v in values.items()}, notes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(ROOT, "src", "maxsub", "__init__.py")):
        print(f"no maxsub sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    clock = speed.Clock()
    if args.trace:
        _stretches, *state = set_up(workload, args.seed, 0, clock)
        built = [state[1]]
        untraced, _ = run_passes(workload, args.seed, args.seconds / 2, clock,
                                 state)
        tracer = tracing.Tracer()
        tracer.install()
        traced, _ = run_passes(workload, args.seed, args.seconds / 2, clock,
                               state, tracer)
        normalise(untraced + traced, clock)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".bench_out",
                             f"spans-{workload.name}-{args.seed}.jsonl")
        tracer.write_spans(spans)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans)}")
        metrics, notes = per_layer(untraced, traced)
        passes = untraced + traced
    else:
        setups: list[list] = []
        passes, built = run_passes(workload, args.seed, args.seconds, clock,
                                   setups=setups)
        normalise(passes, clock)
        setup_s = [sum(clock.seconds(*s) for s in stretches)
                   for stretches in setups]
        metrics = end_to_end(passes, setup_s)
        notes = ["set-ups " + " ".join(f"{t:.3f}" for t in setup_s),
                 "plain set-ups " + " ".join(
                     f"{sum(b - a for a, b in stretches):.3f}"
                     for stretches in setups)]

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    for variant, inputs in enumerate(built):
        for inp in inputs:
            print(f"input {variant} {inp.name} sha256={inp.sha256}")
    for line in notes:
        print(line)
    attempted, failed, wrong, lines = failure_lines(passes)
    for line in lines:
        print(line)
    print("pass walls " + " ".join(f"{p.wall:.3f}" for p in passes))
    print("plain pass walls " + " ".join(f"{p.plain:.3f}" for p in passes))
    print(f"reference loop {len(clock.took)} samples, median "
          f"{1000 * statistics.median(clock.took):.4f} ms, range "
          f"{1000 * min(clock.took):.4f} to {1000 * max(clock.took):.4f} ms")
    print(f"passes {len(passes)} tasks {attempted} failed_frac "
          f"{failed / attempted:.6f} ({failed}/{attempted}) wrong {wrong}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
