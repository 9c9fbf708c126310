"""The three benchmark workloads: their inputs, tasks and answer checks.

A workload builds its inputs from the seed and a variant number (`build`)
and yields a fresh task list for every timed pass (`tasks`).  Each pass of
a run builds the next variant, so a run averages over several random bases
of every input instead of resting on one draw; the recorded `cli-replay`
inputs are the same in every variant.  A task is one call into the
library's public API or CLI whose result is compared with the value fixed
by the input's construction.  Tasks of one input share a per-pass dict, so
nothing the library builds outlives the pass.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Wrong(Exception):
    """The library returned an answer that contradicts the construction."""


class Declined(Exception):
    """The library reported that it could not answer (not an exception)."""


class Skipped(Exception):
    """A task whose prerequisite failed earlier in the pass."""


@dataclass
class Task:
    """One timed call; `needs` names per-pass results it depends on."""

    name: str
    input: str
    run: Callable[[], None]
    needs: tuple[str, ...] = ()
    ctx: dict = field(default_factory=dict)


def expect(cond: bool, msg: str):
    if not cond:
        raise Wrong(msg)


# ---------------------------------------------------------------------------
# task builders shared by the exact-arithmetic workloads

def parse_task(lib, inp: gen.Input, ctx: dict) -> Task:
    def run():
        a = lib.formats.parse_algebra(inp.text)
        expect(a.dim == inp.base.dim, f"dim {a.dim} != {inp.base.dim}")
        ctx["alg"] = a
    return Task("parse_algebra", inp.name, run, (), ctx)


def family_tasks(lib, inp: gen.Input, ctx: dict, with_wm_task: bool) -> list[Task]:
    """Enumerate, instantiate and certify every family of inp, reusing the
    Wedderburn-Malcev data of an earlier task when there is one."""
    base, p = inp.base, inp.p
    want = gen.family_counts(base, p)
    tasks = []

    def families():
        a = ctx["alg"]
        fams = lib.maximal.enumerate_maximal_families(a, wm=ctx.get("wm"))
        got = {}
        for fam in fams:
            got[fam.kind] = got.get(fam.kind, 0) + 1
        expect(got == want, f"families {got}, expected {want}")
        ctx["fams"] = fams
    tasks.append(Task("enumerate_maximal_families", inp.name, families,
                      ("alg", "wm") if with_wm_task else ("alg",), ctx))
    for i in range(sum(want.values())):
        tasks.append(Task("instantiate_family", inp.name,
                          _instantiate(lib, ctx, i, base), ("fams",), ctx))
        tasks.append(Task("certify_maximal", inp.name,
                          _certify(lib, ctx, i), (f"sub{i}",), ctx))
    return tasks


def _instantiate(lib, ctx: dict, i: int, base: gen.Base):
    def run():
        a, fam = ctx["alg"], ctx["fams"][i]
        params = None
        if fam.kind == "radical_hyperplane" and fam.functional is None:
            params = [1] + [0] * (fam.multiplicity - 1)
        sub = lib.maximal.instantiate_family(a, fam, params=params,
                                             wm=ctx.get("wm"))
        expect(sub.dim < base.dim, "instance is not proper")
        ctx[f"sub{i}"] = sub
    return run


def _certify(lib, ctx: dict, i: int):
    def run():
        cert = lib.maximal.certify_maximal(ctx[f"sub{i}"], ctx["alg"])
        if cert.status == "inconclusive":
            raise Declined(f"certificate inconclusive ({cert.method})")
        expect(cert.status == "maximal", f"certificate {cert.status}")
    return run


# ---------------------------------------------------------------------------
# fp-oracle: finite-field enumeration

ORACLE_F2 = [gen.A2, gen.A3, gen.KRONECKER, gen.CHAIN3, gen.KXK, gen.KXKXM2,
             gen.matrix(2), gen.D4]
ORACLE_F3 = [gen.KRONECKER, gen.matrix(2), gen.A3, gen.KXKXM2]
# criterion-2 algebras within the max-dim caps; M3/F3 is left out because
# it alone takes about 13 s
MAXDIM_SUITE = [(gen.A3, 3), (gen.D4, 2), (gen.D4, 3), (gen.DIAMOND, 2),
                (gen.triangular(3), 3), (gen.KXKXM2, 3), (gen.matrix(2), 3),
                (gen.matrix(3), 2)]


class FpOracle:
    name = "fp-oracle"
    why = ("F_2/F_3 oracle, unit groups, orbits and certificates: many tiny "
           "mod-p reductions in linalg and closure checks in algebra")

    def build(self, seed: int, variant: int) -> list[gen.Input]:
        rng = random.Random(f"{self.name}:{seed}:{variant}")
        inputs = [gen.make_input(b, 2, rng) for b in ORACLE_F2]
        inputs += [gen.make_input(b, 3, rng) for b in ORACLE_F3]
        inputs += [gen.make_input(b, p, rng, name=f"{b.name}/F{p} maxdim")
                   for b, p in MAXDIM_SUITE]
        return inputs

    def tasks(self, lib, inputs: list[gen.Input], seed: int) -> list[Task]:
        n_oracle = len(ORACLE_F2) + len(ORACLE_F3)
        tasks = []
        for inp in inputs[:n_oracle]:
            ctx: dict = {}
            tasks.append(parse_task(lib, inp, ctx))
            tasks += self._oracle_tasks(lib, inp, ctx)
        for inp in inputs[n_oracle:]:
            ctx = {}
            tasks.append(parse_task(lib, inp, ctx))
            tasks.append(Task("observed_max_dim", inp.name,
                              _observed(lib, ctx, inp), ("alg",), ctx))
        return tasks

    def _oracle_tasks(self, lib, inp: gen.Input, ctx: dict) -> list[Task]:
        base, p = inp.base, inp.p
        want = gen.family_count(base, p)

        def brute():
            res = lib.maximal.brute_force_maximal(ctx["alg"])
            expect(len(res.class_reps) == want,
                   f"{len(res.class_reps)} oracle classes, expected {want}")
            expect(res.max_dim == gen.max_subalgebra_dim(base),
                   f"oracle max dim {res.max_dim}")
            ctx["reps"] = set(res.class_reps)
            ctx["keys"] = set()

        def units():
            got = lib.maximal.unit_group(ctx["alg"])
            expect(len(got) == gen.unit_count(base, p),
                   f"{len(got)} units, expected {gen.unit_count(base, p)}")
            ctx["units"] = got

        tasks = [Task("brute_force_maximal", inp.name, brute, ("alg",), ctx),
                 Task("unit_group", inp.name, units, ("alg",), ctx)]
        tasks += _structure_tasks(lib, inp, ctx, ("wedderburn", "families"))
        for i in range(want):
            tasks.append(Task("conjugacy_orbit_rep", inp.name,
                              _orbit(lib, ctx, i), (f"sub{i}", "units", "reps"),
                              ctx))
            tasks.append(Task("spin_up_recheck", inp.name,
                              _spin_up(lib, ctx, i), (f"sub{i}",), ctx))
        return tasks


def _observed(lib, ctx: dict, inp: gen.Input):
    def run():
        got = lib.maximal.observed_max_dim(ctx["alg"])
        want = gen.max_subalgebra_dim(inp.base)
        expect(got == want, f"observed max dim {got}, expected {want}")
    return run


def _orbit(lib, ctx: dict, i: int):
    def run():
        key = lib.maximal.conjugacy_orbit_rep(ctx["alg"], ctx[f"sub{i}"].space,
                                              ctx["units"])
        expect(key in ctx["reps"], "family class missing from the oracle")
        expect(key not in ctx["keys"], "two families in one class")
        ctx["keys"].add(key)
    return run


def _spin_up(lib, ctx: dict, i: int):
    def run():
        expect(lib.maximal.spin_up_recheck(ctx[f"sub{i}"], ctx["alg"]),
               "spin-up recheck says not maximal")
    return run


# ---------------------------------------------------------------------------
# structure: exact structure over Q and plain F_p

FULL = ("radical", "report", "wedderburn", "maxdim", "families", "classify")
STRUCTURE_INPUTS = [
    # base, field (None: Q), basis kind (see gen.random_basis), tasks.
    # The small semisimple algebras get dense bases: their blocks are where
    # matrix units must be found, and a dense basis is where that search
    # fails.  The larger ones get sparse unimodular "pairs" bases, and the
    # costliest inputs run only a few tasks, so one pass stays near 10 s.
    (gen.matrix(2), None, "dense", FULL),
    (gen.matrix(3), None, "pairs", FULL),
    (gen.KXKXM2, None, "dense", FULL),
    (gen.M2XM2, None, "dense", ("report", "wedderburn", "families")),
    (gen.M2XM3, None, "pairs", ("report",)),
    (gen.triangular(4), None, "pairs", ("radical", "maxdim")),
    (gen.A4, None, "pairs", ("wedderburn", "families", "classify",
                             "complement")),
    (gen.D4, None, "pairs", ("radical", "wedderburn", "families", "classify",
                             "complement", "separability")),
    (gen.D5, None, "pairs", ("radical",)),
    (gen.KRONECKER, None, "dense", FULL + ("complement", "separability")),
    (gen.DIAMOND, None, "pairs", ("wedderburn", "families", "classify")),
    (gen.ZIGZAG, None, "pairs", ("wedderburn", "families", "complement")),
    (gen.matrix(4), None, "standard", ("report", "wedderburn", "families")),
    (gen.matrix(5), None, "standard", ()),   # parse_algebra validates it
    # plain F_p: the radical comes from the trace form and the sweep
    (gen.triangular(3), 3, "dense", ("wedderburn", "families")),
    (gen.triangular(4), 2, "dense", ("radical",)),
    (gen.KXK, 100003, "dense", ("report",)),
]


class Structure:
    name = "structure"
    why = ("radical, blocks, Wedderburn-Malcev data, certificates and "
           "extensions over Q and plain F_p: few large Fraction eliminations")

    def build(self, seed: int, variant: int) -> list[gen.Input]:
        rng = random.Random(f"{self.name}:{seed}:{variant}")
        return [gen.make_input(b, p, rng, kind,
                               f"{b.name}/Q standard" if kind == "standard"
                               else None)
                for b, p, kind, _ in STRUCTURE_INPUTS]

    def tasks(self, lib, inputs: list[gen.Input], seed: int) -> list[Task]:
        tasks = []
        ctxs = {}
        for inp, (*_, groups) in zip(inputs, STRUCTURE_INPUTS):
            ctx: dict = {}
            ctxs[inp.name] = ctx
            tasks.append(parse_task(lib, inp, ctx))
            tasks += _structure_tasks(lib, inp, ctx, groups)
        zig = next(i for i in inputs if i.base is gen.ZIGZAG)
        d4 = next(i for i in inputs if i.base is gen.D4)
        tasks += _restriction_tasks(lib, zig, ctxs[zig.name], d4, ctxs[d4.name])
        return tasks


def _structure_tasks(lib, inp: gen.Input, ctx: dict, groups) -> list[Task]:
    base = inp.base

    def radical():
        j = lib.structure.jacobson_radical(ctx["alg"])
        expect(j.dim == base.rad_dim, f"radical dim {j.dim}")

    def report():
        rep = lib.structure.structure_report(ctx["alg"])
        if not rep.schur:
            raise Declined(f"schur=False: {rep.failure}")
        expect(rep.block_dims == base.blocks, f"blocks {rep.block_dims}")

    def wedderburn():
        wm = lib.structure.wedderburn_data(ctx["alg"])
        expect(wm.radical.dim == base.rad_dim, f"radical dim {wm.radical.dim}")
        expect(wm.report.block_dims == base.blocks,
               f"blocks {wm.report.block_dims}")
        expect(wm.complement.dim == sum(n * n for n in base.blocks),
               f"complement dim {wm.complement.dim}")
        ctx["wm"] = wm

    def maxdim():
        got = lib.maximal.max_proper_subalgebra_dim(ctx["alg"])
        expect(got == gen.max_subalgebra_dim(base), f"maxdim {got}")

    singles = {"radical": ("jacobson_radical", radical),
               "report": ("structure_report", report),
               "wedderburn": ("wedderburn_data", wedderburn),
               "maxdim": ("max_proper_subalgebra_dim", maxdim)}
    tasks = [Task(name, inp.name, run, ("alg",), ctx)
             for group, (name, run) in singles.items() if group in groups]
    if "families" in groups:
        tasks += family_tasks(lib, inp, ctx, "wedderburn" in groups)
    if "classify" in groups:
        for kind in gen.family_counts(base, inp.p):
            tasks.append(Task("classify_type", inp.name,
                              _classify(lib, ctx, kind), ("fams",), ctx))
    ext = lib.extensions
    if "separability" in groups:
        def separability():
            sub = _first_instance(ctx, "diagonal_merge")
            ts = ext.tensor_square(sub, ctx["alg"])
            expect(ext.separability_idempotent(sub, ctx["alg"], ts) is not None,
                   "no separability idempotent")
        tasks.append(Task("separability_idempotent", inp.name, separability,
                          ("fams",), ctx))
    if "complement" in groups:
        def complement():
            sub = _first_instance(ctx, "radical_hyperplane")
            red = ext.split_type_reduction(sub, ctx["alg"])
            comp = ext.split_complement(red.reduced, red.quotient)
            expect(comp is not None, "no split complement")
            expect(comp.dim == base.rad_dim - red.ideal.dim,
                   f"complement dim {comp.dim}")
        tasks.append(Task("split_complement", inp.name, complement,
                          ("fams",), ctx))
    return tasks


def _classify(lib, ctx: dict, kind: str):
    """Classify the first instance of one family kind (criterion 5)."""
    def run():
        verdict = lib.maximal.classify_type(_first_instance(ctx, kind),
                                            ctx["alg"])
        want = "split" if kind == "radical_hyperplane" else "semisimple"
        expect(verdict.kind == want, f"{kind} classified {verdict.kind}")
        if want == "split":
            expect(bool(verdict.split_radical_match), "J(A) != A meet J(B)")
    return run


def _first_instance(ctx: dict, kind: str):
    for i, fam in enumerate(ctx["fams"]):
        if fam.kind == kind:
            if f"sub{i}" not in ctx:
                raise Skipped(f"{kind} instance failed")
            return ctx[f"sub{i}"]
    raise Wrong(f"no {kind} instance")


# the zigzag poset's defining module restricted along D4 -> zigzag
# (criterion 7): vertex and arrow images as sums of interval basis elements
D4_IMAGES = {("1", "1"): [("1", "1")], ("c", "c"): [("2", "2"), ("4", "4")],
             ("3", "3"): [("3", "3")], ("5", "5"): [("5", "5")],
             ("1", "c"): [("2", "1")], ("3", "c"): [("2", "3"), ("4", "3")],
             ("5", "c"): [("4", "5")]}


def _restriction_tasks(lib, zin: gen.Input, zctx: dict, din: gen.Input,
                       dctx: dict) -> list[Task]:
    ctx: dict = {}
    pairs = [(nm[1], nm[2]) for nm in gen.ZIGZAG.names]
    elements = "12345"

    def restrict():
        zig, d4 = zctx["alg"], dctx["alg"]
        mats = []
        for row in zin.basis:
            m = [[0] * 5 for _ in range(5)]
            for c, (a, b) in zip(row, pairs):
                m[elements.index(a)][elements.index(b)] += c
            mats.append(m)
        module = lib.modules.make_module(zig, mats, check=True)
        old_images = []
        for nm in gen.D4.names:
            src, dst = nm.split("_")[1]
            v = [0] * gen.ZIGZAG.dim
            for pr in D4_IMAGES[src, dst]:
                v[pairs.index(pr)] = 1
            old_images.append(v)
        images = [zin.to_new(gen.vec_times(list(row), old_images, None))
                  for row in din.basis]
        restricted = lib.extensions.restrict_along(module, d4, images)
        expect(restricted.dim == 5, f"restricted dim {restricted.dim}")
        ctx["restricted"] = restricted

    def decompose():
        parts = lib.extensions.decompose_module(ctx["restricted"])
        expect([m.dim for m in parts] == [5],
               f"summand dims {[m.dim for m in parts]}")

    def restrict_when_parsed():
        if "alg" not in zctx or "alg" not in dctx:
            raise Skipped("needs both parsed algebras")
        restrict()

    return [Task("restrict_along", "zigzag/Q<-D4/Q", restrict_when_parsed,
                 (), ctx),
            Task("decompose_module", "zigzag/Q<-D4/Q", decompose,
                 ("restricted",), ctx)]


# ---------------------------------------------------------------------------
# cli-replay: the recorded CLI invocations

def _recorded() -> dict:
    path = os.path.join(ROOT, "scripts", "record_reports.py")
    spec = importlib.util.spec_from_file_location("bench_recorded", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.RECORDED


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]
    expected: bytes

    @property
    def sha256(self) -> str:
        digest = hashlib.sha256(self.expected)
        for arg in self.argv:
            if os.path.isfile(os.path.join(ROOT, arg)):
                with open(os.path.join(ROOT, arg), "rb") as fh:
                    digest.update(fh.read())
        return digest.hexdigest()


class CliReplay:
    name = "cli-replay"
    why = ("the 16 recorded CLI reports in-process, byte for byte: parsing, "
           "hashing, argparse and rendering carry a large share")

    def build(self, seed: int, variant: int) -> list[Invocation]:
        out = []
        for name, argv in _recorded().items():
            with open(os.path.join(ROOT, "data", "reports", name), "rb") as fh:
                out.append(Invocation(name, tuple(argv), fh.read()))
        return out

    def tasks(self, lib, inputs: list[Invocation], seed: int) -> list[Task]:
        order = list(inputs)
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return [Task("cli.run", inv.name, _replay(lib, inv)) for inv in order]


def _replay(lib, inv: Invocation):
    def run():
        code, text = lib.cli.run(list(inv.argv))
        expect(code == 0, f"exit {code}: {text.strip()}")
        expect(text.encode() == inv.expected, "report differs from the record")
    return run


WORKLOADS = {w.name: w for w in (FpOracle(), Structure(), CliReplay())}
