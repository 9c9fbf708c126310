"""Command-line front end.

Reports are deterministic given the inputs: output carries the command
echo, a fixed `seed: 0` line (kept so that the recorded reports replay),
input digests and a structured result; wall-clock timing appears only
under --timing so recorded reports reproduce byte-for-byte.  Exit codes:
0 success, 1 operation error, 2 parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time

from . import formats
from .algebra import Subalgebra, subalgebra_from_rows, validate_algebra
from .errors import InvalidInputError, MaxsubError, OperationError, ParseError
from .extensions import (
    analyze_extension,
    decompose_module,
    induce,
    restrict,
    split_complement,
)
from .linalg import QQ, _is_prime
from .maximal import (
    MaximalFamily,
    brute_force_maximal,
    certify_maximal,
    classify_type,
    enumerate_maximal_families,
    instantiate_family,
    max_proper_subalgebra_dim,
)
from .modules import Module
from .presentations import (
    clamped_check,
    collapse_edge,
    delete_arrows,
    dimension_vector,
    incidence_algebra,
    incidence_maximal,
    path_algebra,
    quiver_maximal,
)
from .structure import _wedderburn_data_of, structure_report, wedderburn_data


def _field_from_option(token: str | None):
    if token is None:
        return None
    return formats.parse_field_token(token.split(), 0)


def _fmt_vec(vec, field) -> str:
    return " ".join(field.fmt(c) for c in vec)


def _span_lines(space, field) -> list[str]:
    return [_fmt_vec(r, field) for r in space.basis]


def _load_span(path: str, algebra) -> Subalgebra:
    rows = formats.parse_span(formats.load_text(path), algebra.field,
                              algebra.dim)
    return subalgebra_from_rows(algebra, rows, check=True)


def _coords(text: str, field, option: str) -> list:
    """Comma-separated scalars; a bad literal is a parse error."""
    try:
        return [field.parse(c) for c in text.split(",")]
    except InvalidInputError as exc:
        raise ParseError(f"bad {option}: {exc}") from exc


def _need(rest: list[str], count: int, usage: str) -> list[str]:
    if len(rest) != count:
        raise OperationError(f"expected arguments: {usage}")
    return rest


def _parse_family_record(record: str) -> MaximalFamily:
    toks = record.split()
    if toks and toks[0] == "family":
        toks = toks[1:]
    kv = {}
    for t in toks:
        if "=" not in t:
            raise ParseError(f"bad family token {t!r}")
        k, v = t.split("=", 1)
        kv[k] = v
    kind = kv.get("kind")
    try:
        if kind == "block_triangular":
            return MaximalFamily(kind, int(kv["block"]) - 1, k=int(kv["k"]))
        if kind == "diagonal_merge":
            return MaximalFamily(kind, int(kv["i"]) - 1, other=int(kv["j"]) - 1)
        if kind == "radical_hyperplane":
            func = None
            if kv.get("hyperplane", "parametrized") != "parametrized":
                func = tuple(int(c) for c in kv["hyperplane"].split(","))
            return MaximalFamily(kind, int(kv["i"]) - 1, other=int(kv["j"]) - 1,
                                 multiplicity=int(kv["m"]), functional=func)
        if kind == "subfield_centralizer":
            degree = int(kv["degree"])
            if not _is_prime(degree):
                raise ParseError(f"bad family record: degree {degree} "
                                 "is not prime")
            return MaximalFamily(kind, int(kv["block"]) - 1, degree=degree)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad family record: {exc}") from exc
    raise ParseError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# handlers

def _cmd_structure(path: str, field) -> dict:
    b = formats.load_algebra(path, field)
    rep = structure_report(b)
    payload = {
        "dim": b.dim,
        "field": formats.field_name(b.field),
        "radical_dim": rep.radical.dim,
        "radical_basis": _span_lines(rep.radical, b.field),
        "schur": rep.schur,
    }
    if rep.schur:
        payload["block_dims"] = list(rep.block_dims)
        wm = _wedderburn_data_of(b, rep)
        payload["complement_dim"] = wm.complement.dim
        payload["complement_basis"] = _span_lines(wm.complement.space, b.field)
    else:
        payload["not_split"] = rep.failure
    return payload


def _cmd_maxdim(path: str, field) -> dict:
    b = formats.load_algebra(path, field)
    return {"dim": b.dim,
            "max_proper_subalgebra_dim": max_proper_subalgebra_dim(b)}


def _cmd_maximal(args, field) -> dict:
    b = formats.load_algebra(args.algebra, field)
    if args.action == "enumerate":
        wm = wedderburn_data(b)
        fams = enumerate_maximal_families(b, wm)
        dims = [blk.n for blk in wm.report.blocks]
        return {"family_count": len(fams),
                "families": [f.describe(dims) for f in fams]}
    if args.action == "instantiate":
        if not args.family:
            raise OperationError("instantiate needs --family RECORD")
        fam = _parse_family_record(args.family)
        params = (_coords(args.params, b.field, "--params") if args.params
                  else None)
        sub = instantiate_family(b, fam, params=params)
        return {"subalgebra_dim": sub.dim, "codim": b.dim - sub.dim,
                "basis": _span_lines(sub.space, b.field)}
    if args.action in ("certify", "classify"):
        if not args.span:
            raise OperationError(f"{args.action} needs a span file")
        sub = _load_span(args.span, b)
        if args.action == "certify":
            cert = certify_maximal(sub, b)
            payload = {"status": cert.status, "method": cert.method,
                       "quotient_dim": cert.quotient_dim}
            if cert.witness is not None:
                payload["witness_dim"] = cert.witness.dim
                payload["witness_basis"] = _span_lines(cert.witness.space,
                                                       b.field)
            return payload
        verdict = classify_type(sub, b)
        payload = {"type": verdict.kind,
                   "radical_contained": verdict.radical_contained}
        if verdict.kind == "split":
            payload["radical_match"] = verdict.split_radical_match
            payload["subalgebra_block_dims"] = list(verdict.a_block_dims)
            payload["block_dims"] = list(verdict.b_block_dims)
        return payload
    if args.action == "brute":
        if args.max_dim is not None and b.dim > args.max_dim:
            raise OperationError(
                f"algebra dimension {b.dim} exceeds --max-dim {args.max_dim}")
        res = brute_force_maximal(b)
        classes = []
        for cls in res.classes:
            rep0 = cls[0]
            verdict = classify_type(rep0, b)
            classes.append({
                "size": len(cls),
                "dim": rep0.dim,
                "type": verdict.kind,
                "representative": _span_lines(rep0.space, b.field),
            })
        return {"maximal_count": len(res.maximal),
                "class_count": len(res.classes),
                "max_dim": res.max_dim,
                "classes": classes}
    raise OperationError(f"unknown maximal action {args.action!r}")


def _cmd_ext(args, field) -> dict:
    b = formats.load_algebra(args.algebra, field)
    sub = _load_span(args.span, b)
    analysis = analyze_extension(sub, b)
    payload = {
        "subalgebra_dim": sub.dim,
        "split": analysis.split,
        "ideal": analysis.ideal,
        "nilpotent": analysis.nilpotent,
        "trivial": analysis.trivial,
        "separable": analysis.separable,
    }
    if analysis.complement is not None:
        payload["complement_basis"] = _span_lines(analysis.complement.space,
                                                  b.field)
    if analysis.separability_idempotent is not None:
        payload["separability_idempotent"] = _fmt_vec(
            analysis.separability_idempotent, b.field)
    return payload


def _module_lines(m: Module) -> list[str]:
    f = m.algebra.field
    out = []
    for k in range(m.algebra.dim):
        out.append(f"act {k+1}")
        for row in m.action[k]:
            out.append(_fmt_vec(row, f))
    return out


def _cmd_mod(args, field) -> dict:
    base = os.path.dirname(os.path.abspath(args.module))
    if args.action in ("decompose", "dimvec"):
        m = formats.parse_module(formats.load_text(args.module), base, field)
        if args.action == "dimvec":
            vec, thin = dimension_vector(m)
            return {"dimension_vector": ",".join(str(x) for x in vec),
                    "thin": thin}
        parts = decompose_module(m)
        payload = {"dim": m.dim, "summand_count": len(parts),
                   "summand_dims": [p.dim for p in parts]}
        pres = m.algebra.presentation
        if pres is not None and pres.vertex_vectors:
            payload["summand_dimension_vectors"] = [
                ",".join(str(x) for x in dimension_vector(p)[0])
                for p in parts]
        return payload
    if args.action == "restrict":
        if not args.span:
            raise OperationError("restrict needs: mod restrict MODULE SPAN")
        m = formats.parse_module(formats.load_text(args.module), base, field)
        sub = _load_span(args.span, m.algebra)
        res = restrict(m, sub)
        parts = decompose_module(res)
        return {"dim": res.dim, "subalgebra_dim": sub.dim,
                "summand_dims": [p.dim for p in parts],
                "action": _module_lines(res)}
    if args.action == "induce":
        if not args.span or not args.algebra:
            raise OperationError(
                "induce needs: mod induce MODULE SPAN --algebra FILE")
        b = formats.load_algebra(args.algebra, field)
        sub = _load_span(args.span, b)
        m = formats.parse_module(formats.load_text(args.module), base, field,
                                 algebra_override=sub.as_algebra())
        ind = induce(m, sub)
        parts = decompose_module(ind)
        return {"dim": ind.dim, "summand_dims": [p.dim for p in parts],
                "action": _module_lines(ind)}
    raise OperationError(f"unknown mod action {args.action!r}")


def _cmd_quiver(args, field) -> dict:
    f = field or QQ
    pres = formats.parse_quiver(formats.load_text(args.quiver), f)
    rest = args.rest
    if args.action == "build":
        alg = path_algebra(pres, f)
        rep = validate_algebra(alg)
        return {"dim": alg.dim, "valid": rep.ok,
                "algebra_text": formats.dump_algebra(alg).splitlines()}
    if args.action == "maximal":
        kind, a, b = _need(rest, 3, "quiver maximal FILE merge|split A B")
        alg = path_algebra(pres, f)
        hyper = None
        if args.hyperplane:
            hyper = [_coords(row, f, "--hyperplane")
                     for row in args.hyperplane.split(";")]
        sub = quiver_maximal(alg, kind, a, b, hyper)
        cert = certify_maximal(sub, alg)
        return {"subalgebra_dim": sub.dim, "certified": cert.status,
                "basis": _span_lines(sub.space, f)}
    if args.action == "collapse":
        (arrow,) = _need(rest, 1, "quiver collapse FILE ARROW")
        res = collapse_edge(pres.quiver, arrow, f)
        payload = {
            "ambient_dim": res.ambient.dim,
            "inclusion_dim": res.inclusion.dim,
            "corner_dim": res.corner.dim,
            "condition_star": res.condition_star,
            "collapsed_vertices": list(res.quiver.vertices),
        }
        if res.condition_star:
            cert = certify_maximal(res.inclusion, res.ambient)
            payload["certified"] = cert.status
            verdict = classify_type(res.inclusion, res.ambient)
            payload["type"] = verdict.kind
        return payload
    if args.action == "delete":
        (verts,) = _need(rest, 1, "quiver delete FILE V1[,V2,...]")
        res = delete_arrows(pres.quiver, verts.split(","), f)
        comp = split_complement(res.inclusion, res.ambient)
        return {
            "ambient_dim": res.ambient.dim,
            "inclusion_dim": res.inclusion.dim,
            "complement_dim": res.complement.dim,
            "complement_squares_to_zero": res.complement_squares_to_zero,
            "split": comp is not None,
        }
    raise OperationError(f"unknown quiver action {args.action!r}")


def _cmd_poset(args, field) -> dict:
    poset = formats.parse_poset(formats.load_text(args.poset))
    f = field or QQ
    rest = args.rest
    if args.action == "build":
        alg = incidence_algebra(poset, f)
        rep = validate_algebra(alg)
        return {"dim": alg.dim, "valid": rep.ok,
                "algebra_text": formats.dump_algebra(alg).splitlines()}
    if args.action == "maximal":
        kind, a, b = _need(rest, 3, "poset maximal FILE s|t A B")
        alg = incidence_algebra(poset, f)
        sub = incidence_maximal(alg, kind, a, b)
        cert = certify_maximal(sub, alg)
        return {"subalgebra_dim": sub.dim, "certified": cert.status,
                "basis": _span_lines(sub.space, f)}
    if args.action == "clamped":
        a, b = _need(rest, 2, "poset clamped FILE A B")
        return {"clamped": clamped_check(poset, a, b)}
    raise OperationError(f"unknown poset action {args.action!r}")


# ---------------------------------------------------------------------------
# report assembly

def _entry_lines(key, val, indent=""):
    if isinstance(val, list):
        out = [f"{indent}{key}:"]
        out.extend(f"{indent}  {v}" for v in val)
        return out
    if isinstance(val, bool):
        val = "true" if val else "false"
    return [f"{indent}{key}: {val}"]


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}", f"seed: {report['seed']}"]
    for inp in report["inputs"]:
        lines.append(f"input: {inp['path']} sha256={inp['sha256']}")
    if "timing_ms" in report:
        lines.append(f"timing_ms: {report['timing_ms']}")
    lines.append("result:")
    for key, val in report["result"].items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{key}:")
            for i, item in enumerate(val):
                lines.append(f"- index: {i}")
                for k2, v2 in item.items():
                    lines.extend(_entry_lines(k2, v2, indent="  "))
        else:
            lines.extend(_entry_lines(key, val))
    return "\n".join(lines) + "\n"


def _common_options(parser, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--json", action="store_true",
                        default=d if suppress else False,
                        help="machine-readable output")
    parser.add_argument("--timing", action="store_true",
                        default=d if suppress else False,
                        help="include wall-clock timing in the report")
    parser.add_argument("--field",
                        default=d if suppress else None,
                        help="field for quiver/poset inputs: Q, F2, F3 "
                             "(default Q)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # `run` returns exit code 2, not SystemExit
        raise ParseError(
            f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _common_options(common, suppress=True)
    p = _Parser(
        prog="maxsub",
        description="structure and maximal subalgebras of finite-dimensional "
                    "associative algebras, exactly")
    _common_options(p, suppress=False)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("structure", parents=[common],
                       help="radical, blocks, complement")
    s.add_argument("algebra")

    s = sub.add_parser("maxdim", parents=[common],
                       help="maximal dimension of a proper subalgebra")
    s.add_argument("algebra")

    s = sub.add_parser("maximal", parents=[common],
                       help="maximal subalgebra operations")
    s.add_argument("action", choices=["enumerate", "instantiate", "certify",
                                      "classify", "brute"])
    s.add_argument("algebra")
    s.add_argument("span", nargs="?", help="span file (certify/classify)")
    s.add_argument("--family", help="family record (instantiate)")
    s.add_argument("--params", help="hyperplane coordinates c1,c2,...")
    s.add_argument("--max-dim", type=int, default=None,
                   help="refuse algebras above this dimension (brute)")

    s = sub.add_parser("ext", parents=[common],
                       help="split/separable extension analysis")
    s.add_argument("action", choices=["check"])
    s.add_argument("span")
    s.add_argument("algebra")

    s = sub.add_parser("mod", parents=[common], help="module operations")
    s.add_argument("action", choices=["induce", "restrict", "decompose",
                                      "dimvec"])
    s.add_argument("module")
    s.add_argument("span", nargs="?")
    s.add_argument("--algebra", help="ambient algebra file (induce)")

    s = sub.add_parser("quiver", parents=[common],
                       help="quiver constructions")
    s.add_argument("action", choices=["build", "maximal", "collapse", "delete"])
    s.add_argument("quiver")
    s.add_argument("rest", nargs="*")
    s.add_argument("--hyperplane", help="rows c1,c2;d1,d2 over the a->b arrows")

    s = sub.add_parser("poset", parents=[common], help="poset constructions")
    s.add_argument("action", choices=["build", "maximal", "clamped"])
    s.add_argument("poset")
    s.add_argument("rest", nargs="*")
    return p


def run(argv: list[str]) -> tuple[int, str]:
    try:
        args = build_parser().parse_args(argv)
    except ParseError as exc:   # argparse's usage text, as it would print it
        return 2, str(exc)
    t0 = time.monotonic()
    try:
        field = _field_from_option(args.field)
        if args.cmd == "structure":
            result = _cmd_structure(args.algebra, field)
            paths = [args.algebra]
        elif args.cmd == "maxdim":
            result = _cmd_maxdim(args.algebra, field)
            paths = [args.algebra]
        elif args.cmd == "maximal":
            result = _cmd_maximal(args, field)
            paths = [args.algebra] + ([args.span] if args.span else [])
        elif args.cmd == "ext":
            result = _cmd_ext(args, field)
            paths = [args.span, args.algebra]
        elif args.cmd == "mod":
            result = _cmd_mod(args, field)
            paths = [args.module] + ([args.span] if args.span else []) \
                + ([args.algebra] if args.algebra else [])
        elif args.cmd == "quiver":
            result = _cmd_quiver(args, field)
            paths = [args.quiver]
        elif args.cmd == "poset":
            result = _cmd_poset(args, field)
            paths = [args.poset]
        else:
            raise OperationError(f"unknown command {args.cmd!r}")
    except ParseError as exc:
        return 2, f"parse error: {exc}\n"
    except MaxsubError as exc:
        return 1, f"error: {exc}\n"
    digests = []
    for path in paths:
        try:
            digests.append({"path": path, "sha256": formats.sha256_file(path)})
        except OSError:
            digests.append({"path": path, "sha256": "unreadable"})
    report = {
        "command": shlex.join(argv),
        "seed": 0,
        "inputs": digests,
        "result": result,
    }
    if args.timing:
        report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    if args.json:
        return 0, json.dumps(report, sort_keys=True, indent=2) + "\n"
    return 0, _render_text(report)


def main(argv: list[str] | None = None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    out = sys.stdout if code == 0 else sys.stderr
    out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
