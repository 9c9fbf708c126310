"""Text formats for algebras, quivers, posets, modules and spans.

Algebra files:      field Q | field F p; dim n; basis n1 ... ;
                    unit c1 ... cn; mul i j -> k1:v1 k2:v2 ...
                    (1-based indices; missing mul lines mean zero products)
Quiver files:       vertex NAME; arrow NAME SRC TGT;
                    relation C*P [+ C*P ...]; bound L
                    (a path token is dot-separated arrow names in function
                    order: "b.a" is b after a)
Poset files:        element NAME; cover LOWER UPPER
Module files:       module over PATH dim d, then per basis element i an
                    "act i" line followed by d rows of d entries
Span files:         vec c1 ... cn (one spanning vector per line)
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction

from .algebra import Algebra, _pack, checked
from .errors import InvalidInputError, ParseError
from .linalg import Field, GF, QQ, _scalars
from .modules import Module, make_module
from .presentations import (
    PathAlgebraPresentation,
    Poset,
    Quiver,
    incidence_algebra,
    path_algebra,
)


def parse_field_token(tokens: list[str], line: int) -> Field:
    if tokens == ["Q"]:
        return QQ
    if len(tokens) == 2 and tokens[0] == "F":
        try:
            return GF(int(tokens[1]))
        except Exception as exc:
            raise ParseError(f"bad prime {tokens[1]!r}", line) from exc
    if len(tokens) == 1 and tokens[0].startswith("F"):
        try:
            return GF(int(tokens[0][1:]))
        except Exception as exc:
            raise ParseError(f"bad field token {tokens[0]!r}", line) from exc
    raise ParseError(f"bad field {' '.join(tokens)!r}", line)


def field_name(f: Field) -> str:
    return "Q" if f.p is None else f"F {f.p}"


def _scalar(field: Field, token: str, line: int):
    try:
        return field.parse(token)
    except InvalidInputError as exc:
        raise ParseError(str(exc), line) from exc


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def parse_algebra(text: str) -> Algebra:
    field = None
    dim = None
    names = None
    unit = None
    muls = []
    for i, toks in _lines(text):
        key = toks[0]
        if key == "field":
            field = parse_field_token(toks[1:], i)
        elif key == "dim":
            try:
                dim = int(toks[1])
            except (IndexError, ValueError):
                raise ParseError("dim needs an integer", i) from None
            if dim < 1:
                raise ParseError(f"dim must be at least 1, got {dim}", i)
        elif key == "basis":
            names = toks[1:]
        elif key == "unit":
            if field is None:
                raise ParseError("unit before field", i)
            unit = [_scalar(field, t, i) for t in toks[1:]]
        elif key == "mul":
            muls.append((i, toks[1:]))
        else:
            raise ParseError(f"unknown keyword {key!r}", i)
    if field is None or dim is None or names is None or unit is None:
        raise ParseError("algebra file needs field, dim, basis and unit lines")
    if len(names) != dim or len(unit) != dim:
        raise ParseError("basis/unit length does not match dim")
    # prods[i][j] maps k to c_ijk, summed over the terms of one mul line
    prods: list[dict[int, dict]] = [{} for _ in range(dim)]
    first_line: dict[tuple[int, int], int] = {}
    for line_no, toks in muls:
        if len(toks) < 3 or toks[2] != "->":
            raise ParseError("mul line must read: mul i j -> k:v ...", line_no)
        try:
            i1, j1 = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError("mul indices must be integers", line_no) from None
        if not (1 <= i1 <= dim and 1 <= j1 <= dim):
            raise ParseError("mul index out of range", line_no)
        if (i1, j1) in first_line:
            raise ParseError(f"mul {i1} {j1} given twice (first on line "
                             f"{first_line[i1, j1]})", line_no)
        first_line[i1, j1] = line_no
        out = prods[i1 - 1][j1 - 1] = {}
        for term in toks[3:]:
            if ":" not in term:
                raise ParseError(f"bad term {term!r}, expected k:v", line_no)
            kk, vv = term.split(":", 1)
            try:
                k1 = int(kk)
            except ValueError:
                raise ParseError(f"bad index in {term!r}", line_no) from None
            if not 1 <= k1 <= dim:
                raise ParseError("term index out of range", line_no)
            out[k1 - 1] = out.get(k1 - 1, 0) + _scalar(field, vv, line_no)
    products = _pack(field.p, 1, ([(j, t.items()) for j, t in row.items()]
                                  for row in prods))
    return checked(Algebra(field, dim, tuple(names), tuple(unit), products))


def dump_algebra(a: Algebra) -> str:
    f = a.field
    out = [f"field {field_name(f)}", f"dim {a.dim}",
           "basis " + " ".join(a.basis_names),
           "unit " + " ".join(f.fmt(c) for c in a.unit)]
    den, rows = a.products
    for i, group in enumerate(rows):
        for j, terms in group:
            cs = _scalars([t for _, t in terms], den, f.p)
            out.append(f"mul {i+1} {j+1} -> " + " ".join(
                f"{k+1}:{f.fmt(c)}" for (k, _), c in zip(terms, cs)))
    return "\n".join(out) + "\n"


def parse_quiver(text: str, field: Field = QQ) -> PathAlgebraPresentation:
    """A quiver file, with its relation coefficients as scalars of field."""
    vertices = []
    arrows = []
    relations = []
    bound = None
    for i, toks in _lines(text):
        key = toks[0]
        if key == "vertex":
            if len(toks) != 2:
                raise ParseError("vertex needs one name", i)
            vertices.append(toks[1])
        elif key == "arrow":
            if len(toks) != 4:
                raise ParseError("arrow needs: arrow NAME SRC TGT", i)
            arrows.append((toks[1], toks[2], toks[3]))
        elif key == "relation":
            relations.append(_parse_relation(" ".join(toks[1:]), i, field))
        elif key == "bound":
            try:
                bound = int(toks[1])
            except (IndexError, ValueError):
                raise ParseError("bound needs an integer", i) from None
        else:
            raise ParseError(f"unknown keyword {key!r}", i)
    if not vertices:
        raise ParseError("quiver file has no vertices")
    try:
        quiver = Quiver(tuple(vertices), tuple(arrows))
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    return PathAlgebraPresentation(quiver, tuple(relations), bound)


def _parse_relation(body: str, line: int, field: Field):
    terms = []
    for chunk in body.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty relation term", line)
        if "*" not in chunk:
            raise ParseError(f"term {chunk!r} must read COEF*PATH", line)
        coef_s, path_s = chunk.split("*", 1)
        try:
            coef = field.coerce(Fraction(coef_s.strip()))
        except (ValueError, ZeroDivisionError, InvalidInputError):
            raise ParseError(f"bad coefficient {coef_s!r} over {field}",
                             line) from None
        arrow_names = [t.strip() for t in path_s.strip().split(".")]
        if any(not t for t in arrow_names):
            raise ParseError(f"bad path {path_s!r}", line)
        # file order is function order ("b.a" = b after a); application order
        terms.append((coef, tuple(reversed(arrow_names))))
    return tuple(terms)


def parse_poset(text: str) -> Poset:
    elements = []
    covers = []
    for i, toks in _lines(text):
        key = toks[0]
        if key == "element":
            if len(toks) != 2:
                raise ParseError("element needs one name", i)
            elements.append(toks[1])
        elif key == "cover":
            if len(toks) != 3:
                raise ParseError("cover needs: cover LOWER UPPER", i)
            covers.append((toks[1], toks[2]))
        else:
            raise ParseError(f"unknown keyword {key!r}", i)
    if not elements:
        raise ParseError("poset file has no elements")
    try:
        return Poset(tuple(elements), tuple(covers))
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def detect_kind(text: str) -> str:
    for _, toks in _lines(text):
        if toks[0] in ("field", "dim", "basis"):
            return "algebra"
        if toks[0] in ("vertex", "arrow"):
            return "quiver"
        if toks[0] in ("element", "cover"):
            return "poset"
        if toks[0] == "module":
            return "module"
        if toks[0] == "vec":
            return "span"
        break
    raise ParseError("cannot determine file kind from the first line")


def load_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def load_algebra(path: str, field: Field | None = None) -> Algebra:
    """Load an algebra from an .alg, quiver or poset file."""
    text = load_text(path)
    kind = detect_kind(text)
    if kind == "algebra":
        return parse_algebra(text)
    if kind == "quiver":
        return path_algebra(parse_quiver(text, field or QQ), field or QQ)
    if kind == "poset":
        return incidence_algebra(parse_poset(text), field or QQ)
    raise ParseError(f"{path} does not define an algebra")


def parse_span(text: str, field: Field, dim: int) -> list[list]:
    rows = []
    for i, toks in _lines(text):
        if toks[0] != "vec":
            raise ParseError(f"span files contain vec lines, got {toks[0]!r}", i)
        if len(toks) - 1 != dim:
            raise ParseError(f"vec needs {dim} entries", i)
        rows.append([_scalar(field, t, i) for t in toks[1:]])
    if not rows:
        raise ParseError("span file has no vectors")
    return rows


def dump_span(rows, field: Field) -> str:
    return "\n".join("vec " + " ".join(field.fmt(c) for c in r)
                     for r in rows) + "\n"


def parse_module(text: str, base_dir: str, field: Field | None = None,
                 algebra_override: Algebra | None = None) -> Module:
    header = None
    header_line = 0
    body: list[tuple[int, list[str]]] = []
    for i, toks in _lines(text):
        if header is None:
            header, header_line = toks, i
        else:
            body.append((i, toks))
    if header is None or header[0] != "module":
        raise ParseError("module file must start with a module line", header_line)
    if len(header) != 5 or header[1] != "over" or header[3] != "dim":
        raise ParseError("module line must read: module over PATH dim D",
                         header_line)
    if algebra_override is not None:
        algebra = algebra_override
    else:
        alg_path = header[2]
        if not os.path.isabs(alg_path):
            alg_path = os.path.join(base_dir, alg_path)
        algebra = load_algebra(alg_path, field)
    try:
        d = int(header[4])
    except ValueError:
        raise ParseError("module dim must be an integer", header_line) from None
    f = algebra.field
    mats: list[list[list]] = [None] * algebra.dim
    idx = 0
    while idx < len(body):
        line_no, toks = body[idx]
        if toks[0] != "act" or len(toks) != 2:
            raise ParseError("expected an act line", line_no)
        try:
            k = int(toks[1])
        except ValueError:
            raise ParseError("act index must be an integer", line_no) from None
        if not 1 <= k <= algebra.dim:
            raise ParseError("act index out of range", line_no)
        rows = []
        for r in range(d):
            idx += 1
            if idx >= len(body):
                raise ParseError("unexpected end of matrix", line_no)
            rline, rtoks = body[idx]
            if len(rtoks) != d:
                raise ParseError(f"matrix row needs {d} entries", rline)
            rows.append([_scalar(f, t, rline) for t in rtoks])
        mats[k - 1] = rows
        idx += 1
    for k, m in enumerate(mats):
        if m is None:
            raise ParseError(f"missing act block for basis element {k+1}")
    return make_module(algebra, mats, check=True)


def dump_module(m: Module, algebra_path: str) -> str:
    f = m.algebra.field
    out = [f"module over {algebra_path} dim {m.dim}"]
    for k in range(m.algebra.dim):
        out.append(f"act {k+1}")
        for row in m.action[k]:
            out.append(" ".join(f.fmt(c) for c in row))
    return "\n".join(out) + "\n"


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
