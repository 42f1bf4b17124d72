"""Command-line front end: parse divisor/data documents, run the analyses,
emit text or canonical JSON reports."""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import divclass, pdiv, polyhedra, singcheck, ufdgen
from .errors import InternalCheck, PolysingError
from .pdiv import A1, P1, Curve, Point, QDivisor
from .ratlin import primitive

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_NOT_PROPER = 2
EXIT_PARSE_ERROR = 3

ALL_CRITERIA = (
    "proper",
    "smooth",
    "isolated",
    "class_group",
    "factorial",
    "gorenstein",
    "discrepancies",
    "log_terminal",
    "rational",
    "cohen_macaulay",
    "canonical",
    "elliptic",
)


class ParseError(PolysingError):
    def __init__(self, message, where=""):
        super().__init__(f"{where}: {message}" if where else message)


def _rat(text, where) -> Fraction:
    try:
        return Fraction(str(text).replace("−", "-"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r} ({exc})", where)


def _int(value, where) -> int:
    try:
        x = Fraction(str(value).replace("−", "-"))
    except (ValueError, ZeroDivisionError):
        x = None
    if x is None or x.denominator != 1:
        raise ParseError(f"bad integer {value!r}", where)
    return int(x)


def _is_int(value) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _lattice_rank(value, where) -> int:
    if not _is_int(value) or value < 1:
        raise ParseError("lattice_rank must be a positive integer", where)
    if value > polyhedra.RANK_CAP:
        raise ParseError(f"lattice_rank {value} exceeds the supported cap {polyhedra.RANK_CAP}", where)
    return value


def _list_of(value, kind: type, what: str, where) -> list:
    """The JSON array `value`, every member of which must be a `kind`."""
    if not isinstance(value, list) or not all(isinstance(x, kind) for x in value):
        noun = "object" if kind is dict else "list"
        raise ParseError(f"{what} must be a list of {noun}s", where)
    return value


def _point(text, base: Curve, where) -> Point:
    s = str(text).strip()
    if s in ("inf", "infty", "infinity", "oo"):
        if base.kind == pdiv.AFFINE_LINE:
            raise ParseError("the affine line has no point at infinity", where)
        return Point.infinity()
    if base.kind == pdiv.ABSTRACT:
        return Point.label(s)
    return Point.coord(_rat(s, where))


def parse_document(doc: dict, where: str = "input") -> dict:
    """Validate a JSON document and build the model objects.

    Returns a dict with "kind" in {"divisor", "admissible", "numerical"} and
    the parsed payload.
    """
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object", where)
    if doc.get("format") != FORMAT_VERSION:
        raise ParseError(f"unsupported format {doc.get('format')!r}, expected {FORMAT_VERSION}", where)
    if "entries" in doc:
        return {"kind": "admissible", "data": _parse_admissible(doc, where)}
    if "numerical" in doc:
        return {"kind": "numerical", "data": _parse_numerical(doc["numerical"], where)}
    return {"kind": "divisor", "data": _parse_divisor(doc, where)}


def _parse_base(doc, where) -> Curve:
    base = doc.get("base", {"kind": "P1"})
    if not isinstance(base, dict):
        raise ParseError("base must be an object", where)
    kind = base.get("kind", "P1")
    if kind == "P1":
        return P1
    if kind == "A1":
        return A1
    if kind == "abstract":
        genus = base.get("genus")
        if not _is_int(genus) or genus < 1:
            raise ParseError("abstract base needs an integer genus >= 1", where)
        return Curve(pdiv.ABSTRACT, genus)
    raise ParseError(f"unknown base kind {kind!r}", where)


def _parse_divisor(doc, where) -> pdiv.PolyhedralDivisor:
    base = _parse_base(doc, where)
    rank = _lattice_rank(doc.get("lattice_rank"), where)
    rays = _list_of(doc.get("tail_rays", []), list, "tail_rays", where)
    for i, ray in enumerate(rays):
        if len(ray) != rank:
            raise ParseError(f"tail ray #{i + 1} has wrong dimension", where)
    tail = polyhedra.make_cone([[_int(x, f"{where}: tail_rays") for x in ray] for ray in rays], rank)
    coeffs = {}
    seen = set()
    for i, entry in enumerate(_list_of(doc.get("coefficients", []), dict, "coefficients", where)):
        loc = f"{where}: coefficient #{i + 1}"
        p = _point(entry.get("point"), base, loc)
        if p in seen:
            raise ParseError(f"duplicate point {p}", loc)
        seen.add(p)
        verts = _list_of(entry.get("vertices", []), list, "vertices", loc)
        if not verts:
            raise ParseError("vertex list must be nonempty", loc)
        parsed = []
        for v in verts:
            if len(v) != rank:
                raise ParseError("vertex has wrong dimension", loc)
            parsed.append([_rat(x, loc) for x in v])
        coeffs[p] = polyhedra.sigma_polyhedron(parsed, tail)
    try:
        d = pdiv.polyhedral_divisor(base, tail, coeffs)
    except ValueError as exc:
        raise ParseError(str(exc), where)
    if "canonical_divisor" in doc:
        terms = []
        loc = f"{where}: canonical_divisor"
        for t in _list_of(doc["canonical_divisor"], dict, "canonical_divisor", where):
            terms.append((_point(t.get("point"), base, loc), _rat(t.get("coeff"), loc)))
        d = _with_canonical(d, QDivisor.of(terms), loc)
    return d


def _with_canonical(d: pdiv.PolyhedralDivisor, canonical: QDivisor, where) -> pdiv.PolyhedralDivisor:
    """The divisor d with its canonical divisor replaced."""
    try:
        return pdiv.polyhedral_divisor(d.base, d.tail, dict(d.coeffs), canonical)
    except ValueError as exc:
        raise ParseError(str(exc), where)


def _parse_admissible(doc, where) -> ufdgen.AdmissibleData:
    base = _parse_base(doc, where)
    if base.kind != pdiv.PROJECTIVE_LINE:
        raise ParseError("admissible data lives on P1", where)
    entries = _list_of(doc["entries"], dict, "entries", where)
    parsed = []
    have_points = any("point" in e for e in entries)
    if have_points and not all("point" in e for e in entries):
        raise ParseError("entries must all carry a point or none may", where)
    defaults = ufdgen.default_points(len(entries))
    for i, e in enumerate(entries):
        loc = f"{where}: entry #{i + 1}"
        mu = e.get("mu")
        if not isinstance(mu, list) or not all(_is_int(m) for m in mu):
            raise ParseError("mu must be a list of integers", loc)
        p = _point(e["point"], base, loc) if have_points else defaults[i]
        parsed.append((p, tuple(mu)))
    try:
        return ufdgen.admissible_data(parsed)
    except PolysingError as exc:
        raise ParseError(str(exc), where)


def _parse_numerical(block, where) -> dict:
    loc = f"{where}: numerical"
    if not isinstance(block, dict):
        raise ParseError("numerical must be an object", where)
    rank = _lattice_rank(block.get("lattice_rank"), loc)

    def vectors(value, what, where, scalar):
        out = []
        for v in _list_of(value, list, what, where):
            if len(v) != rank:
                raise ParseError(f"{what} member has wrong dimension", where)
            out.append([scalar(x, f"{where}: {what}") for x in v])
        return out

    classes = []
    bs = []
    vertex_lists = []
    for i, p in enumerate(_list_of(block.get("points", []), dict, "points", loc)):
        ploc = f"{loc}: point #{i + 1}"
        cls = p.get("class", [])
        if not isinstance(cls, list) or (classes and len(cls) != len(classes[0])):
            raise ParseError("class must be a list of integers as long as the others", ploc)
        classes.append([_int(x, f"{ploc}: class") for x in cls])
        bs.append(_rat(p.get("b", 0), ploc))
        vertex_lists.append(vectors(p.get("vertices", []), "vertices", ploc, _rat))
    return {
        "classes": classes,
        "b": bs,
        "vertex_lists": vertex_lists,
        "extremal_rays": vectors(block.get("extremal_rays", []), "extremal_rays", loc, _int),
        "lattice_rank": rank,
    }


def load_document(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(str(exc), str(path))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}", str(path))
    return parse_document(doc, str(path))


def _fmt_rat(x) -> str:
    return str(Fraction(x))


def _fmt_vec(v) -> list[str]:
    return [_fmt_rat(x) for x in v]


def _verdict_payload(v: singcheck.Verdict) -> dict:
    out = {"status": v.status}
    if v.witness is not None:
        out["witness"] = v.witness
    if v.reason:
        out["reason"] = v.reason
    return out


def _error_payload(exc: PolysingError) -> dict:
    """A typed error as a report entry; a failed internal invariant is a bug,
    not a verdict, and propagates instead."""
    if isinstance(exc, InternalCheck):
        raise exc
    return {"status": "error", "error": type(exc).__name__, "detail": str(exc)}


def analyze(d: pdiv.PolyhedralDivisor, only=None, budget=singcheck.DEFAULT_BUDGET) -> dict:
    """Run the analysis chain and collect one entry per criterion.

    Per-criterion errors are embedded in the report; only an improper divisor
    short-circuits (exit code 2).
    """
    selected = list(only) if only else list(ALL_CRITERIA)
    report = {"format": FORMAT_VERSION, "results": [], "exit": EXIT_OK}

    def add(criterion, payload, t0):
        entry = {"criterion": criterion, "ms": int((time.perf_counter() - t0) * 1000)}
        entry.update(payload)
        report["results"].append(entry)

    def run(criterion, thunk):
        if criterion not in selected:
            return None
        t0 = time.perf_counter()
        try:
            payload = thunk()
        except PolysingError as exc:
            payload = _error_payload(exc)
        add(criterion, payload, t0)
        return payload

    t0 = time.perf_counter()
    proper = pdiv.is_proper(d)
    payload = {"status": proper.status}
    if proper.witness is not None:
        payload["witness"] = list(proper.witness)
    if "proper" in selected:
        add("proper", payload, t0)
    if proper.status == "not_proper":
        report["exit"] = EXIT_NOT_PROPER
        return report

    run("smooth", lambda: _verdict_payload(singcheck.check_smooth(d)))
    run("isolated", lambda: _verdict_payload(singcheck.check_isolated(d)))

    def class_payload():
        cg = divclass.class_group(d)
        return {
            "status": "ok",
            "torsion": list(cg.torsion),
            "free_rank": cg.free_rank,
            "q_factorial": cg.q_factorial,
        }

    run("class_group", class_payload)

    def fact_payload():
        f = divclass.factoriality_det(d)
        out = {"status": "factorial" if f.factorial else "not_factorial", "shape": list(f.shape)}
        if f.det is not None:
            out["det"] = f.det
        return out

    run("factorial", fact_payload)

    sol_holder = {}

    def gor_payload():
        res = divclass.gorenstein_solve(d)
        if isinstance(res, divclass.NotQGorenstein):
            return {"status": "not_q_gorenstein", "reason": res.reason}
        sol_holder["sol"] = res
        return {
            "status": "q_gorenstein",
            "index": res.index,
            "u": _fmt_vec(res.u),
            "a": {str(p): _fmt_rat(a) for p, a in res.a},
        }

    run("gorenstein", gor_payload)

    def discr_payload():
        sol = sol_holder.get("sol")
        if sol is None:
            return {"status": "skipped", "reason": "needs a Q-Gorenstein divisor"}
        rep = singcheck.discrepancies(d, sol)
        return {
            "status": "ok",
            "minimum": _fmt_rat(rep.minimum()),
            "rays": [
                {"ray": list(e.ray), "value": _fmt_rat(e.value), "exceptional": e.exceptional}
                for e in rep.entries
                if e.kind == "ray"
            ],
        }

    run("discrepancies", discr_payload)
    run("log_terminal", lambda: _verdict_payload(singcheck.check_log_terminal(d)))
    run("rational", lambda: _verdict_payload(singcheck.check_rational(d, budget)))

    def cm_payload():
        cm = singcheck.check_cm(d, budget)
        out = {"status": cm.status, "reason": cm.reason}
        holds = cm.holds()
        if holds is not None:
            out["holds"] = holds
        if cm.resolved is not None:
            out["resolved"] = _verdict_payload(cm.resolved)
        return out

    run("cohen_macaulay", cm_payload)

    if pdiv.rank(d) == 1:
        def canonical_payload():
            c = singcheck.classify_canonical(d)
            out = {
                "status": "canonical" if c.canonical else "not_canonical",
                "index": c.index,
                "u0": _fmt_rat(c.u0),
            }
            if c.canonical:
                out["type"] = f"{c.label}{c.param}"
            if c.reason:
                out["reason"] = c.reason
            return out

        run("canonical", canonical_payload)

        def elliptic_payload():
            e = singcheck.check_elliptic(d)
            out = {"status": e.status}
            if e.status == "elliptic":
                out["minimal"] = e.minimal
                out["witness_u"] = e.witness_u
                out["index"] = e.index
            return out

        run("elliptic", elliptic_payload)
    return report


def analyze_numerical(block: dict) -> dict:
    """Gorenstein system in user-supplied-numerical-class mode: principality of
    the base divisor class is reported symbolically, not decided."""
    t0 = time.perf_counter()
    try:
        res = divclass.gorenstein_solve_numerical(
            block["classes"],
            block["b"],
            block["vertex_lists"],
            block["extremal_rays"],
            block["lattice_rank"],
        )
    except PolysingError as exc:
        payload = _error_payload(exc)
    else:
        if isinstance(res, divclass.NotQGorenstein):
            payload = {"status": "not_q_gorenstein", "reason": res.reason}
        else:
            payload = {
                "status": "solved",
                "integrality_index": res.index,
                "u": _fmt_vec(res.u),
                "a": {str(p): _fmt_rat(a) for p, a in res.a},
                "principality_checked": res.principality_checked,
            }
    payload["criterion"] = "gorenstein"
    payload["ms"] = int((time.perf_counter() - t0) * 1000)
    return {"format": FORMAT_VERSION, "results": [payload], "exit": EXIT_OK}


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(report: dict, name: str) -> str:
    lines = [f"== {name} =="]
    for entry in report["results"]:
        bits = []
        for key, val in entry.items():
            if key in ("criterion", "ms"):
                continue
            bits.append(f"{key}={json.dumps(val, sort_keys=True)}")
        lines.append(f"  {entry['criterion']:>14}: " + "  ".join(bits))
    lines.append(f"  exit {report['exit']}")
    return "\n".join(lines) + "\n"


def charts_report(d: pdiv.PolyhedralDivisor) -> dict:
    """Per-point toric chart cones (and the bicone over P^1 when it exists)."""
    out = {"format": FORMAT_VERSION, "charts": []}
    for p, poly in pdiv.support(d):
        cone = polyhedra.cayley_cone([(poly, (1,))])
        out["charts"].append(
            {
                "point": str(p),
                "generators": [list(g) for g in cone.generators],
                "regular": polyhedra.is_regular(cone),
            }
        )
    generic = polyhedra.cayley_cone([(polyhedra.tail_polyhedron(d.tail), (1,))])
    out["charts"].append(
        {
            "point": None,
            "generators": [list(g) for g in generic.generators],
            "regular": polyhedra.is_regular(generic),
        }
    )
    if d.base.kind == pdiv.PROJECTIVE_LINE:
        bic = singcheck._two_point_bicone(d.tail, *pdiv._support_rows(d))
        if bic is not None:
            out["bicone"] = {
                "generators": [list(g) for g in bic.generators],
                "regular": polyhedra.is_regular(bic),
            }
    return out


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 3, like malformed documents: argparse's own 2 is
    the code for an improper divisor here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE_ERROR, f"{self.prog}: error: {message}\n")


def _criteria(text: str) -> list[str]:
    names = text.split(",")
    unknown = [n for n in names if n not in ALL_CRITERIA]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown criteria {', '.join(map(repr, unknown))}; choose from {', '.join(ALL_CRITERIA)}"
        )
    return names


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"the budget must be a nonnegative integer, not {text!r}")
    return value


def main(argv=None) -> int:
    parser = _ArgumentParser(prog="polysing", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the singularity analysis chain")
    p_an.add_argument("path", type=Path, help="input document or a directory of documents")
    p_an.add_argument("--report", choices=("json", "text"), default="text")
    p_an.add_argument("--only", type=_criteria, help="comma-separated criteria subset")
    p_an.add_argument("--kdiv", help="canonical divisor override, e.g. '-1*0,-1*inf'")
    p_an.add_argument("--budget", type=_budget, default=singcheck.DEFAULT_BUDGET)

    p_con = sub.add_parser("construct", help="build the factorial divisor for admissible data")
    p_con.add_argument("path", type=Path)
    p_con.add_argument("--report", choices=("json", "text"), default="text")

    p_pre = sub.add_parser("present", help="emit the trinomial ring presentation")
    p_pre.add_argument("path", type=Path)
    p_pre.add_argument("--report", choices=("json", "text"), default="text")

    p_hil = sub.add_parser("hilbert", help="compare graded dimensions against the presentation")
    p_hil.add_argument("path", type=Path)
    p_hil.add_argument("--dmax", type=int, default=30)
    p_hil.add_argument("--report", choices=("json", "text"), default="text")

    p_ch = sub.add_parser("charts", help="emit the toric chart cones per point")
    p_ch.add_argument("path", type=Path)
    p_ch.add_argument("--report", choices=("json", "text"), default="text")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


def _parse_kdiv(text: str, base: Curve) -> QDivisor:
    terms = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        coeff, _, pt = chunk.partition("*")
        terms.append((_point(pt.strip(), base, "--kdiv"), _rat(coeff.strip(), "--kdiv")))
    return QDivisor.of(terms)


def _require_kind(doc: dict, kind: str, path) -> object:
    if doc["kind"] != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise ParseError(f"expected {article} {kind} document", str(path))
    return doc["data"]


def _dispatch(args) -> int:
    if args.command == "analyze":
        paths = sorted(args.path.glob("*.json")) if args.path.is_dir() else [args.path]
        if not paths:
            raise ParseError("no .json documents found", str(args.path))
        worst = EXIT_OK
        for path in paths:
            try:
                doc = load_document(path)
                if doc["kind"] == "numerical":
                    report = analyze_numerical(doc["data"])
                else:
                    d = _require_kind(doc, "divisor", path)
                    if args.kdiv:
                        d = _with_canonical(d, _parse_kdiv(args.kdiv, d.base), "--kdiv")
                    report = analyze(d, args.only, args.budget)
            except ParseError as exc:
                # batch contract: files are independent, one bad file does not
                # stop the rest
                if len(paths) == 1:
                    raise
                print(f"parse error: {exc}", file=sys.stderr)
                worst = max(worst, EXIT_PARSE_ERROR)
                continue
            if args.report == "json":
                sys.stdout.write(canonical_dumps(report))
            else:
                sys.stdout.write(render_text(report, path.name))
            worst = max(worst, report["exit"])
        return worst

    doc = load_document(args.path)
    try:
        out = _command_report(args, doc)
    except (InternalCheck, ParseError):
        raise
    except PolysingError as exc:
        # the document parsed, but the command cannot run on it
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    _emit(args, out)
    return EXIT_OK


def _command_report(args, doc: dict) -> dict:
    if args.command == "construct":
        data = _require_kind(doc, "admissible", args.path)
        d = ufdgen.construct_divisor(data)
        fact = divclass.factoriality_det(d)
        return {
            "format": FORMAT_VERSION,
            "lattice_rank": pdiv.rank(d),
            "tail_rays": [list(r) for r in d.tail.generators],
            "coefficients": [
                {"point": str(p), "vertices": [_fmt_vec(v) for v in poly.vertices]}
                for p, poly in d.coeffs
            ],
            "determinant": fact.det,
        }
    if args.command == "present":
        data = _require_kind(doc, "admissible", args.path)
        pres = ufdgen.presentation(data)
        return {
            "format": FORMAT_VERSION,
            "variables": list(pres.variables),
            "degrees": [list(u) for u in pres.degrees],
            "relations": list(pres.relations),
            "dimension": pres.dimension,
        }
    if args.command == "hilbert":
        data = _require_kind(doc, "admissible", args.path)
        d = ufdgen.construct_divisor(data)
        pres = ufdgen.presentation(data, d)
        weight = _interior_weight(d)
        cmp = ufdgen.hilbert_compare_presentation(d, pres, weight, args.dmax)
        return {
            "format": FORMAT_VERSION,
            "weight": list(weight),
            "match": cmp.match,
            "first_mismatch": cmp.first_mismatch,
            "dims": list(cmp.dims),
        }
    if args.command == "charts":
        return charts_report(_require_kind(doc, "divisor", args.path))
    raise InternalCheck(f"unhandled command {args.command}")


def _interior_weight(d: pdiv.PolyhedralDivisor):
    gens = polyhedra.minimal_generators(d.tail)
    return primitive([sum(g[i] for g in gens) for i in range(pdiv.rank(d))])


def _emit(args, obj: dict) -> None:
    if args.report == "json":
        sys.stdout.write(canonical_dumps(obj))
    else:
        for key, val in obj.items():
            if key == "format":
                continue
            print(f"{key}: {json.dumps(val, sort_keys=True)}")


if __name__ == "__main__":
    sys.exit(main())
