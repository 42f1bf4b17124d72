"""Singularity criteria for the variety of a proper polyhedral divisor:
smooth, isolated, rational, Cohen-Macaulay, discrepancies, log-terminal,
canonical type, elliptic."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .divclass import (
    GorensteinResult,
    class_group,
    gorenstein_solve,
    require_gorenstein,
)
from .errors import InternalCheck, UnsupportedBase, UnsupportedRank, UnsupportedShape
from .pdiv import (
    ABSTRACT,
    PROJECTIVE_LINE,
    Point,
    PolyhedralDivisor,
    QDivisor,
    _memoized,
    _support_rows,
    coefficient_at,
    evaluate,
    extremal_data,
    floor_degree,
    quasifan,
    rank,
    require_proper,
    support,
)
from .polyhedra import (
    Cone,
    _cayley_cone,
    cayley_cone,
    cone_dim,
    dual_cone,
    face_of_cone,
    halfspaces,
    is_regular,
    lattice_multiple,
    lattice_points,
    minimal_generators,
    tail_polyhedron,
)
from .ratlin import _adapted_basis, dot, matrix_rank, vec_add, vec_sub

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "inconclusive"
    witness: object = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.status == "yes"


@dataclass(frozen=True)
class BoundaryData:
    """Maximal vertex multiplicity per support point and the induced boundary divisor."""

    mu_max: tuple[tuple[Point, int], ...]
    boundary: QDivisor


def boundary_data(d: PolyhedralDivisor) -> BoundaryData:
    mus = []
    terms = []
    for p, poly in support(d):
        m = max(lattice_multiple(poly.den, row)[0] for row in poly.numerators)
        mus.append((p, m))
        terms.append((p, Fraction(m - 1, m)))
    return BoundaryData(tuple(mus), QDivisor.of(terms))


def _two_point_bicone(tail: Cone, ell: int, faces: Sequence[Sequence[tuple[int, ...]]]) -> Cone | None:
    """Cayley bicone of the coefficients with these vertex rows over ell, after
    translating lattice-point coefficients away; None when more than two
    coefficients resist such a translation."""
    n = tail.ambient_rank
    shift = (0,) * n
    nontrivial = []
    for rows in faces:
        if len(rows) == 1 and all(x % ell == 0 for x in rows[0]):
            shift = vec_add(shift, rows[0])
        else:
            nontrivial.append(rows)
    if len(nontrivial) > 2:
        return None
    delta_y, delta_z = nontrivial + [[(0,) * n]] * (2 - len(nontrivial))
    return _cayley_cone([(ell, [vec_add(r, shift) for r in delta_y], (1,)), (ell, delta_z, (-1,))], tail)


def _bicone_verdict(tail: Cone, ell: int, faces: Sequence[Sequence[tuple[int, ...]]]) -> Verdict:
    """Smoothness over P^1 of a proper divisor whose coefficients have these
    vertex rows over ell; lattice translates of the tail, the tail itself
    among them, are translated away."""
    bic = _two_point_bicone(tail, ell, faces)
    if bic is None:
        return Verdict("no", reason="more than two coefficients are not lattice translates of the tail")
    if is_regular(bic):
        return Verdict("yes", witness=[list(g) for g in bic.generators])
    return Verdict("no", witness=[list(g) for g in bic.generators], reason="bicone is not regular")


@_memoized
def check_smooth(d: PolyhedralDivisor) -> Verdict:
    """Smoothness of the associated variety.

    Over an affine base every fiber chart is a toric cone over a coefficient,
    so the test is regularity of those Cayley cones.  Over P^1 the divisor is
    first reduced modulo lattice translations compensated by principal
    divisors; it is smooth iff it reduces to two support points whose bicone
    is a regular cone.
    """
    require_proper(d)
    if not d.base.projective:
        for p, poly in support(d):
            if not is_regular(cayley_cone([(poly, (1,))])):
                return Verdict("no", witness=str(p), reason="singular toric chart at this point")
        if not is_regular(cayley_cone([(tail_polyhedron(d.tail), (1,))])):
            return Verdict("no", reason="the tail cone itself is not regular")
        return Verdict("yes")
    if d.base.kind == ABSTRACT:
        return Verdict("no", reason="a smooth complexity-one variety has base P^1 or an affine curve")
    return _bicone_verdict(d.tail, *_support_rows(d))


def _cell_faces(c: Cone) -> set[tuple[tuple[int, ...], ...]]:
    hs = halfspaces(c)
    # bit i of a generator's mask is set when it lies on the hyperplane of hs[i]
    masks = [sum(1 << i for i, h in enumerate(hs) if dot(h, g) == 0) for g in c.generators]
    faces = set()
    for size in range(len(hs) + 1):
        for sel in combinations([1 << i for i in range(len(hs))], size):
            s = sum(sel)
            faces.add(tuple(g for g, m in zip(c.generators, masks) if m & s == s))
    return faces


@_memoized
def check_isolated(d: PolyhedralDivisor) -> Verdict:
    """Isolatedness of the singular locus, by testing every facet of the divisor.

    A facet is a value of u in the dual tail where the joint minimizing face
    has codimension one somewhere on the curve.  Facets whose degree sum lands
    strictly inside the tail face must give a smooth contracted variety; the
    remaining facets only need regular fiber charts.  Faces, codimensions, the
    facet rule and the charts are read off integer vertex rows.
    """
    require_proper(d)
    if not d.base.projective:
        raise UnsupportedBase("the isolatedness test needs a projective base")
    n = rank(d)
    if cone_dim(d.tail) != n:
        raise UnsupportedShape("the isolatedness test needs a full-dimensional tail cone")
    sup = support(d)
    ell, rows = _support_rows(d)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for cell in quasifan(d).maximal_cells:
        for face_gens in _cell_faces(cell.cone):
            if not face_gens or face_gens in seen:
                continue
            seen.add(face_gens)
            u = tuple(sum(g[i] for g in face_gens) for i in range(n))
            tau = face_of_cone(d.tail, u)
            faces = []  # the rows of each point's face minimized by u
            for rs in rows:
                vals = [dot(u, r) for r in rs]
                best = min(vals)
                faces.append([r for v, r in zip(vals, rs) if v == best])
            codims = [n - matrix_rank([vec_sub(r, f[0]) for r in f[1:]] + [*tau.generators]) for f in faces]
            codims.append(n - cone_dim(tau))
            if min(codims) != 1:
                continue
            # the face sum lies in tau and misses 0 iff its support values (ell times them)
            # are >= 0 at tau's half-spaces and > 0 at their sum; the "> 0" half makes this
            # is_proper's rule for the facet divisor on P^1, so no require_proper there.
            # On a genus >= 1 base a proper divisor has <u, face sum> > 0, so it never holds.
            hs = halfspaces(tau)
            inner = tuple(sum(h[i] for h in hs) for i in range(n))
            vals = [sum(min(dot(h, r) for r in f) for f in faces) for h in (*hs, inner)]
            if min(vals[:-1], default=0) >= 0 and vals[-1] > 0:
                ok = _bicone_verdict(tau, ell, faces)
                if not ok:
                    return Verdict("no", witness=list(u), reason=f"facet variety is singular: {ok.reason}")
            else:
                for (p, _), f in zip(sup, faces):
                    if not is_regular(_cayley_cone([(ell, f, (1,))], tau)):
                        return Verdict(
                            "no", witness=list(u), reason=f"singular fiber chart at {p} on this facet"
                        )
                if not is_regular(_cayley_cone([(1, [(0,) * n], (1,))], tau)):
                    return Verdict("no", witness=list(u), reason="singular generic chart on this facet")
    return Verdict("yes")


@_memoized
def check_rational(d: PolyhedralDivisor, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Rationality of the singularities.

    Affine bases are toroidal; a positive-genus base always fails at u = 0.
    On P^1 the floor degree of every evaluation must stay >= -1: per quasifan
    cell only lattice points with degree at most the fractional-part budget
    can fail, and along the degree-zero face the floor pattern is periodic, so
    a finite slab of representatives decides the cell exactly.
    """
    require_proper(d)
    if not d.base.projective:
        return Verdict("yes", reason="affine base: toroidal, hence rational")
    if d.base.kind == ABSTRACT:
        return Verdict("no", witness=[0] * rank(d), reason="structure sheaf has higher cohomology")
    n = rank(d)
    worst: tuple[int, ...] | None = None
    worst_val = 0
    for cell in quasifan(d).maximal_cells:
        res = _scan_cell(d, cell, budget)
        if res[0] == "budget":
            return Verdict("inconclusive", reason="enumeration budget exceeded")
        if res[0] == "no":
            return Verdict("no", witness={"u": list(res[1]), "floor_degree": res[2]})
        if res[1] is not None and res[2] < worst_val:
            worst, worst_val = res[1], res[2]
    payload = None if worst is None else {"u": list(worst), "floor_degree": worst_val}
    return Verdict("yes", witness=payload)


def _scan_cell(d: PolyhedralDivisor, cell, budget: int):
    """Exact scan of one quasifan cell; returns ("ok", worst_u, worst_val),
    ("no", u, val) or ("budget",)."""
    n = rank(d)
    # each selected vertex as (mu, integer row): floor(<u, v>) = <u, row> // mu
    int_sel = [lattice_multiple(poly.den, row) for (_, poly), row in zip(support(d), cell.selection)]
    ell = math.lcm(*[m for m, _ in int_sel])
    # ell times the degree bound s_f - 1, where s_f sums (m - 1) / m
    bound = sum((m - 1) * (ell // m) for m, _ in int_sel) - ell
    if bound < 0:
        # floors lose less than one in total, so every value stays above -1
        return ("ok", None, 0)
    # ell times the degree direction; a positive scale keeps every sign test,
    # the slab's ceil ratio and the lattice points of the degree-bound row
    w_deg = tuple(sum(row[i] * (ell // m) for m, row in int_sel) for i in range(n))
    gens = cell.cone.generators
    f_gens = [g for g in gens if dot(g, w_deg) == 0]
    if any(dot(g, w_deg) < 0 for g in gens):
        raise InternalCheck("properness bounds the degree below")
    basis, inverse, k = _adapted_basis(f_gens, n)
    # the coordinates c with c . basis = g are g . basis^-1; the slab direction
    # w0 is the sum of the degree-zero generators, interior to their face
    f_sum = [sum(g[j] for g in f_gens) for j in range(n)]
    w0 = tuple(sum(f_sum[j] * inverse[j][i] for j in range(n)) for i in range(k))

    def to_u(c: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(c[i] * basis[i][j] for i in range(n)) for j in range(n))

    def phi(u) -> int:
        return sum(dot(u, row) // m for m, row in int_sel)

    # constraints a.x >= b in adapted coordinates: the cell's half-spaces plus
    # the degree bound, all on integers
    constraints = [(tuple(dot(basis[i], h) for i in range(n)), 0) for h in halfspaces(cell.cone)]
    constraints.append((tuple(-dot(basis[i], w_deg) for i in range(n)), -bound))
    rows_x = [(a[:k], a[k:], b) for a, b in constraints if any(a[:k])]
    if any(dot(ax, w0) <= 0 for ax, _, _ in rows_x):
        raise InternalCheck("slab direction must strictly satisfy every slice constraint")
    rows_y = [(a[k:], b) for a, b in constraints if not any(a[:k])]

    # the transversal part ranges over the projected cell cut by the degree
    # bound: every generator off the degree-zero face has positive degree
    # (checked above), so that region is bounded
    worst_u, worst_val = None, 0
    slab = ell**k
    count = 0
    for y in lattice_points([a for a, _ in rows_y], [b for _, b in rows_y], n - k):
        count += 1
        if count * slab > budget:
            return ("budget",)
        s = 0
        for ax, ay, b in rows_x:
            slack = b - dot(ay, y) - sum(min(a, 0) * (ell - 1) for a in ax)
            if slack > 0:
                s = max(s, -(-slack // dot(ax, w0)))
        base_x = tuple(s * w for w in w0)
        for xi in product(range(ell), repeat=k):
            x = tuple(bb + o for bb, o in zip(base_x, xi))
            u = to_u(x + y)
            val = phi(u)
            if val < -1:
                return ("no", u, val)
            if val < worst_val:
                worst_u, worst_val = u, val
    return ("ok", worst_u, worst_val)


@dataclass(frozen=True)
class CMResult:
    status: str  # "yes" | "iff_rational" | "inconclusive"
    reason: str = ""
    resolved: Verdict | None = None

    def holds(self) -> bool | None:
        if self.status == "yes":
            return True
        if self.status == "iff_rational" and self.resolved is not None:
            if self.resolved.status == "inconclusive":
                return None
            return bool(self.resolved)
        return None


def check_cm(d: PolyhedralDivisor, budget: int = DEFAULT_BUDGET) -> CMResult:
    """Cohen-Macaulayness where a criterion applies: affine bases and surfaces
    are always CM; with every tail ray surviving, or with isolated
    singularities in rank >= 2, CM is equivalent to rationality."""
    require_proper(d)
    if not d.base.projective:
        return CMResult("yes", "affine base: toroidal singularities")
    if rank(d) == 1:
        return CMResult("yes", "normal surfaces are Cohen-Macaulay")
    ext = extremal_data(d)
    if not ext.non_extremal_rays:
        return CMResult(
            "iff_rational", "all tail rays survive contraction", check_rational(d, budget)
        )
    try:
        iso = check_isolated(d)
    except (UnsupportedBase, UnsupportedShape):
        iso = None
    if iso is not None and iso.status == "yes":
        return CMResult(
            "iff_rational", "isolated singularities in rank >= 2", check_rational(d, budget)
        )
    return CMResult("inconclusive", "no Cohen-Macaulay criterion applies")


@dataclass(frozen=True)
class DiscrepancyEntry:
    kind: str  # "vertex" | "ray"
    point: Point | None
    vertex: tuple[Fraction, ...] | None
    ray: tuple[int, ...] | None
    value: Fraction
    exceptional: bool


@dataclass(frozen=True)
class DiscrepancyReport:
    entries: tuple[DiscrepancyEntry, ...]

    def minimum(self) -> Fraction:
        return min((e.value for e in self.entries), default=Fraction(0))


def discrepancies(d: PolyhedralDivisor, sol: GorensteinResult) -> DiscrepancyReport:
    """Discrepancies of the toroidal contraction, per vertex and per tail ray.

    Vertex values over a curve are zero (every vertex survives); the
    informative entries sit on the contracted rays.
    """
    solution = require_gorenstein(sol)
    ext = extremal_data(d)
    u = solution.u
    entries = []
    for p, a_p in solution.a:
        b_p = d.canonical.coefficient(p)
        poly = coefficient_at(d, p)
        for v, row in zip(poly.vertices, poly.numerators):
            m, mv = lattice_multiple(poly.den, row)
            val = m * (b_p - a_p + 1) - dot(u, mv) - 1
            entries.append(DiscrepancyEntry("vertex", p, v, None, val, False))
    ext_set = set(ext.extremal_rays)
    for r in minimal_generators(d.tail):
        val = -1 - dot(u, r)
        entries.append(DiscrepancyEntry("ray", None, None, r, Fraction(val), r not in ext_set))
    return DiscrepancyReport(tuple(entries))


def check_log_terminal(d: PolyhedralDivisor) -> Verdict:
    """Log-terminality for a Q-Gorenstein divisor: affine bases qualify, on P^1
    the boundary multiplicities must sum below two.  The verdict is recomputed
    from the discrepancy report, and both computations must agree."""
    require_proper(d)
    sol = require_gorenstein(gorenstein_solve(d))
    if not d.base.projective:
        verdict = Verdict("yes", reason="affine base: toric singularities are log-terminal")
    else:
        bd = boundary_data(d)
        total = bd.boundary.degree
        if total < 2:
            verdict = Verdict("yes", witness=str(total), reason="boundary multiplicity sum below 2")
        else:
            verdict = Verdict("no", witness=str(total), reason="boundary multiplicity sum reaches 2")
    report = discrepancies(d, sol)
    via_discr = all(e.value > -1 for e in report.entries)
    if via_discr != bool(verdict):
        raise InternalCheck("boundary-sum and discrepancy criteria disagree")
    return verdict


@dataclass(frozen=True)
class CanonicalType:
    label: str  # "A" | "D" | "E" | "not_canonical"
    param: int | None
    index: int
    u0: Fraction
    reason: str = ""

    @property
    def canonical(self) -> bool:
        return self.label in ("A", "D", "E")


def classify_canonical(d: PolyhedralDivisor) -> CanonicalType:
    """Canonical-type classification of a rank-one section ring over P^1.

    Canonical is equivalent to Gorenstein (index one) plus log-terminal; the
    label then follows from the multiplicity profile, with the cyclic case
    labelled by the order of the class group (A(0) meaning a regular ring).
    """
    if rank(d) != 1:
        raise UnsupportedRank("the canonical classification is for rank one")
    if d.base.kind != PROJECTIVE_LINE:
        raise UnsupportedBase("the canonical classification lives over P^1")
    require_proper(d)
    sol = gorenstein_solve(d)
    solution = require_gorenstein(sol)
    u0 = solution.u[0]
    idx = solution.index
    bd = boundary_data(d)
    if bd.boundary.degree >= 2:
        return CanonicalType("not_canonical", None, idx, u0, "not log-terminal")
    if idx != 1:
        return CanonicalType("not_canonical", None, idx, u0, f"Gorenstein index {idx} exceeds 1")
    if u0 * d.tail.generators[0][0] > -1:
        raise InternalCheck("index one and log-terminal force <u0, tail ray> <= -1")
    profile = sorted(m for _, m in bd.mu_max if m > 1)
    if len(profile) <= 2:
        cg = class_group(d)
        order = 1
        for t in cg.torsion:
            order *= t
        return CanonicalType("A", order - 1, idx, u0)
    if profile[:2] == [2, 2]:
        return CanonicalType("D", profile[2] + 2, idx, u0)
    if profile[0] == 2 and profile[1] == 3 and profile[2] in (3, 4, 5):
        return CanonicalType("E", profile[2] + 3, idx, u0)
    raise InternalCheck("log-terminal profiles are Platonic")


@dataclass(frozen=True)
class EllipticResult:
    status: str  # "elliptic" | "not_elliptic"
    minimal: bool | None = None
    witness_u: int | None = None
    index: int | None = None

    def __bool__(self) -> bool:
        return self.status == "elliptic"


def check_elliptic(d: PolyhedralDivisor) -> EllipticResult:
    """Elliptic singularity test for rank-one divisors over P^1: the floor
    degree must reach -2 at exactly one positive degree and never fall below;
    minimal means Gorenstein on top."""
    if rank(d) != 1:
        raise UnsupportedRank("the elliptic test is for rank one")
    if d.base.kind == ABSTRACT:
        raise UnsupportedBase("elliptic-curve bases are out of scope")
    if not d.base.projective:
        return EllipticResult("not_elliptic")
    require_proper(d)
    egen = dual_cone(d.tail).generators[0]
    d1 = evaluate(d, egen)
    deg = d1.degree
    bd = boundary_data(d)
    s_f = bd.boundary.degree
    bound = math.ceil((s_f + 2) / deg)
    hits = []
    for t in range(1, bound + 1):
        _, fdeg = floor_degree(d1.scale(t))
        if fdeg < -2:
            return EllipticResult("not_elliptic")
        if fdeg == -2:
            hits.append(t)
    if len(hits) != 1:
        return EllipticResult("not_elliptic")
    solution = require_gorenstein(gorenstein_solve(d))
    return EllipticResult("elliptic", solution.index == 1, hits[0], solution.index)
