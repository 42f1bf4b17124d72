"""Divisor class group, Q-factoriality, the canonical-class linear system,
factoriality determinant, and semi-invariant generator degrees."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InternalCheck,
    NoGlobalEquation,
    NotQGorensteinError,
    UnsupportedBase,
    UnsupportedShape,
)
from .pdiv import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    Point,
    PolyhedralDivisor,
    QDivisor,
    _memoized,
    extremal_data,
    rank,
    require_proper,
    support,
)
from .polyhedra import cone_dim, lattice_multiple, tail_polyhedron
from .ratlin import (
    Inconsistent,
    SmithForm,
    Underdetermined,
    Unique,
    determinant,
    mu,
    smith_normal_form,
    smith_solve,
)


@dataclass(frozen=True)
class SystemData:
    """Shared layout of the canonical-class system and the class-group relations.

    Points are supp D together with the support of the chosen canonical
    representative; the vertex at a canonical-only point is the tail vertex 0.
    """

    points: tuple[Point, ...]
    b: tuple[Fraction, ...]  # canonical coefficient per point
    vertices: tuple[tuple[int, int, tuple[int, ...]], ...]  # (point idx, mu, mu * v)
    extremal_rays: tuple[tuple[int, ...], ...]
    n: int  # lattice rank


def _system_data(d: PolyhedralDivisor) -> SystemData:
    require_proper(d)
    if d.base.kind not in (PROJECTIVE_LINE, AFFINE_LINE):
        raise UnsupportedBase("class-group computations need P^1 or the affine line")
    ext = extremal_data(d)
    sup = dict(support(d))
    pts = sorted(set(sup) | {p for p, _ in d.canonical.terms})
    trivial = tail_polyhedron(d.tail)
    verts = []
    for i, p in enumerate(pts):
        poly = sup.get(p, trivial)
        verts += [(i, *lattice_multiple(poly.den, row)) for row in poly.numerators]
    b = tuple(d.canonical.coefficient(p) for p in pts)
    return SystemData(tuple(pts), b, tuple(verts), ext.extremal_rays, rank(d))


def _monster_rows(data: SystemData, class_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The divisor-class system with columns (a_1..a_s, u).

    Rows are the given numerical-class rows over the points (padded with zeros
    on u), then (mu_v e_i | mu_v v) per vertex and (0 | rho) per extremal ray.
    Its transpose, with the point rows negated, is the class-group relation
    matrix, so class group, factoriality, the canonical class and the
    generator degrees all read this one matrix.
    """
    s = len(data.points)
    rows = [[int(x) for x in row] + [0] * data.n for row in class_rows]
    for i, m, mv in data.vertices:
        row = [0] * s
        row[i] = m
        rows.append(row + list(mv))
    for r in data.extremal_rays:
        rows.append([0] * s + list(r))
    return rows


def _class_rows(d: PolyhedralDivisor, data: SystemData) -> list[list[int]]:
    """Numerical-class rows over the points: the degree on P^1, none on A^1."""
    return [[1] * len(data.points)] if d.base.projective else []


@_memoized
def _class_system(d: PolyhedralDivisor) -> tuple[SystemData, list]:
    """The layout and the divisor-class matrix of d; every reader of the
    system shares it."""
    data = _system_data(d)
    return data, _monster_rows(data, _class_rows(d, data))


@_memoized
def _class_smith(d: PolyhedralDivisor) -> SmithForm:
    """Smith form of the divisor-class matrix; the class group reads its
    diagonal, the canonical class and generator degrees back-substitute."""
    return smith_normal_form(_class_system(d)[1])


@dataclass(frozen=True)
class ClassGroup:
    """Invariant factors of Cl(X)."""

    torsion: tuple[int, ...]
    free_rank: int
    q_factorial: bool


@_memoized
def class_group(d: PolyhedralDivisor) -> ClassGroup:
    """Invariant factors of the divisor class group.

    Generators are the base point class (projective case), one divisor per
    (point, vertex) pair and one per extremal ray, i.e. the rows of the
    divisor-class system; relations identify each point class with its vertex
    multiples and kill the principal characters, i.e. its columns.  A matrix
    and its transpose share their invariant factors, so the Smith form of the
    system gives the group, with one generator per row.  Points outside the
    support are pre-eliminated.
    """
    data, rows = _class_system(d)
    sf = _class_smith(d)
    torsion = tuple(x for x in sf.diagonal if x > 1)
    free = len(rows) - sf.rank
    q_fact = free == 0
    if cone_dim(d.tail) == data.n:
        # relation rows are independent for a full-dimensional tail, so the
        # Smith free rank must agree with the ray/vertex dimension count
        per_point = sum(len(poly.numerators) - 1 for _, poly in support(d))
        r_cl = 1 if d.base.projective else 0
        count_ok = r_cl + per_point + len(data.extremal_rays) == data.n
        if q_fact != count_ok:
            raise InternalCheck("Smith rank and ray/vertex count disagree")
    return ClassGroup(torsion, free, q_fact)


@dataclass(frozen=True)
class GorensteinSolution:
    """Solution of the canonical-class system: K_X = pi^*(sum a_i Z_i) + div(chi^u)."""

    a: tuple[tuple[Point, Fraction], ...]
    u: tuple[Fraction, ...]
    index: int
    principality_checked: bool = True


@dataclass(frozen=True)
class NotQGorenstein:
    reason: str


GorensteinResult = GorensteinSolution | NotQGorenstein


def _solve_canonical(
    data: SystemData, smith: SmithForm
) -> tuple[tuple[tuple[Point, Fraction], ...], tuple[Fraction, ...], int] | NotQGorenstein:
    """Solve the divisor-class system for K_X over its Smith form: right-hand
    side 0 on the class rows, mu_v*b_i + mu_v - 1 per vertex and -1 per
    extremal ray.

    Returns (a, u, index) with the index the lcm of all denominators.
    """
    rhs = [Fraction(0)] * (len(smith.left) - len(data.vertices) - len(data.extremal_rays))
    rhs += [m * data.b[i] + m - 1 for i, m, _ in data.vertices]
    rhs += [Fraction(-1)] * len(data.extremal_rays)
    sol = smith_solve(smith, rhs)
    if isinstance(sol, Inconsistent):
        return NotQGorenstein("canonical-class system is inconsistent")
    s = len(data.points)
    # a system without rows has a Smith form without columns: its empty
    # solution leaves every unknown free
    if isinstance(sol, Underdetermined) or len(sol.x) < s + data.n:
        raise UnsupportedShape("canonical-class system is underdetermined")
    return tuple(zip(data.points, sol.x[:s])), sol.x[s:], mu(sol.x)


@_memoized
def gorenstein_solve(d: PolyhedralDivisor) -> GorensteinResult:
    """Solve for (a, u) with K_X = pi^*(sum a_i Z_i) + div(chi^u).

    The index is the least l with l*u integral and l * sum a_i Z_i principal;
    on P^1 principality is integrality plus degree zero (degree zero already
    being forced by the class row).
    """
    require_proper(d)
    if d.base.kind not in (PROJECTIVE_LINE, AFFINE_LINE):
        raise UnsupportedBase("the canonical-class system needs P^1 or the affine line")
    if cone_dim(d.tail) != rank(d):
        raise UnsupportedShape("the canonical-class system needs a full-dimensional tail cone")
    data, _ = _class_system(d)
    res = _solve_canonical(data, _class_smith(d))
    if isinstance(res, NotQGorenstein):
        return res
    result = GorensteinSolution(*res)
    if rank(d) == 1 and d.base.projective:
        _check_rank_one_path(d, result)
    return result


def _check_rank_one_path(d: PolyhedralDivisor, res: GorensteinSolution) -> None:
    """Cross-check the full solve against the degree formula u0 = deg(K+B)/deg(D1)."""
    # in rank one every point of the system carries exactly one vertex
    verts = _class_system(d)[0].vertices
    denom = sum(Fraction(mv[0], m) for _, m, mv in verts)
    if denom == 0:
        return
    u0 = (d.canonical.degree + sum(Fraction(m - 1, m) for _, m, _ in verts)) / denom
    if res.u != (u0,):
        raise InternalCheck(f"rank-1 fast path disagrees: {res.u} vs {u0}")


def _lattice_multiple(v: Sequence) -> tuple[int, tuple[int, ...]]:
    """(mu, mu * v) of a vertex given by int or Fraction coordinates."""
    vq = [Fraction(x) for x in v]
    m = mu(vq)
    return m, tuple(int(x * m) for x in vq)


def gorenstein_solve_numerical(
    classes: Sequence[Sequence[int]],
    b: Sequence[Fraction],
    vertex_lists: Sequence[Sequence[Sequence[Fraction]]],
    extremal_rays: Sequence[Sequence[int]],
    lattice_rank: int,
) -> GorensteinResult:
    """User-supplied-numerical-class mode for a general projective base.

    Principality of sum a_i Z_i beyond its numerical class cannot be decided
    here, so the returned index only accounts for integrality and the result
    is flagged accordingly.
    """
    s = len(classes)
    if len(b) != s or len(vertex_lists) != s:
        raise ValueError("per-point data lengths disagree")
    data = SystemData(
        tuple(Point.label(f"Z{i+1}") for i in range(s)),
        tuple(Fraction(x) for x in b),
        tuple((i, *_lattice_multiple(v)) for i, verts in enumerate(vertex_lists) for v in verts),
        tuple(tuple(int(x) for x in ray) for ray in extremal_rays),
        lattice_rank,
    )
    rows = _monster_rows(data, list(zip(*classes, strict=True)))
    res = _solve_canonical(data, smith_normal_form(rows))
    if isinstance(res, NotQGorenstein):
        return res
    return GorensteinSolution(*res, principality_checked=False)


@dataclass(frozen=True)
class Factoriality:
    factorial: bool
    det: int | None
    shape: tuple[int, int]


@_memoized
def factoriality_det(d: PolyhedralDivisor) -> Factoriality:
    """Square system with determinant +-1 characterizes a trivial class group."""
    data, rows = _class_system(d)
    m = len(rows)
    n_cols = len(data.points) + data.n
    if m != n_cols:
        return Factoriality(False, None, (m, n_cols))
    det = int(determinant(rows))
    return Factoriality(abs(det) == 1, det, (m, n_cols))


def generator_degrees(d: PolyhedralDivisor, target) -> tuple[tuple[int, ...], QDivisor]:
    """Degree u and divisor of f for the semi-invariant cutting out one prime divisor.

    target is either (point, vertex) or a tail-ray tuple; needs a trivial class
    group so that the equation exists, and integrality then comes for free from
    the unimodular system.  A point outside the system carries only the vertex
    0, whose row fixes a = 1 there; what remains is the system itself with -1
    on the degree row.
    """
    if d.base.kind != PROJECTIVE_LINE:
        raise UnsupportedBase("generator degrees are computed over P^1")
    cg = class_group(d)
    if cg.torsion or cg.free_rank:
        raise NoGlobalEquation("nontrivial class group: no global equation for one prime divisor")
    on_point = isinstance(target, tuple) and len(target) == 2 and isinstance(target[0], Point)
    data, _ = _class_system(d)
    outside = False
    if on_point:
        key = (target[0], *_lattice_multiple(target[1]))
        hits = [(data.points[i], m, mv) == key for i, m, mv in data.vertices]
        hits += [False] * len(data.extremal_rays)
        outside = target[0] not in data.points and key[2] == (0,) * data.n
    else:
        ray = tuple(int(x) for x in target)
        hits = [False] * len(data.vertices) + [r == ray for r in data.extremal_rays]
    if not (outside or any(hits)):
        raise ValueError("target vertex not found" if on_point else "target ray is not an extremal ray")
    rhs = [-1 if outside else 0] + [int(h) for h in hits]
    sol = smith_solve(_class_smith(d), rhs)
    if not isinstance(sol, Unique):
        raise InternalCheck("trivial class group guarantees a unique solution")
    s = len(data.points)
    a = sol.x[:s]
    u = sol.x[s:]
    if any(x.denominator != 1 for x in sol.x):
        raise InternalCheck("unimodular system must solve integrally")
    terms = list(zip(data.points, a))
    if outside:
        terms.append((target[0], Fraction(1)))
    f_div = QDivisor.of(terms)
    return tuple(int(x) for x in u), f_div


def require_gorenstein(res: GorensteinResult) -> GorensteinSolution:
    if isinstance(res, NotQGorenstein):
        raise NotQGorensteinError(res.reason)
    return res
