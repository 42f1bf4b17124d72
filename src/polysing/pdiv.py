"""Polyhedral divisors on smooth curves: evaluation, degree, properness,
extremal data and curve-level cohomology dimensions."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from math import floor
from typing import Iterable, Mapping, Sequence

from .errors import NotProperError, UnboundedBelow, UnsupportedBase
from .polyhedra import (
    Cone,
    QuasiFan,
    SigmaPolyhedron,
    dual_cone,
    halfspaces,
    is_pointed,
    is_tail_trivial,
    minimal_generators,
    minkowski_sum,
    normal_quasifan,
    support_value,
    tail_polyhedron,
)
from .ratlin import dot, primitive

PROJECTIVE_LINE = "P1"
AFFINE_LINE = "A1"
ABSTRACT = "abstract"


@dataclass(frozen=True)
class Curve:
    """The base curve: P^1, A^1 (with coordinates), or an abstract smooth
    projective curve of genus >= 1 known only through its genus."""

    kind: str
    genus: int = 0

    def __post_init__(self):
        if self.kind in (PROJECTIVE_LINE, AFFINE_LINE) and self.genus != 0:
            raise ValueError("coordinate lines have genus 0")
        if self.kind == ABSTRACT and self.genus < 1:
            raise ValueError("abstract curves are reserved for genus >= 1")

    @property
    def projective(self) -> bool:
        return self.kind != AFFINE_LINE


P1 = Curve(PROJECTIVE_LINE)
A1 = Curve(AFFINE_LINE)


@dataclass(frozen=True, order=True)
class Point:
    """A closed point: (0, coord) for finite rational points, (1,) for infinity,
    (2, label) on abstract curves.  The tuple layout makes points sortable."""

    key: tuple

    @staticmethod
    def coord(value) -> "Point":
        return Point((0, Fraction(value)))

    @staticmethod
    def infinity() -> "Point":
        return Point((1, Fraction(0)))

    @staticmethod
    def label(name: str) -> "Point":
        return Point((2, name))

    @property
    def is_infinity(self) -> bool:
        return self.key[0] == 1

    @property
    def value(self):
        return self.key[1]

    def __str__(self) -> str:
        if self.key[0] == 1:
            return "inf"
        return str(self.key[1])


@dataclass(frozen=True)
class QDivisor:
    """Formal rational-coefficient sum of points; zero coefficients pruned."""

    terms: tuple[tuple[Point, Fraction], ...]

    @staticmethod
    def of(mapping: Mapping[Point, Fraction] | Iterable[tuple[Point, Fraction]]) -> "QDivisor":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        acc: dict[Point, Fraction] = {}
        for p, c in items:
            acc[p] = acc.get(p, Fraction(0)) + Fraction(c)
        return QDivisor(tuple(sorted((p, c) for p, c in acc.items() if c != 0)))

    def coefficient(self, p: Point) -> Fraction:
        for q, c in self.terms:
            if q == p:
                return c
        return Fraction(0)

    @property
    def degree(self) -> Fraction:
        return sum((c for _, c in self.terms), Fraction(0))

    def floor(self) -> "QDivisor":
        return QDivisor.of([(p, Fraction(floor(c))) for p, c in self.terms])

    def __add__(self, other: "QDivisor") -> "QDivisor":
        return QDivisor.of(list(self.terms) + list(other.terms))

    def scale(self, c) -> "QDivisor":
        return QDivisor.of([(p, Fraction(c) * v) for p, v in self.terms])

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.terms)


ZERO_DIVISOR = QDivisor(())


def default_canonical(base: Curve) -> QDivisor:
    if base.kind == PROJECTIVE_LINE:
        return QDivisor.of([(Point.infinity(), Fraction(-2))])
    if base.kind == AFFINE_LINE:
        return ZERO_DIVISOR
    raise UnsupportedBase("no canonical representative on an abstract curve")


def _memoized(fn):
    """Store fn(obj, *args, **kwargs) in obj._memo, keyed on fn and the
    arguments, so each result lives exactly as long as the object it describes."""

    @wraps(fn)
    def memoized(obj, *args, **kwargs):
        key = (fn, args, tuple(sorted(kwargs.items())))
        memo = obj._memo
        if key not in memo:
            memo[key] = fn(obj, *args, **kwargs)
        return memo[key]

    return memoized


@dataclass(frozen=True)
class PolyhedralDivisor:
    """Finitely many sigma-polyhedron coefficients on a curve, one tail cone.

    Analysis results are memoized in `_memo` and freed with the divisor.
    """

    base: Curve
    tail: Cone
    coeffs: tuple[tuple[Point, SigmaPolyhedron], ...]
    canonical: QDivisor = field(default=ZERO_DIVISOR)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)


def polyhedral_divisor(
    base: Curve,
    tail: Cone,
    coeffs: Mapping[Point, SigmaPolyhedron] | Iterable[tuple[Point, SigmaPolyhedron]],
    canonical: QDivisor | None = None,
) -> PolyhedralDivisor:
    items = list(coeffs.items() if isinstance(coeffs, Mapping) else coeffs)
    if not is_pointed(tail):
        raise ValueError("tail cone must be pointed")
    points = [p for p, _ in items]
    if len(points) != len(set(points)):
        raise ValueError("support points must be distinct")
    for p, poly in items:
        if poly.tail != tail:
            raise ValueError(f"coefficient at {p} has a different tail cone")
        if base.kind == AFFINE_LINE and p.is_infinity:
            raise ValueError("the affine line has no point at infinity")
        if base.kind == ABSTRACT and p.key[0] != 2:
            raise ValueError("abstract curve points carry labels, not coordinates")
    if canonical is None:
        canonical = default_canonical(base) if base.kind != ABSTRACT else ZERO_DIVISOR
    elif base.kind != ABSTRACT:
        if not canonical.is_integral():
            raise ValueError("canonical divisor must be integral")
        if base.kind == PROJECTIVE_LINE and canonical.degree != -2:
            raise ValueError(f"canonical divisor on P1 must have degree -2, not {canonical.degree}")
    return PolyhedralDivisor(base, tail, tuple(sorted(items)), canonical)


def rank(d: PolyhedralDivisor) -> int:
    return d.tail.ambient_rank


@_memoized
def support(d: PolyhedralDivisor) -> tuple[tuple[Point, SigmaPolyhedron], ...]:
    """Points whose coefficient differs from the tail cone."""
    return tuple((p, poly) for p, poly in d.coeffs if not is_tail_trivial(poly))


def coefficient_at(d: PolyhedralDivisor, p: Point) -> SigmaPolyhedron:
    for q, poly in d.coeffs:
        if q == p:
            return poly
    return tail_polyhedron(d.tail)


def evaluate(d: PolyhedralDivisor, u: Sequence) -> QDivisor:
    """The rational divisor with coefficient min <u, .> over each polyhedron."""
    terms = []
    for p, poly in support(d):
        val, _ = support_value(poly, u)
        terms.append((p, val))
    return QDivisor.of(terms)


def floor_degree(div: QDivisor) -> tuple[Fraction, int]:
    deg = div.degree
    fdeg = sum(floor(c) for _, c in div.terms)
    return deg, int(fdeg)


def deg_polyhedron(d: PolyhedralDivisor) -> SigmaPolyhedron:
    """Minkowski sum of all coefficients (projective base only).  The analysis
    reads deg D through `_deg_value` instead; this fold is the reference."""
    if not d.base.projective:
        raise UnsupportedBase("deg is defined over a projective base")
    total = tail_polyhedron(d.tail)
    for _, poly in support(d):
        total = minkowski_sum(total, poly)
    return total


@_memoized
def quasifan(d: PolyhedralDivisor) -> QuasiFan:
    """Normal quasifan of the divisor, cells tagged by support-point selections."""
    sup = support(d)
    return normal_quasifan([poly for _, poly in sup], d.tail)


@dataclass(frozen=True)
class Properness:
    status: str  # "proper" | "not_proper" | "inconclusive_genus"
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.status == "proper"


@_memoized
def _support_rows(d: PolyhedralDivisor) -> tuple[int, tuple]:
    """ell, the lcm of the support's denominators, and each support point's
    vertex rows over ell: the support as integers, one denominator throughout."""
    sup = support(d)
    ell = math.lcm(*[poly.den for _, poly in sup])
    scaled = [(ell // poly.den, poly.numerators) for _, poly in sup]
    return ell, tuple(tuple(tuple(x * k for x in r) for r in rows) for k, rows in scaled)


def _deg_value(d: PolyhedralDivisor, u: Sequence) -> int:
    """ell * min <u, deg D> = sum over the support of min <u, row>, for u in
    the dual of the tail: the support function of deg D without its
    polyhedron, scaled by the positive ell of `_support_rows`."""
    for g in d.tail.generators:
        if dot(u, g) < 0:
            raise UnboundedBelow(f"<{tuple(u)}, {g}> < 0 on a tail ray")
    return sum(min([dot(u, r) for r in rows]) for rows in _support_rows(d)[1])


@_memoized
def is_proper(d: PolyhedralDivisor) -> Properness:
    """Semi-ampleness plus bigness on the interior of the dual tail cone.

    On P^1 this amounts to deg D lying in the tail cone without containing the
    origin, decided by support values of deg D at the tail's half-spaces and
    at their sum, which is interior to the dual; degree-zero pieces on a
    genus >= 1 base are undecidable without curve arithmetic and come back as
    inconclusive.
    """
    if not d.base.projective:
        return Properness("proper")
    sigma = d.tail
    if not sigma.generators:
        # relint of the dual is all of M and the zero functional is never big
        return Properness("not_proper", tuple(0 for _ in range(sigma.ambient_rank)))
    if not support(d):
        return Properness("not_proper", _interior_sample(sigma))
    if d.base.kind == PROJECTIVE_LINE:
        hs = halfspaces(sigma)
        for h in hs:
            if _deg_value(d, h) < 0:
                return Properness("not_proper", h)
        # deg D lies in sigma, so it holds the origin iff its minimum at the
        # interior functional sum(hs) is 0
        inner = tuple(sum(h[i] for h in hs) for i in range(sigma.ambient_rank))
        if _deg_value(d, inner) <= 0:
            return Properness("not_proper", _interior_sample(sigma))
        return Properness("proper")
    # genus >= 1: decide by degrees alone
    status = "proper"
    for g in dual_cone(sigma).generators:
        val = _deg_value(d, g)
        if val < 0:
            return Properness("not_proper", g)
        if val == 0:
            status = "inconclusive_genus"
    return Properness(status)


def _interior_sample(sigma: Cone) -> tuple[int, ...]:
    gens = dual_cone(sigma).generators
    total = tuple(sum(g[i] for g in gens) for i in range(sigma.ambient_rank))
    return primitive(total)


def require_proper(d: PolyhedralDivisor) -> None:
    res = is_proper(d)
    if res.status != "proper":
        raise NotProperError(f"divisor is not proper (status {res.status}, witness {res.witness})")


@dataclass(frozen=True)
class ExtremalData:
    extremal_rays: tuple[tuple[int, ...], ...]
    non_extremal_rays: tuple[tuple[int, ...], ...]


@_memoized
def extremal_data(d: PolyhedralDivisor) -> ExtremalData:
    """Which tail rays survive on the contracted variety; every vertex does."""
    require_proper(d)
    rays = minimal_generators(d.tail)
    if not d.base.projective:
        return ExtremalData(tuple(rays), ())
    # r meets deg D iff min <u_r, deg D> = 0 for u_r interior to the face of
    # the dual tail that vanishes on r; in rank 1, u_r = 0
    hs = halfspaces(d.tail)
    n = rank(d)
    ext, non_ext = [], []
    for r in rays:
        u_r = tuple(sum(h[i] for h in hs if dot(h, r) == 0) for i in range(n))
        (non_ext if _deg_value(d, u_r) == 0 else ext).append(r)
    return ExtremalData(tuple(ext), tuple(non_ext))


def higher_direct_dims(d: PolyhedralDivisor, u: Sequence[int]) -> tuple[int, int]:
    """Dimensions (h0, h1) of the degree-u piece of the section ring and of the
    first cohomology, via line-bundle cohomology on P^1: the floor of
    D(u) has degree sum_p floor(min <u, D_p>), in integers only."""
    if d.base.kind != PROJECTIVE_LINE:
        raise UnsupportedBase("cohomology dimensions are computed on P^1 only")
    lattice = tuple(int(x) for x in u)
    if lattice != tuple(u):
        raise ValueError("u must be a lattice point")
    for g in d.tail.generators:
        if dot(lattice, g) < 0:
            raise UnboundedBelow("u lies outside the dual tail cone")
    fdeg = _floor_degree(_support_rows(d), lattice)
    return max(fdeg + 1, 0), max(-fdeg - 1, 0)


def _floor_degree(support_rows, u: Sequence[int]) -> int:
    """sum_p floor(min <u, D_p>) over `_support_rows`, for a lattice point u of
    the dual tail: min <u, row> // ell is that floor, as ell / den is a positive integer."""
    ell, rows = support_rows
    return sum(min([dot(u, r) for r in rs]) // ell for rs in rows)
