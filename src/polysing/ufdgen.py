"""Constructing factorial rings from multiplicity data on P^1: the inductive
divisor construction, trinomial ring presentations, a brute-force graded
dimension comparison, and the classification of the isolated cases."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence

from .divclass import factoriality_det, generator_degrees
from .errors import ConstructionFailed, DegenerateInput, InternalCheck, UnsupportedBase
from .pdiv import (
    P1,
    Point,
    PolyhedralDivisor,
    _floor_degree,
    _memoized,
    _support_rows,
    coefficient_at,
    polyhedral_divisor,
    rank,
)
from .polyhedra import cone_dim, halfspaces, lattice_multiple, lattice_points, make_cone, sigma_polyhedron
from .ratlin import dot, ext_gcd, ext_gcd_multi, scale_to_int
from .singcheck import check_isolated


@dataclass(frozen=True)
class AdmissibleData:
    """Entries (point, multiplicity tuple) with pairwise coprime tuple gcds.

    The constructed divisor is memoized in `_memo` and freed with the data.
    """

    entries: tuple[tuple[Point, tuple[int, ...]], ...]
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def extra_rank(self) -> int:
        return sum(len(t) - 1 for _, t in self.entries)

    @property
    def dimension(self) -> int:
        return 2 + self.extra_rank


def admissible_data(entries: Sequence[tuple[Point, Sequence[int]]]) -> AdmissibleData:
    items = [(p, tuple(int(m) for m in t)) for p, t in entries]
    if not items:
        raise DegenerateInput("need at least one entry")
    points = [p for p, _ in items]
    if len(points) != len(set(points)):
        raise DegenerateInput("entry points must be distinct")
    for _, t in items:
        if not t or any(m < 1 for m in t):
            raise DegenerateInput("multiplicities must be positive")
    gcds = [math.gcd(*t) for _, t in items]
    for i in range(len(gcds)):
        for j in range(i + 1, len(gcds)):
            if math.gcd(gcds[i], gcds[j]) != 1:
                raise DegenerateInput("tuple gcds must be pairwise coprime")
    return AdmissibleData(tuple(items))


def default_points(count: int) -> list[Point]:
    pts = [Point.infinity(), Point.coord(0)]
    pts += [Point.coord(i) for i in range(1, max(count - 1, 1))]
    return pts[:count]


def _build_vertices(mus: list[tuple[int, ...]]):
    """Vertex vectors per entry, recursing on the total tuple length.

    Base case: singleton tuples get c_i / mu_i on a line, with the Bezout
    identity taken on the complementary products.  Induction: split the last
    two members of the first long tuple through their gcd and spread them into
    a fresh coordinate.
    """
    j = next((i for i, t in enumerate(mus) if len(t) > 1), None)
    if j is None:
        vals = [t[0] for t in mus]
        total = math.prod(vals)
        partials = [total // v for v in vals]
        g, coeffs = ext_gcd_multi(partials)
        if g != 1:
            raise DegenerateInput("complementary products are not coprime")
        if sum(c * p for c, p in zip(coeffs, partials)) != 1:
            raise InternalCheck("base coefficients must be a Bezout certificate of 1")
        return [[(Fraction(c, v),)] for c, v in zip(coeffs, vals)]
    mu_a, mu_b = mus[j][-2], mus[j][-1]
    g, alpha, beta = ext_gcd(mu_a, mu_b)
    if alpha * mu_a + beta * mu_b != g:
        raise InternalCheck("split coefficients must be a Bezout certificate of the gcd")
    sub_mus = list(mus)
    sub_mus[j] = mus[j][:-2] + (g,)
    sub = _build_vertices(sub_mus)
    out = []
    for i, verts in enumerate(sub):
        if i != j:
            out.append([v + (Fraction(0),) for v in verts])
        else:
            prefix = verts[-1]
            new = [v + (Fraction(0),) for v in verts[:-1]]
            new.append(prefix + (Fraction(-beta, mu_a),))
            new.append(prefix + (Fraction(alpha, mu_b),))
            out.append(new)
    return out


@_memoized
def construct_divisor(data: AdmissibleData) -> PolyhedralDivisor:
    """Polyhedral divisor with factorial section ring for the given data.

    The divisor is built once, from the default Bezout coefficients, and
    verified through the determinant criterion; a failure is an error rather
    than an unverified return.
    """
    verts = _build_vertices([t for _, t in data.entries])
    n = data.extra_rank + 1
    rays = []
    for pick in product(*verts):
        total = tuple(sum(v[i] for v in pick) for i in range(n))
        rays.append(scale_to_int(total))
    tail = make_cone(rays, n)
    coeffs = {p: sigma_polyhedron(vs, tail) for (p, _), vs in zip(data.entries, verts)}
    d = polyhedral_divisor(P1, tail, coeffs)
    if abs(factoriality_det(d).det or 0) != 1:
        raise ConstructionFailed("the constructed divisor fails the determinant check")
    return d


def _var_name(i: int, j: int, r_i: int) -> str:
    return f"T{i + 1}" if r_i == 1 else f"T{i + 1}{j + 1}"


def _monomial(names: Sequence[str], exps: Sequence[int]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class Presentation:
    """Trinomial complete-intersection presentation of the section ring."""

    variables: tuple[str, ...]
    degrees: tuple[tuple[int, ...], ...]
    relations: tuple[str, ...]
    leads: tuple[tuple[int, ...], ...]
    dimension: int


def _normalized_coordinates(points: Sequence[Point]) -> list[Fraction]:
    """Images of points 3.. under the Moebius map sending the first three
    points to infinity, 0, 1: the cross ratio
    det(p, z2) det(z3, z1) / (det(p, z1) det(z3, z2)) in homogeneous
    coordinates t = [t:1], infinity = [1:0]."""

    def hom(p: Point) -> tuple[Fraction, Fraction]:
        return (Fraction(1), Fraction(0)) if p.is_infinity else (p.value, Fraction(1))

    def det(a, b) -> Fraction:
        return a[0] * b[1] - a[1] * b[0]

    if len(points) < 3:
        return []
    z1, z2, z3 = (hom(p) for p in points[:3])
    return [det(q, z2) * det(z3, z1) / (det(q, z1) * det(z3, z2)) for q in map(hom, points[2:])]


def presentation(data: AdmissibleData, divisor: PolyhedralDivisor | None = None) -> Presentation:
    """Variables, trinomial relations and multidegrees for the data's ring.

    Needs at least two entries: with a single one the vertex divisors alone do
    not generate (the ring is still a polynomial ring, but of higher dimension).
    """
    s = len(data.entries)
    if s < 2:
        raise DegenerateInput("a presentation needs at least two entries")
    points = [p for p, _ in data.entries]
    if len(set(points)) != s:
        raise DegenerateInput("entry points must be distinct")
    mus = [t for _, t in data.entries]
    names: list[str] = []
    var_index: dict[tuple[int, int], int] = {}
    for i, t in enumerate(mus):
        for j in range(len(t)):
            var_index[(i, j)] = len(names)
            names.append(_var_name(i, j, len(t)))
    if divisor is None:
        divisor = construct_divisor(data)
    degrees: list[tuple[int, ...]] = []
    for p, t in data.entries:
        poly = coefficient_at(divisor, p)
        if len(poly.numerators) != len(t):
            raise InternalCheck("one vertex per tuple member")
        # vertices are stored sorted; realign with the tuple through the
        # multiplicity (ties are symmetric in the relations, so any order works)
        by_mu: dict[int, list] = {}
        for v, row in zip(poly.vertices, poly.numerators):
            by_mu.setdefault(lattice_multiple(poly.den, row)[0], []).append(v)
        for m in t:
            v = by_mu[m].pop(0)
            u, _ = generator_degrees(divisor, (p, v))
            degrees.append(u)
    zs = _normalized_coordinates(points)
    relations = []
    leads = []
    nvar = len(names)
    for i in range(2, s):
        lead = [0] * nvar
        second = [0] * nvar
        third = [0] * nvar
        for j, m in enumerate(mus[i]):
            lead[var_index[(i, j)]] = m
        for j, m in enumerate(mus[1]):
            second[var_index[(1, j)]] = m
        for j, m in enumerate(mus[0]):
            third[var_index[(0, j)]] = m
        z = zs[i - 2]
        zstr = "" if z == 1 else f"{z}*"
        relations.append(
            f"{_monomial(names, lead)} + {_monomial(names, second)} - {zstr}{_monomial(names, third)}"
        )
        leads.append(tuple(lead))
    return Presentation(tuple(names), tuple(degrees), tuple(relations), tuple(leads), data.dimension)


@dataclass(frozen=True)
class HilbertComparison:
    match: bool
    first_mismatch: int | None
    dims: tuple[int, ...]


def hilbert_compare(
    d: PolyhedralDivisor,
    variables: Sequence[tuple[int, ...]],
    leads: Sequence[tuple[int, ...]],
    weight: Sequence[int],
    d_max: int,
) -> HilbertComparison:
    """Compare graded dimensions of the section ring against monomial counts.

    Side A sums cohomology dimensions over the lattice degrees of each weight;
    side B counts monomials avoiding every relation's leading monomial, which
    is exact because the leading monomials live in disjoint variable groups:
    the monomial series times prod(1 - t^lead weight), truncated at d_max.
    """
    if d_max < 0:
        raise DegenerateInput("the degree bound d_max must be nonnegative")
    n = rank(d)
    if cone_dim(d.tail) != n:
        raise DegenerateInput("graded comparison needs a full-dimensional tail cone")
    if any(dot(h, weight) <= 0 for h in halfspaces(d.tail)):
        raise DegenerateInput("the weight vector must be interior to the tail cone")
    w_vars = [dot(weight, u) for u in variables]
    if any(w <= 0 for w in w_vars):
        raise DegenerateInput("the weight vector must be positive on every generator degree")
    if d.base != P1:
        raise UnsupportedBase("cohomology dimensions are computed on P^1 only")
    side_a = [0] * (d_max + 1)
    rows = [tuple(g) for g in d.tail.generators]
    rhs = [0] * len(rows)
    rows.append(tuple(-x for x in weight))
    rhs.append(-d_max)
    # h0 as in higher_direct_dims; no dual-tail check per point: the tail generators are rows with rhs 0
    support_rows = _support_rows(d)
    for u in lattice_points(rows, rhs, n):
        w = dot(weight, u)
        if 0 <= w <= d_max:
            side_a[w] += max(_floor_degree(support_rows, u) + 1, 0)
    side_b = [1] + [0] * d_max
    for w in w_vars:
        for deg in range(w, d_max + 1):
            side_b[deg] += side_b[deg - w]
    for lead in leads:
        lw = sum(e * w for e, w in zip(lead, w_vars))
        for deg in range(d_max, lw - 1, -1):
            side_b[deg] -= side_b[deg - lw]
    for deg in range(d_max + 1):
        if side_a[deg] != side_b[deg]:
            return HilbertComparison(False, deg, tuple(side_a))
    return HilbertComparison(True, None, tuple(side_a))


def hilbert_compare_presentation(
    d: PolyhedralDivisor, pres: Presentation, weight: Sequence[int], d_max: int
) -> HilbertComparison:
    return hilbert_compare(d, pres.degrees, pres.leads, weight, d_max)


@dataclass(frozen=True)
class IsolatedFamily:
    label: str  # "cA" | "fourfold_A" | "fivefold_A1" | "smooth" | "not_isolated" | "not_hypersurface_dim"
    params: tuple[int, ...] = ()

    @property
    def isolated(self) -> bool:
        return self.label in ("cA", "fourfold_A", "fivefold_A1", "smooth")


def classify_isolated_factorial(data: AdmissibleData) -> IsolatedFamily:
    """Match the data against the families with isolated singular vertex.

    Singleton-1 entries present linear variables and are dropped; any long
    tuple beyond (1,1) forces a positive-dimensional singular locus.  The
    pattern is always confirmed against the facet-by-facet test on the
    constructed divisor.
    """
    if data.dimension < 3:
        return IsolatedFamily("not_hypersurface_dim")
    reduced = [tuple(sorted(t)) for _, t in data.entries if tuple(t) != (1,)]
    fam = _match_families(reduced)
    if fam.isolated != bool(check_isolated(construct_divisor(data))):
        raise InternalCheck(f"pattern and facet test disagree on {data}")
    return fam


def _match_families(reduced: list[tuple[int, ...]]) -> IsolatedFamily:
    if len(reduced) <= 2:
        # at most two nontrivial term groups: every relation eliminates a
        # linear variable and a free algebra remains
        return IsolatedFamily("smooth")
    for t in reduced:
        if len(t) >= 2 and (max(t) > 1 or len(t) >= 3):
            return IsolatedFamily("not_isolated")
    pairs = sum(1 for t in reduced if t == (1, 1))
    singles = sorted(t[0] for t in reduced if len(t) == 1)
    if pairs == 1 and len(singles) == 2:
        a, b = singles
        return IsolatedFamily("cA", (a - 1, b))
    if pairs == 2 and len(singles) == 1:
        return IsolatedFamily("fourfold_A", (singles[0] - 1,))
    if pairs == 3 and not singles:
        return IsolatedFamily("fivefold_A1")
    return IsolatedFamily("not_isolated")
