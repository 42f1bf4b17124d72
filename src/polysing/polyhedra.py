"""Cones, sigma-polyhedra, support functions, quasifans and Cayley cones.

Everything is exact: cones are given by primitive integer generators,
polyhedra by integer vertex rows over one denominator plus a tail cone.
Half-space descriptions are derived on demand by one double description sweep
per cone, and extreme rays from it by an active-set rank test.  Only
`dual_cone` and `normal_quasifan` cap the rank at 4; `construct` builds
divisors of rank 7-8.  Every normal cone (which candidates are vertices, the
vertices of a Minkowski sum and the quasifan cells) comes from one common
refinement, `_normal_cones`, that resumes each full-dimensional cell's sweep
one vertex set at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DegenerateInput, TailMismatch, UnboundedBelow, UnsupportedRank
from .ratlin import (
    Unique,
    determinant,
    dot,
    matrix_rank,
    mu,
    primitive,
    scale_to_int,
    solve_exact,
    vec_add,
    vec_sub,
)

RANK_CAP = 4
# the two cone kernels are pure in small values that recur across documents
CONE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class Cone:
    """Finitely generated rational cone {sum lambda_i g_i : lambda_i >= 0}.

    Generators are primitive, deduplicated and lexicographically sorted; they
    are not required to be extreme rays.  Pointedness, dimension and the
    half-space description are computed, never assumed.
    """

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]


def make_cone(vectors: Iterable[Sequence], ambient_rank: int | None = None) -> Cone:
    vecs = list(vectors)
    if ambient_rank is None:
        if not vecs:
            raise ValueError("ambient_rank required for a cone with no generators")
        ambient_rank = len(vecs[0])
    gens = set()
    for v in vecs:
        if len(v) != ambient_rank:
            raise ValueError("generator dimension mismatch")
        if any(Fraction(x).denominator != 1 for x in v):
            p = scale_to_int([Fraction(x) for x in v])
        else:
            p = primitive([int(x) for x in v])
        if any(p):
            gens.add(p)
    return Cone(ambient_rank, tuple(sorted(gens)))


def _check_rank(n: int) -> None:
    if n > RANK_CAP:
        raise UnsupportedRank(f"ambient rank {n} exceeds the supported cap {RANK_CAP}")


def _extreme_rays(gens, normals, n: int) -> tuple[tuple[int, ...], ...]:
    """The g in gens whose vanishing normals have rank at least n - 1 (Fukuda &
    Prodon).  When the normals have rank n, {v : <h, v> >= 0, h in normals} is
    pointed, and of its nonzero g these are exactly those on extreme rays."""
    return tuple(g for g in gens if matrix_rank([h for h in normals if dot(h, g) == 0]) >= n - 1)


def _dd_halfspaces(
    constraints: Sequence[tuple[int, ...]], rank: int, resume: tuple | None = None
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The state (rays, done) of a double description sweep: the sorted rays
    generate {u : <a, u> >= 0 for all a in done}, the distinct primitive
    constraints processed so far.  Above 2 * rank + 4 candidates they are
    pruned by `_extreme_rays` against `done`, which never discards a needed
    generator; redundant ones survive at or below that size, and with
    lineality.  The sweep continues from the state `resume`, by default the
    whole space with nothing done.
    """
    if resume is None:
        resume = ([tuple(s * (j == i) for j in range(rank)) for i in range(rank) for s in (1, -1)], ())
    rays, done = list(resume[0]), list(resume[1])
    for a in constraints:
        a = primitive(a)
        if not any(a) or a in done:
            continue
        weighted = [(dot(a, r), r) for r in rays]
        plus = [(w, r) for w, r in weighted if w > 0]
        minus = [(w, r) for w, r in weighted if w < 0]
        new = {r for w, r in weighted if w >= 0}
        for wp, rp in plus:
            for wm, rm in minus:
                comb = primitive(tuple(wp * x - wm * y for x, y in zip(rm, rp)))
                if any(comb):
                    new.add(comb)
        done.append(a)
        rays = sorted(new)
        if len(rays) > 2 * rank + 4:
            # keeping a few redundant generators is harmless; prune only when
            # the candidate set could start compounding
            rays = _extreme_rays(rays, done, matrix_rank(done))
    return tuple(sorted(rays)), tuple(done)


@lru_cache(maxsize=CONE_CACHE_SIZE)
def halfspaces(c: Cone) -> tuple[tuple[int, ...], ...]:
    """Primitive normals h with c = {v : <h, v> >= 0 for all h} (not minimal)."""
    return _dd_halfspaces(c.generators, c.ambient_rank)[0]


def cone_contains(c: Cone, v: Sequence) -> bool:
    return all(dot(h, v) >= 0 for h in halfspaces(c))


@lru_cache(maxsize=CONE_CACHE_SIZE)
def minimal_generators(c: Cone) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of a pointed c, by one DD; else a greedy minimal generating subset."""
    if is_pointed(c):
        return _extreme_rays(c.generators, halfspaces(c), c.ambient_rank)
    kept = list(c.generators)
    for g in c.generators:
        others = [x for x in kept if x != g]
        if others and cone_contains(Cone(c.ambient_rank, tuple(others)), g):
            kept = others
    return tuple(kept)


def dual_cone(c: Cone) -> Cone:
    """The cone of functionals nonnegative on c, as a generated cone."""
    _check_rank(c.ambient_rank)
    raw = Cone(c.ambient_rank, halfspaces(c))
    return Cone(c.ambient_rank, minimal_generators(raw))


def cone_dim(c: Cone) -> int:
    return matrix_rank(c.generators) if c.generators else 0


def is_pointed(c: Cone) -> bool:
    # pointed iff the dual cone is full-dimensional
    return matrix_rank(halfspaces(c)) == c.ambient_rank if c.ambient_rank else True


def _max_minor_gcd(rows: Sequence[tuple[int, ...]]) -> int:
    k = len(rows)
    if k == 0:
        return 1
    n = len(rows[0])
    g = 0
    for cols in combinations(range(n), k):
        g = math.gcd(g, determinant([[row[j] for j in cols] for row in rows]))
        if g == 1:
            return 1
    return g


def is_regular(c: Cone) -> bool:
    """Pointed, simplicial, and the primitive extreme rays extend to a lattice basis.

    That holds iff some rank-many independent generators contain every other
    generator in their nonnegative span (they are then the extreme rays) and
    their maximal minors are coprime.  The coordinates in such a basis are
    read off by Cramer's rule from one nonzero maximal minor.
    """
    gens = c.generators
    if not gens:
        return True
    r = matrix_rank(gens)
    for basis in combinations(gens, r):
        for cols in combinations(range(c.ambient_rank), r):
            minor = [[g[j] for j in cols] for g in basis]
            det = determinant(minor)
            if det:
                break
        else:
            continue
        others = [[h[j] for j in cols] for h in gens if h not in basis]
        if all(
            det * determinant(minor[:i] + [h] + minor[i + 1 :]) >= 0 for h in others for i in range(r)
        ):
            return _max_minor_gcd(basis) == 1
    return False


def face_of_cone(c: Cone, u: Sequence) -> Cone:
    """The face of c cut out by u (valid for u in the dual cone)."""
    return Cone(c.ambient_rank, tuple(sorted(g for g in c.generators if dot(u, g) == 0)))


@dataclass(frozen=True)
class SigmaPolyhedron:
    """conv(vertices) + tail, with every vertex a true vertex.

    The vertices are the distinct, sorted integer rows `numerators` over the
    least common denominator `den` (gcd(den, every entry) = 1), so that equal
    polyhedra are equal dataclasses.  `vertices` derives the Fraction points.
    """

    den: int
    numerators: tuple[tuple[int, ...], ...]
    tail: Cone

    @property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.numerators)


def _reduced(den: int, rows: Sequence[tuple[int, ...]], tail: Cone) -> SigmaPolyhedron:
    """The polyhedron of the sorted distinct rows over den, with den made least."""
    g = math.gcd(den, *[x for row in rows for x in row])
    return SigmaPolyhedron(den // g, tuple(tuple(x // g for x in row) for row in rows), tail)


def lattice_multiple(den: int, row: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(mu, mu * v) for the vertex v = row / den: mu = den / gcd(den, *row) is
    the least positive integer making v a lattice point."""
    g = math.gcd(den, *row)
    return den // g, tuple(x // g for x in row)


def _normal_cones(row_sets, tail: Cone) -> list:
    """(selection, generators, normals) for each joint selection of one row
    per set of integer vertex rows (each set over one denominator) whose
    normal cone is full-dimensional, in lexicographic order.  The cone is cut
    out of the dual of the tail by the cuts w - v of each selected v; its
    normals are the tail's generators and those cuts, made primitive.

    The cells refine the dual of the tail (full-dimensional iff the tail is
    pointed) one set at a time: each cell's sweep resumes with one vertex's
    cuts, and a cell that loses full rank is dropped with every refinement.
    """
    n = tail.ambient_rank
    cells = [((), (halfspaces(tail), tail.generators))] if is_pointed(tail) else []
    for rows in row_sets:
        refined = []
        for selection, state in cells:
            for r in rows:
                cuts = [vec_sub(w, r) for w in rows if w != r]
                swept = _dd_halfspaces(cuts, n, state) if cuts else state
                if not cuts or matrix_rank(swept[0]) == n:
                    refined.append(((*selection, r), swept))
        cells = refined
    return [(selection, rays, done) for selection, (rays, done) in cells]


def sigma_polyhedron(vertices: Iterable[Sequence], tail: Cone) -> SigmaPolyhedron:
    """Build a sigma-polyhedron from int or Fraction candidate vertices,
    pruning redundant ones; the one place where vertices become rows."""
    verts = [[Fraction(x) for x in v] for v in vertices]
    if not verts:
        raise ValueError("a sigma-polyhedron needs at least one vertex")
    if any(len(v) != tail.ambient_rank for v in verts):
        raise ValueError("vertex dimension mismatch")
    den = math.lcm(*[x.denominator for v in verts for x in v])
    rows = [tuple(x.numerator * (den // x.denominator) for x in v) for v in verts]
    # the candidate rows that are vertices: those with a full-dimensional normal cone
    return _reduced(den, [sel[0] for sel, _, _ in _normal_cones([sorted(set(rows))], tail)], tail)


def tail_polyhedron(tail: Cone) -> SigmaPolyhedron:
    """The neutral element of Minkowski addition: the tail cone itself."""
    return SigmaPolyhedron(1, ((0,) * tail.ambient_rank,), tail)


def is_tail_trivial(p: SigmaPolyhedron) -> bool:
    return p.numerators == ((0,) * p.tail.ambient_rank,)


def support_value(p: SigmaPolyhedron, u: Sequence) -> tuple[Fraction, tuple[tuple[Fraction, ...], ...]]:
    """Exact min of <u, .> over p with the full set of attaining vertices."""
    for g in p.tail.generators:
        if dot(u, g) < 0:
            raise UnboundedBelow(f"<{tuple(u)}, {g}> < 0 on a tail ray")
    values = [dot(u, row) for row in p.numerators]
    best = min(values)
    return Fraction(best, p.den), tuple(v for val, v in zip(values, p.vertices) if val == best)


def minkowski_sum(a: SigmaPolyhedron, b: SigmaPolyhedron) -> SigmaPolyhedron:
    """v + w is a vertex of a + b iff the normal cones of v in a and of w in b
    meet in a full-dimensional cone."""
    if a.tail != b.tail:
        raise TailMismatch("Minkowski summands must share one tail cone")
    den = math.lcm(a.den, b.den)
    scaled = [[tuple(x * (den // p.den) for x in row) for row in p.numerators] for p in (a, b)]
    cones = _normal_cones(scaled, a.tail)
    return _reduced(den, sorted(vec_add(v, w) for (v, w), _, _ in cones), a.tail)


def cayley_cone(parts: Sequence[tuple[SigmaPolyhedron, Sequence[int]]]) -> Cone:
    """Cone over the parts placed at their marker heights, plus the common tail.

    Lives in Z^k x N with the k marker coordinates first; generators are the
    primitivized (marker, vertex) vectors and (0, ray) for each tail ray.
    """
    if not parts:
        raise ValueError("cayley_cone needs at least one part")
    tail = parts[0][0].tail
    k = len(parts[0][1])
    for poly, marker in parts:
        if poly.tail != tail:
            raise TailMismatch("Cayley parts must share one tail cone")
        if len(marker) != k:
            raise ValueError("marker dimension mismatch")
    return _cayley_cone([(poly.den, poly.numerators, marker) for poly, marker in parts], tail)


def _cayley_cone(parts, tail: Cone) -> Cone:
    """`cayley_cone` of parts given as (den, integer vertex rows over den,
    marker): (marker, row / den) spans the ray of primitive((den * marker, row))."""
    k = len(parts[0][2])
    gens = {primitive((*(den * x for x in marker), *row)) for den, rows, marker in parts for row in rows}
    gens.update((0,) * k + r for r in tail.generators)
    return Cone(k + tail.ambient_rank, tuple(sorted(g for g in gens if any(g))))


@dataclass(frozen=True)
class QuasiCell:
    """A maximal cone of linearity together with the minimizing vertex selection."""

    cone: Cone
    selection: tuple[tuple[int, ...], ...]  # one vertex row per coefficient, over its den


@dataclass(frozen=True)
class QuasiFan:
    maximal_cells: tuple[QuasiCell, ...]


def normal_quasifan(coeffs: Sequence[SigmaPolyhedron], sigma: Cone) -> QuasiFan:
    """Subdivision of the dual of sigma into the loci where one joint vertex
    selection minimizes every coefficient.  For a full-dimensional sigma the
    cells are pointed: their sweeps' own constraints pick the extreme rays."""
    n = sigma.ambient_rank
    _check_rank(n)
    for p in coeffs:
        if p.tail != sigma:
            raise TailMismatch("coefficients must have tail cone sigma")
    solid = cone_dim(sigma) == n
    cells = []
    for selection, gens, normals in _normal_cones([p.numerators for p in coeffs], sigma):
        if solid:
            rays = _extreme_rays(gens, normals, n)
        else:
            rays = minimal_generators(Cone(n, gens))
        cells.append(QuasiCell(Cone(n, rays), selection))
    return QuasiFan(tuple(sorted(cells, key=lambda c: c.cone.generators)))


def polytope_vertices(rows: Sequence[Sequence], rhs: Sequence, dim: int) -> list[tuple[Fraction, ...]]:
    """Vertices of {x : rows[i] . x >= rhs[i]} (meaningful for bounded regions)."""
    idx = [i for i in range(len(rows)) if any(rows[i])]
    verts = []
    for sel in combinations(idx, dim):
        mat = [rows[i] for i in sel]
        if matrix_rank(mat) != dim:
            continue
        res = solve_exact(mat, [rhs[i] for i in sel])
        if not isinstance(res, Unique):
            continue
        x = res.x
        if all(dot(rows[i], x) >= rhs[i] for i in range(len(rows))):
            verts.append(x)
    return verts


def lattice_points(rows: Sequence[Sequence], rhs: Sequence, dim: int):
    """Integer points of the bounded region {x : rows . x >= rhs}, in
    lexicographic order.

    Integer Fourier-Motzkin elimination from the last coordinate to the first
    leaves in `levels[k]` the rows that bound x_k once x_0..x_{k-1} are fixed;
    each input row is applied exactly at the level of its last nonzero
    coefficient, so a depth-first walk over those intervals yields exactly
    the points of the region.  A coordinate without a lower or an upper bound
    raises DegenerateInput.
    """
    stage = []
    for i, (a, b) in enumerate(zip(rows, rhs, strict=True)):
        den = mu([*a, b])
        stage.append((tuple(int(x * den) for x in a), int(b * den), 1 << i))
    levels = [None] * dim
    for k in range(dim - 1, -1, -1):
        lower = [c for c in stage if c[0][k] > 0]
        upper = [c for c in stage if c[0][k] < 0]
        levels[k] = (lower, upper)
        stage = [(a[:k], b, src) for a, b, src in stage if not a[k]]
        # Chernikov: after e eliminations a row combining more than e + 1
        # input rows is implied by the others
        most = dim - k + 1
        for al, bl, sl in lower:
            for au, bu, su in upper:
                src = sl | su
                if src.bit_count() > most:
                    continue
                p, q = al[k], -au[k]
                a = [q * x + p * y for x, y in zip(al[:k], au[:k])]
                b = q * bl + p * bu
                g = math.gcd(*a)
                if g:
                    # rounding the rhs up keeps every integer point
                    stage.append((tuple(x // g for x in a), -(-b // g), src))
                elif b > 0:
                    return
    if any(b > 0 for _, b, _ in stage):
        return
    for k, (lower, upper) in enumerate(levels):
        if not lower or not upper:
            raise DegenerateInput(f"the region is unbounded along coordinate {k}")
    yield from _walk(levels, ())


def _walk(levels, prefix: tuple[int, ...]):
    k = len(prefix)
    if k == len(levels):
        yield prefix
        return
    lower, upper = levels[k]
    # a x_k >= b - <a, prefix>: a ceiling for a > 0, a floor for a < 0
    lo = max(-((sum(x * y for x, y in zip(a, prefix)) - b) // a[k]) for a, b, _ in lower)
    hi = min((b - sum(x * y for x, y in zip(a, prefix))) // a[k] for a, b, _ in upper)
    for v in range(lo, hi + 1):
        yield from _walk(levels, prefix + (v,))
