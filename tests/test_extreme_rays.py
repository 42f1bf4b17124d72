"""Extreme rays by the active-set rank filter, against the greedy definition.

`minimal_generators` reads the extreme rays of a pointed cone off its one
half-space description, and `normal_quasifan` reads each cell's extreme rays
off the cell's own sweep when the tail is full-dimensional.  The oracle here
is the definition they replace: drop each generator, in sorted order, while
it lies in the cone of those kept.
"""
import random
from fractions import Fraction as F
from itertools import product

import pytest

from polysing import polyhedra
from polysing.polyhedra import (
    Cone,
    cone_contains,
    cone_dim,
    is_pointed,
    make_cone,
    minimal_generators,
    normal_quasifan,
    sigma_polyhedron,
)
from polysing.ratlin import scale_to_int
from polysing.ufdgen import _build_vertices

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _greedy_minimal_generators(c: Cone):
    kept = list(c.generators)
    for g in c.generators:
        others = [x for x in kept if x != g]
        if others and cone_contains(Cone(c.ambient_rank, tuple(sorted(others))), g):
            kept = others
    return tuple(sorted(kept))


@st.composite
def cone_cases(draw):
    """A cone of rank 1 to 4 and its kind: "solid" (pointed and
    full-dimensional), "flat" (pointed, one dimension short) or "lineal" (with
    a line).  The generators are drawn in coordinates where (1, ..., 1) is
    positive on a pointed cone, padded with positive sums and scaled copies,
    and sheared into general position by unimodular column operations."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("solid", "flat", "lineal")))
    d = n - 1 if kind == "flat" else n
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    raw = draw(st.lists(vec, max_size=n + 2))
    if kind == "lineal":
        line = draw(vec.filter(any))
        raw += [line, [-x for x in line]]
    else:
        raw = [g if sum(g) > 0 else [-x for x in g] for g in raw if sum(g)]
        raw += [[int(i == j) for j in range(d)] for i in range(d)]
    if raw:
        picks = st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=3)
        for idx in draw(st.lists(picks, max_size=3)):
            raw.append([sum(raw[i][k] for i in idx) for k in range(d)])
        for i in draw(st.lists(st.integers(0, len(raw) - 1), max_size=2)):
            raw.append([draw(st.integers(2, 3)) * x for x in raw[i]])
    vecs = [g + [0] * (n - d) for g in raw]
    for i, j, k in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2, st.integers(-2, 2)), max_size=4)):
        if i != j:
            for v in vecs:
                v[i] += k * v[j]
    return kind, make_cone(vecs, n)


@settings(max_examples=120)
@given(cone_cases())
def test_minimal_generators_match_the_greedy_definition(case):
    kind, c = case
    assert is_pointed(c) == (kind != "lineal")
    if kind == "solid":
        assert cone_dim(c) == c.ambient_rank
    assert minimal_generators(c) == _greedy_minimal_generators(c)


def _seeded_tail_and_coefficients(rng: random.Random):
    """An orthant of rank 2 or 3, or the orthant plus (1, ..., 1) with one
    entry -1, and 1-3 sigma-polyhedra of 1-3 candidate vertices each."""
    n = rng.choice((2, 3))
    rays = [[int(i == j) for j in range(n)] for i in range(n)]
    if rng.random() < 0.5:
        extra = [1] * n
        extra[rng.randrange(n)] = -1
        rays.append(extra)
    tail = make_cone(rays, n)
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        cands = [
            [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)] for _ in range(rng.randint(1, 3))
        ]
        coeffs.append(sigma_polyhedron(cands, tail))
    return tail, coeffs


@pytest.mark.parametrize("seed", range(40))
def test_quasifan_cells_are_generated_by_their_extreme_rays(seed):
    tail, coeffs = _seeded_tail_and_coefficients(random.Random(seed))
    for cell in normal_quasifan(coeffs, tail).maximal_cells:
        gens = cell.cone.generators
        for g in gens:
            others = Cone(tail.ambient_rank, tuple(x for x in gens if x != g))
            assert not cone_contains(others, g)
        assert minimal_generators(cell.cone) == gens


def test_quasifan_over_a_tail_that_is_not_full_dimensional():
    """The cells of a tail with lineality in its dual go through
    `minimal_generators`; the literals are the parent's output."""
    tail = make_cone([(1, 0, 0), (0, 1, 0)], 3)
    a = sigma_polyhedron([(0, 0, 0), (1, -1, 0)], tail)
    b = sigma_polyhedron([(0, 0, 0), (0, 0, 1)], tail)
    c = sigma_polyhedron([(F(1, 2), 0, 0)], tail)

    def cells(coeffs):
        return [(cell.cone.generators, cell.selection) for cell in normal_quasifan(coeffs, tail).maximal_cells]

    # selections are vertex rows: c's vertex (1/2, 0, 0) is the row (1, 0, 0) over den 2
    zero, step, up, half = (0, 0, 0), (1, -1, 0), (0, 0, 1), (1, 0, 0)
    # every cell holds the line through (0, 0, 1): the greedy branch
    assert cells([a, c]) == [
        (((0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 1, 0)), (step, half)),
        (((0, 0, -1), (0, 0, 1), (1, 0, 0), (1, 1, 0)), (zero, half)),
    ]
    # b splits along the line: pointed cells
    assert cells([a, b]) == [
        (((0, 0, -1), (0, 1, 0), (1, 1, 0)), (step, up)),
        (((0, 0, -1), (1, 0, 0), (1, 1, 0)), (zero, up)),
        (((0, 0, 1), (0, 1, 0), (1, 1, 0)), (step, zero)),
        (((0, 0, 1), (1, 0, 0), (1, 1, 0)), (zero, zero)),
    ]


def test_rank7_tail_extreme_rays_take_one_double_description(monkeypatch):
    """The tail `construct` builds for the multiplicities (6), (5, 6, 1),
    (3, 3, 1), (6, 2, 3): 27 rays in rank 7, all extreme.  Greedily that was
    one double description per ray."""
    verts = _build_vertices([(6,), (5, 6, 1), (3, 3, 1), (6, 2, 3)])
    rays = [scale_to_int(tuple(sum(v[i] for v in pick) for i in range(7))) for pick in product(*verts)]
    tail = make_cone(rays, 7)
    assert len(tail.generators) == 27
    polyhedra.halfspaces.cache_clear()
    polyhedra.minimal_generators.cache_clear()
    calls = []
    sweep = polyhedra._dd_halfspaces
    monkeypatch.setattr(polyhedra, "_dd_halfspaces", lambda *args: calls.append(args) or sweep(*args))
    assert minimal_generators(tail) == tail.generators
    assert len(calls) == 1
