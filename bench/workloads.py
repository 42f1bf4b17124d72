"""Seeded inputs for the benchmark workloads, and the oracles that check them.

Nothing here imports polysing: generators build inputs that are proper by
construction, so no input is filtered through the program under test.
Every pool is fixed; a run's seed only chooses which pool items a pass
runs and in what order, so a reference digest exists for every item.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

WORKLOADS = ("factorial_sweep", "surface_batch", "solid_batch", "graded_check")

# items per measuring process; fixed so that peak RSS and the tail percentile
# compare across runs and commits
SURFACE_POOL = 3000
SURFACE_PASS = 1000
SOLID_RANKS = {2: 60, 3: 40}
# rank-4 documents over the orthant with 2 vertices at each of 3 points: at the
# commit that added this benchmark `is_proper` runs past the per-item cap on them
RANK4_PROBES = 2


def sweep_universe() -> list[tuple[tuple[int, ...], ...]]:
    """The admissible data of acceptance criterion 5 (571 multiplicity tuples)."""
    tuples = set()
    for r in (1, 2):
        for t in combinations_with_replacement(range(1, 7), r):
            tuples.add(tuple(sorted(t, reverse=True)))
    tuples = sorted(tuples)
    found = []

    def rec(start, chosen):
        if sum(len(t) - 1 for t in chosen) > 1:
            return
        if chosen:
            gcds = [math.gcd(*t) for t in chosen]
            if all(
                math.gcd(gcds[i], gcds[j]) == 1
                for i in range(len(gcds))
                for j in range(i + 1, len(gcds))
            ):
                found.append(tuple(chosen))
        if len(chosen) == 4:
            return
        for i in range(start, len(tuples)):
            rec(i, chosen + [tuples[i]])

    rec(0, [])
    found += [((1, 1), (1, 1), (m,)) for m in range(2, 7)]
    found += [((1, 1), (1, 1), (1, 1)), ((2, 2), (3,), (5,)), ((1, 1, 1), (2,), (3,))]
    return found


def mus_key(mus) -> str:
    return "|".join(",".join(str(m) for m in t) for t in mus)


def _frac(rng: random.Random, max_den: int, span: int) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * q, span * q), q)


def _point_names(count: int) -> list[str]:
    return ["inf"] + [str(i) for i in range(count - 1)]


def surface_document(rng: random.Random) -> dict:
    """Rank-1 divisor on P1 with 3-6 points, denominators <= 12 and positive
    degree (hence proper): the coefficient at infinity is shifted by an integer."""
    names = _point_names(rng.randint(3, 6))
    coeffs = [_frac(rng, 12, 2) for _ in names]
    total = sum(coeffs)
    if total <= 0:
        coeffs[0] += math.floor(-total) + 1
    return {
        "format": 1,
        "lattice_rank": 1,
        "tail_rays": [[1]],
        "coefficients": [
            {"point": p, "vertices": [[str(c)]]} for p, c in zip(names, coeffs)
        ],
    }


def solid_document(
    rng: random.Random, rank: int, points: int, verts_per_point: tuple[int, int], extra_ray: bool
) -> dict:
    """Divisor on P1 whose tail cone is the orthant, plus one ray with a
    negative entry when `extra_ray` is set.

    The vertices at infinity are translated so that every vertex selection
    sums into the open orthant, which lies in the interior of the tail cone;
    the degree polyhedron then avoids the origin and the divisor is proper.
    """
    rays = [[int(i == j) for j in range(rank)] for i in range(rank)]
    if extra_ray:
        extra = [1] * rank
        extra[rng.randrange(rank)] = -1
        rays.append(extra)  # (2, ..., 2, 1) is positive on every ray: still pointed
    names = _point_names(points)
    verts = []
    for _ in names:
        count = rng.randint(*verts_per_point)
        verts.append([[_frac(rng, 6, 2) for _ in range(rank)] for _ in range(count)])
    for j in range(rank):
        low = sum(min(v[j] for v in vs) for vs in verts)
        shift = Fraction(1, rng.randint(1, 6)) - low
        for v in verts[0]:
            v[j] += shift
    return {
        "format": 1,
        "lattice_rank": rank,
        "tail_rays": rays,
        "coefficients": [
            {"point": p, "vertices": [[str(x) for x in v] for v in vs]}
            for p, vs in zip(names, verts)
        ],
    }


def _distinct(pool: dict, prefix: str, make, count: int) -> None:
    """Add `count` documents from `make` that differ from every one in `pool`."""
    seen = {json.dumps(d, sort_keys=True) for d in pool.values()}
    added = 0
    while added < count:
        doc = make()
        text = json.dumps(doc, sort_keys=True)
        if text not in seen:
            seen.add(text)
            added += 1
            pool[f"{prefix}{added:04d}"] = doc


def surface_pool() -> dict[str, dict]:
    rng = random.Random(1005_2462_1)
    pool: dict[str, dict] = {}
    _distinct(pool, "s", lambda: surface_document(rng), SURFACE_POOL)
    return pool


def solid_pool() -> dict[str, dict]:
    rng = random.Random(1005_2462_2)
    pool: dict[str, dict] = {}
    for rank, count in SOLID_RANKS.items():
        _distinct(
            pool,
            f"r{rank}-",
            lambda: solid_document(rng, rank, rng.randint(3, 5), (1, 3), rng.random() < 0.5),
            count,
        )
    return pool


def rank4_probe_pool() -> dict[str, dict]:
    rng = random.Random(1005_2462_4)
    pool: dict[str, dict] = {}
    _distinct(pool, "r4-", lambda: solid_document(rng, 4, 3, (2, 2), False), RANK4_PROBES)
    return pool


# graded comparisons: one hand-picked datum of each rank 2, 3 and 4 plus a fixed
# sample of three-entry admissible data with multiplicities <= 4, compared up to
# a degree per rank at which most comparisons take 0.05-0.5 s
GRADED_NAMED = (((1, 1), (2,), (3,)), ((1, 1), (1, 1), (2,)), ((1, 1), (1, 1), (1, 1)))
GRADED_SAMPLE = {2: 11, 3: 13, 4: 13}
GRADED_DMAX = {2: 24, 3: 8, 4: 5}


def _graded_candidates() -> list[tuple[tuple[int, ...], ...]]:
    tuples = sorted(
        {t for r in (1, 2, 3, 4) for t in combinations_with_replacement(range(1, 5), r)}
    )
    out = []
    for combo in combinations_with_replacement(tuples, 3):
        gcds = [math.gcd(*t) for t in combo]
        coprime = all(math.gcd(gcds[i], gcds[j]) == 1 for i in range(3) for j in range(i))
        if coprime and 1 <= sum(len(t) - 1 for t in combo) <= 3:
            out.append(combo)
    return out


def graded_pool() -> dict[str, dict]:
    rng = random.Random(1005_2462_3)
    by_rank: dict[int, list] = {}
    for mus in _graded_candidates():
        if mus not in GRADED_NAMED:
            by_rank.setdefault(1 + sum(len(t) - 1 for t in mus), []).append(mus)
    chosen = list(GRADED_NAMED)
    for rank, count in GRADED_SAMPLE.items():
        chosen += rng.sample(by_rank[rank], count)
    out = {}
    for mus in chosen:
        d_max = GRADED_DMAX[1 + sum(len(t) - 1 for t in mus)]
        out[f"{mus_key(mus)}@{d_max}"] = {"mus": [list(t) for t in mus], "d_max": d_max}
    return out


def pool(workload: str) -> dict[str, dict]:
    """Every item the workload can run, by key."""
    if workload == "factorial_sweep":
        return {mus_key(m): {"mus": [list(t) for t in m]} for m in sweep_universe()}
    if workload == "surface_batch":
        return surface_pool()
    if workload == "solid_batch":
        return solid_pool()
    if workload == "graded_check":
        return graded_pool()
    raise ValueError(f"unknown workload {workload!r}")


def pass_keys(workload: str, keys: list[str], seed: int, index: int) -> list[str]:
    """The item keys one measuring process runs, in order; distinct within
    the pass so that no module-level cache turns a repeat into a lookup."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    keys = sorted(keys)
    if workload == "surface_batch":
        return rng.sample(keys, SURFACE_PASS)
    rng.shuffle(keys)
    return keys


def rank1_rational_oracle(doc: dict) -> str | None:
    """Rationality of a rank-1 divisor on P1 by the naive floor-sum scan of
    acceptance criterion 6, in integers.

    Only u in [1, (s_f - 1) / deg] can have a floor degree below -1, where
    s_f sums (q - 1) / q over the coefficients p / q; None when that bound
    exceeds the scan limit, so that the oracle is exact whenever it answers.
    """
    coeffs = [Fraction(e["vertices"][0][0]) for e in doc["coefficients"]]
    deg = sum(coeffs)
    s_f = sum(Fraction(c.denominator - 1, c.denominator) for c in coeffs)
    bound = (s_f - 1) / deg
    if bound > 20000:
        return None
    pairs = [(c.numerator, c.denominator) for c in coeffs]
    for u in range(1, math.floor(bound) + 1):
        if sum(u * p // q for p, q in pairs) < -1:
            return "no"
    return "yes"
