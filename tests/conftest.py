import signal
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import pytest

from polysing.pdiv import P1, Point, polyhedral_divisor
from polysing.polyhedra import make_cone, sigma_polyhedron

DATA = Path(__file__).parent / "data"

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # every property test replays the same examples and keeps no example
    # database; each settings site adds only its example count
    settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
    settings.load_profile("tier1")


@contextmanager
def capped(seconds):
    """Raise TimeoutError inside the block once it has run `seconds` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def ray():
    return make_cone([(1,)], 1)


def rank1_divisor(ray, coeffs, canonical=None):
    polys = {p: sigma_polyhedron([(c,)], ray) for p, c in coeffs.items()}
    return polyhedral_divisor(P1, ray, polys, canonical)


@pytest.fixture(scope="session")
def rk1(ray):
    def build(coeffs, canonical=None):
        return rank1_divisor(ray, coeffs, canonical)

    return build


@pytest.fixture(scope="session")
def sigma_ex1():
    return make_cone([(1, 0), (1, 6)])


@pytest.fixture(scope="session")
def ex1(sigma_ex1):
    d0 = sigma_polyhedron([(1, 0), (1, 1)], sigma_ex1)
    d1 = sigma_polyhedron([(F(-1, 2), 0)], sigma_ex1)
    dinf = sigma_polyhedron([(F(-1, 3), 0)], sigma_ex1)
    return polyhedral_divisor(
        P1, sigma_ex1, {Point.coord(0): d0, Point.coord(1): d1, Point.infinity(): dinf}
    )


@pytest.fixture(scope="session")
def e8(rk1):
    return rk1({Point.coord(0): F(1, 2), Point.coord(1): F(1, 3), Point.infinity(): F(-4, 5)})


@pytest.fixture(scope="session")
def a2(rk1):
    return rk1({Point.infinity(): F(3, 2)})


@pytest.fixture(scope="session")
def elliptic_minimal(rk1):
    return rk1({Point.coord(0): F(-1, 4), Point.coord(1): F(-1, 4), Point.infinity(): F(3, 4)})


@pytest.fixture(scope="session")
def elliptic_nonminimal(rk1):
    return rk1({Point.coord(0): F(-2, 3), Point.coord(1): F(-2, 3), Point.infinity(): F(17, 12)})
