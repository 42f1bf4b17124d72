"""Fuzz the command line with arbitrary JSON documents: every command must
exit 0, 2 or 3 and never end in an exception or run past its time cap."""
import contextlib
import io
import json

import pytest
from conftest import capped

from polysing.cli import main

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)
CAP_S = 5
COMMANDS = (
    ["analyze"],
    ["construct"],
    ["present"],
    ["hilbert", "--dmax", "4"],
    ["charts"],
)

FIELDS = (
    "format", "lattice_rank", "tail_rays", "coefficients", "point", "vertices",
    "base", "kind", "genus", "canonical_divisor", "coeff", "entries", "mu",
    "numerical", "points", "class", "extremal_rays",
)  # fmt: skip
POINTS = ("inf", "0", "1", "2", "-1", "1/2")

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
rationals = fractions.map(str)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    rationals,
    st.sampled_from(POINTS + ("P1", "A1", "abstract", "", "x", "1/0")),
    st.text(max_size=4),
)
keys = st.one_of(st.sampled_from(FIELDS), st.text(max_size=3))
# depth <= 4: three levels of containers over a scalar leaf
json_trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(keys, inner, max_size=5)
    ),
    max_leaves=12,
).filter(lambda doc: _depth(doc) <= 4)


def _depth(value) -> int:
    if isinstance(value, list):
        return 1 + max(map(_depth, value), default=0)
    if isinstance(value, dict):
        return 1 + max(map(_depth, value.values()), default=0)
    return 1


@st.composite
def canonical_divisors(draw):
    """A canonical_divisor list: arbitrary terms, or integral ones of degree -2."""
    points = draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=3))
    if draw(st.booleans()):
        coeffs = [draw(st.integers(-3, 3)) for _ in points]
        coeffs[-1] += -2 - sum(coeffs)
    else:
        coeffs = [draw(fractions) for _ in points]
    return [{"point": p, "coeff": str(c)} for p, c in zip(points, coeffs)]


@st.composite
def divisor_documents(draw, rank):
    ints = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    verts = st.lists(rationals, min_size=rank, max_size=rank)
    doc = {
        "format": 1,
        "lattice_rank": rank,
        "tail_rays": draw(st.lists(ints, max_size=rank + 1)),
        "coefficients": [
            {"point": p, "vertices": draw(st.lists(verts, min_size=1, max_size=3))}
            for p in draw(st.lists(st.sampled_from(POINTS), max_size=4, unique=True))
        ],
    }
    if draw(st.booleans()):
        doc["base"] = {"kind": draw(st.sampled_from(["P1", "A1"]))}
    if draw(st.booleans()):
        doc["canonical_divisor"] = draw(canonical_divisors())
    return doc


documents = st.one_of(json_trees, divisor_documents(1), divisor_documents(2))

# admissible data in the range the construction is documented for: up to four
# entries, extra rank (the sum of len(mu) - 1) at most 3; a multiplicity 0 or
# non-coprime gcds must be refused, not crash
admissible_documents = (
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=4)
    .filter(lambda mus: sum(len(m) - 1 for m in mus) <= 3)
    .map(lambda mus: {"format": 1, "entries": [{"mu": m} for m in mus]})
)

# a canonical divisor of degree 6 on a2.json's divisor must be refused
DEGREE_SIX_CANONICAL = {
    "format": 1,
    "lattice_rank": 1,
    "tail_rays": [[1]],
    "coefficients": [{"point": "inf", "vertices": [["3/2"]]}],
    "canonical_divisor": [{"point": "0", "coeff": "3"}, {"point": "inf", "coeff": "3"}],
}
# a negative tail ray: the canonical classification must pair u0 with it
MIRRORED_TAIL = {
    "format": 1,
    "lattice_rank": 1,
    "tail_rays": [[-1]],
    "coefficients": [{"point": "inf", "vertices": [["-1"]]}],
}


def _run(argv) -> int:
    with capped(CAP_S), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@FUZZ
@given(doc=documents, report=st.sampled_from(["text", "json"]))
@example(doc=DEGREE_SIX_CANONICAL, report="json")
@example(doc=MIRRORED_TAIL, report="text")
def test_cli_exit_codes_on_arbitrary_documents(doc_path, doc, report):
    doc_path.write_text(json.dumps(doc))
    for command in COMMANDS:
        code = _run([*command, str(doc_path), "--report", report])
        assert code in (0, 2, 3), (command, doc)


@FUZZ
@given(doc=admissible_documents)
def test_cli_exit_codes_on_admissible_data(doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    for command in COMMANDS:
        code = _run([*command, str(doc_path), "--report", "json"])
        assert code in (0, 2, 3), (command, doc)
