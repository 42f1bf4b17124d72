import gc
import json
import subprocess
import sys
import weakref
from fractions import Fraction as F

import pytest
from conftest import capped

from polysing import ufdgen
from polysing.cli import (
    EXIT_NOT_PROPER,
    EXIT_PARSE_ERROR,
    ParseError,
    analyze,
    canonical_dumps,
    charts_report,
    load_document,
    main,
    parse_document,
)
from polysing.errors import InternalCheck
from polysing.pdiv import Point
from polysing.singcheck import check_rational


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "polysing.cli", *args], capture_output=True, text=True
    )
    return proc


def result_map(report):
    return {e["criterion"]: e for e in report["results"]}


def test_parse_ex1(data_dir):
    doc = load_document(data_dir / "ex1.json")
    assert doc["kind"] == "divisor"
    d = doc["data"]
    assert len(d.coeffs) == 3
    assert d.tail.generators == ((1, 0), (1, 6))


def test_parse_duplicate_point():
    doc = {
        "format": 1,
        "lattice_rank": 1,
        "tail_rays": [[1]],
        "coefficients": [
            {"point": "0", "vertices": [["1/2"]]},
            {"point": "0", "vertices": [["1/3"]]},
        ],
    }
    with pytest.raises(ParseError, match="duplicate"):
        parse_document(doc)


def test_parse_rational_literal():
    doc = {
        "format": 1,
        "lattice_rank": 1,
        "tail_rays": [[1]],
        "coefficients": [{"point": "0", "vertices": [["-1/2"]]}],
    }
    parsed = parse_document(doc)["data"]
    (poly,) = [p for _, p in parsed.coeffs]
    assert poly.vertices == ((F(-1, 2),),)


def test_parse_rejects_bad_format():
    with pytest.raises(ParseError, match="format"):
        parse_document({"format": 99})


def test_analyze_ex1_report(ex1):
    report = analyze(ex1)
    res = result_map(report)
    assert res["proper"]["status"] == "proper"
    assert res["smooth"]["status"] == "no"
    assert res["isolated"]["status"] == "yes"
    assert res["class_group"]["q_factorial"] is True
    assert res["factorial"]["status"] == "factorial"
    assert res["gorenstein"]["index"] == 1
    assert res["gorenstein"]["u"] == ["-5", "0"]
    assert res["log_terminal"]["status"] == "yes"
    assert res["rational"]["status"] == "yes"
    assert res["cohen_macaulay"]["holds"] is True
    assert report["exit"] == 0


def test_analyze_a2_report(a2):
    res = result_map(analyze(a2))
    assert res["class_group"]["torsion"] == [3]
    assert res["gorenstein"]["index"] == 1
    assert res["canonical"]["type"] == "A2"


def test_analyze_only_subset(e8):
    report = analyze(e8, only=["proper", "class_group"])
    assert [e["criterion"] for e in report["results"]] == ["proper", "class_group"]


def test_analyze_improper_exit(rk1):
    report = analyze(rk1({Point.infinity(): F(-1)}))
    assert report["exit"] == EXIT_NOT_PROPER
    assert [e["criterion"] for e in report["results"]] == ["proper"]


def test_cli_analyze_exit_codes(data_dir):
    assert run_cli(["analyze", str(data_dir / "ex1.json")]).returncode == 0
    assert run_cli(["analyze", str(data_dir / "improper.json")]).returncode == EXIT_NOT_PROPER
    bad = run_cli(["analyze", str(data_dir / "missing.json")])
    assert bad.returncode == EXIT_PARSE_ERROR


def test_cli_json_round_trip(data_dir):
    proc = run_cli(["analyze", str(data_dir / "e8.json"), "--report", "json"])
    assert proc.returncode == 0
    text = proc.stdout
    reparsed = json.loads(text)
    assert canonical_dumps(reparsed) == text


def test_analyze_deterministic_modulo_timing(e8):
    def strip(report):
        return [{k: v for k, v in e.items() if k != "ms"} for e in report["results"]]

    assert strip(analyze(e8)) == strip(analyze(e8))


def test_cli_kdiv_override(data_dir):
    base = run_cli(["analyze", str(data_dir / "ex1.json"), "--report", "json"])
    alt = run_cli(
        ["analyze", str(data_dir / "ex1.json"), "--report", "json", "--kdiv=-1*0,-1*inf"]
    )
    r1 = json.loads(base.stdout)
    r2 = json.loads(alt.stdout)
    g1 = result_map(r1)["gorenstein"]
    g2 = result_map(r2)["gorenstein"]
    assert g1["index"] == g2["index"] == 1
    assert g1["u"] == g2["u"]


@pytest.mark.parametrize("kdiv", ["3*0,3*inf", "-1/2*0,-3/2*inf"])
def test_cli_kdiv_must_be_a_canonical_divisor(data_dir, kdiv):
    # wrong degree on P1, then not integral
    proc = run_cli(["analyze", str(data_dir / "a2.json"), f"--kdiv={kdiv}"])
    assert proc.returncode == EXIT_PARSE_ERROR
    assert "Traceback" not in proc.stderr
    assert "--kdiv" in proc.stderr


def test_cli_construct_and_present(data_dir):
    out = run_cli(["construct", str(data_dir / "admissible_e8.json"), "--report", "json"])
    doc = json.loads(out.stdout)
    assert abs(doc["determinant"]) == 1
    pres = run_cli(["present", str(data_dir / "admissible_e8.json"), "--report", "json"])
    pdoc = json.loads(pres.stdout)
    assert pdoc["relations"] == ["T3^5 + T2^3 - T1^2"]
    assert pdoc["degrees"] == [[15], [10], [6]]


def test_cli_hilbert(data_dir):
    out = run_cli(["hilbert", str(data_dir / "admissible_e8.json"), "--dmax", "20", "--report", "json"])
    doc = json.loads(out.stdout)
    assert doc["match"] is True


def test_cli_charts(data_dir):
    out = run_cli(["charts", str(data_dir / "a2.json"), "--report", "json"])
    doc = json.loads(out.stdout)
    points = {c["point"]: c["regular"] for c in doc["charts"]}
    assert points["inf"] is False  # the A2 chart cone has index 3
    assert points[None] is True


def test_cli_numerical_mode(data_dir):
    out = run_cli(["analyze", str(data_dir / "numerical_p1_like.json"), "--report", "json"])
    doc = json.loads(out.stdout)
    (entry,) = doc["results"]
    assert entry["status"] == "solved"
    assert entry["integrality_index"] == 1
    assert entry["principality_checked"] is False


@pytest.mark.parametrize(
    "points",
    [[{"class": [1], "b": "0", "vertices": []}], []],
    ids=["no-vertices", "no-points"],
)
def test_cli_numerical_underdetermined_is_an_error_entry(tmp_path, capsys, points):
    """A numerical system that leaves unknowns free is reported as an error
    entry, neither a traceback nor an empty solution."""
    path = tmp_path / "num.json"
    path.write_text(json.dumps({"format": 1, "numerical": {"lattice_rank": 1, "points": points}}))
    assert main(["analyze", str(path), "--report", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["results"]
    assert entry["status"] == "error"
    assert entry["error"] == "UnsupportedShape"


def test_analyze_propagates_internal_check(monkeypatch, ex1):
    """A failed invariant inside a criterion is a bug, not a report entry."""
    from polysing import divclass

    def broken(*args, **kwargs):
        raise InternalCheck("broken invariant")

    monkeypatch.setattr(divclass, "class_group", broken)
    with pytest.raises(InternalCheck):
        analyze(ex1, only=["class_group"])


def test_cli_batch_directory(tmp_path, data_dir):
    for name in ("ex1.json", "e8.json"):
        (tmp_path / name).write_text((data_dir / name).read_text())
    proc = run_cli(["analyze", str(tmp_path), "--report", "json"])
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 2


def test_charts_report_bicone(ex1):
    doc = charts_report(ex1)
    assert "bicone" not in doc  # three fractional coefficients: no reduction
    assert len(doc["charts"]) == 4


def test_cli_construct_fourfold(data_dir):
    out = run_cli(["construct", str(data_dir / "admissible_fourfold.json"), "--report", "json"])
    doc = json.loads(out.stdout)
    assert abs(doc["determinant"]) == 1
    assert doc["lattice_rank"] == 3
    pres = run_cli(["present", str(data_dir / "admissible_fourfold.json"), "--report", "json"])
    pdoc = json.loads(pres.stdout)
    assert pdoc["relations"] == ["T3^2 + T21*T22 - T11*T12"]


def test_cli_batch_mixed_directory(data_dir):
    # non-divisor documents are reported on stderr and skipped; divisor files,
    # including the improper one, still run
    proc = run_cli(["analyze", str(data_dir), "--report", "json"])
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 7  # 6 divisor documents + 1 numerical document
    assert "parse error" in proc.stderr
    assert proc.returncode == EXIT_PARSE_ERROR


@pytest.mark.parametrize(
    "field, value",
    [
        ("tail_rays", [["a"]]),
        ("coefficients", [5]),
        ("canonical_divisor", 7),
        ("canonical_divisor", [{"point": "0", "coeff": "3"}, {"point": "inf", "coeff": "3"}]),
        ("canonical_divisor", [{"point": "0", "coeff": "-1/2"}, {"point": "inf", "coeff": "-3/2"}]),
        ("base", "P1"),
        ("lattice_rank", 5),
        ("lattice_rank", True),
    ],
)
def test_cli_malformed_document_exit(tmp_path, field, value):
    doc = {
        "format": 1,
        "lattice_rank": 1,
        "tail_rays": [[1]],
        "coefficients": [{"point": "inf", "vertices": [["3/2"]]}],
        field: value,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == EXIT_PARSE_ERROR
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr


def _numerical_doc(**changes):
    block = {
        "lattice_rank": 1,
        "points": [{"class": [1], "vertices": [["1/2"]]}, {"class": [1], "vertices": [["-1/3"]]}],
        "extremal_rays": [[1]],
    }
    block.update(changes)
    return {"format": 1, "numerical": block}


@pytest.mark.parametrize(
    "doc, needle",
    [
        ({"format": 1, "entries": [5]}, "entries"),
        ({"format": 1, "entries": [{"point": "0", "mu": [2]}, {"mu": [3]}]}, "point"),
        (_numerical_doc(points=[{"class": ["a"], "vertices": [["1/2"]]}]), "class"),
        (_numerical_doc(extremal_rays=[["1/2"]]), "extremal_rays"),
        (_numerical_doc(lattice_rank=5), "cap 4"),
        ({"format": 1, "lattice_rank": 5, "tail_rays": [], "coefficients": []}, "cap 4"),
        ({"format": 1, "entries": [{"mu": [True]}, {"mu": [2]}, {"mu": [3]}]}, "mu"),
        (
            {
                "format": 1,
                "base": {"kind": "abstract", "genus": True},
                "lattice_rank": 1,
                "tail_rays": [[1]],
                "coefficients": [{"point": "p", "vertices": [["1/2"]]}],
            },
            "genus",
        ),
    ],
)
def test_cli_malformed_data_exit(tmp_path, doc, needle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == EXIT_PARSE_ERROR
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr


ONE_ENTRY = {"format": 1, "entries": [{"point": "inf", "mu": [2]}]}


@pytest.mark.parametrize(
    "command, doc, extra",
    [
        ("present", ONE_ENTRY, []),
        ("hilbert", ONE_ENTRY, []),
        ("hilbert", "admissible_e8.json", ["--dmax", "-1"]),
    ],
)
def test_cli_command_input_error_exit(tmp_path, data_dir, command, doc, extra):
    """A document that parses but that the command cannot run on exits 3."""
    if isinstance(doc, str):
        path = data_dir / doc
    else:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
    proc = run_cli([command, str(path), *extra])
    assert proc.returncode == EXIT_PARSE_ERROR
    assert "Traceback" not in proc.stderr
    assert "DegenerateInput" in proc.stderr


@pytest.mark.parametrize(
    "command, doc, needle",
    [
        ("present", "a2.json", "expected an admissible document"),
        ("analyze", "admissible_e8.json", "expected a divisor document"),
    ],
)
def test_cli_wrong_document_kind_exit(data_dir, command, doc, needle):
    proc = run_cli([command, str(data_dir / doc)])
    assert proc.returncode == EXIT_PARSE_ERROR
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr


@pytest.mark.parametrize(
    "args, needle",
    [
        (["analyze", "ex1.json", "--report", "xml"], "--report"),
        (["hilbert", "admissible_e8.json", "--dmax", "abc"], "--dmax"),
        (["analyze", "ex1.json", "--only", "bogus,smooth"], "--only: unknown criteria 'bogus'"),
        (["analyze", "ex1.json", "--only", "smooth,"], "--only: unknown criteria ''"),
        (["analyze", "ex1.json", "--budget", "-5"], "--budget"),
        (["analyze", "ex1.json", "--budget", "many"], "--budget"),
        (["analyze"], "required"),
    ],
)
def test_cli_usage_error_exits_3(data_dir, capsys, args, needle):
    """Exit 2 means "not proper"; a bad command line is an input error."""
    argv = [str(data_dir / a) if a.endswith(".json") else a for a in args]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE_ERROR
    assert needle in capsys.readouterr().err


def test_cli_usage_error_exit_code_in_a_process(data_dir):
    proc = run_cli(["analyze", str(data_dir / "ex1.json"), "--only", "bogus,smooth"])
    assert proc.returncode == EXIT_PARSE_ERROR
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_cli_only_and_budget_accept_valid_values(data_dir):
    proc = run_cli(["analyze", str(data_dir / "ex1.json"), "--only", "proper,rational", "--budget", "0"])
    assert proc.returncode == 0
    assert "proper" in proc.stdout and "inconclusive" in proc.stdout
    assert "smooth" not in proc.stdout


def test_cli_internal_check_is_not_an_input_error(monkeypatch, data_dir):
    """A failed invariant is a bug: the command does not turn it into exit 3."""

    def broken(*args, **kwargs):
        raise InternalCheck("broken invariant")

    monkeypatch.setattr(ufdgen, "presentation", broken)
    with pytest.raises(InternalCheck):
        main(["present", str(data_dir / "admissible_e8.json")])


# a rank-4 divisor over the orthant with two vertices at each of three points
RANK4_ORTHANT = {
    "format": 1,
    "lattice_rank": 4,
    "tail_rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "coefficients": [
        {"point": "inf", "vertices": [["4/3", "2", "-4/5", "14/3"], ["23/6", "17/6", "-1/6", "4"]]},
        {"point": "0", "vertices": [["-1", "3/2", "2", "-2"], ["-3/2", "-2", "0", "-4/5"]]},
        {"point": "1", "vertices": [["2/3", "1", "5/3", "-3/2"], ["2", "3/2", "1", "-1"]]},
    ],
}


def test_rank4_orthant_analysis_finishes():
    """Every criterion of a rank-4 divisor runs to a verdict within 10 s."""
    with capped(10):
        report = analyze(parse_document(RANK4_ORTHANT)["data"])
    res = result_map(report)
    assert res["proper"]["status"] == "proper"
    for criterion in ("proper", "rational", "isolated"):
        assert "error" not in res[criterion], res[criterion]


@pytest.mark.parametrize(
    "multiplicities",
    [[[6, 6, 3], [4, 6], [1, 1, 6], [3, 5, 4]], [[6], [5, 6, 1], [3, 3, 1], [6, 2, 3]]],
    ids=["rank8", "rank7"],
)
def test_high_rank_construct_finishes(tmp_path, capsys, multiplicities):
    """`construct` on admissible data of extra rank 8 and 7 finishes within
    3 s: properness and the extremal rays need no degree polyhedron."""
    path = tmp_path / "admissible.json"
    path.write_text(json.dumps({"format": 1, "entries": [{"mu": m} for m in multiplicities]}))
    with capped(3):
        code = main(["construct", str(path), "--report", "json"])
    assert code == 0
    assert abs(json.loads(capsys.readouterr().out)["determinant"]) == 1


TWO_DIM_TAIL = {
    "format": 1,
    "lattice_rank": 3,
    "tail_rays": [[2, 0, 2], [2, 2, 0], [1, 1, 0]],
    "coefficients": [
        {"point": "inf", "vertices": [["275/6", "163/6", "56/3"], ["101/2", "161/6", "71/3"]]},
        {"point": "0", "vertices": [["-7/6", "11/6", "-3"]]},
        {"point": "1", "vertices": [["37/3", "28/3", "3"], ["-11", "-7", "-4"]]},
        {"point": "2", "vertices": [["3", "1", "2"]]},
    ],
}


def test_two_dimensional_tail_smoothness_finishes():
    """The regularity test of a five-generator bicone in Z^4 needs no double
    description; the whole analysis finishes within 10 s."""
    with capped(10):
        report = analyze(parse_document(TWO_DIM_TAIL)["data"])
    smooth = result_map(report)["smooth"]
    assert smooth["status"] == "no"
    assert smooth["reason"] == "bicone is not regular"
    assert smooth["witness"] == [
        [-6, 275, 163, 112],
        [-6, 303, 161, 142],
        [0, 1, 0, 1],
        [0, 1, 1, 0],
        [6, -55, -25, -30],
    ]


def test_analysis_results_are_freed_with_the_divisor(data_dir):
    """Results are memoized on the divisor, outside its equality, hash and
    repr, so analysing a document keeps nothing alive after it is dropped."""
    doc = json.loads((data_dir / "ex1.json").read_text())
    # points no other test uses: no earlier analysis holds an equal divisor
    for entry, point in zip(doc["coefficients"], ("7", "8", "inf")):
        entry["point"] = point
    d = parse_document(doc)["data"]
    assert result_map(analyze(d))["rational"]["status"] == "yes"
    fresh = parse_document(doc)["data"]
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_memoized_results_are_keyed_on_the_arguments(data_dir):
    d = load_document(data_dir / "ex1.json")["data"]
    assert check_rational(d, budget=1).status == "inconclusive"
    assert check_rational(d).status == "yes"
    assert check_rational(d, budget=1).status == "inconclusive"
