import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from polysing.cli import (
    EXIT_NOT_PROPER,
    EXIT_PARSE_ERROR,
    ParseError,
    analyze,
    canonical_dumps,
    charts_report,
    load_document,
    parse_document,
)
from polysing.pdiv import Point


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
    [("tail_rays", [["a"]]), ("coefficients", [5]), ("canonical_divisor", 7)],
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
