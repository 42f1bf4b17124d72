"""Golden reports for every document in tests/data.

`golden.json`, beside this file, holds one entry per (document, command):
`analyze --report json` with the per-criterion `ms` stripped, `charts` for
divisor documents, and `construct`, `present` and `hilbert --dmax 30` for
admissible documents, each with its exit code.
Regenerate it, only when a report is meant to change, with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from polysing.cli import main, parse_document

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden.json"


def _commands(doc: dict) -> list[list[str]]:
    kind = parse_document(doc)["kind"]
    cmds = [["analyze", "--report", "json"]]
    if kind == "divisor":
        cmds.append(["charts", "--report", "json"])
    if kind == "admissible":
        cmds += [[c, "--report", "json"] for c in ("construct", "present")]
        cmds.append(["hilbert", "--dmax", "30", "--report", "json"])
    return cmds


def _strip_ms(report: dict) -> dict:
    for entry in report.get("results", []):
        entry.pop("ms", None)
    return report


def _run(cmd: list[str], path: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([cmd[0], str(path), *cmd[1:]])
    text = out.getvalue()
    return {"exit": code, "report": _strip_ms(json.loads(text)) if text else None}


def _keys() -> list[str]:
    paths = sorted(DATA.glob("*.json"))
    return [f"{p.name} {' '.join(cmd)}" for p in paths for cmd in _commands(json.loads(p.read_text()))]


def _run_key(key: str) -> dict:
    name, *cmd = key.split(" ")
    return _run(cmd, DATA / name)


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", _keys())
def test_golden_report(key):
    assert _run_key(key) == _load()[key]


def test_golden_covers_every_document():
    assert sorted(_load()) == sorted(_keys())


if __name__ == "__main__":
    golden = {key: _run_key(key) for key in _keys()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
