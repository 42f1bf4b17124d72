"""The factorial sweep, the solid documents, every tenth surface document and
the graded comparisons of the benchmark give the output digests recorded in
bench/refs.json, and the answers their oracles check.

The benchmark fails an item whose digest changed; this test sees the same
change without a benchmark run.  It reads bench/ and writes nothing there.
"""
import json
import sys
from pathlib import Path

import pytest

from polysing import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """The harness modules measure and workloads, imported from bench/ without
    writing bytecode there, and the reference digests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        import measure
        import workloads

        yield measure, workloads, json.loads((BENCH / "refs.json").read_text())
    for name in ("measure", "workloads", "calib"):
        sys.modules.pop(name, None)


def test_solid_batch_digests(bench):
    measure, workloads, refs = bench
    expected = refs["solid_batch"]
    pool = workloads.pool("solid_batch")
    assert sorted(pool) == sorted(expected)
    for key, doc in sorted(pool.items()):
        report = cli.analyze(cli.parse_document(doc, key)["data"])
        output, _ = measure.summarize_document((report, None))
        assert measure._digest(output) == expected[key], key


def test_graded_check_digests(bench):
    measure, workloads, refs = bench
    expected = refs["graded_check"]
    pool = workloads.pool("graded_check")
    assert sorted(pool) == sorted(expected)
    for key, item in sorted(pool.items()):
        output, _ = measure.summarize_graded(measure.run_graded(item))
        assert measure._digest(output) == expected[key], key


def test_factorial_sweep_digests(bench):
    measure, workloads, refs = bench
    expected = refs["factorial_sweep"]
    pool = workloads.pool("factorial_sweep")
    assert sorted(pool) == sorted(expected) and len(pool) == 570
    for key, item in sorted(pool.items()):
        output, checks = measure.summarize_sweep(measure.run_sweep(item))
        assert measure._digest(output) == expected[key], key
        assert abs(checks["det"]) == 1 and not checks["torsion"] and checks["free_rank"] == 0, key
        assert checks["proper"] == "proper" and checks["match"] is not False, key


def test_surface_batch_digests_and_rational_oracle(bench):
    measure, workloads, refs = bench
    expected = refs["surface_batch"]
    pool = workloads.pool("surface_batch")
    assert sorted(pool) == sorted(expected)
    decided = 0
    for key in sorted(pool)[::10]:
        report = cli.analyze(cli.parse_document(pool[key], key)["data"])
        output, checks = measure.summarize_document((report, None))
        assert measure._digest(output) == expected[key], key
        assert checks["exit"] == 0, key
        naive = workloads.rank1_rational_oracle(pool[key])
        if naive is not None:
            decided += 1
            assert checks["rational"] == naive, key
    assert decided > 250
