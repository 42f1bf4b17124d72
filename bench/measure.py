"""Measuring process of the benchmark: one fresh interpreter per pass.

Reads a pass specification as JSON on stdin, runs each item through the
public functions of polysing with a per-item cap, and prints one JSON line
with the time at which `import polysing` returned, every item's wall time,
status and output digest, and the peak RSS. A traced pass also writes its
spans to the file the specification names.

Between items, and every SAMPLE_S of CPU time within one, the process times
the calibration kernel of bench/calib.py and reports each item's time also in
units of that kernel's time, which the host's speed regimes do not move.
"""
import time

import polysing

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calib import calibrate  # noqa: E402

from polysing import cli, divclass, pdiv, polyhedra, ufdgen  # noqa: E402
from polysing.ratlin import primitive  # noqa: E402


class ItemTimeout(BaseException):
    """Raised by the interval timer inside an item that exceeds the cap; a
    BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise ItemTimeout


# inside an item the kernel is also timed every SAMPLE_S of CPU time, since
# a regime can change within a long item
SAMPLE_S = 0.025


class Speedometer:
    """An item's time in kernel units: each stretch of the item between two
    calibrations, divided by the mean of those two calibrations' times."""

    def __init__(self, sample: bool):
        self.sample = sample
        self.last = calibrate()
        self.marks: list[tuple[int, int, int]] = []  # (start, end, kernel ns)
        if sample:
            signal.signal(signal.SIGPROF, self._on_prof)

    def _on_prof(self, signum, frame):
        t0 = time.perf_counter_ns()
        cal = calibrate()
        self.marks.append((t0, time.perf_counter_ns(), cal))

    def start(self) -> int:
        self.marks.clear()
        if self.sample:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return time.perf_counter_ns()

    def stop(self, t0: int) -> tuple[float, float]:
        """The item's wall time in ms without the in-item calibrations, and in kernel units."""
        t1 = time.perf_counter_ns()
        if self.sample:
            signal.setitimer(signal.ITIMER_PROF, 0)
        after = calibrate()
        ends = [(t0, self.last)] + [(m[1], m[2]) for m in self.marks]
        starts = [(m[0], m[2]) for m in self.marks] + [(t1, after)]
        wall = kernels = 0.0
        for (a, cal_a), (b, cal_b) in zip(ends, starts):
            wall += b - a
            kernels += (b - a) / ((cal_a + cal_b) / 2)
        self.last = after
        return wall / 1e6, kernels


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _divisor_summary(d) -> dict:
    return {
        "tail": [list(r) for r in d.tail.generators],
        "coeffs": [
            [str(p), [[str(x) for x in v] for v in poly.vertices]] for p, poly in d.coeffs
        ],
    }


def _admissible(mus):
    mus = [tuple(t) for t in mus]
    return ufdgen.admissible_data(list(zip(ufdgen.default_points(len(mus)), mus)))


# Each workload is a pair: `run` is the timed work for one item; `summarize`
# turns its result into the checked output, outside the timed region.


def run_sweep(item):
    data = _admissible(item["mus"])
    d = ufdgen.construct_divisor(data)
    fact = divclass.factoriality_det(d)
    cg = divclass.class_group(d)
    proper = pdiv.is_proper(d)
    fam = ufdgen.classify_isolated_factorial(data) if data.dimension >= 3 else None
    cmp = None
    mus = item["mus"]
    if len(mus) == 3 and all(len(t) == 1 for t in mus):
        pres = ufdgen.presentation(data, d)
        cmp = ufdgen.hilbert_compare_presentation(d, pres, (1,), 30)
    return d, fact, cg, proper, fam, cmp


def summarize_sweep(result):
    d, fact, cg, proper, fam, cmp = result
    out = {
        "divisor": _divisor_summary(d),
        "det": fact.det,
        "torsion": list(cg.torsion),
        "free_rank": cg.free_rank,
        "proper": proper.status,
        "family": None if fam is None else [fam.label, list(fam.params)],
        "hilbert": None if cmp is None else [cmp.match, list(cmp.dims)],
    }
    checks = {"det": fact.det, "torsion": list(cg.torsion), "free_rank": cg.free_rank,
              "proper": proper.status, "match": None if cmp is None else cmp.match}
    return out, checks


def run_document(item):
    doc = cli.load_document(Path(item["path"]))
    report = cli.analyze(doc["data"])
    return report, cli.canonical_dumps(report)


def summarize_document(result):
    report, _ = result
    stripped = dict(report)
    stripped["results"] = [{k: v for k, v in e.items() if k != "ms"} for e in report["results"]]
    rational = next(
        (e["status"] for e in report["results"] if e["criterion"] == "rational"), None
    )
    return stripped, {"exit": report["exit"], "rational": rational}


def run_graded(item):
    data = _admissible(item["mus"])
    d = ufdgen.construct_divisor(data)
    pres = ufdgen.presentation(data, d)
    gens = polyhedra.minimal_generators(d.tail)
    weight = primitive([sum(g[i] for g in gens) for i in range(pdiv.rank(d))])
    cmp = ufdgen.hilbert_compare_presentation(d, pres, weight, item["d_max"])
    return pres, weight, cmp


def summarize_graded(result):
    pres, weight, cmp = result
    out = {
        "degrees": [list(u) for u in pres.degrees],
        "relations": list(pres.relations),
        "weight": list(weight),
        "match": cmp.match,
        "first_mismatch": cmp.first_mismatch,
        "dims": list(cmp.dims),
    }
    return out, {"match": cmp.match}


RUNNERS = {
    "factorial_sweep": (run_sweep, summarize_sweep),
    "surface_batch": (run_document, summarize_document),
    "solid_batch": (run_document, summarize_document),
    "graded_check": (run_graded, summarize_graded),
}


def main() -> None:
    ready_cal_ns = calibrate()
    spec = json.loads(sys.stdin.read())
    run, summarize = RUNNERS[spec["workload"]]
    cap = spec["cap_s"]
    stop_at = time.monotonic() + spec.get("budget_s", float("inf"))
    tracer = None
    if spec.get("spans_path"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    # in-item calibrations would be charged to the traced function they interrupt
    speed = Speedometer(sample=tracer is None)
    for index, item in enumerate(spec["items"]):
        if tracer is not None:
            tracer.item = index
        status, digest, checks = "ok", None, None
        if time.monotonic() > stop_at:
            results.append({"key": item["key"], "status": "not_run", "ms": 0.0})
            continue
        t0 = speed.start()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                result = run(item)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ItemTimeout:
            status = "timeout"
        except Exception as exc:  # an uncaught error fails the item, not the pass
            status = f"error:{type(exc).__name__}"
        elapsed_ms, kernels = speed.stop(t0)
        if status == "timeout":
            elapsed_ms = cap * 1000.0
            if tracer is not None:
                tracer.abandon(time.perf_counter_ns())
        if status == "ok":
            try:
                output, checks = summarize(result)
                digest = _digest(output)
            except Exception as exc:  # an output that cannot be read fails the item
                status = f"unreadable output:{type(exc).__name__}"
        results.append(
            {
                "key": item["key"],
                "status": status,
                "ms": elapsed_ms,
                "kernels": kernels,
                "digest": digest,
                "checks": checks,
            }
        )
    span_count = None if tracer is None else tracer.write(spec["spans_path"])
    print(
        json.dumps(
            {
                "ready": READY,
                "ready_cal_ns": ready_cal_ns,
                "polysing_file": polysing.__file__,
                "items": results,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "trace": None
                if tracer is None
                else {"names": tracer.names, "spans": span_count, "counters": tracer.counters},
            }
        )
    )


if __name__ == "__main__":
    main()
