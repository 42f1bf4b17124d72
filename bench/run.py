"""Benchmark of polysing: time to verdict, throughput and memory per workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from `src/` beside this
directory. Each pass is a fresh single-threaded interpreter (bench/measure.py)
with PYTHONHASHSEED fixed, which runs a fixed number of distinct items;
passes repeat until the measured item time is nearest --seconds. Every output
is checked, outside the timed region, against the digest recorded in
bench/refs.json and against an independent oracle where one exists. Times
are scaled to a reference host speed by the calibration kernel of
bench/calib.py; see item_times().

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
each pass runs once untraced and once traced, and the last line reports the
per-layer metrics and the tracing overhead. Lines before it are for people.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from calib import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# at the commit that added this benchmark the slowest item that decides takes
# 1.6 s (a rank-4 graded comparison) and the slowest solid document 0.8 s
CAP_S = 5.0
SETUP_SAMPLES = 15
# time of measure.calibrate() in the faster speed regime of the host the
# benchmark was written on (2 vCPUs, Python 3.11.7); item times are reported
# at that speed, see item_times()
CAL_REF_MS = 0.25
# wall budget for the passes of one run, so that a run ends within 180 s even
# when many items hit the cap
RUN_BUDGET_S = 120.0


class BenchError(Exception):
    """The benchmark could not measure: no package, or a pass that crashed."""


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def launch(spec: dict, timeout_s: float) -> tuple[dict, float, float]:
    """Run one measuring process; returns its report and its set-up time,
    from launch until `import polysing` returned, in s as measured and scaled
    to the reference speed by the calibrations just before and after it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cal_ns = calibrate()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "measure.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"measuring process exceeded {timeout_s:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"measuring process failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not Path(out["polysing_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported polysing from {out['polysing_file']}, not from src/")
    setup_s = out["ready"] - t0
    return out, setup_s, setup_s * CAL_REF_MS * 1e6 / ((cal_ns + out["ready_cal_ns"]) / 2)


def item_specs(keys: list[str], pool: dict) -> list[dict]:
    """Items as the measuring process reads them; documents go to files."""
    specs = []
    for key in keys:
        item = pool[key]
        if "coefficients" in item:
            path = WORK / "docs" / f"{key}.json"
            if not path.exists():
                path.write_text(json.dumps(item))
            specs.append({"key": key, "path": str(path)})
        else:
            specs.append({"key": key, **item})
    return specs


def failure(workload: str, result: dict, refs: dict, pool: dict) -> str | None:
    """Why an item failed, or None: an error, a timeout, an output that
    differs from its reference digest, or an answer an oracle refutes."""
    if result["status"] != "ok":
        return result["status"]
    key = result["key"]
    if key not in refs:
        return "no reference"
    if result["digest"] != refs[key]:
        return "output differs from reference"
    checks = result["checks"]
    if workload == "factorial_sweep":
        if abs(checks["det"] or 0) != 1:
            return f"determinant {checks['det']}"
        if checks["torsion"] or checks["free_rank"] != 0:
            return "class group not trivial"
        if checks["proper"] != "proper" or checks["match"] is False:
            return "not proper or graded mismatch"
    elif workload == "graded_check":
        if checks["match"] is not True:
            return "graded dimensions differ from the presentation"
    else:
        # both generators make proper divisors
        if checks["exit"] != 0:
            return f"exit {checks['exit']} on a proper divisor"
        if workload == "surface_batch":
            naive = workloads.rank1_rational_oracle(pool[key])
            if naive is not None and naive != checks["rational"]:
                return f"rational {checks['rational']}, naive floor-sum scan {naive}"
    return None


def item_times(out: dict, scaled: bool = True) -> list[float]:
    """Wall time in ms of each item the pass started; a timeout counts at the cap.

    Scaled, it is the item's time in calibration-kernel units times the
    kernel's reference time CAL_REF_MS, so that it reads as if the host had run
    at its reference speed: the host's speed regimes come and go within
    seconds and move both times alike, while a change to polysing moves only
    the item."""
    return [
        r["kernels"] * CAL_REF_MS if scaled and r["status"] != "timeout" else r["ms"]
        for r in out["items"]
        if r["status"] != "not_run"
    ]


def tail_percentile(pass_size: int) -> float:
    """The highest percentile with at least ten items of one pass beyond it."""
    return 100.0 * (1 - 10 / pass_size)


def percentile(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_passes(args, pool, refs, deadline) -> dict:
    keys = sorted(pool)
    state = {"plain": [], "traced": [], "setups": [], "failures": [], "attempted": 0}
    measured_s = pass_s = 0.0
    index = 0
    # start another pass while that ends nearer to --seconds than stopping does
    while index == 0 or (measured_s + pass_s / 2 < args.seconds and time.monotonic() < deadline):
        order = workloads.pass_keys(args.workload, keys, args.seed, index)
        spec = {
            "workload": args.workload,
            "items": item_specs(order, pool),
            "cap_s": CAP_S,
            "budget_s": max(deadline - time.monotonic(), 1.0),
        }
        before = measured_s
        modes = ("plain", "traced") if args.trace else ("plain",)
        for mode in modes:
            if mode == "traced":
                spec["spans_path"] = str(WORK / f"spans-{index}.bin")
            out, *setup = launch(spec, deadline - time.monotonic() + 60)
            state["setups"].append(setup)
            state[mode].append(out)
            for result in out["items"]:
                state["attempted"] += 1
                why = failure(args.workload, result, refs, pool)
                if why is not None:
                    state["failures"].append(f"{mode} pass {index}, {result['key']}: {why}")
                measured_s += result["ms"] / 1000
        pass_s = measured_s - before
        index += 1
    return state


def end_to_end(state, pass_size) -> dict:
    """Each timing is the median over passes of that pass's figure, so that a
    slow phase of the machine during one pass does not carry the run."""
    tail_pct = tail_percentile(pass_size)
    per_pass, raw_per_pass, cal_us = [], [], []
    for out in state["plain"]:
        for scaled, rows in ((True, per_pass), (False, raw_per_pass)):
            times = sorted(item_times(out, scaled))
            if times:
                rows.append(
                    (
                        len(times) / (sum(times) / 1000),
                        statistics.median(times),
                        percentile(times, tail_pct),
                        out["peak_rss_kb"] / 1024,
                    )
                )
        cal_us += [1000 * r["ms"] / r["kernels"] for r in out["items"] if r["status"] == "ok"]
    ips, p50, tail, rss = (statistics.median(column) for column in zip(*per_pass))
    raw = [statistics.median(column) for column in zip(*raw_per_pass)][:3]
    metrics = {
        "setup_s": (statistics.median(s for _, s in state["setups"]), "s"),
        "items_per_s": (ips, "1/s"),
        "item_p50_ms": (p50, "ms"),
        "item_tail_ms": (tail, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(state['setups'])} launches",
        "item_tail_ms": f"p{tail_pct:.1f} of {pass_size} items per pass",
    }
    print(
        f"unscaled: {raw[0]:.4f} items/s, p50 {raw[1]:.4f} ms, tail {raw[2]:.4f} ms, "
        f"setup {statistics.median(r for r, _ in state['setups']):.4f} s; "
        f"calibration median {statistics.median(cal_us):.1f} us, reference {CAL_REF_MS * 1000:.1f} us"
    )
    print(f"medians over {len(per_pass)} passes of {pass_size} items:")
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:>12.4f} {unit:<4} {notes.get(name, '')}")
    return metrics


def per_layer(state) -> dict:
    traced_items = sum(len(out["items"]) for out in state["traced"])
    n_passes = len(state["traced"])
    totals: dict[str, list] = {}
    counters: dict[str, int] = {}
    for index, out in enumerate(state["traced"]):
        trace = out["trace"]
        spans = tracing.read_spans(str(WORK / f"spans-{index}.bin"), trace["spans"])
        for qual, (calls, self_ns) in tracing.layer_totals(trace["names"], spans).items():
            entry = totals.setdefault(qual, [0, 0])
            entry[0] += calls
            entry[1] += self_ns
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    metrics = {}
    for layer, fns in tracing.LAYERS.items():
        layer_calls = sum(totals.get(f"{layer}.{fn}", [0, 0])[0] for fn in fns)
        layer_ns = sum(totals.get(f"{layer}.{fn}", [0, 0])[1] for fn in fns)
        metrics[f"{layer}.calls"] = (layer_calls / n_passes, "count")
        metrics[f"{layer}.self_ms"] = (layer_ns / 1e6 / n_passes, "ms")
        for fn in fns:
            calls, self_ns = totals.get(f"{layer}.{fn}", [0, 0])
            metrics[f"{layer}.{fn}.calls"] = (calls / n_passes, "count")
            metrics[f"{layer}.{fn}.self_ms"] = (self_ns / 1e6 / n_passes, "ms")
    construct_calls = totals.get("ufdgen.construct_divisor", [0, 0])[0]
    metrics["ufdgen.construct_divisor.per_item"] = (construct_calls / traced_items, "1/item")
    metrics["polyhedra.sigma_polyhedron.kept_ratio"] = (
        counters["sigma_kept"] / max(counters["sigma_candidates"], 1),
        "ratio",
    )
    metrics["pdiv.quasifan.cells"] = (counters["quasifan_cells"] / n_passes, "count")
    metrics["singcheck.check_rational.inconclusive"] = (
        counters["rational_inconclusive"] / n_passes,
        "count",
    )

    def throughput(outs):
        times = [t for out in outs for t in item_times(out)]
        return len(times) / (sum(times) / 1000)

    plain_ips, traced_ips = throughput(state["plain"]), throughput(state["traced"])
    metrics["trace_overhead"] = (plain_ips / traced_ips, "x")
    print(
        f"tracing overhead: {plain_ips:.2f} items/s untraced, {traced_ips:.2f} traced "
        f"({traced_items} items in {n_passes} traced passes)"
    )
    for name, (value, unit) in metrics.items():
        if metrics.get(name.rsplit(".", 1)[0] + ".calls", (1,))[0]:  # skip what never ran
            print(f"{name:<48} {value:>14.4f} {unit}")
    return metrics


def rank4_probe(deadline) -> int:
    """Run the rank-4 documents under the cap; returns how many hit it."""
    pool = workloads.rank4_probe_pool()
    spec = {
        "workload": "solid_batch",
        "items": item_specs(sorted(pool), pool),
        "cap_s": CAP_S,
        "budget_s": max(deadline - time.monotonic(), 1.0),
    }
    out, *_ = launch(spec, deadline - time.monotonic() + 60)
    for r in out["items"]:
        print(f"rank-4 probe {r['key']}: {r['status']} ({r['ms']:.0f} ms)")
    return sum(r["status"] == "timeout" for r in out["items"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polysing" / "__init__.py").is_file():
        print(f"no polysing package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((BENCH / "refs.json").read_text()).get(args.workload, {})
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "docs").mkdir(parents=True)
    steal_before = steal_ticks()
    try:
        deadline = time.monotonic() + RUN_BUDGET_S
        pool = workloads.pool(args.workload)
        # the first launch in a checkout writes the bytecode cache; users pay that once
        launch({"workload": args.workload, "items": [], "cap_s": CAP_S}, 60)
        state = run_passes(args, pool, refs, deadline)
        while len(state["setups"]) < SETUP_SAMPLES:
            state["setups"].append(launch({"workload": args.workload, "items": [], "cap_s": CAP_S}, 60)[1:])
        pass_size = len(state["plain"][0]["items"])
        print(
            f"workload {args.workload}, seed {args.seed}: {len(state['plain'])} passes of "
            f"{pass_size} items, cap {CAP_S:.0f} s per item"
        )
        if args.trace:
            metrics = per_layer(state)
            timeouts = rank4_probe(deadline) if args.workload == "solid_batch" else 0
            metrics["probe.rank4_timeouts"] = (timeouts, "count")
            print(f"{'probe.rank4_timeouts':<48} {timeouts:>14} count")
        else:
            metrics = end_to_end(state, pass_size)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    steal_after = steal_ticks()
    failed = len(state["failures"])
    for line in state["failures"]:
        print(f"FAILED {line}")
    print(f"fail_frac      {failed / state['attempted']:>12.4f}      {failed} of {state['attempted']} items")
    print(
        f"env: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
        f"host steal ticks {steal_before} -> {steal_after}"
    )
    result = {
        "correct": failed == 0,
        "attempted": state["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
