#!/usr/bin/env python3
"""End-to-end benchmark of the cluster rule server.

One run::

    python3 perfbench/run.py --workload churn-contested --seed 1 --seconds 45 --trace 0

prints every end-to-end metric by name and unit (``--trace 1``: every
per-layer metric, from a separate traced run), then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when the output check passed.

Repeat mode runs the workloads back to back, alternating, one seed per
round (``--fixed-seed``: the same seed every round, which leaves only
the host's own noise), and prints each metric's median, quartiles and
range (default: the workloads ``BENCHMARK.json`` lists)::

    python3 perfbench/run.py --repeat 10 --seconds 45 [--workloads a,b]

Run from the root of the repository; the program under test is the
``repro`` package in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _number(value):
    return None if value is None or not math.isfinite(value) else value


def report(result) -> dict:
    """Print one run's human-readable summary; return its JSON line."""
    details = result.details
    print(f"workload {result.workload}  seed {result.seed}  "
          f"trace {int(result.trace)}")
    print("host: " + "  ".join(f"{key}={value}" for key, value
                               in result.fingerprint.items()))
    if result.workload == "fleet-process-wal":
        print("durability: WAL and snapshots under .bench_build on "
              f"{result.fingerprint['durability_fs']}; WAL appends are "
              "never fsynced, so disk fsync is not measured")
    width = max(len(name) for name in result.metrics)

    def show(metrics: dict) -> None:
        for name, (value, unit) in metrics.items():
            shown = "refused (too few samples)" if value is None \
                else f"{value:.6g}"
            print(f"  {name:<{width}}  {shown} {unit}")
    show(result.metrics)
    first, second = details["late_shares"]
    print(f"open loop: {details['open_ticks']} ticks, "
          f"{details['actions_timed']} actions timed; late-tick share "
          f"{first:.2%} -> {second:.2%} (first -> second half)")
    print(f"closed loop: {details['closed_ticks']} ticks")
    if "register" in details:
        print(f"churn: {details['registrations']} validated registrations "
              "timed (not in BENCHMARK.json)")
        show(details["register"])
    if result.layers:
        print("mean self time per traced tick (us):")
        for layer, micros in sorted(result.layers.items(),
                                    key=lambda item: -item[1]):
            print(f"  {layer:<22} {micros:10.1f}")
    for note in result.notes:
        print(f"note: {note}")
    if result.mismatches:
        print(f"output check FAILED: {len(result.mismatches)} mismatches")
        for mismatch in result.mismatches[:20]:
            print(f"  {mismatch}")
    else:
        print("output check: ok")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }


def repeat(args, names: list[str]) -> int:
    """Alternate the workloads for ``args.repeat`` rounds (seed
    ``args.seed + round``, or ``args.seed`` with ``--fixed-seed``) in
    child processes; print per-metric spread."""
    from e2ebench.stats import spread

    bounds = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            bench = json.load(handle)
        bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
        names = [w["name"] for w in bench["workloads"]]
    except (OSError, ValueError, KeyError):
        pass
    if args.workloads:
        names = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    units: dict[str, str] = {}
    failures = 0
    behind = 0
    for number in range(args.repeat):
        seed = args.seed if args.fixed_seed else args.seed + number
        for name in names:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT, timeout=900)
            lines = done.stdout.strip().splitlines()
            if number == 0 and name == names[0]:
                print(next((line for line in lines
                            if line.startswith("host:")), "host: ?"))
            if any("open loop fell behind" in line for line in lines):
                behind += 1
                print(f"{name} seed {seed}: open loop fell "
                      "behind")
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name} seed {seed}: no result "
                      f"(exit {done.returncode})\n{done.stderr[-2000:]}")
                failures += 1
                continue
            if done.returncode != 0 or not result["correct"]:
                failures += 1
            print(f"{name} seed {seed}: correct="
                  f"{result['correct']} failed={result['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()
                           if v["value"] is not None and k in bounds),
                  flush=True)
            for metric, entry in result["metrics"].items():
                if entry["value"] is not None:
                    values[name].setdefault(metric, []).append(entry["value"])
                    units[metric] = entry["unit"]
    summary = {}
    print(f"\n{'workload':<18} {'metric':<34} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'min':>11} {'max':>11} {'iqr/med':>8} {'bound':>6}")
    for name in names:
        for metric, series in values[name].items():
            stats = spread(series)
            bound = bounds.get(metric)
            flag = "" if bound is None or stats["iqr_share"] <= bound / 3 \
                else "  wide"
            print(f"{name:<18} {metric:<34} {stats['median']:11.5g} "
                  f"{stats['q1']:11.5g} {stats['q3']:11.5g} "
                  f"{stats['min']:11.5g} {stats['max']:11.5g} "
                  f"{stats['iqr_share']:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            summary.setdefault(name, {})[metric] = {
                "unit": units[metric], **stats}
    print(f"runs failed: {failures}; open loops fell behind: {behind}")
    print(json.dumps({"failures": failures, "behind": behind,
                      "runs": summary}))
    return 1 if failures else 0


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    from e2ebench.runner import WORKLOADS, run

    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the cluster rule server.")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="timed seconds per run (all phases)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0,
                        help="rounds of alternating runs (repeat mode)")
    parser.add_argument("--workloads",
                        help="comma-separated workloads for repeat mode")
    parser.add_argument("--fixed-seed", action="store_true",
                        help="repeat mode: the same seed every round")
    args = parser.parse_args(argv)
    if not args.repeat and args.workload is None:
        parser.error("--workload is required outside repeat mode")
    if args.repeat:
        return repeat(args, list(WORKLOADS))
    # One CPU for the load generator, the cluster and the workers it
    # forks (they inherit the affinity).  With two vCPUs, every tick of
    # the process fleet waits on wake-ups across vCPUs, which the host
    # delays by up to tens of milliseconds when it is busy; on one CPU
    # the program's own costs add up serially, and the other CPU takes
    # the host's noise.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    line = report(result)
    print(json.dumps(line), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
