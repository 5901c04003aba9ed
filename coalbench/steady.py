#!/usr/bin/env python3
"""Steadiness check for the coalbench benchmark.

Runs each workload repeatedly on the current checkout, one seed per run,
and prints per end-to-end metric the median, the quartiles and the spread
(interquartile range as a share of the median, computed with
``statistics.quantiles(values, n=4)``). A metric whose spread exceeds its
bound in ``BENCHMARK.json`` is flagged ``OVER``; one above a third of its
bound is flagged ``near``. Every metric is held to its own bound,
``setup_s`` too.

The metrics that cannot hold a bound on a shared box (p90 and p99 of
the window-64 / per-hop and window-1 / decide-step latencies, and the
rollout round trip of the ``rollout`` workload) are not in
``BENCHMARK.json``; they are read from each run's result file under
``coalbench/out/`` and reported in an "ungated" block, flagged against
the largest bound any metric may have (0.25), so a metric that cannot
hold its bound is shown as such.

Run from the repository root:

    python3 coalbench/steady.py --runs 10 [--workloads decide,rollout]
        [--seconds 10]

Run ``i`` of a workload uses seed ``i`` (1..runs), with ``--trace 0``.

Exit status is 1 when any gated metric is flagged ``OVER`` or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Ungated metrics, read from the result file's facts.
UNGATED = ["p90_us", "p99_us", "rtt_p90_us", "rtt_p99_us", "rollout_mean_ms"]
MAX_BOUND = 0.25


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    path = f"coalbench/out/{workload}-seed{seed}-trace0.json"
    with open(path) as f:
        facts = json.load(f)["facts"]
    ungated = {k: float(facts[k]) for k in UNGATED if k in facts}
    return metrics, ungated


def report(samples, bounds):
    """Print one block of metrics; return whether a bounded one is OVER."""
    flagged = False
    print(f"  {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in samples.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "OVER"
                flagged = True
            elif spread > bound / 3:
                flag = "near"
        print(f"  {name:<24} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
              f"{spread:>8.4f} {'' if bound is None else bound:>6} {flag}")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads.split(",") if opts.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    command = bench["command"]

    flagged = False
    for w in workloads:
        samples, ungated = {}, {}
        for i in range(opts.runs):
            seed = i + 1
            metrics, extra = run_once(command, w, seed, seconds)
            for name, v in metrics.items():
                samples.setdefault(name, []).append(v)
            for name, v in extra.items():
                ungated.setdefault(name, []).append(v)
            print(f"# {w} run {i + 1}/{opts.runs} (seed {seed}) done", file=sys.stderr)
        print(f"\n{w}: {opts.runs} runs x {seconds} s")
        flagged |= report(samples, bounds)
        if ungated:
            print(f"  ungated (flagged against {MAX_BOUND}):")
            report(ungated, {k: MAX_BOUND for k in ungated})
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
