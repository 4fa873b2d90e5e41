"""Steadiness check: two interleaved sets of runs per workload.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py [--runs 10] [--workloads adhoc,serve,live]
                                [--seconds S]

Runs ``run.py`` for every workload ``--runs`` times per set, set A on
seeds 1.., set B on seeds 101.., alternating A and B run by run so that
machine drift lands on both.  Prints, per workload, metric and set, the
median and the interquartile range (``statistics.quantiles(n=4)``) as a
share of the median, for the calibrated metrics of the result line and
for the raw values beside them; then whether each spread is within the
metric's bound in ``BENCHMARK.json`` and whether set B's median is no
worse than set A's by more than that bound.  Then it makes one traced
run per workload and prints the tracing overhead: the traced run's
``trace.queries_per_s`` against the untraced median.  Exit code 1 when
any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, median, quartile_spread, read_json  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit "
                         f"{completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}

    # results[workload][set] = list of (detail, result)
    results: dict = {w: [[], []] for w in workloads}
    for k in range(args.runs):
        for which in range(2):
            for workload in workloads:
                seed = 1 + k + 100 * which
                detail, result = run_once(workload, seed, args.seconds, 0)
                results[workload][which].append((detail, result))
                print(f"# {workload} set {'AB'[which]} seed {seed}: "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)

    ok = True
    for workload in workloads:
        print(f"\n## {workload}")
        print(f"{'metric':26} {'set':3} {'median':>12} {'IQR/med':>8} "
              f"{'raw median':>12} {'raw IQR/med':>11}")
        medians: dict = {}
        for name, (bound, better) in bounds.items():
            for which, runs in enumerate(results[workload]):
                values = [r["metrics"][name]["value"] for _, r in runs]
                raws = [d["raw"].get(name) for d, _ in runs]
                mid, _, spread = quartile_spread(values)
                raw_text = ""
                if all(v is not None for v in raws):
                    raw_mid, _, raw_spread = quartile_spread(raws)
                    raw_text = f"{raw_mid:12.4f} {raw_spread:11.3f}"
                flag = ""
                if spread > bound:
                    flag = f"  SPREAD > bound {bound}"
                    ok = False
                print(f"{name:26} {'AB'[which]:3} {mid:12.4f} "
                      f"{spread:8.3f} {raw_text}{flag}")
                medians.setdefault(name, []).append(mid)
            first, second = medians[name]
            worse = ((second - first) / first if better == "lower"
                     else (first - second) / first) if first else 0.0
            verdict = "agree" if worse <= bound else "DISAGREE"
            ok = ok and worse <= bound
            print(f"{'':26} B vs A: {worse:+.3f} of A "
                  f"(bound {bound}) {verdict}")
        shares = [sorted({r["failed"] / r["attempted"] for _, r in runs})
                  for runs in results[workload]]
        wrong = sum(not r["correct"] for runs in results[workload]
                    for _, r in runs)
        print(f"failed share per set: {shares}; incorrect runs: {wrong}")
        ok = ok and wrong == 0 and all(s == shares[0] for s in shares)

    print("\n## tracing overhead (traced run vs untraced median)")
    for workload in workloads:
        untraced = median(r["metrics"]["queries_per_s"]["value"]
                          for runs in results[workload] for _, r in runs)
        _, traced = run_once(workload, 1, args.seconds, 1)
        traced_qps = traced["metrics"]["trace.queries_per_s"]["value"]
        print(f"{workload}: untraced {untraced:.2f} q/s, traced "
              f"{traced_qps:.2f} q/s, overhead "
              f"{(untraced - traced_qps) / untraced:+.1%}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
