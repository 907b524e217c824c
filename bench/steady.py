"""Steadiness check: do two sets of runs of the same code agree?

    python3 bench/steady.py [--workloads figure1,audit]

Runs the benchmark command of BENCHMARK.json ten times per workload in each of
two sets, with seeds 1 to 10 and the run length it names. For every workload
and end-to-end metric it prints each set's median, quartiles and spread (the
distance between the quartiles as a share of the median), then whether the
spread stays within the metric's bound (``setup_s`` is exempt, as a set-up
time is only compared by its median), whether the two medians differ by no
more than the bound, in either direction, and whether the share of failed
operations is the same in both sets. The last line is a JSON summary of every
run; the exit code is 0 only when everything agrees.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
RUNS = 10     # seeds 1 .. RUNS in each set


def one_run(command, workload, seed, seconds) -> dict:
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            runs = [one_run(bench["command"], w, seed, bench["run_seconds"])
                    for seed in range(1, RUNS + 1)]
            results[w].append(runs)
            print(f"set {s + 1} {w}: " + " ".join(
                f"{r['metrics']['wall_s']['value']:.3f}" for r in runs), flush=True)

    agree = True
    for w in workloads:
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[w]}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        ok_share = len(shares) == 1
        agree &= ok_share and correct
        print(f"\n{w}: checks {'passed' if correct else 'FAILED'} in every run; failed share "
              f"{sorted(shares)} {'same in both sets' if ok_share else 'DIFFERS'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (spread([r["metrics"][name]["value"] for r in runs])
                             for runs in results[w])
            ok_spread = name == "setup_s" or (first[3] <= bound and second[3] <= bound)
            drift = (second[1] - first[1]) / first[1]
            ok_drift = abs(drift) <= bound
            agree &= ok_spread and ok_drift
            sets = "; ".join(f"median {st[1]:.4f} [{st[0]:.4f}, {st[2]:.4f}] spread {st[3]:.3f}"
                             for st in (first, second))
            print(f"  {name:12s} {sets}; bound {bound}; spread {'ok' if ok_spread else 'TOO WIDE'};"
                  f" medians {drift:+.3f} apart {'ok' if ok_drift else 'BEYOND BOUND'}")
    print(json.dumps({"agree": agree, "runs": results}))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
