"""snaflow benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload figure1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every operation is one snaflow CLI subcommand in a fresh interpreter
(``child.py``) with BLAS threads pinned to one. Rounds of operations run one
after another until the next round would end past ``--seconds``; at least one
round always runs. The artifacts of the first operation are checked against
independent computations (``workloads.py``), and every other operation must
write byte-identical artifacts. An operation fails when its exit code is not
0, its artifacts differ, the checks fail, or the checks find a known fault of
the program (which shows on every seed, so the run stays correct).

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s`` (the
subcommand call, until its last artifact is written), ``setup_s`` (interpreter
start until ``load_config`` has returned) and ``peak_rss_mb`` of the child,
each a median. With ``--trace 1`` each round runs the operation untraced and
then traced, and the result holds the per-layer metrics of the traced runs
plus ``trace.overhead_s``. The last line of standard output is the JSON
result; the lines before it repeat the metrics with their sample counts.
``--workload all`` runs every workload in its own child process, one at a
time, and prints a table.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
SETUP_PROBES = 5          # extra set-up-only interpreters per run
RUN_DEADLINE_S = 170.0    # children still running then are killed
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ns_per_lane"):
        return "ns"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


class Launcher:
    """Starts child interpreters for one run and collects what they report."""

    def __init__(self, run_dir: str, config_path: str, subcommand: str, t_start: float):
        self.run_dir = run_dir
        self.config_path = config_path
        self.subcommand = subcommand
        self.t_start = t_start
        self.count = 0
        self.env = {**os.environ, **ONE_THREAD}

    def launch(self, setup_only=False, trace=False) -> dict:
        self.count += 1
        op_dir = os.path.join(self.run_dir, f"op{self.count}")
        os.makedirs(op_dir)
        spec = {
            "src": SRC,
            "config": self.config_path,
            "subcommand": None if setup_only else self.subcommand,
            "out": os.path.join(op_dir, "out"),
            "trace": trace,
            "spans": os.path.join(op_dir, "spans.npz"),
            "result": os.path.join(op_dir, "result.json"),
        }
        spec_path = os.path.join(op_dir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.t_start)
        with open(os.path.join(op_dir, "log.txt"), "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                    cwd=ROOT, env=self.env, stdout=log, stderr=log)
            timer = threading.Timer(max(remaining, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = {"exit": proc.returncode, "out": spec["out"], "spans": spec["spans"],
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if os.path.exists(spec["result"]):
            with open(spec["result"]) as fh:
                child = json.load(fh)
            report["setup_s"] = child["ready"] - t_spawn
            report["config_load_s"] = child["config_load_s"]
            report["wall_s"] = child.get("wall_s")
        return report


def artifact_bytes(out: str) -> dict:
    if not os.path.isdir(out):
        return {}
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = fh.read()
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    subcommand, make_config, check = WORKLOADS[name]
    cfg = make_config(seed)
    t_start = time.monotonic()
    run_dir = os.path.join(RUNS_DIR, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        config_path = os.path.join(run_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        launcher = Launcher(run_dir, config_path, subcommand, t_start)
        launcher.launch(setup_only=True)   # warm-up: byte-compiles snaflow once
        probes = [launcher.launch(setup_only=True) for _ in range(SETUP_PROBES)]

        plain, traced = [], []
        t_ops = time.monotonic()
        while True:
            t_round = time.monotonic()
            plain.append(launcher.launch())
            if trace:
                traced.append(launcher.launch(trace=True))
            now = time.monotonic()
            if now - t_ops + (now - t_round) > seconds:
                break

        ops = plain + traced
        ok = [op for op in ops if op["exit"] == 0]
        correct, notes = False, {}
        if ok:
            reference = artifact_bytes(ok[0]["out"])
            try:
                notes = check(ok[0]["out"], cfg, seed)
                correct = True
            except Exception as exc:  # malformed artifacts fail the check, not the run
                notes = {"check_failed": f"{type(exc).__name__}: {exc}"}
            faulty = bool(notes.get("faults"))
            failed = sum(1 for op in ops if op["exit"] != 0 or not correct or faulty
                         or artifact_bytes(op["out"]) != reference)
        else:
            failed = len(ops)

        if trace:
            metrics = layer_report(traced, plain)
        else:
            metrics = {
                "wall_s": (median([op["wall_s"] for op in plain if op.get("wall_s") is not None]),
                           len(plain)),
                "setup_s": (median([op["setup_s"] for op in probes + plain if "setup_s" in op]),
                            len(probes) + len(plain)),
                "peak_rss_mb": (median([op["peak_rss_mb"] for op in plain]), len(plain)),
            }
        print(f"workload {name}, seed {seed}: {len(ops)} operations attempted, {failed} failed, "
              f"checks {'passed' if correct else 'FAILED'} {json.dumps(notes)}")
        for metric, (value, n) in metrics.items():
            unit = E2E_UNITS.get(metric) or layer_unit(metric)
            print(f"  {metric:32s} {value:14.6f} {unit:5s} (median of {n})")
        return {
            "correct": correct,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {m: {"value": v, "unit": E2E_UNITS.get(m) or layer_unit(m)}
                        for m, (v, _) in metrics.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def layer_report(traced: list, plain: list) -> dict:
    import numpy as np
    from spans import Recorder, layer_metrics

    per_op = []
    for op in traced:
        if os.path.exists(op["spans"]):
            with np.load(op["spans"]) as spans:
                per_op.append(layer_metrics(spans))
    if not per_op:  # every traced operation died: report the metrics of no spans
        per_op = [layer_metrics(Recorder().arrays())]
    metrics = {m: (median([op[m] for op in per_op]), len(per_op)) for m in per_op[0]}
    metrics["config.load_s"] = (median([op["config_load_s"] for op in traced
                                        if "config_load_s" in op]), len(traced))
    traced_wall = median([op["wall_s"] for op in traced if op.get("wall_s") is not None])
    plain_wall = median([op["wall_s"] for op in plain if op.get("wall_s") is not None])
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, len(traced))
    return metrics


def run_all(seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        rows.append((name, json.loads(lines[-1])))
    print()
    print(f"{'workload':12s}{'attempted':>10s}{'failed':>8s}{'correct':>9s}  metrics")
    for name, res in rows:
        shown = ", ".join(f"{m} {v['value']:.4f} {v['unit']}" for m, v in res["metrics"].items()
                          if m in E2E_UNITS or m == "trace.overhead_s")
        print(f"{name:12s}{res['attempted']:>10d}{res['failed']:>8d}{str(res['correct']):>9s}  {shown}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "snaflow", "cli.py")):
        print(f"snaflow sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]   # the box_count calibration calls snaflow itself
    try:
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401
    except ImportError as exc:
        print(f"benchmark needs numpy and scipy: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
