"""Experiment runner: deterministic artifacts from a JSON config.

    snaflow <subcommand> --config cfg.json [--out DIR]

Subcommands: simulate, graphs, bifurcate, classify, lyapunov, boxdim, audit,
figure1. Artifacts are CSV (with '#'-prefixed metadata lines) and JSON, always
written to a temp file and renamed, so a failed run never leaves a partial
artifact. Re-running with the same config and version produces byte-identical
files; every artifact embeds the config's sha256.

Exit codes: 0 success, 2 config error (an output directory that cannot be
made or written counts as one, and is made before any work), 3 numerical
failure (escape or non-convergence where success was required).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .audit import GATE_DEFAULTS, AuditError, compute_constants, format_report, run_audit
from .bifurcation import (
    BifurcationError,
    ClassifyThresholds,
    _normalize_fibre,
    classify,
    locate_beta_c,
)
from .config import ConfigError, ExperimentConfig, load_config
from .fields import Cos11, RadialLogistic
from .flow import FlowBlowUp, FlowEscape, flow_batch
from .fractal import box_count, default_epsilons, graph_point_cloud
from .graphs import Escaped, GraphPair, gap_stats, graph_pair, lift_graph
from .section import _grid_nodes, lyapunov_relation_check

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
FIGURE1 = {
    "family": {"kind": "cos11", "b": 100.0},
    "rho": [GOLDEN_MEAN, math.pi],
    "beta": 176.01538,
    "slices": [0.0, 1.0 / 3.0, 2.0 / 3.0],
}


class NumericalFailure(RuntimeError):
    pass


# ------------------------------------------------------------ artifact io


def _sanitize(obj):
    """JSON-safe copy: numpy scalars/arrays unwrapped, non-finite floats as strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    return obj


def _write_atomic(path: str, data: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc


def _meta_lines(cfg: ExperimentConfig, command: str):
    return [
        f"# snaflow_version: {__version__}",
        f"# command: {command}",
        f"# config_sha256: {cfg.sha256}",
    ]


def write_csv(path: str, cfg: ExperimentConfig, command: str, header, columns) -> None:
    """One CSV row per index of the equal-length ``columns``, each value as repr(float)."""
    lines = _meta_lines(cfg, command)
    lines.append(",".join(header))
    rows = np.column_stack(columns).astype(float, copy=False).tolist()
    lines.extend(",".join(map(repr, row)) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def write_json(path: str, cfg: ExperimentConfig, command: str, payload: dict) -> None:
    doc = {
        "snaflow_version": __version__,
        "command": command,
        "config_sha256": cfg.sha256,
        **_sanitize(payload),
    }
    _write_atomic(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------ helpers


def _graphs_or_fail(cfg: ExperimentConfig, beta: float) -> GraphPair:
    pair = graph_pair(cfg.family, beta, cfg.rho, cfg.grid_n, cfg.n_iter, cfg.integrator)
    if isinstance(pair, Escaped):
        raise NumericalFailure(f"{pair.role} escaped at beta={beta}")
    if not pair.converged:
        raise NumericalFailure(
            f"graphs did not converge at beta={beta} (sup-changes "
            f"{pair.attractor.sup_change:.3g}, {pair.repeller.sup_change:.3g})"
        )
    return pair


def _beta_or_fail(cfg: ExperimentConfig) -> float:
    if cfg.beta is None:
        raise ConfigError("beta: required for this subcommand")
    return cfg.beta


# ------------------------------------------------------------ subcommands


def cmd_simulate(cfg: ExperimentConfig, out: str) -> None:
    sim = cfg.extras.get("simulate", {})
    theta0 = sim.get("theta0", [0.0] * cfg.family.D)
    x0 = sim.get("x0", 0.0)
    t_final = sim.get("t_final", 1.0)
    n_samples = sim.get("n_samples", 200)
    beta = _beta_or_fail(cfg)
    t_grid = np.linspace(0.0, t_final, n_samples + 1)
    lanes = t_grid.size   # one lane per sample time, all on the same trajectory
    res = flow_batch(cfg.family, beta, cfg.rho, np.tile(theta0, (lanes, 1)),
                     np.full(lanes, float(x0)), t_grid, cfg.integrator, channels="full")
    if res.escaped.any():
        raise NumericalFailure(
            f"trajectory escaped at t={res.escape_times[np.argmax(res.escaped)]}")
    write_csv(os.path.join(out, "trajectory.csv"), cfg, "simulate",
              ["t", "x", "log_dx", "dtheta", "dtheta2"],
              [t_grid, res.y[0], res.y[1], res.y[2], res.y[5]])


def cmd_graphs(cfg: ExperimentConfig, out: str) -> None:
    beta = _beta_or_fail(cfg)
    pair = _graphs_or_fail(cfg, beta)
    att, rep = pair.attractor, pair.repeller
    # near a collision the measured graphs may interlace within their own
    # defects; beyond that the pair is inconsistent
    if pair.gap_min < -max(1e-9, 2.0 * (att.defect + rep.defect)):
        raise NumericalFailure(f"ordering violated by {-pair.gap_min}")
    d = att.d
    axes = _grid_nodes(att.values.shape, d).T
    theta_headers = [f"theta_{i + 1}" for i in range(d)]
    for name, graph in (("attractor", att), ("repeller", rep)):
        write_csv(os.path.join(out, f"{name}.csv"), cfg, "graphs",
                  theta_headers + ["value"], [*axes, graph.values.ravel()])
    gap = (att.values - rep.values).ravel()
    write_csv(os.path.join(out, "pair.csv"), cfg, "graphs",
              theta_headers + ["attractor", "repeller", "gap"],
              [*axes, att.values.ravel(), rep.values.ravel(), gap])
    gmin, gmed, gmax, arg = gap_stats(pair)
    write_json(os.path.join(out, "gap_stats.json"), cfg, "graphs", {
        "beta": beta,
        "gap_min": gmin, "gap_median": gmed, "gap_max": gmax,
        "argmin_theta": list(arg),
        "attractor": {"defect": att.defect, "iterations": att.iterations_used},
        "repeller": {"defect": rep.defect, "iterations": rep.iterations_used},
    })


def cmd_bifurcate(cfg: ExperimentConfig, out: str) -> None:
    if cfg.beta_range is None:
        raise ConfigError("beta_range: required for bifurcate")
    trace = locate_beta_c(cfg.family, cfg.rho, cfg.beta_range, cfg.grid_n,
                          cfg.tol_beta, cfg.integrator,
                          n_iter_base=min(cfg.n_iter, 20_000))
    write_json(os.path.join(out, "trace.json"), cfg, "bifurcate", {
        "beta_c": trace.beta_c,
        "tol": trace.tol,
        "predicate_monotone": trace.predicate_monotone,
        "brackets": trace.brackets,
        "records": [dataclasses.asdict(r) for r in trace.records],
    })


def cmd_classify(cfg: ExperimentConfig, out: str) -> None:
    if cfg.beta_range is None:
        raise ConfigError("beta_range: required for classify")
    trace = locate_beta_c(cfg.family, cfg.rho, cfg.beta_range, cfg.grid_n,
                          cfg.tol_beta, cfg.integrator,
                          n_iter_base=min(cfg.n_iter, 20_000))
    opts = cfg.extras.get("classify", {})
    thr = ClassifyThresholds(**opts.get("thresholds", {}))
    result = classify(cfg.family, cfg.rho, trace.beta_c, cfg.grid_n, cfg.integrator,
                      bracket_scale=cfg.beta_range[1] - cfg.beta_range[0],
                      tol_beta=cfg.tol_beta, thresholds=thr, seed=cfg.seed)
    write_json(os.path.join(out, "classification.json"), cfg, "classify", {
        "beta_c": trace.beta_c,
        "verdict": result.verdict,
        "rungs": [dataclasses.asdict(r) for r in result.rungs],
        "boxdim_slope": result.boxdim_slope,
        "boxdim_threshold": result.boxdim_threshold,
        "lambda_reference": result.lambda_reference,
        "checks": result.checks,
        "thresholds": dataclasses.asdict(result.thresholds),
    })


def cmd_lyapunov(cfg: ExperimentConfig, out: str) -> None:
    """Flow and map exponents of both graphs, with their relation residual.

    Each graph's defect is reported next to its exponents, not gated on: a
    converged pullback is the graph the other subcommands use too.
    """
    beta = _beta_or_fail(cfg)
    pair = _graphs_or_fail(cfg, beta)
    payload = {"beta": beta}
    for name, graph in (("attractor", pair.attractor), ("repeller", pair.repeller)):
        flow_l, map_l, resid = lyapunov_relation_check(
            cfg.family, beta, cfg.rho, graph, cfg.integrator, defect_tol=math.inf)
        payload[name] = {
            "lambda_flow": flow_l,
            "lambda_map": map_l,
            "relation_residual": resid,
            "defect": graph.defect,
        }
    write_json(os.path.join(out, "lyapunov.json"), cfg, "lyapunov", payload)


def cmd_boxdim(cfg: ExperimentConfig, out: str) -> None:
    beta = _beta_or_fail(cfg)
    opts = cfg.extras.get("boxdim", {})
    target = opts.get("target", "attractor")
    n_points = opts.get("n_points", 100_000)
    pair = _graphs_or_fail(cfg, beta)
    graph = pair.repeller if target == "repeller" else pair.attractor
    pows = opts.get("epsilons_pow")
    if pows is None:
        eps = default_epsilons() if target != "lift" else default_epsilons(9)
    else:
        eps = default_epsilons(pows[1], pows[0])
    cloud = graph_point_cloud(cfg.family, beta, cfg.rho, graph, n_points,
                              cfg.integrator, seed=cfg.seed, lift=target == "lift")
    if opts.get("normalize_fibre", False):
        cloud = _normalize_fibre(cloud)
    ladder = box_count(cloud, epsilons=eps)
    write_csv(os.path.join(out, "ladder.csv"), cfg, "boxdim",
              ["epsilon", "count", "local_slope"],
              [ladder.epsilons, ladder.counts, np.append(ladder.local_slopes, math.nan)])
    write_json(os.path.join(out, "boxdim_summary.json"), cfg, "boxdim", {
        "beta": beta, "target": target, "n_points": n_points,
        "slope": ladder.slope, "slope_stderr": ladder.slope_stderr,
        "fit_window": list(ladder.fit_window),
    })


def cmd_audit(cfg: ExperimentConfig, out: str) -> None:
    opts = cfg.extras.get("audit")
    if not opts:
        raise ConfigError("audit: block required for the audit subcommand")
    fam = cfg.family
    if not isinstance(fam, RadialLogistic):
        raise ConfigError("audit: family must be radial_logistic")
    try:
        constants = compute_constants(
            b=fam.b,
            c=opts.get("c", 0.2),
            delta1=opts["delta1"],
            delta2=opts["delta2"],
            R_support=fam.bump.R_support,
            rho=cfg.rho,
            theta_bar=fam.center,
        )
    except KeyError as exc:
        raise ConfigError(f"audit.{exc.args[0]}: required field missing") from exc
    except AuditError as exc:  # the constants are checked before any integration
        raise ConfigError(f"audit: {exc}") from exc
    report = run_audit(
        fam, cfg.rho, constants,
        beta_grid=opts.get("beta_grid", [0.0, 0.25, 0.5, 0.75]),
        grid_n=cfg.grid_n,
        sample_n=opts.get("sample_n", 1000),
        cfg=cfg.integrator,
        seed=cfg.seed,
        **{key: opts[key] for key in (*GATE_DEFAULTS, "C_prime") if key in opts},
    )
    print(format_report(report))
    write_json(os.path.join(out, "audit_report.json"), cfg, "audit", {
        "constants": dataclasses.asdict(report.constants),
        "i0_measure": report.i0_measure,
        "beta_grid": report.beta_grid,
        "entries": [dataclasses.asdict(e) for e in report.entries],
        "gate": dataclasses.asdict(report.gate),
    })


def cmd_figure1(cfg: ExperimentConfig, out: str) -> None:
    if not isinstance(cfg.family, Cos11):
        raise ConfigError("family.kind: figure1 requires the cos11 family")
    beta = cfg.beta if cfg.beta is not None else FIGURE1["beta"]
    pair = _graphs_or_fail(cfg, beta)
    lifts = {
        name: lift_graph(cfg.family, beta, cfg.rho, graph, cfg.lift_grid, cfg.integrator)
        for name, graph in (("attractor", pair.attractor), ("repeller", pair.repeller))
    }
    n = cfg.lift_grid
    th1, th2 = _grid_nodes((n, n), 2).T
    for name, lifted in lifts.items():
        write_csv(os.path.join(out, f"{name}_lift.csv"), cfg, "figure1",
                  ["theta_1", "theta_2", "value"], [th1, th2, lifted.values.ravel()])
    for slice_pos in FIGURE1["slices"]:
        i = int(round(slice_pos * n)) % n
        tag = f"{slice_pos:.4f}".replace(".", "p")
        write_csv(os.path.join(out, f"slice_theta1_{tag}.csv"), cfg, "figure1",
                  ["theta_2", "attractor", "repeller"],
                  [np.arange(n) / n, lifts["attractor"].values[i, :],
                   lifts["repeller"].values[i, :]])


COMMANDS = {
    "simulate": cmd_simulate,
    "graphs": cmd_graphs,
    "bifurcate": cmd_bifurcate,
    "classify": cmd_classify,
    "lyapunov": cmd_lyapunov,
    "boxdim": cmd_boxdim,
    "audit": cmd_audit,
    "figure1": cmd_figure1,
}


def _figure1_defaults(raw: dict) -> dict:
    merged = dict(raw)
    merged.setdefault("family", FIGURE1["family"])
    merged.setdefault("rho", FIGURE1["rho"])
    merged.setdefault("beta", FIGURE1["beta"])
    merged.setdefault("grid_n", 256)
    merged.setdefault("lift_grid", 256)
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="snaflow",
        description="quasiperiodically forced scalar flows: graphs, bifurcations, audits",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        print("config error: top-level config must be a JSON object", file=sys.stderr)
        return 2

    if args.subcommand == "figure1":
        raw = _figure1_defaults(raw)

    try:
        cfg = load_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = args.out or cfg.out_dir
    try:   # before any work, so an unusable output path costs none
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"config error: out: {exc}", file=sys.stderr)
        return 2
    try:
        COMMANDS[args.subcommand](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, FlowEscape, FlowBlowUp, BifurcationError, AuditError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
