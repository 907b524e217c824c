"""Experiment configuration: JSON schema, validation, canonical hashing.

A run is reproducible bit-for-bit from (config, version): the resolved
config's canonical JSON is hashed into every artifact, and nothing else
(clocks, hostnames, scheduling) enters the outputs.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .fields import (
    AutonomousRiccati,
    BumpProfile,
    Cos11,
    ForcedField,
    LogisticHarvest,
    RadialLogistic,
)
from .flow import IntegratorConfig

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "canonical_hash"]


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: required field missing")
    return d[key]


def _num(v, path: str, lo=None, hi=None, positive=False) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    v = float(v)
    if positive and v <= 0.0:
        raise ConfigError(f"{path}: must be > 0, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {v}")
    return v


def _int(v, path: str, lo=None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {v}")
    return v


def _vec(v, path: str, length=None):
    if not isinstance(v, (list, tuple)) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        raise ConfigError(f"{path}: expected a list of numbers")
    if length is not None and len(v) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(v)}")
    return [float(x) for x in v]


def build_family(d: dict, path: str = "family") -> ForcedField:
    kind = _need(d, "kind", path)
    beta_range = tuple(_vec(d.get("beta_range", [0.0, 1.0]), f"{path}.beta_range", 2))
    try:
        if kind == "radial_logistic":
            b = _num(_need(d, "b", path), f"{path}.b")
            R = _num(_need(d, "bump_radius", path), f"{path}.bump_radius", lo=0.0)
            center = _vec(_need(d, "center", path), f"{path}.center")
            return RadialLogistic(b, BumpProfile(R), center, beta_range)
        if kind == "cos11":
            b = _num(_need(d, "b", path), f"{path}.b")
            if "beta_range" not in d:
                beta_range = (0.0, 4.0 * b)
            return Cos11(b, beta_range)
        if kind == "logistic_harvest":
            b = _num(_need(d, "b", path), f"{path}.b")
            r = _num(_need(d, "r", path), f"{path}.r", lo=0.0)
            R = _num(_need(d, "bump_radius", path), f"{path}.bump_radius", lo=0.0)
            center = _vec(_need(d, "center", path), f"{path}.center")
            return LogisticHarvest(b, r, BumpProfile(R), center, beta_range)
        if kind == "autonomous_riccati":
            return AutonomousRiccati(
                a2=_num(_need(d, "a2", path), f"{path}.a2"),
                a0=_num(_need(d, "a0", path), f"{path}.a0"),
                beta_slope=_num(d.get("beta_slope", 0.0), f"{path}.beta_slope"),
                beta_power=_int(d.get("beta_power", 1), f"{path}.beta_power", lo=1),
                beta_range=beta_range,
                dim=_int(d.get("dim", 2), f"{path}.dim", lo=2),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown family {kind!r}")


def build_integrator(d: dict, family: ForcedField, path: str = "integrator") -> IntegratorConfig:
    escape = d.get("escape")
    if escape is None:
        escape = list(family.default_escape())
    escape = _vec(escape, f"{path}.escape", 2)
    method = d.get("method", "rk45")
    if method not in ("rk45", "rk4"):
        raise ConfigError(f"{path}.method: must be 'rk45' or 'rk4'")
    try:
        return IntegratorConfig(
            rel_tol=_num(d.get("rel_tol", 1e-10), f"{path}.rel_tol", lo=0.0),
            abs_tol=_num(d.get("abs_tol", 1e-12), f"{path}.abs_tol", lo=0.0),
            max_step=_num(d.get("max_step", math.inf), f"{path}.max_step", lo=0.0)
            if d.get("max_step") is not None else math.inf,
            escape_low=escape[0],
            escape_high=escape[1],
            method=method,
            rk4_step=_num(d.get("rk4_step", 1e-3), f"{path}.rk4_step", lo=0.0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class ExperimentConfig:
    raw: dict
    family: ForcedField
    rho: list
    integrator: IntegratorConfig
    seed: int = 0
    grid_n: int = 512
    n_iter: int = 20_000
    projection_tol: float | None = None
    lift_grid: int = 256
    beta: float | None = None
    beta_range: tuple | None = None
    tol_beta: float = 1e-3
    out_dir: str = "out"
    threads: int = 1
    section_offset: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def sha256(self) -> str:
        return canonical_hash(self.raw)


def canonical_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_config(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError(": top-level config must be a JSON object")
    family = build_family(_need(d, "family", ""), "family")
    rho = _vec(_need(d, "rho", ""), "rho")
    if len(rho) != family.D:
        raise ConfigError(f"rho: needs {family.D} components for this family")
    integrator = build_integrator(d.get("integrator", {}), family)
    beta = d.get("beta")
    beta_range = d.get("beta_range")
    cfg = ExperimentConfig(
        raw=d,
        family=family,
        rho=rho,
        integrator=integrator,
        seed=_int(d.get("seed", 0), "seed", lo=0),
        grid_n=_int(d.get("grid_n", 512), "grid_n", lo=16),
        n_iter=_int(d.get("n_iter", 20_000), "n_iter", lo=1),
        projection_tol=None if d.get("projection_tol") is None
        else _num(d["projection_tol"], "projection_tol", lo=0.0),
        lift_grid=_int(d.get("lift_grid", 256), "lift_grid", lo=8),
        beta=None if beta is None else _num(beta, "beta"),
        beta_range=None if beta_range is None else tuple(_vec(beta_range, "beta_range", 2)),
        tol_beta=_num(d.get("tol_beta", 1e-3), "tol_beta", positive=True),
        out_dir=str(d.get("out_dir", "out")),
        threads=_int(d.get("threads", 1), "threads", lo=1),
        section_offset=_num(d.get("section_offset", 0.0), "section_offset"),
        extras={k: d[k] for k in ("simulate", "boxdim", "audit", "classify") if k in d},
    )
    if cfg.beta is not None:
        lo, hi = family.beta_range
        if not lo <= cfg.beta <= hi:
            raise ConfigError(f"beta: {cfg.beta} outside the family's range [{lo}, {hi}]")
    return cfg
