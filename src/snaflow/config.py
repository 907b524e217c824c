"""Experiment configuration: JSON schema, validation, canonical hashing.

A run is reproducible bit-for-bit from (config, version): the canonical JSON
of the config as given (with the figure1 defaults filled in) is hashed into
every artifact, and nothing else (clocks, hostnames, scheduling) enters the
outputs.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from .audit import GATE_DEFAULTS, delta1_max, gate_exponent
from .bifurcation import ClassifyThresholds
from .fields import (
    AutonomousRiccati,
    BumpProfile,
    Cos11,
    ForcedField,
    LogisticHarvest,
    RadialLogistic,
)
from .flow import IntegratorConfig
from .fractal import MIN_POINTS

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


def _known(d: dict, path: str, keys) -> None:
    """Reject keys outside ``keys``: a misspelt key would silently fall back to its default."""
    for key in d:
        if key not in keys:
            raise ConfigError(f"{path}{key}: unknown key (known: {', '.join(sorted(keys))})")


FAMILY_KEYS = {
    "radial_logistic": ("b", "bump_radius", "center"),
    "cos11": ("b",),
    "logistic_harvest": ("b", "r", "bump_radius", "center"),
    "autonomous_riccati": ("a2", "a0", "beta_slope", "beta_power", "dim"),
}
INTEGRATOR_KEYS = ("rel_tol", "abs_tol", "escape")
TOP_KEYS = ("seed", "rho", "family", "integrator", "grid_n", "n_iter", "lift_grid",
            "beta", "beta_range", "tol_beta", "out_dir",
            "simulate", "boxdim", "audit", "classify")


def _center(d: dict, path: str) -> list:
    """The bump center: a point of the base torus T^D, which needs D >= 2."""
    center = _vec(_need(d, "center", path), f"{path}.center")
    if len(center) < 2:
        raise ConfigError(f"{path}.center: needs at least 2 components (the base torus "
                          f"has D >= 2), got {len(center)}")
    return center


def build_family(d: dict, path: str = "family") -> ForcedField:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _need(d, "kind", path)
    if not isinstance(kind, str) or kind not in FAMILY_KEYS:
        raise ConfigError(f"{path}.kind: unknown family {kind!r}")
    _known(d, f"{path}.", ("kind", "beta_range") + FAMILY_KEYS[kind])
    beta_range = tuple(_vec(d.get("beta_range", [0.0, 1.0]), f"{path}.beta_range", 2))
    try:
        if kind == "radial_logistic":
            b = _num(_need(d, "b", path), f"{path}.b")
            R = _num(_need(d, "bump_radius", path), f"{path}.bump_radius", lo=0.0)
            return RadialLogistic(b, BumpProfile(R), _center(d, path), beta_range)
        if kind == "cos11":
            b = _num(_need(d, "b", path), f"{path}.b")
            if "beta_range" not in d:
                beta_range = (0.0, 4.0 * b)
            return Cos11(b, beta_range)
        if kind == "logistic_harvest":
            b = _num(_need(d, "b", path), f"{path}.b")
            r = _num(_need(d, "r", path), f"{path}.r", lo=0.0)
            R = _num(_need(d, "bump_radius", path), f"{path}.bump_radius", lo=0.0)
            return LogisticHarvest(b, r, BumpProfile(R), _center(d, path), beta_range)
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


def build_integrator(d: dict, family: ForcedField, path: str = "integrator") -> IntegratorConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    _known(d, f"{path}.", INTEGRATOR_KEYS)
    escape = d.get("escape")
    if escape is None:
        escape = list(family.default_escape())
    escape = _vec(escape, f"{path}.escape", 2)
    try:
        return IntegratorConfig(
            rel_tol=_num(d.get("rel_tol", 1e-10), f"{path}.rel_tol", lo=0.0),
            abs_tol=_num(d.get("abs_tol", 1e-12), f"{path}.abs_tol", lo=0.0),
            escape_low=escape[0],
            escape_high=escape[1],
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false, got {v!r}")
    return v


def _choice(v, path: str, options) -> str:
    if v not in options:
        raise ConfigError(f"{path}: must be one of {', '.join(options)}, got {v!r}")
    return v


def _epsilon_powers(v, path: str) -> list:
    """[coarsest, finest] powers of 1/2 for the box-counting ladder."""
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(f"{path}: expected [coarsest, finest] powers of 1/2")
    lo = _int(v[0], f"{path}[0]", lo=2)  # boxes no larger than 1/4
    hi = _int(v[1], f"{path}[1]", lo=lo + 5)  # six scales: the fit drops two at each end
    if hi > 30:
        raise ConfigError(f"{path}[1]: must be <= 30, got {hi}")
    return [lo, hi]


def _thresholds(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object")
    names = {f.name for f in fields(ClassifyThresholds)}
    for key in v:
        if key not in names:
            known = ", ".join(sorted(names))
            raise ConfigError(f"{path}.{key}: unknown threshold (known: {known})")
    return {key: _num(x, f"{path}.{key}") for key, x in v.items()}


def _inside(v, path: str, lo: float, hi: float) -> float:
    v = _num(v, path)
    if not lo < v < hi:
        raise ConfigError(f"{path}: must lie in ({lo:.6g}, {hi:.6g}), got {v}")
    return v


def _beta_grid(v, path: str, beta_range) -> list:
    """A non-empty list of beta inside the family's range."""
    grid = _vec(v, path)
    if not grid:
        raise ConfigError(f"{path}: must hold at least one beta")
    lo, hi = beta_range
    for beta in grid:
        if not lo <= beta <= hi:
            raise ConfigError(f"{path}: {beta} outside the family's range [{lo}, {hi}]")
    return grid


def _audit_bounds(block: dict) -> None:
    """The audit block's cross-field bounds, so they fail before any integration."""
    if "delta1" in block and "delta2" in block and block["delta2"] >= block["delta1"]:
        raise ConfigError(f"audit.delta2: must be below delta1, got {block['delta2']}")
    K, p = block.get("K", GATE_DEFAULTS["K"]), block.get("p", GATE_DEFAULTS["p"])
    if gate_exponent(K, p) <= 0.0:
        raise ConfigError(f"audit.{'K' if 'K' in block else 'p'}: K = {K} and p = {p} make "
                          "the gate exponent 2q^2/p - 5(1-q^2)p, q = 1 - 1/K, not positive")


def _extras(d: dict, family: ForcedField, rho_D: float) -> dict:
    """Validate the subcommand blocks, which take only the keys listed here."""
    schema = {
        "simulate": {
            "theta0": lambda v, p: _vec(v, p, family.D),
            "x0": _num,
            "t_final": _num,
            "n_samples": lambda v, p: _int(v, p, lo=0),
        },
        "boxdim": {
            "target": lambda v, p: _choice(v, p, ("attractor", "repeller", "lift")),
            "n_points": lambda v, p: _int(v, p, lo=MIN_POINTS),
            "epsilons_pow": _epsilon_powers,
            "normalize_fibre": _bool,
        },
        "audit": {
            "c": lambda v, p: _inside(v, p, 0.0, 0.25),
            "delta1": lambda v, p: _inside(v, p, 0.0, delta1_max(rho_D)),
            "delta2": lambda v, p: _num(v, p, positive=True),
            "beta_grid": lambda v, p: _beta_grid(v, p, family.beta_range),
            "sample_n": lambda v, p: _int(v, p, lo=1),
            "K": lambda v, p: _int(v, p, lo=1),
            "M": lambda v, p: _int(v, p, lo=2),
            "p": lambda v, p: _num(v, p, lo=math.sqrt(2.0)),
            "eta": _num,
            "C_prime": lambda v, p: None if v is None else _num(v, p),
        },
        "classify": {"thresholds": _thresholds},
    }
    extras = {}
    for name, checks in schema.items():
        if name not in d:
            continue
        block = d[name]
        if not isinstance(block, dict):
            raise ConfigError(f"{name}: expected an object")
        _known(block, f"{name}.", checks)
        extras[name] = {key: checks[key](v, f"{name}.{key}") for key, v in block.items()}
    if "audit" in extras:
        _audit_bounds(extras["audit"])
    return extras


@dataclass
class ExperimentConfig:
    raw: dict
    family: ForcedField
    rho: list
    integrator: IntegratorConfig
    seed: int
    grid_n: int
    n_iter: int
    lift_grid: int
    beta: float | None
    beta_range: tuple | None
    tol_beta: float
    out_dir: str
    extras: dict

    @property
    def sha256(self) -> str:
        return canonical_hash(self.raw)


def canonical_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_config(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError(": top-level config must be a JSON object")
    _known(d, "", TOP_KEYS)
    family = build_family(_need(d, "family", ""), "family")
    rho = _vec(_need(d, "rho", ""), "rho")
    if len(rho) != family.D:
        raise ConfigError(f"rho: needs {family.D} components for this family")
    # the section return time is 1/rho_D, and the section shift needs rho_D dominant
    if not (0.0 < rho[-1] < math.inf and all(abs(r) <= rho[-1] for r in rho)):
        raise ConfigError(f"rho: the last component must be positive and at least as "
                          f"large in magnitude as every other, got {rho}")
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
        lift_grid=_int(d.get("lift_grid", 256), "lift_grid", lo=8),
        beta=None if beta is None else _num(beta, "beta"),
        beta_range=None if beta_range is None else tuple(_vec(beta_range, "beta_range", 2)),
        tol_beta=_num(d.get("tol_beta", 1e-3), "tol_beta", positive=True),
        out_dir=str(d.get("out_dir", "out")),
        extras=_extras(d, family, rho[-1]),
    )
    lo, hi = family.beta_range
    if cfg.beta is not None and not lo <= cfg.beta <= hi:
        raise ConfigError(f"beta: {cfg.beta} outside the family's range [{lo}, {hi}]")
    if cfg.beta_range is not None:
        b_lo, b_hi = cfg.beta_range
        if not b_lo < b_hi:
            raise ConfigError(f"beta_range: must be increasing, got [{b_lo}, {b_hi}]")
        if not (lo <= b_lo and b_hi <= hi):
            raise ConfigError(f"beta_range: [{b_lo}, {b_hi}] outside the family's "
                              f"range [{lo}, {hi}]")
    return cfg
