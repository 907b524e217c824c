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

from .audit import GATE_DEFAULTS, AuditError, compute_constants, delta1_max, gate_exponent
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
from .section import SectionMap

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "canonical_hash"]

# the paper's two-frequency reference experiment: figure1's top-level defaults
FIGURE1 = {
    "family": {"kind": "cos11", "b": 100.0},
    "rho": [(math.sqrt(5.0) - 1.0) / 2.0, math.pi],
    "beta": 176.01538,
    "grid_n": 256,
    "lift_grid": 256,
}


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
    """The family of ``d``; its constructor owns the default of every optional key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _need(d, "kind", path)
    if not isinstance(kind, str) or kind not in FAMILY_KEYS:
        raise ConfigError(f"{path}.kind: unknown family {kind!r}")
    _known(d, f"{path}.", ("kind", "beta_range") + FAMILY_KEYS[kind])
    opt = {}
    if "beta_range" in d:
        opt["beta_range"] = tuple(_vec(d["beta_range"], f"{path}.beta_range", 2))

    def num(key):
        return _num(_need(d, key, path), f"{path}.{key}")

    try:
        if kind == "radial_logistic":
            return RadialLogistic(num("b"), BumpProfile(num("bump_radius")), _center(d, path),
                                  **opt)
        if kind == "cos11":
            return Cos11(num("b"), **opt)
        if kind == "logistic_harvest":
            return LogisticHarvest(num("b"), num("r"), BumpProfile(num("bump_radius")),
                                   _center(d, path), **opt)
        if kind == "autonomous_riccati":
            a2, a0 = num("a2"), num("a0")
            for key, check in (("beta_slope", _num), ("beta_power", lambda v, p: _int(v, p, lo=1)),
                               ("dim", lambda v, p: _int(v, p, lo=2))):
                if key in d:
                    opt[key] = check(d[key], f"{path}.{key}")
            return AutonomousRiccati(a2, a0, **opt)
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
    tols = {key: _num(d[key], f"{path}.{key}", lo=0.0) for key in ("rel_tol", "abs_tol")
            if key in d}
    try:
        return IntegratorConfig(**tols, escape_low=escape[0], escape_high=escape[1])
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
    _known(v, f"{path}.", {f.name for f in fields(ClassifyThresholds)})
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


def _audit_bounds(block: dict, given: dict) -> None:
    """The audit block's cross-field bounds, so they fail before any integration."""
    if "delta1" in block and "delta2" in block and block["delta2"] >= block["delta1"]:
        raise ConfigError(f"audit.delta2: must be below delta1, got {block['delta2']}")
    K, p = block["K"], block["p"]
    if gate_exponent(K, p) <= 0.0:
        raise ConfigError(f"audit.{'K' if 'K' in given else 'p'}: K = {K} and p = {p} make "
                          "the gate exponent 2q^2/p - 5(1-q^2)p, q = 1 - 1/K, not positive")


_NO_DEFAULT = object()   # a key the subcommand requires (audit.delta1, audit.delta2)


def _extras(d: dict, family: ForcedField, rho_D: float) -> dict:
    """The subcommand blocks, each key checked and each missing key defaulted.

    A block takes only the keys listed here, each with its check and its
    default; a default goes through the same check as a given value, and a
    callable default reads the keys resolved before it. ``simulate``,
    ``boxdim`` and ``classify`` are always resolved, ``audit`` when given.
    """
    schema = {
        "simulate": {
            "theta0": (lambda v, p: _vec(v, p, family.D), [0.0] * family.D),
            "x0": (_num, 0.0),
            "t_final": (_num, 1.0),
            "n_samples": (lambda v, p: _int(v, p, lo=0), 200),
        },
        "boxdim": {
            "target": (lambda v, p: _choice(v, p, ("attractor", "repeller", "lift")),
                       "attractor"),
            "n_points": (lambda v, p: _int(v, p, lo=MIN_POINTS), 100_000),
            # a lift's cloud is coarser: its ladder stops at 2^-9
            "epsilons_pow": (_epsilon_powers,
                             lambda block: [3, 9] if block["target"] == "lift" else [3, 12]),
            "normalize_fibre": (_bool, False),
        },
        "audit": {
            "c": (lambda v, p: _inside(v, p, 0.0, 0.25), 0.2),
            "delta1": (lambda v, p: _inside(v, p, 0.0, delta1_max(rho_D)), _NO_DEFAULT),
            "delta2": (lambda v, p: _num(v, p, positive=True), _NO_DEFAULT),
            "beta_grid": (lambda v, p: _beta_grid(v, p, family.beta_range),
                          [0.0, 0.25, 0.5, 0.75]),
            "sample_n": (lambda v, p: _int(v, p, lo=1), 1000),
            "K": (lambda v, p: _int(v, p, lo=1), GATE_DEFAULTS["K"]),
            "M": (lambda v, p: _int(v, p, lo=2), GATE_DEFAULTS["M"]),
            "p": (lambda v, p: _num(v, p, lo=math.sqrt(2.0)), GATE_DEFAULTS["p"]),
            "eta": (_num, GATE_DEFAULTS["eta"]),
            "C_prime": (lambda v, p: None if v is None else _num(v, p), None),
        },
        "classify": {"thresholds": (_thresholds, {})},
    }
    extras = {}
    for name, keys in schema.items():
        if name == "audit" and name not in d:
            continue
        given = d.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{name}: expected an object")
        _known(given, f"{name}.", keys)
        block = extras[name] = {}
        # the given keys first, in their order, so a given value's error comes first
        for key in [*given, *(k for k in keys if k not in given)]:
            check, default = keys[key]
            v = given[key] if key in given else default(block) if callable(default) else default
            if v is not _NO_DEFAULT:
                block[key] = check(v, f"{name}.{key}")
    if "audit" in extras:
        _audit_bounds(extras["audit"], d["audit"])
    return extras


def _require(cfg: ExperimentConfig, command: str | None) -> None:
    """What ``command`` needs beyond a valid config, checked before any work."""
    if command in ("simulate", "graphs", "lyapunov", "boxdim") and cfg.beta is None:
        raise ConfigError("beta: required for this subcommand")
    if command in ("bifurcate", "classify") and cfg.beta_range is None:
        raise ConfigError(f"beta_range: required for {command}")
    if command == "figure1" and not isinstance(cfg.family, Cos11):
        raise ConfigError("family.kind: figure1 requires the cos11 family")
    if command == "audit":
        if not cfg.raw.get("audit"):
            raise ConfigError("audit: block required for the audit subcommand")
        fam, block = cfg.family, cfg.extras["audit"]
        if not isinstance(fam, RadialLogistic):
            raise ConfigError("audit: family must be radial_logistic")
        try:
            compute_constants(b=fam.b, c=block["c"], delta1=_need(block, "delta1", "audit"),
                              delta2=_need(block, "delta2", "audit"),
                              R_support=fam.bump.R_support, rho=cfg.rho,
                              theta_bar=fam.center)
        except AuditError as exc:
            raise ConfigError(f"audit: {exc}") from exc


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


def load_config(d: dict, command: str | None = None) -> ExperimentConfig:
    """Check ``d`` and resolve every default; with ``command``, also what it needs.

    For ``figure1`` the reference experiment (``FIGURE1``) fills in the
    top-level keys the config leaves out, and these are hashed with it.
    """
    if not isinstance(d, dict):
        raise ConfigError("top-level config must be a JSON object")
    if command == "figure1":
        d = {**FIGURE1, **d}
    _known(d, "", TOP_KEYS)
    family = build_family(_need(d, "family", ""), "family")
    rho = _vec(_need(d, "rho", ""), "rho")
    if len(rho) != family.D:
        raise ConfigError(f"rho: needs {family.D} components for this family")
    # the section return time is 1/rho_D, and the section shift needs rho_D dominant
    if not (0.0 < rho[-1] < math.inf and 1.0 / rho[-1] < math.inf
            and all(abs(r) <= rho[-1] for r in rho)):
        raise ConfigError(f"rho: the last component must be positive, with 1/rho_D finite, "
                          f"and at least as large in magnitude as every other, got {rho}")
    integrator = build_integrator(d.get("integrator", {}), family)
    # the Möbius table is largest where the forcing is, at an end of the family's range
    for end in family.beta_range:
        try:
            SectionMap(family, end, rho, integrator).sub_returns()
        except ValueError as exc:
            raise ConfigError(f"family, rho: {exc}, at beta = {end:g} (an end of the "
                              f"family's beta_range)") from exc
    beta = d.get("beta")
    if beta is None and command == "figure1":
        beta = FIGURE1["beta"]
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
    _require(cfg, command)
    return cfg
