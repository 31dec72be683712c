"""Run configuration: defaults, JSON file loading, command-line overrides.

A configuration file is a flat JSON object (with one nested "tolerances"
object) whose keys match the RunConfig fields.  Unknown keys are rejected
rather than ignored, so typos fail loudly with exit code 2 instead of
silently running the defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .minkowski import as_four_vector
from .stationarity import optimal_C, optimal_sigma1


@dataclass(frozen=True)
class Tolerances:
    """Pass/fail thresholds for the check suites, all strictly positive."""

    flow_tol: float = 1e-10
    lambda_tol: float = 1e-6
    stationarity_tol: float = 1e-8
    degeneracy_tol: float = 1e-9
    operator_tol: float = 1e-4
    phase_tol: float = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: geometry, lattice sizes, seeds, thresholds."""

    a: tuple = (0.0, 0.0, 0.0, 0.0)
    b: tuple = (2.0, 0.6, 0.3, 0.1)
    m: float = 1.0
    hbar_tilde: float = 1.0
    N: int = 10000
    sigma2_0: float = 0.5
    sigma2_values: tuple | None = None
    sigma1_0: tuple | None = None
    C: float | None = None
    branch: int = 1
    seed: int = 7
    operator_N: int = 16
    n_perturbations: int = 100
    n_phase_perturbations: int = 20
    n_lambda_sets: int = 50
    amplitude: float = 0.3
    tolerances: Tolerances = field(default_factory=Tolerances)

    def validate(self):
        if self.N < 2:
            raise ConfigError(f"N must be >= 2, got {self.N}")
        if self.operator_N < 4:
            raise ConfigError(f"operator_N must be >= 4, got {self.operator_N}")
        if not (self.m > 0):
            raise ConfigError(f"m must be positive, got {self.m}")
        if not (self.hbar_tilde > 0):
            raise ConfigError(f"hbar_tilde must be positive, got {self.hbar_tilde}")
        if self.branch not in (1, -1):
            raise ConfigError(f"branch must be +1 or -1, got {self.branch!r}")
        if self.C is not None and not (self.C > 0):
            raise ConfigError(f"C must be positive when given, got {self.C}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.sigma2_values is not None and not self.sigma2_values:
            raise ConfigError("sigma2_values must hold at least one curvature")
        for name in ("n_perturbations", "n_phase_perturbations", "n_lambda_sets"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (self.amplitude >= 0):
            raise ConfigError(f"amplitude must be >= 0, got {self.amplitude}")
        for name, value in asdict(self.tolerances).items():
            if not (value > 0):
                raise ConfigError(f"tolerance {name} must be positive, got {value}")
        for name in ("a", "b"):
            try:
                as_four_vector(getattr(self, name))
            except ValueError as exc:
                raise ConfigError(f"endpoint {name}: {exc}") from exc
        if self.sigma1_0 is not None:
            try:
                as_four_vector(self.sigma1_0)
            except ValueError as exc:
                raise ConfigError(f"sigma1_0: {exc}") from exc
        return self

    # --- resolved physics defaults -------------------------------------
    # Quadrature commands always run on a positive duration; the branch
    # sign only matters to the stationary search, which handles it itself.

    def run_duration(self):
        if self.C is not None:
            return float(self.C)
        return float(optimal_C(self.a, self.b, self.m, branch=1))

    def run_sigma1_0(self):
        if self.sigma1_0 is not None:
            return np.asarray(self.sigma1_0, dtype=float)
        return optimal_sigma1(self.sigma2_0, self.a, self.b, self.run_duration())

    def as_dict(self):
        return asdict(self)


def parse_branch(value):
    """Accept +1/-1 as ints, or the strings '+', '-', '+1', '-1'."""
    if isinstance(value, bool):
        raise ConfigError(f"branch must be +1 or -1, got {value!r}")
    if isinstance(value, int):
        if value in (1, -1):
            return value
        raise ConfigError(f"branch must be +1 or -1, got {value!r}")
    text = str(value).strip()
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise ConfigError(f"branch must be +1 or -1, got {value!r}")


def _coerce(name, value):
    try:
        return _coerce_value(name, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: cannot use {value!r} ({exc})") from exc


def _finite(value):
    # float() would read True as 1.0 and "1e3" as 1000.0; a config number
    # must be a JSON number
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    out = float(value)
    if not np.isfinite(out):
        raise ValueError(f"{out!r} is not a finite number")
    return out


def _coerce_value(name, value):
    if name == "branch":
        return parse_branch(value)
    if name == "tolerances":
        if not isinstance(value, dict):
            raise ConfigError("tolerances must be an object")
        known = {f.name for f in fields(Tolerances)}
        bad = set(value) - known
        if bad:
            raise ConfigError(f"unknown tolerance keys: {sorted(bad)}")
        return Tolerances(**{k: _finite(v) for k, v in value.items()})
    if name in ("a", "b", "sigma1_0", "sigma2_values"):
        if value is None:
            return None
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list of numbers, got {type(value).__name__}")
        return tuple(_finite(x) for x in value)
    if name in ("N", "operator_N", "seed", "n_perturbations",
                "n_phase_perturbations", "n_lambda_sets"):
        if isinstance(value, bool) or int(value) != value:
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)
    if name == "C" and value is None:
        return None
    return _finite(value)


def load_config(path=None, overrides=None):
    """Build a validated RunConfig from an optional JSON file plus overrides.

    ``overrides`` maps field names to already-typed values (None entries are
    skipped); command-line flags funnel through it and win over the file.
    """
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")

    known = {f.name: f for f in fields(RunConfig)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    merged = {}
    for name, value in data.items():
        merged[name] = _coerce(name, value)
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in known:
            raise ConfigError(f"unknown override {name!r}")
        merged[name] = _coerce(name, value)

    # A sigma2 list also pins the scalar to its first entry, so commands
    # that use a single curvature follow the swept set.
    if merged.get("sigma2_values"):
        merged.setdefault("sigma2_0", merged["sigma2_values"][0])

    try:
        cfg = RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()
