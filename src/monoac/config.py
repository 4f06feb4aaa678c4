"""Strict parsing of the on-disk JSON configurations.

Unknown keys are rejected everywhere: a typo in a tolerance name must fail
loudly before any computation starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .grid import Field, Grid, make_grid
from .model import ModelParams
from .presets import PRESET_NAMES, make_initial
from .steppers import SolverConfig

__all__ = ["ConfigError", "RunSetup", "load_json", "parse_run_config",
           "parse_domain", "parse_model", "parse_initial", "parse_solver",
           "default_stride", "number"]


class ConfigError(ValueError):
    pass


def load_json(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def number(value, where: str, kind=float):
    """kind(value) for a numeric config entry; ConfigError naming `where` if that fails.

    A bool, or a fractional number where kind is int, fails rather than being truncated.
    """
    try:
        if isinstance(value, bool) or kind is int and isinstance(value, float) and value % 1:
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def _require_keys(section: dict, where: str, required, optional=()):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def parse_domain(section) -> Grid:
    _require_keys(section, "domain", ("dim", "endpoints", "n_interior"))
    try:
        return make_grid(section["dim"], section["endpoints"], section["n_interior"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"domain: {exc}") from None


def parse_model(section) -> ModelParams:
    _require_keys(section, "model", ("kappa",))
    try:
        return ModelParams(kappa=float(section["kappa"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from None


def parse_initial(section, g: Grid, p: ModelParams) -> Field:
    if not isinstance(section, dict):
        raise ConfigError("initial: expected an object")
    if "csv" in section:
        _require_keys(section, "initial", ("csv",))
        try:
            return make_initial("custom", g, p, path=section["csv"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"initial: {exc}") from None
    if "preset" not in section:
        raise ConfigError("initial: needs either a 'preset' name or a 'csv' path")
    name = section["preset"]
    if name not in PRESET_NAMES:
        raise ConfigError(f"initial: unknown preset {name!r}")
    kwargs = {k: v for k, v in section.items() if k != "preset"}
    allowed = {
        "zero": (), "abs_edge": (), "neg_const": (),
        "eigenfunction": ("c",), "supersolution": ("c",),
        "bump": ("center", "width", "height"), "custom": ("path",),
    }[name]
    unknown = set(kwargs) - set(allowed)
    if unknown:
        raise ConfigError(f"initial: preset {name!r} does not take {sorted(unknown)}")
    try:
        return make_initial(name, g, p, **kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"initial: {exc}") from None


_SOLVER_KEYS = ("scheme", "dt", "t_end", "splitting", "yosida_lambda",
                "newton_tol", "newton_max_iter", "pgs_tol", "pgs_max_iter")


def parse_solver(section, g: Grid, p: ModelParams, snapshot_stride: int) -> SolverConfig:
    _require_keys(section, "solver", ("scheme", "dt", "t_end"), _SOLVER_KEYS[3:])
    kwargs = {k: section[k] for k in _SOLVER_KEYS if k in section}
    try:
        cfg = SolverConfig(snapshot_stride=snapshot_stride, **kwargs)
        cfg.validate(g, p)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from None
    return cfg


def default_stride(solver_section, records: int) -> int:
    """Snapshot stride giving about `records` snapshots over a solver section's run.

    max(1, round(t_end/dt) // records); ConfigError if dt or t_end is missing
    or not a number.
    """
    try:
        n_steps = round(float(solver_section["t_end"]) / float(solver_section["dt"]))
    except KeyError as exc:
        raise ConfigError(f"solver: missing key {exc}") from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"solver: dt and t_end must be numbers ({exc})") from None
    return max(1, n_steps // records)


def _parse_outputs(section, solver_section):
    _require_keys(section, "outputs", ("directory",), ("stride",))
    stride = section.get("stride")
    if stride is None:
        stride = default_stride(solver_section, 100)
    stride = number(stride, "outputs: stride", int)
    if stride < 1:
        raise ConfigError("outputs: stride must be >= 1")
    return section["directory"], stride


def _parse_checks(section):
    if section is None:
        return None
    if not isinstance(section, list):
        raise ConfigError("checks: expected a list")
    parsed = []
    for item in section:
        if isinstance(item, str):
            parsed.append({"name": item})
            continue
        _require_keys(item, "checks entry", ("name",), ("tolerance",))
        parsed.append(item)
    return parsed


@dataclass(frozen=True)
class RunSetup:
    grid: Grid
    params: ModelParams
    u0: Field
    solver: SolverConfig
    out_dir: str
    checks: list | None
    echo: dict


def parse_run_config(doc: dict) -> RunSetup:
    _require_keys(doc, "config", ("domain", "model", "initial", "solver", "outputs"),
                  ("checks",))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    u0 = parse_initial(doc["initial"], g, p)
    out_dir, stride = _parse_outputs(doc["outputs"], doc["solver"])
    cfg = parse_solver(doc["solver"], g, p, stride)
    checks = _parse_checks(doc.get("checks"))
    return RunSetup(grid=g, params=p, u0=u0, solver=cfg, out_dir=out_dir,
                    checks=checks, echo=doc)
