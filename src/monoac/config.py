"""Strict parsing of the on-disk JSON configurations.

Unknown keys are rejected everywhere: a typo in a tolerance name must fail
loudly before any computation starts.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .grid import Field, Grid, make_grid, read_field_csv
from .model import ModelParams
from .presets import make_initial
from .steppers import SolverConfig

__all__ = ["ConfigError", "RunSetup", "load_json", "parse_run_config", "parse_domain",
           "parse_model", "parse_initial", "parse_potential", "parse_solver", "parse_checks",
           "yosida_sections", "warm_start_source", "output_dir", "require_keys",
           "number", "positive", "count", "nonempty_list"]


class ConfigError(ValueError):
    pass


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"{path}: not a readable JSON file ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def number(value, where: str) -> float:
    """float(value) of a numeric config entry, which must be a JSON number (an int or a
    float): a bool or a string is refused, naming `where`."""
    try:
        if type(value) in (int, float):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{where}: expected a number, got {value!r}")


def positive(value, where: str) -> float:
    """number() of an entry that must be finite and > 0."""
    if not 0 < (x := number(value, where)) < np.inf:
        raise ConfigError(f"{where}: expected a finite number > 0, got {value!r}")
    return x


def count(value, where: str) -> int:
    """An integer entry, which is always a count: a whole JSON number >= 1 (2.0 counts)."""
    if type(value) not in (int, float) or not value >= 1 or value % 1:
        raise ConfigError(f"{where} must be an integer >= 1, got {value!r}")
    return int(value)


def _numbers(value, where: str):
    """number() of a scalar entry, or of each item of a list entry."""
    if isinstance(value, list):
        return [number(x, where) for x in value]
    return number(value, where)


def _real(value, where: str):
    """number() of an entry the manifest echoes: an integer stays an integer (one that no
    float can hold is refused)."""
    x = number(value, where)
    return value if type(value) is int else x


def nonempty_list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list")
    return value


def path_string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: expected a non-empty path string, got {value!r}")
    return value


def require_keys(section: dict, where: str, required, optional=()) -> dict:
    """section, after checking that it is an object with all required keys and no others."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return section


def parse_domain(section) -> Grid:
    require_keys(section, "domain", ("dim", "endpoints", "n_interior"))
    dim = count(section["dim"], "domain: dim")
    endpoints = section["endpoints"]
    if isinstance(endpoints, list):  # [lo, hi] in 1D, one such pair per axis in 2D
        endpoints = [[_real(x, "domain: endpoints") for x in e] if isinstance(e, list)
                     else _real(e, "domain: endpoints") for e in endpoints]
    try:
        return make_grid(dim, endpoints, section["n_interior"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"domain: {exc}") from None


def parse_model(section) -> ModelParams:
    require_keys(section, "model", ("kappa",))
    kappa = number(section["kappa"], "model: kappa")
    try:
        return ModelParams(kappa=kappa)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None


def parse_initial(section, g: Grid, p: ModelParams) -> Field:
    """A preset (its parameters numbers or lists of numbers) or a field CSV ("csv")."""
    if not isinstance(section, dict):
        raise ConfigError("initial: expected an object")
    if "csv" in section:
        require_keys(section, "initial", ("csv",))
        name, kwargs = "custom", {"path": path_string(section["csv"], "initial: csv")}
    elif "preset" not in section:
        raise ConfigError("initial: needs either a 'preset' name or a 'csv' path")
    else:
        name = section["preset"]
        kwargs = {k: path_string(v, "initial: path") if k == "path" else
                  _numbers(v, f"initial: {k}") for k, v in section.items() if k != "preset"}
    try:
        return make_initial(name, g, p, **kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"initial: {exc}") from None


# each type's required and optional keys besides "type"
_POTENTIAL_KEYS = {"zero": ((), ()), "constant": (("value",), ()), "csv": (("path",), ()),
                   "scaled_square": (("initial",), ("scale",))}


def parse_potential(section, g: Grid, p: ModelParams) -> Field:
    kind = section.get("type") if isinstance(section, dict) else None
    if not isinstance(kind, str) or kind not in _POTENTIAL_KEYS:
        raise ConfigError(f"potential: unknown type {kind!r}")
    require_keys(section, "potential", ("type",) + _POTENTIAL_KEYS[kind][0],
                 _POTENTIAL_KEYS[kind][1])
    if kind == "csv":
        try:
            return read_field_csv(path_string(section["path"], "potential: path"), grid=g)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"potential: {exc}") from None
    if kind == "scaled_square":
        scale = number(section.get("scale", 3.0), "potential: scale")
        return Field(g, scale * parse_initial(section["initial"], g, p).values**2)
    value = number(section["value"], "potential: value") if kind == "constant" else 0.0
    return Field(g, value * np.ones(g.n_nodes))


# a solver section's keys are SolverConfig's fields, read by their annotated types; the
# fields without a default are required
_READERS = {"str": lambda value, where: value, "float": _real, "int": count}
_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
_SOLVER_REQUIRED = tuple(f.name for f in fields(SolverConfig) if f.default is MISSING)


def parse_solver(section, g: Grid, p: ModelParams, records: int | None = None,
                 where: str = "solver") -> SolverConfig:
    """The validated SolverConfig of a solver section.  Without a "snapshot_stride" it
    stores about `records` snapshots, every max(1, n_steps // records)-th step (with no
    records, every step)."""
    require_keys(section, where, _SOLVER_REQUIRED, _SOLVER_KEYS)
    cfg = SolverConfig(**{f.name: _READERS[f.type](section[f.name], f"{where}: {f.name}")
                          for f in fields(SolverConfig) if f.name in section})
    try:
        cfg.validate(g, p)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if records is None or "snapshot_stride" in section:
        return cfg
    return replace(cfg, snapshot_stride=max(1, cfg.n_steps() // records))


def yosida_sections(doc) -> tuple[list, dict, dict]:
    """A yosida_lambda sweep's lambdas and base and reference solver sections, schemes defaulted."""
    lambdas = nonempty_list(doc["lambdas"], "lambdas")
    base, ref = (require_keys(doc[k], k, (), _SOLVER_KEYS)
                 for k in ("base_solver", "reference_solver"))
    return ([number(x, "lambdas") for x in lambdas], {"scheme": "yosida", **base},
            {"scheme": "implicit_obstacle", **ref})


def warm_start_source(section) -> tuple[str, object]:
    """The one warm start: ("trajectory" or "csv", a path) or ("run", a solver section)."""
    require_keys(section, "warm_start", (), ("trajectory", "csv", "run"))
    if len(section) != 1:
        raise ConfigError("warm_start: needs one of 'trajectory', 'csv' or 'run'")
    ((kind, value),) = section.items()
    if kind == "run":
        return kind, require_keys(value, "warm_start: run", (), _SOLVER_KEYS)
    return kind, path_string(value, f"warm_start: {kind}")


def output_dir(doc, override) -> str | None:
    """override (the --out flag) if set, else outputs.directory, else None."""
    section = require_keys(doc.get("outputs", {}), "outputs", (), ("directory",))
    directory = path_string(section["directory"], "outputs: directory") if section else None
    return override or directory


def parse_checks(section):
    """None, or the checks as {"name": str, optional "tolerance": float > 0} entries."""
    if section is None:
        return None
    if not isinstance(section, list):
        raise ConfigError("checks: expected a list")
    parsed = []
    for item in section:
        item = require_keys({"name": item} if isinstance(item, str) else item, "checks entry",
                            ("name",), ("tolerance",))
        if not isinstance(item["name"], str):
            raise ConfigError(f"checks entry: name: expected a string, got {item['name']!r}")
        parsed.append({k: positive(v, "checks entry: tolerance") if k == "tolerance" else v
                       for k, v in item.items()})
    return parsed


@dataclass(frozen=True)
class RunSetup:
    grid: Grid
    params: ModelParams
    u0: Field
    solver: SolverConfig
    out_dir: str
    checks: list | None


def parse_run_config(doc: dict) -> RunSetup:
    require_keys(doc, "config", ("domain", "model", "initial", "solver", "outputs"),
                 ("checks",))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    u0 = parse_initial(doc["initial"], g, p)
    outputs = require_keys(doc["outputs"], "outputs", ("directory",), ("stride",))
    # a run's stride is outputs.stride, else about 100 records
    require_keys(doc["solver"], "solver", (), set(_SOLVER_KEYS) - {"snapshot_stride"})
    cfg = parse_solver(doc["solver"], g, p, 100)
    if outputs.get("stride") is not None:
        cfg = replace(cfg, snapshot_stride=count(outputs["stride"], "outputs: stride"))
    return RunSetup(grid=g, params=p, u0=u0, solver=cfg,
                    out_dir=path_string(outputs["directory"], "outputs: directory"),
                    checks=parse_checks(doc.get("checks")))
