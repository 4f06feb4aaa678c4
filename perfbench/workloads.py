"""Seeded workload generation: the JSON configs the CLI reads, and the commands.

Each workload is a list of ``monoac`` commands run in one fresh process.  The
seed jitters the initial data inside ranges that keep every correctness gate
valid (the supersolution stays one, the yosida errors still decrease, the run
reaches its equilibrium); step counts and grids are fixed per workload, so a
seed changes the data, not the amount of work.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("sweeps", "implicit_2d", "run_verify_io")

# sweeps, family member: dt = cfl/2 = 2^-14 on (-1, 1) at n = 127
FAMILY_DT = 2.0**-14
FAMILY_STEPS = 6144
# sweeps, yosida member: base dt = h^2/4 = 2^-14 at n = 63 on (0, 1); reference dt = 2^-10
YOSIDA_DT = 2.0**-14
YOSIDA_REF_DT = 2.0**-10
YOSIDA_T_END = 0.25
YOSIDA_LAMBDAS = (1e-1, 1e-2, 1e-3)
# implicit_2d: 127^2 convex-split bump
IMPLICIT_2D_N = 127
IMPLICIT_2D_DT = 0.01
IMPLICIT_2D_STEPS = 5
# run_verify_io: criterion-9 shape at stride 1
IO_N = 255
IO_DT = 0.05
IO_STEPS = 1000
EQUILIBRIUM_TOL = 1e-6


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's configs under workdir and return its plan.

    The plan holds ``commands`` (argv lists for ``monoac.cli.main``, with a
    ``steps`` count for each: the time steps it integrates, 0 for commands
    that do not step) and ``expect`` (what the gates compare against).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    plan = {"sweeps": _sweeps, "implicit_2d": _implicit_2d,
            "run_verify_io": _run_verify_io}[workload](rng, workdir)
    for cmd in plan["commands"]:
        path = os.path.join(workdir, cmd["config_name"])
        with open(path, "w") as f:
            json.dump(cmd.pop("doc"), f, indent=1, sort_keys=True)
        cmd["argv"] = [cmd["name"], "--config", path]
    return plan


def _cmd(name, config_name, doc, steps=0):
    return {"name": name, "config_name": config_name, "doc": doc, "steps": steps}


def _sweeps(rng, workdir):
    """The preset_family sweep (explicit) then the yosida_lambda sweep."""
    return {"commands": [_family(rng), _yosida(rng)], "expect": {}}


def _family(rng):
    doc = {
        "kind": "preset_family",
        "domain": {"dim": 1, "endpoints": [-1, 1], "n_interior": 127},
        "model": {"kappa": 1.0},
        "presets": [
            {"preset": "zero"},
            {"preset": "eigenfunction", "c": _u(rng, 0.5, 1.0)},
            # any c > 0 is a supersolution here: the stencil eigenvalue exceeds kappa
            {"preset": "supersolution", "c": _u(rng, 0.75, 1.25)},
            {"preset": "bump", "center": _u(rng, -0.2, 0.2), "width": _u(rng, 0.4, 0.6),
             "height": _u(rng, 0.2, 0.4)},
            {"preset": "abs_edge"},
            # neg_const takes no level, so it is not jittered
            {"preset": "neg_const"},
        ],
        "solver": {"scheme": "explicit", "dt": FAMILY_DT, "t_end": FAMILY_STEPS * FAMILY_DT,
                   "snapshot_stride": FAMILY_STEPS // 4},
    }
    return _cmd("sweep", "family.json", doc, steps=6 * FAMILY_STEPS)


def _yosida(rng):
    steps = round(YOSIDA_T_END / YOSIDA_DT)
    doc = {
        "kind": "yosida_lambda",
        "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 63},
        "model": {"kappa": 1.0},
        "initial": {"preset": "bump", "center": _u(rng, 0.45, 0.55),
                    "width": _u(rng, 0.27, 0.33), "height": _u(rng, 0.35, 0.45)},
        "base_solver": {"dt": YOSIDA_DT, "t_end": YOSIDA_T_END, "snapshot_stride": steps},
        "reference_solver": {"dt": YOSIDA_REF_DT, "t_end": YOSIDA_T_END,
                             "snapshot_stride": round(YOSIDA_T_END / YOSIDA_REF_DT)},
        "lambdas": list(YOSIDA_LAMBDAS),
    }
    total = len(YOSIDA_LAMBDAS) * steps + round(YOSIDA_T_END / YOSIDA_REF_DT)
    return _cmd("sweep", "yosida.json", doc, steps=total)


def _implicit_2d(rng, workdir):
    domain = {"dim": 2, "endpoints": [[-1, 1], [-1, 1]],
              "n_interior": [IMPLICIT_2D_N, IMPLICIT_2D_N]}
    bump = {"preset": "bump",
            "center": [_u(rng, -0.05, 0.05), _u(rng, -0.05, 0.05)],
            "width": [_u(rng, 0.58, 0.62), _u(rng, 0.58, 0.62)],
            "height": _u(rng, 0.33, 0.37)}
    rundir = os.path.join(workdir, "run2d")
    eigen = {"domain": domain, "model": {"kappa": 1.0},
             "potential": {"type": "scaled_square", "initial": bump, "scale": 3.0}}
    run = {"domain": domain, "model": {"kappa": 1.0}, "initial": bump,
           "solver": {"scheme": "implicit_obstacle", "splitting": "convex_split",
                      "dt": IMPLICIT_2D_DT, "t_end": IMPLICIT_2D_STEPS * IMPLICIT_2D_DT},
           "outputs": {"directory": rundir, "stride": IMPLICIT_2D_STEPS}}
    verify = {"trajectory": rundir}
    return {"commands": [_cmd("eigen", "eigen.json", eigen),
                         _cmd("run", "run2d.json", run, steps=IMPLICIT_2D_STEPS),
                         _cmd("verify", "verify2d.json", verify)],
            "expect": {"eigen_domain": domain, "eigen_initial": bump, "eigen_scale": 3.0,
                       "verification": os.path.join(rundir, "verification.json")}}


def _run_verify_io(rng, workdir):
    half = _u(rng, 0.95, 1.05)
    domain = {"dim": 1, "endpoints": [-half, half], "n_interior": IO_N}
    rundir = os.path.join(workdir, "run1d")
    eqdir = os.path.join(workdir, "equilibrium")
    run = {"domain": domain, "model": {"kappa": 1.0}, "initial": {"preset": "abs_edge"},
           "solver": {"scheme": "implicit_obstacle", "dt": IO_DT, "t_end": IO_STEPS * IO_DT},
           "outputs": {"directory": rundir, "stride": 1}}
    verify = {"trajectory": rundir}
    equilibrium = {"domain": domain, "model": {"kappa": 1.0},
                   "obstacle": {"preset": "abs_edge"},
                   "warm_start": {"trajectory": rundir}, "tol": EQUILIBRIUM_TOL,
                   "outputs": {"directory": eqdir}}
    return {"commands": [_cmd("run", "run1d.json", run, steps=IO_STEPS),
                         _cmd("verify", "verify1d.json", verify),
                         _cmd("equilibrium", "equilibrium.json", equilibrium)],
            "expect": {"verification": os.path.join(rundir, "verification.json"),
                       "run_dir": rundir, "equilibrium_dir": eqdir,
                       "equilibrium_tol": EQUILIBRIUM_TOL}}
