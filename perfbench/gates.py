"""Correctness gates on one pass, evaluated outside the timed region.

Every command is an operation (it fails on a nonzero exit) and so is every
gate below.  The gates read what the commands printed and wrote, never the
benchmark's own timing, and do not depend on the seed:

    sweeps           preset_family: the absorbing check passed, every entry time
                     is finite; yosida_lambda: errors against the implicit
                     reference strictly decrease
    implicit_2d      lambda_min within 1e-8 relative of scipy eigsh (shift-invert)
                     on the same operator; verification.json has all_passed
    run_verify_io    verification.json has all_passed; the equilibrium residual
                     is <= its tol and its distance to the final state <= 1e-5
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

EIGEN_RTOL = 1e-8
EQUILIBRIUM_DIST = 1e-5


def _stdout(record, name):
    """What every command called ``name`` printed, in order."""
    return "".join(c["stdout"] for c in record["commands"] if c["name"] == name)


def _floats(text):
    """Floats in printed Python reprs, inf and nan included; None if any is malformed."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        return None


def _absorbing(record, _ref):
    m = re.search(r"absorbing entry times: \[(.*)\]", _stdout(record, "sweep"))
    times = _floats(m.group(1)) if m else None
    return bool(times) and all(math.isfinite(t) for t in times), f"entry times {times}"


def _yosida_errors(record, _ref):
    m = re.search(r"errors by lambda: \{(.*)\}", _stdout(record, "sweep"))
    errors = _floats(",".join(item.split(":")[-1] for item in m.group(1).split(","))) \
        if m else None
    ok = bool(errors) and len(errors) > 1 and all(math.isfinite(e) for e in errors) \
        and all(b < a for a, b in zip(errors, errors[1:]))
    return ok, f"errors {errors}"


def _eigen(record, ref):
    m = re.search(r"lambda_min = (\S+)", _stdout(record, "eigen"))
    if not m:
        return False, "no lambda_min printed"
    lam = float(m.group(1))
    rel = abs(lam - ref) / abs(ref)
    return rel <= EIGEN_RTOL, f"lambda_min {lam!r} vs eigsh {ref!r}, rel {rel:.2e}"


def _verification(record, _ref):
    try:
        with open(record["expect"]["verification"]) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return False, f"verification.json unreadable: {exc}"
    return doc.get("all_passed") is True, f"all_passed {doc.get('all_passed')}"


def _last_column(path):
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]


def _equilibrium(record, _ref):
    expect = record["expect"]
    try:
        with open(os.path.join(expect["equilibrium_dir"], "equilibrium.json")) as f:
            doc = json.load(f)
        with open(os.path.join(expect["run_dir"], "manifest.json")) as f:
            final = json.load(f)["snapshots"][-1]["file"]
        eq = _last_column(os.path.join(expect["equilibrium_dir"], "equilibrium.csv"))
        state = _last_column(os.path.join(expect["run_dir"], final))
        residual = max(doc["complementarity"].values())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return False, f"equilibrium outputs unreadable: {exc}"
    dist = float(np.max(np.abs(eq - state))) if eq.shape == state.shape else math.inf
    ok = residual <= expect["equilibrium_tol"] and dist <= EQUILIBRIUM_DIST
    return ok, f"residual {residual:.3e}, distance to final state {dist:.3e}"


GATES = {
    "sweeps": [("absorbing", _absorbing), ("errors_decrease", _yosida_errors)],
    "implicit_2d": [("eigen_vs_eigsh", _eigen), ("verification", _verification)],
    "run_verify_io": [("verification", _verification), ("equilibrium", _equilibrium)],
}


def evaluate(workload, record, ref=None) -> list[dict]:
    """One entry per operation of the pass: its commands, then its gates."""
    ops = [{"op": f"exit:{c['name']}", "ok": c["code"] == 0, "detail": f"code {c['code']}"}
           for c in record["commands"]]
    for name, gate in GATES[workload]:
        ok, detail = gate(record, ref)
        ops.append({"op": name, "ok": bool(ok), "detail": detail})
    return ops


def reference_lambda(expect) -> float:
    """Smallest eigenvalue of -lap + scale*u0^2 on a 2D grid by scipy's shift-invert eigsh.

    The operator is assembled here with scipy.sparse, independently of the
    package's stencil and solvers; only the initial field comes from monoac.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    from monoac.config import parse_domain, parse_initial
    from monoac.model import ModelParams

    g = parse_domain(expect["eigen_domain"])
    u0 = parse_initial(expect["eigen_initial"], g, ModelParams(kappa=1.0))
    (nx, ny), (hx, hy) = g.n_interior, g.h
    dx, dy = (sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / (h * h)
              for n, h in ((nx, hx), (ny, hy)))
    # fields are flattened row-major with axis 0 first, as grid.Field stores them
    neg_lap = sp.kron(dx, sp.identity(ny)) + sp.kron(sp.identity(nx), dy)
    op = (neg_lap + sp.diags(expect["eigen_scale"] * u0.values**2)).tocsc()
    return float(eigsh(op, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0])
