"""Span tracer for one workload pass, installed from outside the package.

Spans are recorded around the calls into each layer by replacing the names
the calling modules look up (``steppers.solve_shifted``, ``cli.min_eig``,
...); no file of the package changes.  A span carries its name, its parent,
the id of the thread that ran it, and both clocks: ``perf_counter`` (wall)
and ``thread_time`` (CPU of that thread).  Spans stay in per-thread lists in
memory and are written out once the pass ends.

Self time is a span's duration minus the part its children on the same
thread cover.  Spans opened on a sweep pool thread with nothing open on that
thread take the running command as their parent but are not subtracted from
it, since the two overlap in time.  Inside the pool a thread's wall time
includes its wait for the interpreter lock, so shares and per-call times are
taken from CPU time.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter, thread_time

SPAN_FIELDS = ("id", "name", "parent", "tid", "wall0", "wall1", "cpu0", "cpu1", "n")
# modules that own spans; grid is counted (lap_array) but never spanned
LAYERS = ("cli", "config", "steppers", "model", "linsolve", "obstacle", "spectral",
          "diagnostics", "runio")
# per-layer counts, which repeat exactly for a fixed seed
COUNT_METRICS = ("grid.lap_array.calls", "model.residual.calls", "model.snapshot_values.calls",
                 "steppers.resolvent.calls", "linsolve.solve_1d.calls",
                 "linsolve.solve_2d.calls", "linsolve.cg.matvecs", "obstacle.active_set.calls",
                 "obstacle.active_set.sweeps", "obstacle.newton.linear_solves",
                 "obstacle.pgs.fallbacks", "spectral.min_eig.iterations",
                 "spectral.min_eig.cg_matvecs", "diagnostics.checks.count",
                 "runio.write.files", "runio.write.bytes", "runio.read.files")


class _ThreadState:
    __slots__ = ("tid", "stack", "spans", "counts")

    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.spans = []
        self.counts = {}


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self.root = 0  # the open command span: parent of spans opened on pool threads
        self.main_tid = threading.get_ident()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def wrap(self, name, fn, measure=None, root=False):
        """fn recorded as a span; name may be a function of the call's args.

        measure(args, result) gives the span's count ``n`` (sweeps, bytes, ...).
        A root span is the parent of spans that pool threads open meanwhile.
        """
        ids, state = self._ids, self._state

        def traced(*args, **kwargs):
            st = state()
            sid = next(ids)
            stack = st.stack
            parent = stack[-1] if stack else self.root
            label = name(args) if callable(name) else name
            stack.append(sid)
            if root:
                self.root = sid
            w0 = perf_counter()
            c0 = thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                c1 = thread_time()
                w1 = perf_counter()
                stack.pop()
                st.spans.append([sid, label, parent, st.tid, w0, w1, c0, c1, None])
                if root:
                    self.root = 0
            if measure is not None:
                st.spans[-1][8] = measure(args, out)
            return out

        return traced

    def counted(self, name, fn):
        """fn with a call counter only: for calls too short and many to span."""
        state = self._state

        def counting(*args, **kwargs):
            counts = state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def dump(self) -> dict:
        spans, counts = [], defaultdict(int)
        with self._lock:
            for st in self._threads:
                spans.extend(st.spans)
                for k, v in st.counts.items():
                    counts[k] += v
        spans.sort(key=lambda s: s[0])
        return {"fields": list(SPAN_FIELDS), "main_tid": self.main_tid,
                "spans": spans, "counts": dict(counts)}


def _solve_name(args):
    return "linsolve.solve_1d" if args[0].dim == 1 else "linsolve.solve_2d"


def _file_bytes(args, _out):
    return os.path.getsize(args[0])


def install(tr: Tracer):
    """Replace the looked-up names of every layer boundary with traced ones."""
    from monoac import _linsolve, cli, diagnostics, grid, model, obstacle, runio, spectral, steppers

    def sweeps(_args, out):
        return out[2]

    spans = [
        (cli, "run", "steppers.run", None),
        (steppers, "_resolvent_raw", "steppers.resolvent", None),
        (steppers, "residual_array", "model.residual", None),
        (model, "residual_array", "model.residual", None),
        (steppers, "_snapshot_values", "model.snapshot_values", None),
        (steppers, "solve_shifted", _solve_name, None),
        (obstacle, "solve_shifted", _solve_name, None),
        (spectral, "solve_shifted", _solve_name, None),
        # computed bytes: the three n-arrays a matvec reads or writes (diag, x, result)
        (_linsolve, "apply_shifted", "linsolve.cg.matvec", lambda a, _out: 3 * a[2].nbytes),
        (steppers, "solve_active_set", "obstacle.active_set", sweeps),
        (obstacle, "solve_active_set", "obstacle.active_set", sweeps),
        (obstacle, "solve_pgs", "obstacle.pgs", sweeps),
        (steppers, "complementarity_report", "obstacle.complementarity", None),
        (obstacle, "complementarity_report", "obstacle.complementarity", None),
        (cli, "solve_equilibrium", "obstacle.equilibrium", None),
        (cli, "min_eig", "spectral.min_eig", lambda _a, out: out.iterations),
        (diagnostics, "run_checks", "diagnostics.checks", lambda _a, out: len(out)),
        (runio, "write_trajectory", "runio.write_trajectory", None),
        (runio, "write_field_csv", "runio.write", _file_bytes),
        (cli, "write_field_csv", "runio.write", _file_bytes),
        (runio, "read_trajectory", "runio.load", None),
        (runio, "read_field_csv", "runio.read", _file_bytes),
    ]
    spans += [(cli, fn, "config.parse", None)
              for fn in ("load_json", "parse_run_config", "parse_domain", "parse_model",
                         "parse_initial", "parse_solver")]
    for module, attr, name, measure in spans:
        setattr(module, attr, tr.wrap(name, getattr(module, attr), measure))
    for module in (grid, model, steppers, _linsolve, obstacle, diagnostics):
        module.lap_array = tr.counted("grid.lap_array.calls", module.lap_array)


def _ratio(a, b):
    return a / b if b else 0.0


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced pass (see the metric table in README.md)."""
    spans = [dict(zip(trace["fields"], s)) for s in trace["spans"]]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        s["self_w"] = s["wall1"] - s["wall0"]
        s["self_c"] = s["cpu1"] - s["cpu0"]
        s["pname"] = by_id[s["parent"]]["name"] if s["parent"] in by_id else ""
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["tid"] == s["tid"]:
            parent["self_w"] -= s["wall1"] - s["wall0"]
            parent["self_c"] -= s["cpu1"] - s["cpu0"]

    agg = defaultdict(lambda: {"calls": 0, "self_c": 0.0, "n": 0})
    layer_c = defaultdict(float)
    for s in spans:
        a = agg[s["name"]]
        a["calls"] += 1
        a["self_c"] += s["self_c"]
        a["n"] += s["n"] or 0
        layer_c[s["name"].split(".")[0]] += s["self_c"]
    total_c = sum(layer_c.values())

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def self_s(name):
        return agg[name]["self_c"] if name in agg else 0.0

    def n(name):
        return agg[name]["n"] if name in agg else 0

    def children(name, parent_name):
        return [s for s in spans if s["name"] == name and s["pname"] == parent_name]

    solves = ("linsolve.solve_1d", "linsolve.solve_2d")
    resolvent_solves = sum(len(children(x, "steppers.resolvent")) for x in solves)
    newton_solves = sum(len(children(x, "obstacle.active_set")) for x in solves)
    pgs_parents = {s["parent"] for s in spans if s["name"] == "obstacle.pgs"}
    # a call that fell back to PGS returns the PGS sweep count, not its own
    step_sets = [s for s in children("obstacle.active_set", "steppers.run")
                 if s["id"] not in pgs_parents]
    sweeps = sum(s["n"] for s in spans
                 if s["name"] == "obstacle.active_set" and s["id"] not in pgs_parents)
    eig_solve_ids = {s["id"] for s in children("linsolve.solve_2d", "spectral.min_eig")}
    eig_matvecs = sum(1 for s in spans
                      if s["name"] == "linsolve.cg.matvec" and s["parent"] in eig_solve_ids)
    load_ids = {s["id"] for s in spans if s["name"] == "runio.load"}
    load_reads = sum(1 for s in spans if s["name"] == "runio.read" and s["parent"] in load_ids)
    pool = [s for s in spans if s["name"] == "steppers.run" and s["tid"] != trace["main_tid"]]
    pool_wall = sum(s["wall1"] - s["wall0"] for s in pool)
    pool_cpu = sum(s["cpu1"] - s["cpu0"] for s in pool)
    commands = [s for s in spans if s["name"].startswith("cli.")]
    command_wall = sum(s["wall1"] - s["wall0"] for s in commands)
    command_self = sum(s["self_w"] for s in commands)

    m = {
        "grid.lap_array.calls": trace["counts"].get("grid.lap_array.calls", 0),
        "model.residual.calls": calls("model.residual"),
        "model.residual.self_us_per_call": 1e6 * _ratio(self_s("model.residual"),
                                                        calls("model.residual")),
        "model.snapshot_values.calls": calls("model.snapshot_values"),
        "model.snapshot_values.self_us_per_call": 1e6 * _ratio(
            self_s("model.snapshot_values"), calls("model.snapshot_values")),
        "model.snapshot_values.self_share": _ratio(self_s("model.snapshot_values"), total_c),
        "steppers.run.self_share": _ratio(self_s("steppers.run"), total_c),
        "steppers.resolvent.calls": calls("steppers.resolvent"),
        "steppers.resolvent.self_s": self_s("steppers.resolvent"),
        "steppers.resolvent.newton_iters_per_call": _ratio(resolvent_solves,
                                                           calls("steppers.resolvent")),
        "linsolve.solve_1d.calls": calls("linsolve.solve_1d"),
        "linsolve.solve_1d.self_us_per_call": 1e6 * _ratio(self_s("linsolve.solve_1d"),
                                                            calls("linsolve.solve_1d")),
        "linsolve.solve_2d.calls": calls("linsolve.solve_2d"),
        "linsolve.solve_2d.self_s": self_s("linsolve.solve_2d"),
        "linsolve.cg.matvecs": calls("linsolve.cg.matvec"),
        "linsolve.cg.matvecs_per_solve": _ratio(calls("linsolve.cg.matvec"),
                                                 calls("linsolve.solve_2d")),
        "linsolve.cg.matvec_us": 1e6 * _ratio(self_s("linsolve.cg.matvec"),
                                               calls("linsolve.cg.matvec")),
        "linsolve.cg.matvec_bytes": _ratio(n("linsolve.cg.matvec"), calls("linsolve.cg.matvec")),
        "obstacle.active_set.calls": calls("obstacle.active_set"),
        "obstacle.active_set.sweeps": sweeps,
        "obstacle.active_set.sweeps_per_step": _ratio(sum(s["n"] for s in step_sets),
                                                      len(step_sets)),
        "obstacle.active_set.self_s": self_s("obstacle.active_set"),
        "obstacle.newton.linear_solves": newton_solves,
        "obstacle.newton.solves_per_sweep": _ratio(newton_solves, sweeps),
        "obstacle.pgs.fallbacks": calls("obstacle.pgs"),
        "obstacle.pgs.self_s": self_s("obstacle.pgs"),
        "obstacle.complementarity.self_s": self_s("obstacle.complementarity"),
        "obstacle.equilibrium.self_s": self_s("obstacle.equilibrium"),
        "spectral.min_eig.self_s": self_s("spectral.min_eig"),
        "spectral.min_eig.iterations": n("spectral.min_eig"),
        "spectral.min_eig.cg_matvecs": eig_matvecs,
        "diagnostics.checks.self_s": self_s("diagnostics.checks"),
        "diagnostics.checks.count": n("diagnostics.checks"),
        "runio.write.self_s": self_s("runio.write"),
        "runio.write.files": calls("runio.write"),
        "runio.write.bytes": n("runio.write"),
        "runio.write.mb_per_s": 1e-6 * _ratio(n("runio.write"), self_s("runio.write")),
        "runio.read.self_s": self_s("runio.read"),
        "runio.read.files": calls("runio.read"),
        "runio.read.mb_per_s": 1e-6 * _ratio(n("runio.read"), self_s("runio.read")),
        "runio.read.snapshots_per_load": _ratio(load_reads, len(load_ids)),
        "config.parse.self_s": self_s("config.parse"),
        "cli.sweep.wait_share": _ratio(pool_wall - pool_cpu, pool_wall),
        "trace.span_coverage": 1.0 - _ratio(command_self, command_wall),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = _ratio(layer_c.get(layer, 0.0), total_c)
    return m
