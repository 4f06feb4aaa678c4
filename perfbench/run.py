"""monoac benchmark: one workload, timed through the CLI, gated for correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh process (child.py) that imports
``monoac.cli`` from ``src/`` of this checkout and runs the workload's commands
through ``monoac.cli.main``.  Passes repeat until S seconds have gone; every
timing reported is the median over the run's passes.  After each pass the
gates in gates.py check what the commands wrote and printed.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (see README.md).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller result,
with the environment block and every pass, is written under
``perfbench/.results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, ".results")
sys.path.insert(0, SRC)

import gates  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s; a pass still going at this point fails

END_TO_END_UNITS = {"wall_s": "s", "us_per_step": "us", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_UNITS = {
    "steppers.resolvent.newton_iters_per_call": "iters/call",
    "linsolve.cg.matvecs_per_solve": "matvecs/solve",
    "obstacle.active_set.sweeps_per_step": "sweeps/step",
    "obstacle.newton.solves_per_sweep": "solves/sweep",
    "runio.read.snapshots_per_load": "files/load",
}


def per_layer_unit(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    for suffix, unit in ((".self_s", "s"), ("_us_per_call", "us"), (".matvec_us", "us"),
                         (".mb_per_s", "MB/s"), ("bytes", "B"), ("_share", "frac"),
                         ("_frac", "frac"), (".span_coverage", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


# One BLAS thread: at these array sizes a second OpenBLAS thread spins on the
# other core, doubling CPU time without lowering wall time, and it would
# compete with the sweep pool's threads.
BLAS_THREADS = 1


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, entry, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(seed: int) -> dict:
    import numpy
    import scipy

    build = numpy.show_config(mode="dicts")["Build Dependencies"]
    blas = {k: {f: build[k].get(f) for f in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack") if k in build}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_lapack": blas, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "blas_thread_cap": BLAS_THREADS,
            "caches": _cache_sizes(), "machine": platform.machine(), "seed": seed}


def run_child(workload, seed, passdir, timeout, trace=False) -> dict:
    """One fresh process; returns its record with setup_s, or a failed stub."""
    cap = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap, MKL_NUM_THREADS=cap)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--dir", passdir, "--trace", str(int(trace))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
        with open(os.path.join(passdir, "record.json")) as f:
            record = json.load(f)
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return {"crashed": str(exc)[-2000:], "commands": []}
    if proc.returncode != 0:
        return {"crashed": proc.stderr[-2000:], "commands": []}
    record["setup_s"] = record["setup_done"] - spawned
    if trace:
        with open(os.path.join(passdir, "trace.json")) as f:
            record["layers"] = tracer.summarize(json.load(f))
    return record


def stepping_us(record) -> float:
    steppers = [c for c in record["commands"] if c["steps"]]
    return 1e6 * sum(c["wall_s"] for c in steppers) / sum(c["steps"] for c in steppers)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "monoac", "cli.py")):
        print(f"error: no monoac package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(args.seed)
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    setups, passes = [], []
    try:
        expect = workloads.generate(args.workload, args.seed, os.path.join(work, "plan"))["expect"]
        ref = gates.reference_lambda(expect) if "eigen_domain" in expect else None
        started = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passdir = os.path.join(work, f"pass{len(passes)}")
            rec = run_child(args.workload, args.seed, passdir, deadline - time.monotonic(),
                            trace=traced)
            rec["traced"] = traced
            if "crashed" in rec:
                rec["ops"] = [{"op": "pass", "ok": False, "detail": rec["crashed"]}]
            else:
                setups.append(rec["setup_s"])
                rec["ops"] = gates.evaluate(args.workload, rec, ref)
            passes.append(rec)
            if traced and "crashed" not in rec:
                os.makedirs(RESULTS, exist_ok=True)
                os.replace(os.path.join(passdir, "trace.json"),
                           os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.json"))
            shutil.rmtree(passdir, ignore_errors=True)
            now = time.monotonic()
            if (len(passes) > args.trace and now - started >= args.seconds) or now >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for rec in passes for op in rec["ops"]]
    failed = sum(not op["ok"] for op in ops)
    plain = [r for r in passes if not r["traced"] and "crashed" not in r]
    traced = [r for r in passes if r["traced"] and "crashed" not in r]
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "eigsh_reference": ref, "setup_samples": setups,
              "passes": [{k: v for k, v in r.items() if k != "layers"} for r in passes],
              "failed_ops": [op for op in ops if not op["ok"]]}
    metrics = {}
    if plain:
        walls = [sum(c["wall_s"] for c in r["commands"]) for r in plain]
        e2e = {"wall_s": statistics.median(walls),
               "us_per_step": statistics.median(stepping_us(r) for r in plain),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        result["cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        result["failed_frac"] = failed / len(ops)
        if not args.trace:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if args.trace and traced:
        layers = [r["layers"] for r in traced]
        values = {k: layers[0][k] if k in tracer.COUNT_METRICS
                  else statistics.median(m[k] for m in layers) for k in layers[0]}
        repeat = all(m[k] == layers[0][k] for m in layers for k in tracer.COUNT_METRICS)
        result["counts_repeat"] = repeat
        traced_wall = statistics.median(sum(c["wall_s"] for c in r["commands"]) for r in traced)
        values["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0 if plain else 0.0
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    correct = failed == 0 and bool(metrics)

    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({**result, "metrics": metrics}, f, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    for op in result["failed_ops"]:
        print(f"FAILED {op['op']}: {op['detail']}")
    print(f"{args.workload} passes {len(plain)} untraced, {len(traced)} traced; "
          f"failed_frac = {failed}/{len(ops)} = {failed / max(len(ops), 1):.4g} frac; "
          f"cpu_s = {result.get('cpu_s', float('nan')):.4g} s")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
