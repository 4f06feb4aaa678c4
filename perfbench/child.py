"""One pass of a workload in a fresh process, through ``monoac.cli.main``.

Set-up (interpreter start, ``import monoac.cli``, writing the seeded configs
and parsing them) ends at ``setup_done``; then each command runs in turn with
its standard output captured.  Everything the parent needs is written to
``record.json`` in the pass directory, and with ``--trace 1`` the spans to
``trace.json``.

    python3 perfbench/child.py --workload NAME --seed N --dir PASS_DIR [--trace 1]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _parse_configs(cli, plan):
    """Read every generated config and build its grids and initial fields."""
    for cmd in plan["commands"]:
        doc = cli.load_json(cmd["argv"][2])
        if "domain" not in doc:
            continue
        g = cli.parse_domain(doc["domain"])
        p = cli.parse_model(doc["model"])
        sections = [doc[k] for k in ("initial", "obstacle") if k in doc]
        sections += doc.get("presets", [])
        if "potential" in doc:
            sections.append(doc["potential"]["initial"])
        for section in sections:
            cli.parse_initial(section, g, p)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import monoac.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"monoac imported from {cli.__file__}, not from {SRC}")
    import tracer
    import workloads

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    plan = workloads.generate(args.workload, args.seed, args.dir)
    _parse_configs(cli, plan)
    record = {"setup_done": time.monotonic(), "commands": []}

    for cmd in plan["commands"]:
        main_fn = tr.wrap(f"cli.{cmd['name']}", cli.main, root=True) if tr else cli.main
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main_fn(cmd["argv"])
        except Exception:  # a traceback is a failed command, not a crashed pass
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        record["commands"].append({"name": cmd["name"], "code": code, "wall_s": wall,
                                   "steps": cmd["steps"], "stdout": out.getvalue(),
                                   "stderr": err.getvalue()[-2000:]})
    ru = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = ru.ru_maxrss * 1024 / 1e6
    record["cpu_s"] = ru.ru_utime + ru.ru_stime
    record["expect"] = plan["expect"]
    with open(os.path.join(args.dir, "record.json"), "w") as f:
        json.dump(record, f)
    if tr is not None:
        with open(os.path.join(args.dir, "trace.json"), "w") as f:
            json.dump(tr.dump(), f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
