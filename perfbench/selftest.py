"""Self-test of the correctness gates: corrupted outputs must raise failed_frac.

    python3 perfbench/selftest.py

Runs one real pass of every workload, checks that its gates all pass, then
corrupts one output at a time (an exit code, a printed verdict, a written
file) and checks that the same gates now fail, so failed_frac rises above 0.
Exits 0 when every corruption is caught and every clean pass is clean.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import sys

import gates
import workloads
from run import HERE, run_child


def _set_code(rec):
    rec["commands"][0]["code"] = 4


def _sub_stdout(name, pattern, repl):
    def corrupt(rec):
        cmd = next(c for c in rec["commands"] if c["name"] == name)
        cmd["stdout"] = re.sub(pattern, repl, cmd["stdout"], count=1)
    return corrupt


def _swap_errors(rec):
    cmd = next(c for c in rec["commands"] if "errors by lambda" in c["stdout"])
    m = re.search(r"errors by lambda: \{(.*)\}", cmd["stdout"])
    items = m.group(1).split(", ")
    vals = [i.split(": ") for i in items]
    vals[0][1], vals[-1][1] = vals[-1][1], vals[0][1]
    cmd["stdout"] = "errors by lambda: {" + ", ".join(": ".join(v) for v in vals) + "}\n"


def _scale_lambda(rec):
    cmd = next(c for c in rec["commands"] if c["name"] == "eigen")
    lam = float(re.search(r"lambda_min = (\S+)", cmd["stdout"]).group(1))
    cmd["stdout"] = cmd["stdout"].replace(repr(lam), repr(lam * (1 + 1e-6)), 1)


def _edit_json(key_path, value, path_key, filename=None):
    def corrupt(rec):
        path = rec["expect"][path_key]
        if filename:
            path = os.path.join(path, filename)
        with open(path) as f:
            doc = json.load(f)
        target = doc
        for k in key_path[:-1]:
            target = target[k]
        target[key_path[-1]] = value
        with open(path, "w") as f:
            json.dump(doc, f)
    return corrupt


def _shift_equilibrium(rec):
    path = os.path.join(rec["expect"]["equilibrium_dir"], "equilibrium.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    mid = len(lines) // 2
    cols = lines[mid].split(",")
    cols[-1] = repr(float(cols[-1]) + 1e-3)
    lines[mid] = ",".join(cols)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


CORRUPTIONS = {
    "sweeps": [("nonzero exit", _set_code),
               ("member never enters the box",
                _sub_stdout("sweep", r"times: \[", "times: [inf, ")),
               ("errors out of order", _swap_errors)],
    "implicit_2d": [("lambda_min off by 1e-6", _scale_lambda),
                    ("verification failed",
                     _edit_json(["all_passed"], False, "verification"))],
    "run_verify_io": [("verification failed",
                       _edit_json(["all_passed"], False, "verification")),
                      ("equilibrium residual above tol",
                       _edit_json(["complementarity", "stationarity_residual"], 1e-3,
                                  "equilibrium_dir", "equilibrium.json")),
                      ("equilibrium off the final state", _shift_equilibrium)],
}


def _failed_frac(workload, rec, ref):
    ops = gates.evaluate(workload, rec, ref)
    return sum(not op["ok"] for op in ops) / len(ops), ops


def main() -> int:
    work = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    ok = True
    try:
        for workload in workloads.WORKLOADS:
            passdir = os.path.join(work, workload)
            rec = run_child(workload, 0, passdir, timeout=150)
            if "crashed" in rec:
                print(f"{workload}: pass crashed: {rec['crashed']}")
                ok = False
                continue
            expect = rec["expect"]
            ref = gates.reference_lambda(expect) if "eigen_domain" in expect else None
            frac, ops = _failed_frac(workload, rec, ref)
            print(f"{workload}: clean pass failed_frac = {frac:.3g}")
            ok &= frac == 0
            saved = shutil.copytree(passdir, passdir + ".clean")
            for label, corrupt in CORRUPTIONS[workload]:
                bad = copy.deepcopy(rec)
                corrupt(bad)
                frac, ops = _failed_frac(workload, bad, ref)
                caught = [op["op"] for op in ops if not op["ok"]]
                print(f"{workload}: {label}: failed_frac = {frac:.3g} (failed {caught})")
                ok &= frac > 0
                shutil.rmtree(passdir)
                shutil.copytree(saved, passdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
