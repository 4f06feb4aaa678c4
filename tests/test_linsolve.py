import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from monoac import Field, make_grid, min_eig, spectral, steppers
from monoac import _linsolve
from monoac._linsolve import LinearSolveError, apply_shifted, solve_shifted
from monoac.cli import main

REPO = Path(__file__).resolve().parents[1]


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports monoac from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def assembled_operator(g, d):
    """diag(d) - lap as a sparse matrix, built from the 3-point stencil per axis."""
    lap = sp.csr_matrix((g.n_nodes, g.n_nodes))
    for a, (n, h) in enumerate(zip(g.n_interior, g.h)):
        axis = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / (h * h)
        factors = [sp.identity(m) for m in g.n_interior]
        factors[a] = axis
        term = factors[0]
        for f in factors[1:]:
            term = sp.kron(term, f)
        lap = lap + term
    return (sp.diags(d) - lap).tocsr()


# non-square with unequal spacing, so a swapped axis in the DST spectrum shows
G = make_grid(2, ((0, 2), (0, 1)), (23, 17))


def fixed_mask(kind, rng):
    if kind == "none":
        return None
    if kind == "none_marked":
        return np.zeros(G.n_nodes, dtype=bool)
    if kind == "disk":
        x, y = G.coords()
        return (x - 0.8) ** 2 + (y - 0.45) ** 2 < 0.3**2
    if kind == "random30":
        return rng.random(G.n_nodes) < 0.3
    if kind == "all":
        return np.ones(G.n_nodes, dtype=bool)
    raise ValueError(kind)


def diagonal(kind, rng):
    if kind == "positive":
        return 1.0 + 50.0 * rng.random(G.n_nodes)
    # mean below zero, yet every entry above -lambda_min(-lap): still SPD
    lam1 = float(G.lap_eigenvalues.min())
    return lam1 * (-0.8 + 0.1 * rng.uniform(-1.0, 1.0, G.n_nodes))


class TestSolveShifted2D:
    @pytest.mark.parametrize("fixed_kind", ["none", "none_marked", "disk", "random30", "all"])
    @pytest.mark.parametrize("diag_kind", ["positive", "negative_mean"])
    def test_matches_sparse_direct_solve(self, fixed_kind, diag_kind):
        rng = np.random.default_rng(7)
        fixed = fixed_mask(fixed_kind, rng)
        d = diagonal(diag_kind, rng)
        rhs = rng.standard_normal(G.n_nodes)
        x = solve_shifted(G, d, rhs, fixed=fixed)
        free = np.ones(G.n_nodes, dtype=bool) if fixed is None else ~fixed
        assert np.all(x[~free] == 0.0)
        if not free.any():
            return
        a_ff = assembled_operator(G, d)[free][:, free]
        b_f = rhs[free]
        assert np.linalg.norm(a_ff @ x[free] - b_f) <= 1e-11 * np.linalg.norm(b_f)
        ref = spsolve(a_ff.tocsc(), b_f)
        assert np.linalg.norm(x[free] - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_scalar_diagonal_broadcasts(self):
        rhs = np.random.default_rng(3).standard_normal(G.n_nodes)
        x = solve_shifted(G, 2.5, rhs)
        a = assembled_operator(G, 2.5 * np.ones(G.n_nodes))
        assert np.linalg.norm(a @ x - rhs) <= 1e-11 * np.linalg.norm(rhs)

    def test_lap_eigenvalues_match_dense_spectrum(self):
        g = make_grid(2, ((0, 2), (0, 1)), (6, 5))
        dense = assembled_operator(g, np.zeros(g.n_nodes)).toarray()
        expected = np.linalg.eigvalsh(dense)
        assert g.lap_eigenvalues.shape == g.shape
        np.testing.assert_allclose(np.sort(g.lap_eigenvalues.ravel()), expected, rtol=1e-12)


class TestKernels2D:
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 23])
    def test_folded_sine_transform_is_the_matrix_product(self, n):
        s = make_grid(2, ((0, 1), (0, 1)), (n, 3)).sine_basis[0]
        v = np.random.default_rng(n).standard_normal((n, 3))
        ref = s @ v
        assert np.max(np.abs(_linsolve._sine_transform(s, v) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_fixed_nodes_of_a_solution_are_exact_zeros(self):
        rng = np.random.default_rng(13)
        fixed = fixed_mask("disk", rng)
        x = solve_shifted(G, diagonal("positive", rng), rng.standard_normal(G.n_nodes),
                          fixed=fixed)
        assert x[fixed].tobytes() == bytes(8 * int(fixed.sum()))  # +0.0, sign bit clear

    def test_solution_scales_with_a_tiny_rhs(self):
        rng = np.random.default_rng(15)
        fixed = fixed_mask("disk", rng)
        d = diagonal("positive", rng)
        rhs = rng.standard_normal(G.n_nodes)
        x = solve_shifted(G, d, rhs, fixed=fixed)
        tiny = solve_shifted(G, d, 1e-30 * rhs, fixed=fixed)
        assert np.max(np.abs(tiny * 1e30 - x)) <= 1e-9 * np.max(np.abs(x))

    def test_nonfinite_diagonal_on_fixed_nodes_is_ignored(self):
        rng = np.random.default_rng(16)
        fixed = fixed_mask("random30", rng)
        d = diagonal("positive", rng)
        rhs = rng.standard_normal(G.n_nodes)
        d_inf = np.where(fixed, np.inf, d)
        x = solve_shifted(G, d_inf, rhs, fixed=fixed)
        assert x.tobytes() == solve_shifted(G, d, rhs, fixed=fixed).tobytes()

    def test_every_iteration_calls_apply_shifted(self, monkeypatch):
        # the benchmark traces the matvec by wrapping this module attribute
        calls = []

        def counted(g, diag, x):
            calls.append(x.nbytes)
            return apply_shifted(g, diag, x)

        monkeypatch.setattr(_linsolve, "apply_shifted", counted)
        rhs = np.random.default_rng(14).standard_normal(G.n_nodes)
        with pytest.raises(LinearSolveError, match="did not reach"):
            solve_shifted(G, -1000.0, rhs)  # indefinite: every iteration runs
        assert len(calls) == 10 * max(G.shape) + 200
        assert set(calls) == {8 * G.n_nodes}

    def test_2d_solves_import_neither_scipy_fft_nor_sparse(self):
        code = ("import sys, numpy as np, monoac.cli\n"
                "from monoac import Field, make_grid, min_eig\n"
                "from monoac._linsolve import solve_shifted\n"
                "g = make_grid(2, ((0, 2), (0, 1)), (23, 17))\n"
                "solve_shifted(g, 1.0, np.ones(g.n_nodes))\n"
                "min_eig(g, Field(g, np.zeros(g.n_nodes)))\n"
                "print([m for m in ('scipy.fft', 'scipy.sparse') if m in sys.modules])\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_solves_import_no_scipy_package(self):
        # the LAPACK wrappers come from the _flapack extension alone: scipy's and
        # scipy.linalg's package inits never run
        proc = run_python(
            "import sys, numpy as np, monoac.cli\n"
            "from monoac import Field, make_grid, min_eig\n"
            "from monoac._linsolve import solve_shifted\n"
            "g1 = make_grid(1, ((0, 1),), (15,))\n"
            "solve_shifted(g1, np.ones((3, 15)), np.ones((3, 15)), fixed=np.eye(3, 15, dtype=bool))\n"
            "g = make_grid(2, ((0, 2), (0, 1)), (23, 17))\n"
            "solve_shifted(g, 1.0, np.ones(g.n_nodes))\n"
            "min_eig(g, Field(g, np.zeros(g.n_nodes)))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert proc.stdout.strip() == "['scipy.linalg._flapack']"

    def test_2d_implicit_reruns_are_byte_identical(self, tmp_path):
        domain = {"dim": 2, "endpoints": [[-1, 1], [-1, 1]], "n_interior": [31, 31]}
        bump = {"preset": "bump", "center": [0.0, 0.0], "width": [0.6, 0.6], "height": 0.35}
        for out in ("a", "b"):
            doc = {"domain": domain, "model": {"kappa": 1.0}, "initial": bump,
                   "solver": {"scheme": "implicit_obstacle", "splitting": "convex_split",
                              "dt": 0.01, "t_end": 0.05},
                   "outputs": {"directory": str(tmp_path / out), "stride": 1}}
            assert main(["run", "--config", write_config(tmp_path, doc, f"{out}.json"),
                         "--quiet"]) == 0
        files = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert len(files) == 2 + 6  # diagnostics.csv, steps.csv and the snapshots of steps 0..5
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestLapackLoader:
    @pytest.mark.parametrize("first", ["monoac", "scipy.linalg.lapack"])
    def test_wrappers_are_scipys_own_objects_in_either_import_order(self, first):
        second = "scipy.linalg.lapack" if first == "monoac" else "monoac"
        proc = run_python(
            f"import {first}\nimport {second}\n"
            "from monoac import _linsolve\nfrom scipy.linalg import lapack\n"
            "print([getattr(_linsolve, f) is getattr(lapack, f)"
            " for f in ('dpttrf', 'dpttrs')])\n")
        assert proc.stdout.strip() == "[True, True]"

    def test_missing_extension_raises_naming_the_directory(self, tmp_path):
        # scipy located at an empty directory: the import fails there, and no
        # scipy package is imported in its place
        linalg = tmp_path / "scipy" / "linalg"
        linalg.mkdir(parents=True)
        proc = run_python(
            "import importlib.machinery, importlib.util, sys\n"
            "find_spec = importlib.util.find_spec\n"
            f"fake = importlib.machinery.ModuleSpec('scipy', None, origin={str(linalg.parent / '__init__.py')!r})\n"
            "importlib.util.find_spec = lambda name, package=None: "
            "fake if name == 'scipy' else find_spec(name, package)\n"
            "try:\n"
            "    import monoac\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        message, imported = proc.stdout.strip().splitlines()
        assert str(linalg) in message
        assert imported == "[]"


class TestSolveShifted1D:
    @pytest.mark.parametrize("n", [1, 2, 31])
    @pytest.mark.parametrize("fixed_kind", ["none", "ends", "random30", "all"])
    def test_matches_dense_solve(self, n, fixed_kind):
        g = make_grid(1, (0, 1), n)
        rng = np.random.default_rng(n)
        d = 1.0 + 10.0 * rng.random(n)
        rhs = rng.standard_normal(n)
        fixed = {"none": None,
                 "ends": np.isin(np.arange(n), [0, n - 1]),
                 "random30": rng.random(n) < 0.3,
                 "all": np.ones(n, dtype=bool)}[fixed_kind]
        x = solve_shifted(g, d, rhs, fixed=fixed)
        free = np.ones(n, dtype=bool) if fixed is None else ~fixed
        assert np.all(x[~free] == 0.0)
        if free.any():
            a_ff = assembled_operator(g, d).toarray()[np.ix_(free, free)]
            np.testing.assert_allclose(x[free], np.linalg.solve(a_ff, rhs[free]),
                                       rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 3])
    def test_singular_system_raises(self, n):
        g = make_grid(1, (0, 1), n)
        with pytest.raises(LinearSolveError):
            solve_shifted(g, -2.0 / g.h[0] ** 2, np.ones(n))


    @pytest.mark.parametrize("shape", [(1,), (31,), (3, 63)])
    @pytest.mark.parametrize("fixed_kind", ["none", "random30"])
    def test_operands_are_left_unmodified(self, shape, fixed_kind):
        g = make_grid(1, (0, 1), shape[-1])
        rng = np.random.default_rng(7)
        d, rhs = 1.0 + rng.random(shape), rng.standard_normal(shape)
        fixed = None if fixed_kind == "none" else rng.random(shape) < 0.3
        before = [a.copy() for a in (d, rhs) + (() if fixed is None else (fixed,))]
        for _ in range(2):  # a second solve sees the same operands and gives the same x
            x = solve_shifted(g, d, rhs, fixed=fixed)
            assert x.tobytes() == solve_shifted(g, before[0], before[1], fixed=fixed).tobytes()
            for a, b in zip((d, rhs, fixed), before):
                assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(x, rhs) and not np.shares_memory(x, d)


class TestBatchedSolves:
    @pytest.mark.parametrize("n", [2, 31])
    @pytest.mark.parametrize("fixed_kind", ["none", "ends", "random30", "all"])
    def test_1d_batch_equals_row_solves_bitwise(self, n, fixed_kind):
        g = make_grid(1, (0, 1), n)
        rng = np.random.default_rng(n)
        shape = (4, n)
        d = 1.0 / rng.uniform(1e-3, 1e-1, (4, 1)) + 3.0 * rng.standard_normal(shape) ** 2
        rhs = rng.standard_normal(shape)
        ends = np.zeros(shape, dtype=bool)
        ends[:, [0, -1]] = True
        fixed = {"none": None, "ends": ends, "random30": rng.random(shape) < 0.3,
                 "all": np.ones(shape, dtype=bool)}[fixed_kind]
        x = solve_shifted(g, d, rhs, fixed=fixed)
        for i in range(4):
            xi = solve_shifted(g, d[i], rhs[i], fixed=None if fixed is None else fixed[i])
            assert x[i].tobytes() == xi.tobytes()

    def test_2d_batch_equals_row_solves(self):
        rng = np.random.default_rng(3)
        d = 1.0 + rng.random((3, G.n_nodes))
        rhs = rng.standard_normal((3, G.n_nodes))
        x = solve_shifted(G, d, rhs)
        for i in range(3):
            assert x[i].tobytes() == solve_shifted(G, d[i], rhs[i]).tobytes()

    @pytest.mark.parametrize("g", [make_grid(1, (0, 1), 3), G], ids=["1d", "2d"])
    def test_failure_names_its_row(self, g):
        d = np.ones((3, g.n_nodes))
        d[1] = np.nan if g.dim == 2 else -2.0 / g.h[0] ** 2  # 1D: a singular row
        with pytest.raises(LinearSolveError) as info:
            solve_shifted(g, d, np.ones((3, g.n_nodes)))
        assert info.value.row == 1

    def test_indefinite_nonsingular_row_raises_naming_it(self):
        # every system the steppers build is positive definite; one that is not is
        # refused (PDAS then falls back to PGS) even where pivoting could solve it
        g = make_grid(1, (0, 1), 3)
        d = np.ones((4, 3))
        d[2] = -1.5 / g.h[0] ** 2  # pivots 0.5/h^2, then -1.5/h^2
        eig = np.linalg.eigvalsh(assembled_operator(g, d[2]).toarray())
        assert eig.min() < 0.0 < eig.max() and np.min(np.abs(eig)) > 0.1 / g.h[0] ** 2
        with pytest.raises(LinearSolveError, match="dpttrf info=8") as info:
            solve_shifted(g, d, np.ones((4, 3)))
        assert info.value.row == 2


class TestSolveShifted2DFailures:
    def test_unreachable_tolerance_stops_at_grid_scaled_cap(self):
        # a shift inside the spectrum of -lap: indefinite, so CG cannot converge
        g = make_grid(2, ((-1, 1), (-1, 1)), (127, 127))
        rhs = np.random.default_rng(1).standard_normal(g.n_nodes)
        with pytest.raises(LinearSolveError, match="did not reach") as info:
            solve_shifted(g, -1000.0, rhs)
        iterations = int(re.search(r"in (\d+) iterations", str(info.value)).group(1))
        assert iterations <= 10 * 127 + 200

    @pytest.mark.parametrize("fixed_kind", ["none", "disk"])
    def test_tolerance_below_rounding_raises(self, fixed_kind):
        # the recursive residual falls below any target; the true one stops near 1e-16
        g = make_grid(2, ((0, 1), (0, 1)), (9, 7))
        x, y = g.coords()
        fixed = None if fixed_kind == "none" else (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.2**2
        rng = np.random.default_rng(5)
        with pytest.raises(LinearSolveError, match="did not reach"):
            solve_shifted(g, 1.0 + rng.random(g.n_nodes), rng.standard_normal(g.n_nodes),
                          fixed=fixed, rtol=1e-30)

    def test_nonfinite_residual_raises_at_once(self):
        d = np.ones(G.n_nodes)
        d[10] = np.nan
        with pytest.raises(LinearSolveError, match="non-finite"):
            solve_shifted(G, d, np.ones(G.n_nodes))


def test_min_eig_2d_matches_dense_eigvalsh():
    g = make_grid(2, ((0, 2), (0, 1)), (24, 17))
    x, y = g.coords()
    v = 3.0 * (0.6 * np.exp(-((x - 0.9) ** 2 + (y - 0.5) ** 2) / 0.1)) ** 2 - 1.5 * x
    lam = min_eig(g, Field(g, v), tol=1e-10).lambda_min
    ref = float(np.linalg.eigvalsh(assembled_operator(g, v).toarray())[0])
    assert abs(lam - ref) <= 1e-9 * abs(ref)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def failing_solve(monkeypatch):
    def fail(*_args, **_kwargs):
        raise LinearSolveError("forced failure")

    monkeypatch.setattr(steppers, "solve_shifted", fail)
    monkeypatch.setattr(spectral, "solve_shifted", fail)


DOMAIN = {"dim": 1, "endpoints": [0, 1], "n_interior": 31}
DT = (1.0 / 32.0) ** 2 / 4.0
BUMP = {"preset": "bump", "center": 0.5, "width": 0.3, "height": 0.4}


class TestLinearSolveErrorExitCodes:
    def test_run_exits_3_with_partial_outputs(self, tmp_path, failing_solve):
        doc = {"domain": DOMAIN, "model": {"kappa": 1.0}, "initial": BUMP,
               "solver": {"scheme": "yosida", "dt": DT, "t_end": 8 * DT},
               "outputs": {"directory": str(tmp_path / "out"), "stride": 1}}
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "forced failure" in manifest["failure"]["message"]

    def test_eigen_exits_5(self, tmp_path, failing_solve):
        doc = {"domain": DOMAIN, "potential": {"type": "zero"}}
        assert main(["eigen", "--config", write_config(tmp_path, doc), "--quiet"]) == 5

    def test_sweep_member_exits_7(self, tmp_path, failing_solve):
        doc = {"kind": "yosida_lambda", "domain": DOMAIN, "model": {"kappa": 1.0},
               "initial": BUMP,
               "base_solver": {"dt": DT, "t_end": 64 * DT, "snapshot_stride": 16},
               "reference_solver": {"dt": 16 * DT, "t_end": 64 * DT, "snapshot_stride": 1},
               "lambdas": [1e-1]}
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 7

    def test_equilibrium_warm_start_run_exits_6(self, tmp_path, failing_solve):
        doc = {"domain": DOMAIN, "model": {"kappa": 1.0}, "obstacle": BUMP,
               "warm_start": {"run": {"scheme": "yosida", "dt": DT, "t_end": 8 * DT}}}
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 6
