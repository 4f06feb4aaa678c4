import itertools

import numpy as np
import pytest

from monoac import Field, ModelParams, make_grid
from monoac.obstacle import (
    NEWTON_TOL,
    KernelError,
    ObstacleProblem,
    brute_force_obstacle,
    complementarity_report,
    solve_active_set,
    solve_equilibrium,
    solve_pgs,
)
from monoac.presets import make_initial
from monoac.steppers import SolverConfig, run

P1 = ModelParams(kappa=1.0)


def random_problem(rng, n=None, dim=1, kappa_implicit=False, a_range=(0.5, 50.0)):
    """Random convex instance; with the kappa term inside, keep a safely above kappa."""
    if dim == 1:
        n = n or int(rng.integers(1, 13))
        g = make_grid(1, (0, 1), n)
    else:
        g = make_grid(2, ((0, 1), (0, 1)), (3, 3))
    a = float(rng.uniform(*a_range))
    if kappa_implicit:
        a = max(a, P1.kappa + 0.5)
    psi = Field(g, rng.normal(scale=0.5, size=g.n_nodes))
    b = Field(g, rng.normal(scale=3.0, size=g.n_nodes))
    return ObstacleProblem(grid=g, psi=psi, a=a, b=b,
                           kappa_implicit=kappa_implicit, params=P1)


def zero_field(g):
    return Field(g, np.zeros(g.n_nodes))


def criterion_2_instances():
    """The 200 oracle instances of acceptance criterion 2, drawn in the same order."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        g = make_grid(1, (0, 1), n)
        kappa_implicit = bool(rng.integers(0, 2))
        a = float(rng.uniform(0.5, 50.0))
        if kappa_implicit:
            a = max(a, P1.kappa + 0.5)
        yield ObstacleProblem(grid=g, psi=Field(g, rng.normal(scale=0.5, size=n)), a=a,
                              b=Field(g, rng.normal(scale=3.0, size=n)),
                              kappa_implicit=kappa_implicit, params=P1)


class TestPgs:
    def test_deep_obstacle_matches_unconstrained_newton(self):
        # oracle: dense Newton on the unconstrained system, written out here
        rng = np.random.default_rng(0)
        g = make_grid(1, (0, 1), 8)
        prob = ObstacleProblem(grid=g, psi=Field(g, -1e6 * np.ones(8)), a=1.0,
                               b=Field(g, rng.normal(size=8)),
                               kappa_implicit=False, params=P1)
        u, eta, _ = solve_pgs(prob, zero_field(g), tol=1e-13)

        dense = np.zeros((8, 8))
        e = np.zeros(8)
        from monoac.grid import lap_array
        for j in range(8):
            e[:] = 0.0
            e[j] = 1.0
            dense[:, j] = prob.a * e - lap_array(g, e)
        x = np.zeros(8)
        for _ in range(50):
            f = dense @ x + x**3 - prob.b.values
            if np.max(np.abs(f)) < 1e-14:
                break
            x -= np.linalg.solve(dense + np.diag(3 * x**2), f)
        assert np.max(np.abs(u.values - x)) <= 1e-9
        assert np.all(eta.values == 0.0)

    def test_kkt_point_returns_immediately(self):
        g = make_grid(1, (0, 1), 6)
        psi = Field(g, np.linspace(-0.3, 0.2, 6))
        prob = ObstacleProblem(grid=g, psi=psi, a=2.0,
                               b=Field(g, prob_apply(g, psi.values, 2.0) - 1.0),
                               kappa_implicit=False, params=P1)
        # b = A(psi) - 1 makes psi strictly active everywhere
        u, eta, sweeps = solve_pgs(prob, psi)
        np.testing.assert_array_equal(u.values, psi.values)
        assert sweeps <= 1
        assert np.all(eta.values <= 0.0)

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            prob = random_problem(rng)
            ub, eb = brute_force_obstacle(prob)
            up, ep, _ = solve_pgs(prob, zero_field(prob.grid))
            assert np.max(np.abs(up.values - ub.values)) <= 1e-10
            assert np.max(np.abs(ep.values - eb.values)) <= 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_active_set_on_tiny_1d_grids(self, n):
        # n = 1 leaves the odd colour empty
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            prob = random_problem(rng, n=n)
            ua, ea, _ = solve_active_set(prob, zero_field(prob.grid))
            up, ep, _ = solve_pgs(prob, zero_field(prob.grid))
            assert np.max(np.abs(up.values - ua.values)) <= 1e-10
            assert np.max(np.abs(ep.values - ea.values)) <= 1e-8

    def test_matches_active_set_on_a_nonsquare_2d_grid(self):
        rng = np.random.default_rng(23)
        g = make_grid(2, ((0, 2), (0, 1)), (15, 11))
        prob = ObstacleProblem(grid=g, psi=Field(g, rng.normal(scale=0.5, size=g.n_nodes)),
                               a=2.0, b=Field(g, rng.normal(scale=3.0, size=g.n_nodes)),
                               kappa_implicit=False, params=P1)
        ua, _, _ = solve_active_set(prob, zero_field(g))
        up, _, sweeps = solve_pgs(prob, zero_field(g))
        assert sweeps < 100_000
        assert np.any(up.values == prob.psi.values) and np.any(up.values > prob.psi.values)
        assert np.max(np.abs(up.values - ua.values)) <= 1e-8


def prob_apply(g, v, a):
    from monoac.grid import lap_array
    return a * v - lap_array(g, v) + v**3


class TestActiveSet:
    def test_fully_inactive_single_solve(self):
        rng = np.random.default_rng(1)
        g = make_grid(1, (0, 1), 9)
        prob = ObstacleProblem(grid=g, psi=Field(g, -50.0 * np.ones(9)), a=3.0,
                               b=Field(g, rng.normal(size=9)),
                               kappa_implicit=False, params=P1)
        u, eta, iters = solve_active_set(prob, zero_field(g))
        assert iters <= 2
        assert np.all(eta.values == 0.0)

    def test_fully_active_returns_obstacle(self):
        g = make_grid(1, (0, 1), 7)
        psi = Field(g, np.linspace(0.0, 0.5, 7))
        b = Field(g, prob_apply(g, psi.values, 4.0) - 2.0)
        prob = ObstacleProblem(grid=g, psi=psi, a=4.0, b=b,
                               kappa_implicit=False, params=P1)
        u, eta, _ = solve_active_set(prob, psi)
        np.testing.assert_array_equal(u.values, psi.values)
        assert np.all(eta.values < 0.0)

    def test_agrees_with_pgs_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            prob = random_problem(rng, kappa_implicit=bool(rng.integers(0, 2)))
            ua, _, _ = solve_active_set(prob, zero_field(prob.grid))
            up, _, _ = solve_pgs(prob, zero_field(prob.grid))
            assert np.max(np.abs(ua.values - up.values)) <= 1e-8

    def test_agrees_with_enumeration_in_2d(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            prob = random_problem(rng, dim=2)
            ub, _ = brute_force_obstacle(prob)
            ua, _, _ = solve_active_set(prob, zero_field(prob.grid))
            assert np.max(np.abs(ua.values - ub.values)) <= 1e-10


class TestSemismoothLoop:
    @pytest.fixture
    def no_pgs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the active-set loop fell back to PGS")

        monkeypatch.setattr("monoac.obstacle.solve_pgs", refuse)

    def test_two_cycle_instance_converges_without_pgs(self, no_pgs):
        # draw 167 (n = 9, kappa inside, a ~ 6.155): a full-step iteration alternates
        # between contact sets {4, 7} and {4, 5, 7} and never settles
        prob = next(itertools.islice(criterion_2_instances(), 167, None))
        u, _, _ = solve_active_set(prob, zero_field(prob.grid))
        ub, _ = brute_force_obstacle(prob)
        assert np.max(np.abs(u.values - ub.values)) <= 1e-10

    def test_criterion_2_instances_need_no_pgs(self, no_pgs):
        for prob in criterion_2_instances():
            solve_active_set(prob, zero_field(prob.grid))

    def test_linear_solves_on_a_2d_bump(self, monkeypatch):
        from monoac import obstacle

        calls = []
        solve_shifted = obstacle.solve_shifted

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_shifted(*args, **kwargs)

        monkeypatch.setattr(obstacle, "solve_shifted", counted)
        g = make_grid(2, ((-1, 1), (-1, 1)), (63, 63))
        u0 = make_initial("bump", g, P1, center=(0.0, 0.0), width=(0.6, 0.6), height=0.35)
        run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=0.05))
        assert len(calls) <= 20

    @staticmethod
    def capped_solves(monkeypatch, cap):
        """Count obstacle.solve_shifted calls; raise past cap so a stalled loop fails fast."""
        from monoac import obstacle

        calls = []
        solve_shifted = obstacle.solve_shifted

        def counted(*args, **kwargs):
            calls.append(1)
            if len(calls) > cap:
                raise AssertionError(f"more than {cap} linear solves")
            return solve_shifted(*args, **kwargs)

        monkeypatch.setattr(obstacle, "solve_shifted", counted)
        return calls

    @pytest.mark.parametrize("preset,dt", [("bump", 0.1), ("bump", 0.01), ("bump", 0.001),
                                           ("neg_const", 0.001)])
    def test_a_run_reaching_its_fixed_point_does_not_stall(self, monkeypatch, no_pgs,
                                                          preset, dt):
        # criterion-4 members: near the fixed point every new guess used to be adopted
        # until the set budget was spent, then PGS took over
        calls = self.capped_solves(monkeypatch, 5_000)
        if preset == "bump":
            g = make_grid(1, (0, 1), 127)
            u0 = make_initial("bump", g, P1, center=0.5, width=0.25, height=0.2)
        else:
            g = make_grid(1, (-1, 1), 127)
            u0 = make_initial("neg_const", g, P1)
        run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=dt, t_end=2.0,
                                    snapshot_stride=max(1, int(0.5 / dt))))
        assert calls

    def test_a_2d_run_reaching_its_fixed_point_does_not_stall(self, monkeypatch, no_pgs):
        calls = self.capped_solves(monkeypatch, 200)
        g = make_grid(2, ((0, 1), (0, 1)), (63, 63))
        u0 = make_initial("bump", g, P1, center=(0.5, 0.5), width=(0.25, 0.3), height=0.2)
        run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=1.0,
                                    snapshot_stride=50))
        assert calls

    def test_equilibrium_polish_off_kkt_needs_no_pgs(self, monkeypatch, no_pgs):
        # the a = 0 polish solves -kappa + 3u^2 - lap on its free nodes, which need not be
        # definite; here it is, so the LDL^T solve takes every system and nothing falls back
        g = make_grid(1, (-1, 1), 63)
        u0 = make_initial("neg_const", g, P1)
        traj = run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=0.05, t_end=5.0,
                                           snapshot_stride=100))
        calls = self.capped_solves(monkeypatch, 200)
        _, _, rep = solve_equilibrium(g, u0, P1, traj.final_state(), tol=1e-8)
        assert calls
        assert rep.max_entry() <= 1e-8

    def test_one_newton_step_per_set_reaches_the_fallback(self, monkeypatch):
        from monoac import obstacle

        fallbacks = []

        def counted(*args, **kwargs):
            fallbacks.append(1)
            return solve_pgs(*args, **kwargs)

        monkeypatch.setattr(obstacle, "solve_pgs", counted)
        prob = next(criterion_2_instances())
        u, _, _ = solve_active_set(prob, zero_field(prob.grid), newton_max_iter=1)
        ub, _ = brute_force_obstacle(prob)
        assert fallbacks == [1]
        assert np.max(np.abs(u.values - ub.values)) <= 1e-10

    @staticmethod
    def patched(monkeypatch, shifted):
        """Route each obstacle.solve_shifted call through shifted(the real solve); count PGS
        fallbacks."""
        from monoac import obstacle

        real, fallbacks = obstacle.solve_shifted, []

        def counted(*args, **kwargs):
            fallbacks.append(1)
            return solve_pgs(*args, **kwargs)

        monkeypatch.setattr(obstacle, "solve_shifted", lambda *args, **kwargs: shifted(
            lambda: real(*args, **kwargs)))
        monkeypatch.setattr(obstacle, "solve_pgs", counted)
        return fallbacks

    @staticmethod
    def assert_kkt(prob, u, eta):
        rep = complementarity_report(prob, u, eta)
        assert rep.primal_violation == 0.0
        assert rep.dual_violation <= 1e-10
        assert rep.gap <= 1e-10 * (1 + float(np.max(np.abs(u.values))))
        assert rep.stationarity_residual <= 1e-8

    def test_failed_linear_solve_falls_back_to_pgs(self, monkeypatch):
        from monoac._linsolve import LinearSolveError

        def failing(solve):
            raise LinearSolveError("forced failure")

        fallbacks = self.patched(monkeypatch, failing)
        prob = next(itertools.islice(criterion_2_instances(), 1, None))
        u, eta, _ = solve_active_set(prob, zero_field(prob.grid))
        assert fallbacks == [1]
        self.assert_kkt(prob, u, eta)

    def test_overlong_newton_step_is_halved(self, monkeypatch):
        # a full step of 4 delta roughly triples the residual, so only the halving to
        # delta keeps the loop off the PGS fallback
        expected = [solve_active_set(prob, zero_field(prob.grid))[0]
                    for prob in itertools.islice(criterion_2_instances(), 10)]
        fallbacks = self.patched(monkeypatch, lambda solve: 4.0 * solve())
        for prob, ref in zip(itertools.islice(criterion_2_instances(), 10), expected):
            u, eta, _ = solve_active_set(prob, zero_field(prob.grid))
            assert np.max(np.abs(u.values - ref.values)) <= NEWTON_TOL
            self.assert_kkt(prob, u, eta)
        assert fallbacks == []

    def test_zero_newton_step_exhausts_the_line_search(self, monkeypatch):
        fallbacks = self.patched(monkeypatch, lambda solve: 0.0 * solve())
        prob = next(itertools.islice(criterion_2_instances(), 1, None))
        u, eta, _ = solve_active_set(prob, zero_field(prob.grid))
        assert fallbacks == [1]
        self.assert_kkt(prob, u, eta)


class TestBruteForce:
    def test_scalar_contact_decision(self):
        # n=1: active exactly when the unconstrained root sits below the obstacle
        g = make_grid(1, (0, 1), 1)
        a = 100.0
        for psi_val, b_val in [(0.0, -5.0), (0.0, 5.0), (0.3, 20.0), (0.3, 200.0)]:
            prob = ObstacleProblem(grid=g, psi=Field(g, [psi_val]), a=a,
                                   b=Field(g, [b_val]), kappa_implicit=False, params=P1)
            u, eta = brute_force_obstacle(prob)
            c = a + 2.0 / g.h[0] ** 2
            root = np.roots([1.0, 0.0, c, -b_val])
            root = float(root[np.isreal(root)].real[0])
            if root < psi_val:
                assert u.values[0] == psi_val and eta.values[0] < 0
            else:
                assert u.values[0] == pytest.approx(root, abs=1e-10)
                assert eta.values[0] == 0.0

    def test_first_verified_set_in_enumeration_order(self):
        # G(psi) = +5e-11: the free set (u a hair below psi) and the contact set (a
        # multiplier of -5e-11) both pass KKT to 1e-10; the free set is enumerated first
        g = make_grid(1, (0, 1), 1)
        psi = Field(g, [0.3])
        prob = ObstacleProblem(grid=g, psi=psi, a=100.0,
                               b=Field(g, prob_apply(g, psi.values, 100.0) - 5e-11),
                               kappa_implicit=False, params=P1)
        u, eta = brute_force_obstacle(prob)
        assert u.values[0] == 0.3
        assert eta.values[0] == 0.0

    def test_node_budget_enforced(self):
        g = make_grid(1, (0, 1), 13)
        prob = ObstacleProblem(grid=g, psi=zero_field(g), a=1.0, b=zero_field(g),
                               kappa_implicit=False, params=P1)
        with pytest.raises(ValueError, match="12"):
            brute_force_obstacle(prob)

    def test_nonconvex_guard(self):
        g = make_grid(1, (0, 1), 4)
        prob = ObstacleProblem(grid=g, psi=zero_field(g), a=0.0, b=zero_field(g),
                               kappa_implicit=True, params=P1)
        with pytest.raises(KernelError, match="refusing"):
            brute_force_obstacle(prob)


class TestKernelInvariants:
    def test_kkt_exactness_of_returned_triples(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            prob = random_problem(rng)
            for solver in (solve_pgs, solve_active_set):
                u, eta, _ = solver(prob, zero_field(prob.grid))
                rep = complementarity_report(prob, u, eta)
                assert rep.primal_violation == 0.0
                assert rep.dual_violation <= 1e-10
                assert rep.gap <= 1e-10 * (1 + float(np.max(np.abs(u.values))))
                assert rep.stationarity_residual <= 1e-8

    def test_monotone_in_obstacle(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            prob = random_problem(rng, n=int(rng.integers(2, 9)))
            lift = np.abs(rng.normal(scale=0.3, size=prob.grid.n_nodes))
            raised = ObstacleProblem(grid=prob.grid,
                                     psi=Field(prob.grid, prob.psi.values + lift),
                                     a=prob.a, b=prob.b,
                                     kappa_implicit=prob.kappa_implicit, params=P1)
            u_low, _ = brute_force_obstacle(prob)
            u_high, _ = brute_force_obstacle(raised)
            assert np.min(u_high.values - u_low.values) >= -1e-10


class TestEquilibrium:
    def test_supersolution_obstacle_is_its_own_equilibrium(self):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("supersolution", g, P1)
        eq, eta, rep = solve_equilibrium(g, u0, P1, u0, tol=1e-8)
        np.testing.assert_array_equal(eq.values, u0.values)
        assert np.all(eta.values <= 0.0)
        assert rep.max_entry() <= 1e-8

    def test_zero_data_stays_zero(self):
        # oracle: a long implicit run from zero never leaves zero
        g = make_grid(1, (0, 1), 31)
        u0 = zero_field(g)
        traj = run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=0.1,
                                           t_end=20.0, snapshot_stride=20))
        assert np.max(np.abs(traj.final_state().values)) == 0.0
        eq, _, rep = solve_equilibrium(g, u0, P1, traj.final_state(), tol=1e-8)
        assert np.all(eq.values == 0.0)
        assert rep.max_entry() <= 1e-8

    def test_warm_start_below_obstacle_rejected(self):
        g = make_grid(1, (0, 1), 9)
        u0 = Field(g, 0.5 * np.ones(9))
        with pytest.raises(KernelError, match="below the obstacle"):
            solve_equilibrium(g, u0, P1, zero_field(g))

    def test_long_run_limit_matches_polish(self):
        g = make_grid(1, (-1, 1), 63)
        u0 = make_initial("abs_edge", g, P1)
        traj = run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=0.05,
                                           t_end=40.0, snapshot_stride=100))
        eq, _, rep = solve_equilibrium(g, u0, P1, traj.final_state(), tol=1e-6)
        assert np.max(np.abs(eq.values - traj.final_state().values)) <= 1e-5
        assert rep.max_entry() <= 1e-6
