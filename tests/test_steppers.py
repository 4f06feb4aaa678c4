import json
from dataclasses import replace

import numpy as np
import pytest

from monoac import (
    Field,
    ModelParams,
    SolverConfig,
    SolverError,
    cfl_limit,
    make_grid,
    norm_lp,
    resolvent_jlambda,
    run,
    step_explicit,
    step_implicit_obstacle,
    step_yosida,
)
from monoac import model, steppers
from monoac.cli import main
from monoac.model import _snapshot_values, residual_array
from monoac.obstacle import ObstacleProblem, brute_force_obstacle
from monoac.presets import make_initial
from monoac.steppers import yosida_rhs

P1 = ModelParams(kappa=1.0)


def zero_field(g):
    return Field(g, np.zeros(g.n_nodes))


class TestConfigValidation:
    def test_cfl_enforced_for_explicit(self):
        g = make_grid(1, (0, 1), 31)
        cfg = SolverConfig(scheme="explicit", dt=2 * cfl_limit(g), t_end=1.0)
        with pytest.raises(ValueError, match="stability"):
            cfg.validate(g, P1)

    def test_cfl_boundary_accepted(self):
        g = make_grid(1, (0, 1), 31)
        dt = cfl_limit(g)
        SolverConfig(scheme="explicit", dt=dt, t_end=1024 * dt).validate(g, P1)

    def test_fully_implicit_needs_small_dt(self):
        g = make_grid(1, (0, 1), 15)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=1.5, t_end=3.0,
                           splitting="fully_implicit")
        with pytest.raises(ValueError, match="1/kappa"):
            cfg.validate(g, P1)

    def test_non_integer_horizon_rejected(self):
        g = make_grid(1, (0, 1), 15)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.3, t_end=1.0)
        with pytest.raises(ValueError, match="integer"):
            cfg.validate(g, P1)

    def test_unknown_scheme_rejected(self):
        g = make_grid(1, (0, 1), 15)
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(scheme="leapfrog", dt=0.1, t_end=1.0).validate(g, P1)


class TestExplicitStep:
    def test_supersolution_is_fixed_point(self):
        g = make_grid(1, (0, 1), 63)
        u = make_initial("supersolution", g, P1)
        out = step_explicit(g, u, P1, cfl_limit(g) / 2)
        np.testing.assert_array_equal(out.values, u.values)

    def test_zero_stays_zero(self):
        g = make_grid(1, (0, 1), 63)
        out = step_explicit(g, zero_field(g), P1, cfl_limit(g) / 2)
        assert np.all(out.values == 0.0)

    def test_hand_evaluation_n3(self):
        g = make_grid(1, (0, 1), 3)
        vals = np.array([0.1, 0.2, 0.1])
        dt = g.h[0] ** 2 / 4
        h2 = g.h[0] ** 2
        lap = np.array([(0 - 0.2 + 0.2) / h2, (0.1 - 0.4 + 0.1) / h2, (0.2 - 0.2 + 0) / h2])
        r = lap - vals**3 + vals
        expected = vals + dt * np.maximum(r, 0.0)
        out = step_explicit(g, Field(g, vals), P1, dt)
        np.testing.assert_allclose(out.values, expected, rtol=1e-14)

    def test_never_decreases(self):
        g = make_grid(1, (-1, 1), 41)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = Field(g, rng.normal(size=41))
            out = step_explicit(g, u, P1, cfl_limit(g) / 2)
            assert np.min(out.values - u.values) >= 0.0

    def test_cfl_violation_rejected(self):
        g = make_grid(1, (0, 1), 31)
        with pytest.raises(ValueError, match="stability"):
            step_explicit(g, zero_field(g), P1, 3 * cfl_limit(g))


class TestImplicitStep:
    def test_supersolution_is_fixed_point_with_residual_multiplier(self):
        g = make_grid(1, (0, 1), 31)
        u = make_initial("supersolution", g, P1)
        nxt, eta = step_implicit_obstacle(g, u, P1, dt=0.05)
        np.testing.assert_array_equal(nxt.values, u.values)
        r = residual_array(g, u.values, P1)
        np.testing.assert_allclose(eta.values, r, atol=1e-12)

    def test_zero_stays_zero(self):
        g = make_grid(1, (0, 1), 31)
        nxt, eta = step_implicit_obstacle(g, zero_field(g), P1, dt=0.05)
        assert np.all(nxt.values == 0.0)
        assert np.all(eta.values == 0.0)

    @pytest.mark.parametrize("splitting", ["convex_split", "fully_implicit"])
    def test_matches_enumeration_oracle(self, splitting):
        rng = np.random.default_rng(17)
        dt = 0.01
        for _ in range(12):
            n = int(rng.integers(2, 13))
            g = make_grid(1, (0, 1), n)
            u_prev = rng.normal(scale=0.5, size=n)
            nxt, eta = step_implicit_obstacle(g, Field(g, u_prev), P1, dt, splitting)
            if splitting == "convex_split":
                prob = ObstacleProblem(grid=g, psi=Field(g, u_prev), a=1 / dt,
                                       b=Field(g, u_prev * (1 / dt + P1.kappa)),
                                       kappa_implicit=False, params=P1)
            else:
                prob = ObstacleProblem(grid=g, psi=Field(g, u_prev), a=1 / dt,
                                       b=Field(g, u_prev / dt),
                                       kappa_implicit=True, params=P1)
            ub, eb = brute_force_obstacle(prob)
            assert np.max(np.abs(nxt.values - ub.values)) <= 1e-10
            assert np.max(np.abs(eta.values - eb.values)) <= 1e-8

    def test_complementarity_exactness(self):
        g = make_grid(1, (-1, 1), 63)
        u0 = make_initial("abs_edge", g, P1)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.02, t_end=1.0,
                           snapshot_stride=1)
        traj = run(g, u0, P1, cfg)
        for k, eta in enumerate(traj.multipliers):
            gap = traj.snapshots[k + 1].values - traj.snapshots[k].values
            assert np.max(eta.values) <= 1e-12
            assert np.max(np.abs(np.minimum(gap, -eta.values))) <= 10 * cfg.pgs_tol

    def test_fully_implicit_dt_guard(self):
        g = make_grid(1, (0, 1), 15)
        with pytest.raises(ValueError, match="1/kappa"):
            step_implicit_obstacle(g, zero_field(g), P1, dt=2.0,
                                   splitting="fully_implicit")


class TestResolvent:
    def test_zero_maps_to_zero(self):
        g = make_grid(1, (0, 1), 31)
        out = resolvent_jlambda(g, zero_field(g), lam=0.1)
        assert np.all(out.values == 0.0)

    def test_identity_limit(self):
        g = make_grid(1, (0, 1), 31)
        v = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.5)
        dists = []
        for lam in (1e-1, 1e-2, 1e-3):
            w = resolvent_jlambda(g, v, lam)
            dists.append(norm_lp(g, Field(g, w.values - v.values), 2))
        assert dists[0] > dists[1] > dists[2]

    def test_nonexpansive(self):
        g = make_grid(1, (0, 1), 21)
        rng = np.random.default_rng(5)
        for lam in (0.5, 0.05):
            for _ in range(8):
                u = Field(g, rng.normal(size=21))
                v = Field(g, rng.normal(size=21))
                ju = resolvent_jlambda(g, u, lam)
                jv = resolvent_jlambda(g, v, lam)
                lhs = norm_lp(g, Field(g, ju.values - jv.values), 2)
                rhs = norm_lp(g, Field(g, u.values - v.values), 2)
                assert lhs <= rhs + 1e-12

    def test_positive_lambda_required(self):
        g = make_grid(1, (0, 1), 5)
        with pytest.raises(ValueError, match="lam"):
            resolvent_jlambda(g, zero_field(g), lam=0.0)


class TestYosidaStep:
    def test_zero_stays_zero(self):
        g = make_grid(1, (0, 1), 31)
        out = step_yosida(g, zero_field(g), P1, cfl_limit(g) / 2, lam=1e-2)
        assert np.all(out.values == 0.0)

    def test_monotone(self):
        g = make_grid(1, (-1, 1), 31)
        rng = np.random.default_rng(8)
        for _ in range(6):
            u = Field(g, rng.normal(scale=0.5, size=31))
            out = step_yosida(g, u, P1, cfl_limit(g) / 2, lam=1e-2)
            assert np.min(out.values - u.values) >= 0.0

    def test_rate_consistent_with_unregularized_rhs(self):
        g = make_grid(1, (0, 1), 63)
        u = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        target = np.maximum(residual_array(g, u.values, P1), 0.0)
        gaps = []
        for lam in (1e-1, 1e-2, 1e-3):
            rate = yosida_rhs(g, u, P1, lam)
            gaps.append(norm_lp(g, Field(g, rate.values - target), 2))
        assert gaps[0] > gaps[1] > gaps[2]


class TestRun:
    def test_zero_data_constant_zero(self):
        g = make_grid(1, (0, 1), 31)
        for scheme in ("explicit", "implicit_obstacle", "yosida"):
            dt = cfl_limit(g) / 2 if scheme != "implicit_obstacle" else 0.05
            cfg = SolverConfig(scheme=scheme, dt=dt, t_end=64 * dt, snapshot_stride=16)
            traj = run(g, zero_field(g), P1, cfg)
            assert np.all(traj.series("E") == 0.0)
            assert all(np.all(s.values == 0.0) for s in traj.snapshots)

    def test_supersolution_stationary_all_schemes(self):
        g = make_grid(1, (0, 1), 63)
        u0 = make_initial("supersolution", g, P1)
        for scheme, extra in [("explicit", {}), ("implicit_obstacle", {}),
                              ("yosida", {"yosida_lambda": 1e-3})]:
            dt = cfl_limit(g) / 2 if scheme != "implicit_obstacle" else 0.05
            cfg = SolverConfig(scheme=scheme, dt=dt, t_end=256 * dt if scheme != "implicit_obstacle" else 1.0,
                               snapshot_stride=64, **extra)
            traj = run(g, u0, P1, cfg)
            dev = max(float(np.max(np.abs(s.values - u0.values))) for s in traj.snapshots)
            assert dev <= 1e-8

    def test_trajectory_times_and_irreversibility(self):
        g = make_grid(1, (-1, 1), 63)
        u0 = make_initial("abs_edge", g, P1)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=1.0, snapshot_stride=10)
        traj = run(g, u0, P1, cfg)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0.0)
        assert np.min(traj.step_min_increment) >= -1e-12
        assert np.min(traj.obstacle_gap_min) >= -1e-12
        assert traj.snapshot_times[0] == 0.0 and traj.snapshot_times[-1] == 1.0

    def test_energy_monotone_implicit_any_dt(self):
        g = make_grid(1, (-1, 1), 63)
        u0 = make_initial("abs_edge", g, P1)
        for dt in (0.1, 0.01):
            cfg = SolverConfig(scheme="implicit_obstacle", dt=dt, t_end=2.0,
                               snapshot_stride=1000)
            traj = run(g, u0, P1, cfg)
            assert np.max(np.diff(traj.series("E"))) <= 1e-12

    def test_eta_diagnostic_is_scheme_independent_form(self):
        g = make_grid(1, (-1, 1), 31)
        u0 = make_initial("abs_edge", g, P1)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.05, t_end=0.5, snapshot_stride=1)
        traj = run(g, u0, P1, cfg)
        w = g.cell_volume
        for k, s in enumerate(traj.snapshots):
            eta = np.minimum(residual_array(g, s.values, P1), 0.0)
            assert traj.series("eta_l2")[k] == pytest.approx(
                np.sqrt(w * np.sum(eta**2)), abs=1e-12)
        assert traj.eta_hat_gap_l2 is not None
        assert np.all(np.isfinite(traj.eta_hat_gap_l2))

    @pytest.mark.parametrize("scheme", ["explicit", "yosida", "implicit_obstacle"])
    def test_diagnostics_are_those_of_the_recorded_states(self, scheme):
        # yosida's residuals are taken per flush block, the others' per step
        g = make_grid(1, (-1, 1), 31)
        members = [make_initial("zero", g, P1)] + ensemble_members(g)
        for traj in run(g, members, P1, scheme_config(g, scheme, n_steps=20, stride=1)):
            for k, s in enumerate(traj.snapshots):
                r = residual_array(g, s.values, P1)
                assert traj.res_l2sq[k] == g.cell_volume * np.sum(r * r)
                assert traj.diag[k].tobytes() == _snapshot_values(
                    g, s.values, P1, traj.times[k]).tobytes()

    def test_energy_identity_defect_halves_with_dt(self):
        g = make_grid(1, (-1, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.0, width=0.6, height=0.4)
        for scheme, extra in [("explicit", {}), ("yosida", {"yosida_lambda": 1e-2})]:
            defects = []
            for level in range(3):
                dt = cfl_limit(g) / 2 / 2**level
                cfg = SolverConfig(scheme=scheme, dt=dt, t_end=dt * 64 * 2**level,
                                   snapshot_stride=10**9, **extra)
                traj = run(g, u0, P1, cfg)
                d = np.abs(np.diff(traj.series("E")) + dt * traj.du_dt_l2**2)
                defects.append(float(np.max(d)))
            assert defects[1] <= 0.6 * defects[0]
            assert defects[2] <= 0.6 * defects[1]

    def test_scheme_cross_validation_first_order(self):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        t_star = 0.1
        dt_exp = cfl_limit(g) / 2
        steps = int(round(t_star / dt_exp))
        cfg_e = SolverConfig(scheme="explicit", dt=dt_exp, t_end=steps * dt_exp,
                             snapshot_stride=steps)
        ref = run(g, u0, P1, cfg_e).final_state()
        errs = []
        for dt in (0.01, 0.005):
            cfg_i = SolverConfig(scheme="implicit_obstacle", dt=dt, t_end=t_star,
                                 snapshot_stride=int(t_star / dt))
            approx = run(g, u0, P1, cfg_i).final_state()
            errs.append(norm_lp(g, Field(g, approx.values - ref.values), 2))
        assert errs[1] <= 0.75 * errs[0] + 1e-9

    def test_solver_failure_keeps_partial_trajectory(self):
        g = make_grid(1, (-1, 1), 63)
        u0 = make_initial("abs_edge", g, P1)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.05, t_end=1.0,
                           newton_tol=1e-16, newton_max_iter=1, pgs_tol=1e-16,
                           pgs_max_iter=2, snapshot_stride=1)
        with pytest.raises(SolverError) as info:
            run(g, u0, P1, cfg)
        partial = info.value.trajectory
        assert partial is not None
        assert partial.failure is not None
        assert partial.failure["step"] == 0


SERIES = ("diag", "res_l2sq", "obstacle_gap_min", "du_dt_l2", "step_min_increment")


def ensemble_members(g):
    return [make_initial("bump", g, P1, center=0.1, width=0.6, height=0.4),
            make_initial("abs_edge", g, P1),
            make_initial("eigenfunction", g, P1, c=0.7)]


def scheme_config(g, scheme, n_steps=40, stride=7):
    dt = 0.05 if scheme == "implicit_obstacle" else cfl_limit(g) / 2
    return SolverConfig(scheme=scheme, dt=dt, t_end=n_steps * dt, snapshot_stride=stride,
                        yosida_lambda=1e-2)


def assert_same_trajectory(a, b, rtol=1e-13):
    for name in SERIES:
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=rtol, atol=0)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.snapshot_times, b.snapshot_times)
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        np.testing.assert_allclose(sa.values, sb.values, rtol=rtol, atol=0)
    np.testing.assert_array_equal(a.inner_iterations, b.inner_iterations)
    if a.eta_hat_gap_l2 is not None:
        np.testing.assert_allclose(a.eta_hat_gap_l2, b.eta_hat_gap_l2, rtol=rtol, atol=0)
        for ma, mb in zip(a.multipliers, b.multipliers):
            np.testing.assert_allclose(ma.values, mb.values, rtol=rtol, atol=0)


class TestEnsembleRun:
    @pytest.mark.parametrize("scheme", ["explicit", "yosida", "implicit_obstacle"])
    def test_members_match_single_runs(self, scheme):
        g = make_grid(1, (-1, 1), 31)
        members = ensemble_members(g)
        cfg = scheme_config(g, scheme)
        trajs = run(g, members, P1, cfg)
        assert len(trajs) == len(members)
        for u0, traj in zip(members, trajs):
            assert traj.u0 is u0
            assert_same_trajectory(traj, run(g, u0, P1, cfg))

    @pytest.mark.parametrize("block", [1, 7])
    def test_diagnostics_block_size_does_not_change_results(self, monkeypatch, block):
        g = make_grid(1, (-1, 1), 31)
        members = ensemble_members(g)
        cfg = scheme_config(g, "explicit", n_steps=50)  # 51 recorded states
        reference = run(g, members, P1, cfg)
        monkeypatch.setattr(steppers, "DIAG_BLOCK", block)
        for a, b in zip(run(g, members, P1, cfg), reference):
            assert_same_trajectory(a, b, rtol=0)

    def test_nonfinite_member_reports_flushed_partial(self, monkeypatch):
        g = make_grid(1, (-1, 1), 31)
        members = ensemble_members(g)
        cfg = scheme_config(g, "explicit")
        reference = run(g, members[1], P1, cfg)
        real = steppers.residual_array
        calls = []

        def poisoned(grid, v, p):
            r = real(grid, v, p)
            calls.append(None)
            if len(calls) == 11:  # the residual of step 10
                r[1, 5] = np.inf
            return r

        monkeypatch.setattr(steppers, "DIAG_BLOCK", 4)  # step 10 sits inside a block
        monkeypatch.setattr(steppers, "residual_array", poisoned)
        with pytest.raises(SolverError, match="member 1") as info:
            run(g, members, P1, cfg)
        partial = info.value.trajectory
        assert partial.failure == {"step": 10, "message": "non-finite state"}
        assert partial.diag.shape == (11, reference.diag.shape[1])
        assert partial.du_dt_l2.shape == (10,)
        assert np.all(np.isfinite(partial.diag))
        np.testing.assert_array_equal(partial.diag[:10], reference.diag[:10])
        np.testing.assert_array_equal(partial.res_l2sq[:10], reference.res_l2sq[:10])
        np.testing.assert_array_equal(partial.obstacle_gap_min, reference.obstacle_gap_min[:11])
        np.testing.assert_array_equal(partial.du_dt_l2, reference.du_dt_l2[:10])

    @pytest.mark.parametrize("scheme", ["explicit", "implicit_obstacle"])
    def test_2d_ensemble_of_two(self, scheme):
        g = make_grid(2, ((-1, 1), (-1, 1)), (15, 11))
        members = [make_initial("bump", g, P1, center=[0.0, 0.1], width=[0.6, 0.5], height=0.4),
                   make_initial("eigenfunction", g, P1, c=0.5)]
        cfg = scheme_config(g, scheme, n_steps=12, stride=4)
        for u0, traj in zip(members, run(g, members, P1, cfg)):
            assert_same_trajectory(traj, run(g, u0, P1, cfg))

    def test_single_field_returns_one_trajectory(self):
        g = make_grid(1, (-1, 1), 15)
        cfg = scheme_config(g, "explicit", n_steps=4)
        u0 = make_initial("abs_edge", g, P1)
        assert isinstance(run(g, u0, P1, cfg), steppers.Trajectory)
        assert len(run(g, [u0], P1, cfg)) == 1
        with pytest.raises(ValueError, match="empty"):
            run(g, [], P1, cfg)


TRAJECTORY_ARRAYS = ("times", "diag", "res_l2sq", "obstacle_gap_min", "du_dt_l2",
                     "step_min_increment", "inner_iterations", "snapshot_times",
                     "eta_hat_gap_l2")


def assert_bitwise(a, b):
    """Every array of two trajectories equal bit for bit, snapshots and multipliers too."""
    def same(x, y):
        x, y = np.asarray(x), np.asarray(y)
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()

    for name in TRAJECTORY_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            same(x, y)
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        same(sa.values, sb.values)
    assert (a.multipliers is None) == (b.multipliers is None)
    if a.multipliers is not None:
        assert len(a.multipliers) == len(b.multipliers) == len(a.snapshots) - 1
        for ma, mb in zip(a.multipliers, b.multipliers):
            same(ma.values, mb.values)
    assert a.failure == b.failure


LAMBDAS = (1e-1, 1e-2, 1e-3)


def lambda_configs(g, n_steps=64, stride=16, **extra):
    dt = cfl_limit(g) / 2
    return [SolverConfig(scheme="yosida", dt=dt, t_end=n_steps * dt, snapshot_stride=stride,
                         yosida_lambda=lam, **extra) for lam in LAMBDAS]


def poison_solves(monkeypatch, lam, step):
    """From `step` on, the resolvent's linear solves return NaN for the row at lam.

    The row is told by its diagonal 1/lam + 3 w^2; steps are counted by the one
    _resolvent_raw call that a yosida step makes, in the list returned.
    """
    real_resolvent, real_solve = steppers._resolvent_raw, steppers.solve_shifted
    states = []

    def counting_resolvent(*args, **kwargs):
        states.append(None)
        return real_resolvent(*args, **kwargs)

    def poisoned(grid, diag, rhs, *args, **kwargs):
        x = real_solve(grid, diag, rhs, *args, **kwargs)
        if len(states) > step:
            x[np.abs(diag[:, 0] * lam - 1.0) < 0.1] = np.nan
        return x

    monkeypatch.setattr(steppers, "_resolvent_raw", counting_resolvent)
    monkeypatch.setattr(steppers, "solve_shifted", poisoned)
    return states


class TestLambdaEnsemble:
    def test_members_match_single_runs(self):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        cfgs = lambda_configs(g)
        trajs = run(g, [u0] * len(cfgs), P1, cfgs)
        for cfg, traj in zip(cfgs, trajs):
            assert traj.config is cfg
            assert_bitwise(traj, run(g, u0, P1, cfg))

    def test_mixed_data_and_lambdas_match_single_runs(self):
        g = make_grid(1, (-1, 1), 31)
        members = ensemble_members(g)
        cfgs = lambda_configs(g, n_steps=40, stride=7)
        for u0, cfg, traj in zip(members, cfgs, run(g, members, P1, cfgs)):
            assert_bitwise(traj, run(g, u0, P1, cfg))

    @pytest.mark.parametrize("change", [{"dt": 1e-4}, {"newton_tol": 1e-9},
                                        {"snapshot_stride": 3}, {"scheme": "explicit"}])
    def test_configs_differing_beyond_lambda_rejected(self, change):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        cfgs = lambda_configs(g)
        cfgs[1] = replace(cfgs[1], **change)
        with pytest.raises(ValueError, match="yosida_lambda only"):
            run(g, [u0] * 3, P1, cfgs)

    def test_config_count_must_match_members(self):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        with pytest.raises(ValueError, match="yosida_lambda only"):
            run(g, [u0, u0], P1, lambda_configs(g))

    def test_member_resolvent_failure_names_member_and_keeps_partial(self, monkeypatch):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        cfgs = lambda_configs(g)
        reference = run(g, u0, P1, cfgs[1])
        poison_solves(monkeypatch, LAMBDAS[1], step=9)
        with pytest.raises(SolverError, match=r"^member 1: resolvent Newton line search") as info:
            run(g, [u0] * 3, P1, cfgs)
        partial = info.value.trajectory
        assert partial.config is cfgs[1]
        assert partial.failure == {"step": 9,
                                   "message": "resolvent Newton line search exhausted"}
        assert partial.n_steps() == 9
        for name in ("diag", "res_l2sq", "obstacle_gap_min"):
            np.testing.assert_array_equal(getattr(partial, name),
                                          getattr(reference, name)[:10])
        for name in ("du_dt_l2", "step_min_increment"):
            np.testing.assert_array_equal(getattr(partial, name), getattr(reference, name)[:9])

    def test_member_resolvent_failure_exits_7_from_sweep(self, monkeypatch, tmp_path, capsys):
        dt = (1.0 / 32.0) ** 2 / 4.0
        doc = {
            "kind": "yosida_lambda",
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "initial": {"preset": "bump", "center": 0.5, "width": 0.3, "height": 0.4},
            "base_solver": {"dt": dt, "t_end": 64 * dt, "snapshot_stride": 16},
            "reference_solver": {"dt": 16 * dt, "t_end": 64 * dt, "snapshot_stride": 1},
            "lambdas": list(LAMBDAS),
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        poison_solves(monkeypatch, LAMBDAS[2], step=5)
        assert main(["sweep", "--config", str(path), "--quiet"]) == 7
        assert "member 2: resolvent Newton" in capsys.readouterr().err

    def test_stepping_goes_through_the_traced_names(self, monkeypatch):
        # the benchmark's per-layer view wraps these two names: stepping must call them
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        cfgs = lambda_configs(g, n_steps=20)
        calls = {"_resolvent_raw": 0, "solve_shifted": 0}
        for name in calls:
            real = getattr(steppers, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(steppers, name, counted)
        run(g, [u0] * 3, P1, cfgs)
        assert calls["_resolvent_raw"] == 20  # one batched call per step for all members
        assert calls["solve_shifted"] >= 20


def counting(monkeypatch, module, name, calls):
    """Wrap module.name so that each call appends to calls."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestCarriedResolvent:
    """A yosida step carries the resolvent's image w + lam*(w^3 - lap w) to the next one."""

    def test_stencils_are_newton_iterates_and_flush_blocks(self, monkeypatch):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        laps, solves, flushes = [], [], []
        for module in (steppers, model):
            counting(monkeypatch, module, "lap_array", laps)
        counting(monkeypatch, steppers, "solve_shifted", solves)
        counting(monkeypatch, steppers, "_snapshot_values", flushes)
        monkeypatch.setattr(steppers, "DIAG_BLOCK", 16)  # 65 states: 5 blocks
        run(g, [u0] * 3, P1, lambda_configs(g, n_steps=64))
        assert len(flushes) == 5
        assert len(solves) >= 64  # each step iterates at least once
        # one stencil per Newton iterate (one solve each: no line-search halving here),
        # one per flush block, and the first step's image of its warm start
        assert len(laps) == len(solves) + len(flushes) + 1

    def test_every_solve_meets_tol_on_a_fresh_residual(self, monkeypatch):
        g = make_grid(1, (-1, 1), 31)
        members = ensemble_members(g)  # the eigenfunction freezes at step 1
        cfgs = lambda_configs(g, n_steps=200)
        real = steppers._resolvent_raw
        checked = []

        def image(w, lam):  # _resolvent_raw's operation order
            out = w * w * w - steppers.lap_array(g, w)
            out *= lam
            out += w
            return out

        def checking(grid, v, lam, tol, max_iter, w0=None, tw0=None):
            w, tw = real(grid, v, lam, tol, max_iter, w0, tw0)
            fresh = image(w, lam)
            assert tw.tobytes() == fresh.tobytes()
            assert np.all(np.max(np.abs(fresh - v), axis=-1) <= tol)
            if tw0 is not None:  # the carried residual of the warm start against v
                carried, fresh0 = tw0 - v, image(w0, lam) - v
                assert np.max(np.abs(carried - fresh0)) <= 1e-14 * (1.0 + np.max(np.abs(v)))
            checked.append(tw0 is not None)
            return w, tw

        monkeypatch.setattr(steppers, "_resolvent_raw", checking)
        run(g, members, P1, cfgs)
        assert checked == [False] + [True] * 199

    def test_carried_image_changes_no_bit(self, monkeypatch):
        # against solves that evaluate the stencil at every warm start
        g = make_grid(1, (-1, 1), 31)
        members = fixed_point_members(g) + ensemble_members(g)
        cfg = scheme_config(g, "yosida", n_steps=60, stride=1)
        carried = run(g, members, P1, cfg)
        real = steppers._resolvent_raw
        monkeypatch.setattr(steppers, "_resolvent_raw",
                            lambda *args: real(*args[:6]))  # drops the carried image
        for a, b in zip(carried, run(g, members, P1, cfg)):
            assert_bitwise(a, b)


def fast_forward_pair(monkeypatch, g, members, cfg):
    """The same run with fixed points fast-forwarded and with every step taken."""
    fast = run(g, members, P1, cfg)
    monkeypatch.setattr(steppers, "_FAST_FORWARD", False)
    stepped = run(g, members, P1, cfg)
    monkeypatch.setattr(steppers, "_FAST_FORWARD", True)
    return fast, stepped


def fixed_point_members(g):
    return [make_initial("zero", g, P1), make_initial("eigenfunction", g, P1, c=0.7),
            make_initial("supersolution", g, P1, c=1.0)]


class TestFastForward:
    @pytest.mark.parametrize("scheme", ["explicit", "yosida", "implicit_obstacle"])
    def test_fixed_points_equal_stepped_runs(self, monkeypatch, scheme):
        g = make_grid(1, (0, 1), 31)
        cfg = scheme_config(g, scheme, n_steps=50, stride=7)
        for u0 in fixed_point_members(g):
            fast, stepped = fast_forward_pair(monkeypatch, g, u0, cfg)
            assert np.all(stepped.du_dt_l2 == 0.0)
            assert_bitwise(fast, stepped)

    @pytest.mark.parametrize("scheme", ["explicit", "yosida", "implicit_obstacle"])
    def test_mixed_ensemble_equals_stepped_run(self, monkeypatch, scheme):
        g = make_grid(1, (-1, 1), 31)
        members = fixed_point_members(g) + ensemble_members(g)
        cfg = scheme_config(g, scheme, n_steps=40, stride=6)
        for fast, stepped in zip(*fast_forward_pair(monkeypatch, g, members, cfg)):
            assert_bitwise(fast, stepped)

    def test_lambda_ensemble_equals_stepped_run(self, monkeypatch):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("supersolution", g, P1, c=1.0)
        cfgs = lambda_configs(g, n_steps=30, stride=4)
        for fast, stepped in zip(*fast_forward_pair(monkeypatch, g, [u0] * 3, cfgs)):
            assert_bitwise(fast, stepped)

    def test_member_that_stops_mid_run(self, monkeypatch):
        # implicit steps reach the discrete stationary state exactly in finite time
        g = make_grid(1, (0, 1), 63)
        members = [make_initial("bump", g, P1, center=0.5, width=0.25, height=0.2),
                   make_initial("bump", g, P1, center=0.4, width=0.3, height=0.5)]
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=2.0, snapshot_stride=7)
        real = steppers._implicit_step
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(steppers, "_implicit_step", counted)
        fast = run(g, members, P1, cfg)
        skipped = 2 * cfg.n_steps() - len(calls)
        monkeypatch.setattr(steppers, "_FAST_FORWARD", False)
        stepped = run(g, members, P1, cfg)
        for a, b in zip(fast, stepped):
            moving = np.flatnonzero(b.du_dt_l2)
            assert 0 < moving[-1] < cfg.n_steps() - 1  # it stops moving mid-run
            assert_bitwise(a, b)
        assert skipped == sum(cfg.n_steps() - 2 - np.flatnonzero(b.du_dt_l2)[-1]
                              for b in stepped)

    def test_all_frozen_run_steps_once(self, monkeypatch):
        g = make_grid(1, (0, 1), 63)
        calls = []
        real = steppers.residual_array

        def counted(grid, v, p):
            calls.append(None)
            return real(grid, v, p)

        monkeypatch.setattr(steppers, "residual_array", counted)
        dt = cfl_limit(g) / 2
        cfg = SolverConfig(scheme="explicit", dt=dt, t_end=1000 * dt, snapshot_stride=300)
        trajs = run(g, fixed_point_members(g), P1, cfg)
        assert len(calls) == 2  # the first step, then the state it left unchanged
        for traj, u0 in zip(trajs, fixed_point_members(g)):
            np.testing.assert_array_equal(traj.snapshot_times, cfg.dt * np.array(
                [0, 300, 600, 900, 1000]))
            assert all(np.array_equal(s.values, u0.values) for s in traj.snapshots)

    @pytest.mark.parametrize("scheme", ["explicit", "yosida", "implicit_obstacle"])
    def test_failure_after_a_freeze(self, monkeypatch, scheme):
        # member 0 freezes after its first step, member 1 fails at step 10
        g = make_grid(1, (-1, 1), 31)
        members = [make_initial("zero", g, P1),
                   make_initial("bump", g, P1, center=0.1, width=0.6, height=0.4)]
        cfg = scheme_config(g, scheme, n_steps=30, stride=4)
        real_residual, real_implicit = steppers.residual_array, steppers._implicit_step
        states = []
        if scheme == "yosida":  # poisons the solves from step 10 and counts the steps
            states = poison_solves(monkeypatch, cfg.yosida_lambda, step=10)

        def counting_residual(grid, v, p):
            states.append(None)
            r = real_residual(grid, v, p)
            if scheme == "explicit" and len(states) == 11:  # the residual of step 10
                r[np.any(v != 0.0, axis=-1), 5] = np.inf
            return r

        def failing_implicit(grid, u_prev, *args, **kwargs):
            if np.any(u_prev != 0.0):  # the moving member's steps
                states.append(None)
                if len(states) == 11:  # its step 10
                    raise SolverError("implicit step failed: forced")
            return real_implicit(grid, u_prev, *args, **kwargs)

        if scheme == "explicit":
            monkeypatch.setattr(steppers, "residual_array", counting_residual)
        monkeypatch.setattr(steppers, "_implicit_step", failing_implicit)
        partials = []
        for fast_forward in (True, False):
            states.clear()
            monkeypatch.setattr(steppers, "_FAST_FORWARD", fast_forward)
            with pytest.raises(SolverError, match="^member 1: ") as info:
                run(g, members, P1, cfg)
            partials.append(info.value.trajectory)
        assert partials[0].failure["step"] == 10
        assert_bitwise(*partials)


def one_step_config(g, scheme, dt):
    return SolverConfig(scheme=scheme, dt=dt, t_end=dt, snapshot_stride=1, yosida_lambda=1e-2)


GRIDS = {"1d": lambda: make_grid(1, (-1, 1), 31),
         "2d": lambda: make_grid(2, ((-1, 1), (-1, 1)), (15, 11))}


def bump_on(g):
    if g.dim == 1:
        return make_initial("bump", g, P1, center=0.1, width=0.6, height=0.4)
    return make_initial("bump", g, P1, center=[0.0, 0.1], width=[0.6, 0.5], height=0.4)


class TestPublicStepsAreRawSteps:
    """Each public step equals one step of run() bit for bit."""

    @pytest.mark.parametrize("dim", GRIDS)
    def test_explicit(self, dim):
        g = GRIDS[dim]()
        u0, dt = bump_on(g), cfl_limit(g) / 2
        traj = run(g, u0, P1, one_step_config(g, "explicit", dt))
        assert step_explicit(g, u0, P1, dt).values.tobytes() == traj.snapshots[1].values.tobytes()

    @pytest.mark.parametrize("dim", GRIDS)
    def test_yosida_and_its_rate_and_resolvent(self, dim):
        g = GRIDS[dim]()
        u0, dt, lam = bump_on(g), cfl_limit(g) / 2, 1e-2
        traj = run(g, u0, P1, one_step_config(g, "yosida", dt))
        stepped = step_yosida(g, u0, P1, dt, lam).values
        assert stepped.tobytes() == traj.snapshots[1].values.tobytes()
        rate = yosida_rhs(g, u0, P1, lam).values
        assert (u0.values + dt * rate).tobytes() == stepped.tobytes()
        w = resolvent_jlambda(g, u0, lam).values
        assert np.maximum(P1.kappa * u0.values - (u0.values - w) / lam, 0.0).tobytes() \
            == rate.tobytes()

    @pytest.mark.parametrize("dim", GRIDS)
    def test_implicit_obstacle(self, dim):
        g = GRIDS[dim]()
        u0 = bump_on(g)
        traj = run(g, u0, P1, one_step_config(g, "implicit_obstacle", 0.05))
        u1, eta = step_implicit_obstacle(g, u0, P1, 0.05)
        assert u1.values.tobytes() == traj.snapshots[1].values.tobytes()
        assert eta.values.tobytes() == traj.multipliers[0].values.tobytes()


class TestPublicStepsCheckDt:
    @pytest.mark.parametrize("dt", [-1e-3, 0.0, np.nan, np.inf])
    def test_bad_dt_rejected_naming_dt(self, dt):
        g = make_grid(1, (-1, 1), 31)
        u = bump_on(g)
        for step in (lambda: step_explicit(g, u, P1, dt),
                     lambda: step_yosida(g, u, P1, dt, lam=1e-2),
                     lambda: step_implicit_obstacle(g, u, P1, dt)):
            with pytest.raises(ValueError, match="^dt"):
                step()

    def test_yosida_cfl_violation_rejected(self):
        g = make_grid(1, (0, 1), 31)
        with pytest.raises(ValueError, match="^dt=.*stability"):
            step_yosida(g, zero_field(g), P1, 3 * cfl_limit(g), lam=1e-2)

    def test_iteration_budgets_must_be_positive_integers(self):
        g = make_grid(1, (0, 1), 15)
        for key in ("newton_max_iter", "pgs_max_iter"):
            for value in (2.5, "abc", 0, -3, True):
                cfg = SolverConfig(scheme="implicit_obstacle", dt=0.1, t_end=1.0, **{key: value})
                with pytest.raises(ValueError, match=f"^{key} must be an integer"):
                    cfg.validate(g, P1)
            SolverConfig(scheme="implicit_obstacle", dt=0.1, t_end=1.0,
                         **{key: np.int64(3)}).validate(g, P1)


def runs_by_block(monkeypatch, g, members, cfg, blocks=(1, 7, steppers.DIAG_BLOCK)):
    """The same run with the diagnostics flushed every `block` states, for each block."""
    runs = []
    for block in blocks:
        monkeypatch.setattr(steppers, "DIAG_BLOCK", block)
        runs.append(run(g, members, P1, cfg))
    return runs


class TestFlushPath:
    @pytest.mark.parametrize("scheme", ["yosida", "implicit_obstacle"])
    def test_block_size_does_not_change_results(self, monkeypatch, scheme):
        g = make_grid(1, (-1, 1), 31)
        members = [make_initial("zero", g, P1)] + ensemble_members(g)  # zero freezes at step 1
        cfg = scheme_config(g, scheme, n_steps=30, stride=7)
        for same in zip(*runs_by_block(monkeypatch, g, members, cfg)):
            for traj in same[1:]:
                assert_bitwise(traj, same[0])

    @pytest.mark.parametrize("scheme", ["explicit", "yosida", "implicit_obstacle"])
    def test_block_size_does_not_change_2d_ensemble(self, monkeypatch, scheme):
        g = GRIDS["2d"]()
        members = [bump_on(g), make_initial("eigenfunction", g, P1, c=0.5)]
        cfg = scheme_config(g, scheme, n_steps=12, stride=4)
        for same in zip(*runs_by_block(monkeypatch, g, members, cfg)):
            for traj in same[1:]:
                assert_bitwise(traj, same[0])

    def test_freeze_inside_a_block(self, monkeypatch):
        g = make_grid(1, (0, 1), 63)
        members = [make_initial("bump", g, P1, center=0.5, width=0.25, height=0.2),
                   make_initial("bump", g, P1, center=0.4, width=0.3, height=0.5)]
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=1.0, snapshot_stride=7)
        monkeypatch.setattr(steppers, "_FAST_FORWARD", False)
        stepped = run(g, members, P1, cfg)
        monkeypatch.setattr(steppers, "_FAST_FORWARD", True)
        # the first step that moves no node; the member freezes after recording the state
        # that step leads to, while 7-state blocks hold states 7j .. 7j + 6
        stops = [int(np.flatnonzero(t.du_dt_l2)[-1]) + 1 for t in stepped]
        assert min(stops) < cfg.n_steps() - 1
        block = next(b for b in (7, 5, 3) if (min(stops) + 2) % b)
        for fast, slow in zip(runs_by_block(monkeypatch, g, members, cfg, (block,))[0], stepped):
            assert_bitwise(fast, slow)

    def test_nonfinite_yosida_member_inside_a_block(self, monkeypatch):
        g = make_grid(1, (-1, 1), 31)
        members = ensemble_members(g)  # the eigenfunction freezes at step 1
        cfg = scheme_config(g, "yosida")
        reference = run(g, members[1], P1, cfg)
        real = steppers._resolvent_raw
        calls = []

        def poisoned(grid, v, lam, *args, **kwargs):
            w, tw = real(grid, v, lam, *args, **kwargs)
            calls.append(None)
            if len(calls) == 11:  # the resolvent of step 10; row 1 is member 1
                w[1, 5] = np.inf
            return w, tw

        monkeypatch.setattr(steppers, "DIAG_BLOCK", 4)  # step 10 sits inside a block
        monkeypatch.setattr(steppers, "_resolvent_raw", poisoned)
        with pytest.raises(SolverError, match="^member 1: state left the finite range at "
                                              "step 10") as info:
            run(g, members, P1, cfg)
        partial = info.value.trajectory
        assert partial.failure == {"step": 10, "message": "non-finite state"}
        for name in ("diag", "res_l2sq", "obstacle_gap_min"):
            assert getattr(partial, name).tobytes() == getattr(reference, name)[:11].tobytes()
        for name in ("du_dt_l2", "step_min_increment", "inner_iterations"):
            assert getattr(partial, name).tobytes() == getattr(reference, name)[:10].tobytes()
        assert partial.snapshot_times.tolist() == reference.snapshot_times[:2].tolist()

    def test_implicit_residuals_are_taken_per_flush_block(self, monkeypatch):
        g = make_grid(1, (-1, 1), 31)
        residuals, flushes = [], []
        counting(monkeypatch, steppers, "residual_array", residuals)
        counting(monkeypatch, steppers, "_snapshot_values", flushes)
        monkeypatch.setattr(steppers, "DIAG_BLOCK", 8)  # 31 states: 4 blocks
        traj = run(g, bump_on(g), P1, scheme_config(g, "implicit_obstacle", n_steps=30))
        assert np.all(traj.du_dt_l2 > 0.0)  # no freeze adds a flush
        assert len(flushes) == 4
        assert len(residuals) == len(flushes)

    def test_implicit_multipliers_on_the_stride(self):
        # multipliers[j] is the multiplier of the step into snapshot j + 1
        g = make_grid(1, (-1, 1), 31)
        members = [make_initial("zero", g, P1)] + ensemble_members(g)  # zero freezes at step 1
        strided = run(g, members, P1, scheme_config(g, "implicit_obstacle", n_steps=30, stride=7))
        every = run(g, members, P1, scheme_config(g, "implicit_obstacle", n_steps=30, stride=1))
        steps = [7, 14, 21, 28, 30]
        for a, b in zip(strided, every):
            np.testing.assert_array_equal(a.snapshot_times[1:], b.times[steps])
            assert len(a.multipliers) == len(a.snapshots) - 1
            for k, eta in zip(steps, a.multipliers, strict=True):
                assert eta.values.tobytes() == b.multipliers[k - 1].values.tobytes()
        frozen = strided[0].multipliers  # shared by every snapshot after the freeze, not copied
        assert all(eta is frozen[0] for eta in frozen)

    def test_implicit_gap_is_each_step_multiplier_against_its_state(self):
        g = make_grid(1, (-1, 1), 31)
        members = [make_initial("zero", g, P1)] + ensemble_members(g)
        for traj in run(g, members, P1, scheme_config(g, "implicit_obstacle", n_steps=30,
                                                      stride=1)):
            for k, eta in enumerate(traj.multipliers):
                eta_now = np.minimum(residual_array(g, traj.snapshots[k + 1].values, P1), 0.0)
                gap = np.sqrt(g.cell_volume * np.sum((eta.values - eta_now) ** 2))
                assert traj.eta_hat_gap_l2[k] == gap


def test_family_run_flushes_at_most_80_times_per_6144_steps(monkeypatch):
    # the shape of the benchmark's preset family: 6 rows of 127 nodes, 3 of them fixed
    # points; after they freeze at step 1 the flush block is re-sized to the 3 moving rows
    g = make_grid(1, (-1, 1), 127)
    members = [make_initial("zero", g, P1), make_initial("eigenfunction", g, P1, c=0.7),
               make_initial("supersolution", g, P1, c=1.0), bump_on(g),
               make_initial("abs_edge", g, P1), make_initial("neg_const", g, P1)]
    dt = 2.0**-14
    cfg = SolverConfig(scheme="explicit", dt=dt, t_end=6144 * dt, snapshot_stride=1536)
    real = steppers._snapshot_values
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(steppers, "_snapshot_values", counted)
    trajs = run(g, members, P1, cfg)
    assert [bool(np.any(t.du_dt_l2)) for t in trajs] == [False] * 3 + [True] * 3
    assert len(calls) <= 80
