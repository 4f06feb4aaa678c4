import copy
import inspect
from dataclasses import replace

import numpy as np
import pytest

from monoac import Field, ModelParams, SolverConfig, cfl_limit, make_grid, norm_lp, run
from monoac.diagnostics import (
    SINGLE_TRAJECTORY_CHECKS,
    check_absorbing,
    check_comparison,
    check_dissipation,
    check_energy_decrease,
    check_energy_flux,
    check_eta_monotone,
    check_gradient_flux,
    check_monotone,
    check_range,
    check_smoothing,
    check_yosida_convergence,
    fit_decay_rate,
    run_checks,
    settling_time,
    snapshot_error,
    yosida_sweep,
)
from monoac.presets import make_initial
from monoac.steppers import SolverError

P1 = ModelParams(kappa=1.0)


@pytest.fixture(scope="module")
def abs_edge_traj():
    g = make_grid(1, (-1, 1), 63)
    u0 = make_initial("abs_edge", g, P1)
    cfg = SolverConfig(scheme="implicit_obstacle", dt=0.02, t_end=2.0, snapshot_stride=10)
    return run(g, u0, P1, cfg)


@pytest.fixture(scope="module")
def supersolution_traj():
    g = make_grid(1, (0, 1), 63)
    u0 = make_initial("supersolution", g, P1)
    cfg = SolverConfig(scheme="implicit_obstacle", dt=0.05, t_end=2.0, snapshot_stride=5)
    return run(g, u0, P1, cfg)


@pytest.fixture(scope="module")
def zero_traj():
    g = make_grid(1, (0, 1), 31)
    u0 = make_initial("zero", g, P1)
    cfg = SolverConfig(scheme="implicit_obstacle", dt=0.05, t_end=2.0, snapshot_stride=5)
    return run(g, u0, P1, cfg)


def corrupted(traj):
    clone = copy.copy(traj)
    clone.diag = traj.diag.copy()
    clone.snapshots = [Field(traj.grid, s.values.copy()) for s in traj.snapshots]
    clone.step_min_increment = traj.step_min_increment.copy()
    clone.obstacle_gap_min = traj.obstacle_gap_min.copy()
    clone.du_dt_l2 = traj.du_dt_l2.copy()
    return clone


class TestMonotone:
    def test_passes_on_real_runs(self, abs_edge_traj, zero_traj, supersolution_traj):
        for traj in (abs_edge_traj, zero_traj, supersolution_traj):
            rep = check_monotone(traj)
            assert rep.passed
            assert rep.worst_violation <= 1e-12

    def test_fails_on_decreased_node(self, abs_edge_traj):
        bad = corrupted(abs_edge_traj)
        bad.step_min_increment[3] = -1e-6
        rep = check_monotone(bad)
        assert not rep.passed
        assert rep.location == pytest.approx(float(bad.times[4]))

    def test_snapshot_fallback_detects_decrease(self, abs_edge_traj):
        # the per-step series are intact; only the stored snapshot pairs show it
        bad = corrupted(abs_edge_traj)
        bad.snapshots[5].values[10] -= 1.0
        rep = check_monotone(bad)
        assert not rep.passed
        assert rep.location == pytest.approx(float(bad.snapshot_times[5]))


class TestEnergyDecrease:
    def test_passes_with_defect_reported(self, abs_edge_traj, zero_traj):
        for traj in (abs_edge_traj, zero_traj):
            rep = check_energy_decrease(traj)
            assert rep.passed
            assert "energy_identity_defect_max" in rep.details

    def test_defect_shrinks_with_dt(self):
        g = make_grid(1, (-1, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.0, width=0.6, height=0.4)
        reps = []
        for dt in (0.02, 0.01):
            cfg = SolverConfig(scheme="implicit_obstacle", dt=dt, t_end=0.5,
                               snapshot_stride=100)
            reps.append(check_energy_decrease(run(g, u0, P1, cfg)))
        d0 = reps[0].details["energy_identity_defect_max"]
        d1 = reps[1].details["energy_identity_defect_max"]
        assert d1 <= 0.6 * d0

    def test_fails_on_energy_bump(self, abs_edge_traj):
        bad = corrupted(abs_edge_traj)
        bad.diag[7, 1] = bad.diag[6, 1] + 1e-6
        assert not check_energy_decrease(bad).passed


class TestEtaMonotone:
    def test_supersolution_eta_constant(self, supersolution_traj):
        eta = supersolution_traj.series("eta_l2")
        assert np.all(eta == eta[0])
        assert check_eta_monotone(supersolution_traj).passed

    def test_abs_edge_within_slack(self, abs_edge_traj):
        rep = check_eta_monotone(abs_edge_traj)
        assert rep.passed
        assert rep.details["initial_level"] > 0.0

    def test_fails_on_eta_bump(self, abs_edge_traj):
        bad = corrupted(abs_edge_traj)
        col = 3  # eta_l2 column
        bad.diag[10, col] = bad.diag[9, col] + 1.0
        assert not check_eta_monotone(bad).passed


class TestRange:
    def test_nonpositive_data_stays_below_sqrt_kappa(self, abs_edge_traj):
        rep = check_range(abs_edge_traj)
        assert rep.passed
        assert rep.details["upper_bound"] == 1.0

    def test_bound_arithmetic_uses_data_sup(self):
        g = make_grid(1, (-1, 1), 31)
        u0 = Field(g, np.full(31, -2.0))
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.05, t_end=0.5,
                           snapshot_stride=2)
        traj = run(g, u0, P1, cfg)
        rep = check_range(traj)
        assert rep.details["upper_bound"] == 2.0
        assert rep.passed

    def test_fails_on_overshoot(self, abs_edge_traj):
        bad = corrupted(abs_edge_traj)
        bad.diag[4, 7] = 3.0  # u_linf column
        assert not check_range(bad).passed

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
    def test_nonpositive_upper_tol_refused(self, abs_edge_traj, tol):
        with pytest.raises(ValueError, match="upper_tol"):
            check_range(abs_edge_traj, upper_tol=tol)


class TestComparison:
    def test_identical_data_equal(self, abs_edge_traj):
        rep = check_comparison(abs_edge_traj, abs_edge_traj)
        assert rep.passed and rep.worst_violation == 0.0

    def test_ordered_pair_stays_ordered(self):
        g = make_grid(1, (-1, 1), 63)
        lo = make_initial("abs_edge", g, P1)
        hi = Field(g, np.minimum(lo.values + 0.1, 0.0))
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.02, t_end=1.0, snapshot_stride=5)
        rep = check_comparison(run(g, lo, P1, cfg), run(g, hi, P1, cfg))
        assert rep.passed

    def test_constant_supersolution_dominates(self, abs_edge_traj):
        g = abs_edge_traj.grid
        cap = Field(g, np.full(g.n_nodes, 1.0))  # max(sqrt(kappa), |u0|_inf)
        cfg = abs_edge_traj.config
        hi = run(g, cap, P1, cfg)
        assert float(np.max(np.abs(hi.final_state().values - cap.values))) <= 1e-10
        assert check_comparison(abs_edge_traj, hi).passed

    def test_mismatched_configs_rejected(self, abs_edge_traj, zero_traj):
        with pytest.raises(ValueError, match="matching"):
            check_comparison(abs_edge_traj, zero_traj)

    def test_low_member_raised_at_one_snapshot_fails_there(self, abs_edge_traj):
        lo = copy.copy(abs_edge_traj)
        lo.snapshots = list(abs_edge_traj.snapshots)
        lo.snapshots[3] = Field(lo.grid, lo.snapshots[3].values + 1e-6)
        rep = check_comparison(lo, abs_edge_traj)
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(1e-6)
        assert rep.location == float(abs_edge_traj.snapshot_times[3])

    def test_unordered_initial_data_rejected(self, abs_edge_traj):
        lo = copy.copy(abs_edge_traj)
        lo.u0 = Field(lo.grid, abs_edge_traj.u0.values + 1e-3)
        with pytest.raises(ValueError, match="not ordered"):
            check_comparison(lo, abs_edge_traj)

    def test_disjoint_snapshot_times_rejected(self, abs_edge_traj):
        hi = copy.copy(abs_edge_traj)
        hi.snapshot_times = abs_edge_traj.snapshot_times + 0.01  # half a step: no time matches
        with pytest.raises(ValueError, match="no snapshot times"):
            check_comparison(abs_edge_traj, hi)


class TestDissipation:
    def test_zero_trajectory_trivial(self, zero_traj):
        rep = check_dissipation(zero_traj)
        assert rep.passed
        assert rep.details["c_hat"] == 0.0

    def test_abs_edge_envelope(self, abs_edge_traj):
        rep = check_dissipation(abs_edge_traj)
        assert rep.passed
        assert np.isfinite(rep.details["c_hat"])

    def test_doubled_kappa_doubles_certified_rate(self):
        # the envelope certifies phi decay at rate 2*kappa; doubling kappa
        # therefore halves the certified transient time constant
        g = make_grid(1, (-1, 1), 63)
        for kappa in (1.0, 2.0):
            p = ModelParams(kappa=kappa)
            u0 = make_initial("abs_edge", g, p)
            cfg = SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=3.0,
                               snapshot_stride=50)
            traj = run(g, u0, p, cfg)
            rep = check_dissipation(traj, p)
            assert rep.passed
            phi = traj.series("phi")
            level = rep.details["c_hat"] / (2 * kappa)
            ref = phi[0] - level
            assert ref > 0.0
            gap = phi[1:] - level
            mask = gap / ref > 1e-10
            certified = float(np.min(-np.log(gap[mask] / ref) / traj.times[1:][mask]))
            assert certified >= 2.0 * kappa

    def test_fails_on_super_exponential_rise(self):
        # a series climbing to its own calibrated level faster than exp(-2*kappa*t)
        # decays must violate the envelope
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("zero", g, P1)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.02, t_end=2.0,
                           snapshot_stride=10)
        traj = run(g, u0, P1, cfg)
        bad = corrupted(traj)
        level = 1.0
        k = np.arange(len(bad.times))
        bad.diag[:, 2] = level * (1.0 - (1.0 - 2 * P1.kappa * 0.02) ** k)
        bad.du_dt_l2 = np.zeros(len(bad.times) - 1)
        assert not check_dissipation(bad).passed


class TestFitDecayRate:
    def test_stationary_series_flagged(self, supersolution_traj):
        with pytest.raises(ValueError, match="zero"):
            fit_decay_rate(supersolution_traj, 0.5)

    def test_bump_rate_beats_linearized_bound(self):
        from monoac import sigma_rate
        g = make_grid(1, (0, 1), 63)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.25, height=0.2)
        sigma = sigma_rate(g, u0, P1)
        dt = cfl_limit(g) / 2
        cfg = SolverConfig(scheme="explicit", dt=dt, t_end=8192 * dt,
                           snapshot_stride=2048)
        traj = run(g, u0, P1, cfg)
        rate, info = fit_decay_rate(traj, 0.0, return_details=True)
        assert rate >= 0.85 * sigma
        assert info["points"] >= 10


class TestAbsorbing:
    def test_supersolution_enters_at_time_zero(self, supersolution_traj):
        traj = supersolution_traj
        c_bound = float(np.max(traj.res_l2sq)) + 1.0
        phi_bound = float(np.max(traj.series("phi"))) + 1.0
        rep = check_absorbing([traj], P1, c_bound, phi_bound)
        assert rep.passed
        assert rep.details["entry_times"] == [0.0]

    def test_family_enters_calibrated_box(self, abs_edge_traj, zero_traj):
        trajs = [abs_edge_traj]
        c_bound = float(np.max(abs_edge_traj.res_l2sq[5:])) + 1.0
        phi_bound = float(np.max(abs_edge_traj.series("phi"))) + 1.0
        rep = check_absorbing(trajs, P1, c_bound, phi_bound)
        assert rep.passed
        assert all(np.isfinite(t) for t in rep.details["entry_times"])

    def test_bounds_below_terminal_state_fail(self, abs_edge_traj):
        phi_end = float(abs_edge_traj.series("phi")[-1])
        rep = check_absorbing([abs_edge_traj], P1, c_bound=1e-12,
                              phi_bound=max(phi_end / 2, 1e-12))
        assert not rep.passed


class TestSmoothing:
    def test_smooth_data_small_constant(self, supersolution_traj):
        rep = check_smoothing(supersolution_traj)
        assert rep.passed
        assert rep.details["finite"]

    def test_abs_edge_smoothing_constant_bounded(self):
        g = make_grid(1, (-1, 1), 127)
        u0 = make_initial("abs_edge", g, P1)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.005, t_end=1.0,
                           snapshot_stride=2)
        traj = run(g, u0, P1, cfg)
        rep = check_smoothing(traj)
        assert rep.passed
        assert np.isfinite(rep.details["smoothing_constant"])

    def test_neg_const_boundary_layer(self):
        # data violating the boundary trace: energy still finite and falling after one step
        g = make_grid(1, (-1, 1), 63)
        u0 = make_initial("neg_const", g, P1)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=1.0,
                           snapshot_stride=10)
        traj = run(g, u0, P1, cfg)
        e = traj.series("E")
        assert np.all(np.isfinite(e))
        assert np.max(np.diff(e[1:])) <= 1e-12
        assert check_smoothing(traj).passed


class TestYosidaConvergence:
    def test_zero_data_all_errors_zero(self):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("zero", g, P1)
        dt = cfl_limit(g) / 2
        base = SolverConfig(scheme="yosida", dt=dt, t_end=512 * dt, snapshot_stride=128)
        ref = SolverConfig(scheme="implicit_obstacle", dt=64 * dt, t_end=512 * dt,
                           snapshot_stride=2)
        rep = check_yosida_convergence(g, u0, P1, base, [1e-1, 1e-2, 1e-3],
                                       reference_cfg=ref)
        assert rep.passed
        assert max(rep.details["errors"]) == 0.0

    def test_supersolution_all_errors_zero(self):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("supersolution", g, P1)
        dt = cfl_limit(g) / 2
        base = SolverConfig(scheme="yosida", dt=dt, t_end=512 * dt, snapshot_stride=128)
        ref = SolverConfig(scheme="implicit_obstacle", dt=64 * dt, t_end=512 * dt,
                           snapshot_stride=2)
        rep = check_yosida_convergence(g, u0, P1, base, [1e-1, 1e-2, 1e-3],
                                       reference_cfg=ref)
        assert rep.passed
        assert max(rep.details["errors"]) == 0.0

    def test_snapshot_error_skips_t0_and_unmatched_times(self):
        g = make_grid(1, (0, 1), 15)
        dt = cfl_limit(g) / 2
        ref = run(g, make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4), P1,
                  SolverConfig(scheme="explicit", dt=dt, t_end=16 * dt, snapshot_stride=4))
        traj = run(g, make_initial("eigenfunction", g, P1, c=0.7), P1,
                   SolverConfig(scheme="explicit", dt=dt, t_end=16 * dt, snapshot_stride=8))
        err, matched = snapshot_error(traj, ref)
        assert matched == 2  # t = 8 dt and 16 dt; t = 0 is skipped
        assert err == max(norm_lp(g, Field(g, traj.snapshots[j].values
                                            - ref.snapshots[2 * j].values), 2) for j in (1, 2))

    def test_rejects_unsorted_lambdas(self):
        g = make_grid(1, (0, 1), 15)
        u0 = make_initial("zero", g, P1)
        base = SolverConfig(scheme="yosida", dt=1e-4, t_end=1e-2)
        with pytest.raises(ValueError, match="decreasing"):
            check_yosida_convergence(g, u0, P1, base, [1e-3, 1e-2])


    @staticmethod
    def bump_sweep_setup(n_steps):
        g = make_grid(1, (0, 1), 31)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        dt = (1.0 / 32.0) ** 2 / 4.0
        base = SolverConfig(scheme="yosida", dt=dt, t_end=n_steps * dt, snapshot_stride=64)
        ref = SolverConfig(scheme="implicit_obstacle", dt=64 * dt, t_end=n_steps * dt)
        return g, u0, base, ref

    def test_members_keep_the_base_budgets(self):
        g, u0, base, ref = self.bump_sweep_setup(256)
        with pytest.raises(SolverError):
            check_yosida_convergence(g, u0, P1, replace(base, newton_max_iter=1),
                                     [1e-1, 1e-2], reference_cfg=ref)

    def test_one_lambda_passes(self):
        g, u0, base, ref = self.bump_sweep_setup(64)
        rep = check_yosida_convergence(g, u0, P1, base, [1e-1], reference_cfg=ref)
        assert rep.passed
        assert rep.details["lambdas"] == [0.1]
        assert rep.details["errors"][0] > 0.0

    def test_equal_errors_fail(self, monkeypatch):
        monkeypatch.setattr("monoac.diagnostics.snapshot_error", lambda traj, ref: (0.5, 1))
        g, u0, base, ref = self.bump_sweep_setup(64)
        rep = check_yosida_convergence(g, u0, P1, base, [1e-1, 1e-2], reference_cfg=ref)
        assert rep.details["errors"] == [0.5, 0.5]
        assert not rep.passed
        assert rep.worst_violation > rep.tolerance

    def test_sweep_refuses_non_yosida_members_before_stepping(self, monkeypatch):
        def no_stepping(*args, **kwargs):
            raise AssertionError("the sweep stepped before refusing its members")

        monkeypatch.setattr("monoac.diagnostics.run", no_stepping)
        g, u0, base, ref = self.bump_sweep_setup(64)
        cfgs = [replace(base, scheme="explicit", yosida_lambda=lam) for lam in (1e-1, 1e-2)]
        with pytest.raises(ValueError, match="yosida scheme"):
            yosida_sweep(g, u0, P1, cfgs, ref)
        with pytest.raises(ValueError, match="share no snapshot time"):
            # the member snapshots at 64 dt only, the reference at 16 dt and 32 dt
            yosida_sweep(g, u0, P1, [base], replace(ref, dt=16 * base.dt, t_end=32 * base.dt))


class TestIntegralBudgets:
    def test_energy_flux_on_preset_runs(self, abs_edge_traj, zero_traj, supersolution_traj):
        for traj in (abs_edge_traj, zero_traj, supersolution_traj):
            assert check_energy_flux(traj).passed

    def test_gradient_flux_smooth_data(self):
        g = make_grid(1, (0, 1), 63)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.4)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.005, t_end=1.0,
                           snapshot_stride=1)
        traj = run(g, u0, P1, cfg)
        assert check_gradient_flux(traj).passed

    def test_gradient_flux_needs_stride_one(self, abs_edge_traj):
        with pytest.raises(ValueError, match="stride"):
            check_gradient_flux(abs_edge_traj)


class TestEquilibriumCheck:
    def test_supersolution_distance_zero(self, supersolution_traj):
        from monoac import solve_equilibrium
        from monoac.diagnostics import check_equilibrium
        traj = supersolution_traj
        eq, _, report = solve_equilibrium(traj.grid, traj.u0, P1,
                                          traj.final_state(), tol=1e-6)
        rep = check_equilibrium(traj, eq, report)
        assert rep.passed
        assert rep.details["distance_inf"] == 0.0

    def test_zero_data_limit_is_zero(self, zero_traj):
        from monoac import solve_equilibrium
        from monoac.diagnostics import check_equilibrium
        traj = zero_traj
        eq, _, report = solve_equilibrium(traj.grid, traj.u0, P1,
                                          traj.final_state(), tol=1e-6)
        assert np.all(eq.values == 0.0)
        assert check_equilibrium(traj, eq, report).passed

    def test_fails_far_from_equilibrium(self, abs_edge_traj):
        from monoac import solve_equilibrium
        from monoac.diagnostics import check_equilibrium
        traj = abs_edge_traj  # T=2 is far from settled at 1e-5
        eq, _, report = solve_equilibrium(traj.grid, traj.u0, P1,
                                          traj.final_state(), tol=1e-4)
        rep = check_equilibrium(traj, eq, report, res_tol=1e-4)
        assert rep.details["distance_inf"] > 1e-5 or not rep.passed


class TestSettlingTime:
    def test_settles_to_initial_level(self, abs_edge_traj):
        t = settling_time(abs_edge_traj, eps=1e-3)
        assert t is not None
        assert 0.0 <= t <= abs_edge_traj.times[-1]

    def test_none_when_never_settling(self, abs_edge_traj):
        bad = corrupted(abs_edge_traj)
        bad.res_l2sq = abs_edge_traj.res_l2sq + 1e6
        assert settling_time(bad, eps=1e-3) is None


class TestRunChecks:
    def test_registry_and_overrides(self, abs_edge_traj):
        reports = run_checks(abs_edge_traj, [
            "monotone",
            {"name": "energy_decrease", "tolerance": 1e-10},
            "eta_monotone",
        ])
        assert [r.name for r in reports] == ["monotone", "energy_decrease", "eta_monotone"]
        assert reports[1].tolerance == 1e-10

    def test_every_override_keyword_is_a_parameter_of_its_check(self):
        for name, (check, keyword) in SINGLE_TRAJECTORY_CHECKS.items():
            assert keyword in inspect.signature(check).parameters, name

    def test_dissipation_details_are_the_forcing_bound_and_its_level(self, abs_edge_traj):
        [rep] = run_checks(abs_edge_traj, ["dissipation"])
        assert sorted(rep.details) == ["c_hat", "envelope_level"]

    def test_unknown_name_rejected(self, abs_edge_traj):
        with pytest.raises(ValueError, match="unknown check"):
            run_checks(abs_edge_traj, ["entropy"])

    @pytest.mark.parametrize("name", ["range", "monotone", "energy_flux"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_tolerance_not_finite_and_positive_refused(self, abs_edge_traj, name, tol):
        with pytest.raises(ValueError, match=f"check '{name}': tolerance"):
            run_checks(abs_edge_traj, [{"name": name, "tolerance": tol}])

    def test_reports_reproducible(self, abs_edge_traj):
        a = [r.to_dict() for r in run_checks(abs_edge_traj, list(
            ("monotone", "energy_decrease", "eta_monotone", "range")))]
        b = [r.to_dict() for r in run_checks(abs_edge_traj, list(
            ("monotone", "energy_decrease", "eta_monotone", "range")))]
        assert a == b
