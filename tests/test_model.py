import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monoac import (
    Field,
    ModelParams,
    b0_check,
    dr_value,
    energy,
    energy_floor,
    eta_of,
    make_grid,
    norm_lp,
    phi_of,
    residual,
    take_snapshot,
    w_prime,
)
from monoac.grid import first_mode, h1_grad_sq, stencil_min_eigenvalue
from monoac.model import SNAPSHOT_COLUMNS, _snapshot_values, residual_array
from monoac.presets import make_initial

P1 = ModelParams(kappa=1.0)


def field_on(g, values):
    return Field(g, np.asarray(values, dtype=float))


def test_kappa_must_be_positive():
    with pytest.raises(ValueError):
        ModelParams(kappa=0.0)


class TestWPrime:
    def test_zero(self):
        g = make_grid(1, (0, 1), 5)
        assert np.all(w_prime(field_on(g, np.zeros(5)), P1).values == 0.0)

    def test_well_bottom(self):
        g = make_grid(1, (0, 1), 5)
        out = w_prime(field_on(g, np.ones(5)), P1)
        np.testing.assert_array_equal(out.values, np.zeros(5))

    def test_constant_two(self):
        g = make_grid(1, (0, 1), 5)
        out = w_prime(field_on(g, 2.0 * np.ones(5)), P1)
        np.testing.assert_array_equal(out.values, 6.0 * np.ones(5))


class TestResidual:
    def test_zero(self):
        g = make_grid(1, (0, 1), 5)
        assert np.all(residual(g, field_on(g, np.zeros(5)), P1).values == 0.0)

    def test_eigenfield_multiple_is_supersolution(self):
        g = make_grid(1, (0, 1), 63)
        assert stencil_min_eigenvalue(g) > P1.kappa
        for c in (0.5, 1.0, 2.0):
            u = Field(g, c * first_mode(g).values)
            assert np.max(residual(g, u, P1).values) <= 1e-12

    def test_hand_evaluation_n3(self):
        g = make_grid(1, (0, 1), 3)
        vals = np.array([0.25, -0.5, 1.5])
        u = field_on(g, vals)
        h2 = (1 / 4) ** 2
        lap = np.array([
            (0.0 - 2 * 0.25 + (-0.5)) / h2,
            (0.25 - 2 * (-0.5) + 1.5) / h2,
            ((-0.5) - 2 * 1.5 + 0.0) / h2,
        ])
        expected = lap - vals**3 + vals
        np.testing.assert_allclose(residual(g, u, P1).values, expected, rtol=1e-14)


class TestEta:
    def test_nonneg_residual_gives_zero(self):
        # constant -1 has residual 0 in the interior and positive at the edges
        g = make_grid(1, (-1, 1), 15)
        u = field_on(g, -np.ones(15))
        assert np.all(residual(g, u, P1).values >= 0.0)
        assert np.all(eta_of(g, u, P1).values == 0.0)

    def test_supersolution_eta_equals_residual(self):
        g = make_grid(1, (0, 1), 31)
        u = make_initial("supersolution", g, P1)
        r = residual(g, u, P1)
        np.testing.assert_array_equal(eta_of(g, u, P1).values, r.values)

    def test_mixed_sign_elementwise_min(self):
        g = make_grid(1, (0, 1), 3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = field_on(g, rng.normal(size=3))
            r = residual(g, u, P1).values
            np.testing.assert_array_equal(eta_of(g, u, P1).values, np.minimum(r, 0.0))

    def test_eta_nonpositive_and_disjoint_support(self):
        g = make_grid(1, (-1, 1), 21)
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = field_on(g, rng.normal(size=21))
            r = residual(g, u, P1).values
            eta = eta_of(g, u, P1).values
            assert np.all(eta <= 0.0)
            np.testing.assert_array_equal(eta * np.maximum(r, 0.0), np.zeros(21))


class TestEnergy:
    def test_zero(self):
        g = make_grid(1, (0, 1), 9)
        assert energy(g, field_on(g, np.zeros(9)), P1) == 0.0

    def test_constant_one_direct_summation(self):
        g = make_grid(1, (0, 1), 127)
        u = field_on(g, np.ones(127))
        h = g.h[0]
        grad_sq = h * (2 * (1 / h) ** 2)  # the two boundary edges only
        mass = 127 / 128
        expected = 0.5 * grad_sq + 0.25 * mass - 0.5 * mass
        assert energy(g, u, P1) == pytest.approx(expected, rel=1e-13)

    @given(vals=arrays(np.float64, 18, elements=st.floats(-5, 5)))
    @settings(max_examples=60, deadline=None)
    def test_energy_floor(self, vals):
        g = make_grid(1, (-1, 1), 18)
        u = field_on(g, vals)
        assert energy(g, u, P1) >= energy_floor(g, P1) - 1e-12

    def test_floor_value(self):
        g = make_grid(1, (-1, 1), 12)
        assert energy_floor(g, P1) == -0.5  # kappa^2/4 * |domain| = 1/4 * 2


class TestPhi:
    def test_zero_and_identity(self):
        g = make_grid(1, (0, 1), 11)
        rng = np.random.default_rng(2)
        assert phi_of(g, field_on(g, np.zeros(11))) == 0.0
        for _ in range(10):
            u = field_on(g, rng.normal(size=11))
            lhs = energy(g, u, P1)
            rhs = phi_of(g, u) - 0.5 * P1.kappa * norm_lp(g, u, 2) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_scaling(self):
        g = make_grid(1, (0, 1), 11)
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = field_on(g, rng.normal(size=11))
            two_u = field_on(g, 2.0 * u.values)
            assert phi_of(g, two_u) >= 4.0 * phi_of(g, u) - 1e-12
            assert phi_of(g, u) >= 0.0


class TestDrValue:
    def test_nonneg_residual_gives_zero(self):
        g = make_grid(1, (-1, 1), 15)
        assert dr_value(g, field_on(g, -np.ones(15)), P1) == 0.0

    def test_abs_edge_converges_to_quadrature(self):
        # independent oracle: composite Simpson for int (u0^3 - u0)^2 over (-1,1)
        xs = np.linspace(-1.0, 1.0, 2_000_001)
        f = ((np.abs(xs) - 1.0) ** 3 - (np.abs(xs) - 1.0)) ** 2
        quad = float(np.trapezoid(f, xs))
        assert quad == pytest.approx(16 / 105, abs=1e-10)
        errs = []
        for n in (127, 255, 1023):
            g = make_grid(1, (-1, 1), n)
            u0 = make_initial("abs_edge", g, P1)
            errs.append(abs(dr_value(g, u0, P1) - 16 / 105))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-7

    def test_supersolution_value_is_full_norm(self):
        g = make_grid(1, (0, 1), 31)
        u = make_initial("supersolution", g, P1, c=0.7)
        r = residual(g, u, P1)
        assert np.max(r.values) <= 0.0
        assert dr_value(g, u, P1) == pytest.approx(norm_lp(g, r, 2) ** 2, rel=1e-12)
        assert dr_value(g, u, P1) > 0.0


class TestB0Check:
    def test_zero_inside(self):
        g = make_grid(1, (0, 1), 9)
        assert b0_check(g, field_on(g, np.zeros(9)), P1, 1.0, 1.0)

    def test_large_field_outside(self):
        g = make_grid(1, (0, 1), 9)
        u = field_on(g, 10.0 * np.ones(9))
        assert phi_of(g, u) > 0.5
        assert not b0_check(g, u, P1, 1e9, 0.5)

    def test_boundary_counts_as_inside(self):
        g = make_grid(1, (0, 1), 9)
        u = field_on(g, 0.3 * np.ones(9))
        r2 = norm_lp(g, residual(g, u, P1), 2) ** 2
        phi = phi_of(g, u)
        assert r2 > 0 and phi > 0
        assert b0_check(g, u, P1, r2, phi)
        assert not b0_check(g, u, P1, r2 * (1 - 1e-12), phi)

    def test_positive_bounds_required(self):
        g = make_grid(1, (0, 1), 9)
        with pytest.raises(ValueError):
            b0_check(g, field_on(g, np.zeros(9)), P1, 0.0, 1.0)


def test_snapshot_consistency():
    g = make_grid(1, (-1, 1), 33)
    rng = np.random.default_rng(12)
    for _ in range(10):
        u = field_on(g, rng.normal(size=33))
        snap = take_snapshot(g, u, P1, t=0.5)
        assert snap.res_neg_l2sq == pytest.approx(snap.eta_l2**2, rel=1e-10)
        assert snap.eta_l2**2 == pytest.approx(dr_value(g, u, P1), rel=1e-10)
        assert snap.phi >= 0.0
        assert snap.E == pytest.approx(energy(g, u, P1), rel=1e-12)
        assert snap.h1 == pytest.approx(np.sqrt(h1_grad_sq(g, u.values)), rel=1e-12)


def test_phase_set_level_convex_for_nonneg_fields():
    g = make_grid(1, (0, 1), 24)
    rng = np.random.default_rng(21)
    for _ in range(25):
        u = field_on(g, np.abs(rng.normal(size=24)))
        v = field_on(g, np.abs(rng.normal(size=24)))
        r = max(dr_value(g, u, P1), dr_value(g, v, P1))
        theta = rng.uniform(0.05, 0.95)
        mix = field_on(g, (1 - theta) * u.values + theta * v.values)
        assert dr_value(g, mix, P1) <= r + 1e-9


def test_stacked_snapshot_rows_match_single_states():
    g = make_grid(1, (-1, 1), 31)
    states = np.stack([make_initial(name, g, P1).values
                       for name in ("abs_edge", "neg_const", "supersolution")])
    stacked = np.stack([states, 0.5 * states])  # (2, 3, n)
    times = np.array([0.0, 0.25])[:, None]
    rows = _snapshot_values(g, stacked, P1, times, r=residual_array(g, stacked, P1))
    assert rows.shape == (2, 3, len(SNAPSHOT_COLUMNS))
    for i, j in np.ndindex(2, 3):
        single = take_snapshot(g, Field(g, stacked[i, j]), P1, float(times[i, 0]))
        np.testing.assert_array_equal(rows[i, j], single.row())
