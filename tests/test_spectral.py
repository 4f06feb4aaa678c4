import numpy as np
import pytest

from monoac import Field, ModelParams, make_grid, min_eig, sigma_rate
from monoac.grid import stencil_min_eigenvalue
from monoac.presets import make_initial
from monoac.spectral import EigenError
from test_linsolve import assembled_operator

P1 = ModelParams(kappa=1.0)


def const_potential(g, c):
    return Field(g, c * np.ones(g.n_nodes))


def dense_min_eig(g, V):
    """LAPACK reference: smallest eigenvalue of the assembled sparse -lap + V."""
    return float(np.linalg.eigvalsh(assembled_operator(g, V.values).toarray())[0])


class TestMinEig:
    def test_zero_potential_matches_stencil_value(self):
        g = make_grid(1, (0, 1), 127)
        result = min_eig(g, const_potential(g, 0.0), tol=1e-10)
        exact = stencil_min_eigenvalue(g)
        assert abs(result.lambda_min - exact) <= 1e-8 * exact

    def test_constant_shift_identity(self):
        g = make_grid(1, (0, 1), 63)
        base = min_eig(g, const_potential(g, 0.0), tol=1e-10).lambda_min
        for c in (2.5, -0.75):
            lam = min_eig(g, const_potential(g, c), tol=1e-10).lambda_min
            assert lam == pytest.approx(base + c, rel=1e-8)

    def test_squared_constant_field(self):
        g = make_grid(1, (0, 1), 63)
        u0 = Field(g, np.ones(63))
        lam = min_eig(g, Field(g, 3.0 * u0.values**2), tol=1e-10).lambda_min
        base = stencil_min_eigenvalue(g)
        assert lam == pytest.approx(base + 3.0, rel=1e-8)

    def test_2d_zero_potential(self):
        g = make_grid(2, ((0, 1), (0, 1)), (15, 15))
        result = min_eig(g, const_potential(g, 0.0), tol=1e-9)
        assert result.lambda_min == pytest.approx(stencil_min_eigenvalue(g), rel=1e-8)

    def test_eigenfield_properties(self):
        g = make_grid(1, (0, 1), 63)
        result = min_eig(g, const_potential(g, 0.0), tol=1e-10)
        v = result.eigenfield.values
        assert np.all(v >= -1e-12)
        assert g.cell_volume * float(v @ v) == pytest.approx(1.0, rel=1e-12)
        assert result.residual <= 1e-10

    def test_rayleigh_consistency(self):
        from monoac._linsolve import apply_shifted
        g = make_grid(1, (0, 1), 63)
        V = Field(g, np.linspace(0.0, 4.0, 63))
        result = min_eig(g, V, tol=1e-10)
        y = result.eigenfield.values
        rq = g.cell_volume * float(y @ apply_shifted(g, V.values, y))
        assert abs(result.lambda_min - rq) <= 1e-10 * (1 + abs(result.lambda_min))

    def test_max_iter_exceeded_reports_residual(self):
        g = make_grid(1, (0, 1), 31)
        with pytest.raises(EigenError) as info:
            min_eig(g, const_potential(g, 0.0), tol=1e-12, max_iter=1)
        assert info.value.residual is not None


class TestAgainstDenseOracle:
    def test_zero_potential(self):
        g = make_grid(1, (0, 1), 40)
        dense = dense_min_eig(g, const_potential(g, 0.0))
        iterative = min_eig(g, const_potential(g, 0.0), tol=1e-11).lambda_min
        assert iterative == pytest.approx(dense, rel=1e-9)

    def test_bump_squared_potential(self):
        g = make_grid(1, (0, 1), 40)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.3, height=0.8)
        V = Field(g, 3.0 * u0.values**2)
        dense = dense_min_eig(g, V)
        iterative = min_eig(g, V, tol=1e-11).lambda_min
        assert iterative == pytest.approx(dense, rel=1e-9)

    def test_2d_oracle(self):
        g = make_grid(2, ((0, 1), (0, 1)), (6, 6))
        rng = np.random.default_rng(2)
        V = Field(g, np.abs(rng.normal(size=36)))
        assert min_eig(g, V, tol=1e-9).lambda_min == pytest.approx(
            dense_min_eig(g, V), rel=1e-9)


class TestSigmaRate:
    def test_zero_data(self):
        g = make_grid(1, (0, 1), 63)
        sigma = sigma_rate(g, Field(g, np.zeros(63)), P1)
        assert sigma == pytest.approx(stencil_min_eigenvalue(g) - 1.0, rel=1e-8)

    def test_constant_one(self):
        g = make_grid(1, (0, 1), 63)
        sigma = sigma_rate(g, Field(g, np.ones(63)), P1)
        assert sigma == pytest.approx(stencil_min_eigenvalue(g) + 3.0 - 1.0, rel=1e-8)

    def test_bump_cross_checked_against_dense(self):
        g = make_grid(1, (0, 1), 40)
        u0 = make_initial("bump", g, P1, center=0.5, width=0.25, height=0.5)
        sigma = sigma_rate(g, u0, P1)
        dense = dense_min_eig(g, Field(g, 3.0 * u0.values**2)) - P1.kappa
        assert sigma == pytest.approx(dense, rel=1e-8)

    def test_negative_data_rejected(self):
        g = make_grid(1, (0, 1), 15)
        with pytest.raises(ValueError, match="nonnegative"):
            sigma_rate(g, Field(g, -0.1 * np.ones(15)), P1)


class TestSpectralInvariants:
    def test_monotone_in_potential(self):
        g = make_grid(1, (0, 1), 24)
        rng = np.random.default_rng(6)
        for _ in range(10):
            v1 = rng.normal(size=24)
            v2 = v1 + np.abs(rng.normal(size=24))
            lam1 = min_eig(g, Field(g, v1), tol=1e-10).lambda_min
            lam2 = min_eig(g, Field(g, v2), tol=1e-10).lambda_min
            assert lam1 <= lam2 + 1e-9

    def test_nonneg_data_never_lowers_eigenvalue(self):
        g = make_grid(1, (0, 1), 24)
        base = min_eig(g, Field(g, np.zeros(24)), tol=1e-10).lambda_min
        rng = np.random.default_rng(14)
        for _ in range(5):
            u0 = np.abs(rng.normal(size=24))
            lam = min_eig(g, Field(g, 3.0 * u0**2), tol=1e-10).lambda_min
            assert lam >= base - 1e-9
