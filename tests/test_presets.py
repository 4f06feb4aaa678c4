import numpy as np
import pytest

from monoac import Field, ModelParams, make_grid, residual, write_field_csv
from monoac.presets import PRESET_NAMES, make_initial

P1 = ModelParams(kappa=1.0)


def test_zero():
    g = make_grid(1, (0, 1), 9)
    assert np.all(make_initial("zero", g, P1).values == 0.0)


class TestAbsEdge:
    def test_values_and_kink(self):
        g = make_grid(1, (-1, 1), 15)
        u = make_initial("abs_edge", g, P1)
        x = g.axis_coords(0)
        np.testing.assert_array_equal(u.values, np.abs(x) - 1.0)
        assert np.all(u.values < 0.0)

    def test_needs_symmetric_interval(self):
        g = make_grid(1, (0, 2), 15)
        with pytest.raises(ValueError, match="symmetric"):
            make_initial("abs_edge", g, P1)

    def test_needs_1d(self):
        g = make_grid(2, ((-1, 1), (-1, 1)), (5, 5))
        with pytest.raises(ValueError, match="1D"):
            make_initial("abs_edge", g, P1)


def test_neg_const():
    g = make_grid(1, (-1, 1), 11)
    u = make_initial("neg_const", g, P1)
    np.testing.assert_array_equal(u.values, -np.ones(11))


class TestEigenfunction:
    def test_peak_is_c(self):
        g = make_grid(1, (0, 1), 31)
        for c in (0.5, 2.0):
            u = make_initial("eigenfunction", g, P1, c=c)
            assert np.max(u.values) == pytest.approx(c, rel=1e-14)
            assert np.all(u.values > 0.0)

    def test_positive_c_required(self):
        g = make_grid(1, (0, 1), 31)
        with pytest.raises(ValueError, match="c > 0"):
            make_initial("eigenfunction", g, P1, c=-1.0)


class TestSupersolution:
    def test_residual_nonpositive(self):
        g = make_grid(1, (0, 1), 63)
        u = make_initial("supersolution", g, P1, c=1.0)
        assert np.max(residual(g, u, P1).values) <= 1e-12

    def test_rejected_when_stencil_eigenvalue_below_kappa(self):
        # a long interval pushes the first eigenvalue below kappa
        g = make_grid(1, (0, 100), 63)
        with pytest.raises(ValueError, match="supersolution"):
            make_initial("supersolution", g, P1, c=1.0)


class TestBump:
    def test_compact_support_and_peak(self):
        g = make_grid(1, (0, 1), 127)
        u = make_initial("bump", g, P1, center=0.5, width=0.25, height=0.3)
        x = g.axis_coords(0)
        outside = np.abs(x - 0.5) >= 0.25
        assert np.all(u.values[outside] == 0.0)
        assert np.all(u.values >= 0.0)
        assert np.max(u.values) == pytest.approx(0.3, rel=1e-12)  # 0.5 is a grid node

    def test_support_must_fit(self):
        g = make_grid(1, (0, 1), 31)
        with pytest.raises(ValueError, match="inside the domain"):
            make_initial("bump", g, P1, center=0.9, width=0.3, height=0.1)

    def test_2d_product_profile(self):
        g = make_grid(2, ((0, 1), (0, 1)), (15, 15))
        u = make_initial("bump", g, P1, center=(0.5, 0.5), width=(0.3, 0.3), height=0.2)
        assert np.max(u.values) == pytest.approx(0.2, rel=1e-12)
        assert np.all(u.values >= 0.0)


class TestCustom:
    def test_roundtrip(self, tmp_path):
        g = make_grid(1, (0, 1), 9)
        u = Field(g, np.linspace(-0.4, 0.0, 9))
        path = tmp_path / "init.csv"
        write_field_csv(path, u)
        back = make_initial("custom", g, P1, path=str(path))
        np.testing.assert_array_equal(back.values, u.values)

    def test_path_required(self):
        g = make_grid(1, (0, 1), 9)
        with pytest.raises(ValueError, match="path"):
            make_initial("custom", g, P1)


def test_unknown_name_rejected():
    g = make_grid(1, (0, 1), 9)
    with pytest.raises(ValueError, match="unknown preset"):
        make_initial("step", g, P1)


@pytest.mark.parametrize("name,kwargs", [("bump", {"c": 1.0}), ("abs_edge", {"height": 0.2}),
                                         ("eigenfunction", {"g": None})])
def test_parameter_the_preset_does_not_take_rejected(name, kwargs):
    g = make_grid(1, (-1, 1), 9)
    with pytest.raises(ValueError, match=f"does not take \\['{next(iter(kwargs))}'\\]"):
        make_initial(name, g, P1, **kwargs)


@pytest.mark.parametrize("name,kwargs", [("bump", {"height": []}),
                                         ("eigenfunction", {"c": [0, 1]}),
                                         ("supersolution", {"c": [1.0]})])
def test_list_for_a_float_parameter_rejected(name, kwargs):
    g = make_grid(1, (-1, 1), 9)
    with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be one number"):
        make_initial(name, g, P1, **kwargs)


def test_preset_name_list_is_stable():
    assert set(PRESET_NAMES) == {"zero", "abs_edge", "neg_const", "eigenfunction",
                                 "bump", "supersolution", "custom"}
