import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monoac import (
    Field,
    Grid,
    h1_seminorm,
    laplacian,
    make_grid,
    negative_part,
    norm_lp,
    positive_part,
    read_field_csv,
    stencil_min_eigenvalue,
    write_field_csv,
)
from monoac.grid import first_mode, h1_grad_sq, lap_array


def field_on(g, values):
    return Field(g, np.asarray(values, dtype=float))


class TestMakeGrid:
    def test_unit_interval_spacing(self):
        g = make_grid(1, (0, 1), 127)
        assert g.h == (1 / 128,)
        assert g.n_nodes == 127

    def test_symmetric_interval_spacing(self):
        g = make_grid(1, (-1, 1), 255)
        assert g.h == (2 / 256,)

    def test_square_spacing(self):
        g = make_grid(2, ((0, 1), (0, 1)), (31, 31))
        assert g.h == (1 / 32, 1 / 32)
        assert g.n_nodes == 31 * 31

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            make_grid(1, (1, 0), 10)

    def test_zero_node_count_rejected(self):
        with pytest.raises(ValueError, match="n_interior"):
            make_grid(1, (0, 1), 0)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            make_grid(3, ((0, 1),) * 3, (4, 4, 4))


class TestField:
    def test_wrong_length_rejected(self):
        g = make_grid(1, (0, 1), 5)
        with pytest.raises(ValueError, match="interior nodes"):
            Field(g, np.zeros(4))

    def test_nonfinite_rejected(self):
        g = make_grid(1, (0, 1), 3)
        with pytest.raises(ValueError, match="finite"):
            Field(g, np.array([0.0, np.nan, 0.0]))


class TestLaplacian:
    def test_zero_field(self):
        g = make_grid(1, (0, 1), 9)
        out = laplacian(g, field_on(g, np.zeros(9)))
        assert np.all(out.values == 0.0)

    def test_sine_mode_is_eigenfield(self):
        g = make_grid(1, (0, 1), 127)
        x = g.axis_coords(0)
        u = field_on(g, np.sin(np.pi * x))
        lam = stencil_min_eigenvalue(g)
        out = laplacian(g, u)
        np.testing.assert_allclose(out.values, -lam * u.values, rtol=1e-10, atol=1e-10)

    def test_hand_stencil_n3(self):
        # h = 1/4, u = (1, 2, 1): 16 * (0-2+2, 1-4+1, 2-2+0)
        g = make_grid(1, (0, 1), 3)
        out = laplacian(g, field_on(g, [1.0, 2.0, 1.0]))
        np.testing.assert_array_equal(out.values, [0.0, -32.0, 0.0])

    def test_grid_mismatch_rejected(self):
        g = make_grid(1, (0, 1), 4)
        other = make_grid(1, (0, 1), 5)
        with pytest.raises(ValueError, match="grid"):
            laplacian(g, field_on(other, np.zeros(5)))

    def test_2d_cross_stencil(self):
        g = make_grid(2, ((0, 1), (0, 1)), (3, 3))
        v = np.zeros((3, 3))
        v[1, 1] = 1.0
        out = lap_array(g, v.reshape(-1)).reshape(3, 3)
        h2 = g.h[0] ** 2
        assert out[1, 1] == -4.0 / h2
        assert out[0, 1] == out[2, 1] == out[1, 0] == out[1, 2] == 1.0 / h2
        assert out[0, 0] == 0.0


class TestNorms:
    def test_zero_field_all_p(self):
        g = make_grid(1, (0, 1), 7)
        u = field_on(g, np.zeros(7))
        for p in (2, 4, 6, np.inf):
            assert norm_lp(g, u, p) == 0.0

    def test_constant_one_l2(self):
        g = make_grid(1, (0, 1), 127)
        u = field_on(g, np.ones(127))
        assert norm_lp(g, u, 2) == pytest.approx(np.sqrt(127 / 128), rel=1e-14)

    def test_p4_direct_evaluation(self):
        # n=2, h=1/3, u=(1,-2): ((1 + 16)/3)^(1/4)
        g = make_grid(1, (0, 1), 2)
        u = field_on(g, [1.0, -2.0])
        assert norm_lp(g, u, 4) == pytest.approx((17 / 3) ** 0.25, rel=1e-14)

    def test_unsupported_p_rejected(self):
        g = make_grid(1, (0, 1), 3)
        with pytest.raises(ValueError, match="norm order"):
            norm_lp(g, field_on(g, np.zeros(3)), 3)

    def test_h1_single_node(self):
        # n=1, h=1/2, u=(a): two boundary edges each (a/h)^2 weighted by h
        g = make_grid(1, (0, 1), 1)
        for a in (0.3, -1.7, 2.0):
            assert h1_seminorm(g, field_on(g, [a])) == pytest.approx(2 * abs(a), rel=1e-14)

    def test_h1_zero(self):
        g = make_grid(2, ((0, 1), (0, 2)), (4, 5))
        assert h1_seminorm(g, field_on(g, np.zeros(20))) == 0.0


def grids_1d_and_2d():
    return [make_grid(1, (0, 1), 17), make_grid(1, (-1, 1), 12),
            make_grid(2, ((0, 1), (0, 1)), (5, 7))]


@pytest.mark.parametrize("g", grids_1d_and_2d())
def test_summation_by_parts(g):
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = field_on(g, rng.normal(size=g.n_nodes))
        lhs = h1_seminorm(g, u) ** 2
        rhs = -g.cell_volume * float(u.values @ laplacian(g, u).values)
        assert abs(lhs - rhs) <= 1e-10 * (1 + norm_lp(g, u, 2) ** 2)


@pytest.mark.parametrize("g", grids_1d_and_2d())
def test_laplacian_symmetry_and_sign(g):
    rng = np.random.default_rng(11)
    w = g.cell_volume
    for _ in range(10):
        u = field_on(g, rng.normal(size=g.n_nodes))
        v = field_on(g, rng.normal(size=g.n_nodes))
        a = w * float(v.values @ laplacian(g, u).values)
        b = w * float(u.values @ laplacian(g, v).values)
        assert abs(a - b) <= 1e-10 * (1 + abs(a))
        assert w * float(u.values @ laplacian(g, u).values) <= 0.0


@given(vals=arrays(np.float64, 13, elements=st.floats(-50, 50)))
@settings(max_examples=60, deadline=None)
def test_part_decomposition(vals):
    g = make_grid(1, (0, 1), 13)
    u = field_on(g, vals)
    pos, neg = positive_part(u), negative_part(u)
    assert np.all(pos.values >= 0.0)
    assert np.all(neg.values >= 0.0)
    np.testing.assert_array_equal(pos.values - neg.values, u.values)


def test_part_scalars():
    g = make_grid(1, (0, 1), 3)
    u = field_on(g, [3.0, -2.0, 0.0])
    np.testing.assert_array_equal(positive_part(u).values, [3.0, 0.0, 0.0])
    np.testing.assert_array_equal(negative_part(u).values, [0.0, 2.0, 0.0])


def test_first_mode_peak_and_sign():
    g = make_grid(1, (0, 1), 127)
    u = first_mode(g)
    assert np.max(u.values) == 1.0
    assert np.all(u.values > 0.0)


class TestFieldCsv:
    def test_roundtrip_1d(self, tmp_path):
        g = make_grid(1, (-1, 1), 9)
        u = field_on(g, np.linspace(-0.5, 0.7, 9))
        path = tmp_path / "u.csv"
        write_field_csv(path, u)
        back = read_field_csv(path)
        assert back.grid.n_interior == g.n_interior
        assert back.grid.h == g.h
        np.testing.assert_array_equal(back.values, u.values)

    def test_roundtrip_2d_with_grid(self, tmp_path):
        g = make_grid(2, ((0, 1), (0, 2)), (3, 4))
        rng = np.random.default_rng(3)
        u = field_on(g, rng.normal(size=12))
        path = tmp_path / "u.csv"
        write_field_csv(path, u)
        back = read_field_csv(path, grid=g)
        np.testing.assert_array_equal(back.values, u.values)

    def test_header_present(self, tmp_path):
        g = make_grid(1, (0, 1), 4)
        path = tmp_path / "u.csv"
        write_field_csv(path, field_on(g, np.zeros(4)))
        header = path.read_text().splitlines()[0]
        assert header.startswith("# grid dim=1 n=4 h=")

    def test_grid_mismatch_rejected(self, tmp_path):
        g = make_grid(1, (0, 1), 4)
        path = tmp_path / "u.csv"
        write_field_csv(path, field_on(g, np.zeros(4)))
        with pytest.raises(ValueError, match="does not match"):
            read_field_csv(path, grid=make_grid(1, (0, 1), 5))

    def test_golden_text_1d(self, tmp_path):
        g = make_grid(1, (-1, 1), 3)
        path = tmp_path / "u.csv"
        write_field_csv(path, field_on(g, [0.1, -0.0, 5e-324]))
        assert path.read_text() == (
            "# grid dim=1 n=3 h=0.5\n"
            "-0.5,0.1\n"
            "0.0,-0.0\n"
            "0.5,5e-324\n"
        )

    def test_golden_text_2d(self, tmp_path):
        g = make_grid(2, ((0, 1), (0, 2)), (2, 3))
        path = tmp_path / "u.csv"
        values = [1.7976931348623157e308, -1.5, 1 / 3, 2.0, -1e-10, 123456789.125]
        write_field_csv(path, field_on(g, values))
        assert path.read_text() == (
            "# grid dim=2 n=2x3 h=0.3333333333333333x0.5\n"
            "0.3333333333333333,0.5,1.7976931348623157e+308\n"
            "0.3333333333333333,1.0,-1.5\n"
            "0.3333333333333333,1.5,0.3333333333333333\n"
            "0.6666666666666666,0.5,2.0\n"
            "0.6666666666666666,1.0,-1e-10\n"
            "0.6666666666666666,1.5,123456789.125\n"
        )

    @pytest.mark.parametrize("dims", [(200,), (13, 11)])
    def test_lines_match_per_value_repr(self, tmp_path, dims):
        # reference: one repr(float(.)) per coordinate and value, joined by commas
        if len(dims) == 1:
            g = make_grid(1, (-1.3, 0.7), dims[0])
        else:
            g = make_grid(2, ((-1, 1), (0, 0.3)), dims)
        rng = np.random.default_rng(11)
        scale = 10.0 ** rng.integers(-300, 300, g.n_nodes)
        u = field_on(g, rng.standard_normal(g.n_nodes) * scale)
        path = tmp_path / "u.csv"
        write_field_csv(path, u)
        coords = g.coords()
        rows = [",".join([repr(float(c[i])) for c in coords] + [repr(float(u.values[i]))])
                for i in range(g.n_nodes)]
        assert path.read_text().splitlines()[1:] == rows

    def test_whitespace_and_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("# grid dim=1 n=3 h=0.5\n\n -0.5 , 0.1\n0.0,\t-0.0 \n  \n0.5,5e-324\n\n")
        back = read_field_csv(path)
        assert back.values.tolist() == [0.1, -0.0, 5e-324]
        assert back.grid == make_grid(1, (-1, 1), 3)

    @pytest.mark.parametrize("text", [
        "# grid dim=1 n=3 h=0.5\n-0.5,0.1\n0.0,0.2,0.3\n0.5,0.4\n",  # ragged row
        "# grid dim=1 n=3 h=0.5\n-0.5,0,0.1\n0.0,0,0.2\n0.5,0,0.4\n",  # three columns
        "-0.5,0.1\n0.0,0.2\n0.5,0.4\n",  # no header
        "# grid dim=1 n=3 h=0.5\n-0.5,0.1\n0.0,nan\n0.5,0.4\n",  # NaN value
        "# grid dim=1 h=0.5\n-0.5,0.1\n0.0,0.2\n0.5,0.4\n",  # header without n
        "# grid dim=1 n=three h=0.5\n-0.5,0.1\n0.0,0.2\n0.5,0.4\n",  # n not a number
    ], ids=["ragged", "columns", "header", "nan", "header_key", "header_value"])
    def test_malformed_file_rejected_naming_path(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_field_csv(path)

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_rejected_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# grid dim=1 n=3 h=0.5\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_field_csv(path)

    def test_digit_separator_rejected(self, tmp_path):
        # numpy's reader is stricter than float(), which reads "1_0" as 10.0
        path = tmp_path / "sep.csv"
        path.write_text("# grid dim=1 n=3 h=0.5\n-0.5,0.1\n0.0,1_0\n0.5,0.4\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_field_csv(path)

    def test_field_changed_in_place_is_written_again(self, tmp_path):
        g = make_grid(1, (0, 1), 3)
        u = field_on(g, [0.1, 0.2, 0.3])
        write_field_csv(tmp_path / "a.csv", u)
        u.values[1] = 7.0
        write_field_csv(tmp_path / "b.csv", u)
        assert (tmp_path / "a.csv").read_text().splitlines()[2] == "0.5,0.2"
        assert (tmp_path / "b.csv").read_text().splitlines()[2] == "0.5,7.0"
        assert read_field_csv(tmp_path / "b.csv", grid=g).values.tolist() == [0.1, 7.0, 0.3]

    def test_signed_zeros_written_apart(self, tmp_path):
        g = make_grid(1, (0, 1), 2)
        write_field_csv(tmp_path / "pos.csv", field_on(g, [0.0, 0.0]))
        write_field_csv(tmp_path / "neg.csv", field_on(g, [0.0, -0.0]))
        assert (tmp_path / "pos.csv").read_text().endswith(",0.0\n")
        assert (tmp_path / "neg.csv").read_text().endswith(",-0.0\n")
        back = read_field_csv(tmp_path / "neg.csv", grid=g).values
        assert np.signbit(back).tolist() == [False, True]

    def test_reads_of_identical_text_do_not_alias(self, tmp_path):
        g = make_grid(1, (0, 1), 5)
        u = field_on(g, np.linspace(0.1, 0.5, 5))
        write_field_csv(tmp_path / "a.csv", u)
        write_field_csv(tmp_path / "b.csv", u)
        a = read_field_csv(tmp_path / "a.csv", grid=g).values
        b = read_field_csv(tmp_path / "b.csv", grid=g).values
        assert a.tobytes() == b.tobytes() == u.values.tobytes()
        assert not np.shares_memory(a, b)
        a[0] = 9.0
        b[1] = 9.0
        again = read_field_csv(tmp_path / "a.csv", grid=g).values
        assert again.tobytes() == u.values.tobytes()

    @pytest.mark.parametrize("endpoints", [(-5, 5), (0.5, 1.5), (0, 1 + 1e-6)],
                             ids=["spacing", "shifted", "stretched"])
    def test_field_off_the_given_grid_rejected(self, tmp_path, endpoints):
        # the same text loads on its own grid, then is rejected on another one
        g = make_grid(1, (0, 1), 5)
        path = tmp_path / "u.csv"
        write_field_csv(path, field_on(g, np.linspace(0.1, 0.5, 5)))
        read_field_csv(path, grid=g)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_field_csv(path, grid=make_grid(1, endpoints, 5))

    def test_grid_within_rounding_accepted(self, tmp_path):
        g = make_grid(2, ((0, 1), (-1, 1)), (5, 4))
        path = tmp_path / "u.csv"
        write_field_csv(path, field_on(g, np.arange(20.0)))
        near = make_grid(2, ((1e-13, 1 + 1e-13), (-1, 1 + 1e-12)), (5, 4))
        assert read_field_csv(path, grid=near).values.tolist() == list(range(20))


@pytest.mark.parametrize("dims", [(9,), (5, 4)])
def test_stacked_input_matches_row_by_row(dims):
    # leading axes are a batch: each row gives exactly what it gives alone
    if len(dims) == 1:
        g = make_grid(1, (0, 1), dims[0])
    else:
        g = make_grid(2, ((0, 2), (0, 1)), dims)
    v = np.random.default_rng(0).standard_normal((3, 2, g.n_nodes))
    lap = lap_array(g, v)
    grad_sq = h1_grad_sq(g, v)
    assert lap.shape == v.shape
    assert grad_sq.shape == v.shape[:-1]
    for idx in np.ndindex(*v.shape[:-1]):
        np.testing.assert_array_equal(lap[idx], lap_array(g, v[idx]))
        assert grad_sq[idx] == h1_grad_sq(g, v[idx])


@pytest.mark.parametrize("dims", [(23, 17), (5, 1), (1, 5)])
def test_2d_stencil_matches_kronecker_assembly(dims):
    # unequal spacings that are not powers of two; on a one-node-wide axis 1 every
    # flat shift along that axis wraps across grid rows
    g = make_grid(2, ((0, 2), (0, 0.7)), dims)
    lap = 0.0
    for a, (n, h) in enumerate(zip(g.n_interior, g.h)):
        factors = [np.eye(m) for m in g.n_interior]
        factors[a] = (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / (h * h)
        lap = lap + np.kron(*factors)
    v = np.random.default_rng(4).standard_normal((3, g.n_nodes))
    ref = v @ lap  # lap is symmetric
    got = lap_array(g, v)
    assert got.shape == v.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestSineBasis:
    G = make_grid(2, ((0, 2), (0, 1)), (23, 17))

    def test_orthonormal_and_symmetric(self):
        for s, n in zip(self.G.sine_basis, self.G.shape):
            assert s.shape == (n, n)
            np.testing.assert_allclose(s @ s, np.eye(n), rtol=0, atol=1e-14)
            np.testing.assert_array_equal(s, s.T)

    def test_diagonalizes_the_assembled_stencil(self):
        g = self.G
        neg_lap = -lap_array(g, np.eye(g.n_nodes))  # symmetric: rows are columns
        s = np.kron(*g.sine_basis)  # row-major vec(S0 V S1)
        recon = s @ np.diag(g.lap_eigenvalues.ravel()) @ s
        assert np.max(np.abs(recon - neg_lap)) <= 1e-12 * np.max(np.abs(neg_lap))
