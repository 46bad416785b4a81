import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polygauss as pg
from polygauss.ortho import _gram_recurrence

GRID3 = pg.SampleGrid(np.array([0.0, 1.0, 2.0]))
H3_J2 = np.array([
    [5 / 6, 1 / 3, -1 / 6],
    [1 / 3, 1 / 3, 1 / 3],
    [-1 / 6, 1 / 3, 5 / 6],
])


def gram_schmidt_oracle(t, J):
    """Independent construction: classical Gram-Schmidt on the monomials."""
    V = np.vander(t, J, increasing=True).astype(float)
    B = np.zeros_like(V.T)
    for j in range(J):
        v = V[:, j].copy()
        for i in range(j):
            v -= (B[i] @ V[:, j]) / (B[i] @ B[i]) * B[i]
        B[j] = v
    return B


class TestGramRecurrence:
    def test_gram_recurrence_three_points(self):
        # P_1 = t - a_0 pins a_0 = 1, and P_2 = (t - a_1) P_1 - b_1 P_0 pins b_1 = 2/3
        P, q = _gram_recurrence(np.array([0.0, 1.0, 2.0]), 3)
        npt.assert_allclose(P[1], [-1.0, 0.0, 1.0], atol=1e-15)
        npt.assert_allclose(P[2], [1 / 3, -2 / 3, 1 / 3], atol=1e-15)
        npt.assert_allclose(q, [3.0, 2.0, 2 / 3], atol=1e-15)

    @pytest.mark.parametrize("t,J", [
        (np.arange(240) * 0.0375, 240),
        (np.arange(60) * 0.15, 3),
        (np.arange(40) * 1e-30, 12),  # the norms underflow and the loop breaks
    ])
    def test_gram_recurrence_bitwise_equal_to_stepwise(self, stepwise_gram_recurrence, t, J):
        for got, ref in zip(_gram_recurrence(t, J), stepwise_gram_recurrence(t, J)):
            assert np.array_equal(got, ref)


class TestBuildBasis:
    def test_worked_three_point_j2(self):
        b = pg.build_basis(GRID3, 2)
        npt.assert_allclose(b.values[0], [1, 1, 1], atol=1e-15)
        npt.assert_allclose(b.values[1], [-1, 0, 1], atol=1e-15)
        npt.assert_allclose(b.norms, [3, 2], atol=1e-15)

    def test_worked_three_point_j3(self):
        b = pg.build_basis(GRID3, 3)
        npt.assert_allclose(b.values[2], [1 / 3, -2 / 3, 1 / 3], atol=1e-14)
        assert b.norms[2] == pytest.approx(2 / 3, abs=1e-14)
        assert abs(b.values[2] @ b.values[1]) < 1e-14
        assert abs(b.values[2] @ b.values[0]) < 1e-14

    def test_order_one_is_constant(self):
        grid = pg.SampleGrid(np.sort(np.random.default_rng(0).uniform(0, 5, 17)))
        b = pg.build_basis(grid, 1)
        npt.assert_array_equal(b.values[0], np.ones(17))
        assert b.norms[0] == 17

    def test_matches_gram_schmidt_oracle(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.uniform(-2, 3, 25))
        grid = pg.SampleGrid(t)
        b = pg.build_basis(grid, 6)
        oracle = gram_schmidt_oracle(t, 6)
        for j in range(6):
            # same polynomial up to the leading-coefficient convention
            scale = b.values[j] @ oracle[j] / (oracle[j] @ oracle[j])
            npt.assert_allclose(b.values[j], scale * oracle[j], atol=1e-9)

    @pytest.mark.parametrize("N,J", [(16, 8), (64, 16), (256, 32), (1024, 32)])
    def test_orthogonality(self, N, J):
        grid = pg.SampleGrid.uniform(N, 0.15)
        b = pg.build_basis(grid, J)
        G = b.values @ b.values.T
        bound = 1e-10 * np.sqrt(np.outer(b.norms, b.norms))
        off = np.abs(G - np.diag(np.diag(G)))
        assert np.all(off <= bound)

    def test_degree_is_exact(self):
        grid = pg.SampleGrid.uniform(12, 1.0)
        b = pg.build_basis(grid, 5)
        for j in range(5):
            coeffs = np.polynomial.polynomial.polyfit(grid.points, b.values[j], j)
            recon = np.polynomial.polynomial.polyval(grid.points, coeffs)
            npt.assert_allclose(recon, b.values[j], atol=1e-8)

    def test_order_out_of_range(self):
        with pytest.raises(pg.OrderRangeError):
            pg.build_basis(GRID3, 4)
        with pytest.raises(pg.OrderRangeError):
            pg.build_basis(GRID3, 0)

    def test_degenerate_grid(self):
        t = np.arange(40) * 1e-30
        t[0] = 0.0
        with pytest.raises(pg.DegenerateGridError):
            pg.build_basis(pg.SampleGrid(t), 12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 80), st.floats(0.05, 0.5), st.integers(0, 2**32 - 1), st.data())
    def test_prefix_of_higher_order_is_bitwise_equal(self, N, dt, seed, data):
        jitter = np.random.default_rng(seed).uniform(-0.4, 0.4, N)
        grid = pg.SampleGrid((np.arange(N) + jitter) * dt)
        K = data.draw(st.integers(1, N))
        J = data.draw(st.integers(1, K))
        full, part = pg.build_basis(grid, K), pg.build_basis(grid, J)
        npt.assert_array_equal(full.values[:J], part.values)
        npt.assert_array_equal(full.norms[:J], part.norms)

    @pytest.mark.filterwarnings("error")  # an overflow warning must not come first
    def test_grid_validation(self):
        with pytest.raises(pg.ConfigError):
            pg.SampleGrid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(pg.ConfigError):
            pg.SampleGrid(np.array([1.0]))
        with pytest.raises(pg.ConfigError):
            pg.SampleGrid(np.array([1e308, -1e308]))
        for dt in (1e308, np.inf):
            with pytest.raises(pg.ConfigError, match="finite"):
                pg.SampleGrid.uniform(60, dt)
        for dt in (0.0, -0.15):
            with pytest.raises(pg.ConfigError, match="dt > 0"):
                pg.SampleGrid.uniform(60, dt)
        for n in (2**62, 2**63 - 1, np.int64(2**62)):  # arange raises, or wraps to empty
            with pytest.raises(pg.ConfigError, match="larger than any array"):
                pg.SampleGrid.uniform(n, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_span_beyond_float64_without_warning(self):
        # the neighbours' difference overflows float64; the order check never forms it
        assert pg.SampleGrid(np.array([-1e308, 1e308])).count == 2


class TestProjectionOperator:
    def test_worked_three_point(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        npt.assert_allclose(op.xi, H3_J2, atol=1e-14)
        assert np.trace(op.xi) == pytest.approx(2.0, abs=1e-14)

    def test_full_basis_is_identity(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 3))
        npt.assert_allclose(op.xi, np.eye(3), atol=1e-12)

    def test_order_one_is_averaging(self):
        grid = pg.SampleGrid(np.array([0.0, 0.3, 1.1, 4.0]))
        op = pg.projection_operator(pg.build_basis(grid, 1))
        npt.assert_allclose(op.xi, np.full((4, 4), 0.25), atol=1e-15)

    @pytest.mark.parametrize("J", [2, 5, 9, 20])
    def test_projection_laws(self, J):
        grid = pg.SampleGrid.uniform(60, 0.15)
        b = pg.build_basis(grid, J)
        H = pg.projection_operator(b).xi
        npt.assert_array_equal(H, H.T)
        assert np.max(np.abs(H @ H - H)) <= 1e-10
        assert abs(np.trace(H) - J) <= 1e-9
        npt.assert_allclose(H.sum(axis=1), np.ones(60), atol=1e-10)
        for j in range(J):
            npt.assert_allclose(H @ b.values[j], b.values[j], atol=1e-10)

    def test_xi_matches_dense_construction(self):
        grid = pg.SampleGrid.uniform(8, 0.5)
        b = pg.build_basis(grid, 4)
        H = pg.projection_operator(b).xi
        manual = np.zeros((8, 8))
        for n in range(8):
            for m in range(8):
                manual[n, m] = sum(b.values[j, n] * b.values[j, m] / b.norms[j]
                                   for j in range(4))
        npt.assert_allclose(H, manual, atol=1e-13)
        assert np.isfinite(np.max(np.abs(H)))


class TestTransform:
    def test_worked_impulse(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        y = pg.transform(op, pg.Sequence(np.array([1.0, 0.0, 0.0]), GRID3))
        npt.assert_allclose(y.values, [5 / 6, 1 / 3, -1 / 6], atol=1e-12)

    def test_linear_data_reproduced(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        y = pg.transform(op, pg.Sequence(np.array([0.0, 1.0, 2.0]), GRID3))
        npt.assert_allclose(y.values, [0, 1, 2], atol=1e-13)

    def test_overflowing_fit_raises(self):
        # finite values whose coefficients overflow; no RuntimeWarning comes first
        grid = pg.SampleGrid.uniform(240, 0.0375)
        op = pg.projection_operator(pg.build_basis(grid, 3))
        x = pg.Sequence(1.5e307 + 1e307 * np.sin(grid.points), grid)
        with pytest.raises(pg.DegenerateDataError, match="fit overflows"):
            pg.transform(op, x)

    def test_full_order_identity(self):
        grid = pg.SampleGrid.uniform(20, 0.1)
        op = pg.projection_operator(pg.build_basis(grid, 20))
        x = np.random.default_rng(3).standard_normal(20)
        y = pg.transform(op, pg.Sequence(x, grid))
        npt.assert_allclose(y.values, x, atol=1e-10)

    def test_coefficient_route_matches_dense(self):
        grid = pg.SampleGrid.uniform(60, 0.15)
        op = pg.projection_operator(pg.build_basis(grid, 9))
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.standard_normal(60)
            y = pg.transform(op, pg.Sequence(x, grid))
            npt.assert_allclose(y.values, op.xi @ x, atol=1e-12)

    def test_coefficients_of_an_ensemble(self):
        from polygauss.ortho import coefficients

        basis = pg.build_basis(pg.SampleGrid.uniform(60, 0.15), 7)
        X = np.random.default_rng(23).standard_normal((50, 60))
        C = coefficients(basis, X)
        assert C.shape == (50, 7)
        # C @ P is the orthogonal projection: its residual is orthogonal to every row
        inner = (X - C @ basis.values) @ basis.values.T
        scale = np.linalg.norm(X, axis=1)[:, None] * np.sqrt(basis.norms)
        assert np.all(np.abs(inner) <= 1e-13 * scale)

    def test_low_order_never_forms_dense_projector(self):
        N = 2000
        grid = pg.SampleGrid.uniform(N, 0.01)
        x = pg.Sequence(np.random.default_rng(5).standard_normal(N), grid)
        tracemalloc.start()
        try:
            pg.transform(pg.projection_operator(pg.build_basis(grid, 3)), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < N * N * 8 / 10  # one dense N x N float64 matrix is N*N*8 bytes

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=5, max_size=5))
    def test_polynomial_reproduction(self, alphas):
        grid = pg.SampleGrid.uniform(40, 0.15)
        J = len(alphas)
        x = np.polynomial.polynomial.polyval(grid.points, alphas)
        op = pg.projection_operator(pg.build_basis(grid, J))
        y = pg.transform(op, pg.Sequence(x, grid))
        npt.assert_allclose(y.values, x, atol=1e-9)

    def test_linearity(self):
        grid = pg.SampleGrid.uniform(30, 0.2)
        op = pg.projection_operator(pg.build_basis(grid, 6))
        rng = np.random.default_rng(5)
        x1, x2 = rng.standard_normal((2, 30))
        a, b = 2.5, -0.75
        lhs = pg.transform(op, pg.Sequence(a * x1 + b * x2, grid)).values
        rhs = (a * pg.transform(op, pg.Sequence(x1, grid)).values
               + b * pg.transform(op, pg.Sequence(x2, grid)).values)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        other = pg.SampleGrid.uniform(4, 1.0)
        with pytest.raises(pg.DimensionError):
            pg.transform(op, pg.Sequence(np.zeros(4), other))
        # a record whose length differs from its own grid is no sequence at all
        with pytest.raises(pg.DimensionError, match="does not match grid count"):
            pg.Sequence(np.zeros(4), GRID3)

    def test_same_count_other_points_rejected(self):
        # fitted on its own grid the record would come back unchanged
        grid = pg.SampleGrid(np.array([0.0, 1, 2, 4, 8]))
        op = pg.projection_operator(pg.build_basis(grid, 2))
        with pytest.raises(pg.DimensionError):
            pg.transform(op, pg.Sequence(np.arange(5.0), pg.SampleGrid.uniform(5, 1.0)))

    def test_error_process_matches_mixing_sum(self):
        # with zero signal the transform output equals the coefficient-mixed noise
        grid = pg.SampleGrid.uniform(60, 0.15)
        op = pg.projection_operator(pg.build_basis(grid, 7))
        rng = np.random.default_rng(17)
        for _ in range(20):
            w = rng.standard_normal(60)
            e = pg.transform(op, pg.Sequence(w, grid)).values
            npt.assert_allclose(e, op.xi @ w, atol=1e-12)


class TestErrorCovariance:
    def test_white_noise_gives_projector(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        cov = pg.error_covariance(op, np.eye(3))
        npt.assert_allclose(cov, H3_J2, atol=1e-12)
        npt.assert_allclose(np.diag(cov), [5 / 6, 1 / 3, 5 / 6], atol=1e-12)
        assert np.trace(cov) == pytest.approx(2.0, abs=1e-12)

    def test_idempotence_for_scaled_white(self):
        grid = pg.SampleGrid.uniform(25, 0.3)
        op = pg.projection_operator(pg.build_basis(grid, 8))
        cov = pg.error_covariance(op, 2.7 * np.eye(25))
        npt.assert_allclose(cov, 2.7 * op.xi, atol=1e-10)

    def test_zero_covariance(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        npt.assert_array_equal(pg.error_covariance(op, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_full_order_passthrough(self):
        grid = pg.SampleGrid.uniform(10, 1.0)
        op = pg.projection_operator(pg.build_basis(grid, 10))
        A = np.random.default_rng(2).standard_normal((10, 10))
        S = A @ A.T
        npt.assert_allclose(pg.error_covariance(op, S), S, atol=1e-10 * np.max(np.abs(S)))

    def test_rounding_asymmetry_accepted_at_any_scale(self):
        grid = pg.SampleGrid.uniform(25, 0.3)
        op = pg.projection_operator(pg.build_basis(grid, 8))
        rng = np.random.default_rng(12)
        B = rng.standard_normal((25, 25))
        A = rng.standard_normal((25, 25))
        S = 1e4 * (B @ (A @ A.T) @ B.T)
        assert np.max(np.abs(S - S.T)) > 1e-9  # the product is not exactly symmetric
        npt.assert_allclose(pg.error_covariance(op, S), op.xi @ S @ op.xi,
                            atol=1e-10 * np.max(np.abs(S)))

    def test_tiny_asymmetric_rejected(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        S = 1e-12 * np.eye(3)
        S[0, 1] = S[0, 0]
        with pytest.raises(pg.InvalidCovarianceError):
            pg.error_covariance(op, S)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        with pytest.raises(pg.InvalidCovarianceError):
            pg.error_covariance(op, np.full((3, 3), bad))

    def test_overflowing_covariance_raises(self):
        # finite and symmetric, but H S H^T overflows float64; no RuntimeWarning comes first
        op = pg.projection_operator(pg.build_basis(pg.SampleGrid.uniform(60, 0.15), 3))
        with pytest.raises(pg.DegenerateDataError, match="error covariance overflows"):
            pg.error_covariance(op, np.full((60, 60), 1.7e308))

    def test_asymmetric_rejected(self):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        S = np.eye(3)
        S[0, 1] = 1e-3
        with pytest.raises(pg.InvalidCovarianceError):
            pg.error_covariance(op, S)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4), (3,)])
    def test_wrong_shape_rejected(self, shape):
        op = pg.projection_operator(pg.build_basis(GRID3, 2))
        with pytest.raises(pg.DimensionError, match="covariance must be 3x3"):
            pg.error_covariance(op, np.ones(shape))


class TestSelectOrder:
    def test_oracle_noiseless(self):
        g = pg.Sequence(np.array([0.0, 1.0, 4.0]), GRID3)
        sel = pg.select_order(GRID3, "oracle", range(1, 4), signal=g, noise_var=0.0)
        risks = [r for _, r in sel.risk_curve]
        npt.assert_allclose(risks, [26 / 9, 2 / 9, 0.0], atol=1e-12)
        assert sel.chosen == 3

    def test_oracle_with_noise(self):
        g = pg.Sequence(np.array([0.0, 1.0, 4.0]), GRID3)
        sel = pg.select_order(GRID3, "oracle", range(1, 4), signal=g, noise_var=1.0)
        risks = [r for _, r in sel.risk_curve]
        npt.assert_allclose(risks, [29 / 9, 8 / 9, 1.0], atol=1e-12)
        assert sel.chosen == 2

    def test_penalized_prefers_true_degree(self):
        grid = pg.SampleGrid.uniform(50, 0.1)
        rng = np.random.default_rng(23)
        x = 1.0 + 2.0 * grid.points - 0.5 * grid.points**2 + 0.05 * rng.standard_normal(50)
        sel = pg.select_order(grid, "penalized", range(1, 13),
                              observed=pg.Sequence(x, grid), noise_var=0.05**2)
        assert sel.chosen == 3

    def test_errors(self):
        g = pg.Sequence(np.zeros(3), GRID3)
        with pytest.raises(pg.ConfigError):
            pg.select_order(GRID3, "oracle", [], signal=g, noise_var=1.0)
        with pytest.raises(pg.ConfigError):
            pg.select_order(GRID3, "oracle", [1, 2], signal=g, noise_var=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(pg.ConfigError):
                pg.select_order(GRID3, "penalized", [1, 2], observed=g, noise_var=bad)
        with pytest.raises(pg.ConfigError):
            pg.select_order(GRID3, "bogus", [1, 2])
        for j_range in ([0, 1], [2, 4]):
            with pytest.raises(pg.OrderRangeError, match=r"outside \[1, 3\]"):
                pg.select_order(GRID3, "oracle", j_range, signal=g, noise_var=1.0)
        with pytest.raises(pg.ConfigError, match="oracle mode needs the clean signal"):
            pg.select_order(GRID3, "oracle", [1, 2], observed=g, noise_var=1.0)
        with pytest.raises(pg.ConfigError, match="penalized mode needs the observed record"):
            pg.select_order(GRID3, "penalized", [1, 2], signal=g, noise_var=1.0)

    @pytest.mark.parametrize("mode,key", [("oracle", "signal"), ("penalized", "observed")])
    @pytest.mark.parametrize("n", [5, 6])
    def test_record_off_the_grid_rejected(self, mode, key, n):
        grid = pg.SampleGrid(np.array([0.0, 1, 2, 4, 8]))
        record = pg.Sequence(np.arange(float(n)), pg.SampleGrid.uniform(n, 1.0))
        with pytest.raises(pg.DimensionError):
            pg.select_order(grid, mode, [1, 2], noise_var=1.0, **{key: record})

    @pytest.mark.parametrize("mode", ["oracle", "penalized"])
    @pytest.mark.parametrize("N,j_range", [(60, None), (240, None), (60, range(2, 9))])
    def test_risk_curve_matches_per_order_builds(self, mode, N, j_range):
        grid = pg.SampleGrid.uniform(N, 9.0 / N)
        rng = np.random.default_rng(N)
        g = np.exp(-0.3 * grid.points) * np.cos(2.0 * grid.points)
        x = g + 0.2 * rng.laplace(size=N)
        noise_var = 0.08
        sel = pg.select_order(grid, mode, j_range, signal=pg.Sequence(g, grid),
                              observed=pg.Sequence(x, grid), noise_var=noise_var)
        data = g if mode == "oracle" else x
        penalty = (1.0 if mode == "oracle" else 2.0) * noise_var / N
        reference = []
        for J in (j_range or range(1, N + 1)):
            b = pg.build_basis(grid, J)
            fit = (b.values @ data) / b.norms @ b.values
            reference.append((J, float(np.sum((data - fit) ** 2) / N + penalty * J)))
        # the curve sums the fit as a running sum over the rows, the reference as
        # one product per order: the same terms, added in another order
        assert [j for j, _ in sel.risk_curve] == [j for j, _ in reference]
        for (_, r), (_, ref) in zip(sel.risk_curve, reference):
            assert abs(r - ref) <= 16 * math.ulp(ref)
        assert sel.chosen == min(reference, key=lambda jr: (jr[1], jr[0]))[0]

    def test_one_basis_build_and_no_per_order_fit(self, monkeypatch):
        from polygauss import ortho

        builds, fits = [], []
        build_basis, coefficients = ortho.build_basis, ortho.coefficients
        monkeypatch.setattr(ortho, "coefficients",
                            lambda *a: fits.append(a[0].values.shape[0]) or coefficients(*a))
        monkeypatch.setattr(ortho, "build_basis",
                            lambda *a: builds.append(a[1]) or build_basis(*a))
        grid = pg.SampleGrid.uniform(60, 0.15)
        x = pg.Sequence(np.random.default_rng(4).standard_normal(60), grid)
        sel = pg.select_order(grid, "penalized", None, observed=x, noise_var=0.5)
        assert len(sel.risk_curve) == 60
        assert builds == [60]
        assert fits == [60]  # one coefficient pass on the one build, not one per order

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 4.0), st.data())
    def test_selection_carries_the_chosen_build(self, N, seed, noise_var, data):
        # the chosen rows are cut from the selection's one build; the recurrence is
        # prefix-nested, so they are the order-J build bit for bit
        rng = np.random.default_rng(seed)
        grid = pg.SampleGrid((np.arange(N) + rng.uniform(-0.4, 0.4, N)) * 0.15)
        x = pg.Sequence(np.cos(grid.points) + rng.standard_normal(N), grid)
        K = data.draw(st.integers(1, N))
        sel = pg.select_order(grid, "penalized", range(1, K + 1), observed=x,
                              noise_var=noise_var)
        ref = pg.build_basis(grid, sel.chosen)
        assert sel.basis.grid is grid
        for name in ("values", "norms"):
            npt.assert_array_equal(getattr(sel.basis, name), getattr(ref, name))

    @pytest.mark.parametrize("mode", ["oracle", "penalized"])
    def test_sparse_range_reads_the_dense_curve(self, mode):
        grid = pg.SampleGrid.uniform(30, 0.3)
        rng = np.random.default_rng(9)
        g = pg.Sequence(np.sin(grid.points), grid)
        x = pg.Sequence(g.values + 0.1 * rng.standard_normal(30), grid)
        kw = dict(signal=g, observed=x, noise_var=0.01)
        dense = dict(pg.select_order(grid, mode, range(1, 10), **kw).risk_curve)
        sparse = pg.select_order(grid, mode, [2, 5, 9], **kw)
        assert sparse.risk_curve == tuple((J, dense[J]) for J in (2, 5, 9))
        assert sparse.chosen == min(sparse.risk_curve, key=lambda jr: (jr[1], jr[0]))[0]

    def test_one_work_buffer_beyond_the_basis(self):
        N = 400
        grid = pg.SampleGrid.uniform(N, 9.0 / N)
        x = pg.Sequence(np.random.default_rng(6).standard_normal(N), grid)
        tracemalloc.start()
        try:
            pg.select_order(grid, "penalized", range(1, 301), observed=x, noise_var=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffer = 300 * N * 8  # one (J, N) float64 array
        assert peak < 2.5 * buffer  # the basis values and the work buffer

    @pytest.mark.parametrize("points,j_range", [
        (np.arange(40) * 1e-30, range(1, 13)),   # norms underflow
        (np.arange(500) * 9.0 / 500, None),      # values overflow at the top order
    ])
    def test_degenerate_top_order_raises(self, points, j_range):
        grid = pg.SampleGrid(points)
        x = pg.Sequence(np.ones(grid.count), grid)
        with pytest.raises(pg.DegenerateGridError):
            pg.select_order(grid, "penalized", j_range, observed=x, noise_var=1.0)

    @pytest.mark.parametrize("scale,noise_var", [
        (1e160, 1.0),   # the squared residuals overflow
        (1.0, 1e308),   # the penalty 2 sigma^2 / N overflows
    ])
    def test_overflowing_risk_curve_raises(self, scale, noise_var):
        # no order is picked from inf or nan risks, and no RuntimeWarning is raised
        grid = pg.SampleGrid.uniform(240, 0.0375)
        x = pg.Sequence(scale * np.sin(grid.points), grid)
        with pytest.raises(pg.DegenerateDataError, match="risk curve"):
            pg.select_order(grid, "penalized", None, observed=x, noise_var=noise_var)

    @pytest.mark.parametrize("j_range", [[2, 1, 3], [1, 2, 2], [1, 2.5], [1.0, 2.0]])
    def test_malformed_order_range(self, j_range):
        # rejected before any basis is built, so the degenerate grid never raises
        grid = pg.SampleGrid(np.arange(40) * 1e-30)
        x = pg.Sequence(np.ones(40), grid)
        with pytest.raises(pg.ConfigError) as exc:
            pg.select_order(grid, "penalized", j_range, observed=x, noise_var=1.0)
        assert not isinstance(exc.value, pg.OrderRangeError)
