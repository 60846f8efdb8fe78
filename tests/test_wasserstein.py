"""Wasserstein-1 by linear programming: catalog values and duality checks."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgp.wasserstein import (
    TRIANGLE_ROWS,
    FiniteMetricSpace,
    Measure,
    lambda_measure,
    measure_from_json,
    measure_to_json,
    product_measure,
    product_space,
    space_from_json,
    space_to_json,
    w1,
)

SQRT2 = math.sqrt(2.0)


def k_lambda(lam):
    return lam + SQRT2 * (1.0 - lam)


class TestSegment:
    def test_w1_equals_lambda(self):
        seg = FiniteMetricSpace.segment()
        m0 = lambda_measure(seg, 0.0)
        for lam in np.linspace(0.1, 0.9, 9):
            res = w1(seg, lambda_measure(seg, lam), m0)
            assert res.value == pytest.approx(lam, abs=1e-12)

    def test_identical_measures(self):
        seg = FiniteMetricSpace.segment()
        m = lambda_measure(seg, 0.4)
        res = w1(seg, m, m)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert np.abs(res.plan - np.diag(m.weights)).max() < 1e-10


class TestSquare:
    def test_product_value_formula(self):
        seg = FiniteMetricSpace.segment()
        square = product_space(seg, seg)
        m0 = product_measure(lambda_measure(seg, 0.0), lambda_measure(seg, 0.0), square)
        for lam in (0.1, 0.45, 0.9):
            m = product_measure(lambda_measure(seg, lam), lambda_measure(seg, lam), square)
            res = w1(square, m, m0)
            assert res.value == pytest.approx(SQRT2 * lam * k_lambda(lam), abs=1e-9)

    def test_pure_state_pythagoras(self):
        seg = FiniteMetricSpace.segment()
        square = product_space(seg, seg)
        m1 = product_measure(lambda_measure(seg, 1.0), lambda_measure(seg, 1.0), square)
        m0 = product_measure(lambda_measure(seg, 0.0), lambda_measure(seg, 0.0), square)
        assert w1(square, m1, m0).value == pytest.approx(SQRT2, abs=1e-12)

    def test_ratio_sweep_covers_interval_monotonically(self):
        seg = FiniteMetricSpace.segment()
        square = product_space(seg, seg)
        m0seg = lambda_measure(seg, 0.0)
        m0 = product_measure(m0seg, m0seg, square)
        ratios = []
        for lam in np.arange(0.01, 1.0, 0.01):
            mseg = lambda_measure(seg, lam)
            wseg = w1(seg, mseg, m0seg).value
            wsq = w1(square, product_measure(mseg, mseg, square), m0).value
            ratios.append(wsq / math.hypot(wseg, wseg))
        ratios = np.array(ratios)
        assert np.all(np.diff(ratios) < 0)            # decreasing in lambda
        assert ratios[0] > SQRT2 - 0.01
        assert ratios[-1] < 1.0 + 0.01
        assert np.allclose(ratios, [k_lambda(l) for l in np.arange(0.01, 1.0, 0.01)],
                           atol=1e-9)


class TestProductSpace:
    def test_unit_square_diagonal(self):
        seg = FiniteMetricSpace.segment()
        square = product_space(seg, seg)
        assert square.dist[0, 3] == pytest.approx(SQRT2, abs=1e-15)
        assert square.dist[0, 1] == pytest.approx(1.0)

    def test_single_point_factor_is_isometric(self):
        seg = FiniteMetricSpace.segment()
        point = FiniteMetricSpace.euclidean(("p",), [[5.0]])
        prod = product_space(seg, point)
        assert np.allclose(prod.dist, seg.dist, atol=1e-15)

    def test_grid_against_formula(self):
        line = FiniteMetricSpace.euclidean(("a", "b", "c"), [[0.0], [1.0], [3.0]])
        grid = product_space(line, line)
        for i1 in range(3):
            for i2 in range(3):
                for j1 in range(3):
                    for j2 in range(3):
                        want = math.hypot(line.dist[i1, j1], line.dist[i2, j2])
                        assert grid.dist[i1 * 3 + i2, j1 * 3 + j2] == pytest.approx(want)


class TestDualityAndFeasibility:
    def test_dirac_measures_recover_ground_metric(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        space = FiniteMetricSpace.euclidean(tuple("abcdef"), pts)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                res = w1(space, Measure.dirac(space, i), Measure.dirac(space, j))
                assert res.value == pytest.approx(space.dist[i, j], abs=1e-10)

    def test_potential_is_lipschitz_and_gauged(self):
        rng = np.random.default_rng(1)
        space = FiniteMetricSpace.euclidean(tuple("abcd"), rng.normal(size=(4, 2)))
        mu = Measure(space, np.array([0.4, 0.3, 0.2, 0.1]))
        nu = Measure(space, np.array([0.1, 0.2, 0.3, 0.4]))
        res = w1(space, mu, nu)
        assert res.potential[0] == 0.0
        excess = np.abs(res.potential[:, None] - res.potential[None, :]) - space.dist
        assert excess.max() <= 1e-9
        # dual objective equals primal cost
        dual_val = float(res.potential @ (mu.weights - nu.weights))
        assert dual_val == pytest.approx(res.value, abs=1e-9)
        assert np.abs(res.plan.sum(axis=1) - mu.weights).max() < 1e-10
        assert np.abs(res.plan.sum(axis=0) - nu.weights).max() < 1e-10

    @pytest.mark.parametrize("seed, index", [(204, 62), (708, 27)])
    def test_grid_inputs_with_degenerate_duals(self, seed, index):
        # 11 x 11 grid inputs on which solving the dual as a second LP, apart
        # from the primal, left a duality gap above 1e-9
        seg = FiniteMetricSpace.euclidean([str(i) for i in range(11)],
                                          np.linspace(0.0, 1.0, 11)[:, None])
        grid = product_space(seg, seg)
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            a, b = rng.random((2, grid.size)) + 0.05
        res = w1(grid, Measure(grid, a / a.sum()), Measure(grid, b / b.sum()))
        assert float(np.sum(res.plan * grid.dist)) == pytest.approx(res.value, abs=1e-9)
        assert res.potential[0] == 0.0
        excess = np.abs(res.potential[:, None] - res.potential[None, :]) - grid.dist
        assert excess.max() <= 1e-9

    @pytest.mark.parametrize("cloud", [False, True])
    def test_value_scales_with_the_distances(self, cloud):
        # w1(s d) = s w1(d) at every scale: the LP, the duality-gap check and
        # the metric checks are all relative to the largest distance
        rng = np.random.default_rng(0)
        if cloud:
            pts = rng.normal(size=(121, 2))
        else:
            x = np.linspace(0.0, 1.0, 11)
            pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        a, b = rng.random((2, 121)) + 0.05
        labels = [str(i) for i in range(121)]
        results = []
        for s in (1.0, 1e-15, 1e-12, 1e-9, 1e4, 1e9, 1e12):
            space = FiniteMetricSpace.euclidean(labels, s * pts)
            res = w1(space, Measure(space, a / a.sum()), Measure(space, b / b.sum()))
            results.append((s, res))
        base = results[0][1]
        for s, res in results[1:]:
            assert res.value / s == pytest.approx(base.value, rel=1e-9)
            assert np.allclose(res.potential / s, base.potential, rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=6))
    @example(seed=1_537_517_352, n1=5, n2=6)   # a second dual LP was not 1-Lipschitz here
    @example(seed=4768, n1=5, n2=2)   # HiGHS stopped 3e-9 above the optimum at default tolerances
    def test_pythagoras_sandwich_on_random_products(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        s1 = FiniteMetricSpace.euclidean(tuple(str(i) for i in range(n1)),
                                         rng.normal(size=(n1, 2)))
        s2 = FiniteMetricSpace.euclidean(tuple(str(i) for i in range(n2)),
                                         rng.normal(size=(n2, 2)))
        prod = product_space(s1, s2)

        def rand_measure(space):
            v = rng.uniform(0.05, 1.0, size=space.size)
            return Measure(space, v / v.sum())

        mu1, nu1 = rand_measure(s1), rand_measure(s1)
        mu2, nu2 = rand_measure(s2), rand_measure(s2)
        w_1 = w1(s1, mu1, nu1).value
        w_2 = w1(s2, mu2, nu2).value
        w_prod = w1(prod, product_measure(mu1, mu2, prod),
                    product_measure(nu1, nu2, prod)).value
        lo = math.hypot(w_1, w_2)
        assert lo - 1e-8 <= w_prod <= SQRT2 * lo + 1e-8


class TestValidation:
    def test_measure_must_normalize(self):
        seg = FiniteMetricSpace.segment()
        with pytest.raises(ValueError):
            Measure(seg, np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            Measure(seg, np.array([1.5, -0.5]))

    def test_space_must_be_metric(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(("a", "b"), np.zeros((2, 1)),
                              np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            # triangle inequality violated
            FiniteMetricSpace(("a", "b", "c"), np.zeros((3, 1)),
                              np.array([[0.0, 1.0, 5.0],
                                        [1.0, 0.0, 1.0],
                                        [5.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e9])
    def test_metric_checks_are_relative(self, s):
        # a grid scaled by s is a metric; breaking the triangle inequality by
        # a relative 1e-9 is not, at any scale
        x = s * np.linspace(0.0, 1.0, 11)[:, None]
        seg = FiniteMetricSpace.euclidean([str(i) for i in range(11)], x)
        assert product_space(seg, seg).size == 121
        d = s * np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d[0, 2] = d[2, 0] = 2.0 * s * (1.0 + 1e-9)
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace(("a", "b", "c"), np.zeros((3, 1)), d)

    def test_triangle_violation_in_the_last_rows_is_caught(self):
        # points 0, 1, ..., n - 1 on a line, with d(n - 2, n - 1) = 3 (1 + 1e-9)
        # against the path through n - 3 of length 3: only rows n - 2 and
        # n - 1 see the violation, and both lie in the check's last pass
        n = 2 * TRIANGLE_ROWS + 2
        x = np.arange(float(n))
        d = np.abs(x[:, None] - x[None, :])
        d[n - 2, n - 1] = d[n - 1, n - 2] = 3.0 * (1.0 + 1e-9)
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace(tuple(map(str, range(n))), x[:, None], d)

    def test_triangle_check_memory_is_quadratic(self):
        # 400 points: the check once took an n^3 temporary, 491 MB
        seg = FiniteMetricSpace.euclidean([str(i) for i in range(20)],
                                          np.linspace(0.0, 1.0, 20)[:, None])
        tracemalloc.start()
        try:
            space = product_space(seg, seg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.size == 400
        assert peak < 50e6

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_are_rejected(self, bad):
        # every comparison with NaN is false, so the range checks alone let
        # NaN weights, distances and coordinates through
        seg = FiniteMetricSpace.segment()
        with pytest.raises(ValueError, match="finite"):
            Measure(seg, np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            FiniteMetricSpace(("a", "b"), np.zeros((2, 1)),
                              np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            FiniteMetricSpace(("a", "b"), np.array([[0.0], [bad]]), seg.dist)
        with pytest.raises(ValueError, match="finite"):
            FiniteMetricSpace.euclidean(("a", "b"), [[0.0], [bad]])

    def test_measure_space_mismatch(self):
        seg = FiniteMetricSpace.segment()
        line3 = FiniteMetricSpace.euclidean(("a", "b", "c"), [[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            w1(seg, Measure.dirac(line3, 0), Measure.dirac(seg, 0))


def test_json_round_trip():
    seg = FiniteMetricSpace.segment()
    back = space_from_json(json.loads(json.dumps(space_to_json(seg))))
    assert np.array_equal(back.dist, seg.dist)
    assert back.labels == seg.labels
    m = lambda_measure(seg, 0.25)
    back_m = measure_from_json(back, json.loads(json.dumps(measure_to_json(m))))
    assert np.array_equal(back_m.weights, m.weights)
