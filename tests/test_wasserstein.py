"""Wasserstein-1 by linear programming: catalog values and duality checks."""

import json
import math
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import ncgp
from ncgp import wasserstein
from ncgp.tolerances import GAP_TOL, MARGINAL_TOL, STRUCT_TOL
from ncgp.wasserstein import (
    HIGHS_OPTIONS,
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
# HIGHS_OPTIONS in scipy linprog's form: the same tolerances, presolve off;
# linprog(method="highs") sets the dual simplex and no output itself
LINPROG_OPTIONS = {key: HIGHS_OPTIONS[key]
                   for key in ("primal_feasibility_tolerance", "dual_feasibility_tolerance")}
LINPROG_OPTIONS["presolve"] = False


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

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e9])
    @pytest.mark.parametrize("seed", range(4))
    def test_imbalance_below_the_feasibility_tolerance(self, scale, seed):
        # mu - nu = 1e-11 (e_i - e_j), below HiGHS's 1e-10 feasibility
        # tolerance: HiGHS may return the zero plan, so the value carries only
        # the absolute accuracy that w1 documents, not a relative one
        seg = FiniteMetricSpace.euclidean([str(i) for i in range(11)],
                                          scale * np.linspace(0.0, 1.0, 11)[:, None])
        grid = product_space(seg, seg)
        rng = np.random.default_rng(seed)
        a = rng.random(grid.size) + 0.05
        mu = a / a.sum()
        nu = mu.copy()
        i, j = rng.choice(grid.size, 2, replace=False)
        nu[i] -= 1e-11
        nu[j] += 1e-11
        res = w1(grid, Measure(grid, mu), Measure(grid, nu))
        bound = (GAP_TOL + grid.size * MARGINAL_TOL) * grid.dist.max()
        assert abs(res.value - (mu[i] - nu[i]) * grid.dist[i, j]) <= bound

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


def dense_w1(d, mu, nu):
    """The transport LP on all n^2 pairs, with w1's checks: the value, or ValueError.

    min <d, P> over P >= 0 with row sums mu and column sums nu, on d over its
    largest entry; the potential is the c-transform of all n column duals.
    """
    n = len(mu)
    scale = float(d.max()) or 1.0
    d = d / scale
    a_eq = np.vstack([np.kron(np.eye(n), np.ones((1, n))), np.kron(np.ones((1, n)), np.eye(n))])
    res = linprog(d.reshape(-1), A_eq=a_eq, b_eq=np.concatenate([mu, nu]), bounds=(0, None),
                  method="highs", options=LINPROG_OPTIONS)
    if not res.success:
        raise ValueError(res.message)
    plan = res.x.reshape(n, n)
    if max(np.abs(plan.sum(axis=1) - mu).max(), np.abs(plan.sum(axis=0) - nu).max()) > MARGINAL_TOL:
        raise ValueError("marginals")
    f = np.min(d - res.eqlin.marginals[n:], axis=1)
    f -= f[0]
    if abs(res.fun - f @ (mu - nu)) > GAP_TOL or (np.abs(f[:, None] - f) - d).max() > GAP_TOL:
        raise ValueError("duality")
    return res.fun * scale


def graph_metric(rng, n):
    """Shortest paths on a random connected graph with integer edge weights 0-3.

    Zero-weight edges make a pseudometric; integer lengths make many tied
    costs, so the transport LPs are degenerate.
    """
    w = np.where(rng.random((n, n)) < 0.3, rng.integers(0, 4, (n, n)), np.inf)
    w[np.arange(n - 1), np.arange(1, n)] = rng.integers(1, 4, n - 1)   # a spanning path
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    for k in range(n):
        w = np.minimum(w, w[:, k:k + 1] + w[k:k + 1, :])
    return FiniteMetricSpace(tuple(map(str, range(n))), np.zeros((n, 1)), w)


def tied_pair(rng, n):
    """Two different probability vectors with zeros and exact ties mu_i = nu_i
    at 1 to n - 2 of the n >= 3 points."""
    tie = rng.permutation(n) < rng.integers(1, n - 1)
    mu, nu = np.zeros((2, n))
    mu[tie] = nu[tie] = rng.integers(0, 4, tie.sum()) / (4.0 * n)
    while np.array_equal(mu, nu):
        rest = rng.integers(0, 4, (2, n - tie.sum())).astype(float)
        rest[:, 0] += 1.0
        mu[~tie], nu[~tie] = rest * (1.0 - mu[tie].sum()) / rest.sum(axis=1, keepdims=True)
    return mu, nu


def grid_space():
    seg = FiniteMetricSpace.euclidean([str(i) for i in range(11)],
                                      np.linspace(0.0, 1.0, 11)[:, None])
    return product_space(seg, seg)


class TestImbalanceReduction:
    """w1 ships only (mu - nu)+ to (mu - nu)-; min(mu, nu) stays on the diagonal."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_dense_lp_on_graph_metrics(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        space = graph_metric(rng, n)
        mu, nu = tied_pair(rng, n)
        assert np.any(mu == nu) and np.any(mu != nu)
        res = w1(space, Measure(space, mu), Measure(space, nu))
        assert res.value == pytest.approx(dense_w1(space.dist, mu, nu), rel=1e-12, abs=1e-15)
        assert float(np.sum(res.plan * space.dist)) == pytest.approx(res.value, rel=1e-12)
        assert np.diag(res.plan) == pytest.approx(np.minimum(mu, nu), abs=1e-15)

    def test_equal_measures_solve_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(wasserstein, "linprog", no_lp)
        space = grid_space()
        weights = np.random.default_rng(3).random(space.size)
        m = Measure(space, weights / weights.sum())
        res = w1(space, m, Measure(space, m.weights.copy()))
        assert res.value == 0.0
        assert np.array_equal(res.plan, np.diag(m.weights))
        assert np.array_equal(res.potential, np.zeros(space.size))

    def test_diracs_move_their_whole_mass(self):
        space = grid_space()
        res = w1(space, Measure.dirac(space, 0), Measure.dirac(space, 120))
        assert res.value == pytest.approx(SQRT2, rel=1e-14)
        want = np.zeros((121, 121))
        want[0, 120] = 1.0
        assert np.array_equal(res.plan, want)
        assert res.potential[120] == pytest.approx(-SQRT2, rel=1e-12)

    def test_disjoint_supports(self):
        rng = np.random.default_rng(5)
        space = graph_metric(rng, 10)
        mu = np.r_[rng.random(5), np.zeros(5)]
        nu = np.r_[np.zeros(5), rng.random(5)]
        mu, nu = mu / mu.sum(), nu / nu.sum()
        res = w1(space, Measure(space, mu), Measure(space, nu))
        assert res.value == pytest.approx(dense_w1(space.dist, mu, nu), rel=1e-12)
        assert np.all(res.plan[5:] == 0) and np.all(res.plan[:, :5] == 0)

    @pytest.mark.parametrize("shift", [0.9 * STRUCT_TOL, -0.9 * STRUCT_TOL, 0.3 * STRUCT_TOL])
    @pytest.mark.parametrize("one_sided", [False, True])
    def test_totals_within_struct_tol_agree_with_the_dense_lp(self, shift, one_sided):
        # mu's total off 1 by up to STRUCT_TOL, which Measure admits; with
        # one_sided, mu = nu except at one point, so S- or S+ is empty and no
        # LP runs: the marginal check alone decides
        rng = np.random.default_rng(7)
        space = graph_metric(rng, 8)
        nu = rng.random(8)
        nu /= nu.sum()
        mu = nu.copy() if one_sided else rng.permutation(nu)
        mu[3] += shift
        m, n = Measure(space, mu), Measure(space, nu)
        outcomes = []
        for solve in (lambda: w1(space, m, n).value,
                      lambda: dense_w1(space.dist, mu, nu)):
            try:
                outcomes.append(solve())
            except ValueError:
                outcomes.append(None)
        assert (outcomes[0] is None) == (outcomes[1] is None)
        if outcomes[0] is not None:
            assert outcomes[0] == pytest.approx(outcomes[1], rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("same", [False, True])
    def test_slightly_negative_weights_keep_the_plan_nonnegative(self, same):
        # Measure admits weights down to -STRUCT_TOL; the diagonal min(mu, nu)
        # is clipped there, as the dense LP's bounds P >= 0 did
        space = grid_space()
        rng = np.random.default_rng(9)
        mu = rng.random(space.size)
        mu /= mu.sum()
        mu[0], mu[1] = -0.5 * STRUCT_TOL, mu[1] + mu[0] + 0.5 * STRUCT_TOL
        nu = mu.copy() if same else rng.permutation(mu)
        res = w1(space, Measure(space, mu), Measure(space, nu))
        assert res.plan.min() >= 0.0
        assert res.value == pytest.approx(dense_w1(space.dist, mu, nu), rel=1e-9, abs=1e-11)

    def test_lp_is_the_imbalance_block_only(self, monkeypatch):
        # |S+| x |S-| variables with two ones a column, not n^2 variables, as
        # HiGHS holds the model
        highs = wasserstein._highs()
        models = []

        class Recorder(highs._Highs):
            def passModel(self, *args):
                status = super().passModel(*args)
                models.append((self.getNumCol(), self.getNumRow(), self.getNumNz()))
                return status

        monkeypatch.setattr(highs, "_Highs", Recorder)
        space = grid_space()
        a, b = np.random.default_rng(1).random((2, space.size)) + 0.05
        mu, nu = Measure(space, a / a.sum()), Measure(space, b / b.sum())
        w1(space, mu, nu)
        s, t = np.sum(mu.weights > nu.weights), np.sum(mu.weights < nu.weights)
        assert models == [(s * t, s + t, 2 * s * t)]
        assert s * t < space.size ** 2 // 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=3, max_value=10),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @example(seed=0, n=3, t=1e-10)   # HiGHS returns the zero plan: the imbalance is below 1e-10
    def test_mixing_in_a_common_measure_scales_the_distance(self, seed, n, t):
        # Kantorovich-Rubinstein: w1 depends on mu - nu only, so
        # w1(t mu + (1 - t) rho, t nu + (1 - t) rho) = t w1(mu, nu), up to
        # what w1's checks vouch for: the gap to GAP_TOL and each marginal
        # to MARGINAL_TOL, times the largest distance
        rng = np.random.default_rng(seed)
        space = graph_metric(rng, n)
        mu, nu = tied_pair(rng, n)
        rho = rng.random(n)
        rho /= rho.sum()
        base = w1(space, Measure(space, mu), Measure(space, nu)).value
        mixed = w1(space, Measure(space, t * mu + (1 - t) * rho),
                   Measure(space, t * nu + (1 - t) * rho)).value
        slack = (GAP_TOL + n * MARGINAL_TOL) * space.dist.max()
        assert mixed == pytest.approx(t * base, rel=1e-9, abs=slack)


class TestHighsBinding:
    """wasserstein.linprog calls scipy's private HiGHS binding; these tests
    fail if a scipy release changes what that binding returns."""

    @staticmethod
    def grid_lp(seed):
        """The imbalance LP of w1 on one w1-grid-shaped input: cost, supply, demand."""
        space = grid_space()
        a, b = np.random.default_rng(seed).random((2, space.size)) + 0.05
        diff = a / a.sum() - b / b.sum()
        sp, sm = np.flatnonzero(diff > 0), np.flatnonzero(diff < 0)
        d = space.dist / space.dist.max()
        return d[np.ix_(sp, sm)].reshape(-1), diff[sp], -diff[sm]

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_scipy_linprog_bit_for_bit(self, seed):
        cost, supply, demand = self.grid_lp(seed)
        s, t = supply.size, demand.size
        rows = np.c_[np.repeat(np.arange(s), t), np.tile(np.arange(s, s + t), s)].ravel()
        a_eq = sparse.csc_array((np.ones(2 * s * t), rows, 2 * np.arange(s * t + 1)))
        want = linprog(cost, A_eq=a_eq, b_eq=np.r_[supply, demand], bounds=(0, None),
                       method="highs", options=LINPROG_OPTIONS)
        x, fun, duals = wasserstein.linprog(cost, supply, demand)
        assert want.success
        assert x.tobytes() == want.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(want.fun).tobytes()
        assert duals.tobytes() == want.eqlin.marginals.tobytes()

    def test_binding_is_searched_for_once(self, monkeypatch):
        # later calls return the registered module without a directory search
        first = wasserstein._highs()
        monkeypatch.setattr(wasserstein, "FileFinder", None)
        assert wasserstein._highs() is first is sys.modules[wasserstein.HIGHS_MODULE]

    def test_infeasible_lp_reports_highs_status(self):
        # Measure admits totals 1 +- STRUCT_TOL; weights of total 1 + 1e-6 set
        # past its check leave a transport LP whose supply exceeds its demand
        highs = wasserstein._highs()
        space = grid_space()
        mu, nu = Measure.dirac(space, 0), Measure.dirac(space, 120)
        object.__setattr__(mu, "weights", np.r_[1.0 + 1e-6, np.zeros(space.size - 1)])
        status = highs._Highs().modelStatusToString(highs.HighsModelStatus.kInfeasible)
        with pytest.raises(ValueError, match=f"^transport LP failed: {status}$"):
            w1(space, mu, nu)


class TestDegenerateClosedForms:
    """Transport LPs with the most ties for the simplex, against closed forms.

    The discrete metric prices every arc alike, and points on a line with
    repeated gaps make many plans optimal.  The comparison is to 1e-9
    relative, plus the absolute slack that w1's checks vouch for.
    """

    @staticmethod
    def measures(rng, n, tied):
        """tied_pair (zeros and exact ties) or two full-support measures."""
        if tied and n >= 3:
            return tied_pair(rng, n)
        a, b = rng.random((2, n)) + 0.05
        return a / a.sum(), b / b.sum()

    @staticmethod
    def assert_w1(space, mu, nu, want):
        value = w1(space, Measure(space, mu), Measure(space, nu)).value
        slack = (GAP_TOL + space.size * MARGINAL_TOL) * space.dist.max()
        assert value == pytest.approx(want, rel=1e-9, abs=slack)

    def discrete(self, rng, n, tied):
        # d_ij = 1 for i != j: W1 = ||mu - nu||_1 / 2
        space = FiniteMetricSpace(tuple(map(str, range(n))), np.zeros((n, 1)), 1.0 - np.eye(n))
        mu, nu = self.measures(rng, n, tied)
        self.assert_w1(space, mu, nu, 0.5 * np.abs(mu - nu).sum())

    def line(self, rng, n, tied):
        # x_0 < ... < x_{n-1}, gaps drawn from {1/2, 1, 2}: W1 is the sum over
        # k of |F_mu(x_k) - F_nu(x_k)| (x_{k+1} - x_k), F the distribution functions
        x = np.r_[0.0, np.cumsum(rng.choice([0.5, 1.0, 2.0], n - 1))]
        space = FiniteMetricSpace.euclidean(tuple(map(str, range(n))), x[:, None])
        mu, nu = self.measures(rng, n, tied)
        cdf_gap = np.abs(np.cumsum(mu)[:-1] - np.cumsum(nu)[:-1])
        self.assert_w1(space, mu, nu, float(cdf_gap @ np.diff(x)))

    @pytest.mark.parametrize("metric", ["discrete", "line"])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("seed, n", [(0, 2), (1, 3), (2, 7), (3, 16), (4, 31), (5, 60)])
    def test_seeded(self, metric, tied, seed, n):
        getattr(self, metric)(np.random.default_rng(seed), n, tied)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["discrete", "line"]), st.booleans(),
           st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=2, max_value=60))
    def test_drawn(self, metric, tied, seed, n):
        getattr(self, metric)(np.random.default_rng(seed), n, tied)


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

    def test_validated_arrays_are_read_only_copies(self):
        # a space or measure cannot change after its checks, and the caller's
        # own arrays stay writable and independent of it
        x = np.linspace(0.0, 1.0, 3)[:, None]
        d, w = np.abs(x - x.T), np.full(3, 1.0 / 3.0)
        space = FiniteMetricSpace(("a", "b", "c"), x, d)
        mu = Measure(space, w)
        for arr in (space.coords, space.dist, mu.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] += 1.0
        x[0, 0] = d[0, 1] = w[0] = 7.0
        assert (space.coords[0, 0], space.dist[0, 1], mu.weights[0]) == (0.0, 0.5, 1.0 / 3.0)

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


def run_fresh(code, *path):
    """Run code in a fresh interpreter with ncgp's source, after the
    directories path, first on sys.path; its stripped stdout."""
    dirs = [*map(str, path), str(Path(ncgp.__file__).resolve().parents[1])]
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path[:0] = {dirs!r}\n"
                          + textwrap.dedent(code)], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_scipy_is_imported_only_by_w1():
    # a fresh interpreter: importing ncgp, a distance solve and the theorem-1
    # sweep of the CLI load no scipy; the first w1 call loads the scipy package
    # and the HiGHS binding, and not scipy.optimize (about 320 modules, 50 MB
    # and scipy's own OpenBLAS), and solves as before
    loaded = json.loads(run_fresh("""
        import contextlib, io, json
        import ncgp
        from ncgp.cli import main
        t = ncgp.two_point(2.0)
        assert ncgp.spectral_distance(t, *ncgp.pure_states(t.algebra)).status == "finite"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "theorem1", "--trials", "2", "--seed", "1"]) == 0
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded[:3]
        seg = ncgp.FiniteMetricSpace.segment()
        r = ncgp.w1(seg, ncgp.lambda_measure(seg, 0.3), ncgp.lambda_measure(seg, 0.0))
        assert abs(r.value - 0.3) <= 1e-9
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """))
    package = json.loads(run_fresh("""
        import json, scipy
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """))
    core = wasserstein.HIGHS_MODULE
    assert "scipy" in loaded and core in loaded and "scipy.optimize" not in loaded
    extra = [m for m in loaded if m not in package]
    assert [m for m in extra if m != core and not m.startswith(core + ".")] == []


def test_scipy_optimize_imported_after_w1_shares_the_binding():
    # w1 loads the binding first; this module's own import of scipy.optimize
    # then finds that same module, and linprog(method="highs") still solves a
    # grid LP to wasserstein.linprog's bits
    assert run_fresh("""
        import ncgp
        from ncgp import wasserstein
        seg = ncgp.FiniteMetricSpace.segment()
        ncgp.w1(seg, ncgp.lambda_measure(seg, 0.3), ncgp.lambda_measure(seg, 0.0))
        import test_wasserstein
        from scipy.optimize._highspy import _core, _highs_wrapper
        assert _core is wasserstein._highs() is _highs_wrapper._h
        test_wasserstein.TestHighsBinding().test_equals_scipy_linprog_bit_for_bit(0)
        print("ok")
    """, Path(__file__).parent) == "ok"


@pytest.mark.parametrize("fake", [True, False])
def test_missing_binding_is_one_import_error(tmp_path, fake):
    # a scipy package without optimize/_highspy/_core* (an older scipy or a
    # changed layout) first on sys.path, or no importable scipy at all; the
    # CLI refuses the computation: exit 2, one `ncgp: ` line, empty stdout
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "1.14.1"\n')
    seg = FiniteMetricSpace.segment()
    files = {"space": space_to_json(seg), "mu": measure_to_json(lambda_measure(seg, 0.3)),
             "nu": measure_to_json(lambda_measure(seg, 0.0))}
    w1_argv = ["w1"]
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        w1_argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    out = json.loads(run_fresh(f"""
        {"" if fake else "sys.modules['scipy'] = None"}
        import contextlib, io, json
        import ncgp
        from ncgp import cli
        seg = ncgp.FiniteMetricSpace.segment()
        try:
            ncgp.w1(seg, ncgp.lambda_measure(seg, 0.3), ncgp.lambda_measure(seg, 0.0))
        except ImportError as exc:
            message = str(exc)
        runs = []
        for argv in (["check", "wasserstein-point"], {w1_argv!r}):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            runs.append([code, stdout.getvalue(), stderr.getvalue()])
        print(json.dumps({{"message": message, "runs": runs}}))
    """, tmp_path))
    where = tmp_path / "scipy" / "optimize" / "_highspy" if fake else "any scipy on sys.path"
    message = f"w1 needs scipy >= 1.15: no HiGHS binding _core in {where}"
    assert out["message"] == message
    assert out["runs"] == [[2, "", f"ncgp: {message}\n"]] * 2


class TestRefusals:
    LINE3 = FiniteMetricSpace.euclidean(("a", "b", "c"), [[0.0], [1.0], [2.0]])

    def test_negative_distances(self):
        with pytest.raises(ValueError, match="distances must be nonnegative"):
            FiniteMetricSpace(("a", "b"), np.zeros((2, 1)),
                              np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_lambda_measure_needs_two_points(self):
        with pytest.raises(ValueError, match="lambda_measure lives on a two-point space"):
            lambda_measure(self.LINE3, 0.5)

    def test_nu_on_another_space(self):
        seg = FiniteMetricSpace.segment()
        with pytest.raises(ValueError, match="nu does not live on the given space"):
            w1(seg, Measure.dirac(seg, 0), Measure.dirac(self.LINE3, 0))


def test_euclidean_reads_a_flat_coordinate_list_as_points_on_a_line():
    line = FiniteMetricSpace.euclidean(("a", "b", "c"), [0.0, 1.0, 3.0])
    assert line.coords.shape == (3, 1)
    assert np.array_equal(line.dist, [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])


def test_product_measure_builds_its_space():
    seg = FiniteMetricSpace.segment()
    m = product_measure(lambda_measure(seg, 0.25), lambda_measure(seg, 0.5))
    assert np.array_equal(m.space.dist, product_space(seg, seg).dist)
    assert np.array_equal(m.weights, [0.375, 0.375, 0.125, 0.125])
