"""Direct tests of the LMI engine behind the distance solver."""

import ast
import collections
import pathlib

import numpy as np
import pytest
from scipy.optimize import linprog

import ncgp.distance
import ncgp.sdp
from ncgp.algebra import pure_states
from ncgp.distance import DistanceSolver, spectral_distance
from ncgp.experiments import random_triple
from ncgp.sdp import (MAX_CENTERING, QUARTER_TURNS, _inverse, _log_det, _newton_dense,
                      _newton_support, _support_order_is_cheaper, _union_support,
                      maximize_over_unit_ball, ratio_ascent, real_gauge)
from ncgp.tolerances import CENTERING_TOL, MIN_MU
from ncgp.triples import (amplified_two_point, lattice_line, product, two_point,
                          two_sheeted_line)


def lp_oracle_diagonal(c, diags):
    """Exact optimum for diagonal L_j via linear programming.

    With L_j = diag(v_j) real, ||sum y_j L_j|| = max_i |sum_j y_j v_j[i]|, so
    the problem is a plain LP over the polytope |V y| <= 1.
    """
    V = np.stack(diags).T  # rows indexed by the diagonal slot
    n = V.shape[0]
    A_ub = np.concatenate([V, -V], axis=0)
    b_ub = np.ones(2 * n)
    res = linprog(-np.asarray(c), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * V.shape[1], method="highs")
    assert res.status in (0, 3)
    return np.inf if res.status == 3 else -res.fun


def diagonal_instance(seed):
    """Random (c, L) with diagonal L_j and its LP optimum; None for a nearly
    dependent draw, which the engine does not accept."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k, k + 4))
    diags = [rng.normal(size=n) for _ in range(k)]
    if np.linalg.matrix_rank(np.stack(diags), tol=1e-8) < k:
        return None
    c = rng.normal(size=k)
    L = np.zeros((k, n, n), dtype=complex)
    for j, d in enumerate(diags):
        L[j] = np.diag(d)
    return c, L, lp_oracle_diagonal(c, diags)


class TestAgainstLpOracle:
    def test_single_direction(self):
        L = np.zeros((1, 3, 3), dtype=complex)
        L[0] = np.diag([2.0, -1.0, 0.5])
        sol = maximize_over_unit_ball(np.array([3.0]), L, 1e-9)
        # best y has |2y| <= 1, objective 3/2
        assert sol.lower == pytest.approx(1.5, abs=1e-8)
        assert sol.upper == pytest.approx(1.5, abs=1e-7)
        assert sol.converged

    @pytest.mark.parametrize("seed", range(12))
    def test_random_diagonal_instances(self, seed):
        instance = diagonal_instance(seed)
        if instance is None:
            pytest.skip("dependent draw")
        c, L, want = instance
        sol = maximize_over_unit_ball(c, L, 1e-7)
        assert sol.lower <= want + 1e-6
        assert sol.upper >= want - 1e-6
        assert sol.lower == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("centering", [CENTERING_TOL, 1.0, 1e3, np.inf])
    @pytest.mark.parametrize("tol", [1e-3, 1e-7])
    @pytest.mark.parametrize("seed", range(12))
    def test_bracket_is_certified_at_any_centering(self, seed, tol, centering, monkeypatch):
        # the lower bound is any strictly feasible iterate scaled to the
        # boundary and the upper bound pays for an indefinite certificate,
        # so the bracket holds however loosely each mu is centered: at 1e3
        # most and at inf all bounds are taken far from the central path,
        # where the certificate's deficit term binds
        instance = diagonal_instance(seed)
        if instance is None:
            pytest.skip("dependent draw")
        c, L, want = instance
        monkeypatch.setattr(ncgp.sdp, "CENTERING_TOL", centering)
        sol = maximize_over_unit_ball(c, L, tol)
        assert sol.lower <= want * (1 + 1e-9)
        assert sol.upper >= want * (1 - 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dense_instances_bracket(self, seed):
        rng = np.random.default_rng(100 + seed)
        k, h = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        X = rng.normal(size=(k, h, h)) + 1j * rng.normal(size=(k, h, h))
        H = (X + X.conj().transpose(0, 2, 1)) / 2.0
        if np.linalg.matrix_rank(H.reshape(k, -1), tol=1e-8) < k:
            pytest.skip("dependent draw")
        c = rng.normal(size=k)
        sol = maximize_over_unit_ball(c, H, 1e-7)
        assert sol.lower <= sol.upper
        # the boundary-scaled optimizer is genuinely feasible
        g = np.linalg.norm(np.einsum("j,jpq->pq", sol.y_best, H), 2)
        assert g <= 1.0 + 1e-9
        assert float(c @ sol.y_best) == pytest.approx(sol.lower, abs=1e-10)
        # the independent ascent oracle never escapes the certificate
        val, _ = ratio_ascent(c, H, n_steps=150)
        assert val <= sol.upper + 1e-9
        assert val <= sol.lower + 1e-3 * max(1.0, sol.lower)

    @pytest.mark.parametrize("a,b", [(1e-12, 1.0), (1.0, 1e-12), (1e9, 1e-7), (3e-5, 2e11)])
    def test_bracket_scales_with_the_data(self, a, b):
        # max (a c).y over ||H(y) / b|| <= 1 is a b times max c.y over
        # ||H(y)|| <= 1: the solver normalizes both on entry, so the bracket
        # scales to roundoff, whatever the magnitudes
        rng = np.random.default_rng(11)
        X = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        H = (X + X.conj().transpose(0, 2, 1)) / 2.0
        c = rng.normal(size=3)
        base = maximize_over_unit_ball(c, H, 1e-8)
        sol = maximize_over_unit_ball(a * c, H / b, 1e-8)
        assert base.converged and sol.converged
        assert sol.lower == pytest.approx(a * b * base.lower, rel=1e-9)
        assert sol.upper == pytest.approx(a * b * base.upper, rel=1e-9)
        assert sol.upper - sol.lower <= 1e-8 * sol.lower
        # y_best is feasible for the scaled data and attains the scaled lower bound
        assert np.linalg.norm(np.einsum("j,jpq->pq", sol.y_best, H / b), 2) <= 1.0 + 1e-12
        assert float((a * c) @ sol.y_best) == pytest.approx(sol.lower, rel=1e-12)

    def test_unreachable_tol_ends_at_the_mu_floor(self, monkeypatch):
        # tol = 1e-16 is below the bracket's roundoff: the path runs one outer
        # iteration per mu from 1 / (2h) down to the first mu <= MIN_MU, each
        # of at most MAX_CENTERING steps, and ends unconverged with a valid
        # bracket
        rng = np.random.default_rng(3)
        diags = [rng.normal(size=6) for _ in range(4)]
        c = rng.normal(size=4)
        want = lp_oracle_diagonal(c, diags)
        L = np.zeros((4, 6, 6), dtype=complex)
        for j, d in enumerate(diags):
            L[j] = np.diag(d)
        eigvalsh, outer = np.linalg.eigvalsh, []

        def counted(a):
            if a.ndim == 3:   # the certificate, once per outer iteration
                outer.append(1)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        sol = maximize_over_unit_ball(c, L, 1e-16)
        mus = [1.0 / (2 * 6)]
        while mus[-1] > MIN_MU:
            mus.append(mus[-1] * 0.15)
        assert not sol.converged
        assert len(outer) == len(mus) <= 17
        assert sol.newton_steps <= 17 * MAX_CENTERING
        assert 0.0 < sol.lower <= want + 1e-9
        assert want - 1e-9 <= sol.upper <= want * (1 + 1e-9)

    def test_rejects_zero_objective(self):
        with pytest.raises(ValueError, match="nonzero"):
            maximize_over_unit_ball(np.zeros(1), np.eye(2)[None].astype(complex), 1e-6)

    def test_rejects_dependent_generators(self):
        L = np.zeros((2, 2, 2), dtype=complex)
        L[0] = np.eye(2)
        L[1] = 2.0 * np.eye(2)
        with pytest.raises(ValueError):
            maximize_over_unit_ball(np.array([1.0, 0.0]), L, 1e-6)

    def test_rejects_non_hermitian_generators(self):
        L = np.zeros((2, 2, 2), dtype=complex)
        L[0] = np.eye(2)
        L[1] = [[0.0, 1.0], [-1.0, 0.0]]   # anti-Hermitian
        with pytest.raises(ValueError, match="Hermitian"):
            maximize_over_unit_ball(np.array([1.0, 0.0]), L, 1e-6)


def interior_instance(seed, k, h, sparse=False):
    """Random Hermitian H_j, objective c, mu and a point y with ||H(y)|| = 0.6.

    With sparse=True each H_j lives on its own random Hermitian support (at
    least one entry, about a third of the h x h entries).
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(k, h, h)) + 1j * rng.normal(size=(k, h, h))
    if sparse:
        mask = rng.random(size=(k, h, h)) < 1.0 / 3.0
        mask[np.arange(k), rng.integers(0, h, size=k), rng.integers(0, h, size=k)] = True
        X = X * mask
    H = (X + X.conj().transpose(0, 2, 1)) / 2.0
    c = rng.normal(size=k)
    y = rng.normal(size=k)
    y *= 0.6 / np.linalg.norm(np.einsum("j,jpq->pq", y, H), 2)
    return H, c, float(rng.uniform(0.1, 2.0)), y


def lmi_pair(H, y):
    """[I + H(y), I - H(y)], the two sides of the LMI."""
    Hy = np.einsum("j,jpq->pq", y, H)
    return np.eye(H.shape[1]) + np.array([1.0, -1.0])[:, None, None] * Hy


def newton_system_at(c, H, mu, y, order):
    """The gradient c + mu g of the mu-barrier and K, by the given order."""
    S = _inverse(lmi_pair(H, y))
    if order is _newton_support:
        ia, ib, Hu = _union_support(H)
        g, K = _newton_support(Hu, ib[:, None] * H.shape[1] + ia, S)
    else:
        g, K = _newton_dense(np.concatenate(H, axis=1), S)
    return c + mu * g, K


SHAPES = [(1, 1), (1, 4), (3, 1), (4, 3), (6, 5)]
# each contraction order on dense H_j and on H_j with random sparse supports
CASES = [(order, sparse) for order in (_newton_support, _newton_dense)
         for sparse in (False, True)]


class TestNewtonSystem:
    @pytest.mark.parametrize("k,h", SHAPES)
    def test_matches_einsum_formulas(self, k, h):
        for order, sparse in CASES:
            H, c, mu, y = interior_instance(k * 10 + h + 1000 * sparse, k, h, sparse)
            grad, K = newton_system_at(c, H, mu, y, order)
            # reference: the general norm LMI [[I, X], [X*, I]] >= 0 on X = L(y),
            # L_j = -i H_j, through the SVD X = U diag(s) V* and L~_j = U* L_j V
            L = -1j * H
            U, s, Vh = np.linalg.svd(np.einsum("j,jpq->pq", y, L))
            V = Vh.conj().T
            slack = 1.0 - s * s
            dq, dp = s / slack, 1.0 / slack
            Lt = np.conj(U).T @ L @ V
            want_grad = c - 2.0 * mu * np.einsum("jpp,p->j", Lt, dq).real
            K1 = np.einsum("ipq,jpq->ij", Lt * dp[None, :, None] * dp[None, None, :], np.conj(Lt))
            Mt = np.conj(Lt) * dq[None, None, :]
            K2 = np.einsum("iqp,jpq->ij", Mt, Mt)
            want_K = 2.0 * (K1 + K2).real
            scale = np.abs(want_K).max()
            assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
            assert np.allclose(K, want_K, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("k,h", SHAPES)
    def test_matches_finite_differences_of_the_barrier(self, k, h):
        for order, sparse in CASES:
            H, c, mu, y = interior_instance(k * 10 + h + 500 + 1000 * sparse, k, h, sparse)

            def barrier(yv):
                s = np.linalg.svd(np.einsum("j,jpq->pq", yv, H), compute_uv=False)
                return float(c @ yv) + mu * float(np.sum(np.log1p(-s * s)))

            grad, K = newton_system_at(c, H, mu, y, order)
            eps = 1e-4
            steps = eps * np.eye(k)
            fd_grad = np.array([(barrier(y + e) - barrier(y - e)) / (2 * eps) for e in steps])
            # -mu K is the barrier's Hessian
            fd_hess = np.array([[(barrier(y + a + b) - barrier(y + a - b)
                                  - barrier(y - a + b) + barrier(y - a - b)) / (4 * eps * eps)
                                 for b in steps] for a in steps])
            assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6 * np.abs(grad).max())
            assert np.allclose(-mu * K, fd_hess, rtol=1e-5, atol=1e-5 * np.abs(mu * K).max())
            # K is symmetric, and positive definite when the H_j are independent
            assert np.allclose(K, K.T, atol=1e-12 * np.abs(K).max())
            if np.linalg.matrix_rank(H.reshape(k, -1), tol=1e-8) == k:
                assert np.linalg.eigvalsh(K)[0] > 0

    def test_order_selection(self):
        # the lattice-n15 triple (k=30, h=60, 146 support entries) takes the
        # support order; a (2,) x (2,) random product (k=15, h=16) the dense order
        lattice = DistanceSolver(product(two_point(2.0), two_sheeted_line(15))).H_reduced
        small = DistanceSolver(product(random_triple(3, (2,)), random_triple(4, (2,)))).H_reduced
        for H, want in ((lattice, True), (small, False)):
            ia, _, _ = _union_support(H)
            assert _support_order_is_cheaper(H.shape[0], H.shape[1], ia.size) is want
        assert (lattice.shape, _union_support(lattice)[0].size) == ((30, 60, 60), 146)
        assert small.shape == (15, 16, 16)


class TestFactorizedBarrier:
    @pytest.mark.parametrize("k,h", SHAPES)
    def test_log_det_matches_the_eigenvalues(self, k, h):
        for sparse in (False, True):
            H, _, _, y = interior_instance(k * 10 + h + 2000 * sparse, k, h, sparse)
            lam = np.linalg.eigvalsh(np.einsum("j,jpq->pq", y, H))
            want = float(np.sum(np.log1p(-lam * lam)))
            assert _log_det(lmi_pair(H, y)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("norm", [1.0 + 1e-9, 1.5, 1e3])
    def test_minus_inf_off_the_open_ball(self, norm):
        # on the boundary exactly (I - H or I + H singular) and beyond it, on
        # either side of the LMI
        for d in ([1.0, 0.3], [-1.0, 0.3]):
            assert _log_det(lmi_pair(np.diag(d)[None].astype(complex), np.ones(1))) == -np.inf
        H, _, _, y = interior_instance(5, 3, 4)
        for sign in (1.0, -1.0):
            assert _log_det(lmi_pair(H, sign * y * norm / 0.6)) == -np.inf

    @pytest.mark.parametrize("k,h", SHAPES)
    def test_inverse_is_exactly_hermitian(self, k, h):
        H, _, _, y = interior_instance(k * 10 + h + 3000, k, h)
        P = lmi_pair(H, y)
        S = _inverse(P)
        assert np.array_equal(S, S.conj().transpose(0, 2, 1))
        assert np.allclose(S @ P, np.eye(h), atol=1e-12)

    @pytest.mark.parametrize("support", [True, False])
    def test_solve_diagonalizes_only_for_the_bounds(self, support, monkeypatch):
        # no eigh anywhere; eigvalsh once for the Gram matrix and twice per
        # outer iteration (||H(y)|| and the stacked certificate, the only 3-D
        # call); the inverse and the k x k Cholesky factorization of K run
        # once per iterate, at the start and after each step, and a reduction
        # of mu factors nothing
        if support:
            H = DistanceSolver(product(two_point(2.0), two_sheeted_line(6))).H_reduced
        else:
            H = DistanceSolver(product(random_triple(3, (2,)), random_triple(4, (1, 1)))).H_reduced
        ia, _, _ = _union_support(H)
        assert _support_order_is_cheaper(H.shape[0], H.shape[1], ia.size) is support
        calls = collections.Counter()   # (name, ndim of the argument) -> calls
        dtypes = collections.defaultdict(set)   # (name, ndim) -> dtypes of the argument
        for name in ("eigh", "eigvalsh", "inv", "cholesky"):
            def counted(a, _f=getattr(np.linalg, name), _name=name):
                calls[_name, a.ndim] += 1
                dtypes[_name, a.ndim].add(a.dtype)
                return _f(a)
            monkeypatch.setattr(np.linalg, name, counted)
        c = np.random.default_rng(0).normal(size=H.shape[0])
        sol = maximize_over_unit_ball(c, H, 1e-6)
        assert sol.converged
        outer = calls["eigvalsh", 3]
        assert outer >= 2
        assert calls["eigh", 2] == calls["eigh", 3] == calls["inv", 2] == 0
        assert calls["inv", 3] == calls["cholesky", 2] == sol.newton_steps + 1
        assert calls["eigvalsh", 2] + calls["eigvalsh", 3] == 1 + 2 * outer
        # the lattice's generators take a real gauge, and every factorization
        # and eigenvalue solve runs in real arithmetic; the random product's
        # h x h ones stay complex (K and the Gram matrix are real in both)
        if support:
            assert set().union(*dtypes.values()) == {np.dtype(np.float64)}
        else:
            assert H.dtype == np.complex128
            for key in (("inv", 3), ("cholesky", 3), ("eigvalsh", 3)):
                assert dtypes[key] == {np.dtype(np.complex128)}
            assert dtypes["cholesky", 2] == {np.dtype(np.float64)}

    def test_sdp_imports_no_scipy(self):
        # scipy bundles a second OpenBLAS, whose thread pool contends with
        # numpy's when the BLAS threads are not pinned
        tree = ast.parse(pathlib.Path(ncgp.sdp.__file__).read_text())
        names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
        names += [node.module or "" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)]
        assert names and not [n for n in names if n.split(".")[0] == "scipy"]


def ungauged(triple, monkeypatch):
    """The solver's complex generators, as they are before any gauge."""
    with monkeypatch.context() as m:
        m.setattr(ncgp.distance, "real_gauge", lambda H: None)
        return DistanceSolver(triple).H_reduced


def hermitian_stack(*entries, h=3):
    """One Hermitian h x h matrix per dict {(a, b): value} (a <= b)."""
    H = np.zeros((len(entries), h, h), dtype=complex)
    for j, entry in enumerate(entries):
        for (a, b), v in entry.items():
            H[j, a, b], H[j, b, a] = v, np.conj(v)
    return H


GAUGED = {
    "lattice_line": lambda: lattice_line(5),
    "two_sheeted_line": lambda: two_sheeted_line(6),
    "two_point": lambda: two_point(2.0),
    "amplified_two_point": lambda: amplified_two_point(0.7),
    "two_point x two_sheeted_line": lambda: product(two_point(2.0), two_sheeted_line(15)),
    "two_point x amplified_two_point": lambda: product(two_point(3.0), amplified_two_point(0.5)),
    "amplified_two_point x two_point": lambda: product(amplified_two_point(1.0), two_point(2.0)),
    "two_point x lattice_line": lambda: product(two_point(1.5), lattice_line(7)),
    "two_point x two_point x two_sheeted_line":
        lambda: product(product(two_point(2.0), two_point(3.0)), two_sheeted_line(3)),
}


class TestRealGauge:
    @pytest.mark.parametrize("name", GAUGED)
    def test_catalog_generators_take_an_exact_gauge(self, name, monkeypatch):
        # the stored generators are real symmetric, and diag(i^g) conjugates
        # them back to the complex ones bit for bit: no rounding happened
        t = GAUGED[name]()
        solver = DistanceSolver(t)
        H = solver.H_reduced
        assert H.dtype == np.float64 and np.array_equal(H, H.transpose(0, 2, 1))
        assert set(solver.gauge.tolist()) <= {0, 1}
        w = QUARTER_TURNS[solver.gauge]
        assert np.array_equal(w[:, None] * H * np.conj(w), ungauged(t, monkeypatch))

    def test_random_product_stays_complex(self):
        solver = DistanceSolver(product(random_triple(3, (2,)), random_triple(4, (1, 1))))
        assert solver.gauge is None and solver.H_reduced.dtype == np.complex128

    @pytest.mark.parametrize("H", [
        # a 3-cycle with gain i: an odd number of imaginary edges on a cycle
        hermitian_stack({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1j}),
        # one position real in one generator and imaginary in another
        hermitian_stack({(0, 1): 1.0}, {(0, 1): 2j, (1, 2): 1.0}),
        # one entry with both parts nonzero
        hermitian_stack({(0, 1): 1.0 + 1e-300j}),
    ], ids=["3-cycle with gain i", "real and imaginary position", "complex entry"])
    def test_no_gauge_without_a_consistent_parity(self, H):
        assert real_gauge(H) is None

    def test_gauge_on_a_balanced_cycle(self):
        # two imaginary edges on a 4-cycle and an isolated vertex: each
        # imaginary edge flips the parity, the real edges keep it
        H = hermitian_stack({(0, 1): 1j, (1, 2): -2j, (2, 3): 3.0, (0, 3): -1.0},
                            {(0, 0): 5.0, (1, 2): 0.5j}, h=5)
        g = real_gauge(H)
        assert g.tolist() == [0, 1, 0, 0, 0]
        w = QUARTER_TURNS[g]
        gauged = np.conj(w)[:, None] * H * w
        assert not gauged.imag.any()
        assert np.array_equal(np.abs(gauged.real), np.abs(H))


@pytest.mark.usefixtures("no_fallback")
class TestCholeskyFailure:
    def test_solve_ends_with_the_bracket_it_has(self, monkeypatch):
        # the k x k factorization of K, once per iterate, works at the start
        # and after 11 Newton steps, then raises after the 12th: the solve
        # stops without an exception, unconverged, with the bracket of the
        # outer iterations it completed (three, after steps 4, 7 and 9); the
        # line search's batched factorizations of I +- H(y) (2 x h x h) pass
        # through uncounted
        rng = np.random.default_rng(7)
        diags = [rng.normal(size=5) for _ in range(3)]
        c = rng.normal(size=3)
        want = lp_oracle_diagonal(c, diags)
        L = np.zeros((3, 5, 5), dtype=complex)
        for j, d in enumerate(diags):
            L[j] = np.diag(d)
        cholesky, calls = np.linalg.cholesky, []

        def failing(a):
            if a.ndim == 2:
                calls.append(1)
                if len(calls) > 12:
                    raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        sol = maximize_over_unit_ball(c, L, 1e-9)
        assert len(calls) == 13 and sol.newton_steps == 12
        assert not sol.converged
        assert 0.0 < sol.lower <= want + 1e-9
        assert want - 1e-9 <= sol.upper < np.inf

    def test_distance_reports_bracket(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        t = two_point(3.0)
        plus, minus = pure_states(t.algebra)
        r = spectral_distance(t, plus, minus, 1e-6)
        assert r.status == "bracket"
        assert r.lower == 0.0 and r.upper == np.inf
