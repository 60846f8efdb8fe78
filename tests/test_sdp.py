"""Direct tests of the interior-point engine behind the distance solver."""

import ast
import collections
import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

import ncgp.distance
import ncgp.sdp
from ncgp.algebra import product_state, pure_states, random_state
from ncgp.distance import DistanceSolver, spectral_distance
from ncgp.experiments import random_triple
from ncgp.sdp import (MAX_CENTERING, QUARTER_TURNS, NormBall, _log_slack, _newton_dense,
                      _newton_support, _resolvents, _support_order_is_cheaper,
                      maximize_over_unit_ball, ratio_ascent)
from ncgp.tolerances import CENTERING_TOL, MIN_MU
from ncgp.triples import (SpectralTriple, amplified_two_point, lattice_line, product,
                          two_point, two_sheeted_line)


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


def chiral_embedding(L):
    """[[0, L_j], [L_j*, 0]]: the same norm ||sum_j y_j L_j||, on a bipartite
    union support, so Gamma = diag(1, -1) makes every generator odd."""
    k, n, m = L.shape
    E = np.zeros((k, n + m, n + m), dtype=L.dtype)
    E[:, :n, n:] = L
    E[:, n:, :n] = np.conj(L.transpose(0, 2, 1))
    return E


def grading(ball):
    """Gamma = diag(+-1), -1 on the rows P of the ball's block, when the ball
    found a grading that makes every generator odd; None when it did not, and
    its block is all of H (P = Q)."""
    if np.array_equal(ball.P, ball.Q):
        return None
    gamma = np.ones(ball.P.size + ball.Q.size)
    gamma[ball.P] = -1.0
    return gamma


class TestAgainstLpOracle:
    def test_single_direction(self):
        L = np.zeros((1, 3, 3), dtype=complex)
        L[0] = np.diag([2.0, -1.0, 0.5])
        sol = maximize_over_unit_ball(np.array([3.0]), NormBall(L), 1e-9)
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
        sol = maximize_over_unit_ball(c, NormBall(L), 1e-7)
        assert sol.lower <= want + 1e-6
        assert sol.upper >= want - 1e-6
        assert sol.lower == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("centering", [CENTERING_TOL, 1.0, 1e3, np.inf])
    @pytest.mark.parametrize("tol", [1e-3, 1e-7])
    @pytest.mark.parametrize("seed", range(12))
    def test_bracket_is_certified_at_any_centering(self, seed, tol, centering, monkeypatch):
        # the lower bound is any strictly feasible iterate scaled to the
        # boundary and the upper bound is the nuclear norm of any certificate
        # plus its residual term, so the bracket holds however loosely each
        # mu is centered: at 1e3 most and at inf all bounds are taken far
        # from the central path
        instance = diagonal_instance(seed)
        if instance is None:
            pytest.skip("dependent draw")
        c, L, want = instance
        monkeypatch.setattr(ncgp.sdp, "CENTERING_TOL", centering)
        sol = maximize_over_unit_ball(c, NormBall(L), tol)
        assert sol.lower <= want * (1 + 1e-9)
        assert sol.upper >= want * (1 - 1e-9)

    @pytest.mark.parametrize("centering", [CENTERING_TOL, 1.0, 1e3, np.inf])
    @pytest.mark.parametrize("tol", [1e-3, 1e-7])
    @pytest.mark.parametrize("seed", range(12))
    def test_chiral_bracket_is_certified_at_any_centering(self, seed, tol, centering,
                                                          monkeypatch):
        # the same instances as off-diagonal blocks: the optimum is unchanged,
        # and the solve runs on the block B_j = L_j alone
        instance = diagonal_instance(seed)
        if instance is None:
            pytest.skip("dependent draw")
        c, L, want = instance
        E = chiral_embedding(L)
        ball = NormBall(E)
        assert grading(ball) is not None
        monkeypatch.setattr(ncgp.sdp, "CENTERING_TOL", centering)
        sol = maximize_over_unit_ball(c, ball, tol)
        assert sol.lower <= want * (1 + 1e-9)
        assert sol.upper >= want * (1 - 1e-9)
        if centering == CENTERING_TOL:
            assert sol.converged and sol.upper - sol.lower <= tol * sol.lower

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dense_instances_bracket(self, seed):
        rng = np.random.default_rng(100 + seed)
        k, h = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        X = rng.normal(size=(k, h, h)) + 1j * rng.normal(size=(k, h, h))
        H = (X + X.conj().transpose(0, 2, 1)) / 2.0
        if np.linalg.matrix_rank(H.reshape(k, -1), tol=1e-8) < k:
            pytest.skip("dependent draw")
        c = rng.normal(size=k)
        sol = maximize_over_unit_ball(c, NormBall(H), 1e-7)
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
        base = maximize_over_unit_ball(c, NormBall(H), 1e-8)
        sol = maximize_over_unit_ball(a * c, NormBall(H / b), 1e-8)
        assert base.converged and sol.converged
        assert sol.lower == pytest.approx(a * b * base.lower, rel=1e-9)
        assert sol.upper == pytest.approx(a * b * base.upper, rel=1e-9)
        assert sol.upper - sol.lower <= 1e-8 * sol.lower
        # y_best is feasible for the scaled data and attains the scaled lower bound
        assert np.linalg.norm(np.einsum("j,jpq->pq", sol.y_best, H / b), 2) <= 1.0 + 1e-12
        assert float((a * c) @ sol.y_best) == pytest.approx(sol.lower, rel=1e-12)

    def test_unreachable_tol_ends_at_the_mu_floor(self, monkeypatch):
        # tol = 1e-16 is below the bracket's roundoff: the path runs one outer
        # iteration per mu from 1 / (p + q) = 1 / (2h) down to the first
        # mu <= MIN_MU, each of at most MAX_CENTERING steps, and ends
        # unconverged with a valid bracket
        rng = np.random.default_rng(3)
        diags = [rng.normal(size=6) for _ in range(4)]
        c = rng.normal(size=4)
        want = lp_oracle_diagonal(c, diags)
        L = np.zeros((4, 6, 6), dtype=complex)
        for j, d in enumerate(diags):
            L[j] = np.diag(d)
        svd, shapes = np.linalg.svd, collections.Counter()

        def counted(a, **kwargs):
            shapes[a.shape] += 1
            return svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        sol = maximize_over_unit_ball(c, NormBall(L), 1e-16)
        mus = [1.0 / (2 * 6)]
        while mus[-1] > MIN_MU:
            mus.append(mus[-1] * 0.15)
        assert not sol.converged
        # two 6 x 6 SVDs per outer iteration: ||B(y)|| and the certificate's
        # nuclear norm
        assert set(shapes) == {(6, 6)}
        assert shapes[6, 6] == 2 * len(mus) and len(mus) <= 17
        assert sol.newton_steps <= 17 * MAX_CENTERING
        assert 0.0 < sol.lower <= want + 1e-9
        assert want - 1e-9 <= sol.upper <= want * (1 + 1e-9)

    def test_rejects_zero_objective(self):
        with pytest.raises(ValueError, match="nonzero"):
            maximize_over_unit_ball(np.zeros(1), NormBall(np.eye(2)[None].astype(complex)), 1e-6)

    def test_rejects_dependent_generators(self):
        L = np.zeros((2, 2, 2), dtype=complex)
        L[0] = np.eye(2)
        L[1] = 2.0 * np.eye(2)
        with pytest.raises(ValueError, match="linearly independent"):
            NormBall(L)

    @pytest.mark.parametrize("scale, refusal", [(1e-300, "scales span"), (1e-150, None)])
    def test_generators_of_far_apart_scales(self, scale, refusal):
        # independent generators whose entries lie 1e300 apart: the small
        # one's Gram entry underflows to 0, and the refusal names the scales,
        # not a dependence; 1e150 apart they are accepted
        H = np.zeros((2, 3, 3))
        H[0, 0, 1] = H[0, 1, 0] = 1.0
        H[1, 2, 2] = scale
        if refusal is None:
            assert NormBall(H).ybound > 0
        else:
            with pytest.raises(ValueError, match=refusal):
                NormBall(H)

    @pytest.mark.parametrize("second", [
        [[0.0, 1.0], [-1.0, 0.0]],   # anti-Hermitian
        [[0.0, 1.0], [0.0, 0.0]],    # an entry whose transposed position is off the support
        [[1j, 0.0], [0.0, 1.0]],     # an imaginary diagonal entry
    ], ids=["anti-hermitian", "one-sided", "imaginary-diagonal"])
    def test_rejects_non_hermitian_generators(self, second):
        L = np.zeros((2, 2, 2), dtype=complex)
        L[0] = np.eye(2)
        L[1] = second
        with pytest.raises(ValueError, match="Hermitian"):
            NormBall(L)


def interior_instance(seed, k, h, sparse=False, rect=False):
    """Random generators B_j, objective c, mu and a point y with ||B(y)|| = 0.6.

    The B_j are Hermitian h x h, or with rect=True complex h x (h + 2).  With
    sparse=True each B_j lives on its own random support (at least one entry,
    about a third of the entries, Hermitian for Hermitian B_j).
    """
    rng = np.random.default_rng(seed)
    q = h + 2 if rect else h
    X = rng.normal(size=(k, h, q)) + 1j * rng.normal(size=(k, h, q))
    if sparse:
        mask = rng.random(size=(k, h, q)) < 1.0 / 3.0
        mask[np.arange(k), rng.integers(0, h, size=k), rng.integers(0, q, size=k)] = True
        X = X * mask
    B = X if rect else (X + X.conj().transpose(0, 2, 1)) / 2.0
    c = rng.normal(size=k)
    y = rng.normal(size=k)
    y *= 0.6 / np.linalg.norm(np.einsum("j,jpq->pq", y, B), 2)
    return B, c, float(rng.uniform(0.1, 2.0)), y


def newton_system_at(c, B, mu, y, order):
    """The gradient c - mu g of the mu-barrier and K, by the given order."""
    R, T, V = _resolvents(np.einsum("j,jpq->pq", y, B))
    p, q = B.shape[1], B.shape[2]
    if order is _newton_support:
        ia, ib = np.nonzero(np.any(B, axis=0))
        Bu = B[:, ia, ib]
        g, K = _newton_support(Bu, ia * p + ia[:, None], ib[:, None] * q + ib,
                               ia[:, None] * q + ib, R, T, V)
    else:
        g, K = _newton_dense(np.ascontiguousarray(B), R, T, V)
    return c - mu * g, K


SHAPES = [(1, 1), (1, 4), (3, 1), (4, 3), (6, 5)]
# each contraction order on dense B_j and on B_j with random sparse supports,
# Hermitian (B = H) and rectangular complex
CASES = [(order, sparse, rect) for order in (_newton_support, _newton_dense)
         for sparse in (False, True) for rect in (False, True)]


class TestNewtonSystem:
    @pytest.mark.parametrize("k,h", SHAPES)
    def test_matches_einsum_formulas(self, k, h):
        for order, sparse, rect in CASES:
            B, c, mu, y = interior_instance(k * 10 + h + 1000 * sparse + 4000 * rect,
                                            k, h, sparse, rect)
            grad, K = newton_system_at(c, B, mu, y, order)
            # reference: the norm ball [[I, X], [X*, I]] >= 0 on X = B(y),
            # through the full SVD X = U diag(s) V* and B~_j = U* B_j V; the
            # q - p columns beyond the singular values have slack 1
            p, q = B.shape[1], B.shape[2]
            U, s, Vh = np.linalg.svd(np.einsum("j,jpq->pq", y, B))
            slack = 1.0 - s * s
            dq, dp = s / slack, 1.0 / slack
            dv = np.concatenate([dp, np.ones(q - p)])
            Bt = np.conj(U).T @ B @ Vh.conj().T
            want_grad = c - 2.0 * mu * np.einsum("jpp,p->j", Bt[:, :, :p], dq).real
            K1 = np.einsum("ipq,jpq->ij", Bt * dp[None, :, None] * dv[None, None, :], np.conj(Bt))
            Mt = np.conj(Bt[:, :, :p]) * dq[None, None, :]
            K2 = np.einsum("iqp,jpq->ij", Mt, Mt)
            want_K = 2.0 * (K1 + K2).real
            scale = np.abs(want_K).max()
            assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
            assert np.allclose(K, want_K, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("k,h", SHAPES)
    def test_matches_finite_differences_of_the_barrier(self, k, h):
        for order, sparse, rect in CASES:
            B, c, mu, y = interior_instance(k * 10 + h + 500 + 1000 * sparse + 4000 * rect,
                                            k, h, sparse, rect)

            def barrier(yv):
                s = np.linalg.svd(np.einsum("j,jpq->pq", yv, B), compute_uv=False)
                return float(c @ yv) + mu * float(np.sum(np.log1p(-s * s)))

            grad, K = newton_system_at(c, B, mu, y, order)
            eps = 1e-4
            steps = eps * np.eye(k)
            fd_grad = np.array([(barrier(y + e) - barrier(y - e)) / (2 * eps) for e in steps])
            # -mu K is the barrier's Hessian
            fd_hess = np.array([[(barrier(y + a + b) - barrier(y + a - b)
                                  - barrier(y - a + b) + barrier(y - a - b)) / (4 * eps * eps)
                                 for b in steps] for a in steps])
            assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6 * np.abs(grad).max())
            assert np.allclose(-mu * K, fd_hess, rtol=1e-5, atol=1e-5 * np.abs(mu * K).max())
            # K is symmetric, and positive definite when the B_j are independent
            assert np.allclose(K, K.T, atol=1e-12 * np.abs(K).max())
            if np.linalg.matrix_rank(B.reshape(k, -1), tol=1e-8) == k:
                assert np.linalg.eigvalsh(K)[0] > 0

    @pytest.mark.parametrize("k,h", SHAPES)
    def test_block_is_half_of_the_full_system_on_chiral_generators(self, k, h):
        # on H_j = [[0, B_j], [B_j*, 0]], log det(I - H^2) = 2 log det(I - B B*),
        # so the block's g and K are half those of the full generators, and
        # the block at mu takes the full generators' direction at mu / 2
        for order in (_newton_support, _newton_dense):
            for sparse in (False, True):
                B, c, mu, y = interior_instance(k * 10 + h + 6000 + 1000 * sparse,
                                                k, h, sparse, rect=True)
                H = chiral_embedding(B)
                gamma = grading(NormBall(H))
                assert np.array_equal(gamma[:, None] * H * gamma, -H)
                grad_b, K_b = newton_system_at(c, B, mu, y, order)
                grad_h, K_h = newton_system_at(c, H, mu / 2.0, y, order)
                assert np.allclose(grad_b, grad_h, rtol=1e-12, atol=1e-12 * np.abs(grad_h).max())
                assert np.allclose(K_b, K_h / 2.0, rtol=1e-12, atol=1e-12 * np.abs(K_h).max())

    def test_dense_order_allocates_little(self):
        # at a theorem-1 shape (k = 15, p = q = 16, complex) one call holds
        # at most two products of the size of the stack Bs (61 KB each) at a
        # time: arrays above glibc's 128 KiB mmap threshold are mapped and
        # unmapped on every call, and page-fault each time they are touched
        B, c, mu, y = interior_instance(11, 15, 16)
        R, T, V = _resolvents(np.einsum("j,jpq->pq", y, B))
        _newton_dense(B, R, T, V)
        tracemalloc.start()
        try:
            _newton_dense(B, R, T, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert B.nbytes == 61440 and peak < 3 * B.nbytes

    def test_order_selection(self, monkeypatch):
        # the lattice-n15 set-up (k=30, its chiral 30 x 30 block with 73
        # support entries) picks the support order; a (2,) x (2,) random
        # product (k=15, h=16, an 8 x 8 block) the dense order; the rule runs
        # when the solver is built, and no solve runs it again
        rule, seen = _support_order_is_cheaper, []

        def recorded(*shape):
            seen.append((shape, rule(*shape)))
            return seen[-1][1]

        monkeypatch.setattr(ncgp.sdp, "_support_order_is_cheaper", recorded)
        balls = [DistanceSolver(product(two_point(2.0), two_sheeted_line(15))).ball,
                 DistanceSolver(product(random_triple(3, (2,)), random_triple(4, (2,)))).ball]
        assert seen == [((30, 30, 30, 73), True), ((15, 8, 8, 64), False)]
        for ball in balls:
            maximize_over_unit_ball(np.ones(len(ball.Bu)), ball, 1e-3)
        assert len(seen) == 2


class TestFactorizedBarrier:
    @pytest.mark.parametrize("k,h", SHAPES)
    def test_log_det_matches_the_eigenvalues(self, k, h):
        for sparse in (False, True):
            # on B = H, log det(I - H^2) = log det(I + H) + log det(I - H)
            H, _, _, y = interior_instance(k * 10 + h + 2000 * sparse, k, h, sparse)
            lam = np.linalg.eigvalsh(np.einsum("j,jpq->pq", y, H))
            want = float(np.sum(np.log1p(-lam * lam)))
            assert _log_slack(np.einsum("j,jpq->pq", y, H)) == pytest.approx(want, rel=1e-12)
            # on a rectangular block it is half the barrier of its chiral
            # embedding [[0, B], [B*, 0]], whose eigenvalues are +-s
            B, _, _, y = interior_instance(k * 10 + h + 2500 * sparse, k, h, sparse, rect=True)
            lam = np.linalg.eigvalsh(np.einsum("j,jpq->pq", y, chiral_embedding(B)))
            want = float(np.sum(np.log1p(-lam * lam))) / 2.0
            assert _log_slack(np.einsum("j,jpq->pq", y, B)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("norm", [1.0 + 1e-9, 1.5, 1e3])
    def test_minus_inf_off_the_open_ball(self, norm):
        # on the boundary exactly (I - X X* singular) and beyond it, for
        # Hermitian and rectangular X
        for d in ([1.0, 0.3], [-1.0, 0.3]):
            assert _log_slack(np.diag(d).astype(complex)) == -np.inf
        for rect in (False, True):
            B, _, _, y = interior_instance(5, 3, 4, rect=rect)
            for sign in (1.0, -1.0):
                assert _log_slack(np.einsum("j,jpq->pq", sign * y * norm / 0.6, B)) == -np.inf

    @pytest.mark.parametrize("k,h", SHAPES)
    def test_inverse_is_exactly_hermitian(self, k, h):
        for rect in (False, True):
            B, _, _, y = interior_instance(k * 10 + h + 3000, k, h, rect=rect)
            X = np.einsum("j,jpq->pq", y, B)
            R, T, V = _resolvents(X)
            assert np.array_equal(R, R.conj().T)
            assert np.allclose(R @ (np.eye(h) - X @ X.conj().T), np.eye(h), atol=1e-12)
            assert np.allclose(V @ (np.eye(X.shape[1]) - X.conj().T @ X), np.eye(X.shape[1]),
                               atol=1e-12)
            assert np.allclose(T, R @ X, atol=1e-12)

    @pytest.mark.parametrize("support", [True, False])
    def test_solve_diagonalizes_only_for_the_bounds(self, support, monkeypatch, generators):
        # every argument LAPACK sees is 2-D, and no eigh runs: building the
        # ball takes one eigvalsh, of the Gram matrix, and nothing else; a
        # solve takes no eigvalsh, two SVDs per outer iteration, the exact
        # ||B(y)|| and the certificate's nuclear norm, and the p x p inverse
        # and the k x k Cholesky factorization of K once per iterate, at the
        # start and after each step, so a reduction of mu factors nothing;
        # the line search's factorizations are p x p.  The lattice's
        # generators are chiral, so p = q = h / 2; the random product, whose
        # second factor is odd, is not, and p = q = h
        if support:
            H = generators(product(two_point(1.5), lattice_line(7)))
            assert H.shape == (13, 14, 14)
        else:
            H = generators(product(random_triple(3, (2,)), random_triple(4, (2,), even=False)))
            assert H.shape == (15, 16, 16)
        k, h = H.shape[0], H.shape[1]
        p = h // 2 if support else h
        calls = collections.Counter()   # (name, shape of the argument) -> calls
        dtypes = collections.defaultdict(set)   # name -> dtypes of the argument
        for name in ("eigh", "eigvalsh", "inv", "cholesky", "svd"):
            def counted(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name, a.shape] += 1
                dtypes[_name].add(a.dtype)
                return _f(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        ball = NormBall(H)
        assert (grading(ball) is not None) is support
        assert calls == {("eigvalsh", (k, k)): 1}
        calls.clear()
        dtypes.clear()
        c = np.random.default_rng(0).normal(size=k)
        sol = maximize_over_unit_ball(c, ball, 1e-6)
        assert sol.converged
        assert all(len(shape) == 2 for _, shape in calls)
        assert {name for name, _ in calls} == {"inv", "cholesky", "svd"}
        assert set(calls) - {("cholesky", (p, p))} == {
            ("inv", (p, p)), ("cholesky", (k, k)), ("svd", (p, p))}
        outer = calls["svd", (p, p)] // 2
        assert outer >= 2 and calls["svd", (p, p)] == 2 * outer
        assert calls["inv", (p, p)] == calls["cholesky", (k, k)] == sol.newton_steps + 1
        assert calls["cholesky", (p, p)] >= sol.newton_steps
        # the lattice's generators take a real gauge, and every factorization,
        # inverse and SVD runs in real arithmetic; the random product's
        # p x p ones stay complex (K is real in both)
        if support:
            assert set().union(*dtypes.values()) == {np.dtype(np.float64)}
        else:
            assert ball.gauge is None and ball.Bu.dtype == np.complex128
            for name in ("inv", "svd"):
                assert dtypes[name] == {np.dtype(np.complex128)}
            assert dtypes["cholesky"] == {np.dtype(np.float64), np.dtype(np.complex128)}

    def test_solves_reuse_the_norm_ball(self, monkeypatch):
        # one solver, many solves: the parity colouring (the gauge's and the
        # grading's) runs only while the solver is built, and no solve runs
        # the Hermiticity check, a union-support pass, the grading's row mask
        # or an eigvalsh (the Gram matrix is diagonalized once, at set-up)
        calls, inside = collections.Counter(), [False]

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name, inside[0]] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ncgp.sdp, "_parity_colouring",
                            counted("colouring", ncgp.sdp._parity_colouring))
        for name in ("array_equal", "any", "nonzero", "isin"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        solve = ncgp.distance.maximize_over_unit_ball

        def flagged(*args):
            inside[0] = True
            try:
                return solve(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(ncgp.distance, "maximize_over_unit_ball", flagged)
        pt = product(two_point(2.0), two_sheeted_line(6))
        solver = DistanceSolver(pt)
        assert calls["colouring", False] == 2
        plus, minus = pure_states(pt.algebra.factors[0])
        deltas = pure_states(pt.algebra.factors[1])
        steps = [solver.distance(product_state(plus, deltas[x], pt.algebra),
                                 product_state(minus, deltas[y], pt.algebra), 1e-6).newton_steps
                 for x, y in ((0, 0), (0, 5), (2, 3), (4, 1), (5, 5), (3, 0))]
        assert min(steps) > 0
        assert calls["colouring", False] == 2
        assert not [key for key in calls if key[1]]

    def test_sdp_imports_no_scipy(self):
        # scipy bundles a second OpenBLAS, whose thread pool contends with
        # numpy's when the BLAS threads are not pinned
        tree = ast.parse(pathlib.Path(ncgp.sdp.__file__).read_text())
        names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
        names += [node.module or "" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)]
        assert names and not [n for n in names if n.split(".")[0] == "scipy"]


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
    def test_catalog_generators_take_an_exact_gauge(self, name, generators):
        # the gauged generators are real symmetric, diag(i^g) conjugates them
        # back to the complex ones bit for bit (no rounding happened), and
        # the ball holds exactly their block's support values, scaled
        H = generators(GAUGED[name]())
        ball = NormBall(H)
        assert set(ball.gauge.tolist()) <= {0, 1}
        w = QUARTER_TURNS[ball.gauge]
        gauged = np.conj(w)[:, None] * H * w
        assert not gauged.imag.any()
        gauged = gauged.real
        assert np.array_equal(gauged, gauged.transpose(0, 2, 1))
        assert np.array_equal(w[:, None] * gauged * np.conj(w), H)
        block = gauged[:, ball.P[:, None], ball.Q]
        assert np.array_equal(np.nonzero(np.any(block, axis=0)), (ball.ia, ball.ib))
        assert ball.Bu.dtype == np.float64
        assert np.array_equal(ball.Bu, np.ldexp(block[:, ball.ia, ball.ib], -ball.e) / ball.root)

    def test_random_product_stays_complex(self):
        ball = DistanceSolver(product(random_triple(3, (2,)), random_triple(4, (1, 1)))).ball
        assert ball.gauge is None and ball.Bu.dtype == np.complex128

    @pytest.mark.parametrize("H", [
        # a 3-cycle with gain i: an odd number of imaginary edges on a cycle
        hermitian_stack({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1j}),
        # one position real in one generator and imaginary in another
        hermitian_stack({(0, 1): 1.0}, {(0, 1): 2j, (1, 2): 1.0}),
        # one entry with both parts nonzero
        hermitian_stack({(0, 1): 1.0 + 1e-300j}),
    ], ids=["3-cycle with gain i", "real and imaginary position", "complex entry"])
    def test_no_gauge_without_a_consistent_parity(self, H):
        assert NormBall(H).gauge is None

    def test_gauge_on_a_balanced_cycle(self):
        # two imaginary edges on a 4-cycle and an isolated vertex: each
        # imaginary edge flips the parity, the real edges keep it
        H = hermitian_stack({(0, 1): 1j, (1, 2): -2j, (2, 3): 3.0, (0, 3): -1.0},
                            {(0, 0): 5.0, (1, 2): 0.5j}, h=5)
        g = NormBall(H).gauge
        assert g.tolist() == [0, 1, 0, 0, 0]
        w = QUARTER_TURNS[g]
        gauged = np.conj(w)[:, None] * H * w
        assert not gauged.imag.any()
        assert np.array_equal(np.abs(gauged.real), np.abs(H))


class TestChiralSolve:
    """The off-diagonal block when a grading makes every generator odd,
    checked against the solve on the full generators."""

    @pytest.mark.parametrize("H,gamma", [
        # a 4-cycle with a pendant vertex: bipartite
        (hermitian_stack({(0, 1): 1.0, (1, 2): 2j}, {(2, 3): 1.0 - 1j, (0, 3): 3.0, (3, 4): 1.0},
                         h=5), [1, -1, 1, -1, 1]),
        # a 3-cycle is not bipartite
        (hermitian_stack({(0, 1): 1.0, (1, 2): 1.0}, {(0, 2): 1j}), None),
        # a diagonal entry, however small, is even under every grading
        (hermitian_stack({(0, 1): 1.0, (2, 2): 1e-300}, {(1, 2): 1.0}), None),
    ], ids=["bipartite", "3-cycle", "diagonal entry"])
    def test_chiral_grading(self, H, gamma):
        got = grading(NormBall(H))
        if gamma is None:
            assert got is None
        else:
            assert got.tolist() == gamma
            assert np.array_equal(got[:, None] * H * got, -H)

    def test_commutant_rotation_keeps_the_distance(self):
        # u = 1 (x) U2 commutes with pi(a) = a (x) 1, so (pi, u D u*, u gamma u*)
        # has the same distances; the rotated generators fill their support,
        # diagonal included, and the solve runs on the full generators
        t = random_triple(7, (2,))
        rng = np.random.default_rng(0)
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(np.eye(2), u2)
        rotated = SpectralTriple(t.rep, u @ t.dirac @ u.conj().T, u @ t.grading @ u.conj().T)
        phi, phi2 = random_state(t.algebra, rng), random_state(t.algebra, rng)
        brackets = []
        for triple, chiral in ((t, True), (rotated, False)):
            solver = DistanceSolver(triple)
            assert (grading(solver.ball) is not None) is chiral
            r = solver.distance(phi, phi2, 1e-10)
            assert r.status == "finite"
            brackets.append((r.lower, r.upper))
        (lo1, up1), (lo2, up2) = brackets
        assert max(lo1, lo2) <= min(up1, up2) * (1 + 1e-12)
        assert lo1 == pytest.approx(lo2, rel=1e-10)

    def test_block_solve_agrees_with_the_full_solve(self, monkeypatch):
        # the lattice product is chiral and solves on its 12 x 12 block; a
        # second solver, built with the parity colouring switched off, runs
        # the same solves on the full 24 x 24 generators (in complex
        # arithmetic: its generators are imaginary, so their gauge is the
        # grading's colouring), and both close to brackets that overlap
        pt = product(two_point(2.0), two_sheeted_line(6))
        solver = DistanceSolver(pt)
        plus, minus = pure_states(pt.algebra.factors[0])
        deltas = pure_states(pt.algebra.factors[1])
        pairs = [(product_state(plus, deltas[x], pt.algebra),
                  product_state(minus, deltas[y], pt.algebra))
                 for x, y in ((0, 0), (0, 5), (2, 3), (4, 1), (5, 5))]
        inv, shapes, tol = np.linalg.inv, set(), 1e-7

        def recorded(a):
            shapes.add(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recorded)
        block = [solver.distance(phi, phi2, tol) for phi, phi2 in pairs]
        assert shapes == {(12, 12)}
        shapes.clear()
        monkeypatch.setattr(ncgp.sdp, "_parity_colouring", lambda h, ia, ib, odd: None)
        full_solver = DistanceSolver(pt)
        full = [full_solver.distance(phi, phi2, tol) for phi, phi2 in pairs]
        assert shapes == {(24, 24)}
        for a, b in zip(block, full):
            assert a.status == b.status == "finite"
            assert max(a.lower, b.lower) <= min(a.upper, b.upper)
            assert a.lower == pytest.approx(b.lower, rel=tol)

    @pytest.mark.parametrize("x", [0, 3, 5])
    def test_edge_pairs_close(self, x):
        # (phi+ x delta_x, phi- x delta_x) on the two-sheeted line: at the
        # ends x = 0 and 5 the certificate closes tol 1e-8 only once it is
        # projected onto its constraint
        pt = product(two_point(2.0), two_sheeted_line(6))
        plus, minus = pure_states(pt.algebra.factors[0])
        delta = pure_states(pt.algebra.factors[1])[x]
        r = DistanceSolver(pt).distance(product_state(plus, delta, pt.algebra),
                                        product_state(minus, delta, pt.algebra), 1e-8)
        assert r.status == "finite"
        assert r.upper - r.lower <= 1e-8 * r.lower


@pytest.mark.usefixtures("no_fallback")
class TestCholeskyFailure:
    def test_solve_ends_with_the_bracket_it_has(self, monkeypatch):
        # the k x k factorization of K, once per iterate, works at the start
        # and after 11 Newton steps, then raises after the 12th: the solve
        # stops without an exception, unconverged, with the bracket of the
        # outer iterations it completed; the line search's h x h
        # factorizations of I - B(y) B(y)* pass through uncounted
        rng = np.random.default_rng(7)
        diags = [rng.normal(size=5) for _ in range(3)]
        c = rng.normal(size=3)
        want = lp_oracle_diagonal(c, diags)
        L = np.zeros((3, 5, 5), dtype=complex)
        for j, d in enumerate(diags):
            L[j] = np.diag(d)
        cholesky, calls = np.linalg.cholesky, []

        def failing(a):
            if a.shape == (3, 3):
                calls.append(1)
                if len(calls) > 12:
                    raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        sol = maximize_over_unit_ball(c, NormBall(L), 1e-9)
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
