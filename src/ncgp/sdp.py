"""Dense interior-point machinery for seminorm-constrained linear maximization.

The problem solved here is

    maximize  c . y   subject to  || H(y) || <= 1,    H(y) = sum_j y_j H_j,

with H_j Hermitian h x h matrices whose span contains no nonzero kernel
directions (the caller projects those out first).  For Hermitian H(y) the
norm ball is the pair of linear matrix inequalities -I <= H(y) <= I, solved by
log-det barrier path following without ever diagonalizing the iterate
(Vandenberghe and Boyd, *Semidefinite programming*, SIAM Rev. 38 (1996)): one
batched Cholesky factorization of the pair I +- H tests strict feasibility and
gives logdet(I + H) + logdet(I - H) = 2 sum log diag(L+) + 2 sum log diag(L-),
and one batched inverse gives S+- = (I +- H)^-1 at each accepted iterate.

The problem is homogeneous: for a, b > 0, max (a c).y over ||H(y) / b|| <= 1
is a b times max c.y over ||H(y)|| <= 1.  So the solve first divides c by
||c|| and the H_j by sigma = sqrt(lambda_max(G)), G_ij = Re tr(H_i H_j) the
Gram matrix, runs on that unit-scale data, and scales the bracket by
||c|| / sigma and y_best by 1 / sigma on return.  On unit-scale data every threshold (the
decrement, the line-search step, the ridge, the final mu) is relative, and
the optimum is at least 1 (y = c / ||H(c)|| attains 1 / ||H(c)|| >= 1 /
||H(c)||_F >= 1), so the bracket closes when upper - lower <= tol * lower,
at any scale of c and the H_j.  The barrier parameter starts at
mu = 1 / (2h): centered pairs have duality gap 2 h mu, so the first bracket
is already within a factor of 2 of the optimum.

Once per outer iteration, the strictly feasible iterate scaled to the
boundary by its exact norm (one eigvalsh of H(y)) gives a certified lower
bound, and dual certificates Z+, Z- >= 0 built from S+- with
<Z+ - Z-, H_j> = -c_j (one eigvalsh of the stack [Z+, Z-]) give a certified
upper bound tr Z+ + tr Z-.  The path is advanced until the bracket closes;
a line search without ascent or a Newton system that is not positive
definite to working precision ends the solve with the bracket it has.

The H_j are read only on their union support U = {(a, b) : some H_j[a, b] != 0},
as index arrays ia, ib and the values Hu = H[:, ia, ib] (k x |U|): H(y) is
y @ Hu scattered into (ia, ib), the Gram matrix is Hu @ Hu*, and the
certificate residual is Hu @ conj(Z+ - Z-)[ia, ib].  Products of spectral
triples give sparse H_j (6 to 8 entries each on the two-sheeted lattices).
The Newton system (gradient c_j + mu tr((S+ - S-) H_j) and
K_ij = tr(S+ H_i S+ H_j) + tr(S- H_i S- H_j)) has two contraction orders on
top of the shared S+-, after the sparse Schur-complement assembly of
Fujisawa, Kojima and Nakata (Math. Program. 79, 1997):

  * support order: gather A+- = S+-[ib, ia] (|U| x |U|), then
        gradient = c + mu Re(Hu diag(A+ - A-)),
        K        = Re(Hu (A+ o A+^T + A- o A-^T) Hu^T);
    k|U|^2 + k^2|U| flops, plus memory-bound passes over the 2|U|^2 entries
    of A+- (gather, Hadamard products) that take about as long as 16|U|^2;
  * dense order: X = [S+; S-] [H_1 ... H_k], one GEMM holding every S+- H_j,
    then gradient = c + mu Re tr(X+_j - X-_j) and
    K_ij = Re tr(X+_i X+_j + X-_i X-_j), one real GEMM; 2k h^3 + 2k^2 h^2 flops.

Each solve computes both counts from (k, h, |U|) and runs the cheaper order;
both give the same numbers up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import CENTERING_TOL, MIN_MU, MIN_STEP, RIDGE_TOL

MAX_OUTER = 60       # barrier-parameter reductions per solve
MAX_CENTERING = 60   # Newton steps per barrier parameter
MAX_NEWTON = 1200    # Newton steps per solve, over all outer iterations


@dataclass
class LMISolution:
    """Certified bracket for max c.y over the unit ball of ||H(y)||."""

    y_best: np.ndarray        # feasible point on the boundary, achieves `lower`
    lower: float
    upper: float
    converged: bool
    newton_steps: int


def _union_support(H: np.ndarray):
    """Index arrays (ia, ib) of the entries where some H_j is nonzero, and
    the values Hu = H[:, ia, ib]."""
    ia, ib = np.nonzero(np.any(H, axis=0))
    return ia, ib, np.ascontiguousarray(H[:, ia, ib])


def _log_det(P: np.ndarray) -> float:
    """log det P[0] + log det P[1] from one batched Cholesky factorization;
    -inf unless both are positive definite to working precision."""
    try:
        ch = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.diagonal(ch, axis1=1, axis2=2).real)))


def _inverse(P: np.ndarray) -> np.ndarray:
    """[P[0]^-1, P[1]^-1] from one batched inverse, made exactly Hermitian:
    eigvalsh reads one triangle of the certificate built from it."""
    S = np.linalg.inv(P)
    return (S + np.conj(S.transpose(0, 2, 1))) / 2.0


def _support_order_is_cheaper(k: int, h: int, m: int) -> bool:
    """Whether `_newton_support` is cheaper than `_newton_dense`, by the module
    docstring's counts, for k generators h x h with m union-support entries."""
    return (k + 16) * m * m + k * k * m < 2 * k * h ** 3 + 2 * k * k * h * h


def _newton_support(c: np.ndarray, Hu: np.ndarray, gather: np.ndarray, mu: float,
                    S: np.ndarray):
    """Gradient and K = -Hessian/mu of the barrier c.y + mu log det(I - H(y)^2)
    from S = [S+, S-] (2 x h x h), read on the union support only, where
    gather = ib[:, None] * h + ia indexes the flattened S.

    tr(S H_j) = sum_p Hu[j, p] S[ib_p, ia_p] and tr(S H_i S H_j) =
    sum_{p, q} Hu[i, p] S[ib_p, ia_q] Hu[j, q] S[ib_q, ia_p], so with
    A = S[ib, ia] the gradient reads diag(A) and K reads A o A^T.
    """
    k = Hu.shape[0]
    A = np.take(S.reshape(2, -1), gather, axis=1)   # A[0] = A+, A[1] = A-
    grad = c + mu * (Hu @ (np.diagonal(A[0]) - np.diagonal(A[1]))).real
    AA = A * A.transpose(0, 2, 1)
    # Re(X @ Y^T) is the real GEMM of the interleaved (re, im) views of X, conj(Y)
    B = Hu @ (AA[0] + AA[1])
    K = B.view(np.float64).reshape(k, -1) @ np.conj(Hu).view(np.float64).reshape(k, -1).T
    return grad, K


def _newton_dense(c: np.ndarray, Hp: np.ndarray, mu: float, S: np.ndarray):
    """The same gradient and K as `_newton_support`, from the dense products
    S+- H_j, for Hp = [H_1 ... H_k] (h x k h)."""
    h, k = Hp.shape[0], Hp.shape[1] // Hp.shape[0]
    # one GEMM gives X[s, a, j, b] = (S_s H_j)[a, b]
    X = (S.reshape(2 * h, h) @ Hp).reshape(2, h, k, h)
    tr = np.diagonal(X, axis1=1, axis2=3).sum(axis=-1)   # tr(S_s H_j), s x j
    grad = c + mu * (tr[0] - tr[1]).real
    # K_ij = Re sum_s tr(S_s H_i S_s H_j) = Re sum_{s, a, b} X[s, a, i, b] X[s, b, j, a],
    # the real GEMM of the interleaved (re, im) views of X and conj(X) transposed
    P = np.ascontiguousarray(X.transpose(2, 0, 1, 3))
    Q = np.conj(X.transpose(2, 0, 3, 1), order="C")
    K = P.view(np.float64).reshape(k, -1) @ Q.view(np.float64).reshape(k, -1).T
    return grad, K


def maximize_over_unit_ball(c: np.ndarray, H: np.ndarray, tol: float) -> LMISolution:
    """Path-following solve of max c.y s.t. -I <= sum_j y_j H_j <= I.

    Requires c != 0 and the H_j to be exactly Hermitian and linearly
    independent; returns a certified bracket [lower, upper] with
    `lower` attained by `y_best`, converged when upper - lower <= tol * lower.
    If a Newton system is not positive definite to working precision or the
    line search finds no ascent, the solve ends with the bracket it has and
    `converged=False`.
    """
    if not np.array_equal(H, H.conj().transpose(0, 2, 1)):
        raise ValueError("H_j must be Hermitian")
    c = np.asarray(c, dtype=float)
    if not c.any():
        raise ValueError("c must be nonzero")
    k, h = H.shape[0], H.shape[1]
    ia, ib, Hu = _union_support(H)
    flat = ia * h + ib

    # Gram matrix of the H_j; PD by linear independence
    g = np.linalg.eigvalsh((Hu @ np.conj(Hu).T).real)
    if g[0] <= 0:
        raise ValueError("H_j must be linearly independent (project out the kernel first)")
    # unit-scale data: c / ||c|| and H_j / sigma, sigma^2 the top Gram
    # eigenvalue; the bracket scales back by ||c|| / sigma, y_best by 1 / sigma
    cnorm, sigma = float(np.linalg.norm(c)), float(np.sqrt(g[-1]))
    c, Hu = c / cnorm, Hu / sigma
    # for feasible y, ||H(y)||_F <= sqrt(h) ||H(y)||_op <= sqrt(h), and the
    # normalized Gram matrix has smallest eigenvalue g[0] / g[-1]
    ybound = float(np.sqrt(h * g[-1] / g[0]))
    # the two sides of the LMI, stacked: index 0 is I + H, index 1 is I - H
    eye, signs = np.eye(h), np.array([1.0, -1.0])[:, None, None]

    def H_of(yv: np.ndarray) -> np.ndarray:
        """H(yv) = sum_j yv_j H_j, scattered from the union support."""
        out = np.zeros(h * h, dtype=Hu.dtype)
        out[flat] = yv @ Hu
        return out.reshape(h, h)

    y, y_best = np.zeros(k), np.zeros(k)
    lower, upper = 0.0, np.inf
    mu = 1.0 / (2 * h)   # first duality gap 2 h mu = 1 <= the optimum
    steps, converged = 0, False

    # the cheaper contraction order at these (k, h, |U|)
    if _support_order_is_cheaper(k, h, ia.size):
        gather = ib[:, None] * h + ia

        def newton_system(S):
            return _newton_support(c, Hu, gather, mu, S)
    else:
        Hp = np.concatenate(H, axis=1) / sigma

        def newton_system(S):
            return _newton_dense(c, Hp, mu, S)

    def barrier(yv: np.ndarray) -> float:
        """c.yv + mu log det(I - H(yv)^2), -inf off the open unit ball."""
        return float(c @ yv) + mu * _log_det(eye + signs * H_of(yv))

    def newton_data(yv: np.ndarray):
        """S = [S+, S-] = (I +- H(yv))^-1, Newton direction d (K d = grad / mu),
        decrement.  Raises LinAlgError when K is not positive definite to
        working precision."""
        S = _inverse(eye + signs * H_of(yv))
        grad, K = newton_system(S)
        K.flat[::k + 1] += RIDGE_TOL * float(np.trace(K)) / k
        ch = np.linalg.cholesky(K)
        d = np.linalg.solve(ch.T, np.linalg.solve(ch, grad)) / mu
        lam2 = abs(float(grad @ d)) / mu   # Newton decrement of the mu-barrier
        return S, d, lam2

    try:
        S, d, lam2 = newton_data(y)
        for _ in range(MAX_OUTER):
            # center at the current mu: drive the barrier Newton decrement small
            # so the Newton-corrected dual point below is positive definite;
            # the Newton data (S, d, lam2) and fy always belong to the current y
            fy = barrier(y)
            for _ in range(MAX_CENTERING):
                if lam2 <= CENTERING_TOL or steps >= MAX_NEWTON:
                    break
                gd = lam2 * mu   # equals grad.d by definition of the decrement
                t = 1.0
                while t > MIN_STEP and (ft := barrier(y + t * d)) < fy + 0.01 * t * gd:
                    t *= 0.5
                if t <= MIN_STEP:
                    break
                y, fy = y + t * d, ft
                steps += 1
                S, d, lam2 = newton_data(y)

            # primal bound: scale the strictly feasible iterate to the boundary
            lam = np.linalg.eigvalsh(H_of(y))
            norm = max(-lam[0], lam[-1])
            cand = float(c @ y) / norm
            if cand > lower:
                lower, y_best = cand, y / norm

            # dual bound: the Newton-corrected dual pair
            #   Z+ = mu (S+ - S+ dH S+),   Z- = mu (S- + S- dH S-),   dH = H(d),
            # satisfies <Z+ - Z-, H_j> = -c_j exactly by the Newton equations and
            # is positive definite once the decrement is small; residual roundoff
            # is folded in via the a-priori bound on feasible ||y||.
            Z = mu * (S - signs * (S @ H_of(d) @ S))
            resid = (Hu @ np.conj((Z[0] - Z[1]).ravel()[flat])).real + c
            zmin = float(np.linalg.eigvalsh(Z)[:, 0].min())
            ub = float(np.trace(Z, axis1=1, axis2=2).real.sum()) + 2 * h * max(0.0, -zmin) \
                + float(np.linalg.norm(resid)) * ybound
            upper = min(upper, ub)

            if upper - lower <= tol * lower:
                converged = True
                break
            if steps >= MAX_NEWTON or mu <= MIN_MU:
                break
            mu *= 0.15
            S, d, lam2 = newton_data(y)
    except np.linalg.LinAlgError:
        pass   # K singular: keep the bracket found so far

    scale = cnorm / sigma
    return LMISolution(y_best=y_best / sigma, lower=lower * scale, upper=upper * scale,
                       converged=converged, newton_steps=steps)


def ratio_ascent(c: np.ndarray, L: np.ndarray, seed: int = 0,
                 n_random_starts: int = 32, n_steps: int = 250) -> tuple[float, np.ndarray]:
    """Multi-start supergradient ascent on the ratio c.y / ||L(y)||.

    Heuristic lower-bound oracle for the same problem as
    `maximize_over_unit_ball`, used by the tests to check its brackets; the
    distance solver never calls it.  Deterministic given the seed, with the
    maximum over starts taken in start order.  Returns (best ratio, maximizer
    on the unit sphere).
    """
    c = np.asarray(c, dtype=float)
    k = L.shape[0]
    rng = np.random.default_rng(seed)
    starts = [c / np.linalg.norm(c)] if np.linalg.norm(c) > 0 else []
    starts += [e for e in np.eye(k)]
    for _ in range(n_random_starts):
        v = rng.normal(size=k)
        starts.append(v / np.linalg.norm(v))

    def ratio_and_grad(y: np.ndarray) -> tuple[float, np.ndarray]:
        Ly = np.einsum("j,jpq->pq", y, L)
        u, s, vh = np.linalg.svd(Ly)
        g = float(s[0])
        if g < 1e-15:
            return -np.inf, np.zeros(k)
        # supergradient of the top singular value from its first (smallest
        # index) singular pair; deterministic tie-breaking at nonsmooth points
        dg = np.einsum("p,jpq,q->j", u[:, 0].conj(), L, vh[0].conj()).real
        val = float(c @ y) / g
        return val, (c - val * dg) / g

    best_val, best_y = -np.inf, np.zeros(k)
    for y0 in starts:
        y = y0.copy()
        for step in range(n_steps):
            v, grad = ratio_and_grad(y)
            if v > best_val:
                best_val, best_y = v, y.copy()
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            y = y + (0.5 / (1.0 + step / 25.0)) * grad / gn
            y = y / np.linalg.norm(y)
        v, _ = ratio_and_grad(y)
        if v > best_val:
            best_val, best_y = v, y.copy()
    return best_val, best_y
