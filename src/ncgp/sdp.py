"""Dense interior-point machinery for seminorm-constrained linear maximization.

The problem solved here is

    maximize  c . y   subject to  || L(y) || <= 1,    L(y) = sum_j y_j L_j,

with L_j complex h x h matrices whose span contains no nonzero kernel
directions (the caller projects those out first).  The operator-norm ball is
encoded by the standard linear matrix inequality

    || X || <= 1   iff   M = [[I, X], [X*, I]]  is positive semidefinite,

and the LMI is solved by log-det barrier path following.  The two-block
structure makes everything computable from the singular value decomposition
X = U diag(s) V*: the eigenvalues of M are 1 +/- s_i, so

    logdet M = sum_i log(1 - s_i^2),
    M^{-1}   = [[P, -T], [-T*, R]],   P = U diag(1/(1-s^2)) U*,
                                      R = V diag(1/(1-s^2)) V*,
                                      T = U diag(s/(1-s^2)) V*.

Every iterate is strictly feasible, so scaling to the boundary gives
certified lower bounds; dual certificates Z >= 0 with <Z, A_j> = -c_j give
certified upper bounds tr(Z).  The path is advanced until the bracket closes
below the tolerance: this plays the role of a bisection on the target value,
where the query "is the optimum >= t" is answered by the current primal/dual
pair.

The Newton system is assembled with BLAS matrix products on reshaped arrays,
not with einsum.  With the L_j kept both as rows of Lflat (k x h^2) and side
by side as Lp = [L_1 ... L_k] (h x k h):

    L(y)      = (y @ Lflat) reshaped to h x h;
    L~_j      = U* L_j V  from  U* @ Lp  (h x k h), reshaped to (h k) x h, @ V;
    K1        = (L~ * dp dp^T) (k x h^2)  @  conj(L~)^T (h^2 x k);
    K2        = M~ with its two matrix axes swapped (k x h^2)  @  M~^T,
                M~_j = conj(L~_j) diag(dq);
    gradient  = c - 2 mu Re diag(L~) @ dq    (diag(L~) is k x h);

and the certificate residual <Z, A_j> is Lflat @ conj(Z_12) flattened.  The
Gram matrix of the L_j is Lflat @ Lflat*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_OUTER = 60      # barrier-parameter reductions per solve
MAX_NEWTON = 1200   # Newton steps per solve, over all outer iterations


@dataclass
class LMISolution:
    """Certified bracket for max c.y over the unit ball of ||L(y)||."""

    y_best: np.ndarray        # feasible point on the boundary, achieves `lower`
    lower: float
    upper: float
    converged: bool
    newton_steps: int


def _chol_solve(K: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = K.shape[0]
    ridge = 1e-13 * max(1.0, float(np.trace(K)) / k)
    for _ in range(6):
        try:
            ch = np.linalg.cholesky(K + ridge * np.eye(k))
            return np.linalg.solve(ch.conj().T, np.linalg.solve(ch, b))
        except np.linalg.LinAlgError:
            ridge *= 100.0
    return np.linalg.lstsq(K, b, rcond=None)[0]


def _newton_system(c: np.ndarray, Lp: np.ndarray, mu: float, U: np.ndarray,
                   s: np.ndarray, V: np.ndarray):
    """Gradient and K = -Hessian/mu of the barrier c.y + mu logdet M at
    L(y) = U diag(s) V*.

    Lp = [L_1 ... L_k] is h x k h.  With slack 1 - s^2, dp = 1/slack and
    dq = s/slack, the gradient is c_j - 2 mu Re tr(diag(dq) L~_j) and
    K_ij = 2 Re [tr(P L_i R L_j*) + tr(T L_i* T L_j*)] for L~_j = U* L_j V.
    Returns (grad, K, dp, dq).
    """
    h = Lp.shape[0]
    k = Lp.shape[1] // h
    slack = 1.0 - s * s
    dq = s / slack
    dp = 1.0 / slack
    # two GEMMs give L~ as [p, j, q]; one copy makes it [j, p, q]
    Lt = ((np.conj(U).T @ Lp).reshape(h * k, h) @ V).reshape(h, k, h)
    Lt = np.ascontiguousarray(Lt.transpose(1, 0, 2))
    grad = c - 2.0 * mu * (np.diagonal(Lt, axis1=1, axis2=2) @ dq).real
    K1 = (Lt * np.outer(dp, dp)).reshape(k, h * h) @ np.conj(Lt).reshape(k, h * h).T
    Mt = np.conj(Lt) * dq
    K2 = Mt.transpose(0, 2, 1).reshape(k, h * h) @ Mt.reshape(k, h * h).T
    K = 2.0 * (K1 + K2).real
    return grad, K, dp, dq


def maximize_over_unit_ball(c: np.ndarray, L: np.ndarray, tol: float) -> LMISolution:
    """Path-following solve of max c.y s.t. ||sum_j y_j L_j||_op <= 1.

    Requires the L_j to be linearly independent; returns a certified bracket
    [lower, upper] with `lower` attained by `y_best`.
    """
    c = np.asarray(c, dtype=float)
    k, h = L.shape[0], L.shape[1]
    Lflat = L.reshape(k, h * h)
    Lp = np.concatenate(L, axis=1)

    # Gram matrix of the L_j; PD by linear independence.  For any feasible y,
    # ||L(y)||_F <= sqrt(h) ||L(y)||_op <= sqrt(h), hence ||y|| <= ybound.
    G = (Lflat @ np.conj(Lflat).T).real
    gmin = float(np.linalg.eigvalsh(G)[0])
    if gmin <= 0:
        raise ValueError("L_j must be linearly independent (project out the kernel first)")
    ybound = float(np.sqrt(h / gmin))

    y = np.zeros(k)
    lower, upper = 0.0, np.inf
    y_best = np.zeros(k)
    mu = max(float(np.linalg.norm(c)), 1e-8)
    steps = 0
    converged = False

    def barrier(yv: np.ndarray, s: np.ndarray | None = None) -> float:
        """Barrier value at yv, from the singular values s of L(yv) if known."""
        if s is None:
            s = np.linalg.svd((yv @ Lflat).reshape(h, h), compute_uv=False)
        if s[0] >= 1.0:
            return -np.inf
        return float(c @ yv) + mu * float(np.sum(np.log1p(-s * s)))

    def newton_data(yv: np.ndarray):
        """SVD pieces, Newton direction and decrement at yv.

        L(yv) is one GEMV on Lflat; its SVD X = U diag(s) V* feeds the
        GEMM-assembled gradient and K of `_newton_system`, and d solves
        K d = grad / mu.
        """
        U, s, Vh = np.linalg.svd((yv @ Lflat).reshape(h, h))
        if s[0] >= 1.0 - 1e-15:
            return None
        V = Vh.conj().T
        grad, K, dp, dq = _newton_system(c, Lp, mu, U, s, V)
        d = _chol_solve(K, grad) / mu
        lam2 = abs(float(grad @ d)) / mu   # Newton decrement of the mu-barrier
        return U, s, V, dp, dq, d, lam2

    for _ in range(MAX_OUTER):
        # center at the current mu: drive the barrier Newton decrement small
        # so the Newton-corrected dual point below is positive definite
        data = None
        for _ in range(60):
            if steps >= MAX_NEWTON:
                break
            data = newton_data(y)
            if data is None:
                y = 0.999 * y
                steps += 1
                continue
            _, s, _, _, _, d, lam2 = data
            if lam2 <= 1e-6:
                break
            f0 = barrier(y, s)
            gd = lam2 * mu   # equals grad.d by definition of the decrement
            t = 1.0
            while t > 1e-14 and barrier(y + t * d) < f0 + 0.01 * t * gd:
                t *= 0.5
            if t <= 1e-14:
                break
            y = y + t * d
            steps += 1
            data = None

        if data is None:
            data = newton_data(y)
            if data is None:
                break
        U, s, V, dp, dq, d, lam2 = data

        # primal bound: scale the strictly feasible iterate to the boundary
        if s[0] > 1e-15:
            cand = float(c @ y) / s[0]
            if cand > lower:
                lower, y_best = cand, y / s[0]

        # dual bound: the Newton-corrected dual point
        #   Z = mu (M^-1 - M^-1 dM M^-1),   dM = sum_j d_j A_j,
        # satisfies <Z, A_j> = -c_j exactly by the Newton equations and is
        # positive definite once the decrement is small; residual roundoff is
        # folded in via the a-priori bound on feasible ||y||.
        minv = np.block([[(U * dp) @ np.conj(U).T, -(U * dq) @ V.conj().T],
                         [-(V * dq) @ np.conj(U).T, (V * dp) @ V.conj().T]])
        ld = (d @ Lflat).reshape(h, h)
        dM = np.zeros((2 * h, 2 * h), dtype=complex)
        dM[:h, h:] = ld
        dM[h:, :h] = np.conj(ld).T
        Z = mu * (minv - minv @ dM @ minv)
        resid2 = 2.0 * (Lflat @ np.conj(Z[:h, h:]).ravel()).real + c
        zmin = float(np.linalg.eigvalsh(Z)[0])
        ub = float(np.trace(Z).real) + 2 * h * max(0.0, -zmin) \
            + float(np.linalg.norm(resid2)) * ybound
        upper = min(upper, ub)

        if upper - lower <= tol * max(1.0, lower):
            converged = True
            break
        if steps >= MAX_NEWTON or mu <= 1e-13 * max(1.0, float(np.linalg.norm(c))):
            break
        mu *= 0.15

    return LMISolution(y_best=y_best, lower=lower, upper=upper,
                       converged=converged, newton_steps=steps)


def ratio_ascent(c: np.ndarray, L: np.ndarray, seed: int = 0,
                 n_random_starts: int = 32, n_steps: int = 250) -> tuple[float, np.ndarray]:
    """Multi-start supergradient ascent on the ratio c.y / ||L(y)||.

    Heuristic lower-bound oracle for the same problem as
    `maximize_over_unit_ball`; deterministic given the seed, with the maximum
    over starts taken in start order.  Returns (best ratio, maximizer on the
    unit sphere).
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
