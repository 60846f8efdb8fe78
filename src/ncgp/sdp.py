"""Dense interior-point machinery for seminorm-constrained linear maximization.

The problem solved here is

    maximize  c . y   subject to  || H(y) || <= 1,    H(y) = sum_j y_j H_j,

with H_j Hermitian h x h matrices whose span contains no nonzero kernel
directions (the caller projects those out first).  For Hermitian H(y) the
norm ball is the pair of linear matrix inequalities -I <= H(y) <= I, solved by
log-det barrier path following on one eigendecomposition H = W diag(lam) W*:

    logdet(I + H) + logdet(I - H) = sum_i log(1 - lam_i^2),
    S+ = (I + H)^-1 = W diag(b) W*,   S- = (I - H)^-1 = W diag(a) W*,
    b = 1/(1 + lam),                  a = 1/(1 - lam).

Every iterate is strictly feasible, so scaling to the boundary gives
certified lower bounds; dual certificates Z+, Z- >= 0 with
<Z+ - Z-, H_j> = -c_j give certified upper bounds tr Z+ + tr Z-.  The path
is advanced until the bracket closes below the tolerance: this plays the role
of a bisection on the target value, where the query "is the optimum >= t" is
answered by the current primal/dual pair.

The Newton system is assembled with BLAS matrix products.  With the H_j kept
both as rows of Hflat (k x h^2) and side by side as Hp = [H_1 ... H_k]
(h x k h):

    H(y)      = (y @ Hflat) reshaped to h x h;
    H~_j      = W* H_j W  from  W* @ Hp  (h x k h), reshaped to (h k) x h, @ W;
    gradient  = c - mu Re diag(H~) @ (a - b)    (diag(H~) is k x h);
    K         = Re[(H~ o (a a^T + b b^T)) @ H~^H], one real GEMM on real views;

and the certificate residual <Z+ - Z-, H_j> is Hflat @ conj(Z+ - Z-)
flattened.  The Gram matrix of the H_j is Hflat @ Hflat*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_OUTER = 60      # barrier-parameter reductions per solve
MAX_NEWTON = 1200   # Newton steps per solve, over all outer iterations


@dataclass
class LMISolution:
    """Certified bracket for max c.y over the unit ball of ||H(y)||."""

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


def _newton_system(c: np.ndarray, Hp: np.ndarray, mu: float, W: np.ndarray,
                   lam: np.ndarray):
    """Gradient and K = -Hessian/mu of the barrier c.y + mu sum log(1 - lam^2)
    at H(y) = W diag(lam) W*, for Hp = [H_1 ... H_k] (h x k h).

    With a = 1/(1 - lam), b = 1/(1 + lam) and H~_j = W* H_j W, the gradient is
    c_j + mu tr((S+ - S-) H_j) and K_ij = tr(S+ H_i S+ H_j) + tr(S- H_i S- H_j).
    """
    h = Hp.shape[0]
    k = Hp.shape[1] // h
    a = 1.0 / (1.0 - lam)
    b = 1.0 / (1.0 + lam)
    # two GEMMs give H~ as [p, j, q]; one copy makes it [j, p, q]
    Ht = ((np.conj(W).T @ Hp).reshape(h * k, h) @ W).reshape(h, k, h)
    Ht = np.ascontiguousarray(Ht.transpose(1, 0, 2))
    grad = c - mu * (np.diagonal(Ht, axis1=1, axis2=2) @ (a - b)).real
    # Re(X @ Y^H) is the real GEMM of the interleaved (re, im) views
    weighted = Ht * (np.outer(a, a) + np.outer(b, b))
    K = weighted.view(np.float64).reshape(k, -1) @ Ht.view(np.float64).reshape(k, -1).T
    return grad, K


def maximize_over_unit_ball(c: np.ndarray, H: np.ndarray, tol: float) -> LMISolution:
    """Path-following solve of max c.y s.t. -I <= sum_j y_j H_j <= I.

    Requires the H_j to be exactly Hermitian and linearly independent;
    returns a certified bracket [lower, upper] with `lower` attained by
    `y_best`.
    """
    if not np.array_equal(H, H.conj().transpose(0, 2, 1)):
        raise ValueError("H_j must be Hermitian")
    c = np.asarray(c, dtype=float)
    k, h = H.shape[0], H.shape[1]
    Hflat = H.reshape(k, h * h)
    Hp = np.concatenate(H, axis=1)

    # Gram matrix of the H_j; PD by linear independence.  For any feasible y,
    # ||H(y)||_F <= sqrt(h) ||H(y)||_op <= sqrt(h), hence ||y|| <= ybound.
    G = (Hflat @ np.conj(Hflat).T).real
    gmin = float(np.linalg.eigvalsh(G)[0])
    if gmin <= 0:
        raise ValueError("H_j must be linearly independent (project out the kernel first)")
    ybound = float(np.sqrt(h / gmin))

    y = np.zeros(k)
    lower, upper = 0.0, np.inf
    y_best = np.zeros(k)
    mu = max(float(np.linalg.norm(c)), 1e-8)
    steps = 0
    converged = False

    def barrier(yv: np.ndarray, lam: np.ndarray | None = None) -> float:
        """Barrier value at yv, from the eigenvalues lam of H(yv) if known."""
        if lam is None:
            lam = np.linalg.eigvalsh((yv @ Hflat).reshape(h, h))
        if max(-lam[0], lam[-1]) >= 1.0:
            return -np.inf
        return float(c @ yv) + mu * float(np.sum(np.log1p(-lam * lam)))

    def newton_data(yv: np.ndarray):
        """Eigenpairs of H(yv), Newton direction d (K d = grad / mu), decrement."""
        lam, W = np.linalg.eigh((yv @ Hflat).reshape(h, h))
        if max(-lam[0], lam[-1]) >= 1.0 - 1e-15:
            return None
        grad, K = _newton_system(c, Hp, mu, W, lam)
        d = _chol_solve(K, grad) / mu
        lam2 = abs(float(grad @ d)) / mu   # Newton decrement of the mu-barrier
        return W, lam, d, lam2

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
            _, lam, d, lam2 = data
            if lam2 <= 1e-6:
                break
            f0 = barrier(y, lam)
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
        W, lam, d, lam2 = data

        # primal bound: scale the strictly feasible iterate to the boundary
        norm = max(-lam[0], lam[-1])
        if norm > 1e-15:
            cand = float(c @ y) / norm
            if cand > lower:
                lower, y_best = cand, y / norm

        # dual bound: the Newton-corrected dual pair
        #   Z+ = mu (S+ - S+ dH S+),   Z- = mu (S- + S- dH S-),   dH = H(d),
        # satisfies <Z+ - Z-, H_j> = -c_j exactly by the Newton equations and
        # is positive definite once the decrement is small; residual roundoff
        # is folded in via the a-priori bound on feasible ||y||.
        Wh = np.conj(W).T
        Sp, Sm = (W / (1.0 + lam)) @ Wh, (W / (1.0 - lam)) @ Wh
        dH = (d @ Hflat).reshape(h, h)
        Zp = mu * (Sp - Sp @ dH @ Sp)
        Zm = mu * (Sm + Sm @ dH @ Sm)
        resid = (Hflat @ np.conj(Zp - Zm).ravel()).real + c
        zmin = min(float(np.linalg.eigvalsh(Zp)[0]), float(np.linalg.eigvalsh(Zm)[0]))
        ub = float(np.trace(Zp).real + np.trace(Zm).real) + 2 * h * max(0.0, -zmin) \
            + float(np.linalg.norm(resid)) * ybound
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
