"""Dense interior-point machinery for seminorm-constrained linear maximization.

The problem solved here is

    maximize  c . y   subject to  || H(y) || <= 1,    H(y) = sum_j y_j H_j,

with H_j Hermitian h x h matrices whose span contains no nonzero kernel
directions (the caller projects those out first).  For Hermitian H(y) the
norm ball is the pair of linear matrix inequalities -I <= H(y) <= I, solved by
log-det barrier path following without ever diagonalizing the iterate
(Vandenberghe and Boyd, *Semidefinite programming*, SIAM Rev. 38 (1996)): one
batched Cholesky factorization of the pair I +- H (of I + H alone when the
H_j are chiral, below) tests strict feasibility and gives
logdet(I + H) + logdet(I - H) = 2 sum log diag(L+) + 2 sum log diag(L-),
and one batched inverse gives S+- = (I +- H)^-1 once per iterate.  The
objective is linear, so the barrier's Hessian is -mu K with K below free of
mu (Boyd and Vandenberghe, *Convex Optimization* (2004), 11.3): a reduction
of mu solves again for the direction and factors nothing.

The problem is homogeneous: for a, b > 0, max (a c).y over ||H(y) / b|| <= 1
is a b times max c.y over ||H(y)|| <= 1.  So the solve first divides c by
||c|| and the H_j by sigma = sqrt(lambda_max(G)), G_ij = Re tr(H_i H_j) the
Gram matrix, runs on that unit-scale data, and scales the bracket by
||c|| / sigma and y_best by 1 / sigma on return.  It forms G only after
scaling the H_j by the power of two 2^-e that brings their largest entry
into [1/2, 1): that is exact, and G neither underflows nor overflows, at H_j
of 1e-300 or of 1e300.  sigma = 2^e sqrt(lambda_max(2^-2e G)) is kept as that
mantissa and power of two, and each rescaling applies the power last, since
sigma itself overflows at H_j near 1e308.  On unit-scale data every
threshold (the decrement, the line-search step, the ridge, the final mu) is
relative, and the optimum is at least 1 (y = c / ||H(c)|| attains
1 / ||H(c)|| >= 1 / ||H(c)||_F >= 1), so the bracket closes when
upper - lower <= tol * lower, at any scale of c and the H_j.  The barrier
parameter starts at mu = 1 / (2h): centered pairs have duality gap 2 h mu,
so the first bracket is already within a factor of 2 of the optimum.

Once per outer iteration, the strictly feasible iterate scaled to the
boundary by its exact norm (one eigvalsh of H(y)) gives a certified lower
bound, and dual certificates Z+, Z- >= 0 built from S+- with
<Z+ - Z-, H_j> = -c_j (one eigvalsh of the stack [Z+, Z-]) give a certified
upper bound tr Z+ + tr Z-.  Centering at one mu is loose, as in long-step
path following (Nesterov and Nemirovski, *Interior-Point Polynomial
Algorithms in Convex Programming* (1994); Boyd and Vandenberghe, ch. 11): it
ends when the squared Newton decrement lambda^2 = d.K.d is at most
CENTERING_TOL = 0.2, the line search finds no ascent or MAX_CENTERING steps
were taken; then mu falls by 0.15, until the bracket closes or mu reaches
MIN_MU (at most 17 outer iterations).  A Newton system that is not positive
definite to working precision ends the solve with the bracket it has.

The bracket is certified at any centering accuracy: the lower bound holds
for every strictly feasible iterate, and the upper bound adds the deficit
term 2h max(0, -lambda_min(Z+-)), which pays for an indefinite certificate.
Loose centering costs it nothing either: Z+- = mu S^1/2 (I -+ M) S^1/2 with
S = S+- and M = S^1/2 H(d) S^1/2, and lambda^2 = ||M+||_F^2 + ||M-||_F^2, so
Z+- is positive definite whenever lambda < 1, and at lambda^2 <= 0.2 the
deficit term does not bind in exact arithmetic.

The H_j are read only on their union support U = {(a, b) : some H_j[a, b] != 0},
as index arrays ia, ib and the values Hu = H[:, ia, ib] (k x |U|): H(y) is
y @ Hu scattered into (ia, ib), the Gram matrix is Hu @ Hu*, and the
certificate residual is Hu @ conj(Z+ - Z-)[ia, ib].  Products of spectral
triples give sparse H_j (6 to 8 entries each on the two-sheeted lattices).
The Newton system (gradient c + mu g, g_j = Re tr((S+ - S-) H_j), and
K_ij = Re tr(S+ H_i S+ H_j) + Re tr(S- H_i S- H_j)) has two contraction orders on
top of the shared S+-, after the sparse Schur-complement assembly of
Fujisawa, Kojima and Nakata (Math. Program. 79, 1997):

  * support order: gather A+- = S+-[ib, ia] (|U| x |U|), then
        g = Re(Hu diag(A+ - A-)),
        K = Re(Hu (A+ o A+^T + A- o A-^T) Hu^T);
    k|U|^2 + k^2|U| flops, plus memory-bound passes over the 2|U|^2 entries
    of A+- (gather, Hadamard products) that take about as long as 16|U|^2;
  * dense order: X = [S+; S-] [H_1 ... H_k], one GEMM holding every S+- H_j,
    then g_j = Re tr(X+_j - X-_j) and
    K_ij = Re tr(X+_i X+_j + X-_i X-_j), one real GEMM; 2k h^3 + 2k^2 h^2 flops.

Each solve computes both counts from (k, h, |U|) and runs the cheaper order;
both give the same numbers up to roundoff.  The counts are those of both
sides; a chiral solve (below) does about half of either and keeps the same
choice.

Every step runs unchanged on real symmetric H_j, in real arithmetic, which
is about twice as fast at h = 60 for the inverse, the Cholesky factorizations
and eigvalsh, and four times for a GEMM.  `real_gauge` finds, where one exists,
a diagonal unitary W = diag(i^g_a), g in {0, 1}^h, with W* H_j W real for
every j: the switching equivalence of gain graphs (Zaslavsky, *Signed
graphs*, Discrete Appl. Math. 4 (1982); Reff, *Spectral properties of complex
unit gain graphs*, Linear Algebra Appl. 436 (2012)).  Entry (a, b) is
multiplied by i^(g_b - g_a), one of 1, -1, i and -i, taken from the table
QUARTER_TURNS rather than computed: multiplying by them only moves and
negates the two parts of a complex number, so W* H_j W is exact.  A gauge
exists only when every support entry is exactly real or exactly imaginary
(the other part is 0, not small: no tolerance), with the same kind at one
position in every H_j, and then the imaginary parts it leaves are exactly
zero.  The two-sheeted lattices, the two-point spaces and their
products take it; random complex Dirac operators do not.  ||W* H(y) W|| =
||H(y)||, so y, y_best and the bracket keep their meaning, but the dual
certificate Z+- is that of the gauged H_j: a checker reading the stored
generators checks it in the gauged frame, or maps it back by W Z+- W*.

Products of even triples are chiral: D is odd under the grading and every
pi(a) is even, so every H_j is odd under it.  When some diagonal
Gamma = diag(+-1) has Gamma H_j Gamma = -H_j for every j, which holds exactly
when the union-support graph is bipartite and has no diagonal entry
(`_chiral_grading`, the parity traversal of `real_gauge` with every edge odd:
exact, no tolerance), Gamma (I + H) Gamma = I - H.  The two sides are then
unitarily equivalent, as are their barriers, inverses and certificates
(the symmetry reduction of Gatermann and Parrilo, *Symmetry groups,
semidefinite programs, and sums of squares*, J. Pure Appl. Algebra 192
(2004)), and the solve keeps the side I + H alone: the side axis has length 1
and every sum over sides is weighted by w = 2.  That is exact, not an
approximation: S- = Gamma S+ Gamma, so log det(I - H) = log det(I + H),
tr(S- H_j) = -tr(S+ H_j), tr(S- H_i S- H_j) = tr(S+ H_i S+ H_j), and
Z- = Gamma Z+ Gamma gives tr Z- = tr Z+ and (Z+ - Z-)[U] = 2 Z+[U], since
Gamma_a Gamma_b = -1 on the support; lambda_min(Z-) = lambda_min(Z+), so the
deficit term takes no weight.  The upper bound is the exact bound of the
pair (Z+, Gamma Z+ Gamma): the certificate's minus side is Gamma Z+ Gamma,
and a checker rebuilds it that way.  All two-sheeted lattice
products and most theorem-1 products take it; a generic Dirac operator, or
a grading that is not diagonal in the basis of H, does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .tolerances import CENTERING_TOL, MIN_MU, MIN_STEP, RIDGE_TOL

MAX_CENTERING = 60   # Newton steps per barrier parameter


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


QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])   # i^g, exactly, for g = 0..3


def _parity_colouring(h: int, ia: np.ndarray, ib: np.ndarray, odd) -> list[int] | None:
    """g in {0, 1}^h with g_a ^ g_b = odd_p at every support position
    p = (ia_p, ib_p), or None when there is none: one traversal of the
    union-support graph, each component coloured from its first vertex."""
    edges = [[] for _ in range(h)]
    for a, b, o in zip(ia.tolist(), ib.tolist(), odd):
        edges[a].append((b, o))
    g = [-1] * h
    for root in range(h):
        if g[root] >= 0:
            continue
        g[root], todo = 0, [root]
        while todo:
            a = todo.pop()
            for b, o in edges[a]:
                if g[b] < 0:
                    g[b] = g[a] ^ o
                    todo.append(b)
                elif g[b] != g[a] ^ o:
                    return None
    return g


def real_gauge(H: np.ndarray) -> np.ndarray | None:
    """g in {0, 1}^h such that i^-g_a H_j[a, b] i^g_b is real for every j, a
    and b, or None when there is none; the test is exact (module docstring).

    Each support position must hold real entries in every H_j or imaginary
    entries in every H_j: real ones need g_a = g_b and imaginary ones
    g_a != g_b, a parity 2-colouring of the union-support graph.
    """
    # nonzero real and imaginary parts at each position, from one comparison
    # of the interleaved (re, im) view: rejecting takes microseconds
    H = np.ascontiguousarray(H, dtype=complex)
    nonzero = (H.view(np.float64) != 0).reshape(*H.shape, 2).any(axis=0)
    real, imag = nonzero[..., 0], nonzero[..., 1]
    if np.any(real & imag):
        return None
    ia, ib = np.nonzero(real | imag)
    g = _parity_colouring(H.shape[1], ia, ib, imag[ia, ib].tolist())
    return None if g is None else np.array(g)


def _chiral_grading(h: int, ia: np.ndarray, ib: np.ndarray) -> np.ndarray | None:
    """Gamma = diag(+-1) with Gamma H_j Gamma = -H_j for every H_j supported on
    the positions (ia, ib), or None when there is none: every support entry
    must join two opposite signs, so the union-support graph is bipartite and
    has no diagonal entry.  Exact: it reads only which entries are exactly 0."""
    g = _parity_colouring(h, ia, ib, [1] * ia.size)
    return None if g is None else 1.0 - 2.0 * np.array(g)


def _ldexp(X: np.ndarray, e: int) -> np.ndarray:
    """X * 2^e, exactly (up to underflow), for real or complex X."""
    X = np.ascontiguousarray(X)
    return np.ldexp(X.view(np.float64), e).view(X.dtype)


def _log_det(P: np.ndarray) -> float:
    """log det(I + H) + log det(I - H) from one batched Cholesky factorization
    of the sides stacked in P, each weighted by 2 / len(P); -inf unless every
    side is positive definite to working precision."""
    try:
        ch = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return -np.inf
    return 4.0 / len(P) * float(np.sum(np.log(np.diagonal(ch, axis1=1, axis2=2).real)))


def _inverse(P: np.ndarray) -> np.ndarray:
    """The inverse of each side stacked in P, from one batched inverse, made
    exactly Hermitian: eigvalsh reads one triangle of the certificate built
    from it."""
    S = np.linalg.inv(P)
    return (S + np.conj(S.transpose(0, 2, 1))) / 2.0


def _signed_sum(X: np.ndarray) -> np.ndarray:
    """sum_s sign_s X[s] over the leading side axis: X[0] - X[1] for both
    sides, X[0] for side 0 alone (the caller applies the weight 2 / len(X))."""
    return X[0] - X[1] if len(X) == 2 else X[0]


def _support_order_is_cheaper(k: int, h: int, m: int) -> bool:
    """Whether `_newton_support` is cheaper than `_newton_dense`, by the module
    docstring's counts, for k generators h x h with m union-support entries."""
    return (k + 16) * m * m + k * k * m < 2 * k * h ** 3 + 2 * k * k * h * h


def _newton_support(Hu: np.ndarray, gather: np.ndarray, S: np.ndarray):
    """g_j = Re tr((S+ - S-) H_j), the gradient of log det(I - H(y)^2), and
    K = minus its Hessian from the stacked sides S = [S+, S-] or [S+]
    (s x h x h, each sum over sides weighted by 2 / s), read on the union
    support only, where gather = ib[:, None] * h + ia indexes the flattened S.

    tr(S H_j) = sum_p Hu[j, p] S[ib_p, ia_p] and tr(S H_i S H_j) =
    sum_{p, q} Hu[i, p] S[ib_p, ia_q] Hu[j, q] S[ib_q, ia_p], so with
    A = S[ib, ia] g reads diag(A) and K reads A o A^T.
    """
    k, w = Hu.shape[0], 2.0 / len(S)
    A = np.take(S.reshape(len(S), -1), gather, axis=1)   # A[0] = A+, A[1] = A-
    g = w * (Hu @ _signed_sum(np.diagonal(A, axis1=1, axis2=2))).real
    AA = A * A.transpose(0, 2, 1)
    # Re(X @ Y^T) is the real GEMM of the interleaved (re, im) views of X, conj(Y)
    B = Hu @ AA.sum(axis=0)
    K = B.view(np.float64).reshape(k, -1) @ np.conj(Hu).view(np.float64).reshape(k, -1).T
    return g, w * K


def _newton_dense(Hp: np.ndarray, S: np.ndarray):
    """The same g and K as `_newton_support`, from the dense products
    S+- H_j, for Hp = [H_1 ... H_k] (h x k h)."""
    s, h, k, w = len(S), Hp.shape[0], Hp.shape[1] // Hp.shape[0], 2.0 / len(S)
    # one GEMM gives X[s, a, j, b] = (S_s H_j)[a, b]
    X = (S.reshape(s * h, h) @ Hp).reshape(s, h, k, h)
    tr = np.diagonal(X, axis1=1, axis2=3).sum(axis=-1)   # tr(S_s H_j), s x j
    g = w * _signed_sum(tr).real
    # K_ij = Re sum_s tr(S_s H_i S_s H_j) = Re sum_{s, a, b} X[s, a, i, b] X[s, b, j, a],
    # the real GEMM of the interleaved (re, im) views of X and conj(X) transposed
    P = np.ascontiguousarray(X.transpose(2, 0, 1, 3))
    Q = np.conj(X.transpose(2, 0, 3, 1), order="C")
    K = P.view(np.float64).reshape(k, -1) @ Q.view(np.float64).reshape(k, -1).T
    return g, w * K


def maximize_over_unit_ball(c: np.ndarray, H: np.ndarray, tol: float) -> LMISolution:
    """Path-following solve of max c.y s.t. -I <= sum_j y_j H_j <= I.

    Requires c != 0 and the H_j to be exactly Hermitian and linearly
    independent; returns a certified bracket [lower, upper] with
    `lower` attained by `y_best`, converged when upper - lower <= tol * lower.
    The solve ends unconverged, with the bracket it has, when mu reaches
    `MIN_MU` first or a Newton system is not positive definite to working
    precision.
    """
    if not np.array_equal(H, H.conj().transpose(0, 2, 1)):
        raise ValueError("H_j must be Hermitian")
    c = np.asarray(c, dtype=float)
    if not c.any():
        raise ValueError("c must be nonzero")
    k, h = H.shape[0], H.shape[1]
    ia, ib, Hu = _union_support(H)
    flat = ia * h + ib

    # Gram matrix of the H_j, PD by linear independence, formed from the H_j
    # times the power of two 2^-e that brings their largest entry into
    # [1/2, 1): exact, and it neither underflows nor overflows at any scale
    e = int(np.frexp(np.abs(Hu).max(initial=0.0))[1])
    Hu = _ldexp(Hu, -e)
    gram = np.linalg.eigvalsh((Hu @ np.conj(Hu).T).real)
    if gram[0] <= 0:
        raise ValueError("H_j must be linearly independent (project out the kernel first)")
    # unit-scale data: c / ||c|| and H_j / sigma, sigma^2 = 2^2e gram[-1] the
    # top eigenvalue of the unscaled Gram matrix, kept as the mantissa
    # sqrt(gram[-1]) and the power 2^e (it overflows at H_j near 1e308); the
    # bracket scales back by ||c|| / sigma, y_best by 1 / sigma
    cnorm, root = float(np.linalg.norm(c)), float(np.sqrt(gram[-1]))
    c, Hu = c / cnorm, Hu / root
    # for feasible y, ||H(y)||_F <= sqrt(h) ||H(y)||_op <= sqrt(h), and the
    # normalized Gram matrix has smallest eigenvalue gram[0] / gram[-1]
    ybound = float(np.sqrt(h * gram[-1] / gram[0]))
    # the sides of the LMI, stacked: index 0 is I + H, index 1 is I - H; when
    # a grading makes every H_j odd, I - H = Gamma (I + H) Gamma and index 0
    # alone stands for both, each sum over sides weighted by w = 2 / sides
    sides = 1 if _chiral_grading(h, ia, ib) is not None else 2
    eye, signs, w = np.eye(h), np.array([1.0, -1.0])[:sides, None, None], 2.0 / sides

    # the cheaper contraction order at these (k, h, |U|)
    if _support_order_is_cheaper(k, h, ia.size):
        newton_system = partial(_newton_support, Hu, ib[:, None] * h + ia)
    else:
        newton_system = partial(_newton_dense, _ldexp(np.concatenate(H, axis=1), -e) / root)

    def H_of(yv: np.ndarray) -> np.ndarray:
        """H(yv) = sum_j yv_j H_j, scattered from the union support."""
        out = np.zeros(h * h, dtype=Hu.dtype)
        out[flat] = yv @ Hu
        return out.reshape(h, h)

    def barrier(yv: np.ndarray, mu: float) -> float:
        """c.yv + mu log det(I - H(yv)^2), -inf off the open unit ball."""
        return float(c @ yv) + mu * _log_det(eye + signs * H_of(yv))

    def factor(yv: np.ndarray):
        """S = [S+, S-] = (I +- H(yv))^-1, g and the Cholesky factor of the ridged
        K, none of which depends on mu; LinAlgError if K is not positive definite."""
        S = _inverse(eye + signs * H_of(yv))
        g, K = newton_system(S)
        K.flat[::k + 1] += RIDGE_TOL * float(np.trace(K)) / k
        return S, g, np.linalg.cholesky(K)

    y, y_best = np.zeros(k), np.zeros(k)
    lower, upper = 0.0, np.inf
    mu = 1.0 / (2 * h)   # first duality gap 2 h mu = 1 <= the optimum
    steps, centering, converged = 0, 0, False

    try:
        S, g, ch = factor(y)
        fy = barrier(y, mu)
        # (S, g, ch) belong to y, fy to y and mu; each pass takes a centering
        # step or computes the bounds and reduces mu
        while True:
            # Newton direction (K d = grad / mu) and squared decrement at mu
            grad = c + mu * g
            d = np.linalg.solve(ch.T, np.linalg.solve(ch, grad)) / mu
            lam2 = abs(float(grad @ d)) / mu
            if lam2 > CENTERING_TOL and centering < MAX_CENTERING:
                gd = lam2 * mu   # equals grad.d by definition of the decrement
                t = 1.0
                while t > MIN_STEP and (ft := barrier(y + t * d, mu)) < fy + 0.01 * t * gd:
                    t *= 0.5
                if t > MIN_STEP:
                    y, fy = y + t * d, ft
                    steps, centering = steps + 1, centering + 1
                    S, g, ch = factor(y)
                    continue

            # primal bound: scale the strictly feasible iterate to the boundary
            # (skipped at y = 0, where H(y) = 0: no step has been taken yet)
            lam = np.linalg.eigvalsh(H_of(y))
            norm = max(-lam[0], lam[-1])
            if norm > 0 and (cand := float(c @ y) / norm) > lower:
                lower, y_best = cand, y / norm

            # dual bound: the Newton-corrected dual pair
            #   Z+ = mu (S+ - S+ dH S+),   Z- = mu (S- + S- dH S-),   dH = H(d),
            # satisfies <Z+ - Z-, H_j> = -c_j exactly by the Newton equations and
            # is positive definite while lambda^2 = lam2 < 1 (module docstring),
            # which centering to lam2 <= CENTERING_TOL = 0.2 leaves with room;
            # residual roundoff is folded in via the a-priori bound on feasible ||y||.
            # With one side, Z- = Gamma Z+ Gamma: tr Z- = tr Z+, (Z+ - Z-)[U] =
            # 2 Z+[U] and lambda_min(Z-) = lambda_min(Z+), which takes no weight.
            Z = mu * (S - signs * (S @ H_of(d) @ S))
            resid = (Hu @ np.conj(w * _signed_sum(Z.reshape(sides, -1)[:, flat]))).real + c
            zmin = float(np.linalg.eigvalsh(Z)[:, 0].min())
            ub = w * float(np.trace(Z, axis1=1, axis2=2).real.sum()) \
                + 2 * h * max(0.0, -zmin) + float(np.linalg.norm(resid)) * ybound
            upper = min(upper, ub)

            converged = bool(upper - lower <= tol * lower)
            if converged or mu <= MIN_MU:
                break
            mu, centering = mu * 0.15, 0
            fy = barrier(y, mu)
    except np.linalg.LinAlgError:
        pass   # K singular: keep the bracket found so far

    scale = cnorm / root
    return LMISolution(y_best=_ldexp(y_best / root, -e),
                       lower=float(np.ldexp(lower * scale, -e)),
                       upper=float(np.ldexp(upper * scale, -e)),
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
