"""Dense interior-point machinery for seminorm-constrained linear maximization.

The problem solved here is

    maximize  c . y   subject to  || H(y) || <= 1,    H(y) = sum_j y_j H_j,

with H_j Hermitian h x h matrices whose span contains no nonzero kernel
directions (the caller projects those out first).  Everything that depends on
the H_j alone is derived once, by `NormBall(H)`, before any solve: the union
support, the exact Hermiticity check on it, the linear-independence check,
the gauge and the grading below, the block, its scale, its Gram matrix and
ybound, and the contraction order.  `maximize_over_unit_ball(c, ball, tol)`
then only normalizes c and either reads the optimum off one SVD, when there
is one generator, or follows the path; a `DistanceSolver` builds one ball per
triple and reuses it for every pair of states.  The solve works on one
p x q block B_j of each H_j with ||B(y)|| = ||H(y)|| for every y, and on the
single problem max c.y s.t. ||B(y)|| <= 1:

  * chiral generators: products of even triples have D odd under the grading
    and every pi(a) even, so every H_j is odd under it.  When some diagonal
    Gamma = diag(+-1) has Gamma H_j Gamma = -H_j for every j, which holds
    exactly when the union-support graph is bipartite and has no diagonal
    entry (`_parity_colouring` with every edge odd, the traversal that
    `real_gauge` runs too: exact, no tolerance), then H_j = [[0, B_j],
    [B_j*, 0]] on the Gamma-sorted basis, and B_j = H_j[P, Q] with P the
    smaller class; the block's union support is the H_j's restricted to the
    rows in P and re-indexed;
  * otherwise B_j = H_j, p = q = h.

The barrier is log det(I - B B*), the standard barrier of the spectral-norm
ball, whose dual norm is the nuclear norm (Ben-Tal and Nemirovski, *Lectures
on Modern Convex Optimization* (2001); Recht, Fazel and Parrilo, SIAM Rev. 52
(2010)).  One p x p Cholesky factorization of I - B B* tests strict
feasibility and gives it; by the Schur complement it is
log det(I + H) + log det(I - H) when B = H, and half of that for the chiral
block.  It is followed by path following without diagonalizing the iterate
(Vandenberghe and Boyd, *Semidefinite programming*, SIAM Rev. 38 (1996)).
Per iterate, with R = (I - B B*)^-1 from one p x p inverse, made exactly
Hermitian, T = R B and V = I + B* T = (I - B* B)^-1, the barrier has gradient
-g and Hessian -K,

    g_j  = 2 Re <B_j, T>,
    K_ij = 2 Re [tr(R B_i V B_j*) + tr(T B_i* T B_j*)].

The objective is linear, so the Hessian of the mu-barrier is -mu K with K free
of mu (Boyd and Vandenberghe, *Convex Optimization* (2004), 11.3): a
reduction of mu solves again for the direction and factors nothing.  A
Cholesky factorization proves the ridged K positive definite, and one
general solve gives the direction.

The B_j are read only on their union support U = {(a, b) : some B_j[a, b] != 0},
as index arrays ia, ib and the values Bu = B[:, ia, ib] (k x |U|): B(y) is
y @ Bu scattered into (ia, ib), the Gram matrix is Re(Bu Bu*), and
Re <B_j, W> is Re(conj(Bu) W[ia, ib]).  Products of spectral triples have
sparse supports: on the two-sheeted lattices |U| grows linearly in h.  K has two
contraction orders, after the sparse Schur-complement assembly of Fujisawa,
Kojima and Nakata (Math. Program. 79, 1997); counted in complex
multiply-adds, they cost

  * support order: gather A = T[ia, ib^T] and C = R[ia^T, ia] o V[ib, ib^T]
    (|U| x |U|), then g = 2 Re(conj(Bu) diag(A)) and
    K = 2 Re((Bu C + conj(Bu) (A o A^T)) Bu*): 2k|U|^2 + k^2|U|, plus
    memory-bound passes over the three gathered |U| x |U| arrays that take
    about as long as 24|U|^2;
  * dense order: R B_j (one batched GEMM), B_j V and Y_j = B_j T* (one GEMM
    each on the (k p) x q rows of the stacked B_j), then g_j = 2 Re<B_j, T>
    and, as Re tr(R B_i V B_j*) = Re<B_j V, R B_i> and
    Re tr(T B_i* T B_j*) = Re<Y_j, Y_i*>, K as two real GEMMs of interleaved
    views: k p q (2p + q) + k^2 p (p + q).  Beyond one adjoint copy of Y,
    nothing is concatenated or transposed, so a call holds two products at
    a time.

`NormBall` computes both counts from (k, p, q, |U|) once and keeps the
cheaper order (for the dense one, the stack of the B_j scattered from Bu);
both give the same numbers up to roundoff.

The problem is homogeneous: for a, b > 0, max (a c).y over ||B(y) / b|| <= 1
is a b times max c.y over ||B(y)|| <= 1.  So `NormBall` divides the B_j by
sigma = sqrt(lambda_max(G)), G_ij = Re <B_i, B_j> the Gram matrix, the solve
divides c by ||c||, runs on that unit-scale data, and scales the bracket by
||c|| / sigma and y_best by 1 / sigma on return.  `NormBall` forms G only after
scaling the B_j by the power of two 2^-e that brings their largest entry
into [1/2, 1): that is exact, and G neither underflows nor overflows, at H_j
of 1e-300 or of 1e300.  sigma = 2^e sqrt(lambda_max(2^-2e G)) is kept as that
mantissa and power of two, and each rescaling applies the power last, since
sigma itself overflows at H_j near 1e308.  On unit-scale data every
threshold (the decrement, the line-search step, the ridge, the final mu) is
relative, and the optimum is at least 1 (y = c / ||B(c)|| attains
1 / ||B(c)|| >= 1 / ||B(c)||_F >= 1), so the bracket closes when
upper - lower <= tol * lower, at any scale of c and the B_j.  The barrier
parameter starts at mu = 1 / (p + q): a centered pair has duality gap
2 mu sum_i s_i / (1 + s_i) < p mu <= 1/2 over the singular values s_i of
B(y), so the first bracket is already within a factor of 2 of the optimum.

`certify(c, ball, y, W)` is the only code that computes a bound, from two
SVDs.  Any point y with B(y) != 0, scaled to the boundary by its exact norm
sigma_max(B(y)), gives the certified lower bound c.y / sigma_max(B(y)),
which that boundary point attains.  Any p x q matrix W gives a certified
upper bound: with r_j = c_j - Re <B_j, W>, every feasible y has
c.y = Re <B(y), W> + r.y <= ||W||_* + ||r|| ybound, where ||W||_* is the
nuclear norm and ybound = sqrt(p lambda_max(G) / lambda_min(G)) bounds ||y||,
since ||B(y)||_F <= sqrt(p) ||B(y)||.  In exact arithmetic the upper end is
at least the lower end; when roundoff puts it below, the two agree to a few
ulps and `certify` raises it to the lower end.  The path calls `certify`
once per outer iteration, at the iterate and at the Newton-corrected dual
W = 2 mu (T + R E V + T E* T), E = B(d) for the Newton direction d, whose
residual r is zero by the Newton equations up to the ridge and roundoff,
projected onto its constraint, W += B(G^-1 r), which leaves a residual of
roundoff size; it keeps the largest lower and the smallest upper end.  No
positivity condition is needed, so the bracket is certified at any centering
accuracy.  Centering at one mu is loose, as in long-step path following
(Nesterov and Nemirovski, *Interior-Point Polynomial Algorithms in Convex
Programming* (1994); Boyd and Vandenberghe, ch. 11): it ends when the
squared Newton decrement lambda^2 = d.K.d is at most CENTERING_TOL = 0.2,
the line search finds no ascent or MAX_CENTERING steps were taken; then mu
falls by 0.15, until the bracket closes or mu reaches MIN_MU (at most 17
outer iterations).  A Newton system that is not positive definite to working
precision ends the solve with the bracket it has.

One generator (k = 1, a commutator map of rank 1, as on the two-point space)
makes the ball a segment, |y| ||B_1|| <= 1, and the optimum |c| / ||B_1||
needs no path: with c = +-1 after normalization, sigma = ||B(c)|| and
(u_1, v_1) its top singular pair, y = c / sigma attains it and
W = u_1 v_1* / sigma certifies it, as Re <B_1, W> = c Re <B(c), W> = c.  The
solve divides u_1 v_1* by its computed Re <B(c), u_1 v_1*> rather than by
sigma, which leaves the residual at roundoff, takes both ends from `certify`
at y = c and that W, and reports no Newton step.

Every step runs unchanged on real B_j, in real arithmetic, which is faster
for every factorization, inverse, SVD and GEMM.  `real_gauge` finds, from the
values on the union support, where
one exists, a diagonal unitary W = diag(i^g_a), g in {0, 1}^h, with
W* H_j W real for every j: the switching equivalence of gain graphs
(Zaslavsky, *Signed graphs*, Discrete Appl. Math. 4 (1982); Reff, *Spectral
properties of complex unit gain graphs*, Linear Algebra Appl. 436 (2012)).
Entry (a, b) is multiplied by i^(g_b - g_a), one of 1, -1, i and -i, taken
from the table QUARTER_TURNS rather than computed: multiplying by them only
moves and negates the two parts of a complex number, so W* H_j W is exact.  A
gauge exists only when every support entry is exactly real or exactly
imaginary (the other part is 0, not small: no tolerance), with the same kind
at one position in every H_j, and then the imaginary parts it leaves are
exactly zero.  The two-sheeted lattices, the two-point spaces and their
products take it; random complex Dirac operators do not.
`NormBall` applies it to the support values only.  ||W* H(y) W|| =
||H(y)||, so y, y_best and the bracket keep their meaning, but the dual
certificate is that of the gauged H_j, on their Gamma-sorted block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import ldexp
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


QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])   # i^g, exactly, for g = 0..3


def _parity_colouring(h: int, ia: np.ndarray, ib: np.ndarray, odd) -> np.ndarray | None:
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
    return np.array(g)


def real_gauge(h: int, ia: np.ndarray, ib: np.ndarray, Hu: np.ndarray) -> np.ndarray | None:
    """g in {0, 1}^h such that i^-g_a H_j[a, b] i^g_b is real for every j, a
    and b, or None when there is none, read off the values Hu = H[:, ia, ib]
    (complex, C-contiguous) on the union support (ia, ib); the test is exact
    (module docstring).

    Each support position must hold real entries in every H_j or imaginary
    entries in every H_j: real ones need g_a = g_b and imaginary ones
    g_a != g_b, a parity 2-colouring of the union-support graph.
    """
    # nonzero real and imaginary parts at each position, from one comparison
    # of the interleaved (re, im) view: rejecting takes microseconds
    nonzero = (Hu.view(np.float64) != 0).reshape(*Hu.shape, 2).any(axis=0)
    if np.any(nonzero[:, 0] & nonzero[:, 1]):
        return None
    return _parity_colouring(h, ia, ib, nonzero[:, 1].tolist())


def _log_slack(X: np.ndarray) -> float:
    """log det(I - X X*) for p x q X from one p x p Cholesky factorization;
    -inf unless I - X X* is positive definite to working precision, that is
    off the open unit ball ||X|| < 1."""
    try:
        ch = np.linalg.cholesky(np.eye(len(X)) - X @ np.conj(X.T))
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.diagonal(ch).real)))


def _resolvents(X: np.ndarray):
    """R = (I - X X*)^-1, made exactly Hermitian, T = R X and
    V = I + X* T = (I - X* X)^-1, for p x q X inside the unit ball."""
    R = np.linalg.inv(np.eye(len(X)) - X @ np.conj(X.T))
    R = (R + np.conj(R.T)) / 2.0
    T = R @ X
    return R, T, np.eye(X.shape[1]) + np.conj(X.T) @ T


def _rows(X: np.ndarray, k: int) -> np.ndarray:
    """The interleaved (re, im) view of a C-contiguous X as k rows: for X and
    Y holding k matrices each, rows(X) @ rows(Y).T = Re<Y_j, X_i>."""
    return X.view(np.float64).reshape(k, -1)


def _re_gemm(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Re(P @ Q^T), the real GEMM of the interleaved (re, im) views of P and
    conj(Q), for 2-D P and Q."""
    return _rows(np.ascontiguousarray(P), len(P)) @ _rows(np.conj(Q, order="C"), len(Q)).T


def _support_order_is_cheaper(k: int, p: int, q: int, m: int) -> bool:
    """Whether `_newton_support` is cheaper than `_newton_dense`, by the module
    docstring's counts, for k generators p x q with m union-support entries."""
    return (2 * k + 24) * m * m + k * k * m < k * p * q * (2 * p + q) + k * k * p * (p + q)


def _newton_support(Bu: np.ndarray, gR: np.ndarray, gV: np.ndarray, gT: np.ndarray,
                    R: np.ndarray, T: np.ndarray, V: np.ndarray):
    """g_j = 2 Re<B_j, T>, minus the gradient of log det(I - B(y) B(y)*), and
    K = minus its Hessian, from R, T and V read on the union support only:
    gT, gR and gV index the flattened T, R and V at A[p, q] = T[ia_p, ib_q]
    and C[p, q] = R[ia_q, ia_p] V[ib_p, ib_q], so that
    g = 2 Re(conj(Bu) diag(A)) and K = 2 Re((Bu C + conj(Bu) (A o A^T)) Bu*)."""
    A = np.take(T, gT)
    g = 2.0 * (np.conj(Bu) @ np.diagonal(A)).real
    M = Bu @ (np.take(R, gR) * np.take(V, gV)) + np.conj(Bu) @ (A * A.T)
    return g, 2.0 * _re_gemm(M, np.conj(Bu))


def _newton_dense(Bs: np.ndarray, R: np.ndarray, T: np.ndarray, V: np.ndarray):
    """The same g and K as `_newton_support`, from the stack Bs = (B_1, ...,
    B_k) (k x p x q): g_j = 2 Re<B_j, T>, and as Re tr(R B_i V B_j*) =
    Re<B_j V, R B_i> and, with Y_j = B_j T* and Y_i* = T B_i*,
    Re tr(T B_i* T B_j*) = Re<Y_j, Y_i*>, K is two real GEMMs of interleaved
    views.  R B_i is one batched GEMM, B_j V and B_j T* one GEMM each on the
    (k p) x q rows of Bs, and Y* one adjoint copy; nothing is concatenated."""
    k, p, q = Bs.shape
    g = 2.0 * (_rows(Bs, k) @ T.view(np.float64).ravel())
    K = _rows(R @ Bs, k) @ _rows(Bs.reshape(-1, q) @ V, k).T
    Y = Bs.reshape(-1, q) @ np.conj(T.T, order="C")
    Ya = Y.reshape(k, p, p).transpose(0, 2, 1).copy()
    K += _rows(Y, k) @ _rows(np.conjugate(Ya, out=Ya), k).T
    return g, 2.0 * K


class NormBall:
    """The unit ball ||sum_j y_j H_j|| <= 1 of k exactly Hermitian, linearly
    independent h x h generators H_j (k x h x h), reduced once to what
    `maximize_over_unit_ball` reads (module docstring):

      * gauge: the quarter-turn gauge g of `real_gauge`, or None;
      * P, Q: the rows and columns of the block B_j = H_j[P, Q];
      * ia, ib, Bu: its union support and the k x |U| values there, gauged
        and scaled to unit scale, B_j 2^-e / root;
      * e, root: that scale, sigma = 2^e root;
      * G, ybound: the normalized Gram matrix and the bound on ||y||;
      * newton_system: (R, T, V) -> (g, K) in the cheaper contraction order.

    Raises ValueError when the H_j are not Hermitian or not linearly
    independent."""

    def __init__(self, H: np.ndarray):
        h = H.shape[1]
        ia, ib = np.nonzero(np.any(H, axis=0))
        Hu = np.ascontiguousarray(H[:, ia, ib], dtype=complex)
        # H_j[b, a] = conj(H_j[a, b]) at every support position (a, b) is the
        # whole test: were (b, a) off the support, the conjugate would be 0
        if not np.array_equal(H[:, ib, ia], np.conj(Hu)):
            raise ValueError("H_j must be Hermitian")
        # a diagonal quarter-turn unitary diag(i^g) that makes every H_j real,
        # where one exists, lets the IPM run in real arithmetic; the norm, and
        # so y and the bracket, are unchanged
        self.gauge = real_gauge(h, ia, ib, Hu)
        if self.gauge is not None:
            w = QUARTER_TURNS[self.gauge]
            Hu = np.ascontiguousarray((Hu * np.conj(w)[ia] * w[ib]).real)
        # the block B_j = H_j[P, Q] carries the norm: all of H_j, or the
        # off-diagonal block between the classes of a grading that makes every
        # H_j odd (every support entry joins the two classes), P the smaller one
        P = Q = np.arange(h)
        g = _parity_colouring(h, ia, ib, [1] * ia.size)
        if g is not None:
            side = int(2 * g.sum() < h)   # the colour of the smaller class, 0 on a tie
            P, Q, rows = np.flatnonzero(g == side), np.flatnonzero(g != side), g[ia] == side
            Hu, ia, ib = Hu[:, rows], np.searchsorted(P, ia[rows]), np.searchsorted(Q, ib[rows])
        self.P, self.Q, self.ia, self.ib = P, Q, ia, ib
        k, p, q = len(Hu), P.size, Q.size

        # Gram matrix of the B_j, PD by linear independence, formed from the B_j
        # times the power of two 2^-e that brings their largest entry into
        # [1/2, 1): exact, and it neither underflows nor overflows at any scale
        self.e = int(np.frexp(np.abs(Hu).max(initial=0.0))[1])
        Bu = ldexp(Hu, -self.e)
        G = (Bu @ np.conj(Bu).T).real
        gram = np.linalg.eigvalsh(G)
        if gram[0] <= 0:
            # a nonzero B_j whose squared entries underflow has a Gram row of
            # zeros, and then independence cannot be decided in double precision
            span = np.any(np.any(Bu != 0, axis=1) & (np.diag(G) < np.finfo(float).tiny))
            raise ValueError("the H_j's scales span more than their Gram matrix can hold" if span
                             else "H_j must be linearly independent (project out the kernel first)")
        # unit-scale data: B_j / sigma, sigma^2 = 2^2e gram[-1] the top
        # eigenvalue of the unscaled Gram matrix, kept as the mantissa
        # sqrt(gram[-1]) and the power 2^e (it overflows at H_j near 1e308)
        self.root = float(np.sqrt(gram[-1]))
        self.Bu, self.G = Bu / self.root, G / gram[-1]
        # for feasible y, ||B(y)||_F <= sqrt(p) ||B(y)|| <= sqrt(p), and the
        # normalized Gram matrix has smallest eigenvalue gram[0] / gram[-1]
        self.ybound = float(np.sqrt(p * gram[-1] / gram[0]))

        # the cheaper contraction order at these (k, p, q, |U|); the dense one
        # reads the stack of the B_j, scattered from the union support
        if _support_order_is_cheaper(k, p, q, ia.size):
            self.newton_system = partial(_newton_support, self.Bu, ia * p + ia[:, None],
                                         ib[:, None] * q + ib, ia[:, None] * q + ib)
        else:
            Bs = np.zeros((k, p, q), dtype=Bu.dtype)
            Bs[:, ia, ib] = self.Bu
            self.newton_system = partial(_newton_dense, Bs)

    def B_of(self, yv: np.ndarray) -> np.ndarray:
        """B(yv) = sum_j yv_j B_j at unit scale, scattered from the union support."""
        out = np.zeros((self.P.size, self.Q.size), dtype=self.Bu.dtype)
        out[self.ia, self.ib] = yv @ self.Bu
        return out

    def re_inner(self, W: np.ndarray) -> np.ndarray:
        """Re<B_j, W> for every j at unit scale, read on the union support."""
        return (np.conj(self.Bu) @ W[self.ia, self.ib]).real


def certify(c: np.ndarray, ball: NormBall, y: np.ndarray,
            W: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Certified ends lower <= max c.y' s.t. ||B(y')|| <= 1 <= upper on the
    unit-scale block of `ball`, from any point y and any p x q matrix W
    (module docstring):

      * lower = c.y / sigma_max(B(y)), attained by the boundary point
        y / sigma_max(B(y)), returned third; 0, with y itself, at B(y) = 0;
      * upper = ||W||_* + ||r|| ybound, r_j = c_j - Re<B_j, W>.

    An upper end that roundoff puts below the lower end, which then agrees
    with it to a few ulps, is raised to it."""
    norm = float(np.linalg.svd(ball.B_of(y), compute_uv=False)[0])
    lower, point = (float(c @ y) / norm, y / norm) if norm > 0 else (0.0, y)
    upper = (float(np.linalg.svd(W, compute_uv=False).sum())
             + float(np.linalg.norm(c - ball.re_inner(W))) * ball.ybound)
    return lower, max(upper, lower), point


def _follow_path(c: np.ndarray, ball: NormBall,
                 tol: float) -> tuple[float, float, np.ndarray, int]:
    """The barrier loop on unit-scale c and `ball`: (lower, upper, y_best,
    Newton steps), with both ends from `certify` once per outer iteration."""
    B_of, k = ball.B_of, c.size

    def barrier(yv: np.ndarray, mu: float) -> tuple[float, float]:
        """(c.yv + mu s, s) with s = log det(I - B(yv) B(yv)*); both -inf off
        the open unit ball.  s does not depend on mu, so a reduced mu reuses it."""
        slack = _log_slack(B_of(yv))
        return float(c @ yv) + mu * slack, slack

    def factor(yv: np.ndarray):
        """R, T and V at yv, g and the ridged K, none of which depends on mu;
        LinAlgError if K is not positive definite."""
        R, T, V = _resolvents(B_of(yv))
        g, K = ball.newton_system(R, T, V)
        K.flat[::k + 1] += RIDGE_TOL * float(np.trace(K)) / k
        np.linalg.cholesky(K)   # proves K positive definite: the direction solve is sound
        return R, T, V, g, K

    y, y_best = np.zeros(k), np.zeros(k)
    lower, upper, steps, centering = 0.0, np.inf, 0, 0
    # the first duality gap is at most p mu <= 1/2 <= the optimum
    mu = 1.0 / (ball.P.size + ball.Q.size)

    try:
        R, T, V, g, K = factor(y)
        fy = slack = 0.0   # the barrier and log det(I) at y = 0
        # (R, T, V, g, K) and slack belong to y, fy to y and mu; each pass
        # takes a centering step or computes the bounds and reduces mu
        while True:
            # Newton direction (K d = grad / mu) and squared decrement at mu
            grad = c - mu * g
            d = np.linalg.solve(K, grad) / mu
            lam2 = abs(float(grad @ d)) / mu
            if lam2 > CENTERING_TOL and centering < MAX_CENTERING:
                gd = lam2 * mu   # equals grad.d by definition of the decrement
                t = 1.0
                while t > MIN_STEP and (trial := barrier(y + t * d, mu))[0] < fy + 0.01 * t * gd:
                    t *= 0.5
                if t > MIN_STEP:
                    y, (fy, slack) = y + t * d, trial
                    steps, centering = steps + 1, centering + 1
                    R, T, V, g, K = factor(y)
                    continue

            # the Newton-corrected dual W = 2 mu (T + R E V + T E* T), E = B(d),
            # has r = 0 up to the ridge and roundoff; adding B(G^-1 r)
            # projects it onto r = 0
            E = B_of(d)
            W = 2.0 * mu * (T + R @ E @ V + T @ np.conj(E.T) @ T)
            W += B_of(np.linalg.solve(ball.G, c - ball.re_inner(W)))
            cand, bound, point = certify(c, ball, y, W)
            if cand > lower:
                lower, y_best = cand, point
            upper = min(upper, bound)

            if upper - lower <= tol * lower or mu <= MIN_MU:
                break
            mu, centering = mu * 0.15, 0
            fy = float(c @ y) + mu * slack   # barrier(y, mu) without refactoring B(y)
    except np.linalg.LinAlgError:
        pass   # K singular: keep the bracket found so far
    return lower, upper, y_best, steps


def maximize_over_unit_ball(c: np.ndarray, ball: NormBall, tol: float) -> LMISolution:
    """Certified solve of max c.y s.t. ||sum_j y_j H_j|| <= 1 on the reduced
    generators of `ball`: in closed form on one generator, by path following
    on more.

    Requires c != 0; returns a certified bracket [lower, upper] with
    `lower` attained by `y_best`, converged when upper - lower <= tol * lower.
    The path ends unconverged, with the bracket it has, when mu reaches
    `MIN_MU` first or a Newton system is not positive definite to working
    precision.
    """
    c = np.asarray(c, dtype=float)
    if not c.any():
        raise ValueError("c must be nonzero")
    # unit-scale objective c / ||c||; the bracket scales back by
    # ||c|| / sigma, y_best by 1 / sigma
    cnorm = float(np.linalg.norm(c))
    c = c / cnorm
    if c.size == 1:
        # the segment |y| ||B_1|| <= 1 (module docstring): W = u_1 v_1* over
        # its computed Re<B(c), u_1 v_1*>, not over sigma, has a residual at
        # roundoff
        u, _, vh = np.linalg.svd(ball.B_of(c), full_matrices=False)
        W = np.outer(u[:, 0], vh[0])
        lower, upper, y_best = certify(c, ball, c, W / float(c @ ball.re_inner(W)))
        steps = 0
    else:
        lower, upper, y_best, steps = _follow_path(c, ball, tol)

    scale = cnorm / ball.root
    return LMISolution(y_best=ldexp(y_best / ball.root, -ball.e),
                       lower=float(np.ldexp(lower * scale, -ball.e)),
                       upper=float(np.ldexp(upper * scale, -ball.e)),
                       converged=bool(upper - lower <= tol * lower), newton_steps=steps)


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
    starts += [v / np.linalg.norm(v) for v in rng.normal(size=(n_random_starts, k))]

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
        for step in range(n_steps + 1):   # the last pass only reads the final y
            v, grad = ratio_and_grad(y)
            if v > best_val:
                best_val, best_y = v, y.copy()
            gn = np.linalg.norm(grad)
            if gn < 1e-14 or step == n_steps:
                break
            y = y + (0.5 / (1.0 + step / 25.0)) * grad / gn
            y = y / np.linalg.norm(y)
    return best_val, best_y
