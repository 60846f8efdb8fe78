"""Connes' spectral distance on finite spectral triples.

d(phi, phi') = sup { phi(a) - phi'(a) : a = a*, ||[D, pi(a)]|| <= 1 }.

Self-adjoint elements are parametrized by real coordinates over the canonical
hermitian basis of the algebra; the commutator map x -> [D, pi(x)] is linear,
so the problem is a seminorm-constrained linear program.  Distances are
infinite exactly when the objective fails to vanish on the kernel of that
map (then multiples of a kernel element are feasible with unbounded value).
Both tests are relative: the kernel overlap is compared with the objective's
norm plus the roundoff of the states' trace-normalized values, and a finite
bracket must close to tol times its lower end, so states that differ by 1e-13
are told apart as well as states that differ by 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, State, element_from_coordinates, element_to_json,
                      hermitian_basis)
from .linalg import finite_json, op_norm
# ratio_ascent is not called here: perfbench/tracing.py counts its calls under this name
from .sdp import NormBall, maximize_over_unit_ball, ratio_ascent  # noqa: F401
from .tolerances import DEFAULT_TOL, INFINITY_TOL, KERNEL_SVD_TOL, ROUNDOFF_TOL
from .triples import SpectralTriple


@dataclass(frozen=True, eq=False)
class DistanceResult:
    """Certified bracket lower <= d <= upper with a feasible optimizer.

    status is "finite" when the bracket closed to the relative tolerance,
    upper - lower <= tol * lower, "bracket" when the solve stopped first, and
    "infinite" when a kernel witness proves unboundedness (then upper is +inf
    and the optimizer is a commutant element whose multiples are all
    feasible).
    """

    lower: float
    upper: float
    optimizer: AlgebraElement
    status: str
    newton_steps: int = 0   # interior-point steps; 0 when no solve ran

    @property
    def value(self) -> float:
        return self.lower

    @property
    def is_infinite(self) -> bool:
        return self.status == "infinite"


def _unit_commutators(D: np.ndarray, units: np.ndarray):
    """The flat positions pos = a h + b where some [D, units[r]] is nonzero,
    ascending, and C[r, s] = [D, units[r]] at pos[s], without a product of
    h x h matrices: each unit entry U_r[c, b] = u adds u D[:, c] to column b
    of D U_r and u D[b, :] to row c of U_r D."""
    N, h = len(units), len(D)
    # the nonzero entries, from one comparison of the interleaved (re, im)
    # view, which needs a contiguous array (a caller's units may be strided)
    units = np.ascontiguousarray(units)
    v = units.reshape(-1).view(np.float64) != 0
    t = np.flatnonzero(v[::2] | v[1::2])
    r, c, b = np.unravel_index(t, units.shape)
    u = units.reshape(-1)[t][:, None]
    C = np.zeros((N, h, h), dtype=complex)
    every = np.arange(h)
    np.add.at(C, (r[:, None], every, b[:, None]), u * D[:, c].T)
    np.add.at(C, (r[:, None], c[:, None], every), -u * D[b])
    C = C.reshape(N, h * h)
    pos = np.flatnonzero(C.any(axis=0))
    return pos, C[:, pos]


class DistanceSolver:
    """Distance computations on one triple, reusing the commutator geometry.

    Constructing the solver factorizes the map x -> [D, pi(x)] once (basis
    images, kernel, reduced coordinates); each state pair then only changes
    the linear objective.
    """

    def __init__(self, triple: SpectralTriple):
        self.triple = triple
        frame = hermitian_basis(triple.algebra)   # row i: b_i in the flat layout of rep.units
        k, h = len(frame), triple.hilbert_dim
        # L_j = [D, pi(b_j)] on the union support `pos` of the unit commutators:
        # the map's other columns are zero and change neither its singular
        # values nor its left singular vectors
        pos, C = _unit_commutators(triple.dirac, triple.rep.units)
        L = frame @ C
        flat = np.concatenate([L.real, L.imag], axis=1)
        # thin SVD: only u is read; zero columns keep u square (k x k) when
        # the map has fewer than k real components, as for a non-faithful pi
        if flat.shape[1] < k:
            flat = np.pad(flat, ((0, 0), (0, k - flat.shape[1])))
        # scaled in place by the power of two that brings its largest entry
        # into [1/2, 1) first: exact, and the SVD does not overflow at D near 1e308
        e = int(np.frexp(np.abs(flat).max(initial=0.0))[1])
        u, s, _ = np.linalg.svd(np.ldexp(flat, -e, out=flat), full_matrices=False)
        smax = float(s[0]) if s.size else 0.0
        rank = int(np.sum(s > KERNEL_SVD_TOL * smax))
        self.range_basis = u[:, :rank]           # k x r
        self.kernel_basis = u[:, rank:]          # k x (k - r)
        # H_j = i L_j is Hermitian as D and pi(b_j) are, and ||H(y)|| = ||L(y)||;
        # taking its Hermitian part, (i L_j / 2) + (i L_j / 2)*, makes that exact
        # in floating point, and halving before the sum keeps it finite at D
        # near 1e308; it is formed on the support and its transpose
        Hs = self.range_basis.T @ L
        Hs *= 0.5j
        H = np.zeros((rank, h * h), dtype=complex)
        H[:, pos] = Hs
        H[:, pos % h * h + pos // h] += np.conj(Hs)
        # reduced once to the norm ball that every solve reads; at rank 0
        # every objective vanishes on the range and no solve runs
        self.ball = NormBall(H.reshape(rank, h, h)) if rank else None

    def _values(self, state: State) -> np.ndarray:
        """phi(b_i) / phi(1): a total trace off 1 (State admits STRUCT_TOL)
        would read as a kernel difference of two states."""
        return state.on_hermitian_basis() / state.total_trace

    def distance(self, phi: State, phi2: State, tol: float = DEFAULT_TOL) -> DistanceResult:
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {tol}")
        alg = self.triple.algebra
        if phi.algebra != alg or phi2.algebra != alg:
            raise ValueError("states must live on the triple's algebra")
        v, v2 = self._values(phi), self._values(phi2)
        c = v - v2
        if self.kernel_basis.shape[1] > 0:
            overlap = self.kernel_basis.T @ c
            j = int(np.argmax(np.abs(overlap)))
            # c = v - v2 is known only to a few ulps of v and v2: an overlap
            # that small is no evidence, however small c is
            noise = ROUNDOFF_TOL * (np.linalg.norm(v) + np.linalg.norm(v2))
            if abs(overlap[j]) > INFINITY_TOL * np.linalg.norm(c) + noise:
                # witness: kernel element with objective 1; any multiple is
                # feasible, so the supremum is +infinity
                witness_x = self.kernel_basis[:, j] / overlap[j]
                witness = element_from_coordinates(alg, witness_x)
                return DistanceResult(float(c @ witness_x), math.inf, witness, "infinite")

        c_red = self.range_basis.T @ c
        if not c_red.any():
            return DistanceResult(0.0, 0.0, alg.zero(), "finite")
        sol = maximize_over_unit_ball(c_red, self.ball, tol)
        x = self.range_basis @ sol.y_best
        optimizer = element_from_coordinates(alg, x)
        gnorm = op_norm(self.triple.commutator_with_dirac(optimizer))
        if gnorm > 1.0:
            x = x / gnorm
            optimizer = element_from_coordinates(alg, x)
        lower = float(c @ x)
        upper = max(sol.upper, lower)
        status = "finite" if upper - lower <= tol * lower else "bracket"
        return DistanceResult(lower, upper, optimizer, status, sol.newton_steps)


def spectral_distance(triple: SpectralTriple, phi: State, phi2: State,
                      tol: float = DEFAULT_TOL) -> DistanceResult:
    """Spectral distance between two states of a finite spectral triple."""
    return DistanceSolver(triple).distance(phi, phi2, tol)


def distance_matrix(triple: SpectralTriple, states: list[State],
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Symmetric matrix of pairwise spectral distances, +inf where infinite,
    exact zeros on the diagonal."""
    if len(states) < 2:
        raise ValueError("need at least two states")
    solver = DistanceSolver(triple)
    n = len(states)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            r = solver.distance(states[i], states[j], tol)
            out[i, j] = out[j, i] = math.inf if r.is_infinite else r.lower
    return out


def distance_result_to_json(r: DistanceResult) -> dict:
    return {"lower": r.lower,
            "upper": finite_json(r.upper),
            "status": r.status, "newton_steps": r.newton_steps,
            "optimizer": element_to_json(r.optimizer)}
