"""Connes' spectral distance on finite spectral triples.

d(phi, phi') = sup { phi(a) - phi'(a) : a = a*, ||[D, pi(a)]|| <= 1 }.

Self-adjoint elements are parametrized by real coordinates over the canonical
hermitian basis of the algebra; the commutator map x -> [D, pi(x)] is linear,
so the problem is a seminorm-constrained linear program.  Distances are
infinite exactly when the objective fails to vanish on the kernel of that
map (then multiples of a kernel element are feasible with unbounded value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, State, element_from_coordinates, hermitian_basis
from .linalg import op_norm
from .sdp import maximize_over_unit_ball, ratio_ascent
from .triples import SpectralTriple

INFINITY_TOL = 1e-10      # |c.n| above this on a unit kernel vector => infinite
KERNEL_SVD_TOL = 1e-12    # relative singular-value cutoff for the kernel
DEFAULT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class DistanceResult:
    """Certified bracket lower <= d <= upper with a feasible optimizer.

    status is "finite" when the bracket closed below the tolerance,
    "bracket" when the iteration budget ran out first, and "infinite" when a
    kernel witness proves unboundedness (then upper is +inf and the optimizer
    is a commutant element whose multiples are all feasible).
    """

    lower: float
    upper: float
    optimizer: AlgebraElement
    status: str

    @property
    def value(self) -> float:
        return self.lower

    @property
    def is_infinite(self) -> bool:
        return self.status == "infinite"


class DistanceSolver:
    """Distance computations on one triple, reusing the commutator geometry.

    Constructing the solver factorizes the map x -> [D, pi(x)] once (basis
    images, kernel, reduced coordinates); each state pair then only changes
    the linear objective.
    """

    def __init__(self, triple: SpectralTriple):
        self.triple = triple
        self.basis = hermitian_basis(triple.algebra)
        k = len(self.basis)
        # row i: the blocks of basis element i, each transposed and flattened,
        # so that phi(b_i) = sum_b tr(rho_b b_i) = row i . (rho_b flattened)
        self.basis_matrix = np.stack([np.concatenate([m.T.ravel() for m in b.blocks])
                                      for b in self.basis])
        L = np.stack([triple.commutator_with_dirac(b) for b in self.basis])
        flat = np.concatenate([L.reshape(k, -1).real, L.reshape(k, -1).imag], axis=1)
        # thin SVD: only u is read; zero columns keep u square (k x k) when
        # the map has fewer than k real components, as for a non-faithful pi
        if flat.shape[1] < k:
            flat = np.pad(flat, ((0, 0), (0, k - flat.shape[1])))
        u, s, _ = np.linalg.svd(flat, full_matrices=False)
        smax = float(s[0]) if s.size else 0.0
        rank = int(np.sum(s > KERNEL_SVD_TOL * smax))
        self.range_basis = u[:, :rank]           # k x r
        self.kernel_basis = u[:, rank:]          # k x (k - r)
        h = triple.hilbert_dim
        self.L_reduced = (self.range_basis.T @ L.reshape(k, -1)).reshape(rank, h, h)

    def _objective(self, phi: State, phi2: State) -> np.ndarray:
        def values(state: State) -> np.ndarray:
            return (self.basis_matrix @ np.concatenate([r.ravel() for r in state.densities])).real
        return values(phi) - values(phi2)

    def distance(self, phi: State, phi2: State, tol: float = DEFAULT_TOL) -> DistanceResult:
        alg = self.triple.algebra
        if phi.algebra != alg or phi2.algebra != alg:
            raise ValueError("states must live on the triple's algebra")
        c = self._objective(phi, phi2)

        if self.kernel_basis.shape[1] > 0:
            overlap = self.kernel_basis.T @ c
            j = int(np.argmax(np.abs(overlap)))
            if abs(overlap[j]) > INFINITY_TOL:
                # witness: kernel element with objective 1; any multiple is
                # feasible, so the supremum is +infinity
                witness_x = self.kernel_basis[:, j] / overlap[j]
                witness = element_from_coordinates(alg, witness_x)
                lower = float((phi(witness) - phi2(witness)).real)
                return DistanceResult(lower, math.inf, witness, "infinite")

        c_red = self.range_basis.T @ c
        if np.linalg.norm(c_red) <= 1e-14:
            return DistanceResult(0.0, 0.0, alg.zero(), "finite")

        sol = maximize_over_unit_ball(c_red, self.L_reduced, tol)
        lower, upper, y = sol.lower, sol.upper, sol.y_best
        if not sol.converged:
            # fallback oracle: multi-start supergradient ascent on the ratio
            val, y_asc = ratio_ascent(c_red, self.L_reduced)
            if val > lower:
                g = op_norm(np.einsum("j,jpq->pq", y_asc, self.L_reduced))
                if g > 1e-15:
                    lower, y = val, y_asc / g

        x = self.range_basis @ y
        optimizer = element_from_coordinates(alg, x)
        gnorm = op_norm(self.triple.commutator_with_dirac(optimizer))
        if gnorm > 1.0:
            x = x / gnorm
            optimizer = element_from_coordinates(alg, x)
        lower = float((phi(optimizer) - phi2(optimizer)).real)
        upper = max(upper, lower)
        status = "finite" if upper - lower <= tol * max(1.0, lower) + 1e-12 else "bracket"
        return DistanceResult(lower, upper, optimizer, status)


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
    from .algebra import element_to_json
    return {"lower": r.lower,
            "upper": "inf" if math.isinf(r.upper) else r.upper,
            "status": r.status,
            "optimizer": element_to_json(r.optimizer)}
