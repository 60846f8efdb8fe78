"""Wasserstein-1 distance on finite metric spaces by linear programming.

One transport LP is solved: the min-cost coupling with the prescribed
marginals.  Its equality duals give the optimal 1-Lipschitz potential: the
c-transform f_i = min_j (d_ij - v_j) of the column duals v is 1-Lipschitz
because d is a metric, and by Kantorovich duality f.(mu - nu) equals the
transport cost.  The marginals, the duality gap (to 1e-9) and the Lipschitz
bound are checked on every solve.  The LP runs on the distances divided by the
largest one, so the last two checks, HiGHS's tolerances and the metric checks
of `FiniteMetricSpace` are relative to the largest distance: w1(s d) = s w1(d).

HiGHS runs with feasibility tolerances of 1e-10.  At its default of 1e-7 the
simplex may stop at a basis with reduced costs near -3e-8, whose plan costs
a few 1e-9 more than the optimum: the duality-gap check then rightly fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .tolerances import GAP_TOL, MARGINAL_TOL, STRUCT_TOL, TRIANGLE_TOL

TRIANGLE_ROWS = 4   # rows of the triangle check per pass: O(n^2) memory, not O(n^3)
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labelled points with coordinates and a (possibly custom) metric."""

    labels: tuple[str, ...]
    coords: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if coords.shape[0] != len(self.labels):
            raise ValueError("one coordinate vector per label required")
        d = np.asarray(self.dist, dtype=float)
        n = len(self.labels)
        if d.shape != (n, n):
            raise ValueError(f"distance matrix must be {n} x {n}")
        if not (np.all(np.isfinite(coords)) and np.all(np.isfinite(d))):
            raise ValueError("coordinates and distances must be finite")
        tol = TRIANGLE_TOL * np.abs(d).max()
        if np.abs(d - d.T).max() > tol or np.abs(np.diag(d)).max() > tol:
            raise ValueError("distance matrix must be symmetric with zero diagonal")
        if d.min() < -tol:
            raise ValueError("distances must be nonnegative")
        # d_ij <= min_k d_ik + d_kj, TRIANGLE_ROWS rows i at a time: the
        # temporary is TRIANGLE_ROWS n^2, not n^3 (491 MB at n = 400)
        for i in range(0, n, TRIANGLE_ROWS):
            rows = d[i:i + TRIANGLE_ROWS]
            if (rows - np.min(rows[:, :, None] + d[None, :, :], axis=1)).max() > tol:
                raise ValueError("triangle inequality violated")
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dist", d)

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def euclidean(cls, labels, coords) -> "FiniteMetricSpace":
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates and distances must be finite")
        if coords.ndim == 2 and coords.shape[0] == 1 and len(labels) > 1:
            coords = coords.T
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        return cls(tuple(labels), coords, dist)

    @classmethod
    def segment(cls) -> "FiniteMetricSpace":
        """The two-point space {0, 1} on the real line."""
        return cls.euclidean(("0", "1"), [[0.0], [1.0]])


@dataclass(frozen=True, eq=False)
class Measure:
    space: FiniteMetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.space.size,):
            raise ValueError("one weight per point required")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w.min() < -STRUCT_TOL:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > STRUCT_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def dirac(cls, space: FiniteMetricSpace, index: int) -> "Measure":
        w = np.zeros(space.size)
        w[index] = 1.0
        return cls(space, w)


def lambda_measure(space: FiniteMetricSpace, lam: float) -> Measure:
    """The two-point mixture lam*delta_1 + (1-lam)*delta_0 on the segment."""
    if space.size != 2:
        raise ValueError("lambda_measure lives on a two-point space")
    return Measure(space, np.array([1.0 - lam, lam]))


@dataclass(frozen=True, eq=False)
class W1Result:
    value: float
    potential: np.ndarray     # optimal 1-Lipschitz potential, f[0] = 0
    plan: np.ndarray          # optimal coupling with the prescribed marginals


def w1(space: FiniteMetricSpace, mu: Measure, nu: Measure) -> W1Result:
    """Wasserstein-1 distance with its optimal potential and transport plan."""
    if mu.space is not space and not np.array_equal(mu.space.dist, space.dist):
        raise ValueError("mu does not live on the given space")
    if nu.space is not space and not np.array_equal(nu.space.dist, space.dist):
        raise ValueError("nu does not live on the given space")
    n = space.size
    scale = float(space.dist.max()) or 1.0   # all distances 0: scale 1
    d = space.dist / scale

    # primal: min <d, P>, P >= 0, row sums mu, column sums nu
    eye, ones = sparse.identity(n), np.ones((1, n))
    a_eq = sparse.vstack([sparse.kron(eye, ones), sparse.kron(ones, eye)], format="csc")
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(d.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options=HIGHS_OPTIONS)
    if not res.success:
        raise ValueError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, n)
    if max(np.abs(plan.sum(axis=1) - mu.weights).max(),
           np.abs(plan.sum(axis=0) - nu.weights).max()) > MARGINAL_TOL:
        raise ValueError("transport plan violates its marginals")
    value = float(res.fun)

    # potential: c-transform of the column duals, gauge f[0] = 0
    v = res.eqlin.marginals[n:]
    potential = np.min(d - v[None, :], axis=1)
    potential -= potential[0]

    gap = abs(value - float(potential @ (mu.weights - nu.weights)))
    if gap > GAP_TOL:
        raise ValueError(f"duality gap {gap} times the largest distance exceeds {GAP_TOL}")
    lipschitz_excess = np.abs(potential[:, None] - potential[None, :]) - d
    if lipschitz_excess.max() > GAP_TOL:
        raise ValueError("dual potential is not 1-Lipschitz")
    return W1Result(value * scale, potential * scale, plan)


def product_space(s1: FiniteMetricSpace, s2: FiniteMetricSpace) -> FiniteMetricSpace:
    """Cartesian product with the Pythagorean metric sqrt(d1^2 + d2^2)."""
    labels = tuple(f"({a},{b})" for a in s1.labels for b in s2.labels)
    coords = np.array([np.concatenate([x, y]) for x in s1.coords for y in s2.coords])
    d1sq, d2sq = s1.dist ** 2, s2.dist ** 2
    n1, n2 = s1.size, s2.size
    dist = np.sqrt(d1sq[:, None, :, None] + d2sq[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    return FiniteMetricSpace(labels, coords, dist)


def product_measure(m1: Measure, m2: Measure,
                    space: FiniteMetricSpace | None = None) -> Measure:
    if space is None:
        space = product_space(m1.space, m2.space)
    return Measure(space, np.outer(m1.weights, m2.weights).reshape(-1))


# JSON wire formats ----------------------------------------------------------


def space_to_json(s: FiniteMetricSpace) -> dict:
    return {"labels": list(s.labels),
            "coords": [[float(v) for v in row] for row in s.coords],
            "dist": [[float(v) for v in row] for row in s.dist]}


def space_from_json(obj: dict) -> FiniteMetricSpace:
    return FiniteMetricSpace(tuple(obj["labels"]),
                             np.array(obj["coords"], dtype=float),
                             np.array(obj["dist"], dtype=float))


def measure_to_json(m: Measure) -> dict:
    return {"weights": [float(w) for w in m.weights]}


def measure_from_json(space: FiniteMetricSpace, obj: dict) -> Measure:
    return Measure(space, np.array(obj["weights"], dtype=float))
