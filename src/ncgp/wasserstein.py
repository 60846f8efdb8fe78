"""Wasserstein-1 distance on finite metric spaces by linear programming.

By Kantorovich-Rubinstein duality W1(mu, nu) depends on mu - nu alone: the
mass min(mu, nu) stays where it is at no cost, and only the imbalance moves.
So one transport LP is solved, from S+ = {mu > nu} to S- = {mu < nu}, with
supplies a = (mu - nu)[S+] and demands b = (nu - mu)[S-]: |S+| |S-| variables,
not n^2.  The plan is diag(min(mu, nu)) plus the LP's plan on the block
(S+, S-).  With the LP's row duals u and column duals v, the potential is
the c-transform f_i = min_{j in S-} (d_ij - v_j), taken at every point i.  It
is optimal:
  - f is 1-Lipschitz, a minimum of the 1-Lipschitz functions d_.j - v_j;
  - f >= u on S+ (dual feasibility d_ij >= u_i + v_j) and f_j <= -v_j on S-;
  - so f.(mu - nu) >= u.a + v.b = the LP's value >= f.(mu - nu), the last
    step because no 1-Lipschitz f does better than a transport plan.
The marginals of the full plan, the duality gap (to 1e-9) and the Lipschitz
bound over all n^2 pairs are checked on every solve, against the full
n-point measures.  The LP runs on the distances divided by the largest one,
so the last two checks, HiGHS's tolerances and the metric checks of
`FiniteMetricSpace` are relative to the largest distance: w1(s d) = s w1(d).

HiGHS runs with feasibility tolerances of 1e-10.  At its default of 1e-7 the
simplex may stop at a basis with reduced costs near -3e-8, whose plan costs
a few 1e-9 more than the optimum: the duality-gap check then rightly fails.
Presolve is off.  On a balanced transport LP the only row it can remove is the
one balance equation that every such LP has (sum a = sum b), and postsolve
then runs the simplex a second time on the original LP.

The LP goes to HiGHS through the binding that scipy's `linprog` itself calls
(the extension `scipy.optimize._highspy._core`), as one model in CSC form,
with the options and simplex strategy `linprog(method="highs")` would set:
the same plan, value and duals, bit for bit.  `linprog`'s own wrapper loops in
Python over every column to build bound marginals that `w1` never reads; on
the 11 x 11 grid (about 3,650 columns) that loop and its input cleaning took
longer than the simplex itself.  The module's own `linprog` returns just the
plan, its cost and the row duals, and raises ValueError("transport LP
failed: <HiGHS model status>") itself when HiGHS does not report an optimum.

The first `w1` call loads that extension by its file, after `import scipy`
(a lazy package: about 1 MB and 10 ms), and registers it in `sys.modules`
under its own name; nothing else in ncgp uses scipy.  A plain import would
run `scipy.optimize`'s `__init__`: about 320 modules, 50 MB and 0.35 s, and
scipy's own second OpenBLAS, none of which the binding needs (it links only
the C and C++ runtimes).  A later `import scipy.optimize` finds the
registered module and shares it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np

from .tolerances import GAP_TOL, MARGINAL_TOL, STRUCT_TOL, TRIANGLE_TOL

TRIANGLE_ROWS = 4   # rows of the triangle check per pass: O(n^2) memory, not O(n^3)
# output_flag first, so that no later setting can print; simplex_strategy 1
# is the dual simplex, as scipy's linprog(method="highs") sets it
HIGHS_OPTIONS = {"output_flag": False, "primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10, "presolve": "off", "simplex_strategy": 1}
HIGHS_MODULE = "scipy.optimize._highspy._core"


def _highs():
    """scipy's HiGHS binding, the module `HIGHS_MODULE`, loaded from its file
    in scipy's tree on the first call, without running `scipy.optimize`'s
    `__init__`, and registered in `sys.modules`; later calls, and any import
    of it by scipy itself, get the same module.
    """
    module = sys.modules.get(HIGHS_MODULE)
    if module is not None:
        return module
    where, spec = "any scipy on sys.path", None
    try:
        import scipy
    except ImportError:
        pass
    else:
        where = Path(scipy.__file__).parent / "optimize" / "_highspy"
        finder = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(HIGHS_MODULE)
    if spec is None:
        raise ImportError(f"w1 needs scipy >= 1.15: no HiGHS binding _core in {where}")
    module = module_from_spec(spec)
    sys.modules[HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


def linprog(cost, supply, demand) -> tuple[np.ndarray, float, np.ndarray]:
    """min cost.x over x >= 0, the s x t plan x with row sums supply and
    column sums demand, by HiGHS with HIGHS_OPTIONS through scipy's binding,
    which `_highs` loads on the first call.  Column (i, j) has its two ones at
    rows i and s + j, passed to HiGHS in CSC form.

    Returns the optimal plan x (row-major), its cost and the row duals (the s
    supply rows, then the t demand rows); raises ValueError with HiGHS's model
    status ("Infeasible", ...) when the model is not solved to optimality.
    """
    highs = _highs()
    s, t = supply.size, demand.size
    st = s * t
    rows = np.c_[np.repeat(np.arange(s), t), np.tile(np.arange(s, s + t), s)].ravel()
    rhs = np.concatenate([supply, demand])
    h = highs._Highs()
    for key, val in HIGHS_OPTIONS.items():
        if h.setOptionValue(key, val) != highs.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejects the option {key} = {val!r}")
    # the array form of passModel; the integrality array marks every column
    # continuous, and HiGHS refuses an empty one
    status = h.passModel(st, s + t, 2 * st, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize,
                         0.0, cost, np.zeros(st), np.full(st, np.inf), rhs, rhs,
                         2 * np.arange(st + 1, dtype=np.int32), rows.astype(np.int32),
                         np.ones(2 * st), np.zeros(st, np.int32))
    model = highs.HighsModelStatus.kModelError
    if status != highs.HighsStatus.kError:
        h.run()
        model = h.getModelStatus()
    if model != highs.HighsModelStatus.kOptimal:
        raise ValueError(f"transport LP failed: {h.modelStatusToString(model)}")
    solution = h.getSolution()
    return (np.array(solution.col_value), h.getInfo().objective_function_value,
            np.array(solution.row_dual))


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labelled points with coordinates and a (possibly custom) metric; coords
    and dist are read-only copies of the arrays passed in, so a validated
    space cannot change afterwards."""

    labels: tuple[str, ...]
    coords: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        coords = np.atleast_2d(np.array(self.coords, dtype=float))
        if coords.shape[0] != len(self.labels):
            raise ValueError("one coordinate vector per label required")
        d = np.array(self.dist, dtype=float)
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
        coords.flags.writeable = d.flags.writeable = False
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
    """Weights on the points of a space; weights is a read-only copy."""

    space: FiniteMetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.space.size,):
            raise ValueError("one weight per point required")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w.min() < -STRUCT_TOL:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > STRUCT_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()}")
        w.flags.writeable = False
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
    """Wasserstein-1 distance with its optimal potential and transport plan.

    The checks vouch for the value to (GAP_TOL + n MARGINAL_TOL) times the
    largest distance, absolutely.  When every entry of mu - nu is below
    HiGHS's feasibility tolerance of 1e-10, HiGHS may return the zero plan, so
    values of about MARGINAL_TOL times the largest distance, or less, carry no
    relative accuracy.
    """
    if mu.space is not space and not np.array_equal(mu.space.dist, space.dist):
        raise ValueError("mu does not live on the given space")
    if nu.space is not space and not np.array_equal(nu.space.dist, space.dist):
        raise ValueError("nu does not live on the given space")
    n = space.size
    scale = float(space.dist.max()) or 1.0   # all distances 0: scale 1
    d = space.dist / scale

    # primal: min(mu, nu) stays where it is at no cost, and the LP ships only
    # the imbalance a = (mu - nu)[S+] to b = (nu - mu)[S-], an s x t plan whose
    # column (i, j) has its two ones at rows i and s + j; weights may be as
    # low as -STRUCT_TOL, so the diagonal is clipped to keep the plan >= 0
    diff = mu.weights - nu.weights
    sp, sm = np.flatnonzero(diff > 0), np.flatnonzero(diff < 0)
    s, t = sp.size, sm.size
    plan = np.diag(np.maximum(np.minimum(mu.weights, nu.weights), 0.0))
    value, potential = 0.0, np.zeros(n)
    if s and t:
        x, fun, duals = linprog(d[np.ix_(sp, sm)].reshape(-1), diff[sp], -diff[sm])
        plan[np.ix_(sp, sm)] = x.reshape(s, t)
        value = float(fun)
        # potential: c-transform of the column duals over S-, gauge f[0] = 0
        potential = np.min(d[:, sm] - duals[s:], axis=1)
        potential -= potential[0]
    if np.abs(np.r_[plan.sum(1) - mu.weights, plan.sum(0) - nu.weights]).max() > MARGINAL_TOL:
        raise ValueError("transport plan violates its marginals")

    gap = abs(value - float(potential @ diff))
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
