"""The three benchmark workloads.

Each workload builds its state from a seed (inputs included), runs one op on
one input and checks the op's output.  Library calls go through module
attributes (`triples.product`, `wasserstein.w1`, ...) looked up at call time,
so the wrappers that `tracing.Tracer` installs see them.

Importing this module imports `ncgp`, numpy and scipy; the runner times that
import as part of set-up.
"""

from __future__ import annotations

import numpy as np

from ncgp import distance, experiments, triples, wasserstein
from ncgp.algebra import FiniteAlgebra, product_state, pure_states


class LatticeN15:
    """Certified distances on one large product triple, with amortized set-up.

    product(two_point(2), two_sheeted_line(15)) has k = 30 and h = 60.  One op
    is one pure-state pair (phi+ x delta_x, phi- x delta_y) at tol 1e-5; the
    claim checked is the two-sheeted lattice bound d <= 1 (acceptance
    criterion 10 at n = 15).
    """

    name = "lattice-n15"
    warmup_ops = 1
    pool = 64
    n, lam, tol = 15, 2.0, 1e-5

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        pt = triples.product(triples.two_point(self.lam), triples.two_sheeted_line(self.n))
        solver = distance.DistanceSolver(pt)
        plus, minus = pure_states(FiniteAlgebra((1, 1)))
        deltas = pure_states(pt.algebra.factors[1])
        pairs = [(product_state(plus, deltas[x], pt.algebra),
                  product_state(minus, deltas[y], pt.algebra))
                 for x, y in rng.integers(0, self.n, size=(self.pool, 2))]
        return solver, pairs

    def op(self, solver, pair):
        return solver.distance(pair[0], pair[1], self.tol)

    def check(self, solver, pair, r) -> bool:
        return r.status == "finite" and r.upper <= 1.0 + self.tol


class Theorem1Sweep:
    """One-shot solves on small random products: per-call overhead, no reuse.

    One op is sweep_theorem1(trials=1, seed=s_i): three fresh triples, three
    solver set-ups and three solves on h <= 16.  The check is the Pythagoras
    sandwich the sweep itself verifies.
    """

    name = "theorem1-sweep"
    warmup_ops = 30
    pool = 4096

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        return None, [int(s) for s in rng.integers(0, 2**31 - 1, size=self.pool)]

    def op(self, state, trial_seed):
        return experiments.sweep_theorem1(trials=1, seed=trial_seed)

    def check(self, state, trial_seed, report) -> bool:
        return bool(report.passed)


class W1Grid:
    """Transport LPs on the 11 x 11 grid (n = 121): wasserstein and HiGHS only.

    One op is one w1(space, mu, nu) on seeded measures with full support.  w1
    raising nothing means its own gap, marginal and Lipschitz checks passed;
    on top, the plan must cost the returned value, and the value must be at
    least |<x_c, mu - nu>| for each coordinate c, a 1-Lipschitz test function.
    """

    name = "w1-grid"
    warmup_ops = 3
    pool = 64
    side = 11

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        seg = wasserstein.FiniteMetricSpace.euclidean(
            [str(i) for i in range(self.side)], np.linspace(0.0, 1.0, self.side)[:, None])
        space = wasserstein.product_space(seg, seg)
        measures = []
        for _ in range(self.pool):
            a, b = rng.random((2, space.size)) + 0.05
            measures.append((wasserstein.Measure(space, a / a.sum()),
                             wasserstein.Measure(space, b / b.sum())))
        return space, measures

    def op(self, space, pair):
        return wasserstein.w1(space, pair[0], pair[1])

    def check(self, space, pair, r) -> bool:
        cost = float(np.sum(r.plan * space.dist))
        moment = np.abs(space.coords.T @ (pair[0].weights - pair[1].weights)).max()
        return abs(cost - r.value) <= 1e-9 * max(1.0, r.value) and r.value >= moment - 1e-12


WORKLOADS = {w.name: w for w in (LatticeN15(), Theorem1Sweep(), W1Grid())}
