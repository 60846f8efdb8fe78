"""Named experiments reproducing the catalog claims, plus randomized property
sweeps, with machine-readable reports.

Reports are deterministic given (experiment id, params, seed); the PRNG is
numpy's PCG64 and its identifier is embedded in every report.  The runtime
field is measured wall time and is the one field excluded from bit-for-bit
reproducibility.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import (
    FiniteAlgebra,
    Representation,
    product_state,
    pure_states,
    random_state,
    slice_map,
)
from .distance import DistanceSolver, spectral_distance
from .khomology import (
    Projection,
    chern_pairing,
    generator_module,
    module_f1,
    module_f2,
    module_f_minus,
    module_f_plus,
    pairing_vector,
)
from .linalg import commutator, finite_json, op_norm, parity_split, tensor
from .tolerances import CHECK_TOL, EXACT_TOL, LATTICE_TOL, PAIRING_INT_TOL, SWEEP_TOL
from .triples import (
    SpectralTriple,
    amplified_two_point,
    product,
    triple_to_json,
    two_point,
    two_sheeted_line,
)
from .wasserstein import (
    FiniteMetricSpace,
    lambda_measure,
    product_measure,
    product_space,
    w1,
)

PRNG_ID = "numpy-pcg64"


@dataclass
class ExperimentReport:
    experiment_id: str
    inputs: dict
    claimed: object
    computed: object
    passed: bool
    tolerance: float
    runtime: float
    seed: int | None = None
    prng: str = PRNG_ID
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return finite_json({"pass" if f.name == "passed" else f.name: getattr(self, f.name)
                            for f in fields(self)})


def _report(experiment_id, inputs, claimed, computed, passed, tolerance, t0,
            seed=None, details=None) -> ExperimentReport:
    return ExperimentReport(experiment_id, inputs, claimed, computed, bool(passed),
                            tolerance, time.perf_counter() - t0, seed,
                            details=details or {})


def random_triple(seed, blocks=(1, 1), unital: bool = True,
                  even: bool = True) -> SpectralTriple:
    """Seeded random spectral triple over A = sum of M_n blocks.

    The representation is the defining one with multiplicity two (padded by a
    zero summand when non-unital), the grading the balanced sign matrix
    1 (x) diag(1,-1), and D a seeded Gaussian Hermitian matrix projected to
    its odd part when a grading is present.
    """
    if sum(blocks) > 8:
        raise ValueError("random_triple supports total block dimension <= 8")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    rep = Representation.defining(FiniteAlgebra(blocks))
    if not unital:
        rep = rep.padded(1)
    rep = rep.with_multiplicity(2)
    n = rep.hilbert_dim // 2
    raw = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    dirac = (raw + raw.conj().T) / 2.0
    if not even:
        return SpectralTriple(rep, dirac)
    gamma = np.kron(np.eye(n), np.diag([1.0, -1.0])).astype(complex)
    dirac = (dirac - gamma @ dirac @ gamma) / 2.0
    return SpectralTriple(rep, dirac, gamma)


# Named checks ----------------------------------------------------------------


def _check_pure_pair(experiment_id, key, build, scale, tol) -> ExperimentReport:
    """d(phi+, phi-) = scale between the two pure states of build(scale)."""
    t0 = time.perf_counter()
    t = build(scale)
    plus, minus = pure_states(t.algebra)
    r = spectral_distance(t, plus, minus, tol)
    passed = r.status == "finite" and abs(r.lower - scale) <= tol * scale
    return _report(experiment_id, {key: scale}, scale, r.lower, passed, tol, t0,
                   details={"upper": r.upper, "status": r.status})


def check_two_point(lam: float = 1.0, tol: float = CHECK_TOL) -> ExperimentReport:
    """d(phi+, phi-) = lam on the two-point space."""
    return _check_pure_pair("two-point", "lambda", two_point, lam, tol)


def check_amplified_two_point(mu: float = 1.0, tol: float = CHECK_TOL) -> ExperimentReport:
    """d(phi+, phi-) = mu on the amplified two-point space."""
    return _check_pure_pair("amplified-two-point", "mu", amplified_two_point, mu, tol)


def check_prop_indep(lam: float = 1.0, mu: float = 1.0,
                     tol: float = CHECK_TOL) -> ExperimentReport:
    """On two_point(lam) x amplified(mu): d(phi+ x phi+, phi- x phi-) = mu,
    independently of lam, with ratio d / sqrt(d1^2 + d2^2) = mu / sqrt(lam^2 + mu^2)."""
    t0 = time.perf_counter()
    pt = product(two_point(lam), amplified_two_point(mu))
    plus, minus = pure_states(FiniteAlgebra((1, 1)))
    phi = product_state(plus, plus, pt.algebra)
    phi2 = product_state(minus, minus, pt.algebra)
    r = spectral_distance(pt, phi, phi2, tol)
    ratio = r.lower / math.hypot(lam, mu)
    ratio_claim = mu / math.hypot(lam, mu)
    passed = (r.status == "finite"
              and abs(r.lower - mu) <= tol * mu
              and abs(ratio - ratio_claim) <= tol * ratio_claim)
    return _report("prop-indep", {"lambda": lam, "mu": mu}, mu, r.lower,
                   passed, tol, t0,
                   details={"upper": r.upper, "ratio": ratio,
                            "ratio_claimed": ratio_claim, "status": r.status})


def check_prop_bound(lam: float = 2.0, tol: float = CHECK_TOL) -> ExperimentReport:
    """For lam > 1, mu = 1: d(phi+ x phi+, phi- x phi+) <= 2 lam/(1+lam) < lam."""
    t0 = time.perf_counter()
    if lam <= 1:
        raise ValueError("prop-bound requires lam > 1")
    pt = product(two_point(lam), amplified_two_point(1.0))
    plus, minus = pure_states(FiniteAlgebra((1, 1)))
    phi = product_state(plus, plus, pt.algebra)
    phi2 = product_state(minus, plus, pt.algebra)
    r = spectral_distance(pt, phi, phi2, tol)
    bound = 2.0 * lam / (1.0 + lam)
    passed = r.upper <= bound + tol and r.upper < lam
    return _report("prop-bound", {"lambda": lam, "mu": 1.0},
                   f"d <= 2*lam/(1+lam) = {bound} and d < lam", r.upper,
                   passed, tol, t0,
                   details={"lower": r.lower, "bound": bound, "status": r.status})


def check_pullback_infinite(tol: float = CHECK_TOL) -> ExperimentReport:
    """The pullback modules F+- give infinite distance between the pure states."""
    t0 = time.perf_counter()
    plus, minus = pure_states(FiniteAlgebra((1, 1)))
    statuses = {}
    for name, mod in (("F+", module_f_plus()), ("F-", module_f_minus())):
        r = spectral_distance(mod.as_spectral_triple(), plus, minus, tol)
        statuses[name] = r.status
    passed = all(s == "infinite" for s in statuses.values())
    return _report("pullback-infinite", {}, "infinite", statuses, passed, tol, t0)


def _wasserstein_row(lam: float) -> tuple[dict, dict]:
    """W1 on the segment and W on the product square between the lam- and
    0-measures, as the row (lambda, W1, W2, W, ratio), and the closed forms
    W1 = lam, W = sqrt(2) lam k_lam and ratio = k_lam, where
    k_lam = lam + sqrt(2)(1 - lam)."""
    seg = FiniteMetricSpace.segment()
    m_lam, m_0 = lambda_measure(seg, lam), lambda_measure(seg, 0.0)
    w_1 = w1(seg, m_lam, m_0).value
    square = product_space(seg, seg)
    w = w1(square, product_measure(m_lam, m_lam, square),
           product_measure(m_0, m_0, square)).value
    ratio = w / math.hypot(w_1, w_1) if w_1 > 0 else float("nan")
    k_lam = lam + math.sqrt(2.0) * (1.0 - lam)
    return ({"lambda": lam, "w1": w_1, "w2": w_1, "w": w, "ratio": ratio},
            {"w1": lam, "w": math.sqrt(2.0) * lam * k_lam, "ratio": k_lam})


def check_wasserstein_point(lam: float = 0.5, tol: float = EXACT_TOL) -> ExperimentReport:
    """W1 = lam on the segment and W = sqrt(2) lam (lam + sqrt(2)(1 - lam))
    on the product square."""
    t0 = time.perf_counter()
    row, claim = _wasserstein_row(lam)
    claimed = {"w1": claim["w1"], "w": claim["w"]}
    computed = {key: row[key] for key in claimed}
    passed = all(abs(computed[key] - claimed[key]) <= tol for key in claimed)
    return _report("wasserstein-point", {"lambda": lam}, claimed, computed, passed, tol, t0)


def check_khomology(tol: float = PAIRING_INT_TOL) -> ExperimentReport:
    """Pairing table: <F_i, p_j> = delta_ij, F1 -> (1,-1), F2 -> (1,1),
    and the rank pairing over C equals 1."""
    t0 = time.perf_counter()
    table = {
        "F+": pairing_vector(module_f_plus()),
        "F-": pairing_vector(module_f_minus()),
        "F1": pairing_vector(module_f1()),
        "F2": pairing_vector(module_f2()),
    }
    gen = generator_module()
    rank = chern_pairing(gen, Projection.from_element(gen.algebra.unit()))
    claimed = {"F+": (1, 0), "F-": (0, 1), "F1": (1, -1), "F2": (1, 1), "rank": 1}
    computed = dict(table)
    computed["rank"] = rank
    passed = table == {k: v for k, v in claimed.items() if k != "rank"} \
        and abs(rank - 1.0) <= tol
    return _report("khomology-pairings", {}, claimed, computed, passed, tol, t0)


def check_lattice_bound(n: int = 5, lam: float = 2.0, h: float = 1.0,
                        tol: float = LATTICE_TOL) -> ExperimentReport:
    """Two-sheeted lattice line: d(phi+ x delta_x, phi- x delta_y) <= 1 for all
    grid points, and < lam on the diagonal when lam > 1."""
    t0 = time.perf_counter()
    pt = product(two_point(lam), two_sheeted_line(n, h))
    plus, minus = pure_states(FiniteAlgebra((1, 1)))
    deltas = pure_states(pt.algebra.factors[1])
    solver = DistanceSolver(pt)
    uppers = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            phi = product_state(plus, deltas[x], pt.algebra)
            phi2 = product_state(minus, deltas[y], pt.algebra)
            uppers[x, y] = solver.distance(phi, phi2, tol).upper
    max_upper = float(uppers.max())
    diag_max = float(np.diag(uppers).max())
    passed = max_upper <= 1.0 + tol and (lam <= 1.0 or diag_max < lam)
    return _report("lattice-bound", {"n": n, "lambda": lam, "h": h},
                   "max d <= 1", max_upper, passed, tol, t0,
                   details={"diagonal_max": diag_max,
                            "uppers": [[float(v) for v in row] for row in uppers]})


# Randomized sweeps -----------------------------------------------------------


def sweep_wasserstein(lambda_steps: int = 9, tol: float = EXACT_TOL) -> ExperimentReport:
    """Sweep lam over a uniform grid; rows (lambda, W1, W2, W, ratio) must match
    W = k_lam sqrt(W1^2 + W2^2) with k_lam = lam + sqrt(2)(1 - lam)."""
    if lambda_steps < 1:
        raise ValueError("lambda_steps must be at least 1")
    t0 = time.perf_counter()
    rows = []
    worst = 0.0
    for i in range(1, lambda_steps + 1):
        row, claim = _wasserstein_row(i / (lambda_steps + 1.0))
        worst = max(worst, *(abs(row[key] - claim[key]) for key in claim))
        rows.append(row)
    passed = worst <= tol
    return _report("wasserstein-rsquare", {"lambda_steps": lambda_steps},
                   "W = k_lambda*sqrt(W1^2+W2^2), k = lambda+sqrt(2)(1-lambda)",
                   {"max_abs_error": worst}, passed, tol, t0,
                   details={"rows": rows})


_BLOCK_CHOICES = ((1, 1), (2,))


def sweep_theorem1(trials: int = 200, seed: int = 0,
                   tol: float = SWEEP_TOL) -> ExperimentReport:
    """Random unital products with separable states: the spectral distance obeys
    d <= d1 + d2, d >= sqrt(d1^2 + d2^2) and d <= sqrt(2) sqrt(d1^2 + d2^2)
    within the solver brackets."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    violations = []
    rows = []
    for trial in range(trials):
        bl1 = _BLOCK_CHOICES[rng.integers(0, len(_BLOCK_CHOICES))]
        bl2 = _BLOCK_CHOICES[rng.integers(0, len(_BLOCK_CHOICES))]
        t1 = random_triple(rng, bl1, unital=True, even=True)
        t2 = random_triple(rng, bl2, unital=True, even=bool(rng.integers(0, 2)))
        pt = product(t1, t2)
        phi1, phi1p = random_state(t1.algebra, rng), random_state(t1.algebra, rng)
        phi2, phi2p = random_state(t2.algebra, rng), random_state(t2.algebra, rng)
        r1 = spectral_distance(t1, phi1, phi1p, tol)
        r2 = spectral_distance(t2, phi2, phi2p, tol)
        r = spectral_distance(pt, product_state(phi1, phi2, pt.algebra),
                              product_state(phi1p, phi2p, pt.algebra), tol)
        ok = (r.lower <= r1.upper + r2.upper + 3 * tol
              and r.upper >= math.hypot(r1.lower, r2.lower) - 3 * tol
              and r.lower <= math.sqrt(2.0) * math.hypot(r1.upper, r2.upper) + 3 * tol)
        row = {"trial": trial, "blocks": [list(bl1), list(bl2)],
               "d1": r1.lower, "d2": r2.lower, "d": r.lower, "ok": ok}
        rows.append(row)
        if not ok:
            violations.append({"row": row,
                               "triple1": triple_to_json(t1),
                               "triple2": triple_to_json(t2)})
    passed = not violations
    return _report("theorem1", {"trials": trials}, "zero violations",
                   {"violations": len(violations)}, passed, tol, t0, seed=seed,
                   details={"rows": rows, "failing": violations})


def sweep_lemmas(trials: int = 1000, seed: int = 0,
                 tol: float = EXACT_TOL) -> ExperimentReport:
    """Operator lemmas behind the main theorem, on random instances:
    the norm Pythagoras identity for a1 (x) 1 + 1 (x) a2, the odd/even max
    bound, and the slice-map contraction."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    counts = {"norm_pythagoras": 0, "odd_even_max": 0, "slice_contraction": 0}

    for _ in range(trials):
        # odd/even bound: random grading and random operator, dims 2..8
        dim = int(rng.integers(2, 9))
        signs = rng.permutation([1.0] * (dim // 2) + [-1.0] * (dim - dim // 2))
        gamma = np.diag(signs).astype(complex)
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        even, odd = parity_split(mat, gamma)
        if max(op_norm(odd), op_norm(even)) > op_norm(mat) + tol:
            counts["odd_even_max"] += 1

    for _ in range(trials):
        # Pythagoras of commutator norms on a random even x any product
        t1 = random_triple(rng, (1, 1), even=True)
        t2 = random_triple(rng, (1, 1), even=bool(rng.integers(0, 2)))
        a1 = _random_selfadjoint_element(t1.algebra, rng)
        a2 = _random_selfadjoint_element(t2.algebra, rng)
        c1 = t1.commutator_with_dirac(a1)
        c2 = t2.commutator_with_dirac(a2)
        full = tensor(c1, np.eye(t2.hilbert_dim)) + tensor(t1.grading, c2)
        lhs = op_norm(full) ** 2
        rhs = op_norm(c1) ** 2 + op_norm(c2) ** 2
        if abs(lhs - rhs) > tol * max(1.0, rhs):
            counts["norm_pythagoras"] += 1

    for _ in range(trials):
        t1 = random_triple(rng, (1, 1), even=True)
        t2 = random_triple(rng, (1, 1), even=False)
        pt = product(t1, t2)
        a = _random_selfadjoint_element(pt.algebra, rng)
        phi2 = random_state(t2.algebra, rng)
        a1 = slice_map(a, phi2, "right")
        lhs = op_norm(commutator(t1.dirac, t1.rep.apply(a1)))
        big = commutator(tensor(t1.dirac, np.eye(t2.hilbert_dim)), pt.rep.apply(a))
        if lhs > op_norm(big) + tol:
            counts["slice_contraction"] += 1

    passed = all(v == 0 for v in counts.values())
    return _report("lemmas", {"trials": trials}, "zero violations", counts,
                   passed, tol, t0, seed=seed)


def _random_selfadjoint_element(algebra: FiniteAlgebra, rng: np.random.Generator):
    blocks = []
    for n in algebra.blocks:
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        blocks.append((raw + raw.conj().T) / 2.0)
    return algebra.element(blocks)


CHECKS = {
    "two-point": check_two_point,
    "amplified-two-point": check_amplified_two_point,
    "prop-indep": check_prop_indep,
    "prop-bound": check_prop_bound,
    "pullback-infinite": check_pullback_infinite,
    "wasserstein-point": check_wasserstein_point,
    "khomology-pairings": check_khomology,
    "lattice-bound": check_lattice_bound,
}

SWEEPS = {
    "wasserstein-rsquare": sweep_wasserstein,
    "theorem1": sweep_theorem1,
    "lemmas": sweep_lemmas,
}
