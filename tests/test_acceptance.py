"""Acceptance suite: every headline claim at its stated tolerance and budget.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion; each test also enforces its wall-clock budget.
"""

import math
import time

from ncgp.algebra import FiniteAlgebra, product_state, pure_states
from ncgp.distance import spectral_distance
from ncgp.experiments import check_lattice_bound, sweep_lemmas, sweep_theorem1
from ncgp.khomology import (
    Projection,
    chern_pairing,
    generator_module,
    module_f1,
    module_f2,
    module_f_minus,
    module_f_plus,
    pairing_vector,
)
from ncgp.triples import amplified_two_point, product, two_point
from ncgp.wasserstein import (
    FiniteMetricSpace,
    lambda_measure,
    product_measure,
    product_space,
    w1,
)

PLUS, MINUS = pure_states(FiniteAlgebra((1, 1)))


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: PASS {detail}")


def test_criterion_01_two_point_distance():
    for lam in (0.5, 1.0, 3.0):
        t0 = time.perf_counter()
        r = spectral_distance(two_point(lam), PLUS, MINUS, 1e-6)
        elapsed = time.perf_counter() - t0
        assert r.status == "finite"
        assert abs(r.lower - lam) <= 1e-6
        assert elapsed < 1.0
    _report(1, "two-point distance d = lambda for lambda in {0.5, 1, 3}")


def test_criterion_02_amplified_two_point_distance():
    for mu in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        r = spectral_distance(amplified_two_point(mu), PLUS, MINUS, 1e-6)
        elapsed = time.perf_counter() - t0
        assert r.status == "finite"
        assert abs(r.lower - mu) <= 1e-6
        assert elapsed < 1.0
    _report(2, "amplified two-point distance d = mu for mu in {0.5, 1, 2}")


def test_criterion_03_product_distance_independent_of_lambda():
    for lam in (0.1, 1.0, 10.0):
        for mu in (1.0, 2.0):
            t0 = time.perf_counter()
            pt = product(two_point(lam), amplified_two_point(mu))
            phi = product_state(PLUS, PLUS, pt.algebra)
            phi2 = product_state(MINUS, MINUS, pt.algebra)
            r = spectral_distance(pt, phi, phi2, 1e-6)
            elapsed = time.perf_counter() - t0
            assert abs(r.lower - mu) <= 1e-5
            ratio = r.lower / math.hypot(lam, mu)
            assert abs(ratio - mu / math.hypot(lam, mu)) <= 1e-5
            assert elapsed < 5.0
    _report(3, "product distance = mu independent of lambda, ratio mu/sqrt(l^2+m^2)")


def test_criterion_04_offdiagonal_bound():
    for lam in (2.0, 5.0, 10.0):
        t0 = time.perf_counter()
        pt = product(two_point(lam), amplified_two_point(1.0))
        phi = product_state(PLUS, PLUS, pt.algebra)
        phi2 = product_state(MINUS, PLUS, pt.algebra)
        r = spectral_distance(pt, phi, phi2, 1e-6)
        elapsed = time.perf_counter() - t0
        assert r.upper <= 2.0 * lam / (1.0 + lam) + 1e-5
        assert r.upper < lam
        assert elapsed < 5.0
    _report(4, "mixed-pair distance <= 2*lambda/(1+lambda) and < lambda")


def test_criterion_05_pullback_distance_infinite():
    for mod in (module_f_plus(), module_f_minus()):
        t0 = time.perf_counter()
        r = spectral_distance(mod.as_spectral_triple(), PLUS, MINUS, 1e-6)
        elapsed = time.perf_counter() - t0
        assert r.status == "infinite"
        assert math.isinf(r.upper)
        assert elapsed < 1.0
    _report(5, "pullback modules F+- give infinite pure-state distance")


def test_criterion_06_wasserstein_product_formula():
    t0 = time.perf_counter()
    seg = FiniteMetricSpace.segment()
    square = product_space(seg, seg)
    m0 = lambda_measure(seg, 0.0)
    m0sq = product_measure(m0, m0, square)
    ratios = {}
    for lam in [round(0.1 * i, 10) for i in range(1, 10)]:
        mlam = lambda_measure(seg, lam)
        w_1 = w1(seg, mlam, m0).value
        w_sq = w1(square, product_measure(mlam, mlam, square), m0sq).value
        k_lam = lam + math.sqrt(2.0) * (1.0 - lam)
        assert abs(w_1 - lam) <= 1e-9
        assert abs(w_sq - math.sqrt(2.0) * lam * k_lam) <= 1e-9
        ratios[lam] = w_sq / math.hypot(w_1, w_1)
    # endpoint coverage of [1, sqrt(2)]: lambda = 1 gives 1, lambda -> 0+ gives
    # sqrt(2); 1e-6 is the smallest scale the LP resolves without rounding away mass
    m1 = lambda_measure(seg, 1.0)
    w_sq = w1(square, product_measure(m1, m1, square), m0sq).value
    assert abs(w_sq / math.hypot(1.0, 1.0) - 1.0) <= 1e-9
    eps = 1e-6
    meps = lambda_measure(seg, eps)
    w_eps = w1(square, product_measure(meps, meps, square), m0sq).value
    assert abs(w_eps / math.hypot(eps, eps) - math.sqrt(2.0)) <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(6, "Wasserstein W1 = lambda and W = sqrt(2) lambda k_lambda, endpoints hit")


def test_criterion_07_theorem1_property_suite():
    t0 = time.perf_counter()
    report = sweep_theorem1(trials=200, seed=0, tol=1e-4)
    elapsed = time.perf_counter() - t0
    assert report.passed, report.computed
    assert len(report.details["rows"]) == 200
    assert elapsed < 300.0
    _report(7, "theorem-1 sandwich on 200 random unital products", f"({elapsed:.1f}s)")


def test_criterion_08_lemma_suite():
    t0 = time.perf_counter()
    report = sweep_lemmas(trials=1000, seed=0, tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert report.passed, report.computed
    assert elapsed < 30.0
    _report(8, "norm Pythagoras, odd/even max bound, slice contraction x1000",
            f"({elapsed:.1f}s)")


def test_criterion_09_khomology_pairing_table():
    t0 = time.perf_counter()
    assert pairing_vector(module_f_plus()) == (1, 0)
    assert pairing_vector(module_f_minus()) == (0, 1)
    assert pairing_vector(module_f1()) == (1, -1)
    assert pairing_vector(module_f2()) == (1, 1)
    gen = generator_module()
    rank = chern_pairing(gen, Projection.from_element(gen.algebra.unit()))
    assert abs(rank - 1.0) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(9, "K-homology pairings delta_ij, F1 -> (1,-1), F2 -> (1,1), rank 1")


def test_criterion_10_two_sheeted_lattice_bound():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (5, 9):
        for lam in (0.5, 2.0, 10.0):
            # every distance <= 1 + 1e-5, and the diagonal ones < lambda for lambda > 1
            report = check_lattice_bound(n, lam, 1.0, 1e-5)
            assert report.passed, (n, lam, report.computed, report.details["diagonal_max"])
            worst = max(worst, report.computed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(10, "two-sheeted lattice distances <= 1, diagonal < lambda",
            f"(worst {worst:.7f}, {elapsed:.1f}s)")
