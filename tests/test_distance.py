"""Spectral distance solver: catalog values, certificates, and properties."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncgp
from ncgp.algebra import (
    AlgebraElement,
    FiniteAlgebra,
    Representation,
    State,
    hermitian_basis,
    product_state,
    pure_states,
    random_state,
)
from ncgp.distance import (
    DistanceSolver,
    _unit_commutators,
    distance_matrix,
    distance_result_to_json,
    spectral_distance,
)
from ncgp.experiments import random_triple
from ncgp.linalg import op_norm
from ncgp.sdp import maximize_over_unit_ball, ratio_ascent
from ncgp.tolerances import KERNEL_SVD_TOL, SWEEP_TOL
from ncgp.triples import (
    SpectralTriple,
    amplified_two_point,
    product,
    two_point,
    two_sheeted_line,
)

C2 = FiniteAlgebra((1, 1))
EPS = np.finfo(float).eps
PLUS, MINUS = pure_states(C2)

# Exact distance between phi+ x phi+ and phi- x phi+ on the lam=2, mu=1
# product: the maximizer is a1 = -a3 = t with a2 = a4 = 0, which reduces the
# constraint to the 2x2 matrix [[1, 1/lam], [0, -1]]; the optimum value is the
# reciprocal of its norm, equal to (sqrt(17) - 1)/4 at lam = 2.
OFFDIAG_LAM2 = (math.sqrt(17.0) - 1.0) / 4.0


def grid_ratio_oracle(lam, mu=1.0, refine_steps=60):
    """Dense grid + coordinate refinement for sup (a1 - a3)/||B_a||."""
    def bnorm(a):
        a1, a2, a3, a4 = a
        b = np.array([
            [2 * a1, 0, mu / lam * (a1 - a3), 0],
            [0, 2 * a2, 0, mu / lam * (a2 - a4)],
            [0, 0, 2 * a3, 0],
            [0, 0, 0, 2 * a4]]) / mu
        return op_norm(b)

    def ratio(a):
        n = bnorm(a)
        return (a[0] - a[2]) / n if n > 1e-14 else 0.0

    grid = np.linspace(-1.0, 1.0, 81)
    best, best_a = -np.inf, None
    for a1 in grid:
        for a3 in grid:
            v = ratio((a1, 0.0, a3, 0.0))
            if v > best:
                best, best_a = v, np.array([a1, 0.0, a3, 0.0])
    step = 0.05
    a = best_a
    for _ in range(refine_steps):
        improved = False
        for i in range(4):
            for sgn in (1.0, -1.0):
                cand = a.copy()
                cand[i] += sgn * step
                if ratio(cand) > ratio(a):
                    a, improved = cand, True
        if not improved:
            step /= 2.0
            if step < 1e-9:
                break
    return ratio(a)


def product_states_pm(pt, first, second):
    return product_state(first, second, pt.algebra)


def seeded_instance(blocks, seed, states=2):
    """two_point(lam) for blocks None, else random_triple(seed, blocks), with
    `states` random states."""
    rng = np.random.default_rng(seed)
    t = two_point(float(rng.uniform(0.5, 2.0))) if blocks is None else random_triple(rng, blocks)
    return (t, *(random_state(t.algebra, rng) for _ in range(states)))


class TestCatalogDistances:
    def test_two_point(self):
        for lam in (0.5, 1.5):
            t = two_point(lam)
            r = spectral_distance(t, PLUS, MINUS, 1e-8)
            assert r.status == "finite"
            assert r.lower == pytest.approx(lam, abs=1e-7)
            assert r.upper == pytest.approx(lam, abs=1e-7)

    def test_two_point_at_large_scale(self):
        # the kernel cutoff is relative to the top singular value, so a small
        # Dirac operator is not mistaken for D = 0; the solver normalizes its
        # data, so small distances close to the same relative tolerance, and
        # scales it by a power of two first, so that the Gram matrix of the
        # H_j neither underflows (d = 1e300) nor overflows (d = 1e-300); at
        # d = 1e-308, D near 1e308, the set-up's SVD, the Hermitian part and
        # the solver's scale sigma would each overflow without the same care
        tol = 1e-6
        for lam in (1e-308, 1e-300, 1e-200, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e10,
                    1e13, 1e200, 1e300):
            r = spectral_distance(two_point(lam), PLUS, MINUS, tol)
            assert r.status == "finite"
            assert abs(r.lower - lam) <= tol * lam
            assert r.upper <= (1.0 + tol) * r.lower

    def test_amplified_two_point(self):
        t = amplified_two_point(0.75)
        r = spectral_distance(t, PLUS, MINUS, 1e-8)
        assert r.lower == pytest.approx(0.75, abs=1e-7)

    def test_product_distance_is_mu(self):
        pt = product(two_point(3.0), amplified_two_point(0.5))
        phi = product_states_pm(pt, PLUS, PLUS)
        phi2 = product_states_pm(pt, MINUS, MINUS)
        r = spectral_distance(pt, phi, phi2, 1e-7)
        assert r.lower == pytest.approx(0.5, abs=1e-6)

    def test_offdiagonal_product_value(self):
        pt = product(two_point(2.0), amplified_two_point(1.0))
        phi = product_states_pm(pt, PLUS, PLUS)
        phi2 = product_states_pm(pt, MINUS, PLUS)
        r = spectral_distance(pt, phi, phi2, 1e-7)
        assert r.lower == pytest.approx(OFFDIAG_LAM2, abs=1e-6)
        assert r.upper == pytest.approx(OFFDIAG_LAM2, abs=1e-6)
        # the independent grid oracle lands on the same value
        assert grid_ratio_oracle(2.0) == pytest.approx(OFFDIAG_LAM2, abs=1e-6)
        # strictly below both the closed-form bound and lam itself
        assert r.upper <= 2 * 2.0 / 3.0 + 1e-6
        assert r.upper < 2.0

    def test_pullback_modules_infinite(self):
        for mod in (ncgp.module_f_plus(), ncgp.module_f_minus()):
            r = spectral_distance(mod.as_spectral_triple(), PLUS, MINUS)
            assert r.is_infinite and r.status == "infinite"
            assert math.isinf(r.upper)
            # the witness commutes with F and separates the states
            t = mod.as_spectral_triple()
            assert op_norm(t.commutator_with_dirac(r.optimizer)) < 1e-9
            assert (PLUS(r.optimizer) - MINUS(r.optimizer)).real == pytest.approx(r.lower)
        # states that differ by t on the kernel of pi are infinitely far
        # apart at every t > 0: the kernel test is relative to ||c||
        t = ncgp.module_f_plus().as_spectral_triple()
        for eps in (1e-11, 1e-13):
            near = State(C2, (np.array([[1.0 - eps]]), np.array([[eps]])))
            r = spectral_distance(t, PLUS, near)
            assert r.status == "infinite" and math.isinf(r.upper)
            assert op_norm(t.commutator_with_dirac(r.optimizer)) < 1e-9
            assert (PLUS(r.optimizer) - near(r.optimizer)).real == pytest.approx(r.lower)
            assert r.lower == pytest.approx(1.0)

    def test_zero_dirac_infinite(self):
        rep = ncgp.Representation.defining(C2)
        t = SpectralTriple(rep, np.zeros((2, 2)))
        r = spectral_distance(t, PLUS, MINUS)
        assert r.status == "infinite"

    @pytest.mark.parametrize("gap", [1e-6, 1e-9])
    def test_near_states_stay_finite(self, gap):
        # neither a total trace off 1 (State admits up to 1e-12) nor the
        # rounding of 0.5 +- gap may read as a kernel difference of the states
        def state(alg, values):
            return State(alg, tuple(np.array([[v]]) for v in values))

        half = state(C2, (0.5, 0.5))
        r = spectral_distance(two_point(1.0), half, state(C2, (0.5 + gap, 0.5 - gap)))
        assert r.status == "finite" and r.lower == pytest.approx(gap, rel=1e-5)
        # the distance is the one between the trace-normalized states
        heavy = state(C2, (0.5 + gap, 0.5 - gap + 1e-13))
        r = spectral_distance(two_point(1.0), half, heavy)
        assert r.status == "finite"
        assert r.lower == pytest.approx((0.5 + gap) / (1.0 + 1e-13) - 0.5, rel=1e-5)
        # C^3 with its third point isolated: the kernel holds more than the unit
        C3 = FiniteAlgebra((1, 1, 1))
        D = np.zeros((3, 3))
        D[0, 1] = D[1, 0] = 1.0
        t = SpectralTriple(Representation.defining(C3), D)
        base = state(C3, (0.5, 0.2, 0.3))
        r = spectral_distance(t, base, state(C3, (0.5 + gap, 0.2 - gap, 0.3)))
        assert r.status == "finite" and r.lower == pytest.approx(gap, rel=1e-5)
        r = spectral_distance(t, base, state(C3, (0.5, 0.2 + gap, 0.3 - gap)))
        assert r.status == "infinite"


class TestResultInvariants:
    def test_certificate_feasibility(self):
        pt = product(two_point(1.0), amplified_two_point(1.0))
        phi = product_states_pm(pt, PLUS, PLUS)
        phi2 = product_states_pm(pt, MINUS, MINUS)
        r = spectral_distance(pt, phi, phi2, 1e-7)
        assert r.lower <= r.upper
        assert op_norm(pt.commutator_with_dirac(r.optimizer)) <= 1.0 + 1e-9
        achieved = (phi(r.optimizer) - phi2(r.optimizer)).real
        assert achieved == pytest.approx(r.lower, abs=1e-10)

    def test_same_state_zero_with_zero_optimizer(self):
        t = two_point(1.0)
        r = spectral_distance(t, PLUS, PLUS)
        assert r.lower == 0.0 and r.upper == 0.0 and r.status == "finite"
        assert all(np.array_equal(b, np.zeros_like(b)) for b in r.optimizer.blocks)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        t = random_triple(rng, (2,), even=True)
        phi, phi2 = random_state(t.algebra, rng), random_state(t.algebra, rng)
        r1 = spectral_distance(t, phi, phi2, 1e-7)
        r2 = spectral_distance(t, phi2, phi, 1e-7)
        assert r1.lower == pytest.approx(r2.lower, abs=1e-6)

    def test_scale_covariance(self):
        # d(sD) = d(D) / s: the solver sees the same unit-scale problem at
        # every s, so both ends of the bracket scale to roundoff
        rng = np.random.default_rng(1)
        for t in (two_point(1.3), amplified_two_point(0.8), random_triple(rng, (2,)),
                  random_triple(rng, (2, 1))):
            phi, phi2 = random_state(t.algebra, rng), random_state(t.algebra, rng)
            base = spectral_distance(t, phi, phi2, 1e-7)
            assert base.status == "finite"
            for s in (1e-12, 1e-6, 0.5, 4.0, 1e6, 1e12):
                scaled = spectral_distance(t.scaled(s), phi, phi2, 1e-7)
                assert scaled.status == "finite"
                assert scaled.lower == pytest.approx(base.lower / s, rel=1e-9)
                assert scaled.upper == pytest.approx(base.upper / s, rel=1e-9)

    @pytest.mark.parametrize("blocks", [(1, 1), (2,), (2, 1)])
    def test_unitary_conjugation_invariance(self, blocks):
        # (u pi u*, u D u*, u gamma u*) is the same geometry in rotated
        # coordinates, which makes the H_j dense and complex
        rng = np.random.default_rng(sum(blocks) * 10 + len(blocks))
        t = random_triple(rng, blocks)
        h = t.hilbert_dim
        u, _ = np.linalg.qr(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)))
        rotated = SpectralTriple(Representation(t.algebra, h, u @ t.rep.units @ u.conj().T),
                                 u @ t.dirac @ u.conj().T, u @ t.grading @ u.conj().T)
        phi, phi2 = random_state(t.algebra, rng), random_state(t.algebra, rng)
        base = spectral_distance(t, phi, phi2, 1e-7)
        r = spectral_distance(rotated, phi, phi2, 1e-7)
        assert base.status == r.status == "finite"
        assert r.lower == pytest.approx(base.lower, rel=1e-5)

    def test_diagonal_gauge_invariance_in_both_arithmetics(self):
        # W diagonal unitary commutes with pi(A) and gamma here, so
        # (pi, W D W*, gamma) has the same distances; quarter turns keep every
        # generator real or imaginary and the solve real, generic phases send
        # it through complex arithmetic
        pt = product(two_point(2.0), two_sheeted_line(6))
        h = pt.hilbert_dim
        deltas = pure_states(pt.algebra.factors[1])
        phi = product_state(PLUS, deltas[0], pt.algebra)
        phi2 = product_state(MINUS, deltas[5], pt.algebra)
        rng = np.random.default_rng(5)
        turns = np.array([1.0, 1.0j, -1.0, -1.0j])[rng.integers(0, 4, size=h)]
        phases = np.exp(2j * np.pi * rng.random(h))
        brackets = {}
        for name, w, dtype in (("base", np.ones(h), np.float64),
                               ("quarter turns", turns, np.float64),
                               ("phases", phases, np.complex128)):
            solver = DistanceSolver(SpectralTriple(pt.rep, w[:, None] * pt.dirac * np.conj(w),
                                                   pt.grading))
            assert solver.ball.Bu.dtype == dtype, name
            r = solver.distance(phi, phi2, 1e-7)
            assert r.status == "finite", name
            brackets[name] = (r.lower, r.upper)
        for a in brackets.values():
            for b in brackets.values():
                assert max(a[0], b[0]) <= min(a[1], b[1])

    def test_optimizer_outside_the_ball_does_not_raise_lower(self, monkeypatch):
        # an optimizer a few ulps outside ||[D, pi(a)]|| <= 1, whichever
        # arithmetic the solve ran in, is scaled back before it is evaluated
        def outside(c, ball, tol):
            sol = maximize_over_unit_ball(c, ball, tol)
            return dataclasses.replace(sol, y_best=sol.y_best * (1.0 + 1e-9))

        monkeypatch.setattr(ncgp.distance, "maximize_over_unit_ball", outside)
        r = spectral_distance(two_point(3.0), PLUS, MINUS, 1e-7)
        assert r.lower <= 3.0 * (1.0 + 4 * np.finfo(float).eps)

    # property versions of the two tests above, on two_point and seeded (2,)
    # and (2, 1) triples with random states; at tol 1e-10 both brackets close
    # far inside the 1e-9 compared, whatever path each solve takes
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([None, (2,), (2, 1)]), st.integers(0, 2 ** 31 - 1),
           st.floats(min_value=-12.0, max_value=12.0))
    def test_scale_covariance_property(self, blocks, seed, log_s):
        s = 10.0 ** log_s
        t, phi, phi2 = seeded_instance(blocks, seed)
        base = spectral_distance(t, phi, phi2, 1e-10)
        scaled = spectral_distance(t.scaled(s), phi, phi2, 1e-10)
        assert base.status == scaled.status == "finite"
        assert s * scaled.lower == pytest.approx(base.lower, rel=1e-9)
        assert s * scaled.upper == pytest.approx(base.upper, rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([None, (2,), (2, 1)]), st.integers(0, 2 ** 31 - 1))
    def test_unitary_conjugation_property(self, blocks, seed):
        t, phi, phi2 = seeded_instance(blocks, seed)
        rng = np.random.default_rng(seed + 1)
        h = t.hilbert_dim
        u, _ = np.linalg.qr(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)))
        rotated = SpectralTriple(Representation(t.algebra, h, u @ t.rep.units @ u.conj().T),
                                 u @ t.dirac @ u.conj().T, u @ t.grading @ u.conj().T)
        base = spectral_distance(t, phi, phi2, 1e-10)
        r = spectral_distance(rotated, phi, phi2, 1e-10)
        assert base.status == r.status == "finite"
        assert r.lower == pytest.approx(base.lower, rel=1e-9)

    # metric properties on the same seeded instances, three states and one
    # solver each: both ends of a bracket are certified, so only the
    # roundoff of the compared sums is allowed for
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([None, (2,), (2, 1)]), st.integers(0, 2 ** 31 - 1))
    def test_symmetry_property(self, blocks, seed):
        t, phi, psi, _ = seeded_instance(blocks, seed, states=3)
        solver = DistanceSolver(t)
        r, back = solver.distance(phi, psi, 1e-7), solver.distance(psi, phi, 1e-7)
        assert r.status == back.status == "finite"
        assert max(r.lower, back.lower) <= min(r.upper, back.upper) * (1 + 4 * EPS)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([None, (2,), (2, 1)]), st.integers(0, 2 ** 31 - 1))
    def test_triangle_property(self, blocks, seed):
        t, phi, psi, chi = seeded_instance(blocks, seed, states=3)
        solver = DistanceSolver(t)
        direct = solver.distance(phi, chi, 1e-7)
        via = solver.distance(phi, psi, 1e-7).upper + solver.distance(psi, chi, 1e-7).upper
        assert direct.lower <= via * (1 + 4 * EPS)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            spectral_distance(two_point(1.0), PLUS, MINUS, tol)

    def test_state_triple_mismatch(self):
        t = two_point(1.0)
        other = pure_states(FiniteAlgebra((1, 1, 1)))[0]
        with pytest.raises(ValueError):
            spectral_distance(t, other, other)


def coordinate_triple(k, h, lam=1.0):
    """C^k acting on C^h (h <= 2) through its first h coordinates, diagonally.

    The other k - h coordinates act as zero, so pi is not faithful; with
    k > 2 h^2 the commutator map has fewer real components than coordinates.
    """
    units = np.zeros((k, h, h), dtype=complex)
    for i in range(h):
        units[i, i, i] = 1.0
    dirac = np.array([[0.0, 1.0], [1.0, 0.0]]) / lam if h == 2 else np.ones((1, 1))
    return SpectralTriple(Representation(FiniteAlgebra((1,) * k), h, units), dirac)


class TestKernelSplit:
    @pytest.mark.parametrize("k,h", [(3, 1), (9, 2)])
    def test_thin_svd_kernel_matches_full_svd(self, k, h):
        t = coordinate_triple(k, h, lam=3.0)
        solver = DistanceSolver(t)
        L = np.stack([t.commutator_with_dirac(AlgebraElement(t.algebra, row))
                      for row in hermitian_basis(t.algebra)])
        flat = np.concatenate([L.reshape(k, -1).real, L.reshape(k, -1).imag], axis=1)
        assert flat.shape[1] < k
        u, s, _ = np.linalg.svd(flat, full_matrices=True)
        rank = int(np.sum(s > 1e-12 * s[0])) if s[0] > 0 else 0
        assert solver.range_basis.shape == (k, rank)
        assert solver.kernel_basis.shape == (k, k - rank)
        assert np.allclose(solver.kernel_basis @ solver.kernel_basis.T,
                           u[:, rank:] @ u[:, rank:].T, atol=1e-12)

        states = pure_states(t.algebra)
        # the last coordinate acts as zero: distances to it are infinite,
        # witnessed by a kernel element with a positive objective
        r = solver.distance(states[0], states[-1], 1e-7)
        assert r.status == "infinite" and math.isinf(r.upper)
        assert op_norm(t.commutator_with_dirac(r.optimizer)) <= 1e-12
        assert r.lower == pytest.approx(
            (states[0](r.optimizer) - states[-1](r.optimizer)).real, abs=1e-12)
        assert r.lower > 0
        if h == 2:
            r = solver.distance(states[0], states[1], 1e-7)
            assert r.status == "finite" and r.lower == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("name", ["lattice-6", "theorem-1", "amplified", "coordinate",
                                      "zero-dirac", "odd-lattice"])
    def test_union_support_matches_the_dense_commutator_map(self, name, generators):
        # the set-up forms [D, pi(b_j)] on the union support of the unit
        # commutators and takes the SVD of those columns only; against the
        # dense map: every other column is zero, the ranks are equal and the
        # range projectors agree
        t = {"lattice-6": lambda: product(two_point(2.0), two_sheeted_line(6)),
             "theorem-1": lambda: product(random_triple(3, (1, 2)), random_triple(4, (2,))),
             "amplified": lambda: product(two_point(1.5), amplified_two_point(0.7)),
             "coordinate": lambda: coordinate_triple(9, 2, lam=3.0),
             "zero-dirac": lambda: SpectralTriple(Representation.defining(C2), np.zeros((2, 2))),
             "odd-lattice": lambda: random_triple(5, (1, 1, 2), even=False)}[name]()
        k, h = t.algebra.selfadjoint_dim, t.hilbert_dim
        P = hermitian_basis(t.algebra) @ t.rep.units.reshape(k, -1)
        L = np.stack([t.dirac @ p - p @ t.dirac for p in P.reshape(k, h, h)]).reshape(k, -1)
        pos, C = _unit_commutators(t.dirac, t.rep.units)
        dense_C = np.stack([t.dirac @ u - u @ t.dirac for u in t.rep.units]).reshape(k, -1)
        assert np.allclose(C, dense_C[:, pos], rtol=0, atol=1e-14 * max(1.0, np.abs(L).max()))
        assert not np.delete(dense_C, pos, axis=1).any()
        flat = np.concatenate([L.real, L.imag, np.zeros((k, k))], axis=1)
        s = np.linalg.svd(flat, compute_uv=False)
        rank = int(np.sum(s > KERNEL_SVD_TOL * s[0])) if s[0] > 0 else 0
        solver = DistanceSolver(t)
        assert solver.range_basis.shape == (k, rank)
        u = np.linalg.svd(flat)[0][:, :rank]
        assert np.allclose(solver.range_basis @ solver.range_basis.T, u @ u.T, rtol=0, atol=1e-13)
        # and the reduced generators are the range directions of i L,
        # Hermitian; at rank 0 there are none, and no norm ball is built
        if rank == 0:
            assert solver.ball is None
            return
        H = generators(t)
        want = 1j * (solver.range_basis.T @ L).reshape(rank, h, h)
        assert np.allclose(H, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max(initial=0.0)))

    def test_strided_unit_images(self):
        # Representation keeps a strided complex `units` array as given; the
        # set-up reads its entries through a contiguous copy
        t = product(two_point(2.0), amplified_two_point(1.0))
        buf = np.zeros(2 * t.rep.units.size, dtype=complex)
        buf[::2] = t.rep.units.ravel()
        rep = Representation(t.algebra, t.hilbert_dim, buf[::2].reshape(t.rep.units.shape))
        assert not rep.units.flags.c_contiguous
        strided = SpectralTriple(rep, t.dirac, t.grading)
        phi, phi2 = product_states_pm(t, PLUS, PLUS), product_states_pm(t, MINUS, PLUS)
        assert (spectral_distance(strided, phi, phi2).lower
                == spectral_distance(t, phi, phi2).lower)

    def test_lattice_n15_ranks(self):
        # the benchmark's lattice-n15 triple: full-rank commutator map
        solver = DistanceSolver(product(two_point(2.0), two_sheeted_line(15)))
        assert solver.range_basis.shape == (30, 30)
        assert solver.kernel_basis.shape == (30, 0)

    def test_lattice_n25_product_ranks(self):
        # 50 blocks on h = 100: the largest product representation in the suite
        t = product(two_point(2.0), two_sheeted_line(25))
        assert (len(t.algebra.blocks), t.hilbert_dim) == (50, 100)
        assert t.rep.faithful and not t.rep.is_unital
        solver = DistanceSolver(t)
        assert solver.range_basis.shape == (50, 50)
        assert solver.kernel_basis.shape == (50, 0)

    def test_lattice_n25_pure_state_solve(self):
        # the two-sheeted lattice bound d <= 1 at n = 25 (k = 50, h = 100)
        t = product(two_point(2.0), two_sheeted_line(25))
        deltas = pure_states(t.algebra.factors[1])
        tol = 1e-5
        r = spectral_distance(t, product_state(PLUS, deltas[3], t.algebra),
                              product_state(MINUS, deltas[17], t.algebra), tol)
        assert r.status == "finite" and r.upper <= 1.0 + tol


class TestDistanceMatrix:
    def test_two_point_matrix(self):
        lam = 2.5
        m = distance_matrix(two_point(lam), [PLUS, MINUS], 1e-7)
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0
        assert m[0, 1] == m[1, 0] == pytest.approx(lam, abs=1e-6)

    def test_repeated_state(self):
        m = distance_matrix(two_point(1.0), [PLUS, PLUS], 1e-7)
        assert np.array_equal(m, np.zeros((2, 2)))

    def test_lattice_matrix_triangle_and_w1_consistency(self):
        t = ncgp.lattice_line(5, 1.0)
        deltas = pure_states(t.algebra)
        tol = 1e-6
        m = distance_matrix(t, deltas, tol)
        assert np.allclose(m, m.T, atol=1e-12)
        n = 5
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, j] <= m[i, k] + m[k, j] + 2 * tol
        # the matrix is a metric, so W1 between Dirac measures on the induced
        # space must reproduce it exactly
        space = ncgp.FiniteMetricSpace(tuple(str(i) for i in range(n)),
                                       np.arange(n, dtype=float)[:, None], m)
        for i in range(n):
            for j in range(i + 1, n):
                res = ncgp.w1(space, ncgp.Measure.dirac(space, i),
                              ncgp.Measure.dirac(space, j))
                assert res.value == pytest.approx(m[i, j], abs=1e-9)

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            distance_matrix(two_point(1.0), [PLUS])


class TestTheoremOne:
    def test_sandwich_on_random_unital_products(self):
        rng = np.random.default_rng(2)
        tol = 1e-4
        for _ in range(20):
            t1 = random_triple(rng, (1, 1), even=True)
            t2 = random_triple(rng, (2,), even=bool(rng.integers(0, 2)))
            pt = product(t1, t2)
            phi1, phi1p = random_state(t1.algebra, rng), random_state(t1.algebra, rng)
            phi2, phi2p = random_state(t2.algebra, rng), random_state(t2.algebra, rng)
            r1 = spectral_distance(t1, phi1, phi1p, tol)
            r2 = spectral_distance(t2, phi2, phi2p, tol)
            r = spectral_distance(pt, product_state(phi1, phi2, pt.algebra),
                                  product_state(phi1p, phi2p, pt.algebra), tol)
            assert r.lower <= r1.upper + r2.upper + 3 * tol
            assert r.upper >= math.hypot(r1.lower, r2.lower) - 3 * tol
            assert r.lower <= math.sqrt(2) * math.hypot(r1.upper, r2.upper) + 3 * tol

    def test_upper_bounds_hold_without_unitality(self):
        # the triangle and sqrt(2) upper bounds need no unitality assumption
        rng = np.random.default_rng(7)
        tol = 1e-4
        for _ in range(10):
            t1 = random_triple(rng, (1, 1), unital=True, even=True)
            t2 = random_triple(rng, (1, 1), unital=False, even=bool(rng.integers(0, 2)))
            pt = product(t1, t2)
            phi1, phi1p = random_state(t1.algebra, rng), random_state(t1.algebra, rng)
            phi2, phi2p = random_state(t2.algebra, rng), random_state(t2.algebra, rng)
            r1 = spectral_distance(t1, phi1, phi1p, tol)
            r2 = spectral_distance(t2, phi2, phi2p, tol)
            r = spectral_distance(pt, product_state(phi1, phi2, pt.algebra),
                                  product_state(phi1p, phi2p, pt.algebra), tol)
            assert r.lower <= r1.upper + r2.upper + 3 * tol
            assert r.lower <= math.sqrt(2) * math.hypot(r1.upper, r2.upper) + 3 * tol

    def test_lower_bound_fails_for_nonunital_catalog_product(self):
        # d = mu on the two_point x amplified product sits strictly below
        # sqrt(lam^2 + mu^2): the lower Pythagoras bound needs unitality
        lam = mu = 1.0
        pt = product(two_point(lam), amplified_two_point(mu))
        phi = product_states_pm(pt, PLUS, PLUS)
        phi2 = product_states_pm(pt, MINUS, MINUS)
        r = spectral_distance(pt, phi, phi2, 1e-7)
        assert r.upper < math.hypot(lam, mu) - 0.4   # 1 << sqrt(2)

    def test_corollary_equal_second_states(self):
        rng = np.random.default_rng(3)
        tol = 1e-5
        for _ in range(10):
            t1 = random_triple(rng, (1, 1), even=True)
            t2 = random_triple(rng, (1, 1), even=True)
            pt = product(t1, t2)
            phi1, phi1p = random_state(t1.algebra, rng), random_state(t1.algebra, rng)
            phi2 = random_state(t2.algebra, rng)
            r1 = spectral_distance(t1, phi1, phi1p, tol)
            r = spectral_distance(pt, product_state(phi1, phi2, pt.algebra),
                                  product_state(phi1p, phi2, pt.algebra), tol)
            assert r.lower == pytest.approx(r1.lower, abs=3 * tol)

    @pytest.mark.parametrize("even", [True, False], ids=["even", "odd"])
    def test_factor_distance_matches_closed_form(self, even):
        # over C^2 a = a_2 1 + (a_1 - a_2) e_1 and pi(1) commutes with D, so
        # d(phi_p, phi_q) = |p - q| / g with g = ||[D, pi(e_1)]||; p - q
        # cancels, so the slack is in ulps of (p + q) / g, not relative to d
        eps = np.finfo(float).eps
        for seed in range(200):
            rng = np.random.default_rng(seed)
            t = random_triple(rng, (1, 1), unital=True, even=even)
            phi, phi2 = random_state(t.algebra, rng), random_state(t.algebra, rng)
            p, q = phi.densities[0][0, 0].real, phi2.densities[0][0, 0].real
            g = op_norm(t.commutator_with_dirac(t.algebra.diagonal_element([1.0, 0.0])))
            exact, slack = abs(p - q) / g, 16 * eps * (p + q) / g
            r = spectral_distance(t, phi, phi2, SWEEP_TOL)
            assert r.lower <= exact + slack, seed
            assert r.upper >= exact - slack, seed

    def test_sweep_factor_distances_match_closed_form(self, monkeypatch):
        # the theorem-1 sweep's own d1 and d2 on its C^2 factors, against the
        # closed form above instead of the solver under test
        solves = []

        def recorded(triple, phi, phi2, tol):
            r = spectral_distance(triple, phi, phi2, tol)
            solves.append((triple, phi, phi2, r))
            return r

        monkeypatch.setattr(ncgp.experiments, "spectral_distance", recorded)
        assert ncgp.experiments.sweep_theorem1(trials=24, seed=0).passed
        factors = [s for s in solves if s[0].algebra.blocks == (1, 1)]
        assert len(factors) >= 12
        for t, phi, phi2, r in factors:
            p, q = phi.densities[0][0, 0].real, phi2.densities[0][0, 0].real
            g = op_norm(t.commutator_with_dirac(t.algebra.diagonal_element([1.0, 0.0])))
            exact = abs(p - q) / g
            assert r.lower <= exact * (1 + 1e-12)
            assert exact <= r.upper * (1 + 1e-12)


class TestAscentOracle:
    def test_ascent_agrees_with_solver_on_catalog(self, generators):
        # the heuristic ascent is an independent lower-bound oracle
        pt = product(two_point(2.0), amplified_two_point(1.0))
        solver = DistanceSolver(pt)
        phi = product_states_pm(pt, PLUS, PLUS)
        phi2 = product_states_pm(pt, MINUS, PLUS)
        basis = [AlgebraElement(pt.algebra, row) for row in hermitian_basis(pt.algebra)]
        c = np.array([(phi(b) - phi2(b)).real for b in basis])
        c_red = solver.range_basis.T @ c
        val, y = ratio_ascent(c_red, generators(pt))
        r = solver.distance(phi, phi2, 1e-7)
        assert val <= r.upper + 1e-9
        assert val == pytest.approx(r.lower, abs=1e-4)


def test_distance_result_json():
    t = two_point(2.0)
    r = spectral_distance(t, PLUS, MINUS, 1e-7)
    obj = json.loads(json.dumps(distance_result_to_json(r)))
    assert obj["status"] == "finite"
    assert obj["lower"] == pytest.approx(2.0, abs=1e-6)
    assert obj["newton_steps"] == r.newton_steps > 0
    rinf = spectral_distance(ncgp.module_f_plus().as_spectral_triple(), PLUS, MINUS)
    assert distance_result_to_json(rinf)["upper"] == "inf"
    assert distance_result_to_json(rinf)["newton_steps"] == 0


def test_newton_steps_stay_under_a_ceiling():
    # loose centering (squared decrement <= CENTERING_TOL = 0.2 per mu) on
    # the 36 pairs (phi+ x delta_x, phi- x delta_y) of a two-sheeted lattice
    # product, k = 12, h = 24: 830 Newton steps in all and at most 25 per
    # solve when measured, against 1,392 and 41 when each mu was centered
    # to 1e-6
    pt = product(two_point(2.0), two_sheeted_line(6))
    solver = DistanceSolver(pt)
    deltas = pure_states(pt.algebra.factors[1])
    steps = []
    for dx in deltas:
        for dy in deltas:
            r = solver.distance(product_state(PLUS, dx, pt.algebra),
                                product_state(MINUS, dy, pt.algebra), 1e-6)
            assert r.status == "finite"
            steps.append(r.newton_steps)
    assert len(steps) == 36
    assert sum(steps) <= 880 and max(steps) <= 27


def test_distance_result_reports_the_solves_newton_steps(monkeypatch):
    solves = []

    def recorded(*args):
        solves.append(maximize_over_unit_ball(*args))
        return solves[-1]

    monkeypatch.setattr(ncgp.distance, "maximize_over_unit_ball", recorded)
    pt = product(two_point(2.0), two_sheeted_line(4))
    deltas = pure_states(pt.algebra.factors[1])
    solver = DistanceSolver(pt)
    r = solver.distance(product_state(PLUS, deltas[0], pt.algebra),
                        product_state(MINUS, deltas[3], pt.algebra))
    assert len(solves) == 1 and r.newton_steps == solves[0].newton_steps > 0
    # no solve runs for infinite and zero-objective results
    plus = product_state(PLUS, deltas[1], pt.algebra)
    assert solver.distance(plus, plus).newton_steps == 0
    rinf = spectral_distance(ncgp.module_f_plus().as_spectral_triple(), PLUS, MINUS)
    assert rinf.is_infinite and rinf.newton_steps == 0
    assert len(solves) == 1
