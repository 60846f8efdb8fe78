"""Spectral triples: catalog constructions, the product, and its lemmas."""

import json

import numpy as np
import pytest

import ncgp
from ncgp.algebra import FiniteAlgebra, algebra_to_json, random_state, slice_map, tensor_element
from ncgp.experiments import random_triple
from ncgp.linalg import commutator, op_norm, tensor
from ncgp.triples import (
    SpectralTriple,
    amplified_two_point,
    amplify,
    lattice_line,
    product,
    triple_from_json,
    triple_to_json,
    two_point,
    two_sheeted_line,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestTwoPoint:
    def test_dirac_at_unit_scale(self):
        t = two_point(1.0)
        assert np.array_equal(t.dirac, SIGMA_X)
        assert np.array_equal(t.grading, np.diag([1.0, -1.0]))

    def test_grading_axioms_hold(self):
        t = two_point(0.7)
        g = t.grading
        assert np.abs(g @ g - np.eye(2)).max() < 1e-14
        assert np.abs(g @ t.dirac + t.dirac @ g).max() < 1e-14

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            two_point(0.0)
        with pytest.raises(ValueError):
            two_point(-1.0)


class TestAmplifiedTwoPoint:
    def test_matrices_match_catalog(self):
        t = amplified_two_point(2.0)      # D2 = F2 at mu = 2
        f2 = np.zeros((4, 4))
        f2[0, 2] = f2[1, 3] = f2[2, 0] = f2[3, 1] = 1.0
        assert np.array_equal(t.dirac, f2)
        assert np.array_equal(t.grading, np.diag([1.0, 1.0, -1.0, -1.0]))
        pi = t.rep.apply(t.algebra.diagonal_element([3.0, 5.0]))
        assert np.array_equal(pi, np.diag([3.0, 5.0, 0.0, 0.0]).astype(complex))

    def test_commutator_norm_formula(self):
        rng = np.random.default_rng(0)
        for mu in (0.5, 1.0, 2.0):
            t = amplified_two_point(mu)
            for _ in range(20):
                a, b = rng.normal(size=2)
                elem = t.algebra.diagonal_element([a, b])
                got = op_norm(t.commutator_with_dirac(elem))
                assert got == pytest.approx(2.0 / mu * max(abs(a), abs(b)), rel=1e-12)

    def test_unit_case(self):
        t = amplified_two_point(1.0)
        elem = t.algebra.diagonal_element([1.0, 0.0])
        assert op_norm(t.commutator_with_dirac(elem)) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            amplified_two_point(0.0)


class TestAmplify:
    def test_rank_one_module_over_c(self):
        base = SpectralTriple(
            ncgp.Representation.defining(FiniteAlgebra((1,))),
            np.zeros((1, 1)), np.eye(1))
        amp = amplify(base)
        assert np.array_equal(amp.dirac, SIGMA_X)
        assert np.array_equal(amp.grading, np.diag([1.0, -1.0]))
        pi = amp.rep.apply(amp.algebra.element([np.array([[2.0]])]))
        assert np.array_equal(pi, np.diag([2.0, 0.0]).astype(complex))
        assert not amp.is_unital

    def test_amplified_two_point_is_an_amplification(self):
        base = SpectralTriple(
            ncgp.Representation.defining(FiniteAlgebra((1, 1))),
            np.zeros((2, 2)), np.eye(2))
        amp = amplify(base)
        want = amplified_two_point(2.0)   # scale 2/mu = 1
        assert np.array_equal(amp.dirac, want.dirac)
        assert np.array_equal(amp.grading, want.grading)

    def test_amplify_kills_unitality(self):
        assert two_point(1.0).is_unital
        assert not amplify(two_point(1.0)).is_unital

    def test_amplified_lattice_is_two_sheeted(self):
        n, h = 5, 0.5
        amp = amplify(lattice_line(n, h))
        two = two_sheeted_line(n, h)
        assert np.array_equal(2.0 * amp.dirac, two.dirac)
        assert amp.grading is None and two.grading is None


AMPLIFIED = {"two_point(3)": lambda: two_point(3.0),
             "lattice_line(5)": lambda: lattice_line(5),
             "amplified_two_point(0.7)": lambda: amplified_two_point(0.7),
             "two_sheeted_line(6)": lambda: two_sheeted_line(6),
             **{f"random_triple({blocks}, unital={unital}, even={even})":
                (lambda blocks=blocks, unital=unital, even=even:
                 random_triple(3, blocks, unital=unital, even=even))
                for blocks in ((1, 1), (2,), (2, 1)) for unital in (True, False)
                for even in (True, False)}}


@pytest.mark.parametrize("name", AMPLIFIED)
def test_amplify_matches_np_block(name, np_block_diag):
    # D' = [[D, 1], [1, -D]], gamma' = gamma (+) -gamma and pi' = pi (+) 0, byte
    # for byte: the -0.0 entries of -D and -gamma stay -0.0
    t = AMPLIFIED[name]()
    amp = amplify(t)
    eye = np.eye(t.hilbert_dim)
    assert amp.dirac.tobytes() == np.block([[t.dirac, eye], [eye, -t.dirac]]).tobytes()
    if t.grading is None:
        assert amp.grading is None
    else:
        assert amp.grading.tobytes() == np_block_diag(t.grading, -t.grading).tobytes()
    zero = np.zeros_like(t.rep.units)
    assert amp.rep.units.tobytes() == np_block_diag(t.rep.units, zero).tobytes()


class TestProduct:
    def test_eight_by_eight_block_form(self):
        lam, mu = 0.5, 2.0
        pt = product(two_point(lam), amplified_two_point(mu))
        d2 = amplified_two_point(mu).dirac
        want = np.zeros((8, 8), dtype=complex)
        want[:4, :4] = d2
        want[4:, 4:] = -d2
        want[:4, 4:] = np.eye(4) / lam
        want[4:, :4] = np.eye(4) / lam
        assert np.allclose(pt.dirac, want, atol=1e-15)
        a = pt.algebra.diagonal_element([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(pt.rep.apply(a),
                              np.diag([1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0]).astype(complex))

    def test_requires_graded_first_factor(self):
        with pytest.raises(ValueError):
            product(lattice_line(3), two_point(1.0))

    def test_block_assembly_oracle_for_lattice_product(self):
        lam, n, h = 2.0, 4, 1.0
        t2 = lattice_line(n, h)
        pt = product(two_point(lam), t2)
        # assemble by explicit block placement instead of Kronecker products
        want = np.zeros((2 * n, 2 * n), dtype=complex)
        want[:n, :n] = t2.dirac
        want[n:, n:] = -t2.dirac
        want[:n, n:] = np.eye(n) / lam
        want[n:, :n] = np.eye(n) / lam
        assert np.allclose(pt.dirac, want, atol=1e-15)

    def test_trivial_second_factor_preserves_distance(self):
        one_point = SpectralTriple(
            ncgp.Representation.defining(FiniteAlgebra((1,))), np.zeros((1, 1)))
        t = two_point(1.5)
        pt = product(t, one_point)
        plus, minus = ncgp.pure_states(t.algebra)
        chi = ncgp.pure_states(one_point.algebra)[0]
        r0 = ncgp.spectral_distance(t, plus, minus, 1e-7)
        r1 = ncgp.spectral_distance(pt, ncgp.product_state(plus, chi, pt.algebra),
                                    ncgp.product_state(minus, chi, pt.algebra), 1e-7)
        assert r1.lower == pytest.approx(r0.lower, abs=1e-6)

    def test_product_grading_when_both_even(self):
        pt = product(two_point(1.0), amplified_two_point(1.0))
        g = pt.grading
        assert g is not None
        assert np.abs(g @ pt.dirac + pt.dirac @ g).max() < 1e-12


class TestUnitality:
    def test_catalog(self):
        assert two_point(2.0).is_unital
        assert not amplified_two_point(1.0).is_unital
        assert not ncgp.module_f_plus().is_unital


class TestLatticeLine:
    def test_entries_and_hermiticity(self):
        h = 0.25
        t = lattice_line(4, h)
        d = t.dirac
        assert d[0, 1] == pytest.approx(-1j / (4 * h))
        assert d[1, 0] == pytest.approx(1j / (4 * h))
        assert np.abs(d - d.conj().T).max() < 1e-15
        assert np.abs(np.diag(d)).max() == 0.0

    def test_spectrum_symmetric(self):
        t = lattice_line(3, 1.0)
        alt = np.diag([1.0, -1.0, 1.0])
        assert np.abs(alt @ t.dirac + t.dirac @ alt).max() < 1e-15
        w = np.linalg.eigvalsh(t.dirac)
        assert np.allclose(w, -w[::-1], atol=1e-12)

    def test_rejects_small_or_degenerate(self):
        with pytest.raises(ValueError):
            lattice_line(2)
        with pytest.raises(ValueError):
            lattice_line(5, 0.0)

    def test_dirac_state_distance_dominates_grid_metric(self):
        # discrete Lipschitz constants are below the continuum one, so the
        # spectral distance must dominate the Euclidean grid distance
        n, h = 4, 0.5
        t = lattice_line(n, h)
        deltas = ncgp.pure_states(t.algebra)
        for i in range(n):
            for j in range(i + 1, n):
                r = ncgp.spectral_distance(t, deltas[i], deltas[j], 1e-6)
                assert r.lower >= h * abs(i - j) - 1e-6


class TestTripleInvariants:
    def test_rejects_non_hermitian_dirac(self):
        rep = ncgp.Representation.defining(C2 := FiniteAlgebra((1, 1)))
        with pytest.raises(ValueError):
            SpectralTriple(rep, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_grading(self):
        rep = ncgp.Representation.defining(FiniteAlgebra((1, 1)))
        with pytest.raises(ValueError):
            SpectralTriple(rep, SIGMA_X, np.diag([1.0, 2.0]))
        # grading must anticommute with D
        with pytest.raises(ValueError):
            SpectralTriple(rep, np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))

    def test_rejects_grading_not_commuting_with_algebra(self):
        rep = ncgp.Representation.defining(FiniteAlgebra((2,)))
        with pytest.raises(ValueError):
            SpectralTriple(rep, np.zeros((2, 2)), np.diag([1.0, -1.0]))

    def test_scaled(self):
        t = two_point(1.0)
        assert np.array_equal(t.scaled(0.5).dirac, t.dirac / 2.0)


class TestProductLemmas:
    def test_norm_pythagoras(self):
        # || [D, a1 x 1 + 1 x a2] ||^2 = || [D1, a1] ||^2 + || [D2, a2] ||^2
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(500):
            t1 = random_triple(rng, (1, 1), even=True)
            t2 = random_triple(rng, (1, 1), even=bool(rng.integers(0, 2)))
            a1 = t1.algebra.diagonal_element(rng.normal(size=2))
            a2 = t2.algebra.diagonal_element(rng.normal(size=2))
            c1 = t1.commutator_with_dirac(a1)
            c2 = t2.commutator_with_dirac(a2)
            full = tensor(c1, np.eye(t2.hilbert_dim)) + tensor(t1.grading, c2)
            lhs = op_norm(full) ** 2
            rhs = op_norm(c1) ** 2 + op_norm(c2) ** 2
            worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
        assert worst < 1e-9

    def test_norm_pythagoras_via_unital_algebra_elements(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t1 = random_triple(rng, (2,), even=True)
            t2 = random_triple(rng, (1, 1), even=True)
            pt = product(t1, t2)
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a1 = t1.algebra.element([(raw + raw.conj().T) / 2])
            a2 = t2.algebra.diagonal_element(rng.normal(size=2))
            a = tensor_element(a1, t2.algebra.unit(), pt.algebra) \
                + tensor_element(t1.algebra.unit(), a2, pt.algebra)
            lhs = op_norm(pt.commutator_with_dirac(a)) ** 2
            rhs = op_norm(t1.commutator_with_dirac(a1)) ** 2 \
                + op_norm(t2.commutator_with_dirac(a2)) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    def test_slice_contraction(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            t1 = random_triple(rng, (1, 1), even=True)
            t2 = random_triple(rng, (1, 1), even=False)
            pt = product(t1, t2)
            x = rng.normal(size=pt.algebra.selfadjoint_dim)
            a = ncgp.element_from_coordinates(pt.algebra, x)
            phi2 = random_state(t2.algebra, rng)
            phi1 = random_state(t1.algebra, rng)
            a1 = slice_map(a, phi2, "right")
            a2 = slice_map(a, phi1, "left")
            big = pt.rep.apply(a)
            d1_part = commutator(tensor(t1.dirac, np.eye(t2.hilbert_dim)), big)
            d2_part = commutator(tensor(t1.grading, t2.dirac), big)
            assert op_norm(t1.commutator_with_dirac(a1)) <= op_norm(d1_part) + 1e-10
            assert op_norm(t2.commutator_with_dirac(a2)) <= op_norm(d2_part) + 1e-10
            # commutator corollary: both partial norms below the full one
            full = pt.commutator_with_dirac(a)
            assert max(op_norm(d1_part), op_norm(d2_part)) <= op_norm(full) + 1e-10


def test_triple_json_round_trip():
    for t in (two_point(1.5), amplified_two_point(0.5), lattice_line(3, 2.0)):
        back = triple_from_json(json.loads(json.dumps(triple_to_json(t))))
        assert np.array_equal(back.dirac, t.dirac)
        if t.grading is None:
            assert back.grading is None
        else:
            assert np.array_equal(back.grading, t.grading)
        assert back.algebra == t.algebra


def _foreign_algebra_json():
    obj = triple_to_json(two_point(1.0))
    obj["algebra"] = algebra_to_json(FiniteAlgebra((1, 1, 1)))
    return obj


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: ncgp.SpectralTriple(ncgp.Representation.defining(FiniteAlgebra((1, 1))),
                                             np.zeros((3, 3))),
                 r"Dirac operator shape \(3, 3\) does not match hilbert_dim 2",
                 id="dirac-wrong-shape"),
    pytest.param(lambda: triple_from_json(_foreign_algebra_json()),
                 "triple algebra does not match its representation",
                 id="triple_from_json-foreign-algebra"),
])
def test_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()
