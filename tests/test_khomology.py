"""Fredholm modules and the Chern-Connes index pairing."""

import numpy as np
import pytest

import ncgp
from ncgp.algebra import FiniteAlgebra, State
from ncgp.khomology import (
    FredholmModule,
    Projection,
    chern_pairing,
    conjugate,
    direct_sum,
    fredholm_from_dirac,
    generator_module,
    module_f1,
    module_f2,
    module_f_minus,
    module_f_plus,
    pairing_vector,
    pullback_module,
)
from ncgp.triples import two_point

C2 = FiniteAlgebra((1, 1))


class TestGeneratorOverC:
    def test_rank_pairing(self):
        gen = generator_module()
        unit = Projection.from_element(gen.algebra.unit())
        assert chern_pairing(gen, unit) == pytest.approx(1.0, abs=1e-12)

    def test_zero_projection(self):
        gen = generator_module()
        zero = Projection.from_element(gen.algebra.zero())
        assert chern_pairing(gen, zero) == pytest.approx(0.0, abs=1e-14)

    def test_rank_of_matrix_projection(self):
        # rank-one projection in M_2(C) pairs to 1; the identity of M_2 to 2
        gen = generator_module()
        alg = gen.algebra
        half = alg.element([np.array([[0.5]])])
        p = Projection(2, ((half, half), (half, half)))
        assert chern_pairing(gen, p) == pytest.approx(1.0, abs=1e-10)
        unit, zero = alg.unit(), alg.zero()
        p2 = Projection(2, ((unit, zero), (zero, unit)))
        assert chern_pairing(gen, p2) == pytest.approx(2.0, abs=1e-10)


class TestC2Catalog:
    def test_pullbacks_pair_as_kronecker_delta(self):
        assert pairing_vector(module_f_plus()) == (1, 0)
        assert pairing_vector(module_f_minus()) == (0, 1)

    def test_two_point_class(self):
        assert pairing_vector(module_f1()) == (1, -1)

    def test_amplified_class(self):
        assert pairing_vector(module_f2()) == (1, 1)

    def test_unital_module_kills_unit_projection(self):
        # for the unital representation of F1, pairing with p = 1 vanishes
        p = Projection.from_element(C2.unit())
        assert chern_pairing(module_f1(), p) == pytest.approx(0.0, abs=1e-12)

    def test_direct_sum_additivity(self):
        summed = direct_sum(module_f_plus(), module_f_minus())
        assert pairing_vector(summed) == (1, 1) == pairing_vector(module_f2())

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(0)
        for mod in (module_f1(), module_f2()):
            h = mod.rep.hilbert_dim
            u = np.eye(h)[rng.permutation(h)].astype(complex)
            assert pairing_vector(conjugate(mod, u)) == pairing_vector(mod)

    def test_pairing_vector_needs_c2(self):
        with pytest.raises(ValueError):
            pairing_vector(generator_module())


class TestPullback:
    def test_character_validation(self):
        mixed = State(C2, (np.array([[0.5]]), np.array([[0.5]])))
        with pytest.raises(ValueError):
            pullback_module(C2, mixed)

    def test_matrix_block_state_is_not_a_character(self):
        alg = FiniteAlgebra((2,))
        phi = State(alg, (np.eye(2) / 2.0,))
        with pytest.raises(ValueError):
            pullback_module(alg, phi)

    def test_characters_are_evaluations_at_size_one_blocks(self):
        alg = FiniteAlgebra((2, 1))
        split = State(alg, (np.eye(2) / 4.0, np.array([[0.5]])))
        with pytest.raises(ValueError, match="not multiplicative"):
            pullback_module(alg, split)
        chi = State(alg, (np.zeros((2, 2)), np.array([[1.0]])))
        rep = pullback_module(alg, chi).rep
        rng = np.random.default_rng(12)
        a = alg.element([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                         rng.normal(size=(1, 1))])
        assert np.array_equal(rep.apply(a), np.diag([chi(a), 0.0]))

    def test_pullback_representation_has_kernel(self):
        mod = module_f_plus()
        assert not mod.rep.faithful
        killed = C2.diagonal_element([0.0, 1.0])
        assert np.abs(mod.rep.apply(killed)).max() == 0.0


class TestNormalization:
    def test_sign_rounding_recovers_f1(self):
        for lam in (0.5, 1.0, 4.0):
            mod = fredholm_from_dirac(two_point(lam))
            assert np.allclose(mod.f_op, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
            assert np.abs(mod.f_op @ mod.f_op - np.eye(2)).max() < 1e-12

    def test_rejects_singular_dirac(self):
        rep = ncgp.Representation.defining(C2)
        t = ncgp.SpectralTriple(rep, np.zeros((2, 2)), np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="invertible"):
            fredholm_from_dirac(t)

    @pytest.mark.parametrize("lam", [1e12, 1e13])
    def test_small_dirac_is_invertible(self, lam):
        # the invertibility test is relative to ||D||: D = sigma_x / lam is
        # invertible however small lam makes it, and sign(D) is scale free
        assert pairing_vector(fredholm_from_dirac(two_point(lam))) == (1, -1)

    def test_requires_even_triple(self):
        with pytest.raises(ValueError):
            fredholm_from_dirac(ncgp.lattice_line(3))


class TestModuleValidation:
    def test_f_squared_must_be_identity(self):
        rep = ncgp.Representation.defining(C2)
        with pytest.raises(ValueError):
            FredholmModule(rep, 2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.diag([1.0, -1.0]))

    def test_grading_must_anticommute(self):
        rep = ncgp.Representation.defining(C2)
        with pytest.raises(ValueError):
            FredholmModule(rep, np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))

    def test_grading_is_required(self):
        rep = ncgp.Representation.defining(C2)
        with pytest.raises(ValueError):
            FredholmModule(rep, np.array([[0.0, 1.0], [1.0, 0.0]]), None)

    def test_projection_must_be_idempotent(self):
        with pytest.raises(ValueError):
            Projection.from_element(C2.diagonal_element([0.5, 0.0]))
        with pytest.raises(ValueError):
            Projection.from_element(C2.diagonal_element([1.0, 1.0 + 1e-6]))

    def test_pairing_rejects_foreign_projection(self):
        p = Projection.from_element(FiniteAlgebra((1, 1, 1)).unit())
        with pytest.raises(ValueError):
            chern_pairing(module_f1(), p)


def test_pairings_are_integers_within_tolerance():
    for mod in (module_f_plus(), module_f_minus(), module_f1(), module_f2()):
        for coords in ((1.0, 0.0), (0.0, 1.0)):
            p = Projection.from_element(C2.diagonal_element(coords))
            v = chern_pairing(mod, p)
            assert abs(v - round(v)) < 1e-8
