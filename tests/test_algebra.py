"""Algebras, representations, elements, states and slice maps."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgp.algebra import (
    AlgebraElement,
    FiniteAlgebra,
    Representation,
    State,
    algebra_from_json,
    algebra_to_json,
    element_from_coordinates,
    hermitian_basis,
    product_state,
    pure_states,
    random_state,
    representation_from_json,
    representation_to_json,
    slice_map,
    state_from_json,
    state_to_json,
    tensor_element,
)
from ncgp.experiments import random_triple
from ncgp.tolerances import STRUCT_TOL
from ncgp.triples import product

C2 = FiniteAlgebra((1, 1))


def test_algebra_validation():
    assert C2.selfadjoint_dim == 2
    assert FiniteAlgebra((2, 3)).selfadjoint_dim == 13
    with pytest.raises(ValueError):
        FiniteAlgebra(())
    with pytest.raises(ValueError):
        FiniteAlgebra((0,))
    # sizes are refused, not truncated, unless integral
    with pytest.raises(ValueError, match="block size must be an integer"):
        FiniteAlgebra((1.9, 1.2))
    assert FiniteAlgebra((2.0, 1.0)).blocks == (2, 1)
    units = Representation.defining(C2).units
    with pytest.raises(ValueError, match="hilbert_dim must be an integer"):
        Representation(C2, 2.7, units)
    assert Representation(C2, 2.0, units).hilbert_dim == 2


class TestEval:
    def test_pure_state_picks_coordinate(self):
        plus, _ = pure_states(C2)
        assert plus(C2.diagonal_element([3.0, 5.0])) == pytest.approx(3.0)

    def test_lambda_state_on_two_points(self):
        # the mixture lam*f(1) + (1-lam)*f(0), evaluated on the indicator of 1
        lam = 0.3
        phi = State(C2, (np.array([[1.0 - lam]]), np.array([[lam]])))
        indicator = C2.diagonal_element([0.0, 1.0])
        assert phi(indicator) == pytest.approx(lam, abs=1e-15)

    def test_maximally_mixed_is_normalized(self):
        alg = FiniteAlgebra((2,))
        phi = State(alg, (np.eye(2) / 2.0,))
        assert phi(alg.unit()) == pytest.approx(1.0, abs=1e-15)

    def test_algebra_mismatch(self):
        plus, _ = pure_states(C2)
        other = FiniteAlgebra((1, 1, 1))
        with pytest.raises(ValueError):
            plus(other.unit())

    def test_real_on_selfadjoint(self):
        rng = np.random.default_rng(0)
        alg = FiniteAlgebra((2, 1))
        phi = random_state(alg, rng)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = alg.element([(raw + raw.conj().T) / 2, np.array([[1.5]])])
        assert abs(phi(a).imag) < 1e-14


class TestProductState:
    def test_pure_times_pure_picks_corner(self):
        plus, minus = pure_states(C2)
        prod = C2.tensor(C2)
        a = prod.diagonal_element([1.0, 2.0, 3.0, 4.0])
        assert product_state(plus, plus, prod)(a) == pytest.approx(1.0)
        assert product_state(minus, minus, prod)(a) == pytest.approx(4.0)
        assert product_state(minus, plus, prod)(a) == pytest.approx(3.0)

    def test_unit_second_factor(self):
        rng = np.random.default_rng(1)
        alg1 = FiniteAlgebra((2,))
        mixed = random_state(alg1, rng)
        plus, _ = pure_states(C2)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a1 = alg1.element([(raw + raw.conj().T) / 2])
        big = tensor_element(a1, C2.unit())
        assert product_state(mixed, plus)(big) == pytest.approx(mixed(a1), abs=1e-12)

    def test_factorization_property(self):
        rng = np.random.default_rng(2)
        alg1, alg2 = FiniteAlgebra((2,)), FiniteAlgebra((1, 2))
        prod = alg1.tensor(alg2)
        for _ in range(1000):
            phi1, phi2 = random_state(alg1, rng), random_state(alg2, rng)
            a1 = alg1.element([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))])
            a2 = alg2.element([rng.normal(size=(1, 1)),
                               rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))])
            lhs = product_state(phi1, phi2, prod)(tensor_element(a1, a2, prod))
            rhs = phi1(a1) * phi2(a2)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestSliceMap:
    def test_slice_of_simple_tensor(self):
        rng = np.random.default_rng(3)
        alg1 = FiniteAlgebra((2,))
        a1 = alg1.element([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))])
        big = tensor_element(a1, C2.unit())
        for phi in pure_states(C2):
            sliced = slice_map(big, phi, "right")
            assert np.allclose(sliced.blocks[0], a1.blocks[0], atol=1e-14)

    def test_slice_weights_by_state(self):
        plus, minus = pure_states(C2)
        e1 = C2.diagonal_element([1.0, 0.0])
        e2 = C2.diagonal_element([0.0, 1.0])
        big = tensor_element(e1, e2)
        sliced = slice_map(big, minus, "right")
        assert np.allclose(sliced.blocks[0], [[1.0]]) and np.allclose(sliced.blocks[1], [[0.0]])
        assert np.allclose(slice_map(big, plus, "right").blocks[0], [[0.0]])

    def test_decomposition_independence(self):
        # same element assembled from two different sums of simple tensors
        rng = np.random.default_rng(4)
        prod = C2.tensor(C2)
        x = C2.diagonal_element(rng.normal(size=2))
        y = C2.diagonal_element(rng.normal(size=2))
        u = C2.unit()
        # x (x) 1 + 1 (x) y  ==  (x - 1) (x) 1 + 1 (x) (y + 1)
        a = tensor_element(x, u, prod) + tensor_element(u, y, prod)
        b = tensor_element(x - u, u, prod) + tensor_element(u, y + u, prod)
        for blk_a, blk_b in zip(a.blocks, b.blocks):
            assert np.allclose(blk_a, blk_b, atol=1e-14)
        phi = random_state(C2, rng)
        for side in ("left", "right"):
            sa, sb = slice_map(a, phi, side), slice_map(b, phi, side)
            for blk_a, blk_b in zip(sa.blocks, sb.blocks):
                assert np.abs(blk_a - blk_b).max() < 1e-12

    def test_mirrored_slice(self):
        rng = np.random.default_rng(5)
        alg1, alg2 = FiniteAlgebra((2,)), FiniteAlgebra((1, 1))
        prod = alg1.tensor(alg2)
        a1 = alg1.element([rng.normal(size=(2, 2))])
        a2 = alg2.diagonal_element(rng.normal(size=2))
        big = tensor_element(a1, a2, prod)
        phi1 = random_state(alg1, rng)
        sliced = slice_map(big, phi1, "left")
        want = phi1(a1)
        for blk, blk2 in zip(sliced.blocks, a2.blocks):
            assert np.allclose(blk, want * blk2, atol=1e-12)

    def test_requires_factorization(self):
        phi = pure_states(C2)[0]
        with pytest.raises(ValueError):
            slice_map(C2.unit(), phi, "right")
        prod = C2.tensor(C2)
        with pytest.raises(ValueError):
            slice_map(prod.unit(), phi, "sideways")


def _random_element(alg, rng):
    return alg.element([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                        for n in alg.blocks])


def _rotated(rep, rng):
    """u pi u* for a random unitary u: dense complex images of the matrix units."""
    h = rep.hilbert_dim
    u = np.linalg.qr(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)))[0]
    return Representation(rep.algebra, h, u @ rep.units @ u.conj().T)


class TestProductLayoutOracle:
    """The product layout against the block-pair formulas it replaced, written
    out here: product block (i, j) is kron(x_i, y_j), and the slice maps sum
    the einsum contraction of each block pair."""

    CASES = [pytest.param((2, 1), (1, 2), id="(2,1)x(1,2)"),
             pytest.param((3,), (2, 1), id="(3)x(2,1)")]

    @pytest.mark.parametrize("blocks1,blocks2", CASES)
    def test_outer_order_is_a_permutation(self, blocks1, blocks2):
        alg1, alg2 = FiniteAlgebra(blocks1), FiniteAlgebra(blocks2)
        order = alg1.tensor(alg2).outer_order
        n = alg1.selfadjoint_dim * alg2.selfadjoint_dim
        assert np.array_equal(np.sort(order), np.arange(n))

    @pytest.mark.parametrize("blocks1,blocks2", CASES)
    def test_elements_and_states_match_block_krons(self, blocks1, blocks2):
        rng = np.random.default_rng(sum(blocks1) * 10 + sum(blocks2))
        alg1, alg2 = FiniteAlgebra(blocks1), FiniteAlgebra(blocks2)
        a, b = _random_element(alg1, rng), _random_element(alg2, rng)
        want = [np.kron(x, y) for x in a.blocks for y in b.blocks]
        got = tensor_element(a, b).blocks
        assert len(got) == len(want) and all(map(np.array_equal, got, want))
        phi1, phi2 = random_state(alg1, rng), random_state(alg2, rng)
        want = [np.kron(r1, r2) for r1 in phi1.densities for r2 in phi2.densities]
        got = product_state(phi1, phi2).densities
        assert len(got) == len(want) and all(map(np.array_equal, got, want))

    @pytest.mark.parametrize("blocks1,blocks2", CASES)
    def test_representation_matches_block_einsum(self, blocks1, blocks2):
        rng = np.random.default_rng(sum(blocks1) * 10 + sum(blocks2) + 1)
        rep1 = _rotated(Representation.defining(FiniteAlgebra(blocks1)).padded(1), rng)
        rep2 = _rotated(Representation.defining(FiniteAlgebra(blocks2)).with_multiplicity(2), rng)
        h = rep1.hilbert_dim * rep2.hilbert_dim
        want = [np.einsum("ikpq,jlrs->ijklprqs", a1, a2).reshape(
            len(a1) * len(a2), len(a1) * len(a2), h, h)
            for a1 in rep1.basis_images for a2 in rep2.basis_images]
        got = rep1.tensor(rep2).basis_images
        assert len(got) == len(want) and all(map(np.array_equal, got, want))

    @pytest.mark.parametrize("blocks1,blocks2", CASES)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_slice_map_matches_block_einsum(self, blocks1, blocks2, side):
        rng = np.random.default_rng(sum(blocks1) * 10 + sum(blocks2) + 2)
        alg1, alg2 = FiniteAlgebra(blocks1), FiniteAlgebra(blocks2)
        a = _random_element(alg1.tensor(alg2), rng)
        phi = random_state(alg2 if side == "right" else alg1, rng)
        kept = alg1 if side == "right" else alg2
        want = [np.zeros((n, n), dtype=complex) for n in kept.blocks]
        for flat, mat in enumerate(a.blocks):
            i, j = divmod(flat, len(alg2.blocks))
            x = mat.reshape(alg1.blocks[i], alg2.blocks[j], alg1.blocks[i], alg2.blocks[j])
            if side == "right":
                want[i] += np.einsum("prqs,sr->pq", x, phi.densities[j])
            else:
                want[j] += np.einsum("prqs,qp->rs", x, phi.densities[i])
        got = slice_map(a, phi, side)
        assert got.algebra == kept
        for g, w in zip(got.blocks, want, strict=True):
            assert np.abs(g - w).max() <= 1e-14

    @pytest.mark.parametrize("blocks", [(1, 1), (2, 1)])
    def test_per_block_tuple_is_refused(self, blocks):
        rep = Representation.defining(FiniteAlgebra(blocks))
        images = tuple(np.array(arr) for arr in rep.basis_images)
        with pytest.raises(ValueError):
            Representation(rep.algebra, rep.hilbert_dim, images)


class TestPureStates:
    def test_c2(self):
        plus, minus = pure_states(C2)
        a = C2.diagonal_element([7.0, 9.0])
        assert plus(a) == pytest.approx(7.0)
        assert minus(a) == pytest.approx(9.0)

    def test_c1_and_c4(self):
        assert len(pure_states(FiniteAlgebra((1,)))) == 1
        states = pure_states(FiniteAlgebra((1, 1, 1, 1)))
        assert len(states) == 4
        a = FiniteAlgebra((1, 1, 1, 1)).diagonal_element([1.0, 2.0, 3.0, 4.0])
        assert [s(a).real for s in states] == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_noncommutative_unsupported(self):
        with pytest.raises(ValueError):
            pure_states(FiniteAlgebra((2,)))


class TestRepresentation:
    def test_defining_rep_is_star_multiplicative(self):
        rng = np.random.default_rng(6)
        alg = FiniteAlgebra((2, 1))
        rep = Representation.defining(alg)
        assert rep.faithful and rep.is_unital
        for _ in range(100):
            a = alg.element([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                             rng.normal(size=(1, 1))])
            b = alg.element([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                             rng.normal(size=(1, 1))])
            assert np.abs(rep.apply(a @ b) - rep.apply(a) @ rep.apply(b)).max() < 1e-12
            assert np.abs(rep.apply(a.adjoint()) - rep.apply(a).conj().T).max() < 1e-12

    def test_tensor_rep_matches_kron(self):
        rng = np.random.default_rng(7)
        alg1, alg2 = FiniteAlgebra((2,)), FiniteAlgebra((1, 1))
        rep = Representation.defining(alg1).tensor(Representation.defining(alg2))
        a1 = alg1.element([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))])
        a2 = alg2.diagonal_element(rng.normal(size=2))
        big = tensor_element(a1, a2)
        kron = np.kron(Representation.defining(alg1).apply(a1),
                       Representation.defining(alg2).apply(a2))
        assert np.abs(rep.apply(big) - kron).max() < 1e-12

    def test_padded_rep_not_unital_but_faithful(self):
        rep = Representation.defining(C2).padded(2)
        assert rep.faithful and not rep.is_unital

    def test_invalid_images_rejected(self):
        arr = np.zeros((1, 1, 2, 2), dtype=complex)
        arr[0, 0] = np.array([[1.0, 1.0], [0.0, 0.0]])  # not a projection image
        with pytest.raises(ValueError):
            Representation(FiniteAlgebra((1,)), 2, arr.reshape(1, 2, 2))

    def test_one_dimensional_block_not_idempotent_rejected(self):
        # pi(E_11) = diag(2, 0) is Hermitian, so star-compatible, but not a projection
        arr = np.zeros((1, 1, 2, 2), dtype=complex)
        arr[0, 0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="not multiplicative"):
            Representation(FiniteAlgebra((1,)), 2, arr.reshape(1, 2, 2))

    def test_image_not_adjoint_rejected(self):
        arr = Representation.defining(FiniteAlgebra((2,))).basis_images[0].copy()
        arr[0, 1] *= 2.0   # pi(E_12) is no longer pi(E_21)*
        with pytest.raises(ValueError, match="not \\*-compatible"):
            Representation(FiniteAlgebra((2,)), 2, arr.reshape(4, 2, 2))

    def test_overlapping_units_in_block_rejected(self):
        # pi(E_11) = |e1><e1|, pi(E_22) = |v><v| with <e1, v> != 0, and
        # pi(E_12) = |e1><v| = pi(E_21)*: star-compatible, not multiplicative
        e1, v = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)
        arr = np.array([[np.outer(e1, e1), np.outer(e1, v)],
                        [np.outer(v, e1), np.outer(v, v)]], dtype=complex)
        with pytest.raises(ValueError, match="not multiplicative"):
            Representation(FiniteAlgebra((2,)), 2, arr.reshape(4, 2, 2))

    def test_unit_missing_from_block_rejected(self):
        # pi(E_22) = 0 while pi(E_21) pi(E_12) = |e2><e2|: star-compatible and
        # E_1i E_j1 = delta_ij E_11 holds, but E_22 != E_21 E_12
        e1, e2 = np.eye(2)
        arr = np.array([[np.outer(e1, e1), np.outer(e1, e2)],
                        [np.outer(e2, e1), np.zeros((2, 2))]], dtype=complex)
        with pytest.raises(ValueError, match="not multiplicative"):
            Representation(FiniteAlgebra((2,)), 2, arr.reshape(4, 2, 2))

    def test_check_memory_stays_small_on_3x3_blocks(self):
        # one 9 x 9 block on h = 36: one (n^2 h) x (n^2 h) complex product
        # of its matrix-unit images would take 2916^2 x 16 bytes = 136 MB
        t1, t2 = random_triple(0, (3,)), random_triple(1, (3,), even=False)
        tracemalloc.start()
        try:
            pt = product(t1, t2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pt.algebra.blocks == (9,) and pt.hilbert_dim == 36
        assert peak < 32e6

    def test_units_hold_the_images_once(self):
        rng = np.random.default_rng(11)
        alg = FiniteAlgebra((2, 1))
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        base = Representation.defining(alg).padded(1)
        conj = Representation(alg, 4, u @ base.units @ u.conj().T)
        for rep in (conj, conj.tensor(Representation.defining(C2)), conj.with_multiplicity(2)):
            h = rep.hilbert_dim
            assert rep.units.shape == (rep.algebra.selfadjoint_dim, h, h)
            for arr in rep.basis_images:
                assert np.shares_memory(rep.units, arr)
            a = rep.algebra.element([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                                     for n in rep.algebra.blocks])
            # reference: pi(a) = sum_b sum_ij a_b[i, j] pi(E^b_ij), block by block
            want = sum(np.einsum("ij,ijpq->pq", m, arr)
                       for m, arr in zip(a.blocks, rep.basis_images))
            assert np.abs(rep.apply(a) - want).max() <= 1e-13

    @staticmethod
    def _two_projections(u, v):
        """C^2 on C^2 with its two coordinates sent to |u><u| and |v><v|."""
        units = np.array([np.outer(w, w.conj()) for w in (u, v)], dtype=complex)
        return Representation(C2, 2, units)

    def test_blocks_on_same_projection_rejected(self):
        e1 = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="distinct blocks"):
            self._two_projections(e1, e1)

    def test_blocks_with_slightly_overlapping_projections_rejected(self):
        eps = 1e-9
        e1, v = np.array([1.0, 0.0]), np.array([eps, np.sqrt(1.0 - eps * eps)])
        with pytest.raises(ValueError, match="distinct blocks"):
            self._two_projections(e1, v)
        rep = self._two_projections(e1, np.array([0.0, 1.0]))
        assert rep.faithful and rep.is_unital

    def test_degenerate_reps_accepted(self):
        alg = FiniteAlgebra((2, 1))
        padded = Representation.defining(alg).padded(3)
        assert padded.faithful and not padded.is_unital
        # the M_2 block acts on C^2, the C block as zero
        zero_block = Representation(
            alg, 2, np.concatenate([Representation.defining(FiniteAlgebra((2,))).units,
                                    np.zeros((1, 2, 2), dtype=complex)]))
        assert not zero_block.faithful and zero_block.is_unital


class TestState:
    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            State(C2, (np.array([[1.5]]), np.array([[-0.5]])))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            State(C2, (np.array([[0.6]]), np.array([[0.6]])))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            State(FiniteAlgebra((2,)), (np.array([[0.5, 0.3], [0.0, 0.5]]),))

    @pytest.mark.parametrize("blocks", [(1,) * 30, (2, 1, 3, 1, 2), (3, 2, 1, 1)])
    @pytest.mark.parametrize("defect,message", [
        ("non-Hermitian", "density matrix is not Hermitian"),
        ("negative", "density matrix is not positive semidefinite"),
        ("nan", "matrix has non-finite entries"),
        ("shape", "does not match block size"),
        ("ndim", "expected a matrix, got ndim=1"),
        ("trace", "densities must have total trace 1"),
    ])
    def test_one_defect_in_the_last_block(self, blocks, defect, message):
        # the blocks are checked in one stack per block size; a defect in the
        # last block still raises the message of its check
        alg = FiniteAlgebra(blocks)
        good = [np.eye(n, dtype=complex) / sum(blocks) for n in blocks]
        phi = State(alg, tuple(good))
        assert phi.total_trace == pytest.approx(1.0, abs=1e-15)
        n = blocks[-1]
        last = good[-1].copy()
        if defect == "non-Hermitian":
            last[0, -1] += 1e-6j if n == 1 else 1e-6
        elif defect == "negative":
            shift = last[0, 0].real + 1e-6   # to an eigenvalue -1e-6; the first block
            last[0, 0] -= shift               # takes the trace, so the total stays 1
            good[0] = good[0] + shift * np.eye(blocks[0]) / blocks[0]
        elif defect == "nan":
            last[-1, -1] = np.nan
        elif defect == "shape":
            last = np.eye(n + 1) / (sum(blocks) * (n + 1) / n)
        elif defect == "ndim":
            last = np.diagonal(last).copy()
        else:
            last *= 1.0 + 2.0 * STRUCT_TOL * sum(blocks) / n
        with pytest.raises(ValueError, match=message):
            State(alg, tuple(good[:-1]) + (last,))

    def test_wrong_number_of_densities(self):
        alg = FiniteAlgebra((1,) * 30)
        densities = (np.array([[1.0 / 29]]),) * 29
        with pytest.raises(ValueError, match="expected 30 densities, one per block, got 29"):
            State(alg, densities)
        with pytest.raises(ValueError, match="expected 1 densities, one per block, got 2"):
            State(FiniteAlgebra((2,)), (np.eye(2) / 4, np.eye(2) / 4))

    def test_total_trace_is_the_running_sum_of_the_block_traces(self):
        rng = np.random.default_rng(7)
        for blocks in ((1,) * 30, (2, 1, 3, 1, 2)):
            phi = random_state(FiniteAlgebra(blocks), rng)
            total = 0.0
            for rho in phi.densities:
                total += float(np.trace(rho).real)
            assert phi.total_trace == total

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_eval_linear_and_affine(self, seed):
        rng = np.random.default_rng(seed)
        alg = FiniteAlgebra((2,))
        phi, psi = random_state(alg, rng), random_state(alg, rng)
        a = alg.element([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))])
        b = alg.element([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))])
        s, t = rng.normal(), rng.uniform()
        lhs = phi(s * a + b)
        assert abs(lhs - (s * phi(a) + phi(b))) < 1e-12 * max(1.0, abs(lhs))
        mix = State(alg, tuple(t * x + (1 - t) * y
                               for x, y in zip(phi.densities, psi.densities)))
        assert abs(mix(a) - (t * phi(a) + (1 - t) * psi(a))) < 1e-12


class TestHermitianBasis:
    def test_count_and_orthonormality(self):
        alg = FiniteAlgebra((2, 1))
        basis = [AlgebraElement(alg, row) for row in hermitian_basis(alg)]
        assert len(basis) == alg.selfadjoint_dim == 5
        for i, e in enumerate(basis):
            assert e.is_selfadjoint()
            for j, f in enumerate(basis):
                inner = sum(np.trace(x.conj().T @ y).real
                            for x, y in zip(e.blocks, f.blocks))
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)

    def test_coordinates_round_trip(self):
        rng = np.random.default_rng(8)
        alg = FiniteAlgebra((2, 2))
        x = rng.normal(size=alg.selfadjoint_dim)
        elem = element_from_coordinates(alg, x)
        assert elem.is_selfadjoint()
        back = [sum(np.trace(b.conj().T @ e).real for b, e in zip(basis_el.blocks, elem.blocks))
                for basis_el in (AlgebraElement(alg, row) for row in hermitian_basis(alg))]
        assert np.allclose(back, x, atol=1e-13)

    @pytest.mark.parametrize("alg", [FiniteAlgebra((1, 1)), FiniteAlgebra((2, 3)),
                                     FiniteAlgebra((1, 2)).tensor(FiniteAlgebra((2, 1)))],
                             ids=["C2", "M2+M3", "product"])
    def test_coordinates_match_partial_sums(self, alg):
        # reference: the sum over the basis, one validated partial sum per term
        def partial_sums(x):
            out = alg.zero()
            for xi, b in zip(x, (AlgebraElement(alg, row) for row in hermitian_basis(alg))):
                out = out + float(xi) * b
            return out

        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.normal(size=alg.selfadjoint_dim)
            got, want = element_from_coordinates(alg, x), partial_sums(x)
            assert got.algebra == alg
            for g, w in zip(got.blocks, want.blocks, strict=True):
                assert np.array_equal(g, w)

    def test_coordinates_reject_wrong_length(self):
        with pytest.raises(ValueError):
            element_from_coordinates(FiniteAlgebra((2,)), np.zeros(3))

    def test_frame_is_cached_and_read_only(self):
        def alg():
            return FiniteAlgebra((1, 2)).tensor(FiniteAlgebra((2, 1)))

        frame = hermitian_basis(alg())
        assert hermitian_basis(alg()) is frame   # equal algebras share one frame
        assert frame.shape == (alg().selfadjoint_dim,) * 2 and not frame.flags.writeable
        assert np.abs(frame @ frame.conj().T - np.eye(len(frame))).max() <= 1e-15


class TestFlatElements:
    def test_blocks_are_views_of_the_one_stored_array(self):
        rng = np.random.default_rng(12)
        alg = FiniteAlgebra((2, 1, 3))
        a = alg.element([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                         for n in alg.blocks])
        assert [f.name for f in dataclasses.fields(a)] == ["algebra", "flat"]
        x = rng.normal(size=alg.selfadjoint_dim)
        for e in (a, alg.unit(), alg.zero(), a + a, 2.0 * a, a @ a, a.adjoint(),
                  element_from_coordinates(alg, x)):
            assert e.flat.shape == (alg.selfadjoint_dim,)
            assert all(np.shares_memory(e.flat, blk) for blk in e.blocks)
        assert all(np.array_equal(blk, np.eye(n)) for blk, n in zip(alg.unit().blocks, alg.blocks))
        for got, m in zip((a @ a).blocks, a.blocks):
            assert np.array_equal(got, m @ m)

    def test_block_and_flat_inputs_are_checked(self):
        with pytest.raises(ValueError, match="wrong number of blocks"):
            C2.element([np.eye(1)])
        with pytest.raises(ValueError, match=r"block shape \(2, 2\) does not match size 1"):
            C2.element([np.eye(2), np.eye(1)])
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            C2.element([np.eye(1), np.array([[np.nan]])])
        with pytest.raises(ValueError, match="element has non-finite entries"):
            AlgebraElement(C2, [1.0, np.inf])
        with pytest.raises(ValueError, match=r"expected 2 coordinates, got \(3,\)"):
            AlgebraElement(C2, np.zeros(3))


def test_json_round_trips_exact():
    rng = np.random.default_rng(9)
    alg = FiniteAlgebra((1, 2))
    assert algebra_from_json(algebra_to_json(alg)) == alg
    prod = alg.tensor(C2)
    assert algebra_from_json(algebra_to_json(prod)) == prod
    assert algebra_from_json(algebra_to_json(prod)).factors == prod.factors

    phi = random_state(alg, rng)
    back = state_from_json(json.loads(json.dumps(state_to_json(phi))))
    for r1, r2 in zip(back.densities, phi.densities):
        assert np.array_equal(r1, r2)

    rep = Representation.defining(alg).padded(1)
    back = representation_from_json(json.loads(json.dumps(representation_to_json(rep))))
    assert back.hilbert_dim == rep.hilbert_dim
    for a1, a2 in zip(back.basis_images, rep.basis_images):
        assert np.array_equal(a1, a2)


C3 = FiniteAlgebra((1, 1, 1))


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: FiniteAlgebra((2,)).diagonal_element([1.0] * 4),
                 "requires all blocks of size 1", id="diagonal_element-on-M2"),
    pytest.param(lambda: C2.outer_order, "does not carry a tensor-product factorization",
                 id="outer_order-of-a-non-product"),
    pytest.param(lambda: product_state(*pure_states(C2)[:2], FiniteAlgebra((1,) * 4)),
                 "does not factor through the states", id="product_state-non-factoring"),
    pytest.param(lambda: Representation.defining(C2).apply(C3.unit()),
                 "element lives on a different algebra", id="apply-foreign-element"),
    pytest.param(lambda: slice_map(C2.tensor(C3).unit(), pure_states(C2)[0], "right"),
                 "state must live on the right factor", id="slice_map-wrong-factor"),
])
def test_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()
