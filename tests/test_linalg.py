"""Operator kernel: norms, Kronecker products, commutators, parity splits."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgp.linalg import (
    commutator,
    finite_json,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    parity_split,
    tensor,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def power_iteration_norm(m, iters=2000, tol=1e-10):
    """Independent largest-singular-value oracle: power iteration on m*m."""
    a = np.asarray(m, dtype=complex)
    g = a.conj().T @ a
    v = np.ones(g.shape[0], dtype=complex) / np.sqrt(g.shape[0])
    prev = 0.0
    for _ in range(iters):
        w = g @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(nrm - prev) < tol * max(1.0, nrm):
            break
        prev = nrm
    return float(np.sqrt(nrm))


def reduced_commutator_block(a, lam, mu):
    """Closed form of the nonzero block of [D, pi(a)] on the two-point x
    amplified-two-point product, after reordering rows and columns."""
    a1, a2, a3, a4 = a
    return np.array([
        [2 * a1, 0, mu / lam * (a1 - a3), 0],
        [0, 2 * a2, 0, mu / lam * (a2 - a4)],
        [0, 0, 2 * a3, 0],
        [0, 0, 0, 2 * a4],
    ], dtype=complex) / mu


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_signs(self):
        assert op_norm(np.diag([1.0, -1.0, 1.0, -1.0])) == pytest.approx(1.0, abs=1e-14)

    def test_b_matrix_against_power_iteration(self):
        b = reduced_commutator_block((1.0, 0.0, 0.0, 0.0), lam=1.0, mu=1.0)
        oracle = power_iteration_norm(b)
        assert op_norm(b) == pytest.approx(oracle, abs=1e-9)
        assert op_norm(b) == pytest.approx(np.sqrt(5.0), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
    def test_exact_at_any_scale(self, scale):
        # m*m of these underflows to 0 or overflows to inf unless m is
        # rescaled first; a numpy overflow warning fails the suite
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert op_norm(scale * sigma_x) == scale
        b = reduced_commutator_block((1.0, 0.0, 0.0, 0.0), lam=1.0, mu=1.0)
        assert op_norm(scale * b) == pytest.approx(scale * np.sqrt(5.0), rel=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            op_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            op_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert op_norm(m) == pytest.approx(op_norm(m.conj().T), rel=1e-12)

    def test_permutation_unitary_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            u = np.eye(n)[rng.permutation(n)]
            v = np.eye(n)[rng.permutation(n)]
            assert op_norm(u @ m @ v) == pytest.approx(op_norm(m), rel=1e-12)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_grading_blocks(self):
        d2 = 2.0 * np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        g1 = np.diag([1.0, -1.0])
        got = tensor(g1, d2)
        want = np.zeros((8, 8))
        want[:4, :4] = d2
        want[4:, 4:] = -d2
        assert np.array_equal(got, want)

    def test_sigma_x_with_projector(self):
        got = tensor(SIGMA_X, np.diag([1.0, 0.0]))
        want = np.zeros((4, 4), dtype=complex)
        want[0, 2] = want[2, 0] = 1.0
        assert np.array_equal(got, want)

    def test_associativity_integer_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
            assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


class TestCommutator:
    def test_with_identity(self):
        d = np.array([[0.0, 2.0], [2.0, 1.0]])
        assert np.array_equal(commutator(d, np.eye(2)), np.zeros((2, 2)))

    def test_two_point_generator(self):
        lam = 2.0
        d1 = SIGMA_X / lam
        got = commutator(d1, np.diag([1.0, 0.0]))
        want = np.array([[0.0, -1.0], [1.0, 0.0]]) / lam
        assert np.allclose(got, want, atol=1e-15)
        assert op_norm(got) == pytest.approx(1.0 / lam, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))

    def test_product_commutator_permutes_to_b_matrix(self):
        # the 8x8 product commutator, conjugated by the row/column reordering
        # (1,2,7,8,3,4,5,6), exposes the off-diagonal block -B_a
        import ncgp

        lam, mu = 2.0, 1.0
        pt = ncgp.product(ncgp.two_point(lam), ncgp.amplified_two_point(mu))
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = rng.normal(size=4)
            elem = pt.algebra.diagonal_element(a)
            comm = commutator(pt.dirac, pt.rep.apply(elem))
            order = [0, 1, 6, 7, 2, 3, 4, 5]
            permuted = comm[np.ix_(order, order)]
            b = reduced_commutator_block(a, lam, mu)
            assert np.allclose(permuted[:4, 4:], -b, atol=1e-12)
            assert np.allclose(permuted[4:, :4], b.conj().T, atol=1e-12)
            assert np.allclose(permuted[:4, :4], 0.0, atol=1e-12)
            assert np.allclose(permuted[4:, 4:], 0.0, atol=1e-12)
            assert op_norm(comm) == pytest.approx(op_norm(b), rel=1e-12)


class TestParitySplit:
    def test_diagonal_is_even(self):
        m = np.diag([2.0, 3.0]).astype(complex)
        even, odd = parity_split(m, np.diag([1.0, -1.0]))
        assert np.array_equal(even, m)
        assert np.array_equal(odd, np.zeros((2, 2)))

    def test_sigma_x_is_odd(self):
        even, odd = parity_split(SIGMA_X, np.diag([1.0, -1.0]))
        assert np.array_equal(odd, SIGMA_X)
        assert np.array_equal(even, np.zeros((2, 2)))

    def test_even_part_block_diagonal(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        even, _ = parity_split(m, np.diag([1.0, 1.0, -1.0, -1.0]))
        assert np.allclose(even[:2, 2:], 0.0, atol=1e-15)
        assert np.allclose(even[2:, :2], 0.0, atol=1e-15)

    def test_parts_sum_exactly_and_commute(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            dim = int(rng.integers(1, 5)) * 2
            g = np.diag(rng.permutation([1.0] * (dim // 2) + [-1.0] * (dim // 2)))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            even, odd = parity_split(m, g)
            assert np.array_equal(even + odd, m)
            assert np.abs(g @ even - even @ g).max() < 1e-10
            assert np.abs(g @ odd + odd @ g).max() < 1e-10

    def test_rejects_non_grading(self):
        with pytest.raises(ValueError):
            parity_split(np.eye(2), np.diag([1.0, 2.0]))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_odd_even_max_bound(dim, seed):
    """max(||odd||, ||even||) <= ||odd + even|| for any grading split."""
    rng = np.random.default_rng(seed)
    signs = rng.permutation([1.0] * (dim // 2) + [-1.0] * (dim - dim // 2))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    even, odd = parity_split(m, np.diag(signs))
    assert max(op_norm(odd), op_norm(even)) <= op_norm(m) + 1e-10


def test_matrix_json_round_trip_exact():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(3, 5)) * np.exp(rng.normal(size=(3, 5)) * 20) \
        + 1j * rng.normal(size=(3, 5))
    blob = json.dumps(matrix_to_json(m))
    back = matrix_from_json(json.loads(blob))
    assert np.array_equal(back, m)


def test_finite_json_writes_non_finite_floats_as_strings():
    obj = {"a": [1.5, np.inf, (-np.inf, np.float64("nan"))], "b": {"c": 2, "d": "inf"}}
    out = finite_json(obj)
    assert out == {"a": [1.5, "inf", ["-inf", "nan"]], "b": {"c": 2, "d": "inf"}}
    json.dumps(out, allow_nan=False)


def test_matrix_json_schema():
    obj = matrix_to_json(np.array([[1.0 + 2.0j]]))
    assert obj == {"rows": 1, "cols": 1, "entries": [[1.0, 2.0]]}
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})
