"""Finite-dimensional C*-algebras (direct sums of full matrix blocks), their
representations, elements and states.

An algebra is a list of block sizes [n_1, ..., n_k] for A = M_{n_1} + ... +
M_{n_k}.  Tensor-product algebras remember their two factors so that slice
maps and product states are well defined; the product block indexed by the
pair (i, j) is stored at flat position i*len(blocks_2) + j.

The flat layout of an element concatenates its raveled blocks;
`Representation.units` holds the images of the matrix units in that order.
The hermitian coordinate order is written once, in `_hermitian_blocks`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import as_operator, is_hermitian, matrix_from_json, matrix_to_json
from .tolerances import FAITHFUL_RANK_TOL, STRUCT_TOL


@dataclass(frozen=True)
class FiniteAlgebra:
    """A = direct sum of full matrix algebras M_{n_i}(C)."""

    blocks: tuple[int, ...]
    factors: tuple["FiniteAlgebra", "FiniteAlgebra"] | None = None

    def __post_init__(self):
        blocks = tuple(_size(n, "block size") for n in self.blocks)
        if len(blocks) == 0 or min(blocks) <= 0:
            raise ValueError("algebra needs at least one block of positive size")
        object.__setattr__(self, "blocks", blocks)

    @property
    def selfadjoint_dim(self) -> int:
        return sum(n * n for n in self.blocks)

    @property
    def is_commutative(self) -> bool:
        return all(n == 1 for n in self.blocks)

    def unit(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.eye(n, dtype=complex) for n in self.blocks))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.zeros((n, n), dtype=complex) for n in self.blocks))

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, tuple(as_operator(b) for b in blocks))

    def diagonal_element(self, values) -> "AlgebraElement":
        """Element of a commutative algebra from a vector of coordinates."""
        if not self.is_commutative:
            raise ValueError("diagonal_element requires all blocks of size 1")
        values = np.asarray(values, dtype=complex)
        if values.shape != (len(self.blocks),):
            raise ValueError(f"expected {len(self.blocks)} coordinates")
        return self.element([np.array([[v]]) for v in values])

    def tensor(self, other: "FiniteAlgebra") -> "FiniteAlgebra":
        blocks = tuple(n * m for n in self.blocks for m in other.blocks)
        return FiniteAlgebra(blocks, factors=(self, other))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    algebra: FiniteAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_operator(b) for b in self.blocks)
        if len(mats) != len(self.algebra.blocks):
            raise ValueError("wrong number of blocks")
        for m, n in zip(mats, self.algebra.blocks):
            if m.shape != (n, n):
                raise ValueError(f"block shape {m.shape} does not match size {n}")
        object.__setattr__(self, "blocks", mats)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(complex(scalar) * b for b in self.blocks))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(b.conj().T for b in self.blocks))

    def is_selfadjoint(self, tol: float = STRUCT_TOL) -> bool:
        return all(is_hermitian(b, tol) for b in self.blocks)


def _size(value, what: str) -> int:
    """An integral size as an int; 2.0 passes, 2.7 is refused, not truncated."""
    if not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _same_algebra(a, b) -> None:
    if a.algebra != b.algebra:
        raise ValueError("elements/states live on different algebras")


def tensor_element(a: AlgebraElement, b: AlgebraElement,
                   product: FiniteAlgebra | None = None) -> AlgebraElement:
    """a (x) b as an element of the tensor-product algebra."""
    if product is None:
        product = a.algebra.tensor(b.algebra)
    elif product.factors != (a.algebra, b.algebra):
        raise ValueError("given product algebra does not factor through the operands")
    blocks = tuple(np.kron(x, y) for x in a.blocks for y in b.blocks)
    return AlgebraElement(product, blocks)


@dataclass(frozen=True, eq=False)
class Representation:
    """*-representation pi: A -> B(H), stored by its images on matrix units.

    units is the (N, h, h) array of the images pi(E_ij) in the flat layout, N =
    sum n_b^2; pi extends linearly, pi(a) = sum_r flat(a)_r units[r].  Each
    basis_images[b] is the (n_b, n_b, h, h) view of block b's rows:
    basis_images[b][i, j] is the image of the matrix unit E_ij of block b.
    """

    algebra: FiniteAlgebra
    hilbert_dim: int
    basis_images: tuple[np.ndarray, ...]
    units: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = _size(self.hilbert_dim, "hilbert_dim")
        imgs = []
        for n, arr in zip(self.algebra.blocks, self.basis_images, strict=True):
            arr = np.asarray(arr, dtype=complex)
            if arr.shape != (n, n, h, h):
                raise ValueError(f"basis images must have shape ({n},{n},{h},{h}), got {arr.shape}")
            imgs.append(arr.reshape(n * n, h, h))
        units = np.concatenate(imgs)
        ends = list(itertools.accumulate((len(u) for u in imgs), initial=0))
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "basis_images", tuple(
            units[a:b].reshape(n, n, h, h) for a, b, n in zip(ends, ends[1:], self.algebra.blocks)))
        object.__setattr__(self, "hilbert_dim", h)
        _check_star_rep(self)

    @cached_property
    def faithful(self) -> bool:
        rank = np.linalg.matrix_rank(self.units.reshape(len(self.units), -1), tol=FAITHFUL_RANK_TOL)
        return int(rank) == len(self.units)

    def apply(self, a: AlgebraElement) -> np.ndarray:
        if a.algebra != self.algebra:
            raise ValueError("element lives on a different algebra")
        flat = np.concatenate([m.ravel() for m in a.blocks])
        return (flat @ self.units.reshape(len(flat), -1)).reshape(self.units.shape[1:])

    @cached_property
    def is_unital(self) -> bool:
        unit = self.apply(self.algebra.unit())
        return bool(np.abs(unit - np.eye(self.hilbert_dim)).max() <= STRUCT_TOL)

    @classmethod
    def defining(cls, algebra: FiniteAlgebra) -> "Representation":
        """Direct-sum (block diagonal) representation on C^(n_1 + ... + n_k)."""
        h = sum(algebra.blocks)
        images = []
        off = 0
        for n in algebra.blocks:
            arr = np.zeros((n, n, h, h), dtype=complex)
            for i, j in itertools.product(range(n), repeat=2):
                arr[i, j, off + i, off + j] = 1.0
            images.append(arr)
            off += n
        return cls(algebra, h, tuple(images))

    def with_multiplicity(self, mult: int) -> "Representation":
        """pi(a) (x) I_mult on H (x) C^mult."""
        eye = np.eye(mult)
        images = tuple(np.einsum("ijpq,rs->ijprqs", arr, eye).reshape(
            arr.shape[0], arr.shape[1], self.hilbert_dim * mult, self.hilbert_dim * mult)
            for arr in self.basis_images)
        return Representation(self.algebra, self.hilbert_dim * mult, images)

    def padded(self, extra: int) -> "Representation":
        """diag(pi(a), 0_extra): degenerate extension, still faithful."""
        pad = ((0, 0), (0, 0), (0, extra), (0, extra))
        images = tuple(np.pad(arr, pad) for arr in self.basis_images)
        return Representation(self.algebra, self.hilbert_dim + extra, images)

    def tensor(self, other: "Representation",
               product: FiniteAlgebra | None = None) -> "Representation":
        """pi_1 (x) pi_2 on H_1 (x) H_2 over the tensor-product algebra."""
        if product is None:
            product = self.algebra.tensor(other.algebra)
        h = self.hilbert_dim * other.hilbert_dim
        images = tuple(np.einsum("ikpq,jlrs->ijklprqs", a1, a2).reshape(
            len(a1) * len(a2), len(a1) * len(a2), h, h)
            for a1 in self.basis_images for a2 in other.basis_images)
        return Representation(product, h, images)


def _check_star_rep(rep: Representation) -> None:
    """Validate *-linearity and multiplicativity on matrix units, block by block.

    Within a block, E_ij* = E_ji is one array comparison, and the generator
    relations E_ij = E_i1 E_1j and E_1i E_j1 = delta_ij E_11 are two batches
    of n^2 h x h products; together they give E_ij E_kl = E_i1 E_1j E_k1 E_1l
    = delta_jk E_i1 E_11 E_1l = delta_jk E_il.  Across blocks these make each
    pi(1_b) a projection, and their sum S is a projection exactly when they
    are pairwise orthogonal, as tr(S^2 - S) = sum_{a != b}
    ||pi(1_a) pi(1_b)||_F^2; then every E^a_ij E^b_kl = E^a_ij 1_a 1_b E^b_kl
    vanishes.
    """
    h = rep.hilbert_dim
    total = np.zeros((h, h), dtype=complex)
    for arr in rep.basis_images:
        n = arr.shape[0]
        if np.abs(arr.transpose(1, 0, 3, 2).conj() - arr).max() > STRUCT_TOL:
            raise ValueError("representation is not *-compatible on matrix units")
        col, row = arr[:, :1], arr[:1, :]       # E_i1 at [i, 0], E_1j at [0, j]
        err = np.abs(col @ row - arr).max()     # E_i1 E_1j - E_ij
        if n > 1:   # for n = 1 both relations read E_11 E_11 = E_11
            second = row.transpose(1, 0, 2, 3) @ col.transpose(1, 0, 2, 3)   # E_1i E_j1
            second[np.arange(n), np.arange(n)] -= arr[0, 0]                  # less delta_ij E_11
            err = max(err, np.abs(second).max())
        if err > STRUCT_TOL:
            raise ValueError("representation is not multiplicative on matrix units")
        total += np.trace(arr)
    if np.abs(total @ total - total).max() > STRUCT_TOL:
        raise ValueError("images of distinct blocks do not multiply to zero")


@dataclass(frozen=True, eq=False)
class State:
    """Positive normalized functional, one density matrix per block."""

    algebra: FiniteAlgebra
    densities: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = []
        total = 0.0
        for rho, n in zip(self.densities, self.algebra.blocks, strict=True):
            rho = as_operator(rho)
            if rho.shape != (n, n):
                raise ValueError(f"density shape {rho.shape} does not match block size {n}")
            if not is_hermitian(rho, STRUCT_TOL):
                raise ValueError("density matrix is not Hermitian")
            if np.linalg.eigvalsh(rho)[0] < -STRUCT_TOL:
                raise ValueError("density matrix is not positive semidefinite")
            total += float(np.trace(rho).real)
            mats.append(rho)
        if abs(total - 1.0) > STRUCT_TOL:
            raise ValueError(f"densities must have total trace 1, got {total}")
        object.__setattr__(self, "densities", tuple(mats))

    def __call__(self, a: AlgebraElement) -> complex:
        _same_algebra(self, a)
        return complex(sum(np.trace(rho @ m) for rho, m in zip(self.densities, a.blocks)))


def product_state(phi1: State, phi2: State,
                  product: FiniteAlgebra | None = None) -> State:
    """phi_1 (x) phi_2 on the tensor-product algebra."""
    if product is None:
        product = phi1.algebra.tensor(phi2.algebra)
    elif product.factors != (phi1.algebra, phi2.algebra):
        raise ValueError("given product algebra does not factor through the states")
    densities = tuple(np.kron(r1, r2) for r1 in phi1.densities for r2 in phi2.densities)
    return State(product, densities)


def slice_map(a: AlgebraElement, phi: State, side: str) -> AlgebraElement:
    """Contract one tensor factor of a with a state.

    side="right": (id (x) phi)(a) in A_1, with phi a state on A_2.
    side="left":  (phi (x) id)(a) in A_2, with phi a state on A_1.
    Independent of any decomposition a = sum a_1^i (x) a_2^i.
    """
    alg = a.algebra
    if alg.factors is None:
        raise ValueError("element does not carry a tensor-product factorization")
    alg1, alg2 = alg.factors
    if side == "right":
        if phi.algebra != alg2:
            raise ValueError("state must live on the right factor")
        out = [np.zeros((n, n), dtype=complex) for n in alg1.blocks]
    elif side == "left":
        if phi.algebra != alg1:
            raise ValueError("state must live on the left factor")
        out = [np.zeros((m, m), dtype=complex) for m in alg2.blocks]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    k2 = len(alg2.blocks)
    for flat, mat in enumerate(a.blocks):
        i, j = divmod(flat, k2)
        n, m = alg1.blocks[i], alg2.blocks[j]
        x = mat.reshape(n, m, n, m)
        if side == "right":
            out[i] += np.einsum("prqs,sr->pq", x, phi.densities[j])
        else:
            out[j] += np.einsum("prqs,qp->rs", x, phi.densities[i])
    return AlgebraElement(alg1 if side == "right" else alg2, tuple(out))


def pure_states(algebra: FiniteAlgebra) -> list[State]:
    """Coordinate-evaluation states of a commutative algebra."""
    if not algebra.is_commutative:
        raise ValueError("pure-state enumeration is only supported for commutative algebras")
    k = len(algebra.blocks)
    states = []
    for i in range(k):
        densities = [np.array([[1.0 if j == i else 0.0]], dtype=complex) for j in range(k)]
        states.append(State(algebra, tuple(densities)))
    return states


def random_state(algebra: FiniteAlgebra, rng: np.random.Generator) -> State:
    """Random full-rank state (normalized Wishart density per block)."""
    raw = []
    for n in algebra.blocks:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        raw.append(g @ g.conj().T + 1e-3 * np.eye(n))
    total = sum(float(np.trace(r).real) for r in raw)
    return State(algebra, tuple(r / total for r in raw))


def _hermitian_blocks(algebra: FiniteAlgebra, x: np.ndarray) -> list[np.ndarray]:
    """The blocks of sum_i x[..., i] b_i, each of shape x.shape[:-1] + (n, n).

    This is the one statement of the hermitian order.  Per block and ascending:
    the n diagonal units E_kk, then for k < l in `np.triu_indices` order the
    symmetric (E_kl + E_lk)/sqrt(2) and the antisymmetric i(E_kl - E_lk)/sqrt(2).
    """
    s = 1.0 / np.sqrt(2.0)
    blocks = []
    off = 0
    for n in algebra.blocks:
        xb = x[..., off:off + n * n]
        off += n * n
        m = np.zeros(x.shape[:-1] + (n, n), dtype=complex)
        m[..., range(n), range(n)] = xb[..., :n]
        if n > 1:   # np.triu_indices costs more than the rest of a size-1 block
            rows, cols = np.triu_indices(n, 1)
            sym, anti = xb[..., n::2] * s, xb[..., n + 1::2] * s
            m[..., rows, cols] = sym + 1j * anti
            m[..., cols, rows] = sym - 1j * anti
        blocks.append(m)
    return blocks


def hermitian_basis(algebra: FiniteAlgebra) -> list[AlgebraElement]:
    """Canonically ordered orthonormal (Frobenius) basis of the self-adjoint part,
    in the order of `_hermitian_blocks`, built from the identity in one call."""
    k = algebra.selfadjoint_dim
    blocks = _hermitian_blocks(algebra, np.eye(k))
    return [AlgebraElement(algebra, tuple(b[i] for b in blocks)) for i in range(k)]


def element_from_coordinates(algebra: FiniteAlgebra, x) -> AlgebraElement:
    """Self-adjoint element sum_i x_i b_i over the canonical hermitian basis."""
    x = np.asarray(x, dtype=float)
    if x.shape != (algebra.selfadjoint_dim,):
        raise ValueError(f"expected {algebra.selfadjoint_dim} coordinates, got {x.shape}")
    return AlgebraElement(algebra, tuple(_hermitian_blocks(algebra, x)))


# ---------------------------------------------------------------------------
# JSON wire formats


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    obj: dict = {"blocks": list(alg.blocks)}
    if alg.factors is not None:
        obj["factors"] = [algebra_to_json(alg.factors[0]), algebra_to_json(alg.factors[1])]
    return obj


def algebra_from_json(obj: dict) -> FiniteAlgebra:
    alg = FiniteAlgebra(tuple(obj["blocks"]))
    if "factors" in obj and obj["factors"] is not None:
        f1, f2 = (algebra_from_json(f) for f in obj["factors"])
        if f1.tensor(f2).blocks != alg.blocks:
            raise ValueError("factor blocks are inconsistent with product blocks")
        return f1.tensor(f2)
    return alg


def state_to_json(phi: State) -> dict:
    return {"algebra": algebra_to_json(phi.algebra),
            "densities": [matrix_to_json(r) for r in phi.densities]}


def state_from_json(obj: dict) -> State:
    alg = algebra_from_json(obj["algebra"])
    return State(alg, tuple(matrix_from_json(r) for r in obj["densities"]))


def element_to_json(a: AlgebraElement) -> dict:
    return {"algebra": algebra_to_json(a.algebra),
            "blocks": [matrix_to_json(b) for b in a.blocks]}


def representation_to_json(rep: Representation) -> dict:
    images = {}
    for b, arr in enumerate(rep.basis_images):
        for i, j in np.ndindex(arr.shape[:2]):
            images[f"{b}:{i}:{j}"] = matrix_to_json(arr[i, j])
    return {"algebra": algebra_to_json(rep.algebra),
            "hilbert_dim": rep.hilbert_dim,
            "basis_images": images}


def representation_from_json(obj: dict) -> Representation:
    alg = algebra_from_json(obj["algebra"])
    h = _size(obj["hilbert_dim"], "hilbert_dim")
    images = []
    for b, n in enumerate(alg.blocks):
        arr = np.zeros((n, n, h, h), dtype=complex)
        for i, j in np.ndindex(n, n):
            arr[i, j] = matrix_from_json(obj["basis_images"][f"{b}:{i}:{j}"])
        images.append(arr)
    return Representation(alg, h, tuple(images))
