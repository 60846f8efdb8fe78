"""Finite-dimensional C*-algebras (direct sums of full matrix blocks), their
representations, elements and states.

An algebra is a list of block sizes [n_1, ..., n_k] for A = M_{n_1} + ... +
M_{n_k}.  Each coordinate layout is written once.  The flat layout concatenates
the raveled blocks, and `_split` cuts it back; an `AlgebraElement` is stored as
its flat array, and `Representation.units` holds the images of the matrix units
in it.  The hermitian order is the cached frame `hermitian_basis`.
A tensor-product algebra remembers its two factors; `FiniteAlgebra.outer_order`
states where E^a_ik (x) E^b_jl sits in its flat layout, and product elements,
states and representations and slice maps are all read off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .linalg import as_operator, is_hermitian, matrix_from_json, matrix_to_json, size
from .tolerances import FAITHFUL_RANK_TOL, STRUCT_TOL


@dataclass(frozen=True)
class FiniteAlgebra:
    """A = direct sum of full matrix algebras M_{n_i}(C)."""

    blocks: tuple[int, ...]
    factors: tuple["FiniteAlgebra", "FiniteAlgebra"] | None = None

    def __post_init__(self):
        blocks = tuple(size(n, "block size") for n in self.blocks)
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
        flat = np.zeros(self.selfadjoint_dim, dtype=complex)
        for b in _split(self, flat):
            np.fill_diagonal(b, 1.0)
        return AlgebraElement(self, flat)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.selfadjoint_dim, dtype=complex))

    def element(self, blocks) -> "AlgebraElement":
        mats = [as_operator(b) for b in blocks]
        if len(mats) != len(self.blocks):
            raise ValueError("wrong number of blocks")
        for m, n in zip(mats, self.blocks):
            if m.shape != (n, n):
                raise ValueError(f"block shape {m.shape} does not match size {n}")
        return AlgebraElement(self, _flat(mats))

    def diagonal_element(self, values) -> "AlgebraElement":
        """Element of a commutative algebra from a vector of coordinates."""
        if not self.is_commutative:
            raise ValueError("diagonal_element requires all blocks of size 1")
        return AlgebraElement(self, values)   # 1 x 1 blocks: the values are the flat layout

    def tensor(self, other: "FiniteAlgebra") -> "FiniteAlgebra":
        blocks = tuple(n * m for n in self.blocks for m in other.blocks)
        return FiniteAlgebra(blocks, factors=(self, other))

    @property
    @lru_cache(maxsize=64)   # keyed on the (hashable) algebra: one array per product shape
    def outer_order(self) -> np.ndarray:
        """Flat coordinate r of A_1 (x) A_2 is entry order[r] of the raveled outer
        product of the factors' flat coordinates: E^a_ik (x) E^b_jl is the unit
        E_(ij),(kl) of product block a*len(blocks_2) + b, as in np.kron."""
        if self.factors is None:
            raise ValueError("algebra does not carry a tensor-product factorization")
        alg1, alg2 = self.factors
        rows = _split(alg1, np.arange(alg1.selfadjoint_dim) * alg2.selfadjoint_dim)
        cols = _split(alg2, np.arange(alg2.selfadjoint_dim))
        order = np.concatenate([(x[:, None, :, None] + y[None, :, None, :]).ravel()
                                for x in rows for y in cols])
        order.flags.writeable = False   # shared by every equal product algebra
        return order


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """sum_r flat[r] E_r over the matrix units E_r, in the flat layout."""

    algebra: FiniteAlgebra
    flat: np.ndarray

    def __post_init__(self):
        n = self.algebra.selfadjoint_dim
        flat = np.asarray(self.flat, dtype=complex)
        if flat.shape != (n,):
            raise ValueError(f"expected {n} coordinates, got {flat.shape}")
        if not np.isfinite(flat).all():
            raise ValueError("element has non-finite entries")
        object.__setattr__(self, "flat", flat)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return _split(self.algebra, self.flat)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, self.flat + other.flat)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, self.flat - other.flat)

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, complex(scalar) * self.flat)

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, _flat(a @ b for a, b in zip(self.blocks, other.blocks)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, _flat(b.conj().T for b in self.blocks))

    def is_selfadjoint(self, tol: float = STRUCT_TOL) -> bool:
        return all(is_hermitian(b, tol) for b in self.blocks)


def _same_algebra(a, b) -> None:
    if a.algebra != b.algebra:
        raise ValueError("elements/states live on different algebras")


def _split(algebra: FiniteAlgebra, flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the blocks of `flat` along its first axis, in the flat layout:
    block b's n_b^2 entries as an (n_b, n_b) + flat.shape[1:] array."""
    ends = list(itertools.accumulate((n * n for n in algebra.blocks), initial=0))
    return tuple(flat[a:b].reshape((n, n) + flat.shape[1:])
                 for a, b, n in zip(ends, ends[1:], algebra.blocks))


def _flat(blocks) -> np.ndarray:
    """The flat layout of a tuple of blocks."""
    return np.concatenate([m.ravel() for m in blocks])


def _product_algebra(factors, product: FiniteAlgebra | None, what: str) -> FiniteAlgebra:
    if product is not None and product.factors != factors:
        raise ValueError(f"given product algebra does not factor through the {what}")
    return factors[0].tensor(factors[1]) if product is None else product


def tensor_element(a: AlgebraElement, b: AlgebraElement,
                   product: FiniteAlgebra | None = None) -> AlgebraElement:
    """a (x) b as an element of the tensor-product algebra."""
    product = _product_algebra((a.algebra, b.algebra), product, "operands")
    return AlgebraElement(product, np.outer(a.flat, b.flat).take(product.outer_order))


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
    units: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = size(self.hilbert_dim, "hilbert_dim")
        units = np.asarray(self.units, dtype=complex)
        shape = (self.algebra.selfadjoint_dim, h, h)
        if units.shape != shape:
            raise ValueError(f"units must have shape {shape}, got {units.shape}")
        object.__setattr__(self, "hilbert_dim", h)
        object.__setattr__(self, "units", units)
        _check_star_rep(self)

    @property
    def basis_images(self) -> tuple[np.ndarray, ...]:
        return _split(self.algebra, self.units)

    @cached_property
    def faithful(self) -> bool:
        rank = np.linalg.matrix_rank(self.units.reshape(len(self.units), -1), tol=FAITHFUL_RANK_TOL)
        return int(rank) == len(self.units)

    def apply(self, a: AlgebraElement) -> np.ndarray:
        if a.algebra != self.algebra:
            raise ValueError("element lives on a different algebra")
        return (a.flat @ self.units.reshape(len(a.flat), -1)).reshape(self.units.shape[1:])

    @cached_property
    def is_unital(self) -> bool:
        unit = self.apply(self.algebra.unit())
        return bool(np.abs(unit - np.eye(self.hilbert_dim)).max() <= STRUCT_TOL)

    @classmethod
    def defining(cls, algebra: FiniteAlgebra) -> "Representation":
        """Direct-sum (block diagonal) representation on C^(n_1 + ... + n_k)."""
        h = sum(algebra.blocks)
        # the entries of the block diagonal, row-major, are the units in flat order
        label = np.repeat(np.arange(len(algebra.blocks)), algebra.blocks)
        rows, cols = np.nonzero(label[:, None] == label[None, :])
        units = np.zeros((len(rows), h, h), dtype=complex)
        units[np.arange(len(rows)), rows, cols] = 1.0
        return cls(algebra, h, units)

    def with_multiplicity(self, mult: int) -> "Representation":
        """pi(a) (x) I_mult on H (x) C^mult."""
        h = self.hilbert_dim * mult
        units = np.einsum("npq,rs->nprqs", self.units, np.eye(mult))   # np.kron, without its overhead
        return Representation(self.algebra, h, units.reshape(len(units), h, h))

    def padded(self, extra: int) -> "Representation":
        """diag(pi(a), 0_extra): degenerate extension, still faithful."""
        return Representation(self.algebra, self.hilbert_dim + extra,
                              np.pad(self.units, ((0, 0), (0, extra), (0, extra))))

    def tensor(self, other: "Representation",
               product: FiniteAlgebra | None = None) -> "Representation":
        """pi_1 (x) pi_2 on H_1 (x) H_2 over the tensor-product algebra."""
        product = _product_algebra((self.algebra, other.algebra), product, "representations")
        r1, r2 = divmod(product.outer_order, other.algebra.selfadjoint_dim)
        # gather the factor rows first, so the product is formed in its final order
        units = np.einsum("npq,nrs->nprqs", self.units[r1], other.units[r2])
        h = self.hilbert_dim * other.hilbert_dim
        return Representation(product, h, units.reshape(len(r1), h, h))


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
    """Positive normalized functional, one density matrix per block.

    `total_trace` is sum_b tr(rho_b), within STRUCT_TOL of 1, kept from the
    validation that computes it.
    """

    algebra: FiniteAlgebra
    densities: tuple[np.ndarray, ...]
    total_trace: float = field(init=False, repr=False)

    def __post_init__(self):
        blocks = self.algebra.blocks
        mats = tuple(np.asarray(rho, dtype=complex) for rho in self.densities)
        if len(mats) != len(blocks):
            raise ValueError(f"expected {len(blocks)} densities, one per block, got {len(mats)}")
        for rho, n in zip(mats, blocks):
            if rho.ndim != 2:
                raise ValueError(f"expected a matrix, got ndim={rho.ndim}")
            if rho.shape != (n, n):
                raise ValueError(f"density shape {rho.shape} does not match block size {n}")
        # the other checks run on one stack per block size, with one eigvalsh
        # call each: a lattice state has 30 blocks of size 1
        sizes, traces = np.array(blocks), np.empty(len(blocks))
        for n in dict.fromkeys(blocks):
            idx = np.flatnonzero(sizes == n)
            stack = np.stack([mats[b] for b in idx])
            if not np.isfinite(stack).all():
                raise ValueError("matrix has non-finite entries")
            if np.abs(stack - stack.conj().transpose(0, 2, 1)).max() > STRUCT_TOL:
                raise ValueError("density matrix is not Hermitian")
            if np.linalg.eigvalsh(stack)[:, 0].min() < -STRUCT_TOL:
                raise ValueError("density matrix is not positive semidefinite")
            traces[idx] = np.trace(stack, axis1=1, axis2=2).real
        total = sum(traces.tolist())   # in block order, as a running sum
        if abs(total - 1.0) > STRUCT_TOL:
            raise ValueError(f"densities must have total trace 1, got {total}")
        object.__setattr__(self, "densities", mats)
        object.__setattr__(self, "total_trace", total)

    def __call__(self, a: AlgebraElement) -> complex:
        _same_algebra(self, a)
        return complex(sum(np.trace(rho @ m) for rho, m in zip(self.densities, a.blocks)))

    def on_units(self) -> np.ndarray:
        """phi(E_ij) = tr(rho_b E_ij) = rho_b[j, i] for every matrix unit, in flat order."""
        return _flat(rho.T for rho in self.densities)

    def on_hermitian_basis(self) -> np.ndarray:
        """phi(b_i) for the rows b_i of `hermitian_basis`: as b_i* = b_i, phi(b_i) =
        sum_b tr(rho_b b_i) = conj(b_i) . flat(rho); frame @ on_units() is equal in
        exact arithmetic but adds each two-term sum in the other order."""
        return (hermitian_basis(self.algebra).conj() @ _flat(self.densities)).real


def product_state(phi1: State, phi2: State,
                  product: FiniteAlgebra | None = None) -> State:
    """phi_1 (x) phi_2 on the tensor-product algebra."""
    product = _product_algebra((phi1.algebra, phi2.algebra), product, "states")
    outer = np.outer(_flat(phi1.densities), _flat(phi2.densities))
    return State(product, _split(product, outer.take(product.outer_order)))


def slice_map(a: AlgebraElement, phi: State, side: str) -> AlgebraElement:
    """Contract one tensor factor of a with a state.

    side="right": (id (x) phi)(a) in A_1, with phi a state on A_2.
    side="left":  (phi (x) id)(a) in A_2, with phi a state on A_1.
    Independent of any decomposition a = sum a_1^i (x) a_2^i.
    """
    alg = a.algebra
    if alg.factors is None:
        raise ValueError("element does not carry a tensor-product factorization")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    kept, traced = alg.factors if side == "right" else alg.factors[::-1]
    if phi.algebra != traced:
        raise ValueError(f"state must live on the {side} factor")
    coef = np.empty(alg.selfadjoint_dim, dtype=complex)   # coef[r1, r2] multiplies E_r1 (x) E_r2
    coef[alg.outer_order] = a.flat
    coef = coef.reshape(alg.factors[0].selfadjoint_dim, -1)
    out = coef @ phi.on_units() if side == "right" else phi.on_units() @ coef
    return AlgebraElement(kept, out)


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


@lru_cache(maxsize=64)   # keyed on the (hashable) algebra, like outer_order
def hermitian_basis(algebra: FiniteAlgebra) -> np.ndarray:
    """The canonically ordered orthonormal (Frobenius) basis b_1, ..., b_k of
    the self-adjoint part, as the read-only (k, N) frame whose row i is b_i in
    the flat layout.

    This is the one statement of the hermitian order.  Per block and ascending:
    the n diagonal units E_kk, then for k < l in `np.triu_indices` order the
    symmetric (E_kl + E_lk)/sqrt(2) and the antisymmetric i(E_kl - E_lk)/sqrt(2).
    """
    frame = np.zeros((algebra.selfadjoint_dim,) * 2, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    starts = itertools.accumulate((n * n for n in algebra.blocks), initial=0)
    for off, n in zip(starts, algebra.blocks):
        blk = frame[off:off + n * n, off:off + n * n].reshape(-1, n, n)   # a view: blk[i] = b_off+i
        blk[range(n), range(n), range(n)] = 1.0
        if n > 1:   # np.triu_indices costs more than the rest of a size-1 block
            rows, cols = np.triu_indices(n, 1)
            sym = np.arange(n, n * n, 2)
            blk[sym, rows, cols] = blk[sym, cols, rows] = s
            blk[sym + 1, rows, cols], blk[sym + 1, cols, rows] = complex(0.0, s), complex(0.0, -s)
    frame.flags.writeable = False   # shared by every equal algebra
    return frame


def element_from_coordinates(algebra: FiniteAlgebra, x) -> AlgebraElement:
    """Self-adjoint element sum_i x_i b_i over the canonical hermitian basis."""
    x = np.asarray(x, dtype=float)
    if x.shape != (algebra.selfadjoint_dim,):
        raise ValueError(f"expected {algebra.selfadjoint_dim} coordinates, got {x.shape}")
    return AlgebraElement(algebra, x @ hermitian_basis(algebra))


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


def _unit_keys(alg: FiniteAlgebra) -> list[str]:
    """The wire name "b:i:j" of each matrix unit E^b_ij, in flat order."""
    return [f"{b}:{i}:{j}" for b, n in enumerate(alg.blocks) for i, j in np.ndindex(n, n)]


def representation_to_json(rep: Representation) -> dict:
    return {"algebra": algebra_to_json(rep.algebra),
            "hilbert_dim": rep.hilbert_dim,
            "basis_images": dict(zip(_unit_keys(rep.algebra), map(matrix_to_json, rep.units)))}


def representation_from_json(obj: dict) -> Representation:
    alg = algebra_from_json(obj["algebra"])
    units = np.array([matrix_from_json(obj["basis_images"][key]) for key in _unit_keys(alg)])
    return Representation(alg, obj["hilbert_dim"], units)
