"""Spectral triples as data, the even product construction, and the catalog of
finite geometries used throughout the package.

The product of a graded triple (A1, H1, D1, gamma1) with (A2, H2, D2) lives on
A1 (x) A2 and H1 (x) H2 with Dirac operator D1 (x) 1 + gamma1 (x) D2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    FiniteAlgebra,
    Representation,
    algebra_from_json,
    algebra_to_json,
    representation_from_json,
    representation_to_json,
)
from .linalg import (
    as_operator,
    block_diag,
    commutator,
    is_grading,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    tensor,
)
from .tolerances import GRADING_TOL, STRUCT_TOL


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """(A, H, D) with optional grading; all invariants checked on construction."""

    rep: Representation
    dirac: np.ndarray
    grading: np.ndarray | None = None

    def __post_init__(self):
        d = as_operator(self.dirac)
        if not is_hermitian(d, STRUCT_TOL):
            raise ValueError(f"Dirac operator is not self-adjoint within {STRUCT_TOL}")
        h = self.rep.hilbert_dim
        if d.shape != (h, h):
            raise ValueError(f"Dirac operator shape {d.shape} does not match hilbert_dim {h}")
        object.__setattr__(self, "dirac", d)
        if self.grading is not None:
            g = as_operator(self.grading)
            if g.shape != (h, h) or not is_grading(g, GRADING_TOL):
                raise ValueError("grading must be a self-adjoint involution on H")
            if np.abs(g @ d + d @ g).max() > GRADING_TOL:
                raise ValueError("grading must anticommute with the Dirac operator")
            units = self.rep.units
            if np.abs(g @ units - units @ g).max() > GRADING_TOL:
                raise ValueError("grading must commute with the represented algebra")
            object.__setattr__(self, "grading", g)

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.rep.algebra

    @property
    def hilbert_dim(self) -> int:
        return self.rep.hilbert_dim

    @cached_property
    def is_unital(self) -> bool:
        return self.rep.is_unital

    def commutator_with_dirac(self, a) -> np.ndarray:
        """[D, pi(a)] for an algebra element a."""
        return commutator(self.dirac, self.rep.apply(a))

    def scaled(self, s: float) -> "SpectralTriple":
        """Same geometry with Dirac operator s*D (distances scale by 1/s)."""
        return SpectralTriple(self.rep, float(s) * self.dirac, self.grading)


def product(t1: SpectralTriple, t2: SpectralTriple) -> SpectralTriple:
    """Product triple D = D1 (x) 1 + gamma1 (x) D2; requires t1 even."""
    if t1.grading is None:
        raise ValueError("product requires the first factor to carry a grading")
    rep = t1.rep.tensor(t2.rep)
    eye2 = np.eye(t2.hilbert_dim)
    dirac = tensor(t1.dirac, eye2) + tensor(t1.grading, t2.dirac)
    grading = tensor(t1.grading, t2.grading) if t2.grading is not None else None
    return SpectralTriple(rep, dirac, grading)


def _check_scale(name: str, value: float, numerator: float) -> None:
    """Refuse a scale unless it is finite and positive and numerator / value,
    the largest entry of D, is finite too; checked in Python floats, before
    numpy divides by a subnormal scale and warns."""
    if not (0.0 < value < math.inf and math.isfinite(numerator / float(value))):
        raise ValueError(f"scale {name} must be finite and positive, with "
                         f"{numerator:g}/{name} finite, got {value}")


def two_point(lam: float) -> SpectralTriple:
    """The two-point space: A = C^2 acting diagonally on C^2, D = sigma_x/lam.

    The spectral distance between its two pure states equals lam.
    """
    _check_scale("lam", lam, 1.0)
    rep = Representation.defining(FiniteAlgebra((1, 1)))
    dirac = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / lam
    grading = np.diag([1.0, -1.0]).astype(complex)
    return SpectralTriple(rep, dirac, grading)


def amplify(t: SpectralTriple) -> SpectralTriple:
    """Doubling H' = H (+) H with pi' = diag(pi, 0) and D' = [[D, 1], [1, -D]].

    The result is never unital and carries grading diag(gamma, -gamma) when t
    is even; it realizes the product with the rank-one module over C.
    """
    h = t.hilbert_dim
    dirac = block_diag(t.dirac, -t.dirac)
    # assigned, not added: 0.0 + -0.0 would turn the -0.0 entries of -D into +0.0
    dirac[:h, h:] = dirac[h:, :h] = np.eye(h)
    grading = None if t.grading is None else block_diag(t.grading, -t.grading)
    return SpectralTriple(t.rep.padded(h), dirac, grading)


def amplified_two_point(mu: float) -> SpectralTriple:
    """Amplification of (C^2, pi_diag, D=0, gamma=1), normalized to D = 2 F / mu.

    Non-unital; the spectral distance between the two pure states equals mu.
    """
    _check_scale("mu", mu, 2.0)
    base = SpectralTriple(
        Representation.defining(FiniteAlgebra((1, 1))),
        np.zeros((2, 2), dtype=complex),
        np.eye(2, dtype=complex),
    )
    return amplify(base).scaled(2.0 / mu)


def lattice_line(n: int, h: float = 1.0) -> SpectralTriple:
    """n-point discretization of the real line with central-difference Dirac.

    Functions act diagonally on C^n; D has entries -i/(4h) on the upper and
    +i/(4h) on the lower off-diagonal (open boundary), matching half the
    central-difference derivative i d/dx.
    """
    if n < 3:
        raise ValueError("lattice needs at least 3 points")
    _check_scale("h", h, 0.25)
    rep = Representation.defining(FiniteAlgebra((1,) * n))
    dirac = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        dirac[k, k + 1] = -1j / (4.0 * h)
        dirac[k + 1, k] = 1j / (4.0 * h)
    return SpectralTriple(rep, dirac)


def two_sheeted_line(n: int, h: float = 1.0) -> SpectralTriple:
    """Amplified lattice line with Dirac doubled (D = 2F), the second factor of
    the two-sheeted geometry."""
    _check_scale("h", h, 0.5)
    return amplify(lattice_line(n, h)).scaled(2.0)


def triple_to_json(t: SpectralTriple) -> dict:
    return {
        "algebra": algebra_to_json(t.algebra),
        "representation": representation_to_json(t.rep),
        "dirac": matrix_to_json(t.dirac),
        "grading": matrix_to_json(t.grading) if t.grading is not None else None,
    }


def triple_from_json(obj: dict) -> SpectralTriple:
    rep = representation_from_json(obj["representation"])
    if algebra_from_json(obj["algebra"]) != rep.algebra:
        raise ValueError("triple algebra does not match its representation")
    grading = matrix_from_json(obj["grading"]) if obj.get("grading") is not None else None
    return SpectralTriple(rep, matrix_from_json(obj["dirac"]), grading)
