"""Even Fredholm modules, pullbacks along characters, and the Chern-Connes
index pairing with K-theory projections.

In finite dimensions every Fredholm module here is 1-summable, so the
pairing with a projection p in M_n(A) is the plain trace formula
(1/2) Tr(gamma F [F, pi(p)]) on H (x) C^n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    FiniteAlgebra,
    Representation,
    State,
    pure_states,
)
from .linalg import as_operator, commutator
from .tolerances import INVERTIBLE_TOL, PAIRING_INT_TOL, PAIRING_REAL_TOL, STRUCT_TOL
from .triples import SpectralTriple, amplified_two_point, two_point


@dataclass(frozen=True, eq=False)
class FredholmModule:
    """(A, H, F, gamma) with F = F*, F^2 = 1, gamma a grading commuting with
    the algebra and anticommuting with F."""

    rep: Representation
    f_op: np.ndarray
    grading: np.ndarray

    def __post_init__(self):
        if self.grading is None:
            raise ValueError("a Fredholm module needs a grading")
        # F = F*, the shapes and the grading axioms are the spectral-triple ones
        t = SpectralTriple(self.rep, self.f_op, self.grading)
        if np.abs(t.dirac @ t.dirac - np.eye(t.hilbert_dim)).max() > STRUCT_TOL:
            raise ValueError("F^2 must be the identity")
        object.__setattr__(self, "f_op", t.dirac)
        object.__setattr__(self, "grading", t.grading)

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.rep.algebra

    def as_spectral_triple(self) -> SpectralTriple:
        """View F as a (possibly metrically degenerate) Dirac operator."""
        return SpectralTriple(self.rep, self.f_op, self.grading)


@dataclass(frozen=True, eq=False)
class Projection:
    """p = p* = p^2 in M_n(A), stored as an n x n array of algebra elements."""

    n: int
    entries: tuple[tuple[AlgebraElement, ...], ...]

    def __post_init__(self):
        n = int(self.n)
        if n <= 0 or len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError("entries must form an n x n array")
        alg = self.entries[0][0].algebra
        for row in self.entries:
            for e in row:
                if e.algebra != alg:
                    raise ValueError("all entries must share one algebra")
        for b, nb in enumerate(alg.blocks):
            big = np.zeros((n * nb, n * nb), dtype=complex)
            for i, j in itertools.product(range(n), repeat=2):
                big[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] = self.entries[i][j].blocks[b]
            if np.abs(big - big.conj().T).max() > STRUCT_TOL:
                raise ValueError("projection is not self-adjoint")
            if np.abs(big @ big - big).max() > STRUCT_TOL:
                raise ValueError("projection is not idempotent")

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.entries[0][0].algebra

    @classmethod
    def from_element(cls, e: AlgebraElement) -> "Projection":
        return cls(1, ((e,),))


def chern_pairing(module: FredholmModule, p: Projection) -> float:
    """<[F], [p]> = (1/2) Tr_{H (x) C^n}(gamma F [F, pi(p)])."""
    if p.algebra != module.algebra:
        raise ValueError("projection lives on a different algebra")
    h = module.rep.hilbert_dim
    n = p.n
    pi_p = np.zeros((n * h, n * h), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        pi_p[i * h:(i + 1) * h, j * h:(j + 1) * h] = module.rep.apply(p.entries[i][j])
    f_ext = np.kron(np.eye(n), module.f_op)
    g_ext = np.kron(np.eye(n), module.grading)
    value = 0.5 * np.trace(g_ext @ f_ext @ commutator(f_ext, pi_p))
    if abs(value.imag) > PAIRING_REAL_TOL:
        raise ValueError(f"pairing is not real: {value}")
    return float(value.real)


def pairing_vector(module: FredholmModule) -> tuple[int, int]:
    """Pairings with the two generator projections p+ = (1,0), p- = (0,1) of C^2."""
    if module.algebra.blocks != (1, 1):
        raise ValueError("pairing_vector requires the algebra C^2")
    alg = module.algebra
    out = []
    for coords in ((1.0, 0.0), (0.0, 1.0)):
        p = Projection.from_element(alg.diagonal_element(coords))
        v = chern_pairing(module, p)
        if abs(v - round(v)) > PAIRING_INT_TOL:
            raise ValueError(f"pairing {v} is not an integer within {PAIRING_INT_TOL}")
        out.append(int(round(v)))
    return out[0], out[1]


def direct_sum(m1: FredholmModule, m2: FredholmModule) -> FredholmModule:
    """Block-diagonal sum of two modules over the same algebra."""
    if m1.algebra != m2.algebra:
        raise ValueError("modules must share their algebra")
    h1, h2 = m1.rep.hilbert_dim, m2.rep.hilbert_dim
    h = h1 + h2
    rep = Representation(m1.algebra, h, np.pad(m1.rep.units, ((0, 0), (0, h2), (0, h2)))
                         + np.pad(m2.rep.units, ((0, 0), (h1, 0), (h1, 0))))
    f = np.zeros((h, h), dtype=complex)
    f[:h1, :h1] = m1.f_op
    f[h1:, h1:] = m2.f_op
    g = np.zeros((h, h), dtype=complex)
    g[:h1, :h1] = m1.grading
    g[h1:, h1:] = m2.grading
    return FredholmModule(rep, f, g)


def conjugate(module: FredholmModule, u: np.ndarray) -> FredholmModule:
    """Conjugate (pi, F, gamma) by a unitary u."""
    u = as_operator(u)
    h = module.rep.hilbert_dim
    if u.shape != (h, h) or np.abs(u @ u.conj().T - np.eye(h)).max() > STRUCT_TOL:
        raise ValueError("u must be unitary on H")
    rep = Representation(module.algebra, h, u @ module.rep.units @ u.conj().T)
    return FredholmModule(rep, u @ module.f_op @ u.conj().T, u @ module.grading @ u.conj().T)


def pullback_module(algebra: FiniteAlgebra, chi: State) -> FredholmModule:
    """Pull the rank-one module over C back along a character chi: A -> C.

    pi(a) = diag(chi(a), 0) on C^2, F = sigma_x, gamma = diag(1, -1).  The
    representation has kernel ker(chi), so the induced spectral distance
    between distinct pure states is infinite.
    """
    if chi.algebra != algebra:
        raise ValueError("character must be a state on the given algebra")
    # M_n has no character for n > 1: the characters are evaluations at blocks of size 1
    if not any(n == 1 and abs(rho[0, 0] - 1.0) <= STRUCT_TOL
               for n, rho in zip(algebra.blocks, chi.densities)):
        raise ValueError("chi is not multiplicative")
    units = np.zeros((algebra.selfadjoint_dim, 2, 2), dtype=complex)
    units[:, 0, 0] = chi.on_units()
    rep = Representation(algebra, 2, units)
    f = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    g = np.diag([1.0, -1.0]).astype(complex)
    return FredholmModule(rep, f, g)


def generator_module() -> FredholmModule:
    """The generator of K^0(C): non-unital rank-one module over C."""
    alg = FiniteAlgebra((1,))
    return pullback_module(alg, pure_states(alg)[0])


def fredholm_from_dirac(t: SpectralTriple) -> FredholmModule:
    """Normalize D to F = D(1 + D^2)^(-1/2), then round spectrally to sign(D).

    Requires D invertible (otherwise the sign is ill-defined) and t even.
    """
    if t.grading is None:
        raise ValueError("an even triple is required")
    w, u = np.linalg.eigh(t.dirac)
    if np.abs(w).min() <= INVERTIBLE_TOL * np.abs(w).max():
        raise ValueError("Dirac operator must be invertible to normalize F")
    f = (u * np.sign(w)) @ u.conj().T
    return FredholmModule(t.rep, f, t.grading)


# Catalog modules over C^2 ---------------------------------------------------


def module_f1() -> FredholmModule:
    """Fredholm module of the two-point triple; F1 = lam*D1 is scale free."""
    return fredholm_from_dirac(two_point(1.0))


def module_f2() -> FredholmModule:
    """Amplified module over C^2: F2 = mu*D2/2 is scale free."""
    t = amplified_two_point(2.0)
    return FredholmModule(t.rep, t.dirac, t.grading)


def module_f_plus() -> FredholmModule:
    alg = FiniteAlgebra((1, 1))
    return pullback_module(alg, pure_states(alg)[0])


def module_f_minus() -> FredholmModule:
    alg = FiniteAlgebra((1, 1))
    return pullback_module(alg, pure_states(alg)[1])
