"""Dense complex-matrix kernel: operator norms, Kronecker products, block
diagonals, commutators and grading parity splits.

All operators in the package are plain ``numpy`` arrays of dtype complex128.
Structural checks (hermiticity, gradings) use absolute entrywise tolerances:
matrices of interest here are small integer/rational arrays, so the scales
never drift far from 1.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import STRUCT_TOL


def size(value, what: str) -> int:
    """An integral size as an int; 2.0 passes, 2.7 is refused, not truncated."""
    if not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_operator(m) -> np.ndarray:
    """Coerce to a complex128 2-d array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def is_hermitian(m: np.ndarray, tol: float = STRUCT_TOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def is_grading(g: np.ndarray, tol: float = STRUCT_TOL) -> bool:
    """A grading is a self-adjoint involution: g = g*, g^2 = 1."""
    g = np.asarray(g)
    return is_hermitian(g, tol) and np.abs(g @ g - np.eye(g.shape[0])).max() <= tol


def ldexp(X: np.ndarray, e: int) -> np.ndarray:
    """X * 2^e, exactly (up to underflow), for real or complex X."""
    X = np.ascontiguousarray(X)
    return np.ldexp(X.view(np.float64), e).view(X.dtype)


def op_norm(m) -> float:
    """Largest singular value, via the Hermitian eigenproblem of m*m.  m is
    first scaled by the power of two that brings its largest entry into
    [1/2, 1), so m*m neither overflows nor underflows at any scale of m; the
    scaling and its inverse on the norm are exact."""
    a = as_operator(m)
    e = int(np.frexp(np.abs(a).max())[1])
    a = ldexp(a, -e)
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.ldexp(np.sqrt(max(float(w[-1]), 0.0)), e))


def tensor(a, b) -> np.ndarray:
    """Kronecker product; entry ((i1,i2),(j1,j2)) = a[i1,j1] * b[i2,j2]."""
    return np.kron(as_operator(a), as_operator(b))


def block_diag(a, b) -> np.ndarray:
    """diag(a, b) on the last two axes, zeros elsewhere; any leading axes
    (a stack of unit images) are shared.  The blocks are assigned, not added,
    so every entry, signed zeros included, is copied as it is."""
    *lead, p, q = np.shape(a)
    r, s = np.shape(b)[-2:]
    out = np.zeros((*lead, p + r, q + s), dtype=np.result_type(a, b))
    out[..., :p, :q] = a
    out[..., p:, q:] = b
    return out


def commutator(d, a) -> np.ndarray:
    """d a - a d."""
    d = as_operator(d)
    a = as_operator(a)
    if d.shape != a.shape or d.shape[0] != d.shape[1]:
        raise ValueError(f"dimension mismatch: {d.shape} vs {a.shape}")
    return d @ a - a @ d


def parity_split(m, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Split m into (even, odd) parts w.r.t. a grading gamma.

    even = (m + gamma m gamma)/2 commutes with gamma, odd = m - even
    anticommutes; the two parts sum back to m exactly.
    """
    m = as_operator(m)
    g = as_operator(gamma)
    if not is_grading(g):
        raise ValueError("gamma is not a grading (need g = g*, g^2 = 1)")
    if g.shape != m.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs grading {g.shape}")
    even = (m + g @ m @ g) / 2.0
    odd = m - even
    return even, odd


def matrix_to_json(m: np.ndarray) -> dict:
    """Wire format: {"rows": r, "cols": c, "entries": [[re, im], ...]} row-major."""
    a = as_operator(m)
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def finite_json(obj):
    """obj with every non-finite float written as its string ("inf", "-inf",
    "nan"), recursing into dicts, lists and tuples: ncgp's one encoding of
    values that strict JSON cannot hold."""
    if isinstance(obj, dict):
        return {key: finite_json(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = size(obj["rows"], "rows"), size(obj["cols"], "cols")
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return as_operator(flat.reshape(rows, cols))
