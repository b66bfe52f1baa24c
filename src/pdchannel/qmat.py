"""Dense complex linear-algebra kernel.

Conventions used throughout the package:

* matrices are ``numpy.ndarray`` of ``complex128`` in row-major (C) order
* tensor factors are ordered left factor = slow index, i.e.
  ``kron(a, b)`` puts ``a`` on the slow axis
* vectorization (where needed by callers) is column-major
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

from .config import TOL
from .errors import DimMismatch, NotHermitian, Unsupported


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimMismatch(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise DimMismatch("matrix contains NaN or Inf entries")
    return a


def check_square(m: np.ndarray, dims: Sequence[int] | None = None) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected square matrix, got {m.shape}")
    if dims is not None and prod(dims) != m.shape[0]:
        raise DimMismatch(f"dims {tuple(dims)} inconsistent with side {m.shape[0]}")
    return m


def check_square_stack(m) -> np.ndarray:
    """One matrix through :func:`check_square`, or a stack of square
    matrices along leading axes. A stack comes from the package's own
    batched loops, which build their matrices themselves, so only its shape
    is checked."""
    if np.ndim(m) <= 2:
        return check_square(m)
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        raise DimMismatch(f"expected a stack of square matrices, got {m.shape}")
    return m


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    Parameters
    ----------
    m : array_like
        Square matrix of side prod(dims).
    dims : sequence of int
        Tensor-factor dimensions, slow to fast.
    keep : iterable of int
        Indices (into dims) of the factors to keep, in their original order.
    """
    dims = tuple(int(d) for d in dims)
    m = check_square(m, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimMismatch(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(dims + dims)
    n_cur = n
    for ax in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + n_cur)
        n_cur -= 1
    d_keep = prod(dims[k] for k in keep) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_transpose(m, dims: Sequence[int], which: int) -> np.ndarray:
    """Partial transpose of a bipartite matrix on factor ``which`` (0 or 1)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise Unsupported("partial_transpose supports exactly two tensor factors")
    m = check_square(m, dims)
    d0, d1 = dims
    t = m.reshape(d0, d1, d0, d1)
    if which == 0:
        t = t.transpose(2, 1, 0, 3)
    elif which == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise DimMismatch(f"which must be 0 or 1, got {which}")
    return t.reshape(d0 * d1, d0 * d1)


def herm_residual(m) -> float:
    m = as_matrix(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns ``(w, v)`` with columns of ``v`` the eigenvectors, so that
    ``m @ v ~= v @ diag(w)``.
    """
    m = check_square(m)
    if herm_residual(m) > TOL.herm_tol:
        raise NotHermitian(f"Hermiticity residual {herm_residual(m):.3e} > {TOL.herm_tol}")
    w, v = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    return w[order].real, v[:, order]


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative singular-value cutoff;
    a zero or empty matrix gives the zero matrix of the transposed shape."""
    return np.linalg.pinv(as_matrix(m), rcond=TOL.pinv_cutoff)


def numerical_rank(spectrum) -> int:
    """Count the entries of a descending spectrum (eigenvalues or singular
    values) above ``TOL.pinv_cutoff`` times its top entry; 0 when the top
    entry is not positive."""
    top = float(spectrum[0]) if len(spectrum) else 0.0
    if top <= 0:
        return 0
    return int(np.sum(spectrum > TOL.pinv_cutoff * top))


def vec(m) -> np.ndarray:
    """Column-major vectorization."""
    return as_matrix(m).flatten(order="F")


def as_pairs(m) -> list:
    """A complex array as nested JSON lists with each entry an [re, im]
    pair, in the array's own layout."""
    m = np.asarray(m)
    return np.stack([m.real, m.imag], axis=-1).tolist()
