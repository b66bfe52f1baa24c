"""Dense complex linear-algebra kernel.

Conventions used throughout the package:

* matrices are ``numpy.ndarray`` of ``complex128`` in row-major (C) order
* tensor factors are ordered left factor = slow index, i.e.
  ``kron(a, b)`` puts ``a`` on the slow axis
* vectorization (where needed by callers) is column-major
"""

from __future__ import annotations

import operator
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .config import TOL
from .errors import DimMismatch, NotHermitian


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting any other rank and
    non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimMismatch(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise DimMismatch("matrix contains NaN or Inf entries")
    return a


def check_square(m) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected square matrix, got {m.shape}")
    return m


def _integers(values, what: str) -> tuple[int, ...]:
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise DimMismatch(f"{what} must be a sequence of integers, got {values!r}") from None


def check_factors(m, dims: Sequence[int], count: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """``(m, dims)`` of a square matrix and its tensor-factor annotation, the
    package's one reader of one: :class:`DimMismatch` unless the factors are
    integers >= 1, ``count`` of them when given, whose product is the side."""
    dims = _integers(dims, "dims")
    if count is not None and len(dims) != count:
        raise DimMismatch(f"dims {dims} have {len(dims)} factors, expected {count}")
    m = check_square(m)
    if min(dims, default=1) < 1 or prod(dims) != m.shape[0]:
        raise DimMismatch(f"dims {dims} are not factors >= 1 of side {m.shape[0]}")
    return m, dims


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
    m, dims = check_factors(m, dims)
    n = len(dims)
    keep = sorted(set(_integers(keep, "keep indices")))
    if any(k < 0 or k >= n for k in keep):
        raise DimMismatch(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(dims + dims)
    n_cur = n
    for ax in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + n_cur)
        n_cur -= 1
    d_keep = prod(dims[k] for k in keep) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_transpose(m, dims: Sequence[int]) -> np.ndarray:
    """Partial transpose of a bipartite matrix on its first factor; the
    transpose of the result is the partial transpose on the second."""
    m, (d0, d1) = check_factors(m, dims, 2)
    return m.reshape(d0, d1, d0, d1).transpose(2, 1, 0, 3).reshape(d0 * d1, d0 * d1)


def check_hermitian(m) -> np.ndarray:
    """:func:`check_square`, then :class:`NotHermitian` when some entry of
    |m - m^dagger| exceeds ``TOL.herm_tol``: the check of outside matrices."""
    m = check_square(m)
    residual = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if residual > TOL.herm_tol:
        raise NotHermitian(f"Hermiticity residual {residual:.3e} > {TOL.herm_tol}")
    return m


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """``(w, v)`` of the Hermitian part m / 2 + m^dagger / 2, whose sum of halves
    cannot overflow, of a matrix or a stack along leading axes, unchecked: eigenvalues
    ascending, eigenvectors the columns of ``v``. The package's one eigensolver."""
    m = np.asarray(m)
    return np.linalg.eigh(m / 2 + m.conj().swapaxes(-1, -2) / 2)


def eigvalsh(m) -> np.ndarray:
    """The eigenvalues of :func:`eigh`'s Hermitian part, without the eigenvectors."""
    m = np.asarray(m)
    return np.linalg.eigvalsh(m / 2 + m.conj().swapaxes(-1, -2) / 2)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative singular-value cutoff;
    a zero or empty matrix gives the zero matrix of the transposed shape."""
    return np.linalg.pinv(as_matrix(m), rcond=TOL.pinv_cutoff)


def numerical_rank(spectrum) -> int:
    """Count the entries of a spectrum (eigenvalues or singular values, in
    any order) above ``TOL.pinv_cutoff`` times its largest entry; 0 when
    that entry is not positive."""
    top = float(np.max(spectrum)) if len(spectrum) else 0.0
    if top <= 0:
        return 0
    return int(np.sum(spectrum > TOL.pinv_cutoff * top))


def as_pairs(m) -> list:
    """A complex array as nested JSON lists with each entry an [re, im]
    pair, in the array's own layout."""
    m = np.asarray(m)
    return np.stack([m.real, m.imag], axis=-1).tolist()
