"""Density-matrix functionals: entropies, PPT / realignment tests,
entanglement-breaking and bound-entanglement reporting.

States are plain square arrays; the bipartite tests take the factor
dimensions ``dims`` alongside. All entropies are in bits (log base 2).
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from . import channel as chmod
from . import qmat
from .config import TOL
from .errors import NotDensityMatrix

# eigenvalue clamping window applied before entropy logs; anything outside
# it means the input was not a density matrix to begin with
_CLAMP = 1e-9


def clamped(w: np.ndarray) -> np.ndarray:
    """A spectrum, or a stack of spectra along the last axis, held to the
    clamping window: clipped to [0, 1]. An eigenvalue more than ``_CLAMP``
    outside it, or a spectrum of d values whose sum is more than
    d * ``_CLAMP`` away from 1, raises :class:`NotDensityMatrix`, and so
    does an empty spectrum."""
    if w.size == 0:
        raise NotDensityMatrix("empty spectrum: a 0 x 0 matrix is no state")
    if w.min() < -_CLAMP or w.max() > 1.0 + _CLAMP:
        raise NotDensityMatrix(
            f"eigenvalues [{w.min():.3e}, {w.max():.3e}] outside clamping window"
        )
    trace_gap = np.max(np.abs(w.sum(axis=-1) - 1.0))
    if trace_gap > w.shape[-1] * _CLAMP:
        raise NotDensityMatrix(f"trace off 1 by {trace_gap:.3e}")
    return np.clip(w, 0.0, 1.0)


def _log2(w: np.ndarray) -> np.ndarray:
    """log2 of a clamped spectrum, 0 on its zeros (the 0 log 0 = 0 convention)."""
    return np.log2(w, out=np.zeros_like(w), where=w > 0)


def entropy(rho) -> float:
    """Von Neumann entropy in bits, with 0 log 0 = 0; rho is checked Hermitian."""
    w = clamped(qmat.eigvalsh(qmat.check_hermitian(rho)))
    return float(-np.sum(w * _log2(w)))


def entropy_and_log2(rho) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Von Neumann entropy in bits, the matrix log2(rho) and the clamped
    eigenvalues, ascending, all from one eigendecomposition under the
    clamping window of :func:`entropy`.

    ``rho`` is one state, checked by :func:`qmat.check_hermitian`, or a stack
    of states along leading axes, which the package's own batched loops
    build, so it is taken as it is; for a stack the entropies come as an
    array over those axes, the logarithms and spectra as stacks, and every
    spectrum is held to the window. The logarithm is taken on the support
    and set to 0 on the kernel, so it is always finite; whether there is a
    kernel only the spectrum shows.
    """
    rho = qmat.check_hermitian(rho) if np.ndim(rho) <= 2 else np.asarray(rho)
    w, v = qmat.eigh(rho)
    w = clamped(w)
    log_w = _log2(w)
    return -np.sum(w * log_w, axis=-1), (v * log_w[..., None, :]) @ v.conj().swapaxes(-1, -2), w


def ppt_check(rho, dims: Sequence[int]) -> dict:
    """The least eigenvalues of both partial transposes of a bipartite state,
    checked Hermitian: ``min_eig_ta`` and ``min_eig_tb``, one eigensolve as
    rho^{T_B} is the transpose of rho^{T_A}, and ``is_ppt``: both >= ``TOL.psd_tol``."""
    ta = float(qmat.eigvalsh(qmat.partial_transpose(qmat.check_hermitian(rho), dims))[0])
    return {"min_eig_ta": ta, "min_eig_tb": ta, "is_ppt": ta >= TOL.psd_tol}


def realign(rho, dims: Sequence[int]) -> np.ndarray:
    """Realigned matrix R with R[(i,k),(j,l)] = rho[(i,j),(k,l)]."""
    mat, (d0, d1) = qmat.check_factors(rho, dims, 2)
    t = mat.reshape(d0, d1, d0, d1)  # indices (i, j, k, l)
    return t.transpose(0, 2, 1, 3).reshape(d0 * d0, d1 * d1)


def ccnr(rho, dims: Sequence[int]) -> float:
    """Trace norm of the realigned matrix; a value > 1 certifies entanglement."""
    s = np.linalg.svd(realign(rho, dims), compute_uv=False)
    return float(np.sum(s))


def bound_entanglement_report(rho, dims: Sequence[int]) -> dict:
    """The PPT report of a bipartite state (:func:`ppt_check`), its CCNR
    value, and ``flagged_bound_entangled``: PPT yet CCNR above
    1 + ``TOL.residual_tol``, so entangled without being distillable."""
    ppt, value = ppt_check(rho, dims), ccnr(rho, dims)
    return {
        "ppt": ppt,
        "ccnr_value": value,
        "flagged_bound_entangled": ppt["is_ppt"] and value > 1.0 + TOL.residual_tol,
    }


def _all_rank_one(ops: np.ndarray) -> bool:
    """Whether every operator of a (K, m, n) stack has numerical rank <= 1."""
    return all(qmat.numerical_rank(s) <= 1 for s in np.linalg.svd(ops, compute_uv=False))


def is_entanglement_breaking(ch: chmod.KrausChannel) -> dict:
    """Decide entanglement breaking where the computable criteria allow;
    returns ``{verdict, witness}`` with the verdict one of:

    yes: a rank-one Kraus decomposition is exhibited (given set or Choi
    eigenvectors), or the Choi is PPT on dims small enough (d_in * d_out <= 6)
    for PPT to imply separability.
    no: the Choi is NPT.
    undetermined: everything else.
    """
    if _all_rank_one(ch.kraus):
        return dict(verdict="yes", witness="all given Kraus operators are rank one")
    choi = chmod.to_choi(ch)
    dims = (ch.dim_in, ch.dim_out)
    ppt = ppt_check(choi, dims)
    if not ppt["is_ppt"]:
        return dict(verdict="no", witness=f"Choi is NPT (min PT eigenvalue {ppt['min_eig_ta']:.3e})")
    if _all_rank_one(chmod.kraus_from_choi(choi, ch.dim_in, ch.dim_out)):
        return dict(
            verdict="yes", witness="Choi eigendecomposition yields rank-one Kraus operators"
        )
    if prod(dims) <= 6:
        return dict(
            verdict="yes",
            witness="Choi PPT with d_in*d_out <= 6 (PPT is sufficient for separability)",
        )
    value = ccnr(choi, dims)
    if value > 1.0 + TOL.residual_tol:
        # PPT yet realignment-entangled Choi: binding, not breaking
        return dict(verdict="no", witness=f"Choi PPT but CCNR = {value:.6f} > 1")
    return dict(
        verdict="undetermined",
        witness=f"Choi PPT, CCNR = {value:.6f} <= 1, dims too large for PPT sufficiency",
    )
