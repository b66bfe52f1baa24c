"""Quantum channel representations and structural conversions.

A channel is carried as a :class:`KrausChannel`: one stacked
``(K, d_out, d_in)`` array of operators N_i with sum_i N_i^dag N_i = I.
Every other representation is one array expression on that stack: the
Stinespring isometry is a reshape, the complementary channel a transpose,
and the Choi matrix and the action one matrix product that sums over the
Kraus index. The environment basis is the Kraus index basis, so results are
reproducible.
"""

from __future__ import annotations

import json

import numpy as np

from . import qmat
from .config import TOL, check_side
from .errors import DimMismatch, NotTracePreserving


class KrausChannel:
    """CP map in Kraus form, carried as one stacked array.

    ``kraus`` is a complex128 array of shape (K, dim_out, dim_in) whose
    slice ``kraus[i]`` is the operator N_i; any sequence of equally shaped
    matrices is accepted and stacked. ``dim_env``, ``dim_out`` and
    ``dim_in`` are read off that shape.
    """

    def __init__(self, kraus, name: str = ""):
        try:
            ops = np.ascontiguousarray(kraus, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise DimMismatch(f"Kraus operators do not stack: {exc}") from exc
        if ops.ndim != 3 or 0 in ops.shape:
            raise DimMismatch(f"channel needs a (K, d_out, d_in) stack with no zero axis, got {ops.shape}")
        self.kraus = ops
        self.dim_env, self.dim_out, self.dim_in = ops.shape
        # not finite when an entry is not, or is past about 1e154, where squares overflow
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.completeness())):
                raise DimMismatch("Kraus operators contain NaN or Inf entries, or sum_i N_i^dag N_i overflows")
        self.name = name

    @property
    def flagged(self) -> bool:
        """True when the operator set fails trace preservation as given;
        flagged channels are never silently repaired."""
        return self.tp_residual() > TOL.residual_tol

    def completeness(self) -> np.ndarray:
        """sum_i N_i^dag N_i (should be the identity for a TP channel)."""
        return (self.kraus.conj().transpose(0, 2, 1) @ self.kraus).sum(axis=0)

    def tp_residual(self) -> float:
        return float(np.max(np.abs(self.completeness() - np.eye(self.dim_in))))


def inspect(ch: KrausChannel) -> dict:
    """The ``inspect`` report: shape, trace preservation, and the least
    eigenvalue and numerical rank of the Choi matrix, both from one
    eigendecomposition."""
    w, _ = qmat.eigh(to_choi(ch))
    rank = qmat.numerical_rank(w)
    return {
        "name": ch.name,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus_count": len(ch.kraus),
        "tp_residual": ch.tp_residual(),
        "choi_min_eig": float(w[0]),
        "choi_rank": rank,
        "flagged": ch.flagged,
        # the minimal environment never exceeds the input-output product
        "dim_product_bound_ok": ch.dim_in * ch.dim_out >= rank,
    }


def validate(ch: KrausChannel) -> dict:
    """Report trace preservation and Choi positivity as {tp_residual, cp_ok,
    choi_min_eig, flagged}, read from :func:`inspect` (Kraus form is CP by
    construction); never raises on TP failure."""
    report = {**inspect(ch), "cp_ok": True}
    return {k: report[k] for k in ("tp_residual", "cp_ok", "choi_min_eig", "flagged")}


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """N(rho) = sum_k (N_k rho) N_k^dag for one state, as one product over
    the pairs (k, column), so no (K, d_out, d_out) stack is built."""
    rho = qmat.check_square(rho)
    if rho.shape[0] != ch.dim_in:
        raise DimMismatch(f"state side {rho.shape[0]} != channel dim_in {ch.dim_in}")
    left = (ch.kraus @ rho).transpose(1, 0, 2).reshape(ch.dim_out, -1)
    right = ch.kraus.transpose(1, 0, 2).reshape(ch.dim_out, -1)
    return left @ right.conj().T


def _require_tp(ch: KrausChannel) -> None:
    if ch.flagged:
        raise NotTracePreserving(f"tp_residual {ch.tp_residual():.3e} > {TOL.residual_tol}")


def stinespring(ch: KrausChannel) -> np.ndarray:
    """V = sum_i N_i (x) |i>_E as a (dim_out * dim_env) x dim_in array,
    output factor slow; environment basis = Kraus index basis."""
    _require_tp(ch)
    return ch.kraus.transpose(1, 0, 2).reshape(ch.dim_out * ch.dim_env, ch.dim_in)


def complementary(ch: KrausChannel) -> KrausChannel:
    """Channel to the environment: rho -> Tr_B(V rho V^dag) in Kraus form.

    The Kraus operators M_b (one per output-basis index b of the original
    channel) have entries (M_b)[i, a] = (N_i)[b, a].
    """
    _require_tp(ch)
    return KrausChannel(
        ch.kraus.transpose(1, 0, 2),
        name=f"complementary({ch.name})" if ch.name else "complementary",
    )


def to_choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix (I (x) N) on the maximally entangled input, normalized by
    1/dim_in so that it has trace 1 when N is trace preserving.

    Factor order is input (slow) then output (fast). Trace preservation is
    not checked: a flagged channel has a Choi matrix of another trace. A
    side dim_in * dim_out above the side cap raises :class:`SizeLimit`
    before anything is built (:func:`config.check_side`).
    """
    d_a, d_b = ch.dim_in, ch.dim_out
    check_side("Choi matrix", d_a * d_b)
    # (I (x) N)|Psi><Psi| = (1/d_a) sum_k w_k w_k^dag with w_k[(a, b)] = N_k[b, a]:
    # one matmul sums over k, so no (K, d_a d_b, d_a d_b) stack is ever built
    w = ch.kraus.transpose(0, 2, 1).reshape(ch.dim_env, d_a * d_b)
    return (w.T @ w.conj()) / d_a


def kraus_from_choi(matrix: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Extract a (K, dim_out, dim_in) Kraus stack from the unnormalized Choi
    matrix. A normalized one, as :func:`to_choi` returns, gives the operators
    scaled by 1/sqrt(dim_in); ``is_entanglement_breaking`` reads only ranks.

    Assumes input-slow/output-fast factor order. The top
    :func:`qmat.numerical_rank` eigenpairs of its Hermitian part, largest
    first, give the operators; the rest, negative tails included, are dropped.
    """
    w, v = (a[..., ::-1] for a in qmat.eigh(matrix))
    r = qmat.numerical_rank(w)
    if r == 0:
        return np.zeros((1, dim_out, dim_in), dtype=np.complex128)
    cols = v[:, :r] * np.sqrt(w[:r])
    return cols.T.reshape(r, dim_in, dim_out).transpose(0, 2, 1)


def _pruned(ops: np.ndarray, dim_out: int, dim_in: int) -> np.ndarray:
    """Drop numerically-zero operators from a (K, dim_out, dim_in) stack by
    the relative rule of :func:`qmat.numerical_rank`: an operator stays when
    its Frobenius norm is above ``TOL.pinv_cutoff`` times the largest."""
    ops = ops.reshape(-1, dim_out, dim_in)
    norms = np.linalg.norm(ops, axis=(1, 2))
    ops = ops[norms > TOL.pinv_cutoff * norms.max()]
    return ops if len(ops) else np.zeros((1, dim_out, dim_in), dtype=np.complex128)


def compose(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Sequential composition; ``first`` is applied first."""
    if first.dim_out != then.dim_in:
        raise DimMismatch(
            f"cannot compose: first.dim_out={first.dim_out} != then.dim_in={then.dim_in}"
        )
    ops = then.kraus[:, None] @ first.kraus[None, :]  # [m, n] = M_m N_n
    return KrausChannel(
        _pruned(ops, then.dim_out, first.dim_in),
        name=f"{first.name};{then.name}" if first.name or then.name else "",
    )


def tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    check_side("tensor product", a.dim_out * b.dim_out, a.dim_in * b.dim_in)
    # [i, j, r, s, c, t] = A_i[r, c] B_j[s, t], i.e. kron(A_i, B_j)
    ops = a.kraus[:, None, :, None, :, None] * b.kraus[None, :, None, :, None, :]
    d_out, d_in = a.dim_out * b.dim_out, a.dim_in * b.dim_in
    return KrausChannel(
        _pruned(ops, d_out, d_in),
        name=f"{a.name}(x){b.name}" if a.name or b.name else "",
    )


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel([np.eye(d)], name=f"identity_{d}")


# ---------------------------------------------------------------------------
# Channel JSON interchange format
# ---------------------------------------------------------------------------
# {"name": str, "dim_in": int, "dim_out": int,
#  "kraus": [[[[re, im], ...cols], ...rows], ...ops]}


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "name": ch.name,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": qmat.as_pairs(ch.kraus),
    }


def channel_from_dict(d) -> KrausChannel:
    """Channel from a record as written by :func:`channel_to_dict`; a
    record that does not fit that format raises :class:`DimMismatch`."""
    if not isinstance(d, dict):
        raise DimMismatch(f"malformed channel record: expected an object, got {type(d).__name__}")
    try:
        dim_in, dim_out, raw = d["dim_in"], d["dim_out"], d["kraus"]
    except KeyError as exc:
        raise DimMismatch(f"malformed channel record: {exc}") from exc
    name = d.get("name", "")
    if not isinstance(name, str):
        raise DimMismatch(f"malformed channel record: name is a {type(name).__name__}, not a string")
    for key, dim in (("dim_in", dim_in), ("dim_out", dim_out)):
        # JSON booleans load as bool, a subclass of int
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise DimMismatch(f"malformed channel record: {key} {dim!r} is not an integer")
    if not isinstance(raw, list):
        raise DimMismatch(f"malformed channel record: kraus is a {type(raw).__name__}, not a list")
    ops = []
    for idx, op in enumerate(raw):
        try:
            a = np.asarray(op, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimMismatch(f"kraus[{idx}] is not an array of numbers: {exc}") from exc
        if a.ndim != 3 or a.shape != (dim_out, dim_in, 2):
            raise DimMismatch(
                f"kraus[{idx}] has shape {a.shape}, expected ({dim_out}, {dim_in}, 2)"
            )
        # checked before the parts combine, where an infinite part would warn
        if not np.all(np.isfinite(a)):
            raise DimMismatch(f"kraus[{idx}] contains NaN or Inf entries")
        ops.append(a[..., 0] + 1j * a[..., 1])
    return KrausChannel(ops, name=name)


def save_channel(ch: KrausChannel, path: str) -> None:
    with open(path, "w") as f:
        json.dump(channel_to_dict(ch), f, indent=2, sort_keys=True)
        f.write("\n")


def load_channel(path: str) -> KrausChannel:
    with open(path) as f:
        return channel_from_dict(json.load(f))
