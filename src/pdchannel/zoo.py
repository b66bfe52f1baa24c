"""Concrete channels, states, and degrading maps used throughout the
package, plus calibration baselines.

Several printed operator families fail trace preservation as given; those
constructors build the operators verbatim, attach a validation report, and
mark the result FLAGGED instead of silently repairing it. A ``repair=True``
variant rescales by (sum N^dag N)^{-1/2} on the support and, when the given
operators miss part of the input space entirely, completes the kernel with
trace-collecting rank-one terms so the repaired map is genuinely CPTP.
Repaired entries are labeled as such and kept apart from verbatim ones.
"""

from __future__ import annotations

import inspect
import math
import numbers
import operator

import numpy as np

from . import channel as chmod
from . import qmat
from .config import check_side
from .errors import DomainError

SQ2 = math.sqrt(2.0)

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _ket(i: int, d: int) -> np.ndarray:
    v = np.zeros((d, 1), dtype=np.complex128)
    v[i, 0] = 1.0
    return v


def _is_number(value, kind=numbers.Real) -> bool:
    """True for a number of ``kind`` other than a bool, numpy scalars included."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_range(name: str, value, hi: float = 1.0) -> None:
    """Refuse anything but a real ``value`` in [0, hi], NaN included."""
    if not (_is_number(value) and 0 <= value <= hi):
        raise DomainError(f"{name} must be in [0, {hi:g}], got {value!r}")


def _check_index(name: str, value) -> int:
    """``value`` through ``operator.index``, refusing a bool or any non-integer."""
    if not _is_number(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _repair(ch: chmod.KrausChannel, repair: bool) -> chmod.KrausChannel:
    """``ch`` unless ``repair``; then right-rescale by (sum N^dag N)^{-1/2} on
    its support, the span of its top :func:`qmat.numerical_rank`
    eigenvectors, and complete the untouched input subspace with
    trace-collecting terms into |0><0| so the result is TP."""
    if not isinstance(repair, bool):
        raise DomainError(f"repair must be a bool, got {repair!r}")
    if not repair:
        return ch
    s = ch.completeness()
    w, v = (a[..., ::-1] for a in qmat.eigh(s))
    inv_sqrt = np.zeros_like(s)
    rank = qmat.numerical_rank(w)
    for lam, col in zip(w[:rank], v[:, :rank].T):
        inv_sqrt += np.outer(col, col.conj()) / np.sqrt(lam)
    ops = list(ch.kraus @ inv_sqrt)
    for col in v[:, rank:].T:
        ops.append(_ket(0, ch.dim_out) @ col.conj().reshape(1, -1))
    return chmod.KrausChannel(ops, ch.name + " [repaired]")


# ---------------------------------------------------------------------------
# Qutrit entanglement-binding family
# ---------------------------------------------------------------------------


def horodecki_channel(alpha: float = 3.5) -> chmod.KrausChannel:
    """Qutrit channel mixing the identity with the two cyclic-shift
    conjugation families, weights (2/7, alpha/7, (5-alpha)/7)."""
    _check_range("alpha", alpha, 5.0)
    ops = [np.sqrt(2.0 / 7.0) * np.eye(3, dtype=np.complex128)]
    for k in range(3):
        j = (k + 1) % 3
        ops.append(np.sqrt(alpha / 7.0) * (_ket(j, 3) @ _ket(k, 3).conj().T))
    for k in range(3):
        l = (k - 1) % 3
        ops.append(np.sqrt((5.0 - alpha) / 7.0) * (_ket(l, 3) @ _ket(k, 3).conj().T))
    return chmod.KrausChannel(ops, f"horodecki(alpha={alpha})")


def horodecki_state(alpha: float) -> np.ndarray:
    """3(x)3 state: 2/7 maximally entangled + alpha/7 sigma_+ + (5-alpha)/7 sigma_-."""
    _check_range("alpha", alpha, 5.0)
    psi = np.zeros(9, dtype=np.complex128)
    for i in range(3):
        psi[i * 3 + i] = 1.0 / np.sqrt(3.0)
    rho = (2.0 / 7.0) * np.outer(psi, psi.conj())
    for i in range(3):
        m = (i + 1) % 3
        ei = np.kron(_ket(i, 3), _ket(m, 3))
        rho += (alpha / 7.0) / 3.0 * (ei @ ei.conj().T)
        em = np.kron(_ket(m, 3), _ket(i, 3))
        rho += ((5.0 - alpha) / 7.0) / 3.0 * (em @ em.conj().T)
    return rho


# ---------------------------------------------------------------------------
# The 4-dim entanglement-binding map and the flag-extended constructions
# ---------------------------------------------------------------------------


def m_ae_channel(repair: bool = False) -> chmod.KrausChannel:
    """The printed six-operator 4->4 map (indices 0,1,3,4,5,6; no index 2).

    Completeness of the printed set is checked, never assumed; the verbatim
    set fails it, so the verbatim entry is FLAGGED.
    """
    c = 1.0 / (SQ2 + 2.0)
    d5 = np.array(
        [[np.sqrt(SQ2 + 2.0) / 2.0, 0.0], [0.0, np.sqrt(2.0 - SQ2) / 2.0]],
        dtype=np.complex128,
    )
    d6 = np.array(
        [[np.sqrt(2.0 - SQ2) / 2.0, 0.0], [0.0, np.sqrt(SQ2 + 2.0) / 2.0]],
        dtype=np.complex128,
    )
    w56 = np.sqrt(1.0 - 1.0 / (SQ2 + 1.0))
    ops = [
        np.sqrt(c) * np.kron(_I2, _ket(0, 2) @ _ket(0, 2).conj().T),
        np.sqrt(c) * np.kron(_Z, _ket(1, 2) @ _ket(1, 2).conj().T),
        np.sqrt(c / 2.0) * np.kron(_Z, _Y),
        np.sqrt(c / 2.0) * np.kron(_I2, _X),
        w56 * np.kron(_X, d5),
        w56 * np.kron(_Y, d6),
    ]
    ch = chmod.KrausChannel(ops, "m_ae")
    return _repair(ch, repair)


def _flag_sum(x: float, first, second, spread: int = 1) -> list:
    """Kraus operators of rho -> x |0><0| (x) A(rho) + (1-x) |1><1| (x) B(rho),
    flag slow, from the stacks ``first`` of A, each operator weighted by
    sqrt(x / spread), and ``second`` of B; a branch of weight 0 is left out."""
    _check_range("x", x)
    ops = []
    if x > 0:
        ops += [np.sqrt(x / spread) * np.kron(_ket(0, 2), k) for k in first]
    if x < 1:
        ops += [np.sqrt(1.0 - x) * np.kron(_ket(1, 2), k) for k in second]
    return ops


def composite_complementary(x: float = 0.75, repair: bool = False) -> chmod.KrausChannel:
    """4->8 flag construction: x |0><0| (x) rho + (1-x) |1><1| (x) m_ae(rho)."""
    ops = _flag_sum(x, [np.eye(4, dtype=np.complex128)], m_ae_channel(repair=repair).kraus)
    name = f"composite_complementary(x={x})" + (" [repaired]" if repair else "")
    return chmod.KrausChannel(ops, name)


def nab_ae_channel(x: float = 0.75) -> chmod.KrausChannel:
    """4->12 flag direct sum around the isometric 4->6 embedding; the
    x-branch replaces the input with the maximally mixed 6-dim state.

    x >= 1/2 is the anti-degradable regime; x < 1/2 builds the same map as
    the variant whose complementary is read against the degraded
    environment.
    """
    units = np.eye(24, dtype=np.complex128).reshape(24, 6, 4)
    return chmod.KrausChannel(_flag_sum(x, units, [np.eye(6, 4)], spread=6), f"nab_ae(x={x})")


def d_e_to_eprime(a1: float = 1.0 / SQ2, a2: float = 1.0 / SQ2, repair: bool = False) -> chmod.KrausChannel:
    """The printed 8->2 two-operator degrading map.

    The printed pair only touches the first two input columns, so the
    verbatim entry cannot be TP and ships FLAGGED; the repaired variant
    adds the kernel completion.
    """
    _check_range("a1", a1)
    _check_range("a2", a2)
    ops = np.zeros((2, 2, 8), dtype=np.complex128)
    ops[:, [0, 1], [0, 1]] = np.sqrt([[a1, a2], [1.0 - a1, 1.0 - a2]])
    ch = chmod.KrausChannel(ops, f"d_e_to_eprime(a1={a1},a2={a2})")
    return _repair(ch, repair)


def d_b_to_eprime(x: float = 0.75) -> chmod.KrausChannel:
    """Best-effort verbatim 12->2 map from the printed operator family.

    The printed shapes do not reconcile (a 2x2 selector tensored with 2x4
    blocks inside a 12-column operator), so the blocks are placed on the
    flag-0 columns; the entry is FLAGGED and kept for inspection only.
    """
    if not (_is_number(x) and 0 < x <= 1 and np.isfinite(2.0 / x)):
        raise DomainError(f"x must be in (0, 1] with 2 / x, the scale of sum_i N_i^dag N_i, finite; got {x!r}")
    ops = np.zeros((14, 2, 12), dtype=np.complex128)
    ops[range(6), 0, range(6, 12)] = 1.0  # |0><6 + j|, the flag-1 block
    # two weight blocks sqrt(w) (|0><0| + |1><1|) on the flag-0 columns, then |0><j|
    coef_b = np.sqrt(complex((1.0 - x) / x))
    for k, w in enumerate((1.0 / SQ2, 1.0 - 1.0 / SQ2)):
        ops[6 + k, [0, 1], [0, 1]] = coef_b * np.sqrt(w)
    ops[range(8, 14), 0, range(6)] = np.sqrt(complex((2.0 * x - 1.0) / x))
    return chmod.KrausChannel(ops, f"d_b_to_eprime(x={x})")


# ---------------------------------------------------------------------------
# Symmetric construction
# ---------------------------------------------------------------------------


def symmetric_isometry() -> np.ndarray:
    """64x4 isometry into the symmetric subspace of an 8(x)8 split: basis
    state i goes to the symmetrized pair (2i, 2i+1)."""
    v = np.zeros((64, 4), dtype=np.complex128)
    for i in range(4):
        a, b = 2 * i, 2 * i + 1
        v[a * 8 + b, i] = 1.0 / SQ2
        v[b * 8 + a, i] = 1.0 / SQ2
    return v


def symmetric_pd_channel() -> chmod.KrausChannel:
    """The 4->8 channel N_AB onto one marginal of the symmetric-subspace
    isometry; swap symmetry makes its complementary, N_AE, equal to it
    operator by operator."""
    t = symmetric_isometry().reshape(8, 8, 4)
    # B is the slow factor; the Kraus index runs over the traced fast one
    return chmod.KrausChannel(t.transpose(1, 0, 2), name="symmetric_pd_ab")


# ---------------------------------------------------------------------------
# Rank-one degrading example
# ---------------------------------------------------------------------------


def _phases(n2: int, n3: int) -> tuple:
    """The printed exponent vector (0, n2, n3), with n2 and n3 in {0, 1, 2, 3}."""
    n_vec = (0, _check_index("n2", n2), _check_index("n3", n3))
    if any(n not in (0, 1, 2, 3) for n in n_vec):
        raise DomainError("n2, n3 must be in {0, 1, 2, 3}")
    return n_vec


def corollary4_degrading_map(n2: int = 0, n3: int = 0) -> chmod.KrausChannel:
    """Qutrit degrading map: three 1/sqrt(4)-weighted diagonal projectors
    plus two 1/sqrt(64)-weighted phase-vector projectors (built verbatim,
    completeness reported by the validator)."""
    n_vec = _phases(n2, n3)
    ops = [0.5 * (_ket(j, 3) @ _ket(j, 3).conj().T) for j in range(3)]
    gamma = np.array([1j ** n for n in n_vec], dtype=np.complex128).reshape(3, 1)
    kappa = np.array(
        [complex(-1.0) ** (n / 2.0) for n in n_vec], dtype=np.complex128
    ).reshape(3, 1)
    # bras as printed (no conjugation applied to the phase factors)
    ops.append((1.0 / 8.0) * (gamma @ gamma.reshape(1, 3)))
    ops.append((1.0 / 8.0) * (kappa @ kappa.reshape(1, 3)))
    return chmod.KrausChannel(ops, f"corollary4_degrading(n={n_vec})")


def corollary4_rank_one_channel(n2: int = 0, n3: int = 0) -> chmod.KrausChannel:
    """Qutrit map from six rank-one operators: 1/sqrt(4) diagonal projectors
    and 1/sqrt(64) products of the printed phase-vector dyads."""
    n_vec = _phases(n2, n3)
    ops = [0.5 * (_ket(j, 3) @ _ket(j, 3).conj().T) for j in range(3)]
    for j, n in enumerate(n_vec):
        ups = (1j**n) * _ket(j, 3)
        theta = (complex(-1.0) ** (n / 2.0)) * _ket(j, 3)
        dyad = (ups @ ups.reshape(1, 3)) @ (theta @ theta.reshape(1, 3))
        ops.append((1.0 / 8.0) * dyad)
    return chmod.KrausChannel(ops, f"corollary4_rank_one(n={n_vec})")


# ---------------------------------------------------------------------------
# Calibration baselines
# ---------------------------------------------------------------------------


def _check_side(d: int, extra_out: int = 0) -> int:
    """``d`` as an int: a baseline of input side d and output side d +
    ``extra_out`` needs d >= 1 and a Choi side within the side cap."""
    d = _check_index("d", d)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    check_side(f"baseline of d = {d}", d * (d + extra_out))
    return d


def erasure(p: float = 0.25, d: int = 2) -> chmod.KrausChannel:
    _check_range("p", p)
    d = _check_side(d, 1)
    embed = np.zeros((d + 1, d), dtype=np.complex128)
    embed[:d, :d] = np.eye(d)
    ops = [np.sqrt(1.0 - p) * embed]
    for k in range(d):
        ops.append(np.sqrt(p) * (_ket(d, d + 1) @ _ket(k, d).conj().T))
    return chmod.KrausChannel(ops, f"erasure(p={p},d={d})")


def depolarizing(p: float = 0.5, d: int = 2) -> chmod.KrausChannel:
    _check_range("p", p)
    d = _check_side(d)
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            w = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            if a == 0 and b == 0:
                ops.append(np.sqrt(1.0 - p + p / d**2) * w)
            else:
                ops.append((np.sqrt(p) / d) * w)
    return chmod.KrausChannel(ops, f"depolarizing(p={p},d={d})")


def amplitude_damping(gamma: float = 0.2) -> chmod.KrausChannel:
    _check_range("gamma", gamma)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return chmod.KrausChannel([k0, k1], f"amplitude_damping(gamma={gamma})")


def dephasing(p: float = 0.3) -> chmod.KrausChannel:
    _check_range("p", p)
    return chmod.KrausChannel([np.sqrt(1.0 - p) * _I2, np.sqrt(p) * _Z], f"dephasing(p={p})")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_REGISTRY = {
    "horodecki": (horodecki_channel, "qutrit entanglement-binding mixture"),
    "m_ae": (m_ae_channel, "printed six-operator 4->4 map; verbatim set fails completeness"),
    "composite_complementary": (composite_complementary, "4->8 flag construction over m_ae"),
    "nab_ae": (nab_ae_channel, "4->12 flag direct sum with isometric inner block"),
    "d_e_to_eprime": (
        d_e_to_eprime,
        "printed 8->2 degrading pair; covers only two input columns as printed",
    ),
    "d_b_to_eprime": (d_b_to_eprime, "best-effort 12->2 family; printed shapes do not reconcile"),
    "symmetric_pd": (symmetric_pd_channel, "4->8 marginal channel of the symmetric-subspace isometry"),
    "corollary4_degrading": (
        corollary4_degrading_map,
        "qutrit degrading map with printed 1/2 and 1/8 weights",
    ),
    "corollary4_rank_one": (
        corollary4_rank_one_channel,
        "six rank-one operators; completeness reported, not assumed",
    ),
    "erasure": (erasure, "baseline"),
    "depolarizing": (depolarizing, "baseline"),
    "amplitude_damping": (amplitude_damping, "baseline"),
    "dephasing": (dephasing, "baseline"),
}


def zoo_ids() -> list:
    return sorted(_REGISTRY)


def _defaults(builder) -> dict:
    """The builder's parameters, in signature order, each with its default."""
    return {k: p.default for k, p in inspect.signature(builder).parameters.items()}


def parameter_types() -> dict:
    """The type of each entry parameter's default, by parameter name in
    sorted order; a name shared by several entries has one type."""
    types = {k: type(v) for builder, _ in _REGISTRY.values() for k, v in _defaults(builder).items()}
    return dict(sorted(types.items()))


def build_entry(entry_id: str, **params) -> tuple:
    """Build entry ``entry_id`` with ``params`` over its builder's defaults.
    Returns ``(report, channel)``: the report ``zoo export`` prints, and the channel.
    A value not of its default's type, bar an int for a float, raises :class:`DomainError`."""
    if entry_id not in _REGISTRY:
        raise DomainError(f"unknown zoo id: {entry_id}")
    builder, notes = _REGISTRY[entry_id]
    merged = _defaults(builder)
    for key, value in params.items():
        if key not in merged:
            raise DomainError(f"unknown parameter {key!r} for {entry_id}")
        kind = type(merged[key])
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise DomainError(f"parameter {key!r} of {entry_id} must be {kind.__name__}, got {value!r}")
        merged[key] = kind(value)
    ch = builder(**merged)
    validation = chmod.validate(ch)
    report = {
        "id": entry_id,
        "params": merged,
        "name": ch.name,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus_count": len(ch.kraus),
        "validation": validation,
        "status": "FLAGGED" if validation["flagged"] else "OK",
        "notes": notes,
    }
    return report, ch


def list_entries() -> list:
    return [build_entry(entry_id)[0] for entry_id in zoo_ids()]
