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

import math

import numpy as np

from . import channel as chmod
from . import qmat
from .config import max_dim
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


def _repair(ch: chmod.KrausChannel) -> chmod.KrausChannel:
    """Right-rescale by (sum N^dag N)^{-1/2} on its support, the span of its
    top :func:`qmat.numerical_rank` eigenvectors; complete the untouched
    input subspace with trace-collecting terms into |0><0| so the result
    is TP."""
    s = ch.completeness()
    w, v = qmat.eigh(s)
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


def horodecki_channel(alpha: float) -> chmod.KrausChannel:
    """Qutrit channel mixing the identity with the two cyclic-shift
    conjugation families, weights (2/7, alpha/7, (5-alpha)/7)."""
    if not 0.0 <= alpha <= 5.0:
        raise DomainError(f"alpha must be in [0, 5], got {alpha}")
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
    if not 0.0 <= alpha <= 5.0:
        raise DomainError(f"alpha must be in [0, 5], got {alpha}")
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
    return _repair(ch) if repair else ch


def _flag_sum(x: float, first, second, spread: int = 1) -> list:
    """Kraus operators of rho -> x |0><0| (x) A(rho) + (1-x) |1><1| (x) B(rho),
    flag slow, from the stacks ``first`` of A, each operator weighted by
    sqrt(x / spread), and ``second`` of B; a branch of weight 0 is left out."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must be in [0, 1], got {x}")
    ops = []
    if x > 0:
        ops += [np.sqrt(x / spread) * np.kron(_ket(0, 2), k) for k in first]
    if x < 1:
        ops += [np.sqrt(1.0 - x) * np.kron(_ket(1, 2), k) for k in second]
    return ops


def composite_complementary(x: float, repair: bool = False) -> chmod.KrausChannel:
    """4->8 flag construction: x |0><0| (x) rho + (1-x) |1><1| (x) m_ae(rho)."""
    ops = _flag_sum(x, [np.eye(4, dtype=np.complex128)], m_ae_channel(repair=repair).kraus)
    name = f"composite_complementary(x={x})" + (" [repaired]" if repair else "")
    return chmod.KrausChannel(ops, name)


def nab_ae_channel(x: float) -> chmod.KrausChannel:
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
    if not (0.0 <= a1 <= 1.0 and 0.0 <= a2 <= 1.0):
        raise DomainError("weights must be in [0, 1]")
    n0 = np.zeros((2, 8), dtype=np.complex128)
    n0[0, 0] = np.sqrt(a1)
    n0[1, 1] = np.sqrt(a2)
    n1 = np.zeros((2, 8), dtype=np.complex128)
    n1[0, 0] = np.sqrt(1.0 - a1)
    n1[1, 1] = np.sqrt(1.0 - a2)
    ch = chmod.KrausChannel([n0, n1], f"d_e_to_eprime(a1={a1},a2={a2})")
    return _repair(ch) if repair else ch


def d_b_to_eprime(x: float) -> chmod.KrausChannel:
    """Best-effort verbatim 12->2 map from the printed operator family.

    The printed shapes do not reconcile (a 2x2 selector tensored with 2x4
    blocks inside a 12-column operator), so the blocks are placed on the
    flag-0 columns; the entry is FLAGGED and kept for inspection only.
    """
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must be in (0, 1], got {x}")
    blocks = []
    for w1, w2 in ((1.0 / SQ2, 1.0 / SQ2), (1.0 - 1.0 / SQ2, 1.0 - 1.0 / SQ2)):
        b = np.zeros((2, 4), dtype=np.complex128)
        b[0, 0] = np.sqrt(w1)
        b[1, 1] = np.sqrt(w2)
        blocks.append(b)
    ops = []
    for j in range(6):
        a = np.zeros((2, 12), dtype=np.complex128)
        a[0, 6 + j] = 1.0  # flag-1 block, column j
        ops.append(a)
    coef_b = np.sqrt(complex((1.0 - x) / x))
    for b in blocks:
        op = np.zeros((2, 12), dtype=np.complex128)
        op[:, : b.shape[1]] = coef_b * b
        ops.append(op)
    coef_c = np.sqrt(complex((2.0 * x - 1.0) / x))
    for j in range(6):
        c = np.zeros((2, 12), dtype=np.complex128)
        c[0, j] = coef_c
        ops.append(c)
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


def symmetric_pd_channel() -> tuple:
    """Channel pair (4->8, 4->8) whose outputs are the two marginals of a
    symmetric-subspace isometry; swap symmetry makes them equal in action."""
    v = symmetric_isometry()
    t = v.reshape(8, 8, 4)
    # the Kraus index is the traced factor: fast for B, slow for E
    n_ab = chmod.KrausChannel(t.transpose(1, 0, 2), name="symmetric_pd_ab")
    n_ae = chmod.KrausChannel(t, name="symmetric_pd_ae")
    return n_ab, n_ae


# ---------------------------------------------------------------------------
# Rank-one degrading example
# ---------------------------------------------------------------------------


def _check_n_vec(n_vec):
    n_vec = tuple(int(n) for n in n_vec)
    if len(n_vec) != 3 or n_vec[0] != 0:
        raise DomainError("n_vec must be (0, n2, n3)")
    if any(n not in (0, 1, 2, 3) for n in n_vec[1:]):
        raise DomainError("n2, n3 must be in {0, 1, 2, 3}")
    return n_vec


def corollary4_degrading_map(n_vec=(0, 0, 0)) -> chmod.KrausChannel:
    """Qutrit degrading map: three 1/sqrt(4)-weighted diagonal projectors
    plus two 1/sqrt(64)-weighted phase-vector projectors (built verbatim,
    completeness reported by the validator)."""
    n_vec = _check_n_vec(n_vec)
    ops = [0.5 * (_ket(j, 3) @ _ket(j, 3).conj().T) for j in range(3)]
    gamma = np.array([1j ** n for n in n_vec], dtype=np.complex128).reshape(3, 1)
    kappa = np.array(
        [complex(-1.0) ** (n / 2.0) for n in n_vec], dtype=np.complex128
    ).reshape(3, 1)
    # bras as printed (no conjugation applied to the phase factors)
    ops.append((1.0 / 8.0) * (gamma @ gamma.reshape(1, 3)))
    ops.append((1.0 / 8.0) * (kappa @ kappa.reshape(1, 3)))
    return chmod.KrausChannel(ops, f"corollary4_degrading(n={n_vec})")


def corollary4_rank_one_channel(n_vec=(0, 0, 0)) -> chmod.KrausChannel:
    """Qutrit map from six rank-one operators: 1/sqrt(4) diagonal projectors
    and 1/sqrt(64) products of the printed phase-vector dyads."""
    n_vec = _check_n_vec(n_vec)
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


def _check_side(d: int, d_out: int) -> None:
    """A baseline of input side d needs d >= 1 and a Choi side d * d_out
    within the side cap; checked before any operator is built."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    cap = max_dim()
    if d * d_out > cap:
        raise DomainError(f"Choi side {d * d_out} of d = {d} exceeds side cap {cap}")


def erasure(p: float, d: int = 2) -> chmod.KrausChannel:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    _check_side(d, d + 1)
    embed = np.zeros((d + 1, d), dtype=np.complex128)
    embed[:d, :d] = np.eye(d)
    ops = [np.sqrt(1.0 - p) * embed]
    for k in range(d):
        ops.append(np.sqrt(p) * (_ket(d, d + 1) @ _ket(k, d).conj().T))
    return chmod.KrausChannel(ops, f"erasure(p={p},d={d})")


def depolarizing(p: float, d: int = 2) -> chmod.KrausChannel:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    _check_side(d, d)
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


def amplitude_damping(gamma: float) -> chmod.KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must be in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return chmod.KrausChannel([k0, k1], f"amplitude_damping(gamma={gamma})")


def dephasing(p: float) -> chmod.KrausChannel:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    return chmod.KrausChannel([np.sqrt(1.0 - p) * _I2, np.sqrt(p) * _Z], f"dephasing(p={p})")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_REGISTRY = {
    "horodecki": (
        horodecki_channel,
        {"alpha": 3.5},
        "qutrit entanglement-binding mixture",
    ),
    "m_ae": (
        m_ae_channel,
        {"repair": False},
        "printed six-operator 4->4 map; verbatim set fails completeness",
    ),
    "composite_complementary": (
        composite_complementary,
        {"x": 0.75, "repair": False},
        "4->8 flag construction over m_ae",
    ),
    "nab_ae": (
        nab_ae_channel,
        {"x": 0.75},
        "4->12 flag direct sum with isometric inner block",
    ),
    "d_e_to_eprime": (
        d_e_to_eprime,
        {"a1": 1.0 / SQ2, "a2": 1.0 / SQ2, "repair": False},
        "printed 8->2 degrading pair; covers only two input columns as printed",
    ),
    "d_b_to_eprime": (
        d_b_to_eprime,
        {"x": 0.75},
        "best-effort 12->2 family; printed shapes do not reconcile",
    ),
    "symmetric_pd": (
        lambda: symmetric_pd_channel()[0],
        {},
        "4->8 marginal channel of the symmetric-subspace isometry",
    ),
    "corollary4_degrading": (
        lambda n2, n3: corollary4_degrading_map((0, n2, n3)),
        {"n2": 0, "n3": 0},
        "qutrit degrading map with printed 1/2 and 1/8 weights",
    ),
    "corollary4_rank_one": (
        lambda n2, n3: corollary4_rank_one_channel((0, n2, n3)),
        {"n2": 0, "n3": 0},
        "six rank-one operators; completeness reported, not assumed",
    ),
    "erasure": (erasure, {"p": 0.25, "d": 2}, "baseline"),
    "depolarizing": (depolarizing, {"p": 0.5, "d": 2}, "baseline"),
    "amplitude_damping": (amplitude_damping, {"gamma": 0.2}, "baseline"),
    "dephasing": (dephasing, {"p": 0.3}, "baseline"),
}


def zoo_ids() -> list:
    return sorted(_REGISTRY)


def parameter_types() -> dict:
    """The type of each entry parameter's default, by parameter name in
    sorted order; a name shared by several entries has one type."""
    types = {k: type(v) for _, defaults, _ in _REGISTRY.values() for k, v in defaults.items()}
    return dict(sorted(types.items()))


def build_entry(entry_id: str, **params) -> tuple:
    """Build entry ``entry_id`` with ``params`` over its defaults. Returns
    ``(report, channel)``: the report ``zoo export`` prints, and the channel."""
    if entry_id not in _REGISTRY:
        raise DomainError(f"unknown zoo id: {entry_id}")
    builder, defaults, notes = _REGISTRY[entry_id]
    merged = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise DomainError(f"unknown parameter {key!r} for {entry_id}")
        merged[key] = type(defaults[key])(value)
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
