"""Coherent information, the entropy identities along the isometry chain
of a channel and its two degrading maps (read off their Kraus stacks), and
multi-start maximization over input states.
"""

from __future__ import annotations

import random
from math import isfinite, isqrt, prod

import numpy as np

from . import channel as chmod
from . import entanglement as ent
from . import optimize, qmat
from .errors import DimMismatch, DomainError, NotTracePreserving, SizeLimit

MAX_OPT_DIM = 16
# restarts advanced in lockstep by one optimize.minimize_many call; a
# round's batched evaluation holds arrays of restarts x Kraus x d^2 entries,
# so blocks keep its memory bounded whatever --restarts asks for
LOCKSTEP_BLOCK = 32


def coherent_information(ch: chmod.KrausChannel, rho) -> float:
    """I_coh = H(N(rho)) - H(N_env(rho)) in bits."""
    rho = qmat.check_square(rho)
    if rho.shape[0] != ch.dim_in:
        raise DimMismatch(f"state side {rho.shape[0]} != dim_in {ch.dim_in}")
    out = chmod.apply(ch, rho)
    env = chmod.apply(chmod.complementary(ch), rho)
    return ent.entropy(out) - ent.entropy(env)


def _marginal_entropy(psi: np.ndarray, keep: list) -> float:
    """Entropy of the reduced state of a pure state, one axis per factor,
    over the factors on the axes ``keep``."""
    rest = [i for i in range(psi.ndim) if i not in keep]
    m = psi.transpose(keep + rest).reshape(prod(psi.shape[k] for k in keep), -1)
    return ent.entropy(m @ m.conj().T)


def coherent_information_pd(n_ab, d_e_to_eprime, d_b_to_eprime, rho) -> dict:
    """Push a purification of rho through the Stinespring isometries of the
    three channels, each its Kraus stack with the Kraus index as
    environment: N_AB sends A to B(x)E, D^{E->E'} sends E to G(x)H (G the
    degraded environment) and D^{B->E'} sends B to E'(x)F. A channel that
    is not trace preserving raises :class:`NotTracePreserving`, a
    degrading that acts on neither E nor B as placed :class:`DimMismatch`,
    and a ``rho`` whose reduced states fall outside the entropy clamping
    window (not a density matrix, say of trace 3) :class:`NotDensityMatrix`.

    Returns entropies (bits) of the final pure state over E', F, G, H, R:
    h_f_given_eprime, h_h_given_g, h_b_minus_h_eprime, h_rf_given_eprime.
    """
    for c in (n_ab, d_e_to_eprime, d_b_to_eprime):
        if c.flagged:
            raise NotTracePreserving(f"{c.name or 'channel'}: tp_residual {c.tp_residual():.3e}")
    if d_e_to_eprime.dim_in != n_ab.dim_env:
        raise DimMismatch("the E->E' degrading must act on the environment of N_AB")
    if d_b_to_eprime.dim_in != n_ab.dim_out:
        raise DimMismatch("the B->E' degrading must act on the output of N_AB")
    rho = qmat.check_square(rho)
    if rho.shape[0] != n_ab.dim_in:
        raise DimMismatch("state side does not match the chain input")
    w_eig, v_eig = qmat.eigh(rho)
    # purification over A (rows) and reference R (columns)
    psi = v_eig * np.sqrt(np.clip(w_eig, 0.0, None))
    ber = np.einsum("eba,ar->ber", n_ab.kraus, psi)
    h_b = _marginal_entropy(ber, [0])
    # axes E', F, G, H, R
    psi = np.einsum("fxb,hge,ber->xfghr", d_b_to_eprime.kraus, d_e_to_eprime.kraus, ber)
    h_ep = _marginal_entropy(psi, [0])
    h_epf = _marginal_entropy(psi, [0, 1])
    h_g = _marginal_entropy(psi, [2])
    h_gh = _marginal_entropy(psi, [2, 3])
    h_epfr = _marginal_entropy(psi, [0, 1, 4])
    return {
        "h_f_given_eprime": h_epf - h_ep,
        "h_h_given_g": h_gh - h_g,
        "h_b_minus_h_eprime": h_b - h_ep,
        "h_rf_given_eprime": h_epfr - h_ep,
    }


# A state is a full complex d x d factor A, rho = A A^dag / Tr(A A^dag)
# (Burer & Monteiro, Math. Program. 95, 2003). Its 2 d^2 real parameters
# are A's entries, row-major, each a (real, imaginary) pair: the float64
# view of A. The helpers map stacks along leading axes as well.


def _params_to_factor(x: np.ndarray, d: int) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    return x.view(np.complex128).reshape(x.shape[:-1] + (d, d))


def _factor_to_params(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.complex128).reshape(a.shape[:-2] + (-1,)).view(np.float64)


_TINY_TRACE = 1e-300


def _factor_to_state(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, t) with t = Tr(A A^dag) and rho = A A^dag / t, or the maximally
    mixed state where t underflows (below ``_TINY_TRACE``)."""
    d = a.shape[-1]
    g = a @ a.conj().swapaxes(-1, -2)
    tr = np.trace(g, axis1=-2, axis2=-1).real
    tiny = (tr < _TINY_TRACE)[..., None, None]
    return np.where(tiny, np.eye(d) / d, g / np.where(tiny, 1.0, tr[..., None, None])), tr


def _params_to_state(x: np.ndarray, d: int) -> np.ndarray:
    """Map a real parameter vector of length 2 d^2 to the density matrix
    rho = A A^dag / Tr(A A^dag) of its factor A."""
    return _factor_to_state(_params_to_factor(x, d))[0]


def _state_to_params(rho: np.ndarray) -> np.ndarray:
    """Parameters of the factor A = V sqrt(max(w, 0) + 1e-12) of a density
    matrix rho = V diag(w) V^dag. The 1e-12 keeps every column of A nonzero:
    the gradient of a zero column is zero, so a rank-deficient seed would
    never leave its face."""
    w, v = np.linalg.eigh(rho)
    return _factor_to_params(v * np.sqrt(np.maximum(w, 0.0) + 1e-12))


def _objective(ch: chmod.KrausChannel):
    """-I_coh = H(N_c(rho)) - H(N(rho)) over the 2 d^2 parameters of the
    input side d, with its exact gradient. The objective takes one
    parameter vector, or an (R, 2 d^2) stack of them and then returns R
    values and an (R, 2 d^2) gradient stack, with one eigendecomposition per
    channel for the whole stack; a row comes out the same either way.

    The gradient in rho is G = sum_k c_k M_k^dag(log2 M_k(rho)) over
    (c_k, M_k) = (1, N), (-1, N_c): the identity terms of d(-Tr s log2 s)
    add up to a multiple of I, which the projection below removes. Through
    rho = A A^dag / t it is B = 2 (G - Tr(G rho) I) A / t in A, read off as
    (Re B_ij, Im B_ij) for every entry. Value and G are accumulated from
    zero, N first.
    """
    terms = [(1, ch), (-1, chmod.complementary(ch))]

    def objective(x):
        stack = np.reshape(x, (-1, np.shape(x)[-1]))
        d = isqrt(stack.shape[-1] // 2)
        a = _params_to_factor(stack, d)
        rho, t = _factor_to_state(a)
        value, g = 0.0, np.zeros(rho.shape, dtype=np.complex128)
        for c, m in terms:
            h, log = ent.entropy_and_log2(chmod.apply(m, rho))
            value += c * h
            g += c * (m.kraus_adj @ log[:, None] @ m.kraus).sum(axis=1)
        live = (t >= _TINY_TRACE)[:, None, None]
        tr_g_rho = np.trace(g @ rho, axis1=-2, axis2=-1).real[:, None, None]
        b = 2 * (g @ a - tr_g_rho * a) / np.where(live, t[:, None, None], 1.0)
        grad = _factor_to_params(np.where(live, b, 0.0))
        if np.ndim(x) == 1:
            return -value[0], grad[0]
        return -value, grad

    return objective


def _fixed_starts(d: int) -> list:
    """Parameters of the seed-independent starting states: I/d, then the d
    near-pure basis states 0.999 |k><k| + 0.001 I/d, each as its diagonal
    factor sqrt(diag(rho))."""
    diagonals = np.vstack([np.full(d, 1.0 / d), 0.999 * np.eye(d) + 0.001 / d])
    return [_factor_to_params(np.diag(np.sqrt(p))) for p in diagonals]


def _starts(d: int, restarts: int, seed: int, extra_seed_states) -> list:
    """Parameters of the ``restarts`` starting states in restart order: the
    fixed starts, the extra seed states, then random factors from ``seed``,
    cut to ``restarts``. A random start is a complex Ginibre factor A, whose
    2 d^2 Gaussians (real parts, then imaginary parts, row-major) come from
    the standard library's Mersenne Twister ``random.Random(seed)``, so the
    maximizer loads neither numpy.random nor hashlib."""
    rng = random.Random(seed)
    starts = _fixed_starts(d)
    for rho in extra_seed_states or []:
        rho = qmat.check_square(rho, (d,))
        ent.entropy(rho)  # raises NotDensityMatrix outside the clamping window
        starts.append(_state_to_params(rho))
    while len(starts) < restarts:
        real, imag = np.reshape([rng.gauss(0.0, 1.0) for _ in range(2 * d * d)], (2, d, d))
        starts.append(_factor_to_params(real + 1j * imag))
    return starts[:restarts]


def maximize_coherent_information(
    ch: chmod.KrausChannel,
    restarts: int = 32,
    tol: float = 1e-6,
    seed: int = 42,
    extra_seed_states: list | None = None,
) -> dict:
    """Multi-start L-BFGS ascent of I_coh over the density matrices
    rho = A A^dag / Tr(A A^dag) of complex d x d factors A, with the
    analytic gradient. The restarts run in
    lockstep blocks of ``LOCKSTEP_BLOCK`` (:func:`optimize.minimize_many`),
    and each ends as it would run alone. Deterministic given the seed,
    which seeds the standard library's ``random.Random`` for the random
    starts (see :func:`_starts`).

    Returns the best value over the restarts, ``value``, the state that
    reaches it, ``argmax_state``, in the :func:`qmat.as_pairs` layout,
    ``restarts_used``, and per restart, in restart order, its value
    (``per_restart_values``) and its L-BFGS iteration count, evaluation
    count and stop message (``per_restart_status``). ``converged`` means
    only that the top two restarts agree within 10 * max(tol, 1e-6), which
    is all ``tol`` sets; it says nothing about any single L-BFGS run.

    ``restarts`` < 1, ``seed`` < 0, and ``tol`` that is negative or not
    finite raise :class:`DomainError`; an extra seed state of the wrong
    side raises :class:`DimMismatch`, and one with eigenvalues outside the
    entropy clamping window :class:`NotDensityMatrix`."""
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not (isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and >= 0, got {tol}")
    d = ch.dim_in
    if d > MAX_OPT_DIM:
        raise SizeLimit(f"optimizer supports dim_in <= {MAX_OPT_DIM}, got {d}")
    objective = _objective(ch)
    starts = _starts(d, restarts, seed, extra_seed_states)
    values, status, best_x = [], [], None
    for i in range(0, len(starts), LOCKSTEP_BLOCK):
        for res in optimize.minimize_many(objective, starts[i : i + LOCKSTEP_BLOCK]):
            values.append(-float(res.fun))
            status.append({"nit": int(res.nit), "nfev": int(res.nfev), "message": str(res.message)})
            if best_x is None or values[-1] > max(values[:-1]):
                best_x = res.x
    ordered = sorted(values, reverse=True)
    converged = len(ordered) >= 2 and (ordered[0] - ordered[1]) <= max(tol, 1e-6) * 10
    return {
        "value": max(values),
        "argmax_state": qmat.as_pairs(_params_to_state(best_x, d)),
        "restarts_used": len(values),
        "converged": converged,
        "per_restart_values": values,
        "per_restart_status": status,
    }


def check_two_copy_size(ch: chmod.KrausChannel) -> None:
    """Raise :class:`SizeLimit` when the two-copy input side dim_in^2, which
    :func:`additivity_probe` maximizes over, exceeds ``MAX_OPT_DIM``."""
    if ch.dim_in**2 > MAX_OPT_DIM:
        raise SizeLimit(f"dim_in^2 = {ch.dim_in ** 2} exceeds {MAX_OPT_DIM}")


def additivity_probe(
    ch: chmod.KrausChannel, n: int = 2, restarts: int = 32, seed: int = 42,
    single: dict | None = None,
) -> dict:
    """Compare the two-copy optimum against twice the single-copy optimum;
    ``single``, when given, is the report of
    :func:`maximize_coherent_information` with the same restarts and seed,
    and is not computed again. The product of the single-copy optimal
    state with itself seeds the two-copy restarts."""
    if n != 2:
        raise SizeLimit("only n = 2 is supported")
    check_two_copy_size(ch)
    if single is None:
        single = maximize_coherent_information(ch, restarts=restarts, seed=seed)
    joint_ch = chmod.tensor(ch, ch)
    # [re, im] pairs back to the complex state; exact in floating point
    rho = np.asarray(single["argmax_state"]) @ [1, 1j]
    joint = maximize_coherent_information(
        joint_ch, restarts=restarts, seed=seed, extra_seed_states=[np.kron(rho, rho)]
    )
    gap = joint["value"] - 2 * single["value"]
    return {"single": single["value"], "joint": joint["value"], "gap": gap}


def ssa_check(rho, dims) -> float:
    """Strong-subadditivity slack H(AB) + H(BC) - H(ABC) - H(B)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise DimMismatch("ssa_check needs exactly three factors")
    mat = qmat.check_square(rho, dims)
    h_ab = ent.entropy(qmat.partial_trace(mat, dims, [0, 1]))
    h_bc = ent.entropy(qmat.partial_trace(mat, dims, [1, 2]))
    h_b = ent.entropy(qmat.partial_trace(mat, dims, [1]))
    h_abc = ent.entropy(mat)
    return h_ab + h_bc - h_abc - h_b
