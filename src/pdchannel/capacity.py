"""Coherent information, the entropy identities along the isometry chain
of a channel and its two degrading maps (from four channel outputs), and
multi-start maximization over input states, which stops early once a
Frank-Wolfe gap proves the optimum of a certified degradable channel.
"""

from __future__ import annotations

import random
from itertools import islice
from math import isfinite, isqrt

import numpy as np

from . import channel as chmod
from . import degradability as deg
from . import entanglement as ent
from . import optimize, qmat
from .config import TOL, check_side
from .errors import DomainError, NotTracePreserving, SizeLimit

MAX_OPT_DIM = 16
# restarts advanced in lockstep by one optimize.minimize_many call; a
# round's batched evaluation holds arrays of restarts x (d_out^2 + d_env^2)
# entries, so blocks keep its memory bounded whatever --restarts asks for
LOCKSTEP_BLOCK = 32


def coherent_information(ch: chmod.KrausChannel, rho) -> float:
    """I_coh = H(N(rho)) - H(N_env(rho)) in bits, for a rho that :func:`channel.apply` takes."""
    out = chmod.apply(ch, rho)
    env = chmod.apply(chmod.complementary(ch), rho)
    return ent.entropy(out) - ent.entropy(env)


def coherent_information_pd(n_ab, d_e_to_eprime, d_b_to_eprime, rho) -> dict:
    """Entropies (bits) along the isometry chain of the channel N_AB, A to
    B(x)E, and its degrading maps D^{B->E'}, B to E'(x)F, and D^{E->E'},
    E to G(x)H (G the degraded environment), each isometry with its Kraus
    index as environment; with R purifying rho the chain ends pure on E'FGHR.

    Each entropy is that of one channel output (:func:`channel.apply`, then
    :func:`entanglement.entropy`): H(B) of N_AB, H(E) of its complement
    N_AE, H(E') of D^{B->E'} o N_AB and H(G) of D^{E->E'} o N_AE.
    Isometries keep spectra, so H(E'F) = H(B) and H(GH) = H(E), and the two
    parts of a pure state have equal entropies, so H(E'FR) = H(GH). Hence
    h_f_given_eprime = h_b_minus_h_eprime = H(B) - H(E'),
    h_h_given_g = H(E) - H(G) and h_rf_given_eprime = H(E) - H(E').

    A channel that is not trace preserving raises :class:`NotTracePreserving`,
    a non-Hermitian ``rho`` :class:`NotHermitian`, and a ``rho`` or output
    whose spectrum leaves the entropy clamping window :class:`NotDensityMatrix`,
    so a negative eigenvalue is not clipped, nor a trace of 3 renormalized.
    A leg that does not act on E or B as placed, or a ``rho`` of another
    side than N_AB's input, raises :class:`DimMismatch` in
    :func:`channel.compose` or :func:`channel.apply`.
    """
    # compose takes a flagged map as it is, so the legs are refused here
    for c in (n_ab, d_e_to_eprime, d_b_to_eprime):
        if c.flagged:
            raise NotTracePreserving(f"{c.name or 'channel'}: tp_residual {c.tp_residual():.3e}")
    rho = qmat.check_hermitian(rho)
    # rho itself must pass the window, not only the outputs it gives
    ent.clamped(qmat.eigvalsh(rho))
    n_ae = chmod.complementary(n_ab)
    chain = (n_ab, n_ae, chmod.compose(n_ab, d_b_to_eprime), chmod.compose(n_ae, d_e_to_eprime))
    h_b, h_e, h_ep, h_g = (ent.entropy(chmod.apply(c, rho)) for c in chain)
    return {
        "h_f_given_eprime": h_b - h_ep,
        "h_h_given_g": h_e - h_g,
        "h_b_minus_h_eprime": h_b - h_ep,
        "h_rf_given_eprime": h_e - h_ep,
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
    w, v = qmat.eigh(rho)
    return _factor_to_params(v * np.sqrt(np.maximum(w, 0.0) + 1e-12))


def _objective(ch: chmod.KrausChannel, degradable: bool = False):
    """-I_coh = H(N_c(rho)) - H(N(rho)) over the 2 d^2 parameters of the
    input side d, with its exact gradient. The objective takes one
    parameter vector, or an (R, 2 d^2) stack of them and then returns R
    values and an (R, 2 d^2) gradient stack, with one eigendecomposition per
    channel for the whole stack; a row comes out the same either way.

    Each channel M in (N, N_c) acts through its transfer matrix T, built
    once here (:func:`degradability.transfer_matrix`), which holds as many
    entries as M's Choi matrix: d^2 d_out^2 for N and d^2 d_env^2 for N_c,
    1e8 on ``nab_ae`` (x) 2, which the side cap refuses. For
    Hermitian X the row-major X.ravel() is the column-major vec of conj(X),
    so with S = conj(T), M(X).ravel() = S X.ravel() and
    M^dag(X).ravel() = S^dag X.ravel(), one matrix-vector product per row:
    one product shared by the stack changes a row's last bits with its height.
    The gradient in rho is G = N^dag(log2 N(rho)) - N_c^dag(log2 N_c(rho)):
    the identity terms of d(-Tr s log2 s) add up to a multiple of I, which
    the projection below removes. Through rho = A A^dag / t it is
    B = 2 (G - Tr(G rho) I) A / t in A, read off as (Re B_ij, Im B_ij) for
    every entry. Value and G are accumulated from zero, N first.

    With ``degradable`` (``ch`` has a certified degrading map, so I_coh is
    concave in rho; Yard, Hayden & Devetak, IEEE TIT 54, 2008) the
    objective also returns each row's Frank-Wolfe gap
    lambda_max(-G) - Tr(-G rho) = Tr(G rho) - lambda_min(G), by one batched
    ``eigvalsh`` of the G stack: max I_coh <= I_coh(rho) + gap. A row whose
    output spectra are not both strictly positive after the clamping window
    gets NaN, since log2 is 0 on a kernel and G is no gradient there.
    """
    terms = [(c, deg.transfer_matrix(m).conj(), m.dim_out)
             for c, m in ((1, ch), (-1, chmod.complementary(ch)))]

    def objective(x):
        stack = np.reshape(x, (-1, np.shape(x)[-1]))
        d = isqrt(stack.shape[-1] // 2)
        a = _params_to_factor(stack, d)
        rho, t = _factor_to_state(a)
        value, g, full = 0.0, np.zeros(rho.shape, dtype=np.complex128), True
        for c, s, d_out in terms:
            h, log, w = ent.entropy_and_log2((s @ rho.reshape(len(rho), -1, 1)).reshape(-1, d_out, d_out))
            value += c * h
            # S^dag y = conj(S^T conj(y)), with S^T a view
            g += c * (s.T @ log.conj().reshape(len(rho), -1, 1)).conj().reshape(rho.shape)
            full = full & (w[:, 0] > 0)
        live = (t >= _TINY_TRACE)[:, None, None]
        tr_g_rho = np.trace(g @ rho, axis1=-2, axis2=-1).real[:, None, None]
        b = 2 * (g @ a - tr_g_rho * a) / np.where(live, t[:, None, None], 1.0)
        grad = _factor_to_params(np.where(live, b, 0.0))
        out = [-value, grad]
        if degradable:
            out.append(np.where(full, tr_g_rho[:, 0, 0] - qmat.eigvalsh(g)[:, 0], np.nan))
        return tuple(o[0] for o in out) if np.ndim(x) == 1 else tuple(out)

    return objective


def _fixed_starts(d: int) -> list:
    """Parameters of the seed-independent starting states: I/d, then the d
    near-pure basis states 0.999 |k><k| + 0.001 I/d, each as its diagonal
    factor sqrt(diag(rho))."""
    diagonals = np.vstack([np.full(d, 1.0 / d), 0.999 * np.eye(d) + 0.001 / d])
    return [_factor_to_params(np.diag(np.sqrt(p))) for p in diagonals]


def _starts(d: int, restarts: int, seed: int, seed_states=()):
    """Yield the parameters of the ``restarts`` starting states in restart
    order: the fixed starts, the seed states, then random factors from
    ``seed``, each drawn when it is asked for, so a run that stops early
    draws no more. A random start is a complex Ginibre factor A, whose
    2 d^2 Gaussians (real parts, then imaginary parts, row-major) come from
    the standard library's Mersenne Twister ``random.Random(seed)``, so the
    maximizer loads neither numpy.random nor hashlib."""
    rng = random.Random(seed)
    fixed = _fixed_starts(d) + [_state_to_params(rho) for rho in seed_states]
    yield from fixed[:restarts]
    for _ in range(restarts - len(fixed)):
        real, imag = np.reshape([rng.gauss(0.0, 1.0) for _ in range(2 * d * d)], (2, d, d))
        yield _factor_to_params(real + 1j * imag)


def _check_settings(ch: chmod.KrausChannel, copies: int, restarts: int, tol: float, seed: int) -> None:
    """Refuse ``copies`` copies of ``ch`` with an input side d above ``MAX_OPT_DIM``
    or a Choi side of N or N_c (d d_out, d d_env) above the side cap, then bad settings."""
    d = ch.dim_in**copies
    if d > MAX_OPT_DIM:
        raise SizeLimit(f"input side {d} exceeds the optimizer's limit {MAX_OPT_DIM}")
    check_side(f"the {copies}-copy objective", d * ch.dim_out**copies, d * ch.dim_env**copies)
    if type(restarts) is not int or restarts < 1:
        raise DomainError(f"restarts must be an integer >= 1, got {restarts!r}")
    if type(seed) is not int or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    if type(tol) not in (int, float) or not (isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be a finite number >= 0, got {tol!r}")


def _degrading_residual(ch: chmod.KrausChannel):
    """The ``map_residual`` of the degrading map of ``ch`` that
    :func:`degradability.is_degradable` certifies, or None without one or
    when the solve's size limit refuses ``ch``."""
    try:
        # only a certified report has the key
        return deg.is_degradable(ch)[0].get("map_residual")
    except SizeLimit:
        return None


def maximize_coherent_information(
    ch: chmod.KrausChannel, *, restarts: int = 32, tol: float = 1e-6, seed: int = 42,
) -> dict:
    """Multi-start L-BFGS ascent of I_coh over the density matrices
    rho = A A^dag / Tr(A A^dag) of complex d x d factors A, with the
    analytic gradient. The restarts run in
    lockstep blocks of ``LOCKSTEP_BLOCK`` (:func:`optimize.minimize_many`),
    and each ends as it would run alone, unless a certificate ends its
    block. Deterministic given the seed,
    which seeds the standard library's ``random.Random`` for the random
    starts (see :func:`_starts`).

    The channel is first checked for degradability by the B->E solve that
    ``classify`` runs (:func:`degradability.is_degradable`). When that
    certifies a degrading map, I_coh is concave, and a block ends at the
    first round in which some restart's point has a Frank-Wolfe gap of at
    most ``tol`` (see :func:`_objective`): that point
    is within the gap of the optimum, so that restart ends there, or at its
    current iterate if that is higher, the others keep their current
    iterates, and later blocks do not start.
    ``restarts`` is then an upper limit. Otherwise every restart runs to
    its own stop.

    Returns the best value over the restarts, ``value``, the state that
    reaches it, ``argmax_state``, in the :func:`qmat.as_pairs` layout,
    ``restarts_used``, the restarts that started, and per restart, in
    restart order, its value (``per_restart_values``) and its L-BFGS
    iteration count, evaluation count and stop message
    (``per_restart_status``). ``certificate`` holds ``degradable``, whether
    the degrading map was certified, its ``map_residual`` as ``classify``
    reports it, and the ``gap`` and ``restart`` of the point that ended the
    run, all three None when there is none; Q^(1) is then at most
    ``value`` + ``gap``. ``converged`` means that a certificate ended
    the run, or else only that the top two restarts agree within
    10 * max(tol, 1e-6); it says nothing about any single L-BFGS run.

    A d above ``MAX_OPT_DIM`` or a Choi side of N or N_c above the side cap raises
    :class:`SizeLimit` before the degrading-map solve; ``restarts`` not an int >= 1, ``seed``
    not an int >= 0 and ``tol`` not a finite int or float >= 0, a bool included, raise
    :class:`DomainError`."""
    _check_settings(ch, 1, restarts, tol, seed)
    return _maximize(ch, restarts, tol, seed, (), _degrading_residual(ch))


def _maximize(ch, restarts, tol, seed, seed_states, map_residual) -> dict:
    """The body of :func:`maximize_coherent_information` on settings it has
    checked, with the density matrices ``seed_states`` as starts after the
    fixed ones; ``map_residual`` is that of a certified degrading map of
    ``ch``, or a bound on it, and None without one."""
    d = ch.dim_in
    degradable = map_residual is not None
    objective = _objective(ch, degradable)
    starts = _starts(d, restarts, seed, seed_states)
    values, status = [], []
    certificate = {"degradable": degradable, "map_residual": map_residual, "gap": None, "restart": None}
    while certificate["gap"] is None and (block := list(islice(starts, LOCKSTEP_BLOCK))):
        results = optimize.minimize_many(objective, block, tol if degradable else None, first=len(values))
        for res in results:
            if res.gap is not None:
                certificate.update(gap=res.gap, restart=len(values))
            values.append(-float(res.fun))
            status.append({"nit": int(res.nit), "nfev": int(res.nfev), "message": str(res.message)})
            # strict >: the first of equal maxima wins, as in max()
            if len(values) == 1 or values[-1] > best:
                best, best_x = values[-1], res.x
    ordered = sorted(values, reverse=True)
    converged = certificate["gap"] is not None or (
        len(ordered) >= 2 and (ordered[0] - ordered[1]) <= max(tol, 1e-6) * 10)
    return {
        "value": best,
        "argmax_state": qmat.as_pairs(_params_to_state(best_x, d)),
        "restarts_used": len(values),
        "converged": converged,
        "per_restart_values": values,
        "per_restart_status": status,
        "certificate": certificate,
    }


def _two_copy_residual(ch: chmod.KrausChannel, r: float) -> float:
    """The bound on the residual of D (x) D against N (x) N, for a map D
    with residual r against N = ``ch``; see :func:`additivity_probe`."""
    m = float(np.max(np.abs(deg.transfer_matrix(chmod.complementary(ch)))))
    return 4 * r * (2 * m + 2 * r)


def additivity_probe(
    ch: chmod.KrausChannel, *, restarts: int = 32, tol: float = 1e-6, seed: int = 42,
) -> dict:
    """The ``capacity --tensor 2`` report without ``env``: the report of
    :func:`maximize_coherent_information` on ``ch`` with ``additivity``
    added, which compares the two-copy optimum ``joint`` against twice the
    single-copy optimum ``single``, ``gap`` = joint - 2 single. The product
    of the single-copy optimal state with itself seeds the two-copy
    restarts. The two copies' sides and the settings are checked as
    :func:`maximize_coherent_information` checks one copy's, before anything runs.

    The two copies are certified from the single copy alone, with no
    two-copy matrix built: when the single copy's degrading-map solve
    certifies a map D of N = ``ch`` with ``map_residual`` r, D (x) D degrades
    N (x) N within 4 r (2 m + 2 r), m the largest |entry| of the transfer
    matrix of N_c. If that is within TOL.residual_tol, the two-copy run
    stops as on a certified channel; otherwise it runs every restart. The
    bound may refuse a certificate, never grant a false one. Proof, with
    A = D o N, B = N_c: (1) every entry of T_A - T_B is at most 2 r in size,
    as E_ii is a probe state and E_ij = 1/2 sum_phi phi rho_phi over the
    four phase probes of (i, j); (2) so |T_A| <= m + 2 r entrywise; (3) on
    a product unit, which every two-copy unit is,
    (A (x) A - B (x) B)(E (x) F) = (A - B)(E) (x) A(F) + B(E) (x) (A - B)(F),
    and the largest entry of a Kronecker product is the product of the
    largest entries, so each entry is at most 2 r (2 m + 2 r); (4) a
    two-copy probe is a product unit E_aa or
    1/2 (E_aa + phi* E_ab + phi E_ba + E_bb), hence 4 r (2 m + 2 r)."""
    _check_settings(ch, 2, restarts, tol, seed)
    report = maximize_coherent_information(ch, restarts=restarts, tol=tol, seed=seed)
    r = report["certificate"]["map_residual"]
    bound = None if r is None else _two_copy_residual(ch, r)
    if bound is not None and bound > TOL.residual_tol:
        bound = None
    # [re, im] pairs back to the complex state; exact in floating point
    rho = np.asarray(report["argmax_state"]) @ [1, 1j]
    joint = _maximize(chmod.tensor(ch, ch), restarts, tol, seed, [np.kron(rho, rho)], bound)["value"]
    report["additivity"] = {"single": report["value"], "joint": joint, "gap": joint - 2 * report["value"]}
    return report


def ssa_check(rho, dims) -> float:
    """Strong-subadditivity slack H(AB) + H(BC) - H(ABC) - H(B)."""
    mat, dims = qmat.check_factors(rho, dims, 3)
    h_ab = ent.entropy(qmat.partial_trace(mat, dims, [0, 1]))
    h_bc = ent.entropy(qmat.partial_trace(mat, dims, [1, 2]))
    h_b = ent.entropy(qmat.partial_trace(mat, dims, [1]))
    h_abc = ent.entropy(mat)
    return h_ab + h_bc - h_abc - h_b
