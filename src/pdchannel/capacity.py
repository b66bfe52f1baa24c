"""Coherent information, the isometry-chain entropy identities, and
multi-start maximization over input states.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
from scipy import optimize

from . import channel as chmod
from . import entanglement as ent
from . import qmat
from .errors import DimMismatch, SizeLimit

MAX_OPT_DIM = 16
_FD_STEP = 1e-5


def coherent_information(ch: chmod.KrausChannel, rho) -> float:
    """I_coh = H(N(rho)) - H(N_env(rho)) in bits."""
    rho = qmat.check_square(rho)
    if rho.shape[0] != ch.dim_in:
        raise DimMismatch(f"state side {rho.shape[0]} != dim_in {ch.dim_in}")
    out = chmod.apply(ch, rho)
    env = chmod.apply(chmod.complementary(ch), rho)
    return ent.entropy(out) - ent.entropy(env)


@dataclass
class PdIsometries:
    """Isometry chain: u sends A to B(x)E, v sends E to G(x)H (the E->E'
    degrading with G the degraded environment), w sends B to E'(x)F."""

    u: chmod.StinespringIsometry
    v: chmod.StinespringIsometry
    w: chmod.StinespringIsometry

    def __post_init__(self):
        for iso in (self.u, self.v, self.w):
            gram = iso.v.conj().T @ iso.v
            if np.max(np.abs(gram - np.eye(iso.dim_in))) > 1e-8:
                raise DimMismatch("non-isometric input in the chain")
        if self.v.dim_in != self.u.dim_env:
            raise DimMismatch("v must act on the environment of u")
        if self.w.dim_in != self.u.dim_out:
            raise DimMismatch("w must act on the output of u")


def _marginal_entropy(psi: np.ndarray, dims, keep) -> float:
    """Entropy of the reduced state of a pure state over the kept factors."""
    dims = tuple(dims)
    keep = sorted(keep)
    rest = [i for i in range(len(dims)) if i not in keep]
    t = psi.reshape(dims).transpose(keep + rest)
    m = t.reshape(prod(dims[k] for k in keep), -1)
    s = np.linalg.svd(m, compute_uv=False)
    p = np.clip(s**2, 0.0, 1.0)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def coherent_information_pd(iso: PdIsometries, rho) -> dict:
    """Push a purification of rho through the isometry chain and evaluate
    the conditional-entropy expressions of the coherent information.

    Returns entropies (bits) of the final pure state over E', F, G, H, R:
    h_f_given_eprime, h_h_given_g, h_b_minus_h_eprime, h_rf_given_eprime.
    """
    rho = qmat.check_square(rho)
    d_a = iso.u.dim_in
    if rho.shape[0] != d_a:
        raise DimMismatch("state side does not match the chain input")
    w_eig, v_eig = qmat.eigh(rho)
    w_eig = np.clip(w_eig, 0.0, None)
    d_r = d_a
    # purification over A (slow) and reference R (fast)
    psi = (v_eig * np.sqrt(w_eig)).reshape(-1)

    d_b, d_e = iso.u.dim_out, iso.u.dim_env
    psi = (np.kron(iso.u.v, np.eye(d_r)) @ psi)  # factors B, E, R
    d_ep, d_f = iso.w.dim_out, iso.w.dim_env
    d_g, d_h = iso.v.dim_out, iso.v.dim_env
    big = np.kron(iso.w.v, np.kron(iso.v.v, np.eye(d_r)))
    psi = big @ psi  # factors E', F, G, H, R
    dims = (d_ep, d_f, d_g, d_h, d_r)

    h_ep = _marginal_entropy(psi, dims, [0])
    h_epf = _marginal_entropy(psi, dims, [0, 1])
    h_g = _marginal_entropy(psi, dims, [2])
    h_gh = _marginal_entropy(psi, dims, [2, 3])
    h_epfr = _marginal_entropy(psi, dims, [0, 1, 4])
    return {
        "h_f_given_eprime": h_epf - h_ep,
        "h_h_given_g": h_gh - h_g,
        "h_b_minus_h_eprime": h_epf - h_ep,  # H(B) = H(E'F) under the isometry w
        "h_rf_given_eprime": h_epfr - h_ep,
    }


@dataclass
class CoherentInfoResult:
    value: float
    argmax_state: np.ndarray
    restarts_used: int
    converged: bool
    per_restart_values: list

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "per_restart_values": self.per_restart_values,
            "argmax_state": [
                [[z.real, z.imag] for z in row] for row in self.argmax_state
            ],
        }


def _params_to_state(x: np.ndarray, d: int) -> np.ndarray:
    """Map a real parameter vector of length d^2 to a density matrix via a
    lower-triangular factor rho = L L^dag / Tr(L L^dag)."""
    l = np.zeros((d, d), dtype=np.complex128)
    idx = d
    for i in range(d):
        l[i, i] = x[i]
    for i in range(d):
        for j in range(i):
            l[i, j] = x[idx] + 1j * x[idx + 1]
            idx += 2
    g = l @ l.conj().T
    tr = np.trace(g).real
    if tr < 1e-300:
        return np.eye(d) / d
    return g / tr


def _state_to_params(rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    # Cholesky of a slightly smoothed copy so boundary states have a factor
    eps = 1e-12
    l = np.linalg.cholesky((rho + eps * np.eye(d)) / (1 + eps * d))
    x = np.empty(d * d)
    x[:d] = l.diagonal().real
    idx = d
    for i in range(d):
        for j in range(i):
            x[idx] = l[i, j].real
            x[idx + 1] = l[i, j].imag
            idx += 2
    return x


def _fd_gradient(f, x, step=_FD_STEP):
    g = np.empty_like(x)
    for k in range(x.size):
        xp = x.copy()
        xp[k] += step
        xm = x.copy()
        xm[k] -= step
        g[k] = (f(xp) - f(xm)) / (2 * step)
    return g


def maximize_coherent_information(
    ch: chmod.KrausChannel,
    restarts: int = 32,
    tol: float = 1e-6,
    seed: int = 42,
    extra_seed_states: list | None = None,
) -> CoherentInfoResult:
    """Multi-start ascent of I_coh over the Cholesky-parameterized simplex
    of density matrices. Deterministic given the seed."""
    d = ch.dim_in
    if d > MAX_OPT_DIM:
        raise SizeLimit(f"optimizer supports dim_in <= {MAX_OPT_DIM}, got {d}")
    comp = chmod.complementary(ch)

    def objective(x):
        rho = _params_to_state(x, d)
        return -(ent.entropy(chmod.apply(ch, rho)) - ent.entropy(chmod.apply(comp, rho)))

    rng = np.random.default_rng(seed)
    starts = [_state_to_params(np.eye(d) / d)]
    for k in range(d):
        rho = np.full((d, d), 0.001 / d, dtype=np.complex128) * np.eye(d)
        rho[k, k] += 0.999
        starts.append(_state_to_params(rho))
    for rho in extra_seed_states or []:
        starts.append(_state_to_params(qmat.check_square(rho)))
    while len(starts) < restarts:
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = a @ a.conj().T
        starts.append(_state_to_params(g / np.trace(g).real))
    if len(starts) > restarts:
        starts = starts[:restarts]

    values, best_x = [], None
    for x0 in starts:
        res = optimize.minimize(
            objective,
            x0,
            jac=lambda x: _fd_gradient(objective, x),
            method="L-BFGS-B",
            options={"maxiter": 300, "ftol": 1e-12, "gtol": 1e-10},
        )
        values.append(-float(res.fun))
        if best_x is None or values[-1] > max(values[:-1]):
            best_x = res.x
    ordered = sorted(values, reverse=True)
    converged = len(ordered) >= 2 and (ordered[0] - ordered[1]) <= max(tol, 1e-6) * 10
    return CoherentInfoResult(
        value=max(values),
        argmax_state=_params_to_state(best_x, d),
        restarts_used=len(values),
        converged=converged,
        per_restart_values=values,
    )


def additivity_probe(ch: chmod.KrausChannel, n: int = 2, restarts: int = 32, seed: int = 42) -> dict:
    """Compare the two-copy optimum against twice the single-copy optimum."""
    if n != 2:
        raise SizeLimit("only n = 2 is supported")
    return _two_copy_probe(ch, restarts, seed)


def _two_copy_probe(
    ch: chmod.KrausChannel, restarts: int, seed: int, single: CoherentInfoResult | None = None
) -> dict:
    """Body of :func:`additivity_probe`; ``single``, when given, is the
    single-copy optimum found with the same restarts and seed."""
    if ch.dim_in**2 > MAX_OPT_DIM:
        raise SizeLimit(f"dim_in^2 = {ch.dim_in ** 2} exceeds {MAX_OPT_DIM}")
    if single is None:
        single = maximize_coherent_information(ch, restarts=restarts, seed=seed)
    joint_ch = chmod.tensor(ch, ch)
    product_seed = np.kron(single.argmax_state, single.argmax_state)
    joint = maximize_coherent_information(
        joint_ch, restarts=restarts, seed=seed, extra_seed_states=[product_seed]
    )
    return {
        "single": single.value,
        "joint": joint.value,
        "gap": joint.value - 2 * single.value,
    }


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
