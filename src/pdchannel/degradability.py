"""Degrading-map solving and channel taxonomy.

A degrading map D with to = D o from is found by a superoperator
least-squares solve on transfer matrices, completed off the range of the
source map so that trace preservation can hold, then certified as CPTP via
a Choi eigensolve. A failed certificate means "no map found by this
method", not a proof that none exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel as chmod
from . import entanglement as ent
from . import qmat
from .config import TOL
from .errors import DimMismatch


def transfer_matrix(ch: chmod.KrausChannel) -> np.ndarray:
    """Superoperator T with vec(N(rho)) = T vec(rho), column-major vec."""
    # [i, r, s, c, t] = conj(N_i)[r, c] N_i[s, t], i.e. kron(conj(N_i), N_i)
    k = ch.kraus
    t = k.conj()[:, :, None, :, None] * k[:, None, :, None, :]
    return t.reshape(ch.dim_env, ch.dim_out**2, ch.dim_in**2).sum(axis=0)


def choi_of_transfer(t: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Unnormalized Choi J = sum_ij E_ij (x) D(E_ij) from a transfer matrix."""
    t4 = t.reshape(dim_out, dim_out, dim_in, dim_in)  # [b, a, j, i] = D(E_ij)[a, b]
    return t4.transpose(3, 1, 2, 0).reshape(dim_in * dim_out, dim_in * dim_out)


def transfer_of_choi(j: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    j4 = j.reshape(dim_in, dim_out, dim_in, dim_out)  # [i, a, j, b]
    return j4.transpose(3, 1, 2, 0).reshape(dim_out**2, dim_in**2)


def probe_states(d: int) -> list:
    """Symmetrized matrix units: d^2 valid states spanning Hermitian space."""
    eye = np.eye(d, dtype=np.complex128)
    probes = [np.outer(e, e) for e in eye]
    for i in range(d):
        for j in range(i + 1, d):
            for phase in (1.0, 1j):
                v = eye[i] + phase * eye[j]
                probes.append(np.outer(v, v.conj()) / 2)
    return probes


def _probe_residual(r: np.ndarray, d: int) -> float:
    """max |R vec(rho)| over the probe states of side d, for a superoperator
    R acting on column-major vec."""
    p = np.stack(probe_states(d))
    vecs = p.transpose(0, 2, 1).reshape(len(p), d * d).T  # column i = vec(rho_i)
    return float(np.max(np.abs(r @ vecs)))


@dataclass
class DegradingSolution:
    map: chmod.KrausChannel | None  # None means FAILED
    residual: float
    cp_min_eig: float
    tp_residual: float

    @property
    def success(self) -> bool:
        return (
            self.residual <= TOL.residual_tol
            and self.cp_min_eig >= TOL.psd_tol
            and self.tp_residual <= TOL.residual_tol
        )

    def as_dict(self) -> dict:
        return {
            "success": self.success,
            "residual": self.residual,
            "cp_min_eig": self.cp_min_eig,
            "tp_residual": self.tp_residual,
        }


def _certify(t_d, t_from, t_to, d_in, d_mid, d_out) -> DegradingSolution:
    """Certificates of the candidate T_d, with no Kraus map attached yet."""
    residual = _probe_residual(t_to - t_d @ t_from, d_in)
    choi = choi_of_transfer(t_d, d_mid, d_out)
    choi_h = (choi + choi.conj().T) / 2
    cp_min_eig = float(np.linalg.eigvalsh(choi_h)[0])
    tr_out = qmat.partial_trace(choi_h, (d_mid, d_out), keep=[0])
    tp_residual = float(np.max(np.abs(tr_out - np.eye(d_mid))))
    return DegradingSolution(
        map=None, residual=residual, cp_min_eig=cp_min_eig, tp_residual=tp_residual
    )


def _cptp_refine(t0, t_from, t_to, d_mid, d_out, max_iter=2000):
    """Cyclic projections onto {T: T T_from = T_to}, the PSD-Choi cone, and
    the TP affine set. Used only when the direct least-squares completion
    fails its CP/TP certificates; deterministic."""
    f_pinv = qmat.pinv(t_from)
    t = t0.copy()
    for _ in range(max_iter):
        # affine composition constraint
        t = t - (t @ t_from - t_to) @ f_pinv
        # PSD projection in Choi coordinates (an entrywise permutation of T,
        # so Frobenius projections carry over)
        j = choi_of_transfer(t, d_mid, d_out)
        j = (j + j.conj().T) / 2
        w, v = np.linalg.eigh(j)
        if w[0] >= TOL.psd_tol / 10:
            j_psd = j
        else:
            j_psd = (v * np.clip(w, 0.0, None)) @ v.conj().T
        # TP affine projection: Tr_out(J) = I
        tr_out = qmat.partial_trace(j_psd, (d_mid, d_out), keep=[0])
        j_tp = j_psd + np.kron((np.eye(d_mid) - tr_out) / d_out, np.eye(d_out))
        t_new = transfer_of_choi(j_tp, d_mid, d_out)
        if np.max(np.abs(t_new - t)) < 1e-14:
            return t_new
        t = t_new
    return t


def solve_degrading_map(
    from_ch: chmod.KrausChannel,
    to_ch: chmod.KrausChannel,
    warm_start: chmod.KrausChannel | None = None,
) -> DegradingSolution:
    """Find a CPTP map D with to = D o from, if the linear algebra allows.

    The candidate is T_to pinv(T_from) on the range of T_from. Off-range
    input components carry trace the constrained part never sees, so the
    completion routes them to the maximally mixed state (a trace-and-replace
    term); this reduces to the least-norm completion exactly when the
    identity lies in the range. If the completed map fails its CP/TP
    certificates, a cyclic-projection refinement searches the same solution
    set for a CPTP member before giving up.
    """
    if from_ch.dim_in != to_ch.dim_in:
        raise DimMismatch(
            f"input dims differ: {from_ch.dim_in} != {to_ch.dim_in}"
        )
    d_in, d_mid, d_out = from_ch.dim_in, from_ch.dim_out, to_ch.dim_out
    t_from = transfer_matrix(from_ch)
    t_to = transfer_matrix(to_ch)

    if warm_start is not None:
        if (warm_start.dim_in, warm_start.dim_out) != (d_mid, d_out):
            raise DimMismatch("warm start has wrong dimensions")
        t_w = transfer_matrix(warm_start)
        sol = _certify(t_w, t_from, t_to, d_in, d_mid, d_out)
        if sol.success:
            return _finish(t_w, sol, d_mid, d_out)

    f_pinv = qmat.pinv(t_from)
    t_ls = t_to @ f_pinv
    # trace-fixing completion on the orthogonal complement of range(T_from)
    proj = t_from @ f_pinv
    tr_row = qmat.vec(np.eye(d_mid)).reshape(1, -1) @ (np.eye(d_mid**2) - proj)
    t_d = t_ls + np.outer(qmat.vec(np.eye(d_out) / d_out), tr_row.ravel())

    sol = _certify(t_d, t_from, t_to, d_in, d_mid, d_out)
    if sol.residual <= TOL.residual_tol and not sol.success:
        t_ref = _cptp_refine(t_d, t_from, t_to, d_mid, d_out)
        refined = _certify(t_ref, t_from, t_to, d_in, d_mid, d_out)
        # keep the refinement only if it actually certifies
        if refined.success:
            t_d, sol = t_ref, refined
    return _finish(t_d, sol, d_mid, d_out)


def _finish(t_d, sol: DegradingSolution, d_mid, d_out) -> DegradingSolution:
    """Attach the Kraus map of T_d to a certified solution."""
    if sol.success:
        choi = choi_of_transfer(t_d, d_mid, d_out)
        ops = chmod.kraus_from_choi(choi, d_mid, d_out)
        sol.map = chmod.KrausChannel(ops, d_mid, d_out, name="degrading")
    return sol


def is_degradable(ch: chmod.KrausChannel) -> DegradingSolution:
    return solve_degrading_map(ch, chmod.complementary(ch))


def is_antidegradable(ch: chmod.KrausChannel) -> DegradingSolution:
    return solve_degrading_map(chmod.complementary(ch), ch)


def verify_pd_identity(n_ab, d_b_to_eprime, n_ae, d_e_to_eprime) -> float:
    """Max action mismatch of N_AB o D^{B->E'} versus N_AE o D^{E->E'}."""
    left = chmod.compose(n_ab, d_b_to_eprime)
    right = chmod.compose(n_ae, d_e_to_eprime)
    if left.dim_in != right.dim_in or left.dim_out != right.dim_out:
        raise DimMismatch("composed maps have mismatched endpoints")
    return _probe_residual(transfer_matrix(left) - transfer_matrix(right), left.dim_in)


def _acts_as_identity(ch: chmod.KrausChannel) -> bool:
    if ch.dim_in != ch.dim_out:
        return False
    r = transfer_matrix(ch) - np.eye(ch.dim_in**2)
    return _probe_residual(r, ch.dim_in) <= TOL.residual_tol


@dataclass
class PdClassification:
    label: str
    solutions: dict
    reports: dict = field(default_factory=dict)
    conjugate_label: str | None = None

    def as_dict(self) -> dict:
        d = {
            "label": self.label,
            "solutions": {k: v.as_dict() for k, v in self.solutions.items()},
            "reports": {k: v.as_dict() for k, v in self.reports.items()},
        }
        if self.conjugate_label is not None:
            d["conjugate_label"] = self.conjugate_label
        return d


SOLVE_KEYS = ("B->E", "E->B", "B->E'", "E'->B")


def _classify_once(ch, d_e_to_eprime):
    n_ab = ch
    n_ae = chmod.complementary(ch)
    if d_e_to_eprime is None:
        d_e_to_eprime = chmod.identity_channel(n_ae.dim_out)
    if d_e_to_eprime.dim_in != n_ae.dim_out:
        raise DimMismatch(
            f"degrading map dim_in {d_e_to_eprime.dim_in} != environment dim {n_ae.dim_out}"
        )
    n_aep = chmod.compose(n_ae, d_e_to_eprime)

    solutions = {
        "B->E": solve_degrading_map(n_ab, n_ae),
        "E->B": solve_degrading_map(n_ae, n_ab),
        "B->E'": solve_degrading_map(n_ab, n_aep),
        "E'->B": solve_degrading_map(n_aep, n_ab),
    }
    ok = {k: v.success for k, v in solutions.items()}
    trivial_degrading = _acts_as_identity(d_e_to_eprime)

    if ok["B->E'"] and ok["E'->B"]:
        # output and degraded environment simulate each other
        label = "SYMMETRIC_PD"
    elif trivial_degrading:
        # an identity E->E' map collapses the PD structure to the plain notions
        if ok["B->E"]:
            label = "DEGRADABLE"
        elif ok["E->B"]:
            label = "ANTI_DEGRADABLE"
        else:
            label = "UNDETERMINED"
    elif ok["B->E"] and ok["B->E'"]:
        label = "DEGRADABLE_PD"
    elif ok["B->E'"] and not ok["B->E"]:
        label = "ANTI_DEGRADABLE_PD"
    elif ok["B->E"]:
        label = "DEGRADABLE"
    elif ok["E->B"]:
        label = "ANTI_DEGRADABLE"
    else:
        label = "UNDETERMINED"

    reports = {}
    choi_ae = chmod.to_choi(n_ae, check_tp=False)
    reports["choi_n_ae"] = ent.bound_entanglement_report(
        choi_ae.matrix, (n_ae.dim_in, n_ae.dim_out)
    )
    # degraded environment vs. reference: run E' side of the channel on one
    # half of a maximally entangled input
    d_a = n_aep.dim_in
    psi = np.eye(d_a, dtype=np.complex128).reshape(-1) / np.sqrt(d_a)
    rho_aa = np.outer(psi, psi.conj())
    big = chmod.tensor(chmod.identity_channel(d_a), n_aep)
    sigma = chmod.apply(big, rho_aa)
    reports["sigma_eprime_r"] = ent.bound_entanglement_report(
        sigma, (d_a, n_aep.dim_out)
    )
    return PdClassification(label=label, solutions=solutions, reports=reports)


def classify_pd(
    ch: chmod.KrausChannel,
    d_e_to_eprime: chmod.KrausChannel | None = None,
    try_conjugate: bool = False,
) -> PdClassification:
    result = _classify_once(ch, d_e_to_eprime)
    if try_conjugate and result.label == "UNDETERMINED":
        conj_d = chmod.conjugate(d_e_to_eprime) if d_e_to_eprime is not None else None
        conj = _classify_once(chmod.conjugate(ch), conj_d)
        if conj.label != "UNDETERMINED":
            conj.conjugate_label = conj.label
            conj.label = "CONJUGATE_VARIANT"
            return conj
    return result


def check_theorem3_exclusions(d_e_to_eprime: chmod.KrausChannel) -> dict:
    """Findings that each disqualify a candidate E->E' map from giving a
    proper PD structure: acting as the identity, being entanglement
    breaking, or being degradable itself."""
    identity = _acts_as_identity(d_e_to_eprime)
    eb = ent.is_entanglement_breaking(d_e_to_eprime)
    degr = is_degradable(d_e_to_eprime)
    return {
        "identity": identity,
        "entanglement_breaking": eb.as_dict(),
        "degradable": degr.as_dict(),
        "disqualified": identity or eb.verdict == "yes",
    }
