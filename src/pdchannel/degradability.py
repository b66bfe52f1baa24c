"""Degrading-map solving and channel taxonomy.

Whether a CPTP map D with to = D o from exists is a convex feasibility
problem: D's transfer matrix must lie in one affine set A, the
trace-preserving solutions of T T_from = T_to, and in the cone K of transfer
matrices with a PSD Choi matrix. The member of A nearest 0 is certified as
CPTP via a Choi eigensolve; when it fails, Douglas-Rachford splitting
between A and K, which sees only the two projections, the residuals and the
witness map, searches for a map and scores its displacement, which
separates A from K if they do not meet, as a Farkas certificate (Banjac,
Goulart, Stellato & Boyd, JOTA 183, 2019; Liu, Ryu & Yin, Math. Program.
177, 2019). Safeguarded type-II Anderson mixing accelerates it (Walker & Ni,
SIAM J. Numer. Anal. 49(4), 2011; Zhang, O'Donoghue & Boyd, SIAM J. Optim.
30(4), 2020). Every solve ends in one of three statuses:

- ``certified``: the candidate passes its CP/TP and residual certificates;
  the Kraus map handed back is re-checked and its own margins reported.
- ``impossible``: a dual pair (Y, z) has a Farkas score below
  -FARKAS_MARGIN, which proves that no CPTP D exists; see
  :func:`_farkas_witness`.
- ``not_found``: no map was found and no witness either; ``stop`` says
  where the search ended. This is not a proof of nonexistence.
"""

from __future__ import annotations

import functools

import numpy as np

from . import channel as chmod
from . import entanglement as ent
from . import qmat
from .config import TOL, check_side
from .errors import DimMismatch


def transfer_matrix(ch: chmod.KrausChannel) -> np.ndarray:
    """Superoperator T with vec(N(rho)) = T vec(rho), column-major vec."""
    # sum_i kron(conj(N_i), N_i)[(r, s), (c, t)] = sum_i conj(N_i)[r, c] N_i[s, t]:
    # one matmul sums over i into [(r, c), (s, t)], so no (K, d_out^2, d_in^2)
    # stack of the Kronecker products is ever built
    k = ch.kraus.reshape(ch.dim_env, ch.dim_out * ch.dim_in)
    t = (k.conj().T @ k).reshape(ch.dim_out, ch.dim_in, ch.dim_out, ch.dim_in)
    return t.transpose(0, 2, 1, 3).reshape(ch.dim_out**2, ch.dim_in**2)


def choi_of_transfer(t: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Unnormalized Choi J = sum_ij E_ij (x) D(E_ij) from a transfer matrix."""
    t4 = t.reshape(dim_out, dim_out, dim_in, dim_in)  # [b, a, j, i] = D(E_ij)[a, b]
    return t4.transpose(3, 1, 2, 0).reshape(dim_in * dim_out, dim_in * dim_out)


def transfer_of_choi(j: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    j4 = j.reshape(dim_in, dim_out, dim_in, dim_out)  # [i, a, j, b]
    return j4.transpose(3, 1, 2, 0).reshape(dim_out**2, dim_in**2)


def probe_states(d: int) -> list:
    """The basis states |i><i| and, for each pair i < j and each phase in
    {1, i, -1, -i}, the state of (e_i + phase e_j) / sqrt(2): 2 d^2 - d
    states spanning Hermitian space. The set is closed under entrywise
    complex conjugation, so a problem and its conjugate probe alike."""
    eye = np.eye(d, dtype=np.complex128)
    probes = [np.outer(e, e) for e in eye]
    for i in range(d):
        for j in range(i + 1, d):
            for phase in (1.0, 1j, -1.0, -1j):
                v = eye[i] + phase * eye[j]
                probes.append(np.outer(v, v.conj()) / 2)
    return probes


@functools.lru_cache(maxsize=8)
def _probe_vecs(d: int) -> np.ndarray:
    """The (d^2, 2 d^2 - d) matrix whose column i is vec(rho_i) for the i-th
    probe state of side d; built once per side and read-only."""
    p = np.stack(probe_states(d))
    vecs = p.transpose(0, 2, 1).reshape(len(p), d * d).T
    vecs.flags.writeable = False
    return vecs


def _probe_residual(r: np.ndarray, d: int) -> float:
    """max |R vec(rho)| over the probe states of side d, for a superoperator
    R acting on column-major vec."""
    return float(np.max(np.abs(r @ _probe_vecs(d))))


FARKAS_MARGIN = 1e-9
"""Rounding margin on the Farkas score: a witness proves that no map exists
only when its score is below -FARKAS_MARGIN. Every witness is scaled to unit
norm, so on the zoo channels the score sums a few thousand products of
entries of at most 1 in size; a long-double recomputation of its b differs
by at most 2.3e-16. Every zoo witness scores -0.2496 or less."""

# Choi eigensolves the Douglas-Rachford refinement may spend before it gives up
REFINE_ROUNDS = 2000
# it stops once its iterate's composition and TP residuals are a hundredth
# of the certificate's tolerance, so the certificate holds with room to spare
REFINE_STOP = TOL.residual_tol / 100
# the refinement mixes its last ANDERSON_MEMORY steps, with a Tikhonov weight
# of ANDERSON_REG times the squared norm of their residual differences
ANDERSON_MEMORY = 5
ANDERSON_REG = 1e-10


def _certify(t_d, residuals, d_mid, d_out) -> tuple:
    """The report of the candidate T_d and, when its certificates pass, the
    Kraus map clipped from its Choi matrix, certified in turn; else None."""
    residual, tp_residual = residuals(t_d)
    choi = choi_of_transfer(t_d, d_mid, d_out)
    cp_min_eig = float(qmat.eigvalsh(choi)[0])
    success = residual <= TOL.residual_tol and cp_min_eig >= TOL.psd_tol and tp_residual <= TOL.residual_tol
    report = {"success": success, "residual": residual, "cp_min_eig": cp_min_eig,
              "tp_residual": tp_residual, "status": "certified" if success else "not_found"}
    if not success:
        return report, None
    d = chmod.KrausChannel(chmod.kraus_from_choi(choi, d_mid, d_out), name="degrading")
    report["map_residual"] = residuals(transfer_matrix(d))[0]
    report["map_tp_residual"] = d.tp_residual()
    return report, d


def _farkas_witness(y, z, t_from, t_to, d_mid, d_out) -> dict | None:
    """The witness of the dual pair (Y, z) scaled to ||Y||_F^2 + ||z||^2 = 1,
    or None when the pair is zero or its score is not below -FARKAS_MARGIN.
    With W' = Y T_from^dag + vec(I_out) z^dag, every D with T_D T_from = T_to
    and Tr_out J_D = I_mid has <W', T_D> = b = Re(<Y, T_to> + <z, vec(I_mid)>).
    Its Choi matrix J_D is an entrywise permutation of T_D, so if J_D is PSD,
    with Tr J_D = d_mid, then <W', T_D> >= -d_mid m with
    m = max(0, -lambda_min(Herm Choi(W'))). Hence score = b + d_mid m < 0
    proves that no CPTP D exists; nothing is assumed of ``from`` and ``to``.
    Y and z are reported in the ``[re, im]`` row layout."""
    scale = np.hypot(np.linalg.norm(y), np.linalg.norm(z))
    if not scale > 0:
        return None
    y, z = y / scale, z / scale
    w_prime = y @ t_from.conj().T + np.outer(np.eye(d_out), z.conj())
    j = choi_of_transfer(w_prime, d_mid, d_out)
    lam = float(qmat.eigvalsh(j)[0])
    b = np.vdot(y, t_to).real + np.vdot(z, np.eye(d_mid)).real
    score = float(b + d_mid * max(0.0, -lam))
    if score >= -FARKAS_MARGIN:
        return None
    return {"kind": "farkas", "score": score, "margin": FARKAS_MARGIN,
            "Y": qmat.as_pairs(y), "z": qmat.as_pairs(z)}


def _cptp_refine(t, affine, cone, residuals, normal_witness):
    """Douglas-Rachford splitting between the cone K and the affine set A
    onto which ``cone`` and ``affine`` project, from ``t`` in A, with
    safeguarded type-II Anderson acceleration; with ``residuals`` and
    ``normal_witness`` these closures are all it knows of the problem. Its
    map is F(z) = z + P_A(2x - z) - x, x = P_K(z), its residual g = F(z) - z.
    The next point from the last accepted z_k is F(z_k) - sum_i gamma_i dF_i,
    with dF_i and dg_i the differences of F and g between consecutive
    accepted points, the last ANDERSON_MEMORY of them, and real gamma minimising
    ||g(z_k) - sum_i gamma_i dg_i||^2 + ANDERSON_REG ||dg||_F^2 ||gamma||^2.
    A mixed point is accepted only if ||g||_F does not exceed the last
    accepted point's; otherwise the plain step F(z_k) follows, with the
    history cleared. At round 1 and every 25th, ``normal_witness`` scores
    -g, which tends to a vector separating A from K when they do not meet.
    Returns the last x, the rounds (calls of ``cone``, rejected points
    included) and the witness or None. It stops at a witness, once both
    ``residuals`` of x are at most REFINE_STOP, or after REFINE_ROUNDS
    rounds; deterministic."""
    # dF_i and dg_i as real vectors, in rings of ANDERSON_MEMORY rows
    d_f = np.empty((ANDERSON_MEMORY, 2 * t.size))
    d_g = np.empty_like(d_f)
    # differences recorded since the history was last cleared; z is a mixed
    # point exactly when there are some
    pairs = 0
    z, f_acc, g_acc, norm_acc = t, None, None, np.inf
    for rounds in range(1, REFINE_ROUNDS + 1):
        x = cone(z)
        if all(r <= REFINE_STOP for r in residuals(x)):
            return x, rounds, None
        g = affine(2 * x - z) - x
        if (rounds == 1 or rounds % 25 == 0) and (witness := normal_witness(-g)):
            return x, rounds, witness
        norm = np.linalg.norm(g)
        if pairs and not norm <= norm_acc:
            z, pairs = f_acc, 0
            continue
        f = z + g
        if f_acc is not None:
            slot = pairs % ANDERSON_MEMORY
            d_f[slot] = (f - f_acc).view(np.float64).ravel()
            d_g[slot] = (g - g_acc).view(np.float64).ravel()
            pairs += 1
        f_acc, g_acc, norm_acc = f, g, norm
        # with no differences recorded, gamma is empty and z = F(z_k)
        m = min(pairs, ANDERSON_MEMORY)
        gram = d_g[:m] @ d_g[:m].T
        # tiny keeps the solve regular when every dg_i is exactly zero
        gram[np.diag_indices(m)] += ANDERSON_REG * np.trace(gram) + np.finfo(float).tiny
        gamma = np.linalg.solve(gram, d_g[:m] @ g.view(np.float64).ravel())
        z = f - (gamma @ d_f[:m]).view(np.complex128).reshape(f.shape)
    return x, REFINE_ROUNDS, None


def solve_degrading_map(from_ch: chmod.KrausChannel, to_ch: chmod.KrausChannel) -> tuple:
    """Find a CPTP map D with to = D o from, or prove that none exists.

    Returns ``(report, map)``: the report ``classify`` prints for the solve
    and the certified Kraus map, None unless ``status`` is ``certified``.
    The report holds ``success``, ``residual``, ``cp_min_eig``, ``tp_residual``
    and ``status``; a certified solve adds ``map_residual`` and
    ``map_tp_residual``, the certificates of the returned map itself, an
    impossible one its ``witness``, a ``not_found`` one its ``stop``, and one
    that ran the refinement its ``refine_rounds``.

    The problem is stated once, as the closures :func:`_cptp_refine` reads.
    ``affine`` projects onto A: with Pi = T_from pinv(T_from), never formed,
    T_off = T (I - Pi) and r = vec(I_mid)^dag (I - Pi),
    P_A(T) = T_to pinv(T_from) + T_off + vec(I_out / d_out) (r - vec(I_out)^dag T_off).
    ``cone`` clips the Choi eigenvalues at 0, the projection onto K since J
    is an entrywise permutation of T. ``residuals`` gives the composition
    residual on the probe states and the TP residual
    max |vec(I_out)^T T - vec(I_mid)^T|, which the certificates read too.
    ``normal_witness`` scores a displacement W by its component normal to
    A, W' = W - (P_A(W) - P_A(0)): Y = W pinv(T_from)^dag and
    z^dag = vec(I_out)^dag W (I - Pi) / d_out. The solve certifies
    P_A(0) = T_to pinv(T_from) + vec(I_out / d_out) r, the least-squares
    map with the off-range input components sent to the maximally mixed
    state. If its residual or trace mismatch is above TOL.residual_tol, it
    scores the Farkas pair of its remainder and mismatch (README,
    Conventions); without a proof the refinement searches A from P_A(0).
    Input sides that differ raise :class:`DimMismatch`, and a matrix side
    above the side cap :class:`SizeLimit`, before anything is built.
    """
    if from_ch.dim_in != to_ch.dim_in:
        raise DimMismatch(f"input dims differ: {from_ch.dim_in} != {to_ch.dim_in}")
    d_in, d_mid, d_out = from_ch.dim_in, from_ch.dim_out, to_ch.dim_out
    check_side("degrading-map solve", d_in**2, d_mid**2, d_out**2, d_mid * d_out)
    t_from, t_to = transfer_matrix(from_ch), transfer_matrix(to_ch)
    f_pinv = qmat.pinv(t_from)
    t_ls = t_to @ f_pinv
    tr_mid, tr_out = (np.eye(d).reshape(1, -1) for d in (d_mid, d_out))
    r = tr_mid - (tr_mid @ t_from) @ f_pinv

    def affine(t):
        t_off = t - (t @ t_from) @ f_pinv
        return t_ls + t_off + tr_out.T / d_out * (r - tr_out @ t_off)

    def cone(t):
        w, v = qmat.eigh(choi_of_transfer(t, d_mid, d_out))
        return transfer_of_choi((v * np.clip(w, 0.0, None)) @ v.conj().T, d_mid, d_out)

    def residuals(t):
        return _probe_residual(t_to - t @ t_from, d_in), float(np.max(np.abs(tr_out @ t - tr_mid)))

    def normal_witness(w):
        y, z = w @ f_pinv.conj().T, (tr_out @ (w - (w @ t_from) @ f_pinv)).conj().ravel() / d_out
        return _farkas_witness(y, z, t_from, t_to, d_mid, d_out)

    t_d = t_ls + tr_out.T / d_out * r
    report, d = _certify(t_d, residuals, d_mid, d_out)
    if d is not None:
        return report, d
    g = (tr_out @ t_to - tr_mid @ t_from).ravel()
    witness = None
    if max(np.max(np.abs(g)), report["residual"]) > TOL.residual_tol:
        # no trace-preserving linear map takes from to to; for any g this pair has W' = 0
        witness = _farkas_witness(t_ls @ t_from - t_to - np.outer(tr_out, g), t_from @ g.conj(),
                                  t_from, t_to, d_mid, d_out)
    if witness is None:
        t_ref, rounds, witness = _cptp_refine(t_d, affine, cone, residuals, normal_witness)
        report["refine_rounds"] = rounds
        if witness is None:
            refined, d = _certify(t_ref, residuals, d_mid, d_out)
            if d is not None:
                return {**refined, "refine_rounds": rounds}, d
    # the report is the least-squares candidate's, not the last iterate's
    report.update({"status": "impossible", "witness": witness} if witness else {"stop": "refine_cap"})
    return report, None


def is_degradable(ch: chmod.KrausChannel) -> tuple:
    return solve_degrading_map(ch, chmod.complementary(ch))


def is_antidegradable(ch: chmod.KrausChannel) -> tuple:
    return solve_degrading_map(chmod.complementary(ch), ch)


def verify_pd_identity(n_ab, d_e_to_eprime, d_b_to_eprime) -> float:
    """Max action mismatch of D^{B->E'} o N_AB versus D^{E->E'} o N_AE, with
    N_AE the complementary channel of N_AB; a leg that does not act on the
    output it follows raises :class:`DimMismatch` in :func:`channel.compose`."""
    left = chmod.compose(n_ab, d_b_to_eprime)
    right = chmod.compose(chmod.complementary(n_ab), d_e_to_eprime)
    # both legs start at n_ab.dim_in
    if left.dim_out != right.dim_out:
        raise DimMismatch("composed maps have mismatched endpoints")
    return _probe_residual(transfer_matrix(left) - transfer_matrix(right), left.dim_in)


def _acts_as_identity(ch: chmod.KrausChannel) -> bool:
    if ch.dim_in != ch.dim_out:
        return False
    r = transfer_matrix(ch) - np.eye(ch.dim_in**2)
    return _probe_residual(r, ch.dim_in) <= TOL.residual_tol


def _choi_report(ch: chmod.KrausChannel) -> dict:
    return ent.bound_entanglement_report(chmod.to_choi(ch), (ch.dim_in, ch.dim_out))


def classify_pd(n_ab: chmod.KrausChannel, d_e_to_eprime: chmod.KrausChannel | None = None) -> dict:
    """Label N_AB = ``n_ab`` by four degrading solves between its output B,
    its environment E and E', the image of ``d_e_to_eprime`` (E if None).

    Returns ``label``; ``solutions``, the report of each solve
    (:func:`solve_degrading_map`) by its key B->E, E->B, B->E' and E'->B;
    and ``reports``, the bound-entanglement reports of the Choi states of N_AE (``choi_n_ae``) and N_AE'
    (``sigma_eprime_r``). Without a degrading map the primed entries are
    the unprimed ones, the same objects."""
    n_ae = chmod.complementary(n_ab)
    # the default E->E' map is the identity: E' is E, so the primed problems
    # are the unprimed ones and share their reports; a map that does not
    # start on E is refused here, before any solve
    n_aep = n_ae if d_e_to_eprime is None else chmod.compose(n_ae, d_e_to_eprime)
    solutions = {
        "B->E": solve_degrading_map(n_ab, n_ae)[0],
        "E->B": solve_degrading_map(n_ae, n_ab)[0],
    }
    solutions["B->E'"] = solutions["B->E"] if n_aep is n_ae else solve_degrading_map(n_ab, n_aep)[0]
    solutions["E'->B"] = solutions["E->B"] if n_aep is n_ae else solve_degrading_map(n_aep, n_ab)[0]
    trivial_degrading = d_e_to_eprime is None or _acts_as_identity(d_e_to_eprime)
    ok = {k: v["success"] for k, v in solutions.items()}

    if ok["B->E'"] and ok["E'->B"]:
        # output and degraded environment simulate each other
        label = "SYMMETRIC_PD"
    elif ok["B->E'"] and not trivial_degrading:
        # an identity E->E' map leaves only the plain notions below
        label = "DEGRADABLE_PD" if ok["B->E"] else "ANTI_DEGRADABLE_PD"
    elif ok["B->E"]:
        label = "DEGRADABLE"
    elif ok["E->B"]:
        label = "ANTI_DEGRADABLE"
    else:
        label = "UNDETERMINED"

    reports = {"choi_n_ae": _choi_report(n_ae)}
    # the state of reference and degraded environment when N_AE' acts on one
    # half of a maximally entangled input is the Choi state of N_AE'
    reports["sigma_eprime_r"] = reports["choi_n_ae"] if n_aep is n_ae else _choi_report(n_aep)
    return {"label": label, "solutions": solutions, "reports": reports}


def check_theorem3_exclusions(d_e_to_eprime: chmod.KrausChannel) -> dict:
    """Findings on a candidate E->E' map. ``disqualified``, the verdict that
    it gives no proper PD structure, counts acting as the identity and being
    entanglement breaking; ``degradable``, whether the map is degradable
    itself, is reported beside it and not counted."""
    identity = _acts_as_identity(d_e_to_eprime)
    eb = ent.is_entanglement_breaking(d_e_to_eprime)
    return {
        "identity": identity,
        "entanglement_breaking": eb,
        "degradable": is_degradable(d_e_to_eprime)[0],
        "disqualified": identity or eb["verdict"] == "yes",
    }
