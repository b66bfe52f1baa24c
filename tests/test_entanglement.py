import numpy as np
import pytest

from pdchannel import channel as ch
from pdchannel import entanglement as ent
from pdchannel import zoo
from pdchannel.errors import DimMismatch, NotDensityMatrix, NotHermitian


def _bell():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(psi, psi.conj())


def _not_hermitian():
    """diag(0.5, 0.5, 0, 0) with entry [0, 3] = 0.9: an eigensolver that reads
    one triangle calls it NPT and its transpose PPT."""
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m[0, 3] = 0.9
    return m


# anti-Hermitian noise with |m - m^dag| = 2e-11, below TOL.herm_tol: rounding
NOISE = 1e-11j * np.ones((4, 4))


def test_entropy_values():
    assert ent.entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert ent.entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
    assert ent.entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    p = 0.3
    h2 = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    assert ent.entropy(np.diag([p, 1 - p])) == pytest.approx(h2, abs=1e-12)


def test_entropy_rejects_non_states():
    with pytest.raises(NotDensityMatrix):
        ent.entropy(np.diag([1.5, -0.5]))
    # every eigenvalue inside [0, 1], but the trace is 0.7
    with pytest.raises(NotDensityMatrix):
        ent.entropy(np.diag([0.5, 0.2]))
    # a 0 x 0 matrix passes check_hermitian, and has no spectrum to clamp
    for f in (ent.entropy, ent.entropy_and_log2):
        with pytest.raises(NotDensityMatrix, match="empty spectrum"):
            f(np.zeros((0, 0)))
    for m in (_not_hermitian(), _not_hermitian().T):
        for f in (ent.entropy, ent.entropy_and_log2):
            with pytest.raises(NotHermitian):
                f(m)
    assert ent.entropy(_bell() + NOISE) == pytest.approx(0.0, abs=1e-9)
    assert ent.entropy_and_log2(_bell() + NOISE)[0] == pytest.approx(0.0, abs=1e-9)


def test_clamped_allows_rounding_of_the_trace():
    # a trace within d * _CLAMP of 1 is rounding, and passes
    d = 4
    w = np.full(d, 1.0 / d) + 0.9 * ent._CLAMP
    assert np.array_equal(ent.clamped(w), w)
    with pytest.raises(NotDensityMatrix):
        ent.clamped(np.full(d, 1.0 / d) + 1.1 * ent._CLAMP)


def _random_states(rng, count, d, rank):
    a = rng.standard_normal((count, d, rank)) + 1j * rng.standard_normal((count, d, rank))
    g = a @ a.conj().swapaxes(-1, -2)
    return g / np.trace(g, axis1=-2, axis2=-1).real[:, None, None]


def test_entropy_and_log2_of_a_stack_matches_each_state():
    rng = np.random.default_rng(5)
    # side 9 with rank 4: more than 8 eigenvalues, some of them zero
    stack = np.concatenate([_random_states(rng, 3, 9, 9), _random_states(rng, 3, 9, 4)])
    h, log, _ = ent.entropy_and_log2(stack.reshape(2, 3, 9, 9))
    assert h.shape == (2, 3) and log.shape == (2, 3, 9, 9)
    for rho, h_one, log_one in zip(stack, h.reshape(-1), log.reshape(-1, 9, 9)):
        want_h, want_log, _ = ent.entropy_and_log2(rho)
        assert h_one == want_h and np.array_equal(log_one, want_log)
        assert want_h == pytest.approx(ent.entropy(rho), abs=1e-12)
    # one state outside the clamping window rejects the stack
    with pytest.raises(NotDensityMatrix):
        ent.entropy_and_log2(np.stack([np.eye(2) / 2, np.diag([1.5, -0.5])]))


def test_ppt_check_bell_and_separable(monkeypatch):
    # rho^{T_B} is the transpose of rho^{T_A}: one eigensolve gives both minima
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    rep = ent.ppt_check(_bell(), (2, 2))
    assert len(calls) == 1
    assert not rep["is_ppt"]
    assert rep["min_eig_ta"] == pytest.approx(-0.5, abs=1e-12)
    assert rep["min_eig_tb"] == pytest.approx(-0.5, abs=1e-12)
    sep = ent.ppt_check(np.eye(4) / 4, (2, 2))
    assert sep["is_ppt"]
    noisy = ent.ppt_check(_bell() + NOISE, (2, 2))
    assert noisy["min_eig_ta"] == pytest.approx(-0.5, abs=1e-10) and not noisy["is_ppt"]
    for m in (_not_hermitian(), _not_hermitian().T):
        with pytest.raises(NotHermitian):
            ent.ppt_check(m, (2, 2))
    with pytest.raises(DimMismatch, match=r"dims \(2, 2, 2\) have 3 factors, expected 2"):
        ent.ppt_check(np.eye(8) / 8, (2, 2, 2))


def test_realign_and_ccnr():
    # product state: CCNR = 1 for pure factors; Bell state: CCNR = 2
    psi0 = np.zeros((4, 4))
    psi0[0, 0] = 1.0
    assert ent.ccnr(psi0, (2, 2)) == pytest.approx(1.0, abs=1e-12)
    assert ent.ccnr(_bell(), (2, 2)) == pytest.approx(2.0, abs=1e-12)
    r = ent.realign(_bell(), (2, 2))
    assert r.shape == (4, 4)
    # R[(i,k),(j,l)] = rho[(i,j),(k,l)]
    assert r[0, 3] == pytest.approx(_bell()[1, 1])
    with pytest.raises(DimMismatch, match=r"dims \(2, 2, 2\) have 3 factors, expected 2"):
        ent.realign(np.eye(8) / 8, (2, 2, 2))


def test_bound_entanglement_report_flags_ppt_entangled():
    rho = zoo.horodecki_state(3.5)
    rep = ent.bound_entanglement_report(rho, (3, 3))
    assert rep["ppt"]["is_ppt"]
    assert rep["ccnr_value"] > 1.0
    assert rep["flagged_bound_entangled"]
    clean = ent.bound_entanglement_report(np.eye(4) / 4, (2, 2))
    assert not clean["flagged_bound_entangled"]
    noisy = ent.bound_entanglement_report(_bell() + NOISE, (2, 2))
    assert not noisy["ppt"]["is_ppt"] and not noisy["flagged_bound_entangled"]
    # read one triangle at a time, the transpose looks PPT with CCNR > 1
    for m in (_not_hermitian(), _not_hermitian().T):
        with pytest.raises(NotHermitian):
            ent.bound_entanglement_report(m, (2, 2))


def test_entanglement_breaking_verdicts():
    # full depolarizing: rank-one Kraus via the Choi decomposition
    assert ent.is_entanglement_breaking(zoo.depolarizing(1.0))["verdict"] == "yes"
    # identity channel: maximally entangled Choi, NPT
    assert ent.is_entanglement_breaking(ch.identity_channel(2))["verdict"] == "no"
    # trace-and-replace built from rank-one operators directly
    ops = []
    for m in range(2):
        for k in range(2):
            op = np.zeros((2, 2), dtype=complex)
            op[m, k] = 1.0 / np.sqrt(2)
            ops.append(op)
    tr_replace = ch.KrausChannel(ops)
    rep = ent.is_entanglement_breaking(tr_replace)
    assert rep["verdict"] == "yes" and "rank one" in rep["witness"]
    # PPT Choi on 2 x 2: PPT implies separable
    assert ent.is_entanglement_breaking(zoo.depolarizing(0.8)) == {
        "verdict": "yes",
        "witness": "Choi PPT with d_in*d_out <= 6 (PPT is sufficient for separability)",
    }
    # PPT Choi on 3 x 3 with CCNR <= 1: no criterion decides
    assert ent.is_entanglement_breaking(zoo.depolarizing(0.9, d=3)) == {
        "verdict": "undetermined",
        "witness": "Choi PPT, CCNR = 0.600000 <= 1, dims too large for PPT sufficiency",
    }


def test_entanglement_binding_channel_is_not_breaking():
    # PPT Choi with CCNR > 1: binds entanglement rather than breaking it
    rep = ent.is_entanglement_breaking(zoo.horodecki_channel(3.5))
    assert rep["verdict"] == "no"
    assert "CCNR" in rep["witness"]
