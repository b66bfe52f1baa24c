import numpy as np
import pytest

from pdchannel import channel as ch
from pdchannel import degradability as deg
from pdchannel import qmat, zoo
from pdchannel.errors import DimMismatch


def test_transfer_matrix_action():
    c = zoo.amplitude_damping(0.3)
    t = deg.transfer_matrix(c)
    rho = np.array([[0.6, 0.1 - 0.3j], [0.1 + 0.3j, 0.4]], dtype=complex)
    assert np.allclose(qmat.unvec(t @ qmat.vec(rho), 2), ch.apply(c, rho))


def test_choi_transfer_reshuffle_roundtrip():
    c = zoo.erasure(0.3)
    t = deg.transfer_matrix(c)
    j = deg.choi_of_transfer(t, c.dim_in, c.dim_out)
    # unnormalized Choi agrees with the channel Choi up to the 1/d_in factor
    choi = ch.to_choi(c)
    assert np.allclose(j / c.dim_in, choi.matrix, atol=1e-12)
    assert np.allclose(deg.transfer_of_choi(j, c.dim_in, c.dim_out), t, atol=1e-12)


def test_probe_states_span_and_validity():
    probes = deg.probe_states(3)
    assert len(probes) == 9
    for rho in probes:
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
    flat = np.stack([p.reshape(-1) for p in probes])
    assert np.linalg.matrix_rank(flat) == 9


@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.4])
def test_amplitude_damping_degradable_solve(gamma):
    c = zoo.amplitude_damping(gamma)
    sol = deg.is_degradable(c)
    assert sol.success
    assert sol.residual <= 1e-8
    assert sol.cp_min_eig >= -1e-9
    assert sol.tp_residual <= 1e-8
    assert sol.map is not None and sol.map.tp_residual() <= 1e-8
    # the returned Kraus map really degrades output to environment
    comp = ch.complementary(c)
    for rho in deg.probe_states(2):
        lhs = ch.apply(comp, rho)
        rhs = ch.apply(sol.map, ch.apply(c, rho))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


@pytest.mark.parametrize("gamma", [0.7, 0.9])
def test_amplitude_damping_antidegradable_solve(gamma):
    c = zoo.amplitude_damping(gamma)
    assert deg.is_antidegradable(c).success
    assert not deg.is_degradable(c).success


def test_erasure_degradability_switch():
    assert deg.is_degradable(zoo.erasure(0.25)).success
    assert deg.is_antidegradable(zoo.erasure(0.75)).success


def test_warm_start_short_circuits():
    c = zoo.amplitude_damping(0.2)
    comp = ch.complementary(c)
    base = deg.solve_degrading_map(c, comp)
    warm = deg.solve_degrading_map(c, comp, warm_start=base.map)
    assert warm.success
    with pytest.raises(DimMismatch):
        deg.solve_degrading_map(c, comp, warm_start=ch.identity_channel(3))


def test_solve_rejects_mismatched_inputs():
    with pytest.raises(DimMismatch):
        deg.solve_degrading_map(zoo.amplitude_damping(0.2), zoo.horodecki_channel(3.5))


def test_failed_solve_reports_not_raises():
    # anti-degradable channel has no B->E degrading map
    sol = deg.is_degradable(zoo.amplitude_damping(0.9))
    assert not sol.success
    assert sol.map is None
    d = sol.as_dict()
    assert set(d) == {"success", "residual", "cp_min_eig", "tp_residual"}


def test_verify_pd_identity_exact_and_mismatch():
    n_ab, n_ae = zoo.symmetric_pd_channel()
    ident = ch.identity_channel(8)
    assert deg.verify_pd_identity(n_ab, ident, n_ae, ident) == 0.0
    # composites that differ: the residual is the largest action mismatch
    # over the probe states
    ad = zoo.amplitude_damping(0.2)
    comp, ident2 = ch.complementary(ad), ch.identity_channel(2)
    left, right = ch.compose(ad, ident2), ch.compose(comp, ident2)
    expected = max(
        np.max(np.abs(ch.apply(left, rho) - ch.apply(right, rho)))
        for rho in deg.probe_states(2)
    )
    assert expected > 0.1
    assert deg.verify_pd_identity(ad, ident2, comp, ident2) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(DimMismatch):
        deg.verify_pd_identity(n_ab, ident, zoo.amplitude_damping(0.1), ident)


def test_classify_plain_labels():
    res = deg.classify_pd(zoo.amplitude_damping(0.1))
    assert res.label == "DEGRADABLE"
    assert set(res.solutions) == set(deg.SOLVE_KEYS)
    res = deg.classify_pd(zoo.amplitude_damping(0.9))
    assert res.label == "ANTI_DEGRADABLE"
    assert "choi_n_ae" in res.reports and "sigma_eprime_r" in res.reports


def test_classify_symmetric_pd():
    n_ab, _ = zoo.symmetric_pd_channel()
    res = deg.classify_pd(n_ab)
    assert res.label == "SYMMETRIC_PD"
    d = res.as_dict()
    assert d["label"] == "SYMMETRIC_PD"
    assert d["solutions"]["B->E'"]["success"]
    assert d["solutions"]["E'->B"]["success"]


def test_classify_degradable_pd_with_lossy_degrading():
    # the repaired 8->2 degrading keeps only one input weight, so the
    # reverse (degraded environment back to output) solve fails and the
    # one-directional PD label applies
    n_ab, _ = zoo.symmetric_pd_channel()
    res = deg.classify_pd(n_ab, zoo.d_e_to_eprime(repair=True))
    assert res.label == "DEGRADABLE_PD"
    assert res.solutions["B->E'"].success
    assert not res.solutions["E'->B"].success


def test_classify_conjugate_fallback_passthrough():
    # real-Kraus channels classify the same under conjugation; the fallback
    # path must not change a determined label
    res = deg.classify_pd(zoo.amplitude_damping(0.3), try_conjugate=True)
    assert res.label == "DEGRADABLE"
    assert res.conjugate_label is None


def test_theorem3_exclusions():
    findings = deg.check_theorem3_exclusions(ch.identity_channel(2))
    assert findings["identity"] and findings["disqualified"]
    findings = deg.check_theorem3_exclusions(zoo.depolarizing(1.0))
    assert findings["entanglement_breaking"]["verdict"] == "yes"
    assert findings["disqualified"]
    findings = deg.check_theorem3_exclusions(zoo.amplitude_damping(0.2))
    assert not findings["identity"]
    assert findings["degradable"]["success"]
