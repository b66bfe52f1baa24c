import json

import numpy as np
import pytest

from pdchannel import channel as ch
from pdchannel import cli
from pdchannel import degradability as deg
from pdchannel import entanglement as ent
from pdchannel import qmat, zoo
from pdchannel.errors import DimMismatch


def test_transfer_matrix_action():
    c = zoo.amplitude_damping(0.3)
    t = deg.transfer_matrix(c)
    rho = np.array([[0.6, 0.1 - 0.3j], [0.1 + 0.3j, 0.4]], dtype=complex)
    assert np.allclose((t @ qmat.vec(rho)).reshape(2, 2, order="F"), ch.apply(c, rho))


def test_choi_transfer_reshuffle_roundtrip():
    c = zoo.erasure(0.3)
    t = deg.transfer_matrix(c)
    j = deg.choi_of_transfer(t, c.dim_in, c.dim_out)
    # unnormalized Choi agrees with the channel Choi up to the 1/d_in factor
    choi = ch.to_choi(c)
    assert np.allclose(j / c.dim_in, choi, atol=1e-12)
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
    # the report certifies the returned Kraus map itself
    d = sol.as_dict()
    assert set(d) == {"success", "residual", "cp_min_eig", "tp_residual", "status",
                      "map_residual", "map_tp_residual"}
    assert d["status"] == "certified"
    assert d["map_tp_residual"] == sol.map.tp_residual()
    assert 0.0 <= d["map_residual"] <= 1e-8
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


def test_solve_rejects_mismatched_inputs():
    with pytest.raises(DimMismatch):
        deg.solve_degrading_map(zoo.amplitude_damping(0.2), zoo.horodecki_channel(3.5))


def test_failed_solve_reports_not_raises():
    # anti-degradable channel has no B->E degrading map
    sol = deg.is_degradable(zoo.amplitude_damping(0.9))
    assert not sol.success
    assert sol.map is None
    d = sol.as_dict()
    assert set(d) == {"success", "residual", "cp_min_eig", "tp_residual", "status", "witness"}
    assert d["status"] == "impossible"


def _count_refines(monkeypatch) -> list:
    """The (stop reason, rounds) of every CPTP refinement that runs."""
    ends = []
    refine = deg._cptp_refine

    def counted(*args):
        out = refine(*args)
        ends.append(out[1:])
        return out

    monkeypatch.setattr(deg, "_cptp_refine", counted)
    return ends


@pytest.mark.parametrize(
    "solve, refines",
    [
        (lambda: deg.classify_pd(zoo.amplitude_damping(0.2)), 0),
        (lambda: deg.classify_pd(zoo.depolarizing(0.5)), 0),
        # erasure's B->E solve refines to a certified map; E->B is the futile one
        (lambda: deg.is_antidegradable(zoo.erasure(0.25)), 0),
        (lambda: deg.classify_pd(zoo.horodecki_channel(3.5)), 1),
    ],
    ids=["amplitude_damping", "depolarizing", "erasure-E->B", "horodecki"],
)
def test_witness_skips_futile_refinement(monkeypatch, solve, refines):
    ends = _count_refines(monkeypatch)
    solve()
    assert len(ends) == refines
    if refines:
        # horodecki E->B: its Choi matrix is PPT, so no entropic witness exists
        assert ends == [("refine_cap", deg.REFINE_ROUNDS)]


def test_refined_iterate_solves_the_affine_constraints(monkeypatch):
    # horodecki E->B refines to the cap; the iterate it ends on still lies
    # in the affine set of trace-preserving solutions of T T_from = T_to
    iterates = []
    refine = deg._cptp_refine

    def kept(*args):
        out = refine(*args)
        iterates.append(out[0])
        return out

    monkeypatch.setattr(deg, "_cptp_refine", kept)
    n_ab = zoo.horodecki_channel(3.5)
    n_ae = ch.complementary(n_ab)
    sol = deg.solve_degrading_map(n_ae, n_ab)
    assert sol.status == "not_found" and sol.stop == "refine_cap"
    (t,) = iterates
    d_mid, d_out = n_ae.dim_out, n_ab.dim_out
    t_from, t_to = deg.transfer_matrix(n_ae), deg.transfer_matrix(n_ab)
    assert deg._probe_residual(t_to - t @ t_from, n_ab.dim_in) <= 1e-12
    tr_out = qmat.partial_trace(deg.choi_of_transfer(t, d_mid, d_out), (d_mid, d_out), keep=[0])
    assert np.max(np.abs(tr_out - np.eye(d_mid))) <= 1e-12


def test_solve_without_linear_solution_stops_at_least_squares():
    # complete Z dephasing erases the off-diagonal entries an X measurement
    # reads, so no linear map exists; both channels have I_coh = 0 on every
    # input, so no entropic witness exists either
    x_measure = ch.KrausChannel(np.array([[[1, 1], [0, 0]], [[0, 0], [1, -1]]]) / np.sqrt(2), 2, 2)
    sol = deg.solve_degrading_map(zoo.dephasing(0.5), x_measure)
    assert sol.residual > 1e-8
    assert deg.find_witness(zoo.dephasing(0.5), x_measure) is None
    d = sol.as_dict()
    assert d["status"] == "not_found" and d["stop"] == "least_squares_residual"


def test_witness_search_skips_flagged_pairs():
    flagged = zoo.corollary4_degrading_map()
    assert flagged.flagged
    assert deg.find_witness(ch.identity_channel(3), flagged) is None


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


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = deg.solve_degrading_map

    def counted(from_ch, to_ch):
        calls.append((from_ch.dim_out, to_ch.dim_out))
        return solve(from_ch, to_ch)

    monkeypatch.setattr(deg, "solve_degrading_map", counted)
    return calls


def test_classify_default_map_solves_each_problem_once(monkeypatch):
    # with no E->E' map, E' is E: B->E' and E'->B are B->E and E->B
    calls = _count_solves(monkeypatch)
    res = deg.classify_pd(zoo.amplitude_damping(0.2))
    assert len(calls) == 2
    assert res.label == "DEGRADABLE"
    assert res.solutions["B->E'"] is res.solutions["B->E"]
    assert res.solutions["E'->B"] is res.solutions["E->B"]
    assert res.reports["sigma_eprime_r"] is res.reports["choi_n_ae"]


def test_sigma_eprime_r_is_the_choi_state_of_n_aep():
    # N_AE' on one half of a maximally entangled input gives its Choi state
    n_ab, _ = zoo.symmetric_pd_channel()
    d = zoo.d_e_to_eprime(repair=True)
    n_aep = ch.compose(ch.complementary(n_ab), d)
    psi = np.eye(4, dtype=complex).reshape(-1) / 2.0
    sigma = ch.apply(ch.tensor(ch.identity_channel(4), n_aep), np.outer(psi, psi.conj()))
    assert np.max(np.abs(sigma - ch.to_choi(n_aep))) <= 1e-14
    old = ent.bound_entanglement_report(sigma, (4, n_aep.dim_out))
    rep = deg.classify_pd(n_ab, d).reports["sigma_eprime_r"]
    assert rep.ppt.is_ppt == old.ppt.is_ppt
    assert rep.flagged_bound_entangled == old.flagged_bound_entangled


def test_classify_degradable_pd_with_lossy_degrading(monkeypatch):
    # the repaired 8->2 degrading keeps only one input weight, so the
    # reverse (degraded environment back to output) solve fails and the
    # one-directional PD label applies
    n_ab, _ = zoo.symmetric_pd_channel()
    calls = _count_solves(monkeypatch)
    res = deg.classify_pd(n_ab, zoo.d_e_to_eprime(repair=True))
    assert len(calls) == 4
    assert res.label == "DEGRADABLE_PD"
    assert res.solutions["B->E'"].success
    assert not res.solutions["E'->B"].success


def test_classify_conjugate_fallback_passthrough():
    # real-Kraus channels classify the same under conjugation; the fallback
    # path must not change a determined label
    res = deg.classify_pd(zoo.amplitude_damping(0.3), try_conjugate=True)
    assert res.label == "DEGRADABLE"
    assert res.conjugate_label is None


def test_classify_conjugate_skips_real_channel(monkeypatch):
    # a channel with real Kraus operators is its own conjugate, so an
    # UNDETERMINED result is final without a second classification
    calls = []
    once = deg._classify_once

    def counted(c, d_e_to_eprime):
        calls.append(c.name)
        return once(c, d_e_to_eprime)

    monkeypatch.setattr(deg, "_classify_once", counted)
    res = deg.classify_pd(zoo.horodecki_channel(3.5), try_conjugate=True)
    assert len(calls) == 1
    assert res.label == "UNDETERMINED"
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


# The classify benchmark's nine inputs: zoo entries that are trace-preserving
# as exported, with the status each solve ends in.
ZOO_STATUSES = {
    ("horodecki", ()): ("impossible", "not_found"),
    ("symmetric_pd", ()): ("certified", "certified"),
    ("erasure", (("p", 0.25), ("d", 2))): ("certified", "impossible"),
    ("depolarizing", (("p", 0.5), ("d", 2))): ("impossible", "certified"),
    ("amplitude_damping", (("gamma", 0.2),)): ("certified", "impossible"),
    ("dephasing", (("p", 0.3),)): ("certified", "impossible"),
    ("m_ae", (("repair", True),)): ("impossible", "not_found"),
    ("composite_complementary", (("x", 0.75), ("repair", True))): ("not_found", "impossible"),
    ("d_e_to_eprime", (("repair", True),)): ("impossible", "impossible"),
}


@pytest.fixture(scope="module")
def zoo_reports(tmp_path_factory):
    """(Kraus record, classify report) of each input, through the CLI."""
    tmp = tmp_path_factory.mktemp("zoo")
    out = {}
    for key in ZOO_STATUSES:
        entry_id, params = key
        path, report = tmp / f"{entry_id}.json", tmp / f"{entry_id}.report.json"
        ch.save_channel(zoo.build_entry(entry_id, **dict(params)).channel, str(path))
        assert cli.main(["classify", str(path), "--out", str(report)]) in (0, 3)
        out[key] = (json.loads(path.read_text()), json.loads(report.read_text()))
    return out


def _entropy(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def _plain_coherent_information(kraus, rho):
    """H(N(rho)) - H(N_c(rho)) with the environment of the Kraus index."""
    out = np.einsum("kab,bc,kdc->ad", kraus, rho, kraus.conj())
    env = np.einsum("kab,bc,jac->kj", kraus, rho, kraus.conj())
    return _entropy(out) - _entropy(env)


def test_zoo_solve_statuses(zoo_reports):
    for key, (_, report) in zoo_reports.items():
        sols = report["solutions"]
        assert (sols["B->E"]["status"], sols["E->B"]["status"]) == ZOO_STATUSES[key], key
        for sol in sols.values():
            # the three open solves all refine to the round cap
            assert sol.get("stop", "refine_cap") == "refine_cap"
        # the identity E->E' map: the primed solves are the unprimed ones
        assert sols["B->E'"] == sols["B->E"] and sols["E'->B"] == sols["E->B"]


def test_zoo_witnesses_recompute_from_the_report(zoo_reports):
    seen = 0
    for key, (record, report) in zoo_reports.items():
        a = np.array(record["kraus"], dtype=float)
        kraus = a[..., 0] + 1j * a[..., 1]
        # I_coh(N_c) = -I_coh(N): the B->E gap is -2 I_coh(N), the E->B gap +2 I_coh(N)
        for direction, sign in (("B->E", -2.0), ("E->B", 2.0)):
            sol = report["solutions"][direction]
            if sol["status"] != "impossible":
                continue
            w = sol["witness"]
            assert w["kind"] == "data_processing" and w["margin"] == deg.WITNESS_MARGIN
            s = np.array(w["state"], dtype=float)
            rho = s[..., 0] + 1j * s[..., 1]
            assert abs(np.trace(rho) - 1) <= 1e-12 and np.linalg.eigvalsh(rho)[0] >= -1e-12
            gap = sign * _plain_coherent_information(kraus, rho)
            assert gap > w["margin"], (key, direction, gap)
            assert gap == pytest.approx(w["gap"], abs=1e-9), (key, direction)
            seen += 1
    assert seen == 9


def _solve_pairs(n_ab, d_e_to_eprime=None):
    n_ae = ch.complementary(n_ab)
    n_aep = n_ae if d_e_to_eprime is None else ch.compose(n_ae, d_e_to_eprime)
    return {"B->E": (n_ab, n_ae), "E->B": (n_ae, n_ab), "B->E'": (n_ab, n_aep), "E'->B": (n_aep, n_ab)}


def test_no_witness_against_a_certified_map(zoo_reports):
    cases = [(ch.channel_from_dict(record), None, report) for record, report in zoo_reports.values()]
    n_ab, d = zoo.symmetric_pd_channel()[0], zoo.d_e_to_eprime(repair=True)
    cases.append((n_ab, d, deg.classify_pd(n_ab, d).as_dict()))
    certified = 0
    for n, d, report in cases:
        for key, (from_ch, to_ch) in _solve_pairs(n, d).items():
            if report["solutions"][key]["status"] == "certified":
                assert deg.find_witness(from_ch, to_ch) is None, (n.name, key)
                certified += 1
    assert certified == 15
