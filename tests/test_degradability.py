import json
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from pdchannel import capacity as cap
from pdchannel import channel as ch
from pdchannel import cli
from pdchannel import degradability as deg
from pdchannel import entanglement as ent
from pdchannel import qmat, zoo
from pdchannel.errors import DimMismatch, SizeLimit


def test_transfer_matrix_action():
    c = zoo.amplitude_damping(0.3)
    t = deg.transfer_matrix(c)
    rho = np.array([[0.6, 0.1 - 0.3j], [0.1 + 0.3j, 0.4]], dtype=complex)
    assert np.allclose((t @ rho.flatten(order="F")).reshape(2, 2, order="F"), ch.apply(c, rho))


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
    assert len(probes) == 15
    for rho in probes:
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert any(np.array_equal(rho.conj(), other) for other in probes)
    flat = np.stack([p.reshape(-1) for p in probes])
    assert np.linalg.matrix_rank(flat) == 9


@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.4])
def test_amplitude_damping_degradable_solve(gamma):
    c = zoo.amplitude_damping(gamma)
    d, m = deg.is_degradable(c)
    assert d["success"]
    assert d["residual"] <= 1e-8
    assert d["cp_min_eig"] >= -1e-9
    assert d["tp_residual"] <= 1e-8
    assert m is not None and m.tp_residual() <= 1e-8
    # the report certifies the returned Kraus map itself
    assert set(d) == {"success", "residual", "cp_min_eig", "tp_residual", "status",
                      "map_residual", "map_tp_residual"}
    assert d["status"] == "certified"
    assert d["map_tp_residual"] == m.tp_residual()
    assert 0.0 <= d["map_residual"] <= 1e-8
    # the returned Kraus map really degrades output to environment
    comp = ch.complementary(c)
    for rho in deg.probe_states(2):
        lhs = ch.apply(comp, rho)
        rhs = ch.apply(m, ch.apply(c, rho))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


@pytest.mark.parametrize("gamma", [0.7, 0.9])
def test_amplitude_damping_antidegradable_solve(gamma):
    c = zoo.amplitude_damping(gamma)
    assert deg.is_antidegradable(c)[0]["success"]
    assert not deg.is_degradable(c)[0]["success"]


def test_erasure_degradability_switch():
    assert deg.is_degradable(zoo.erasure(0.25))[0]["success"]
    assert deg.is_antidegradable(zoo.erasure(0.75))[0]["success"]


def test_solve_rejects_mismatched_inputs():
    with pytest.raises(DimMismatch):
        deg.solve_degrading_map(zoo.amplitude_damping(0.2), zoo.horodecki_channel(3.5))


def test_failed_solve_reports_not_raises():
    # anti-degradable channel has no B->E degrading map
    d, m = deg.is_degradable(zoo.amplitude_damping(0.9))
    assert not d["success"]
    assert m is None
    assert set(d) == {"success", "residual", "cp_min_eig", "tp_residual", "status", "witness",
                      "refine_rounds"}
    assert d["status"] == "impossible"


# Choi eigensolves within which the refinement certifies the zoo's refined
# solves: horodecki E->B, erasure B->E and the composite B->E
REFINE_BUDGET = 60


def _count_refines(monkeypatch) -> list:
    """(rounds, whether a witness ended it) of every CPTP refinement that runs."""
    ends = []
    refine = deg._cptp_refine

    def counted(*args):
        out = refine(*args)
        ends.append((out[1], out[2] is not None))
        return out

    monkeypatch.setattr(deg, "_cptp_refine", counted)
    return ends


@pytest.mark.parametrize(
    "solve, witnesses, maps",
    [
        (lambda: deg.classify_pd(zoo.amplitude_damping(0.2)), 1, 0),
        (lambda: deg.classify_pd(zoo.depolarizing(0.5)), 1, 0),
        # erasure's B->E solve refines to a certified map; E->B is the futile one
        (lambda: deg.is_antidegradable(zoo.erasure(0.25)), 1, 0),
        (lambda: deg.classify_pd(zoo.horodecki_channel(3.5)), 1, 1),
        (lambda: deg.is_degradable(zoo.erasure(0.25)), 0, 1),
        (lambda: deg.classify_pd(zoo.build_entry("composite_complementary", repair=True)[1]), 1, 1),
    ],
    ids=["amplitude_damping", "depolarizing", "erasure-E->B", "horodecki", "erasure-B->E", "composite"],
)
def test_witness_skips_futile_refinement(monkeypatch, solve, witnesses, maps):
    ends = _count_refines(monkeypatch)
    solve()
    assert sorted(w for _, w in ends) == [False] * maps + [True] * witnesses
    for rounds, witness in ends:
        if witness:
            # the displacement of the first eigensolve already proves that
            # no map exists, so nothing more is spent
            assert rounds == 1
        else:
            # horodecki E->B, erasure B->E and the composite B->E have maps,
            # so no witness exists; the refinement certifies one well before
            # the round cap
            assert 0 < rounds <= REFINE_BUDGET


@pytest.mark.parametrize(
    "make, direction",
    [
        (lambda: zoo.horodecki_channel(3.5), "E->B"),
        (lambda: zoo.erasure(0.25), "B->E"),
        (lambda: zoo.build_entry("composite_complementary", repair=True)[1], "B->E"),
    ],
    ids=["horodecki", "erasure", "composite"],
)
def test_refined_solves_report_their_eigensolves(make, direction):
    d, _ = deg.solve_degrading_map(*_solve_pairs(make())[direction])
    assert d["status"] == "certified"
    assert 0 < d["refine_rounds"] <= REFINE_BUDGET


def test_refine_cap_counts_every_eigensolve(monkeypatch):
    # the composite B->E refinement rejects mixed points at its 4th and 7th
    # eigensolves; capped at 8 it ends without a map, and the plain steps
    # that follow the rejections count toward the cap
    cap = 8
    monkeypatch.setattr(deg, "REFINE_ROUNDS", cap)
    eigh, refine, calls = np.linalg.eigh, deg._cptp_refine, []

    def counted(*args):
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        try:
            return refine(*args)
        finally:
            monkeypatch.setattr(np.linalg, "eigh", eigh)

    monkeypatch.setattr(deg, "_cptp_refine", counted)
    _, n_ab = zoo.build_entry("composite_complementary", repair=True)
    d, _ = deg.solve_degrading_map(n_ab, ch.complementary(n_ab))
    assert d["status"] == "not_found" and d["stop"] == "refine_cap"
    assert d["refine_rounds"] == cap == len(calls)


@pytest.mark.parametrize("seed", range(6))
def test_random_feasible_instances_certify_after_refinement(seed):
    # to = D o from for a random CPTP D: a map exists. With from of side 2 -> 3,
    # T_from (9 x 4) is rank-deficient, so the affine set has directions the
    # least-squares candidate fills with the maximally mixed state; with two
    # Kraus operators, D's Choi matrix has rank 2 of 6 and that candidate
    # fails CP, so the refinement runs
    rng = np.random.default_rng(seed)
    from_ch = _random_channel(rng, 2, 3, 2)
    to_ch = ch.compose(from_ch, _random_channel(rng, 3, 2, 2))
    d, m = deg.solve_degrading_map(from_ch, to_ch)
    assert d["status"] == "certified" and d["refine_rounds"] > 0
    assert d["map_residual"] <= 1e-8
    _plain_recheck(m.kraus, from_ch, to_ch, rng, seed)


def test_refined_iterate_solves_the_affine_constraints(monkeypatch):
    # horodecki E->B: Douglas-Rachford stops on an iterate that solves the
    # trace-preserving constraints T T_from = T_to to a hundredth of the
    # residual tolerance, and the certified map is that iterate
    calls = []
    refine = deg._cptp_refine

    def kept(*args):
        out = refine(*args)
        calls.append((args, out[0]))
        return out

    monkeypatch.setattr(deg, "_cptp_refine", kept)
    n_ab = zoo.horodecki_channel(3.5)
    n_ae = ch.complementary(n_ab)
    d, m = deg.solve_degrading_map(n_ae, n_ab)
    assert d["status"] == "certified"
    (((start, affine, *_), t),) = calls
    d_mid, d_out = n_ae.dim_out, n_ab.dim_out
    t_from, t_to = deg.transfer_matrix(n_ae), deg.transfer_matrix(n_ab)
    # the start and the projection onto A, against the dense projector
    # Pi = T_from pinv(T_from) that the solve never forms
    f_pinv = np.linalg.pinv(t_from)
    off = np.eye(d_mid**2) - t_from @ f_pinv
    vec_mid, vec_out = np.eye(d_mid).flatten(order="F"), np.eye(d_out).flatten(order="F")
    t_ls = t_to @ f_pinv
    assert np.max(np.abs(start - (t_ls + np.outer(vec_out / d_out, vec_mid @ off)))) <= 1e-12
    rng = np.random.default_rng(7)
    x = rng.standard_normal(start.shape) + 1j * rng.standard_normal(start.shape)
    projected = t_ls + x @ off + np.outer(vec_out / d_out, vec_mid @ off - vec_out @ x @ off)
    assert np.max(np.abs(affine(x) - projected)) <= 1e-12
    assert np.max(np.abs(affine(affine(x)) - affine(x))) <= 1e-12
    assert deg._probe_residual(t_to - t @ t_from, n_ab.dim_in) <= deg.REFINE_STOP
    tr_out = qmat.partial_trace(deg.choi_of_transfer(t, d_mid, d_out), (d_mid, d_out), keep=[0])
    assert np.max(np.abs(tr_out - np.eye(d_mid))) <= deg.REFINE_STOP
    assert np.max(np.abs(deg.transfer_matrix(m) - t)) <= 1e-9


def _x_measure(weight=1.0):
    """Complete Z dephasing mixed with weight ``weight`` of an X measurement."""
    x = np.array([[[1, 1], [0, 0]], [[0, 0], [1, -1]]]) / np.sqrt(2)
    ops = np.concatenate([np.sqrt(1 - weight) * zoo.dephasing(0.5).kraus, np.sqrt(weight) * x])
    return ch.KrausChannel(ops)


def test_solve_without_linear_solution_is_proved_at_least_squares():
    # complete Z dephasing erases the off-diagonal entries an X measurement
    # reads, so no linear map exists; the least-squares pair, with R the
    # remainder, scores -||R||_F^2 = -1 before scaling and -||R||_F = -1
    # after
    d, _ = deg.solve_degrading_map(zoo.dephasing(0.5), _x_measure())
    assert d["residual"] > 1e-8 and d["status"] == "impossible"
    assert d["witness"]["score"] == pytest.approx(-1.0, abs=1e-12)
    # a weight of 1e-6 leaves a residual above 1e-8 and an unscaled score of
    # -1e-12, inside the rounding margin; scaled, the pair scores -1e-6 and
    # proves it without a refinement
    from_ch, to_ch = zoo.dephasing(0.5), _x_measure(1e-6)
    d, _ = deg.solve_degrading_map(from_ch, to_ch)
    assert d["residual"] > 1e-8 and d["status"] == "impossible" and "refine_rounds" not in d
    t_from, t_to = _plain_transfer(from_ch.kraus), _plain_transfer(to_ch.kraus)
    w = d["witness"]
    score = _plain_farkas_score(w, t_from, t_to)
    assert score < -deg.FARKAS_MARGIN and score == pytest.approx(w["score"], abs=1e-12)
    # the one least-squares pair: Y = T_ls T_from - T_to - vec(I) g^T and
    # z = T_from conj(g), with g the trace mismatch, scaled to unit norm.
    # Entries that are 0 exactly round to 1e-17 in the package's transfer
    # matrix, and the scaling by 1 / ||R||_F = 1e6 lifts them to 1e-11, so
    # the pairs are compared at their unscaled size
    i2 = np.eye(2).reshape(-1)
    g = i2 @ t_to - i2 @ t_from
    y = t_to @ np.linalg.pinv(t_from) @ t_from - t_to - np.outer(i2, g)
    z = t_from @ g.conj()
    scale = np.hypot(np.linalg.norm(y), np.linalg.norm(z))
    assert scale == pytest.approx(1e-6, rel=1e-9)
    assert np.max(np.abs(_complex(w["Y"]) * scale - y)) <= 1e-15
    assert np.max(np.abs(_complex(w["z"]) * scale - z)) <= 1e-15


def test_solve_checks_the_side_cap_before_building(monkeypatch):
    # horodecki(3.5)'s environment has side 7, so its transfer matrices side 49
    monkeypatch.setenv("QPD_MAX_DIM", "48")
    monkeypatch.setattr(deg, "transfer_matrix", lambda c: pytest.fail("built a transfer matrix"))
    n_ab = zoo.horodecki_channel(3.5)
    with pytest.raises(SizeLimit, match="side 49"):
        deg.is_degradable(n_ab)


def test_farkas_witness_assumes_nothing_of_the_channels():
    # the corollary-4 map is not trace-preserving, so no CPTP D takes it to
    # the identity; the witness proves this with the flagged map as ``from``
    flagged = zoo.corollary4_degrading_map()
    assert flagged.flagged
    d, _ = deg.solve_degrading_map(flagged, ch.identity_channel(3))
    assert d["status"] == "impossible"
    assert d["witness"]["kind"] == "farkas" and d["witness"]["score"] < -deg.FARKAS_MARGIN


def test_trace_mismatch_alone_is_proved_impossible(monkeypatch):
    # the identity composes to the flagged corollary-4 map on the linear
    # level, and its least-squares candidate is CP; only the trace differs:
    # every CPTP D has vec(I)^dag T_to = vec(I)^dag T_from, and the mismatch
    # g of the two sides enters the least-squares pair (Y, z), which scores
    # -||R||_F^2 - ||g||^2 with R = 0 before scaling to unit norm, without a
    # refinement
    ends = _count_refines(monkeypatch)
    flagged = zoo.corollary4_degrading_map()
    d, _ = deg.solve_degrading_map(ch.identity_channel(3), flagged)
    assert d["residual"] <= 1e-8 and d["status"] == "impossible" and ends == []
    t_from, t_to = np.eye(9), _plain_transfer(flagged.kraus)
    i3 = np.eye(3).reshape(-1)
    g = i3 @ t_to - i3 @ t_from
    norm = np.hypot(np.linalg.norm(np.outer(i3, g)), np.linalg.norm(t_from @ g.conj()))
    assert d["witness"]["score"] == pytest.approx(-np.vdot(g, g).real / norm, abs=1e-12)
    assert _plain_farkas_score(d["witness"], t_from, t_to) == pytest.approx(
        d["witness"]["score"], abs=1e-9
    )


def _random_isometry(rng, rows, cols):
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(a)[0]


def _random_channel(rng, d_in, d_out, k):
    """A CPTP map with k Kraus operators, cut from a random isometry."""
    return ch.KrausChannel(_random_isometry(rng, k * d_out, d_in).reshape(k, d_out, d_in))


@pytest.mark.parametrize("seed", range(6))
def test_conjugated_problems_solve_alike(seed):
    # D solves from -> to exactly when conj(D) solves conj(from) -> conj(to),
    # so status, Farkas score, least Choi eigenvalue and, with a probe set
    # closed under conjugation, the probe residual agree
    rng = np.random.default_rng(seed)
    if seed == 0:
        c = zoo.depolarizing(0.3)
    elif seed == 1:
        # AD(0.2) between complex bases: degradable, with complex Kraus operators
        u, v = _random_isometry(rng, 2, 2), _random_isometry(rng, 2, 2)
        c = ch.KrausChannel(v @ zoo.amplitude_damping(0.2).kraus @ u)
    else:
        d_in, d_out, k = rng.integers(2, 4, size=3)
        c = _random_channel(rng, d_in, d_out, k)
    for from_ch, to_ch in ((c, ch.complementary(c)), (ch.complementary(c), c)):
        sol, _ = deg.solve_degrading_map(from_ch, to_ch)
        conj, _ = deg.solve_degrading_map(
            *(ch.KrausChannel(m.kraus.conj()) for m in (from_ch, to_ch))
        )
        assert conj["status"] == sol["status"]
        assert conj["residual"] == pytest.approx(sol["residual"], abs=1e-12)
        assert conj["cp_min_eig"] == pytest.approx(sol["cp_min_eig"], abs=1e-12)
        if "witness" in sol:
            assert conj["witness"]["score"] == pytest.approx(sol["witness"]["score"], abs=1e-12)


def test_rotated_channels_keep_their_statuses():
    # V N(U . U^dag) V^dag with its Kraus stack mixed by W is degradable or
    # anti-degradable exactly when N is, so both solves report N's status;
    # and the complementary of the complementary is N itself, so swapping N
    # for N^c swaps the two solves, report for report. Each solve hands back
    # a map exactly when it certifies one, and its report certifies that map
    def report(pair):
        d, m = pair
        assert (m is not None) == (d["status"] == "certified")
        if m is not None:
            assert d["map_tp_residual"] == m.tp_residual()
        return d

    rng = np.random.default_rng(1)
    for d_in, d_out, k in ((2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 3), (3, 3, 2), (2, 4, 2), (2, 2, 4)):
        for _ in range(6):
            c = _random_channel(rng, d_in, d_out, k)
            u, v, w = (_random_isometry(rng, n, n) for n in (d_in, d_out, k))
            rotated = ch.KrausChannel(np.tensordot(w, v @ c.kraus @ u, axes=1))
            for solve in (deg.is_degradable, deg.is_antidegradable):
                assert report(solve(rotated))["status"] == report(solve(c))["status"], (
                    d_in, d_out, k, solve.__name__
                )
            comp = ch.complementary(c)
            where = (d_in, d_out, k)
            assert report(deg.is_antidegradable(comp)) == report(deg.is_degradable(c)), where
            assert report(deg.is_degradable(comp)) == report(deg.is_antidegradable(c)), where
    # zoo channels too, drawn after the random ones so those keep their draws
    rng = np.random.default_rng(15)
    entries = [
        ("amplitude_damping", {"gamma": 0.2}), ("amplitude_damping", {"gamma": 0.7}),
        ("dephasing", {"p": 0.3}), ("erasure", {"p": 0.25}), ("erasure", {"p": 0.75}),
        ("horodecki", {"alpha": 3.5}), ("symmetric_pd", {}), ("depolarizing", {"p": 0.5}),
        ("m_ae", {"repair": True}), ("composite_complementary", {"repair": True}),
        ("d_e_to_eprime", {"repair": True}), ("nab_ae", {}),
    ]
    for entry_id, params in entries:
        c = zoo.build_entry(entry_id, **params)[1]
        k, d_out, d_in = c.kraus.shape
        u, v, w = (_random_isometry(rng, n, n) for n in (d_in, d_out, k))
        rotated = ch.KrausChannel(np.tensordot(w, v @ c.kraus @ u, axes=1))
        for solve in (deg.is_degradable, deg.is_antidegradable):
            assert report(solve(rotated))["status"] == report(solve(c))["status"], (entry_id, params, solve.__name__)


def test_verify_pd_identity_exact_and_mismatch():
    n_ab = zoo.symmetric_pd_channel()
    ident = ch.identity_channel(8)
    assert deg.verify_pd_identity(n_ab, ident, ident) == 0.0
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
    assert deg.verify_pd_identity(ad, ident2, ident2) == pytest.approx(expected, abs=1e-15)
    # an E->E' map that does not act on the 8-dimensional environment
    with pytest.raises(DimMismatch, match=r"first\.dim_out=8 != then\.dim_in=3"):
        deg.verify_pd_identity(n_ab, ch.identity_channel(3), ident)
    # both compositions exist but end on different spaces: 2 -> 3 and 2 -> 2
    with pytest.raises(DimMismatch, match="composed maps have mismatched endpoints"):
        deg.verify_pd_identity(ad, zoo.erasure(0.25), ident2)


def test_pd_identity_and_chain_agree_on_the_argument_order():
    # AD(0.2) is degradable: with the identity as E->E' map and its
    # certified degrading map D as B->E' map, D o N_AB = N_AE, so the
    # identity holds and the degraded environment is the environment
    c = zoo.amplitude_damping(0.2)
    sol, d = deg.is_degradable(c)
    assert sol["status"] == "certified"
    ident2 = ch.identity_channel(2)
    assert deg.verify_pd_identity(c, ident2, d) <= 1e-8
    rho = np.diag([0.7, 0.3]).astype(complex)
    out = cap.coherent_information_pd(c, ident2, d, rho)
    assert abs(out["h_rf_given_eprime"]) <= 1e-9
    assert abs(out["h_h_given_g"]) <= 1e-9


def test_classify_plain_labels():
    res = deg.classify_pd(zoo.amplitude_damping(0.1))
    assert res["label"] == "DEGRADABLE"
    assert set(res["solutions"]) == {"B->E", "E->B", "B->E'", "E'->B"}
    res = deg.classify_pd(zoo.amplitude_damping(0.9))
    assert res["label"] == "ANTI_DEGRADABLE"
    assert "choi_n_ae" in res["reports"] and "sigma_eprime_r" in res["reports"]


def test_classify_symmetric_pd():
    n_ab = zoo.symmetric_pd_channel()
    d = deg.classify_pd(n_ab)
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
    assert res["label"] == "DEGRADABLE"
    assert res["solutions"]["B->E'"] is res["solutions"]["B->E"]
    assert res["solutions"]["E'->B"] is res["solutions"]["E->B"]
    assert res["reports"]["sigma_eprime_r"] is res["reports"]["choi_n_ae"]


def test_sigma_eprime_r_is_the_choi_state_of_n_aep():
    # N_AE' on one half of a maximally entangled input gives its Choi state
    n_ab = zoo.symmetric_pd_channel()
    d = zoo.d_e_to_eprime(repair=True)
    n_aep = ch.compose(ch.complementary(n_ab), d)
    psi = np.eye(4, dtype=complex).reshape(-1) / 2.0
    sigma = ch.apply(ch.tensor(ch.identity_channel(4), n_aep), np.outer(psi, psi.conj()))
    assert np.max(np.abs(sigma - ch.to_choi(n_aep))) <= 1e-14
    old = ent.bound_entanglement_report(sigma, (4, n_aep.dim_out))
    rep = deg.classify_pd(n_ab, d)["reports"]["sigma_eprime_r"]
    assert rep["ppt"]["is_ppt"] == old["ppt"]["is_ppt"]
    assert rep["flagged_bound_entangled"] == old["flagged_bound_entangled"]


def test_classify_degradable_pd_with_lossy_degrading(monkeypatch):
    # the repaired 8->2 degrading keeps only one input weight, so the
    # reverse (degraded environment back to output) solve fails and the
    # one-directional PD label applies
    n_ab = zoo.symmetric_pd_channel()
    calls = _count_solves(monkeypatch)
    res = deg.classify_pd(n_ab, zoo.d_e_to_eprime(repair=True))
    assert len(calls) == 4
    assert res["label"] == "DEGRADABLE_PD"
    assert res["solutions"]["B->E'"]["success"]
    assert not res["solutions"]["E'->B"]["success"]


def test_classify_refuses_a_map_off_the_environment_before_any_solve(monkeypatch):
    # horodecki is 3 -> 3, amplitude damping's environment is 2-dimensional:
    # compose refuses N_AE' before the first solve
    def no_solve(*args):
        raise AssertionError("solve_degrading_map ran")

    monkeypatch.setattr(deg, "solve_degrading_map", no_solve)
    with pytest.raises(DimMismatch, match=r"^cannot compose: first\.dim_out=2 != then\.dim_in=3$"):
        deg.classify_pd(zoo.amplitude_damping(0.2), zoo.horodecki_channel())


def test_classify_explicit_identity_map_keeps_the_plain_labels(monkeypatch):
    # an identity E->E' map given explicitly is solved again, not aliased,
    # and leaves the plain label, not DEGRADABLE_PD
    calls = _count_solves(monkeypatch)
    res = deg.classify_pd(zoo.amplitude_damping(0.2), ch.identity_channel(2))
    assert len(calls) == 4
    assert res["label"] == "DEGRADABLE"
    sol = res["solutions"]
    assert [sol[k]["status"] for k in ("B->E", "E->B", "B->E'", "E'->B")] == [
        "certified", "impossible", "certified", "impossible"]
    assert sol["B->E'"] is not sol["B->E"] and sol["E'->B"] is not sol["E->B"]
    assert res["reports"]["sigma_eprime_r"] is not res["reports"]["choi_n_ae"]


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
    ("horodecki", ()): ("impossible", "certified"),
    ("symmetric_pd", ()): ("certified", "certified"),
    ("erasure", (("p", 0.25), ("d", 2))): ("certified", "impossible"),
    ("depolarizing", (("p", 0.5), ("d", 2))): ("impossible", "certified"),
    ("amplitude_damping", (("gamma", 0.2),)): ("certified", "impossible"),
    ("dephasing", (("p", 0.3),)): ("certified", "impossible"),
    ("m_ae", (("repair", True),)): ("impossible", "impossible"),
    ("composite_complementary", (("x", 0.75), ("repair", True))): ("certified", "impossible"),
    ("d_e_to_eprime", (("repair", True),)): ("impossible", "impossible"),
}


# the certified refinements, and the failed least-squares candidates whose
# first Douglas-Rachford displacement is a witness
ZOO_REFINED = {
    ("horodecki", ()): {"B->E", "E->B"},
    ("erasure", (("p", 0.25), ("d", 2))): {"B->E", "E->B"},
    ("depolarizing", (("p", 0.5), ("d", 2))): {"B->E"},
    ("amplitude_damping", (("gamma", 0.2),)): {"E->B"},
    ("m_ae", (("repair", True),)): {"E->B"},
    ("composite_complementary", (("x", 0.75), ("repair", True))): {"B->E", "E->B"},
}

ZOO_LABELS = {
    ("horodecki", ()): "ANTI_DEGRADABLE",
    ("symmetric_pd", ()): "SYMMETRIC_PD",
    ("erasure", (("p", 0.25), ("d", 2))): "DEGRADABLE",
    ("depolarizing", (("p", 0.5), ("d", 2))): "ANTI_DEGRADABLE",
    ("amplitude_damping", (("gamma", 0.2),)): "DEGRADABLE",
    ("dephasing", (("p", 0.3),)): "DEGRADABLE",
    ("m_ae", (("repair", True),)): "UNDETERMINED",
    ("composite_complementary", (("x", 0.75), ("repair", True))): "DEGRADABLE",
    ("d_e_to_eprime", (("repair", True),)): "UNDETERMINED",
}


@pytest.fixture(scope="module")
def zoo_reports(tmp_path_factory):
    """(Kraus record, classify report) of each input, through the CLI."""
    tmp = tmp_path_factory.mktemp("zoo")
    out = {}
    for key in ZOO_STATUSES:
        entry_id, params = key
        path, report = tmp / f"{entry_id}.json", tmp / f"{entry_id}.report.json"
        ch.save_channel(zoo.build_entry(entry_id, **dict(params))[1], str(path))
        assert cli.main(["classify", str(path), "--out", str(report)]) in (0, 3)
        out[key] = (json.loads(path.read_text()), json.loads(report.read_text()))
    return out


def test_zoo_solve_statuses(zoo_reports):
    for key, (_, report) in zoo_reports.items():
        sols = report["solutions"]
        assert (sols["B->E"]["status"], sols["E->B"]["status"]) == ZOO_STATUSES[key], key
        # every solve is decided: a certified map or a proof that none exists
        assert all("stop" not in sol for sol in sols.values()), key
        # the identity E->E' map: the primed solves are the unprimed ones
        assert sols["B->E'"] == sols["B->E"] and sols["E'->B"] == sols["E->B"]
        # only solves that ran the refinement report its eigensolves
        refined = {k for k in ("B->E", "E->B") if "refine_rounds" in sols[k]}
        assert refined == ZOO_REFINED.get(key, set()), key
        # a refinement that ends in a witness ends at its first eigensolve
        assert all(sols[k]["refine_rounds"] == 1 for k in refined if sols[k]["status"] == "impossible"), key


def test_classify_report_is_the_library_dict(zoo_reports, tmp_path):
    # the CLI prints classify_pd's dict as it is, next to its env
    def without_env(report):
        return {k: v for k, v in report.items() if k != "env"}

    for key, (record, report) in zoo_reports.items():
        want = json.loads(json.dumps(deg.classify_pd(ch.channel_from_dict(record))))
        assert without_env(report) == want, key
    n_ab, d = zoo.symmetric_pd_channel(), zoo.d_e_to_eprime(repair=True)
    n_path, d_path, out = (tmp_path / name for name in ("n_ab.json", "d.json", "report.json"))
    ch.save_channel(n_ab, str(n_path))
    ch.save_channel(d, str(d_path))
    assert cli.main(["classify", str(n_path), "--degrading", str(d_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert without_env(report) == json.loads(json.dumps(deg.classify_pd(n_ab, d)))


def test_transfer_matrix_sums_over_kraus_without_a_stack(zoo_reports):
    rng = np.random.default_rng(11)
    for d_in, d_out, k in ((2, 3, 2), (3, 2, 4), (4, 4, 3)):
        c = _random_channel(rng, d_in, d_out, k)
        plain = sum(np.kron(op.conj(), op) for op in c.kraus)
        assert np.max(np.abs(deg.transfer_matrix(c) - plain)) <= 1e-14
    # the shape of nab_ae's certified E->B map: 156 Kraus operators of 12 x 25,
    # whose stack of Kronecker products alone would take 225 MB
    c = _random_channel(rng, 25, 12, 156)
    tracemalloc.start()
    try:
        t = deg.transfer_matrix(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * t.nbytes
    for key, (_, report) in zoo_reports.items():
        sols = report["solutions"]
        assert (report["label"], sols["B->E"]["status"], sols["E->B"]["status"]) == (
            ZOO_LABELS[key], *ZOO_STATUSES[key]
        ), key


def test_to_choi_sums_over_kraus_without_a_stack():
    # 64 Kraus operators of 8 x 8: a stack of their 64 x 64 outer products
    # would take 64 times the Choi matrix
    c = zoo.depolarizing(0.5, d=8)
    tracemalloc.start()
    try:
        j = ch.to_choi(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * j.nbytes
    w = c.kraus.transpose(0, 2, 1).reshape(len(c.kraus), -1)
    assert np.max(np.abs(j - sum(np.outer(v, v.conj()) for v in w) / 8)) <= 1e-15


def _complex(pairs):
    a = np.array(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _plain_transfer(kraus):
    """sum_k conj(K_k) (x) K_k: vec(K rho K^dag) = T vec(rho), column-major vec."""
    k, d_out, d_in = kraus.shape
    return np.einsum("kac,kbd->abcd", kraus.conj(), kraus).reshape(d_out**2, d_in**2)


def _plain_choi(t, d_in, d_out):
    """sum_ij E_ij (x) D(E_ij) for the superoperator T of D, one block at a time."""
    j = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for a in range(d_in):
        for b in range(d_in):
            e = np.zeros((d_in, d_in))
            e[a, b] = 1
            out = (t @ e.reshape(-1, order="F")).reshape(d_out, d_out, order="F")
            j += np.kron(e, out)
    return j


def _plain_farkas_score(w, t_from, t_to):
    """The score of a reported Farkas witness, rebuilt from its Y and z."""
    assert w["kind"] == "farkas" and w["margin"] == deg.FARKAS_MARGIN
    y, z = _complex(w["Y"]), _complex(w["z"])
    d_mid, d_out = isqrt(t_from.shape[0]), isqrt(t_to.shape[0])
    i_mid, i_out = (np.eye(d).reshape(-1) for d in (d_mid, d_out))
    # every CPTP D with T_D T_from = T_to has <W', T_D> = b and, with
    # Tr J_D = d_mid, <W', T_D> >= d_mid lambda_min(Herm Choi(W'))
    w_prime = y @ t_from.conj().T + np.outer(i_out, z.conj())
    c = _plain_choi(w_prime, d_mid, d_out)
    lam = np.linalg.eigvalsh((c + c.conj().T) / 2)[0]
    b = np.vdot(y, t_to).real + np.vdot(z, i_mid).real
    return b + d_mid * max(0.0, -lam)


def test_zoo_witnesses_recompute_from_the_report(zoo_reports):
    rng = np.random.default_rng(7)
    seen = 0
    for key, (record, report) in zoo_reports.items():
        kraus = _complex(record["kraus"])
        # the complementary channel's Kraus operators: (M_b)[i, a] = (K_i)[b, a]
        t_b, t_e = _plain_transfer(kraus), _plain_transfer(kraus.transpose(1, 0, 2))
        for direction, (t_from, t_to) in (("B->E", (t_b, t_e)), ("E->B", (t_e, t_b))):
            sol = report["solutions"][direction]
            if sol["status"] != "impossible":
                continue
            w = sol["witness"]
            score = _plain_farkas_score(w, t_from, t_to)
            assert score < -w["margin"], (key, direction, score)
            assert score == pytest.approx(w["score"], abs=1e-9), (key, direction)
            # for every CPTP D, Re<Y, T_D T_from - T_to> >= -score, and Y is
            # part of a unit pair, so no map composes within |score| in norm
            y = _complex(w["Y"])
            d_mid, d_out = isqrt(t_from.shape[0]), isqrt(t_to.shape[0])
            for _ in range(50):
                k = -(-d_mid // d_out) + int(rng.integers(0, 3))
                err = _plain_transfer(_random_channel(rng, d_mid, d_out, k).kraus) @ t_from - t_to
                assert np.vdot(y, err).real >= -score - 1e-12, (key, direction)
                assert np.linalg.norm(err) >= -score - 1e-12, (key, direction)
            seen += 1
    assert seen == 10


def test_every_zoo_witness_is_a_unit_pair():
    # classify on every zoo entry that is trace-preserving, verbatim or
    # repaired: each witness is scaled to unit norm, so the one margin means
    # the same for all of them, and proves its solve again in plain numpy
    seen = []
    for entry_id in zoo.zoo_ids():
        repairable = "repair" in zoo.build_entry(entry_id)[0]["params"]
        for params in ({}, {"repair": True}) if repairable else ({},):
            report, n_ab = zoo.build_entry(entry_id, **params)
            if report["status"] != "OK":
                continue
            solutions = deg.classify_pd(n_ab)["solutions"]
            for direction in ("B->E", "E->B"):
                if (w := solutions[direction].get("witness")) is None:
                    continue
                from_ch, to_ch = _solve_pairs(n_ab)[direction]
                assert _witness_norm(w) == pytest.approx(1.0, abs=1e-12), (entry_id, direction)
                score = _plain_farkas_score(w, _plain_transfer(from_ch.kraus), _plain_transfer(to_ch.kraus))
                assert score < -w["margin"], (entry_id, direction, score)
                seen.append((entry_id, direction))
    # the nine classify-zoo inputs give ten witnesses, and nab_ae one more
    assert len(seen) == 11 and ("nab_ae", "B->E") in seen


def _solve_pairs(n_ab, d_e_to_eprime=None):
    n_ae = ch.complementary(n_ab)
    n_aep = n_ae if d_e_to_eprime is None else ch.compose(n_ae, d_e_to_eprime)
    return {"B->E": (n_ab, n_ae), "E->B": (n_ae, n_ab), "B->E'": (n_ab, n_aep), "E'->B": (n_aep, n_ab)}


def _plain_recheck(kraus, from_ch, to_ch, rng, where=None):
    """Recheck with plain numpy that the Kraus map ``kraus`` is complete and
    takes ``from`` to ``to`` on four random states."""
    completeness = np.einsum("kba,kbc->ac", kraus.conj(), kraus)
    assert np.max(np.abs(completeness - np.eye(kraus.shape[2]))) <= 1e-8, where
    for _ in range(4):
        g = rng.standard_normal((from_ch.dim_in,) * 2) + 1j * rng.standard_normal((from_ch.dim_in,) * 2)
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        mid = np.einsum("kab,bc,kdc->ad", from_ch.kraus, rho, from_ch.kraus.conj())
        out = np.einsum("kab,bc,kdc->ad", kraus, mid, kraus.conj())
        target = np.einsum("kab,bc,kdc->ad", to_ch.kraus, rho, to_ch.kraus.conj())
        assert np.max(np.abs(out - target)) <= 1e-8, where


def test_no_witness_against_a_certified_map(zoo_reports):
    # every certified solve carries no witness, and the Kraus map it returns
    # is complete and composes to the target on random states, rechecked
    # with plain numpy
    cases = [
        (entry_id, ch.channel_from_dict(record), None, report)
        for (entry_id, _), (record, report) in zoo_reports.items()
    ]
    n_ab, d = zoo.symmetric_pd_channel(), zoo.d_e_to_eprime(repair=True)
    cases.append(("symmetric_pd --degrading", n_ab, d, deg.classify_pd(n_ab, d)))
    rng = np.random.default_rng(11)
    certified = set()
    for name, n, d, report in cases:
        for key, (from_ch, to_ch) in _solve_pairs(n, d).items():
            if report["solutions"][key]["status"] != "certified":
                continue
            assert "witness" not in report["solutions"][key]
            kraus = deg.solve_degrading_map(from_ch, to_ch)[1].kraus
            _plain_recheck(kraus, from_ch, to_ch, rng, (name, key))
            certified.add((name, key))
    # the refined maps: horodecki E->B and the composite B->E
    assert {("horodecki", "E->B"), ("composite_complementary", "B->E")} <= certified
    assert len(certified) == 19


def _random_family() -> dict:
    """The random small channels, keyed by ((d_in, d_out, K), draw): 60
    draws per shape, in this order, from one generator seeded 0."""
    rng = np.random.default_rng(0)
    shapes = ((2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 3), (3, 3, 2), (2, 4, 2), (2, 2, 4))
    return {(shape, i): _random_channel(rng, *shape) for shape in shapes for i in range(60)}


def test_qubit_channels_of_kraus_rank_two_are_decided_one_way():
    # every qubit channel with a qubit environment is degradable or
    # anti-degradable (Wolf and Perez-Garcia, PRA 75, 012303, 2007): each of
    # the 60 (2, 2, 2) draws is certified one way and proved impossible the other
    family = _random_family()
    degradable = 0
    for i in range(60):
        c = family[(2, 2, 2), i]
        statuses = (deg.is_degradable(c)[0]["status"], deg.is_antidegradable(c)[0]["status"])
        assert sorted(statuses) == ["certified", "impossible"], (i, statuses)
        degradable += statuses[0] == "certified"
    assert degradable == 32


# the solves of the random family that once ran the refinement to its round
# cap; each is infeasible, and a displacement witness proves it
RANDOM_REFINE_WITNESSES = [
    ((2, 3, 2), 20, "B->E"), ((2, 3, 2), 24, "B->E"), ((2, 3, 2), 35, "B->E"),
    ((2, 3, 2), 54, "B->E"), ((2, 3, 2), 56, "B->E"), ((2, 2, 3), 20, "E->B"),
    ((2, 2, 3), 56, "E->B"), ((2, 4, 2), 3, "B->E"), ((2, 4, 2), 7, "B->E"),
    ((2, 4, 2), 13, "B->E"), ((2, 4, 2), 28, "B->E"), ((2, 4, 2), 48, "B->E"),
]


def _witness_norm(w) -> float:
    return float(np.hypot(np.linalg.norm(_complex(w["Y"])), np.linalg.norm(_complex(w["z"]))))


def test_random_refinements_end_in_a_witness(monkeypatch):
    family = _random_family()
    for shape, i, direction in RANDOM_REFINE_WITNESSES:
        n_ab = family[shape, i]
        from_ch, to_ch = _solve_pairs(n_ab)[direction]
        d, _ = deg.solve_degrading_map(from_ch, to_ch)
        where = (shape, i, direction)
        assert d["status"] == "impossible" and 1 < d["refine_rounds"] < deg.REFINE_ROUNDS, where
        w = d["witness"]
        assert _witness_norm(w) == pytest.approx(1.0, abs=1e-12), where
        score = _plain_farkas_score(w, _plain_transfer(from_ch.kraus), _plain_transfer(to_ch.kraus))
        assert score < -w["margin"] and score == pytest.approx(w["score"], abs=1e-9), where
    # (2, 2, 3) #39 E->B is feasible, but its refinement never meets its own
    # stop: the iterate at the default cap passes the certificate, and with
    # the cap one round short of the first that certifies, the solve ends there
    from_ch, to_ch = _solve_pairs(family[(2, 2, 3), 39])["E->B"]
    d, m = deg.solve_degrading_map(from_ch, to_ch)
    assert d["status"] == "certified" and d["refine_rounds"] == deg.REFINE_ROUNDS
    _plain_recheck(m.kraus, from_ch, to_ch, np.random.default_rng(39))
    monkeypatch.setattr(deg, "REFINE_ROUNDS", 796)
    d, _ = deg.solve_degrading_map(from_ch, to_ch)
    assert (d["status"], d["stop"], d["refine_rounds"]) == ("not_found", "refine_cap", 796)


def _depolarizing_flag_extension(p, lam):
    """sum_i p_i sigma_i rho sigma_i (x) |psi_i><psi_i| for the Pauli weights
    (1 - 3p/4, p/4, p/4, p/4) of qubit depolarizing(p), with four flags of
    Gram matrix (1 - lam) I + lam J: a 2 -> 8 channel whose partial trace
    over the flag is depolarizing(p)."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    weights = [1 - 3 * p / 4] + [p / 4] * 3
    w, v = np.linalg.eigh((1 - lam) * np.eye(4) + lam * np.ones((4, 4)))
    flags = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return ch.KrausChannel([np.sqrt(q) * np.kron(s, flags[:, [i]]) for i, (q, s) in enumerate(zip(weights, paulis))])


def test_threshold_solves_are_decided():
    # dephrasure(0.10, 0.35) is neither degradable nor anti-degradable, and
    # the two flag extensions sit just past their degradability threshold
    embed, z = np.eye(3, 2), np.diag([1.0, -1.0])
    erase = np.zeros((2, 3, 2))
    erase[0, 2, 0] = erase[1, 2, 1] = np.sqrt(0.35)
    dephrasure = ch.KrausChannel([np.sqrt(0.65 * 0.9) * embed, np.sqrt(0.65 * 0.1) * embed @ z, *erase])
    extensions = [_depolarizing_flag_extension(0.1, 0.98), _depolarizing_flag_extension(0.2, 0.95)]
    for c in extensions:
        assert c.tp_residual() <= 1e-12
    cases = [(dephrasure, "B->E"), (dephrasure, "E->B")] + [(c, "B->E") for c in extensions]
    for c, direction in cases:
        from_ch, to_ch = _solve_pairs(c)[direction]
        d, _ = deg.solve_degrading_map(from_ch, to_ch)
        assert d["status"] == "impossible", (c.dim_out, direction, d["status"])
        assert _witness_norm(d["witness"]) == pytest.approx(1.0, abs=1e-12)
        score = _plain_farkas_score(d["witness"], _plain_transfer(from_ch.kraus), _plain_transfer(to_ch.kraus))
        assert score < -deg.FARKAS_MARGIN


def test_feasible_problems_are_never_proved_impossible(monkeypatch):
    # to = D o from, with from a random 2 -> 4 channel and D a random 4 -> 2
    # one, has a map; every displacement the refinement scores is a unit
    # pair, none proves anything, and so the refinement runs as long as it
    # would without the witness. Seed 5 converges too slowly for the cap.
    scored, farkas = [], deg._farkas_witness

    def unmargined(y, z, *args):
        # with no margin to beat, the pair _farkas_witness scores comes back
        with monkeypatch.context() as m:
            m.setattr(deg, "FARKAS_MARGIN", -np.inf)
            return farkas(y, z, *args)

    def recorded(y, z, *args):
        scored.append((unmargined(y, z, *args), args))
        return farkas(y, z, *args)

    monkeypatch.setattr(deg, "_farkas_witness", recorded)
    # the rounds each seed takes without a witness in the loop
    rounds = {0: 28, 1: 29, 2: 134, 3: 52, 4: 29, 5: None, 6: 31, 7: 43}
    for seed, want in rounds.items():
        rng = np.random.default_rng(seed)
        from_ch = _random_channel(rng, 2, 4, 2)
        to_ch = ch.compose(from_ch, _random_channel(rng, 4, 2, 2))
        d, _ = deg.solve_degrading_map(from_ch, to_ch)
        if want is None:
            assert (d["status"], d["stop"], d["refine_rounds"]) == ("not_found", "refine_cap", deg.REFINE_ROUNDS)
        else:
            assert (d["status"], d["refine_rounds"]) == ("certified", want), seed
    # one score at round 1 and every 25th: before the certified round, or
    # up to the cap
    assert len(scored) == sum(1 + (r - 1) // 25 if r else 1 + deg.REFINE_ROUNDS // 25 for r in rounds.values())
    assert np.allclose([_witness_norm(w) for w, _ in scored], 1.0, rtol=0, atol=1e-12)
    # the score is blind to the size of the pair, and a zero pair scores nothing
    w, args = scored[0]
    y, z = _complex(w["Y"]), _complex(w["z"])
    for c in (1e-6, 3, 1e6):
        scaled = unmargined(c * y, c * z, *args)
        assert np.max(np.abs(_complex(scaled["Y"]) - y)) <= 1e-15, c
        assert np.max(np.abs(_complex(scaled["z"]) - z)) <= 1e-15, c
        assert scaled["score"] == pytest.approx(w["score"], abs=1e-14), c
    assert unmargined(0 * y, 0 * z, *args) is None
