"""End-to-end acceptance checks, one test per shipped guarantee."""

import os
import time
from fractions import Fraction as F

import numpy as np
import pytest

from pdchannel import capacity as cap
from pdchannel import channel as ch
from pdchannel import degradability as deg
from pdchannel import entanglement as ent
from pdchannel import polar, zoo

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_01_horodecki_family_ppt_npt_switch():
    start = time.monotonic()
    for alpha in (3.1, 3.5, 4.0):
        rep = ent.ppt_check(zoo.horodecki_state(alpha), (3, 3))
        assert min(rep["min_eig_ta"], rep["min_eig_tb"]) >= -1e-9, alpha
    for alpha in (4.3, 4.7, 5.0):
        rep = ent.ppt_check(zoo.horodecki_state(alpha), (3, 3))
        assert min(rep["min_eig_ta"], rep["min_eig_tb"]) <= -1e-3, alpha
    assert time.monotonic() - start < 1.0


def test_02_channel_state_consistency():
    start = time.monotonic()
    psi = np.zeros(9, dtype=complex)
    for i in range(3):
        psi[i * 3 + i] = 1.0 / np.sqrt(3.0)
    rho_in = np.outer(psi, psi.conj())
    for alpha in np.linspace(0.0, 5.0, 10):
        big = ch.tensor(ch.identity_channel(3), zoo.horodecki_channel(alpha))
        got = ch.apply(big, rho_in)
        want = zoo.horodecki_state(alpha)
        assert np.max(np.abs(got - want)) <= 1e-12, alpha
    assert time.monotonic() - start < 1.0


def test_03_degradability_switch():
    start = time.monotonic()
    for gamma, want in ((0.1, "DEGRADABLE"), (0.3, "DEGRADABLE"),
                        (0.7, "ANTI_DEGRADABLE"), (0.9, "ANTI_DEGRADABLE")):
        res = deg.classify_pd(zoo.amplitude_damping(gamma))
        assert res["label"] == want, gamma
        for sol in res["solutions"].values():
            if sol["success"]:
                assert sol["residual"] <= 1e-8
                assert sol["cp_min_eig"] >= -1e-9
    assert time.monotonic() - start < 5.0


def test_04_capacity_calibration():
    start = time.monotonic()
    cases = (
        (ch.identity_channel(2), 1.0),
        (ch.identity_channel(3), np.log2(3.0)),
        (zoo.erasure(0.25), 0.5),
        (zoo.erasure(0.5), 0.0),
    )
    for channel, want in cases:
        res = cap.maximize_coherent_information(channel, restarts=32, seed=42)
        assert res["value"] == pytest.approx(want, abs=1e-3), channel.name
    assert time.monotonic() - start < 30.0


def test_05_additivity_probe():
    start = time.monotonic()
    for channel in (
        zoo.amplitude_damping(0.2),
        zoo.amplitude_damping(0.3),
        zoo.dephasing(0.3),
    ):
        probe = cap.additivity_probe(channel, restarts=32, seed=42)["additivity"]
        assert abs(probe["gap"]) <= 2e-3, channel.name
    assert time.monotonic() - start < 180.0


def test_06_entropy_identity_chain():
    start = time.monotonic()
    n_ab = zoo.symmetric_pd_channel()

    # degenerate case: identity degradings on a self-complementary channel
    ident = ch.identity_channel(8)
    assert deg.verify_pd_identity(n_ab, ident, ident) <= 1e-8
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    out = cap.coherent_information_pd(n_ab, ident, ident, rho)
    assert abs(out["h_f_given_eprime"] - out["h_h_given_g"]) <= 1e-6
    assert abs(out["h_rf_given_eprime"]) <= 1e-6
    assert out["h_b_minus_h_eprime"] == pytest.approx(
        cap.coherent_information(n_ab, rho), abs=1e-8
    )

    # nontrivial case: repaired 8->2 degrading on both legs of the identity,
    # input supported where the degrading acts isometrically
    d_rep = zoo.d_e_to_eprime(repair=True)
    assert deg.verify_pd_identity(n_ab, d_rep, d_rep) <= 1e-8
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    out = cap.coherent_information_pd(n_ab, d_rep, d_rep, rho0)
    assert abs(out["h_f_given_eprime"] - out["h_h_given_g"]) <= 1e-6
    assert abs(out["h_rf_given_eprime"]) <= 1e-6
    assert time.monotonic() - start < 10.0


def test_07_ssa_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert cap.ssa_check(rho, (2, 2, 2)) >= -1e-9
    assert time.monotonic() - start < 5.0


def test_08_symmetric_pd():
    start = time.monotonic()
    n_ab = zoo.symmetric_pd_channel()
    n_ae = ch.complementary(n_ab)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert np.max(np.abs(ch.apply(n_ab, rho) - ch.apply(n_ae, rho))) <= 1e-10
    res = deg.classify_pd(n_ab)
    assert res["label"] == "SYMMETRIC_PD"
    assert time.monotonic() - start < 10.0


def test_09_polar_ledger_identities():
    start = time.monotonic()
    rng = np.random.default_rng(11)

    def rand_frac(lo=F(0), hi=F(1)):
        q = int(rng.integers(2, 64))
        p = int(rng.integers(0, q + 1))
        return lo + (hi - lo) * F(p, q)

    for _ in range(25):
        p1 = rand_frac()
        p1p = rand_frac(F(0), p1)
        led = polar.PolarLedger(
            g_amp=F(1), g_phase=rand_frac(), p1=p1, p1_prime=p1p,
            p2=F(0), p2_prime=F(0), b=F(0), regime="DEGRADABLE_PD",
        )
        assert polar.validate_partition(led) == []
        # PD rate exceeds the plain degradable rate by exactly delta
        assert polar.rate_pd_degradable(led) - polar.rate_degradable(led) == polar.delta(led)
        chi = polar.holevo_triples(led)
        assert chi["chi_ae"] - chi["chi_ae_prime"] == led.p1_prime

    for _ in range(25):
        b = rand_frac(F(0), F(1, 4))
        p1 = rand_frac()
        p1p = rand_frac(F(0), p1)
        led = polar.PolarLedger(
            g_amp=F(1) - b, g_phase=rand_frac(), p1=p1, p1_prime=p1p,
            p2=F(0), p2_prime=F(0), b=b, regime="ANTI_DEGRADABLE_PD",
        )
        assert polar.validate_partition(led) == []
        rates = polar.rate_pd_antidegradable(led)
        # net rate pays for the consumed entanglement exactly once more
        assert rates["gross"] - rates["net"] == led.b
        assert rates["gross"] == led.g_amp - (led.p1 - led.p1_prime) - led.b
    assert time.monotonic() - start < 1.0


def test_10_reproducible_validation_and_readme_ledger():
    first = {e["id"]: e for e in zoo.list_entries()}
    second = {e["id"]: e for e in zoo.list_entries()}
    assert first == second  # bit-identical reports, floats included
    expected_status = {
        "horodecki": "OK",
        "m_ae": "FLAGGED",
        "composite_complementary": "FLAGGED",
        "nab_ae": "OK",
        "d_e_to_eprime": "FLAGGED",
        "d_b_to_eprime": "FLAGGED",
        "symmetric_pd": "OK",
        "corollary4_degrading": "FLAGGED",
        "corollary4_rank_one": "FLAGGED",
        "erasure": "OK",
        "depolarizing": "OK",
        "amplitude_damping": "OK",
        "dephasing": "OK",
    }
    assert {k: v["status"] for k, v in first.items()} == expected_status
    with open(README) as f:
        readme = f.read()
    for entry_id, status in expected_status.items():
        assert entry_id in readme, entry_id
    assert "FLAGGED" in readme


def test_11_rank_one_certificate():
    start = time.monotonic()
    for n2 in range(4):
        for n3 in range(4):
            c = zoo.corollary4_rank_one_channel(n2, n3)
            for op in c.kraus:
                s = np.linalg.svd(op, compute_uv=False)
                assert s[1] <= 1e-10 * s[0]
    assert time.monotonic() - start < 1.0


def test_12_nab_ae_anti_degradable_with_a_witness():
    # B->E is ruled out by a Farkas witness at the first Choi eigensolve of
    # its refinement; E->B refines to a certified map within 20 of them
    start = time.monotonic()
    _, n_ab = zoo.build_entry("nab_ae")
    res = deg.classify_pd(n_ab)
    assert res["label"] == "ANTI_DEGRADABLE"
    assert res["solutions"]["B->E"]["status"] == "impossible"
    witness = res["solutions"]["B->E"]["witness"]
    assert witness["kind"] == "farkas" and witness["score"] < 0
    e_to_b = res["solutions"]["E->B"]
    assert e_to_b["status"] == "certified"
    assert e_to_b["map_residual"] <= 1e-8 and e_to_b["map_tp_residual"] <= 1e-8
    assert 0 < e_to_b["refine_rounds"] <= 20
    assert time.monotonic() - start < 30.0
