import numpy as np
import pytest

from pdchannel import capacity as cap
from pdchannel import channel as ch
from pdchannel import optimize, zoo
from pdchannel.errors import DimMismatch, DomainError, NotDensityMatrix, NotTracePreserving, SizeLimit


def _h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def test_coherent_information_identity_and_erasure():
    rho = np.eye(2, dtype=complex) / 2
    assert cap.coherent_information(ch.identity_channel(2), rho) == pytest.approx(1.0)
    # erasure at the maximally mixed input: (1 - 2p) * 1
    for p in (0.0, 0.25, 0.5, 0.75):
        got = cap.coherent_information(zoo.erasure(p), rho)
        assert got == pytest.approx(1.0 - 2.0 * p, abs=1e-10)
    with pytest.raises(DimMismatch):
        cap.coherent_information(zoo.erasure(0.5), np.eye(3) / 3)


def test_coherent_information_dephasing():
    rho = np.eye(2, dtype=complex) / 2
    p = 0.2
    got = cap.coherent_information(zoo.dephasing(p), rho)
    assert got == pytest.approx(1.0 - _h2(p), abs=1e-10)


def test_pd_isometries_validation():
    n_ab, _ = zoo.symmetric_pd_channel()
    ident8, rho = ch.identity_channel(8), np.eye(4, dtype=complex) / 4
    cap.coherent_information_pd(n_ab, ident8, ident8, rho)
    with pytest.raises(DimMismatch):
        cap.coherent_information_pd(n_ab, ch.identity_channel(3), ident8, rho)
    with pytest.raises(DimMismatch):
        cap.coherent_information_pd(n_ab, ident8, ch.identity_channel(3), rho)
    with pytest.raises(DimMismatch):
        cap.coherent_information_pd(n_ab, ident8, ident8, np.eye(2) / 2)
    # a map whose completeness misses the identity by more than the
    # residual tolerance has no isometry
    bad = ch.KrausChannel([np.ones((8, 8))])
    for legs in ((bad, ident8), (ident8, bad)):
        with pytest.raises(NotTracePreserving):
            cap.coherent_information_pd(n_ab, *legs, rho)
    half = ch.KrausChannel([0.5 * np.eye(2)])
    with pytest.raises(NotTracePreserving):
        cap.coherent_information_pd(half, ch.identity_channel(1), ch.identity_channel(2), np.eye(2) / 2)
    # a state of trace 3 gives a reduced spectrum of [0.6, 2.4], outside
    # the entropy clamping window
    d = zoo.d_e_to_eprime(repair=True)
    with pytest.raises(NotDensityMatrix):
        cap.coherent_information_pd(n_ab, d, d, 3 * np.diag([0.4, 0.3, 0.2, 0.1]))


def test_isometry_chain_identity_degradings_match_standard():
    n_ab, _ = zoo.symmetric_pd_channel()
    ident8 = ch.identity_channel(8)
    for rho in (np.eye(4, dtype=complex) / 4, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)):
        out = cap.coherent_information_pd(n_ab, ident8, ident8, rho)
        want = cap.coherent_information(n_ab, rho)
        assert out["h_b_minus_h_eprime"] == pytest.approx(want, abs=1e-9)
        assert out["h_f_given_eprime"] == pytest.approx(out["h_h_given_g"], abs=1e-9)
        assert out["h_rf_given_eprime"] == pytest.approx(0.0, abs=1e-9)


def test_isometry_chain_degradable_channel_value():
    # degenerate PD structure on a degradable channel: the E->E' degrading
    # is the identity and the B->E' leg is the solved degrading map, so the
    # degraded environment carries the full environment entropy
    from pdchannel import degradability as deg

    c = zoo.amplitude_damping(0.2)
    sol, d_b_to_e = deg.is_degradable(c)
    assert sol["success"]
    rho = np.eye(2, dtype=complex) / 2
    out = cap.coherent_information_pd(c, ch.identity_channel(2), d_b_to_e, rho)
    assert out["h_b_minus_h_eprime"] == pytest.approx(
        cap.coherent_information(c, rho), abs=1e-8
    )
    assert out["h_f_given_eprime"] == pytest.approx(
        out["h_b_minus_h_eprime"], abs=1e-12
    )


def test_params_state_roundtrip():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    x = cap._state_to_params(rho)
    back = cap._params_to_state(x, 3)
    assert np.max(np.abs(back - rho)) <= 1e-9
    # degenerate parameters fall back to the maximally mixed state
    assert np.allclose(cap._params_to_state(np.zeros(18), 3), np.eye(3) / 3)


def test_parameter_layout_is_row_major_re_im_pairs():
    # reference: entry (i, j) of the factor is x[2 (d i + j)] + 1j x[2 (d i + j) + 1]
    d = 4
    x = np.arange(1.0, 2 * d * d + 1)
    want = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            k = 2 * (d * i + j)
            want[i, j] = x[k] + 1j * x[k + 1]
    assert np.array_equal(cap._params_to_factor(x, d), want)
    assert np.array_equal(cap._factor_to_params(want), x)
    # stacks map row by row, and the maps round-trip
    stack = np.stack([x, -x])
    factors = cap._params_to_factor(stack, d)
    assert np.array_equal(factors, np.stack([want, -want]))
    assert np.array_equal(cap._factor_to_params(factors), stack)


def test_objective_at_zero_params_is_maximally_mixed():
    c = zoo.amplitude_damping(0.2)
    value, grad = cap._objective(c)(np.zeros(8))
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert value == pytest.approx(-cap.coherent_information(c, np.eye(2) / 2), abs=1e-12)


def test_analytic_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    step = 1e-5
    channels = (
        zoo.amplitude_damping(0.2),
        ch.tensor(zoo.amplitude_damping(0.3), zoo.amplitude_damping(0.3)),
        ch.tensor(zoo.dephasing(0.3), zoo.dephasing(0.3)),
        zoo.erasure(0.25),
    )
    for c in channels:
        objective = cap._objective(c)
        n = 2 * c.dim_in**2
        for _ in range(3):
            x = rng.standard_normal(n)
            value, grad = objective(x)
            rho = cap._params_to_state(x, c.dim_in)
            assert value == pytest.approx(-cap.coherent_information(c, rho), abs=1e-12)
            central = np.empty(n)
            for k in range(n):
                e = np.zeros(n)
                e[k] = step
                central[k] = (objective(x + e)[0] - objective(x - e)[0]) / (2 * step)
            assert np.max(np.abs(grad - central)) <= 1e-8, c.name


def test_maximizer_dephasing():
    res = cap.maximize_coherent_information(zoo.dephasing(0.1), restarts=8, seed=1)
    assert res["value"] == pytest.approx(1.0 - _h2(0.1), abs=1e-4)
    assert res["restarts_used"] == 8
    assert len(res["per_restart_values"]) == 8
    assert np.shape(res["argmax_state"]) == (2, 2, 2)


def test_maximizer_reports_per_restart_status():
    res = cap.maximize_coherent_information(zoo.amplitude_damping(0.2), restarts=6, seed=3)
    status = res["per_restart_status"]
    assert len(status) == 6
    for entry in status:
        assert set(entry) == {"nit", "nfev", "message"}
        assert entry["nfev"] >= entry["nit"] >= 1
        assert isinstance(entry["message"], str) and entry["message"]


def test_maximizer_matches_scipy_lbfgsb():
    sopt = pytest.importorskip("scipy.optimize")
    c = zoo.amplitude_damping(0.2)
    joint = ch.tensor(c, c)
    ours = cap.maximize_coherent_information(joint, restarts=16, seed=42)
    objective = cap._objective(joint)
    options = {"maxiter": 300, "ftol": 1e-12, "gtol": 1e-10}
    ref = [
        -sopt.minimize(objective, x0, jac=True, method="L-BFGS-B", options=options).fun
        for x0 in cap._starts(joint.dim_in, 16, 42, None)
    ]
    assert np.max(np.abs(np.subtract(ours["per_restart_values"], ref))) <= 1e-9


@pytest.mark.parametrize("seed", [42, 7])
def test_every_two_copy_dephasing_restart_reaches_the_optimum(seed):
    c = zoo.dephasing(0.3)
    res = cap.maximize_coherent_information(ch.tensor(c, c), restarts=32, seed=seed)
    assert res["value"] - min(res["per_restart_values"]) <= 1e-6


def _dephrasure(p, q):
    """(1-q)[(1-p) rho + p Z rho Z] + q Tr(rho) |2><2|, a 2 -> 3 channel."""
    embed = np.eye(3, 2)
    z = np.diag([1.0, -1.0])
    erase = np.zeros((2, 3, 2))
    erase[0, 2, 0] = erase[1, 2, 1] = np.sqrt(q)
    kraus = [np.sqrt((1 - q) * (1 - p)) * embed, np.sqrt((1 - q) * p) * embed @ z, *erase]
    return ch.KrausChannel(kraus, name="dephrasure")


def test_dephrasure_is_superadditive():
    # Leditzky, Leung & Smith, PRL 121, 160501 (2018): two copies of the
    # dephrasure channel beat twice the single-letter coherent information
    c = _dephrasure(0.10, 0.35)
    assert c.tp_residual() <= 1e-15
    probe = cap.additivity_probe(c, restarts=32, seed=42)
    assert probe["gap"] >= 5e-3


def _result_fields(res):
    return res.fun, res.x.tolist(), res.nit, res.nfev, res.message


@pytest.mark.parametrize("single", [zoo.amplitude_damping(0.2), zoo.dephasing(0.3),
                                    _dephrasure(0.10, 0.35)], ids=lambda c: c.name)
def test_lockstep_runs_match_runs_alone(single):
    # one batched evaluation per round hands every run the rows it would
    # get alone, so each run takes exactly the same steps
    c = ch.tensor(single, single)
    objective = cap._objective(c)
    starts = cap._starts(c.dim_in, 32, 42, None)
    together = optimize.minimize_many(objective, starts)
    alone = [optimize.minimize(objective, x0) for x0 in starts]
    assert [_result_fields(r) for r in together] == [_result_fields(r) for r in alone]


def test_maximizer_blocks_match_runs_alone():
    # 70 restarts span three lockstep blocks
    c = zoo.amplitude_damping(0.2)
    res = cap.maximize_coherent_information(c, restarts=70, seed=42)
    objective = cap._objective(c)
    alone = [optimize.minimize(objective, x0) for x0 in cap._starts(c.dim_in, 70, 42, None)]
    assert 70 > 2 * cap.LOCKSTEP_BLOCK
    assert res["per_restart_values"] == [-r.fun for r in alone]
    assert res["per_restart_status"] == [
        {"nit": r.nit, "nfev": r.nfev, "message": r.message} for r in alone
    ]


def test_maximizer_eigendecomposes_once_per_term_per_round(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    c = zoo.amplitude_damping(0.2)
    res = cap.maximize_coherent_information(ch.tensor(c, c), restarts=32, seed=42)
    rounds = max(entry["nfev"] for entry in res["per_restart_status"])
    assert len(calls) <= 2 * rounds


def test_starts_repeat_per_seed_and_differ_across_seeds():
    d, extra = 3, [np.diag([0.5, 0.3, 0.2])]
    one = cap._starts(d, 12, 7, extra)
    assert len(one) == 12
    assert all(np.array_equal(a, b) for a, b in zip(one, cap._starts(d, 12, 7, extra)))
    other = cap._starts(d, 12, 8, extra)
    # the fixed starts (I/d and the d near-pure basis states) and the extra
    # seed state come first and do not depend on the seed
    head = d + 2
    assert all(np.array_equal(a, b) for a, b in zip(one[:head], other[:head]))
    assert np.array_equal(one[head - 1], cap._state_to_params(extra[0]))
    assert all(not np.array_equal(a, b) for a, b in zip(one[head:], other[head:]))


def test_random_starts_are_density_matrices():
    for d in (2, 3, 4):
        for x in cap._starts(d, d + 1 + 10, 5, None)[d + 1 :]:
            rho = cap._params_to_state(x, d)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_maximizer_takes_seeds_of_any_size():
    # a negative seed stays an error: see test_maximizer_rejects_bad_settings
    c = zoo.amplitude_damping(0.2)
    big = cap.maximize_coherent_information(c, restarts=5, seed=2**64 + 3)
    assert big["restarts_used"] == 5 and big["converged"]
    assert len(cap._starts(2, 5, 2**70, None)) == 5


def test_maximizer_rejects_bad_settings():
    c = zoo.dephasing(0.3)
    for kwargs in ({"restarts": 0}, {"restarts": -3}, {"seed": -1}, {"tol": float("nan")},
                   {"tol": float("inf")}, {"tol": -1e-6}):
        with pytest.raises(DomainError):
            cap.maximize_coherent_information(c, **kwargs)


def test_maximizer_rejects_large_inputs():
    with pytest.raises(SizeLimit):
        cap.maximize_coherent_information(ch.identity_channel(17))
    with pytest.raises(SizeLimit):
        cap.additivity_probe(zoo.erasure(0.5, d=5))
    with pytest.raises(SizeLimit):
        cap.additivity_probe(zoo.dephasing(0.1), n=3)


def test_maximizer_rejects_bad_seed_states():
    c = zoo.amplitude_damping(0.2)
    with pytest.raises(DimMismatch):
        cap.maximize_coherent_information(c, restarts=2, extra_seed_states=[np.eye(3) / 3])
    with pytest.raises(NotDensityMatrix):
        cap.maximize_coherent_information(c, restarts=2, extra_seed_states=[np.diag([1.5, -0.5])])


def test_maximizer_takes_a_seed_at_the_edge_of_the_entropy_window():
    # a least eigenvalue of -5e-10 passes the entropy window (-1e-9); the
    # seed's factor clips it to zero before taking square roots
    seed = np.diag([1 + 5e-10, -5e-10])
    c = zoo.amplitude_damping(0.2)
    res = cap.maximize_coherent_information(c, restarts=2, extra_seed_states=[seed])
    assert res["restarts_used"] == 2 and np.isfinite(res["per_restart_values"][1])


def test_fixed_starts_are_the_maximally_mixed_and_near_pure_states():
    for d in (2, 3, 4):
        eye = np.eye(d)
        want = [eye / d] + [0.999 * np.outer(e, e) + 0.001 * eye / d for e in eye]
        got = [cap._params_to_state(x, d) for x in cap._fixed_starts(d)]
        assert len(got) == d + 1
        assert all(np.max(np.abs(g - w)) <= 1e-15 for g, w in zip(got, want))


def test_pure_seed_gets_a_full_rank_factor():
    # a zero column of the factor would keep a zero gradient column, and
    # the restart could never leave the seed's face
    a = cap._params_to_factor(cap._state_to_params(np.diag([1.0, 0.0, 0.0])), 3)
    assert np.linalg.svd(a, compute_uv=False).min() >= 1e-7


def test_capacity_tensor_maximizations_take_at_most_120_rounds():
    # rounds of a lockstep block = its slowest restart's evaluations; the
    # six maximizations of capacity --tensor 2 --restarts 32 --seed 42 on
    # the bench's three channels
    rounds = 0
    for c in (zoo.amplitude_damping(0.2), zoo.amplitude_damping(0.3), zoo.dephasing(0.3)):
        single = cap.maximize_coherent_information(c, restarts=32, seed=42)
        rho = np.asarray(single["argmax_state"]) @ [1, 1j]
        joint = cap.maximize_coherent_information(
            ch.tensor(c, c), restarts=32, seed=42, extra_seed_states=[np.kron(rho, rho)],
        )
        rounds += sum(max(s["nfev"] for s in r["per_restart_status"]) for r in (single, joint))
    assert rounds <= 120


def test_capacity_tensor_maximizations_take_at_most_100_rounds():
    # the same six maximizations: a restart that starts at the optimum to
    # within rounding stops when a trial step of its line search predicts a
    # decrease below the rounding of f (dephasing(0.3) restart 25 and
    # AD(0.3)x2 restart 14 at seed 42), not after a full line search
    rounds = []
    for c in (zoo.amplitude_damping(0.2), zoo.amplitude_damping(0.3), zoo.dephasing(0.3)):
        single = cap.maximize_coherent_information(c, restarts=32, seed=42)
        rho = np.asarray(single["argmax_state"]) @ [1, 1j]
        joint = cap.maximize_coherent_information(
            ch.tensor(c, c), restarts=32, seed=42, extra_seed_states=[np.kron(rho, rho)],
        )
        rounds += [max(s["nfev"] for s in r["per_restart_status"]) for r in (single, joint)]
    assert sum(rounds) <= 100, rounds


def test_ssa_known_states():
    # product of maximally mixed qubits saturates SSA: slack = 2+2-3-1 = 0
    rho = np.eye(8, dtype=complex) / 8
    assert cap.ssa_check(rho, (2, 2, 2)) == pytest.approx(0.0, abs=1e-10)
    # GHZ state: H(AB) = H(BC) = 1, H(ABC) = 0, H(B) = 1, slack = 1
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    ghz = np.outer(psi, psi.conj())
    assert cap.ssa_check(ghz, (2, 2, 2)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DimMismatch):
        cap.ssa_check(np.eye(4) / 4, (2, 2))
