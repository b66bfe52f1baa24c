import inspect
import random
import tracemalloc

import numpy as np
import pytest

from pdchannel import capacity as cap
from pdchannel import channel as ch
from pdchannel import degradability as deg
from pdchannel import entanglement as ent
from pdchannel import optimize, qmat, zoo
from pdchannel.config import TOL
from pdchannel.errors import DimMismatch, DomainError, NotDensityMatrix, NotHermitian, NotTracePreserving, SizeLimit


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
    n_ab = zoo.symmetric_pd_channel()
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
    # a state with a negative eigenvalue beyond the window is rejected, as
    # coherent_information rejects it, not clipped before purification
    e = zoo.erasure(0.25, d=3)
    legs = (ch.identity_channel(e.dim_env), ch.identity_channel(e.dim_out))
    bad = np.diag([0.6, 0.5, -0.1])
    with pytest.raises(NotDensityMatrix):
        cap.coherent_information(e, bad)
    with pytest.raises(NotDensityMatrix):
        cap.coherent_information_pd(e, *legs, bad)
    # so is a state whose eigenvalues all lie in the window but whose
    # trace is not 1
    short = np.diag([0.3, 0.2, 0.0])
    with pytest.raises(NotDensityMatrix):
        cap.coherent_information(zoo.amplitude_damping(0.2), short[:2, :2])
    with pytest.raises(NotDensityMatrix):
        cap.coherent_information_pd(e, *legs, short)
    # a non-Hermitian state raises, whichever triangle carries the entry;
    # anti-Hermitian noise below TOL.herm_tol is rounding
    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 3] = 0.9
    for m in (skew, skew.T):
        with pytest.raises(NotHermitian):
            cap.coherent_information_pd(n_ab, ident8, ident8, m)
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    noisy = cap.coherent_information_pd(n_ab, ident8, ident8, bell + 1e-11j * np.ones((4, 4)))
    exact = cap.coherent_information_pd(n_ab, ident8, ident8, bell)
    assert noisy == pytest.approx(exact, abs=1e-9)


def test_isometry_chain_identity_degradings_match_standard():
    n_ab = zoo.symmetric_pd_channel()
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


def test_isometry_chain_matches_a_stinespring_reference_on_random_legs():
    # the reference pushes a purification of rho through the Stinespring
    # isometries of N_AB and of both legs into the pure state on E'FGHR and
    # reads every entropy off a partial trace of it
    rng = np.random.default_rng(42)
    for _ in range(20):
        d_a, d_b, d_e, d_ep, d_f, d_g, d_h = rng.integers(2, 4, size=7)
        n_ab = _random_channel(rng, d_a, d_b, d_e)
        d_e_to_eprime = _random_channel(rng, d_e, d_g, d_h)
        d_b_to_eprime = _random_channel(rng, d_b, d_ep, d_f)
        rank = rng.integers(1, d_a + 1)
        a = rng.standard_normal((d_a, rank)) + 1j * rng.standard_normal((d_a, rank))
        rho = a @ a.conj().T / np.vdot(a, a).real
        w, v = np.linalg.eigh(rho)
        ber = ch.stinespring(n_ab) @ (v * np.sqrt(np.clip(w, 0.0, None)))
        psi = (np.kron(ch.stinespring(d_b_to_eprime), ch.stinespring(d_e_to_eprime)) @ ber).ravel()
        dims = (d_ep, d_f, d_g, d_h, d_a)

        def h(keep):
            return ent.entropy(qmat.partial_trace(np.outer(psi, psi.conj()), dims, keep))

        h_b = ent.entropy(qmat.partial_trace(np.outer(ber, ber.conj()), (d_b, d_e, d_a), [0]))
        want = {
            "h_f_given_eprime": h([0, 1]) - h([0]),
            "h_h_given_g": h([2, 3]) - h([2]),
            "h_b_minus_h_eprime": h_b - h([0]),
            "h_rf_given_eprime": h([0, 1, 4]) - h([0]),
        }
        got = cap.coherent_information_pd(n_ab, d_e_to_eprime, d_b_to_eprime, rho)
        assert got == pytest.approx(want, abs=1e-10)


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
        # d_out != d_in, so a transposed vec would show: 3 -> 4 with 4 Kraus
        # operators, and 4 -> 8 with 8
        zoo.erasure(0.25, d=3),
        zoo.symmetric_pd_channel(),
        # complex Kraus operators, so N(conj(rho)) != conj(N(rho)) and a
        # conjugated transfer matrix would show
        ch.compose(ch.KrausChannel([np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)]),
                   zoo.amplitude_damping(0.2)),
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


def test_objective_holds_no_stack_over_the_kraus_index():
    # symmetric_pd(x)2 is 16 -> 64 with 64 Kraus operators; one 32-row
    # evaluation held a (32, 64, 64, 64) product before summing over K
    c = zoo.symmetric_pd_channel()
    objective = cap._objective(ch.tensor(c, c), True)
    x = np.random.default_rng(3).standard_normal((cap.LOCKSTEP_BLOCK, 2 * 16**2))
    tracemalloc.start()
    try:
        objective(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


def test_maximizer_dephasing():
    res = cap.maximize_coherent_information(zoo.dephasing(0.1), restarts=8, seed=1)
    assert res["value"] == pytest.approx(1.0 - _h2(0.1), abs=1e-4)
    assert res["restarts_used"] == 8
    assert len(res["per_restart_values"]) == 8
    assert np.shape(res["argmax_state"]) == (2, 2, 2)


def test_maximizer_reports_per_restart_status():
    # AD(0.7) is anti-degradable, so no certificate ends a block: every
    # restart runs to its own stop; and I/d is not its optimum, so restart 0
    # takes a step too
    res = cap.maximize_coherent_information(zoo.amplitude_damping(0.7), restarts=6, seed=3)
    assert not res["certificate"]["degradable"]
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
    # every restart to its own stop: the lockstep driver without the
    # certified stop that AD(0.2)x2 would get in the maximizer
    objective = cap._objective(joint)
    starts = list(cap._starts(joint.dim_in, 16, 42))
    ours = [-r.fun for r in optimize.minimize_many(objective, starts)]
    options = {"maxiter": 300, "ftol": 1e-12, "gtol": 1e-10}
    ref = [
        -sopt.minimize(objective, x0, jac=True, method="L-BFGS-B", options=options).fun
        for x0 in starts
    ]
    assert np.max(np.abs(np.subtract(ours, ref))) <= 1e-9


@pytest.mark.parametrize("seed", [42, 7])
def test_every_two_copy_dephasing_restart_reaches_the_optimum(seed):
    # every restart to its own stop, without the certified stop that
    # dephasing(0.3)x2 would get in the maximizer
    c = ch.tensor(zoo.dephasing(0.3), zoo.dephasing(0.3))
    starts = list(cap._starts(c.dim_in, 32, seed))
    values = [-r.fun for r in optimize.minimize_many(cap._objective(c), starts)]
    assert max(values) - min(values) <= 1e-6


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
    probe = cap.additivity_probe(c, restarts=32, seed=42)["additivity"]
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
    starts = list(cap._starts(c.dim_in, 32, 42))
    together = optimize.minimize_many(objective, starts)
    alone = [optimize.minimize(objective, x0) for x0 in starts]
    assert [_result_fields(r) for r in together] == [_result_fields(r) for r in alone]


def test_maximizer_blocks_match_runs_alone():
    # 70 restarts span three lockstep blocks; depolarizing(0.1) is not
    # degradable, so no certificate ends a block
    c = zoo.depolarizing(0.1)
    res = cap.maximize_coherent_information(c, restarts=70, seed=42)
    objective = cap._objective(c)
    alone = [optimize.minimize(objective, x0) for x0 in cap._starts(c.dim_in, 70, 42)]
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
    batched = [shape for shape in calls if len(shape) == 3]
    assert len(batched) <= 2 * rounds
    # the certificate's own: one eigensolve reads the Kraus map off the
    # certified Choi matrix of the least-squares candidate
    assert res["certificate"]["gap"] is not None
    assert calls[:1] == [(16, 16)] and len(calls) - len(batched) == 1


def test_starts_repeat_per_seed_and_differ_across_seeds():
    d, extra = 3, [np.diag([0.5, 0.3, 0.2])]
    one = list(cap._starts(d, 12, 7, extra))
    assert len(one) == 12
    assert all(np.array_equal(a, b) for a, b in zip(one, cap._starts(d, 12, 7, extra)))
    other = list(cap._starts(d, 12, 8, extra))
    # the fixed starts (I/d and the d near-pure basis states) and the extra
    # seed state come first and do not depend on the seed
    head = d + 2
    assert all(np.array_equal(a, b) for a, b in zip(one[:head], other[:head]))
    assert np.array_equal(one[head - 1], cap._state_to_params(extra[0]))
    assert all(not np.array_equal(a, b) for a, b in zip(one[head:], other[head:]))


def test_random_starts_are_density_matrices():
    for d in (2, 3, 4):
        for x in list(cap._starts(d, d + 1 + 10, 5))[d + 1 :]:
            rho = cap._params_to_state(x, d)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_maximizer_takes_seeds_of_any_size():
    # a negative seed stays an error: see test_maximizer_rejects_bad_settings
    c = zoo.amplitude_damping(0.2)
    big = cap.maximize_coherent_information(c, restarts=5, seed=2**64 + 3)
    assert big["restarts_used"] == 5 and big["converged"]
    assert len(list(cap._starts(2, 5, 2**70))) == 5


def test_maximizer_rejects_bad_settings():
    c = zoo.dephasing(0.3)
    for kwargs in ({"restarts": 0}, {"restarts": -3}, {"seed": -1}, {"tol": float("nan")},
                   {"tol": float("inf")}, {"tol": -1e-6}):
        with pytest.raises(DomainError):
            cap.maximize_coherent_information(c, **kwargs)
    # the seed's type rule: restarts an int, tol an int or float, neither a bool
    for name, values in (("restarts", (2.5, 2.0, True, False, "2", None)),
                         ("tol", ("1e-6", None, True, False, 1e-6j))):
        for value in values:
            with pytest.raises(DomainError, match=name):
                cap.maximize_coherent_information(c, **{name: value})


def test_settings_are_keyword_only_in_one_order():
    # positional settings once ran additivity_probe(c, 32, 1e-6) with
    # seed = 1e-6 and tol = 42
    c = zoo.amplitude_damping(0.2)
    for run in (cap.maximize_coherent_information, cap.additivity_probe):
        params = list(inspect.signature(run).parameters.values())[1:]
        assert [(p.name, p.kind) for p in params] == [
            (name, inspect.Parameter.KEYWORD_ONLY) for name in ("restarts", "tol", "seed")]
        with pytest.raises(TypeError):
            run(c, 32, 1e-6)
        for seed in (0.5, 1e-6, 42.0, True, False, -1, "42"):
            with pytest.raises(DomainError, match="seed"):
                run(c, restarts=1, seed=seed)


def test_maximizer_rejects_large_inputs():
    with pytest.raises(SizeLimit):
        cap.maximize_coherent_information(ch.identity_channel(17))
    with pytest.raises(SizeLimit):
        cap.additivity_probe(zoo.erasure(0.5, d=5))


def test_maximizer_takes_a_seed_at_the_edge_of_the_entropy_window():
    # a least eigenvalue of -5e-10 passes the entropy window (-1e-9); the
    # seed's factor clips it to zero before taking square roots
    x = cap._state_to_params(np.diag([1 + 5e-10, -5e-10]))
    assert np.all(np.isfinite(x))
    assert np.isfinite(optimize.minimize(cap._objective(zoo.amplitude_damping(0.2)), x).fun)


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


def _probe_maximizations(c):
    """The two maximizations of capacity --tensor 2 --restarts 32 --seed 42
    on ``c``, as (channel, report, starts), single copy then two copies;
    the two-copy run is the probe's, certified by the bound on the residual
    of D (x) D."""
    single = cap.additivity_probe(c, restarts=32, seed=42)
    rho = np.asarray(single["argmax_state"]) @ [1, 1j]
    joint_ch, seeds = ch.tensor(c, c), [np.kron(rho, rho)]
    bound = cap._two_copy_residual(c, single["certificate"]["map_residual"])
    assert bound <= TOL.residual_tol, c.name
    joint = cap._maximize(joint_ch, 32, 1e-6, 42, seeds, bound)
    assert single["additivity"]["joint"] == joint["value"]
    return [(c, single, list(cap._starts(c.dim_in, 32, 42))),
            (joint_ch, joint, list(cap._starts(joint_ch.dim_in, 32, 42, seeds)))]


def _capacity_tensor_maximizations():
    """The six maximizations of capacity --tensor 2 --restarts 32 --seed 42
    on the bench's three channels (see :func:`_probe_maximizations`)."""
    return [run for c in (zoo.amplitude_damping(0.2), zoo.amplitude_damping(0.3), zoo.dephasing(0.3))
            for run in _probe_maximizations(c)]


def test_capacity_tensor_maximizations_take_at_most_100_rounds():
    # rounds of a lockstep block = its slowest restart's evaluations; a
    # restart that starts at the optimum to within rounding stops when a
    # trial step of its line search predicts a decrease below the rounding
    # of f (dephasing(0.3) restart 25 and AD(0.3)x2 restart 14 at seed 42),
    # not after a full line search
    runs = _capacity_tensor_maximizations()
    rounds = [max(s["nfev"] for s in r["per_restart_status"]) for _, r, _ in runs]
    assert sum(rounds) <= 100, rounds


def test_certified_stop_keeps_the_capacity_tensor_values_in_20_rounds():
    # the same optimum as every restart run to its own stop, in a fraction
    # of the rounds
    rounds = 0
    for c, res, starts in _capacity_tensor_maximizations():
        assert res["certificate"]["gap"] is not None, c.name
        full = optimize.minimize_many(cap._objective(c), starts)
        assert abs(res["value"] - max(-r.fun for r in full)) <= 1e-12, c.name
        rounds += max(s["nfev"] for s in res["per_restart_status"])
    assert rounds <= 20


def _ad_capacity(gamma):
    # max over the excited population t of h((1 - gamma) t) - h(gamma t),
    # concave in t, by ternary search
    def q(t):
        return _h2((1 - gamma) * t) - _h2(gamma * t)

    lo, hi = 0.0, 1.0
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (m1, hi) if q(m1) < q(m2) else (lo, m2)
    return q((lo + hi) / 2)


def test_certified_gap_bounds_the_closed_form_capacity():
    # Q = Q^(1) <= value + gap on degradable channels, one copy and two;
    # each run is (Q, report, how far value + gap may fall below Q)
    closed = {
        "amplitude_damping(gamma=0.2)": _ad_capacity(0.2),
        "amplitude_damping(gamma=0.3)": _ad_capacity(0.3),
        "dephasing(p=0.3)": 1.0 - _h2(0.3),
    }
    runs = []
    for c, res, _ in _capacity_tensor_maximizations():
        # the two-copy channel's name starts with the single copy's
        q = next(q for name, q in closed.items() if c.name.startswith(name))
        runs.append((q if c.dim_in == 2 else 2 * q, res, 0.0))
    for d in (2, 3):
        res = cap.maximize_coherent_information(ch.identity_channel(d), restarts=32, seed=42)
        runs.append((np.log2(d), res, 0.0))
        # erasure's degrading map is found by the refinement, not the
        # least-squares stage; Q = (1 - 2p) log2 d. Its optimum is restart
        # 0, I/d, whose gap reads 0.0, so value + gap misses Q by the
        # rounding of value itself (2 eps at d = 2), which the certificate
        # does not bound yet
        q = (1 - 2 * 0.25) * np.log2(d)
        (_, single, _), (_, joint, _) = _probe_maximizations(zoo.erasure(0.25, d=d))
        runs += [(q, single, 4 * np.finfo(float).eps), (2 * q, joint, 4 * np.finfo(float).eps)]
    assert len(runs) == 12
    for q, res, rounding in runs:
        cert = res["certificate"]
        assert cert["degradable"] and res["converged"]
        assert 0 <= cert["gap"] <= 1e-6
        assert res["value"] + cert["gap"] >= q - rounding
        assert res["value"] <= q + 1e-12
        status = res["per_restart_status"][cert["restart"]]
        assert status["message"] == f"converged: certified gap {cert['gap']:.3e} <= 1e-06"
        others = {s["message"] for i, s in enumerate(res["per_restart_status"]) if i != cert["restart"]}
        assert others <= {f"stopped: restart {cert['restart']} has a certified gap {cert['gap']:.3e} <= 1e-06"}


def test_rank_guard_keeps_pure_trial_points_from_certifying():
    # restart 0 of AD(0.2) at seed 42 tries a pure state on its second round:
    # I = 0 there and log2 is 0 on the output kernels, which would read a
    # gap of 0 without the guard
    res = cap.maximize_coherent_information(zoo.amplitude_damping(0.2), restarts=32, seed=42)
    assert abs(res["value"] - 0.506215240927213) <= 1e-12


def test_certified_stop_ends_later_blocks_unstarted():
    c = zoo.amplitude_damping(0.2)
    res = cap.maximize_coherent_information(c, restarts=70, seed=42)
    assert res["restarts_used"] == cap.LOCKSTEP_BLOCK == len(res["per_restart_values"])
    assert res["certificate"]["restart"] < cap.LOCKSTEP_BLOCK


def test_certified_stop_draws_no_starts_for_later_blocks(monkeypatch):
    # each block draws its random starts as it begins, so the blocks that
    # a certificate leaves unstarted cost no draws
    draws = []

    class Counted(random.Random):
        def gauss(self, *args):
            draws.append(1)
            return super().gauss(*args)

    monkeypatch.setattr(cap.random, "Random", Counted)
    c = zoo.amplitude_damping(0.2)
    res = cap.maximize_coherent_information(c, restarts=10**5, seed=42)
    assert res["restarts_used"] == cap.LOCKSTEP_BLOCK
    assert 0 < len(draws) <= cap.LOCKSTEP_BLOCK * 2 * c.dim_in**2


def test_two_copy_certificate_holds_under_the_single_copy_size_limit(monkeypatch):
    # a degrading-map solve that refuses the two copies of AD(0.2) (input
    # side 4) but not one copy (side 2): the two-copy certificate is read
    # off the single copy's, with no two-copy solve, so the two-copy run
    # still stops on it
    c = zoo.amplitude_damping(0.2)
    solve = deg.solve_degrading_map

    def single_copy_solve(from_ch, to_ch):
        if from_ch.dim_in == 4:
            raise SizeLimit("two-copy solve")
        return solve(from_ch, to_ch)

    monkeypatch.setattr(deg, "solve_degrading_map", single_copy_solve)
    report = cap.additivity_probe(c, restarts=32, seed=42)
    assert report["certificate"]["gap"] is not None
    rho = np.asarray(report["argmax_state"]) @ [1, 1j]
    bound = cap._two_copy_residual(c, report["certificate"]["map_residual"])
    joint = cap._maximize(ch.tensor(c, c), 32, 1e-6, 42, [np.kron(rho, rho)], bound)
    assert report["additivity"]["joint"] == joint["value"]
    assert joint["restarts_used"] <= cap.LOCKSTEP_BLOCK and joint["certificate"]["gap"] is not None
    # a side cap of 8 admits one copy's objective (Choi side 4) but not the
    # two copies' (side 16), and the probe refuses before any maximization
    monkeypatch.setenv("QPD_MAX_DIM", "8")
    monkeypatch.setattr(cap, "maximize_coherent_information", lambda *a, **k: pytest.fail("maximized"))
    with pytest.raises(SizeLimit, match="side 16, above the side cap 8"):
        cap.additivity_probe(c, restarts=32, seed=42)


@pytest.mark.parametrize("over", [False, True], ids=["at_tol", "one_ulp_above"])
def test_probe_refuses_a_two_copy_bound_above_the_residual_tolerance(monkeypatch, over):
    # a bound at TOL.residual_tol reaches the two-copy run; one ulp above
    # it, the two copies run with no certificate
    bound = np.nextafter(TOL.residual_tol, 1) if over else TOL.residual_tol
    monkeypatch.setattr(cap, "_two_copy_residual", lambda c, r: bound)
    received, maximize = [], cap._maximize

    def recorded(c, restarts, tol, seed, seed_states, map_residual):
        if c.dim_in == 4:
            received.append(map_residual)
        return maximize(c, restarts, tol, seed, seed_states, map_residual)

    monkeypatch.setattr(cap, "_maximize", recorded)
    cap.additivity_probe(zoo.amplitude_damping(0.2), restarts=32, seed=42)
    assert received == [None if over else TOL.residual_tol]


def _random_channel(rng, d_in, d_out, k):
    """A CPTP map with k Kraus operators, cut from a random isometry."""
    a = rng.standard_normal((k * d_out, d_in)) + 1j * rng.standard_normal((k * d_out, d_in))
    return ch.KrausChannel(np.linalg.qr(a)[0].reshape(k, d_out, d_in))


def test_two_copy_residual_bounds_the_exact_residual():
    # a random map D from the output of a random N to its environment is no
    # degrading map, so r is of order 1 and the bound far from rounding;
    # the reference is the two-copy composition itself
    rng = np.random.default_rng(30)
    for _ in range(200):
        d_in, d_out, k, k_d = rng.integers(2, 4, size=4)
        n = _random_channel(rng, d_in, d_out, k)
        d = _random_channel(rng, d_out, k, k_d)
        r = deg.verify_pd_identity(n, ch.identity_channel(k), d)
        n2 = ch.tensor(n, n)
        exact = deg.verify_pd_identity(n2, ch.identity_channel(k * k), ch.tensor(d, d))
        assert exact <= cap._two_copy_residual(n, r)


def test_certificate_reports_the_map_residual():
    c = zoo.amplitude_damping(0.2)
    res = cap.maximize_coherent_information(c, restarts=1)
    want = deg.is_degradable(c)[0]["map_residual"]
    assert res["certificate"]["map_residual"] == want
    res = cap.maximize_coherent_information(zoo.depolarizing(0.1), restarts=1)
    assert res["certificate"]["map_residual"] is None


def _zoo_inputs_of_capacity():
    """Every zoo entry that is trace-preserving with dim_in <= MAX_OPT_DIM,
    at its defaults and, where it has one, with ``repair=True``."""
    inputs = []
    for entry_id in zoo.zoo_ids():
        report, c = zoo.build_entry(entry_id)
        inputs.append(c)
        if "repair" in report["params"]:
            inputs.append(zoo.build_entry(entry_id, repair=True)[1])
    return [c for c in inputs if not c.flagged and c.dim_in <= cap.MAX_OPT_DIM]


def test_certificate_is_the_classify_b_to_e_solve():
    # capacity certifies a degrading map exactly when classify's B->E solve
    # does, and reports that solve's map_residual
    inputs = _zoo_inputs_of_capacity()
    assert {c.name for c in inputs} >= {"erasure(p=0.25,d=2)", "composite_complementary(x=0.75) [repaired]"}
    for c in inputs:
        b_to_e = deg.classify_pd(c)["solutions"]["B->E"]
        cert = cap.maximize_coherent_information(c, restarts=1)["certificate"]
        assert cert["degradable"] == (b_to_e["status"] == "certified"), c.name
        assert cert["map_residual"] == b_to_e.get("map_residual"), c.name


def test_probe_builds_no_two_copy_degrading_map():
    # symmetric_pd is 4 -> 8 with 8 Kraus operators; composing the two-copy
    # stacks of N and D (x) D to check D (x) D took about 500 MB
    c = zoo.symmetric_pd_channel()
    tracemalloc.start()
    try:
        cap.additivity_probe(c, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_probe_runs_one_degrading_solve(monkeypatch):
    # the single-copy maximization runs the solve once, and the probe reads
    # the two-copy certificate off its report, so it never runs it again
    calls, original = [], cap.deg.solve_degrading_map

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cap.deg, "solve_degrading_map", counted)
    for c, solves in ((zoo.depolarizing(0.1), 1), (zoo.amplitude_damping(0.2), 1)):
        calls.clear()
        report = cap.additivity_probe(c, restarts=1)
        assert report["additivity"]["single"] == report["value"]
        assert len(calls) == solves, c.name


@pytest.mark.parametrize("single", [_dephrasure(0.10, 0.35), zoo.depolarizing(0.1)], ids=lambda c: c.name)
def test_uncertified_channels_run_every_restart_as_before(single):
    # neither channel is degradable: the single and two-copy maximizations
    # give exactly what the lockstep driver gives without a stop
    res = cap.additivity_probe(single, restarts=32, seed=42)
    assert res["certificate"] == {"degradable": False, "map_residual": None, "gap": None, "restart": None}
    rho = np.asarray(res["argmax_state"]) @ [1, 1j]
    c2, seeds = ch.tensor(single, single), [np.kron(rho, rho)]
    joint = cap._maximize(c2, 32, 1e-6, 42, seeds, None)
    assert res["additivity"]["joint"] == joint["value"]
    for c, got, extra in ((single, res, ()), (c2, joint, seeds)):
        full = optimize.minimize_many(cap._objective(c), list(cap._starts(c.dim_in, 32, 42, extra)))
        assert got["per_restart_values"] == [-float(r.fun) for r in full]
        assert got["per_restart_status"] == [
            {"nit": r.nit, "nfev": r.nfev, "message": r.message} for r in full
        ]


def test_product_seed_at_a_stationary_point_stops_at_once():
    # the product seed of dephrasure(0.10, 0.35) (x) 2, restart 5 after I/4
    # and the four basis states, predicts a decrease -g.d / 2 below the
    # rounding of f at its first iterate, so it ends there after one
    # evaluation instead of a line search that cannot show a decrease
    c = _dephrasure(0.10, 0.35)
    rho = np.asarray(cap.additivity_probe(c, restarts=32, seed=42)["argmax_state"]) @ [1, 1j]
    joint = cap._maximize(ch.tensor(c, c), 32, 1e-6, 42, [np.kron(rho, rho)], None)
    assert joint["per_restart_status"][5] == {
        "nit": 0, "nfev": 1, "message": "converged: predicted reduction of f is below its rounding error"}


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
    # every eigenvalue in the clamping window, but the trace is 1/2
    with pytest.raises(NotDensityMatrix):
        cap.ssa_check(np.eye(8) / 16, (2, 2, 2))
