import numpy as np
import pytest

from pdchannel import channel as ch
from pdchannel import degradability as deg
from pdchannel import zoo
from pdchannel.errors import DomainError


def test_horodecki_channel_is_tp_and_matches_state():
    c = zoo.horodecki_channel(3.5)
    assert not c.flagged
    assert c.tp_residual() <= 1e-12
    with pytest.raises(DomainError):
        zoo.horodecki_channel(6.0)
    with pytest.raises(DomainError):
        zoo.horodecki_state(-0.1)


def test_horodecki_state_structure():
    rho = zoo.horodecki_state(3.5)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    # maximally entangled weight 2/7 on the diagonal-pair entries
    assert rho[0, 4].real == pytest.approx(2.0 / 21.0, abs=1e-12)


def test_m_ae_verbatim_flagged_repaired_ok():
    verbatim = zoo.m_ae_channel()
    assert verbatim.flagged
    assert len(verbatim.kraus) == 6
    repaired = zoo.m_ae_channel(repair=True)
    assert not repaired.flagged
    assert repaired.tp_residual() <= 1e-10
    assert "[repaired]" in repaired.name


_RHO4 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)


@pytest.mark.parametrize("x", [0.0, 0.75, 1.0])
def test_composite_complementary_block_structure(x):
    for repair in (False, True):
        c = zoo.composite_complementary(x, repair=repair)
        inner = zoo.m_ae_channel(repair=repair)
        assert (c.dim_in, c.dim_out) == (4, 8)
        # the identity on flag 0 and m_ae on flag 1, a branch of weight 0 left out
        assert len(c.kraus) == (x > 0) + len(inner.kraus) * (x < 1)
        assert np.all(np.linalg.norm(c.kraus, axis=(1, 2)) > 0)
        # a verbatim inner block leaves the construction flagged
        assert c.flagged == (not repair and x < 1)
        if not c.flagged:
            assert c.tp_residual() <= 1e-10
        blocks = ch.apply(c, _RHO4).reshape(2, 4, 2, 4)
        assert np.allclose(blocks[0, :, 0, :], x * _RHO4, atol=1e-12)
        assert np.allclose(blocks[0, :, 1, :], 0.0)
        assert np.trace(blocks[1, :, 1, :]).real == pytest.approx(
            (1 - x) * np.trace(ch.apply(inner, _RHO4)).real, abs=1e-12
        )


def test_nab_ae_channel():
    c = zoo.nab_ae_channel(0.75)
    assert (c.dim_in, c.dim_out) == (4, 12)
    assert c.tp_residual() <= 1e-12
    with pytest.raises(DomainError):
        zoo.nab_ae_channel(1.5)


@pytest.mark.parametrize("x", [0.0, 0.75, 1.0])
def test_nab_ae_channel_block_structure(x):
    c = zoo.nab_ae_channel(x)
    assert (c.dim_in, c.dim_out) == (4, 12)
    # 24 operators |m><k| on flag 0 and the 4->6 embedding on flag 1
    assert len(c.kraus) == 24 * (x > 0) + (x < 1)
    assert np.all(np.linalg.norm(c.kraus, axis=(1, 2)) > 0)
    assert not c.flagged and c.tp_residual() <= 1e-12
    blocks = ch.apply(c, _RHO4).reshape(2, 6, 2, 6)
    assert np.trace(blocks[0, :, 0, :]).real == pytest.approx(x, abs=1e-12)
    assert np.trace(blocks[1, :, 1, :]).real == pytest.approx(1 - x, abs=1e-12)
    # x-branch replaces the input with the maximally mixed block state
    assert np.allclose(blocks[0, :, 0, :], x * np.eye(6) / 6)
    assert np.allclose(blocks[0, :, 1, :], 0.0)


@pytest.mark.parametrize("build", [zoo.nab_ae_channel, zoo.composite_complementary])
@pytest.mark.parametrize("x", [1.5, -0.5, float("nan")])
def test_flag_sums_reject_x_outside_the_unit_interval(build, x):
    with pytest.raises(DomainError):
        build(x)


def test_d_e_to_eprime_flag_and_repair():
    verbatim = zoo.d_e_to_eprime()
    assert verbatim.flagged  # only two of eight input columns are covered
    repaired = zoo.d_e_to_eprime(repair=True)
    assert not repaired.flagged
    assert repaired.tp_residual() <= 1e-10
    # with equal weights the repaired map acts as the identity on the
    # two-dimensional supported block
    rho = np.zeros((8, 8), dtype=complex)
    rho[:2, :2] = np.array([[0.6, 0.2], [0.2, 0.4]])
    out = ch.apply(repaired, rho)
    assert np.allclose(out, rho[:2, :2], atol=1e-10)


def test_d_b_to_eprime_best_effort_is_flagged():
    c = zoo.d_b_to_eprime(0.75)
    assert (c.dim_in, c.dim_out) == (12, 2)
    assert c.flagged
    with pytest.raises(DomainError):
        zoo.d_b_to_eprime(0.0)


def test_symmetric_isometry_and_marginals():
    v = zoo.symmetric_isometry()
    assert np.allclose(v.conj().T @ v, np.eye(4))
    n_ab, n_ae = zoo.symmetric_pd_channel()
    assert n_ab.tp_residual() <= 1e-12
    assert n_ae.tp_residual() <= 1e-12
    # swap symmetry: the two marginal channels are identical operator by operator
    for a, b in zip(n_ab.kraus, n_ae.kraus):
        assert np.array_equal(a, b)
    # and the environment marginal of n_ab is again n_ab in action
    comp = ch.complementary(n_ab)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.allclose(ch.apply(comp, rho), ch.apply(n_ab, rho), atol=1e-12)


def test_corollary4_constructors():
    d = zoo.corollary4_degrading_map()
    assert (d.dim_in, d.dim_out) == (3, 3)
    assert len(d.kraus) == 5
    r = zoo.corollary4_rank_one_channel((0, 2, 0))
    assert len(r.kraus) == 6
    for op in r.kraus:
        s = np.linalg.svd(op, compute_uv=False)
        assert s[1] <= 1e-10 * s[0]
    with pytest.raises(DomainError):
        zoo.corollary4_degrading_map((1, 0, 0))
    with pytest.raises(DomainError):
        zoo.corollary4_rank_one_channel((0, 4, 0))


def test_baselines_are_tp():
    for c in (
        zoo.erasure(0.25),
        zoo.erasure(0.3, d=3),
        zoo.depolarizing(0.4),
        zoo.depolarizing(0.4, d=3),
        zoo.amplitude_damping(0.2),
        zoo.dephasing(0.3),
    ):
        assert c.tp_residual() <= 1e-12


def test_amplitude_damping_degradability_handoff():
    assert deg.is_degradable(zoo.amplitude_damping(0.3))[0]["success"]
    assert deg.is_antidegradable(zoo.amplitude_damping(0.7))[0]["success"]


def test_registry_listing_and_build():
    ids = zoo.zoo_ids()
    assert "horodecki" in ids and "symmetric_pd" in ids and len(ids) == 13
    report, _ = zoo.build_entry("horodecki", alpha=4.0)
    assert report["params"]["alpha"] == 4.0
    assert report["status"] == "OK"
    report, _ = zoo.build_entry("m_ae")
    assert report["status"] == "FLAGGED"
    report, _ = zoo.build_entry("m_ae", repair=True)
    assert report["status"] == "OK"
    with pytest.raises(DomainError):
        zoo.build_entry("nope")
    with pytest.raises(DomainError):
        zoo.build_entry("horodecki", gamma=0.1)


def test_list_entries_covers_registry():
    entries = zoo.list_entries()
    assert [e["id"] for e in entries] == zoo.zoo_ids()
    for e in entries:
        assert e["status"] in ("OK", "FLAGGED")
        assert "validation" in e


def test_entry_dims_come_from_the_kraus_stack():
    for entry_id in zoo.zoo_ids():
        report, c = zoo.build_entry(entry_id)
        assert (c.dim_env, c.dim_out, c.dim_in) == c.kraus.shape, entry_id
        assert report["validation"]["flagged"] == c.flagged, entry_id
        assert report["validation"] == ch.validate(c), entry_id
