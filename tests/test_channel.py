import json

import numpy as np
import pytest

from pdchannel import channel as ch
from pdchannel import qmat, zoo
from pdchannel.errors import DimMismatch, DomainError, NotTracePreserving, SizeLimit


def _ad(gamma=0.3):
    return zoo.amplitude_damping(gamma)


def test_kraus_channel_shape_checks():
    with pytest.raises(DimMismatch):
        ch.KrausChannel([np.eye(2), np.eye(3)])
    for empty in ([], np.zeros((1, 1, 0)), np.zeros((1, 0, 1))):
        with pytest.raises(DimMismatch):
            ch.KrausChannel(empty)


def test_validate_and_apply():
    c = _ad(0.3)
    rep = c.tp_residual()
    assert rep <= 1e-14
    v = ch.validate(c)
    assert v["tp_residual"] <= 1e-14 and v["cp_ok"] and not v["flagged"]
    assert v["choi_min_eig"] >= -1e-12
    rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    out = ch.apply(c, rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    # excited population damps by 1 - gamma
    assert out[1, 1].real == pytest.approx(0.75 * 0.7, abs=1e-12)
    with pytest.raises(DimMismatch):
        ch.apply(c, np.eye(3) / 3)
    with pytest.raises(DimMismatch):
        ch.apply(c, np.zeros((2, 3, 3)))
    with pytest.raises(DimMismatch):
        ch.apply(c, np.zeros((2, 4, 3)))


def test_stinespring_reproduces_action_and_complementary():
    c = _ad(0.4)
    v = ch.stinespring(c)
    assert v.shape == (c.dim_out * c.dim_env, c.dim_in)
    assert np.allclose(v.conj().T @ v, np.eye(2))
    rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]], dtype=complex)
    big = v @ rho @ v.conj().T
    out = qmat.partial_trace(big, (c.dim_out, c.dim_env), keep=[0])
    env = qmat.partial_trace(big, (c.dim_out, c.dim_env), keep=[1])
    assert np.allclose(out, ch.apply(c, rho))
    assert np.allclose(env, ch.apply(ch.complementary(c), rho))


def test_stinespring_rejects_non_tp():
    bad = ch.KrausChannel([0.5 * np.eye(2)])
    assert bad.flagged
    with pytest.raises(NotTracePreserving):
        ch.stinespring(bad)
    with pytest.raises(NotTracePreserving):
        ch.complementary(bad)
    # the Choi matrix is built without a TP check: 0.5 I gives trace 0.25
    assert np.trace(ch.to_choi(bad)).real == pytest.approx(0.25, abs=1e-15)


def test_complementary_is_tp_and_involution_in_action():
    c = _ad(0.25)
    comp = ch.complementary(c)
    assert comp.tp_residual() <= 1e-12
    # complement of the complement acts like the original channel
    back = ch.complementary(comp)
    for rho in (np.eye(2) / 2, np.diag([1.0, 0.0]).astype(complex)):
        assert np.allclose(ch.apply(back, rho), ch.apply(c, rho), atol=1e-10)


def test_choi_normalization_and_rank():
    c = _ad(0.3)
    choi = ch.to_choi(c)
    assert np.trace(choi).real == pytest.approx(1.0, abs=1e-12)
    # TP: tracing out the output factor leaves the maximally mixed input
    marg = qmat.partial_trace(choi, (2, 2), keep=[0])
    assert np.allclose(marg, np.eye(2) / 2)
    assert qmat.numerical_rank(qmat.eigh(choi)[0]) == 2
    assert qmat.numerical_rank(qmat.eigh(ch.to_choi(ch.identity_channel(3)))[0]) == 1
    assert qmat.numerical_rank(np.zeros(4)) == 0
    # the largest entry sets the cutoff, so the order of the spectrum does not
    # matter, and singular values give the rank of the same matrix
    w = qmat.eigvalsh(choi)
    shuffled = np.random.default_rng(0).permutation(w)
    s = np.linalg.svd(choi, compute_uv=False)
    assert {qmat.numerical_rank(x) for x in (w, w[::-1], shuffled, s)} == {2}


def test_kraus_from_choi_roundtrip():
    c = zoo.depolarizing(0.37)
    choi = ch.to_choi(c)
    ops = ch.kraus_from_choi(choi * c.dim_in, c.dim_in, c.dim_out)
    rebuilt = ch.KrausChannel(ops)
    assert rebuilt.tp_residual() <= 1e-10
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], dtype=complex)
    assert np.allclose(ch.apply(rebuilt, rho), ch.apply(c, rho), atol=1e-10)
    # a zero Choi matrix has rank 0: one zero operator keeps the stack's shape
    zero = ch.kraus_from_choi(np.zeros((4, 4)), 2, 2)
    assert zero.shape == (1, 2, 2) and not zero.any()


def test_compose_order():
    # prepare |0> then flip: distinguishable from flip-then-prepare
    prep = ch.KrausChannel(
        [np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)]
    )
    flip = ch.KrausChannel([np.array([[0, 1], [1, 0]], dtype=complex)])
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = ch.apply(ch.compose(prep, flip), rho)
    assert np.allclose(out, np.diag([0.0, 1.0]))
    with pytest.raises(DimMismatch):
        ch.compose(zoo.erasure(0.5), flip)


def test_tensor_action_and_cap(monkeypatch):
    a, b = _ad(0.2), zoo.dephasing(0.3)
    t = ch.tensor(a, b)
    ra = np.diag([0.3, 0.7]).astype(complex)
    rb = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    assert np.allclose(
        ch.apply(t, np.kron(ra, rb)), np.kron(ch.apply(a, ra), ch.apply(b, rb))
    )
    monkeypatch.setenv("QPD_MAX_DIM", "3")
    with pytest.raises(SizeLimit):
        ch.tensor(a, b)


def test_compose_and_tensor_prune_by_the_relative_rank_rule():
    # an operator is dropped for being small beside the largest, as
    # qmat.numerical_rank counts: a channel scaled by 1e-7 has the product
    # 1e-14 I, not the zero map, while 1e-11 I beside I goes
    tiny = ch.KrausChannel([[[1e-7]]])
    for product in (ch.tensor(tiny, tiny), ch.compose(tiny, tiny)):
        np.testing.assert_allclose(product.kraus, [[[1e-14]]], rtol=1e-12, atol=0)
    mixed = ch.KrausChannel([np.eye(2), 1e-11 * np.eye(2)])
    for product in (ch.tensor(mixed, ch.identity_channel(1)), ch.compose(mixed, ch.identity_channel(2))):
        np.testing.assert_array_equal(product.kraus, [np.eye(2)])
    zero = ch.KrausChannel(np.zeros((2, 2, 2)))
    np.testing.assert_array_equal(ch.tensor(zero, zero).kraus, np.zeros((1, 4, 4)))


def test_flagged_direct_sum_is_tp_and_block_structured():
    # the flag direct sum around the isometric 4->6 embedding eye(6, 4)
    c = zoo.nab_ae_channel(0.75)
    assert c.dim_in == 4 and c.dim_out == 12
    assert c.tp_residual() <= 1e-12
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    out = ch.apply(c, rho)
    blocks = out.reshape(2, 6, 2, 6)
    assert np.trace(blocks[0, :, 0, :]).real == pytest.approx(0.75, abs=1e-12)
    assert np.trace(blocks[1, :, 1, :]).real == pytest.approx(0.25, abs=1e-12)
    # x-branch replaces the input with the maximally mixed block state
    assert np.allclose(blocks[0, :, 0, :], 0.75 * np.eye(6) / 6)
    assert np.allclose(blocks[0, :, 1, :], 0.0)
    # the embedding branch carries the input unchanged into flag 1
    assert np.allclose(blocks[1, :, 1, :], 0.25 * np.eye(6, 4) @ rho @ np.eye(4, 6))
    with pytest.raises(DomainError):
        zoo.nab_ae_channel(1.5)


def test_json_roundtrip(tmp_path):
    c = _ad(0.3)
    path = tmp_path / "ad.json"
    ch.save_channel(c, str(path))
    loaded = ch.load_channel(str(path))
    assert loaded.name == c.name
    assert (loaded.dim_in, loaded.dim_out) == (2, 2)
    for a, b in zip(loaded.kraus, c.kraus):
        assert np.array_equal(a, b)
    assert not loaded.flagged


def test_load_flags_non_tp_sets(tmp_path):
    record = {
        "name": "broken",
        "dim_in": 2,
        "dim_out": 2,
        "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(record))
    loaded = ch.load_channel(str(path))
    assert loaded.flagged


def test_malformed_records_rejected():
    with pytest.raises(DimMismatch):
        ch.channel_from_dict({"dim_in": 2})
    with pytest.raises(DimMismatch):
        ch.channel_from_dict(
            {"name": "x", "dim_in": 2, "dim_out": 2, "kraus": [[[0.0, 1.0]]]}
        )
