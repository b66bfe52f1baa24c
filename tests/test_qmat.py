import numpy as np
import pytest

from pdchannel import qmat
from pdchannel.errors import DimMismatch, NotHermitian, Unsupported


def test_as_matrix_promotes_vectors_and_rejects_nonfinite():
    a = qmat.as_matrix([1.0, 2.0])
    assert a.shape == (2, 1) and a.dtype == np.complex128
    with pytest.raises(DimMismatch):
        qmat.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimMismatch):
        qmat.as_matrix(np.zeros((2, 2, 2)))


def test_check_square_dims():
    with pytest.raises(DimMismatch):
        qmat.check_square(np.zeros((2, 3)))
    with pytest.raises(DimMismatch):
        qmat.check_square(np.eye(4), dims=(2, 3))
    qmat.check_square(np.eye(6), dims=(2, 3))


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = np.kron(a, b)
    assert np.allclose(qmat.partial_trace(rho, (2, 3), keep=[0]), a)
    assert np.allclose(qmat.partial_trace(rho, (2, 3), keep=[1]), b)
    assert np.allclose(qmat.partial_trace(rho, (2, 3), keep=[0, 1]), rho)
    tr = qmat.partial_trace(rho, (2, 3), keep=[])
    assert np.allclose(tr, [[1.0]])


def test_partial_trace_three_factors():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = m @ m.conj().T
    # tracing out factors one at a time agrees with tracing both at once
    step = qmat.partial_trace(m, (2, 2, 2), keep=[0, 1])
    step = qmat.partial_trace(step, (2, 2), keep=[0])
    direct = qmat.partial_trace(m, (2, 2, 2), keep=[0])
    assert np.allclose(step, direct)


def test_partial_transpose_bell_state():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    for which in (0, 1):
        w = np.linalg.eigvalsh(qmat.partial_transpose(rho, (2, 2), which))
        assert w.min() == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(Unsupported):
        qmat.partial_transpose(np.eye(8), (2, 2, 2), 0)
    with pytest.raises(DimMismatch):
        qmat.partial_transpose(rho, (2, 2), 2)


def test_partial_transpose_involution():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    once = qmat.partial_transpose(m, (2, 3), 1)
    twice = qmat.partial_transpose(once, (2, 3), 1)
    assert np.allclose(twice, m)


def test_eigh_sorted_descending_and_rejects_nonhermitian():
    m = np.diag([1.0, 3.0, 2.0]).astype(complex)
    w, v = qmat.eigh(m)
    assert np.allclose(w, [3.0, 2.0, 1.0])
    assert np.allclose(m @ v, v @ np.diag(w))
    with pytest.raises(NotHermitian):
        qmat.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pinv_and_nullspace():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    p = qmat.pinv(m)
    assert np.allclose(m @ p @ m, m)
    assert np.allclose(qmat.pinv(np.zeros((2, 3))), np.zeros((3, 2)))


def test_vec_unvec_roundtrip_column_major():
    m = np.arange(6, dtype=complex).reshape(2, 3)
    v = qmat.vec(m)
    assert np.array_equal(v, m.flatten(order="F"))
    assert np.array_equal(qmat.unvec(v, 2, 3), m)
    assert np.array_equal(qmat.unvec(v, 2), m)
    with pytest.raises(DimMismatch):
        qmat.unvec(v, 4, 4)


def test_herm_residual():
    assert qmat.herm_residual(np.eye(3)) == 0.0
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert qmat.herm_residual(m) == pytest.approx(1.0)
