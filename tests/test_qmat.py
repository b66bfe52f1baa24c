import numpy as np
import pytest

from pdchannel import qmat
from pdchannel.errors import DimMismatch, NotHermitian


def test_as_matrix_takes_only_finite_2d_arrays():
    a = qmat.as_matrix([[1.0], [2.0]])
    assert a.shape == (2, 1) and a.dtype == np.complex128
    with pytest.raises(DimMismatch, match="expected a 2-D array"):
        qmat.as_matrix([1.0, 2.0])
    with pytest.raises(DimMismatch):
        qmat.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimMismatch):
        qmat.as_matrix(np.zeros((2, 2, 2)))


def test_check_square_dims():
    with pytest.raises(DimMismatch):
        qmat.check_square(np.zeros((2, 3)))
    with pytest.raises(DimMismatch):
        qmat.check_factors(np.eye(4), (2, 3))
    qmat.check_factors(np.eye(6), (2, 3))


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
    with pytest.raises(DimMismatch, match=r"keep indices \[2\] out of range for 2 factors"):
        qmat.partial_trace(np.eye(4) / 4, (2, 2), [2])
    with pytest.raises(DimMismatch, match=r"keep indices must be a sequence of integers, got \[0\.9\]"):
        qmat.partial_trace(np.diag([0.7, 0.1, 0.1, 0.1]), (2, 2), keep=[0.9])
    # a bool is no tensor factor and no index, though operator.index takes it
    for dims, keep in (((True, 4), [1]), ((2, 2), [True])):
        with pytest.raises(DimMismatch, match="must be a sequence of integers"):
            qmat.partial_trace(np.eye(4) / 4, dims, keep)
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
    ta = qmat.partial_transpose(rho, (2, 2))
    # the transpose on the second factor is the transpose of ta
    for pt in (ta, ta.T):
        w = np.linalg.eigvalsh(pt)
        assert w.min() == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(DimMismatch, match="have 3 factors, expected 2"):
        qmat.partial_transpose(np.eye(8), (2, 2, 2))


def test_partial_transpose_involution():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    once = qmat.partial_transpose(m, (2, 3))
    twice = qmat.partial_transpose(once, (2, 3))
    assert np.allclose(twice, m)
    # the second-factor transpose, taken as the transpose of the first's
    tb = m.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1).reshape(6, 6)
    assert np.array_equal(once.T, tb)


def test_eigh_ascending_on_the_hermitian_part():
    m = np.diag([1.0, 3.0, 2.0]).astype(complex)
    w, v = qmat.eigh(m)
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose(m @ v, v @ np.diag(w))
    assert np.array_equal(qmat.eigvalsh(m), w)
    # a non-Hermitian matrix gives the eigensystem of its Hermitian part,
    # unchecked: only check_hermitian raises
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    w, v = qmat.eigh(n)
    assert np.allclose(w, [-0.5, 0.5])
    assert np.allclose(((n + n.T) / 2) @ v, v @ np.diag(w))
    with pytest.raises(NotHermitian):
        qmat.check_hermitian(n)
    # a stack is solved matrix by matrix
    stack = np.stack([n, np.diag([2.0, 1.0])])
    assert np.allclose(qmat.eigvalsh(stack), [[-0.5, 0.5], [1.0, 2.0]])
    assert np.allclose(qmat.eigh(stack)[0], qmat.eigvalsh(stack))
    # entries past half the largest float: the halves are summed, so m + m^dagger
    # never forms, and nothing overflows or warns
    huge = 1e308 * np.array([[1.0, 1.0], [1.0, -1.0]])
    w, v = qmat.eigh(huge)
    assert np.allclose(w, [-np.sqrt(2) * 1e308, np.sqrt(2) * 1e308], rtol=1e-12, atol=0)
    assert np.allclose(huge / 1e308 @ v, v @ np.diag(w / 1e308))
    assert np.array_equal(qmat.eigvalsh(huge), w)


def test_pinv_and_nullspace():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    p = qmat.pinv(m)
    assert np.allclose(m @ p @ m, m)
    assert np.allclose(qmat.pinv(np.zeros((2, 3))), np.zeros((3, 2)))


def test_as_pairs_keeps_the_layout():
    m = np.array([[1 + 2j, -0.0], [3j, 4]])
    assert qmat.as_pairs(m) == [[[1.0, 2.0], [-0.0, 0.0]], [[0.0, 3.0], [4.0, 0.0]]]
    assert qmat.as_pairs(m[0]) == [[1.0, 2.0], [-0.0, 0.0]]
    back = np.array(qmat.as_pairs(m))
    assert np.array_equal(back[..., 0] + 1j * back[..., 1], m)


def test_check_hermitian():
    assert np.array_equal(qmat.check_hermitian(np.eye(3)), np.eye(3))
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian, match=r"residual 1\.000e\+00 > 1e-10"):
        qmat.check_hermitian(m)
    # a residual below TOL.herm_tol is rounding, and passes
    assert np.array_equal(qmat.check_hermitian(1e-11 * m), 1e-11 * m)
    assert qmat.check_hermitian(np.zeros((0, 0))).shape == (0, 0)
