import numpy as np
import pytest

from pdchannel import optimize


def _rosenbrock(x):
    a, b = x
    value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    return value, grad


def test_convex_quadratic_reaches_exact_minimizer():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    res = optimize.minimize(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), np.zeros(2))
    assert np.max(np.abs(res.x - np.linalg.solve(a, b))) <= 1e-10
    assert res.message == optimize._GRADIENT
    assert res.fun == pytest.approx(-0.7, abs=1e-15)
    assert res.nfev >= res.nit + 1


def test_rosenbrock_from_standard_start():
    res = optimize.minimize(_rosenbrock, np.array([-1.2, 1.0]))
    assert np.max(np.abs(res.x - 1.0)) <= 1e-6
    assert res.message.startswith("converged:")
    assert res.nit < optimize.MAX_ITER


def test_iteration_cap_stops_with_its_message(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITER", 5)
    res = optimize.minimize(_rosenbrock, np.array([-1.2, 1.0]))
    assert res.nit == 5
    assert res.message == "stopped: 5 iterations reached"


def test_stiff_quadratic_stops_at_rounding():
    # the minimizer 1/3 is not a double: after one step |g| ~ 1e-8 exceeds
    # GTOL, but the next step predicts a reduction far below f's rounding
    lam, c = 1e8, 1.0 / 3.0
    res = optimize.minimize(lambda x: (0.5 * lam * (x[0] - c) ** 2, lam * (x - c)), [0.0])
    assert res.message == optimize._ROUNDING
    assert abs(res.x[0] - c) <= 1e-15
    assert res.nit == 1


def test_wrong_gradient_ends_in_line_search_failure():
    # a gradient of the wrong sign makes every trial step go uphill
    res = optimize.minimize(lambda x: (x @ x, -2 * x), np.array([1.0, -2.0]))
    assert res.message == optimize._LINE_SEARCH
    assert res.nit == 0
    assert np.array_equal(res.x, [1.0, -2.0])
    assert res.nfev == 1 + optimize.MAX_LS
