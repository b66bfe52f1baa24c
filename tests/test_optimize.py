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


def test_failed_line_search_ends_the_run():
    # the gradient turns to its negative after three evaluations: no later
    # step along the quasi-Newton direction can meet the Wolfe conditions,
    # and the run ends at its last iterate after one line search
    h, points = np.array([1.0, 10.0]), []

    def fun(x):
        points.append(x.copy())
        g = h * x
        return 0.5 * x @ g, (g if len(points) <= 3 else -g)

    res = optimize.minimize(fun, np.array([1.0, 1.0]))
    assert res.message == optimize._LINE_SEARCH
    assert res.nit == 3
    assert res.nfev == len(points) == 4 + optimize.MAX_LS
    assert np.array_equal(res.x, points[3])


def test_lockstep_rows_with_mixed_stops_match_runs_alone(monkeypatch):
    # the first coordinate is a tag with zero gradient, so it never moves,
    # and it picks each row's problem: one block holds runs that end for
    # every reason, after different numbers of rounds and with different
    # numbers of stored steps
    a, b = np.array([[3.0, 1.0], [1.0, 2.0]]), np.array([1.0, -1.0])
    lam, c = 1e8, 1.0 / 3.0
    problems = (
        _rosenbrock,  # started at its minimizer
        lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b),
        lambda x: (0.5 * lam * (x[0] - c) ** 2, np.array([lam * (x[0] - c), 0.0])),
        lambda x: (x @ x, -2 * x),  # a gradient of the wrong sign
        _rosenbrock,  # cut by the iteration cap
    )

    def tagged(xs):
        rows = [problems[int(x[0])](x[1:]) for x in xs]
        return [v for v, _ in rows], [np.concatenate(([0.0], g)) for _, g in rows]

    monkeypatch.setattr(optimize, "MAX_ITER", 6)
    starts = [np.array(x0) for x0 in ([0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                                      [3.0, 1.0, -2.0], [4.0, -1.2, 1.0])]
    together = optimize.minimize_many(tagged, starts)
    assert [r.message for r in together] == [
        optimize._GRADIENT, optimize._GRADIENT, optimize._ROUNDING, optimize._LINE_SEARCH,
        "stopped: 6 iterations reached",
    ]
    assert (together[0].nfev, together[3].nfev) == (1, 1 + optimize.MAX_LS)
    for res, x0 in zip(together, starts):
        alone = optimize.minimize(lambda x: tuple(part[0] for part in tagged([x])), x0)
        assert (res.fun, res.x.tolist(), res.nit, res.nfev, res.message) == (
            alone.fun, alone.x.tolist(), alone.nit, alone.nfev, alone.message)
        assert res.x[0] == x0[0]


def test_trial_step_below_rounding_ends_the_first_line_search():
    # 1e-6 from the minimizer of f = (x - c)^2 / 2 + 1e6, f's decrease is
    # far below its rounding while |g| = 1e-6 exceeds GTOL: the first line
    # search halves its step until a trial predicts a decrease below the
    # rounding of f, and the run stops there instead of after MAX_LS trials
    c = 1.0 / 3.0
    x0 = np.array([c + 1e-6])
    res = optimize.minimize(lambda x: (0.5 * (x[0] - c) ** 2 + 1e6, x - c), x0)
    assert res.message == optimize._ROUNDING
    assert res.nit == 0 and np.array_equal(res.x, x0)
    assert res.nfev < 1 + optimize.MAX_LS


def test_certified_gap_at_a_rejected_trial_keeps_the_lower_iterate():
    # from 0.1 the unit-length first step of f = x^2 overshoots to -0.9, a
    # trial the line search rejects; a gap reported there ends the block,
    # and the run ends at its iterate, which is lower than the trial
    points = []

    def fun(xs):
        points.append(xs.copy())
        gaps = np.full(len(xs), np.nan if len(points) == 1 else 0.0)
        return (xs**2).sum(axis=1), 2 * xs, gaps

    (res,) = optimize.minimize_many(fun, [[0.1]], gap_tol=0.0)
    assert len(points) == 2 and points[1][0, 0] == pytest.approx(-0.9)
    assert np.array_equal(res.x, [0.1]) and res.fun == 0.1**2
    assert res.gap == 0.0 and res.message == "converged: certified gap 0.000e+00 <= 0"
    assert (res.nit, res.nfev) == (0, 2)


@pytest.mark.parametrize("first", [0, 5])
def test_certified_gap_outranks_a_stop_met_in_the_same_round(first):
    # run 1 starts at the minimizer of 0.5 |x|^2 and meets the gradient test
    # in the round in which run 0 certifies its gap; the certified stop ends
    # it all the same, and its message names run 0 counted from first
    def fun(xs):
        return 0.5 * (xs**2).sum(axis=1), xs, np.array([0.0, np.nan])

    runs = optimize.minimize_many(fun, [[0.3, -0.2], [0.0, 0.0]], gap_tol=0.0, first=first)
    assert [(r.message, r.gap) for r in runs] == [
        ("converged: certified gap 0.000e+00 <= 0", 0.0),
        (f"stopped: restart {first} has a certified gap 0.000e+00 <= 0", None),
    ]
    assert runs[0].x.tolist() == [0.3, -0.2] and runs[1].x.tolist() == [0.0, 0.0]
    assert [(r.nit, r.nfev) for r in runs] == [(0, 1), (0, 1)]
    # without a gap, run 1 ends at its gradient test in that first round
    alone = optimize.minimize(lambda x: (0.5 * x @ x, x), np.zeros(2))
    assert (alone.message, alone.nfev) == (optimize._GRADIENT, 1)


@pytest.mark.parametrize(
    "x0, certified, x, fun",
    [
        # from 100 the first trial, 99, decreases f enough but fails the
        # curvature test; it certifies and, lower than the iterate, is kept
        (100.0, lambda xs: xs[:, 0] < 99.5, 99.0, 4900.5),
        # from 0.001 the certified trial, -0.999, lies above the iterate
        (0.001, lambda xs: xs[:, 0] < 0, 0.001, 5e-07),
    ],
)
def test_a_certified_trial_ends_at_the_lower_of_trial_and_iterate(x0, certified, x, fun):
    def f(xs):
        return 0.5 * (xs**2).sum(axis=1), xs, np.where(certified(xs), 0.0, np.nan)

    (res,) = optimize.minimize_many(f, [[x0]], gap_tol=0.0)
    assert res.x.tolist() == [x] and res.fun == fun
    assert (res.nit, res.nfev, res.gap) == (0, 2, 0.0)
    assert res.message == "converged: certified gap 0.000e+00 <= 0"
