"""Unconstrained minimization by L-BFGS.

The search direction comes from the two-loop recursion over the last
``MEMORY`` steps (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
Alg. 7.4), and the step length from a line search for the strong Wolfe
conditions (Alg. 3.5, with the zoom of Alg. 3.6 using cubic interpolation).
The stop tests are those of L-BFGS-B: max |g_i| <= ``GTOL``, or a relative
reduction (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ``FTOL``. A line
search that finds no acceptable step in ``MAX_LS`` evaluations ends the run
at the last iterate.

The run itself is one generator, which yields each point it needs
evaluated and is sent back (value, gradient). One driver feeds it:
:func:`minimize_many` advances many runs in lockstep, with one call of the
objective per round on the stack of the points they wait on.
:func:`minimize` is that driver on a single start.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

MEMORY = 10
MAX_ITER = 300
FTOL = 1e-12
GTOL = 1e-10
# sufficient-decrease and curvature constants of the Wolfe conditions
C1 = 1e-4
C2 = 0.9
# function evaluations one line search may spend
MAX_LS = 20
# growth of the trial step while no bracket is found
EXTRAPOLATE = 4.0
_EPS = np.finfo(np.float64).eps

# the stop messages, one per reason; the iteration cap's is built in _lbfgs
_GRADIENT = f"converged: max |gradient| <= {GTOL:g}"
_REDUCTION = f"converged: relative reduction of f <= {FTOL:g}"
_ROUNDING = "converged: predicted reduction of f is below its rounding error"
_LINE_SEARCH = "stopped: no step along the search direction meets the strong Wolfe conditions"


@dataclass
class OptimizeResult:
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    message: str


def minimize(fun, x0) -> OptimizeResult:
    """Minimize ``fun`` from ``x0``; ``fun(x)`` returns (value, gradient).

    A failed line search stops the run at the last iterate.
    """

    def one_row(xs):
        value, grad = fun(xs[0])
        return [value], [grad]

    return minimize_many(one_row, [x0])[0]


def minimize_many(fun, x0s) -> list:
    """Minimize from every start in ``x0s`` in lockstep, one result per
    start in start order. Each round makes one call ``fun(X)`` on the
    (R, n) stack of the points the R unfinished runs wait on, which returns
    (values, gradients) with one row per point. A run whose rows equal what
    ``fun`` gives on its points alone ends as :func:`minimize` ends from its
    start.
    """
    runs = [_lbfgs(x0) for x0 in x0s]
    waiting = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while waiting:
        values, grads = fun(np.stack(list(waiting.values())))
        for i, f, g in zip(list(waiting), values, grads):
            try:
                waiting[i] = runs[i].send((f, g))
            except StopIteration as stop:
                results[i] = stop.value
                del waiting[i]
    return results


def _lbfgs(x0):
    """The L-BFGS run from ``x0`` as a generator: it yields each point to
    evaluate, is sent (value, gradient) there, and returns the
    :class:`OptimizeResult`."""
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        nfev += 1
        value, grad = yield x
        return float(value), np.asarray(grad, dtype=np.float64)

    x = np.array(x0, dtype=np.float64)
    f, g = yield from evaluate(x)
    pairs = deque(maxlen=MEMORY)  # (s, y, 1 / s.y), oldest first
    nit = 0
    message = _GRADIENT if np.max(np.abs(g)) <= GTOL else None
    while message is None:
        if nit >= MAX_ITER:
            message = f"stopped: {MAX_ITER} iterations reached"
            break
        d = _direction(g, pairs)
        # -g.d / 2 is the reduction a unit quasi-Newton step predicts; below
        # the rounding of f, no trial value could show a decrease
        if pairs and -0.5 * (g @ d) <= _EPS * max(abs(f), 1.0):
            message = _ROUNDING
            break
        # the first step of the run is scaled to unit length
        step = 1.0 / np.linalg.norm(d) if nit == 0 else 1.0
        found = yield from _line_search(evaluate, x, f, g, d, step)
        if found is None:
            message = _LINE_SEARCH
            break
        x_new, f_new, g_new = found
        nit += 1
        s, y = x_new - x, g_new - g
        sy = s @ y
        # a strong-Wolfe step has s.y > 0 unless rounding undoes it
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        f_old, x, f, g = f, x_new, f_new, g_new
        if np.max(np.abs(g)) <= GTOL:
            message = _GRADIENT
        elif f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0):
            message = _REDUCTION
    return OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev, message=message)


def _direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g by the two-loop recursion, with H0 = (s.y / y.y) I taken from
    the newest pair."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q = q - a * y
    if pairs:
        s, y, rho = pairs[-1]
        q = q / (rho * (y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q = q + (a - rho * (y @ q)) * s
    return q


def _line_search(evaluate, x, f0, g0, d, step):
    """(x, f, g) at a step along d meeting the strong Wolfe conditions, or
    None when ``MAX_LS`` evaluations find none or d is not a descent
    direction; a generator like the run that delegates to it, with each
    trial point evaluated through ``evaluate``.

    ``lo`` is the lowest trial so far that has sufficient decrease and
    ``hi`` the other end of a bracket around an acceptable step, as
    (step, value, slope) triples; until a bracket is found the trial step
    grows.
    """
    slope0 = g0 @ d
    if not slope0 < 0:
        return None
    lo, hi = (0.0, f0, slope0), None
    for _ in range(MAX_LS):
        if hi is not None:
            step = _cubic_min(lo, hi)
        x_new = x + step * d
        f, g = yield from evaluate(x_new)
        slope = g @ d
        if f > f0 + C1 * step * slope0 or f >= lo[1]:
            hi = (step, f, slope)
            continue
        if abs(slope) <= -C2 * slope0:
            return x_new, f, g
        # a slope rising toward hi (or, before a bracket, along d) puts the
        # acceptable steps between this trial and lo
        if slope * (math.inf if hi is None else hi[0] - lo[0]) >= 0:
            hi = lo
        lo = (step, f, slope)
        if hi is None:
            step *= EXTRAPOLATE
    return None


def _cubic_min(lo, hi) -> float:
    """Minimizer of the cubic that matches value and slope at both ends
    (Nocedal & Wright eq. 3.59), or the midpoint when that minimizer does
    not exist or falls outside the middle 80% of the bracket."""
    (a0, f0, d0), (a1, f1, d1) = lo, hi
    t1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = t1 * t1 - d0 * d1
    if disc >= 0:
        t2 = math.copysign(math.sqrt(disc), a1 - a0)
        denom = d1 - d0 + 2.0 * t2
        if denom != 0:
            a = a1 - (a1 - a0) * (d1 + t2 - t1) / denom
            left, right = min(a0, a1), max(a0, a1)
            margin = 0.1 * (right - left)
            if left + margin <= a <= right - margin:
                return a
    return 0.5 * (a0 + a1)
