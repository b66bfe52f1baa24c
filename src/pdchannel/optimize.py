"""Unconstrained minimization by L-BFGS, many runs in lockstep.

The search direction comes from the two-loop recursion over the last
``MEMORY`` steps (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
Alg. 7.4), and the step length from a line search for the strong Wolfe
conditions (Alg. 3.5, with the zoom of Alg. 3.6 using cubic interpolation).
The stop tests are those of L-BFGS-B: max |g_i| <= ``GTOL``, or a relative
reduction (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ``FTOL``. A run also
stops when the next trial step predicts a decrease below the rounding of f,
and a line search that finds no acceptable step in ``MAX_LS`` evaluations
ends the run at the last iterate. An objective that also bounds each
point's distance to the minimum ends a whole block at the first point whose
bound is small enough (see :func:`minimize_many`).

:func:`minimize_many` advances R runs together on one array state: the
iterates, values and gradients as (R, n), (R,) and (R, n) arrays; the
``MEMORY`` newest steps (s, y, 1 / s.y) as zero-padded (R, ``MEMORY``, n)
stacks, newest last, so that an empty slot adds exact zeros; and each
run's line-search bracket, trial step and trial count as (R,) arrays. A
round evaluates the trial points of the unfinished runs in one call of the
objective and updates them with a fixed sequence of numpy calls, each of
which works row by row, so a run takes the same steps alone or in a block.
:func:`minimize` is that driver on a single start.
"""

from __future__ import annotations

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

# the stop messages, one per reason; the iteration cap's is built in
# minimize_many, which reads MAX_ITER when it starts
_GRADIENT = f"converged: max |gradient| <= {GTOL:g}"
_REDUCTION = f"converged: relative reduction of f <= {FTOL:g}"
_ROUNDING = "converged: predicted reduction of f is below its rounding error"
_LINE_SEARCH = "stopped: no step along the search direction meets the strong Wolfe conditions"


class OptimizeResult:
    """The end of one run: its last iterate ``x`` and value ``fun``, its
    iteration and evaluation counts ``nit`` and ``nfev``, its stop
    ``message``, and ``gap``, the bound on fun - min f that ended the block,
    for the run whose point certified it, else None."""

    __slots__ = ("x", "fun", "nit", "nfev", "message", "gap")

    def __init__(self, x, fun, nit, nfev, message, gap=None):
        self.x, self.fun, self.nit, self.nfev, self.message, self.gap = x, fun, nit, nfev, message, gap


def minimize(fun, x0) -> OptimizeResult:
    """Minimize ``fun`` from ``x0``; ``fun(x)`` returns (value, gradient).

    A failed line search stops the run at the last iterate.
    """

    def one_row(xs):
        value, grad = fun(xs[0])
        return [value], [grad]

    return minimize_many(one_row, [x0])[0]


def minimize_many(fun, x0s, gap_tol=None, first=0) -> list:
    """Minimize from every start in ``x0s`` in lockstep, one result per
    start in start order. Each round makes one call ``fun(X)`` on the
    (R, n) stack of the points the R unfinished runs wait on, which returns
    (values, gradients) with one row per point. A run whose rows equal what
    ``fun`` gives on its points alone ends as :func:`minimize` ends from its
    start.

    With ``gap_tol``, ``fun`` also returns a third row array: a certified
    upper bound on f(x) - inf f for each point, NaN where it has none. The
    block then ends in the first round in which some point's bound is at
    most ``gap_tol``. The first such run in start order ends with that
    bound as ``gap``, at that point or at its current iterate, whichever is
    lower; every other unfinished run keeps its current iterate, and its
    message names the certifying run, numbering the starts from ``first``.
    Without such a round the runs end as they do without ``gap_tol``. Every
    stop, these two included, is a row of one message table; a round's first
    mark on a run stands, and every run ends through one result path.
    """
    capped = f"stopped: {MAX_ITER} iterations reached"
    messages = [None, _GRADIENT, _REDUCTION, _ROUNDING, _LINE_SEARCH, capped]
    x = np.array(x0s, dtype=np.float64)
    runs, n = x.shape
    results = [None] * runs
    order = np.arange(runs)  # each unfinished run's place among the starts
    xt = x  # the point each run waits on: its start, then its trial steps
    f, g = np.zeros(runs), np.zeros((runs, n))
    # the MEMORY newest (s, y, 1 / s.y), newest last; an empty slot holds zeros
    s_mem, y_mem, rho = np.zeros((runs, MEMORY, n)), np.zeros((runs, MEMORY, n)), np.zeros((runs, MEMORY))
    d, slope0, step = np.zeros((runs, n)), np.zeros(runs), np.zeros(runs)
    # the line-search bracket: lo is the lowest trial so far with sufficient
    # decrease, hi the other end once a bracket exists, as (step, f, slope)
    lo, hi, bracketed = np.zeros((runs, 3)), np.zeros((runs, 3)), np.zeros(runs, dtype=bool)
    trials, nit, nfev = np.zeros(runs, dtype=int), np.zeros(runs, dtype=int), np.zeros(runs, dtype=int)
    c = gap = None  # the run whose point certifies its gap, and that gap

    def end(rows, message):
        """End the runs among ``rows`` that this round has not ended yet."""
        stop[rows & (stop == 0)] = messages.index(message)

    while order.size:
        evaluated = fun(xt)
        ft, gt = (np.asarray(a, dtype=np.float64) for a in evaluated[:2])
        begun = nfev > 0
        nfev += 1
        trials += 1
        slope = _dot(gt, d)
        high = begun & ((ft > f + C1 * step * slope0) | (ft >= lo[:, 1]))
        accept = begun & ~high & (np.abs(slope) <= -C2 * slope0)
        low = begun & ~high & ~accept
        # a slope rising toward hi (or, before a bracket, along d) puts the
        # acceptable steps between this trial and lo
        flip = low & np.where(bracketed, slope * (hi[:, 0] - lo[:, 0]) >= 0, slope > 0)
        trial = np.stack([step, ft, slope], axis=1)
        hi = np.where(high[:, None], trial, np.where(flip[:, None], lo, hi))
        lo = np.where(low[:, None], trial, lo)
        bracketed |= high | flip

        s, y = xt - x, gt - g
        sy = _dot(s, y)
        # a strong-Wolfe step has s.y > 0 unless rounding undoes it
        push = accept & (sy > 0)
        for memory, newest in ((s_mem, s[push]), (y_mem, y[push]), (rho, 1.0 / sy[push])):
            memory[push, :-1] = memory[push, 1:]
            memory[push, -1] = newest
        nit += accept
        new = ~begun | accept
        f_old = f
        x, f, g = np.where(new[:, None], xt, x), np.where(new, ft, f), np.where(new[:, None], gt, g)
        stop = np.zeros(order.size, dtype=int)  # an index into messages, 0 while running
        hit = [] if gap_tol is None else np.flatnonzero(np.asarray(evaluated[2], dtype=np.float64) <= gap_tol)
        if len(hit):
            # the first certified point ends every unfinished run, ahead of
            # this round's other stops; a trial the line search rejected is
            # kept only if no worse than the iterate; either way f[c] - min f <= gap
            c, gap = hit[0], float(evaluated[2][hit[0]])
            if ft[c] < f[c]:
                x[c], f[c] = xt[c], ft[c]
            messages += [f"converged: certified gap {gap:.3e} <= {gap_tol:g}",
                         f"stopped: restart {first + order[c]} has a certified gap {gap:.3e} <= {gap_tol:g}"]
            end(np.arange(order.size) == c, messages[-2])
            end(stop == 0, messages[-1])
        end(~new & (trials >= MAX_LS), _LINE_SEARCH)
        end(new & (np.max(np.abs(g), axis=1) <= GTOL), _GRADIENT)
        scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f)), 1.0)
        end(accept & (f_old - f <= FTOL * scale), _REDUCTION)
        end(new & (nit >= MAX_ITER), capped)

        # runs at a new iterate start a line search along -H g
        begin = new & (stop == 0)
        k = np.flatnonzero(begin)
        d[k] = _direction(g[k], s_mem[k], y_mem[k], rho[k])
        slope0[k] = _dot(g[k], d[k])
        # -g.d / 2 is the reduction a unit quasi-Newton step predicts; below
        # the rounding of f, no trial value could show a decrease
        end(begin & (-0.5 * slope0 <= _EPS * np.maximum(np.abs(f), 1.0)), _ROUNDING)
        end(begin & ~(slope0 < 0), _LINE_SEARCH)
        # the first step of a run is scaled to unit length
        step[k] = np.where(nit[k] == 0, 1.0 / np.sqrt(_dot(d[k], d[k])), 1.0)
        lo[k] = np.stack([np.zeros(k.size), f[k], slope0[k]], axis=1)
        bracketed[k] = False
        trials[k] = 0
        # the others go on with theirs: inside the bracket, or further out
        going = ~new & (stop == 0)
        b = np.flatnonzero(going & bracketed)
        step[b] = _cubic_min(lo[b], hi[b])
        step[going & ~bracketed] *= EXTRAPOLATE
        # a trial step whose predicted decrease is below the rounding of f
        # cannot show one
        end(-step * slope0 <= _EPS * np.maximum(np.abs(f), 1.0), _ROUNDING)

        for i in np.flatnonzero(stop):
            results[order[i]] = OptimizeResult(x[i].copy(), float(f[i]), int(nit[i]), int(nfev[i]),
                                               messages[stop[i]], gap if i == c else None)
        if stop.any():
            keep = stop == 0
            (order, x, f, g, s_mem, y_mem, rho, d, slope0, step, lo, hi, bracketed, trials, nit, nfev) = (
                a[keep] for a in (order, x, f, g, s_mem, y_mem, rho, d, slope0, step, lo, hi,
                                  bracketed, trials, nit, nfev))
        xt = x + step[:, None] * d
    return results


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``, each
    one BLAS dot, as ``a[i] @ b[i]`` gives it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _direction(g: np.ndarray, s_mem: np.ndarray, y_mem: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """-H g for each row by the two-loop recursion over its stored steps,
    with H0 = (s.y / y.y) I taken from the newest, or I without one. The
    loops skip the slots that are empty in every row; a slot empty in some
    rows only adds exact zeros to them."""
    q = -g
    slots = range(MEMORY - int(np.count_nonzero(rho, axis=1).max(initial=0)), MEMORY)
    alphas = {}
    for j in reversed(slots):
        alphas[j] = rho[:, j] * _dot(s_mem[:, j], q)
        q = q - alphas[j][:, None] * y_mem[:, j]
    newest = rho[:, -1]
    q = q / np.where(newest > 0, newest * _dot(y_mem[:, -1], y_mem[:, -1]), 1.0)[:, None]
    for j in slots:
        q = q + (alphas[j] - rho[:, j] * _dot(y_mem[:, j], q))[:, None] * s_mem[:, j]
    return q


def _cubic_min(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For each row of the (R, 3) bracket ends ``lo`` and ``hi``, as (step,
    f, slope): the minimizer of the cubic that matches value and slope at
    both ends (Nocedal & Wright eq. 3.59), or the midpoint when that
    minimizer does not exist or falls outside the middle 80% of the
    bracket."""
    (a0, f0, d0), (a1, f1, d1) = lo.T, hi.T
    t1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = t1 * t1 - d0 * d1
    t2 = np.copysign(np.sqrt(np.maximum(disc, 0.0)), a1 - a0)
    denom = d1 - d0 + 2.0 * t2
    a = a1 - (a1 - a0) * (d1 + t2 - t1) / np.where(denom != 0, denom, 1.0)
    margin = 0.1 * np.abs(a1 - a0)
    left, right = np.minimum(a0, a1) + margin, np.maximum(a0, a1) - margin
    inside = (disc >= 0) & (denom != 0) & (left <= a) & (a <= right)
    return np.where(inside, a, 0.5 * (a0 + a1))
