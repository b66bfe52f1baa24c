"""Closed-form atlas: each calibration baseline swept across its parameter
range against its known degradability labels and, at a few points, its
quantum capacity.

Labels, with B->E a degrading map and E->B an anti-degrading map:

- amplitude damping: degradable iff gamma <= 1/2, anti-degradable iff
  gamma >= 1/2 (Giovannetti & Fazio, PRA 71, 032314, 2005);
- erasure, any d: degradable iff p <= 1/2, anti-degradable iff p >= 1/2
  (Bennett, DiVincenzo & Smolin, PRL 78, 3217, 1997);
- dephasing: degradable for every p, anti-degradable only at p = 1/2;
- depolarizing (1 - p) rho + p I/d: degradable only at p = 0, where it is
  the identity, and anti-degradable iff p >= d / (2(d + 1)) (Werner,
  PRA 58, 1827, 1998). Every other B->E solve ends ``impossible``, with a
  Farkas witness, for d = 2 and 3 alike.

Every solve ends in the status the closed form gives, ``certified`` or
``impossible``, at points as close as 1e-4 to a threshold: none ends
``not_found``.
"""

import numpy as np
import pytest

from pdchannel import capacity as cap
from pdchannel import degradability as deg
from pdchannel import zoo

GRID = [k / 20 for k in range(21)]
# on both sides of the threshold 1/2 of amplitude damping and erasure
NEAR_HALF = [0.49, 0.4999, 0.5001, 0.51]


def _h(p):
    return 0.0 if p <= 0.0 or p >= 1.0 else float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def _ad_capacity(gamma):
    """max_t h((1 - gamma) t) - h(gamma t) by ternary search; the objective
    is concave in t for gamma <= 1/2."""
    lo, hi = 0.0, 1.0
    f = lambda t: _h((1 - gamma) * t) - _h(gamma * t)
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (a, hi) if f(a) < f(b) else (lo, b)
    return f((lo + hi) / 2)


def _depolarizing(d):
    threshold = d / (2 * (d + 1))
    return (
        lambda p: zoo.depolarizing(p, d),
        sorted(GRID + [1 / 3, 3 / 8] + ([0.33] if d == 2 else [])),
        {"B->E": lambda p: p == 0, "E->B": lambda p: p >= threshold},
        [],
    )


# family: (build, parameters, {direction: label}, [(parameter, Q)])
FAMILIES = {
    "amplitude_damping": (
        zoo.amplitude_damping,
        sorted(GRID + NEAR_HALF),
        {"B->E": lambda g: g <= 0.5, "E->B": lambda g: g >= 0.5},
        [(0.2, _ad_capacity(0.2)), (0.7, 0.0)],
    ),
    **{
        f"erasure_d{d}": (
            lambda p, d=d: zoo.erasure(p, d),
            sorted(GRID + NEAR_HALF),
            {"B->E": lambda p: p <= 0.5, "E->B": lambda p: p >= 0.5},
            [(0.25, 0.5 * np.log2(d))] + ([(0.6, 0.0)] if d == 2 else []),
        )
        for d in (2, 3)
    },
    "dephasing": (
        zoo.dephasing,
        GRID[:11],
        {"B->E": lambda p: True, "E->B": lambda p: p == 0.5},
        [(0.1, 1 - _h(0.1)), (0.3, 1 - _h(0.3))],
    ),
    "depolarizing_d2": _depolarizing(2),
    "depolarizing_d3": _depolarizing(3),
}

_SOLVES = {"B->E": deg.is_degradable, "E->B": deg.is_antidegradable}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_baseline_matches_its_closed_form(family):
    build, params, labels, capacities = FAMILIES[family]
    for p in params:
        ch = build(p)
        for direction, label in labels.items():
            want = "certified" if label(p) else "impossible"
            got = _SOLVES[direction](ch)[0]["status"]
            assert got == want, f"{family}({p}) {direction}: {got}, closed form says {want}"
    for p, q in capacities:
        got = cap.maximize_coherent_information(build(p))["value"]
        assert got == pytest.approx(q, abs=1e-6), f"{family}({p})"
