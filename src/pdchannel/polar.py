"""Exact-rational bookkeeping of polar codeword-set fractions and the
achievable-rate formulas for degradable, anti-degradable, and partially
degradable regimes. No floating point anywhere in this module.

Each field of :class:`PolarLedger` is the asymptotic fraction of codeword
positions in the corresponding set: good amplitude / phase positions
(g_amp, g_phase), bad-amplitude positions (p1) and the recoverable part of
them (p1_prime), bad-phase positions (p2, p2_prime), and positions covered
by pre-shared entanglement (b).
"""

from __future__ import annotations

import contextlib
import json
from fractions import Fraction

from .errors import DomainError

REGIMES = ("DEGRADABLE", "DEGRADABLE_PD", "ANTI_DEGRADABLE", "ANTI_DEGRADABLE_PD")

_FIELDS = ("g_amp", "g_phase", "p1", "p1_prime", "p2", "p2_prime", "b")


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise DomainError("ledger fractions must be exact rationals, not floats")
    # JSON booleans load as bool, which Fraction would read as 0 or 1
    if isinstance(value, bool):
        raise DomainError(f"ledger fraction {value!r} is a boolean, not a rational")
    # no exponents: Fraction("1e999999999") would build a billion-digit integer
    if isinstance(value, str) and "e" in value.lower():
        raise DomainError(f"ledger fraction {value!r} is not an integer, p/q or exponent-free decimal")
    try:
        frac = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"ledger fraction {value!r} is not a rational: {exc}") from exc
    # a printed sum of four such fields stays under Python's 4,300-digit int -> str limit
    if max(abs(frac.numerator), frac.denominator) >= 10**1000:
        raise DomainError("ledger fraction has a numerator or denominator of more than 1,000 digits")
    return frac


class PolarLedger:
    """The fractions of one regime, each read exactly by :func:`_frac`."""

    __slots__ = _FIELDS + ("regime",)

    def __init__(self, g_amp, g_phase, p1, p1_prime, p2, p2_prime, b, regime):
        if regime not in REGIMES:
            raise DomainError(f"unknown regime {regime!r}")
        self.regime = regime
        for name, value in zip(_FIELDS, (g_amp, g_phase, p1, p1_prime, p2, p2_prime, b)):
            setattr(self, name, _frac(value))

    def __eq__(self, other):
        if not isinstance(other, PolarLedger):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def is_degradable_regime(self) -> bool:
        return self.regime in ("DEGRADABLE", "DEGRADABLE_PD")


def _require(ledger: PolarLedger, *regimes: str) -> None:
    if ledger.regime not in regimes:
        raise DomainError(
            f"operation needs regime in {regimes}, ledger has {ledger.regime}"
        )


def rate_degradable(ledger: PolarLedger) -> Fraction:
    """Base achievable fraction in the degradable regimes: g_amp - p1."""
    _require(ledger, "DEGRADABLE", "DEGRADABLE_PD")
    return ledger.g_amp - ledger.p1


def delta(ledger: PolarLedger) -> Fraction:
    """Rate improvement from partial degradability: the recoverable
    bad-amplitude fraction p1_prime."""
    return ledger.p1_prime


def rate_pd_degradable(ledger: PolarLedger) -> Fraction:
    _require(ledger, "DEGRADABLE_PD")
    return ledger.g_amp - (ledger.p1 - ledger.p1_prime)


def rate_pd_antidegradable(ledger: PolarLedger) -> dict:
    """Anti-degradable PD rate: gross pays for the entanglement-covered
    fraction once in the partition, net pays for consuming it as well."""
    _require(ledger, "ANTI_DEGRADABLE_PD")
    gross = ledger.g_amp - (ledger.p1 - ledger.p1_prime) - ledger.b
    return {
        "gross": gross,
        "entanglement_rate": ledger.b,
        "net": gross - ledger.b,
    }


def holevo_triples(ledger: PolarLedger) -> dict:
    """Classical-information fractions of the logical, environment, and
    degraded-environment sides, consistent with the rate operations."""
    anti = not ledger.is_degradable_regime
    chi_ab = ledger.g_amp + ledger.p2_prime
    chi_ae = ledger.p1 + ledger.p2 + (ledger.b if anti else Fraction(0))
    chi_ae_prime = (ledger.p1 - ledger.p1_prime) + (ledger.b if anti else Fraction(0))
    return {"chi_ab": chi_ab, "chi_ae": chi_ae, "chi_ae_prime": chi_ae_prime}


def validate_partition(ledger: PolarLedger) -> list:
    """Exact-arithmetic consistency checks; returns a list of violations
    (empty when the ledger is consistent)."""
    violations = []
    for name in _FIELDS:
        value = getattr(ledger, name)
        if not 0 <= value <= 1:
            violations.append(f"{name} = {value} outside [0, 1]")
    if ledger.p1_prime > ledger.p1:
        violations.append("p1_prime > p1")
    if ledger.p2_prime > ledger.p2:
        violations.append("p2_prime > p2")
    if ledger.p2 != 0:
        violations.append("p2 must be 0 (phase-bad fraction vanishes asymptotically)")
    if ledger.is_degradable_regime:
        if ledger.b != 0:
            violations.append("b must be 0 in degradable regimes")
        # s_in = g_amp - (p1 - p1_prime) is the input set, so the cover
        # s_in + (p1 - p1_prime) is g_amp
        if ledger.g_amp != 1:
            violations.append(f"degradable cover s_in + (p1 - p1_prime) = {ledger.g_amp} != 1")
    else:
        # s_in = g_amp - (p1 - p1_prime) - b, and the entanglement-covered
        # fraction is counted in both the amplitude and the phase accounting,
        # so the cover s_in + (p1 - p1_prime) + 2 b is g_amp + b
        cover = ledger.g_amp + ledger.b
        if cover != 1:
            violations.append(f"anti-degradable cover = {cover} != 1")
    return violations


def report(ledger: PolarLedger) -> dict:
    """The ``polar`` report: the regime, the fractions, the rates the regime
    has, the Holevo fractions and the :func:`validate_partition` violations,
    every number an exact rational written as a string."""
    rates = {"delta": str(delta(ledger))}
    for rate in (rate_degradable, rate_pd_degradable, rate_pd_antidegradable):
        # each rate refuses, through _require, the regimes that lack it
        with contextlib.suppress(DomainError):
            value = rate(ledger)
            rates[rate.__name__] = (
                {k: str(v) for k, v in value.items()} if isinstance(value, dict) else str(value))
    return {
        "regime": ledger.regime,
        "fractions": ledger_to_dict(ledger)["fractions"],
        "rates": rates,
        "holevo": {k: str(v) for k, v in holevo_triples(ledger).items()},
        "violations": validate_partition(ledger),
    }


# ---------------------------------------------------------------------------
# Ledger JSON: {"regime": str, "fractions": {"g_amp": "4/5", ...}}
# ---------------------------------------------------------------------------


def ledger_to_dict(ledger: PolarLedger) -> dict:
    return {
        "regime": ledger.regime,
        "fractions": {name: str(getattr(ledger, name)) for name in _FIELDS},
    }


def ledger_from_dict(d) -> PolarLedger:
    """Ledger from a record as written by :func:`ledger_to_dict`; a record
    that does not fit that format raises :class:`DomainError`."""
    if not isinstance(d, dict) or not isinstance(d.get("fractions"), dict):
        raise DomainError("malformed ledger record: expected an object with a fractions object")
    try:
        regime = d["regime"]
        fractions = {name: d["fractions"][name] for name in _FIELDS}
    except KeyError as exc:
        raise DomainError(f"malformed ledger record: missing {exc}") from exc
    return PolarLedger(regime=regime, **fractions)


def load_ledger(path: str) -> PolarLedger:
    with open(path) as f:
        return ledger_from_dict(json.load(f))
