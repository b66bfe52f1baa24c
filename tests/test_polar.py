import json
from fractions import Fraction as F

import pytest

from pdchannel import polar
from pdchannel.errors import DomainError


def _ledger(regime="DEGRADABLE_PD", **kw):
    base = dict(
        g_amp=F(1),
        g_phase=F(3, 4),
        p1=F(1, 4),
        p1_prime=F(1, 8),
        p2=F(0),
        p2_prime=F(0),
        b=F(0),
    )
    base.update(kw)
    return polar.PolarLedger(regime=regime, **base)


def test_ledger_rejects_floats_and_unknown_regimes():
    with pytest.raises(DomainError):
        _ledger(p1=0.25)
    with pytest.raises(DomainError):
        _ledger(regime="SOMETHING")


def test_rates_exact():
    led = _ledger()
    assert polar.rate_degradable(led) == F(3, 4)
    assert polar.delta(led) == F(1, 8)
    assert polar.rate_pd_degradable(led) == F(7, 8)
    # the PD gain over the plain degradable rate is exactly delta
    assert polar.rate_pd_degradable(led) - polar.rate_degradable(led) == polar.delta(led)


def test_rate_regime_gating():
    with pytest.raises(DomainError):
        polar.rate_degradable(_ledger(regime="ANTI_DEGRADABLE_PD"))
    with pytest.raises(DomainError):
        polar.rate_pd_degradable(_ledger(regime="DEGRADABLE"))
    with pytest.raises(DomainError):
        polar.rate_pd_antidegradable(_ledger())


def test_anti_degradable_rates():
    led = _ledger(
        regime="ANTI_DEGRADABLE_PD", g_amp=F(7, 8), b=F(1, 8), p1=F(1, 4), p1_prime=F(1, 8)
    )
    rates = polar.rate_pd_antidegradable(led)
    assert rates["gross"] == F(7, 8) - F(1, 8) - F(1, 8)
    assert rates["entanglement_rate"] == F(1, 8)
    assert rates["net"] == rates["gross"] - F(1, 8)


def test_holevo_triples():
    led = _ledger()
    chi = polar.holevo_triples(led)
    assert chi["chi_ab"] == F(1)
    assert chi["chi_ae"] == F(1, 4)
    assert chi["chi_ae_prime"] == F(1, 8)
    anti = _ledger(
        regime="ANTI_DEGRADABLE_PD", g_amp=F(7, 8), b=F(1, 8), p1=F(1, 4), p1_prime=F(1, 8)
    )
    chi = polar.holevo_triples(anti)
    assert chi["chi_ae"] == F(1, 4) + F(1, 8)
    assert chi["chi_ae_prime"] == F(1, 8) + F(1, 8)


def test_validate_partition():
    assert polar.validate_partition(_ledger()) == []
    bad = _ledger(p1_prime=F(1, 2))
    assert any("p1_prime > p1" in v for v in polar.validate_partition(bad))
    bad = _ledger(p2=F(1, 8), p2_prime=F(1, 8))
    assert any("p2 must be 0" in v for v in polar.validate_partition(bad))
    bad = _ledger(b=F(1, 8))
    assert any("b must be 0" in v for v in polar.validate_partition(bad))
    bad = _ledger(g_amp=F(3, 4))
    assert any("cover" in v for v in polar.validate_partition(bad))
    anti = _ledger(
        regime="ANTI_DEGRADABLE_PD", g_amp=F(7, 8), b=F(1, 8), p1=F(1, 4), p1_prime=F(1, 8)
    )
    assert polar.validate_partition(anti) == []
    bad = _ledger(regime="ANTI_DEGRADABLE_PD", g_amp=F(7, 8), b=F(1, 4))
    assert any("cover" in v for v in polar.validate_partition(bad))


def test_ledger_json_roundtrip(tmp_path):
    led = _ledger()
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(polar.ledger_to_dict(led)))
    back = polar.load_ledger(str(path))
    assert back == led
    # a ledger compares unequal to any other type, through NotImplemented
    assert led.__eq__(1) is NotImplemented and (led == 1) is False
    with pytest.raises(DomainError):
        polar.ledger_from_dict({"regime": "DEGRADABLE"})
