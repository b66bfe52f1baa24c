"""Tests of the benchmark's independent checks: each checker accepts a right
report and rejects a deliberately wrong one. The reports are built here in
numpy, without the program. Run with ``python3 -m pytest bench``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer
import workloads
from checks import CheckError

AD = {"model": "amplitude_damping", "params": {"gamma": 0.2}}


def record(kraus, name="channel"):
    k = np.asarray(kraus)
    return {
        "name": name,
        "dim_in": k.shape[2],
        "dim_out": k.shape[1],
        "kraus": np.stack([k.real, k.imag], axis=-1).tolist(),
    }


def solution(success):
    cp = 1e-12 if success else -0.08
    return {"success": success, "residual": 1e-15, "cp_min_eig": cp, "tp_residual": 1e-15}


def classify_report(label, b_to_e, e_to_b):
    sols = {"B->E": b_to_e, "B->E'": b_to_e, "E->B": e_to_b, "E'->B": e_to_b}
    return {"label": label, "solutions": {k: solution(v) for k, v in sols.items()}}


def symmetric_kraus():
    v = np.zeros((64, 4))
    for i in range(4):
        a, b = 2 * i, 2 * i + 1
        v[a * 8 + b, i] = v[b * 8 + a, i] = 1 / np.sqrt(2)
    t = v.reshape(8, 8, 4)
    return np.stack([t[:, k, :] for k in range(8)]).astype(np.complex128)


# --- classify ---------------------------------------------------------------


def test_classify_accepts_closed_form_label():
    kraus = checks.model_kraus(AD["model"], AD["params"])
    checks.check_classify(classify_report("DEGRADABLE", True, False), 0, kraus, AD, None)


def test_classify_rejects_flipped_label():
    kraus = checks.model_kraus(AD["model"], AD["params"])
    with pytest.raises(CheckError, match="does not follow"):
        checks.check_classify(classify_report("ANTI_DEGRADABLE", True, False), 0, kraus, AD, None)
    # flags and label flipped together still disagree with the closed form
    with pytest.raises(CheckError, match="closed form"):
        checks.check_classify(classify_report("ANTI_DEGRADABLE", False, True), 0, kraus, AD, None)


def test_classify_rejects_a_different_channel():
    kraus = checks.model_kraus("amplitude_damping", {"gamma": 0.3})
    with pytest.raises(CheckError, match="not amplitude_damping"):
        checks.check_classify(classify_report("DEGRADABLE", True, False), 0, kraus, AD, None)


def test_classify_rejects_success_without_certificate():
    report = classify_report("UNDETERMINED", False, False)
    report["solutions"]["E->B"]["success"] = True
    with pytest.raises(CheckError, match="certificate"):
        checks.check_classify(report, 3, symmetric_kraus(), {}, None)


def test_classify_rejects_wrong_exit_code():
    with pytest.raises(CheckError, match="exit code"):
        checks.check_classify(classify_report("UNDETERMINED", False, False), 0, symmetric_kraus(), {}, None)


def test_classify_symmetric_outputs():
    rng = np.random.default_rng(0)
    report = classify_report("SYMMETRIC_PD", True, True)
    checks.check_classify(report, 0, symmetric_kraus(), {"symmetric": True}, rng)
    skewed = symmetric_kraus()
    skewed[0] *= 0.0
    skewed[1] *= np.sqrt(2.0)
    with pytest.raises(CheckError, match="differ"):
        checks.check_classify(report, 0, skewed, {"symmetric": True}, rng)


# --- capacity ---------------------------------------------------------------


def test_closed_forms():
    assert checks.closed_form_capacity("amplitude_damping", {"gamma": 0.2})[0] == pytest.approx(0.5062152409, abs=1e-10)
    assert checks.closed_form_capacity("amplitude_damping", {"gamma": 0.3})[0] == pytest.approx(0.3279547619, abs=1e-10)
    assert checks.closed_form_capacity("dephasing", {"p": 0.3})[0] == pytest.approx(1 - float(checks.h2(0.3)))


def capacity_report(case):
    kraus = checks.model_kraus(case["model"], case["params"])
    _, rho = checks.closed_form_capacity(case["model"], case["params"])
    value = checks.coherent_information(kraus, rho)
    report = {
        "value": value,
        "per_restart_values": [value - 0.1, value],
        "argmax_state": np.stack([rho.real, rho.imag], axis=-1).tolist(),
        "additivity": {"single": value, "joint": 2 * value - 1e-4, "gap": -1e-4},
    }
    return report, kraus


@pytest.mark.parametrize("case", [AD, {"model": "dephasing", "params": {"p": 0.3}}])
def test_capacity_accepts_closed_form(case):
    report, kraus = capacity_report(case)
    checks.check_capacity(report, 0, kraus, case)


@pytest.mark.parametrize("key", ["value", "single"])
def test_capacity_rejects_value_off_by_1e_3(key):
    report, kraus = capacity_report(AD)
    if key == "value":
        report["value"] += 1e-3
        report["per_restart_values"][-1] = report["value"]
    else:
        report["additivity"]["single"] += 1e-3
        report["additivity"]["gap"] -= 2e-3
    with pytest.raises(CheckError, match="closed form"):
        checks.check_capacity(report, 0, kraus, AD)


def test_capacity_rejects_joint_above_twice_single_letter():
    report, kraus = capacity_report(AD)
    report["additivity"]["joint"] = 2 * report["value"] + 1e-5
    report["additivity"]["gap"] = 1e-5
    with pytest.raises(CheckError, match="above"):
        checks.check_capacity(report, 0, kraus, AD)


def test_capacity_rejects_value_not_at_argmax_state():
    report, kraus = capacity_report(AD)
    report["argmax_state"] = (np.stack([np.eye(2) / 2, np.zeros((2, 2))], axis=-1)).tolist()
    with pytest.raises(CheckError, match="argmax_state"):
        checks.check_capacity(report, 0, kraus, AD)


# --- inspect, zoo export, zoo list -------------------------------------------


def inspect_report(rec):
    kraus = checks.kraus_from_record(rec)
    tp = checks.tp_residual(kraus)
    return {
        "name": rec["name"], "dim_in": rec["dim_in"], "dim_out": rec["dim_out"],
        "kraus_count": kraus.shape[0], "tp_residual": tp, "choi_rank": checks.kraus_rank(kraus),
        "choi_min_eig": 0.0, "flagged": tp > 1e-8, "dim_product_bound_ok": True,
    }


def test_inspect_accepts_and_rejects_wrong_choi_rank():
    rec = record(checks.model_kraus("depolarizing", {"p": 0.5}))
    report = inspect_report(rec)
    assert report["choi_rank"] == 4
    checks.check_inspect(report, 0, rec)
    report["choi_rank"] = 3
    with pytest.raises(CheckError, match="choi_rank"):
        checks.check_inspect(report, 0, rec)


def test_inspect_rank_counts_dependent_kraus_operators_once():
    k = checks.model_kraus(AD["model"], AD["params"])
    doubled = np.concatenate([k, k]) / np.sqrt(2)
    rec = record(doubled)
    checks.check_inspect(inspect_report(rec), 0, rec)
    assert inspect_report(rec)["choi_rank"] == 2


def test_inspect_rejects_wrong_flag():
    rec = record(0.9 * checks.model_kraus(AD["model"], AD["params"]))
    report = inspect_report(rec)
    checks.check_inspect(report, 0, rec)
    report["flagged"] = False
    with pytest.raises(CheckError, match="flagged"):
        checks.check_inspect(report, 0, rec)


def zoo_entry(entry_id, rec):
    kraus = checks.kraus_from_record(rec)
    tp = checks.tp_residual(kraus)
    return {
        "id": entry_id, "name": rec["name"], "dim_in": rec["dim_in"], "dim_out": rec["dim_out"],
        "kraus_count": kraus.shape[0], "status": "OK" if tp <= 1e-8 else "FLAGGED",
        "validation": {"tp_residual": tp, "choi_min_eig": 0.0},
    }


def test_zoo_list_rejects_wrong_status():
    recs = {"a": record(checks.model_kraus(AD["model"], AD["params"])),
            "b": record(0.5 * checks.model_kraus("dephasing", {"p": 0.3}))}
    report = {"entries": [zoo_entry(k, r) for k, r in recs.items()]}
    checks.check_zoo_list(report, 0, recs)
    checks.check_export(report["entries"][1], 0, recs["b"], "b")
    report["entries"][1]["status"] = "OK"
    with pytest.raises(CheckError, match="status"):
        checks.check_zoo_list(report, 0, recs)


# --- polar ------------------------------------------------------------------


def polar_report(ledger):
    f = {k: Fraction(v) for k, v in ledger["fractions"].items()}
    regime = ledger["regime"]
    rates = {"delta": str(f["p1_prime"])}
    if regime in ("DEGRADABLE", "DEGRADABLE_PD"):
        rates["rate_degradable"] = str(f["g_amp"] - f["p1"])
    if regime == "DEGRADABLE_PD":
        rates["rate_pd_degradable"] = str(f["g_amp"] - f["p1"] + f["p1_prime"])
    if regime == "ANTI_DEGRADABLE_PD":
        gross = f["g_amp"] - f["p1"] + f["p1_prime"] - f["b"]
        rates["rate_pd_antidegradable"] = {
            "gross": str(gross), "entanglement_rate": str(f["b"]), "net": str(gross - f["b"]),
        }
    anti_b = f["b"] if regime.startswith("ANTI") else 0
    holevo = {
        "chi_ab": f["g_amp"] + f["p2_prime"],
        "chi_ae": f["p1"] + f["p2"] + anti_b,
        "chi_ae_prime": f["p1"] - f["p1_prime"] + anti_b,
    }
    return {
        "regime": regime, "fractions": dict(ledger["fractions"]), "rates": rates,
        "holevo": {k: str(v) for k, v in holevo.items()}, "violations": [],
    }


@pytest.mark.parametrize("regime", workloads.REGIMES)
def test_polar_accepts_seeded_ledgers(regime):
    for seed in range(5):
        ledger = workloads.make_ledger(random.Random(seed), regime)
        checks.check_polar(polar_report(ledger), 0, ledger)


def test_polar_rejects_broken_pd_identity():
    ledger = workloads.make_ledger(random.Random(1), "DEGRADABLE_PD")
    report = polar_report(ledger)
    report["rates"]["rate_pd_degradable"] = str(Fraction(report["rates"]["rate_pd_degradable"]) + Fraction(1, 97))
    with pytest.raises(CheckError, match="delta"):
        checks.check_polar(report, 0, ledger)


def test_polar_rejects_broken_gross_net_identity():
    ledger = workloads.make_ledger(random.Random(1), "ANTI_DEGRADABLE_PD")
    report = polar_report(ledger)
    rates = report["rates"]["rate_pd_antidegradable"]
    rates["net"] = rates["gross"]
    with pytest.raises(CheckError, match="net"):
        checks.check_polar(report, 0, ledger)


# --- the benchmark's definition -----------------------------------------------


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    produced = tracer.Tracer().per_layer()
    assert [m["name"] for m in spec["per_layer"]] == list(produced)
    for m in spec["per_layer"]:
        assert m["unit"] == tracer.unit(m["name"]), m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
