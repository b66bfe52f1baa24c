"""Checks of pdchannel reports against computations made apart from the
program.

Nothing here imports ``pdchannel``: every expected value comes from numpy
on the Kraus operators of the exported channel file, from a closed form, or
from exact fractions. Each checker raises :class:`CheckError` on the first
disagreement and returns ``None`` when the report holds.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

RESIDUAL_TOL = 1e-8
PSD_TOL = -1e-9


class CheckError(Exception):
    """A report disagrees with the independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Channels in numpy
# ---------------------------------------------------------------------------


def kraus_from_record(record: dict) -> np.ndarray:
    """Stacked (K, d_out, d_in) complex array from a channel JSON record."""
    a = np.asarray(record["kraus"], dtype=np.float64)
    _require(
        a.ndim == 4 and a.shape[1:] == (record["dim_out"], record["dim_in"], 2),
        f"channel record has Kraus array of shape {a.shape}",
    )
    return a[..., 0] + 1j * a[..., 1]


def load_kraus(path) -> np.ndarray:
    with open(path) as f:
        return kraus_from_record(json.load(f))


def tp_residual(kraus: np.ndarray) -> float:
    s = np.einsum("kba,kbc->ac", kraus.conj(), kraus)
    return float(np.max(np.abs(s - np.eye(kraus.shape[2]))))


def kraus_rank(kraus: np.ndarray) -> int:
    """Rank of the stacked, vectorized Kraus matrix (the Choi rank)."""
    return int(np.linalg.matrix_rank(kraus.reshape(kraus.shape[0], -1)))


def choi(kraus: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix sum_k vec(K_k) vec(K_k)^dag; any fixed
    vectorization will do, because it is only compared with itself."""
    v = kraus.reshape(kraus.shape[0], -1)
    return v.T @ v.conj()


def apply(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum("kab,bc,kdc->ad", kraus, rho, kraus.conj())


def apply_env(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Complementary channel: entry (i, j) is Tr(K_i rho K_j^dag)."""
    return np.einsum("iab,bc,jac->ij", kraus, rho, kraus.conj())


def entropy(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def coherent_information(kraus: np.ndarray, rho: np.ndarray) -> float:
    return entropy(apply(kraus, rho)) - entropy(apply_env(kraus, rho))


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = a @ a.conj().T
    return g / np.trace(g).real


def model_kraus(model: str, params: dict) -> np.ndarray:
    """Textbook Kraus operators of the closed-form qubit channels."""
    i2 = np.eye(2)
    if model == "amplitude_damping":
        g = params["gamma"]
        ops = [[[1, 0], [0, np.sqrt(1 - g)]], [[0, np.sqrt(g)], [0, 0]]]
    elif model == "dephasing":
        p = params["p"]
        ops = [np.sqrt(1 - p) * i2, np.sqrt(p) * np.diag([1, -1])]
    elif model == "depolarizing":
        p = params["p"]
        paulis = [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
        ops = [np.sqrt(1 - 3 * p / 4) * i2] + [np.sqrt(p / 4) * np.array(s) for s in paulis]
    elif model == "erasure":
        p = params["p"]
        keep = np.sqrt(1 - p) * np.vstack([i2, np.zeros((1, 2))])
        lost = [np.sqrt(p) * np.outer([0, 0, 1], e) for e in i2]
        ops = [keep] + lost
    else:
        raise ValueError(f"no closed form for {model!r}")
    return np.asarray(ops, dtype=np.complex128)


def check_is_model(kraus: np.ndarray, model: str, params: dict) -> None:
    """The exported operators must be the closed-form channel, or the closed
    form does not speak about them."""
    ref = model_kraus(model, params)
    _require(kraus.shape[1:] == ref.shape[1:], f"{model} has shape {kraus.shape[1:]}")
    diff = float(np.max(np.abs(choi(kraus) - choi(ref))))
    _require(diff <= 1e-12, f"exported channel is not {model}{params}: Choi differs by {diff:.3e}")


def h2(p):
    p = np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    return np.nan_to_num(v)


def closed_form_capacity(model: str, params: dict) -> tuple:
    """(max single-letter coherent information, optimal diagonal state)."""
    if model == "dephasing":
        return 1.0 - float(h2(params["p"])), np.eye(2) / 2
    if model != "amplitude_damping":
        raise ValueError(f"no closed form for {model!r}")
    g = params["gamma"]

    def f(p):
        return h2((1 - g) * p) - h2(g * p)

    # dense grid, then golden-section search on the bracketing cell
    grid = np.linspace(0.0, 1.0, 20001)
    k = int(np.argmax(f(grid)))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    r = (np.sqrt(5) - 1) / 2
    for _ in range(80):
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        if f(a) >= f(b):
            hi = b
        else:
            lo = a
    p = (lo + hi) / 2
    return float(f(p)), np.diag([1 - p, p]).astype(np.complex128)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def expected_label(model: str, params: dict) -> str:
    """Degradability of the closed-form qubit channels, for the parameter
    ranges where exactly one of the two notions holds."""
    if model in ("amplitude_damping", "erasure"):
        x = params["gamma" if model == "amplitude_damping" else "p"]
        if x < 0.5:
            return "DEGRADABLE"
    elif model == "dephasing":
        # degradable for every p, anti-degradable as well only at p = 1/2
        if params["p"] != 0.5:
            return "DEGRADABLE"
    elif model == "depolarizing":
        # Pauli weight 3p/4 >= 1/4 makes it anti-degradable; it is never
        # degradable for p > 0
        if 3 * params["p"] / 4 >= 0.25:
            return "ANTI_DEGRADABLE"
    raise ValueError(f"no single closed-form label for {model}{params}")


def label_from_flags(ok: dict) -> str:
    """Partial-degradability label under the identity E->E' map."""
    if ok["B->E'"] and ok["E'->B"]:
        return "SYMMETRIC_PD"
    if ok["B->E"]:
        return "DEGRADABLE"
    if ok["E->B"]:
        return "ANTI_DEGRADABLE"
    return "UNDETERMINED"


def check_classify(report: dict, exit_code: int, kraus: np.ndarray, case: dict, rng) -> None:
    """``case`` holds ``model`` and ``params`` for a closed-form channel,
    ``symmetric: True`` for the symmetric construction, or nothing."""
    sols = report["solutions"]
    _require(set(sols) == {"B->E", "E->B", "B->E'", "E'->B"}, f"solution keys {sorted(sols)}")
    for key, s in sols.items():
        meets = (
            s["residual"] <= RESIDUAL_TOL
            and s["cp_min_eig"] >= PSD_TOL
            and s["tp_residual"] <= RESIDUAL_TOL
        )
        _require(s["success"] == meets, f"{key}: success={s['success']} but certificate {s}")
    ok = {k: s["success"] for k, s in sols.items()}
    # the identity E->E' map makes B->E' the B->E problem and E'->B the E->B one
    _require(ok["B->E'"] == ok["B->E"], "B->E' disagrees with B->E under the identity map")
    _require(ok["E'->B"] == ok["E->B"], "E'->B disagrees with E->B under the identity map")
    label = report["label"]
    _require(label == label_from_flags(ok), f"label {label} does not follow from flags {ok}")
    _require(
        exit_code == (3 if label == "UNDETERMINED" else 0),
        f"exit code {exit_code} for label {label}",
    )
    if "model" in case:
        check_is_model(kraus, case["model"], case["params"])
        want = expected_label(case["model"], case["params"])
        _require(label == want, f"{case['model']}{case['params']}: label {label}, closed form {want}")
    if case.get("symmetric"):
        _require(label == "SYMMETRIC_PD", f"symmetric channel labelled {label}")
        _require(kraus.shape[0] == kraus.shape[1], "output and environment sizes differ")
        for _ in range(4):
            rho = random_state(rng, kraus.shape[2])
            diff = float(np.max(np.abs(apply(kraus, rho) - apply_env(kraus, rho))))
            _require(diff <= 1e-12, f"B and E outputs differ by {diff:.3e}")


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def check_capacity(report: dict, exit_code: int, kraus: np.ndarray, case: dict) -> None:
    _require(exit_code == 0, f"exit code {exit_code}")
    check_is_model(kraus, case["model"], case["params"])
    best, _ = closed_form_capacity(case["model"], case["params"])
    value = report["value"]
    add = report["additivity"]
    _require(abs(value - best) <= 1e-6, f"value {value!r}, closed form {best!r}")
    _require(abs(add["single"] - best) <= 1e-6, f"single {add['single']!r}, closed form {best!r}")
    _require(abs(add["joint"] - 2 * best) <= 2e-3, f"joint {add['joint']!r}, 2x closed form {2 * best!r}")
    _require(add["joint"] <= 2 * best + 1e-6, f"joint {add['joint']!r} above 2x closed form {2 * best!r}")
    _require(
        abs(add["gap"] - (add["joint"] - 2 * add["single"])) <= 1e-12,
        f"gap {add['gap']!r} != joint - 2 single",
    )
    _require(max(report["per_restart_values"]) == value, "value is not the best restart")
    state = np.asarray(report["argmax_state"], dtype=np.float64)
    rho = state[..., 0] + 1j * state[..., 1]
    _require(rho.shape == (kraus.shape[2],) * 2, f"argmax_state has shape {rho.shape}")
    _require(abs(np.trace(rho) - 1) <= 1e-10, "argmax_state does not have unit trace")
    _require(float(np.max(np.abs(rho - rho.conj().T))) <= 1e-10, "argmax_state is not Hermitian")
    _require(float(np.linalg.eigvalsh(rho)[0]) >= PSD_TOL, "argmax_state is not PSD")
    at_state = coherent_information(kraus, rho)
    _require(abs(at_state - value) <= 1e-9, f"value {value!r} but I_coh(argmax_state) = {at_state!r}")


# ---------------------------------------------------------------------------
# inspect, zoo export, zoo list
# ---------------------------------------------------------------------------


def check_inspect(report: dict, exit_code: int, record: dict) -> None:
    _require(exit_code == 0, f"exit code {exit_code}")
    kraus = kraus_from_record(record)
    for key in ("name", "dim_in", "dim_out"):
        _require(report[key] == record[key], f"{key} {report[key]!r} != file {record[key]!r}")
    _require(report["kraus_count"] == kraus.shape[0], "kraus_count differs from the file")
    tp = tp_residual(kraus)
    _require(abs(report["tp_residual"] - tp) <= 1e-12, f"tp_residual {report['tp_residual']!r}, numpy {tp!r}")
    rank = kraus_rank(kraus)
    _require(report["choi_rank"] == rank, f"choi_rank {report['choi_rank']}, numpy {rank}")
    _require(report["choi_min_eig"] >= PSD_TOL, f"choi_min_eig {report['choi_min_eig']!r}")
    _require(report["flagged"] == (tp > RESIDUAL_TOL), f"flagged={report['flagged']} at tp_residual {tp:.3e}")
    _require(
        report["dim_product_bound_ok"] == (record["dim_in"] * record["dim_out"] >= rank),
        "dim_product_bound_ok disagrees",
    )


def _check_validation(entry: dict, kraus: np.ndarray) -> None:
    v = entry["validation"]
    tp = tp_residual(kraus)
    _require(abs(v["tp_residual"] - tp) <= 1e-12, f"{entry['id']}: tp_residual {v['tp_residual']!r}, numpy {tp!r}")
    _require(v["choi_min_eig"] >= PSD_TOL, f"{entry['id']}: choi_min_eig {v['choi_min_eig']!r}")
    want = "OK" if tp <= RESIDUAL_TOL else "FLAGGED"
    _require(entry["status"] == want, f"{entry['id']}: status {entry['status']} at tp_residual {tp:.3e}")
    _require(entry["kraus_count"] == kraus.shape[0], f"{entry['id']}: kraus_count differs")
    _require((entry["dim_out"], entry["dim_in"]) == kraus.shape[1:], f"{entry['id']}: dims differ")


def check_export(report: dict, exit_code: int, record: dict, entry_id: str) -> None:
    _require(exit_code == 0, f"exit code {exit_code}")
    _require(report["id"] == entry_id, f"exported {report['id']!r}, asked for {entry_id!r}")
    _require(report["name"] == record["name"], "report and file names differ")
    _check_validation(report, kraus_from_record(record))


def check_zoo_list(report: dict, exit_code: int, verbatim: dict) -> None:
    """``verbatim`` maps each zoo id to the record of its verbatim export."""
    _require(exit_code == 0, f"exit code {exit_code}")
    entries = report["entries"]
    ids = [e["id"] for e in entries]
    _require(sorted(ids) == sorted(verbatim), f"zoo list ids {ids}")
    for entry in entries:
        _check_validation(entry, kraus_from_record(verbatim[entry["id"]]))


# ---------------------------------------------------------------------------
# polar
# ---------------------------------------------------------------------------


def check_polar(report: dict, exit_code: int, ledger: dict) -> None:
    """Exact-fraction identities of the rate report for a valid ledger."""
    _require(exit_code == 0, f"exit code {exit_code}")
    _require(report["violations"] == [], f"violations {report['violations']}")
    regime = ledger["regime"]
    _require(report["regime"] == regime, f"regime {report['regime']}")
    f = {k: Fraction(v) for k, v in ledger["fractions"].items()}
    _require({k: Fraction(v) for k, v in report["fractions"].items()} == f, "fractions not echoed")
    rates = report["rates"]
    delta = Fraction(rates["delta"])
    _require(delta == f["p1_prime"], f"delta {delta} != p1_prime {f['p1_prime']}")
    if regime in ("DEGRADABLE", "DEGRADABLE_PD"):
        base = Fraction(rates["rate_degradable"])
        _require(base == f["g_amp"] - f["p1"], f"rate_degradable {base}")
    if regime == "DEGRADABLE_PD":
        pd = Fraction(rates["rate_pd_degradable"])
        _require(pd - base == delta, f"PD rate {pd} - degradable rate {base} != delta {delta}")
    if regime == "ANTI_DEGRADABLE_PD":
        r = {k: Fraction(v) for k, v in rates["rate_pd_antidegradable"].items()}
        _require(r["gross"] == f["g_amp"] - (f["p1"] - f["p1_prime"]) - f["b"], f"gross {r['gross']}")
        _require(r["entanglement_rate"] == f["b"], f"entanglement_rate {r['entanglement_rate']}")
        _require(r["gross"] - r["net"] == f["b"], f"gross {r['gross']} - net {r['net']} != b {f['b']}")
    anti_b = f["b"] if regime.startswith("ANTI") else 0
    holevo = {k: Fraction(v) for k, v in report["holevo"].items()}
    want = {
        "chi_ab": f["g_amp"] + f["p2_prime"],
        "chi_ae": f["p1"] + f["p2"] + anti_b,
        "chi_ae_prime": f["p1"] - f["p1_prime"] + anti_b,
    }
    _require(holevo == want, f"holevo {holevo} != {want}")
