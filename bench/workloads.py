"""The benchmark's workloads: which ``pdchannel`` commands run, on which
inputs, and how each output is checked.

A workload is built from the run's seed. The seed fixes the order of the
operations, the polar ledgers, and the random states some checks use; the
channels themselves are fixed zoo entries, so every seed does the same
work. ``prepare`` lists the commands that write the input files; they run
untimed before the first pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

NAMES = ("classify-zoo", "capacity-tensor", "cli-surface")

# Zoo entries that are trace-preserving as exported, with the zoo parameters
# spelled out and what the classify check knows about each. nab_ae is left
# out: one classify on it takes about 142 s.
CLASSIFY_ENTRIES = (
    ("horodecki", {"alpha": 3.5}, {}),
    ("symmetric_pd", {}, {"symmetric": True}),
    ("erasure", {"p": 0.25, "d": 2}, {"model": "erasure", "params": {"p": 0.25}}),
    ("depolarizing", {"p": 0.5, "d": 2}, {"model": "depolarizing", "params": {"p": 0.5}}),
    ("amplitude_damping", {"gamma": 0.2}, {"model": "amplitude_damping", "params": {"gamma": 0.2}}),
    ("dephasing", {"p": 0.3}, {"model": "dephasing", "params": {"p": 0.3}}),
    ("m_ae", {"repair": True}, {}),
    ("composite_complementary", {"x": 0.75, "repair": True}, {}),
    ("d_e_to_eprime", {"repair": True}, {}),
)

CAPACITY_CHANNELS = (
    ("amplitude_damping", {"gamma": 0.2}),
    ("amplitude_damping", {"gamma": 0.3}),
    ("dephasing", {"p": 0.3}),
)
CAPACITY_FLAGS = ("--tensor", "2", "--restarts", "32", "--seed", "42")

ZOO_IDS = (
    "amplitude_damping", "composite_complementary", "corollary4_degrading",
    "corollary4_rank_one", "d_b_to_eprime", "d_e_to_eprime", "dephasing",
    "depolarizing", "erasure", "horodecki", "m_ae", "nab_ae", "symmetric_pd",
)
REPAIRABLE = ("composite_complementary", "d_e_to_eprime", "m_ae")
REGIMES = ("DEGRADABLE", "DEGRADABLE_PD", "ANTI_DEGRADABLE", "ANTI_DEGRADABLE_PD")


@dataclass
class Op:
    """One program invocation: ``pdchannel <args>``, whose JSON report and
    exit code go to ``check``."""

    args: list
    check: Callable[[dict, int], None]


@dataclass
class Workload:
    ops: list
    prepare: list = field(default_factory=list)


def _export_args(entry_id: str, params: dict, path: Path) -> list:
    args = ["zoo", "export", entry_id]
    for key, value in params.items():
        if key == "repair":
            args += ["--repair"] if value else []
        else:
            args += [f"--{key}", str(value)]
    return args + ["--out", str(path)]


def _read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def _classify(seed: int, tmp: Path) -> Workload:
    rng = np.random.default_rng(seed)
    prepare, ops = [], []
    for i, (entry_id, params, case) in enumerate(CLASSIFY_ENTRIES):
        path = tmp / f"classify-{i}-{entry_id}.json"
        prepare.append(_export_args(entry_id, params, path))

        def check(report, code, path=path, case=case):
            checks.check_classify(report, code, checks.load_kraus(path), case, rng)

        ops.append(Op(["classify", str(path)], check))
    random.Random(seed).shuffle(ops)
    return Workload(ops, prepare)


def _capacity(seed: int, tmp: Path) -> Workload:
    prepare, ops = [], []
    for i, (model, params) in enumerate(CAPACITY_CHANNELS):
        path = tmp / f"capacity-{i}-{model}.json"
        prepare.append(_export_args(model, params, path))
        case = {"model": model, "params": params}

        def check(report, code, path=path, case=case):
            checks.check_capacity(report, code, checks.load_kraus(path), case)

        ops.append(Op(["capacity", str(path), *CAPACITY_FLAGS], check))
    random.Random(seed).shuffle(ops)
    return Workload(ops, prepare)


def make_ledger(rng: random.Random, regime: str) -> dict:
    """A valid ledger: p2 = p2_prime = 0, and the cover identity fixes
    g_amp = 1, b = 0 in the degradable regimes and b = 1 - g_amp otherwise."""

    def frac(top=Fraction(1)):
        den = rng.randint(2, 64)
        return Fraction(rng.randint(0, den), den) * top

    p1 = frac()
    g_amp = Fraction(1) if regime.startswith("DEGRADABLE") else frac()
    fractions = {
        "g_amp": g_amp,
        "g_phase": frac(),
        "p1": p1,
        "p1_prime": frac(p1),
        "p2": Fraction(0),
        "p2_prime": Fraction(0),
        "b": 1 - g_amp,
    }
    return {"regime": regime, "fractions": {k: str(v) for k, v in fractions.items()}}


def _cli_surface(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    exported = [(i, False) for i in ZOO_IDS] + [(i, True) for i in REPAIRABLE]
    exports, inspects = [], []
    verbatim = {}
    for entry_id, repair in exported:
        path = tmp / f"surface-{entry_id}{'-repaired' if repair else ''}.json"
        if not repair:
            verbatim[entry_id] = path

        def check_export(report, code, path=path, entry_id=entry_id):
            checks.check_export(report, code, _read_json(path), entry_id)

        def check_inspect(report, code, path=path):
            checks.check_inspect(report, code, _read_json(path))

        exports.append(Op(_export_args(entry_id, {"repair": repair}, path), check_export))
        inspects.append(Op(["inspect", str(path)], check_inspect))

    def check_list(report, code):
        checks.check_zoo_list(report, code, {k: _read_json(p) for k, p in verbatim.items()})

    polars = []
    for regime in REGIMES:
        ledger = make_ledger(rng, regime)
        path = tmp / f"ledger-{regime.lower()}.json"
        with open(path, "w") as f:
            json.dump(ledger, f)

        def check_polar(report, code, ledger=ledger):
            checks.check_polar(report, code, ledger)

        polars.append(Op(["polar", str(path)], check_polar))
    for group in (exports, inspects, polars):
        rng.shuffle(group)
    return Workload([Op(["zoo", "list"], check_list)] + exports + inspects + polars)


def build(name: str, seed: int, tmp: Path) -> Workload:
    """Operations of workload ``name``; input files go under ``tmp``."""
    builders = {"classify-zoo": _classify, "capacity-tensor": _capacity, "cli-surface": _cli_surface}
    return builders[name](seed, tmp)
