"""Command-line front end.

Subcommands: inspect, classify, capacity, polar, zoo. All analyses emit a
JSON report (text format is a rendering of the same report) and are
reproducible from the seed/restart/tolerance settings echoed into every
report. Exit codes: 0 success, 2 input error, 3 indeterminate result or
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import capacity as capmod
from . import channel as chmod
from . import degradability as degmod
from . import polar as polmod
from . import zoo as zoomod
from .config import TOL, max_dim
from .errors import PdChannelError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


def _report_env(args) -> dict:
    env = {"tolerances": TOL.as_dict(), "max_dim": max_dim()}
    for key in ("seed", "restarts"):
        if hasattr(args, key):
            env[key] = getattr(args, key)
    return env


def _emit(report: dict, args) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "format", "json") == "text":
        payload = _render_text(report)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _load_channel(path: str) -> chmod.KrausChannel:
    try:
        return chmod.load_channel(path)
    except FileNotFoundError:
        raise PdChannelError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise PdChannelError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")


def cmd_inspect(args) -> int:
    ch = _load_channel(args.file)
    report = chmod.validate(ch)
    choi = chmod.to_choi(ch, check_tp=False)
    rank = chmod.choi_rank(choi)
    out = {
        "env": _report_env(args),
        "name": ch.name,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus_count": len(ch.kraus),
        "tp_residual": report.tp_residual,
        "choi_min_eig": report.choi_min_eig,
        "choi_rank": rank,
        "flagged": ch.flagged,
        # the minimal environment never exceeds the input-output product
        "dim_product_bound_ok": ch.dim_in * ch.dim_out >= rank,
    }
    _emit(out, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    ch = _load_channel(args.file)
    degrading = _load_channel(args.degrading) if args.degrading else None
    result = degmod.classify_pd(ch, degrading, try_conjugate=args.conjugate)
    out = {"env": _report_env(args), **result.as_dict()}
    _emit(out, args)
    return EXIT_INDETERMINATE if result.label == "UNDETERMINED" else EXIT_OK


def cmd_capacity(args) -> int:
    ch = _load_channel(args.file)
    result = capmod.maximize_coherent_information(
        ch, restarts=args.restarts, seed=args.seed, tol=args.tol
    )
    out = {"env": _report_env(args), **result.as_dict()}
    if args.tensor:
        if args.tensor != 2:
            raise PdChannelError("--tensor only supports 2")
        # the single-copy optimum above is the one the probe would compute
        out["additivity"] = capmod._two_copy_probe(
            ch, args.restarts, args.seed, single=result
        )
    _emit(out, args)
    return EXIT_OK


def cmd_polar(args) -> int:
    try:
        ledger = polmod.load_ledger(args.file)
    except FileNotFoundError:
        raise PdChannelError(f"no such file: {args.file}")
    except json.JSONDecodeError as exc:
        raise PdChannelError(f"invalid JSON in {args.file}: {exc.msg}")
    violations = polmod.validate_partition(ledger)
    rates = {"delta": str(polmod.delta(ledger))}
    if ledger.regime in ("DEGRADABLE", "DEGRADABLE_PD"):
        rates["rate_degradable"] = str(polmod.rate_degradable(ledger))
    if ledger.regime == "DEGRADABLE_PD":
        rates["rate_pd_degradable"] = str(polmod.rate_pd_degradable(ledger))
    if ledger.regime == "ANTI_DEGRADABLE_PD":
        rates["rate_pd_antidegradable"] = {
            k: str(v) for k, v in polmod.rate_pd_antidegradable(ledger).items()
        }
    out = {
        "env": _report_env(args),
        "regime": ledger.regime,
        "fractions": polmod.ledger_to_dict(ledger)["fractions"],
        "rates": rates,
        "holevo": {k: str(v) for k, v in polmod.holevo_triples(ledger).items()},
        "violations": violations,
    }
    _emit(out, args)
    return EXIT_INDETERMINATE if violations else EXIT_OK


_PARAM_FLAGS = ("alpha", "x", "p", "d", "gamma", "n2", "n3", "a1", "a2")


def cmd_zoo(args) -> int:
    if args.action == "list":
        _emit({"env": _report_env(args), "entries": zoomod.list_entries()}, args)
        return EXIT_OK
    if not args.id:
        raise PdChannelError("zoo export needs an entry id")
    params = {}
    for flag in _PARAM_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            params[flag] = value
    if args.repair:
        params["repair"] = True
    entry = zoomod.build_entry(args.id, **params)
    if args.out:
        # --out receives the channel file; the report goes to stdout
        chmod.save_channel(entry.channel, args.out)
        args.out = None
    _emit({"env": _report_env(args), **entry.as_dict()}, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdchannel", description="quantum channel degradability toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--restarts", type=int, default=32)
        p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("inspect", help="validate a channel JSON file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("classify", help="degradability / PD classification")
    p.add_argument("file")
    p.add_argument("--degrading", default=None, help="E->E' channel JSON file")
    p.add_argument("--conjugate", action="store_true")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("capacity", help="maximize coherent information")
    p.add_argument("file")
    p.add_argument("--tensor", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("polar", help="exact-rational rate report from a ledger file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("zoo", help="list or export built-in channels")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("id", nargs="?", default=None)
    for flag in ("alpha", "x", "p", "gamma", "a1", "a2"):
        p.add_argument(f"--{flag}", type=float, default=None)
    for flag in ("d", "n2", "n3"):
        p.add_argument(f"--{flag}", type=int, default=None)
    p.add_argument("--repair", action="store_true")
    common(p)
    p.set_defaults(func=cmd_zoo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PdChannelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
