"""Command-line front end.

Subcommands: inspect, classify, capacity, polar, zoo. All analyses emit a
JSON report (text format is a rendering of the same report) whose ``env``
echoes the tolerances and size limit, and for ``capacity``, the only
subcommand that takes them, ``--seed``, ``--restarts`` and ``--tol``.
Exit codes: 0 success, 2 input error, 3 indeterminate result or invariant
violation.

Each command imports the package modules it runs when it runs, so
``polar``, ``--help`` and usage errors start without numpy. :func:`run` is
the ``pdchannel`` command and ``python -m pdchannel.cli``; :func:`main`
runs a command in the calling process and returns its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .config import TOL, max_dim
from .errors import PdChannelError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


def _report_env() -> dict:
    return {"tolerances": TOL.as_dict(), "max_dim": max_dim()}


def _emit(report: dict, args) -> None:
    payload = _render_text(report) if args.format == "text" else _json(report)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as f:
        f.write(payload + "\n")


def _json(value, pad: str = "", rows: bool = False) -> str:
    """json.dumps(value, indent=2, sort_keys=True), except that the witness
    arrays (keys ``Y`` and ``z``) are written one row per line."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        parts = [f"{json.dumps(k)}: {_json(value[k], inner, k in ('Y', 'z'))}" for k in sorted(value)]
    elif isinstance(value, (list, tuple)) and value:
        parts = [json.dumps(v) if rows else _json(v, inner) for v in value]
    else:
        return json.dumps(value)
    ends = "{}" if isinstance(value, dict) else "[]"
    return ends[0] + ",".join(f"\n{inner}{p}" for p in parts) + f"\n{pad}{ends[1]}"


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


def _load(loader, path: str):
    """Read an input file with ``loader``, turning a missing file or a file
    that does not parse as JSON into an input error."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise PdChannelError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise PdChannelError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer literal over Python's digit limit
        raise PdChannelError(f"cannot read {path}: {exc}")
    except RecursionError:
        raise PdChannelError(f"cannot read {path}: JSON nested too deeply")


def cmd_inspect(args) -> int:
    from . import channel as chmod, qmat
    ch = _load(chmod.load_channel, args.file)
    # one eigendecomposition of the Choi matrix gives its least eigenvalue and its rank
    w, _ = qmat.eigh(chmod.to_choi(ch))
    rank = qmat.numerical_rank(w)
    out = {
        "env": _report_env(),
        "name": ch.name,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus_count": len(ch.kraus),
        "tp_residual": ch.tp_residual(),
        "choi_min_eig": float(w[-1]),
        "choi_rank": rank,
        "flagged": ch.flagged,
        # the minimal environment never exceeds the input-output product
        "dim_product_bound_ok": ch.dim_in * ch.dim_out >= rank,
    }
    _emit(out, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    from . import channel as chmod, degradability as degmod
    ch = _load(chmod.load_channel, args.file)
    degrading = _load(chmod.load_channel, args.degrading) if args.degrading else None
    result = degmod.classify_pd(ch, degrading)
    _emit({"env": _report_env(), **result}, args)
    return EXIT_INDETERMINATE if result["label"] == "UNDETERMINED" else EXIT_OK


def cmd_capacity(args) -> int:
    from . import capacity as capmod, channel as chmod
    ch = _load(chmod.load_channel, args.file)
    # a probe that cannot run is refused before the single-copy maximization
    if args.tensor is not None:
        if args.tensor != 2:
            raise PdChannelError("--tensor only supports 2")
        capmod.check_two_copy_size(ch)
    result = capmod.maximize_coherent_information(
        ch, restarts=args.restarts, seed=args.seed, tol=args.tol
    )
    env = {**_report_env(), "seed": args.seed, "restarts": args.restarts, "tol": args.tol}
    out = {"env": env, **result}
    if args.tensor is not None:
        # the single-copy optimum above is the one the probe would compute
        out["additivity"] = capmod.additivity_probe(
            ch, restarts=args.restarts, seed=args.seed, single=result
        )
    _emit(out, args)
    return EXIT_OK


def cmd_polar(args) -> int:
    from . import polar as polmod
    ledger = _load(polmod.load_ledger, args.file)
    violations = polmod.validate_partition(ledger)
    rates = {"delta": str(polmod.delta(ledger))}
    if ledger.is_degradable_regime:
        rates["rate_degradable"] = str(polmod.rate_degradable(ledger))
    if ledger.regime == "DEGRADABLE_PD":
        rates["rate_pd_degradable"] = str(polmod.rate_pd_degradable(ledger))
    if ledger.regime == "ANTI_DEGRADABLE_PD":
        rates["rate_pd_antidegradable"] = {
            k: str(v) for k, v in polmod.rate_pd_antidegradable(ledger).items()
        }
    out = {
        "env": _report_env(),
        "regime": ledger.regime,
        "fractions": polmod.ledger_to_dict(ledger)["fractions"],
        "rates": rates,
        "holevo": {k: str(v) for k, v in polmod.holevo_triples(ledger).items()},
        "violations": violations,
    }
    _emit(out, args)
    return EXIT_INDETERMINATE if violations else EXIT_OK


def cmd_zoo(args) -> int:
    from . import channel as chmod, zoo as zoomod
    if args.action == "list":
        _emit({"env": _report_env(), "entries": zoomod.list_entries()}, args)
        return EXIT_OK
    if not args.id:
        raise PdChannelError("zoo export needs an entry id")
    params = {k: getattr(args, k) for k in zoomod.parameter_types() if getattr(args, k) is not None}
    entry = zoomod.build_entry(args.id, **params)
    if args.out:
        # --out receives the channel file; the report goes to stdout
        chmod.save_channel(entry.channel, args.out)
        args.out = None
    _emit({"env": _report_env(), **entry.as_dict()}, args)
    return EXIT_OK


def build_parser(zoo_flags: bool = True) -> argparse.ArgumentParser:
    """The ``pdchannel`` parser; ``zoo_flags=False`` leaves out the zoo
    parameter flags, which are read off the numpy-backed zoo registry."""
    parser = argparse.ArgumentParser(
        prog="pdchannel", description="quantum channel degradability toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("inspect", help="validate a channel JSON file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("classify", help="degradability / PD classification")
    p.add_argument("file")
    p.add_argument("--degrading", default=None, help="E->E' channel JSON file")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("capacity", help="maximize coherent information")
    p.add_argument("file")
    p.add_argument("--tensor", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--restarts", type=int, default=32)
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("polar", help="exact-rational rate report from a ledger file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("zoo", help="list or export built-in channels")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("id", nargs="?", default=None)
    # one flag per entry parameter; a flag left out keeps the entry's default
    if zoo_flags:
        from . import zoo as zoomod
        for flag, kind in zoomod.parameter_types().items():
            if kind is bool:
                p.add_argument(f"--{flag}", action="store_true", default=None)
            else:
                p.add_argument(f"--{flag}", type=kind, default=None)
    common(p)
    p.set_defaults(func=cmd_zoo)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option with a value, so the first word
    # not starting with "-" is the command
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(zoo_flags=command == "zoo").parse_args(argv)
    try:
        return args.func(args)
    except (PdChannelError, OSError) as exc:
        # OSError: a path that is a directory, or whose directory is missing
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    """Run :func:`main` on the command line, flush stdout and stderr, and
    end the process with its exit code at once: the interpreter's teardown
    would only free memory the operating system reclaims anyway. A flush
    that fails (a closed pipe) leaves the exit to ``sys.exit``."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
