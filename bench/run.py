"""Benchmark of the ``pdchannel`` command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload classify-zoo --seed 1 --seconds 10 --trace 0

With ``--trace 0`` every operation runs as its own program process, as a
user runs it, and the end-to-end metrics are reported. With ``--trace 1``
the same operations call ``pdchannel.cli.main`` in this process, once with
and once without the per-layer wrappers of ``tracer.py``, and the
per-layer metrics are reported along with the tracing overhead.

Passes over the workload's operations repeat until ``--seconds`` have
passed, and at least one pass runs. Every output is checked by
``checks.py``. The last line of standard output is the JSON result; details
go to ``bench/out/``.
"""

import os

# One BLAS thread, for this process and every program process it starts.
# With two threads on a two-core machine wall time wandered with the load;
# one thread also fixes the order of reductions, so iteration counts repeat.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT_COUNTS, Tracer, unit  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# bare interpreter launches behind setup_s; one launch is short and noisy
SETUP_LAUNCHES = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpResult:
    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0


@dataclass
class Outcome:
    ops: list
    passes: list  # one list of OpResult per pass, in the order of ops
    metrics: dict  # name -> (value, unit)
    detail: dict  # what goes to the run's file under bench/out
    errors: list = field(default_factory=list)  # found while measuring


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QPD_MAX_DIM", "PYTHONDONTWRITEBYTECODE")}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC))
    return env


def launch(args: list, env: dict, tmp: Path) -> OpResult:
    """Run ``python3 <args>`` from the checkout root and wait for it."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(
        seconds=elapsed,
        exit_code=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        rss_mb=usage.ru_maxrss / 1024,
    )


def import_program():
    """Import ``pdchannel.cli`` from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import pdchannel.cli

    where = Path(pdchannel.cli.__file__).resolve()
    if SRC not in where.parents:
        raise BenchError(f"pdchannel imported from {where}, not from {SRC}")
    return pdchannel


def call_main(program, args: list) -> OpResult:
    """Run ``pdchannel <args>`` in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = program.cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return OpResult(time.perf_counter() - start, code, out.getvalue(), err.getvalue())


def prepare(program, workload) -> None:
    for args in workload.prepare:
        res = call_main(program, args)
        if res.exit_code != 0:
            raise BenchError(f"preparing input {' '.join(args)} failed: {res.stderr.strip()}")


def judge(ops: list, passes: list) -> tuple:
    """(failed, errors): an operation fails when the program gives no JSON
    report or exits with neither 0 nor 3; the others are checked."""
    failed, errors = 0, []
    for results in passes:
        for op, res in zip(ops, results):
            try:
                report = json.loads(res.stdout)
            except ValueError:
                report = None
            if not isinstance(report, dict) or res.exit_code not in (0, 3):
                failed += 1
                print(f"failed: pdchannel {' '.join(op.args)} (exit {res.exit_code}): "
                      f"{res.stderr.strip()[-500:]}", file=sys.stderr)
                continue
            try:
                op.check(report, res.exit_code)
            except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"pdchannel {' '.join(op.args)}: {exc!r}")
    return failed, errors


def measure(name: str, seed: int, seconds: float, tmp: Path) -> Outcome:
    """End-to-end metrics, with every operation as its own process."""
    env = program_env()
    warm = launch(["-m", "pdchannel.cli", "zoo", "list"], env, tmp)  # compiles .pyc files
    if warm.exit_code != 0:
        raise BenchError(f"pdchannel does not start: {warm.stderr.strip()[-500:]}")
    setup = []
    for _ in range(SETUP_LAUNCHES):
        res = launch(["-c", "import pdchannel.cli"], env, tmp)
        if res.exit_code != 0:
            raise BenchError(f"importing pdchannel.cli failed: {res.stderr.strip()[-500:]}")
        setup.append(res.seconds)
    workload = workloads.build(name, seed, tmp)
    prepare(import_program(), workload)

    passes, walls = [], []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        passes.append([launch(["-m", "pdchannel.cli", *op.args], env, tmp) for op in workload.ops])
        walls.append(time.perf_counter() - start)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(r.seconds for results in passes for r in results), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in results) for results in passes), "MB"),
    }
    detail = {
        "setup_launches_s": setup,
        "pass_wall_s": walls,
        "ops": [
            {"args": op.args, "seconds": [results[i].seconds for results in passes],
             "rss_mb": [results[i].rss_mb for results in passes]}
            for i, op in enumerate(workload.ops)
        ],
    }
    return Outcome(workload.ops, passes, metrics, detail)


def trace(name: str, seed: int, seconds: float, tmp: Path) -> Outcome:
    """Per-layer metrics from in-process passes, alternating untraced and
    traced passes so that the tracing overhead can be stated."""
    program = import_program()
    workload = workloads.build(name, seed, tmp)
    prepare(program, workload)
    call_main(program, ["zoo", "list"])  # warm-up

    def run_pass(tracer=None):
        results = []
        for op in workload.ops:
            res = call_main(program, op.args)
            if tracer is not None:
                tracer.counts["cli.report_bytes"] += len(res.stdout.encode())
            results.append(res)
        return results

    passes, plain_walls, traced_walls, layers, functions = [], [], [], [], []
    begin = time.perf_counter()
    while not layers or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        passes.append(run_pass())
        plain_walls.append(time.perf_counter() - start)
        tracer = Tracer()
        with tracer.installed(program):
            start = time.perf_counter()
            passes.append(run_pass(tracer))
            traced_walls.append(time.perf_counter() - start)
        layers.append(tracer.per_layer())
        functions.append(tracer.functions())
    errors = []
    for key in EXACT_COUNTS:
        values = {layer[key] for layer in layers}
        if len(values) > 1:
            errors.append(f"{key} differs between traced passes: {sorted(values)}")
    metrics = {k: (statistics.median(layer[k] for layer in layers), unit(k)) for k in layers[0]}
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    print(f"tracing overhead: {overhead:+.1%} (traced pass {statistics.median(traced_walls):.3f} s, "
          f"untraced pass {statistics.median(plain_walls):.3f} s, {len(layers)} of each)")
    detail = {
        "trace_overhead": overhead,
        "untraced_pass_s": plain_walls,
        "traced_pass_s": traced_walls,
        "exact_counts": {k: layers[0][k] for k in EXACT_COUNTS},
        "functions": functions[0],
    }
    return Outcome(workload.ops, passes, metrics, detail, errors)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pdchannel" / "cli.py").is_file():
        print(f"error: no pdchannel source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = trace if args.trace else measure
        outcome = run(args.workload, args.seed, args.seconds, tmp)
        failed, errors = judge(outcome.ops, outcome.passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    errors += outcome.errors
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(outcome.ops) * len(outcome.passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }
    stem = f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"args": vars(args), "result": result, "errors": errors, **outcome.detail}, f, indent=1)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
