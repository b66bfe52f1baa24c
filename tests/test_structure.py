"""Module boundaries of the package: no module reads another package
module's private (single-underscore) names, and ``import pdchannel`` loads
a submodule only when it is first read."""

import ast
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdchannel
from pdchannel import capacity, degradability, qmat, zoo
from pdchannel import entanglement as ent
from pdchannel.config import TOL
from pdchannel.errors import DimMismatch

SRC = Path(pdchannel.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path: Path) -> list:
    """``module.name:line -> other.private`` for each private name of another
    package module that ``path`` reads, through a module alias or a
    ``from .other import _name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, found = {}, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            if node.module is None:
                # from . import capacity as capmod
                aliases[alias.asname or alias.name] = alias.name
            elif _is_private(alias.name):
                found.append(f"{path.stem}:{node.lineno} -> {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _is_private(node.attr)
        ):
            found.append(f"{path.stem}:{node.lineno} -> {aliases[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _private_reads(path)]
    assert found == []


def test_guard_sees_alias_and_from_import_reads(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import capacity as capmod\n"
        "from .degradability import _cptp_refine, solve_degrading_map\n"
        "capmod._objective(capmod.maximize_coherent_information, capmod.__name__)\n"
    )
    assert _private_reads(path) == [
        "sample:2 -> degradability._cptp_refine",
        "sample:3 -> capacity._objective",
    ]


def _max_dim_reads(path: Path) -> list:
    """``module.function`` for each read of ``max_dim`` in ``path``, by name,
    attribute or import, named by the innermost enclosing function."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
        if "max_dim" in names + [getattr(node, "id", None), getattr(node, "attr", None)]:
            found.append(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_side_cap_is_read_in_one_place():
    # every size refusal goes through config.check_side; the only other
    # reader of the cap is the env echo of the CLI reports
    found = [hit for path in sorted(SRC.glob("*.py")) if path.stem != "config" for hit in _max_dim_reads(path)]
    assert found == ["cli.<module>", "cli._report_env"]


def _eigensolver_calls(path: Path) -> list:
    """``module:line`` for each call of ``np.linalg.eigh`` or
    ``np.linalg.eigvalsh`` in ``path``."""
    return [
        f"{path.stem}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("eigh", "eigvalsh")
        and ast.unparse(node.func.value) == "np.linalg"
    ]


def test_only_qmat_calls_the_eigensolvers():
    # every eigensolve takes the Hermitian part through qmat.eigh or
    # qmat.eigvalsh, which alone call numpy's solvers
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _eigensolver_calls(path)]
    assert [hit.split(":")[0] for hit in found] == ["qmat", "qmat"]


# every public function of the package with a ``dims`` parameter: a call on
# a state and an annotation, and the number of factors that call takes
DIMS_CALLS = {
    "qmat.check_factors": (lambda m, dims: qmat.check_factors(m, dims, 2), 2),
    "qmat.partial_trace": (lambda m, dims: qmat.partial_trace(m, dims, [0, 1]), 2),
    "qmat.partial_transpose": (qmat.partial_transpose, 2),
    "entanglement.ppt_check": (ent.ppt_check, 2),
    "entanglement.realign": (ent.realign, 2),
    "entanglement.ccnr": (ent.ccnr, 2),
    "entanglement.bound_entanglement_report": (ent.bound_entanglement_report, 2),
    "capacity.ssa_check": (capacity.ssa_check, 3),
}


def _dims_readers() -> set:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module(f"pdchannel.{path.stem}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                if "dims" in inspect.signature(obj).parameters:
                    found.add(f"{path.stem}.{name}")
    return found


def test_every_dims_reader_refuses_a_bad_annotation():
    # qmat.check_factors reads every tensor-factor annotation: a factor that
    # is no integer, factors below 1 whose product is the side, or the wrong
    # number of factors end in DimMismatch, never in numpy's ValueError
    assert set(DIMS_CALLS) == _dims_readers()
    for call, count in DIMS_CALLS.values():
        call(np.eye(2**count) / 2**count, (2,) * count)
        # each bad annotation but the last has the call's number of factors
        ones = (1,) * (count - 2)
        for dims in ((2.5, 1.6) + ones, (-2, -2) + ones, ("2", "2") + ones, (2.0, 2.0) + ones, (4,)):
            with pytest.raises(DimMismatch):
                call(np.eye(4) / 4, dims)
    m, dims = qmat.check_factors(np.eye(4), np.array([2, 2]))
    assert dims == (2, 2) and all(type(d) is int for d in dims)


def test_pd_layer_takes_one_argument_order():
    # N_AB, then the E->E' map, then the B->E' map, wherever the PD
    # identity D^{B->E'} o N_AB = D^{E->E'} o N_AE is read
    want = ["n_ab", "d_e_to_eprime", "d_b_to_eprime"]
    for f, count in ((degradability.verify_pd_identity, 3), (capacity.coherent_information_pd, 3),
                     (degradability.classify_pd, 2)):
        assert list(inspect.signature(f).parameters)[:count] == want[:count], f.__name__


def test_lockstep_runs_end_through_one_exit():
    # every stop of minimize_many, the certified gap included, is a row of
    # its message table and builds its result at one site
    def returns(node):
        return {n for n in ast.walk(node) if isinstance(n, ast.Return)}

    tree = ast.parse((SRC / "optimize.py").read_text())
    many = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "minimize_many")
    nested = [n for n in ast.walk(many) if isinstance(n, ast.FunctionDef) and n is not many]
    assert len(returns(many).difference(*map(returns, nested))) == 1
    built = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and ast.unparse(n.func) == "OptimizeResult"]
    assert len(built) == 1


def _emitted_stops(path: Path) -> set:
    """The string literals ``path`` gives the key ``stop``, in a dict literal
    or by item assignment."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        pairs = []
        if isinstance(node, ast.Dict):
            pairs = zip(node.keys, node.values)
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Subscript):
            pairs = [(node.targets[0].slice, node.value)]
        for key, value in pairs:
            if isinstance(key, ast.Constant) and key.value == "stop":
                assert isinstance(value, ast.Constant), ast.dump(value)
                found.add(value.value)
    return found


def test_stop_values_match_the_readme_table():
    # the README's stop table has one row for each stop a solve can report
    lines = (SRC.parent.parent / "README.md").read_text().splitlines()
    head = lines.index("| stop | where the search ended |")
    rows = []
    for line in lines[head + 2:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    assert "refine_cap" in rows and sorted(rows) == sorted(_emitted_stops(SRC / "degradability.py"))


def test_degradability_leaves_the_optimizer_to_capacity():
    # a degrading-map solve is decided by convex certificates alone: it
    # needs neither the coherent-information machinery nor the optimizer
    tree = ast.parse((SRC / "degradability.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {alias.name for alias in node.names} | {node.module}
    assert not imported & {"capacity", "optimize"}


def test_package_imports_a_submodule_on_first_attribute_access():
    script = (
        "import json, sys\n"
        "import pdchannel\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('pdchannel.'))\n"
        "resolved = {n: getattr(pdchannel, n) is sys.modules['pdchannel.' + n] for n in pdchannel.__all__}\n"
        "try:\n"
        "    pdchannel.no_such_module\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([loaded, pdchannel.__all__, resolved, error]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded, names, resolved, error = json.loads(res.stdout)
    assert loaded == []
    assert names == ["capacity", "channel", "config", "degradability", "entanglement", "polar", "qmat", "zoo"]
    assert resolved == dict.fromkeys(names, True)
    assert "no_such_module" in error


def test_cli_import_loads_no_dataclasses():
    # start-up of every command, --help and usage errors included; the
    # tolerances stay read-only without a frozen dataclass
    with pytest.raises(AttributeError):
        TOL.herm_tol = 0.0
    assert TOL.as_dict() == {"herm_tol": 1e-10, "psd_tol": -1e-9, "residual_tol": 1e-8, "pinv_cutoff": 1e-10}
    script = "import sys\nimport pdchannel.cli\nprint('dataclasses' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_refinement_core_knows_no_channel():
    # the Douglas-Rachford core reads its problem only through the closures
    # the solve hands it; one TP-residual formula serves core and certificate
    tree = ast.parse((SRC / "degradability.py").read_text())
    core = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_cptp_refine")
    named = {ast.unparse(n) for n in ast.walk(core) if isinstance(n, (ast.Name, ast.Attribute))}
    channel_side = {"choi_of_transfer", "transfer_of_choi", "transfer_matrix", "_probe_residual", "qmat",
                    "chmod", "np.linalg.eigh"}
    assert named & channel_side == set()
    calls = {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert "qmat.partial_trace" not in calls


def test_every_zoo_entry_is_its_builder():
    # an entry's parameters and defaults are its builder's signature: a
    # named function of pdchannel.zoo with a default for every parameter,
    # which build_entry reports as the params of the entry at its defaults
    for entry_id, entry in zoo._REGISTRY.items():
        builder = entry[0]
        assert inspect.isfunction(builder) and builder.__name__ != "<lambda>", entry_id
        assert builder.__module__ == "pdchannel.zoo" and getattr(zoo, builder.__name__) is builder, entry_id
        params = inspect.signature(builder).parameters.values()
        assert all(p.default is not p.empty for p in params), entry_id
        assert zoo.build_entry(entry_id)[0]["params"] == {p.name: p.default for p in params}, entry_id


def test_bench_tracer_wraps_the_names_it_patches(tmp_path):
    # the bench's per-layer mode patches the optimizer entry point by name and
    # wraps every public function of the package modules: a renamed or
    # dropped name breaks it while every other test passes
    spec = importlib.util.spec_from_file_location("bench_tracer", SRC.parents[1] / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    if not hasattr(tracer_mod.Tracer, "installed"):
        pytest.skip("the bench tracer no longer patches the package, so no name of it needs to hold")
    from pdchannel import capacity, channel, cli, polar

    ad = tmp_path / "ad.json"
    channel.save_channel(zoo.amplitude_damping(0.2), str(ad))
    ledger = tmp_path / "ledger.json"
    fractions = dict(g_amp=1, g_phase="1/2", p1="1/4", p1_prime="1/8", p2=0, p2_prime=0, b=0)
    ledger.write_text(json.dumps(polar.ledger_to_dict(polar.PolarLedger(regime="DEGRADABLE_PD", **fractions))))
    commands = [["classify", ad], ["capacity", ad, "--tensor", "2"], ["inspect", ad], ["zoo", "list"],
                ["zoo", "export", "erasure"], ["polar", ledger]]
    originals = (capacity.optimize.minimize, np.linalg.eigh, cli.main)
    tracer = tracer_mod.Tracer()
    with tracer.installed(pdchannel):
        codes = [cli.main([str(a) for a in argv]) for argv in commands]
    assert codes == [0] * len(commands)
    layers = tracer.per_layer()
    for metric in ("degradability.solve.calls", "kernel.eigh.calls", "zoo.build_entry.calls", "polar.s"):
        assert layers[metric] > 0, metric
    assert layers["capacity.maximize.calls"] == 1
    assert (capacity.optimize.minimize, np.linalg.eigh, cli.main) == originals
    # per_layer reads calls (c) and seconds (s) by "<module>.<name>": a name
    # that is no longer a public function of that module reads 0, not an error
    keys = re.findall(r'\b[cs]\["(\w+)\.(\w+)"\]', inspect.getsource(tracer_mod.Tracer.per_layer))
    keys = {(m, n) for m, n in keys if m in tracer_mod.MODULES}
    assert ("degradability", "solve_degrading_map") in keys
    for mod_name, name in sorted(keys):
        mod = importlib.import_module(f"pdchannel.{mod_name}")
        fn = getattr(mod, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), f"{mod_name}.{name}"
        assert fn.__module__ == mod.__name__, f"{mod_name}.{name}"
