import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdchannel import channel as ch
from pdchannel import capacity, cli, polar, zoo


def _save(tmp_path, c, name="chan.json"):
    path = tmp_path / name
    ch.save_channel(c, str(path))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inspect_reports_json(tmp_path, capsys):
    path = _save(tmp_path, zoo.amplitude_damping(0.3))
    code, out, _ = _run(capsys, ["inspect", path])
    assert code == 0
    report = json.loads(out)
    assert report["dim_in"] == 2 and report["dim_out"] == 2
    assert report["kraus_count"] == 2
    assert report["tp_residual"] <= 1e-10
    assert report["choi_rank"] == 2
    assert report["dim_product_bound_ok"]
    assert report["env"]["tolerances"]["residual_tol"] == 1e-8


def test_inspect_eigendecomposes_the_choi_matrix_once(tmp_path, capsys, monkeypatch):
    # choi_min_eig and choi_rank come from the same eigendecomposition
    path = _save(tmp_path, zoo.amplitude_damping(0.2))
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    code, _, _ = _run(capsys, ["inspect", path])
    assert code == 0
    assert calls == [(4, 4)]


def test_inspect_missing_file_exits_2(tmp_path, capsys):
    code, _, err = _run(capsys, ["inspect", str(tmp_path / "nope.json")])
    assert code == 2
    assert "no such file" in err


def test_inspect_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["inspect", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_polar_missing_file_exits_2(tmp_path, capsys):
    code, _, err = _run(capsys, ["polar", str(tmp_path / "nope.json")])
    assert code == 2
    assert "no such file" in err


def test_polar_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["polar", str(path)])
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["inspect", "dir"],
        ["classify", "f.json", "--degrading", "dir"],
        ["zoo", "export", "dephasing", "--out", "missing/x.json"],
        ["zoo", "list", "--out", "missing/r.json"],
        ["polar", "l.json", "--out", "dir"],
    ],
    ids=["inspect-dir", "classify-degrading-dir", "export-missing-dir", "list-missing-dir",
         "polar-out-dir"],
)
def test_unusable_paths_exit_2(tmp_path, capsys, monkeypatch, argv):
    # a path that is a directory, or whose directory does not exist, is an
    # input error: one line on stderr, nothing on stdout, no file written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    _save(tmp_path, zoo.dephasing(0.3), "f.json")
    (tmp_path / "l.json").write_text(json.dumps(_VALID_LEDGER))
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == before


def _importtime(*args):
    """Run ``python -X importtime <args>``; return the finished process and
    the names of the modules it imported."""
    # -X importtime lists every module the process imports, as
    # "import time: self | cumulative | name" lines on stderr
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True)
    imported = [line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
                if line.startswith("import time:")]
    return res, imported


def test_capacity_command_never_loads_scipy(tmp_path):
    path = _save(tmp_path, zoo.amplitude_damping(0.2))
    res, imported = _importtime("-m", "pdchannel.cli", "capacity", path, "--restarts", "2")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["restarts_used"] == 2
    assert "pdchannel.optimize" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


def test_capacity_command_never_loads_numpy_random_or_hashlib(tmp_path):
    # the random starts come from the standard library's random.Random, so a
    # capacity process loads neither numpy.random nor secrets -> hashlib ->
    # OpenSSL; eight restarts on a qubit input draw five random starts. The
    # optimizer's result is a plain class, so dataclasses stays out too
    path = _save(tmp_path, zoo.amplitude_damping(0.2))
    res, imported = _importtime("-m", "pdchannel.cli", "capacity", path, "--tensor", "2", "--restarts", "8")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["restarts_used"] == 8
    assert "_random" in imported
    assert [m for m in imported if m.split(".")[0] in ("secrets", "hashlib", "_hashlib", "dataclasses")
            or m.startswith("numpy.random")] == []


@pytest.mark.parametrize(
    "args, code",
    [(("-c", "import pdchannel.cli"), 0), (("-m", "pdchannel.cli", "--help"), 0),
     (("-m", "pdchannel.cli", "polar", "LEDGER"), 0), (("-m", "pdchannel.cli", "capacity"), 2)],
    ids=["import", "help", "polar", "usage-error"],
)
def test_import_help_polar_and_usage_errors_never_load_numpy(tmp_path, args, code):
    # polar is exact rational arithmetic, and each command imports the
    # package modules it runs only when it runs
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps(_VALID_LEDGER))
    res, imported = _importtime(*(str(ledger) if a == "LEDGER" else a for a in args))
    assert res.returncode == code, res.stderr
    assert "pdchannel.config" in imported
    # the listing also shows the modules a command imports when it runs
    assert ("pdchannel.polar" in imported) == ("polar" in args)
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


def test_inspect_command_loads_no_solver(tmp_path):
    path = _save(tmp_path, zoo.amplitude_damping(0.2))
    res, imported = _importtime("-m", "pdchannel.cli", "inspect", path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["choi_rank"] == 2
    assert "pdchannel.qmat" in imported
    assert {"pdchannel.capacity", "pdchannel.optimize", "pdchannel.degradability"} & set(imported) == set()


def test_classify_degradable(tmp_path, capsys):
    path = _save(tmp_path, zoo.amplitude_damping(0.2))
    code, out, _ = _run(capsys, ["classify", path])
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "DEGRADABLE"
    assert report["solutions"]["B->E"]["success"]


def test_classify_with_degrading_map(tmp_path, capsys):
    n_ab, _ = zoo.symmetric_pd_channel()
    path = _save(tmp_path, n_ab)
    dpath = _save(tmp_path, zoo.d_e_to_eprime(repair=True), "deg.json")
    code, out, _ = _run(capsys, ["classify", path, "--degrading", dpath])
    assert code == 0
    assert json.loads(out)["label"] == "DEGRADABLE_PD"


def test_capacity_report(tmp_path, capsys):
    path = _save(tmp_path, zoo.erasure(0.25))
    code, out, _ = _run(capsys, ["capacity", path, "--restarts", "4", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(0.5, abs=1e-3)
    assert report["env"]["seed"] == 7 and report["env"]["restarts"] == 4
    assert report["env"]["tol"] == 1e-6


def test_capacity_report_is_the_maximizer_dict(tmp_path, capsys):
    # the CLI prints the maximizer's dict as it is, next to its env
    c = zoo.amplitude_damping(0.2)
    code, out, _ = _run(capsys, ["capacity", _save(tmp_path, c), "--restarts", "8"])
    assert code == 0
    report = json.loads(out)
    report.pop("env")
    assert report == capacity.maximize_coherent_information(c, restarts=8)


@pytest.mark.parametrize("command", ["inspect", "classify", "polar"])
@pytest.mark.parametrize("flag", ["--seed", "--restarts"])
def test_optimizer_settings_only_on_capacity(tmp_path, capsys, command, flag):
    # only capacity reads --seed and --restarts; elsewhere they are usage errors
    path = _save(tmp_path, zoo.amplitude_damping(0.2))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, path, flag, "3"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_bad_max_dim_env_exits_2(monkeypatch, capsys):
    for value in ("abc", "0"):
        monkeypatch.setenv("QPD_MAX_DIM", value)
        code, _, err = _run(capsys, ["zoo", "list"])
        assert code == 2
        assert "QPD_MAX_DIM" in err and repr(value) in err
    # more digits than Python converts to an int
    monkeypatch.setenv("QPD_MAX_DIM", "9" * 5000)
    code, _, err = _run(capsys, ["zoo", "list"])
    assert code == 2
    assert "QPD_MAX_DIM" in err and "5000 digits" in err


def test_classify_respects_the_side_cap(tmp_path, monkeypatch, capsys):
    # horodecki(3.5)'s B->E solve needs transfer matrices of side 7^2 = 49
    monkeypatch.setenv("QPD_MAX_DIM", "20")
    code, out, err = _run(capsys, ["classify", _save(tmp_path, zoo.horodecki_channel(3.5))])
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    # amplitude damping's sides are all 4
    code, out, _ = _run(capsys, ["classify", _save(tmp_path, zoo.amplitude_damping(0.2))])
    assert code == 0 and json.loads(out)["env"]["max_dim"] == 20


def test_inspect_respects_the_side_cap(tmp_path, monkeypatch, capsys):
    # a 20 -> 20 channel has a Choi matrix of side 400
    monkeypatch.setenv("QPD_MAX_DIM", "100")
    code, out, err = _run(capsys, ["inspect", _save(tmp_path, ch.identity_channel(20))])
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_json_reports_write_witness_arrays_one_row_a_line(tmp_path, capsys):
    # every other part of a report is json.dumps(indent=2, sort_keys=True)
    report = {"b": [1.5, {"c": None}, []], "a": {"x": "\u00e9", "e": {}}, "t": (True, 2)}
    assert cli._json(report) == json.dumps(report, indent=2, sort_keys=True)
    code, out, _ = _run(capsys, ["classify", _save(tmp_path, zoo.amplitude_damping(0.2))])
    assert code == 0
    witness = json.loads(out)["solutions"]["E->B"]["witness"]
    rows = {json.dumps(row) for row in witness["Y"] + witness["z"]}
    assert rows <= {line.strip().rstrip(",") for line in out.splitlines()}


def test_capacity_tensor_gate(tmp_path, capsys, monkeypatch):
    # a probe that cannot run is refused before any maximization
    calls = []
    monkeypatch.setattr(capacity, "maximize_coherent_information", lambda *a, **k: calls.append(1))
    path = _save(tmp_path, zoo.dephasing(0.3))
    for value in ("3", "0"):
        code, _, err = _run(capsys, ["capacity", path, "--tensor", value])
        assert code == 2 and "--tensor" in err
    # dim_in = 5: one copy fits MAX_OPT_DIM, two copies (25) do not
    path = _save(tmp_path, zoo.depolarizing(0.3, d=5), "d5.json")
    code, _, err = _run(capsys, ["capacity", path, "--tensor", "2"])
    assert code == 2 and "exceeds" in err
    assert calls == []


@pytest.mark.parametrize(
    "entry, d, max_dim",
    [("erasure", "0", None), ("erasure", "-1", None), ("depolarizing", "0", None),
     ("depolarizing", "-1", None), ("depolarizing", "5", "16"), ("erasure", "4", "16")],
)
def test_zoo_export_bad_side_exits_2(monkeypatch, capsys, entry, d, max_dim):
    if max_dim is not None:
        monkeypatch.setenv("QPD_MAX_DIM", max_dim)
    code, out, err = _run(capsys, ["zoo", "export", entry, "--d", d])
    assert code == 2 and out == ""
    # one message line, no traceback
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_polar_report_and_violation_exit(tmp_path, capsys):
    from fractions import Fraction as F

    good = polar.PolarLedger(
        g_amp=F(1), g_phase=F(1, 2), p1=F(1, 4), p1_prime=F(1, 8),
        p2=F(0), p2_prime=F(0), b=F(0), regime="DEGRADABLE_PD",
    )
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(polar.ledger_to_dict(good)))
    code, out, _ = _run(capsys, ["polar", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["rates"]["rate_pd_degradable"] == "7/8"
    assert report["violations"] == []

    bad = polar.PolarLedger(
        g_amp=F(1, 2), g_phase=F(1, 2), p1=F(1, 4), p1_prime=F(1, 8),
        p2=F(0), p2_prime=F(0), b=F(0), regime="DEGRADABLE_PD",
    )
    path.write_text(json.dumps(polar.ledger_to_dict(bad)))
    code, out, _ = _run(capsys, ["polar", str(path)])
    assert code == 3
    assert json.loads(out)["violations"]


def test_zoo_list_and_export(tmp_path, capsys):
    code, out, _ = _run(capsys, ["zoo", "list"])
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["id"] for e in entries] == zoo.zoo_ids()

    dest = tmp_path / "horo.json"
    code, out, _ = _run(
        capsys, ["zoo", "export", "horodecki", "--alpha", "4.0", "--out", str(dest)]
    )
    assert code == 0
    loaded = ch.load_channel(str(dest))
    assert (loaded.dim_in, loaded.dim_out) == (3, 3)

    code, _, err = _run(capsys, ["zoo", "export"])
    assert code == 2 and "entry id" in err


def test_zoo_export_accepts_exactly_the_registry_parameters(tmp_path, capsys):
    defaults = {i: zoo.build_entry(i).params for i in zoo.zoo_ids()}
    names = {k for params in defaults.values() for k in params}
    args = vars(cli.build_parser().parse_args(["zoo", "list"]))
    assert set(args) - {"command", "func", "action", "id", "out", "format"} == names
    assert set(zoo.parameter_types()) == names
    for entry_id, params in defaults.items():
        # every parameter spelled out at its default: a bool is a bare flag
        flags = [f"--{k}" if v is True else f"--{k}={v}" for k, v in params.items() if v is not False]
        code, out, _ = _run(capsys, ["zoo", "export", entry_id, *flags, "--out", str(tmp_path / "c.json")])
        assert code == 0 and json.loads(out)["params"] == params, entry_id
        for k, v in params.items():
            assert type(v) is zoo.parameter_types()[k], (entry_id, k)
    with pytest.raises(SystemExit) as exc:
        cli.main(["zoo", "export", "erasure", "--beta", "1"])
    assert exc.value.code == 2
    # each type reaches argparse, whose messages name it: a numpy scalar
    # default would print "invalid float64 value"
    assert set(zoo.parameter_types().values()) <= {float, int, bool}
    with pytest.raises(SystemExit) as exc:
        cli.main(["zoo", "export", "d_e_to_eprime", "--a1", "abc"])
    assert exc.value.code == 2 and "argument --a1: invalid float value: 'abc'" in capsys.readouterr().err


def test_classify_has_no_conjugate_flag(tmp_path, capsys):
    path = _save(tmp_path, zoo.amplitude_damping(0.2))
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", path, "--conjugate"])
    assert exc.value.code == 2 and "unrecognized arguments: --conjugate" in capsys.readouterr().err


def test_text_format_renders_report(tmp_path, capsys):
    path = _save(tmp_path, zoo.amplitude_damping(0.3))
    out_file = tmp_path / "report.txt"
    code, _, _ = _run(
        capsys, ["inspect", path, "--format", "text", "--out", str(out_file)]
    )
    assert code == 0
    text = out_file.read_text()
    assert "dim_in: 2" in text
    assert "tolerances:" in text


def test_text_format_renders_capacity_report(tmp_path, capsys):
    path = _save(tmp_path, zoo.erasure(0.25))
    code, out, _ = _run(
        capsys, ["capacity", path, "--restarts", "4", "--seed", "7", "--format", "text"]
    )
    assert code == 0
    assert "converged: " in out
    status = next(line for line in out.splitlines() if line.startswith("per_restart_status: "))
    assert len(json.loads(status.split(": ", 1)[1])) == 4


def test_report_to_file_is_valid_json(tmp_path, capsys):
    path = _save(tmp_path, zoo.dephasing(0.3))
    out_file = tmp_path / "report.json"
    code, stdout, _ = _run(capsys, ["inspect", path, "--out", str(out_file)])
    assert code == 0 and stdout == ""
    json.loads(out_file.read_text())


@pytest.mark.parametrize(
    "flags",
    [["--restarts", "0"], ["--restarts", "-3"], ["--seed", "-1"], ["--tol", "nan"],
     ["--tol", "inf"], ["--tol=-1e-6"]],
)
def test_bad_capacity_settings_exit_2(tmp_path, capsys, flags):
    path = _save(tmp_path, zoo.dephasing(0.3))
    code, out, err = _run(capsys, ["capacity", path, *flags])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


_VALID_CHANNEL = ch.channel_to_dict(zoo.amplitude_damping(0.2))
_VALID_LEDGER = {
    "regime": "DEGRADABLE_PD",
    "fractions": {"g_amp": "1", "g_phase": "1/2", "p1": "1/4", "p1_prime": "1/8",
                  "p2": "0", "p2_prime": "0", "b": "0"},
}


def _with(record, **changes):
    return {**json.loads(json.dumps(record)), **changes}


def _main_on_text(command, text):
    """Exit code and stderr of ``pdchannel <command>`` on a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as f:
            f.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, path])
    return code, err.getvalue()


def _assert_input_error(command, text):
    code, err = _main_on_text(command, text)
    assert code == 2, (text[:200], err)
    assert err.startswith("error: ") and "Traceback" not in err


_RAGGED = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]


@pytest.mark.parametrize(
    "command, text",
    [
        ("inspect", "[1, 2]"),
        ("inspect", json.dumps(_with(_VALID_CHANNEL, kraus=5))),
        ("inspect", json.dumps(_with(_VALID_CHANNEL, dim_in=1, dim_out=1, kraus=[[["x", 0]]]))),
        ("inspect", json.dumps(_with(_VALID_CHANNEL, kraus=[_RAGGED]))),
        ("inspect", json.dumps(_VALID_CHANNEL).replace('"dim_in": 2', '"dim_in": 1e400')),
        ("inspect", '{"dim_in": ' + "1" * 5000 + "}"),
        ("inspect", "[" * 100000 + "]" * 100000),
        ("polar", "[1, 2]"),
        ("polar", json.dumps(_VALID_LEDGER).replace('"1/2"', '"1/0"')),
        ("polar", json.dumps(_VALID_LEDGER).replace('"1/2"', '"1e999999999"')),
        ("polar", json.dumps(_VALID_LEDGER).replace('"1/2"', "0.5")),
        ("inspect", json.dumps(_with(_VALID_CHANNEL, dim_in=2.7))),
        ("inspect", json.dumps(_with(_VALID_CHANNEL, dim_out="2"))),
        ("inspect", json.dumps(_with(_VALID_CHANNEL, dim_in=True, dim_out=1, kraus=[[[[1.0, 0.0]]]]))),
        ("polar", json.dumps(_VALID_LEDGER).replace('"1/2"', "true")),
        ("inspect", json.dumps(_with(_VALID_CHANNEL, name=[1, {"a": None}]))),
    ],
    ids=["list", "kraus-int", "non-numeric", "ragged", "dim-1e400", "dim-5000-digits",
         "nested-100000", "ledger-list", "fraction-1/0", "fraction-exponent", "fraction-float",
         "dim-float", "dim-string", "dim-true", "fraction-true", "name-list"],
)
def test_malformed_input_files_exit_2(command, text):
    _assert_input_error(command, text)


def test_infinite_imaginary_part_exits_2_with_one_line(tmp_path):
    # an infinite part must be refused before the real and imaginary parts
    # combine, where numpy would print a RuntimeWarning ahead of the error
    path = tmp_path / "inf.json"
    path.write_text('{"name": "inf", "dim_in": 1, "dim_out": 1, "kraus": [[[[0, 1e400]]]]}')
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-m", "pdchannel.cli", "inspect", str(path)],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = _run(capsys, ["inspect", str(path)])
    assert code == 2 and "cannot read" in err


def test_valid_fuzz_bases_load():
    assert _main_on_text("inspect", json.dumps(_VALID_CHANNEL))[0] == 0
    assert _main_on_text("polar", json.dumps(_VALID_LEDGER))[0] == 0


# Each strategy below breaks a valid record in one way that no reading of
# the file format accepts, so every example must end in exit 2.
_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_junk = st.one_of(st.none(), st.text("abcxyz", min_size=1), st.dictionaries(st.text("ab"), st.integers()),
                  st.lists(st.integers(), max_size=3))
_non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def _broken_operator(draw):
    op = np.array(_VALID_CHANNEL["kraus"][0], dtype=object)
    kind = draw(st.sampled_from(["entry", "shape", "ragged"]))
    if kind == "shape":
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)
                     .filter(lambda s: s != (2, 2, 2)))
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(-2, 2))).tolist()
    if kind == "ragged":
        out = op.tolist()
        row = draw(st.integers(0, 1))
        out[row] = out[row][: draw(st.integers(0, 1))]
        return out
    index = tuple(draw(st.integers(0, 1)) for _ in range(3))
    op[index] = draw(st.one_of(_junk, _non_finite))
    return op.tolist()


_bad_dim = st.one_of(
    st.integers().filter(lambda v: v != 2),
    st.integers(min_value=10**15, max_value=10**300),
    st.floats(),
    st.booleans(),
    _junk,
)


@st.composite
def _broken_channel(draw):
    kind = draw(st.sampled_from(["top", "dim", "kraus", "operator", "name", "missing"]))
    if kind == "top":
        return draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text("ab"), st.none()))
    if kind == "dim":
        return _with(_VALID_CHANNEL, **{draw(st.sampled_from(["dim_in", "dim_out"])): draw(_bad_dim)})
    if kind == "kraus":
        return _with(_VALID_CHANNEL, kraus=draw(st.one_of(st.just([]), st.integers(), st.text("ab"), st.none(),
                                                         st.dictionaries(st.text("ab"), st.integers()))))
    if kind == "operator":
        kraus = list(_VALID_CHANNEL["kraus"])
        kraus[draw(st.integers(0, 1))] = draw(_broken_operator())
        return _with(_VALID_CHANNEL, kraus=kraus)
    if kind == "name":
        return _with(_VALID_CHANNEL, name=draw(st.one_of(_junk.filter(lambda v: not isinstance(v, str)),
                                                         st.integers(), st.floats(), st.booleans())))
    record = _with(_VALID_CHANNEL)
    del record[draw(st.sampled_from(["dim_in", "dim_out", "kraus"]))]
    return record


@_FUZZ
@given(_broken_channel())
def test_fuzzed_channel_files_exit_2(record):
    _assert_input_error("inspect", json.dumps(record))


_bad_fraction = st.one_of(
    st.floats(),
    st.integers().map(lambda n: f"{n}/0"),
    st.tuples(st.integers(), st.integers(0, 10**6)).map(lambda t: f"{t[0]}e{t[1]}"),
    st.booleans(),
    _junk,
)


@st.composite
def _broken_ledger(draw):
    kind = draw(st.sampled_from(["top", "fractions", "fraction", "regime", "missing"]))
    if kind == "top":
        return draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text("ab"), st.none()))
    if kind == "fractions":
        return _with(_VALID_LEDGER, fractions=draw(st.one_of(st.lists(st.text("12/"), max_size=3), st.integers(),
                                                              st.text("ab"), st.none())))
    if kind == "fraction":
        record = _with(_VALID_LEDGER)
        record["fractions"][draw(st.sampled_from(sorted(record["fractions"])))] = draw(_bad_fraction)
        return record
    if kind == "regime":
        return _with(_VALID_LEDGER, regime=draw(st.one_of(st.text().filter(lambda r: r not in polar.REGIMES),
                                                          st.integers(), st.none())))
    record = _with(_VALID_LEDGER)
    if draw(st.booleans()):
        del record["regime"]
    else:
        del record["fractions"][draw(st.sampled_from(sorted(record["fractions"])))]
    return record


@_FUZZ
@given(_broken_ledger())
def test_fuzzed_ledger_files_exit_2(record):
    _assert_input_error("polar", json.dumps(record))


def _module_run(cwd, *args):
    # without PYTHONUNBUFFERED, stdout reaches the pipe only when flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    return subprocess.run([sys.executable, "-m", "pdchannel.cli", *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_commands_exit_with_their_output_complete(tmp_path, capsys):
    # a command process ends without the interpreter's teardown, after
    # flushing; its report and the file it wrote are the in-process ones
    res = _module_run(tmp_path, "zoo", "export", "amplitude_damping", "--out", "f.json")
    code, out, err = _run(capsys, ["zoo", "export", "amplitude_damping", "--out", str(tmp_path / "g.json")])
    assert (res.returncode, res.stdout, res.stderr) == (code, out, err) == (0, out, "")
    assert json.loads(out)["id"] == "amplitude_damping"
    assert (tmp_path / "f.json").read_bytes() == (tmp_path / "g.json").read_bytes()
    res = _module_run(tmp_path, "inspect", "missing.json")
    assert (res.returncode, res.stdout, res.stderr) == (2, "", "error: no such file: missing.json\n")
    # in process, main returns the code and the process goes on
    assert cli.main(["inspect", str(tmp_path / "missing.json")]) == 2


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as f:
        assert tomllib.load(f)["project"]["scripts"] == {"pdchannel": "pdchannel.cli:run"}


def test_failed_flush_leaves_the_exit_to_sys_exit(monkeypatch):
    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail(f"os._exit({code}) after a failed flush"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3
