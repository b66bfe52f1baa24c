import json
import os
import subprocess
import sys

import pytest

from pdchannel import channel as ch
from pdchannel import cli, polar, zoo


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is needed by the capacity command alone and loads on its first use
    code = "import sys, pdchannel.cli; assert 'scipy' not in sys.modules, 'scipy loaded'"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


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


def test_bad_max_dim_env_exits_2(monkeypatch, capsys):
    for value in ("abc", "0"):
        monkeypatch.setenv("QPD_MAX_DIM", value)
        code, _, err = _run(capsys, ["zoo", "list"])
        assert code == 2
        assert "QPD_MAX_DIM" in err and repr(value) in err


def test_capacity_tensor_gate(tmp_path, capsys):
    path = _save(tmp_path, zoo.dephasing(0.3))
    code, _, err = _run(capsys, ["capacity", path, "--tensor", "3"])
    assert code == 2 and "--tensor" in err


def test_polar_report_and_violation_exit(tmp_path, capsys):
    from fractions import Fraction as F

    good = polar.PolarLedger(
        g_amp=F(1), g_phase=F(1, 2), p1=F(1, 4), p1_prime=F(1, 8),
        p2=F(0), p2_prime=F(0), b=F(0), regime="DEGRADABLE_PD",
    )
    path = tmp_path / "ledger.json"
    polar.save_ledger(good, str(path))
    code, out, _ = _run(capsys, ["polar", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["rates"]["rate_pd_degradable"] == "7/8"
    assert report["violations"] == []

    bad = polar.PolarLedger(
        g_amp=F(1, 2), g_phase=F(1, 2), p1=F(1, 4), p1_prime=F(1, 8),
        p2=F(0), p2_prime=F(0), b=F(0), regime="DEGRADABLE_PD",
    )
    polar.save_ledger(bad, str(path))
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
