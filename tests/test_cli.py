"""CLI surface: exit codes, report files, determinism."""
import json
import subprocess
import sys

import pytest

from spolab.cli import main


def run_cli(args):
    return main(list(args))


def test_verify_writes_json(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "factorization", "--n", "4",
                    "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "factorization"
    assert doc["totals"]["failed"] == 0
    assert all("runtime_ms" in case for case in doc["cases"])


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(["verify", "--suite", "gamma", "--n", "3",
                    "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,lhs,rhs,slack,pass,method,stderr,samples,runtime_ms"
    assert len(lines) > 1


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli(["verify", "--suite", "twirl", "--n", "2",
                        "--seed", "11", "--out", str(path)]) == 0

    def strip(path):
        doc = json.loads(path.read_text())
        for case in doc["cases"]:
            case.pop("runtime_ms", None)
        return doc

    assert strip(a) == strip(b)


@pytest.mark.parametrize("samples", ["1", "0"])
def test_verify_rejects_sampled_plan_below_2x2(tmp_path, capsys, samples):
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--suite", "fundamental", "--n", "8",
                    "--samples", samples, "--seed", "1", "--out", str(out)])
    assert code == 1
    assert "min_pairs" in capsys.readouterr().err
    assert not out.exists()


def test_verify_n_range(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--suite", "gamma", "--n", "2", "--n-max", "4",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    names = [c["name"] for c in doc["cases"]]
    assert any("n=2" in nm for nm in names) and any("n=4" in nm for nm in names)


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--suite", "nonsense", "--n", "4"])
    assert err.value.code == 2


def test_verify_budget_error_is_diagnosed(capsys):
    code = run_cli(["verify", "--suite", "help-norm", "--n", "9"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_attack_json(tmp_path):
    out = tmp_path / "attack.json"
    code = run_cli(["attack", "--kind", "sponge", "--n-bits", "3", "--c", "1",
                    "--iterations", "1", "--backend", "spo", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "sponge" and doc["q"] == 2
    assert 0 <= doc["success_mean"] <= 1


def test_bound_commands(capsys):
    assert run_cli(["bound", "--kind", "main", "--q", "1", "--n", "1048576",
                    "--r-max", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["raw"] == pytest.approx(1.383e-2, rel=1e-3)
    assert run_cli(["bound", "--kind", "sponge", "--q", "1", "--n-bits", "60",
                    "--c", "30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["raw"] == pytest.approx(5.277e-5, rel=1e-3)
    assert run_cli(["bound", "--kind", "zero-search", "--q", "1", "--n-bits",
                    "40", "--c", "40"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["raw"] == pytest.approx(6.82e-8, rel=1e-3)


def test_factorize_output(capsys):
    assert run_cli(["factorize", "2 3 1"]) == 0
    out = capsys.readouterr().out
    assert "t: 1 1 1" in out
    assert "cayley distance: 2" in out
    assert run_cli(["factorize", "1 2 3"]) == 0
    out = capsys.readouterr().out
    assert "t: 1 2 3" in out and "cayley distance: 0" in out


def test_factorize_rejects_non_bijection(capsys):
    assert run_cli(["factorize", "2 1 1"]) == 2
    assert "error" in capsys.readouterr().err


def test_factorize_consumes_factorization_format(capsys):
    assert run_cli(["factorize", "t: 1 1 1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "2 3 1"
    assert run_cli(["factorize", "t: 1 3"]) == 2  # factor out of range


def test_factorize_active_sets(capsys):
    assert run_cli(["factorize", "1 3 2", "--active", "2",
                    "--inverse-active", "2"]) == 0
    out = capsys.readouterr().out
    assert "active(2): 2 3" in out


def test_run_circuit(tmp_path, capsys):
    path = tmp_path / "circ.txt"
    path.write_text("n 4\nload 1\nquery fwd\noutput xy\n")
    assert run_cli(["run-circuit", str(path), "--backend", "concrete",
                    "--perm", "2 3 4 1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["queries"] == 1
    assert doc["distribution"]["1,2"] == pytest.approx(1.0)
    assert run_cli(["run-circuit", str(path), "--backend", "spo"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(doc["distribution"].values()) == pytest.approx(1.0)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spolab.cli", "bound", "--kind", "main",
         "--q", "2", "--n", "16", "--r-max", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["clamped"] == 1.0
