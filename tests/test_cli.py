"""CLI surface: exit codes, report files, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

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
    assert doc["config"]["samples"] is None  # nothing sampled
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


@pytest.mark.parametrize("samples", ["1", "0", "4", "169"])
def test_verify_rejects_sampled_plan_below_2x2(tmp_path, capsys, monkeypatch,
                                               samples):
    """A sampled fundamental grid below 14 x 14 is refused before its plan
    is built."""
    import spolab.suites as suites_mod

    def no_plan(*args, **kwargs):
        raise AssertionError("built a plan before the size check")

    monkeypatch.setattr(suites_mod, "make_twirl_plan", no_plan)
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


def test_verify_n_max_below_n_is_usage_error(monkeypatch, capsys):
    import spolab.cli as cli_mod

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before the size range was checked")

    monkeypatch.setattr(cli_mod, "run_suite", no_suite)
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--suite", "factorization", "--n", "4", "--n-max", "2"])
    assert err.value.code == 2
    assert "--n-max 2 is below --n 4" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--suite", "help-norm", "--n", "0"], "--n 0 is below 1"),
    (["--suite", "gamma", "--n", "2", "--n-max", "0"], "--n-max 0 is below --n 2"),
    (["--suite", "progress", "--n", "4", "--samples", "7"], "--samples"),
    (["--suite", "fundamental", "--n", "4", "--samples", "2000"], "--samples"),
    (["--suite", "all", "--n", "6", "--samples", "2000"], "--samples"),
])
def test_verify_usage_errors_come_before_any_output(monkeypatch, capsys, args,
                                                    message):
    """A size below 1, and --samples on a run that samples no twirl grid
    (only --suite fundamental above N = 4 does), exit 2 before a suite runs."""
    import spolab.cli as cli_mod

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before the options were checked")

    monkeypatch.setattr(cli_mod, "run_suite", no_suite)
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", *args])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--suite", "nonsense", "--n", "4"])
    assert err.value.code == 2


def test_verify_budget_error_is_diagnosed(capsys):
    code = run_cli(["verify", "--suite", "help-norm", "--n", "9"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("suite,message", [
    ("spo-equivalence", "spo-equivalence suite needs n in {2, 4}, got n=1"),
    ("twirl", "twirl suite needs n in {2, 4}, got n=1"),
    ("progress", "progress suite runs exhaustively at n in {2, 4}, got n=1"),
    ("sparsity", "sparsity suite runs at n in {2, 4}, got n=1"),
    ("theorem", "theorem suite runs exhaustively at n in {2, 4}, got n=1"),
])
def test_verify_exhaustive_suites_refuse_n_1_before_any_run(monkeypatch, capsys,
                                                            suite, message):
    """n = 1 is a power of two but not a size these suites run at: each
    exits 1 with its own message before any circuit runs or plan is built
    (spo-equivalence used to die in numpy on an empty Z != 0 slice)."""
    import spolab.circuits as circuits_mod
    import spolab.suites as suites_mod

    def no_work(*args, **kwargs):
        raise AssertionError("the suite did work before refusing n = 1")

    monkeypatch.setattr(circuits_mod, "_execute", no_work)
    monkeypatch.setattr(suites_mod, "make_twirl_plan", no_work)
    assert run_cli(["verify", "--suite", suite, "--n", "1"]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_verify_gamma_over_budget_exits_1_before_any_matrix(monkeypatch, capsys):
    """At N = 8 one 8! x 8! matrix alone exceeds the amplitude budget; the
    refusal comes before any Gamma or W matrix is built."""
    import spolab.lemmas as lemmas_mod

    def no_build(*args, **kwargs):
        raise AssertionError("a Gamma or W matrix was built before the budget check")

    for name in ("cycle_average", "_cycle_maps"):
        monkeypatch.setattr(lemmas_mod, name, no_build)
    code = run_cli(["verify", "--suite", "gamma", "--n", "8"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: Gamma at n=8 needs 3 dense 40320 x 40320 matrices" in err
    assert "budget 268435456" in err


def test_attack_json(tmp_path):
    out = tmp_path / "attack.json"
    code = run_cli(["attack", "--kind", "sponge", "--n-bits", "3", "--c", "1",
                    "--iterations", "1", "--backend", "spo", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "sponge" and doc["q"] == 2
    assert 0 <= doc["success_mean"] <= 1


@pytest.mark.parametrize("extra, target", [([], 0), (["--target", "3"], 3)])
def test_sponge_attack_json_records_its_target(tmp_path, extra, target):
    out = tmp_path / "attack.json"
    assert run_cli(["attack", "--kind", "sponge", "--n-bits", "3", "--c", "1",
                    "--iterations", "1", "--backend", "spo", *extra,
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["target"] == target


def test_zero_search_attack_with_a_target_is_usage_error(monkeypatch, capsys):
    import spolab.cli as cli_mod

    def no_attack(*args, **kwargs):
        raise AssertionError("the attack ran before the options were checked")

    monkeypatch.setattr(cli_mod, "run_attack", no_attack)
    with pytest.raises(SystemExit) as err:
        run_cli(["attack", "--kind", "zero-search", "--n-bits", "2", "--c", "1",
                 "--iterations", "1", "--target", "0"])
    assert err.value.code == 2
    assert "a zero-search attack has no --target" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["1", "0", "-3"])
def test_attack_rejects_fewer_than_two_trials(tmp_path, capsys, trials):
    out = tmp_path / "attack.json"
    code = run_cli(["attack", "--kind", "sponge", "--n-bits", "4", "--c", "2",
                    "--iterations", "1", "--trials", trials, "--seed", "1",
                    "--out", str(out)])
    assert code == 1
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


def test_exact_attack_above_the_enumeration_cap_exits_1(tmp_path, capsys):
    out = tmp_path / "attack.json"
    code = run_cli(["attack", "--kind", "zero-search", "--n-bits", "4", "--c", "2",
                    "--iterations", "1", "--out", str(out)])
    assert code == 1
    assert "capped at N = 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, named", [
    (["--trials", "200", "--seed", "1"], "trials"),
    (["--seed", "1"], "seed"),
])
def test_attack_spo_refuses_sampling_options(tmp_path, capsys, extra, named):
    out = tmp_path / "attack.json"
    code = run_cli(["attack", "--kind", "sponge", "--n-bits", "3", "--c", "1",
                    "--iterations", "1", "--backend", "spo", *extra,
                    "--out", str(out)])
    assert code == 1
    assert f"takes no {named}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("args, message", [
    (["--kind", "main", "--q", "1", "--n", "16"], "main bound needs --n and --r-max"),
    (["--kind", "sponge", "--q", "1", "--c", "2"],
     "sponge bound needs --n-bits and --c"),
    (["--kind", "zero-search", "--q", "1", "--n-bits", "4"],
     "zero-search bound needs --n-bits and --c"),
])
def test_bound_missing_option_is_usage_error(capsys, args, message):
    with pytest.raises(SystemExit) as err:
        run_cli(["bound", *args])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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


@pytest.mark.parametrize("option", ["--active", "--inverse-active"])
@pytest.mark.parametrize("element", ["0", "4"])
def test_factorize_element_out_of_range_is_usage_error(capsys, option, element):
    assert run_cli(["factorize", "2 3 1", option, element]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option} {element} outside 1..3" in captured.err


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


def test_run_circuit_concrete_without_perm_is_usage_error(tmp_path, monkeypatch,
                                                          capsys):
    import spolab.cli as cli_mod

    def no_parse(*args, **kwargs):
        raise AssertionError("the circuit was read before the options were checked")

    monkeypatch.setattr(cli_mod, "parse_circuit", no_parse)
    path = tmp_path / "circ.txt"
    path.write_text("n 4\nquery fwd\n")
    with pytest.raises(SystemExit) as err:
        run_cli(["run-circuit", str(path), "--backend", "concrete"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "concrete backend needs --perm" in captured.err


def test_console_entry_point():
    # The child does not inherit pytest's ``pythonpath``; put src on its path.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "spolab.cli", "bound", "--kind", "main",
         "--q", "2", "--n", "16", "--r-max", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["clamped"] == 1.0


def test_no_spolab_module_imports_scipy():
    """numpy is the only runtime dependency.  scipy may be installed, so a
    stray import would pass silently: import every spolab module in a fresh
    interpreter and require that scipy was never loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import importlib, json, pkgutil, sys, spolab\n"
            "names = [m.name for m in pkgutil.iter_modules(spolab.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('spolab.' + name)\n"
            "print(json.dumps([names, sorted(m for m in sys.modules\n"
            "                                if m.split('.')[0] == 'scipy')]))\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names, scipy_modules = json.loads(proc.stdout)
    modules = {p.stem for p in (src / "spolab").glob("*.py")} - {"__init__"}
    assert set(names) == modules
    assert scipy_modules == []
