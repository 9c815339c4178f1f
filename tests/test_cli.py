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


@pytest.mark.parametrize("suite, n, n_max, sizes, refused", [
    ("progress", 2, 4, "{2, 4}", 3),
    ("help-norm", 4, 6, "{1, 2, 3, 4, 5}", 6),
    ("fundamental", 4, 8, "{1, 2, 4, 8}", 5),
    ("gamma", 7, 8, "{1, 2, 3, 4, 5, 6, 7}", 8),
    ("commutator", 6, 7, "{1, 2, 3, 4, 5, 6}", 7),
])
def test_verify_refuses_a_range_before_its_first_size(monkeypatch, capsys, tmp_path,
                                                      suite, n, n_max, sizes, refused):
    """A --n..--n-max range through a size its suite does not run at exits 1,
    naming the first such n, before any size of the range runs, and writes
    no report."""
    import spolab.circuits as circuits_mod
    import spolab.lemmas as lemmas_mod
    import spolab.suites as suites_mod

    def no_work(*args, **kwargs):
        raise AssertionError("a size ran before the whole range was checked")

    monkeypatch.setattr(circuits_mod, "_execute", no_work)
    for module, name in ((lemmas_mod, "gamma_operator"), (suites_mod, "gamma_operator"),
                         (suites_mod, "help_norm")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--suite", suite, "--n", str(n), "--n-max", str(n_max),
                    "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the {suite} suite runs at n in {sizes}, got n={refused}\n"
    assert not out.exists()


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


def test_verify_replaces_an_existing_out_file(tmp_path):
    """An existing --out file is unlinked and a new one written, not
    truncated in place: a second link to the old file keeps the old text."""
    out, old = tmp_path / "report.json", tmp_path / "old.json"
    out.write_text("stale report\n")
    os.link(out, old)
    assert run_cli(["verify", "--suite", "factorization", "--n", "3",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["suite"] == "factorization"
    assert old.read_text() == "stale report\n"


def test_verify_writes_through_a_symlinked_out(tmp_path):
    """A symlink at --out is kept and its target receives the report."""
    target, out = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("stale report\n")
    out.symlink_to(target)
    assert run_cli(["verify", "--suite", "factorization", "--n", "3",
                    "--out", str(out)]) == 0
    assert out.is_symlink()
    assert json.loads(target.read_text())["suite"] == "factorization"


def test_verify_out_to_a_device_is_written_in_place(monkeypatch, capsys):
    """--out /dev/null writes to the device; nothing is unlinked."""
    def no_unlink(self, *args, **kwargs):
        raise AssertionError(f"{self} was unlinked")

    monkeypatch.setattr(Path, "unlink", no_unlink)
    assert run_cli(["verify", "--suite", "factorization", "--n", "3",
                    "--out", os.devnull]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_out_that_cannot_be_unlinked_is_written_in_place(monkeypatch, tmp_path):
    """A report file in a directory that refuses the unlink is rewritten."""
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    out = tmp_path / "report.json"
    out.write_text("stale report\n")
    monkeypatch.setattr(Path, "unlink", refuse)
    assert run_cli(["verify", "--suite", "factorization", "--n", "3",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["suite"] == "factorization"


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "factorization", "--n", "3"],
    ["attack", "--kind", "sponge", "--n-bits", "2", "--c", "1", "--iterations", "1"],
])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error_before_any_run(monkeypatch, tmp_path, capsys,
                                                      command, where):
    """An --out in a missing directory, or naming a directory, exits 2
    before any suite or attack runs."""
    import spolab.cli as cli_mod

    def no_run(*args, **kwargs):
        raise AssertionError("a suite or attack ran before --out was checked")

    monkeypatch.setattr(cli_mod, "run_suite", no_run)
    monkeypatch.setattr(cli_mod, "run_attack", no_run)
    out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    with pytest.raises(SystemExit) as err:
        run_cli([*command, "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--out {out} is not a file" in captured.err


def test_other_os_errors_are_one_error_line(monkeypatch, capsys):
    import spolab.cli as cli_mod

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli_mod, "run_suite", disk_full)
    assert run_cli(["verify", "--suite", "factorization", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err == "error: [Errno 28] No space left on device\n"


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--suite", "nonsense", "--n", "4"])
    assert err.value.code == 2


def test_verify_budget_error_is_diagnosed(capsys):
    code = run_cli(["verify", "--suite", "help-norm", "--n", "9"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["spo-equivalence", "twirl", "progress",
                                   "sparsity", "theorem"])
def test_verify_exhaustive_suites_refuse_n_1_before_any_run(monkeypatch, capsys,
                                                            suite):
    """n = 1 is a power of two but not a size these suites run at: each
    exits 1 with the size table's message before any circuit runs or plan
    is built (spo-equivalence used to die in numpy on an empty Z != 0 slice)."""
    import spolab.circuits as circuits_mod
    import spolab.suites as suites_mod

    def no_work(*args, **kwargs):
        raise AssertionError("the suite did work before refusing n = 1")

    monkeypatch.setattr(circuits_mod, "_execute", no_work)
    monkeypatch.setattr(suites_mod, "make_twirl_plan", no_work)
    assert run_cli(["verify", "--suite", suite, "--n", "1"]) == 1
    message = f"error: the {suite} suite runs at n in {{2, 4}}, got n=1"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["factorization", "active-sets", "fundamental",
                                   "help-norm", "gamma", "commutator", "all"])
def test_verify_suites_that_accept_n_1_pass_there(capsys, suite):
    """Every other suite runs at n = 1 and passes: the commutator's
    relabeling certificate builds no <0 z> map when there is no z >= 1."""
    assert run_cli(["verify", "--suite", suite, "--n", "1"]) == 0
    out = capsys.readouterr()
    assert "error:" not in out.err and "cases passed" in out.out


def test_verify_gamma_over_budget_exits_1_before_any_matrix(monkeypatch, capsys):
    """At N = 8 one 8! x 8! matrix alone exceeds the amplitude budget, so the
    gamma suite's sizes stop at 7; the refusal comes before Gamma is built
    or any cycle label map is read."""
    import spolab.lemmas as lemmas_mod
    import spolab.suites as suites_mod

    def no_build(*args, **kwargs):
        raise AssertionError("Gamma or a label map was built before the budget check")

    for module in (lemmas_mod, suites_mod):
        for name in ("gamma_operator", "_cycle_maps"):
            monkeypatch.setattr(module, name, no_build)
    code = run_cli(["verify", "--suite", "gamma", "--n", "8"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: the gamma suite runs at n in {1, 2, 3, 4, 5, 6, 7}, got n=8" in err


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


def test_attack_refuses_negative_iterations_before_any_circuit(monkeypatch, capsys):
    import spolab.suites as suites_mod

    def no_circuit(*args, **kwargs):
        raise AssertionError("a circuit was built before iterations was checked")

    monkeypatch.setattr(suites_mod, "grover_preimage", no_circuit)
    assert run_cli(["attack", "--kind", "sponge", "--n-bits", "4", "--c", "2",
                    "--iterations", "-1", "--trials", "20", "--seed", "1"]) == 1
    assert "error: iterations must be >= 0, got -1" in capsys.readouterr().err


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


def test_spo_attack_above_the_cap_offers_no_sampling(tmp_path, capsys):
    """The spo backend's size refusal names its cap and points to no
    --trials or --seed, which the same backend refuses."""
    out = tmp_path / "attack.json"
    code = run_cli(["attack", "--kind", "sponge", "--n-bits", "4", "--c", "2",
                    "--iterations", "1", "--backend", "spo", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "capped at N = 8" in err
    assert "trials" not in err and "seed" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, writes", [
    (["attack", "--kind", "sponge", "--n-bits", "3", "--c", "0", "--iterations", "1"],
     True),
    (["attack", "--kind", "sponge", "--n-bits", "3", "--c", "1", "--iterations", "1",
      "--target", "9"], True),
    (["bound", "--kind", "main", "--q", "0", "--n", "4", "--r-max", "1"], False),
    (["verify", "--suite", "fundamental", "--n", "8", "--samples", "100"], True),
])
def test_values_the_library_refuses_exit_1(tmp_path, capsys, argv, writes):
    """Values that pass argparse and _usage_problem but that the library
    refuses exit 1 with one error: line, and leave no --out file."""
    out = tmp_path / "report.json"
    code = run_cli(argv + (["--out", str(out)] if writes else []))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 1.54 GiB", ""])
def test_a_memory_error_exits_1_with_one_error_line(monkeypatch, tmp_path, capsys,
                                                     message):
    """The backstop behind the budget charge: a MemoryError that escapes a
    command (here raised by a stubbed handler, allocating nothing) prints
    one error: line and exits 1, with no traceback."""
    import spolab.cli as cli_mod

    def out_of_memory(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli_mod, "cmd_run_circuit", out_of_memory)
    circuit = tmp_path / "c.txt"
    circuit.write_text("n 4\nquery fwd\n")
    assert run_cli(["run-circuit", str(circuit)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1, err
    assert message in err


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


@pytest.mark.parametrize("text, message", [
    ("t: 1 1 4", "factor t[3]=4 outside range 1..3"),
    ("1 1", "value 1 at position 2 repeats: '1 1'"),
    ("1 3", "value 3 at position 2 is outside 1..2: '1 3'"),
])
def test_factorize_errors_name_the_one_based_position(capsys, text, message):
    assert run_cli(["factorize", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_run_circuit_missing_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nothing.txt"
    with pytest.raises(SystemExit) as err:
        run_cli(["run-circuit", str(missing)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"no circuit file {missing}" in captured.err


def test_run_circuit_reads_a_pipe(capsys):
    """A circuit source that is not a regular file (a /dev/fd pipe) is read."""
    r, w = os.pipe()
    try:
        os.write(w, b"n 4\nload 1\nquery fwd\noutput xy\n")
        os.close(w)
        assert run_cli(["run-circuit", f"/dev/fd/{r}", "--backend", "concrete",
                        "--perm", "2 3 4 1"]) == 0
    finally:
        os.close(r)
    assert json.loads(capsys.readouterr().out)["queries"] == 1


def test_run_circuit_perm_error_names_the_one_based_position(tmp_path, capsys):
    path = tmp_path / "circ.txt"
    path.write_text("n 2\nquery fwd\n")
    assert run_cli(["run-circuit", str(path), "--backend", "concrete",
                    "--perm", "1 1"]) == 1
    assert "error: value 1 at position 2 repeats" in capsys.readouterr().err


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
