"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/spans.py`` wraps ``spolab`` functions by name from outside.  A
refactor that renames or drops one of them would leave a span that records
nothing; this test makes that a tier-1 failure rather than a problem seen
only in a traced benchmark run.  The tracer patches modules in place, so it
is installed in a fresh interpreter.  Short traced runs of the sampled
``N = 8`` fundamental suite and of the sampled 8-bit sponge attack must also
pass the tracer's own self-test, so a span prediction that the program no
longer meets (for instance, how an ``apply`` is classified as dense, perm,
diag or free) fails here too.  A traced ``N = 6`` commutator suite must
still reach the Lanczos norm and the Gamma builder that ``verify-all`` is
predicted to call.  Traced progress and spo-equivalence suites must record
calls, not just rebinds, of the relation-batched twirl averages and of
basis-map applies, which a rename would leave rebound but never called.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import spans
tracer = spans.Tracer()
spans.install(tracer)
print(json.dumps({{name: tracer.rebinds.get(name, 0) for name in spans.PRESENT}}))
"""

TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import spans
tracer = spans.Tracer()
hooks = spans.install(tracer)
import spolab.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = spolab.cli.main({argv!r})
summary = spans.finish(tracer, hooks)
problems = spans.selftest({workload!r}, summary, tracer.rebinds)
calls = {{name: row["calls"] for name, row in summary.items()}}
print(json.dumps({{"rc": rc, "problems": problems, "calls": calls}}))
"""


def _run(program: str) -> dict:
    done = subprocess.run([sys.executable, "-c", program], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_predicted_span_is_intercepted():
    rebinds = _run(PROGRAM.format(bench=str(ROOT / "perfbench"),
                                  src=str(ROOT / "src")))
    assert rebinds, "spans.PRESENT is empty"
    missing = sorted(name for name, hits in rebinds.items() if hits <= 0)
    assert not missing, f"spans intercepted nowhere: {missing}"


def test_traced_fundamental_run_passes_the_span_selftest():
    argv = ["verify", "--suite", "fundamental", "--n", "8", "--samples", "196"]
    result = _run(TRACED_RUN.format(bench=str(ROOT / "perfbench"),
                                    src=str(ROOT / "src"), argv=argv,
                                    workload="fundamental-mc"))
    assert result["rc"] == 0
    assert result["problems"] == []


def test_traced_sponge_attack_passes_the_span_selftest():
    # 20 trials keep the time outside any span under the selftest's limit;
    # two trials leave about a tenth of the run unattributed.
    argv = ["attack", "--kind", "sponge", "--n-bits", "8", "--c", "4",
            "--iterations", "4", "--trials", "20", "--seed", "1"]
    result = _run(TRACED_RUN.format(bench=str(ROOT / "perfbench"),
                                    src=str(ROOT / "src"), argv=argv,
                                    workload="sponge-attack"))
    assert result["rc"] == 0
    assert result["problems"] == []


def test_traced_commutator_run_reaches_lanczos_and_gamma():
    # Not a benchmark workload: only the workload-independent self-checks
    # (nesting, unattributed time) apply, and the two calls are read directly.
    argv = ["verify", "--suite", "commutator", "--n", "6"]
    result = _run(TRACED_RUN.format(bench=str(ROOT / "perfbench"),
                                    src=str(ROOT / "src"), argv=argv,
                                    workload="commutator-n6"))
    assert result["rc"] == 0
    assert result["problems"] == []
    assert result["calls"]["states.operator_norm.lanczos"] >= 1
    assert result["calls"]["lemmas.gamma_operator"] >= 1


@pytest.mark.parametrize("suite,spans", [
    ("progress", ("lemmas.p2_upper_bound", "lemmas.crucial_term_values",
                  "states.apply.perm")),
    ("spo-equivalence", ("states.apply.perm",)),
])
def test_traced_suites_call_the_batched_averages_and_basis_maps(suite, spans):
    # Not benchmark workloads: only the workload-independent self-checks
    # apply, and the calls are read directly.
    argv = ["verify", "--suite", suite, "--n", "4"]
    result = _run(TRACED_RUN.format(bench=str(ROOT / "perfbench"),
                                    src=str(ROOT / "src"), argv=argv,
                                    workload=f"{suite}-n4"))
    assert result["rc"] == 0
    assert result["problems"] == []
    for span in spans:
        assert result["calls"].get(span, 0) >= 1, span
