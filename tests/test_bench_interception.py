"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/spans.py`` wraps ``spolab`` functions by name from outside.  A
refactor that renames or drops one of them would leave a span that records
nothing; this test makes that a tier-1 failure rather than a problem seen
only in a traced benchmark run.  The tracer patches modules in place, so it
is installed in a fresh interpreter.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import spans
tracer = spans.Tracer()
spans.install(tracer)
print(json.dumps({{name: tracer.rebinds.get(name, 0) for name in spans.PRESENT}}))
"""


def test_every_predicted_span_is_intercepted():
    program = PROGRAM.format(bench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", program], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rebinds = json.loads(done.stdout)
    assert rebinds, "spans.PRESENT is empty"
    missing = sorted(name for name, hits in rebinds.items() if hits <= 0)
    assert not missing, f"spans intercepted nowhere: {missing}"
