"""Record the reference outputs the benchmark compares later runs against.

    python3 perfbench/record_reference.py

Runs each workload once for each of the seeds 0-10 and writes
``perfbench/reference/NAME.json``.
A value that is the same for every recorded seed is stored once; otherwise
as a list aligned with ``seeds``.  Re-record only when a change is meant to
alter the lab's numbers, and say so in the change.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import OUT, ROOT, spawn
from workloads import WORKLOADS, cli_argv, normalize_name, reference_path

SEEDS = list(range(11))
ATTACK_FIELDS = ("q", "trials", "bound_raw", "reference_simple",
                 "reference_exact", "success_mean", "success_stderr")


def collapse(values: list):
    return values[0] if all(v == values[0] for v in values) else values


def run_seed(wl, seed: int, tmp: Path) -> dict:
    report = tmp / f"{wl.name}-{seed}.json"
    rec = spawn(tmp / "child.json", cli_argv(wl, seed, report))
    if rec.get("error") or rec.get("rc") != 0:
        raise SystemExit(f"{wl.name} seed {seed} failed: {rec}")
    return json.loads(report.read_text())


def record(wl, seeds: list[int]) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        reports = [run_seed(wl, seed, Path(tmp)) for seed in seeds]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            capture_output=True).stdout.strip()
    ref = {"workload": wl.name, "argv": list(wl.argv), "commit": commit,
           "seeds": seeds}
    if wl.name == "sponge-attack":
        ref["fields"] = {k: collapse([r[k] for r in reports]) for k in ATTACK_FIELDS}
        return ref
    rows = [{normalize_name(c["name"], seed): c for c in r["cases"]}
            for seed, r in zip(seeds, reports)]
    cases = {}
    for name, first in rows[0].items():
        row = {"method": first["method"]}
        sides = ("lhs", "rhs") + (("stderr",) if first["method"] == "monte_carlo" else ())
        for side in sides:
            row[side] = collapse([r[name][side] for r in rows])
        cases[name] = row
    ref["cases"] = cases
    return ref


def main() -> int:
    for wl in WORKLOADS.values():
        ref = record(wl, SEEDS)
        path = reference_path(wl)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)} for seeds {SEEDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
