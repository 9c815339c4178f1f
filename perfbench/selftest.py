"""Self-test of the tracer, and the per-layer baseline table.

    python3 perfbench/selftest.py

For each workload, on seed 1, it runs two traced repetitions and one
untraced one, then checks that

* every span the prediction table names records a call where predicted, and
  exactly zero calls where it predicts an absence (``spans.PRESENT`` and
  ``spans.ABSENT``);
* no span has negative self time, and ``cli.main`` keeps at most
  ``spans.UNATTRIBUTED_LIMIT`` of the traced wall as self time;
* calls, amplitudes, bytes, flops and the other counts repeat exactly
  between the two traced repetitions;
* the traced reports equal the untraced one apart from ``runtime_ms``.

It prints the tracing overhead per workload and a markdown table of the
per-layer numbers, and writes ``perfbench/out/selftest.json``.  The exit
status is 1 when any check fails.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import spans
from run import OUT, spawn
from workloads import WORKLOADS, cli_argv

COUNT_FIELDS = ("calls", "amps", "bytes", "flops", "dense_probes", "pairs", "misses")
SEED = 1


def without_runtime(report: dict) -> dict:
    """The report with every ``runtime_ms`` dropped; the rest must not move."""
    cases = [{k: v for k, v in c.items() if k != "runtime_ms"}
             for c in report.get("cases", [])]
    return {**report, "cases": cases} if cases else report


def run_workload(wl, seed: int, tmp: Path) -> tuple[dict, list[str]]:
    reports = [tmp / f"report{i}.json" for i in range(3)]
    runs = [spawn(tmp / f"traced{i}.json", cli_argv(wl, seed, reports[i]), trace=True)
            for i in range(2)]
    plain = spawn(tmp / "plain.json", cli_argv(wl, seed, reports[2]))
    for rec in (*runs, plain):
        if rec.get("error") or rec.get("rc") != 0:
            reason = rec.get("error") or f"exit status {rec.get('rc')}"
            return {}, [f"{wl.name}: a repetition failed: {reason}"]
    first, second = runs[0]["spans"], runs[1]["spans"]
    problems = [f"{wl.name}: {p}"
                for p in spans.selftest(wl.name, first, runs[0]["rebinds"])]
    outputs = [without_runtime(json.loads(r.read_text())) for r in reports]
    if any(out != outputs[2] for out in outputs[:2]):
        problems.append(f"{wl.name}: traced report differs from the untraced one "
                        "beyond runtime_ms")
    for name, row in first.items():
        for field in COUNT_FIELDS:
            if field in row and row[field] != second[name].get(field):
                problems.append(f"{wl.name}: {name}.{field} differs between traced "
                                f"runs: {row[field]} vs {second[name].get(field)}")
    per_call = runs[0]["per_call_overhead_s"]
    ppd_calls = first["oracles.project_plus_db"]["calls"]
    summary = {
        "spans": first,
        # raw walls: traced children do not probe the host, so nothing
        # rescales them
        "untraced_wall_s": plain["raw_wall_s"],
        "traced_wall_s": [r["wall_s"] for r in runs],
        "overhead_s": runs[0]["wall_s"] - plain["raw_wall_s"],
        "per_call_overhead_us": per_call * 1e6,
        "project_plus_db_overhead_s": ppd_calls * per_call,
        "estimated_overhead_s": sum(r["calls"] for r in first.values()) * per_call,
    }
    return summary, problems


def cell(row: dict) -> str:
    if row["calls"] == 0:
        return "0"
    parts = [f"{row['calls']} calls", f"{row['self_s']:.3f} s"]
    parts += [f"{row[k]} {k}" for k in ("amps", "bytes", "flops") if row.get(k)]
    return ", ".join(parts)


def table(results: dict) -> str:
    """Markdown: one row per span, one column per workload."""
    names = list(results)
    lines = ["| span | " + " | ".join(f"`{n}`" for n in names) + " |",
             "| --- |" + " --- |" * len(names)]
    for span in spans.SPAN_NAMES:
        lines.append(f"| `{span}` | "
                     + " | ".join(cell(results[n]["spans"][span]) for n in names) + " |")
    return "\n".join(lines)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    results, problems = {}, []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, wl in WORKLOADS.items():
            summary, found = run_workload(wl, SEED, Path(tmp))
            problems += found
            if summary:
                results[name] = summary
                print(f"{name}: untraced {summary['untraced_wall_s']:.3f} s, traced "
                      f"{summary['traced_wall_s'][0]:.3f} s, overhead "
                      f"{summary['overhead_s']:+.3f} s (all spans x wrapper cost: "
                      f"{summary['estimated_overhead_s']:.3f} s); wrapper "
                      f"{summary['per_call_overhead_us']:.2f} us/call, "
                      f"project_plus_db {summary['project_plus_db_overhead_s']:.3f} s")
    (OUT / "selftest.json").write_text(json.dumps(
        {"seed": SEED, "results": results, "problems": problems}, indent=1))
    if results:
        print(table(results))
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
