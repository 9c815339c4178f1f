"""The benchmark's workloads and the checks that judge their outputs.

Each workload is one fixed ``spolab`` command line; the benchmark adds only
``--seed`` and ``--out``.  An operation is one run of that command in a
fresh process, and it fails when any check below reports a problem.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Width of an exact row when compared with its recorded value: the lab's own
# exact tolerance, relative once the magnitude exceeds 1.
EXACT_WIDTH = 1e-9
MC_SIGMAS = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    # Exhaustive N=4 lab plus N=6 factorization, active sets and Lanczos
    # commutator norm: many tiny kernel calls, limited by per-call overhead.
    # Work unit: cases.
    Workload("verify-all", ("verify", "--suite", "all", "--n", "6")),
    # Sampled N=8 twirl average over 2025 pairs: the same kernels on
    # 40320-label blocks, limited by memory bandwidth.  Work unit: pair
    # evaluations.
    Workload("fundamental-mc",
             ("verify", "--suite", "fundamental", "--n", "8", "--samples", "2000")),
    # Concrete-oracle Grover attack with dense 256x256 unitaries and no
    # database: the control that twirl-engine changes must not move.  Work
    # unit: trials.
    Workload("sponge-attack",
             ("attack", "--kind", "sponge", "--n-bits", "8", "--c", "4",
              "--iterations", "4", "--trials", "200")),
)}


def cli_argv(wl: Workload, seed: int, out: Path) -> list[str]:
    return [*wl.argv, "--seed", str(seed), "--out", str(out)]


def normalize_name(name: str, seed: int) -> str:
    """Case names embed ``seed + k`` as ``-s<seed+k>``; make them seed-free."""
    return re.sub(r"-s(\d+)", lambda m: f"-s<{int(m.group(1)) - seed:+d}>", name)


def work_units(wl: Workload, report: dict) -> int:
    """Work done by one run: cases, sampled pair evaluations, or trials."""
    if wl.name == "sponge-attack":
        return int(report["trials"])
    if wl.name == "fundamental-mc":
        return sum(int(case["samples"]) for case in report["cases"])
    return len(report["cases"])


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.json"


def load_reference(wl: Workload) -> dict:
    return json.loads(reference_path(wl).read_text())


def recorded(ref: dict, field: str | float | list, seed: int) -> float | None:
    """The value recorded for ``seed``, or None when the seed is unrecorded.

    ``field`` is one number when every recorded seed gave the same value,
    else a list aligned with ``ref["seeds"]``."""
    if seed not in ref["seeds"]:
        return None
    return field[ref["seeds"].index(seed)] if isinstance(field, list) else field


def _moved(value: float, ref_value: float, width: float) -> bool:
    return not abs(value - ref_value) <= width


def _exact_width(ref_value: float) -> float:
    return EXACT_WIDTH * max(1.0, abs(ref_value))


def check_report(wl: Workload, seed: int, rc: int | None, report: dict | None,
                 ref: dict) -> list[str]:
    """Reasons the run failed; an empty list means it passed."""
    if rc != 0:
        return [f"exit status {rc}"]
    if report is None:
        return ["no report written"]
    if wl.name == "sponge-attack":
        return _check_attack(seed, report, ref)
    return _check_verify(seed, report, ref)


def _check_verify(seed: int, report: dict, ref: dict) -> list[str]:
    problems = []
    cases = {normalize_name(c["name"], seed): c for c in report["cases"]}
    if len(cases) != len(report["cases"]) or set(cases) != set(ref["cases"]):
        problems.append("case names differ from the expected set")
    for name, case in cases.items():
        if not case["pass"]:
            problems.append(f"{name}: pass = false")
        row = ref["cases"].get(name)
        if row is None:
            continue
        for side in ("lhs", "rhs"):
            want = recorded(ref, row[side], seed)
            if want is None:
                continue
            if row["method"] == "monte_carlo":
                width = MC_SIGMAS * recorded(ref, row["stderr"], seed)
            else:
                width = _exact_width(want)
            if _moved(case[side], want, width):
                problems.append(f"{name}: {side} {case[side]!r} moved from "
                                f"{want!r} by more than {width:.3g}")
    return problems


def _check_attack(seed: int, report: dict, ref: dict) -> list[str]:
    problems = []
    mean, se = report["success_mean"], report["success_stderr"]
    exact = report["reference_exact"]
    if not abs(mean - exact) <= MC_SIGMAS * se:
        problems.append(f"success_mean {mean!r} is more than 3 stderr "
                        f"({se!r}) from reference_exact {exact!r}")
    fields = ref["fields"]
    for key in ("q", "trials", "bound_raw", "reference_simple", "reference_exact"):
        want = recorded(ref, fields[key], seed)
        if want is not None and _moved(report[key], want, _exact_width(want)):
            problems.append(f"{key} {report[key]!r} moved from {want!r}")
    want = recorded(ref, fields["success_mean"], seed)
    if want is not None:
        width = MC_SIGMAS * recorded(ref, fields["success_stderr"], seed)
        if _moved(mean, want, width):
            problems.append(f"success_mean {mean!r} moved from {want!r} "
                            f"by more than {width:.3g}")
    if report.get("method") != "monte_carlo" or not math.isfinite(mean):
        problems.append("attack did not report a Monte Carlo estimate")
    return problems
