"""Verification reports and their JSON/CSV emission.

A report records one inequality or identity check: lhs, rhs, slack = rhs - lhs,
and the pass rule.  Exact checks pass when slack >= -tolerance; Monte Carlo
checks when slack >= -k * stderr (k = 3 by default).  Reports embed enough of
their configuration that a suite document is regenerable from one command.

A report is stamped when it is made; ``timed_rows`` turns the stamps of one
run into each row's runtime_ms, the time since the previous row.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

EXACT_TOL = 1e-9
MC_SIGMAS = 3.0


@dataclass
class VerificationReport:
    name: str
    lhs: float
    rhs: float
    passed: bool
    method: str = "exact"  # "exact" | "monte_carlo"
    stderr: float | None = None
    samples: int | None = None
    runtime_ms: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)
    # perf_counter() at creation; read by timed_rows, never emitted.
    _made: float = field(default_factory=time.perf_counter, init=False,
                         repr=False, compare=False)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def as_row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
            "method": self.method,
            "runtime_ms": round(self.runtime_ms, 3),
        }
        if self.stderr is not None:
            row["stderr"] = self.stderr
        if self.samples is not None:
            row["samples"] = self.samples
        if self.extra:
            row.update(self.extra)
        return row


def check(name: str, lhs: float, rhs: float, *, method: str = "exact",
          tol: float = EXACT_TOL, stderr: float | None = None,
          samples: int | None = None, **extra: Any) -> VerificationReport:
    """Build a report with the standard pass rule."""
    slack = rhs - lhs
    if method == "exact":
        passed = slack >= -tol
    elif method == "monte_carlo":
        if stderr is None:
            raise ValueError("monte_carlo reports need a stderr")
        passed = slack >= -MC_SIGMAS * stderr
    else:
        raise ValueError(f"unknown method {method!r}")
    return VerificationReport(name, float(lhs), float(rhs), bool(passed),
                              method=method, stderr=stderr, samples=samples,
                              extra=dict(extra))


def check_close(name: str, lhs: float, rhs: float, *, tol: float = EXACT_TOL,
                **extra: Any) -> VerificationReport:
    """Equality check: passes when |lhs - rhs| <= tol."""
    passed = abs(rhs - lhs) <= tol
    return VerificationReport(name, float(lhs), float(rhs), bool(passed),
                              method="exact", extra=dict(extra))


def timed_rows(make: Callable[[], list[VerificationReport]],
               ) -> list[VerificationReport]:
    """The reports of ``make()``, each with runtime_ms set to the time from
    the previous report's creation to its own (the first one's from the
    call), so the rows' times add up to the call's wall time."""
    last = time.perf_counter()
    reports = make()
    for report in reports:
        report.runtime_ms = (report._made - last) * 1000.0
        last = report._made
    return reports


def suite_document(suite: str, n: int, seed: int | None,
                   reports: list[VerificationReport],
                   config: dict[str, Any] | None = None) -> dict[str, Any]:
    cases = [r.as_row() for r in reports]
    return {
        "suite": suite,
        "n": n,
        "seed": seed,
        "config": dict(config or {}),
        "cases": cases,
        "totals": {
            "cases": len(cases),
            "passed": sum(1 for r in reports if r.passed),
            "failed": sum(1 for r in reports if not r.passed),
        },
    }


def to_json(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


CSV_COLUMNS = ["name", "lhs", "rhs", "slack", "pass", "method", "stderr",
               "samples", "runtime_ms"]


def to_csv(document: dict[str, Any]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for case in document["cases"]:
        writer.writerow({col: case.get(col, "") for col in CSV_COLUMNS})
    return buf.getvalue()
