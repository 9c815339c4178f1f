"""Run one spolab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``.  The load is a closed loop: this
process starts one child per repetition (``child.py``), waits for it, and
starts the next while another repetition still fits in ``--seconds``.  At
least one repetition always runs.  Every child is a fresh interpreter, so
each repetition pays the import and cache costs a command-line user pays.

The host this was built on drifts in speed by a quarter or more over
minutes, so every timing is rescaled by the host-speed probe timed in the
same child (``probe.py``): ``wall_s`` and ``setup_s`` read as on a host
where one probe takes ``probe.REFERENCE_S``.  The raw timings are kept in
the record.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` additionally runs one traced child and prints the per-layer
metrics instead.  The last line of standard output is the JSON result; a
full record, with the environment, is written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe
import spans
from workloads import WORKLOADS, check_report, cli_argv, load_reference, work_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
REP_FIELDS = ("wall_s", "raw_wall_s", "cpu_s", "setup_s", "raw_setup_s", "probe_s",
              "setup_probe_s", "maxrss_kb", "rc", "work", "problems")

# Set-up-only children per run, half before the repetitions and half after.
SETUP_SAMPLES = 8
# Twice the slowest repetition seen; an untraced and a traced child still end
# within three minutes.
CHILD_TIMEOUT_S = 80
# One BLAS thread (nproc is 2 on the reference machine): sponge-attack took
# 4.3-4.6 s with one and 5.1-5.3 s with two.  PYTHONHASHSEED fixes set
# iteration order so that work counts repeat exactly.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def spawn(result: Path, argv: list[str] = (), trace: bool = False) -> dict:
    """Run one child to completion and return what it recorded."""
    result.unlink(missing_ok=True)
    env = {**os.environ, **CHILD_ENV}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(result),
                               repr(spawned), "1" if trace else "0", *argv],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    rec = json.loads(result.read_text())
    rec["elapsed_s"] = time.monotonic() - spawned
    rec["raw_setup_s"], rec["setup_probe_s"] = rec["setup_s"], probe.typical(rec["setup_probes"])
    rec["setup_s"] = rescale(rec["raw_setup_s"], rec["setup_probe_s"])
    if rec.get("run_probes"):
        rec["raw_wall_s"], rec["probe_s"] = rec["wall_s"], probe.typical(rec["run_probes"])
        rec["wall_s"] = rescale(rec["raw_wall_s"], rec["probe_s"])
    return rec


def rescale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while one probe took ``probe_s``, expressed at
    the reference probe time."""
    return seconds * probe.REFERENCE_S / probe_s


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def environment(seed: int, argv: list[str]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "seed": seed, "argv": argv,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "child_env": CHILD_ENV,
    }


def set_up(tmp: Path, count: int) -> list[float]:
    """``setup_s`` of ``count`` children that only import ``spolab.cli``."""
    samples = []
    for i in range(count):
        rec = spawn(tmp / f"setup{i}.json")
        if rec.get("error"):
            raise SystemExit(f"spolab does not import: {rec['error']}")
        if ROOT / "src" not in Path(rec["spolab_file"]).parents:
            raise SystemExit(f"imported spolab from {rec['spolab_file']}")
        samples.append(rec["setup_s"])
    return samples


def measure(wl, seed: int, seconds: int, tmp: Path) -> dict:
    """Untraced repetitions for ``seconds``, between set-up-only children."""
    spawn(tmp / "warmup.json")  # byte-compiles and warms the file cache
    setups = set_up(tmp, SETUP_SAMPLES // 2)
    ref = load_reference(wl)
    reps = []
    begin = time.monotonic()
    while True:
        report_path = tmp / f"report{len(reps)}.json"
        rec = spawn(tmp / f"rep{len(reps)}.json", cli_argv(wl, seed, report_path))
        report = None
        if report_path.is_file():
            try:
                report = json.loads(report_path.read_text())
            except ValueError:
                pass
        rec["problems"] = ([rec["error"]] if rec.get("error") else
                           check_report(wl, seed, rec.get("rc"), report, ref))
        rec["work"] = work_units(wl, report) if not rec["problems"] else None
        reps.append(rec)
        elapsed = time.monotonic() - begin
        if elapsed + rec.get("elapsed_s", elapsed) > seconds:
            break
    setups += set_up(tmp, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        raise SystemExit("no repetition completed: "
                         + "; ".join(r["problems"][0] for r in reps))
    setups += [r["setup_s"] for r in timed]
    walls = [r["wall_s"] for r in timed]
    raw_walls = [r["raw_wall_s"] for r in timed]
    works = [r["work"] for r in reps if r["work"] is not None]
    wall = statistics.median(walls)
    return {
        "reps": reps, "walls": walls, "setups": setups, "raw_walls": raw_walls,
        "raw_wall_s": statistics.median(raw_walls),
        "probe_s": statistics.median(r["probe_s"] for r in timed),
        "wall_s": wall, "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in timed) / 1024.0,
        "work_per_s": (statistics.median(works) / wall) if works else 0.0,
        "blas_threads": timed[0].get("blas_threads"),
    }


def traced(wl, seed: int, tmp: Path, untraced_wall: float) -> dict:
    """One traced repetition: per-layer spans and the self-test.

    ``untraced_wall`` is the raw (not rescaled) median of the untraced
    repetitions, comparable with the traced child's raw wall."""
    report_path = tmp / "traced-report.json"
    rec = spawn(OUT / f"{wl.name}-seed{seed}-traced.json",
                cli_argv(wl, seed, report_path), trace=True)
    if "spans" not in rec:
        raise SystemExit(f"traced run failed: {rec.get('error')}")
    layer = rec["spans"]
    report = json.loads(report_path.read_text()) if report_path.is_file() else None
    problems = check_report(wl, seed, rec.get("rc"), report, load_reference(wl))
    selftest = spans.selftest(wl.name, layer, rec["rebinds"])
    top = layer["cli.main"]
    per_call = rec["per_call_overhead_s"]
    ppd = layer["oracles.project_plus_db"]
    ppd["overhead_s"] = ppd["calls"] * per_call
    layer["trace"] = {
        "wall_s": top["total_s"],
        "overhead_s": top["total_s"] - untraced_wall,
        "unattributed_share": spans.unattributed_share(layer),
        "per_call_overhead_us": per_call * 1e6,
    }
    return {"spans": layer, "rebinds": rec["rebinds"], "problems": problems,
            "selftest": selftest}


def lookup(layer: dict, flat: dict, name: str) -> float:
    if name in flat:
        return flat[name]
    span, field = name.rsplit(".", 1)
    return layer[span][field]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spolab" / "cli.py").is_file():
        print(f"error: no spolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        m = measure(wl, args.seed, args.seconds, tmp)
        trace = traced(wl, args.seed, tmp, m["raw_wall_s"]) if args.trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = [rec["problems"] for rec in m["reps"]]
    if trace is not None:  # a broken interception fails the traced run
        outcomes.append(trace["problems"] + trace["selftest"])
    for i, problems in enumerate(outcomes):
        for problem in problems[:5]:
            print(f"FAIL repetition {i}: {problem}")
    attempted, failed = len(outcomes), sum(1 for p in outcomes if p)
    tail = tail_percentile(m["walls"])
    tail_text = (f"p{tail[0]:.1f} = {tail[1]:.4f} s" if tail else
                 "no tail percentile (needs 11 samples)")
    print(f"{wl.name} seed={args.seed}: {attempted} repetitions "
          f"({'1 traced' if trace else 'none traced'}), {failed} failed; "
          f"wall_s median of {len(m['walls'])}, {tail_text}; "
          f"setup_s median of {len(m['setups'])}; BLAS threads {m['blas_threads']}")
    print(f"raw wall median {m['raw_wall_s']:.4f} s at a median probe of "
          f"{m['probe_s'] * 1e6:.1f} us; timings below are rescaled to "
          f"{probe.REFERENCE_S * 1e6:.0f} us per probe")
    print(f"fail_share = {failed / attempted:.4g} ratio")

    if trace is None:
        chosen, layer, flat = spec["end_to_end"], {}, m
    else:
        chosen, layer = spec["per_layer"], trace["spans"]
        flat = {"fail_share": failed / attempted}
    metrics = {}
    for metric in chosen:
        value = lookup(layer, flat, metric["name"])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")

    record = {
        "workload": wl.name, "environment": environment(args.seed, list(wl.argv)),
        "blas_threads_measured": m["blas_threads"], "seconds": args.seconds,
        "walls": m["walls"], "raw_walls": m["raw_walls"], "setups": m["setups"],
        "probe_reference_s": probe.REFERENCE_S, "tail": tail,
        "repetitions": [{k: r.get(k) for k in REP_FIELDS} for r in m["reps"]],
        "metrics": metrics, "trace": trace,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
