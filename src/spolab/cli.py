"""Batch command-line entry point.

Subcommands:
  verify       run a named verification suite and emit a JSON/CSV report
  attack       sponge / zero-search Grover experiments with references
  bound        evaluate the headline bounds (raw and clamped)
  factorize    strictly monotone factorization of a 1-based one-line permutation
  run-circuit  run a circuit description file and print output statistics

Exit status: 0 when every emitted case passes, 1 on failures or budget
errors, 2 on usage errors (a missing or out-of-range option), which are
reported before any output.  Reports embed the full config and seed so any
number they contain is regenerable from one command.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bounds
from .circuits import output_distribution, parse_circuit, run
from .lemmas import EXHAUSTIVE_TWIRL_LIMIT
from .oracles import BudgetError, concrete_backend, spo_backend
from .permutations import (
    SizeLimitError,
    active_set,
    cayley_distance,
    compose_from_factors,
    format_factorization,
    format_one_line,
    inverse_active_set,
    monotone_factorize,
    parse_factorization,
    parse_one_line,
)
from .reporting import suite_document, to_csv, to_json
from .suites import DEFAULT_SAMPLES, DEFAULT_SEED, SUITES, run_attack, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spolab",
        description="Verification lab for superposition permutation oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--n-max", type=int, default=None,
                          help="also run every size up to this value")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--samples", type=int, default=None,
                          help="minimum (sigma, tau) pairs of a sampled grid "
                               f"(--suite fundamental, n > {EXHAUSTIVE_TWIRL_LIMIT})")
    p_verify.add_argument("--out", type=Path, default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")

    p_attack = sub.add_parser("attack", help="run an attack experiment")
    p_attack.add_argument("--kind", required=True, choices=("sponge", "zero-search"))
    p_attack.add_argument("--n-bits", type=int, required=True)
    p_attack.add_argument("--c", type=int, required=True)
    p_attack.add_argument("--iterations", type=int, required=True)
    p_attack.add_argument("--backend", choices=("concrete", "spo"),
                          default="concrete")
    p_attack.add_argument("--trials", type=int, default=None,
                          help="sampled permutations; omit for the exact ensemble")
    p_attack.add_argument("--seed", type=int, default=None)
    p_attack.add_argument("--target", type=int, default=None)  # sponge only; 0 if unset
    p_attack.add_argument("--out", type=Path, default=None)

    p_bound = sub.add_parser("bound", help="evaluate a bound")
    p_bound.add_argument("--kind", required=True,
                         choices=("main", "sponge", "zero-search"))
    p_bound.add_argument("--q", type=int, required=True)
    p_bound.add_argument("--n", type=int, default=None, help="N for the main bound")
    p_bound.add_argument("--r-max", type=int, default=None)
    p_bound.add_argument("--n-bits", type=int, default=None)
    p_bound.add_argument("--c", type=int, default=None)

    p_fact = sub.add_parser(
        "factorize",
        help="factorize a one-line permutation (or compose a 't: ...' tuple)")
    p_fact.add_argument("perm", help='1-based one-line notation, e.g. "2 3 1", '
                                     'or a factorization "t: 1 1 1"')
    p_fact.add_argument("--active", type=int, default=None,
                        help="also print the active set for this 1-based element")
    p_fact.add_argument("--inverse-active", type=int, default=None)

    p_run = sub.add_parser("run-circuit", help="run a circuit description file")
    p_run.add_argument("file", type=Path)
    p_run.add_argument("--backend", choices=("concrete", "spo"), default="spo")
    p_run.add_argument("--perm", default=None,
                       help="1-based one-line permutation for the concrete backend")
    return parser


def _sampled(args: argparse.Namespace) -> bool:
    """Whether a verify run samples a twirl grid: fundamental above EXHAUSTIVE_TWIRL_LIMIT."""
    top = args.n if args.n_max is None else args.n_max
    return args.suite == "fundamental" and top > EXHAUSTIVE_TWIRL_LIMIT


def cmd_verify(args: argparse.Namespace) -> int:
    sizes = [args.n] if args.n_max is None else list(range(args.n, args.n_max + 1))
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    all_reports = []
    for n in sizes:
        all_reports.extend(run_suite(args.suite, n, seed=args.seed, samples=samples))
    doc = suite_document(args.suite, args.n, args.seed, all_reports,
                         config={"n_max": args.n_max,
                                 "samples": samples if _sampled(args) else None,
                                 "format": args.format})
    text = to_json(doc) if args.format == "json" else to_csv(doc)
    if args.out is not None:
        args.out.write_text(text)
    for case in doc["cases"]:
        status = "PASS" if case["pass"] else "FAIL"
        print(f"{status}  {case['name']}: lhs={case['lhs']:.6g} "
              f"rhs={case['rhs']:.6g} slack={case['slack']:.3g}")
    totals = doc["totals"]
    print(f"{totals['passed']}/{totals['cases']} cases passed")
    return 0 if totals["failed"] == 0 else 1


def cmd_attack(args: argparse.Namespace) -> int:
    result = run_attack(args.kind, args.n_bits, args.c, args.iterations,
                        backend=args.backend, trials=args.trials,
                        seed=args.seed, target=args.target or 0)
    text = json.dumps(result, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    print(text, end="")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    if args.kind == "main":
        raw = bounds.main_bound(args.q, args.n, args.r_max)
    elif args.kind == "sponge":
        raw = bounds.sponge_bound(args.q, args.n_bits, args.c)
    else:
        raw = bounds.zero_search_bound(args.q, args.n_bits, args.c)
    print(json.dumps({"kind": args.kind, "raw": raw,
                      "clamped": bounds.clamped(raw)}))
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    try:
        if args.perm.strip().startswith("t:"):
            f = parse_factorization(args.perm)
            perm = compose_from_factors(f)
            text = format_one_line(perm)
        else:
            perm = parse_one_line(args.perm)
            f = monotone_factorize(perm)
            text = format_factorization(f)
        for option, element in (("--active", args.active),
                                 ("--inverse-active", args.inverse_active)):
            if element is not None and not 1 <= element <= f.n:
                raise ValueError(f"{option} {element} outside 1..{f.n}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    factors = " ".join(f"<{k + 1} {tk + 1}>" for k, tk in f.nontrivial_factors())
    print(f"strictly monotone: {factors if factors else '(identity)'}")
    print(f"cayley distance: {cayley_distance(f)}")
    if args.active is not None:
        members = active_set(perm, args.active - 1)
        print(f"active({args.active}): " + " ".join(str(k + 1) for k in members))
    if args.inverse_active is not None:
        members = inverse_active_set(perm, args.inverse_active - 1)
        print(f"inverse-active({args.inverse_active}): "
              + " ".join(str(k + 1) for k in members))
    return 0


def cmd_run_circuit(args: argparse.Namespace) -> int:
    circ = parse_circuit(args.file.read_text())
    if args.backend == "concrete":
        backend = concrete_backend(parse_one_line(args.perm))
    else:
        backend = spo_backend(circ.n)
    final = run(circ, backend)
    dist = output_distribution(final, circ.output)
    labels = ([str(i) for i in range(circ.n)] if circ.output == "x" else
              [f"{x},{y}" for x in range(circ.n) for y in range(circ.n)])
    probs = dist.reshape(-1)
    payload = {
        "n": circ.n, "queries": circ.query_count, "output": circ.output,
        "distribution": {lab: float(p) for lab, p in zip(labels, probs)
                         if p > 1e-12},
    }
    print(json.dumps(payload, indent=2))
    return 0


def _usage_problem(args: argparse.Namespace) -> str | None:
    """A missing or inconsistent option that parse_args cannot see alone."""
    if args.command == "verify":
        if args.n < 1:  # an --n-max below 1 is then below --n too
            return f"--n {args.n} is below 1"
        if args.n_max is not None and args.n_max < args.n:
            return f"--n-max {args.n_max} is below --n {args.n}"
        if args.samples is not None and not _sampled(args):
            return (f"--samples sizes a sampled twirl grid, and only --suite "
                    f"fundamental above n={EXHAUSTIVE_TWIRL_LIMIT} samples one")
    if args.command == "attack" and args.kind == "zero-search" \
            and args.target is not None:
        return "a zero-search attack has no --target"
    if args.command == "bound":
        needed = ("n", "r_max") if args.kind == "main" else ("n_bits", "c")
        if any(getattr(args, dest) is None for dest in needed):
            flags = " and ".join("--" + dest.replace("_", "-") for dest in needed)
            return f"{args.kind} bound needs {flags}"
    if args.command == "run-circuit" and args.backend == "concrete" \
            and args.perm is None:
        return "concrete backend needs --perm"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _usage_problem(args)
    if problem:
        parser.error(problem)
    handlers = {
        "verify": cmd_verify,
        "attack": cmd_attack,
        "bound": cmd_bound,
        "factorize": cmd_factorize,
        "run-circuit": cmd_run_circuit,
    }
    try:
        return handlers[args.command](args)
    except (BudgetError, SizeLimitError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
