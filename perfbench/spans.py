"""Span tracer that wraps ``spolab``'s public functions from outside.

Every target is rebound wherever it is reachable: the defining module, each
``spolab`` module that imported it by name, module-level dicts holding it
(the suite registry), or the class that owns it.  Spans are kept in memory
(name, start, end, parent) and aggregated when the run ends.  Kernel spans
also count amplitudes read plus written; bytes are computed from them at
16 B per complex128 amplitude, and dense applies count 8 real flops per
complex multiply-add.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

AMP_BYTES = 16
KERNEL_SPANS = (
    "oracles.spo_query", "oracles.query.concrete", "oracles.project_plus_db",
    "states.apply.dense", "states.apply.perm", "states.apply.diag",
    "states.apply.free",
)

# The suite functions ``_all_suite`` calls, plus the attack entry point.
SUITE_FUNCTIONS = (
    "factorization_suite", "active_sets_suite", "sampler_chi_square",
    "spo_equivalence_suite", "twirl_suite", "fundamental_suite",
    "help_norm_suite", "progress_suite", "gamma_suite", "commutator_suite",
    "sparsity_suite", "theorem_suite", "run_attack",
)

# Every span, by layer; the per-layer metrics in BENCHMARK.json use these.
SPAN_NAMES = (
    "permutations.sample_uniform", "permutations.invert",
    "oracles.perm_tables", "oracles.left_right_map", "oracles.spo_query",
    "oracles.query.concrete", "oracles.project_plus_db", "oracles.spo_recover",
    "states.apply.dense", "states.apply.perm", "states.apply.diag",
    "states.apply.free", "states.probe_unitary", "states.operator_norm.dense",
    "states.operator_norm.lanczos", "states.trace_distance",
    "circuits.run", "circuits.run_with_intermediates",
    "circuits.success_probability", "circuits.concrete_ensemble",
    "circuits.averaged_grover_reference", "circuits.QueryCircuit",
    "relations", "bounds",
    "lemmas.make_twirl_plan", "lemmas.twirl_pairs",
    "lemmas.experiment_probabilities", "lemmas.p2_upper_bound",
    "lemmas.progress_measure", "lemmas.crucial_term_values",
    "lemmas.sparsity_expectation", "lemmas.commutator_growth_check",
    "lemmas.gamma_operator",
    *(f"suites.{fn}" for fn in SUITE_FUNCTIONS),
    "reporting.check", "reporting.to_json", "cli.main",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.rebinds: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def top_name(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def wrap(self, fn, name, count=None, reentrant: bool = True):
        """Wrapper recording one span per call.  ``name`` is a string or a
        function of the call's arguments; ``count(counters, args, kwargs,
        result)`` adds work counts.  With ``reentrant=False`` a call made
        inside a span of the same name is not recorded again."""
        fixed = None if callable(name) else self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if fixed is None else self.names[fixed]
            if not reentrant and self.top_name() == span:
                return fn(*args, **kwargs)
            idx = self.open(self.intern(span) if fixed is None else fixed)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counters[span], args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s, the least self time of one
        span (``min_self_s``, capped at 0) and the work counters."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=self_time, minlength=k)
        least = np.zeros(k)
        np.minimum.at(least, names, self_time)
        out = {}
        for i, name in enumerate(self.names):
            row = {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(selft[i]), "min_self_s": float(least[i])}
            row.update(self.counters.get(name, {}))
            out[name] = row
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _spolab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "spolab" or name.startswith("spolab."))]


def rebind(tracer: Tracer, span: str, orig, wrapper) -> int:
    """Replace ``orig`` by ``wrapper`` in every spolab module namespace and
    module-level dict; returns the number of places rebound."""
    hits = 0
    for mod in _spolab_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                hits += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = wrapper
                        hits += 1
    tracer.rebinds[span] = tracer.rebinds.get(span, 0) + hits
    return hits


def _patch_method(tracer: Tracer, cls, attr: str, span: str, **kw) -> None:
    orig = cls.__dict__.get(attr)
    if orig is None:
        tracer.rebinds.setdefault(span, 0)
        return
    setattr(cls, attr, tracer.wrap(orig, span, **kw))
    tracer.rebinds[span] = tracer.rebinds.get(span, 0) + 1


def _patch(tracer: Tracer, mod, attr: str, span: str, **kw) -> None:
    orig = getattr(mod, attr, None)
    if orig is None:
        tracer.rebinds.setdefault(span, 0)
        return
    rebind(tracer, span, orig, tracer.wrap(orig, span, **kw))


def op_kind(op) -> str:
    """dense, perm, diag or free, from how the operator was built."""
    if getattr(op, "matrix", None) is not None:
        return "dense"
    if getattr(op, "mapping", None) is not None:
        return "perm"
    origin = getattr(op.apply_block, "__qualname__", "")
    if origin.startswith("from_diagonal."):
        return "diag"
    if origin.startswith("identity_operator."):
        return "perm"
    return "free"


def _amps_of_first(counters, args, kwargs, result) -> None:
    counters["amps"] += 2 * int(args[0].size if isinstance(args[0], np.ndarray)
                                else args[0].amps.size)


def _count_apply(counters, args, kwargs, result) -> None:
    op, state = args[0], args[1]
    size = int(state.amps.size)
    counters["amps"] += 2 * size
    if op.matrix is not None:
        counters["flops"] += 8 * int(op.dim) * size


def _count_probe(counters, args, kwargs, result) -> None:
    counters["dense_probes"] += op_kind(args[0]) == "dense"


def _count_pairs(counters, args, kwargs, result) -> None:
    counters["pairs"] += int(result.pair_count)


def _apply_name(args, kwargs) -> str:
    return "states.apply." + op_kind(args[0])


def _norm_name(args, kwargs, cap_default) -> str:
    op = args[0]
    cap = kwargs.get("cap", args[1] if len(args) > 1 else cap_default)
    dense = op.matrix is not None or op.dim <= cap
    return "states.operator_norm." + ("dense" if dense else "lanczos")


def _traced_pairs(tracer: Tracer, orig):
    nid = tracer.intern("lemmas.twirl_pairs")

    @functools.wraps(orig)
    def pairs(self):
        it = orig(self)
        while True:
            idx = tracer.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            yield item

    return pairs


def install(tracer: Tracer) -> dict:
    """Wrap every span target.  Returns hooks read when the run ends."""
    from spolab import (bounds, circuits, cli, lemmas, oracles, permutations,
                        relations, reporting, states, suites)

    for attr in ("sample_uniform", "invert"):
        _patch(tracer, permutations, attr, f"permutations.{attr}")

    perm_tables = oracles.perm_tables
    _patch(tracer, oracles, "perm_tables", "oracles.perm_tables")
    _patch(tracer, oracles, "left_right_map", "oracles.left_right_map")
    _patch(tracer, oracles, "spo_query", "oracles.spo_query", count=_amps_of_first)
    _patch(tracer, oracles, "project_plus_db", "oracles.project_plus_db",
           count=_amps_of_first)
    _patch(tracer, oracles, "spo_recover", "oracles.spo_recover")
    _patch_method(tracer, oracles.OracleBackend, "_concrete_query",
                  "oracles.query.concrete",
                  count=lambda c, a, k, r: _amps_of_first(c, a[1:], k, r))

    orig_apply = states.apply
    apply_wrapper = tracer.wrap(orig_apply, _apply_name, count=_count_apply)
    hits = rebind(tracer, "states.apply", orig_apply, apply_wrapper)
    for kind in ("dense", "perm", "diag", "free"):
        tracer.intern("states.apply." + kind)
        tracer.rebinds["states.apply." + kind] = hits
    _patch(tracer, states, "probe_unitary", "states.probe_unitary", count=_count_probe)
    orig_norm = states.operator_norm
    cap = states.DENSE_NORM_CAP
    hits = rebind(tracer, "states.operator_norm", orig_norm,
                  tracer.wrap(orig_norm, lambda a, k: _norm_name(a, k, cap)))
    for branch in ("dense", "lanczos"):
        tracer.intern("states.operator_norm." + branch)
        tracer.rebinds["states.operator_norm." + branch] = hits
    _patch(tracer, states, "trace_distance", "states.trace_distance")

    for attr in ("run", "run_with_intermediates", "success_probability",
                 "concrete_ensemble", "averaged_grover_reference"):
        _patch(tracer, circuits, attr, f"circuits.{attr}")
    _patch_method(tracer, circuits.QueryCircuit, "__post_init__",
                  "circuits.QueryCircuit")

    for mod, span in ((relations, "relations"), (bounds, "bounds")):
        for attr, value in list(vars(mod).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == mod.__name__
                    and not isinstance(value, type)):
                _patch(tracer, mod, attr, span, reentrant=False)
    for attr in ("__post_init__", "section", "inverse_section", "pairs"):
        _patch_method(tracer, relations.Relation, attr, "relations", reentrant=False)

    _patch(tracer, lemmas, "make_twirl_plan", "lemmas.make_twirl_plan",
           count=_count_pairs)
    orig_pairs = lemmas.TwirlPlan.__dict__.get("pairs")
    if orig_pairs is not None:
        lemmas.TwirlPlan.pairs = _traced_pairs(tracer, orig_pairs)
    tracer.rebinds["lemmas.twirl_pairs"] = int(orig_pairs is not None)
    for attr in ("experiment_probabilities", "p2_upper_bound", "progress_measure",
                 "crucial_term_values", "sparsity_expectation",
                 "commutator_growth_check", "gamma_operator"):
        _patch(tracer, lemmas, attr, f"lemmas.{attr}")

    for attr in SUITE_FUNCTIONS:
        _patch(tracer, suites, attr, f"suites.{attr}")

    for attr in ("check", "check_close"):
        _patch(tracer, reporting, attr, "reporting.check", reentrant=False)
    _patch(tracer, reporting, "to_json", "reporting.to_json")
    _patch(tracer, cli, "main", "cli.main")

    return {"perm_tables": perm_tables}


def finish(tracer: Tracer, hooks: dict) -> dict[str, dict[str, float]]:
    """Aggregate the spans and add the derived per-layer figures."""
    spans = tracer.summary()
    for name in SPAN_NAMES:  # a target missing from the program reads 0
        spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    cache_info = getattr(hooks["perm_tables"], "cache_info", None)
    spans["oracles.perm_tables"]["misses"] = cache_info().misses if cache_info else 0
    for name in KERNEL_SPANS:
        row = spans[name]
        row.setdefault("amps", 0)
        row["bytes"] = AMP_BYTES * row["amps"]
        if name.startswith("states.apply."):
            row.setdefault("flops", 0)
    ppd = spans["oracles.project_plus_db"]
    ppd["amps_per_call"] = ppd["amps"] / ppd["calls"] if ppd["calls"] else 0.0
    probe = spans["states.probe_unitary"]
    probe.setdefault("dense_probes", 0)
    probe["useful_ratio"] = (probe["dense_probes"] / probe["calls"]
                             if probe["calls"] else 0.0)
    spans["lemmas.make_twirl_plan"].setdefault("pairs", 0)
    return spans


OVERHEAD_CALLS = 20000


def per_call_overhead_s() -> float:
    """Cost one wrapper adds to a call, timed on a no-op with a private tracer."""
    def noop(x):
        return x

    wrapped = Tracer().wrap(noop, "noop")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(OVERHEAD_CALLS):
            noop(i)
        t1 = time.perf_counter()
        for i in range(OVERHEAD_CALLS):
            wrapped(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / OVERHEAD_CALLS)
    return best


VA, FM, SA = "verify-all", "fundamental-mc", "sponge-attack"
ALL = (VA, FM, SA)

# Span -> workloads on which it must record at least one call.
PRESENT = {
    "permutations.sample_uniform": (FM, SA),
    "permutations.invert": (VA,),
    "oracles.perm_tables": (VA, FM),
    "oracles.left_right_map": (VA, FM),
    "oracles.spo_query": (VA, FM),
    "oracles.query.concrete": (VA, SA),
    "oracles.project_plus_db": (VA, FM),
    "oracles.spo_recover": (VA,),
    "states.apply.dense": ALL,
    "states.apply.perm": (VA,),
    "states.apply.diag": (SA,),
    "states.probe_unitary": ALL,
    "states.operator_norm.dense": (VA,),
    "states.operator_norm.lanczos": (VA,),
    "states.trace_distance": (VA,),
    "circuits.run": ALL,
    "circuits.run_with_intermediates": (VA,),
    "circuits.success_probability": (SA,),
    "circuits.concrete_ensemble": (VA,),
    "circuits.averaged_grover_reference": (SA,),
    "circuits.QueryCircuit": ALL,
    "relations": (VA, FM),
    "bounds": (VA, SA),
    "lemmas.make_twirl_plan": (VA, FM),
    "lemmas.twirl_pairs": (VA, FM),
    "lemmas.experiment_probabilities": (VA, FM),
    "lemmas.p2_upper_bound": (VA,),
    "lemmas.progress_measure": (VA,),
    "lemmas.crucial_term_values": (VA,),
    "lemmas.sparsity_expectation": (VA,),
    "lemmas.commutator_growth_check": (VA,),
    "lemmas.gamma_operator": (VA,),
    **{f"suites.{fn}": (VA,) for fn in SUITE_FUNCTIONS[:-1]},
    "suites.fundamental_suite": (VA, FM),
    "suites.run_attack": (SA,),
    "reporting.check": (VA, FM),
    "reporting.to_json": (VA, FM),
    "cli.main": ALL,
}

# Span -> workloads on which it must record exactly zero calls.
ABSENT = {
    "oracles.project_plus_db": (SA,),
    "lemmas.make_twirl_plan": (SA,),
    "states.operator_norm.lanczos": (SA, FM),
    "oracles.query.concrete": (FM,),
    "states.apply.free": ALL,
}

# Dense local unitaries are almost absent from the sampled N=8 lemma: its
# 64x64 unitaries stay far below the sponge attack's 1.3e11 flops.
FM_DENSE_FLOPS_LIMIT = 1e10
# Self time below this is a nesting error, not rounding of the clock.
SELF_TIME_TOLERANCE_S = 1e-9
# Share of the traced wall that ``cli.main`` may keep as self time, i.e. time
# no layer's span covers.  It was 0.01-0.08 % at the baseline (3-6 ms).
UNATTRIBUTED_LIMIT = 0.05


def unattributed_share(spans: dict) -> float:
    top = spans["cli.main"]
    return top["self_s"] / top["total_s"] if top["total_s"] else 1.0


def selftest(workload: str, spans: dict, rebinds: dict) -> list[str]:
    """Problems with the interception on this workload; empty when sound."""
    problems = [f"{name}: intercepted nowhere" for name in PRESENT
                if rebinds.get(name, 0) == 0]
    for name, workloads in PRESENT.items():
        if workload in workloads and spans[name]["calls"] < 1:
            problems.append(f"{name}: predicted on {workload} but recorded no call")
    for name, workloads in ABSENT.items():
        calls = spans[name]["calls"]
        if workload in workloads and calls != 0:
            problems.append(f"{name}: predicted absent on {workload} but "
                            f"recorded {calls} calls")
    for name, row in spans.items():
        if row.get("min_self_s", 0.0) < -SELF_TIME_TOLERANCE_S:
            problems.append(f"{name}: a span has negative self time "
                            f"({row['min_self_s']:.3g} s)")
    share = unattributed_share(spans)
    if share > UNATTRIBUTED_LIMIT:
        problems.append(f"cli.main: {share:.1%} of the traced wall is in no "
                        f"layer's span (limit {UNATTRIBUTED_LIMIT:.0%})")
    flops = spans["states.apply.dense"]["flops"]
    if workload == FM and flops > FM_DENSE_FLOPS_LIMIT:
        problems.append(f"states.apply.dense: {flops} flops on {workload} "
                        f"exceed the predicted {FM_DENSE_FLOPS_LIMIT:.0e}")
    return problems
