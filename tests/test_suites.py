"""Named suites and report plumbing."""
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spolab.suites as suites_mod
from spolab.circuits import LocalUnitary, classical_probe, random_circuit, standard_form
from spolab.lemmas import _margins_stderr, make_twirl_plan
from spolab.reporting import (
    check,
    check_close,
    suite_document,
    timed_rows,
    to_csv,
    to_json,
)
from spolab.states import from_diagonal
from spolab.suites import (
    MIN_SAMPLED_SIDE,
    SUITE_SIZES,
    SUITES,
    run_attack,
    run_suite,
    sampler_chi_square,
    suite_circuits,
    suite_relations,
)

from helpers import (all_pairs_experiment_2, count_calls, count_runs, count_twirl_rows,
                     dense_cycle_average, dense_trace_distance, final_state,
                     per_pair_twirl_grids, record_executions, wrong_side_referee)

ROOT = Path(__file__).resolve().parents[1]


def test_check_pass_rules():
    assert check("a", 1.0, 2.0).passed
    assert not check("b", 2.0, 1.0).passed
    assert check("c", 1.0 + 1e-10, 1.0).passed  # inside exact tolerance
    mc = check("d", 1.05, 1.0, method="monte_carlo", stderr=0.02)
    assert mc.passed  # within 3 sigma
    assert not check("e", 1.2, 1.0, method="monte_carlo", stderr=0.02).passed
    with pytest.raises(ValueError):
        check("f", 0, 1, method="monte_carlo")
    assert check_close("g", 1.0, 1.0 + 5e-10).passed
    assert not check_close("h", 1.0, 1.1).passed


def test_report_document_and_csv():
    reports = [check("one", 0.5, 1.0), check("two", 2.0, 1.0)]
    doc = suite_document("demo", 4, 7, reports, config={"k": 1})
    assert doc["totals"] == {"cases": 2, "passed": 1, "failed": 1}
    parsed = json.loads(to_json(doc))
    assert parsed["suite"] == "demo" and parsed["seed"] == 7
    csv_text = to_csv(doc)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("name,lhs,rhs,slack,pass")
    assert len(lines) == 3


def mean_and_margins_stderr(grid):
    """The mean of a crossed grid and the stderr _margins_stderr gives from
    its row and column means, as the sampled p_ii reads its grid."""
    return grid.mean(), _margins_stderr(grid.mean(axis=1), grid.mean(axis=0))


def test_grid_mean_stderr():
    """On [[1, 2, 3], [4, 5, 9]] the row means 2, 6 have sample variance 8
    and the column means 2.5, 3.5, 6 have 13/4, so _margins_stderr gives
    sqrt(8/2 + (13/4)/3) = sqrt(61/12) about the mean 4.  One row gives no
    estimate and reports 0."""
    mean, se = mean_and_margins_stderr(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 9.0]]))
    assert mean == 4.0
    assert se == pytest.approx(math.sqrt(61 / 12), rel=1e-15)
    mean1, se1 = mean_and_margins_stderr(np.ones((1, 3)))
    assert se1 == 0.0


def test_grid_mean_stderr_crossed_coverage():
    """A crossed grid with row and column effects: the grand mean must sit
    within 3 stderr of _margins_stderr of the true mean (0) about 99.7 % of
    the time.  Taking only the larger of the row and column errors covers
    about 97.5 %."""
    rng = np.random.default_rng(2007)
    side, grids = 45, 2000
    covered = 0
    for _ in range(grids):
        rows = rng.normal(0.0, 1.0, size=(side, 1))
        cols = rng.normal(0.0, 1.0, size=(1, side))
        vals = rows + cols + rng.normal(0.0, 0.3, size=(side, side))
        mean, se = mean_and_margins_stderr(vals)
        covered += abs(mean) <= 3.0 * se
    assert covered / grids >= 0.99


@pytest.fixture(scope="module")
def n4_twirl_grids():
    """The full-group N = 4 per-pair grids of p_ii and the p2 expression of
    a querying suite circuit against the pair and sponge relations."""
    from spolab.suites import DEFAULT_SEED

    final = final_state(suite_circuits(4, DEFAULT_SEED, max_q=2)[-1])
    rels = dict(suite_relations(4))
    return [grid for rname in ("pair", "sponge")
            for grid in per_pair_twirl_grids(final, rels[rname], make_twirl_plan(4),
                                             ("p_ii", "p2")).values()]


@pytest.mark.parametrize("side", [MIN_SAMPLED_SIDE, 45])
def test_grid_mean_stderr_covers_real_twirl_grids(n4_twirl_grids, side):
    """3-SE coverage of _margins_stderr on the per-pair grids the lab
    averages: the full-group N = 4 grids of n4_twirl_grids.  Each draw is a
    side x side grid, rows and columns drawn uniformly with replacement as
    make_twirl_plan draws them: the smallest grid the sampled fundamental
    suite accepts, and the 45 x 45 grid that ``--samples 2000`` samples."""
    grids = n4_twirl_grids
    assert len(grids) == 4 and all(g.shape == (24, 24) for g in grids)

    rng = np.random.default_rng(45)
    draws = 1000
    picks = [(rng.integers(0, 24, side), rng.integers(0, 24, side))
             for _ in range(draws)]
    coverage = []
    for grid in grids:
        exact = grid.mean()
        covered = 0
        for rows, cols in picks:
            mean, se = mean_and_margins_stderr(grid[np.ix_(rows, cols)])
            covered += abs(mean - exact) <= 3.0 * se
        coverage.append(covered / draws)
    assert np.mean(coverage) >= 0.98, coverage
    assert min(coverage) >= 0.97, coverage


@pytest.mark.parametrize("min_pairs", [1, 0, -3])
def test_sampled_twirl_plan_rejects_fewer_than_2x2(monkeypatch, min_pairs):
    import spolab.lemmas as lemmas

    def no_sampling(*_args):
        raise AssertionError("sampled before the size check")

    monkeypatch.setattr(lemmas, "sample_uniform", no_sampling)
    with pytest.raises(ValueError, match="min_pairs"):
        make_twirl_plan(8, seed=1, min_pairs=min_pairs)


@pytest.mark.parametrize("n", [0, -1])
def test_help_norm_suite_refuses_a_size_below_1(n):
    from spolab.suites import help_norm_suite

    message = f"the help-norm suite runs at n in {{1, 2, 3, 4, 5}}, got n={n}"
    with pytest.raises(ValueError, match=re.escape(message)):
        help_norm_suite(n)


def test_sampled_twirl_plan_smallest_grid():
    plan = make_twirl_plan(5, seed=1, min_pairs=2)
    assert plan.grid_shape == (2, 2)


def test_twirl_plan_shapes():
    plan = make_twirl_plan(3)
    assert plan.grid_shape == (6, 6) and plan.pair_count == 36
    assert plan.right_inv.dtype == plan.left_inv.dtype == np.int32
    sampled = make_twirl_plan(5, seed=1, min_pairs=100)
    assert sampled.pair_count >= 100
    with pytest.raises(ValueError):
        make_twirl_plan(5, seed=None, min_pairs=10)


def test_twirl_plan_holds_read_only_image_tables():
    """A plan keeps sigmas and taus as read-only int image tables, no
    Permutation: all_images(n) on both sides for the full group, and the seeded
    sample_uniform draws in order (sigmas first) when sampled.  Its inverse
    images invert those rows, and its derived tables are no constructor
    arguments.  Its steps are its sigma-rows, in order."""
    import spolab.lemmas as lemmas
    from spolab.permutations import all_images, sample_uniform

    plan = make_twirl_plan(3)
    tables = (plan.sigmas, plan.taus, plan.sigma_inv, plan.tau_inv,
              plan.right_inv, plan.left_inv)
    assert all(isinstance(t, np.ndarray) and not t.flags.writeable for t in tables)
    assert plan.sigmas.dtype.kind == plan.taus.dtype.kind == "i"
    assert plan.sigmas.tolist() == plan.taus.tolist() == all_images(3).tolist()
    for table, inv in ((plan.sigmas, plan.sigma_inv), (plan.taus, plan.tau_inv)):
        assert (np.take_along_axis(table, inv, axis=1) == np.arange(3)).all()
    sampled = make_twirl_plan(5, seed=1, min_pairs=100)
    rng = np.random.default_rng(1)
    draws = [list(sample_uniform(5, rng).images) for _ in range(20)]
    assert sampled.sigmas.tolist() == draws[:10]
    assert sampled.taus.tolist() == draws[10:]
    with pytest.raises(TypeError, match="right_inv"):
        lemmas.TwirlPlan(3, plan.sigmas, plan.taus, right_inv=plan.right_inv)
    assert list(plan.pairs()) == list(range(6))


def test_twirl_plan_pairs_invert_the_composed_label_maps():
    from spolab.oracles import left_right_map

    n = 4
    plan = make_twirl_plan(n)
    arange = np.arange(24)
    seen = []
    for i in plan.pairs():
        sigma = plan.sigmas[i]
        for j, (tau, col) in enumerate(zip(plan.taus, plan.left_inv)):
            m = left_right_map(n, tau=tau)[left_right_map(n, sigma=sigma)]
            assert np.array_equal(m[plan.right_inv[i][col]], arange)
            seen.append((i, j))
    assert sorted(seen) == [(i, j) for i in range(24) for j in range(24)]
    assert len(seen) == plan.pair_count == 576


def test_suite_registry_runs_small():
    for name in sorted(SUITES):
        if name == "all":
            continue
        n = 2
        reports = run_suite(name, n, seed=5, samples=64)
        assert reports, name
        assert all(r.passed for r in reports), (name, [
            r.name for r in reports if not r.passed])
    with pytest.raises(KeyError):
        run_suite("bogus", 2)


# The suite functions SUITES reads by module-global name, as run_suite calls them.
SUITE_FUNCTIONS = {name: name.replace("-", "_") + "_suite" for name in SUITE_SIZES}


def test_size_table_covers_every_suite_but_all():
    assert set(SUITE_SIZES) == set(SUITES) - {"all"}
    assert set(SUITE_FUNCTIONS.values()) <= set(vars(suites_mod))


def _refused_sizes(sizes):
    """The sizes just outside each end of an entry, and every gap inside it."""
    return [n for n in range(min(sizes) - 1, max(sizes) + 2) if n not in sizes]


@pytest.mark.parametrize("name", sorted(SUITE_SIZES))
def test_run_suite_refuses_sizes_outside_the_table_before_the_suite(monkeypatch,
                                                                   name):
    """run_suite refuses every n just outside a suite's entry, and every gap
    of it, with one message format, before the suite function or any circuit
    runs."""
    import spolab.circuits as circuits_mod
    from spolab.permutations import SizeLimitError

    def no_work(*args, **kwargs):
        raise AssertionError("the suite started before its size was checked")

    monkeypatch.setattr(circuits_mod, "_execute", no_work)
    for function in SUITE_FUNCTIONS.values():
        monkeypatch.setattr(suites_mod, function, no_work)
    sizes = SUITE_SIZES[name]
    shown = ", ".join(map(str, sizes))
    for n in _refused_sizes(sizes):
        message = f"the {name} suite runs at n in {{{shown}}}, got n={n}"
        with pytest.raises(SizeLimitError, match=re.escape(message)):
            run_suite(name, n)


def test_all_suite_passes_only_sizes_in_the_table(monkeypatch):
    """``all`` clamps each sub-suite by cost, to a size its entry holds, at
    every n (its sub-suites recorded, not run)."""
    seen = []
    for name, function in SUITE_FUNCTIONS.items():
        monkeypatch.setattr(suites_mod, function,
                            lambda n, *a, _name=name, **k: seen.append((_name, n)) or [])
    monkeypatch.setattr(suites_mod, "sampler_chi_square", lambda *a: None)
    for n in range(1, 12):
        seen.clear()
        suites_mod._all_suite(n, 1, 2000)
        assert sorted(name for name, _ in seen) == sorted(SUITE_SIZES)
        assert all(size in SUITE_SIZES[name] for name, size in seen), (n, seen)


def test_gamma_and_commutator_entries_mirror_their_owners(monkeypatch):
    """The gamma entry ends at the largest N whose Gamma fits the amplitude
    budget, the commutator entry at commutator_growth_check's cap; each
    owner still refuses a direct call one size above, before any matrix."""
    import spolab.lemmas as lemmas_mod
    from spolab.oracles import BudgetError, charge
    from spolab.suites import commutator_suite, gamma_suite

    class Charged(Exception):
        pass

    def charge_only(entries, what):
        charge(entries, what)
        raise Charged  # within the budget: stop before the matrix is built

    monkeypatch.setattr(lemmas_mod, "charge", charge_only)
    top = max(SUITE_SIZES["gamma"])
    with pytest.raises(Charged):
        gamma_suite(top)
    with pytest.raises(BudgetError, match=f"Gamma at n={top + 1} needs"):
        gamma_suite(top + 1)
    top = max(SUITE_SIZES["commutator"])
    with pytest.raises(ValueError, match=f"commutator check capped at n={top}$"):
        commutator_suite(top + 1)


def test_run_attack_simple_reference_is_the_textbook_closed_form():
    """reference_simple is sin^2((2k+1) asin(sqrt(f))) with the expected
    marked fraction f: 2^(c - n_bits) for the sponge, 2^-c for zero search."""
    for kind, n_bits, c in (("sponge", 2, 1), ("sponge", 3, 1), ("sponge", 3, 2),
                            ("zero-search", 2, 1), ("zero-search", 3, 2)):
        frac = 2.0 ** (c - n_bits) if kind == "sponge" else 2.0 ** (-c)
        for k in range(4):
            got = run_attack(kind, n_bits, c, k, backend="spo")["reference_simple"]
            assert got == math.sin((2 * k + 1) * math.asin(math.sqrt(frac))) ** 2


def test_recurrence_certification_row_fails_on_a_wrong_rational(monkeypatch):
    """The certification row sets the float recurrence against the rational
    one, so a wrong rational f must fail it."""
    from spolab import permutations
    name = "recurrence-rational-certification[n<=12]"
    assert {r.name: r for r in run_suite("active-sets", 3)}[name].passed
    monkeypatch.setattr(permutations, "_f_recurrence", Fraction)  # f(m) = m
    assert not {r.name: r for r in run_suite("active-sets", 3)}[name].passed


@pytest.mark.parametrize("workload,seed", [
    pytest.param("verify-all", 1, id="verify-all"),
    pytest.param("verify-all", 0, id="verify-all-seed0"),
    pytest.param("verify-all", 10, id="verify-all-seed10"),
    pytest.param("fundamental-mc", 1, id="fundamental-mc"),
    pytest.param("sponge-attack", 1, id="sponge-attack"),
])
def test_workload_matches_the_benchmark_reference(monkeypatch, tmp_path, capsys,
                                                 workload, seed):
    """Each benchmark workload's command line, run at seed 1 (verify-all
    also at 0 and 10, the ends of the recorded seeds), passes the benchmark's own
    output check against its recorded reference: for the verify runs the
    same case names, every row passing, and every value within the check's
    width; for the attack its recorded fields and a success mean within 3
    stderr of the reference."""
    from spolab.cli import main

    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS[workload]
    out = tmp_path / "report.json"
    rc = main(workloads.cli_argv(wl, seed, out))
    capsys.readouterr()
    assert workloads.check_report(wl, seed, rc, json.loads(out.read_text()),
                                  workloads.load_reference(wl)) == []


def timed_by_gaps(make):
    """The reports of ``make()``, checked for the timing rule: every row
    carries a gap >= 0, and the gaps add up to the wall time of the call,
    to 5 % or 5 ms."""
    start = time.perf_counter()
    reports = make()
    wall_ms = (time.perf_counter() - start) * 1000.0
    assert reports and all(r.runtime_ms >= 0.0 for r in reports)
    total = sum(r.runtime_ms for r in reports)
    assert abs(total - wall_ms) <= max(0.05 * wall_ms, 5.0), (total, wall_ms)
    return reports


@pytest.mark.parametrize("name, n", [(name, 2) for name in sorted(SUITES)
                                     if name != "all"] + [("progress", 4)])
def test_run_suite_times_each_row_since_the_previous_row(name, n):
    timed_by_gaps(lambda: run_suite(name, n, seed=5, samples=64))


def test_suite_circuit_and_relation_sets():
    circuits = suite_circuits(4, seed=1)
    assert circuits[0].query_count == 0
    assert {c.query_count for c in circuits} == {0, 1, 2, 3}
    names = [n for n, _r in suite_relations(4)]
    assert names == ["empty", "full", "diag", "pair", "sponge"]
    assert [n for n, _r in suite_relations(8)][-1] == "sponge"


def test_progress_suite_computes_each_twirl_average_once(monkeypatch):
    """One progress_measure per (circuit, relation), one p2_upper_bound per
    circuit and one crucial_term_values per querying circuit, each pass
    covering every relation; the relation-free sparsity tail is read
    through Gamma, so the direct sparsity average never runs."""
    import spolab.lemmas as lemmas_mod
    from spolab.suites import DEFAULT_SEED, suite_circuits, suite_relations

    calls = dict.fromkeys(("progress_measure", "p2_upper_bound",
                           "crucial_term_values", "sparsity_expectation"), 0)
    for name in calls:
        def counted(*args, _orig=getattr(lemmas_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(lemmas_mod, name, counted)
    reports = run_suite("progress", 2)
    assert all(r.passed for r in reports)
    circuits = suite_circuits(2, DEFAULT_SEED, max_q=2)
    assert len(circuits) == 5 and len(suite_relations(2)) == 4
    assert sum(1 for c in circuits if c.query_count) == 4
    assert calls == {"progress_measure": 20, "p2_upper_bound": 5,
                     "crucial_term_values": 4, "sparsity_expectation": 0}


def test_progress_suite_queries_and_checks_each_pre_query_state_once(monkeypatch):
    """The per-query rows of progress_suite(4) query each of its 5 pre-query
    states once and check its weights once, for every relation and x: 5
    spo_query and 5 check_uniform_weights calls from spolab.lemmas (100 and
    200 when each (state, relation, x) made its own)."""
    import spolab.lemmas as lemmas_mod

    from spolab.suites import progress_suite

    calls = dict.fromkeys(("spo_query", "check_uniform_weights"), 0)
    for name in calls:
        def counted(*args, _orig=getattr(lemmas_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(lemmas_mod, name, counted)
    reports = progress_suite(4)
    assert all(r.passed for r in reports)
    assert sum(r.name.startswith("query-step[") for r in reports) == 100
    assert calls == {"spo_query": 5, "check_uniform_weights": 5}


# project_plus_db calls of progress_suite(4) and sparsity_suite(4) when each
# twirl average steps through one (sigma, tau) pair at a time.
PER_PAIR_PROJECTOR_CALLS = 96_165


def test_progress_and_sparsity_suites_step_through_whole_sigma_rows(monkeypatch):
    """At N = 4 every twirl average takes one step per sigma-row, 24 in
    all, each over the row's 24 pairs, and the two suites make at most a tenth of the projector
    calls of one pair per step.  progress_suite makes 9 circuit executions
    in all: each of its 5 circuits runs once, with intermediates, for its
    progress, query-step and accumulation rows (13 when the progress rows
    ran it apart, 75 when each average ran its own, 109 when the
    accumulation rows reran it for every relation and x), and the standard
    form of each of the 4 querying circuits runs once for its crucial terms
    and its sparsity tail (29 when the crucial terms reran it per
    relation)."""
    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod

    from spolab.suites import DEFAULT_SEED, progress_suite, sparsity_suite

    projector = count_calls(monkeypatch, oracles_mod, "project_plus_db")
    averages = count_calls(monkeypatch, lemmas_mod, "_twirl_average")
    rows = count_twirl_rows(monkeypatch)
    executions = record_executions(monkeypatch)
    runs = count_runs(monkeypatch)
    assert all(r.passed for r in progress_suite(4))
    assert len(suite_circuits(4, DEFAULT_SEED, max_q=2)) == 5
    assert len(executions) == 9 and not runs
    assert all(r.passed for r in sparsity_suite(4))
    assert averages and rows == list(range(24)) * len(averages)
    assert len(projector) <= PER_PAIR_PROJECTOR_CALLS // 10


def test_fundamental_suite_runs_each_circuit_once(monkeypatch):
    """fundamental_suite runs each of its circuits once for all of its
    relations: at N = 4 its 6 circuits, whose empty and probe finals also
    serve the 2 analytic fixtures (8 runs when the fixtures ran their own,
    32 when every check ran its own circuit), at N = 8 its 2 circuits (4)."""
    from spolab.suites import DEFAULT_SEED, fundamental_suite

    runs = count_runs(monkeypatch)
    exact = fundamental_suite(4)
    assert all(r.passed for r in exact)
    assert len(runs) == len(suite_circuits(4, DEFAULT_SEED)) == 6
    assert not any("grid" in r.as_row() for r in exact)
    runs.clear()
    sampled = fundamental_suite(8, min_pairs=196)
    assert all(r.passed for r in sampled)
    assert len(runs) == 2
    # Sampled rows name their crossed grid, rows x cols.
    assert [r.as_row()["grid"] for r in sampled] == [[14, 14]] * 4


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_wrong_side_checks_match_the_set_referee(n):
    """The image-table gathers give the wrong-side rows the lhs of the
    set-based referee, both 0."""
    reps = suites_mod._wrong_side_checks(n)
    assert [r.name for r in reps] == [f"wrong-side-uniformity[n={n}]",
                                      f"wrong-side-point-probability[n={n}]"]
    assert [r.lhs for r in reps] == list(wrong_side_referee(n)) == [0, 0]
    assert all(r.passed for r in reps)


def test_wrong_side_uniformity_fails_on_a_repeated_upper(monkeypatch):
    """Negative control: when partial_product returns the identity for the
    all-zero factor tuple, the identity is an upper twice for every k, so
    some products repeat and both the row and the referee count failures."""
    from spolab.permutations import identity

    original = suites_mod.partial_product

    def repeated(f, k, side):
        return identity(f.n) if not any(f.t) else original(f, k, side)

    monkeypatch.setattr(suites_mod, "partial_product", repeated)
    reps = suites_mod._wrong_side_checks(4)
    assert [r.lhs for r in reps] == list(wrong_side_referee(4))
    assert reps[0].lhs >= 1 and not reps[0].passed


def test_sampler_chi_square_rejects_bias():
    # a deliberately skewed sample must fail the 4-sigma gate: simulate by
    # checking the statistic of a constant sample is enormous
    rep = sampler_chi_square(3, 4000, seed=2)
    assert rep.passed
    assert rep.extra["df"] == 5


def test_sampler_chi_square_peak_memory_and_statistic():
    """The 200,000-draw chi-square at N = 4 holds its batch in one-byte
    factor and image tables and builds its codes one column at a time: the
    traced peak stays below 9 MiB (25 MiB with int64 tables and a matmul
    code), and the draws, hence the statistic at seed 1, are those of the
    int64 sampler."""
    import tracemalloc

    sampler_chi_square(4, 1000, seed=1)  # caches built outside the trace
    tracemalloc.start()
    try:
        rep = sampler_chi_square(4, 200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.lhs == 17.849919999999997 and rep.passed
    assert peak < 9 * 2 ** 20, peak


def test_backend_equivalence_across_suite_circuits():
    # concrete-ensemble and SPO backends agree in distribution and as CQ
    # ensembles for every suite circuit at N = 4
    import numpy as _np

    from spolab.circuits import (
        concrete_ensemble,
        output_distribution,
        run,
        spo_ensemble,
    )
    from spolab.oracles import concrete_backend, spo_backend
    from spolab.permutations import all_permutations
    from spolab.states import trace_distance

    n = 4
    for circ in suite_circuits(n, seed=77, max_q=2):
        avg = _np.zeros((n, n))
        for p in all_permutations(n):
            avg += output_distribution(run(circ, concrete_backend(p)), "xy")
        avg /= 24
        spo_dist = output_distribution(run(circ, spo_backend(n)), "xy")
        assert _np.abs(avg - spo_dist).max() < 1e-9
        d = trace_distance(concrete_ensemble(circ),
                           spo_ensemble(circ, spo_backend(n)))
        assert d < 1e-9


def test_exact_attack_runs_its_circuit_once(monkeypatch):
    calls = count_runs(monkeypatch)
    res = run_attack("sponge", 3, 1, 1, target=1)
    assert len(calls) == 1 and calls[0].images.shape == (40320, 8)
    assert res["method"] == "exact-ensemble"
    assert res["success_mean"] == pytest.approx(res["reference_exact"], abs=1e-12)


def test_sampled_attack_runs_one_drawn_permutation_per_trial(monkeypatch):
    """Trials are drawn by sample_uniform in order and run one per pass; the
    values equal a loop of K = 1 success_probability calls bit for bit."""
    import spolab.suites as suites_mod
    from spolab.circuits import grover_preimage, success_probability
    from spolab.permutations import sample_uniform
    from spolab.relations import sponge_preimage_relation

    draws = []

    def drawing(n, rng):
        draws.append(sample_uniform(n, rng))
        return draws[-1]

    monkeypatch.setattr(suites_mod, "sample_uniform", drawing)
    calls = count_runs(monkeypatch)
    res = run_attack("sponge", 4, 2, 1, trials=12, seed=5)
    assert len(draws) == 12 and len(calls) == 12
    assert all(backend.images.shape == (1, 16) for backend in calls)
    rng = np.random.default_rng(5)
    assert [p.images for p in draws] == [sample_uniform(16, rng).images
                                         for _ in range(12)]
    circ, rel = grover_preimage(4, 2, 0, 1), sponge_preimage_relation(4, 2, 0)
    vals = np.array([success_probability(circ, p, rel)[0] for p in draws])
    assert res["success_mean"] == float(vals.mean())
    assert res["success_std"] == float(vals.std(ddof=1))
    assert res["success_stderr"] == float(vals.std(ddof=1) / np.sqrt(12))


def test_sampled_attack_reuses_its_state_buffers():
    """The 200-trial sponge attack runs every trial through one pair of
    state buffers, so the allocator does not hand fresh pages to each step:
    in a fresh interpreter the attack makes fewer than 10,000 minor page
    faults (about 98,700 when every step allocated a 1 MB state)."""
    pytest.importorskip("resource")
    code = ("import resource\n"
            "from spolab.suites import run_attack\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_attack('sponge', 8, 4, 4, trials=200, seed=1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert int(proc.stdout) < 10_000


def test_exact_attack_refuses_n_above_the_enumeration_cap(monkeypatch):
    import spolab.suites as suites_mod
    from spolab.permutations import SizeLimitError

    def fail(*args, **kwargs):
        raise AssertionError("built a circuit or a table before the size check")

    for name in ("all_images", "grover_preimage", "zero_search_adversary", "run"):
        monkeypatch.setattr(suites_mod, name, fail)
    for kind in ("sponge", "zero-search"):
        for backend in ("concrete", "spo"):
            with pytest.raises(SizeLimitError, match="capped at N = 8"):
                run_attack(kind, 4, 2, 1, backend=backend)


def test_run_attack_validation():
    with pytest.raises(ValueError):
        run_attack("sponge", 3, 1, 1, backend="concrete", trials=10)  # no seed
    with pytest.raises(ValueError):
        run_attack("bogus", 3, 1, 1)
    with pytest.raises(ValueError):
        run_attack("sponge", 4, 2, 1, backend="spo")  # 2^4 > 8


@pytest.mark.parametrize("trials", [1, 0, -3])
def test_run_attack_rejects_fewer_than_two_trials(monkeypatch, trials):
    import spolab.circuits as circuits_mod
    import spolab.suites as suites_mod

    def fail(*args, **kwargs):
        raise AssertionError("built or ran a circuit before checking trials")

    monkeypatch.setattr(circuits_mod, "run", fail)
    monkeypatch.setattr(suites_mod, "grover_preimage", fail)
    with pytest.raises(ValueError, match="trials"):
        run_attack("sponge", 4, 2, 1, trials=trials, seed=1)


@pytest.mark.parametrize("options, named", [
    ({"trials": 200, "seed": 1}, "trials"),
    ({"trials": 200}, "trials"),
    ({"seed": 1}, "seed"),
])
def test_run_attack_spo_refuses_sampling_options(monkeypatch, options, named):
    import spolab.suites as suites_mod

    def fail(*args, **kwargs):
        raise AssertionError("built a circuit before checking the options")

    monkeypatch.setattr(suites_mod, "grover_preimage", fail)
    with pytest.raises(ValueError, match=f"spo backend takes no {named}"):
        run_attack("sponge", 3, 1, 1, backend="spo", **options)


def test_run_attack_checks_the_budget_before_the_relation(monkeypatch):
    import spolab.oracles as oracles_mod
    import spolab.suites as suites_mod
    from spolab.oracles import BudgetError

    def fail(*args, **kwargs):
        raise AssertionError("built the relation bitset before the budget check")

    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", 3 * 16 * 16 - 1)
    monkeypatch.setattr(suites_mod, "sponge_preimage_relation", fail)
    monkeypatch.setattr(suites_mod, "zero_search_relation", fail)
    for kind in ("sponge", "zero-search"):
        with pytest.raises(BudgetError, match="768"):
            run_attack(kind, 4, 2, 1, trials=10, seed=1)


def test_run_attack_zero_iterations_exact():
    res = run_attack("zero-search", 2, 1, 0)
    # uniform guess: success exactly 2^{-c} in expectation over pi
    assert res["success_mean"] == pytest.approx(0.5, abs=1e-12)
    assert res["method"] == "exact-ensemble"
    assert res["q"] == 0


def test_run_attack_spo_matches_concrete():
    a = run_attack("sponge", 2, 1, 1, backend="spo", target=0)
    b = run_attack("sponge", 2, 1, 1, backend="concrete", target=0)
    assert a["success_mean"] == pytest.approx(b["success_mean"], abs=1e-10)


def test_run_attack_sampled():
    res = run_attack("sponge", 4, 2, 1, backend="concrete", trials=40, seed=9)
    assert res["method"] == "monte_carlo"
    assert 0 <= res["success_mean"] <= 1
    assert res["success_stderr"] > 0
    assert res["bound_clamped"] == 1.0  # desk scale: the bound is vacuous


def test_run_attack_zero_search_sampled():
    # one amplification round over sampled 16-element permutations agrees
    # with the hypergeometric-exact reference within 3 standard errors
    res = run_attack("zero-search", 4, 1, 1, backend="concrete", trials=80,
                     seed=12)
    gap = abs(res["success_mean"] - res["reference_exact"])
    assert gap <= 3 * res["success_stderr"]
    assert res["q"] == 2


@pytest.mark.parametrize("n", [2, 4])
def test_tspo_readout_matches_per_pair_recover_and_dense_reference(n):
    """tspo_distances reads the T readouts of a sigma-run in one pass.  For
    the spo-vs-tspo probe and a two-query random circuit, on every pair of
    the full group, it equals spo_recover + trace_distance of that pair to
    1e-12, both for matched runs (distance 0) and for runs whose tau rows
    are shifted by one (distances far from 0); it equals the dense
    eigenvalue reference helpers.dense_trace_distance on every pair at
    N = 2 and on one shifted pair per sigma-run at N = 4."""
    from spolab.circuits import random_circuit, run, spo_ensemble
    from spolab.oracles import spo_backend, spo_recover
    from spolab.states import trace_distance
    from spolab.suites import DEFAULT_SEED, tspo_distances

    plan = make_twirl_plan(n)
    worst_shifted = 0.0
    for circ in (suite_circuits(n, DEFAULT_SEED)[1], random_circuit(5, 2, 2, n)):
        ref = spo_ensemble(circ, spo_backend(n))
        for shift in (0, 1):
            taus = np.roll(plan.taus, shift, axis=0)  # the taus the runs query with
            for i, sigma in enumerate(plan.sigmas):
                sigmas = np.broadcast_to(sigma, taus.shape)
                final = run(circ, spo_backend(n, sigma=sigmas, tau=taus))
                got = tspo_distances(final, plan.right_inv[i][plan.left_inv], ref)
                assert got.shape == (len(plan.taus),)
                for k, tau in enumerate(plan.taus):
                    ens = spo_recover(final, sigma, tau, row=k)
                    assert abs(got[k] - trace_distance(ref, ens)) <= 1e-12, (i, k)
                    if n == 2 or k == i and shift:
                        assert abs(got[k] - dense_trace_distance(ref, ens)) <= 1e-12
                if shift:
                    worst_shifted = max(worst_shifted, float(got.max()))
                else:
                    assert got.max() <= 1e-12, (circ.name, i)
    assert worst_shifted > 0.1


def test_spo_vs_tspo_pair_loop_makes_no_spo_recover_call(monkeypatch):
    """The spo-equivalence suite reads each twirled readout through
    tspo_distances: spo_recover runs once per concrete-vs-spo circuit, whose
    readout of the probe is also the untwirled side of spo vs tspo, never
    once per pair."""
    import spolab.oracles as oracles_mod
    from spolab.suites import DEFAULT_SEED, spo_equivalence_suite

    calls = count_calls(monkeypatch, oracles_mod, "spo_recover")
    reports = spo_equivalence_suite(4, max_q=2)
    assert all(r.passed for r in reports)
    assert len(calls) == len(suite_circuits(4, DEFAULT_SEED, max_q=2))


def test_twirl_suite_ranks_its_label_maps_one_table_per_sigma_row(monkeypatch):
    """The left-right and initial-twirl checks rank the tau maps and the
    sigma maps as one table each, and the joint maps of each sigma-row in
    one call: 2 + 24 left_right_map calls for the 576 pairs."""
    import spolab.oracles as oracles_mod
    from spolab.suites import twirl_suite

    make_twirl_plan(4)  # the shared plan's maps are built once per process
    calls = count_calls(monkeypatch, oracles_mod, "left_right_map")
    assert all(r.passed for r in twirl_suite(4))
    assert len(calls) == 2 + 24


def test_label_map_families_take_one_left_right_map_call_per_table(monkeypatch):
    """Every label-map family is ranked as whole image tables: the
    hit-fiber swaps in one call per register (8 at N = 8), each cycle class
    (15 transpositions, 40 3-cycles at N = 6) in one call per side, and the
    brute-force Gamma in one per side, not one call per permutation.  The
    spo-vs-tspo loop reads the plan's composed maps and ranks nothing: the
    spo-equivalence suite's only ranking is the twirl certificate's, 2 + 24
    tables, which the standard-form checks read."""
    import itertools

    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod
    from spolab.suites import spo_equivalence_suite

    make_twirl_plan(4)  # the shared plan's maps are built once per process
    calls = count_calls(monkeypatch, oracles_mod, "left_right_map")
    lemmas_mod._hit_fibers.__wrapped__(8)
    assert len(calls) == 8
    for (ell, classes), side in itertools.product(((2, 15), (3, 40)), ("left", "right")):
        calls.clear()
        maps = lemmas_mod._cycle_maps.__wrapped__(6, ell, side)
        assert len(calls) == 1 and maps.shape == (classes, 720), (ell, side)
    calls.clear()
    lemmas_mod.gamma_brute_force(5)
    assert len(calls) == 2
    calls.clear()
    suites_mod.twirl_certificate(make_twirl_plan(4))
    certificate = len(calls)
    calls.clear()
    assert all(r.passed for r in spo_equivalence_suite(4, max_q=2))
    assert certificate == 2 + 24 and len(calls) == certificate


def test_batched_pair_suites_run_one_sigma_row_per_circuit_run(monkeypatch):
    """Every (sigma, tau) check runs one sigma-row of the full-group plan per
    circuit run, counted wherever a spolab module binds ``run``; the rows
    read from those runs carry their pair count, and under the timing rule
    of run_suite every row its gap."""
    from spolab.suites import spo_equivalence_suite, twirl_suite

    calls = count_runs(monkeypatch)
    reports = timed_by_gaps(
        lambda: timed_rows(lambda: spo_equivalence_suite(4, max_q=2)))
    # 10 ensembles, and per standard-form circuit 24 sigma-rows of
    # experiments 1 and 3 and one of experiment 2; spo vs tspo reads the
    # probe's experiment-1 runs (133 when it made its own 1 + 24).
    assert len(calls) == 108
    calls.clear()
    reports += timed_by_gaps(lambda: timed_rows(lambda: twirl_suite(4)))
    assert len(calls) <= 125  # 5 circuits x (1 plain + 24 sigma-rows)
    assert max(backend.rows for backend in calls) == 24
    batched = [r for r in reports if r.name.split("[")[0] in (
        "spo-vs-tspo-all-pairs", "twisted-vs-not", "std-experiment-1-vs-2",
        "std-experiment-1-vs-3")]
    assert len(batched) == 10 and all(r.passed for r in reports)
    assert all(r.extra["pairs"] == 576 for r in batched)
    certified = [r for r in batched if r.name.startswith("std-experiment-1-vs-2")]
    assert len(certified) == 2
    assert all(r.extra["certified"] and r.extra["pairs_run"] == 24 for r in certified)


# Circuit executions per suite under _all_suite at n = 6 and n = 2; the
# other suites run no circuit.
SUITE_EXECUTIONS = {
    6: {"spo_equivalence_suite": 108, "twirl_suite": 125, "fundamental_suite": 6,
        "progress_suite": 9, "sparsity_suite": 6, "theorem_suite": 3},
    2: {"spo_equivalence_suite": 20, "twirl_suite": 15, "fundamental_suite": 6,
        "progress_suite": 9, "sparsity_suite": 6, "theorem_suite": 3},
}


@pytest.mark.parametrize("n", sorted(SUITE_EXECUTIONS))
def test_no_suite_repeats_a_circuit_execution(monkeypatch, n):
    """Each suite runs each (circuit, oracle tables) pair once and reads
    every row it needs from that run: under _all_suite, every circuit
    execution falls inside one suite, and no suite repeats an execution
    key (helpers.execution_key: the circuit's steps and operator entries,
    and the backend's tables).  A key may still recur across suites, since
    each suite also runs on its own.  At n = 6, 301 executions with 44
    repeats when theorem ran one run per relation, spo vs tspo its own
    sigma-rows, and progress and fundamental their own runs for rows and
    fixtures that now read the suite's."""
    keys = record_executions(monkeypatch)
    per_suite = {}
    for name in [name for name in vars(suites_mod) if name.endswith("_suite")
                 and name not in ("_all_suite", "run_suite")]:
        def tagged(*args, _orig=getattr(suites_mod, name), _name=name, **kwargs):
            start = len(keys)
            reports = _orig(*args, **kwargs)
            per_suite[_name] = keys[start:]
            return reports

        monkeypatch.setattr(suites_mod, name, tagged)
    assert all(r.passed for r in suites_mod._all_suite(n, 1, suites_mod.DEFAULT_SAMPLES))
    assert sum(map(len, per_suite.values())) == len(keys)
    repeats = {name: len(k) - len(set(k)) for name, k in per_suite.items()}
    assert not any(repeats.values()), repeats
    assert {name: len(k) for name, k in per_suite.items() if k} == SUITE_EXECUTIONS[n]


@pytest.mark.parametrize("seed", [1, 3])
def test_all_suite_builds_few_flat_gather_indices(monkeypatch, seed):
    """Each operator that gathers through a flat index acts on one set of
    targets per circuit, so its one gather slot is rebuilt only for a new
    layout: _all_suite at n = 6 builds at most 18 indices.  Seed 3's
    standard-form circuit queries inverse, then forward; when the K-row
    tau side's V served (P, Y) and (P, X) from one op, it built 110."""
    import spolab.states as states_mod

    built = count_calls(monkeypatch, states_mod, "_flat_gather",
                        record=lambda op, lay, targets, axes:
                        op.gather is None or op.gather[0] != (lay, targets))
    assert all(r.passed for r in suites_mod._all_suite(6, seed, suites_mod.DEFAULT_SAMPLES))
    assert 0 < sum(built) <= 18


@pytest.mark.parametrize("n", SUITE_SIZES["fundamental"])
def test_fundamental_rows_are_sampled_exactly_where_verify_takes_samples(n):
    """fundamental_suite samples above lemmas.EXHAUSTIVE_TWIRL_LIMIT, the
    threshold at which cli._sampled lets verify take --samples: at every
    size of the suite, its rows are monte_carlo exactly when --samples is
    accepted, and exact otherwise."""
    import argparse

    from spolab.cli import _sampled

    sampled = _sampled(argparse.Namespace(suite="fundamental", n=n, n_max=None))
    reports = suites_mod.fundamental_suite(n, min_pairs=196)
    assert reports and all(r.passed for r in reports)
    assert {r.method for r in reports} == {"monte_carlo" if sampled else "exact"}


def test_spo_vs_tspo_row_reads_the_probe_runs_against_the_given_readout():
    """standard_form_checks emits spo-vs-tspo-all-pairs first, from the
    probe's experiment-1 runs: 0 against the probe's untwirled readout, as
    every per-pair spo_recover distance is, and far from 0 against the
    readout of another probe."""
    from spolab.circuits import spo_ensemble
    from spolab.oracles import spo_backend

    n = 4
    plan = make_twirl_plan(n)
    rows = _standard_form_checks(plan)
    assert rows[0].name == "spo-vs-tspo-all-pairs[probe-f0]"
    assert rows[0].passed and rows[0].lhs <= 1e-12 and rows[0].extra["pairs"] == 576
    other = spo_ensemble(classical_probe(n, 1, "forward"), spo_backend(n))
    wrong = suites_mod.standard_form_checks(plan, other)
    assert wrong[0].name == rows[0].name and not wrong[0].passed and wrong[0].lhs > 0.1
    assert [r.name for r in wrong] == [r.name for r in rows]


def _standard_form_circuits(n: int, seed: int = suites_mod.DEFAULT_SEED) -> list:
    """The two circuits of suites.standard_form_checks."""
    return [classical_probe(n, 0, "forward"), random_circuit(seed + 9, 2, 2, n)]


def _standard_form_checks(plan) -> list:
    """suites.standard_form_checks with the probe's untwirled readout, as
    the spo-equivalence suite passes it."""
    from spolab.circuits import spo_ensemble
    from spolab.oracles import spo_backend

    probe = _standard_form_circuits(plan.n)[0]
    return suites_mod.standard_form_checks(plan, spo_ensemble(probe, spo_backend(plan.n)))


@pytest.mark.parametrize("n", [2, 4])
def test_experiment_2_row_matches_the_all_pairs_referee(n):
    """std-experiment-1-vs-2 runs one sigma-row of the plan and reads the
    twirl certificate for the others; the tests-only loop over every
    sigma-row agrees with it within the row's 1e-12."""
    plan = make_twirl_plan(n)
    reports = {r.name: r for r in _standard_form_checks(plan)}
    for circ in _standard_form_circuits(n):
        row = reports[f"std-experiment-1-vs-2[{circ.name}]"]
        assert row.passed and row.extra["certified"]
        assert row.extra["pairs"] == plan.pair_count
        assert row.extra["pairs_run"] == len(plan.taus)
        referee = all_pairs_experiment_2(circ, standard_form(circ), plan)
        assert abs(row.lhs - referee) <= 1e-12, (circ.name, row.lhs, referee)


@pytest.mark.parametrize("foreign", ["P", "D"])
def test_experiment_2_row_fails_on_a_step_that_acts_on_p_or_d(monkeypatch, foreign):
    """Negative control: a standard form with a non-query step on P (a
    phase per run) or on D (a phase on D4, injected past QueryCircuit's
    validation) is refused by the structural check, so the one-row row
    fails uncertified, and the all-pairs referee tells it apart too.  With
    the structural check stubbed out, the row still fails on its own
    sigma-row's deviation, which here is every row's."""
    n = 4
    plan = make_twirl_plan(n)
    rows = len(plan.taus)
    step = {"P": LocalUnitary(("P",), from_diagonal((rows,), (-1.0) ** np.arange(rows))),
            "D": LocalUnitary(("D4",), from_diagonal((n,), [1.0, 1.0, 1.0, -1.0]))}[foreign]

    def tampered(circ):
        b = standard_form(circ)
        object.__setattr__(b, "steps", b.steps + (step,))  # past QueryCircuit's check
        return b

    monkeypatch.setattr(suites_mod, "standard_form", tampered)
    reports = {r.name: r for r in _standard_form_checks(plan)}
    monkeypatch.setattr(suites_mod, "_foreign_steps", lambda circ: 0)
    unchecked = {r.name: r for r in _standard_form_checks(plan)}
    for circ in _standard_form_circuits(n):
        name = f"std-experiment-1-vs-2[{circ.name}]"
        row = reports[name]
        assert not row.passed and not row.extra["certified"] and row.lhs >= 1.0
        assert reports[f"std-experiment-1-vs-3[{circ.name}]"].passed
        referee = all_pairs_experiment_2(circ, tampered(circ), plan)
        assert referee > 0.1
        assert unchecked[name].extra["certified"] and not unchecked[name].passed
        assert abs(unchecked[name].lhs - referee) <= 1e-12


def test_experiment_2_row_fails_without_the_twirl_certificate(monkeypatch):
    """A failed twirl-certificate row fails both experiment-2 rows, whose
    one sigma-row alone still reads 0."""
    real = suites_mod.twirl_certificate

    def broken(plan):
        rows = real(plan)
        rows[-1] = check(rows[-1].name, 1, 0, tol=0.0)
        return rows

    monkeypatch.setattr(suites_mod, "twirl_certificate", broken)
    reports = _standard_form_checks(make_twirl_plan(4))
    rows = [r for r in reports if r.name.startswith("std-experiment-1-vs-2")]
    assert len(rows) == 2
    assert all(not r.passed and r.lhs == 1.0 and not r.extra["certified"] for r in rows)
    assert all(r.passed for r in reports if r not in rows)


@pytest.mark.parametrize("suite", ["progress", "sparsity"])
def test_gamma_is_built_once_per_suite(suite):
    """From cold caches the progress suite builds no dense Gamma, and the
    sparsity suite builds Gamma(2) once, through commutator_norm: with
    that norm cached, neither suite builds one."""
    import spolab.lemmas as lemmas_mod

    other = {"progress": "sparsity", "sparsity": "progress"}[suite]
    lemmas_mod.commutator_norm.cache_clear()
    builds = []
    for warm in (False, True):
        if warm:
            for direction in ("forward", "inverse"):
                lemmas_mod.commutator_norm(2, direction)
        lemmas_mod.gamma_operator.cache_clear()
        for name in (suite, other):
            assert all(r.passed for r in run_suite(name, 2))
            builds.append(lemmas_mod.gamma_operator.cache_info().misses)
    assert builds == {"progress": [0, 1, 0, 0], "sparsity": [1, 1, 0, 0]}[suite]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cycle_average_rows_read_what_a_dense_scatter_gives(monkeypatch, n):
    """The gamma suite's cycle-average rows, exact counts over the class
    maps' arcs, read what a dense W scattered from the same maps gives:
    max|W_R - W_L| and max|W - W^T| (0.0), and a Schur bound of exactly 1.0
    where the SVD norm is 1 to 1e-12.  With one label's image duplicated in
    a right map, all three rows fail: the two gaps still match the dense W,
    and the Schur bound stays above its SVD norm."""
    from spolab.lemmas import _cycle_maps

    def rows():
        return {r.name: r for r in suites_mod.gamma_suite(n)
                if r.name.startswith("cycle-average")}

    def duplicated(n, ell, side):
        maps = _cycle_maps(n, ell, side)
        if side == "right":
            maps = maps.copy()
            maps[0, 1] = maps[0, 0]
        return maps

    for cycle_maps, passed in ((_cycle_maps, True), (duplicated, False)):
        monkeypatch.setattr(suites_mod, "_cycle_maps", cycle_maps)
        got = rows()
        assert len(got) == 6 and all(r.passed == passed for r in got.values())
        for ell in (2, 3):
            right, left = (dense_cycle_average(cycle_maps(n, ell, side))
                           for side in ("right", "left"))
            tag = f"[n={n},l={ell}]"
            assert got[f"cycle-average-left-right{tag}"].lhs == pytest.approx(
                np.abs(right - left).max(), abs=1e-15)
            assert got[f"cycle-average-symmetric{tag}"].lhs == pytest.approx(
                np.abs(right - right.T).max(), abs=1e-15)
            norm = np.linalg.norm(right, 2)
            schur = got[f"cycle-average-norm{tag}"].lhs
            if passed:
                assert got[f"cycle-average-left-right{tag}"].lhs == 0.0
                assert got[f"cycle-average-symmetric{tag}"].lhs == 0.0
                assert schur == 1.0 and abs(norm - 1.0) <= 1e-12
            else:
                assert schur >= norm - 1e-12
