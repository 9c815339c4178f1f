"""Named suites and report plumbing."""
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spolab.lemmas import _margins_stderr, make_twirl_plan
from spolab.reporting import (
    check,
    check_close,
    suite_document,
    timed_rows,
    to_csv,
    to_json,
)
from spolab.suites import (
    MIN_SAMPLED_SIDE,
    SUITES,
    run_attack,
    run_suite,
    sampler_chi_square,
    suite_circuits,
    suite_relations,
)

from helpers import (count_calls, count_runs, count_twirl_rows, dense_trace_distance,
                     final_state, per_pair_twirl_grids)

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

    with pytest.raises(ValueError, match="n in 1..5"):
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


def test_recurrence_certification_row_fails_on_a_wrong_rational(monkeypatch):
    """The certification row sets the float recurrence against the rational
    one, so a wrong rational f must fail it."""
    from spolab import permutations
    name = "recurrence-rational-certification[n<=12]"
    assert {r.name: r for r in run_suite("active-sets", 3)}[name].passed
    monkeypatch.setattr(permutations, "_f_recurrence", Fraction)  # f(m) = m
    assert not {r.name: r for r in run_suite("active-sets", 3)}[name].passed


@pytest.mark.parametrize("workload", ["verify-all", "fundamental-mc", "sponge-attack"])
def test_workload_matches_the_benchmark_reference(monkeypatch, tmp_path, capsys,
                                                 workload):
    """Each benchmark workload's command line, run at seed 1, passes the
    benchmark's own output check against its recorded reference: for the
    verify runs the same case names, every row passing, and every value
    within the check's width; for the attack its recorded fields and a
    success mean within 3 stderr of the reference."""
    from spolab.cli import main

    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS[workload]
    out = tmp_path / "report.json"
    rc = main(workloads.cli_argv(wl, 1, out))
    capsys.readouterr()
    assert workloads.check_report(wl, 1, rc, json.loads(out.read_text()),
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


# project_plus_db calls of progress_suite(4) and sparsity_suite(4) when each
# twirl average steps through one (sigma, tau) pair at a time.
PER_PAIR_PROJECTOR_CALLS = 96_165


def test_progress_and_sparsity_suites_step_through_whole_sigma_rows(monkeypatch):
    """At N = 4 every twirl average takes one step per sigma-row, 24 in
    all, each over the row's 24 pairs, and the two suites make at most a tenth of the projector
    calls of one pair per step.  progress_suite runs each of its circuits
    once (75 runs when each average ran its own), and makes at most 13 runs
    in all: the accumulation rows read the run of the query-step rows
    (109 when they reran it for every relation and x), and the standard
    form of each querying circuit runs once for its crucial terms and its
    sparsity tail (29 when the crucial terms reran it per relation)."""
    import spolab.circuits as circuits_mod
    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod

    from spolab.suites import DEFAULT_SEED, progress_suite, sparsity_suite

    projector = count_calls(monkeypatch, oracles_mod, "project_plus_db")
    averages = count_calls(monkeypatch, lemmas_mod, "_twirl_average")
    rows = count_twirl_rows(monkeypatch)
    runs = count_runs(monkeypatch)
    staged = count_calls(monkeypatch, circuits_mod, "run_with_intermediates")
    assert all(r.passed for r in progress_suite(4))
    assert len(runs) == len(suite_circuits(4, DEFAULT_SEED, max_q=2)) == 5
    assert len(runs) + len(staged) <= 13
    assert all(r.passed for r in sparsity_suite(4))
    assert averages and rows == list(range(24)) * len(averages)
    assert len(projector) <= PER_PAIR_PROJECTOR_CALLS // 10


def test_fundamental_suite_runs_each_circuit_once(monkeypatch):
    """fundamental_suite runs each of its circuits once for all of its
    relations: at N = 4 its 6 circuits and the 2 analytic fixtures (32 runs
    when every check ran its own circuit), at N = 8 its 2 circuits (4)."""
    from spolab.suites import DEFAULT_SEED, fundamental_suite

    runs = count_runs(monkeypatch)
    exact = fundamental_suite(4)
    assert all(r.passed for r in exact)
    assert len(runs) == len(suite_circuits(4, DEFAULT_SEED)) + 2 == 8
    assert not any("grid" in r.as_row() for r in exact)
    runs.clear()
    sampled = fundamental_suite(8, min_pairs=196)
    assert all(r.passed for r in sampled)
    assert len(runs) == 2
    # Sampled rows name their crossed grid, rows x cols.
    assert [r.as_row()["grid"] for r in sampled] == [[14, 14]] * 4


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
                got = tspo_distances(final, sigma, plan.taus, ref)
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
    tspo_distances: spo_recover runs once per concrete-vs-spo circuit and
    once for the probe's untwirled readout, never once per pair."""
    import spolab.oracles as oracles_mod
    from spolab.suites import DEFAULT_SEED, spo_equivalence_suite

    calls = count_calls(monkeypatch, oracles_mod, "spo_recover")
    reports = spo_equivalence_suite(4, max_q=2)
    assert all(r.passed for r in reports)
    assert len(calls) == len(suite_circuits(4, DEFAULT_SEED, max_q=2)) + 1


def test_twirl_suite_ranks_its_label_maps_one_table_per_sigma_row(monkeypatch):
    """The left-right checks rank the tau maps and the sigma maps as one
    table each, and the joint maps of each sigma-row in one call: 2 + 24
    left_right_map calls for the 576 pairs, plus the 48 of the
    initial-twirl check, which twirls one permutation at a time."""
    import spolab.oracles as oracles_mod
    from spolab.suites import twirl_suite

    make_twirl_plan(4)  # the shared plan's maps are built once per process
    calls = count_calls(monkeypatch, oracles_mod, "left_right_map")
    assert all(r.passed for r in twirl_suite(4))
    assert len(calls) == 48 + 2 + 24


def test_batched_pair_suites_run_one_sigma_row_per_circuit_run(monkeypatch):
    """Every (sigma, tau) check runs one sigma-row of the full-group plan per
    circuit run, counted wherever a spolab module binds ``run``; the rows
    read from those runs carry their pair count, and under the timing rule
    of run_suite every row its gap."""
    from spolab.suites import spo_equivalence_suite, twirl_suite

    calls = count_runs(monkeypatch)
    reports = timed_by_gaps(
        lambda: timed_rows(lambda: spo_equivalence_suite(4, max_q=2)))
    assert len(calls) <= 179  # 10 ensembles, 1 + 24 probe runs, 2 x 24 x 3
    calls.clear()
    reports += timed_by_gaps(lambda: timed_rows(lambda: twirl_suite(4)))
    assert len(calls) <= 125  # 5 circuits x (1 plain + 24 sigma-rows)
    assert max(backend.rows for backend in calls) == 24
    batched = [r for r in reports if r.name.split("[")[0] in (
        "spo-vs-tspo-all-pairs", "twisted-vs-not", "std-experiment-1-vs-2",
        "std-experiment-1-vs-3")]
    assert len(batched) == 10 and all(r.passed for r in reports)
    assert all(r.extra["pairs"] == 576 for r in batched)


@pytest.mark.parametrize("suite", ["progress", "sparsity"])
def test_gamma_is_built_once_per_suite(monkeypatch, suite):
    """Gamma(N) is built once per process: from a cold cache, the progress
    and sparsity suites (either first) scatter W^(2) once between them, the
    only cycle average Gamma(2) reads."""
    import spolab.lemmas as lemmas_mod

    lemmas_mod.gamma_operator.cache_clear()
    builds = count_calls(monkeypatch, lemmas_mod, "cycle_average")
    other = {"progress": "sparsity", "sparsity": "progress"}[suite]
    for name in (suite, other):
        assert all(r.passed for r in run_suite(name, 2))
    assert builds == [(2, 2)]
