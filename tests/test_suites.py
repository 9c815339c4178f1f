"""Named suites and report plumbing."""
import dataclasses
import importlib.util
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spolab.lemmas import grid_mean_stderr, make_twirl_plan
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

from helpers import count_calls, count_pair_steps, count_runs, final_state

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


def test_grid_mean_stderr():
    rng = np.random.default_rng(0)
    vals = rng.normal(5.0, 1.0, size=(40, 50))
    mean, se = grid_mean_stderr(vals)
    assert mean == pytest.approx(vals.mean())
    assert 0 < se < 0.2
    mean1, se1 = grid_mean_stderr(np.ones((1, 3)))
    assert se1 == 0.0


def test_grid_mean_stderr_crossed_coverage():
    """A crossed grid with row and column effects: the grand mean must sit
    within 3 stderr of the true mean (0) about 99.7 % of the time.  Taking
    only the larger of the row and column errors covers about 97.5 %."""
    rng = np.random.default_rng(2007)
    side, grids = 45, 2000
    covered = 0
    for _ in range(grids):
        rows = rng.normal(0.0, 1.0, size=(side, 1))
        cols = rng.normal(0.0, 1.0, size=(1, side))
        vals = rows + cols + rng.normal(0.0, 0.3, size=(side, side))
        mean, se = grid_mean_stderr(vals)
        covered += abs(mean) <= 3.0 * se
    assert covered / grids >= 0.99


@pytest.mark.parametrize("side", [MIN_SAMPLED_SIDE, 45])
def test_grid_mean_stderr_covers_real_twirl_grids(monkeypatch, side):
    """3-SE coverage on the per-pair grids the lab averages: the exhaustive
    N = 4 grids of p_ii, the p2 expression and the progress measure of a
    querying suite circuit against the pair and sponge relations.  Each draw
    is a side x side grid, rows and columns drawn uniformly with replacement
    as make_twirl_plan draws them: the smallest grid the sampled fundamental
    suite accepts, and the 45 x 45 grid that ``--samples 2000`` samples."""
    import spolab.lemmas as lemmas
    from spolab.suites import DEFAULT_SEED

    crossed = dataclasses.replace(make_twirl_plan(4), exhaustive=False)
    grids = []

    def record(values):
        grids.append(values.copy())
        return grid_mean_stderr(values)

    monkeypatch.setattr(lemmas, "grid_mean_stderr", record)
    final = final_state(suite_circuits(4, DEFAULT_SEED, max_q=2)[-1])
    rels = dict(suite_relations(4))
    for rname in ("pair", "sponge"):
        lemmas.experiment_probabilities(final, rels[rname], crossed)
        lemmas.p2_upper_bound(final, rels[rname], crossed)
        lemmas.progress_measure(final, rels[rname], crossed)
    assert len(grids) == 6 and all(g.shape == (24, 24) for g in grids)

    rng = np.random.default_rng(45)
    draws = 1000
    picks = [(rng.integers(0, 24, side), rng.integers(0, 24, side))
             for _ in range(draws)]
    coverage = []
    for grid in grids:
        exact = grid.mean()
        covered = 0
        for rows, cols in picks:
            mean, se = grid_mean_stderr(grid[np.ix_(rows, cols)])
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


def test_sampled_twirl_plan_smallest_grid():
    plan = make_twirl_plan(5, seed=1, min_pairs=2)
    assert plan.grid_shape == (2, 2)


def test_twirl_plan_shapes():
    plan = make_twirl_plan(3)
    assert plan.exhaustive and plan.pair_count == 36
    assert plan.right_inv.dtype == plan.left_inv.dtype == np.int32
    sampled = make_twirl_plan(5, seed=1, min_pairs=100)
    assert not sampled.exhaustive
    assert sampled.pair_count >= 100
    with pytest.raises(ValueError):
        make_twirl_plan(5, seed=None, min_pairs=10)


def test_twirl_plan_holds_read_only_image_tables(monkeypatch):
    """A plan keeps sigmas and taus as read-only int image tables, no
    Permutation: all_images(n) on both sides when exhaustive, and the seeded
    sample_uniform draws in order (sigmas first) when sampled.  Its inverse
    images invert those rows, and a replace() copy with another chunk builds
    no label map."""
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
    maps = count_calls(monkeypatch, lemmas, "left_right_map")
    copy = dataclasses.replace(plan, chunk=4)
    assert maps == [] and copy.chunk == 4
    assert copy.right_inv is plan.right_inv and copy.left_inv is plan.left_inv


def test_twirl_plan_pairs_invert_the_composed_label_maps():
    from spolab.oracles import left_right_map

    n = 4
    # Chunks of 5 columns leave a ragged last chunk of 4 on every row.
    plan = dataclasses.replace(make_twirl_plan(n), chunk=5)
    arange = np.arange(24)
    seen = []
    for i, c0, sigma, lj in plan.pairs():
        assert sigma.tolist() == plan.sigmas[i].tolist() and len(lj) == min(5, 24 - c0)
        for c, col in enumerate(lj):
            tau = plan.taus[c0 + c]
            m = left_right_map(n, tau=tau)[left_right_map(n, sigma=sigma)]
            assert np.array_equal(m[plan.right_inv[i][col]], arange)
            seen.append((i, c0 + c))
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


def test_verify_all_matches_the_benchmark_reference(monkeypatch):
    """``verify --suite all --n 6 --seed 1`` passes the benchmark's own
    output check against its recorded reference: the same case names, every
    row passing, and every exact value within the check's width."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS["verify-all"]
    doc = json.loads(to_json(suite_document("all", 6, 1,
                                            run_suite("all", 6, seed=1))))
    assert workloads.check_report(wl, 1, 0, doc,
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
    """One progress_measure and one p2_upper_bound per (circuit, relation);
    the relation-free sparsity tail is read through Gamma, so the direct
    sparsity average never runs."""
    import spolab.lemmas as lemmas_mod

    calls = dict.fromkeys(("progress_measure", "p2_upper_bound",
                           "sparsity_expectation"), 0)
    for name in calls:
        def counted(*args, _orig=getattr(lemmas_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(lemmas_mod, name, counted)
    reports = run_suite("progress", 2)
    assert all(r.passed for r in reports)
    assert calls == {"progress_measure": 20, "p2_upper_bound": 20,
                     "sparsity_expectation": 0}


# project_plus_db calls of progress_suite(4) and sparsity_suite(4) when each
# twirl average steps through one (sigma, tau) pair at a time.
PER_PAIR_PROJECTOR_CALLS = 96_165


def test_progress_and_sparsity_suites_step_through_whole_sigma_rows(monkeypatch):
    """At N = 4 every twirl average takes one step per sigma-row, each step
    24 pairs wide, and the two suites make at most a tenth of the projector
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
    steps = count_pair_steps(monkeypatch)
    runs = count_runs(monkeypatch)
    staged = count_calls(monkeypatch, circuits_mod, "run_with_intermediates")
    assert all(r.passed for r in progress_suite(4))
    assert len(runs) == len(suite_circuits(4, DEFAULT_SEED, max_q=2)) == 5
    assert len(runs) + len(staged) <= 13
    assert all(r.passed for r in sparsity_suite(4))
    assert averages and len(steps) == 24 * len(averages)
    assert set(steps) == {24}
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


def test_batched_pair_suites_run_one_sigma_row_per_circuit_run(monkeypatch):
    """Every (sigma, tau) check runs one sigma-row of the exhaustive plan per
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
