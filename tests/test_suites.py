"""Named suites and report plumbing."""
import json

import numpy as np
import pytest

from spolab.lemmas import grid_mean_stderr, make_twirl_plan
from spolab.reporting import (
    check,
    check_close,
    suite_document,
    to_csv,
    to_json,
)
from spolab.suites import (
    SUITES,
    run_attack,
    run_suite,
    sampler_chi_square,
    suite_circuits,
    suite_relations,
)


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
    sampled = make_twirl_plan(5, seed=1, min_pairs=100)
    assert not sampled.exhaustive
    assert sampled.pair_count >= 100
    with pytest.raises(ValueError):
        make_twirl_plan(5, seed=None, min_pairs=10)


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


def test_suite_circuit_and_relation_sets():
    circuits = suite_circuits(4, seed=1)
    assert circuits[0].query_count == 0
    assert {c.query_count for c in circuits} == {0, 1, 2, 3}
    names = [n for n, _r in suite_relations(4)]
    assert names == ["empty", "full", "diag", "pair", "sponge"]
    assert [n for n, _r in suite_relations(8)][-1] == "sponge"


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
        d = trace_distance(concrete_ensemble(circ, n),
                           spo_ensemble(circ, spo_backend(n)))
        assert d < 1e-9


def test_run_attack_validation():
    with pytest.raises(ValueError):
        run_attack("sponge", 3, 1, 1, backend="concrete", trials=10)  # no seed
    with pytest.raises(ValueError):
        run_attack("bogus", 3, 1, 1)
    with pytest.raises(ValueError):
        run_attack("sponge", 4, 2, 1, backend="spo")  # 2^4 > 8


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
