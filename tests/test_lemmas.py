"""Lemma checkers: help norm, experiments, zeta terms, Gamma, trajectories."""
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from spolab.circuits import (
    classical_probe,
    empty_circuit,
    random_circuit,
    run,
    run_with_intermediates,
)
from spolab.lemmas import (
    WeightPreconditionError,
    _apply_progress,
    _section_mask,
    _xy_slices,
    check_uniform_weights,
    commutator_growth_check,
    commutator_norm,
    commutator_operator,
    cycle_average,
    easy_norm_check,
    experiment_probabilities,
    fundamental_check,
    gamma_brute_force,
    gamma_expectation,
    gamma_operator,
    help_norm,
    make_twirl_plan,
    p2_upper_bound,
    progress_accumulation_check,
    progress_checks,
    progress_measure,
    query_step_check,
    sparsity_trajectory_check,
    theorem_check,
    zeta_parts,
    zeta_terms,
)
from spolab.oracles import (
    BudgetError,
    database_dim,
    db_register_geometry,
    perm_tables,
    project_plus_db,
    query_slice_map,
    spo_backend,
    spo_init,
)
from spolab.permutations import (
    identity,
    invert,
    monotone_factorize,
    partial_product,
    sample_uniform,
)
from spolab.relations import (
    diagonal_relation,
    empty_relation,
    from_pairs,
    full_relation,
    sponge_preimage_relation,
)
from spolab.states import StateVector

from helpers import (
    count_calls,
    count_runs,
    count_twirl_rows,
    crossed_grid_stderr,
    final_state,
    index_of_perm,
    per_pair_twirl_averages,
    per_pair_twirl_grids,
    perm_of_index,
    with_loading_query,
)

RNG = np.random.default_rng(23)


# --------------------------------------------------------------------------
# help lemma


def test_help_norm_equality_case():
    # N=2, x=2 (1-based), Y a single value: norm = bound = 1/sqrt(2)
    norm, bound = help_norm(2, 1, {0})
    assert norm == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert bound == pytest.approx(1 / math.sqrt(2))


def test_help_norm_x1_saturates_one():
    # x = 1 (1-based): a deterministic database branch realizes norm 1
    for y_set in ({0}, {1, 3}, {2}):
        norm, bound = help_norm(4, 0, y_set)
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert norm <= bound + 1e-12


def test_help_norm_empty_y():
    norm, bound = help_norm(4, 2, set())
    assert norm == 0.0 and bound == 0.0


def test_help_norm_exhaustive_small():
    for n in (2, 3, 4):
        for x in range(n):
            for r in range(n + 1):
                for y_set in itertools.combinations(range(n), r):
                    norm, bound = help_norm(n, x, set(y_set))
                    assert norm <= bound + 1e-9


def test_help_norm_size_guard():
    with pytest.raises(ValueError):
        help_norm(7, 0, {0})


# --------------------------------------------------------------------------
# database operators


def test_relation_and_progress_operators():
    """Pi^{R,x}, E^{R,x} and P+ as the checks apply them: the section mask,
    _apply_progress and project_plus_db (blocks are (rest, n!) rows)."""
    n = 4
    nf = database_dim(n)
    eye = np.eye(nf, dtype=complex)
    rel = sponge_preimage_relation(2, 1, 1)
    init = spo_init(n)
    for x in range(n):
        mask = _section_mask(rel, x)
        # Pi is diagonal with pi(x) in R_x on the label of pi
        for d in range(nf):
            assert mask[d] == rel.members[x, perm_of_index(n, d).images[x]]
        # E annihilates the fresh database
        out = _apply_progress(init.amps[None, :], n, x, mask)
        assert np.abs(out).max() < 1e-12
        # empty and full relations degenerate as expected
        assert not _section_mask(empty_relation(n), x).any()
        hi, radix, lo = db_register_geometry(n, x)
        plus = np.kron(np.kron(np.eye(hi), np.full((radix, radix), 1.0 / radix)),
                       np.eye(lo))  # |+><+| on D_{x+1}
        assert np.abs(project_plus_db(eye, n, x) - plus).max() < 1e-12
        want = np.eye(nf) - plus
        full_e = _apply_progress(eye, n, x, _section_mask(full_relation(n), x))
        assert np.abs(full_e.T - want).max() < 1e-12
        # E = Pi (I - P+); row d of the block holds E e_d, so compare E^T
        got = _apply_progress(eye, n, x, mask)
        assert np.abs(got.T - mask[:, None] * want).max() < 1e-12


# --------------------------------------------------------------------------
# zeta terms against direct index enumeration


def brute_zeta(state, x, rel, direction):
    """Independent oracle: enumerate pi_{x^c} via explicit factor surgery."""
    n = rel.n
    lay = state.layout
    arr = np.abs(state.reshaped()) ** 2
    keep = {"X"} | {nm for nm in lay.names if nm.startswith("D")}
    axes = tuple(i for i, nm in enumerate(lay.names) if nm not in keep)
    g = arr.sum(axis=axes).reshape(n, -1)
    rx = [int(v) for v in rel.section(x)]
    term1 = len(rx) / (x + 1) * float(g[x].sum())
    term2 = len(rx) / ((x + 1) ** 2 * n)
    # group database labels by their factor tuple with digit x removed
    fibers = {}
    for d in range(database_dim(n)):
        f = monotone_factorize(perm_of_index(n, d))
        key = tuple(tk for k, tk in enumerate(f.t) if k != x)
        fibers.setdefault(key, []).append((d, f))
    total3 = 0.0
    total4 = 0.0
    for key, members in fibers.items():
        d0, f0 = members[0]
        above = partial_product(f0, x, "above")
        below = partial_product(f0, x, "below")
        pxc = tuple(above.images[below.images[v]] for v in range(n))
        above_inv = invert(above)
        fiber_weight = {z: sum(g[z, d] for d, _f in members) for z in range(n)}
        if direction == "forward":
            for z in range(x):
                if pxc[z] in rx:
                    total3 += fiber_weight[z]
        else:
            for z in rx:
                if above_inv.images[z] < x:
                    total3 += fiber_weight[z]
            count = sum(1 for t in range(x + 1) if above.images[t] in rx)
            for z in range(x + 1, n):
                if above_inv.images[z] == x:
                    total4 += count * fiber_weight[z]
    if direction == "forward":
        return term1 + term2 + total3 / (x + 1)
    return term1 + term2 + total3 / (x + 1) + total4 / (x + 1)


def test_zeta_fresh_state_empty_relation():
    n = 4
    state = run(classical_probe(n, 2, "forward"), spo_backend(n))
    for x in range(n):
        assert zeta_terms(state, x, empty_relation(n), "forward") == 0.0
        assert zeta_terms(state, x, empty_relation(n), "inverse") == 0.0


def test_zeta_matches_brute_force():
    n = 4
    circ = random_circuit(21, 2, 2, n)
    _, pre = run_with_intermediates(circ, spo_backend(n))
    states = [s for _d, s in pre] + [run(circ, spo_backend(n))]
    rels = [full_relation(n), diagonal_relation(n),
            sponge_preimage_relation(2, 1, 1), from_pairs(n, [(0, 3), (2, 1)])]
    for state in states[:2] + states[-1:]:
        for rel in rels:
            for x in range(n):
                for direction in ("forward", "inverse"):
                    got = zeta_terms(state, x, rel, direction)
                    want = brute_zeta(state, x, rel, direction)
                    assert got == pytest.approx(want, abs=1e-12)
                    assert got >= -1e-15


def test_zeta_term_structure_fresh_full():
    # fresh joint state (X = |0>), R = full: ||phi_x||^2 = [x == 0], so
    # term1 = |R_x|/x only at x = 0 and term2 = |R_x|/(x^2 N) throughout
    n = 4
    state = run(empty_circuit(n), spo_backend(n))
    rel = full_relation(n)
    for x in range(n):
        parts = zeta_parts(state, x, rel, "forward")
        assert parts[0] == pytest.approx(n / (x + 1) * (1.0 if x == 0 else 0.0))
        assert parts[1] == pytest.approx(n / ((x + 1) ** 2 * n))
        # the z < x sum only sees the z = 0 slice; every pi_{x^c}(0) is in R
        want3 = (1.0 / (x + 1)) if x > 0 else 0.0
        assert parts[2] == pytest.approx(want3)


def test_zeta_weight_precondition():
    n = 4
    lay = run(empty_circuit(n), spo_backend(n)).layout
    amps = np.zeros(lay.total_dim, dtype=complex)
    amps[0] = 1.0  # a basis database state: weights are not 1/N!
    with pytest.raises(WeightPreconditionError):
        check_uniform_weights(StateVector(lay, amps))
    with pytest.raises(WeightPreconditionError):
        zeta_terms(StateVector(lay, amps), 1, full_relation(n), "forward")


# --------------------------------------------------------------------------
# experiments and the fundamental lemma


def half_group_plan(n):
    """The first half of the sigma labels (at least one) against every tau:
    a crossed grid for the sampled p_ii."""
    from spolab.lemmas import TwirlPlan
    from spolab.permutations import all_images

    images = all_images(n)
    return TwirlPlan(n, images[:max(1, len(images) // 2)], images)


def test_the_caller_chooses_the_subset_kernel_or_the_crossed_grid():
    """Without a plan, p_ii reads the subset kernel, with stderr 0.  Given a
    plan, p_ii is the mean over its crossed grid, whatever its tables hold:
    all of S_4 on both sides, as make_twirl_plan(4) or in other row orders,
    gives the exact mean to 1e-12 with the grid's nonzero stderr, and a
    24-row sigma table with one repeated row, or a seeded plan, is a
    sample.  No plan-read result names subsets."""
    from spolab.lemmas import TwirlPlan
    from spolab.permutations import all_images

    n = 4
    images = all_images(n)
    shuffled = TwirlPlan(n, images[::-1],
                         images[np.random.default_rng(7).permutation(len(images))])
    repeated = images.copy()
    repeated[1] = repeated[0]
    final = final_state(random_circuit(43, 2, 2, n))
    rel = diagonal_relation(n)
    want = experiment_probabilities(final, rel)
    assert want.subsets == 7 and want.stderr_ii == 0.0
    for plan in (make_twirl_plan(n), shuffled):
        got = experiment_probabilities(final, rel, plan)
        assert got.subsets is None and got.stderr_ii > 0.0
        assert got.p_ii == pytest.approx(want.p_ii, rel=1e-12)
        assert got.p_i == want.p_i
    for plan in (TwirlPlan(n, repeated, images), make_twirl_plan(n, seed=3)):
        res = experiment_probabilities(final, rel, plan)
        assert res.subsets is None and res.stderr_ii > 0.0


def test_the_full_group_plan_is_one_shared_read_only_plan():
    """make_twirl_plan(n) without a seed gives one cached plan per n, whose
    tables cannot be written; above N = 4 it refuses."""
    plan = make_twirl_plan(4)
    assert make_twirl_plan(4) is plan and plan.pair_count == 576
    for table in (plan.sigmas, plan.taus, plan.sigma_inv, plan.tau_inv,
                  plan.right_inv, plan.left_inv):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.sigmas = plan.taus
    with pytest.raises(ValueError, match="run at n <= 4, got n=5"):
        make_twirl_plan(5)


def test_full_group_checks_refuse_n_above_the_limit_before_a_run(monkeypatch):
    """progress_checks and sparsity_trajectory_check read the full-group
    plan, so at N = 8 they refuse before any circuit runs."""
    import spolab.lemmas as lemmas_mod

    def no_run(*args, **kwargs):
        raise AssertionError("a circuit ran before the plan was built")

    monkeypatch.setattr(lemmas_mod, "run", no_run)
    monkeypatch.setattr(lemmas_mod, "run_with_intermediates", no_run)
    circ = random_circuit(55, 1, 1, 8)
    for call in (lambda: progress_checks(circ, [("diag", diagonal_relation(8))]),
                 lambda: sparsity_trajectory_check(circ)):
        with pytest.raises(ValueError, match="run at n <= 4, got n=8"):
            call()


def test_exact_twirl_averages_refuse_n_above_the_limit_before_a_gather(monkeypatch):
    """p2_upper_bound, sparsity_expectation and crucial_term_values take no
    plan: each reads the full-group plan of its N first, so at N = 5 each
    refuses, naming the limit, before it reads a block or a marginal."""
    import spolab.lemmas as lemmas_mod
    from spolab.lemmas import crucial_term_values, sparsity_expectation
    from spolab.states import database_layout, product_uniform

    def unreachable(*args, **kwargs):
        raise AssertionError("read before the plan was refused")

    monkeypatch.setattr(lemmas_mod, "_db_block", unreachable)
    monkeypatch.setattr(lemmas_mod, "marginal", unreachable)
    n = 5
    state = product_uniform(database_layout(n))
    rel = diagonal_relation(n)
    for call in (lambda: p2_upper_bound(state, [rel]),
                 lambda: sparsity_expectation(state),
                 lambda: crucial_term_values([("forward", state)], [rel])):
        with pytest.raises(ValueError, match="exact twirl averages run at n <= 4"):
            call()


def test_experiment_probe_full_relation():
    n = 4
    res = experiment_probabilities(final_state(classical_probe(n, 0, "forward")),
                                   full_relation(n))
    assert res.p_i == pytest.approx(1.0, abs=1e-10)
    assert res.p_ii == pytest.approx(181 / 576, abs=1e-10)
    assert res.stderr_ii == 0.0


def test_experiment_empty_circuit():
    n = 4
    empty = final_state(empty_circuit(n))
    res = experiment_probabilities(empty, from_pairs(n, [(0, 0)]))
    assert res.p_i == pytest.approx(1 / n, abs=1e-12)
    assert res.p_ii == pytest.approx(0.0, abs=1e-12)
    res_empty = experiment_probabilities(empty, empty_relation(n))
    assert res_empty.p_i == 0.0 and res_empty.p_ii == 0.0


def test_experiment_matches_direct_simulation():
    """Independent oracle: simulate experiment (ii') literally for one fixed
    (sigma, tau): run with the TSPO backend, project D_{sigma(x)} off |+>,
    then measure D and check pi(sigma x) = tau y."""
    n = 4
    circ = random_circuit(41, 1, 2, n)
    rel = diagonal_relation(n)
    sigma, tau = sample_uniform(n, RNG), sample_uniform(n, RNG)
    final = run(circ, spo_backend(n, sigma=sigma, tau=tau))
    lay = final.layout
    arr = final.reshaped()
    pi_table, _ = perm_tables(n)
    nf = database_dim(n)
    p_ii_direct = 0.0
    p_i_direct = 0.0
    from spolab.oracles import project_plus_db

    for x, y in rel.pairs():
        sl = arr[..., x, y, :, :, :, :].reshape(-1, nf)  # registers ..., X, Y, D4..D1
        sx, ty = sigma.images[x], tau.images[y]
        mask = pi_table[:, sx] == ty
        p_i_direct += float((np.abs(sl[:, mask]) ** 2).sum())
        proj = project_plus_db(sl, n, sx, complement=True)
        p_ii_direct += float((np.abs(proj[:, mask]) ** 2).sum())
    # restrict the plan to exactly this pair for a like-for-like comparison
    from spolab.lemmas import TwirlPlan

    plan_one = TwirlPlan(n, [sigma.images], [tau.images])
    res = experiment_probabilities(final_state(circ), rel, plan_one)
    assert res.p_i == pytest.approx(p_i_direct, abs=1e-12)
    assert res.p_ii == pytest.approx(p_ii_direct, abs=1e-12)


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _column_plans(plan):
    """The S x 1 plans of the plan's columns."""
    from spolab.lemmas import TwirlPlan

    return [TwirlPlan(plan.n, plan.sigmas, [tau]) for tau in plan.taus]


def _assert_fiber_form_matches_projector(slices, plan, context, want=None, columns=None):
    """The fiber-hit p_ii term over the <x,y| slices agrees with the
    projector form to 1e-12 relative on every pair of the plan, read as the
    row sums of the S x 1 plans of its columns (``columns``, if built
    already).  The row and column sums of the whole plan equal those of
    ``want``, the per-pair grid of helpers.per_pair_twirl_grids, or, without
    it, of the projector form."""
    from spolab.lemmas import _p_ii_projector, _p_ii_term

    grid = np.empty(plan.grid_shape)
    for j, (tau, column_plan) in enumerate(zip(plan.taus, columns or _column_plans(plan))):
        column, _, _ = _p_ii_term(slices, column_plan)
        assert column.shape == (len(plan.sigmas),)
        for i, (sigma, ri) in enumerate(zip(plan.sigmas, plan.right_inv)):
            grid[i, j] = _p_ii_projector(slices, plan.n, sigma, tau, ri[plan.left_inv[j]])
            assert _close(column[i], grid[i, j]), (context, sigma, tau)
    want = grid if want is None else want
    rows, cols, first = _p_ii_term(slices, plan)
    assert all(map(_close, rows, want.sum(axis=1))), context
    assert all(map(_close, cols, want.sum(axis=0))), context
    assert _close(first, grid[0, 0]), context


def test_fiber_hit_p_ii_matches_projector_form_on_every_n4_pair():
    from spolab.suites import DEFAULT_SEED, suite_circuits, suite_relations

    plan = make_twirl_plan(4)
    columns = _column_plans(plan)
    for circ in suite_circuits(4, DEFAULT_SEED):
        final = final_state(circ)
        for name, rel in suite_relations(4):
            want = per_pair_twirl_grids(final, rel, plan, ("p_ii",))["p_ii"]
            _assert_fiber_form_matches_projector(_xy_slices(final, rel), plan,
                                                 (circ.name, name), want, columns)


def test_fiber_hit_p_ii_matches_projector_form_on_a_sampled_n5_plan():
    """N = 5 has no XOR oracle, so the slices are random: two rows each for
    the pairs of a relation that meets every register, with s = 0."""
    n = 5
    plan = make_twirl_plan(n, seed=6, min_pairs=16)
    assert plan.grid_shape == (4, 4)
    rng = np.random.default_rng(5)
    shape = (2, math.factorial(n))
    slices = [(x, y, rng.normal(size=shape) + 1j * rng.normal(size=shape))
              for x, y in [(0, 0), (1, 4), (2, 2), (3, 0), (4, 1), (4, 3)]]
    _assert_fiber_form_matches_projector(slices, plan, n)


def test_fiber_hit_p_ii_matches_projector_form_on_a_sampled_n8_plan():
    n = 8
    plan = make_twirl_plan(n, seed=3, min_pairs=9)
    assert plan.grid_shape == (3, 3)
    final = final_state(random_circuit(5, 1, 1, n))
    for rel in (diagonal_relation(n), from_pairs(n, [(0, n - 1), (3, 5)])):
        want = per_pair_twirl_grids(final, rel, plan, ("p_ii",))["p_ii"]
        _assert_fiber_form_matches_projector(_xy_slices(final, rel), plan, rel, want)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tau_maps_each_fiber_onto_swaps_of_a_tau_free_hit(n):
    """The identity behind the fiber-hit kernel, from Permutation arithmetic
    alone.  For every label d, register s >= 1 and a few tau, the D_{s+1}
    fiber of d (its digit t_s varied over 0..s) maps under tau^{-1} onto
    {pi_e <s a><s c> : c = 0..s}, where pi_e = tau^{-1} pi_d has
    pi_e(s) = tau^{-1}(pi_d(s)) and a = pi_d^{-1}(pi_{d'}(s)) for the member
    d' with t_s = s.  The tables of _hit_fibers agree with it: d is a hit of
    (s, pi_d(s)) with fiber_a[s, d] = a, e is a hit of (s, pi_e(s)), and
    swaps[s][c] maps d to idx(pi_d <s c>)."""
    from spolab.lemmas import _hit_fibers
    from spolab.permutations import compose, transposition

    rng = np.random.default_rng(n)
    taus = [identity(n)] + [sample_uniform(n, rng) for _ in range(2)]
    hits, fiber_a, swaps = _hit_fibers(n)
    for d in range(math.factorial(n)):
        pi_d = perm_of_index(n, d)
        for s in range(1, n):
            t_s = d // math.factorial(s) % (s + 1)
            fiber = [perm_of_index(n, d + (c - t_s) * math.factorial(s))
                     for c in range(s + 1)]
            a = invert(pi_d).images[fiber[s].images[s]]
            t = pi_d.images[s]
            assert d in hits[s, t]
            assert fiber_a[s, d] == a
            for c in range(s + 1):
                assert swaps[s][c][d] == index_of_perm(
                    compose(pi_d, transposition(n, s, c)))
            for tau in taus:
                tau_inv = invert(tau)
                pi_e = compose(tau_inv, pi_d)
                assert pi_e.images[s] == tau_inv.images[t]
                image = {compose(tau_inv, p).images for p in fiber}
                swapped = {compose(pi_e, compose(transposition(n, s, a),
                                                 transposition(n, s, c))).images
                           for c in range(s + 1)}
                assert image == swapped, (d, s, tau)
                assert index_of_perm(pi_e) in hits[s, pi_e.images[s]]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_tables_read_the_factorization_of_every_tau_image(n):
    """A[c, s-1, y, j] = a(d) * m + j, m = (n-1)!, with a(d) =
    pi_{<s}^{-1}(t_s) of d = tau_c pi_e for the j-th hit e of (s, y), read
    off monotone_factorize and partial_product, for s = 1..n-1 (no row
    reads s = 0).  For each tau and s, the hits of every y cover every
    label once, so every label is checked."""
    from spolab.lemmas import TwirlPlan, _a_tables, _hit_fibers
    from spolab.permutations import compose

    rng = np.random.default_rng(n)
    taus = [identity(n)] + [sample_uniform(n, rng) for _ in range(2)]
    images = [tau.images for tau in taus]
    tables = _a_tables(n, TwirlPlan(n, images, images).left_inv, np.arange(n))
    m = math.factorial(n - 1)
    assert tables.shape == (len(taus), n - 1, n, m)
    assert np.iinfo(tables.dtype).min == 0
    assert np.iinfo(tables.dtype).max >= math.factorial(n) - 1
    assert (tables % m == np.arange(m)).all()
    a_of = tables // m
    hits, _fiber_a, _swaps = _hit_fibers(n)
    for c, tau in enumerate(taus):
        for s in range(1, n):
            seen = set()
            for y in range(n):
                for j, e in enumerate(hits[s, y].tolist()):
                    assert perm_of_index(n, e).images[s] == y
                    pi_d = compose(tau, perm_of_index(n, e))
                    f = monotone_factorize(pi_d)
                    a = invert(partial_product(f, s, "below")).images[f.t[s]]
                    assert a_of[c, s - 1, y, j] == a, (tau, s, y, j)
                    seen.add(pi_d.images)
            assert len(seen) == math.factorial(n)


def test_twirl_plan_and_a_tables_are_charged_before_they_are_built(monkeypatch):
    """Over a (patched) AMPLITUDE_BUDGET, make_twirl_plan refuses its
    2 x side label maps, and the p_ii term its a-tables, before anything is
    sampled, mapped or tabulated."""
    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod
    from spolab.lemmas import _p_ii_term

    n = 4
    plan = make_twirl_plan(n, seed=2, min_pairs=4)

    def unreachable(*_args, **_kwargs):
        raise AssertionError("reached before the budget check")

    for name in ("left_right_map", "sample_uniform", "all_images",
                 "_hit_fibers"):
        monkeypatch.setattr(lemmas_mod, name, unreachable)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", 2 * 2 * 24 - 1)
    with pytest.raises(BudgetError, match="2 x 2 twirl plan needs 2 \\+ 2 label maps"):
        make_twirl_plan(n, seed=2, min_pairs=4)
    with pytest.raises(BudgetError, match="24 x 24 twirl plan"):
        lemmas_mod._full_group_plan.__wrapped__(n)
    # The 2 x 2 plan's maps fit, its a-tables for all four y do not.
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", 2 * 3 * 4 * 6 - 1)
    slices = [(0, y, np.ones((1, 24), dtype=np.complex128)) for y in range(n)]
    with pytest.raises(BudgetError, match="2 x 3 x 4 x 6"):
        _p_ii_term(slices, plan)


@pytest.mark.parametrize("rest,what,entries", [
    (3, "p_ii totals of 4 slices", 4 * 3 * 24),
    (1, "p_ii fiber indices of 4 y x 3 registers", 4 * (2 + 3 + 4) * 6),
], ids=["totals", "fiber-indices"])
def test_p_ii_totals_and_fiber_indices_are_charged_before_they_are_built(
        monkeypatch, rest, what, entries):
    """The p_ii term's per-slice totals (slices x rest x n! amplitudes) and
    its cached fiber indices (sum over s = 1..n-1 of (s+1) (n-1)! entries
    per y) are each charged before anything is gathered.  Here each is the
    term's largest array: one entry short of it is refused before a hit
    table is read, and a budget of exactly its size runs the whole plan and
    each of its columns against the projector form."""
    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod
    from spolab.lemmas import _p_ii_term

    n = 4
    plan = make_twirl_plan(n, seed=2, min_pairs=4)
    rng = np.random.default_rng(rest)
    shape = (rest, 24)
    slices = [(x, y, rng.normal(size=shape) + 1j * rng.normal(size=shape))
              for x, y in [(0, 0), (1, 1), (2, 3), (3, 2)]]
    assert entries == max(2 * 3 * 4 * 6, 4 * rest * 24, 4 * (2 + 3 + 4) * 6)
    with monkeypatch.context() as patch:
        def unreachable(*_args, **_kwargs):
            raise AssertionError("reached before the budget check")

        patch.setattr(lemmas_mod, "_hit_fibers", unreachable)
        patch.setattr(oracles_mod, "AMPLITUDE_BUDGET", entries - 1)
        with pytest.raises(BudgetError, match=f"{what}: {entries} entries"):
            _p_ii_term(slices, plan)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", entries)
    _assert_fiber_form_matches_projector(slices, plan, what)


def _assert_averages_match(got, want, context):
    for key in want:
        for g, w in zip(got[key], want[key]):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-15), (context, key)


def _count_p_ii_tables(monkeypatch):
    """Record, from now on, the (sigma-row, slice) of every _fiber_sq table,
    as (sigma images, x, y), and the row count of every a-table lookup."""
    import spolab.lemmas as lemmas_mod

    tables = count_calls(monkeypatch, lemmas_mod, "_fiber_sq",
                         lambda _v, _t, x, y, sigma, *_: (sigma.tobytes(), x, y))
    lookups = count_calls(monkeypatch, lemmas_mod, "_table_sums",
                          lambda _table, entries: len(entries))
    return tables, lookups


def _assert_each_table_built_once(plan, slices, tables, lookups, context=None):
    """Each (sigma-row, slice) with s = sigma(x) >= 1 is tabulated exactly
    once, and each (s, y) group of them makes one lookup of the plan's T
    columns; the only other lookups are single-row reads, one per slice of row 0,
    for the projector guard's pair (0, 0)."""
    members = [(i, x, y) for i in range(len(plan.sigmas)) for x, y, _v in slices
               if plan.sigmas[i][x]]
    assert sorted(tables) == sorted((plan.sigmas[i].tobytes(), x, y)
                                    for i, x, y in members), context
    groups = {(plan.sigmas[i][x], y) for i, x, y in members}
    firsts = sum(1 for i, _x, _y in members if i == 0)
    assert sorted(lookups) == sorted([len(plan.taus)] * len(groups) + [1] * firsts), context


def _per_pair_cases(plans, averages):
    from spolab.suites import DEFAULT_SEED, suite_circuits, suite_relations

    cases = []
    for plan in plans:
        for circ in suite_circuits(plan.n, DEFAULT_SEED):
            final = final_state(circ)
            for rname, rel in suite_relations(plan.n):
                cases.append((plan, final, rel, (plan.n, circ.name, rname),
                              per_pair_twirl_averages(final, rel, plan, averages)))
    return cases


@pytest.fixture(scope="module")
def per_pair_references():
    """Per-pair references of the sampled p_ii for every suite circuit and
    relation, on crossed grids of each sigma-row width T: a 2 x 1 plan at
    N = 2, a sampled 5 x 5 plan at N = 4 and the 12 x 24 half-group plan at
    N = 4."""
    from spolab.lemmas import TwirlPlan
    from spolab.permutations import all_images

    images = all_images(2)
    plans = [TwirlPlan(2, images, images[:1]),
             make_twirl_plan(4, seed=9, min_pairs=25), half_group_plan(4)]
    return _per_pair_cases(plans, ("p_ii",))


@pytest.mark.parametrize("width", [1, 5, 24])
def test_chunked_twirl_averages_match_the_per_pair_reference(
        monkeypatch, per_pair_references, width):
    """The sampled p_ii walks its plan one whole sigma-row at a time, so the
    chunk it reads is the row's T pairs: 1, 5 or 24 here.  Its mean and
    stderr equal the per-pair reference to 1e-12 relative, and it steps
    through each sigma-row of the plan once, in order, tabulates each
    (sigma-row, slice) once and makes one lookup per (s, y) group.  The
    plan with one column has stderr 0."""
    rows = count_twirl_rows(monkeypatch)
    tables, lookups = _count_p_ii_tables(monkeypatch)
    cases = [case for case in per_pair_references if len(case[0].taus) == width]
    assert cases
    for plan, final, rel, context, want in cases:
        for record in (rows, tables, lookups):
            record.clear()
        res = experiment_probabilities(final, rel, plan)
        _assert_averages_match({"p_ii": (res.p_ii, res.stderr_ii)}, want, (context, width))
        assert rows == list(range(len(plan.sigmas))), context
        _assert_each_table_built_once(plan, _xy_slices(final, rel), tables, lookups, context)


def test_subset_kernel_matches_the_per_pair_reference():
    """On the full group at N = 2 and 4, for every suite circuit and
    relation, p_ii and the progress measure read from the subset kernel,
    and the engine's p2 and sparsity averages, equal the mean of one
    per-pair pass over all (N!)^2 pairs to 1e-12 relative, and N times the
    measure equals p2."""
    from spolab.lemmas import sparsity_expectation

    plans = [make_twirl_plan(2), make_twirl_plan(4)]
    for _plan, final, rel, context, want in _per_pair_cases(
            plans, ("p_ii", "progress", "p2", "sparsity")):
        res = experiment_probabilities(final, rel)
        assert res.subsets == 2 ** (rel.n - 1) - 1 and res.stderr_ii == 0.0
        p2, = p2_upper_bound(final, [rel])
        got = {"p_ii": res.p_ii, "progress": progress_measure(final, rel),
               "p2": p2, "sparsity": sparsity_expectation(final)}
        for key, (mean, _stderr) in want.items():
            assert got[key] == pytest.approx(mean, rel=1e-12, abs=1e-15), (context, key)
        assert rel.n * got["progress"] == pytest.approx(p2, rel=1e-12, abs=1e-15)


def test_sampled_n8_p_ii_covers_the_exact_kernel():
    """The 3-stderr bar of the sampled p_ii is honest at N = 8: for the
    probe against the one-slice suite relation (0, N-1), the estimate from
    make_twirl_plan(8, seed=s, min_pairs=2000) lies within 3 stderr of the
    exact subset kernel for at least 9 of the seeds 0..9, fixed in advance."""
    from spolab.lemmas import _p_ii_kernel

    n = 8
    final = final_state(classical_probe(n, 0, "forward"))
    rel = from_pairs(n, [(0, n - 1)])
    exact = _p_ii_kernel(_xy_slices(final, rel), n)
    assert exact > 0.0
    covered = 0
    for seed in range(10):
        res = experiment_probabilities(final, rel,
                                       make_twirl_plan(n, seed=seed, min_pairs=2000))
        assert res.subsets is None and res.stderr_ii > 0.0
        covered += abs(res.p_ii - exact) <= 3.0 * res.stderr_ii
    assert covered >= 9


def test_subset_kernel_gives_the_n8_probe_fixture():
    """The classical probe against the full relation has
    p_ii = (1/N) sum_{s=1}^{N} (1 - 1/s)^2, which is 2887109/5644800 at
    N = 8; the kernel gives it to 1e-12 relative."""
    from spolab.lemmas import _p_ii_kernel

    n = 8
    want = sum(Fraction(s - 1, s) ** 2 for s in range(1, n + 1)) / n
    assert want == Fraction(2887109, 5644800)
    final = final_state(classical_probe(n, 0, "forward"))
    got = _p_ii_kernel(_xy_slices(final, full_relation(n)), n)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_subset_kernel_is_charged_before_it_gathers(monkeypatch):
    """Over a (patched) AMPLITUDE_BUDGET the subset kernel refuses its
    gathered (rest, N, N, |H|) block before it reads a swap map; one entry
    more and it runs."""
    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod

    n, rest = 4, 2
    block = np.ones((rest, math.factorial(n)), dtype=np.complex128)
    labels = np.arange(6)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", rest * n * n * 6 - 1)
    with monkeypatch.context() as patched:
        def unreachable(*_args, **_kwargs):
            raise AssertionError("reached before the budget check")

        patched.setattr(lemmas_mod, "_hit_fibers", unreachable)
        with pytest.raises(BudgetError, match="gathered 2 x 4 x 4 x 6 block"):
            lemmas_mod._subset_kernel(block, n, 1, labels)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", rest * n * n * 6)
    assert lemmas_mod._subset_kernel(block, n, 1, labels) == pytest.approx(0.0, abs=1e-30)


def test_sampled_n8_p_ii_matches_the_per_pair_reference(monkeypatch):
    """On a sampled 3 x 3 plan at N = 8, one sigma-row per step, p_ii and
    its stderr equal the per-pair reference."""
    n = 8
    plan = make_twirl_plan(n, seed=3, min_pairs=9)
    assert plan.grid_shape == (3, 3)
    final = final_state(random_circuit(5, 1, 1, n))
    rows = count_twirl_rows(monkeypatch)
    for rel in (diagonal_relation(n), from_pairs(n, [(0, n - 1), (3, 5)])):
        want = per_pair_twirl_averages(final, rel, plan, averages=("p_ii",))
        rows.clear()
        res = experiment_probabilities(final, rel, plan)
        _assert_averages_match({"p_ii": (res.p_ii, res.stderr_ii)}, want, rel)
        assert rows == [0, 1, 2]


def test_sampled_n8_experiment_computes_each_sigma_row_once(monkeypatch):
    """On a sampled 2 x 45 plan at N = 8, experiment_probabilities walks the
    plan's sigma-rows once, tabulates each (sigma-row, slice) once, and
    makes one 45-column lookup per (s, y) group, not one per row."""
    from spolab.lemmas import TwirlPlan

    n = 8
    rng = np.random.default_rng(8)
    draws = [sample_uniform(n, rng).images for _ in range(2 + 45)]
    plan = TwirlPlan(n, draws[:2], draws[2:])
    steps = count_twirl_rows(monkeypatch)
    tables, lookups = _count_p_ii_tables(monkeypatch)
    final = final_state(random_circuit(5, 1, 1, n))
    rel = from_pairs(n, [(0, n - 1), (3, 5)])
    res = experiment_probabilities(final, rel, plan)
    assert steps == [0, 1]
    _assert_each_table_built_once(plan, _xy_slices(final, rel), tables, lookups)
    assert res.stderr_ii > 0.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sigma_twirled_fiber_sums_are_transposition_sums_of_the_slice(n):
    """The identity behind the rows of the p_ii kernel, from Permutation
    composition and perm_tables lookups alone.  For u[g] = v[idx(pi_g sigma)],
    every register x, s = sigma(x) and every label f,

        sum_{c<=s} u[idx(pi_f <s c>)] = G[idx(pi_f sigma)],
        G[g] = sum over b with sigma(b) <= s of v[idx(pi_g <x b>)],

    since pi_f <s c> sigma = (pi_f sigma) <x sigma^{-1}(c)>."""
    from spolab.permutations import Permutation, compose, transposition

    pi, _ = perm_tables(n)
    perms = [Permutation(tuple(row)) for row in pi.tolist()]
    label = {p.images: d for d, p in enumerate(perms)}

    def idx(p):
        return label[p.images]

    rng = np.random.default_rng(n)
    v = rng.normal(size=len(perms)) + 1j * rng.normal(size=len(perms))
    sigmas = [identity(n)] + [sample_uniform(n, rng) for _ in range(3)]
    for sigma in sigmas:
        u = np.array([v[idx(compose(p, sigma))] for p in perms])
        for x in range(n):
            s = sigma.images[x]
            below = [b for b in range(n) if sigma.images[b] <= s]
            assert len(below) == s + 1
            for f, pi_f in enumerate(perms):
                lhs = sum(u[idx(compose(pi_f, transposition(n, s, c)))]
                          for c in range(s + 1))
                pi_g = compose(pi_f, sigma)
                rhs = sum(v[idx(compose(pi_g, transposition(n, x, b)))]
                          for b in below)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (sigma, x, f)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sigma_split_fiber_sums_are_the_total_minus_the_reads_above_s(n):
    """The complement the p_ii rows may sum instead, from Permutation
    composition and perm_tables lookups alone.  For every sigma, register x
    with s = sigma(x) and label g,

        sum over b with sigma(b) <= s of v[idx(pi_g <x b>)]
            = T[g] - sum over b with sigma(b) > s of v[idx(pi_g <x b>)],
        T[g] = sum over every b of v[idx(pi_g <x b>)],

    where <x x> is the identity; at s = n - 1 nothing lies above s."""
    from spolab.permutations import Permutation, compose, transposition

    pi, _ = perm_tables(n)
    perms = [Permutation(tuple(row)) for row in pi.tolist()]
    label = {p.images: d for d, p in enumerate(perms)}
    rng = np.random.default_rng(n)
    v = rng.normal(size=len(perms)) + 1j * rng.normal(size=len(perms))
    # reads[x][b][g] = v[idx(pi_g <x b>)]
    reads = [[np.array([v[label[compose(p, transposition(n, x, b)).images]]
                        for p in perms]) for b in range(n)] for x in range(n)]
    tops = 0
    for sigma in perms:
        for x in range(n):
            s = sigma.images[x]
            above = [b for b in range(n) if sigma.images[b] > s]
            assert len(above) == n - 1 - s
            tops += not above
            total = sum(reads[x])
            lhs = sum(reads[x][b] for b in range(n) if sigma.images[b] <= s)
            rhs = total - sum(reads[x][b] for b in above)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12), (sigma, x)
    assert tops == len(perms)  # each sigma maps one x to n - 1


def test_sampled_fundamental_rows_name_their_grid():
    """A sampled fundamental row carries its crossed grid as [rows, cols]
    next to its pair count; an exact row, read without a plan, carries
    neither and names the subset kernel's subsets per register."""
    n = 4
    final = final_state(random_circuit(43, 2, 2, n))
    plan = make_twirl_plan(n, seed=3, min_pairs=6)
    row = fundamental_check(final, diagonal_relation(n), plan).as_row()
    assert row["grid"] == [3, 3] and row["samples"] == 9
    assert "subsets" not in row
    exact = fundamental_check(final, diagonal_relation(n)).as_row()
    assert "grid" not in exact and "samples" not in exact
    assert exact["subsets"] == 7


def test_hit_fibers_hold_one_hit_per_fiber():
    from spolab.lemmas import _hit_fibers

    n = 5
    pi, _ = perm_tables(n)
    hits, fiber_a, swaps = _hit_fibers(n)
    assert {t.dtype for t in (hits, *swaps)} == {np.dtype(np.int32)}
    assert fiber_a.dtype == np.int8 and fiber_a.shape == (n, math.factorial(n))
    assert [len(swap) for swap in swaps] == list(range(1, n + 1))
    for s in range(n):
        _hi, radix, lo = db_register_geometry(n, s)
        assert 0 <= fiber_a[s].min() and fiber_a[s].max() <= s
        for t in range(n):
            assert np.array_equal(hits[s, t], np.flatnonzero(pi[:, s] == t))
            base = hits[s, t] - hits[s, t] // lo % radix * lo
            fibers = base[:, None] + lo * np.arange(radix)
            assert (np.isin(hits[s, t][:, None], fibers).sum(axis=1) == 1).all()
            assert ((pi[fibers, s] == t).sum(axis=1) == 1).all()
            assert len(np.unique(base)) == len(base)


def test_hit_fibers_refuses_a_table_with_shared_fibers(monkeypatch):
    import spolab.lemmas as lemmas_mod

    n = 4
    pi, inv = perm_tables(n)
    bad = pi.copy()
    bad[:, 2] = 0  # every label now "hits" pi_d(2) = 0
    monkeypatch.setattr(lemmas_mod, "perm_tables", lambda _n: (bad, inv))
    with pytest.raises(RuntimeError, match="distinct fibers"):
        lemmas_mod._hit_fibers.__wrapped__(n)


def test_experiment_builds_each_sigma_row_once(monkeypatch):
    """experiment_probabilities tabulates each (sigma-row, slice) of the
    p_ii term exactly once per call and makes one lookup per (s, y) group,
    on a half-group plan and on a sampled plan; the projector guard reads
    row 0's tables, not a second copy.  Without a plan it builds none:
    p_ii is the subset kernel's."""
    tables, lookups = _count_p_ii_tables(monkeypatch)
    n = 4
    final = final_state(random_circuit(43, 2, 2, n))
    slices = _xy_slices(final, full_relation(n))
    for plan in (half_group_plan(n),
                 make_twirl_plan(n, seed=3, min_pairs=9)):
        tables.clear()
        lookups.clear()
        experiment_probabilities(final, full_relation(n), plan)
        assert tables
        _assert_each_table_built_once(plan, slices, tables, lookups, plan.grid_shape)
    tables.clear()
    lookups.clear()
    experiment_probabilities(final, full_relation(n))
    assert tables == [] and lookups == []


def test_experiment_guard_raises_on_corrupted_hit_tables(monkeypatch):
    """The guard of the sampled p_ii evaluates the plan's first pair, where
    neither sigma nor tau is the identity (the last label is), and raises
    when the a values or the hit sets are corrupted.  The plan is the
    half-group plan."""
    import spolab.lemmas as lemmas_mod

    n = 4
    final = final_state(random_circuit(43, 2, 2, n))
    plan = half_group_plan(n)
    guarded = count_calls(monkeypatch, lemmas_mod, "_p_ii_projector")
    experiment_probabilities(final, full_relation(n), plan)
    assert [[row.tolist() for row in args[2:4]] for args in guarded] == [
        [plan.sigmas[0].tolist(), plan.taus[0].tolist()]]
    ident = list(identity(n).images)
    assert plan.taus[-1].tolist() == ident
    assert ident not in (plan.sigmas[0].tolist(), plan.taus[0].tolist())
    hits, fiber_a, swaps = lemmas_mod._hit_fibers(n)
    # Each hit read with the a of another label, or each slice against the
    # hits of another y.
    for tables in ((hits, np.roll(fiber_a, 1, axis=1), swaps),
                   (np.roll(hits, 1, axis=1), fiber_a, swaps)):
        monkeypatch.setattr(lemmas_mod, "_hit_fibers", lambda _n, t=tables: t)
        with pytest.raises(RuntimeError, match="projector form"):
            experiment_probabilities(final, full_relation(n), plan)


class _LeftOutOfTheSum(np.ndarray):
    """A table that an in-place np.add into another array leaves out; every
    other ufunc reads its values as they are."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.add and method == "__call__" and out is not None:
            return out[0]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


def test_experiment_guard_raises_when_row_and_column_sums_disagree(monkeypatch):
    """The row sums (count dots) and the column sums (group lookups) of the
    p_ii term total the same for any a-table.  Dropping one member from its
    group's sum, while its row sum still counts it, trips the guard; the
    projector guard, which reads pair (0, 0) on its own, still passes."""
    import spolab.lemmas as lemmas_mod

    n = 4
    final = final_state(random_circuit(43, 2, 2, n))
    plan = half_group_plan(n)
    experiment_probabilities(final, full_relation(n), plan)
    original = lemmas_mod._fiber_sq
    calls = []

    def dropped_once(*args):
        sq = original(*args)
        calls.append(float(sq.sum()))
        return sq.view(_LeftOutOfTheSum) if len(calls) == 1 else sq

    monkeypatch.setattr(lemmas_mod, "_fiber_sq", dropped_once)
    with pytest.raises(RuntimeError, match="p_ii row sums total .* column sums"):
        experiment_probabilities(final, full_relation(n), plan)
    assert calls[0] > 1e-3


def test_sampled_n8_p_ii_peaks_below_the_query():
    """Traced (tracemalloc) from the plan's draw onward, as in the sampled
    fundamental suite, the p_ii of the N = 8 rand-q1-s2 circuit against the
    diagonal relation peaks below the circuit's run, whose query sets the
    peak, so p_ii never sets the suite's peak memory.  The perm and hit
    tables the suite has built by then are built first."""
    import tracemalloc

    from spolab.lemmas import _hit_fibers

    n = 8
    perm_tables(n)
    _hit_fibers(n)
    circ = random_circuit(2, 1, 1, n)
    assert circ.name == "rand-q1-s2"
    tracemalloc.start()
    try:
        plan = make_twirl_plan(n, seed=1, min_pairs=2000)
        final = run(circ, spo_backend(n))
        _, query_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        experiment_probabilities(final, diagonal_relation(n), plan)
        _, p_ii_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p_ii_peak < query_peak, (p_ii_peak / 2 ** 20, query_peak / 2 ** 20)


def test_p_i_equals_the_success_of_every_direct_twirled_run():
    """p_i, read once from the untwirled state, is the success of experiment
    (i') run directly against the oracle twirled by each of the 576 pairs at
    N = 4, scored on spo_recover's relabelled one-line images
    tau^{-1} pi sigma: (x, image[x]) in R."""
    from spolab.oracles import spo_recover
    from spolab.permutations import all_permutations
    from spolab.suites import DEFAULT_SEED, suite_circuits, suite_relations

    n = 4
    circ = suite_circuits(n, DEFAULT_SEED, max_q=2)[-1]
    assert circ.query_count == 2
    rels = [rel for _name, rel in suite_relations(n) if rel.size]
    untwirled = final_state(circ)
    want = np.array([experiment_probabilities(untwirled, rel).p_i for rel in rels])
    members = np.stack([rel.members for rel in rels])  # (relation, x, y)
    xs = np.arange(n)
    perms = list(all_permutations(n))
    for sigma in perms:
        for tau in perms:
            final = run(circ, spo_backend(n, sigma=sigma, tau=tau))
            ens = spo_recover(final, sigma, tau)
            xy = (np.abs(ens.amps.reshape(len(ens.labels), -1, n, n)) ** 2
                  ).sum(axis=1)  # (label, x, y) after summing A and Z
            rows = np.arange(len(ens.labels))[:, None]
            won = members[:, xs, ens.labels] * xy[rows, xs, ens.labels]
            got = won.sum(axis=(1, 2))
            assert np.abs(got - want).max() <= 1e-12, (sigma, tau)


def test_fundamental_check_suite_cases():
    n = 4
    for circ in (empty_circuit(n), classical_probe(n, 0, "forward"),
                 random_circuit(43, 2, 2, n)):
        for rel in (empty_relation(n), full_relation(n), diagonal_relation(n)):
            rep = fundamental_check(final_state(circ), rel)
            assert rep.passed, rep
            assert rep.slack >= -1e-9


def test_p2_fresh_database_is_zero():
    n = 4
    val, = p2_upper_bound(final_state(empty_circuit(n)), [full_relation(n)])
    assert type(val) is float
    assert val == pytest.approx(0.0, abs=1e-12)


def test_p2_dominates_and_identity():
    n = 4
    for seed in (3, 4):
        circ = random_circuit(seed, 2, 2, n)
        final = final_state(circ)
        for rel in (diagonal_relation(n), sponge_preimage_relation(2, 1, 1)):
            p2, = p2_upper_bound(final, [rel])
            res = experiment_probabilities(final, rel)
            assert res.p_ii <= p2 + 1e-10
            rows = {r.name: r for r in progress_checks(circ, [("r", rel)])}
            rep = rows[f"progress-identity[{circ.name},r]"]
            assert rep.passed, rep
            assert rep.rhs == p2
            assert rep.extra["subsets"] == 7 and rep.extra["pairs"] == 576
            assert abs(n * progress_measure(final, rel) - p2) < 1e-10


def test_twirl_averages_on_non_square_sampled_grid():
    """2 sigmas x 3 taus: the sampled p_ii is the mean of its six
    single-pair plans, with the crossed-grid stderr of that 2 x 3 grid;
    p_i is exact and the same for every plan.  A single-pair plan has one
    row, so its stderr is 0."""
    from spolab.lemmas import TwirlPlan

    n = 4

    def plan_of(sigmas, taus):
        return TwirlPlan(n, [s.images for s in sigmas], [t.images for t in taus])

    rng = np.random.default_rng(5)
    sigmas = [sample_uniform(n, rng) for _ in range(2)]
    taus = [sample_uniform(n, rng) for _ in range(3)]
    plan = plan_of(sigmas, taus)
    assert plan.grid_shape == (2, 3)
    final = final_state(random_circuit(71, 1, 2, n))
    rel = sponge_preimage_relation(2, 1, 1)
    got = experiment_probabilities(final, rel, plan)
    per_pair = [[experiment_probabilities(final, rel, plan_of([s], [t])) for t in taus]
                for s in sigmas]
    # p_i is exact: read once from the untwirled state, with no stderr, and
    # the same whichever pairs the plan holds.
    assert not hasattr(got, "stderr_i")
    assert got.p_i > 0.0
    assert all(cell.p_i == got.p_i for row in per_pair for cell in row)
    assert all(cell.stderr_ii == 0.0 for row in per_pair for cell in row)
    grid = np.array([[cell.p_ii for cell in row] for row in per_pair])
    assert got.p_ii == pytest.approx(grid.mean(), abs=1e-14)
    assert got.stderr_ii == pytest.approx(crossed_grid_stderr(grid), abs=1e-14)
    assert got.stderr_ii > 0.0


@pytest.mark.parametrize("n", [2, 4], ids=lambda n: f"full N = {n}")
def test_relation_batched_averages_match_one_relation_calls(n):
    """p2_upper_bound and crucial_term_values over every suite relation in
    one pass: the value of each relation equals a call with that relation
    alone, to 1e-12 relative."""
    from spolab.lemmas import crucial_term_values, standard_form_prequery_states
    from spolab.suites import suite_relations

    rels = [rel for _name, rel in suite_relations(n)]
    circ = random_circuit(71, 1, 2, n)
    final = final_state(circ)
    pre = standard_form_prequery_states(circ)

    p2 = p2_upper_bound(final, rels)
    crucial = crucial_term_values(pre, rels)
    assert len(p2) == len(crucial) == len(rels)
    for k, rel in enumerate(rels):
        alone, = p2_upper_bound(final, [rel])
        assert p2[k] == pytest.approx(alone, rel=1e-12, abs=1e-15)
        alone, = crucial_term_values(pre, [rel])
        assert np.allclose(crucial[k], alone, rtol=1e-12, atol=1e-15)
    assert max(p2) > 0.0 and np.max(crucial) > 0.0


def test_twirl_average_of_an_array_valued_term_is_elementwise():
    """A term whose columns are (J, 3) arrays, read one sigma-row at a time
    on a 2 x 3 grid, averages to the mean of each component's own grid."""
    import spolab.lemmas as lemmas_mod
    from spolab.lemmas import TwirlPlan

    n = 4
    rng = np.random.default_rng(23)
    draws = [sample_uniform(n, rng).images for _ in range(5)]
    plan = TwirlPlan(n, draws[:2], draws[2:])
    values = rng.normal(size=(2, 3, 4, 3))
    calls = []

    def row(i):
        calls.append(i)
        return values[i]

    mean = lemmas_mod._twirl_average(plan, row)
    assert calls == [0, 1]
    assert mean.shape == (4, 3)
    for j, k in itertools.product(range(4), range(3)):
        assert mean[j, k] == pytest.approx(values[:, :, j, k].mean(), rel=1e-14, abs=1e-15)


# --------------------------------------------------------------------------
# per-query growth and accumulation


def test_easy_norm_matches_full_space_dense():
    """First-principles oracle: build E^{R,x}, Pi^{R,x} and O^{SPO} dense on
    the whole X (x) Y (x) D space from basis-state definitions, and compare
    the easy-lemma norm with the slice-wise computation."""
    from spolab.permutations import Permutation

    n = 2
    nf = database_dim(n)
    dim = n * n * nf
    perms = [perm_of_index(n, d).images for d in range(nf)]
    factor_tuples = [monotone_factorize(Permutation(im)).t for im in perms]
    for rel in (diagonal_relation(n), from_pairs(n, [(0, 1)])):
        for direction in ("forward", "inverse"):
            dense_q = np.zeros((dim, dim))
            for x in range(n):
                for y in range(n):
                    for d, images in enumerate(perms):
                        if direction == "forward":
                            out_y = y ^ images[x]
                        else:
                            inv = [0] * n
                            for a, b in enumerate(images):
                                inv[b] = a
                            out_y = y ^ inv[x]
                        src = (x * n + y) * nf + d
                        dst = (x * n + out_y) * nf + d
                        dense_q[dst, src] = 1.0
            for x in range(n):
                # P_+ on D_x: |pi><pi'| weight 1/(x+1) when the factor tuples
                # agree away from register x
                plus = np.zeros((nf, nf))
                for d1, f1 in enumerate(factor_tuples):
                    for d2, f2 in enumerate(factor_tuples):
                        if all(a == b for k, (a, b) in enumerate(zip(f1, f2))
                               if k != x):
                            plus[d1, d2] = 1.0 / (x + 1)
                mask = np.array([1.0 if rel.members[x, im[x]] else 0.0
                                 for im in perms])
                e_d = np.diag(mask) @ (np.eye(nf) - plus)
                big_e = np.kron(np.eye(n * n), e_d)
                big_pi = np.kron(np.eye(n * n), np.diag(mask))
                target = big_e @ dense_q @ (np.eye(dim) - big_pi)
                want = float(np.linalg.norm(target, 2))
                rep = easy_norm_check(n, x, rel, direction)
                assert rep.lhs == pytest.approx(want, abs=1e-10)


def test_crucial_terms_match_direct_tspo_runs():
    """Independent oracle for the crucial-lemma expectations over all 576
    (sigma, tau) pairs at N = 4: run the standard-form circuit directly
    against the twirled oracle (no relabeling shortcut), one run per sigma
    with the 24 taus as rows of P, enumerate the pi_{x^c} classes once by
    explicit factor surgery, evaluate the three displayed sums of every pair
    and state, and set their mean against the engine's values."""
    from spolab.circuits import standard_form
    from spolab.lemmas import crucial_term_values, standard_form_prequery_states
    from spolab.permutations import Permutation, all_images
    from spolab.permutations import invert as perm_invert
    from spolab.relations import twirl_relation
    from spolab.states import database_names

    n = 4
    nf = database_dim(n)
    circ = random_circuit(71, 1, 2, n)
    rel = sponge_preimage_relation(2, 1, 1)
    got = crucial_term_values(standard_form_prequery_states(circ), [rel])[0]

    # Per register x, the classes of labels that agree on every t_k, k != x,
    # as a 0/1 (class, label) table, and per class the images of pi_{x^c}
    # and of pi_{>x}, and the inverse images of pi_{>x}.
    surgery = []
    for x in range(n):
        fibers = {}
        for d in range(nf):
            f = monotone_factorize(perm_of_index(n, d))
            key = tuple(tk for k, tk in enumerate(f.t) if k != x)
            fibers.setdefault(key, (f, []))[1].append(d)
        member = np.zeros((len(fibers), nf))
        pxc, above, above_inv = [], [], []
        for c, (f0, labels) in enumerate(fibers.values()):
            member[c, labels] = 1.0
            hi = partial_product(f0, x, "above")
            lo = partial_product(f0, x, "below")
            pxc.append([hi.images[lo.images[v]] for v in range(n)])
            above.append(hi.images)
            above_inv.append(perm_invert(hi).images)
        surgery.append((member, np.array(pxc), np.array(above), np.array(above_inv)))

    b = standard_form(circ)
    taus = all_images(n)
    want = np.zeros((len(got), 3))
    for sigma in all_images(n):
        # One run per sigma, row k of P twirled by (sigma, taus[k]).
        sigmas = np.broadcast_to(sigma, taus.shape)
        _, pre = run_with_intermediates(b, spo_backend(n, sigma=sigmas, tau=taus))
        assert len(pre) == len(got)
        si = np.argsort(sigma)
        for j, (_direction, state) in enumerate(pre):
            lay = state.layout
            keep = {"P", "X"} | set(database_names(n))
            axes = tuple(i for i, nm in enumerate(lay.names) if nm not in keep)
            g = (np.abs(state.reshaped()) ** 2).sum(axis=axes).reshape(len(taus), n, nf)
            for k, tau in enumerate(taus):
                ti = np.argsort(tau)
                twisted = twirl_relation(rel, Permutation(tuple(sigma.tolist())),
                                         Permutation(tuple(tau.tolist())))
                for x, (member, pxc, above, above_inv) in enumerate(surgery):
                    fiber_g = g[k] @ member.T  # (z, class)
                    rx = twisted.section(x)
                    first = np.isin(pxc[:, :x], rx).T * fiber_g[si[:x]]
                    second = (above_inv[:, rx] < x).T * fiber_g[ti[rx]]
                    count = np.isin(above[:, :x + 1], rx).sum(axis=1)
                    third = (above_inv[:, x + 1:] == x).T * fiber_g[ti[x + 1:]] * count
                    want[j] += np.array([first.sum(), second.sum(), third.sum()]) / (x + 1)
    want /= n * nf * nf
    assert np.max(want) > 0.0
    for vals, w in zip(got, want):
        for k in range(3):
            assert vals[k] == pytest.approx(w[k], abs=1e-12)


def test_query_step_checks():
    n = 4
    circ = random_circuit(51, 2, 2, n)
    _, pre = run_with_intermediates(circ, spo_backend(n))
    rel = sponge_preimage_relation(2, 1, 1)
    for direction, state in pre:
        for x in range(n):
            rep = query_step_check(state, x, rel, direction)
            assert rep.passed, rep


def test_query_step_fresh_empty():
    n = 4
    state = run(empty_circuit(n), spo_backend(n))
    rep = query_step_check(state, 1, empty_relation(n), "forward")
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_easy_norm_bound():
    n = 4
    for rel in (diagonal_relation(n), full_relation(n),
                sponge_preimage_relation(2, 1, 1)):
        for x in range(n):
            for direction in ("forward", "inverse"):
                rep = easy_norm_check(n, x, rel, direction)
                assert rep.passed, rep


def test_accumulation_checks():
    n = 4
    circ = random_circuit(53, 3, 2, n)
    rel = diagonal_relation(n)
    final, pre = run_with_intermediates(circ, spo_backend(n))
    for x in range(n):
        reps = progress_accumulation_check(final, pre, rel, x)
        assert all(r.passed for r in reps), reps
    # zero queries: 0 <= 0
    reps0 = progress_accumulation_check(
        *run_with_intermediates(empty_circuit(n), spo_backend(n)), rel, 0)
    assert reps0[0].lhs == pytest.approx(0.0, abs=1e-12)
    assert all(r.passed for r in reps0)


def test_progress_expectation_and_crucial():
    n = 4
    circ = random_circuit(55, 1, 2, n)
    rels = [("diag", diagonal_relation(n)),
            ("sponge", sponge_preimage_relation(2, 1, 1))]
    rows = {r.name: r for r in progress_checks(circ, rels)}
    for rname, _rel in rels:
        tag = f"{circ.name},{rname}"
        names = [f"hard-database[{tag}]"] + [f"crucial[{tag}]:{k}" for k in (1, 2, 3)]
        for name in names:
            assert rows[name].passed, rows[name]
    assert progress_measure(final_state(empty_circuit(n)), diagonal_relation(n)) \
        == pytest.approx(0.0, abs=1e-12)


def test_hard_database_rhs_is_the_direct_sparsity_tail():
    """The hard-database rhs reads the tail through Gamma; it equals the
    bound written with the direct twirl average of each pre-query state."""
    from spolab.lemmas import sparsity_expectation, standard_form_prequery_states

    n = 4
    circ = random_circuit(55, 2, 2, n)
    rel = sponge_preimage_relation(2, 1, 1)
    rows = {r.name: r for r in progress_checks(circ, [("sponge", rel)])}
    q, r = circ.query_count, rel.r_max
    tail = sum(sparsity_expectation(state)
               for _d, state in standard_form_prequery_states(circ))
    want = 384.0 * q * q * r * (math.log(n) + 2.0) / n ** 2 + 4.0 * q * r * tail
    assert tail > 0.0
    assert abs(rows[f"hard-database[{circ.name},sponge]"].rhs - want) <= 1e-12


def test_crucial_terms_fit_a_budget_below_the_whole_grid(monkeypatch):
    """The crucial terms gather one sigma-row at a time, so a
    budget one entry short of a (576 pairs, 4, 24) gather of the whole
    N = 4 grid gives the values of the default budget."""
    import spolab.oracles as oracles_mod
    from spolab.lemmas import crucial_term_values, standard_form_prequery_states

    rel = diagonal_relation(4)
    pre = standard_form_prequery_states(random_circuit(71, 1, 2, 4))
    want = crucial_term_values(pre, [rel])[0]
    assert len(want) == len(pre) and max(max(v) for v in want) > 0.0
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", 576 * 4 * 24 - 1)
    assert crucial_term_values(pre, [rel])[0] == want


def test_crucial_terms_charge_their_gather_before_any_marginal(monkeypatch):
    """One pass of the crucial terms gathers, per sigma-row, the (J, N, N!)
    marginals of each of its T pairs that every relation reads.  A budget
    one entry short of that T x J x N x N! gather is refused before any
    marginal is taken; at the budget the values are those of the default
    budget."""
    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod
    from spolab.lemmas import crucial_term_values, standard_form_prequery_states

    n = 4
    rels = [diagonal_relation(n), full_relation(n)]
    pre = standard_form_prequery_states(random_circuit(71, 1, 2, n))
    want = crucial_term_values(pre, rels)
    gather = database_dim(n) * len(pre) * n * database_dim(n)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", gather)
    assert crucial_term_values(pre, rels) == want
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", gather - 1)

    def no_marginal(*args, **kwargs):
        raise AssertionError("a marginal was taken before the budget check")

    monkeypatch.setattr(lemmas_mod, "marginal", no_marginal)
    with pytest.raises(BudgetError, match=f"gathers 24 x {len(pre)} x {n} x 24 entries"):
        crucial_term_values(pre, rels)


@pytest.mark.parametrize("average", ["p2", "sparsity"])
def test_block_averages_charge_their_row_gather_before_any_row(monkeypatch, average):
    """p2_upper_bound and sparsity_expectation gather, per sigma-row, the
    (rest, N!) twirled block of each of its T pairs.  A budget one entry
    short of that T x rest x N! gather is refused before any row is
    computed; at the budget the values are those of the default budget."""
    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod
    from spolab.lemmas import sparsity_expectation

    n = 4
    final = final_state(random_circuit(71, 1, 2, n))
    if average == "p2":
        call = lambda: p2_upper_bound(final, [diagonal_relation(n)])
    else:
        call = lambda: sparsity_expectation(final)
    want = call()
    rest = final.amps.size // database_dim(n)
    gather = database_dim(n) * rest * database_dim(n)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", gather)
    assert call() == want
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", gather - 1)
    rows = count_twirl_rows(monkeypatch)

    def no_row(*args, **kwargs):
        raise AssertionError("a row was computed before the budget check")

    # What a row reads first: the projector for p2, the Helmert contrasts
    # for the sparsity rows.
    row_kernel = "project_plus_db" if average == "p2" else "_complement_norm2"
    monkeypatch.setattr(lemmas_mod, row_kernel, no_row)
    with pytest.raises(BudgetError, match=f"gathers 24 x {rest} x 24 entries"):
        call()
    assert rows == []


@pytest.mark.parametrize("n, seed", [(2, None), (4, None), (5, 3)])
def test_helmert_sparsity_rows_match_the_projector_form(monkeypatch, n, seed):
    """sparsity_expectation reads each row's complement norms from Helmert
    contrasts of the D_{x+1} slices.  At N = 2 and 4 its exact average over
    the full group, for random states on X, Y, D, equals the projector form
    of per_pair_twirl_averages to 1e-12, and no row calls project_plus_db;
    the uniform state reads exactly 0.0.  N = 5 has no exact average, so
    there the kernel, _complement_norm2, is set directly against the
    squared norms of project_plus_db(..., complement=True) on random
    (rest, C, 120) blocks drawn with ``seed``, at every x."""
    import spolab.oracles as oracles_mod
    from spolab.lemmas import _complement_norm2, sparsity_expectation
    from spolab.states import RegisterLayout, database_layout, product_uniform

    if seed is not None:
        rng = np.random.default_rng(seed)
        shape = (3, 4, math.factorial(n))
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for x in range(n):
            want = [np.linalg.norm(project_plus_db(block[:, c], n, x, complement=True)) ** 2
                    for c in range(shape[1])]
            got = _complement_norm2(block, n, x)
            assert got.shape == (shape[1],)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15), x
            assert x == 0 or min(want) > 0.1
        return
    plan = make_twirl_plan(n)
    layout = RegisterLayout((("X", n), ("Y", n)) + database_layout(n).registers)
    rng = np.random.default_rng(n)
    states = []
    for _ in range(2):
        amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
        states.append(StateVector(layout, amps / np.linalg.norm(amps)))
    want = [per_pair_twirl_averages(state, empty_relation(n), plan, ("sparsity",))
            ["sparsity"][0] for state in states]
    calls = count_calls(monkeypatch, oracles_mod, "project_plus_db")
    got = [sparsity_expectation(state) for state in states]
    assert calls == []
    for g, w in zip(got, want):
        assert type(g) is float
        assert abs(g - w) <= 1e-12 and w > 0.01
    assert sparsity_expectation(product_uniform(layout)) == 0.0


# --------------------------------------------------------------------------
# Gamma operator and sparsity


def test_gamma_closed_equals_brute():
    for n in (2, 3, 4):
        closed = gamma_operator(n)
        brute = gamma_brute_force(n)
        assert np.abs(closed - brute).max() < 1e-10


def test_gamma_spectrum_n2():
    eigs = np.sort(np.linalg.eigvalsh(gamma_operator(2)))
    assert np.allclose(eigs, [0.0, 0.25], atol=1e-12)
    assert gamma_operator(1).tolist() == [[0.0]]


def test_gamma_psd_and_norm():
    for n in (2, 3, 4, 5):
        eigs = np.linalg.eigvalsh(gamma_operator(n))
        assert eigs.min() > -1e-10
        assert eigs.max() <= (math.log(n) + 1) / n + 1e-10


def test_cycle_average_rejects_short_n():
    with pytest.raises(ValueError):
        cycle_average(2, 3)


def test_cycle_average_properties():
    for n in (2, 3, 4):
        for ell in (2, 3):
            if n < ell:
                continue
            w = cycle_average(n, ell)
            assert np.abs(w - w.T).max() < 1e-12
            assert np.linalg.norm(w, 2) <= 1 + 1e-12
            w_left = cycle_average(n, ell, "left")
            assert np.abs(w - w_left).max() < 1e-12
    # n=2: the unique 2-cycle is the swap; W = R^{swap}
    w2 = cycle_average(2, 2)
    assert np.allclose(w2, [[0, 1], [1, 0]])


def test_gamma_and_cycle_averages_are_charged_before_any_build(monkeypatch):
    """Gamma holds three N! x N! matrices at once and W one; a size over
    the amplitude budget is refused before a label map is read.  Gamma is
    built through the uncached function, so a cached Gamma(4) cannot
    answer in place of the build."""
    import spolab.lemmas as lemmas_mod
    import spolab.oracles as oracles_mod

    def no_build(*args, **kwargs):
        raise AssertionError("a cycle label map was read before the budget check")

    monkeypatch.setattr(lemmas_mod, "_cycle_maps", no_build)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", 3 * 24 * 24 - 1)
    with pytest.raises(BudgetError, match="Gamma at n=4 needs 3 dense 24 x 24"):
        gamma_operator.__wrapped__(4)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", 24 * 24 - 1)
    with pytest.raises(BudgetError, match="W\\^2 at n=4 needs 1 dense 24 x 24"):
        cycle_average(4, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_commutator_operator_matches_a_dense_reference(n):
    """[Gamma, O^{SPO,z}] = (I_N (x) G) Q - Q (I_N (x) G), with G the
    brute-force twirl average and Q the query's permutation matrix set entry
    by entry; the adjoint action is the conjugate transpose."""
    nf = math.factorial(n)
    big_g = np.kron(np.eye(n), gamma_brute_force(n))
    for direction in ("forward", "inverse"):
        for z in range(n):
            q = np.zeros((n * nf, n * nf))
            for basis, image in enumerate(query_slice_map(n, z, direction)):
                q[image, basis] = 1.0
            want = big_g @ q - q @ big_g
            op = commutator_operator(n, z, direction)
            assert np.abs(op.dense() - want).max() < 1e-12
            adjoint = op.adjoint_block(np.eye(n * nf, dtype=np.complex128))
            assert np.abs(adjoint - want.conj().T).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_commutator_norm_equals_the_dense_norm_of_every_query(n):
    """The referee of the one certified norm: the dense spectral norm of
    [Gamma, O^{SPO,z}] for every z and both directions, which never uses
    the symmetries, equals commutator_norm to 1e-12."""
    for direction in ("forward", "inverse"):
        want = commutator_norm(n, direction)
        for z in range(n):
            dense = np.linalg.norm(commutator_operator(n, z, direction).dense(), 2)
            assert abs(dense - want) <= 1e-12, (direction, z)


def test_commutator_norm_refuses_a_broken_symmetry(monkeypatch):
    """A Gamma that is not central, or a query map that the inversion does
    not carry to its partner, makes the uncached commutator_norm raise
    before any norm is taken."""
    import spolab.lemmas as lemmas_mod

    def no_norm(*args, **kwargs):
        raise AssertionError("a norm was taken before the symmetries held")

    monkeypatch.setattr(lemmas_mod, "operator_norm", no_norm)
    n = 4
    bent = gamma_operator(n).copy()
    bent[0, 1] = bent[1, 0] = bent[0, 1] + 1e-3
    with monkeypatch.context() as patched:
        patched.setattr(lemmas_mod, "gamma_operator", lambda _n: bent)
        for direction in ("forward", "inverse"):
            with pytest.raises(RuntimeError, match="fixes Gamma"):
                commutator_norm.__wrapped__(n, direction)
    forward_only = lemmas_mod.query_slice_map
    monkeypatch.setattr(lemmas_mod, "query_slice_map",
                        lambda n, z, _direction: forward_only(n, z, "forward"))
    with pytest.raises(RuntimeError, match="does not carry the query map onto that of z=0"):
        commutator_norm.__wrapped__(n, "forward")


def test_commutator_rows_take_one_norm_per_n(monkeypatch):
    """Both directions of every N read one cached norm, of (z = 0,
    forward), and the commutator and sparsity step rows say so."""
    import spolab.lemmas as lemmas_mod

    commutator_norm.cache_clear()
    norms = count_calls(monkeypatch, lemmas_mod, "operator_norm")
    rows = commutator_growth_check(3) + commutator_growth_check(4)
    rows += sparsity_trajectory_check(random_circuit(61, 2, 2, 4))
    assert len(norms) == 2
    steps = [r for r in rows if ":step" in r.name]
    assert len(steps) == 2 and len(rows) == 4 + 8
    assert all(r.extra["normed"] == "z=0,forward" for r in rows
               if r.name.startswith("commutator") or ":step" in r.name)


def test_commutator_n6_rows_keep_the_recorded_norm():
    """Both N = 6 rows (the Lanczos path) keep the value the benchmark's
    verify-all reference records."""
    reps = commutator_growth_check(6)
    assert [r.name for r in reps] == ["commutator[n=6,forward]",
                                      "commutator[n=6,inverse]"]
    for rep in reps:
        assert rep.lhs == pytest.approx(0.07578796296296296, rel=1e-9)


def test_gamma_annihilates_fresh_database():
    for n in (2, 3, 4):
        init = spo_init(n)
        assert gamma_expectation(init) == pytest.approx(
            0.0, abs=1e-12)


def test_gamma_is_one_cached_real_matrix():
    """Gamma(N) is a read-only, symmetric float64 array built once, and
    gamma_expectation is <phi|Gamma|phi> on every suite circuit's final
    state."""
    from spolab.suites import DEFAULT_SEED, suite_circuits

    for n in (2, 4):
        gamma = gamma_operator(n)
        assert gamma.dtype == np.float64 and not gamma.flags.writeable
        assert np.array_equal(gamma, gamma.T)
        assert gamma_operator(n) is gamma
        for circ in suite_circuits(n, DEFAULT_SEED):
            state = final_state(circ)
            block = state.amps.reshape(-1, database_dim(n))
            want = np.vdot(block, block @ gamma.T).real
            assert gamma_expectation(state) == pytest.approx(want, abs=1e-12)


def test_commutator_growth():
    for n in (2, 3, 4):
        for rep in commutator_growth_check(n):
            assert rep.passed, rep


def test_sparsity_trajectory():
    n = 4
    for seed in (61, 62):
        circ = random_circuit(seed, 2, 2, n)
        reps = sparsity_trajectory_check(circ)
        assert all(r.passed for r in reps), [r for r in reps if not r.passed]
    # 0 queries: expectation exactly 0
    reps0 = sparsity_trajectory_check(empty_circuit(n))
    assert reps0[0].lhs == pytest.approx(0.0, abs=1e-15)


# --------------------------------------------------------------------------
# theorem checker


def test_theorem_empty_relation():
    rep = theorem_check(empty_circuit(4), empty_relation(4))
    assert rep.lhs == 0.0 and rep.passed
    assert not rep.extra["vacuous"]


def test_theorem_zero_query_guess():
    n = 4
    rel = diagonal_relation(n)
    rep = theorem_check(empty_circuit(n), rel)
    assert rep.lhs == pytest.approx(1 / n, abs=1e-12)
    assert rep.extra["q"] == 1
    # two pairs per row -> lhs = 2/N
    rel2 = from_pairs(n, [(x, y) for x in range(n) for y in (0, 1)])
    rep2 = theorem_check(empty_circuit(n), rel2)
    assert rep2.lhs == pytest.approx(2 / n, abs=1e-12)


def test_theorem_vacuity_flag():
    n = 4
    rep = theorem_check(classical_probe(n, 0, "forward"), diagonal_relation(n))
    assert rep.extra["vacuous"] == (rep.rhs >= 1.0)
    assert rep.rhs == 1.0  # 914 makes every desk-scale bound vacuous
    assert rep.passed


def test_theorem_spo_cross_check():
    # the concrete lhs equals p_i of the loading-query circuit under the SPO
    n = 4
    circ = random_circuit(67, 1, 2, n)
    rel = diagonal_relation(n)
    rep = theorem_check(circ, rel)
    res = experiment_probabilities(final_state(with_loading_query(circ)), rel)
    assert rep.lhs == pytest.approx(res.p_i, abs=1e-9)


def test_theorem_check_runs_its_circuit_once(monkeypatch):
    calls = count_runs(monkeypatch)
    rep = theorem_check(random_circuit(67, 1, 2, 4), diagonal_relation(4))
    assert len(calls) == 1 and calls[0].images.shape == (24, 4)
    assert 0.0 < rep.lhs < 1.0
