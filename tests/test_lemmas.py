"""Lemma checkers: help norm, experiments, zeta terms, Gamma, trajectories."""
import itertools
import math

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
    check_uniform_weights,
    commutator_growth_check,
    crucial_term_checks,
    cycle_average,
    easy_norm_check,
    experiment_probabilities,
    fundamental_check,
    gamma_expectation,
    gamma_operator,
    help_norm,
    make_twirl_plan,
    p2_upper_bound,
    plus_projector,
    progress_accumulation_check,
    progress_expectation_check,
    progress_identity_check,
    progress_measure,
    progress_operator,
    query_step_check,
    relation_projector,
    sparsity_trajectory_check,
    theorem_check,
    zeta_parts,
    zeta_terms,
)
from spolab.oracles import (
    database_dim,
    perm_of_index,
    perm_tables,
    spo_backend,
    spo_init,
    tspo_backend,
)
from spolab.permutations import (
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
from spolab.states import StateVector, operator_norm

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
    n = 4
    nf = database_dim(n)
    rel = sponge_preimage_relation(2, 1, 1)
    init = spo_init(n)
    for x in range(n):
        pi_op = relation_projector(rel, x)
        e_op = progress_operator(rel, x)
        # E annihilates the fresh database
        out = e_op.apply_block(init.amps[:, None])
        assert np.abs(out).max() < 1e-12
        # empty and full relations degenerate as expected
        assert np.abs(relation_projector(empty_relation(n), x)
                      .apply_block(np.eye(nf, dtype=complex))).max() == 0.0
        full_e = progress_operator(full_relation(n), x)
        plus = plus_projector(n, x).dense()
        want = np.eye(nf) - plus
        assert np.abs(full_e.apply_block(np.eye(nf, dtype=complex)) - want).max() \
            < 1e-12
        # Pi is diagonal; E = Pi (I - P+)
        got = e_op.apply_block(np.eye(nf, dtype=complex))
        mask = pi_op.apply_block(np.ones((nf, 1), dtype=complex))[:, 0].real
        assert np.abs(got - mask[:, None] * (np.eye(nf) - plus)).max() < 1e-12


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


def test_experiment_probe_full_relation():
    n = 4
    plan = make_twirl_plan(n)
    res = experiment_probabilities(classical_probe(n, 0, "forward"),
                                   full_relation(n), plan)
    assert res.p_i == pytest.approx(1.0, abs=1e-10)
    assert res.p_ii == pytest.approx(181 / 576, abs=1e-10)
    assert res.method == "exact"


def test_experiment_empty_circuit():
    n = 4
    plan = make_twirl_plan(n)
    res = experiment_probabilities(empty_circuit(n), from_pairs(n, [(0, 0)]), plan)
    assert res.p_i == pytest.approx(1 / n, abs=1e-12)
    assert res.p_ii == pytest.approx(0.0, abs=1e-12)
    res_empty = experiment_probabilities(empty_circuit(n), empty_relation(n), plan)
    assert res_empty.p_i == 0.0 and res_empty.p_ii == 0.0


def test_experiment_matches_direct_simulation():
    """Independent oracle: simulate experiment (ii') literally for one fixed
    (sigma, tau): run with the TSPO backend, project D_{sigma(x)} off |+>,
    then measure D and check pi(sigma x) = tau y."""
    n = 4
    circ = random_circuit(41, 1, 2, n)
    rel = diagonal_relation(n)
    sigma, tau = sample_uniform(n, RNG), sample_uniform(n, RNG)
    final = run(circ, tspo_backend(sigma, tau))
    lay = final.layout
    arr = final.reshaped()
    pi_table, _ = perm_tables(n)
    nf = database_dim(n)
    p_ii_direct = 0.0
    p_i_direct = 0.0
    from spolab.oracles import project_plus_db

    for x, y in rel.pairs():
        sl = arr[:, x, y, :, :, :, :].reshape(-1, nf)
        sx, ty = sigma.images[x], tau.images[y]
        mask = pi_table[:, sx] == ty
        p_i_direct += float((np.abs(sl[:, mask]) ** 2).sum())
        proj = project_plus_db(sl, n, sx, complement=True)
        p_ii_direct += float((np.abs(proj[:, mask]) ** 2).sum())
    plan_single = make_twirl_plan(n, exhaustive=True)
    # restrict the plan to exactly this pair for a like-for-like comparison
    from spolab.lemmas import TwirlPlan
    from spolab.oracles import left_right_map

    plan_one = TwirlPlan(n, (sigma,), (tau,), True, None,
                         left_right_map(n, sigma=sigma)[None, :],
                         left_right_map(n, tau=tau)[None, :])
    res = experiment_probabilities(circ, rel, plan_one)
    assert res.p_i == pytest.approx(p_i_direct, abs=1e-12)
    assert res.p_ii == pytest.approx(p_ii_direct, abs=1e-12)


def test_fundamental_check_suite_cases():
    n = 4
    plan = make_twirl_plan(n)
    for circ in (empty_circuit(n), classical_probe(n, 0, "forward"),
                 random_circuit(43, 2, 2, n)):
        for rel in (empty_relation(n), full_relation(n), diagonal_relation(n)):
            rep = fundamental_check(circ, rel, plan)
            assert rep.passed, rep
            assert rep.slack >= -1e-9


def test_p2_fresh_database_is_zero():
    n = 4
    plan = make_twirl_plan(n)
    val, se = p2_upper_bound(empty_circuit(n), full_relation(n), plan)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert se == 0.0


def test_p2_dominates_and_identity():
    n = 4
    plan = make_twirl_plan(n)
    for seed in (3, 4):
        circ = random_circuit(seed, 2, 2, n)
        for rel in (diagonal_relation(n), sponge_preimage_relation(2, 1, 1)):
            p2, _ = p2_upper_bound(circ, rel, plan)
            res = experiment_probabilities(circ, rel, plan)
            assert res.p_ii <= p2 + 1e-10
            rep = progress_identity_check(circ, rel, plan)
            assert rep.passed, rep
            assert abs(n * progress_measure(circ, rel, plan)[0] - p2) < 1e-10


def test_twirl_averages_on_non_square_sampled_grid():
    """2 sigmas x 3 taus: every twirl average is the mean of its six
    single-pair plans, with the crossed-grid stderr of that 2 x 3 grid."""
    from spolab.lemmas import (
        TwirlPlan,
        crucial_term_values,
        grid_mean_stderr,
        sparsity_expectation,
        standard_form_prequery_states,
    )
    from spolab.oracles import left_right_map

    n = 4

    def plan_of(sigmas, taus, exhaustive):
        return TwirlPlan(n, tuple(sigmas), tuple(taus), exhaustive, None,
                         np.stack([left_right_map(n, sigma=s) for s in sigmas]),
                         np.stack([left_right_map(n, tau=t) for t in taus]))

    rng = np.random.default_rng(5)
    sigmas = [sample_uniform(n, rng) for _ in range(2)]
    taus = [sample_uniform(n, rng) for _ in range(3)]
    plan = plan_of(sigmas, taus, False)
    assert plan.grid_shape == (2, 3)
    singles = [[plan_of([s], [t], True) for t in taus] for s in sigmas]
    circ = random_circuit(71, 1, 2, n)
    rel = sponge_preimage_relation(2, 1, 1)
    state = standard_form_prequery_states(circ)[-1][1]

    def averages(p):
        res = experiment_probabilities(circ, rel, p)
        values = [(res.p_i, res.stderr_i), (res.p_ii, res.stderr_ii),
                  p2_upper_bound(circ, rel, p), progress_measure(circ, rel, p),
                  sparsity_expectation(state, p)]
        crucial = [v for per_state in crucial_term_values(circ, rel, p)
                   for v in per_state]
        return values, crucial

    got, got_crucial = averages(plan)
    per_pair = [[averages(p) for p in row] for row in singles]
    for k, (mean, se) in enumerate(got):
        grid = np.array([[cell[0][k][0] for cell in row] for row in per_pair])
        want_mean, want_se = grid_mean_stderr(grid)
        assert mean == pytest.approx(want_mean, abs=1e-14)
        assert se == pytest.approx(want_se, abs=1e-14)
        assert se > 0.0
    for k, mean in enumerate(got_crucial):
        grid = np.array([[cell[1][k] for cell in row] for row in per_pair])
        assert mean == pytest.approx(grid.mean(), abs=1e-14)


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
    """Independent oracle for the crucial-lemma expectations: run the
    standard-form circuit directly against the twirled oracle (no relabeling
    shortcut), enumerate pi_{x^c} classes via explicit factor surgery, and
    evaluate the three displayed sums for a handful of (sigma, tau) pairs."""
    from spolab.circuits import standard_form
    from spolab.lemmas import TwirlPlan
    from spolab.oracles import left_right_map
    from spolab.permutations import Permutation, invert as perm_invert
    from spolab.relations import twirl_relation

    n = 4
    circ = random_circuit(71, 1, 2, n)
    rel = sponge_preimage_relation(2, 1, 1)
    rng = np.random.default_rng(14)
    b = standard_form(circ)
    for _trial in range(3):
        sigma, tau = sample_uniform(n, rng), sample_uniform(n, rng)
        plan_one = TwirlPlan(n, (sigma,), (tau,), True, None,
                             left_right_map(n, sigma=sigma)[None, :],
                             left_right_map(n, tau=tau)[None, :])
        from spolab.lemmas import crucial_term_values

        got_vals = crucial_term_values(circ, rel, plan_one)
        # direct run of B against TSPO^{sigma,tau}
        _, pre = run_with_intermediates(b, tspo_backend(sigma, tau))
        twisted = twirl_relation(rel, sigma, tau)
        si = perm_invert(sigma).images
        ti = perm_invert(tau).images
        assert len(pre) == len(got_vals)
        for (direction, state), vals in zip(pre, got_vals):
            lay = state.layout
            arr = np.abs(state.reshaped()) ** 2
            keep = {"X"} | {nm for nm in lay.names if nm.startswith("D")}
            axes = tuple(i for i, nm in enumerate(lay.names) if nm not in keep)
            g = arr.sum(axis=axes).reshape(n, -1)
            # enumerate fibers by factor surgery per register x
            want = [0.0, 0.0, 0.0]
            for x in range(n):
                fibers = {}
                for d in range(database_dim(n)):
                    f = monotone_factorize(perm_of_index(n, d))
                    key = tuple(tk for k, tk in enumerate(f.t) if k != x)
                    fibers.setdefault(key, []).append((d, f))
                rx = [int(v) for v in twisted.section(x)]
                inv_x = 1.0 / (x + 1)
                for key, members in fibers.items():
                    d0, f0 = members[0]
                    above = partial_product(f0, x, "above")
                    below = partial_product(f0, x, "below")
                    pxc = tuple(above.images[below.images[v]] for v in range(n))
                    above_inv = perm_invert(above).images
                    fiber_g = {z: sum(g[z, d] for d, _f in members)
                               for z in range(n)}
                    for z in range(x):
                        if pxc[z] in rx:
                            want[0] += inv_x * fiber_g[si[z]]
                    for z in rx:
                        if above_inv[z] < x:
                            want[1] += inv_x * fiber_g[ti[z]]
                    count = sum(1 for t in range(x + 1) if above.images[t] in rx)
                    for z in range(x + 1, n):
                        if above_inv[z] == x:
                            want[2] += count * inv_x * fiber_g[ti[z]]
            for k in range(3):
                assert vals[k] == pytest.approx(want[k] / n, abs=1e-12)


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
    for x in range(n):
        reps = progress_accumulation_check(circ, rel, x)
        assert all(r.passed for r in reps), reps
    # zero queries: 0 <= 0
    reps0 = progress_accumulation_check(empty_circuit(n), rel, 0)
    assert reps0[0].lhs == pytest.approx(0.0, abs=1e-12)
    assert all(r.passed for r in reps0)


def test_progress_expectation_and_crucial():
    n = 4
    plan = make_twirl_plan(n)
    circ = random_circuit(55, 1, 2, n)
    for rel in (diagonal_relation(n), sponge_preimage_relation(2, 1, 1)):
        rep = progress_expectation_check(circ, rel, plan)
        assert rep.passed, rep
        for sub in crucial_term_checks(circ, rel, plan):
            assert sub.passed, sub
    rep0 = progress_expectation_check(empty_circuit(n), diagonal_relation(n), plan)
    assert rep0.lhs == pytest.approx(0.0, abs=1e-12)


# --------------------------------------------------------------------------
# Gamma operator and sparsity


def test_gamma_closed_equals_brute():
    for n in (2, 3, 4):
        closed = gamma_operator(n).dense()
        brute = gamma_operator(n, "brute_force").dense()
        assert np.abs(closed - brute).max() < 1e-10


def test_gamma_spectrum_n2():
    eigs = np.sort(np.linalg.eigvalsh(gamma_operator(2).dense()))
    assert np.allclose(eigs, [0.0, 0.25], atol=1e-12)
    assert gamma_operator(1).dense().tolist() == [[0.0]]


def test_gamma_psd_and_norm():
    for n in (2, 3, 4, 5):
        dense = gamma_operator(n).dense()
        eigs = np.linalg.eigvalsh(dense)
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
            w = cycle_average(n, ell).dense()
            assert np.abs(w - w.T).max() < 1e-12
            assert operator_norm(cycle_average(n, ell)) <= 1 + 1e-12
            w_left = cycle_average(n, ell, "left").dense()
            assert np.abs(w - w_left).max() < 1e-12
    # n=2: the unique 2-cycle is the swap; W = R^{swap}
    w2 = cycle_average(2, 2).dense()
    assert np.allclose(w2, [[0, 1], [1, 0]])


def test_gamma_annihilates_fresh_database():
    for n in (2, 3, 4):
        init = spo_init(n)
        assert gamma_expectation(init, gamma_operator(n)) == pytest.approx(
            0.0, abs=1e-12)


def test_commutator_growth():
    for n in (2, 3, 4):
        for rep in commutator_growth_check(n):
            assert rep.passed, rep


def test_sparsity_trajectory():
    n = 4
    plan = make_twirl_plan(n)
    for seed in (61, 62):
        circ = random_circuit(seed, 2, 2, n)
        reps = sparsity_trajectory_check(circ, plan)
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


def test_theorem_monte_carlo_path():
    rep = theorem_check(classical_probe(4, 0, "forward"), diagonal_relation(4),
                        trials=50, seed=5)
    assert rep.method == "monte_carlo"
    assert rep.samples == 50
    assert rep.passed
    with pytest.raises(ValueError):
        theorem_check(empty_circuit(4), diagonal_relation(4), trials=10)


def test_theorem_spo_cross_check():
    # the concrete lhs equals p_i of the loading-query circuit under the SPO
    n = 4
    circ = random_circuit(67, 1, 2, n)
    rel = diagonal_relation(n)
    rep = theorem_check(circ, rel)
    from spolab.circuits import with_loading_query

    plan = make_twirl_plan(n)
    res = experiment_probabilities(with_loading_query(circ), rel, plan)
    assert rep.lhs == pytest.approx(res.p_i, abs=1e-9)
