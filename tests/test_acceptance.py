"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (run pytest with -s to
see them inline).  The headline constants (914, 1828) make the search bounds
vacuous at any simulable N, so the bound checks assert exact arithmetic and
correct vacuity flags; everything else is exact property verification plus
seeded statistics at the sizes the criteria name.
"""
import itertools
import math
import time

import numpy as np
from spolab import bounds
from spolab.circuits import (
    classical_probe,
    concrete_ensemble,
    dressed_standard_form,
    empty_circuit,
    random_circuit,
    run,
    run_with_intermediates,
    spo_ensemble,
    standard_form,
)
from spolab.lemmas import (
    commutator_norm,
    easy_norm_check,
    commutator_growth_check,
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
)
from spolab.oracles import (
    database_dim,
    left_right_map,
    query_slice_map,
    spo_backend,
    spo_init,
    twirl,
)
from spolab.permutations import (
    MonotoneFactorization,
    active_set,
    all_factor_tuples,
    all_permutations,
    apply_via_active,
    compose_from_factors,
    expected_active_size,
    forward_expectation_bound,
    inverse_active_expectation_float,
    inverse_expectation_bound,
    invert,
    monotone_factorize,
)
from spolab.relations import diagonal_relation, full_relation
from spolab.states import trace_distance
from spolab.suites import (
    run_attack,
    sampler_chi_square,
    suite_circuits,
    suite_relations,
)

from helpers import main_bound_highprec, sponge_bound_highprec, zero_search_bound_highprec

SEED = 20240917


def record(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_factorization_bijection():
    from spolab.permutations import Permutation

    t0 = time.perf_counter()
    ok = True
    for n in range(1, 8):
        seen = set()
        for t in all_factor_tuples(n):
            p = compose_from_factors(MonotoneFactorization(t))
            if monotone_factorize(p).t != t:
                ok = False
            seen.add(p.images)
        ok &= len(seen) == math.factorial(n)
        # the other direction over an independent enumeration of S_n
        for images in itertools.permutations(range(n)):
            p = Permutation(images)
            if compose_from_factors(monotone_factorize(p)).images != images:
                ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    record(1, "factorization bijection both ways, N <= 7", ok, f"{elapsed:.2f}s")


def test_criterion_02_independent_uniformity():
    ok = True
    for n in range(1, 8):
        count = sum(1 for _ in all_factor_tuples(n))
        ok &= count == math.factorial(n)
    rep = sampler_chi_square(4, 1_000_000, seed=SEED)
    ok &= rep.passed
    record(2, "tuple bijection (N <= 7) + chi-square 1e6 draws at N = 4", ok,
           f"chi2={rep.lhs:.1f} <= {rep.rhs:.1f}")


def test_criterion_03_active_set_semantics():
    ok = True
    for n in range(1, 7):
        total = math.factorial(n)
        counts = np.zeros((n, n), dtype=np.int64)  # [x, k] membership counts
        for t in all_factor_tuples(n):
            f = MonotoneFactorization(t)
            p = compose_from_factors(f)
            pinv = invert(p)
            for x in range(n):
                if apply_via_active(f, x, "forward") != p.images[x]:
                    ok = False
                if apply_via_active(f, x, "inverse") != pinv.images[x]:
                    ok = False
                for k in active_set(f, x):
                    counts[x, k] += 1
        for x in range(n):
            for k in range(n):
                want = total if x == k else (
                    total // (k + 1) if x < k else 0)
                if counts[x, k] != want:
                    ok = False
    record(3, "active-set semantics and exact membership probabilities, N <= 6",
           ok)


def test_criterion_04_expectation_bounds():
    ok = True
    worst = 0.0
    for n in range(1, 8):
        for arg in range(n):
            fwd = expected_active_size(n, arg, "forward")
            inv = expected_active_size(n, arg, "inverse")
            rec = inverse_active_expectation_float(n, arg)
            ok &= fwd <= forward_expectation_bound(n, arg) + 1e-12
            ok &= inv <= inverse_expectation_bound(n, arg) + 1e-12
            ok &= inv < 3.0
            worst = max(worst, abs(inv - rec))
    ok &= worst <= 1e-12
    record(4, "expectation bounds + recurrence match, N <= 7", ok,
           f"max recurrence deviation {worst:.2e}")


def test_criterion_05_exact_oracle_simulation():
    n = 4
    worst = 0.0
    rng = np.random.default_rng(SEED)
    count = 0
    for i in range(20):
        q = 1 + i % 3
        wd = 1 + i % 4
        circ = random_circuit(1000 + i, q, wd, n)
        d = trace_distance(concrete_ensemble(circ),
                           spo_ensemble(circ, spo_backend(n)))
        worst = max(worst, d)
        count += 1
    ok = worst <= 1e-9 and count >= 20
    # the three experiments of the spo-vs-tspo lemma coincide: every fixed
    # (sigma, tau) reproduces the untwirled (pi, B) ensemble, which is the
    # exact factorization of the randomized third experiment
    perms = list(all_permutations(n))
    worst_tspo = 0.0
    for circ in (classical_probe(n, 0, "forward"), random_circuit(2024, 2, 2, n)):
        ref = spo_ensemble(circ, spo_backend(n))
        for sigma in perms:
            for tau in perms:
                twirled = spo_backend(n, sigma=sigma, tau=tau)
                d = trace_distance(ref, spo_ensemble(circ, twirled))
                worst_tspo = max(worst_tspo, d)
    ok &= worst_tspo <= 1e-9
    record(5, "exact simulation: 20 circuits + spo-vs-tspo ensembles, N = 4",
           ok, f"max td {max(worst, worst_tspo):.2e}")


def test_criterion_06_twirl_algebra():
    n = 4
    nf = database_dim(n)
    perms = list(all_permutations(n))
    init = spo_init(n)
    ok = True
    for side, p in (("left", perms[7]), ("right", perms[13])):
        ok &= bool(np.array_equal(twirl(init, side, p).amps, init.amps))
    # conjugation identity as exact label maps, all 576 pairs; the joint
    # (x, y, d) map of a query is its slice maps side by side
    def joint_map(direction, sigma=None, tau=None):
        return np.concatenate([x * n * nf
                               + query_slice_map(n, x, direction, sigma, tau)
                               for x in range(n)])

    arange = np.arange(nf)
    joint = np.arange(n * n * nf)
    rest, d_part = np.divmod(joint, nf)
    for direction in ("forward", "inverse"):
        base = joint_map(direction)
        for sigma in perms:
            for tau in perms:
                twisted = joint_map(direction, sigma, tau)
                m = left_right_map(n, tau=tau, sigma=sigma)
                minv = np.empty_like(m)
                minv[m] = arange
                conj = (rest * nf + m[d_part])[base[rest * nf + minv[d_part]]]
                if not np.array_equal(conj, twisted):
                    ok = False
    # output state twisted vs not, to 1e-12, all 576 pairs
    worst = 0.0
    for circ in (classical_probe(n, 1, "inverse"), random_circuit(2025, 2, 2, n)):
        plain = run(circ, spo_backend(n))
        for sigma in perms:
            for tau in perms:
                direct = run(circ, spo_backend(n, sigma=sigma, tau=tau))
                relabeled = twirl(twirl(plain, "right", sigma), "left", tau)
                worst = max(worst, float(np.abs(direct.amps - relabeled.amps).max()))
    ok &= worst <= 1e-12
    record(6, "twirl algebra: conjugation + twisted-vs-not, all 576 pairs",
           ok, f"max dev {worst:.2e}")


def test_criterion_07_standard_form():
    n = 4
    perms = list(all_permutations(n))
    ok = True
    worst = 0.0
    for circ in (classical_probe(n, 0, "forward"), random_circuit(2026, 2, 2, n)):
        b = standard_form(circ)
        ok &= b.query_count == 2 * circ.query_count
        for sigma in perms:
            for tau in perms:
                ref = run(circ, spo_backend(n, sigma=sigma, tau=tau))
                got2 = run(b, spo_backend(n, sigma=sigma, tau=tau))
                got3 = run(dressed_standard_form(circ, sigma, tau), spo_backend(n))
                # Z first; the other registers keep the reference's order
                z2 = np.moveaxis(got2.reshaped(), got2.layout.axis("Z"), 0)
                z3 = np.moveaxis(got3.reshaped(), got3.layout.axis("Z"), 0)
                worst = max(worst, float(np.abs(z2[0] - ref.reshaped()).max()))
                worst = max(worst, float(np.abs(z3[0] - ref.reshaped()).max()))
                worst = max(worst, float(np.abs(z2[1:]).max()))
    ok &= worst <= 1e-12
    record(7, "standard form: three experiments equal, queries doubled, N = 4",
           ok, f"max dev {worst:.2e}")


def test_criterion_08_help_lemma():
    ok = True
    worst = -1.0
    for n in range(1, 6):
        for x in range(n):
            for r in range(n + 1):
                for y_set in itertools.combinations(range(n), r):
                    norm, bound = help_norm(n, x, set(y_set))
                    worst = max(worst, norm - bound)
    ok &= worst <= 1e-9
    norm, bound = help_norm(2, 1, {0})
    ok &= abs(norm - 1 / math.sqrt(2)) <= 1e-12
    ok &= abs(norm - bound) <= 1e-12
    record(8, "help lemma: all 2^N subsets, N <= 5, equality case at N = 2",
           ok, f"max violation {worst:.2e}")


def test_criterion_09_fundamental_lemma():
    n = 4
    t0 = time.perf_counter()
    ok = True
    worst_slack = math.inf
    for circ in suite_circuits(n, SEED):
        final = run(circ, spo_backend(n))
        for rname, rel in suite_relations(n):
            rep = fundamental_check(final, rel)
            ok &= rep.passed and rep.slack >= -1e-9
            worst_slack = min(worst_slack, rep.slack)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    # Monte Carlo at N = 8 with >= 2000 twirl pairs, 3-sigma acceptance
    plan8 = make_twirl_plan(8, seed=SEED, min_pairs=2000)
    ok &= plan8.pair_count >= 2000
    for circ in (classical_probe(8, 0, "forward"), random_circuit(900, 1, 1, 8)):
        rep = fundamental_check(run(circ, spo_backend(8)), diagonal_relation(8), plan8)
        ok &= rep.passed
        ok &= rep.method == "monte_carlo"
    record(9, "fundamental lemma: exact N = 4 suite + MC N = 8", ok,
           f"min slack {worst_slack:.3f}, exact pass in {elapsed:.1f}s")


def test_criterion_10_progress_identity():
    n = 4
    ok = True
    worst = 0.0
    for circ in suite_circuits(n, SEED, max_q=2):
        final = run(circ, spo_backend(n))
        for rname, rel in suite_relations(n):
            lhs = n * progress_measure(final, rel)
            rhs = p2_upper_bound(final, [rel])[0]
            worst = max(worst, abs(lhs - rhs))
            p_ii = experiment_probabilities(final, rel).p_ii
            ok &= p_ii <= rhs + 1e-10
    ok &= worst <= 1e-10
    record(10, "progress identity N*measure = p_ii bound, and domination",
           ok, f"max identity deviation {worst:.2e}")


def test_criterion_11_per_query_lemmas():
    n = 4
    circuits = suite_circuits(n, SEED)
    rels = suite_relations(n)
    ok = True
    for circ in circuits:
        if not circ.query_count:
            continue
        final, pre = run_with_intermediates(circ, spo_backend(n))
        for rname, rel in rels:
            for _next_direction, state in pre:
                # both query lemmas hold at every intermediate state,
                # whichever direction is queried next
                for direction in ("forward", "inverse"):
                    for x in range(n):
                        rep = query_step_check(state, x, rel, direction)
                        ok &= rep.passed
            for x in range(n):
                ok &= all(r.passed
                          for r in progress_accumulation_check(final, pre, rel, x))
    for rname, rel in rels:
        for x in range(n):
            for direction in ("forward", "inverse"):
                ok &= easy_norm_check(n, x, rel, direction).passed
    counts = {"hard-database": 0, "crucial": 0}
    nonempty = [(rname, rel) for rname, rel in rels if rel.size]
    for circ in suite_circuits(n, SEED, max_q=2):
        for rep in progress_checks(circ, nonempty):
            kind = rep.name.split("[")[0]
            if kind in counts:
                counts[kind] += 1
                ok &= rep.passed
    ok &= counts == {"hard-database": 16, "crucial": 48}
    record(11, "per-query lemmas, accumulation, hard-database, crucial terms",
           ok)


def test_criterion_12_gamma_operator():
    ok = True
    worst = 0.0
    for n in range(2, 6):
        diff = float(np.abs(gamma_operator(n) - gamma_brute_force(n)).max())
        worst = max(worst, diff)
    ok &= worst <= 1e-10
    eigs = np.sort(np.linalg.eigvalsh(gamma_operator(2)))
    ok &= bool(np.allclose(eigs, [0.0, 0.25], atol=1e-12))
    record(12, "Gamma closed form = twirl average (N <= 5); N = 2 spectrum",
           ok, f"max elementwise dev {worst:.2e}")


def test_criterion_13_commutator_and_sparsity():
    ok = True
    t0 = time.perf_counter()
    for n in range(2, 7):
        for rep in commutator_growth_check(n):
            ok &= rep.passed
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    n = 4
    comm = {d: commutator_norm(n, d) for d in ("forward", "inverse")}
    for circ in suite_circuits(n, SEED):
        backend = spo_backend(n)
        final, pre = run_with_intermediates(circ, backend)
        states = [s for _d, s in pre] + [final]
        vals = [gamma_expectation(s) for s in states]
        for j, val in enumerate(vals):
            ok &= val <= 6 * j * (math.log(n) + 1) / n ** 2 + 1e-9
        for j in range(1, len(vals)):
            ok &= vals[j] - vals[j - 1] <= comm[pre[j - 1][0]] + 1e-9
        ok &= all(r.passed for r in sparsity_trajectory_check(circ))
    record(13, "commutator growth N in 2..6 + sparsity trajectories", ok,
           f"commutator sweep {elapsed:.1f}s")


def test_criterion_14_attack_experiments():
    res = run_attack("sponge", 8, 4, 4, backend="concrete", trials=200,
                     seed=SEED)
    # "within 3 sigma" of the closed-form reference: sigma is the pi-to-pi
    # standard deviation (the reference ignores the marked-set fluctuation,
    # so the stderr scale cannot apply); the hypergeometric-exact reference
    # additionally matches to 3 standard errors.
    gap_simple = abs(res["success_mean"] - res["reference_simple"])
    ok = gap_simple <= 3 * res["success_std"]
    gap_exact = abs(res["success_mean"] - res["reference_exact"])
    ok &= gap_exact <= 3 * res["success_stderr"]
    spo = run_attack("sponge", 3, 1, 1, backend="spo", target=1)
    conc = run_attack("sponge", 3, 1, 1, backend="concrete", target=1)
    backend_gap = abs(spo["success_mean"] - conc["success_mean"])
    ok &= backend_gap <= 1e-9
    res0 = run_attack("sponge", 8, 4, 0, backend="concrete", trials=200,
                      seed=SEED + 1)
    gap0 = abs(res0["success_mean"] - 2 ** -4)
    ok &= gap0 <= 3 * res0["success_stderr"]
    record(14, "attack experiments: Grover reference, backend equality, k=0",
           ok, f"ref gap {gap_simple:.3f} vs 3sd {3 * res['success_std']:.3f}; "
               f"backend gap {backend_gap:.1e}")


def test_criterion_15_bound_evaluators():
    ok = True
    fixtures = [
        (bounds.main_bound(1, 2 ** 20, 1), main_bound_highprec(1, 2 ** 20, 1)),
        (bounds.sponge_bound(1, 60, 30), sponge_bound_highprec(1, 60, 30)),
        (bounds.zero_search_bound(1, 40, 40), zero_search_bound_highprec(1, 40, 40)),
    ]
    for got, want in fixtures:
        ok &= abs(got - float(want)) <= abs(float(want)) * 1e-12
    # vacuity flags: raw > 1 must clamp and be flagged
    n = 4
    rep = theorem_check(classical_probe(n, 0, "forward"), full_relation(n))
    ok &= rep.extra["vacuous"] and rep.rhs == 1.0
    from spolab.relations import empty_relation

    rep0 = theorem_check(empty_circuit(n), empty_relation(n))
    ok &= not rep0.extra["vacuous"] and rep0.rhs == 0.0
    record(15, "bound evaluators to 12 digits + vacuity flags", ok)
