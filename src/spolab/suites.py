"""Named verification suites: the CLI surface over the lemma checkers.

Every suite returns a list of :class:`VerificationReport`; the CLI assembles
them into a JSON/CSV document.  Suites are deterministic given (n, seed):
Monte Carlo paths always thread an explicit seed, and reductions run in a
fixed order so regenerated reports are byte-identical apart from runtimes.

``all`` runs each sub-suite at a size in SUITE_SIZES, chosen by cost, so
that one command gives a full health check at any n.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from . import bounds
from .circuits import (
    Query,
    QueryCircuit,
    circuit_layout,
    classical_probe,
    concrete_ensemble,
    dressed_standard_form,
    empty_circuit,
    grover_preimage,
    grover_reference,
    random_circuit,
    run,
    run_with_intermediates,
    spo_ensemble,
    spo_success_probability,
    standard_form,
    success_probability,
    v_maps,
    zero_search_adversary,
    averaged_grover_reference,
)
from .lemmas import (
    EXHAUSTIVE_TWIRL_LIMIT,
    TwirlPlan,
    _all_cycles,
    _cycle_maps,
    easy_norm_check,
    commutator_growth_check,
    experiment_probabilities,
    fundamental_check,
    gamma_brute_force,
    gamma_operator,
    help_norm,
    make_twirl_plan,
    progress_checks,
    query_growth_checks,
    sparsity_trajectory_check,
    theorem_check,
)
from .oracles import (
    cnot_operator,
    concrete_backend,
    database_dim,
    joint_maps,
    left_right_map,
    perm_tables,
    query_slice_map,
    shift_table,
    spo_backend,
    spo_init,
    swap_operator,
    u_oracle,
    v_oracle,
)
from .permutations import (
    EXACT_ENUM_LIMIT,
    MonotoneFactorization,
    SizeLimitError,
    active_set,
    all_factor_tuples,
    all_images,
    all_permutations,
    apply_via_active,
    cayley_distance,
    compose,
    compose_from_factors,
    cycle_count,
    expected_active_size,
    format_one_line,
    forward_expectation_bound,
    identity,
    inverse_active_expectation_exact,
    inverse_active_expectation_float,
    inverse_active_set,
    inverse_expectation_bound,
    invert,
    invert_via_factors,
    monotone_factorize,
    parse_one_line,
    partial_product,
    sample_uniform,
    sample_uniform_batch,
)
from .relations import (
    Relation,
    diagonal_relation,
    empty_relation,
    from_pairs,
    full_relation,
    sponge_preimage_relation,
    twirl_relation,
    zero_search_relation,
)
from .reporting import VerificationReport, check, check_close, timed_rows
from .states import CQEnsemble, StateVector, trace_distance, trace_norms

DEFAULT_SEED = 20240917
DEFAULT_SAMPLES = 2000  # minimum (sigma, tau) pairs of a sampled fundamental grid
# Smallest side of a sampled fundamental grid.  Redrawn 2,000 times from the
# full-group N = 4 per-pair grids, 3-stderr coverage is 0.975 pooled and
# 0.967 at worst at 12 x 12, short of the 0.98 and 0.97 the coverage test
# asks; 13 x 13 meets them there (0.981, 0.972) but not on the test's 1,000
# draws (0.978, 0.967); 14 x 14 gives 0.985 and 0.980.
MIN_SAMPLED_SIDE = 14


def suite_circuits(n: int, seed: int = 11, max_q: int = 3) -> list[QueryCircuit]:
    """The fixed adversary collection exercised by the lemma suites."""
    circuits = [empty_circuit(n), classical_probe(n, 0, "forward")]
    if n > 1:
        circuits.append(classical_probe(n, 1, "inverse"))
    for q in range(1, max_q + 1):
        circuits.append(random_circuit(seed + q, q, 2, n))
    return circuits


def suite_relations(n: int) -> list[tuple[str, Relation]]:
    rels = [("empty", empty_relation(n)),
            ("full", full_relation(n)),
            ("diag", diagonal_relation(n)),
            ("pair", from_pairs(n, [(0, n - 1)]))]
    if n == 4:
        rels.append(("sponge", sponge_preimage_relation(2, 1, 1)))
    elif n == 8:
        rels.append(("sponge", sponge_preimage_relation(3, 1, 1)))
    return rels


# --------------------------------------------------------------------------
# factorization


def factorization_suite(n: int, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    out = []
    seen = set()
    bad_roundtrip = 0
    for t in all_factor_tuples(n):
        f = MonotoneFactorization(t)
        p = compose_from_factors(f)
        seen.add(p.images)
        if monotone_factorize(p).t != t:
            bad_roundtrip += 1
    out.append(check(f"bijection-distinct[n={n}]",
                     math.factorial(n) - len(seen), 0, tol=0.0))
    out.append(check(f"factorize-o-compose[n={n}]", bad_roundtrip, 0, tol=0.0))

    bad_inverse = bad_partial = bad_cayley = 0
    for p in all_permutations(min(n, 5)):
        f = monotone_factorize(p)
        if invert_via_factors(f).images != invert(p).images:
            bad_inverse += 1
        if cayley_distance(f) != p.n - cycle_count(p):
            bad_cayley += 1
        for k in range(p.n):
            above = partial_product(f, k, "above")
            below = partial_product(f, k, "below")
            mid = compose(above, compose(
                compose_from_factors(MonotoneFactorization(
                    tuple(f.t[k] if j == k else j for j in range(p.n)))), below))
            if mid.images != p.images:
                bad_partial += 1
    m = min(n, 5)
    out.append(check(f"inverse-via-reversed-factors[n={m}]", bad_inverse, 0, tol=0.0))
    out.append(check(f"partial-product-recomposition[n={m}]", bad_partial, 0, tol=0.0))
    out.append(check(f"cayley-equals-n-minus-cycles[n={m}]", bad_cayley, 0, tol=0.0))

    rng1 = np.random.default_rng(seed)
    rng2 = np.random.default_rng(seed)
    replys = [sample_uniform(n, rng1).images == sample_uniform(n, rng2).images
              for _ in range(32)]
    out.append(check("seeded-sampling-deterministic", replys.count(False), 0, tol=0.0))

    text = format_one_line(sample_uniform(n, np.random.default_rng(seed + 1)))
    out.append(check("one-line-roundtrip",
                     0 if format_one_line(parse_one_line(text)) == text else 1,
                     0, tol=0.0))
    return out


# --------------------------------------------------------------------------
# active sets


def active_sets_suite(n: int, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    out = []
    m = min(n, 6)
    bad_fwd = bad_inv = 0
    pattern_counts: list[dict[tuple[int, ...], int]] = [{} for _ in range(m)]
    singleton_bad = 0
    for t in all_factor_tuples(m):
        f = MonotoneFactorization(t)
        p = compose_from_factors(f)
        pinv = invert(p)
        for x in range(m):
            if apply_via_active(f, x, "forward") != p.images[x]:
                bad_fwd += 1
            if apply_via_active(f, x, "inverse") != pinv.images[x]:
                bad_inv += 1
            members = active_set(f, x)
            pattern = tuple(1 if k in members else 0 for k in range(m))
            pattern_counts[x][pattern] = pattern_counts[x].get(pattern, 0) + 1
        for y in range(m):
            # the inverse-expectation proof's case analysis: some t_k = y
            # forces a singleton inverse-active set
            if any(tk == y for tk in t) and len(inverse_active_set(f, y)) != 1:
                singleton_bad += 1
    out.append(check(f"apply-via-active-forward[n={m}]", bad_fwd, 0, tol=0.0))
    out.append(check(f"apply-via-active-inverse[n={m}]", bad_inv, 0, tol=0.0))
    out.append(check(f"inverse-active-singleton-case[n={m}]", singleton_bad, 0,
                     tol=0.0))

    # Membership probabilities 1/k (x < k), 1 (x = k), 0 (x > k), with exact
    # independence: every indicator pattern occurs with the product frequency.
    total = math.factorial(m)
    bad_prob = 0
    bad_joint = 0
    for probe_x in range(m):
        marginals = []
        for k in range(m):
            expected = Fraction(1) if k == probe_x else (
                Fraction(1, k + 1) if probe_x < k else Fraction(0))
            got = Fraction(sum(cnt for pat, cnt in pattern_counts[probe_x].items()
                               if pat[k]), total)
            if got != expected:
                bad_prob += 1
            marginals.append(expected)
        for pattern in itertools.product((0, 1), repeat=m):
            expected = Fraction(1)
            for k in range(m):
                pk = marginals[k]
                expected *= pk if pattern[k] else 1 - pk
            got = Fraction(pattern_counts[probe_x].get(pattern, 0), total)
            if got != expected:
                bad_joint += 1
    out.append(check(f"active-membership-probabilities[n={m}]", bad_prob, 0,
                     tol=0.0))
    out.append(check(f"active-independence[n={m}]", bad_joint, 0, tol=0.0))

    out.extend(_wrong_side_checks(min(n, 6)))

    # Expectation bounds and the inverse recurrence, every argument.
    worst_fwd = worst_inv = -1.0
    worst_rec = 0.0
    for arg in range(n):
        mean_f = expected_active_size(n, arg, "forward")
        mean_i = expected_active_size(n, arg, "inverse")
        worst_fwd = max(worst_fwd, mean_f - forward_expectation_bound(n, arg))
        worst_inv = max(worst_inv, mean_i - inverse_expectation_bound(n, arg))
        rec = inverse_active_expectation_float(n, arg)
        worst_rec = max(worst_rec, abs(mean_i - rec))
        if not mean_i < 3.0:
            worst_inv = max(worst_inv, mean_i - 3.0 + 1e-15)
    out.append(check(f"forward-expectation-bound[n={n}]", worst_fwd, 0.0))
    out.append(check(f"inverse-expectation-bound[n={n}]", worst_inv, 0.0))
    out.append(check(f"inverse-recurrence-match[n={n}]", worst_rec, 1e-12, tol=0.0))

    # Rational certification of the float recurrence path.
    worst = 0.0
    for nn in range(1, 13):
        for y in range(nn):
            exact = inverse_active_expectation_exact(nn, y)
            flt = inverse_active_expectation_float(nn, y)
            worst = max(worst, abs(flt - float(exact)))
    out.append(check("recurrence-rational-certification[n<=12]", worst, 1e-12,
                     tol=0.0))

    # Smallest n where inverse-active differs from active-for-the-inverse.
    smallest = _smallest_inverse_active_mismatch()
    out.append(check("inverse-active-vs-active-of-inverse-smallest-n",
                     smallest, 2, tol=0.0, note="witness recorded, not asserted"))
    return out


def _wrong_side_checks(n: int) -> list[VerificationReport]:
    """pi_{>k} xi and xi pi_{>k} uniform; Pr(pi_{>k}(k) = l) = 1/N exactly.

    Per k the n!/(k+1)! uppers pi_{>k} and the (k+1)! xi on 0..k are image
    tables, so the products are the gathers uppers[:, xis] (pi_{>k} xi) and
    xis[:, uppers] (xi pi_{>k}); each permutation is hit exactly once <=>
    each product table has n! distinct rows."""
    bad_uniform = bad_point = 0
    for k in range(n - 1):
        tails = itertools.product(*(range(j + 1) for j in range(k + 1, n)))
        uppers = np.array([partial_product(MonotoneFactorization((0,) * (k + 1) + t), k,
                                           "above").images for t in tails])
        fixed = tuple(range(k + 1, n))  # xi keeps k+1..n-1
        xis = np.array([compose_from_factors(MonotoneFactorization(t + fixed)).images
                        for t in all_factor_tuples(k + 1)])
        for products in (uppers[:, xis], xis[:, uppers]):
            if len(np.unique(products.reshape(-1, n), axis=0)) != math.factorial(n):
                bad_uniform += 1
        point_counts = np.bincount(uppers[:, k], minlength=n)
        bad_point += int((point_counts[k + 1:] != len(uppers) // n).sum())
    return [check(f"wrong-side-uniformity[n={n}]", bad_uniform, 0, tol=0.0),
            check(f"wrong-side-point-probability[n={n}]", bad_point, 0, tol=0.0)]


def _smallest_inverse_active_mismatch() -> int:
    for n in range(1, 6):
        for p in all_permutations(n):
            pinv = invert(p)
            for y in range(n):
                if inverse_active_set(p, y) != active_set(pinv, y):
                    return n
    return -1


# --------------------------------------------------------------------------
# chi-square uniformity of the sampler


def sampler_chi_square(n: int, draws: int, seed: int) -> VerificationReport:
    """Chi-square of sampled permutations against uniform; 4-sigma acceptance
    via the normal approximation of the chi-square statistic."""
    rng = np.random.default_rng(seed)
    batch = sample_uniform_batch(n, draws, rng)
    codes = sum(column * np.int64(n ** i) for i, column in enumerate(batch.T))  # base n
    counts = np.bincount(codes, minlength=n ** n)
    valid_codes = np.sort(all_images(n) @ n ** np.arange(n))
    observed = counts[valid_codes]
    if int(observed.sum()) != draws:
        raise AssertionError("sampler produced a non-permutation")
    nf = math.factorial(n)
    expected = draws / nf
    stat = float(((observed - expected) ** 2 / expected).sum())
    df = nf - 1
    bound = df + 4.0 * math.sqrt(2.0 * df)
    return check(f"sampler-chi-square[n={n},draws={draws}]", stat, bound,
                 df=df, draws=draws)


# --------------------------------------------------------------------------
# spo equivalence, twirl algebra, standard form


def uv_identity_checks(n: int, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """U = V^{pi^-1} CNOT V^pi and V|0> = U^{pi^-1} SWAP U^pi |0> at size n."""
    rng = np.random.default_rng(seed)
    p = sample_uniform(n, rng)
    u_f = u_oracle(p).dense()
    u_b = u_oracle(p, inverse=True).dense()
    v_f = v_oracle(p).dense()
    v_b = v_oracle(p, inverse=True).dense()
    cnot = cnot_operator(n).dense()
    swap = swap_operator(n).dense()
    eye = np.eye(n)
    lhs1 = np.kron(v_b, eye) @ cnot @ np.kron(v_f, eye)
    lhs2 = np.kron(v_f, eye) @ cnot @ np.kron(v_b, eye)
    out = [check_close("u-from-v-forward", float(np.abs(lhs1 - u_f).max()), 0.0,
                       tol=1e-12),
           check_close("u-from-v-inverse", float(np.abs(lhs2 - u_b).max()), 0.0,
                       tol=1e-12)]
    zero_y = eye[:, :1]  # column x of kron(I, |0>) is |x>|0>
    for tag, v_mat, first, second in (("v-from-u-forward", v_f, u_f, u_b),
                                      ("v-from-u-inverse", v_b, u_b, u_f)):
        got = second @ (swap @ (first @ np.kron(eye, zero_y)))
        worst = float(np.abs(got - np.kron(v_mat, zero_y)).max())
        out.append(check_close(tag, worst, 0.0, tol=1e-12))
    return out


def small_x_untouched_checks(n: int) -> list[VerificationReport]:
    """O^{SPO,x} acts as the identity on the registers below D_{x+1}.

    Exact statement on the label maps: the operator never moves D at all,
    and the Y shift pi_d(x) is constant on every block of labels that agree
    on the digits at and above x (block size x!)."""
    nf = database_dim(n)
    pi_table, _ = perm_tables(n)
    violations = 0
    for x in range(n):
        mapping = query_slice_map(n, x, "forward").reshape(n, nf)
        if not np.array_equal(mapping % nf, np.broadcast_to(np.arange(nf), (n, nf))):
            violations += 1
        lo = math.factorial(x)
        shift = pi_table[:, x].reshape(-1, lo)
        if np.any(shift != shift[:, :1]):
            violations += 1
    return [check(f"small-x-not-touched[n={n}]", violations, 0, tol=0.0)]


def spo_equivalence_suite(n: int, seed: int = DEFAULT_SEED,
                          max_q: int = 3) -> list[VerificationReport]:
    out = uv_identity_checks(n, seed)
    out.extend(small_x_untouched_checks(n))
    readouts = []  # the untwirled readouts, circuit by circuit
    for circ in suite_circuits(n, seed, max_q=max_q):
        readouts.append(spo_ensemble(circ, spo_backend(n)))
        out.append(check(f"concrete-vs-spo[{circ.name}]",
                         trace_distance(concrete_ensemble(circ), readouts[-1]),
                         1e-9, tol=0.0))
    # suite_circuits' second circuit is the probe of the standard-form checks.
    out.extend(standard_form_checks(make_twirl_plan(n), readouts[1], seed))
    return out


def tspo_distances(final: StateVector, maps: np.ndarray,
                   ref: CQEnsemble) -> np.ndarray:
    """(1/2)||rho_ref - rho_k||_1 for each run k (label k of P) of a state
    twirled by (sigma, tau_k), against the untwirled readout ``ref`` in
    label order.  spo_recover labels row d of run k tau_k^{-1} pi_d sigma,
    row maps[k, d] of ``ref`` for a plan's maps right_inv[i][left_inv]:
    one trace_norms call reads all T runs."""
    n = ref.labels.shape[1]
    if not np.array_equal(ref.labels, perm_tables(n)[0]):
        raise ValueError("the reference readout must list every label in order")
    runs = final.amps.reshape(len(maps), -1, database_dim(n))  # (T, rest, N!)
    return 0.5 * trace_norms(ref.amps[maps], runs.transpose(0, 2, 1)).sum(axis=1)


def _foreign_steps(circ: QueryCircuit) -> int:
    """The non-query steps of ``circ`` that act on P or on a D register:
    the twirl certificate speaks for circuits with none."""
    return sum(not isinstance(step, Query)
               and not {"A", "Z", "X", "Y"}.issuperset(step.targets)
               for step in circ.steps)


def standard_form_checks(plan: TwirlPlan, probe_readout: CQEnsemble,
                         seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """The three standard-form experiments agree for every (sigma, tau) of
    the plan: experiments 2 and 3 must equal experiment 1 on Z = 0 and
    vanish on every Z != 0.  Experiments 1 and 3, the direct sides, run
    once per sigma-row against every tau; experiment 3, the dressed
    circuit, takes sigma as one permutation (V on X or Y alone) and the
    circuit's one P-controlled V^tau pair, against the all-identity table.

    The first circuit, classical_probe(n, 0, "forward"), also gives spo vs
    tspo, identical (pi, B) ensembles for every pair: tspo_distances reads
    each of its experiment-1 runs against ``probe_readout``, the probe's
    untwirled readout (spo_ensemble).

    Experiment 2 runs one sigma-row, the last.  When the twirl certificate
    holds and no non-query step of the standard-form circuit acts on P or D
    (_foreign_steps), every twirled run of it, as of the original, is its
    untwirled run with D relabelled, so one row's deviation is every row's.
    Its lhs adds the failed certificate rows and foreign steps to that
    deviation, so either failure fails the row."""
    out = []
    n, taus = plan.n, plan.taus
    identity_rows = spo_backend(n, sigma=np.broadcast_to(np.arange(n), taus.shape))
    uncertified = sum(not r.passed for r in twirl_certificate(plan))

    def deviation(got: StateVector, ref: StateVector) -> float:
        # Z leading, the other registers keep the reference's order.
        z = np.moveaxis(got.reshaped(), got.layout.axis("Z"), 0)
        return max(float(np.abs(z[0] - ref.reshaped()).max()),
                   float(np.abs(z[1:]).max()))

    for circ, readout in ((classical_probe(n, 0, "forward"), probe_readout),
                          (random_circuit(seed + 9, 2, 2, n), None)):
        b = standard_form(circ)
        violations = uncertified + _foreign_steps(b)
        # Per circuit: kept across circuits, the maps would also hold the
        # last circuit's gather indices, and peak memory grows.
        v_tau = v_maps(taus)
        worst_tspo = worst12 = worst13 = 0.0
        for i, sigma in enumerate(plan.sigmas):
            twirled = spo_backend(n, sigma=sigma, tau=taus)
            ref = run(circ, twirled)
            if readout is not None:  # d -> idx(tau_k^{-1} pi_d sigma)
                maps = plan.right_inv[i][plan.left_inv]
                worst_tspo = max(worst_tspo, float(tspo_distances(ref, maps, readout).max()))
            if i == len(plan.sigmas) - 1:
                worst12 = deviation(run(b, twirled), ref)
            dressed = dressed_standard_form(circ, sigma, v_tau)
            worst13 = max(worst13, deviation(run(dressed, identity_rows), ref))
        if readout is not None:
            out.append(check(f"spo-vs-tspo-all-pairs[{circ.name}]", worst_tspo, 1e-9,
                             tol=0.0, pairs=plan.pair_count))
        out.append(check_close(f"std-doubles-queries[{circ.name}]",
                               b.query_count, 2 * circ.query_count, tol=0.0))
        out.append(check(f"std-experiment-1-vs-2[{circ.name}]", worst12 + violations,
                         1e-12, tol=0.0, pairs=plan.pair_count, pairs_run=len(taus),
                         certified=violations == 0))
        out.append(check(f"std-experiment-1-vs-3[{circ.name}]", worst13, 1e-12,
                         tol=0.0, pairs=plan.pair_count))
    return out


def twirl_certificate(plan: TwirlPlan) -> list[VerificationReport]:
    """The exact label-map certificate of the twirl over the plan's pairs:
    the fresh database is invariant under every L^tau and R^sigma, L and R
    commute and compose to the joint map, and the twirled query in each
    direction is the (L R)-conjugate of the untwirled one.  By induction
    over its steps, a circuit whose non-query steps act on neither P nor D
    then runs twirled as its untwirled run with D relabelled by (sigma,
    tau)."""
    out = []
    n = plan.n
    nf = database_dim(n)

    # The label maps of every L^tau and every R^sigma, one table each.
    lms, rms = left_right_map(n, tau=plan.taus), left_right_map(n, sigma=plan.sigmas)
    # Initial-state invariance is exact: uniform amplitudes permuted in place.
    init = spo_init(n).amps
    worst = max(float(np.abs(init[maps] - init).max()) for maps in (lms, rms))
    out.append(check(f"initial-twirl-invariance[n={n}]", worst, 0.0, tol=0.0))

    # L and R commute, and the twirled query operator equals the conjugated
    # untwirled one -- both as exact integer label maps, a sigma-row at a
    # time, with the row's joint maps ranked apart from the composition.
    bad_commute = 0
    bad_conjugate = 0
    for sigma, rm in zip(plan.sigmas, rms):
        composed = lms[:, rm]
        bad_commute += int((composed != rm[lms]).any(axis=1).sum())
        both = left_right_map(n, tau=plan.taus, sigma=sigma)
        bad_conjugate += int((composed != both).any(axis=1).sum())
    out.append(check(f"left-right-commute[n={n}]", bad_commute, 0, tol=0.0))
    out.append(check(f"left-right-compose[n={n}]", bad_conjugate, 0, tol=0.0))

    # The twirled query equals (L R) O^SPO (L R)^{-1}: exact label-map identity
    # on the joint (x, y, d) basis of joint_maps, for a whole sigma-row of
    # the plan at once.
    bad_ops = 0
    rest, d_part = np.divmod(np.arange(n * n * nf), nf)
    for direction in ("forward", "inverse"):
        base_map = joint_maps(shift_table(n, direction))[0]
        for i, sigma in enumerate(plan.sigmas):
            minv = plan.right_inv[i][plan.left_inv]  # (L R)^{-1} per tau
            p_lr = rest * nf + np.argsort(minv, axis=1)[:, d_part]  # L R
            conj = np.take_along_axis(p_lr, base_map[rest * nf + minv[:, d_part]], 1)
            twisted = joint_maps(shift_table(n, direction, sigma, plan.taus))
            bad_ops += int((conj != twisted).any(axis=1).sum())
    out.append(check(f"twirled-query-conjugation[n={n}]", bad_ops, 0, tol=0.0))
    return out


def twirl_suite(n: int, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    plan = make_twirl_plan(n)  # every (sigma, tau) of S_n x S_n
    nf = database_dim(n)
    out = twirl_certificate(plan)

    # Output state twisted vs not, for the suite circuits, all pairs: row k
    # of one twirled run per sigma equals the untwirled run relabelled by
    # (sigma, tau_k), i.e. plain[..., minv_k] with the plan's label maps.
    for circ in suite_circuits(n, seed, max_q=2):
        plain = run(circ, spo_backend(n)).amps.reshape(-1, nf)
        worst = 0.0
        for i, sigma in enumerate(plan.sigmas):
            direct = run(circ, spo_backend(n, sigma=sigma, tau=plan.taus))
            relabeled = plain[:, plan.right_inv[i][plan.left_inv]].transpose(1, 0, 2)
            worst = max(worst, float(np.abs(direct.amps.reshape(relabeled.shape)
                                            - relabeled).max()))
        out.append(check(f"twisted-vs-not[{circ.name}]", worst, 1e-12, tol=0.0,
                         pairs=plan.pair_count))

    # Relation twirling: identity twirl fixes R; r_max and size invariant.
    rels = suite_relations(n)
    bad_rel = 0
    rng = np.random.default_rng(seed)
    for _name, rel in rels:
        if twirl_relation(rel, identity(n), identity(n)).members.tolist() != \
                rel.members.tolist():
            bad_rel += 1
        for _ in range(4):
            sigma, tau = sample_uniform(n, rng), sample_uniform(n, rng)
            tw = twirl_relation(rel, sigma, tau)
            if tw.r_max != rel.r_max or tw.size != rel.size:
                bad_rel += 1
    out.append(check(f"twirl-relation-invariants[n={n}]", bad_rel, 0, tol=0.0))
    return out


# --------------------------------------------------------------------------
# fundamental lemma, help lemma, progress, gamma, commutator, sparsity


def help_norm_suite(n: int) -> list[VerificationReport]:
    if n < 1:  # no x to check: the bound row would pass vacuously
        check_suite_size("help-norm", n)  # raises: 1 is the entry's least n
    worst = -1.0
    for x in range(n):
        for r in range(n + 1):
            for y_set in itertools.combinations(range(n), r):
                norm, bound = help_norm(n, x, set(y_set))
                worst = max(worst, norm - bound)
    out = [check(f"help-norm-bound[n={n},all-subsets]", worst, 0.0)]
    if n >= 2:
        out.append(check_close("help-norm-equality[n=2,x=2,|Y|=1]",
                               *help_norm(2, 1, {0}), tol=1e-12))
    return out


def fundamental_suite(n: int, seed: int = DEFAULT_SEED,
                      min_pairs: int = DEFAULT_SAMPLES) -> list[VerificationReport]:
    out = []
    if n <= EXHAUSTIVE_TWIRL_LIMIT:
        plan = None  # exact: p_ii from the subset kernel
        circuits = suite_circuits(n, seed)
        rels = suite_relations(n)
    else:
        if min_pairs <= (MIN_SAMPLED_SIDE - 1) ** 2:
            raise ValueError(f"a sampled fundamental grid needs min_pairs > "
                             f"{(MIN_SAMPLED_SIDE - 1) ** 2} (a {MIN_SAMPLED_SIDE}"
                             f" x {MIN_SAMPLED_SIDE} grid at least, for an honest "
                             f"3-stderr error), got min_pairs={min_pairs}")
        plan = make_twirl_plan(n, seed=seed, min_pairs=min_pairs)
        circuits = [classical_probe(n, 0, "forward"),
                    random_circuit(seed + 1, 1, 1, n)]
        rels = [("diag", diagonal_relation(n)),
                ("pair", from_pairs(n, [(0, n - 1)]))]
    finals = {}  # the fixtures' finals, kept at n = 4 only
    for circ in circuits:
        final = run(circ, spo_backend(n))
        for rname, rel in rels:
            out.append(fundamental_check(final, rel, plan,
                                         name=f"fundamental[{circ.name},{rname}]"))
        if n == 4:
            finals[circ.name] = final
        del final  # one final state at a time: at n = 8 each holds 41 MB
    if n == 4:
        # Analytic fixture: classical probe against the full relation has
        # p_i = 1 and p_ii = (1/N) sum_s (1 - 1/s)^2 = 181/576.
        res = experiment_probabilities(finals["probe-f0"], full_relation(n))
        out.append(check_close("probe-full-p_i", res.p_i, 1.0, tol=1e-10))
        out.append(check_close("probe-full-p_ii", res.p_ii, 181.0 / 576.0,
                               tol=1e-10, subsets=res.subsets))
        res0 = experiment_probabilities(finals["empty"], from_pairs(n, [(0, 0)]))
        out.append(check_close("empty-pair-p_i", res0.p_i, 1.0 / n, tol=1e-10))
        out.append(check_close("empty-pair-p_ii", res0.p_ii, 0.0, tol=1e-12,
                               subsets=res0.subsets))
    return out


def progress_suite(n: int, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    out = []
    rels = suite_relations(n)
    # One untwirled run per circuit serves its progress and per-query rows.
    runs = [(circ, *run_with_intermediates(circ, spo_backend(n)))
            for circ in suite_circuits(n, seed, max_q=2)]
    for circ, final, _pre in runs:
        out.extend(progress_checks(circ, final, rels))
    # Per-query inequalities at every intermediate state of every run.
    for circ, final, pre in runs:
        if circ.query_count:
            out.extend(query_growth_checks(final, pre, rels, circ.name))
    for rname, rel in rels:
        for direction in ("forward", "inverse"):
            for x in range(n):
                out.append(easy_norm_check(n, x, rel, direction,
                                           name=f"easy-i[{rname},x={x},{direction}]"))
    return out


def gamma_suite(n: int) -> list[VerificationReport]:
    out = []
    gamma = gamma_operator(n)
    if n <= 5:
        diff = float(np.abs(gamma - gamma_brute_force(n)).max())
        out.append(check(f"gamma-closed-vs-brute[n={n}]", diff, 1e-10, tol=0.0))
    eigs = np.linalg.eigvalsh(gamma)
    out.append(check(f"gamma-psd[n={n}]", float(-eigs.min()), 1e-10, tol=0.0))
    out.append(check(f"gamma-norm[n={n}]", float(eigs.max()),
                     (math.log(n) + 1.0) / n))
    if n == 2:
        expected = np.array([0.0, 0.25])
        got = np.sort(eigs)
        out.append(check_close("gamma-spectrum[n=2]",
                               float(np.abs(got - expected).max()), 0.0, tol=1e-12))
    if n >= 3:
        # Exact counts over the class maps' arcs W[m_g[d], d], not a dense W;
        # the norm is Schur's sqrt(max row sum), every column summing to 1.
        nf = database_dim(n)
        labels = np.arange(nf)
        for ell in (2, 3):
            right, left = (_cycle_maps(n, ell, side) for side in ("right", "left"))
            arcs = right * nf + labels
            size = len(right)
            out.append(check(f"cycle-average-left-right[n={n},l={ell}]",
                             _count_gap(arcs, left * nf + labels) / size, 1e-12, tol=0.0))
            out.append(check(f"cycle-average-symmetric[n={n},l={ell}]",
                             _count_gap(arcs, labels * nf + right) / size, 1e-12, tol=0.0))
            rows = np.bincount(right.ravel(), minlength=nf)
            out.append(check(f"cycle-average-norm[n={n},l={ell}]",
                             math.sqrt(rows.max() / size), 1.0 + 1e-12))
    return out


def _count_gap(a: np.ndarray, b: np.ndarray) -> int:
    """max over values of |count in a - count in b|: 0 exactly when the
    two integer multisets are equal."""
    _values, inverse = np.unique(np.concatenate([a, b], axis=None), return_inverse=True)
    return int(np.abs(np.bincount(inverse, np.repeat([1, -1], [a.size, b.size]))).max())


def commutator_suite(n: int) -> list[VerificationReport]:
    out = commutator_growth_check(n)
    # The commutation observation behind the bound: R^gamma commutes with
    # O^{SPO,x} whenever gamma fixes x (exact label-map identity).
    nf = database_dim(n)
    bad = 0
    joint = np.arange(n * nf)
    ys, ds = np.divmod(joint, nf)
    # The right-action maps Gamma is built from, row by row in _all_cycles order.
    classes = [(_all_cycles(n, ell), _cycle_maps(n, ell, "right"))
               for ell in (2, 3) if ell <= n]
    for x in range(n):
        qmap = query_slice_map(n, x, "forward")
        for cycles, rmaps in classes:
            for rmap in rmaps[cycles[:, x] == x]:
                r_joint = ys * nf + rmap[ds]
                if not np.array_equal(qmap[r_joint], r_joint[qmap]):
                    bad += 1
    out.append(check(f"commutes-when-fixed[n={n}]", bad, 0, tol=0.0))
    return out


def sparsity_suite(n: int, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    return [rep for circ in suite_circuits(n, seed, max_q=3)
            for rep in sparsity_trajectory_check(circ)]


# --------------------------------------------------------------------------
# theorem checks and attacks


def theorem_suite(n: int, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    out = []
    for circ in (empty_circuit(n), classical_probe(n, 0, "forward"),
                 random_circuit(seed + 5, 2, 2, n)):
        out.extend(theorem_check(circ, suite_relations(n)))
    # Optimal 0-query guess: lhs = r/N exactly for an r-regular relation.
    (rep,) = [r for r in out if r.name == "theorem[empty,diag]"]
    out.append(check_close("theorem-0query-lhs", rep.lhs, 1.0 / n, tol=1e-12))
    return out


def run_attack(kind: str, n_bits: int, c: int, iterations: int,
               backend: str = "concrete", trials: int | None = None,
               seed: int | None = None, target: int = 0) -> dict:
    """Attack experiment: empirical success, references, and the bound.

    Success is scored against the attack's relation, whose N x N bitset is
    built only after the circuit has passed the amplitude budget."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if backend == "spo":
        # The spo backend is exact: a sample size or seed would go unused.
        for option, value in (("trials", trials), ("seed", seed)):
            if value is not None:
                raise ValueError(f"the exact spo backend takes no {option}, "
                                 f"got {option}={value}")
    if trials is not None and trials < 2:
        raise ValueError(f"trials must be at least 2 for a sampled attack "
                         f"(its spread needs two runs), got {trials}")
    if trials is not None and seed is None:
        raise ValueError("sampled attacks require a seed")
    if trials is None and 2 ** n_bits > EXACT_ENUM_LIMIT:
        what, remedy = (("the spo backend simulates a database of", "it has no sampled mode")
                        if backend == "spo" else
                        ("an exact attack covers", "sample with trials and a seed instead"))
        raise SizeLimitError(f"{what} all N! permutations of N = 2^{n_bits}, "
                             f"capped at N = {EXACT_ENUM_LIMIT}; {remedy}")
    if kind == "sponge":
        circ = grover_preimage(n_bits, c, target, iterations)
        rel = sponge_preimage_relation(n_bits, c, target)
        bound_raw = bounds.sponge_bound(2 * iterations + 1, n_bits, c)
    elif kind == "zero-search":
        circ = zero_search_adversary(n_bits, c, iterations)
        rel = zero_search_relation(n_bits, c)
        bound_raw = bounds.zero_search_bound(2 * iterations + 1, n_bits, c)
    else:
        raise ValueError(f"unknown attack kind {kind!r}")
    # The closed-form reference uses the expected marked fraction; for the
    # acceptance's n = 2c sponge cases this is sin^2((2k+1) asin(2^{-c/2})).
    marked, space = (2 ** c, 2 ** n_bits) if kind == "sponge" else (1, 2 ** c)
    result = {
        "kind": kind, "n_bits": n_bits, "c": c, "iterations": iterations,
        "q": circ.query_count, "backend": backend, "seed": seed,
        "bound_raw": bound_raw, "bound_clamped": bounds.clamped(bound_raw),
        "reference_simple": grover_reference(marked, space, iterations),
        "reference_exact": averaged_grover_reference(n_bits, c, iterations,
                                                     kind=kind),
    }
    if kind == "sponge":
        result["target"] = target

    if backend == "spo":
        result["success_mean"] = spo_success_probability(circ, rel)
        result["success_stderr"] = 0.0
        result["success_std"] = 0.0
        result["method"] = "exact-spo"
        return result
    if backend != "concrete":
        raise ValueError(f"unknown backend {backend!r}")
    n = 2 ** n_bits
    if trials is None:  # one run over all N! permutations on P
        vals = success_probability(circ, all_images(n), rel)
        result["method"] = "exact-ensemble"
    else:  # one run per trial, every trial through one pair of state
        # buffers (the circuit's build charged three such states): a
        # (trials, N) table would hold every trial's state at once
        dim = circuit_layout(circ, concrete_backend(np.arange(n))).total_dim
        work = (np.empty(dim, dtype=np.complex128), np.empty(dim, dtype=np.complex128))
        rng = np.random.default_rng(seed)
        vals = np.concatenate([
            success_probability(circ, sample_uniform(n, rng), rel, work=work)
            for _ in range(trials)])
        result.update(method="monte_carlo", trials=trials)
    result["success_mean"] = float(vals.mean())
    result["success_std"] = float(vals.std(ddof=1))
    result["success_stderr"] = (0.0 if trials is None else
                                float(vals.std(ddof=1) / math.sqrt(trials)))
    return result


# --------------------------------------------------------------------------
# registry

# The sizes run_suite lets each suite run at.  gamma mirrors the amplitude
# budget, commutator commutator_growth_check's cap; both owners refuse too.
SUITE_SIZES: dict[str, range | tuple[int, ...]] = {
    "factorization": range(1, EXACT_ENUM_LIMIT + 1),
    "active-sets": range(1, EXACT_ENUM_LIMIT + 1),
    "spo-equivalence": (2, 4),
    "twirl": (2, 4),
    "fundamental": (1, 2, 4, 8),
    "help-norm": range(1, 6),
    "progress": (2, 4),
    "gamma": range(1, 8),
    "commutator": range(1, 7),
    "sparsity": (2, 4),
    "theorem": (2, 4),
}


def check_suite_size(name: str, n: int) -> None:
    """Raise SizeLimitError if the suite has a SUITE_SIZES entry without n."""
    if n not in SUITE_SIZES.get(name, (n,)):
        shown = ", ".join(map(str, SUITE_SIZES[name]))
        raise SizeLimitError(f"the {name} suite runs at n in {{{shown}}}, got n={n}")


def _all_suite(n: int, seed: int, samples: int) -> list[VerificationReport]:
    out = factorization_suite(min(n, 7), seed)
    out.extend(active_sets_suite(min(n, 6), seed))
    out.append(sampler_chi_square(min(n, 4), 200_000, seed))
    pow2 = 4 if n >= 4 else 2
    out.extend(spo_equivalence_suite(pow2, seed, max_q=2))
    out.extend(twirl_suite(pow2, seed))
    out.extend(fundamental_suite(pow2, seed))
    out.extend(help_norm_suite(min(n, 5)))
    out.extend(progress_suite(pow2, seed))
    out.extend(gamma_suite(min(n, 5)))
    out.extend(commutator_suite(min(n, 6)))
    out.extend(sparsity_suite(pow2, seed))
    out.extend(theorem_suite(pow2, seed))
    return out


SUITES: dict[str, Callable[..., list[VerificationReport]]] = {
    "factorization": lambda n, seed, samples: factorization_suite(n, seed),
    "active-sets": lambda n, seed, samples: active_sets_suite(n, seed),
    "spo-equivalence": lambda n, seed, samples: spo_equivalence_suite(n, seed),
    "twirl": lambda n, seed, samples: twirl_suite(n, seed),
    "fundamental": lambda n, seed, samples: fundamental_suite(n, seed,
                                                              min_pairs=samples),
    "help-norm": lambda n, seed, samples: help_norm_suite(n),
    "progress": lambda n, seed, samples: progress_suite(n, seed),
    "gamma": lambda n, seed, samples: gamma_suite(n),
    "commutator": lambda n, seed, samples: commutator_suite(n),
    "sparsity": lambda n, seed, samples: sparsity_suite(n, seed),
    "theorem": lambda n, seed, samples: theorem_suite(n, seed),
    "all": _all_suite,
}


def run_suite(name: str, n: int, seed: int = DEFAULT_SEED,
              samples: int = DEFAULT_SAMPLES) -> list[VerificationReport]:
    """The suite's reports; each row's runtime_ms is the time since the
    previous row was made (the first row's since the call began)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    check_suite_size(name, n)
    return timed_rows(lambda: SUITES[name](n, seed, samples))
