"""Adversary circuits: runs, attack library, standard form, text format."""
import dataclasses
import math

import numpy as np
import pytest

from spolab.circuits import (
    LocalUnitary,
    Query,
    QueryCircuit,
    averaged_grover_reference,
    circuit_layout,
    classical_probe,
    concrete_ensemble,
    dressed_standard_form,
    empty_circuit,
    grover_preimage,
    grover_reference,
    haar_unitary,
    hypergeometric_pmf,
    initial_state,
    output_distribution,
    parse_circuit,
    random_circuit,
    run,
    run_with_intermediates,
    spo_ensemble,
    spo_success_probability,
    standard_form,
    success_probability,
    zero_search_adversary,
)
from spolab.oracles import BudgetError, concrete_backend, spo_backend
from spolab.permutations import (
    all_images,
    all_permutations,
    identity,
    parse_one_line,
    sample_uniform,
)
from spolab.relations import (
    Relation,
    from_pairs,
    full_relation,
    sponge_preimage_relation,
    zero_search_relation,
)
from spolab.states import CQEnsemble, LayoutError, from_matrix, trace_distance

from helpers import (count_runs, dense_grover, format_circuit, grover_matrices,
                     with_loading_query)

RNG = np.random.default_rng(31)


def test_empty_circuit_runs_to_zero_state():
    final = run(empty_circuit(4), concrete_backend(identity(4)))
    assert final.amps[0] == 1.0
    assert np.vdot(final.amps, final.amps).real == pytest.approx(1.0)
    spo_final = run(empty_circuit(4), spo_backend(4))
    assert np.allclose(spo_final.amps.reshape(-1, 24)[0], 1 / math.sqrt(24))


def test_classical_probe_concrete():
    p = parse_one_line("2 3 1 4")
    final = run(classical_probe(4, 0, "forward"), concrete_backend(p))
    dist = output_distribution(final, "xy")
    assert dist[0, 1] == pytest.approx(1.0)  # pi(0) = 1
    final_inv = run(classical_probe(4, 0, "inverse"), concrete_backend(p))
    assert output_distribution(final_inv, "xy")[0, 2] == pytest.approx(1.0)
    assert classical_probe(4, 0).query_count == 1


def test_output_distribution_sums_to_one():
    circ = random_circuit(7, 2, 3, 4)
    final = run(circ, concrete_backend(sample_uniform(4, RNG)))
    dist = output_distribution(final, "xy")
    assert dist.shape == (4, 4)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)
    assert output_distribution(final, "x").sum() == pytest.approx(1.0, abs=1e-10)


def test_random_circuit_deterministic_and_unitary():
    a = random_circuit(99, 3, 2, 4)
    b = random_circuit(99, 3, 2, 4)
    assert a.query_count == 3
    for sa, sb in zip(a.steps, b.steps):
        if isinstance(sa, LocalUnitary):
            assert np.array_equal(sa.op.dense(), sb.op.dense())
        else:
            assert sa == sb
    zero_q = random_circuit(1, 0, 2, 4)
    assert zero_q.query_count == 0


def test_circuit_rejects_nonunitary_step():
    bad = from_matrix(np.diag([1.0, 0.5, 1.0, 1.0]))
    with pytest.raises(ValueError):
        QueryCircuit(4, (LocalUnitary(("X",), bad),))


def test_permutation_steps_are_not_probed(monkeypatch):
    """A validated basis mapping is unitary by construction; only operators
    without one go through the random unitarity probe."""
    import spolab.circuits as circuits_mod
    from spolab.oracles import shift_operator, swap_operator

    def fail(op, *args, **kwargs):
        raise AssertionError(f"probed {op.label}")

    monkeypatch.setattr(circuits_mod, "probe_unitary", fail)
    steps = (LocalUnitary(("X",), shift_operator(4, 1), tag="load1"),
             Query("forward"),
             LocalUnitary(("X", "Y"), swap_operator(4), tag="swap"))
    circ = QueryCircuit(4, steps, output="xy")
    assert circ.query_count == 1
    with pytest.raises(AssertionError, match="probed"):
        QueryCircuit(4, (LocalUnitary(("X",), from_matrix(np.eye(4))),))


def test_dense_steps_are_probed_once_when_built(monkeypatch):
    """Standard forms reuse the original steps: nothing is probed again."""
    import spolab.circuits as circuits_mod

    bad = from_matrix(np.diag([1.0, 0.5, 1.0, 1.0]))
    with pytest.raises(ValueError, match="unitarity probe"):
        LocalUnitary(("X",), bad)
    circ = random_circuit(3, 2, 2, 4)

    def fail(op, *args, **kwargs):
        raise AssertionError(f"re-probed {op.label}")

    monkeypatch.setattr(circuits_mod, "probe_unitary", fail)
    assert standard_form(circ).query_count == 4
    sigma, tau = parse_one_line("2 1 4 3"), parse_one_line("3 4 1 2")
    assert dressed_standard_form(circ, sigma, tau).query_count == 4


def test_concrete_ensemble_never_touches_the_database_kernel(monkeypatch):
    """Criterion 05 compares two independent paths: the concrete side is the
    explicit U^pi operator applied with ``apply``, never the SPO kernel."""
    import spolab.oracles as oracles_mod
    from spolab.suites import suite_circuits

    n = 4
    circ = next(c for c in suite_circuits(n, 7) if c.query_count >= 2)
    spo = spo_ensemble(circ, spo_backend(n))

    def fail(*args, **kwargs):
        raise AssertionError("database kernel used by the concrete oracle")

    monkeypatch.setattr(oracles_mod, "spo_query", fail)
    monkeypatch.setattr(oracles_mod, "shift_table", fail)
    concrete = concrete_ensemble(circ)
    assert concrete.labels.shape == (24, n)
    assert trace_distance(concrete, spo) <= 1e-9


def test_concrete_ensemble_runs_its_circuit_once(monkeypatch):
    calls = count_runs(monkeypatch)
    ens = concrete_ensemble(random_circuit(5, 2, 2, 4))
    assert len(calls) == 1 and ens.labels.shape == (24, 4)
    assert calls[0].images.shape == (24, 4)


def test_concrete_vs_spo_ensembles_at_n8():
    """40,320 labels from ``all_permutations`` against the database readout,
    whose labels come from ``perm_tables``: matched by image, not by row."""
    circ = grover_preimage(3, 1, 1, 1)
    concrete = concrete_ensemble(circ)
    spo = spo_ensemble(circ, spo_backend(8))
    assert concrete.labels.shape == spo.labels.shape == (40320, 8)
    assert not np.shares_memory(concrete.labels, spo.labels)
    assert trace_distance(concrete, spo) <= 1e-9
    order = np.random.default_rng(0).permutation(40320)
    shuffled = CQEnsemble(concrete.labels[order], concrete.layout,
                          concrete.amps[order])
    assert trace_distance(shuffled, spo) <= 1e-9


def test_haar_unitary_is_unitary():
    u = haar_unitary(9, RNG)
    assert np.allclose(u.conj().T @ u, np.eye(9), atol=1e-12)


def test_budget_guard():
    circ = empty_circuit(8, work_dim=2 ** 23)
    with pytest.raises(BudgetError):
        initial_state(circ, spo_backend(8))


def test_grover_budget_is_enforced_before_allocation(monkeypatch):
    """The X (x) Y state and both dense 2^n x 2^n matrices are charged to
    the budget before any of them exists."""
    import spolab.circuits as circuits_mod
    import spolab.oracles as oracles_mod

    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", 3 * 16 * 16)
    assert grover_preimage(4, 2, 1, 1).query_count == 2

    def fail(*args, **kwargs):
        raise AssertionError("allocated a dense Grover matrix")

    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", 3 * 16 * 16 - 1)
    monkeypatch.setattr(circuits_mod.np, "kron", fail)
    monkeypatch.setattr(circuits_mod, "_diffusion", fail)
    with pytest.raises(BudgetError, match="n_bits=4 .*: 768 entries"):
        grover_preimage(4, 2, 1, 1)
    with pytest.raises(BudgetError, match="768"):
        zero_search_adversary(4, 2, 1)


GROVER_SIZES = [(2, 1), (3, 1), (4, 2), (5, 2), (8, 4)]


@pytest.mark.parametrize("n_bits,c", GROVER_SIZES)
def test_structured_grover_steps_match_their_matrices(n_bits, c):
    """prep and diffuse apply through their structure; each keeps a dense
    matrix equal to the entry-by-entry reference, and both directions
    agree with it on random complex blocks, the forward one also when it
    writes into an ``out`` block.  prep refuses an ``out`` that is not
    C-contiguous, whose float64 view would be a copy."""
    rng = np.random.default_rng(n_bits * 10 + c)
    dim = 2 ** n_bits
    reference = grover_matrices(n_bits, c)
    ops = {s.tag: s.op for s in grover_preimage(n_bits, c, 0, 1).steps
           if isinstance(s, LocalUnitary)}
    for tag in ("prep", "diffuse"):
        op = ops[tag]
        assert np.abs(op.matrix - reference[tag]).max() < 1e-15
        block = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        for apply_fn, mat in ((op.apply_block, op.matrix),
                              (op.adjoint_block, op.matrix.conj().T)):
            ref = mat @ block
            gap = np.linalg.norm(apply_fn(block) - ref)
            assert gap <= 1e-12 * max(1.0, np.linalg.norm(ref)), (tag, gap)
        out = np.empty_like(block)
        assert op.apply_block(block, out=out) is out
        assert np.array_equal(out, op.apply_block(block))
    with pytest.raises(ValueError, match="C-contiguous"):
        ops["prep"].apply_block(block, out=np.empty((dim, 6), dtype=complex)[:, ::2])


def test_grover_reference_prep_is_a_hadamard_power():
    """The entry-by-entry prep of grover_matrices is H^{(x)(n-c)} (x) I_{2^c}
    as a Kronecker product, for n_bits 2 to 8 and every capacity c."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    for n_bits in range(2, 9):
        for c in range(1, n_bits):
            want = np.eye(2 ** c)
            for _ in range(n_bits - c):
                want = np.kron(hadamard, want)
            got = grover_matrices(n_bits, c)["prep"]
            assert np.abs(got - want).max() < 1e-15, (n_bits, c)


@pytest.mark.parametrize("tag", ["prep", "diffuse"])
def test_structured_grover_guard_raises_on_a_wrong_apply(monkeypatch, tag):
    import spolab.circuits as circuits_mod

    original = circuits_mod._structured

    def corrupted(matrix, apply_block, label):
        if label == tag:
            return original(matrix, lambda b: apply_block(b) * (1 + 1e-9), label)
        return original(matrix, apply_block, label)

    monkeypatch.setattr(circuits_mod, "_structured", corrupted)
    with pytest.raises(RuntimeError, match=f"structured {tag} differs"):
        grover_preimage(4, 2, 1, 1)


@pytest.mark.parametrize("kind,args", [("sponge", (8, 4, 4, 20, 1)),
                                       ("zero-search", (6, 2, 2, 20, 3))])
def test_attacks_match_the_dense_grover_reference(monkeypatch, kind, args):
    """A sampled attack through the structured steps gives the same success
    statistics as the same attack with dense prep and diffusion matrices."""
    import spolab.suites as suites_mod

    n_bits, c, k, trials, seed = args
    structured = suites_mod.run_attack(kind, n_bits, c, k, trials=trials, seed=seed)
    built = []

    def densified(build):
        def wrapper(*a):
            built.append(dense_grover(build(*a), a[1]))
            return built[-1]
        return wrapper

    for name in ("grover_preimage", "zero_search_adversary"):
        monkeypatch.setattr(suites_mod, name, densified(getattr(suites_mod, name)))
    dense = suites_mod.run_attack(kind, n_bits, c, k, trials=trials, seed=seed)
    assert len(built) == 1
    assert dense["method"] == structured["method"] == "monte_carlo"
    for key in ("success_mean", "success_std"):
        assert structured[key] == pytest.approx(dense[key], rel=1e-12, abs=0)


def _work(circ, backend):
    dim = initial_state(circ, backend).amps.size
    return np.empty(dim, dtype=np.complex128), np.empty(dim, dtype=np.complex128)


@pytest.mark.parametrize("database", [False, True])
def test_run_through_work_buffers_matches_a_fresh_run(database):
    """With work buffers every step writes into one of the pair and the
    final state lives there, equal bit for bit to a run that allocates its
    own pair; one buffer passed twice, or a buffer of the wrong size, is
    refused."""
    circ = with_loading_query(random_circuit(4, 3, 2, 4))
    backend = spo_backend(4) if database else concrete_backend(sample_uniform(4, RNG))
    want = run(circ, backend).amps
    work = _work(circ, backend)
    got = run(circ, backend, work=work)
    assert any(got.amps is buf for buf in work)
    assert np.array_equal(got.amps, want)
    with pytest.raises(ValueError, match="share memory"):
        run(circ, backend, work=(work[0], work[0]))
    with pytest.raises(LayoutError, match="output buffer"):
        run(circ, backend, work=(work[0], work[1][1:]))


@pytest.mark.parametrize("database", [False, True])
def test_run_with_intermediates_keeps_its_pre_query_states(database):
    """The states recorded before each query own their arrays: a later run
    through work buffers leaves them as they were, and each equals the
    final state of a fresh run of the steps before its query."""
    circ = with_loading_query(random_circuit(5, 3, 2, 4))
    backend = spo_backend(4) if database else concrete_backend(sample_uniform(4, RNG))
    final, pre = run_with_intermediates(circ, backend)
    kept = [state.amps.copy() for _direction, state in pre]
    work = _work(circ, backend)
    assert np.array_equal(run(circ, backend, work=work).amps, final.amps)
    assert len(pre) == 4
    assert all(np.array_equal(state.amps, k) for (_d, state), k in zip(pre, kept))
    queries = [j for j, step in enumerate(circ.steps) if isinstance(step, Query)]
    for (direction, state), j in zip(pre, queries):
        assert direction == circ.steps[j].direction
        head = dataclasses.replace(circ, steps=circ.steps[:j])
        assert np.array_equal(state.amps, run(head, backend).amps)


def test_backend_size_mismatch():
    with pytest.raises(ValueError):
        run(empty_circuit(4), concrete_backend(identity(8)))


def test_concrete_vs_spo_output_distributions():
    n = 4
    circ = random_circuit(17, 2, 2, n)
    avg = np.zeros((n, n))
    for p in all_permutations(n):
        avg += output_distribution(run(circ, concrete_backend(p)), "xy")
    avg /= 24
    spo_dist = output_distribution(run(circ, spo_backend(n)), "xy")
    assert np.abs(avg - spo_dist).max() < 1e-9


def test_concrete_vs_spo_ensembles():
    n = 4
    for seed in (1, 2):
        circ = random_circuit(seed, 2, 2, n)
        d = trace_distance(concrete_ensemble(circ),
                           spo_ensemble(circ, spo_backend(n)))
        assert d < 1e-9


def test_standard_form_structure():
    circ = random_circuit(3, 2, 2, 4)
    b = standard_form(circ)
    assert b.query_count == 2 * circ.query_count
    assert b.has_z
    zero_q = standard_form(empty_circuit(4))
    assert zero_q.query_count == 0 and zero_q.has_z
    with pytest.raises(ValueError):
        standard_form(b)


def test_standard_form_reproduces_tspo_run():
    n = 4
    circ = classical_probe(n, 1, "inverse")
    b = standard_form(circ)
    rng = np.random.default_rng(4)
    for _ in range(6):
        sigma, tau = sample_uniform(n, rng), sample_uniform(n, rng)
        ref = run(circ, spo_backend(n, sigma=sigma, tau=tau))
        got = run(b, spo_backend(n, sigma=sigma, tau=tau))
        got3 = run(dressed_standard_form(circ, sigma, tau), spo_backend(n))
        # compare on the common registers: Z ends in |0>
        got_z0 = got.reshaped().take(0, axis=got.layout.axis("Z"))
        got3_z0 = got3.reshaped().take(0, axis=got3.layout.axis("Z"))
        assert np.abs(got_z0 - ref.reshaped()).max() < 1e-12
        assert np.abs(got3_z0 - ref.reshaped()).max() < 1e-12
        # no weight escapes the Z=|0> slice
        assert np.vdot(got.amps, got.amps).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dressed", [False, True], ids=["standard", "dressed"])
def test_standard_form_steps_take_no_transposing_path(monkeypatch, dressed):
    """On the P, Z, A, X, Y, D layout of a standard-form run, every dense
    step (the A, X, Y unitaries) is one (pre, d, post) view and no step
    moves axes; the scattered basis maps (SWAP and CNOT on Y, Z, and V on
    P, X and P, Y) gather through their cached flat index."""
    n = 4
    circ = random_circuit(8, 2, 2, n)
    rng = np.random.default_rng(6)
    sigmas, taus = (np.stack([sample_uniform(n, rng).images for _ in range(3)])
                    for _ in "st")
    if dressed:
        b = dressed_standard_form(circ, sigmas, taus)
        backend = spo_backend(n, sigma=np.tile(np.arange(n), (3, 1)))
    else:
        b = standard_form(circ)
        backend = spo_backend(n, sigma=sigmas, tau=taus)

    def moved(*args, **kwargs):
        raise AssertionError("a standard-form step moved axes")

    monkeypatch.setattr(np, "moveaxis", moved)
    run(b, backend)
    lay = circuit_layout(b, backend)
    steps = [s for s in b.steps if isinstance(s, LocalUnitary)]
    assert {s.tag for s in steps if s.op.mapping is None} == {"U0", "U1", "U2"}
    for s in steps:
        if s.op.mapping is not None:
            assert (lay, s.targets) in s.op.gathers, s.tag


def test_with_loading_query():
    circ = classical_probe(4, 2, "forward")
    loaded = with_loading_query(circ)
    assert loaded.query_count == circ.query_count + 1
    assert loaded.has_z
    p = parse_one_line("2 3 4 1")
    final = run(loaded, concrete_backend(p))
    # Y is parked in Z and reloaded: the readout is exactly (x, pi(x))
    assert output_distribution(final, "xy")[2, 3] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        with_loading_query(loaded)


def test_grover_preimage_structure():
    circ = grover_preimage(4, 2, 1, 3)
    assert circ.query_count == 6
    assert grover_preimage(4, 2, 1, 0).query_count == 0
    with pytest.raises(ValueError):
        grover_preimage(4, 4, 0, 1)
    with pytest.raises(ValueError):
        grover_preimage(4, 2, 9, 1)


def test_grover_matches_reference_fixed_pi():
    n_bits, c, target = 4, 2, 1
    space = 2 ** (n_bits - c)
    rng = np.random.default_rng(8)
    rel = sponge_preimage_relation(n_bits, c, target)
    for _ in range(4):
        perm = sample_uniform(2 ** n_bits, rng)
        marked = sum(1 for x in range(space) if (x << c, perm(x << c)) in rel)
        for k in (0, 1, 2):
            circ = grover_preimage(n_bits, c, target, k)
            (got,) = success_probability(circ, perm, rel)
            assert got == pytest.approx(grover_reference(marked, space, k),
                                        abs=1e-9)


def test_zero_search_matches_reference_fixed_pi():
    n_bits, c = 4, 2
    space = 2 ** (n_bits - c)
    rel = zero_search_relation(n_bits, c)
    perm = sample_uniform(16, np.random.default_rng(9))
    marked = sum(1 for x in range(space) if (x << c, perm(x << c)) in rel)
    for k in (0, 1):
        (got,) = success_probability(zero_search_adversary(n_bits, c, k), perm, rel)
        assert got == pytest.approx(grover_reference(marked, space, k), abs=1e-9)


def test_zero_iteration_uniform_guess():
    # success of the 0-iteration attack equals the marked fraction per pi
    n_bits, c = 4, 2
    rel = zero_search_relation(n_bits, c)
    total = 0.0
    rng = np.random.default_rng(10)
    trials = 60
    for _ in range(trials):
        perm = sample_uniform(16, rng)
        total += success_probability(zero_search_adversary(n_bits, c, 0),
                                     perm, rel)[0]
    # expectation over pi is exactly 2^-c
    assert abs(total / trials - 0.25) < 0.06


def test_hypergeometric_pmf():
    pmf = hypergeometric_pmf(16, 4, 4)
    assert float(sum(pmf)) == pytest.approx(1.0)
    # mean of the hypergeometric is draws * successes / population
    mean = float(sum(m * p for m, p in enumerate(pmf)))
    assert mean == pytest.approx(1.0)


def test_averaged_reference_matches_exhaustive_small():
    # against the exact ensemble at n_bits = 2 (N = 4, enumerable)
    n_bits, c, k = 2, 1, 1
    rel = sponge_preimage_relation(n_bits, c, 1)
    circ = grover_preimage(n_bits, c, 1, k)
    vals = success_probability(circ, all_images(4), rel)
    assert vals.shape == (24,)
    assert np.mean(vals) == pytest.approx(
        averaged_grover_reference(n_bits, c, k, "sponge"), abs=1e-10)


def test_spo_success_matches_concrete_small():
    n_bits, c, k = 2, 1, 1
    cases = [(grover_preimage(n_bits, c, 1, k),
              sponge_preimage_relation(n_bits, c, 1)),
             (random_circuit(21, 2, 2, 4),
              Relation(4, np.random.default_rng(4).random((4, 4)) < 0.4))]
    for circ, rel in cases:
        concrete = np.mean([success_probability(circ, p, rel)[0]
                            for p in all_permutations(4)])
        assert success_probability(circ, all_images(4), rel).mean() == \
            pytest.approx(concrete, abs=1e-12)
        assert spo_success_probability(circ, rel) == pytest.approx(concrete,
                                                                   abs=1e-10)


def test_success_probability_reads_the_relation_at_pi_x():
    n = 4
    circ = random_circuit(5, 2, 2, n)
    perm = parse_one_line("3 1 4 2")
    dist = output_distribution(run(circ, concrete_backend(perm)), "x")
    hit = from_pairs(n, [(0, perm(0)), (2, perm(2)), (1, perm(0))])
    miss = from_pairs(n, [(x, y) for x in range(n) for y in range(n)
                          if y != perm(x)])
    assert success_probability(circ, perm, hit) == pytest.approx(
        [dist[0] + dist[2]], abs=1e-12)
    assert success_probability(circ, perm, miss).tolist() == [0.0]
    assert success_probability(circ, perm, full_relation(n)) == pytest.approx(
        [1.0], abs=1e-12)
    with pytest.raises(ValueError, match="relation size"):
        success_probability(circ, perm, full_relation(2 * n))
    # one row per permutation of a table, each read at its own pi(x)
    other = parse_one_line("2 3 1 4")  # other(1) = 2: only (1, 2) is hit
    table = np.array([perm.images, other.images])
    dist_other = output_distribution(run(circ, concrete_backend(other)), "x")
    assert success_probability(circ, table, hit) == pytest.approx(
        [dist[0] + dist[2], dist_other[1]], abs=1e-12)


def test_circuit_text_roundtrip():
    text = """
# demo circuit
n 4
work 2
output xy
name demo
load 3
query fwd
unitary A,X seed=5
query inv
"""
    circ = parse_circuit(text)
    assert circ.n == 4 and circ.work_dim == 2 and circ.output == "xy"
    assert circ.query_count == 2
    again = parse_circuit(format_circuit(circ))
    assert again.query_count == 2
    final_a = run(circ, concrete_backend(parse_one_line("2 3 4 1")))
    final_b = run(again, concrete_backend(parse_one_line("2 3 4 1")))
    assert np.allclose(final_a.amps, final_b.amps)


def test_circuit_text_errors():
    with pytest.raises(ValueError):
        parse_circuit("query fwd\n")  # n missing
    with pytest.raises(ValueError):
        parse_circuit("n 4\nquery sideways\n")
    with pytest.raises(ValueError):
        parse_circuit("n 4\nunitary A\n")  # seed missing
    with pytest.raises(ValueError):
        parse_circuit("n 4\nbogus 3\n")


def test_circuit_text_rejects_a_unitary_that_names_a_register_twice():
    """``unitary X,X`` is refused when the circuit is built, naming the
    step, not when a run reaches it."""
    with pytest.raises(ValueError, match=r"step 1 \(u-seed1\) names a register "
                                         r"twice: \('X', 'X'\)"):
        parse_circuit("n 4\nquery fwd\nunitary X,X seed=1\n")


def test_pair_table_rows_equal_the_relabelled_untwirled_run():
    """Row k of a run against a sigma-row table (sigma, tau_k) is exactly
    the untwirled run relabelled by L^{tau_k} R^sigma, for every suite
    circuit and every sigma at N = 4; a one-row run keeps today's flat
    amplitudes, with P of dimension 1 leading."""
    from spolab.oracles import twirl
    from spolab.suites import suite_circuits

    n = 4
    perms = list(all_permutations(n))
    taus = all_images(n)
    for circ in suite_circuits(n):
        plain = run(circ, spo_backend(n))
        assert plain.layout.registers[0] == ("P", 1)
        for sigma in perms:
            sigmas = np.tile(sigma.images, (len(perms), 1))
            rows = run(circ, spo_backend(n, sigma=sigmas, tau=taus)).amps
            for row, tau in zip(rows.reshape(len(perms), -1), perms):
                relabelled = twirl(twirl(plain, "right", sigma), "left", tau)
                assert np.array_equal(row, relabelled.amps)


def test_dressed_form_over_a_table_matches_its_one_row_circuits():
    """A dressed circuit built from (K, N) tables runs row k against the
    identity table exactly as the one-row circuit of (sigma_k, tau_k)."""
    n = 4
    circ = random_circuit(5, 2, 2, n)
    sigmas, taus = all_images(n)[3:7], all_images(n)[10:14]
    identity_rows = spo_backend(n, sigma=np.tile(np.arange(n), (4, 1)))
    rows = run(dressed_standard_form(circ, sigmas, taus), identity_rows).amps
    for row, sigma, tau in zip(rows.reshape(4, -1), sigmas, taus):
        alone = run(dressed_standard_form(circ, sigma, tau), spo_backend(n))
        assert np.array_equal(row, alone.amps)
    with pytest.raises(ValueError, match="tables differ"):
        dressed_standard_form(circ, sigmas, taus[:3])
    with pytest.raises(ValueError):  # four-row V steps against a one-row P
        run(dressed_standard_form(circ, sigmas, taus), spo_backend(n))
