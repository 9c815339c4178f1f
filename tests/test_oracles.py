"""Oracle machinery: XOR/in-place unitaries, SPO/TSPO queries, twirls, recovery."""
import math
import tracemalloc

import numpy as np
import pytest

from spolab.oracles import (
    OracleBackend,
    cnot_operator,
    concrete_backend,
    database_dim,
    left_right_map,
    perm_tables,
    project_plus_db,
    query_slice_map,
    shift_table,
    spo_backend,
    spo_init,
    spo_query,
    spo_recover,
    swap_operator,
    twirl,
    u_oracle,
    v_oracle,
)
from spolab.permutations import (
    compose,
    identity,
    invert,
    parse_one_line,
    sample_uniform,
    sample_uniform_batch,
)
from spolab.states import (
    LayoutError,
    RegisterLayout,
    StateVector,
    apply,
    database_layout,
    from_permutation,
)

from helpers import basis_state, index_of_perm, per_x_spo_query, perm_of_index

RNG = np.random.default_rng(11)


def test_perm_index_roundtrip():
    for n in (1, 2, 3, 4, 5):
        seen = set()
        for d in range(database_dim(n)):
            p = perm_of_index(n, d)
            assert index_of_perm(p) == d
            seen.add(p.images)
        assert len(seen) == database_dim(n)


def test_perm_tables_consistent():
    pi, inv = perm_tables(4)
    for d in range(24):
        p = perm_of_index(4, d)
        assert tuple(pi[d]) == p.images
        assert tuple(inv[d]) == invert(p).images


def test_u_oracle_action():
    p = parse_one_line("2 3 4 1")
    op = u_oracle(p)
    lay = RegisterLayout((("P", 1), ("X", 4), ("Y", 4)))
    s = basis_state(lay, {"X": 1, "Y": 0})
    out = apply(op, s, ("P", "X", "Y"))
    # pi(1) = 2 in 0-based labels, so |1,0> -> |1,2>
    assert out.amps[1 * 4 + 2] == 1.0
    # identity permutation copies x into y
    out2 = apply(u_oracle(identity(4)), basis_state(lay, {"X": 3}),
                 ("P", "X", "Y"))
    assert out2.amps[3 * 4 + 3] == 1.0


def test_u_oracle_over_a_table_acts_row_by_row():
    """One map on (P, X, Y): label k applies U^{pi_k}, forward or inverse."""
    rows = [sample_uniform(4, RNG) for _ in range(5)]
    table = np.array([p.images for p in rows])
    for inverse in (False, True):
        whole = u_oracle(table, inverse=inverse).dense()
        blocks = [u_oracle(p, inverse=inverse).dense() for p in rows]
        want = np.zeros_like(whole)
        for k, block in enumerate(blocks):
            want[16 * k:16 * (k + 1), 16 * k:16 * (k + 1)] = block
        assert np.array_equal(whole, want)
    assert u_oracle(table).mapping is not None  # a basis map, never matrix-free


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("inverse", [False, True])
def test_u_oracle_matches_a_per_entry_reference_and_is_an_involution(n, k, inverse):
    """U^pi's map sends |k, x, y> to |k, x, y xor pi_k^{+-1}(x)>, written
    entry by entry through from_permutation, and applied twice it is the
    identity."""
    table = np.array([sample_uniform(n, RNG).images for _ in range(k)])
    mapping = np.empty(k * n * n, dtype=np.int64)
    for row in range(k):
        image = list(table[row])
        for x in range(n):
            v = image.index(x) if inverse else image[x]
            for y in range(n):
                mapping[(row * n + x) * n + y] = (row * n + x) * n + (y ^ v)
    want = from_permutation((k, n, n), mapping)
    op = u_oracle(table, inverse=inverse)
    assert op.dims == want.dims and np.array_equal(op.mapping, mapping)
    lay = RegisterLayout((("P", k), ("X", n), ("Y", n)))
    d = k * n * n
    s = StateVector(lay, RNG.standard_normal(d) + 1j * RNG.standard_normal(d))
    once = apply(op, s, ("P", "X", "Y"))
    assert np.array_equal(once.amps, apply(want, s, ("P", "X", "Y")).amps)
    assert np.array_equal(apply(op, once, ("P", "X", "Y")).amps, s.amps)


def test_u_oracle_self_inverse():
    p = sample_uniform(8, RNG)
    mat = u_oracle(p).dense()
    assert np.allclose(mat @ mat, np.eye(64))


def test_u_oracle_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        u_oracle(identity(3))


def test_v_oracle_any_n():
    p = parse_one_line("2 3 1")
    forth = v_oracle(p).dense()
    back = v_oracle(p, inverse=True).dense()
    assert np.allclose(forth @ back, np.eye(3))
    assert np.allclose(v_oracle(identity(5)).dense(), np.eye(5))


def test_uv_simulation_identities():
    # U^pi = V^{pi^-1} CNOT V^pi and V^pi|0>_Y = U^{pi^-1} SWAP U^pi |0>_Y
    n = 4
    p = sample_uniform(n, RNG)
    eye = np.eye(n)
    u_f, u_b = u_oracle(p).dense(), u_oracle(p, inverse=True).dense()
    v_f, v_b = v_oracle(p).dense(), v_oracle(p, inverse=True).dense()
    cnot = cnot_operator(n).dense()
    swap = swap_operator(n).dense()
    assert np.allclose(np.kron(v_b, eye) @ cnot @ np.kron(v_f, eye), u_f)
    assert np.allclose(np.kron(v_f, eye) @ cnot @ np.kron(v_b, eye), u_b)
    y0 = np.zeros(n)
    y0[0] = 1.0
    for x in range(n):
        ex = np.zeros(n)
        ex[x] = 1.0
        got = u_b @ (swap @ (u_f @ np.kron(ex, y0)))
        assert np.allclose(got, np.kron(v_f @ ex, y0), atol=1e-12)


def test_spo_init():
    assert spo_init(1).amps.tolist() == [1.0]
    s3 = spo_init(3)
    assert np.allclose(s3.amps, 1 / math.sqrt(6))
    s4 = spo_init(4)
    assert np.allclose(s4.amps, 1 / math.sqrt(24))


def _fresh_joint(n, x=0, y=0):
    lay = RegisterLayout(
        (("X", n), ("Y", n)) + tuple((f"D{k}", k) for k in range(n, 0, -1)))
    nf = database_dim(n)
    amps = np.zeros(n * n * nf, dtype=np.complex128)
    amps.reshape(n, n, nf)[x, y, :] = 1 / math.sqrt(nf)
    return StateVector(lay, amps)


def test_spo_query_basis_action():
    n = 4
    pi_table, inv_table = perm_tables(n)
    s = _fresh_joint(n, x=2, y=1)
    out = spo_query(s, shift_table(n, "forward")).amps.reshape(n, n, 24)
    for d in range(24):
        y_expected = 1 ^ pi_table[d, 2]
        assert out[2, y_expected, d] == pytest.approx(1 / math.sqrt(24))
    out_inv = spo_query(s, shift_table(n, "inverse")).amps.reshape(n, n, 24)
    for d in range(24):
        assert out_inv[2, 1 ^ inv_table[d, 2], d] == pytest.approx(1 / math.sqrt(24))


def test_spo_query_xor_cancellation():
    s = _fresh_joint(4, x=1, y=3)
    shift = shift_table(4, "forward")
    twice = spo_query(spo_query(s, shift), shift)
    assert np.allclose(twice.amps, s.amps, atol=1e-12)


def test_spo_query_fresh_marginal_uniform():
    # X=|x>, Y=|0>, fresh D: measuring (Y, D) gives uniform pi and y = pi(x)
    n = 4
    out = spo_query(_fresh_joint(n, x=3), shift_table(n, "forward")).amps.reshape(n, n, 24)
    probs = np.abs(out[3]) ** 2
    assert np.allclose(probs.sum(axis=1), 1 / 4)  # Y marginal uniform
    pi_table, _ = perm_tables(n)
    for d in range(24):
        assert probs[pi_table[d, 3], d] == pytest.approx(1 / 24)


def test_tspo_query_action():
    n = 4
    sigma, tau = sample_uniform(n, RNG), sample_uniform(n, RNG)
    pi_table, _ = perm_tables(n)
    tau_inv = invert(tau).images
    s = _fresh_joint(n, x=1, y=0)
    out = spo_query(s, shift_table(n, "forward", sigma, tau)).amps.reshape(n, n, 24)
    for d in range(24):
        want_y = tau_inv[pi_table[d, sigma.images[1]]]
        assert out[1, want_y, d] == pytest.approx(1 / math.sqrt(24))


def test_tspo_identity_twirls_match_spo():
    s = _fresh_joint(4, x=2)
    a = spo_query(s, shift_table(4, "forward"))
    b = spo_query(s, shift_table(4, "forward", identity(4), identity(4)))
    assert np.allclose(a.amps, b.amps)


def test_twirl_left_right_actions():
    n = 4
    sigma = sample_uniform(n, RNG)
    tau = sample_uniform(n, RNG)
    init = spo_init(n)
    # |Phi_SPO> is exactly invariant
    for side, p in (("left", tau), ("right", sigma)):
        assert np.array_equal(twirl(init, side, p).amps, init.amps)
    # basis action: |pi> -> |tau pi> and |pi> -> |pi sigma^{-1}>
    nf = database_dim(n)
    for d in (0, 5, 17):
        e = StateVector(init.layout, np.zeros(nf, dtype=np.complex128))
        e.amps[d] = 1.0
        left = twirl(e, "left", tau)
        assert left.amps[index_of_perm(compose(tau, perm_of_index(n, d)))] == 1.0
        right = twirl(e, "right", sigma)
        assert right.amps[
            index_of_perm(compose(perm_of_index(n, d), invert(sigma)))] == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_left_right_map_matches_scalar_composition(n):
    """Every label at n <= 4, 50 sampled labels above."""
    rng = np.random.default_rng(n)
    tau, sigma = sample_uniform(n, rng), sample_uniform(n, rng)
    labels = (range(math.factorial(n)) if n <= 4
              else rng.integers(0, math.factorial(n), size=50))
    for kw in ({"tau": tau}, {"sigma": sigma}, {"tau": tau, "sigma": sigma}):
        got = left_right_map(n, **kw)
        for d in labels:
            p = compose(kw.get("tau", identity(n)),
                        compose(perm_of_index(n, int(d)),
                                invert(kw.get("sigma", identity(n)))))
            assert got[d] == index_of_perm(p), (kw, d)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_left_right_map_ranks_a_table_in_one_call(n):
    """A (K, N) table of taus, of sigmas or of both gives the K joint maps
    as a (K, N!) array, row k equal to the one-permutation map of row k; a
    permutation, a 1-D image row or a one-row table on the other side
    pairs with every row.  Only 1-D arguments give a 1-D map, and tables
    of unequal row counts are refused."""
    rng = np.random.default_rng(n)
    taus, sigmas = sample_uniform_batch(n, 5, rng), sample_uniform_batch(n, 5, rng)
    one = sample_uniform(n, rng)
    cases = [({"tau": taus}, lambda k: {"tau": taus[k]}),
             ({"sigma": sigmas}, lambda k: {"sigma": sigmas[k]}),
             ({"tau": taus, "sigma": sigmas},
              lambda k: {"tau": taus[k], "sigma": sigmas[k]}),
             ({"tau": taus, "sigma": one}, lambda k: {"tau": taus[k], "sigma": one}),
             ({"tau": one.images, "sigma": sigmas[:1]},
              lambda k: {"tau": one, "sigma": sigmas[0]})]
    for table_kw, row_kw in cases:
        got = left_right_map(n, **table_kw)
        rows = len(next(v for v in table_kw.values() if np.ndim(v) == 2))
        assert got.shape == (rows, math.factorial(n)), table_kw
        for k in range(rows):
            assert np.array_equal(got[k], left_right_map(n, **row_kw(k))), (table_kw, k)
    assert left_right_map(n, tau=taus[0], sigma=one).shape == (math.factorial(n),)
    with pytest.raises(IndexError):
        left_right_map(n, tau=taus, sigma=sigmas[:3])


def test_twirls_commute():
    n = 4
    sigma, tau = sample_uniform(n, RNG), sample_uniform(n, RNG)
    lm = left_right_map(n, tau=tau)
    rm = left_right_map(n, sigma=sigma)
    assert np.array_equal(lm[rm], rm[lm])
    assert np.array_equal(lm[rm], left_right_map(n, tau=tau, sigma=sigma))


def test_spo_recover_fresh():
    n = 3
    ens = spo_recover(_fresh_state_xy(n))
    dist = (np.abs(ens.amps) ** 2).sum(axis=1)
    assert dist.sum() == pytest.approx(1.0)
    assert ens.labels.shape == (6, 3)
    assert len({tuple(row) for row in ens.labels}) == 6
    assert dist == pytest.approx(np.full(6, 1 / 6))
    # residual states all equal (the X, Y registers are untouched)
    assert ens.layout.names == ("X", "Y")
    assert np.allclose(ens.amps, ens.amps[0])


def _fresh_state_xy(n):
    lay = RegisterLayout(
        (("X", n), ("Y", n)) + tuple((f"D{k}", k) for k in range(n, 0, -1)))
    nf = database_dim(n)
    amps = np.zeros(n * n * nf, dtype=np.complex128)
    amps.reshape(n, n, nf)[0, 0, :] = 1 / math.sqrt(nf)
    return StateVector(lay, amps)


def test_spo_recover_after_probe_collapses():
    # after a forward query with X=|x>, the recovered pi determines Y = pi(x)
    n = 4
    out = spo_query(_fresh_joint(n, x=1), shift_table(n, "forward"))
    ens = spo_recover(out)
    assert (np.abs(ens.amps) ** 2).sum() == pytest.approx(1.0)
    for images, amps in zip(ens.labels, ens.amps):
        probs = np.abs(amps.reshape(n, n)) ** 2
        y = int(np.argmax(probs[1]))
        assert y == images[1]
        # all of the branch's weight sits at (x, pi(x))
        assert probs[1, y] == pytest.approx(probs.sum())


def test_spo_recover_tspo_relabels():
    n = 3
    sigma, tau = sample_uniform(n, RNG), sample_uniform(n, RNG)
    plain = spo_recover(_fresh_state_xy(n))
    twisted = spo_recover(_fresh_state_xy(n), sigma=sigma, tau=tau)
    # full support either way
    assert {tuple(r) for r in twisted.labels} == {tuple(r) for r in plain.labels}
    # and the relabeling is exactly tau^{-1} pi sigma, row by row
    from spolab.permutations import Permutation

    tau_inv = invert(tau)
    for images, amps, got in zip(plain.labels, plain.amps, twisted.labels):
        relabeled = compose(compose(tau_inv, Permutation(tuple(images))), sigma)
        assert tuple(got) == relabeled.images
    assert np.array_equal(twisted.amps, plain.amps)


def test_project_plus_db():
    n = 4
    nf = database_dim(n)
    v = RNG.standard_normal((2, nf)) + 1j * RNG.standard_normal((2, nf))
    for x in range(n):
        kept = project_plus_db(v, n, x)
        cut = project_plus_db(v, n, x, complement=True)
        assert np.allclose(kept + cut, v)
        # idempotent and orthogonal
        assert np.allclose(project_plus_db(kept, n, x), kept)
        assert np.abs(np.einsum("rd,rd->", kept.conj(), cut)) < 1e-12
    # register D_1 (x = 0) carries no freedom: complement annihilates
    assert np.allclose(project_plus_db(v, n, 0, complement=True), 0.0)


def _joint_query_map(n, direction, sigma, tau):
    """The (x, y, d) basis map of a query: its slice maps side by side."""
    nf = database_dim(n)
    return np.concatenate([x * n * nf + query_slice_map(n, x, direction, sigma, tau)
                           for x in range(n)])


def test_spo_query_matches_dense_matrix():
    # the query application (index shuffle) equals a dense matrix product on
    # the joint X (x) Y (x) D space (total dim 384 at N = 4)
    n = 4
    nf = database_dim(n)
    lay = RegisterLayout(
        (("X", n), ("Y", n)) + tuple((f"D{k}", k) for k in range(n, 0, -1)))
    rng = np.random.default_rng(2)
    amps = rng.standard_normal(n * n * nf) + 1j * rng.standard_normal(n * n * nf)
    amps /= np.linalg.norm(amps)
    state = StateVector(lay, amps)
    sigma, tau = sample_uniform(n, rng2 := np.random.default_rng(3)), \
        sample_uniform(n, rng2)
    for direction in ("forward", "inverse"):
        for s, t in ((None, None), (sigma, tau)):
            mapping = _joint_query_map(n, direction, s, t)
            dense = np.zeros((len(mapping), len(mapping)))
            dense[mapping, np.arange(len(mapping))] = 1.0
            got = spo_query(state, shift_table(n, direction, s, t)).amps
            assert np.allclose(got, dense @ amps, atol=1e-12)


def _query_state(k, rest, n, rng):
    """A random state on P (k runs), A (rest), X, Y, D_n..D_1."""
    lay = RegisterLayout((("P", k), ("A", rest), ("X", n), ("Y", n))
                         + database_layout(n).registers)
    size = lay.total_dim
    return StateVector(lay, rng.standard_normal(size) + 1j * rng.standard_normal(size))


QUERY_SHAPES = [(k, rest, n) for k in (1, 24) for rest in (1, 2, 8) for n in (2, 4)]


@pytest.mark.parametrize("twirled", [False, True], ids=["untwirled", "twirled"])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("k,rest,n", QUERY_SHAPES + [(1, 1, 8)])
def test_spo_query_matches_the_per_x_reference(k, rest, n, direction, twirled):
    """The blocked query equals the per-x take_along_axis referee bitwise,
    as returned and as written into ``out``: blocks of every x (rest >= N),
    of fewer (1 < rest < N) and of single x values (rest = 1, as at N = 8).
    The untwirled table is K identity rows."""
    rng = np.random.default_rng(100 * k + 10 * rest + n)
    if twirled:
        sigmas, taus = (np.stack([rng.permutation(n) for _ in range(k)]) for _ in "st")
    else:
        sigmas = taus = np.tile(np.arange(n), (k, 1))
    shift = shift_table(n, direction, sigmas, taus)
    state = _query_state(k, rest, n, rng)
    want = per_x_spo_query(state, shift).amps
    assert np.array_equal(spo_query(state, shift).amps, want)
    out = np.full_like(want, np.nan)
    assert spo_query(state, shift, out=out).amps is out
    assert np.array_equal(out, want)


def test_spo_query_peak_stays_under_a_quarter_of_the_state():
    """At N = 8 with one run and rest = 1, the query's index blocks are
    single x values (N * N! entries, 1/16 of the state's bytes): its peak
    allocation into ``out`` stays below a quarter of the state's bytes,
    which a joint map of every x, cached or not, or a whole-state flat
    index would exceed."""
    n = 8
    shift = shift_table(n, "forward")
    state = _query_state(1, 1, n, np.random.default_rng(8))
    out = np.empty_like(state.amps)
    tracemalloc.start()
    try:
        spo_query(state, shift, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state.amps.nbytes / 4
    assert np.array_equal(out, per_x_spo_query(state, shift).amps)


def test_exact_db_limit():
    from spolab.permutations import SizeLimitError

    with pytest.raises(SizeLimitError):
        spo_backend(9)
    with pytest.raises(SizeLimitError):
        spo_init(9)


def test_query_operators_controlled_on_database():
    # every query operator commutes with permutation-basis projectors on D:
    # exactly, its joint label map never moves the database part
    for n in (2, 4):
        nf = database_dim(n)
        sigma, tau = sample_uniform(n, RNG), sample_uniform(n, RNG)
        for direction in ("forward", "inverse"):
            for s, t in ((None, None), (sigma, tau)):
                mapping = _joint_query_map(n, direction, s, t)
                assert np.array_equal(mapping % nf,
                                      np.arange(n * n * nf) % nf)


def test_small_x_not_touched_up_to_n5():
    # pi_d(x) never depends on the digits below register x (exact, N <= 5)
    for n in (2, 3, 4, 5):
        pi_table, _ = perm_tables(n)
        for x in range(n):
            lo = math.factorial(x)
            shifts = pi_table[:, x].reshape(-1, lo)
            assert np.all(shifts == shifts[:, :1])


def test_concrete_backend_builds_u_oracle_once_per_direction(monkeypatch):
    import spolab.oracles as oracles_mod
    from spolab.circuits import random_circuit, run

    built = []
    original = oracles_mod.u_oracle

    def counting(images, inverse=False):
        built.append(inverse)
        return original(images, inverse=inverse)

    monkeypatch.setattr(oracles_mod, "u_oracle", counting)
    table = np.array([parse_one_line("2 3 4 1").images, [0, 1, 2, 3]])
    backend = concrete_backend(table)
    fwd = random_circuit(11, 2, 2, 4, directions=("forward", "forward"))
    inv = random_circuit(12, 2, 2, 4, directions=("inverse", "inverse"))
    first = run(fwd, backend)
    run(inv, backend)
    again = run(fwd, backend)
    assert built == [False, True]
    assert np.array_equal(first.amps, again.amps)
    # each label of P carries the run against its own permutation
    for k, row in enumerate(table):
        alone = run(fwd, concrete_backend(row))
        assert np.allclose(first.amps.reshape(2, -1)[k], alone.amps, atol=1e-14)


def test_backend_validation():
    with pytest.raises(ValueError):
        OracleBackend(4, images=identity(3).images)
    with pytest.raises(ValueError):
        OracleBackend(4, images=identity(4).images, sigmas=identity(4))
    with pytest.raises(ValueError):
        OracleBackend(4, images=identity(4).images, taus=identity(4))
    with pytest.raises(ValueError):
        spo_backend(4, sigma=identity(3), tau=identity(4))
    assert concrete_backend(identity(4)).images.tolist() == [[0, 1, 2, 3]]
    assert not concrete_backend(identity(4)).has_database
    assert spo_backend(3).has_database
    twirled = spo_backend(3, sigma=identity(3), tau=identity(3))
    assert twirled.has_database and twirled.images is None


@pytest.mark.parametrize("table, problem", [
    ([[0, 1, 2, 3], [0, 0, 1, 2]], "permutations of 0..N-1"),
    ([[0, 1, 2, 3], [1, 2, 3, 4]], "permutations of 0..N-1"),
    ([[0, 1, 2, 3], [3, 2, 1, -1]], "permutations of 0..N-1"),
    (np.zeros((0, 4), dtype=int), "table"),
    (np.zeros((2, 2, 2), dtype=int), "table"),
])
def test_concrete_backend_refuses_bad_tables_before_any_allocation(
        monkeypatch, table, problem):
    import spolab.circuits as circuits_mod
    import spolab.oracles as oracles_mod
    from spolab.circuits import empty_circuit

    def fail(*args, **kwargs):
        raise AssertionError("built an operator or a state for a bad table")

    for mod, name in ((oracles_mod, "u_oracle"), (oracles_mod, "from_permutation"),
                      (circuits_mod, "initial_state")):
        monkeypatch.setattr(mod, name, fail)
    with pytest.raises(ValueError, match=problem):
        concrete_backend(np.array(table))
    with pytest.raises(ValueError, match=problem):
        OracleBackend(4, images=np.array(table))
    with pytest.raises(ValueError, match="width 3"):  # rows of the wrong size
        OracleBackend(4, images=np.array([[0, 1, 2], [2, 1, 0]]))
    with pytest.raises(ValueError):  # and a circuit of another size
        circuits_mod.run(empty_circuit(8), concrete_backend(identity(4)))


@pytest.mark.parametrize("sigma, tau, problem", [
    ([[0, 1, 2, 3]] * 3, [[0, 1, 2, 3]] * 2, "unequal row counts"),
    ([[0, 1, 2]] * 2, None, "width 3"),
    (None, [[0, 1, 2, 3], [0, 2, 1, 0]], "permutations of 0..N-1"),
    ([[0, 1, 2, 3], [1, 1, 2, 3]], [[0, 1, 2, 3]] * 2, "permutations of 0..N-1"),
])
def test_pair_tables_are_refused_before_any_allocation(monkeypatch, sigma, tau,
                                                       problem):
    import spolab.circuits as circuits_mod
    import spolab.oracles as oracles_mod

    def fail(*args, **kwargs):
        raise AssertionError("built a shift table or a state for bad tables")

    for mod, name in ((oracles_mod, "shift_table"), (oracles_mod, "perm_tables"),
                      (circuits_mod, "initial_state")):
        monkeypatch.setattr(mod, name, fail)
    with pytest.raises(ValueError, match=problem):
        spo_backend(4, sigma=None if sigma is None else np.array(sigma),
                    tau=None if tau is None else np.array(tau))


def test_pair_table_backend_rows_and_defaults():
    """A missing table is K identity rows; the untwirled oracle is the
    one-row identity pair, and its shift table is that of spo_query."""
    plain = spo_backend(4)
    assert plain.rows == 1
    assert plain.sigmas.tolist() == plain.taus.tolist() == [[0, 1, 2, 3]]
    table = np.array([[1, 0, 2, 3], [3, 2, 1, 0]])
    half = spo_backend(4, sigma=table)
    assert half.rows == 2 and half.taus.tolist() == [[0, 1, 2, 3]] * 2
    assert concrete_backend(table).rows == 2
    shifts = shift_table(4, "forward", table)
    assert shifts.shape == (2, 4, 24)
    for k, row in enumerate(table):
        assert np.array_equal(shifts[k], shift_table(4, "forward", row)[0])
    with pytest.raises(LayoutError):  # a two-row table on a one-run state
        spo_query(_fresh_joint(4), shifts)
