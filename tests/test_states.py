"""State vectors, operators, norms, and ensemble distances."""
import math

import numpy as np
import pytest

from spolab.states import (
    CQEnsemble,
    LayoutError,
    RegisterLayout,
    StateVector,
    apply,
    database_layout,
    from_diagonal,
    from_matrix,
    from_permutation,
    marginal,
    operator_norm,
    probe_unitary,
    product_uniform,
    trace_distance,
    trace_norms,
)

from helpers import basis_state, dense_trace_distance, moveaxis_apply

RNG = np.random.default_rng(42)


def random_state(layout):
    amps = RNG.standard_normal(layout.total_dim) \
        + 1j * RNG.standard_normal(layout.total_dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def test_database_layout_dims():
    lay = database_layout(5)
    assert sorted(d for _n, d in lay.registers) == [1, 2, 3, 4, 5]
    assert lay.total_dim == 120
    # descending order puts the mixed-radix label in flat index order
    assert lay.names == ("D5", "D4", "D3", "D2", "D1")


def test_layout_validation():
    with pytest.raises(LayoutError):
        RegisterLayout((("A", 2), ("A", 3)))
    with pytest.raises(LayoutError):
        RegisterLayout((("A", 0),))


def test_product_uniform_is_flat():
    s = product_uniform(database_layout(4))
    assert np.allclose(s.amps, 1 / math.sqrt(24))


def test_apply_identity_and_inverse():
    lay = RegisterLayout((("A", 3), ("B", 4)))
    s = random_state(lay)
    assert np.allclose(apply(from_permutation((4,), np.arange(4)), s, ("B",)).amps,
                       s.amps)
    perm = np.array([2, 0, 3, 1])
    op = from_permutation((4,), perm)
    forth = apply(op, s, ("B",))
    inv = np.empty(4, dtype=int)
    inv[perm] = np.arange(4)
    back = apply(from_permutation((4,), inv), forth, ("B",))
    assert np.allclose(back.amps, s.amps, atol=1e-12)


def test_apply_matches_dense_kron():
    lay = RegisterLayout((("A", 2), ("B", 3), ("C", 4)))
    s = random_state(lay)
    mat = np.linalg.qr(RNG.standard_normal((12, 12))
                       + 1j * RNG.standard_normal((12, 12)))[0]
    got = apply(from_matrix(mat, (3, 4)), s, ("B", "C")).amps
    want = (np.kron(np.eye(2), mat) @ s.amps)
    assert np.allclose(got, want, atol=1e-12)


def test_apply_on_reordered_targets():
    lay = RegisterLayout((("A", 2), ("B", 3)))
    s = random_state(lay)
    mat = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
    got = apply(from_matrix(mat, (3, 2)), s, ("B", "A")).amps
    swap = np.zeros((6, 6))
    for a in range(2):
        for b in range(3):
            swap[b * 2 + a, a * 3 + b] = 1.0
    want = swap.T @ (mat @ (swap @ s.amps))
    assert np.allclose(got, want, atol=1e-12)


# (registers, targets): size-1 registers between and around the targets,
# reversed and scattered targets, and blocks with pre, post > 1.  The last
# CONTIGUOUS_CASES are contiguous blocks with pre > 1, which apply maps as
# one (pre, d, post) batch.
CONTIGUOUS_CASES = [
    ((("A", 3), ("B", 2), ("C", 4), ("D", 3)), ("B", "C")),
    ((("A", 3), ("B", 2), ("C", 1), ("D", 4)), ("D",)),
    ((("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)), ("B", "C", "D")),
]
APPLY_CASES = [
    ((("P", 1), ("A", 1), ("X", 4), ("Y", 4)), ("P", "X", "Y")),
    ((("P", 1), ("A", 1), ("X", 4), ("Y", 4)), ("X",)),
    ((("P", 1), ("A", 1), ("X", 4), ("Y", 4)), ("Y",)),
    ((("A", 3), ("Z", 1), ("X", 4), ("Y", 2)), ("A", "X")),
    ((("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)), ("B", "D")),
    ((("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)), ("C", "B", "D")),
    ((("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)), ("D", "B")),
    ((("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)), ("A", "D")),
    ((("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)), ("E", "A")),
    ((("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)), ("C",)),
    ((("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)), ("A", "B", "C", "D", "E")),
    *CONTIGUOUS_CASES,
]


def make_operator(kind, dims, rng):
    d = int(np.prod(dims))
    return {"perm": lambda: from_permutation(dims, rng.permutation(d)),
            "diag": lambda: from_diagonal(dims, np.exp(1j * rng.uniform(0, 7, d))),
            "dense": lambda: from_matrix(rng.standard_normal((d, d))
                                         + 1j * rng.standard_normal((d, d)), dims),
            }[kind]()


@pytest.mark.parametrize("registers,targets", APPLY_CASES)
@pytest.mark.parametrize("kind", ["perm", "diag", "dense"])
def test_apply_matches_the_transposing_reference(registers, targets, kind):
    """apply equals the moveaxis reference of ``helpers`` with and without
    ``out``: exactly for basis maps and diagonals, to 1e-12 for dense
    operators.  With ``out`` the result is written there and the input
    state is left as it was.  A basis map is applied twice on the layout,
    the second time through the gather index the first cached, and again
    on the layout with its registers reversed, each time bitwise."""
    rng = np.random.default_rng(len(targets) * 7 + len(registers))
    op = make_operator(kind, tuple(dict(registers)[t] for t in targets), rng)
    layouts = [RegisterLayout(registers)]
    if kind == "perm":
        layouts.append(RegisterLayout(registers[::-1]))
    for lay in layouts:
        s = random_state(lay)
        before = s.amps.copy()
        want = moveaxis_apply(op, s, targets).amps
        buffer = np.full(lay.total_dim, np.nan + 0j)
        calls = [lambda: apply(op, s, targets), lambda: apply(op, s, targets, out=buffer)]
        if kind == "perm":
            calls.append(lambda: apply(op, s, targets))
        for call in calls:
            got = call()
            if kind == "dense":
                assert np.abs(got.amps - want).max() <= 1e-12 * np.abs(want).max()
            else:
                assert np.array_equal(got.amps, want)
        assert apply(op, s, targets, out=buffer).amps is buffer
        assert np.array_equal(s.amps, before)


def grover_operators():
    from spolab.circuits import LocalUnitary, grover_preimage

    return {s.tag: s.op for s in grover_preimage(4, 2, 0, 1).steps
            if isinstance(s, LocalUnitary) and s.tag in ("prep", "diffuse")}


@pytest.mark.parametrize("builder", ["perm", "diag", "dense", "prep", "diffuse"])
def test_apply_block_maps_each_leading_index_as_one_block(builder):
    """Every operator apply can reach maps a (pre, d, post) batch along
    axis -2 as it maps each 2-D (d, post) slice, with and without ``out``:
    bitwise for basis maps and diagonals, to 1e-15 relative for products."""
    rng = np.random.default_rng(5)
    op = (grover_operators()[builder] if builder in ("prep", "diffuse")
          else make_operator(builder, (4, 3), rng))
    batch = rng.standard_normal((3, op.dim, 5)) + 1j * rng.standard_normal((3, op.dim, 5))
    want = np.stack([op.apply_block(block) for block in batch])
    out = np.full_like(batch, np.nan)
    assert op.apply_block(batch, out=out) is out
    for got in (op.apply_block(batch), out):
        if builder in ("perm", "diag"):
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("registers,targets", CONTIGUOUS_CASES)
@pytest.mark.parametrize("kind", ["perm", "diag", "dense"])
def test_contiguous_targets_take_the_view_path(monkeypatch, registers, targets, kind):
    """Contiguous targets are one apply_block on the (pre, d, post) view:
    apply never moves axes and a basis map builds no flat gather index.
    The results are checked in test_apply_matches_the_transposing_reference."""
    rng = np.random.default_rng(9)
    op = make_operator(kind, tuple(dict(registers)[t] for t in targets), rng)

    def moved(*args, **kwargs):
        raise AssertionError("apply moved axes for contiguous targets")

    monkeypatch.setattr(np, "moveaxis", moved)
    apply(op, random_state(RegisterLayout(registers)), targets)
    assert op.gather is None


def test_scattered_basis_map_gathers_through_one_cached_index():
    """A basis map off the view path keeps one flat index, for the
    (layout, targets) it last ran on, and later applies there reuse it;
    another layout replaces it, so going back builds the index again.
    Every result equals the moveaxis reference bitwise."""
    rng = np.random.default_rng(3)
    op = from_permutation((4, 2), rng.permutation(8))
    layouts = [RegisterLayout((("A", 2), (f"W{k}", k + 2), ("B", 4))) for k in range(3)]
    built = []
    for lay in layouts + layouts[:1]:
        s = random_state(lay)
        got = apply(op, s, ("B", "A"))
        assert np.array_equal(got.amps, moveaxis_apply(op, s, ("B", "A")).amps)
        key, index = op.gather
        assert key == (lay, ("B", "A")) and not index.flags.writeable
        assert apply(op, s, ("B", "A")) is not got and op.gather[1] is index
        assert all(index is not old for old in built)
        built.append(index)
    assert np.array_equal(built[0], built[-1])


def test_cached_flat_gather_copies_no_index():
    """A gather through the cached flat index writes into ``out`` without
    a copy of the index, although the slot shows it read-only: np.take
    gets the writeable array that owns its memory, so the traced peak of
    the second apply stays under one index (32 KiB here)."""
    import tracemalloc

    lay = RegisterLayout((("A", 8), ("B", 16), ("C", 32)))
    op = from_permutation((32, 8), np.random.default_rng(4).permutation(256))
    s = random_state(lay)
    buffer = np.empty(lay.total_dim, dtype=np.complex128)
    want = apply(op, s, ("C", "A"), out=buffer).amps.copy()
    index = op.gather[1]
    assert not index.flags.writeable and index.nbytes == 8 * lay.total_dim
    tracemalloc.start()
    try:
        got = apply(op, s, ("C", "A"), out=buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < index.nbytes
    assert got.amps is buffer and np.array_equal(got.amps, want)
    assert op.gather[1] is index


def test_scattered_basis_map_over_budget_allocates_no_index(monkeypatch):
    """The flat index of a 4096-amplitude state has 4096 entries: one entry
    over a patched AMPLITUDE_BUDGET is refused before the index exists: the
    call's traced peak stays under half of the index's 32 KiB, and nothing
    is cached."""
    import tracemalloc

    import spolab.oracles as oracles_mod
    from spolab.oracles import BudgetError

    lay = RegisterLayout((("A", 8), ("B", 16), ("C", 32)))
    op = from_permutation((32, 8), np.random.default_rng(4).permutation(256))
    s = random_state(lay)
    buffer = np.empty(lay.total_dim, dtype=np.complex128)
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", lay.total_dim - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="flat gather index"):
            apply(op, s, ("C", "A"), out=buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lay.total_dim * 8 // 2
    assert op.gather is None
    monkeypatch.setattr(oracles_mod, "AMPLITUDE_BUDGET", lay.total_dim)
    got = apply(op, s, ("C", "A"), out=buffer).amps
    assert np.array_equal(got, moveaxis_apply(op, s, ("C", "A")).amps)


def test_apply_refuses_an_out_that_may_share_the_state():
    lay = RegisterLayout((("A", 3), ("B", 4)))
    s = random_state(lay)
    op = from_permutation((4,), np.array([2, 0, 3, 1]))
    with pytest.raises(ValueError, match="share memory"):
        apply(op, s, ("B",), out=s.amps)
    wide = np.zeros(2 * lay.total_dim, dtype=np.complex128)
    with pytest.raises(ValueError, match="share memory"):
        apply(op, StateVector(lay, wide[:12]), ("B",), out=wide[6:18])
    for bad in (np.zeros(12), np.zeros(13, dtype=np.complex128),
                np.zeros(24, dtype=np.complex128)[::2]):
        with pytest.raises(LayoutError, match="output buffer"):
            apply(op, s, ("B",), out=bad)


def test_apply_dim_mismatch():
    lay = RegisterLayout((("A", 2), ("B", 3)))
    with pytest.raises(LayoutError):
        apply(from_permutation((4,), np.arange(4)), random_state(lay), ("B",))


def test_operator_norm_dense():
    assert operator_norm(from_permutation((7,), np.arange(7))) == pytest.approx(1.0)
    v = RNG.standard_normal(9)
    proj = np.outer(v, v) / (v @ v)
    assert operator_norm(from_matrix(proj)) == pytest.approx(1.0)


def test_operator_norm_commutator_of_unitaries():
    for _ in range(3):
        u = np.linalg.qr(RNG.standard_normal((16, 16))
                         + 1j * RNG.standard_normal((16, 16)))[0]
        v = np.linalg.qr(RNG.standard_normal((16, 16))
                         + 1j * RNG.standard_normal((16, 16)))[0]
        comm = u @ v - v @ u
        assert operator_norm(from_matrix(comm)) <= 2.0 + 1e-12


def test_operator_norm_power_iteration_matches_dense():
    mat = RNG.standard_normal((50, 50)) + 1j * RNG.standard_normal((50, 50))
    dense = float(np.linalg.norm(mat, 2))
    op = from_matrix(mat)
    op.matrix = None  # force the matrix-free path
    assert operator_norm(op, cap=10) == pytest.approx(dense, rel=1e-6)


def test_operator_norm_agrees_with_dense_across_dims():
    for dim in (8, 64, 200, 512):
        mat = RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))
        dense = float(np.linalg.norm(mat, 2))
        op = from_matrix(mat)
        op.matrix = None
        assert operator_norm(op, cap=4) == pytest.approx(dense, rel=1e-8)


def test_operator_norm_nonconvergence_reports_bracket():
    from spolab.states import NormConvergenceError

    mat = np.diag(np.linspace(0.1, 1.0, 64))  # rich spectrum: no early exit
    op = from_matrix(mat)
    op.matrix = None
    with pytest.raises(NormConvergenceError) as err:
        operator_norm(op, cap=4, tol=0.0, max_iter=3)  # unreachable tolerance
    assert 0.0 < err.value.lower <= 1.0 + 1e-9
    assert err.value.estimate >= err.value.lower


def test_probe_unitary():
    assert probe_unitary(from_permutation((5,), np.array([4, 0, 1, 2, 3])))
    assert probe_unitary(from_diagonal((4,), np.exp(1j * np.arange(4))))
    assert not probe_unitary(from_matrix(np.diag([1.0, 0.5])))


def test_from_permutation_rejects_non_bijections():
    op = from_permutation((3,), np.array([2, 0, 1]))
    assert op.mapping.tolist() == [2, 0, 1]
    assert from_matrix(np.eye(2)).mapping is None
    with pytest.raises(ValueError, match="bijection"):
        from_permutation((3,), np.array([0, 0, 1]))
    for out_of_range in ([0, 1, 3], [-1, 0, 1]):
        with pytest.raises(ValueError, match="0..2"):
            from_permutation((3,), np.array(out_of_range))


def test_marginal_sums_out_the_other_registers_in_keep_order():
    lay = RegisterLayout((("A", 2), ("X", 3), ("Y", 4)))
    state = random_state(lay)
    probs = np.abs(state.reshaped()) ** 2
    assert np.allclose(marginal(state, ("X",)), probs.sum(axis=(0, 2)))
    assert np.allclose(marginal(state, ("Y", "X")), probs.sum(axis=0).T)
    assert np.allclose(marginal(state, ("A", "X", "Y")), probs)
    assert marginal(state, ("X", "Y")).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(LayoutError):
        marginal(state, ("X", "Z"))


def ensemble(labels, layout, rows):
    """A CQEnsemble from label rows and one amplitude row per label."""
    return CQEnsemble(np.array(labels), layout,
                      np.array(rows, dtype=np.complex128).reshape(len(labels), -1))


PERMS3 = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]


def test_trace_distance_basic():
    lay = RegisterLayout((("A", 4),))
    psi = random_state(lay).amps
    ens_a = ensemble([PERMS3[0]], lay, [psi])
    assert trace_distance(ens_a, ensemble([PERMS3[0]], lay, [psi])) == \
        pytest.approx(0.0)
    phi = basis_state(lay, {"A": 0}).amps
    chi = basis_state(lay, {"A": 1}).amps
    assert trace_distance(ensemble([PERMS3[0]], lay, [phi]),
                          ensemble([PERMS3[0]], lay, [chi])) == pytest.approx(1.0)
    # global phase per branch is invisible
    phased = ensemble([PERMS3[0]], lay, [np.exp(0.7j) * psi])
    assert trace_distance(ens_a, phased) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_disjoint_labels():
    lay = RegisterLayout((("A", 2),))
    half = [1 / math.sqrt(2), 0]
    a = ensemble(PERMS3[:2], lay, [half, half])
    b = ensemble(PERMS3[2:4], lay, [half, half])
    assert trace_distance(a, b) == pytest.approx(1.0)


def test_trace_distance_layout_mismatch():
    a = ensemble([PERMS3[0]], RegisterLayout((("A", 2),)), [[1, 0]])
    b = ensemble([PERMS3[0]], RegisterLayout((("A", 3),)), [[1, 0, 0]])
    with pytest.raises(LayoutError):
        trace_distance(a, b)
    with pytest.raises(LayoutError):  # labels of a different width
        trace_distance(a, ensemble([[0, 1]], a.layout, [[1, 0]]))
    with pytest.raises(LayoutError):  # one amplitude row per label
        ensemble(PERMS3[:2], a.layout, [[1, 0]])


def test_trace_distance_refuses_repeated_labels():
    lay = RegisterLayout((("A", 2),))
    half = [1 / math.sqrt(2), 0]
    twice = ensemble([PERMS3[0], PERMS3[0]], lay, [half, half])
    with pytest.raises(ValueError, match="repeats a label"):
        trace_distance(twice, ensemble(PERMS3[:2], lay, [half, half]))


def _random_ensemble(lay, labels):
    rows = np.array([random_state(lay).amps for _ in labels])
    weights = RNG.dirichlet(np.ones(len(labels)))
    return ensemble(labels, lay, np.sqrt(weights)[:, None] * rows)


def test_trace_distance_triangle_and_unitary_invariance():
    lay = RegisterLayout((("A", 5),))
    for _ in range(5):
        a, b, c = (_random_ensemble(lay, PERMS3[:3]) for _ in range(3))
        dab, dbc, dac = (trace_distance(a, b), trace_distance(b, c),
                         trace_distance(a, c))
        assert dac <= dab + dbc + 1e-9
        u = np.linalg.qr(RNG.standard_normal((5, 5))
                         + 1j * RNG.standard_normal((5, 5)))[0]
        rot = [CQEnsemble(e.labels, lay, e.amps @ u.T) for e in (a, b)]
        assert trace_distance(*rot) == pytest.approx(dab, abs=1e-9)


def test_trace_distance_matches_rows_by_label_not_position():
    lay = RegisterLayout((("A", 3),))
    a, b = (_random_ensemble(lay, PERMS3) for _ in range(2))
    order = RNG.permutation(len(PERMS3))
    shuffled = CQEnsemble(b.labels[order], lay, b.amps[order])
    assert trace_distance(a, shuffled) == trace_distance(a, b)
    assert trace_distance(a, CQEnsemble(a.labels[order], lay, a.amps[order])) \
        == pytest.approx(0.0, abs=1e-15)
    # the same rows under two swapped labels are a different ensemble
    swapped = a.labels.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert trace_distance(a, CQEnsemble(swapped, lay, a.amps)) > 1e-3


def test_trace_distance_matches_dense_eigenvalue_reference():
    lay = RegisterLayout((("A", 2), ("B", 2)))
    for trial in range(8):
        picks = RNG.permutation(6)  # the two sides share labels picks[2:4]
        a = _random_ensemble(lay, [PERMS3[i] for i in picks[:4]])
        b = _random_ensemble(lay, [PERMS3[i] for i in picks[2:5]])
        if trial % 2:  # a row equal on both sides, and a zero row against one
            b.amps[0] = a.amps[2]
            a.amps[3] = 0.0
        assert trace_distance(a, b) == pytest.approx(dense_trace_distance(a, b),
                                                     abs=1e-12)


def test_trace_distance_is_stable_for_nearly_equal_states():
    # |u> and |v> at angle theta: the exact trace distance is sin(theta), which
    # a form in |<u|v>|^2 loses to cancellation at this angle
    lay = RegisterLayout((("A", 2),))
    theta = 1e-9
    a = ensemble([PERMS3[0]], lay, [[1.0, 0.0]])
    b = ensemble([PERMS3[0]], lay, [[math.cos(theta), math.sin(theta)]])
    assert trace_distance(a, b) == pytest.approx(math.sin(theta), rel=1e-9)


def test_trace_norms_kernel_matches_dense_eigenvalues_over_a_batch():
    """The per-label kernel of trace_distance over a (3, 2) batch of
    vector pairs, zero vectors on either side included, equals the
    eigenvalue trace norm of |u><u| - |v><v| pair by pair."""
    shape = (3, 2, 5)
    u = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    v = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    u[0, 0] = 0.0
    v[1, 1] = 0.0
    v[2, 0] = 1j * u[2, 0]  # the same ray: norm 0
    got = trace_norms(u, v)
    assert got.shape == shape[:2]
    for idx in np.ndindex(*shape[:2]):
        diff = np.outer(u[idx], u[idx].conj()) - np.outer(v[idx], v[idx].conj())
        assert got[idx] == pytest.approx(np.abs(np.linalg.eigvalsh(diff)).sum(),
                                         rel=1e-12, abs=1e-12), idx


def test_ensemble_total_probability():
    """The concrete and recovered ensembles carry probability 1, spread
    uniformly over the N! labels."""
    from spolab.circuits import concrete_ensemble, random_circuit, run, spo_ensemble
    from spolab.oracles import spo_backend

    circ = random_circuit(3, 2, 2, 4)
    for ens in (concrete_ensemble(circ), spo_ensemble(circ, spo_backend(4))):
        probs = (np.abs(ens.amps) ** 2).sum(axis=1)
        assert ens.labels.shape == (24, 4)
        assert probs.sum() == pytest.approx(1.0)
        assert probs == pytest.approx(np.full(24, 1 / 24))


def test_basis_state_helper():
    lay = RegisterLayout((("A", 2), ("B", 3)))
    b = basis_state(lay, {"A": 1, "B": 2})
    assert b.amps[1 * 3 + 2] == 1.0
    with pytest.raises(LayoutError):
        basis_state(lay, {"C": 0})
