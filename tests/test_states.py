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
    identity_operator,
    marginal,
    operator_norm,
    probe_unitary,
    product_uniform,
    trace_distance,
)

from helpers import basis_state

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
    assert np.allclose(apply(identity_operator((4,)), s, ("B",)).amps, s.amps)
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


def test_apply_dim_mismatch():
    lay = RegisterLayout((("A", 2), ("B", 3)))
    with pytest.raises(LayoutError):
        apply(identity_operator((4,)), random_state(lay), ("B",))


def test_operator_norm_dense():
    assert operator_norm(identity_operator((7,))) == pytest.approx(1.0)
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


def test_trace_distance_basic():
    lay = RegisterLayout((("A", 4),))
    psi = random_state(lay)
    ens_a = CQEnsemble({"x": psi})
    assert trace_distance(ens_a, CQEnsemble({"x": psi})) == pytest.approx(0.0)
    phi = basis_state(lay, {"A": 0})
    chi = basis_state(lay, {"A": 1})
    assert trace_distance(CQEnsemble({"x": phi}), CQEnsemble({"x": chi})) == \
        pytest.approx(1.0)
    # global phase per branch is invisible
    phased = CQEnsemble({"x": StateVector(lay, np.exp(0.7j) * psi.amps)})
    assert trace_distance(ens_a, phased) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_disjoint_labels():
    lay = RegisterLayout((("A", 2),))
    half = StateVector(lay, np.array([1 / math.sqrt(2), 0], dtype=complex))
    a = CQEnsemble({"u": half, "v": half})
    b = CQEnsemble({"w": half, "z": half})
    assert trace_distance(a, b) == pytest.approx(1.0)


def test_trace_distance_layout_mismatch():
    lay_a = RegisterLayout((("A", 2),))
    lay_b = RegisterLayout((("A", 3),))
    a = CQEnsemble({"u": basis_state(lay_a)})
    b = CQEnsemble({"u": basis_state(lay_b)})
    with pytest.raises(LayoutError):
        trace_distance(a, b)


def test_trace_distance_triangle_and_unitary_invariance():
    lay = RegisterLayout((("A", 5),))
    for _ in range(5):
        ens = []
        for _k in range(3):
            branches = {}
            weights = RNG.dirichlet(np.ones(3))
            for lab, w in enumerate(weights):
                v = random_state(lay)
                branches[lab] = StateVector(lay, math.sqrt(w) * v.amps)
            ens.append(CQEnsemble(branches))
        a, b, c = ens
        dab, dbc, dac = (trace_distance(a, b), trace_distance(b, c),
                         trace_distance(a, c))
        assert dac <= dab + dbc + 1e-9
        u = np.linalg.qr(RNG.standard_normal((5, 5))
                         + 1j * RNG.standard_normal((5, 5)))[0]
        rot = [CQEnsemble({lab: StateVector(lay, u @ s.amps)
                           for lab, s in e.entries.items()}) for e in (a, b)]
        assert trace_distance(*rot) == pytest.approx(dab, abs=1e-9)


def test_ensemble_total_probability():
    lay = RegisterLayout((("A", 2),))
    ens = CQEnsemble({k: StateVector(lay, np.array([0.5, 0.5], dtype=complex))
                      for k in range(2)})
    assert ens.total_probability() == pytest.approx(1.0)
    assert ens.distribution()[0] == pytest.approx(0.5)


def test_basis_state_helper():
    lay = RegisterLayout((("A", 2), ("B", 3)))
    b = basis_state(lay, {"A": 1, "B": 2})
    assert b.amps[1 * 3 + 2] == 1.0
    with pytest.raises(LayoutError):
        basis_state(lay, {"C": 0})
