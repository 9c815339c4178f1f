"""Builders that only the tests use: basis states and a loading query."""
import numpy as np

from spolab.circuits import LocalUnitary, Query, QueryCircuit
from spolab.oracles import swap_operator
from spolab.states import LayoutError, RegisterLayout, StateVector


def basis_state(layout: RegisterLayout, indices=None) -> StateVector:
    """|i_1, ..., i_r> with unspecified registers at index 0."""
    indices = dict(indices or {})
    flat = 0
    for (name, dim), stride in zip(layout.registers, layout.strides):
        i = indices.pop(name, 0)
        if not 0 <= i < dim:
            raise LayoutError(f"index {i} outside register {name} (dim {dim})")
        flat += i * stride
    if indices:
        raise LayoutError(f"unknown registers {sorted(indices)}")
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[flat] = 1.0
    return StateVector(layout, amps)


def with_loading_query(circ: QueryCircuit) -> QueryCircuit:
    """Append one forward query that loads pi(x) into Y.

    The original Y content is parked in a fresh |0> scratch register first,
    so the final (X, Y) readout is exactly (x, pi(x))."""
    if circ.has_z:
        raise ValueError("circuit already uses the Z register")
    steps = circ.steps + (
        LocalUnitary(("Y", "Z"), swap_operator(circ.n), tag="swapYZ"),
        Query("forward"),
    )
    return QueryCircuit(circ.n, steps, work_dim=circ.work_dim, output="xy",
                        has_z=True, name=circ.name + "+load")
