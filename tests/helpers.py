"""Builders that only the tests use: basis states, database labels, a loading
query, a circuit's text form, the untwirled final state, counters of calls,
of twirl rows and of circuit runs, a per-pair twirl-average reference, a dense
trace-distance reference, the scalar permutation sampler, dense Grover
steps, a transposing reference for ``apply``, a per-x reference for
``spo_query`` and high-precision bound evaluators."""
import dataclasses
import math
import statistics
import sys
from decimal import Context, Decimal, localcontext

import numpy as np

from spolab.circuits import LocalUnitary, Query, QueryCircuit, run
from spolab.lemmas import TwirlPlan
from spolab.oracles import perm_tables, project_plus_db, spo_backend, swap_operator
from spolab.permutations import (
    MonotoneFactorization,
    Permutation,
    compose_from_factors,
    monotone_factorize,
)
from spolab.relations import Relation
from spolab.states import (
    CQEnsemble,
    LayoutError,
    RegisterLayout,
    StateVector,
    database_names,
    from_matrix,
)


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


def perm_of_index(n: int, d: int) -> Permutation:
    """The permutation with database label d: factor digits
    t_k = (d // k!) mod (k + 1), t_1 least significant."""
    digits = tuple((d // math.factorial(k)) % (k + 1) for k in range(n))
    return compose_from_factors(MonotoneFactorization(digits))


def index_of_perm(p: Permutation) -> int:
    """The database label of p: sum_k t_k k! over its factor digits."""
    return sum(tk * math.factorial(k) for k, tk in enumerate(monotone_factorize(p).t))


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


def format_circuit(circ: QueryCircuit) -> str:
    """The text form that parse_circuit reads, for circuits built from
    text-format-compatible steps."""
    lines = [f"n {circ.n}", f"work {circ.work_dim}", f"output {circ.output}"]
    if circ.name:
        lines.append(f"name {circ.name}")
    for step in circ.steps:
        if isinstance(step, Query):
            lines.append(f"query {'fwd' if step.direction == 'forward' else 'inv'}")
        elif step.tag.startswith("load"):
            lines.append(f"load {step.tag[4:]}")
        elif step.tag.startswith("u-seed"):
            lines.append(f"unitary {','.join(step.targets)} seed={step.tag[6:]}")
        else:
            raise ValueError(f"step {step.tag!r} has no text form")
    return "\n".join(lines) + "\n"


def final_state(circ: QueryCircuit) -> StateVector:
    """The final state of the untwirled database-oracle run of ``circ``."""
    return run(circ, spo_backend(circ.n))


TWIRL_AVERAGES = ("p_ii", "p2", "progress", "sparsity")


def per_pair_twirl_grids(final: StateVector, rel: Relation, plan: TwirlPlan,
                         averages=TWIRL_AVERAGES) -> dict[str, np.ndarray]:
    """The (sigmas, taus) per-pair grids of the twirl averages of
    ``spolab.lemmas`` named in ``averages``, from one loop over the plan's
    pairs, one (sigma, tau) at a time: ``p_ii``, and ``p2``, ``progress`` and
    ``sparsity`` of the whole database block of ``final``.  Each pair is read
    in the projector form, |(I - P_s) w|^2 of the twirled block
    w = amps[:, minv], with masks written from the definitions.  For
    ``p_ii`` alone only the <x,y| rows with (x, y) in R are projected."""
    n = plan.n
    nf = math.factorial(n)
    pi, _ = perm_tables(n)
    amps = final.amps.reshape(-1, nf)
    rest = [(name, dim) for name, dim in final.layout.registers
            if name not in database_names(n)]
    coords = np.indices([dim for _name, dim in rest]).reshape(len(rest), -1)
    names = [name for name, _dim in rest]
    x_row, y_row = coords[names.index("X")], coords[names.index("Y")]
    if set(averages) == {"p_ii"}:
        keep = rel.members[x_row, y_row]
        amps, x_row, y_row = amps[keep], x_row[keep], y_row[keep]
    sections = [rel.section(x).tolist() for x in range(n)]
    xy_rows = {(x, y): (x_row == x) & (y_row == y) for x, y in rel.pairs()}
    grids = {key: np.zeros(plan.grid_shape) for key in TWIRL_AVERAGES}
    for i, sigma in enumerate(plan.sigmas):
        for j, tau in enumerate(plan.taus):
            w = amps[:, plan.right_inv[i][plan.left_inv[j]]]
            # R^{sigma,tau} = {(sigma(x), tau(y)) : (x, y) in R}
            twisted = np.zeros((n, n), dtype=bool)
            for x, y in rel.pairs():
                twisted[sigma[x], tau[y]] = True
            for x in range(n):
                s = sigma[x]
                sq = np.abs(project_plus_db(w, n, s, complement=True)) ** 2
                grids["sparsity"][i, j] += sq.sum() / (s + 1) / n
                grids["progress"][i, j] += sq[:, twisted[s, pi[:, s]]].sum() / n
                for y in sections[x]:
                    # pi_d(sigma(x)) = tau(y): disjoint label sets over y
                    hit = sq[:, pi[:, s] == tau[y]]
                    grids["p2"][i, j] += hit.sum()
                    grids["p_ii"][i, j] += hit[xy_rows[x, y]].sum()
    return {key: grids[key] for key in averages}


def per_pair_twirl_averages(final: StateVector, rel: Relation, plan: TwirlPlan,
                            averages=TWIRL_AVERAGES) -> dict[str, tuple[float, float]]:
    """(mean, stderr) of each grid of per_pair_twirl_grids, the stderr the
    crossed-grid estimate of crossed_grid_stderr.  Over the full group the
    mean is the exact average, and a check of an exact average reads the
    mean alone."""
    grids = per_pair_twirl_grids(final, rel, plan, averages)
    return {key: (float(grid.mean()), crossed_grid_stderr(grid))
            for key, grid in grids.items()}


def crossed_grid_stderr(grid: np.ndarray) -> float:
    """sqrt(var(row means) / R + var(col means) / C) of an R x C grid, with
    the sample variances (ddof 1) of ``statistics``; 0 when R or C is 1."""
    rows, cols = grid.shape
    if rows < 2 or cols < 2:
        return 0.0
    row_means = [statistics.fmean(row) for row in grid.tolist()]
    col_means = [statistics.fmean(col) for col in grid.T.tolist()]
    return math.sqrt(statistics.variance(row_means) / rows
                     + statistics.variance(col_means) / cols)


def count_calls(monkeypatch, module, name: str, record=None) -> list:
    """Record every call to ``module.<name>`` from now on, in every spolab
    module that binds it: ``record(*args)``, or the argument tuple."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args if record is None else record(*args))
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "spolab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def count_twirl_rows(monkeypatch) -> list:
    """Record the index of every sigma-row ``TwirlPlan.pairs`` yields from
    now on: one per step of a twirl average."""
    rows = []
    original = TwirlPlan.pairs

    def pairs(self):
        for i in original(self):
            rows.append(i)
            yield i

    monkeypatch.setattr(TwirlPlan, "pairs", pairs)
    return rows


def count_runs(monkeypatch) -> list:
    """Record the backend of every ``circuits.run`` call from now on,
    wherever a spolab module binds ``run``."""
    import spolab.circuits as circuits_mod

    return count_calls(monkeypatch, circuits_mod, "run",
                       lambda circ, backend: backend)


def dense_trace_distance(a: CQEnsemble, b: CQEnsemble) -> float:
    """(1/2)||rho_a - rho_b||_1 from the eigenvalues of the dense difference.

    rho = sum_k |k><k| (x) |psi_k><psi_k| over the union of both label sets,
    built label by label; an independent reference for ``trace_distance``."""
    index: dict[tuple[int, ...], int] = {}
    for row in (*a.labels, *b.labels):
        index.setdefault(tuple(int(v) for v in row), len(index))
    dim = a.layout.total_dim
    diff = np.zeros((len(index) * dim,) * 2, dtype=np.complex128)
    for ens, sign in ((a, 1.0), (b, -1.0)):
        for row, amps in zip(ens.labels, ens.amps):
            k = index[tuple(int(v) for v in row)]
            block = slice(k * dim, (k + 1) * dim)
            diff[block, block] += sign * np.outer(amps, amps.conj())
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def sample_uniform_scalar(n: int, rng: np.random.Generator) -> Permutation:
    """``sample_uniform`` as n scalar draws t_k in {0..k}, k ascending."""
    t = tuple(int(rng.integers(0, k + 1)) for k in range(n))
    return compose_from_factors(MonotoneFactorization(t))


def grover_matrices(n_bits: int, c: int) -> dict[str, np.ndarray]:
    """The Grover prep H^{(x)(n-c)} (x) I and diffusion 2|psi><psi| - I,
    psi uniform over {x || 0^c}, entry by entry: the Hadamard power has
    entries (-1)^{popcount(a & b)} / sqrt(m) on the leading n - c bits."""
    dim, pad = 2 ** n_bits, 2 ** c
    m = dim // pad
    a, r = np.divmod(np.arange(dim), pad)
    common = a[:, None] & a[None, :]
    parity = np.zeros_like(common)
    for k in range(n_bits - c):  # popcount(a & b) mod 2, bit by bit
        parity ^= common >> k & 1
    signs = 1.0 - 2.0 * parity
    prep = np.where(r[:, None] == r[None, :], signs / math.sqrt(m), 0.0)
    psi = (r == 0) / math.sqrt(m)
    return {"prep": prep, "diffuse": 2.0 * np.outer(psi, psi) - np.eye(dim)}


def dense_grover(circ: QueryCircuit, c: int) -> QueryCircuit:
    """The same Grover circuit with its prep and diffusion as plain
    ``from_matrix`` steps built by ``grover_matrices``."""
    mats = grover_matrices(int(circ.n).bit_length() - 1, c)
    steps = tuple(
        LocalUnitary(step.targets, from_matrix(mats[step.tag]), tag=step.tag)
        if isinstance(step, LocalUnitary) and step.tag in mats else step
        for step in circ.steps)
    return dataclasses.replace(circ, steps=steps, name=circ.name + "+dense")


def moveaxis_apply(op, state: StateVector, targets: tuple[str, ...]) -> StateVector:
    """``states.apply`` by transposition, for any target layout: move the
    target axes to the front, apply ``op.apply_block`` to the (d, rest)
    matricization, move them back and copy into a fresh array."""
    lay = state.layout
    axes = [lay.axis(t) for t in targets]
    moved = np.moveaxis(state.reshaped(), axes, range(len(axes)))
    tail_shape = moved.shape[len(axes):]
    image = op.apply_block(moved.reshape(op.dim, -1))
    image = image.reshape(tuple(op.dims) + tail_shape)
    image = np.moveaxis(image, range(len(axes)), axes)
    return StateVector(lay, np.ascontiguousarray(image).reshape(-1))


def per_x_spo_query(state: StateVector, shift: np.ndarray,
                    out: np.ndarray | None = None) -> StateVector:
    """``oracles.spo_query`` one x at a time: for each x, the slice maps
    |y, d> -> |y xor v[k, x, d], d> of every row k, written here from the
    (K, N, N!) shift table v, gathered by ``np.take_along_axis`` from the
    (K, rest, N, N * N!) view of the state into ``out`` or a fresh array."""
    k, n, nf = shift.shape
    arr = state.amps.reshape(k, -1, n, n * nf)
    res = np.empty_like(state.amps) if out is None else out
    dst = res.reshape(arr.shape)
    ys = np.arange(n)[:, None]
    for x in range(n):
        maps = ((ys ^ shift[:, x, None, :]) * nf + np.arange(nf)).reshape(k, -1)
        dst[:, :, x] = np.take_along_axis(arr[:, :, x], maps[:, None], axis=-1)
    return StateVector(state.layout, res)


def main_bound_highprec(q: int, n: int, r_max: int, prec: int = 50) -> Decimal:
    """914 q^3 r_max (ln N + 2) / N in a local prec-digit Decimal context,
    independent of ``spolab.bounds``."""
    with localcontext(Context(prec=prec)):
        ln_n = Decimal(n).ln()
        return Decimal(914) * Decimal(q) ** 3 * Decimal(r_max) * (ln_n + 2) / Decimal(n)


def sponge_bound_highprec(q: int, n_bits: int, c: int, prec: int = 50) -> Decimal:
    with localcontext(Context(prec=prec)):
        return (Decimal(914) * Decimal(q) ** 3 * Decimal(n_bits + 2)
                / Decimal(2) ** min(c, n_bits - c))


def zero_search_bound_highprec(q: int, n_bits: int, c: int, prec: int = 50) -> Decimal:
    with localcontext(Context(prec=prec)):
        return Decimal(1828) * Decimal(q) ** 3 * Decimal(n_bits + 1) / Decimal(2) ** c
