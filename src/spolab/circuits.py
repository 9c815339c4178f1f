"""Query circuits: oracle adversaries as alternating local unitaries and queries.

A circuit runs on a leading classical label P, one run per row of its
backend's table, then optionally Z (standard-form scratch), registers A
(work), X, Y, plus the oracle database D for a database backend.  Local
unitaries may target any subset of {P, A, Z, X, Y}; queries are forward or
inverse oracle calls dispatched through an
:class:`~spolab.oracles.OracleBackend`.

The module also provides the concrete adversaries used by the verification
experiments (classical probes, Grover preimage and double-sided zero search
attackers, seeded random circuits), the standard-form preprocessing that
doubles the query count, and a line-oriented text format for circuit files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Literal

import numpy as np

from .oracles import (
    OracleBackend,
    charge,
    cnot_operator,
    concrete_backend,
    database_dim,
    database_layout,
    image_table,
    perm_tables,
    shift_operator,
    spo_backend,
    spo_recover,
    swap_operator,
    v_oracle,
)
from .permutations import Permutation, all_images
from .relations import Relation
from .states import (
    CQEnsemble,
    LinearOperator,
    RegisterLayout,
    StateVector,
    apply,
    check_buffer,
    database_names,
    from_diagonal,
    from_permutation,
    from_matrix,
    marginal,
    probe_unitary,
)

Direction = Literal["forward", "inverse"]


@dataclass(frozen=True)
class LocalUnitary:
    targets: tuple[str, ...]
    op: LinearOperator
    tag: str = ""

    def __post_init__(self) -> None:
        # A basis mapping is a validated bijection, hence unitary; any other
        # operator is probed once, here, however many circuits reuse the step.
        if self.op.mapping is None and not probe_unitary(self.op):
            raise ValueError(f"step {self.tag or self.targets} fails the "
                             "unitarity probe")


@dataclass(frozen=True)
class Query:
    direction: Direction


Step = LocalUnitary | Query


@dataclass(frozen=True)
class QueryCircuit:
    """An adversary: ordered steps over registers A(,Z),X,Y plus oracle queries."""

    n: int
    steps: tuple[Step, ...]
    work_dim: int = 1
    output: Literal["x", "xy"] = "x"
    has_z: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        allowed = {"P", "A", "X", "Y"} | ({"Z"} if self.has_z else set())
        for k, step in enumerate(self.steps):
            if isinstance(step, LocalUnitary):
                if not set(step.targets) <= allowed:
                    raise ValueError(f"unitary targets {step.targets} outside {allowed}")
                if len(set(step.targets)) < len(step.targets):
                    raise ValueError(f"step {k} ({step.tag or 'unitary'}) names a "
                                     f"register twice: {step.targets}")
            elif isinstance(step, Query):
                if step.direction not in ("forward", "inverse"):
                    raise ValueError(f"bad query direction {step.direction!r}")
            else:
                raise TypeError(f"unknown step {step!r}")

    @property
    def query_count(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, Query))


def circuit_layout(circ: QueryCircuit, backend: OracleBackend) -> RegisterLayout:
    """The registers of a run, in the order P, (Z,) A, X, Y(, D).

    Z leads A so that A, X, Y, which the local unitaries of the circuit
    library act on, are consecutive: such a step is one (pre, d, post) view
    of the state (states.apply), with no transpose.  Read Z by name, never
    by position."""
    regs = [("P", backend.rows)]
    if circ.has_z:
        regs.append(("Z", circ.n))
    regs += [("A", circ.work_dim), ("X", circ.n), ("Y", circ.n)]
    if backend.has_database:
        regs += list(database_layout(circ.n).registers)
    return RegisterLayout(tuple(regs))


def initial_state(circ: QueryCircuit, backend: OracleBackend,
                  out: np.ndarray | None = None) -> StateVector:
    """The state before the first step, written into ``out`` when given."""
    lay = circuit_layout(circ, backend)
    charge(lay.total_dim, "joint state")
    if out is None:
        amps = np.zeros(lay.total_dim, dtype=np.complex128)
    else:
        amps = check_buffer(lay, out)
        amps.fill(0.0)
    # One normalized run per label of P, with the database uniform over S_n.
    nf = database_dim(circ.n) if backend.has_database else 1
    amps.reshape(backend.rows, -1, nf)[:, 0, :] = 1.0 / math.sqrt(nf)
    return StateVector(lay, amps)


def run(circ: QueryCircuit, backend: OracleBackend, *,
        work: tuple[np.ndarray, np.ndarray] | None = None) -> StateVector:
    """Run the circuit to completion and return the final joint state.

    The steps alternate between two state buffers.  A run allocates its
    own pair unless ``work`` passes one, two distinct flat complex128
    arrays of the joint state's size; the final state then lives in one of
    them and is valid until the caller reuses the pair."""
    return _execute(circ, backend, None, work)


def run_with_intermediates(
    circ: QueryCircuit, backend: OracleBackend
) -> tuple[StateVector, list[tuple[Direction, StateVector]]]:
    """Final state plus (direction, state) right before each query."""
    pre_query: list[tuple[Direction, StateVector]] = []
    return _execute(circ, backend, pre_query), pre_query


def _execute(circ: QueryCircuit, backend: OracleBackend, pre_query: list | None,
             work: tuple[np.ndarray, np.ndarray] | None = None) -> StateVector:
    """Each step writes into the buffer that does not hold the current
    state; ``pre_query`` keeps every state before a query, so then each
    step writes a fresh array instead."""
    if backend.n != circ.n:
        raise ValueError(f"backend size {backend.n} != circuit size {circ.n}")
    first, spare = (None, None) if work is None else work
    state = initial_state(circ, backend, out=first)
    if spare is None and pre_query is None:
        spare = np.empty_like(state.amps)
    for step in circ.steps:
        if isinstance(step, Query):
            if pre_query is not None:
                pre_query.append((step.direction, state))
            image = backend.query(state, step.direction, out=spare)
        else:
            image = apply(step.op, state, step.targets, out=spare)
        if pre_query is None:
            spare = state.amps
        state = image
    return state


def output_distribution(state: StateVector, output: str = "x") -> np.ndarray:
    """Exact Born probabilities of the declared output registers."""
    return marginal(state, ("X",) if output == "x" else ("X", "Y"))


# --------------------------------------------------------------------------
# Circuit library


def empty_circuit(n: int, work_dim: int = 1, output: str = "xy") -> QueryCircuit:
    return QueryCircuit(n, (), work_dim=work_dim, output=output, name="empty")


def classical_probe(n: int, x: int, direction: Direction = "forward") -> QueryCircuit:
    """Load |x> into X, make one query, output (x, Y)."""
    if not 0 <= x < n:
        raise ValueError(f"x={x} outside 0..{n - 1}")
    steps = (LocalUnitary(("X",), shift_operator(n, x), tag=f"load{x}"),
             Query(direction))
    return QueryCircuit(n, steps, output="xy",
                        name=f"probe-{direction[0]}{x}")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian with phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_circuit(seed: int, q: int, work_dim: int, n: int,
                   directions: Iterable[Direction] | None = None) -> QueryCircuit:
    """Seeded random adversary: Haar-ish unitaries on A,X,Y between queries."""
    rng = np.random.default_rng(seed)
    dims = (work_dim, n, n)
    dim = work_dim * n * n
    steps: list[Step] = []
    dir_list = list(directions) if directions is not None else [
        ("forward", "inverse")[rng.integers(0, 2)] for _ in range(q)]
    if len(dir_list) != q:
        raise ValueError("directions length must equal q")
    for j in range(q):
        steps.append(LocalUnitary(("A", "X", "Y"),
                                  from_matrix(haar_unitary(dim, rng), dims),
                                  tag=f"U{j}"))
        steps.append(Query(dir_list[j]))
    steps.append(LocalUnitary(("A", "X", "Y"),
                              from_matrix(haar_unitary(dim, rng), dims),
                              tag=f"U{q}"))
    return QueryCircuit(n, tuple(steps), work_dim=work_dim, output="xy",
                        name=f"rand-q{q}-s{seed}")


# --------------------------------------------------------------------------
# Standard form (query-count-doubling preprocessing)


def _gadget_form(circ: QueryCircuit, dress: Callable[[Query], tuple[list, list]],
                 suffix: str) -> QueryCircuit:
    """Append a scratch register Z=|0> and replace each query q by
    SWAP / *first / CNOT / *second / SWAP on Y, Z, with dress(q) = (first,
    second)."""
    if circ.has_z:
        raise ValueError("circuit already carries a Z register")
    swap_yz = LocalUnitary(("Y", "Z"), swap_operator(circ.n), tag="swapYZ")
    cnot_yz = LocalUnitary(("Y", "Z"), cnot_operator(circ.n), tag="cnotYZ")
    steps: list[Step] = []
    for step in circ.steps:
        if isinstance(step, Query):
            first, second = dress(step)
            steps += [swap_yz, *first, cnot_yz, *second, swap_yz]
        else:
            steps.append(step)
    return QueryCircuit(circ.n, tuple(steps), work_dim=circ.work_dim,
                        output=circ.output, has_z=True, name=circ.name + suffix)


def standard_form(circ: QueryCircuit) -> QueryCircuit:
    """The SWAP / query / CNOT / query / SWAP gadget in place of each query;
    makes exactly 2q queries and produces the same joint state on
    (A,Z),X,Y,D against the twirled oracle for every sigma, tau."""
    return _gadget_form(circ, lambda q: ([q], [q]), "+std")


def v_maps(images: Permutation | np.ndarray) -> dict[str, tuple[LinearOperator, ...]]:
    """V^pi and V^{pi^-1} per register, X and Y, as dressed_standard_form
    applies them.  One permutation (a one-row table) gives maps on one
    register alone, which states.apply runs as a (pre, d, post) view with
    no flat index, so X and Y share them; a (K, N) table gives maps on P
    and one register acting by row k on label k, which gather through the
    flat index each operator keeps for its last layout and targets, so
    each register gets its own pair and each operator one set of targets."""
    table = image_table(images)
    if len(table) > 1:
        return {reg: tuple(v_oracle(table, inverse) for inverse in (False, True))
                for reg in ("X", "Y")}
    pair = tuple(from_permutation(op.dims[1:], op.mapping, label=op.label)
                 for op in (v_oracle(table, inverse) for inverse in (False, True)))
    return {"X": pair, "Y": pair}


def dressed_standard_form(circ: QueryCircuit,
                          sigma: Permutation | np.ndarray | dict[str, tuple[LinearOperator, ...]],
                          tau: Permutation | np.ndarray | dict[str, tuple[LinearOperator, ...]],
                          ) -> QueryCircuit:
    """The standard-form circuit with V-dressed queries: run against the
    *untwirled* oracle it reproduces the twirled run of the original.

    sigma and tau are each a permutation, a (K, N) table or its v_maps;
    maps shared by several circuits build each gather index once.
    A one-row side dresses with V on X or Y alone, a K-row side with V on
    (P, X) or (P, Y), acting by row k on label k, against the K-row
    identity table; two K-row sides need the same K."""
    vs, vt = (side if isinstance(side, dict) else v_maps(side) for side in (sigma, tau))
    # Each side's (K, N); a V on one register alone is a one-row side.
    (ks, ns), (kt, nt) = (((1,) + maps["X"][0].dims)[-2:] for maps in (vs, vt))
    if ns != nt or (ks > 1 and kt > 1 and ks != kt):
        raise ValueError(f"sigma and tau tables differ: {(ks, ns)} vs {(kt, nt)}")
    ops = {"Vs": vs, "Vt": vt}

    def v(register: str, name: str, inverse: bool) -> LocalUnitary:
        op = ops[name][register][inverse]
        targets = ("P", register) if len(op.dims) == 2 else (register,)
        return LocalUnitary(targets, op, tag=name + ("-" if inverse else ""))

    def dress(q: Query) -> tuple[list, list]:
        # V^pre on X and V^post on Y: sigma, tau forward; tau, sigma inverse.
        a, b = ("Vs", "Vt") if q.direction == "forward" else ("Vt", "Vs")
        vx, vx_inv = v("X", a, False), v("X", a, True)
        return ([vx, q, v("Y", b, True), vx_inv],
                [v("Y", b, False), vx, q, vx_inv])

    return _gadget_form(circ, dress, "+dressed")


# --------------------------------------------------------------------------
# Ensembles for the exact-simulation experiments


def concrete_ensemble(circ: QueryCircuit) -> CQEnsemble:
    """Experiment: sample pi uniformly, run against U^pi; labels are pi.

    One run covers all N! permutations, one per label of P."""
    table = all_images(circ.n)
    final = run(circ, concrete_backend(table))
    weight = 1.0 / math.sqrt(len(table))
    return CQEnsemble(table, final.layout.drop(("P",)),
                      final.amps.reshape(len(table), -1) * weight)


def spo_ensemble(circ: QueryCircuit, backend: OracleBackend) -> CQEnsemble:
    """Init + run + recover against a one-row database backend, twirled or
    not; a K-row run is read one label of P at a time with spo_recover."""
    if backend.rows != 1:
        raise ValueError(f"spo_ensemble reads one run, got {backend.rows} rows")
    final = run(circ, backend)
    return spo_recover(final, sigma=backend.sigmas, tau=backend.taus)


# --------------------------------------------------------------------------
# Grover attackers for the one-round sponge and double-sided zero search


def _hadamard_power(m_bits: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return reduce(np.kron, [h1] * m_bits) if m_bits else np.eye(1)


def _subspace_prep(n_bits: int, c: int) -> np.ndarray:
    """|0> -> uniform over {x || 0^c}: Hadamards on the leading n-c bits."""
    return np.kron(_hadamard_power(n_bits - c), np.eye(2 ** c))


def _diffusion(n_bits: int, c: int) -> np.ndarray:
    dim = 2 ** n_bits
    pad = 2 ** c
    psi = np.zeros(dim)
    psi[::pad][:] = 1.0 / math.sqrt(dim // pad)
    return 2.0 * np.outer(psi, psi) - np.eye(dim)


def _structured(matrix: np.ndarray, apply_block: Callable[..., np.ndarray],
                label: str) -> LinearOperator:
    """A real, self-inverse operator applied through its structure, which
    therefore also serves as its adjoint; ``matrix`` stays its dense form.

    Checked once, here, against ``matrix @ block`` on a seeded random
    (2, d, 2) batch: first as returned, then as written into an ``out``
    buffer, the form that ``apply`` runs."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    rng = np.random.default_rng(11)
    shape = (2, len(matrix), 2)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = matrix @ block

    def check(image: np.ndarray) -> None:
        gap = float(np.linalg.norm(image - ref))
        if gap > 1e-12 * max(1.0, float(np.linalg.norm(ref))):
            raise RuntimeError(f"structured {label} differs from its dense matrix "
                               f"by {gap:.3e}")

    check(apply_block(block))
    out = np.empty_like(block)
    apply_block(block, out=out)
    check(out)
    return LinearOperator((len(matrix),), apply_block, apply_block, matrix=matrix,
                          label=label)


def _prep_operator(n_bits: int, c: int) -> LinearOperator:
    """H^{(x)(n-c)} (x) I: one 2^{n-c} x 2^{n-c} product on the reshaped
    block.  H is real, so the product is one float64 GEMM on the real and
    imaginary parts side by side."""
    h = _hadamard_power(n_bits - c)

    def prep(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        block = np.ascontiguousarray(block)
        if out is None:
            out = np.empty_like(block)
        elif not out.flags.c_contiguous:  # its float64 view would be a copy
            raise ValueError("prep writes only into a C-contiguous out")

        def real(a: np.ndarray) -> np.ndarray:
            return a.view(np.float64).reshape(a.shape[:-2] + (len(h), -1))

        np.matmul(h, real(block), out=real(out))
        return out

    return _structured(_subspace_prep(n_bits, c), prep, "prep")


def _diffusion_operator(n_bits: int, c: int) -> LinearOperator:
    """2|psi><psi| - I with psi uniform over {x || 0^c}: a rank-one update."""
    pad = 2 ** c
    weight = 2.0 / 2 ** (n_bits - c)

    def diffuse(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """-block plus the rank-one term on the padded inputs.  -I is a
        multiply by -1.0: numpy's complex128 multiply runs vectorised, its
        negative is about 2.7 times slower on a 65,536-amplitude block."""
        out = np.multiply(block, -1.0, out=out)
        out[..., ::pad, :] += weight * block[..., ::pad, :].sum(axis=-2, keepdims=True)
        return out

    return _structured(_diffusion(n_bits, c), diffuse, "diffuse")


def _grover_outputs(n_bits: int, c: int) -> np.ndarray:
    """The output values 0..2^n - 1, once c is a valid capacity and the
    budget holds the X (x) Y state and the two dense 2^n x 2^n matrices."""
    if not 1 <= c < n_bits:
        raise ValueError(f"capacity must satisfy 1 <= c < n, got c={c}, n={n_bits}")
    dim = 2 ** n_bits
    charge(3 * dim * dim, f"Grover circuit at n_bits={n_bits} (X, Y state and "
           f"two dense {dim} x {dim} matrices)")
    return np.arange(dim)


def _grover_circuit(n_bits: int, c: int, marked: np.ndarray,
                    iterations: int, name: str) -> QueryCircuit:
    """Amplitude amplification over {x || 0^c}; ``marked[y]`` flags the
    outputs y = pi(x) whose phase flips."""
    n = 2 ** n_bits
    prep = LocalUnitary(("X",), _prep_operator(n_bits, c), tag="prep")
    flip = LocalUnitary(("Y",), from_diagonal((n,), np.where(marked, -1.0, 1.0)),
                        tag="flip")
    diffuse = LocalUnitary(("X",), _diffusion_operator(n_bits, c), tag="diffuse")
    steps: list[Step] = [prep]
    for _ in range(iterations):
        steps += [Query("forward"), flip, Query("forward"), diffuse]
    return QueryCircuit(n, tuple(steps), output="x", name=name)


def grover_preimage(n_bits: int, c: int, target: int,
                    iterations: int) -> QueryCircuit:
    """Preimage attack on the one-round sponge f(x) = first n-c bits of
    pi(x || 0^c); two forward queries per iteration (compute, phase, uncompute)."""
    if not 0 <= target < 2 ** (n_bits - c):
        raise ValueError(f"target outside 0..2^{n_bits - c} - 1")
    ys = _grover_outputs(n_bits, c)
    return _grover_circuit(n_bits, c, (ys >> c) == target, iterations,
                           name=f"sponge-n{n_bits}c{c}k{iterations}")


def zero_search_adversary(n_bits: int, c: int, iterations: int) -> QueryCircuit:
    """Find x with pi(x || 0^c) ending in 0^c."""
    ys = _grover_outputs(n_bits, c)
    return _grover_circuit(n_bits, c, (ys & (2 ** c - 1)) == 0, iterations,
                           name=f"zero-n{n_bits}c{c}k{iterations}")


def _row_success(joint: np.ndarray, images: np.ndarray,
                 members: np.ndarray) -> np.ndarray:
    """sum_x joint[k, x] R[x, pi_k(x)] for each row k of an image table and
    each N x N bitset R of ``members`` (one, or a stack), adding the winning
    p(x) in x order."""
    won = np.where(members[..., np.arange(images.shape[1]), images], joint, 0.0)
    return np.cumsum(won, axis=-1)[..., -1]


def success_probability(circ: QueryCircuit, images: Permutation | np.ndarray,
                        rel: Relation | list[Relation], *,
                        work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Exact Born success probability of the X output under each permutation
    of a (K, N) image table, from one run with the table on P (through the
    ``work`` pair of ``run`` when given): (K,) for one relation, (R, K)
    for a list of R relations, all read from that run."""
    members = rel.members if isinstance(rel, Relation) else np.stack([r.members for r in rel])
    if members.shape[-1] != circ.n:
        raise ValueError(f"relation size {members.shape[-1]} != circuit size {circ.n}")
    table = image_table(images)
    # A temporary backend frees its U maps before the readout; holding them
    # longer doubled the page faults of a sampled attack.
    final = run(circ, concrete_backend(table), work=work)
    return _row_success(marginal(final, ("P", "X")), table, members)


def spo_success_probability(circ: QueryCircuit, rel: Relation) -> float:
    """The same success against the SPO backend, read the same way: the
    joint Born weight of database label d and X = x, where R[x, pi_d(x)]."""
    n = circ.n
    if rel.n != n:
        raise ValueError(f"relation size {rel.n} != circuit size {n}")
    final = run(circ, spo_backend(n))
    joint = marginal(final, (*database_names(n), "X")).reshape(-1, n)
    return float(_row_success(joint, perm_tables(n)[0], rel.members).sum())


def grover_reference(marked: int, space: int, iterations: int) -> float:
    """Textbook amplitude amplification: sin^2((2k+1) asin(sqrt(m/M)))."""
    if marked == 0:
        return 0.0
    theta = math.asin(math.sqrt(marked / space))
    return math.sin((2 * iterations + 1) * theta) ** 2


def hypergeometric_pmf(population: int, successes: int, draws: int) -> list[Fraction]:
    """Exact pmf of the marked-count m over a uniform permutation."""
    denom = math.comb(population, draws)
    out = []
    for m in range(draws + 1):
        if m > successes or draws - m > population - successes:
            out.append(Fraction(0))
        else:
            out.append(Fraction(math.comb(successes, m) *
                                math.comb(population - successes, draws - m), denom))
    return out


def averaged_grover_reference(n_bits: int, c: int, iterations: int,
                              kind: str = "sponge") -> float:
    """E over pi of the exact per-pi Grover success, via the hypergeometric
    law of the marked-set size."""
    space = 2 ** (n_bits - c)
    population = 2 ** n_bits
    good = 2 ** c if kind == "sponge" else 2 ** (n_bits - c)
    pmf = hypergeometric_pmf(population, good, space)
    return float(sum(float(p) * grover_reference(m, space, iterations)
                     for m, p in enumerate(pmf)))


# --------------------------------------------------------------------------
# Line-oriented circuit text format
#
# Grammar (one directive per line, '#' starts a comment):
#   n <N>                  oracle size (power of two for XOR queries)
#   work <dim>             work register dimension (default 1)
#   output x|xy            declared classical output (default x)
#   load <v>               X += v (mod N) basis shift
#   query fwd|inv          one oracle query
#   unitary <R1[,R2...]> seed=<int>   seeded Haar-ish unitary on registers
#   name <text>            optional circuit name


def parse_circuit(text: str) -> QueryCircuit:
    n: int | None = None
    work = 1
    output = "x"
    name = ""
    pending: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "n":
                n = int(parts[1])
            elif kind == "work":
                work = int(parts[1])
            elif kind == "output":
                output = parts[1]
                if output not in ("x", "xy"):
                    raise ValueError(f"output must be x or xy, got {output}")
            elif kind == "name":
                name = " ".join(parts[1:])
            elif kind == "load":
                pending.append(("load", int(parts[1])))
            elif kind == "query":
                d = {"fwd": "forward", "forward": "forward",
                     "inv": "inverse", "inverse": "inverse"}[parts[1]]
                pending.append(("query", d))
            elif kind == "unitary":
                regs = tuple(r.strip() for r in parts[1].split(","))
                seed = None
                for p in parts[2:]:
                    if p.startswith("seed="):
                        seed = int(p.split("=", 1)[1])
                if seed is None:
                    raise ValueError("unitary requires seed=<int>")
                pending.append(("unitary", regs, seed))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"circuit file line {lineno}: {exc}") from exc
    if n is None:
        raise ValueError("circuit file must declare 'n <N>'")
    dims = {"A": work, "X": n, "Y": n}
    steps: list[Step] = []
    for item in pending:
        if item[0] == "load":
            steps.append(LocalUnitary(("X",), shift_operator(n, item[1]),
                                      tag=f"load{item[1]}"))
        elif item[0] == "query":
            steps.append(Query(item[1]))
        else:
            _, regs, seed = item
            if not set(regs) <= set(dims):
                raise ValueError(f"unitary registers {regs} unavailable")
            rng = np.random.default_rng(seed)
            tdims = tuple(dims[r] for r in regs)
            mat = haar_unitary(math.prod(tdims), rng)
            steps.append(LocalUnitary(regs, from_matrix(mat, tdims),
                                      tag=f"u-seed{seed}"))
    return QueryCircuit(n, tuple(steps), work_dim=work, output=output, name=name)
