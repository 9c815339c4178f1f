"""Quantum-accessible permutation oracles on registers X, Y, D.

An :class:`OracleBackend` runs one normalized circuit run per label k of a
leading classical register P, against row k of a (K, N) table:

* concrete (it holds ``images``): the XOR unitaries U^pi, U^{pi^{-1}} on
  X, Y for each row of a table of permutations, with no database; the
  in-place variants V^pi act on X (on P, X for a table).
* database (no ``images``): the superposition permutation oracle.  The
  database D is a block of registers D_n ... D_1 whose flat index is the
  mixed-radix factor label of a permutation; queries XOR pi(x) (or its
  inverse) into Y, controlled on the database in the permutation basis.
  Row k of the tables ``sigmas`` and ``taus`` twirls it: the same query on
  the database relabelled by L^{tau_k} R^{sigma_k}.  The untwirled oracle
  is the one-row identity pair.

Database queries are basis permutations of the joint (X, Y, D) space,
applied as pure index shuffles read from one (K, N, N!) shift table: the
value shifted into Y for every row k, input x and database label d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .permutations import EXACT_ENUM_LIMIT, Permutation, SizeLimitError, all_images
from .states import (
    CQEnsemble,
    LayoutError,
    LinearOperator,
    RegisterLayout,
    StateVector,
    _basis_map,
    apply,
    database_layout,
    database_names,
    from_permutation,
    product_uniform,
    result_buffer,
)

# The amplitude budget for any joint state.  Full-database simulation shares
# the ceiling of exact enumeration, EXACT_ENUM_LIMIT (8! = 40320 labels).
AMPLITUDE_BUDGET = 2 ** 28


class BudgetError(ValueError):
    """A requested simulation exceeds the amplitude budget."""


def charge(entries: int, what: str) -> None:
    """Refuse ``entries`` array entries over AMPLITUDE_BUDGET, before any exist."""
    if entries > AMPLITUDE_BUDGET:
        raise BudgetError(f"{what}: {entries} entries, over the amplitude "
                          f"budget {AMPLITUDE_BUDGET}")


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _require_xor(n: int) -> None:
    if not is_power_of_two(n):
        raise ValueError(f"XOR oracle semantics requires N = 2^n, got N={n}")


def database_dim(n: int) -> int:
    return math.factorial(n)


# --------------------------------------------------------------------------
# Mixed-radix label machinery


@lru_cache(maxsize=None)
def perm_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pi_table, inv_table): pi_table[d, x] = pi_d(x) for every label d."""
    if n > EXACT_ENUM_LIMIT:
        raise SizeLimitError(f"database tables capped at n={EXACT_ENUM_LIMIT}")
    pi = all_images(n)  # label d has the factor digits t_k = (d // k!) % (k+1)
    inv = np.argsort(pi, axis=1)
    pi.setflags(write=False)
    inv.setflags(write=False)
    return pi, inv


def _lehmer_ranks(rows: np.ndarray) -> np.ndarray:
    """The Lehmer rank sum_k c_k (n-1-k)!, c_k = #{j > k : p(j) < p(k)}, of
    every column p of an (n, ...) int8 image table, in the trailing shape."""
    ranks = np.zeros(rows.shape[1:], dtype=np.int32)  # below 8! = 40320
    for i in range(len(rows) - 1):
        count = (rows[i + 1:] < rows[i]).sum(axis=0, dtype=np.int8)
        ranks += count * np.int32(math.factorial(len(rows) - 1 - i))
    return ranks


@lru_cache(maxsize=None)
def _rank_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, labels): the int8 image table transposed, rows[k, d] = pi_d(k),
    so that each position is one contiguous row, and the label of every
    Lehmer rank, labels[rank(pi_d)] = d."""
    pi, _ = perm_tables(n)
    rows = np.ascontiguousarray(pi.T, dtype=np.int8)
    labels = np.empty(math.factorial(n), dtype=np.intp)
    labels[_lehmer_ranks(rows)] = np.arange(math.factorial(n))
    rows.setflags(write=False)
    labels.setflags(write=False)
    return rows, labels


def rank_labels(rows: np.ndarray) -> np.ndarray:
    """The label d of every permutation pi_d given as a column of an
    (n, ...) image table, position first, in the trailing shape."""
    return _rank_tables(len(rows))[1].take(_lehmer_ranks(rows))


def left_right_map(n: int, tau: Permutation | np.ndarray | None = None,
                   sigma: Permutation | np.ndarray | None = None) -> np.ndarray:
    """Label map d -> index(tau o pi_d o sigma^{-1}) (permutations or image rows).

    This is the basis action of L^tau R^sigma on the database: the image
    rows of every label are permuted (position k reads row sigma^{-1}(k),
    values pass through tau) and ranked (rank_labels).  A (K, N) table of
    taus or sigmas, against one permutation or a table of as many rows,
    gives its K joint maps as a (K, N!) array, ranked in one pass; the map
    is 1-D unless an argument is 2-D.
    """
    rows = _rank_tables(n)[0][:, None]  # (position, row k, label)
    if tau is not None:
        rows = image_table(tau).astype(np.int8).take(rows[:, 0], axis=1).transpose(1, 0, 2)
    if sigma is not None:  # unequal row counts do not broadcast: IndexError
        order = np.argsort(image_table(sigma), axis=1).T  # column k: sigma_k^{-1}
        rows = rows[order, np.arange(rows.shape[1])]
    maps = rank_labels(rows)
    return maps if np.ndim(tau) == 2 or np.ndim(sigma) == 2 else maps[0]


# --------------------------------------------------------------------------
# Concrete oracles


def image_table(perms: Permutation | np.ndarray) -> np.ndarray:
    """A read-only (K, N) table of one-line images, K >= 1; one permutation
    is the table with K = 1."""
    table = np.array(getattr(perms, "images", perms), dtype=np.int64, ndmin=2)
    if table.ndim != 2 or not table.size or (
            np.sort(table, axis=1) != np.arange(table.shape[1])).any():
        raise ValueError(f"expected a (K, N) table whose rows are permutations "
                         f"of 0..N-1, got {table.shape}")
    table.setflags(write=False)
    return table


def u_oracle(images: Permutation | np.ndarray,
             inverse: bool = False) -> LinearOperator:
    """XOR oracle on P (x) X (x) Y for a (K, N) table of one-line images:
    |k, x, y> -> |k, x, y xor pi_k^{+-1}(x)>."""
    table = image_table(images)
    k, n = table.shape
    _require_xor(n)
    if inverse:  # row k of the argsort is the one-line form of pi_k^{-1}
        table = np.argsort(table, axis=1)
    # The flat index j = (k n + x) n + y keeps y in its low bits, so the
    # image of j is j xor pi_k(x): one allocation, one in-place XOR.  XOR
    # with a value below n = 2^b permutes 0..n-1 and is its own inverse, so
    # the map is a bijection that gathers through itself, and it stays
    # writeable, since np.take copies an index it may not write to.
    mapping = np.arange(k * n * n).reshape(k * n, n)
    mapping ^= table.reshape(-1, 1)
    mapping = mapping.reshape(-1)
    return _basis_map((k, n, n), mapping, mapping,
                      label=f"U^pi{'^-1' if inverse else ''}")


def v_oracle(images: Permutation | np.ndarray,
             inverse: bool = False) -> LinearOperator:
    """In-place oracle on P (x) X for a (K, N) table of one-line images:
    |k, x> -> |k, pi_k^{+-1}(x)>; any N."""
    table = image_table(images)
    if inverse:
        table = np.argsort(table, axis=1)
    k, n = table.shape
    mapping = (np.arange(k)[:, None] * n + table).reshape(-1)
    return from_permutation((k, n), mapping,
                            label=f"V^pi{'^-1' if inverse else ''}")


# SWAP and CNOT are built once per n and shared, so every circuit that
# applies them on one layout reads one cached gather index (states.apply).
@lru_cache(maxsize=None)
def cnot_operator(n: int) -> LinearOperator:
    """|y,z> -> |y, z xor y> on two N-dim registers (control first)."""
    _require_xor(n)
    y = np.arange(n)[:, None]
    z = np.arange(n)[None, :]
    mapping = (y * n + (z ^ y)).reshape(-1)
    return from_permutation((n, n), mapping, label="CNOT")


@lru_cache(maxsize=None)
def swap_operator(n: int) -> LinearOperator:
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    mapping = (b * n + a).reshape(-1)
    return from_permutation((n, n), mapping, label="SWAP")


def shift_operator(n: int, v: int) -> LinearOperator:
    """|x> -> |x + v mod n>; loads |v> when applied to |0>."""
    mapping = (np.arange(n) + v) % n
    return from_permutation((n,), mapping, label=f"shift+{v}")


# --------------------------------------------------------------------------
# Superposition permutation oracle


def spo_init(n: int) -> StateVector:
    """The fresh database: every register uniform, i.e. uniform over S_n."""
    if n > EXACT_ENUM_LIMIT:
        raise SizeLimitError(f"full database simulation capped at n={EXACT_ENUM_LIMIT}")
    return product_uniform(database_layout(n))


def shift_table(n: int, direction: str,
                sigmas: Permutation | np.ndarray | None = None,
                taus: Permutation | np.ndarray | None = None) -> np.ndarray:
    """v[k, x, d]: the value shifted into Y for input x on database label d
    under row k of the (K, N) sigma and tau tables (one permutation is a
    one-row table, None the identity): tau_k^{-1} pi_d sigma_k (x) forward,
    sigma_k^{-1} pi_d^{-1} tau_k (x) inverse."""
    pi, inv = perm_tables(n)
    if direction == "forward":
        base, pre, post = pi, sigmas, taus
    elif direction == "inverse":
        base, pre, post = inv, taus, sigmas
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    ident = np.arange(n)[None, :]
    pre = ident if pre is None else image_table(pre)
    post_inv = ident if post is None else np.argsort(image_table(post), axis=1)
    table = base[:, pre].transpose(1, 2, 0)  # (K, n, n!): pi_d(pre_k(x))
    return post_inv[np.arange(len(post_inv))[:, None, None], table]


def joint_maps(shift: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The (K, b * N * N!) basis maps |x, y, d> -> |x, y + v[k, x, d], d> of
    O^SPO on X (x) Y (x) D for the b inputs x in [start, stop) (all N by
    default), one per row k of a shift table v, as flat (x, y, d) indices
    with d fastest.  The Y action is XOR for power-of-two N and addition
    mod N otherwise: the Gamma-commutator analysis only needs *some* group
    shift by pi_d(x), so its growth check covers the non-power-of-two sizes
    too."""
    k, n, nf = shift.shape
    stop = n if stop is None else stop
    ys, v = np.arange(n)[:, None], shift[:, start:stop, None, :]
    index = ys ^ v if is_power_of_two(n) else (ys + v) % n  # (K, b, N, N!)
    index += np.arange(start, stop)[:, None, None] * n
    index *= nf
    index += np.arange(nf)
    return index.reshape(k, -1)


def query_slice_map(n: int, x: int, direction: str,
                    sigma: Permutation | None = None,
                    tau: Permutation | None = None) -> np.ndarray:
    """The (y, d) basis map of O^{SPO,x} on Y (x) D for one (sigma, tau)."""
    joint = joint_maps(shift_table(n, direction, sigma, tau), x, x + 1)[0]
    return joint - x * n * math.factorial(n)


def spo_query(state: StateVector, shift: np.ndarray,
              out: np.ndarray | None = None) -> StateVector:
    """One oracle query per run on P: row k of the (K, N, N!) shift table
    acts on the run of label k (a state without P is one run); D is
    untouched (control only).  The result goes into ``out`` when given.

    The state is viewed as (K, rest, N, N * N!), rest being the registers
    between P and X, so an x-slab, the amplitudes with one value of X, is
    K * rest * N * N! of them.  The query gathers through the joint maps of
    blocks of min(N, rest) values of x, built per block: no index has more
    entries than one x-slab, and nothing outlives the call.  A block is one
    np.take per run, its index shared by every rest row of the run.  With
    rest = 1 and K >= N, a block is instead K // N whole runs, every x, in
    one flat take: about N takes per query, not K * N."""
    k, n, nf = shift.shape
    _require_xor(n)
    lay = state.layout
    runs = lay.shape[0] if lay.names[0] == "P" else 1
    if lay.names[-n - 2:] != ("X", "Y", *database_names(n)) or runs != k:
        raise LayoutError(f"expected P ({k} runs), ..., X, Y, D_n..D_1: {lay.names}")
    width = n * nf  # the (y, d) block of one x
    src = state.amps.reshape(k, -1, n * width)
    res = result_buffer(state, out)
    dst = res.reshape(src.shape)
    if src.shape[1] == 1 and k >= n:
        src, dst = src.reshape(k, -1), dst.reshape(k, -1)
        group = k // n
        for first in range(0, k, group):
            runs = slice(first, first + group)
            index = joint_maps(shift[runs])
            index += np.arange(len(index))[:, None] * n * width  # run offsets
            np.take(src[runs], index, out=dst[runs], mode="clip")
            del index
        return StateVector(lay, res)
    step = min(n, src.shape[1])
    for start in range(0, n, step):
        stop = min(n, start + step)
        # An XOR map is its own inverse, so it gathers too.
        index = joint_maps(shift, start, stop)
        cols = slice(start * width, stop * width)
        for row, (run, image) in enumerate(zip(src, dst)):
            # A bijection never clips; mode "raise" would buffer the output,
            # as np.take does anyway for a partial block of a run whose
            # 1 < rest < N rows make image[:, cols] a strided view.
            np.take(run, index[row], axis=1, out=image[:, cols], mode="clip")
        del index  # so that the next block's index is the only one alive
    return StateVector(lay, res)


def spo_recover(state: StateVector, sigma: Permutation | np.ndarray | None = None,
                tau: Permutation | np.ndarray | None = None,
                row: int = 0) -> CQEnsemble:
    """Full computational-basis readout of D in the run on label ``row`` of
    P (a state without P is one run) as a label table.  Row d is labelled
    by the one-line images of pi_d, which the TSPO variant relabels as
    tau^{-1} pi_d sigma, read from row ``row`` of K-row tables (one row
    serves every run).  Residual states keep all registers but P and D,
    and are subnormalized by the outcome amplitude."""
    lay = state.layout
    n = _db_size_from_layout(lay)
    labels, _ = perm_tables(n)
    if sigma is not None:
        sigmas = image_table(sigma)
        labels = labels[:, sigmas[row if len(sigmas) > 1 else 0]]
    if tau is not None:
        taus = image_table(tau)
        labels = np.argsort(taus[row if len(taus) > 1 else 0])[labels]
    runs = state.amps.reshape(lay.dim("P") if lay.has("P") else 1, -1, database_dim(n))
    amps = np.ascontiguousarray(runs[row].T)
    return CQEnsemble(labels, lay.drop(("P", *database_names(n))), amps)


def _db_size_from_layout(lay: RegisterLayout) -> int:
    sizes = [int(name[1:]) for name in lay.names if name.startswith("D")]
    if not sizes:
        raise LayoutError("layout carries no database registers")
    return max(sizes)


# --------------------------------------------------------------------------
# Database register projections (used throughout the lemma checks)


def db_register_geometry(n: int, x: int) -> tuple[int, int, int]:
    """(hi, radix, lo) block sizes exposing register D_{x+1} in the flat label."""
    if not 0 <= x < n:
        raise ValueError(f"element {x} outside 0..{n - 1}")
    radix = x + 1
    lo = math.factorial(x)
    hi = database_dim(n) // (radix * lo)
    return hi, radix, lo


def project_plus_db(block: np.ndarray, n: int, x: int,
                    complement: bool = False) -> np.ndarray:
    """Apply |+_{x+1}><+_{x+1}| (or its complement) on D_{x+1}.

    ``block`` has the database label as its last axis.
    """
    hi, radix, lo = db_register_geometry(n, x)
    shape = block.shape
    view = block.reshape(shape[:-1] + (hi, radix, lo))
    mean = view.sum(axis=-2, keepdims=True)
    mean *= 1.0 / radix  # numpy divides complex by real so: the same bits, faster
    out = (view - mean) if complement else np.broadcast_to(mean, view.shape)
    return np.ascontiguousarray(out).reshape(shape)


# --------------------------------------------------------------------------
# Oracle backends


@dataclass(frozen=True, eq=False)
class OracleBackend:
    """Dispatch point for query application during circuit runs.

    Every run leads with the classical label register P: label k carries
    one normalized run against row k of the backend's table.  A backend
    holding ``images``, a (K, N) table of one-line images, is the concrete
    oracle: U^{pi_k} on X, Y.  Without it, it is the database oracle
    twirled by L^{tau_k} R^{sigma_k}, from the (K, N) tables ``sigmas`` and
    ``taus``, a one-row or missing (identity) table paired with every row,
    as in shift_table; with neither it is the untwirled oracle on one row.
    """

    n: int
    images: np.ndarray | None = None
    sigmas: np.ndarray | None = None
    taus: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.images is not None:
            if self.sigmas is not None or self.taus is not None:
                raise ValueError("a concrete backend takes no sigma or tau; "
                                 "twirl the database oracle instead")
            object.__setattr__(self, "images", self._table(self.images))
            return
        if self.n > EXACT_ENUM_LIMIT:
            raise SizeLimitError(
                f"full database simulation capped at n={EXACT_ENUM_LIMIT}")
        tables = [image_table(np.arange(self.n)) if t is None else self._table(t)
                  for t in (self.sigmas, self.taus)]
        rows = {len(t) for t in tables} - {1} or {1}
        if len(rows) > 1:
            raise ValueError(f"sigma and tau tables have unequal row counts {rows}")
        shape = (rows.pop(), self.n)
        for name, table in zip(("sigmas", "taus"), tables):
            object.__setattr__(self, name, np.broadcast_to(table, shape))

    def _table(self, perms: Permutation | np.ndarray) -> np.ndarray:
        table = image_table(perms)
        if table.shape[1] != self.n:
            raise ValueError(f"backend needs permutations of size {self.n}, "
                             f"got width {table.shape[1]}")
        return table

    @property
    def has_database(self) -> bool:
        return self.images is None

    @property
    def rows(self) -> int:
        """The dimension of P: one run per row of the backend's table."""
        return len(self.sigmas if self.has_database else self.images)

    def query(self, state: StateVector, direction: str,
              out: np.ndarray | None = None) -> StateVector:
        """One query on every run, written into ``out`` when given."""
        if self.images is not None:
            return self._concrete_query(state, direction, out)
        inverse = direction == "inverse"
        return spo_query(state, self._shift_inverse if inverse else self._shift_forward,
                         out=out)

    # U^pi, U^{pi^{-1}} and the shift tables are built once per backend, on
    # first use; they live as long as the backend, so nothing outlives a trial.
    @cached_property
    def _u_forward(self) -> LinearOperator:
        return u_oracle(self.images)

    @cached_property
    def _u_inverse(self) -> LinearOperator:
        return u_oracle(self.images, inverse=True)

    @cached_property
    def _shift_forward(self) -> np.ndarray:
        return shift_table(self.n, "forward", self.sigmas, self.taus)

    @cached_property
    def _shift_inverse(self) -> np.ndarray:
        return shift_table(self.n, "inverse", self.sigmas, self.taus)

    def _concrete_query(self, state: StateVector, direction: str,
                        out: np.ndarray | None = None) -> StateVector:
        """U^pi (forward) or U^{pi^{-1}} (inverse) applied on P, X, Y."""
        op = self._u_inverse if direction == "inverse" else self._u_forward
        return apply(op, state, ("P", "X", "Y"), out=out)


def concrete_backend(perms: Permutation | np.ndarray) -> OracleBackend:
    """The concrete oracle over one permutation or a (K, N) image table."""
    table = image_table(perms)
    return OracleBackend(table.shape[1], images=table)


def spo_backend(n: int, sigma: Permutation | np.ndarray | None = None,
                tau: Permutation | np.ndarray | None = None) -> OracleBackend:
    """The database oracle; with sigma/tau (permutations or (K, N) tables),
    its twirl by L^{tau_k} R^{sigma_k} on each label k of P."""
    return OracleBackend(n, sigmas=sigma, taus=tau)
