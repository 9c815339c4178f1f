"""Quantum-accessible permutation oracles on registers X, Y, D.

An :class:`OracleBackend` is one of two oracles:

* concrete (it holds ``images``): the XOR unitaries U^pi, U^{pi^{-1}} on
  X, Y for each row of a (K, N) table of permutations, selected by a
  classical label register P, with no database; the in-place variants V^pi
  act on X alone.
* database (no ``images``): the superposition permutation oracle.  The
  database D is a block of registers D_n ... D_1 whose flat index is the
  mixed-radix factor label of a permutation; queries XOR pi(x) (or its
  inverse) into Y, controlled on the database in the permutation basis.
  Given sigma and tau it is the twirled oracle, the same query on the
  database relabelled by L^tau R^sigma.

Database queries are basis permutations of the joint (X, Y, D) space,
applied as pure index shuffles backed by precomputed tables pi_d(x) and
pi_d^{-1}(x) for every database label d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .permutations import Permutation, SizeLimitError, invert
from .states import (
    CQEnsemble,
    LayoutError,
    LinearOperator,
    RegisterLayout,
    StateVector,
    apply,
    database_layout,
    database_names,
    from_permutation,
    product_uniform,
)

# Full-database simulation ceiling (8! = 40320 labels) and the overall
# amplitude budget for any joint state.
EXACT_DB_LIMIT = 8
AMPLITUDE_BUDGET = 2 ** 28


class BudgetError(ValueError):
    """A requested simulation exceeds the amplitude budget."""


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _require_xor(n: int) -> None:
    if not is_power_of_two(n):
        raise ValueError(f"XOR oracle semantics requires N = 2^n, got N={n}")


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    return math.factorial(n)


def database_dim(n: int) -> int:
    return factorial(n)


# --------------------------------------------------------------------------
# Mixed-radix label machinery


def _digits_from_indices(n: int, idx: np.ndarray) -> np.ndarray:
    """Factor digits t_k = (idx // k!) % (k+1), shape (m, n)."""
    out = np.zeros((idx.shape[0], n), dtype=np.int64)
    for k in range(1, n):
        out[:, k] = (idx // factorial(k)) % (k + 1)
    return out


def _compose_digit_batch(t: np.ndarray) -> np.ndarray:
    """Compose <n-1 t_{n-1}> ... <0 t_0> for each row of digits."""
    m, n = t.shape
    images = np.tile(np.arange(n, dtype=np.int64), (m, 1))
    inv = images.copy()
    rows = np.arange(m)
    for k in range(1, n):
        tk = t[:, k]
        i1 = inv[rows, k]
        i2 = inv[rows, tk]
        images[rows, i1] = tk
        images[rows, i2] = k
        inv[rows, k] = i2
        inv[rows, tk] = i1
    return images


@lru_cache(maxsize=None)
def perm_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pi_table, inv_table): pi_table[d, x] = pi_d(x) for every label d."""
    if n > EXACT_DB_LIMIT:
        raise SizeLimitError(f"database tables capped at n={EXACT_DB_LIMIT}")
    nf = factorial(n)
    digits = _digits_from_indices(n, np.arange(nf))
    pi = _compose_digit_batch(digits)
    inv = np.empty_like(pi)
    inv[np.arange(nf)[:, None], pi] = np.arange(n)[None, :]
    pi.setflags(write=False)
    inv.setflags(write=False)
    return pi, inv


@lru_cache(maxsize=None)
def _label_codes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(codes, labels): the codes sum_k pi_d(k) n^k of every label d, sorted,
    and the label of each sorted code."""
    pi, _ = perm_tables(n)
    codes = pi @ n ** np.arange(n)
    labels = np.argsort(codes)
    return codes[labels], labels


def left_right_map(n: int, tau: Permutation | None = None,
                   sigma: Permutation | None = None) -> np.ndarray:
    """Label map d -> index(tau o pi_d o sigma^{-1}).

    This is the basis action of L^tau R^sigma on the database; each image
    row is looked up by its code in the sorted codes of perm_tables(n).
    """
    pi, _ = perm_tables(n)
    images = pi
    if sigma is not None:
        sigma_inv = np.array(invert(sigma).images)
        images = images[:, sigma_inv]
    if tau is not None:
        tau_arr = np.array(tau.images)
        images = tau_arr[images]
    codes, labels = _label_codes(n)
    return labels[np.searchsorted(codes, images @ n ** np.arange(n))]


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
    xs = np.arange(k * n).reshape(k, n, 1)  # flat (k, x)
    mapping = (xs * n + (np.arange(n) ^ table[:, :, None])).reshape(-1)
    return from_permutation((k, n, n), mapping,
                            label=f"U^pi{'^-1' if inverse else ''}")


def v_oracle(p: Permutation, inverse: bool = False) -> LinearOperator:
    """In-place oracle on X: |x> -> |pi^{+-1}(x)>; any N."""
    images = np.array((invert(p) if inverse else p).images)
    return from_permutation((p.n,), images,
                            label=f"V^pi{'^-1' if inverse else ''}")


def cnot_operator(n: int) -> LinearOperator:
    """|y,z> -> |y, z xor y> on two N-dim registers (control first)."""
    _require_xor(n)
    y = np.arange(n)[:, None]
    z = np.arange(n)[None, :]
    mapping = (y * n + (z ^ y)).reshape(-1)
    return from_permutation((n, n), mapping, label="CNOT")


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
    if n > EXACT_DB_LIMIT:
        raise SizeLimitError(f"full database simulation capped at n={EXACT_DB_LIMIT}")
    return product_uniform(database_layout(n))


@lru_cache(maxsize=None)
def _shift_table(n: int, direction: str,
                 sigma_images: tuple[int, ...] | None,
                 tau_images: tuple[int, ...] | None) -> np.ndarray:
    """v[x, d]: the value XORed into Y for input x on database label d."""
    pi, inv = perm_tables(n)
    if direction == "forward":
        base, pre, post = pi, sigma_images, tau_images
    elif direction == "inverse":
        base, pre, post = inv, tau_images, sigma_images
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    xs = np.arange(n)
    if pre is not None:
        xs = np.array(pre)[xs]
    table = base[:, xs].T.copy()  # (n, n!)
    if post is not None:
        post_inv = np.empty(n, dtype=np.int64)
        post_inv[np.array(post)] = np.arange(n)
        table = post_inv[table]
    table.setflags(write=False)
    return table


def _xy_db_view(state: StateVector, n: int) -> np.ndarray:
    """View as (rest, N, N, N!) requiring X, Y, then the D block trailing."""
    lay = state.layout
    names = lay.names
    db = database_names(n)
    if names[-len(db):] != db or names[-len(db) - 2: -len(db)] != ("X", "Y"):
        raise LayoutError("expected registers ..., X, Y, D_n..D_1")
    nf = database_dim(n)
    return state.amps.reshape(-1, n, n, nf)


def spo_query(state: StateVector, direction: str,
              sigma: Permutation | None = None,
              tau: Permutation | None = None) -> StateVector:
    """One (possibly twirled) oracle query; D is untouched (control only)."""
    n = state.layout.dim("X")
    _require_xor(n)
    shift = _shift_table(
        n, direction,
        None if sigma is None else sigma.images,
        None if tau is None else tau.images,
    )
    arr = _xy_db_view(state, n)
    out = np.empty_like(arr)
    nf = arr.shape[-1]
    y_idx = np.arange(n)[:, None]
    d_idx = np.arange(nf)[None, :]
    for x in range(n):
        src_y = y_idx ^ shift[x][None, :]
        out[:, x, :, :] = arr[:, x, src_y, d_idx]
    return StateVector(state.layout, out.reshape(-1))


def query_slice_map(n: int, x: int, direction: str,
                    sigma: Permutation | None = None,
                    tau: Permutation | None = None) -> np.ndarray:
    """The (y, d) basis map of O^{SPO,x} on Y (x) D, d varying fastest:
    |y, d> -> |y + v[x, d], d> for the (twirled) shift table v of spo_query.

    The Y action is XOR for power-of-two N and addition mod N otherwise;
    the Gamma-commutator analysis only needs *some* group shift by pi_d(x),
    so the non-power-of-two sizes of its growth check are covered too.
    """
    shift = _shift_table(n, direction,
                         None if sigma is None else sigma.images,
                         None if tau is None else tau.images)[x]
    y_grid = np.arange(n)[:, None]
    if is_power_of_two(n):
        ys = y_grid ^ shift[None, :]
    else:
        ys = (y_grid + shift[None, :]) % n
    nf = shift.size
    return (ys * nf + np.arange(nf)[None, :]).reshape(-1)


def twirl(state: StateVector, side: str, perm: Permutation) -> StateVector:
    """L^tau (side='left': |pi> -> |tau pi>) or R^sigma (|pi> -> |pi sigma^{-1}>)."""
    n = perm.n
    if side == "left":
        mapping = left_right_map(n, tau=perm)
    elif side == "right":
        mapping = left_right_map(n, sigma=perm)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    nf = database_dim(n)
    arr = state.amps.reshape(-1, nf)
    out = np.empty_like(arr)
    out[:, mapping] = arr
    return StateVector(state.layout, out.reshape(-1))


def spo_recover(state: StateVector, sigma: Permutation | None = None,
                tau: Permutation | None = None) -> CQEnsemble:
    """Full computational-basis readout of D as a label table.

    Row d is labelled by the one-line images of pi_d, which the TSPO variant
    relabels as tau^{-1} pi_d sigma.  Residual states keep all non-database
    registers and are subnormalized by the outcome amplitude.
    """
    lay = state.layout
    n = _db_size_from_layout(lay)
    labels, _ = perm_tables(n)
    if sigma is not None:
        labels = labels[:, np.array(sigma.images)]
    if tau is not None:
        labels = np.array(invert(tau).images)[labels]
    amps = np.ascontiguousarray(state.amps.reshape(-1, database_dim(n)).T)
    return CQEnsemble(labels, lay.drop(database_names(n)), amps)


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
    lo = factorial(x)
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
    mean = view.mean(axis=-2, keepdims=True)
    out = (view - mean) if complement else np.broadcast_to(mean, view.shape)
    return np.ascontiguousarray(out).reshape(shape)


# --------------------------------------------------------------------------
# Oracle backends


@dataclass(frozen=True, eq=False)
class OracleBackend:
    """Dispatch point for query application during circuit runs.

    A backend holding ``images``, a (K, N) table of one-line images, is the
    concrete oracle: U^{pi_k} on X, Y for label k of the register P.
    Without it, it is the database oracle, twirled by ``sigma``/``tau`` when
    given.
    """

    n: int
    images: np.ndarray | None = None
    sigma: Permutation | None = None
    tau: Permutation | None = None

    def __post_init__(self) -> None:
        if self.images is not None:
            if self.sigma is not None or self.tau is not None:
                raise ValueError("a concrete backend takes no sigma or tau; "
                                 "twirl the database oracle instead")
            table = image_table(self.images)
            if table.shape[1] != self.n:
                raise ValueError(f"concrete backend needs permutations of size "
                                 f"{self.n}, got width {table.shape[1]}")
            object.__setattr__(self, "images", table)
            return
        if self.n > EXACT_DB_LIMIT:
            raise SizeLimitError(
                f"full database simulation capped at n={EXACT_DB_LIMIT}")
        if any(p is not None and p.n != self.n for p in (self.sigma, self.tau)):
            raise ValueError("sigma and tau must be permutations of size n")

    @property
    def has_database(self) -> bool:
        return self.images is None

    def query(self, state: StateVector, direction: str) -> StateVector:
        if self.images is not None:
            return self._concrete_query(state, direction)
        return spo_query(state, direction, sigma=self.sigma, tau=self.tau)

    # U^pi and U^{pi^{-1}} are built once per backend, on first use; they
    # live as long as the backend, so nothing outlives a trial.
    @cached_property
    def _u_forward(self) -> LinearOperator:
        return u_oracle(self.images)

    @cached_property
    def _u_inverse(self) -> LinearOperator:
        return u_oracle(self.images, inverse=True)

    def _concrete_query(self, state: StateVector, direction: str) -> StateVector:
        """U^pi (forward) or U^{pi^{-1}} (inverse) applied on P, X, Y."""
        op = self._u_inverse if direction == "inverse" else self._u_forward
        return apply(op, state, ("P", "X", "Y"))


def concrete_backend(perms: Permutation | np.ndarray) -> OracleBackend:
    """The concrete oracle over one permutation or a (K, N) image table."""
    table = image_table(perms)
    return OracleBackend(table.shape[1], images=table)


def spo_backend(n: int, sigma: Permutation | None = None,
                tau: Permutation | None = None) -> OracleBackend:
    """The database oracle; with sigma/tau, its twirl by L^tau R^sigma."""
    return OracleBackend(n, sigma=sigma, tau=tau)
