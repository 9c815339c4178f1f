"""Quantum-accessible permutation oracles on registers X, Y, D.

Three oracle modes:

* ``concrete``: XOR unitaries U^pi, U^{pi^{-1}} for a fixed permutation
  (no database); the in-place variants V^pi act on X alone.
* ``spo``: the superposition permutation oracle.  The database D is a block
  of registers D_n ... D_1 whose flat index is the mixed-radix factor label
  of a permutation; queries XOR pi(x) (or its inverse) into Y, controlled on
  the database in the permutation basis.
* ``tspo``: the twirled variant with fixed sigma, tau pre/post-composed.

All query operators are basis permutations of the joint (X, Y, D) space and
are applied as pure index shuffles backed by precomputed tables pi_d(x) and
pi_d^{-1}(x) for every database label d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .permutations import (
    MonotoneFactorization,
    Permutation,
    SizeLimitError,
    compose,
    compose_from_factors,
    invert,
    monotone_factorize,
)
from .states import (
    CQEnsemble,
    LayoutError,
    LinearOperator,
    RegisterLayout,
    StateVector,
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


def _factorize_batch(images: np.ndarray) -> np.ndarray:
    """Indices of each one-line row under the mixed-radix labeling."""
    p = images.astype(np.int64).copy()
    m, n = p.shape
    inv = np.empty_like(p)
    rows_col = np.arange(m)[:, None]
    inv[rows_col, p] = np.arange(n)[None, :]
    rows = np.arange(m)
    idx = np.zeros(m, dtype=np.int64)
    for k in range(n - 1, 0, -1):
        tk = p[rows, k].copy()
        idx += tk * factorial(k)
        i1 = inv[rows, k]
        i2 = inv[rows, tk]
        p[rows, i1] = tk
        p[rows, i2] = k
        inv[rows, k] = i2
        inv[rows, tk] = i1
    return idx


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


def index_of_perm(p: Permutation) -> int:
    f = monotone_factorize(p)
    return sum(tk * factorial(k) for k, tk in enumerate(f.t))


def perm_of_index(n: int, d: int) -> Permutation:
    digits = _digits_from_indices(n, np.array([d]))[0]
    return compose_from_factors(MonotoneFactorization(tuple(int(v) for v in digits)))


def left_right_map(n: int, tau: Permutation | None = None,
                   sigma: Permutation | None = None) -> np.ndarray:
    """Label map d -> index(tau o pi_d o sigma^{-1}).

    This is the basis action of L^tau R^sigma on the database.
    """
    pi, _ = perm_tables(n)
    images = pi
    if sigma is not None:
        sigma_inv = np.array(invert(sigma).images)
        images = images[:, sigma_inv]
    if tau is not None:
        tau_arr = np.array(tau.images)
        images = tau_arr[images]
    return _factorize_batch(images)


# --------------------------------------------------------------------------
# Concrete oracles


def u_oracle(p: Permutation, inverse: bool = False) -> LinearOperator:
    """XOR oracle on X (x) Y: |x,y> -> |x, y xor pi^{+-1}(x)>."""
    n = p.n
    _require_xor(n)
    images = np.array((invert(p) if inverse else p).images)
    x = np.arange(n)[:, None]
    y = np.arange(n)[None, :]
    mapping = (x * n + (y ^ images[:, None])).reshape(-1)
    return from_permutation((n, n), mapping,
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
    """Full computational-basis readout of D as a label -> residual ensemble.

    Labels are one-line image tuples; the TSPO variant relabels each outcome
    pi as tau^{-1} pi sigma.  Residual states keep all non-database registers
    and are subnormalized by the outcome amplitude.
    """
    lay = state.layout
    n = _db_size_from_layout(lay)
    db = database_names(n)
    nf = database_dim(n)
    rest_layout = lay.drop(db)
    arr = state.amps.reshape(-1, nf)
    pi, _ = perm_tables(n)
    tau_inv = np.array(invert(tau).images) if tau is not None else None
    sig = np.array(sigma.images) if sigma is not None else None
    out = CQEnsemble()
    for d in range(nf):
        images = pi[d]
        if tau_inv is not None:
            images = tau_inv[images[sig]]
        out.entries[tuple(int(v) for v in images)] = StateVector(
            rest_layout, np.ascontiguousarray(arr[:, d]))
    return out


def recover_distribution(state: StateVector, n: int) -> np.ndarray:
    """Outcome probabilities over database labels (no residual states)."""
    nf = database_dim(n)
    arr = state.amps.reshape(-1, nf)
    return np.einsum("rd,rd->d", arr.conj(), arr).real


def recover_sample(state: StateVector, rng: np.random.Generator,
                   sigma: Permutation | None = None,
                   tau: Permutation | None = None) -> tuple[Permutation, StateVector]:
    """Sampling wrapper over the exact readout: one outcome, collapsed residual."""
    lay = state.layout
    n = _db_size_from_layout(lay)
    probs = recover_distribution(state, n)
    d = int(rng.choice(probs.size, p=probs / probs.sum()))
    arr = state.amps.reshape(-1, probs.size)
    residual = arr[:, d] / np.sqrt(probs[d])
    perm = perm_of_index(n, d)
    if tau is not None or sigma is not None:
        left = invert(tau) if tau is not None else None
        if left is not None and sigma is not None:
            perm = compose(compose(left, perm), sigma)
        elif left is not None:
            perm = compose(left, perm)
        elif sigma is not None:
            perm = compose(perm, sigma)
    return perm, StateVector(lay.drop(database_names(n)), residual.copy())


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


def db_value_mask(n: int, x: int, y: int, inverse: bool = False) -> np.ndarray:
    """Boolean over labels d: pi_d(x) == y (or pi_d^{-1}(x) == y)."""
    pi, inv = perm_tables(n)
    table = inv if inverse else pi
    return table[:, x] == y


# --------------------------------------------------------------------------
# Oracle backends


@dataclass(frozen=True)
class OracleBackend:
    """Dispatch point for query application during circuit runs."""

    n: int
    mode: str  # "concrete" | "spo" | "tspo"
    perm: Permutation | None = None
    sigma: Permutation | None = None
    tau: Permutation | None = None

    def __post_init__(self) -> None:
        if self.mode == "concrete":
            if self.perm is None or self.perm.n != self.n:
                raise ValueError("concrete backend needs a permutation of size n")
        elif self.mode == "spo":
            if self.n > EXACT_DB_LIMIT:
                raise SizeLimitError(
                    f"full database simulation capped at n={EXACT_DB_LIMIT}")
        elif self.mode == "tspo":
            if self.n > EXACT_DB_LIMIT:
                raise SizeLimitError(
                    f"full database simulation capped at n={EXACT_DB_LIMIT}")
            if self.sigma is None or self.tau is None:
                raise ValueError("tspo backend needs sigma and tau")
        else:
            raise ValueError(f"unknown backend mode {self.mode!r}")

    @property
    def has_database(self) -> bool:
        return self.mode in ("spo", "tspo")

    def query(self, state: StateVector, direction: str) -> StateVector:
        if self.mode == "concrete":
            return self._concrete_query(state, direction)
        if self.mode == "spo":
            return spo_query(state, direction)
        return spo_query(state, direction, sigma=self.sigma, tau=self.tau)

    def _concrete_query(self, state: StateVector, direction: str) -> StateVector:
        n = self.n
        _require_xor(n)
        p = self.perm if direction == "forward" else invert(self.perm)
        images = np.array(p.images)
        lay = state.layout
        if lay.names[-2:] != ("X", "Y"):
            raise LayoutError("expected registers ..., X, Y for a concrete backend")
        arr = state.amps.reshape(-1, n, n)
        out = np.empty_like(arr)
        ys = np.arange(n)
        for x in range(n):
            out[:, x, :] = arr[:, x, ys ^ images[x]]
        return StateVector(lay, out.reshape(-1))


def concrete_backend(perm: Permutation) -> OracleBackend:
    return OracleBackend(perm.n, "concrete", perm=perm)


def spo_backend(n: int) -> OracleBackend:
    return OracleBackend(n, "spo")


def tspo_backend(sigma: Permutation, tau: Permutation) -> OracleBackend:
    return OracleBackend(sigma.n, "tspo", sigma=sigma, tau=tau)
