"""Registers, mixed-radix state vectors, operators, norms, and ensemble distances.

A :class:`RegisterLayout` is an ordered list of named finite registers; a
:class:`StateVector` is a flat complex array over the product basis with the
*last* register varying fastest (row-major).  The oracle database keeps its
registers D_n, ..., D_1 trailing and in descending order, so the flat index
of the database block is exactly the mixed-radix permutation label with t_1
least significant.

State vectors are immutable from the caller's perspective: every operation
returns a fresh array, so read-only sharing across threads is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

DENSE_NORM_CAP = 4096


class LayoutError(ValueError):
    """Register/layout mismatch between operands."""


class NormConvergenceError(RuntimeError):
    """Power iteration for an operator norm failed to converge."""

    def __init__(self, message: str, lower: float, estimate: float):
        super().__init__(f"{message} (certified lower bound {lower:.3e}, "
                         f"last estimate {estimate:.3e})")
        self.lower = lower
        self.estimate = estimate


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; the last register varies fastest."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.registers]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        for name, dim in self.registers:
            if dim < 1:
                raise LayoutError(f"register {name} has dimension {dim} < 1")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.registers)

    @cached_property
    def total_dim(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.registers else 1

    @cached_property
    def strides(self) -> tuple[int, ...]:
        out = []
        acc = 1
        for dim in reversed(self.shape):
            out.append(acc)
            acc *= dim
        return tuple(reversed(out))

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LayoutError(f"no register named {name!r} in {self.names}") from None

    def dim(self, name: str) -> int:
        return self.shape[self.axis(name)]

    def has(self, name: str) -> bool:
        return name in self.names

    def drop(self, names: Iterable[str]) -> "RegisterLayout":
        gone = set(names)
        return RegisterLayout(tuple(r for r in self.registers if r[0] not in gone))


def database_layout(n: int) -> RegisterLayout:
    """Registers D_n, ..., D_1 with dims n, ..., 1 (total n!).

    Descending order makes the flat index the mixed-radix permutation label.
    D_1 has dimension 1: logically present, zero strides of storage.
    """
    return RegisterLayout(tuple((f"D{k}", k) for k in range(n, 0, -1)))


def database_names(n: int) -> tuple[str, ...]:
    return tuple(f"D{k}" for k in range(n, 0, -1))


@dataclass(frozen=True)
class StateVector:
    layout: RegisterLayout
    amps: np.ndarray  # flat complex128, length layout.total_dim

    def __post_init__(self) -> None:
        if self.amps.shape != (self.layout.total_dim,):
            raise LayoutError(
                f"amplitude array shape {self.amps.shape} does not match "
                f"layout dimension {self.layout.total_dim}")

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.layout.shape)


def product_uniform(layout: RegisterLayout) -> StateVector:
    """Every register uniform; globally uniform amplitude 1/sqrt(total_dim)."""
    d = layout.total_dim
    return StateVector(layout, np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128))


# --------------------------------------------------------------------------
# Linear operators


@dataclass
class LinearOperator:
    """An operator on a block of registers with the given dims.

    ``apply_block`` maps a matricized (d, rest) array to its image; adjoint
    likewise.  Either may use the operator's structure rather than a dense
    product.  The optional ``matrix`` is the operator's dense form: it is
    used for exact norms and ``dense()``, and as the reference a structured
    apply is checked against.  A basis ``mapping`` (|j> -> |mapping[j]>)
    marks a validated permutation.
    """

    dims: tuple[int, ...]
    apply_block: Callable[[np.ndarray], np.ndarray]
    adjoint_block: Callable[[np.ndarray], np.ndarray] | None = None
    matrix: np.ndarray | None = None
    label: str = ""
    mapping: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def dense(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return self.apply_block(np.eye(self.dim, dtype=np.complex128))


def from_matrix(mat: np.ndarray, dims: tuple[int, ...] | None = None,
                label: str = "") -> LinearOperator:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if dims is None:
        dims = (mat.shape[0],)
    if int(np.prod(dims)) != mat.shape[0]:
        raise ValueError("dims do not multiply to the matrix dimension")
    return LinearOperator(
        tuple(dims),
        lambda block: mat @ block,
        lambda block: mat.conj().T @ block,
        matrix=mat,
        label=label,
    )


def from_permutation(dims: tuple[int, ...], mapping: np.ndarray,
                     label: str = "") -> LinearOperator:
    """Basis permutation |j> -> |mapping[j]>; rejects non-bijections."""
    mapping = np.asarray(mapping)
    d = int(np.prod(dims))
    if mapping.shape != (d,):
        raise ValueError("mapping length does not match dims")
    if d and (mapping.min() < 0 or mapping.max() >= d):
        raise ValueError(f"mapping values must lie in 0..{d - 1}")
    inverse = np.full(d, -1, dtype=np.int64)
    inverse[mapping] = np.arange(d)
    if (inverse < 0).any():
        raise ValueError("mapping is not a bijection: some basis state is hit twice")

    def fwd(block: np.ndarray) -> np.ndarray:
        return block[inverse]

    def bwd(block: np.ndarray) -> np.ndarray:
        return block[mapping]

    return LinearOperator(tuple(dims), fwd, bwd, label=label, mapping=mapping)


def from_diagonal(dims: tuple[int, ...], diag: np.ndarray,
                  label: str = "") -> LinearOperator:
    diag = np.asarray(diag, dtype=np.complex128)
    d = int(np.prod(dims))
    if diag.shape != (d,):
        raise ValueError("diagonal length does not match dims")
    col = diag[:, None]
    return LinearOperator(
        tuple(dims),
        lambda block: col * block,
        lambda block: col.conj() * block,
        label=label,
    )


def apply(op: LinearOperator, state: StateVector, targets: tuple[str, ...]) -> StateVector:
    """Apply ``op`` on the named registers, identity elsewhere."""
    lay = state.layout
    axes = [lay.axis(t) for t in targets]
    dims = tuple(lay.shape[a] for a in axes)
    if dims != tuple(op.dims):
        raise LayoutError(f"operator dims {op.dims} do not match targets "
                          f"{targets} with dims {dims}")
    arr = state.reshaped()
    moved = np.moveaxis(arr, axes, range(len(axes)))
    tail_shape = moved.shape[len(axes):]
    block = moved.reshape(op.dim, -1)
    out = op.apply_block(block)
    out = out.reshape(dims + tail_shape)
    out = np.moveaxis(out, range(len(axes)), axes)
    return StateVector(lay, np.ascontiguousarray(out).reshape(-1))


def probe_unitary(op: LinearOperator) -> bool:
    """Random-vector check that op preserves norms and is linear (3 trials, 1e-10)."""
    rng, d = np.random.default_rng(7), op.dim
    for _ in range(3):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        fv = op.apply_block(v[:, None])[:, 0]
        fw = op.apply_block(w[:, None])[:, 0]
        fvw = op.apply_block((a * v + w)[:, None])[:, 0]
        if np.linalg.norm(fvw - (a * fv + fw)) > 1e-10 * max(1.0, np.linalg.norm(fvw)):
            return False
        if abs(np.linalg.norm(fv) - np.linalg.norm(v)) > 1e-10 * np.linalg.norm(v):
            return False
    return True


def operator_norm(op: LinearOperator, cap: int = DENSE_NORM_CAP,
                  tol: float = 1e-8, max_iter: int = 400) -> float:
    """Spectral norm: dense SVD up to ``cap``, else Lanczos iteration on the
    Gram operator A^+ A (randomized start, full reorthogonalization).

    The returned Ritz value is a certified lower bound on the norm; the run
    stops once its residual bracket is below ``tol`` relative.  Failure to
    converge raises with the best bracket seen.
    """
    if op.matrix is not None or op.dim <= cap:
        mat = op.dense()
        if mat.size == 0:
            return 0.0
        return float(np.linalg.norm(mat, 2))
    if op.adjoint_block is None:
        raise ValueError("matrix-free norm needs an adjoint")

    def gram(vec: np.ndarray) -> np.ndarray:
        return op.adjoint_block(op.apply_block(vec[:, None]))[:, 0]

    rng = np.random.default_rng(20240917)
    d = op.dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    best = 0.0
    bracket = np.inf
    steps = min(max_iter, d)
    w = gram(v)
    for _ in range(steps):
        alpha = float(np.vdot(basis[-1], w).real)
        alphas.append(alpha)
        w = w - alpha * basis[-1]
        if len(basis) > 1:
            w = w - betas[-1] * basis[-2]
        for b in basis:  # full reorthogonalization keeps the recurrence honest
            w = w - np.vdot(b, w) * b
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        eigvals, eigvecs = np.linalg.eigh(tri)
        ritz = float(max(eigvals[-1], 0.0))
        best = max(best, ritz)
        # Ritz residual: |lambda_ritz - some eigenvalue| <= beta * |s_last|
        bracket = beta * abs(eigvecs[-1, -1])
        if beta <= 1e-14 or bracket <= tol * max(ritz, 1e-300):
            return math.sqrt(ritz)
        betas.append(beta)
        basis.append(w / beta)
        w = gram(basis[-1])
    raise NormConvergenceError(
        "operator norm Lanczos iteration did not converge",
        lower=math.sqrt(best), estimate=math.sqrt(best + bracket))


def marginal(state: StateVector, keep: tuple[str, ...]) -> np.ndarray:
    """Born probabilities of the ``keep`` registers, axes in ``keep`` order:
    |amps|^2 summed over every other register."""
    lay = state.layout
    kept = sorted(keep, key=lay.axis)  # layout order; unknown names raise
    axes = tuple(i for i, name in enumerate(lay.names) if name not in keep)
    probs = (np.abs(state.reshaped()) ** 2).sum(axis=axes)
    return probs.transpose([kept.index(name) for name in keep])


# --------------------------------------------------------------------------
# Classical-quantum ensembles


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """The cq-state sum_k |pi_k><pi_k| (x) |psi_k><psi_k| as a label table.

    Row k of ``labels`` holds the one-line images of pi_k and row k of
    ``amps`` the subnormalized state psi_k over ``layout``; the squared norms
    of the rows sum to 1.
    """

    labels: np.ndarray  # (K, N) one-line images
    layout: RegisterLayout
    amps: np.ndarray  # (K, layout.total_dim) complex128

    def __post_init__(self) -> None:
        if self.labels.ndim != 2 or self.amps.shape != (
                self.labels.shape[0], self.layout.total_dim):
            raise LayoutError(f"labels {self.labels.shape} and amplitudes "
                              f"{self.amps.shape} do not match layout dimension "
                              f"{self.layout.total_dim}")


def trace_distance(a: CQEnsemble, b: CQEnsemble) -> float:
    """(1/2)||rho_a - rho_b||_1 with labels embedded as orthogonal flags.

    Rows are matched by label.  Per label, |u><u| - |v><v| has trace norm
    sqrt((|u|^2 - |v|^2)^2 + 4 |u|^2 |v_perp|^2) with the vector
    v_perp = v - (<u|v>/|u|^2) u; a label missing on one side is a zero row.
    """
    if a.layout != b.layout or a.labels.shape[1] != b.labels.shape[1]:
        raise LayoutError("ensembles disagree on layout or label width")
    union, code = np.unique(np.concatenate([a.labels, b.labels]), axis=0,
                            return_inverse=True)
    code = code.reshape(-1)
    k = len(a.labels)
    if len(np.unique(code[:k])) < k or len(np.unique(code[k:])) < len(code) - k:
        raise ValueError("an ensemble repeats a label")
    u = np.zeros((len(union), a.layout.total_dim), dtype=np.complex128)
    v = np.zeros_like(u)
    u[code[:k]] = a.amps
    v[code[k:]] = b.amps
    nu = (np.abs(u) ** 2).sum(axis=1)
    nv = (np.abs(v) ** 2).sum(axis=1)
    overlap = np.einsum("ij,ij->i", u.conj(), v) / np.where(nu > 0, nu, 1.0)
    perp = (np.abs(v - overlap[:, None] * u) ** 2).sum(axis=1)
    return 0.5 * float(np.sqrt((nu - nv) ** 2 + 4.0 * nu * perp).sum())
