"""Registers, mixed-radix state vectors, operators, norms, and ensemble distances.

A :class:`RegisterLayout` is an ordered list of named finite registers; a
:class:`StateVector` is a flat complex array over the product basis with the
*last* register varying fastest (row-major).  The oracle database keeps its
registers D_n, ..., D_1 trailing and in descending order, so the flat index
of the database block is exactly the mixed-radix permutation label with t_1
least significant.

Buffer ownership: an operation never writes into its input.  It writes its
result into ``out`` when the caller passes one, else into a fresh array.  A
state built on a caller's buffer is the caller's: it stays valid until the
caller writes that buffer again, as the next step or run given the same
buffer does.  A state that no caller's buffer backs is never written after
it is returned, so read-only sharing across threads is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

DENSE_NORM_CAP = 4096


class LayoutError(ValueError):
    """Register/layout mismatch between operands."""


class NormConvergenceError(RuntimeError):
    """operator_norm's Lanczos iteration failed to converge."""

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
        return math.prod(self.shape)

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

    ``apply_block(block, out=None)`` maps a ``(..., d, post)`` array along
    axis -2, each leading index separately, and writes the image into
    ``out`` when given; a 2-D ``(d, rest)`` block is the case with no
    leading axes.  ``adjoint_block(block)`` maps a 2-D block to the
    adjoint's image.  Either may use the operator's structure rather than
    a dense product.  The optional ``matrix`` is the operator's dense form:
    it is used for exact norms and ``dense()``, and as the reference a
    structured apply is checked against.  A basis ``mapping``
    (|j> -> |mapping[j]>) marks a validated permutation.  ``gather``
    holds the last ((layout, targets), index) pair through which ``apply``
    ran a basis map on scattered targets (see _flat_gather).
    """

    dims: tuple[int, ...]
    apply_block: Callable[..., np.ndarray]
    adjoint_block: Callable[[np.ndarray], np.ndarray] | None = None
    matrix: np.ndarray | None = None
    label: str = ""
    mapping: np.ndarray | None = None
    gather: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

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
    if math.prod(dims) != mat.shape[0]:
        raise ValueError("dims do not multiply to the matrix dimension")
    return LinearOperator(
        tuple(dims),
        lambda block, out=None: np.matmul(mat, block, out=out),
        lambda block: mat.conj().T @ block,
        matrix=mat,
        label=label,
    )


@lru_cache(maxsize=1)
def _positions(d: int) -> np.ndarray:
    """0..d-1, read-only, shared by the basis maps of the last dimension
    seen: a sampled attack builds every U^pi at one size."""
    out = np.arange(d)
    out.setflags(write=False)
    return out


def from_permutation(dims: tuple[int, ...], mapping: np.ndarray,
                     label: str = "") -> LinearOperator:
    """Basis permutation |j> -> |mapping[j]>; rejects non-bijections."""
    mapping = np.asarray(mapping)
    d = math.prod(dims)
    if mapping.shape != (d,):
        raise ValueError("mapping length does not match dims")
    if d and (mapping.min() < 0 or mapping.max() >= d):
        raise ValueError(f"mapping values must lie in 0..{d - 1}")
    gather = np.full(d, -1, dtype=np.int64)
    gather[mapping] = _positions(d)
    if (gather < 0).any():
        raise ValueError("mapping is not a bijection: some basis state is hit twice")
    return _basis_map(dims, mapping, gather, label)


def _basis_map(dims: tuple[int, ...], mapping: np.ndarray, gather: np.ndarray,
               label: str) -> LinearOperator:
    """|j> -> |mapping[j]> applied as image[j] = block[gather[j]], for a
    bijection ``mapping`` the caller has checked and its inverse
    ``gather``.  np.take copies an index it may not write to, so the
    caller keeps ``gather`` writeable."""

    # gather is a checked bijection, so mode "clip" never clips; mode
    # "raise" with an out argument would buffer the whole output.
    def fwd(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.take(block, gather, axis=-2, out=out, mode="clip")

    def bwd(block: np.ndarray) -> np.ndarray:
        return block[mapping]

    return LinearOperator(tuple(dims), fwd, bwd, label=label, mapping=mapping)


def from_diagonal(dims: tuple[int, ...], diag: np.ndarray,
                  label: str = "") -> LinearOperator:
    diag = np.asarray(diag, dtype=np.complex128)
    d = math.prod(dims)
    if diag.shape != (d,):
        raise ValueError("diagonal length does not match dims")
    col = diag[:, None]
    return LinearOperator(tuple(dims),
                          lambda block, out=None: np.multiply(col, block, out=out),
                          label=label)


def check_buffer(layout: RegisterLayout, out: np.ndarray) -> np.ndarray:
    """``out`` once it is a writable, contiguous, flat complex128 array of
    the layout's dimension, else LayoutError."""
    if (out.shape != (layout.total_dim,) or out.dtype != np.complex128
            or not out.flags.c_contiguous or not out.flags.writeable):
        raise LayoutError(f"output buffer {out.dtype}{out.shape} is not a writable "
                          f"contiguous complex128 array of length {layout.total_dim}")
    return out


def result_buffer(state: StateVector, out: np.ndarray | None) -> np.ndarray:
    """Where an operation on ``state`` writes: ``out``, checked and apart
    from the state's memory, or a fresh array."""
    if out is None:
        return np.empty_like(state.amps)
    if np.may_share_memory(out, state.amps):
        raise ValueError("the output buffer may share memory with the input state")
    return check_buffer(state.layout, out)


def _pre_post(shape: tuple[int, ...], axes: list[int]) -> tuple[int, int] | None:
    """(pre, post) such that the flat state is a (pre, d, post) array with
    the target block in the middle: the targets of dimension > 1 must be in
    layout order with only dimension-1 registers between them.  None
    otherwise."""
    live = [a for a in axes if shape[a] > 1]
    if not live:
        return math.prod(shape), 1
    if any(a >= b for a, b in zip(live, live[1:])) or any(
            shape[a] > 1 and a not in live for a in range(live[0], live[-1])):
        return None
    return math.prod(shape[:live[0]]), math.prod(shape[live[-1] + 1:])


def _flat_gather(op: LinearOperator, lay: RegisterLayout,
                 targets: tuple[str, ...], axes: list[int]) -> np.ndarray:
    """The flat index g with image[j] = state[g[j]] for the basis map ``op``
    on ``targets``: the identity plus, at each position, the offset from its
    target digits to their preimage's.  Built once per (layout, targets) and
    kept in the operator's one gather slot until another (layout, targets)
    replaces it; one index has as many entries as the state and is charged
    against AMPLITUDE_BUDGET before it is built.  The slot holds a
    read-only view; the writeable array that owns its memory is returned,
    for np.take copies an index it may not write to."""
    key = (lay, targets)
    if op.gather is not None and op.gather[0] == key:
        return op.gather[1].base
    from .oracles import charge  # oracles builds on this module
    charge(lay.total_dim, f"the flat gather index of {op.label or 'a basis map'} "
           f"on {targets}")
    dims = tuple(op.dims)
    offsets = np.zeros(dims, dtype=np.intp)  # flat offset of each target digit tuple
    for k, a in enumerate(axes):
        offsets += (np.arange(dims[k]) * lay.strides[a]).reshape(
            [-1 if i == k else 1 for i in range(len(dims))])
    offsets = offsets.reshape(-1)
    source = np.empty_like(offsets)
    source[op.mapping] = np.arange(op.dim)  # image digit -> preimage digit
    delta = (offsets[source] - offsets).reshape(dims)
    order = sorted(range(len(axes)), key=axes.__getitem__)
    index = np.arange(lay.total_dim)
    grid = index.reshape(lay.shape)
    grid += delta.transpose(order).reshape(
        [lay.shape[a] if a in axes else 1 for a in range(len(lay.shape))])
    shown = index.view()
    shown.setflags(write=False)
    op.gather = (key, shown)
    return index


def apply(op: LinearOperator, state: StateVector, targets: tuple[str, ...],
          out: np.ndarray | None = None) -> StateVector:
    """Apply ``op`` on the named registers, identity elsewhere, writing the
    result into ``out`` when given (see the buffer ownership rule above).

    Registers of dimension 1 do not move the flat index, so they are
    ignored.  There are three cases.  When the other targets are
    consecutive layout axes in layout order, the state is viewed as
    (pre, d, post) without a copy and ``op.apply_block`` maps that batch
    into the result's view, whatever the operator.  A basis map on
    scattered targets is one gather through the flat index of the whole
    state (_flat_gather), which reads the state once and writes it once.
    Every other operator there moves the target axes to the front and
    back."""
    lay = state.layout
    axes = [lay.axis(t) for t in targets]
    dims = tuple(lay.shape[a] for a in axes)
    if dims != tuple(op.dims):
        raise LayoutError(f"operator dims {op.dims} do not match targets "
                          f"{targets} with dims {dims}")
    res = result_buffer(state, out)
    split = _pre_post(lay.shape, axes)
    if split is not None:
        view = (split[0], op.dim, split[1])
        op.apply_block(state.amps.reshape(view), out=res.reshape(view))
    elif op.mapping is not None:
        # A checked bijection never clips; mode "raise" would buffer the output.
        np.take(state.amps, _flat_gather(op, lay, tuple(targets), axes), out=res,
                mode="clip")
    else:
        moved = np.moveaxis(state.reshaped(), axes, range(len(axes)))
        tail_shape = moved.shape[len(axes):]
        image = op.apply_block(moved.reshape(op.dim, -1)).reshape(dims + tail_shape)
        np.copyto(res.reshape(lay.shape), np.moveaxis(image, range(len(axes)), axes))
    return StateVector(lay, res)


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


def trace_norms(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||u u^+ - v v^+||_1 per pair of vectors on the last axis, any leading
    batch shape: sqrt((|u|^2 - |v|^2)^2 + 4 |u|^2 |v_perp|^2) with
    v_perp = v - (<u|v>/|u|^2) u."""
    nu = (np.abs(u) ** 2).sum(axis=-1)
    nv = (np.abs(v) ** 2).sum(axis=-1)
    overlap = np.einsum("...i,...i->...", u.conj(), v) / np.where(nu > 0, nu, 1.0)
    perp = (np.abs(v - overlap[..., None] * u) ** 2).sum(axis=-1)
    return np.sqrt((nu - nv) ** 2 + 4.0 * nu * perp)


def trace_distance(a: CQEnsemble, b: CQEnsemble) -> float:
    """(1/2)||rho_a - rho_b||_1 with labels embedded as orthogonal flags.

    Rows are matched by label, and each label contributes the trace norm of
    |u><u| - |v><v| (trace_norms); a label missing on one side is a zero row.
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
    return 0.5 * float(trace_norms(u, v).sum())
