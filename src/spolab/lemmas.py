"""Numerical checkers for the oracle framework's inequalities and identities.

The central objects are the database operators

    Pi^{R,x} = sum_{pi : pi(x) in R_x} |pi><pi|          (relation projector)
    E^{R,x}  = Pi^{R,x} (I - |+_x><+_x| on D_x)          (progress operator)

and the twirl average over (sigma, tau) pairs.  The twirl averages are
exact: p2_upper_bound, sparsity_expectation and crucial_term_values take
no plan and average over all of S_N x S_N, the cached plan of
make_twirl_plan(N), so they run at N <= 4.  p_(ii') and the progress
measure read the subset kernel (_subset_kernel) instead: tau drops out
and sigma enters only through a set.  Only a sampled p_(ii') reads a
crossed grid, from its margins (_p_ii_term, _margins_stderr).  Sparsity
rows take (I - P_+) norms from Helmert contrasts, with no projected copy
(_complement_norm2).

All element labels are 0-based; the 1-based 1/x weights become 1/(x+1).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .bounds import clamped, harmonic, main_bound
from .circuits import (
    QueryCircuit,
    run_with_intermediates,
    standard_form,
    success_probability,
)
from .oracles import (
    charge,
    database_dim,
    db_register_geometry,
    left_right_map,
    image_table,
    perm_tables,
    project_plus_db,
    query_slice_map,
    rank_labels,
    shift_table,
    spo_backend,
    spo_query,
    _db_size_from_layout,
)
from .permutations import all_images, sample_uniform
from .relations import Relation
from .reporting import VerificationReport, check, check_close
from .states import (
    LinearOperator,
    StateVector,
    database_names,
    from_permutation,
    marginal,
    operator_norm,
)

EXHAUSTIVE_TWIRL_LIMIT = 4


class WeightPreconditionError(ValueError):
    """A state failed the uniform permutation-basis weight precondition."""


# --------------------------------------------------------------------------
# Twirl plans


@dataclass(frozen=True)
class TwirlPlan:
    """A (sigma, tau) product grid over read-only (S, n) and (T, n) int
    image tables.  The constructor derives the inverse images and label
    maps, charging the maps against AMPLITUDE_BUDGET first.  A twirl
    average steps through the grid one sigma-row of T pairs at a time.

    make_twirl_plan(n) gives the full group, which the exact twirl averages
    read; a plan passed to experiment_probabilities is a crossed grid,
    whatever its tables hold."""

    n: int
    sigmas: np.ndarray
    taus: np.ndarray
    # Derived, read-only: the inverse images, and the inverse label maps of
    # R^sigma and L^tau, i.e. the maps of R^{sigma^{-1}}, L^{tau^{-1}} (int32).
    sigma_inv: np.ndarray = field(init=False, repr=False)  # (S, n)
    tau_inv: np.ndarray = field(init=False, repr=False)    # (T, n)
    right_inv: np.ndarray = field(init=False, repr=False)  # d -> idx(pi_d sigma)
    left_inv: np.ndarray = field(init=False, repr=False)   # d -> idx(tau^{-1} pi_d)

    def __post_init__(self) -> None:
        n, nf = self.n, database_dim(self.n)
        sigmas, taus = image_table(self.sigmas), image_table(self.taus)
        if sigmas.shape[1] != n or taus.shape[1] != n:
            raise ValueError(f"a plan at n={n} got {sigmas.shape} and {taus.shape} tables")
        _charge_maps(n, len(sigmas), len(taus))
        sigma_inv, tau_inv = np.argsort(sigmas, axis=1), np.argsort(taus, axis=1)
        # Filled row by row: no int64 stack of the maps.
        right_inv = np.empty((len(sigmas), nf), dtype=np.int32)
        left_inv = np.empty((len(taus), nf), dtype=np.int32)
        for row, si in zip(right_inv, sigma_inv):
            row[:] = left_right_map(n, sigma=si)
        for row, ti in zip(left_inv, tau_inv):
            row[:] = left_right_map(n, tau=ti)
        tables = dict(sigmas=sigmas, taus=taus, sigma_inv=sigma_inv, tau_inv=tau_inv,
                      right_inv=right_inv, left_inv=left_inv)
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def pair_count(self) -> int:
        return len(self.sigmas) * len(self.taus)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return len(self.sigmas), len(self.taus)

    def pairs(self) -> Iterator[int]:
        """Yields the index i of each sigma-row, in order: the steps of
        _twirl_average and _p_ii_term, each over the row's T pairs."""
        yield from range(len(self.sigmas))


def _charge_maps(n: int, rows: int, cols: int) -> None:
    charge((rows + cols) * database_dim(n), f"a {rows} x {cols} twirl plan needs "
           f"{rows} + {cols} label maps of {database_dim(n)} labels")


def make_twirl_plan(n: int, seed: int | None = None, min_pairs: int = 2000) -> TwirlPlan:
    """Without a seed, the full group: one shared plan per n, refused above
    EXHAUSTIVE_TWIRL_LIMIT, which the exact twirl averages also read.
    With a seed, a crossed sample at any n, for the sampled p_(ii') of
    experiment_probabilities: the first ceil(sqrt(min_pairs)) seeded draws
    as sigmas against as many more as taus."""
    if seed is None:
        return _full_group_plan(n)
    if min_pairs < 2:
        # A grid with one row or column has no stderr estimate.
        raise ValueError("sampled twirl plans need min_pairs >= 2 (a 2 x 2 "
                         f"grid at least), got min_pairs={min_pairs}")
    side = math.ceil(math.sqrt(min_pairs))
    _charge_maps(n, side, side)  # before a table is drawn
    rng = np.random.default_rng(seed)
    draws = [sample_uniform(n, rng).images for _ in range(2 * side)]
    return TwirlPlan(n, draws[:side], draws[side:])


@lru_cache(maxsize=None)
def _full_group_plan(n: int) -> TwirlPlan:
    if n > EXHAUSTIVE_TWIRL_LIMIT:
        raise ValueError(f"the exact twirl averages run at n <= "
                         f"{EXHAUSTIVE_TWIRL_LIMIT}, got n={n}")
    _charge_maps(n, database_dim(n), database_dim(n))  # before the table is built
    images = all_images(n)
    return TwirlPlan(n, images, images)


def _margins_stderr(row_means: np.ndarray, col_means: np.ndarray) -> float:
    """Stderr of the grand mean of a crossed R x C grid from its R row means
    and C column means, elementwise: sqrt(var(row means) / R + var(col
    means) / C), as the mean carries both variances (Owen, "The pigeonhole
    bootstrap", 2007).  One row or column gives no estimate and reports 0."""
    rows, cols = len(row_means), len(col_means)
    if rows < 2 or cols < 2:
        return 0.0
    return np.sqrt(row_means.var(axis=0, ddof=1) / rows + col_means.var(axis=0, ddof=1) / cols)


def _charge_rows(plan: TwirlPlan, per_pair: tuple[int, ...], what: str) -> None:
    """Charge the gather of one sigma-row, T blocks of shape ``per_pair``,
    against AMPLITUDE_BUDGET."""
    shape = (len(plan.taus), *per_pair)
    charge(math.prod(shape), f"one sigma-row of {what} gathers "
           f"{' x '.join(map(str, shape))} entries")


def _twirl_average(plan: TwirlPlan, block: np.ndarray,
                   term: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """The mean over the plan's (sigma, tau) grid of the values of one twirl
    term, elementwise; its callers pass the full-group plan, so it is exact.

    One step is one sigma-row: for each i that plan.pairs() yields, the
    (..., n!) block is gathered to (..., T, n!) through the row's composed
    maps right_inv[i][left_inv], column j reading ``block[..., ri[lj]]``,
    and ``term(i, gathered)`` returns the row's T values (floats, or arrays
    of one shape).  The caller charges what a row gathers against
    AMPLITUDE_BUDGET before the first row is built.
    """
    values = [term(i, block[..., plan.right_inv[i][plan.left_inv]])
              for i in plan.pairs()]
    grid = np.concatenate(values).reshape(plan.grid_shape + values[0].shape[1:])
    return grid.mean(axis=(0, 1))


# --------------------------------------------------------------------------
# Database operators


@lru_cache(maxsize=None)
def _plus_projector_dense(n: int, x: int) -> np.ndarray:
    # real, and symmetric, so row-wise action is fine
    return project_plus_db(np.eye(database_dim(n)), n, x)


def _section_mask(rel: Relation, x: int) -> np.ndarray:
    """Boolean over labels d: pi_d(x) in R_x (the diagonal of Pi^{R,x})."""
    pi, _ = perm_tables(rel.n)
    return rel.members[x, pi[:, x]]


def _norm2(block: np.ndarray) -> np.ndarray:
    """Squared norm of a (rest, n!) block, or of each column of a
    (rest, C, n!) block, summed over its real and imaginary parts."""
    f = np.ascontiguousarray(block).view(np.float64)
    return np.einsum("r...d,r...d->...", f, f)


@lru_cache(maxsize=None)
def _hit_fibers(n: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(hits, fiber_a, swaps): tables of the labels hit at each register s
    and of their D_{s+1} fibers, with m = (n-1)!.

      hits[s, t]     the m labels d with pi_d(s) = t, ascending (int32);
      fiber_a[s, d]  a(d) = pi_{<s}^{-1}(t_s) = pi_d^{-1}(pi_{d'}(s)) for
                     every label d, where d' = d + (s - t_s) s! is the
                     member of d's fiber with t_s = s (int8, a(d) <= s);
      swaps[s][c]    the map e -> idx(pi_e <s c>), for c = 0..s (int32);
                     swaps[max(b, c)][min(b, c)] is the map of <b c> = <c b>.

    pi_d(s) = pi_{>s}(t_s) and a fiber varies t_s alone, so the m hits of
    each t lie in distinct fibers; the tables are checked for exactly that.
    """
    pi, inv = perm_tables(n)
    nf = database_dim(n)
    m = nf // n
    hits = np.empty((n, n, m), dtype=np.int32)
    fiber_a = np.empty((n, nf), dtype=np.int8)
    for s in range(n):
        lo = math.factorial(s)
        counts = np.bincount(pi[:, s], minlength=n)
        hit = np.argsort(pi[:, s], kind="stable").reshape(n, m)
        digit = hit // lo % (s + 1)
        base = np.sort(hit - digit * lo, axis=1)  # first label of each fiber
        shared = int((base[:, 1:] == base[:, :-1]).sum())
        if (counts != m).any() or shared:
            raise RuntimeError(f"pi_d({s}) = t holds on {counts.tolist()} labels "
                               f"per t, {shared} of them in a shared D_{s + 1} "
                               f"fiber; expected {m} per t in distinct fibers "
                               f"(n={n})")
        hits[s] = hit
        fiber_a[s, hit] = inv[hit, pi[hit + (s - digit) * lo, s]]
    # Row c of table s is <s c>: the label with every digit t_k = k but t_s = c.
    swaps = [left_right_map(n, sigma=pi[nf - 1 - math.factorial(s) * (s - np.arange(s + 1))])
             .astype(np.int32) for s in range(n)]
    for table in (hits, fiber_a, *swaps):
        table.setflags(write=False)
    return hits, fiber_a, tuple(swaps)


@lru_cache(maxsize=None)
def _subset_rows(n: int, x: int) -> tuple[np.ndarray, ...]:
    """For s = 1..n-1, the read-only (C(n-1, s), n) 0/1 rows of the sets
    A = {x} plus s other elements, in combinations order."""
    others = [b for b in range(n) if b != x]
    out = []
    for s in range(1, n):
        members = np.array(list(itertools.combinations(others, s))).reshape(-1, s)
        rows = np.zeros((len(members), n))
        rows[np.arange(len(members))[:, None], members] = 1.0
        rows[:, x] = 1.0
        rows.setflags(write=False)
        out.append(rows)
    return tuple(out)


def _subset_count(n: int) -> int:
    """The sets A the subset kernel averages over per register: 2^(n-1) - 1."""
    return 2 ** (n - 1) - 1


def _subset_kernel(v: np.ndarray, n: int, x: int, labels: np.ndarray) -> float:
    """The exact (sigma, tau)-average of one p_(ii') term over all of S_N x S_N.

    For a (rest, n!) block v, a register x and the hit labels H (every f
    with pi_f(x) = y, for one y or for all y of a section), with k = s + 1:

        (1/N) sum_{s=1}^{N-1} C(N-1, s)^{-1} sum_{A containing x, |A| = k}
            (1/k) sum_{a in A} sum_{f in H}
            ||v[f] - (1/k) sum_{b in A} v[f<x a><x b>]||^2,

    where v[f<x a>] reads v at idx(pi_f <x a>) and <x x> is the identity.
    tau drops out: for uniform tau the fiber index a(tau pi_e) is uniform on
    0..s in every sigma-row of _p_ii_term.  sigma enters only through
    A = {b : sigma(b) <= sigma(x)}, since pi_h <s a> sigma = f <x sigma^{-1}(a)>
    for f = pi_h sigma; A minus x is a uniform s-subset of the other
    elements and s is uniform on 0..N-1 (s = 0 adds nothing).

    The value stays a sum of squares, so it is never negative: expanding
    the square into inner products of the gathered reads cancels to about
    1e-17 on a zero term, and p_(ii') enters a square root.  The gathered
    (rest, n, n, |H|) block of every v[f<x a><x b>] is charged against
    AMPLITUDE_BUDGET before it is built; a step sums at most n sets, so its
    sums never outgrow that block.
    """
    rest, width = len(v), len(labels)
    charge(rest * n * n * width, f"the subset kernel's gathered {rest} x {n} x "
           f"{n} x {width} block")
    if not width:
        return 0.0
    swaps = _hit_fibers(n)[2]
    sw = np.stack([swaps[max(x, c)][min(x, c)] for c in range(n)])  # f -> idx(pi_f <x c>)
    ref = v.take(labels, axis=1).view(np.float64)  # (rest, 2|H|)
    gathered = v.take(sw[:, sw[:, labels]], axis=1)  # [r, b, a, j] = v[f_j <x a><x b>]
    reads = gathered.view(np.float64).reshape(rest, n, -1)
    total = 0.0
    for k, rows in enumerate(_subset_rows(n, x), start=2):
        for c0 in range(0, len(rows), n):
            step = rows[c0:c0 + n]
            diff = np.matmul(step, reads).reshape(rest, len(step), n, -1)  # [r, A, a, j]
            diff /= k
            np.subtract(ref[:, None, None, :], diff, out=diff)
            sq = np.einsum("rcaj,rcaj->ca", diff, diff)
            total += float((sq * step).sum()) / (len(rows) * k)
    return total / n


def help_norm(n: int, x: int, y_set: frozenset[int] | set[int]) -> tuple[float, float]:
    """Exact norm of sum_{pi: pi(x) in Y} |pi><pi| |+_{x+1}><+_{x+1}|, and
    the bound sqrt(|Y| / (x+1))."""
    if n > 6:
        raise ValueError("dense help-lemma norms capped at n=6")
    mask = np.isin(perm_tables(n)[0][:, x], list(y_set))
    norm = _spectral_norm(_plus_projector_dense(n, x)[mask])
    return norm, math.sqrt(len(y_set) / (x + 1))


def _spectral_norm(mat: np.ndarray) -> float:
    """The 2-norm of a real matrix (0 if empty): sqrt of the largest eigenvalue
    of the Gram matrix on the smaller side of its nonzero rows."""
    mat = mat[mat.any(axis=1)]
    if mat.size == 0:
        return 0.0
    gram = mat @ mat.T if len(mat) <= mat.shape[1] else mat.T @ mat
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


# --------------------------------------------------------------------------
# State bookkeeping


def _db_block(state: StateVector) -> np.ndarray:
    """View the amplitudes as (rest, n!) with the database label last."""
    n = _db_size_from_layout(state.layout)
    return state.amps.reshape(-1, database_dim(n))


def check_uniform_weights(state: StateVector) -> None:
    """Require ||<pi|phi>||^2 = 1/N! (to 1e-9) for every pi (holds along untwirled runs)."""
    nf = database_dim(_db_size_from_layout(state.layout))
    arr = _db_block(state)
    probs = np.einsum("rd,rd->d", arr.conj(), arr).real
    deviation = float(np.max(np.abs(probs - 1.0 / nf)))
    if deviation > 1e-9:
        raise WeightPreconditionError(
            f"permutation-basis weights deviate from 1/N! by {deviation:.2e}")


# --------------------------------------------------------------------------
# Fundamental-lemma experiments


@dataclass
class ExperimentResult:
    p_i: float
    p_ii: float
    stderr_ii: float
    subsets: int | None = None  # per register, when p_ii is the subset kernel's


def experiment_probabilities(final: StateVector, rel: Relation,
                             plan: TwirlPlan | None = None) -> ExperimentResult:
    """p_(i') exactly, and p_(ii') exactly or, given a plan, over its grid.

    ``final``, the final state of one untwirled SPO run, is the joint state;
    each (sigma, tau) branch is its database relabeling (checked separately
    as the twisted-vs-not identity).  For every output pair (x, y) in R
    the projector-norm forms are evaluated on the <x,y| slice v of the
    state.  The twirl only relabels a uniform permutation, so p_(i') is
    read once from the untwirled slices: |v|^2 on the labels with
    pi_d(x) = y.

    Without a plan, p_(ii') is the exact mean over all of S_N x S_N, read
    from the subset kernel (_subset_kernel, over the hits H(x, y) of each
    slice), and the result names the kernel's subsets per register.  Given
    a plan, it is the mean over the plan's crossed grid, as follows.

    p_(ii') sums ||Pi (I - P_s) w||^2 over the slices, for the twirled slice
    w = v[:, ri[lj]], s = sigma(x), t = tau(y) and Pi the hit labels H(s, t),
    those with pi_d(s) = t.  In the factorization pi_d = pi_{>s} <s t_s>
    pi_{<s}, pi_{<s} fixes s, so pi_d(s) = pi_{>s}(t_s): each D_{s+1} fiber
    holds at most one hit, and the norm is the sum over the hits of
    |w_hit - mean of its fiber|^2; s = 0 adds nothing, since P_0 is the
    identity.  The fiber of d is {pi_d <s a><s c> : c = 0..s} with
    a = a(d) = pi_{<s}^{-1}(t_s), and left multiplication by tau^{-1} keeps
    that form.  So with u = v[:, ri], the slice twirled by sigma, and
    e = lj[d] = idx(tau^{-1} pi_d), which runs over the tau-free set H(s, y),
    the term is

        sum over d in H(s, t) of |u[e] - M[a(d), e]|^2,
        M[a, e] = (1 / (s+1)) sum_c u[idx(pi_e <s a><s c>)].

    The summand depends on tau only through (a(d), e): per sigma-row and
    slice, _fiber_sq tabulates it for every a and every e in H(s, y), and a
    column reads that table at its entries of a per-tau table (_a_tables).
    The crossed-grid stderr needs only the grid's row and column means, so
    _p_ii_term returns the row and the column sums, with one lookup per
    (s, y) group of rows, and never forms the (S, T) grid.  Two guards hold
    to 1e-12 relative: the first pair equals its projector form, and the
    row and the column sums have equal totals.  Label 0 has every t_k = 0,
    so on a plan drawn from all_images in order neither map of the first
    pair is the identity (the identity is the last label).
    """
    n = rel.n
    slices = _xy_slices(final, rel)
    pi_table, _ = perm_tables(n)
    p_i = sum(float((np.abs(v[:, pi_table[:, x] == y]) ** 2).sum())
              for x, y, v in slices)

    if plan is None:
        return ExperimentResult(p_i, _p_ii_kernel(slices, n), 0.0,
                                subsets=_subset_count(n))

    rows, cols, first = _p_ii_term(slices, plan)
    ref = _p_ii_projector(slices, n, plan.sigmas[0], plan.taus[0],
                          plan.right_inv[0][plan.left_inv[0]])
    if abs(first - ref) > 1e-12 * max(1.0, abs(ref)):
        raise RuntimeError(f"fiber-hit p_ii {first!r} differs from the projector "
                           f"form {ref!r} on the first pair of the plan (n={n})")
    total, by_cols = rows.sum(), cols.sum()
    if abs(total - by_cols) > 1e-12 * abs(total):
        raise RuntimeError(f"p_ii row sums total {total!r}, column sums {by_cols!r} (n={n})")
    return ExperimentResult(p_i, total / plan.pair_count,
                            _margins_stderr(rows / len(cols), cols / len(rows)))


def _xy_slices(final: StateVector, rel: Relation) -> list[tuple[int, int, np.ndarray]]:
    """(x, y, v) for each pair of R whose <x,y| slice v, a (rest, n!) block,
    is not zero."""
    n = rel.n
    lay = final.layout
    arr = final.reshaped()
    x_ax, y_ax = lay.axis("X"), lay.axis("Y")
    slices = []
    for x, y in rel.pairs():
        idx = [slice(None)] * len(lay.names)
        idx[x_ax], idx[y_ax] = x, y
        v = np.ascontiguousarray(arr[tuple(idx)]).reshape(-1, database_dim(n))
        if np.vdot(v, v).real > 1e-28:
            slices.append((x, y, v))
    return slices


def _p_ii_kernel(slices: list[tuple[int, int, np.ndarray]], n: int) -> float:
    """p_(ii') over all of S_N x S_N: the subset kernel of each <x,y| slice
    on its hits H(x, y)."""
    hits = _hit_fibers(n)[0]
    return sum(_subset_kernel(v, n, x, hits[x, y]) for x, y, v in slices)


def _a_tables(n: int, left_inv: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """A[c, s-1, k, j] = a(L(e)) * m + j, m = (n-1)!, for e = H(s, ys[k])[j],
    the j-th hit of (s, ys[k]), and L(e) = idx(tau pi_e) for the tau of
    column c: a (C, n-1, len(ys), m) uint16 table (n <= 8) over s = 1..n-1
    into the flat sq tables of _fiber_sq; _p_ii_term charges it."""
    nf = database_dim(n)
    m = nf // n
    shape = (len(left_inv), n - 1, len(ys), m)
    hits, fiber_a, _swaps = _hit_fibers(n)
    flat_a = fiber_a.ravel()
    e = hits[1:, ys]  # (n-1, len(ys), m)
    row_of_s = nf * np.arange(1, n)[:, None, None]
    labels = np.arange(nf, dtype=np.int32)
    forward = np.empty(nf, dtype=np.int32)
    out = np.empty(shape, dtype=np.uint16)  # < n! <= 8! < 2^16: perm_tables caps n
    j = np.arange(m, dtype=out.dtype)
    for table, lj in zip(out, left_inv):
        forward[lj] = labels  # e -> idx(tau pi_e)
        table[:] = flat_a.take(forward.take(e) + row_of_s).astype(out.dtype) * m + j
    return out


def _p_ii_term(slices: list[tuple[int, int, np.ndarray]],
               plan: TwirlPlan) -> tuple[np.ndarray, np.ndarray, float]:
    """The S row sums, the T column sums and the pair (0, 0) value of the
    plan's fiber-hit p_(ii') grid (see experiment_probabilities).  Pair
    (i, c) sums, over the slices with s = sigma_i(x) >= 1, the flat table sq
    of (i, slice) (_fiber_sq) at the a-table entries A[c] of (s, y).  So one
    walk of plan.pairs() groups the (i, slice) by (s, y), which fixes A:
    row i adds cnt @ sq, for cnt the count of each entry of A, and the group
    adds one lookup into the sum of its sq to the column sums.  The
    a-tables, the slice totals and the fiber indices idx(pi_e <s a>) of
    every (s, y) are each charged against AMPLITUDE_BUDGET, then built once.
    """
    n = plan.n
    m = database_dim(n) // n
    ys, y_at = np.unique(np.array([y for _x, y, _v in slices], dtype=np.intp),
                         return_inverse=True)
    shape = (len(plan.taus), n - 1, len(ys), m)
    charge(math.prod(shape), f"p_ii a-tables of {' x '.join(map(str, shape))}")
    charge(sum(v.size for _x, _y, v in slices), f"p_ii totals of {len(slices)} slices")
    charge(len(ys) * (n * (n + 1) // 2 - 1) * m,
           f"p_ii fiber indices of {len(ys)} y x {n - 1} registers")
    a_tables = _a_tables(n, plan.left_inv, ys)
    hits, _fiber_a, swaps = _hit_fibers(n)
    totals = [v.copy() for _x, _y, v in slices]
    for (x, _y, v), total in zip(slices, totals):
        for b in np.flatnonzero(np.arange(n) != x):
            total += v.take(swaps[max(x, b)][min(x, b)], axis=1)
    fiber_index = {(s, y): swaps[s].take(hits[s, y], axis=1)  # [a, j]
                   for s in range(1, n) for y in ys.tolist()}

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in plan.pairs():
        for c, (x, _y, _v) in enumerate(slices):
            if s := int(plan.sigmas[i][x]):  # P on D_1 is the identity
                groups.setdefault((s, int(y_at[c])), []).append((i, c))
    rows, cols, first = np.zeros(len(plan.sigmas)), np.zeros(len(plan.taus)), 0.0
    for (s, k), members in groups.items():
        a = a_tables[:, s - 1, k]  # (T, m)
        cnt = np.bincount(a.ravel(), minlength=(s + 1) * m).astype(np.float64)
        acc = np.zeros((s + 1) * m)
        for i, c in members:
            x, y, v = slices[c]
            sq = _fiber_sq(v, totals[c], x, y, plan.sigmas[i], plan.right_inv[i],
                           fiber_index).ravel()
            rows[i] += cnt @ sq
            acc += sq
            if not i:
                first += float(_table_sums(sq, a[:1])[0])
        cols += _table_sums(acc, a)
    return rows, cols, first


def _table_sums(table: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The sum of the flat (s+1) * m table at each row of a-table entries."""
    return table.take(entries).sum(axis=1)


def _fiber_sq(v: np.ndarray, total: np.ndarray, x: int, y: int, sigma: np.ndarray,
              ri: np.ndarray, fiber_index: dict) -> np.ndarray:
    """sq[a, j] = |u[e] - M[a, e]|^2 of slice v in one sigma-row, summed over
    its rows, for e = H(s, y)[j], s = sigma(x) >= 1.  As pi_f <s c> sigma =
    (pi_f sigma) <x sigma^{-1}(c)>, (s+1) M[a, e] = G[ri[idx(pi_e <s a>)]]
    for G the sum of the reads v[idx(pi_g <x b>)] with sigma(b) <= s: v plus
    those with sigma(b) < s, or ``total`` (every b) minus those with
    sigma(b) > s, whichever takes fewer reads of all n! labels."""
    n, s = len(sigma), sigma[x]
    hits, _fiber_a, swaps = _hit_fibers(n)
    below = 2 * s < n  # sigma(b) < s holds for s of the n - 1 others
    g, op = (v, np.add) if below else (total, np.subtract)
    for b in np.flatnonzero(sigma < s if below else sigma > s):
        term = v.take(swaps[max(x, b)][min(x, b)], axis=1)
        g = op(g, term, out=term)
    fibers = g.take(ri.take(fiber_index[s, y]), axis=1)  # [r, a, j]
    fibers *= 1.0 / (s + 1)
    fibers -= v.take(ri.take(hits[s, y]), axis=1)[:, None]
    return (fibers.real ** 2 + fibers.imag ** 2).sum(axis=0)


def _p_ii_projector(slices: list[tuple[int, int, np.ndarray]], n: int,
                    sigma: np.ndarray, tau: np.ndarray, minv: np.ndarray) -> float:
    """p_(ii') of one pair (image rows) as sum ||E^{R,s} w||^2 over the twirled block."""
    pi_table, _ = perm_tables(n)
    return sum(float(_norm2(project_plus_db(v[:, minv], n, sigma[x], complement=True)
                            * (pi_table[:, sigma[x]] == tau[y])))
               for x, y, v in slices)


def fundamental_check(final: StateVector, rel: Relation, plan: TwirlPlan | None = None,
                      name: str = "") -> VerificationReport:
    """sqrt(p_i) <= sqrt(p_ii) + sqrt((ln N + 1) / N), given the final state
    of the untwirled run: exact without a plan, Monte Carlo over a plan's
    grid (see experiment_probabilities)."""
    n = rel.n
    res = experiment_probabilities(final, rel, plan)
    lhs = math.sqrt(res.p_i)
    rhs = math.sqrt(res.p_ii) + math.sqrt((math.log(n) + 1.0) / n)
    if plan is None:
        return check(name or "fundamental", lhs, rhs, p_i=res.p_i, p_ii=res.p_ii,
                     subsets=res.subsets)
    # p_i is exact, so the error sits on the rhs: the 1-sigma increment
    # under the p_ii standard error, well defined even at p_ii = 0 where
    # the delta method degenerates.
    se_rhs = math.sqrt(res.p_ii + res.stderr_ii) - math.sqrt(res.p_ii)
    return check(name or "fundamental", lhs, rhs, method="monte_carlo", stderr=se_rhs,
                 samples=plan.pair_count, p_i=res.p_i, p_ii=res.p_ii,
                 grid=list(plan.grid_shape))


def p2_upper_bound(final: StateVector, rels: list[Relation]) -> list[float]:
    """The p_(ii)-dominating expression of each relation: expectation over
    (sigma, tau) of the sum over (x,y) in R, pi with tau^{-1}(pi(sigma(x))) = y,
    of the squared norm of <pi| (I - P_{+sigma(x)}) |phi^{sigma,tau}>, for
    the final state of the untwirled run.  Returns one exact value per
    relation, averaged over the full-group plan (n <= 4).

    One twirl pass serves every relation.  A sigma-row projects its
    (rest, T, n!) twirled blocks once per x, charged against
    AMPLITUDE_BUDGET before the first row, and sums the squared entries
    over the rest and over the labels d with pi_d(sigma(x)) = t, for each t;
    only the last step reads R: t counts when tau^{-1}(t) lies in R_x.
    """
    if not rels:
        return []
    n = _db_size_from_layout(final.layout)
    plan = _full_group_plan(n)
    amps = _db_block(final)
    _charge_rows(plan, amps.shape, "p2_upper_bound")
    hits = _hit_fibers(n)[0]  # hits[s, t]: the labels d with pi_d(s) = t
    members = np.stack([rel.members for rel in rels])  # (relation, x, y)
    sections = members[:, :, plan.tau_inv]  # [k, x, j, t]: tau_j^{-1}(t) in R_x
    xs = [x for x in range(n) if members[:, x].any()]

    def term(i, tw):  # tw: (rest, T, n!)
        acc = np.zeros((len(rels), len(plan.taus)))
        for x in xs:
            sx = plan.sigmas[i, x]
            f = project_plus_db(tw, n, sx, complement=True).view(np.float64)
            sq = np.einsum("rck,rck->ck", f, f)  # (T, 2 n!), real and imaginary parts
            per_t = sq.reshape(len(sq), -1, 2)[:, hits[sx]].sum(axis=(2, 3))  # (T, n)
            acc += (sections[:, x] * per_t).sum(axis=2)
        return acc.T

    return _twirl_average(plan, amps, term).tolist()


def progress_measure(final: StateVector, rel: Relation) -> float:
    """E over x and over all of S_N x S_N of
    || E^{R^{sigma,tau},x} |phi^{sigma,tau}> ||^2, for the final state phi of
    the untwirled run: exact, from the subset kernel.

    After reindexing, the progress term at x reads the hit set of the
    twirled relation, which is the p_(ii') term of experiment_probabilities
    summed over (x, y) in R and read on the whole database block instead of
    the <x,y| slice.  So this is the sum over x of _subset_kernel on the
    block and the labels with pi_d(x) in R_x, over N; N times it is the
    p_(ii)-dominating expression that p2_upper_bound averages directly.
    """
    n = rel.n
    amps = _db_block(final)
    return sum(_subset_kernel(amps, n, x, np.flatnonzero(_section_mask(rel, x)))
               for x in range(n) if rel.section(x).size) / n


# --------------------------------------------------------------------------
# Zeta terms and per-query inequalities


def _fiber_sums(g: np.ndarray, n: int, x: int) -> np.ndarray:
    """Sum per-label values (last axis) over the D_{x+1} fiber of each class."""
    hi, radix, lo = db_register_geometry(n, x)
    lead = g.shape[:-1]
    return g.reshape(*lead, hi, radix, lo).sum(axis=-2).reshape(*lead, -1)


def _fiber_terms(lo: np.ndarray, hi: np.ndarray, rows: np.ndarray, n: int,
                 x: int) -> np.ndarray:
    """The three fiber sums behind the zeta terms at register x, unweighted,
    over the leading batch axes of lo and hi broadcast against those of
    rows: returns (..., 3).

    ``rows`` is the section bitset R_x; ``lo[..., z, :]`` / ``hi[..., z, :]`` are
    the per-class fiber sums read for an element z of the first / the other
    two sums (the crucial lemma reads them through sigma^{-1} / tau^{-1}):
      s1 = sum_{z < x}      lo[z] over classes with pi_{x^c}(z) in R_x,
      s2 = sum_{z in R_x}   hi[z] over classes with pi_{>x}^{-1}(z) < x,
      s3 = sum_{z > x} c *  hi[z] over classes with pi_{>x}^{-1}(z) = x,
    where c = |{t <= x : pi_{>x}(t) in R_x}|.  Each sum is linear in the
    bitset, s = sum_y rows[y] W[y], and W, an (n, 3) table per batch entry,
    reads lo and hi alone; so relations broadcast against one W.
    """
    lo_to_y, below, last, above_to_y = _fiber_tables(n, x)
    w1 = lo[..., :x, :].reshape(*lo.shape[:-2], -1) @ lo_to_y
    w2 = np.einsum("...zc,cz->...z", hi, below)
    w3 = np.einsum("...zc,cz->...c", hi, last) @ above_to_y
    return np.einsum("...y,...yk->...k", rows.astype(float),
                     np.stack([w1, w2, w3], axis=-1))


@lru_cache(maxsize=None)
def _fiber_tables(n: int, x: int) -> tuple[np.ndarray, ...]:
    """The 0/1 tables of _fiber_terms at register x, read-only, over the classes
    c of labels with the D_{x+1} digit removed (id hi * lo + lo_index, as in
    _fiber_sums):

      lo_to_y[(z, c), y]  z < x and pi_{x^c}(z) = y        (x * classes, n)
      below[c, z]         pi_{>x}^{-1}(z) < x               (classes, n)
      last[c, z]          pi_{>x}^{-1}(z) = x and z > x     (classes, n)
      above_to_y[c, y]    y = pi_{>x}(t) for some t <= x    (classes, n)
    """
    hi, radix, lo = db_register_geometry(n, x)
    block = radix * lo
    pi_table, _ = perm_tables(n)
    hi_idx = np.arange(hi)[:, None]
    lo_idx = np.arange(lo)[None, :]
    # t_x set to its trivial value x: the label then encodes pi_{>x} pi_{<x}.
    pixc = pi_table[(hi_idx * block + x * lo + lo_idx).reshape(-1)]
    # All digits at and below x trivial (t_j = j): sum_{j<=x} j * j! = block - 1.
    pigt = np.repeat(pi_table[(hi_idx * block + (block - 1)).reshape(-1)], lo, axis=0)
    pigt_inv = np.argsort(pigt, axis=1)
    classes = np.arange(len(pixc))[:, None]
    lo_to_y = np.zeros((x, len(pixc), n))
    lo_to_y[np.arange(x)[:, None], classes.T, pixc[:, :x].T] = 1.0
    above_to_y = np.zeros((len(pixc), n))
    above_to_y[classes, pigt[:, :x + 1]] = 1.0
    tables = (lo_to_y.reshape(-1, n), (pigt_inv < x).astype(float),
              ((pigt_inv == x) & (np.arange(n) > x)).astype(float), above_to_y)
    for table in tables:
        table.setflags(write=False)
    return tables


def query_growth_checks(final: StateVector, pre: list[tuple[str, StateVector]],
                        rels: list[tuple[str, Relation]],
                        tag: str) -> list[VerificationReport]:
    """The per-query rows of one untwirled run, given its final state and its
    (direction, pre-query state) list as run_with_intermediates returns them.
    Per named relation R, at each pre-query state phi_j and register x, the
    one-query growth bound of phi_j's direction (kappa = 2 forward, 4 inverse)

        ||E^{R,x} O phi_j|| - ||E^{R,x} phi_j||
            <= sqrt(|R_x| / (x+1)) ||(I - P_{+x}) phi_j|| + kappa sqrt(zeta),
        zeta = |R_x| / (x+1) ||phi_x||^2 + |R_x| / ((x+1)^2 N) + t / (x+1),

    t = s1 forward and s2 + s3 inverse (_fiber_terms); then at each x both
    accumulation inequalities for ||E^{R,x} phi_final|| (0 <= 0 with no
    query) and the dominance of the linear sum by the Cauchy-Schwarz one.
    Each state is checked for uniform weights, marginalized and queried
    once, and projected once per x before and after its query; relations
    read the projections' per-label weights through their section masks.
    """
    n = _db_size_from_layout(final.layout)
    pi, _ = perm_tables(n)
    members = np.stack([rel.members for _rname, rel in rels])  # (relation, x, y)
    # masks[k, x, d]: pi_d(x) in R_x, the diagonal of Pi^{R,x} for relation k
    masks = members[:, np.arange(n)[:, None], pi.T].astype(float)
    sizes, x1 = members.sum(axis=2), np.arange(1, n + 1)  # |R_x|, x + 1
    ratio = sizes / x1

    def weights(block):  # (x, label): per-label weights of (I - P_{+x}) block
        comp = np.stack([project_plus_db(block, n, x, complement=True) for x in range(n)])
        return np.einsum("xrd,xrd->xd", comp.conj(), comp).real

    def progress_norms(w):  # ||E^{R,x} .|| of each relation and x
        return np.sqrt(np.einsum("kxd,xd->kx", masks, w))

    steps = []  # per state: (lhs, rhs, zeta), each (relation, x)
    rhs_linear, rhs_sq_sum = np.zeros(ratio.shape), np.zeros(ratio.shape)
    for direction, state in pre:
        check_uniform_weights(state)
        g = marginal(state, ("X", *database_names(n))).reshape(n, -1)  # (x, label)
        zeta = ratio * g.sum(axis=1) + sizes / (x1 ** 2 * n)
        for x in range(n):
            fs = _fiber_sums(g, n, x)  # (z, class)
            s1, s2, s3 = _fiber_terms(fs, fs, members[:, x], n, x).T
            for term in (s1,) if direction == "forward" else (s2, s3):
                zeta[:, x] += 1.0 / (x + 1) * term
        before = weights(_db_block(state))
        after = weights(_db_block(spo_query(state, shift_table(n, direction))))
        comp_norm = np.sqrt(before.sum(axis=1))
        kappa = 2.0 if direction == "forward" else 4.0
        steps.append((progress_norms(after) - progress_norms(before),
                      np.sqrt(ratio) * comp_norm + kappa * np.sqrt(zeta), zeta))
        rhs_linear += np.sqrt(ratio) * comp_norm + 4.0 * np.sqrt(zeta)
        rhs_sq_sum += ratio * comp_norm ** 2 + 16.0 * zeta
    lhs = progress_norms(weights(_db_block(final)))
    rhs_cauchy = np.sqrt(2 * len(pre) * rhs_sq_sum)

    out = []
    for k, (rname, _rel) in enumerate(rels):
        for j, (step_lhs, step_rhs, zeta) in enumerate(steps):
            out.extend(check(f"query-step[{tag},{rname},j={j},x={x}]", step_lhs[k, x],
                             step_rhs[k, x], zeta=float(zeta[k, x])) for x in range(n))
        for x in range(n):
            base = f"accumulation[{tag},{rname},x={x}]"
            out += [check(base + ":linear", lhs[k, x], rhs_linear[k, x]),
                    check(base + ":cauchy-schwarz", lhs[k, x], rhs_cauchy[k, x]),
                    check(base + ":dominance", rhs_linear[k, x], rhs_cauchy[k, x])]
    return out


def easy_norm_check(n: int, x: int, rel: Relation, direction: str,
                    name: str = "") -> VerificationReport:
    """|| E^{R,x} Q^{SPO} (I - Pi^{R,x}) || <= sqrt(|R_x| / (x+1)), computed
    slice-wise over the X control (dense YD-slice norms, _spectral_norm)."""
    mask = _section_mask(rel, x)
    e_rows = (np.eye(database_dim(n)) - _plus_projector_dense(n, x))[mask]
    e_yd = np.kron(np.eye(n), e_rows)  # the rows of E^{R,x} on Y (x) D it keeps
    keep = np.tile(~mask, n)  # the columns of I - Pi^{R,x} on Y (x) D
    worst = 0.0
    for z in range(n):
        q_map = query_slice_map(n, z, direction)  # Q^{SPO,z} on Y (x) D
        m = e_yd[:, q_map[keep]]  # M Q (I - Pi), its zero rows and columns dropped
        worst = max(worst, _spectral_norm(m))
    bound = math.sqrt(len(rel.section(x)) / (x + 1))
    return check(name or f"easy-i[x={x},{direction}]", worst, bound)


# --------------------------------------------------------------------------
# The expectation bounds behind the main theorem


def standard_form_prequery_states(
    circ: QueryCircuit,
) -> list[tuple[str, StateVector]]:
    """Pre-query states of the standard-form circuit run with the untwirled
    oracle; the twirled states are their database relabelings."""
    b = standard_form(circ)
    _, pre = run_with_intermediates(b, spo_backend(circ.n))
    return pre


def _complement_norm2(block: np.ndarray, n: int, x: int) -> np.ndarray:
    """||(I - P_{+x}) w||^2 of each column w of a (rest, C, n!) block from the
    Helmert contrasts of its D_{x+1} slices v_0..v_x, an orthonormal basis of
    the complement of the all-ones vector: sum over k = 1..x of
    ||S_k - k v_k||^2 / (k (k+1)), S_k = v_0 + ... + v_{k-1}, with no
    projected copy and no cancellation."""
    hi, radix, lo = db_register_geometry(n, x)
    rest, cols = block.shape[:2]
    view = block.reshape(rest, cols * hi, radix, lo)
    total, partial = np.zeros(cols), view[:, :, 0]
    for k in range(1, radix):  # none at x = 0: D_1 has one value
        contrast = partial - k * view[:, :, k]
        total += _norm2(contrast.reshape(rest, cols, -1)) / (k * (k + 1))
        partial = partial + view[:, :, k]
    return total


def sparsity_expectation(state: StateVector) -> float:
    """E over x, sigma, tau of ||(I - P_{+x}) L^tau R^sigma |phi>||^2 / (x+1),
    read by _complement_norm2: exact, over the full-group plan (n <= 4).  A
    sigma-row gathers (rest, T, n!) twirled blocks, charged against
    AMPLITUDE_BUDGET before the first row."""
    n = _db_size_from_layout(state.layout)
    plan = _full_group_plan(n)
    amps = _db_block(state)
    _charge_rows(plan, amps.shape, "sparsity_expectation")

    def term(_i, tw):  # tw: (rest, T, n!)
        return sum(_complement_norm2(tw, n, x) / (x + 1) for x in range(n)) / n

    return float(_twirl_average(plan, amps, term))


def crucial_term_values(pre: list[tuple[str, StateVector]],
                        rels: list[Relation]) -> list[list[tuple[float, float, float]]]:
    """Per relation, and per pre-query state j of the standard-form circuit,
    given as the (direction, state) list of standard_form_prequery_states:
    the three twirl expectations of the crucial lemma, each to be compared
    with its bound: exact, over the full-group plan (n <= 4).

    The underlying outcome distribution q_{omega,xi} is defined relative to a
    purification choice; here it is evaluated on the canonical joint state of
    the actual run (algorithm registers serve as the purifying system), which
    the averaging argument makes sufficient.  One twirl pass gives all three
    for every state and every relation: a sigma-row gathers the (J, n, n!)
    marginals of the J states at each of its T pairs, charged against
    AMPLITUDE_BUDGET before any marginal is taken, and the relations read
    its fiber sums through their twisted section rows alone (_fiber_terms).
    """
    if not pre or not rels:
        return [[] for _rel in rels]
    n = rels[0].n
    plan = _full_group_plan(n)
    _charge_rows(plan, (len(pre), n, database_dim(n)), "crucial_term_values")
    g = np.stack([marginal(state, ("X", *database_names(n))).reshape(n, -1)
                  for _direction, state in pre])  # (state, x, label)
    members = np.stack([rel.members for rel in rels])  # (relation, x, y)
    ti = plan.tau_inv
    c, j = np.ogrid[:len(ti), :len(g)]

    def term(i, gathered):  # gathered: (J, x, T, label)
        si = plan.sigma_inv[i]
        gg = gathered.transpose(2, 0, 1, 3)  # (T, J, x, label)
        acc = np.zeros((len(ti), len(rels), len(g), 3))
        for x in range(n):
            fs = _fiber_sums(gg, n, x)  # (T, J, z, class)
            hi = fs[c[..., None], j[..., None], ti[:, None]]  # read through tau^{-1}
            # Row x of R^{sigma,tau} for every relation: (T, relation, 1, n).
            twisted = members[:, si[x], ti].transpose(1, 0, 2)[:, :, None]
            acc += _fiber_terms(fs.take(si, axis=2)[:, None], hi[:, None], twisted,
                                n, x) / (x + 1)
        return acc / n

    mean = _twirl_average(plan, g, term)  # (relation, state, 3)
    return [[tuple(float(v) for v in row) for row in per_rel] for per_rel in mean]


def progress_checks(circ: QueryCircuit, final: StateVector,
                    rels: list[tuple[str, Relation]]) -> list[VerificationReport]:
    """The progress rows of one circuit, from ``final``, the final state of
    its untwirled run, against each named relation.

    Per relation R: N * progress_measure equals the p_(ii)-dominating
    expression (1e-10), and that expression dominates p_(ii).  When the
    circuit queries and R is non-empty, also the hard-database bound

        progress measure <= 384 q^2 r (ln N + 2)/N^2 + 4 q r * sum_j E[...]

    and the three crucial-term bounds.  Every value is exact, so the rows
    run at N <= 4: the full-group plan is read first, which refuses a
    larger N before the state is read.  The progress measure and p_(ii) are
    read from the subset kernel and p2_upper_bound is the engine's average
    over that plan, so both identity rows set the kernel against the
    engine.  p2_upper_bound makes one twirl pass for every relation, from
    ``final``, and crucial_term_values one for every non-empty relation,
    from the pre-query states of the standard-form circuit, which runs at
    most once (the circuit itself does not run here).
    Both passes run before the first row is made, so under run_suite that
    row's runtime_ms carries them.  Every row read from a twirl average
    reports the plan's pair count, and every row read from the kernel its
    subsets per register.  The sparsity tail sum_j E[...] does not depend
    on R; it is sum_j <phi_j|Gamma|phi_j> over the pre-query states (the
    identity the sparsity rows check), once per circuit.
    """
    n = circ.n
    plan = make_twirl_plan(n)
    q = circ.query_count
    log_n = math.log(n)

    pairs, subsets = plan.pair_count, _subset_count(n)
    p2s = p2_upper_bound(final, [rel for _rname, rel in rels])
    hard = [rel for _rname, rel in rels if q and rel.size]
    crucial = iter(())
    if hard:
        pre = standard_form_prequery_states(circ)
        tail = sum(gamma_expectation(state) for _direction, state in pre)
        crucial = iter(crucial_term_values(pre, hard))
    out = []
    for (rname, rel), p2 in zip(rels, p2s):
        tag = f"{circ.name},{rname}"
        measure = progress_measure(final, rel)
        res = experiment_probabilities(final, rel)
        out.append(check_close(f"progress-identity[{tag}]", n * measure, p2,
                               tol=1e-10, pairs=pairs, subsets=subsets))
        out.append(check(f"p2-dominates-p_ii[{tag}]", res.p_ii, p2, tol=1e-10,
                         pairs=pairs, subsets=subsets))
        if not (q and rel.size):
            continue
        r = rel.r_max
        rhs = 384.0 * q * q * r * (log_n + 2.0) / n ** 2 + 4.0 * q * r * tail
        out.append(check(f"hard-database[{tag}]", measure, rhs, pairs=pairs,
                         subsets=subsets))
        values = next(crucial)
        for k, c in enumerate((log_n + 3.0, log_n + 1.0, log_n + 1.0)):
            out.append(check(f"crucial[{tag}]:{k + 1}", max(v[k] for v in values),
                             c * r / n ** 2, pairs=pairs))
    return out


# --------------------------------------------------------------------------
# The Gamma operator and sparsity trajectories


def _all_cycles(n: int, length: int) -> np.ndarray:
    """The (C, n) image table, in label order, of the 2- or 3-cycles: the
    permutations that move exactly ``length`` points."""
    if length not in (2, 3):
        raise ValueError(f"cycle tables hold 2- or 3-cycles, got length {length}")
    if n < length:
        raise ValueError(f"no {length}-cycles in S_{n}")
    images = all_images(n)
    return images[(images != np.arange(n)).sum(axis=1) == length]


@lru_cache(maxsize=None)
def _cycle_maps(n: int, length: int, side: str) -> np.ndarray:
    """The (C, n!) label maps of R^g (side "right") or L^g, g in _all_cycles."""
    return left_right_map(n, **{"sigma" if side == "right" else "tau": _all_cycles(n, length)})


def gamma_coefficients(n: int) -> tuple[float, float, float]:
    h1, h2, h3 = harmonic(n, 1), harmonic(n, 2), harmonic(n, 3)
    return ((h1 - h2) / n, 2.0 * (h2 - h3) / n, (h1 - 3.0 * h2 + 2.0 * h3) / n)


@lru_cache(maxsize=None)
def gamma_operator(n: int) -> np.ndarray:
    """Gamma = E_x (1/(x+1)) E_{sigma,tau} (L R)^+ (I - P_{+x}) (L R), from
    its closed form c1 I - c2 W^(2) - c3 W^(3): a real symmetric nf x nf
    array, built once per n and read-only.  Each W^(l), the mean of the
    l-cycles' label maps |d> -> |m_g[d]>, is scattered into the one matrix."""
    nf = database_dim(n)
    charge(nf * nf, f"Gamma at n={n} needs 1 dense {nf} x {nf} matrix")
    c1, *weights = gamma_coefficients(n)
    mat = np.zeros((nf, nf))
    mat.flat[::nf + 1] = c1  # the maps fix no label: the diagonal stays c1
    for c, length in zip(weights, range(2, min(n, 3) + 1)):
        maps = _cycle_maps(n, length, "right")
        np.add.at(mat, (maps, np.arange(nf)), -c * (1.0 / len(maps)))
    mat.setflags(write=False)
    return mat


def gamma_brute_force(n: int) -> np.ndarray:
    """Gamma by its defining twirl average, conjugating the complements
    I - P_{+x} by every L^tau and R^sigma: the referee of the closed form
    (n <= 6).  The average is linear, so it twirls their weighted sum
    M = (1/n) sum_x (I - P_{+x}) / (x + 1) once."""
    if n > 6:
        raise ValueError("brute-force Gamma capped at n=6")
    perms = all_images(n)
    eye = np.eye(database_dim(n))
    m = sum((eye - _plus_projector_dense(n, x)) / (x + 1) for x in range(n)) / n
    # nested averages: E_tau L^+ M L, then E_sigma R^+ (.) R
    m_tau = sum(m[np.ix_(lm, lm)] for lm in left_right_map(n, tau=perms)) / len(perms)
    return sum(m_tau[np.ix_(rm, rm)] for rm in left_right_map(n, sigma=perms)) / len(perms)


def gamma_expectation(state: StateVector) -> float:
    """<phi| Gamma |phi> on the database block, as a sum of squares since
    c1 = c2 + c3: each row v of the (rest, n!) block adds sum_l c_l/(2|C_l|)
    sum_g ||v - v[m_g]||^2 over the l-cycles' label maps.  Never negative,
    and exactly 0 on a block constant over labels.  Each class's gather is
    charged against AMPLITUDE_BUDGET before it is taken."""
    n = _db_size_from_layout(state.layout)
    block = _db_block(state)
    total = 0.0
    for c, length in zip(gamma_coefficients(n)[1:], range(2, min(n, 3) + 1)):
        maps = _cycle_maps(n, length, "right")
        charge(len(maps) * block.size, f"<Gamma> at n={n} gathers {block.shape[0]} x "
               f"{len(maps)} x {block.shape[1]} entries")
        gap = block[:, maps]
        gap -= block[:, None]
        total += c / (2 * len(maps)) * np.vdot(gap, gap).real
    return float(total)


def commutator_operator(n: int, z: int, direction: str) -> LinearOperator:
    """[Gamma, O^{SPO,z}] on the Y (x) D slice."""
    nf = database_dim(n)
    q = from_permutation((n, nf), query_slice_map(n, z, direction),
                         label=f"O^SPO,{z}")
    g = gamma_operator(n)

    def gamma_yd(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        # I_N (x) Gamma on two (Y * D, rest) blocks: one real product with
        # the (D, (2, Y, rest)) matricization, real and imaginary parts as
        # adjacent columns.  Returns the two images stacked.
        rest = first.shape[1]
        v = np.stack([first, second]).astype(np.complex128, copy=False)
        v = v.reshape(2, n, nf, rest).transpose(2, 0, 1, 3)
        v = np.ascontiguousarray(v).reshape(nf, -1).view(np.float64)
        out = (g @ v).view(np.complex128).reshape(nf, 2, n, rest)
        return out.transpose(1, 2, 0, 3).reshape(2, n * nf, rest)

    def apply_block(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        g_qb, g_b = gamma_yd(q.apply_block(block), block)
        return np.subtract(g_qb, q.apply_block(g_b), out=out)

    def adjoint_block(block: np.ndarray) -> np.ndarray:
        # [Gamma, Q]^+ = Q^+ Gamma - Gamma Q^+ (Gamma self-adjoint)
        g_b, g_qb = gamma_yd(block, q.adjoint_block(block))
        return q.adjoint_block(g_b) - g_qb

    return LinearOperator((n, nf), apply_block, adjoint_block,
                          label=f"[Gamma,O^{z}]")


# The one commutator whose norm commutator_norm takes, as report rows name it.
NORMED_COMMUTATOR = "z=0,forward"


def commutator_growth_check(n: int, name: str = "") -> list[VerificationReport]:
    """max_x ||[Gamma, O^{SPO,x}]|| <= 6 (ln N + 1) / N^2, both directions."""
    if n > 6:
        raise ValueError("commutator check capped at n=6")
    bound = 6.0 * (math.log(n) + 1.0) / n ** 2
    out = []
    for direction in ("forward", "inverse"):
        worst = commutator_norm(n, direction)
        out.append(check(name or f"commutator[n={n},{direction}]", worst, bound,
                         normed=NORMED_COMMUTATOR))
    return out


def _certify_commutator_symmetries(n: int) -> None:
    """Raise RuntimeError unless two database relabelings hold exactly.

    J, d -> idx(pi_d^{-1}), and R_z, d -> idx(pi_d <0 z>), are involutions.
    Each must fix Gamma bitwise.  Acting on D alone, J must carry the (y, d)
    map of O^{SPO,z} forward to the inverse one for every z, and R_z must
    carry O^{SPO,0} forward to O^{SPO,z} forward.  Then every [Gamma,
    O^{SPO,z}], in both directions, is a permutation similarity of
    [Gamma, O^{SPO,0}] forward, and all 2N norms are equal.
    """
    g = gamma_operator(n)
    nf = database_dim(n)
    ys, ds = np.divmod(np.arange(n * nf), nf)
    forward = [query_slice_map(n, z, "forward") for z in range(n)]
    inverse = rank_labels(perm_tables(n)[1].T)  # d -> idx(pi_d^{-1})
    # (name, label map, [(z, map it carries, the map it must give)])
    relabelings = [("J", inverse, [(z, forward[z], query_slice_map(n, z, "inverse"))
                                   for z in range(n)])]
    if n > 1:  # N = 1 has no <0 z>
        zs = np.arange(1, n)
        swaps = np.tile(np.arange(n), (n - 1, 1))  # row z - 1: the images of <0 z>
        swaps[zs - 1, 0], swaps[zs - 1, zs] = zs, 0
        r_maps = left_right_map(n, sigma=swaps)  # row z - 1: d -> idx(pi_d <0 z>)
        relabelings += [(f"R<0 {z}>", r_maps[z - 1], [(z, forward[0], forward[z])])
                        for z in range(1, n)]
    for name, m, carried in relabelings:
        if not (np.array_equal(m[m], np.arange(nf))
                and np.array_equal(g[np.ix_(m, m)], g)):
            raise RuntimeError(f"the relabeling {name} is not an involution that "
                               f"fixes Gamma (n={n})")
        joint = ys * nf + m[ds]  # the relabeling on Y (x) D
        for z, src, dst in carried:
            if not np.array_equal(joint[src[joint]], dst):
                raise RuntimeError(f"the relabeling {name} does not carry the "
                                   f"query map onto that of z={z} (n={n})")


@lru_cache(maxsize=None)
def commutator_norm(n: int, direction: str) -> float:
    """max_z ||[Gamma, O^{SPO,z}]|| in one direction.

    Every call that is not cached first certifies, exactly, the symmetries
    of _certify_commutator_symmetries, which make all 2N norms equal; then
    both directions read the one norm of (z = 0, forward) through
    operator_norm: a dense SVD up to DENSE_NORM_CAP, Lanczos above it (the
    N = 6 commutator).  The dense norms of every z and direction are the
    referee in the tests; they never use the symmetry.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    _certify_commutator_symmetries(n)
    if direction == "inverse":
        return commutator_norm(n, "forward")
    return operator_norm(commutator_operator(n, 0, "forward"))


def sparsity_trajectory_check(circ: QueryCircuit,
                              name: str = "") -> list[VerificationReport]:
    """<phi^(j)| Gamma |phi^(j)> <= 6 j (ln N + 1) / N^2 along the run, with
    per-step increments bounded by the matching commutator norm, and the
    Gamma expectation matched against its defining twirl average,
    sparsity_expectation, to 1e-10.  That average is exact over the
    full-group plan, which is read first, so a circuit at N > 4 is refused
    before it runs."""
    n = circ.n
    plan = make_twirl_plan(n)
    final, pre = run_with_intermediates(circ, spo_backend(n))
    states = [state for _d, state in pre] + [final]
    directions = [d for d, _s in pre]
    per_query = 6.0 * (math.log(n) + 1.0) / n ** 2
    base = name or f"sparsity[{circ.name}]"
    out = []
    comm_norms = {d: commutator_norm(n, d) for d in set(directions)}
    values = [gamma_expectation(s) for s in states]
    for j, val in enumerate(values):
        out.append(check(f"{base}:j={j}", val, per_query * j))
    for j in range(1, len(values)):
        out.append(check(f"{base}:step{j}", values[j] - values[j - 1],
                         comm_norms[directions[j - 1]], normed=NORMED_COMMUTATOR))
    for j, state in enumerate(states):
        direct = sparsity_expectation(state)
        out.append(check_close(f"{base}:identity j={j}", direct, values[j],
                               tol=1e-10, pairs=plan.pair_count))
    return out


# --------------------------------------------------------------------------
# Main-theorem checker


def theorem_check(circ: QueryCircuit,
                  rels: list[tuple[str, Relation]]) -> list[VerificationReport]:
    """One row per named relation R: lhs = Pr[(x, pi(x)) in R] over all pi,
    read for every R from one concrete run over all N! permutations
    (success_probability); rhs = min(1, 914 q^3 r_max (ln N + 2)/N) with
    'fewer than q' semantics (q = query count + 1); flags vacuity."""
    q = circ.query_count + 1
    wins = success_probability(circ, all_images(circ.n), [rel for _rname, rel in rels])
    out = []
    for (rname, rel), row in zip(rels, wins.tolist()):
        rhs_raw = main_bound(q, circ.n, rel.r_max) if rel.r_max else 0.0
        rhs = clamped(rhs_raw)
        out.append(check(f"theorem[{circ.name},{rname}]", sum(row) / len(row), rhs,
                         vacuous=(rhs >= 1.0), q=q, r_max=rel.r_max, bound_raw=rhs_raw))
    return out
