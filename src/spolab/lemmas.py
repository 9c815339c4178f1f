"""Numerical checkers for the oracle framework's inequalities and identities.

The central objects are the database operators

    Pi^{R,x} = sum_{pi : pi(x) in R_x} |pi><pi|          (relation projector)
    E^{R,x}  = Pi^{R,x} (I - |+_x><+_x| on D_x)          (progress operator)

and the twirl average over (sigma, tau) pairs.  Averages are exhaustive for
N <= 4 (all (N!)^2 pairs) and stratified seeded sampling above: a row sample
of sigmas crossed with a column sample of taus, whose standard error adds
the row and column variance components (see grid_mean_stderr).

All element labels are 0-based; the 1-based 1/x weights become 1/(x+1).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .bounds import harmonic
from .circuits import (
    QueryCircuit,
    concrete_backend,
    output_distribution,
    run,
    run_with_intermediates,
    standard_form,
)
from .oracles import (
    database_dim,
    db_register_geometry,
    left_right_map,
    perm_tables,
    project_plus_db,
    spo_backend,
    spo_query,
    _db_size_from_layout,
    _shift_table,
)
from .permutations import Permutation, all_permutations, sample_uniform
from .relations import Relation
from .reporting import VerificationReport, check, check_close
from .states import LinearOperator, StateVector, from_matrix

EXHAUSTIVE_TWIRL_LIMIT = 4


class WeightPreconditionError(ValueError):
    """A state failed the uniform permutation-basis weight precondition."""


# --------------------------------------------------------------------------
# Twirl plans


@dataclass(frozen=True)
class TwirlPlan:
    """A (sigma, tau) product grid with precomputed database label maps."""

    n: int
    sigmas: tuple[Permutation, ...]
    taus: tuple[Permutation, ...]
    exhaustive: bool
    seed: int | None
    right_maps: np.ndarray  # (len(sigmas), n!): d -> idx(pi_d sigma^{-1})
    left_maps: np.ndarray   # (len(taus), n!):  d -> idx(tau pi_d)
    sigma_inv: np.ndarray = field(init=False, repr=False)  # (len(sigmas), n)
    tau_inv: np.ndarray = field(init=False, repr=False)    # (len(taus), n)

    def __post_init__(self) -> None:
        # The inverse images, built once: argsort inverts a permutation row.
        for name, perms in (("sigma_inv", self.sigmas), ("tau_inv", self.taus)):
            images = np.array([p.images for p in perms])
            object.__setattr__(self, name, np.argsort(images, axis=1))

    @property
    def pair_count(self) -> int:
        return len(self.sigmas) * len(self.taus)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return len(self.sigmas), len(self.taus)

    def pairs(self) -> Iterator[tuple[int, int, Permutation, Permutation, np.ndarray]]:
        """Yields (i, j, sigma, tau, minv) with minv the inverse label map:
        the twirled state is old_amps[..., minv]."""
        nf = database_dim(self.n)
        arange = np.arange(nf)
        for i, sigma in enumerate(self.sigmas):
            rm = self.right_maps[i]
            for j, tau in enumerate(self.taus):
                m = self.left_maps[j][rm]
                minv = np.empty(nf, dtype=m.dtype)
                minv[m] = arange
                yield i, j, sigma, tau, minv


def make_twirl_plan(n: int, seed: int | None = None, min_pairs: int = 2000,
                    exhaustive: bool | None = None) -> TwirlPlan:
    if exhaustive is None:
        exhaustive = n <= EXHAUSTIVE_TWIRL_LIMIT
    if exhaustive:
        perms = tuple(all_permutations(n))
        sigmas = taus = perms
    else:
        if seed is None:
            raise ValueError("sampled twirl plans require a seed")
        if min_pairs < 2:
            # A grid with one row or column has no stderr estimate.
            raise ValueError("sampled twirl plans need min_pairs >= 2 (a 2 x 2 "
                             f"grid at least), got min_pairs={min_pairs}")
        rng = np.random.default_rng(seed)
        side = math.ceil(math.sqrt(min_pairs))
        sigmas = tuple(sample_uniform(n, rng) for _ in range(side))
        taus = tuple(sample_uniform(n, rng) for _ in range(side))
    right_maps = np.stack([left_right_map(n, sigma=s) for s in sigmas])
    left_maps = np.stack([left_right_map(n, tau=t) for t in taus])
    return TwirlPlan(n, sigmas, taus, exhaustive, seed, right_maps, left_maps)


def grid_mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error for a crossed (rows x cols) sample.

    The error is sqrt(var(row means) / R + var(col means) / C): the grand
    mean of a crossed grid carries both the row and the column variance
    (Owen, "The pigeonhole bootstrap", 2007), so either term alone
    understates it.  One row or column gives no estimate and reports 0.
    """
    mean = float(values.mean())
    rows, cols = values.shape
    if rows < 2 or cols < 2:
        return mean, 0.0
    var_rows = float(values.mean(axis=1).var(ddof=1))
    var_cols = float(values.mean(axis=0).var(ddof=1))
    return mean, math.sqrt(var_rows / rows + var_cols / cols)


def _twirl_average(plan: TwirlPlan, width: int,
                   term: Callable[..., tuple[float, ...]]) -> list[tuple[float, float]]:
    """(mean, stderr) over the plan of each of the ``width`` values that
    ``term(sigma, tau, sigma_inv, tau_inv, minv)`` gives for one pair.

    ``sigma_inv``/``tau_inv`` are inverse images; the twirled block is
    ``block[..., minv]``.  Exhaustive plans give the exact mean with stderr
    0, sampled plans the crossed-grid estimate of grid_mean_stderr.
    """
    grid = np.zeros((width, *plan.grid_shape))
    for i, j, sigma, tau, minv in plan.pairs():
        grid[:, i, j] = term(sigma, tau, plan.sigma_inv[i], plan.tau_inv[j], minv)
    if plan.exhaustive:
        return [(float(values.mean()), 0.0) for values in grid]
    return [grid_mean_stderr(values) for values in grid]


# --------------------------------------------------------------------------
# Database operators


@lru_cache(maxsize=None)
def _plus_projector_dense(n: int, x: int) -> np.ndarray:
    nf = database_dim(n)
    eye = np.eye(nf, dtype=np.complex128)
    return project_plus_db(eye, n, x)  # symmetric, so row-wise action is fine


def plus_projector(n: int, x: int) -> LinearOperator:
    """|+_{x+1}><+_{x+1}| on register D_{x+1}, as an operator on the database."""
    return from_matrix(_plus_projector_dense(n, x), (database_dim(n),),
                       label=f"P+[{x}]")


def _section_mask(rel: Relation, x: int) -> np.ndarray:
    """Boolean over labels d: pi_d(x) in R_x."""
    pi, _ = perm_tables(rel.n)
    return rel.members[x, pi[:, x]]


def relation_projector(rel: Relation, x: int) -> LinearOperator:
    """Pi^{R,x} = sum over pi with pi(x) in R_x of |pi><pi|."""
    mask = _section_mask(rel, x).astype(np.complex128)
    nf = database_dim(rel.n)

    def apply_block(block: np.ndarray) -> np.ndarray:
        return mask[:, None] * block

    return LinearOperator((nf,), apply_block, apply_block, label=f"Pi^R[{x}]")


def progress_operator(rel: Relation, x: int) -> LinearOperator:
    """E^{R,x} = Pi^{R,x} (I - |+_x><+_x|); not self-adjoint."""
    n = rel.n
    mask = _section_mask(rel, x).astype(np.complex128)
    nf = database_dim(n)

    def apply_block(block: np.ndarray) -> np.ndarray:
        out = project_plus_db(block.T, n, x, complement=True).T
        return mask[:, None] * out

    def adjoint_block(block: np.ndarray) -> np.ndarray:
        out = mask[:, None] * block
        return project_plus_db(out.T, n, x, complement=True).T

    return LinearOperator((nf,), apply_block, adjoint_block, label=f"E^R[{x}]")


def _apply_progress(amps: np.ndarray, n: int, x: int, mask: np.ndarray) -> np.ndarray:
    """E^{R,x} on a (rest, n!) block."""
    out = project_plus_db(amps, n, x, complement=True)
    return out * mask[None, :]


def _progress_norm2(amps: np.ndarray, n: int, x: int, mask: np.ndarray) -> float:
    """||E^{R,x} v||^2 for a (rest, n!) block v and the section mask of R."""
    if not mask.any():
        return 0.0
    out = _apply_progress(amps, n, x, mask)
    return float(np.vdot(out, out).real)


def help_norm(n: int, x: int, y_set: frozenset[int] | set[int]) -> tuple[float, float]:
    """Exact norm of sum_{pi: pi(x) in Y} |pi><pi| |+_{x+1}><+_{x+1}|, and
    the bound sqrt(|Y| / (x+1))."""
    if n > 6:
        raise ValueError("dense help-lemma norms capped at n=6")
    pi, _ = perm_tables(n)
    y_arr = np.zeros(n, dtype=bool)
    for y in y_set:
        y_arr[y] = True
    mask = y_arr[pi[:, x]].astype(float)
    mat = mask[:, None] * _plus_projector_dense(n, x)
    norm = float(np.linalg.norm(mat, 2)) if mask.any() else 0.0
    return norm, math.sqrt(len(y_set) / (x + 1))


# --------------------------------------------------------------------------
# State bookkeeping


def _db_block(state: StateVector) -> np.ndarray:
    """View the amplitudes as (rest, n!) with the database label last."""
    n = _db_size_from_layout(state.layout)
    return state.amps.reshape(-1, database_dim(n))


def check_uniform_weights(state: StateVector, tol: float = 1e-9) -> None:
    """Require ||<pi|phi>||^2 = 1/N! for every pi (holds along untwirled runs)."""
    nf = database_dim(_db_size_from_layout(state.layout))
    arr = _db_block(state)
    probs = np.einsum("rd,rd->d", arr.conj(), arr).real
    if np.max(np.abs(probs - 1.0 / nf)) > tol:
        raise WeightPreconditionError(
            "permutation-basis weights deviate from 1/N! by "
            f"{np.max(np.abs(probs - 1.0 / nf)):.2e}")


def _xslice_weights(state: StateVector) -> np.ndarray:
    """G[z, d] = squared norm of <z|_X <pi_d|_D |phi> over remaining registers."""
    lay = state.layout
    arr = np.abs(state.reshaped()) ** 2
    keep = {"X"} | {nm for nm in lay.names if nm.startswith("D")}
    axes = tuple(i for i, nm in enumerate(lay.names) if nm not in keep)
    n = lay.dim("X")
    return arr.sum(axis=axes).reshape(n, -1)


# --------------------------------------------------------------------------
# Fundamental-lemma experiments


@dataclass
class ExperimentResult:
    p_i: float
    p_ii: float
    stderr_i: float
    stderr_ii: float
    method: str
    pairs: int


def experiment_probabilities(circ: QueryCircuit, rel: Relation,
                             plan: TwirlPlan) -> ExperimentResult:
    """p_(i') and p_(ii') of the fundamental lemma, averaged over the plan.

    One untwirled SPO run provides the joint state; each (sigma, tau) branch
    is its database relabeling (checked separately as the twisted-vs-not
    identity).  For every output pair (x, y) in R the projector-norm forms
    are evaluated on the <x,y| slice of the state.
    """
    n = circ.n
    final = run(circ, spo_backend(n))
    lay = final.layout
    arr = final.reshaped()
    x_ax, y_ax = lay.axis("X"), lay.axis("Y")
    nf = database_dim(n)
    pi_table, _ = perm_tables(n)

    slices: list[tuple[int, int, np.ndarray]] = []
    for x, y in rel.pairs():
        idx = [slice(None)] * len(lay.names)
        idx[x_ax], idx[y_ax] = x, y
        v = np.ascontiguousarray(arr[tuple(idx)]).reshape(-1, nf)
        if np.vdot(v, v).real > 1e-28:
            slices.append((x, y, v))

    def term(sigma, tau, _si, _ti, minv):
        p_i = p_ii = 0.0
        for x, y, v in slices:
            sx = sigma.images[x]
            mask = pi_table[:, sx] == tau.images[y]
            tv = v[:, minv]
            p_i += float((np.abs(tv[:, mask]) ** 2).sum())
            p_ii += _progress_norm2(tv, n, sx, mask)
        return p_i, p_ii

    (p_i, se_i), (p_ii, se_ii) = _twirl_average(plan, 2, term)
    method = "exact" if plan.exhaustive else "monte_carlo"
    return ExperimentResult(p_i, p_ii, se_i, se_ii, method, plan.pair_count)


def fundamental_check(circ: QueryCircuit, rel: Relation,
                      plan: TwirlPlan, name: str = "") -> VerificationReport:
    """sqrt(p_i) <= sqrt(p_ii) + sqrt((ln N + 1) / N)."""
    start = time.perf_counter()
    res = experiment_probabilities(circ, rel, plan)
    n = circ.n
    lhs = math.sqrt(res.p_i)
    rhs = math.sqrt(res.p_ii) + math.sqrt((math.log(n) + 1.0) / n)
    elapsed = (time.perf_counter() - start) * 1000.0
    if res.method == "exact":
        return check(name or f"fundamental[{circ.name}]", lhs, rhs,
                     runtime_ms=elapsed, p_i=res.p_i, p_ii=res.p_ii)
    # 1-sigma increment of the rhs under the p_ii standard error; well
    # defined even at p_ii = 0 where the delta method degenerates.
    se_rhs = math.sqrt(res.p_ii + res.stderr_ii) - math.sqrt(res.p_ii)
    return check(name or f"fundamental[{circ.name}]", lhs, rhs,
                 method="monte_carlo", stderr=se_rhs, samples=res.pairs,
                 runtime_ms=elapsed, p_i=res.p_i, p_ii=res.p_ii)


def p2_upper_bound(circ: QueryCircuit, rel: Relation,
                   plan: TwirlPlan) -> tuple[float, float]:
    """The p_(ii)-dominating expression: expectation over (sigma, tau) of
    sum over (x,y) in R, pi with tau^{-1}(pi(sigma(x))) = y, of the squared
    norm of <pi| (I - P_{+sigma(x)}) |phi^{sigma,tau}>.  Returns (value, stderr).
    """
    n = circ.n
    amps = _db_block(run(circ, spo_backend(n)))
    pi_table, _ = perm_tables(n)
    sections = [(x, rel.section(x)) for x in range(n) if rel.section(x).size]

    def term(sigma, tau, _si, _ti, minv):
        tw = amps[:, minv]
        acc = 0.0
        for x, ys in sections:
            # Labels with pi(sigma(x)) in tau(R_x), from the images of R's pairs.
            hit = np.zeros(n, dtype=bool)
            hit[[tau.images[y] for y in ys]] = True
            sx = sigma.images[x]
            acc += _progress_norm2(tw, n, sx, hit[pi_table[:, sx]])
        return (acc,)

    return _twirl_average(plan, 1, term)[0]


def progress_measure(circ: QueryCircuit, rel: Relation,
                     plan: TwirlPlan) -> tuple[float, float]:
    """E over x, sigma, tau of || E^{R^{sigma,tau},x} |phi^{sigma,tau}> ||^2."""
    n = circ.n
    amps = _db_block(run(circ, spo_backend(n)))
    pi_table, _ = perm_tables(n)

    def term(_sigma, _tau, si, ti, minv):
        tw = amps[:, minv]
        twisted = rel.members[np.ix_(si, ti)]  # R^{sigma,tau} bitset
        # mask: (x, pi_d(x)) in R^{sigma,tau}
        return (sum(_progress_norm2(tw, n, x, twisted[x][pi_table[:, x]])
                    for x in range(n)) / n,)

    return _twirl_average(plan, 1, term)[0]


def progress_identity_check(circ: QueryCircuit, rel: Relation, plan: TwirlPlan,
                            name: str = "") -> VerificationReport:
    """N * progress_measure equals the p_(ii)-dominating expression (1e-10)."""
    start = time.perf_counter()
    lhs = circ.n * progress_measure(circ, rel, plan)[0]
    rhs = p2_upper_bound(circ, rel, plan)[0]
    return check_close(name or f"progress-identity[{circ.name}]", lhs, rhs,
                       tol=1e-10,
                       runtime_ms=(time.perf_counter() - start) * 1000.0)


# --------------------------------------------------------------------------
# Zeta terms and per-query inequalities


@lru_cache(maxsize=None)
def _class_tables(n: int, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class data for register x: pi_{x^c} images, pi_{>x} images and its
    inverse; classes enumerate the database with the D_{x+1} digit removed
    (class id = hi * lo + lo_index, matching the fiber-sum ordering)."""
    hi, radix, lo = db_register_geometry(n, x)
    block = radix * lo
    pi_table, _ = perm_tables(n)
    hi_idx = np.arange(hi)[:, None]
    lo_idx = np.arange(lo)[None, :]
    # t_x set to its trivial value x: the label then encodes pi_{>x} pi_{<x}.
    d_rep = (hi_idx * block + x * lo + lo_idx).reshape(-1)
    pixc = pi_table[d_rep]
    # All digits at and below x trivial (t_j = j): sum_{j<=x} j * j! = block - 1.
    d_above = (hi_idx * block + (block - 1)).reshape(-1)
    pigt = np.repeat(pi_table[d_above], lo, axis=0)
    inv = np.empty_like(pigt)
    rows = np.arange(pigt.shape[0])[:, None]
    inv[rows, pigt] = np.arange(n)[None, :]
    return pixc, pigt, inv


def _fiber_sums(g_row: np.ndarray, n: int, x: int) -> np.ndarray:
    """Sum a per-label vector over the D_{x+1} fiber of each class."""
    hi, radix, lo = db_register_geometry(n, x)
    return g_row.reshape(-1, hi, radix, lo).sum(axis=2).reshape(g_row.shape[0], -1)


def _fiber_terms(lo: np.ndarray, hi: np.ndarray, row: np.ndarray, n: int,
                 x: int) -> tuple[float, float, float]:
    """The three fiber sums behind the zeta terms at register x, unweighted.

    ``row`` is the section bitset R_x; ``lo[z]`` / ``hi[z]`` are the per-class
    fiber sums read for an element z of the first / the other two sums (the
    crucial lemma reads them through sigma^{-1} / tau^{-1}):
      s1 = sum_{z < x}      lo[z] over classes with pi_{x^c}(z) in R_x,
      s2 = sum_{z in R_x}   hi[z] over classes with pi_{>x}^{-1}(z) < x,
      s3 = sum_{z > x} c *  hi[z] over classes with pi_{>x}^{-1}(z) = x,
    where c = |{t <= x : pi_{>x}(t) in R_x}|.
    """
    pixc, pigt, pigt_inv = _class_tables(n, x)
    s1 = sum(float(lo[z][row[pixc[:, z]]].sum()) for z in range(x))
    s2 = sum(float(hi[z][pigt_inv[:, z] < x].sum()) for z in np.flatnonzero(row))
    counts = row[pigt[:, : x + 1]].sum(axis=1)
    s3 = sum(float((counts * hi[z])[pigt_inv[:, z] == x].sum())
             for z in range(x + 1, n))
    return s1, s2, s3


def zeta_parts(state: StateVector, x: int, rel: Relation,
               direction: str) -> tuple[float, ...]:
    """The summands of zeta (forward: 3 terms) or zeta^inv (4 terms)."""
    check_uniform_weights(state)
    n = rel.n
    g = _xslice_weights(state)  # (n, n!)
    rx = rel.section(x)
    weight = len(rx) / (x + 1)
    term1 = weight * float(g[x].sum())
    term2 = len(rx) / ((x + 1) ** 2 * n)
    fs = _fiber_sums(g, n, x)  # (n, classes)
    s1, s2, s3 = _fiber_terms(fs, fs, rel.members[x], n, x)
    inv_x = 1.0 / (x + 1)
    if direction == "forward":
        return term1, term2, inv_x * s1
    if direction == "inverse":
        return term1, term2, inv_x * s2, inv_x * s3
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def zeta_terms(state: StateVector, x: int, rel: Relation, direction: str) -> float:
    return float(sum(zeta_parts(state, x, rel, direction)))


def query_step_check(state: StateVector, x: int, rel: Relation,
                     direction: str, name: str = "") -> VerificationReport:
    """One-query growth bound (forward/inverse lemma) at a pre-query state."""
    n = rel.n
    amps = _db_block(state)
    mask = _section_mask(rel, x)
    before = float(np.linalg.norm(_apply_progress(amps, n, x, mask)))
    queried = spo_query(state, direction)
    after = float(np.linalg.norm(_apply_progress(_db_block(queried), n, x, mask)))
    comp = project_plus_db(amps, n, x, complement=True)
    comp_norm = float(np.linalg.norm(comp))
    zeta = zeta_terms(state, x, rel, direction)
    kappa = 2.0 if direction == "forward" else 4.0
    lhs = after - before
    rhs = math.sqrt(len(rel.section(x)) / (x + 1)) * comp_norm \
        + kappa * math.sqrt(zeta)
    return check(name or f"query-step[x={x},{direction}]", lhs, rhs, zeta=zeta)


def easy_norm_check(n: int, x: int, rel: Relation, direction: str,
                    name: str = "") -> VerificationReport:
    """|| E^{R,x} Q^{SPO} (I - Pi^{R,x}) || <= sqrt(|R_x| / (x+1)), computed
    slice-wise over the X control (dense YD-slice norms)."""
    nf = database_dim(n)
    mask = _section_mask(rel, x).astype(float)
    p_plus = _plus_projector_dense(n, x)
    e_dense = mask[:, None] * (np.eye(nf) - p_plus)
    anti = np.eye(nf) - np.diag(mask)
    e_yd = np.kron(np.eye(n), e_dense)
    anti_yd = np.kron(np.eye(n), anti)
    shift = _shift_table(n, direction, None, None)
    worst = 0.0
    for z in range(n):
        # Q^{SPO,z} on Y (x) D as a basis permutation: (y, d) -> (y ^ v, d)
        ys = np.arange(n)[:, None] ^ shift[z][None, :]
        ds = np.broadcast_to(np.arange(nf)[None, :], ys.shape)
        q_map = (ys * nf + ds).reshape(-1)
        m = e_yd[:, q_map] @ anti_yd  # M Q for a basis permutation Q|b> = |q(b)>
        worst = max(worst, float(np.linalg.norm(m, 2)))
    bound = math.sqrt(len(rel.section(x)) / (x + 1))
    return check(name or f"easy-i[x={x},{direction}]", worst, bound)


def progress_accumulation_check(circ: QueryCircuit, rel: Relation, x: int,
                                name: str = "") -> list[VerificationReport]:
    """Both accumulation inequalities over the untwirled run's pre-query states."""
    n = circ.n
    final, pre = run_with_intermediates(circ, spo_backend(n))
    amps = _db_block(final)
    mask = _section_mask(rel, x)
    lhs = float(np.linalg.norm(_apply_progress(amps, n, x, mask)))
    ratio = len(rel.section(x)) / (x + 1)
    rhs_linear = 0.0
    rhs_sq_sum = 0.0
    for direction, state in pre:
        comp = project_plus_db(_db_block(state), n, x, complement=True)
        comp_norm = float(np.linalg.norm(comp))
        zeta = zeta_terms(state, x, rel, direction)
        rhs_linear += math.sqrt(ratio) * comp_norm + 4.0 * math.sqrt(zeta)
        rhs_sq_sum += ratio * comp_norm ** 2 + 16.0 * zeta
    q = len(pre)
    rhs_cauchy = math.sqrt(2 * q * rhs_sq_sum)
    base = name or f"accumulation[{circ.name},x={x}]"
    return [
        check(base + ":linear", lhs, rhs_linear),
        check(base + ":cauchy-schwarz", lhs, rhs_cauchy),
        check(base + ":dominance", rhs_linear, rhs_cauchy),
    ]


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


def sparsity_expectation(state: StateVector, plan: TwirlPlan) -> tuple[float, float]:
    """E over x, sigma, tau of ||(I - P_{+x}) L^tau R^sigma |phi>||^2 / (x+1)."""
    n = plan.n
    amps = _db_block(state)

    def term(_sigma, _tau, _si, _ti, minv):
        tw = amps[:, minv]
        acc = 0.0
        for x in range(n):
            proj = project_plus_db(tw, n, x, complement=True)
            acc += float(np.vdot(proj, proj).real) / (x + 1)
        return (acc / n,)

    return _twirl_average(plan, 1, term)[0]


def crucial_term_values(circ: QueryCircuit, rel: Relation,
                        plan: TwirlPlan) -> list[tuple[float, float, float]]:
    """Per pre-query state j of the standard-form circuit: the three twirl
    expectations of the crucial lemma, each to be compared with its bound.

    The underlying outcome distribution q_{omega,xi} is defined relative to a
    purification choice; here it is evaluated on the canonical joint state of
    the actual run (algorithm registers serve as the purifying system), which
    the averaging argument makes sufficient.
    """
    n = circ.n
    out = []
    for _direction, state in standard_form_prequery_states(circ):
        g = _xslice_weights(state)

        def term(_sigma, _tau, si, ti, minv):
            gg = g[:, minv]
            twisted = rel.members[np.ix_(si, ti)]  # R^{sigma,tau} bitset
            acc = np.zeros(3)
            for x in range(n):
                fs = _fiber_sums(gg, n, x)
                terms = _fiber_terms(fs[si], fs[ti], twisted[x], n, x)
                acc += np.array(terms) / (x + 1)
            return acc / n

        out.append(tuple(mean for mean, _se in _twirl_average(plan, 3, term)))
    return out


def crucial_term_checks(circ: QueryCircuit, rel: Relation, plan: TwirlPlan,
                        name: str = "") -> list[VerificationReport]:
    n = circ.n
    r = rel.r_max
    log_n = math.log(n)
    bounds = ((log_n + 3.0) * r / n ** 2,
              (log_n + 1.0) * r / n ** 2,
              (log_n + 1.0) * r / n ** 2)
    values = crucial_term_values(circ, rel, plan)
    worst = [max(v[k] for v in values) if values else 0.0 for k in range(3)]
    base = name or f"crucial[{circ.name}]"
    return [check(f"{base}:{k + 1}", worst[k], bounds[k]) for k in range(3)]


def progress_expectation_check(circ: QueryCircuit, rel: Relation,
                               plan: TwirlPlan, name: str = "") -> VerificationReport:
    """Progress measure <= 384 q^2 r (ln N + 2)/N^2 + 4 q r * sum_j E[...]."""
    start = time.perf_counter()
    n = circ.n
    q = circ.query_count
    r = rel.r_max
    lhs = progress_measure(circ, rel, plan)[0]
    tail = 0.0
    for _direction, state in standard_form_prequery_states(circ):
        tail += sparsity_expectation(state, plan)[0]
    rhs = 384.0 * q * q * r * (math.log(n) + 2.0) / n ** 2 + 4.0 * q * r * tail
    return check(name or f"hard-database[{circ.name}]", lhs, rhs,
                 runtime_ms=(time.perf_counter() - start) * 1000.0)


# --------------------------------------------------------------------------
# The Gamma operator and sparsity trajectories


def _all_cycles(n: int, length: int) -> list[Permutation]:
    """All distinct cycles of the given length as permutations of [n]."""
    import itertools

    out = []
    for subset in itertools.combinations(range(n), length):
        first = subset[0]
        for rest in itertools.permutations(subset[1:]):
            images = list(range(n))
            cycle = (first,) + rest
            for a, b in zip(cycle, cycle[1:] + (first,)):
                images[a] = b
            out.append(Permutation(tuple(images)))
    return out


@lru_cache(maxsize=None)
def _cycle_maps(n: int, length: int, side: str) -> np.ndarray:
    cycles = _all_cycles(n, length)
    if side == "right":
        return np.stack([left_right_map(n, sigma=g) for g in cycles])
    return np.stack([left_right_map(n, tau=g) for g in cycles])


def cycle_average(n: int, length: int, side: str = "right") -> LinearOperator:
    """W^(l): the uniform average of right-action (or left-action) operators
    over all l-cycles; symmetric with norm <= 1."""
    if n < length:
        raise ValueError(f"no {length}-cycles in S_{n}")
    maps = _cycle_maps(n, length, side)
    nf = database_dim(n)

    def apply_block(block: np.ndarray) -> np.ndarray:
        out = np.zeros_like(block)
        for m in maps:
            out[m] += block
        return out / len(maps)

    # Averages of the inverse cycles coincide, so W is self-adjoint.
    op = LinearOperator((nf,), apply_block, apply_block, label=f"W^{length}")
    if nf <= 1024:
        op.matrix = op.dense()
    return op


def gamma_coefficients(n: int) -> tuple[float, float, float]:
    h1, h2, h3 = harmonic(n, 1), harmonic(n, 2), harmonic(n, 3)
    return ((h1 - h2) / n, 2.0 * (h2 - h3) / n, (h1 - 3.0 * h2 + 2.0 * h3) / n)


def gamma_operator(n: int, method: str = "closed_form") -> LinearOperator:
    """Gamma = E_x (1/(x+1)) E_{sigma,tau} (L R)^+ (I - P_{+x}) (L R)."""
    nf = database_dim(n)
    if method == "closed_form":
        if n == 1:
            return from_matrix(np.zeros((1, 1)), (1,), label="Gamma")
        c1, c2, c3 = gamma_coefficients(n)
        w2 = cycle_average(n, 2)
        w3 = cycle_average(n, 3) if n >= 3 else None

        def apply_block(block: np.ndarray) -> np.ndarray:
            out = c1 * block - c2 * w2.apply_block(block)
            if w3 is not None:
                out = out - c3 * w3.apply_block(block)
            return out

        op = LinearOperator((nf,), apply_block, apply_block, label="Gamma")
        if nf <= 1024:
            op.matrix = op.dense()
        return op
    if method == "brute_force":
        if n > 6:
            raise ValueError("brute-force Gamma capped at n=6")
        perms = list(all_permutations(n))
        acc = np.zeros((nf, nf))
        eye = np.eye(nf)
        for x in range(n):
            p_comp = eye - _plus_projector_dense(n, x).real
            # nested averages: E_tau L^+ M L, then E_sigma R^+ (.) R
            m_tau = np.zeros((nf, nf))
            for tau in perms:
                lm = left_right_map(n, tau=tau)
                m_tau += p_comp[np.ix_(lm, lm)]
            m_tau /= len(perms)
            m_sigma = np.zeros((nf, nf))
            for sigma in perms:
                rm = left_right_map(n, sigma=sigma)
                m_sigma += m_tau[np.ix_(rm, rm)]
            m_sigma /= len(perms)
            acc += m_sigma / (x + 1)
        return from_matrix(acc / n, (nf,), label="Gamma(brute)")
    raise ValueError(f"unknown method {method!r}")


def gamma_expectation(state: StateVector, gamma: LinearOperator) -> float:
    """<phi| Gamma |phi> on the database block."""
    amps = _db_block(state)
    out = gamma.apply_block(amps.T)
    return float(np.vdot(amps.T, out).real)


def _spo_slice_operator(n: int, z: int, direction: str) -> LinearOperator:
    """O^{SPO,z} on Y (x) D as a basis permutation.

    The Y action is XOR for power-of-two N and addition mod N otherwise;
    the Gamma-commutator analysis only needs *some* group shift by pi_d(z),
    so the non-power-of-two sizes required by the growth check are covered.
    """
    from .oracles import is_power_of_two
    from .states import from_permutation

    nf = database_dim(n)
    shift = _shift_table(n, direction, None, None)
    y_grid = np.arange(n)[:, None]
    if is_power_of_two(n):
        ys = y_grid ^ shift[z][None, :]
    else:
        ys = (y_grid + shift[z][None, :]) % n
    ds = np.broadcast_to(np.arange(nf)[None, :], ys.shape)
    mapping = (ys * nf + ds).reshape(-1)
    return from_permutation((n, nf), mapping, label=f"O^SPO,{z}")


def commutator_operator(n: int, z: int, direction: str,
                        gamma: LinearOperator) -> LinearOperator:
    """[Gamma, O^{SPO,z}] on the Y (x) D slice."""
    q = _spo_slice_operator(n, z, direction)
    dim = n * database_dim(n)

    def gamma_yd(block: np.ndarray) -> np.ndarray:
        rest = block.shape[1]
        v = block.reshape(n, database_dim(n), rest)
        out = np.empty_like(v)
        for y in range(n):
            out[y] = gamma.apply_block(v[y])
        return out.reshape(dim, rest)

    def apply_block(block: np.ndarray) -> np.ndarray:
        return gamma_yd(q.apply_block(block)) - q.apply_block(gamma_yd(block))

    def adjoint_block(block: np.ndarray) -> np.ndarray:
        # [Gamma, Q]^+ = Q^+ Gamma - Gamma Q^+ (Gamma self-adjoint)
        return q.adjoint_block(gamma_yd(block)) - gamma_yd(q.adjoint_block(block))

    return LinearOperator((n, database_dim(n)), apply_block, adjoint_block,
                          label=f"[Gamma,O^{z}]")


def commutator_growth_check(n: int, name: str = "") -> list[VerificationReport]:
    """max_x ||[Gamma, O^{SPO,x}]|| <= 6 (ln N + 1) / N^2, both directions."""
    if n > 6:
        raise ValueError("commutator check capped at n=6")
    from .states import operator_norm

    gamma = gamma_operator(n)
    bound = 6.0 * (math.log(n) + 1.0) / n ** 2
    out = []
    for direction in ("forward", "inverse"):
        start = time.perf_counter()
        worst = 0.0
        for z in range(n):
            comm = commutator_operator(n, z, direction, gamma)
            worst = max(worst, operator_norm(comm))
        out.append(check(name or f"commutator[n={n},{direction}]", worst, bound,
                         runtime_ms=(time.perf_counter() - start) * 1000.0))
    return out


def commutator_norm(n: int, direction: str) -> float:
    from .states import operator_norm

    gamma = gamma_operator(n)
    return max(operator_norm(commutator_operator(n, z, direction, gamma))
               for z in range(n))


def sparsity_trajectory_check(circ: QueryCircuit, plan: TwirlPlan | None = None,
                              name: str = "") -> list[VerificationReport]:
    """<phi^(j)| Gamma |phi^(j)> <= 6 j (ln N + 1) / N^2 along the run, with
    per-step increments bounded by the matching commutator norm; when a plan
    is given, the Gamma expectation is also matched against the direct twirl
    average (the defining identity) to 1e-10."""
    n = circ.n
    gamma = gamma_operator(n)
    backend = spo_backend(n)
    final, pre = run_with_intermediates(circ, backend)
    states = [state for _d, state in pre] + [final]
    directions = [d for d, _s in pre]
    per_query = 6.0 * (math.log(n) + 1.0) / n ** 2
    base = name or f"sparsity[{circ.name}]"
    out = []
    comm_norms = {}
    values = [gamma_expectation(s, gamma) for s in states]
    for j, val in enumerate(values):
        out.append(check(f"{base}:j={j}", val, per_query * j))
    for j in range(1, len(values)):
        d = directions[j - 1]
        if d not in comm_norms:
            comm_norms[d] = commutator_norm(n, d)
        out.append(check(f"{base}:step{j}", values[j] - values[j - 1],
                         comm_norms[d]))
    if plan is not None:
        for j, state in enumerate(states):
            direct = sparsity_expectation(state, plan)[0]
            out.append(check_close(f"{base}:identity j={j}", direct, values[j],
                                   tol=1e-10))
    return out


# --------------------------------------------------------------------------
# Main-theorem checker


def relation_win_probability(circ: QueryCircuit, rel: Relation,
                             perm: Permutation) -> float:
    """Pr[(x, pi(x)) in R] for a fixed permutation, exact Born statistics."""
    final = run(circ, concrete_backend(perm))
    dist = output_distribution(final, "x")
    images = perm.images
    return float(sum(p for x, p in enumerate(dist) if rel.members[x, images[x]]))


def theorem_check(circ: QueryCircuit, rel: Relation, *,
                  trials: int | None = None, seed: int | None = None,
                  name: str = "") -> VerificationReport:
    """lhs = Pr[(x, pi(x)) in R]; rhs = min(1, 914 q^3 r_max (ln N + 2)/N)
    with 'fewer than q' semantics (q = query count + 1); flags vacuity."""
    from .bounds import clamped, main_bound

    start = time.perf_counter()
    n = circ.n
    q = circ.query_count + 1
    rhs_raw = main_bound(q, n, rel.r_max) if rel.r_max else 0.0
    rhs = clamped(rhs_raw)
    if trials is None:
        total = 0.0
        count = 0
        for perm in all_permutations(n):
            total += relation_win_probability(circ, rel, perm)
            count += 1
        lhs = total / count
        return check(name or f"theorem[{circ.name}]", lhs, rhs,
                     runtime_ms=(time.perf_counter() - start) * 1000.0,
                     vacuous=(rhs >= 1.0), q=q, r_max=rel.r_max,
                     bound_raw=rhs_raw)
    if seed is None:
        raise ValueError("sampled theorem check requires a seed")
    rng = np.random.default_rng(seed)
    vals = np.array([relation_win_probability(circ, rel, sample_uniform(n, rng))
                     for _ in range(trials)])
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return check(name or f"theorem[{circ.name}]", float(vals.mean()), rhs,
                 method="monte_carlo", stderr=stderr, samples=trials,
                 runtime_ms=(time.perf_counter() - start) * 1000.0,
                 vacuous=(rhs >= 1.0), q=q, r_max=rel.r_max, bound_raw=rhs_raw)
