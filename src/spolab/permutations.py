"""Permutation arithmetic built on strictly monotone transposition factorizations.

Elements of the ground set are 0-based everywhere in code: a permutation of
size ``n`` maps ``{0, ..., n-1}`` to itself.  The 1-based one-line text format
(e.g. ``"2 3 1"``) appears only at the parse/format boundary used by the CLI.

Every permutation has a unique factorization

    pi = <n-1 t_{n-1}> ... <1 t_1> <0 t_0>,      t_k in {0, ..., k},

where ``<k t>`` is the transposition swapping ``k`` and ``t`` (the identity
when ``k == t``).  The rightmost factor acts first.  Dropping trivial factors
gives the strictly monotone factorization; its length is the Cayley distance
to the identity.  Uniform independent ``t_k`` give a uniform permutation,
which is what makes this representation useful for oracle databases.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Literal

import numpy as np

# Full enumeration of S_n is capped here (8! = 40320 keeps memory and time flat).
EXACT_ENUM_LIMIT = 8


class SizeLimitError(ValueError):
    """Raised when an exact-enumeration path is asked to exceed its ceiling."""


class UnsupportedMethodError(ValueError):
    """Raised when a method is requested for inputs it does not cover."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1} stored in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("permutation must have size >= 1")
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a bijection of range({n}): {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(x) = self(other(x))."""
        return compose(self, other)


@dataclass(frozen=True)
class MonotoneFactorization:
    """Factor data t with t[k] <= k for each k; t[0] is always 0."""

    t: tuple[int, ...]

    def __post_init__(self) -> None:
        for k, tk in enumerate(self.t):
            if not 0 <= tk <= k:
                raise ValueError(f"factor t[{k}]={tk} outside range 0..{k}")

    @property
    def n(self) -> int:
        return len(self.t)

    def nontrivial_factors(self) -> list[tuple[int, int]]:
        """The strictly monotone factor list [(k, t_k)] with k > t_k, descending k."""
        return [(k, tk) for k, tk in reversed(list(enumerate(self.t))) if k != tk]


@dataclass(frozen=True)
class ActiveSet:
    """Indices whose transposition factor influences pi(x) or pi^{-1}(y)."""

    kind: Literal["forward", "inverse"]
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, k: int) -> bool:
        return k in self.members


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def transposition(n: int, k: int, t: int) -> Permutation:
    """The transposition <k t> in S_n (identity if k == t)."""
    images = list(range(n))
    images[k], images[t] = images[t], images[k]
    return Permutation(tuple(images))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(x) = p(q(x)); q acts first."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    return Permutation(tuple(p.images[q.images[x]] for x in range(q.n)))


def invert(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for x, y in enumerate(p.images):
        inv[y] = x
    return Permutation(tuple(inv))


def parse_one_line(text: str) -> Permutation:
    """Parse whitespace-separated 1-based one-line notation.

    >>> parse_one_line("2 3 1").images
    (1, 2, 0)
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty permutation text")
    try:
        vals = [int(s) for s in parts]
    except ValueError as exc:
        raise ValueError(f"malformed permutation text: {text!r}") from exc
    return Permutation(tuple(v - 1 for v in vals))


def format_one_line(p: Permutation) -> str:
    return " ".join(str(v + 1) for v in p.images)


def parse_factorization(text: str) -> MonotoneFactorization:
    """Parse the 1-based factorization format ``t: 1 1 1``."""
    body = text.strip()
    if not body.startswith("t:"):
        raise ValueError(f"factorization text must start with 't:': {text!r}")
    try:
        vals = [int(s) for s in body[2:].split()]
    except ValueError as exc:
        raise ValueError(f"malformed factorization text: {text!r}") from exc
    if not vals:
        raise ValueError("empty factorization text")
    return MonotoneFactorization(tuple(v - 1 for v in vals))


def format_factorization(f: MonotoneFactorization) -> str:
    return "t: " + " ".join(str(tk + 1) for tk in f.t)


def monotone_factorize(p: Permutation) -> MonotoneFactorization:
    """The unique t with pi = <n-1 t_{n-1}> ... <0 t_0>.

    Peels t_k = pi(k) from the top: left-multiplying by <k t_k> then fixes k.

    >>> monotone_factorize(Permutation((1, 2, 0))).t
    (0, 0, 0)
    """
    n = p.n
    images = list(p.images)
    inv = [0] * n
    for x, y in enumerate(images):
        inv[y] = x
    t = [0] * n
    for k in range(n - 1, -1, -1):
        tk = images[k]
        t[k] = tk
        if tk != k:
            # images <- <k tk> o images: the values k and tk swap places.
            i, j = inv[k], inv[tk]
            images[i], images[j] = tk, k
            inv[k], inv[tk] = j, i
    return MonotoneFactorization(tuple(t))


def compose_from_factors(f: MonotoneFactorization) -> Permutation:
    """Evaluate <n-1 t_{n-1}> ... <0 t_0>, rightmost factor first."""
    n = f.n
    images = list(range(n))
    inv = list(range(n))
    for k in range(n):
        tk = f.t[k]
        if tk != k:
            i, j = inv[k], inv[tk]
            images[i], images[j] = tk, k
            inv[k], inv[tk] = j, i
    return Permutation(tuple(images))


def invert_via_factors(f: MonotoneFactorization) -> Permutation:
    """pi^{-1} as the reversed product <0 t_0> <1 t_1> ... <n-1 t_{n-1}>."""
    n = f.n
    images = list(range(n))
    inv = list(range(n))
    for k in range(n - 1, -1, -1):
        tk = f.t[k]
        if tk != k:
            i, j = inv[k], inv[tk]
            images[i], images[j] = tk, k
            inv[k], inv[tk] = j, i
    return Permutation(tuple(images))


def partial_product(
    f: MonotoneFactorization, k: int, side: Literal["above", "below"]
) -> Permutation:
    """pi_{>k} (factors k+1..n-1) or pi_{<k} (factors 0..k-1).

    Satisfies pi = pi_{>k} o <k t_k> o pi_{<k} exactly.
    """
    if not 0 <= k < f.n:
        raise ValueError(f"index k={k} outside 0..{f.n - 1}")
    if side == "above":
        ks = range(k + 1, f.n)
    elif side == "below":
        ks = range(0, k)
    else:
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    images = list(range(f.n))
    inv = list(range(f.n))
    for j in ks:
        tj = f.t[j]
        if tj != j:
            i1, i2 = inv[j], inv[tj]
            images[i1], images[i2] = tj, j
            inv[j], inv[tj] = i2, i1
    return Permutation(tuple(images))


def cayley_distance(f: MonotoneFactorization) -> int:
    """Number of nontrivial factors; the transposition distance to the identity."""
    return sum(1 for k, tk in enumerate(f.t) if k != tk)


def cycle_count(p: Permutation) -> int:
    seen = [False] * p.n
    count = 0
    for start in range(p.n):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = p.images[x]
    return count


def sample_uniform(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform permutation from independent uniform factors t_k in {0..k}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = tuple(int(rng.integers(0, k + 1)) for k in range(n))
    return compose_from_factors(MonotoneFactorization(t))


def sample_uniform_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized sampler: returns a (count, n) array of one-line images."""
    images = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    inv = images.copy()
    rows = np.arange(count)
    for k in range(1, n):
        tk = rng.integers(0, k + 1, size=count)
        i1 = inv[rows, k]
        i2 = inv[rows, tk]
        images[rows, i1] = tk
        images[rows, i2] = k
        inv[rows, k] = i2
        inv[rows, tk] = i1
    return images


def all_factor_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All n! factor tuples, t_1 varying fastest (mixed-radix order)."""
    if n > EXACT_ENUM_LIMIT:
        raise SizeLimitError(f"exact enumeration capped at n={EXACT_ENUM_LIMIT}")
    ranges = [range(k + 1) for k in range(n)]
    for rev in itertools.product(*reversed(ranges)):
        yield tuple(reversed(rev))


def all_permutations(n: int) -> Iterator[Permutation]:
    for t in all_factor_tuples(n):
        yield compose_from_factors(MonotoneFactorization(t))


def active_set(p: Permutation | MonotoneFactorization, x: int) -> ActiveSet:
    """Indices k with pi_{<k}(x) in {k, t_k}; always contains x itself."""
    f = p if isinstance(p, MonotoneFactorization) else monotone_factorize(p)
    if not 0 <= x < f.n:
        raise ValueError(f"element {x} outside 0..{f.n - 1}")
    members = []
    w = x  # w = pi_{<k}(x), updated factor by factor
    for k in range(f.n):
        tk = f.t[k]
        if w == k or w == tk:
            members.append(k)
        if w == k:
            w = tk
        elif w == tk:
            w = k
    return ActiveSet("forward", tuple(members))


def inverse_active_set(p: Permutation | MonotoneFactorization, y: int) -> ActiveSet:
    """Indices k with (pi_{>k})^{-1}(y) in {k, t_k}.

    This refers to the factors of pi itself, not to the monotone
    factorization of pi^{-1}; the two notions differ already at n = 2.
    """
    f = p if isinstance(p, MonotoneFactorization) else monotone_factorize(p)
    if not 0 <= y < f.n:
        raise ValueError(f"element {y} outside 0..{f.n - 1}")
    members = []
    v = y  # v = (pi_{>k})^{-1}(y), updated from the top down
    for k in range(f.n - 1, -1, -1):
        tk = f.t[k]
        if v == k or v == tk:
            members.append(k)
        if v == k:
            v = tk
        elif v == tk:
            v = k
    return ActiveSet("inverse", tuple(sorted(members)))


def apply_via_active(
    f: MonotoneFactorization, x: int, kind: Literal["forward", "inverse"]
) -> int:
    """Evaluate pi(x) or pi^{-1}(x) using only the active factors."""
    if kind == "forward":
        order = active_set(f, x).members
    elif kind == "inverse":
        order = tuple(reversed(inverse_active_set(f, x).members))
    else:
        raise ValueError(f"kind must be 'forward' or 'inverse', got {kind!r}")
    w = x
    for k in order:
        tk = f.t[k]
        if w == k:
            w = tk
        elif w == tk:
            w = k
    return w


@lru_cache(maxsize=None)
def _f_recurrence(n: int) -> Fraction:
    """f(n) = n + (1/n) * sum_{k<n} f(k), with f(0) = 0 (exact rationals)."""
    if n == 0:
        return Fraction(0)
    return n + Fraction(sum(_f_recurrence(k) for k in range(n)), n)


def inverse_active_expectation_exact(n: int, y: int) -> Fraction:
    """e(n, y) = 1 + f(y)/n for 0-based y (1-based value y+1), as a rational."""
    return 1 + _f_recurrence(y) / n


def expected_active_size(
    n: int,
    arg: int,
    kind: Literal["forward", "inverse"],
    method: Literal["exact", "recurrence", "monte_carlo"] = "exact",
    rng: np.random.Generator | None = None,
    samples: int = 10000,
) -> tuple[float, float]:
    """Mean active-set size over uniform permutations, with standard error.

    exact        enumerate all n! factor tuples (n <= EXACT_ENUM_LIMIT)
    recurrence   inverse kind only: e(N, y) = 1 + f(y-1)/N in 1-based
                 terms, i.e. 1 + f(arg)/n here
    monte_carlo  seeded sample mean; requires rng

    The standard error is 0.0 for the two deterministic methods.
    """
    if not 0 <= arg < n:
        raise ValueError(f"element {arg} outside 0..{n - 1}")
    if method == "exact":
        if n > EXACT_ENUM_LIMIT:
            raise SizeLimitError(f"exact method capped at n={EXACT_ENUM_LIMIT}")
        total = 0
        count = 0
        for t in all_factor_tuples(n):
            f = MonotoneFactorization(t)
            a = active_set(f, arg) if kind == "forward" else inverse_active_set(f, arg)
            total += len(a)
            count += 1
        return total / count, 0.0
    if method == "recurrence":
        if kind != "inverse":
            raise UnsupportedMethodError("recurrence only covers the inverse kind")
        return float(inverse_active_expectation_exact(n, arg)), 0.0
    if method == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo requires a seeded rng")
        sizes = np.empty(samples)
        for i in range(samples):
            t = tuple(int(rng.integers(0, k + 1)) for k in range(n))
            f = MonotoneFactorization(t)
            a = active_set(f, arg) if kind == "forward" else inverse_active_set(f, arg)
            sizes[i] = len(a)
        stderr = float(sizes.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        return float(sizes.mean()), stderr
    raise ValueError(f"unknown method {method!r}")


def forward_expectation_bound(n: int, x: int) -> float:
    """1 + ln(n/(x+1)) for 0-based x."""
    return 1.0 + math.log(n / (x + 1))


def inverse_expectation_bound(n: int, y: int) -> float:
    """1 + 2*y/n for 0-based y (1-based form: 1 + (2y-2)/N); always < 3."""
    return 1.0 + 2.0 * y / n

