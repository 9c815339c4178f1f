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
from typing import Iterable, Iterator, Literal

import numpy as np

# Full enumeration of S_n is capped here (8! = 40320 keeps memory and time flat).
EXACT_ENUM_LIMIT = 8


class SizeLimitError(ValueError):
    """Raised when an exact-enumeration path is asked to exceed its ceiling."""


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


def _left_multiply(n: int, factors: Iterable[tuple[int, int]]) -> Permutation:
    """The identity of S_n left-multiplied by each <k t> of ``factors`` in
    turn, so the first factor acts first."""
    images = list(range(n))
    inv = list(range(n))
    for k, tk in factors:
        if tk != k:
            # images <- <k tk> o images: the values k and tk swap places.
            i, j = inv[k], inv[tk]
            images[i], images[j] = tk, k
            inv[k], inv[tk] = j, i
    return Permutation(tuple(images))


def compose_from_factors(f: MonotoneFactorization) -> Permutation:
    """Evaluate <n-1 t_{n-1}> ... <0 t_0>, rightmost factor first."""
    return _left_multiply(f.n, enumerate(f.t))


def invert_via_factors(f: MonotoneFactorization) -> Permutation:
    """pi^{-1} as the reversed product <0 t_0> <1 t_1> ... <n-1 t_{n-1}>."""
    return _left_multiply(f.n, zip(range(f.n - 1, -1, -1), reversed(f.t)))


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
    return _left_multiply(f.n, ((j, f.t[j]) for j in ks))


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
    """Uniform permutation from independent uniform factors t_k in {0..k},
    drawn in one call (the same stream as n scalar draws, k ascending)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = tuple(rng.integers(0, np.arange(1, n + 1)).tolist())
    return compose_from_factors(MonotoneFactorization(t))


def _compose_factor_rows(t: np.ndarray) -> np.ndarray:
    """One-line images of <n-1 t_{n-1}> ... <0 t_0> for each row of a (m, n)
    factor array in its dtype, rightmost factor first (compose_from_factors)."""
    m, n = t.shape
    images = np.tile(np.arange(n, dtype=t.dtype), (m, 1))
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


def sample_uniform_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized sampler: a (count, n) table of one-line images in the least
    unsigned dtype holding n - 1, from int64 draws, so the stream is dtype-free."""
    t = np.zeros((count, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    for k in range(1, n):
        t[:, k] = rng.integers(0, k + 1, size=count)
    return _compose_factor_rows(t)


def all_factor_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All n! factor tuples, t_1 varying fastest (mixed-radix order)."""
    if n > EXACT_ENUM_LIMIT:
        raise SizeLimitError(f"exact enumeration capped at n={EXACT_ENUM_LIMIT}")
    ranges = [range(k + 1) for k in range(n)]
    for rev in itertools.product(*reversed(ranges)):
        yield tuple(reversed(rev))


def all_images(n: int) -> np.ndarray:
    """The (n!, n) table of one-line images in ``all_factor_tuples`` order:
    row i has the factors t_k = (i // k!) mod (k + 1)."""
    if n > EXACT_ENUM_LIMIT:
        raise SizeLimitError(f"exact enumeration capped at n={EXACT_ENUM_LIMIT}")
    rows = np.arange(math.factorial(n))[:, None]
    weights = np.array([math.factorial(k) for k in range(n)])
    return _compose_factor_rows(rows // weights % (np.arange(n) + 1))


def all_permutations(n: int) -> Iterator[Permutation]:
    """The rows of ``all_images(n)`` as permutations."""
    for row in all_images(n).tolist():
        yield Permutation(tuple(row))


def _walk(t: tuple[int, ...], w: int, ks: Iterable[int]) -> tuple[list[int], int]:
    """Carry w through the factors <k t_k>, k in ``ks`` order: the k whose
    factor moves or holds w (w in {k, t_k} when it is reached), and the
    final w."""
    hits = []
    for k in ks:
        tk = t[k]
        if w == k:
            hits.append(k)
            w = tk
        elif w == tk:
            hits.append(k)
            w = k
    return hits, w


def _factors_of(p: Permutation | MonotoneFactorization, w: int) -> tuple[int, ...]:
    """The factor tuple t of p, once w is checked to be an element."""
    f = p if isinstance(p, MonotoneFactorization) else monotone_factorize(p)
    if not 0 <= w < f.n:
        raise ValueError(f"element {w} outside 0..{f.n - 1}")
    return f.t


def active_set(p: Permutation | MonotoneFactorization, x: int) -> tuple[int, ...]:
    """Indices k with pi_{<k}(x) in {k, t_k}, ascending; always contains x."""
    t = _factors_of(p, x)
    return tuple(_walk(t, x, range(len(t)))[0])


def inverse_active_set(p: Permutation | MonotoneFactorization,
                       y: int) -> tuple[int, ...]:
    """Indices k with (pi_{>k})^{-1}(y) in {k, t_k}, ascending.

    This refers to the factors of pi itself, not to the monotone
    factorization of pi^{-1}; the two notions differ already at n = 2.
    """
    t = _factors_of(p, y)
    return tuple(reversed(_walk(t, y, range(len(t) - 1, -1, -1))[0]))


def apply_via_active(
    f: MonotoneFactorization, x: int, kind: Literal["forward", "inverse"]
) -> int:
    """Evaluate pi(x) or pi^{-1}(x) walking only the active factors."""
    if kind == "forward":
        return _walk(f.t, x, active_set(f, x))[1]
    if kind == "inverse":
        return _walk(f.t, x, reversed(inverse_active_set(f, x)))[1]
    raise ValueError(f"kind must be 'forward' or 'inverse', got {kind!r}")


@lru_cache(maxsize=None)
def _f_recurrence(n: int) -> Fraction:
    """f(n) = n + (1/n) * sum_{k<n} f(k), with f(0) = 0 (exact rationals)."""
    if n == 0:
        return Fraction(0)
    return n + Fraction(sum(_f_recurrence(k) for k in range(n)), n)


def inverse_active_expectation_exact(n: int, y: int) -> Fraction:
    """e(n, y) = 1 + f(y)/n for 0-based y (1-based value y+1), as a rational."""
    return 1 + _f_recurrence(y) / n


def inverse_active_expectation_float(n: int, y: int) -> float:
    """e(n, y) = 1 + f(y)/n with f's recurrence run in floats, independently
    of inverse_active_expectation_exact, which certifies it."""
    f = total = 0.0  # f(m) and sum_{k<=m} f(k)
    for m in range(1, y + 1):
        f = m + total / m
        total += f
    return 1.0 + f / n


def expected_active_size(n: int, arg: int,
                         kind: Literal["forward", "inverse"]) -> float:
    """Mean active-set size over all n! factor tuples (n <= EXACT_ENUM_LIMIT)."""
    if not 0 <= arg < n:
        raise ValueError(f"element {arg} outside 0..{n - 1}")
    if kind not in ("forward", "inverse"):
        raise ValueError(f"kind must be 'forward' or 'inverse', got {kind!r}")
    ks = range(n) if kind == "forward" else range(n - 1, -1, -1)
    total = sum(len(_walk(t, arg, ks)[0]) for t in all_factor_tuples(n))
    return total / math.factorial(n)


def forward_expectation_bound(n: int, x: int) -> float:
    """1 + ln(n/(x+1)) for 0-based x."""
    return 1.0 + math.log(n / (x + 1))


def inverse_expectation_bound(n: int, y: int) -> float:
    """1 + 2*y/n for 0-based y (1-based form: 1 + (2y-2)/N); always < 3."""
    return 1.0 + 2.0 * y / n

