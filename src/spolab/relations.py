"""Relations R subseteq [N] x [N] with sections, twirling, and r_max."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .permutations import Permutation, invert


@dataclass(frozen=True)
class Relation:
    """Explicit membership bitset over pairs (x, y), 0-based."""

    n: int
    members: np.ndarray  # bool (n, n), read-only

    def __post_init__(self) -> None:
        if self.members.shape != (self.n, self.n) or self.members.dtype != bool:
            raise ValueError("members must be a bool (n, n) array")
        self.members.setflags(write=False)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        x, y = pair
        return bool(self.members[x, y])

    def section(self, x: int) -> np.ndarray:
        """R_x = {y : (x, y) in R} as sorted indices."""
        return np.flatnonzero(self.members[x])

    def pairs(self) -> list[tuple[int, int]]:
        xs, ys = np.nonzero(self.members)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    @property
    def size(self) -> int:
        return int(self.members.sum())

    @property
    def r_max(self) -> int:
        """max over all forward and inverse section sizes, from the bitset."""
        if self.size == 0:
            return 0
        return int(max(self.members.sum(axis=1).max(),
                       self.members.sum(axis=0).max()))


def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Relation:
    members = np.zeros((n, n), dtype=bool)
    for x, y in pairs:
        members[x, y] = True
    return Relation(n, members)


def empty_relation(n: int) -> Relation:
    return Relation(n, np.zeros((n, n), dtype=bool))


def full_relation(n: int) -> Relation:
    return Relation(n, np.ones((n, n), dtype=bool))


def diagonal_relation(n: int) -> Relation:
    return Relation(n, np.eye(n, dtype=bool))


def sponge_preimage_relation(n_bits: int, c: int, target: int) -> Relation:
    """Pairs (x', y') with x' = x || 0^c and the first n-c bits of y' = target."""
    n = 2 ** n_bits
    pad = 2 ** c - 1
    x = np.arange(n)
    members = ((x[:, None] & pad) == 0) & ((x[None, :] >> c) == target)
    return Relation(n, members)


def zero_search_relation(n_bits: int, c: int) -> Relation:
    """Pairs with x' ending in 0^c and y' ending in 0^c."""
    n = 2 ** n_bits
    pad = 2 ** c - 1
    x = np.arange(n)
    members = ((x[:, None] & pad) == 0) & ((x[None, :] & pad) == 0)
    return Relation(n, members)


def twirl_relation(r: Relation, sigma: Permutation, tau: Permutation) -> Relation:
    """(x, y) in result iff (sigma^{-1}(x), tau^{-1}(y)) in R; r_max invariant."""
    if sigma.n != r.n or tau.n != r.n:
        raise ValueError("twirl permutations must match the relation size")
    si = np.array(invert(sigma).images)
    ti = np.array(invert(tau).images)
    return Relation(r.n, np.ascontiguousarray(r.members[np.ix_(si, ti)]))
