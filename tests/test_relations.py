"""Relations: sections, r_max, twirling."""
import numpy as np
import pytest

from spolab.permutations import identity, sample_uniform
from spolab.relations import (
    Relation,
    diagonal_relation,
    empty_relation,
    from_pairs,
    full_relation,
    sponge_preimage_relation,
    twirl_relation,
    zero_search_relation,
)

RNG = np.random.default_rng(3)


def test_sections_and_r_max():
    r = from_pairs(4, [(0, 1), (0, 2), (3, 1)])
    assert list(r.section(0)) == [1, 2]
    assert list(np.flatnonzero(r.members[:, 1])) == [0, 3]
    assert r.r_max == 2
    assert (0, 1) in r and (1, 0) not in r
    assert r.size == 3


def test_empty_full_diagonal():
    assert empty_relation(5).r_max == 0
    assert full_relation(5).r_max == 5
    assert diagonal_relation(5).r_max == 1
    assert full_relation(3).size == 9


def test_sponge_relation():
    # n=3 bits, c=1: inputs x||0, outputs with 2-bit prefix = target
    r = sponge_preimage_relation(3, 1, 2)
    for x in range(8):
        for y in range(8):
            want = (x & 1) == 0 and (y >> 1) == 2
            assert ((x, y) in r) == want
    assert r.r_max == max(2 ** 1, 2 ** (3 - 1))  # 2^max(c, n-c)


def test_zero_search_relation():
    r = zero_search_relation(3, 1)
    for x in range(8):
        for y in range(8):
            assert ((x, y) in r) == ((x & 1) == 0 and (y & 1) == 0)
    assert r.r_max == 4


def test_twirl_identity_and_invariance():
    r = sponge_preimage_relation(2, 1, 1)
    assert np.array_equal(twirl_relation(r, identity(4), identity(4)).members,
                          r.members)
    for _ in range(10):
        sigma, tau = sample_uniform(4, RNG), sample_uniform(4, RNG)
        tw = twirl_relation(r, sigma, tau)
        assert tw.r_max == r.r_max
        assert tw.size == r.size
    full = full_relation(8)
    sigma, tau = sample_uniform(8, RNG), sample_uniform(8, RNG)
    assert twirl_relation(full, sigma, tau).size == 64


def test_twirl_membership_rule():
    r = from_pairs(4, [(1, 2)])
    sigma, tau = sample_uniform(4, RNG), sample_uniform(4, RNG)
    tw = twirl_relation(r, sigma, tau)
    assert (sigma.images[1], tau.images[2]) in tw
    assert tw.size == 1


def test_validation():
    with pytest.raises(ValueError):
        Relation(3, np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        twirl_relation(from_pairs(3, []), identity(4), identity(3))
