"""Permutation core: factorizations, active sets, expectations."""
import math
from fractions import Fraction

import numpy as np
import pytest

from spolab.permutations import (
    EXACT_ENUM_LIMIT,
    MonotoneFactorization,
    Permutation,
    SizeLimitError,
    UnsupportedMethodError,
    active_set,
    all_factor_tuples,
    all_images,
    all_permutations,
    apply_via_active,
    cayley_distance,
    compose,
    compose_from_factors,
    cycle_count,
    expected_active_size,
    format_one_line,
    forward_expectation_bound,
    identity,
    inverse_active_expectation_exact,
    inverse_active_set,
    inverse_expectation_bound,
    invert,
    invert_via_factors,
    monotone_factorize,
    parse_one_line,
    partial_product,
    sample_uniform,
    sample_uniform_batch,
    transposition,
)

from helpers import sample_uniform_scalar


def compose_transpositions(n, factors):
    """Independent oracle: apply <k t> pairs right-to-left by brute force."""
    images = list(range(n))
    for k, t in reversed(list(factors)):
        images = [k if v == t else t if v == k else v for v in images]
    return tuple(images)


def test_factorize_identity():
    assert monotone_factorize(identity(5)).t == (0, 1, 2, 3, 4)


def test_factorize_three_cycle():
    # one-line "2 3 1" has the all-ones factor tuple (1-based)
    p = parse_one_line("2 3 1")
    f = monotone_factorize(p)
    assert f.t == (0, 0, 0)
    # verify by composing <3 1><2 1><1 1> explicitly
    assert compose_transpositions(3, [(2, 0), (1, 0), (0, 0)]) == p.images


def test_factorize_adjacent_swap():
    p = parse_one_line("1 3 2")
    assert monotone_factorize(p).t == (0, 1, 1)
    assert compose_transpositions(3, [(2, 1), (1, 1), (0, 0)]) == p.images


def test_compose_from_factors_matches_brute_force():
    for t in all_factor_tuples(4):
        f = MonotoneFactorization(t)
        # product order is <3 t_3> <2 t_2> <1 t_1> <0 t_0>
        want = compose_transpositions(4, list(enumerate(t))[::-1])
        assert compose_from_factors(f).images == want


def test_factorization_bijection_exhaustive():
    for n in range(1, 6):
        seen = set()
        for t in all_factor_tuples(n):
            p = compose_from_factors(MonotoneFactorization(t))
            assert monotone_factorize(p).t == t
            seen.add(p.images)
        assert len(seen) == math.factorial(n)


def test_invert_examples():
    assert invert(identity(4)).images == tuple(range(4))
    assert invert(parse_one_line("2 3 1")).images == parse_one_line("3 1 2").images


def test_invert_via_reversed_factors_s5():
    for p in all_permutations(5):
        f = monotone_factorize(p)
        assert invert_via_factors(f).images == invert(p).images


def test_partial_product_identities():
    f = MonotoneFactorization((0, 0, 0))
    assert partial_product(f, 2, "above").images == (0, 1, 2)
    assert partial_product(f, 1, "below").images == (0, 1, 2)
    for p in all_permutations(5):
        f = monotone_factorize(p)
        for k in range(5):
            mid = transposition(5, k, f.t[k])
            got = compose(partial_product(f, k, "above"),
                          compose(mid, partial_product(f, k, "below")))
            assert got.images == p.images


def test_partial_product_rejects_bad_side():
    with pytest.raises(ValueError):
        partial_product(MonotoneFactorization((0,)), 0, "sideways")


def test_cayley_distance():
    assert cayley_distance(monotone_factorize(identity(6))) == 0
    single = monotone_factorize(transposition(6, 5, 2))
    assert cayley_distance(single) == 1
    for p in all_permutations(5):
        f = monotone_factorize(p)
        assert cayley_distance(f) == 5 - cycle_count(p)


def test_sample_uniform_deterministic():
    a = [sample_uniform(6, np.random.default_rng(5)).images for _ in range(3)]
    b = [sample_uniform(6, np.random.default_rng(5)).images for _ in range(3)]
    # fresh generators replay the same stream
    assert a[0] == b[0]
    assert sample_uniform(1, np.random.default_rng(0)).images == (0,)


@pytest.mark.parametrize("n", [1, 2, 8, 256])
def test_sample_uniform_draws_the_scalar_stream(n):
    """One vectorised draw gives the n scalar draws bit for bit, and leaves
    the generator where they leave it."""
    for seed in range(6):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_uniform(n, a).images == sample_uniform_scalar(n, b).images
        assert a.integers(0, 2 ** 62) == b.integers(0, 2 ** 62)
        assert a.random() == b.random()


def test_sample_uniform_batch_matches_scalar():
    rng_a = np.random.default_rng(123)
    batch = sample_uniform_batch(5, 8, rng_a)
    for row in batch:
        Permutation(tuple(int(v) for v in row))  # validates bijectivity


def test_all_images_matches_all_permutations():
    for n in range(1, 7):
        table = all_images(n)
        want = np.array([p.images for p in all_permutations(n)], dtype=np.int64)
        assert table.dtype == want.dtype and np.array_equal(table, want), n
    with pytest.raises(SizeLimitError):
        all_images(9)


def test_active_set_identity():
    for x in range(5):
        assert active_set(identity(5), x).members == (x,)
        assert inverse_active_set(identity(5), x).members == (x,)


def test_active_set_example():
    # [1,3,2]: element 2 (1-based) has active indices {2, 3}
    p = parse_one_line("1 3 2")
    assert active_set(p, 1).members == (1, 2)
    f = monotone_factorize(p)
    assert apply_via_active(f, 1, "forward") == 2


def test_active_contains_x():
    for p in all_permutations(4):
        for x in range(4):
            assert x in active_set(p, x)


def test_apply_via_active_equals_direct():
    for p in all_permutations(6):
        f = monotone_factorize(p)
        pinv = invert(p)
        for x in range(6):
            assert apply_via_active(f, x, "forward") == p.images[x]
            assert apply_via_active(f, x, "inverse") == pinv.images[x]


def test_inverse_active_singleton_case():
    # whenever some t_k = y the inverse-active set is a singleton {k*}
    for t in all_factor_tuples(6):
        f = MonotoneFactorization(t)
        for y in range(6):
            hits = [k for k, tk in enumerate(t) if tk == y]
            if hits:
                assert inverse_active_set(f, y).members == (max(hits),)


def test_inverse_active_differs_from_active_of_inverse():
    # the two notions agree at n=1 and first differ at n=2 (the swap)
    for p in all_permutations(1):
        assert inverse_active_set(p, 0).members == active_set(invert(p), 0).members
    swap = parse_one_line("2 1")
    assert inverse_active_set(swap, 0).members != active_set(invert(swap), 0).members


def test_expected_active_size_exact_small():
    mean, se = expected_active_size(2, 0, "forward", "exact")
    assert mean == 1.5 and se == 0.0
    assert mean <= 1 + math.log(2)


def test_expected_active_size_recurrence_y1():
    for n in (1, 3, 7, 20):
        mean, _ = expected_active_size(n, 0, "inverse", "recurrence")
        assert mean == 1.0


def test_recurrence_matches_enumeration():
    for n in range(1, 7):
        for y in range(n):
            exact, _ = expected_active_size(n, y, "inverse", "exact")
            rec, _ = expected_active_size(n, y, "inverse", "recurrence")
            assert abs(exact - rec) < 1e-12
            assert exact < 3.0


def test_expectation_bounds():
    for n in range(1, 8):
        for arg in range(n):
            fwd, _ = expected_active_size(n, arg, "forward", "exact")
            inv, _ = expected_active_size(n, arg, "inverse", "exact")
            assert fwd <= forward_expectation_bound(n, arg) + 1e-12
            assert inv <= inverse_expectation_bound(n, arg) + 1e-12


def test_rational_recurrence_certifies_floats():
    for n in range(1, 13):
        for y in range(n):
            exact = inverse_active_expectation_exact(n, y)
            flt, _ = expected_active_size(n, y, "inverse", "recurrence")
            assert abs(flt - float(exact)) < 1e-12
            assert isinstance(exact, Fraction)


def test_errors():
    with pytest.raises(SizeLimitError):
        expected_active_size(EXACT_ENUM_LIMIT + 1, 0, "forward", "exact")
    with pytest.raises(UnsupportedMethodError):
        expected_active_size(4, 0, "forward", "recurrence")
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        MonotoneFactorization((0, 2))
    with pytest.raises(ValueError):
        parse_one_line("2 x 1")


def test_one_line_roundtrip():
    assert parse_one_line("2 3 1").images == (1, 2, 0)
    assert format_one_line(parse_one_line("4 1 3 2")) == "4 1 3 2"
