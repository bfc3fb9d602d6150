from itertools import combinations_with_replacement
from math import comb, factorial

import pytest

from assosym.partitions import (
    _conjugate,
    binomial,
    check_partition,
    conjugate,
    generate_partitions,
    hook_lengths,
    is_self_conjugate,
    multinomial,
    specht_dim,
    syt_count_bruteforce,
    two_row_partitions,
    weyl_dim,
)


def partition_count(n: int) -> int:
    """Independent p(n) via the p(n, k) = p(n-k, k) + p(n, k-1) recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if k <= m else 0)
    return table[n][n]


def semistandard_count(lam, m):
    """Count semistandard tableaux with entries in 1..m by exhaustive filling."""
    if not lam:
        return 1
    rows = len(lam)

    def fill(i, above):
        if i == rows:
            return 1
        total = 0

        def cell(j, row):
            nonlocal total
            if j == lam[i]:
                total += fill(i + 1, row)
                return
            lo = row[j - 1] if j else 1                     # weakly increasing rows
            if above is not None:
                lo = max(lo, above[j] + 1)                  # strictly increasing columns
            for v in range(lo, m + 1):
                cell(j + 1, row + [v])

        cell(0, [])
        return total

    return fill(0, None)


def test_generate_partitions_small():
    assert generate_partitions(0) == ((),)
    assert generate_partitions(1) == ((1,),)
    assert generate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_generate_partitions_counts_match_recurrence():
    for n in range(13):
        assert len(generate_partitions(n)) == partition_count(n)
    assert len(generate_partitions(10)) == 42
    assert len(generate_partitions(30)) == partition_count(30) == 5604
    assert len(generate_partitions(40)) == partition_count(40) == 37338


def test_generate_partitions_reverse_lexicographic_and_unique():
    for n in range(11):
        parts = generate_partitions(n)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == n for p in parts)
        assert list(parts) == sorted(parts, reverse=True)


def test_conjugate_examples():
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_is_involution_and_preserves_size():
    for n in range(21):
        for lam in generate_partitions(n):
            lamc = conjugate(lam)
            assert sum(lamc) == n
            assert conjugate(lamc) == lam


def test_self_conjugate():
    assert is_self_conjugate((2, 1))
    assert is_self_conjugate((3, 1, 1))
    assert not is_self_conjugate((3, 2))
    assert is_self_conjugate(())


def test_specht_dim_examples():
    assert specht_dim((7,)) == 1
    assert specht_dim((1,) * 6) == 1
    assert specht_dim((3, 1)) == 3
    assert specht_dim((3, 2)) == 5
    assert specht_dim((2, 2)) == 2


def test_specht_dim_equals_bruteforce_syt():
    for n in range(10):
        for lam in generate_partitions(n):
            assert specht_dim(lam) == syt_count_bruteforce(lam)


def test_syt_bruteforce_guard():
    with pytest.raises(ValueError):
        syt_count_bruteforce((13,))


def test_specht_dim_squares_sum_to_factorial():
    for n in range(1, 11):
        assert sum(specht_dim(lam) ** 2 for lam in generate_partitions(n)) == factorial(n)


def test_specht_dim_conjugation_invariant():
    for n in range(13):
        for lam in generate_partitions(n):
            assert specht_dim(lam) == specht_dim(conjugate(lam))


def test_hook_lengths_shape():
    assert hook_lengths((3, 1)) == [[4, 2, 1], [1]]


def test_weyl_dim_examples():
    for m in range(1, 7):
        assert weyl_dim((1,), m) == m
        for n in range(1, 7):
            assert weyl_dim((n,), m) == comb(n + m - 1, n)
    assert weyl_dim((2, 1), 2) == 2
    assert weyl_dim((2, 1, 1), 2) == 0


def test_weyl_dim_counts_semistandard_tableaux():
    for n in range(7):
        for lam in generate_partitions(n):
            for m in range(1, 7):
                assert weyl_dim(lam, m) == semistandard_count(lam, m)


def test_dimensions_match_hook_products_on_large_shapes():
    # The hook length and hook-content products are the independent reference
    # for the beta-number formulas, on every shape of 13 <= n <= 24.
    shapes = 0
    for n in range(13, 25):
        for lam in generate_partitions(n):
            shapes += 1
            hook_product = 1
            for row in hook_lengths(lam):
                for h in row:
                    hook_product *= h
            assert specht_dim(lam) == factorial(n) // hook_product
            for m in range(1, 6):
                contents = 1
                for i, part in enumerate(lam):
                    for j in range(part):
                        contents *= m + j - i
                assert weyl_dim(lam, m) == contents // hook_product
    assert shapes == 7066


def test_two_row_partitions():
    assert two_row_partitions(1) == [(1,)]
    assert two_row_partitions(4) == [(4,), (3, 1), (2, 2)]
    assert two_row_partitions(5) == [(5,), (4, 1), (3, 2)]


def test_multinomial():
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((2, 1)) == 3
    assert multinomial((3, 3, 2)) == 560
    assert multinomial(()) == 1


def test_binomial_zero_convention():
    assert binomial(5, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(-1, -1) == 0
    assert binomial(6, 2) == 15


def test_vandermonde_style_convolution():
    # sum_i C(i+a, i) C(n-i+b, n-i) == C(n+a+b+1, n), exactly, on 0..30
    for a in range(31):
        for b in range(31):
            for n in range(31):
                lhs = sum(binomial(i + a, i) * binomial(n - i + b, n - i) for i in range(n + 1))
                assert lhs == binomial(n + a + b + 1, n)


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        specht_dim((1, 2))
    with pytest.raises(ValueError):
        conjugate((2, 0))


def test_check_partition_messages():
    with pytest.raises(ValueError, match="must be positive, got \\(2, 0, 1\\)"):
        check_partition((2, 0, 1))
    with pytest.raises(ValueError, match="must be weakly decreasing, got \\(1, 2\\)"):
        check_partition((1, 2))
    assert check_partition(()) == ()
    assert check_partition([3, 3.0, 1]) == (3, 3, 1)


def test_conjugate_equals_the_counting_definition():
    for n in range(17):
        for lam in generate_partitions(n):
            old = tuple(sum(1 for p in lam if p > i) for i in range(lam[0])) if lam else ()
            assert _conjugate(lam) == old


def test_check_partition_rejects_non_integral_parts():
    # int() would truncate (2.5, 1) to (2, 1), whose d_lambda is 2
    with pytest.raises(ValueError, match="must be integers"):
        specht_dim((2.5, 1))


def test_weyl_dim_rejects_a_non_integral_m():
    # 2.5 once gave a bare AssertionError, and 3.0 the float 3.0
    with pytest.raises(ValueError, match="must be integers"):
        weyl_dim((2, 1), 2.5)
    with pytest.raises(ValueError, match="must be integers"):
        weyl_dim((1,), 3.5)
    assert type(weyl_dim((1,), 3.0)) is int and weyl_dim((1,), 3.0) == 3


def test_multinomial_rejects_non_integral_parts():
    with pytest.raises(ValueError, match="must be integers"):
        multinomial((2.5, 1))
