from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assosym import characters
from assosym.characters import (
    CharacterVector,
    alternating_label_dimension,
    character_table,
    character_table_json,
    class_size,
    inner_product,
    involution_count,
    irreducible_character,
    mn_character,
    restrict_to_alternating,
)
from assosym.decomposition import Decomposition, Label
from assosym.partitions import conjugate, generate_partitions, specht_dim


def cycle_type(perm):
    """Cycle type of a permutation given as a tuple of images of 1..n."""
    n = len(perm)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def reference_mn(lam, mu):
    """chi_lam(mu) by border strips on sorted beta lists and partition tuples."""
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [p + ell - 1 - i for i, p in enumerate(lam)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((nb if c == b else c for c in beta), reverse=True)
        new_lam = tuple(c - (ell - 1 - i) for i, c in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        total += (-1) ** height * reference_mn(new_lam, rest)
    return total


def sign_of_type(mu):
    return (-1) ** (sum(mu) - len(mu))


def test_class_size_examples():
    assert class_size((1, 1, 1, 1)) == 1
    for n in range(1, 8):
        assert class_size((n,)) == factorial(n - 1)
    assert class_size((2, 2)) == 3


def test_class_sizes_against_enumeration():
    for n in range(1, 7):
        counts = {}
        for perm in permutations(range(1, n + 1)):
            mu = cycle_type(perm)
            counts[mu] = counts.get(mu, 0) + 1
        for mu in generate_partitions(n):
            assert class_size(mu) == counts[mu]


def test_class_sizes_sum_to_group_order():
    for n in range(1, 13):
        assert sum(class_size(mu) for mu in generate_partitions(n)) == factorial(n)


def test_mn_trivial_and_sign_rows():
    for n in range(1, 9):
        for mu in generate_partitions(n):
            assert mn_character((n,), mu) == 1
            assert mn_character((1,) * n, mu) == sign_of_type(mu)


def test_mn_single_values():
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((2, 2), (1, 1, 1, 1)) == 2


def test_mn_identity_column_is_dimension():
    for n in range(1, 11):
        ident = (1,) * n
        for lam in generate_partitions(n):
            assert mn_character(lam, ident) == specht_dim(lam)


def test_mn_conjugate_twists_by_sign():
    for n in range(1, 9):
        for lam in generate_partitions(n):
            lamc = conjugate(lam)
            for mu in generate_partitions(n):
                assert mn_character(lamc, mu) == sign_of_type(mu) * mn_character(lam, mu)


def test_mn_degree_mismatch():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_mn_rejects_non_integral_parts():
    # int() would truncate (2.5, 1) to (2, 1), whose value at (2, 1) is 0
    with pytest.raises(ValueError, match="must be integers"):
        mn_character((2.5, 1), (2, 1))


def test_character_table_small():
    assert character_table(1) == [[1]]
    # canonical class order is (2,) then (1,1), so the sign row is [-1, 1]
    assert character_table(2) == [[1, 1], [-1, 1]]
    t4 = character_table(4)
    row = generate_partitions(4).index((2, 2))
    assert t4[row][-1] == 2  # identity class (1,1,1,1) is the last column


def test_character_table_json_labels():
    import json

    data = character_table_json(3)
    assert data["row_partitions"] == [[3], [2, 1], [1, 1, 1]]
    assert data["column_cycle_types"] == [[3], [2, 1], [1, 1, 1]]
    assert data["values"] == character_table(3)
    assert json.loads(json.dumps(data)) == data


def test_character_table_guard():
    with pytest.raises(ValueError):
        character_table(13)
    with pytest.raises(ValueError):
        character_table(0)


def test_character_table_takes_an_integral_float():
    assert character_table(3.0) == character_table(3)
    with pytest.raises(ValueError, match="must be integers"):
        character_table(2.5)


def test_character_table_json_guards_before_listing_partitions(monkeypatch):
    listed = []
    monkeypatch.setattr(characters, "generate_partitions", lambda n: listed.append(n))
    for n in (0, 13, 60):
        with pytest.raises(ValueError, match="1 <= n <= 12"):
            character_table_json(n)
    assert listed == []


def test_row_orthogonality_exact():
    for n in range(1, 9):
        classes = generate_partitions(n)
        sizes = [class_size(mu) for mu in classes]
        table = character_table(n)
        for i, lam in enumerate(generate_partitions(n)):
            for j in range(i, len(table)):
                dot = sum(s * a * b for s, a, b in zip(sizes, table[i], table[j]))
                assert dot == (factorial(n) if i == j else 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_character_table_matches_the_reference_recursion(n):
    classes = generate_partitions(n)
    assert character_table(n) == [[reference_mn(lam, mu) for mu in classes] for lam in classes]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
    st.sampled_from(generate_partitions(n)), st.sampled_from(generate_partitions(n)))))
def test_column_orthogonality(classes):
    # sum over lam of chi_lam(mu) chi_lam(nu) is z_mu = n! / |class of mu| when mu == nu, else 0
    mu, nu = classes
    n = sum(mu)
    index = generate_partitions(n).index
    table = character_table(n)
    for a, b in ((mu, nu), (mu, mu)):
        dot = sum(row[index(a)] * row[index(b)] for row in table)
        assert dot == (factorial(n) // class_size(a) if a == b else 0)


def test_inner_product_orthonormality_degree_5():
    chars = [irreducible_character(lam) for lam in generate_partitions(5)]
    for i, phi in enumerate(chars):
        for j, psi in enumerate(chars):
            assert inner_product(phi, psi) == (1 if i == j else 0)


def test_inner_product_with_regular_character():
    n = 4
    classes = generate_partitions(n)
    reg = CharacterVector(
        n, tuple(factorial(n) if mu == (1,) * n else 0 for mu in classes)
    )
    assert inner_product(reg, irreducible_character((3, 1))) == 3
    assert inner_product(reg, irreducible_character((3, 1))) == Fraction(3)


def test_inner_product_degree_mismatch():
    with pytest.raises(ValueError):
        inner_product(irreducible_character((2,)), irreducible_character((3,)))


def test_involution_count_small():
    assert [involution_count(n) for n in range(1, 6)] == [1, 2, 4, 10, 26]


def test_involution_count_bruteforce():
    for n in (4, 5):
        brute = 0
        for perm in permutations(range(1, n + 1)):
            if all(perm[perm[i - 1] - 1] == i for i in range(1, n + 1)):
                brute += 1
        assert involution_count(n) == brute


def test_involution_count_is_sum_of_dimensions():
    for n in range(1, 11):
        assert involution_count(n) == sum(specht_dim(lam) for lam in generate_partitions(n))


def test_restrict_merges_conjugate_pair():
    dec = Decomposition(2, "S", {Label((2,)): 1, Label((1, 1)): 1})
    assert restrict_to_alternating(dec).terms == {Label((2,)): 2}


def test_restrict_degree_4_table():
    dec = Decomposition(
        4,
        "S",
        {
            Label((4,)): 3,
            Label((3, 1)): 4,
            Label((2, 2)): 2,
            Label((2, 1, 1)): 3,
            Label((1, 1, 1, 1)): 1,
        },
    )
    assert restrict_to_alternating(dec).terms == {
        Label((4,)): 4,
        Label((3, 1)): 7,
        Label((2, 2), "+"): 1,
        Label((2, 2), "-"): 1,
    }


def test_restrict_halves_self_conjugate():
    dec = Decomposition(5, "S", {Label((3, 1, 1)): 6})
    assert restrict_to_alternating(dec).terms == {
        Label((3, 1, 1), "+"): 3,
        Label((3, 1, 1), "-"): 3,
    }


def test_restrict_rejects_odd_split_multiplicity():
    dec = Decomposition(3, "S", {Label((2, 1)): 3})
    with pytest.raises(ValueError):
        restrict_to_alternating(dec)


def test_restrict_rejects_low_degree_and_wrong_group():
    with pytest.raises(ValueError):
        restrict_to_alternating(Decomposition(1, "S", {Label((1,)): 1}))
    with pytest.raises(ValueError):
        restrict_to_alternating(Decomposition(2, "A", {Label((2,)): 1}))


def test_restriction_preserves_total_dimension():
    # each halved +/- unit accounts for both split halves, so every label
    # counts mult * d_lambda of content
    for n in range(2, 9):
        terms = {
            Label(lam): specht_dim(lam) + (1 if len(lam) <= 2 else 0) * 2
            for lam in generate_partitions(n)
        }
        dec = Decomposition(n, "S", terms)
        res = restrict_to_alternating(dec)
        assert res.total_dimension() == dec.total_dimension()


def test_alternating_label_dimension():
    assert alternating_label_dimension(Label((3, 1))) == 3
    assert alternating_label_dimension(Label((2, 2), "+")) == 1
    assert alternating_label_dimension(Label((3, 1, 1), "-")) == 3


@pytest.mark.parametrize("label, message", [
    (Label((3, 1), "+"), "split tag on non-self-conjugate"),  # once 1: d = 3, halved
    (Label((3, 1), "x"), "bad split tag 'x'"),  # once 1 too
    (Label((2, 2), "x"), "bad split tag 'x'"),
    (Label((2, 2), None), "bad split tag None"),  # once 2, and stored with the tag None
])
def test_alternating_label_dimension_checks_the_tag_as_the_constructor_does(label, message):
    with pytest.raises(ValueError, match=message):
        alternating_label_dimension(label)
    with pytest.raises(ValueError, match=message):
        Decomposition(4, "A", {label: 1})
