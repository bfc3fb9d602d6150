import hashlib
import io
import random
from fractions import Fraction
from itertools import permutations

import pytest

from assosym.algebra import codimension, multigraded_dim, sn_decomposition
from assosym.decomposition import Label
from assosym.oracle import (
    class_representative,
    consequence_span,
    consequence_span_multigraded,
    enumerate_multilinear,
    identity_generators,
    leaf_labels,
    monomial_key,
    oracle_multiplicities,
    permutation_trace,
    quotient_basis,
    quotient_character,
    quotient_dim,
    quotient_dim_multigraded,
    relabel,
    write_consequence_matrix,
    _back_substitute,
    _consequence_rows,
    _exact_pivots,
    _exact_system,
    _modular_rank,
)
from assosym.partitions import generate_partitions


def cycle_type_of(images):
    n = len(images)
    seen = [False] * (n + 1)
    lengths = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        k, i = 0, s
        while not seen[i]:
            seen[i] = True
            i = images[i - 1]
            k += 1
        lengths.append(k)
    return tuple(sorted(lengths, reverse=True))


def test_enumerate_multilinear_counts():
    # n! * Catalan(n-1)
    assert [len(enumerate_multilinear(n)) for n in range(1, 6)] == [1, 2, 12, 120, 1680]
    assert len(enumerate_multilinear(2)) == 2
    with pytest.raises(ValueError):
        enumerate_multilinear(7)


def test_enumerate_multilinear_canonical_order():
    for n in range(1, 5):
        mons = enumerate_multilinear(n)
        keys = [monomial_key(m) for m in mons]
        assert keys == sorted(keys)
        assert len(set(mons)) == len(mons)
        assert all(sorted(leaf_labels(m)) == list(range(1, n + 1)) for m in mons)


def test_identity_generators_shape():
    g1, g2 = identity_generators()
    assert len(g1) == 4 and len(g2) == 4
    assert all(c in (1, -1) for c in g1.values())
    # first relation is antisymmetric in its last two slots: collapsing the
    # labels y and z must kill it
    collapsed = {}
    for mono, coeff in g1.items():
        squashed = relabel(mono, (1, 2, 2))
        collapsed[squashed] = collapsed.get(squashed, 0) + coeff
    assert all(v == 0 for v in collapsed.values())
    # second relation likewise in its first two slots
    collapsed = {}
    for mono, coeff in g2.items():
        squashed = relabel(mono, (1, 1, 2))
        collapsed[squashed] = collapsed.get(squashed, 0) + coeff
    assert all(v == 0 for v in collapsed.values())


def test_consequence_span_degree_3():
    span = consequence_span(3)
    assert len(span) == 12
    rows = _consequence_rows(span, enumerate_multilinear(3))
    assert len(_exact_pivots(rows)) == 5  # 12 ambient - 7 quotient


def test_consequence_span_degree_4_rank():
    span = consequence_span(4)
    ambient = enumerate_multilinear(4)
    rows = _consequence_rows(span, ambient)
    assert len(_exact_pivots(rows)) == 91  # 120 - 29
    assert _modular_rank(rows, len(ambient), 2**31 - 1) == 91


def test_multilinear_span_is_the_content_one_component():
    for n in (3, 4, 5):
        assert consequence_span(n) == consequence_span_multigraded((1,) * n)


def test_consequence_rows_are_deduplicated_in_canonical_order():
    rows = _consequence_rows(consequence_span(4), enumerate_multilinear(4))
    keys = [tuple(sorted(row.items())) for row in rows]
    assert len(set(keys)) == len(keys) == 120  # 240 span elements, pairs collapse
    assert keys == sorted(keys, key=lambda key: (-key[-1][0], key))
    assert all(key[0][1] > 0 for key in keys)


def test_reduced_pivots_do_not_depend_on_row_order():
    rows = _consequence_rows(consequence_span(4), enumerate_multilinear(4))
    shuffled = list(rows)
    random.Random(0).shuffle(shuffled)
    reduced = []
    for order in (rows, rows[::-1], shuffled):
        pivots = _exact_pivots(order)
        _back_substitute(pivots)
        reduced.append(pivots)
    assert reduced[0] == reduced[1] == reduced[2]
    assert len(reduced[0]) == 91


def test_consequence_span_guard():
    with pytest.raises(ValueError):
        consequence_span(1)
    with pytest.raises(ValueError):
        consequence_span(7)


def test_quotient_dim_matches_formula():
    for n in range(2, 6):
        assert quotient_dim(n) == codimension(n)


def test_quotient_dim_with_second_prime():
    assert quotient_dim(3, second_prime=1_000_003) == 7


def test_quotient_dim_guard_and_prime_check():
    with pytest.raises(ValueError):
        quotient_dim(1)
    with pytest.raises(ValueError):
        quotient_dim(7)
    with pytest.raises(ValueError):
        quotient_dim(3, prime=2)


def test_composite_and_oversized_moduli_are_rejected():
    rows = _consequence_rows(consequence_span(3), enumerate_multilinear(3))
    for modulus in (4, 1_000_000, 1_000_001, 2**31 + 1):  # 1000001 = 101 * 9901
        with pytest.raises(ValueError, match="not prime"):
            _modular_rank(rows, 12, modulus)
    with pytest.raises(ValueError, match="not prime"):
        quotient_dim(4, prime=1_000_000)
    with pytest.raises(ValueError, match="not prime"):
        quotient_dim(3, second_prime=1_000_000)
    with pytest.raises(ValueError, match="not prime"):
        quotient_dim_multigraded((4, 1, 1), prime=1_000_000)
    # prime, but (p-1)^2 overflows int64
    with pytest.raises(ValueError, match="int64"):
        quotient_dim(3, prime=3_221_225_461)
    assert _modular_rank(rows, 12, 3) == 5
    assert _modular_rank(rows, 12, 3_037_000_493) == 5  # largest prime below 2^31.5


def test_quotient_dim_multigraded_examples():
    assert quotient_dim_multigraded((2, 1)) == 4
    assert quotient_dim_multigraded((3,)) == 2
    assert quotient_dim_multigraded((1, 1, 1)) == 7
    with pytest.raises(ValueError):
        quotient_dim_multigraded((2, 0))
    with pytest.raises(ValueError):
        quotient_dim_multigraded((4, 3))


def test_quotient_dim_multigraded_matches_formula_small():
    def positive_contents(total):
        for r in range(1, total + 1):
            def go(rem, length):
                if length == 1:
                    yield (rem,)
                    return
                for first in range(1, rem - length + 2):
                    for rest in go(rem - first, length - 1):
                        yield (first,) + rest
            if r <= total:
                yield from go(total, r)

    for total in range(1, 5):
        for content in positive_contents(total):
            assert quotient_dim_multigraded(content) == multigraded_dim(content)


def test_quotient_basis_size_and_idempotence():
    for n in (2, 3, 4):
        qb = quotient_basis(n)
        assert len(qb.monomials) == codimension(n)
        for b in qb.monomials:
            assert qb.rewrite(b) == {b: Fraction(1)}


def test_rewriting_kills_consequences():
    for n in (3, 4):
        qb = quotient_basis(n)
        for elem in consequence_span(n):
            assert qb.rewrite_combination(elem) == {}


def test_rewrite_is_idempotent_on_eliminated_monomials():
    qb = quotient_basis(4)
    basis = set(qb.monomials)
    for mono, expansion in qb.rewrite_map.items():
        assert mono not in basis
        assert set(expansion) <= basis
        assert qb.rewrite_combination(dict(expansion)) == expansion


def test_class_representative_types():
    for n in range(1, 7):
        for mu in generate_partitions(n):
            assert cycle_type_of(class_representative(mu)) == mu


def test_trace_is_a_class_function_degree_4():
    traces = {}
    for images in permutations(range(1, 5)):
        mu = cycle_type_of(images)
        traces.setdefault(mu, set()).add(permutation_trace(4, images))
    for mu, values in traces.items():
        assert len(values) == 1, f"trace not constant on class {mu}"


def test_quotient_character_values():
    chi = quotient_character(3)
    assert chi.value_at((1, 1, 1)) == 7
    assert chi.value_at((2, 1)) == 1
    assert chi.value_at((3,)) == 1
    for n in (2, 3, 4):
        assert quotient_character(n).value_at((1,) * n) == quotient_dim(n)


def test_quotient_character_equals_closed_form_cocharacter():
    from assosym.algebra import cocharacter

    for n in (2, 3, 4, 5):
        assert quotient_character(n) == cocharacter(n)


def test_oracle_multiplicities_match_closed_form():
    assert oracle_multiplicities(3).terms == {
        Label((3,)): 2,
        Label((2, 1)): 2,
        Label((1, 1, 1)): 1,
    }
    for n in (3, 4):
        assert oracle_multiplicities(n).terms == sn_decomposition(n).terms


def test_oracle_guards():
    with pytest.raises(ValueError):
        quotient_character(6)
    with pytest.raises(ValueError):
        oracle_multiplicities(1)


def test_consequence_matrix_dump_format():
    buf = io.StringIO()
    write_consequence_matrix(3, buf)
    lines = buf.getvalue().splitlines()
    nrows, ncols = map(int, lines[0].split())
    assert nrows == 12 and ncols == 12
    assert len(lines) == 1 + 4 * 12  # four monomials per consequence
    for line in lines[1:]:
        row, col, coeff = line.split()
        assert 0 <= int(row) < nrows
        assert 0 <= int(col) < ncols
        num, den = coeff.split("/")
        assert den == "1" and int(num) in (1, -1)


def test_consequence_matrix_dump_is_pinned_at_degree_5():
    buf = io.StringIO()
    write_consequence_matrix(5, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "bf104bad019b0f04d12644453c9747e7a70fa0c2891472085e13549d7dd35d3d"


def test_deterministic_rebuild():
    qb1 = quotient_basis(3)
    quotient_basis.cache_clear()
    _exact_system.cache_clear()
    qb2 = quotient_basis(3)
    assert qb1.monomials == qb2.monomials
    assert qb1.rewrite_map == qb2.rewrite_map
