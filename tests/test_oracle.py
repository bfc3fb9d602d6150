import hashlib
import io
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import numpy as np
import pytest

from assosym import oracle
from assosym.algebra import codimension, multigraded_dim, sn_decomposition
from assosym.decomposition import Label
from assosym.oracle import (
    DEFAULT_PRIME,
    SIGNS,
    MultiplicityError,
    RankMismatchError,
    consequence_span,
    consequence_span_multigraded,
    enumerate_multilinear,
    identity_generators,
    leaf_labels,
    monomial_key,
    monomials_with_labels,
    oracle_multiplicities,
    quotient_basis,
    quotient_character,
    quotient_dim,
    quotient_dim_multigraded,
    relabel,
    shape_key,
    write_consequence_matrix,
    _content_labels,
    _distinct_rows,
    _echelon,
    _lift,
    _sorted_terms,
    _span,
    _spans,
    _sub_multisets,
    _system,
    _without,
)
from assosym.partitions import generate_partitions


def index_rows(elements, columns):
    """Monomial-keyed consequences as span elements over the given column list.

    Each consequence must carry the coefficients SIGNS or be empty; it becomes
    its columns in term order, four or none.
    """
    col = {m: i for i, m in enumerate(columns)}
    assert all(tuple(elem.values()) in (SIGNS, ()) for elem in elements)
    return [tuple(col[m] for m in elem) for elem in elements]


def span_array(elements) -> np.ndarray:
    """Span elements, four columns or (), as the (m, 4) int64 array of the nonzero ones."""
    return np.fromiter(filter(None, elements), dtype=np.dtype((np.int64, 4)))


def span_elements(labels) -> list:
    """``_span(labels)`` as span elements: each row's four columns, or () where it vanishes."""
    cols, vanishing = _span(labels)
    return [() if zero else tuple(row) for row, zero in zip(cols.tolist(), vanishing.tolist())]


def consequence_rows(cols: np.ndarray) -> tuple:
    """An (m, 4) column array as ``_system`` turns it into rows: sorted, deduplicated up to sign."""
    return _distinct_rows(np.arange(len(cols)).repeat(4), *_sorted_terms(cols))


def span_columns(labels) -> np.ndarray:
    """The (m, 4) column array of the nonzero consequences of ``_span(labels)``."""
    cols, vanishing = _span(labels)
    return cols[~vanishing]


def label_major(labels) -> list:
    """The monomials over a label multiset sorted by (leaf_labels, shape_key): the reference."""
    ambient = monomials_with_labels(labels)
    return sorted(ambient, key=lambda m: (leaf_labels(m), shape_key(m)))


def shape_major(labels) -> list:
    """The monomials over a label multiset sorted by (shape_key, leaf_labels).

    The order in which the span walks the monomials of its blocks and
    contexts, and a second column order for the rank.
    """
    ambient = monomials_with_labels(labels)
    return sorted(ambient, key=lambda m: (shape_key(m), leaf_labels(m)))


def shape_major_columns(cols: np.ndarray, labels) -> np.ndarray:
    """Columns of ``monomials_with_labels(labels)`` renumbered as indices into ``shape_major``."""
    index = {m: i for i, m in enumerate(shape_major(labels))}
    return np.array([index[m] for m in monomials_with_labels(labels)], dtype=np.int64)[cols]


def entries(rows: list[dict]) -> tuple:
    """Rows {column: value} as the kernel's (row, column, value) entry triple."""
    flat = [(i, c, v) for i, row in enumerate(rows) for c, v in sorted(row.items())]
    return tuple(np.array(flat, dtype=np.int64).reshape(-1, 3).T)


def as_rows(triple) -> list[dict]:
    """An entry triple grouped by row as rows {column: value}, empty rows left out."""
    out: dict = {}
    for i, c, v in zip(*(a.tolist() for a in triple)):
        out.setdefault(i, {})[c] = v
    return list(out.values())


def form(pivot, reduced) -> dict[int, dict[int, int]]:
    """A reduced form from the kernel's arrays: pivot -> {pivot: 1, column: value}."""
    out = {c: {c: 1} for c in np.flatnonzero(pivot).tolist()}
    for c, k, v in zip(*(a.tolist() for a in reduced)):
        out[c][k] = v
    return out


def plug(context, x):
    if isinstance(context, int):
        return x if context == oracle.HOLE else context
    return (plug(context[0], x), plug(context[1], x))


def reference_span(labels):
    """The consequence span built from nested-tuple monomials.

    Same splits and generation order as the oracle, but every term is
    substituted with ``relabel`` and plugged into a context monomial from
    ``monomials_with_labels`` by a recursive walk, with no index arithmetic.
    """
    out = []
    for b1 in _sub_multisets(labels):
        rest1 = _without(labels, b1)
        for b2 in _sub_multisets(rest1):
            rest2 = _without(rest1, b2)
            for b3 in _sub_multisets(rest2):
                contexts = shape_major((oracle.HOLE,) + _without(rest2, b3))
                mons = [shape_major(b) for b in (b1, b2, b3)]
                for g in identity_generators():
                    for subs in product(*mons):
                        terms = [(relabel(term, subs), coeff) for term, coeff in g.items()]
                        for ctx in contexts:
                            elem = {}
                            for x, coeff in terms:
                                m = plug(ctx, x)
                                nv = elem.get(m, 0) + coeff
                                if nv:
                                    elem[m] = nv
                                else:
                                    del elem[m]
                            out.append(elem)
    return out


def test_enumerate_multilinear_counts():
    # n! * Catalan(n-1)
    assert [len(enumerate_multilinear(n)) for n in range(1, 6)] == [1, 2, 12, 120, 1680]
    assert len(enumerate_multilinear(2)) == 2
    with pytest.raises(ValueError):
        enumerate_multilinear(7)


def test_arrangements_are_the_distinct_permutations():
    for labels in [(1, 2, 3, 4, 5), (1, 1, 2, 2, 3), (0, 1, 1, 2), (3, 1, 2, 1), (1,) * 5, ()]:
        assert oracle._arrangements(labels) == tuple(sorted(set(permutations(labels))))


def test_enumerate_multilinear_canonical_order():
    # by leaf sequence, then tree shape
    assert enumerate_multilinear(3)[:3] == [(1, (2, 3)), ((1, 2), 3), (1, (3, 2))]
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
    rows = consequence_rows(span_array(index_rows(span, label_major((1, 2, 3)))))
    assert as_rows(_system((1, 1, 1))[1]) == as_rows(rows)
    assert _system((1, 1, 1))[2].sum() == 5  # 12 ambient - 7 quotient


def test_consequence_span_degree_4_rank():
    span = consequence_span(4)
    columns = label_major((1, 2, 3, 4))
    rows = consequence_rows(span_array(index_rows(span, columns)))
    assert as_rows(_system((1,) * 4)[1]) == as_rows(rows)
    assert _system((1,) * 4)[2].sum() == 91  # 120 - 29
    assert _echelon(rows, len(columns))[0].sum() == 91


def test_multilinear_span_is_the_content_one_component():
    for n in (3, 4, 5):
        assert consequence_span(n) == consequence_span_multigraded((1,) * n)


def test_span_matches_the_nested_tuple_reference():
    contents = [c for total in range(1, 6) for c in positive_contents(total)] + [
        (3, 2, 1), (2, 2, 2), (4, 1, 1), (4, 3)]
    assert len(contents) == 35
    for content in contents:
        labels = _content_labels(content)
        want = reference_span(labels)
        got = consequence_span_multigraded(content)
        assert [list(elem.items()) for elem in got] == [list(elem.items()) for elem in want]
        assert span_elements(labels) == index_rows(want, label_major(labels))


def invariant_contents():
    """The 31 contents of total degree <= 5 plus three past it, one with 4620 columns."""
    return [c for total in range(1, 6) for c in positive_contents(total)] + [
        (3, 2, 1), (2, 2, 2), (4, 3)]


def test_every_consequence_is_four_distinct_columns_or_empty():
    contents = invariant_contents()
    assert len(contents) == 34
    for content in contents:
        labels = _content_labels(content)
        cols, vanishing = _span(labels)
        assert cols.shape == (len(vanishing), 4) and cols.dtype == np.int64
        for elem, zero in zip(cols.tolist(), vanishing.tolist()):
            if zero:  # the terms cancel in pairs, 1 with 3 and 2 with 4
                assert elem[0] == elem[2] and elem[1] == elem[3]
                continue
            assert len(set(elem)) == 4


def test_generator_coefficients_are_the_one_sign_pattern(monkeypatch):
    g1, g2 = identity_generators()
    assert tuple(g1.values()) == tuple(g2.values()) == SIGNS
    doubled = {m: 2 * v for m, v in g1.items()}
    monkeypatch.setattr(oracle, "identity_generators", lambda: (doubled, g2))
    with pytest.raises(AssertionError, match="not SIGNS"):
        oracle._generator_terms.__wrapped__()


def test_a_consequence_that_neither_differs_nor_cancels_raises(monkeypatch):
    g1, g2 = oracle._generator_terms()
    broken = ([g1[0], g1[0], *g1[2:]], g2)  # term 2 a copy of term 1
    monkeypatch.setattr(oracle, "_generator_terms", lambda: broken)
    oracle._substituted_shapes.cache_clear()
    oracle._split_tables.cache_clear()
    try:
        with pytest.raises(AssertionError, match="neither differ nor cancel"):
            _span((1, 2, 3))
    finally:
        oracle._substituted_shapes.cache_clear()
        oracle._split_tables.cache_clear()


def reference_rows(elements) -> tuple:
    """Generic sparse rows {column: coefficient} deduplicated in the canonical row order.

    Rows equal up to sign and content collapse to one key, no content and
    positive at the minimal column; keys are sorted by descending last
    column, then by key.
    """
    keys = set()
    for row in elements:
        if row:
            content = gcd(*row.values())
            if row[min(row)] < 0:
                content = -content
            keys.add(tuple(sorted((k, v // content) for k, v in row.items())))
    ordered = sorted(keys, key=lambda key: (-key[-1][0], key))
    flat = [(i, c, v) for i, key in enumerate(ordered) for c, v in key]
    return tuple(np.array(flat, dtype=np.int64).reshape(-1, 3).T)


def test_consequence_rows_match_the_generic_row_builder():
    for content in invariant_contents():
        labels = _content_labels(content)
        canonical = span_columns(labels)
        for cols in (canonical, shape_major_columns(canonical, labels)):
            got = consequence_rows(cols)
            want = reference_rows(dict(zip(elem, SIGNS)) for elem in cols.tolist())
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


def test_consequence_rows_are_deduplicated_in_canonical_order():
    rows = as_rows(consequence_rows(span_columns((1, 2, 3, 4))))
    keys = [tuple(sorted(row.items())) for row in rows]
    assert len(set(keys)) == len(keys) == 120  # 240 span elements, pairs collapse
    assert keys == sorted(keys, key=lambda key: (-key[-1][0], key))
    assert all(key[0][1] > 0 for key in keys)


def test_reduced_pivots_do_not_depend_on_row_order():
    rows = consequence_rows(span_columns((1, 2, 3, 4)))
    listed = as_rows(rows)
    shuffled = list(listed)
    random.Random(0).shuffle(shuffled)
    reduced = []
    for order in (listed, listed[::-1], shuffled):
        pivot, (owner, col, val) = _echelon(entries(order), 120)
        lifted = (owner, col, _lift(val, DEFAULT_PRIME))
        assert _spans(rows, pivot, lifted)
        reduced.append(form(pivot, lifted))
    assert reduced[0] == reduced[1] == reduced[2]
    assert len(reduced[0]) == 91


def fraction_rref(rows: list[dict]) -> dict[int, dict[int, Fraction]]:
    """Plain Gauss-Jordan over Q: pivot column -> reduced row with pivot entry 1."""

    def subtract(row, scale, other):
        for k, v in other.items():
            nv = row.get(k, 0) - scale * v
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)

    pivots: dict[int, dict[int, Fraction]] = {}
    for original in rows:
        row = {k: Fraction(v) for k, v in original.items()}
        for c in [c for c in row if c in pivots]:
            subtract(row, row[c], pivots[c])
        if row:
            c = min(row)
            row = {k: v / row[c] for k, v in row.items()}
            for other in pivots.values():
                if c in other:
                    subtract(other, other[c], row)
            pivots[c] = row
    return pivots


def random_rows(seed: int, count: int, ncols: int) -> list[dict]:
    """``count`` rows of four entries from +-1..+-3, then six integer
    combinations of them, shuffled in: a matrix of rank at most ``count``.
    """
    rng = random.Random(seed)

    def entry():
        return rng.choice((-1, 1)) * rng.randint(1, 3)

    rows = [{c: entry() for c in rng.sample(range(ncols), 4)} for _ in range(count)]
    for _ in range(6):
        combo: dict = {}
        for row in rng.sample(rows[:count], 3):
            scale = entry()
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + scale * v
        rows.append({c: v for c, v in combo.items() if v})
    rng.shuffle(rows)
    return rows


def spanned_rows(seed: int, count: int, head: int) -> list[dict]:
    """``count`` rows over 300 columns whose rows after the first ``head`` lie in their span.

    Each group of ten columns gets six rows of four entries from +-1..+-3,
    so the rank is at most 181 and every reduced row stays inside its group;
    one more row is a single entry, a pivot with an empty tail.  The first
    ``head // 2`` rows are three rows of each group and integer combinations
    of three of those, shuffled; the next ``head // 2`` are the other rows
    and combinations of any three, shuffled; the rest are combinations.
    """
    rng = random.Random(seed)

    def entry():
        return rng.choice((-1, 1)) * rng.randint(1, 3)

    def combination(pool):
        combo: dict = {}
        for row in rng.sample(pool, 3):
            scale = entry()
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + scale * v
        return {c: v for c, v in combo.items() if v}

    groups = [[{c: entry() for c in rng.sample(range(g, g + 10), 4)} for _ in range(6)]
              for g in range(0, 300, 10)]
    first = [row for group in groups for row in group[:3]]
    rest = [row for group in groups for row in group[3:]] + [{rng.randrange(300): entry()}]
    rows = []
    for new, pool in ((first, first), (rest, first + rest)):
        block = new + [combination(pool) for _ in range(head // 2 - len(new))]
        rng.shuffle(block)
        rows += block
    return rows + [combination(first + rest) for _ in range(count - head)]


@pytest.mark.parametrize("seed, count, chunk", [
    *((seed, count, chunk)  # chunk 1: every reduction is a single row
      for seed, count in [(0, 30), (1, 30), (2, 30), (3, 9), (4, 9), (5, 9)]
      for chunk in (1, 3, 2048)),
    (6, 1200, oracle._CHUNK_ROWS),  # three blocks, the last in the span of the first two
])
def test_kernel_matches_fraction_gauss_jordan_on_random_rows(monkeypatch, chunk, seed, count):
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk)
    sweeps = []
    sweep = oracle._gauss_jordan
    monkeypatch.setattr(oracle, "_gauss_jordan", lambda *args: sweeps.append(1) or sweep(*args))
    p = DEFAULT_PRIME
    if count > 30:
        ncols, rows = 300, spanned_rows(seed, count, 2 * chunk)
    else:
        ncols, rows = 14, random_rows(seed, count, 14)
    pivot, (owner, col, val) = _echelon(entries(rows), ncols)
    lifted = form(pivot, (owner, col, _lift(val, p)))
    got = {c: {k: v % p for k, v in row.items()} for c, row in lifted.items()}
    want = {
        c: {k: v.numerator * pow(v.denominator, -1, p) % p for k, v in row.items()}
        for c, row in fraction_rref(rows).items()
    }
    assert sorted(got) == sorted(want)
    assert got == want
    if count < 14:  # rank deficient: the reduced rows carry free columns
        assert len(got) <= count and any(len(row) > 1 for row in got.values())
    if count > 30:
        assert len(rows) > 2 * chunk and len(got) < ncols
        assert len(fraction_rref(rows[:2 * chunk])) == len(want)
        assert len(sweeps) == 2  # the third block's residual is empty: no sweep
        assert any(len(row) == 1 for row in got.values())  # a pivot with an empty tail
        assert any(len(row) > 2 for row in got.values())


DENSE_BLOCKS = {
    "all zero": [[0, 0, 0, 0], [0, 0, 0, 0]],
    "one row": [[0, 2, -1, 0, 1]],
    "more rows than columns": [[1, 2, 0, 1], [3, 3, 1, 1], [2, 1, 1, 0], [2, 0, 0, -2],
                               [0, 1, 1, 2], [1, 3, 1, 3]],
    "duplicate rows": [[0, 1, 2, 0, 1], [1, 1, 0, 2, 0], [0, 1, 2, 0, 1],
                       [1, 1, 0, 2, 0], [1, 2, 2, 2, 2]],
    "zero column between pivots": [[0, 2, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 0, 1, -1]],
    # column 4, the last pivot's, is in every row, and the row that leads there comes
    # first: the shape where clearing each pivot column from every row at once was costly
    "late column in every row": [[0, 0, 0, 0, 2, 1], [1, 1, 0, 0, 1, 1], [0, 1, 1, 0, 1, 1],
                                 [0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 2]],
}


@pytest.mark.parametrize("p", [3, DEFAULT_PRIME])
@pytest.mark.parametrize("name", DENSE_BLOCKS)
def test_dense_sweep_gives_the_reduced_echelon_form(name, p):
    block = DENSE_BLOCKS[name]
    mat = np.array(block, dtype=np.int64) % p
    found = oracle._gauss_jordan(mat, p).tolist()
    rank = len(found)
    assert found == sorted(set(found))
    assert not mat[:rank, found].any()  # pivot entries dropped, pivot columns cleared
    assert not mat[rank:].any()
    got = {c: {c: 1, **{k: v for k, v in enumerate(mat[i].tolist()) if v}}
           for i, c in enumerate(found)}
    rows = [{k: v for k, v in enumerate(row) if v} for row in block]
    want = {c: {k: r for k, v in row.items()  # the form over Q, mod p
                if (r := v.numerator * pow(v.denominator, -1, p) % p)}
            for c, row in fraction_rref(rows).items()}
    assert got == want


def test_kernel_returns_the_reduced_form():
    contents = [c for total in range(1, 6) for c in positive_contents(total)] + [(3, 2, 1)]
    assert len(contents) == 32
    p = DEFAULT_PRIME
    for content in contents:
        ncols, rows = _system(content)[:2]
        pivot, (owner, col, val) = _echelon(rows, ncols)
        echelon = form(pivot, (owner, col, val))
        for c, row in echelon.items():  # tails only on free columns right of the pivot
            assert all(k > c and not pivot[k] and 0 < v < p for k, v in row.items() if k != c)
        assert [list(row) for row in echelon.values()] == [sorted(row) for row in echelon.values()]
        lifted = _lift(val, p)  # the residue map alone
        assert (np.abs(lifted) <= p // 2).all()
        assert (lifted % p == val).all()


@pytest.mark.parametrize("content", [(2, 2, 1), (1,) * 5, (3, 2, 1)])
def test_kernel_result_does_not_depend_on_block_or_expansion_size(monkeypatch, content):
    ncols, rows = _system(content)[:2]
    forms = []
    for name, value in [("_CHUNK_ROWS", 512), ("_CHUNK_ROWS", 1), ("_CHUNK_ROWS", 3),
                        ("_CHUNK_ROWS", 2048), ("_EXPANSION_ENTRIES", 1)]:
        with monkeypatch.context() as m:
            m.setattr(oracle, name, value)
            pivot, reduced = _echelon(rows, ncols)
        forms.append([a.tolist() for a in (pivot, *reduced)])
    assert all(form == forms[0] for form in forms)


def level_dim(labels) -> int:
    return oracle._level(oracle._standardised(labels)[0]).dim


def normal_forms(standard) -> list[dict]:
    """Per column of a level over standardised labels: its normal form {basis index: coef}."""
    level = oracle._level(standard)
    stops = np.cumsum(level.counts).tolist()
    basis, coefs = level.basis.tolist(), level.coefs.tolist()
    return [dict(zip(basis[stop - k:stop], coefs[stop - k:stop]))
            for stop, k in zip(stops, level.counts.tolist())]


def reference_root_rows(labels) -> list[dict]:
    """Every g(u1, u2, u3) at the root of a level, over every ordered split and basis triple.

    Each term's inner product is taken to its normal form one entry at a time;
    both g1 = (x,y,z) - (x,z,y) and g2 = (x,y,z) - (y,x,z) are built for every
    ordering of the blocks, negatives and zeros included, and zero rows dropped.
    """
    level = oracle._level(labels)
    forms: dict = {}  # standardised inner labels -> normal_forms
    rows = []
    for b1 in list(_sub_multisets(labels))[:-1]:
        rest = _without(labels, b1)
        for b2 in list(_sub_multisets(rest))[:-1]:
            blocks = (b1, b2, _without(rest, b2))
            for a in product(*(range(level_dim(b)) for b in blocks)):
                for generator in identity_generators():
                    row: dict = {}
                    for (left, right), sign in generator.items():
                        (i, j), k = (right, left) if isinstance(left, int) else (left, right)
                        inner = tuple(sorted(blocks[i - 1] + blocks[j - 1]))
                        standard, distinct = oracle._standardised(inner)
                        if standard not in forms:
                            forms[standard] = normal_forms(standard)
                        at = tuple(distinct.index(x) + 1 for x in blocks[i - 1])
                        column = (oracle._level(standard).offsets[at]
                                  + a[i - 1] * level_dim(blocks[j - 1]) + a[j - 1])
                        for e, c in forms[standard][column].items():
                            if isinstance(left, int):  # u_k (u_i u_j)
                                col = (level.offsets[blocks[k - 1]]
                                       + a[k - 1] * level_dim(inner) + e)
                            else:  # (u_i u_j) u_k
                                col = level.offsets[inner] + e * level_dim(blocks[k - 1]) + a[k - 1]
                            row[col] = row.get(col, 0) + sign * c
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        rows.append(row)
    return rows


def certified_rows(monkeypatch, labels) -> tuple:
    """The rows that one more build of a level passes to ``_certified_form``."""
    oracle._level(labels)  # every lower level is built and cached
    seen = []
    certify = oracle._certified_form
    with monkeypatch.context() as m:
        m.setattr(oracle, "_certified_form", lambda rows, ncols: seen.append(rows) or
                  certify(rows, ncols))
        level = oracle._level.__wrapped__(labels)
    assert len(seen) == 1
    return level, seen[0]


@pytest.mark.parametrize("content", [(2, 2, 1, 1), (2, 2, 2), (3, 3), (3, 2, 1), (2, 1, 1, 1, 1)])
def test_root_rows_built_once_equal_the_rows_of_every_ordering(monkeypatch, content):
    labels = _content_labels(content)
    _, rows = certified_rows(monkeypatch, labels)
    want = _distinct_rows(*entries(reference_root_rows(labels)))
    assert [a.tolist() for a in rows] == [a.tolist() for a in want]


@pytest.mark.parametrize("content", [(2, 2, 1), (3, 2, 1), (2, 1, 1, 1)])
def test_levels_do_not_depend_on_the_expansion_run_size(monkeypatch, content):
    labels = _content_labels(content)
    for sub in sorted({oracle._standardised(sub)[0] for sub in _sub_multisets(labels)
                       if len(sub) > 2}):
        level, rows = certified_rows(monkeypatch, sub)
        runs: dict = {}
        cut = oracle._runs

        def spy(totals):
            stage = runs.setdefault(sys._getframe(1).f_code.co_name, [])
            stage.append((len(totals), list(cut(totals))))
            return iter(stage[-1][1])

        with monkeypatch.context() as m:
            m.setattr(oracle, "_EXPANSION_ENTRIES", 1)
            m.setattr(oracle, "_runs", spy)
            one, one_rows = certified_rows(monkeypatch, sub)
        assert [a.tolist() for a in one_rows] == [a.tolist() for a in rows]
        assert one.dim == level.dim and one.offsets == level.offsets
        for name in ("counts", "basis", "coefs"):
            assert getattr(one, name).tolist() == getattr(level, name).tolist()
        assert {"_root_rows", "_distinct_rows"} <= set(runs)
        # every unit here has entries, so each run is one triple, one group of equal last
        # column or one row
        for units, cuts in (call for stage in runs.values() for call in stage):
            assert cuts == [(i, i + 1) for i in range(units)]


def test_a_level_build_holds_no_whole_expansion():
    # building every root consequence twice, each stage in one piece, peaked at 13.6 MB
    labels = _content_labels((2, 2, 2))
    oracle._level(labels)  # every lower level is built and cached
    tracemalloc.start()
    try:
        oracle._level.__wrapped__(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "content", [(1, 1, 1), (1, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1)]
)
def test_exact_system_matches_fraction_gauss_jordan(content):
    _, rows, pivot, lifted = _system(content)
    assert form(pivot, lifted) == fraction_rref(as_rows(rows))


@pytest.mark.parametrize("content, p", [((1,) * 4, 3), ((3, 1, 1), 5), ((2, 2, 1), 7)])
def test_small_prime_gives_the_rank_but_fails_the_span_check(monkeypatch, content, p):
    ncols, rows, pivot, lifted = _system(content)
    monkeypatch.setattr(oracle, "DEFAULT_PRIME", p)
    small, (owner, col, val) = _echelon(rows, ncols)
    assert small.sum() == pivot.sum()
    assert _spans(rows, pivot, lifted)
    assert not _spans(rows, small, (owner, col, _lift(val, p)))


def test_tampered_reduced_entry_fails_the_span_check():
    _, rows, pivot, (owner, col, val) = _system((1,) * 4)
    val = val.copy()
    val[np.flatnonzero(owner == owner[0])[-1]] += 1  # a free column: tails lie right of the pivot
    assert not _spans(rows, pivot, (owner, col, val))


def test_certificate_holds_at_the_largest_prime(monkeypatch):
    ncols, rows = _system((3, 2, 1))[:2]
    p = 3_037_000_493  # largest prime below 2^31.5: lifted entries up to p/2
    monkeypatch.setattr(oracle, "DEFAULT_PRIME", p)
    pivot, (owner, col, val) = _echelon(rows, ncols)
    assert _spans(rows, pivot, (owner, col, _lift(val, p)))


def test_oversized_lifted_entry_is_refused(monkeypatch):
    ncols, rows, pivot, (owner, col, val) = _system((1,) * 4)
    assert _spans(rows, pivot, (owner, col, val))
    at = np.flatnonzero(owner == owner[0])[-1]  # a free column: tails lie right of the pivot
    # rows of four +-1 entries: a lifted entry of 2^38 could make a residual of 2^40 + 1
    for entry in (2**38, -(2**38)):
        big = val.copy()
        big[at] = entry
        assert not _spans(rows, pivot, (owner, col, big))
    # congruent to the true entries mod 2^40, so only the bound refuses it
    lift = oracle._lift
    monkeypatch.setattr(oracle, "_lift", lambda values, p: lift(values, p) + (1 << 40))
    with pytest.raises(RankMismatchError,
                       match=f"^the echelon form mod {DEFAULT_PRIME} does not lift to one over Q$"):
        oracle._certified_form(rows, ncols)


def test_unliftable_default_prime_raises(monkeypatch):
    _system.cache_clear()
    oracle._level.cache_clear()
    monkeypatch.setattr(oracle, "DEFAULT_PRIME", 7)
    try:
        with pytest.raises(RankMismatchError, match="does not lift"):
            quotient_dim_multigraded((2, 2, 1))
    finally:
        _system.cache_clear()
        oracle._level.cache_clear()


@pytest.mark.parametrize("call, arg", [
    (quotient_dim, 5),
    (quotient_dim_multigraded, (4, 1, 1)),  # degree 6: one elimination per level
])
def test_one_elimination_per_content_and_prime(monkeypatch, call, arg):
    counts = {"_echelon": 0, "_lift": 0}

    def counted(name):
        fn = getattr(oracle, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(oracle, name, counted(name))
    labels = _content_labels((1,) * arg if call is quotient_dim else arg)
    # one per level of two or more labels
    eliminations = len({oracle._standardised(sub)[0] for sub in _sub_multisets(labels)
                        if len(sub) > 1})
    # 1^5: the levels 1^2 to 1^5; 4,1,1: 2, 3, 3 and 2 label tuples of 2..5 labels, and itself
    assert eliminations == {quotient_dim: 4, quotient_dim_multigraded: 11}[call]
    _system.cache_clear()
    oracle._level.cache_clear()
    try:
        call(arg)
        assert counts == {"_echelon": eliminations, "_lift": eliminations}
        call(arg)  # memoised: neither eliminated nor lifted again
    finally:
        _system.cache_clear()
        oracle._level.cache_clear()
    assert counts == {"_echelon": eliminations, "_lift": eliminations}


def test_consequence_span_guard():
    assert consequence_span(1) == []  # one leaf: no consequence
    with pytest.raises(ValueError):
        consequence_span(0)
    with pytest.raises(ValueError):
        consequence_span(7)


def test_quotient_dim_matches_formula():
    for n in range(1, 6):
        assert quotient_dim(n) == codimension(n)


def test_degree_1_is_certified_like_every_other_degree():
    assert quotient_dim(1) == quotient_dim_multigraded((1,)) == codimension(1) == 1
    assert oracle_multiplicities(1) == sn_decomposition(1)


def test_degree_1_quotient_basis_is_the_single_leaf():
    qb = quotient_basis(1)
    assert (qb.n, qb.monomials, qb.rewrite_map) == (1, (1,), {})


def test_quotient_dim_guard_and_prime_check():
    for n in (0, -1, 7):
        with pytest.raises(ValueError):
            quotient_dim(n)
    # the certified rank is the only one: no modulus is taken
    with pytest.raises(TypeError):
        quotient_dim(3, prime=3)
    with pytest.raises(TypeError):
        quotient_dim_multigraded((2, 1), second_prime=3)


def test_kernel_rank_at_the_smallest_and_largest_primes(monkeypatch):
    rows = consequence_rows(span_columns((1, 2, 3)))
    for p in (3, 3_037_000_493):  # the smallest odd prime and the largest below 2^31.5
        monkeypatch.setattr(oracle, "DEFAULT_PRIME", p)
        assert _echelon(rows, 12)[0].sum() == 5


def test_quotient_dim_multigraded_examples():
    assert quotient_dim_multigraded((2, 1)) == 4
    assert quotient_dim_multigraded((3,)) == 2
    assert quotient_dim_multigraded((1, 1, 1)) == 7
    assert quotient_dim_multigraded((4, 3)) == 49 == multigraded_dim((4, 3))  # degree 7
    with pytest.raises(ValueError):
        quotient_dim_multigraded((2, 0))
    with pytest.raises(ValueError, match="30240 columns"):
        quotient_dim_multigraded((3, 2, 1, 1))  # 132 shapes times 420 arrangements


@pytest.mark.parametrize("content", [(2.7, 1), (2, 0, 1), (), (1, -1), (7, 2), ("2", 1)])
def test_multigraded_entry_points_share_one_content_check(content):
    for call in (quotient_dim_multigraded, consequence_span_multigraded):
        with pytest.raises(ValueError):
            call(content)


def test_column_guard_counts_shapes_times_arrangements():
    assert oracle._component((1,) * 6) == ((1,) * 6, 30240)  # 42 * 720: the limit itself
    assert oracle._component((3, 2, 1)) == ((3, 2, 1), 2520)  # 42 * 60
    assert oracle._component((4, 3)) == ((4, 3), 4620)  # 132 * 35
    assert oracle._component((11,)) == ((11,), 16796)  # Catalan(10) * 1
    assert oracle._component((2.0, 1)) == ((2, 1), 6)  # 2 * 3
    for content in [(1,) * 7, (12,), (7, 2), (3, 2, 1, 1)]:
        with pytest.raises(ValueError, match="more than 30240 columns"):
            oracle._component(content)
    for call in (enumerate_multilinear, consequence_span, quotient_dim, quotient_basis,
                 quotient_character, oracle_multiplicities):
        with pytest.raises(ValueError, match="columns"):
            call(10**9)  # counted one leaf at a time: refused at once
    with pytest.raises(ValueError, match="columns"):
        quotient_dim_multigraded((10**9,))
    with pytest.raises(ValueError, match="columns"):
        write_consequence_matrix(7, io.StringIO())


def positive_contents(total):
    """Every content of the given total degree: compositions into positive parts."""
    for r in range(1, total + 1):
        def go(rem, length):
            if length == 1:
                yield (rem,)
                return
            for first in range(1, rem - length + 2):
                for rest in go(rem - first, length - 1):
                    yield (first,) + rest
        yield from go(total, r)


def test_quotient_dim_multigraded_matches_formula_small():
    for total in range(1, 5):
        for content in positive_contents(total):
            assert quotient_dim_multigraded(content) == multigraded_dim(content)


@pytest.mark.parametrize("content", [(6,), (5, 1), (4, 2), (3, 3), (4, 1, 1)])
def test_quotient_dim_multigraded_matches_formula_degree_6(content):
    assert quotient_dim_multigraded(content) == multigraded_dim(content)


def admitted_partitions(degree):
    """The partition contents of a degree that the oracle's column guard admits."""
    for content in generate_partitions(degree):
        try:
            oracle._component(content)
        except ValueError:
            continue
        yield content


def test_every_admitted_partition_content_past_degree_6_matches_formula():
    contents, degree = [], 7
    while batch := list(admitted_partitions(degree)):
        contents += batch
        degree += 1
    assert (4, 3) in contents
    for content in contents:
        assert quotient_dim_multigraded(content) == multigraded_dim(content), content


def test_recursive_dims_equal_the_brute_force():
    contents = [c for total in range(1, 6) for c in positive_contents(total)]
    assert len(contents) == 31
    for content in contents + [(3, 2, 1), (2, 2, 2), (4, 1, 1)]:
        ncols, _, pivot, _ = _system(content)
        assert quotient_dim_multigraded(content) == ncols - pivot.sum(), content


def test_multilinear_dims_by_two_certified_methods():
    for n in range(1, 6):
        assert quotient_dim(n) == quotient_dim_multigraded((1,) * n) == codimension(n)


def test_recursive_levels_are_memoised_per_standardised_labels():
    level = oracle._level(_content_labels((2, 1)))
    # columns x(xy), x(yx), y(xx), (xx)y, (xy)x, (yx)x: sub-multisets x, y, xx, xy
    assert level.offsets == {(1,): 0, (2,): 2, (1, 1): 3, (1, 2): 4}
    assert (level.dim, len(level.counts)) == (4, 6)
    assert oracle._level(oracle._standardised((3, 3, 7))[0]) is level  # renumbered 1, 1, 2
    assert (level.basis < level.dim).all() and level.counts.sum() == len(level.coefs)


def test_label_major_order_sorts_by_labels_then_shape():
    for labels in ((1, 2, 3), (1, 1, 2, 3), (1, 2, 3, 4, 5), (1, 1, 1, 2, 2, 3)):
        assert list(monomials_with_labels(labels)) == label_major(labels)


def test_label_major_rank_equals_the_exact_rank(monkeypatch):
    contents = [c for total in range(1, 6) for c in positive_contents(total)]
    assert len(contents) == 31
    for content in contents:
        ncols, rows, pivot, _ = _system(content)
        with monkeypatch.context() as m:
            m.setattr(oracle, "DEFAULT_PRIME", 1_000_003)
            assert _echelon(rows, ncols)[0].sum() == pivot.sum()


def test_exact_system_is_built_on_the_one_system():
    for total in range(1, 6):
        for content in positive_contents(total):
            labels = _content_labels(content)
            ncols, rows = _system(content)[:2]
            columns = label_major(labels)
            assert ncols == len(columns)
            span = consequence_span_multigraded(content)
            want = consequence_rows(span_array(index_rows(span, columns)))
            assert all((a == b).all() for a, b in zip(rows, want))


def test_quotient_basis_holds_python_ints():
    for n in (3, 4):
        rewrite_map = quotient_basis(n).rewrite_map
        assert rewrite_map
        for row in rewrite_map.values():
            assert all(type(v) is int for v in row.values())


def test_quotient_basis_is_the_label_major_free_columns():
    for n in range(2, 6):
        qb = quotient_basis(n)
        basis, eliminated = set(qb.monomials), set(qb.rewrite_map)
        assert len(basis) == len(qb.monomials) == codimension(n)
        assert not basis & eliminated
        assert basis | eliminated == set(enumerate_multilinear(n))
        order = [(leaf_labels(m), shape_key(m)) for m in qb.monomials]
        assert order == sorted(order)


def test_label_major_rank_equals_the_canonical_rank_at_degree_6():
    # the rank does not depend on the column order: tree shape first gives it too
    content = (3, 2, 1)
    labels = _content_labels(content)
    ncols, rows = _system(content)[:2]
    shape_rows = consequence_rows(shape_major_columns(span_columns(labels), labels))
    rank = _echelon(rows, ncols)[0].sum()
    assert rank == _echelon(shape_rows, ncols)[0].sum()
    assert rank == ncols - multigraded_dim(content)


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


def test_oracle_multiplicities_at_degree_6_by_kostka_inversion():
    # the eleven levels of the contents of 6, 1^6 the largest: about 2 s, no brute force
    assert oracle_multiplicities(6) == sn_decomposition(6)


def test_negative_kostka_remainder_raises(monkeypatch):
    level = oracle._level
    # dim A(2,1) = 1 < 2 * K_{(3),(2,1)}: the remainder for (2, 1) is 1 - 2
    monkeypatch.setattr(oracle, "_level", lambda labels: replace(level(labels), dim=1)
                        if labels == (1, 1, 2) else level(labels))
    with pytest.raises(MultiplicityError,
                       match=r"^multiplicity of \(2, 1\) is -1, not a non-negative integer$"):
        oracle_multiplicities(3)
    with pytest.raises(MultiplicityError):
        quotient_character(3)


def test_oracle_guards():
    with pytest.raises(ValueError):
        quotient_character(7)
    with pytest.raises(ValueError):
        oracle_multiplicities(0)


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


def test_consequence_matrix_dump_at_degree_1():
    buf = io.StringIO()
    write_consequence_matrix(1, buf)
    assert buf.getvalue() == "0 1\n"  # one column, no consequence


def test_consequence_matrix_dump_is_pinned_at_degree_5():
    buf = io.StringIO()
    write_consequence_matrix(5, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "f0470b6f930f8884c5501be10255644e4ecc581c9292d93a31e1e77eede0fe66"


def test_consequence_matrix_dump_is_pinned_at_degree_6():
    buf = io.StringIO()
    write_consequence_matrix(6, buf)
    data = buf.getvalue().encode()
    assert len(data) == 7845013
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "94136dc92c88dfb1522c32ab94c8abc07a1fa388e901d2c320aa711d791ae873"


def test_consequence_matrix_dump_is_streamed_in_chunks():
    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text.encode()))
            return super().write(text)

    sizes: list[int] = []
    buf = Recorder()
    write_consequence_matrix(6, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "94136dc92c88dfb1522c32ab94c8abc07a1fa388e901d2c320aa711d791ae873"
    assert sum(sizes) == 7845013 and len(sizes) > 1
    assert max(sizes) <= 1 << 20  # no write holds more than 1 MB of the 7.8 MB dump


def dump(n) -> str:
    buf = io.StringIO()
    write_consequence_matrix(n, buf)
    return buf.getvalue()


def monomial_dump(n) -> str:
    """``dump(n)`` with each column named by its monomial: no column number is left.

    The header, then one line per row: its entries as ``value monomial``
    strings, sorted.  Renumbering the columns leaves this text as it is.
    """
    header, *lines = dump(n).splitlines()
    ambient = monomials_with_labels(tuple(range(1, n + 1)))
    rows = [[] for _ in range(int(header.split()[0]))]
    for line in lines:
        row, col, value = line.split()
        rows[int(row)].append(f"{value} {ambient[int(col)]!r}")
    return header + "\n" + "".join(" ; ".join(sorted(row)) + "\n" for row in rows)


@pytest.mark.parametrize("n, digest", [
    (5, "7bad631515df627c5bb1e454500e94d8fe69dcafab8e402bd4703b6bef68b682"),
    (6, "19e2de8a9ee41e448783fceba85f7324c233a1dc536df66c6c11403ba83bb4cd"),
])
def test_consequence_matrix_dump_is_pinned_up_to_column_order(n, digest):
    # the same rows over the same monomials as when the columns were numbered by tree
    # shape first: only the column numbers of the dump changed
    assert hashlib.sha256(monomial_dump(n).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, digest", [
    (4, "0a289b67adea11492abea103171f573455463c3653fe0bac8370d0bc10426a52"),
    (5, "b0aa056a99bbd5ca9d7ec6e213bea491404d29922a29c08af8d7005acab896e9"),
])
def test_quotient_basis_is_pinned(n, digest):
    qb = quotient_basis(n)
    text = repr((qb.monomials, list(qb.rewrite_map.items())))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("call", [quotient_dim, consequence_span, enumerate_multilinear, dump])
def test_integral_float_degree_is_the_degree(call):
    assert call(3.0) == call(3)
    with pytest.raises(ValueError, match="must be integers"):
        call(2.5)


def test_quotient_basis_of_an_integral_float_has_an_int_degree():
    qb = quotient_basis.__wrapped__(2.0)  # past the cache, which 2 and 2.0 share
    assert qb.n == 2 and type(qb.n) is int
    assert qb == quotient_basis(2)
    with pytest.raises(ValueError, match="must be integers"):
        quotient_basis(2.5)


def test_deterministic_rebuild():
    qb1 = quotient_basis(3)
    quotient_basis.cache_clear()
    _system.cache_clear()
    qb2 = quotient_basis(3)
    assert qb1.monomials == qb2.monomials
    assert qb1.rewrite_map == qb2.rewrite_map
