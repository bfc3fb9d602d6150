"""Ground-truth verification from the defining identities: level by level, brute force as reference.

A component of content (l_1, ..., l_r) is spanned by all planar binary trees
whose leaves read the label multiset 1^l_1 ... r^l_r.  The multilinear part
P_n is the component of content (1, ..., 1): n! * Catalan(n-1) monomials
with leaves labelled bijectively by 1..n.  The defining relations
(x,y,z) - (x,z,y) and (x,y,z) - (y,x,z) generate a T-ideal; its part in a
component is spanned by every substitution instance g(u1, u2, u3) of a
generator, embedded in a one-hole monomial context over the remaining labels.

Every such consequence is four distinct monomials with the coefficients SIGNS
= (+1, -1, -1, +1), or zero.  Generator g1's terms are (u1u2)u3, u1(u2u3),
(u1u3)u2 and u1(u3u2); g2's swap u1 and u2 in the last two.
1. The left factor of terms 1 and 3 is a product of two blocks, that of terms
   2 and 4 one block, with fewer leaves: no term of the one pair equals one
   of the other.
2. Term 1 equals term 3 exactly when the two swapped blocks are equal, and
   then term 2 equals term 4: the consequence is zero.
3. Otherwise all four differ.
So the span gives each consequence as its four columns and marks those that
vanish; ``_span`` asserts that nothing else happens.

Two system builders share one elimination kernel and one certificate, all
on numpy entry arrays.  The recursive ``_level`` gives every number that
``verify`` prints: A(U) is the sum of A(L) (x) A(U - L) over the splits of
the labels U at the root, modulo the generators applied at the root to
basis elements of the lower levels, whose certified normal forms rewrite
each inner product.  Its columns are those products, 444 against 2520 at
content 3,2,1.  ``quotient_dim`` is the level of content 1^n and
``quotient_dim_multigraded`` that of its content; ``oracle_multiplicities``
inverts the unitriangular Kostka matrix on the levels of the contents
mu of n (Schur-Weyl: dim A(mu) = sum of m_lambda * K_{lambda,mu}), and
``quotient_character`` sums the irreducible characters they count.  The
brute force, ``_system``, takes one span enumerator's consequences as
deduplicated rows in one canonical row order over the monomial columns, in
the absolutely free algebra; it serves ``quotient_basis`` and is the
reference the tests compare the levels against.  The kernel computes the
reduced echelon form over GF(p), p = DEFAULT_PRIME, a block of rows at a
time: a block is cleared against the pivot rows found so far, then reduced
densely by a forward pass and one backward sweep.  Its number of pivots is
the rank mod p.  The reduced form, once per level or content, is lifted to
symmetric residues and checked exactly: every row must be the integer
combination of the lifted rows at its pivot columns, mod 2^40 under a bound
taken from the data.  That proves rank over Q <= rank mod p, and rank mod
p <= rank over Q always holds, so the lifted rows are the unique reduced
echelon form over Q and their number is both ranks.  A reduced form that
does not lift raises RankMismatchError instead of a wrong answer.  One
guard, the package's only size policy, bounds every component by its
brute-force column count, MAX_COLUMNS.  The brute force's reduced rows give
a rewriting map into a quotient basis, its free columns.

Monomials are nested tuples (a leaf is an int label, a product is a pair).
Over a sorted label multiset with S tree shapes (ordered recursively by
left-subtree size) and A distinct leaf sequences (arrangements, in
lexicographic order), monomial a * S + s has arrangement a and shape s: the
one monomial order, which the enumerations, the span, the elimination, the
quotient basis and the matrix dump all use.  A consequence's four +-1 terms
are two label sequences under two tree shapes each, so this order puts them
side by side in pairs, and the column sweep creates far less fill-in than
an order by tree shape first.  The span is built on these indices alone, as
one (m, 4) int64 array in generation order.  Its splits are batched by
pattern, the blocks and the context with their labels renumbered 1, 2, ...:
per pattern, two cached numpy tables give every term's shape (through a
table of shape grafts) and, from the split's labels, a code of its leaf
sequence, looked up among the arrangements in one step.  The matrix dump
formats that array a fixed number of rows at a time; only the public span
functions and the quotient basis turn indices into monomials.  Everything
is sequential and deterministic: fixed generation, row and column order, no
randomness, no threads.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, repeat
from math import comb, prod

import numpy as np

from .characters import CharacterVector, _character_of
from .decomposition import GROUP_SYMMETRIC, Decomposition, Label
from .partitions import _integers, _kostka, generate_partitions

DEFAULT_PRIME = 2**31 - 1  # Mersenne; any prime below 2^31.5 keeps int64 exact
MAX_COLUMNS = 30240  # the 1^6 component: 42 tree shapes times 720 arrangements

HOLE = 0  # reserved leaf label marking the slot of a one-hole context
SIGNS = (1, -1, -1, 1)  # the coefficients of every consequence's four terms, in order


class RankMismatchError(RuntimeError):
    """An unlucky prime: the echelon form mod DEFAULT_PRIME does not lift to one over Q."""


class MultiplicityError(RuntimeError):
    """A multiplicity came out negative: the level dimensions contradict Schur-Weyl duality."""


# ---------------------------------------------------------------------------
# monomials

def tree_size(m) -> int:
    return 1 if isinstance(m, int) else tree_size(m[0]) + tree_size(m[1])


def leaf_labels(m) -> tuple[int, ...]:
    if isinstance(m, int):
        return (m,)
    return leaf_labels(m[0]) + leaf_labels(m[1])


def shape_key(m):
    """Total order key on tree shapes: by left-subtree size, recursively."""
    if isinstance(m, int):
        return ()
    return (tree_size(m[0]), shape_key(m[0]), shape_key(m[1]))


def monomial_key(m):
    """Total order key on monomials: label sequence, then tree shape."""
    return (leaf_labels(m), shape_key(m))


def relabel(monomial, images):
    """Replace leaf label i by images[i-1]: a permutation, substitution or filling."""
    if isinstance(monomial, int):
        return images[monomial - 1]
    return (relabel(monomial[0], images), relabel(monomial[1], images))


@cache
def _templates(n: int) -> tuple:
    """All tree shapes with n leaves, leaves numbered 1..n left to right."""
    if n == 1:
        return (1,)
    out = []
    for left_size in range(1, n):
        for left in _templates(left_size):
            for right in _templates(n - left_size):
                out.append((left, relabel(right, range(left_size + 1, n + 1))))
    return tuple(out)


def _shape_count(n: int) -> int:
    """Catalan(n-1): the number of tree shapes with n leaves, ``len(_templates(n))``."""
    return comb(2 * n - 2, n - 1) // n


@cache
def _graft(size: int, inner_size: int) -> np.ndarray:
    """The shape made by putting shape ``inner`` at leaf ``leaf`` of ``outer``, as a table.

    Entry [outer, leaf, inner], leaf 0-based; shapes are indices into
    ``_templates`` of their size, the result one of ``size + inner_size - 1``
    leaves, looked up by its template: ``_templates`` is the one definition
    of the shape order.
    """
    n = size + inner_size - 1
    index = {template: i for i, template in enumerate(_templates(n))}
    return np.array([[[index[relabel(outer, (*range(1, leaf + 1),
                                             relabel(inner, range(leaf + 1, n + 1)),
                                             *range(leaf + inner_size + 1, n + 1)))]
                       for inner in _templates(inner_size)]
                      for leaf in range(size)]
                     for outer in _templates(size)], dtype=np.int64)


@cache
def _arrangements(labels: tuple[int, ...]) -> tuple:
    """The distinct leaf sequences over a label multiset, in lexicographic order.

    Built head by head: 11 equal labels give one sequence, not 11! to deduplicate.
    """
    if not labels:
        return ((),)
    return tuple((head,) + rest for head in sorted(set(labels))
                 for rest in _arrangements(_without(labels, (head,))))


@cache
def monomials_with_labels(labels: tuple[int, ...]) -> tuple:
    """All monomials whose leaf labels read the given multiset, in the monomial order.

    Monomial ``a * S + s`` has leaf sequence ``_arrangements(labels)[a]`` and
    shape ``_templates(n)[s]``, for S tree shapes.
    """
    return tuple(
        relabel(t, arr) for arr in _arrangements(labels) for t in _templates(len(labels))
    )


def _component(content) -> tuple:
    """(parts, columns) of a content, checked: the one size guard of the oracle.

    ValueError unless the parts are positive integers, of total degree n >= 1,
    and the columns, Catalan(n-1) tree shapes times n!/prod(l_i!)
    leaf arrangements, at most MAX_COLUMNS.  Both factors grow with each leaf,
    so counting stops at the first leaf past the limit: huge inputs cost nothing.
    """
    parts, n, arrangements, columns = [], 0, 1, 0
    for part in content:
        (part,) = _integers((part,), "multidegree parts")
        if part < 1:
            raise ValueError(f"multidegree parts must be positive integers, got {part!r}")
        for k in range(1, part + 1):
            n += 1
            arrangements = arrangements * n // k
            columns = _shape_count(n) * arrangements
            if columns > MAX_COLUMNS:
                raise ValueError(f"the component has more than {MAX_COLUMNS} columns "
                                 "(tree shapes times leaf arrangements)")
        parts.append(part)
    if not parts:
        raise ValueError("the degree must be positive")
    return tuple(parts), columns


def _multilinear(n: int) -> tuple[int, ...]:
    """The content (1, ..., 1) of degree n (an int or an integral float), checked."""
    (n,) = _integers((n,), "n")
    return _component(repeat(1, n))[0]


def enumerate_multilinear(n: int) -> list:
    """All n! * Catalan(n-1) multilinear monomials of degree n, in the monomial order."""
    return list(monomials_with_labels(_content_labels(_multilinear(n))))


# ---------------------------------------------------------------------------
# identity generators and their consequences

def _associator(x, y, z) -> dict:
    return {((x, y), z): 1, (x, (y, z)): -1}


def _difference(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) - c
        if not out[m]:
            del out[m]
    return out


def identity_generators() -> tuple[dict, dict]:
    """The two defining relations in variables 1, 2, 3, expanded into monomials.

    g1 = (x,y,z) - (x,z,y) and g2 = (x,y,z) - (y,x,z), four terms each with
    the coefficients SIGNS.
    """
    base = _associator(1, 2, 3)
    return (
        _difference(base, _associator(1, 3, 2)),
        _difference(base, _associator(2, 1, 3)),
    )


@cache
def _generator_terms() -> tuple:
    """``identity_generators()`` as lists of (shape, leaf sequence), coefficients SIGNS.

    The leaf sequence lists, for each leaf, the 0-based number of its variable.
    """
    out = []
    for g in identity_generators():
        if tuple(g.values()) != SIGNS:
            raise AssertionError("a generator's coefficients are not SIGNS")
        terms = []
        for term in g:
            seq = leaf_labels(term)
            template = relabel(term, [seq.index(i) + 1 for i in (1, 2, 3)])
            terms.append((_templates(3).index(template), tuple(i - 1 for i in seq)))
        out.append(terms)
    return tuple(out)


@cache
def _substituted_shapes(sizes: tuple) -> np.ndarray:
    """The shapes of the generators' terms with each variable replaced by a shape.

    A (G, S1, S2, S3, 4) table: entry [g, s1, s2, s3, t] is the shape of
    generator g's term t with variable i replaced by shape s_i of
    ``sizes[i]`` leaves, one of the S_i such shapes.
    """
    counts = tuple(map(_shape_count, sizes))
    axes = np.ix_(*map(np.arange, counts))
    out = []
    for terms in _generator_terms():
        for shape, seq in terms:
            size = 3
            for leaf in (2, 1, 0):  # right to left, so the leaves still to fill stay put
                shape = _graft(size, sizes[seq[leaf]])[shape, leaf, axes[seq[leaf]]]
                size += sizes[seq[leaf]] - 1
            out.append(shape)
    return np.moveaxis(np.reshape(out, (-1, len(SIGNS)) + counts), 1, -1)


def _sub_multisets(labels: tuple):
    """Nonempty sub-multisets of a sorted label tuple: by size, then lexicographic.

    On distinct labels this is ``combinations`` by size: the order in which
    ``write_consequence_matrix`` numbers the rows of its dump.
    """
    for k in range(1, len(labels) + 1):
        yield from dict.fromkeys(combinations(labels, k))


def _without(labels: tuple, sub: tuple) -> tuple:
    rest = list(labels)
    for label in sub:
        rest.remove(label)
    return tuple(rest)


def _standardised(labels: tuple) -> tuple:
    """A sorted label tuple as (its labels renumbered 1, 2, ... in order, its distinct labels)."""
    distinct = tuple(dict.fromkeys(labels))
    return tuple(distinct.index(x) + 1 for x in labels), distinct


def _slot_weights(slots: np.ndarray, powers: np.ndarray, nslots: int) -> np.ndarray:
    """Per row of leaf slots, each slot's summed position weights: (..., nslots)."""
    return (np.eye(nslots, dtype=np.int64)[slots] * powers[..., None]).sum(-2)


@cache
def _split_tables(pattern: tuple, base: int) -> tuple:
    """(shape table, slot weights, columns per split) of one split pattern.

    A pattern is a split's three blocks and context, each renumbered by
    ``_standardised``; a split is the pattern and its slot values, the
    distinct labels of block 1, 2, 3 and the context, concatenated.  Its
    consequences come in the order (g, s1, a1, s2, a2, s3, a3, c, h, t):
    generator, shape and arrangement of each block monomial, context shape
    and context arrangement (which places the hole), term.  The shape table
    holds each term's shape, broadcast over the a_i axes; a term's
    arrangement is the split's slot values times the weights, a base-``base``
    code of its leaf sequence.  Both are built whole with numpy.
    """
    *blocks, context = pattern
    sizes = tuple(map(len, blocks))
    inner_size, size = sum(sizes), len(context) + 1
    n = inner_size + size - 1
    holes = np.array(_arrangements((HOLE,) + context)).reshape(-1, size)
    at = np.argmin(holes, axis=1)  # HOLE = 0 is below every renumbered label
    shapes = _graft(size, inner_size)[
        np.arange(_shape_count(size))[:, None, None], at[:, None],
        _substituted_shapes(sizes)[..., None, None, :]]  # (G, S1, S2, S3, C, H, 4)

    starts = np.cumsum([0] + [max(part, default=0) for part in pattern])
    nslots = int(starts[-1])
    arrangements = [np.array(_arrangements(b)) - 1 + start for b, start in zip(blocks, starts)]
    inner = []  # per term: the weights of the plugged blocks' leaves, before the hole's scale
    for terms in _generator_terms():
        for _, seq in terms:
            term, offset = 0, inner_size
            for v in seq:
                offset -= sizes[v]  # weight base^(leaves right of the leaf, within the term)
                powers = base ** (offset + np.arange(sizes[v])[::-1])
                w = _slot_weights(arrangements[v], powers, nslots)
                term = term + w.reshape([-1 if axis == v else 1 for axis in range(3)] + [nslots])
            inner.append(term)
    inner = np.reshape(inner, (-1, len(SIGNS)) + term.shape)  # (G, 4, A1, A2, A3, slots)
    position = np.arange(size)
    position = np.where(position < at[:, None], position, position + inner_size - 1)
    outside = _slot_weights(holes - 1 + starts[3],  # the hole's own weight is 0
                            np.where(holes == HOLE, 0, base ** (n - 1 - position)), nslots)
    weights = inner[:, :, :, :, :, None] * base ** (n - inner_size - at)[:, None] + outside
    weights = np.moveaxis(weights, (-1, 1), (0, -1))  # (slots, G, A1, A2, A3, H, 4)
    shapes = shapes[:, :, None, :, None, :, None]
    weights = weights[:, :, None, :, None, :, None, :, None]
    return shapes, weights, prod(np.broadcast_shapes(shapes.shape, weights.shape[1:]))


def _span(labels: tuple) -> tuple:
    """Every consequence over a sorted label multiset: (columns, vanishing), in generation order.

    Each split into three nonempty blocks and a (possibly empty) context, with
    monomials on the blocks and a one-hole context monomial, contributes one
    consequence per generator.  Redundant (even duplicate) ones are fine;
    the row builder absorbs them.  ``columns`` is an (m, 4) int64 array, row
    i the four columns of ``monomials_with_labels(labels)`` of
    consequence i, coefficients SIGNS; ``vanishing`` marks the rows whose
    terms cancel in pairs, 1 with 3 and 2 with 4.  Any other coincidence
    breaks the invariant and raises AssertionError.

    The splits are walked once, only to give each its first row.  Splits of
    one pattern share the cached ``_split_tables``: one product of their
    slot values with the weights gives every term's leaf sequence as a code,
    one ``searchsorted`` among the sorted codes of ``_arrangements(labels)``
    its arrangement a, and the term's column is a * S + shape, for S tree shapes.
    """
    n, base = len(labels), max(labels, default=0) + 1
    if base**n >= 2**63:
        raise AssertionError("leaf sequences overflow int64 as base-B codes")
    arrangements = _arrangements(labels)
    codes = np.array(arrangements, dtype=np.int64).reshape(len(arrangements), n)
    codes = codes @ base ** np.arange(n - 1, -1, -1)  # increasing: lexicographic order
    groups: dict = {}
    total = 0
    for b1 in _sub_multisets(labels):
        rest1 = _without(labels, b1)
        for b2 in _sub_multisets(rest1):
            rest2 = _without(rest1, b2)
            for b3 in _sub_multisets(rest2):
                pattern, values = zip(*map(_standardised, (b1, b2, b3, _without(rest2, b3))))
                firsts, slot_values = groups.setdefault(pattern, ([], []))
                firsts.append(total)
                slot_values.append(sum(values, ()))
                total += _split_tables(pattern, base)[2]
    cols = np.empty(total, dtype=np.int64)
    for pattern, (firsts, slot_values) in groups.items():
        shapes, weights, count = _split_tables(pattern, base)
        found = np.tensordot(np.array(slot_values, dtype=np.int64), weights, 1)
        arr = np.minimum(np.searchsorted(codes, found), len(codes) - 1)
        if (codes[arr] != found).any():
            raise AssertionError("a term's leaf sequence is not an arrangement of the labels")
        terms = arr * _shape_count(n) + shapes
        cols[np.add.outer(firsts, np.arange(count))] = terms.reshape(len(firsts), count)
    cols = cols.reshape(-1, 4)
    same = cols[:, :, None] == cols[:, None, :]
    vanishing = same[:, 0, 2] & same[:, 1, 3]
    bad = np.flatnonzero(~vanishing & (same.sum((1, 2)) != 4))
    if len(bad):
        raise AssertionError(f"columns {tuple(cols[bad[0]].tolist())} neither differ nor cancel")
    return cols, vanishing


def _content_labels(content) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(content, start=1) for _ in range(c))


def _monomial_span(labels: tuple) -> list[dict]:
    ambient = monomials_with_labels(labels)
    cols, vanishing = _span(labels)
    return [{} if zero else dict(zip(map(ambient.__getitem__, row), SIGNS))
            for row, zero in zip(cols.tolist(), vanishing.tolist())]


def consequence_span(n: int) -> list[dict]:
    """Deterministic spanning set of the multilinear degree-n T-ideal component.

    The same list as ``consequence_span_multigraded((1,) * n)``.
    """
    return _monomial_span(_content_labels(_multilinear(n)))


def consequence_span_multigraded(content) -> list[dict]:
    """Spanning set of the T-ideal component with the given generator content."""
    return _monomial_span(_content_labels(_component(content)[0]))


# ---------------------------------------------------------------------------
# linear algebra

def _sorted_terms(cols: np.ndarray) -> tuple:
    """Consequences, an (m, 4) column array, as flat (column, sign) arrays sorted within each row.

    Row i of ``cols`` holds one consequence's columns, coefficients SIGNS;
    its four entries come out by column, their signs carried along.
    """
    order = np.argsort(cols, axis=1)
    return np.take_along_axis(cols, order, axis=1).ravel(), np.array(SIGNS)[order].ravel()


_CHUNK_ROWS = 512  # rows per dense block; the result depends on neither constant
_EXPANSION_ENTRIES = 1 << 18  # entries per sparse expansion run, bounding its memory


def _substitute(rows: tuple, replaced: np.ndarray, by: tuple, ncols: int, p: int) -> tuple:
    """Sparse rows with every entry x at a replaced column c swapped for -x * by[c].

    Both ``rows`` and ``by`` are (owner, column, value) entry arrays grouped
    by owner; row c of ``by`` is its entries owned by c, possibly none.  The
    result is grouped by owner and sorted by column within it, with terms
    summed mod p and zeros dropped; owners and columns are int32.  Rows are
    expanded a run of whole rows at a time, so no run exceeds
    ``_EXPANSION_ENTRIES`` entries unless a single row does.  Every term is
    reduced mod p before it is summed, and a sum has at most one term per
    entry of its row, so the sums stay far inside int64 for every p below
    2^31.5 and for the certificate's 2^40.
    """
    owner, col, val = rows
    if not len(owner):
        return rows
    counts = np.bincount(by[0], minlength=ncols)
    stop = np.cumsum(counts)
    start = stop - counts
    hit = replaced[col]
    ends = np.append(np.flatnonzero(np.diff(owner)) + 1, len(owner))
    sizes = np.cumsum(np.where(hit, counts[col], 1))[ends - 1]  # expanded, up to each row end
    out, lo, first, base = [], 0, 0, 0
    while first < len(ends):  # rows first..last, first <= last
        last = max(first, int(np.searchsorted(sizes, base + _EXPANSION_ENTRIES, side="right")) - 1)
        hi = int(ends[last])
        o, c, v, h = owner[lo:hi].astype(np.int64), col[lo:hi], val[lo:hi], hit[lo:hi]
        length = counts[c[h]]
        at = np.repeat(start[c[h]] - np.cumsum(length) + length, length) + np.arange(length.sum())
        key = np.concatenate([o[~h] * ncols + c[~h], np.repeat(o[h], length) * ncols + by[1][at]])
        term = np.concatenate([v[~h], p - np.repeat(v[h], length) * by[2][at] % p])
        order = np.argsort(key)  # equal keys are summed: no order among them
        key = key[order]
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        sums = np.add.reduceat(term[order], heads) % p
        keep = sums != 0
        key = key[heads][keep]
        out.append(((key // ncols).astype(np.int32), (key % ncols).astype(np.int32), sums[keep]))
        lo, first, base = hi, last + 1, sizes[last]
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _gauss_jordan(mat: np.ndarray, p: int) -> np.ndarray:
    """The reduced echelon form of a C-ordered dense block over GF(p), in place; its pivot columns.

    Forward pass, left to right: a row not yet a pivot row that is nonzero
    in a column becomes its pivot row.  It moves up below the earlier ones,
    its tail is scaled by the inverse of its entry there, the entry is
    dropped, and the column is cleared from the rows below it only.  Such a
    row is zero left of the column, so fill-in only lands to the right.
    Backward pass, last pivot to first: each pivot column is cleared from
    the pivot rows above it.  Every later pivot column is cleared from a row
    before its own turn, so its tail then holds only free columns: the
    sweep creates no entry at a pivot column, and it visits only the pivots
    that have entries above them once the forward pass ends.  The pivot rows
    end up first, in the order of their columns, and the rows past them are
    zero.  Each update is a rank-1 product through flat indices.  Entries
    stay below p, so every product stays below p^2 < 2^63.
    """
    flat = mat.reshape(-1)
    width = mat.shape[1]
    found = []

    def clear(j: int, r: int, others: np.ndarray) -> None:
        """Subtract row r, entry j dropped, times their entry at j from rows ``others``."""
        row = mat[r]
        tail = row.nonzero()[0]
        if tail.size:
            idx = (others[:, None] * width + tail).ravel()
            flat[idx] = (flat.take(idx) - (mat[others, j, None] * row[tail]).ravel()) % p
        mat[others, j] = 0

    for j in range(width):
        r0 = len(found)
        lead = mat[r0:, j].nonzero()[0]
        if not lead.size:
            continue
        row = mat[r0]
        if lead[0]:
            other = mat[r0 + lead[0]]
            held = other.copy()
            other[:] = row
            row[:] = held
        found.append(j)
        inv = pow(int(row[j]), -1, p)
        row[j] = 0
        if inv != 1:  # the row is zero left of j
            tail = row[j + 1:]
            tail *= inv
            tail %= p
        if lead.size > 1:  # row r0 + lead[0] now holds the old row r0, zero at j
            clear(j, r0, r0 + lead[1:])
        if len(found) == len(mat):
            break
    found = np.array(found, dtype=np.int64)
    above = mat[:len(found), found].any(0)
    for k in np.flatnonzero(above)[::-1].tolist():
        j = int(found[k])
        clear(j, k, mat[:k, j].nonzero()[0])
    return found


def _echelon(rows: tuple, ncols: int) -> tuple:
    """The reduced echelon form over GF(p), p = DEFAULT_PRIME, as (pivot mask, reduced rows).

    The one elimination kernel, on (row, column, value) entry triples grouped
    by row.  The reduced rows are (pivot, column, value) arrays grouped by
    pivot and by column within it, values in [1, p), tail entries only on
    free columns right of the pivot, pivot entries (all 1) left out.  A cache
    holds every pivot row found so far while the rows pass a fixed-size
    block at a time:

    1. clear: one sparse product subtracts row[c] * cache[c] at every
       cached pivot c, so no reduction chains through several pivots and a
       row in the span of earlier blocks becomes zero;
    2. load: the residual goes into a dense block over only the columns it
       touches;
    3. sweep: inside the block, a forward pass clears each new pivot column
       below its pivot row, then one backward sweep, last pivot first,
       clears it above;
    4. substitute: the new pivots' columns are replaced in the cached rows,
       and the new rows merge into the cache by a stable sort on pivot.

    The reduced echelon form is unique, so neither the block size nor the
    row order changes the result, only the work.  Sequential and deterministic.
    """
    p = DEFAULT_PRIME
    owner, col, val = rows
    pivot = np.zeros(ncols, dtype=bool)
    cache = (np.zeros(0, dtype=np.int32),) * 2 + (np.zeros(0, dtype=np.int64),)
    nrows = int(owner[-1]) + 1 if len(owner) else 0
    cuts = np.searchsorted(owner, range(0, nrows + _CHUNK_ROWS, _CHUNK_ROWS))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        r, c, v = _substitute((owner[lo:hi], col[lo:hi], val[lo:hi] % p), pivot, cache, ncols, p)
        if not len(r):
            continue
        used, c = np.unique(c, return_inverse=True)
        _, r = np.unique(r, return_inverse=True)
        mat = np.zeros((r[-1] + 1, len(used)), dtype=np.int64)
        mat[r, c] = v
        found = used[_gauss_jordan(mat, p)]
        mat = mat[:len(found)]
        r, c = np.nonzero(mat)
        new = (found[r], used[c], mat[r, c])
        fresh = np.zeros(ncols, dtype=bool)
        fresh[found] = True
        touched = np.zeros(ncols, dtype=bool)  # pivots whose row has an entry at a new one
        touched[cache[0][fresh[cache[1]]]] = True
        sel = touched[cache[0]]
        changed = _substitute(tuple(a[sel] for a in cache), fresh, new, ncols, p)
        cache = [np.concatenate(parts) for parts in zip((a[~sel] for a in cache), changed, new)]
        order = np.argsort(cache[0], kind="stable")
        cache = tuple(a[order] for a in cache)
        pivot |= fresh
    if (pivot[cache[1]] | (cache[1] <= cache[0])).any():
        raise AssertionError("the echelon form mod p is not reduced")
    return pivot, cache


def _lift(values: np.ndarray, p: int) -> np.ndarray:
    """Residues mod p as their symmetric representatives in (-p/2, p/2]."""
    return np.where(values > p // 2, values - p, values)


_CERTIFICATE_MODULUS = 1 << 40


def _spans(rows: tuple, pivot: np.ndarray, lifted: tuple) -> bool:
    """Whether each row provably equals, over Z, the sum of row[c] * lifted[c] over pivots c.

    ``lifted`` holds the reduced rows on symmetric residues, pivot entries
    left out, over ``len(pivot)`` columns.  A row is spanned iff its residual,
    its entries at free columns minus that sum, is zero: one ``_substitute``
    mod 2^40.  The bound comes from the data: a residual is a row entry less
    at most one product per entry of its row, so it stays below
    B = max |row entry| * (1 + longest row * max |lifted entry|) in absolute
    value, and so does every product.  If B < 2^40, nothing wraps and a
    residual is zero over Z iff it is zero mod 2^40; otherwise nothing is
    proven and the answer is False.  The values go in signed: reduced into
    [0, 2^40), a product of two would overflow int64.
    """
    owner, _, val = rows
    if len(owner):
        longest = int(np.bincount(owner).max())
        largest = int(np.abs(lifted[2]).max(initial=0))
        if int(np.abs(val).max()) * (1 + longest * largest) >= _CERTIFICATE_MODULUS:
            return False
    return not len(_substitute(rows, pivot, lifted, len(pivot), _CERTIFICATE_MODULUS)[0])


def _certified_form(rows: tuple, ncols: int) -> tuple:
    """(pivot mask, lifted rows): the reduced echelon form over Q, or RankMismatchError.

    The one certificate.  The reduced form mod DEFAULT_PRIME is lifted to
    symmetric residues and kept only if ``_spans`` proves that it spans
    every row over Z; its number of pivots is then the rank over Q and mod p,
    and the lifted rows, integral, are the unique reduced echelon form over Q.
    """
    p = DEFAULT_PRIME
    pivot, (owner, col, val) = _echelon(rows, ncols)
    lifted = (owner, col, _lift(val, p))
    if not _spans(rows, pivot, lifted):
        raise RankMismatchError(f"the echelon form mod {p} does not lift to one over Q")
    return pivot, lifted


# ---------------------------------------------------------------------------
# quotient data

@dataclass(frozen=True)
class QuotientBasis:
    """Monomials spanning P_n modulo the identities, plus rewriting data.

    ``rewrite_map`` sends every eliminated monomial to its expansion over
    the surviving ones; surviving monomials rewrite to themselves.
    """

    n: int
    monomials: tuple
    rewrite_map: dict = field(repr=False)

    def rewrite(self, monomial) -> dict:
        if monomial in self.rewrite_map:
            return self.rewrite_map[monomial]
        return {monomial: 1}

    def rewrite_combination(self, combination: dict) -> dict:
        out: dict = {}
        for m, coeff in combination.items():
            for b, c in self.rewrite(m).items():
                nv = out.get(b, 0) + coeff * c
                if nv:
                    out[b] = nv
                else:
                    del out[b]
        return out


@cache
def _system(content: tuple[int, ...]) -> tuple:
    """(column count, rows, pivot mask, lifted rows) of a component, by brute force.

    The component in the absolutely free algebra: the nonzero consequences
    of the span, one (m, 4) column array; each row is sorted by column and
    the rows are deduplicated up to sign in the canonical row order of
    ``_distinct_rows``.  ``_certified_form`` gives the reduced form over Q.
    It serves ``quotient_basis`` and is the reference that the tests compare
    the levels against.  Built once per content.
    """
    labels = _content_labels(content)
    ncols = _shape_count(len(labels)) * len(_arrangements(labels))
    cols, vanishing = _span(labels)
    cols = cols[~vanishing]
    rows = _distinct_rows(np.arange(len(cols)).repeat(4), *_sorted_terms(cols))
    return (ncols, rows, *_certified_form(rows, ncols))


@dataclass(frozen=True)
class _Level:
    """The certified quotient A(V) over a standardised label tuple V: one level.

    ``dim`` is dim A(V).  For two or more labels, A(V) is spanned by the
    products u_a u_b of basis elements of A(L) and A(V - L), over the nonempty
    proper sub-multisets L: column ``offsets[L] + a * dim A(V - L) + b``.
    Column c's normal form over the basis of A(V), its free columns in order,
    is ``counts[c]`` (basis index, coefficient) pairs, in ``basis`` and
    ``coefs`` grouped by column: a free column is itself, a pivot column
    minus its lifted reduced row.
    """

    dim: int
    offsets: dict = field(repr=False)
    counts: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    coefs: np.ndarray = field(repr=False)


def _distinct_rows(owner: np.ndarray, col: np.ndarray, val: np.ndarray) -> tuple:
    """Entry triples, grouped by row and by column within it, deduplicated up to sign.

    Each row is scaled to +1 sign at its minimal column and padded into one
    key of interleaved (column, value) pairs; the distinct keys come out in
    one canonical row order, by descending last column and then by key:
    neither the rank nor the reduced echelon form depends on row order, but
    this one keeps the elimination sweeps small.  The result is one (row,
    column, value) triple of int64 entry arrays, row i the i-th key, its
    entries by column.
    """
    heads = np.flatnonzero(np.diff(owner, prepend=-1))
    lengths = np.diff(np.append(heads, len(owner)))
    val = val * np.sign(val[heads]).repeat(lengths)
    position = np.arange(len(owner)) - heads.repeat(lengths)
    keys = np.full((len(heads), 2 * int(lengths.max(initial=0))), -1, dtype=np.int64)
    row = np.arange(len(heads)).repeat(lengths)
    keys[row, 2 * position] = col
    keys[row, 2 * position + 1] = val
    if len(keys):  # np.lexsort takes no empty key list; np.unique(axis=0) imports numpy.ma
        keys = keys[np.lexsort(keys.T[::-1])]
        keys = keys[np.append(True, (keys[1:] != keys[:-1]).any(1))]
    width = (keys[:, 0::2] >= 0).sum(1)
    keys = keys[np.argsort(-keys[np.arange(len(keys)), 2 * width - 2], kind="stable")]
    present = keys[:, 0::2] >= 0
    return (np.arange(len(keys)).repeat(present.sum(1)), keys[:, 0::2][present],
            keys[:, 1::2][present])


@cache
def _level(labels: tuple) -> _Level:
    """The certified quotient over a standardised label tuple, built on its lower levels.

    For U the labels, the T-ideal part splits at the root:
    I(U) = sum over S + T = U of (I(S) F(T) + F(S) I(T)) + R(U), where R(U)
    is spanned by the generators g(u1, u2, u3) at the root, one u_i per
    block of an ordered split of U into three nonempty blocks; a
    consequence inside a nontrivial context lies in the first sum, and so
    does g with any u_i in I.  Hence A(U) is the direct sum of the
    A(L) (x) A(U - L) modulo the images of g(u1, u2, u3) over basis
    elements u_i, each term's inner product u_a u_b taken to its normal
    form at the lower level.  Those images are the rows, built with one
    gather per distinct generator term over every split at once, summed,
    deduplicated up to sign and certified by ``_certified_form``: a level
    stands only on certified lower levels, and its normal forms serve the
    levels above it.  Memoised per label tuple; A(S) depends only on the
    content of S, up to the monotone relabelling.  Nothing is evicted: a
    long-lived process keeps every level it has built, 37 levels holding
    2.8 MB of arrays after ``verify --n 6``.  The column guard of
    ``_component``, which every public entry passes first, caps that.
    """
    empty = np.zeros(0, dtype=np.int64)
    if len(labels) == 1:
        return _Level(1, {}, empty, empty, empty)
    proper = list(_sub_multisets(labels))[:-1]
    dims = {sub: _level(_standardised(sub)[0]).dim for sub in proper}
    offsets, ncols = {}, 0
    for sub in proper:
        offsets[sub] = ncols
        ncols += dims[sub] * dims[_without(labels, sub)]

    first: dict = {}  # inner level -> its first column in the joint normal-form table
    joint = 0
    # per split: the block dimensions; per split and term: the inner product u_x u_y is
    # joint column base + a_x * step_x + a_y, and entry e of its normal form lands on
    # column outer + e * step_e + a_z * step_z
    split_dims, gathers = [], []
    for b1 in proper:
        rest1 = _without(labels, b1)
        for b2 in list(_sub_multisets(rest1))[:-1]:
            blocks = (b1, b2, _without(rest1, b2))
            split_dims.append([dims[b] for b in blocks])
            for x, y, z, right in _root_terms()[0]:
                inner = tuple(sorted(blocks[x] + blocks[y]))
                if right:
                    outer, step_e, step_z = offsets[blocks[z]], 1, dims[inner]
                else:
                    outer, step_e, step_z = offsets[inner], dims[blocks[z]], 1
                standard, distinct = _standardised(inner)
                if standard not in first:
                    first[standard] = joint
                    joint += len(_level(standard).counts)
                base = first[standard] + _level(standard).offsets[
                    tuple(distinct.index(label) + 1 for label in blocks[x])]
                gathers.append((base, dims[blocks[y]], outer, step_e, step_z))
    rows = (empty,) * 3
    if split_dims:
        rows = _distinct_rows(*_root_rows([_level(s) for s in first], ncols,
                                          np.array(split_dims), np.array(gathers)))
    pivot, (owner, tail, lifted) = _certified_form(rows, ncols)
    index = np.cumsum(~pivot) - 1  # the basis index of each free column
    free = np.flatnonzero(~pivot)
    column = np.concatenate([free, owner])
    order = np.argsort(column, kind="stable")
    return _Level(len(free), offsets, np.bincount(column, minlength=ncols),
                  np.concatenate([index[free], index[tail]])[order],
                  np.concatenate([np.ones(len(free), dtype=np.int64), -lifted])[order])


@cache
def _root_terms() -> tuple:
    """The generators' distinct terms as (x, y, z, right), and each generator's terms by index.

    A term is u_z (u_x u_y) if ``right``, else (u_x u_y) u_z, with x, y, z
    the 0-based blocks of a split; the inner product is always u_x u_y.
    """
    terms = list(dict.fromkeys(term for terms in _generator_terms() for term in terms))
    roles = tuple((j, k, i, True) if isinstance(_templates(3)[shape][0], int) else (i, j, k, False)
                  for shape, (i, j, k) in terms)
    return roles, tuple(tuple(map(terms.index, g)) for g in _generator_terms())


def _root_rows(inner: list, ncols: int, split_dims: np.ndarray, gathers: np.ndarray) -> tuple:
    """The root rows g(u1, u2, u3) of one level as summed entry triples, grouped by row.

    ``inner`` lists the lower levels whose normal forms the terms use, their
    tables joined in that order; ``split_dims`` is (splits, 3) and
    ``gathers`` (splits * terms, 5), split-major over ``_root_terms``, as
    ``_level`` builds them.  Every (split, a1, a2, a3) is one triple, one
    gather per term over all of them; generator g's row for triple t is
    g * triples + t.  Equal entries of a row are summed and zeros dropped.
    """
    roles, generators = _root_terms()
    counts = np.concatenate([level.counts for level in inner])
    starts = np.cumsum(counts) - counts
    basis = np.concatenate([level.basis for level in inner])
    coefs = np.concatenate([level.coefs for level in inner])
    sizes = split_dims.prod(1)
    split = np.arange(len(sizes)).repeat(sizes)
    rest = np.arange(len(split)) - (np.cumsum(sizes) - sizes)[split]
    a = []
    for d in split_dims[split, ::-1].T:  # a3, a2, a1
        rest, digit = np.divmod(rest, d)
        a.insert(0, digit)
    gathers = gathers.reshape(len(sizes), len(roles), 5)[split]
    entries = []
    for t, (x, y, z, _) in enumerate(roles):
        base, step_x, outer, step_e, step_z = gathers[:, t].T
        joint = base + a[x] * step_x + a[y]
        length = counts[joint]
        at = np.repeat(starts[joint] - np.cumsum(length) + length, length) + np.arange(length.sum())
        entries.append((np.arange(len(split)).repeat(length),
                        np.repeat(outer + a[z] * step_z, length) + basis[at] * step_e.repeat(length),
                        coefs[at]))
    row, col, val = [], [], []
    for g, generator in enumerate(generators):
        for sign, t in zip(SIGNS, generator):
            triple, c, v = entries[t]
            row.append(triple + g * len(split))
            col.append(c)
            val.append(sign * v)
    key = np.concatenate(row) * ncols + np.concatenate(col)
    order = np.argsort(key)
    key = key[order]
    heads = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(np.concatenate(val)[order], heads)
    keep = sums != 0
    key = key[heads][keep]
    return key // ncols, key % ncols, sums[keep]


@cache
def quotient_basis(n: int) -> QuotientBasis:
    """Exact reduced row echelon data for the degree-n multilinear quotient."""
    content = _multilinear(n)
    ambient = monomials_with_labels(_content_labels(content))
    _, _, pivot, (owner, col, val) = _system(content)
    basis = tuple(ambient[i] for i in np.flatnonzero(~pivot).tolist())
    rewrite_map: dict = {ambient[c]: {} for c in np.flatnonzero(pivot).tolist()}
    for c, k, v in zip(owner.tolist(), col.tolist(), val.tolist()):
        rewrite_map[ambient[c]][ambient[k]] = -v
    return QuotientBasis(n=len(content), monomials=basis, rewrite_map=rewrite_map)


def quotient_dim(n: int) -> int:
    """Dimension of the multilinear quotient P_n / (P_n . T-ideal part).

    The certified level of content (1, ..., 1), built by ``_level`` from the
    quotients of its sub-contents.
    """
    return _level(_content_labels(_multilinear(n))).dim


def quotient_dim_multigraded(content) -> int:
    """Dimension of the component with the given positive multidegree, level by level.

    Built by ``_level`` from the certified quotients of its sub-contents, not
    in the absolutely free algebra; the content passes the same column guard
    as the brute force.
    """
    return _level(_content_labels(_component(content)[0])).dim


# ---------------------------------------------------------------------------
# the symmetric-group module

def oracle_multiplicities(n: int) -> Decomposition:
    """The S_n multiplicities m_lambda of the degree-n quotient, from level dimensions.

    Schur-Weyl duality gives dim A(mu) = sum over lambda of m_lambda * K_{lambda,mu}
    for every content mu of n, and the Kostka matrix K is unitriangular in
    dominance order, which the reverse-lexicographic order of
    ``generate_partitions`` extends: m_mu is dim A(mu) less the terms of the
    partitions before mu.  The dimensions are certified levels, so every
    m_mu is an exact integer; a negative one raises MultiplicityError.
    """
    n = len(_multilinear(n))  # before the partitions of n are listed
    terms: dict[Label, int] = {}
    for mu in generate_partitions(n):
        mult = _level(_content_labels(mu)).dim - sum(
            m * _kostka(label.partition, mu) for label, m in terms.items())
        if mult < 0:
            raise MultiplicityError(
                f"multiplicity of {mu} is {mult}, not a non-negative integer"
            )
        if mult:
            terms[Label(mu)] = mult
    return Decomposition._canonical(n, GROUP_SYMMETRIC, terms)


def quotient_character(n: int) -> CharacterVector:
    """Exact character of the quotient: the sum of m_lambda * chi_lambda."""
    return _character_of(oracle_multiplicities(n))


_DUMP_ROWS = 2048  # consequences per formatted chunk: bounds the text held at once


def write_consequence_matrix(n: int, stream) -> None:
    """Dump the degree-n consequence matrix as sparse triplets.

    First line: ``nrows ncols``; then one ``row col numerator/denominator``
    triple per nonzero, 0-based, each row's entries by column.  Column j is
    ``monomials_with_labels((1, ..., n))[j]``: by leaf sequence, then tree
    shape.  Row i is consequence i of the span; a vanishing one has no
    entries.  The rows are written ``_DUMP_ROWS`` at a time.
    """
    labels = _content_labels(_multilinear(n))
    cols, vanishing = _span(labels)
    stream.write(f"{len(cols)} {_shape_count(len(labels)) * len(_arrangements(labels))}\n")
    for lo in range(0, len(cols), _DUMP_ROWS):
        rows = lo + np.flatnonzero(~vanishing[lo:lo + _DUMP_ROWS])
        entries = np.stack([rows.repeat(4), *_sorted_terms(cols[rows])], axis=1)
        stream.write("%d %d %d/1\n" * len(entries) % tuple(entries.ravel().tolist()))
