"""Ground-truth verification by brute force inside the absolutely free algebra.

A component of content (l_1, ..., l_r) is spanned by all planar binary trees
whose leaves read the label multiset 1^l_1 ... r^l_r.  The multilinear part
P_n is the component of content (1, ..., 1): n! * Catalan(n-1) monomials
with leaves labelled bijectively by 1..n.  The defining relations
(x,y,z) - (x,z,y) and (x,y,z) - (y,x,z) generate a T-ideal; its part in a
component is spanned by every substitution instance g(u1, u2, u3) of a
generator, embedded in a one-hole monomial context over the remaining labels.

One pipeline serves every content: one span enumerator, one row builder
(deduplicated rows in one canonical order), one elimination kernel and one
certified-rank routine.  The kernel computes an echelon form over GF(p)
(dense numpy rows, p a prime near 2^31); its length is the rank mod p.  For
total degree <= 5 the echelon form at DEFAULT_PRIME, once per content, is
back-substituted mod p on its free columns, lifted to symmetric residues and
checked exactly: every consequence row must be the integer combination of the
lifted rows at its pivot columns.  That proves rank over Q <= rank mod p, and
rank mod p <= rank over Q always holds, so the lifted rows are the unique
reduced echelon form over Q and their number is both ranks; an unlucky prime
raises RankMismatchError instead of a wrong answer.  Only another requested
prime is eliminated again.  Degree 6 (30240 multilinear monomials) is rank
mod p only.  The reduced rows give a rewriting map into a quotient basis and
from it traces of the symmetric-group action.  Everything is sequential and
deterministic: fixed generation, row and column order, no randomness, no
threads.

Monomials are nested tuples (a leaf is an int label, a product is a pair),
ordered by tree shape first (recursively by left-subtree size) and then by
the left-to-right label sequence.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, permutations, product
from math import gcd, isqrt

import numpy as np

from .characters import CharacterVector, inner_product, irreducible_character
from .decomposition import GROUP_SYMMETRIC, Decomposition, Label
from .partitions import generate_partitions

DEFAULT_PRIME = 2**31 - 1  # Mersenne; any prime below 2^31.5 keeps int64 exact

HOLE = 0  # reserved leaf label marking the slot of a one-hole context


class RankMismatchError(RuntimeError):
    """An unlucky prime.

    Modular and rational ranks disagree, two primes differ, or an echelon
    form mod p does not lift to one over Q.
    """


class MultiplicityError(RuntimeError):
    """A character inner product came out negative or non-integral."""


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
    return (shape_key(m), leaf_labels(m))


def _shift(template, k: int):
    if isinstance(template, int):
        return template + k
    return (_shift(template[0], k), _shift(template[1], k))


@cache
def _templates(n: int) -> tuple:
    """All tree shapes with n leaves, leaves numbered 0..n-1 left to right."""
    if n == 1:
        return (0,)
    out = []
    for left_size in range(1, n):
        for left in _templates(left_size):
            for right in _templates(n - left_size):
                out.append((left, _shift(right, left_size)))
    return tuple(out)


def _fill(template, labels):
    if isinstance(template, int):
        return labels[template]
    return (_fill(template[0], labels), _fill(template[1], labels))


@cache
def monomials_with_labels(labels: tuple[int, ...]) -> tuple:
    """All monomials whose leaf labels read the given multiset, canonical order."""
    n = len(labels)
    arrangements = sorted(set(permutations(labels)))
    return tuple(
        _fill(t, arr) for t in _templates(n) for arr in arrangements
    )


def enumerate_multilinear(n: int) -> list:
    """All n! * Catalan(n-1) multilinear monomials of degree n, canonical order."""
    if not 1 <= n <= 6:
        raise ValueError("enumerate_multilinear is limited to 1 <= n <= 6")
    return list(monomials_with_labels(tuple(range(1, n + 1))))


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

    g1 = (x,y,z) - (x,z,y) and g2 = (x,y,z) - (y,x,z), four +-1 terms each.
    """
    base = _associator(1, 2, 3)
    return (
        _difference(base, _associator(1, 3, 2)),
        _difference(base, _associator(2, 1, 3)),
    )


def _substitute(term, subs):
    if isinstance(term, int):
        return subs[term - 1]
    return (_substitute(term[0], subs), _substitute(term[1], subs))


def _plug(context, x):
    if isinstance(context, int):
        return x if context == HOLE else context
    return (_plug(context[0], x), _plug(context[1], x))


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


def _instances(blocks, context_labels) -> list[dict]:
    """All context-embedded substitution instances over the given label split."""
    out = []
    contexts = monomials_with_labels((HOLE,) + context_labels)
    mons = [monomials_with_labels(b) for b in blocks]
    for g in identity_generators():
        for subs in product(*mons):
            for ctx in contexts:
                elem: dict = {}
                for term, coeff in g.items():
                    m = _plug(ctx, _substitute(term, subs))
                    nv = elem.get(m, 0) + coeff
                    if nv:
                        elem[m] = nv
                    else:
                        del elem[m]
                out.append(elem)
    return out


def _span(labels: tuple) -> list[dict]:
    """Every consequence over a sorted label multiset, in generation order.

    Each split into three nonempty blocks and a (possibly empty) context, with
    monomials on the blocks and a one-hole context monomial, contributes one
    element per generator.  Redundant (even duplicate) elements are fine;
    the row builder absorbs them.
    """
    out: list[dict] = []
    for b1 in _sub_multisets(labels):
        rest1 = _without(labels, b1)
        for b2 in _sub_multisets(rest1):
            rest2 = _without(rest1, b2)
            for b3 in _sub_multisets(rest2):
                out.extend(_instances((b1, b2, b3), _without(rest2, b3)))
    return out


def _content_labels(content) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(content, start=1) for _ in range(c))


def consequence_span(n: int) -> list[dict]:
    """Deterministic spanning set of the multilinear degree-n T-ideal component.

    The same list as ``consequence_span_multigraded((1,) * n)``.
    """
    if not 2 <= n <= 6:
        raise ValueError("consequence_span is limited to 2 <= n <= 6")
    return _span(tuple(range(1, n + 1)))


def consequence_span_multigraded(content) -> list[dict]:
    """Spanning set of the T-ideal component with the given generator content."""
    return _span(_content_labels(tuple(int(c) for c in content)))


# ---------------------------------------------------------------------------
# linear algebra

def _consequence_rows(elements: list[dict], ambient) -> list[dict]:
    """Consequences as integer rows over the ambient columns, deduplicated.

    Rows equal up to sign and content collapse to one normalized key: no
    content, positive at the minimal column.  Keys come out in one canonical
    order, by descending last column and then by key: neither the rank nor
    the reduced echelon form depends on row order, but this one keeps the
    elimination sweeps small.
    """
    col_index = {m: i for i, m in enumerate(ambient)}
    keys = set()
    for elem in elements:
        if elem:
            row = {col_index[m]: c for m, c in elem.items()}
            content = gcd(*row.values())
            if row[min(row)] < 0:
                content = -content
            keys.add(tuple(sorted((k, v // content) for k, v in row.items())))
    return [dict(key) for key in sorted(keys, key=lambda key: (-key[-1][0], key))]


def _check_modulus(p: int) -> None:
    """Reject a modulus that is not a prime with (p-1)^2 inside int64."""
    if p <= 2 or (p - 1) ** 2 >= 2**63:
        raise ValueError("prime must exceed 2 and keep (p-1)^2 inside int64")
    if p % 2 == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        raise ValueError(f"modulus {p} is not prime")


_CHUNK_ROWS = 2048  # fixed block size; results do not depend on it


def _echelon(rows: list[dict], ncols: int, p: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Echelon form over GF(p): pivot column -> (tail columns, tail values).

    The one elimination kernel; the rank mod p is the length of its result.
    Rows are loaded a fixed-size block at a time into a dense column-major
    buffer and swept left to right: at each column the whole block is
    reduced against the cached pivot, or the first unreduced row of the
    block becomes the new pivot (stored sparsely, tail scaled to pivot 1).
    Each pivot sits at the leftmost column of its row, and a tail may still
    touch later pivot columns.  Sequential and deterministic; the block size
    only amortizes overhead.
    """
    _check_modulus(p)
    piv: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    pending = np.zeros(ncols, dtype=bool)
    for start in range(0, len(rows), _CHUNK_ROWS):
        block = rows[start:start + _CHUNK_ROWS]
        mat = np.zeros((len(block), ncols), dtype=np.int64, order="F")
        for i, row in enumerate(block):
            for c, v in row.items():
                mat[i, c] = v % p
                pending[c] = True
        cursor = 0
        while True:
            # fill-in only lands to the right, so a forward scan suffices
            step = int(pending[cursor:].argmax())
            c = cursor + step
            if not pending[c]:
                break
            pending[c] = False
            cursor = c
            col = mat[:, c]
            nz = np.flatnonzero(col)
            if not nz.size:
                continue
            entry = piv.get(c)
            if entry is None:
                r0 = int(nz[0])
                inv = pow(int(col[r0]), p - 2, p)
                prow = mat[r0]
                support = np.flatnonzero(prow)
                tail = support[support > c]
                tvals = (prow[tail] * inv) % p
                piv[c] = (tail, tvals)
                mat[r0, support] = 0  # freeze the pivot row out of the block
                nz = nz[1:]
            else:
                tail, tvals = entry
            if nz.size:
                if tail.size:
                    if nz.size == 1:
                        r = int(nz[0])
                        mat[r, tail] = (mat[r, tail] - int(col[r]) * tvals) % p
                    else:
                        sub = mat[np.ix_(nz, tail)]
                        sub -= np.outer(col[nz], tvals)
                        sub %= p
                        mat[np.ix_(nz, tail)] = sub
                    pending[tail] = True
                col[nz] = 0
    return piv


def _lift(echelon: dict, ncols: int, p: int) -> dict[int, dict[int, int]]:
    """The reduced echelon form mod p, lifted to symmetric residues.

    Back substitution runs from the rightmost pivot leftwards on the free
    (non-pivot) columns only: a tail entry at a pivot column is replaced by
    that pivot's already reduced row.  Each lifted row maps its pivot column
    to 1 and free columns to integers in (-p/2, p/2].
    """
    free = np.array([c for c in range(ncols) if c not in echelon], dtype=np.int64)
    slot = np.full(ncols, -1, dtype=np.int64)
    slot[free] = np.arange(free.size)
    reduced = np.zeros((ncols, free.size), dtype=np.int64)
    for c in sorted(echelon, reverse=True):
        tail, tvals = echelon[c]
        at = slot[tail]
        on_free = at >= 0
        row = reduced[c]
        row[at[on_free]] = tvals[on_free]
        on_pivot = ~on_free
        if on_pivot.any():
            # products are reduced before the sum, so int64 cannot overflow
            terms = (tvals[on_pivot][:, None] * reduced[tail[on_pivot]]) % p
            row -= terms.sum(axis=0)
            row %= p
    lifted = np.where(reduced > p // 2, reduced - p, reduced)
    return {
        c: {c: 1, **{int(free[j]): int(lifted[c, j]) for j in np.flatnonzero(lifted[c])}}
        for c in sorted(echelon)
    }


def _spans(reduced: dict[int, dict[int, int]], rows: list[dict]) -> bool:
    """Whether each row equals, over Z, the sum of row[c] * reduced[c] over pivots c.

    If so, the reduced rows span the rows over Q, so the rational rank is at
    most their number.
    """
    for row in rows:
        combination: dict[int, int] = {}
        for c, v in row.items():
            for k, x in reduced.get(c, {}).items():
                combination[k] = combination.get(k, 0) + v * x
        if {k: x for k, x in combination.items() if x} != row:
            return False
    return True


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


def _system(content: tuple[int, ...]) -> tuple:
    """(ambient, rows) of a component: its monomials and its consequence rows."""
    ambient = monomials_with_labels(_content_labels(content))
    return ambient, _consequence_rows(consequence_span_multigraded(content), ambient)


@cache
def _exact_system(content: tuple[int, ...]) -> tuple:
    """(ambient, rows, reduced pivots) of a component of total degree <= 5.

    The echelon form mod DEFAULT_PRIME is lifted and kept only if it spans
    every row over Z; its length is then the rank over Q and mod p.  Built
    once per content, shared read-only by rank and basis computations.
    """
    ambient, rows = _system(content)
    p = DEFAULT_PRIME
    pivots = _lift(_echelon(rows, len(ambient), p), len(ambient), p)
    if not _spans(pivots, rows):
        raise RankMismatchError(f"the echelon form mod {p} does not lift to one over Q")
    return ambient, rows, pivots


@cache
def quotient_basis(n: int) -> QuotientBasis:
    """Exact reduced row echelon data for the degree-n multilinear quotient."""
    if not 2 <= n <= 5:
        raise ValueError("quotient_basis is limited to 2 <= n <= 5")
    ambient, _, pivots = _exact_system((1,) * n)
    basis = tuple(m for i, m in enumerate(ambient) if i not in pivots)
    rewrite_map = {}
    for c, row in pivots.items():
        rewrite_map[ambient[c]] = {ambient[k]: -v for k, v in row.items() if k != c}
    return QuotientBasis(n=n, monomials=basis, rewrite_map=rewrite_map)


def _certified_dim(content: tuple[int, ...], prime, second_prime) -> int:
    """Quotient dimension of one component from its rank modulo a prime.

    Up to total degree 5 the exact system's length is the rank mod
    DEFAULT_PRIME; another prime is eliminated and must give that rank.  At
    degree 6 the modular rank stands alone.  ``second_prime`` must agree.
    """
    primes = [p for p in (prime or DEFAULT_PRIME, second_prime) if p]
    for p in primes:  # a bad modulus fails before any elimination work
        _check_modulus(p)
    exact = sum(content) <= 5
    ambient, rows, pivots = _exact_system(content) if exact else (*_system(content), None)
    ranks = [len(pivots) if exact and p == DEFAULT_PRIME else len(_echelon(rows, len(ambient), p))
             for p in primes]
    rank_p = ranks[0]
    if ranks[-1] != rank_p:
        raise RankMismatchError(f"rank {rank_p} mod {primes[0]} but {ranks[-1]} mod {primes[-1]}")
    if exact and len(pivots) != rank_p:
        raise RankMismatchError(
            f"modular rank {rank_p} != rational rank {len(pivots)}; retry with a "
            "different prime"
        )
    return len(ambient) - rank_p


def quotient_dim(n: int, prime: int | None = None, second_prime: int | None = None) -> int:
    """Dimension of the multilinear quotient P_n / (P_n . T-ideal part).

    The multigraded component of content (1, ..., 1).  Modular elimination,
    certified for n <= 5 by the exact system (a disagreement raises
    RankMismatchError).  At n = 6 the result rests on the prime-field rank
    alone (pass ``second_prime`` to cross-check two primes).
    """
    if not 2 <= n <= 6:
        raise ValueError("quotient_dim is limited to 2 <= n <= 6")
    return _certified_dim((1,) * n, prime, second_prime)


def quotient_dim_multigraded(content, prime: int | None = None) -> int:
    """Dimension of the component with the given positive multidegree.

    Rationally certified for total degree <= 5; total degree 6 runs the
    modular path only, like the multilinear degree-6 case.
    """
    content = tuple(int(c) for c in content)
    if not content or any(c < 1 for c in content):
        raise ValueError(f"multidegree parts must be positive, got {content}")
    if sum(content) > 6:
        raise ValueError("quotient_dim_multigraded is limited to total degree <= 6")
    return _certified_dim(content, prime, None)


# ---------------------------------------------------------------------------
# characters of the quotient

def class_representative(mu) -> tuple[int, ...]:
    """One permutation of cycle type mu: consecutive cycles on 1..n."""
    n = sum(mu)
    images = list(range(n + 1))
    start = 1
    for k in mu:
        for i in range(start, start + k - 1):
            images[i] = i + 1
        images[start + k - 1] = start
        start += k
    return tuple(images[1:])


def relabel(monomial, images: tuple[int, ...]):
    """Apply a permutation (tuple of images of 1..n) to the leaf labels."""
    if isinstance(monomial, int):
        return images[monomial - 1]
    return (relabel(monomial[0], images), relabel(monomial[1], images))


def permutation_trace(n: int, images: tuple[int, ...]) -> int:
    """Trace of a permutation acting on the degree-n quotient."""
    qb = quotient_basis(n)
    return sum(qb.rewrite(relabel(b, images)).get(b, 0) for b in qb.monomials)


def quotient_character(n: int) -> CharacterVector:
    """Exact character of the quotient, one trace per cycle type."""
    if not 2 <= n <= 5:
        raise ValueError("quotient_character is limited to 2 <= n <= 5")
    return CharacterVector(n, tuple(
        permutation_trace(n, class_representative(mu)) for mu in generate_partitions(n)
    ))


def oracle_multiplicities(n: int) -> Decomposition:
    """Decomposition recovered from the quotient character by inner products."""
    if not 2 <= n <= 5:
        raise ValueError("oracle_multiplicities is limited to 2 <= n <= 5")
    chi = quotient_character(n)
    terms: dict[Label, int] = {}
    for lam in generate_partitions(n):
        mult = inner_product(chi, irreducible_character(lam))
        if mult.denominator != 1 or mult < 0:
            raise MultiplicityError(
                f"multiplicity of {lam} is {mult}, not a non-negative integer"
            )
        if mult:
            terms[Label(lam)] = int(mult)
    return Decomposition(n, GROUP_SYMMETRIC, terms)


def write_consequence_matrix(n: int, stream) -> None:
    """Dump the degree-n consequence matrix as sparse triplets.

    First line: ``nrows ncols``; then one ``row col numerator/denominator``
    triple per nonzero, rows and columns 0-based in canonical order.
    """
    ambient = enumerate_multilinear(n)
    col_index = {m: i for i, m in enumerate(ambient)}
    elements = consequence_span(n)
    stream.write(f"{len(elements)} {len(ambient)}\n")
    for i, elem in enumerate(elements):
        for m, coeff in sorted(elem.items(), key=lambda kv: col_index[kv[0]]):
            stream.write(f"{i} {col_index[m]} {coeff}/1\n")
