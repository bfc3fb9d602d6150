"""Dimensions and group-module decompositions of free assosymmetric algebras.

An assosymmetric algebra satisfies (a,b,c) = (a,c,b) = (b,a,c), where
(x,y,z) = (xy)z - x(yz).  The free algebra has a basis of two kinds of
words: all left-normed products, plus words made of a non-decreasing head
applied to an iterated bracket of a non-decreasing tail of length >= 3.
Counting those words gives closed dimension formulas; the multilinear part
P_n decomposes over S_n as one copy of the regular module plus induced
trivial modules producing two-row Specht corrections.  This module turns
all of that into executable, exact arithmetic.
"""

from itertools import combinations_with_replacement, product
from math import factorial

from .characters import (
    CharacterVector,
    _merge_conjugate_pairs,
    involution_count,
    irreducible_character,
    restrict_to_alternating,
)
from .decomposition import GROUP_GENERAL_LINEAR, GROUP_SYMMETRIC, Decomposition, Label
from .partitions import _specht_dim, binomial, generate_partitions, multinomial


def two_row_multiplicity(n: int, lam2: int) -> int:
    """Multiplicity of the two-row module S^(n-lam2, lam2) beyond the regular part.

    Counts the split positions k in 0..n-3 whose induced module contains the
    two-row shape, i.e. those with lam2 <= min(k, n-k).  Closed form:
    max(0, n-2-lam2) for lam2 <= 3 and max(0, n+1-2*lam2) for lam2 >= 4.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= 2 * lam2 <= n:
        raise ValueError(f"need 0 <= lam2 <= n/2, got lam2={lam2}, n={n}")
    if lam2 <= 3:
        return max(0, n - 2 - lam2)
    return max(0, n + 1 - 2 * lam2)


def sn_decomposition(n: int) -> Decomposition:
    """S_n-decomposition of the multilinear part P_n.

    Every partition contributes d_lambda copies (the regular module); shapes
    with at most two rows pick up the extra two-row multiplicity.
    """
    if n < 1:
        raise ValueError("n must be positive")
    terms: dict[Label, int] = {}
    for lam in generate_partitions(n):
        mult = _specht_dim(lam)
        if len(lam) <= 2:
            mult += two_row_multiplicity(n, lam[1] if len(lam) == 2 else 0)
        if mult:
            terms[Label(lam)] = mult
    return Decomposition(n, GROUP_SYMMETRIC, terms)


def an_decomposition(n: int) -> Decomposition:
    """A_n-decomposition of P_n, with conjugate pairs merged and splits halved."""
    if n < 2:
        raise ValueError("alternating decomposition needs n >= 2")
    return restrict_to_alternating(sn_decomposition(n))


def gl_decomposition(n: int, m: int) -> Decomposition:
    """GL(V)-decomposition of the degree-n homogeneous part, dim V = m.

    Same multiplicities as the S_n case; labels with more than m rows index
    zero-dimensional Weyl modules and are dropped.
    """
    if m < 1:
        raise ValueError("m must be positive")
    sn = sn_decomposition(n)
    terms = {label: mult for label, mult in sn.terms.items() if len(label.partition) <= m}
    return Decomposition(n, GROUP_GENERAL_LINEAR, terms)


def an_gl_decomposition(n: int, m: int) -> Decomposition:
    """Symbolic multiplicity table of the degree-n part over the A_n-Schur algebra.

    Conjugate pairs of gl_decomposition(n, m) merge with multiplicities added
    (2*d_lambda from the regular part plus two-row terms); a self-conjugate
    label keeps its full multiplicity on each of the '+' and '-' tags (the
    regular part contributes 2*(d_lambda/2) = d_lambda to each).  Unlike
    an_decomposition, nothing is halved here.  Dimensions of the underlying
    A-Weyl modules are not computed.
    """
    if n < 2:
        raise ValueError("alternating decomposition needs n >= 2")
    return _merge_conjugate_pairs(gl_decomposition(n, m), halve=False)


def codimension(n: int) -> int:
    """dim of the multilinear degree-n part: n! + 2^n - C(n+1, 2) - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return factorial(n) + 2**n - binomial(n + 1, 2) - 1


def graded_dim(n: int, r: int) -> int:
    """dim of the degree-n homogeneous part on r free generators.

    r^n left-normed words plus the count of head/tail words, the latter
    collapsed into binomials (taken as 0 on negative lower index, which
    makes the n = 1, 2 edge terms vanish correctly).
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    return (
        r**n
        + binomial(n + 2 * r - 1, n)
        - binomial(r + 1, 2) * binomial(n + r - 3, n - 2)
        - r * binomial(n + r - 2, n - 1)
        - binomial(n + r - 1, n)
    )


def multigraded_dim(l) -> int:
    """dim of the component where generator i appears exactly l_i >= 1 times.

    multinomial(l) + prod(l_i + 1) - C(r+1, 2) - r - 1 + w, with w the number
    of 1's among the l_i.  Zero parts are rejected: the formula is only valid
    for generators that actually occur, so drop absent ones before calling.
    """
    l = tuple(int(x) for x in l)
    if not l:
        raise ValueError("multidegree must be non-empty")
    if any(x < 1 for x in l):
        raise ValueError(f"zero part in multidegree {l}; drop absent generators first")
    r = len(l)
    prod_l = 1
    for x in l:
        prod_l *= x + 1
    w = sum(1 for x in l if x == 1)
    return multinomial(l) + prod_l - binomial(r + 1, 2) - r - 1 + w


def cocharacter(n: int) -> CharacterVector:
    """S_n-character of P_n, exact values in canonical cycle-type order."""
    if not 1 <= n <= 10:
        raise ValueError("cocharacter is limited to 1 <= n <= 10 (character table guard)")
    values = [0] * len(generate_partitions(n))
    for label, mult in sn_decomposition(n).terms.items():
        row = irreducible_character(label.partition)
        for i, v in enumerate(row.values):
            values[i] += mult * v
    return CharacterVector(n, tuple(values))


def colength(n: int) -> int:
    """Number of irreducible constituents of P_n, counted with multiplicity.

    delta_{n,3} + inv(S_n) for n <= 3; for n = 2k >= 4 it is
    k^2 + 2k - 5 + inv(S_n), and for n = 2k + 1 >= 5 it is
    k^2 + 3k - 4 + inv(S_n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    inv = involution_count(n)
    if n <= 3:
        return (1 if n == 3 else 0) + inv
    k = n // 2
    if n % 2 == 0:
        return k * k + 2 * k - 5 + inv
    return k * k + 3 * k - 4 + inv


def basis_count_direct(n: int, r: int) -> int:
    """Count the two kinds of basis words of degree n on r generators, explicitly.

    First kind: all r^n left-normed words.  Second kind: pairs of a
    non-decreasing head of length n-k and a non-decreasing tail of length
    k >= 3.  Must agree with graded_dim(n, r); guarded to n <= 8, r <= 4.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    if n > 8 or r > 4:
        raise ValueError("basis_count_direct is limited to n <= 8, r <= 4")
    count = sum(1 for _ in product(range(r), repeat=n))
    for k in range(3, n + 1):
        heads = combinations_with_replacement(range(r), n - k)
        for _head in heads:
            for _tail in combinations_with_replacement(range(r), k):
                count += 1
    return count
