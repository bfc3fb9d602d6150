"""Exact character theory of the symmetric group.

Conjugacy classes of S_n are cycle types, i.e. partitions of n, and are
always indexed in the canonical reverse-lexicographic order of
``generate_partitions(n)``.  Irreducible character values are computed with
the Murnaghan-Nakayama border-strip recursion, carried out on beta-numbers
(first-column hook lengths): removing a strip of length k replaces a beta
number b by b - k, with sign (-1)^(number of beta numbers jumped over).

Everything is exact: character values are Python ints, inner products are
``fractions.Fraction``.  The recursion memoizes on (shape, remaining cycles);
the cache is only ever appended to, so concurrent readers are safe.
"""

from fractions import Fraction
from functools import cache
from math import factorial
from typing import NamedTuple

from .decomposition import GROUP_ALTERNATING, GROUP_SYMMETRIC, Decomposition, Label
from .partitions import (
    Partition,
    _beta,
    _conjugate,
    check_partition,
    generate_partitions,
    specht_dim,
)

CycleType = Partition


def class_size(mu: CycleType) -> int:
    """Number of permutations in S_n with cycle type mu: n! / prod(i^m_i m_i!)."""
    mu = check_partition(mu)
    n = sum(mu)
    z = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    return factorial(n) // z


@cache
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = _beta(lam, ell)
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
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def mn_character(lam: Partition, mu: CycleType) -> int:
    """Irreducible character value chi_lambda at cycle type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"degree mismatch: {lam} vs {mu}")
    # largest cycles first keeps the recursion shallow
    return _mn(lam, tuple(sorted(mu, reverse=True)))


def character_table(n: int) -> list[list[int]]:
    """Rows indexed by partitions, columns by cycle types, both canonical order."""
    if not 1 <= n <= 12:
        raise ValueError("character_table is limited to 1 <= n <= 12")
    classes = generate_partitions(n)
    return [[_mn(lam, mu) for mu in classes] for lam in classes]


def character_table_json(n: int) -> dict:
    """Character table as a JSON-ready matrix with explicit row/column labels."""
    return {
        "n": n,
        "row_partitions": [list(lam) for lam in generate_partitions(n)],
        "column_cycle_types": [list(mu) for mu in generate_partitions(n)],
        "values": character_table(n),
    }


class CharacterVector(NamedTuple):
    """A class function on S_n, values in canonical cycle-type order."""

    n: int
    values: tuple[int, ...]

    def value_at(self, mu: CycleType) -> int:
        mu = check_partition(mu)
        return self.values[generate_partitions(self.n).index(mu)]

    @property
    def classes(self) -> tuple[CycleType, ...]:
        return generate_partitions(self.n)


def irreducible_character(lam: Partition) -> CharacterVector:
    lam = check_partition(lam)
    n = sum(lam)
    return CharacterVector(n, tuple(_mn(lam, mu) for mu in generate_partitions(n)))


def inner_product(phi: CharacterVector, psi: CharacterVector) -> Fraction:
    """(1/n!) sum over classes of |class| * phi * psi, as an exact rational."""
    if phi.n != psi.n:
        raise ValueError(f"degree mismatch: {phi.n} vs {psi.n}")
    total = sum(
        class_size(mu) * a * b
        for mu, a, b in zip(generate_partitions(phi.n), phi.values, psi.values)
    )
    return Fraction(total, factorial(phi.n))


def involution_count(n: int) -> int:
    """Number of permutations squaring to the identity in S_n.

    I(n) = I(n-1) + (n-1) I(n-2); equals sum of d_lambda over lambda of n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    prev, cur = 1, 1
    for m in range(2, n + 1):
        prev, cur = cur, cur + (m - 1) * prev
    return cur


def restrict_to_alternating(dec: Decomposition) -> Decomposition:
    """Restrict a symmetric-group decomposition to the alternating group.

    Conjugate pairs {lam, lam'} with lam != lam' become isomorphic on
    restriction and merge into one label (the lexicographically larger
    partition) with the multiplicities added.  A self-conjugate lam splits
    into '+' and '-' halves of dimension d_lambda/2 each; the convention
    here books half the multiplicity on each tag, so each printed unit of
    lam+ together with its lam- partner carries the full d_lambda of
    content.  Odd multiplicities cannot be halved and are rejected.
    """
    if dec.group != GROUP_SYMMETRIC:
        raise ValueError("can only restrict a symmetric-group decomposition")
    if dec.n < 2:
        raise ValueError("restriction needs degree n >= 2")
    for label in dec.terms:
        if label.sign:
            raise ValueError("input already carries split tags")

    return _merge_conjugate_pairs(dec, halve=True)


def _merge_conjugate_pairs(dec: Decomposition, halve: bool) -> Decomposition:
    """Alternating-group labels from the untagged labels of ``dec``.

    A conjugate pair merges into its lexicographically larger member with
    the multiplicities added.  A self-conjugate label books its multiplicity
    on each of the '+' and '-' tags, halved when ``halve`` is set (an odd
    multiplicity then raises ValueError).
    """
    terms: dict[Label, int] = {}
    for lam in generate_partitions(dec.n):
        mult = dec.terms.get(Label(lam), 0)
        partner = _conjugate(lam)
        if partner == lam:
            if mult == 0:
                continue
            if halve:
                half, odd = divmod(mult, 2)
                if odd:
                    raise ValueError(
                        f"self-conjugate {lam} has odd multiplicity {mult}; cannot halve"
                    )
                mult = half
            terms[Label(lam, "+")] = mult
            terms[Label(lam, "-")] = mult
        elif lam > partner:  # a pair is handled at its lexicographically larger member
            merged = mult + dec.terms.get(Label(partner), 0)
            if merged:
                terms[Label(lam)] = merged
    return Decomposition(dec.n, GROUP_ALTERNATING, terms)


def alternating_label_dimension(label: Label) -> int:
    """Dimension of the alternating-group irreducible behind a label.

    d_lambda for a merged conjugate-pair label, d_lambda/2 for a split one.
    """
    d = specht_dim(label.partition)
    return d // 2 if label.sign else d
