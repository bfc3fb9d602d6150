"""Exact character theory of the symmetric group.

Conjugacy classes of S_n are cycle types, i.e. partitions of n, and are
always indexed in the canonical reverse-lexicographic order of
``generate_partitions(n)``.  Irreducible character values are computed with
the Murnaghan-Nakayama border-strip recursion on an abacus (James and
Kerber, *The Representation Theory of the Symmetric Group*, 1981, 2.7): a
partition of n is one int whose n set bits are its beta-numbers
lam_i + n - 1 - i, padded to n parts; removing a k-rim hook moves one bead
b down to the free position b - k, with sign (-1)^(beads strictly between).

Everything is exact: character values are Python ints, inner products are
``fractions.Fraction``.  The recursion memoizes on (bead mask, remaining
cycles) in an unbounded ``functools.cache``, which a long-lived process keeps:
after ``character_table(12)`` it holds 7332 entries.  The cache is only ever
appended to, so concurrent readers are safe.
"""

from fractions import Fraction
from functools import cache
from itertools import count, islice
from math import factorial
from typing import NamedTuple

from .decomposition import GROUP_ALTERNATING, GROUP_SYMMETRIC, Decomposition, Label, _check_tag
from .partitions import (
    Partition,
    _conjugate,
    _integers,
    _specht_dim,
    check_partition,
    generate_partitions,
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


def _beads(lam: Partition, n: int) -> int:
    """The bead mask of a partition lam of n: bit lam_i + n - 1 - i for each of n parts."""
    beads = (1 << (n - len(lam))) - 1  # the zero parts
    for i, p in enumerate(lam):
        beads |= 1 << (p + n - 1 - i)
    return beads


@cache
def _mn(beads: int, mu: CycleType) -> int:
    """chi at the cycles mu of the shape with bead mask ``beads``, mu summing to its size."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    total = 0
    # a bead b >= k whose position b - k is free
    movable = beads & ~(beads << k) & ~((1 << k) - 1)
    while movable:
        bead = movable & -movable
        movable ^= bead
        value = _mn(beads ^ bead ^ (bead >> k), rest)
        # the beads in [b - k, b), where b - k itself is free
        if (beads & (bead - 1) & -(bead >> k)).bit_count() & 1:
            total -= value
        else:
            total += value
    return total


def mn_character(lam: Partition, mu: CycleType) -> int:
    """Irreducible character value chi_lambda at cycle type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    n = sum(lam)
    if n != sum(mu):
        raise ValueError(f"degree mismatch: {lam} vs {mu}")
    # largest cycles first keeps the recursion shallow
    return _mn(_beads(lam, n), tuple(sorted(mu, reverse=True)))


def character_table(n: int) -> list[list[int]]:
    """Rows indexed by partitions, columns by cycle types, both canonical order."""
    (n,) = _integers((n,), "n")
    if not 1 <= n <= 12:
        raise ValueError("character_table is limited to 1 <= n <= 12")
    classes = generate_partitions(n)
    rows = (_beads(lam, n) for lam in classes)
    return [[_mn(beads, mu) for mu in classes] for beads in rows]


def character_table_json(n: int) -> dict:
    """Character table as a JSON-ready matrix with explicit row/column labels."""
    values = character_table(n)  # its degree guard runs before the partitions are listed
    return {
        "n": n,
        "row_partitions": [list(lam) for lam in generate_partitions(n)],
        "column_cycle_types": [list(mu) for mu in generate_partitions(n)],
        "values": values,
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
    beads = _beads(lam, n)
    return CharacterVector(n, tuple(_mn(beads, mu) for mu in generate_partitions(n)))


def _character_of(dec: Decomposition) -> CharacterVector:
    """The character of a symmetric-group decomposition: the sum of mult * chi_lambda."""
    values = [0] * len(generate_partitions(dec.n))
    for label, mult in dec.terms.items():
        for i, v in enumerate(irreducible_character(label.partition).values):
            values[i] += mult * v
    return CharacterVector(dec.n, tuple(values))


def inner_product(phi: CharacterVector, psi: CharacterVector) -> Fraction:
    """(1/n!) sum over classes of |class| * phi * psi, as an exact rational."""
    if phi.n != psi.n:
        raise ValueError(f"degree mismatch: {phi.n} vs {psi.n}")
    total = sum(
        class_size(mu) * a * b
        for mu, a, b in zip(generate_partitions(phi.n), phi.values, psi.values)
    )
    return Fraction(total, factorial(phi.n))


def _involution_counts():
    """Yield I(0), I(1), I(2), ... by I(n + 1) = I(n) + n I(n - 1)."""
    prev, cur = 0, 1  # I(-1) taken as 0, I(0)
    for n in count():
        yield cur
        prev, cur = cur, cur + n * prev


def involution_count(n: int) -> int:
    """Number of permutations squaring to the identity in S_n.

    I(n) = I(n-1) + (n-1) I(n-2); equals sum of d_lambda over lambda of n.
    """
    (n,) = _integers((n,), "n")
    if n < 0:
        raise ValueError("n must be non-negative")
    return next(islice(_involution_counts(), n, None))


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
    for label, mult in dec.terms.items():
        lam = label.partition
        partner = _conjugate(lam)
        if partner == lam:
            if halve:
                half, odd = divmod(mult, 2)
                if odd:
                    raise ValueError(
                        f"self-conjugate {lam} has odd multiplicity {mult}; cannot halve"
                    )
                mult = half
            terms[Label(lam, "+")] = mult
            terms[Label(lam, "-")] = mult
        else:  # a pair is booked at its lexicographically larger member
            merged = Label(max(lam, partner))
            terms[merged] = terms.get(merged, 0) + mult
    # a member booked before its larger partner (absent from dec) is out of
    # place: a stable sort by partition restores the canonical order
    ordered = sorted(terms.items(), key=lambda item: item[0].partition, reverse=True)
    return Decomposition._canonical(dec.n, GROUP_ALTERNATING, dict(ordered))


def alternating_label_dimension(label: Label) -> int:
    """Dimension of the alternating-group irreducible behind a label.

    d_lambda for a merged conjugate-pair label, d_lambda/2 for a split one;
    the tag is checked as the ``Decomposition`` constructor checks it.
    """
    lam = check_partition(label.partition)
    _check_tag(lam, label.sign)
    return _alternating_label_dimension(Label(lam, label.sign))


def _alternating_label_dimension(label: Label) -> int:
    d = _specht_dim(label.partition)
    return d // 2 if label.sign else d
