"""Integer partitions, Young diagrams and the dimension formulas built on them.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the (valid) partition of 0.  Both dimensions of a shape come from its
beta-numbers (first-column hook lengths): d_lambda by Frobenius' formula and
the GL_m dimension by Weyl's.  All counts are exact Python integers and every
function is pure.  Public functions validate their partition argument once;
the underscored helpers they call take it as already validated.
"""

from functools import cache, lru_cache
from itertools import accumulate, product
from math import comb, factorial, prod
from numbers import Number
from operator import ge

Partition = tuple[int, ...]


def _integers(parts, what: str) -> tuple[int, ...]:
    """The parts as ints; ValueError unless an iterable of numbers p, no bool, with int(p) == p."""
    try:
        parts = tuple(parts)
        types = set(map(type, parts))
        # numpy's bool is no numbers.Number, and Python's bool is an int
        if bool not in types and all(issubclass(t, Number) for t in types):
            ints = tuple(map(int, parts))
            if ints == parts:
                return ints
    except (TypeError, ValueError, OverflowError):  # no iterable; a complex, NaN or infinite part
        pass
    raise ValueError(f"{what} must be integers, got {parts}")


def check_partition(lam) -> Partition:
    """Validate and normalize a partition given as any iterable of integral parts."""
    lam = _integers(lam, "partition parts")
    if lam and min(lam) < 1:
        raise ValueError(f"partition parts must be positive, got {lam}")
    if not all(map(ge, lam, lam[1:])):
        raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


@cache
def generate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order: (n) first, (1^n) last.

    This is the canonical index order used by every table and decomposition
    in the package.  Each partition follows from the one before (Zoghbi and
    Stojmenovic's ZS1): its last part r + 1 > 1 drops to r, and the unit it
    loses joins the trailing 1's, regrouped into parts r and one remainder.
    """
    (n,) = _integers((n,), "n")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ((),)
    parts = [n] + [1] * (n - 1)
    length, h = 1, 0  # parts[:length] is the partition, parts[h] its last part > 1
    out = [(n,)]
    while parts[0] != 1:
        if parts[h] == 2:
            parts[h] = 1
            length += 1
            h -= 1
        else:
            r = parts[h] - 1
            t = length - h  # the unit taken off plus the trailing 1's, regrouped
            parts[h] = r
            while t >= r:
                h += 1
                parts[h] = r
                t -= r
            if t == 0:
                length = h + 1
            else:
                length = h + 2
                if t > 1:
                    h += 1
                    parts[h] = t
        out.append(tuple(parts[:length]))
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram (rows become columns)."""
    return _conjugate(check_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    counts = [0] * lam[0]  # counts[j]: the number of parts equal to j + 1
    for p in lam:
        counts[p - 1] += 1
    # part i of the conjugate counts the parts > i, a suffix sum of counts
    return tuple(accumulate(reversed(counts)))[::-1]


def is_self_conjugate(lam: Partition) -> bool:
    lam = check_partition(lam)
    return lam == _conjugate(lam)


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook length of every cell, row by row."""
    lam = check_partition(lam)
    conj = _conjugate(lam)
    return [[p - j + conj[j] - i - 1 for j in range(p)] for i, p in enumerate(lam)]


def _beta(lam: Partition, rows: int) -> list[int]:
    """Beta-numbers lam_i + rows - 1 - i of lam padded with zeros to ``rows`` rows."""
    return [p + rows - 1 - i for i, p in enumerate(lam + (0,) * (rows - len(lam)))]


def _over_hooks(lam: Partition, num: int) -> int:
    """num over the hook product of lam, prod b_i! / prod_{i<j} (b_i - b_j) by _beta."""
    beta = _beta(lam, len(lam))
    den = 1
    for i, b in enumerate(beta):
        den *= factorial(b)
        for c in beta[i + 1:]:
            num *= b - c
    d, rem = divmod(num, den)
    assert rem == 0
    return d


def specht_dim(lam: Partition) -> int:
    """Number d_lambda of standard Young tableaux of shape lam (Frobenius' formula).

    This is the dimension of the irreducible S_n-module labelled by lam.  The
    empty partition counts 1 by convention.
    """
    return _specht_dim(check_partition(lam))


@lru_cache(maxsize=1 << 17)  # more than p(47) shapes: every table to n = 47 fits
def _specht_dim(lam: Partition) -> int:
    return _over_hooks(lam, factorial(sum(lam)))


def syt_count_bruteforce(lam: Partition) -> int:
    """Count standard Young tableaux by exhaustively walking removal chains.

    Each tableau corresponds to one maximal chain of corner removals down to
    the empty shape, and each chain is visited once, with no memoization, so
    this is independent of the hook length formula.  Guarded to sum(lam) <= 12.
    """
    lam = check_partition(lam)
    if sum(lam) > 12:
        raise ValueError("syt_count_bruteforce is limited to partitions of n <= 12")

    def count(shape: Partition) -> int:
        if not shape:
            return 1
        total = 0
        for i in range(len(shape)):
            # cell (i, shape[i]-1) is a removable corner
            if i + 1 == len(shape) or shape[i] > shape[i + 1]:
                smaller = shape[:i] + (shape[i] - 1,) + shape[i + 1:]
                if smaller[-1] == 0:
                    smaller = smaller[:-1]
                total += count(smaller)
        return total

    return count(lam)


def weyl_dim(lam: Partition, m: int) -> int:
    """Dimension of the irreducible polynomial GL_m-module of highest weight lam.

    Weyl's formula prod_{i<j} (b_i - b_j) / prod_{i<j} (j - i) over the
    beta-numbers b = _beta(lam, m).  Cancelling the pairs of zero rows leaves
    prod over cells (i, j) of (m + j - i) over the hook product, whose cost
    does not grow with m.  Returns 0 when the diagram has more than m rows.
    """
    lam = check_partition(lam)
    (m,) = _integers((m,), "m")
    if m < 1:
        raise ValueError("m must be positive")
    if len(lam) > m:
        return 0
    return _over_hooks(lam, prod(m + j - i for i, p in enumerate(lam) for j in range(p)))


def two_row_partitions(n: int) -> list[Partition]:
    """Partitions of n with at most two rows, by decreasing first part.

    The second part ranges over 0..n//2; the 0 case is returned as the
    one-row partition (n,) so its term merges with the one-row label.
    """
    (n,) = _integers((n,), "n")
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for lam2 in range(n // 2 + 1):
        out.append((n,) if lam2 == 0 else (n - lam2, lam2))
    return out


@cache
def _kostka(lam: Partition, weight: Partition) -> int:
    """K_{lam,weight}: the semistandard tableaux of shape lam and content weight.

    The cells holding the largest entry form a horizontal strip: peel it off,
    over every shape nu that interlaces lam (lam[i+1] <= nu[i] <= lam[i]).
    """
    if not weight:
        return int(not lam)
    *rest, last = weight
    bounds = zip(lam, (*lam[1:], 0))
    return sum(
        _kostka(tuple(x for x in nu if x), tuple(rest))
        for nu in product(*(range(low, high + 1) for high, low in bounds))
        if sum(lam) - sum(nu) == last
    )


def multinomial(ls) -> int:
    """(sum ls)! / prod(l_i!) for non-negative integers ls."""
    ls = _integers(ls, "multinomial arguments")
    if any(l < 0 for l in ls):
        raise ValueError("multinomial arguments must be non-negative")
    result = factorial(sum(ls))
    for l in ls:
        result //= factorial(l)
    return result


def binomial(a: int, b: int) -> int:
    """C(a, b), taken to be 0 whenever b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)
