"""Reference values computed apart from the package, and the output checks.

Nothing here imports ``assosym``.  Every number comes from this file's own
code: the codimension and colength formulas, the span row count, basis words
counted one content vector at a time, hook lengths, the Murnaghan-Nakayama
rule by removing rim hooks from the Young diagram (the package walks
beta-numbers instead), and the paper's S_3..S_5 multiplicity tables.

``check(op, path)`` returns None when the output in ``path`` is right, or a
one-line reason when it is not.
"""

import csv
import io
import json
import re
from functools import cache
from itertools import product
from math import comb, factorial, prod

# The paper's tables: multiplicities of P_n over S_n.
PAPER_SN = {
    3: {(3,): 2, (2, 1): 2, (1, 1, 1): 1},
    4: {(4,): 3, (3, 1): 4, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1},
    5: {(5,): 4, (4, 1): 6, (3, 2): 6, (3, 1, 1): 6, (2, 2, 1): 5,
        (2, 1, 1, 1): 4, (1, 1, 1, 1, 1): 1},
}


# ---------------------------------------------------------------------------
# partitions and hook lengths

@cache
def partitions(n: int) -> tuple:
    """Partitions of n, (n) first and (1^n) last (reverse lexicographic)."""
    out = []
    stack = [((), n, n)]
    while stack:
        head, rest, largest = stack.pop()
        if rest == 0:
            out.append(head)
            continue
        # push smaller parts first so the largest part is expanded first
        for part in range(1, min(rest, largest) + 1):
            stack.append((head + (part,), rest - part, part))
    return tuple(out)


def conjugate(lam: tuple) -> tuple:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def _hooks(lam: tuple):
    cols = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            yield i, j, (row - j - 1) + (cols[j] - i - 1) + 1


def hook_dim(lam: tuple) -> int:
    """d_lambda, the number of standard tableaux, by the hook length formula."""
    return factorial(sum(lam)) // prod(h for _, _, h in _hooks(lam))


def weyl_dim(lam: tuple, m: int) -> int:
    """GL_m-module dimension by the hook-content formula (0 beyond m rows)."""
    if len(lam) > m:
        return 0
    num = prod(m + j - i for i, j, _ in _hooks(lam))
    return num // prod(h for _, _, h in _hooks(lam))


# ---------------------------------------------------------------------------
# characters: Murnaghan-Nakayama on the diagram

def _remove_rim_hook(lam: tuple, i: int, j: int) -> tuple[tuple, int]:
    """Partition left after removing the rim hook of cell (i, j), and its height."""
    leg = conjugate(lam)[j] - i - 1
    rows = list(lam)
    for r in range(i, i + leg):
        rows[r] = lam[r + 1] - 1
    rows[i + leg] = j
    return tuple(p for p in rows if p), leg


@cache
def character(lam: tuple, mu: tuple) -> int:
    """chi_lambda at cycle type mu, stripping rim hooks of length mu[-1] first."""
    if not mu:
        return 1
    k, rest = mu[-1], mu[:-1]
    total = 0
    for i, j, h in _hooks(lam):
        if h == k:
            smaller, height = _remove_rim_hook(lam, i, j)
            total += (-1) ** height * character(smaller, rest)
    return total


# ---------------------------------------------------------------------------
# dimensions and sequences

def codimension(n: int) -> int:
    return factorial(n) + 2**n - comb(n + 1, 2) - 1


def involutions(upto: int) -> list[int]:
    """I(0..upto), with I(n) = I(n-1) + (n-1) I(n-2)."""
    out = [1, 1]
    for n in range(2, upto + 1):
        out.append(out[n - 1] + (n - 1) * out[n - 2])
    return out[: upto + 1]


def colength(n: int, inv: list[int]) -> int:
    return inv[n] + sum(min(k, n - k) + 1 for k in range(n - 2))


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def planar_monomials(m: int) -> int:
    """M(m) = m! * Catalan(m-1): multilinear monomials of degree m."""
    return factorial(m) * catalan(m - 1)


def span_rows(n: int) -> int:
    """Elements of the consequence span: 2 generators, three blocks, a context."""
    total = 0
    for a in range(1, n + 1):
        for b in range(1, n - a + 1):
            for c in range(1, n - a - b + 1):
                k = n - a - b - c
                ways = factorial(n) // (
                    factorial(a) * factorial(b) * factorial(c) * factorial(k))
                total += ways * prod(planar_monomials(x) for x in (a, b, c, k + 1))
    return 2 * total


def basis_word_count(content: tuple) -> int:
    """Basis words of the given content: left-normed words, plus every split into
    a non-decreasing head and a non-decreasing tail of length >= 3."""
    left_normed = factorial(sum(content)) // prod(factorial(c) for c in content)
    head_tail = sum(
        1 for tail in product(*(range(c + 1) for c in content)) if sum(tail) >= 3
    )
    return left_normed + head_tail


def multigraded_formula(content: tuple) -> int:
    r = len(content)
    w = sum(1 for c in content if c == 1)
    return (factorial(sum(content)) // prod(factorial(c) for c in content)
            + prod(c + 1 for c in content) - comb(r + 1, 2) - r - 1 + w)


def sn_multiplicities(n: int) -> dict:
    """P_n over S_n: the regular module, plus one two-row term for every split
    position k in 0..n-3 with lambda_2 <= min(k, n-k)."""
    out = {}
    for lam in partitions(n):
        mult = hook_dim(lam)
        if len(lam) <= 2:
            lam2 = lam[1] if len(lam) == 2 else 0
            mult += sum(1 for k in range(n - 2) if lam2 <= min(k, n - k))
        out[lam] = mult
    return out


def _self_test() -> None:
    for n, table in PAPER_SN.items():
        assert sn_multiplicities(n) == table, n
        assert sum(m * hook_dim(lam) for lam, m in table.items()) == codimension(n)
    assert [colength(n, involutions(5)) for n in range(1, 6)] == [1, 2, 5, 13, 32]
    assert [span_rows(n) for n in (4, 5, 6)] == [240, 5040, 120960]
    assert all(basis_word_count((1,) * n) == codimension(n) for n in range(1, 9))


_self_test()


# ---------------------------------------------------------------------------
# checks of each operation's output

_TERM = re.compile(r"(\d+)\*S\^\{\(([\d,]+)\)\}")


def _parse_render(text: str) -> list[tuple]:
    """[(partition, multiplicity), ...] in the order a rendered sum lists them."""
    return [(tuple(int(p) for p in lam.split(",")), int(mult))
            for mult, lam in _TERM.findall(text)]


def _expect(actual, expected, what: str):
    if actual == expected:
        return None
    if isinstance(actual, list) and isinstance(expected, list):
        if len(actual) != len(expected):
            return f"{what}: {len(actual)} entries, expected {len(expected)}"
        i = next(i for i, (a, e) in enumerate(zip(actual, expected)) if a != e)
        actual, expected, what = actual[i], expected[i], f"{what}, entry {i}"
    return f"{what}: got {repr(actual)[:100]}, expected {repr(expected)[:100]}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _check_verify(argv: list[str], text: str):
    report = json.loads(text)
    checks = report["checks"]
    if "--n" in argv:
        n = int(argv[argv.index("--n") + 1])
        want_dim = codimension(n)
        table = PAPER_SN.get(n) or {lam: hook_dim(lam) for lam in partitions(n)}
        table = list(table.items())
        reasons = [
            _expect(len(checks), 2 if n <= 5 else 1, "number of checks"),
            _expect(checks[0]["actual"], str(want_dim), "quotient dimension"),
            _expect(checks[0]["expected"], str(want_dim), "formula dimension"),
        ]
        if n <= 5:
            reasons += [
                _expect(_parse_render(checks[1]["actual"]), table, "oracle multiplicities"),
                _expect(_parse_render(checks[1]["expected"]), table, "formula multiplicities"),
            ]
    else:
        content = tuple(int(c) for c in argv[argv.index("--multidegree") + 1].split(","))
        want_dim = multigraded_formula(content)
        reasons = [
            _expect(want_dim, basis_word_count(content), "reference formula vs word count"),
            _expect(len(checks), 1, "number of checks"),
            _expect(checks[0]["actual"], str(want_dim), "multigraded dimension"),
            _expect(checks[0]["expected"], str(want_dim), "formula dimension"),
        ]
    reasons += [
        _expect([c["pass"] for c in checks], [True] * len(checks), "check verdicts"),
        _expect(report["all_pass"], True, "all_pass"),
    ]
    return _first(*reasons)


def _sn_rows(n: int) -> list[tuple]:
    return [(lam, m) for lam, m in sn_multiplicities(n).items() if m]


def _alternating_rows(mults: dict, halve: bool) -> list[tuple]:
    """(partition, sign, mult) after restriction: conjugate pairs merge at the
    lexicographically larger member, self-conjugate labels split into +/-."""
    rows = []
    for lam, mult in mults.items():
        partner = conjugate(lam)
        if lam == partner:
            if mult:
                half = mult // 2 if halve else mult
                rows += [(lam, "+", half), (lam, "-", half)]
        elif lam > partner and mult + mults.get(partner, 0):
            rows.append((lam, "", mult + mults.get(partner, 0)))
    return rows


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check_decompose(argv: list[str], text: str):
    n = int(argv[1])
    group = argv[argv.index("--group") + 1] if "--group" in argv else "S"
    dim = int(argv[argv.index("--dim") + 1]) if "--dim" in argv else None
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "pretty"
    mults = sn_multiplicities(n)
    codim = codimension(n)
    colen = colength(n, involutions(n))
    sn_rows = _sn_rows(n)
    if group == "S":
        reasons = [
            _expect(sum(m * hook_dim(lam) for lam, m in sn_rows), codim, "reference sum"),
            _expect(sum(m for _, m in sn_rows), colen, "reference colength"),
        ]
        if fmt == "json":
            data = json.loads(text)
            return _first(*reasons, _expect(data, {
                "n": n, "group": "S",
                "terms": [{"partition": list(lam), "mult": str(m)} for lam, m in sn_rows],
                "codimension": str(codim), "colength": str(colen),
            }, "decomposition JSON"))
        lines = text.splitlines()
        body = [f"  ({','.join(map(str, lam))}): mult {m}, dim {hook_dim(lam)}"
                for lam, m in sn_rows]
        return _first(
            *reasons,
            _expect(lines[0].startswith(f"P_{n} = "), True, "title line"),
            _expect(_parse_render(lines[0]), sn_rows, "rendered sum"),
            _expect(lines[1:], body + [f"codimension: {codim}", f"colength: {colen}"],
                    "table lines"),
        )
    if group == "GL":
        rows = [[" ".join(map(str, lam)), "", str(m), str(weyl_dim(lam, dim))]
                for lam, m in sn_rows if len(lam) <= dim]
    elif dim is None:
        rows = [[" ".join(map(str, lam)), sign, str(m),
                 str(hook_dim(lam) // 2 if sign else hook_dim(lam))]
                for lam, sign, m in _alternating_rows(mults, halve=True)]
    else:
        kept = {lam: (m if len(lam) <= dim else 0) for lam, m in mults.items()}
        rows = [[" ".join(map(str, lam)), sign, str(m), ""]
                for lam, sign, m in _alternating_rows(kept, halve=False)]
    return _expect(_csv_rows(text), [["partition", "sign", "mult", "dim"]] + rows,
                   f"{group} table")


def cocharacter(n: int) -> list[int]:
    mults = sn_multiplicities(n)
    return [sum(m * character(lam, mu) for lam, m in mults.items()) for mu in partitions(n)]


def _check_sequences(argv: list[str], text: str):
    max_n = int(argv[1])
    cochars = "--cocharacters" in argv
    inv = involutions(max_n)
    lines = text.splitlines()
    header = ["n", "codimension", "colength", "involutions"] + (["cocharacter"] if cochars else [])
    reason = _expect(lines[0].split(), header, "header")
    if reason:
        return reason
    reason = _expect(len(lines) - 1, max_n, "row count")
    if reason:
        return reason
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split(maxsplit=4 if cochars else 3)
        expected = [str(n), str(codimension(n)), str(colength(n, inv)), str(inv[n])]
        if cochars:
            expected.append(
                "(" + ", ".join(map(str, cocharacter(n))) + ")" if n <= 10 else "-")
        reason = _expect(fields, expected, f"row {n}")
        if reason:
            return reason
    return None


def _check_table(n: int, text: str):
    want = [[character(lam, mu) for mu in partitions(n)] for lam in partitions(n)]
    return _expect(json.loads(text), want, f"character table of S_{n}")


def _check_dump(n: int, path: str):
    ncols = planar_monomials(n)
    nrows = span_rows(n)
    with open(path, encoding="utf-8") as fh:
        reason = _expect(fh.readline().split(), [str(nrows), str(ncols)], "dump header")
        if reason:
            return reason
        row, cols, values = 0, [], []
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if len(fields) != 3 or fields[2] not in ("1/1", "-1/1"):
                return f"dump line {lineno}: bad entry {line.strip()!r}"
            r, c = int(fields[0]), int(fields[1])
            if r != row or not 0 <= c < ncols or (cols and c <= cols[-1]):
                return f"dump line {lineno}: index out of order or range {line.strip()!r}"
            cols.append(c)
            values.append(1 if fields[2] == "1/1" else -1)
            if len(cols) == 4:
                if sum(values) != 0:
                    return f"dump row {row}: entries do not sum to 0"
                row, cols, values = row + 1, [], []
        if cols or row != nrows:
            return f"dump ends inside row {row} of {nrows}"
    return None


def check(op: dict, path: str):
    """None if the output of ``op`` stored at ``path`` is right, else why not."""
    try:
        if op["kind"] == "dump":
            return _check_dump(op["n"], path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if op["kind"] == "table":
            return _check_table(op["n"], text)
        command = op["argv"][0]
        if command == "verify":
            return _check_verify(op["argv"], text)
        if command == "decompose":
            return _check_decompose(op["argv"], text)
        if command == "sequences":
            return _check_sequences(op["argv"], text)
        return f"no reference for {command}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
