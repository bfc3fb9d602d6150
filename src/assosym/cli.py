"""Command-line front end: decompose, sequences, dims, verify.

Every command prints to stdout (or ``--out FILE``) in one of three formats
selected by ``--format {pretty,json,csv}``.  All numeric output is exact
decimal; multiplicities and dimensions are serialized as strings.

A command checks its arguments and does every computation that can fail
first, then returns its output as an iterable of pieces, which ``main``
writes as they are produced: no whole table's text is held in memory, and
a usage error prints nothing on stdout.  ``--out FILE`` streams into a new
file beside FILE that replaces it only once complete, so a failure part-way
leaves an existing FILE as it was.

Exit codes: 0 success / all checks pass, 1 usage error, 2 verification
failure.
"""

import argparse
import csv
import json
import os
import stat
import sys
import textwrap
from collections.abc import Iterable
from decimal import Decimal
from operator import mul

from . import algebra, oracle
from .characters import _alternating_label_dimension
from .decomposition import (
    GROUP_ALTERNATING,
    GROUP_GENERAL_LINEAR,
    GROUP_SYMMETRIC,
    Label,
)
from .partitions import _specht_dim, weyl_dim

FORMATS = ("pretty", "json", "csv")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_multidegree(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad multidegree {text!r}; expected e.g. 2,1") from None


def _decimal(value: int) -> str:
    """Exact decimal digits of an integer of any size.

    ``str`` refuses integers past the interpreter's int->str digit limit;
    ``Decimal`` converts without one and leaves that process-wide limit alone.
    """
    return str(Decimal(value))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


class _Echo:
    """A file for ``csv.writer``: ``write`` returns its text, so ``writerow`` returns the line."""

    def write(self, text: str) -> str:
        return text


def _csv_chunks(header, rows):
    """The CSV text of header and rows, one line a piece."""
    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(header)
    for row in rows:
        yield writer.writerow(row)


def _write_atomically(target: str, write) -> None:
    """Call ``write`` on a file for target; a regular file is replaced only once complete.

    A regular or missing target, its symlinks followed to their end, gets a
    new file beside that end, which ``os.replace`` renames onto it: one
    rename within one directory, so a failure part-way leaves an existing
    file as it was and removes the partial file, which this process alone
    names.  Any other target (``/dev/stdout``, a FIFO), and an existing file
    in a directory this process cannot add to, is written in place, as
    ``open(target, "w")`` writes it.
    """
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    real = os.path.realpath(target)
    if mode is not None and not (stat.S_ISREG(mode)
                                 and os.access(os.path.dirname(real), os.W_OK | os.X_OK)):
        with open(target, "w", encoding="utf-8") as fh:
            write(fh)
        return
    partial = f"{real}.{os.getpid()}.partial"
    try:
        fh = open(partial, "x", encoding="utf-8")
    except OSError as exc:  # named by the target given, not by the partial file
        raise OSError(exc.errno, exc.strerror, target) from None
    try:
        with fh:
            write(fh)
        os.replace(partial, real)
    except BaseException:
        os.unlink(partial)
        raise


# ---------------------------------------------------------------------------
# decompose

def _decompose_result(n: int, group: str, dim_v: int | None):
    """(symbol, decomposition, dimension of a term's label) for one group."""
    if group == GROUP_SYMMETRIC:
        if dim_v is not None:
            raise UsageError("--dim only combines with --group A or GL")
        return "S", algebra.sn_decomposition(n), lambda label: _specht_dim(label.partition)
    if group == GROUP_GENERAL_LINEAR:
        if dim_v is None:
            raise UsageError("--dim is required with --group GL")
        return ("W", algebra.gl_decomposition(n, dim_v),
                lambda label: weyl_dim(label.partition, dim_v))
    if dim_v is not None:  # A-Weyl module dimensions are not computed
        return "W_A", algebra.an_gl_decomposition(n, dim_v), lambda label: None
    return "S_A", algebra.an_decomposition(n), _alternating_label_dimension


def cmd_decompose(args) -> tuple[Iterable[str], int]:
    symbol, dec, dimension = _decompose_result(args.n, args.group, args.dim)
    if args.format == "json":
        return dec._json_chunks(), EXIT_OK
    if args.format == "csv":
        rows = (
            [" ".join(map(str, label.partition)), label.sign, str(mult),
             "" if dim is None else str(dim)]
            for (label, mult), dim in zip(dec.terms.items(), map(dimension, dec.terms))
        )
        return _csv_chunks(["partition", "sign", "mult", "dim"], rows), EXIT_OK
    return _decompose_pretty(args, symbol, dec, dimension), EXIT_OK


def _decompose_pretty(args, symbol: str, dec, dimension):
    labels = list(map(Label.render, dec.terms))
    dims = list(map(dimension, dec.terms))
    yield f"P_{args.n} = "
    yield from dec._sum_chunks(labels, symbol)
    yield "\n"
    for label, mult, dim in zip(labels, dec.terms.values(), dims):
        if dim is None:  # an A-Weyl module's dimension is not computed
            yield f"  {label}: mult {mult}\n"
        else:
            yield f"  {label}: mult {mult}, dim {dim}\n"
    if dec.group == GROUP_SYMMETRIC:
        yield (f"codimension: {sum(map(mul, dec.terms.values(), dims))}\n"
               f"colength: {dec.total_multiplicity()}\n")
    elif dec.group == GROUP_ALTERNATING and args.dim is None:
        # counts d_lambda on each split tag, not the A_n-irreducible d_lambda/2
        yield f"total dimension: {dec.total_dimension()}\n"
    elif dec.group == GROUP_GENERAL_LINEAR:
        total = sum(map(mul, dec.terms.values(), dims))
        yield f"total dimension (dim V = {args.dim}): {total}\n"


# ---------------------------------------------------------------------------
# sequences

SEQUENCE_HEADER = ("n", "codimension", "colength", "involutions")


def cmd_sequences(args) -> tuple[Iterable[str], int]:
    """The sequences table, streamed a row at a time from the running recurrences.

    No form holds the table: the pretty one runs the recurrences twice, once
    for the column widths (digit counts, ``adjusted() + 1``) and once to
    format the rows.
    """
    if args.max_n < 1:
        raise UsageError("max_n must be >= 1")
    cochars = None
    if args.cocharacters:
        cochars = [list(map(str, algebra.cocharacter(n).values))
                   for n in range(1, min(args.max_n, 10) + 1)]
    if args.format == "json":
        return _sequences_json(args.max_n, cochars), EXIT_OK
    if args.format == "csv":
        return _sequences_csv(args.max_n, cochars), EXIT_OK
    digits = [len(str(args.max_n)), 0, 0, 0]
    for _, *values in algebra._sequences(args.max_n):
        digits[1:] = map(max, digits[1:], (v.adjusted() + 1 for v in values))
    widths = list(map(max, digits, map(len, SEQUENCE_HEADER)))
    return _sequences_pretty(args.max_n, cochars, widths), EXIT_OK


def _sequences_json(max_n: int, cochars):
    """``json.dumps({"rows": rows}, indent=2)`` and a newline, a row at a time."""
    yield '{\n  "rows": [\n'
    sep = ""
    for n, codim, colength, involutions in algebra._sequences(max_n):
        row = {"n": n, "codimension": str(codim), "colength": str(colength),
               "involutions": str(involutions)}
        if cochars is not None and n <= len(cochars):
            row["cocharacter"] = cochars[n - 1]
        yield sep + textwrap.indent(json.dumps(row, indent=2), "    ")
        sep = ",\n"
    yield "\n  ]\n}\n"


def _sequences_csv(max_n: int, cochars):
    header = list(SEQUENCE_HEADER)
    rows = ([str(v) for v in row] for row in algebra._sequences(max_n))
    if cochars is not None:
        header.append("cocharacter")
        rows = (row + [" ".join(cochars[n - 1]) if n <= len(cochars) else ""]
                for n, row in enumerate(rows, 1))
    return _csv_chunks(header, rows)


def _sequences_pretty(max_n: int, cochars, widths):
    yield ("  ".join(map(str.ljust, SEQUENCE_HEADER, widths))
           + ("  cocharacter" if cochars is not None else "") + "\n")
    for n, *values in algebra._sequences(max_n):
        line = "  ".join(map(str.ljust, [str(n), *map(str, values)], widths))
        if cochars is not None:
            line += "  " + ("(" + ", ".join(cochars[n - 1]) + ")" if n <= len(cochars) else "-")
        yield line.rstrip() + "\n"


# ---------------------------------------------------------------------------
# dims

def cmd_dims(args) -> tuple[Iterable[str], int]:
    if (args.n is None) == (args.multidegree is None):
        raise UsageError("give exactly one of --n/--r or --multidegree")
    if args.n is not None:
        if args.r is None:
            raise UsageError("--n requires --r")
        value = algebra.graded_dim(args.n, args.r)
        payload = {"n": args.n, "r": args.r, "dim": _decimal(value)}
    else:
        if args.r is not None:
            raise UsageError("--r only combines with --n")
        multidegree = _parse_multidegree(args.multidegree)
        value = algebra.multigraded_dim(multidegree)
        payload = {"multidegree": list(multidegree), "dim": _decimal(value)}
    if args.format == "json":
        return (_json_text(payload),), EXIT_OK
    if args.format == "csv":
        header = list(payload)
        row = [
            " ".join(map(str, v)) if isinstance(v, list) else str(v)
            for v in payload.values()
        ]
        return _csv_chunks(header, [row]), EXIT_OK
    return (payload["dim"] + "\n",), EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _check(name: str, expected, compute) -> dict:
    """One check record: ``compute()`` against ``expected``.

    An unliftable echelon form or a bad multiplicity is a failed record whose
    actual value names the error, so every format renders it like any other
    failure.
    """
    try:
        actual = compute()
    except (oracle.RankMismatchError, oracle.MultiplicityError) as exc:
        actual = f"{type(exc).__name__}: {exc}"
    return {"name": name, "expected": str(expected), "actual": str(actual),
            "pass": actual == expected}


def _verify_checks(args) -> list[dict]:
    n = args.n
    content = oracle._component(  # the oracle's guard: one size policy, bad input refused first
        oracle._multilinear(n) if n is not None else _parse_multidegree(args.multidegree))[0]
    if n is not None:
        return [_check(f"quotient dimension, degree {n}", algebra.codimension(n),
                       lambda: oracle.quotient_dim(n)),
                _check(f"irreducible multiplicities, degree {n}",
                       algebra.sn_decomposition(n).render(),
                       lambda: oracle.oracle_multiplicities(n).render())]
    name = f"multigraded dimension, degree {','.join(map(str, content))}"
    return [_check(name, algebra.multigraded_dim(content),
                   lambda: oracle.quotient_dim_multigraded(content))]


def cmd_verify(args) -> tuple[Iterable[str], int]:
    if (args.n is None) == (args.multidegree is None):
        raise UsageError("give exactly one of --n or --multidegree")
    checks = _verify_checks(args)
    all_pass = all(c["pass"] for c in checks)
    code = EXIT_OK if all_pass else EXIT_VERIFY_FAILED
    if args.format == "json":
        return (_json_text({"checks": checks, "all_pass": all_pass}),), code
    if args.format == "csv":
        rows = [[c["name"], c["expected"], c["actual"], "pass" if c["pass"] else "fail"]
                for c in checks]
        return _csv_chunks(["check", "expected", "actual", "status"], rows), code
    lines = []
    for c in checks:
        if c["pass"]:
            lines.append(f"PASS: {c['name']}: {c['actual']} = {c['expected']}")
        else:
            lines.append(
                f"FAIL: {c['name']}: computed {c['actual']}, expected {c['expected']}"
            )
    return ("\n".join(lines) + "\n",), code


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="assosym", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="pretty")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common],
                       help="irreducible decomposition of the degree-n part")
    p.add_argument("n", type=int)
    p.add_argument("--group", choices=("S", "A", "GL"), default="S")
    p.add_argument("--dim", type=int,
                   help="dim V; required for GL, with A gives the A-Schur table")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sequences", parents=[common],
                       help="codimension/colength/involution table")
    p.add_argument("max_n", type=int)
    p.add_argument("--cocharacters", action="store_true",
                   help="include cocharacter values (degrees up to 10)")
    p.set_defaults(func=cmd_sequences)

    p = sub.add_parser("dims", parents=[common],
                       help="graded or multigraded dimension")
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--multidegree", metavar="L1,L2,...")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", parents=[common],
                       help="T-ideal oracle check against the formulas, level by level",
                       description="T-ideal oracle check against the formulas, built level "
                       "by level from the quotients of smaller contents; --n takes its S_n "
                       "multiplicities from the level dimensions by Kostka inversion.  Every "
                       "rank is taken modulo 2^31 - 1 and certified over Q; a form that does "
                       "not lift is a failed check.  Every component that the oracle's column "
                       "guard admits runs as is; a larger one is a usage error.")
    p.add_argument("--n", type=int)
    p.add_argument("--multidegree", metavar="L1,L2,...")
    # accepted and ignored: old command lines pass it, and it changes no byte of the output
    p.add_argument("--allow-n6", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        chunks, code = args.func(args)
        if args.out:
            _write_atomically(args.out, lambda fh: fh.writelines(chunks))
        else:
            sys.stdout.writelines(chunks)
    except (UsageError, ValueError, OSError) as exc:
        print(f"assosym: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
