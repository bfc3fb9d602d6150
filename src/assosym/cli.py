"""Command-line front end: decompose, sequences, dims, verify.

Every command prints to stdout (or ``--out FILE``) in one of three formats
selected by ``--format {pretty,json,csv}``.  All numeric output is exact
decimal; multiplicities and dimensions are serialized as strings.  An
optional ``assosym.cfg`` file in the working directory (``key=value`` lines)
may set the default format.

Exit codes: 0 success / all checks pass, 1 usage error, 2 verification
failure.
"""

import argparse
import csv
import io
import json
import os
import sys
from decimal import Decimal

from . import algebra, oracle
from .characters import _alternating_label_dimension
from .decomposition import (
    GROUP_ALTERNATING,
    GROUP_GENERAL_LINEAR,
    GROUP_SYMMETRIC,
    _formal_sum,
)
from .partitions import _specht_dim, weyl_dim

CONFIG_NAME = "assosym.cfg"
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


def _read_config_format() -> str | None:
    if not os.path.exists(CONFIG_NAME):
        return None
    with open(CONFIG_NAME, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            if key.strip() == "format":
                value = value.strip()
                if value not in FORMATS:
                    raise UsageError(f"config file sets unknown format {value!r}")
                return value
    return None


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


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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


def cmd_decompose(args) -> tuple[str, int]:
    symbol, dec, dimension = _decompose_result(args.n, args.group, args.dim)
    if args.format == "json":
        return dec.to_json(), EXIT_OK
    dims = [dimension(label) for label in dec.terms]
    if args.format == "csv":
        rows = [
            [" ".join(map(str, label.partition)), label.sign, str(mult),
             "" if dim is None else str(dim)]
            for (label, mult), dim in zip(dec.terms.items(), dims)
        ]
        return _csv_text(["partition", "sign", "mult", "dim"], rows), EXIT_OK
    labels = [label.render() for label in dec.terms]
    lines = [f"P_{args.n} = {_formal_sum(dec.terms.values(), labels, symbol)}"]
    for label, mult, dim in zip(labels, dec.terms.values(), dims):
        dim_text = "" if dim is None else f", dim {dim}"
        lines.append(f"  {label}: mult {mult}{dim_text}")
    if dec.group == GROUP_SYMMETRIC:
        lines.append(f"codimension: {sum(m * d for m, d in zip(dec.terms.values(), dims))}")
        lines.append(f"colength: {dec.total_multiplicity()}")
    elif dec.group == GROUP_ALTERNATING and args.dim is None:
        # counts d_lambda on each split tag, not the A_n-irreducible d_lambda/2
        lines.append(f"total dimension: {dec.total_dimension()}")
    elif dec.group == GROUP_GENERAL_LINEAR:
        total = sum(m * d for m, d in zip(dec.terms.values(), dims))
        lines.append(f"total dimension (dim V = {args.dim}): {total}")
    lines.append("")  # the final newline, joined in rather than a copy of the whole text
    return "\n".join(lines), EXIT_OK


# ---------------------------------------------------------------------------
# sequences

def cmd_sequences(args) -> tuple[str, int]:
    if args.max_n < 1:
        raise UsageError("max_n must be >= 1")
    rows = []
    for n, codim, colength, involutions in algebra._sequences(args.max_n):
        row = {
            "n": n,
            "codimension": str(codim),
            "colength": str(colength),
            "involutions": str(involutions),
        }
        if args.cocharacters and n <= 10:
            row["cocharacter"] = [str(v) for v in algebra.cocharacter(n).values]
        rows.append(row)
    if args.format == "json":
        return _json_text({"rows": rows}), EXIT_OK
    header = ["n", "codimension", "colength", "involutions"]
    table = [[str(row[h]) for h in header] for row in rows]
    if args.format == "csv":
        if args.cocharacters:
            header.append("cocharacter")
            for record, row in zip(table, rows):
                record.append(" ".join(row.get("cocharacter", [])))
        return _csv_text(header, table), EXIT_OK
    widths = [max(map(len, col)) for col in zip(header, *table)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))
             + ("  cocharacter" if args.cocharacters else "")]
    for record, row in zip(table, rows):
        line = "  ".join(v.ljust(w) for v, w in zip(record, widths))
        if args.cocharacters:
            line += "  " + ("(" + ", ".join(row["cocharacter"]) + ")" if "cocharacter" in row else "-")
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n", EXIT_OK


# ---------------------------------------------------------------------------
# dims

def cmd_dims(args) -> tuple[str, int]:
    if (args.n is None) == (args.multidegree is None):
        raise UsageError("give exactly one of --n/--r or --multidegree")
    if args.n is not None:
        if args.r is None:
            raise UsageError("--n requires --r")
        value = algebra.graded_dim(args.n, args.r)
        payload = {"n": args.n, "r": args.r, "dim": _decimal(value)}
        if args.enumerate:
            payload["enumerated"] = _decimal(algebra.basis_count_direct(args.n, args.r))
    else:
        if args.r is not None:
            raise UsageError("--r only combines with --n")
        if args.enumerate:
            raise UsageError("--enumerate applies to --n/--r only")
        multidegree = _parse_multidegree(args.multidegree)
        value = algebra.multigraded_dim(multidegree)
        payload = {"multidegree": list(multidegree), "dim": _decimal(value)}
    if args.format == "json":
        return _json_text(payload), EXIT_OK
    if args.format == "csv":
        header = list(payload)
        row = [
            " ".join(map(str, v)) if isinstance(v, list) else str(v)
            for v in payload.values()
        ]
        return _csv_text(header, [row]), EXIT_OK
    lines = [payload["dim"]]
    if args.enumerate:
        enum = payload["enumerated"]
        status = "matches" if enum == payload["dim"] else "MISMATCH with"
        lines.append(f"direct basis enumeration: {enum} ({status} the formula)")
    return "\n".join(lines) + "\n", EXIT_OK


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


def _dump_matrix(n: int, target: str) -> None:
    """Stream the degree-n consequence matrix into a new file beside target, then rename it.

    ``os.replace`` within one directory is one rename: a failure part-way
    leaves an existing target as it was, creates none and removes the
    partial file, which this process alone names.
    """
    partial = f"{target}.{os.getpid()}.partial"
    fh = open(partial, "x", encoding="utf-8")
    try:
        with fh:
            oracle.write_consequence_matrix(n, fh)
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        raise


def _verify_checks(args) -> list[dict]:
    n = args.n
    content = oracle._component(  # the oracle's guard: one size policy, bad input refused first
        oracle._multilinear(n) if n is not None else _parse_multidegree(args.multidegree))[0]
    if n is not None:
        if args.dump_matrix:
            _dump_matrix(n, args.dump_matrix)
        return [_check(f"quotient dimension, degree {n}", algebra.codimension(n),
                       lambda: oracle.quotient_dim(n)),
                _check(f"irreducible multiplicities, degree {n}",
                       algebra.sn_decomposition(n).render(),
                       lambda: oracle.oracle_multiplicities(n).render())]
    name = f"multigraded dimension, degree {','.join(map(str, content))}"
    return [_check(name, algebra.multigraded_dim(content),
                   lambda: oracle.quotient_dim_multigraded(content))]


def cmd_verify(args) -> tuple[str, int]:
    if (args.n is None) == (args.multidegree is None):
        raise UsageError("give exactly one of --n or --multidegree")
    if args.dump_matrix and args.n is None:
        raise UsageError("--dump-matrix applies to --n only")
    checks = _verify_checks(args)
    all_pass = all(c["pass"] for c in checks)
    code = EXIT_OK if all_pass else EXIT_VERIFY_FAILED
    if args.format == "json":
        return _json_text({"checks": checks, "all_pass": all_pass}), code
    if args.format == "csv":
        rows = [[c["name"], c["expected"], c["actual"], "pass" if c["pass"] else "fail"]
                for c in checks]
        return _csv_text(["check", "expected", "actual", "status"], rows), code
    lines = []
    for c in checks:
        if c["pass"]:
            lines.append(f"PASS: {c['name']}: {c['actual']} = {c['expected']}")
        else:
            lines.append(
                f"FAIL: {c['name']}: computed {c['actual']}, expected {c['expected']}"
            )
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# wiring

def build_parser(default_format: str | None) -> _Parser:
    parser = _Parser(prog="assosym", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=default_format)
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
    p.add_argument("--enumerate", action="store_true",
                   help="cross-check by direct basis enumeration")
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
    p.add_argument("--dump-matrix", metavar="FILE",
                   help="dump the consequence matrix as sparse triplets")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser(_read_config_format() or "pretty").parse_args(argv)
        text, code = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (UsageError, ValueError, OSError) as exc:
        print(f"assosym: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
