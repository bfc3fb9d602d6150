"""The benchmark's workloads: fixed operations on fixed degrees, no randomness.

An operation is a dict with a ``name`` (unique within its workload), a
``kind`` and its arguments:

* ``cli``: ``assosym.cli.main(argv)`` with stdout sent to a file, as a user
  running ``assosym ARGV > file`` would;
* ``dump``: ``assosym.oracle.write_consequence_matrix(n, fh)`` into a file;
* ``table``: ``assosym.characters.character_table(n)``.

A pass runs every timed operation of a workload once, in the order listed;
the operations listed in ``KNOWN_FAILURES`` run after the timed part, so
their time stays out of ``run_s`` and ``cpu_s``.  Every input is fixed, so
every seed gives the same inputs.
"""


def cli(*argv: str) -> dict:
    return {"name": " ".join(argv), "kind": "cli", "argv": list(argv)}


def dump(n: int) -> dict:
    return {"name": f"write_consequence_matrix({n})", "kind": "dump", "n": n}


def table(n: int) -> dict:
    return {"name": f"character_table({n})", "kind": "table", "n": n}


CLOSED_FORM_N = 30
CLOSED_FORM_DIM = 3

WORKLOADS = {
    # About 97% of a pass is verify --n 5, mostly fraction-free elimination.
    "multilinear-exact": [
        cli("verify", "--n", str(n), "--format", "json") for n in (2, 3, 4, 5)
    ],
    # Total degree 6: the dense GF(p) kernel alone, no exact elimination.
    "multigraded-modular": [
        cli("verify", "--multidegree", content, "--allow-n6", "--format", "json")
        for content in ("3,2,1", "2,2,2")
    ],
    # The degree-6 front half (enumeration, span, matrix I/O) with no rank step.
    "span-dump-6": [dump(5), dump(6)],
    # Closed forms, character tables and CLI rendering; never touches the oracle.
    "closed-form-tables": [
        cli("decompose", str(CLOSED_FORM_N), "--format", "json"),
        cli("decompose", str(CLOSED_FORM_N)),
        cli("decompose", str(CLOSED_FORM_N), "--group", "A", "--format", "csv"),
        cli("decompose", str(CLOSED_FORM_N), "--group", "A",
            "--dim", str(CLOSED_FORM_DIM), "--format", "csv"),
        cli("decompose", str(CLOSED_FORM_N), "--group", "GL",
            "--dim", str(CLOSED_FORM_DIM), "--format", "csv"),
        cli("sequences", "1500", "--cocharacters"),
        table(12),
    ],
}

# Fails on every run: cmd_sequences calls str() on codimensions of 4300
# digits or more, which Python's int->str limit rejects for every N >= 1559.
KNOWN_FAILURES = {
    "closed-form-tables": [cli("sequences", "1600")],
}


def pass_operations(workload: str) -> tuple[list[dict], list[dict]]:
    """(timed operations in order, operations run after the timed part)."""
    return WORKLOADS[workload], KNOWN_FAILURES.get(workload, [])
