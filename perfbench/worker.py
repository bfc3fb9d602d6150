"""One cold pass of a workload, in a fresh interpreter.

Started by run.py, never imported.  It imports the package from the
checkout's ``src``, runs the workload's operations once, and writes what it
measured to ``result.json`` in its output directory, next to the output of
every operation.  Nothing is checked here: run.py checks the outputs.

    python3 perfbench/worker.py --src SRC --out DIR --spawned-at T
        [--workload NAME [--trace]]

Without ``--workload`` it only measures set-up and exits.  ``--spawned-at``
is run.py's ``time.monotonic()`` just before it started this process; the
clock is shared by all processes, so set-up time is measured from it.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def _parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args()


def _run_operation(op: dict, path: str, results: dict):
    """Run one operation, its output going to ``path``; returns the exit code."""
    import assosym.characters
    import assosym.cli
    import assosym.oracle

    with open(path, "w", encoding="utf-8") as out, \
            open(path + ".err", "w", encoding="utf-8") as err:
        try:
            if op["kind"] == "cli":
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return assosym.cli.main(list(op["argv"]))
            if op["kind"] == "dump":
                assosym.oracle.write_consequence_matrix(op["n"], out)
                return 0
            if op["kind"] == "table":
                results[op["name"]] = assosym.characters.character_table(op["n"])
                return 0
            raise ValueError(f"unknown operation kind {op['kind']!r}")
        except SystemExit as exc:  # argparse exits on a usage error
            return exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a crashed pass
            err.write(f"{type(exc).__name__}: {exc}\n")
            return None


def _run_all(ops: list[dict], prefix: str, out: str, values: dict) -> list[dict]:
    records = []
    for i, op in enumerate(ops):
        path = os.path.join(out, f"{prefix}{i}.out")
        records.append({"name": op["name"], "code": _run_operation(op, path, values),
                        "path": path})
    return records


def main() -> int:
    args = _parse_args()
    sys.path.insert(0, args.src)
    import assosym
    import assosym.cli  # noqa: F401  (the CLI is part of what a user loads)

    setup_s = time.monotonic() - args.spawned_at
    source = os.path.realpath(assosym.__file__)
    if not source.startswith(os.path.realpath(args.src) + os.sep):
        print(f"imported assosym from {source}, not from {args.src}", file=sys.stderr)
        return 2
    result: dict = {"setup_s": setup_s}
    if args.workload:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        import workloads

        timed, after = workloads.pass_operations(args.workload)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        values: dict = {}
        wall0, cpu0 = time.perf_counter(), time.process_time()
        records = _run_all(timed, "op", args.out, values)
        result["run_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            spans = tracer.snapshot()
            for op, record in zip(timed, records):
                counter = {"cli": "cli.output_bytes", "dump": "oracle.dump_bytes"}.get(op["kind"])
                if counter:
                    spans["counters"][counter] += os.path.getsize(record["path"])
            with open(os.path.join(args.out, "trace.json"), "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
        records += _run_all(after, "after", args.out, values)
        for record in records:
            if record["name"] in values:
                with open(record["path"], "w", encoding="utf-8") as fh:
                    json.dump(values[record["name"]], fh)
        result["ops"] = records
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
