"""Layered benchmark of assosym: cold CLI passes, checked outputs, optional trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Each pass runs every operation of the workload once in a fresh
single-threaded interpreter (perfbench/worker.py), so every pass pays cold
caches as a CLI user does.  Passes repeat until ``--seconds`` of pass time
have been spent.  Every input is a fixed degree or content, so the seed
changes nothing and every seed gives the same inputs.
After each pass the outputs are checked against refs.py.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones: run_s and cpu_s as means over passes, setup_s and
peak_rss_mb as medians over the run's processes.  With
``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer self times and counters of the median traced pass, and
trace.overhead_s, the median over pairs of traced minus untraced wall time.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # import-only processes per run, on top of one per pass
DEADLINE_S = 170  # no pass starts that could end after this many seconds
CHILD_ENV = {
    # one thread, whatever BLAS numpy was built with
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


class Run:
    """Starts passes, checks their outputs and keeps the tallies of one run."""

    def __init__(self, src: str, work: str, workload: str):
        self.src, self.work, self.workload = src, work, workload
        self.env = {**os.environ, **CHILD_ENV}
        self.env.pop("PYTHONPATH", None)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.verified: dict[str, str] = {}  # op name -> digest of a checked output
        self.passes = 0

    def spawn(self, extra: list[str]) -> dict:
        """Run one worker to its end; returns its result.json."""
        out = tempfile.mkdtemp(dir=self.work)
        budget = DEADLINE_S - (time.monotonic() - self.started)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--src", self.src,
                "--out", out]
        spawned_at = time.monotonic()
        proc = subprocess.run(
            argv + ["--spawned-at", repr(spawned_at)] + extra, cwd=out, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(budget, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        result["dir"] = out
        return result

    def setup_probe(self) -> float:
        result = self.spawn([])
        shutil.rmtree(result["dir"])
        return result["setup_s"]

    def one_pass(self, traced: bool) -> dict:
        """One cold pass; its outputs are checked and tallied.

        ``wall`` in the result is the whole pass as the run spends it, from
        starting the worker to the end of the checks.
        """
        t0 = time.monotonic()
        timed, after = workloads.pass_operations(self.workload)
        result = self.spawn(["--workload", self.workload] + (["--trace"] if traced else []))
        for op, record in zip(timed + after, result["ops"]):
            self.attempted += 1
            if record["code"] != 0:
                self.failed += 1
            elif not self._output_is_right(op, record["path"]):
                self.failed += 1
                self.mismatched += 1
        if traced:
            with open(os.path.join(result["dir"], "trace.json"), encoding="utf-8") as fh:
                result["layers"] = tracing.layer_metrics(json.load(fh), result["run_s"])
        shutil.rmtree(result["dir"])
        self.passes += 1
        result["wall"] = time.monotonic() - t0
        return result

    def _output_is_right(self, op: dict, path: str) -> bool:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        if self.verified.get(op["name"]) == digest.hexdigest():
            return True  # byte-identical to an output already checked in full
        reason = refs.check(op, path)
        if reason:
            print(f"MISMATCH {op['name']}: {reason}", file=sys.stderr)
            return False
        self.verified[op["name"]] = digest.hexdigest()
        return True

    def time_left_for(self, seconds: float) -> bool:
        return time.monotonic() - self.started + seconds < DEADLINE_S


def _measure(run: Run, seconds: float) -> dict:
    setups = [run.setup_probe() for _ in range(SETUP_PROBES)]
    passes = []
    spent = 0.0
    while not passes or (spent < seconds and run.time_left_for(max(p["wall"] for p in passes))):
        passes.append(run.one_pass(traced=False))
        spent += passes[-1]["wall"]
    # Pass times are means, not medians: on a shared host the CPU's speed
    # switches between a fast and a slow state that each last several
    # passes.  The median of a few passes jumps from one state to the other;
    # the mean moves only by the share of time spent in each.
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "run_s": statistics.fmean(p["run_s"] for p in passes),
        "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _measure_layers(run: Run, seconds: float) -> dict:
    plain, traced = [], []
    spent = 0.0
    while len(traced) < 1 or (spent < seconds and run.time_left_for(
            max(p["wall"] for p in plain + traced) * 2)):
        for bucket, is_traced in ((plain, False), (traced, True)):
            bucket.append(run.one_pass(traced=is_traced))
            spent += bucket[-1]["wall"]
    # one whole pass, so that its layer self times add up to its wall time
    middle = sorted(traced, key=lambda p: p["run_s"])[(len(traced) - 1) // 2]
    metrics = dict(middle["layers"])
    # each traced pass against the untraced one just before it, so that
    # drift in the machine's speed between pairs cancels
    metrics["trace.overhead_s"] = statistics.median(
        t["run_s"] - p["run_s"] for p, t in zip(plain, traced))
    return metrics


def main() -> int:
    args = _parse_args()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "assosym", "__init__.py")):
        print("run.py: no src/assosym here; run it from the root of an assosym checkout",
              file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # reference sequences run past 4300 digits
    units = _units()
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        run = Run(src, work, args.workload)
        measure = _measure_layers if args.trace else _measure
        values = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run is still using it
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": values[name], "unit": units[kind][name]}
               for name in units[kind]}
    print(f"{run.passes} passes of {args.workload}", file=sys.stderr)
    print(json.dumps({
        "correct": run.mismatched == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def _units() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


if __name__ == "__main__":
    sys.exit(main())
