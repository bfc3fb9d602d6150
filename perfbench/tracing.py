"""Spans and counters around the package's public functions, kept in memory.

``Tracer.install`` replaces each traced public function with a wrapper, both
in its defining module and in every other ``assosym`` module that imported
it by name, so calls made inside the package are seen too.  A span is
(name, start, end, parent); the parent is the span open when it started.
``layer_metrics`` turns a written trace into per-layer self times: a span's
duration minus the time its direct child spans cover.
"""

import functools
import sys
from array import array
from time import perf_counter

# layer -> public functions ("module:attribute", methods as Class.method)
LAYERS = {
    "oracle.enumerate": ["oracle:enumerate_multilinear", "oracle:monomials_with_labels"],
    "oracle.span": ["oracle:consequence_span", "oracle:consequence_span_multigraded"],
    "oracle.dump": ["oracle:write_consequence_matrix"],
    "oracle.exact": ["oracle:quotient_basis"],
    "oracle.rank": ["oracle:quotient_dim", "oracle:quotient_dim_multigraded"],
    "oracle.character": ["oracle:quotient_character", "oracle:oracle_multiplicities"],
    "characters.table": [
        "characters:mn_character", "characters:irreducible_character",
        "characters:character_table", "characters:inner_product",
    ],
    "characters.restrict": ["characters:restrict_to_alternating"],
    "partitions.specht_dim": ["partitions:specht_dim"],
    "partitions.weyl_dim": ["partitions:weyl_dim"],
    "algebra.decompose": [
        "algebra:sn_decomposition", "algebra:an_decomposition",
        "algebra:gl_decomposition", "algebra:an_gl_decomposition",
    ],
    "algebra.sequences": [
        "algebra:codimension", "algebra:colength",
        "characters:involution_count", "algebra:cocharacter",
    ],
    "decomposition.serialize": [
        "decomposition:Decomposition.to_json", "decomposition:Decomposition.render",
        "decomposition:Decomposition.total_dimension",
    ],
    "cli.self": ["cli:main"],
}

# counted on every call, without a span of their own
CALL_COUNTERS = {"partitions:check_partition": "partitions.check_partition_calls"}

COUNTERS = (
    "oracle.span_rows", "oracle.dump_bytes", "oracle.ambient_cols",
    "partitions.specht_dim_calls", "partitions.check_partition_calls",
    "cli.output_bytes",
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = sys.modules[f"assosym.{module_name}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _rebind(original, replacement) -> None:
    """Point every assosym module attribute that holds ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "assosym" and not module_name.startswith("assosym."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _replace(target: str, make_wrapper) -> None:
    owner, attr = _resolve(target)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    _rebind(original, wrapper)


class Tracer:
    """Records spans and counters in memory; ``snapshot`` hands them out."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                _replace(target, lambda fn: self._wrap(fn, target, layer))
        for target, counter in CALL_COUNTERS.items():
            _replace(target, lambda fn: self._count(fn, counter))

    def _count(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        after = _AFTER.get(layer)
        span_name, starts, ends, parents, stack = (
            self.span_name, self.starts, self.ends, self.parents, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            span_name.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, index, result)
            return result

        return traced

    def parent_layer(self, index: int) -> str | None:
        parent = self.parents[index]
        return None if parent < 0 else self.layer_of[self.span_name[parent]]

    def snapshot(self) -> dict:
        """Spans and counters recorded so far, as a JSON-ready dict."""
        return {
            "names": list(self.names),
            "layers": list(self.layer_of),
            "spans": [
                [n, s, e, p]
                for n, s, e, p in zip(self.span_name, self.starts, self.ends, self.parents)
            ],
            "counters": dict(self.counters),
        }


def _after_span(tracer: Tracer, index: int, result) -> None:
    tracer.counters["oracle.span_rows"] += len(result)


def _after_enumerate(tracer: Tracer, index: int, result) -> None:
    # monomials enumerated directly by a rank computation are its columns
    if tracer.parent_layer(index) == "oracle.rank":
        tracer.counters["oracle.ambient_cols"] += len(result)


def _after_specht(tracer: Tracer, index: int, result) -> None:
    tracer.counters["partitions.specht_dim_calls"] += 1


_AFTER = {
    "oracle.span": _after_span,
    "oracle.enumerate": _after_enumerate,
    "partitions.specht_dim": _after_specht,
}


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer self times and counters of one traced pass.

    ``trace.untraced_s`` is the part of the pass's wall time that no span
    covers (the benchmark's own glue between operations).
    """
    layers = trace["layers"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for i, (name_id, start, end, parent) in enumerate(spans):
        self_time[layers[name_id]] += (end - start) - child_time[i]
        if parent < 0:
            covered += end - start
    metrics = {f"{layer}_s": value for layer, value in self_time.items()}
    metrics.update({k: float(v) for k, v in trace["counters"].items()})
    metrics["trace.spans"] = float(len(spans))
    metrics["trace.wall_s"] = wall_s
    metrics["trace.untraced_s"] = wall_s - covered
    return metrics
