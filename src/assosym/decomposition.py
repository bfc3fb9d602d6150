"""The central output type: a multiset of labelled irreducible modules.

A label is a partition, optionally tagged '+' or '-' when a self-conjugate
module splits on restriction to the alternating group.  Decompositions are
immutable once built: ``terms`` is a read-only mapping in canonical order,
partitions as in ``generate_partitions`` and the tags of one partition as
'', '+', '-'.  They serialize to the JSON layout::

    {"n": 4, "group": "S",
     "terms": [{"partition": [4], "mult": "3"}, ...],
     "codimension": "29", "colength": "13"}

Multiplicities are decimal strings so arbitrary-precision values survive
JSON consumers with 64-bit integers.
"""

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .partitions import Partition, _conjugate, _specht_dim, check_partition

GROUP_SYMMETRIC = "S"
GROUP_ALTERNATING = "A"
GROUP_GENERAL_LINEAR = "GL"

_GROUPS = (GROUP_SYMMETRIC, GROUP_ALTERNATING, GROUP_GENERAL_LINEAR)


class Label(NamedTuple):
    """A partition with an optional alternating-group split tag.

    The '+'/'-' tags are formal: which split half is which is basis
    dependent, so only the pair of tagged multiplicities is meaningful.
    """

    partition: Partition
    sign: str = ""

    def render(self) -> str:
        body = "(" + ",".join(str(p) for p in self.partition) + ")"
        return body + self.sign


@dataclass(frozen=True)
class Decomposition:
    """Degree-n decomposition into irreducibles with positive multiplicities."""

    n: int
    group: str
    terms: Mapping[Label, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.group not in _GROUPS:
            raise ValueError(f"unknown group {self.group!r}")
        terms = {}
        for label, mult in self.terms.items():
            lam = check_partition(label.partition)
            if sum(lam) != self.n:
                raise ValueError(f"label {label} is not a partition of {self.n}")
            if mult < 1:
                raise ValueError(f"multiplicity of {label} must be >= 1, got {mult}")
            if label.sign:
                if self.group != GROUP_ALTERNATING:
                    raise ValueError("split tags only occur for alternating decompositions")
                if label.sign not in ("+", "-"):
                    raise ValueError(f"bad split tag {label.sign!r}")
                if _conjugate(lam) != lam:
                    raise ValueError(f"split tag on non-self-conjugate {lam}")
            terms[Label(lam, label.sign)] = mult
        ordered = sorted(terms.items(), key=lambda item: item[0].sign)
        ordered.sort(key=lambda item: item[0].partition, reverse=True)
        object.__setattr__(self, "terms", MappingProxyType(dict(ordered)))

    def multiplicity(self, partition, sign: str = "") -> int:
        return self.terms.get(Label(tuple(partition), sign), 0)

    def total_multiplicity(self) -> int:
        """Sum of all multiplicities (the colength when this decomposes P_n)."""
        return sum(self.terms.values())

    def total_dimension(self) -> int:
        """Sum of mult * d_lambda over all labels.

        For symmetric-group decompositions this is the dimension of the
        module.  For alternating ones it is too: a merged pair label has
        dimension d_lambda, and each halved '+'/'-' unit accounts for both
        split halves, d_lambda/2 + d_lambda/2.
        """
        return sum(mult * _specht_dim(label.partition) for label, mult in self.terms.items())

    def to_json_dict(self) -> dict:
        terms = []
        for label, mult in self.terms.items():
            entry: dict = {"partition": list(label.partition)}
            if label.sign:
                entry["sign"] = label.sign
            entry["mult"] = str(mult)
            terms.append(entry)
        out: dict = {"n": self.n, "group": self.group, "terms": terms}
        if self.group == GROUP_SYMMETRIC:
            out["codimension"] = str(self.total_dimension())
            out["colength"] = str(self.total_multiplicity())
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        terms = {}
        for entry in data["terms"]:
            label = Label(tuple(entry["partition"]), entry.get("sign", ""))
            if label in terms:
                raise ValueError(f"repeated label {label.render()}")
            terms[label] = int(entry["mult"])
        return cls(int(data["n"]), data["group"], terms)

    @classmethod
    def from_json(cls, text: str) -> "Decomposition":
        return cls.from_json_dict(json.loads(text))

    def render(self, module_symbol: str = "S") -> str:
        """Render as a formal sum, e.g. ``3*S^{(4)} + 4*S^{(3,1)}``."""
        parts = []
        for label, mult in self.terms.items():
            parts.append(f"{mult}*{module_symbol}^{{{label.render()}}}")
        return " + ".join(parts) if parts else "0"
