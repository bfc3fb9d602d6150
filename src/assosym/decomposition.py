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
JSON consumers with 64-bit integers.  ``to_json`` writes that layout itself:
byte for byte ``json.dumps(to_json_dict(), indent=2)`` and a newline, without
the pure-Python encoder that an indent selects.

Each text layout has one chunk generator, which yields it a piece at a time:
``_json_chunks`` (the JSON layout, one piece per term) and ``_sum_chunks``
(the formal sum).  ``to_json`` and ``render`` are ``"".join`` of theirs, and
the CLI writes the same pieces as they come, so neither holds a whole table's
text.
"""

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .partitions import Partition, _conjugate, _integers, _specht_dim, check_partition

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
        return "(" + ",".join(map(str, self.partition)) + ")" + self.sign


def _check_sign(sign) -> None:
    """A split tag's value: '', '+' or '-'."""
    if sign not in ("", "+", "-"):
        raise ValueError(f"bad split tag {sign!r}")


def _check_tag(lam: Partition, sign: str) -> None:
    """The split-tag rule: a tag is '+' or '-', and only on a self-conjugate partition."""
    _check_sign(sign)
    if sign and _conjugate(lam) != lam:
        raise ValueError(f"split tag on non-self-conjugate {lam}")


def _fields(obj, *names) -> tuple:
    """The named fields of a JSON object; ValueError if it is none or lacks one."""
    if not isinstance(obj, Mapping) or not obj.keys() >= set(names):
        raise ValueError(f"expected a JSON object with the fields {', '.join(names)}")
    return tuple(map(obj.get, names))


@dataclass(frozen=True)
class Decomposition:
    """Degree-n decomposition into irreducibles with positive multiplicities.

    Validation happens at the boundary, once: the public constructor (and so
    ``from_json_dict``) checks every label, tag and multiplicity and puts the
    terms in canonical order.  The package's own builders never repeat it:
    their terms are canonical by construction, so they go straight to
    ``_canonical``, the store the public constructor ends in too.
    """

    n: int
    group: str
    terms: Mapping[Label, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.group not in _GROUPS:
            raise ValueError(f"unknown group {self.group!r}")
        (n,) = _integers((self.n,), "n")
        terms = {}
        for label, mult in zip(self.terms, _integers(self.terms.values(), "multiplicities")):
            lam = check_partition(label.partition)
            if sum(lam) != n:
                raise ValueError(f"label {label} is not a partition of {n}")
            if mult < 1:
                raise ValueError(f"multiplicity of {label} must be >= 1, got {mult}")
            if label.sign and self.group != GROUP_ALTERNATING:
                raise ValueError("split tags only occur for alternating decompositions")
            _check_tag(lam, label.sign)
            terms[Label(lam, label.sign)] = mult
        ordered = sorted(terms.items(), key=lambda item: item[0].sign)
        ordered.sort(key=lambda item: item[0].partition, reverse=True)
        self._store(n, self.group, dict(ordered))

    def _store(self, n: int, group: str, terms: dict) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", MappingProxyType(terms))

    @classmethod
    def _canonical(cls, n: int, group: str, terms: dict) -> "Decomposition":
        """Store terms that are canonical already, with no check.

        The caller guarantees what the public constructor would check: int
        ``n``, a known ``group``, ``Label``s over int partitions of n from
        ``generate_partitions`` (tags only on self-conjugate ones of an
        alternating decomposition), positive int multiplicities, in canonical
        order.  ``terms`` is kept, not copied.
        """
        dec = object.__new__(cls)
        dec._store(n, group, terms)
        return dec

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
        """``to_json_dict`` as two-space indented JSON text, ending in a newline."""
        return "".join(self._json_chunks())

    def _json_chunks(self):
        """``to_json``'s text in pieces: the header, one formatted string per term, the end.

        No string needs escaping: the group and tags are known ASCII strings,
        and every number, quoted or not, is decimal digits.
        """
        yield f'{{\n  "n": {self.n},\n  "group": "{self.group}",\n  "terms": ['
        sep = "\n"
        for (partition, sign), mult in self.terms.items():
            parts = ",\n        ".join(map(str, partition))
            parts = f"[\n        {parts}\n      ]" if partition else "[]"
            sign_line = f'      "sign": "{sign}",\n' if sign else ""
            yield (f'{sep}    {{\n      "partition": {parts},\n{sign_line}'
                   f'      "mult": "{mult}"\n    }}')
            sep = ",\n"
        end = "\n  ]" if self.terms else "]"
        if self.group == GROUP_SYMMETRIC:
            end += (f',\n  "codimension": "{self.total_dimension()}"'
                    f',\n  "colength": "{self.total_multiplicity()}"')
        yield end + "\n}\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        """The decomposition of a ``to_json_dict`` layout; ValueError for any malformed one."""
        n, group, entries = _fields(data, "n", "group", "terms")
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"the terms must be a list, got {type(entries).__name__}")
        terms = {}
        for entry in entries:
            partition, mult = _fields(entry, "partition", "mult")
            sign = entry.get("sign", "")
            _check_sign(sign)  # each field before the label is hashed or rendered
            label = Label(check_partition(partition), sign)
            if label in terms:
                raise ValueError(f"repeated label {label.render()}")
            terms[label] = int(mult) if isinstance(mult, str) else mult
        return cls(n, group, terms)

    @classmethod
    def from_json(cls, text: str) -> "Decomposition":
        return cls.from_json_dict(json.loads(text))

    def render(self, module_symbol: str = "S") -> str:
        """Render as a formal sum, e.g. ``3*S^{(4)} + 4*S^{(3,1)}``."""
        return "".join(self._sum_chunks(map(Label.render, self.terms), module_symbol))

    def _sum_chunks(self, labels, module_symbol: str):
        """The formal sum of the rendered ``labels`` with their multiplicities, a term a piece."""
        sep = ""
        for mult, label in zip(self.terms.values(), labels):
            yield f"{sep}{mult}*{module_symbol}^{{{label}}}"
            sep = " + "
        if not sep:
            yield "0"
