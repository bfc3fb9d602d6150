import decimal
import json
import re
import sys
from itertools import islice
from math import comb

import numpy as np
import pytest

from assosym import algebra, partitions
from assosym.algebra import (
    _sequences,
    an_decomposition,
    an_gl_decomposition,
    cocharacter,
    codimension,
    colength,
    gl_decomposition,
    graded_dim,
    multigraded_dim,
    sn_decomposition,
    two_row_multiplicity,
)
from assosym.characters import _merge_conjugate_pairs, involution_count, restrict_to_alternating
from assosym.decomposition import Decomposition, Label
from assosym.oracle import oracle_multiplicities
from assosym.partitions import (
    _kostka,
    generate_partitions,
    specht_dim,
    two_row_partitions,
    weyl_dim,
)

# multiplicities of P_1 .. P_5, with the degree-5 labels that the dimension
# counts force ((2,2,1) and (2,1,1,1))
SN_TABLES = {
    1: {Label((1,)): 1},
    2: {Label((2,)): 1, Label((1, 1)): 1},
    3: {Label((3,)): 2, Label((2, 1)): 2, Label((1, 1, 1)): 1},
    4: {
        Label((4,)): 3,
        Label((3, 1)): 4,
        Label((2, 2)): 2,
        Label((2, 1, 1)): 3,
        Label((1, 1, 1, 1)): 1,
    },
    5: {
        Label((5,)): 4,
        Label((4, 1)): 6,
        Label((3, 2)): 6,
        Label((3, 1, 1)): 6,
        Label((2, 2, 1)): 5,
        Label((2, 1, 1, 1)): 4,
        Label((1, 1, 1, 1, 1)): 1,
    },
}

AN_TABLES = {
    2: {Label((2,)): 2},
    3: {Label((3,)): 3, Label((2, 1), "+"): 1, Label((2, 1), "-"): 1},
    4: {
        Label((4,)): 4,
        Label((3, 1)): 7,
        Label((2, 2), "+"): 1,
        Label((2, 2), "-"): 1,
    },
    5: {
        Label((5,)): 5,
        Label((4, 1)): 10,
        Label((3, 2)): 11,
        Label((3, 1, 1), "+"): 3,
        Label((3, 1, 1), "-"): 3,
    },
}


def test_two_row_multiplicity_values():
    assert two_row_multiplicity(4, 2) == 0
    assert two_row_multiplicity(5, 1) == 2
    assert two_row_multiplicity(8, 4) == 1
    assert two_row_multiplicity(1, 0) == 0
    assert two_row_multiplicity(2, 1) == 0


def test_two_row_multiplicity_matches_split_count():
    for n in range(1, 61):
        for lam2 in range(n // 2 + 1):
            count = sum(1 for k in range(n - 2) if lam2 <= min(k, n - k))
            assert two_row_multiplicity(n, lam2) == count


def test_two_row_multiplicity_range_error():
    with pytest.raises(ValueError):
        two_row_multiplicity(4, 3)


def test_two_row_multiplicity_rejects_non_integral_arguments():
    # 1.5 once came back as the multiplicity 1.5
    for n, lam2 in ((5, 1.5), (5.5, 1)):
        with pytest.raises(ValueError, match="must be integers"):
            two_row_multiplicity(n, lam2)
    assert two_row_multiplicity(5.0, 1.0) == two_row_multiplicity(5, 1)


def test_gl_decompositions_reject_a_non_integral_dimension():
    # m = 2.5 once gave the m = 2 table
    for table in (gl_decomposition, an_gl_decomposition):
        with pytest.raises(ValueError, match="must be integers"):
            table(4, 2.5)
        assert table(4, 2.0) == table(4, 2)


# each entry point with an integral float and a non-integral value of the same arity
DEGREE_ENTRY_POINTS = [
    (sn_decomposition, (4.0,), (4.5,)),
    (an_decomposition, (4.0,), (4.5,)),
    (gl_decomposition, (4.0, 2), (4.5, 2)),
    (an_gl_decomposition, (4.0, 2), (4.5, 2)),
    (codimension, (4.0,), (4.5,)),
    (graded_dim, (2.0, 2), (2.5, 2)),
    (cocharacter, (4.0,), (4.5,)),
    (generate_partitions, (4.0,), (4.5,)),
    (two_row_partitions, (4.0,), (4.5,)),
    (colength, (4.0,), (2.5,)),
    (involution_count, (4.0,), (2.5,)),
]


@pytest.mark.parametrize("entry, integral, fractional", DEGREE_ENTRY_POINTS,
                         ids=[entry.__name__ for entry, _, _ in DEGREE_ENTRY_POINTS])
def test_entry_points_classify_a_float_degree(entry, integral, fractional):
    # a float n once raised TypeError from range(), or islice's ValueError
    with pytest.raises(ValueError, match="must be integers"):
        entry(*fractional)
    assert entry(*integral) == entry(*map(int, integral))


def test_generate_partitions_yields_int_parts_for_an_integral_float():
    generate_partitions.cache_clear()  # 4.0 and 4 share one cache key
    try:
        assert all(type(p) is int for lam in generate_partitions(4.0) for p in lam)
    finally:
        generate_partitions.cache_clear()


def test_builders_do_not_revalidate_their_own_labels(monkeypatch):
    # the labels come from generate_partitions: checking them again once cost
    # 31122 check_partition calls per closed-form-tables benchmark pass
    calls = []
    original = partitions.check_partition

    def counted(lam):
        calls.append(lam)
        return original(lam)

    # rebound wherever it was imported by name, as perfbench's tracer does
    for name, module in list(sys.modules.items()):
        if name == "assosym" or name.startswith("assosym."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    Decomposition(2, "S", {Label((2,)): 1})
    assert calls == [(2,)]  # the public constructor still checks
    calls.clear()
    sn_decomposition(20)
    an_decomposition(20)
    gl_decomposition(20, 3)
    an_gl_decomposition(20, 3)
    assert calls == []


def test_decomposition_rejects_a_non_integral_multiplicity():
    # 2.5 was once accepted and serialised as "2.5", which from_json cannot read
    with pytest.raises(ValueError, match="must be integers"):
        Decomposition(4, "S", {Label((4,)): 2.5})
    with pytest.raises(ValueError, match="must be integers"):
        Decomposition(4.5, "S", {})
    dec = Decomposition(4.0, "S", {Label((4,)): 2.0})
    assert dec.to_json() == Decomposition(4, "S", {Label((4,)): 2}).to_json()


def test_sn_decomposition_golden_tables():
    for n, table in SN_TABLES.items():
        assert sn_decomposition(n).terms == table


def test_an_decomposition_golden_tables():
    for n, table in AN_TABLES.items():
        assert an_decomposition(n).terms == table
    with pytest.raises(ValueError):
        an_decomposition(1)


def test_gl_decomposition_examples():
    assert gl_decomposition(3, 2).terms == {Label((3,)): 2, Label((2, 1)): 2}
    for n in range(3, 9):
        assert gl_decomposition(n, 1).terms == {Label((n,)): n - 1}
    assert gl_decomposition(2, 5).terms == {Label((2,)): 1, Label((1, 1)): 1}


def test_gl_decompositions_build_only_labels_with_at_most_m_rows(monkeypatch):
    for n in range(1, 17):
        for m in range(1, 7):
            # the filter of the S_n table that gl_decomposition once was
            short = [(label, mult) for label, mult in sn_decomposition(n).terms.items()
                     if len(label.partition) <= m]
            assert list(gl_decomposition(n, m).terms.items()) == short
            if n >= 2:
                assert an_gl_decomposition(n, m) == _merge_conjugate_pairs(
                    Decomposition(n, "GL", dict(short)), halve=False)
    shapes = []
    specht_dim = algebra._specht_dim
    monkeypatch.setattr(algebra, "_specht_dim", lambda lam: shapes.append(lam) or specht_dim(lam))
    gl_decomposition(30, 3)
    assert len(shapes) == 91  # not the 5604 partitions of 30


def test_an_gl_decomposition_examples():
    assert an_gl_decomposition(3, 3).terms == {
        Label((3,)): 3,
        Label((2, 1), "+"): 2,
        Label((2, 1), "-"): 2,
    }
    assert an_gl_decomposition(2, 2).terms == {Label((2,)): 2}


def test_an_gl_decomposition_agrees_with_restriction():
    # merged labels match the halved restriction; split labels carry twice
    # the halved multiplicity (nothing is halved in the A-Schur bookkeeping)
    for n, m in [(4, 4), (5, 5), (6, 6), (5, 3)]:
        agl = an_gl_decomposition(n, m)
        surviving = Decomposition(n, "S", gl_decomposition(n, m).terms)
        res = restrict_to_alternating(surviving)
        assert set(agl.terms) == set(res.terms)
        for label, mult in agl.terms.items():
            assert mult == res.terms[label] * (2 if label.sign else 1)


def test_codimension_values():
    assert [codimension(n) for n in range(1, 6)] == [1, 2, 7, 29, 136]


def test_decomposition_dimension_matches_codimension():
    for n in range(1, 16):
        assert sn_decomposition(n).total_dimension() == codimension(n)


def test_an_decomposition_conserves_dimension():
    for n in range(2, 11):
        assert an_decomposition(n).total_dimension() == codimension(n)


def test_graded_dim_values():
    assert graded_dim(3, 2) == 12
    assert graded_dim(3, 1) == 2
    for r in range(1, 8):
        assert graded_dim(1, r) == r
        assert graded_dim(2, r) == r * r  # no identities in degree 2


def test_graded_dim_matches_weyl_module_content():
    for n in range(1, 11):
        for r in range(1, 5):
            total = sum(
                mult * weyl_dim(label.partition, r)
                for label, mult in gl_decomposition(n, r).terms.items()
            )
            assert total == graded_dim(n, r)


def test_multigraded_dim_values():
    assert multigraded_dim((2, 1)) == 4
    assert multigraded_dim((3,)) == 2
    for n in range(1, 9):
        assert multigraded_dim((1,) * n) == codimension(n)


def test_multigraded_dim_rejects_zero_parts():
    with pytest.raises(ValueError):
        multigraded_dim((2, 0))
    with pytest.raises(ValueError):
        multigraded_dim(())


def test_multigraded_dim_rejects_non_integral_parts():
    # int() would truncate (2.7, 1) to (2, 1), whose dimension is 4
    with pytest.raises(ValueError, match="must be integers"):
        multigraded_dim((2.7, 1))
    assert multigraded_dim((2.0, 1)) == 4


def test_sequences_match_the_closed_forms():
    rows = list(_sequences(300))
    assert [row[0] for row in rows] == list(range(1, 301))
    for n, codim, colen, inv in rows:
        assert (codim, colen, inv) == (codimension(n), colength(n), involution_count(n))


def test_sequences_leave_the_decimal_context_alone():
    before = decimal.getcontext()
    state = repr(before)
    list(islice(_sequences(50), 3))
    for row in _sequences(50):
        if row[0] == 10:
            break
    assert decimal.getcontext() is before
    assert repr(decimal.getcontext()) == state


def test_multigraded_components_sum_to_graded():
    def compositions(total, length):
        if length == 1:
            yield (total,)
            return
        for first in range(1, total - length + 2):
            for rest in compositions(total - first, length - 1):
                yield (first,) + rest

    from math import comb

    # each strictly positive multidegree occurs once per choice of its
    # support among the r generators
    for r in range(1, 4):
        for n in range(1, 8):
            total = sum(
                comb(r, k) * multigraded_dim(l)
                for k in range(1, min(n, r) + 1)
                for l in compositions(n, k)
            )
            assert total == graded_dim(n, r)


def test_kostka_helper_values():
    assert _kostka((2, 1), (1, 1, 1)) == 2  # standard tableaux: d_(2,1)
    assert _kostka((3, 2), (2, 2, 1)) == 2
    assert _kostka((2, 2), (3, 1)) == 0  # (3,1) dominates (2,2)
    assert all(_kostka(lam, lam) == 1 for lam in generate_partitions(6))


def test_sn_multiplicities_give_every_multigraded_dimension():
    # Schur-Weyl: the component of content l has dimension sum_lambda m_lambda K_{lambda,l}
    checked = 0
    for n in range(1, 13):
        terms = sn_decomposition(n).terms
        for l in generate_partitions(n):
            total = sum(m * _kostka(label.partition, l) for label, m in terms.items())
            assert total == multigraded_dim(l), l
            checked += 1
    assert checked == 271


def test_cocharacter_values():
    chi2 = cocharacter(2)
    assert chi2.value_at((1, 1)) == 2
    assert chi2.value_at((2,)) == 0
    chi3 = cocharacter(3)
    assert chi3.value_at((1, 1, 1)) == 7
    assert chi3.value_at((2, 1)) == 1
    assert chi3.value_at((3,)) == 1


def test_cocharacter_identity_value_is_codimension():
    for n in range(1, 11):
        assert cocharacter(n).value_at((1,) * n) == codimension(n)
    with pytest.raises(ValueError):
        cocharacter(11)


def test_colength_values():
    assert [colength(n) for n in range(1, 6)] == [1, 2, 5, 13, 32]


def test_colength_matches_decomposition():
    for n in range(1, 31):
        assert colength(n) == sn_decomposition(n).total_multiplicity()


def test_graded_dim_counts_both_kinds_of_basis_words():
    # r^n left-normed words, plus a non-decreasing head of length n - k applied
    # to a non-decreasing tail of length k >= 3: the binomial sum before collapsing
    for n in range(1, 30):
        for r in range(1, 8):
            assert graded_dim(n, r) == r**n + sum(
                comb(n - k + r - 1, n - k) * comb(k + r - 1, k) for k in range(3, n + 1))


def test_decomposition_json_round_trip():
    for dec in (sn_decomposition(4), an_decomposition(5), gl_decomposition(3, 2)):
        text = dec.to_json()
        back = Decomposition.from_json(text)
        assert back == dec
        assert back.to_json() == text


def reference_json(dec):
    """The layout through the standard library's encoder."""
    return json.dumps(dec.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("n", range(1, 15))
def test_to_json_matches_the_reference_encoder(n):
    decs = [sn_decomposition(n)]
    decs += [gl_decomposition(n, m) for m in range(1, 5)]
    if n >= 2:
        decs.append(an_decomposition(n))
        decs += [an_gl_decomposition(n, m) for m in range(1, 5)]
    for dec in decs:
        assert dec.to_json() == reference_json(dec)


@pytest.mark.parametrize("n", range(1, 6))
def test_to_json_of_oracle_multiplicities_matches_the_reference_encoder(n):
    dec = oracle_multiplicities(n)
    assert dec.to_json() == reference_json(dec)


def test_to_json_of_edge_decompositions_matches_the_reference_encoder():
    for dec in (
        Decomposition(4, "A", {Label((2, 2), "+"): 1, Label((2, 2), "-"): 3, Label((4,)): 2}),
        Decomposition(3, "S", {}),
        Decomposition(3, "A", {}),
        Decomposition(0, "S", {Label(()): 1}),
        Decomposition(2, "GL", {Label((1, 1)): 10**40}),
    ):
        assert dec.to_json() == reference_json(dec)
    assert Decomposition(3, "S", {}).to_json() == (
        '{\n  "n": 3,\n  "group": "S",\n  "terms": [],\n'
        '  "codimension": "0",\n  "colength": "0"\n}\n'
    )


def test_decomposition_from_json_rejects_repeated_labels():
    data = {"n": 3, "group": "S", "terms": [
        {"partition": [3], "mult": "2"}, {"partition": [3], "mult": "5"},
    ]}
    with pytest.raises(ValueError, match=r"repeated label \(3\)"):
        Decomposition.from_json_dict(data)
    split = {"n": 4, "group": "A", "terms": [
        {"partition": [2, 2], "sign": "+", "mult": "1"},
        {"partition": [2, 2], "sign": "-", "mult": "1"},
        {"partition": [2, 2], "sign": "+", "mult": "1"},
    ]}
    with pytest.raises(ValueError, match=r"repeated label \(2,2\)\+"):
        Decomposition.from_json_dict(split)
    split["terms"].pop()
    assert Decomposition.from_json_dict(split).total_multiplicity() == 2


def test_decomposition_from_json_rejects_a_null_split_tag():
    # once a TypeError from the canonical sort, which ordered None against ''
    text = ('{"n": 4, "group": "A", "terms": [{"partition": [4], "mult": "1"}, '
            '{"partition": [2, 2], "sign": null, "mult": "1"}]}')
    with pytest.raises(ValueError, match="bad split tag None"):
        Decomposition.from_json(text)


@pytest.mark.parametrize("sign", [None, 1, []])
def test_decomposition_from_json_checks_tags_before_repeated_labels(sign):
    # once a TypeError from rendering the repeated label, or from hashing a list tag
    data = {"n": 4, "group": "A", "terms": [
        {"partition": [2, 2], "sign": sign, "mult": "1"},
        {"partition": [2, 2], "sign": sign, "mult": "1"},
    ]}
    with pytest.raises(ValueError, match=rf"^bad split tag {re.escape(repr(sign))}$"):
        Decomposition.from_json_dict(data)


def one_term(**entry) -> dict:
    return {"n": 4, "group": "S", "terms": [entry]}


@pytest.mark.parametrize("data, message", [
    (one_term(partition=[[2], 2], mult="1"),
     r"^partition parts must be integers, got \(\[2\], 2\)$"),
    (one_term(partition=4, mult="1"), "^partition parts must be integers, got 4$"),
    (one_term(partition=None, mult="1"), "^partition parts must be integers, got None$"),
    (one_term(partition=[2, 2], mult=None), r"^multiplicities must be integers, got \(None,\)$"),
    (one_term(partition=[2, 2], mult=[1]), r"^multiplicities must be integers, got \(\[1\],\)$"),
    (one_term(partition=[4], mult=float("inf")), r"^multiplicities must be integers, got \(inf,\)$"),
    (one_term(partition=[2, 2]), "^expected a JSON object with the fields partition, mult$"),
    (one_term(mult="1"), "^expected a JSON object with the fields partition, mult$"),
    ({"n": 4, "group": "S"}, "^expected a JSON object with the fields n, group, terms$"),
    ({"n": 4, "group": "S", "terms": 5}, "^the terms must be a list, got int$"),
    ({"n": 4, "group": "S", "terms": [5]}, "^expected a JSON object with the fields partition,"),
    ([{"n": 4, "group": "S", "terms": []}], "^expected a JSON object with the fields n,"),
], ids=["nested partition", "number partition", "null partition", "null mult", "list mult",
        "infinite mult", "no mult", "no partition", "no terms", "number terms", "number term", "list document"])
def test_decomposition_from_json_rejects_malformed_documents(data, message):
    # each once a TypeError, KeyError, AttributeError or OverflowError: all checked first
    with pytest.raises(ValueError, match=message):
        Decomposition.from_json_dict(data)


@pytest.mark.parametrize("n, mult", [(3.7, "2"), (3, 2.9)])
def test_decomposition_from_json_rejects_non_integral_numbers(n, mult):
    # int() once truncated these to n = 3 and mult 2
    data = {"n": n, "group": "S", "terms": [{"partition": [3], "mult": mult}]}
    with pytest.raises(ValueError, match="must be integers"):
        Decomposition.from_json_dict(data)
    data = {"n": 3, "group": "S", "terms": [{"partition": [3], "mult": 2}]}
    assert Decomposition.from_json_dict(data) == Decomposition(3, "S", {Label((3,)): 2})


@pytest.mark.parametrize("text", [
    '{"n": true, "group": "S", "terms": [{"partition": [true], "mult": true}]}',
    '{"n": 1, "group": "S", "terms": [{"partition": [true], "mult": "1"}]}',
    '{"n": 1, "group": "S", "terms": [{"partition": [1], "mult": true}]}',
])
def test_decomposition_from_json_rejects_booleans(text):
    # True == 1, so each of these once loaded as 1*S^{(1)}
    with pytest.raises(ValueError, match="must be integers"):
        Decomposition.from_json(text)


def test_booleans_are_not_integers():
    with pytest.raises(ValueError, match="must be integers"):
        multigraded_dim((True,))  # once 1, the dimension of content (1,)
    with pytest.raises(ValueError, match="must be integers"):
        multigraded_dim((2, False))
    with pytest.raises(ValueError, match="must be integers"):
        codimension(True)
    # numpy's booleans too: each once counted as 1 or 0
    with pytest.raises(ValueError, match="must be integers"):
        multigraded_dim((np.True_, np.True_))
    with pytest.raises(ValueError, match="must be integers"):
        multigraded_dim((2, np.False_))
    with pytest.raises(ValueError, match="must be integers"):
        graded_dim(np.True_, 2)
    with pytest.raises(ValueError, match="must be integers"):
        codimension(np.True_)
    with pytest.raises(ValueError, match="must be integers"):
        sn_decomposition(np.True_)
    assert codimension(np.int64(3)) == codimension(3.0) == codimension(3)


def test_decomposition_terms_are_read_only_and_canonical():
    for dec in (sn_decomposition(6), an_decomposition(6), an_gl_decomposition(6, 3)):
        with pytest.raises(TypeError):
            dec.terms[Label((6,))] = 7
        data = dec.to_json_dict()
        data["terms"].reverse()
        assert Decomposition.from_json_dict(data).to_json() == dec.to_json()
    # canonical order: partitions as generate_partitions, then tags '', '+', '-'
    mixed = Decomposition(4, "A", {
        Label((2, 2), "-"): 1, Label((3, 1)): 7, Label((2, 2), "+"): 1, Label((4,)): 4,
    })
    assert list(mixed.terms) == [
        Label((4,)), Label((3, 1)), Label((2, 2), "+"), Label((2, 2), "-"),
    ]


def test_render_is_paper_style():
    assert sn_decomposition(3).render() == "2*S^{(3)} + 2*S^{(2,1)} + 1*S^{(1,1,1)}"
    assert an_decomposition(5).render("S_A") == (
        "5*S_A^{(5)} + 10*S_A^{(4,1)} + 11*S_A^{(3,2)} + 3*S_A^{(3,1,1)+} + 3*S_A^{(3,1,1)-}")
    assert Decomposition(3, "S", {}).render() == "0"
