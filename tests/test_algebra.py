import pytest

from assosym.algebra import (
    an_decomposition,
    an_gl_decomposition,
    basis_count_direct,
    cocharacter,
    codimension,
    colength,
    gl_decomposition,
    graded_dim,
    multigraded_dim,
    sn_decomposition,
    two_row_multiplicity,
)
from assosym.characters import restrict_to_alternating
from assosym.decomposition import Decomposition, Label
from assosym.partitions import generate_partitions, specht_dim, weyl_dim

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


def test_basis_count_direct_values():
    assert basis_count_direct(3, 1) == 2
    assert basis_count_direct(3, 2) == 12
    assert basis_count_direct(4, 1) == 3


def test_basis_count_direct_matches_formula():
    for n in range(1, 9):
        for r in range(1, 5):
            assert basis_count_direct(n, r) == graded_dim(n, r)
    with pytest.raises(ValueError):
        basis_count_direct(9, 2)


def test_decomposition_json_round_trip():
    for dec in (sn_decomposition(4), an_decomposition(5), gl_decomposition(3, 2)):
        text = dec.to_json()
        back = Decomposition.from_json(text)
        assert back == dec
        assert back.to_json() == text


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
