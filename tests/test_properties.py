"""Property tests of the closed forms, on deterministic bounded examples."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from assosym.algebra import (
    an_decomposition,
    an_gl_decomposition,
    codimension,
    colength,
    gl_decomposition,
    multigraded_dim,
    sn_decomposition,
)
from assosym.characters import restrict_to_alternating
from assosym.decomposition import Decomposition, Label
from assosym.oracle import oracle_multiplicities
from assosym.partitions import _conjugate, _kostka, _specht_dim, generate_partitions

# the same examples on every run, and few enough to keep the suite quick
EXACT = settings(derandomize=True, database=None, max_examples=40, deadline=None)

degrees = st.integers(min_value=1, max_value=25)
partitions = st.integers(min_value=0, max_value=25).flatmap(
    lambda n: st.sampled_from(generate_partitions(n)))


@EXACT
@given(degrees)
def test_multiplicities_times_dimensions_sum_to_the_codimension(n):
    dec = sn_decomposition(n)
    assert sum(m * _specht_dim(label.partition) for label, m in dec.terms.items()) \
        == codimension(n)
    assert dec.total_dimension() == codimension(n)


@EXACT
@given(degrees.filter(lambda n: n >= 2))
def test_restriction_to_the_alternating_group_keeps_the_dimension(n):
    assert an_decomposition(n).total_dimension() == codimension(n)


@EXACT
@given(partitions)
def test_conjugation_is_an_involution_that_keeps_the_dimension(lam):
    assert _conjugate(_conjugate(lam)) == lam
    assert _specht_dim(_conjugate(lam)) == _specht_dim(lam)


@EXACT
@given(degrees)
def test_total_multiplicity_is_the_colength(n):
    assert sn_decomposition(n).total_multiplicity() == colength(n)


def assert_same_as_validated(dec):
    """The unchecked store holds what the public constructor would build."""
    rebuilt = Decomposition(dec.n, dec.group, dict(dec.terms))
    assert dec == rebuilt
    assert tuple(dec.terms.items()) == tuple(rebuilt.terms.items())
    assert dec.to_json() == rebuilt.to_json()


@EXACT
@given(degrees, st.integers(min_value=1, max_value=4))
def test_builders_store_what_the_public_constructor_builds(n, m):
    assert_same_as_validated(sn_decomposition(n))
    assert_same_as_validated(gl_decomposition(n, m))
    if n >= 2:
        assert_same_as_validated(an_decomposition(n))
        assert_same_as_validated(an_gl_decomposition(n, m))


@EXACT
@given(st.integers(min_value=1, max_value=5))
def test_oracle_multiplicities_store_what_the_public_constructor_builds(n):
    assert_same_as_validated(oracle_multiplicities(n))


@st.composite
def symmetric_decompositions(draw):
    """Any S_n decomposition that restricts: even multiplicities on self-conjugate labels."""
    n = draw(st.integers(min_value=2, max_value=10))
    labels = draw(st.lists(st.sampled_from(generate_partitions(n)), unique=True))
    return Decomposition(n, "S", {
        Label(lam): draw(st.integers(min_value=1, max_value=5)) * (1 + (_conjugate(lam) == lam))
        for lam in labels
    })


@EXACT
@given(symmetric_decompositions())
def test_restriction_stores_what_the_public_constructor_builds(dec):
    # a label whose larger conjugate is absent is booked out of place before the sort
    assert_same_as_validated(restrict_to_alternating(dec))


def composition(cuts) -> tuple:
    """The composition of len(cuts) + 1 that cuts the row of cells after each True."""
    parts, run = [], 1
    for cut in cuts:
        if cut:
            parts.append(run)
            run = 0
        run += 1
    return (*parts, run)


def partitions_by_compositions(n: int) -> list:
    """The partitions of n as the sorted compositions of n, reverse-lexicographic."""
    found = {tuple(sorted(composition(cuts), reverse=True)) if n else ()
             for cuts in product((False, True), repeat=max(n - 1, 0))}
    return sorted(found, reverse=True)


@EXACT
@given(st.integers(min_value=0, max_value=15))
def test_generate_partitions_lists_every_partition_once_in_order(n):
    listed = generate_partitions(n)
    assert list(listed) == partitions_by_compositions(n)
    assert all(type(part) is int for lam in listed for part in lam)


compositions = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)).map(composition)


@EXACT
@given(compositions)
def test_multiplicities_times_kostka_numbers_give_every_multigraded_dimension(alpha):
    # Schur-Weyl: the component of content alpha, its parts in any order, has dimension
    # sum_lambda m_lambda K_{lambda,alpha}
    terms = sn_decomposition(sum(alpha)).terms
    assert sum(m * _kostka(label.partition, alpha) for label, m in terms.items()) \
        == multigraded_dim(alpha)
