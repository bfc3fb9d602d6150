"""Property tests of the closed forms, on deterministic bounded examples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from assosym.algebra import an_decomposition, codimension, colength, sn_decomposition
from assosym.partitions import _conjugate, _specht_dim, generate_partitions

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
