"""Acceptance suite: every criterion below prints its own PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The optional degree-6
modular run is long; opt in with ``ASSOSYM_ACCEPT_N6=1``.
"""

import os
import subprocess
import sys
import time
from math import factorial

import pytest

import assosym
from assosym.algebra import (
    an_decomposition,
    codimension,
    colength,
    gl_decomposition,
    graded_dim,
    multigraded_dim,
    sn_decomposition,
)
from assosym.characters import character_table, class_size, involution_count
from assosym.decomposition import Label
from assosym.oracle import (
    oracle_multiplicities,
    quotient_dim,
    quotient_dim_multigraded,
)
from assosym.partitions import (
    generate_partitions,
    specht_dim,
    syt_count_bruteforce,
    weyl_dim,
)

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(assosym.__file__)))

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


def _report(number: str, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_symmetric_group_golden_tables():
    start = time.monotonic()
    for n, table in SN_TABLES.items():
        assert sn_decomposition(n).terms == table, f"P_{n} mismatch"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("1", f"S_n tables for n=1..5 reproduced exactly ({elapsed:.3f}s)")


def test_criterion_02_alternating_group_golden_tables():
    start = time.monotonic()
    for n, table in AN_TABLES.items():
        assert an_decomposition(n).terms == table, f"A_{n} table mismatch"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("2", f"A_n tables for n=2..5 with +/- splits reproduced ({elapsed:.3f}s)")


def test_criterion_03_colength_sequence():
    values = [colength(n) for n in range(1, 6)]
    assert values == [1, 2, 5, 13, 32]
    _report("3", "colengths l_1..l_5 = 1, 2, 5, 13, 32")


def test_criterion_04_dimension_consistency_to_degree_30():
    start = time.monotonic()
    for n in range(1, 31):
        total = sum(
            mult * specht_dim(label.partition)
            for label, mult in sn_decomposition(n).terms.items()
        )
        closed = factorial(n) + 2**n - (n + 1) * n // 2 - 1
        assert total == closed == codimension(n), f"degree {n}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("4", f"sum mult*d_lambda = n!+2^n-C(n+1,2)-1 for n<=30 ({elapsed:.1f}s)")


def test_criterion_05_oracle_dimensions():
    start = time.monotonic()
    expected = {2: 2, 3: 7, 4: 29, 5: 136}
    for n, value in expected.items():
        dim = quotient_dim(n)
        assert dim == value == codimension(n), f"degree {n}: {dim}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("5", f"quotient dims 2, 7, 29, 136 certified rationally ({elapsed:.1f}s)")


@pytest.mark.skipif(
    not os.environ.get("ASSOSYM_ACCEPT_N6"),
    reason="optional degree-6 modular run (tens of minutes); set ASSOSYM_ACCEPT_N6=1",
)
def test_criterion_05_optional_degree_6():
    start = time.monotonic()
    dim = quotient_dim(6)
    elapsed = time.monotonic() - start
    assert dim == 762 == codimension(6)
    _report("5 (optional)", f"quotient_dim(6) = 762, modular only ({elapsed:.0f}s)")


def test_criterion_06_oracle_multiplicities():
    start = time.monotonic()
    for n in (3, 4, 5):
        assert oracle_multiplicities(n).terms == sn_decomposition(n).terms
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("6", f"oracle multiplicities match for n=3,4,5 ({elapsed:.1f}s)")


def test_criterion_07_gl_cross_check():
    assert graded_dim(3, 2) == 12
    for n in range(1, 13):
        for r in range(1, 6):
            total = sum(
                mult * weyl_dim(label.partition, r)
                for label, mult in gl_decomposition(n, r).terms.items()
            )
            assert total == graded_dim(n, r), f"(n, r) = ({n}, {r})"
    _report("7", "sum mult*weyl_dim = graded dimension for n<=12, r<=5")


def test_criterion_08_multigraded_oracle():
    def positive_multidegrees(total):
        for length in range(1, total + 1):
            def go(rem, parts_left):
                if parts_left == 1:
                    yield (rem,)
                    return
                for first in range(1, rem - parts_left + 2):
                    for rest in go(rem - first, parts_left - 1):
                        yield (first,) + rest
            if length <= total:
                yield from go(total, length)

    start = time.monotonic()
    checked = 0
    for total in range(1, 6):
        for content in positive_multidegrees(total):
            assert quotient_dim_multigraded(content) == multigraded_dim(content), content
            checked += 1
    assert quotient_dim_multigraded((2, 1)) == 4
    assert quotient_dim_multigraded((3,)) == 2
    assert quotient_dim_multigraded((1, 1, 1)) == 7
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("8", f"{checked} multidegrees with total <= 5 match the oracle ({elapsed:.1f}s)")


def test_criterion_09_representation_theory_substrate():
    for n in range(1, 9):
        classes = generate_partitions(n)
        sizes = [class_size(mu) for mu in classes]
        table = character_table(n)
        for i in range(len(table)):
            for j in range(i, len(table)):
                dot = sum(s * a * b for s, a, b in zip(sizes, table[i], table[j]))
                assert dot == (factorial(n) if i == j else 0)
    for n in range(1, 10):
        for lam in generate_partitions(n):
            assert specht_dim(lam) == syt_count_bruteforce(lam)
    for n in range(1, 11):
        assert involution_count(n) == sum(
            specht_dim(lam) for lam in generate_partitions(n)
        )
    _report("9", "orthogonality n<=8, SYT counts n<=9, involution identity n<=10")


def test_criterion_10_determinism_of_verify_reports():
    outputs = []
    for seed in ("0", "1337"):
        # the child imports the same package as this process, installed or not
        path = os.pathsep.join(filter(None, (SRC_ROOT, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "assosym.cli", "verify", "--n", "5"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b"PASS" in outputs[0]
    _report("10", "two `verify --n 5` runs are byte-identical across hash seeds")
