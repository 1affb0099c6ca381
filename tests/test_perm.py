from hypothesis import given
from hypothesis import strategies as st
import pytest

from gonalgeo.errors import ParameterError
from gonalgeo.reference import (
    all_transpositions,
    compose,
    cycle_type,
    identity,
    transposition_perm,
)


@st.composite
def perms(draw, n=1, kmin=1, kmax=7):
    k = draw(st.integers(kmin, kmax))
    out = tuple(tuple(draw(st.permutations(range(1, k + 1)))) for _ in range(n))
    return out[0] if n == 1 else out


def test_identity_and_validation():
    assert identity(1) == (1,)
    assert identity(4) == (1, 2, 3, 4)
    with pytest.raises(ParameterError):
        identity(0)


def test_compose_applies_right_factor_first():
    # p = (1 2), q = (2 3): q sends 2 to 3, then p fixes 3
    p, q = (2, 1, 3), (1, 3, 2)
    assert compose(p, q) == (2, 3, 1)
    assert compose(q, p) == (3, 1, 2)
    with pytest.raises(ParameterError):
        compose((1, 2), (1, 2, 3))


def test_cycle_type_includes_fixed_points():
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((2, 1, 4, 3, 5)) == (2, 2, 1)
    assert cycle_type(()) == ()


def test_transposition_perm():
    assert transposition_perm(4, (2, 4)) == (1, 4, 3, 2)
    assert transposition_perm(2, (1, 2)) == (2, 1)
    for bad in [(2, 1), (0, 2), (1, 5), (3, 3)]:
        with pytest.raises(ParameterError):
            transposition_perm(4, bad)


def test_all_transpositions():
    assert all_transpositions(3) == [(1, 2), (1, 3), (2, 3)]
    for k in range(2, 8):
        ts = all_transpositions(k)
        assert len(ts) == k * (k - 1) // 2
        assert ts == sorted(ts)
        assert all(1 <= a < b <= k for a, b in ts)
    with pytest.raises(ParameterError):
        all_transpositions(1)


@given(perms(n=3))
def test_compose_is_associative(ps):
    p, q, r = ps
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms())
def test_cycle_type_is_a_partition_of_the_degree(p):
    ct = cycle_type(p)
    assert sum(ct) == len(p)
    assert list(ct) == sorted(ct, reverse=True)

