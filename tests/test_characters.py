"""Character oracle tests.

The oracle is the independent check for every enumerated count, so this
file pins it down hard: the full S_3 table by hand, dimension and
orthogonality facts for larger degrees, a brute-force tuple count it
must match, and the frozen values the rest of the suite leans on.
"""

from itertools import product
from math import factorial

import pytest

from gonalgeo import characters
from gonalgeo.characters import (
    CharacterTable,
    centralizer_order,
    character_table,
    connected_count,
    disconnected_count,
    partitions_of,
)
from gonalgeo.errors import CapacityError, InvariantViolation, ParameterError
from gonalgeo.perm import all_transpositions, compose, identity, transposition_perm


def test_partitions_of():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(5)) == 7
    assert len(partitions_of(10)) == 42
    with pytest.raises(ParameterError):
        partitions_of(-1)


def test_partitions_are_descending_and_complete():
    for n in range(1, 9):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        for mu in parts:
            assert sum(mu) == n
            assert list(mu) == sorted(mu, reverse=True)
        assert list(parts) == sorted(parts, reverse=True)


def test_centralizer_orders_sum_to_group_order():
    for k in range(1, 8):
        total = sum(factorial(k) // centralizer_order(mu) for mu in partitions_of(k))
        assert total == factorial(k)
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 2)) == 8


def test_s3_table_by_hand():
    table = character_table(3)
    assert isinstance(table, CharacterTable)
    assert table.classes == ((3,), (2, 1), (1, 1, 1))
    assert table.class_sizes == (2, 3, 1)
    # trivial, standard, sign
    assert table.rows == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))
    assert table.dims == (1, 2, 1)
    assert table.chi((2, 1), (2, 1)) == 0
    assert table.chi((1, 1, 1), (2, 1)) == -1


def test_dimension_facts():
    # hook lengths for S_5, plus sum-of-squares for every cached degree
    assert character_table(5).dims == (1, 4, 5, 6, 5, 4, 1)
    for k in range(2, 8):
        table = character_table(k)
        assert sum(d * d for d in table.dims) == factorial(k)
        assert all(d >= 1 for d in table.dims)


def test_capacity_and_parameter_errors():
    with pytest.raises(ParameterError):
        character_table(0)
    with pytest.raises(CapacityError):
        character_table(13)
    with pytest.raises(CapacityError):
        character_table(6, max_degree=5)
    with pytest.raises(ParameterError):
        disconnected_count(3, 3)
    with pytest.raises(ParameterError):
        disconnected_count(1, 4)
    with pytest.raises(ParameterError):
        connected_count(3, -2)


def brute_force_counts(k: int, b: int) -> tuple[int, int]:
    """Tuple counts straight from the definition; exponential, tiny only."""
    trans = [transposition_perm(k, t) for t in all_transpositions(k)]
    total = 0
    connected = 0
    for combo in product(range(len(trans)), repeat=b):
        acc = identity(k)
        for t in combo:
            acc = compose(acc, trans[t])
        if acc != identity(k):
            continue
        total += 1
        seen = {1}
        frontier = [1]
        while frontier:
            x = frontier.pop()
            for t in combo:
                y = trans[t][x - 1]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) == k:
            connected += 1
    return total, connected


def test_oracle_matches_brute_force():
    for k, b in [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6), (4, 4)]:
        total, connected = brute_force_counts(k, b)
        assert disconnected_count(k, b) == total, (k, b)
        assert connected_count(k, b) == connected, (k, b)


def test_frozen_disconnected_counts():
    assert disconnected_count(3, 4) == 27
    assert disconnected_count(4, 0) == 1
    assert disconnected_count(4, 10) == 5039616
    assert disconnected_count(5, 8) == 1770940
    for b in range(2, 14, 2):
        assert disconnected_count(2, b) == 1


def test_frozen_connected_counts():
    for b in range(2, 14, 2):
        assert connected_count(2, b) == 1
    assert connected_count(3, 4) == 24
    assert connected_count(3, 6) == 240
    assert connected_count(3, 8) == 2184
    assert connected_count(3, 10) == 19680
    assert connected_count(4, 6) == 2880
    assert connected_count(4, 8) == 131040
    assert connected_count(4, 10) == 4959360
    assert connected_count(5, 8) == 1008000


def test_connected_never_exceeds_disconnected():
    for k in range(2, 6):
        for b in range(0, 12, 2):
            assert 0 <= connected_count(k, b) <= disconnected_count(k, b)
    # too few transpositions to join all sheets
    assert connected_count(4, 4) == 0
    assert connected_count(3, 2) == 0


def test_genus_zero_counts_are_hurwitz_up_to_the_oracle_bound():
    # b = 2k - 2 branch points give a genus-0 cover: (2k - 2)! k^(k - 3)
    for k in range(2, 13):
        assert connected_count(k, 2 * k - 2) * k**3 == factorial(2 * k - 2) * k**k, k


@pytest.mark.parametrize("bad", [((4,), (4,)), ((2, 2), (3, 1)), ((1, 1, 1, 1), (2, 1, 1))])
def test_table_build_rejects_a_wrong_entry(monkeypatch, bad):
    # each orthogonality pair is checked once; a single wrong character
    # value, in the first, a middle or the last row, must still be caught
    chi = characters._chi

    def skewed(lam, mu):
        return chi(lam, mu) + ((lam, mu) == bad)

    monkeypatch.setattr(characters, "_chi", skewed)
    with pytest.raises(InvariantViolation, match="orthogonality"):
        characters._build_table.__wrapped__(4)
