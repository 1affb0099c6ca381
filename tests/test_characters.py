"""Character oracle tests.

The oracle is the independent check for every enumerated count, so this
file pins it down hard: the full S_3 table by hand, dimension and
orthogonality facts for larger degrees, a brute-force tuple count it
must match, and the frozen values the rest of the suite leans on.
"""

import re
from fractions import Fraction
from itertools import product
from math import comb, factorial

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
from gonalgeo.covers import count_tuples, oracle_products
from gonalgeo.errors import InvariantViolation, ParameterError
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
    with pytest.raises(ParameterError):
        disconnected_count(3, 3)
    with pytest.raises(ParameterError):
        disconnected_count(1, 4)
    with pytest.raises(ParameterError):
        connected_count(3, -2)


def brute_force_counts(k: int, b: int, moved: int = 0) -> tuple[int, int]:
    """Tuple counts straight from the definition, of the tuples whose
    product moves ``moved`` symbols: the identity for 0, a 3-cycle for 3;
    exponential, tiny only."""
    trans = [transposition_perm(k, t) for t in all_transpositions(k)]
    total = 0
    connected = 0
    for combo in product(range(len(trans)), repeat=b):
        acc = identity(k)
        for t in combo:
            acc = compose(acc, trans[t])
        if sum(x != y for x, y in zip(acc, identity(k))) != moved:
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


def test_three_cycle_counts_match_brute_force():
    # T3(k, m), the transitive m-tuples whose product is a 3-cycle; none
    # below length 2k - 4, and empty below degree 3
    assert characters._three_cycle_terms(2) == ()
    for k, m in [(3, 0), (3, 2), (3, 4), (3, 6), (4, 2), (4, 4), (4, 6)]:
        _total, connected = brute_force_counts(k, m, moved=3)
        assert characters._evaluate(characters._three_cycle_terms(k), k, m) == connected, (k, m)


def test_term_tables_are_checked_against_minimal_factorizations():
    # Hurwitz's (2k - 2)! k^(k - 3) for the identity and 27 C(k, 3)
    # (2k - 4)! k^(k - 5) for the 3-cycles, with nothing shorter
    for memo in (characters._connected_terms, characters._three_cycle_terms):
        memo.cache_clear()
    for k in range(1, 13):
        characters._connected_terms(k)
        characters._three_cycle_terms(k)
    assert characters._evaluate(characters._three_cycle_terms(12), 12, 20) == (
        27 * comb(12, 3) * factorial(20) * 12**7
    )
    for kind, memo in (("connected", characters._connected_terms), ("three-cycle", characters._three_cycle_terms)):
        (w, f), *rest = memo(5)
        with pytest.raises(InvariantViolation, match=f"{kind} terms of degree 5 fail no tuples of length 0"):
            characters._check_least(kind, 5, ((w + 1, f), *rest))
    # doubled weights still vanish below the least length, and break the minimal identity alone
    doubled = tuple((2 * w, f) for w, f in characters._three_cycle_terms(5))
    with pytest.raises(InvariantViolation, match=re.escape("5 fail 27 C(k, 3) (2k - 4)! k^k / k^5 tuples of length 6")):
        characters._check_least("three-cycle", 5, doubled)


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
    for k in range(2, 26):
        assert connected_count(k, 2 * k - 2) * k**3 == factorial(2 * k - 2) * k**k, k


def genus_one_times_24(k: int) -> int:
    """24 Conn(k, 2k), the genus-1 simple Hurwitz count (Goulden and
    Jackson; Vakil): (2k)! (k^k - k^(k-1) - sum over 2 <= i <= k of
    (i - 2)! C(k, i) k^(k-i))."""
    tail = sum(factorial(i - 2) * comb(k, i) * k ** (k - i) for i in range(2, k + 1))
    return factorial(2 * k) * (k**k - k ** (k - 1) - tail)


def test_genus_one_counts_match_the_closed_form():
    # a third source beside the oracle and the walk, at every degree either reaches
    for k in range(2, 26):
        assert 24 * connected_count(k, 2 * k) == genus_one_times_24(k), k
    for k in range(2, 12):
        assert 24 * count_tuples(k, 2 * k) == genus_one_times_24(k), k


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


def table_count(k: int, b: int) -> int:
    """D(k, b) from the class-algebra sum over the character table:
    (|C|^b / k!) * sum of chi(tau)^b * dim^(2 - b)."""
    table = character_table(k)
    tau = table.classes.index((2,) + (1,) * (k - 2))
    acc = sum(Fraction(row[tau] ** b * dim**2, dim**b) for row, dim in zip(table.rows, table.dims))
    value = Fraction(comb(k, 2) ** b, factorial(k)) * acc
    assert value.denominator == 1, (k, b)
    return int(value)


def test_content_terms_match_the_character_table():
    for k in range(2, 13):
        table = character_table(k)
        tau = table.classes.index((2,) + (1,) * (k - 2))
        terms = characters._content_terms(k)
        assert len(terms) == len(partitions_of(k))
        for (sq, f), row, dim in zip(terms, table.rows, table.dims):
            assert sq == dim * dim
            assert f * dim == comb(k, 2) * row[tau]
        for b in range(0, 31, 2):
            assert disconnected_count(k, b) == table_count(k, b), (k, b)


def test_oracle_counts_past_the_table_bound():
    # the oracle has no degree bound: at degree 13 the block walk checks
    # the connected count and the reference table of S_13 the disconnected one
    assert connected_count(13, 24) == count_tuples(13, 24)
    assert disconnected_count(13, 24) == table_count(13, 24)


def test_the_oracle_price_covers_the_products_it_forms():
    # content terms of every degree d <= k, the peel's products for each
    # j < d, and one power per connected term of degree k
    formed = 0
    for k in range(1, 31):
        formed += len(partitions_of(k)) + sum(
            len(characters._connected_terms(j)) * len(partitions_of(k - j)) for j in range(1, k)
        )
        assert oracle_products(k) >= formed + len(characters._connected_terms(k)), k


def test_a_cold_count_builds_no_character_table():
    for memo in (
        characters._connected_terms,
        characters._content_terms,
        characters._build_table,
        characters._chi,
    ):
        memo.cache_clear()
    connected_count(12, 26)
    assert characters._content_terms.cache_info().currsize == 12
    assert characters._build_table.cache_info().currsize == 0
    assert characters._chi.cache_info().currsize == 0


def test_the_connected_memo_is_keyed_by_degree_alone():
    characters._connected_terms.cache_clear()
    for b in range(22, 401, 2):
        connected_count(12, b)
    assert characters._connected_terms.cache_info().currsize <= 12


def test_connected_counts_at_large_b_match_the_walk():
    assert connected_count(4, 400) == count_tuples(4, 400)
    assert connected_count(6, 120) == count_tuples(6, 120)


@pytest.mark.parametrize("k", range(3, 7))
def test_a_perturbed_connected_weight_is_caught(monkeypatch, k):
    terms = characters._connected_terms(k)

    def caught(b: int) -> bool:
        # a term with f = 0 moves only the count at b = 0, where no tuple is transitive
        want = count_tuples(k, b) if b else 0
        try:
            return connected_count(k, b) != want
        except InvariantViolation:
            return True

    for i, (w, f) in enumerate(terms):
        skewed = terms[:i] + ((w + 1, f),) + terms[i + 1:]
        monkeypatch.setattr(characters, "_connected_terms", lambda d: skewed)
        assert any(caught(b) for b in (0, *range(2 * k - 2, 2 * k + 4, 2))), (k, f)


SUM_SQUARES, FIRST_MOMENT, SECOND_MOMENT = (
    "sum dim^2 = k!",
    "sum dim^2 f = 0",
    "sum dim^2 f^2 = k! C(k, 2)",
)


@pytest.mark.parametrize("lam, cell, hook, failing", [
    # (2, 2) has content sum 0: only the count of squares moves
    ((2, 2), 0, 6, {SUM_SQUARES}),
    ((3, 1), 1, 1, {SUM_SQUARES, FIRST_MOMENT, SECOND_MOMENT}),
    ((4,), 0, 2, {SUM_SQUARES, FIRST_MOMENT, SECOND_MOMENT}),
])
def test_content_terms_reject_a_skewed_hook_length(monkeypatch, lam, cell, hook, failing):
    hooks = characters._hook_lengths

    def skewed(mu):
        out = hooks(mu)
        if mu == lam:
            out[cell] = hook
        return out

    monkeypatch.setattr(characters, "_hook_lengths", skewed)
    with pytest.raises(InvariantViolation, match="content-sum terms of degree 4") as exc:
        characters._content_terms.__wrapped__(4)
    named = {name for name in (SUM_SQUARES, FIRST_MOMENT, SECOND_MOMENT) if name in str(exc.value)}
    assert named == failing


def test_content_terms_reject_a_hook_product_that_does_not_divide(monkeypatch):
    hooks = characters._hook_lengths
    monkeypatch.setattr(
        characters, "_hook_lengths", lambda mu: [5] + hooks(mu)[1:] if mu == (3, 1) else hooks(mu)
    )
    with pytest.raises(InvariantViolation, match=r"hook lengths of \(3, 1\)"):
        characters._content_terms.__wrapped__(4)
