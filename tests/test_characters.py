"""Character oracle tests.

The oracle is the independent check for every enumerated count, so this
file pins it down hard: the full S_3 table by hand, dimension and
orthogonality facts for larger degrees, a brute-force tuple count it
must match, and the frozen values the rest of the suite leans on.
"""

import hashlib
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from gonalgeo import characters, reference
from gonalgeo.characters import connected_count, disconnected_count, partitions_of
from gonalgeo.covers import oracle_products
from gonalgeo.errors import InvariantViolation, ParameterError
from gonalgeo.reference import (
    CharacterTable,
    all_transpositions,
    centralizer_order,
    character_table,
    compose,
    count_tuples,
    identity,
    transposition_perm,
)


def test_partitions_of():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(5)) == 7
    assert len(partitions_of(10)) == 42
    with pytest.raises(ParameterError):
        partitions_of(-1)


def test_partitions_are_descending_and_complete():
    # p(n) by coin change over the part sizes 1 .. 25
    counts = [1] + [0] * 25
    for part in range(1, 26):
        for n in range(part, 26):
            counts[n] += counts[n - part]
    for n in range(1, 26):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts) == counts[n]
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
    empty = characters._three_cycle_terms(2)
    assert (empty, empty.k) == ({}, 2)
    for k, m in [(3, 0), (3, 2), (3, 4), (3, 6), (4, 2), (4, 4), (4, 6)]:
        _total, connected = brute_force_counts(k, m, moved=3)
        assert characters._three_cycle_terms(k).count(m) == connected, (k, m)


def test_term_tables_are_checked_against_minimal_factorizations():
    # Hurwitz's (2k - 2)! k^(k - 3) for the identity and 27 C(k, 3)
    # (2k - 4)! k^(k - 5) for the 3-cycles, with nothing shorter
    for memo in (characters._connected_terms, characters._three_cycle_terms):
        memo.cache_clear()
    for k in range(1, 13):
        characters._connected_terms(k)
        characters._three_cycle_terms(k)
    assert characters._three_cycle_terms(12).count(20) == 27 * comb(12, 3) * factorial(20) * 12**7
    for kind, memo in (("connected", characters._connected_terms), ("three-cycle", characters._three_cycle_terms)):
        with pytest.raises(InvariantViolation, match=f"{kind} terms of degree 5 fail no tuples of length 0"):
            characters._check_least(kind, skew(memo(5), min(memo(5)), 1))
    # doubled weights still vanish below the least length, and break the minimal identity alone
    doubled = characters.ExpSum(5, ((f, 2 * w) for f, w in characters._three_cycle_terms(5).items()))
    with pytest.raises(InvariantViolation, match=re.escape("5 fail 27 C(k, 3) (2k - 4)! k^k / k^5 tuples of length 6")):
        characters._check_least("three-cycle", doubled)


def skew(terms, f, extra):
    """``terms`` with ``extra`` more weight at exponent f, as a sum of the same degree."""
    return characters.ExpSum(terms.k, {**terms, f: terms.get(f, 0) + extra}.items())


def test_the_tables_to_degree_30_are_pinned():
    # one SHA-256 over the sorted (f, w) pairs of D, A, W, T3 and E for
    # k = 1 ... 30, a form that does not depend on how a table is stored,
    # so it was recorded before the tables became ExpSums; the
    # character-table tests pin them only to k = 12
    digest = hashlib.sha256()
    for k in range(1, 31):
        for table in (*characters._content_terms(k), characters._connected_terms(k),
                      characters._three_cycle_terms(k), characters._equal_pair_terms(k)):
            assert table.k == k
            digest.update(repr(sorted(table.items())).encode())
    assert digest.hexdigest() == "119c8c1e637e12a65ee2d3d815ac5fbcb0643ac773553dd4a22be27a0bae6a4e"


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
    chi = reference._chi

    def skewed(lam, mu):
        return chi(lam, mu) + ((lam, mu) == bad)

    monkeypatch.setattr(reference, "_chi", skewed)
    with pytest.raises(InvariantViolation, match="orthogonality"):
        reference._build_table.__wrapped__(4)


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
    # D_k weighs each content sum f by the dim^2 of the irreducibles whose
    # central character at the transpositions is f, and A_k by dim^2 times
    # their central character at the 3-cycles, dim |C3| chi(3-cycle)
    for k in range(2, 13):
        table = character_table(k)
        tau = table.classes.index((2,) + (1,) * (k - 2))
        three = table.classes.index((3,) + (1,) * (k - 3)) if k >= 3 else None
        squares, heads = characters._content_terms(k)
        want_squares, want_heads = Counter(), Counter()
        for row, dim in zip(table.rows, table.dims):
            f, rem = divmod(comb(k, 2) * row[tau], dim)
            assert rem == 0, (k, row)
            want_squares[f] += dim * dim
            if three is not None:
                want_heads[f] += dim * table.class_sizes[three] * row[three]
        # the reference weighs f and -f alike, and the tables keep it folded
        # onto f >= 0: w(0), and w(f) + w(-f) for f > 0
        for want, got in ((want_squares, squares), (want_heads, heads)):
            assert all(w == want[-f] for f, w in want.items()), k
            assert got == {f: w * (2 if f else 1) for f, w in want.items() if f >= 0 and w} and got.k == k, k
        for b in range(0, 31, 2):
            assert disconnected_count(k, b) == table_count(k, b), (k, b)


def cut_and_join(k: int, top: int) -> list[dict[tuple[int, ...], int]]:
    """Source B, with no character in sight: for b = 0 .. top, the b-tuples
    of transpositions in S_k counted by the cycle type of their product.
    A transposition cuts a cycle of length l into lengths (a, l - a) in l
    ways, l / 2 when 2a = l, and joins cycles of lengths l1 and l2 in l1 l2."""
    counts = [{(1,) * k: 1}]
    for _ in range(top):
        step: dict[tuple[int, ...], int] = {}
        for mu, n in counts[-1].items():
            for i, l in enumerate(mu):
                rest = mu[:i] + mu[i + 1:]
                for a in range(1, l // 2 + 1):
                    nu = tuple(sorted(rest + (a, l - a), reverse=True))
                    step[nu] = step.get(nu, 0) + n * (l // 2 if 2 * a == l else l)
                for i2 in range(i + 1, len(mu)):
                    nu = tuple(sorted(rest[:i2 - 1] + rest[i2:] + (l + mu[i2],), reverse=True))
                    step[nu] = step.get(nu, 0) + n * l * mu[i2]
        counts.append(step)
    return counts


def test_source_b_cut_and_join_matches_the_term_tables():
    # D(k, b) and TD(k, b), the tuples with identity and with 3-cycle
    # product, from source B; the connected Conn and T3 peel the block of
    # symbol 1, or of the 3-cycle's support, off in count space.  This
    # checks the class-algebra tables past the walk's reach
    top, degrees = 38, range(1, 17)
    lengths = range(0, top + 1, 2)
    d, td, conn, t3 = {}, {}, {}, {}
    for k in degrees:
        counts = cut_and_join(k, top)
        d[k] = {b: counts[b].get((1,) * k, 0) for b in lengths}
        td[k] = {b: counts[b].get((3,) + (1,) * (k - 3), 0) if k >= 3 else 0 for b in lengths}

    def peel(k, b, total, table, blocks, choose):
        return total - sum(
            choose(j) * comb(b, beta) * table[j][beta] * d[k - j][b - beta]
            for j in blocks for beta in range(0, b + 1, 2)
        )

    for k in degrees:
        conn[k] = {b: peel(k, b, d[k][b], conn, range(1, k), lambda j: comb(k - 1, j - 1)) for b in lengths}
        t3[k] = {b: peel(k, b, td[k][b], t3, range(3, k), lambda j: comb(k, j)) for b in lengths}
    for k in degrees[1:]:
        for b in lengths:
            assert d[k][b] == disconnected_count(k, b), (k, b)
            assert conn[k][b] == connected_count(k, b), (k, b)
            assert t3[k][b] == characters._three_cycle_terms(k).count(b), (k, b)


def test_every_table_is_folded_onto_nonnegative_exponents():
    # the price reads at most C(k, 2) + 1 terms per table, one per exponent
    # f = 0 .. C(k, 2); every weight at f > 0 is w(f) + w(-f) = 2 w(f), even,
    # which keeps each halving in the peel exact
    for k in range(2, 31):
        squares, heads = characters._content_terms(k)
        for terms in (squares, heads, characters._connected_terms(k), characters._three_cycle_terms(k)):
            assert len(terms) <= comb(k, 2) + 1 and terms.k == k, k
            assert all(0 <= f <= comb(k, 2) and w and (f == 0 or w % 2 == 0) for f, w in terms.items()), k


def test_a_negative_count_is_named_a_class_algebra_count():
    # D, T3 and the census's split cells are read through the same evaluation
    with pytest.raises(InvariantViolation, match=re.escape("class-algebra count for (3, 0) went negative")):
        characters.ExpSum(3, [(0, -6)]).count(0)
    with pytest.raises(InvariantViolation, match=re.escape("class-algebra count for (3, 2) not integral")):
        characters.ExpSum(3, [(1, 1)]).count(2)


def test_oracle_counts_past_the_table_bound():
    # the oracle has no degree bound: at degree 13 the block walk checks
    # the connected count and the reference table of S_13 the disconnected one
    assert connected_count(13, 24) == count_tuples(13, 24)
    assert disconnected_count(13, 24) == table_count(13, 24)


def test_the_oracle_price_covers_the_products_it_forms():
    # one pass over the partitions of every degree d <= k, the peel's
    # products with the exponent-summed D_{d-j} for each j < d, the k power
    # sums that check the degree-k table, and one power per connected term
    # of degree k
    formed = 0
    for k in range(1, 31):
        formed += len(partitions_of(k)) + sum(
            len(characters._connected_terms(j)) * len(characters._content_terms(k - j)[0]) for j in range(1, k)
        ) + k * len(characters._connected_terms(k))
        assert oracle_products(k) >= formed + len(characters._connected_terms(k)), k


def test_a_cold_count_builds_no_character_table():
    for memo in (
        characters._connected_terms,
        characters._content_terms,
        reference._build_table,
        reference._chi,
    ):
        memo.cache_clear()
    connected_count(12, 26)
    assert characters._content_terms.cache_info().currsize == 12
    assert reference._build_table.cache_info().currsize == 0
    assert reference._chi.cache_info().currsize == 0


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

    for f in terms:
        skewed = skew(terms, f, 1)
        monkeypatch.setattr(characters, "_connected_terms", lambda d: skewed)
        assert any(caught(b) for b in (0, *range(2 * k - 2, 2 * k + 4, 2))), (k, f)


@pytest.mark.parametrize("k", range(2, 31))
def test_the_equal_pair_table_holds_its_least_counts(k):
    # zero below length 2k - 4, and at it two minimal blocks joined by t,
    # each counted by Hurwitz; k! more weight on one exponent moves the
    # count at length 0 and breaks them
    terms = characters._equal_pair_terms(k)
    assert characters._check_least("equal-pair", terms) == terms
    for f in {min(terms), max(terms)}:
        with pytest.raises(InvariantViolation, match=f"equal-pair terms of degree {k} fail"):
            characters._check_least("equal-pair", skew(terms, f, factorial(k)))


SUM_SQUARES, P_K, SECOND_MOMENT = (
    "sum dim^2 = k!",
    "weights sum to p(k)",
    "sum dim^2 f^2 = k! C(k, 2)",
)


@pytest.mark.parametrize("k", range(1, 21))
def test_the_walk_visits_each_diagram_no_taller_than_wide_once(k):
    # the walk's rows are exactly the partitions with lam_1 >= l(lam), and a
    # diagram weighs 2 exactly when its conjugate is not among them: where
    # lam_1 = l(lam), as for (3, 2, 2) and (3, 3, 1), both are walked
    walked = Counter()
    for cols, *_, weight in characters._diagrams(k):
        walked[characters._rows(cols)] += weight
    assert walked == {lam: 2 if lam[0] > len(lam) else 1 for lam in partitions_of(k) if lam[0] >= len(lam)}
    assert sum(walked.values()) == len(partitions_of(k))


@pytest.mark.parametrize("copies", [0, 2], ids=["dropped", "doubled"])
def test_content_terms_count_the_weights_against_p(monkeypatch, copies):
    # (2, 2) is self-conjugate with content sum 0: dropping it or walking it
    # twice keeps the second moment and moves the weights and the squares
    diagrams = characters._diagrams

    def skewed(k):
        for row in diagrams(k):
            yield from [row] * (copies if characters._rows(row[0]) == (2, 2) else 1)

    monkeypatch.setattr(characters, "_diagrams", skewed)
    with pytest.raises(InvariantViolation, match="content-sum terms of degree 4 fail") as exc:
        characters._content_terms.__wrapped__(4)
    assert named_rules(exc) == {P_K, SUM_SQUARES}


def skew_diagram(monkeypatch, lam, field, change):
    """Make ``_diagrams`` yield the row of ``lam`` with its ``field`` (1 the hook
    product, 2 the content sum, 3 the squared-content sum) passed through ``change``."""
    diagrams = characters._diagrams

    def skewed(k):
        for row in diagrams(k):
            if characters._rows(row[0]) == lam:
                row = (*row[:field], change(row[field]), *row[field + 1:])
            yield row

    monkeypatch.setattr(characters, "_diagrams", skewed)


def named_rules(exc) -> set[str]:
    return {name for name in (SUM_SQUARES, P_K, SECOND_MOMENT) if name in str(exc.value)}


@pytest.mark.parametrize("lam, cell, hook, failing", [
    # (2, 2) is its own conjugate, with content sum 0: only the count of squares moves
    ((2, 2), 0, 6, {SUM_SQUARES}),
    # (3, 1) and (4,) weigh D_4 at f = 2 and 6 for their conjugates too, so
    # the count of squares and the second moment both move
    ((3, 1), 1, 1, {SUM_SQUARES, SECOND_MOMENT}),
    ((4,), 0, 2, {SUM_SQUARES, SECOND_MOMENT}),
])
def test_content_terms_reject_a_skewed_hook_length(monkeypatch, lam, cell, hook, failing):
    # the hook product as if the hook of the cell-th cell, row by row, were ``hook``
    hooks = [row - j + sum(part > j for part in lam) - i - 1 for i, row in enumerate(lam) for j in range(row)]
    skew_diagram(monkeypatch, lam, 1, lambda product: product // hooks[cell] * hook)
    with pytest.raises(InvariantViolation, match="content-sum terms of degree 4") as exc:
        characters._content_terms.__wrapped__(4)
    assert named_rules(exc) == failing


@pytest.mark.parametrize("lam", [(2, 2), (3, 1)])
def test_content_terms_reject_a_skewed_content_sum(monkeypatch, lam):
    # every weight stays, so the count of squares holds and the second
    # moment moves; the tables are folded onto |f| as they are built, so no
    # rule asks them to be even
    skew_diagram(monkeypatch, lam, 2, lambda f: f + 1)
    with pytest.raises(InvariantViolation, match="content-sum terms of degree 4") as exc:
        characters._content_terms.__wrapped__(4)
    assert named_rules(exc) == {SECOND_MOMENT}


@pytest.mark.parametrize("lam, failing", [
    # the squared-content sum weighs only A_k, which no rule checks when it
    # is built, so the 3-cycle table's own rules catch it: (2, 2) at length
    # 0, and (3, 1), weighed for its conjugate too, at every length to 4
    ((2, 2), {"three-cycle terms of degree 4 fail", "no tuples of length 0"}),
    ((3, 1), {"three-cycle terms of degree 4 fail", "no tuples of length 0", "no tuples of length 2", "tuples of length 4"}),
])
def test_three_cycle_terms_reject_a_skewed_squared_content_sum(monkeypatch, lam, failing):
    skew_diagram(monkeypatch, lam, 3, lambda p2: p2 + 1)
    monkeypatch.setattr(characters, "_content_terms", characters._content_terms.__wrapped__)
    with pytest.raises(InvariantViolation) as exc:
        characters._three_cycle_terms.__wrapped__(4)
    rules = (
        "three-cycle terms of degree 4 fail", "content-sum terms of degree 4 fail",
        SUM_SQUARES, P_K, SECOND_MOMENT,
        "no tuples of length 0", "no tuples of length 2", "tuples of length 4",
    )
    assert {rule for rule in rules if rule in str(exc.value)} == failing


def test_content_terms_reject_a_hook_product_that_does_not_divide(monkeypatch):
    skew_diagram(monkeypatch, (3, 1), 1, lambda product: product * 5)
    with pytest.raises(InvariantViolation, match=r"hook product of \(3, 1\) does not divide 4!"):
        characters._content_terms.__wrapped__(4)


def test_a_cold_count_enumerates_partitions_only_through_the_walk(monkeypatch):
    def refused(n):
        raise AssertionError("the count path listed the partitions of a degree")

    for memo in (characters._connected_terms, characters._content_terms):
        memo.cache_clear()
    monkeypatch.setattr(characters, "partitions_of", refused)
    # Hurwitz: (2k - 2)! k^(k - 3) transitive tuples of minimal length
    assert connected_count(20, 38) == factorial(38) * 20**17
