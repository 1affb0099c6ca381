"""Collision census tests.

The frozen tables below were produced by the tally walk and confirmed
by an independent route: enumerate one representative per class and
classify each with refine_type_one / classify_node, one tuple at a
time.  Both routes are re-run against each other here.
"""

import copy
import re
import sys
from collections import Counter
from dataclasses import replace
from itertools import product
from math import comb, factorial

from hypothesis import given
from hypothesis import strategies as st
import pytest

from gonalgeo import characters, degeneration, reference
from gonalgeo.characters import connected_count
from gonalgeo.covers import cover_genus
from gonalgeo.degeneration import DegenerationCensus, full_census
from gonalgeo.errors import InvariantViolation, ParameterError
from gonalgeo.reference import (
    CentralProfile,
    MonodromyTuple,
    NodeType,
    SplitProfile,
    TwistOrbitReport,
    all_transpositions,
    are_conjugate,
    class_representatives,
    classify_node,
    compose,
    cross_check_walk,
    cycle_type,
    full_twist,
    group_tables,
    prefix_states,
    refine_type_one,
    transposition_perm,
    verify_twist_orbits,
)

from conftest import ENVELOPE, skew_double_transposition_step
from test_characters import skew
from test_covers import labeled_layers

# (k, b) -> (classes, n1, n22, n3, split table, e, n_sing)
FROZEN = {
    (2, 2): (1, 1, 0, 0, {(1, 0): 1}, 1, 0),
    (2, 4): (1, 1, 0, 0, {}, 0, 1),
    (2, 6): (1, 1, 0, 0, {}, 0, 1),
    (2, 8): (1, 1, 0, 0, {}, 0, 1),
    (2, 10): (1, 1, 0, 0, {}, 0, 1),
    (3, 4): (4, 1, 0, 3, {(1, 0): 1}, 1, 0),
    (3, 6): (40, 13, 0, 27, {(1, 0): 1}, 1, 12),
    (3, 8): (364, 121, 0, 243, {(1, 0): 1}, 1, 120),
    (3, 10): (3280, 1093, 0, 2187, {(1, 0): 1}, 1, 1092),
    (4, 6): (120, 15, 24, 81, {(1, 0): 12, (2, 0): 3}, 15, 0),
    (4, 8): (5460, 855, 960, 3645, {(1, 0): 120, (2, 0): 15}, 135, 720),
    (4, 10): (206640, 33915, 34944, 137781,
              {(1, 0): 1092, (2, 0): 28, (2, 1): 35}, 1120, 32795),
    (5, 8): (8400, 660, 2880, 4860, {(1, 0): 480, (2, 0): 180}, 660, 0),
    # too many classes for the per-class route; matched instead against a
    # depth-first tally over every one of its 180686880 raw tuples
    (4, 12): (7528620, 1249935, 1259520, 5019165,
              {(1, 0): 9840, (2, 0): 45, (2, 1): 210}, 9885, 1240050),
}


def test_classify_node_matches_the_product_cycle_type():
    for k in (4, 5):
        for t1, t2 in product(all_transpositions(k), repeat=2):
            prod = compose(transposition_perm(k, t1), transposition_perm(k, t2))
            ct = tuple(c for c in cycle_type(prod) if c > 1)
            node = classify_node(t1, t2)
            if node is NodeType.ONE:
                assert ct == ()
            elif node is NodeType.TWO_TWO:
                assert ct == (2, 2)
            else:
                assert ct == (3,)


@given(
    st.integers(3, 7).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.sampled_from(all_transpositions(k)),
            st.sampled_from(all_transpositions(k)),
            st.permutations(range(1, k + 1)),
        )
    )
)
def test_classify_node_is_relabeling_invariant(pack):
    k, t1, t2, g = pack

    def move(t):
        a, b = g[t[0] - 1], g[t[1] - 1]
        return (a, b) if a < b else (b, a)

    assert classify_node(move(t1), move(t2)) == classify_node(t1, t2)


def test_refine_type_one_profiles():
    central = MonodromyTuple(2, ((1, 2),) * 4)
    assert isinstance(refine_type_one(central), CentralProfile)
    split = MonodromyTuple(2, ((1, 2), (1, 2)))
    assert refine_type_one(split) == SplitProfile(j=1, i=0, beta1=0)
    rational = MonodromyTuple(3, ((2, 3), (2, 3), (1, 2), (1, 2)))
    assert refine_type_one(rational) == SplitProfile(j=1, i=0, beta1=0)
    mixed = MonodromyTuple(3, ((1, 2), (1, 3), (1, 2), (2, 3)))
    with pytest.raises(ParameterError):
        refine_type_one(mixed)


def test_equal_degree_splits_take_the_canonical_orientation():
    # degree 4, genus 2, split into two degree-2 components; whichever
    # side carries the genus, the profile reports the genus-0 component
    light_first = ((1, 2),) * 2 + ((3, 4),) * 6 + ((1, 3), (1, 3))
    heavy_first = ((1, 2),) * 6 + ((3, 4),) * 2 + ((1, 3), (1, 3))
    for entries in (light_first, heavy_first):
        prof = refine_type_one(MonodromyTuple(4, entries))
        assert prof == SplitProfile(j=2, i=0, beta1=2)


def test_frozen_census_tables(census_store):
    for (k, b), (classes, n1, n22, n3, table, e, sing) in FROZEN.items():
        counts, cen = census_store(k, b)
        assert cen.classes == classes, (k, b)
        assert cen.type_one == n1, (k, b)
        assert cen.type_two_two == n22, (k, b)
        assert cen.type_three == n3, (k, b)
        assert cen.split_table == table, (k, b)
        assert cen.rational_splits == e, (k, b)
        assert cen.singular == sing, (k, b)
        assert counts.class_count == classes
        assert cen.g == cover_genus(k, b)


def test_census_identities(census_store):
    for k, b in FROZEN:
        _counts, cen = census_store(k, b)
        assert cen.type_one + cen.type_two_two + cen.type_three == cen.classes
        assert cen.type_three % 3 == 0
        assert cen.rational_splits <= cen.type_one
        assert cen.rational_splits + cen.singular == cen.type_one
        assert cen.central == cen.type_one - sum(cen.split_table.values())
        assert cen.central >= 0
        smooth = sum(
            n for (j, i), n in cen.split_table.items() if i == 0 or i == cen.g
        )
        assert smooth == cen.rational_splits
        if cen.g == 0:
            # a central class would be a connected cover of genus -1
            assert cen.central == 0


def test_census_against_per_class_reclassification(census_store):
    for k, b in [(3, 6), (4, 6), (4, 8), (5, 8)]:
        _counts, cen = census_store(k, b)
        tally = Counter()
        table = Counter()
        for rep in class_representatives(k, b):
            node = classify_node(*rep.entries[-2:])
            if node is NodeType.ONE:
                prof = refine_type_one(rep)
                tally["one"] += 1
                if isinstance(prof, SplitProfile):
                    table[(prof.j, prof.i)] += 1
            elif node is NodeType.TWO_TWO:
                tally["22"] += 1
            else:
                tally["3"] += 1
        assert tally["one"] == cen.type_one, (k, b)
        assert tally["22"] == cen.type_two_two, (k, b)
        assert tally["3"] == cen.type_three, (k, b)
        assert dict(table) == cen.split_table, (k, b)


def test_full_twist_behavior(census_store):
    for k, b in [(3, 6), (4, 6)]:
        for rep in class_representatives(k, b):
            node = classify_node(*rep.entries[-2:])
            twisted = full_twist(rep)
            assert classify_node(*twisted.entries[-2:]) == node
            assert twisted.entries[:-2] == rep.entries[:-2]
            if node is NodeType.THREE:
                assert twisted.entries != rep.entries
                thrice = full_twist(full_twist(twisted))
                assert thrice.entries == rep.entries
            else:
                assert twisted.entries == rep.entries


def test_verify_twist_orbits(census_store):
    for k, b in [(3, 4), (3, 6), (4, 6), (2, 6)]:
        _counts, cen = census_store(k, b)
        report = verify_twist_orbits(k, b)
        assert report.clean
        assert report.classes == cen.classes
        assert report.type_three_classes == cen.type_three
        assert report.fixed_point_failures == 0
        assert report.orbit_size_failures == 0


def _walk_twist_orbits(k, b):
    """The twist check as a walk over one representative per class,
    twisted by ``full_twist`` and compared by ``are_conjugate``: the
    reference the state tally is held to."""
    reps = class_representatives(k, b)
    fixed_bad = 0
    orbit_bad = 0
    n3 = 0
    for rep in reps:
        node = classify_node(*rep.entries[-2:])
        twisted = full_twist(rep)
        if node is NodeType.THREE:
            n3 += 1
            # order divides 3 at class level, so size 1 is the only failure
            if are_conjugate(twisted, rep):
                orbit_bad += 1
        elif twisted.entries != rep.entries:
            fixed_bad += 1
    return TwistOrbitReport(k, b, len(reps), n3, fixed_bad, orbit_bad)


def test_twist_tally_matches_the_representative_walk():
    # the report's class count is the state tally over k!, the walk's is
    # its representatives, so equal reports also check the free action
    for k, b in [kb for kb in ENVELOPE if kb != (4, 10)] + [(3, 12)]:
        assert verify_twist_orbits(k, b) == _walk_twist_orbits(k, b), (k, b)


def test_twist_tally_at_4_10_is_the_walks_report():
    # the walk's own output; its 206640 representatives take seconds, so
    # the report is pinned rather than recomputed
    assert verify_twist_orbits(4, 10) == TwistOrbitReport(4, 10, 206640, 137781, 0, 0)


def _witness_prefixes(tab, b):
    """One pruned prefix of b - 2 entries for every search state, from the
    layered walk ``prefix_states`` makes, keeping the first arrival."""
    layer = {(tab.identity, tab.discrete): ()}
    for depth in range(b - 2):
        nxt = b - depth - 1
        out = {}
        for (p, c), prefix in layer.items():
            for t in range(len(tab.transpositions)):
                p2, c2 = tab.mul_trans[p][t], tab.merge_trans[c][t]
                if tab.min_factors[p2] + 2 * tab.nblocks[c2] - 2 <= nxt:
                    out.setdefault((p2, c2), prefix + (t,))
        layer = out
    return layer


def test_table_twist_is_full_twist_on_every_completion():
    # every completing pair of a state has u v = p^-1, so the twist
    # sigma = u v is one element per state, and conj_trans[sigma] twists
    # each last pair as full_twist does on the whole tuple
    for k, b in [(3, 6), (4, 6), (5, 8)]:
        tab = group_tables(k)
        trans, mul, free = tab.transpositions, tab.mul_trans, tab.mul_trans[tab.identity]
        witnesses = _witness_prefixes(tab, b)
        assert set(witnesses) == set(prefix_states(tab, b))
        completions = 0
        for (p, c), prefix in witnesses.items():
            pairs = []
            for u in range(len(trans)):
                v = tab.trans_of[mul[p][u]]
                if v >= 0 and tab.nblocks[tab.merge_trans[tab.merge_trans[c][u]][v]] == 1:
                    pairs.append((u, v))
            sigma = mul[free[pairs[0][0]]][pairs[0][1]]
            assert {mul[free[u]][v] for u, v in pairs} == {sigma}, (k, b, p, c)
            for u, v in pairs:
                t = MonodromyTuple(k, tuple(trans[i] for i in prefix + (u, v)))
                twisted = trans[tab.conj_trans[sigma][u]], trans[tab.conj_trans[sigma][v]]
                assert full_twist(t).entries[-2:] == twisted, t
                completions += 1
        assert completions, (k, b)


def _private_tables(monkeypatch, k):
    """A copy of the degree-k tables that ``verify_twist_orbits`` reads in
    place of the shared ones, so a test may skew it."""
    tab = copy.copy(group_tables(k))
    monkeypatch.setattr(reference, "group_tables", lambda n: tab if n == k else group_tables(n))
    return tab


def test_a_swapped_twist_entry_is_a_fixed_point_failure(monkeypatch):
    # conjugation by the identity swaps (1 2) and (1 3): the equal pairs
    # on them are twisted away from themselves, and nothing else changes
    tab = _private_tables(monkeypatch, 4)
    tab.conj_trans = [row[:] for row in tab.conj_trans]
    row = tab.conj_trans[tab.identity]
    row[0], row[1] = row[1], row[0]
    report = verify_twist_orbits(4, 6)
    assert not report.clean
    assert (report.classes, report.type_three_classes, report.orbit_size_failures) == (120, 81, 0)
    assert report.fixed_point_failures > 0


def test_a_state_no_pair_completes_is_named(monkeypatch):
    # read as a product of three, no transposition ends a tuple, so the
    # states prefix_states keeps have no completing pair
    tab = _private_tables(monkeypatch, 4)
    tab.min_factors = [m + 2 if m == 1 else m for m in tab.min_factors]
    with pytest.raises(InvariantViolation, match=r"prefix state \(3, 4, 1, 2\) on partition \(1, 1, 1, 1\) has no completing pair"):
        verify_twist_orbits(4, 10)


def valid_34_kwargs():
    return dict(k=3, b=4, type_one=1, type_two_two=0, type_three=3, rational_splits=1)


def test_census_validators_reject_bad_data():
    DegenerationCensus(**valid_34_kwargs())  # baseline sanity

    bad = valid_34_kwargs() | {"type_three": 4}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    bad = valid_34_kwargs() | {"type_one": -1}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    # 0 <= e <= N1
    bad = valid_34_kwargs() | {"rational_splits": -1}
    with pytest.raises(InvariantViolation, match="negative census count"):
        DegenerationCensus(**bad)
    bad = valid_34_kwargs() | {"type_one": 0}
    with pytest.raises(InvariantViolation, match="rational splits exceed the equal-pair count"):
        DegenerationCensus(**bad)

    # more equal-pair classes than the central pairs and split cells hold
    cen = DegenerationCensus(**valid_34_kwargs() | {"type_one": 2})
    with pytest.raises(InvariantViolation, match=re.escape("split cells and central pairs of (3, 4) do not sum to N1")):
        cen.split_table


def test_equal_degree_cell_must_be_canonical():
    # a split into two halves is listed once, with the smaller component genus
    for k, b in ((4, 10), (4, 12), (6, 14), (6, 30), (8, 40)):
        cen = full_census(k, b)[1]
        halves = [i for j, i in cen.split_table if 2 * j == k]
        assert halves and all(i <= cen.g - i for i in halves), (k, b)


def test_derived_counts_follow_the_stored_ones():
    cen = DegenerationCensus(**valid_34_kwargs())
    assert (cen.g, cen.classes, cen.raw_count) == (0, 4, 24)
    assert (cen.central, cen.rational_splits, cen.singular) == (0, 1, 0)
    two = DegenerationCensus(k=2, b=6, type_one=2, type_two_two=0, type_three=0, rational_splits=1)
    # relabeling is trivial at degree 2, so each class is one tuple
    assert (two.g, two.raw_count, two.central, two.rational_splits, two.singular) == (2, 2, 1, 1, 1)


def test_equality_compares_the_stored_counts(census_store):
    cen = census_store(4, 10)[1]
    assert cen.split_table == {(1, 0): 1092, (2, 0): 28, (2, 1): 35}
    # one class moved from the rational splits to the singular ones
    moved = replace(cen, rational_splits=cen.rational_splits - 1)
    assert (moved.classes, moved.singular) == (cen.classes, cen.singular + 1)
    assert moved != cen
    # the derived cells enter neither equality nor the hash
    fresh = replace(cen)
    assert "split_table" not in vars(fresh)
    assert fresh == cen and hash(fresh) == hash(cen)


def _labeled_tally(k, b):
    """The census tally over labeled states: every connected completing
    pair of every weighted state after b - 2 entries, typed by
    ``classify_node`` and, for an equal pair on a split partition, by the
    size and entry count of the smaller block."""
    tab = group_tables(k)
    g = cover_genus(k, b)
    trans = tab.transpositions
    tally = Counter()
    for (p, c, w), mult in labeled_layers(tab, b)[-1].items():
        sizes = sorted(Counter(tab.partitions[c]).items())
        for u in range(len(trans)):
            v = tab.trans_of[tab.mul_trans[p][u]]
            if v < 0 or tab.nblocks[tab.merge_trans[tab.merge_trans[c][u]][v]] != 1:
                continue
            node = classify_node(trans[u], trans[v])
            if node is NodeType.TWO_TWO:
                tally["disjoint"] += mult
            elif node is NodeType.THREE:
                tally["overlap"] += mult
            elif len(sizes) == 1:
                tally["central"] += mult
            else:
                (l1, s1), (l2, s2) = sizes
                lead, j = (l1, s1) if s1 <= s2 else (l2, s2)
                i = (w[lead - 1] - 2 * j + 2) // 2
                if 2 * j == k:
                    i = min(i, g - i)
                tally[("split", j, i)] += mult
    return tally


@pytest.mark.parametrize(
    "k, b",
    ENVELOPE + [(3, 16), (4, 12), (4, 16), (5, 10), (5, 12), (6, 10), (6, 14)],
)
def test_orbit_census_equals_the_labeled_tally(k, b):
    labeled = _labeled_tally(k, b)
    g = cover_genus(k, b)
    counts, cen = full_census(k, b)
    div = factorial(k) if k >= 3 else 1
    splits = {key[1:]: v for key, v in labeled.items() if isinstance(key, tuple)}
    assert counts.raw_count == sum(labeled.values())
    assert counts.class_count * div == counts.raw_count
    assert cen.central * div == labeled["central"]
    assert cen.type_one * div == labeled["central"] + sum(splits.values())
    assert cen.type_two_two * div == labeled["disjoint"]
    assert cen.type_three * div == labeled["overlap"]
    assert {cell: n * div for cell, n in cen.split_table.items()} == splits
    assert cen.rational_splits * div == sum(
        n for (j, i), n in splits.items() if i in (0, g)
    )


def test_census_past_the_table_bound():
    # DegenerationCensus runs its validators on construction
    counts, cen = full_census(8, 14)
    assert isinstance(cen, DegenerationCensus)
    assert counts.raw_count == connected_count(8, 14)
    assert cen.classes == counts.class_count


def test_genus_zero_collisions_are_minimal_factorization_counts():
    # b = 2k - 2: the pairs ahead of a 3-cycle or a double transposition
    # are minimal transitive factorizations, r! k^(n - 3) prod mu^mu / (mu - 1)!
    # with r = 2k - 4 and n = k - 2 cycles; the census counts each 3-cycle
    # completion 3 times, each double transposition twice
    for k in range(3, 12):
        cen = full_census(k, 2 * k - 2)[1]
        scale = factorial(2 * k - 4) * k**k
        assert cen.type_three * factorial(k) * k**5 == 81 * comb(k, 3) * scale, k
        assert cen.type_two_two * factorial(k) * k**5 == 96 * comb(k, 4) * scale, k


def _conn(j, beta):
    return connected_count(j, beta) if j > 1 else int(beta == 0)


@pytest.mark.parametrize("k, b", [
    (9, 46), (10, 52),
    # long runs of carried binomials, and equal-size splits at k = 2, 4, 6, 8
    (2, 200), (3, 300), (4, 400), (5, 120), (6, 60), (8, 40),
])
def test_census_past_the_old_reach(k, b):
    # DegenerationCensus runs its validators on construction; every split
    # cell is checked against its closed form, each binomial and each
    # connected count computed afresh
    counts, cen = full_census(k, b)
    assert isinstance(cen, DegenerationCensus)
    assert counts.raw_count == connected_count(k, b)
    assert cen.classes == counts.class_count
    g = cover_genus(k, b)
    cells = Counter()
    for j in range(1, k // 2 + 1):
        for beta1 in range(2 * j - 2, b - 1, 2):
            n = (comb(k, j) * comb(b - 2, beta1) * j * (k - j)
                 * _conn(j, beta1) * _conn(k - j, b - 2 - beta1))
            i = (beta1 - 2 * j + 2) // 2
            if 2 * j == k:
                n, i = n // 2, min(i, g - i)
            if n:
                cells[(j, i)] += n
    div = factorial(k) if k > 2 else 1
    assert {cell: n * div for cell, n in cen.split_table.items()} == dict(cells)


def test_split_binomials_are_carried_along_each_size(monkeypatch):
    calls = []

    def counted(n, r):
        calls.append((n, r))
        return comb(n, r)

    monkeypatch.setattr(degeneration, "comb", counted)
    k, b = 4, 2000
    counts, census = full_census(k, b)
    assert counts.raw_count == connected_count(k, b)
    # e reads the end cells, i = 0 and i = g, one for j = 1, each with its own binomial
    assert sorted(calls) == [(b - 2, 0), (b - 2, 2), (b - 2, b - 4)]
    calls.clear()
    assert census.split_table
    # the cells take the first C(b - 2, beta1) of each split size, and carry it
    assert calls == [(b - 2, 0), (b - 2, 2)]


def test_a_skewed_binomial_or_end_cell_breaks_the_split_rules(monkeypatch):
    k, b = 5, 40
    census = full_census(k, b)[1]
    # C(b - 2, 2), the first binomial of size j = 2, one too large: it is
    # carried through every cell of that size, and the cells no longer sum
    # with the central pairs to N1
    monkeypatch.setattr(degeneration, "comb", lambda n, r: comb(n, r) + (r == 2))
    with pytest.raises(InvariantViolation, match=re.escape("split cells and central pairs of (5, 40) do not sum to N1")):
        census.split_table
    # e read with C(b - 2, 2) + k! for its end cell (2, 0) is off by whole
    # classes, and the cells, built with the true binomials, no longer sum to it
    monkeypatch.setattr(degeneration, "comb", lambda n, r: comb(n, r) + factorial(k) * (r == 2))
    skewed = full_census(k, b)[1]
    assert skewed.rational_splits > census.rational_splits
    monkeypatch.setattr(degeneration, "comb", comb)
    with pytest.raises(InvariantViolation, match=re.escape("split cells of (5, 40) with i = 0 or i = g do not sum to e")):
        skewed.split_table
    assert full_census(k, b)[1].split_table == census.split_table


def test_census_orders_split_cells_without_printing_counts():
    # a split count of 12 Conn(3, 1398), about 667 digits, past the lowest
    # limit the interpreter allows on int-to-str conversion
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        counts, cen = full_census(4, 1400)
        cen.split_table
    finally:
        sys.set_int_max_str_digits(limit)
    assert counts.raw_count == connected_count(4, 1400)
    assert max(cen.split_table.values()) > 10**640


def test_the_census_takes_no_walk_step(monkeypatch):
    def no_walk(*_args):
        raise AssertionError("the census took a walk step")

    monkeypatch.setattr(reference, "_block_steps", no_walk)
    monkeypatch.setattr(reference, "completion_tally", no_walk)
    # the walk of (14, 76), priced at 718 540 block-state visits, takes seconds
    for k, b in ((6, 14), (14, 76)):
        counts, cen = full_census(k, b)
        assert counts.raw_count == connected_count(k, b)
        assert cen.classes == counts.class_count
    # the walk is reached only through the comparison oracle-check runs
    with pytest.raises(AssertionError, match="walk step"):
        cross_check_walk(6, 14, full_census(6, 14)[1])


def test_the_walk_agrees_with_the_census_field_by_field():
    # the walk stays the census's test oracle through degree 15: central,
    # overlap, each split size and disjoint, as oracle-check compares them
    grid = [(k, b) for k in range(2, 9) for b in range(2 * k - 2, 2 * k + 7, 2)]
    for k, b in grid + [(10, 52), (15, 28)]:
        counts, census = full_census(k, b)
        assert cross_check_walk(k, b, census) == counts, (k, b)


@pytest.mark.parametrize("b, field", [(6, "disjoint"), (8, "central")])
def test_a_skewed_walk_step_breaks_the_walk_comparison(monkeypatch, b, field):
    # the step from the double transposition to a transposition, taken 3
    # ways instead of 2: at genus 0 no central pair passes through it and
    # only the disjoint tally moves; one genus up the central tally moves
    # too, and is compared first
    census = full_census(4, b)
    skew_double_transposition_step(monkeypatch)
    assert full_census(4, b) == census
    caught = f"disagree on the {field} tally at (4, {b})"
    with pytest.raises(InvariantViolation, match=re.escape(caught)):
        cross_check_walk(4, b, census[1])


@pytest.mark.parametrize("d", range(1, 6))
def test_a_perturbed_connected_weight_breaks_the_split_cells(monkeypatch, d):
    terms = characters._connected_terms
    # d! more weight on the largest exponent f moves k! Conn(d, beta) by
    # d! f^beta: still integral and positive.  The identities the table
    # is built with reject it, and the split cells it moves no longer sum
    # with the central pairs to N1, which the equal-pair table gives
    skewed = skew(terms(d), max(terms(d)), factorial(d))
    with pytest.raises(InvariantViolation, match=f"connected terms of degree {d} fail"):
        characters._check_least("connected", skewed)
    census = full_census(6, 14)[1]
    monkeypatch.setattr(degeneration, "_connected_terms", lambda n: skewed if n == d else terms(n))
    with pytest.raises(InvariantViolation, match=re.escape("split cells and central pairs of (6, 14) do not sum to N1")):
        cross_check_walk(6, 14, census)


def test_derived_counts_are_computed_once_per_census(census_store, monkeypatch):
    _counts, cen = census_store(4, 6)
    calls = []
    count = characters.ExpSum.count
    monkeypatch.setattr(characters.ExpSum, "count", lambda table, b: calls.append((table.k, b)) or count(table, b))
    fresh = DegenerationCensus(4, 6, cen.type_one, cen.type_two_two, cen.type_three, cen.rational_splits)
    assert not calls  # the validators evaluate no table
    for n in range(5):
        derived = (fresh.g, fresh.classes, fresh.raw_count, fresh.central, fresh.split_table, fresh.rational_splits, fresh.singular)
        once = once if n else len(calls)
    assert derived == (cen.g, cen.classes, cen.raw_count, cen.central, cen.split_table, cen.rational_splits, cen.singular)
    # the central pairs, and two tables for each of the two cells, once
    assert once == len(calls) == 5
    assert fresh == cen
