"""Collision census tests.

The frozen tables below were produced by the tally walk and confirmed
by an independent route: enumerate one representative per class and
classify each with refine_type_one / classify_node, one tuple at a
time.  Both routes are re-run against each other here.
"""

from collections import Counter
from itertools import product
from math import factorial

from hypothesis import given
from hypothesis import strategies as st
import pytest

from gonalgeo.covers import (
    MonodromyTuple,
    are_conjugate,
    class_representatives,
    cover_genus,
    prefix_states,
)
from gonalgeo.degeneration import (
    CentralProfile,
    DegenerationCensus,
    NodeType,
    SplitProfile,
    TwistOrbitReport,
    _prefix_stabilizer,
    _table_twist,
    _tally_pairs,
    census,
    classify_node,
    full_census,
    full_twist,
    refine_type_one,
    verify_twist_orbits,
)
from gonalgeo.errors import InvariantViolation, ParameterError
from gonalgeo.perm import all_transpositions, compose, cycle_type, transposition_perm
from gonalgeo.tables import group_tables

from conftest import ENVELOPE

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


def test_census_worker_determinism():
    serial_counts, serial_cen = full_census(3, 8, workers=1)
    for workers in (2, 5):
        counts, cen = full_census(3, 8, workers=workers)
        assert counts == serial_counts
        assert cen == serial_cen
        assert cen.split_table == serial_cen.split_table


def test_census_shortcut_returns_the_census():
    cen = census(3, 4)
    assert isinstance(cen, DegenerationCensus)
    assert (cen.type_one, cen.type_two_two, cen.type_three) == (1, 0, 3)


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
    for k, b in [kb for kb in ENVELOPE if kb != (4, 10)] + [(3, 12)]:
        assert verify_twist_orbits(k, b) == _walk_twist_orbits(k, b), (k, b)


def test_twist_tally_at_4_10_is_the_walks_report():
    # the walk's own output; its 206640 representatives take seconds, so
    # the report is pinned rather than recomputed
    assert verify_twist_orbits(4, 10) == TwistOrbitReport(4, 10, 206640, 137781, 0, 0)


def test_prefix_stabilizer_is_every_relabeling_fixing_the_prefix():
    # the relabelings fixing a prefix depend only on its set of distinct
    # entries, so running over every set covers every prefix of any length
    for k in (2, 3, 4, 5):
        tab = group_tables(k)
        nt = len(tab.transpositions)
        for mask in range(1 << nt):
            entries = [t for t in range(nt) if mask >> t & 1]
            c = tab.discrete
            for t in entries:
                c = tab.merge_trans[c][t]
            fixers = [
                g for g, row in enumerate(tab.conj_trans)
                if all(row[t] == t for t in entries)
            ]
            assert sorted(_prefix_stabilizer(tab, c)) == fixers, (k, entries)


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
                if tab.min_factors[p2] <= nxt and tab.nblocks[c2] - 1 <= nxt:
                    out.setdefault((p2, c2), prefix + (t,))
        layer = out
    return layer


def test_table_twist_is_full_twist_on_every_completion():
    for k, b in [(3, 6), (4, 6), (5, 8)]:
        tab = group_tables(k)
        trans = tab.transpositions
        witnesses = _witness_prefixes(tab, b)
        assert set(witnesses) == {(p, c) for p, c, _w in prefix_states(tab, b)}
        completions = 0
        for (p, c), prefix in witnesses.items():
            for u in range(len(trans)):
                v = tab.trans_of[tab.mul_trans[p][u]]
                if v < 0 or tab.nblocks[tab.merge_trans[tab.merge_trans[c][u]][v]] != 1:
                    continue
                t = MonodromyTuple(k, tuple(trans[i] for i in prefix + (u, v)))
                u2, v2 = _table_twist(tab, u, v)
                assert full_twist(t).entries[-2:] == (trans[u2], trans[v2]), t
                completions += 1
        assert completions, (k, b)


def valid_34_kwargs():
    return dict(
        k=3, b=4, g=0, classes=4, type_one=1, type_two_two=0, type_three=3,
        split_table={(1, 0): 1}, rational_splits=1, singular=0,
    )


def test_census_validators_reject_bad_data():
    DegenerationCensus(**valid_34_kwargs())  # baseline sanity

    bad = valid_34_kwargs() | {"classes": 5}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    bad = valid_34_kwargs() | {"type_three": 4, "classes": 5}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    bad = valid_34_kwargs() | {"g": 1}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    bad = valid_34_kwargs() | {"type_one": -1, "classes": 2}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    # split cell outside 1 <= j <= k/2
    bad = valid_34_kwargs() | {"split_table": {(2, 0): 1}}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    # split genus above the fiber genus
    bad = valid_34_kwargs() | {"split_table": {(1, 1): 1}}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    # more splits than equal-pair classes
    bad = valid_34_kwargs() | {"split_table": {(1, 0): 2}, "rational_splits": 2}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    # rational tally out of step with the table
    bad = valid_34_kwargs() | {"rational_splits": 0, "singular": 1}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)

    # equal-pair classes must partition into rational and singular
    bad = valid_34_kwargs() | {"singular": 3}
    with pytest.raises(InvariantViolation):
        DegenerationCensus(**bad)


def test_equal_degree_cell_must_be_canonical():
    with pytest.raises(InvariantViolation):
        DegenerationCensus(
            k=4, b=10, g=2, classes=3, type_one=3, type_two_two=0, type_three=0,
            split_table={(2, 2): 1}, rational_splits=1, singular=2,
        )


@pytest.mark.parametrize(
    "k, b",
    ENVELOPE + [(3, 16), (4, 12), (4, 16), (5, 10), (5, 12), (6, 10), (6, 14)],
)
def test_orbit_census_equals_the_labeled_tally(k, b):
    tab = group_tables(k)
    g = cover_genus(k, b)
    labeled, merged = {}, {}
    for (p, c, w), mult in prefix_states(tab, b, weighted=True).items():
        _tally_pairs(tab, g, b, p, c, w, mult, labeled)
    for (p, c, w), mult in prefix_states(tab, b, weighted=True, orbits=True).items():
        _tally_pairs(tab, g, b, p, c, w, mult, merged)
    assert merged == labeled

    counts, cen = full_census(k, b)
    div = factorial(k) if k >= 3 else 1
    splits = {key[1:]: v for key, v in labeled.items() if isinstance(key, tuple)}
    assert counts.raw_count == sum(labeled.values())
    assert counts.class_count * div == counts.raw_count
    assert cen.central * div == labeled.get("central", 0)
    assert cen.type_one * div == labeled.get("central", 0) + sum(splits.values())
    assert cen.type_two_two * div == labeled.get("disjoint", 0)
    assert cen.type_three * div == labeled.get("overlap", 0)
    assert {cell: n * div for cell, n in cen.split_table.items()} == splits
    assert cen.rational_splits * div == sum(
        n for (j, i), n in splits.items() if i in (0, g)
    )
