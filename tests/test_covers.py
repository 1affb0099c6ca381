from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from gonalgeo.covers import (
    MonodromyTuple,
    TupleCensus,
    _orbit_key,
    are_conjugate,
    canonical_form,
    class_count,
    class_count_via_oracle,
    class_representatives,
    conjugate_tuple,
    count_tuples,
    cover_genus,
    iter_tuples,
    prefix_states,
    tuple_stabilizer,
    verify_free_action,
)
from gonalgeo.characters import connected_count, disconnected_count
from gonalgeo.errors import InvariantViolation, ParameterError
from gonalgeo.perm import identity
from gonalgeo.tables import group_tables

from test_characters import brute_force_counts


def test_cover_genus():
    assert cover_genus(3, 4) == 0
    assert cover_genus(2, 2) == 0
    assert cover_genus(2, 8) == 3
    assert cover_genus(4, 10) == 2
    for k, b in [(1, 4), (3, 5), (3, 0), (3, 2), (4, 4)]:
        with pytest.raises(ParameterError):
            cover_genus(k, b)


def test_monodromy_tuple_validation():
    t = MonodromyTuple(3, ((1, 2), (1, 2), (1, 3), (1, 3)))
    assert t.length == 4
    assert t.genus == 0
    with pytest.raises(ParameterError):
        MonodromyTuple(3, ((1, 2), (1, 3), (1, 2), (1, 3)))  # product is a 3-cycle
    with pytest.raises(ParameterError):
        MonodromyTuple(3, ((1, 2), (1, 2), (1, 2)))  # odd length
    with pytest.raises(ParameterError):
        MonodromyTuple(4, ((1, 2), (1, 2), (1, 2), (1, 2)))  # misses symbols 3, 4
    with pytest.raises(ParameterError):
        MonodromyTuple(1, ())


def test_enumeration_matches_brute_force():
    total, connected = brute_force_counts(3, 4)
    assert disconnected_count(3, 4) == total == 27
    assert count_tuples(3, 4) == connected == 24
    tuples = list(iter_tuples(3, 4))
    assert len(tuples) == 24
    assert len(set(t.entries for t in tuples)) == 24
    assert [t.entries for t in tuples] == sorted(t.entries for t in tuples)


def test_enumeration_matches_oracle_small():
    for k, b in [(2, 2), (2, 6), (3, 4), (3, 6), (3, 8), (4, 6), (4, 8)]:
        assert count_tuples(k, b) == connected_count(k, b), (k, b)


def test_state_merge_matches_tuple_iteration():
    for k, b in [(3, 10), (4, 8)]:
        assert count_tuples(k, b) == sum(1 for _ in iter_tuples(k, b)), (k, b)


def test_state_merge_matches_oracle_beyond_depth_first_reach():
    for k, b in [(4, 12), (4, 16), (5, 12), (6, 10)]:
        assert count_tuples(k, b) == connected_count(k, b), (k, b)


def test_worker_split_is_exact():
    for workers in (2, 3, 8):
        assert count_tuples(3, 6, workers=workers) == 240
        assert count_tuples(4, 6, workers=workers) == 2880


def test_class_count_census():
    cen = class_count(3, 4)
    assert (cen.raw_count, cen.class_count, cen.source) == (24, 4, "enumeration")
    assert class_count(4, 6).class_count == 120
    # degree 2: relabeling is trivial, classes equal raw tuples
    cen2 = class_count(2, 10)
    assert (cen2.raw_count, cen2.class_count) == (1, 1)


def test_oracle_census_agrees_with_enumeration():
    for k, b in [(2, 4), (3, 4), (3, 6), (4, 6)]:
        enum = class_count(k, b)
        oracle = class_count_via_oracle(k, b)
        assert (oracle.raw_count, oracle.class_count) == (enum.raw_count, enum.class_count)
        assert oracle.source == "oracle"


def test_tuple_census_consistency_guard():
    with pytest.raises(InvariantViolation):
        TupleCensus(3, 4, 24, 5, "enumeration")
    with pytest.raises(InvariantViolation):
        TupleCensus(2, 4, 2, 1, "enumeration")


TUPLES_3_6 = None


def tuples_3_6():
    global TUPLES_3_6
    if TUPLES_3_6 is None:
        TUPLES_3_6 = list(iter_tuples(3, 6))
    return TUPLES_3_6


def test_conjugate_tuple_and_are_conjugate():
    t = MonodromyTuple(3, ((1, 2), (1, 2), (1, 3), (1, 3)))
    s = conjugate_tuple(t, (2, 1, 3))
    assert s.entries == ((1, 2), (1, 2), (2, 3), (2, 3))
    assert are_conjugate(t, s)
    assert are_conjugate(s, t)
    u = MonodromyTuple(3, ((1, 2), (1, 3), (1, 2), (2, 3)))
    assert not are_conjugate(t, u)
    with pytest.raises(ParameterError):
        conjugate_tuple(t, (1, 2, 3, 4))


@settings(max_examples=60)
@given(st.integers(0, 239), st.permutations(range(1, 4)))
def test_canonical_form_is_an_orbit_invariant(idx, g):
    t = tuples_3_6()[idx]
    moved = conjugate_tuple(t, tuple(g))
    assert are_conjugate(t, moved)
    assert canonical_form(moved) == canonical_form(t)
    assert canonical_form(canonical_form(t)) == canonical_form(t)
    assert canonical_form(t).entries <= t.entries


def test_stabilizers_trivial_from_degree_three_up():
    for t in iter_tuples(3, 4):
        assert tuple_stabilizer(t) == [identity(3)]
    report = verify_free_action(tuples_3_6())
    assert report.checked == 240
    assert report.violations == 0
    assert report.witnesses == ()


def test_degree_two_stabilizer_is_full():
    t = MonodromyTuple(2, ((1, 2), (1, 2)))
    assert tuple_stabilizer(t) == [(1, 2), (2, 1)]
    with pytest.raises(ParameterError):
        verify_free_action([t])


def test_class_representatives():
    reps4 = class_representatives(3, 4)
    assert len(reps4) == 4
    for rep in reps4:
        assert canonical_form(rep) == rep
    for i, a in enumerate(reps4):
        for b in reps4[i + 1:]:
            assert not are_conjugate(a, b)
    assert len(class_representatives(3, 6)) == class_count(3, 6).class_count
    assert len(class_representatives(4, 6)) == 120
    # every tuple is conjugate to exactly one representative
    hits = {rep.entries: 0 for rep in reps4}
    for t in iter_tuples(3, 4):
        hits[canonical_form(t).entries] += 1
    assert all(n == 6 for n in hits.values())


def test_orbit_merged_count_matches_oracle_at_degrees_six_and_seven():
    for k, b in [(6, 14), (7, 12)]:
        assert count_tuples(k, b) == connected_count(k, b), (k, b)


def _relabel_state(tab, part_index, g, state):
    """The search state of the relabeled prefixes: g p g^-1, the image
    partition, and each block's entry count moved to its image's leader."""
    p, c, w = state
    q, labels = tab.perms[p], tab.partitions[c]
    conj = [0] * tab.k
    for x in range(1, tab.k + 1):
        conj[g[x - 1] - 1] = g[q[x - 1] - 1]
    blocks = {}
    for x, lead in enumerate(labels, start=1):
        blocks.setdefault(lead, []).append(g[x - 1])
    image = [0] * tab.k
    w2 = None if w is None else [0] * tab.k
    for lead, members in blocks.items():
        for y in members:
            image[y - 1] = min(members)
        if w is not None:
            w2[min(members) - 1] = w[lead - 1]
    return (
        tab.perm_index[tuple(conj)],
        part_index[tuple(image)],
        None if w2 is None else tuple(w2),
    )


def test_orbit_key_is_a_complete_invariant():
    for k, b_max in [(2, 6), (3, 10), (4, 10), (5, 12)]:
        tab = group_tables(k)
        part_index = {c: i for i, c in enumerate(tab.partitions)}
        states = set()
        for b in range(2, b_max + 1, 2):
            for weighted in (False, True):
                states.update(prefix_states(tab, b, weighted=weighted))
        key_of_orbit = {}
        for state in states:
            orbit = min(_relabel_state(tab, part_index, g, state) for g in tab.perms)
            assert key_of_orbit.setdefault(orbit, _orbit_key(tab, state)) == _orbit_key(tab, state)
        keys = list(key_of_orbit.values())
        assert len(set(keys)) == len(keys), k
        assert (len(keys), len(states)) == {2: (3, 3), 3: (9, 20), 4: (31, 154), 5: (76, 1528)}[k]
