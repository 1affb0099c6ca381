import random
import time
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from gonalgeo import covers, reference
from gonalgeo.covers import (
    MAX_DEGREE,
    _classes,
    algebra_price,
    block_states,
    class_count_via_oracle,
    cover_genus,
    oracle_products,
)
from gonalgeo.characters import connected_count, disconnected_count, partitions_of
from gonalgeo.errors import CapacityError, InvariantViolation, ParameterError
from gonalgeo.reference import (
    MonodromyTuple,
    _block_steps,
    are_conjugate,
    class_count,
    class_representatives,
    count_tuples,
    group_tables,
    iter_tuples,
)

from conftest import ENVELOPE
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
    assert (cen.raw_count, cen.class_count) == (24, 4)
    assert class_count(4, 6).class_count == 120
    # degree 2: relabeling is trivial, classes equal raw tuples
    cen2 = class_count(2, 10)
    assert (cen2.raw_count, cen2.class_count) == (1, 1)


def test_oracle_census_agrees_with_enumeration():
    for k, b in [(2, 4), (3, 4), (3, 6), (4, 6)]:
        enum = class_count(k, b)
        oracle = class_count_via_oracle(k, b)
        assert (oracle.raw_count, oracle.class_count) == (enum.raw_count, enum.class_count)


def test_class_division_is_by_k_factorial_from_degree_three():
    assert _classes(48, 3, "raw count") == 8
    assert _classes(7, 2, "raw count") == 7
    with pytest.raises(InvariantViolation, match=r"split \(1, 0\) tally 25 at degree 4 is not divisible by 24"):
        _classes(25, 4, "split (1, 0) tally")


TUPLES_3_6 = None


def tuples_3_6():
    global TUPLES_3_6
    if TUPLES_3_6 is None:
        TUPLES_3_6 = list(iter_tuples(3, 6))
    return TUPLES_3_6


def relabel(t, g):
    """``t`` with every symbol x replaced by g[x - 1]."""
    entries = tuple(tuple(sorted((g[a - 1], g[b - 1]))) for a, b in t.entries)
    return MonodromyTuple(t.degree, entries)


def test_conjugate_tuple_and_are_conjugate():
    t = MonodromyTuple(3, ((1, 2), (1, 2), (1, 3), (1, 3)))
    s = relabel(t, (2, 1, 3))
    assert s.entries == ((1, 2), (1, 2), (2, 3), (2, 3))
    assert are_conjugate(t, s)
    assert are_conjugate(s, t)
    u = MonodromyTuple(3, ((1, 2), (1, 3), (1, 2), (2, 3)))
    assert not are_conjugate(t, u)
    assert not are_conjugate(t, MonodromyTuple(3, t.entries * 2))


@settings(max_examples=60)
@given(st.integers(0, 239), st.permutations(range(1, 4)))
def test_are_conjugate_holds_on_every_relabeling(idx, g):
    t = tuples_3_6()[idx]
    moved = relabel(t, tuple(g))
    assert are_conjugate(t, moved)
    assert are_conjugate(moved, t)


def test_class_representatives():
    reps4 = class_representatives(3, 4)
    assert len(reps4) == 4
    tuples4 = list(iter_tuples(3, 4))
    # every tuple is conjugate to exactly one representative, 3! of them
    # each, and no conjugate of a representative is smaller than it
    hits = {rep.entries: 0 for rep in reps4}
    for t in tuples4:
        owners = [rep for rep in reps4 if are_conjugate(t, rep)]
        assert len(owners) == 1, t
        assert owners[0].entries <= t.entries
        hits[owners[0].entries] += 1
    assert all(n == 6 for n in hits.values())
    # relabeling acts freely: one representative per k! tuples
    assert len(class_representatives(3, 6)) == class_count(3, 6).class_count
    assert len(class_representatives(4, 6)) == 120


def test_representatives_are_the_least_tuples_of_their_classes():
    # the one walk, pruned by relabelings or not: in lexicographic order
    # the first tuple met of each class is its least
    for k, b in [(3, 6), (4, 6)]:
        least, seen = [], {}
        for t in iter_tuples(k, b):
            # conjugates repeat their entries at the same positions
            met = seen.setdefault(tuple(map(t.entries.index, t.entries)), [])
            if not any(are_conjugate(t, s) for s in met):
                met.append(t)
                least.append(t)
        assert class_representatives(k, b) == least, (k, b)


def test_orbit_merged_count_matches_oracle_at_degrees_six_and_seven():
    for k, b in [(6, 14), (7, 12)]:
        assert count_tuples(k, b) == connected_count(k, b), (k, b)


def test_block_state_count_matches_oracle_past_the_table_bound():
    for k, b in [(8, 14), (9, 16)]:
        assert count_tuples(k, b) == connected_count(k, b), (k, b)


def labeled_step(tab, state, t):
    """The labeled weighted state after one more entry t: running
    product, partition, and per-block entry counts by block leader
    (None once the partition is connected)."""
    p, c, w = state
    c2 = tab.merge_trans[c][t]
    w2 = None
    if w is not None and tab.nblocks[c2] > 1:
        labels = tab.partitions[c]
        la, lb = (labels[x - 1] for x in tab.transpositions[t])
        w2 = list(w)
        if la == lb:
            w2[la - 1] += 1
        else:
            lo, hi = min(la, lb), max(la, lb)
            w2[lo - 1] += w2[hi - 1] + 1
            w2[hi - 1] = 0
        w2 = tuple(w2)
    return tab.mul_trans[p][t], c2, w2


def labeled_layers(tab, b):
    """Every layer of the pruned labeled weighted search over b entries,
    up to the states after b - 2, each mapped to its prefix count."""
    layers = [{(tab.identity, tab.discrete, (0,) * tab.k): 1}]
    for depth in range(b - 2):
        left = b - depth - 1
        out = {}
        for state, mult in layers[-1].items():
            for t in range(len(tab.transpositions)):
                nxt = labeled_step(tab, state, t)
                if tab.min_factors[nxt[0]] <= left and tab.nblocks[nxt[1]] - 1 <= left:
                    out[nxt] = out.get(nxt, 0) + mult
        layers.append(out)
    return layers


def block_key(tab, state):
    """The unlabeled block state of a labeled one: per block, the cycle
    type of the running product on it.  Entry counts are dropped, so
    labeled states that differ only in them share a key."""
    p, c, _w = state
    perm, labels = tab.perms[p], tab.partitions[c]
    cycles = {}
    seen = set()
    for start in perm:
        if start in seen:
            continue
        x, n = start, 0
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            n += 1
        cycles.setdefault(labels[start - 1], []).append(n)
    return tuple(sorted(tuple(sorted(ct, reverse=True)) for ct in cycles.values()))


def test_block_steps_equal_the_labeled_successors():
    checked = 0
    for k in (2, 3, 4, 5):
        tab = group_tables(k)
        states = set()
        for b in range(max(2, 2 * k - 2), 9, 2):
            for layer in labeled_layers(tab, b):
                states.update(layer)
        for state in states:
            successors = {}
            for t in range(len(tab.transpositions)):
                nxt = labeled_step(tab, state, t)
                need = tab.min_factors[nxt[0]] + 2 * tab.nblocks[nxt[1]] - 2
                key = block_key(tab, nxt)
                n, need0 = successors.get(key, (0, need))
                assert need0 == need, (state, key)
                successors[key] = (n + 1, need)
            steps = {nxt: (n, need) for nxt, n, need in _block_steps(block_key(tab, state))}
            assert steps == successors, (k, state)
            checked += 1
    assert checked == 1180


def test_the_walk_matches_the_oracle_over_a_grid():
    for j in range(2, 10):
        for beta in range(2 * j - 2, 2 * j + 21, 2):
            assert count_tuples(j, beta) == connected_count(j, beta), (j, beta)


def partitions_of_partitions(k):
    """Multisets of partitions whose sizes add up to k: one per block
    state of degree k."""
    total = 0
    for sizes in partitions_of(k):
        n = 1
        for size in set(sizes):
            n *= comb(len(partitions_of(size)) + sizes.count(size) - 1, sizes.count(size))
        total += n
    return total


def test_step_memo_is_bounded_by_the_block_shapes():
    shapes = [block_states(k) for k in range(1, 17)]
    assert shapes == [partitions_of_partitions(k) for k in range(1, 17)]
    assert shapes == [
        1, 3, 6, 14, 27, 58, 111, 223, 424, 817, 1527, 2870, 5279, 9710, 17622, 31877,
    ]
    assert block_states(12, layers=20) == 20 * 2870
    bound = block_states(12)
    _block_steps.cache_clear()
    assert count_tuples(12, 22) == connected_count(12, 22)
    assert _block_steps.cache_info().currsize <= bound
    # at genus 0 the need equals the entries left, so no state recurs
    # across layers; one genus up, states recur and the memo is hit
    assert count_tuples(12, 24) == connected_count(12, 24)
    info = _block_steps.cache_info()
    assert info.currsize <= bound
    assert info.hits > 0


def kept_states(monkeypatch, k, b):
    """States the census walk keeps after each of its first b - 2 entries:
    those it steps, past the start, before it reads the first kind, and
    those whose kind it reads two entries from the end."""
    stepped, kinds = [], []
    steps, kind = reference._block_steps, reference._kind
    monkeypatch.setattr(reference, "_block_steps", lambda s: stepped.append(len(kinds)) or steps(s))
    monkeypatch.setattr(reference, "_kind", lambda s: kinds.append(s) or kind(s))
    reference.completion_tally(k, b)
    monkeypatch.undo()
    return stepped.count(0) - 1 + len(kinds), len(kinds)


def test_one_exact_rule_prunes_the_census_walk(monkeypatch):
    # a prefix is kept exactly while (k - cycles) + 2 (blocks - 1) fits the
    # entries left; the larger of k - cycles and blocks - 1 keeps 16 274
    # states at (10, 52), 66 of them in the last layer
    assert kept_states(monkeypatch, 10, 52) == (14686, 8)
    assert kept_states(monkeypatch, 12, 22)[0] == 2867
    assert kept_states(monkeypatch, 15, 28)[0] == 17619
    # the labeled search behind the twist check keeps its last layer by the
    # same rule: two separate bounds keep 215 states at (5, 8), 36 at (4, 10)
    assert len(reference.prefix_states(group_tables(5), 8)) == 50
    assert len(reference.prefix_states(group_tables(4), 10)) == 19


def priced_from_scratch(k: int) -> list[tuple[int, int]]:
    """(S(n), oracle_products(n)) at index n <= k, with p by the Euler
    transform where the package takes Euler's pentagonal recurrence: the
    oracle for ``covers._price_table``."""
    # n a(n) = sum over j <= n of c(j) a(n - j); c(j) sums d p(d) over d | j for S, d alone for p
    p, s, sigma, c, products, seen = [1], [1], [0], [0], 0, [(1, 1)]
    for n in range(1, k + 1):
        sigma.append(sum(d for d in range(1, n + 1) if n % d == 0))
        p.append(sum(sigma[j] * p[n - j] for j in range(1, n + 1)) // n)
        c.append(sum(d * p[d] for d in range(1, n + 1) if n % d == 0))
        s.append(sum(c[j] * s[n - j] for j in range(1, n + 1)) // n)
        # a diagram of the walk costs about 30 products, and a table of
        # degree d keeps one term per exponent f = 0 .. C(d, 2)
        products += 30 * p[n] + sum((comb(j, 2) + 1) * (comb(n - j, 2) + 1) for j in range(1, n)) + n * (comb(n, 2) + 1)
        seen.append((s[n], products + comb(n, 2) + 1))
    return seen


LAYERS = 7


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_kept_price_tables_equal_the_recurrence_from_scratch(order):
    want = priced_from_scratch(MAX_DEGREE)
    degrees = list(range(1, MAX_DEGREE + 1))
    if order == "descending":
        degrees.reverse()
    elif order == "shuffled":
        random.Random(20).shuffle(degrees)
    # the table is built once, by whichever degree is asked first
    covers._price_table.cache_clear()
    for k in degrees:
        assert block_states(k, LAYERS) == LAYERS * want[k][0], k
        assert oracle_products(k) == want[k][1], k
    assert covers._price_table.cache_info().misses == 1
    # a negative index would read the table from its end
    for price in (block_states, oracle_products):
        with pytest.raises(ParameterError, match="degree must not be negative"):
            price(-1)


def test_a_refused_degree_grows_the_price_tables_no_further():
    want = priced_from_scratch(MAX_DEGREE)
    covers._price_table.cache_clear()
    for k in (MAX_DEGREE + 1, 10**6):
        for price in (block_states, oracle_products):
            with pytest.raises(CapacityError):
                price(k)
        # the refusal reads the table of the cap, and extends it by no degree
        assert len(covers._price_table()) == MAX_DEGREE + 1
        assert covers._price_table.cache_info().misses == 1
    for n in range(1, MAX_DEGREE + 1):
        assert block_states(n, LAYERS) == LAYERS * want[n][0], n
        assert oracle_products(n) == want[n][1], n


def test_the_degree_cap_refuses_only_work_of_fifty_seconds_or_more():
    # the tables of the least refused degree alone take some 55 s at the
    # price's rate, and the cap leaves degree 40, maximal gonality at g = 77
    assert priced_from_scratch(MAX_DEGREE + 1)[-1][1] * PRODUCT_S >= 50
    assert MAX_DEGREE >= 40
    # past the cap every price is a CapacityError, at once at any degree
    start = time.perf_counter()
    for k in (MAX_DEGREE + 1, 10**6, 10**30, 10**4000):
        for price in (block_states, oracle_products, lambda k: algebra_price(k, 2 * k + 2, census=True)):
            with pytest.raises(CapacityError, match=f"is past {MAX_DEGREE}, the largest degree"):
                price(k)
    assert time.perf_counter() - start < 1


# seconds that one count took in a fresh process, tables built there, best
# of two (of four for (20, 112) and (30, 172)) on a shared 2-vCPU host
# (Python 3.11), and the time one term
# product stood for there: the class-algebra price, times that, must land
# within a factor of 2 of each.  (20, 112), (30, 172) and (45, 262) are all
# tables, (4, 20000) all split cells, (6, 6000) mostly powers, and the
# oracle's (12, 200000) one evaluation at a large b.  (45, 262) holds the
# walk and the peels to their own costs: priced at one product per diagram
# and p(d - j) terms of each folded D_{d-j}, it would land at 3.7 times its time
MEASURED_S = {
    ("census", 20, 112): 0.05,
    ("census", 30, 172): 0.44,
    ("census", 45, 262): 6.4,
    ("census", 4, 20000): 0.16,
    ("census", 6, 6000): 0.43,
    ("oracle", 12, 200000): 1.0,
}
PRODUCT_S = 0.18e-6


def test_the_class_algebra_price_tracks_its_measured_cost():
    for (engine, k, b), seconds in MEASURED_S.items():
        estimate = algebra_price(k, b, census=engine == "census") * PRODUCT_S
        assert seconds / 2 <= estimate <= 2 * seconds, (engine, k, b, estimate)
    # the default budget of 10^6 accepts every envelope census, the paper's
    # (16, 88) and (20, 112), and (4, 20000)
    for k, b in ENVELOPE + [(16, 88), (20, 112), (4, 20000)]:
        assert algebra_price(k, b, census=True) <= 10**6, (k, b)
    # a price of the tables alone (k alone) would accept each of these at
    # the default budget of 10^6, to run for a second or more
    for engine, k, b in MEASURED_S:
        if b > 1000:
            assert algebra_price(k, b, census=engine == "census") > 4 * algebra_price(k, 2 * k + 2, census=engine == "census")
