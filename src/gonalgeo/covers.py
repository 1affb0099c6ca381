"""Enumeration of transposition monodromy tuples for simple branched covers.

A cover datum for a connected k-sheeted cover of the line with b simple
branch points is a length-b tuple of transpositions in S_k whose
left-to-right product is the identity and whose entries act transitively
on the k symbols.  Tuples are built left to right; the last entry is
forced to be the inverse of the running product and is accepted only when
that inverse is itself a transposition.  A branch is abandoned as soon as
the running product needs more transpositions than the slots that remain,
or the symbol graph has more spare components than remaining entries can
join up.

Iteration and class representatives walk this pruned tree depth first,
one tuple at a time.  Counting does not: everything below a node depends
only on its search state (running product and symbol partition), so the
counter merges prefixes into states layer by layer and weights each
state's completions by the number of prefixes that reach it.

The counter goes one step further and merges states by relabeling
orbit, keeping one labeled representative per orbit mapped to the
prefix count of the whole orbit.  Two states lie in one orbit exactly
when their blocks match up with equal cycle types of the running
product (whose sum is the block size) and equal entry counts.  The
merge is exact: relabeling a prefix relabels its state, so prefix counts
are constant on an orbit, and every member of an orbit has as many
one-entry steps into any other orbit as its representative.  The mass
of an orbit O' one layer down is therefore the sum over orbits O of
M(O) times the number of entries t taking rep(O) into O'.  Pruning and
pair completions depend on the orbit alone.

Relabeling the k symbols acts on tuples entrywise; for k >= 3 the action
is free on the transitive tuples, so the raw count is k! times the class
count.  Class representatives, when asked for, are the lexicographically
least tuples of their orbits.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import InvariantViolation, ParameterError
from .perm import Perm, Transposition
from .tables import GroupTables, group_tables


def cover_genus(k: int, b: int) -> int:
    """Genus of the covering curve, from the branch count.

    >>> cover_genus(3, 4)
    0
    >>> cover_genus(2, 8)
    3
    """
    validate_cover_shape(k, b)
    return (b - 2 * k + 2) // 2


def validate_cover_shape(k: int, b: int) -> None:
    if k < 2:
        raise ParameterError(f"degree must be at least 2, got {k}")
    if b < 2 or b % 2:
        raise ParameterError(f"branch count must be even and at least 2, got {b}")
    if b < 2 * k - 2:
        raise ParameterError(
            f"branch count {b} below 2k - 2 = {2 * k - 2}: the cover genus would be negative"
        )


@dataclass(frozen=True, slots=True)
class MonodromyTuple:
    """Validated monodromy datum: transpositions with identity product,
    acting transitively on {1, ..., degree}."""

    degree: int
    entries: tuple[Transposition, ...]

    def __post_init__(self):
        k = self.degree
        if k < 2:
            raise ParameterError(f"degree must be at least 2, got {k}")
        if len(self.entries) % 2:
            raise ParameterError("entry count must be even; the product is odd otherwise")
        parent = list(range(k + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # the running product in word form; multiplying by (a b) on the
        # right swaps slots a and b
        acc = list(range(1, k + 1))
        for t in self.entries:
            a, b = t
            if not (1 <= a < b <= k):
                raise ParameterError(f"bad transposition {t} for degree {k}")
            acc[a - 1], acc[b - 1] = acc[b - 1], acc[a - 1]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        if acc != list(range(1, k + 1)):
            raise ParameterError(f"entries do not multiply to the identity: {self.entries}")
        if len({find(x) for x in range(1, k + 1)}) != 1:
            raise ParameterError(f"entries do not act transitively: {self.entries}")

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return cover_genus(self.degree, len(self.entries))


@dataclass(frozen=True)
class TupleCensus:
    """Raw and class-level tuple counts for one (k, b)."""

    k: int
    b: int
    raw_count: int
    class_count: int
    source: str  # "enumeration" or "oracle"

    def __post_init__(self):
        expected = self.class_count * (factorial(self.k) if self.k >= 3 else 1)
        if self.raw_count != expected:
            raise InvariantViolation(
                f"raw count {self.raw_count} inconsistent with "
                f"{self.class_count} classes at degree {self.k}"
            )


def _class_divisor(k: int) -> int:
    # relabeling acts freely only from degree 3 up; at degree 2 it is trivial
    return factorial(k) if k >= 3 else 1


def iter_tuples(k: int, b: int):
    """Yield every monodromy tuple for (k, b) in lexicographic order."""
    validate_cover_shape(k, b)
    tab = group_tables(k)
    trans = tab.transpositions
    mul, merge = tab.mul_trans, tab.merge_trans
    minf, nbl, trans_of = tab.min_factors, tab.nblocks, tab.trans_of
    stack: list[int] = []

    def rec(p: int, c: int):
        rem = b - len(stack)
        if rem == 1:
            t = trans_of[p]
            if t >= 0 and nbl[merge[c][t]] == 1:
                stack.append(t)
                yield MonodromyTuple(k, tuple(trans[i] for i in stack))
                stack.pop()
            return
        nxt = rem - 1
        mrow, crow = mul[p], merge[c]
        for t in range(len(trans)):
            p2 = mrow[t]
            if minf[p2] > nxt:
                continue
            c2 = crow[t]
            if nbl[c2] - 1 > nxt:
                continue
            stack.append(t)
            yield from rec(p2, c2)
            stack.pop()

    yield from rec(tab.identity, tab.discrete)


def prefix_states(
    tab: GroupTables, b: int, weighted: bool = False, orbits: bool = False
) -> dict:
    """Search states after the first b - 2 entries, with their prefix counts.

    Maps each state ``(p, c, w)`` to the number of pruned prefixes that
    reach it: ``p`` indexes the running product, ``c`` the partition the
    entries cut the symbols into.  With ``weighted`` set, ``w`` holds the
    entry count of every block, indexed by block leader, until the
    partition is connected; it is ``None`` otherwise, since a connected
    partition never splits again.  Everything below a state depends on
    the state alone, so merging prefixes layer by layer is exact.  With
    ``orbits`` set, every layer keeps one representative per relabeling
    orbit, mapped to the prefix count of the whole orbit.
    """
    trans = tab.transpositions
    mul, merge = tab.mul_trans, tab.merge_trans
    minf, nbl, parts = tab.min_factors, tab.nblocks, tab.partitions
    nt = len(trans)
    layer = {(tab.identity, tab.discrete, (0,) * tab.k if weighted else None): 1}
    for depth in range(b - 2):
        nxt = b - depth - 1
        out: dict = {}
        for (p, c, w), mult in layer.items():
            mrow, crow, labels = mul[p], merge[c], parts[c]
            for t in range(nt):
                p2 = mrow[t]
                if minf[p2] > nxt:
                    continue
                c2 = crow[t]
                if nbl[c2] - 1 > nxt:
                    continue
                w2 = None
                if w is not None and nbl[c2] > 1:
                    la, lb = labels[trans[t][0] - 1], labels[trans[t][1] - 1]
                    w2l = list(w)
                    if la == lb:
                        w2l[la - 1] += 1
                    else:
                        lo, hi = (la, lb) if la < lb else (lb, la)
                        w2l[lo - 1] += w2l[hi - 1] + 1
                        w2l[hi - 1] = 0
                    w2 = tuple(w2l)
                key = (p2, c2, w2)
                out[key] = out.get(key, 0) + mult
        layer = _merge_orbits(tab, out) if orbits else out
    return layer


@lru_cache(maxsize=None)
def _orbit_key(tab: GroupTables, state: tuple) -> tuple:
    """Complete invariant of a state's relabeling orbit: the sorted
    (cycle type of the running product on the block, block entry count
    or None) over the blocks of its partition.  Memoised for the life of
    the process, like ``group_tables``: one entry per state reached."""
    p, c, w = state
    perm, labels = tab.perms[p], tab.partitions[c]
    cycles: dict[int, list[int]] = {}
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
    return tuple(sorted(
        (tuple(sorted(ct)), None if w is None else w[lead - 1])
        for lead, ct in cycles.items()
    ))


def _merge_orbits(tab: GroupTables, layer: dict) -> dict:
    reps: dict = {}
    merged: dict = {}
    for state, mult in layer.items():
        rep = reps.setdefault(_orbit_key(tab, state), state)
        merged[rep] = merged.get(rep, 0) + mult
    return merged


def count_tuples(k: int, b: int, workers: int = 1) -> int:
    """Raw number of monodromy tuples for (k, b).

    ``workers`` is accepted for compatibility; the count runs in one
    process and does not depend on it.
    """
    validate_cover_shape(k, b)
    tab = group_tables(k)
    return sum(
        mult * tab.pair_completions(p, c)
        for (p, c, _w), mult in prefix_states(tab, b, orbits=True).items()
    )


def class_count(k: int, b: int, workers: int = 1) -> TupleCensus:
    """Tuple census with the class count derived as N / k!.

    For degree 2 the relabeling action is trivial and the class count
    equals the raw count.
    """
    raw = count_tuples(k, b, workers)
    div = _class_divisor(k)
    if raw % div:
        raise InvariantViolation(
            f"raw count {raw} for ({k}, {b}) is not divisible by {div}"
        )
    return TupleCensus(k, b, raw, raw // div, "enumeration")


def class_count_via_oracle(k: int, b: int, *, max_degree: int = 12) -> TupleCensus:
    """Tuple census computed from the character oracle instead of search."""
    from .characters import connected_count

    validate_cover_shape(k, b)
    raw = connected_count(k, b, max_degree=max_degree)
    div = _class_divisor(k)
    if raw % div:
        raise InvariantViolation(
            f"oracle count {raw} for ({k}, {b}) is not divisible by {div}"
        )
    return TupleCensus(k, b, raw, raw // div, "oracle")


def _entry_indices(t: MonodromyTuple, tab: GroupTables) -> tuple[int, ...]:
    return tuple(tab.trans_index[e] for e in t.entries)


def conjugate_tuple(t: MonodromyTuple, g: Perm) -> MonodromyTuple:
    """Relabel every entry of ``t`` through ``g``."""
    if len(g) != t.degree:
        raise ParameterError(f"degree mismatch: {len(g)} vs {t.degree}")
    out = []
    for a, b in t.entries:
        ia, ib = g[a - 1], g[b - 1]
        out.append((ia, ib) if ia < ib else (ib, ia))
    return MonodromyTuple(t.degree, tuple(out))


def canonical_form(t: MonodromyTuple) -> MonodromyTuple:
    """Lexicographically least relabeling of ``t``; constant on orbits.

    >>> canonical_form(MonodromyTuple(3, ((1, 3), (1, 3), (2, 3), (2, 3)))).entries
    ((1, 2), (1, 2), (1, 3), (1, 3))
    """
    tab = group_tables(t.degree)
    idx = _entry_indices(t, tab)
    best = min(tuple(row[i] for i in idx) for row in tab.conj_trans)
    return MonodromyTuple(t.degree, tuple(tab.transpositions[i] for i in best))


def are_conjugate(s: MonodromyTuple, t: MonodromyTuple) -> bool:
    """True when some relabeling carries ``s`` to ``t`` entrywise."""
    if s.degree != t.degree or s.length != t.length:
        return False
    tab = group_tables(s.degree)
    si = _entry_indices(s, tab)
    ti = _entry_indices(t, tab)
    for row in tab.conj_trans:
        if all(row[a] == bb for a, bb in zip(si, ti)):
            return True
    return False


def tuple_stabilizer(t: MonodromyTuple) -> list[Perm]:
    """All relabelings fixing ``t`` entrywise, identity included."""
    tab = group_tables(t.degree)
    idx = _entry_indices(t, tab)
    out = []
    for g, row in enumerate(tab.conj_trans):
        if all(row[i] == i for i in idx):
            out.append(tab.perms[g])
    return out


@dataclass(frozen=True)
class FreeActionReport:
    checked: int
    violations: int
    witnesses: tuple[tuple[MonodromyTuple, int], ...]


def verify_free_action(tuples) -> FreeActionReport:
    """Count tuples with a nontrivial relabeling stabilizer.

    Expected zero violations for degree 3 and up; degree below 3 is
    rejected since the action is not free there to begin with.
    """
    checked = 0
    witnesses = []
    for t in tuples:
        if t.degree < 3:
            raise ParameterError("free action check needs degree at least 3")
        checked += 1
        stab = tuple_stabilizer(t)
        if len(stab) != 1:
            witnesses.append((t, len(stab)))
    return FreeActionReport(checked, len(witnesses), tuple(witnesses))


def class_representatives(k: int, b: int) -> list[MonodromyTuple]:
    """One lexicographically least representative per relabeling class.

    The search walks the same tree as ``iter_tuples`` but keeps, at every
    depth, the set of relabelings that fix the prefix entrywise; a branch
    is dropped the moment any of them would map the next entry lower.
    """
    validate_cover_shape(k, b)
    tab = group_tables(k)
    trans = tab.transpositions
    mul, merge = tab.mul_trans, tab.merge_trans
    minf, nbl, trans_of, conj = tab.min_factors, tab.nblocks, tab.trans_of, tab.conj_trans
    nt = len(trans)
    out: list[MonodromyTuple] = []
    stack: list[int] = []

    def rec(p: int, c: int, live: list[int]):
        rem = b - len(stack)
        if rem == 1:
            t = trans_of[p]
            if t < 0 or nbl[merge[c][t]] != 1:
                return
            for g in live:
                if conj[g][t] < t:
                    return
            entries = tuple(trans[i] for i in stack) + (trans[t],)
            out.append(MonodromyTuple(k, entries))
            return
        nxt = rem - 1
        mrow, crow = mul[p], merge[c]
        for t in range(nt):
            p2 = mrow[t]
            if minf[p2] > nxt:
                continue
            c2 = crow[t]
            if nbl[c2] - 1 > nxt:
                continue
            nlive = []
            smaller = False
            for g in live:
                tg = conj[g][t]
                if tg < t:
                    smaller = True
                    break
                if tg == t:
                    nlive.append(g)
            if smaller:
                continue
            stack.append(t)
            rec(p2, c2, nlive)
            stack.pop()

    initial = [g for g in range(len(tab.perms)) if g != tab.identity]
    rec(tab.identity, tab.discrete, initial)
    return out
