"""Independent oracles, kept for cross-checks.  No command runs them but
``oracle-check``, which runs ``cross_check_walk``; the tests run the rest.
Each answers by another route something the product modules compute:

- ``completion_tally``, the block-state walk, tallies the connected
  tuples of (k, b) by the kind of their final pair: ``cross_check_walk``
  holds the tally to the class-algebra census field by field, and the
  character oracle must equal its sum (``count_tuples``, ``class_count``).
- ``iter_tuples`` and ``class_representatives`` list the labeled tuples,
  and one per relabeling class; ``classify_node``, ``refine_type_one``,
  ``full_twist`` and ``are_conjugate`` rebuild the census and the twist
  check from them one class at a time.
- ``verify_twist_orbits`` checks that the full twist fixes equal and
  disjoint pairs and moves every overlapping-pair class in an orbit of
  size exactly 3.
- ``character_table``, the full character table of S_k by the
  border-strip recursion on beta-sets, exact and checked by both
  orthogonality relations, is the reference for the dimensions and
  content sums behind every class-algebra table.

Permutations are stored in word form: ``p[i - 1]`` is the image of symbol
``i``.  Application order is right to left throughout: ``compose(p, q)``
is the map ``x -> p(q(x))``, so the right factor acts first.
Transpositions are bare ``(a, b)`` pairs with ``a < b``.

Tuples are built left to right.  Each entry moves
the need (k - c) + 2(B - 1) by exactly one, with c the cycles of the
running product and B the blocks the entries cut the symbols into: a
cut or a join across blocks lowers it, a join inside a block raises it.
It is 0 only at a connected identity and any other state can lower it,
so a prefix can be completed exactly while its need fits the entries
left.  The block-state walk, tuple iteration and ``prefix_states`` keep a
prefix by that rule alone, and it ends every walk: with no entry left
only the connected identity is kept, so no tuple is completed by hand.

The labeled searches (iteration, class representatives, the conjugacy
test and the full-twist check) read the dense tables of one S_k
(``group_tables``), flattened into lists indexed by small integers: the
group elements, the transpositions, right-multiplication of an element
by a transposition, conjugation of a transposition by a group element,
and the lattice of set partitions of the symbol set together with the
effect of adjoining one more transposition edge.  Partitions are
encoded as leader words: slot ``i - 1`` holds the least symbol of the
block containing ``i``.

The block-state walk touches no k!-sized table: nothing below a node
depends on more than its search state, or on how the sheets are
labeled, so it steps unlabeled block states layer by layer, each mapped
to the number of prefixes that reach it.  A block state is the sorted
tuple of blocks of the symbol partition, each given by the cycle type
of the running product on it.  Multiplying by a transposition (x y)
either cuts the l-cycle through x and y into a d-cycle and an
(l - d)-cycle, which l transpositions do (l / 2 when 2d = l), or joins
an a-cycle and a b-cycle, which a * b transpositions do, merging their
blocks when they differ: the cut-and-join recursion (Goulden and
Jackson, Proc. AMS 125, 1997).  Two entries from the end each state
takes its kind and carries it to the end, so the connected count is the
sum of the walk's tally by kind.  There are at most as many states as
partitions of partitions of k.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations
from math import factorial, prod
from operator import mul

from .characters import partitions_of
from .covers import TupleCensus, _class_divisor, _classes, cover_genus, validate_cover_shape
from .degeneration import DegenerationCensus
from .errors import CapacityError, InvariantViolation, ParameterError

Perm = tuple[int, ...]
Transposition = tuple[int, int]


def identity(k: int) -> Perm:
    """The identity of S_k.

    >>> identity(3)
    (1, 2, 3)
    """
    if k < 1:
        raise ParameterError(f"degree must be at least 1, got {k}")
    return tuple(range(1, k + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """The product ``p * q``: apply ``q`` first, then ``p``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(p) != len(q):
        raise ParameterError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[x - 1] for x in q)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths in weakly decreasing order, fixed points included.

    >>> cycle_type((2, 1, 3))
    (2, 1)
    >>> cycle_type((2, 3, 1))
    (3,)
    """
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x] - 1
            n += 1
        lengths.append(n)
    lengths.sort(reverse=True)
    return tuple(lengths)


def transposition_perm(k: int, t: Transposition) -> Perm:
    """The word form of the transposition ``t`` inside S_k.

    >>> transposition_perm(4, (2, 4))
    (1, 4, 3, 2)
    """
    a, b = t
    if not (1 <= a < b <= k):
        raise ParameterError(f"bad transposition {t} for degree {k}")
    out = list(range(1, k + 1))
    out[a - 1], out[b - 1] = b, a
    return tuple(out)


def all_transpositions(k: int) -> list[Transposition]:
    """All k(k-1)/2 transpositions of S_k in lexicographic order.

    >>> all_transpositions(3)
    [(1, 2), (1, 3), (2, 3)]
    """
    if k < 2:
        raise ParameterError(f"need degree at least 2 for transpositions, got {k}")
    return [(a, b) for a in range(1, k) for b in range(a + 1, k + 1)]


# bounds tuple iteration, class representatives, the conjugacy test and the
# twist check; beyond it the k!-sized tables dwarf any feasible labeled search
MAX_TABLE_DEGREE = 7


def _set_partitions(k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    labels: list[int] = []

    def rec() -> None:
        s = len(labels) + 1
        if s > k:
            out.append(tuple(labels))
            return
        for lead in sorted(set(labels)):
            labels.append(lead)
            rec()
            labels.pop()
        labels.append(s)
        rec()
        labels.pop()

    rec()
    return out


def _merge_partition(labels: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    la, lb = labels[a - 1], labels[b - 1]
    if la == lb:
        return labels
    lo, hi = (la, lb) if la < lb else (lb, la)
    return tuple(lo if x == hi else x for x in labels)


class GroupTables:
    """Lookup tables for one S_k, never changed after construction."""

    __slots__ = (
        "k", "perms", "perm_index", "identity", "transpositions", "trans_index",
        "mul_trans", "trans_of", "min_factors", "conj_trans",
        "partitions", "merge_trans", "nblocks", "discrete",
    )

    def __init__(self, k: int):
        self.k = k
        self.perms: list[Perm] = sorted(permutations(range(1, k + 1)))
        self.perm_index = {p: i for i, p in enumerate(self.perms)}
        self.identity = self.perm_index[tuple(range(1, k + 1))]

        self.transpositions = all_transpositions(k)
        self.trans_index = {t: i for i, t in enumerate(self.transpositions)}

        # mul_trans[p][t]: index of perms[p] composed with transposition t,
        # the transposition acting first
        self.mul_trans = []
        for p in self.perms:
            row = []
            for a, b in self.transpositions:
                q = list(p)
                q[a - 1], q[b - 1] = p[b - 1], p[a - 1]
                row.append(self.perm_index[tuple(q)])
            self.mul_trans.append(row)

        self.trans_of = [-1] * len(self.perms)
        for t, pair in enumerate(self.transpositions):
            self.trans_of[self.perm_index[transposition_perm(k, pair)]] = t

        self.min_factors = [k - len(cycle_type(p)) for p in self.perms]

        self.conj_trans = []
        for g in self.perms:
            row = []
            for a, b in self.transpositions:
                ia, ib = g[a - 1], g[b - 1]
                row.append(self.trans_index[(ia, ib) if ia < ib else (ib, ia)])
            self.conj_trans.append(row)

        self.partitions = _set_partitions(k)
        part_index = {c: i for i, c in enumerate(self.partitions)}
        self.discrete = part_index[tuple(range(1, k + 1))]
        self.nblocks = [len(set(c)) for c in self.partitions]
        self.merge_trans = [
            [part_index[_merge_partition(c, a, b)] for a, b in self.transpositions]
            for c in self.partitions
        ]


@lru_cache(maxsize=None)
def group_tables(k: int) -> GroupTables:
    if k < 2:
        raise CapacityError(f"tables need degree at least 2, got {k}")
    if k > MAX_TABLE_DEGREE:
        raise CapacityError(
            f"degree {k} exceeds the table bound {MAX_TABLE_DEGREE} of tuple "
            "iteration, class representatives, the conjugacy test and the twist "
            "check; counts and censuses need no tables"
        )
    return GroupTables(k)


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
        # the running product in word form; multiplying by (a b) on the
        # right swaps slots a and b
        acc = list(range(1, k + 1))
        for t in self.entries:
            a, b = t
            if not (1 <= a < b <= k):
                raise ParameterError(f"bad transposition {t} for degree {k}")
            acc[a - 1], acc[b - 1] = acc[b - 1], acc[a - 1]
        if acc != list(range(1, k + 1)):
            raise ParameterError(f"entries do not multiply to the identity: {self.entries}")
        if len(set(_leaders(k, self.entries))) != 1:
            raise ParameterError(f"entries do not act transitively: {self.entries}")

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return cover_genus(self.degree, len(self.entries))


def _leaders(k: int, entries) -> list[int]:
    """Blocks the entries, as edges, cut {1, ..., k} into, by union-find:
    slot ``x - 1`` holds the least symbol of the block of ``x``."""
    parent = list(range(k + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in entries:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(1, k + 1)]


def _walk(tab: GroupTables, b: int, relabelings: list[int]):
    """Monodromy tuples of length b in lexicographic order, by the pruned
    depth-first search, skipping every tuple that one of ``relabelings``
    (indices into ``tab.perms``) maps lower.

    At every depth only the relabelings that fix the prefix entrywise
    stay live; a branch is dropped the moment one of them would map the
    next entry lower.  With no relabelings every tuple is yielded.
    """
    k = tab.k
    trans = tab.transpositions
    mul, merge = tab.mul_trans, tab.merge_trans
    minf, nbl, conj = tab.min_factors, tab.nblocks, tab.conj_trans
    stack: list[int] = []

    def rec(p: int, c: int, live: list[int]):
        rem = b - len(stack)
        if not rem:
            yield MonodromyTuple(k, tuple(trans[i] for i in stack))
            return
        nxt = rem - 1
        mrow, crow = mul[p], merge[c]
        for t in range(len(trans)):
            p2, c2 = mrow[t], crow[t]
            if minf[p2] + 2 * nbl[c2] - 2 > nxt:
                continue
            nlive = []
            for g in live:
                tg = conj[g][t]
                if tg < t:
                    break
                if tg == t:
                    nlive.append(g)
            else:
                stack.append(t)
                yield from rec(p2, c2, nlive)
                stack.pop()

    yield from rec(tab.identity, tab.discrete, relabelings)


def iter_tuples(k: int, b: int):
    """Yield every monodromy tuple for (k, b) in lexicographic order."""
    validate_cover_shape(k, b)
    yield from _walk(group_tables(k), b, [])


def prefix_states(tab: GroupTables, b: int) -> dict:
    """Labeled search states after the first b - 2 entries, with their
    prefix counts.

    Maps each state ``(p, c)`` to the number of pruned prefixes that
    reach it: ``p`` indexes the running product, ``c`` the partition the
    entries cut the symbols into.  Everything below a state depends on
    the state alone, so merging prefixes layer by layer is exact.  A
    prefix is kept while its need fits the entries left, so every state
    it returns has a completing pair.
    """
    mul, merge = tab.mul_trans, tab.merge_trans
    minf, nbl = tab.min_factors, tab.nblocks
    nt = len(tab.transpositions)
    layer = {(tab.identity, tab.discrete): 1}
    for depth in range(b - 2):
        nxt = b - depth - 1
        out: dict = {}
        for (p, c), mult in layer.items():
            mrow, crow = mul[p], merge[c]
            for t in range(nt):
                p2, c2 = mrow[t], crow[t]
                if minf[p2] + 2 * nbl[c2] - 2 > nxt:
                    continue
                key = (p2, c2)
                out[key] = out.get(key, 0) + mult
        layer = out
    return layer


def are_conjugate(s: MonodromyTuple, t: MonodromyTuple) -> bool:
    """True when some relabeling carries ``s`` to ``t`` entrywise."""
    if s.degree != t.degree or s.length != t.length:
        return False
    tab = group_tables(s.degree)
    si = [tab.trans_index[e] for e in s.entries]
    ti = [tab.trans_index[e] for e in t.entries]
    for row in tab.conj_trans:
        if all(row[a] == bb for a, bb in zip(si, ti)):
            return True
    return False


def class_representatives(k: int, b: int) -> list[MonodromyTuple]:
    """One lexicographically least representative per relabeling class:
    the walk of ``iter_tuples``, pruned by every relabeling but the
    identity."""
    validate_cover_shape(k, b)
    tab = group_tables(k)
    return list(_walk(tab, b, [g for g in range(len(tab.perms)) if g != tab.identity]))


def _block(cycles) -> tuple:
    return tuple(sorted(cycles, reverse=True))


@lru_cache(maxsize=None)
def _block_steps(state: tuple) -> tuple:
    """One-entry successors of a block state: ``(successor, number of
    transpositions leading there, entries it still needs)`` per distinct
    successor, the need being (k - #cycles) + 2 (#blocks - 1).  Memoised
    for the life of the process: one entry per state reached, at most
    ``covers.block_states(k)``."""
    steps: dict = {}

    def add(blocks: list, n: int) -> None:
        key = tuple(sorted(blocks))
        steps[key] = steps.get(key, 0) + n

    blocks = list(state)
    for i, ct in enumerate(blocks):
        rest = blocks[:i] + blocks[i + 1:]
        for m, l in enumerate(ct):
            others = ct[:m] + ct[m + 1:]
            for d in range(1, l // 2 + 1):
                add(rest + [_block(others + (d, l - d))], l // 2 if 2 * d == l else l)
            for m2 in range(m + 1, len(ct)):
                joined = others[:m2 - 1] + others[m2:] + (l + ct[m2],)
                add(rest + [_block(joined)], l * ct[m2])
        for i2 in range(i + 1, len(blocks)):
            ct2 = blocks[i2]
            rest2 = [blk for n, blk in enumerate(blocks) if n != i and n != i2]
            for m, l in enumerate(ct):
                for m2, l2 in enumerate(ct2):
                    joined = ct[:m] + ct[m + 1:] + ct2[:m2] + ct2[m2 + 1:] + (l + l2,)
                    add(rest2 + [_block(joined)], l * l2)
    k = sum(map(sum, state))
    return tuple(
        (nxt, n, k - sum(map(len, nxt)) + 2 * len(nxt) - 2)
        for nxt, n in steps.items()
    )


def _kind(state: tuple):
    """The kind of a state kept two entries from the end, one of the four
    that need at most two: "central" (identity product, connected),
    "overlap" (a 3-cycle), "disjoint" (a double transposition), or the
    smaller block size j of an identity product on two blocks.  Any other
    state is an InvariantViolation."""
    if len(state) == 1:
        moved = tuple(l for l in state[0] if l > 1)
        if not moved:
            return "central"
        if moved == (3,):
            return "overlap"
        if moved == (2, 2):
            return "disjoint"
    elif len(state) == 2 and all(l == 1 for ct in state for l in ct):
        return min(map(len, state))
    raise InvariantViolation(f"the walk kept {state} two entries from the end: no pair completes it")


def completion_tally(k: int, b: int) -> dict:
    """The walk: unlabeled block states after each of the b
    entries, each weighted by the number of pruned prefixes that reach
    it, from k singleton blocks, keeping a successor while its need fits
    the entries left.  Two entries from the end each state takes its
    ``_kind``, which rides in the layer key to the end, where each kind
    maps to its raw count of connected tuples."""
    layer = {(((1,),) * k, None): 1}
    for rem in range(b - 1, -1, -1):
        out: dict = {}
        for (state, kind), mult in layer.items():
            if rem == 1:
                kind = _kind(state)
            for nxt, n, need in _block_steps(state):
                if need <= rem:
                    key = (nxt, kind)
                    out[key] = out.get(key, 0) + mult * n
        layer = out
    return {kind: mult for (_, kind), mult in layer.items()}


def count_tuples(k: int, b: int, workers: int = 1) -> int:
    """Raw number of monodromy tuples for (k, b): the sum of the walk's
    completion tally, which ``oracle-check`` compares field by field with
    the class-algebra census, and which the character oracle checks.

    ``workers`` is ignored: the count runs in one process.  It stays only
    because the benchmark's pool probe still passes it.
    """
    validate_cover_shape(k, b)
    return sum(completion_tally(k, b).values())


def class_count(k: int, b: int) -> TupleCensus:
    """Tuple census with the class count derived as N / k!.

    For degree 2 the relabeling action is trivial and the class count
    equals the raw count.
    """
    raw = count_tuples(k, b)
    return TupleCensus(k, b, raw, _classes(raw, k, "raw count"))


class NodeType(Enum):
    """Local type of a colliding pair of branch points."""

    ONE = "1"
    TWO_TWO = "2,2"
    THREE = "3"


def classify_node(t1: Transposition, t2: Transposition) -> NodeType:
    """Type of the node formed when the branch points carrying ``t1`` and
    ``t2`` collide.

    >>> classify_node((1, 2), (1, 2))
    <NodeType.ONE: '1'>
    >>> classify_node((1, 2), (3, 4))
    <NodeType.TWO_TWO: '2,2'>
    >>> classify_node((1, 2), (2, 3))
    <NodeType.THREE: '3'>
    """
    shared = len(set(t1) & set(t2))
    if shared == 2:
        return NodeType.ONE
    if shared == 0:
        return NodeType.TWO_TWO
    return NodeType.THREE


@dataclass(frozen=True)
class CentralProfile:
    """Dropping the doubled pair leaves a connected cover of genus g - 1."""


@dataclass(frozen=True)
class SplitProfile:
    """Dropping the doubled pair splits the cover into two components.

    ``j`` is the smaller of the two orbit sizes, ``i`` the genus of the
    degree-j component and ``beta1`` its branch point count.  When the
    orbits tie in size the labeling is fixed by i <= g - i.
    """

    j: int
    i: int
    beta1: int


TypeOneProfile = CentralProfile | SplitProfile


def refine_type_one(t: MonodromyTuple) -> TypeOneProfile:
    """Refine an equal-pair collision by the orbits of the shorter tuple."""
    k, b = t.degree, t.length
    last2 = t.entries[-2:]
    if classify_node(*last2) is not NodeType.ONE:
        raise ParameterError(f"last two entries {last2} are not an equal pair")
    g = cover_genus(k, b)
    rest = t.entries[:-2]
    leaders = _leaders(k, rest)
    blocks = sorted(set(leaders))
    if len(blocks) == 1:
        return CentralProfile()
    if len(blocks) != 2:
        raise InvariantViolation(
            f"{len(blocks)} orbits after dropping the pair; transitivity is broken: {t.entries}"
        )
    small = min(blocks, key=leaders.count)
    j = leaders.count(small)
    beta1 = sum(1 for e in rest if leaders[e[0] - 1] == small)
    # the genus rule, stated apart from full_census's: each side is a
    # cover of the line, and the two genera add up to g
    i, odd = divmod(beta1 - 2 * j + 2, 2)
    if i < 0 or odd:
        raise InvariantViolation(
            f"orbit of size {j} carries {beta1} branch points, "
            f"not a valid cover of the line: {t.entries}"
        )
    if i > g or (b - 2) - beta1 != 2 * (g - i) + 2 * (k - j) - 2:
        raise InvariantViolation(
            f"component genera {i}, {g - i} do not balance the branch counts: {t.entries}"
        )
    i = min(i, g - i) if 2 * j == k else i
    return SplitProfile(j, i, 2 * i + 2 * j - 2)


def full_twist(t: MonodromyTuple) -> MonodromyTuple:
    """Monodromy of a full turn of the two colliding branch points around
    each other: both final entries are conjugated by their product.

    Fixes equal and disjoint pairs pointwise; on overlapping pairs it has
    order three.
    """
    x, y = t.entries[-2:]

    def swap(pair: Transposition, s: int) -> int:
        return pair[1] if s == pair[0] else pair[0] if s == pair[1] else s

    def twist(e: Transposition) -> Transposition:
        # sigma = x * y: y acts first
        a, b = (swap(x, swap(y, s)) for s in e)
        return (a, b) if a < b else (b, a)

    return MonodromyTuple(t.degree, t.entries[:-2] + (twist(x), twist(y)))


def cross_check_walk(k: int, b: int, census: DegenerationCensus) -> TupleCensus:
    """The walk's TupleCensus, once its kind tally equals the class-algebra
    ``census`` of (k, b) field by field: central, overlap, the split cells
    of each size j, then disjoint, which the census takes by difference.
    The first field that differs is an InvariantViolation naming it."""
    tally = completion_tally(k, b)
    want = {"central": census.central, "overlap": census.type_three}
    for (j, _i), n in census.split_table.items():
        want[j] = want.get(j, 0) + n
    want["disjoint"] = census.type_two_two
    for kind in dict.fromkeys([*want, *tally]):
        if tally.get(kind, 0) != want.get(kind, 0) * _class_divisor(k):
            name = kind if isinstance(kind, str) else f"split size j = {kind}"
            raise InvariantViolation(f"the walk and the class-algebra census disagree on the {name} tally at ({k}, {b})")
    raw = sum(tally.values())
    return TupleCensus(k, b, raw, _classes(raw, k, "raw count"))


@dataclass(frozen=True)
class TwistOrbitReport:
    """Outcome of the order-three check on every class of one (k, b)."""

    k: int
    b: int
    classes: int
    type_three_classes: int
    fixed_point_failures: int
    orbit_size_failures: int

    @property
    def clean(self) -> bool:
        return self.fixed_point_failures == 0 and self.orbit_size_failures == 0


def verify_twist_orbits(k: int, b: int) -> TwistOrbitReport:
    """Check the full twist fixes equal and disjoint pairs pointwise and
    moves every overlapping-pair class in an orbit of size exactly 3.

    The check runs over labeled search states, prefixes merged layer by
    layer (``prefix_states``), through the dense S_k tables.  A tuple and
    its twist share the prefix of b - 2 entries, so a relabeling
    carrying one to the other fixes every prefix entry.  The twist
    commutes with relabeling, so both checks give one answer on a whole
    class, and each tally counts every class k! times (once for k = 2).

    Each entry moves the need by one, from 2k - 2 with b entries left, so
    the need and the entries left share their parity.  A first entry u
    is kept, by the walk's rule, when the need after it is at most 1;
    then it is 1: the product p u is a transposition, the prefix with u
    is connected, and the last entry v is p u itself.  So every
    completing pair of a state (p, c) has u v = p^-1: the node type and
    the twist sigma = u v are read once per state, from its first pair,
    and every pair is compared with its image under sigma.  An
    overlapping pair lies inside one 3-cycle of p, hence inside one
    block, so it completes a tuple only when the prefix is already
    connected.  A relabeling fixing every edge of a connected prefix
    graph on k >= 3 symbols fixes every symbol (a symbol with two
    distinct neighbours y, z maps into {x, y} & {x, z}; a leaf's
    neighbour has a second one), so the twisted tuple is conjugate to the
    original only when it equals it.
    """
    validate_cover_shape(k, b)
    tab = group_tables(k)
    trans, trans_of, conj = tab.transpositions, tab.trans_of, tab.conj_trans
    mul, merge, minf, nbl = tab.mul_trans, tab.merge_trans, tab.min_factors, tab.nblocks
    free, units = mul[tab.identity], range(len(trans))
    classes = n3 = fixed_bad = orbit_bad = 0
    for (p, c), mult in prefix_states(tab, b).items():
        mrow, crow = mul[p], merge[c]
        pairs = [(u, trans_of[q]) for u, q, d in zip(units, mrow, crow) if minf[q] + 2 * nbl[d] - 2 <= 1]
        if not pairs:
            raise InvariantViolation(
                f"prefix state {tab.perms[p]} on partition {tab.partitions[c]} has no completing pair"
            )
        u, v = pairs[0]
        sigma = mul[free[u]][v]
        twist = conj[sigma]
        moved = sum(1 for x, y in pairs if twist[x] != x or twist[y] != y)
        classes += len(pairs) * mult
        if classify_node(trans[u], trans[v]) is not NodeType.THREE:
            fixed_bad += moved * mult
            continue
        if nbl[c] != 1:
            raise InvariantViolation(
                f"overlapping pair {trans[u]}, {trans[v]} joins the split "
                f"prefix partition {tab.partitions[c]}"
            )
        n3 += len(pairs) * mult
        # order divides 3 at class level, so size 1 is the only failure
        orbit_bad += (len(pairs) - moved) * mult

    return TwistOrbitReport(
        k, b,
        _classes(classes, k, "twist class tally"),
        _classes(n3, k, "twist overlapping-pair tally"),
        _classes(fixed_bad, k, "fixed-point failure tally"),
        _classes(orbit_bad, k, "orbit-size failure tally"),
    )


def centralizer_order(mu: tuple[int, ...]) -> int:
    """Order of the centralizer of a permutation with cycle type ``mu``."""
    return prod(part**m * factorial(m) for part, m in Counter(mu).items())


@lru_cache(maxsize=None)
def _chi(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character value chi_lam at class mu, by border-strip removal."""
    if not mu:
        return 1 if not lam else 0
    ell, rest = mu[0], mu[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - ell
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        lam2 = tuple(
            v for v in (newbeta[i] - (m - 1 - i) for i in range(m)) if v > 0
        )
        total += (-1) ** height * _chi(lam2, rest)
    return total


@dataclass(frozen=True)
class CharacterTable:
    """Full integer character table of S_k.

    Rows are irreducibles and columns conjugacy classes, both indexed by
    the partitions of k in the order of ``classes``.
    """

    k: int
    classes: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]
    dims: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def chi(self, lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
        return self.rows[self.classes.index(lam)][self.classes.index(mu)]


@lru_cache(maxsize=None)
def _build_table(k: int) -> CharacterTable:
    classes = partitions_of(k)
    sizes = tuple(factorial(k) // centralizer_order(mu) for mu in classes)
    rows = tuple(tuple(_chi(lam, mu) for mu in classes) for lam in classes)
    identity_col = classes.index((1,) * k)
    dims = tuple(row[identity_col] for row in rows)

    # both inner products are symmetric, so each pair is checked once
    order = factorial(k)
    ncls = len(classes)
    for i, ri in enumerate(rows):
        if dims[i] <= 0:
            raise InvariantViolation(f"non-positive dimension for {classes[i]}")
        weighted = [s * a for s, a in zip(sizes, ri)]
        for j in range(i, ncls):
            dot = sum(map(mul, weighted, rows[j]))
            if dot != (order if i == j else 0):
                raise InvariantViolation(
                    f"row orthogonality fails for {classes[i]}, {classes[j]}"
                )
    columns = tuple(zip(*rows))
    for u in range(ncls):
        for v in range(u, ncls):
            dot = sum(map(mul, columns[u], columns[v]))
            want = order // sizes[u] if u == v else 0
            if dot != want:
                raise InvariantViolation(
                    f"column orthogonality fails for {classes[u]}, {classes[v]}"
                )

    return CharacterTable(k, classes, sizes, dims, rows)


def character_table(k: int) -> CharacterTable:
    """Character table of S_k, cached: the tests' reference; no count builds one."""
    if k < 1:
        raise ParameterError(f"degree must be at least 1, got {k}")
    return _build_table(k)
