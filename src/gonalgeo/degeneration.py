"""Collision degenerations of simple branched covers and their census.

When the last two branch points of a cover collide, the local picture is
decided by the final pair of transpositions: an equal pair (their product
is the identity), a disjoint pair (product a double transposition), or an
overlapping pair (product a 3-cycle).  No other case exists.  Equal pairs
are refined further by the orbit structure left after dropping them: one
orbit keeps a connected cover of lower genus, two orbits split the cover
into a pair of components joined at a point.

The census tallies these types over every class of one (k, b) from the
class-algebra sums of ``characters`` alone, with no walk step: C(k, 2)
Conn(k, b - 2) central pairs (any transposition twice after a connected
prefix), 3 T3(k, b - 2) overlapping ones (a 3-cycle is a product of two
transpositions in 3 ways), and C(k, j) C(b - 2, beta1) j (k - j)
Conn(j, beta1) Conn(k - j, b - 2 - beta1) splits into a degree-j
component carrying beta1 of the other entries and its complement,
halved when 2j = k; the disjoint pairs are the rest of Conn(k, b).  The
cells of one size j are one pass over the component genus i, with
beta1 = 2i + 2j - 2 and C(b - 2, beta1) carried from cell to cell.  Each
raw tally is divided by k! (relabeling acts freely for k >= 3).  The
walk (``covers.completion_tally``) tallies the same kinds another way,
and ``cross_check_walk``, which ``oracle-check`` runs, compares them.

The full-twist check runs over labeled search states, in a pass of its
own: all completions of one state share their node type and their twist
(u v is the inverse of the prefix product), read once per state, and
each completion is twisted through the dense S_k tables.
``class_representatives``, ``full_twist`` and ``are_conjugate`` do the
same check one class at a time and serve as its independent reference;
like ``refine_type_one`` they work on transposition pairs directly.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import comb

from .characters import _connected_terms, _evaluate, _three_cycle_terms
from .covers import (
    MonodromyTuple,
    TupleCensus,
    _class_divisor,
    _classes,
    _leaders,
    completion_tally,
    cover_genus,
    prefix_states,
    validate_cover_shape,
)
from .errors import InvariantViolation, ParameterError
from .perm import Transposition
from .tables import group_tables


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


@dataclass(frozen=True)
class DegenerationCensus:
    """Class-level tallies of collision types for one (k, b).

    Stored: the equal-, disjoint- and overlapping-pair class counts N1,
    N22 and N3, and ``split_table``, mapping (j, i) to the classes that
    split into a degree-j genus-i component plus its complement.  Derived
    on first access and kept, without validating again: ``g``, ``classes``,
    ``raw_count`` (classes times k!, or classes at k = 2), ``central``
    (equal pairs that split nothing), ``rational_splits`` (split classes
    with a genus-0 component, each once; they smooth out after
    semistable reduction) and ``singular``, the other equal-pair classes.
    Equality compares the split table too.
    """

    k: int
    b: int
    type_one: int
    type_two_two: int
    type_three: int
    split_table: dict[tuple[int, int], int] = field(hash=False)

    def __post_init__(self):
        validate_cover_shape(self.k, self.b)
        g = self.g
        if min(self.type_one, self.type_two_two, self.type_three) < 0:
            raise InvariantViolation("negative census count")
        if self.type_three % 3:
            raise InvariantViolation("overlapping-pair count not divisible by 3")
        for (j, i), n in self.split_table.items():
            if n < 0 or not (1 <= j <= self.k // 2) or not (0 <= i <= g):
                raise InvariantViolation(f"bad split cell ({j}, {i}) -> {n}")
            if 2 * j == self.k and i > g - i:
                raise InvariantViolation(f"split cell ({j}, {i}) not canonical")
        if sum(self.split_table.values()) > self.type_one:
            raise InvariantViolation("split classes exceed the equal-pair count")

    @cached_property
    def g(self) -> int:
        return (self.b - 2 * self.k + 2) // 2

    @cached_property
    def classes(self) -> int:
        return self.type_one + self.type_two_two + self.type_three

    @cached_property
    def raw_count(self) -> int:
        return self.classes * _class_divisor(self.k)

    @cached_property
    def central(self) -> int:
        return self.type_one - sum(self.split_table.values())

    @cached_property
    def rational_splits(self) -> int:
        g = self.g
        return sum(n for (j, i), n in self.split_table.items() if i == 0 or i == g)

    @cached_property
    def singular(self) -> int:
        return self.type_one - self.rational_splits


def full_census(k: int, b: int) -> tuple[TupleCensus, DegenerationCensus]:
    """The tuple counts and the type census of (k, b), from the
    class-algebra sums; the TupleCensus restates the census's raw_count
    and classes."""
    g = cover_genus(k, b)
    splits: dict = {}
    for j in range(1, k // 2 + 1):
        small, large = _connected_terms(j), _connected_terms(k - j)
        size = comb(k, j) * j * (k - j) // (2 if 2 * j == k else 1)
        # the degree-j side of genus i carries beta1 = 2i + 2j - 2 entries;
        # a single sheet carries none
        beta1 = 2 * j - 2
        ways = comb(b - 2, beta1)
        for i in range(g + 1 if j > 1 else 1):
            n = size * ways * _evaluate(small, j, beta1) * _evaluate(large, k - j, b - 2 - beta1)
            if n:  # zero only when both sides are single sheets, at k = 2
                cell = (j, min(i, g - i) if 2 * j == k else i)
                splits[cell] = splits.get(cell, 0) + n
            # C(b - 2, beta1 + 2) from C(b - 2, beta1)
            ways = ways * (b - 2 - beta1) * (b - 3 - beta1) // ((beta1 + 1) * (beta1 + 2))
            beta1 += 2
    conn = _connected_terms(k)
    central = k * (k - 1) // 2 * _evaluate(conn, k, b - 2)
    overlap = 3 * _evaluate(_three_cycle_terms(k), k, b - 2)
    disjoint = _evaluate(conn, k, b) - central - sum(splits.values()) - overlap
    split_table = {cell: _classes(v, k, f"split {cell} tally") for cell, v in sorted(splits.items())}
    n1 = _classes(central, k, "central tally") + sum(split_table.values())
    n3 = _classes(overlap, k, "overlapping-pair tally")
    n22 = _classes(disjoint, k, "disjoint-pair tally")
    census = DegenerationCensus(k, b, n1, n22, n3, split_table)
    return TupleCensus(k, b, census.raw_count, census.classes), census


def cross_check_walk(k: int, b: int) -> TupleCensus:
    """The walk's TupleCensus, once its kind tally equals ``full_census``
    field by field: central, overlap, the split cells of each size j, then
    disjoint, which the census takes by difference.  The first field that
    differs is an InvariantViolation naming it."""
    tally = completion_tally(k, b)
    census = full_census(k, b)[1]
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
