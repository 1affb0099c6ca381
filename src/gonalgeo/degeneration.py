"""Collision degenerations of simple branched covers and their census.

When the last two branch points of a cover collide, the local picture is
decided by the final pair of transpositions: an equal pair (their product
is the identity), a disjoint pair (product a double transposition), or an
overlapping pair (product a 3-cycle).  No other case exists.  Equal pairs
are refined further by the orbit structure left after dropping them: one
orbit keeps a connected cover of lower genus, two orbits split the cover
into a pair of components joined at a point.

The census tallies these types over every class of tuples for one (k, b),
from the same layered merge of search states as the raw count: each state
reached after b - 2 entries classifies all of its two-entry completions
at once, weighted by the number of prefixes that reach it.  States are
merged by relabeling orbit, one representative standing for its whole
orbit with the orbit's prefix count; the block entry counts are part of
the orbit key, so the split genera read off a representative are those
of every member.  Each completion type is decided by the product's class
and the partition's block sizes and entry counts, all constant on an
orbit, so a representative's tally times the orbit's prefix count is
the orbit's tally.  The raw tallies are divided by k! at the end
(relabeling acts freely for k >= 3, so each class is hit exactly k!
times and every tally divides exactly); an error names the
representative state.

The full-twist check merges labeled search states, in a pass of its
own: each completion is twisted through the tables and compared
against the relabelings that fix its prefix, which depend on the prefix
partition alone.  ``class_representatives``, ``full_twist`` and
``are_conjugate`` do the same check one class at a time and serve as its
independent reference.
"""

from dataclasses import dataclass, field
from enum import Enum
from itertools import permutations, product
from math import factorial

from .covers import (
    MonodromyTuple,
    TupleCensus,
    _class_divisor,
    cover_genus,
    prefix_states,
    validate_cover_shape,
)
from .errors import InvariantViolation, ParameterError
from .perm import Transposition, compose, orbits, transposition_perm
from .tables import CLASS_DOUBLE, CLASS_TRIPLE, GroupTables, group_tables


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
    blocks = orbits([transposition_perm(k, e) for e in rest], k)
    if len(blocks) == 1:
        return CentralProfile()
    if len(blocks) != 2:
        raise InvariantViolation(
            f"{len(blocks)} orbits after dropping the pair; transitivity is broken: {t.entries}"
        )
    small, large = sorted(blocks, key=len)
    j = len(small)
    members = set(small)
    beta1 = sum(1 for e in rest if e[0] in members)
    i = _component_genus(j, beta1, g, k, b, t.entries)
    if 2 * j == k and g - i < i:
        i, beta1 = g - i, len(rest) - beta1
    return SplitProfile(j, i, beta1)


def _component_genus(
    j: int, beta1: int, g: int, k: int, b: int, witness
) -> int:
    num = beta1 - 2 * j + 2
    if num < 0 or num % 2:
        raise InvariantViolation(
            f"orbit of size {j} carries {beta1} branch points, "
            f"not a valid cover of the line: {witness}"
        )
    i = num // 2
    beta2 = (b - 2) - beta1
    if i > g or beta2 != 2 * (g - i) + 2 * (k - j) - 2:
        raise InvariantViolation(
            f"component genera {i}, {g - i} do not balance the branch counts: {witness}"
        )
    return i


def full_twist(t: MonodromyTuple) -> MonodromyTuple:
    """Monodromy of a full turn of the two colliding branch points around
    each other: both final entries are conjugated by their product.

    Fixes equal and disjoint pairs pointwise; on overlapping pairs it has
    order three.
    """
    k = t.degree
    x, y = t.entries[-2:]
    sigma = compose(transposition_perm(k, x), transposition_perm(k, y))

    def twist(e: Transposition) -> Transposition:
        a, b = sigma[e[0] - 1], sigma[e[1] - 1]
        return (a, b) if a < b else (b, a)

    return MonodromyTuple(k, t.entries[:-2] + (twist(x), twist(y)))


@dataclass(frozen=True)
class DegenerationCensus:
    """Class-level tallies of collision types for one (k, b).

    ``split_table`` maps (j, i) to the number of classes splitting into a
    degree-j genus-i component plus its complement.  ``rational_splits``
    counts the split classes with a genus-0 component (each once, even
    when both components are rational); those fibers smooth out after
    semistable reduction while the remaining ``singular`` classes do not.
    """

    k: int
    b: int
    g: int
    classes: int
    type_one: int
    type_two_two: int
    type_three: int
    split_table: dict[tuple[int, int], int] = field(compare=False)
    rational_splits: int = 0
    singular: int = 0

    def __post_init__(self):
        validate_cover_shape(self.k, self.b)
        if self.g != cover_genus(self.k, self.b):
            raise InvariantViolation(f"genus {self.g} wrong for ({self.k}, {self.b})")
        counts = (self.classes, self.type_one, self.type_two_two, self.type_three)
        if any(v < 0 for v in counts):
            raise InvariantViolation("negative census count")
        if self.type_one + self.type_two_two + self.type_three != self.classes:
            raise InvariantViolation("type counts do not add up to the class count")
        if self.type_three % 3:
            raise InvariantViolation("overlapping-pair count not divisible by 3")
        split_total = 0
        smooth = 0
        for (j, i), n in self.split_table.items():
            if n < 0 or not (1 <= j <= self.k // 2) or not (0 <= i <= self.g):
                raise InvariantViolation(f"bad split cell ({j}, {i}) -> {n}")
            if 2 * j == self.k and i > self.g - i:
                raise InvariantViolation(f"split cell ({j}, {i}) not canonical")
            split_total += n
            if i == 0 or i == self.g:
                smooth += n
        if split_total > self.type_one:
            raise InvariantViolation("split classes exceed the equal-pair count")
        if smooth != self.rational_splits:
            raise InvariantViolation("rational-split tally does not match the table")
        if self.rational_splits + self.singular != self.type_one:
            raise InvariantViolation("equal-pair classes do not partition")

    @property
    def central(self) -> int:
        return self.type_one - sum(self.split_table.values())


def _state_witness(tab: GroupTables, p: int, c: int) -> str:
    return f"state (product {tab.perms[p]}, partition {tab.partitions[c]})"


def _tally_pairs(
    tab: GroupTables, g: int, b: int, p: int, c: int, w, mult: int, tally: dict
) -> None:
    """Classify and count all two-entry completions of one search state,
    each standing for ``mult`` prefixes."""
    nt = len(tab.transpositions)
    if p == tab.identity:
        nb = tab.nblocks[c]
        if nb == 1:
            tally["central"] = tally.get("central", 0) + nt * mult
        elif nb == 2:
            (l1, s1), (l2, s2) = tab.block_info[c]
            lead, j = (l1, s1) if s1 <= s2 else (l2, s2)
            beta1 = w[lead - 1]
            i = _component_genus(
                j, beta1, g, tab.k, b,
                f"{_state_witness(tab, p, c)}, block entry counts {w}",
            )
            if 2 * j == tab.k and g - i < i:
                i = g - i
            key = ("split", j, i)
            tally[key] = tally.get(key, 0) + s1 * s2 * mult
        return
    n = tab.pair_completions(p, c)
    if not n:
        return
    cls = tab.pair_class[p]
    if cls == CLASS_DOUBLE:
        tally["disjoint"] = tally.get("disjoint", 0) + n * mult
    elif cls == CLASS_TRIPLE:
        tally["overlap"] = tally.get("overlap", 0) + n * mult
    else:
        raise InvariantViolation(
            f"two-factorable product has unexpected class at {_state_witness(tab, p, c)}"
        )


def full_census(k: int, b: int, workers: int = 1) -> tuple[TupleCensus, DegenerationCensus]:
    """Enumerate (k, b) once, returning raw counts and the type census.

    ``workers`` is accepted for compatibility; the census runs in one
    process and does not depend on it.
    """
    validate_cover_shape(k, b)
    tab = group_tables(k)
    g = cover_genus(k, b)
    tally: dict = {}
    for (p, c, w), mult in prefix_states(tab, b, weighted=True, orbits=True).items():
        _tally_pairs(tab, g, b, p, c, w, mult, tally)

    div = factorial(k) if k >= 3 else 1

    def classes_of(raw: int, what) -> int:
        if raw % div:
            raise InvariantViolation(f"{what} tally {raw} not divisible by {div}")
        return raw // div

    central = classes_of(tally.get("central", 0), "central")
    n22 = classes_of(tally.get("disjoint", 0), "disjoint-pair")
    n3 = classes_of(tally.get("overlap", 0), "overlapping-pair")
    split_table = {
        key[1:]: classes_of(v, f"split {key[1:]}")
        for key, v in sorted(tally.items(), key=repr)
        if isinstance(key, tuple)
    }
    n1 = central + sum(split_table.values())
    smooth = sum(v for (j, i), v in split_table.items() if i == 0 or i == g)
    census = DegenerationCensus(
        k=k, b=b, g=g,
        classes=n1 + n22 + n3,
        type_one=n1, type_two_two=n22, type_three=n3,
        split_table=split_table,
        rational_splits=smooth,
        singular=n1 - smooth,
    )
    raw_total = sum(tally.values())
    counts = TupleCensus(k, b, raw_total, census.classes, "enumeration")
    return counts, census


def census(k: int, b: int, workers: int = 1) -> DegenerationCensus:
    """Class-level collision census for (k, b)."""
    return full_census(k, b, workers)[1]


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


def _prefix_stabilizer(tab: GroupTables, c: int) -> tuple[int, ...]:
    """Indices of the relabelings fixing every entry of any prefix whose
    symbol partition is ``c``: a swap or not inside each 2-element block,
    any permutation of the singletons, the identity elsewhere."""
    blocks: dict[int, list[int]] = {}
    for x, lead in enumerate(tab.partitions[c], start=1):
        blocks.setdefault(lead, []).append(x)
    pairs = [blk for blk in blocks.values() if len(blk) == 2]
    singles = [blk[0] for blk in blocks.values() if len(blk) == 1]
    out = []
    for swaps in product((False, True), repeat=len(pairs)):
        for images in permutations(singles):
            g = list(range(1, tab.k + 1))
            for (a, b), swap in zip(pairs, swaps):
                if swap:
                    g[a - 1], g[b - 1] = b, a
            for x, y in zip(singles, images):
                g[x - 1] = y
            out.append(tab.perm_index[tuple(g)])
    return tuple(out)


def _table_twist(tab: GroupTables, u: int, v: int) -> tuple[int, int]:
    """``full_twist`` on a final pair of transposition indices: both are
    conjugated by their product u * v."""
    sigma = tab.mul_trans[tab.mul_trans[tab.identity][u]][v]
    return tab.conj_trans[sigma][u], tab.conj_trans[sigma][v]


def verify_twist_orbits(k: int, b: int) -> TwistOrbitReport:
    """Check the full twist fixes equal and disjoint pairs pointwise and
    moves every overlapping-pair class in an orbit of size exactly 3.

    The check runs over the same merged search states as the census.  A
    tuple and its twist share the prefix of b - 2 entries, so a relabeling
    carrying one to the other fixes every prefix entry.  The twist
    commutes with relabeling, so both checks give one answer on a whole
    class, and each tally counts every class k! times (once for k = 2),
    like the census tallies.

    Lemma: the relabelings fixing every entry of a prefix are determined
    by the prefix's symbol partition c alone.  They are exactly the maps
    that swap or fix each 2-element block, permute the singletons, and
    fix every block of 3 or more symbols pointwise.

    Proof: a relabeling g fixing every entry maps each edge {a, b} of
    the prefix graph onto itself, so it maps each block of c onto itself
    and the singletons among themselves.  In a block of 3 or more
    symbols, a symbol x with two distinct neighbours y, z has g(x) in
    {x, y} & {x, z} = {x}.  Any other symbol a of the block is a leaf
    whose one neighbour x has a second neighbour, the block being
    connected with more than two symbols; so g(x) = x, and g(a) lies in
    {a, x} but is not g(x), so g(a) = a.  A 2-element block is one edge,
    repeated or not, which g may fix or swap.  Conversely every map of
    this form fixes every edge of the prefix.
    """
    validate_cover_shape(k, b)
    tab = group_tables(k)
    trans, trans_of, conj = tab.transpositions, tab.trans_of, tab.conj_trans
    mul, merge, nbl = tab.mul_trans, tab.merge_trans, tab.nblocks
    stabilizers: dict[int, tuple[int, ...]] = {}
    classes = n3 = fixed_bad = orbit_bad = 0
    for (p, c, _w), mult in prefix_states(tab, b).items():
        mrow, crow = mul[p], merge[c]
        pairs = overlapping = fixed = orbit = 0
        for u in range(len(trans)):
            v = trans_of[mrow[u]]
            if v < 0 or nbl[merge[crow[u]][v]] != 1:
                continue
            pairs += 1
            u2, v2 = _table_twist(tab, u, v)
            if classify_node(trans[u], trans[v]) is not NodeType.THREE:
                fixed += (u2, v2) != (u, v)
                continue
            overlapping += 1
            stab = stabilizers.get(c)
            if stab is None:
                stab = stabilizers[c] = _prefix_stabilizer(tab, c)
            # order divides 3 at class level, so size 1 is the only failure
            orbit += any(conj[g][u2] == u and conj[g][v2] == v for g in stab)
        classes += pairs * mult
        n3 += overlapping * mult
        fixed_bad += fixed * mult
        orbit_bad += orbit * mult

    div = _class_divisor(k)

    def classes_of(raw: int, what: str) -> int:
        if raw % div:
            raise InvariantViolation(f"{what} tally {raw} not divisible by {div}")
        return raw // div

    return TwistOrbitReport(
        k, b,
        classes_of(classes, "twist class"),
        classes_of(n3, "twist overlapping-pair"),
        classes_of(fixed_bad, "fixed-point failure"),
        classes_of(orbit_bad, "orbit-size failure"),
    )
