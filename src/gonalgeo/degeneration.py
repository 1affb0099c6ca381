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
halved when 2j = k; the disjoint pairs are the rest of Conn(k, b).  N1,
N22 and N3 are one table evaluation each, e reads two split cells per
size, and only ``census`` and ``oracle-check`` derive all the cells.  Each
raw tally is divided by k! (relabeling acts freely for k >= 3).  The walk
of ``gonalgeo.reference`` tallies the same kinds another way, and
``oracle-check`` compares them (``reference.cross_check_walk``).
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .characters import _connected_terms, _equal_pair_terms, _split_size, _three_cycle_terms
from .covers import TupleCensus, _class_divisor, _classes, cover_genus, validate_cover_shape
from .errors import InvariantViolation


def _split_cell(k: int, b: int, j: int, beta1: int, ways: int) -> int:
    """Raw splits whose degree-j side takes beta1 of b - 2 entries, in ``ways`` = C(b - 2, beta1)."""
    return _split_size(k, j) * ways * _connected_terms(j).count(beta1) * _connected_terms(k - j).count(b - 2 - beta1)


@dataclass(frozen=True)
class DegenerationCensus:
    """Class-level tallies of collision types for one (k, b).

    Stored: the equal-, disjoint- and overlapping-pair class counts N1,
    N22 and N3, and e, the split classes with a genus-0 component, each
    once (``rational_splits``; they smooth out after semistable reduction).
    Derived on first access and kept: ``g``, ``classes``, ``raw_count``
    (classes times k!, or classes at k = 2), ``singular`` (N1 - e),
    ``central`` (equal pairs that split nothing) and ``split_table``,
    mapping (j, i) to the classes that split into a degree-j genus-i
    component plus its complement, held to N1 with the central pairs and
    to e at i = 0 or g.  Equality compares the stored counts.
    """

    k: int
    b: int
    type_one: int
    type_two_two: int
    type_three: int
    rational_splits: int

    def __post_init__(self):
        validate_cover_shape(self.k, self.b)
        if min(self.type_one, self.type_two_two, self.type_three, self.rational_splits) < 0:
            raise InvariantViolation("negative census count")
        if self.type_three % 3:
            raise InvariantViolation("overlapping-pair count not divisible by 3")
        if self.rational_splits > self.type_one:
            raise InvariantViolation("rational splits exceed the equal-pair count")

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
        return _classes(self.k * (self.k - 1) // 2 * _connected_terms(self.k).count(self.b - 2), self.k, "central tally")

    @cached_property
    def split_table(self) -> dict[tuple[int, int], int]:
        k, b, g = self.k, self.b, self.g
        splits: dict = {}
        for j in range(1, k // 2 + 1):
            # one pass per size: the degree-j side of genus i carries beta1 =
            # 2i + 2j - 2 entries, a single sheet none
            beta1 = 2 * j - 2
            ways = comb(b - 2, beta1)
            for i in range(g + 1 if j > 1 else 1):
                n = _split_cell(k, b, j, beta1, ways)
                if n:  # zero only when both sides are single sheets, at k = 2
                    cell = (j, min(i, g - i) if 2 * j == k else i)
                    splits[cell] = splits.get(cell, 0) + n
                # C(b - 2, beta1 + 2) from C(b - 2, beta1)
                ways = ways * (b - 2 - beta1) * (b - 3 - beta1) // ((beta1 + 1) * (beta1 + 2))
                beta1 += 2
        div = _class_divisor(k)
        if self.central * div + sum(splits.values()) != self.type_one * div:
            raise InvariantViolation(f"the split cells and central pairs of ({k}, {b}) do not sum to N1")
        if sum(n for (j, i), n in splits.items() if i in (0, g)) != self.rational_splits * div:
            raise InvariantViolation(f"the split cells of ({k}, {b}) with i = 0 or i = g do not sum to e")
        return {cell: _classes(v, k, f"split {cell} tally") for cell, v in sorted(splits.items())}

    @cached_property
    def singular(self) -> int:
        return self.type_one - self.rational_splits


def full_census(k: int, b: int) -> tuple[TupleCensus, DegenerationCensus]:
    """The tuple counts and the type census of (k, b), from the
    class-algebra sums, each count one table evaluation: N1 the equal-pair
    table's at b - 2, N3 three times T3's, and N22 the rest of Conn(k, b);
    e sums the split cells with i = 0 and i = g of each size, one cell
    for j = 1.  The TupleCensus restates the census's raw_count and classes.

    >>> counts, census = full_census(4, 8)
    >>> counts.raw_count, census.type_one, census.type_two_two, census.type_three, census.rational_splits, census.split_table
    (131040, 855, 960, 3645, 135, {(1, 0): 120, (2, 0): 15})
    """
    g = cover_genus(k, b)
    equal = _equal_pair_terms(k).count(b - 2)
    overlap = 3 * _three_cycle_terms(k).count(b - 2)
    disjoint = _connected_terms(k).count(b) - equal - overlap
    ends = sum(_split_cell(k, b, j, 2 * i + 2 * j - 2, comb(b - 2, 2 * i + 2 * j - 2))
               for j in range(1, k // 2 + 1) for i in ({0, g} if j > 1 else {0}))
    census = DegenerationCensus(k, b, _classes(equal, k, "equal-pair tally"), _classes(disjoint, k, "disjoint-pair tally"),
                                _classes(overlap, k, "overlapping-pair tally"), _classes(ends, k, "rational-split tally"))
    return TupleCensus(k, b, census.raw_count, census.classes), census
