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
walk of ``gonalgeo.reference`` tallies the same kinds another way, and
``oracle-check`` compares them (``reference.cross_check_walk``).
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from .characters import _connected_terms, _evaluate, _three_cycle_terms
from .covers import TupleCensus, _class_divisor, _classes, cover_genus, validate_cover_shape
from .errors import InvariantViolation


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
    and classes.

    >>> counts, census = full_census(4, 8)
    >>> counts.raw_count, census.type_one, census.type_two_two, census.type_three, census.split_table
    (131040, 855, 960, 3645, {(1, 0): 120, (2, 0): 15})
    """
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
