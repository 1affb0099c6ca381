"""Dense lookup tables for symmetric groups small enough to enumerate.

They serve the searches that keep labeled tuples or states: the one
walk behind tuple iteration and class representatives, the conjugacy
test, and the full-twist check.  Counts and censuses step unlabeled
block states and need none of them.  Everything those inner loops touch is flattened into lists
indexed by small integers: the group elements, the transpositions,
right-multiplication of an element by a transposition, conjugation of a
transposition by a group element, and the lattice of set partitions of the
symbol set together with the effect of adjoining one more transposition
edge.  Partitions are encoded as leader words: slot ``i - 1`` holds the
least symbol of the block containing ``i``.
"""

from functools import lru_cache
from itertools import permutations

from .errors import CapacityError
from .perm import Perm, all_transpositions, cycle_type, transposition_perm

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
