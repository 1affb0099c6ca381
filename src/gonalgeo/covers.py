"""Enumeration of transposition monodromy tuples for simple branched covers.

A cover datum for a connected k-sheeted cover of the line with b simple
branch points is a length-b tuple of transpositions in S_k whose
left-to-right product is the identity and whose entries act transitively
on the k symbols.  Tuples are built left to right.  Each entry moves
the need (k - c) + 2(B - 1) by exactly one, with c the cycles of the
running product and B the blocks the entries cut the symbols into: a
cut or a join across blocks lowers it, a join inside a block raises it.
It is 0 only at a connected identity and any other state can lower it,
so a prefix can be completed exactly while its need fits the entries
left.  The block-state walk, tuple iteration and ``prefix_states`` keep a
prefix by that rule alone, and it ends every walk: with no entry left
only the connected identity is kept, so no tuple is completed by hand.

Iteration and class representatives are one depth-first walk of this
pruned tree through the dense S_k tables; class representatives also
prune by relabelings.  Counting does not walk it: nothing below a node
depends on more than its search state, or on how the sheets are
labeled, so the counter steps unlabeled block states layer by layer,
each mapped to the number of prefixes that reach it.  A block state is
the sorted tuple of blocks of the symbol partition, each given by the
cycle type of the running product on it.  Multiplying by a
transposition (x y) either cuts the l-cycle through x and y into a
d-cycle and an (l - d)-cycle, which l transpositions do (l / 2 when
2d = l), or joins an a-cycle and a b-cycle, which a * b transpositions
do, merging their blocks when they differ: the cut-and-join recursion
(Goulden and Jackson, Proc. AMS 125, 1997).  Two entries from the end
each state takes its kind and carries it to the end, so the connected
count is the sum of the walk's tally by kind (``completion_tally``).  No
census walks: ``oracle-check`` compares the tally, kind by kind, with the
class-algebra census.  No step touches a k!-sized table,
and there are at most as many states as partitions of partitions of k.

Relabeling the k symbols acts on tuples entrywise; for k >= 3 the action
is free on the transitive tuples, so the raw count is k! times the class
count.  Class representatives, when asked for, are the lexicographically
least tuples of their orbits, and ``are_conjugate`` tells whether two
tuples share one.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .digits import _magnitude
from .errors import InvariantViolation, ParameterError
from .perm import Transposition
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
            f"branch count {b} below 2k - 2 = {_magnitude(2 * k - 2)}: the cover genus would be negative"
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


def _class_divisor(k: int) -> int:
    # relabeling acts freely only from degree 3 up; at degree 2 it is trivial
    return factorial(k) if k >= 3 else 1


def _classes(raw: int, k: int, what: str) -> int:
    """Classes behind a raw tally at degree k, each hit _class_divisor(k)
    times; a remainder is an InvariantViolation naming ``what``."""
    div = _class_divisor(k)
    if raw % div:
        raise InvariantViolation(f"{what} {raw} at degree {k} is not divisible by {div}")
    return raw // div


@dataclass(frozen=True)
class TupleCensus:
    """Raw and class-level tuple counts for one (k, b)."""

    k: int
    b: int
    raw_count: int
    class_count: int


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


def _block(cycles) -> tuple:
    return tuple(sorted(cycles, reverse=True))


@lru_cache(maxsize=None)
def _block_steps(state: tuple) -> tuple:
    """One-entry successors of a block state: ``(successor, number of
    transpositions leading there, entries it still needs)`` per distinct
    successor, the need being (k - #cycles) + 2 (#blocks - 1).  Memoised
    for the life of the process: one entry per state reached, at most
    ``block_states(k)``."""
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


# p(n), S(n), sigma(n), c(n) and the content and peeled term products up
# to degree n, at index n; kept for the life of the process and grown by
# _priced only to the largest degree it prices
_PRICE_TABLES = ([1], [1], [0], [0], [0])


def _grow_prices(tables) -> None:
    """Append degree n = len(p) to the price tables."""
    p, s, sigma, c, products = tables
    n = len(p)
    # n a(n) = sum over j <= n of c(j) a(n - j); c(j) sums d p(d) over d | j for S, d alone for p
    sigma.append(sum(d for d in range(1, n + 1) if n % d == 0))
    p.append(sum(sigma[j] * p[n - j] for j in range(1, n + 1)) // n)
    c.append(sum(d * p[d] for d in range(1, n + 1) if n % d == 0))
    s.append(sum(c[j] * s[n - j] for j in range(1, n + 1)) // n)
    products.append(products[-1] + p[n] + sum((j * j - j + 1) * p[n - j] for j in range(1, n)))


def _priced(k: int, price, budget: int | None) -> int:
    """``price(S(n), oracle_products(n))`` at n = k, or at the first
    n <= k where it passes the ``budget``; both grow with n.  The tables
    grow to that n at most, so a refused degree stops them there."""
    tables = _PRICE_TABLES
    s, products = tables[1], tables[4]
    for n in range(1, k + 1):
        if n == len(s):
            _grow_prices(tables)
        value = price(s[n], products[n] + n * n - n + 1)
        if budget is not None and value > budget:
            break
    return value


def block_states(k: int, layers: int = 1, budget: int | None = None) -> int:
    """``layers`` times S(k), the block states of degree k: partitions of
    partitions of k, the Euler transform of the partition numbers p.  The
    walk visits at most S(k) states in each of its b - 2 branching layers,
    and a census is still priced so.  With a ``budget``, the product stops
    as ``_priced`` says."""
    return _priced(k, lambda states, _: layers * states, budget)


def oracle_products(k: int, budget: int | None = None) -> int:
    """Products the character oracle forms for a count at degree k: the
    p(d) content terms of each d <= k, at most (j(j - 1) + 1) p(d - j)
    as ``characters._connected_terms`` peels j < d off d (one connected
    term per exponent in -C(j, 2) .. C(j, 2)), and k(k - 1) + 1 powers.
    With a ``budget``, they stop as ``_priced`` says."""
    return _priced(k, lambda _, products: products, budget)


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


def class_count_via_oracle(k: int, b: int) -> TupleCensus:
    """Tuple census computed from the character oracle instead of search."""
    from .characters import connected_count

    validate_cover_shape(k, b)
    raw = connected_count(k, b)
    return TupleCensus(k, b, raw, _classes(raw, k, "oracle count"))


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
