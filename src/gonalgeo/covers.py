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
from math import comb, factorial, isqrt

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


# p(n), S(n), c(n) and the term products up to degree n, at index n, and
# the sums of p(m) m^i over 1 <= m < len(p) for i = 0, 1, 2; kept for the
# life of the process.  p and the products grow together, S and c only for
# a walk, each by _priced and only to the largest degree it prices
_PRICE_TABLES = ([1], [1], [0], [0], [0, 0, 0])


def _grow_products(tables) -> None:
    """Append degree n = len(p) to p, by Euler's pentagonal recurrence, and
    to the term products: the p(n) content terms, the peel's products, and
    the n power sums over at most n(n - 1) + 1 connected terms that check
    the degree-n table once built.  O(sqrt n) steps."""
    p, _s, _c, products, moments = tables
    n = len(p)
    total, i = 0, 1
    while (first := i * (3 * i - 1) // 2) <= n:
        pair = p[n - first] + (p[n - first - i] if first + i <= n else 0)
        total += pair if i % 2 else -pair
        i += 1
    a0, a1, a2 = moments
    # sum over j < n of (j^2 - j + 1) p(n - j), expanded in m = n - j
    peel = (n * n - n + 1) * a0 - (2 * n - 1) * a1 + a2
    products.append(products[-1] + total + peel + n * (n * n - n + 1))
    p.append(total)
    moments[:] = (a0 + total, a1 + n * total, a2 + n * n * total)


def _grow_states(tables) -> None:
    """Append degree n = len(S) to S, the Euler transform of p: n S(n) is
    the sum over j <= n of c(j) S(n - j), c(j) summing d p(d) over d | j."""
    p, s, c, _products, _moments = tables
    n = len(s)
    c.append(sum(d * p[d] for d in range(1, n + 1) if n % d == 0))
    s.append(sum(c[j] * s[n - j] for j in range(1, n + 1)) // n)


def _priced(k: int, price, budget: int | None, states: bool = False) -> int:
    """``price(S(n), oracle_products(n))`` at n = k, or at the first
    n <= k where it passes the ``budget``; both grow with n.  S(n) is 0
    unless ``states`` asks for it.  The tables grow to that n at most, so
    a refused degree stops them there."""
    tables = _PRICE_TABLES
    p, s, products = tables[0], tables[1], tables[3]
    for n in range(1, k + 1):
        if n == len(p):
            _grow_products(tables)
        if states and n == len(s):
            _grow_states(tables)
        value = price(s[n] if states else 0, products[n] + n * n - n + 1)
        if budget is not None and value > budget:
            break
    return value


def partitions_floor(k: int, budget: int | None = None) -> int:
    """A lower bound on p(k) of Hardy and Ramanujan's form,
    e^(5/2 sqrt k) / (13 k), in integers: 2^floor(3.606 isqrt(k)) / (13 k),
    as 3.606 < (5/2) log2(e).  Every price of degree k is at least p(k) per
    layer, so this refuses a huge degree before any table grows.  p(k) is
    about e^(pi sqrt(2k/3)) / (4 sqrt(3) k) and pi sqrt(2/3) > 5/2, so the
    margin grows with k; the tests check the bound against the exact p(k)
    for every k <= 10^4.  With a ``budget`` the power of 2 stops at the
    bits that already put the floor past it, so a huge k builds no huge
    number."""
    bits = 3606 * isqrt(k) // 1000
    if budget is not None:
        bits = min(bits, budget.bit_length() + (13 * k).bit_length())
    return (1 << bits) // (13 * k)


def block_states(k: int, layers: int = 1, budget: int | None = None) -> int:
    """``layers`` times S(k), the block states of degree k: partitions of
    partitions of k, the Euler transform of the partition numbers p.  The
    walk that ``oracle-check`` takes visits at most S(k) states in each of
    its b - 2 branching layers.  With a ``budget``, the product stops as
    ``_priced`` says."""
    return _priced(k, lambda states, _: layers * states, budget, states=True)


def oracle_products(k: int, budget: int | None = None) -> int:
    """Products the class-algebra tables of degree k cost: the p(d)
    content terms of each d <= k, at most (j(j - 1) + 1) p(d - j) as
    ``characters._connected_terms`` peels j < d off d (one connected term
    per exponent in -C(j, 2) .. C(j, 2)), the d power sums over at most
    d(d - 1) + 1 connected terms with which ``characters._check_least``
    checks each degree-d table, and one product for each of the
    k(k - 1) + 1 powers of an evaluation.  With a ``budget``, they stop
    as ``_priced`` says."""
    return _priced(k, lambda _, products: products, budget)


def _power_price(d: int, total: int, count: int, top: int) -> int:
    """Products that the powers of ``count`` evaluations of a degree-d
    table cost past one per term, the exponents summing to ``total`` and
    none past ``top``.  Each of at most d(d - 1) + 1 terms raises some
    |f| <= C(d, 2) to the exponent m, about m floor(log2 C(d, 2)) bits, and
    a power of w words costs w sqrt(w) / 32 products (repeated squaring
    at about Karatsuba's rate), its sqrt(w) read at ``top``."""
    bits = max(comb(d, 2).bit_length() - 1, 0)
    words = (bits * total + 63 * count) // 64
    return (d * d - d + 1) * words * isqrt((bits * top + 63) // 64) // 32


def algebra_price(k: int, b: int, census: bool = False, budget: int | None = None) -> int:
    """The class-algebra price of (k, b), in term products: the tables
    (``oracle_products``), and the powers past one product each
    (``_power_price``).  The oracle evaluates the connected table once, at
    b.  A ``census`` builds the T3 tables too, priced as the connected
    ones, evaluates the degree-k tables at b - 2 twice and at b once, and
    for each split size j runs one pass over its cells, one per component
    genus i < n (n = g + 1, one cell for j = 1), each evaluating a
    degree-j table at beta1 = 2i + 2j - 2 and a degree-(k - j) one at
    b - 2 - beta1, carrying C(b - 2, beta1) over about b bits (b / 512
    products) and some 30 products of other work.  Each size is priced
    from the sum and the largest of its exponents, in closed form, so the
    price takes O(k) steps and no loop over the cells.  One product stood
    for about 0.25 us on a shared 2-vCPU host, and the tests hold the
    price within a factor of 2 of measured costs.  With a ``budget``, the
    tables stop as ``_priced`` says, and a price they already pass is
    returned at once."""
    tables = oracle_products(k, budget)
    if not census or (budget is not None and tables > budget):
        return tables + _power_price(k, b, 1, b)
    g = (b - 2 * k + 2) // 2
    price = 2 * tables + 2 * _power_price(k, b - 2, 1, b - 2) + _power_price(k, b, 1, b)
    for j in range(1, k // 2 + 1):
        n, carry = (g + 1, (b + 511) // 512) if j > 1 else (1, 0)
        small = n * (n + 2 * j - 3)  # beta1 summed over the cells
        price += n * (30 + carry + j * j - j + 1 + (k - j) * (k - j - 1) + 1)
        price += _power_price(j, small, n, 2 * n + 2 * j - 4) + _power_price(k - j, n * (b - 2) - small, n, b - 2 * j)
    return price


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
