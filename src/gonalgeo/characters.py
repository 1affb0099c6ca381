"""Cover counting through class algebra.

The number of length-b transposition tuples in S_k with identity product is
Frobenius' class-algebra evaluation, which needs only the dimension and the
central character of each irreducible at the transposition class C:

    D(k, b) = (1 / k!) * sum over partitions lam of k of dim_lam^2 * f_lam^b

with dim_lam = k! / (hook product of lam) and f_lam = |C| chi_lam(tau) /
dim_lam the content sum of lam, the sum of j - i over its cells (i, j).
One depth-first walk over the diagrams, ``_diagrams``, carries both row by
row, so a count builds no character table and no list of partitions;
``partitions_of`` reads the same walk, which weighs a diagram wider than
tall for its conjugate too, of content sum -f.  Every count is such an
exponential sum, and every table is one ``ExpSum`` {f: w} per degree, folded
onto f >= 0 as every b is even, that evaluates, checks and peels itself:
D_k, checked for weights summing to p(k) and two identities; k! Conn(k, b),
built once by peeling off the block of symbol 1, so no memo is keyed by b;
the transitive tuples with a 3-cycle product, T3; and those ending in an
equal pair, E.  The census (``degeneration``) reads each count from one
table, checked when built against the minimal factorization counts.  The
character table of S_k, their independent reference, is in ``gonalgeo.reference``.
"""

from functools import lru_cache
from math import comb, factorial, prod
from operator import add

from .errors import InvariantViolation, ParameterError


def _diagrams(k: int):
    """Every Young diagram of k cells no taller than wide, depth first, as
    ``(cols, hooks, f, p2, weight)``: column heights, hook product, content sum,
    squared-content sum, and 2 if wider than tall, for its unwalked conjugate,
    else 1.  Each new row of r cells goes on top, no shorter than the row below,
    until no top row can be as long as the rows: no hook below moves and each
    content below drops by 1, so the row's cells (0, j) bring the hook factors
    r - j + cols[j], f gains -size and p2 gains size - 2f, plus the row's
    contents 0 .. r - 1 and their squares.

    >>> sorted(_diagrams(3))
    [([1, 1, 1], 6, 3, 5, 2), ([2, 1], 3, 0, 2, 1)]
    """
    def place(cols, hooks, f, p2, size):
        left, width, rows = k - size, len(cols), cols[0] if cols else 0
        if not left:
            yield cols, hooks, f, p2, 1 + (width > rows)
            return
        for r in (*range(max(width, 1), left // 2 + 1), left):
            if 0 < left - r < rows + 2 or r == left <= rows:
                continue
            yield from place(
                [c + 1 for c in cols] + [1] * (r - width),
                hooks * prod(map(add, range(r, 0, -1), cols)) * factorial(r - width),
                f - size + r * (r - 1) // 2,
                p2 - 2 * f + size + r * (r - 1) * (2 * r - 1) // 6,
                size + r,
            )

    return place([], 1, 0, 0, 0)


def _rows(cols) -> tuple[int, ...]:
    """The row lengths of the diagram of column heights ``cols``: its conjugate partition."""
    return tuple(sum(c > i for c in cols) for i in range(max(cols, default=0)))


def _partition_counts(n: int) -> list[int]:
    """p(0) .. p(n): p(m) sums (-1)^(i + 1) p(m - g) over the pentagonal g = i(3i -+ 1)/2 <= m, i >= 1."""
    p = [1]
    for m in range(1, n + 1):
        pentagonal = ((i, i * (3 * i + s) // 2) for i in range(1, m + 1) for s in (-1, 1))
        p.append(sum(p[m - g] if i % 2 else -p[m - g] for i, g in pentagonal if g <= m))
    return p


def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``n``, descending: the walk's column heights, and its rows where it weighs a diagram twice.

    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n < 0:
        raise ParameterError(f"cannot partition {n}")
    found = []
    for cols, *_, weight in _diagrams(n):
        found += (tuple(cols), _rows(cols))[:weight]
    return tuple(sorted(found, reverse=True))


def _check_shape(k: int, b: int) -> None:
    if k < 2:
        raise ParameterError(f"degree must be at least 2, got {k}")
    if b < 0 or b % 2:
        raise ParameterError(f"branch count must be even and nonnegative, got {b}")


class ExpSum(dict):
    """A folded exponential sum of degree k, ``{f: w}`` over f >= 0 with no zero weight, shared by the
    table memos and never changed: its power sum, the sum of w f^b, is k! times a count at even b."""

    __slots__ = ("k",)

    def __init__(self, k: int, terms=()):
        super().__init__((f, w) for f, w in terms if w)
        self.k = k

    def count(self, b: int) -> int:
        """The power sum at b over k!; a remainder or a negative count is an InvariantViolation."""
        value, rem = divmod(sum(w * f**b for f, w in self.items()), factorial(self.k))
        if rem or value < 0:
            raise InvariantViolation(f"class-algebra count for ({self.k}, {b}) {'not integral' if rem else 'went negative'}")
        return value

    def checked(self, what: str, rules, failed=()) -> "ExpSum":
        """This sum once its power sum at m is ``want`` for every ``(name, m, want)`` of
        ``rules``, else an InvariantViolation naming every rule that fails, after any ``failed``."""
        failed = [*failed, *(name for name, m, want in rules if sum(w * f**m for f, w in self.items()) != want)]
        if failed:
            raise InvariantViolation(f"{what} fail " + "; ".join(failed))
        return self

    def less(self, sizes, scale, block, rest) -> "ExpSum":
        """This sum less ``scale(j)`` (``block(j)`` * ``rest(k - j)``) for each block size j in
        ``sizes``, a negative scale adding: over C(b, b1) shares, weights multiply and exponents
        add, and on folded sums cosh(fx) cosh(gx) = (cosh((f + g)x) + cosh((f - g)x)) / 2 puts half
        of each product on f + g and half on |f - g|, all at most C(k, 2).  A folded weight at f > 0
        is w(f) + w(-f) = 2 w(f), so c w // 2 is exact; at f = 0 both parts land on g."""
        weights = [self.get(f, 0) for f in range(comb(self.k, 2) + 1)]
        for j, c in zip(sizes, map(scale, sizes)):
            others = rest(self.k - j).items()
            for f, w in block(j).items():
                low = c * w // 2
                high = c * w - low
                for g, sq in others:
                    weights[f + g] -= low * sq
                    weights[abs(f - g)] -= high * sq
        return ExpSum(self.k, enumerate(weights))


@lru_cache(maxsize=None)
def _content_terms(k: int) -> tuple[ExpSum, ExpSum]:
    """``(D_k, A_k)``: the sums over the diagrams lam of k cells, summed by |f|, f the
    content sum, that weigh lam dim_lam^2, k! over its hook product, and dim_lam^2
    (p2(lam) - C(k, 2)), p2 its squared-content sum, each diagram of ``_diagrams(k)``
    times its weight: the conjugate diagram negates f and keeps dim_lam and p2.  The
    weights must sum to p(k), and D_k count k! times 1 and C(k, 2) tuples of zero and
    two transpositions; every rule that fails is named, as is a hook product not dividing k!."""
    order, pairs = factorial(k), comb(k, 2)
    squares, heads, walked = [0] * (pairs + 1), [0] * (pairs + 1), 0
    for cols, hooks, f, p2, weight in _diagrams(k):
        dim, rem = divmod(order, hooks)
        if rem:
            raise InvariantViolation(f"hook product of {_rows(cols)} does not divide {k}!")
        squares[abs(f)] += weight * dim * dim
        heads[abs(f)] += weight * dim * dim * (p2 - pairs)
        walked += weight
    terms = ExpSum(k, enumerate(squares)).checked(f"content-sum terms of degree {k}", (
        ("sum dim^2 = k!", 0, order),
        ("sum dim^2 f^2 = k! C(k, 2)", 2, order * pairs),
    ), [] if walked == _partition_counts(k)[k] else ["weights sum to p(k)"])
    return terms, ExpSum(k, enumerate(heads))


def disconnected_count(k: int, b: int) -> int:
    """Number of b-tuples of transpositions in S_k with identity product,
    transitive or not.

    >>> disconnected_count(3, 4)
    27
    >>> disconnected_count(4, 0)
    1
    """
    _check_shape(k, b)
    return _content_terms(k)[0].count(b)


def _split_size(k: int, j: int) -> int:
    """s_j = C(k, j) j (k - j), halved when 2j = k: the ways t joins blocks of j and k - j symbols."""
    return comb(k, j) * j * (k - j) // (2 if 2 * j == k else 1)


def _check_least(kind: str, terms: ExpSum) -> ExpSum:
    """``terms`` of ``kind``, once their count is 0 at every even m below the
    need rule's least length and the minimal count (an integer at every k) at it."""
    k = terms.k
    hurwitz = lambda j: factorial(2 * j - 2) * j**j // j**3  # transitive tuples of degree j and length 2j - 2
    if kind == "connected":  # Hurwitz
        least, count, formula = 2 * k - 2, hurwitz(k), "(2k - 2)! k^k / k^3"
    elif kind == "equal-pair":  # two minimal blocks that t joins, each by Hurwitz
        least, formula = 2 * k - 4, "sum of s_j C(2k - 4, 2j - 2) H(j) H(k - j)"
        count = sum(_split_size(k, j) * comb(least, 2 * j - 2) * hurwitz(j) * hurwitz(k - j) for j in range(1, k // 2 + 1))
    else:  # the 3-cycles, by Goulden and Jackson
        least, count, formula = 2 * k - 4, 27 * comb(k, 3) * factorial(2 * k - 4) * k**k // k**5, "27 C(k, 3) (2k - 4)! k^k / k^5"
    rules = [(f"no tuples of length {m}", m, 0) for m in range(0, least, 2)]
    rules.append((f"{formula} tuples of length {least}", least, factorial(k) * count))
    return terms.checked(f"{kind} terms of degree {k}", rules)


@lru_cache(maxsize=None)
def _connected_terms(k: int) -> ExpSum:
    """The sum with k! Conn(k, b) its power sum at every b.  The block through symbol 1
    has j < k symbols, so W_k = D_k - sum over j of C(k - 1, j - 1) C(k, j) (W_j * D_{k-j}).

    >>> _connected_terms(2)
    {0: -2, 1: 2}
    """
    terms = _content_terms(k)[0].less(range(1, k), lambda j: comb(k - 1, j - 1) * comb(k, j), _connected_terms, lambda n: _content_terms(n)[0])
    return _check_least("connected", terms)


@lru_cache(maxsize=None)
def _three_cycle_terms(k: int) -> ExpSum:
    """The sum with k! T3(k, b) its power sum at every b, T3 counting the
    transitive b-tuples with a 3-cycle product, empty below degree 3.  Over
    all tuples that is A_k, lam weighed by p2(lam) - C(k, 2), the 3-cycles'
    central character, as the squared Jucys-Murphy elements sum to C(k, 2)
    and the 3-cycles' class sum.  The 3-cycle's support fixes its block of
    3 <= j < k symbols: W_k = A_k - sum of C(k, j)^2 (W_j * D_{k-j}).

    >>> _three_cycle_terms(3)
    {0: -4, 3: 4}
    """
    if k < 3:
        return ExpSum(k)
    terms = _content_terms(k)[1].less(range(3, k), lambda j: comb(k, j) ** 2, _three_cycle_terms, lambda n: _content_terms(n)[0])
    return _check_least("three-cycle", terms)


@lru_cache(maxsize=None)
def _equal_pair_terms(k: int) -> ExpSum:
    """The sum with k! N1(k, b + 2) its power sum at every b: before (t, t) comes
    a transitive b-tuple, for C(k, 2) t, or blocks of j <= k / 2 and k - j symbols sharing
    the b entries, which t joins in s_j ways, so E_k = C(k, 2) W_k + sum C(k, j) s_j (W_j * W_{k-j})."""
    head = ExpSum(k, ((f, comb(k, 2) * w) for f, w in _connected_terms(k).items()))
    return _check_least("equal-pair", head.less(range(1, k // 2 + 1), lambda j: -comb(k, j) * _split_size(k, j), _connected_terms, _connected_terms))


def connected_count(k: int, b: int) -> int:
    """Number of b-tuples of transpositions in S_k with identity product
    and transitive span.

    >>> connected_count(3, 4)
    24
    >>> connected_count(2, 8)
    1
    """
    _check_shape(k, b)
    return _connected_terms(k).count(b)
