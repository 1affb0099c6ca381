"""Cover counting through class algebra, and the exact character table of S_k.

The number of length-b transposition tuples in S_k with identity product is
Frobenius' class-algebra evaluation, which needs only the dimension and the
central character of each irreducible at the transposition class C:

    D(k, b) = (1 / k!) * sum over partitions lam of k of dim_lam^2 * f_lam^b

with dim_lam = k! / (hook product of lam) and f_lam = |C| chi_lam(tau) /
dim_lam the content sum of lam, the sum of j - i over its cells (i, j).
One depth-first walk over the diagrams, ``_diagrams``, carries both row by
row, so a count builds no character table and no list of partitions;
``partitions_of`` reads the same walk.  Every count is such an exponential
sum, kept as one (w, f) table per degree, one term per exponent f >= 0, as
every b is even and every table even in f: D_k, checked for that and two
identities; k! Conn(k, b), built once by peeling off the block of symbol 1
on the exponents, so no memo is keyed by b; and the transitive tuples with
a 3-cycle product, T3.  The collision census (``degeneration.full_census``)
reads every field from these tables, each checked when it is built against
the minimal factorization counts.

The full character table, by the border-strip recursion on beta-sets
with every entry an exact integer and both orthogonality relations
checked, is kept as the independent reference for D_k.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from operator import add, mul

from .errors import InvariantViolation, ParameterError


def _diagrams(k: int):
    """Every Young diagram of k cells, depth first, as ``(cols, hooks, f, p2)``:
    its column heights, hook product, content sum and squared-content sum.
    Each new row of r cells goes on top, no shorter than the row below: no
    hook below moves and each content below drops by 1, so the row's cells
    (0, j) bring the hook factors r - j + cols[j], f gains -size and p2 gains
    size - 2f, plus the row's contents 0 .. r - 1 and their squares.

    >>> sorted(_diagrams(3))
    [([1, 1, 1], 6, 3, 5), ([2, 1], 3, 0, 2), ([3], 6, -3, 5)]
    """
    def place(cols, hooks, f, p2, size):
        left, width = k - size, len(cols)
        if not left:
            yield cols, hooks, f, p2
            return
        for r in (*range(max(width, 1), left // 2 + 1), left):
            yield from place(
                [c + 1 for c in cols] + [1] * (r - width),
                hooks * prod(map(add, range(r, 0, -1), cols)) * factorial(r - width),
                f - size + r * (r - 1) // 2,
                p2 - 2 * f + size + r * (r - 1) * (2 * r - 1) // 6,
                size + r,
            )

    return place([], 1, 0, 0, 0)


def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``n``, descending: the column heights of ``_diagrams(n)``.

    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n < 0:
        raise ParameterError(f"cannot partition {n}")
    return tuple(sorted((tuple(cols) for cols, *_ in _diagrams(n)), reverse=True))


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


def _check_shape(k: int, b: int) -> None:
    if k < 2:
        raise ParameterError(f"degree must be at least 2, got {k}")
    if b < 0 or b % 2:
        raise ParameterError(f"branch count must be even and nonnegative, got {b}")


@lru_cache(maxsize=None)
def _content_terms(k: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """``(D_k, A_k)``: the ``(w, f)`` tables over the diagrams lam of ``_diagrams(k)``,
    summed by content sum f, that weigh lam dim_lam^2, k! over its hook product,
    and dim_lam^2 (p2(lam) - C(k, 2)), p2 its squared-content sum.  The conjugate
    diagram negates f and keeps dim_lam and p2, so both must weigh f and -f alike,
    and are kept folded onto f >= 0: w(0), and w(f) + w(-f).  D_k must count k!
    times 1 and C(k, 2) tuples of zero and two transpositions; every rule that
    fails is named, as is a hook product not dividing k!."""
    order, pairs = factorial(k), comb(k, 2)
    squares, heads = Counter(), Counter()
    for cols, hooks, f, p2 in _diagrams(k):
        dim, rem = divmod(order, hooks)
        if rem:
            lam = tuple(sum(c > i for c in cols) for i in range(cols[0]))
            raise InvariantViolation(f"hook product of {lam} does not divide {k}!")
        squares[f] += dim * dim
        heads[f] += dim * dim * (p2 - pairs)
    odd = [f"{name}(f) = {name}(-f)" for name, sums in (("D", squares), ("A", heads)) if any(w != sums[-f] for f, w in sums.items())]
    squares, heads = ({abs(f): w + sums[-f] if f else w for f, w in sums.items()} for sums in (squares, heads))
    terms = tuple((w, f) for f, w in squares.items() if w)
    _check_sums(f"content-sum terms of degree {k}", terms, (
        ("sum dim^2 = k!", 0, order),
        ("sum dim^2 f^2 = k! C(k, 2)", 2, order * pairs),
    ), odd)
    return terms, tuple((w, f) for f, w in heads.items() if w)


def _evaluate(terms: tuple[tuple[int, int], ...], k: int, b: int) -> int:
    """(1 / k!) times the sum of w f^b over the (w, f) ``terms`` of
    degree k; a remainder or a negative count is an InvariantViolation."""
    value, rem = divmod(sum(w * f**b for w, f in terms), factorial(k))
    if rem:
        raise InvariantViolation(f"class-algebra count for ({k}, {b}) not integral")
    if value < 0:
        raise InvariantViolation(f"class-algebra count for ({k}, {b}) went negative")
    return value


def disconnected_count(k: int, b: int) -> int:
    """Number of b-tuples of transpositions in S_k with identity product,
    transitive or not.

    >>> disconnected_count(3, 4)
    27
    >>> disconnected_count(4, 0)
    1
    """
    _check_shape(k, b)
    return _evaluate(_content_terms(k)[0], k, b)


def _check_sums(what: str, terms: tuple[tuple[int, int], ...], rules, failed=()) -> tuple[tuple[int, int], ...]:
    """``terms`` once the sum of w f^m is ``want`` for every ``(name, m, want)`` of
    ``rules``, else an InvariantViolation naming every rule that fails, after any ``failed``."""
    failed = [*failed, *(name for name, m, want in rules if sum(w * f**m for w, f in terms) != want)]
    if failed:
        raise InvariantViolation(f"{what} fail " + "; ".join(failed))
    return terms


def _check_least(kind: str, k: int, terms: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """``terms`` of ``kind`` at degree k, once their count (1 / k!) sum w f^m is 0
    at every even m below the need rule's least length and the minimal count
    (an integer at every k) at it."""
    if kind == "connected":  # Hurwitz
        least, count, formula = 2 * k - 2, factorial(2 * k - 2) * k**k // k**3, "(2k - 2)! k^k / k^3"
    else:  # the 3-cycles, by Goulden and Jackson
        least, count, formula = 2 * k - 4, 27 * comb(k, 3) * factorial(2 * k - 4) * k**k // k**5, "27 C(k, 3) (2k - 4)! k^k / k^5"
    rules = [(f"no tuples of length {m}", m, 0) for m in range(0, least, 2)]
    rules.append((f"{formula} tuples of length {least}", least, factorial(k) * count))
    return _check_sums(f"{kind} terms of degree {k}", terms, rules)


def _peel(k: int, head, sizes, scale, block_terms) -> tuple[tuple[int, int], ...]:
    """The ``(w, f)`` table ``head`` of degree k, less ``scale(j)`` (``block_terms(j)``
    * D_{k-j}) for each marked block size j in ``sizes``: over C(b, b1) shares,
    weights multiply and exponents add, and on folded tables cosh(fx) cosh(gx) =
    (cosh((f + g)x) + cosh((f - g)x)) / 2 puts half of each product on f + g and
    half on |f - g|, all at most C(k, 2).  A folded weight at f > 0 is
    w(f) + w(-f) = 2 w(f), so c w // 2 is exact; at f = 0 both parts land on g."""
    start = {f: w for w, f in head}
    weights = [start.get(f, 0) for f in range(comb(k, 2) + 1)]
    for j, c in zip(sizes, map(scale, sizes)):
        for w, f in block_terms(j):
            low = c * w // 2
            high = c * w - low
            for sq, g in _content_terms(k - j)[0]:
                weights[f + g] -= low * sq
                weights[abs(f - g)] -= high * sq
    return tuple((w, f) for f, w in enumerate(weights) if w)


@lru_cache(maxsize=None)
def _connected_terms(k: int) -> tuple[tuple[int, int], ...]:
    """``(w, f)`` with k! Conn(k, b) the sum of w f^b for every b, one
    term per exponent.  The block through symbol 1 has j < k symbols, so
    W_k = D_k - sum over j of C(k - 1, j - 1) C(k, j) (W_j * D_{k-j}).

    >>> sorted(_connected_terms(2))
    [(-2, 0), (2, 1)]
    """
    terms = _peel(k, _content_terms(k)[0], range(1, k), lambda j: comb(k - 1, j - 1) * comb(k, j), _connected_terms)
    return _check_least("connected", k, terms)


@lru_cache(maxsize=None)
def _three_cycle_terms(k: int) -> tuple[tuple[int, int], ...]:
    """``(w, f)`` with k! T3(k, b) the sum of w f^b for every b, T3 counting the
    transitive b-tuples with a 3-cycle product.  Over all tuples that is A_k,
    lam weighed by p2(lam) - C(k, 2), the 3-cycles' central character, as the
    squared Jucys-Murphy elements sum to C(k, 2) and the 3-cycles' class sum.
    The 3-cycle's support fixes its block of 3 <= j < k symbols:
    W_k = A_k - sum of C(k, j)^2 (W_j * D_{k-j}).

    >>> sorted(_three_cycle_terms(3))
    [(-4, 0), (4, 3)]
    """
    if k < 3:
        return ()
    terms = _peel(k, _content_terms(k)[1], range(3, k), lambda j: comb(k, j) ** 2, _three_cycle_terms)
    return _check_least("three-cycle", k, terms)


def connected_count(k: int, b: int) -> int:
    """Number of b-tuples of transpositions in S_k with identity product
    and transitive span.

    >>> connected_count(3, 4)
    24
    >>> connected_count(2, 8)
    1
    """
    _check_shape(k, b)
    return _evaluate(_connected_terms(k), k, b)
