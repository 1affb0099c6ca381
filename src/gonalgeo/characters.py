"""Cover counting through class algebra, and the exact character table of S_k.

The number of length-b transposition tuples in S_k with identity product
is Frobenius' class-algebra evaluation, which needs only the dimension
and the central character of each irreducible at the transposition
class C:

    D(k, b) = (1 / k!) * sum over partitions lam of k of dim_lam^2 * f_lam^b

with dim_lam = k! / (product of hook lengths of lam) and f_lam =
|C| chi_lam(tau) / dim_lam the content sum of lam, the sum of j - i over
its cells (i, j).  Both are read off the diagram, so a count never
builds a character table; each degree keeps its p(k) pairs
(dim_lam^2, f_lam), checked against three identities.  The connected
count is an exponential sum too, k! Conn(k, b) = sum of w f^b over one
table of (w, f) per degree, built once by peeling off the block of
symbol 1 on the exponents, so no memo is keyed by b; so is the count
of transitive tuples with a 3-cycle product, T3.  The collision census
(``degeneration.full_census``) reads every field from these tables,
each checked when it is built against the minimal factorization counts.

The full character table, by the border-strip recursion on beta-sets
with every entry an exact integer and both orthogonality relations
checked, is kept as the independent reference for those pairs.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from operator import mul

from .errors import InvariantViolation, ParameterError


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``n`` in descending lexicographic order.

    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n < 0:
        raise ParameterError(f"cannot partition {n}")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for head in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - head, head):
            out.append((head,) + rest)
    return tuple(out)


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


def _hook_lengths(lam: tuple[int, ...]) -> list[int]:
    """Hook length of every cell of the diagram of ``lam``, row by row.

    >>> _hook_lengths((3, 1))
    [4, 2, 1, 1]
    """
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    return [row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]


def _content_sum(lam: tuple[int, ...], power: int = 1) -> int:
    """Sum of (j - i)^power over the cells (i, j) of the diagram of ``lam``.

    >>> _content_sum((3, 1)), _content_sum((3, 1), 2)
    (2, 6)
    """
    return sum((j - i) ** power for i, row in enumerate(lam) for j in range(row))


@lru_cache(maxsize=None)
def _content_terms(k: int) -> tuple[tuple[int, int], ...]:
    """``(dim_lam^2, f_lam)`` for every partition of k, from hook lengths
    and content sums.  The pairs must satisfy the counts of zero, one and
    two transpositions with identity product, k! times 1, 0 and C(k, 2);
    every identity that fails is named."""
    order = factorial(k)
    terms = []
    for lam in partitions_of(k):
        dim, rem = divmod(order, prod(_hook_lengths(lam)))
        if rem:
            raise InvariantViolation(f"hook lengths of {lam} do not give a dimension of S_{k}")
        terms.append((dim * dim, _content_sum(lam)))
    failed = [
        name
        for name, power, want in (
            ("sum dim^2 = k!", 0, order),
            ("sum dim^2 f = 0", 1, 0),
            ("sum dim^2 f^2 = k! C(k, 2)", 2, order * comb(k, 2)),
        )
        if sum(sq * f**power for sq, f in terms) != want
    ]
    if failed:
        raise InvariantViolation(
            f"content-sum terms of degree {k} fail " + "; ".join(failed)
        )
    return tuple(terms)


def _evaluate(terms: tuple[tuple[int, int], ...], k: int, b: int) -> int:
    """(1 / k!) times the sum of w f^b over the (w, f) ``terms`` of
    degree k; a remainder or a negative count is an InvariantViolation."""
    value, rem = divmod(sum(w * f**b for w, f in terms), factorial(k))
    if rem:
        raise InvariantViolation(f"class-algebra count for ({k}, {b}) not integral")
    if value < 0:
        raise InvariantViolation(f"connected count for ({k}, {b}) went negative")
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
    return _evaluate(_content_terms(k), k, b)


def _check_least(kind: str, k: int, terms: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """``terms`` of ``kind`` at degree k, once their count (1 / k!) sum w f^m is 0
    at every even m below the need rule's least length and the minimal count
    (an integer at every k) at it; every identity that fails is named."""
    if kind == "connected":  # Hurwitz
        least, count, formula = 2 * k - 2, factorial(2 * k - 2) * k**k // k**3, "(2k - 2)! k^k / k^3"
    else:  # the 3-cycles, by Goulden and Jackson
        least, count, formula = 2 * k - 4, 27 * comb(k, 3) * factorial(2 * k - 4) * k**k // k**5, "27 C(k, 3) (2k - 4)! k^k / k^5"
    failed = [f"no tuples of length {m}" for m in range(0, least, 2) if sum(w * f**m for w, f in terms)]
    if sum(w * f**least for w, f in terms) != factorial(k) * count:
        failed.append(f"{formula} tuples of length {least}")
    if failed:
        raise InvariantViolation(f"{kind} terms of degree {k} fail " + "; ".join(failed))
    return terms


def _peel(k: int, weigh, sizes, scale, block_terms) -> tuple[tuple[int, int], ...]:
    """``(w, f)`` over all tuples of degree k, lam weighed dim_lam^2 ``weigh(lam)``,
    less ``scale(j)`` (``block_terms(j)`` * D_{k-j}) for each marked block size
    j in ``sizes``: over C(b, b1) shares, weights multiply and exponents add."""
    weights: dict[int, int] = {}
    for lam, (sq, f) in zip(partitions_of(k), _content_terms(k)):
        weights[f] = weights.get(f, 0) + sq * weigh(lam)
    for j, c in zip(sizes, map(scale, sizes)):
        for w, f in block_terms(j):
            for sq, g in _content_terms(k - j):
                weights[f + g] = weights.get(f + g, 0) - c * w * sq
    return tuple((w, f) for f, w in weights.items() if w)


@lru_cache(maxsize=None)
def _connected_terms(k: int) -> tuple[tuple[int, int], ...]:
    """``(w, f)`` with k! Conn(k, b) the sum of w f^b for every b, one
    term per exponent.  The block through symbol 1 has j < k symbols, so
    W_k = D_k - sum over j of C(k - 1, j - 1) C(k, j) (W_j * D_{k-j}).

    >>> _connected_terms(2)
    ((1, 1), (1, -1), (-2, 0))
    """
    terms = _peel(k, lambda lam: 1, range(1, k), lambda j: comb(k - 1, j - 1) * comb(k, j), _connected_terms)
    return _check_least("connected", k, terms)


@lru_cache(maxsize=None)
def _three_cycle_terms(k: int) -> tuple[tuple[int, int], ...]:
    """``(w, f)`` with k! T3(k, b) the sum of w f^b for every b, T3 counting the
    transitive b-tuples with a 3-cycle product.  Over all tuples lam weighs
    p2(lam) - C(k, 2), its squared contents' sum less C(k, 2): the 3-cycles'
    central character, as the squared Jucys-Murphy elements sum to C(k, 2)
    and the 3-cycles' class sum.  The 3-cycle's support fixes its block of
    3 <= j < k symbols: W_k = A_k - sum of C(k, j)^2 (W_j * D_{k-j}).

    >>> _three_cycle_terms(3)
    ((2, 3), (-4, 0), (2, -3))
    """
    if k < 3:
        return ()
    terms = _peel(k, lambda lam: _content_sum(lam, 2) - comb(k, 2), range(3, k), lambda j: comb(k, j) ** 2, _three_cycle_terms)
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
