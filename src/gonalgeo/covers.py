"""Transposition monodromy tuples for simple branched covers: their
shape, their class count, and the price of every counting engine.

A cover datum for a connected k-sheeted cover of the line with b simple
branch points is a length-b tuple of transpositions in S_k whose
left-to-right product is the identity and whose entries act transitively
on the k symbols.  Relabeling the k symbols acts on tuples entrywise; for
k >= 3 the action is free on the transitive tuples, so the raw count is
k! times the class count.  The count here is the character oracle's;
``gonalgeo.reference`` walks the tuples themselves, and ``oracle-check``
compares its block-state walk, priced here by ``block_states``, with the
class-algebra census.
"""

from dataclasses import dataclass
from functools import cache
from math import comb, factorial, isqrt

from .characters import _partition_counts
from .digits import _magnitude
from .errors import CapacityError, InvariantViolation, ParameterError


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


# the largest degree any engine is priced at: the tables of degree 64 alone
# form 2.8 * 10^8 term products, some 50 s at 0.18 us each
MAX_DEGREE = 63


def _exponents(d: int) -> int:
    """The most terms a class-algebra table of degree d holds: one per f = 0 .. C(d, 2)."""
    return comb(d, 2) + 1


@cache
def _price_table() -> tuple[tuple[int, int, int], ...]:
    """(S(n), oracle_products(n), the peels' share of it) at index n <=
    MAX_DEGREE, built once per process: p the partition numbers, and S
    their Euler transform, n S(n) summing c(j) S(n - j) over j <= n,
    c(j) summing d p(d) over d | j."""
    p, s, c, walk, peels, table = _partition_counts(MAX_DEGREE), [1], [0], 0, 0, [(1, 1, 0)]
    for n in range(1, MAX_DEGREE + 1):
        c.append(sum(d * p[d] for d in range(1, n + 1) if n % d == 0))
        s.append(sum(c[j] * s[n - j] for j in range(1, n + 1)) // n)
        walk += 15 * p[n]  # ``characters._diagrams`` walks about p(n) / 2 diagrams, of 30 products each
        peels += sum(_exponents(j) * _exponents(n - j) for j in range(1, n)) + n * _exponents(n)
        table.append((s[n], walk + peels + _exponents(n), peels))
    return tuple(table)


def _price_row(k: int) -> tuple[int, int, int]:
    """``_price_table``'s row of degree k, or a CapacityError past MAX_DEGREE."""
    if k < 0:
        raise ParameterError(f"degree must not be negative, got {k}")
    if k > MAX_DEGREE:
        raise CapacityError(f"degree {_magnitude(k)} is past {MAX_DEGREE}, the largest degree any engine is priced at: "
                            f"the class-algebra tables of degree {MAX_DEGREE} alone form {_price_table()[-1][1]} term products")
    return _price_table()[k]


def block_states(k: int, layers: int = 1) -> int:
    """``layers`` times S(k), the block states of degree k: partitions of
    partitions of k, the Euler transform of the partition numbers p.  The
    walk that ``oracle-check`` takes visits at most S(k) states in each of
    its b - 2 branching layers.  CapacityError past ``MAX_DEGREE``."""
    return layers * _price_row(k)[0]


def oracle_products(k: int) -> int:
    """Products the class-algebra tables of degree k cost: the walk's half
    of the p(d) diagrams of each d <= k, at a measured 30 products each; at
    most ``_exponents(j)`` times ``_exponents(d - j)`` as ``ExpSum.less``
    peels j < d off the connected table of degree d; the d power sums that
    check each degree-d table (``ExpSum.checked``); and one
    product per power of the degree-k table.  Past ``MAX_DEGREE``, CapacityError."""
    return _price_row(k)[1]


def _power_price(d: int, total: int, count: int, top: int) -> int:
    """Products that the powers of ``count`` evaluations of a degree-d
    table cost past one per term, the exponents summing to ``total`` and
    none past ``top``.  Each of at most ``_exponents(d)`` terms raises some
    f <= C(d, 2) to the exponent m, about m floor(log2 C(d, 2)) bits, and
    a power of w words costs w sqrt(w) / 32 products (repeated squaring
    at about Karatsuba's rate), its sqrt(w) read at ``top``."""
    bits = max(comb(d, 2).bit_length() - 1, 0)
    words = (bits * total + 63 * count) // 64
    return _exponents(d) * words * isqrt((bits * top + 63) // 64) // 32


def algebra_price(k: int, b: int, engine: str = "oracle") -> int:
    """The class-algebra price of (k, b) for ``engine``, in term products:
    the tables (``oracle_products``), and the powers past one product each
    (``_power_price``).  The "oracle" evaluates the connected table at b.
    A "census" builds the T3 tables too, peels priced as the connected
    tables', and the equal-pair table, a peel of each j <= k / 2 off k and
    k power sums; evaluates it and T3 at b - 2 and the connected table at
    b; and for each split size j reads the end cells, i = 0 and i = g (one
    for j = 1).  The "cells" that ``census`` prints and ``oracle-check``
    compares add the central pairs at b - 2 and each size's pass over its
    n = g + 1 cells (one for j = 1).  A cell evaluates a degree-j table at
    beta1 = 2i + 2j - 2 and a degree-(k - j) one at b - 2 - beta1, and past
    j = 1 takes C(b - 2, beta1) over about b bits (b / 512 products), with
    some 30 more, priced in closed form in O(k) steps.  One product stood
    for about 0.18 us on a shared 2-vCPU host, and the tests hold the price
    within a factor of 2 of measured costs.  Past ``MAX_DEGREE``, CapacityError."""
    tables = oracle_products(k)
    if engine == "oracle":
        return tables + _power_price(k, b, 1, b)

    def cells(j, n, small, top):  # n cells of size j, their beta1 summing to small, none past top
        carry = (b + 511) // 512 if j > 1 else 0
        return (n * (30 + carry + _exponents(j) + _exponents(k - j)) + _power_price(j, small, n, top)
                + _power_price(k - j, n * (b - 2) - small, n, b - 2 * j))
    g, sizes = (b - 2 * k + 2) // 2, range(1, k // 2 + 1)
    price = tables + _price_row(k)[2] + sum(_exponents(j) * _exponents(k - j) for j in sizes) + k * _exponents(k)
    price += (2 + (engine == "cells")) * _power_price(k, b - 2, 1, b - 2) + _power_price(k, b, 1, b)
    for j in sizes:
        n = g + 1 if j > 1 else 1  # the cells; the end cells are i = 0 and i = n - 1
        price += sum(cells(j, 1, beta1, beta1) for beta1 in {2 * j - 2, 2 * n + 2 * j - 4})
        price += cells(j, n, n * (n + 2 * j - 3), 2 * n + 2 * j - 4) if engine == "cells" else 0
    return price


def class_count_via_oracle(k: int, b: int) -> TupleCensus:
    """Tuple census computed from the character oracle instead of search."""
    from .characters import connected_count

    validate_cover_shape(k, b)
    raw = connected_count(k, b)
    return TupleCensus(k, b, raw, _classes(raw, k, "oracle count"))

