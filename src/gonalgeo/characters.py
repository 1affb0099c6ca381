"""Exact character table of S_k and cover counting through class algebra.

Characters are computed by the border-strip recursion on beta-sets, every
entry an exact integer.  The number of length-b transposition tuples with
identity product is the class-algebra evaluation

    D(k, b) = (|C|^b / k!) * sum over irreps of chi(tau)^b * dim^(2 - b)

with C the transposition class and tau a transposition.  Connected counts
follow by peeling off the sub-cover attached to the block of symbol 1.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul

from .errors import CapacityError, InvariantViolation, ParameterError

DEFAULT_MAX_DEGREE = 12


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
    z = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return z


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


def character_table(k: int, *, max_degree: int = DEFAULT_MAX_DEGREE) -> CharacterTable:
    """Character table of S_k, cached; k is capped by ``max_degree``."""
    if k < 1:
        raise ParameterError(f"degree must be at least 1, got {k}")
    if k > max_degree:
        raise CapacityError(
            f"character table for degree {k} exceeds the bound {max_degree}"
        )
    return _build_table(k)


def _check_shape(k: int, b: int) -> None:
    if k < 2:
        raise ParameterError(f"degree must be at least 2, got {k}")
    if b < 0 or b % 2:
        raise ParameterError(f"branch count must be even and nonnegative, got {b}")


def disconnected_count(k: int, b: int, *, max_degree: int = DEFAULT_MAX_DEGREE) -> int:
    """Number of b-tuples of transpositions in S_k with identity product,
    transitive or not.

    >>> disconnected_count(3, 4)
    27
    >>> disconnected_count(4, 0)
    1
    """
    _check_shape(k, b)
    table = character_table(k, max_degree=max_degree)
    tau = (2,) + (1,) * (k - 2)
    tau_col = table.classes.index(tau)
    acc = Fraction(0)
    for row, dim in zip(table.rows, table.dims):
        ct = row[tau_col]
        if ct == 0 and b > 0:
            continue
        acc += Fraction(ct**b * dim**2, dim**b)
    csize = k * (k - 1) // 2
    value = Fraction(csize**b, factorial(k)) * acc
    if value.denominator != 1:
        raise InvariantViolation(f"class-algebra count for ({k}, {b}) not integral")
    return int(value)


@lru_cache(maxsize=None)
def _disconnected(k: int, b: int, max_degree: int) -> int:
    if k <= 1:
        return 1 if b == 0 else 0
    return disconnected_count(k, b, max_degree=max_degree)


@lru_cache(maxsize=None)
def _connected(k: int, b: int, max_degree: int) -> int:
    if k == 1:
        return 1 if b == 0 else 0
    total = _disconnected(k, b, max_degree)
    # remove tuples whose block containing symbol 1 is a proper sub-cover;
    # restricting to the block through 1 counts each split exactly once
    for j in range(1, k + 1):
        for b1 in range(0, b + 1, 2):
            if j == k and b1 == b:
                continue
            rest = _disconnected(k - j, b - b1, max_degree)
            if rest == 0:
                continue
            inner = _connected(j, b1, max_degree)
            if inner == 0:
                continue
            total -= comb(k - 1, j - 1) * comb(b, b1) * inner * rest
    if total < 0:
        raise InvariantViolation(f"connected count for ({k}, {b}) went negative")
    return total


def connected_count(k: int, b: int, *, max_degree: int = DEFAULT_MAX_DEGREE) -> int:
    """Number of b-tuples of transpositions in S_k with identity product
    and transitive span.

    >>> connected_count(3, 4)
    24
    >>> connected_count(2, 8)
    1
    """
    _check_shape(k, b)
    return _connected(k, b, max_degree)
