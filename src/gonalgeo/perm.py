"""Permutation algebra on the symbol set {1, ..., k}.

Permutations are stored in word form: ``p[i - 1]`` is the image of symbol
``i``.  Application order is right to left throughout: ``compose(p, q)``
is the map ``x -> p(q(x))``, so the right factor acts first.
Transpositions are bare ``(a, b)`` pairs with ``a < b``.
"""

from collections.abc import Iterable

from .errors import ParameterError

Perm = tuple[int, ...]
Transposition = tuple[int, int]


def identity(k: int) -> Perm:
    """The identity of S_k.

    >>> identity(3)
    (1, 2, 3)
    """
    if k < 1:
        raise ParameterError(f"degree must be at least 1, got {k}")
    return tuple(range(1, k + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """The product ``p * q``: apply ``q`` first, then ``p``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(p) != len(q):
        raise ParameterError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[x - 1] for x in q)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths in weakly decreasing order, fixed points included.

    >>> cycle_type((2, 1, 3))
    (2, 1)
    >>> cycle_type((2, 3, 1))
    (3,)
    """
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x] - 1
            n += 1
        lengths.append(n)
    lengths.sort(reverse=True)
    return tuple(lengths)


def transposition_perm(k: int, t: Transposition) -> Perm:
    """The word form of the transposition ``t`` inside S_k.

    >>> transposition_perm(4, (2, 4))
    (1, 4, 3, 2)
    """
    a, b = t
    if not (1 <= a < b <= k):
        raise ParameterError(f"bad transposition {t} for degree {k}")
    out = list(range(1, k + 1))
    out[a - 1], out[b - 1] = b, a
    return tuple(out)


def all_transpositions(k: int) -> list[Transposition]:
    """All k(k-1)/2 transpositions of S_k in lexicographic order.

    >>> all_transpositions(3)
    [(1, 2), (1, 3), (2, 3)]
    """
    if k < 2:
        raise ParameterError(f"need degree at least 2 for transpositions, got {k}")
    return [(a, b) for a in range(1, k) for b in range(a + 1, k + 1)]


def orbits(gens: Iterable[Perm], k: int) -> list[tuple[int, ...]]:
    """Orbit partition of {1, ..., k} under the group the generators span.

    Returns the blocks as sorted tuples, ordered by least element.  With no
    generators every symbol is its own orbit.

    >>> orbits([(2, 1, 3)], 3)
    [(1, 2), (3,)]
    >>> orbits([], 2)
    [(1,), (2,)]
    """
    parent = list(range(k + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        if len(g) != k:
            raise ParameterError(f"generator degree {len(g)} does not match {k}")
        for x in range(1, k + 1):
            rx, ry = find(x), find(g[x - 1])
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

    blocks: dict[int, list[int]] = {}
    for x in range(1, k + 1):
        blocks.setdefault(find(x), []).append(x)
    return [tuple(blocks[r]) for r in sorted(blocks)]
