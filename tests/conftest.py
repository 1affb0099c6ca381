import pytest

from gonalgeo import reference
from gonalgeo.degeneration import full_census

# every (k, b) the test suite enumerates, smallest first
ENVELOPE = [
    (2, 2), (2, 4), (2, 6), (2, 8), (2, 10),
    (3, 4), (3, 6), (3, 8), (3, 10),
    (4, 6), (4, 8), (4, 10),
    (5, 8),
]


def skew_double_transposition_step(monkeypatch):
    """Make the walk take the step from the double transposition to a
    transposition, at degree 4, 3 ways instead of 2."""
    steps = reference._block_steps

    def skewed(state):
        return tuple(
            (nxt, n + (state == ((2, 2),) and nxt == ((2, 1, 1),)), need)
            for nxt, n, need in steps(state)
        )

    monkeypatch.setattr(reference, "_block_steps", skewed)


@pytest.fixture(scope="session")
def census_store():
    """Memoized access to full_census so the heavy pairs run once per
    session no matter how many tests want them."""
    cache = {}

    def get(k, b):
        if (k, b) not in cache:
            cache[(k, b)] = full_census(k, b)
        return cache[(k, b)]

    return get
