import pytest

from gonalgeo.degeneration import full_census

# every (k, b) the test suite enumerates, smallest first
ENVELOPE = [
    (2, 2), (2, 4), (2, 6), (2, 8), (2, 10),
    (3, 4), (3, 6), (3, 8), (3, 10),
    (4, 6), (4, 8), (4, 10),
    (5, 8),
]


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
