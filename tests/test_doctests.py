import doctest

import gonalgeo.asymptotics
import gonalgeo.characters
import gonalgeo.covers
import gonalgeo.degeneration
import gonalgeo.invariants
import gonalgeo.reference
import pytest

MODULES = [
    gonalgeo.characters,
    gonalgeo.covers,
    gonalgeo.degeneration,
    gonalgeo.invariants,
    gonalgeo.asymptotics,
    gonalgeo.reference,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
