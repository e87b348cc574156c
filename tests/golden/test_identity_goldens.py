"""Every run in the golden grid still produces its committed
``identity_digest()`` (see :mod:`tests.golden.grid` for the grid and the
regeneration command)."""

import pytest

from repro.harness.parallel import execute_spec
from tests.golden.grid import golden_specs, load_goldens

SPECS = golden_specs()
GOLDENS = load_goldens()


def test_goldens_cover_exactly_the_grid():
    assert sorted(GOLDENS) == sorted(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_identity_digest_is_pinned(name):
    assert execute_spec(SPECS[name]).identity_digest() == GOLDENS[name]
