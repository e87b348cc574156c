"""Every run in the golden grid still produces its committed
``identity_digest()`` (see :mod:`tests.golden.grid` for the grid and the
regeneration command)."""

import pytest

from repro.harness.parallel import execute_spec
from tests.golden.grid import golden_specs, load_goldens

GOLDENS = load_goldens()


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    return golden_specs(tmp_path_factory.mktemp("golden_traces"))


def test_goldens_cover_exactly_the_grid(specs):
    assert sorted(GOLDENS) == sorted(specs)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_identity_digest_is_pinned(specs, name):
    assert execute_spec(specs[name]).identity_digest() == GOLDENS[name]
