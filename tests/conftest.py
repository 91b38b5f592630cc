import random

import pytest
from hypothesis import settings

from revlang.stdlib import CATALOG, entry_function

from lowered import keep_calls

# every property test is deterministic: a fixed sequence of examples, no
# example database and no deadline; a test sets only its `max_examples`
settings.register_profile("revlang", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("revlang")


@pytest.fixture
def rng():
    return random.Random(20240811)


def catalog_items():
    return [(name, entry_function(name)) for name in CATALOG]


@pytest.fixture(params=list(CATALOG), ids=list(CATALOG))
def catalog_name(request):
    return request.param


@pytest.fixture
def no_inlining(monkeypatch):
    """For a test of the call path itself: every call stays a call."""
    keep_calls(monkeypatch)


@pytest.fixture(params=[True, False], ids=["inlined", "called"])
def inlining(request, monkeypatch):
    """Run a test with calls of one site inlined, and again with every
    call kept a call; the fixture's value says which."""
    if not request.param:
        keep_calls(monkeypatch)
    return request.param
