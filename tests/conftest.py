import pytest

from coincalc import default_table_text, load_default_tables, spheres
from coincalc.stable import StableRing
from coincalc.tables import TableSet


@pytest.fixture(scope="session")
def tables():
    return load_default_tables()


@pytest.fixture(scope="session")
def table_text():
    return default_table_text()


@pytest.fixture(autouse=True)
def rings_stay_unpatched():
    """A StableRing in spheres._RINGS answers for every later table with its
    stems and products: after each test, none holds an instance attribute
    that StableRing.__init__ does not set (a patch left in place)."""
    yield
    fields = set(vars(StableRing(TableSet())))
    for ring, _checked, _chains in spheres._RINGS.values():
        assert not set(vars(ring)) - fields, sorted(set(vars(ring)) - fields)
