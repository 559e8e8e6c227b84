import pytest

from nsatop import fintop, hull


def clear_recorded_facts():
    """Forget every fact table and every lru_cache of fintop and hull, so
    spaces built from now on decide and audit afresh; spaces alive keep their
    own tables."""
    fintop._FACT_TABLES.clear()
    for module in (fintop, hull):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_facts():
    """For a test that makes an audit fail on purpose: a verdict recorded by
    an earlier test, in a table some live space still holds, must not hide
    the failure, and the tampered verdicts must not outlive the test."""
    clear_recorded_facts()
    yield
    clear_recorded_facts()
