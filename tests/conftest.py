import mpmath as mp
import pytest
from hypothesis import settings

mp.mp.dps = 50

# property tests draw the same examples on every run, so tier-1 stays
# deterministic; 50 examples unless a test sets its own bound
settings.register_profile("fchi", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("fchi")


@pytest.fixture(autouse=True)
def _fresh_basis_counter():
    """Keep the basis-construction diagnostic isolated between tests."""
    from fchi import reset_basis_build_count

    reset_basis_build_count()
    yield
