import functools

import pytest

from synnet.verify import gradcheck_suite


@pytest.fixture(scope="session")
def suite_results():
    """`gradcheck_suite(seed)`, run once per seed for the whole session: its
    whole-model checks take seconds, and several tests read the same results."""
    return functools.cache(lambda seed: tuple(gradcheck_suite(seed)))
