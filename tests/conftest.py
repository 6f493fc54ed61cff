import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Every forked trainer, step child and evaluator is reaped by the call
    that forked it."""
    yield
    assert multiprocessing.active_children() == []
