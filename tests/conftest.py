import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import cliquebounds
from cliquebounds import enumerate_graphs


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow(why): skipped unless RUN_SLOW is set; ``why`` says what takes the time"
    )


def pytest_runtest_setup(item):
    marker = item.get_closest_marker("slow")
    if marker is not None and not os.environ.get("RUN_SLOW"):
        pytest.skip(f"{marker.args[0]}; set RUN_SLOW=1")


@pytest.fixture(scope="session")
def reps_by_n():
    """Isomorphism-class representatives for n = 0..6, computed once."""
    return {n: list(enumerate_graphs(n)) for n in range(7)}


@pytest.fixture(scope="session")
def reps7():
    return list(enumerate_graphs(7))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name, home)`` counts the calls of the function ``name``
    of the module ``home`` (the package by default) from then on, in every
    cliquebounds module that holds it, and returns the list that records
    their arguments."""

    def install(name: str, home=cliquebounds) -> list:
        orig = getattr(home, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "cliquebounds" or key.startswith("cliquebounds."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return install
