import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import cliquebounds
from cliquebounds import enumerate_graphs


@pytest.fixture(scope="session")
def reps_by_n():
    """Isomorphism-class representatives for n = 0..6, computed once."""
    return {n: list(enumerate_graphs(n)) for n in range(7)}


@pytest.fixture(scope="session")
def reps7():
    return list(enumerate_graphs(7))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)`` counts the calls of the package function
    ``name`` from then on, in every cliquebounds module that holds it, and
    returns the list that records their arguments."""

    def install(name: str) -> list:
        orig = getattr(cliquebounds, name)
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
