from pathlib import Path

import pytest

from sopwl import milp

CASES = Path(__file__).parent / "cases"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def cases_dir() -> Path:
    return CASES


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture
def count_solves(monkeypatch):
    """Call to patch ``milp.solve``; returns the list it fills with the name
    of every model solved. ``tamper(model, solution)`` may rewrite each pwl
    solution before the caller sees it."""

    def install(tamper=None):
        real_solve = milp.solve
        names = []

        def solve(model, adapter):
            names.append(model.name)
            solution = real_solve(model, adapter)
            if tamper is not None and model.name.endswith("_pwl"):
                solution = tamper(model, solution)
            return solution

        monkeypatch.setattr(milp, "solve", solve)
        return names

    return install
