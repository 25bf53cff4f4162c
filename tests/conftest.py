from pathlib import Path

import pytest
from hypothesis import settings

from sopwl import cli, milp

# CI runs tier-1 with --hypothesis-profile=ci: every property test then draws
# the same examples on every run and replays no failing draw saved by an
# earlier one. Local runs keep hypothesis's random draws and its database.
settings.register_profile("ci", derandomize=True, database=None)

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
    of every model it solves as a MILP. ``tamper(model, solution)`` may
    rewrite the answer of each pwl run (``cli._pwl_answer``), from its LP
    relaxation or its MILP, before the caller sees it."""

    def install(tamper=None):
        real_solve = milp.solve
        real_pwl_answer = cli._pwl_answer
        names = []

        def solve(model, adapter):
            names.append(model.name)
            return real_solve(model, adapter)

        def pwl_answer(pwl, relaxation, adapter):
            solution = real_pwl_answer(pwl, relaxation, adapter)
            if tamper is not None:
                solution = tamper(pwl.model, solution)
            return solution

        monkeypatch.setattr(milp, "solve", solve)
        monkeypatch.setattr(cli, "_pwl_answer", pwl_answer)
        return names

    return install
