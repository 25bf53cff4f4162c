"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from sopwl.cli import _solution_injections, main
from sopwl.distflow import (
    BuildOptions,
    build_distflow,
    build_restoration_objective,
)
from sopwl.milp import MilpModel, check_solution, solve, write_lp
from sopwl.network import bundled_case_path, load_case
from sopwl.solvers import ScipyMilpAdapter
from sopwl.validation import (
    branch_errors,
    lift_ordered,
    radial_sweep,
)

from reference import (
    FillingState,
    PwlGrid,
    check_unordered_feasibility,
    eso_error,
    eso_fill,
    min_pwl_oracle,
    pwl_value,
)

CASES = Path(__file__).parent / "cases"
GOLDEN = Path(__file__).parent / "golden"

SOLVE_WALL_LIMIT = 300.0  # five minutes per experiment solve


def _random_grids(rng, count):
    return [
        PwlGrid(y_max=rng.uniform(0.5, 20.0), num_segments=rng.randint(1, 100))
        for _ in range(count)
    ]


def test_criterion_1_closed_form_identity():
    rng = random.Random(11)
    start = time.perf_counter()
    grids = _random_grids(rng, 20)
    for grid in grids:
        for _ in range(50):  # 1000 samples across the 20 grids
            y = rng.uniform(1e-12, 1.0) * grid.y_max
            lhs = pwl_value(eso_fill(grid, y)) - y * y
            assert abs(lhs - eso_error(grid, y)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS — closed-form identity, 1000 samples in {elapsed:.3f}s")


def test_criterion_2_over_approximation():
    rng = random.Random(12)
    start = time.perf_counter()
    for grid in _random_grids(rng, 5):
        h = grid.seg_width
        for _ in range(1000):
            deltas = tuple(rng.uniform(0.0, h) for _ in range(grid.num_segments))
            state = FillingState(grid=grid, deltas=deltas)
            y = state.total
            assert pwl_value(state) >= y * y - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: PASS — over-approximation on 5000 fillings in {elapsed:.3f}s")


def test_criterion_3_minimality_oracle():
    rng = random.Random(13)
    steps = 20
    start = time.perf_counter()
    for num_segments in (2, 3, 4, 5):
        grid = PwlGrid(y_max=rng.uniform(1.0, 20.0), num_segments=num_segments)
        step = grid.seg_width / steps
        # documented resolution slack: worst midpoint error plus the value
        # shift from matching the total to the step grid
        slack = grid.seg_width**2 / 4 + 2 * grid.y_max * step + 1e-9
        for _ in range(50):
            y = rng.uniform(0.0, 1.0) * grid.y_max
            oracle = min_pwl_oracle(grid, y, steps)
            assert abs(oracle - pwl_value(eso_fill(grid, y))) <= slack
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3: PASS — oracle minimality, 200 samples in {elapsed:.3f}s")


def test_criterion_4_error_bound():
    rng = random.Random(11)  # same stream as criterion 1
    start = time.perf_counter()
    for grid in _random_grids(rng, 20):
        bound = grid.seg_width**2 / 4
        for _ in range(50):
            y = rng.uniform(1e-12, 1.0) * grid.y_max
            assert eso_error(grid, y) <= bound + 1e-9
        # equality at segment midpoints
        for lam in range(1, grid.num_segments + 1):
            mid = (lam - 0.5) * grid.seg_width
            assert abs(eso_error(grid, mid) - bound) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 4: PASS — error bound seg_width^2/4 in {elapsed:.3f}s")


def test_criterion_5_ordered_mode_rejects_witness():
    grid = PwlGrid(10.0, 5)
    witness = FillingState(grid=grid, deltas=(1, 2, 2, 0, 0))
    assert check_unordered_feasibility(witness) == (True, False)
    assert check_unordered_feasibility(eso_fill(grid, 5.0)) == (True, True)
    print("ACCEPTANCE 5: PASS — unordered witness feasible in plain mode only")


@pytest.fixture(scope="module")
def ieee33_runs():
    case = load_case(bundled_case_path("ieee33_4dg"))
    runs = {}
    for mode in ("sopwl", "pwl"):
        options = BuildOptions(num_segments=50, mode=mode)
        model = MilpModel(name=f"accept33_{mode}")
        artifacts = build_distflow(model, case, options)
        build_restoration_objective(model, artifacts)
        model.freeze()
        start = time.perf_counter()
        solution = solve(model, ScipyMilpAdapter(time_limit=SOLVE_WALL_LIMIT - 20))
        elapsed = time.perf_counter() - start
        runs[mode] = (model, artifacts, solution, elapsed)
    return case, runs


def test_criterion_6_sopwl_experiment(ieee33_runs):
    case, runs = ieee33_runs
    model, artifacts, solution, elapsed = runs["sopwl"]
    assert elapsed <= SOLVE_WALL_LIMIT
    assert solution.status in ("optimal", "feasible")
    assert check_solution(model, solution) == []

    report = branch_errors(solution, artifacts)
    # every solved filling, P and Q, must be ordered
    assert all(r.eso_ok_p and r.eso_ok_q for r in report.records)

    # The relative error metric degenerates as the flow approaches a single
    # segment width: even a perfectly ordered filling of y < seg_width/2 has
    # error above 100 %. Feeders carrying at least seg_width*sqrt(12.5)
    # (~0.008 pu here) are the ones for which the 2 % bound is meaningful;
    # below that the branch is reported but flagged out of the summary.
    # Each branch's floor is taken on its own segment width.
    floors = (artifacts.seg_width[:, 0] * math.sqrt(12.5)).tolist()
    reported = [r for r, floor in zip(report.records, floors) if r.p >= floor]
    assert reported, "no feeder carries measurable flow"
    worst = max(r.e_p for r in reported)
    assert all(r.e_p is not None and r.e_p <= 2.0 for r in reported)
    print(
        f"\nACCEPTANCE 6: PASS — 33-bus ordered-mode run: {len(reported)} feeders "
        f"above their floors (>= {min(floors):.4f} pu), max E_p = {worst:.3f} % "
        f"<= 2 %, all fillings ordered, solved in {elapsed:.1f}s"
    )


def test_criterion_7_pwl_objective_agreement(ieee33_runs):
    case, runs = ieee33_runs
    _, art_pwl, sol_pwl, elapsed_pwl = runs["pwl"]
    _, _, sol_sopwl, _ = runs["sopwl"]
    assert elapsed_pwl <= SOLVE_WALL_LIMIT
    assert sol_pwl.status in ("optimal", "feasible")
    rel = abs(sol_pwl.objective_value - sol_sopwl.objective_value) / abs(
        sol_sopwl.objective_value
    )
    assert rel <= 0.01
    report = branch_errors(sol_pwl, art_pwl)
    # errors reported only: plain-mode magnitudes depend on which optimal
    # vertex the solver happens to return
    print(
        f"ACCEPTANCE 7: PASS — plain-mode objective {sol_pwl.objective_value:.6f} "
        f"vs ordered-mode {sol_sopwl.objective_value:.6f} ({100 * rel:.3f} % apart); "
        f"plain-mode max E_p = {report.max_e_p:.3f} % (reported, not asserted)"
    )


def test_pwl_optimum_lifts_to_sopwl(ieee33_runs):
    # the DG limits bind on this case, so plain PWL already fills in order and
    # its optimum lifts onto the ordered-mode model without a second MILP
    case, runs = ieee33_runs
    _, _, sol_pwl, _ = runs["pwl"]
    model, artifacts, sol_sopwl, _ = runs["sopwl"]
    lifted = lift_ordered(sol_pwl, artifacts)
    assert lifted is not None
    assert check_solution(model, lifted) == []
    report = branch_errors(lifted, artifacts)
    assert all(r.eso_ok_p and r.eso_ok_q for r in report.records)
    # each solve stops within HiGHS's 1e-4 relative gap
    rel = abs(lifted.objective_value - sol_sopwl.objective_value) / abs(
        sol_sopwl.objective_value
    )
    assert rel <= 2e-4
    print(
        f"ACCEPTANCE 7b: PASS — plain-mode optimum lifted onto the ordered-mode "
        f"model: no violation, {2 * len(report.records)} blocks ordered, objective "
        f"{lifted.objective_value:.6f} vs MILP {sol_sopwl.objective_value:.6f}"
    )


def test_surplus_sopwl_certified_by_lp_screen(tmp_path, count_solves):
    # DG limits x3: generation no longer binds, plain PWL fills out of order,
    # and the LP screen certifies the ordered optimum; neither mode runs a
    # MILP, since the pwl LP relaxation is tight too
    solved = count_solves()
    out = tmp_path / "run"
    start = time.perf_counter()
    args = ["solve", "--case", "ieee33_4dg_surplus", "--mode", "both", "--segments", "10"]
    assert main([*args, "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    meta = {m: json.loads((out / m / "run.json").read_text()) for m in ("pwl", "sopwl")}
    # the eso_ok column of each branch's report row
    eso_ok = {
        m: [row.split()[-1] for row in (out / m / "report.txt").read_text().splitlines()[1:-1]]
        for m in ("pwl", "sopwl")
    }
    unordered = {m: len(col) - col.count("yes") for m, col in eso_ok.items()}
    assert meta["sopwl"]["sopwl_path"] == "lp_screen"
    assert solved == []
    assert meta["sopwl"]["status"] == "optimal"
    assert meta["sopwl"]["violations"] == 0
    assert unordered["sopwl"] == 0
    # the paper's demonstration: plain PWL's optimum leaves fillings unordered
    assert unordered["pwl"] >= 1
    restored = {m: meta[m]["objective_value"] for m in meta}
    assert restored["sopwl"] == pytest.approx(restored["pwl"], rel=1e-4)
    # each branch's default floor, seg_width * sqrt(12.5), is where an
    # ordered filling's relative error falls to 2 %
    max_e_p = {m: meta[m]["max_e_p_percent"] for m in meta}
    assert max_e_p["sopwl"] <= 2.0
    print(
        f"ACCEPTANCE 7c: PASS — surplus case at 10 segments: sopwl certified by the "
        f"LP screen, restored {restored['sopwl']:.6f} vs pwl {restored['pwl']:.6f} pu, "
        f"all sopwl fillings ordered, max E_p {max_e_p['sopwl']:.3f} % <= 2 %; pwl "
        f"leaves {unordered['pwl']} of {len(eso_ok['pwl'])} branches unordered (>= 1), max "
        f"E_p {max_e_p['pwl']:.3f} % (reported, not asserted); "
        f"{elapsed:.2f}s"
    )


def test_criterion_8_lp_writer_determinism():
    case = load_case(CASES / "twobus.json")
    options = BuildOptions(num_segments=5, mode="pwl")
    texts = []
    for _ in range(2):
        model = MilpModel(name="twobus_pwl")
        artifacts = build_distflow(model, case, options)
        build_restoration_objective(model, artifacts)
        model.freeze()
        texts.append(write_lp(model))
    assert texts[0] == texts[1]
    golden = (GOLDEN / "twobus_pwl.lp.golden").read_text()
    assert texts[0] == golden
    print("ACCEPTANCE 8: PASS — LP export byte-identical and matches golden fixture")


def test_criterion_9_radial_sweep(ieee33_runs):
    twobus = load_case(CASES / "twobus.json")

    flat = radial_sweep(twobus, {})
    assert flat.iterations == 1
    assert all(v == 1.0 for v in flat.voltages.values())

    hand = radial_sweep(twobus, {2: (-0.01, -0.005)})
    # frozen from the closed-form quadratic for the exact two-bus flow
    assert hand.voltages[2] == pytest.approx(0.9998499762426847, abs=1e-8)

    case, runs = ieee33_runs
    _, artifacts, solution, _ = runs["sopwl"]
    sweep = radial_sweep(case, _solution_injections(artifacts, solution))
    assert sweep.iterations <= 50
    linearized = solution.x[artifacts.voltage].tolist()
    deviation = max(
        abs(sweep.voltages[bus.id] ** 2 - v) for bus, v in zip(case.buses, linearized)
    )
    print(
        f"ACCEPTANCE 9: PASS — flat sweep 1 iteration; two-bus matches closed "
        f"form to 1e-8; 33-bus sweep converged in {sweep.iterations} iterations, "
        f"max |V^2| deviation vs linearized solution {deviation:.3e} pu^2 "
        f"(reported, not bounded), root slack P={sweep.root_injection[0]:.3e} pu"
    )
