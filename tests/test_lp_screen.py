"""The certified LP shortcuts in front of the MILPs: the two-stage LP
relaxation of the adapter, the pwl path that answers from its first stage,
the SO-PWL screen that refines it, and property tests of both paths on
random small radial cases."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sopwl import cli, milp, solvers, validation
from sopwl.cli import RunConfig, _build, _pwl_answer, _sopwl_answer, main
from sopwl.milp import MilpModel
from sopwl.network import load_case
from sopwl.solvers import ScipyMilpAdapter
from sopwl.validation import branch_errors


class TestRelaxedTwoStage:
    def test_bound_and_second_stage(self):
        # stage 1 takes the fractional optimum 1.5; stage 2 keeps it and puts
        # as little as it can on y, so x, a binary, stays at 1
        m = MilpModel(name="relax")
        m.add_variables(["x"], 0, 1, binary=True)
        m.add_variables(["y"], 0.0, 1.0)
        m.add_rows([0, 1], [1.0, 1.0], [0, 2], ["<="], [1.5], ["cap"])
        m.set_objective_columns("max", [0, 1], [1.0, 1.0])
        m.freeze()
        relaxation = ScipyMilpAdapter().relax(m)
        first = relaxation.solution
        assert first.status == "optimal"
        assert first.objective_value == pytest.approx(1.5)
        assert sum(first.x) == pytest.approx(1.5)
        assert first.mip_dual_bound == relaxation.bound == pytest.approx(1.5)
        assert first.mip_node_count == 0
        assert first.mip_gap == pytest.approx(0.0, abs=1e-12)
        sol = relaxation.refine([1])
        # stage 2 runs once: a second call gives the same solution
        assert relaxation.refine([1]) is sol
        assert sol.status == "optimal"
        assert sol.mip_dual_bound == pytest.approx(1.5)
        assert sol.mip_node_count == 0
        x, y = sol.x
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(0.5, abs=2e-7)
        assert 1.5 - 2e-7 <= sol.objective_value <= 1.5 + 1e-9
        assert sol.mip_gap == pytest.approx((1.5 - sol.objective_value) / 1.5)

    def test_min_sense_gap(self):
        m = MilpModel(name="relax_min")
        m.add_variables(["x", "y"], 0.0, 4.0)
        m.add_rows([0, 1], [1.0, 1.0], [0, 2], [">="], [2.0], ["need"])
        m.set_objective_columns("min", [0, 1], [1.0, 1.0])
        m.freeze()
        sol = ScipyMilpAdapter().relax(m).refine([0])
        assert sol.mip_dual_bound == pytest.approx(2.0)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.mip_gap == pytest.approx((sol.objective_value - 2.0) / 2.0)
        assert sol.mip_gap >= -1e-12

    def test_zero_bound_is_unsigned(self):
        # a maximising model's bound is HiGHS's negated optimum; a zero one
        # is written 0.0, never -0.0
        m = MilpModel(name="relax_zero")
        m.add_variables(["x"], 0.0, 0.0)
        m.set_objective_columns("max", [0], [1.0])
        m.freeze()
        relaxation = ScipyMilpAdapter().relax(m)
        for sol in (relaxation.solution, relaxation.refine([0])):
            assert math.copysign(1.0, sol.mip_dual_bound) == 1.0

    def test_infeasible_first_stage(self):
        m = MilpModel(name="relax_infeasible")
        m.add_variables(["x"], 0.0, 1.0)
        m.add_rows([0], [1.0], [0, 1], [">="], [2.0], ["impossible"])
        m.set_objective_columns("max", [0], [1.0])
        m.freeze()
        relaxation = ScipyMilpAdapter().relax(m)
        for sol in (relaxation.solution, relaxation.refine([0])):
            assert sol.status == "infeasible"
            assert len(sol.x) == 0
            assert sol.mip_dual_bound is None


class TestLpSession:
    """Both stages run as LPs on one HiGHS object."""

    @staticmethod
    def _branching6(cases_dir):
        case = load_case(cases_dir / "branching6.json")
        return case, RunConfig(case="branching6", mode="sopwl", num_segments=3)

    def test_screen_calls_no_milp(self, cases_dir, monkeypatch):
        case, config = self._branching6(cases_dir)
        artifacts = _build(case, config, "sopwl")

        real_run = solvers._HighsSession.run

        def no_milp(session):
            if session.mip:
                raise AssertionError("the LP screen ran a MILP")
            return real_run(session)

        monkeypatch.setattr(solvers._HighsSession, "run", no_milp)
        pwl = _build(case, config, "pwl")
        adapter = ScipyMilpAdapter()
        solution, path = _sopwl_answer(artifacts, pwl, adapter.relax(pwl.model), adapter)
        assert path == "lp_screen"
        assert solution.status == "optimal"

    def test_bound_is_a_cold_scipy_lp(self, cases_dir):
        # stage 1 is passed to HiGHS as scipy.optimize.milp passes it, so U
        # is that call's optimum bit for bit
        pwl = _build(*self._branching6(cases_dir), "pwl")
        model = pwl.model
        a = model.arrays
        rows = scipy.sparse.csr_array((a.coefs, a.cols, a.row_start), (len(a.rhs), len(a.names)))
        cold = scipy.optimize.milp(
            c=solvers._costs(model),
            constraints=[scipy.optimize.LinearConstraint(rows, a.row_lo, a.row_hi)],
            bounds=scipy.optimize.Bounds(a.lower, a.upper),
        )
        relaxed = ScipyMilpAdapter().relax(model).refine(pwl.isqr)
        assert cold.status == 0 and relaxed.status == "optimal"
        assert model.objective_sense == "max"
        assert relaxed.mip_dual_bound == -cold.fun

    def test_statuses(self, cases_dir):
        # as scipy.optimize.milp gives them for an LP: a time limit is an
        # error, and a model HiGHS will not load (a coefficient of 1e16) is
        # infeasible
        pwl = _build(*self._branching6(cases_dir), "pwl")
        model = pwl.model
        timed_out = ScipyMilpAdapter(time_limit=1e-9).relax(model)
        assert timed_out.solution.status == timed_out.refine(pwl.isqr).status == "error"
        huge = MilpModel(name="huge")
        huge.add_variables(["x"], 0.0, 1.0)
        huge.add_rows([0], [1e16], [0, 1], ["<="], [1.0], ["row"])
        huge.set_objective_columns("max", [0], [1.0])
        huge.freeze()
        assert ScipyMilpAdapter().relax(huge).solution.status == "infeasible"
        unbounded = MilpModel(name="unbounded")
        unbounded.add_variables(["x"], 0.0, math.inf)
        unbounded.set_objective_columns("max", [0], [1.0])
        unbounded.freeze()
        assert ScipyMilpAdapter().relax(unbounded).solution.status == "unbounded"

    def test_unbounded_milp_is_an_error(self):
        # HiGHS ends this MILP kUnboundedOrInfeasible, with no feasible point
        # found, while its relaxation is kUnbounded
        m = MilpModel(name="unbounded_mip")
        m.add_variables(["b"], 0, 1, binary=True)
        m.add_variables(["y"], 0.0, math.inf)
        m.set_objective_columns("max", [1], [1.0])
        m.freeze()
        assert ScipyMilpAdapter().run(m).status == "error"
        assert ScipyMilpAdapter().relax(m).solution.status == "unbounded"

    def test_each_stage_gets_the_time_limit(self, cases_dir, monkeypatch):
        # HiGHS's run clock keeps counting across runs on one object, so
        # stage 2's limit is the time already run plus the adapter's limit
        from scipy.optimize._highspy import _core

        runs = []

        class Spy(_core._Highs):
            def run(self):
                runs.append((self.getRunTime(), self.getOptionValue("time_limit")[1]))
                return super().run()

        monkeypatch.setattr(_core, "_Highs", Spy)
        pwl = _build(*self._branching6(cases_dir), "pwl")
        model = pwl.model
        sol = ScipyMilpAdapter(time_limit=7.5).relax(model).refine(pwl.isqr)
        assert sol.status == "optimal"
        assert len(runs) == 2
        assert runs[1][0] > 0.0
        assert [limit for _, limit in runs] == [elapsed + 7.5 for elapsed, _ in runs]


class TestPwlPath:
    """``solve`` answers the pwl model from its LP relaxation's first stage
    when that point, with its sign binaries set, breaks no row, and solves
    the pwl MILP otherwise; ``--mode both`` refines the same relaxation for
    the sopwl screen."""

    def test_both_signs_fall_to_the_milp(self, cases_dir, monkeypatch):
        case = load_case(cases_dir / "twobus.json")
        pwl = _build(case, RunConfig(case="twobus", num_segments=5), "pwl")
        real_relax = ScipyMilpAdapter.relax

        def both_signs(adapter, model):
            # one block's flow split into pos and neg, both > 0
            relaxation = real_relax(adapter, model)
            x = relaxation.solution.x.copy()
            block = pwl.blocks["P"]
            x[[block.pos[0], block.neg[0]]] += 1e-3
            relaxation.solution = replace(relaxation.solution, x=x)
            return relaxation

        monkeypatch.setattr(ScipyMilpAdapter, "relax", both_signs)
        answers = []
        real_solve = milp.solve

        def solve(model, adapter):
            answers.append((model.name, real_solve(model, adapter)))
            return answers[-1][1]

        monkeypatch.setattr(milp, "solve", solve)
        adapter = ScipyMilpAdapter()
        relaxation = adapter.relax(pwl.model)
        solution = _pwl_answer(pwl, relaxation, adapter)
        ((name, answer),) = answers
        assert name == "twobus_pwl"
        assert solution.x is answer.x
        assert solution.objective_value == answer.objective_value
        assert solution.mip_node_count == answer.mip_node_count
        assert milp.check_solution(pwl.model, solution) == []
        # the relaxation stays at hand for the sopwl screen
        assert relaxation.solution.status == "optimal"

    @pytest.mark.parametrize(
        "case, mode, runs, built, path",
        [
            pytest.param(
                "ieee33_4dg_surplus", "both", 2, ["pwl", "sopwl"], "lp_screen",
                id="ieee33_4dg_surplus-2-lp_screen",
            ),
            pytest.param(
                "ieee33_4dg_surplus", "sopwl", 2, ["pwl", "sopwl"], "lp_screen",
                id="ieee33_4dg_surplus-sopwl-2-lp_screen",
            ),
            pytest.param(
                "ieee33_4dg_surplus", "pwl", 1, ["pwl"], None, id="ieee33_4dg_surplus-pwl-1"
            ),
            pytest.param(
                "ieee33_4dg", "both", 1, ["pwl", "sopwl"], "lifted", id="ieee33_4dg-1-lifted"
            ),
            pytest.param(
                "ieee33_4dg", "sopwl", 2, ["pwl", "sopwl"], "lp_screen",
                id="ieee33_4dg-sopwl-2-lp_screen",
            ),
            pytest.param("ieee33_4dg", "pwl", 1, ["pwl"], None, id="ieee33_4dg-pwl-1"),
        ],
    )
    def test_one_relaxation_per_solve(
        self, tmp_path, monkeypatch, case, mode, runs, built, path
    ):
        # pwl's relaxation is stage 1 of the sopwl screen: the surplus case
        # runs it and stage 2, the headline case under --mode both runs it
        # alone and lifts. Every mode builds pwl, and each model once
        calls = []
        real_run = solvers._HighsSession.run

        def run(session):
            calls.append(session.mip)
            return real_run(session)

        builds = []
        real_build = cli.build_distflow

        def build(model, case, options):
            builds.append(options.mode)
            return real_build(model, case, options)

        monkeypatch.setattr(solvers._HighsSession, "run", run)
        monkeypatch.setattr(cli, "build_distflow", build)
        out = tmp_path / "run"
        args = ["--case", case, "--mode", mode, "--segments", "10", "--out", str(out)]
        assert main(["solve", *args]) == 0
        assert calls == [False] * runs
        assert builds == built
        modes = ["pwl", "sopwl"] if mode == "both" else [mode]
        meta = {m: json.loads((out / m / "run.json").read_text()) for m in modes}
        # a pwl run's run.json has a null sopwl_path
        assert meta[modes[-1]]["sopwl_path"] == path
        if "pwl" in meta:
            assert meta["pwl"]["mip_node_count"] == 0


@st.composite
def _radial_cases(draw):
    """A radial case of 3 to 6 buses whose voltage bounds, impedances and DG
    sizes can keep the LP relaxation from being tight.

    Every load and DG limit is at least 1e-3 pu. With no reactive supply,
    any flow breaks a reactive balance row, and the MILP's row tolerance
    (1e-6, against 1e-7 for an LP) then lets it restore load the LP cannot,
    by more than any fixed slack."""
    n = draw(st.integers(3, 6))
    real = st.floats(0.0, 1.0)
    buses = [{"id": 1}]
    branches, loads = [], []
    for b in range(2, n + 1):
        buses.append(
            {
                "id": b,
                "v_sqr_min": 0.81 + 0.16 * draw(real),
                "v_sqr_max": 1.03 + 0.07 * draw(real),
            }
        )
        branches.append(
            {
                "from": draw(st.integers(1, b - 1)),
                "to": b,
                "r_pu": 0.01 + 0.59 * draw(real),
                "x_pu": 0.01 + 0.59 * draw(real),
                "i_max_amps": 100.0 + 700.0 * draw(real),
            }
        )
        loads.append(
            {"bus": b, "p_pu": 0.001 + 0.119 * draw(real), "q_pu": 0.001 + 0.059 * draw(real)}
        )
    dg_buses = draw(st.lists(st.integers(1, n), min_size=1, max_size=2, unique=True))
    generators = [
        {"bus": b, "p_max_pu": 0.001 + 0.449 * draw(real), "q_max_pu": 0.001 + 0.399 * draw(real)}
        for b in dg_buses
    ]
    doc = {
        "name": "random",
        "bases": {"s_base_mva": 10.0, "v_base_kv": 12.66},
        "buses": buses,
        "branches": branches,
        "loads": loads,
        "generators": generators,
    }
    return load_case(doc), draw(st.integers(2, 6))


# HiGHS left P_3_5_d2 and Q_3_5_d2 5.8e-7 below 0 with every row met; the
# clip into their bounds alone broke eq4:3-5 by 2.05e-6
_DUST_CASE = {
    "name": "random",
    "bases": {"s_base_mva": 10.0, "v_base_kv": 12.66},
    "buses": [
        {"id": 1, "v_sqr_min": 0.81, "v_sqr_max": 1.21},
        {"id": 2, "v_sqr_min": 0.81, "v_sqr_max": 1.03},
        {"id": 3, "v_sqr_min": 0.81, "v_sqr_max": 1.1},
        {"id": 4, "v_sqr_min": 0.81, "v_sqr_max": 1.03},
        {"id": 5, "v_sqr_min": 0.81, "v_sqr_max": 1.03},
    ],
    "branches": [
        {"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.01, "i_max_amps": 100.0},
        {"from": 1, "to": 3, "r_pu": 0.01, "x_pu": 0.6, "i_max_amps": 100.0},
        {"from": 1, "to": 4, "r_pu": 0.01, "x_pu": 0.01, "i_max_amps": 100.0},
        {"from": 3, "to": 5, "r_pu": 0.01, "x_pu": 0.01, "i_max_amps": 800.0},
    ],
    "loads": [
        {"bus": 2, "p_pu": 0.001, "q_pu": 0.06},
        {"bus": 3, "p_pu": 0.001, "q_pu": 0.001},
        {"bus": 4, "p_pu": 0.001, "q_pu": 0.001},
        {"bus": 5, "p_pu": 0.001, "q_pu": 0.001},
    ],
    "generators": [{"bus": 3, "p_max_pu": 0.45, "q_max_pu": 0.4}],
}


@settings(max_examples=25, deadline=None)
@given(_radial_cases())
@example((load_case(_DUST_CASE), 3))
def test_sopwl_path_is_certified(drawn):
    case, segments = drawn
    config = RunConfig(case=case.name, mode="sopwl", num_segments=segments)
    adapter = ScipyMilpAdapter()
    pwl = _build(case, config, "pwl")
    relaxation = adapter.relax(pwl.model)
    bound = relaxation.refine(pwl.isqr)
    artifacts = _build(case, config, "sopwl")
    model = artifacts.model
    reference = milp.solve(model, adapter)
    assert bound.status == reference.status == "optimal"
    # HiGHS's row tolerance lets the MILP exceed the LP bound by a hair
    assert bound.mip_dual_bound >= reference.objective_value - 1e-5

    solution, path = _sopwl_answer(artifacts, pwl, relaxation, adapter)
    assert path in ("lp_screen", "milp")
    if path == "lp_screen":
        slack = 1e-4 * abs(reference.objective_value) + 1e-5
        assert solution.objective_value >= reference.objective_value - slack
    assert milp.check_solution(model, solution) == []
    report = branch_errors(solution, artifacts)
    assert all(r.eso_ok_p and r.eso_ok_q for r in report.records)


@settings(max_examples=25, deadline=None)
@given(_radial_cases())
def test_pwl_path_is_certified(drawn):
    case, segments = drawn
    adapter = ScipyMilpAdapter()
    pwl = _build(case, RunConfig(case=case.name, num_segments=segments), "pwl")
    model = pwl.model
    reference = milp.solve(model, adapter)
    relaxation = adapter.relax(model)
    solution = _pwl_answer(pwl, relaxation, adapter)
    assert reference.status == solution.status == "optimal"
    slack = 1e-4 * abs(reference.objective_value) + 1e-5
    assert abs(solution.objective_value - reference.objective_value) <= slack
    assert milp.check_solution(model, solution) == []
    signed = validation.signed(relaxation.solution, pwl.blocks.values())
    if milp.check_solution(model, signed) == []:
        # certified at the relaxation: its stage-1 point, no MILP node
        assert np.array_equal(solution.x, signed.x)
        assert solution.mip_node_count == 0
        assert solution.mip_dual_bound == relaxation.bound
