import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopwl.distflow import (
    EPSILON_PLUS_WIDTHS,
    BuildOptions,
    build_distflow,
    build_restoration_objective,
)
from sopwl.milp import (
    FEASIBILITY_TOL,
    MilpModel,
    Solution,
    check_solution,
    format_solution,
    parse_solution,
    solve,
)
from sopwl.network import bundled_case_path, load_case
from sopwl.pwl import FillingState, PwlGrid, eso_fill, is_eso, pwl_value
from sopwl.solvers import ScipyMilpAdapter
from sopwl.validation import (
    SWEEP_MAX_ITER,
    SweepDivergence,
    branch_errors,
    check_unordered_feasibility,
    extract_filling,
    filling_dump,
    lift_ordered,
    radial_sweep,
)

GRID = PwlGrid(10.0, 5)


@pytest.fixture()
def twobus(cases_dir):
    return load_case(cases_dir / "twobus.json")


@pytest.fixture()
def solved_twobus(twobus):
    opts = BuildOptions(num_segments=10, mode="sopwl")
    m = MilpModel(name="twobus_v")
    art = build_distflow(m, twobus, opts)
    build_restoration_objective(m, art)
    m.freeze()
    sol = solve(m, ScipyMilpAdapter())
    assert sol.status == "optimal"
    return art, sol


class TestExtractFilling:
    def test_pass_through(self, solved_twobus):
        art, sol = solved_twobus
        x = sol.x.copy()
        hand = [0.0] * 10
        hand[0] = art.seg_width[0, 0]
        x[art.blocks["P"].delta[0]] = hand
        filling = extract_filling(Solution("optimal", 0.0, x), art)["P"]
        assert filling.shape == (1, 10)
        assert filling[0].tolist() == pytest.approx(hand)

    def test_clips_solver_dust(self, solved_twobus):
        # below 0 reads 0; -0.0 is not below 0 and stays as it is
        art, sol = solved_twobus
        x = sol.x.copy()
        x[art.blocks["P"].delta[0]] = [-1e-9] * 9 + [-0.0]
        (deltas,) = extract_filling(Solution("optimal", 0.0, x), art)["P"].tolist()
        assert list(map(repr, deltas)) == ["0.0"] * 9 + ["-0.0"]

    def test_missing_variable(self, solved_twobus):
        # a solution without values, or with the values of another model
        art, sol = solved_twobus
        for x in (np.empty(0), sol.x[:-1]):
            with pytest.raises(ValueError, match="values for a model of"):
                extract_filling(Solution("optimal", 0.0, x), art)


class TestLiftOrdered:
    """Lifting a plain-PWL solution onto the sopwl model of the same case."""

    @pytest.fixture()
    def twobus_pwl(self, twobus, solved_twobus):
        art, _ = solved_twobus
        m = MilpModel(name="twobus_pwl")
        pwl_art = build_distflow(m, twobus, BuildOptions(num_segments=10, mode="pwl"))
        build_restoration_objective(m, pwl_art)
        m.freeze()
        return art, pwl_art, solve(m, ScipyMilpAdapter())

    def _with_p_filling(self, solution, art, deltas):
        x = solution.x.copy()
        x[art.blocks["P"].delta[0]] = deltas
        return Solution("optimal", solution.objective_value, x)

    @pytest.mark.parametrize(
        "head",
        [
            lambda h: [h, h, h / 3, 0.0],
            # each segment off by just under the 1e-6 feasibility tolerance
            lambda h: [h - 9e-7, h, h / 3, 9e-7],
        ],
    )
    def test_ordered_filling_lifts(self, twobus_pwl, head):
        art, pwl_art, sol = twobus_pwl
        h = art.seg_width[0, 0]
        hand = self._with_p_filling(sol, pwl_art, head(h) + [0.0] * 6)
        lifted = lift_ordered(hand, art)
        assert len(lifted.x) == art.model.num_variables
        assert lifted.objective_value == hand.objective_value
        assert lifted.x[art.blocks["P"].x[0]].tolist() == [1.0, 1.0] + [0.0] * 7
        # every other column holds the pwl value of the same variable
        kept = np.delete(np.arange(len(lifted.x)), art.ordering)
        assert lifted.x[kept].tolist() == hand.x.tolist()
        assert not [tag for tag, _ in check_solution(art.model, lifted)
                    if tag.startswith(("eq20", "eq21"))]

    def test_solved_pwl_lifts_clean(self, twobus_pwl):
        art, _, sol = twobus_pwl
        lifted = lift_ordered(sol, art)
        assert check_solution(art.model, lifted) == []

    def test_unordered_filling_is_not_lifted(self, twobus_pwl):
        art, pwl_art, sol = twobus_pwl
        h = art.seg_width[0, 0]
        hand = self._with_p_filling(sol, pwl_art, [h / 2, h] + [0.0] * 8)
        assert lift_ordered(hand, art) is None

    def test_non_optimal_is_not_lifted(self, twobus_pwl):
        art, _, sol = twobus_pwl
        feasible = Solution("feasible", sol.objective_value, sol.x)
        assert lift_ordered(feasible, art) is None


class TestBranchErrors:
    def test_solved_case_is_ordered(self, solved_twobus):
        art, sol = solved_twobus
        report = branch_errors(sol, art)
        assert all(r.eso_ok_p and r.eso_ok_q for r in report.records)

    def test_unordered_hand_filling(self):
        # f([1,2,2,0,0]) = 34 against y^2 = 25 -> 36 %
        state = FillingState(grid=GRID, deltas=(1, 2, 2, 0, 0))
        from sopwl.pwl import pwl_value, relative_error

        assert relative_error(pwl_value(state), 5.0) == pytest.approx(36.0)

    def test_negligible_flow_excluded(self, solved_twobus):
        art, sol = solved_twobus
        report = branch_errors(sol, art, zero_flow_floor=1.0)
        assert all(r.e_p is None and r.e_q is None for r in report.records)
        assert report.max_e_p == 0.0

    def test_default_floor_is_per_branch(self, twobus):
        # from seg_width * sqrt(12.5) on an ordered filling's relative error
        # is at most 2 %; below that the flow is not reported
        m = MilpModel()
        art = build_distflow(m, twobus, BuildOptions(num_segments=10))
        grid = PwlGrid(twobus.branches[0].i_max_amps / twobus.i_base_amps, 10)
        assert art.seg_width.tolist() == [[grid.seg_width]]
        p_block = art.blocks["P"]
        for widths, reported in ((3.5, False), (3.6, True)):
            y = widths * grid.seg_width
            x = np.zeros(m.num_variables)
            x[p_block.y[0]] = y
            x[p_block.delta[0]] = eso_fill(grid, y).deltas
            report = branch_errors(Solution("optimal", 0.0, x), art)
            (record,) = report.records
            assert (record.e_p is None) is not reported and record.e_q is None
            if reported:
                assert 0.0 < record.e_p <= 2.0

    def test_report_determinism(self, solved_twobus):
        art, sol = solved_twobus
        a = branch_errors(sol, art)
        b = branch_errors(sol, art)
        assert a.to_delimited() == b.to_delimited()
        assert a.to_table() == b.to_table()

    def test_filling_dump(self, solved_twobus):
        art, sol = solved_twobus
        dump = filling_dump(sol, art)
        # one line per branch, kind, and segment plus the header
        assert len(dump.strip().splitlines()) == 1 + 1 * 2 * 10


class TestGoldenPostSolve:
    """The post-solve text of ``solve --mode both`` on ``branching6`` at 3
    segments, rebuilt from its solution files alone: no solver runs. The
    delimited report is taken at a 1e-9 pu floor so that it holds numbers."""

    @pytest.mark.parametrize("mode", ["pwl", "sopwl"])
    def test_reproduced_byte_for_byte(self, cases_dir, golden_dir, mode):
        case = load_case(cases_dir / "branching6.json")
        model = MilpModel(name=f"branching6_{mode}")
        art = build_distflow(model, case, BuildOptions(num_segments=3, mode=mode))
        build_restoration_objective(model, art)
        model.freeze()

        def golden(suffix):
            return (golden_dir / f"branching6_{mode}{suffix}").read_bytes()

        sol = parse_solution(golden(".sol").decode(), model)
        assert format_solution(sol, model).encode() == golden(".sol")
        assert branch_errors(sol, art).to_table().encode() == golden("_report.txt")
        floored = branch_errors(sol, art, zero_flow_floor=1e-9)
        assert floored.to_delimited().encode() == golden("_report_floor1e-9.csv")
        assert filling_dump(sol, art).encode() == golden("_fillings.txt")


@functools.lru_cache(maxsize=None)
def _branching6(segments: int):
    """The pwl and sopwl artifacts of ``branching6``: five branches of
    different segment widths."""
    case = load_case(Path(__file__).parent / "cases" / "branching6.json")
    built = []
    for mode in ("pwl", "sopwl"):
        model = MilpModel(name=f"branching6_{mode}")
        built.append(build_distflow(model, case, BuildOptions(num_segments=segments, mode=mode)))
        model.freeze()
    return tuple(built)


def _grids(artifacts):
    """Each branch's grid, on its ``P_`` variable's bound in the built model:
    a reference that does not read the build's own width column."""
    upper = artifacts.model.arrays.upper[artifacts.blocks["P"].y[:, 0]]
    return [PwlGrid(y_max, artifacts.options.num_segments) for y_max in upper.tolist()]


def _eso_tol(grid):
    """The tolerance of ``branch_errors``' ordered test on ``grid``."""
    return EPSILON_PLUS_WIDTHS * grid.seg_width + FEASIBILITY_TOL


def _cells(h: float, tol: float):
    """Strategies of a full, an empty and any segment value: values at and
    next to the thresholds of both ordered-filling tests (``tol`` and
    ``FEASIBILITY_TOL``), with solver dust on either side of ``[0, h]``."""

    def near(values, low, high):
        values += [np.nextafter(v, s) for v in values for s in (-np.inf, np.inf)]
        return st.sampled_from(values) | st.floats(low, high)

    full = near([h - FEASIBILITY_TOL, h - tol, h, h + 1e-9], h - 2e-6, h + 2e-6)
    empty = near([0.0, -0.0, -1e-9, FEASIBILITY_TOL, tol], -2e-6, 2e-6)
    return full, empty, full | empty | st.floats(-2e-6, h + 2e-6)


@st.composite
def _fillings(draw):
    """Segment values of every block of ``branching6`` on 1-5 segments; about
    half the blocks are filled full, then partial, then empty, up to dust."""
    pwl, _ = _branching6(draw(st.integers(1, 5)))
    n = pwl.options.num_segments
    fillings = {}
    for kind in ("P", "Q"):
        rows = []
        for grid in _grids(pwl):
            full, empty, cell = _cells(grid.seg_width, _eso_tol(grid))
            if draw(st.booleans()):
                k = draw(st.integers(0, n))
                row = [draw(full) for _ in range(k)] + [draw(cell) for _ in range(min(1, n - k))]
                row += [draw(empty) for _ in range(n - len(row))]
            else:
                row = [draw(cell) for _ in range(n)]
            rows.append(row)
        fillings[kind] = rows
    return n, fillings


class TestArrayPostSolve:
    """The array post-solve agrees with the scalar reference of ``pwl.py``,
    block by block: the ordered-filling verdicts of ``lift_ordered`` and
    ``branch_errors`` (``is_eso`` at their tolerances), the lifted ordering
    binaries, and the PWL value to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(_fillings())
    def test_matches_scalar_reference(self, drawn):
        n, fillings = drawn
        pwl, sopwl = _branching6(n)
        x = np.zeros(pwl.model.num_variables)
        for kind, rows in fillings.items():
            x[pwl.blocks[kind].delta] = rows
        solution = Solution("optimal", 0.0, x)
        clipped = extract_filling(solution, pwl)
        report = branch_errors(solution, pwl)
        lifted = lift_ordered(solution, sopwl)
        all_ordered = True
        for kind in ("P", "Q"):
            for i, grid in enumerate(_grids(pwl)):
                state = FillingState(grid, clipped[kind][i].tolist())
                record = report.records[i]
                ok = record.eso_ok_p if kind == "P" else record.eso_ok_q
                assert ok == is_eso(state, _eso_tol(grid))
                f = record.f_p if kind == "P" else record.f_q
                assert repr(f) == repr(pwl_value(state))
                ordered = is_eso(state, FEASIBILITY_TOL)
                all_ordered = all_ordered and ordered
                if lifted is not None:
                    last = max(
                        (lam for lam, d in enumerate(state.deltas, 1) if d > FEASIBILITY_TOL),
                        default=1,
                    )
                    expected = [1.0 if lam < last else 0.0 for lam in range(1, n)]
                    assert lifted.x[sopwl.blocks[kind].x[i]].tolist() == expected
        assert (lifted is not None) == all_ordered


class TestUnorderedFeasibility:
    def test_unordered_witness(self):
        state = FillingState(grid=GRID, deltas=(1, 2, 2, 0, 0))
        assert check_unordered_feasibility(state) == (True, False)

    def test_ordered_state(self):
        assert check_unordered_feasibility(eso_fill(GRID, 5.0)) == (True, True)

    def test_empty_state(self):
        assert check_unordered_feasibility(eso_fill(GRID, 0.0)) == (True, True)

    def test_grid_sweep(self):
        # ordered fillings pass both modes for every grid-aligned total
        for y in [0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0]:
            assert check_unordered_feasibility(eso_fill(GRID, y)) == (True, True)


class TestRadialSweep:
    def test_flat(self, twobus):
        res = radial_sweep(twobus, {})
        assert res.iterations == 1
        assert res.voltages[1] == 1.0
        assert res.voltages[2] == 1.0
        assert res.branch_flows["1-2"] == (0.0, 0.0)
        assert res.root_injection == (0.0, 0.0)

    def test_twobus_hand_computed(self, twobus):
        # independent oracle: closed-form quadratic for |V2|^2 from the exact
        # two-bus branch-flow equation, frozen values
        res = radial_sweep(twobus, {2: (-0.01, -0.005)})
        assert res.voltages[2] == pytest.approx(0.9998499762426847, abs=1e-8)
        p, q = res.branch_flows["1-2"]
        assert p == pytest.approx(0.010001250375143812, abs=1e-8)
        assert q == pytest.approx(0.005001250375143812, abs=1e-8)
        rp, rq = res.root_injection
        assert rp == pytest.approx(p, abs=1e-12)
        assert rq == pytest.approx(q, abs=1e-12)

    def test_branching_frozen(self, cases_dir, golden_dir):
        # full pickup, DG at nameplate; the sweep must walk the branches
        # parents first although the file lists them otherwise
        case = load_case(cases_dir / "branching6.json")
        injections = {load.bus: (-load.p_pu, -load.q_pu) for load in case.loads}
        for gen in case.generators:
            p, q = injections[gen.bus]
            injections[gen.bus] = (p + gen.p_max_pu, q + gen.q_max_pu)
        res = radial_sweep(case, injections)
        frozen = json.loads((golden_dir / "branching6_sweep.json").read_text())
        assert res.iterations == frozen["iterations"]
        assert res.voltages == {int(b): v for b, v in frozen["voltages"].items()}
        assert res.branch_flows == {k: tuple(v) for k, v in frozen["branch_flows"].items()}
        assert res.root_injection == tuple(frozen["root_injection"])

    def test_divergence_reported(self, twobus):
        with pytest.raises(SweepDivergence) as err:
            radial_sweep(twobus, {2: (-45.0, -45.0)})
        assert len(err.value.trace) == SWEEP_MAX_ITER

    @staticmethod
    def _digest(values: dict) -> str:
        """sha256 of the sorted ``repr`` of every item."""
        return hashlib.sha256("\n".join(sorted(map(repr, values.items()))).encode()).hexdigest()

    # the sweep at full pickup and nameplate DG output, pinned bit for bit
    # before it moved from dicts keyed by bus and branch to positions:
    # iterations, root injection, and the digests of voltages and flows
    PINNED = {
        "feeder400": (
            4,
            (0.03957922463190183, 0.008765593324518399),
            "479a64f5321d7df588f50852a1df89db7bcc5de5cd1fb3109b9ba6adcb1d11c8",
            "721ee5a933241f60a9175cc7c0317a16c201ec172bebd2b7ceb04bb7a47fa7ef",
        ),
        "ieee33_4dg": (
            6,
            (0.17968846116349946, 0.11581100374736458),
            "67bf229275013add51ce69037043d4c800acbcd5e2eee030a48671eea0136c90",
            "13111b4478fd2c58a3e58813f27c3b29642c38e95ce226f5ae67a44cbde645d1",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned(self, name, cases_dir):
        path = cases_dir / f"{name}.json"
        case = load_case(path if path.exists() else bundled_case_path(name))
        injections = {}
        for load in case.loads:
            p, q = injections.get(load.bus, (0.0, 0.0))
            injections[load.bus] = (p - load.p_pu, q - load.q_pu)
        for gen in case.generators:
            p, q = injections.get(gen.bus, (0.0, 0.0))
            injections[gen.bus] = (p + gen.p_max_pu, q + gen.q_max_pu)
        res = radial_sweep(case, injections)
        assert (
            res.iterations,
            res.root_injection,
            self._digest(res.voltages),
            self._digest(res.branch_flows),
        ) == self.PINNED[name]

    def test_divergence_trace_pinned(self, tmp_path):
        # the case of test_cli's test_diverging_sweep_is_one_line: a full
        # 1 + 1j pu load behind a 1 + 1j pu branch
        case = {
            "name": "diverge",
            "bases": {"s_base_mva": 10.0, "v_base_kv": 12.66},
            "buses": [{"id": 1}, {"id": 2}],
            "branches": [{"from": 1, "to": 2, "r_pu": 1.0, "x_pu": 1.0, "i_max_amps": 50.0}],
            "loads": [{"bus": 2, "p_pu": 1.0, "q_pu": 1.0}],
            "generators": [],
        }
        (tmp_path / "diverge.json").write_text(json.dumps(case))
        with pytest.raises(SweepDivergence) as err:
            radial_sweep(load_case(tmp_path / "diverge.json"), {2: (-1.0, -1.0)})
        trace = err.value.trace
        assert len(trace) == SWEEP_MAX_ITER
        assert trace[:3] == [2.0, 4.0, 2.6666666666666665]
        assert hashlib.sha256(repr(trace).encode()).hexdigest() == (
            "751777eb503d2610e91ad1fa6773948f07904c4778313d8c020b0afb2244c48e"
        )
