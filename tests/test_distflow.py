import dataclasses
import math

import numpy as np
import pytest

from sopwl.distflow import (
    EPSILON_PLUS_WIDTHS,
    BuildOptions,
    build_distflow,
    build_restoration_objective,
    emit_pwl_block,
)
from sopwl.milp import _LP_NAME_RE, MilpModel, check_solution, solve, write_lp
from sopwl.network import bundled_case_path, load_case
from sopwl.pwl import PwlGrid
from sopwl.solvers import ScipyMilpAdapter


@pytest.fixture(scope="module")
def ieee33():
    return load_case(bundled_case_path("ieee33_4dg"))


@pytest.fixture()
def twobus(cases_dir):
    return load_case(cases_dir / "twobus.json")


def _first_branch(case, segments):
    """The first branch's ``P_`` and ``Q_`` variables and its ``P`` block's
    first segment in the built model, and the build's segment width of the
    branch."""
    m = MilpModel()
    art = build_distflow(m, case, BuildOptions(num_segments=segments))
    key = case.branches[0].key.replace("-", "_")
    p, q, d1 = (m.variable(name) for name in (f"P_{key}", f"Q_{key}", f"P_{key}_d1"))
    return p, q, d1, art.seg_width[0, 0]


class TestFlowBound:
    def test_unit_conversion(self, ieee33):
        p, q, d1, h = _first_branch(ieee33, 50)
        # 50 A on a 456.1 A base at nominal voltage
        assert p.upper == pytest.approx(0.1096, abs=2e-4)
        assert (p.lower, q.lower, q.upper) == (-p.upper, -p.upper, p.upper)
        assert d1.upper == p.upper / 50 == h

    def test_unity(self, ieee33):
        br = ieee33.branches[0]
        scaled = dataclasses.replace(br, i_max_amps=ieee33.i_base_amps)
        case = dataclasses.replace(ieee33, branches=(scaled, *ieee33.branches[1:]))
        p, q, d1, h = _first_branch(case, 10)
        assert p.upper == pytest.approx(1.0)
        assert (p.lower, q.lower, q.upper) == (-p.upper, -p.upper, p.upper)
        assert d1.upper == p.upper / 10 == h


class TestEmitBlock:
    def _base_model(self, grid):
        m = MilpModel()
        (y,) = m.add_variables(["y"], -grid.y_max, grid.y_max)
        return m, y

    def test_plain_counts(self):
        grid = PwlGrid(1.0, 50)
        m, y = self._base_model(grid)
        block = emit_pwl_block(m, y, grid, "pwl")
        # 50 segments + 2 sign vars + flow var itself
        assert len(m.variables) == 1 + 50 + 2 + 2
        assert sum(1 for v in m.variables if v.kind == "binary") == 2
        assert len(m.constraints) == 5  # sign split, total, two links, pair cap
        assert block.y.tolist() == [[y]]
        assert block.delta.shape == (1, 50)
        assert block.x.shape == (1, 0)

    def test_ordered_counts(self):
        grid = PwlGrid(1.0, 50)
        m, y = self._base_model(grid)
        block = emit_pwl_block(m, y, grid, "sopwl")
        # one ordering binary per segment boundary, each in one eq20 and one
        # eq21 row
        assert sum(1 for v in m.variables if v.kind == "binary") == 2 + 49
        assert len(m.constraints_by_tag("eq20")) == 49
        assert len(m.constraints_by_tag("eq21")) == 49
        assert [m.variables[j].kind for j in block.x[0]] == ["binary"] * 49

    def test_single_segment(self):
        grid = PwlGrid(1.0, 1)
        m, y = self._base_model(grid)
        block = emit_pwl_block(m, y, grid, "sopwl")
        # the one segment spans the whole range
        (delta,) = block.delta[0]
        assert m.variables[delta].upper == pytest.approx(1.0)
        # no segment boundary: no ordering binary and no ordering row
        assert block.x.shape == (1, 0)
        assert len(m.constraints_by_tag("eq20")) == 0
        assert len(m.constraints_by_tag("eq21")) == 0

    def test_frozen_model_rejected(self):
        grid = PwlGrid(1.0, 5)
        m, y = self._base_model(grid)
        m.freeze()
        with pytest.raises(Exception):
            emit_pwl_block(m, y, grid, "pwl")

    def test_segment_bounds(self):
        grid = PwlGrid(1.0, 4)
        m, y = self._base_model(grid)
        block = emit_pwl_block(m, y, grid, "pwl")
        for j in block.delta[0]:
            v = m.variables[j]
            assert v.lower == 0.0
            assert v.upper == pytest.approx(grid.seg_width)


class TestBuildDistflow:
    def test_ieee33_block_counts(self, ieee33):
        opts = BuildOptions(num_segments=50, mode="pwl")
        m = MilpModel()
        art = build_distflow(m, ieee33, opts)
        assert {kind: block.delta.shape for kind, block in art.blocks.items()} == {
            "P": (32, 50),
            "Q": (32, 50),
        }
        deltas = [v for v in m.variables if "_d" in v.name]
        assert len(deltas) == 3200
        columns = np.concatenate([block.delta.ravel() for block in art.blocks.values()])
        assert sorted(columns.tolist()) == [v.index for v in deltas]

    def test_empty_network_feasible(self, cases_dir):
        case = load_case(cases_dir / "empty2bus.json")
        opts = BuildOptions(num_segments=5, mode="pwl")
        m = MilpModel(name="empty")
        art = build_distflow(m, case, opts)
        build_restoration_objective(m, art)
        m.freeze()
        sol = solve(m, ScipyMilpAdapter())
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)
        (_, v2) = sol.x[art.voltage]
        assert v2 == pytest.approx(1.0, abs=1e-6)

    def test_twobus_balance_by_hand(self, twobus):
        opts = BuildOptions(num_segments=5, mode="pwl")
        m = MilpModel()
        art = build_distflow(m, twobus, opts)
        (bal,) = m.constraints_by_tag("balanceP_2")
        terms = {m.variable(name).index: c for name, c in bal.terms}
        assert terms == {
            art.blocks["P"].y[0, 0]: 1.0,
            art.isqr[0]: pytest.approx(-0.01),
            art.pickup[0]: pytest.approx(-0.01),
            art.gen[0, 0]: 1.0,
        }
        assert bal.rhs == 0.0

    @pytest.mark.parametrize("mode", ["pwl", "sopwl"])
    def test_tags_are_the_lp_row_names(self, twobus, mode):
        m = MilpModel()
        build_distflow(m, twobus, BuildOptions(num_segments=3, mode=mode))
        (y,) = m.add_variables(["y"], -1.0, 1.0)
        emit_pwl_block(m, y, PwlGrid(1.0, 3), mode)
        tags = [c.tag for c in m.constraints]
        assert all(map(_LP_NAME_RE.fullmatch, tags))
        assert len(set(tags)) == len(tags)
        rows = write_lp(m.freeze()).split("Subject To\n")[1].split("\nBounds")[0]
        assert [ln.split(": ")[0].strip() for ln in rows.splitlines()] == tags

    def test_twobus_full_restoration(self, twobus):
        # local generation covers the local load: every pickup hits 1
        opts = BuildOptions(num_segments=10, mode="sopwl")
        m = MilpModel(name="twobus")
        art = build_distflow(m, twobus, opts)
        build_restoration_objective(m, art)
        m.freeze()
        sol = solve(m, ScipyMilpAdapter())
        assert sol.status == "optimal"
        (beta,) = sol.x[art.pickup]
        assert beta == pytest.approx(1.0, abs=1e-6)
        assert check_solution(m, sol) == []

    def test_model_calls_do_not_grow_with_branches(self, ieee33, twobus, monkeypatch):
        # every branch comes from one template, so the same bulk calls build
        # 1 branch or 32; the one-item calls go through them too
        calls = []

        def counted(method):
            real = getattr(MilpModel, method)

            def call(self, *args, **kwargs):
                calls.append(method)
                return real(self, *args, **kwargs)

            return call

        for method in ("add_variables", "add_rows"):
            monkeypatch.setattr(MilpModel, method, counted(method))
        counts = []
        for case in (twobus, ieee33):
            calls.clear()
            build_distflow(MilpModel(), case, BuildOptions(num_segments=5, mode="sopwl"))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 8

    def test_restored_load_capped_by_generation(self, ieee33):
        opts = BuildOptions(num_segments=10, mode="pwl")
        m = MilpModel(name="cap")
        art = build_distflow(m, ieee33, opts)
        build_restoration_objective(m, art)
        m.freeze()
        sol = solve(m, ScipyMilpAdapter())
        assert sol.status == "optimal"
        assert sol.objective_value <= 4 * 0.05 + 1e-6


@pytest.mark.parametrize("segments", [1, 3, 10])
@pytest.mark.parametrize("name", ["twobus", "branching6", "feeder400"])
def test_sopwl_columns_are_pwl_columns_plus_ordering_binaries(cases_dir, name, segments):
    # validation.lift_ordered copies a pwl vector into the sopwl columns that
    # are not ordering binaries: those must be the pwl model's, in order
    case = load_case(cases_dir / f"{name}.json")
    keys = [br.key.replace("-", "_") for br in case.branches]
    arrays, ordering = {}, {}
    for mode in ("pwl", "sopwl"):
        m = MilpModel()
        art = build_distflow(m, case, BuildOptions(num_segments=segments, mode=mode))
        build_restoration_objective(m, art)
        arrays[mode] = m.freeze().arrays
        ordering[mode] = art.ordering
        # the post-solve code reads each branch's width from the build: it is
        # the bound of both first segments and sets every eq20 row's margin,
        # bit for bit (branching6's branches have three different widths)
        h = art.seg_width[:, 0].tolist()
        for kind in ("P", "Q"):
            assert [m.variable(f"{kind}_{key}_d1").upper for key in keys] == h
        margins = {
            f"eq20_{key}_{kind}_l{lam}": -EPSILON_PLUS_WIDTHS * width
            for key, width in zip(keys, h)
            for kind in ("P", "Q")
            for lam in range(1, segments)
        }
        eq20 = {row.tag: row.rhs for row in m.constraints_by_tag("eq20")}
        assert eq20 == (margins if mode == "sopwl" else {})
    pwl, sopwl = arrays["pwl"], arrays["sopwl"]
    assert len(ordering["pwl"]) == 0
    ordering = ordering["sopwl"]
    assert len(ordering) == 2 * len(case.branches) * (segments - 1)
    assert ordering.tolist() == sorted(ordering.tolist())
    assert sopwl.binary[ordering].all()
    kept = np.delete(np.arange(len(sopwl.names)), ordering)
    assert [sopwl.names[j] for j in kept] == list(pwl.names)
    assert sopwl.lower[kept].tolist() == pwl.lower.tolist()
    assert sopwl.upper[kept].tolist() == pwl.upper.tolist()
    assert sopwl.binary[kept].tolist() == pwl.binary.tolist()
    # the same objective, term for term
    assert sopwl.obj_cols.tolist() == kept[pwl.obj_cols].tolist()
    assert sopwl.obj_coefs.tolist() == pwl.obj_coefs.tolist()
    if segments == 1:
        # no segment boundary, so no ordering binary: sopwl is the pwl model
        for field in dataclasses.fields(pwl):
            assert np.array_equal(getattr(sopwl, field.name), getattr(pwl, field.name))


class TestLossPenaltyObjective:
    def test_terms_include_losses(self, twobus):
        opts = BuildOptions(
            num_segments=5, mode="pwl", objective="restoration_with_loss_penalty"
        )
        m = MilpModel()
        art = build_distflow(m, twobus, opts)
        build_restoration_objective(m, art)
        terms = {m.variable(name).index: c for name, c in m.objective_terms}
        # each branch's loss r * Isqr at weight 1
        assert terms[art.isqr[0]] == -twobus.branches[0].r_pu == pytest.approx(-0.01)
        assert m.objective_sense == "max"
