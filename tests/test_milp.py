import gc
import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from sopwl.distflow import BuildOptions, build_distflow, build_restoration_objective
from sopwl.milp import (
    BINARY,
    CONTINUOUS,
    LP_CHUNK_ROWS,
    LinearConstraint,
    MilpModel,
    ModelFrozenError,
    STATUS_TOKENS,
    Solution,
    Variable,
    check_solution,
    format_solution,
    lp_chunks,
    parse_solution,
    solve,
    write_lp,
)
from sopwl import milp, solvers
from sopwl.cli import RunConfig, _build
from sopwl.network import bundled_case_path, load_case
from sopwl.solvers import ScipyMilpAdapter

from helpers import columns


def simple_model():
    m = MilpModel(name="simple")
    m.add_variables(["x"], 0.0, 1.0, binary=True)
    m.add_rows([0], [1.0], [0, 1], ["<="], [1.0], ["cap"])
    m.set_objective_columns("max", [0], [1.0])
    return m


class TestBuild:
    def test_basic(self):
        m = simple_model()
        assert len(m.variables) == 1
        assert [c.tag for c in m.constraints] == ["cap"]

    def test_empty_model_valid(self):
        m = MilpModel()
        m.freeze()
        assert m.variables == ()

    def test_duplicate_name(self):
        m = MilpModel()
        m.add_variables(["x"])
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variables(["x"])

    def test_dangling_reference(self):
        m = MilpModel()
        with pytest.raises(ValueError, match="undeclared"):
            m.add_rows([0], [1.0], [0, 1], ["<="], [1.0], ["t"])

    def test_invalid_bounds(self):
        m = MilpModel()
        with pytest.raises(ValueError):
            m.add_variables(["x"], lower=2.0, upper=1.0)
        with pytest.raises(ValueError):
            m.add_variables(["z"], lower=0.0, upper=2.0, binary=True)

    def test_duplicate_term(self):
        m = MilpModel()
        m.add_variables(["x"])
        with pytest.raises(ValueError, match="duplicate"):
            m.add_rows([0, 0], [1.0, 2.0], [0, 2], ["<="], [1.0], ["t"])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient(self, bad):
        m = MilpModel()
        m.add_variables(["x"])
        with pytest.raises(ValueError, match="t: non-finite coefficient on x"):
            m.add_rows([0], [bad], [0, 1], ["<="], [1.0], ["t"])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rhs(self, bad):
        m = MilpModel()
        m.add_variables(["x"])
        with pytest.raises(ValueError, match="t: non-finite right-hand side"):
            m.add_rows([0], [1.0], [0, 1], ["<="], [bad], ["t"])

    def test_unknown_sense(self):
        m = MilpModel()
        m.add_variables(["x"])
        with pytest.raises(ValueError, match="unknown sense '<'"):
            m.add_rows([0], [1.0], [0, 1], ["<"], [1.0], ["t"])

    def test_rejected_row_leaves_no_trace(self):
        m = MilpModel()
        m.add_variables(["x"])
        with pytest.raises(ValueError, match="undeclared"):
            m.add_rows([0, 1], [1.0, 1.0], [0, 2], ["<="], [1.0], ["t"])
        m.add_rows([0], [2.0], [0, 1], [">="], [0.0], ["ok"])
        m.freeze()
        assert m.constraints == (LinearConstraint((("x", 2.0),), ">=", 0.0, "ok"),)
        assert m.arrays.sizes() == {"vars": 1, "rows": 1, "nnz": 1, "binaries": 0}

    def test_lookup_by_name_after_a_later_declaration(self):
        m = MilpModel()
        m.add_variables(["a", "b"], 0.0, 1.0)
        assert columns(m, "b") == [1]  # the first lookup by name
        m.add_variables(["c"], 0.0, 2.0)
        assert columns(m, "c") == [2]
        assert m.variables[2] == Variable("c", 0.0, 2.0, CONTINUOUS, 2)
        m.add_rows(columns(m, "c", "a"), [1.0, 1.0], [0, 2], ["<="], [1.0], ["r"])
        assert m.constraints[0].terms == (("c", 1.0), ("a", 1.0))
        m.add_variables(["d"], 0.0, 5.0)
        m.freeze()
        solution = parse_solution("optimal\nobj 0\nd 3\nc 0.5\n", m)
        assert solution.x.tolist() == [0.0, 0.0, 0.5, 3.0]

    def test_duplicate_after_lookup_by_name(self):
        m = MilpModel()
        m.add_variables(["a", "b"])
        columns(m, "a")  # the first lookup by name
        with pytest.raises(ValueError, match="duplicate variable name 'a'"):
            m.add_variables(["e", "a"])
        with pytest.raises(ValueError, match="duplicate variable name 'e'"):
            m.add_variables(["e", "e"])
        with pytest.raises(KeyError):
            columns(m, "e")  # the rejected calls declared nothing
        m.add_variables(["e"])
        assert columns(m, "e") == [2]

    def test_duplicate_across_calls_then_declared_again(self):
        m = MilpModel()
        m.add_variables(["x", "y"])
        with pytest.raises(ValueError, match="^duplicate variable name 'y'$"):
            m.add_variables(["z", "y"])
        with pytest.raises(ValueError, match="^w: lower bound 2.0 > upper 1.0$"):
            m.add_variables(["w"], lower=2.0, upper=1.0)
        # the rejected calls declared nothing, so their names are still free
        assert m.add_variables(["z", "w"]) == range(2, 4)
        with pytest.raises(ValueError, match="^duplicate variable name 'w'$"):
            m.add_variables(["w"])

    def test_names_that_share_a_hash_are_distinct(self):
        class SameHash(str):
            def __hash__(self):
                return 7

        m = MilpModel()
        m.add_variables([SameHash("a"), SameHash("b")])
        m.add_variables([SameHash("c"), "d"])
        with pytest.raises(ValueError, match="^duplicate variable name 'b'$"):
            m.add_variables([SameHash("e"), SameHash("b")])
        with pytest.raises(ValueError, match="^duplicate variable name 'e'$"):
            m.add_variables([SameHash("e"), SameHash("e")])
        assert m.add_variables([SameHash("e")]) == range(4, 5)
        assert [v.name for v in m.freeze().variables] == ["a", "b", "c", "d", "e"]

    def test_add_rows_keeps_an_array_of_its_dtype(self):
        m = MilpModel()
        m.add_variables(["x", "y"])
        cols = np.array([0, 1], dtype=np.intp)
        coefs = np.array([1.0, 2.0])
        rhs = np.array([3.0])
        m.add_rows(cols, coefs, [0, 2], ["<="], rhs, ["r"])
        kept_cols, kept_coefs, _, _, kept_rhs = m._row_parts[-1]
        assert np.shares_memory(kept_cols, cols)
        assert np.shares_memory(kept_coefs, coefs)
        assert np.shares_memory(kept_rhs, rhs)

    @pytest.mark.parametrize("col", [2, -1])
    def test_objective_column_outside_the_model(self, col):
        m = MilpModel()
        m.add_variables(["x", "y"], 0.0, 1.0)
        m.set_objective_columns("max", [1], [2.0])
        message = f"^objective: reference to undeclared variable column {col}$"
        with pytest.raises(ValueError, match=message):
            m.set_objective_columns("min", [0, col], [1.0, 1.0])
        # the rejected call left the objective as it was
        assert write_lp(m.freeze()).splitlines()[1:3] == ["Maximize", " obj: 2 y"]

    def test_frozen_is_immutable(self):
        m = simple_model()
        m.freeze()
        with pytest.raises(ModelFrozenError):
            m.add_variables(["y"])
        with pytest.raises(ModelFrozenError):
            m.add_rows([0], [1.0], [0, 1], ["<="], [2.0], ["t"])


class TestViews:
    @pytest.mark.parametrize("mode", ["pwl", "sopwl"])
    def test_views_count_the_model_sizes(self, mode):
        # perfbench/run.py:model_sizes counts the benchmark's model sizes
        # from these views, in these four ways
        case = load_case(bundled_case_path("ieee33_4dg"))
        m = MilpModel(name=f"{case.name}_{mode}")
        art = build_distflow(m, case, BuildOptions(num_segments=3, mode=mode))
        build_restoration_objective(m, art)
        sizes = m.freeze().arrays.sizes()
        assert sizes == {
            "vars": len(m.variables),
            "rows": len(m.constraints),
            "nnz": sum(len(c.terms) for c in m.constraints),
            "binaries": sum(1 for v in m.variables if v.kind == BINARY),
        }
        # a sign pair per P and Q block, and in sopwl an ordering binary per
        # segment boundary
        per_block = 2 if mode == "pwl" else 2 + (3 - 1)
        assert sizes["binaries"] == 2 * len(case.branches) * per_block


def _three_variables():
    m = MilpModel(name="bulk")
    m.add_variables(["a", "b", "c"], lower=[0.0, -1.0, 0.0], upper=1.0, binary=[False, False, True])
    return m


def _ok_and_bad(m, cols, coefs=(1.0, 1.0), start=(0, 1, 2), senses=("<=", "="), rhs=(0.0, 0.0)):
    """Two rows tagged "ok" and "bad"."""
    return m.add_rows(cols, coefs, start, senses, rhs, ["ok", "bad"])


class TestBulk:
    def test_same_model_as_one_item_calls(self):
        bulk = _three_variables()
        bulk.add_rows(
            [0, 1, 2, 1], [1.0, -2.0, 1.0, 3.0], [0, 2, 2, 4], ["<=", "=", ">="], [1.0, 0.0, -1.0],
            ["r0", "r1", "r2"],
        )
        # the same variables and rows, one per call
        one = MilpModel(name="bulk")
        one.add_variables(["a"], 0.0, 1.0)
        one.add_variables(["b"], -1.0, 1.0)
        one.add_variables(["c"], 0.0, 1.0, binary=True)
        one.add_rows([0, 1], [1.0, -2.0], [0, 2], ["<="], [1.0], ["r0"])
        one.add_rows([], [], [0, 0], ["="], [0.0], ["r1"])
        one.add_rows([2, 1], [1.0, 3.0], [0, 2], [">="], [-1.0], ["r2"])
        assert bulk.variables == one.variables
        assert bulk.constraints == one.constraints
        text = write_lp(bulk.freeze())
        assert text == write_lp(one.freeze())
        rows = text.split("Subject To\n")[1].split("Bounds")[0]
        assert rows == " r0: 1 a - 2 b <= 1\n r1: 0 __dummy__ = 0\n r2: 1 c + 3 b >= -1\n"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda m: m.add_variables(["d", "a"]), "duplicate variable name 'a'"),
            (lambda m: m.add_variables(["d", "e", "d"]), "duplicate variable name 'd'"),
            (
                lambda m: m.add_variables(["d", "e"], lower=[0.0, 2.0], upper=1.0),
                "e: lower bound 2.0 > upper 1.0",
            ),
            (
                lambda m: m.add_variables(["d", "e"], lower=[0.0, math.nan], upper=1.0),
                "e: lower bound nan > upper 1.0",
            ),
            (
                lambda m: m.add_variables(["d", "e"], lower=0.0, upper=[1.0, 2.0], binary=True),
                r"e: binary bounds must lie within \[0, 1\]",
            ),
            (
                lambda m: _ok_and_bad(m, [0, 1, 2], [1.0, math.inf, 1.0], start=[0, 1, 3]),
                "bad: non-finite coefficient on b",
            ),
            (
                lambda m: _ok_and_bad(m, [0, 1], rhs=[0.0, math.nan]),
                "bad: non-finite right-hand side",
            ),
            (
                lambda m: _ok_and_bad(m, [0, 3]),
                "bad: reference to undeclared variable column 3",
            ),
            (
                lambda m: _ok_and_bad(m, [0, -1]),
                "bad: reference to undeclared variable column -1",
            ),
            (
                lambda m: _ok_and_bad(m, [0, 2, 1, 2], [1.0] * 4, start=[0, 1, 4]),
                "bad: duplicate variable 'c' in constraint terms",
            ),
            (
                lambda m: _ok_and_bad(m, [0, 1], senses=["<=", "=<"]),
                "bad: unknown sense '=<'",
            ),
            (
                lambda m: m.add_rows([0], [1.0], [0, 1, 1], ["<="], [0.0], ["ok"]),
                "do not describe one set of rows",
            ),
        ],
        ids=[
            "duplicate-declared", "duplicate-in-call", "lower-above-upper", "nan-bound",
            "binary-bounds", "non-finite-coef", "non-finite-rhs", "undeclared-column",
            "negative-column", "duplicate-column", "unknown-sense", "malformed-offsets",
        ],
    )
    def test_rejected_call_appends_nothing(self, call, message):
        m = _three_variables()
        m.add_rows([0], [1.0], [0, 1], ["<="], [1.0], ["first"])
        before = (m.variables, m.constraints)
        with pytest.raises(ValueError, match=message):
            call(m)
        assert (m.variables, m.constraints) == before
        m.add_variables(["d", "e"])  # no name of the rejected call was kept
        m.freeze()
        assert m.arrays.sizes() == {"vars": 5, "rows": 1, "nnz": 1, "binaries": 1}


class TestWriteLp:
    def test_requires_frozen(self):
        with pytest.raises(ModelFrozenError):
            write_lp(simple_model())

    def test_deterministic(self):
        m = simple_model().freeze()
        assert write_lp(m) == write_lp(m)

    def test_binary_pair_row(self):
        m = MilpModel(name="pair")
        m.add_variables(["z_plus", "z_minus"], lower=0, upper=1, binary=True)
        m.add_rows([0, 1], [1.0, 1.0], [0, 2], ["<="], [1.0], ["signpair"])
        m.freeze()
        text = write_lp(m)
        assert " signpair: 1 z_plus + 1 z_minus <= 1" in text
        assert "Binary" in text

    def test_row_text_of_edge_coefficients(self):
        m = MilpModel(name="edge")
        m.add_variables(["a", "b", "c"], 0.0, 1.0)
        m.add_rows(
            [0, 1, 2, 0, 1, 2, 1],
            [-2.5, -0.0, 2.0, 1e16, 1e-07, -1e16, -0.0],
            [0, 3, 3, 6, 7],
            ["<=", "=", ">=", "<="],
            [-0.0, 2.0, 1e-07, 1e16],
            ["lead", "none", "large", "zero"],
        )
        rows = write_lp(m.freeze()).split("Subject To\n")[1].split("\nBounds")[0]
        assert rows.splitlines() == [
            " lead: - 2.5 a + 0 b + 2 c <= 0",
            " none: 0 __dummy__ = 2",
            " large: 10000000000000000 a + 1e-07 b - 10000000000000000 c >= 1e-07",
            " zero: 0 b <= 10000000000000000",
        ]

    def test_all_senses(self):
        m = MilpModel()
        m.add_variables(["x"], lower=0, upper=5)
        senses, rhs, tags = ["<=", ">=", "="], [4.0, 1.0, 2.0], ["le", "ge", "eq"]
        m.add_rows([0, 0, 0], [1.0, 1.0, 1.0], [0, 1, 2, 3], senses, rhs, tags)
        m.freeze()
        text = write_lp(m)
        assert "<= 4" in text and ">= 1" in text and "= 2" in text

    # sha256 of the LP text, pinned when the model moved to index arrays; the
    # sopwl pin is that text without the lines naming *_x50, as each block
    # has one ordering binary per segment boundary
    IEEE33_LP_SHA256 = {
        "pwl": "4fe0fa276dd5835d13370bf7d5d46f74c5efd524cf994032897a1f2738631e6c",
        "sopwl": "eaffb13fabb25a70d2e78f9572db9e684fa618b9a09649ab13f388f082d6e3dc",
    }

    @staticmethod
    def _lp_sha256(case, segments, mode):
        m = MilpModel(name=f"{case.name}_{mode}")
        art = build_distflow(m, case, BuildOptions(num_segments=segments, mode=mode))
        build_restoration_objective(m, art)
        return hashlib.sha256(write_lp(m.freeze()).encode()).hexdigest()

    @pytest.mark.parametrize("mode", ["pwl", "sopwl"])
    def test_ieee33_text_pinned(self, mode):
        case = load_case(bundled_case_path("ieee33_4dg"))
        assert self._lp_sha256(case, 50, mode) == self.IEEE33_LP_SHA256[mode]

    # sha256 of the LP text of perfbench/cases.feeder_json(1, 400) at 10
    # segments, pinned before the builder emitted all branches as arrays: at
    # this size a coefficient computed with numpy's r**2 in place of Python's
    # differs in the last digit. The sopwl pin is as above, without *_x10
    FEEDER400_LP_SHA256 = {
        "pwl": "6ac9aba1ca9a8b27c688f5e45b400819e8cd38c7f75ddf992074931d963f0435",
        "sopwl": "322b47fb81baeb826edde8a47f6cf547d46eba2548f10ff3850abdb9b54d44a6",
    }

    @pytest.mark.parametrize("mode", ["pwl", "sopwl"])
    def test_feeder400_text_pinned(self, mode, cases_dir):
        case = load_case(cases_dir / "feeder400.json")
        assert self._lp_sha256(case, 10, mode) == self.FEEDER400_LP_SHA256[mode]

    def test_repeat_rejected_across_pieces(self):
        n = LP_CHUNK_ROWS + 2
        m = MilpModel()
        m.add_variables(["x"])
        tags = [f"u{i}" for i in range(n)]
        m.add_rows(np.zeros(n), np.ones(n), np.arange(n + 1), ["<="] * n, np.ones(n), tags)
        m.freeze()
        pieces = list(lp_chunks(m))
        # header, 2 row pieces, "Bounds", 1 bound piece, "End"
        assert len(pieces) == 6
        assert max(p.count("\n") for p in pieces) == LP_CHUNK_ROWS
        rows = "".join(pieces).split("Subject To\n")[1].split("\nBounds")[0].splitlines()
        assert rows[0] == " u0: 1 x <= 1"
        assert rows[-1] == f" u{n - 1}: 1 x <= 1"
        # the first and the last row share a tag but fall in different pieces
        m = MilpModel()
        m.add_variables(["x"])
        tags[-1] = "u0"
        m.add_rows(np.zeros(n), np.ones(n), np.arange(n + 1), ["<="] * n, np.ones(n), tags)
        m.freeze()
        with pytest.raises(ValueError, match="row tag 'u0' is held by more than one row"):
            lp_chunks(m)

    def test_tags_that_share_a_hash_are_distinct(self):
        class SameHash(str):
            def __hash__(self):
                return 7

        def model(tags):
            m = MilpModel()
            m.add_variables(["x"])
            n = len(tags)
            m.add_rows(np.zeros(n), np.ones(n), np.arange(n + 1), ["<="] * n, np.ones(n), tags)
            return m.freeze()

        text = write_lp(model([SameHash("a"), SameHash("b"), "c"]))
        rows = text.split("Subject To\n")[1].splitlines()[:3]
        assert rows == [" a: 1 x <= 1", " b: 1 x <= 1", " c: 1 x <= 1"]
        with pytest.raises(ValueError, match="^row tag 'b' is held by more than one row$"):
            lp_chunks(model([SameHash("a"), SameHash("b"), "c", SameHash("b")]))

    def test_unsafe_name(self):
        # a name with a trailing newline would split its LP lines in two
        for name in ("bad name", "x\n"):
            m = MilpModel()
            m.add_variables([name])
            m.freeze()
            with pytest.raises(ValueError, match="not LP-format-safe"):
                write_lp(m)
        # the model name is the text's first line, a comment
        for name in ("m\nMinimize", "m\r"):
            m = MilpModel(name=name)
            m.add_variables(["x"])
            m.freeze()
            with pytest.raises(ValueError, match="holds a line break"):
                write_lp(m)

    @pytest.mark.parametrize(
        "names, bad",
        [
            ([""], ""),
            (["a\nb"], "a\nb"),
            (["x\r"], "x\r"),
            (["\u00e9"], "\u00e9"),
            (["ok", "1a"], "1a"),
            (["a\x00"], "a\x00"),
        ],
        ids=["empty", "newline", "carriage-return", "non-ascii", "digit-first", "nul"],
    )
    def test_unsafe_variable_name_named(self, names, bad):
        m = MilpModel()
        m.add_variables(names)
        m.add_rows([0], [1.0], [0, 1], ["<="], [1.0], ["ok"])
        m.freeze()
        with pytest.raises(ValueError, match=f"^name {re.escape(repr(bad))} is not LP"):
            lp_chunks(m)

    def test_first_bad_name_past_the_first_block(self):
        # names and tags are checked LP_CHUNK_ROWS at a time, across the
        # border between them
        n = LP_CHUNK_ROWS + 3
        names = [f"v{i}" for i in range(n)]
        names[n - 2] = "1bad"
        tags = ["ok", "2bad"]
        m = MilpModel()
        m.add_variables(names)
        m.add_rows([0, 0], [1.0, 1.0], [0, 1, 2], ["<=", "<="], [1.0, 1.0], tags)
        m.freeze()
        with pytest.raises(ValueError, match="^name '1bad' is not LP"):
            lp_chunks(m)
        m = MilpModel()
        m.add_variables(names[: LP_CHUNK_ROWS - 1])
        m.add_rows([0, 0], [1.0, 1.0], [0, 1, 2], ["<=", "<="], [1.0, 1.0], tags)
        m.freeze()
        with pytest.raises(ValueError, match="^name '2bad' is not LP"):
            lp_chunks(m)

    def test_bad_variable_named_before_a_bad_tag(self):
        # the first bad name is looked for among variable names, then tags
        m = MilpModel()
        m.add_variables(["x", "y z"])
        m.add_rows([0], [1.0], [0, 1], ["<="], [1.0], ["1bad"])
        m.freeze()
        with pytest.raises(ValueError, match="^name 'y z' is not LP"):
            lp_chunks(m)

    def test_pieces_checked_before_the_first(self):
        m = MilpModel()
        m.add_variables(["bad name"])
        m.freeze()
        with pytest.raises(ValueError, match="not LP-format-safe"):
            lp_chunks(m)  # raises without a piece being asked for
        with pytest.raises(ModelFrozenError):
            lp_chunks(simple_model())
        # a row tag is the row's LP name, held to the rule of variable names
        for tag in ["1a", ".b", "a:b", "a-b", "", "\u00e9:x", "a\nb"]:
            m = MilpModel()
            m.add_variables(["x"])
            m.add_rows([0, 0], [1.0, 1.0], [0, 1, 2], ["<=", "<="], [1.0, 1.0], ["ok", tag])
            m.freeze()
            with pytest.raises(ValueError, match=f"^name {re.escape(repr(tag))} is not LP"):
                lp_chunks(m)


def _spec_model(name, variables, rows, objective, dropped=()):
    """A frozen model of ``variables`` (name, lower, upper, binary), ``rows``
    (tag, [(variable index, coefficient), ...], sense, rhs) and the
    ``objective`` terms of the same form, maximised; without the variables
    ``dropped`` and the rows that hold one of them."""
    dropped = set(dropped)
    kept = [i for i in range(len(variables)) if i not in dropped]
    column = {i: k for k, i in enumerate(kept)}
    m = MilpModel(name=name)
    names, lower, upper, binary = zip(*[variables[i] for i in kept]) if kept else ([],) * 4
    m.add_variables(names, np.array(lower), np.array(upper), np.array(binary, dtype=bool))
    rows = [row for row in rows if all(i in column for i, _ in row[1])]
    m.add_rows(
        [column[i] for _, terms, _, _ in rows for i, _ in terms],
        [c for _, terms, _, _ in rows for _, c in terms],
        np.cumsum([0] + [len(terms) for _, terms, _, _ in rows]),
        [sense for _, _, sense, _ in rows],
        [rhs for _, _, _, rhs in rows],
        [tag for tag, _, _, _ in rows],
    )
    m.set_objective_columns("max", [column[i] for i, _ in objective], [c for _, c in objective])
    return m.freeze()


def _view_texts(model, views):
    """Each view's LP text: the join of its pieces."""
    pieces = list(milp.lp_view_chunks(model, views))
    assert all(len(step) == len(views) for step in pieces)
    return ["".join(step[k] for step in pieces) for k in range(len(views))]


class TestLpViews:
    VARIABLES = [
        ("x", 0.0, 2.0, False),
        ("y", 0.0, 1.0, True),
        ("z", -math.inf, math.inf, False),
        ("w", -1.0, 1.0, False),
    ]
    ROWS = [
        ("r0", [(0, 1.0), (2, -1.5)], "<=", 1.0),
        ("r1", [(0, 1.0), (1, 2.0)], "=", 0.0),
        ("empty", [], ">=", -1.0),
        ("r3", [(1, 1.0)], "<=", 1.0),
        ("r4", [(3, 1.0), (0, -1.0)], ">=", -2.0),
        ("r5", [(2, 1.0), (3, 1.0), (1, -1.0)], "<=", 4.0),
        ("r6", [(3, 0.5)], "=", 0.25),
    ]

    def test_drops_the_rows_that_hold_a_dropped_column(self):
        m = _spec_model("full", self.VARIABLES, self.ROWS, [(0, 1.0)])
        (text,) = _view_texts(m, [("without_y", [1])])
        reference = _spec_model("without_y", self.VARIABLES, self.ROWS, [(0, 1.0)], dropped=[1])
        assert text == write_lp(reference)
        rows = text.split("Subject To\n")[1].split("\nBounds")[0].splitlines()
        assert [row.split(":")[0].strip() for row in rows] == ["r0", "empty", "r4", "r6"]
        assert "Binary" not in text and " y" not in text
        # dropping w as well takes r4, r5 and r6 with it
        (text,) = _view_texts(m, [("xz", np.array([3, 1]))])
        assert text == write_lp(
            _spec_model("xz", self.VARIABLES, self.ROWS, [(0, 1.0)], dropped=[1, 3])
        )

    def test_objective_column_refused(self):
        m = _spec_model("full", self.VARIABLES, self.ROWS, [(0, 1.0), (1, 3.0)])
        with pytest.raises(ValueError, match="^view 'v' drops 'y', which the objective holds"):
            milp.lp_view_chunks(m, [("full", ()), ("v", [1])])  # before a piece is asked for
        for bad in ([4], [-1]):
            with pytest.raises(ValueError, match="drops a column the model does not have"):
                milp.lp_view_chunks(m, [("v", bad)])
        with pytest.raises(ValueError, match="holds a line break"):
            milp.lp_view_chunks(m, [("full", ()), ("v\n", [2])])
        with pytest.raises(ModelFrozenError):
            milp.lp_view_chunks(simple_model(), [("simple", ())])

    @pytest.mark.parametrize("mode", ["pwl", "sopwl"])
    def test_one_view_is_write_lp(self, mode):
        case = load_case(bundled_case_path("ieee33_4dg"))
        model = _build(case, RunConfig("ieee33_4dg", num_segments=3), mode).model
        assert _view_texts(model, [(model.name, ())]) == [write_lp(model)]
        assert _view_texts(model, [(model.name, [])] * 2) == [write_lp(model)] * 2

    def test_empty_objective_names_a_kept_column(self):
        m = _spec_model("full", self.VARIABLES, self.ROWS, [])
        texts = _view_texts(m, [("a", [0]), ("b", [0, 1, 2, 3])])
        assert texts == [
            write_lp(_spec_model("a", self.VARIABLES, self.ROWS, [], dropped=[0])),
            write_lp(_spec_model("b", self.VARIABLES, self.ROWS, [], dropped=[0, 1, 2, 3])),
        ]
        assert " obj: 0 y\n" in texts[0] and " obj: 0 __zero__\n" in texts[1]

    def test_drops_across_piece_boundaries(self):
        # a row and a variable per index; row i holds v_i and v_{i+1}, so
        # dropping the variables around LP_CHUNK_ROWS drops rows on both
        # sides of the boundary between the first two row pieces and the
        # first two Bounds and Binary pieces
        n = LP_CHUNK_ROWS + 6
        variables = [
            (f"v{i}", 0.0, 1.0, True) if i % 5 == 0 else (f"v{i}", 0.0, float(i % 3), False)
            for i in range(n)
        ]
        rows = [(f"r{i}", [(i, 1.0), ((i + 1) % n, -0.5)], "<=", 1.0) for i in range(n)]
        dropped = [LP_CHUNK_ROWS - 3, LP_CHUNK_ROWS - 1, LP_CHUNK_ROWS, LP_CHUNK_ROWS + 3, 5]
        m = _spec_model("full", variables, rows, [(1, 1.0)])
        texts = _view_texts(m, [("full", ()), ("part", dropped)])
        assert texts[0] == write_lp(m)
        assert texts[1] == write_lp(_spec_model("part", variables, rows, [(1, 1.0)], dropped))


def _feeder_case(tmp_path, num_buses):
    """``perfbench/cases.feeder_json(1, num_buses)``, the case of the
    benchmark's ``feeder-export`` workload at 1600 buses, loaded."""
    path = Path(__file__).parents[1] / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    case_path = tmp_path / "feeder.json"
    case_path.write_text(cases.feeder_json(1, num_buses))
    return load_case(case_path)


class TestFootprint:
    def test_export_peak_stays_near_the_model(self, tmp_path):
        """The build and the writing of both views of ``export-lp`` hold each
        large array once: under tracemalloc, their peak stays within 1.4
        times the frozen model's size (about 1.29 on this case). A build
        that keeps each batch's parts next to their join, or a name check
        that joins every name at once, reads about 1.5."""
        case = _feeder_case(tmp_path, 1600)
        gc.collect()
        tracemalloc.start()
        try:
            m = MilpModel(case.name)
            art = build_distflow(m, case, BuildOptions(num_segments=10, mode="sopwl"))
            build_restoration_objective(m, art)
            m.freeze()
            gc.collect()
            frozen = tracemalloc.get_traced_memory()[0]
            for _ in milp.lp_view_chunks(m, [("pwl", art.ordering), ("sopwl", ())]):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * frozen, f"peak {peak / frozen:.3f} times the model"


class TestParseSolution:
    def test_optimal(self):
        m = simple_model().freeze()
        sol = parse_solution("optimal\nobj 1\nx 1\n", m)
        assert sol.status == "optimal"
        assert sol.objective_value == 1.0
        assert sol.x.tolist() == [1.0]

    def test_infeasible(self):
        m = simple_model().freeze()
        sol = parse_solution("infeasible\n", m)
        assert sol.status == "infeasible"
        assert len(sol.x) == 0

    def test_missing_defaults_to_zero(self):
        m = simple_model().freeze()
        sol = parse_solution("optimal\nobj 0\n", m)
        assert sol.x.tolist() == [0.0]
        assert sol.missing == 1

    def test_missing_checked_against_bounds(self, cases_dir):
        case = load_case(cases_dir / "twobus.json")
        m = MilpModel()
        build_distflow(m, case, BuildOptions(num_segments=5))
        m.freeze()
        # every other variable reads 0, within its bounds; V_2 >= 0.81 does not
        with pytest.raises(ValueError, match=r"V_2 is missing; its default 0.0 violates bounds \[0.81, "):
            parse_solution("optimal\nobj 0\nV_1 1.0\n", m)

    @pytest.mark.parametrize("line", ["obj", "obj 1 2", "obj one"])
    def test_bad_objective_line(self, line):
        m = simple_model().freeze()
        with pytest.raises(ValueError, match="unparseable objective line"):
            parse_solution(f"optimal\n{line}\nx 1\n", m)

    def test_objective_token_matched_exactly(self):
        # a variable whose name starts with "obj" is a variable, not the
        # objective
        m = MilpModel()
        m.add_variables(["objx", "y"], lower=0.0, upper=5.0)
        m.freeze()
        sol = parse_solution("optimal\nobjx 3\ny 1\n", m)
        assert sol.objective_value == 0.0
        assert sol.x.tolist() == [3.0, 1.0]
        assert sol.missing == 0

    def test_objective_spelled_out_rejected(self):
        m = simple_model().freeze()
        with pytest.raises(ValueError, match="'objective 1.5' names no variable"):
            parse_solution("optimal\nobjective 1.5\nx 1\n", m)

    def test_unknown_name_rejected(self):
        m = simple_model().freeze()
        with pytest.raises(ValueError, match="'ghost 1' names no variable"):
            parse_solution("optimal\nobj 1\nx 1\nghost 1\n", m)

    @staticmethod
    def _xy() -> MilpModel:
        m = MilpModel()
        m.add_variables(["x", "y"], 0.0, 5.0)
        return m.freeze()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("x 1\ny one\nghost 1\n", "unparseable value in line 'y one'"),
            ("x 1\nghost 1\ny one\n", "solution line 'ghost 1' names no variable"),
            # as many tokens as two per line, but not two on every line
            ("x 1\ny\nghost 1 2\n", "unparseable solution line 'y'"),
            ("x\n1 y 2\n", "unparseable solution line 'x'"),
            ("x 1\ny 1 2\nghost\n", "unparseable solution line 'y 1 2'"),
        ],
        ids=["value", "name", "one-token", "names-in-column-order", "three-tokens"],
    )
    def test_first_bad_line_named(self, body, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_solution(f"optimal\nobj 1\n{body}", self._xy())

    def test_lines_in_any_order(self):
        # any whitespace between name and value; a repeated line overrides
        sol = parse_solution("optimal\nobj 1\nx\t1\n  y   2 \n", self._xy())
        assert sol.x.tolist() == [1.0, 2.0]
        sol = parse_solution("optimal\nobj 1\ny\t2\n  x   1 \ny 3\n", self._xy())
        assert sol.x.tolist() == [1.0, 3.0]
        assert sol.missing == 0
        sol = parse_solution("optimal\nobj 1\ny 2\n", self._xy())
        assert sol.x.tolist() == [0.0, 2.0]
        assert sol.missing == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("body", ["x {v}\ny 4\n", "y 4\nx {v}\n"], ids=["in-order", "out-of-order"])
    def test_non_finite_value_named(self, body, value):
        # a NaN would pass every bound and row check that follows
        with pytest.raises(ValueError, match=re.escape(f"non-finite value in line 'x {value}'")):
            parse_solution(f"optimal\nobj 1\n{body.format(v=value)}", self._xy())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_objective_named(self, value):
        with pytest.raises(ValueError, match=re.escape(f"non-finite value in line 'obj {value}'")):
            parse_solution(f"optimal\nobj {value}\nx 1\ny 1\n", self._xy())

    def test_unknown_status(self):
        m = simple_model().freeze()
        with pytest.raises(ValueError, match="status"):
            parse_solution("great success\n", m)

    def test_bound_violation(self):
        m = simple_model().freeze()
        with pytest.raises(ValueError, match="bounds"):
            parse_solution("optimal\nobj 5\nx 5\n", m)


# names that start like the objective token, and "obj" itself, which is a
# variable anywhere but on the line after the status
_names = st.lists(st.sampled_from(["obj", "objx", "OBJ_1", "x", "y_2"]), min_size=1, unique=True)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _solutions(draw):
    names = draw(_names)
    status = draw(st.sampled_from(STATUS_TOKENS))
    values = []
    if status in ("optimal", "feasible"):
        values = [draw(_finite) for name in names]
    return names, Solution(status, draw(_finite), np.array(values))


class TestSolutionText:
    @settings(max_examples=200, deadline=None)
    @given(_solutions(), st.data())
    def test_round_trip(self, drawn, data):
        names, solution = drawn
        m = MilpModel()
        m.add_variables(names)
        m.freeze()
        # the value lines in any order, one of them also given earlier with
        # another value: the last line of a name wins
        lines = format_solution(solution, m).splitlines()
        head, body = lines[:2], data.draw(st.permutations(lines[2:]))
        if body:
            k = data.draw(st.integers(0, len(body) - 1))
            stale = f"{body[k].split()[0]} {data.draw(_finite)!r}"
            body.insert(data.draw(st.integers(0, k)), stale)
        back = parse_solution("\n".join(head + body) + "\n", m)
        assert back.status == solution.status
        # repr round-trips every float; compare the text to keep -0.0 apart
        assert repr(back.objective_value) == repr(solution.objective_value)
        assert list(map(repr, back.x.tolist())) == list(map(repr, solution.x.tolist()))
        assert back.missing == 0


class TestCheckSolution:
    def test_clean(self):
        m = simple_model().freeze()
        sol = Solution(status="optimal", objective_value=1.0, x=np.array([1.0]))
        assert check_solution(m, sol) == []

    def test_vector_of_another_model_rejected(self):
        m = simple_model().freeze()
        for x in ([], [1.0, 0.0]):
            with pytest.raises(ValueError, match="values for a model of 1 variables"):
                check_solution(m, Solution("optimal", 1.0, np.array(x)))

    def test_violation_reported_by_tag(self):
        m = MilpModel()
        m.add_variables(["x"], lower=0, upper=10)
        m.add_rows([0], [1.0], [0, 1], ["<="], [1.0], ["cap:branch"])
        m.freeze()
        sol = Solution(status="feasible", objective_value=0.0, x=np.array([3.0]))
        violations = check_solution(m, sol)
        assert violations == [("cap:branch", pytest.approx(2.0))]

    def test_nan_reported_against_its_rows(self):
        m = MilpModel()
        m.add_variables(["x", "y"], 0.0, 5.0)
        senses, tags = ["<=", "<=", ">="], ["sum", "y_only", "x_only"]
        m.add_rows([0, 1, 1, 0], [1.0] * 4, [0, 2, 3, 4], senses, [1.0, 5.0, 0.0], tags)
        m.freeze()
        sol = Solution(status="feasible", objective_value=0.0, x=np.array([math.nan, 4.0]))
        violations = check_solution(m, sol)
        assert [tag for tag, _ in violations] == ["sum", "x_only"]
        assert all(math.isnan(gap) for _, gap in violations)
        assert m.arrays.outside_bounds(sol.x).tolist() == [0]

    def test_row_sums_are_the_csr_products(self):
        # missed_rows adds each row's terms in the order of scipy's CSR
        # product, so the rows and gaps are that product's bit for bit.
        # Added in another order, the first two rows come out 1 and 0.6, and
        # miss their bounds by 1.5 and 0.09999999999999998
        m = MilpModel()
        m.add_variables(["a", "b", "c", "e"], -math.inf, math.inf)
        m.add_rows(
            columns(m, "a", "b", "c", "b", "c", "a", "c", "e", "e"),
            [1e16, 1.0, -1e16, 0.1, 0.2, 0.3, 1.0, 2.0, 3.0],
            [0, 3, 6, 6, 8, 9],
            ["<=", "<=", "=", ">=", "<="],
            [-0.5, 0.5, 0.0, -1.0, 1.0],
            ["cancel", "tenths", "empty", "nan", "nan_only"],
        )
        a = m.freeze().arrays
        assert " empty: 0 __dummy__ = 0\n" in write_lp(m)
        x = np.array([1.0, 1.0, 1.0, math.nan])
        csr = scipy.sparse.csr_array((a.coefs, a.cols, a.row_start), (len(a.rhs), len(a.names)))
        lhs = csr @ x
        gap = np.maximum(a.row_lo - lhs, lhs - a.row_hi)
        rows, gaps = a.missed_rows(x)
        assert rows.tolist() == [0, 1, 3, 4]
        assert gaps.tobytes() == gap[rows].tobytes()
        assert lhs[:3].tolist() == [0.0, 0.1 + 0.2 + 0.3, 0.0]
        assert gaps[:2].tolist() == [0.5, 0.1 + 0.2 + 0.3 - 0.5]


# dyadic values keep every sum exact, so the reference and the sparse product
# agree to the bit and no gap sits on the tolerance by rounding
_dyadic = st.integers(-16, 16).map(lambda k: k / 4)


@st.composite
def _small_models(draw):
    n = draw(st.integers(1, 5))
    names = [f"v{i}" for i in range(n)]
    rows = []
    for r in range(draw(st.integers(0, 6))):
        cols = draw(st.lists(st.sampled_from(names), unique=True, max_size=n))
        terms = [(name, draw(_dyadic)) for name in cols]
        # repeated tags: the check reports each violated row, not each tag
        rows.append((terms, draw(st.sampled_from(["<=", "=", ">="])), draw(_dyadic), f"r{r % 3}"))
    values = {name: draw(_dyadic) for name in names}
    return names, rows, values


class TestCheckSolutionProperty:
    @settings(max_examples=200, deadline=None)
    @given(_small_models())
    def test_matches_row_by_row_substitution(self, drawn):
        names, rows, values = drawn
        m = MilpModel()
        m.add_variables(names)
        terms = [term for row in rows for term in row[0]]
        m.add_rows(
            columns(m, *(name for name, _ in terms)),
            [c for _, c in terms],
            np.cumsum([0] + [len(row[0]) for row in rows]),
            [sense for _, sense, _, _ in rows],
            [rhs for _, _, rhs, _ in rows],
            [tag for _, _, _, tag in rows],
        )
        m.freeze()

        expected = []
        for terms, sense, rhs, tag in rows:
            lhs = sum(c * values.get(name, 0.0) for name, c in terms)
            gap = {"<=": lhs - rhs, ">=": rhs - lhs, "=": abs(lhs - rhs)}[sense]
            if gap > milp.FEASIBILITY_TOL:
                expected.append((tag, gap))
        x = np.array([values[name] for name in names])
        sol = Solution(status="feasible", objective_value=0.0, x=x)
        assert check_solution(m, sol) == expected

        assert m.constraints == tuple(
            LinearConstraint(tuple(terms), sense, rhs, tag) for terms, sense, rhs, tag in rows
        )


class TestSolve:
    def test_single_var(self):
        m = MilpModel(name="one")
        m.add_variables(["x"], lower=0.0, upper=1.0)
        m.set_objective_columns("max", [0], [1.0])
        m.freeze()
        sol = solve(m, ScipyMilpAdapter())
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0)

    def test_binary_packing(self):
        m = MilpModel(name="pack")
        m.add_variables(["x", "y"], 0, 1, binary=True)
        m.add_rows([0, 1], [1.0, 1.0], [0, 2], ["<="], [1.0], ["one"])
        m.set_objective_columns("max", [0, 1], [1.0, 1.0])
        m.freeze()
        sol = solve(m, ScipyMilpAdapter())
        assert sol.objective_value == pytest.approx(1.0)

    def test_infeasible(self):
        m = MilpModel(name="bad")
        m.add_variables(["x"], lower=0, upper=10)
        m.add_rows([0, 0], [1.0, 1.0], [0, 1, 2], [">=", "<="], [2.0, 1.0], ["lo", "hi"])
        m.set_objective_columns("min", [0], [1.0])
        m.freeze()
        sol = solve(m, ScipyMilpAdapter())
        assert sol.status == "infeasible"

    # every reader of a model's arrays refuses an unfrozen model
    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(lambda m: solve(m, ScipyMilpAdapter()), id="solve"),
            pytest.param(lambda m: milp.lp_view_chunks(m, [(m.name, ())]), id="lp_view_chunks"),
            pytest.param(
                lambda m: check_solution(m, Solution("optimal", 0.0, np.zeros(1))),
                id="check_solution",
            ),
            pytest.param(lambda m: ScipyMilpAdapter().relax(m), id="relax"),
        ],
    )
    def test_requires_frozen(self, read):
        with pytest.raises(ModelFrozenError):
            read(simple_model())

    def test_in_process_solve_uses_no_text_or_file(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the in-process solve touched the text format")

        monkeypatch.setattr(milp, "write_lp", refuse)
        monkeypatch.setattr(milp, "parse_solution", refuse)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        sol = solve(simple_model().freeze(), ScipyMilpAdapter())
        assert sol.status == "optimal"
        assert sol.x.tolist() == [1.0]
        assert list(tmp_path.iterdir()) == []


class TestScipyAdapter:
    @staticmethod
    def _fake_milp(monkeypatch, x):
        """Make every MILP run of the HiGHS session return ``x`` as its
        optimal point; LPs still run. Returns the list of MILP runs."""
        real_run, real_x = solvers._HighsSession.run, solvers._HighsSession.x
        runs = []

        def run(session):
            if not session.mip:
                return real_run(session)
            runs.append(session)
            return "optimal"

        monkeypatch.setattr(solvers._HighsSession, "run", run)
        monkeypatch.setattr(
            solvers._HighsSession, "x", lambda session: x.copy() if session.mip else real_x(session)
        )
        return runs

    def test_snap_and_clip_keep_python_semantics(self, monkeypatch):
        # min(max(x, lo), hi) keeps -0.0 at a zero bound, and round() of a
        # binary gives an int, so a binary never reads -0.0
        m = MilpModel(name="snap")
        m.add_variables(["b", "c"], 0, 1, binary=True)
        m.add_variables(["y"], lower=0.0, upper=2.0)
        m.add_variables(["z"], lower=-1.0, upper=1.0)
        m.set_objective_columns("max", [2, 3], [1.0, 0.5])
        m.freeze()
        self._fake_milp(monkeypatch, np.array([-0.0, 0.5000001, -0.0, 2.5]))
        sol = ScipyMilpAdapter().run(m)
        assert sol.status == "optimal"
        assert sol.objective_value == 0.5
        assert sol.x.tolist() == [0.0, 1.0, 0.0, 1.0]
        signs = [math.copysign(1.0, v) for v in sol.x.tolist()]
        assert signs == [1.0, 1.0, -1.0, 1.0]
        assert sol.missing == 0
        assert format_solution(sol, m) == "optimal\nobj 0.5\nb 0.0\nc 1.0\ny -0.0\nz 1.0\n"

    def test_clip_that_breaks_a_row_is_polished(self, monkeypatch):
        # HiGHS's MILP point meets the row exactly but leaves y 5e-7 below
        # its bound; clipping y to 0 alone would miss the row by 2e-6, so the
        # point is re-solved as an LP with b fixed at its value, not as a
        # second MILP
        m = MilpModel(name="dust")
        m.add_variables(["b"], 0, 1, binary=True)
        m.add_variables(["y"], lower=0.0, upper=1.0)
        m.add_variables(["z"], lower=-1.0, upper=10.0)
        rows = columns(m, "z", "y", "y", "b"), [1.0, -4.0, 1.0, -1.0], [0, 2, 4]
        m.add_rows(*rows, ["=", "<="], [0.0, 0.0], ["link", "gate"])
        m.set_objective_columns("min", columns(m, "z", "b"), [1.0, 1.0])
        m.freeze()
        assert check_solution(m, Solution("optimal", 0.0, np.array([1.0, 0.0, -2e-6])))
        runs = self._fake_milp(monkeypatch, np.array([1.0, -5e-7, -2e-6]))
        sol = ScipyMilpAdapter().run(m)
        assert len(runs) == 1
        assert sol.status == "optimal"
        b, y, _ = sol.x
        assert b == 1.0
        assert y == pytest.approx(0.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(1.0)
        assert check_solution(m, sol) == []

    @staticmethod
    def _packing():
        m = MilpModel(name="pack")
        m.add_variables(["x", "y"], 0, 1, binary=True)
        m.add_rows([0, 1], [1.0, 1.0], [0, 2], ["<="], [1.0], ["one"])
        m.set_objective_columns("max", [0, 1], [1.0, 1.0])
        return m.freeze()

    def test_zi_round_is_on_and_silent(self, monkeypatch):
        # every MILP run has ZI rounding on and a relative gap of 1e-4, and
        # the solve raises no warning
        real_run, options = solvers._HighsSession.run, []

        def spy(session):
            if session.mip:
                highs = session.highs
                options.append(
                    (
                        highs.getOptionValue(solvers.ZI_ROUND_OPTION)[1],
                        highs.getOptionValue("mip_rel_gap")[1],
                    )
                )
            return real_run(session)

        monkeypatch.setattr(solvers._HighsSession, "run", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = ScipyMilpAdapter().run(self._packing())
        assert sol.status == "optimal"
        assert options and all(o == (True, 1e-4) for o in options)

    def test_option_unknown_to_highs_raises(self, monkeypatch):
        # an option HiGHS refuses stops the solve instead of leaving HiGHS
        # on its defaults
        monkeypatch.setattr(solvers, "ZI_ROUND_OPTION", "no_such_highs_option")
        with pytest.raises(ValueError, match="no_such_highs_option"):
            ScipyMilpAdapter().run(self._packing())

    @pytest.mark.parametrize("mode", ["pwl", "sopwl"])
    def test_milp_point_is_scipy_milps(self, cases_dir, mode):
        # the session hands HiGHS the rows as the model stores them, and
        # HiGHS's own column copy is the one scipy.optimize.milp passes; with
        # the same options, the point and statistics are that call's bit for
        # bit, the sopwl model's eq20/eq21 rows and ordering binaries included
        case = load_case(cases_dir / "branching6.json")
        model = _build(case, RunConfig(case="branching6", num_segments=10), mode).model
        a = model.arrays
        c = solvers._costs(model)
        rows = scipy.sparse.csr_array((a.coefs, a.cols, a.row_start), (len(a.rhs), len(a.names)))
        with warnings.catch_warnings():
            # scipy warns that it passes ZI_ROUND_OPTION to HiGHS verbatim
            warnings.simplefilter("ignore", RuntimeWarning)
            cold = scipy.optimize.milp(
                c=c,
                constraints=[scipy.optimize.LinearConstraint(rows, a.row_lo, a.row_hi)],
                bounds=scipy.optimize.Bounds(a.lower, a.upper),
                integrality=a.binary.astype(int),
                options={"time_limit": 60.0, "mip_rel_gap": 1e-4, solvers.ZI_ROUND_OPTION: True},
            )
        session = solvers._HighsSession(a, c, a.lower, a.upper, 60.0, a.binary)
        assert cold.status == 0 and session.run() == "optimal"
        assert session.x().tobytes() == cold.x.tobytes()
        cold_stats = {k: cold[k] for k in ("mip_node_count", "mip_gap", "mip_dual_bound")}
        assert session.mip_stats() == cold_stats
        sol = ScipyMilpAdapter().run(model)
        assert model.objective_sense == "max"
        assert (sol.mip_node_count, sol.mip_gap) == (cold.mip_node_count, cold.mip_gap)
        assert sol.mip_dual_bound == -cold.mip_dual_bound

    def test_missing_binding_named(self, tmp_path, monkeypatch):
        # no fallback: a scipy without the binding's file stops with the
        # directory searched and scipy's version
        import scipy

        monkeypatch.delitem(sys.modules, solvers.CORE_MODULE)
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        where = re.escape(os.path.join(str(tmp_path), "optimize", "_highspy"))
        with pytest.raises(ImportError, match=f"{where} \\(scipy {scipy.__version__}\\)"):
            solvers._load_core()

    def test_one_binding_in_either_import_order(self, cases_dir):
        # pybind11 registers the binding's types once per process, so
        # whether sopwl.solvers loads it before or after scipy.optimize
        # imports it, there is one module, and both scipy.optimize.milp and
        # the adapter solve on it
        script = """
import sys
{first}
{second}
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core, _highs_wrapper
from sopwl.cli import RunConfig, _build
from sopwl.network import load_case

cores = [m for m in list(sys.modules.values()) if hasattr(m, "_Highs")]
assert cores == [solvers._core] and _core is _highs_wrapper._h is solvers._core
small = milp(
    [-1.0, -1.0],
    integrality=[1, 1],
    bounds=Bounds(0, 3),
    constraints=LinearConstraint([[1.0, 2.0]], -np.inf, 3.5),
)
assert small.status == 0 and small.fun == -3.0
case = load_case({case!r})
model = _build(case, RunConfig(case="branching6", num_segments=3), "sopwl").model
solution = solvers.ScipyMilpAdapter().run(model)
assert solution.status == "optimal"
print(repr(solution.objective_value))
"""
        solvers_first = ("from sopwl import solvers", "import scipy.optimize")
        paths = [str(Path(solvers.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        case = str(cases_dir / "branching6.json")
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script.format(first=first, second=second, case=case)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for first, second in (solvers_first, solvers_first[::-1])
        ]
        outputs = []
        for run in runs:
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_time_limit_keeps_an_incumbent(self, monkeypatch):
        # a MILP stopped by its time limit is "feasible" when HiGHS holds an
        # incumbent, and an "error" without statistics when it holds none
        from scipy.optimize._highspy import _core

        class TimedOut(_core._Highs):
            def getModelStatus(self):
                return _core.HighsModelStatus.kTimeLimit

        monkeypatch.setattr(_core, "_Highs", TimedOut)
        sol = ScipyMilpAdapter().run(self._packing())
        assert sol.status == "feasible"
        assert sol.objective_value == 1.0
        assert sol.mip_dual_bound == pytest.approx(1.0)
        none = MilpModel(name="no_incumbent")
        none.add_variables(["b"], 0, 1, binary=True)
        none.add_variables(["y"], 0.0, 1.0)
        none.add_rows([0, 1], [1.0, 1.0], [0, 2], [">="], [3.0], ["need"])
        none.set_objective_columns("max", [0], [1.0])
        sol = ScipyMilpAdapter().run(none.freeze())
        assert sol.status == "error"
        assert len(sol.x) == 0
        assert (sol.mip_node_count, sol.mip_gap, sol.mip_dual_bound) == (None, None, None)

    def test_lp_has_no_mip_statistics(self):
        m = MilpModel(name="lp")
        m.add_variables(["x"], lower=0.0, upper=1.0)
        m.set_objective_columns("max", [0], [1.0])
        sol = ScipyMilpAdapter().run(m.freeze())
        assert sol.status == "optimal"
        assert (sol.mip_node_count, sol.mip_gap, sol.mip_dual_bound) == (None, None, None)

    def test_solver_statistics(self):
        # the dual bound is reported in the model's sense: HiGHS minimizes
        # the negated objective of a "max" model
        sol = ScipyMilpAdapter().run(self._packing())
        assert isinstance(sol.mip_node_count, int)
        assert sol.mip_gap == pytest.approx(0.0)
        assert sol.mip_dual_bound == pytest.approx(1.0)
