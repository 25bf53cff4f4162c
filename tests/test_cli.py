import json
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from sopwl import cli, milp, solvers
from sopwl.cli import RunConfig, _build, main
from sopwl.distflow import MODES, BuildOptions, build_distflow, build_restoration_objective
from sopwl.network import bundled_case_path, load_case

from helpers import columns


class TestExportLp:
    def test_golden_fixture(self, tmp_path, cases_dir, golden_dir):
        out = tmp_path / "lp"
        status = main(
            [
                "export-lp",
                "--case", str(cases_dir / "twobus.json"),
                "--mode", "pwl",
                "--segments", "5",
                "--out", str(out),
            ]
        )
        assert status == 0
        produced = (out / "twobus_pwl.lp").read_bytes()
        assert produced == (golden_dir / "twobus_pwl.lp.golden").read_bytes()

    @pytest.mark.parametrize(
        "mode, segments, golden",
        [
            ("pwl", 3, "branching6_pwl.lp.golden"),
            ("sopwl", 3, "branching6_sopwl.lp.golden"),
            # one segment: no ordering binary or row, and one-column segment
            # blocks in the eq7 and eq4 rows
            ("sopwl", 1, "branching6_sopwl_seg1.lp.golden"),
        ],
        ids=["pwl", "sopwl", "sopwl-seg1"],
    )
    def test_branching_golden_fixture(
        self, tmp_path, cases_dir, golden_dir, mode, segments, golden
    ):
        # branches listed out of parents-first order, a bus with two children:
        # pins the term order inside each bus-balance row
        out = tmp_path / "lp"
        status = main(
            [
                "export-lp",
                "--case", str(cases_dir / "branching6.json"),
                "--mode", mode,
                "--segments", str(segments),
                "--out", str(out),
            ]
        )
        assert status == 0
        produced = (out / f"branching6_{mode}.lp").read_bytes()
        assert produced == (golden_dir / golden).read_bytes()

    def test_needs_no_scipy(self, tmp_path, cases_dir):
        # building and writing a model uses neither scipy's solvers nor its
        # sparse matrices, which take most of the package's import time; a
        # solve and a check load only scipy's HiGHS binding
        common = ["--case", str(cases_dir / "tinyq3.json"), "--segments", "2"]
        out = tmp_path / "run"
        runs = [
            ["export-lp", "--case", str(cases_dir / "twobus.json"), "--out", str(tmp_path / "lp")],
            ["solve", *common, "--mode", "both", "--out", str(out)],
            *(
                ["validate", *common, "--mode", m, "--solution", str(out / m / f"tinyq3_{m}.sol")]
                for m in ("pwl", "sopwl")
            ),
        ]
        loaded = "[m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules]"
        script = "import sys\nfrom sopwl.cli import main\n" + "".join(
            f"assert main({args!r}) == 0\nprint('loaded', {loaded})\n" for args in runs
        )
        paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        lines = run.stdout.splitlines()
        assert [line for line in lines if line.startswith("loaded")] == ["loaded []"] * 4

    def test_repeat_is_byte_identical(self, tmp_path, cases_dir):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(
                [
                    "export-lp",
                    "--case", str(cases_dir / "twobus.json"),
                    "--mode", "pwl",
                    "--segments", "5",
                    "--out", str(out),
                ]
            )
            outs.append((out / "twobus_pwl.lp").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_case(self, tmp_path):
        status = main(
            ["export-lp", "--case", "missing_case", "--out", str(tmp_path)]
        )
        assert status == 2

    def test_case_directory_rejected(self, tmp_path, capsys):
        status = main(["export-lp", "--case", str(tmp_path), "--out", str(tmp_path / "o")])
        assert status == 2
        assert "is a directory, not a case file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, segments, mode, objective",
        [
            pytest.param("branching6", 3, "both", "restoration", id="branching6-3"),
            pytest.param("feeder400", 10, "both", "restoration", id="feeder400-10"),
            # one segment: no ordering binaries, so both files hold one model
            pytest.param("branching6", 1, "both", "restoration", id="branching6-1"),
            pytest.param("ieee33_4dg", 50, "both", "restoration", id="ieee33_4dg-50"),
            pytest.param(
                "branching6", 3, "both", "restoration_with_loss_penalty", id="branching6-3-loss"
            ),
            pytest.param("branching6", 3, "pwl", "restoration", id="branching6-3-pwl"),
            pytest.param("branching6", 3, "sopwl", "restoration", id="branching6-3-sopwl"),
        ],
    )
    def test_file_is_write_lp_text(self, tmp_path, cases_dir, case, segments, mode, objective):
        # the files are written in pieces from one build; each file's bytes
        # are write_lp's text of its own mode's build
        path = cases_dir / f"{case}.json"
        if not path.exists():
            path = bundled_case_path(case)
        args = ["--case", str(path), "--mode", mode, "--segments", str(segments)]
        args += ["--objective", objective]
        assert main(["export-lp", *args, "--out", str(tmp_path / "o")]) == 0
        network = load_case(path)
        modes = MODES if mode == "both" else (mode,)
        files = sorted(p.name for p in (tmp_path / "o").iterdir())
        assert files == sorted(f"{network.name}_{m}.lp" for m in modes)
        for m in modes:
            model = milp.MilpModel(name=f"{network.name}_{m}")
            options = BuildOptions(num_segments=segments, mode=m, objective=objective)
            artifacts = build_distflow(model, network, options)
            build_restoration_objective(model, artifacts)
            text = milp.write_lp(model.freeze())
            assert (tmp_path / "o" / f"{network.name}_{m}.lp").read_bytes() == text.encode()
        if mode == "both" and segments == 1:
            # the files differ in their first line alone, the model name
            pwl, sopwl = ((tmp_path / "o" / f"{network.name}_{m}.lp").read_text().split("\n", 1)
                          for m in MODES)
            assert pwl[0] != sopwl[0] and pwl[1] == sopwl[1]

    def test_failed_write_leaves_no_file(self, tmp_path, cases_dir, capsys, monkeypatch):
        # the writer fails after its first piece, with both files open
        view_chunks = milp.lp_view_chunks

        def failing(model, views):
            pieces = view_chunks(model, views)

            def first_then_fail():
                yield next(pieces)
                raise OSError("no space left on device")

            return first_then_fail()

        monkeypatch.setattr(milp, "lp_view_chunks", failing)
        out = tmp_path / "lp"
        args = ["--case", str(cases_dir / "branching6.json"), "--mode", "both", "--segments", "3"]
        assert main(["export-lp", *args, "--out", str(out)]) == 2
        assert "no space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_rejected_model_leaves_no_file(self, tmp_path, cases_dir, capsys):
        # without a "name" the case is named after its file, whose name here
        # holds a line break, which the LP's first line cannot
        doc = json.loads((cases_dir / "twobus.json").read_text())
        del doc["name"]
        path = tmp_path / "two\nbus.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "lp"
        status = main(["export-lp", "--case", str(path), "--mode", "both", "--out", str(out)])
        assert status == 2
        assert "holds a line break" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unsafe_case_name(self, tmp_path, cases_dir, capsys):
        doc = json.loads((cases_dir / "twobus.json").read_text())
        doc["name"] = "../escaped"
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        status = main(["export-lp", "--case", str(path), "--out", str(tmp_path / "sub" / "o2")])
        assert status == 2
        assert "case name '../escaped' must be" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()

    def test_negative_bus_id_rejected_by_both_commands(self, tmp_path, cases_dir, capsys):
        # solve used to run a case that export-lp could not write ("V_-2")
        doc = json.loads((cases_dir / "twobus.json").read_text())
        doc["buses"][1]["id"] = doc["branches"][0]["to"] = -2
        doc["loads"][0]["bus"] = doc["generators"][0]["bus"] = -2
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        errors = []
        for command in ("solve", "export-lp"):
            out = tmp_path / command
            assert main([command, "--case", str(path), "--segments", "2", "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: id = -2 in ")
        assert "must be a nonnegative bus id" in errors[0]


class TestSolve:
    def test_output_path_is_a_file(self, tmp_path, cases_dir, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        args = ["--case", str(cases_dir / "twobus.json"), "--segments", "2", "--out", str(out)]
        assert main(["solve", *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_case(self, tmp_path, cases_dir):
        out = tmp_path / "run"
        status = main(
            [
                "solve",
                "--case", str(cases_dir / "empty2bus.json"),
                "--mode", "pwl",
                "--segments", "5",
                "--out", str(out),
            ]
        )
        assert status == 0
        meta = json.loads((out / "pwl" / "run.json").read_text())
        assert meta["status"] == "optimal"
        assert abs(meta["objective_value"]) < 1e-9
        assert (out / "pwl" / "report.txt").exists()
        assert (out / "pwl" / "fillings.txt").exists()

    def test_case_without_branches(self, tmp_path, cases_dir, capsys):
        # a lone bus: every per-branch array is empty
        doc = json.loads((cases_dir / "twobus.json").read_text())
        doc.update(buses=doc["buses"][:1], branches=[], loads=[], generators=[])
        path = tmp_path / "onebus.json"
        path.write_text(json.dumps(doc))
        common = ["--case", str(path), "--segments", "3"]
        assert main(["solve", *common, "--mode", "both", "--out", str(tmp_path / "run")]) == 0
        sol = tmp_path / "run" / "sopwl" / "twobus_sopwl.sol"
        assert main(["validate", *common, "--mode", "sopwl", "--solution", str(sol)]) == 0
        assert "VIOLATED" not in capsys.readouterr().out

    def test_both_modes_comparison(self, tmp_path, cases_dir):
        out = tmp_path / "run"
        status = main(
            [
                "solve",
                "--case", str(cases_dir / "twobus.json"),
                "--mode", "both",
                "--segments", "5",
                "--out", str(out),
                "--format", "delimited",
            ]
        )
        assert status == 0
        comparison = (out / "comparison.csv").read_text()
        header = comparison.splitlines()[0]
        assert header == "feeder,E_p_pwl,E_p_sopwl,E_q_pwl,E_q_sopwl"
        sizes = {
            "pwl": {"vars": 26, "rows": 17, "nnz": 59, "binaries": 4},
            # eight ordering binaries and 2 * (4 + 4) eq20/eq21 rows on top
            "sopwl": {"vars": 34, "rows": 33, "nnz": 91, "binaries": 12},
        }
        for mode, expected in sizes.items():
            meta = json.loads((out / mode / "run.json").read_text())
            assert {k: meta[k] for k in expected} == expected
            # HiGHS's branch-and-bound statistics; the dual bound is in the
            # model's (maximizing) sense
            assert isinstance(meta["mip_node_count"], int)
            assert 0.0 <= meta["mip_gap"] <= 1e-4
            assert meta["mip_dual_bound"] == pytest.approx(meta["objective_value"], rel=1e-4)
            # the built-in solver leaves the solution file but no LP file
            assert (out / mode / f"twobus_{mode}.sol").is_file()
            assert not list((out / mode).glob("*.lp"))

    def test_both_lifts_sopwl_from_pwl(self, tmp_path, cases_dir, count_solves, capsys):
        solves = count_solves()
        out = tmp_path / "run"
        common = ["--case", str(cases_dir / "twobus.json"), "--segments", "5"]
        assert main(["solve", *common, "--mode", "both", "--out", str(out)]) == 0
        # the pwl LP relaxation is tight and every pwl filling is ordered:
        # pwl takes the relaxation's optimum and sopwl lifts it, no MILP
        assert solves == []
        pwl = json.loads((out / "pwl" / "run.json").read_text())
        sopwl = json.loads((out / "sopwl" / "run.json").read_text())
        assert pwl["sopwl_path"] is None
        assert sopwl["sopwl_path"] == "lifted"
        assert sopwl["objective_value"] == pwl["objective_value"]
        assert sopwl["violations"] == 0
        capsys.readouterr()
        sol = out / "sopwl" / "twobus_sopwl.sol"
        status = main(["validate", *common, "--mode", "sopwl", "--solution", str(sol)])
        assert status == 0
        assert "VIOLATED" not in capsys.readouterr().out

    def test_unordered_pwl_solution_runs_lp_screen(
        self, tmp_path, cases_dir, count_solves, monkeypatch
    ):
        def unordered(model, solution):
            # half a segment, then a full one: the P filling is not ordered
            d1, d2 = columns(model, "P_1_2_d1", "P_1_2_d2")
            h = model.arrays.upper[d1]
            x = solution.x.copy()
            x[[d1, d2]] = h / 2, h
            return replace(solution, x=x)

        solves = count_solves(tamper=unordered)
        built = []
        real_build = cli.build_distflow

        def build(model, case, options):
            built.append(options.mode)
            return real_build(model, case, options)

        monkeypatch.setattr(cli, "build_distflow", build)
        out = tmp_path / "run"
        status = main(
            [
                "solve",
                "--case", str(cases_dir / "twobus.json"),
                "--mode", "both",
                "--segments", "5",
                "--out", str(out),
            ]
        )
        # the tampered pwl solution breaks its own rows; the LP screen
        # certifies a clean sopwl optimum without the MILP, on the pwl run's
        # own model and relaxation
        assert status == 1
        assert solves == []
        assert built == ["pwl", "sopwl"]
        pwl = json.loads((out / "pwl" / "run.json").read_text())
        sopwl = json.loads((out / "sopwl" / "run.json").read_text())
        assert sopwl["sopwl_path"] == "lp_screen"
        assert sopwl["status"] == "optimal"
        assert sopwl["violations"] == 0
        assert sopwl["mip_node_count"] == 0
        assert sopwl["mip_dual_bound"] >= sopwl["objective_value"]
        assert sopwl["objective_value"] == pytest.approx(pwl["objective_value"], rel=1e-4)

    def test_sopwl_alone_matches_both(self, tmp_path, cases_dir, count_solves):
        solves = count_solves()
        common = ["--case", str(cases_dir / "branching6.json"), "--segments", "10"]
        metas = {}
        for mode in ("sopwl", "both"):
            out = tmp_path / mode
            assert main(["solve", *common, "--mode", mode, "--out", str(out)]) == 0
            metas[mode] = json.loads((out / "sopwl" / "run.json").read_text())
        # neither run solves a MILP: --mode sopwl is certified by the LP
        # screen; --mode both answers pwl from its LP relaxation and lifts
        # that optimum
        assert solves == []
        assert metas["sopwl"]["sopwl_path"] == "lp_screen"
        assert metas["both"]["sopwl_path"] == "lifted"
        alone, both = (metas[m]["objective_value"] for m in ("sopwl", "both"))
        assert alone == pytest.approx(both, rel=1e-4)
        assert metas["sopwl"]["violations"] == metas["both"]["violations"] == 0

    def test_sopwl_seconds_cover_the_pwl_run(self, tmp_path, cases_dir, monkeypatch):
        # under --mode both the sopwl answer rests on the pwl run, so sopwl's
        # solve_seconds covers the pwl run's as well as its own
        real_answer = cli._pwl_answer

        def slow_answer(pwl, relaxation, adapter):
            time.sleep(0.2)
            return real_answer(pwl, relaxation, adapter)

        monkeypatch.setattr(cli, "_pwl_answer", slow_answer)
        out = tmp_path / "run"
        args = ["--case", str(cases_dir / "twobus.json"), "--mode", "both", "--segments", "5"]
        assert main(["solve", *args, "--out", str(out)]) == 0
        meta = {m: json.loads((out / m / "run.json").read_text()) for m in ("pwl", "sopwl")}
        assert meta["sopwl"]["sopwl_path"] == "lifted"
        assert meta["pwl"]["solve_seconds"] >= 0.2
        assert meta["sopwl"]["solve_seconds"] >= meta["pwl"]["solve_seconds"]

    def test_sopwl_alone_seconds_cover_the_relaxation(self, tmp_path, cases_dir, monkeypatch):
        # --mode sopwl alone solves the pwl relaxation within its own clock,
        # but builds the pwl model outside it: a build is not a solve
        real_relax = solvers.ScipyMilpAdapter.relax
        real_build = cli.build_distflow

        def slow_relax(adapter, model):
            time.sleep(0.2)
            return real_relax(adapter, model)

        def slow_build(model, case, options):
            if options.mode == "pwl":
                time.sleep(0.5)
            return real_build(model, case, options)

        monkeypatch.setattr(solvers.ScipyMilpAdapter, "relax", slow_relax)
        monkeypatch.setattr(cli, "build_distflow", slow_build)
        out = tmp_path / "run"
        args = ["--case", str(cases_dir / "tinyq3.json"), "--segments", "2", "--mode", "sopwl"]
        assert main(["solve", *args, "--out", str(out)]) == 0
        meta = json.loads((out / "sopwl" / "run.json").read_text())
        assert meta["sopwl_path"] == "lp_screen"
        assert 0.2 <= meta["solve_seconds"] < 0.5

    def test_solver_output_goes_to_log(self, tmp_path, cases_dir, monkeypatch, capfd):
        real_run = solvers._HighsSession.run

        def noisy(session):
            os.write(1, b"solver noise\n")
            return real_run(session)

        monkeypatch.setattr(solvers._HighsSession, "run", noisy)
        out = tmp_path / "run"
        status = main(
            [
                "solve",
                "--case", str(cases_dir / "twobus.json"),
                "--segments", "5",
                "--out", str(out),
            ]
        )
        captured = capfd.readouterr()
        assert status == 0
        assert (out / "pwl" / "solver.log").read_bytes() == b"solver noise\n"
        assert "solver noise" not in captured.out + captured.err
        # the run's own summary still reaches the user
        assert "[pwl] status=optimal" in captured.out

    def test_highs_option_warning_stays_silent(self, tmp_path, cases_dir, capfd):
        # scipy warns that it passes solvers.ZI_ROUND_OPTION to HiGHS
        # verbatim; the adapter keeps that warning out of the log and the
        # terminal
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        out = tmp_path / "run"
        args = ["--case", str(cases_dir / "twobus.json"), "--mode", "both", "--segments", "5"]
        with warnings.catch_warnings():
            # print every warning, as a plain interpreter run would, instead
            # of handing it to pytest's recorder
            warnings.simplefilter("always")
            warnings.showwarning = show
            assert main(["solve", *args, "--out", str(out)]) == 0
        captured = capfd.readouterr()
        for text in (
            captured.out,
            captured.err,
            *((out / mode / "solver.log").read_text() for mode in ("pwl", "sopwl")),
        ):
            assert "Unrecognized options" not in text

    def test_unset_settings_take_run_config_defaults(self, tmp_path, cases_dir):
        out = tmp_path / "run"
        assert main(["solve", "--case", str(cases_dir / "twobus.json"), "--out", str(out)]) == 0
        meta = json.loads((out / "pwl" / "run.json").read_text())
        assert (meta["mode"], meta["segments"], meta["objective_variant"]) == (
            "pwl",
            50,
            "restoration",
        )
        assert sorted(p.name for p in out.iterdir()) == ["pwl"]
        assert (out / "pwl" / "report.txt").is_file()

    def test_config_file_overrides_flags(self, tmp_path, cases_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_segments": 4}))
        out = tmp_path / "run"
        status = main(
            [
                "solve",
                "--case", str(cases_dir / "empty2bus.json"),
                "--segments", "9",
                "--out", str(out),
                "--config", str(cfg),
            ]
        )
        assert status == 0
        meta = json.loads((out / "pwl" / "run.json").read_text())
        assert meta["segments"] == 4


class TestSopwlFallback:
    """``vlimited3``: voltage bounds keep the LP relaxation from being tight,
    so the loss-minimising LP leaves block ``1-2:P`` unordered at every
    segment count and the ordering MILP has to run."""

    def _solve(self, tmp_path, cases_dir, mode, segments):
        out = tmp_path / mode
        common = ["--case", str(cases_dir / "vlimited3.json"), "--segments", str(segments)]
        assert main(["solve", *common, "--mode", mode, "--out", str(out)]) == 0
        return {
            m: json.loads((out / m / "run.json").read_text())
            for m in ("pwl", "sopwl")
            if (out / m).is_dir()
        }

    def test_ordered_pwl_lifts(self, tmp_path, cases_dir):
        metas = self._solve(tmp_path, cases_dir, "both", 2)
        assert metas["sopwl"]["sopwl_path"] == "lifted"

    def test_screen_fails_and_milp_runs(self, tmp_path, cases_dir):
        alone = self._solve(tmp_path, cases_dir, "sopwl", 4)["sopwl"]
        assert alone["sopwl_path"] == "milp"
        assert alone["status"] == "optimal"
        assert alone["violations"] == 0
        # plain PWL over-estimates what can be restored (0.0705 against
        # 0.0655 pu): its unordered fillings under-count the losses
        metas = self._solve(tmp_path, cases_dir, "both", 4)
        assert metas["sopwl"]["sopwl_path"] == "milp"
        assert metas["sopwl"]["objective_value"] == pytest.approx(alone["objective_value"], rel=1e-4)
        assert metas["pwl"]["objective_value"] > 1.05 * metas["sopwl"]["objective_value"]


    def test_tiny_reactive_limit_is_screened(self, tmp_path, cases_dir):
        # tinyq3: the only DG's reactive limit is 7.98e-8 pu. Stage 2, held
        # within 1e-7 pu of the bound and started from stage 1's basis, is
        # optimal, and the screen certifies its point
        case = load_case(cases_dir / "tinyq3.json")
        pwl = _build(case, RunConfig(case="tinyq3", num_segments=2), "pwl")
        relaxed = solvers.ScipyMilpAdapter().relax(pwl.model).refine(pwl.isqr)
        assert relaxed.status == "optimal"
        assert relaxed.mip_dual_bound == pytest.approx(8.46e-6, rel=1e-2)
        # STAGE2_SLACK is absolute below |U| = 1
        assert relaxed.mip_dual_bound - relaxed.objective_value <= 1e-7 + 1e-12
        out = tmp_path / "run"
        args = ["--case", str(cases_dir / "tinyq3.json"), "--segments", "2", "--mode", "sopwl"]
        assert main(["solve", *args, "--out", str(out)]) == 0
        meta = json.loads((out / "sopwl" / "run.json").read_text())
        assert meta["sopwl_path"] == "lp_screen"
        assert meta["status"] == "optimal"
        assert meta["violations"] == 0
        assert meta["objective_value"] == pytest.approx(8.36e-6, rel=1e-2)
        assert meta["mip_dual_bound"] == pytest.approx(8.46e-6, rel=1e-2)

    def test_solve_seconds_leave_out_the_adapter(self, tmp_path, cases_dir, monkeypatch):
        # the sopwl clock starts once the adapter exists, so making it (on a
        # first solve, scipy's import) is not counted as solve time
        real_make = RunConfig.make_adapter

        def slow_make(config):
            time.sleep(0.3)
            return real_make(config)

        monkeypatch.setattr(RunConfig, "make_adapter", slow_make)
        out = tmp_path / "run"
        args = ["--case", str(cases_dir / "tinyq3.json"), "--segments", "2", "--mode", "sopwl"]
        assert main(["solve", *args, "--out", str(out)]) == 0
        meta = json.loads((out / "sopwl" / "run.json").read_text())
        assert meta["sopwl_path"] == "lp_screen"
        assert meta["solve_seconds"] < 0.3

    def test_relaxation_not_optimal_falls_to_milp(self, tmp_path, cases_dir, monkeypatch):
        # a relaxation that is not optimal sends the case to the MILP
        monkeypatch.setattr(
            solvers.ScipyMilpAdapter,
            "relax",
            lambda self, model: solvers.Relaxation(model, None, None, "infeasible"),
        )
        out = tmp_path / "run"
        args = ["--case", str(cases_dir / "tinyq3.json"), "--segments", "2", "--mode", "sopwl"]
        assert main(["solve", *args, "--out", str(out)]) == 0
        text = (out / "sopwl" / "run.json").read_text()
        meta = json.loads(text)
        assert meta["sopwl_path"] == "milp"
        assert meta["status"] == "optimal"
        assert meta["violations"] == 0
        # HiGHS's zero bound of the negated objective is written unsigned
        assert meta["objective_value"] == 0.0
        assert '"mip_dual_bound": 0.0' in text


class TestFailedSolve:
    """A solve that raises, or that ends without a point, still writes
    run.json: the keys of a solved run and the model's sizes, with null in
    every field that needs a point."""

    SIZES = ("vars", "rows", "nnz", "binaries")

    @staticmethod
    def _solve(tmp_path, cases_dir, name):
        out = tmp_path / name
        args = ["--case", str(cases_dir / "tinyq3.json"), "--segments", "2", "--mode", "sopwl"]
        status = main(["solve", *args, "--out", str(out)])
        return status, json.loads((out / "sopwl" / "run.json").read_text())

    def test_solver_raises(self, tmp_path, cases_dir, monkeypatch, capsys):
        _, solved = self._solve(tmp_path, cases_dir, "solved")

        def relax(self, model):
            raise RuntimeError("no HiGHS today")

        monkeypatch.setattr(solvers.ScipyMilpAdapter, "relax", relax)
        capsys.readouterr()
        status, meta = self._solve(tmp_path, cases_dir, "failed")
        assert status == 1
        assert "[sopwl] solver failure: no HiGHS today" in capsys.readouterr().err
        assert list(meta) == list(solved)
        assert [meta[k] for k in self.SIZES] == [solved[k] for k in self.SIZES]
        assert meta["status"] == "error"
        assert [k for k, v in meta.items() if v is not None] == [
            "case", "mode", "segments", "objective_variant", "status", *self.SIZES
        ]

    def test_solve_ends_without_a_point(self, tmp_path, cases_dir, monkeypatch, capsys):
        _, solved = self._solve(tmp_path, cases_dir, "solved")
        monkeypatch.setattr(
            solvers.ScipyMilpAdapter,
            "relax",
            lambda self, model: solvers.Relaxation(model, None, None, "infeasible"),
        )
        infeasible = milp.Solution("infeasible", 0.0, mip_node_count=3, mip_gap=0.5)
        monkeypatch.setattr(milp, "solve", lambda model, adapter: infeasible)
        capsys.readouterr()
        status, meta = self._solve(tmp_path, cases_dir, "failed")
        assert status == 1
        assert "[sopwl] solve ended with status infeasible" in capsys.readouterr().err
        assert list(meta) == list(solved)
        assert [meta[k] for k in self.SIZES] == [solved[k] for k in self.SIZES]
        assert (meta["status"], meta["sopwl_path"]) == ("infeasible", "milp")
        assert (meta["mip_node_count"], meta["mip_gap"], meta["mip_dual_bound"]) == (3, 0.5, None)
        assert meta["solve_seconds"] >= 0.0
        point = ("objective_value", "max_e_p_percent", "violations")
        assert [meta[k] for k in point] == [None, None, None]


class TestBadSettings:
    """Bad run settings stop the run with exit code 2 before anything is built."""

    def _run(self, tmp_path, cases_dir, capsys, extra):
        out = tmp_path / "run"
        status = main(["solve", "--case", str(cases_dir / "twobus.json"), "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert status == 2
        assert not out.exists()
        return err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--timeout", "-5"),
            ("--timeout", "0"),
            ("--timeout", "nan"),
            ("--zero-flow-floor", "-1"),
            ("--zero-flow-floor", "nan"),
        ],
    )
    def test_flag_rejected(self, tmp_path, cases_dir, capsys, flag, value):
        err = self._run(tmp_path, cases_dir, capsys, [flag, value])
        assert err.startswith(f"error: {flag[2:]} must be a positive finite number")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"num_segments": "5"}', "segments must be an integer, got '5'"),
            ('{"num_segments": 2.5}', "segments must be an integer, got 2.5"),
            ('{"timeout": "60"}', "timeout must be a positive finite number"),
            ("[1]", "config file must hold a JSON object, not a list"),
            ('{"objective": "bogus"}', "unknown objective 'bogus'"),
            ('{"segment": 4}', "unknown config keys: ['segment']"),
        ],
    )
    def test_config_rejected(self, tmp_path, cases_dir, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        err = self._run(tmp_path, cases_dir, capsys, ["--config", str(cfg)])
        assert err.startswith(f"error: {message}")


class TestValidate:
    def _solve(self, tmp_path, cases_dir, mode="sopwl"):
        out = tmp_path / "run"
        assert (
            main(
                [
                    "solve",
                    "--case", str(cases_dir / "twobus.json"),
                    "--mode", mode,
                    "--segments", "10",
                    "--out", str(out),
                ]
            )
            == 0
        )
        return out / mode / "twobus_sopwl.sol"

    def test_round_trip(self, tmp_path, cases_dir, capsys):
        sol_path = self._solve(tmp_path, cases_dir)
        status = main(
            [
                "validate",
                "--case", str(cases_dir / "twobus.json"),
                "--mode", "sopwl",
                "--segments", "10",
                "--solution", str(sol_path),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "sweep converged" in out
        assert "root slack injection" in out

    def test_missing_variables_counted(self, tmp_path, cases_dir, capsys):
        sol_path = self._solve(tmp_path, cases_dir)
        # the solution leaves the reactive-power segments at zero: dropping
        # their lines changes no value
        lines = sol_path.read_text().splitlines()
        kept = [ln for ln in lines if not (ln.startswith("Q_1_2_d") and float(ln.split()[1]) == 0.0)]
        dropped = len(lines) - len(kept)
        assert dropped > 0
        sol_path.write_text("\n".join(kept) + "\n")
        status = main(
            [
                "validate",
                "--case", str(cases_dir / "twobus.json"),
                "--mode", "sopwl",
                "--segments", "10",
                "--solution", str(sol_path),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert f"{dropped} variables missing from the solution, read as 0" in out

    def test_tampered_solution(self, tmp_path, cases_dir, capsys):
        sol_path = self._solve(tmp_path, cases_dir)
        lines = sol_path.read_text().splitlines()
        tampered = []
        for ln in lines:
            if ln.startswith("P_1_2_d1 "):
                ln = "P_1_2_d1 0.005"
            tampered.append(ln)
        sol_path.write_text("\n".join(tampered) + "\n")
        status = main(
            [
                "validate",
                "--case", str(cases_dir / "twobus.json"),
                "--mode", "sopwl",
                "--segments", "10",
                "--solution", str(sol_path),
            ]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "VIOLATED" in out

    def test_diverging_sweep_is_one_line(self, tmp_path, capsys):
        # a full 1 + 1j pu load behind a 1 + 1j pu branch has no power-flow
        # solution, so the exact sweep of a solution that restores it diverges
        case = {
            "name": "diverge",
            "bases": {"s_base_mva": 10.0, "v_base_kv": 12.66},
            "buses": [{"id": 1}, {"id": 2}],
            "branches": [{"from": 1, "to": 2, "r_pu": 1.0, "x_pu": 1.0, "i_max_amps": 50.0}],
            "loads": [{"bus": 2, "p_pu": 1.0, "q_pu": 1.0}],
            "generators": [],
        }
        case_path = tmp_path / "diverge.json"
        case_path.write_text(json.dumps(case))
        common = ["--case", str(case_path), "--segments", "2"]
        assert main(["solve", *common, "--out", str(tmp_path / "run")]) == 0
        sol_path = tmp_path / "run" / "pwl" / "diverge_pwl.sol"
        lines = sol_path.read_text().splitlines()
        # the pwl LP vertex leaves -0.0 where a MILP point leaves 0.0
        unrestored = {"beta_2 0.0", "beta_2 -0.0"}
        assert len(unrestored.intersection(lines)) == 1
        sol_path.write_text("\n".join("beta_2 1.0" if ln in unrestored else ln for ln in lines))
        capsys.readouterr()
        status = main(["validate", *common, "--solution", str(sol_path)])
        captured = capsys.readouterr()
        assert status == 1
        out = captured.out.splitlines()
        assert out[:2] == ["VIOLATED balanceP_2 by 1.000e+00", "VIOLATED balanceQ_2 by 1.000e+00"]
        assert re.fullmatch(
            r"exact sweep did not converge in 50 iterations \(last voltage change \S+ pu\)",
            out[-1],
        )
        assert "converge" not in "\n".join(out[:-1])
        assert "Traceback" not in captured.out + captured.err
        assert captured.err == ""

    def test_solution_path_is_a_directory(self, tmp_path, cases_dir, capsys):
        args = ["--case", str(cases_dir / "twobus.json"), "--segments", "2"]
        assert main(["validate", *args, "--solution", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_value_rejected(self, tmp_path, cases_dir, capsys):
        sol_path = self._solve(tmp_path, cases_dir)
        lines = sol_path.read_text().splitlines()
        bad = [f"{ln.split()[0]} nan" if ln.startswith("P_1_2_d1 ") else ln for ln in lines]
        sol_path.write_text("\n".join(bad) + "\n")
        capsys.readouterr()
        status = main(
            [
                "validate",
                "--case", str(cases_dir / "twobus.json"),
                "--mode", "sopwl",
                "--segments", "10",
                "--solution", str(sol_path),
            ]
        )
        assert status == 2
        assert capsys.readouterr().err == "error: non-finite value in line 'P_1_2_d1 nan'\n"

    def test_solution_of_another_solver(self, tmp_path, cases_dir, capsys):
        # another solver reads the exported LP and writes the solution text
        # format; its status token is read case-insensitively
        common = ["--case", str(cases_dir / "twobus.json"), "--mode", "pwl", "--segments", "5"]
        assert main(["export-lp", *common, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "twobus_pwl.lp").read_text().startswith("\\ twobus_pwl\n")
        sol_path = tmp_path / "other.sol"
        sol_path.write_text("Infeasible\n")
        capsys.readouterr()
        status = main(["validate", *common, "--solution", str(sol_path)])
        assert status == 1
        assert capsys.readouterr().out == "solution status is infeasible; nothing to validate\n"
