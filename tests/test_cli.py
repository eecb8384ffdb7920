"""Instance parsing, the five commands, exit codes, and output formats."""

import dataclasses
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vceo
from vceo import InstanceParseError
from vceo.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_OUTSIDE_CONDITION,
    EXIT_PARSE,
    EXIT_VERIFY_FAIL,
    SWEEP_COLUMNS,
    Options,
    main,
    parse_instance,
    serialize_instance,
)

CANONICAL_DOC = {
    "model": {"sigma_s2": 1.0, "sigma_n1_2": 1.0, "sigma_n2_2": 1.0},
    "targets": {"d1": 0.4, "d2": 0.4, "d0": 0.35},
    "options": {"starts": 2, "seed": 0},
}


@pytest.fixture
def canonical(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(CANONICAL_DOC))
    return str(path)


def write_instance(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def child_env(**extra):
    """Environment of a child that imports the same vceo as this process, from
    src/ or an installed copy, and nothing from the working directory."""
    paths = [str(Path(vceo.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **extra)


RUN_IN_CHILD = """
import contextlib, io, json, sys
import vceo, vceo.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append((vceo.cli.main(argv), out.getvalue()))
print(json.dumps({"runs": runs, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_in_child(argvs, **env):
    """Exit codes and standard outputs of ``vceo.cli.main`` on each argv, run one
    after another in a fresh interpreter, and the scipy modules it loaded."""
    argv = [sys.executable, "-c", RUN_IN_CHILD, json.dumps(argvs)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(**env), check=True)
    return json.loads(proc.stdout)


class TestInstanceParsing:
    def test_round_trip_is_canonical(self):
        spec = parse_instance(json.dumps(CANONICAL_DOC))
        text = serialize_instance(spec)
        assert serialize_instance(parse_instance(text)) == text

    def test_defaults_applied(self):
        doc = {k: v for k, v in CANONICAL_DOC.items() if k != "options"}
        spec = parse_instance(json.dumps(doc))
        assert spec.options == Options()

    def test_syntax_error_reports_line(self):
        with pytest.raises(InstanceParseError, match=r"line \d+"):
            parse_instance('{"model": {,}}')

    def test_missing_field_reports_field(self):
        doc = {"model": {"sigma_s2": 1.0, "sigma_n1_2": 1.0}, "targets": CANONICAL_DOC["targets"]}
        with pytest.raises(InstanceParseError, match="model.sigma_n2_2"):
            parse_instance(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = dict(CANONICAL_DOC, extra={"x": 1})
        with pytest.raises(InstanceParseError, match="extra"):
            parse_instance(json.dumps(doc))

    def test_non_numeric_rejected(self):
        doc = json.loads(json.dumps(CANONICAL_DOC))
        doc["targets"]["d0"] = True
        with pytest.raises(InstanceParseError, match="targets.d0"):
            parse_instance(json.dumps(doc))

    def test_invalid_ordering_rejected(self):
        doc = json.loads(json.dumps(CANONICAL_DOC))
        doc["targets"]["d0"] = 0.5
        with pytest.raises(InstanceParseError, match="targets"):
            parse_instance(json.dumps(doc))


class TestSumRateCommand:
    def test_canonical_matches_lower_bound(self, canonical, capsys):
        assert main(["sum-rate", "--instance", canonical, "--output", "json"]) == EXIT_OK
        ach = json.loads(capsys.readouterr().out)
        assert main(["lower-bound", "--instance", canonical, "--output", "json"]) == EXIT_OK
        lb = json.loads(capsys.readouterr().out)
        # Inside the condition the seed is the matching construction, whose
        # sum rate equals the bound; the optimizer only polishes it.
        assert abs(ach["sum_rate"] - lb["lower_bound"]) / lb["lower_bound"] <= 1e-12
        assert lb["lower_bound"] <= ach["sum_rate"] + 1e-9

    def test_rate_at_an_extreme_variance_ratio_respects_the_bound(self, tmp_path, capsys):
        # Outside the condition at n2/n1 = 1e8 the reported scheme leaves encoder
        # 2's descriptions at the W_CAP_FACTOR cap, where the log-det route
        # printed 0.6315 against this bound of 0.8575.
        doc = {
            "model": {"sigma_s2": 1.0, "sigma_n1_2": 1e-4, "sigma_n2_2": 1e4},
            "targets": {"d1": 0.3, "d2": 0.6, "d0": 0.25},
        }
        path = write_instance(tmp_path, doc)
        assert main(["sum-rate", "--instance", path, "--output", "json"]) == EXIT_OK
        ach = json.loads(capsys.readouterr().out)
        assert main(["lower-bound", "--instance", path, "--output", "json"]) == EXIT_OK
        lb = json.loads(capsys.readouterr().out)
        assert ach["sum_rate"] >= lb["lower_bound"] * (1.0 - 1e-9)

    def test_slack_targets_need_almost_no_rate(self, tmp_path, capsys):
        doc = {
            "model": CANONICAL_DOC["model"],
            "targets": {"d1": 0.95, "d2": 0.95, "d0": 0.9},
            "options": {"starts": 2},
        }
        path = write_instance(tmp_path, doc)
        assert main(["sum-rate", "--instance", path, "--output", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["sum_rate"] <= 0.3

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{model: oops}")
        assert main(["sum-rate", "--instance", str(path)]) == EXIT_PARSE
        assert "line" in capsys.readouterr().err

    def test_infeasible_targets_exit_2(self, tmp_path, capsys):
        doc = {"model": CANONICAL_DOC["model"], "targets": {"d1": 0.5, "d2": 0.5, "d0": 0.2}}
        path = write_instance(tmp_path, doc)
        assert main(["sum-rate", "--instance", path]) == EXIT_INFEASIBLE
        assert "d0" in capsys.readouterr().err

    def test_grid_flag_is_accepted_and_calls_the_bound_once(self, canonical, capsys, monkeypatch):
        # The bound no longer scans, so --grid sizes nothing, but it stays accepted.
        calls = []
        original = vceo.bound.lower_bound

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(vceo.bound, "lower_bound", recording)
        assert main(["sum-rate", "--instance", canonical, "--grid", "16"]) == EXIT_OK
        assert len(calls) == 1

    def test_bits_flag_rescales(self, canonical, capsys):
        main(["sum-rate", "--instance", canonical, "--output", "json"])
        nats = json.loads(capsys.readouterr().out)["sum_rate"]
        main(["sum-rate", "--instance", canonical, "--output", "json", "--bits"])
        bits = json.loads(capsys.readouterr().out)["sum_rate"]
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)


class TestLowerBoundCommand:
    def test_outside_condition_still_reports_with_note(self, tmp_path, capsys):
        doc = {"model": CANONICAL_DOC["model"], "targets": {"d1": 0.5, "d2": 0.5, "d0": 0.345}}
        path = write_instance(tmp_path, doc)
        assert main(["lower-bound", "--instance", path, "--output", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["condition_holds"] is False
        assert "not guaranteed" in out["note"]

    def test_deterministic_output(self, canonical, capsys):
        main(["lower-bound", "--instance", canonical])
        first = capsys.readouterr().out
        main(["lower-bound", "--instance", canonical])
        assert capsys.readouterr().out == first

    def test_start_that_misses_the_manifold_by_roundoff_exits_2(self, tmp_path, capsys):
        # d0 one ulp above the floor, where the scan's own start does not project
        # onto P: the target rule's margin rejects it before the bound runs.
        doc = {
            "model": {
                "sigma_s2": 1.422829204038726,
                "sigma_n1_2": 0.010860901950254886,
                "sigma_n2_2": 0.018071794797504252,
            },
            "targets": {
                "d1": 0.018203468167278386,
                "d2": 0.010000375474435132,
                "d0": 0.006751690415097433,
            },
        }
        path = write_instance(tmp_path, doc)
        assert main(["lower-bound", "--instance", path]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert all(part in err for part in TestRemoteMmseFloor.FLOOR_MESSAGE)

    def test_value_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The whole JSON output, exactly.  Under two BLAS threads SLSQP stopped on its
        # start with status 4 on the first instance, and the value read from there
        # was 3.7% high; on the second, inside the condition, its argmin moved, and
        # with it every output of the three commands.
        outside = {
            "model": {
                "sigma_s2": 5.663602538571031,
                "sigma_n1_2": 0.11279823080889358,
                "sigma_n2_2": 25.855864736477002,
            },
            "targets": {
                "d1": 0.14387571314568925,
                "d2": 4.220265884355086,
                "d0": 0.13581970117415154,
            },
        }
        inside = {
            "model": {
                "sigma_s2": 1.7366423333733307,
                "sigma_n1_2": 2.633000774894365,
                "sigma_n2_2": 3.05582084550693,
            },
            "targets": {
                "d1": 0.9030228393855092,
                "d2": 0.9911818176283645,
                "d0": 0.8649028172733694,
            },
        }
        runs = [["lower-bound", write_instance(tmp_path, outside, "outside.json")]]
        runs += [[command, write_instance(tmp_path, inside)] for command in ("lower-bound", "verify", "sum-rate")]
        argvs = [[command, "--instance", path, "--output", "json"] for command, path in runs]
        outputs = [run_in_child(argvs, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
        assert all(code == EXIT_OK for code, _ in outputs[0]["runs"])
        assert outputs[1]["runs"] == outputs[0]["runs"]

    def test_no_command_loads_scipy(self, canonical):
        # scipy took about 0.35 s of every command's start-up, for the bound's solver.
        argvs = [[command, "--instance", canonical] for command in ("verify", "lower-bound", "sum-rate")]
        argvs.append(["mc-check", "--instance", canonical, "--n", "1000"])
        result = run_in_child(argvs)
        assert [code for code, _ in result["runs"]] == [EXIT_OK] * 4
        assert result["scipy"] == []

    def test_tol_flag_is_checked_and_unused(self, canonical, capsys):
        # The bound runs no optimizer, so --tol leaves its output alone.
        argv = ["lower-bound", "--instance", canonical, "--output", "json"]
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(argv + ["--tol", "1e-20"]) == EXIT_OK
        assert capsys.readouterr().out == plain


class TestVerifyCommand:
    def test_pass_on_condition_holding_instance(self, canonical, capsys):
        assert main(["verify", "--instance", canonical, "--output", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "PASS"
        assert out["identity_diff"] <= 1e-9
        assert out["relative_gap"] <= 1e-3

    def test_identity_is_exact_where_the_informations_vanish(self, tmp_path, capsys):
        # asym_noise_in: encoder 1 is on F_k2 (a = 0, sigma_z = 0), where the
        # conditional information is 0 and the identity holds to roundoff.
        doc = {
            "model": {"sigma_s2": 1.0, "sigma_n1_2": 0.3, "sigma_n2_2": 3.0},
            "targets": {"d1": 0.225, "d2": 0.225, "d0": 0.222},
        }
        path = write_instance(tmp_path, doc)
        assert main(["verify", "--instance", path, "--output", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["cases"][0] == "F_k2"
        assert out["conditional_mi"][0] == 0.0
        assert out["identity_diff"] <= 1e-14

    def test_outside_condition_exits_4(self, tmp_path, capsys):
        # Feasible targets: below the floor 1/3, verify exits 2 (TestRemoteMmseFloor).
        doc = {"model": CANONICAL_DOC["model"], "targets": {"d1": 0.6, "d2": 0.6, "d0": 0.4}}
        path = write_instance(tmp_path, doc)
        assert main(["verify", "--instance", path]) == EXIT_OUTSIDE_CONDITION
        assert "outside" in capsys.readouterr().out

    @staticmethod
    def identity_off_by(monkeypatch, ulps):
        """The matching construction reports rhs = lhs moved up by ``ulps`` ulps."""
        construct = vceo.equivalence.construct_matching_scheme

        def moved(*args, **kwargs):
            report = construct(*args, **kwargs)
            rhs = report.lhs
            for _ in range(ulps):
                rhs = math.nextafter(rhs, math.inf)
            return dataclasses.replace(report, rhs=rhs)

        monkeypatch.setattr(vceo.equivalence, "construct_matching_scheme", moved)

    def test_tampered_tolerance_fails(self, canonical, capsys, monkeypatch):
        self.identity_off_by(monkeypatch, 3)
        assert main(["verify", "--instance", canonical, "--tol", "0"]) == EXIT_VERIFY_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_bit_equal_identity_passes_at_zero_tolerance(self, canonical, capsys, monkeypatch):
        self.identity_off_by(monkeypatch, 0)
        assert main(["verify", "--instance", canonical, "--tol", "0"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out


class TestToleranceValidation:
    @pytest.mark.parametrize(
        "command, tol",
        [("verify", "nan"), ("verify", "-1"), ("verify", "inf"), ("sum-rate", "nan")],
    )
    def test_non_finite_or_negative_flag_is_a_parse_error(self, canonical, capsys, command, tol):
        assert main([command, "--instance", canonical, "--tol", tol]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--tol" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_instance_option_rejected(self, tmp_path, capsys, tol):
        doc = dict(CANONICAL_DOC, options={"tol": tol})
        with pytest.raises(InstanceParseError, match="options.tol"):
            parse_instance(json.dumps(doc))
        path = write_instance(tmp_path, doc)
        assert main(["verify", "--instance", path]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")


class TestGridValidation:
    @pytest.mark.parametrize(
        "command, grid", [("lower-bound", "2"), ("lower-bound", "-4"), ("sum-rate", "0")]
    )
    def test_grid_below_three_flag_is_a_parse_error(self, canonical, capsys, command, grid):
        assert main([command, "--instance", canonical, "--grid", grid]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--grid" in captured.err
        assert captured.out == ""

    def test_grid_below_three_instance_option_rejected(self, tmp_path, capsys):
        doc = dict(CANONICAL_DOC, options={"grid": 2})
        with pytest.raises(InstanceParseError, match="options.grid"):
            parse_instance(json.dumps(doc))
        path = write_instance(tmp_path, doc)
        assert main(["lower-bound", "--instance", path]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")

    def test_smallest_grid_reports_the_bound(self, canonical, capsys):
        args = ["lower-bound", "--instance", canonical, "--grid", "3", "--output", "json"]
        assert main(args) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["lower_bound"] == pytest.approx(4.0312864262549, rel=1e-12)


class TestStartsValidation:
    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_fewer_than_one_start_flag_is_a_parse_error(self, canonical, capsys, starts):
        assert main(["sum-rate", "--instance", canonical, "--starts", starts]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--starts" in captured.err
        assert captured.out == ""

    def test_fewer_than_one_start_instance_option_rejected(self, tmp_path, capsys):
        doc = dict(CANONICAL_DOC, options={"starts": 0})
        with pytest.raises(InstanceParseError, match="options.starts"):
            parse_instance(json.dumps(doc))
        path = write_instance(tmp_path, doc)
        assert main(["sum-rate", "--instance", path]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")

    def test_one_start_runs(self, tmp_path, capsys):
        doc = {"model": CANONICAL_DOC["model"], "targets": {"d1": 0.6, "d2": 0.6, "d0": 0.4}}
        path = write_instance(tmp_path, doc)
        assert main(["sum-rate", "--instance", path, "--starts", "1", "--output", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["achieved_distortions"]["delta_0"] <= 0.4 + 1e-9


class TestSeedValidation:
    """Seeds lie in [0, 2**128), the key range of the Monte-Carlo generator, on
    every command; a seed outside it fails before the bound or the optimizer runs."""

    # Outside the condition, where sum-rate seeds the optimizer's own generator.
    OUTSIDE = {"model": CANONICAL_DOC["model"], "targets": {"d1": 0.6, "d2": 0.6, "d0": 0.4}}

    @pytest.fixture
    def no_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work ran before the seed was checked")

        monkeypatch.setattr(vceo.scheme, "optimize_sum_rate", forbidden)
        monkeypatch.setattr(vceo.bound, "lower_bound", forbidden)

    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["-1", "2**128"])
    @pytest.mark.parametrize("command", ["sum-rate", "mc-check"])
    def test_out_of_range_seed_flag_is_a_parse_error(self, tmp_path, capsys, no_work, command, seed):
        path = write_instance(tmp_path, self.OUTSIDE)
        assert main([command, "--instance", path, "--seed", seed]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["-1", "2**128"])
    @pytest.mark.parametrize("command", ["sum-rate", "mc-check"])
    def test_out_of_range_seed_instance_option_rejected(
        self, tmp_path, capsys, no_work, command, seed
    ):
        doc = dict(self.OUTSIDE, options={"seed": seed})
        with pytest.raises(InstanceParseError, match="options.seed"):
            parse_instance(json.dumps(doc))
        path = write_instance(tmp_path, doc)
        assert main([command, "--instance", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: options.seed") and captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "--seed must be in [0, 2**128), got -1"),
            ("--starts", "0", "--starts must be >= 1, got 0"),
        ],
    )
    def test_integer_flag_message_states_the_range_as_documented(
        self, tmp_path, capsys, no_work, flag, value, message
    ):
        path = write_instance(tmp_path, self.OUTSIDE)
        assert main(["sum-rate", "--instance", path, flag, value]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_largest_seed_runs(self, tmp_path, capsys):
        path = write_instance(tmp_path, dict(self.OUTSIDE, options={"starts": 1}))
        args = ["mc-check", "--instance", path, "--seed", str(2**128 - 1), "--n", "100"]
        assert main(args + ["--output", "json"]) in (EXIT_OK, EXIT_VERIFY_FAIL)
        assert json.loads(capsys.readouterr().out)["seed"] == 2**128 - 1


class TestConstructionIsTheAnswer:
    """Inside the distortion condition the matching construction is the achievable scheme."""

    SWEEP = ["--var", "d0", "--start", "0.34", "--stop", "0.36", "--steps", "2"]

    @pytest.mark.parametrize(
        "command, extra",
        [("verify", []), ("sum-rate", []), ("mc-check", ["--n", "20000"]), ("sweep", SWEEP)],
    )
    def test_optimizer_never_runs(self, canonical, capsys, monkeypatch, command, extra):
        def forbidden(*args, **kwargs):
            raise AssertionError("the optimizer ran although the construction meets the targets")

        monkeypatch.setattr(vceo.scheme, "optimize_sum_rate", forbidden)
        assert main([command, "--instance", canonical] + extra) == EXIT_OK
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "sum-rate"])
    def test_infeasible_construction_seeds_the_optimizer(
        self, canonical, capsys, monkeypatch, command
    ):
        # The first feasibility check is the CLI's, on the construction.
        feasible = vceo.scheme._is_feasible
        checks, seeds = [], []
        optimize = vceo.scheme.optimize_sum_rate

        def first_check_fails(*args, **kwargs):
            checks.append(args)
            return len(checks) > 1 and feasible(*args, **kwargs)

        def recording(model, targets, opts):
            seeds.append(opts.warm_start)
            return optimize(model, targets, opts)

        monkeypatch.setattr(vceo.scheme, "_is_feasible", first_check_fails)
        monkeypatch.setattr(vceo.scheme, "optimize_sum_rate", recording)
        assert main([command, "--instance", canonical]) == EXIT_OK
        assert len(seeds) == 1 and seeds[0] is not None
        assert seeds[0] == checks[0][2]


class TestSweepCommand:
    def test_header_and_condition_column(self, canonical, capsys):
        code = main(
            [
                "sweep",
                "--instance",
                canonical,
                "--var",
                "d0",
                "--start",
                "0.34",
                "--stop",
                "0.36",
                "--steps",
                "3",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [r[5] for r in rows] == ["true", "true", "true"]
        gaps = [float(r[4]) for r in rows]
        assert max(abs(g) for g in gaps) <= 1e-3 * 5  # absolute nats at this scale

    def test_single_step_matches_point_commands(self, canonical, capsys):
        main(["lower-bound", "--instance", canonical, "--output", "json"])
        lb = json.loads(capsys.readouterr().out)["lower_bound"]
        main(
            [
                "sweep",
                "--instance",
                canonical,
                "--var",
                "d0",
                "--start",
                "0.35",
                "--stop",
                "0.35",
                "--steps",
                "1",
            ]
        )
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(lb, rel=1e-10)  # CSV carries 12 digits

    def test_infeasible_points_emit_nan_rows(self, canonical, capsys):
        main(
            [
                "sweep",
                "--instance",
                canonical,
                "--var",
                "d0",
                "--start",
                "0.30",
                "--stop",
                "0.30",
                "--steps",
                "1",
            ]
        )
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[2] == "nan" and row[5] == "false"

    @pytest.mark.parametrize("var", ["d0", "sigma_n2_2"])
    def test_zero_valued_points_emit_nan_rows(self, canonical, capsys, var):
        args = ["sweep", "--instance", canonical, "--var", var]
        assert main(args + ["--start", "0", "--stop", "0.35", "--steps", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",") == [var, "0", "nan", "nan", "nan", "false"]
        assert "nan" not in lines[2]


    @pytest.mark.parametrize("var, value", [("sigma_n1_2", "-0.5"), ("sigma_s2", "-1"), ("d1", "0.2")])
    def test_rows_that_form_no_instance_are_outside_the_condition(
        self, canonical, capsys, var, value
    ):
        args = ["sweep", "--instance", canonical, "--var", var, "--start", value]
        assert main(args + ["--stop", value, "--steps", "1"]) == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[2:] == ["nan", "nan", "nan", "false"]


class TestRemoteMmseFloor:
    # Model (1, 1, 1) has the floor Var(S | X1, X2) = 1/3: d0 exactly at it,
    # and d0 one step below it outside the distortion condition.  The targets
    # also lie below sigma_s2 = 1, and d1 = 1.5 does not: outside the condition too.
    # d0 = floor (1 + 2e-14) lies within the margin, where doubles no longer
    # resolve the rate and verify used to exit 3.
    AT_FLOOR = {"d1": 0.4, "d2": 0.4, "d0": 0.3333333333333333}
    NEAR_FLOOR = {"d1": 0.4, "d2": 0.4, "d0": 0.33333333333334}
    BELOW_FLOOR = {"d1": 0.6, "d2": 0.6, "d0": 0.33333333333333315}
    AT_CEILING = {"d1": 1.5, "d2": 0.5, "d0": 0.45}
    FLOOR_MESSAGE = ("target d0 = ", "remote MMSE floor", "relative margin 1e-07")

    @pytest.mark.parametrize(
        "targets, message",
        [
            (AT_FLOOR, FLOOR_MESSAGE),
            (BELOW_FLOOR, FLOOR_MESSAGE),
            (NEAR_FLOOR, FLOOR_MESSAGE),
            (AT_CEILING, ("max(d1, d2) = 1.5", "below sigma_s2 = 1.0")),
        ],
        ids=["at", "below", "near", "ceiling"],
    )
    @pytest.mark.parametrize(
        "command, extra",
        [("sum-rate", []), ("lower-bound", []), ("verify", []), ("mc-check", ["--n", "20000"])],
    )
    def test_every_command_exits_2_naming_the_target(
        self, tmp_path, capsys, targets, message, command, extra
    ):
        path = write_instance(tmp_path, {"model": CANONICAL_DOC["model"], "targets": targets})
        assert main([command, "--instance", path, *extra]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert all(part in err for part in message)

    def test_sweep_prints_the_row_at_the_floor_as_nan(self, tmp_path, capsys):
        doc = {"model": CANONICAL_DOC["model"], "targets": self.AT_FLOOR}
        args = ["sweep", "--instance", write_instance(tmp_path, doc), "--var", "d0"]
        d0 = repr(self.AT_FLOOR["d0"])
        assert main(args + ["--start", d0, "--stop", d0, "--steps", "1"]) == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row == "d0,0.333333333333,nan,nan,nan,true"


class TestMcCheckCommand:
    def test_pass_and_reproducible(self, canonical, capsys):
        args = ["mc-check", "--instance", canonical, "--n", "200000", "--output", "json"]
        assert main(args) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert first["status"] == "PASS"
        assert main(args) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == first

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_fewer_than_two_samples_is_a_parse_error(self, canonical, capsys, monkeypatch, n):
        def forbidden(*args, **kwargs):
            raise AssertionError("the optimizer ran before --n was checked")

        monkeypatch.setattr(vceo.scheme, "optimize_sum_rate", forbidden)
        assert main(["mc-check", "--instance", canonical, "--n", n]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--n" in captured.err
        assert captured.out == ""

    def test_small_n_remains_well_defined(self, canonical, capsys):
        assert main(
            ["mc-check", "--instance", canonical, "--n", "10", "--output", "json"]
        ) in (EXIT_OK, EXIT_VERIFY_FAIL)
        out = json.loads(capsys.readouterr().out)
        assert out["n_samples"] == 10


class TestCliPlumbing:
    def test_csv_output_rejected_outside_sweep(self, canonical, capsys):
        assert main(["sum-rate", "--instance", canonical, "--output", "csv"]) == EXIT_PARSE

    @staticmethod
    def _assert_help(proc):
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: vceo")
        assert "sum-rate" in proc.stdout

    def test_console_script_help(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vceo", "--help"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )
        self._assert_help(proc)

    def test_calls_in_one_process_print_what_fresh_processes_print(self, canonical, capsys):
        # main builds its parser once per process; each later call reuses it.
        for argv in (
            ["verify", "--instance", canonical, "--bits", "--output", "json"],
            ["verify", "--instance", canonical, "--output", "json"],
            ["lower-bound", "--instance", canonical, "--grid", "16", "--output", "json"],
        ):
            code = main(argv)
            out = capsys.readouterr().out
            proc = subprocess.run(
                [sys.executable, "-m", "vceo", *argv], capture_output=True, text=True, env=child_env()
            )
            assert (code, out) == (proc.returncode, proc.stdout)

    def test_console_script_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["vceo"] == "vceo.cli:main"
        module, attr = scripts["vceo"].split(":")
        target = getattr(importlib.import_module(module), attr)
        assert target is main and callable(target)

    @pytest.mark.skipif(shutil.which("vceo") is None, reason="vceo console script not installed")
    def test_installed_console_script_help(self, tmp_path):
        proc = subprocess.run(["vceo", "--help"], capture_output=True, text=True, cwd=tmp_path)
        self._assert_help(proc)
