"""Command-line surface: subcommands, exit codes, report determinism."""

import ast
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eprbell.bell
import eprbell.cli
import eprbell.gns
import eprbell.states
import eprbell.weyl
from conftest import report_body_json, report_from_json
from eprbell.cli import CHECKS, Check, _distinct_points, _rand_fraction, main
from eprbell.bell import CERTIFY_TOL
from eprbell.states import IDENTITY_TOL, PSD_TOL, EquivalenceError, StateFunctional


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def epr_state_file(tmp_path):
    return _write(tmp_path / "state.json", {"kind": "epr", "lambda": 1.0, "mu": 0.0})


class TestEval:
    def test_correlated_generator_value(self, tmp_path, epr_state_file, capsys):
        poly = _write(
            tmp_path / "p.json",
            [{"point": ["1", "0", "-1", "0"], "re": 1.0, "im": 0.0}],
        )
        assert main(["eval", poly, "--state", epr_state_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"({math.cos(1.0):.15g}, {math.sin(1.0):.15g})"

    def test_identity(self, tmp_path, capsys):
        poly = _write(
            tmp_path / "p.json",
            [{"point": ["0", "0", "0", "0"], "re": 1.0, "im": 0.0}],
        )
        assert main(["eval", poly]) == 0
        assert capsys.readouterr().out.strip() == "(1, 0)"

    def test_missing_file_exits_2(self):
        assert main(["eval", "/nonexistent/poly.json"]) == 2

    def test_wrong_dimension_names_the_file(self, tmp_path, capsys):
        poly = _write(tmp_path / "p.json", [{"point": ["1", "0"], "re": 1.0, "im": 0.0}])
        assert main(["eval", poly]) == 2
        err = capsys.readouterr().err
        assert f"error: {poly}: states are defined on the dimension-4 algebra" in err

    def test_mixed_dimensions_exit_2_naming_the_point(self, tmp_path, capsys):
        records = [
            {"point": ["1", "0", "-1", "0"], "re": 1.0, "im": 0.0},
            {"point": ["1", "0"], "re": 1.0, "im": 0.0},
        ]
        poly = _write(tmp_path / "p.json", records)
        assert main(["eval", poly]) == 2
        err = capsys.readouterr().err
        assert f"{poly}: point of length 2 in a dimension-4 polynomial" in err

    ONE = {"point": ["1", "0", "-1", "0"], "re": 1.0, "im": 0.0}

    @pytest.mark.parametrize(
        "data, says",
        [
            ([{**ONE, "re": True, "im": False}], "record 0: 're' must be a number, got True"),
            ([ONE, {**ONE, "re": None}], "record 1: 're' must be a number, got None"),
            ([{**ONE, "im": [0.0]}], "record 0: 'im' must be a number, got [0.0]"),
            ([{**ONE, "re": 10**400}], "record 0: 're' is past the range of a double"),
            ([{**ONE, "im": -(10**400)}], "record 0: 'im' is past the range of a double"),
            ([{"point": ONE["point"], "im": 0.0}], "record 0: key 're' is missing"),
            ([{"re": 1.0, "im": 0.0}], "record 0: key 'point' is missing"),
            ([ONE, ONE["point"]], "record 1: a record is a JSON object, not list"),
            (ONE, "records are a JSON array, not dict"),
            ([], "cannot infer dimension from an empty record list"),
        ],
    )
    def test_a_malformed_record_exits_2_naming_record_and_key(
        self, tmp_path, capsys, data, says
    ):
        poly = _write(tmp_path / "p.json", data)
        assert main(["eval", poly]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {poly}: {says}" in captured.err

    def test_infinite_coefficient_exits_2(self, tmp_path, capsys):
        poly = _write(
            tmp_path / "p.json",
            [
                {"point": ["0", "0", "0", "0"], "re": 1.0, "im": 0.0},
                {"point": ["1", "0", "-1", "0"], "re": "inf", "im": 0.0},
            ],
        )
        assert main(["eval", poly]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "record 1" in captured.err

    def test_coefficient_modulus_overflow_exits_2(self, tmp_path, capsys):
        # both parts are finite, but the modulus passes the largest double
        poly = _write(
            tmp_path / "p.json",
            [
                {"point": ["0", "0", "0", "0"], "re": 1.0, "im": 0.0},
                {"point": ["1", "0", "-1", "0"], "re": 1.7e308, "im": 1.7e308},
            ],
        )
        assert main(["eval", poly]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert poly in captured.err and "record 1" in captured.err
        assert "modulus" in captured.err

    @pytest.mark.parametrize(
        "second, value",
        [(["0", "0", "0", "0"], "nanj"), (["1", "0", "-1", "0"], "infj")],
    )
    def test_non_finite_value_exits_2(self, tmp_path, capsys, second, value):
        # two finite records whose sum overflows: at one point the
        # coefficient is inf + inf i and its value nan, at two it is inf
        records = [
            {"point": ["0", "0", "0", "0"], "re": 1e308, "im": 1e308},
            {"point": second, "re": 1e308, "im": 1e308},
        ]
        poly = _write(tmp_path / "p.json", records)
        assert main(["eval", poly]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert poly in captured.err and "is not finite" in captured.err
        assert value in captured.err


class TestPsd:
    def test_two_point_example_passes(self, tmp_path, capsys):
        pts = _write(
            tmp_path / "pts.json",
            [["0", "0", "0", "0"], ["1", "0", "-1", "0"]],
        )
        out = str(tmp_path / "rep.json")
        assert main(["psd", pts, "--out", out]) == 0
        report = report_from_json(Path(out).read_text())
        record = report.checks[0]
        assert record.name == "kernel_psd"
        assert abs(record.measured["min_eigenvalue"]) <= 1e-12

    def test_random_points_pass(self, tmp_path):
        import random

        rng = random.Random(90)
        pts = []
        seen = set()
        while len(pts) < 32:
            p = tuple(
                f"{rng.randint(-8, 8)}/{rng.randint(1, 6)}" for _ in range(4)
            )
            if p not in seen:
                seen.add(p)
                pts.append(list(p))
        path = _write(tmp_path / "pts.json", pts)
        assert main(["psd", path]) == 0

    def test_corrupted_kernel_fails(self, tmp_path):
        state = _write(
            tmp_path / "corrupt.json", {"kind": "regular", "corrupt_kernel": True}
        )
        pts = _write(
            tmp_path / "pts.json",
            [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        )
        assert main(["psd", pts, "--state", state]) == 1

    @pytest.mark.parametrize(
        "rows, bad", [(["0000"], "'0000'"), (["12", "34"], "'12'")]
    )
    def test_rows_that_are_not_arrays_exit_2(self, tmp_path, capsys, rows, bad):
        # a string row would unpack into one coordinate per character
        pts = _write(tmp_path / "pts.json", rows)
        assert main(["psd", pts]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{pts}: point 0: a point is an array of coordinates, not {bad}" in captured.err

    def test_kernel_built_once(self, tmp_path, epr_state_file, monkeypatch):
        # the support relation reads the kernel the positivity check built
        import eprbell.cli
        import eprbell.states

        calls = []
        original = eprbell.states.kernel_matrix

        def counting(*args):
            calls.append(1)
            return original(*args)

        for module in (eprbell.cli, eprbell.states):
            monkeypatch.setattr(module, "kernel_matrix", counting)
        pts = _write(
            tmp_path / "pts.json",
            [["0", "0", "0", "0"], ["1", "0", "-1", "0"], ["1", "0", "0", "0"]],
        )
        assert main(["psd", pts, "--state", epr_state_file]) == 0
        assert len(calls) == 1

    def test_later_calls_reach_a_patched_command(self, tmp_path, monkeypatch):
        # the parser is built once per process; main looks the command up
        # on every call
        pts = _write(tmp_path / "pts.json", [["0", "0", "0", "0"]])
        assert main(["psd", pts]) == 0
        seen = []
        monkeypatch.setattr(eprbell.cli, "cmd_psd", lambda args: seen.append(args.points) or 5)
        assert main(["psd", pts]) == 5
        assert seen == [pts]

    def test_wall_clock_splits_kernel_psd_and_support(self, tmp_path, epr_state_file):
        pts = _write(
            tmp_path / "pts.json",
            [["0", "0", "0", "0"], ["1", "0", "-1", "0"], ["1", "0", "0", "0"]],
        )
        out = str(tmp_path / "rep.json")
        assert main(["psd", pts, "--state", epr_state_file, "--out", out]) == 0
        timings = report_from_json(Path(out).read_text()).wall_clock_s
        assert set(timings) == {"kernel_s", "psd_s", "support_s", "total"}
        parts = timings["kernel_s"] + timings["psd_s"] + timings["support_s"]
        assert min(timings.values()) >= 0 and parts <= timings["total"]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "at least one point is required"),
            ([["1", "2"]], "point 0: states are defined on the dimension-4 algebra,"
                           " got 2 coordinates"),
            ([["0", "0", "0", "0"], ["0", "0", "0", "0"]], "points must be pairwise distinct"),
            ([[str(k), "0", "0", "0"] for k in range(257)],
             "at most 256 points per battery, got 257"),
            (5, "a points file is a JSON array, not int"),
            ({"a": 1}, "a points file is a JSON array, not dict"),
        ],
    )
    def test_kernel_rejections_name_the_file(self, tmp_path, capsys, rows, message):
        pts = _write(tmp_path / "pts.json", rows)
        assert main(["psd", pts]) == 2
        assert f"error: {pts}: {message}" in capsys.readouterr().err


def _family_config(tmp_path, seed=0):
    """A search over the monomial family, whose maximum is sqrt(2)/2."""
    return _write(
        tmp_path / "cfg.json",
        {
            "supports": [
                [["1", "2"], ["-1", "-2"]],
                [["1", "2"], ["-1", "-2"]],
                [["-1", "2"], ["1", "-2"]],
                [["-1", "2"], ["1", "-2"]],
            ],
            "restarts": 5,
            "max_iters": 150,
            "seed": seed,
        },
    )


class TestBell:
    def test_family_reaches_analytic_maximum(self, tmp_path):
        cfg = _family_config(tmp_path)
        out = str(tmp_path / "rep.json")
        assert main(["bell", cfg, "--out", out]) == 0
        report = report_from_json(Path(out).read_text())
        value = report.checks[0].measured["value"]
        assert abs(value - math.sqrt(2) / 2) <= 1e-6

    def test_identity_config_reaches_one(self, tmp_path):
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "supports": [[["0", "0"]]] * 4,
                "restarts": 3,
                "max_iters": 60,
                "seed": 4,
            },
        )
        out = str(tmp_path / "rep.json")
        assert main(["bell", cfg, "--out", out]) == 0
        report = report_from_json(Path(out).read_text())
        assert report.checks[0].measured["value"] == pytest.approx(1.0, abs=1e-12)

    def test_identical_seeds_identical_bodies(self, tmp_path):
        cfg = _family_config(tmp_path, seed=11)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["bell", cfg, "--out", out1]) == 0
        assert main(["bell", cfg, "--out", out2]) == 0
        body1 = report_body_json(report_from_json(Path(out1).read_text()))
        body2 = report_body_json(report_from_json(Path(out2).read_text()))
        assert body1 == body2

    def test_wall_clock_splits_search_and_certify(self, tmp_path):
        cfg = _family_config(tmp_path)
        out = str(tmp_path / "rep.json")
        assert main(["bell", cfg, "--out", out]) == 0
        timings = report_from_json(Path(out).read_text()).wall_clock_s
        assert set(timings) == {"search_s", "certify_s", "total"}
        parts = timings["search_s"] + timings["certify_s"]
        assert min(timings.values()) > 0 and parts <= timings["total"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _family_config(tmp_path, seed=11)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["bell", cfg, "--seed", "12", "--out", out1]) == 0
        assert main(["bell", cfg, "--seed", "11", "--out", out2]) == 0
        d1 = report_from_json(Path(out1).read_text()).checks[0].inputs_digest
        d2 = report_from_json(Path(out2).read_text()).checks[0].inputs_digest
        assert d1 != d2

    def test_engine_certifies_once(self, tmp_path, monkeypatch):
        # reproduced_value is the certification optimize_bell already made
        import eprbell.bell
        import eprbell.cli

        calls = []
        original = eprbell.bell.bell_value

        def counting(*args):
            calls.append(1)
            return original(*args)

        for module in (eprbell.cli, eprbell.bell):
            monkeypatch.setattr(module, "bell_value", counting)
        out = str(tmp_path / "rep.json")
        assert main(["bell", _family_config(tmp_path), "--out", out]) == 0
        assert len(calls) == 1
        measured = report_from_json(Path(out).read_text()).checks[0].measured
        assert measured["reproduced_value"] == measured["value"]

    @pytest.mark.parametrize("key", ["restarts", "max_iters"])
    def test_a_zero_count_exits_2(self, tmp_path, capsys, key):
        cfg = json.loads(Path(_family_config(tmp_path)).read_text())
        path = _write(tmp_path / "zero.json", dict(cfg, **{key: 0}))
        assert main(["bell", path]) == 2
        assert "restarts and max_iters must be positive" in capsys.readouterr().err

    def test_evaluation_cap_exits_3(self, tmp_path, capsys):
        cfg = json.loads(Path(_family_config(tmp_path)).read_text())
        path = _write(tmp_path / "big.json", dict(cfg, restarts=100_000_000))
        assert main(["bell", path]) == 3
        err = capsys.readouterr().err
        # 8 parameters, 150 sweeps of two trials each, one start per restart
        assert f"{100_000_000 * (1 + 2 * 150 * 8)} evaluations" in err
        assert "cap 1000000" in err

    @pytest.mark.parametrize("key", ["step_init", "step_decay", "step_floor", "restart"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, key):
        # the step schedule is fixed, so a config that sets one fails loudly
        # instead of running with a value it ignores, and so does a typo
        cfg = json.loads(Path(_family_config(tmp_path)).read_text())
        path = _write(tmp_path / "keys.json", dict(cfg, **{key: 0.25}))
        assert main(["bell", path]) == 2
        err = capsys.readouterr().err
        assert path in err and f"'{key}'" in err

    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
    @pytest.mark.parametrize(
        "spec, message",
        [
            ([], "a search config must be a JSON object, not list"),
            ("supports", "a search config must be a JSON object, not str"),
            ({}, "search config key 'supports' is missing"),
            ({"restarts": 2}, "search config key 'supports' is missing"),
            ({"supports": 5}, "search config key 'supports' must be a list of lists of points"),
            ({"supports": None}, "search config key 'supports' must be a list of lists of points"),
            ({"supports": "abcd"}, "search config key 'supports' must be a list of lists of points"),
            ({"supports": [5] * 4}, "search config key 'supports' must be a list of lists of points"),
            ({"supports": [["0", "0"]] * 4}, "support 0 point 0: a point is an array of coordinates, not '0'"),
            ({"supports": [[5]] * 4}, "support 0 point 0: a point is an array of coordinates, not 5"),
            ({"supports": [[["0", "0"]]] * 4, "steps": 1}, "unknown search config key(s) ['steps']"),
            ({"supports": [[["0", "0"]]]},
             "search config key 'supports' must hold one support per candidate slot (4), got 1"),
            ({"supports": [[["0", "0"]]] * 5},
             "search config key 'supports' must hold one support per candidate slot (4), got 5"),
            ({"supports": [[["0", "0"]]] * 3 + [[["1", "0"], ["-1", "0"], ["2/2", "0"]]]},
             "search config key 'supports': support 3 points must be distinct, got 2 distinct of 3"),
            ({"supports": [[["0", "0"]], [["0", "0", "0", "0"]]] + [[["0", "0"]]] * 2},
             "search config key 'supports': support 1 point 0 must have dimension 2, got 4"),
            ({"supports": [[["0", "0"]]] * 2 + [[["0", "0"], ["1", "2"], ["-1", "-2"], ["3", "1/2"]]]
              + [[["0", "0"]]]},
             "search config key 'supports': support 2 must be closed under negation,"
             " but lacks the negative of point 3"),
        ],
    )
    def test_malformed_config_exits_2_naming_the_key(self, tmp_path, capsys, spec, message, seed):
        path = _write(tmp_path / "c.json", spec)
        assert main(["bell", path, *seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: {message}\n"

    def test_seed_flag_replaces_the_file_seed(self, tmp_path, capsys):
        cfg = json.loads(Path(_family_config(tmp_path)).read_text())
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["bell", _write(tmp_path / "a.json", dict(cfg, seed=5)),
                     "--seed", "3", "--out", out1]) == 0
        assert main(["bell", _write(tmp_path / "b.json", dict(cfg, seed=3)), "--out", out2]) == 0
        r1, r2 = (report_from_json(Path(out).read_text()).checks[0] for out in (out1, out2))
        assert (r1.inputs_digest, r1.measured) == (r2.inputs_digest, r2.measured)
        # the file is read whole before --seed replaces its seed
        assert main(["bell", _write(tmp_path / "c.json", dict(cfg, seed="7")), "--seed", "3"]) == 2
        assert "seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("restarts", "1e400"),  # json reads it as inf
            ("restarts", "2.7"),
            ("restarts", "true"),
            ("max_iters", "150.5"),
            ("seed", "false"),
            ("seed", '"7"'),
        ],
    )
    def test_non_integer_count_exits_2(self, tmp_path, capsys, field, raw):
        cfg = json.loads(Path(_family_config(tmp_path)).read_text())
        text = json.dumps(dict(cfg, **{field: "VALUE"})).replace('"VALUE"', raw)
        path = tmp_path / "counts.json"
        path.write_text(text)
        assert main(["bell", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"{field} must be an integer" in err

    def test_oversized_supports_exit_3(self, tmp_path):
        # products over these supports would breach the 4096-term cap
        support = [["0", "0"]]
        for k in range(1, 41):
            support += [[str(k), "0"], [f"-{k}", "0"]]
        cfg = _write(
            tmp_path / "cfg.json",
            {"supports": [support] * 4, "restarts": 1, "max_iters": 2, "seed": 0},
        )
        assert main(["bell", cfg]) == 3


class TestEngineSelfChecks:
    """A failed engine self-check exits 1 with a one-line message, not a traceback."""

    def test_search_diverging_from_the_engine_exits_1(self, tmp_path, capsys, monkeypatch):
        import eprbell.bell

        original = eprbell.bell.bell_value
        monkeypatch.setattr(
            eprbell.bell, "bell_value", lambda *args: original(*args) + 1.0
        )
        cfg = _write(
            tmp_path / "cfg.json",
            {"supports": [[["0", "0"]]] * 4, "restarts": 1, "max_iters": 2},
        )
        assert main(["bell", cfg]) == 1
        err = capsys.readouterr().err
        assert "verification failed: search evaluation diverged from the engine" in err

    def test_matrix_model_invariant_exits_1(self, capsys, monkeypatch):
        import eprbell.surrogate

        monkeypatch.setattr(eprbell.surrogate, "BUILD_TOL", -1.0)
        assert main(["surrogate", "--dim", "2"]) == 1
        err = capsys.readouterr().err
        assert "verification failed: model invariant VV* = P fails" in err

    def test_projection_weight_exits_1(self, capsys, monkeypatch):
        import eprbell.surrogate

        monkeypatch.setattr(eprbell.surrogate, "expect_left", lambda model, a: 0.0)
        assert main(["surrogate", "--dim", "2"]) == 1
        err = capsys.readouterr().err
        assert "verification failed: projection weight <Omega, P Omega> is not 1/2" in err

    def test_frame_gram_positivity_exits_1(self, capsys, monkeypatch):
        import eprbell.gns

        # the 9-point frame's classes are singletons, so its Gram is -I
        monkeypatch.setattr(eprbell.gns, "eval_poly", lambda state, p: -1.0)
        assert main(["verify-all", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "verification failed: frame Gram is not positive" in err


class TestSurrogate:
    def test_dim_two_reports_sqrt2(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["surrogate", "--dim", "2", "--out", out]) == 0
        report = report_from_json(Path(out).read_text())
        chsh = next(c for c in report.checks if c.name == "surrogate_chsh")
        assert abs(chsh.measured["value"] - math.sqrt(2)) <= 1e-12

    def test_dim_sixteen_same_value(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["surrogate", "--dim", "16", "--out", out]) == 0
        report = report_from_json(Path(out).read_text())
        chsh = next(c for c in report.checks if c.name == "surrogate_chsh")
        assert abs(chsh.measured["value"] - math.sqrt(2)) <= 1e-12

    def test_negative_seed_is_named(self, capsys):
        assert main(["surrogate", "--dim", "4", "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --seed: expected non-negative integer" in captured.err

    @pytest.mark.parametrize("dim", ["5", "0", "66"])
    def test_bad_dim_is_named(self, capsys, dim):
        assert main(["surrogate", "--dim", dim]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --dim: factor dimension must be even" in captured.err


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        import subprocess
        import sys

        out = str(tmp_path / "rep.json")
        proc = subprocess.run(
            [sys.executable, "-m", "eprbell", "surrogate", "--dim", "2", "--out", out],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert report_from_json(Path(out).read_text()).overall_pass

    def test_state_spec_embedded_verbatim(self, tmp_path):
        spec = {"kind": "epr", "lambda": 0.5, "mu": 0.25, "note": "battery 7"}
        state = _write(tmp_path / "state.json", spec)
        pts = _write(tmp_path / "pts.json", [["0", "0", "0", "0"]])
        out = str(tmp_path / "rep.json")
        assert main(["psd", pts, "--state", state, "--out", out]) == 0
        assert report_from_json(Path(out).read_text()).state_spec == spec


class TestCoordinates:
    """Every input file's coordinates go through one parser: strings and ints
    only, no zero denominators; the error names the file, the record and the
    coordinate."""

    BAD = [(0.1, -0.1), (True, -1), ("1/0", "-1/0")]

    def _run(self, tmp_path, loader, bad, negated):
        if loader == "psd":
            pts = [["0", "0", "0", "0"], [bad, "0", "-1", "0"]]
            return _write(tmp_path / "pts.json", pts), ["psd"], "point 1"
        if loader == "bell":
            zero = [["0", "0"]]
            supports = [zero, zero, [[bad, "0"], [negated, "0"]], zero]
            cfg = {"supports": supports, "restarts": 1, "max_iters": 2}
            return _write(tmp_path / "cfg.json", cfg), ["bell"], "support 2 point 0"
        records = [
            {"point": ["0", "0", "0", "0"], "re": 1.0, "im": 0.0},
            {"point": [bad, "0", "0", "0"], "re": 1.0, "im": 0.0},
        ]
        return _write(tmp_path / "p.json", records), ["eval"], "record 1"

    @pytest.mark.parametrize("loader", ["psd", "bell", "eval"])
    @pytest.mark.parametrize("bad, negated", BAD)
    def test_exits_2_naming_file_record_and_coordinate(
        self, tmp_path, capsys, loader, bad, negated
    ):
        path, command, record = self._run(tmp_path, loader, bad, negated)
        assert main(command + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert path in captured.err and f"{record}: coordinate 0" in captured.err


class TestLatticeBudget:
    """An input whose common denominator passes ``weyl.LATTICE_BITS`` exits
    3 as it is read, naming the file and the bit size."""

    def test_psd_on_4000_digit_denominators_exits_3_at_once(self, tmp_path, capsys):
        dens = [str(10**3999 + 2 * k + 1) for k in range(256)]
        pts = _write(tmp_path / "pts.json", [[f"1/{d}", "0", f"-1/{d}", "0"] for d in dens])
        start = time.perf_counter()
        assert main(["psd", pts]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"{pts}: point 0: the common denominator has 13285 bits, past"
        assert f"resource cap exceeded: {message}" in captured.err

    def test_eval_on_distinct_1000_digit_denominators_exits_3(self, tmp_path, capsys):
        records = [
            {"point": [f"1/{d}", "0", f"-1/{d}", "0"], "re": 1.0, "im": 0.0}
            for d in (10**999 + 2 * k + 1 for k in range(64))
        ]
        poly = _write(tmp_path / "p.json", records)
        assert main(["eval", poly]) == 3
        err = capsys.readouterr().err
        assert f"{poly}: record 1: the common denominator has" in err

    def test_bell_support_of_a_5000_bit_denominator_exits_3(self, tmp_path, capsys):
        d = 2**4999 + 1
        zero = [["0", "0"]]
        supports = [[[f"1/{d}", "0"], [f"-1/{d}", "0"]], zero, zero, zero]
        cfg = _write(tmp_path / "cfg.json", {"supports": supports, "restarts": 1, "max_iters": 2})
        assert main(["bell", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{cfg}: support 0 point 0: the common denominator has 5000 bits" in err


class TestMalformedJson:
    """A file that is not JSON exits 2 naming the file, whichever argument
    it is."""

    @pytest.mark.parametrize(
        "command, slot",
        [
            ("eval", "polynomial"),
            ("eval", "state"),
            ("psd", "points"),
            ("psd", "state"),
            ("bell", "config"),
            ("bell", "state"),
            ("verify-all", "state"),
        ],
    )
    @pytest.mark.parametrize("text", ["", "{not json", '[["0", "0", "0", "0"]'])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, slot, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        good = {
            "polynomial": [{"point": ["0", "0", "0", "0"], "re": 1.0, "im": 0.0}],
            "points": [["0", "0", "0", "0"]],
            "config": {"supports": [[["0", "0"]]] * 4, "restarts": 1, "max_iters": 2},
        }
        argv = [command]
        if command != "verify-all":
            first = {"eval": "polynomial", "psd": "points", "bell": "config"}[command]
            argv.append(str(bad) if slot == first else _write(tmp_path / "in.json", good[first]))
        if slot == "state":
            argv += ["--state", str(bad)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {bad}: " in captured.err


class TestMalformedStateSpec:
    @pytest.mark.parametrize("command", ["psd", "verify-all"])
    @pytest.mark.parametrize(
        "spec, names",
        [
            ([1, 2], "JSON object"),
            ({"lambda": "nan"}, "'lambda'"),
            ({"lambda": "inf"}, "'lambda'"),
            ({"mu": "-inf"}, "'mu'"),
            # finite, but a*lambda + b*mu overflows where |a| or |b| >= 2
            ({"lambda": 1e308}, "'lambda'"),
            ({"lambda": -1e308}, "'lambda'"),
            ({"mu": 1e308}, "'mu'"),
        ],
    )
    def test_exits_2_naming_file_and_field(
        self, tmp_path, capsys, monkeypatch, command, spec, names
    ):
        state = _write(tmp_path / "state.json", spec)
        pts = _write(
            tmp_path / "pts.json", [["0", "0", "0", "0"], ["2", "2", "-2", "2"]]
        )
        finite, solve = [], np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            finite.append(bool(np.isfinite(a).all()))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        argv = ["psd", pts] if command == "psd" else ["verify-all"]
        assert main(argv + ["--state", state]) == 2
        err = capsys.readouterr().err
        assert names in err and all(finite)
        try:
            StateFunctional.from_spec(spec)
        except ValueError:  # the loader rejects the field, naming its file
            assert state in err
        else:  # the phase seam rejects the angle, naming the point
            assert "at the point" in err


    @pytest.mark.parametrize("command", ["psd", "verify-all"])
    @pytest.mark.parametrize(
        "spec, names",
        [
            ({"lambda": None}, "'lambda'"),
            ({"lambda": True}, "'lambda'"),
            ({"mu": False}, "'mu'"),
            ({"mu": [0.5]}, "'mu'"),
            ({"lambda": 10**400}, "state field 'lambda' is past the range of a double"),
            ({"mu": -(10**400)}, "state field 'mu' is past the range of a double"),
            ({"corrupt_kernel": "false"}, "'corrupt_kernel'"),
            ({"corrupt_kernel": 1}, "'corrupt_kernel'"),
            ({"corrupt_kernel": None}, "'corrupt_kernel'"),
        ],
    )
    def test_wrong_json_type_exits_2_naming_the_field(
        self, tmp_path, capsys, command, spec, names
    ):
        state = _write(tmp_path / "state.json", spec)
        pts = _write(
            tmp_path / "pts.json", [["0", "0", "0", "0"], ["1", "0", "-1", "0"]]
        )
        argv = ["psd", pts] if command == "psd" else ["verify-all"]
        assert main(argv + ["--state", state]) == 2
        err = capsys.readouterr().err
        assert state in err and names in err

    def test_numbers_as_ints_and_strings_stay_accepted(self, tmp_path):
        spec = {"lambda": 2, "mu": "-0.5", "corrupt_kernel": False}
        state = _write(tmp_path / "state.json", spec)
        pts = _write(
            tmp_path / "pts.json", [["0", "0", "0", "0"], ["1", "0", "-1", "0"]]
        )
        assert main(["psd", pts, "--state", state]) == 0


class TestVerifyAll:
    def test_default_state_passes(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["verify-all", "--seed", "0", "--out", out]) == 0
        report = report_from_json(Path(out).read_text())
        assert report.overall_pass
        names = {c.name for c in report.checks}
        assert {
            "kernel_psd",
            "support_rank_one",
            "uniqueness_support",
            "multiplicativity",
            "traciality",
            "collinearity",
            "gram_orthonormality",
            "bell_monomial_optimum",
            "surrogate_chsh",
            "correlation_law",
            "weyl_doubles",
            "matrix_doubles",
        } <= names

    def test_generic_parameters_pass(self, tmp_path):
        state = _write(
            tmp_path / "state.json", {"kind": "epr", "lambda": 3.7, "mu": -1.2}
        )
        assert main(["verify-all", "--state", state, "--seed", "5"]) == 0

    def test_corrupted_kernel_fails_on_psd(self, tmp_path, capsys):
        state = _write(
            tmp_path / "corrupt.json", {"kind": "regular", "corrupt_kernel": True}
        )
        out = str(tmp_path / "rep.json")
        assert main(["verify-all", "--state", state, "--out", out]) == 1
        report = report_from_json(Path(out).read_text())
        failing = [c.name for c in report.checks if not c.passed]
        assert "kernel_psd" in failing

    def test_corrupt_epr_kernel_leaves_the_frame_gram_alone(self, tmp_path):
        # the corrupt control deflates the kernel that kernel_psd and
        # support_rank_one read, never the frame Gram
        state = _write(tmp_path / "corrupt.json", {"kind": "epr", "corrupt_kernel": True})
        out = str(tmp_path / "rep.json")
        assert main(["verify-all", "--seed", "0", "--state", state, "--out", out]) == 1
        verdicts = {}
        for c in report_from_json(Path(out).read_text()).checks:
            verdicts.setdefault(c.name, []).append(c.passed)
        assert verdicts["gram_orthonormality"] == [True]
        assert not all(verdicts["kernel_psd"])
        assert not all(verdicts["support_rank_one"])

    def test_each_exact_row_is_read_once(self, tmp_path, monkeypatch):
        # every check reads each exact argument once and builds from the
        # (L, ints) it gets; a re-read of a point, a generator or a
        # Fraction view costs another call and its rows
        reads = []
        read = eprbell.weyl.read_lattice

        def counted(rows, label="point"):
            rows = list(rows)
            reads.append(len(rows))
            return read(rows, label)

        for module in (eprbell.weyl, eprbell.states, eprbell.bell, eprbell.gns):
            monkeypatch.setattr(module, "read_lattice", counted)
        assert main(["verify-all", "--seed", "0", "--out", str(tmp_path / "rep.json")]) == 0
        assert len(reads) <= 814 and sum(reads) <= 1241

    def test_batteries_draw_without_randint(self, monkeypatch):
        # the batteries draw their coordinates from a table; randint is left
        # with the Bell search seed and the numpy seed
        calls = []
        randint = random.Random.randint

        def counted(self, a, b):
            calls.append((a, b))
            return randint(self, a, b)

        monkeypatch.setattr(random.Random, "randint", counted)
        assert main(["verify-all", "--seed", "0"]) == 0
        assert calls == [(0, 2**31 - 1)] * 2

    @pytest.mark.parametrize("state", [None, {"kind": "epr", "lambda": 0.3, "mu": -1.1}],
                             ids=["default", "epr"])
    def test_every_product_is_formed_in_dimension_4(self, tmp_path, monkeypatch, state):
        # a dimension-2 product is the slot-1 product read back, which costs
        # two embeddings and a projection; no check should take that route
        dims = []
        multiply = eprbell.weyl.weyl_multiply

        def counted(p, q):
            dims.append(p.dim)
            return multiply(p, q)

        for module in (eprbell.weyl, eprbell.states, eprbell.bell, eprbell.gns):
            monkeypatch.setattr(module, "weyl_multiply", counted)
        argv = ["verify-all", "--seed", "0", "--out", str(tmp_path / "rep.json")]
        if state:
            argv += ["--state", _write(tmp_path / "state.json", state)]
        assert main(argv) == 0
        assert dims and set(dims) == {4}

    def test_identical_seeds_identical_bodies(self, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["verify-all", "--seed", "7", "--out", out1]) == 0
        assert main(["verify-all", "--seed", "7", "--out", out2]) == 0
        body1 = report_body_json(report_from_json(Path(out1).read_text()))
        body2 = report_body_json(report_from_json(Path(out2).read_text()))
        assert body1 == body2


def _fraction_keyed_points(rng, n, dim):
    """The battery draw before the fraction table: each coordinate a new
    Fraction of two randint calls, points deduplicated as Fraction tuples."""
    pts, seen = [], set()
    while len(pts) < n:
        pt = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(dim))
        if pt not in seen:
            seen.add(pt)
            pts.append(pt)
    return pts


#: Seeds as random.Random takes them: a negative one seeds as its absolute
#: value, and one past 2^64 fills more than two 32-bit words of the key.
_SEEDS = st.integers(-(2**80), 2**80)


class TestBatteryDraws:
    """The table draw takes the words randint takes, so each battery, and
    every later draw from its generator, is the one randint gave."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=_SEEDS, draws=st.integers(100, 600))
    @example(seed=-1, draws=300)
    @example(seed=2**64 + 1, draws=300)
    def test_a_draw_is_the_fraction_of_two_randints(self, seed, draws):
        a, b = random.Random(seed), random.Random(seed)
        got = [_rand_fraction(a) for _ in range(draws)]
        assert got == [Fraction(b.randint(-8, 8), b.randint(1, 6)) for _ in range(draws)]
        assert a.getstate() == b.getstate()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=_SEEDS, n=st.integers(0, 2000))
    @example(seed=-(2**70), n=2000)
    def test_distinct_points_are_the_fraction_keyed_draw(self, seed, n):
        # at n = 2000 of the 4,225 distinct points many draws repeat a
        # point, some as another numerator and denominator (2/4 for 1/2)
        a, b = random.Random(seed), random.Random(seed)
        assert _distinct_points(a, n, 2) == _fraction_keyed_points(b, n, 2)
        assert a.getstate() == b.getstate()


class TestRegistry:
    def test_one_anchor_and_tolerance_per_check(self, tmp_path):
        pts = _write(
            tmp_path / "pts.json", [["0", "0", "0", "0"], ["1", "0", "-1", "0"]]
        )
        runs = {
            "psd": ["psd", pts],
            "surrogate": ["surrogate", "--dim", "2"],
            "verify-all": ["verify-all", "--seed", "0"],
        }
        seen = {}
        for command, argv in runs.items():
            out = str(tmp_path / f"{command}.json")
            assert main(argv + ["--out", out]) == 0
            for rec in report_from_json(Path(out).read_text()).checks:
                seen.setdefault(rec.name, {})[command] = (rec.anchor, rec.tolerance)
        shared = {name: by for name, by in seen.items() if len(by) > 1}
        assert set(shared) == {
            "kernel_psd",
            "support_rank_one",
            "surrogate_chsh",
            "correlation_law",
            "matrix_doubles",
        }
        for name, by_command in shared.items():
            assert len(set(by_command.values())) == 1, (name, by_command)

    def test_every_record_carries_its_registry_tolerance(self, tmp_path):
        # no command overrides a tolerance, so every report states the one
        # threshold the registry declares for its check
        pts = _write(
            tmp_path / "pts.json", [["0", "0", "0", "0"], ["1", "0", "-1", "0"]]
        )
        regular = _write(tmp_path / "regular.json", {"kind": "regular"})
        runs = [
            ["verify-all", "--seed", "0"],
            ["verify-all", "--seed", "0", "--state", regular],
            ["psd", pts],
            ["bell", _family_config(tmp_path)],
            ["surrogate", "--dim", "4"],
        ]
        names = set()
        for i, argv in enumerate(runs):
            out = str(tmp_path / f"rep{i}.json")
            assert main(argv + ["--out", out]) == 0
            for rec in report_from_json(Path(out).read_text()).checks:
                assert rec.tolerance == CHECKS[rec.name].tolerance, rec.name
                names.add(rec.name)
        assert names == set(CHECKS)
        for name in ("uniqueness_support", "multiplicativity", "traciality"):
            assert CHECKS[name].tolerance == IDENTITY_TOL
        assert CHECKS["collinearity"].tolerance == IDENTITY_TOL
        # the engine's own thresholds, each declared once where it decides
        assert CHECKS["kernel_psd"].tolerance == PSD_TOL
        assert CHECKS["bell_search"].tolerance == CERTIFY_TOL

    def test_every_verdict_is_its_records_bounds(self, tmp_path, monkeypatch):
        pts = _write(
            tmp_path / "pts.json", [["0", "0", "0", "0"], ["1", "0", "-1", "0"]]
        )
        regular = _write(tmp_path / "regular.json", {"kind": "regular"})
        corrupt = _write(tmp_path / "corrupt.json", {"kind": "regular", "corrupt_kernel": True})
        runs = [
            (["verify-all", "--seed", "0"], 0),
            (["verify-all", "--seed", "0", "--state", regular], 0),
            (["psd", pts], 0),
            (["psd", pts, "--state", corrupt], 1),
            (["bell", _family_config(tmp_path)], 0),
            (["surrogate", "--dim", "4"], 0),
        ]

        def intransitive(m):
            raise EquivalenceError("support relation is not transitive")

        forced = [(["psd", pts], 1), (["verify-all", "--seed", "0"], 1)]
        records = []
        for i, (argv, code) in enumerate(runs + forced):
            if i == len(runs):
                monkeypatch.setattr(eprbell.cli, "support_relation", intransitive)
            out = str(tmp_path / f"rep{i}.json")
            assert main(argv + ["--out", out]) == code, argv
            checks = report_from_json(Path(out).read_text()).checks
            records += [(i >= len(runs), rec) for rec in checks]
        failed = set()
        for is_forced, rec in records:
            assert rec.bounds == [list(b) for b in CHECKS[rec.name].bounds], rec.name
            assert rec.passed == _bounds_hold(rec.bounds, rec.measured), rec.name
            if not rec.passed:
                failed.add(rec.name)
            if is_forced and rec.name == "support_rank_one":
                assert rec.measured == {"error": "support relation is not transitive"}
        assert failed == {"kernel_psd", "support_rank_one"}
        assert {rec.name for _, rec in records} == set(CHECKS)

    def test_a_sample_the_engine_fails_fails_its_check(self, tmp_path, monkeypatch):
        # off the support traciality demands exact zeros: a deviation of
        # 1e-13 there is within max_deviation's bound, but not a pass
        monkeypatch.setattr(
            eprbell.cli, "traciality_check",
            lambda state, a, b: {"deviation": 1e-13, "passed": False},
        )
        out = str(tmp_path / "rep.json")
        assert main(["verify-all", "--seed", "0", "--out", out]) == 1
        checks = report_from_json(Path(out).read_text()).checks
        assert [c.name for c in checks if not c.passed] == ["traciality"]
        record = next(c for c in checks if c.name == "traciality")
        assert record.measured["failed_samples"] == 100
        assert record.measured["max_deviation"] == 1e-13

    def test_engine_tolerances_match_their_bounds(self):
        # each record's bounds state its registry tolerance: kernel_psd's
        # is psd_check's PSD_TOL, support_rank_one's bounds the deviations
        # that rank_one_class_check measures
        assert CHECKS["kernel_psd"].bounds == (
            ("min_eigenvalue", ">=", -CHECKS["kernel_psd"].tolerance),
        )
        support = CHECKS["support_rank_one"]
        assert {limit for _, _, limit in support.bounds} == {support.tolerance}
        for check in CHECKS.values():
            assert check.bounds and all(op in ("<=", ">=") for _, op, _ in check.bounds)


class TestCheckRecord:
    """The verdict derived from a check's bounds."""

    CHECK = Check("toy", 1e-9, "a = a", (("low", "<=", 1e-9), ("high", ">=", 0.5)))

    def test_equality_at_each_limit_passes(self):
        rec = self.CHECK.record({}, {"low": 1e-9, "high": 0.5})
        assert rec.passed is True
        assert rec.bounds == [["low", "<=", 1e-9], ["high", ">=", 0.5]]
        assert rec.tolerance == 1e-9

    @pytest.mark.parametrize(
        "measured",
        [
            {"low": 2e-9, "high": 0.5},
            {"low": 0.0, "high": 0.49},
            {"high": 0.5},
            {"low": 0.0},
            {},
            {"low": math.nan, "high": 0.5},
            {"low": 0.0, "high": math.nan},
        ],
    )
    def test_a_bound_broken_missing_or_nan_fails(self, measured):
        assert self.CHECK.record({}, measured).passed is False

    def test_no_call_in_the_cli_passes_a_verdict(self):
        # every verdict comes from Check.record's bounds, none from a caller
        tree = ast.parse(Path(eprbell.cli.__file__).read_text())
        calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
        ]
        assert calls
        assert all(len(c.args) + len(c.keywords) <= 2 for c in calls)


def _bounds_hold(bounds, measured) -> bool:
    ops = {"<=": lambda v, limit: v <= limit, ">=": lambda v, limit: v >= limit}
    return all(
        key in measured and not math.isnan(measured[key]) and ops[op](measured[key], limit)
        for key, op, limit in bounds
    )
