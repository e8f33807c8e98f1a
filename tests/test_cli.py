"""Command-line surface: subcommands, exit codes, report determinism."""

import json
import math

import pytest

from eprbell.cli import CHECKS, main
from eprbell.reports import report_body_json, report_from_json
from eprbell.states import IDENTITY_TOL


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

    def test_wrong_dimension_exits_2(self, tmp_path):
        poly = _write(tmp_path / "p.json", [{"point": ["1", "0"], "re": 1.0, "im": 0.0}])
        assert main(["eval", poly]) == 2

    def test_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", str(bad)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["eval", "/nonexistent/poly.json"]) == 2

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
        report = report_from_json(open(out).read())
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

    def test_wall_clock_splits_kernel_psd_and_support(self, tmp_path, epr_state_file):
        pts = _write(
            tmp_path / "pts.json",
            [["0", "0", "0", "0"], ["1", "0", "-1", "0"], ["1", "0", "0", "0"]],
        )
        out = str(tmp_path / "rep.json")
        assert main(["psd", pts, "--state", epr_state_file, "--out", out]) == 0
        timings = report_from_json(open(out).read()).wall_clock_s
        assert set(timings) == {"kernel_s", "psd_s", "support_s", "total"}
        parts = timings["kernel_s"] + timings["psd_s"] + timings["support_s"]
        assert min(timings.values()) >= 0 and parts <= timings["total"]

    def test_duplicate_points_exit_2(self, tmp_path):
        pts = _write(
            tmp_path / "pts.json",
            [["0", "0", "0", "0"], ["0", "0", "0", "0"]],
        )
        assert main(["psd", pts]) == 2

    def test_too_many_points_exit_2(self, tmp_path):
        pts = _write(
            tmp_path / "pts.json",
            [[str(k), "0", "0", "0"] for k in range(257)],
        )
        assert main(["psd", pts]) == 2

    def test_empty_points_exit_2(self, tmp_path):
        pts = _write(tmp_path / "pts.json", [])
        assert main(["psd", pts]) == 2


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
        report = report_from_json(open(out).read())
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
        report = report_from_json(open(out).read())
        assert report.checks[0].measured["value"] == pytest.approx(1.0, abs=1e-12)

    def test_identical_seeds_identical_bodies(self, tmp_path):
        cfg = _family_config(tmp_path, seed=11)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["bell", cfg, "--out", out1]) == 0
        assert main(["bell", cfg, "--out", out2]) == 0
        body1 = report_body_json(report_from_json(open(out1).read()))
        body2 = report_body_json(report_from_json(open(out2).read()))
        assert body1 == body2

    def test_wall_clock_splits_search_and_certify(self, tmp_path):
        cfg = _family_config(tmp_path)
        out = str(tmp_path / "rep.json")
        assert main(["bell", cfg, "--out", out]) == 0
        timings = report_from_json(open(out).read()).wall_clock_s
        assert set(timings) == {"search_s", "certify_s", "total"}
        parts = timings["search_s"] + timings["certify_s"]
        assert min(timings.values()) > 0 and parts <= timings["total"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _family_config(tmp_path, seed=11)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["bell", cfg, "--seed", "12", "--out", out1]) == 0
        assert main(["bell", cfg, "--seed", "11", "--out", out2]) == 0
        d1 = report_from_json(open(out1).read()).checks[0].inputs_digest
        d2 = report_from_json(open(out2).read()).checks[0].inputs_digest
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
        measured = report_from_json(open(out).read()).checks[0].measured
        assert measured["reproduced_value"] == measured["value"]

    def test_evaluation_cap_exits_3(self, tmp_path, capsys):
        cfg = json.loads(open(_family_config(tmp_path)).read())
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
        cfg = json.loads(open(_family_config(tmp_path)).read())
        path = _write(tmp_path / "keys.json", dict(cfg, **{key: 0.25}))
        assert main(["bell", path]) == 2
        err = capsys.readouterr().err
        assert path in err and f"'{key}'" in err

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
        cfg = json.loads(open(_family_config(tmp_path)).read())
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

    def test_frame_gram_positivity_exits_1(self, capsys, monkeypatch):
        import eprbell.gns

        # an all -1 Gram matrix has eigenvalue -9 on the 9-point frame
        monkeypatch.setattr(eprbell.gns, "eval_poly", lambda state, p: -1.0)
        assert main(["verify-all", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "verification failed: frame Gram is not positive" in err


class TestSurrogate:
    def test_dim_two_reports_sqrt2(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["surrogate", "--dim", "2", "--out", out]) == 0
        report = report_from_json(open(out).read())
        chsh = next(c for c in report.checks if c.name == "surrogate_chsh")
        assert abs(chsh.measured["value"] - math.sqrt(2)) <= 1e-12

    def test_dim_sixteen_same_value(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["surrogate", "--dim", "16", "--out", out]) == 0
        report = report_from_json(open(out).read())
        chsh = next(c for c in report.checks if c.name == "surrogate_chsh")
        assert abs(chsh.measured["value"] - math.sqrt(2)) <= 1e-12

    def test_odd_dim_exits_2(self):
        assert main(["surrogate", "--dim", "5"]) == 2


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
        assert report_from_json(open(out).read()).overall_pass

    def test_state_spec_embedded_verbatim(self, tmp_path):
        spec = {"kind": "epr", "lambda": 0.5, "mu": 0.25, "note": "battery 7"}
        state = _write(tmp_path / "state.json", spec)
        pts = _write(tmp_path / "pts.json", [["0", "0", "0", "0"]])
        out = str(tmp_path / "rep.json")
        assert main(["psd", pts, "--state", state, "--out", out]) == 0
        assert report_from_json(open(out).read()).state_spec == spec


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


class TestMalformedStateSpec:
    @pytest.mark.parametrize("command", ["psd", "verify-all"])
    @pytest.mark.parametrize(
        "spec, names",
        [
            ([1, 2], "JSON object"),
            ({"lambda": "nan"}, "'lambda'"),
            ({"lambda": "inf"}, "'lambda'"),
            ({"mu": "-inf"}, "'mu'"),
        ],
    )
    def test_exits_2_naming_file_and_field(
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


    @pytest.mark.parametrize("command", ["psd", "verify-all"])
    @pytest.mark.parametrize(
        "spec, names",
        [
            ({"lambda": None}, "'lambda'"),
            ({"lambda": True}, "'lambda'"),
            ({"mu": False}, "'mu'"),
            ({"mu": [0.5]}, "'mu'"),
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
        report = report_from_json(open(out).read())
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
        report = report_from_json(open(out).read())
        failing = [c.name for c in report.checks if not c.passed]
        assert "kernel_psd" in failing

    def test_corrupt_epr_kernel_leaves_the_frame_gram_alone(self, tmp_path):
        # the corrupt control deflates the kernel that kernel_psd and
        # support_rank_one read, never the frame Gram
        state = _write(tmp_path / "corrupt.json", {"kind": "epr", "corrupt_kernel": True})
        out = str(tmp_path / "rep.json")
        assert main(["verify-all", "--seed", "0", "--state", state, "--out", out]) == 1
        verdicts = {}
        for c in report_from_json(open(out).read()).checks:
            verdicts.setdefault(c.name, []).append(c.passed)
        assert verdicts["gram_orthonormality"] == [True]
        assert not all(verdicts["kernel_psd"])
        assert not all(verdicts["support_rank_one"])

    def test_identical_seeds_identical_bodies(self, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["verify-all", "--seed", "7", "--out", out1]) == 0
        assert main(["verify-all", "--seed", "7", "--out", out2]) == 0
        body1 = report_body_json(report_from_json(open(out1).read()))
        body2 = report_body_json(report_from_json(open(out2).read()))
        assert body1 == body2


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
            for rec in report_from_json(open(out).read()).checks:
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
            for rec in report_from_json(open(out).read()).checks:
                assert rec.tolerance == CHECKS[rec.name].tolerance, rec.name
                names.add(rec.name)
        assert names == set(CHECKS)
        for name in ("uniqueness_support", "multiplicativity", "traciality"):
            assert CHECKS[name].tolerance == IDENTITY_TOL
        assert CHECKS["collinearity"].tolerance == IDENTITY_TOL
