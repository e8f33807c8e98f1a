"""Command-line surface: subcommands, exit codes, report determinism."""

import json
import math

import pytest

from eprbell.cli import main
from eprbell.reports import report_body_json, report_from_json


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


class TestBell:
    def _family_config(self, tmp_path, seed=0):
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

    def test_family_reaches_analytic_maximum(self, tmp_path):
        cfg = self._family_config(tmp_path)
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
        cfg = self._family_config(tmp_path, seed=11)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["bell", cfg, "--out", out1]) == 0
        assert main(["bell", cfg, "--out", out2]) == 0
        body1 = report_body_json(report_from_json(open(out1).read()))
        body2 = report_body_json(report_from_json(open(out2).read()))
        assert body1 == body2

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self._family_config(tmp_path, seed=11)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["bell", cfg, "--seed", "12", "--out", out1]) == 0
        assert main(["bell", cfg, "--seed", "11", "--out", out2]) == 0
        d1 = report_from_json(open(out1).read()).checks[0].inputs_digest
        d2 = report_from_json(open(out2).read()).checks[0].inputs_digest
        assert d1 != d2

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

    def test_identical_seeds_identical_bodies(self, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["verify-all", "--seed", "7", "--out", out1]) == 0
        assert main(["verify-all", "--seed", "7", "--out", out2]) == 0
        body1 = report_body_json(report_from_json(open(out1).read()))
        body2 = report_body_json(report_from_json(open(out2).read()))
        assert body1 == body2
