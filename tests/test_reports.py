"""Report records: round trips, deterministic bodies, digests."""

from conftest import report_body_json, report_from_json
from eprbell.reports import CheckRecord, build_report, digest_inputs, report_to_json


def _sample_report():
    checks = [
        CheckRecord(
            name="alpha",
            anchor="a = a",
            inputs_digest=digest_inputs({"n": 3}),
            measured={"value": 1.5, "items": [1, 2]},
            tolerance=1e-9,
            passed=True,
        ),
        CheckRecord(
            name="beta",
            anchor="b = b",
            inputs_digest=digest_inputs({"n": 4}),
            measured={"value": -0.25},
            tolerance=1e-12,
            passed=False,
        ),
    ]
    return build_report(
        {"name": "eprbell", "version": "0.1.0"},
        {"kind": "epr", "lambda": 0.0, "mu": 0.0},
        checks,
        {"alpha": 0.12, "beta": 0.05, "total": 0.17},
    )


def test_overall_pass_is_conjunction():
    report = _sample_report()
    assert report.overall_pass is False
    report.checks[1].passed = True
    rebuilt = build_report(report.tool, report.state_spec, report.checks, report.wall_clock_s)
    assert rebuilt.overall_pass is True


def test_json_round_trip_lossless():
    report = _sample_report()
    loaded = report_from_json(report_to_json(report))
    assert loaded == report


def test_body_excludes_timings():
    report = _sample_report()
    body = report_body_json(report)
    assert "wall_clock_s" not in body
    # a different timing profile must not change the body
    other = _sample_report()
    other.wall_clock_s = {"alpha": 9.0, "total": 9.0}
    assert report_body_json(other) == body


def test_digest_stable_and_order_insensitive():
    assert digest_inputs({"a": 1, "b": 2}) == digest_inputs({"b": 2, "a": 1})
    assert digest_inputs({"a": 1}) != digest_inputs({"a": 2})
    assert len(digest_inputs("x")) == 16


def test_bounds_default_empty_and_round_trip():
    report = _sample_report()
    assert report.checks[0].bounds == []
    report.checks[1].bounds = [["value", ">=", 0.0], ["value", "<=", 1.0]]
    loaded = report_from_json(report_to_json(report))
    assert loaded == report
    assert '"bounds": [["value", ">=", 0.0], ["value", "<=", 1.0]]' in report_body_json(report)
