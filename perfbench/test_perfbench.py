"""Tests of the benchmark itself: seeded inputs, oracles, spans, BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import gen  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent

# norm_lower_bound warns on every singular frame Gram, which the clustered
# frames are by design
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(tmp_path)


def run_op(ctx, workload, seed, index):
    op = workloads.make_op(ctx, workload, seed, index)
    result = op.run()
    return op, result


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_one_digest(workload):
    n = 2 * gen.CYCLES[workload]
    first = gen.digest(workload, 11, n)
    assert gen.digest(workload, 11, n) == first
    assert gen.digest(workload, 12, n) != first
    # and in a fresh interpreter, where str hashing is salted differently
    code = f"import gen; print(gen.digest({workload!r}, 11, {n}))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == first


def test_clustered_points_have_the_requested_classes():
    pts = gen.clustered_points(gen._rng("t"), 128, 32)
    assert len(set(pts)) == 128
    assert sorted(map(len, oracles.support_classes(pts).values())) == [32] * 4


def test_bell_catalog_is_covered_by_the_evaluation_table(ctx):
    keys = {f"o{o}c{c}/{s}" for o in gen.BELL_ORBITS for c in range(gen.BELL_CONFIGS)
            for s in range(gen.BELL_SEEDS)}
    assert set(ctx.evaluations) == keys


# ---------------------------------------------------------------------------
# oracles flag corrupted results


def test_psd_oracle_flags_flipped_verdict_and_wrong_class_count(ctx):
    op, code = run_op(ctx, "psd_batteries", 5, 3)  # 128 clustered points
    assert op.judge(code) == oracles.OK
    report = op.report
    assert oracles.judge_psd(op.spec, code, report) == oracles.OK

    flipped = copy.deepcopy(report)
    flipped["checks"][0]["passed"] = False
    flipped["overall_pass"] = False
    assert oracles.judge_psd(op.spec, 1, flipped) == oracles.WRONG

    miscounted = copy.deepcopy(report)
    miscounted["checks"][1]["measured"]["classes"] += 1
    assert oracles.judge_psd(op.spec, code, miscounted) == oracles.WRONG


def test_corrupt_control_is_correct_only_when_it_exits_1(ctx):
    op, code = run_op(ctx, "psd_batteries", 5, 5)  # 64-point corrupt control
    assert op.control and code == 1
    assert op.judge(code) == oracles.OK
    passed = copy.deepcopy(op.report)
    passed["overall_pass"] = True
    for check in passed["checks"]:
        check["passed"] = True
    assert oracles.judge_psd(op.spec, 0, passed) == oracles.WRONG


def _wide_report(spec, min_eigenvalue, cocycle):
    classes = len(oracles.support_classes([oracles.parse_point(p) for p in spec["points"]]))
    return {
        "overall_pass": False,
        "checks": [
            {"name": "kernel_psd", "passed": min_eigenvalue >= -1e-10, "tolerance": 1e-10,
             "measured": {"min_eigenvalue": min_eigenvalue, "points": spec["n"]}},
            {"name": "support_rank_one", "passed": cocycle <= 1e-9, "tolerance": 1e-9,
             "measured": {"classes": classes, "max_modulus_dev": 1e-12,
                          "max_cocycle_dev": cocycle, "max_cross_leak": 0.0}},
        ],
    }


def test_false_fail_needs_a_margin_within_phase_rounding():
    spec = gen.spec("psd_batteries", 5, 6)
    assert spec["family"] == "wide"
    delta, _ = oracles.phase_error_bound([oracles.parse_point(p) for p in spec["points"]],
                                         spec["state"])
    assert delta > 1e-9  # wide coordinates really are past double precision
    small = _wide_report(spec, -delta, delta)
    assert oracles.judge_psd(spec, 1, small) == oracles.FALSE_FAIL
    large = _wide_report(spec, -0.25, delta)
    assert oracles.judge_psd(spec, 1, large) == oracles.WRONG
    # the same margin on small coordinates is no rounding artefact
    clustered = gen.spec("psd_batteries", 5, 3)
    assert oracles.judge_psd(clustered, 1, _wide_report(clustered, -delta, delta)) \
        == oracles.WRONG


def test_positivity_oracle_flags_a_perturbed_value(ctx):
    op, value = run_op(ctx, "algebra_products", 5, 2)  # 32 terms
    assert op.judge(value) == oracles.OK
    assert oracles.judge_positivity(op.spec, value * (1 + 1e-6) + 1e-6) == oracles.WRONG
    assert oracles.judge_positivity(op.spec, -1e-6) == oracles.WRONG


def test_positivity_reference_is_omega_of_p_star_p_not_p_p_star():
    spec = gen.spec("algebra_products", 5, 0)
    own = oracles.quadratic_form(spec["state"], [oracles.parse_point(t[0]) for t in spec["terms"]],
                                 [complex(t[1], t[2]) for t in spec["terms"]])
    ref = oracles.positivity_reference(spec["state"], spec["terms"])
    assert abs(own - ref) > 1e-3


def test_frame_oracle_flags_a_wrong_gram_entry(ctx):
    op, (gram, bound) = run_op(ctx, "algebra_products", 5, 3)
    assert op.judge((gram, bound)) == oracles.OK
    bad = gram.copy()
    bad[0, 1] += 1e-9
    assert oracles.judge_frame(op.spec, bad, bound) == oracles.WRONG
    one_norm = sum(math.hypot(t[1], t[2]) for t in op.spec["poly"])
    assert oracles.judge_frame(op.spec, gram, one_norm + 1e-6) == oracles.WRONG


def test_bell_oracle_flags_wrong_count_and_value(ctx):
    op, code = run_op(ctx, "bell_search", 5, 0)  # monomial orbit
    assert op.judge(code) == oracles.OK
    report = op.report
    recount = copy.deepcopy(report)
    recount["checks"][0]["measured"]["evaluations"] += 1
    assert oracles.judge_bell(op.spec, code, recount, ctx.evaluations) == oracles.WRONG
    revalue = copy.deepcopy(report)
    revalue["checks"][0]["measured"]["value"] -= 1e-3
    assert oracles.judge_bell(op.spec, code, revalue, ctx.evaluations) == oracles.WRONG


def test_verify_all_oracle_flags_a_changed_body(ctx):
    op, code = run_op(ctx, "verify_all", 5, 0)
    assert op.judge(code) == oracles.OK
    reference = oracles.report_body_digest(op.report)
    changed = copy.deepcopy(op.report)
    changed["checks"][0]["measured"]["min_eigenvalue"] += 1e-3
    assert oracles.judge_verify_all(code, changed, reference) == oracles.WRONG
    timing_only = copy.deepcopy(op.report)
    timing_only["wall_clock_s"]["total"] += 1.0
    assert oracles.judge_verify_all(code, timing_only, reference) == oracles.OK
    flipped = copy.deepcopy(op.report)
    flipped["checks"][3]["passed"] = False
    assert oracles.judge_verify_all(code, flipped, None) == oracles.WRONG


# ---------------------------------------------------------------------------
# tracing


def test_self_times_of_one_operation_add_up_to_its_duration(ctx):
    op = workloads.make_op(ctx, "algebra_products", 5, 3)  # frame: nested spans
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.operation(0):
        op.run()
    spans = tracer.spans
    assert spans[0][0] == "op" and len(spans) > 100
    assert {s[0] for s in spans} >= {"gns.build_frame", "weyl.weyl_multiply",
                                     "states.eval_poly", "gns.norm_lower_bound"}
    total = sum(tracing.self_times(spans))
    assert total == pytest.approx(spans[0][2] - spans[0][1], rel=1e-9, abs=1e-12)
    assert min(tracing.self_times(spans)) >= 0.0


def test_hooks_are_removed_after_tracing():
    mods = tracing.modules()
    before = {(m, a): v for m, mod in mods.items() for a, v in vars(mod).items()}
    with tracing.installed(tracing.Tracer()):
        assert mods["states"].weyl_multiply is not before[("states", "weyl_multiply")]
    after = {(m, a): v for m, mod in mods.items() for a, v in vars(mod).items()}
    assert after == before


def test_traced_counts_repeat_exactly(ctx):
    runs = []
    for _ in range(2):
        tally = run.Tally()
        out = run.traced(workloads, ctx, "algebra_products", 9, 0.0, tally)["metrics"]
        assert tally.counts["wrong"] == 0
        runs.append(out)
    for key in ("weyl.weyl_multiply.calls", "states.eval_point.calls",
                "gns.norm_lower_bound.dims_dropped"):
        assert runs[0][key] == runs[1][key] > 0


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command line


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in spec["per_layer"]] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in tracing.PER_LAYER]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra_products", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
