"""The operations of the four workloads: what is timed and how it is judged.

CLI operations call ``eprbell.cli.main([...])`` in-process on files written
before the clock starts; ``algebra_products`` calls the public functions
directly.  Every call goes through a module attribute at call time, so the
tracer's wrappers see it.  Inputs are built and results judged outside the
timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import eprbell.cli
import eprbell.gns
import eprbell.states
import eprbell.weyl

import gen
import oracles

#: Percentile reported as latency_tail_s.  Each is the highest multiple of
#: five that leaves at least ten samples beyond it in a 25 s run.
TAIL_PCT = {"verify_all": 55, "psd_batteries": 60, "algebra_products": 90, "bell_search": 60}

#: Operations in the traced run's fixed set: one schedule cycle, or three
#: verify-all runs.
TRACE_OPS = {"verify_all": 3, "psd_batteries": 11, "algebra_products": 7, "bell_search": 9}

EVALUATIONS_FILE = Path(__file__).with_name("bell_evaluations.json")


@dataclass
class Op:
    spec: dict
    run: Callable[[], object]
    judge: Callable[[object], str]
    control: bool = False
    #: the last report the judge read, for CLI operations
    report: dict | None = field(default=None, repr=False)


class Context:
    """State shared by the operations of one run."""

    def __init__(self, workdir: Path, evaluations: dict | None = None):
        self.workdir = workdir
        if evaluations is None:
            evaluations = json.loads(EVALUATIONS_FILE.read_text())
        #: the deterministic evaluation count of each Bell catalog search
        self.evaluations = evaluations
        #: report body digest per verify-all input, to check repeats
        self.digests: dict[str, str] = {}


def _quiet_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return eprbell.cli.main(argv)


def _cli_op(ctx: Context, index: int, spec: dict, files: dict, argv: list[str], judge) -> Op:
    paths = {}
    for name, content in files.items():
        paths[name] = ctx.workdir / f"op{index}-{name}.json"
        paths[name].write_text(json.dumps(content))
    out = ctx.workdir / f"op{index}-report.json"
    argv = [a.format(**{k: str(p) for k, p in paths.items()}) for a in argv]
    argv += ["--out", str(out)]
    op = Op(spec, lambda: _quiet_cli(argv), None)

    def judge_code(code):
        op.report = json.loads(out.read_text()) if out.exists() else None
        out.unlink(missing_ok=True)
        return judge(code, op.report)

    op.judge = judge_code
    return op


def _verify_all_op(ctx, index, spec):
    key = json.dumps([spec["seed"], spec["state"]], sort_keys=True)

    def judge(code, report):
        reference = ctx.digests.get(key)
        if report is not None and reference is None:
            ctx.digests[key] = reference = oracles.report_body_digest(report)
        return oracles.judge_verify_all(code, report, reference)

    return _cli_op(ctx, index, spec, {"state": spec["state"]},
                   ["verify-all", "--seed", str(spec["seed"]), "--state", "{state}"], judge)


def _psd_op(ctx, index, spec):
    op = _cli_op(ctx, index, spec, {"points": spec["points"], "state": spec["state"]},
                 ["psd", "{points}", "--state", "{state}"],
                 lambda code, report: oracles.judge_psd(spec, code, report))
    op.control = bool(spec["state"].get("corrupt_kernel"))
    return op


def bell_op(ctx, index, spec):
    return _cli_op(ctx, index, spec, {"config": spec["config"], "state": spec["state"]},
                   ["bell", "{config}", "--seed", str(spec["search_seed"]), "--state", "{state}"],
                   lambda code, report: oracles.judge_bell(spec, code, report, ctx.evaluations))


def _poly(records) -> "eprbell.weyl.WeylPolynomial":
    return eprbell.weyl.WeylPolynomial(
        4, [(oracles.parse_point(r[0]), complex(r[1], r[2])) for r in records])


def _algebra_op(spec):
    states, gns = eprbell.states, eprbell.gns
    state = states.StateFunctional.from_spec(spec["state"])
    kind = spec["op"]
    if kind == "positivity":
        p = _poly(spec["terms"])
        return Op(spec, lambda: states.positivity_check(state, p),
                  lambda value: oracles.judge_positivity(spec, value))
    if kind == "frame":
        pts = [oracles.parse_point(x) for x in spec["frame"]]
        p = _poly(spec["poly"])

        def frame():
            fr = gns.build_frame(state, pts)
            return fr.gram, gns.norm_lower_bound(state, fr, p)

        return Op(spec, frame, lambda r: oracles.judge_frame(spec, *r))
    if kind == "multiplicativity":
        cases = [(Fraction(s), Fraction(t), [oracles.parse_point(x) for x in probes])
                 for s, t, probes in spec["cases"]]
        return Op(spec,
                  lambda: [states.multiplicativity_check(state, s, t, probes=pr)
                           for s, t, pr in cases],
                  lambda r: oracles.judge_multiplicativity(spec, r))
    cases = [tuple(Fraction(v) for v in case) for case in spec["cases"]]
    return Op(spec, lambda: [gns.collinearity_check(*case, state) for case in cases],
              lambda r: oracles.judge_collinearity(spec, r))


def make_op(ctx: Context, workload: str, seed: int, index: int) -> Op:
    spec = gen.spec(workload, seed, index)
    if workload == "verify_all":
        return _verify_all_op(ctx, index, spec)
    if workload == "psd_batteries":
        return _psd_op(ctx, index, spec)
    if workload == "bell_search":
        return bell_op(ctx, index, spec)
    return _algebra_op(spec)
