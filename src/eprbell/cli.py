"""Command-line orchestration: run single checks or the whole suite.

Subcommands: eval, psd, bell, surrogate, verify-all.  Exit codes follow a
fixed discipline: 0 all checks pass, 1 a verification failed, 2 usage or
parse problems, 3 a resource cap was hit.  Reports are JSON documents with
deterministic bodies (timings separated out), so identical inputs and seed
diff cleanly in CI.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .bell import (
    SearchConfig,
    correlation_deviation,
    monomial_family_value,
    monomial_candidate,
    bell_value,
    optimize_bell,
    weyl_double,
)
from .gns import build_frame, collinearity_check, compress_operator
from .reports import (
    CheckRecord,
    build_report,
    digest_inputs,
    report_to_json,
)
from .states import (
    EquivalenceError,
    StateFunctional,
    eval_poly,
    kernel_matrix,
    multiplicativity_check,
    psd_check,
    rank_one_class_check,
    support_relation,
    traciality_check,
    uniqueness_support_check,
)
from .surrogate import (
    build_model,
    chsh_value,
    correlation,
    correlation_grid,
    double_deviation,
    double_of,
)
from .weyl import (
    Point,
    TermBudgetError,
    WeylPolynomial,
    from_records,
    point,
    tensor_embed,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

TOOL = {"name": "eprbell", "version": __version__}

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# randomized batteries


def _rand_fraction(rng: random.Random, span: int = 8, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def _rand_point(rng: random.Random, dim: int) -> Point:
    return tuple(_rand_fraction(rng) for _ in range(dim))


def _distinct_points(rng: random.Random, n: int, dim: int) -> list[Point]:
    pts: list[Point] = []
    seen: set[Point] = set()
    while len(pts) < n:
        p = _rand_point(rng, dim)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


KERNEL_PSD_ANCHOR = "F(x,y) = G(x-y) exp(-i s(x,y)) is a positive semidefinite kernel"
SURROGATE_CHSH_ANCHOR = (
    "(1/2)<Omega,(A1(B1+B2)+A2(B1-B2))Omega> = 2 cos(pi/4) = sqrt(2)"
)
CORRELATION_LAW_ANCHOR = "<Omega,(A(t1)A(t2) x I)Omega> = cos(t1 - t2)"
MATRIX_DOUBLES_ANCHOR = "<Omega, ((A x I) - (I x gamma(A)))^2 Omega> = 0"


# ---------------------------------------------------------------------------
# measurements shared by verify-all and the single-check commands


def _measure_kernel(
    state: StateFunctional, pts: list[Point], tol: float
) -> tuple[dict, dict | None]:
    """Kernel positivity and, for the epr state, the support-class structure,
    both from one kernel build.

    Returns the psd_check result and, for the epr state, the rank-one class
    measurements with the class count and verdict, or the support
    relation's error with a failing verdict; None for other states.
    """
    m = kernel_matrix(state, pts)
    psd = psd_check(m, tol)
    if state.kind != "epr":
        return psd, None
    try:
        part = support_relation(m)
    except EquivalenceError as exc:
        return psd, {"error": str(exc), "passed": False}
    return psd, {"classes": len(part.classes), **rank_one_class_check(m, part, 1e-9)}


def _correlation_grid_dev(model, points: int) -> float:
    """Worst |correlation - cos(t1 - t2)| over an even grid on [0, 2 pi]."""
    grid = np.linspace(0.0, 2 * math.pi, points)
    corr = correlation_grid(model, grid)
    return float(np.max(np.abs(corr - np.cos(grid[:, None] - grid[None, :]))))


def _matrix_doubles(model, nprng, samples: int):
    """double_of on random Hermitian matrices.

    Returns the worst |deviation| and the first (matrix, double) pair, on
    which the perturbed-partner control runs.
    """
    m = model.m
    devs = [0.0]
    first = None
    for _ in range(samples):
        raw = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m))
        sym = (raw + raw.conj().T) / 2
        res = double_of(model, sym)
        devs.append(abs(res["deviation"]))
        if first is None:
            first = (sym, res["double"])
    return max(devs), first


def _sampled(
    name: str, anchor: str, state: StateFunctional, n: int, sample
) -> list[CheckRecord]:
    """Run ``sample(i) -> (deviation, passed)`` for i < n; record the worst."""
    results = [sample(i) for i in range(n)]
    worst = max([0.0] + [dev for dev, _ in results])
    return [
        CheckRecord(
            name=name,
            anchor=anchor,
            inputs_digest=digest_inputs({"n": n, "state": state.to_spec()}),
            measured={"max_deviation": worst, "samples": n},
            tolerance=1e-12,
            passed=all(ok for _, ok in results),
        )
    ]


# ---------------------------------------------------------------------------
# the verify-all sections; each runner takes (state, rng) and returns records


def _check_kernel_psd(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    batteries, points_per, tol = 5, 64, 1e-10
    worst_min_eig = math.inf
    psd_ok = True
    worst = dict.fromkeys(("max_modulus_dev", "max_cocycle_dev", "max_cross_leak"), 0.0)
    support_ok = True
    for _ in range(batteries):
        psd, rank = _measure_kernel(state, _distinct_points(rng, points_per, 4), tol)
        worst_min_eig = min(worst_min_eig, psd["min_eigenvalue"])
        psd_ok = psd_ok and psd["passed"]
        if rank is not None:
            support_ok = support_ok and rank["passed"]
            for key in worst:
                worst[key] = max(worst[key], rank.get(key, 0.0))
    records = [
        CheckRecord(
            name="kernel_psd",
            anchor=KERNEL_PSD_ANCHOR,
            inputs_digest=digest_inputs(
                {"batteries": batteries, "points": points_per, "state": state.to_spec()}
            ),
            measured={"min_eigenvalue": worst_min_eig},
            tolerance=tol,
            passed=psd_ok,
        )
    ]
    if state.kind == "epr":
        records.append(
            CheckRecord(
                name="support_rank_one",
                anchor="kernel support classes carry unimodular rank-one phases"
                " M[j,k] M[k,l] = M[j,l]",
                inputs_digest=digest_inputs(
                    {"batteries": batteries, "points": points_per}
                ),
                measured=worst,
                tolerance=1e-9,
                passed=support_ok,
            )
        )
    return records


def _check_uniqueness(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    def sample(i):
        if i % 5 < 3:
            x = _rand_point(rng, 4)
        else:
            a, b = _rand_fraction(rng), _rand_fraction(rng)
            x = (a, b, -a, b)
        res = uniqueness_support_check(state, x)
        return res["deviation"], res["passed"]

    anchor = (
        "omega(W(a,b) x W(c,d)) = 0 unless c = -a and d = b,"
        " else exp(i(a*lambda + b*mu))"
    )
    return _sampled("uniqueness_support", anchor, state, 200, sample)


def _check_multiplicativity(
    state: StateFunctional, rng: random.Random
) -> list[CheckRecord]:
    def sample(i):
        s, t = _rand_fraction(rng), _rand_fraction(rng)
        res = multiplicativity_check(state, s, t, probes=[_rand_point(rng, 4)])
        return res["max_deviation"], res["passed"]

    anchor = (
        "omega(A X) = omega(X A) = omega(A) omega(X) for"
        " A = W(s,0) x W(-s,0) and B = W(0,t) x W(0,t)"
    )
    return _sampled("multiplicativity", anchor, state, 100, sample)


def _check_traciality(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    def sample(i):
        a = _rand_point(rng, 2)
        b = tuple(-c for c in a) if i % 10 == 0 else _rand_point(rng, 2)
        res = traciality_check(state, a, b)
        return res["deviation"], res["passed"]

    anchor = "omega(W(a)W(b) x I) = omega(W(b)W(a) x I)"
    return _sampled("traciality", anchor, state, 100, sample)


def _check_collinearity(
    state: StateFunctional, rng: random.Random
) -> list[CheckRecord]:
    n = 100
    max_mod_dev = 0.0
    max_phase_dev = 0.0
    ok = True
    for _ in range(n):
        a, b, c, d = (_rand_fraction(rng) for _ in range(4))
        res = collinearity_check(a, b, c, d, state)
        max_mod_dev = max(max_mod_dev, abs(res["modulus"] - 1.0))
        max_phase_dev = max(max_phase_dev, res["phase_deviation"])
        ok = ok and res["passed"]
    record = CheckRecord(
        name="collinearity",
        anchor="|<W(a,b) x W(c,d) Omega, W(a+c,b-d) x I Omega>| = 1 with phase"
        " exp(it) exp(ic*lambda) exp(-id*mu), t = (ad+bc)/2",
        inputs_digest=digest_inputs({"n": n, "state": state.to_spec()}),
        measured={"max_modulus_dev": max_mod_dev, "max_phase_dev": max_phase_dev},
        tolerance=1e-12,
        passed=ok,
    )
    return [record]


def _check_gram_orthonormality(
    state: StateFunctional, rng: random.Random
) -> list[CheckRecord]:
    pts = [
        (Fraction(j, 2), Fraction(k, 3), Fraction(0), Fraction(0))
        for j in range(3)
        for k in range(3)
    ]
    frame = build_frame(state, pts)
    off = frame.gram - np.eye(len(pts))
    max_offdiag = float(np.max(np.abs(off)))
    comp = compress_operator(state, frame, WeylPolynomial.identity(4))
    comp_dev = float(np.max(np.abs(comp - frame.gram)))
    passed = max_offdiag == 0.0 and comp_dev == 0.0
    record = CheckRecord(
        name="gram_orthonormality",
        anchor="factor-1 generator vectors W(a,b) x I Omega are orthonormal",
        inputs_digest=digest_inputs({"points": [[str(c) for c in p] for p in pts]}),
        measured={"max_offdiagonal": max_offdiag, "identity_compression_dev": comp_dev},
        tolerance=0.0,
        passed=passed,
    )
    return [record]


def _check_bell_monomial(
    state: StateFunctional, rng: random.Random
) -> list[CheckRecord]:
    samples = 50
    a, b = Fraction(1), Fraction(2)
    max_agree_dev = 0.0
    for _ in range(samples):
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        closed = monomial_family_value(a, b, *angles, state)
        engine = bell_value(state, monomial_candidate(a, b, *angles))
        max_agree_dev = max(max_agree_dev, abs(closed - engine))
    agree_rec = CheckRecord(
        name="bell_monomial_agreement",
        anchor="closed-form family value [cos p11 + cos p12 + cos p21 - cos p22]/4"
        " matches the engine",
        inputs_digest=digest_inputs({"samples": samples, "state": state.to_spec()}),
        measured={"max_deviation": max_agree_dev},
        tolerance=1e-10,
        passed=max_agree_dev <= 1e-10,
    )
    xa, xb = point(a, b), point(-a, b)
    cfg = SearchConfig(
        supports=(
            (xa, point(-a, -b)),
            (xa, point(-a, -b)),
            (xb, point(a, -b)),
            (xb, point(a, -b)),
        ),
        restarts=4,
        max_iters=120,
        seed=rng.randint(0, 2**31 - 1),
    )
    result = optimize_bell(state, cfg)
    target = SQRT2 / 2
    opt_rec = CheckRecord(
        name="bell_monomial_optimum",
        anchor="search over the monomial family attains its maximum sqrt(2)/2"
        " and never exceeds sqrt(2)",
        inputs_digest=digest_inputs({"config": cfg.to_spec()}),
        measured={
            "value": result.value,
            "target": target,
            "evaluations": result.evaluations,
        },
        tolerance=1e-6,
        passed=abs(result.value - target) <= 1e-6 and result.value <= SQRT2 + 1e-9,
    )
    return [agree_rec, opt_rec]


def _check_surrogate(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    dims = (2, 4, 8, 16)
    max_chsh_dev = 0.0
    max_corr_dev = 0.0
    for m in dims:
        model = build_model(m)
        max_chsh_dev = max(max_chsh_dev, abs(chsh_value(model) - SQRT2))
        for _ in range(50):
            t1 = rng.uniform(0, 2 * math.pi)
            t2 = rng.uniform(0, 2 * math.pi)
            max_corr_dev = max(
                max_corr_dev, abs(correlation(model, t1, t2) - math.cos(t1 - t2))
            )
    max_corr_dev = max(max_corr_dev, _correlation_grid_dev(build_model(2), 33))
    return [
        CheckRecord(
            name="surrogate_chsh",
            anchor=SURROGATE_CHSH_ANCHOR,
            inputs_digest=digest_inputs({"dims": list(dims)}),
            measured={"max_deviation": max_chsh_dev},
            tolerance=1e-12,
            passed=max_chsh_dev <= 1e-12,
        ),
        CheckRecord(
            name="correlation_law",
            anchor=CORRELATION_LAW_ANCHOR,
            inputs_digest=digest_inputs({"dims": list(dims), "grid": 33}),
            measured={"max_deviation": max_corr_dev},
            tolerance=1e-12,
            passed=max_corr_dev <= 1e-12,
        ),
    ]


def _check_doubles(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    n = 100
    records = []
    if state.kind == "epr":
        max_dev = 0.0
        max_sa_dev = 0.0
        for _ in range(n):
            a, b = _rand_fraction(rng), _rand_fraction(rng)
            res = weyl_double(a, b, state)
            max_dev = max(max_dev, abs(res["deviation"]))
            max_sa_dev = max(max_sa_dev, abs(res["sa_deviation"]))
        # negative control: the mirrored partner point must fail hard
        u = tensor_embed(WeylPolynomial.generator(point(1, 1)), 1)
        wrong = tensor_embed(WeylPolynomial.generator(point(1, 1)), 2)
        control = correlation_deviation(state, u, wrong)
        records.append(
            CheckRecord(
                name="weyl_doubles",
                anchor="rho((U - U')*(U - U')) = 0 for"
                " U' = exp(i(a*lambda+b*mu)) I x W(a,-b)",
                inputs_digest=digest_inputs({"n": n, "state": state.to_spec()}),
                measured={
                    "max_deviation": max_dev,
                    "max_sa_deviation": max_sa_dev,
                    "perturbed_partner_deviation": control,
                },
                tolerance=1e-10,
                passed=max_dev <= 1e-12
                and max_sa_dev <= 1e-10
                and control >= 0.01,
            )
        )
    max_matrix_dev = 0.0
    control_dev = None
    nprng = np.random.default_rng(rng.randint(0, 2**31 - 1))
    for m in (2, 4, 8):
        model = build_model(m)
        dev, (sym, double) = _matrix_doubles(model, nprng, 5)
        max_matrix_dev = max(max_matrix_dev, dev)
        if control_dev is None:
            control_dev = double_deviation(model, sym, double + 0.1 * np.eye(m))
    records.append(
        CheckRecord(
            name="matrix_doubles",
            anchor=MATRIX_DOUBLES_ANCHOR,
            inputs_digest=digest_inputs({"dims": [2, 4, 8]}),
            measured={
                "max_deviation": max_matrix_dev,
                "perturbed_partner_deviation": control_dev,
            },
            tolerance=1e-12,
            passed=max_matrix_dev <= 1e-12 and control_dev >= 0.01 - 1e-9,
        )
    )
    return records


# ---------------------------------------------------------------------------
# commands


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_state(path: str | None) -> tuple[StateFunctional, dict]:
    """State plus the spec dict embedded verbatim in reports."""
    if path is None:
        state = StateFunctional.epr()
        return state, state.to_spec()
    raw = _load_json(path)
    return StateFunctional.from_spec(raw), raw


def _emit_report(
    state_spec: dict | None, checks: list[CheckRecord], timings: dict, out: str | None
) -> int:
    """Write the report of the checks and return the exit code."""
    report = build_report(TOOL, state_spec, checks, timings)
    for rec in report.checks:
        verdict = "PASS" if rec.passed else "FAIL"
        print(f"[{verdict}] {rec.name} (tol={rec.tolerance:g})", file=sys.stderr)
    text = report_to_json(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report.overall_pass:
        failing = [c.name for c in report.checks if not c.passed]
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def cmd_eval(args) -> int:
    state, _ = _load_state(args.state)
    poly = from_records(_load_json(args.polynomial))
    value = eval_poly(state, poly)
    print(f"({value.real:.15g}, {value.imag:.15g})")
    return EXIT_PASS


def cmd_psd(args) -> int:
    state, state_spec = _load_state(args.state)
    raw = _load_json(args.points)
    if len(raw) > 256:
        raise ValueError(f"at most 256 points per battery, got {len(raw)}")
    pts = [point(*coords) for coords in raw]
    start = time.perf_counter()
    psd, rank = _measure_kernel(state, pts, args.tol)
    checks = [
        CheckRecord(
            name="kernel_psd",
            anchor=KERNEL_PSD_ANCHOR,
            inputs_digest=digest_inputs({"points": raw, "state": state.to_spec()}),
            measured={"min_eigenvalue": psd["min_eigenvalue"], "points": len(pts)},
            tolerance=args.tol,
            passed=psd["passed"],
        )
    ]
    if rank is not None:
        passed = rank.pop("passed")
        checks.append(
            CheckRecord(
                name="support_rank_one",
                anchor="kernel support classes carry unimodular rank-one phases",
                inputs_digest=digest_inputs({"points": raw}),
                measured=rank,
                tolerance=1e-9,
                passed=passed,
            )
        )
    timings = {"total": time.perf_counter() - start}
    return _emit_report(state_spec, checks, timings, args.out)


def cmd_bell(args) -> int:
    state, state_spec = _load_state(args.state)
    spec = _load_json(args.config)
    if args.seed is not None:
        spec = dict(spec, seed=args.seed)
    cfg = SearchConfig.from_spec(spec)
    start = time.perf_counter()
    result = optimize_bell(state, cfg)
    elapsed = time.perf_counter() - start
    reproduced = bell_value(state, result.best)
    sound = (
        result.value <= SQRT2 + 1e-9
        and abs(reproduced - result.value) <= 1e-10
    )
    record = CheckRecord(
        name="bell_search",
        anchor="certified lower bound for sup omega(R) over Bell operators,"
        " capped by sqrt(2)",
        inputs_digest=digest_inputs({"config": cfg.to_spec(), "state": state.to_spec()}),
        measured={
            "value": result.value,
            "reproduced_value": reproduced,
            "evaluations": result.evaluations,
            "trace": [[i, v] for i, v in result.trace],
            "candidate": result.best.to_spec(),
        },
        tolerance=1e-10,
        passed=sound,
    )
    return _emit_report(state_spec, [record], {"total": elapsed}, args.out)


def cmd_surrogate(args) -> int:
    model = build_model(args.dim)
    start = time.perf_counter()
    chsh = chsh_value(model)
    corr_dev = _correlation_grid_dev(model, 63)
    double_dev, _ = _matrix_doubles(model, np.random.default_rng(args.seed), 5)
    timings = {"total": time.perf_counter() - start}
    checks = [
        CheckRecord(
            name="surrogate_chsh",
            anchor=SURROGATE_CHSH_ANCHOR,
            inputs_digest=digest_inputs({"dim": args.dim}),
            measured={
                "value": chsh,
                "target": SQRT2,
                "angles": [0.0, math.pi / 2, math.pi / 4, -math.pi / 4],
            },
            tolerance=1e-12,
            passed=abs(chsh - SQRT2) <= 1e-12,
        ),
        CheckRecord(
            name="correlation_law",
            anchor=CORRELATION_LAW_ANCHOR,
            inputs_digest=digest_inputs({"dim": args.dim, "grid": 63}),
            measured={"max_deviation": corr_dev},
            tolerance=1e-12,
            passed=corr_dev <= 1e-12,
        ),
        CheckRecord(
            name="matrix_doubles",
            anchor=MATRIX_DOUBLES_ANCHOR,
            inputs_digest=digest_inputs({"dim": args.dim, "samples": 5}),
            measured={"max_deviation": double_dev},
            tolerance=1e-12,
            passed=double_dev <= 1e-12,
        ),
    ]
    return _emit_report(None, checks, timings, args.out)


#: verify-all in run order: (section, runs on the regular state, runner).
#: Section names key the report's wall-clock timings.
SUITE = (
    ("kernel_psd", True, _check_kernel_psd),
    ("gram_orthonormality", False, _check_gram_orthonormality),
    ("uniqueness_support", False, _check_uniqueness),
    ("multiplicativity", False, _check_multiplicativity),
    ("traciality", False, _check_traciality),
    ("collinearity", False, _check_collinearity),
    ("bell_monomial", False, _check_bell_monomial),
    ("surrogate", True, _check_surrogate),
    ("doubles", True, _check_doubles),
)


def cmd_verify_all(args) -> int:
    state, state_spec = _load_state(args.state)
    rng = random.Random(args.seed)
    checks: list[CheckRecord] = []
    timings: dict[str, float] = {}
    total_start = time.perf_counter()
    for name, on_regular, runner in SUITE:
        if state.kind != "epr" and not on_regular:
            continue
        start = time.perf_counter()
        checks.extend(runner(state, rng))
        timings[name] = time.perf_counter() - start
    timings["total"] = time.perf_counter() - total_start
    return _emit_report(state_spec, checks, timings, args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprbell",
        description="Verification suite for the strictly correlated state on"
        " the Weyl algebra and its maximal Bell correlation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the state on a polynomial file")
    p_eval.add_argument("polynomial", help="JSON polynomial records")
    p_eval.add_argument("--state", help="JSON state spec", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_psd = sub.add_parser("psd", help="kernel positivity on a points file")
    p_psd.add_argument("points", help="JSON list of points")
    p_psd.add_argument("--state", default=None)
    p_psd.add_argument("--tol", type=float, default=1e-10)
    p_psd.add_argument("--out", default=None)
    p_psd.set_defaults(func=cmd_psd)

    p_bell = sub.add_parser("bell", help="run the Bell lower-bound search")
    p_bell.add_argument("config", help="JSON search configuration")
    p_bell.add_argument("--state", default=None)
    p_bell.add_argument("--seed", type=int, default=None)
    p_bell.add_argument("--out", default=None)
    p_bell.set_defaults(func=cmd_bell)

    p_sur = sub.add_parser("surrogate", help="finite matrix CHSH model checks")
    p_sur.add_argument("--dim", type=int, required=True)
    p_sur.add_argument("--seed", type=int, default=0)
    p_sur.add_argument("--out", default=None)
    p_sur.set_defaults(func=cmd_surrogate)

    p_all = sub.add_parser("verify-all", help="run the complete check suite")
    p_all.add_argument("--state", default=None)
    p_all.add_argument("--seed", type=int, default=0)
    p_all.add_argument("--out", default=None)
    p_all.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TermBudgetError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
