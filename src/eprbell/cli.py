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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .bell import (
    EvaluationBudgetError,
    SearchConfig,
    correlation_deviation,
    monomial_family_value,
    monomial_candidate,
    bell_value,
    optimize_bell,
    weyl_double,
)
from .gns import GramPositivityError, build_frame, collinearity_check, compress_operator
from .reports import (
    CheckRecord,
    build_report,
    digest_inputs,
    report_to_json,
)
from .states import (
    IDENTITY_TOL,
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
    parse_points,
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


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 6))


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


# ---------------------------------------------------------------------------
# the check registry


@dataclass(frozen=True)
class Check:
    """A named check: its tolerance and the identity it verifies."""

    name: str
    tolerance: float
    anchor: str  # the verified identity, in plain ASCII math

    def record(self, inputs, measured: dict, passed: bool):
        """The report record of one run, with ``inputs`` digested."""
        digest = digest_inputs(inputs)
        return CheckRecord(
            self.name, self.anchor, digest, measured, self.tolerance, passed
        )


#: Every check a report can hold, by name.  Each anchor and tolerance is
#: declared here once, whichever command runs the check.
CHECKS = {check.name: check for check in (
    Check("kernel_psd", 1e-10,
          "F(x,y) = G(x-y) exp(-i s(x,y)) is a positive semidefinite kernel"),
    Check("support_rank_one", 1e-9, "kernel support classes carry unimodular"
          " rank-one phases M[j,k] M[k,l] = M[j,l]"),
    Check("gram_orthonormality", 0.0,
          "factor-1 generator vectors W(a,b) x I Omega are orthonormal"),
    Check("uniqueness_support", IDENTITY_TOL, "omega(W(a,b) x W(c,d)) = 0 unless"
          " c = -a and d = b, else exp(i(a*lambda + b*mu))"),
    Check("multiplicativity", IDENTITY_TOL, "omega(A X) = omega(X A) ="
          " omega(A) omega(X) for A = W(s,0) x W(-s,0) and B = W(0,t) x W(0,t)"),
    Check("traciality", IDENTITY_TOL, "omega(W(a)W(b) x I) = omega(W(b)W(a) x I)"),
    Check("collinearity", IDENTITY_TOL, "|<W(a,b) x W(c,d) Omega, W(a+c,b-d) x I"
          " Omega>| = 1 with phase exp(it) exp(ic*lambda) exp(-id*mu), t = (ad+bc)/2"),
    Check("bell_monomial_agreement", 1e-10, "closed-form family value"
          " [cos p11 + cos p12 + cos p21 - cos p22]/4 matches the engine"),
    Check("bell_monomial_optimum", 1e-6, "search over the monomial family attains"
          " its maximum sqrt(2)/2 and never exceeds sqrt(2)"),
    Check("bell_search", 1e-10, "certified lower bound for sup omega(R) over Bell"
          " operators, capped by sqrt(2)"),
    Check("surrogate_chsh", 1e-12,
          "(1/2)<Omega,(A1(B1+B2)+A2(B1-B2))Omega> = 2 cos(pi/4) = sqrt(2)"),
    Check("correlation_law", 1e-12, "<Omega,(A(t1)A(t2) x I)Omega> = cos(t1 - t2)"),
    Check("weyl_doubles", 1e-10,
          "rho((U - U')*(U - U')) = 0 for U' = exp(i(a*lambda+b*mu)) I x W(a,-b)"),
    Check("matrix_doubles", 1e-12, "<Omega, ((A x I) - (I x gamma(A)))^2 Omega> = 0"),
)}


# ---------------------------------------------------------------------------
# measurements shared by verify-all and the single-check commands


def _measure_kernel(
    state: StateFunctional, pts: list[Point]
) -> tuple[dict, dict | None, dict]:
    """Kernel positivity and, for the epr state, the support-class structure,
    both from one kernel build.

    Returns the psd_check result; for the epr state, the rank-one class
    measurements with the class count and verdict, or the support
    relation's error with a failing verdict, and None for other states; and
    the wall-clock seconds of the kernel build (kernel_s), the eigenvalue
    check (psd_s) and the support checks (support_s, 0 for other states).
    """
    start = time.perf_counter()
    m = kernel_matrix(state, pts)
    built = time.perf_counter()
    psd = psd_check(m, CHECKS["kernel_psd"].tolerance)
    checked = time.perf_counter()
    timings = {"kernel_s": built - start, "psd_s": checked - built, "support_s": 0.0}
    if state.kind != "epr":
        return psd, None, timings
    try:
        part = support_relation(m)
    except EquivalenceError as exc:
        rank = {"error": str(exc), "passed": False}
    else:
        tol = CHECKS["support_rank_one"].tolerance
        rank = {"classes": len(part.classes), **rank_one_class_check(m, part, tol)}
    timings["support_s"] = time.perf_counter() - checked
    return psd, rank, timings


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


def _sampled(check: Check, state: StateFunctional, n: int, sample) -> list[CheckRecord]:
    """Run ``sample(i) -> (deviation, passed)`` for i < n; record the worst."""
    results = [sample(i) for i in range(n)]
    worst = max([0.0] + [dev for dev, _ in results])
    return [
        check.record(
            {"n": n, "state": state.to_spec()},
            {"max_deviation": worst, "samples": n},
            all(ok for _, ok in results),
        )
    ]


# ---------------------------------------------------------------------------
# the verify-all sections; each runner takes (state, rng) and returns records


def _check_kernel_psd(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    batteries, points_per = 5, 64
    kernel, support = CHECKS["kernel_psd"], CHECKS["support_rank_one"]
    worst_min_eig = math.inf
    psd_ok = True
    worst = dict.fromkeys(("max_modulus_dev", "max_cocycle_dev", "max_cross_leak"), 0.0)
    support_ok = True
    for _ in range(batteries):
        pts = _distinct_points(rng, points_per, 4)
        psd, rank, _ = _measure_kernel(state, pts)
        worst_min_eig = min(worst_min_eig, psd["min_eigenvalue"])
        psd_ok = psd_ok and psd["passed"]
        if rank is not None:
            support_ok = support_ok and rank["passed"]
            for key in worst:
                worst[key] = max(worst[key], rank.get(key, 0.0))
    inputs = {"batteries": batteries, "points": points_per}
    measured = {"min_eigenvalue": worst_min_eig}
    records = [kernel.record({**inputs, "state": state.to_spec()}, measured, psd_ok)]
    if state.kind == "epr":
        records.append(support.record(inputs, worst, support_ok))
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

    return _sampled(CHECKS["uniqueness_support"], state, 200, sample)


def _check_multiplicativity(
    state: StateFunctional, rng: random.Random
) -> list[CheckRecord]:
    def sample(i):
        s, t = _rand_fraction(rng), _rand_fraction(rng)
        res = multiplicativity_check(state, s, t, probes=[_rand_point(rng, 4)])
        return res["max_deviation"], res["passed"]

    return _sampled(CHECKS["multiplicativity"], state, 100, sample)


def _check_traciality(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    def sample(i):
        a = _rand_point(rng, 2)
        b = tuple(-c for c in a) if i % 10 == 0 else _rand_point(rng, 2)
        res = traciality_check(state, a, b)
        return res["deviation"], res["passed"]

    return _sampled(CHECKS["traciality"], state, 100, sample)


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
    inputs = {"n": n, "state": state.to_spec()}
    measured = {"max_modulus_dev": max_mod_dev, "max_phase_dev": max_phase_dev}
    return [CHECKS["collinearity"].record(inputs, measured, ok)]


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
    check = CHECKS["gram_orthonormality"]
    return [
        check.record(
            {"points": [[str(c) for c in p] for p in pts]},
            {"max_offdiagonal": max_offdiag, "identity_compression_dev": comp_dev},
            max_offdiag <= check.tolerance and comp_dev <= check.tolerance,
        )
    ]


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
    agree = CHECKS["bell_monomial_agreement"]
    agree_rec = agree.record(
        {"samples": samples, "state": state.to_spec()},
        {"max_deviation": max_agree_dev},
        max_agree_dev <= agree.tolerance,
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
    optimum = CHECKS["bell_monomial_optimum"]
    opt_rec = optimum.record(
        {"config": cfg.to_spec()},
        {"value": result.value, "target": target, "evaluations": result.evaluations},
        abs(result.value - target) <= optimum.tolerance
        and result.value <= SQRT2 + 1e-9,
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
    chsh, corr = CHECKS["surrogate_chsh"], CHECKS["correlation_law"]
    return [
        chsh.record(
            {"dims": list(dims)},
            {"max_deviation": max_chsh_dev},
            max_chsh_dev <= chsh.tolerance,
        ),
        corr.record(
            {"dims": list(dims), "grid": 33},
            {"max_deviation": max_corr_dev},
            max_corr_dev <= corr.tolerance,
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
        check = CHECKS["weyl_doubles"]
        records.append(
            check.record(
                {"n": n, "state": state.to_spec()},
                {
                    "max_deviation": max_dev,
                    "max_sa_deviation": max_sa_dev,
                    "perturbed_partner_deviation": control,
                },
                max_dev <= 1e-12 and max_sa_dev <= check.tolerance and control >= 0.01,
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
    check = CHECKS["matrix_doubles"]
    records.append(
        check.record(
            {"dims": [2, 4, 8]},
            {
                "max_deviation": max_matrix_dev,
                "perturbed_partner_deviation": control_dev,
            },
            max_matrix_dev <= check.tolerance and control_dev >= 0.01 - 1e-9,
        )
    )
    return records


# ---------------------------------------------------------------------------
# commands


def _load(path: str, parse=lambda raw: raw):
    """Read and parse a JSON file, naming the file in any error about its content."""
    with open(path) as fh:
        raw = json.load(fh)
    try:
        return parse(raw)
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_state(path: str | None) -> tuple[StateFunctional, dict]:
    """State plus the spec dict embedded verbatim in reports."""
    if path is None:
        state = StateFunctional.epr()
        return state, state.to_spec()
    return _load(path, lambda raw: (StateFunctional.from_spec(raw), raw))


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
    value = eval_poly(state, _load(args.polynomial, from_records))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{args.polynomial}: the value {value} is not finite")
    print(f"({value.real:.15g}, {value.imag:.15g})")
    return EXIT_PASS


def _points(raw) -> tuple[list, list[Point]]:
    """The points file as read (its digest is the input's) and its points."""
    if len(raw) > 256:
        raise ValueError(f"at most 256 points per battery, got {len(raw)}")
    return raw, parse_points(raw)


def cmd_psd(args) -> int:
    state, state_spec = _load_state(args.state)
    raw, pts = _load(args.points, _points)
    start = time.perf_counter()
    psd, rank, timings = _measure_kernel(state, pts)
    checks = [
        CHECKS["kernel_psd"].record(
            {"points": raw, "state": state.to_spec()},
            {"min_eigenvalue": psd["min_eigenvalue"], "points": len(pts)},
            psd["passed"],
        )
    ]
    if rank is not None:
        passed = rank.pop("passed")
        checks.append(CHECKS["support_rank_one"].record({"points": raw}, rank, passed))
    timings["total"] = time.perf_counter() - start
    return _emit_report(state_spec, checks, timings, args.out)


def cmd_bell(args) -> int:
    state, state_spec = _load_state(args.state)
    seed = {} if args.seed is None else {"seed": args.seed}
    cfg = _load(args.config, lambda spec: SearchConfig.from_spec({**spec, **seed}))
    start = time.perf_counter()
    result = optimize_bell(state, cfg)
    timings = {
        "search_s": result.search_s,
        "certify_s": result.certify_s,
        "total": time.perf_counter() - start,
    }
    # optimize_bell has already re-evaluated the winner through the engine,
    # so the reproduced value is its value
    record = CHECKS["bell_search"].record(
        {"config": cfg.to_spec(), "state": state.to_spec()},
        {
            "value": result.value,
            "reproduced_value": result.value,
            "evaluations": result.evaluations,
            "trace": [[i, v] for i, v in result.trace],
            "candidate": result.best.to_spec(),
        },
        result.value <= SQRT2 + 1e-9,
    )
    return _emit_report(state_spec, [record], timings, args.out)


def cmd_surrogate(args) -> int:
    model = build_model(args.dim)
    start = time.perf_counter()
    chsh = chsh_value(model)
    corr_dev = _correlation_grid_dev(model, 63)
    double_dev, _ = _matrix_doubles(model, np.random.default_rng(args.seed), 5)
    timings = {"total": time.perf_counter() - start}
    chsh_check, corr, doubles = (
        CHECKS[name] for name in ("surrogate_chsh", "correlation_law", "matrix_doubles")
    )
    checks = [
        chsh_check.record(
            {"dim": args.dim},
            {
                "value": chsh,
                "target": SQRT2,
                "angles": [0.0, math.pi / 2, math.pi / 4, -math.pi / 4],
            },
            abs(chsh - SQRT2) <= chsh_check.tolerance,
        ),
        corr.record(
            {"dim": args.dim, "grid": 63},
            {"max_deviation": corr_dev},
            corr_dev <= corr.tolerance,
        ),
        doubles.record(
            {"dim": args.dim, "samples": 5},
            {"max_deviation": double_dev},
            double_dev <= doubles.tolerance,
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
    state = ("--state", {"default": None, "help": "JSON state spec"})
    seed = ("--seed", {"type": int, "default": 0})
    out = ("--out", {"default": None, "help": "write the report to this file"})
    for name, func, help_, arguments in (
        ("eval", cmd_eval, "evaluate the state on a polynomial file",
         [("polynomial", {"help": "JSON polynomial records"}), state]),
        ("psd", cmd_psd, "kernel positivity on a points file",
         [("points", {"help": "JSON list of points"}), state, out]),
        ("bell", cmd_bell, "run the Bell lower-bound search",
         [("config", {"help": "JSON search configuration"}), state,
          ("--seed", {"type": int, "default": None}), out]),
        ("surrogate", cmd_surrogate, "finite matrix CHSH model checks",
         [("--dim", {"type": int, "required": True}), seed, out]),
        ("verify-all", cmd_verify_all, "run the complete check suite",
         [state, seed, out]),
    ):
        command = sub.add_parser(name, help=help_)
        command.set_defaults(func=func)
        for flag, kwargs in arguments:
            command.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TermBudgetError, EvaluationBudgetError) as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (AssertionError, GramPositivityError) as exc:  # engine self-checks
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
