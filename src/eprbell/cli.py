"""Command-line orchestration: run single checks or the whole suite.

Subcommands: eval, psd, bell, surrogate, verify-all.  Exit codes follow a
fixed discipline: 0 all checks pass, 1 a verification failed, 2 usage or
parse problems, 3 a resource cap was hit.  Reports are JSON documents with
deterministic bodies (timings separated out), so identical inputs and seed
diff cleanly in CI.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import __version__
from .bell import (
    CERTIFY_TOL,
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
    IDENTITY_TOL,
    KIND_EPR,
    PSD_TOL,
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
    negate,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

TOOL = {"name": "eprbell", "version": __version__}

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# randomized batteries


def _draw_table() -> list[tuple[Fraction, int]]:
    """Every coordinate a battery draws, Fraction(p, q) for p in -8..8 and
    q in 1..6, at index 6 (p + 8) + q - 1, with the id of its value: the
    102 entries hold 65 values, and value-equal ones, such as 1/2 and 2/4,
    share an id."""
    ids: dict[Fraction, int] = {}
    return [(f, ids.setdefault(f, len(ids)))
            for f in (Fraction(p, q) for p in range(-8, 9) for q in range(1, 7))]


_DRAWS = _draw_table()


def _draw(rng: random.Random) -> tuple[Fraction, int]:
    """A battery coordinate and its value id, drawn with exactly the words
    of ``Fraction(rng.randint(-8, 8), rng.randint(1, 6))``.  CPython's
    ``randint`` takes ``getrandbits(k)``, k the bit length of the width (17,
    then 6), until a word falls below the width, so every later draw from
    ``rng`` stays the same; the stream guard in ``tests/test_cli.py``
    checks this on each Python the CI runs."""
    bits = rng.getrandbits
    p = bits(5)
    while p >= 17:
        p = bits(5)
    q = bits(3)
    while q >= 6:
        q = bits(3)
    return _DRAWS[6 * p + q]


def _rand_fraction(rng: random.Random) -> Fraction:
    return _draw(rng)[0]


def _rand_point(rng: random.Random, dim: int) -> Point:
    return tuple(_rand_fraction(rng) for _ in range(dim))


def _distinct_points(rng: random.Random, n: int, dim: int) -> list[Point]:
    """``n`` points drawn as ``_rand_point`` draws them, each kept unless a
    point of equal value came before; points compare by their value ids."""
    pts: list[Point] = []
    seen: set[tuple[int, ...]] = set()
    while len(pts) < n:
        pt, ids = zip(*[_draw(rng) for _ in range(dim)])
        if ids not in seen:
            seen.add(ids)
            pts.append(pt)
    return pts


# ---------------------------------------------------------------------------
# the check registry

_OPS = {"<=": operator.le, ">=": operator.ge}

#: The support_rank_one deviations, each bounded by the check's tolerance.
_RANK_ONE_KEYS = ("max_modulus_dev", "max_cocycle_dev", "max_cross_leak")


@dataclass(frozen=True)
class Check:
    """A named check: its tolerance, the identity it verifies, and the
    bounds its verdict applies, each (measured key, "<=" or ">=", limit)."""

    name: str
    tolerance: float
    anchor: str  # the verified identity, in plain ASCII math
    bounds: tuple[tuple[str, str, float], ...]

    def record(self, inputs, measured: dict) -> CheckRecord:
        """The report record of one run, with ``inputs`` digested.  It passes
        when every bound holds; a key not measured, or measured as NaN,
        fails its bound."""
        passed = all(key in measured and _OPS[op](measured[key], limit)
                     for key, op, limit in self.bounds)
        return CheckRecord(self.name, self.anchor, digest_inputs(inputs), measured,
                           self.tolerance, passed, [list(b) for b in self.bounds])


#: The sampled identity checks fail on any sample the engine fails: off the
#: support, uniqueness and traciality demand exact zeros.
_SAMPLED = (("failed_samples", "<=", 0), ("max_deviation", "<=", IDENTITY_TOL))

#: Every check a report can hold, by name.  Each anchor, tolerance and bound
#: is declared here once, whichever command runs the check.
CHECKS = {check.name: check for check in (
    Check("kernel_psd", PSD_TOL,
          "F(x,y) = G(x-y) exp(-i s(x,y)) is a positive semidefinite kernel",
          (("min_eigenvalue", ">=", -PSD_TOL),)),
    Check("support_rank_one", 1e-9, "kernel support classes carry unimodular"
          " rank-one phases M[j,k] M[k,l] = M[j,l]",
          tuple((key, "<=", 1e-9) for key in _RANK_ONE_KEYS)),
    Check("gram_orthonormality", 0.0,
          "factor-1 generator vectors W(a,b) x I Omega are orthonormal",
          (("max_offdiagonal", "<=", 0.0), ("identity_compression_dev", "<=", 0.0))),
    Check("uniqueness_support", IDENTITY_TOL, "omega(W(a,b) x W(c,d)) = 0 unless"
          " c = -a and d = b, else exp(i(a*lambda + b*mu))", _SAMPLED),
    Check("multiplicativity", IDENTITY_TOL, "omega(A X) = omega(X A) ="
          " omega(A) omega(X) for A = W(s,0) x W(-s,0) and B = W(0,t) x W(0,t)",
          _SAMPLED),
    Check("traciality", IDENTITY_TOL,
          "omega(W(a)W(b) x I) = omega(W(b)W(a) x I)", _SAMPLED),
    Check("collinearity", IDENTITY_TOL, "|<W(a,b) x W(c,d) Omega, W(a+c,b-d) x I"
          " Omega>| = 1 with phase exp(it) exp(ic*lambda) exp(-id*mu), t = (ad+bc)/2",
          (("max_modulus_dev", "<=", IDENTITY_TOL), ("max_phase_dev", "<=", IDENTITY_TOL))),
    Check("bell_monomial_agreement", 1e-10, "closed-form family value"
          " [cos p11 + cos p12 + cos p21 - cos p22]/4 matches the engine",
          (("max_deviation", "<=", 1e-10),)),
    Check("bell_monomial_optimum", 1e-6, "search over the monomial family attains"
          " its maximum sqrt(2)/2 and never exceeds sqrt(2)",
          (("deviation", "<=", 1e-6), ("value", "<=", SQRT2 + 1e-9))),
    Check("bell_search", CERTIFY_TOL, "certified lower bound for sup omega(R) over Bell"
          " operators, capped by sqrt(2)", (("value", "<=", SQRT2 + 1e-9),)),
    Check("surrogate_chsh", 1e-12,
          "(1/2)<Omega,(A1(B1+B2)+A2(B1-B2))Omega> = 2 cos(pi/4) = sqrt(2)",
          (("max_deviation", "<=", 1e-12),)),
    Check("correlation_law", 1e-12, "<Omega,(A(t1)A(t2) x I)Omega> = cos(t1 - t2)",
          (("max_deviation", "<=", 1e-12),)),
    Check("weyl_doubles", 1e-10,
          "rho((U - U')*(U - U')) = 0 for U' = exp(i(a*lambda+b*mu)) I x W(a,-b)",
          (("max_deviation", "<=", 1e-12), ("max_sa_deviation", "<=", 1e-10),
           ("perturbed_partner_deviation", ">=", 0.01))),
    Check("matrix_doubles", 1e-12, "<Omega, ((A x I) - (I x gamma(A)))^2 Omega> = 0",
          (("max_deviation", "<=", 1e-12),
           ("perturbed_partner_deviation", ">=", 0.01 - 1e-9))),
)}


# ---------------------------------------------------------------------------
# measurements shared by verify-all and the single-check commands


def _measure_kernel(state: StateFunctional, pts: list) -> tuple[float, dict | None, dict]:
    """Kernel positivity and, for the epr state, the support-class structure,
    both from one kernel build on the rows ``pts``, which ``kernel_matrix``
    reads.

    Returns the kernel's minimum eigenvalue; the support_rank_one
    measurements with the class count, or the support relation's error
    alone, and None for states other than epr; and the wall-clock seconds
    of the kernel build (kernel_s), the eigenvalue check (psd_s) and the
    support checks (support_s, 0 for other states).
    """
    start = time.perf_counter()
    m = kernel_matrix(state, pts)
    built = time.perf_counter()
    min_eig = psd_check(m)["min_eigenvalue"]
    checked = time.perf_counter()
    timings = {"kernel_s": built - start, "psd_s": checked - built, "support_s": 0.0}
    if state.kind != KIND_EPR:
        return min_eig, None, timings
    try:
        part = support_relation(m)
    except EquivalenceError as exc:
        rank = {"error": str(exc)}
    else:
        rank = {"classes": len(part.classes), **rank_one_class_check(m, part)}
    timings["support_s"] = time.perf_counter() - checked
    return min_eig, rank, timings


def _kernel_records(state: StateFunctional, inputs: dict, measured: dict, rank) -> list:
    """The kernel_psd record of ``measured`` on ``inputs`` and the state, then
    the support_rank_one record of ``rank`` on ``inputs`` unless it is None."""
    records = [CHECKS["kernel_psd"].record({**inputs, "state": state.to_spec()}, measured)]
    if rank is not None:
        records.append(CHECKS["support_rank_one"].record(inputs, rank))
    return records


def _correlation_grid_dev(model, points: int) -> float:
    """Worst |correlation - cos(t1 - t2)| over an even grid on [0, 2 pi]."""
    grid = np.linspace(0.0, 2 * math.pi, points)
    corr = correlation_grid(model, grid)
    return float(np.max(np.abs(corr - np.cos(grid[:, None] - grid[None, :]))))


def _matrix_doubles(model, nprng, samples: int) -> tuple[float, float]:
    """double_of on random Hermitian matrices.

    Returns the worst |deviation| and the perturbed-partner control: the
    first matrix against its double shifted by 0.1 I, which must deviate by
    about 0.01.
    """
    m = model.m
    devs = [0.0]
    control = None
    for _ in range(samples):
        raw = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m))
        sym = (raw + raw.conj().T) / 2
        res = double_of(model, sym)
        devs.append(abs(res["deviation"]))
        if control is None:
            control = double_deviation(model, sym, res["double"] + 0.1 * np.eye(m))
    return max(devs), control


def _worst(n: int, sample) -> dict:
    """The running maximum from 0.0 of each value ``sample(i)`` returns, i < n."""
    worst: dict = {}
    for i in range(n):
        for key, value in sample(i).items():
            worst[key] = max(worst.get(key, 0.0), value)
    return worst


def _sampled(check: Check, state: StateFunctional, n: int, sample) -> list[CheckRecord]:
    """Run ``sample(i) -> (deviation, passed)`` for i < n; record the worst
    deviation and the number of samples the engine failed."""
    results = [sample(i) for i in range(n)]
    measured = {
        "max_deviation": max([0.0] + [dev for dev, _ in results]),
        "samples": n,
        "failed_samples": sum(not ok for _, ok in results),
    }
    return [check.record({"n": n, "state": state.to_spec()}, measured)]


# ---------------------------------------------------------------------------
# the verify-all sections; each runner takes (state, rng) and returns records


def _check_kernel_psd(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    batteries, points_per = 5, 64
    min_eigs, ranks = [], []
    for _ in range(batteries):
        min_eig, rank, _ = _measure_kernel(state, _distinct_points(rng, points_per, 4))
        min_eigs.append(min_eig)
        ranks.append(rank)
    worst = None
    if state.kind == KIND_EPR:
        # the first battery whose support relation failed, else the worst
        # deviations over all of them
        worst = next((rank for rank in ranks if "error" in rank), None) or {
            key: max(rank[key] for rank in ranks) for key in _RANK_ONE_KEYS
        }
    inputs = {"batteries": batteries, "points": points_per}
    return _kernel_records(state, inputs, {"min_eigenvalue": min(min_eigs)}, worst)


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
        b = negate(a) if i % 10 == 0 else _rand_point(rng, 2)
        res = traciality_check(state, a, b)
        return res["deviation"], res["passed"]

    return _sampled(CHECKS["traciality"], state, 100, sample)


def _check_collinearity(
    state: StateFunctional, rng: random.Random
) -> list[CheckRecord]:
    def sample(i):
        res = collinearity_check(*(_rand_fraction(rng) for _ in range(4)), state)
        return {"max_modulus_dev": abs(res["modulus"] - 1.0),
                "max_phase_dev": res["phase_deviation"]}

    n = 100
    inputs = {"n": n, "state": state.to_spec()}
    return [CHECKS["collinearity"].record(inputs, _worst(n, sample))]


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
    return [
        CHECKS["gram_orthonormality"].record(
            {"points": [[str(c) for c in p] for p in pts]},
            {"max_offdiagonal": max_offdiag, "identity_compression_dev": comp_dev},
        )
    ]


def _check_bell_monomial(
    state: StateFunctional, rng: random.Random
) -> list[CheckRecord]:
    a, b = Fraction(1), Fraction(2)

    def sample(i):
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        closed = monomial_family_value(a, b, *angles, state)
        engine = bell_value(state, monomial_candidate(a, b, *angles))
        return {"max_deviation": abs(closed - engine)}

    samples = 50
    agree_rec = CHECKS["bell_monomial_agreement"].record(
        {"samples": samples, "state": state.to_spec()}, _worst(samples, sample)
    )
    # the search runs over the family's supports, which no angle changes
    family = monomial_candidate(a, b, 0.0, 0.0, 0.0, 0.0)
    supports = tuple(tuple(comp.terms) for comp in family.components())
    cfg = SearchConfig(supports, restarts=4, max_iters=120, seed=rng.randint(0, 2**31 - 1))
    result = optimize_bell(state, cfg)
    target = SQRT2 / 2
    opt_rec = CHECKS["bell_monomial_optimum"].record(
        {"config": cfg.to_spec()},
        {
            "value": result.value,
            "target": target,
            "deviation": abs(result.value - target),
            "evaluations": result.evaluations,
        },
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
        CHECKS["surrogate_chsh"].record(
            {"dims": list(dims)}, {"max_deviation": max_chsh_dev}
        ),
        CHECKS["correlation_law"].record(
            {"dims": list(dims), "grid": 33}, {"max_deviation": max_corr_dev}
        ),
    ]


def _check_doubles(state: StateFunctional, rng: random.Random) -> list[CheckRecord]:
    n = 100
    records = []
    if state.kind == KIND_EPR:
        def sample(i):
            res = weyl_double(_rand_fraction(rng), _rand_fraction(rng), state)
            return {"max_deviation": abs(res["deviation"]),
                    "max_sa_deviation": abs(res["sa_deviation"])}

        measured = _worst(n, sample)
        # negative control: the mirrored partner point must fail hard
        u = WeylPolynomial.generator((1, 1, 0, 0))
        wrong = WeylPolynomial.generator((0, 0, 1, 1))
        measured["perturbed_partner_deviation"] = correlation_deviation(state, u, wrong)
        inputs = {"n": n, "state": state.to_spec()}
        records.append(CHECKS["weyl_doubles"].record(inputs, measured))
    nprng = np.random.default_rng(rng.randint(0, 2**31 - 1))
    dims = (2, 4, 8)
    devs, controls = zip(*(_matrix_doubles(build_model(m), nprng, 5) for m in dims))
    records.append(
        CHECKS["matrix_doubles"].record(
            {"dims": list(dims)},
            {"max_deviation": max(devs), "perturbed_partner_deviation": controls[0]},
        )
    )
    return records


# ---------------------------------------------------------------------------
# commands


@contextmanager
def _naming(what: str):
    """Prefix ``what``, the input at fault, to an error raised about it."""
    try:
        yield
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    except TermBudgetError as exc:
        raise TermBudgetError(f"{what}: {exc}") from None


def _load(path: str, parse):
    """Read and parse a JSON file, naming the file in any error about its content."""
    with open(path) as fh, _naming(path):
        return parse(json.load(fh))


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
        bounds = ", ".join(f"{key} {op} {limit:.10g}" for key, op, limit in rec.bounds)
        print(f"[{verdict}] {rec.name} ({bounds})", file=sys.stderr)
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
    poly = _load(args.polynomial, from_records)
    with _naming(args.polynomial):
        value = eval_poly(state, poly)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"the value {value} is not finite")
    print(f"({value.real:.15g}, {value.imag:.15g})")
    return EXIT_PASS


def _points(raw) -> list:
    """The points file as read, whose digest is the input's, within the
    cap of 256 points."""
    if not isinstance(raw, list):
        raise ValueError(f"a points file is a JSON array, not {type(raw).__name__}")
    if len(raw) > 256:
        raise ValueError(f"at most 256 points per battery, got {len(raw)}")
    return raw


def cmd_psd(args) -> int:
    state, state_spec = _load_state(args.state)
    raw = _load(args.points, _points)
    start = time.perf_counter()
    with _naming(args.points):
        min_eig, rank, timings = _measure_kernel(state, raw)
    checks = _kernel_records(
        state, {"points": raw}, {"min_eigenvalue": min_eig, "points": len(raw)}, rank)
    timings["total"] = time.perf_counter() - start
    return _emit_report(state_spec, checks, timings, args.out)


def cmd_bell(args) -> int:
    state, state_spec = _load_state(args.state)
    cfg = _load(args.config, SearchConfig.from_spec)
    cfg = cfg if args.seed is None else replace(cfg, seed=args.seed)
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
    )
    return _emit_report(state_spec, [record], timings, args.out)


def cmd_surrogate(args) -> int:
    with _naming("--dim"):
        model = build_model(args.dim)
    with _naming("--seed"):
        nprng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    chsh = chsh_value(model)
    corr_dev = _correlation_grid_dev(model, 63)
    double_dev, control = _matrix_doubles(model, nprng, 5)
    timings = {"total": time.perf_counter() - start}
    checks = [
        CHECKS["surrogate_chsh"].record(
            {"dim": args.dim},
            {
                "value": chsh,
                "target": SQRT2,
                "max_deviation": abs(chsh - SQRT2),
                "angles": [0.0, math.pi / 2, math.pi / 4, -math.pi / 4],
            },
        ),
        CHECKS["correlation_law"].record(
            {"dim": args.dim, "grid": 63}, {"max_deviation": corr_dev}
        ),
        CHECKS["matrix_doubles"].record(
            {"dim": args.dim, "samples": 5},
            {"max_deviation": double_dev, "perturbed_partner_deviation": control},
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
        if state.kind != KIND_EPR and not on_regular:
            continue
        start = time.perf_counter()
        checks.extend(runner(state, rng))
        timings[name] = time.perf_counter() - start
    timings["total"] = time.perf_counter() - total_start
    return _emit_report(state_spec, checks, timings, args.out)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  It records only
    the command's name: ``main`` looks its ``cmd_*`` function up per call."""
    parser = argparse.ArgumentParser(
        prog="eprbell",
        description="Verification suite for the strictly correlated state on"
        " the Weyl algebra and its maximal Bell correlation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    state = ("--state", {"default": None, "help": "JSON state spec"})
    seed = ("--seed", {"type": int, "default": 0})
    out = ("--out", {"default": None, "help": "write the report to this file"})
    for name, help_, arguments in (
        ("eval", "evaluate the state on a polynomial file",
         [("polynomial", {"help": "JSON polynomial records"}), state]),
        ("psd", "kernel positivity on a points file",
         [("points", {"help": "JSON list of points"}), state, out]),
        ("bell", "run the Bell lower-bound search",
         [("config", {"help": "JSON search configuration"}), state,
          ("--seed", {"type": int, "default": None}), out]),
        ("surrogate", "finite matrix CHSH model checks",
         [("--dim", {"type": int, "required": True}), seed, out]),
        ("verify-all", "run the complete check suite",
         [state, seed, out]),
    ):
        command = sub.add_parser(name, help=help_)
        for flag, kwargs in arguments:
            command.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except TermBudgetError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AssertionError as exc:  # engine self-checks
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
