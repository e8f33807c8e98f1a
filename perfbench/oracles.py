"""Correctness oracles, independent of the package under test.

Each judge takes an operation's spec and what the program returned, and
gives one outcome:

- ``OK``: the result is right;
- ``FALSE_FAIL``: the program failed a kernel check on a state that is
  provably positive, by a margin no larger than the rounding error of its
  double-precision phases.  This is the known defect of rounding the exact
  angle to a double before reducing it mod 2 pi; it counts in
  ``fail_share``, never as correct;
- ``WRONG``: anything else: a wrong verdict or exit code, a wrong count, a
  value off its reference, a missing report.

The references are computed here from the spec with exact ``Fraction``
support decisions, never by calling ``eprbell``.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from fractions import Fraction

OK, WRONG, FALSE_FAIL = "ok", "wrong", "false_fail"

SQRT2 = math.sqrt(2.0)
PSD_TOL = 1e-10
RANK_ONE_TOL = 1e-9

VERIFY_ALL_CHECKS = frozenset({
    "kernel_psd", "support_rank_one", "gram_orthonormality",
    "uniqueness_support", "multiplicativity", "traciality", "collinearity",
    "bell_monomial_agreement", "bell_monomial_optimum", "surrogate_chsh",
    "correlation_law", "weyl_doubles", "matrix_doubles",
})


def parse_point(coords) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coords)


def invariant(x) -> tuple[Fraction, Fraction]:
    """(a + c, b - d): the EPR state is supported where it vanishes."""
    return (x[0] + x[2], x[1] - x[3])


def support_classes(points) -> dict:
    """Indices grouped on the exact invariant: the EPR support classes."""
    classes: dict = {}
    for i, x in enumerate(points):
        classes.setdefault(invariant(x), []).append(i)
    return classes


def form(x, y) -> Fraction:
    """The direct-sum symplectic form s(x, y) on R^4."""
    return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) / 2


def epr_value(state: dict, x) -> complex:
    """G(a, b, c, d) = delta(a + c) delta(b - d) exp{i(a lambda + b mu)}."""
    if x[0] + x[2] != 0 or x[1] - x[3] != 0:
        return 0j
    return cmath.exp(1j * (float(x[0]) * state["lambda"] + float(x[1]) * state["mu"]))


def _sub(x, y):
    return tuple(u - v for u, v in zip(x, y))


def _checks(report: dict | None) -> dict:
    return {c["name"]: c for c in report["checks"]} if report else {}


def report_body_digest(report: dict) -> str:
    """sha256 of the deterministic report body (everything but timings)."""
    body = {k: v for k, v in report.items() if k != "wall_clock_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# psd_batteries


def phase_error_bound(points, state: dict) -> tuple[float, int]:
    """A bound on the rounding error of one kernel entry, and the largest class.

    A phase angle t computed in doubles is off by about |t| 2^-53, so an
    entry G(x_j - x_k) exp{-i s(x_j, x_k)} is off by at most a few ulps of
    |s| + |(a_j - a_k) lambda| + |(b_j - b_k) mu|.  Sixteen ulps of the
    largest such sum over related pairs is a generous bound.
    """
    worst = 0.0
    largest = 1
    for members in support_classes(points).values():
        largest = max(largest, len(members))
        for j in members:
            for k in members:
                d = _sub(points[j], points[k])
                worst = max(worst, abs(float(form(points[j], points[k])))
                            + abs(float(d[0]) * state["lambda"])
                            + abs(float(d[1]) * state["mu"]))
    return worst * 2.0**-49, largest


def _consistent(checks: dict) -> bool:
    """Each verdict agrees with the values measured for it."""
    kp = checks["kernel_psd"]
    if kp["passed"] != (kp["measured"]["min_eigenvalue"] >= -kp["tolerance"]):
        return False
    sr = checks.get("support_rank_one")
    if sr is None or "classes" not in sr["measured"]:
        return True
    devs = [sr["measured"][k] for k in ("max_modulus_dev", "max_cocycle_dev", "max_cross_leak")]
    return sr["passed"] == (max(devs) <= sr["tolerance"])


def judge_psd(spec: dict, code: int, report: dict | None) -> str:
    checks = _checks(report)
    points = [parse_point(p) for p in spec["points"]]
    state = spec["state"]
    kp = checks.get("kernel_psd")
    if kp is None or kp["measured"].get("points") != len(points):
        return WRONG
    if report["overall_pass"] != (code == 0) or not _consistent(checks):
        return WRONG
    epr = state["kind"] == "epr"
    if epr:
        sr = checks.get("support_rank_one")
        if sr is None or sr["measured"].get("classes") != len(support_classes(points)):
            return WRONG
    if state.get("corrupt_kernel"):
        # the last diagonal entry is 1 - 1.5, so lambda_min <= -0.5
        deflated = kp["measured"]["min_eigenvalue"] <= -0.5 + 1e-9
        return OK if code == 1 and not kp["passed"] and deflated else WRONG
    if code == 0 and all(c["passed"] for c in checks.values()):
        return OK
    if not epr or code != 1:
        return WRONG
    delta, largest = phase_error_bound(points, state)
    rank = checks["support_rank_one"]["measured"]
    within = (
        kp["measured"]["min_eigenvalue"] >= -(largest * delta + PSD_TOL)
        and max(rank["max_modulus_dev"], rank["max_cocycle_dev"]) <= 3 * delta + RANK_ONE_TOL
        and rank["max_cross_leak"] == 0.0
    )
    return FALSE_FAIL if within else WRONG


# ---------------------------------------------------------------------------
# algebra_products


def quadratic_form(state: dict, points, coeffs) -> float:
    """sum_{j,k} c_j conj(c_k) M[j,k], M the twisted EPR kernel at the points.

    Cross-class entries are exact zeros, so only related pairs are summed.
    """
    total = 0j
    for members in support_classes(points).values():
        for j in members:
            for k in members:
                m = epr_value(state, _sub(points[j], points[k])) * cmath.exp(
                    -1j * float(form(points[j], points[k])))
                total += coeffs[j] * coeffs[k].conjugate() * m
    return total.real


def positivity_reference(state: dict, terms) -> float:
    """omega(P* P) as a kernel quadratic form.

    The kernel F(x, y) = G(x - y) exp{-i s(x, y)} is omega(W(x) W(y)*), so
    its quadratic form in the terms of Q is omega(Q Q*).  With Q = P*,
    whose terms are conj(c_j) W(-x_j), that is omega(P* P).  The form in
    P's own terms is omega(P P*), which differs from omega(P* P) as soon as
    a support class with a nonzero invariant holds two terms.
    """
    points = [tuple(-c for c in parse_point(t[0])) for t in terms]
    coeffs = [complex(t[1], -t[2]) for t in terms]
    return quadratic_form(state, points, coeffs)


def judge_positivity(spec: dict, value: float) -> str:
    ref = positivity_reference(spec["state"], spec["terms"])
    ok = value >= -PSD_TOL and abs(value - ref) <= 1e-9 * max(1.0, abs(ref))
    return OK if ok else WRONG


def frame_gram(state: dict, frame) -> list[list[complex]]:
    """gram[j][k] = omega(W(x_j)* W(x_k)) = G(x_k - x_j) exp{-i s(x_j, x_k)}."""
    pts = [parse_point(p) for p in frame]
    return [[epr_value(state, _sub(xk, xj)) * cmath.exp(-1j * float(form(xj, xk)))
             for xk in pts] for xj in pts]


def judge_frame(spec: dict, gram, lower_bound: float) -> str:
    ref = frame_gram(spec["state"], spec["frame"])
    n = len(ref)
    gram_ok = all(abs(complex(gram[j][k]) - ref[j][k]) <= 1e-12
                  for j in range(n) for k in range(n))
    one_norm = sum(math.hypot(t[1], t[2]) for t in spec["poly"])
    ok = gram_ok and 0.0 <= lower_bound <= one_norm + 1e-9
    return OK if ok else WRONG


def judge_multiplicativity(spec: dict, results) -> str:
    ok = len(results) == len(spec["cases"]) and all(r["passed"] for r in results)
    return OK if ok else WRONG


def collinearity_phase(state: dict, case) -> complex:
    """exp{it} exp{ic lambda} exp{-id mu} with t = (ad + bc)/2."""
    a, b, c, d = (Fraction(v) for v in case)
    angle = float((a * d + b * c) / 2) + float(c) * state["lambda"] - float(d) * state["mu"]
    return cmath.exp(1j * angle)


def judge_collinearity(spec: dict, results) -> str:
    if len(results) != len(spec["cases"]):
        return WRONG
    ok = all(
        r["passed"] and abs(r["overlap"] - collinearity_phase(spec["state"], case)) <= 1e-12
        for r, case in zip(results, spec["cases"])
    )
    return OK if ok else WRONG


# ---------------------------------------------------------------------------
# bell_search


def bell_value(state: dict, candidate: dict) -> float:
    """Re omega((A1(B1 + B2) + A2(B1 - B2))/2) from serialized slots.

    Factor-1 and factor-2 generators commute with no phase, so
    omega(A B) = sum a_x b_y G(x0, x1, y0, y1).
    """
    def slot(name):
        return [(parse_point(r["point"]), complex(r["re"], r["im"])) for r in candidate[name]]

    def corr(left, right):
        return sum((a * b * epr_value(state, (x[0], x[1], y[0], y[1]))
                    for x, a in left for y, b in right), 0j)

    a1, a2, b1, b2 = (slot(n) for n in ("a1", "a2", "b1", "b2"))
    total = corr(a1, b1) + corr(a1, b2) + corr(a2, b1) - corr(a2, b2)
    return 0.5 * total.real


def judge_bell(spec: dict, code: int, report: dict | None, evaluations: dict) -> str:
    rec = _checks(report).get("bell_search")
    if code != 0 or rec is None or not rec["passed"]:
        return WRONG
    m = rec["measured"]
    value = m["value"]
    ok = (
        value <= SQRT2 + 1e-9
        and abs(bell_value(spec["state"], m["candidate"]) - value) <= 1e-10
        and m["evaluations"] == evaluations.get(spec["key"])
        and (spec["orbits"] > 1 or abs(value - SQRT2 / 2) <= 1e-6)
    )
    return OK if ok else WRONG


# ---------------------------------------------------------------------------
# verify_all


def judge_verify_all(code: int, report: dict | None, reference_digest: str | None) -> str:
    """Exit 0, every check present and passing, and a body identical to the
    reference when the same seed ran before."""
    checks = _checks(report)
    ok = (
        code == 0
        and report is not None
        and report["overall_pass"]
        and len(report["checks"]) == len(VERIFY_ALL_CHECKS)
        and set(checks) == VERIFY_ALL_CHECKS
        and all(c["passed"] for c in checks.values())
        and (reference_digest is None or report_body_digest(report) == reference_digest)
    )
    return OK if ok else WRONG
