"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import distinct_points, rand_fraction, rand_point, rand_poly, report_from_json
from eprbell import (
    SearchConfig,
    StateFunctional,
    WeylPolynomial,
    adjoint,
    bell_value,
    build_model,
    collinearity_check,
    correlation,
    correlation_grid,
    double_deviation,
    double_of,
    kernel_matrix,
    monomial_candidate,
    multiplicativity_check,
    one_norm,
    optimize_bell,
    point,
    positivity_check,
    psd_check,
    tensor_embed,
    traciality_check,
    uniqueness_support_check,
    weyl_double,
    weyl_multiply,
)
from eprbell.cli import main
from eprbell.weyl import negate
from test_bell import family_grid_max

SQRT2 = math.sqrt(2.0)


def _report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_surrogate_chsh(tmp_path):
    worst = 0.0
    slowest = 0.0
    for m in range(2, 65, 2):
        out = str(tmp_path / f"rep{m}.json")
        start = time.perf_counter()
        code = main(["surrogate", "--dim", str(m), "--out", out])
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert code == 0
        report = report_from_json(Path(out).read_text())
        chsh = next(c for c in report.checks if c.name == "surrogate_chsh")
        worst = max(worst, abs(chsh.measured["value"] - 1.414213562373095))
    ok = worst <= 1e-12 and slowest < 1.0
    _report(1, ok, f"max |chsh - sqrt(2)| = {worst:.3e} over dims 2..64, "
                   f"slowest run {slowest:.3f}s")


def test_criterion_2_correlation_law():
    start = time.perf_counter()
    model = build_model(2)
    thetas = np.arange(0.0, 2 * math.pi, 1e-2)
    grid = correlation_grid(model, thetas)
    expected = np.cos(thetas[:, None] - thetas[None, :])
    max_dev = float(np.max(np.abs(grid - expected)))
    # tie the vectorized grid to the pointwise operation
    rng = random.Random(100)
    spot_dev = 0.0
    for _ in range(200):
        j, k = rng.randrange(len(thetas)), rng.randrange(len(thetas))
        spot_dev = max(
            spot_dev, abs(grid[j, k] - correlation(model, thetas[j], thetas[k]))
        )
    elapsed = time.perf_counter() - start
    ok = max_dev < 1e-12 and spot_dev <= 1e-15 and elapsed < 5.0
    _report(2, ok, f"max |corr - cos| = {max_dev:.3e} on a 1e-2 grid "
                   f"({len(thetas)}^2 pairs), grid-vs-op dev {spot_dev:.1e}, "
                   f"{elapsed:.2f}s")


def test_criterion_3_kernel_positivity():
    start = time.perf_counter()
    rng = random.Random(101)
    worst = math.inf
    batteries = 0
    for _ in range(5):
        state = StateFunctional.epr(rng.uniform(-5, 5), rng.uniform(-5, 5))
        for _ in range(10):
            pts = distinct_points(rng, 64, 4)
            res = psd_check(kernel_matrix(state, pts))
            worst = min(worst, res["min_eigenvalue"])
            batteries += 1
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-10 and batteries == 50 and elapsed < 30.0
    _report(3, ok, f"min eigenvalue {worst:.3e} over {batteries} batteries "
                   f"of 64 points at 5 (lambda, mu) settings, {elapsed:.1f}s")


def test_criterion_4_support_uniqueness():
    rng = random.Random(102)
    state = StateFunctional.epr(rng.uniform(-4, 4), rng.uniform(-4, 4))
    worst = 0.0
    ok = True
    on_manifold = 0
    for i in range(200):
        if i % 2:
            x = rand_point(rng, 4)
        else:
            a, b = rand_fraction(rng), rand_fraction(rng)
            x = (a, b, -a, b)
        res = uniqueness_support_check(state, x)
        on_manifold += res["on_manifold"]
        worst = max(worst, res["deviation"])
        ok = ok and res["passed"]
    ok = ok and worst <= 1e-12
    _report(4, ok, f"200 monomials ({on_manifold} on the manifold), "
                   f"max deviation {worst:.3e}")


def test_criterion_5_trace_vector_and_multiplicativity():
    rng = random.Random(103)
    state = StateFunctional.epr(rng.uniform(-4, 4), rng.uniform(-4, 4))
    worst = 0.0
    ok = True
    for _ in range(100):
        tr = traciality_check(state, rand_point(rng, 2), rand_point(rng, 2))
        mu = multiplicativity_check(
            state, rand_fraction(rng), rand_fraction(rng),
            probes=[rand_point(rng, 4)],
        )
        worst = max(worst, tr["deviation"], mu["max_deviation"])
        ok = ok and tr["passed"] and mu["passed"]
    ok = ok and worst <= 1e-10
    _report(5, ok, f"100 traciality + multiplicativity pairs, "
                   f"max deviation {worst:.3e}")


def test_criterion_6_collinearity():
    rng = random.Random(104)
    state = StateFunctional.epr(rng.uniform(-4, 4), rng.uniform(-4, 4))
    worst_mod = 0.0
    worst_phase = 0.0
    ok = True
    for _ in range(100):
        a, b, c, d = (rand_fraction(rng) for _ in range(4))
        res = collinearity_check(a, b, c, d, state)
        worst_mod = max(worst_mod, abs(res["modulus"] - 1.0))
        worst_phase = max(worst_phase, res["phase_deviation"])
        ok = ok and res["passed"]
    ok = ok and worst_mod <= 1e-12 and worst_phase <= 1e-12
    _report(6, ok, f"100 quadruples, max |modulus - 1| = {worst_mod:.3e}, "
                   f"max phase deviation {worst_phase:.3e}")


def test_criterion_7_bell_search_calibration():
    start = time.perf_counter()
    state = StateFunctional.epr()
    xa, xb = point(1, 2), point(-1, 2)
    cfg = SearchConfig(
        supports=(
            (xa, negate(xa)),
            (xa, negate(xa)),
            (xb, negate(xb)),
            (xb, negate(xb)),
        ),
        seed=0,
    )
    result = optimize_bell(state, cfg)
    search_dev = abs(result.value - SQRT2 / 2)
    grid_dev = abs(family_grid_max() - SQRT2 / 2)
    # soundness: nothing observed in any run exceeds the quantum bound
    sound = result.value <= SQRT2 + 1e-9 and all(
        v <= SQRT2 + 1e-9 for _, v in result.trace
    )
    rng = random.Random(105)
    for _ in range(50):
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        value = bell_value(state, monomial_candidate(Fraction(1), Fraction(2), *angles))
        sound = sound and abs(value) <= SQRT2 + 1e-9
    elapsed = time.perf_counter() - start
    ok = search_dev <= 1e-6 and grid_dev <= 1e-6 and sound and elapsed < 60.0
    _report(7, ok, f"search max dev {search_dev:.2e}, brute-force grid dev "
                   f"{grid_dev:.2e} from sqrt(2)/2, sound={sound}, {elapsed:.1f}s")


def test_criterion_8_doubles():
    rng = random.Random(106)
    worst_weyl = 0.0
    ok = True
    for _ in range(100):
        state = StateFunctional.epr(rng.uniform(-4, 4), rng.uniform(-4, 4))
        a, b = rand_fraction(rng), rand_fraction(rng)
        res = weyl_double(a, b, state)
        worst_weyl = max(worst_weyl, abs(res["deviation"]))
    ok = ok and worst_weyl <= 1e-12

    # perturbed Weyl partner: mirrored point is orthogonal, deviation 2
    state = StateFunctional.epr(1.1, -0.6)
    u = tensor_embed(WeylPolynomial.generator(point(1, 1)), 1)
    wrong = tensor_embed(WeylPolynomial.generator(point(1, 1)), 2)
    from eprbell import correlation_deviation

    weyl_control = correlation_deviation(state, u, wrong)
    ok = ok and weyl_control >= 0.01

    nprng = np.random.default_rng(107)
    worst_matrix = 0.0
    matrix_control = math.inf
    for m in (2, 4, 8):
        model = build_model(m)
        for _ in range(10):
            raw = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m))
            sym = (raw + raw.conj().T) / 2
            res = double_of(model, sym)
            worst_matrix = max(worst_matrix, abs(res["deviation"]))
        perturbed = double_of(model, sym)["double"] + 0.1 * np.eye(m)
        matrix_control = min(matrix_control, double_deviation(model, sym, perturbed))
    ok = ok and worst_matrix <= 1e-12 and matrix_control >= 0.01 - 1e-9
    _report(8, ok, f"weyl max dev {worst_weyl:.2e}, matrix max dev "
                   f"{worst_matrix:.2e}, controls {weyl_control:.3f} / "
                   f"{matrix_control:.4f} >= 0.01")


def test_criterion_9_engine_self_consistency():
    rng = random.Random(108)
    worst_gram = 0.0
    for _ in range(100):
        state = StateFunctional.epr(rng.uniform(-3, 3), rng.uniform(-3, 3))
        p = rand_poly(rng, 4)
        pts = p.points()
        coeffs = np.array([p.terms[x] for x in pts])
        m = kernel_matrix(state, pts)
        quad = float(np.real(coeffs @ m @ coeffs.conj()))
        worst_gram = max(worst_gram, abs(positivity_check(state, p) - quad))

    worst_assoc = 0.0
    worst_invol = 0.0
    for _ in range(60):
        p, q, r = (rand_poly(rng, 4) for _ in range(3))
        worst_assoc = max(
            worst_assoc,
            one_norm(
                weyl_multiply(weyl_multiply(p, q), r)
                - weyl_multiply(p, weyl_multiply(q, r))
            ),
        )
        worst_invol = max(
            worst_invol,
            one_norm(adjoint(weyl_multiply(p, q)) - weyl_multiply(adjoint(q), adjoint(p))),
        )
    ok = worst_gram <= 1e-9 and worst_assoc <= 1e-10 and worst_invol <= 1e-10
    _report(9, ok, f"gram-form dev {worst_gram:.2e}, associativity "
                   f"{worst_assoc:.2e}, involution {worst_invol:.2e}")
