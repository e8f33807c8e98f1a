"""Shared deterministic generators for the test batteries."""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from eprbell import WeylPolynomial
from eprbell.cli import _distinct_points as distinct_points
from eprbell.cli import _rand_fraction as rand_fraction
from eprbell.cli import _rand_point as rand_point
from eprbell.reports import CheckRecord, VerificationReport


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bits, so -0.0 differs from 0.0 and NaNs compare."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def rand_poly(rng: random.Random, dim: int, max_terms: int = 4) -> WeylPolynomial:
    n = rng.randint(1, max_terms)
    terms = {}
    for _ in range(n):
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms[rand_point(rng, dim)] = coeff
    return WeylPolynomial(dim, terms)


def add_points(x: tuple, y: tuple) -> tuple:
    """The coordinatewise sum of two points of one dimension."""
    assert len(x) == len(y)
    return tuple(a + b for a, b in zip(x, y))


def symplectic_form(x: tuple, y: tuple) -> Fraction:
    """The form (x1*y2 - x2*y1)/2 on R^2, computed exactly."""
    if len(x) != 2 or len(y) != 2:
        raise ValueError("symplectic_form expects two points of dimension 2")
    return (x[0] * y[1] - x[1] * y[0]) / 2


def direct_sum_form(x: tuple, y: tuple) -> Fraction:
    """Sum of the symplectic form over both coordinate pairs of R^4."""
    if len(x) != 4 or len(y) != 4:
        raise ValueError("direct_sum_form expects two points of dimension 4")
    return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) / 2


def report_body_json(report: VerificationReport) -> str:
    """The deterministic body of a report: everything except timings."""
    data = asdict(report)
    data.pop("wall_clock_s")
    return json.dumps(data, sort_keys=True)


def report_from_json(text: str) -> VerificationReport:
    """The report that ``report_to_json`` wrote as ``text``."""
    data = json.loads(text)
    return VerificationReport(**{**data, "checks": [CheckRecord(**c) for c in data["checks"]]})
