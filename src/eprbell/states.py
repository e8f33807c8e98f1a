"""State functionals on the composite Weyl algebra over R^4.

The principal state here strictly correlates relative position and total
momentum.  Its generating functional on a generator W(a,b,c,d) is

    G(a,b,c,d) = delta(a+c) delta(b-d) exp{i(a*lambda + b*mu)},

with delta the characteristic function of {0}, decided by exact rational
equality.  A Gaussian reference state, G(x) = exp(-|x|^2/4), runs the same
machinery over an everywhere-supported regular kernel for contrast.

A functional G induces a state exactly when G(0) = 1 and the twisted kernel

    F(x, y) = G(x - y) exp{-i s(x, y)}

is positive semidefinite; the checks in this module make that executable on
finite point sets, together with the support-partition structure and the
multiplicative identities that pin the strictly-correlated state down
uniquely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .weyl import (
    Point,
    WeylPolynomial,
    adjoint,
    direct_sum_form,
    negate,
    point,
    tensor_embed,
    unit_phase,
    weyl_multiply,
)

KIND_EPR = "epr"
KIND_REGULAR = "regular"


class EquivalenceError(Exception):
    """The kernel support relation failed to be an equivalence relation."""


@dataclass(frozen=True)
class StateFunctional:
    """An evaluable state, either strictly correlated ("epr") or Gaussian
    ("regular").

    ``lam`` and ``mu`` are the dispersion-free values of relative position
    and total momentum; they enter only through phases, never through
    support decisions, so double precision is enough.  ``corrupt_kernel``
    deliberately breaks kernel positivity and exists only to drive
    negative-control paths in tests and reports.
    """

    kind: str = KIND_EPR
    lam: float = 0.0
    mu: float = 0.0
    corrupt_kernel: bool = False

    def __post_init__(self):
        if self.kind not in (KIND_EPR, KIND_REGULAR):
            raise ValueError(f"unknown state kind {self.kind!r}")

    @classmethod
    def epr(cls, lam: float = 0.0, mu: float = 0.0) -> "StateFunctional":
        return cls(KIND_EPR, float(lam), float(mu))

    @classmethod
    def regular(cls) -> "StateFunctional":
        return cls(KIND_REGULAR)

    @classmethod
    def from_spec(cls, spec: dict) -> "StateFunctional":
        kind = spec.get("kind", KIND_EPR)
        return cls(
            kind,
            float(spec.get("lambda", 0.0)),
            float(spec.get("mu", 0.0)),
            bool(spec.get("corrupt_kernel", False)),
        )

    def to_spec(self) -> dict:
        spec = {"kind": self.kind, "lambda": self.lam, "mu": self.mu}
        if self.corrupt_kernel:
            spec["corrupt_kernel"] = True
        return spec


def eval_point(state: StateFunctional, x: Point) -> complex:
    """Value of the generating functional on a single generator W(x).

    For the strictly correlated state the two delta factors are decided by
    exact rational equality, so off-manifold values are exact complex zeros.
    """
    if len(x) != 4:
        raise ValueError("states are defined on the dimension-4 algebra")
    a, b, c, d = x
    if state.kind == KIND_EPR:
        if a + c != 0 or b - d != 0:
            return 0j
        return unit_phase(float(a) * state.lam + float(b) * state.mu)
    norm_sq = sum(float(t) * float(t) for t in x)
    return complex(math.exp(-norm_sq / 4.0), 0.0)


def eval_poly(state: StateFunctional, p: WeylPolynomial) -> complex:
    """Linear extension of eval_point to polynomials."""
    if p.dim != 4:
        raise ValueError("states are defined on the dimension-4 algebra")
    return sum((c * eval_point(state, x) for x, c in p.terms.items()), 0j)


def _check_distinct(points: Sequence[Point]):
    if not points:
        raise ValueError("at least one point is required")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")


def kernel_matrix(state: StateFunctional, points: Sequence[Point]) -> np.ndarray:
    """The twisted kernel M[j,k] = G(x_j - x_k) exp{-i s(x_j, x_k)}.

    Hermitian by the hermiticity of G and antisymmetry of the form.  With the
    corrupt flag set, the last diagonal entry is deflated below zero so the
    matrix is guaranteed non-PSD whatever the points.
    """
    points = [tuple(Fraction(c) for c in p) for p in points]
    _check_distinct(points)
    n = len(points)
    m = np.empty((n, n), dtype=complex)
    for j, xj in enumerate(points):
        for k, xk in enumerate(points):
            diff = tuple(u - v for u, v in zip(xj, xk))
            g = eval_point(state, diff)
            if g == 0:
                m[j, k] = 0.0
            else:
                m[j, k] = g * unit_phase(-direct_sum_form(xj, xk))
    if state.corrupt_kernel:
        m[n - 1, n - 1] -= 1.5
    return m


def psd_check(m: np.ndarray, tol: float) -> dict:
    """Report the minimum eigenvalue of a Hermitian matrix.

    Passes when lambda_min >= -tol.  Rejects matrices that are not Hermitian
    within the same tolerance.
    """
    if m.size == 0:
        raise ValueError("cannot check an empty matrix")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian within {tol} (deviation {dev})")
    eigs = np.linalg.eigvalsh(m)
    lam_min = float(eigs[0])
    return {"min_eigenvalue": lam_min, "passed": lam_min >= -tol}


def positivity_check(state: StateFunctional, p: WeylPolynomial) -> float:
    """omega(P* P) as a real number.

    Positivity of the state makes this nonnegative up to roundoff; tests
    assert that and also compare against the kernel quadratic form of
    P* = sum_j d_j W(y_j): omega(P*P) = sum_{j,k} d_j conj(d_k) M[j,k] with
    M = kernel_matrix(state, [y_j]).  The same form over the terms of P
    itself is omega(P P*).
    """
    value = eval_poly(state, weyl_multiply(adjoint(p), p))
    return float(value.real)


@dataclass(frozen=True)
class SupportPartition:
    """Disjoint index classes S_1..S_m covering {0..n-1}."""

    size: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            for idx in cls:
                if idx in seen:
                    raise ValueError("partition classes overlap")
                seen.add(idx)
        if seen != set(range(self.size)):
            raise ValueError("partition does not cover the index range")


def support_relation(m: np.ndarray, zero_tol: float = 1e-9) -> SupportPartition:
    """Partition the indices of a kernel matrix by the relation (j,k)
    related iff M[j,k] != 0.

    ``m`` is the matrix ``kernel_matrix`` built, so each battery's kernel is
    built once.  Verifies that the relation really is an equivalence
    (reflexive, symmetric, transitive) before returning its classes;
    failure raises ``EquivalenceError``.  For the strictly correlated kernel
    the relation is the kernel of the invariant map x -> (a+c, b-d), so it
    always passes; regular kernels with thresholded tails can genuinely fail.
    """
    related = np.abs(m) > zero_tol
    n = len(m)
    if not np.all(np.diag(related)):
        raise EquivalenceError("support relation is not reflexive")
    if not np.array_equal(related, related.T):
        raise EquivalenceError("support relation is not symmetric")
    closure = (related.astype(int) @ related.astype(int)) > 0
    if np.any(closure & ~related):
        raise EquivalenceError("support relation is not transitive")
    assigned = [-1] * n
    classes: list[list[int]] = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        members = [j for j in range(n) if related[i, j]]
        for j in members:
            assigned[j] = len(classes)
        classes.append(members)
    return SupportPartition(n, tuple(tuple(c) for c in classes))


def rank_one_class_check(
    m: np.ndarray, partition: SupportPartition, tol: float
) -> dict:
    """Check the rank-one phase structure of the kernel on each class.

    Within a class every entry must be unimodular and satisfy the cocycle
    M[j,k] M[k,l] = M[j,l], which is equivalent to a factorization
    M[j,k] = alpha_j conj(alpha_k) with unimodular alphas; across classes
    the kernel must vanish.
    """
    max_modulus_dev = 0.0
    max_cocycle_dev = 0.0
    max_cross_leak = 0.0
    for cls in partition.classes:
        for j in cls:
            for k in cls:
                max_modulus_dev = max(max_modulus_dev, abs(abs(m[j, k]) - 1.0))
                for l in cls:
                    max_cocycle_dev = max(
                        max_cocycle_dev, abs(m[j, k] * m[k, l] - m[j, l])
                    )
    cls_of = {}
    for ci, cls in enumerate(partition.classes):
        for j in cls:
            cls_of[j] = ci
    n = partition.size
    for j in range(n):
        for k in range(n):
            if cls_of[j] != cls_of[k]:
                max_cross_leak = max(max_cross_leak, abs(m[j, k]))
    max_modulus_dev = float(max_modulus_dev)
    max_cocycle_dev = float(max_cocycle_dev)
    max_cross_leak = float(max_cross_leak)
    passed = (
        max_modulus_dev <= tol and max_cocycle_dev <= tol and max_cross_leak <= tol
    )
    return {
        "max_modulus_dev": max_modulus_dev,
        "max_cocycle_dev": max_cocycle_dev,
        "max_cross_leak": max_cross_leak,
        "passed": passed,
    }


def uniqueness_support_check(state: StateFunctional, x: Point) -> dict:
    """The exact value trichotomy on a single generator.

    Off the manifold {c = -a, d = b} the value must be an exact zero; on it
    the value must be exp{i(a*lambda + b*mu)} within 1e-12.
    """
    if state.kind != KIND_EPR:
        raise ValueError("uniqueness support check applies to the epr state")
    if len(x) != 4:
        raise ValueError("expected a dimension-4 point")
    a, b, c, d = x
    value = eval_point(state, x)
    on_manifold = (c == -a) and (d == b)
    if on_manifold:
        expected = unit_phase(float(a) * state.lam + float(b) * state.mu)
        deviation = abs(value - expected)
        passed = deviation <= 1e-12
    else:
        expected = 0j
        deviation = abs(value)
        passed = value == 0
    return {
        "on_manifold": on_manifold,
        "value": value,
        "expected": expected,
        "deviation": float(deviation),
        "passed": passed,
    }


def _correlated_pair(s: Fraction) -> WeylPolynomial:
    """W(s,0) x W(-s,0) as a dimension-4 polynomial."""
    left = tensor_embed(WeylPolynomial.generator(point(s, 0)), 1)
    right = tensor_embed(WeylPolynomial.generator(point(-s, 0)), 2)
    return weyl_multiply(left, right)


def _comomentum_pair(t: Fraction) -> WeylPolynomial:
    """W(0,t) x W(0,t) as a dimension-4 polynomial."""
    left = tensor_embed(WeylPolynomial.generator(point(0, t)), 1)
    right = tensor_embed(WeylPolynomial.generator(point(0, t)), 2)
    return weyl_multiply(left, right)


def multiplicativity_check(
    state: StateFunctional,
    s: Fraction,
    t: Fraction,
    probes: Iterable[Point] = (),
) -> dict:
    """Multiplicativity of the state against the correlated abelian family.

    With A = W(s,0) x W(-s,0) and B = W(0,t) x W(0,t), checks
    omega(AB) = omega(A) omega(B), and for each probe point x checks
    omega(A W(x)) = omega(A) omega(W(x)) and the reversed order, for both
    A and B.
    """
    a_poly = _correlated_pair(Fraction(s))
    b_poly = _comomentum_pair(Fraction(t))
    wa = eval_poly(state, a_poly)
    wb = eval_poly(state, b_poly)
    deviations = [abs(eval_poly(state, weyl_multiply(a_poly, b_poly)) - wa * wb)]
    for x in probes:
        x_poly = WeylPolynomial.generator(x)
        wx = eval_poly(state, x_poly)
        for fixed, wf in ((a_poly, wa), (b_poly, wb)):
            deviations.append(
                abs(eval_poly(state, weyl_multiply(fixed, x_poly)) - wf * wx)
            )
            deviations.append(
                abs(eval_poly(state, weyl_multiply(x_poly, fixed)) - wx * wf)
            )
    max_dev = float(max(deviations))
    return {"max_deviation": max_dev, "passed": max_dev <= 1e-12}


def traciality_check(state: StateFunctional, a: Point, b: Point) -> dict:
    """omega(W(a)W(b) x I) = omega(W(b)W(a) x I) for one-particle points.

    Both orders evaluate through the full product machinery.  When b != -a
    both sides are exact zeros; when b = -a both reduce to omega(I) = 1.
    """
    if len(a) != 2 or len(b) != 2:
        raise ValueError("traciality_check expects dimension-2 points")
    pa = WeylPolynomial.generator(a)
    pb = WeylPolynomial.generator(b)
    forward = eval_poly(state, tensor_embed(weyl_multiply(pa, pb), 1))
    reverse = eval_poly(state, tensor_embed(weyl_multiply(pb, pa), 1))
    deviation = abs(forward - reverse)
    passed = deviation <= 1e-12
    if negate(a) != b:
        passed = passed and forward == 0 and reverse == 0
    return {
        "forward": forward,
        "reverse": reverse,
        "deviation": float(deviation),
        "passed": passed,
    }
