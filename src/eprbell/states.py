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
    ZERO_THRESHOLD,
    Point,
    WeylPolynomial,
    adjoint,
    lattice,
    negate,
    point,
    tensor_embed,
    unit_phase,
    weyl_multiply,
)

KIND_EPR = "epr"
KIND_REGULAR = "regular"

#: Entries of modulus at most this are outside the kernel's support relation.
SUPPORT_ZERO_TOL = 1e-9

#: Tolerance of the uniqueness, multiplicativity, traciality and collinearity
#: checks: each compares doubles against a value the identity fixes exactly.
IDENTITY_TOL = 1e-12


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
        for field, value in (("lambda", self.lam), ("mu", self.mu)):
            if not math.isfinite(value):
                raise ValueError(f"state field {field!r} must be finite, got {value!r}")

    @classmethod
    def epr(cls, lam: float = 0.0, mu: float = 0.0) -> "StateFunctional":
        return cls(KIND_EPR, float(lam), float(mu))

    @classmethod
    def regular(cls) -> "StateFunctional":
        return cls(KIND_REGULAR)

    @classmethod
    def from_spec(cls, spec: dict) -> "StateFunctional":
        if not isinstance(spec, dict):
            found = type(spec).__name__
            raise ValueError(f"a state spec must be a JSON object, not {found}")
        corrupt = spec.get("corrupt_kernel", False)
        if not isinstance(corrupt, bool):
            raise ValueError(
                f"state field 'corrupt_kernel' must be true or false, got {corrupt!r}"
            )
        return cls(
            spec.get("kind", KIND_EPR),
            _spec_number(spec, "lambda"),
            _spec_number(spec, "mu"),
            corrupt,
        )

    def to_spec(self) -> dict:
        spec = {"kind": self.kind, "lambda": self.lam, "mu": self.mu}
        if self.corrupt_kernel:
            spec["corrupt_kernel"] = True
        return spec


def _spec_number(spec: dict, field: str) -> float:
    """A numeric state field, as float() reads it; JSON true/false and null
    are rejected, naming the field."""
    value = spec.get(field, 0.0)
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"state field {field!r} must be a number, got {value!r}")


def eval_point(state: StateFunctional, x: Point, den: int = 1) -> complex:
    """Value of the generating functional on a single generator W(x / den).

    ``x`` holds exact rationals, or ints over the lattice denominator
    ``den`` of ``WeylPolynomial.lattice_items``.  For the strictly
    correlated state the two delta factors are decided by exact equality,
    so off-manifold values are exact complex zeros.  A coordinate's double
    is the correctly rounded int quotient ``t / den``, which is ``float`` of
    the exact rational.
    """
    if len(x) != 4:
        raise ValueError("states are defined on the dimension-4 algebra")
    a, b, c, d = x
    if state.kind == KIND_EPR:
        if a + c != 0 or b - d != 0:
            return 0j
        fa, fb = (float(a), float(b)) if den == 1 else (a / den, b / den)
        return unit_phase(fa * state.lam + fb * state.mu)
    fa, fb, fc, fd = (float(t) for t in x) if den == 1 else (t / den for t in x)
    norm_sq = fa * fa + fb * fb + fc * fc + fd * fd
    return complex(math.exp(-norm_sq / 4.0), 0.0)


def eval_poly(state: StateFunctional, p: WeylPolynomial) -> complex:
    """Linear extension of eval_point to polynomials, one call per term on
    the polynomial's lattice points, summed in insertion order."""
    if p.dim != 4:
        raise ValueError("states are defined on the dimension-4 algebra")
    den, items = p.lattice_items()
    return sum((c * eval_point(state, x, den) for x, c in items), 0j)


def _check_distinct(points: Sequence[Point]):
    if not points:
        raise ValueError("at least one point is required")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")


#: Rows of a kernel block computed at once, so temporaries are O(chunk * n).
_ROW_CHUNK = 32


def kernel_matrix(state: StateFunctional, points: Sequence[Point]) -> np.ndarray:
    """The twisted kernel M[j,k] = G(x_j - x_k) exp{-i s(x_j, x_k)}.

    Hermitian by the hermiticity of G and antisymmetry of the form.  With the
    corrupt flag set, the last diagonal entry is deflated below zero so the
    matrix is guaranteed non-PSD whatever the points.

    Every entry is the double that evaluating eval_point on the exact
    difference, times unit_phase of the exact form, gives.  The points are
    put on the integer lattice of ``weyl.lattice``; for the epr state
    only entries within a class of the invariant (a+c, b-d) are computed,
    and all others are exact zeros.
    """
    points = [
        tuple(c if isinstance(c, Fraction) else Fraction(c) for c in p) for p in points
    ]
    _check_distinct(points)
    if any(len(p) != 4 for p in points):
        raise ValueError("states are defined on the dimension-4 algebra")
    n = len(points)
    scale, ints = lattice(points)
    coords = _lattice_array(ints, max(abs(v) for p in ints for v in p), scale)
    if state.kind == KIND_EPR:
        classes: dict[tuple[int, int], list[int]] = {}
        for j, (a, b, c, d) in enumerate(ints):
            classes.setdefault((a + c, b - d), []).append(j)
        blocks = list(classes.values())
    else:
        blocks = [list(range(n))]
    m = np.zeros((n, n), dtype=complex)
    for cols in blocks:
        for start in range(0, len(cols), _ROW_CHUNK):
            rows = cols[start : start + _ROW_CHUNK]
            block = np.ix_(rows, cols)
            m.real[block], m.imag[block] = _kernel_block(
                state, coords[rows], coords[cols], scale
            )
    if state.corrupt_kernel:
        m[n - 1, n - 1] -= 1.5
    return m


def _lattice_array(ints: list[tuple[int, ...]], big: int, scale: int) -> np.ndarray:
    """Scaled integer points, of largest coordinate ``big``, as int64 only
    while every product, sum and divisor formed from them is an integer a
    double holds exactly, so each quotient is correctly rounded, as
    float(Fraction) is; as Python ints otherwise."""
    fits = 4 * big * big < 2**53 and 2 * scale * scale < 2**53
    return np.array(ints, dtype=np.int64 if fits else object)


def _kernel_block(
    state: StateFunctional, x: np.ndarray, y: np.ndarray, scale: int
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of M over rows x and columns y of scaled
    integer coordinates: eval_point of each exact difference times
    unit_phase of the exact form, computed as Python's complex * does."""
    # exp{-i s(x, y)} is the unit_phase of s(y, x)
    p_re, p_im = _phase(y[None, :], x[:, None], scale)
    diffs = [x[:, None, i] - y[None, :, i] for i in range(4)]
    g_re, g_im = _state_factor(state, diffs, scale)
    # the complex product written out over real and imaginary parts; an
    # underflowed Gaussian factor gives an exact zero entry
    zero = (g_re == 0.0) & (g_im == 0.0)
    re = np.where(zero, 0.0, g_re * p_re - g_im * p_im)
    im = np.where(zero, 0.0, g_re * p_im + g_im * p_re)
    return re, im


def _phase(x: np.ndarray, y: np.ndarray, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of unit_phase(s(x, y)) for scaled integer
    points x and y, coordinates on the last axis, broadcast together.  A
    zero form gives the angle 0.0, never -0.0, where cos/sin are exactly 1
    and 0 as unit_phase is."""
    sym = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
    sym = sym + x[..., 2] * y[..., 3] - x[..., 3] * y[..., 2]
    angle = np.asarray(sym / (2 * scale * scale), dtype=float)
    return np.cos(angle), np.sin(angle)


def _state_factor(
    state: StateFunctional, z: list[np.ndarray], scale: int
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of eval_point on the scaled integer points
    whose four coordinates are the arrays z, taken on the epr manifold."""
    # float() of each exact coordinate
    f = [np.asarray(c / scale, dtype=float) for c in z]
    if state.kind == KIND_EPR:
        # on the manifold only: unit_phase's exact 1 at a zero angle differs
        # from cos/sin only by sin(-0.0) = -0.0, a zero's sign that both
        # callers' products and sums absorb
        t = f[0] * state.lam + f[1] * state.mu
        return np.cos(t), np.sin(t)
    # left to right, as eval_point sums the squares
    arg = -(f[0] * f[0] + f[1] * f[1] + f[2] * f[2] + f[3] * f[3]) / 4.0
    # math.exp, not np.exp, whose last bit differs from libm's
    g_re = np.fromiter(map(math.exp, arg.ravel()), float, arg.size)
    return g_re.reshape(arg.shape), np.zeros(arg.shape)


#: Entries of the terms-by-(j, k) block one compression pass computes.
_PASS_ENTRIES = 2**14


def compression_matrix(
    state: StateFunctional, points: Sequence[Point], p: WeylPolynomial
) -> np.ndarray:
    """C[j,k] = omega(W(-x_j) P W(x_k)) for the points x_j and a dimension-4 P.

    Each entry is the double eval_poly gives of the engine's product
    (W(x_j)* P) W(x_k), replayed on the integer lattice a block of P's
    terms c W(y) at a time: (1-0j) c times the phase of s(-x_j, y), then
    (1+0j) and the phase of s(y - x_j, x_k), each product's term dropped
    below ``ZERO_THRESHOLD`` as canonical form drops it, then eval_point at
    y - x_j + x_k, summed from 0j in P's order.  Every complex * is written
    out over real and imaginary parts as Python computes it; canonical
    form's 0j + v only clears a zero's sign, as the sum from 0j does.
    """
    n = len(points)
    out = np.zeros((n, n), dtype=complex)
    den, items = p.lattice_items()
    if not n or not items:
        return out
    frame_den, frame_ints = lattice(points)
    scale = math.lcm(den, frame_den)
    xs = [tuple(v * (scale // frame_den) for v in q) for q in frame_ints]
    terms, coeffs = zip(*items)
    ys = [tuple(v * (scale // den) for v in q) for q in terms]
    # coordinates of y - x_j reach twice the largest input coordinate
    big = 2 * max(abs(v) for q in xs + ys for v in q)
    x, y = _lattice_array(xs, big, scale), _lattice_array(ys, big, scale)
    c = np.array(coeffs)
    # times the coefficient 1-0j of W(x_j)*
    a_re, a_im = 1.0 * c.real - -0.0 * c.imag, 1.0 * c.imag + -0.0 * c.real
    re, im = np.zeros((n, n)), np.zeros((n, n))
    step = max(1, _PASS_ENTRIES // (n * n))
    for t in (slice(s, s + step) for s in range(0, len(ys), step)):
        z1 = y[t, None] - x  # terms by j
        p_re, p_im = _phase(-x, y[t, None], scale)
        ar, ai = a_re[t, None], a_im[t, None]
        re1, im1 = ar * p_re - ai * p_im, ar * p_im + ai * p_re
        keep = np.hypot(re1, im1) >= ZERO_THRESHOLD
        # times the coefficient 1+0j of W(x_k), then the phase of s(z1, x_k)
        b_re = (re1 * 1.0 - im1 * 0.0)[..., None]
        b_im = (re1 * 0.0 + im1 * 1.0)[..., None]
        q_re, q_im = _phase(z1[:, :, None], x, scale)
        re2, im2 = b_re * q_re - b_im * q_im, b_re * q_im + b_im * q_re
        keep = keep[..., None] & (np.hypot(re2, im2) >= ZERO_THRESHOLD)
        z2 = [z1[:, :, None, i] + x[:, i] for i in range(4)]
        g_re, g_im = _state_factor(state, z2, scale)
        if state.kind == KIND_EPR:
            # off the manifold eval_point is 0j, and a kept term, which is
            # finite, times 0j is a zero the sum absorbs
            keep &= (z2[0] + z2[2] == 0) & (z2[1] - z2[3] == 0)
        terms_re = np.where(keep, re2 * g_re - im2 * g_im, 0.0)
        terms_im = np.where(keep, re2 * g_im + im2 * g_re, 0.0)
        for term_re, term_im in zip(terms_re, terms_im):
            re += term_re
            im += term_im
    out.real, out.imag = re, im
    return out


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


def support_relation(m: np.ndarray) -> SupportPartition:
    """Partition the indices of a kernel matrix by the relation (j,k)
    related iff |M[j,k]| > SUPPORT_ZERO_TOL.

    ``m`` is the matrix ``kernel_matrix`` built, so each battery's kernel is
    built once.  Verifies that the relation really is an equivalence
    (reflexive, symmetric, transitive) before returning its classes;
    failure raises ``EquivalenceError``.  For the strictly correlated kernel
    the relation is the kernel of the invariant map x -> (a+c, b-d), so it
    always passes; regular kernels with thresholded tails can genuinely fail.
    """
    related = np.abs(m) > SUPPORT_ZERO_TOL
    if not np.all(np.diag(related)):
        raise EquivalenceError("support relation is not reflexive")
    if not np.array_equal(related, related.T):
        raise EquivalenceError("support relation is not symmetric")
    # A reflexive, symmetric relation is transitive exactly when every row
    # equals the row of its first related index, which then labels the class.
    first = related.argmax(axis=1) if len(m) else np.zeros(0, dtype=int)
    if not np.array_equal(related, related[first]):
        raise EquivalenceError("support relation is not transitive")
    classes = (tuple(np.flatnonzero(related[r]).tolist()) for r in np.unique(first))
    return SupportPartition(len(m), tuple(classes))


def rank_one_class_check(
    m: np.ndarray, partition: SupportPartition, tol: float
) -> dict:
    """Check the rank-one phase structure of the kernel on each class.

    Within a class every entry must be unimodular and satisfy the cocycle
    M[j,k] M[k,l] = M[j,l], which is equivalent to a factorization
    M[j,k] = alpha_j conj(alpha_k) with unimodular alphas; across classes
    the kernel must vanish.
    """
    # Moduli via hypot and products written out over real and imaginary
    # parts: numpy's SIMD abs and complex * differ from scalar arithmetic in
    # the last bit, and these values match the scalar ones exactly.
    same = np.zeros((partition.size, partition.size), dtype=bool)
    max_cocycle_dev = 0.0
    for cls in partition.classes:
        block = np.ix_(cls, cls)
        same[block] = True
        re, im = m.real[block], m.imag[block]
        # M[j,k] M[k,l] - M[j,l] over all (j, l) at once, one k at a time,
        # so memory stays O(class size squared)
        for k in range(len(cls)):
            a, b = re[:, k, None], im[:, k, None]
            dev = np.hypot(a * re[k] - b * im[k] - re, a * im[k] + b * re[k] - im)
            max_cocycle_dev = max(max_cocycle_dev, float(dev.max()))
    modulus = np.hypot(m.real, m.imag)
    max_modulus_dev = float(np.max(np.abs(modulus - 1.0), where=same, initial=0.0))
    max_cross_leak = float(np.max(modulus, where=~same, initial=0.0))
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
    the value must be exp{i(a*lambda + b*mu)} within IDENTITY_TOL.
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
        passed = deviation <= IDENTITY_TOL
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


def _embedded_pair(x: Point, y: Point) -> WeylPolynomial:
    """W(x) x W(y) as a dimension-4 polynomial."""
    left = tensor_embed(WeylPolynomial.generator(x), 1)
    right = tensor_embed(WeylPolynomial.generator(y), 2)
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
    s, t = Fraction(s), Fraction(t)
    a_poly = _embedded_pair(point(s, 0), point(-s, 0))
    b_poly = _embedded_pair(point(0, t), point(0, t))
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
    return {"max_deviation": max_dev, "passed": max_dev <= IDENTITY_TOL}


def trace_vector_check(
    state: StateFunctional, p: WeylPolynomial, q: WeylPolynomial, slot: int
) -> dict:
    """omega(embed(PQ)) = omega(embed(QP)) for one-particle polynomials."""
    if p.dim != 2 or q.dim != 2:
        raise ValueError("trace_vector_check expects dimension-2 polynomials")
    forward = eval_poly(state, tensor_embed(weyl_multiply(p, q), slot))
    reverse = eval_poly(state, tensor_embed(weyl_multiply(q, p), slot))
    deviation = abs(forward - reverse)
    return {
        "forward": forward,
        "reverse": reverse,
        "deviation": float(deviation),
        "passed": deviation <= 1e-10,
    }


def traciality_check(state: StateFunctional, a: Point, b: Point) -> dict:
    """omega(W(a)W(b) x I) = omega(W(b)W(a) x I) for one-particle points.

    ``trace_vector_check`` on the two generators in slot 1, with a stricter
    verdict: when b != -a both sides must be exact zeros; when b = -a both
    reduce to omega(I) = 1.
    """
    if len(a) != 2 or len(b) != 2:
        raise ValueError("traciality_check expects dimension-2 points")
    res = trace_vector_check(
        state, WeylPolynomial.generator(a), WeylPolynomial.generator(b), 1
    )
    passed = res["deviation"] <= IDENTITY_TOL
    if negate(a) != b:
        passed = passed and res["forward"] == 0 and res["reverse"] == 0
    return {**res, "passed": passed}
